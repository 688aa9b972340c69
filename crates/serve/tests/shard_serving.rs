//! Sharded-serving contract: a [`ShardRouter`] over N shared-nothing
//! shards answers byte-identically to a single [`PredictionServer`] —
//! labels, epochs, and provenance — for every shard count; shard hints
//! pin placement; deltas broadcast; rolling installs swap shard-by-shard
//! with zero downtime and zero dropped requests even under chaos; and the
//! router's wire/telemetry front ends speak for all shards at once.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossmine_core::classifier::{CrossMine, CrossMineModel};
use crossmine_net::http::format_predict_request;
use crossmine_relational::{AttrId, ClassLabel, Database, DeltaBatch, Row, Value};
use crossmine_serve::{
    ChaosConfig, CompiledPlan, ModelRegistry, PredictionServer, ServeError, ServeRequest,
    ServerConfig, ShardRouter,
};
use crossmine_synth::{generate, GenParams};

struct Fixture {
    db: Arc<Database>,
    plan: CompiledPlan,
    plan_b: CompiledPlan,
    expected_b: Vec<ClassLabel>,
    rows: Vec<Row>,
    expected: Vec<ClassLabel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = generate(&GenParams {
            num_relations: 4,
            expected_tuples: 80,
            min_tuples: 30,
            seed: 59,
            ..Default::default()
        });
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model: CrossMineModel = CrossMine::default().fit(&db, &rows).unwrap();
        let expected = model.predict(&db, &rows).unwrap();
        let plan = CompiledPlan::compile(&model, &db.schema).unwrap();
        // Model B: clauseless — every row answers the default label, so a
        // swap is observable on every single reply.
        let model_b = CrossMineModel {
            clauses: Vec::new(),
            default_label: model.default_label,
            classes: model.classes.clone(),
        };
        let expected_b = model_b.predict(&db, &rows).unwrap();
        let plan_b = CompiledPlan::compile(&model_b, &db.schema).unwrap();
        Fixture { db: Arc::new(db), plan, plan_b, expected_b, rows, expected }
    })
}

fn start_router(f: &Fixture, config: ServerConfig) -> ShardRouter {
    ShardRouter::start(Arc::clone(&f.db), &f.plan, config).expect("router starts")
}

fn shards_config(n: usize) -> ServerConfig {
    ServerConfig::builder().shards(n).build().expect("valid")
}

#[test]
fn sharded_labels_match_a_single_server_for_every_shard_count() {
    let f = fixture();
    for shards in [1usize, 2, 4] {
        let router = start_router(f, shards_config(shards));
        assert_eq!(router.num_shards(), shards);
        // One batched request over every row: handles come back in
        // request order no matter how rows scattered.
        let handles = router.serve(ServeRequest::new(f.rows.clone())).expect("admit all");
        assert_eq!(handles.len(), f.rows.len());
        for (i, h) in handles.into_iter().enumerate() {
            let p = h.wait().expect("answered");
            assert_eq!(p.row, f.rows[i], "order preserved across shards");
            assert_eq!(p.label, f.expected[i], "row {} under {shards} shards", f.rows[i].0);
            assert_eq!(p.epoch, 0);
        }
        let stats = router.shutdown();
        assert_eq!(stats.shards.len(), shards);
        assert_eq!(stats.total_requests(), f.rows.len() as u64);
        assert_eq!(stats.total_errors(), 0);
        if shards > 1 {
            let busy = stats.shards.iter().filter(|s| s.snapshot.requests > 0).count();
            assert!(busy > 1, "routing must actually spread rows over shards");
        }
    }
}

#[test]
fn explain_batch_provenance_is_identical_to_a_single_server() {
    let f = fixture();
    let registry = Arc::new(ModelRegistry::new(f.plan.clone()));
    let single = PredictionServer::start(Arc::clone(&f.db), registry, ServerConfig::default())
        .expect("start");
    let router = start_router(f, shards_config(3));

    let want = single.explain_batch(&f.rows).expect("single explain");
    let got = router.explain_batch(&f.rows).expect("sharded explain");
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.explanation.row, w.explanation.row);
        assert_eq!(g.explanation.label, w.explanation.label);
        assert_eq!(g.explanation.default_used, w.explanation.default_used);
        assert_eq!(g.epoch, w.epoch);
        assert_eq!(g.explanation.fired.len(), w.explanation.fired.len());
        for (gf, wf) in g.explanation.fired.iter().zip(&w.explanation.fired) {
            assert_eq!(gf.clause_index, wf.clause_index);
            assert_eq!(gf.label, wf.label);
        }
    }
    router.shutdown();
    single.shutdown();
}

#[test]
fn shard_hint_pins_the_request_and_out_of_range_is_rejected() {
    let f = fixture();
    let router = start_router(f, shards_config(4));

    // Pin every row to shard 2 regardless of the hash.
    let handles =
        router.serve(ServeRequest::new(f.rows.clone()).shard_hint(2)).expect("hinted admission");
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait().expect("answered").label, f.expected[i]);
    }
    let stats = router.stats();
    for s in &stats.shards {
        let want = if s.shard == 2 { f.rows.len() as u64 } else { 0 };
        assert_eq!(s.snapshot.requests, want, "shard {} saw off-hint traffic", s.shard);
    }

    let err = router.serve(ServeRequest::row(f.rows[0]).shard_hint(4)).unwrap_err();
    let ServeError::InvalidConfig(reason) = &err else {
        panic!("expected InvalidConfig, got {err:?}");
    };
    assert!(reason.contains("shard_hint"), "{reason}");
    router.shutdown();
}

#[test]
fn rolling_install_swaps_shard_by_shard_with_zero_downtime() {
    let f = fixture();
    let router = start_router(f, shards_config(4));

    // Before: everyone serves epoch 0. predict() keeps working at every
    // instant of the roll; each reply is wholly consistent with the model
    // its epoch names.
    assert_eq!(router.epochs(), vec![0, 0, 0, 0]);
    let check = |p: &crossmine_serve::Prediction, i: usize| match p.epoch {
        0 => assert_eq!(p.label, f.expected[i], "epoch-0 reply must match model A"),
        1 => assert_eq!(p.label, f.expected_b[i], "epoch-1 reply must match model B"),
        e => panic!("impossible epoch {e}"),
    };

    std::thread::scope(|scope| {
        let roller = scope.spawn(|| router.rolling_install(&f.plan_b));
        for _pass in 0..4 {
            for (i, &row) in f.rows.iter().enumerate() {
                check(&router.predict(row).expect("served throughout the roll"), i);
            }
        }
        let epochs = roller.join().expect("roller");
        assert_eq!(epochs, vec![1, 1, 1, 1]);
    });
    assert_eq!(router.epochs(), vec![1, 1, 1, 1]);

    // After the roll: every reply is model B at epoch 1.
    for (i, &row) in f.rows.iter().enumerate() {
        let p = router.predict(row).expect("post-roll predict");
        assert_eq!((p.epoch, p.label), (1, f.expected_b[i]));
    }
    let stats = router.shutdown();
    assert_eq!(stats.total_errors(), 0, "nothing dropped during the roll");
    assert_eq!((stats.min_epoch(), stats.max_epoch()), (1, 1));
}

#[test]
fn rolling_install_under_chaos_drops_nothing() {
    let f = fixture();
    let config = ServerConfig::builder()
        .shards(2)
        .workers(2)
        .max_batch(8)
        .queue_capacity(4)
        .chaos(ChaosConfig::standard())
        .build()
        .expect("valid");
    let router = start_router(f, config);
    let answered = AtomicU64::new(0);
    let total = (2 * f.rows.len()) as u64;

    std::thread::scope(|scope| {
        for c in 0..2 {
            let router = &router;
            let answered = &answered;
            scope.spawn(move || {
                for (k, &row) in f.rows.iter().enumerate() {
                    // Retry every retryable degradation, like a real client.
                    'req: for attempt in 0..1000 {
                        let submitted = router
                            .serve(ServeRequest::row(row))
                            .map(|mut h| h.pop().expect("one handle"));
                        match submitted.and_then(|h| h.wait()) {
                            Ok(p) => {
                                match p.epoch {
                                    0 => assert_eq!(p.label, f.expected[k]),
                                    1 => assert_eq!(p.label, f.expected_b[k]),
                                    e => panic!("impossible epoch {e}"),
                                }
                                answered.fetch_add(1, Ordering::Relaxed);
                                break 'req;
                            }
                            Err(e) if e.is_retryable() => {
                                std::thread::sleep(Duration::from_micros(50 * (attempt + 1)));
                            }
                            Err(e) => panic!("non-retryable under chaos: {e}"),
                        }
                    }
                    // Roll mid-stream from one of the clients.
                    if c == 0 && k == f.rows.len() / 2 {
                        router.rolling_install(&f.plan_b);
                    }
                }
            });
        }
    });
    assert_eq!(answered.load(Ordering::Relaxed), total, "every request answered");
    let stats = router.shutdown();
    assert_eq!(stats.min_epoch(), 1, "the roll completed on every shard");
    assert!(stats.total_requests() >= total, "retries only add to the count");
}

#[test]
fn deltas_broadcast_to_every_shard() {
    // fig2 is small enough to reason about; the synth fixture's delta
    // story is covered by overlay_serving.rs. Here: every shard must see
    // the delta, whichever shard a row routes to.
    let base = crossmine_relational::fixtures::fig2_loan_account();
    let rows: Vec<Row> = base.relation(base.target().unwrap()).iter_rows().collect();
    let model = CrossMine::default().fit(&base, &rows).unwrap();
    let plan = CompiledPlan::compile(&model, &base.schema).unwrap();
    let loan = base.schema.rel_id("Loan").unwrap();
    let account = base.schema.rel_id("Account").unwrap();

    let mut batch = DeltaBatch::new();
    batch.insert(account, vec![Value::Key(500), Value::Cat(0), Value::Num(990101.0)]);
    batch.insert_labeled(
        loan,
        vec![Value::Key(6), Value::Key(500), Value::Num(800.0), Value::Num(12.0), Value::Num(70.0)],
        ClassLabel::POS,
    );
    batch.update(loan, Row(0), AttrId(2), Value::Num(1500.0));

    let mut merged = base.clone();
    merged.apply_delta(&batch).unwrap();
    let merged_rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();
    let registry = Arc::new(ModelRegistry::new(plan.clone()));
    let merged_server =
        PredictionServer::start(Arc::new(merged), registry, ServerConfig::default()).unwrap();

    let router =
        ShardRouter::start(Arc::new(base), &plan, shards_config(3)).expect("router starts");
    let stats = router.apply_delta(&batch).expect("broadcast accepted");
    assert_eq!(stats.inserted_rows, 2);

    for &row in &merged_rows {
        assert_eq!(
            router.predict(row).expect("sharded overlay predict").label,
            merged_server.predict(row).expect("merged predict").label,
            "row {} (routed to shard {})",
            row.0,
            router.shard_of(row)
        );
    }

    // A bad follow-up is rejected in lockstep and installs nowhere.
    let mut bad = DeltaBatch::new();
    bad.update(loan, Row(0), AttrId(0), Value::Key(77)); // key column
    let err = router.apply_delta(&bad).unwrap_err();
    assert!(matches!(err, ServeError::InvalidDelta(_)), "{err:?}");
    for &row in &merged_rows {
        assert_eq!(
            router.predict(row).unwrap().label,
            merged_server.predict(row).unwrap().label,
            "rejected batch must change nothing"
        );
    }
    merged_server.shutdown();
    router.shutdown();
}

#[test]
fn wire_front_end_routes_across_shards_on_one_port() {
    let f = fixture();
    let config = ServerConfig::builder()
        .shards(4)
        .net(crossmine_serve::NetConfig::default())
        .build()
        .expect("valid");
    let router = start_router(f, config);
    let addr = router.net_addr().expect("net bound");
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    for chunk in f.rows.chunks(16).take(3) {
        let ids: Vec<u32> = chunk.iter().map(|r| r.0).collect();
        writer.write_all(&format_predict_request(&ids, None, true)).expect("send");
        let (code, body) = read_http_response(&mut reader);
        assert_eq!(code, 200, "{body}");
        let labels = parse_labels(&body);
        let want: Vec<u32> = chunk
            .iter()
            .map(|r| f.expected[f.rows.iter().position(|x| x == r).unwrap()].0)
            .collect();
        assert_eq!(labels, want, "wire labels must match across shard scatter");
    }
    let stats = router.shutdown();
    assert!(
        stats.shards.iter().filter(|s| s.snapshot.requests > 0).count() > 1,
        "a 48-row wire workload must touch multiple shards"
    );
}

#[test]
fn telemetry_renders_per_shard_series_and_aggregates() {
    let f = fixture();
    let config = ServerConfig::builder()
        .shards(2)
        .telemetry_addr("127.0.0.1:0".parse().unwrap())
        .build()
        .expect("valid");
    let router = start_router(f, config);
    for &row in f.rows.iter().take(20) {
        router.predict(row).expect("predict");
    }
    router.rolling_install(&f.plan_b);

    let addr = router.telemetry_addr().expect("telemetry bound");
    let metrics = http_get(addr, "/metrics");
    // Aggregate serve series sum over shards...
    assert!(metrics.contains("crossmine_serve_requests_total 20"), "{metrics}");
    assert!(metrics.contains("crossmine_serve_latency_us_count 20"), "{metrics}");
    // ...plus per-shard series and the shard-count gauge.
    assert!(metrics.contains("crossmine_shard_count 2"), "{metrics}");
    for k in 0..2 {
        assert!(metrics.contains(&format!("crossmine_shard_{k}_requests_total")), "{metrics}");
        assert!(metrics.contains(&format!("crossmine_shard_{k}_model_epoch 1")), "{metrics}");
        assert!(metrics.contains(&format!("crossmine_shard_{k}_model_swaps_total 1")), "{metrics}");
    }
    // Aggregate epoch reports the oldest shard (all rolled: 1), and the
    // buildinfo page carries the shard count.
    assert!(metrics.contains("crossmine_serve_model_epoch 1"), "{metrics}");
    let buildinfo = http_get(addr, "/buildinfo");
    assert!(buildinfo.contains("\"shards\":2"), "{buildinfo}");
    router.shutdown();
}

#[test]
fn traced_requests_carry_the_shard_id_on_their_batch_span() {
    use crossmine_serve::{TraceConfig, Tracer};
    let f = fixture();
    let tracer = Tracer::with_config(TraceConfig {
        ring_capacity: 1024,
        window: 1024,
        keep_slowest: 1024,
        ..TraceConfig::default()
    });
    let config = ServerConfig::builder().shards(3).tracer(tracer.clone()).build().expect("valid");
    let router = start_router(f, config);

    let row = f.rows[0];
    let want_shard = router.shard_of(row) as u64;
    let ctx = tracer.start(4242);
    let handles = router.serve(ServeRequest::row(row).trace(ctx.clone())).expect("admit");
    for h in handles {
        h.wait().expect("answered");
    }
    let _ = ctx.complete();

    let trace = tracer.find(crossmine_serve::TraceId(4242)).expect("trace retained");
    let batch = trace.spans.iter().find(|s| s.name == "serve.batch").expect("batch span");
    let shard_attr = batch.attrs.iter().find(|(k, _)| *k == "shard").expect("shard attr stamped");
    assert_eq!(shard_attr.1, crossmine_obs::FieldValue::U64(want_shard));
    let rendered = trace.render_jsonl();
    assert!(rendered.contains(&format!("\"shard\":{want_shard}")), "{rendered}");
    router.shutdown();
}

fn read_http_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let code: u16 =
        status_line.split(' ').nth(1).and_then(|c| c.parse().ok()).expect("status code");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (code, String::from_utf8_lossy(&body).to_string())
}

/// Extracts `"labels":[...]` from a 200 predict body.
fn parse_labels(body: &str) -> Vec<u32> {
    let start = body.find("\"labels\":[").expect("labels field") + "\"labels\":[".len();
    let end = body[start..].find(']').expect("closing bracket") + start;
    body[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("label"))
        .collect()
}

/// One blocking HTTP GET, returning the body of a 200 response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200"), "{path}: {response}");
    response.split("\r\n\r\n").nth(1).unwrap_or("").to_string()
}

/// A request spanning shards is admitted all-or-nothing: when one shard's
/// queue has no room for its rows, no shard queues any of the request.
#[test]
fn cross_shard_request_is_shed_whole_when_one_shard_is_full() {
    let f = fixture();
    let config = ServerConfig::builder()
        .shards(2)
        .workers(1)
        .max_batch(1)
        .queue_capacity(2)
        .chaos(ChaosConfig {
            stall_every: 1,
            stall_for: Duration::from_millis(200),
            ..Default::default()
        })
        .build()
        .expect("valid");
    let router = start_router(f, config);
    let on = |shard: usize| -> Vec<Row> {
        f.rows.iter().copied().filter(|&r| router.shard_of(r) == shard).take(3).collect()
    };
    let (shard0, shard1) = (on(0), on(1));
    // Shard 1's worker stalls on an occupier, and two more rows fill its
    // 2-slot queue; shard 0 stays empty.
    let mut handles = router.serve(ServeRequest::row(shard1[0])).expect("occupier admitted");
    std::thread::sleep(Duration::from_millis(50));
    handles.extend(router.serve(ServeRequest::new(&shard1[1..3])).expect("fills shard 1"));
    let before = router.stats().total_requests();

    // The shard-0 row comes first, so row-by-row admission would queue it
    // before shard 1 refused.
    let err = router.serve(ServeRequest::new(vec![shard0[0], shard1[0]])).unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { .. }), "{err:?}");
    assert_eq!(router.stats().total_requests(), before, "no shard queued a row of it");

    for h in handles {
        h.wait().expect("admitted rows are scored");
    }
    let stats = router.shutdown();
    assert_eq!(stats.total_requests(), 3);
    assert_eq!(stats.total_errors(), 0, "a shed request leaves no undeliverable replies");
}
