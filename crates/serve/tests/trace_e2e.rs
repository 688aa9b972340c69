//! End-to-end request tracing: a real `PredictionServer` with the wire
//! front end and telemetry endpoint bound, probed over actual TCP. The
//! acceptance contract of the tracing subsystem lives here:
//!
//! * one `POST /predict` with an `X-Request-Id` yields **one** stored
//!   trace whose span tree is the full causal chain — conn-sniff →
//!   parse → admission-wait → batch → eval → reply-write — with every
//!   parent link intact;
//! * the p99 serve-latency bucket's exemplar resolves through
//!   `GET /trace` to a stored trace carrying that `TraceId`;
//! * with tracing off, `/trace` answers 404 and `/metrics` exposes the
//!   exact same metric families as with tracing on.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossmine_core::classifier::{CrossMine, CrossMineModel};
use crossmine_relational::{Database, Row};
use crossmine_serve::{
    CompiledPlan, ModelRegistry, NetConfig, PredictionServer, ServerConfig, StoredTrace,
    TraceConfig, TraceId, Tracer,
};
use crossmine_synth::{generate, GenParams};

struct Fixture {
    db: Arc<Database>,
    plan: CompiledPlan,
    rows: Vec<Row>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = generate(&GenParams {
            num_relations: 3,
            expected_tuples: 60,
            min_tuples: 20,
            seed: 53,
            ..Default::default()
        });
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model: CrossMineModel = CrossMine::default().fit(&db, &rows).unwrap();
        let plan = CompiledPlan::compile(&model, &db.schema).unwrap();
        Fixture { db: Arc::new(db), plan, rows }
    })
}

/// A tracer that keeps every completed trace: ring and window far larger
/// than anything a test produces, so sampling decisions are all "keep".
fn keep_all_tracer() -> Tracer {
    Tracer::with_config(TraceConfig {
        ring_capacity: 1024,
        window: 1024,
        keep_slowest: 1024,
        ..TraceConfig::default()
    })
}

fn start_server(config: ServerConfig) -> PredictionServer {
    let f = fixture();
    let registry = Arc::new(ModelRegistry::new(f.plan.clone()));
    PredictionServer::start(Arc::clone(&f.db), registry, config).expect("valid config")
}

/// One raw HTTP exchange over a fresh connection: returns (status, body).
fn http_roundtrip(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(request).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8_lossy(&response).to_string();
    let status: u16 =
        text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn predict_request(row: u32, request_id: u64) -> Vec<u8> {
    let body = format!("{{\"rows\":[{row}]}}");
    format!(
        "POST /predict HTTP/1.1\r\nContent-Type: application/json\r\n\
         X-Request-Id: {request_id}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_roundtrip(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

/// The wire path completes a trace when the reply's last byte is accepted
/// by the socket — a hair after the client reads the response. Poll the
/// ring briefly instead of racing the poll thread.
fn find_trace(tracer: &Tracer, id: TraceId) -> StoredTrace {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(t) = tracer.find(id) {
            return t;
        }
        assert!(Instant::now() < deadline, "trace {id:?} never completed into the ring");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn wire_request_yields_the_full_causal_chain_as_one_tree() {
    let f = fixture();
    let tracer = keep_all_tracer();
    let server = start_server(
        ServerConfig::builder()
            .net(NetConfig::default())
            .telemetry_addr("127.0.0.1:0".parse().expect("literal addr"))
            .tracer(tracer.clone())
            .build()
            .expect("valid config"),
    );
    let net_addr = server.net_addr().expect("net bound");

    let (code, body) = http_roundtrip(net_addr, &predict_request(f.rows[0].0, 4242));
    assert_eq!(code, 200, "{body}");

    // The trace reuses the client's X-Request-Id and holds the whole
    // causal chain, wire to worker and back.
    let trace = find_trace(&tracer, TraceId(4242));
    assert!(!trace.error, "a scored request is not an error trace");
    let span = |name: &str| trace.spans.iter().find(|s| s.name == name).map(|s| (s.id, s.parent));
    let stages =
        ["net.sniff", "net.parse", "serve.queue_wait", "serve.batch", "serve.eval", "net.write"];
    for stage in stages {
        assert!(span(stage).is_some(), "stage {stage} missing from {:?}", trace.spans);
    }
    // Parent links: eval nests under this trace's batch span; every other
    // stage hangs off the root request span — one connected tree.
    let (batch_id, batch_parent) = span("serve.batch").expect("batch span");
    let (_, eval_parent) = span("serve.eval").expect("eval span");
    assert_eq!(eval_parent, batch_id, "serve.eval must nest under serve.batch");
    let root = crossmine_obs::ROOT_SPAN;
    for stage in ["net.sniff", "net.parse", "serve.queue_wait", "net.write"] {
        let (_, parent) = span(stage).expect("stage span");
        assert_eq!(parent, root, "{stage} must hang off the root request span");
    }
    assert_eq!(batch_parent, root);
    // Causal order: each stage starts no earlier than the previous.
    let start = |name: &str| trace.spans.iter().find(|s| s.name == name).expect("span").start_ns;
    for pair in stages.windows(2) {
        assert!(
            start(pair[0]) <= start(pair[1]),
            "{} starts after {} in {:?}",
            pair[0],
            pair[1],
            trace.spans
        );
    }
    // `net.write` covers the write itself: it ends after it starts, and
    // no later than the request it closes.
    let write = trace.spans.iter().find(|s| s.name == "net.write").expect("write span");
    assert!(write.end_ns > write.start_ns, "zero-length net.write in {:?}", trace.spans);
    assert!(write.end_ns <= trace.duration_ns, "net.write outlives its request: {trace:?}");

    // The same trace is retrievable over HTTP, in both renderings.
    let telemetry = server.telemetry_addr().expect("telemetry bound");
    let (code, jsonl) = http_get(telemetry, "/trace");
    assert_eq!(code, 200);
    assert!(jsonl.contains("\"trace_id\":4242"), "{jsonl}");
    assert!(jsonl.contains("\"name\":\"serve.eval\""), "{jsonl}");
    let (code, chrome) = http_get(telemetry, "/trace/chrome");
    assert_eq!(code, 200);
    assert!(chrome.trim_start().starts_with('['), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    server.shutdown();
}

#[test]
fn p99_exemplar_resolves_to_a_stored_trace() {
    let f = fixture();
    let tracer = keep_all_tracer();
    let server = start_server(
        ServerConfig::builder()
            .net(NetConfig::default())
            .telemetry_addr("127.0.0.1:0".parse().expect("literal addr"))
            .tracer(tracer.clone())
            .build()
            .expect("valid config"),
    );
    let net_addr = server.net_addr().expect("net bound");
    for (i, &row) in f.rows.iter().take(8).enumerate() {
        let (code, body) = http_roundtrip(net_addr, &predict_request(row.0, 9000 + i as u64));
        assert_eq!(code, 200, "{body}");
    }
    let telemetry = server.telemetry_addr().expect("telemetry bound");
    let (code, exemplars) = http_get(telemetry, "/trace/exemplars");
    assert_eq!(code, 200);
    assert!(exemplars.contains("\"serve_latency_us\":["), "{exemplars}");
    // The highest-bucket serve-latency exemplar IS the p99 bucket's for
    // this workload (the p99 estimate lands in the slowest populated
    // bucket). It must resolve to a stored trace with that TraceId.
    let serve_section = exemplars
        .split("\"serve_latency_us\":[")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("serve exemplar section");
    let last_id: u64 = serve_section
        .rsplit("\"trace_id\":")
        .next()
        .and_then(|s| s.trim_end_matches(['}', ',']).parse().ok())
        .expect("at least one serve exemplar");
    assert!((9000..9008).contains(&last_id), "exemplar id {last_id} not from this run");
    let resolved = find_trace(&tracer, TraceId(last_id));
    assert_eq!(resolved.id, TraceId(last_id));
    assert!(resolved.spans.iter().any(|s| s.name == "serve.eval"), "{resolved:?}");
    // And it is present in the /trace JSONL dump under the same id.
    let (code, jsonl) = http_get(telemetry, "/trace");
    assert_eq!(code, 200);
    assert!(jsonl.contains(&format!("\"trace_id\":{last_id}")), "{jsonl}");
    server.shutdown();
}

#[test]
fn in_process_submissions_are_traced_and_completed_by_workers() {
    let f = fixture();
    let tracer = keep_all_tracer();
    let server =
        start_server(ServerConfig::builder().tracer(tracer.clone()).build().expect("valid config"));
    server.predict(f.rows[0]).expect("predict");
    // In-process traces complete in the worker right after the reply is
    // sent — no socket involved, but still poll: the send happens before
    // complete() only from the worker's perspective.
    let deadline = Instant::now() + Duration::from_secs(5);
    let trace = loop {
        if let Some(t) = tracer
            .recent(16)
            .into_iter()
            .find(|t| !t.error && t.spans.iter().any(|s| s.name == "serve.eval"))
        {
            break t;
        }
        assert!(Instant::now() < deadline, "in-process trace never completed");
        std::thread::sleep(Duration::from_millis(2));
    };
    for stage in ["serve.queue_wait", "serve.batch", "serve.eval"] {
        assert!(trace.spans.iter().any(|s| s.name == stage), "{stage} missing: {trace:?}");
    }
    assert!(
        !trace.spans.iter().any(|s| s.name.starts_with("net.")),
        "in-process trace must have no wire spans: {trace:?}"
    );

    // A zero deadline expires at batch collection: tail sampling must keep
    // the trace as an error even though it was fast.
    let req = crossmine_serve::ServeRequest::row(f.rows[0]).deadline(Duration::ZERO);
    let err = server
        .serve(req)
        .and_then(|mut handles| handles.pop().expect("one handle").wait())
        .expect_err("zero deadline must expire");
    assert!(matches!(err, crossmine_serve::ServeError::DeadlineExceeded { .. }), "{err:?}");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if tracer
            .recent(16)
            .iter()
            .any(|t| t.error && t.spans.iter().any(|s| s.name == "serve.queue_wait"))
        {
            break;
        }
        assert!(Instant::now() < deadline, "expired-deadline trace never kept");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
}

#[test]
fn scrape_surface_is_identical_with_tracing_on_and_off() {
    let f = fixture();
    // Two identical servers, the only difference being the tracer.
    let families = |tracer: Tracer| {
        let server = start_server(
            ServerConfig::builder()
                .net(NetConfig::default())
                .telemetry_addr("127.0.0.1:0".parse().expect("literal addr"))
                .obs(crossmine_serve::ObsHandle::enabled())
                .tracer(tracer)
                .build()
                .expect("valid config"),
        );
        let net_addr = server.net_addr().expect("net bound");
        let (code, _) = http_roundtrip(net_addr, &predict_request(f.rows[0].0, 7));
        assert_eq!(code, 200);
        let telemetry = server.telemetry_addr().expect("telemetry bound");
        let (code, metrics) = http_get(telemetry, "/metrics");
        assert_eq!(code, 200);
        let mut fams: Vec<String> =
            metrics.lines().filter(|l| l.starts_with("# TYPE ")).map(|l| l.to_string()).collect();
        fams.sort();
        (server, fams)
    };
    let (off_server, off) = families(Tracer::noop());
    let (on_server, on) = families(keep_all_tracer());
    assert_eq!(off, on, "tracing must not add or remove metric families");

    // /trace is 404 with tracing off, 200 with it on.
    let off_telemetry = off_server.telemetry_addr().expect("bound");
    let on_telemetry = on_server.telemetry_addr().expect("bound");
    for path in ["/trace", "/trace/chrome", "/trace/exemplars"] {
        let (code, body) = http_get(off_telemetry, path);
        assert_eq!((code, body.trim()), (404, "tracing disabled"), "{path}");
        let (code, _) = http_get(on_telemetry, path);
        assert_eq!(code, 200, "{path}");
    }
    off_server.shutdown();
    on_server.shutdown();
}
