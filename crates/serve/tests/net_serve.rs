//! End-to-end wire-protocol serving: a real `PredictionServer` with the
//! `crossmine-net` front end enabled, driven over real TCP sockets in
//! both protocols, plus the chaos net leg — stalled clients, half-closed
//! sockets, and mid-frame disconnects must degrade the connection in
//! question, never the server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossmine_core::classifier::{CrossMine, CrossMineModel};
use crossmine_net::frame;
use crossmine_net::http::format_predict_request;
use crossmine_relational::{ClassLabel, Database, Row};
use crossmine_serve::{
    ChaosConfig, CompiledPlan, ModelRegistry, NetConfig, PredictionServer, ServeRequest,
    ServerConfig,
};
use crossmine_synth::{generate, GenParams};

struct Fixture {
    db: Arc<Database>,
    plan: CompiledPlan,
    rows: Vec<Row>,
    expected: Vec<ClassLabel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = generate(&GenParams {
            num_relations: 3,
            expected_tuples: 60,
            min_tuples: 20,
            seed: 47,
            ..Default::default()
        });
        let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
        let model: CrossMineModel = CrossMine::default().fit(&db, &rows).unwrap();
        let expected = model.predict(&db, &rows).unwrap();
        let plan = CompiledPlan::compile(&model, &db.schema).unwrap();
        Fixture { db: Arc::new(db), plan, rows, expected }
    })
}

fn start_server(config: ServerConfig) -> PredictionServer {
    let f = fixture();
    let registry = Arc::new(ModelRegistry::new(f.plan.clone()));
    PredictionServer::start(Arc::clone(&f.db), registry, config).expect("valid config")
}

fn net_config() -> ServerConfig {
    ServerConfig::builder().net(NetConfig::default()).build().expect("valid config")
}

fn connect(server: &PredictionServer) -> TcpStream {
    let addr = server.net_addr().expect("net front end configured");
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream
}

fn read_http_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let code: u16 =
        status_line.split(' ').nth(1).and_then(|c| c.parse().ok()).expect("status code");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().expect("length");
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (code, headers, String::from_utf8_lossy(&body).to_string())
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

#[test]
fn http_predictions_match_the_model_over_a_real_socket() {
    let f = fixture();
    let server = start_server(net_config());
    let stream = connect(&server);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    // Keep-alive: several batches over one connection.
    for chunk in f.rows.chunks(8).take(4) {
        let ids: Vec<u32> = chunk.iter().map(|r| r.0).collect();
        writer.write_all(&format_predict_request(&ids, None, true)).expect("send");
        let (code, _, body) = read_http_response(&mut reader);
        assert_eq!(code, 200, "{body}");
        let labels = parse_labels(&body);
        let want: Vec<u32> = chunk
            .iter()
            .map(|r| {
                let i = f.rows.iter().position(|x| x == r).unwrap();
                f.expected[i].0
            })
            .collect();
        assert_eq!(labels, want, "wire labels must match CrossMineModel::predict");
    }
    let report = server.shutdown();
    assert_eq!(report.errors, 0);
}

#[test]
fn binary_predictions_match_the_model_over_a_real_socket() {
    let f = fixture();
    let server = start_server(net_config());
    let mut stream = connect(&server);
    let ids: Vec<u32> = f.rows.iter().take(8).map(|r| r.0).collect();
    let mut wire = Vec::new();
    frame::encode_request(1234, None, &ids, &mut wire);
    stream.write_all(&wire).expect("send");
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    let resp = loop {
        if let Some((resp, _)) = frame::decode_response(&got, 1 << 20).expect("well-formed") {
            break resp;
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed before replying");
        got.extend_from_slice(&chunk[..n]);
    };
    assert_eq!(resp.request_id, 1234);
    assert_eq!(resp.status, 200);
    let want: Vec<u32> = f.expected.iter().take(8).map(|l| l.0).collect();
    assert_eq!(resp.labels, want);
    server.shutdown();
}

#[test]
fn telemetry_exports_crossmine_net_series() {
    let server = start_server(
        ServerConfig::builder()
            .net(NetConfig::default())
            .telemetry_addr("127.0.0.1:0".parse().unwrap())
            .build()
            .expect("valid config"),
    );
    // Drive one request through the wire so the counters are nonzero.
    let stream = connect(&server);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&format_predict_request(&[fixture().rows[0].0], None, true)).expect("send");
    let (code, _, _) = read_http_response(&mut reader);
    assert_eq!(code, 200);

    let taddr = server.telemetry_addr().expect("telemetry configured");
    let mut tstream = TcpStream::connect(taddr).expect("connect telemetry");
    tstream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    tstream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").expect("send");
    let mut doc = String::new();
    tstream.read_to_string(&mut doc).expect("read");
    for series in [
        "crossmine_net_accepted_total",
        "crossmine_net_http_conns_total",
        "crossmine_net_http_requests_total",
        "crossmine_net_open_conns",
    ] {
        assert!(doc.contains(series), "missing {series} in:\n{doc}");
    }
    assert!(doc.contains("crossmine_net_http_requests_total 1"), "one request was served:\n{doc}");
    server.shutdown();
}

#[test]
fn overload_is_a_typed_429_and_accept_never_blocks() {
    // A stalling worker and a 2-slot queue: wire requests pile up and the
    // listener must answer 429 from the admission check while continuing
    // to accept fresh connections.
    let server = start_server(
        ServerConfig::builder()
            .workers(1)
            .queue_capacity(2)
            .chaos(ChaosConfig {
                stall_every: 1,
                stall_for: Duration::from_millis(30),
                ..Default::default()
            })
            .net(NetConfig::default())
            .build()
            .expect("valid config"),
    );
    let f = fixture();
    // Fire a burst of concurrent connections WITHOUT reading responses,
    // so requests pile into the 2-slot queue while the worker stalls.
    let mut streams = Vec::new();
    for _ in 0..30 {
        let stream = connect(&server);
        let mut writer = stream.try_clone().expect("clone");
        writer
            .write_all(&format_predict_request(&[f.rows[0].0, f.rows[1].0], None, false))
            .expect("send even under overload");
        streams.push(stream);
    }
    let mut saw_429 = false;
    let mut saw_retry_after = false;
    let mut answered = 0usize;
    for stream in streams {
        let mut reader = BufReader::new(stream);
        let (code, headers, body) = read_http_response(&mut reader);
        answered += 1;
        match code {
            200 => {}
            429 => {
                saw_429 = true;
                saw_retry_after |= headers.iter().any(|(n, _)| n == "retry-after");
                assert!(body.contains("\"retryable\":true"), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(answered, 30, "every connection was accepted and answered");
    assert!(saw_429, "the queue never filled — chaos stall not effective");
    assert!(saw_retry_after, "429 must carry Retry-After");
    server.shutdown();
}

/// The chaos net leg: hostile connection patterns. Each must cost at most
/// its own connection; a well-behaved request afterwards still succeeds.
#[test]
fn net_chaos_stalled_half_closed_and_midframe_disconnects() {
    let f = fixture();
    let server = start_server(
        ServerConfig::builder()
            .net(NetConfig { idle_timeout: Duration::from_millis(200), ..NetConfig::default() })
            .build()
            .expect("valid config"),
    );

    // 1. Stalled client: opens a connection, sends half an HTTP request,
    //    then goes silent. (Held open; reaped by the idle timeout later.)
    let mut stalled = connect(&server);
    stalled.write_all(b"POST /predict HTTP/1.1\r\nContent-").expect("send partial");

    // 2. Mid-frame disconnect: half a binary frame, then a hard drop.
    let mut midframe = connect(&server);
    let mut wire = Vec::new();
    frame::encode_request(9, None, &[f.rows[0].0], &mut wire);
    midframe.write_all(&wire[..wire.len() / 2]).expect("send half frame");
    drop(midframe);

    // 3. Half-closed socket: send a full request, shut down the write
    //    side, and still expect the full response on the read side.
    let half = connect(&server);
    let mut writer = half.try_clone().expect("clone");
    writer.write_all(&format_predict_request(&[f.rows[0].0], None, false)).expect("send");
    half.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(half);
    let (code, _, _) = read_http_response(&mut reader);
    assert_eq!(code, 200, "half-closed clients still get their response");

    // 4. Garbage protocol: closed cleanly without a response.
    let mut garbage = connect(&server);
    garbage.write_all(&[0x01, 0x02, 0x03]).expect("send garbage");
    let mut tmp = [0u8; 16];
    assert_eq!(garbage.read(&mut tmp).expect("read"), 0);

    // After all of that, a well-formed request on a fresh connection
    // works and returns the right label.
    let stream = connect(&server);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&format_predict_request(&[f.rows[0].0], None, true)).expect("send");
    let (code, _, body) = read_http_response(&mut reader);
    assert_eq!(code, 200, "{body}");
    assert_eq!(parse_labels(&body), vec![f.expected[0].0]);

    // The stalled connection is eventually reaped by the idle timeout:
    // its read side sees EOF instead of hanging forever.
    stalled.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let n = stalled.read(&mut tmp).expect("stalled conn read");
    assert_eq!(n, 0, "stalled connection must be reaped, not leaked");

    let report = server.shutdown();
    assert_eq!(report.errors, 0, "hostile connections must not lose admitted work");
}

#[test]
fn shutdown_finishes_in_flight_wire_requests() {
    let f = fixture();
    let server = start_server(net_config());
    let stream = connect(&server);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&format_predict_request(&[f.rows[0].0], None, true)).expect("send");
    // Shut down with the request possibly still in flight: the drain must
    // deliver the response before the socket dies.
    let handle = std::thread::spawn(move || {
        let (code, _, _) = read_http_response(&mut reader);
        code
    });
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown();
    let code = handle.join().expect("reader thread");
    assert_eq!(code, 200, "in-flight request answered through the drain");
}

/// A wire batch is admitted all-or-nothing: when the queue has room for
/// some of its rows but not all, none of them is queued. Admitting row by
/// row would queue the rows that fit, answer the batch 429 anyway, and
/// then score rows nobody waits for, whose undeliverable replies show up
/// as phantom `serve.errors`.
#[test]
fn partly_fitting_wire_batch_is_shed_whole() {
    let f = fixture();
    let server = start_server(
        ServerConfig::builder()
            .workers(1)
            .max_batch(1)
            .queue_capacity(4)
            .chaos(ChaosConfig {
                stall_every: 1,
                stall_for: Duration::from_millis(200),
                ..Default::default()
            })
            .net(NetConfig::default())
            .build()
            .expect("valid config"),
    );
    // The worker takes the occupier and stalls on it; two more rows then
    // leave room for two, so a 4-row batch fits only in part.
    let occupier = server.serve(ServeRequest::row(f.rows[0])).expect("admitted");
    std::thread::sleep(Duration::from_millis(50));
    let queued = server.serve(ServeRequest::new(vec![f.rows[1], f.rows[2]])).expect("admitted");
    let before = server.metrics();
    assert_eq!(before.requests, 3);

    let stream = connect(&server);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let ids: Vec<u32> = f.rows[3..7].iter().map(|r| r.0).collect();
    writer.write_all(&format_predict_request(&ids, None, true)).expect("send");
    let (code, _, body) = read_http_response(&mut reader);
    assert_eq!(code, 429, "{body}");
    assert_eq!(server.metrics().requests, before.requests, "no row of the shed batch is queued");

    for h in occupier.into_iter().chain(queued) {
        h.wait().expect("in-process rows are scored");
    }
    let report = server.shutdown();
    assert_eq!(report.requests, 3, "only the in-process rows were admitted");
    assert_eq!(report.errors, 0, "a shed batch leaves no undeliverable replies behind");
    assert!(report.shed > 0);
}
