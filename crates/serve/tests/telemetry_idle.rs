//! An idle telemetry endpoint must sleep in `accept`, not poll on a timer,
//! and shutting the server down must still end its thread promptly. This
//! file is its own test binary so that exactly one telemetry thread exists
//! in the process.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossmine_core::CrossMine;
use crossmine_relational::Row;
use crossmine_serve::{CompiledPlan, ModelRegistry, PredictionServer, ServerConfig};
use crossmine_synth::GenParams;

/// The `/proc/self/task/<tid>` directory of the thread named `comm`.
fn task_dir(comm: &str) -> Option<String> {
    fs::read_dir("/proc/self/task").expect("procfs").find_map(|entry| {
        let dir = entry.expect("task entry").path();
        let name = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        (name.trim_end() == comm).then(|| dir.to_string_lossy().into_owned())
    })
}

fn voluntary_switches(task: &str) -> u64 {
    let status = fs::read_to_string(format!("{task}/status")).expect("task status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches in status")
}

#[test]
fn idle_telemetry_thread_sleeps_in_accept_and_stops_promptly() {
    let db = crossmine_synth::generate(&GenParams {
        num_relations: 3,
        expected_tuples: 80,
        min_tuples: 30,
        ..Default::default()
    });
    let rows: Vec<Row> = db.relation(db.target().expect("target set")).iter_rows().collect();
    let model = CrossMine::default().fit(&db, &rows).expect("fit");
    let plan = CompiledPlan::compile(&model, &db.schema).expect("compile");
    let config = ServerConfig::builder()
        .telemetry_addr("127.0.0.1:0".parse().expect("literal addr"))
        .build()
        .expect("valid config");
    let server = PredictionServer::start(Arc::new(db), Arc::new(ModelRegistry::new(plan)), config)
        .expect("start");
    let addr = server.telemetry_addr().expect("telemetry bound");

    // One scrape first: the endpoint answers while it blocks in accept.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    let task = task_dir("crossmine-telem").expect("telemetry thread is running");
    let before = voluntary_switches(&task);
    std::thread::sleep(Duration::from_secs(2));
    let woke = voluntary_switches(&task) - before;
    // A 5 ms poll makes about 400 switches in 2 s; a blocked accept none.
    assert!(woke < 20, "idle telemetry thread woke {woke} times in 2 s");

    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "shutdown took {:?} with telemetry on",
        start.elapsed()
    );
    assert!(task_dir("crossmine-telem").is_none(), "the telemetry thread outlived shutdown");
}
