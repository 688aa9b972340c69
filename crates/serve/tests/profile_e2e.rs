//! End-to-end tests of the continuous-profiling surface: a real
//! `PredictionServer` with `telemetry_addr` bound, probed over TCP.
//!
//! Pins the PR-8 contract extended to profiles: `/profile`,
//! `/profile/flamegraph`, and `/profile/heap` answer 404 when profiling
//! is off, and turning the profiler on changes nothing about the
//! Prometheus series set on `/metrics`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossmine_core::CrossMine;
use crossmine_obs::{ProfileConfig, Profiler};
use crossmine_relational::Row;
use crossmine_serve::{CompiledPlan, ModelRegistry, PredictionServer, ServerConfig};
use crossmine_synth::GenParams;

fn fixture() -> (Arc<crossmine_relational::Database>, CompiledPlan, Vec<Row>) {
    let db = crossmine_synth::generate(&GenParams {
        num_relations: 3,
        expected_tuples: 80,
        min_tuples: 30,
        ..Default::default()
    });
    let rows: Vec<Row> = db.relation(db.target().expect("target set")).iter_rows().collect();
    let model = CrossMine::default().fit(&db, &rows).expect("fit");
    let plan = CompiledPlan::compile(&model, &db.schema).expect("compile");
    (Arc::new(db), plan, rows)
}

fn start_server(profiler: Profiler) -> (PredictionServer, Vec<Row>, SocketAddr) {
    let (db, plan, rows) = fixture();
    let registry = Arc::new(ModelRegistry::new(plan));
    let config = ServerConfig::builder()
        .profiler(profiler)
        .telemetry_addr("127.0.0.1:0".parse().expect("literal addr"))
        .build()
        .expect("valid config");
    let server = PredictionServer::start(db, registry, config).expect("start");
    let addr = server.telemetry_addr().expect("telemetry bound");
    (server, rows, addr)
}

fn http_get(addr: SocketAddr, path: &str) -> (u32, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u32 =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// The series names of one exposition document, sorted and deduplicated —
/// sample values are load-dependent, the *set of series* is the contract.
fn series_names(body: &str) -> Vec<String> {
    let mut names: Vec<String> = body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let metric = l.split(' ').next().expect("metric field");
            metric.split('{').next().expect("name before labels").to_string()
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

#[test]
fn profile_routes_answer_404_when_profiling_is_off() {
    let (server, rows, addr) = start_server(Profiler::noop());
    for &row in rows.iter().take(5) {
        server.predict(row).expect("predict");
    }
    for path in ["/profile", "/profile/flamegraph", "/profile/heap"] {
        let (status, body) = http_get(addr, path);
        assert_eq!(status, 404, "{path} must 404 with profiling off");
        assert_eq!(body.trim(), "profiling disabled");
    }
    server.shutdown();
}

#[test]
fn metrics_series_set_is_identical_with_profiler_on_and_off() {
    let (server_off, rows_off, addr_off) = start_server(Profiler::noop());
    for &row in rows_off.iter().take(5) {
        server_off.predict(row).expect("predict");
    }
    let (status, body_off) = http_get(addr_off, "/metrics");
    assert_eq!(status, 200);
    server_off.shutdown();

    let (server_on, rows_on, addr_on) =
        start_server(Profiler::with_config(ProfileConfig { hz: 997, ..Default::default() }));
    for &row in rows_on.iter().take(5) {
        server_on.predict(row).expect("predict");
    }
    let (status, body_on) = http_get(addr_on, "/metrics");
    assert_eq!(status, 200);
    server_on.shutdown();

    assert_eq!(
        series_names(&body_off),
        series_names(&body_on),
        "an enabled profiler must not add, remove, or rename /metrics series"
    );
}

#[test]
fn profile_routes_serve_collapsed_stacks_flamegraph_and_heap() {
    let profiler = Profiler::with_config(ProfileConfig { hz: 1997, ..Default::default() });
    let (server, rows, addr) = start_server(profiler.clone());

    // Drive enough traffic that the wall sampler catches the workers in
    // their scoring region, often enough for the eval frame to be wide
    // enough to draw; force extra sweeps so the test never races the
    // sampling cadence.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        for &row in rows.iter().take(32) {
            server.predict(row).expect("predict");
            profiler.sample_now();
        }
        let collapsed = profiler.collapsed();
        if collapsed.contains("serve.worker;serve.batch;serve.eval")
            && profiler.flamegraph_svg().contains("serve.eval")
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sampler never observed the serve.worker;serve.batch;serve.eval chain:\n{collapsed}"
        );
    }

    let (status, collapsed) = http_get(addr, "/profile");
    assert_eq!(status, 200);
    assert!(
        collapsed.contains("serve.worker;serve.batch;serve.eval"),
        "folded stacks must carry the worker eval chain:\n{collapsed}"
    );
    for line in collapsed.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line is `stack count`");
        assert!(!stack.is_empty());
        assert!(count.parse::<u64>().is_ok(), "bad count in folded line: {line}");
    }

    let (status, svg) = http_get(addr, "/profile/flamegraph");
    assert_eq!(status, 200);
    assert!(svg.starts_with("<svg"), "flamegraph must be a self-contained SVG");
    assert!(svg.trim_end().ends_with("</svg>"));
    assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count(), "unbalanced SVG groups");
    assert!(svg.contains("serve.eval"), "flamegraph must carry the eval frame");

    let (status, heap) = http_get(addr, "/profile/heap");
    assert_eq!(status, 200);
    assert!(heap.contains("# heap:"), "{heap}");
    assert!(heap.contains("# locks:"), "{heap}");
    // The admission path timed every queue-lock acquisition.
    assert!(heap.contains("serve.queue"), "queue lock wait series missing:\n{heap}");

    server.shutdown();
}

#[test]
fn registry_swap_contention_is_attributed_when_profiling() {
    let profiler = Profiler::with_config(ProfileConfig { hz: 97, ..Default::default() });
    let (server, rows, addr) = start_server(profiler);
    let (_, plan, _) = fixture();
    server.registry().install(plan);
    for &row in rows.iter().take(3) {
        server.predict(row).expect("predict");
    }
    let (status, heap) = http_get(addr, "/profile/heap");
    assert_eq!(status, 200);
    let swap_line = heap
        .lines()
        .find(|l| l.ends_with("registry.swap"))
        .unwrap_or_else(|| panic!("no registry.swap lock series:\n{heap}"));
    let count: u64 = swap_line.split(' ').next().expect("count field").parse().expect("number");
    assert!(count >= 1, "the install must have been timed: {swap_line}");
    server.shutdown();
}
