//! Load generator for the `crossmine-serve` prediction server.
//!
//! Trains a model on a synthetic `Rx.Ty.Fz` database, compiles it, starts
//! the micro-batching server, and drives a fixed number of requests from
//! concurrent client threads — verifying every reply against
//! `CrossMineModel::predict` — then prints throughput, latency quantiles,
//! and the batch-size histogram. A same-model hot swap is injected midway
//! so the swap path is always exercised (labels are unaffected).
//!
//! ```text
//! cargo run --release -p crossmine-bench --bin loadgen
//! cargo run --release -p crossmine-bench --bin loadgen -- --smoke
//! cargo run --release -p crossmine-bench --bin loadgen -- \
//!     --requests 50000 --workers 4 --clients 8 --batch 64 --wait-us 200
//! cargo run --release -p crossmine-bench --bin loadgen -- \
//!     --report --jsonl /tmp/obs.jsonl
//! cargo run --release -p crossmine-bench --bin loadgen -- --chaos --smoke
//! cargo run --release -p crossmine-bench --bin loadgen -- \
//!     --prom 127.0.0.1:0 --explain 3
//! ```
//!
//! `--report` attaches enabled `crossmine-obs` handles to training and
//! serving (training additionally turns on §6 negative sampling so the
//! sampling hooks are exercised) and prints the train/serve span tables
//! and counters after the run; `--jsonl PATH` exports the same metrics as
//! JSON lines.
//!
//! `--chaos` turns on the fault-injection harness: workers stall, panic,
//! and score oversized batches on a fixed schedule
//! (`ChaosConfig::standard()`), the registry is swapped repeatedly
//! mid-stream, every fourth request carries a tight deadline, and clients
//! retry retryable errors through `crossmine_bench::serve_client`. The run
//! passes iff every request is eventually answered correctly, at least one
//! injected worker panic was survived, and the server shuts down cleanly —
//! degradations (sheds, expiries, restarts) are expected and reported, but
//! crashes, deadlocks, and wrong answers are not.
//!
//! `--net ADDR` (e.g. `--net 127.0.0.1:0`) binds the `crossmine-net`
//! wire front end on ADDR and drives the whole run over real TCP instead
//! of in-process calls: `--conns` keep-alive connections (default 8
//! under `--smoke`, 200 otherwise — hundreds, as production would see),
//! each pipelining windows of requests and verifying every label.
//! `--net-proto http|binary|both` picks the wire protocol (`both`
//! alternates per connection, exercising the sniffer). Wire clients
//! retry retryable statuses (429/504/500+Retry-After) with backoff, so
//! `--net --chaos` proves typed overload answers under fault injection.
//!
//! `--prom ADDR` binds the live telemetry endpoint
//! (`ServerConfig::telemetry_addr`) and scrapes `GET /metrics` from it
//! over real TCP midway through the run — proving the Prometheus surface
//! works under production load — then prints the second-half delta of the
//! server's own metrics via `MetricsSnapshot::diff`. `--explain N` prints
//! full provenance (fired clauses, matched literals, prop-path lengths)
//! for the first N rows as JSONL after the run.
//!
//! `--shards N` replaces the single server with a `ShardRouter` over N
//! shards and turns the run into the mutable-database acceptance drill:
//! phase one drives the base snapshot, then a delta (fresh-keyed clones
//! of live target rows plus a cell patch) is applied to the overlay every
//! shard reads and parity-proven against a from-scratch
//! evaluation of the materialized merge, and phase two drives the merged
//! database — over real TCP with `--net` — while the model is hot-swapped
//! shard-by-shard (`rolling_install`) once between phases and once
//! mid-stream under live traffic. Passes iff every reply matched, nothing
//! was lost, every shard finished at epoch 2, and traffic actually spread
//! across the shards:
//!
//! ```text
//! cargo run --release -p crossmine-bench --bin loadgen -- \
//!     --smoke --shards 4 --net 127.0.0.1:0
//! ```
//!
//! `--trace` attaches an enabled request tracer (default tail-sampling
//! config: 256-trace ring, slowest 8 per 128-completion window, every
//! error kept). After the run it prints the sampler stats and one
//! complete causal chain — with `--net`, the full wire-to-worker tree
//! (`net.sniff → net.parse → serve.queue_wait → serve.batch →
//! serve.eval → net.write`) rendered as JSONL — and dies if no sampled
//! trace holds the whole chain. Combined with `--prom` it also fetches
//! `GET /trace` over real TCP mid-proof.
//!
//! `--profile` attaches the continuous in-process profiler (wall
//! sampler raised to 1997 Hz for the proof, allocation attribution on —
//! this binary installs [`crossmine_obs::ProfiledAllocator`] as its
//! global allocator). After the run it dies unless the folded stacks
//! hold the full worker chain `serve.worker;serve.batch;serve.eval`
//! (plus the `net.poll` wire root under `--net`), the flamegraph SVG is
//! well-formed, and the heap report attributes the `serve.queue` lock;
//! with `--prom` the same three surfaces are also fetched over real TCP
//! (`GET /profile`, `/profile/flamegraph`, `/profile/heap`). Every
//! check prints a grep-able `profile proof:` line.
//!
//! Exits non-zero on any parity mismatch, delivery error, or lost request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossmine_bench::net_client::{NetClient, NetProto};
use crossmine_bench::serve_client::submit_with_retry;
use crossmine_core::{CrossMine, CrossMineParams};
use crossmine_obs::{
    ObsHandle, ProfileConfig, ProfiledAllocator, Profiler, ServeReport, TrainReport,
};
use crossmine_relational::{AttrId, ClassLabel, Database, DeltaBatch, Row, Value};
use crossmine_serve::{
    evaluate_batch, predict_disk, ChaosConfig, CompiledPlan, ModelRegistry, NetConfig,
    PredictionServer, ServeRequest, ServeScratch, ServerConfig, ShardRouter, Tracer,
};
use crossmine_storage::DiskDatabase;
use crossmine_synth::{generate, GenParams};

/// Allocation attribution needs the wrapper in front of the system
/// allocator for the whole process; without `--profile` no profiler
/// registers and every allocation costs one relaxed atomic load extra.
#[global_allocator]
static ALLOC: ProfiledAllocator<std::alloc::System> = ProfiledAllocator(std::alloc::System);

struct Args {
    smoke: bool,
    requests: usize,
    workers: usize,
    clients: usize,
    max_batch: usize,
    wait_us: u64,
    seed: u64,
    skip_disk: bool,
    report: bool,
    jsonl: Option<String>,
    chaos: bool,
    prom: Option<String>,
    explain: usize,
    net: Option<String>,
    conns: usize,
    net_proto: NetProtoArg,
    trace: bool,
    shards: usize,
    profile: bool,
}

/// `--net-proto`: which protocol the wire clients speak.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NetProtoArg {
    Http,
    Binary,
    /// Alternate per connection — half HTTP, half binary, so both
    /// decoders and the sniffer run in every `--net` invocation.
    Both,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            smoke: false,
            requests: 20_000,
            workers: 2,
            clients: 4,
            max_batch: 64,
            wait_us: 200,
            seed: 42,
            skip_disk: false,
            report: false,
            jsonl: None,
            chaos: false,
            prom: None,
            explain: 0,
            net: None,
            conns: 0,
            net_proto: NetProtoArg::Both,
            trace: false,
            shards: 1,
            profile: false,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> u64 {
            *i += 1;
            argv.get(*i)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die(&format!("{} needs a numeric value", argv[*i - 1])))
        };
        match argv[i].as_str() {
            "--smoke" => {
                args.smoke = true;
                args.requests = 1_000;
                args.workers = 2;
            }
            "--requests" => args.requests = take(&mut i) as usize,
            "--workers" => args.workers = take(&mut i) as usize,
            "--clients" => args.clients = take(&mut i) as usize,
            "--batch" => args.max_batch = take(&mut i) as usize,
            "--wait-us" => args.wait_us = take(&mut i),
            "--seed" => args.seed = take(&mut i),
            "--no-disk" => args.skip_disk = true,
            "--report" => args.report = true,
            "--chaos" => args.chaos = true,
            "--jsonl" => {
                i += 1;
                let path = argv.get(i).unwrap_or_else(|| die("--jsonl needs a file path"));
                args.jsonl = Some(path.clone());
            }
            "--prom" => {
                i += 1;
                let addr = argv
                    .get(i)
                    .unwrap_or_else(|| die("--prom needs an address (e.g. 127.0.0.1:0)"));
                args.prom = Some(addr.clone());
            }
            "--explain" => args.explain = take(&mut i) as usize,
            "--net" => {
                i += 1;
                let addr =
                    argv.get(i).unwrap_or_else(|| die("--net needs an address (e.g. 127.0.0.1:0)"));
                args.net = Some(addr.clone());
            }
            "--conns" => args.conns = take(&mut i) as usize,
            "--trace" => args.trace = true,
            "--profile" => args.profile = true,
            "--shards" => args.shards = take(&mut i) as usize,
            "--net-proto" => {
                i += 1;
                args.net_proto = match argv.get(i).map(String::as_str) {
                    Some("http") => NetProtoArg::Http,
                    Some("binary") => NetProtoArg::Binary,
                    Some("both") => NetProtoArg::Both,
                    _ => die("--net-proto needs one of: http, binary, both"),
                };
            }
            other => die(&format!("unknown flag {other} (try --smoke)")),
        }
        i += 1;
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = parse_args();

    // The §7.1 R5.T200.F3 workload (a smaller R4.T80 one for --smoke).
    let params = if args.smoke {
        GenParams {
            num_relations: 4,
            expected_tuples: 80,
            min_tuples: 25,
            seed: args.seed,
            ..Default::default()
        }
    } else {
        GenParams {
            num_relations: 5,
            expected_tuples: 200,
            min_tuples: 60,
            expected_foreign_keys: 3,
            seed: args.seed,
            ..Default::default()
        }
    };
    let db = generate(&params);
    let rows: Vec<Row> = db.relation(db.target().unwrap()).iter_rows().collect();
    println!("database {} ({} target rows)", params.name(), rows.len());

    // `--report`/`--jsonl` attach enabled obs handles; otherwise both stay
    // no-ops and every hook below costs one branch.
    let obs_on = args.report || args.jsonl.is_some();
    let train_obs = if obs_on { ObsHandle::enabled() } else { ObsHandle::noop() };
    let serve_obs = if obs_on { ObsHandle::enabled() } else { ObsHandle::noop() };
    let classifier = if obs_on {
        // Negative sampling (§6) on, so the sampling hooks show up in the
        // span table. Parity below is against this same model, so the
        // different clause set changes nothing about the checks.
        CrossMine::new(
            CrossMineParams::builder().sampling(true).obs(train_obs.clone()).build().unwrap(),
        )
    } else {
        CrossMine::default()
    };

    let fit_start = Instant::now();
    let model = classifier.fit(&db, &rows).unwrap();
    println!("trained {} clauses in {:?}", model.num_clauses(), fit_start.elapsed());
    let expected = model.predict(&db, &rows).unwrap();
    let plan = match CompiledPlan::compile(&model, &db.schema) {
        Ok(p) => p,
        Err(e) => die(&format!("model failed to compile: {e}")),
    };
    println!("compiled plan: {}", plan.stats);

    if !args.skip_disk {
        disk_check(&db, &plan, &rows, &expected);
    }

    let db = Arc::new(db);
    // `--trace`: the default tail-sampling config (256-trace ring, every
    // error kept, slowest 8 per 128-completion window).
    let tracer = if args.trace { Tracer::enabled() } else { Tracer::noop() };
    // `--profile`: a hot sampler (1997 Hz instead of the production-default
    // 97) so even the smoke run lands samples inside every worker frame.
    let profiler = if args.profile {
        Profiler::with_config(ProfileConfig { hz: 1997, ..Default::default() })
    } else {
        Profiler::noop()
    };

    // `--shards`: the whole run moves behind a ShardRouter — two phases
    // around a mid-run delta broadcast, two rolling installs.
    if args.shards != 1 {
        run_sharded(&args, db, &rows, &expected, &plan, &train_obs, &serve_obs, tracer, profiler);
        return;
    }

    let registry = Arc::new(ModelRegistry::new(plan.clone()));
    let mut config_builder = ServerConfig::builder()
        .workers(args.workers)
        .max_batch(args.max_batch)
        .max_wait(Duration::from_micros(args.wait_us))
        // Tiny under chaos so worker stalls actually fill it and force
        // sheds; big enough otherwise that the healthy path never rejects.
        .queue_capacity(if args.chaos { 2 } else { 1024 })
        .obs(serve_obs.clone())
        .chaos(if args.chaos { ChaosConfig::standard() } else { ChaosConfig::off() })
        .tracer(tracer.clone())
        .profiler(profiler.clone());
    if let Some(a) = &args.prom {
        config_builder = config_builder.telemetry_addr(
            a.parse().unwrap_or_else(|e| die(&format!("--prom: invalid address {a:?}: {e}"))),
        );
    }
    if let Some(addr) = &args.net {
        config_builder = config_builder.net(NetConfig { addr: addr.clone(), ..Default::default() });
    }
    let config =
        config_builder.build().unwrap_or_else(|e| die(&format!("invalid server config: {e}")));
    let server = PredictionServer::start(Arc::clone(&db), Arc::clone(&registry), config)
        .unwrap_or_else(|e| die(&format!("server failed to start: {e}")));
    if args.prom.is_some() {
        let addr = server.telemetry_addr().expect("--prom was given, so telemetry is on");
        println!("telemetry live at http://{addr} (/metrics /healthz /buildinfo)");
    }
    if args.chaos {
        println!("chaos mode: stalls, worker panics, oversized batches, repeated hot swaps");
        // Injected panics are expected by the hundreds; silence their
        // default printout so real panics stay visible in the output.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected =
                info.payload().downcast_ref::<&str>().is_some_and(|s| s.starts_with("chaos:"));
            if !injected {
                default_hook(info);
            }
        }));
    }
    println!(
        "serving with {} workers, max_batch {}, max_wait {}us, {} client threads",
        args.workers, args.max_batch, args.wait_us, args.clients
    );

    // `--net`: the run goes socket-to-socket. One unit of work is then a
    // wire request (a batch of WIRE_BATCH_ROWS rows) instead of a single
    // in-process row, driven by `conns` keep-alive connections.
    let wire_addr = args.net.as_ref().map(|_| {
        let addr = server.net_addr().expect("--net was given, so the wire front end is on");
        println!("wire front end live at {addr} (HTTP + binary on one port)");
        addr
    });
    let conns = if args.conns > 0 {
        args.conns
    } else if args.smoke {
        8
    } else {
        200
    };

    let mismatches = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let units = if wire_addr.is_some() { conns } else { args.clients.max(1) };
    let per_client = args.requests.div_ceil(units);
    let total = per_client * units;
    let chaos = args.chaos;
    let swap_plan = plan.clone();
    // `--prom`: filled midway through the run by the scrape thread with
    // (server metrics at the scrape instant, raw /metrics body).
    let scrape: std::sync::Mutex<Option<(crossmine_serve::MetricsSnapshot, String)>> =
        std::sync::Mutex::new(None);
    let bench_start = Instant::now();
    std::thread::scope(|scope| {
        if let Some(addr) = wire_addr {
            for c in 0..conns {
                let proto = match args.net_proto {
                    NetProtoArg::Http => NetProto::Http,
                    NetProtoArg::Binary => NetProto::Binary,
                    NetProtoArg::Both => {
                        if c % 2 == 0 {
                            NetProto::Http
                        } else {
                            NetProto::Binary
                        }
                    }
                };
                let rows = &rows;
                let expected = &expected;
                let mismatches = &mismatches;
                let answered = &answered;
                let retried = &retried;
                scope.spawn(move || {
                    wire_client(
                        addr, proto, c, per_client, rows, expected, chaos, answered, mismatches,
                        retried,
                    );
                });
            }
        } else {
            for c in 0..args.clients.max(1) {
                let server = &server;
                let rows = &rows;
                let expected = &expected;
                let mismatches = &mismatches;
                let answered = &answered;
                let retried = &retried;
                scope.spawn(move || {
                    for k in 0..per_client {
                        let i = (c * per_client + k) % rows.len();
                        let p = if chaos {
                            chaos_request(server, rows[i], k, retried)
                        } else {
                            server.predict(rows[i]).unwrap_or_else(|e| {
                                die(&format!("healthy-path request failed: {e}"))
                            })
                        };
                        answered.fetch_add(1, Ordering::Relaxed);
                        if p.label != expected[i] {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        }
        if let Some(addr) = server.telemetry_addr() {
            // Scrape the live endpoint over real TCP while clients are
            // mid-flight — the point of `--prom` is proving the Prometheus
            // surface under production load, not after it.
            let server = &server;
            let answered = &answered;
            let scrape = &scrape;
            let half = (total / 2) as u64;
            scope.spawn(move || {
                while answered.load(Ordering::Relaxed) < half {
                    std::thread::sleep(Duration::from_micros(200));
                }
                let mid = server.metrics();
                let body = http_get(addr, "/metrics");
                *scrape.lock().unwrap_or_else(|e| e.into_inner()) = Some((mid, body));
            });
        }
        if chaos {
            // Mid-batch registry swaps, the fourth chaos dimension: keep
            // reinstalling the same plan until the clients finish. Answers
            // must stay correct across every swap.
            let registry = &registry;
            let answered = &answered;
            scope.spawn(move || {
                while answered.load(Ordering::Relaxed) < total as u64 {
                    registry.install(swap_plan.clone());
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        } else {
            // Hot-swap the same model midway: exercises the epoch machinery
            // without changing any prediction.
            let registry = &registry;
            let answered = &answered;
            let half = (total / 2) as u64;
            scope.spawn(move || {
                while answered.load(Ordering::Relaxed) < half {
                    std::thread::sleep(Duration::from_micros(200));
                }
                registry.install(plan.clone());
            });
        }
    });
    let elapsed = bench_start.elapsed();

    if let Some((mid, body)) = scrape.into_inner().unwrap_or_else(|e| e.into_inner()) {
        let samples = body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count();
        if !body.contains("crossmine_serve_requests_total") {
            die("scraped /metrics is missing crossmine_serve_requests_total");
        }
        println!();
        println!("mid-run /metrics scrape: {samples} samples, {} bytes", body.len());
        println!("second half only (now minus mid-run scrape):");
        println!("{}", server.metrics().diff(&mid));
    }

    if args.explain > 0 {
        let n = args.explain.min(rows.len());
        println!();
        println!("provenance for the first {n} rows (JSONL):");
        for &row in &rows[..n] {
            match server.predict_explained(row) {
                Ok(p) => println!("{}", p.explanation.to_json()),
                Err(e) => die(&format!("--explain failed on row {}: {e}", row.0)),
            }
        }
    }

    if args.trace {
        // Fetch the trace surface over real TCP while telemetry is still
        // up — the walkthrough the README documents, proven under load.
        if let Some(addr) = server.telemetry_addr() {
            let body = http_get(addr, "/trace");
            println!();
            println!(
                "GET /trace: {} sampled traces ({} bytes JSONL)",
                body.lines().filter(|l| !l.is_empty()).count(),
                body.len()
            );
        }
    }

    if args.profile {
        // Prove the profile surfaces before shutdown, while the worker
        // and poll threads still publish their stacks.
        profile_proof(&profiler, server.telemetry_addr(), args.net.is_some(), || {
            for &row in rows.iter().take(32) {
                let _ = server.predict(row);
            }
        });
    }

    let wire_stats = server.net_metrics().map(|m| m.snapshot());
    let report = server.shutdown();
    let throughput = total as f64 / elapsed.as_secs_f64();
    println!();
    println!("{} requests in {:?}  ({:.0} req/s)", total, elapsed, throughput);
    println!("{report}");
    if let Some(s) = &wire_stats {
        println!(
            "wire: {} conns accepted ({} http, {} binary), {} http + {} binary requests, \
             {} wire errors, {} B in, {} B out",
            s.accepted,
            s.http_conns,
            s.binary_conns,
            s.http_requests,
            s.binary_requests,
            s.wire_errors,
            s.bytes_read,
            s.bytes_written
        );
    }
    println!();

    if args.trace {
        let stats = tracer.stats();
        println!(
            "tracing: {} completed, {} sampled, {} dropped by tail sampling",
            stats.completed, stats.sampled, stats.dropped
        );
        // The proof the trace smoke leg greps for: at least one sampled
        // trace holds the entire causal chain, wire to worker and back.
        let chain: &[&str] = if args.net.is_some() {
            &[
                "net.sniff",
                "net.parse",
                "serve.queue_wait",
                "serve.batch",
                "serve.eval",
                "net.write",
            ]
        } else {
            &["serve.queue_wait", "serve.batch", "serve.eval"]
        };
        let complete = tracer
            .recent(256)
            .into_iter()
            .find(|t| chain.iter().all(|stage| t.spans.iter().any(|s| s.name == *stage)));
        match complete {
            Some(t) => {
                println!("complete causal chain: {}", chain.join(" -> "));
                println!("{}", t.render_jsonl());
            }
            None => die("--trace: no sampled trace contains the complete causal chain"),
        }
        println!();
    }
    if args.report {
        println!("{}", TrainReport::from_handle(&train_obs));
        println!("{}", ServeReport::from_handle(&serve_obs));
    }
    if let Some(path) = &args.jsonl {
        export_jsonl(path, &train_obs, &serve_obs);
        println!("obs metrics exported to {path}");
    }

    let lost = total as u64 - answered.load(Ordering::Relaxed);
    let bad = mismatches.load(Ordering::Relaxed);
    if args.chaos {
        // Under fault injection, degradations are the point: errors, sheds,
        // expiries, and restarts are expected. What must hold is that every
        // request was eventually answered correctly, that the injected
        // panics actually fired (and were survived), and that shutdown
        // completed — reaching this line proves no deadlock or crash.
        let degraded = retried.load(Ordering::Relaxed);
        if bad > 0 || lost > 0 {
            die(&format!("FAILED under chaos: {bad} mismatches, {lost} lost"));
        }
        if report.worker_restarts == 0 {
            die("FAILED under chaos: no worker panic was injected — harness inert");
        }
        println!(
            "OK under chaos: all {total} predictions matched after {degraded} degraded \
             attempts ({} sheds, {} expiries, {} restarts survived)",
            report.shed, report.deadline_expired, report.worker_restarts
        );
    } else if args.net.is_some() {
        // Over the wire the client is remote: the server may shed under
        // the connection storm and the client retries — that's the
        // contract. What must hold is that every batch was eventually
        // answered with the right labels.
        if bad > 0 || lost > 0 || report.swaps != 1 {
            die(&format!(
                "FAILED over the wire: {bad} mismatches, {lost} lost, {} swaps",
                report.swaps
            ));
        }
        println!(
            "OK over the wire: all {total} batches matched after {} retried replies \
             ({} sheds server-side)",
            retried.load(Ordering::Relaxed),
            report.shed
        );
    } else {
        if bad > 0 || lost > 0 || report.errors > 0 || report.swaps != 1 {
            die(&format!(
                "FAILED: {bad} mismatches, {lost} lost, {} errors, {} swaps",
                report.errors, report.swaps
            ));
        }
        println!("OK: all {total} predictions matched CrossMineModel::predict, zero errors");
    }
}

/// The `--shards N` run: the same parity-or-die discipline as the
/// single-server path, but against a [`ShardRouter`] over N
/// shards with the mutable-database story exercised
/// mid-run. Phase 1 drives the base snapshot; between phases a delta is
/// applied to the overlay every shard reads, every merged row is parity-checked against
/// a from-scratch evaluation of the materialized merge, and the model
/// is rolled shard-by-shard; phase 2 drives the merged database (over
/// real TCP with `--net`) with a second roll injected under live
/// traffic.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    args: &Args,
    db: Arc<Database>,
    rows: &[Row],
    expected: &[ClassLabel],
    plan: &CompiledPlan,
    train_obs: &ObsHandle,
    serve_obs: &ObsHandle,
    tracer: Tracer,
    profiler: Profiler,
) {
    if args.trace && args.net.is_none() {
        die("--trace with --shards needs --net (wire requests own their traces)");
    }
    let mut builder = ServerConfig::builder()
        .workers(args.workers)
        .max_batch(args.max_batch)
        .max_wait(Duration::from_micros(args.wait_us))
        // Small under chaos (per shard) so stalls force sheds; roomy
        // otherwise so the healthy path never rejects.
        .queue_capacity(if args.chaos { 4 } else { 1024 })
        .obs(serve_obs.clone())
        .chaos(if args.chaos { ChaosConfig::standard() } else { ChaosConfig::off() })
        .tracer(tracer.clone())
        .profiler(profiler.clone())
        .shards(args.shards);
    if let Some(a) = &args.prom {
        builder = builder.telemetry_addr(
            a.parse().unwrap_or_else(|e| die(&format!("--prom: invalid address {a:?}: {e}"))),
        );
    }
    if let Some(addr) = &args.net {
        builder = builder.net(NetConfig { addr: addr.clone(), ..Default::default() });
    }
    let config = builder.build().unwrap_or_else(|e| die(&format!("invalid server config: {e}")));
    let router = ShardRouter::start(Arc::clone(&db), plan, config)
        .unwrap_or_else(|e| die(&format!("shard router failed to start: {e}")));
    println!(
        "sharded serving: {} shards x {} workers, max_batch {}, max_wait {}us",
        args.shards, args.workers, args.max_batch, args.wait_us
    );
    if let Some(addr) = router.telemetry_addr() {
        println!("telemetry live at http://{addr} (/metrics /healthz /buildinfo)");
    }
    if args.chaos {
        println!("chaos mode: stalls, worker panics, oversized batches on every shard");
        // Injected panics are expected by the hundreds; silence their
        // default printout so real panics stay visible in the output.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected =
                info.payload().downcast_ref::<&str>().is_some_and(|s| s.starts_with("chaos:"));
            if !injected {
                default_hook(info);
            }
        }));
    }

    let mismatches = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let chaos = args.chaos;
    let bench_start = Instant::now();

    // Phase 1: in-process clients over the base snapshot.
    let clients = args.clients.max(1);
    let per_client = (args.requests / 2).max(1).div_ceil(clients);
    let phase1 = per_client * clients;
    let answered1 = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let router = &router;
            let mismatches = &mismatches;
            let retried = &retried;
            let answered1 = &answered1;
            scope.spawn(move || {
                for k in 0..per_client {
                    let i = (c * per_client + k) % rows.len();
                    let p = sharded_request(router, rows[i], k, chaos, retried);
                    answered1.fetch_add(1, Ordering::Relaxed);
                    if p.label != expected[i] {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    // Between phases: mutate the database. A delta the synth schema
    // itself dictates — fresh-keyed clones of live target rows plus one
    // cell patch — applied once to the overlay every shard reads...
    let batch = build_delta(&db, rows);
    let delta_stats = router
        .apply_delta(&batch)
        .unwrap_or_else(|e| die(&format!("delta broadcast rejected: {e}")));
    let mut merged = (*db).clone();
    merged
        .apply_delta(&batch)
        .unwrap_or_else(|e| die(&format!("materialized merge failed: {e:?}")));
    let merged_rows: Vec<Row> = (0..merged.num_targets() as u32).map(Row).collect();
    let expected_merged = evaluate_batch(plan, &merged, &merged_rows, &mut ServeScratch::new());
    println!(
        "delta applied on all {} shards: +{} rows, {} cells patched ({} -> {} target rows)",
        args.shards,
        delta_stats.inserted_rows,
        delta_stats.updated_cells,
        rows.len(),
        merged_rows.len(),
    );
    // ...and parity-proven: every merged row — old rows whose labels may
    // have shifted through join paths, and the appended rows — must
    // answer exactly what a from-scratch evaluation of the materialized
    // merge says.
    for (i, &row) in merged_rows.iter().enumerate() {
        let p = sharded_request(&router, row, 1, chaos, &retried);
        if p.label != expected_merged[i] {
            die(&format!("post-delta parity: row {} diverged from the materialized merge", row.0));
        }
    }
    println!("post-delta parity OK: {} rows against the materialized merge", merged_rows.len());
    // First hot swap, shard by shard, between phases.
    let epochs = router.rolling_install(plan);
    if epochs.iter().any(|&e| e != 1) {
        die(&format!("first rolling install left uneven epochs {epochs:?}"));
    }
    // `--prom`: scrape mid-run — the per-shard series must be live.
    if let Some(addr) = router.telemetry_addr() {
        let body = http_get(addr, "/metrics");
        if !body.contains("crossmine_shard_count") {
            die("scraped /metrics is missing crossmine_shard_count");
        }
        for k in 0..args.shards {
            if !body.contains(&format!("crossmine_shard_{k}_requests_total")) {
                die(&format!("scraped /metrics is missing shard {k}'s series"));
            }
        }
        println!("mid-run /metrics scrape: per-shard series live for all {} shards", args.shards);
    }

    // Phase 2: the merged database, over the wire when --net is given,
    // with the second rolling install injected mid-stream.
    let wire_addr = args.net.as_ref().map(|_| {
        let addr = router.net_addr().expect("--net was given, so the wire front end is on");
        println!("wire front end live at {addr} (all {} shards behind one port)", args.shards);
        addr
    });
    let conns = if args.conns > 0 {
        args.conns
    } else if args.smoke {
        8
    } else {
        200
    };
    let units = if wire_addr.is_some() { conns } else { clients };
    let per_unit = (args.requests - args.requests / 2).max(1).div_ceil(units);
    let phase2 = per_unit * units;
    let answered2 = AtomicU64::new(0);
    std::thread::scope(|scope| {
        if let Some(addr) = wire_addr {
            for c in 0..conns {
                let proto = match args.net_proto {
                    NetProtoArg::Http => NetProto::Http,
                    NetProtoArg::Binary => NetProto::Binary,
                    NetProtoArg::Both => {
                        if c % 2 == 0 {
                            NetProto::Http
                        } else {
                            NetProto::Binary
                        }
                    }
                };
                let merged_rows = &merged_rows;
                let expected_merged = &expected_merged;
                let mismatches = &mismatches;
                let answered2 = &answered2;
                let retried = &retried;
                scope.spawn(move || {
                    wire_client(
                        addr,
                        proto,
                        c,
                        per_unit,
                        merged_rows,
                        expected_merged,
                        chaos,
                        answered2,
                        mismatches,
                        retried,
                    );
                });
            }
        } else {
            for c in 0..clients {
                let router = &router;
                let merged_rows = &merged_rows;
                let expected_merged = &expected_merged;
                let mismatches = &mismatches;
                let answered2 = &answered2;
                let retried = &retried;
                scope.spawn(move || {
                    for k in 0..per_unit {
                        let i = (c * per_unit + k) % merged_rows.len();
                        let p = sharded_request(router, merged_rows[i], k, chaos, retried);
                        answered2.fetch_add(1, Ordering::Relaxed);
                        if p.label != expected_merged[i] {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        }
        // The second roll happens under live traffic: replies must keep
        // flowing while the shards swap one by one.
        let router = &router;
        let answered2 = &answered2;
        let half = (phase2 / 2) as u64;
        scope.spawn(move || {
            while answered2.load(Ordering::Relaxed) < half {
                std::thread::sleep(Duration::from_micros(200));
            }
            let epochs = router.rolling_install(plan);
            if epochs.iter().any(|&e| e != 2) {
                die(&format!("second rolling install left uneven epochs {epochs:?}"));
            }
        });
    });
    let elapsed = bench_start.elapsed();

    if args.explain > 0 {
        let n = args.explain.min(merged_rows.len());
        println!();
        println!("provenance for the first {n} merged rows (JSONL):");
        for &row in &merged_rows[..n] {
            match router.predict_explained(row) {
                Ok(p) => println!("{}", p.explanation.to_json()),
                Err(e) => die(&format!("--explain failed on row {}: {e}", row.0)),
            }
        }
    }
    if args.trace {
        if let Some(addr) = router.telemetry_addr() {
            let body = http_get(addr, "/trace");
            println!();
            println!(
                "GET /trace: {} sampled traces ({} bytes JSONL)",
                body.lines().filter(|l| !l.is_empty()).count(),
                body.len()
            );
        }
    }

    if args.profile {
        profile_proof(&profiler, router.telemetry_addr(), args.net.is_some(), || {
            for &row in merged_rows.iter().take(16) {
                let _ = sharded_request(&router, row, 1, chaos, &retried);
            }
        });
    }

    let wire_stats = router.net_metrics().map(|m| m.snapshot());
    let stats = router.shutdown();
    let total = phase1 + merged_rows.len() + phase2;
    println!();
    println!(
        "{} requests in {:?}  ({:.0} req/s) across {} shards",
        total,
        elapsed,
        total as f64 / elapsed.as_secs_f64(),
        args.shards
    );
    let per_shard: Vec<String> = stats
        .shards
        .iter()
        .map(|s| format!("shard {}: {} reqs, epoch {}", s.shard, s.snapshot.requests, s.epoch))
        .collect();
    println!("{}", per_shard.join("  |  "));
    if let Some(s) = &wire_stats {
        println!(
            "wire: {} conns accepted ({} http, {} binary), {} http + {} binary requests, \
             {} wire errors, {} B in, {} B out",
            s.accepted,
            s.http_conns,
            s.binary_conns,
            s.http_requests,
            s.binary_requests,
            s.wire_errors,
            s.bytes_read,
            s.bytes_written
        );
    }
    println!();

    if args.trace {
        let tstats = tracer.stats();
        println!(
            "tracing: {} completed, {} sampled, {} dropped by tail sampling",
            tstats.completed, tstats.sampled, tstats.dropped
        );
        let chain = [
            "net.sniff",
            "net.parse",
            "serve.queue_wait",
            "serve.batch",
            "serve.eval",
            "net.write",
        ];
        let complete = tracer
            .recent(256)
            .into_iter()
            .find(|t| chain.iter().all(|stage| t.spans.iter().any(|s| s.name == *stage)));
        match complete {
            Some(t) => {
                println!("complete causal chain: {}", chain.join(" -> "));
                println!("{}", t.render_jsonl());
            }
            None => die("--trace: no sampled trace contains the complete causal chain"),
        }
        println!();
    }
    if args.report {
        println!("{}", TrainReport::from_handle(train_obs));
        println!("{}", ServeReport::from_handle(serve_obs));
    }
    if let Some(path) = &args.jsonl {
        export_jsonl(path, train_obs, serve_obs);
        println!("obs metrics exported to {path}");
    }

    let lost = (phase1 as u64 - answered1.load(Ordering::Relaxed))
        + (phase2 as u64 - answered2.load(Ordering::Relaxed));
    let bad = mismatches.load(Ordering::Relaxed);
    if bad > 0 || lost > 0 {
        die(&format!("FAILED sharded: {bad} mismatches, {lost} lost"));
    }
    if (stats.min_epoch(), stats.max_epoch()) != (2, 2) {
        die(&format!(
            "FAILED sharded: shards finished at uneven epochs {:?}",
            router_epochs(&stats)
        ));
    }
    let busy = stats.shards.iter().filter(|s| s.snapshot.requests > 0).count();
    if busy < 2 {
        die("FAILED sharded: routing never spread traffic across shards");
    }
    if chaos && stats.total_worker_restarts() == 0 {
        die("FAILED sharded: no worker panic was injected under chaos — harness inert");
    }
    let degraded = retried.load(Ordering::Relaxed);
    println!(
        "OK sharded: {total} predictions matched across {} shards ({phase1} base + {} \
         merged-parity + {phase2} post-delta), 2 rolling swaps, {degraded} degraded attempts, \
         zero lost",
        args.shards,
        merged_rows.len()
    );
}

/// The per-shard epochs out of a final [`crossmine_serve::RouterStats`],
/// for the failure message.
fn router_epochs(stats: &crossmine_serve::RouterStats) -> Vec<u64> {
    stats.shards.iter().map(|s| s.epoch).collect()
}

/// One in-process request against the router, retried through every
/// retryable degradation exactly like the single-server chaos client;
/// under `--chaos` every fourth first attempt carries a tight deadline.
/// Outside chaos any error is fatal — the healthy sharded path, like the
/// healthy single-server path, must never degrade.
fn sharded_request(
    router: &ShardRouter,
    row: Row,
    k: usize,
    chaos: bool,
    retried: &AtomicU64,
) -> crossmine_serve::Prediction {
    const MAX_ATTEMPTS: usize = 1000;
    for attempt in 0..MAX_ATTEMPTS {
        let req = if chaos && attempt == 0 && k.is_multiple_of(4) {
            ServeRequest::row(row).deadline(Duration::from_micros(300))
        } else {
            ServeRequest::row(row)
        };
        let outcome = router
            .serve(req)
            .map(|mut handles| handles.pop().expect("one row in, one handle out"))
            .and_then(|h| h.wait());
        match outcome {
            Ok(p) => return p,
            Err(e) if chaos && e.is_retryable() => {
                retried.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(100 * (attempt as u64 + 1)));
            }
            Err(e) => die(&format!("sharded request failed: {e}")),
        }
    }
    die("request starved: not answered within the sharded retry budget")
}

/// A delta the schema itself dictates: clones of existing target rows
/// under fresh primary keys (labels copied from the source rows, FKs and
/// categoricals preserved so every reference stays valid) plus one
/// same-value cell patch on the first non-key attribute, so both the
/// insert and update paths run whatever `GenParams` produced.
fn build_delta(db: &Database, rows: &[Row]) -> DeltaBatch {
    let target = db.target().unwrap();
    let rel = db.relation(target);
    let labels = db.labels();
    let max_key = rel
        .iter_rows()
        .filter_map(|r| rel.tuple(r).first().and_then(Value::as_key))
        .max()
        .unwrap_or(0);
    let mut batch = DeltaBatch::new();
    let n = (rows.len() / 10).clamp(1, 32);
    for i in 0..n {
        let src = rows[(i * 7) % rows.len()];
        let mut tuple = rel.tuple(src);
        tuple[0] = Value::Key(max_key + 1 + i as u64);
        batch.insert_labeled(target, tuple, labels[src.0 as usize]);
    }
    // Rewrite a non-key cell to its current value: the update machinery
    // runs on every shard without changing any label.
    let tuple = rel.tuple(rows[0]);
    if let Some((j, v)) = tuple.iter().enumerate().skip(1).find(|(_, v)| v.as_key().is_none()) {
        batch.update(target, rows[0], AttrId(j), *v);
    }
    batch
}

/// Rows per wire request: big enough that batch decode matters, small
/// enough that hundreds of pipelined connections don't dwarf the queue.
const WIRE_BATCH_ROWS: usize = 8;
/// Requests written back-to-back before reading any reply.
const WIRE_PIPELINE: usize = 4;

/// One wire connection's share of the run: `per_conn` keep-alive
/// requests in pipelined windows, every label verified against the
/// in-process model, retryable statuses resent (after the window is
/// fully drained, so pipelined FIFO order is never violated).
#[allow(clippy::too_many_arguments)]
fn wire_client(
    addr: std::net::SocketAddr,
    proto: NetProto,
    conn_idx: usize,
    per_conn: usize,
    rows: &[Row],
    expected: &[ClassLabel],
    chaos: bool,
    answered: &AtomicU64,
    mismatches: &AtomicU64,
    retried: &AtomicU64,
) {
    let mut client = NetClient::connect(addr, proto)
        .unwrap_or_else(|e| die(&format!("wire connect {addr} ({}): {e}", proto.name())));
    let verify = |g: usize, labels: &[u32]| {
        if labels.len() != WIRE_BATCH_ROWS {
            mismatches.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (j, &label) in labels.iter().enumerate() {
            let i = (g * WIRE_BATCH_ROWS + j) % rows.len();
            if label != expected[i].0 {
                mismatches.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    let mut k = 0;
    while k < per_conn {
        let window = (per_conn - k).min(WIRE_PIPELINE);
        let batches: Vec<Vec<u32>> = (0..window)
            .map(|w| {
                let g = conn_idx * per_conn + k + w;
                (0..WIRE_BATCH_ROWS)
                    .map(|j| rows[(g * WIRE_BATCH_ROWS + j) % rows.len()].0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u32]> = batches.iter().map(Vec::as_slice).collect();
        // Every fourth chaos window carries a tight deadline so the wire
        // deadline field (and the 504 path) is exercised.
        let deadline = if chaos && (k / WIRE_PIPELINE).is_multiple_of(4) { Some(5) } else { None };
        let replies = client
            .pipelined(&refs, deadline)
            .unwrap_or_else(|e| die(&format!("wire pipeline ({}): {e}", proto.name())));
        // First pass: drain the whole window (keeps FIFO order intact),
        // remembering which slots need a resend.
        let mut resend = Vec::new();
        for (w, reply) in replies.into_iter().enumerate() {
            if reply.status == 200 {
                verify(conn_idx * per_conn + k + w, &reply.labels);
                answered.fetch_add(1, Ordering::Relaxed);
            } else if reply.is_retryable() {
                resend.push(w);
            } else {
                die(&format!("non-retryable wire status {} ({})", reply.status, proto.name()));
            }
        }
        // Second pass: one request in flight at a time, so each reply
        // read is unambiguously ours.
        for w in resend {
            let mut attempt = 0u64;
            loop {
                retried.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
                if attempt > 1000 {
                    die("wire request starved: not answered within the retry budget");
                }
                std::thread::sleep(Duration::from_micros(100 * attempt.min(50)));
                let reply = client
                    .request(refs[w], None)
                    .unwrap_or_else(|e| die(&format!("wire retry ({}): {e}", proto.name())));
                if reply.status == 200 {
                    verify(conn_idx * per_conn + k + w, &reply.labels);
                    answered.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if !reply.is_retryable() {
                    die(&format!("non-retryable wire status {} on retry", reply.status));
                }
            }
        }
        k += window;
    }
}

/// One client request under chaos: every fourth first attempt carries a
/// tight deadline (exercising queue-side expiry), and every retryable
/// degradation — shed, expired, worker panic — is retried with backoff
/// until the request is answered. Increments `retried` once per degraded
/// attempt.
fn chaos_request(
    server: &PredictionServer,
    row: Row,
    k: usize,
    retried: &AtomicU64,
) -> crossmine_serve::Prediction {
    const MAX_ATTEMPTS: usize = 1000;
    for attempt in 0..MAX_ATTEMPTS {
        let submitted = if attempt == 0 && k.is_multiple_of(4) {
            server
                .serve(ServeRequest::row(row).deadline(Duration::from_micros(300)))
                .map(|mut handles| handles.pop().expect("one row in, one handle out"))
        } else {
            submit_with_retry(server, row, 100)
        };
        let outcome = submitted.and_then(|h| h.wait());
        match outcome {
            Ok(p) => return p,
            Err(e) if e.is_retryable() => {
                retried.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(100 * (attempt as u64 + 1)));
            }
            Err(e) => die(&format!("non-retryable error under chaos: {e}")),
        }
    }
    die("request starved: not answered within the chaos retry budget")
}

/// The `--profile` acceptance drill, run before shutdown while the
/// worker and poll threads still publish their span stacks. Dies unless
/// every surface holds: the folded stacks must carry the full worker
/// chain (`drive` feeds extra requests and forces sampler sweeps until
/// they do, so the check never races the sampling cadence), the
/// flamegraph must be a well-formed SVG, the heap report must attribute
/// the admission-queue lock, and — when telemetry is bound — all three
/// must also answer over real TCP. Prints one grep-able
/// `profile proof:` line per check plus soft `profile note:` lines for
/// the short-lived frames whose sampling is load-dependent.
fn profile_proof(
    profiler: &Profiler,
    telemetry: Option<std::net::SocketAddr>,
    wire: bool,
    mut drive: impl FnMut(),
) {
    const CHAIN: &str = "serve.worker;serve.batch;serve.eval";
    let deadline = Instant::now() + Duration::from_secs(20);
    while !profiler.collapsed().contains(CHAIN) {
        if Instant::now() >= deadline {
            die(&format!(
                "--profile: sampler never observed {CHAIN}; folded stacks:\n{}",
                profiler.collapsed()
            ));
        }
        drive();
        profiler.sample_now();
    }
    let collapsed = profiler.collapsed();
    println!();
    println!("profile proof: chain {CHAIN} observed");
    if wire {
        // net.poll is the poll thread's lifetime root: any sample taken
        // while the wire front end is up must carry it.
        if !collapsed.contains("net.poll") {
            die("--profile: wire run but net.poll never sampled");
        }
        println!("profile proof: net.poll observed");
    }

    let svg = profiler.flamegraph_svg();
    let well_formed = svg.starts_with("<svg")
        && svg.trim_end().ends_with("</svg>")
        && svg.matches("<g>").count() == svg.matches("</g>").count()
        && svg.contains("serve.eval");
    if !well_formed {
        die("--profile: flamegraph SVG is malformed or missing the eval frame");
    }
    println!("profile proof: flamegraph svg well-formed ({} bytes)", svg.len());

    let heap = profiler.heap_report();
    if !heap.contains("# heap:") || !heap.contains("# locks:") {
        die("--profile: heap report is missing its heap or lock table");
    }
    if !heap.contains("serve.queue") {
        die(&format!("--profile: no serve.queue lock-wait attribution:\n{heap}"));
    }
    let lock_rows = heap
        .lines()
        .skip_while(|l| !l.starts_with("# locks:"))
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .count();
    println!(
        "profile proof: heap report {} bytes, {} lock-wait series (serve.queue attributed)",
        heap.len(),
        lock_rows
    );

    // Short-lived frames: whether a 1997 Hz sampler lands inside them
    // depends on load shape, so presence is reported, not asserted.
    for frame in
        ["net.sniff", "net.parse", "net.write", "serve.admission", "serve.wait", "shard.route"]
    {
        println!("profile note: {frame} sampled={}", collapsed.contains(frame));
    }

    if let Some(addr) = telemetry {
        let over_tcp = http_get(addr, "/profile");
        if !over_tcp.contains(CHAIN) {
            die("--profile: GET /profile is missing the worker chain");
        }
        let svg_tcp = http_get(addr, "/profile/flamegraph");
        if !svg_tcp.starts_with("<svg") {
            die("--profile: GET /profile/flamegraph did not answer an SVG");
        }
        let heap_tcp = http_get(addr, "/profile/heap");
        if !heap_tcp.contains("# locks:") {
            die("--profile: GET /profile/heap is missing the lock table");
        }
        println!("profile proof: /profile /profile/flamegraph /profile/heap live over TCP");
    }
}

/// One blocking HTTP/1.1 GET against the telemetry endpoint, returning
/// the response body. Any failure is fatal: `--prom` exists to prove the
/// endpoint works, so a scrape error is a result, not an inconvenience.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| die(&format!("scrape: connect {addr}: {e}")));
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(2))).ok();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap_or_else(|e| die(&format!("scrape: send: {e}")));
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap_or_else(|e| die(&format!("scrape: read: {e}")));
    let (head, body) =
        response.split_once("\r\n\r\n").unwrap_or_else(|| die("scrape: malformed HTTP response"));
    if !head.starts_with("HTTP/1.1 200") {
        die(&format!("scrape: GET {path} answered {}", head.lines().next().unwrap_or("")));
    }
    body.to_string()
}

/// Writes every train-side then serve-side metric as one JSON object per
/// line (the `crossmine-obs` JSONL schema).
fn export_jsonl(path: &str, train_obs: &ObsHandle, serve_obs: &ObsHandle) {
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => die(&format!("cannot create {path}: {e}")),
    };
    let mut w = std::io::BufWriter::new(file);
    for obs in [train_obs, serve_obs] {
        if let Err(e) = obs.write_metrics_jsonl(&mut w) {
            die(&format!("cannot write {path}: {e}"));
        }
    }
}

/// Serve the whole batch against a disk-resident copy through a small
/// buffer pool: parity with in-memory prediction plus a non-trivial cache
/// hit rate, reported via the pool's `Display` stats.
fn disk_check(db: &Database, plan: &CompiledPlan, rows: &[Row], expected: &[ClassLabel]) {
    let path = std::env::temp_dir().join(format!("crossmine-loadgen-{}.pages", std::process::id()));
    let mut disk = match DiskDatabase::spill(db, &path, 16) {
        Ok(d) => d,
        Err(e) => die(&format!("spill failed: {e:?}")),
    };
    let got = match predict_disk(plan, &mut disk, rows) {
        Ok(g) => g,
        Err(e) => die(&format!("disk prediction failed: {e:?}")),
    };
    let stats = disk.stats();
    std::fs::remove_file(&path).ok();
    if got != expected {
        die("disk-resident prediction diverged from in-memory prediction");
    }
    if stats.hits == 0 {
        die(&format!("disk serving never hit the buffer pool: {stats}"));
    }
    println!("disk parity OK through 16-page pool: {stats}");
}
