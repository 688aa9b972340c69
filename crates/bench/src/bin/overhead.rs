//! Measures the wall-clock cost of observability on training and serving.
//!
//! Both halves run the §7.1 `R5.T200.F3` workload with configurations
//! interleaved so drift (thermal, cache) hits both evenly, one untimed
//! warmup each, and an identical-answer check first:
//!
//! * **Training, metrics.** Trains repeatedly with the default no-op
//!   [`ObsHandle`] and again with an enabled (aggregating) handle —
//!   *identical* parameters otherwise, so the learned clauses are the same.
//! * **Serving, profiling.** Starts the prediction server with
//!   [`Profiler::noop`] and with the production default
//!   [`Profiler::enabled`] (97 Hz wall sampler, allocation attribution
//!   through this binary's [`ProfiledAllocator`], lock-wait timers on the
//!   admission queue and registry) and drives the same request stream
//!   through both.
//!
//! Each half reports mean wall time per configuration and the relative
//! overhead; the budget is **< 5%** for each. The disabled paths are
//! separately pinned to zero allocations by `crossmine-obs`'s
//! counting-allocator test.
//!
//! ```text
//! cargo run --release -p crossmine-bench --bin overhead
//! cargo run --release -p crossmine-bench --bin overhead -- --reps 20 --requests 5000
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossmine_core::{CrossMine, CrossMineParams};
use crossmine_obs::{ObsHandle, ProfiledAllocator, Profiler};
use crossmine_relational::{ClassLabel, Database, Row};
use crossmine_serve::{CompiledPlan, ModelRegistry, PredictionServer, ServerConfig};
use crossmine_synth::{generate, GenParams};

/// The enabled profiler measures what production pays, so the allocator
/// wrapper the attribution rides on must be installed here too. With no
/// profiler live it is one relaxed load per allocation, paid equally by
/// both training configurations.
#[global_allocator]
static ALLOC: ProfiledAllocator<std::alloc::System> = ProfiledAllocator(std::alloc::System);

const BUDGET: f64 = 0.05;

fn main() {
    let mut reps = 10usize;
    let mut requests = 2_000usize;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--reps" => {
                i += 1;
                reps = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--reps needs a positive integer");
            }
            "--requests" => {
                i += 1;
                requests = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--requests needs a positive integer");
            }
            other => panic!("unknown flag {other} (try --reps N --requests N)"),
        }
        i += 1;
    }

    let db = generate(&GenParams {
        num_relations: 5,
        expected_tuples: 200,
        min_tuples: 60,
        expected_foreign_keys: 3,
        seed: 42,
        ..Default::default()
    });
    let rows: Vec<Row> = db.relation(db.target().expect("target set")).iter_rows().collect();
    println!(
        "R5.T200.F3 ({} target rows), {reps} reps per configuration, {requests} requests per serve rep",
        rows.len()
    );

    let training = training_overhead(&db, &rows, reps);
    let serving = serving_overhead(db, &rows, reps, requests);
    if training > BUDGET || serving > BUDGET {
        eprintln!("overhead: WARNING: overhead above the 5% target");
        std::process::exit(1);
    }
    println!("OK: both within the 5% overhead target");
}

/// Training with a no-op vs an enabled [`ObsHandle`]; returns the
/// relative overhead.
fn training_overhead(db: &Database, rows: &[Row], reps: usize) -> f64 {
    let fit = |obs: ObsHandle| -> (Duration, usize) {
        let cm = CrossMine::new(
            CrossMineParams::builder().sampling(true).obs(obs).build().expect("valid params"),
        );
        let start = Instant::now();
        let model = cm.fit(db, rows).expect("generated database is valid");
        (start.elapsed(), model.num_clauses())
    };

    let (_, baseline_clauses) = fit(ObsHandle::noop());
    let (_, instrumented_clauses) = fit(ObsHandle::enabled());
    assert_eq!(
        baseline_clauses, instrumented_clauses,
        "observability must not change what is learned"
    );
    let mut noop = Duration::ZERO;
    let mut enabled = Duration::ZERO;
    for _ in 0..reps {
        noop += fit(ObsHandle::noop()).0;
        enabled += fit(ObsHandle::enabled()).0;
    }
    report("training, no-op handle", "training, enabled handle", noop, enabled, reps)
}

/// Serving with a no-op vs an enabled [`Profiler`]; returns the relative
/// overhead.
fn serving_overhead(db: Database, rows: &[Row], reps: usize, requests: usize) -> f64 {
    let model = CrossMine::default().fit(&db, rows).expect("generated database is valid");
    let plan = CompiledPlan::compile(&model, &db.schema).expect("trained model compiles");
    let db = Arc::new(db);

    let serve = |profiler: Profiler| -> (Duration, Vec<ClassLabel>) {
        let registry = Arc::new(ModelRegistry::new(plan.clone()));
        let config = ServerConfig::builder()
            .profiler(profiler)
            .build()
            .expect("default server config is valid");
        let server = PredictionServer::start(Arc::clone(&db), registry, config)
            .expect("default server config starts");
        // Warm the fresh server (thread spin-up, first-batch plan touch).
        for i in 0..64 {
            server.predict(rows[i % rows.len()]).expect("warmup request");
        }
        let mut labels = Vec::with_capacity(requests);
        let start = Instant::now();
        for i in 0..requests {
            let p = server.predict(rows[i % rows.len()]).expect("bench request");
            labels.push(p.label);
        }
        let elapsed = start.elapsed();
        server.shutdown();
        (elapsed, labels)
    };

    let (_, baseline_labels) = serve(Profiler::noop());
    let (_, profiled_labels) = serve(Profiler::enabled());
    assert_eq!(baseline_labels, profiled_labels, "profiling must not change what is served");
    let mut noop = Duration::ZERO;
    let mut enabled = Duration::ZERO;
    for _ in 0..reps {
        noop += serve(Profiler::noop()).0;
        enabled += serve(Profiler::enabled()).0;
    }
    report("serving, no-op profiler", "serving, enabled profiler", noop, enabled, reps)
}

/// Prints both means and the relative overhead, and returns the latter.
fn report(off: &str, on: &str, noop: Duration, enabled: Duration, reps: usize) -> f64 {
    let noop_mean = noop / reps as u32;
    let enabled_mean = enabled / reps as u32;
    let overhead = enabled_mean.as_secs_f64() / noop_mean.as_secs_f64() - 1.0;
    println!("{off:<28}{noop_mean:?} mean");
    println!("{on:<28}{enabled_mean:?} mean");
    println!("{:<28}{:+.1}%", "overhead:", overhead * 100.0);
    overhead
}
