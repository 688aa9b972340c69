//! The continuous-bench regression gate.
//!
//! [`run_suite`] executes a pinned suite of end-to-end benchmarks —
//! learner fits on the §7.1 synthetic workloads, a warm tuple-ID
//! propagation pass, the serve-layer batched evaluator (all rows and
//! single rows), and the prediction server's end-to-end latency under
//! client load — and folds each into a [`BenchSample`]: the **median of
//! N runs** plus the **median absolute deviation (MAD)** as a noise band. The whole suite serializes
//! to a schema-versioned JSON document (`BENCH_crossmine.json`) carrying a
//! machine fingerprint, and [`check`] compares a fresh run against such a
//! committed baseline:
//!
//! > a benchmark **regresses** when
//! > `new_median > baseline_median × 1.15 + 3 × baseline_MAD`
//!
//! i.e. more than 15 % slower *and* outside three noise bands. Tail
//! quantiles (`_p99` benchmarks) widen the band to at least
//! [`TAIL_NOISE_FLOOR`] of the median, because a pin taken on a quiet
//! machine records far less jitter than tails actually have. Only names
//! present in both reports are compared, so a smoke run (which skips the
//! expensive fit) still gates against a full baseline. When the machine
//! fingerprint differs, regressions are downgraded to warnings — absolute
//! times from another box prove nothing.
//!
//! The serve benchmarks take a [`ChaosConfig`], which is how the test
//! suite proves the gate actually fires: injecting a per-batch stall
//! slows the server measurably, and `check` must flag it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossmine_core::CrossMine;
use crossmine_relational::{Database, Row};
use crossmine_serve::{
    evaluate_batch, ChaosConfig, CompiledPlan, ModelRegistry, NetConfig, PredictionServer,
    ServeScratch, ServerConfig, ShardRouter,
};
use crossmine_synth::{generate, GenParams};

use crate::json::Json;
use crate::net_client::{NetClient, NetProto};

/// Current on-disk schema version of the suite report.
pub const SCHEMA_VERSION: u64 = 1;

/// Regression threshold: a benchmark fails when its fresh median exceeds
/// `baseline × REGRESSION_FACTOR + NOISE_BANDS × MAD`.
pub const REGRESSION_FACTOR: f64 = 1.15;
/// How many baseline MADs of slack the gate grants on top of the factor.
pub const NOISE_BANDS: f64 = 3.0;
/// Noise floor for tail-quantile benchmarks, as a fraction of the
/// baseline median. A smoke-run p99 is roughly the third-slowest of a few
/// hundred requests: one scheduler preemption on a small box moves it
/// 30–40% between otherwise identical runs, while a quiet pinning run can
/// record a MAD under 3% of the median. Gating tails against the raw
/// pinned MAD therefore turns jitter into failures; `_p99` benchmarks
/// instead use `max(MAD, TAIL_NOISE_FLOOR × median)` as their band, which
/// still catches any sustained ~1.6x tail regression.
pub const TAIL_NOISE_FLOOR: f64 = 0.15;

/// Whether a benchmark name denotes a tail quantile (`_p99`), and so
/// gates with the widened [`TAIL_NOISE_FLOOR`] band.
fn is_tail_bench(name: &str) -> bool {
    name.contains("_p99")
}

/// Knobs of one suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Runs per benchmark; the sample is the median, the noise band the MAD.
    pub samples: usize,
    /// Skip the expensive benchmarks (the R10.T500.F5 fit). Smoke runs
    /// share every other benchmark name with full runs so `check` still
    /// compares them against a full baseline.
    pub smoke: bool,
    /// Requests issued per serve-latency sample.
    pub serve_requests: usize,
    /// RNG seed for workload generation.
    pub seed: u64,
    /// Fault injection for the serve benchmarks. Off by default; the
    /// regression-gate test injects stalls here to prove `check` fires.
    pub chaos: ChaosConfig,
    /// When set, only benchmarks whose name starts with this prefix run.
    pub only: Option<String>,
    /// Count-store byte budget for the learner-fit benchmarks (`None`
    /// keeps the library default; `Some(0)` disables caching). The
    /// `.nocache` fit variants always run with a budget of 0 regardless.
    pub cache_budget: Option<usize>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            samples: 5,
            smoke: false,
            serve_requests: 2000,
            seed: 42,
            chaos: ChaosConfig::off(),
            only: None,
            cache_budget: None,
        }
    }
}

impl SuiteConfig {
    /// The fast configuration CI runs on every push.
    pub fn smoke() -> Self {
        SuiteConfig { samples: 3, smoke: true, serve_requests: 300, ..SuiteConfig::default() }
    }
}

/// One benchmark's aggregated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSample {
    /// Stable benchmark name, e.g. `learner.fit.R5.T200.F3`.
    pub name: String,
    /// Unit of every number in this sample (`ms` or `us`).
    pub unit: String,
    /// Median across runs.
    pub median: f64,
    /// Median absolute deviation across runs — the noise band.
    pub mad: f64,
    /// The raw per-run measurements, in run order.
    pub samples: Vec<f64>,
}

/// Where a report was produced. Comparing absolute medians across
/// machines is meaningless, so [`check`] downgrades regressions to
/// warnings when fingerprints differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Available parallelism at run time.
    pub parallelism: u64,
}

impl Fingerprint {
    /// The fingerprint of this machine, right now.
    pub fn current() -> Self {
        Fingerprint {
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
            parallelism: std::thread::available_parallelism().map(|p| p.get() as u64).unwrap_or(1),
        }
    }
}

/// A full suite run: what was measured, where, and under which schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// On-disk schema version; bumped on incompatible changes.
    pub schema_version: u64,
    /// The machine that produced the numbers.
    pub fingerprint: Fingerprint,
    /// Whether this was a smoke run.
    pub smoke: bool,
    /// Runs per benchmark.
    pub samples_per_bench: usize,
    /// The measurements, in suite order.
    pub results: Vec<BenchSample>,
}

/// One name-by-name comparison from [`check`].
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark name present in both reports.
    pub name: String,
    /// Baseline median.
    pub base_median: f64,
    /// Baseline noise band (MAD).
    pub base_mad: f64,
    /// Fresh median.
    pub new_median: f64,
    /// `new_median / base_median` (`inf` when the baseline is 0).
    pub ratio: f64,
    /// Whether the regression rule fired for this benchmark.
    pub regressed: bool,
}

/// The outcome of gating a fresh report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Per-benchmark comparisons over the name intersection.
    pub comparisons: Vec<Comparison>,
    /// Whether both reports came from the same kind of machine.
    pub fingerprint_match: bool,
    /// Names present in the baseline but missing from the fresh run
    /// (informational — smoke runs legitimately skip benchmarks).
    pub missing: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate should fail the build: at least one regression on
    /// a matching machine. On a foreign machine regressions are warnings.
    pub fn failed(&self) -> bool {
        self.fingerprint_match && self.comparisons.iter().any(|c| c.regressed)
    }

    /// All comparisons that fired the rule, regardless of fingerprint.
    pub fn regressions(&self) -> impl Iterator<Item = &Comparison> {
        self.comparisons.iter().filter(|c| c.regressed)
    }

    /// Human-readable gate summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.comparisons {
            let verdict = if !c.regressed {
                "ok"
            } else if self.fingerprint_match {
                "REGRESSED"
            } else {
                "regressed (foreign baseline — warning only)"
            };
            out.push_str(&format!(
                "  {:<32} base {:>10.1} (mad {:>6.1})  now {:>10.1}  x{:.2}  {}\n",
                c.name, c.base_median, c.base_mad, c.new_median, c.ratio, verdict
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("  {name:<32} not measured in this run (skipped)\n"));
        }
        if !self.fingerprint_match {
            out.push_str(
                "  note: baseline fingerprint differs; regressions do not fail the gate\n",
            );
        }
        out
    }
}

/// Median of a slice (averaging the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("bench samples are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation around the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

fn sample_from(name: &str, unit: &str, runs: Vec<f64>) -> BenchSample {
    BenchSample {
        name: name.to_string(),
        unit: unit.to_string(),
        median: median(&runs),
        mad: mad(&runs),
        samples: runs,
    }
}

fn workload_r5(seed: u64) -> GenParams {
    GenParams {
        num_relations: 5,
        expected_tuples: 200,
        min_tuples: 60,
        expected_foreign_keys: 3,
        seed,
        ..Default::default()
    }
}

fn workload_r10(seed: u64) -> GenParams {
    GenParams {
        num_relations: 10,
        expected_tuples: 500,
        min_tuples: 150,
        expected_foreign_keys: 5,
        seed,
        ..Default::default()
    }
}

fn target_rows(db: &Database) -> Vec<Row> {
    db.relation(db.target().expect("synthetic databases always set a target")).iter_rows().collect()
}

fn wants(config: &SuiteConfig, name: &str) -> bool {
    config.only.as_deref().map(|p| name.starts_with(p)).unwrap_or(true)
}

/// Run the pinned suite and aggregate every benchmark into median + MAD.
///
/// `progress` receives one line per finished benchmark (pass
/// `|_| {}` to stay silent, or hook it to stderr from the binary).
pub fn run_suite(config: &SuiteConfig, mut progress: impl FnMut(&str)) -> BenchReport {
    let mut results = Vec::new();

    // -- Learner: end-to-end fit on the §7.1 workloads ------------------
    // Each sample fits a fresh classifier (fresh count store), so the
    // cache-on numbers measure one cold fit with intra-fit reuse only.
    let mut fit_bench =
        |name: &str, params: &GenParams, budget: Option<usize>, results: &mut Vec<BenchSample>| {
            if !wants(config, name) {
                return;
            }
            let db = generate(params);
            let rows = target_rows(&db);
            let make = || {
                let mut clf = CrossMine::default();
                if let Some(b) = budget {
                    clf.params.stats_cache_budget_bytes = b;
                }
                clf
            };
            // Warmup fit excluded from the samples: builds the database's
            // lazy key/sorted indexes and faults in the allocator, so no
            // sample pays a one-off cold-start cost.
            let warm = make().fit(&db, &rows).expect("fit on pinned workload");
            std::hint::black_box(warm.num_clauses());
            let mut runs = Vec::with_capacity(config.samples);
            for _ in 0..config.samples {
                let clf = make();
                let start = Instant::now();
                let model = clf.fit(&db, &rows).expect("fit on pinned workload");
                runs.push(start.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(model.num_clauses());
            }
            let sample = sample_from(name, "ms", runs);
            progress(&format!(
                "{:<32} median {:.1} ms (mad {:.1})",
                sample.name, sample.median, sample.mad
            ));
            results.push(sample);
        };
    // With an explicit budget of 0 the plain variants would duplicate the
    // `.nocache` ones and be gated against cache-on baselines, so skip them;
    // the gate reports them as "not measured" (non-fatal).
    let budget = config.cache_budget;
    if budget != Some(0) {
        fit_bench("learner.fit.R5.T200.F3", &workload_r5(config.seed), budget, &mut results);
    }
    fit_bench("learner.fit.R5.T200.F3.nocache", &workload_r5(config.seed), Some(0), &mut results);
    if !config.smoke {
        if budget != Some(0) {
            fit_bench("learner.fit.R10.T500.F5", &workload_r10(config.seed), budget, &mut results);
        }
        fit_bench(
            "learner.fit.R10.T500.F5.nocache",
            &workload_r10(config.seed),
            Some(0),
            &mut results,
        );
    }

    // -- Shared model for the propagation / serve benchmarks ------------
    let db = Arc::new(generate(&workload_r5(config.seed)));
    let rows = target_rows(&db);
    let model = CrossMine::default().fit(&db, &rows).expect("fit on pinned workload");
    let plan = CompiledPlan::compile(&model, &db.schema).expect("plan compiles");

    // -- Propagation: a warm in-core predict pass ------------------------
    if wants(config, "propagation.predict.R5.T200.F3") {
        let mut runs = Vec::with_capacity(config.samples);
        // Warmup passes (excluded from samples) so no sample pays cold
        // caches, lazy indexes, or first-touch page faults.
        for _ in 0..2 {
            std::hint::black_box(model.predict(&db, &rows).expect("predict"));
        }
        for _ in 0..config.samples {
            let start = Instant::now();
            let labels = model.predict(&db, &rows).expect("predict");
            runs.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(labels.len());
        }
        let sample = sample_from("propagation.predict.R5.T200.F3", "us", runs);
        progress(&format!(
            "{:<32} median {:.1} us (mad {:.1})",
            sample.name, sample.median, sample.mad
        ));
        results.push(sample);
    }

    // -- Serve: the batched evaluator over reusable scratch --------------
    if wants(config, "serve.eval_batch.R5.T200.F3") {
        let mut scratch = ServeScratch::new();
        // Warmup passes excluded from samples (see propagation.predict).
        for _ in 0..2 {
            std::hint::black_box(evaluate_batch(&plan, &db, &rows, &mut scratch));
        }
        let mut runs = Vec::with_capacity(config.samples);
        for _ in 0..config.samples {
            let start = Instant::now();
            let labels = evaluate_batch(&plan, &db, &rows, &mut scratch);
            runs.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(labels.len());
        }
        let sample = sample_from("serve.eval_batch.R5.T200.F3", "us", runs);
        progress(&format!(
            "{:<32} median {:.1} us (mad {:.1})",
            sample.name, sample.median, sample.mad
        ));
        results.push(sample);
    }

    // -- Serve: batch-1 evaluation, the serving case ---------------------
    // One call takes microseconds, so a sample is the median of two passes
    // of single-row calls over every target row.
    if wants(config, "serve.eval_batch.b1.R5.T200.F3") {
        let mut scratch = ServeScratch::new();
        for &row in &rows {
            std::hint::black_box(evaluate_batch(&plan, &db, &[row], &mut scratch));
        }
        let mut runs = Vec::with_capacity(config.samples);
        let mut calls = Vec::with_capacity(2 * rows.len());
        for _ in 0..config.samples {
            calls.clear();
            for &row in rows.iter().chain(&rows) {
                let start = Instant::now();
                let labels = evaluate_batch(&plan, &db, &[row], &mut scratch);
                calls.push(start.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(labels);
            }
            runs.push(median(&calls));
        }
        let sample = sample_from("serve.eval_batch.b1.R5.T200.F3", "us", runs);
        progress(&format!(
            "{:<32} median {:.1} us (mad {:.1})",
            sample.name, sample.median, sample.mad
        ));
        results.push(sample);
    }

    // -- Serve: end-to-end request latency under the micro-batcher -------
    let want_p50 = wants(config, "serve.latency_p50");
    let want_p99 = wants(config, "serve.latency_p99");
    if want_p50 || want_p99 {
        let mut p50_runs = Vec::with_capacity(config.samples);
        let mut p99_runs = Vec::with_capacity(config.samples);
        for _ in 0..config.samples {
            let registry = Arc::new(ModelRegistry::new(plan.clone()));
            let server = PredictionServer::start(
                Arc::clone(&db),
                registry,
                ServerConfig::builder()
                    .chaos(config.chaos.clone())
                    .build()
                    .expect("default server config is valid"),
            )
            .expect("default server config is valid");
            // Warm the fresh server (thread spin-up, first-batch plan
            // touch) before measuring.
            for i in 0..(config.serve_requests / 10).clamp(8, 64) {
                let row = rows[i % rows.len()];
                server.predict(row).expect("serve warmup runs without panics or deadlines");
            }
            let mut latencies_us = Vec::with_capacity(config.serve_requests);
            for i in 0..config.serve_requests {
                let row = rows[i % rows.len()];
                let start = Instant::now();
                server.predict(row).expect("serve bench runs without panics or deadlines");
                latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            server.shutdown();
            // Exact client-side quantiles — deliberately NOT the server's
            // log2-bucketed histogram, whose bucket bounds quantize medians
            // too coarsely (2x steps) for a 15 % gate.
            latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let q = |f: f64| {
                let idx = ((latencies_us.len() - 1) as f64 * f).round() as usize;
                latencies_us[idx]
            };
            p50_runs.push(q(0.50));
            p99_runs.push(q(0.99));
        }
        if want_p50 {
            let sample = sample_from("serve.latency_p50", "us", p50_runs);
            progress(&format!(
                "{:<32} median {:.1} us (mad {:.1})",
                sample.name, sample.median, sample.mad
            ));
            results.push(sample);
        }
        if want_p99 {
            let sample = sample_from("serve.latency_p99", "us", p99_runs);
            progress(&format!(
                "{:<32} median {:.1} us (mad {:.1})",
                sample.name, sample.median, sample.mad
            ));
            results.push(sample);
        }
    }

    // -- Serve: the same end-to-end latency with the continuous profiler
    // on at production defaults (97 Hz wall sampler, allocation tracking,
    // lock-wait timers). Pinned in the baseline so profiler overhead
    // regressions gate like any other slowdown; the enabled-vs-disabled
    // <5% budget itself is proven by the `overhead` binary.
    let want_prof_p50 = wants(config, "serve.latency_p50.profiled");
    let want_prof_p99 = wants(config, "serve.latency_p99.profiled");
    if want_prof_p50 || want_prof_p99 {
        let mut p50_runs = Vec::with_capacity(config.samples);
        let mut p99_runs = Vec::with_capacity(config.samples);
        for _ in 0..config.samples {
            let profiler = crossmine_obs::Profiler::enabled();
            let registry = Arc::new(ModelRegistry::new(plan.clone()));
            let server = PredictionServer::start(
                Arc::clone(&db),
                registry,
                ServerConfig::builder()
                    .chaos(config.chaos.clone())
                    .profiler(profiler)
                    .build()
                    .expect("default server config is valid"),
            )
            .expect("default server config is valid");
            for i in 0..(config.serve_requests / 10).clamp(8, 64) {
                let row = rows[i % rows.len()];
                server.predict(row).expect("serve warmup runs without panics or deadlines");
            }
            let mut latencies_us = Vec::with_capacity(config.serve_requests);
            for i in 0..config.serve_requests {
                let row = rows[i % rows.len()];
                let start = Instant::now();
                server.predict(row).expect("serve bench runs without panics or deadlines");
                latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            server.shutdown();
            latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let q = |f: f64| {
                let idx = ((latencies_us.len() - 1) as f64 * f).round() as usize;
                latencies_us[idx]
            };
            p50_runs.push(q(0.50));
            p99_runs.push(q(0.99));
        }
        if want_prof_p50 {
            let sample = sample_from("serve.latency_p50.profiled", "us", p50_runs);
            progress(&format!(
                "{:<32} median {:.1} us (mad {:.1})",
                sample.name, sample.median, sample.mad
            ));
            results.push(sample);
        }
        if want_prof_p99 {
            let sample = sample_from("serve.latency_p99.profiled", "us", p99_runs);
            progress(&format!(
                "{:<32} median {:.1} us (mad {:.1})",
                sample.name, sample.median, sample.mad
            ));
            results.push(sample);
        }
    }

    // -- Net: socket-to-socket latency over each wire protocol -----------
    // Same server, same model, but the request crosses the crossmine-net
    // front end over real TCP: sniff, parse/decode, admission, scoring,
    // encode, write. One keep-alive connection, one row per request —
    // the closest wire analog of `serve.latency_*`.
    for proto in [NetProto::Http, NetProto::Binary] {
        let p50_name = format!("net.{}_p50", proto.name());
        let p99_name = format!("net.{}_p99", proto.name());
        let want_p50 = wants(config, &p50_name);
        let want_p99 = wants(config, &p99_name);
        if !want_p50 && !want_p99 {
            continue;
        }
        let mut p50_runs = Vec::with_capacity(config.samples);
        let mut p99_runs = Vec::with_capacity(config.samples);
        for _ in 0..config.samples {
            let registry = Arc::new(ModelRegistry::new(plan.clone()));
            let server = PredictionServer::start(
                Arc::clone(&db),
                registry,
                ServerConfig::builder()
                    .chaos(config.chaos.clone())
                    .net(NetConfig::default())
                    .build()
                    .expect("default server config with net is valid"),
            )
            .expect("default server config with net is valid");
            let addr = server.net_addr().expect("net was configured");
            let mut client =
                NetClient::connect(addr, proto).expect("bench client connects to the front end");
            // Warm the server threads, the connection, and the sniffed
            // protocol before measuring.
            for i in 0..(config.serve_requests / 10).clamp(8, 64) {
                let row = rows[i % rows.len()].0;
                let reply = client.request(&[row], None).expect("net bench warmup");
                assert_eq!(reply.status, 200, "warmup must not shed: one serial client");
            }
            let mut latencies_us = Vec::with_capacity(config.serve_requests);
            for i in 0..config.serve_requests {
                let row = rows[i % rows.len()].0;
                let start = Instant::now();
                let reply = client.request(&[row], None).expect("net bench request");
                latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                assert_eq!(reply.status, 200, "bench must not shed: one serial client");
                std::hint::black_box(reply.labels.len());
            }
            drop(client);
            server.shutdown();
            latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let q = |f: f64| {
                let idx = ((latencies_us.len() - 1) as f64 * f).round() as usize;
                latencies_us[idx]
            };
            p50_runs.push(q(0.50));
            p99_runs.push(q(0.99));
        }
        for (want, name, runs) in [(want_p50, &p50_name, p50_runs), (want_p99, &p99_name, p99_runs)]
        {
            if !want {
                continue;
            }
            let sample = sample_from(name, "us", runs);
            progress(&format!(
                "{:<32} median {:.1} us (mad {:.1})",
                sample.name, sample.median, sample.mad
            ));
            results.push(sample);
        }
    }

    // -- Shard: router predict latency across shard counts ----------------
    // The same one-row predict as `serve.latency_*`, but through a
    // ShardRouter — S1 prices the routing layer itself against the single
    // server, S2/S4 price the shared-nothing scatter. One serial client,
    // so these measure per-request latency, not parallel throughput.
    for shards in [1usize, 2, 4] {
        let p50_name = format!("shard.latency_p50.S{shards}");
        let p99_name = format!("shard.latency_p99.S{shards}");
        let want_p50 = wants(config, &p50_name);
        let want_p99 = wants(config, &p99_name);
        if !want_p50 && !want_p99 {
            continue;
        }
        let mut p50_runs = Vec::with_capacity(config.samples);
        let mut p99_runs = Vec::with_capacity(config.samples);
        for _ in 0..config.samples {
            let router = ShardRouter::start(
                Arc::clone(&db),
                &plan,
                ServerConfig::builder()
                    .chaos(config.chaos.clone())
                    .shards(shards)
                    .build()
                    .expect("default sharded config is valid"),
            )
            .expect("default sharded config is valid");
            // Warm every shard's workers before measuring.
            for i in 0..(config.serve_requests / 10).clamp(8, 64) {
                let row = rows[i % rows.len()];
                router.predict(row).expect("shard bench warmup runs clean");
            }
            let mut latencies_us = Vec::with_capacity(config.serve_requests);
            for i in 0..config.serve_requests {
                let row = rows[i % rows.len()];
                let start = Instant::now();
                router.predict(row).expect("shard bench runs clean");
                latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            router.shutdown();
            latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let q = |f: f64| {
                let idx = ((latencies_us.len() - 1) as f64 * f).round() as usize;
                latencies_us[idx]
            };
            p50_runs.push(q(0.50));
            p99_runs.push(q(0.99));
        }
        for (want, name, runs) in [(want_p50, &p50_name, p50_runs), (want_p99, &p99_name, p99_runs)]
        {
            if !want {
                continue;
            }
            let sample = sample_from(name, "us", runs);
            progress(&format!(
                "{:<32} median {:.1} us (mad {:.1})",
                sample.name, sample.median, sample.mad
            ));
            results.push(sample);
        }
    }

    BenchReport {
        schema_version: SCHEMA_VERSION,
        fingerprint: Fingerprint::current(),
        smoke: config.smoke,
        samples_per_bench: config.samples,
        results,
    }
}

/// Gate a fresh report against a committed baseline.
///
/// Compares the intersection of benchmark names; each fails when
/// `new_median > base_median × 1.15 + 3 × band`, where `band` is the
/// baseline MAD — widened to [`TAIL_NOISE_FLOOR`] × median for `_p99`
/// benchmarks, whose order-statistic jitter a quiet pin underestimates. A
/// fingerprint mismatch keeps the comparisons but [`GateOutcome::failed`]
/// stays `false` — foreign absolute times only warn.
pub fn check(baseline: &BenchReport, current: &BenchReport) -> GateOutcome {
    let fingerprint_match = baseline.fingerprint == current.fingerprint;
    let mut comparisons = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.results {
        match current.results.iter().find(|s| s.name == base.name) {
            None => missing.push(base.name.clone()),
            Some(cur) => {
                let band = if is_tail_bench(&base.name) {
                    base.mad.max(TAIL_NOISE_FLOOR * base.median)
                } else {
                    base.mad
                };
                let threshold = base.median * REGRESSION_FACTOR + NOISE_BANDS * band;
                let ratio =
                    if base.median > 0.0 { cur.median / base.median } else { f64::INFINITY };
                comparisons.push(Comparison {
                    name: base.name.clone(),
                    base_median: base.median,
                    base_mad: base.mad,
                    new_median: cur.median,
                    ratio,
                    regressed: cur.median > threshold,
                });
            }
        }
    }
    GateOutcome { comparisons, fingerprint_match, missing }
}

// ---------------------------------------------------------------------
// JSON (de)serialization
// ---------------------------------------------------------------------

/// Why a baseline document could not be loaded.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The document is not valid JSON.
    Parse(String),
    /// The document parses but does not match the report schema.
    Schema(String),
    /// The document's `schema_version` is one this build cannot read.
    Version(u64),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Parse(e) => write!(f, "invalid JSON: {e}"),
            ReportError::Schema(e) => write!(f, "schema mismatch: {e}"),
            ReportError::Version(v) => {
                write!(f, "unsupported schema_version {v} (this build reads {SCHEMA_VERSION})")
            }
        }
    }
}

impl std::error::Error for ReportError {}

impl BenchReport {
    /// Serialize to the pretty, committed `BENCH_crossmine.json` form.
    pub fn to_json(&self) -> String {
        let results = self
            .results
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("unit".into(), Json::Str(s.unit.clone())),
                    ("median".into(), Json::Num(s.median)),
                    ("mad".into(), Json::Num(s.mad)),
                    (
                        "samples".into(),
                        Json::Arr(s.samples.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(self.schema_version as f64)),
            (
                "fingerprint".into(),
                Json::Obj(vec![
                    ("arch".into(), Json::Str(self.fingerprint.arch.clone())),
                    ("os".into(), Json::Str(self.fingerprint.os.clone())),
                    ("parallelism".into(), Json::Num(self.fingerprint.parallelism as f64)),
                ]),
            ),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("samples_per_bench".into(), Json::Num(self.samples_per_bench as f64)),
            ("results".into(), Json::Arr(results)),
        ])
        .render_pretty()
    }

    /// Parse a document produced by [`BenchReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, ReportError> {
        let doc = Json::parse(text).map_err(|e| ReportError::Parse(e.to_string()))?;
        let field = |name: &str| {
            doc.get(name).ok_or_else(|| ReportError::Schema(format!("missing field '{name}'")))
        };
        let version = field("schema_version")?
            .as_u64()
            .ok_or_else(|| ReportError::Schema("schema_version must be an integer".into()))?;
        if version != SCHEMA_VERSION {
            return Err(ReportError::Version(version));
        }
        let fp = field("fingerprint")?;
        let fp_str = |name: &str| {
            fp.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ReportError::Schema(format!("fingerprint.{name} must be a string")))
        };
        let fingerprint = Fingerprint {
            arch: fp_str("arch")?,
            os: fp_str("os")?,
            parallelism: fp
                .get("parallelism")
                .and_then(Json::as_u64)
                .ok_or_else(|| ReportError::Schema("fingerprint.parallelism".into()))?,
        };
        let mut results = Vec::new();
        for entry in field("results")?
            .as_arr()
            .ok_or_else(|| ReportError::Schema("results must be an array".into()))?
        {
            let str_of =
                |name: &str| {
                    entry.get(name).and_then(Json::as_str).map(str::to_string).ok_or_else(|| {
                        ReportError::Schema(format!("result.{name} must be a string"))
                    })
                };
            let num_of = |name: &str| {
                entry
                    .get(name)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ReportError::Schema(format!("result.{name} must be a number")))
            };
            let samples = entry
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or_else(|| ReportError::Schema("result.samples must be an array".into()))?
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| ReportError::Schema("samples must be numbers".into()))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            results.push(BenchSample {
                name: str_of("name")?,
                unit: str_of("unit")?,
                median: num_of("median")?,
                mad: num_of("mad")?,
                samples,
            });
        }
        Ok(BenchReport {
            schema_version: version,
            fingerprint,
            smoke: field("smoke")?
                .as_bool()
                .ok_or_else(|| ReportError::Schema("smoke must be a bool".into()))?,
            samples_per_bench: field("samples_per_bench")?
                .as_u64()
                .ok_or_else(|| ReportError::Schema("samples_per_bench".into()))?
                as usize,
            results,
        })
    }
}

/// A stall long enough to dominate any single-request serve latency on
/// any plausible machine — used by tests and docs to demonstrate the gate.
pub fn slowdown_chaos() -> ChaosConfig {
    ChaosConfig { stall_every: 1, stall_for: Duration::from_millis(5), ..ChaosConfig::off() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(samples: Vec<BenchSample>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            fingerprint: Fingerprint::current(),
            smoke: false,
            samples_per_bench: 5,
            results: samples,
        }
    }

    fn bench(name: &str, median: f64, mad: f64) -> BenchSample {
        BenchSample { name: name.into(), unit: "us".into(), median, mad, samples: vec![median] }
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 100.0]), 1.0);
    }

    #[test]
    fn threshold_rule_is_exact() {
        // base 100, mad 2 → threshold 100*1.15 + 3*2 ≈ 121 (up to f64
        // rounding of 1.15 — probe either side with clear margins).
        let base = report_with(vec![bench("x", 100.0, 2.0)]);
        let pass = report_with(vec![bench("x", 120.9, 0.0)]);
        assert!(!check(&base, &pass).failed(), "below the threshold is not a regression");
        let fail = report_with(vec![bench("x", 121.1, 0.0)]);
        let outcome = check(&base, &fail);
        assert!(outcome.failed());
        assert_eq!(outcome.regressions().count(), 1);
    }

    #[test]
    fn tail_benches_gate_with_the_noise_floor() {
        // A p99 pinned with an unrealistically tight MAD: the floor is
        // 15% of the median, so the band is 3 × 90 on a 600 base →
        // threshold 600*1.15 + 270 = 960. A 35%-slower tail (jitter on a
        // small box) passes; the same ratio on a non-tail name fails.
        let base = report_with(vec![
            bench("serve.latency_p99", 600.0, 5.0),
            bench("serve.latency_p50", 600.0, 5.0),
        ]);
        let current = report_with(vec![
            bench("serve.latency_p99", 810.0, 0.0),
            bench("serve.latency_p50", 810.0, 0.0),
        ]);
        let outcome = check(&base, &current);
        let regressed: Vec<_> = outcome.regressions().map(|c| c.name.as_str()).collect();
        assert_eq!(regressed, vec!["serve.latency_p50"], "only the median bench trips");
        // A sustained 2x tail regression still blows past the widened band.
        let doubled = report_with(vec![
            bench("serve.latency_p99", 1200.0, 0.0),
            bench("serve.latency_p50", 600.0, 0.0),
        ]);
        assert!(check(&base, &doubled).regressions().any(|c| c.name == "serve.latency_p99"));
    }

    #[test]
    fn foreign_fingerprint_downgrades_to_warning() {
        let base = BenchReport {
            fingerprint: Fingerprint {
                arch: "quantum9000".into(),
                os: "templeos".into(),
                parallelism: 512,
            },
            ..report_with(vec![bench("x", 1.0, 0.0)])
        };
        let current = report_with(vec![bench("x", 1000.0, 0.0)]);
        let outcome = check(&base, &current);
        assert!(!outcome.fingerprint_match);
        assert_eq!(outcome.regressions().count(), 1, "comparison still reported");
        assert!(!outcome.failed(), "foreign baselines only warn");
        assert!(outcome.render().contains("warning only"));
    }

    #[test]
    fn missing_names_are_reported_not_failed() {
        let base = report_with(vec![bench("kept", 10.0, 0.0), bench("skipped", 10.0, 0.0)]);
        let current = report_with(vec![bench("kept", 10.0, 0.0)]);
        let outcome = check(&base, &current);
        assert!(!outcome.failed());
        assert_eq!(outcome.missing, vec!["skipped".to_string()]);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = report_with(vec![
            BenchSample {
                name: "learner.fit.R5.T200.F3".into(),
                unit: "ms".into(),
                median: 123.456,
                mad: 1.25,
                samples: vec![122.0, 123.456, 125.5],
            },
            bench("serve.latency_p99", 850.0, 40.0),
        ]);
        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).expect("roundtrip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn version_and_schema_errors_are_typed() {
        let mut report = report_with(vec![]);
        report.schema_version = 999;
        // to_json writes whatever version the struct carries…
        let text = report.to_json();
        // …and from_json rejects versions it cannot read.
        assert_eq!(BenchReport::from_json(&text), Err(ReportError::Version(999)));
        assert!(matches!(BenchReport::from_json("{}"), Err(ReportError::Schema(_))));
        assert!(matches!(BenchReport::from_json("not json"), Err(ReportError::Parse(_))));
    }
}
