//! In-process measurements every workload shares: bulk scoring in memory
//! and from disk, direct `evaluate_batch` calls, delta application, and —
//! for the traced run — timed calls into each layer's public functions.
//!
//! Each function measures one slice and returns raw samples, so callers
//! can interleave slices of different measurements across a whole run
//! and take medians over all of them: the machine's speed drifts over
//! seconds, and a measurement done in one contiguous block would catch
//! only one part of that drift.

use std::time::{Duration, Instant};

use crossmine_obs::ObsHandle;
use crossmine_relational::{ClassLabel, Database, DeltaBatch, DeltaOverlay, Row};
use crossmine_serve::{
    evaluate_batch, evaluate_batch_overlay, predict_disk, OverlayScratch, ServeScratch,
};

use crate::report::Report;
use crate::setup::{fit_traced, Deck, Prepared};
use crate::stats::median;

/// Runs `f` until `budget` has passed and it ran at least `min_reps`
/// times; returns each run's duration in seconds.
pub fn timed_reps(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

fn check_labels(report: &mut Report, what: &str, got: &[ClassLabel], want: &[ClassLabel]) {
    report.check(got == want, || {
        let bad = got.iter().zip(want).filter(|(a, b)| a != b).count();
        format!("{what}: {bad} of {} labels differ from core predict", want.len())
    });
}

/// Seconds per core `predict` pass over every target row.
pub fn predict_passes(p: &Prepared, budget: Duration, report: &mut Report) -> Vec<f64> {
    let mut outputs = Vec::new();
    let times = timed_reps(budget, 1, || {
        outputs.push(p.model.predict(&p.db, &p.rows).map_err(|e| e.to_string()));
    });
    for out in outputs {
        match out {
            Ok(labels) => check_labels(report, "predict", &labels, &p.reference),
            Err(e) => report.check(false, || format!("predict: {e}")),
        }
    }
    times
}

/// Seconds per `predict_disk` pass over every target row, through the
/// disk copy's small buffer pool.
pub fn disk_passes(p: &mut Prepared, budget: Duration, report: &mut Report) -> Vec<f64> {
    let Prepared { plan, disk, rows, reference, .. } = p;
    let mut outputs = Vec::new();
    let times = timed_reps(budget, 1, || {
        outputs.push(predict_disk(plan, disk, rows).map_err(|e| format!("{e:?}")));
    });
    for out in outputs {
        match out {
            Ok(labels) => check_labels(report, "predict_disk", &labels, reference),
            Err(e) => report.check(false, || format!("predict_disk: {e}")),
        }
    }
    times
}

/// `count` requests of `k` distinct rows each, dealt from `rows` in an
/// order set by `seed`.
pub fn row_sets(rows: &[Row], k: usize, count: usize, seed: u64) -> Vec<Vec<Row>> {
    let mut deck = Deck::new(rows, seed);
    (0..count).map(|_| deck.deal(k)).collect()
}

/// Microseconds per `evaluate_batch` call on `sets` (cycling from index
/// `start`), back to back, for at least `budget` and `min_calls` calls;
/// every answer is checked.
pub fn eval_calls(
    p: &Prepared,
    sets: &[Vec<Row>],
    start: usize,
    budget: Duration,
    min_calls: usize,
    report: &mut Report,
) -> Vec<f64> {
    let mut scratch = ServeScratch::new();
    let mut wrong = 0usize;
    let mut i = start;
    let times = timed_reps(budget, min_calls, || {
        let set = &sets[i % sets.len()];
        i += 1;
        let labels = evaluate_batch(&p.plan, &p.db, set, &mut scratch);
        wrong += set.iter().zip(&labels).filter(|(r, l)| p.reference[r.0 as usize] != **l).count();
    });
    report.check(wrong == 0, || format!("evaluate_batch: {wrong} labels differ"));
    times.iter().map(|s| s * 1e6).collect()
}

/// Milliseconds of `Database::apply_delta` applying `batch` to fresh
/// clones of the base (the clones are not timed).
pub fn apply_delta_times(
    p: &Prepared,
    batch: &DeltaBatch,
    budget: Duration,
    report: &mut Report,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed() < budget {
        let mut copy = Database::clone(&p.db);
        let t = Instant::now();
        let applied = copy.apply_delta(batch);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(applied.is_ok(), || format!("apply_delta rejected: {applied:?}"));
    }
    times
}

/// The in-process per-layer metrics of the traced run: set-up layers,
/// the traced fit, bulk scoring, direct evaluation, overlay evaluation
/// and delta application, each timed around calls to the layer's public
/// functions. `budget` bounds each timing loop.
pub fn layer_probes(
    p: &mut Prepared,
    delta: &DeltaBatch,
    seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    report.set("synth.generate_ms", p.generate_ms);
    report.set("serve.plan.compile_ms", p.compile_ms);
    report.set("storage.spill_ms", p.spill_ms);

    let (clauses, fit) = fit_traced(&p.db, &p.train)?;
    report.check(format!("{clauses:?}") == format!("{:?}", p.model.clauses), || {
        "the traced fit learned different clauses than fit".into()
    });
    report.set("core.learner.find_best_literal_ms", fit.find_best_literal_ms);
    report.set("core.learner.find_best_literal_calls", fit.find_best_literal_calls as f64);
    report.set("core.propagation.apply_literal_ms", fit.apply_literal_ms);
    report.set("core.search.literals_considered", fit.literals_considered as f64);
    report.set("core.propagation.ids_propagated", fit.ids_propagated as f64);
    report.set("core.stats.hit_rate", fit.stats_hit_rate);
    report.set("core.stats.bytes", fit.stats_peak_bytes as f64);

    let passes = predict_passes(p, budget, report);
    report.set_n("core.predict_ms", median(&passes) * 1e3, passes.len());
    let mut scratch = ServeScratch::new();
    let mut all = Vec::new();
    let times =
        timed_reps(budget, 3, || all = evaluate_batch(&p.plan, &p.db, &p.rows, &mut scratch));
    check_labels(report, "evaluate_batch all rows", &all, &p.reference);
    report.set_n("serve.eval.all_ms", median(&times) * 1e3, times.len());

    let before = p.disk.stats();
    let got = predict_disk(&p.plan, &mut p.disk, &p.rows).map_err(|e| format!("{e:?}"))?;
    check_labels(report, "predict_disk", &got, &p.reference);
    let after = p.disk.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.set("storage.pool_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    report.set("storage.pool_misses", misses as f64);

    for (k, name) in [(1, "serve.eval.b1_us"), (8, "serve.eval.b8_us"), (64, "serve.eval.b64_us")] {
        let sets = row_sets(&p.rows, k, 512, seed ^ k as u64);
        let calls = eval_calls(p, &sets, 0, budget, 50, report);
        report.set_n(name, median(&calls), calls.len());
    }

    // Propagation work per scored row at batch 1, from the evaluator's own
    // counters.
    let obs = ObsHandle::enabled();
    let mut counted = ServeScratch::with_obs(obs.clone());
    for set in row_sets(&p.rows, 1, 64, seed ^ 0xb1) {
        std::hint::black_box(evaluate_batch(&p.plan, &p.db, &set, &mut counted));
    }
    let counters = obs.registry().map(|r| r.counter_values()).unwrap_or_default();
    let counter = |name: &str| counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
    report.set(
        "core.propagation.ids_per_scored_row",
        counter("propagation.ids_propagated") as f64 / counter("serve.rows_scored").max(1) as f64,
    );

    // Overlay evaluation at batch 1 against the materialized merge.
    let overlay = DeltaOverlay::build(&p.db, delta).map_err(|e| e.to_string())?;
    let mut merged = Database::clone(&p.db);
    merged.apply_delta(delta).map_err(|e| e.to_string())?;
    let merged_ref = p.model.predict(&merged, &p.rows).map_err(|e| e.to_string())?;
    let sets = row_sets(&p.rows, 1, 512, seed ^ 0x0e);
    let mut oscratch = OverlayScratch::new();
    let mut wrong = 0usize;
    let mut i = 0;
    let times = timed_reps(budget, 50, || {
        let set = &sets[i % sets.len()];
        i += 1;
        let labels = evaluate_batch_overlay(&p.plan, &p.db, &overlay, set, &mut oscratch);
        wrong += usize::from(labels[0] != merged_ref[set[0].0 as usize]);
    });
    report.check(wrong == 0, || format!("overlay b1: {wrong} labels differ from the merge"));
    report.set_n("serve.overlay.b1_us", median(&times) * 1e6, times.len());
    let applies = apply_delta_times(p, delta, budget, report);
    report.set_n("relational.apply_delta_ms", median(&applies), applies.len());
    Ok(())
}
