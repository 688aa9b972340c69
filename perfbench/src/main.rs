//! The CrossMine benchmark: one command, two workloads, a correctness
//! oracle on every answer, and a separate traced run for per-layer
//! numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload online|mutable --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run prints a table (metric, value, unit, direction, sample
//! count) and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured with tracing off; with `--trace 1` they
//! are the per-layer ones of `report::PER_LAYER`. Any wrong, refused or
//! missing answer makes the run exit 1; a run that cannot measure (set-up
//! failed, generator fell behind, too few samples for a p99) exits 2
//! without a result line.
//!
//! Every workload reports every end-to-end metric:
//!
//! | metric | `online` | `mutable` |
//! |---|---|---|
//! | `setup_s` | generate, fit, compile, spill, warm, start server, warm wire | same, with a 2-shard router |
//! | `fit_ms`, `holdout_accuracy` | R10.T2000.F3, 80% stratified | R5.T200.F3, 80% stratified |
//! | `score_rows_per_s`, `disk_score_rows_per_s` | core `predict` / `predict_disk`, every target row | same |
//! | `low.p50_us`, `low.p90_us` | wire requests at 250/s | reads at 400/s |
//! | `high.p50_us` | wire requests at 2 000/s | reads at 2 000/s |
//! | `sustained_rps` | top ladder rung with p99 ≤ 100 ms, no backlog growth | same |
//! | `delta_apply_ms` | `PredictionServer::apply_delta` | `ShardRouter::apply_delta` under reads |
//!
//! Wire latencies are timed from each request's due time in an open-loop
//! schedule, so a stall is charged to every request it delays. Beyond
//! the gated percentiles the table also prints `high.p90_us` and both
//! p99s, which this machine's host preemptions make too noisy to gate.
//!
//! An `offline` workload (the same fit and bulk scoring with no server,
//! plus direct `evaluate_batch` calls) was dropped: it measures only
//! CPU-bound work, and this host's speed swings by a third for tens of
//! seconds at a time, beyond any bound a run of it could hold. Its
//! metrics live on in `online` (fit, bulk scoring) and in the traced
//! runs' per-layer probes (`serve.eval.*`, `core.*`).

mod bulk;
mod keepawake;
mod loadgen;
mod mutable;
mod online;
mod report;
mod serving;
mod setup;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per untraced run (unless a workload says otherwise);
/// `setup_s` and `fit_ms` are their medians.
pub const SETUPS: usize = 5;

/// Slices each measurement of a run is cut into, interleaved with the
/// other measurements' slices. The host's speed swings by a fifth or more
/// from one second to the next, so each measurement is spread over many
/// short slices of the whole run rather than a few long ones.
pub const ROUNDS: usize = 16;

/// One run's arguments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    work: PathBuf,
}

impl Ctx {
    fn spill_file(&self, k: usize) -> PathBuf {
        self.work.join(format!("{}-{}-{k}.pages", self.workload, std::process::id()))
    }

    /// A fresh path for set-up `k`'s disk copy.
    pub fn spill_path(&self, k: usize) -> PathBuf {
        let path = self.spill_file(k);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Removes this run's disk copies, and the work directory once empty.
    fn clean(&self) {
        let prefix = format!("{}-{}-", self.workload, std::process::id());
        for entry in std::fs::read_dir(&self.work).into_iter().flatten().flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let _ = std::fs::remove_dir(&self.work);
    }
}

fn parse_args() -> Result<Ctx, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload online|mutable is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Ctx { workload, seed, seconds, trace, work: setup::work_dir()? })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match ctx.workload.as_str() {
        "online" => online::run(&ctx),
        "mutable" => mutable::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    ctx.clean();
    let decls = if ctx.trace { report::PER_LAYER } else { report::END_TO_END };
    match result.and_then(|r| Ok((r.render(&ctx.workload, decls)?, r.failed))) {
        Ok((text, failed)) => {
            println!("{text}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            ExitCode::from(2)
        }
    }
}
