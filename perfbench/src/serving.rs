//! Driving a serving stack over the wire: fixed-rate phases, the capacity
//! ladder, and the traced run's stage split.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crossmine_obs::{StoredTrace, TraceConfig, Tracer};

use crate::loadgen::{run_phase, schedule, Mix, Outcome, Proto};
use crate::report::Report;
use crate::spans::StageSplit;
use crate::stats::{backlog_growing, fell_behind, p99_or_max, percentile, Latency, Rung};

/// One HTTP and one binary keep-alive connection.
pub const CONNS: [Proto; 2] = [Proto::Http, Proto::Binary];

/// A phase is discarded when half of the generator's sends were later
/// than this.
pub const LAG_LIMIT_US: f64 = 2000.0;

/// How long a connection waits past its last due time for replies.
const DRAIN: Duration = Duration::from_secs(3);

/// One contiguous stretch of a phase's schedule.
pub struct Segment {
    pub origin: Instant,
    pub outcomes: Vec<Outcome>,
}

/// One fixed-rate phase, possibly cut into segments interleaved with
/// other phases.
pub struct Phase {
    pub offered_rps: f64,
    pub segments: Vec<Segment>,
}

/// Runs every mix in `mixes` (each against its own server address) for
/// its duration, cut into `rounds` segments played round-robin (segment 1
/// of each mix, then segment 2, ...), so each phase samples the whole
/// run's drift rather than one stretch of it. Requests are dealt from
/// `pool`; ids stay unique across segments above `id_base`.
pub fn run_interleaved(
    mixes: &[(SocketAddr, Mix)],
    rounds: usize,
    pool: &[u32],
    seed: u64,
    id_base: u64,
) -> Result<Vec<Phase>, String> {
    let mut phases: Vec<Phase> = mixes
        .iter()
        .map(|(_, m)| Phase { offered_rps: m.rate_rps, segments: Vec::new() })
        .collect();
    for r in 0..rounds {
        for (i, (addr, m)) in mixes.iter().enumerate() {
            let k = (i * rounds + r) as u64;
            let seg = Mix { duration: m.duration / rounds as u32, ..*m };
            let seg_seed = seed ^ (k + 1).wrapping_mul(0x9E37_79B9);
            let plan = schedule(seg, CONNS.len(), pool, seg_seed, id_base + k * 1_000_000);
            let (origin, outcomes) =
                run_phase(*addr, &CONNS, &plan, DRAIN).map_err(|e| format!("wire phase: {e}"))?;
            phases[i].segments.push(Segment { origin, outcomes });
        }
    }
    Ok(phases)
}

/// A phase's numbers after every reply was checked.
pub struct Judged {
    pub latency: Latency,
    pub lag_p99_us: f64,
    pub fell_behind: bool,
    /// Replies with wrong labels.
    pub wrong: Vec<String>,
    /// Requests answered with the right labels.
    pub ok: usize,
    /// Requests refused, errored or never answered.
    pub missed: usize,
    pub rung: Rung,
}

impl Phase {
    /// Every outcome with its segment's origin.
    pub fn outcomes(&self) -> impl Iterator<Item = (Instant, &Outcome)> {
        self.segments.iter().flat_map(|s| s.outcomes.iter().map(move |o| (s.origin, o)))
    }

    /// Checks every reply with `verify` (given the segment origin; it
    /// returns why a 200 reply is wrong) and summarizes latency, lag and
    /// backlog.
    pub fn judge(&self, verify: impl Fn(Instant, &Outcome) -> Result<(), String>) -> Judged {
        let mut wrong = Vec::new();
        let (mut ok, mut missed) = (0usize, 0usize);
        for (origin, o) in self.outcomes() {
            if o.status != 200 || o.done.is_none() {
                missed += 1;
                continue;
            }
            match verify(origin, o) {
                Ok(()) => ok += 1,
                Err(why) => wrong.push(format!("request {}: {why}", o.id)),
            }
        }
        let mut busy = 0.0;
        let mut growing = false;
        for seg in &self.segments {
            let mut by_due: Vec<&Outcome> = seg.outcomes.iter().collect();
            by_due.sort_by_key(|o| o.due);
            let in_due_order: Vec<f64> = by_due.iter().map(|o| o.latency_us()).collect();
            growing |= backlog_growing(&in_due_order, 1000.0);
            busy +=
                seg.outcomes.iter().filter_map(|o| o.done).max().unwrap_or_default().as_secs_f64();
        }
        let latency = Latency::of(self.outcomes().map(|(_, o)| o.latency_us()).collect());
        let lags: Vec<f64> = self.outcomes().map(|(_, o)| o.lag_us()).collect();
        let fell = fell_behind(&lags, LAG_LIMIT_US);
        let rung = Rung {
            offered_rps: self.offered_rps,
            achieved_rps: ok as f64 / busy.max(1e-9),
            p99_us: latency.p99,
            backlog_growing: growing,
            valid: !fell,
        };
        Judged {
            latency,
            lag_p99_us: p99_or_max(&lags),
            fell_behind: fell,
            wrong,
            ok,
            missed,
            rung,
        }
    }
}

impl Judged {
    /// Counts this phase's answers into `report`. Wrong labels always
    /// fail; `count_missed` also fails refused and unanswered requests
    /// (fixed-rate phases, which run far below capacity), while ladder
    /// rungs above capacity may miss without failing the run.
    pub fn count(&self, report: &mut Report, count_missed: bool) {
        for why in &self.wrong {
            report.check(false, || why.clone());
        }
        for _ in 0..self.ok {
            report.check(true, String::new);
        }
        if count_missed {
            for _ in 0..self.missed {
                report.check(false, || "request refused, errored or unanswered".into());
            }
        }
    }

    /// Records the phase's latency under `prefix` (see
    /// [`record_latency`]); fails when the generator fell behind, since
    /// such a phase measured the generator.
    pub fn record(&self, report: &mut Report, prefix: &str) -> Result<(), String> {
        if self.fell_behind {
            return Err(format!(
                "{prefix} phase invalid: the generator fell behind (lag p99 {:.0} us)",
                self.lag_p99_us
            ));
        }
        record_latency(report, prefix, &self.latency)
    }
}

/// Records `latency` under `prefix` (`low` or `high`): the p50 of both,
/// and the p90 of `low`, as gated metrics; the remaining percentiles up
/// to p99 in the table only. The host preempts this machine's virtual
/// CPUs for milliseconds at a time, and the more requests are in flight
/// the more of them one preemption delays: past these percentiles the
/// tail measures the host more than the program, and its run-to-run
/// spread exceeds any bound that would still catch a regression.
pub fn record_latency(report: &mut Report, prefix: &str, latency: &Latency) -> Result<(), String> {
    let (Some(p50), Some(p90), Some(p99)) = (latency.p50, latency.p90, latency.p99) else {
        return Err(format!("{prefix}: {} samples cannot support a p99", latency.n));
    };
    if prefix == "low" {
        report.set_n("low.p50_us", p50, latency.n);
        report.set_n("low.p90_us", p90, latency.n);
    } else {
        report.set_n("high.p50_us", p50, latency.n);
        report.info("high.p90_us".into(), p90, "us", latency.n);
    }
    report.info(format!("{prefix}.p99_us"), p99, "us", latency.n);
    Ok(())
}

/// Verifies `o` against reference labels indexed by row id.
pub fn verify_against(reference: &[u32], o: &Outcome) -> Result<(), String> {
    if o.labels.len() != o.rows.len() {
        return Err(format!("{} labels for {} rows", o.labels.len(), o.rows.len()));
    }
    for (row, label) in o.rows.iter().zip(&o.labels) {
        let want = reference[*row as usize];
        if *label != want {
            return Err(format!("row {row}: got {label}, want {want}"));
        }
    }
    Ok(())
}

/// A tracer that keeps every trace of a run of about `expected` requests.
pub fn keep_all_tracer(expected: usize) -> Tracer {
    Tracer::with_config(TraceConfig {
        ring_capacity: expected + expected / 2 + 64,
        window: 1,
        keep_slowest: 1,
        slow_threshold: None,
    })
}

/// The stage split of every answered request of `phase`, joined to its
/// trace by id.
fn split_stages(phase: &Phase, traces: &[StoredTrace]) -> Vec<StageSplit> {
    let by_id: HashMap<u64, &StoredTrace> = traces.iter().map(|t| (t.id.0, t)).collect();
    phase
        .outcomes()
        .filter(|(_, o)| o.status == 200)
        .filter_map(|(_, o)| Some(StageSplit::of(by_id.get(&o.id)?, o.client_ns()?)))
        .collect()
}

/// p50 of `values` (needs ten samples beyond it), or 0 when it has none.
fn p50(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 500).unwrap_or(0.0)
}

/// Records the stage metrics of `splits` and returns the sum of the
/// stage p50s plus the unattributed p50 (µs), for the reconstruction
/// check.
fn record_stages(splits: &[StageSplit], report: &mut Report) -> f64 {
    let col = |f: fn(&StageSplit) -> f64| splits.iter().map(f).collect::<Vec<f64>>();
    let n = splits.len();
    let parse = p50(col(|s| s.parse_us));
    let queue = p50(col(|s| s.queue_wait_us));
    let eval = p50(col(|s| s.eval_us));
    let batch_self = p50(col(|s| s.batch_self_us));
    let write = p50(col(|s| s.write_us));
    let gaps = p50(col(|s| s.request_self_us));
    let unattributed = p50(col(|s| s.unattributed_us));
    report.set_n("net.parse_p50_us", parse, n);
    report.set_n("serve.server.queue_wait_p50_us", queue, n);
    report.set_n("serve.server.queue_wait_p99_us", p99_or_max(&col(|s| s.queue_wait_us)), n);
    report.set_n("serve.server.eval_p50_us", eval, n);
    report.set_n("serve.server.batch_self_p50_us", batch_self, n);
    report.set_n("net.write_p50_us", write, n);
    report.set_n("net.request_self_p50_us", gaps, n);
    report.set_n("net.unattributed_p50_us", unattributed, n);
    parse + queue + eval + batch_self + write + gaps + unattributed
}

/// The serving per-layer metrics shared by the online and mutable traced
/// runs: stage split of the traced low phase, batching, sheds, wire
/// errors, generator lag, tracing overhead (traced low phase against the
/// untraced one) and the reconstruction gap.
pub fn record_serving_layers(
    report: &mut Report,
    (plain, plain_j): (&Phase, &Judged),
    (low, low_j): (&Phase, &Judged),
    traces: &[crossmine_obs::StoredTrace],
    mean_batch_rows: f64,
    shed: u64,
    wire_errors: u64,
) {
    let splits = split_stages(low, traces);
    let stage_sum = record_stages(&splits, report);
    report.set("serve.server.mean_batch_rows", mean_batch_rows);
    report.set("serve.server.shed", shed as f64);
    report.set("net.wire_errors", wire_errors as f64);
    report.set("loadgen.lag_p99_us", low_j.lag_p99_us.max(plain_j.lag_p99_us));
    let plain_p50 = plain_j.latency.p50.unwrap_or(f64::NAN);
    let traced_p50 = low_j.latency.p50.unwrap_or(f64::NAN);
    report.set("obs.trace_overhead_pct", (traced_p50 - plain_p50) / plain_p50 * 100.0);
    // Reconstruction: the stage p50s add up to the untraced client
    // latency (send to reply) within the tracing overhead.
    let plain_client: Vec<f64> = plain
        .outcomes()
        .filter(|(_, o)| o.status == 200)
        .filter_map(|(_, o)| o.client_ns().map(|ns| ns as f64 / 1000.0))
        .collect();
    let plain_client_p50 = p50(plain_client);
    report
        .set("obs.stage_sum_error_pct", (stage_sum - plain_client_p50) / plain_client_p50 * 100.0);
    eprintln!(
        "traced low phase: {} of {} requests matched to traces; stage p50s sum to {stage_sum:.1} us \
         against an untraced client p50 of {plain_client_p50:.1} us",
        splits.len(),
        low.outcomes().count()
    );
}
