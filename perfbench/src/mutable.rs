//! `mutable`: the pinned R5.T200.F3 database behind a 2-shard
//! `ShardRouter` (one worker per shard) with the wire on. One-row reads
//! run open loop while a writer applies a delta every [`CADENCE`] and
//! rolls the model out once mid-run. Every reply must match the
//! materialized merge just before or just after some concurrent delta.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossmine_relational::{Database, DeltaBatch};
use crossmine_serve::{CompiledPlan, NetConfig, ServerConfig, ShardRouter, Tracer};

use crate::bulk::{disk_passes, layer_probes, predict_passes};
use crate::keepawake::KeepAwake;
use crate::loadgen::{Mix, Outcome};
use crate::report::Report;
use crate::serving::{self, keep_all_tracer, record_serving_layers, run_interleaved, Phase};
use crate::setup::{self, prepare, DeltaGen, Prepared};
use crate::stats::{median, sustained_rung};
use crate::Ctx;

const SHARDS: usize = 2;
/// Reads per second: `LOW` is the modest base rate, `HIGH` and the ladder
/// rungs load the router harder while the writer keeps going. Reads
/// saturate between 35 000 and 48 000/s as the host's speed varies; the
/// rungs sit well below and above that knee, so the top rung that holds
/// does not flip from run to run.
const LOW_RPS: f64 = 400.0;
const HIGH_RPS: f64 = 2000.0;
const RUNGS_RPS: [f64; 2] = [12000.0, 96000.0];
const LIMIT_US: f64 = 100_000.0;
/// Set-ups per untraced run: each takes a third of a second here, and
/// the fit they time is short enough to need more samples.
const SETUPS: usize = 11;
/// One delta batch (two inserts, two cell updates) every this often.
const CADENCE: Duration = Duration::from_millis(100);

fn mix(rate_rps: f64, seconds: f64) -> Mix {
    Mix {
        rate_rps,
        duration: Duration::from_secs_f64(seconds.max(1100.0 / rate_rps)),
        big_share: 0.0,
        big_rows: 1,
    }
}

fn start(p: &Prepared, tracer: Tracer) -> Result<ShardRouter, String> {
    let config = ServerConfig::builder()
        .workers(1)
        .shards(SHARDS)
        .max_batch(64)
        .max_wait(Duration::from_micros(200))
        .queue_capacity(1024)
        .tracer(tracer)
        .net(NetConfig::default())
        .build()
        .map_err(|e| e.to_string())?;
    ShardRouter::start(Arc::clone(&p.db), &p.plan, config).map_err(|e| e.to_string())
}

fn addr(router: &ShardRouter) -> Result<std::net::SocketAddr, String> {
    router.net_addr().ok_or_else(|| "wire front end is off".to_string())
}

/// The oracle: delta batches and, for each prefix of them, the reference
/// labels of every base target row on the materialized merge.
struct History {
    deltas: Vec<DeltaBatch>,
    /// `snapshots[k]`: labels after the first `k` deltas.
    snapshots: Vec<Vec<u32>>,
}

impl History {
    fn build(p: &Prepared, count: usize, seed: u64) -> Result<History, String> {
        let mut gen = DeltaGen::new(&p.db, seed)?;
        let mut merged = Database::clone(&p.db);
        let mut deltas = Vec::with_capacity(count);
        let mut snapshots = vec![p.reference.iter().map(|l| l.0).collect()];
        for _ in 0..count {
            let batch = gen.batch(&p.db, 2, 2);
            merged.apply_delta(&batch).map_err(|e| e.to_string())?;
            let labels = p.model.predict(&merged, &p.rows).map_err(|e| e.to_string())?;
            snapshots.push(labels.iter().map(|l| l.0).collect());
            deltas.push(batch);
        }
        Ok(History { deltas, snapshots })
    }
}

/// Sleeps until `t` (no-op when it has passed).
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What the writer did to one router while the phases ran.
#[derive(Default)]
struct Writes {
    /// `(started, returned)` of each applied delta, in order.
    applied: Vec<(Instant, Instant)>,
    install_ms: f64,
}

/// Runs `phases` while a writer thread applies `history`'s deltas to
/// every router in `routers`, one batch every [`CADENCE`], and rolls the
/// `plan` out on each once, after `planned / 2`.
fn drive(
    routers: &[&ShardRouter],
    plan: &CompiledPlan,
    history: &History,
    planned: Duration,
    phases: impl FnOnce() -> Result<Vec<Phase>, String>,
) -> Result<(Vec<Phase>, Vec<Writes>), String> {
    let stop = AtomicBool::new(false);
    let writes: Mutex<Vec<Writes>> =
        Mutex::new(routers.iter().map(|_| Writes::default()).collect());
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let origin = Instant::now();
    let phases = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut installed = false;
            for (k, batch) in history.deltas.iter().enumerate() {
                sleep_until(origin + CADENCE * (k as u32 + 1));
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let install = !installed && origin.elapsed() >= planned / 2;
                installed |= install;
                for (i, router) in routers.iter().enumerate() {
                    if install {
                        let t = Instant::now();
                        router.rolling_install(plan);
                        writes.lock().expect("writer log")[i].install_ms =
                            t.elapsed().as_secs_f64() * 1e3;
                    }
                    let a = Instant::now();
                    let applied = router.apply_delta(batch);
                    let b = Instant::now();
                    if let Err(e) = applied {
                        *failure.lock().expect("failure log") =
                            Some(format!("delta {k} rejected: {e}"));
                        return;
                    }
                    writes.lock().expect("writer log")[i].applied.push((a, b));
                }
            }
        });
        let result = phases();
        stop.store(true, Ordering::SeqCst);
        result
    })?;
    if let Some(f) = failure.into_inner().expect("failure log") {
        return Err(f);
    }
    Ok((phases, writes.into_inner().expect("writer log")))
}

/// A reply is right when it matches some snapshot that could have been
/// live while the request was in flight: snapshot `k` is live from the
/// start of delta `k`'s apply until delta `k + 1`'s apply returned.
fn verify(history: &History, writes: &Writes, origin: Instant, o: &Outcome) -> Result<(), String> {
    let (Some(sent), Some(done)) = (o.sent, o.done) else { return Err("no reply".into()) };
    let (sent, done) = (origin + sent, origin + done);
    if o.labels.len() != o.rows.len() {
        return Err(format!("{} labels for {} rows", o.labels.len(), o.rows.len()));
    }
    let applied = &writes.applied;
    let live = (0..=applied.len()).filter(|&k| {
        let from = if k == 0 { None } else { Some(applied[k - 1].0) };
        let until = applied.get(k).map(|w| w.1);
        from.is_none_or(|f| f <= done) && until.is_none_or(|u| u >= sent)
    });
    for k in live {
        let snap = &history.snapshots[k];
        if o.rows.iter().zip(&o.labels).all(|(r, l)| snap[*r as usize] == *l) {
            return Ok(());
        }
    }
    Err(format!("rows {:?} answered {:?}, matching no snapshot live in flight", o.rows, o.labels))
}

/// Deltas for `planned` time of phases, with room for phases overrunning
/// their plan by their drains.
fn deltas_needed(planned: Duration) -> usize {
    (planned.as_secs_f64() / CADENCE.as_secs_f64()).ceil() as usize + 40
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let spec = setup::r5_t200();
    let mut report = Report::default();
    if ctx.trace {
        return traced(ctx, &spec, report);
    }
    let s = ctx.seconds;
    let mut setups = Vec::new();
    let mut fits = Vec::new();
    let mut live: Option<(Prepared, ShardRouter)> = None;
    for k in 0..SETUPS {
        if let Some((_, router)) = live.take() {
            router.shutdown();
        }
        let t = Instant::now();
        let p = prepare(&spec, &ctx.spill_path(k))?;
        p.warm();
        let router = start(&p, Tracer::noop())?;
        warm(&router, &p, &mut report)?;
        setups.push(t.elapsed().as_secs_f64());
        fits.push(p.fit_ms);
        live = Some((p, router));
    }
    let (mut p, router) = live.ok_or("no set-up ran")?;
    let _awake = KeepAwake::start();
    report.set_n("setup_s", median(&setups), setups.len());
    report.set_n("fit_ms", median(&fits), fits.len());
    report.set("holdout_accuracy", p.holdout_accuracy());
    // Bulk scoring gets 16% of the run per path, in one slice per round
    // between the rounds' segments of the fixed-rate phases, so that it
    // and the phases sample the host's speed over the same stretch.
    let slice = Duration::from_secs_f64(0.16 * s / crate::ROUNDS as f64);
    let addr = addr(&router)?;
    let pool = p.row_ids();
    let fixed = [(addr, mix(LOW_RPS, 0.3 * s)), (addr, mix(HIGH_RPS, 0.2 * s))];
    let rungs: Vec<Mix> = RUNGS_RPS.iter().map(|&r| mix(r, 0.05 * s)).collect();
    let planned: Duration = fixed
        .iter()
        .map(|(_, m)| m.duration)
        .chain(rungs.iter().map(|m| m.duration))
        .chain([slice * 2 * crate::ROUNDS as u32])
        .sum();
    let history = History::build(&p, deltas_needed(planned), ctx.seed)?;
    let segments =
        fixed.map(|(a, m)| (a, Mix { duration: m.duration / crate::ROUNDS as u32, ..m }));
    let plan = p.plan.clone();
    let (mut mem, mut disk) = (Vec::new(), Vec::new());
    // When each round's fixed-rate segments ran: the deltas applied then
    // are the ones timed.
    let mut windows: Vec<(Instant, Instant)> = Vec::new();
    let (phases, writes) = drive(&[&router], &plan, &history, planned, || {
        let mut phases: Vec<Phase> = Vec::new();
        for r in 0..crate::ROUNDS {
            mem.extend(predict_passes(&p, slice, &mut report));
            disk.extend(disk_passes(&mut p, slice, &mut report));
            let from = Instant::now();
            let round =
                run_interleaved(&segments, 1, &pool, ctx.seed ^ r as u64, r as u64 * 10_000_000)?;
            windows.push((from, Instant::now()));
            if phases.is_empty() {
                phases = round;
            } else {
                for (phase, more) in phases.iter_mut().zip(round) {
                    phase.segments.extend(more.segments);
                }
            }
        }
        for (i, m) in rungs.iter().enumerate() {
            let id_base = 100_000_000 * (i as u64 + 1);
            phases.extend(run_interleaved(
                &[(addr, *m)],
                1,
                &pool,
                ctx.seed ^ m.rate_rps as u64,
                id_base,
            )?);
        }
        Ok(phases)
    })?;
    router.shutdown();
    report.set_n("score_rows_per_s", p.rows.len() as f64 / median(&mem), mem.len());
    report.set_n("disk_score_rows_per_s", p.rows.len() as f64 / median(&disk), disk.len());

    let judged: Vec<_> = phases
        .iter()
        .map(|ph| ph.judge(|origin, o| verify(&history, &writes[0], origin, o)))
        .collect();
    for (i, j) in judged.iter().enumerate() {
        j.count(&mut report, i < fixed.len());
    }
    judged[0].record(&mut report, "low")?;
    judged[1].record(&mut report, "high")?;
    let rungs: Vec<_> = judged.iter().map(|j| j.rung.clone()).collect();
    for r in &rungs {
        eprintln!(
            "mutable rung {:>6.0} rps: achieved {:>7.1}, p99 {:?} us, backlog growing {}, valid {}",
            r.offered_rps, r.achieved_rps, r.p99_us, r.backlog_growing, r.valid
        );
    }
    let top = sustained_rung(&rungs, LIMIT_US).ok_or("no rung met the p99 limit")?;
    report.set("sustained_rps", top.achieved_rps);
    // Deltas applied beside the fixed-rate phases only: on the ladder's
    // top rung the CPUs are saturated and an apply measures the backlog,
    // and between segments no reads run beside it.
    let applies: Vec<f64> = writes[0]
        .applied
        .iter()
        .filter(|(a, _)| windows.iter().any(|(from, to)| from <= a && a < to))
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
        .collect();
    if applies.is_empty() {
        return Err("the writer applied no delta".into());
    }
    report.set_n("delta_apply_ms", median(&applies), applies.len());
    report.set("peak_rss_mb", setup::peak_rss_mb());
    Ok(report)
}

fn warm(router: &ShardRouter, p: &Prepared, report: &mut Report) -> Result<(), String> {
    let reference: Vec<u32> = p.reference.iter().map(|l| l.0).collect();
    let m =
        Mix { rate_rps: 1000.0, duration: Duration::from_millis(100), big_share: 0.0, big_rows: 1 };
    for phase in run_interleaved(&[(addr(router)?, m)], 1, &p.row_ids(), 0x3a, 900_000_000)? {
        phase.judge(|_, o| serving::verify_against(&reference, o)).count(report, true);
    }
    Ok(())
}

/// The traced run: layer probes, then an untraced and a traced router
/// side by side under the same writer, the low phase alternating between
/// them round by round and the high phase on the traced one.
fn traced(ctx: &Ctx, spec: &setup::ModelSpec, mut report: Report) -> Result<Report, String> {
    let s = ctx.seconds;
    let mut p = prepare(spec, &ctx.spill_path(0))?;
    p.warm();
    let delta = DeltaGen::new(&p.db, ctx.seed)?.batch(&p.db, 2, 2);
    layer_probes(&mut p, &delta, ctx.seed, Duration::from_secs_f64(0.03 * s), &mut report)?;

    let _awake = KeepAwake::start();
    let low = mix(LOW_RPS, 0.3 * s);
    let high = mix(HIGH_RPS, 0.2 * s);
    let planned = low.duration * 2 + high.duration;
    let history = History::build(&p, deltas_needed(planned), ctx.seed)?;
    let expected = (LOW_RPS * low.duration.as_secs_f64() + HIGH_RPS * high.duration.as_secs_f64())
        as usize
        + 200;
    let tracer = keep_all_tracer(expected);
    let plain_router = start(&p, Tracer::noop())?;
    let router = start(&p, tracer.clone())?;
    warm(&plain_router, &p, &mut report)?;
    warm(&router, &p, &mut report)?;
    let before = router.stats();
    let mixes = [(addr(&plain_router)?, low), (addr(&router)?, low), (addr(&router)?, high)];
    let pool = p.row_ids();
    let (phases, writes) = drive(&[&plain_router, &router], &p.plan, &history, planned, || {
        run_interleaved(&mixes, crate::ROUNDS, &pool, ctx.seed, 0)
    })?;
    let wire = router.net_metrics().map(|m| m.snapshot());
    plain_router.shutdown();
    let after = router.shutdown();
    // Phase 0 ran on the untraced router (writes[0]), the rest on the
    // traced one (writes[1]).
    let judged: Vec<_> = phases
        .iter()
        .enumerate()
        .map(|(i, ph)| {
            let w = &writes[usize::from(i > 0)];
            ph.judge(|origin, o| verify(&history, w, origin, o))
        })
        .collect();
    for j in &judged {
        j.count(&mut report, true);
    }
    report.set("serve.shard.install_ms", writes[1].install_ms);
    let per_shard: Vec<f64> = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| (a.snapshot.requests - b.snapshot.requests) as f64)
        .collect();
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    report.set("serve.shard.max_over_mean_requests", max / mean.max(1e-9));
    let total = |stats: &crossmine_serve::RouterStats,
                 f: fn(&crossmine_serve::MetricsSnapshot) -> u64| {
        stats.shards.iter().map(|s| f(&s.snapshot)).sum::<u64>()
    };
    let rows = total(&after, |m| m.requests) - total(&before, |m| m.requests);
    let batches = total(&after, |m| m.batches) - total(&before, |m| m.batches);
    record_serving_layers(
        &mut report,
        (&phases[0], &judged[0]),
        (&phases[1], &judged[1]),
        &tracer.recent(usize::MAX),
        rows as f64 / batches.max(1) as f64,
        after.total_shed(),
        wire.map_or(0, |w| w.wire_errors),
    );
    Ok(report)
}
