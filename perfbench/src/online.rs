//! `online`: the R10.T2000.F3 model behind one `PredictionServer` with the
//! wire front end on, driven open loop with a 1-row / 8-row mix over one
//! HTTP and one binary connection.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossmine_relational::Database;
use crossmine_serve::{ModelRegistry, NetConfig, PredictionServer, ServerConfig, Tracer};

use crate::bulk::{disk_passes, layer_probes, predict_passes};
use crate::keepawake::KeepAwake;
use crate::loadgen::{Mix, Outcome};
use crate::report::Report;
use crate::serving::{
    keep_all_tracer, record_serving_layers, run_interleaved, verify_against, Phase,
};
use crate::setup::{self, prepare, DeltaGen, Prepared};
use crate::stats::{median, sustained_rung};
use crate::Ctx;

/// Fixed rates, requests per second. At `LOW` requests arrive alone, so
/// each pays the batch linger and the poll sweep; at `HIGH` (about a
/// quarter of capacity) they share micro-batches. Generator and server
/// share two CPUs and saturate between 7 000 and 11 000 requests/s as the
/// host's speed varies, so the ladder's rungs sit at about half and four
/// times that: the top rung that holds is the same from run to run, where
/// a rung near the knee would flip.
const LOW_RPS: f64 = 250.0;
const HIGH_RPS: f64 = 2000.0;
const RUNGS_RPS: [f64; 2] = [4000.0, 32000.0];
/// The p99 latency limit a rung must meet to count as sustained.
const LIMIT_US: f64 = 100_000.0;
/// Delta batches (four inserts, four cell updates each) applied over the
/// run, an equal share in each round; `delta_apply_ms` is their median.
const DELTAS: usize = 128;

fn mix(rate_rps: f64, seconds: f64) -> Mix {
    Mix {
        rate_rps,
        // Long enough for a reportable p99: ten samples beyond it.
        duration: Duration::from_secs_f64(seconds.max(1100.0 / rate_rps)),
        big_share: 0.25,
        big_rows: 8,
    }
}

fn start(p: &Prepared, tracer: Tracer) -> Result<PredictionServer, String> {
    let config = ServerConfig::builder()
        .workers(1)
        .max_batch(64)
        .max_wait(Duration::from_micros(200))
        .queue_capacity(1024)
        .tracer(tracer)
        .net(NetConfig::default())
        .build()
        .map_err(|e| e.to_string())?;
    let registry = Arc::new(ModelRegistry::new(p.plan.clone()));
    PredictionServer::start(Arc::clone(&p.db), registry, config).map_err(|e| e.to_string())
}

fn addr(server: &PredictionServer) -> Result<SocketAddr, String> {
    server.net_addr().ok_or_else(|| "wire front end is off".to_string())
}

/// A short burst over the wire so connections, buffers and the worker are
/// warm; its answers are checked like any other.
fn warm(server: &PredictionServer, p: &Prepared, report: &mut Report) -> Result<(), String> {
    let reference = labels_u32(p);
    let m =
        Mix { rate_rps: 400.0, duration: Duration::from_millis(100), big_share: 0.25, big_rows: 8 };
    for phase in run_interleaved(&[(addr(server)?, m)], 1, &p.row_ids(), 0x3a, 900_000_000)? {
        phase.judge(|_, o| verify_against(&reference, o)).count(report, true);
    }
    Ok(())
}

fn labels_u32(p: &Prepared) -> Vec<u32> {
    p.reference.iter().map(|l| l.0).collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let spec = setup::r10_t2000();
    let mut report = Report::default();
    if ctx.trace {
        return traced(ctx, &spec, report);
    }
    let s = ctx.seconds;
    let mut setups = Vec::new();
    let mut fits = Vec::new();
    let mut live: Option<(Prepared, PredictionServer)> = None;
    for k in 0..crate::SETUPS {
        if let Some((_, server)) = live.take() {
            server.shutdown();
        }
        let t = Instant::now();
        let p = prepare(&spec, &ctx.spill_path(k))?;
        p.warm();
        let server = start(&p, Tracer::noop())?;
        warm(&server, &p, &mut report)?;
        setups.push(t.elapsed().as_secs_f64());
        fits.push(p.fit_ms);
        live = Some((p, server));
    }
    let (mut p, server) = live.ok_or("no set-up ran")?;
    let _awake = KeepAwake::start();
    report.set_n("setup_s", median(&setups), setups.len());
    report.set_n("fit_ms", median(&fits), fits.len());
    report.set("holdout_accuracy", p.holdout_accuracy());
    // Rounds interleave every measurement across the run: bulk scoring,
    // a segment of each fixed-rate phase, and a share of the deltas. The
    // deltas go to a side server that takes no traffic, since a server
    // holding an overlay scores through it and the phases must not. Each
    // round starts a fresh one: a server revalidates its whole delta
    // history on every apply, so with one server for the run the median
    // would be one point on a growing curve; this way every round times
    // the same history sizes.
    let mut side: Option<(PredictionServer, Database)> = None;
    let mut gen = DeltaGen::new(&p.db, ctx.seed)?;
    let reference = labels_u32(&p);
    let pool = p.row_ids();
    let wire = addr(&server)?;
    let rounds = crate::ROUNDS;
    let slice = Duration::from_secs_f64(0.16 * s / rounds as f64);
    let segment = |m: Mix| Mix { duration: m.duration / rounds as u32, ..m };
    let mixes = [(wire, segment(mix(LOW_RPS, 0.4 * s))), (wire, segment(mix(HIGH_RPS, 0.2 * s)))];
    let (mut mem, mut disk, mut applies) = (Vec::new(), Vec::new(), Vec::new());
    let mut fixed: Vec<Phase> = Vec::new();
    for r in 0..rounds {
        mem.extend(predict_passes(&p, slice, &mut report));
        disk.extend(disk_passes(&mut p, slice, &mut report));
        if let Some((old, _)) = side.take() {
            old.shutdown();
        }
        let fresh = start(&p, Tracer::noop())?;
        let mut merged = Database::clone(&p.db);
        for _ in 0..DELTAS / rounds {
            let batch = gen.batch(&p.db, 4, 4);
            let t = Instant::now();
            let applied = fresh.apply_delta(&batch);
            applies.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(applied.is_ok(), || format!("server rejected a delta: {applied:?}"));
            merged.apply_delta(&batch).map_err(|e| e.to_string())?;
        }
        side = Some((fresh, merged));
        let round = run_interleaved(&mixes, 1, &pool, ctx.seed ^ r as u64, r as u64 * 10_000_000)?;
        if fixed.is_empty() {
            fixed = round;
        } else {
            for (phase, more) in fixed.iter_mut().zip(round) {
                phase.segments.extend(more.segments);
            }
        }
    }
    report.set_n("score_rows_per_s", p.rows.len() as f64 / median(&mem), mem.len());
    report.set_n("disk_score_rows_per_s", p.rows.len() as f64 / median(&disk), disk.len());
    report.set_n("delta_apply_ms", median(&applies), applies.len());
    // The last side server, holding its round's deltas, must answer like
    // their materialized merge.
    let (side, merged) = side.ok_or("no round ran")?;
    let merged_ref: Vec<u32> =
        p.model.predict(&merged, &p.rows).map_err(|e| e.to_string())?.iter().map(|l| l.0).collect();
    let m =
        Mix { rate_rps: 200.0, duration: Duration::from_millis(250), big_share: 0.25, big_rows: 8 };
    for phase in run_interleaved(&[(addr(&side)?, m)], 1, &pool, ctx.seed ^ 9, 900_000_000)? {
        phase.judge(|_, o| verify_against(&merged_ref, o)).count(&mut report, true);
    }
    side.shutdown();

    let verify = |_: Instant, o: &Outcome| verify_against(&reference, o);
    let low = fixed[0].judge(verify);
    let high = fixed[1].judge(verify);
    for (j, prefix) in [(&low, "low"), (&high, "high")] {
        j.count(&mut report, true);
        j.record(&mut report, prefix)?;
    }
    let mut rungs = vec![low.rung.clone(), high.rung.clone()];
    for (i, &rate) in RUNGS_RPS.iter().enumerate() {
        let id_base = 100_000_000 * (i as u64 + 1);
        let phases = run_interleaved(
            &[(wire, mix(rate, 0.05 * s))],
            1,
            &pool,
            ctx.seed ^ rate as u64,
            id_base,
        )?;
        let rung = phases[0].judge(verify);
        rung.count(&mut report, false);
        rungs.push(rung.rung);
        wait_idle(&server);
    }
    for r in &rungs {
        eprintln!(
            "online rung {:>6.0} rps: achieved {:>7.1}, p99 {:?} us, backlog growing {}, valid {}",
            r.offered_rps, r.achieved_rps, r.p99_us, r.backlog_growing, r.valid
        );
    }
    let top = sustained_rung(&rungs, LIMIT_US).ok_or("no rung met the p99 limit")?;
    report.set("sustained_rps", top.achieved_rps);

    server.shutdown();
    report.set("peak_rss_mb", setup::peak_rss_mb());
    Ok(report)
}

/// Waits until the server has finished everything queued (a rung above
/// capacity leaves a backlog that must not leak into the next phase).
fn wait_idle(server: &PredictionServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = server.metrics().batches;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = server.metrics().batches;
        if now == last {
            return;
        }
        last = now;
    }
}

/// The traced run: in-process layer probes, then an untraced and a
/// traced server side by side, the low phase alternating between them
/// round by round and the high phase on the traced one.
fn traced(ctx: &Ctx, spec: &setup::ModelSpec, mut report: Report) -> Result<Report, String> {
    let s = ctx.seconds;
    let mut p = prepare(spec, &ctx.spill_path(0))?;
    p.warm();
    let delta = DeltaGen::new(&p.db, ctx.seed)?.batch(&p.db, 4, 4);
    layer_probes(&mut p, &delta, ctx.seed, Duration::from_secs_f64(0.03 * s), &mut report)?;

    let _awake = KeepAwake::start();
    let reference = labels_u32(&p);
    let verify = |_: Instant, o: &Outcome| verify_against(&reference, o);
    let low = mix(LOW_RPS, 0.3 * s);
    let high = mix(HIGH_RPS, 0.2 * s);
    let expected = (LOW_RPS * low.duration.as_secs_f64() + HIGH_RPS * high.duration.as_secs_f64())
        as usize
        + 200;
    let tracer = keep_all_tracer(expected);
    let plain_server = start(&p, Tracer::noop())?;
    let server = start(&p, tracer.clone())?;
    warm(&plain_server, &p, &mut report)?;
    warm(&server, &p, &mut report)?;
    let before = server.metrics();
    let phases = run_interleaved(
        &[(addr(&plain_server)?, low), (addr(&server)?, low), (addr(&server)?, high)],
        crate::ROUNDS,
        &p.row_ids(),
        ctx.seed,
        0,
    )?;
    let after = server.metrics();
    let judged: Vec<_> = phases.iter().map(|ph| ph.judge(verify)).collect();
    for j in &judged {
        j.count(&mut report, true);
    }
    let t = Instant::now();
    server.registry().install(p.plan.clone());
    report.set("serve.shard.install_ms", t.elapsed().as_secs_f64() * 1e3);
    report.set("serve.shard.max_over_mean_requests", 1.0);
    let wire = server.net_metrics().map(|m| m.snapshot());
    plain_server.shutdown();
    server.shutdown();

    record_serving_layers(
        &mut report,
        (&phases[0], &judged[0]),
        (&phases[1], &judged[1]),
        &tracer.recent(usize::MAX),
        (after.requests - before.requests) as f64 / (after.batches - before.batches).max(1) as f64,
        after.shed,
        wire.map_or(0, |w| w.wire_errors),
    );
    Ok(report)
}
