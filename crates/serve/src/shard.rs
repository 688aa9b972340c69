//! Sharded serving: a [`ShardRouter`] hash-partitions the target relation
//! across N independent [`PredictionServer`] shards.
//!
//! Each shard is a full server in miniature — its own admission queue,
//! worker pool, scratch buffers, metrics aggregate, and (crucially) its
//! own [`ModelRegistry`] slot. Shards share the immutable base
//! [`Database`] and the delta overlay slot by `Arc`, and nothing else: no
//! queue lock, no counter, no scratch crosses a shard boundary, so shards
//! scale without coordination and a fault (a chaos panic, a poisoned
//! queue) stays inside the shard it happened on. Workers only read the
//! overlay slot, once per batch.
//!
//! **Routing** is a fixed multiplicative hash of the target row id
//! ([`shard_of_row`]): deterministic across processes and restarts, so a
//! caller can precompute placement, and stable under load (no rebalancing
//! — the target relation is immutable; delta-inserted target rows hash
//! the same way). [`ServeRequest::shard_hint`] pins a whole request to
//! one shard when the caller knows better.
//!
//! **Hot swaps** become *rolling*: because every shard has its own
//! registry slot, [`ShardRouter::rolling_install`] walks the shards one
//! at a time. Mid-roll, shards legitimately disagree on the epoch —
//! replies carry the epoch that scored them, exactly as with a
//! single-server swap — and serving never pauses: each per-shard install
//! is the same wait-free pointer swap a standalone server does.
//!
//! ```text
//!                 rolling_install(plan)
//!     shard 0: epoch e ──swap──► e+1 │ serving throughout
//!     shard 1: epoch e ───────swap──► e+1 │ serving throughout
//!     shard 2: epoch e ──────────────swap──► e+1 │ serving throughout
//!               ▲ requests keep flowing; replies say which epoch
//! ```
//!
//! **Deltas** are validated once: [`ShardRouter::apply_delta`] extends
//! the one overlay every shard reads, so any shard can answer any row
//! (provenance included) against base + all accepted deltas, and shards
//! 2..N do no delta work at all.
//!
//! The router's wire front end and telemetry endpoint are singletons that
//! fan out: one TCP port routes rows to shard queues through the same
//! all-or-nothing batch contract as the single-server backend, and one
//! `/metrics` page renders aggregate `crossmine_serve_*` series plus
//! per-shard `crossmine_shard_<k>_*` counters and epoch gauges.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossmine_net::{Backend, BatchReply, NetListener, NetMetrics, Waker, WireReject};
use crossmine_obs::{Profiler, TraceCtx};
use crossmine_relational::{Database, DeltaBatch, DeltaOverlay, Row};

use crate::error::ServeError;
use crate::metrics::MetricsSnapshot;
use crate::net::{poll_pending, reject_for, ServePending};
use crate::plan::CompiledPlan;
use crate::registry::ModelRegistry;
use crate::request::ServeRequest;
use crate::server::{
    admit_all, validate_config, Admitter, DeltaStats, ExplainedPrediction, OverlaySlot, Prediction,
    PredictionHandle, PredictionServer, ServerConfig,
};
use crate::telemetry::{ShardTelemetry, TelemetryHandle, TelemetryShared};

/// How a [`ShardRouter`] partitions the target relation. Carried on
/// [`ServerConfig::shard`]; the default (`shards: 1`) means unsharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards. Each shard gets its own full worker pool and
    /// queue (so total workers = `workers × shards`).
    /// Must be in `1..=`[`MAX_SHARDS`](crate::server::MAX_SHARDS).
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1 }
    }
}

/// The fixed routing hash: Fibonacci multiplicative hashing on the target
/// row id, high bits folded modulo the shard count. Deterministic across
/// processes — a caller can precompute a row's shard — and unrelated to
/// the row id's low bits, so striped or clustered id ranges still spread.
pub fn shard_of_row(row: Row, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let h = u64::from(row.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// One shard's view at a point in time, from [`ShardRouter::stats`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Which shard (0-based, stable for the router's lifetime).
    pub shard: u32,
    /// The shard's serving metrics (requests, shed, errors, latency, and
    /// the shard's own swap count).
    pub snapshot: MetricsSnapshot,
    /// The model epoch the shard is currently serving.
    pub epoch: u64,
}

/// Per-shard stats plus cross-shard aggregates, from
/// [`ShardRouter::stats`] / [`ShardRouter::shutdown`].
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl RouterStats {
    /// Requests admitted across all shards.
    pub fn total_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshot.requests).sum()
    }

    /// Requests shed across all shards.
    pub fn total_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshot.shed).sum()
    }

    /// Reply errors across all shards (dropped handles, worker panics).
    pub fn total_errors(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshot.errors).sum()
    }

    /// Deadline expiries across all shards.
    pub fn total_deadline_expired(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshot.deadline_expired).sum()
    }

    /// Worker restarts across all shards.
    pub fn total_worker_restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.snapshot.worker_restarts).sum()
    }

    /// The oldest epoch any shard is serving — during a rolling install
    /// this lags the newest until the roll completes.
    pub fn min_epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch).min().unwrap_or(0)
    }

    /// The newest epoch any shard is serving.
    pub fn max_epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch).max().unwrap_or(0)
    }
}

/// The router's admission front: routes each row of a request to its
/// shard's queue, all-or-nothing across shards. Shared by in-process
/// [`ShardRouter::serve`] and, as a [`Backend`], the wire front end,
/// whose reply resolution is the single-server
/// [`ServeBackend`](crate::net::ServeBackend)'s ([`poll_pending`]).
struct RouterBackend {
    admitters: Vec<Admitter>,
    /// Publishes a `shard.route` frame while hashing rows to shards, so
    /// router fan-out cost shows up in wall samples of the calling thread.
    profiler: Profiler,
}

impl RouterBackend {
    /// Admits every row to its shard (or all to `hint`) or none of them,
    /// through [`admit_all`] with the shards in index order. Handles come
    /// back one per row in request order.
    fn admit(
        &self,
        rows: &[Row],
        hint: Option<usize>,
        deadline: Option<Instant>,
        trace: Option<&TraceCtx>,
        waker: Option<&Waker>,
    ) -> Result<Vec<PredictionHandle>, ServeError> {
        let _route = self.profiler.enter("shard.route");
        let n = self.admitters.len();
        let route: Vec<usize> =
            rows.iter().map(|&row| hint.unwrap_or_else(|| shard_of_row(row, n))).collect();
        let mut by_shard: Vec<Vec<Row>> = vec![Vec::new(); n];
        for (&row, &shard) in rows.iter().zip(&route) {
            by_shard[shard].push(row);
        }
        let parts: Vec<(&Admitter, &[Row])> = self
            .admitters
            .iter()
            .zip(&by_shard)
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(admitter, rows)| (admitter, rows.as_slice()))
            .collect();
        let mut admitted = admit_all(&parts, deadline, trace, waker)?.into_iter();
        let mut per_shard: Vec<_> = by_shard
            .iter()
            .map(|rows| {
                let handles =
                    if rows.is_empty() { Vec::new() } else { admitted.next().unwrap_or_default() };
                handles.into_iter()
            })
            .collect();
        Ok(route.iter().filter_map(|&shard| per_shard[shard].next()).collect())
    }
}

impl Backend for RouterBackend {
    type Pending = ServePending;

    fn submit(
        &self,
        rows: &[Row],
        deadline: Option<Duration>,
        trace: &TraceCtx,
        waker: &Waker,
    ) -> Result<ServePending, WireReject> {
        let deadline = deadline.map(|d| Instant::now() + d);
        self.admit(rows, None, deadline, Some(trace), Some(waker))
            .map(ServePending::from_handles)
            .map_err(|e| reject_for(&e))
    }

    fn poll(&self, pending: &mut ServePending) -> Option<Result<BatchReply, WireReject>> {
        poll_pending(pending)
    }
}

/// N [`PredictionServer`] shards sharing one delta overlay behind one
/// routing front.
///
/// Start with [`ShardRouter::start`]; submit with the same
/// [`ServeRequest`] a single server takes. Replies preserve per-row
/// order: `serve(req)` returns one handle per row, in request order, no
/// matter how the rows scattered across shards.
pub struct ShardRouter {
    db: Arc<Database>,
    shards: Vec<PredictionServer>,
    /// Routes in-process and wire requests alike.
    router: Arc<RouterBackend>,
    net: Option<NetListener>,
    telemetry: Option<TelemetryHandle>,
    /// Router-level mirror of the shards' admission state for `/healthz`.
    admission_closed: Arc<AtomicBool>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .field("net", &self.net.as_ref().map(|n| n.local_addr()))
            .finish()
    }
}

impl ShardRouter {
    /// Starts `config.shard.shards` shards over `db`, each with its own
    /// registry slot initially holding `plan`, all reading one delta
    /// overlay.
    ///
    /// The router owns the optional wire front end and telemetry endpoint
    /// (`config.net` / `config.telemetry_addr`); the shards themselves
    /// bind nothing. Everything else in `config` (workers, batching,
    /// queue capacity, chaos, obs, tracer) applies *per shard*.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] on out-of-range fields (the
    /// [`ServerConfig::builder`] checks) or an unbindable address.
    pub fn start(
        db: Arc<Database>,
        plan: &CompiledPlan,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        validate_config(&config)?;
        let n = config.shard.shards;
        let admission_closed = Arc::new(AtomicBool::new(false));
        let overlay = Arc::new(OverlaySlot::default());
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            let registry = Arc::new(ModelRegistry::new(plan.clone()));
            let mut shard_config = config.clone();
            shard_config.shard = ShardConfig { shards: 1 };
            shard_config.shard_id = Some(k as u32);
            shard_config.telemetry_addr = None;
            shard_config.net = None;
            shards.push(PredictionServer::start_with_overlay(
                Arc::clone(&db),
                registry,
                shard_config,
                Arc::clone(&overlay),
            )?);
        }
        let router = Arc::new(RouterBackend {
            admitters: shards.iter().map(|s| s.admitter().clone()).collect(),
            profiler: config.profiler.clone(),
        });
        let net_metrics = config.net.as_ref().map(|_| Arc::new(NetMetrics::default()));
        let telemetry = match config.telemetry_addr {
            Some(addr) => {
                let tshared = Arc::new(TelemetryShared {
                    // The single-server fields are required by shape but
                    // unused for rendering once `shards` is non-empty.
                    metrics: shards[0].metrics_arc(),
                    registry: Arc::clone(shards[0].registry()),
                    obs: config.obs.clone(),
                    admission_closed: Arc::clone(&admission_closed),
                    started: Instant::now(),
                    stop: AtomicBool::new(false),
                    net_metrics: net_metrics.clone(),
                    tracer: config.tracer.clone(),
                    profiler: config.profiler.clone(),
                    shards: shards
                        .iter()
                        .enumerate()
                        .map(|(k, s)| ShardTelemetry {
                            shard: k as u32,
                            metrics: s.metrics_arc(),
                            registry: Arc::clone(s.registry()),
                        })
                        .collect(),
                });
                let handle = TelemetryHandle::start(addr, tshared).map_err(|e| {
                    ServeError::InvalidConfig(format!("cannot bind telemetry_addr {addr}: {e}"))
                })?;
                Some(handle)
            }
            None => None,
        };
        let net = match (&config.net, net_metrics) {
            (Some(net_config), Some(net_metrics)) => {
                let mut net_config = net_config.clone();
                if !net_config.tracer.is_enabled() {
                    net_config.tracer = config.tracer.clone();
                }
                if !net_config.profiler.is_enabled() {
                    net_config.profiler = config.profiler.clone();
                }
                match NetListener::start(
                    net_config.clone(),
                    Arc::clone(&router),
                    config.obs.clone(),
                    net_metrics,
                ) {
                    Ok(listener) => Some(listener),
                    Err(e) => {
                        if let Some(mut t) = telemetry {
                            t.stop();
                        }
                        // The shards Vec is dropped on return; each
                        // shard's Drop drains and joins its workers.
                        return Err(ServeError::InvalidConfig(format!(
                            "cannot bind net addr {}: {e}",
                            net_config.addr
                        )));
                    }
                }
            }
            _ => None,
        };
        Ok(ShardRouter { db, shards, router, net, telemetry, admission_closed })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `row` hash-routes to (absent a
    /// [`ServeRequest::shard_hint`]).
    pub fn shard_of(&self, row: Row) -> usize {
        shard_of_row(row, self.shards.len())
    }

    /// Admits every row of `req` to its shard; never blocks. Handles come
    /// back one per row **in request order** regardless of shard scatter.
    /// A [`ServeRequest::shard_hint`] pins all rows to that shard.
    ///
    /// Admission is all-or-nothing across shards: if any shard refuses
    /// its rows, no shard queues any — one contract, identical to the
    /// single server and the wire front end.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for an out-of-range `shard_hint`;
    /// otherwise the admission errors of [`PredictionServer::serve`].
    pub fn serve(&self, req: ServeRequest) -> Result<Vec<PredictionHandle>, ServeError> {
        let n = self.shards.len();
        if let Some(hint) = req.shard_hint {
            if hint >= n {
                return Err(ServeError::InvalidConfig(format!(
                    "shard_hint = {hint} out of range: router has {n} shards"
                )));
            }
        }
        let deadline = req.deadline.map(|d| Instant::now() + d);
        self.router.admit(&req.rows, req.shard_hint, deadline, req.trace.as_ref(), None)
    }

    /// Synchronous convenience: route one row and wait for its prediction.
    pub fn predict(&self, row: Row) -> Result<Prediction, ServeError> {
        self.shards[self.shard_of(row)].predict(row)
    }

    /// Scores `row` with full provenance on its shard (out-of-band, like
    /// [`PredictionServer::predict_explained`]); the label matches what
    /// [`predict`](Self::predict) returns under the same shard epoch.
    pub fn predict_explained(&self, row: Row) -> Result<ExplainedPrediction, ServeError> {
        self.shards[self.shard_of(row)].predict_explained(row)
    }

    /// [`predict_explained`](Self::predict_explained) for a slice of rows:
    /// rows are grouped per shard (one propagation pass per clause per
    /// shard touched) and the explanations reassembled in input order.
    pub fn explain_batch(&self, rows: &[Row]) -> Result<Vec<ExplainedPrediction>, ServeError> {
        let n = self.shards.len();
        let mut by_shard: Vec<Vec<(usize, Row)>> = vec![Vec::new(); n];
        for (i, &row) in rows.iter().enumerate() {
            by_shard[shard_of_row(row, n)].push((i, row));
        }
        let mut out: Vec<Option<ExplainedPrediction>> = (0..rows.len()).map(|_| None).collect();
        for (shard, group) in by_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard_rows: Vec<Row> = group.iter().map(|&(_, r)| r).collect();
            let explained = self.shards[shard].explain_batch(&shard_rows)?;
            for ((i, _), e) in group.into_iter().zip(explained) {
                out[i] = Some(e);
            }
        }
        Ok(out.into_iter().map(|e| e.expect("every input row explained")).collect())
    }

    /// Validates `batch` once against the shared base plus the accepted
    /// deltas and extends the overlay **every** shard reads, so any shard
    /// answers any row against base + all accepted deltas. A rejected
    /// batch changes nothing on any shard. Same contract and errors as
    /// [`PredictionServer::apply_delta`].
    pub fn apply_delta(&self, batch: &DeltaBatch) -> Result<DeltaStats, ServeError> {
        // The shards share one overlay slot: extending it through the
        // first extends it for all of them.
        let first = self.shards.first().ok_or(ServeError::ShuttingDown)?;
        first.apply_delta(batch)
    }

    /// A snapshot of the overlay every shard reads (see
    /// [`PredictionServer::overlay`]).
    pub fn overlay(&self) -> Option<Arc<DeltaOverlay>> {
        self.shards.first().and_then(PredictionServer::overlay)
    }

    /// Installs `plan` on every shard at once (each install is the usual
    /// wait-free per-shard swap). Returns the new epoch per shard.
    pub fn install(&self, plan: &CompiledPlan) -> Vec<u64> {
        self.shards.iter().map(|s| s.registry().install(plan.clone())).collect()
    }

    /// Rolls `plan` out shard-by-shard: each shard swaps atomically and
    /// keeps serving; shards not yet reached keep serving the old epoch.
    /// Zero downtime — there is no instant at which any shard is not
    /// serving *some* model. Returns the new epoch per shard, in roll
    /// order; replies issued mid-roll carry whichever epoch scored them.
    pub fn rolling_install(&self, plan: &CompiledPlan) -> Vec<u64> {
        let mut epochs = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            epochs.push(shard.registry().install(plan.clone()));
            // Let in-flight batches on the next shard drain naturally;
            // the roll is about staging, not speed.
            std::thread::yield_now();
        }
        epochs
    }

    /// The model epoch each shard currently serves (diverges mid-roll).
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.registry().current_epoch()).collect()
    }

    /// Current per-shard metrics and epochs.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(k, s)| ShardStats {
                    shard: k as u32,
                    snapshot: s.metrics(),
                    epoch: s.registry().current_epoch(),
                })
                .collect(),
        }
    }

    /// The base database the shards share.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The address the router's wire front end bound, when configured.
    pub fn net_addr(&self) -> Option<SocketAddr> {
        self.net.as_ref().map(|n| n.local_addr())
    }

    /// Live wire-front-end counters, when configured.
    pub fn net_metrics(&self) -> Option<Arc<NetMetrics>> {
        self.net.as_ref().map(|n| n.metrics())
    }

    /// The address the router's telemetry endpoint bound, when configured.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry.as_ref().map(|t| t.addr)
    }

    /// Drains and stops every shard (same guarantees as
    /// [`PredictionServer::shutdown`], per shard) and returns the final
    /// per-shard stats. Drain order mirrors the single server: admission
    /// closes everywhere first, the wire front end answers new requests
    /// with 503 while in-flight ones finish, then shards drain, then the
    /// listener and telemetry stop.
    pub fn shutdown(mut self) -> RouterStats {
        self.admission_closed.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.begin_shutdown();
        }
        if let Some(n) = &self.net {
            n.begin_drain();
        }
        let mut stats = Vec::with_capacity(self.shards.len());
        for (k, shard) in self.shards.drain(..).enumerate() {
            let epoch = shard.registry().current_epoch();
            stats.push(ShardStats { shard: k as u32, snapshot: shard.shutdown(), epoch });
        }
        if let Some(n) = self.net.take() {
            n.shutdown();
        }
        if let Some(mut t) = self.telemetry.take() {
            t.stop();
        }
        RouterStats { shards: stats }
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        if !self.shards.is_empty() {
            self.admission_closed.store(true, Ordering::Release);
            for shard in &self.shards {
                shard.begin_shutdown();
            }
            if let Some(n) = &self.net {
                n.begin_drain();
            }
            // Each shard's own Drop drains and joins its workers.
            self.shards.clear();
        }
        if let Some(n) = self.net.take() {
            n.shutdown();
        }
        if let Some(mut t) = self.telemetry.take() {
            t.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7, 64] {
            for id in 0..1000u32 {
                let s = shard_of_row(Row(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_row(Row(id), shards), "stable for same inputs");
            }
        }
    }

    #[test]
    fn routing_spreads_clustered_ids() {
        // Sequential ids (the common target-relation shape) must not pile
        // onto one shard.
        let shards = 4;
        let mut counts = [0usize; 4];
        for id in 0..10_000u32 {
            counts[shard_of_row(Row(id), shards)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!(
                c > 10_000 / shards / 2 && c < 10_000 / shards * 2,
                "shard {k} got {c} of 10000 rows: routing is badly skewed ({counts:?})"
            );
        }
    }
}
