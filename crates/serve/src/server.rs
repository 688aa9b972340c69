//! The in-process concurrent prediction server, with admission control.
//!
//! Architecture: a **bounded admission queue** (mutex + condvar) feeding a
//! pool of `std::thread` workers. Each worker **micro-batches**: it takes
//! up to `max_batch` waiting requests and scores them with **one**
//! [`evaluate_batch`] call against **one** [`ModelRegistry`] snapshot. A
//! worker that sat idle for at least `max_wait` before its first request
//! arrived scores what it took at once: requests are arriving further
//! apart than the linger, so waiting would gather nothing. Otherwise it
//! keeps draining until `max_batch` requests are in hand or `max_wait`
//! has elapsed since it started collecting. The
//! snapshot-per-batch discipline is what makes hot swaps safe: a batch is
//! never scored under a mix of models, and responses carry the epoch that
//! scored them.
//!
//! Admission control (the fallible-by-design contract):
//!
//! * **Load shedding** — [`PredictionServer::serve`] never blocks. A
//!   request's rows are queued all together or not at all: when they do
//!   not fit, the whole request is rejected with
//!   [`ServeError::Overloaded`] and its rows counted
//!   (`serve.requests_shed`); clients retry with backoff
//!   (`crossmine-bench::submit_with_retry`).
//! * **Deadlines** — [`ServeRequest::deadline`] carries a per-request
//!   deadline through the queue. Workers check it when they collect a
//!   batch: an expired request is answered with
//!   [`ServeError::DeadlineExceeded`] instead of being scored
//!   (`serve.deadline_exceeded`).
//! * **Worker restarts** — a panic inside the scoring region is caught;
//!   the in-flight batch is answered with [`ServeError::WorkerPanicked`]
//!   and the worker continues with fresh scratch
//!   (`serve.worker_restarts`). A poisoned queue mutex is tolerated the
//!   same way: the queue state is plain data, valid regardless of where a
//!   panic happened.
//! * **Drain-based shutdown** — after [`PredictionServer::shutdown`] new
//!   submissions get [`ServeError::ShuttingDown`], but every request
//!   accepted before is scored (or deadline-expired) and answered.
//!
//! Fault injection ([`ChaosConfig`]) rides the same paths: stalls fill the
//! queue until shedding starts, injected panics exercise the restart path,
//! oversized batches stress the evaluator — all observable through
//! [`MetricsSnapshot`] and the `serve.*` obs counters.
//!
//! **Mutable databases** ride a delta overlay:
//! [`PredictionServer::apply_delta`] validates a
//! [`DeltaBatch`](crossmine_relational::DeltaBatch) against the immutable
//! base snapshot plus the live [`DeltaOverlay`] and extends that overlay,
//! which the workers read through as one merged database — no recompile,
//! no copy of the base, no revalidation of earlier batches, and batches
//! already collected keep the overlay (or its absence) they started with.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossmine_net::{NetConfig, NetListener, NetMetrics, Waker};
use crossmine_obs::{LockTimer, ObsHandle, Profiler, TraceCtx, Tracer, ROOT_SPAN};
use crossmine_relational::{ClassLabel, Database, DeltaBatch, DeltaOverlay, RelationalError, Row};

use crossmine_core::explain::RowExplanation;

use crate::chaos::{ChaosAction, ChaosConfig};
use crate::error::ServeError;
use crate::eval::{
    evaluate_batch, evaluate_batch_overlay, evaluate_batch_overlay_traced, evaluate_batch_traced,
    ServeScratch,
};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::net::ServeBackend;
use crate::registry::ModelRegistry;
use crate::request::ServeRequest;
use crate::shard::ShardConfig;
use crate::telemetry::{TelemetryHandle, TelemetryShared};

/// The delta overlay the workers read once per batch, shared by every
/// shard of a [`ShardRouter`](crate::shard::ShardRouter). Appliers extend
/// it copy-on-write: a batch holding the overlay keeps the snapshot it
/// started with, and no batch ever scores under a torn delta.
#[derive(Debug, Default)]
pub(crate) struct OverlaySlot {
    /// `None` until the first accepted delta.
    live: RwLock<Option<Arc<DeltaOverlay>>>,
    /// Serializes appliers; workers never touch it.
    apply: Mutex<()>,
}

impl OverlaySlot {
    fn read(&self) -> Option<Arc<DeltaOverlay>> {
        self.live.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Validates `batch` against `base` plus the live overlay and extends
    /// the overlay with it: in place when no batch holds the overlay, on a
    /// copy swapped in whole when one does. A rejected batch changes
    /// nothing.
    pub(crate) fn apply(
        &self,
        base: &Database,
        batch: &DeltaBatch,
    ) -> Result<DeltaStats, ServeError> {
        let invalid = |e: RelationalError| ServeError::InvalidDelta(e.to_string());
        let _applier = self.apply.lock().unwrap_or_else(PoisonError::into_inner);
        {
            // `push` validates before it mutates and its mutation cannot
            // fail, so even a poisoned lock guards a whole overlay.
            let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
            if let Some(overlay) = live.as_mut().and_then(Arc::get_mut) {
                overlay.push(base, batch).map_err(invalid)?;
                return Ok(DeltaStats::of(overlay));
            }
        }
        // Absent, or held by an in-flight batch: extend a copy off the
        // lock, so workers never wait for the clone.
        let mut next = match self.read() {
            Some(overlay) => DeltaOverlay::clone(&overlay),
            None => DeltaOverlay::new(base),
        };
        next.push(base, batch).map_err(invalid)?;
        let stats = DeltaStats::of(&next);
        *self.live.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(next));
        Ok(stats)
    }
}

/// Tunables of a [`PredictionServer`] (and, via [`ServerConfig::shard`],
/// of a [`ShardRouter`](crate::shard::ShardRouter)).
///
/// The struct is `#[non_exhaustive]`: outside this crate, construct it
/// with [`ServerConfig::default()`] plus field assignment, or — when
/// validation matters — with the range-checked [`ServerConfig::builder`],
/// which rejects nonsense (zero workers, absurd shard counts) with
/// [`ServeError::InvalidConfig`] instead of letting it reach `start`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Worker threads scoring batches.
    pub workers: usize,
    /// Largest batch one worker scores at once.
    pub max_batch: usize,
    /// How long a worker keeps collecting a batch before it scores. A
    /// worker that sat idle for at least this long before its first
    /// request arrived scores at once instead: requests are then arriving
    /// further apart than the linger, which would gather nothing.
    pub max_wait: Duration,
    /// Admission-queue capacity; a submission whose rows do not all fit
    /// is shed whole with [`ServeError::Overloaded`]. A submission with
    /// more rows than the capacity fits only an empty queue.
    pub queue_capacity: usize,
    /// Observability handle shared by every worker. The default no-op
    /// handle disables all tracing; an enabled handle adds per-batch
    /// `serve.evaluate_batch` spans, serve counters (including
    /// `serve.requests_shed`, `serve.deadline_exceeded`,
    /// `serve.worker_restarts`), and a `serve.queue_wait_us` histogram of
    /// how long requests sat in the admission queue.
    pub obs: ObsHandle,
    /// Fault injection (default: off). See [`ChaosConfig`].
    pub chaos: ChaosConfig,
    /// Address for the live telemetry endpoint (`GET /metrics`,
    /// `/healthz`, `/buildinfo`). `None` (the default) spawns no thread
    /// and binds no socket — telemetry is strictly opt-in and free when
    /// off. Bind to port 0 to let the OS pick; read the actual address
    /// back with [`PredictionServer::telemetry_addr`].
    pub telemetry_addr: Option<SocketAddr>,
    /// The wire front end (`crossmine-net`): one TCP port speaking
    /// HTTP/1.1 (`POST /predict`) and length-prefixed binary frames.
    /// `None` (the default) spawns no poll thread and binds no socket.
    /// Bind `addr` to port 0 to let the OS pick; read the actual address
    /// back with [`PredictionServer::net_addr`].
    pub net: Option<NetConfig>,
    /// Request tracer (default: [`Tracer::noop`], which costs one branch
    /// per request and zero allocations). An enabled tracer gives every
    /// request a causal span tree — wire (`net.sniff`/`net.parse`/
    /// `net.write`) plus `serve.queue_wait`, `serve.batch`, and
    /// `serve.eval` — tail-sampled into a bounded ring readable from
    /// `GET /trace`. The slow-request threshold lives on the tracer's
    /// [`crossmine_obs::TraceConfig`] (`slow_threshold`); build the
    /// tracer with [`Tracer::with_slow_log`] to also get a JSONL
    /// slow-request log. The tracer is shared with the wire front end
    /// unless [`crossmine_net::NetConfig::tracer`] was set explicitly.
    pub tracer: Tracer,
    /// Continuous profiler (default: [`Profiler::noop`], one branch per
    /// call site and zero allocations). An enabled profiler wall-samples
    /// the span stacks of every worker and poll thread into folded-stack
    /// counts (`GET /profile`, `/profile/flamegraph`), attributes
    /// allocations to the innermost active span (`/profile/heap`, when a
    /// [`crossmine_obs::ProfiledAllocator`] is installed), and times the
    /// admission-queue, stats-cache, and registry-swap lock acquisitions
    /// into per-lock wait histograms. Shared with the wire front end
    /// unless [`crossmine_net::NetConfig::profiler`] was set explicitly.
    pub profiler: Profiler,
    /// Sharding (default: one shard, i.e. unsharded). A config with
    /// `shard.shards > 1` starts a [`ShardRouter`](crate::shard::ShardRouter)
    /// — handing it to [`PredictionServer::start`] directly is rejected
    /// with [`ServeError::InvalidConfig`], because a single server cannot
    /// honor a multi-shard contract.
    pub shard: ShardConfig,
    /// Which shard of a router this server is, stamped into `serve.batch`
    /// trace spans and the per-shard telemetry series. `None` for a
    /// standalone server; only the router sets it.
    pub(crate) shard_id: Option<u32>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            obs: ObsHandle::noop(),
            chaos: ChaosConfig::default(),
            telemetry_addr: None,
            net: None,
            tracer: Tracer::noop(),
            profiler: Profiler::noop(),
            shard: ShardConfig::default(),
            shard_id: None,
        }
    }
}

/// Upper bounds the builder (and `start`) enforce. Generous — they exist
/// to catch unit mistakes (milliseconds where a count was meant), not to
/// police reasonable deployments.
const MAX_WORKERS: usize = 512;
const MAX_BATCH_LIMIT: usize = 1 << 20;
const MAX_QUEUE_CAPACITY: usize = 1 << 24;
/// Largest shard count a [`ShardRouter`](crate::shard::ShardRouter)
/// accepts. Shards are separate worker pools on one machine; more
/// than this is certainly a misconfiguration.
pub const MAX_SHARDS: usize = 64;

/// Validation shared by [`ServerConfig::builder`] and
/// [`PredictionServer::start`] / `ShardRouter::start` — a config built by
/// hand (struct update in this crate, field assignment outside) gets the
/// same checks at start time that the builder runs at build time.
pub(crate) fn validate_config(config: &ServerConfig) -> Result<(), ServeError> {
    fn range(name: &str, value: usize, max: usize) -> Result<(), ServeError> {
        if value == 0 || value > max {
            return Err(ServeError::InvalidConfig(format!(
                "{name} = {value} out of range: must be in 1..={max}"
            )));
        }
        Ok(())
    }
    range("workers", config.workers, MAX_WORKERS)?;
    range("max_batch", config.max_batch, MAX_BATCH_LIMIT)?;
    range("queue_capacity", config.queue_capacity, MAX_QUEUE_CAPACITY)?;
    range("shard.shards", config.shard.shards, MAX_SHARDS)?;
    Ok(())
}

/// Range-checked construction for [`ServerConfig`], mirroring
/// `CrossMineParams::builder()`: chain setters, then [`build`] validates
/// everything at once and returns [`ServeError::InvalidConfig`] — never a
/// panic — on out-of-range values.
///
/// [`build`]: ServerConfigBuilder::build
///
/// ```
/// use crossmine_serve::{ServerConfig, ServeError};
/// let config = ServerConfig::builder().workers(4).shards(2).build().unwrap();
/// assert_eq!(config.workers, 4);
/// assert_eq!(config.shard.shards, 2);
/// assert!(matches!(
///     ServerConfig::builder().queue_capacity(0).build(),
///     Err(ServeError::InvalidConfig(_))
/// ));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Worker threads scoring batches (per shard, when sharded).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Largest batch one worker scores at once.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// How long a worker keeps collecting a batch before it scores; a
    /// worker idle for at least this long scores a lone request at once.
    /// See [`ServerConfig::max_wait`].
    pub fn max_wait(mut self, max_wait: Duration) -> Self {
        self.config.max_wait = max_wait;
        self
    }

    /// Admission-queue capacity (per shard, when sharded).
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// Observability handle shared by every worker.
    pub fn obs(mut self, obs: ObsHandle) -> Self {
        self.config.obs = obs;
        self
    }

    /// Fault injection. See [`ChaosConfig`].
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.config.chaos = chaos;
        self
    }

    /// Address for the live telemetry endpoint.
    pub fn telemetry_addr(mut self, addr: SocketAddr) -> Self {
        self.config.telemetry_addr = Some(addr);
        self
    }

    /// The wire front end. See [`ServerConfig::net`].
    pub fn net(mut self, net: NetConfig) -> Self {
        self.config.net = Some(net);
        self
    }

    /// Request tracer. See [`ServerConfig::tracer`].
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.config.tracer = tracer;
        self
    }

    /// Continuous profiler. See [`ServerConfig::profiler`].
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.config.profiler = profiler;
        self
    }

    /// Number of shards
    /// ([`ShardRouter`](crate::shard::ShardRouter)); 1 means unsharded.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shard = ShardConfig { shards };
        self
    }

    /// Validates every field and returns the config.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending field when any
    /// count is zero or above its cap (`workers` ≤ 512, `max_batch` ≤ 2²⁰,
    /// `queue_capacity` ≤ 2²⁴, `shard.shards` ≤ [`MAX_SHARDS`]).
    pub fn build(self) -> Result<ServerConfig, ServeError> {
        validate_config(&self.config)?;
        Ok(self.config)
    }
}

impl ServerConfig {
    /// A range-checked builder starting from [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::default()
    }
}

/// One scored request with full provenance: which clauses fired, which
/// literals matched along which prop-paths, and what the winning clause's
/// training-time accuracy was. Produced by
/// [`PredictionServer::predict_explained`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainedPrediction {
    /// The provenance record; `explanation.label` is the prediction and is
    /// always identical to what [`PredictionServer::predict`] returns for
    /// the same row under the same model.
    pub explanation: RowExplanation,
    /// Epoch of the model snapshot that scored it.
    pub epoch: u64,
}

/// What [`PredictionServer::apply_delta`] installed: the size of the
/// cumulative overlay now live (not just the increment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Rows the overlay adds on top of the base, across all relations.
    pub inserted_rows: usize,
    /// Update ops accepted so far; repeated writes to one cell each count.
    pub updated_cells: usize,
    /// Operations accepted so far, inserts and updates.
    pub ops: usize,
}

impl DeltaStats {
    fn of(overlay: &DeltaOverlay) -> DeltaStats {
        let (inserted_rows, updated_cells) = (overlay.inserted_rows(), overlay.updated_cells());
        // Every insert appends one row and every update counts once.
        DeltaStats { inserted_rows, updated_cells, ops: inserted_rows + updated_cells }
    }
}

/// One scored request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The target row that was scored.
    pub row: Row,
    /// Its predicted class.
    pub label: ClassLabel,
    /// Epoch of the model snapshot that scored it.
    pub epoch: u64,
}

/// A pending reply to an admitted request.
///
/// Obtained from [`PredictionServer::serve`] (one handle per row, in
/// order). Dropping the handle is allowed: the request is still scored
/// and its reply discarded (counted under `errors` in the metrics).
#[derive(Debug)]
pub struct PredictionHandle {
    row: Row,
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl PredictionHandle {
    /// The row this handle is waiting on.
    pub fn row(&self) -> Row {
        self.row
    }

    /// Blocks until the server answers.
    ///
    /// # Errors
    ///
    /// Whatever degradation the server answered with
    /// ([`ServeError::DeadlineExceeded`], [`ServeError::WorkerPanicked`]).
    /// A severed channel (worker thread died outright) also maps to
    /// [`ServeError::WorkerPanicked`] — the caller cannot tell the
    /// difference and should not have to.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(mpsc::RecvError) => Err(ServeError::WorkerPanicked),
        }
    }

    /// Like [`wait`](Self::wait) but gives up after `timeout`, returning
    /// `None` when no reply arrived in time (the request remains in
    /// flight; the reply is discarded when it eventually arrives).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<Prediction, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => Some(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::WorkerPanicked)),
        }
    }

    /// Nonblocking check: `Some` when the server has answered, `None`
    /// while the request is still in flight. This is what lets the net
    /// poll thread multiplex hundreds of in-flight requests without
    /// ever parking on a channel. A severed channel maps to
    /// [`ServeError::WorkerPanicked`], same as [`wait`](Self::wait).
    pub fn try_wait(&self) -> Option<Result<Prediction, ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::WorkerPanicked)),
        }
    }
}

struct Request {
    row: Row,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<Prediction, ServeError>>,
    /// The request's trace context (no-op when tracing is off). Wire
    /// requests carry the trace the connection opened; in-process
    /// submissions get one born at admission.
    trace: TraceCtx,
    /// Who finishes the trace. In-process requests complete when the
    /// worker sends the reply; wire requests complete later, when the
    /// connection's reply bytes reach the socket — the worker only adds
    /// its spans.
    complete_in_worker: bool,
    /// The wire listener's waker, woken once the reply is sent so the
    /// poll thread picks it up at once. `None` for in-process requests.
    waker: Option<Waker>,
}

struct QueueState {
    queue: VecDeque<Request>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    /// Global batch counter driving deterministic chaos schedules.
    chaos_ticks: AtomicU64,
}

/// Locks the queue state, tolerating poison: the state is plain data
/// (a `VecDeque` and a flag), valid no matter where a worker panicked, and
/// the panic itself is handled by the restart path — abandoning the whole
/// server because of a poisoned mutex would turn a survivable fault into
/// an outage.
fn lock_state(shared: &Shared) -> MutexGuard<'_, QueueState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The admission half of the server, split out so the wire front end
/// ([`ServeBackend`]) shares the exact same shedding, metrics, and
/// shutdown behavior as in-process [`PredictionServer::submit`] callers —
/// there is one admission path, not two.
#[derive(Clone)]
pub(crate) struct Admitter {
    shared: Arc<Shared>,
    metrics: Arc<ServeMetrics>,
    obs: ObsHandle,
    tracer: Tracer,
    /// Publishes a `serve.admission` frame while admitting, so wall
    /// samples of the net poll thread attribute time spent here.
    profiler: Profiler,
    /// Times every admission-queue mutex acquisition into the
    /// `serve.queue` wait histogram (no-op when profiling is off).
    queue_timer: LockTimer,
    queue_capacity: usize,
}

impl Admitter {
    /// Enqueues every row of `rows` or none of them; never blocks. See
    /// [`admit_all`], which this is for one queue.
    pub(crate) fn admit_batch(
        &self,
        rows: &[Row],
        deadline: Option<Instant>,
        trace: Option<&TraceCtx>,
        waker: Option<&Waker>,
    ) -> Result<Vec<PredictionHandle>, ServeError> {
        Ok(admit_all(&[(self, rows)], deadline, trace, waker)?.pop().unwrap_or_default())
    }
}

/// Enqueues rows into one or more queues (the shards of a router), each
/// `(admitter, rows)` pair bound for its own queue, all together or not
/// at all; never blocks. The queue locks are taken in slice order, so
/// callers that list shards in index order cannot deadlock. Each queue
/// gets one push and one wakeup, so a worker that scores on wakeup never
/// takes only part of a request. Returns one handle per row, grouped as `parts`.
///
/// A queue refuses its part when admission has closed, or when the part
/// does not fit next to what is queued. A part larger than the whole
/// capacity fits only an empty queue, so no request is refused forever.
///
/// `trace` is a caller-owned context every row rides under; the caller
/// completes it (wire requests, when their reply bytes reach the
/// socket). Without one, each row gets its own trace, born here and
/// completed by the worker that answers it. `waker` is the wire
/// listener's, woken by the worker once the replies are sent.
///
/// # Errors
///
/// * [`ServeError::Overloaded`] — a part did not fit; every row of the
///   call is counted as shed on that queue's server.
/// * [`ServeError::ShuttingDown`] — a queue's server is shutting down.
pub(crate) fn admit_all(
    parts: &[(&Admitter, &[Row])],
    deadline: Option<Instant>,
    trace: Option<&TraceCtx>,
    waker: Option<&Waker>,
) -> Result<Vec<Vec<PredictionHandle>>, ServeError> {
    if parts.iter().all(|(_, rows)| rows.is_empty()) {
        return Ok(parts.iter().map(|_| Vec::new()).collect());
    }
    let _adm = parts[0].0.profiler.enter("serve.admission");
    // Channels and traces are built before any queue lock is taken;
    // `enqueued` is restamped at the push.
    let built = Instant::now();
    let mut requests: Vec<Vec<Request>> = Vec::with_capacity(parts.len());
    let mut handles: Vec<Vec<PredictionHandle>> = Vec::with_capacity(parts.len());
    for &(admitter, rows) in parts {
        let (reqs, hs) = rows
            .iter()
            .map(|&row| {
                let (reply, rx) = mpsc::channel();
                let (trace, complete_in_worker) = match trace {
                    Some(ctx) => (ctx.clone(), false),
                    None => (admitter.tracer.start(0), true),
                };
                let waker = waker.cloned();
                let req = Request {
                    row,
                    enqueued: built,
                    deadline,
                    reply,
                    trace,
                    complete_in_worker,
                    waker,
                };
                (req, PredictionHandle { row, rx })
            })
            .unzip();
        requests.push(reqs);
        handles.push(hs);
    }
    let mut guards: Vec<_> = parts
        .iter()
        .map(|(admitter, _)| admitter.queue_timer.time(|| lock_state(&admitter.shared)))
        .collect();
    let refusal = parts.iter().zip(&guards).find_map(|(&(admitter, rows), st)| {
        let capacity = admitter.queue_capacity;
        if st.shutdown {
            Some((admitter, ServeError::ShuttingDown))
        } else if st.queue.len() + rows.len() > capacity.max(rows.len()) {
            Some((admitter, ServeError::Overloaded { queue_depth: st.queue.len(), capacity }))
        } else {
            None
        }
    });
    if let Some((admitter, err)) = refusal {
        drop(guards);
        if matches!(err, ServeError::Overloaded { .. }) {
            let shed: usize = parts.iter().map(|(_, rows)| rows.len()).sum();
            admitter.metrics.shed.fetch_add(shed as u64, Ordering::Relaxed);
            admitter.obs.add("serve.requests_shed", shed as u64);
        }
        // Refused requests are exactly the traces tail sampling must
        // keep: mark the error, and complete the trace unless its owner
        // (the connection, or the caller) will.
        if let Some(req) = requests.iter().flatten().next() {
            req.trace.mark_error();
            if req.complete_in_worker {
                let _ = req.trace.complete();
            }
        }
        return Err(err);
    }
    let enqueued = Instant::now();
    for ((&(admitter, rows), st), reqs) in parts.iter().zip(&mut guards).zip(requests) {
        st.queue.extend(reqs.into_iter().map(|req| Request { enqueued, ..req }));
        admitter.metrics.requests.fetch_add(rows.len() as u64, Ordering::Relaxed);
        admitter.metrics.queue_depth.record(st.queue.len() as u64);
    }
    drop(guards);
    for (admitter, rows) in parts {
        if !rows.is_empty() {
            admitter.shared.not_empty.notify_one();
        }
    }
    Ok(handles)
}

/// A concurrent, micro-batching, hot-swappable prediction server over one
/// in-memory [`Database`].
pub struct PredictionServer {
    shared: Arc<Shared>,
    registry: Arc<ModelRegistry>,
    metrics: Arc<ServeMetrics>,
    admitter: Admitter,
    config: ServerConfig,
    workers: Vec<JoinHandle<()>>,
    /// The database workers score against; kept so single-row provenance
    /// ([`predict_explained`](Self::predict_explained)) can evaluate
    /// against the same data the batch path uses.
    db: Arc<Database>,
    /// Mirrors `QueueState::shutdown` for lock-free reads by the telemetry
    /// thread (`/healthz` must not contend on the admission mutex).
    admission_closed: Arc<AtomicBool>,
    /// The delta overlay the workers score against (shared by the shards
    /// of a router).
    overlay: Arc<OverlaySlot>,
    telemetry: Option<TelemetryHandle>,
    net: Option<NetListener>,
}

impl std::fmt::Debug for PredictionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionServer")
            .field("workers", &self.workers.len())
            .field("config", &self.config)
            .field("registry", &self.registry)
            .finish()
    }
}

impl PredictionServer {
    /// Starts the worker pool serving `registry`'s current (and future)
    /// models over `db`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when any count is out of range (the
    /// same checks [`ServerConfig::builder`] runs), when `shard.shards`
    /// is more than 1 (use [`ShardRouter`](crate::shard::ShardRouter)),
    /// or when `telemetry_addr` is set but cannot be bound.
    pub fn start(
        db: Arc<Database>,
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        Self::start_with_overlay(db, registry, config, Arc::default())
    }

    /// [`start`](Self::start) with workers reading `overlay`, which the
    /// shards of one router share.
    pub(crate) fn start_with_overlay(
        db: Arc<Database>,
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
        overlay: Arc<OverlaySlot>,
    ) -> Result<Self, ServeError> {
        validate_config(&config)?;
        if config.shard.shards > 1 {
            return Err(ServeError::InvalidConfig(format!(
                "shard.shards = {}: a single PredictionServer is one shard; \
                 use ShardRouter::start for sharded serving",
                config.shard.shards
            )));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), shutdown: false }),
            not_empty: Condvar::new(),
            chaos_ticks: AtomicU64::new(0),
        });
        let metrics = Arc::new(ServeMetrics::new());
        let admission_closed = Arc::new(AtomicBool::new(false));
        let net_metrics = config.net.as_ref().map(|_| Arc::new(NetMetrics::default()));
        let telemetry = match config.telemetry_addr {
            Some(addr) => {
                let tshared = Arc::new(TelemetryShared {
                    metrics: Arc::clone(&metrics),
                    registry: Arc::clone(&registry),
                    obs: config.obs.clone(),
                    admission_closed: Arc::clone(&admission_closed),
                    started: Instant::now(),
                    stop: AtomicBool::new(false),
                    net_metrics: net_metrics.clone(),
                    tracer: config.tracer.clone(),
                    profiler: config.profiler.clone(),
                    shards: Vec::new(),
                });
                let handle = TelemetryHandle::start(addr, tshared).map_err(|e| {
                    ServeError::InvalidConfig(format!("cannot bind telemetry_addr {addr}: {e}"))
                })?;
                Some(handle)
            }
            None => None,
        };
        // Contention attribution for hot swaps: the registry's history
        // mutex is timed into the `registry.swap` wait histogram. Only an
        // enabled profiler pins the once-settable slot, so a later enabled
        // server on the same registry can still claim it.
        if config.profiler.is_enabled() {
            registry.set_lock_timer(config.profiler.lock_timer("registry.swap"));
        }
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let registry = Arc::clone(&registry);
                let metrics = Arc::clone(&metrics);
                let db = Arc::clone(&db);
                let overlay = Arc::clone(&overlay);
                let config = config.clone();
                std::thread::spawn(move || {
                    worker_loop(&shared, &registry, &metrics, &db, &overlay, &config)
                })
            })
            .collect();
        let admitter = Admitter {
            shared: Arc::clone(&shared),
            metrics: Arc::clone(&metrics),
            obs: config.obs.clone(),
            tracer: config.tracer.clone(),
            profiler: config.profiler.clone(),
            queue_timer: config.profiler.lock_timer("serve.queue"),
            queue_capacity: config.queue_capacity,
        };
        let net = match (&config.net, net_metrics) {
            (Some(net_config), Some(net_metrics)) => {
                let backend = Arc::new(ServeBackend::new(admitter.clone()));
                // The wire front end shares the server's tracer so one
                // trace covers conn-sniff through reply-write; an
                // explicitly-set `NetConfig::tracer` wins.
                let mut net_config = net_config.clone();
                if !net_config.tracer.is_enabled() {
                    net_config.tracer = config.tracer.clone();
                }
                // Same sharing for the profiler: the poll thread publishes
                // its span stack into the server's sampler unless the net
                // config brought its own.
                if !net_config.profiler.is_enabled() {
                    net_config.profiler = config.profiler.clone();
                }
                let listener = NetListener::start(
                    net_config.clone(),
                    backend,
                    config.obs.clone(),
                    net_metrics,
                )
                .map_err(|e| {
                    // Unwind the worker pool: with no server value, Drop
                    // will never run, so close admission here.
                    lock_state(&shared).shutdown = true;
                    shared.not_empty.notify_all();
                    ServeError::InvalidConfig(format!(
                        "cannot bind net addr {}: {e}",
                        net_config.addr
                    ))
                })?;
                Some(listener)
            }
            _ => None,
        };
        Ok(PredictionServer {
            shared,
            registry,
            metrics,
            admitter,
            config,
            workers,
            db,
            admission_closed,
            overlay,
            telemetry,
            net,
        })
    }

    /// Admits every row of `req`, in order; never blocks. This is **the**
    /// submission entry point — deadlines, caller-owned traces, and shard
    /// hints all ride the one [`ServeRequest`] builder instead of a
    /// per-combination method. A single server is its only shard, so
    /// [`ServeRequest::shard_hint`] is ignored here (the
    /// [`ShardRouter`](crate::shard::ShardRouter) honors it).
    ///
    /// Admission is all-or-nothing: the rows are queued together in one
    /// push, or the whole call fails and nothing is queued — the same
    /// contract the wire front end's batches get.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Overloaded`] — the rows do not fit in the queue;
    ///   all of them were shed. Back off and retry.
    /// * [`ServeError::ShuttingDown`] — [`shutdown`](Self::shutdown) has
    ///   begun.
    pub fn serve(&self, req: ServeRequest) -> Result<Vec<PredictionHandle>, ServeError> {
        let deadline = req.deadline.map(|d| Instant::now() + d);
        // A caller-owned trace spans all rows; the caller completes it
        // (the workers only add spans), mirroring the wire front end.
        self.admitter.admit_batch(&req.rows, deadline, req.trace.as_ref(), None)
    }

    /// Synchronous convenience: admit one row and wait for the prediction.
    ///
    /// # Errors
    ///
    /// Admission errors from [`serve`](Self::serve) plus whatever the
    /// server answered with (see [`PredictionHandle::wait`]).
    pub fn predict(&self, row: Row) -> Result<Prediction, ServeError> {
        let mut handles = self.admitter.admit_batch(&[row], None, None, None)?;
        handles.pop().expect("one handle per admitted row").wait()
    }

    /// Validates `batch` against the base snapshot merged with every
    /// previously-accepted delta and extends the live overlay with it:
    /// batches collected after this call score against base + all deltas,
    /// batches already in flight keep what they started with. Costs
    /// O(|batch|) — earlier deltas are not revalidated. No plan recompile,
    /// no base copy — the workers read base + overlay as one merged view,
    /// and the result is byte-identical to rebuilding the database with
    /// the rows materialized (the overlay parity suite pins this).
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidDelta`] — validation failed (dangling
    ///   foreign key, duplicate primary key, key-column update, label
    ///   mismatch, ...). Nothing was installed: the workers keep scoring
    ///   against the previous overlay, and the rejected batch is not
    ///   remembered.
    /// * [`ServeError::ShuttingDown`] after
    ///   [`begin_shutdown`](Self::begin_shutdown).
    pub fn apply_delta(&self, batch: &DeltaBatch) -> Result<DeltaStats, ServeError> {
        if self.admission_closed.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let stats = self.overlay.apply(&self.db, batch)?;
        self.config.obs.add("serve.deltas_applied", 1);
        Ok(stats)
    }

    /// A snapshot of the live delta overlay (`None` before the first
    /// accepted delta). Later applies never change a snapshot: they extend
    /// a copy while one is held.
    pub fn overlay(&self) -> Option<Arc<DeltaOverlay>> {
        self.overlay.read()
    }

    /// Scores `row` with full provenance: the predicted label plus every
    /// clause that fired with its matched literals and prop-paths.
    ///
    /// Runs **out-of-band** on the calling thread against the same model
    /// snapshot and database the workers use — provenance needs one
    /// propagation pass per clause (no early exit once the row is
    /// assigned), so it would bloat batch latency if it rode the queue.
    /// The label is always identical to [`predict`](Self::predict)'s for
    /// the same row under the same model epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after
    /// [`begin_shutdown`](Self::begin_shutdown).
    ///
    /// # Panics
    ///
    /// Panics when `row` is outside the target relation — the same
    /// caller-wiring contract as the batch evaluator.
    pub fn predict_explained(&self, row: Row) -> Result<ExplainedPrediction, ServeError> {
        Ok(self.explain_batch(&[row])?.pop().expect("one explanation per input row"))
    }

    /// [`predict_explained`](Self::predict_explained) for a whole slice of
    /// rows at once: one propagation pass per clause covers all of them.
    /// Returns one [`ExplainedPrediction`] per input row, in order.
    pub fn explain_batch(&self, rows: &[Row]) -> Result<Vec<ExplainedPrediction>, ServeError> {
        if self.admission_closed.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let snap = self.registry.snapshot();
        // Same overlay discipline as the batch workers: provenance must
        // see exactly the data the predictions were scored against,
        // including rows/patches a delta added.
        let mut scratch = ServeScratch::with_obs(self.config.obs.clone());
        let explanations = match self.overlay.read() {
            Some(delta) => {
                evaluate_batch_overlay_traced(&snap.plan, &self.db, &delta, rows, &mut scratch)
            }
            None => evaluate_batch_traced(&snap.plan, &self.db, rows, &mut scratch),
        };
        self.config.obs.add("serve.predictions_explained", explanations.len() as u64);
        Ok(explanations
            .into_iter()
            .map(|explanation| ExplainedPrediction { explanation, epoch: snap.epoch })
            .collect())
    }

    /// The registry this server snapshots from (for hot swaps).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The shared admission path, for the shard router's wire backend and
    /// fan-out (one admission path per shard, not per entry point).
    pub(crate) fn admitter(&self) -> &Admitter {
        &self.admitter
    }

    /// The live metrics aggregate, for per-shard telemetry rendering.
    pub(crate) fn metrics_arc(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The address the telemetry endpoint actually bound, when
    /// [`ServerConfig::telemetry_addr`] was set. Useful with port 0.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry.as_ref().map(|t| t.addr)
    }

    /// The address the wire front end actually bound, when
    /// [`ServerConfig::net`] was set. Useful with port 0.
    pub fn net_addr(&self) -> Option<SocketAddr> {
        self.net.as_ref().map(|n| n.local_addr())
    }

    /// Live wire-front-end counters, when [`ServerConfig::net`] was set.
    pub fn net_metrics(&self) -> Option<Arc<NetMetrics>> {
        self.net.as_ref().map(|n| n.metrics())
    }

    /// Current metrics, including the registry's swap count.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self.registry.swap_count())
    }

    /// Stops accepting requests, drains the queue, joins every worker, and
    /// returns the final metrics. Every request accepted before this call
    /// is answered — scored, or deadline-expired with a typed error.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.begin_shutdown();
        // Drain order: the wire front end first answers new predict
        // requests with 503 (admission is closed anyway) while its
        // in-flight requests stay live...
        if let Some(n) = &self.net {
            n.begin_drain();
        }
        // ...the workers then drain the queue, answering everything that
        // was admitted (including requests the listener submitted)...
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // ...and only then does the listener stop: every reply is in
        // hand, so the bounded drain just flushes sockets.
        if let Some(n) = self.net.take() {
            n.shutdown();
        }
        // Stop telemetry only after the drain: an external prober watching
        // `/healthz` sees `shutting-down` for the whole drain window
        // instead of a connection refused.
        if let Some(mut t) = self.telemetry.take() {
            t.stop();
        }
        self.metrics()
    }

    /// Stops admission without consuming the server: subsequent
    /// [`serve`](Self::serve) calls get [`ServeError::ShuttingDown`],
    /// while already-admitted requests are still drained and answered.
    /// Call [`shutdown`](Self::shutdown) afterwards (or drop the server)
    /// to join the workers; use this first when other threads still hold
    /// references and must see admission close before the drain completes.
    pub fn begin_shutdown(&self) {
        let mut st = lock_state(&self.shared);
        st.shutdown = true;
        drop(st);
        // Release pairs with the Acquire load in the telemetry thread so a
        // `/healthz` probe after this call reports `shutting-down`.
        self.admission_closed.store(true, Ordering::Release);
        self.shared.not_empty.notify_all();
    }
}

impl Drop for PredictionServer {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.begin_shutdown();
            if let Some(n) = &self.net {
                n.begin_drain();
            }
            for h in self.workers.drain(..) {
                let _ = h.join();
            }
        }
        if let Some(n) = self.net.take() {
            n.shutdown();
        }
        if let Some(mut t) = self.telemetry.take() {
            t.stop();
        }
    }
}

fn worker_loop(
    shared: &Shared,
    registry: &ModelRegistry,
    metrics: &ServeMetrics,
    db: &Database,
    overlay: &OverlaySlot,
    config: &ServerConfig,
) {
    // Root profile frame held for the thread's whole life: every wall
    // sample of a worker is attributed at least to `serve.worker`, with
    // the wait/batch/eval frames below refining where the time went.
    let _worker_frame = config.profiler.enter("serve.worker");
    // One scratch serves base and overlay batches alike: it re-sizes only
    // when the target cardinality changes, i.e. when an overlay adding
    // target rows lands.
    let mut scratch = ServeScratch::with_obs(config.obs.clone());
    // Cache the histogram handle once per worker so the per-request record
    // is a couple of relaxed atomic adds, never a registry lookup.
    let queue_wait_us = config.obs.histogram("serve.queue_wait_us");
    let mut batch: Vec<Request> = Vec::with_capacity(config.max_batch);
    let mut rows: Vec<Row> = Vec::with_capacity(config.max_batch);
    // The distinct wire listeners this batch answers, woken once its
    // replies are sent.
    let mut wakers: Vec<Waker> = Vec::new();
    loop {
        batch.clear();
        rows.clear();
        {
            let _wait_frame = config.profiler.enter("serve.wait");
            let mut st = lock_state(shared);
            // Wait for the first request (or a fully-drained shutdown).
            let waiting_since = Instant::now();
            let mut lone = false;
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
                lone = waiting_since.elapsed() >= config.max_wait;
            }
            // Micro-batch. A worker that sat idle for at least `max_wait`
            // scores what the wakeup brought at once: requests are
            // arriving further apart than the linger, so waiting it out
            // would gather nothing and only add latency (a request is
            // queued in one push, so none is split). A worker that waited
            // less, or found a backlog, drains until full, shutdown, or
            // the flush deadline: there the linger pays for itself in
            // batching.
            let flush_deadline = Instant::now() + config.max_wait;
            loop {
                while batch.len() < config.max_batch {
                    match st.queue.pop_front() {
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                if lone || batch.len() >= config.max_batch || st.shutdown {
                    break;
                }
                let now = Instant::now();
                if now >= flush_deadline {
                    break;
                }
                let (guard, timeout) = shared
                    .not_empty
                    .wait_timeout(st, flush_deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
                if timeout.timed_out() && st.queue.is_empty() {
                    break;
                }
            }
            // One wakeup per request: rows beyond `max_batch` go to a peer.
            if !st.queue.is_empty() {
                shared.not_empty.notify_one();
            }
        }
        for waker in batch.iter().filter_map(|req| req.waker.as_ref()) {
            if !wakers.iter().any(|w| w.same_as(waker)) {
                wakers.push(waker.clone());
            }
        }

        // Expire requests whose deadline passed while they queued: they are
        // answered (drain guarantee) but not scored. `collected` is also
        // where every surviving request's `serve.queue_wait` span ends.
        let collected = Instant::now();
        let now = collected;
        batch.retain(|req| match req.deadline {
            Some(d) if now >= d => {
                metrics.deadline_expired.fetch_add(1, Ordering::Relaxed);
                config.obs.add("serve.deadline_exceeded", 1);
                let waited = now.duration_since(req.enqueued);
                if req.trace.is_active() {
                    req.trace.add_span("serve.queue_wait", ROOT_SPAN, req.enqueued, now);
                }
                req.trace.mark_error();
                if req.complete_in_worker {
                    let _ = req.trace.complete();
                }
                let _ = req.reply.send(Err(ServeError::DeadlineExceeded { waited }));
                false
            }
            _ => true,
        });
        if batch.is_empty() {
            wake_listeners(&mut wakers);
            continue;
        }

        // One registry snapshot and one overlay read score the whole
        // batch: no torn reads, and a concurrent install or apply_delta
        // affects only later batches.
        let snap = registry.snapshot();
        let delta = overlay.read();
        // Queue wait ends here: the batch is collected and about to score;
        // the remaining latency is evaluation + reply delivery. Spans are
        // stamped once per distinct trace: the N rows of one wire batch
        // share the connection's trace and would otherwise each add an
        // identical copy.
        let mut stamped: Vec<&TraceCtx> = Vec::new();
        for req in &batch {
            if let Some(h) = &queue_wait_us {
                h.record(req.enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            }
            if req.trace.is_active() && !stamped.iter().any(|t| t.same_trace(&req.trace)) {
                req.trace.add_span("serve.queue_wait", ROOT_SPAN, req.enqueued, collected);
                stamped.push(&req.trace);
            }
        }
        rows.extend(batch.iter().map(|r| r.row));

        let chaos = config
            .chaos
            .is_active()
            .then(|| config.chaos.action(shared.chaos_ticks.fetch_add(1, Ordering::Relaxed)))
            .flatten();
        if let Some(ChaosAction::Stall(d)) = chaos {
            std::thread::sleep(d);
        }
        let oversize = match chaos {
            Some(ChaosAction::Oversize(f)) => f,
            _ => 1,
        };
        if oversize > 1 {
            let n = rows.len();
            for _ in 1..oversize {
                rows.extend_from_within(..n);
            }
        }

        // The scoring region: the one place arbitrary model/data bugs (and
        // injected chaos panics) can fire. A panic here must cost exactly
        // one batch, not the server.
        let _batch_frame = config.profiler.enter("serve.batch");
        let eval_start = Instant::now();
        let eval_frame = config.profiler.enter("serve.eval");
        let scored = catch_unwind(AssertUnwindSafe(|| {
            if let Some(ChaosAction::Panic) = chaos {
                panic!("chaos: injected worker panic");
            }
            match &delta {
                Some(d) => evaluate_batch_overlay(&snap.plan, db, d, &rows, &mut scratch),
                None => evaluate_batch(&snap.plan, db, &rows, &mut scratch),
            }
        }));
        drop(eval_frame);
        let eval_end = Instant::now();
        match scored {
            Ok(labels) => {
                // `seq` links the N request traces this batch scored: each
                // trace carries its own `serve.batch` span, but they share
                // the sequence number and size.
                let seq = metrics.batches.fetch_add(1, Ordering::Relaxed);
                let size = batch.len() as u64;
                metrics.batch_size.record(size);
                // Same once-per-distinct-trace discipline as queue_wait:
                // one `serve.batch` + `serve.eval` pair per trace per
                // micro-batch (a wire trace split across micro-batches
                // legitimately gets one pair from each).
                let mut stamped: Vec<&TraceCtx> = Vec::new();
                for req in &batch {
                    if req.trace.is_active() && !stamped.iter().any(|t| t.same_trace(&req.trace)) {
                        // Sharded servers stamp their shard id so a trace
                        // read from the router's endpoint says which
                        // shared-nothing pool scored each batch.
                        let bspan = match config.shard_id {
                            Some(sid) => req.trace.add_span_with(
                                "serve.batch",
                                ROOT_SPAN,
                                collected,
                                eval_end,
                                &[
                                    ("seq", seq.into()),
                                    ("size", size.into()),
                                    ("shard", u64::from(sid).into()),
                                ],
                            ),
                            None => req.trace.add_span_with(
                                "serve.batch",
                                ROOT_SPAN,
                                collected,
                                eval_end,
                                &[("seq", seq.into()), ("size", size.into())],
                            ),
                        };
                        req.trace.add_span("serve.eval", bspan, eval_start, eval_end);
                        stamped.push(&req.trace);
                    }
                }
                for (req, label) in batch.drain(..).zip(labels) {
                    let latency =
                        req.enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    metrics.latency_us.record(latency);
                    metrics.latency_exemplars.observe(latency, req.trace.id());
                    let sent =
                        req.reply.send(Ok(Prediction { row: req.row, label, epoch: snap.epoch }));
                    if sent.is_err() {
                        metrics.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if req.complete_in_worker {
                        let _ = req.trace.complete();
                    }
                }
            }
            Err(_panic) => {
                // Restart path: answer the batch with a typed error, drop
                // the possibly-inconsistent scratch, keep serving.
                metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
                config.obs.add("serve.worker_restarts", 1);
                for req in batch.drain(..) {
                    req.trace.mark_error();
                    if req.complete_in_worker {
                        let _ = req.trace.complete();
                    }
                    let _ = req.reply.send(Err(ServeError::WorkerPanicked));
                    metrics.errors.fetch_add(1, Ordering::Relaxed);
                }
                scratch = ServeScratch::with_obs(config.obs.clone());
            }
        }
        wake_listeners(&mut wakers);
    }
}

/// Tells each wire listener of a finished batch that its replies are
/// ready to poll.
fn wake_listeners(wakers: &mut Vec<Waker>) {
    for waker in wakers.drain(..) {
        waker.wake();
    }
}
