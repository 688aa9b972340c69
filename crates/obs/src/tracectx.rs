//! Per-request trace context: a causal span tree that follows one
//! request from the wire to the worker and back.
//!
//! Aggregate metrics (the rest of `crossmine-obs`) answer "how slow is
//! the p99?"; this module answers "*why was this request slow?*". One
//! [`TraceCtx`] is born when a predict request is parsed off a socket
//! (or submitted in-process), rides through the admission queue on the
//! request itself, collects parent-linked [`SpanRec`]s from every layer
//! it crosses (`net.sniff` → `net.parse` → `serve.queue_wait` →
//! `serve.batch` → `serve.eval` → `net.write`), and is **completed**
//! exactly once — when the reply's bytes hit the socket (wire path) or
//! when the reply is delivered (in-process path).
//!
//! Three design rules carried over from the rest of the crate:
//!
//! * **Noop is free.** [`Tracer::noop`] and the contexts it hands out
//!   are a `None` inside; every instrumentation call is one branch and
//!   zero allocations (pinned by the counting-allocator test).
//! * **Tail-based sampling.** No trace is dropped at birth — the keep
//!   decision happens at completion time, when the outcome is known: a
//!   bounded ring retains every error/shed/deadline trace plus the
//!   slowest K per window of completions, and discards the rest. This is
//!   what makes "show me the p99" answerable: the interesting tail is
//!   retained *because* it is the tail.
//! * **Exemplars join metrics to traces.** An [`Exemplars`] array
//!   remembers, per log₂ histogram bucket, the most recent [`TraceId`]
//!   that landed there — so a p99 latency bucket on `/metrics` resolves
//!   through `/trace` to a concrete stored trace.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::metrics::{bucket_of, bucket_upper_bound, NUM_BUCKETS};

/// One span attribute value. `Str` is `&'static str` so that building an
/// attribute never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Static string.
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

/// Identifies one request's trace. `0` is the "unset" sentinel (noop
/// contexts, empty exemplar slots); generated ids start at 1. Wire
/// callers reuse the client's request id (binary frames) or the
/// `X-Request-Id` header (HTTP) so a trace is joinable to client logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The unset sentinel.
    pub const UNSET: TraceId = TraceId(0);

    /// Whether this is a real id (nonzero).
    pub fn is_set(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies one span within a trace. Span 0 is the implicit root
/// (`request`) covering the whole trace lifetime; recorded spans start
/// at 1. Passing [`ROOT_SPAN`] as the parent links a span to the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

/// The implicit root span every recorded span ultimately parents to.
pub const ROOT_SPAN: SpanId = SpanId(0);

/// Hard cap on recorded spans per trace: a wire batch of thousands of
/// rows must not turn one trace into an unbounded allocation. Spans past
/// the cap are counted, not stored.
pub const MAX_SPANS_PER_TRACE: usize = 512;

/// One recorded span: a named `[start, end]` interval with a parent
/// link, nanosecond offsets relative to the trace origin, and typed
/// attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// This span's id within its trace.
    pub id: SpanId,
    /// The parent span ([`ROOT_SPAN`] for top-level stages).
    pub parent: SpanId,
    /// Stage name, e.g. `net.parse` or `serve.eval`.
    pub name: &'static str,
    /// Start offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace origin, nanoseconds.
    pub end_ns: u64,
    /// Typed attributes (batch seq, row counts, ...).
    pub attrs: Vec<(&'static str, FieldValue)>,
}

/// Sampling and retention knobs for a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// How many sampled traces the ring retains (oldest evicted first).
    pub ring_capacity: usize,
    /// Completions per sampling window; the slowest-K tracker resets at
    /// each window boundary so "slowest" stays recent.
    pub window: u64,
    /// How many of the slowest traces each window keeps (error traces
    /// are always kept, on top of this).
    pub keep_slowest: usize,
    /// When set, every completed trace at least this slow is written to
    /// the slow-request log (independent of the sampling decision).
    pub slow_threshold: Option<Duration>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { ring_capacity: 256, window: 128, keep_slowest: 8, slow_threshold: None }
    }
}

/// A completed, retained trace: what the ring stores and `/trace`
/// serves.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTrace {
    /// The trace's id.
    pub id: TraceId,
    /// Total lifetime (origin to completion), nanoseconds.
    pub duration_ns: u64,
    /// Whether any layer marked the trace as failed (shed, deadline,
    /// panic, wire error).
    pub error: bool,
    /// Spans dropped past [`MAX_SPANS_PER_TRACE`].
    pub spans_dropped: u32,
    /// The span tree, root (`request`, id 0) first.
    pub spans: Vec<SpanRec>,
}

fn write_json_field_value(out: &mut String, v: &FieldValue) {
    use std::fmt::Write as _;
    match v {
        FieldValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::Str(s) => {
            let _ = write!(out, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        }
    }
}

impl StoredTrace {
    /// Renders the trace as one JSON line (the `/trace` and slow-log
    /// format): id, duration, error flag, and the full span tree with
    /// parent links.
    pub fn render_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"duration_ns\":{},\"error\":{},\"spans_dropped\":{},\"spans\":[",
            self.id.0, self.duration_ns, self.error, self.spans_dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id.0,
                if s.id == ROOT_SPAN { "null".to_string() } else { s.parent.0.to_string() },
                s.name,
                s.start_ns,
                s.end_ns
            );
            if !s.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (j, (k, v)) in s.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":");
                    write_json_field_value(&mut out, v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Appends this trace's spans as Chrome trace-event objects
    /// (`ph:"X"` complete events, microsecond timestamps relative to the
    /// trace origin, `tid` = trace id) to `out` — load the enclosing
    /// array in `about:tracing` or Perfetto.
    pub fn write_chrome_events(&self, out: &mut String, first: &mut bool) {
        use std::fmt::Write as _;
        for s in &self.spans {
            if !*first {
                out.push(',');
            }
            *first = false;
            let ts = s.start_ns as f64 / 1000.0;
            let dur = s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"crossmine\",\"ph\":\"X\",\"ts\":{ts:.3},\
                 \"dur\":{dur:.3},\"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":{}",
                s.name, self.id.0, self.id.0
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":");
                write_json_field_value(out, v);
            }
            out.push_str("}}");
        }
    }
}

/// Per-bucket trace exemplars for a log₂ histogram: each bucket
/// remembers the most recent [`TraceId`] whose sample landed there, so a
/// histogram bucket on a dashboard resolves to one retrievable trace.
/// Lock-free; an unset slot reads as [`TraceId::UNSET`].
#[derive(Debug)]
pub struct Exemplars {
    slots: [AtomicU64; NUM_BUCKETS],
}

impl Default for Exemplars {
    fn default() -> Self {
        Exemplars { slots: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Exemplars {
    /// An empty exemplar array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remembers `id` as the latest exemplar for `value`'s bucket.
    /// Unset ids (requests without a trace) are ignored.
    #[inline]
    pub fn observe(&self, value: u64, id: TraceId) {
        if id.is_set() {
            self.slots[bucket_of(value)].store(id.0, Ordering::Relaxed);
        }
    }

    /// The exemplar for bucket `i`, when one was recorded.
    pub fn get(&self, i: usize) -> Option<TraceId> {
        let v = self.slots[i].load(Ordering::Relaxed);
        (v != 0).then_some(TraceId(v))
    }

    /// All set exemplars as `(bucket upper bound, trace id)`,
    /// bucket-ascending.
    pub fn nonempty(&self) -> Vec<(u64, TraceId)> {
        (0..NUM_BUCKETS).filter_map(|i| self.get(i).map(|id| (bucket_upper_bound(i), id))).collect()
    }

    /// The exemplar whose bucket holds `value` (e.g. the p99 estimate
    /// from the companion histogram), when one was recorded.
    pub fn for_value(&self, value: u64) -> Option<TraceId> {
        self.get(bucket_of(value))
    }
}

/// What [`TraceCtx::complete`] reports to the caller that performed the
/// completion (the wire path uses it to feed latency histograms and
/// exemplars without re-deriving the duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTrace {
    /// The trace's id.
    pub id: TraceId,
    /// Total lifetime, nanoseconds.
    pub duration_ns: u64,
    /// Whether the trace was marked as an error.
    pub error: bool,
    /// Whether the tail sampler retained it in the ring.
    pub sampled: bool,
}

struct TraceState {
    spans: Vec<SpanRec>,
    next_span: u32,
    dropped: u32,
}

struct TraceInner {
    id: TraceId,
    origin: Instant,
    error: AtomicBool,
    completed: AtomicBool,
    state: Mutex<TraceState>,
    core: Arc<TracerCore>,
}

/// One request's trace context: cheap to clone (an `Arc` bump), safe to
/// share across the net poll thread and the serve workers, and a noop
/// (`None` inside) when tracing is disabled. Obtain from
/// [`Tracer::start`]; record spans with [`add_span`](Self::add_span);
/// call [`complete`](Self::complete) exactly once when the request's
/// reply is finally delivered — later calls are ignored, which is what
/// lets the wire path and the worker share ownership without a
/// handshake.
#[derive(Clone, Default)]
pub struct TraceCtx(Option<Arc<TraceInner>>);

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("TraceCtx(noop)"),
            Some(inner) => write!(f, "TraceCtx({})", inner.id.0),
        }
    }
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Trace state is plain data; a panicking recorder elsewhere must not
    // disable tracing for everyone else.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos().min(u128::from(u64::MAX)) as u64
}

impl TraceCtx {
    /// The noop context: every call is a branch and nothing else.
    pub fn noop() -> Self {
        TraceCtx(None)
    }

    /// Whether this context records anything.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// The trace's id ([`TraceId::UNSET`] on a noop context).
    #[inline]
    pub fn id(&self) -> TraceId {
        match &self.0 {
            Some(inner) => inner.id,
            None => TraceId::UNSET,
        }
    }

    /// Records one span covering `[start, end]` under `parent`. Returns
    /// the new span's id so later spans can parent to it ([`ROOT_SPAN`]
    /// on noop contexts, or once the per-trace span cap is hit).
    #[inline]
    pub fn add_span(
        &self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.add_span_with(name, parent, start, end, &[])
    }

    /// [`add_span`](Self::add_span) with typed attributes.
    pub fn add_span_with(
        &self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        attrs: &[(&'static str, FieldValue)],
    ) -> SpanId {
        let Some(inner) = &self.0 else { return ROOT_SPAN };
        let mut st = lock_ignoring_poison(&inner.state);
        if st.spans.len() >= MAX_SPANS_PER_TRACE {
            st.dropped = st.dropped.saturating_add(1);
            return ROOT_SPAN;
        }
        st.next_span += 1;
        let id = SpanId(st.next_span);
        st.spans.push(SpanRec {
            id,
            parent,
            name,
            start_ns: ns_since(inner.origin, start),
            end_ns: ns_since(inner.origin, end),
            attrs: attrs.to_vec(),
        });
        id
    }

    /// Whether both contexts record into the same live trace (clones of
    /// one context, e.g. the N rows of one wire batch riding the
    /// connection's trace). Always false for noop contexts, and — unlike
    /// comparing [`id`](Self::id)s — false for distinct traces that
    /// happen to reuse a request id.
    #[inline]
    pub fn same_trace(&self, other: &TraceCtx) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Marks the trace as failed (shed, deadline expiry, worker panic,
    /// wire error). Error traces are always retained by the tail
    /// sampler.
    #[inline]
    pub fn mark_error(&self) {
        if let Some(inner) = &self.0 {
            inner.error.store(true, Ordering::Relaxed);
        }
    }

    /// Completes the trace: stamps the total duration, runs the tail
    /// sampling decision, and (when retained) stores the trace in the
    /// tracer's ring. Idempotent — only the first call does anything and
    /// returns `Some`; `None` on noop contexts and repeat calls.
    pub fn complete(&self) -> Option<CompletedTrace> {
        let inner = self.0.as_ref()?;
        if inner.completed.swap(true, Ordering::AcqRel) {
            return None;
        }
        let duration_ns = inner.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let error = inner.error.load(Ordering::Relaxed);
        let (mut spans, dropped) = {
            let mut st = lock_ignoring_poison(&inner.state);
            (std::mem::take(&mut st.spans), st.dropped)
        };
        spans.insert(
            0,
            SpanRec {
                id: ROOT_SPAN,
                parent: ROOT_SPAN,
                name: "request",
                start_ns: 0,
                end_ns: duration_ns,
                attrs: Vec::new(),
            },
        );
        let sampled = inner.core.offer(StoredTrace {
            id: inner.id,
            duration_ns,
            error,
            spans_dropped: dropped,
            spans,
        });
        Some(CompletedTrace { id: inner.id, duration_ns, error, sampled })
    }
}

/// Running totals of the tail sampler's decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces completed (sampled or not).
    pub completed: u64,
    /// Traces retained in the ring.
    pub sampled: u64,
    /// Traces discarded at completion time.
    pub dropped: u64,
}

/// The slowest-K tracker for the current sampling window plus the
/// bounded ring of retained traces.
struct SamplerState {
    ring: VecDeque<StoredTrace>,
    /// Durations of traces kept as "slowest" this window, unsorted,
    /// length ≤ `keep_slowest`.
    window_slowest: Vec<u64>,
    /// Completions seen this window.
    window_seen: u64,
}

struct TracerCore {
    cfg: TraceConfig,
    next_id: AtomicU64,
    completed: AtomicU64,
    sampled: AtomicU64,
    dropped: AtomicU64,
    state: Mutex<SamplerState>,
    /// JSONL sink for the slow-request log, when configured.
    slow_log: Option<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for TracerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerCore").field("cfg", &self.cfg).finish()
    }
}

impl TracerCore {
    /// The tail-sampling decision and ring insertion for one completed
    /// trace; returns whether it was retained.
    fn offer(&self, trace: StoredTrace) -> bool {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if let (Some(threshold), Some(log)) = (self.cfg.slow_threshold, &self.slow_log) {
            if trace.duration_ns >= threshold.as_nanos().min(u128::from(u64::MAX)) as u64 {
                let line = trace.render_jsonl();
                let mut w = lock_ignoring_poison(log);
                let _ = writeln!(w, "{line}");
            }
        }
        let mut st = lock_ignoring_poison(&self.state);
        let keep = if trace.error {
            true
        } else if st.window_slowest.len() < self.cfg.keep_slowest {
            st.window_slowest.push(trace.duration_ns);
            true
        } else {
            // Replace the fastest of the current slowest-K when this
            // trace is slower — an online approximation of "slowest K
            // per window" that needs no sort and no second pass.
            match st
                .window_slowest
                .iter()
                .enumerate()
                .min_by_key(|&(_, &d)| d)
                .map(|(i, &d)| (i, d))
            {
                Some((i, fastest)) if trace.duration_ns > fastest => {
                    st.window_slowest[i] = trace.duration_ns;
                    true
                }
                _ => false,
            }
        };
        // The window boundary advances *after* the decision so the last
        // completion of a window is judged against that window's slowest
        // set, not a freshly cleared one.
        st.window_seen += 1;
        if st.window_seen >= self.cfg.window.max(1) {
            st.window_seen = 0;
            st.window_slowest.clear();
        }
        if keep {
            if st.ring.len() >= self.cfg.ring_capacity.max(1) {
                st.ring.pop_front();
            }
            st.ring.push_back(trace);
            self.sampled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        keep
    }
}

/// The per-server tracing session: hands out [`TraceCtx`]s, owns the
/// tail-sampling ring, and serves stored traces to the `/trace`
/// endpoint. Cheap to clone; the noop tracer (also the [`Default`])
/// makes every downstream trace call one branch.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerCore>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Tracer(noop)"),
            Some(core) => write!(f, "Tracer(enabled, ring: {})", core.cfg.ring_capacity),
        }
    }
}

impl Tracer {
    /// The noop tracer: every [`start`](Self::start) returns a noop
    /// context.
    pub fn noop() -> Self {
        Tracer(None)
    }

    /// An enabled tracer with default sampling ([`TraceConfig`]).
    pub fn enabled() -> Self {
        Self::with_config(TraceConfig::default())
    }

    /// An enabled tracer with explicit sampling knobs.
    pub fn with_config(cfg: TraceConfig) -> Self {
        Self::build(cfg, None)
    }

    /// [`with_config`](Self::with_config) plus a slow-request log: every
    /// completed trace at least `cfg.slow_threshold` slow is written to
    /// `sink` as one JSON line, independent of the sampling decision.
    pub fn with_slow_log(cfg: TraceConfig, sink: Box<dyn Write + Send>) -> Self {
        Self::build(cfg, Some(Mutex::new(sink)))
    }

    fn build(cfg: TraceConfig, slow_log: Option<Mutex<Box<dyn Write + Send>>>) -> Self {
        Tracer(Some(Arc::new(TracerCore {
            state: Mutex::new(SamplerState {
                ring: VecDeque::with_capacity(cfg.ring_capacity.max(1)),
                window_slowest: Vec::with_capacity(cfg.keep_slowest),
                window_seen: 0,
            }),
            cfg,
            next_id: AtomicU64::new(1),
            completed: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slow_log,
        })))
    }

    /// Whether this tracer records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Starts a trace whose origin is *now*. `id_hint` is the caller's
    /// request id (binary frame id, parsed `X-Request-Id`); pass 0 to
    /// have one generated.
    #[inline]
    pub fn start(&self, id_hint: u64) -> TraceCtx {
        self.start_at(id_hint, Instant::now())
    }

    /// [`start`](Self::start) with an explicit origin, for callers that
    /// know the request began earlier than the trace's creation — the
    /// wire path passes the arrival time of the request's first byte so
    /// the sniff/parse spans (which predate the parse that yields the
    /// request id) still land inside the trace.
    pub fn start_at(&self, id_hint: u64, origin: Instant) -> TraceCtx {
        let Some(core) = &self.0 else { return TraceCtx(None) };
        let id = if id_hint != 0 {
            TraceId(id_hint)
        } else {
            TraceId(core.next_id.fetch_add(1, Ordering::Relaxed))
        };
        TraceCtx(Some(Arc::new(TraceInner {
            id,
            origin,
            error: AtomicBool::new(false),
            completed: AtomicBool::new(false),
            state: Mutex::new(TraceState {
                spans: Vec::with_capacity(8),
                next_span: 0,
                dropped: 0,
            }),
            core: Arc::clone(core),
        })))
    }

    /// The most recent `limit` retained traces, newest first.
    pub fn recent(&self, limit: usize) -> Vec<StoredTrace> {
        match &self.0 {
            None => Vec::new(),
            Some(core) => {
                let st = lock_ignoring_poison(&core.state);
                st.ring.iter().rev().take(limit).cloned().collect()
            }
        }
    }

    /// Looks up one retained trace by id (newest match wins).
    pub fn find(&self, id: TraceId) -> Option<StoredTrace> {
        let core = self.0.as_ref()?;
        let st = lock_ignoring_poison(&core.state);
        st.ring.iter().rev().find(|t| t.id == id).cloned()
    }

    /// Sampler decision totals.
    pub fn stats(&self) -> TraceStats {
        match &self.0 {
            None => TraceStats::default(),
            Some(core) => TraceStats {
                completed: core.completed.load(Ordering::Relaxed),
                sampled: core.sampled.load(Ordering::Relaxed),
                dropped: core.dropped.load(Ordering::Relaxed),
            },
        }
    }

    /// Writes the `limit` most recent retained traces as JSONL (newest
    /// first), the `/trace` wire format.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `w`.
    pub fn write_recent_jsonl(&self, limit: usize, w: &mut impl io::Write) -> io::Result<()> {
        for t in self.recent(limit) {
            writeln!(w, "{}", t.render_jsonl())?;
        }
        Ok(())
    }

    /// Renders the `limit` most recent retained traces as one Chrome
    /// trace-event JSON array for `about:tracing` / Perfetto.
    pub fn render_chrome(&self, limit: usize) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for t in self.recent(limit) {
            t.write_chrome_events(&mut out, &mut first);
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_and_ctx_do_nothing() {
        let tracer = Tracer::noop();
        assert!(!tracer.is_enabled());
        let ctx = tracer.start(42);
        assert!(!ctx.is_active());
        assert_eq!(ctx.id(), TraceId::UNSET);
        let t = Instant::now();
        assert_eq!(ctx.add_span("x", ROOT_SPAN, t, t), ROOT_SPAN);
        ctx.mark_error();
        assert!(ctx.complete().is_none());
        assert!(tracer.recent(10).is_empty());
        assert_eq!(tracer.stats(), TraceStats::default());
        assert_eq!(format!("{ctx:?}"), "TraceCtx(noop)");
        assert_eq!(format!("{tracer:?}"), "Tracer(noop)");
    }

    mod enabled {
        use super::*;

        #[test]
        fn span_tree_records_parent_links_and_offsets() {
            let tracer = Tracer::enabled();
            let origin = Instant::now();
            let ctx = tracer.start_at(7, origin);
            assert_eq!(ctx.id(), TraceId(7));
            let a = origin + Duration::from_micros(10);
            let b = origin + Duration::from_micros(30);
            let parent = ctx.add_span("net.parse", ROOT_SPAN, origin, a);
            let child =
                ctx.add_span_with("serve.eval", parent, a, b, &[("rows", FieldValue::U64(3))]);
            assert_ne!(parent, ROOT_SPAN);
            assert_ne!(child, parent);
            let done = ctx.complete().expect("first completion");
            assert_eq!(done.id, TraceId(7));
            assert!(done.sampled, "first trace of a window is among the slowest K");
            let stored = tracer.find(TraceId(7)).expect("retained");
            assert_eq!(stored.spans[0].name, "request");
            assert_eq!(stored.spans[0].id, ROOT_SPAN);
            let parse = &stored.spans[1];
            let eval = &stored.spans[2];
            assert_eq!(parse.parent, ROOT_SPAN);
            assert_eq!(eval.parent, parse.id);
            assert!(parse.end_ns >= 10_000, "offsets are relative to origin: {parse:?}");
            assert!(eval.start_ns <= eval.end_ns);
            assert_eq!(eval.attrs, vec![("rows", FieldValue::U64(3))]);
        }

        #[test]
        fn completion_is_idempotent() {
            let tracer = Tracer::enabled();
            let ctx = tracer.start(0);
            assert!(ctx.id().is_set(), "generated ids are nonzero");
            assert!(ctx.complete().is_some());
            assert!(ctx.complete().is_none(), "second completion is a noop");
            let clone = ctx.clone();
            assert!(clone.complete().is_none(), "clones share the completion latch");
            assert_eq!(tracer.stats().completed, 1);
        }

        #[test]
        fn generated_ids_are_unique_and_client_ids_are_reused() {
            let tracer = Tracer::enabled();
            let a = tracer.start(0).id();
            let b = tracer.start(0).id();
            assert_ne!(a, b);
            assert_eq!(tracer.start(99).id(), TraceId(99));
        }

        #[test]
        fn tail_sampler_keeps_errors_and_slowest_k() {
            let cfg = TraceConfig {
                ring_capacity: 64,
                window: 1000,
                keep_slowest: 2,
                slow_threshold: None,
            };
            let tracer = Tracer::with_config(cfg);
            let origin = Instant::now() - Duration::from_millis(50);
            // Two slow traces fill the slowest-K slots...
            for id in [1u64, 2] {
                let ctx = tracer.start_at(id, origin);
                assert!(ctx.complete().expect("completes").sampled);
            }
            // ...a fast one (origin = now, ~0 ns) is dropped...
            let fast = tracer.start(3);
            assert!(!fast.complete().expect("completes").sampled);
            // ...but a fast *error* is always kept.
            let err = tracer.start(4);
            err.mark_error();
            let done = err.complete().expect("completes");
            assert!(done.error);
            assert!(done.sampled, "error traces bypass the slowest-K filter");
            let stats = tracer.stats();
            assert_eq!(stats.completed, 4);
            assert_eq!(stats.sampled, 3);
            assert_eq!(stats.dropped, 1);
            assert!(tracer.find(TraceId(3)).is_none());
            assert!(tracer.find(TraceId(4)).expect("kept").error);
        }

        #[test]
        fn window_reset_reopens_slowest_slots() {
            let cfg =
                TraceConfig { ring_capacity: 64, window: 2, keep_slowest: 1, slow_threshold: None };
            let tracer = Tracer::with_config(cfg);
            let slow_origin = Instant::now() - Duration::from_millis(10);
            assert!(tracer.start_at(1, slow_origin).complete().expect("c").sampled);
            // Same window, faster: dropped.
            assert!(!tracer.start(2).complete().expect("c").sampled);
            // New window: the slot is free again, so even a fast trace
            // lands.
            assert!(tracer.start(3).complete().expect("c").sampled);
        }

        #[test]
        fn ring_is_bounded_and_newest_first() {
            let cfg = TraceConfig {
                ring_capacity: 3,
                window: 1000,
                keep_slowest: 1000,
                slow_threshold: None,
            };
            let tracer = Tracer::with_config(cfg);
            for id in 1..=5u64 {
                tracer.start(id).complete();
            }
            let recent = tracer.recent(10);
            let ids: Vec<u64> = recent.iter().map(|t| t.id.0).collect();
            assert_eq!(ids, vec![5, 4, 3], "capacity 3, newest first");
            assert_eq!(tracer.recent(2).len(), 2);
        }

        #[test]
        fn span_cap_counts_drops() {
            let tracer = Tracer::enabled();
            let ctx = tracer.start(1);
            let t = Instant::now();
            for _ in 0..(MAX_SPANS_PER_TRACE + 5) {
                ctx.add_span("s", ROOT_SPAN, t, t);
            }
            ctx.complete();
            let stored = tracer.find(TraceId(1)).expect("kept");
            // +1: the root span is added at completion, outside the cap.
            assert_eq!(stored.spans.len(), MAX_SPANS_PER_TRACE + 1);
            assert_eq!(stored.spans_dropped, 5);
        }

        #[test]
        fn jsonl_and_chrome_rendering() {
            let tracer = Tracer::enabled();
            let origin = Instant::now();
            let ctx = tracer.start_at(11, origin);
            let p = ctx.add_span_with(
                "net.parse",
                ROOT_SPAN,
                origin,
                origin + Duration::from_micros(5),
                &[("proto", FieldValue::Str("http")), ("rows", FieldValue::U64(2))],
            );
            ctx.add_span("serve.eval", p, origin, origin + Duration::from_micros(3));
            ctx.complete();
            let mut out = Vec::new();
            tracer.write_recent_jsonl(10, &mut out).expect("write");
            let text = String::from_utf8(out).expect("utf8");
            assert_eq!(text.lines().count(), 1);
            assert!(text.contains("\"trace_id\":11"), "{text}");
            assert!(text.contains("\"name\":\"request\""), "{text}");
            assert!(text.contains("\"name\":\"net.parse\""), "{text}");
            assert!(text.contains("\"proto\":\"http\""), "{text}");
            assert!(text.contains("\"rows\":2"), "{text}");
            assert!(text.contains("\"parent\":null"), "root parent is null: {text}");
            // The child's parent is the parse span's id.
            assert!(text.contains("\"name\":\"serve.eval\""), "{text}");
            let chrome = tracer.render_chrome(10);
            assert!(chrome.starts_with('['), "{chrome}");
            assert!(chrome.trim_end().ends_with(']'), "{chrome}");
            assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
            assert!(chrome.contains("\"tid\":11"), "{chrome}");
            assert!(chrome.contains("\"name\":\"net.parse\""), "{chrome}");
        }

        #[test]
        fn slow_log_writes_jsonl_over_threshold() {
            use std::sync::{Arc as SArc, Mutex as SMutex};

            #[derive(Clone)]
            struct Shared(SArc<SMutex<Vec<u8>>>);
            impl Write for Shared {
                fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                    self.0.lock().expect("sink").extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> io::Result<()> {
                    Ok(())
                }
            }

            let sink = Shared(SArc::new(SMutex::new(Vec::new())));
            let cfg = TraceConfig {
                slow_threshold: Some(Duration::from_millis(1)),
                ..TraceConfig::default()
            };
            let tracer = Tracer::with_slow_log(cfg, Box::new(sink.clone()));
            // Fast trace: below threshold, not logged.
            tracer.start(1).complete();
            // Slow trace: origin backdated past the threshold.
            tracer.start_at(2, Instant::now() - Duration::from_millis(5)).complete();
            let logged = String::from_utf8(sink.0.lock().expect("sink").clone()).expect("utf8");
            assert_eq!(logged.lines().count(), 1, "{logged}");
            assert!(logged.contains("\"trace_id\":2"), "{logged}");
        }

        #[test]
        fn exemplars_remember_latest_trace_per_bucket() {
            let ex = Exemplars::new();
            ex.observe(100, TraceId::UNSET);
            assert!(ex.nonempty().is_empty(), "unset ids are ignored");
            ex.observe(100, TraceId(5)); // bucket [64,127]
            ex.observe(120, TraceId(9)); // same bucket: latest wins
            ex.observe(3, TraceId(2)); // bucket [2,3]
            assert_eq!(ex.for_value(127), Some(TraceId(9)));
            assert_eq!(ex.for_value(2), Some(TraceId(2)));
            assert_eq!(ex.for_value(1), None);
            assert_eq!(ex.nonempty(), vec![(3, TraceId(2)), (127, TraceId(9))]);
        }
    }
}
