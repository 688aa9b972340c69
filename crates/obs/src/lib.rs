//! # crossmine-obs
//!
//! Unified, zero-dependency observability for the CrossMine workspace:
//! one layer shared by the learner (per-clause spans, literal-search and
//! propagation counters), the sampler, and the serving stack (batch spans,
//! queue-wait histograms) — so the efficiency the paper claims (Figures
//! 9–12) is measurable on every run instead of asserted.
//!
//! Three pillars, one path each:
//!
//! * [`metrics`] — counters, gauges, and the log₂ [`Histogram`] (grown
//!   out of `crossmine-serve`, which now re-exports it), interned by name
//!   in a [`MetricsRegistry`]. [`ObsHandle::span`] returns an RAII guard
//!   that times a scope into the registry's span histograms. Rendered by
//!   [`report`] ([`TrainReport`]/[`ServeReport`] text plus JSONL export
//!   for reproducible experiment artifacts) and by [`expose`] (Prometheus
//!   text exposition — [`render_registry`], [`PromWriter`] — for the
//!   `GET /metrics` scrape endpoint wired up by `crossmine-serve`).
//! * [`tracectx`] — per-request causal tracing: a [`TraceCtx`] born at
//!   the wire collects a parent-linked span tree across every serving
//!   layer, a [`Tracer`] tail-samples completed traces (every error plus
//!   the slowest K per window) into a bounded ring for the `/trace`
//!   endpoint, and [`Exemplars`] join histogram buckets to stored
//!   traces.
//! * [`profile`] — continuous profiling: a [`Profiler`] samples
//!   per-thread span stacks into folded stacks and flamegraphs, charges
//!   allocations to the innermost span, and times lock waits.
//!
//! ## Cost model
//!
//! The hot loops must pay nothing when observability is off. The default
//! handle, [`ObsHandle::noop`], is a `None` — every instrumentation call
//! is one branch on an `Option` discriminant, takes no clock reading, and
//! performs **zero allocation** (asserted by a counting-allocator test).
//! [`ObsHandle::enabled`] aggregates span timings into lock-free
//! histograms.
//!
//! ```
//! use crossmine_obs::{ObsHandle, TrainReport};
//!
//! let obs = ObsHandle::enabled();
//! {
//!     let _clause = obs.span("learner.clause");
//!     obs.add("propagation.passes", 3);
//! }
//! let report = TrainReport::from_handle(&obs);
//! assert!(report.to_string().contains("learner.clause"));
//! ```

#![warn(missing_docs)]

pub mod expose;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod tracectx;

use std::sync::Arc;
use std::time::Instant;

use metrics::{Counter, Gauge, Histogram, MetricsRegistry};

pub use expose::{render_registry, PromWriter};
pub use profile::{
    heap_snapshot, process_stats, HeapEntry, LockTimer, LockWait, ProcessStats, ProfileConfig,
    ProfileGuard, ProfileStats, ProfiledAllocator, Profiler,
};
pub use report::{Report, ServeReport, TrainReport};
pub use tracectx::{
    CompletedTrace, Exemplars, FieldValue, SpanId, SpanRec, StoredTrace, TraceConfig, TraceCtx,
    TraceId, TraceStats, Tracer, ROOT_SPAN,
};

/// A cheaply cloneable handle to one metrics session — or a no-op.
///
/// The no-op handle (also the [`Default`]) is what every
/// `CrossMineParams`/`ServerConfig` carries unless the caller opts in, so
/// instrumented code paths are free in ordinary runs. All methods are safe
/// to call from any thread.
#[derive(Clone, Default)]
pub struct ObsHandle(Option<Arc<MetricsRegistry>>);

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() { "ObsHandle(enabled)" } else { "ObsHandle(noop)" })
    }
}

impl ObsHandle {
    /// The no-op handle: every call is a branch and nothing else.
    pub fn noop() -> Self {
        ObsHandle(None)
    }

    /// An aggregating handle: span timings, counters, gauges, and
    /// histograms accumulate lock-free. This is what `--report` uses.
    pub fn enabled() -> Self {
        ObsHandle(Some(Arc::new(MetricsRegistry::new())))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.0.as_deref()
    }

    /// Starts a span named `name`; the returned guard records its duration
    /// into the span histogram when dropped.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard(self.registry().map(|registry| ActiveSpan {
            registry,
            name,
            start: Instant::now(),
        }))
    }

    /// Adds `v` to the counter named `name`.
    #[inline]
    pub fn add(&self, name: &'static str, v: u64) {
        if let Some(registry) = self.registry() {
            registry.counter(name).add(v);
        }
    }

    /// Sets the gauge named `name` to `v`.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, v: i64) {
        if let Some(registry) = self.registry() {
            registry.gauge(name).set(v);
        }
    }

    /// Records `v` into the value histogram named `name`.
    #[inline]
    pub fn record(&self, name: &'static str, v: u64) {
        if let Some(registry) = self.registry() {
            registry.histogram(name).record(v);
        }
    }

    /// The counter named `name`, for hot paths that want to skip the
    /// per-call name lookup. `None` on a no-op handle.
    pub fn counter(&self, name: &'static str) -> Option<Arc<Counter>> {
        self.registry().map(|r| r.counter(name))
    }

    /// The gauge named `name` (see [`counter`](Self::counter)).
    pub fn gauge(&self, name: &'static str) -> Option<Arc<Gauge>> {
        self.registry().map(|r| r.gauge(name))
    }

    /// The value histogram named `name` (see [`counter`](Self::counter)).
    pub fn histogram(&self, name: &'static str) -> Option<Arc<Histogram>> {
        self.registry().map(|r| r.histogram(name))
    }

    /// Writes the registry's metrics as JSONL (no-op handles write
    /// nothing).
    pub fn write_metrics_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        match self.registry() {
            Some(r) => r.write_jsonl(w),
            None => Ok(()),
        }
    }
}

struct ActiveSpan<'a> {
    registry: &'a MetricsRegistry,
    name: &'static str,
    start: Instant,
}

/// RAII guard returned by [`ObsHandle::span`]: on drop, records the span's
/// duration (nanoseconds) into the handle's span histogram. The disabled
/// guard does nothing.
pub struct SpanGuard<'a>(Option<ActiveSpan<'a>>);

impl SpanGuard<'_> {
    /// A guard that records nothing, for scopes timed only conditionally.
    pub fn disabled() -> SpanGuard<'static> {
        SpanGuard(None)
    }

    /// Whether this guard will record on drop.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.0.take() {
            let ns = span.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            span.registry.span_histogram(span.name).record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing() {
        let obs = ObsHandle::noop();
        assert!(!obs.is_enabled());
        {
            let g = obs.span("x");
            assert!(!g.is_recording());
        }
        obs.add("c", 1);
        obs.record("h", 1);
        obs.gauge_set("g", 1);
        assert!(obs.registry().is_none());
        assert!(obs.counter("c").is_none());
    }

    #[test]
    fn enabled_handle_aggregates_without_events() {
        let obs = ObsHandle::enabled();
        {
            let _g = obs.span("learner.clause");
        }
        obs.add("passes", 2);
        let reg = obs.registry().unwrap();
        let spans = reg.span_snapshots();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "learner.clause");
        assert_eq!(spans[0].count, 1);
        assert_eq!(reg.counter_values(), vec![("passes", 2)]);
    }

    #[test]
    fn nested_spans_record_into_their_own_histograms() {
        let obs = ObsHandle::enabled();
        {
            let _outer = obs.span("outer");
            for _ in 0..3 {
                let _inner = obs.span("inner");
            }
        }
        let counts: Vec<_> =
            obs.registry().unwrap().span_snapshots().iter().map(|s| (s.name, s.count)).collect();
        assert!(counts.contains(&("outer", 1)), "{counts:?}");
        assert!(counts.contains(&("inner", 3)), "{counts:?}");
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let obs = ObsHandle::enabled();
        {
            let g = SpanGuard::disabled();
            assert!(!g.is_recording());
            assert!(obs.span("live").is_recording());
        }
        let names: Vec<_> =
            obs.registry().unwrap().span_snapshots().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["live"]);
    }

    #[test]
    fn metrics_jsonl_export_is_parseable_json_lines() {
        let obs = ObsHandle::enabled();
        {
            let _s = obs.span("learner.clause");
        }
        obs.add("propagation.passes", 3);
        obs.record("batch.size", 17);
        obs.gauge_set("queue.depth", 4);

        let mut out = Vec::new();
        obs.write_metrics_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            // Minimal shape check: each line is a JSON object naming a metric.
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
            assert!(line.contains("\"name\":"), "unnamed metric line: {line}");
        }
        assert!(text.contains("propagation.passes"));
        assert!(text.contains("learner.clause"));
        assert!(text.contains("batch.size"));
        assert!(text.contains("queue.depth"));
    }

    #[test]
    fn clones_share_state() {
        let obs = ObsHandle::enabled();
        let clone = obs.clone();
        clone.add("shared", 4);
        assert_eq!(obs.registry().unwrap().counter_values(), vec![("shared", 4)]);
        assert_eq!(format!("{obs:?}"), "ObsHandle(enabled)");
        assert_eq!(format!("{:?}", ObsHandle::noop()), "ObsHandle(noop)");
    }
}
