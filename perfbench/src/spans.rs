//! Post-processing of the traced run: per-stage durations, self times
//! (a span minus the part of it its children cover), and the client time
//! the server's trace does not account for.

use crossmine_obs::{SpanId, StoredTrace};

/// Total length of the union of `[start, end)` intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Nanoseconds covered by the spans named `name` (their union, so a stage
/// recorded twice in one trace — a wire batch split across two
/// micro-batches — is not double counted).
pub fn stage_ns(trace: &StoredTrace, name: &str) -> u64 {
    union_len(
        trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.start_ns, s.end_ns.max(s.start_ns)))
            .collect(),
    )
}

/// Self time of span `id`: its duration minus the part of it covered by
/// its direct children (clipped to the span).
pub fn self_ns(trace: &StoredTrace, id: SpanId) -> u64 {
    let Some(span) = trace.spans.iter().find(|s| s.id == id) else { return 0 };
    let (start, end) = (span.start_ns, span.end_ns.max(span.start_ns));
    let children = trace
        .spans
        .iter()
        .filter(|c| c.parent == id && c.id != id)
        .map(|c| (c.start_ns.clamp(start, end), c.end_ns.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    (end - start) - union_len(children)
}

/// Summed self time of every span named `name`.
pub fn self_ns_named(trace: &StoredTrace, name: &str) -> u64 {
    trace.spans.iter().filter(|s| s.name == name).map(|s| self_ns(trace, s.id)).sum()
}

/// Client-observed latency minus the trace root's duration: time spent
/// before the server read the request's first byte and after the reply's
/// last byte left it — socket hand-off and the poll sweep. Negative
/// differences (clock granularity) read as zero.
pub fn unattributed_ns(client_ns: u64, trace: &StoredTrace) -> u64 {
    client_ns.saturating_sub(trace.duration_ns)
}

/// One wire request's time, split by stage, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSplit {
    /// `net.sniff` plus `net.parse`.
    pub parse_us: f64,
    /// `serve.queue_wait`, including the batch linger.
    pub queue_wait_us: f64,
    /// `serve.eval`.
    pub eval_us: f64,
    /// `serve.batch` minus its `serve.eval` child.
    pub batch_self_us: f64,
    /// `net.write`.
    pub write_us: f64,
    /// The root `request` span's self time: gaps between stages inside
    /// the server.
    pub request_self_us: f64,
    /// Client latency minus the root span.
    pub unattributed_us: f64,
}

impl StageSplit {
    /// Splits `trace` for a request the client saw take `client_ns`.
    pub fn of(trace: &StoredTrace, client_ns: u64) -> StageSplit {
        let us = |ns: u64| ns as f64 / 1000.0;
        StageSplit {
            parse_us: us(stage_ns(trace, "net.sniff") + stage_ns(trace, "net.parse")),
            queue_wait_us: us(stage_ns(trace, "serve.queue_wait")),
            eval_us: us(stage_ns(trace, "serve.eval")),
            batch_self_us: us(self_ns_named(trace, "serve.batch")),
            write_us: us(stage_ns(trace, "net.write")),
            request_self_us: us(self_ns(trace, crossmine_obs::ROOT_SPAN)),
            unattributed_us: us(unattributed_ns(client_ns, trace)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmine_obs::{SpanRec, TraceId, ROOT_SPAN};

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id: SpanId(id),
            parent: SpanId(parent),
            name,
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
        }
    }

    /// request 0..1000 ─┬ sniff 0..10, parse 10..50, queue_wait 50..300
    ///                  ├ batch 300..800 ── eval 350..750
    ///                  └ write 850..950
    fn wire_trace() -> StoredTrace {
        StoredTrace {
            id: TraceId(7),
            duration_ns: 1000,
            error: false,
            spans_dropped: 0,
            spans: vec![
                span(0, 0, "request", 0, 1000),
                span(1, 0, "net.sniff", 0, 10),
                span(2, 0, "net.parse", 10, 50),
                span(3, 0, "serve.queue_wait", 50, 300),
                span(4, 0, "serve.batch", 300, 800),
                span(5, 4, "serve.eval", 350, 750),
                span(6, 0, "net.write", 850, 950),
            ],
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = wire_trace();
        assert_eq!(self_ns(&t, SpanId(4)), 100, "batch minus eval");
        assert_eq!(self_ns(&t, SpanId(5)), 400, "a leaf keeps its whole duration");
        // Root: 1000 minus the children covering 0..800 and 850..950.
        assert_eq!(self_ns(&t, ROOT_SPAN), 100);
        assert_eq!(self_ns(&t, SpanId(99)), 0, "unknown span");
    }

    #[test]
    fn overlapping_and_repeated_stages_are_not_double_counted() {
        let mut t = wire_trace();
        // A second micro-batch for the same wire request, overlapping the
        // first queue wait, plus a child poking outside its parent.
        t.spans.push(span(7, 0, "serve.queue_wait", 200, 400));
        t.spans.push(span(8, 4, "serve.eval", 700, 900));
        assert_eq!(stage_ns(&t, "serve.queue_wait"), 350);
        // Batch 300..800 covered by evals 350..750 and 700..800 (clipped).
        assert_eq!(self_ns(&t, SpanId(4)), 50);
        assert_eq!(union_len(vec![(0, 5), (10, 20), (3, 12)]), 20);
        assert_eq!(union_len(Vec::new()), 0);
    }

    #[test]
    fn stage_split_reconstructs_client_latency() {
        let t = wire_trace();
        let split = StageSplit::of(&t, 1200);
        assert_eq!(split.unattributed_us, 0.2);
        assert_eq!(split.parse_us, 0.05);
        assert_eq!(split.queue_wait_us, 0.25);
        assert_eq!(split.eval_us, 0.4);
        assert_eq!(split.batch_self_us, 0.1);
        assert_eq!(split.write_us, 0.1);
        assert_eq!(split.request_self_us, 0.1);
        let sum = split.parse_us
            + split.queue_wait_us
            + split.eval_us
            + split.batch_self_us
            + split.write_us
            + split.request_self_us
            + split.unattributed_us;
        assert!((sum - 1.2).abs() < 1e-9, "stages add up to the client's latency: {sum}");
        // A client reading faster than the root (clock granularity).
        assert_eq!(unattributed_ns(900, &t), 0);
    }
}
