//! Prometheus text exposition (version 0.0.4) for the metrics layer.
//!
//! Renders a [`MetricsRegistry`] — counters, gauges, value histograms, and
//! span histograms — as the plain-text format every Prometheus-compatible
//! scraper understands, with zero dependencies. The pieces compose: the
//! serving layer uses the same [`PromWriter`] to expose its own
//! `ServeMetrics` aggregate next to the registry, under one `GET /metrics`.
//!
//! Conventions follow the exposition-format spec:
//!
//! * Metric names are sanitized ([`sanitize_name`]): the workspace's
//!   dotted names (`serve.requests_shed`) become underscore names
//!   (`serve_requests_shed`); every name is prefixed `crossmine_`.
//! * Counters render as `_total`-suffixed monotonic series.
//! * The log₂ [`Histogram`] renders as a native Prometheus histogram:
//!   cumulative `_bucket{le="..."}` series over the power-of-two bucket
//!   bounds, plus `_sum` and `_count`. Empty interior buckets are elided
//!   (the format permits sparse buckets as long as counts are cumulative)
//!   but `le="+Inf"` is always present, and — because the top log₂ bucket
//!   absorbs everything up to `u64::MAX` — that top bucket *is* the
//!   `+Inf` bucket rather than an `le="18446744073709551615"` artifact.
//! * A histogram with zero samples still emits its `_sum` and `_count`
//!   (both 0) so dashboards can tell "no samples yet" from "series
//!   missing".
//! * Alongside each histogram, pre-computed quantile gauges
//!   (`_p50`/`_p99`, bucket-upper-bound estimates) are exposed for
//!   dashboards that want quantiles without a PromQL `histogram_quantile`.

use std::fmt::Write as _;

use crate::metrics::{bucket_upper_bound, Histogram, MetricsRegistry, NUM_BUCKETS};

/// Prefix every exposed metric name carries.
pub const METRIC_PREFIX: &str = "crossmine_";

/// Maps a workspace metric name (`serve.queue_wait_us`) to a valid
/// prefixed Prometheus name (`crossmine_serve_queue_wait_us`). Characters
/// outside `[a-zA-Z0-9_:]` become `_`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(METRIC_PREFIX.len() + name.len());
    out.push_str(METRIC_PREFIX);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition spec (backslash, quote,
/// newline). Escaping order matters: the backslash case must not
/// re-escape the backslashes this function itself emits, which the
/// per-character match guarantees.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Maps an arbitrary label name onto a valid exposition label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`): invalid characters become `_`, and a
/// leading digit gains a `_` prefix. Label names have no escape syntax
/// in the text format, so sanitizing is the only safe option.
pub fn sanitize_label_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()) {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders a `{k="v",...}` label block with sanitized names and escaped
/// values — the one place label pairs become exposition text, so no
/// caller can emit an invalid document through a hostile value.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_name(k), escape_label_value(v)))
        .collect();
    format!("{{{}}}", rendered.join(","))
}

/// An append-only builder for one exposition document. All `write_*`
/// methods sanitize the metric name and emit the `# TYPE` header.
#[derive(Debug, Default)]
pub struct PromWriter {
    buf: String,
    /// Sanitized names whose `# TYPE` header has been emitted by a
    /// labeled-series writer, so many samples share one header.
    labeled_headers: Vec<String>,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.buf
    }

    /// Emits a monotonic counter as `<name>_total`.
    pub fn write_counter(&mut self, name: &str, help: &str, value: u64) {
        let n = sanitize_name(name);
        let _ = writeln!(self.buf, "# HELP {n}_total {help}");
        let _ = writeln!(self.buf, "# TYPE {n}_total counter");
        let _ = writeln!(self.buf, "{n}_total {value}");
    }

    /// Emits a gauge.
    pub fn write_gauge(&mut self, name: &str, help: &str, value: i64) {
        let n = sanitize_name(name);
        let _ = writeln!(self.buf, "# HELP {n} {help}");
        let _ = writeln!(self.buf, "# TYPE {n} gauge");
        let _ = writeln!(self.buf, "{n} {value}");
    }

    /// Emits a gauge with a float value (e.g. uptime seconds).
    pub fn write_gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        let n = sanitize_name(name);
        let _ = writeln!(self.buf, "# HELP {n} {help}");
        let _ = writeln!(self.buf, "# TYPE {n} gauge");
        let _ = writeln!(self.buf, "{n} {value}");
    }

    /// Emits an info-style metric: constant value 1 with identifying
    /// labels, the idiom Prometheus uses for build metadata
    /// (`crossmine_buildinfo{version="0.1.0",git_sha="..."} 1`).
    pub fn write_info(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) {
        let n = sanitize_name(name);
        let _ = writeln!(self.buf, "# HELP {n} {help}");
        let _ = writeln!(self.buf, "# TYPE {n} gauge");
        let _ = writeln!(self.buf, "{n}{} 1", render_labels(labels));
    }

    /// Emits one sample of a labeled counter series (`<name>_total{...}`).
    /// The `# HELP`/`# TYPE` header is emitted on the first sample of
    /// each name only — one header, many series, per the format spec.
    pub fn write_counter_labeled(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: u64,
    ) {
        let n = format!("{}_total", sanitize_name(name));
        if !self.labeled_headers.contains(&n) {
            let _ = writeln!(self.buf, "# HELP {n} {help}");
            let _ = writeln!(self.buf, "# TYPE {n} counter");
            self.labeled_headers.push(n.clone());
        }
        let _ = writeln!(self.buf, "{n}{} {value}", render_labels(labels));
    }

    /// Emits one sample of a labeled gauge series (see
    /// [`write_counter_labeled`](Self::write_counter_labeled)).
    pub fn write_gauge_labeled(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: i64,
    ) {
        let n = sanitize_name(name);
        if !self.labeled_headers.contains(&n) {
            let _ = writeln!(self.buf, "# HELP {n} {help}");
            let _ = writeln!(self.buf, "# TYPE {n} gauge");
            self.labeled_headers.push(n.clone());
        }
        let _ = writeln!(self.buf, "{n}{} {value}", render_labels(labels));
    }

    /// Emits one log₂ [`Histogram`] as a Prometheus histogram (cumulative
    /// `le` buckets, `_sum`, `_count`) followed by `_p50`/`_p99` quantile
    /// gauges. Zero-sample histograms still emit `_sum`, `_count`, and the
    /// `+Inf` bucket.
    pub fn write_histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        self.write_histogram_buckets(name, help, &h.bucket_counts(), h.sum(), h.count());
        self.write_quantile_gauges(name, h.quantile(0.50), h.quantile(0.99));
    }

    /// [`write_histogram`](Self::write_histogram) from raw parts, for
    /// callers that hold a snapshot instead of a live histogram.
    pub fn write_histogram_buckets(
        &mut self,
        name: &str,
        help: &str,
        buckets: &[u64; NUM_BUCKETS],
        sum: u64,
        count: u64,
    ) {
        let n = sanitize_name(name);
        let _ = writeln!(self.buf, "# HELP {n} {help}");
        let _ = writeln!(self.buf, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        // Interior buckets: sparse (empty ones elided). The final log₂
        // bucket is deliberately *not* rendered with its numeric upper
        // bound — it covers everything to u64::MAX, so it is the +Inf
        // bucket below.
        for (i, &c) in buckets.iter().enumerate().take(NUM_BUCKETS - 1) {
            if c == 0 {
                continue;
            }
            cumulative += c;
            let _ =
                writeln!(self.buf, "{n}_bucket{{le=\"{}\"}} {cumulative}", bucket_upper_bound(i));
        }
        let _ = writeln!(self.buf, "{n}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(self.buf, "{n}_sum {sum}");
        let _ = writeln!(self.buf, "{n}_count {count}");
    }

    /// Emits `_p50`/`_p99` quantile gauges for a histogram-shaped metric.
    pub fn write_quantile_gauges(&mut self, name: &str, p50: u64, p99: u64) {
        let n = sanitize_name(name);
        for (q, v) in [("p50", p50), ("p99", p99)] {
            let _ = writeln!(self.buf, "# TYPE {n}_{q} gauge");
            let _ = writeln!(self.buf, "{n}_{q} {v}");
        }
    }

    /// Appends every metric of `registry`: counters, gauges, value
    /// histograms, and span histograms (span durations are nanoseconds;
    /// their names gain a `_ns` suffix to say so).
    pub fn write_registry(&mut self, registry: &MetricsRegistry) {
        self.write_registry_except(registry, &[]);
    }

    /// Like [`write_registry`](Self::write_registry), but skips metrics
    /// whose (unsanitized) names appear in `skip`. Callers use this when
    /// they already rendered some quantities from a more authoritative
    /// source — a Prometheus document must not define a name twice.
    pub fn write_registry_except(&mut self, registry: &MetricsRegistry, skip: &[&str]) {
        for (name, v) in registry.counter_values() {
            if !skip.contains(&name) {
                self.write_counter(name, "workspace counter", v);
            }
        }
        for (name, v) in registry.gauge_values() {
            if !skip.contains(&name) {
                self.write_gauge(name, "workspace gauge", v);
            }
        }
        for (name, h) in registry.histogram_handles() {
            if !skip.contains(&name) {
                self.write_histogram(name, "workspace histogram", &h);
            }
        }
        for (name, h) in registry.span_handles() {
            if !skip.contains(&name) {
                self.write_histogram(&format!("{name}_ns"), "span duration (ns)", &h);
            }
        }
    }
}

/// Renders `registry` as one complete exposition document.
pub fn render_registry(registry: &MetricsRegistry) -> String {
    let mut w = PromWriter::new();
    w.write_registry(registry);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scrape-stability pin: running traced request lifecycles must not
    /// add, remove, or alter anything in a metrics registry's Prometheus
    /// exposition — the trace ring, tail sampler, and exemplars live
    /// entirely outside the registry, so the `/metrics` surface with
    /// tracing disabled is byte-identical to the pre-trace surface.
    #[test]
    fn tracing_activity_never_changes_the_scrape_surface() {
        use crate::{ObsHandle, TraceConfig, Tracer, ROOT_SPAN};
        let obs = ObsHandle::enabled();
        obs.add("serve.requests", 3);
        obs.record("serve.latency_us", 250);
        let registry = obs.registry().expect("enabled handle has a registry");
        let before = render_registry(registry);
        // A full traced lifecycle: spans, attrs, an error, completion
        // (which runs the tail sampler), plus a no-op tracer.
        for tracer in [Tracer::with_config(TraceConfig::default()), Tracer::noop()] {
            let ctx = tracer.start(7);
            let t = std::time::Instant::now();
            let s = ctx.add_span("net.parse", ROOT_SPAN, t, t);
            ctx.add_span_with("serve.eval", s, t, t, &[("rows", 1u64.into())]);
            ctx.mark_error();
            let _ = ctx.complete();
        }
        let after = render_registry(registry);
        assert_eq!(before, after, "tracing leaked into the scrape surface");
    }

    #[test]
    fn names_are_sanitized_and_prefixed() {
        assert_eq!(sanitize_name("serve.requests_shed"), "crossmine_serve_requests_shed");
        assert_eq!(sanitize_name("a-b c"), "crossmine_a_b_c");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// The label-escaping pin: every character class the exposition
    /// format gives special meaning to — backslash, double quote,
    /// newline — must round-trip through exactly one escape, including
    /// pathological runs and pre-escaped input (which must NOT be
    /// double-unescapable).
    #[test]
    fn label_value_escaping_covers_every_special_character() {
        assert_eq!(escape_label_value(""), "");
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("\\"), "\\\\");
        assert_eq!(escape_label_value("\\\\"), "\\\\\\\\");
        assert_eq!(escape_label_value("\""), "\\\"");
        assert_eq!(escape_label_value("\n"), "\\n");
        assert_eq!(escape_label_value("\n\n"), "\\n\\n");
        // Already-escaped-looking input gains another layer (the format
        // has no idempotent escape; re-escaping is the correct behavior).
        assert_eq!(escape_label_value("\\n"), "\\\\n");
        assert_eq!(escape_label_value("\\\""), "\\\\\\\"");
        // Other control/unicode characters pass through untouched.
        assert_eq!(escape_label_value("t\tb √"), "t\tb √");
    }

    #[test]
    fn label_names_sanitize_to_the_legal_charset() {
        assert_eq!(sanitize_label_name("shard"), "shard");
        assert_eq!(sanitize_label_name("shard-id"), "shard_id");
        assert_eq!(sanitize_label_name("shard.0"), "shard_0");
        assert_eq!(sanitize_label_name("0shard"), "_0shard");
        assert_eq!(sanitize_label_name(""), "_");
        assert_eq!(sanitize_label_name("lock name"), "lock_name");
    }

    /// A hostile label value can never produce an invalid exposition
    /// document through the labeled writers: the emitted line must stay
    /// a single line and keep its quotes balanced.
    #[test]
    fn labeled_series_survive_hostile_label_values() {
        let mut w = PromWriter::new();
        w.write_counter_labeled(
            "profile.lock_waits",
            "lock wait",
            &[("lock", "queue\"inner\\path\nnext")],
            3,
        );
        w.write_gauge_labeled("shard.depth", "depth", &[("shard", "0")], 5);
        let text = w.finish();
        let sample = text
            .lines()
            .find(|l| l.starts_with("crossmine_profile_lock_waits_total{"))
            .expect("sample line present");
        assert_eq!(
            sample,
            "crossmine_profile_lock_waits_total{lock=\"queue\\\"inner\\\\path\\nnext\"} 3"
        );
        // Unescaped quotes (a parser's view: `\"` is content) must be
        // exactly the value's delimiters.
        let unescaped_quotes = sample.replace("\\\\", "").replace("\\\"", "").matches('"').count();
        assert_eq!(unescaped_quotes, 2, "unbalanced quotes: {sample}");
        assert!(text.contains("crossmine_shard_depth{shard=\"0\"} 5"), "{text}");
    }

    /// Labeled series share one `# TYPE` header per name, however many
    /// samples are written — a duplicate header is an invalid document.
    #[test]
    fn labeled_series_emit_one_header_per_name() {
        let mut w = PromWriter::new();
        for shard in 0..3 {
            let v = shard.to_string();
            w.write_counter_labeled("shard.requests", "per-shard", &[("shard", &v)], 10);
            w.write_gauge_labeled("shard.queue_depth", "per-shard", &[("shard", &v)], 1);
        }
        let text = w.finish();
        assert_eq!(text.matches("# TYPE crossmine_shard_requests_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE crossmine_shard_queue_depth gauge").count(), 1);
        assert_eq!(text.matches("crossmine_shard_requests_total{shard=").count(), 3);
    }

    #[test]
    fn counter_and_gauge_render_with_type_headers() {
        let mut w = PromWriter::new();
        w.write_counter("serve.requests", "requests admitted", 7);
        w.write_gauge("queue.depth", "current depth", -2);
        let text = w.finish();
        assert!(text.contains("# TYPE crossmine_serve_requests_total counter"), "{text}");
        assert!(text.contains("crossmine_serve_requests_total 7"), "{text}");
        assert!(text.contains("# TYPE crossmine_queue_depth gauge"), "{text}");
        assert!(text.contains("crossmine_queue_depth -2"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_le_labels() {
        let h = Histogram::new();
        for v in [1u64, 1, 3, 100] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.write_histogram("latency.us", "latency", &h);
        let text = w.finish();
        // 1,1 in bucket le=1; 3 in le=3; 100 in le=127; cumulative.
        assert!(text.contains("crossmine_latency_us_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("crossmine_latency_us_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("crossmine_latency_us_bucket{le=\"127\"} 4"), "{text}");
        assert!(text.contains("crossmine_latency_us_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("crossmine_latency_us_sum 105"), "{text}");
        assert!(text.contains("crossmine_latency_us_count 4"), "{text}");
        // Quantile gauges ride along.
        assert!(text.contains("crossmine_latency_us_p50 1"), "{text}");
        assert!(text.contains("crossmine_latency_us_p99 127"), "{text}");
    }

    #[test]
    fn zero_count_histogram_still_emits_sum_count_and_inf() {
        let h = Histogram::new();
        let mut w = PromWriter::new();
        w.write_histogram("empty.h", "empty", &h);
        let text = w.finish();
        assert!(text.contains("crossmine_empty_h_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("crossmine_empty_h_sum 0"), "{text}");
        assert!(text.contains("crossmine_empty_h_count 0"), "{text}");
    }

    #[test]
    fn top_bucket_renders_as_inf_not_overflow_bound() {
        let h = Histogram::new();
        h.record(1u64 << 62); // lands in the top (overflow) log₂ bucket
        let mut w = PromWriter::new();
        w.write_histogram("big.h", "big", &h);
        let text = w.finish();
        // The top bucket's numeric upper bound (2^39 - 1) must never
        // appear as an `le` label: the bucket holds everything beyond it.
        let overflow_bound = format!("le=\"{}\"", bucket_upper_bound(NUM_BUCKETS - 1));
        assert!(!text.contains(&overflow_bound), "top bucket leaked {overflow_bound}:\n{text}");
        assert!(text.contains("crossmine_big_h_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("crossmine_big_h_count 1"), "{text}");
    }

    #[test]
    fn info_metric_renders_labels() {
        let mut w = PromWriter::new();
        w.write_info("buildinfo", "build metadata", &[("version", "0.1.0"), ("git_sha", "abc")]);
        let text = w.finish();
        assert!(
            text.contains("crossmine_buildinfo{version=\"0.1.0\",git_sha=\"abc\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn count_store_metrics_export_under_stable_names() {
        // The learner flushes its sufficient-statistics count store into
        // these exact metric names; dashboards scrape the sanitized forms,
        // so renames here are breaking changes.
        let r = MetricsRegistry::new();
        r.counter("stats.cache_hits").add(12);
        r.counter("stats.cache_misses").add(4);
        r.counter("stats.cache_evictions").add(1);
        r.gauge("stats.cache_bytes").set(65_536);
        let text = render_registry(&r);
        assert!(text.contains("crossmine_stats_cache_hits_total 12"), "{text}");
        assert!(text.contains("crossmine_stats_cache_misses_total 4"), "{text}");
        assert!(text.contains("crossmine_stats_cache_evictions_total 1"), "{text}");
        assert!(text.contains("crossmine_stats_cache_bytes 65536"), "{text}");
    }

    #[test]
    fn registry_renders_every_metric_kind() {
        let r = MetricsRegistry::new();
        r.counter("c.one").add(3);
        r.gauge("g.one").set(5);
        r.histogram("h.one").record(9);
        r.span_histogram("s.one").record(1_000);
        let text = render_registry(&r);
        assert!(text.contains("crossmine_c_one_total 3"), "{text}");
        assert!(text.contains("crossmine_g_one 5"), "{text}");
        assert!(text.contains("crossmine_h_one_count 1"), "{text}");
        assert!(text.contains("crossmine_s_one_ns_count 1"), "{text}");
    }
}
