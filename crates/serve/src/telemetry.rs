//! The live telemetry surface: a minimal HTTP/1.1 endpoint exposing the
//! server's metrics, health, and build metadata to anything that can
//! speak `curl` — Prometheus scrapers first among them.
//!
//! Off by default: [`ServerConfig::telemetry_addr`] is `None`, no thread
//! is spawned, and the request path pays nothing. When an address is
//! configured, [`PredictionServer::start`] binds a
//! [`std::net::TcpListener`] and spawns **one** telemetry thread that
//! serves three routes:
//!
//! * `GET /metrics` — Prometheus text exposition of the serve aggregate
//!   ([`ServeMetrics`] counters, latency/batch/queue histograms with
//!   cumulative `le` buckets, quantile gauges), the model registry's swap
//!   count, `serve_uptime_seconds`, `crossmine_buildinfo`, and — when the
//!   server runs with an enabled [`ObsHandle`] — every metric of the obs
//!   registry.
//! * `GET /healthz` — the admission state machine, one word:
//!   `serving` (200), `degraded` (200; degradation events — sheds,
//!   deadline expiries, worker restarts — occurred since the previous
//!   health probe), or `shutting-down` (503; `begin_shutdown` has closed
//!   admission and the queue is draining).
//! * `GET /buildinfo` — JSON build + process metadata: version, git SHA,
//!   uptime, current model epoch, swap count.
//!
//! The thread polls a nonblocking accept loop (5 ms idle sleep — scrape
//! endpoints are latency-insensitive) and exits when the owning
//! [`PredictionServer`] is shut down or dropped. It intentionally keeps
//! serving *during* the drain phase so an external prober watching
//! `/healthz` observes the `shutting-down` state instead of a vanished
//! endpoint.
//!
//! [`ServerConfig::telemetry_addr`]: crate::server::ServerConfig::telemetry_addr
//! [`PredictionServer`]: crate::server::PredictionServer
//! [`PredictionServer::start`]: crate::server::PredictionServer::start
//! [`ObsHandle`]: crossmine_obs::ObsHandle

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossmine_net::http::{parse_request, write_response, HttpLimits};
use crossmine_net::NetMetrics;
use crossmine_obs::{process_stats, ObsHandle, Profiler, PromWriter, Tracer};

use crate::metrics::{bucket_upper_bound, ServeMetrics, NUM_BUCKETS};
use crate::registry::ModelRegistry;

/// Most traces one `/trace` (or `/trace/chrome`) response renders. The
/// ring is bounded anyway ([`crossmine_obs::TraceConfig::ring_capacity`],
/// default 256); this just caps the response body independently of how
/// large an operator configured the ring.
const TRACE_RENDER_LIMIT: usize = 256;

/// Compile-time build metadata exposed through `/buildinfo` and the
/// `crossmine_buildinfo` info metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildInfo {
    /// Crate version (`CARGO_PKG_VERSION`).
    pub version: &'static str,
    /// Git commit SHA, when the build set `CROSSMINE_GIT_SHA`; otherwise
    /// `"unknown"`.
    pub git_sha: &'static str,
}

impl BuildInfo {
    /// The metadata baked into this binary.
    pub fn current() -> Self {
        BuildInfo {
            version: env!("CARGO_PKG_VERSION"),
            git_sha: option_env!("CROSSMINE_GIT_SHA").unwrap_or("unknown"),
        }
    }
}

impl std::fmt::Display for BuildInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "crossmine {} ({})", self.version, self.git_sha)
    }
}

/// The admission state machine as `/healthz` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Admission open, no recent degradation events.
    Serving,
    /// Admission open, but degradation events (sheds, deadline expiries,
    /// worker restarts) occurred since the previous health probe.
    Degraded,
    /// `begin_shutdown` has closed admission; the queue is draining.
    ShuttingDown,
}

impl HealthState {
    /// The one-word body `/healthz` answers with.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Serving => "serving",
            HealthState::Degraded => "degraded",
            HealthState::ShuttingDown => "shutting-down",
        }
    }

    /// The HTTP status `/healthz` answers with: a draining server is not
    /// ready for new work (503); a degraded one still is (200).
    pub fn http_status(self) -> u32 {
        match self {
            HealthState::Serving | HealthState::Degraded => 200,
            HealthState::ShuttingDown => 503,
        }
    }
}

/// Everything the telemetry thread reads; shared with the owning server.
pub(crate) struct TelemetryShared {
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) obs: ObsHandle,
    /// Set by `begin_shutdown`; flips `/healthz` to `shutting-down`.
    pub(crate) admission_closed: Arc<AtomicBool>,
    /// Server start time, for `serve_uptime_seconds`.
    pub(crate) started: Instant,
    /// Set by the owning server to stop the accept loop.
    pub(crate) stop: AtomicBool,
    /// Wire-front-end counters, when [`ServerConfig::net`] is configured;
    /// rendered as `crossmine_net_*`.
    ///
    /// [`ServerConfig::net`]: crate::server::ServerConfig::net
    pub(crate) net_metrics: Option<Arc<NetMetrics>>,
    /// The server's tracer; backs `GET /trace` (JSONL), `/trace/chrome`
    /// (Chrome trace-event JSON), and `/trace/exemplars`. A no-op tracer
    /// makes those routes answer 404 and leaves `/metrics` byte-identical
    /// to the tracing-free surface.
    pub(crate) tracer: Tracer,
    /// The server's profiler; backs `GET /profile` (collapsed stacks),
    /// `/profile/flamegraph` (SVG), and `/profile/heap`. A no-op profiler
    /// makes those routes answer 404 and leaves `/metrics` byte-identical
    /// to the profiling-free surface.
    pub(crate) profiler: Profiler,
    /// Per-shard sources when this endpoint fronts a
    /// [`ShardRouter`](crate::shard::ShardRouter). Empty for a standalone
    /// server (the single-server fields above are authoritative then);
    /// non-empty, the `serve_*` series become cross-shard aggregates and
    /// per-shard `crossmine_shard_<k>_*` series ride alongside.
    pub(crate) shards: Vec<ShardTelemetry>,
}

/// One shard's metric sources, for the router-owned telemetry endpoint.
pub(crate) struct ShardTelemetry {
    pub(crate) shard: u32,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) registry: Arc<ModelRegistry>,
}

impl TelemetryShared {
    /// Sums `f` over the metric sources: the one server, or every shard.
    fn counter_sum(&self, f: impl Fn(&ServeMetrics) -> u64) -> u64 {
        if self.shards.is_empty() {
            f(&self.metrics)
        } else {
            self.shards.iter().map(|s| f(&s.metrics)).sum()
        }
    }

    /// The served model epoch: the shard minimum when sharded (the oldest
    /// model still answering — it lags the newest mid-roll), the single
    /// registry's epoch otherwise.
    fn model_epoch(&self) -> u64 {
        if self.shards.is_empty() {
            self.registry.current_epoch()
        } else {
            self.shards.iter().map(|s| s.registry.current_epoch()).min().unwrap_or(0)
        }
    }

    /// Total hot swaps across all registry slots.
    fn model_swaps(&self) -> u64 {
        if self.shards.is_empty() {
            self.registry.swap_count()
        } else {
            self.shards.iter().map(|s| s.registry.swap_count()).sum()
        }
    }

    fn degradations(&self) -> u64 {
        self.counter_sum(|m| {
            m.shed.load(Ordering::Relaxed)
                + m.deadline_expired.load(Ordering::Relaxed)
                + m.worker_restarts.load(Ordering::Relaxed)
        })
    }

    /// The current health state, given the degradation count observed at
    /// the previous probe.
    fn health(&self, prev_degradations: u64) -> HealthState {
        if self.admission_closed.load(Ordering::Acquire) {
            HealthState::ShuttingDown
        } else if self.degradations() > prev_degradations {
            HealthState::Degraded
        } else {
            HealthState::Serving
        }
    }

    fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Renders the full `/metrics` document. Fronting a single server,
    /// the `serve_*` series read that server's aggregate (byte-identical
    /// to the pre-shard surface); fronting a [`ShardRouter`]
    /// (`self.shards` non-empty) they become cross-shard sums (histograms
    /// merged bucket-wise) and per-shard `crossmine_shard_<k>_*` series
    /// follow.
    ///
    /// [`ShardRouter`]: crate::shard::ShardRouter
    pub(crate) fn render_metrics(&self) -> String {
        let mut w = PromWriter::new();
        w.write_counter(
            "serve.requests",
            "requests admitted",
            self.counter_sum(|m| m.requests.load(Ordering::Relaxed)),
        );
        w.write_counter(
            "serve.errors",
            "undeliverable replies",
            self.counter_sum(|m| m.errors.load(Ordering::Relaxed)),
        );
        w.write_counter(
            "serve.batches",
            "batches scored",
            self.counter_sum(|m| m.batches.load(Ordering::Relaxed)),
        );
        w.write_counter(
            "serve.requests_shed",
            "requests shed at admission (queue full)",
            self.counter_sum(|m| m.shed.load(Ordering::Relaxed)),
        );
        w.write_counter(
            "serve.deadline_exceeded",
            "requests expired in queue",
            self.counter_sum(|m| m.deadline_expired.load(Ordering::Relaxed)),
        );
        w.write_counter(
            "serve.worker_restarts",
            "workers restarted after caught scoring panics",
            self.counter_sum(|m| m.worker_restarts.load(Ordering::Relaxed)),
        );
        w.write_counter("serve.model_swaps", "model hot swaps", self.model_swaps());
        w.write_gauge(
            "serve.model_epoch",
            "epoch of the currently served model (oldest shard when sharded)",
            self.model_epoch() as i64,
        );
        if self.shards.is_empty() {
            let m = &self.metrics;
            w.write_histogram(
                "serve.latency_us",
                "end-to-end request latency (enqueue to reply), microseconds",
                &m.latency_us,
            );
            w.write_histogram("serve.batch_size", "scored batch sizes", &m.batch_size);
            w.write_histogram(
                "serve.queue_depth",
                "queue depth observed at each admission",
                &m.queue_depth,
            );
        } else {
            write_merged_histogram(
                &mut w,
                "serve.latency_us",
                "end-to-end request latency (enqueue to reply), microseconds",
                self.shards.iter().map(|s| &s.metrics.latency_us),
            );
            write_merged_histogram(
                &mut w,
                "serve.batch_size",
                "scored batch sizes",
                self.shards.iter().map(|s| &s.metrics.batch_size),
            );
            write_merged_histogram(
                &mut w,
                "serve.queue_depth",
                "queue depth observed at each admission",
                self.shards.iter().map(|s| &s.metrics.queue_depth),
            );
            w.write_gauge("shard.count", "shared-nothing shards", self.shards.len() as i64);
            for s in &self.shards {
                let k = s.shard;
                let m = &s.metrics;
                w.write_counter(
                    &format!("shard.{k}.requests"),
                    "requests admitted on this shard",
                    m.requests.load(Ordering::Relaxed),
                );
                w.write_counter(
                    &format!("shard.{k}.requests_shed"),
                    "requests shed on this shard",
                    m.shed.load(Ordering::Relaxed),
                );
                w.write_counter(
                    &format!("shard.{k}.errors"),
                    "undeliverable replies on this shard",
                    m.errors.load(Ordering::Relaxed),
                );
                w.write_counter(
                    &format!("shard.{k}.batches"),
                    "batches scored on this shard",
                    m.batches.load(Ordering::Relaxed),
                );
                w.write_counter(
                    &format!("shard.{k}.deadline_exceeded"),
                    "requests expired in this shard's queue",
                    m.deadline_expired.load(Ordering::Relaxed),
                );
                w.write_counter(
                    &format!("shard.{k}.worker_restarts"),
                    "workers restarted on this shard",
                    m.worker_restarts.load(Ordering::Relaxed),
                );
                w.write_counter(
                    &format!("shard.{k}.model_swaps"),
                    "hot swaps on this shard's registry slot",
                    s.registry.swap_count(),
                );
                w.write_gauge(
                    &format!("shard.{k}.model_epoch"),
                    "epoch this shard currently serves",
                    s.registry.current_epoch() as i64,
                );
            }
        }
        if let Some(net) = &self.net_metrics {
            let n = net.snapshot();
            w.write_counter("net.accepted", "connections accepted", n.accepted);
            w.write_counter("net.closed", "connections closed", n.closed);
            w.write_counter("net.accept_shed", "connections shed at accept", n.accept_shed);
            w.write_counter("net.idle_closed", "connections reaped idle", n.idle_closed);
            w.write_counter("net.http_conns", "connections sniffed as HTTP", n.http_conns);
            w.write_counter("net.binary_conns", "connections sniffed as binary", n.binary_conns);
            w.write_counter(
                "net.unknown_conns",
                "connections speaking neither protocol",
                n.unknown_conns,
            );
            w.write_counter("net.http_requests", "predict requests over HTTP", n.http_requests);
            w.write_counter(
                "net.binary_requests",
                "predict requests over binary frames",
                n.binary_requests,
            );
            w.write_counter("net.wire_errors", "non-200 wire responses", n.wire_errors);
            w.write_counter("net.bytes_read", "bytes read from client sockets", n.bytes_read);
            w.write_counter(
                "net.bytes_written",
                "bytes written to client sockets",
                n.bytes_written,
            );
            w.write_gauge(
                "net.open_conns",
                "currently open connections",
                // Saturating: the two counters are loaded separately, so a
                // connection closing between the loads could make closed
                // momentarily exceed accepted.
                n.accepted.saturating_sub(n.closed) as i64,
            );
        }
        // Process-level gauges from /proc/self — independent of whether
        // the profiler (or any obs handle) is enabled, and silently absent
        // on platforms without procfs.
        if let Some(ps) = process_stats() {
            w.write_gauge(
                "process.resident_memory_bytes",
                "resident set size of this process",
                ps.resident_bytes as i64,
            );
            w.write_gauge("process.threads", "OS threads in this process", ps.threads as i64);
        }
        let uptime = self.uptime_seconds();
        w.write_gauge_f64("serve.uptime_seconds", "seconds since the server started", uptime);
        // Mirror the uptime into the obs registry (when enabled) so
        // ServeReport and the JSONL export carry it too.
        self.obs.gauge_set("serve.uptime_seconds", uptime as i64);
        let build = BuildInfo::current();
        w.write_info(
            "buildinfo",
            "build metadata",
            &[("version", build.version), ("git_sha", build.git_sha)],
        );
        if let Some(registry) = self.obs.registry() {
            // Quantities already rendered above from the serve aggregate
            // (the more authoritative source — maintained even with a noop
            // handle) must not appear twice in one exposition document.
            // The net.* counters are rendered above from the live
            // NetMetrics (authoritative; the obs mirror is published on a
            // 100 ms cadence) — skip the mirrored copies too.
            w.write_registry_except(
                registry,
                &[
                    "serve.requests_shed",
                    "serve.deadline_exceeded",
                    "serve.worker_restarts",
                    "serve.uptime_seconds",
                    "net.accepted",
                    "net.closed",
                    "net.accept_shed",
                    "net.idle_closed",
                    "net.http_conns",
                    "net.binary_conns",
                    "net.unknown_conns",
                    "net.http_requests",
                    "net.binary_requests",
                    "net.wire_errors",
                    "net.bytes_read",
                    "net.bytes_written",
                    "net.open_conns",
                ],
            );
        }
        w.finish()
    }

    /// Renders `GET /trace`: the tail-sampled trace ring as JSONL, newest
    /// first, one complete span tree per line.
    fn render_trace_jsonl(&self) -> String {
        let mut out = Vec::new();
        // Writing into a Vec<u8> cannot fail.
        let _ = self.tracer.write_recent_jsonl(TRACE_RENDER_LIMIT, &mut out);
        String::from_utf8(out).unwrap_or_default()
    }

    /// Renders `GET /trace/exemplars`: the histogram-bucket → `TraceId`
    /// joins for `serve.latency_us` and (when the wire front end runs)
    /// `net.request_us`, as JSON. `le` is the bucket's inclusive upper
    /// bound in microseconds; resolve a `trace_id` via `/trace`.
    fn render_exemplars(&self) -> String {
        fn write_set(out: &mut String, name: &str, pairs: &[(u64, crossmine_obs::TraceId)]) {
            out.push_str(&format!("\"{name}\":["));
            for (i, (le, id)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"le\":{},\"trace_id\":{}}}", le, id.0));
            }
            out.push(']');
        }
        let mut out = String::from("{");
        if self.shards.is_empty() {
            write_set(&mut out, "serve_latency_us", &self.metrics.latency_exemplars.nonempty());
        } else {
            // Sharded: concatenate every shard's bucket→trace joins; the
            // shard a trace ran on is in its `serve.batch` span's `shard`
            // attribute.
            let merged: Vec<_> =
                self.shards.iter().flat_map(|s| s.metrics.latency_exemplars.nonempty()).collect();
            write_set(&mut out, "serve_latency_us", &merged);
        }
        if let Some(net) = &self.net_metrics {
            out.push(',');
            write_set(&mut out, "net_request_us", &net.request_exemplars.nonempty());
        }
        out.push_str("}\n");
        out
    }

    fn render_buildinfo(&self) -> String {
        let build = BuildInfo::current();
        format!(
            "{{\"version\":\"{}\",\"git_sha\":\"{}\",\"uptime_seconds\":{:.3},\
             \"model_epoch\":{},\"model_swaps\":{},\"shards\":{}}}\n",
            build.version,
            build.git_sha,
            self.uptime_seconds(),
            self.model_epoch(),
            self.model_swaps(),
            self.shards.len().max(1)
        )
    }
}

/// Writes one histogram-shaped series summed bucket-wise over several
/// sources — how the router's endpoint keeps the single-server
/// `serve_latency_us` (etc.) names meaningful across shards. Quantile
/// gauges are estimated from the merged buckets, same bucket-upper-bound
/// convention as [`crossmine_obs::metrics::Histogram::quantile`].
fn write_merged_histogram<'a>(
    w: &mut PromWriter,
    name: &str,
    help: &str,
    sources: impl Iterator<Item = &'a crate::metrics::Histogram>,
) {
    let mut buckets = [0u64; NUM_BUCKETS];
    let mut sum = 0u64;
    let mut count = 0u64;
    for h in sources {
        for (acc, v) in buckets.iter_mut().zip(h.bucket_counts().iter()) {
            *acc += v;
        }
        sum += h.sum();
        count += h.count();
    }
    w.write_histogram_buckets(name, help, &buckets, sum, count);
    let quantile = |q: f64| -> u64 {
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    };
    w.write_quantile_gauges(name, quantile(0.50), quantile(0.99));
}

/// A running telemetry endpoint, owned by the server.
pub(crate) struct TelemetryHandle {
    pub(crate) shared: Arc<TelemetryShared>,
    pub(crate) addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle").field("addr", &self.addr).finish()
    }
}

impl TelemetryHandle {
    /// Binds `addr` and spawns the accept loop. Binding to port 0 picks a
    /// free port; the actual address is in `self.addr`.
    pub(crate) fn start(
        addr: SocketAddr,
        shared: Arc<TelemetryShared>,
    ) -> std::io::Result<TelemetryHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("crossmine-telemetry".into())
            .spawn(move || accept_loop(&listener, &thread_shared))?;
        Ok(TelemetryHandle { shared, addr: bound, thread: Some(thread) })
    }

    /// Stops the accept loop and joins the thread.
    pub(crate) fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TelemetryHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &TelemetryShared) {
    // Degradation count at the previous health probe: `/healthz` reports
    // `degraded` only when events occurred since the last probe, so a
    // single historical shed doesn't condemn the server forever.
    let mut prev_degradations = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, shared, &mut prev_degradations),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Transient accept errors (e.g. aborted handshakes) are not
            // worth killing the endpoint over.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &TelemetryShared, prev_degradations: &mut u64) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    // Parse with the workspace's one HTTP parser (crossmine-net): the
    // query string is stripped and framing errors are typed.
    let limits = HttpLimits::default();
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let req = loop {
        match parse_request(&buf, &limits) {
            Ok(Some((req, _consumed))) => break req,
            Ok(None) => match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => return,
            },
            Err(_) => {
                let mut out = Vec::new();
                write_response(
                    &mut out,
                    400,
                    "Bad Request",
                    "text/plain",
                    &[],
                    b"bad request\n",
                    false,
                );
                let _ = stream.write_all(&out);
                return;
            }
        }
    };

    let (status, content_type, body) = if req.method != "GET" {
        (405, "text/plain", "method not allowed\n".to_string())
    } else {
        match req.path.as_str() {
            "/metrics" => {
                (200, "text/plain; version=0.0.4; charset=utf-8", shared.render_metrics())
            }
            "/healthz" => {
                let health = shared.health(*prev_degradations);
                *prev_degradations = shared.degradations();
                (health.http_status(), "text/plain", format!("{}\n", health.as_str()))
            }
            "/buildinfo" => (200, "application/json", shared.render_buildinfo()),
            "/trace" if shared.tracer.is_enabled() => {
                (200, "application/x-ndjson", shared.render_trace_jsonl())
            }
            "/trace/chrome" if shared.tracer.is_enabled() => {
                (200, "application/json", shared.tracer.render_chrome(TRACE_RENDER_LIMIT))
            }
            "/trace/exemplars" if shared.tracer.is_enabled() => {
                (200, "application/json", shared.render_exemplars())
            }
            // Tracing off: the routes exist but answer 404, so a scraper
            // probing them cannot tell the surface apart from a build
            // without tracing at all.
            "/trace" | "/trace/chrome" | "/trace/exemplars" => {
                (404, "text/plain", "tracing disabled\n".into())
            }
            "/profile" if shared.profiler.is_enabled() => {
                (200, "text/plain; charset=utf-8", shared.profiler.collapsed())
            }
            "/profile/flamegraph" if shared.profiler.is_enabled() => {
                (200, "image/svg+xml", shared.profiler.flamegraph_svg())
            }
            "/profile/heap" if shared.profiler.is_enabled() => {
                (200, "text/plain; charset=utf-8", shared.profiler.heap_report())
            }
            // Profiling off: same 404 contract as the trace routes.
            "/profile" | "/profile/flamegraph" | "/profile/heap" => {
                (404, "text/plain", "profiling disabled\n".into())
            }
            _ => (
                404,
                "text/plain",
                "not found (try /metrics, /healthz, /buildinfo, /trace, /profile)\n".into(),
            ),
        }
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Service Unavailable",
    };
    let mut out = Vec::with_capacity(128 + body.len());
    write_response(&mut out, status as u16, reason, content_type, &[], body.as_bytes(), false);
    let _ = stream.write_all(&out);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buildinfo_has_version() {
        let b = BuildInfo::current();
        assert_eq!(b.version, env!("CARGO_PKG_VERSION"));
        assert!(!b.git_sha.is_empty());
        assert!(b.to_string().contains(b.version));
    }

    #[test]
    fn health_states_map_to_words_and_statuses() {
        assert_eq!(HealthState::Serving.as_str(), "serving");
        assert_eq!(HealthState::Degraded.as_str(), "degraded");
        assert_eq!(HealthState::ShuttingDown.as_str(), "shutting-down");
        assert_eq!(HealthState::Serving.http_status(), 200);
        assert_eq!(HealthState::Degraded.http_status(), 200);
        assert_eq!(HealthState::ShuttingDown.http_status(), 503);
    }
}
