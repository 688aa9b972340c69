//! Network-path metrics: per-connection and per-protocol counters plus
//! stage latency histograms, all flowing through `crossmine-obs` so the
//! existing `/metrics` endpoint exports them as `crossmine_net_*`.

use std::sync::atomic::{AtomicU64, Ordering};

use crossmine_obs::{Exemplars, ObsHandle};

/// Relaxed-ordering counters for the hot poll loop, mirrored into the
/// obs registry for export. Counters are monotonic; gauges are derived
/// (`open = accepted - closed`).
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections closed (any reason).
    pub closed: AtomicU64,
    /// Connections shed at accept because the connection table was full.
    pub accept_shed: AtomicU64,
    /// Connections reaped by the idle timeout.
    pub idle_closed: AtomicU64,
    /// Connections that sniffed as HTTP.
    pub http_conns: AtomicU64,
    /// Connections that sniffed as binary.
    pub binary_conns: AtomicU64,
    /// Connections whose first byte was neither protocol.
    pub unknown_conns: AtomicU64,
    /// Predict requests parsed off HTTP connections.
    pub http_requests: AtomicU64,
    /// Predict requests parsed off binary connections.
    pub binary_requests: AtomicU64,
    /// Requests answered with a non-200 status (any protocol).
    pub wire_errors: AtomicU64,
    /// Bytes read from sockets.
    pub bytes_read: AtomicU64,
    /// Bytes written to sockets.
    pub bytes_written: AtomicU64,
    /// Most recent `TraceId` per wire-latency log2 bucket. Joined against
    /// `net.request_us` so a tail bucket resolves to a stored trace.
    pub request_exemplars: Exemplars,
}

impl NetMetrics {
    /// Bumps a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Mirrors every counter into the obs handle (called periodically by
    /// the poll thread; obs counters are set via delta to stay monotonic).
    /// Deltas are clamped at zero: a counter that moved backwards (reset
    /// after a listener restart) must not wrap into a huge u64 bump.
    pub fn publish(&self, obs: &ObsHandle, last: &mut NetCountersSnapshot) {
        let cur = self.snapshot();
        obs.add("net.accepted", cur.accepted.saturating_sub(last.accepted));
        obs.add("net.closed", cur.closed.saturating_sub(last.closed));
        obs.add("net.accept_shed", cur.accept_shed.saturating_sub(last.accept_shed));
        obs.add("net.idle_closed", cur.idle_closed.saturating_sub(last.idle_closed));
        obs.add("net.http_conns", cur.http_conns.saturating_sub(last.http_conns));
        obs.add("net.binary_conns", cur.binary_conns.saturating_sub(last.binary_conns));
        obs.add("net.unknown_conns", cur.unknown_conns.saturating_sub(last.unknown_conns));
        obs.add("net.http_requests", cur.http_requests.saturating_sub(last.http_requests));
        obs.add("net.binary_requests", cur.binary_requests.saturating_sub(last.binary_requests));
        obs.add("net.wire_errors", cur.wire_errors.saturating_sub(last.wire_errors));
        obs.add("net.bytes_read", cur.bytes_read.saturating_sub(last.bytes_read));
        obs.add("net.bytes_written", cur.bytes_written.saturating_sub(last.bytes_written));
        obs.gauge_set("net.open_conns", cur.accepted.saturating_sub(cur.closed) as i64);
        *last = cur;
    }

    /// A coherent-enough copy of all counters.
    pub fn snapshot(&self) -> NetCountersSnapshot {
        NetCountersSnapshot {
            accepted: Self::get(&self.accepted),
            closed: Self::get(&self.closed),
            accept_shed: Self::get(&self.accept_shed),
            idle_closed: Self::get(&self.idle_closed),
            http_conns: Self::get(&self.http_conns),
            binary_conns: Self::get(&self.binary_conns),
            unknown_conns: Self::get(&self.unknown_conns),
            http_requests: Self::get(&self.http_requests),
            binary_requests: Self::get(&self.binary_requests),
            wire_errors: Self::get(&self.wire_errors),
            bytes_read: Self::get(&self.bytes_read),
            bytes_written: Self::get(&self.bytes_written),
        }
    }
}

/// Point-in-time counter values (also the delta base for publishing).
/// Fields mirror [`NetMetrics`] one-to-one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct NetCountersSnapshot {
    pub accepted: u64,
    pub closed: u64,
    pub accept_shed: u64,
    pub idle_closed: u64,
    pub http_conns: u64,
    pub binary_conns: u64,
    pub unknown_conns: u64,
    pub http_requests: u64,
    pub binary_requests: u64,
    pub wire_errors: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

/// Histogram names the poll loop records (microseconds). Exported as
/// `crossmine_net_<stage>_us` by the telemetry endpoint.
pub const STAGE_ACCEPT_US: &str = "net.accept_us";
/// Time spent in one read readiness burst.
pub const STAGE_READ_US: &str = "net.read_us";
/// Time spent parsing/decoding after a read.
pub const STAGE_DECODE_US: &str = "net.decode_us";
/// Time spent in one write readiness burst.
pub const STAGE_WRITE_US: &str = "net.write_us";
/// End-to-end wire latency per request: first byte read off the socket to
/// last reply byte flushed back onto it. Recorded by the listener when a
/// request's reply bytes drain; joined to traces via
/// [`NetMetrics::request_exemplars`].
pub const STAGE_REQUEST_US: &str = "net.request_us";

#[cfg(test)]
mod tests {
    use super::*;
    use crossmine_obs::ObsHandle;

    #[test]
    fn publish_is_delta_based_and_monotonic() {
        let obs = ObsHandle::enabled();
        let m = NetMetrics::default();
        let mut last = NetCountersSnapshot::default();
        NetMetrics::add(&m.accepted, 3);
        NetMetrics::inc(&m.http_conns);
        m.publish(&obs, &mut last);
        NetMetrics::add(&m.accepted, 2);
        NetMetrics::inc(&m.closed);
        m.publish(&obs, &mut last);
        let reg = obs.registry().expect("enabled");
        let counters: std::collections::HashMap<_, _> = reg.counter_values().into_iter().collect();
        assert_eq!(counters.get("net.accepted"), Some(&5));
        assert_eq!(counters.get("net.http_conns"), Some(&1));
        assert_eq!(counters.get("net.closed"), Some(&1));
    }

    #[test]
    fn publish_clamps_backward_counters_to_zero() {
        let obs = ObsHandle::enabled();
        let m = NetMetrics::default();
        // Pretend a previous listener instance published larger values:
        // the fresh metrics struct is "behind" the delta base.
        let mut last =
            NetCountersSnapshot { accepted: 10, bytes_read: 1_000, ..Default::default() };
        NetMetrics::add(&m.accepted, 2);
        m.publish(&obs, &mut last);
        let reg = obs.registry().expect("enabled");
        let counters: std::collections::HashMap<_, _> = reg.counter_values().into_iter().collect();
        // Raw subtraction would have produced 2u64.wrapping_sub(10) ≈ u64::MAX.
        assert_eq!(counters.get("net.accepted").copied().unwrap_or(0), 0);
        assert_eq!(counters.get("net.bytes_read").copied().unwrap_or(0), 0);
        // open_conns likewise saturates instead of going hugely positive.
        let gauges: std::collections::HashMap<_, _> = reg.gauge_values().into_iter().collect();
        assert_eq!(gauges.get("net.open_conns"), Some(&2));
    }
}
