//! The unified request-construction surface of the serving API.
//!
//! [`ServeRequest`] is the one way to submit work: rows first, then
//! optional knobs, chainable in any order:
//!
//! ```
//! use std::time::Duration;
//! use crossmine_relational::Row;
//! use crossmine_serve::ServeRequest;
//!
//! let req = ServeRequest::new([Row(0), Row(1)])
//!     .deadline(Duration::from_millis(5))
//!     .shard_hint(0);
//! assert_eq!(req.rows(), &[Row(0), Row(1)]);
//! ```
//!
//! The same value drives both serving topologies:
//!
//! * [`PredictionServer::serve`] — a single server; `shard_hint` is
//!   routing advice and a single server *is* its only shard, so the hint
//!   is ignored there.
//! * [`ShardRouter::serve`] — each row is hash-routed to its shard unless
//!   `shard_hint` pins the whole request to one shard (useful for
//!   affinity tests and for callers that already partitioned their rows).
//!
//! Admission stays all-or-nothing per request: the first row the server
//! sheds fails the whole call, and the already-admitted rows are still
//! scored with their replies discarded (counted under `serve.errors`) —
//! exactly the wire front end's batch contract.
//!
//! [`PredictionServer::serve`]: crate::server::PredictionServer::serve
//! [`ShardRouter::serve`]: crate::shard::ShardRouter::serve

use std::time::Duration;

use crossmine_obs::TraceCtx;
use crossmine_relational::Row;

/// A batch of target rows to score, plus how to treat them in flight.
///
/// Construct with [`new`](Self::new) (or [`row`](Self::row) for a single
/// row), then chain the optional knobs. Missing knobs mean: no deadline,
/// a trace born at admission (no-op unless the server has a tracer), and
/// hash routing (no shard pin).
#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub(crate) rows: Vec<Row>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) trace: Option<TraceCtx>,
    pub(crate) shard_hint: Option<usize>,
}

impl ServeRequest {
    /// A request for `rows`, with no deadline, no caller trace, and hash
    /// routing.
    pub fn new(rows: impl Into<Vec<Row>>) -> Self {
        ServeRequest { rows: rows.into(), deadline: None, trace: None, shard_hint: None }
    }

    /// Convenience for the single-row case: `ServeRequest::row(r)` is
    /// `ServeRequest::new([r])`.
    pub fn row(row: Row) -> Self {
        Self::new([row])
    }

    /// Every row must *start scoring* within `deadline` of admission; a
    /// row still queued past it is answered with
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)
    /// instead of being scored. The clock starts at admission
    /// (`serve(..)`), not at request construction.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Rides the rows under an existing trace context instead of starting
    /// one per row at admission. The caller keeps ownership of completion
    /// (the worker only adds its `serve.queue_wait` / `serve.batch` /
    /// `serve.eval` spans) — the same contract the wire front end uses
    /// for connection-scoped traces.
    pub fn trace(mut self, trace: TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Pins every row of this request to shard `shard` instead of hash
    /// routing row-by-row. Validated against the router's shard count at
    /// serve time; a single [`PredictionServer`] ignores it (it is its
    /// only shard).
    ///
    /// [`PredictionServer`]: crate::server::PredictionServer
    pub fn shard_hint(mut self, shard: usize) -> Self {
        self.shard_hint = Some(shard);
        self
    }

    /// The rows this request will score, in reply order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The relative deadline, when one was set.
    pub fn deadline_within(&self) -> Option<Duration> {
        self.deadline
    }

    /// The shard pin, when one was set.
    pub fn shard_hint_value(&self) -> Option<usize> {
        self.shard_hint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_in_any_order() {
        let r = ServeRequest::new(vec![Row(3), Row(1)])
            .shard_hint(2)
            .deadline(Duration::from_millis(7));
        assert_eq!(r.rows(), &[Row(3), Row(1)]);
        assert_eq!(r.deadline_within(), Some(Duration::from_millis(7)));
        assert_eq!(r.shard_hint_value(), Some(2));
        assert!(r.trace.is_none());
    }

    #[test]
    fn defaults_are_absent() {
        let r = ServeRequest::row(Row(0));
        assert_eq!(r.rows(), &[Row(0)]);
        assert_eq!(r.deadline_within(), None);
        assert_eq!(r.shard_hint_value(), None);
    }
}
