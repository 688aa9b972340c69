//! The bridge between the wire front end (`crossmine-net`) and the
//! prediction server: implements [`Backend`] on top of the shared
//! admission path, and pins the `ServeError` → wire-status mapping.
//!
//! The mapping contract (tested below, row by row):
//!
//! | `ServeError`           | wire status | `Retry-After`? |
//! |------------------------|-------------|----------------|
//! | `Overloaded`           | 429         | yes            |
//! | `DeadlineExceeded`     | 504         | yes            |
//! | `WorkerPanicked`       | 500         | yes            |
//! | `ShuttingDown`         | 503         | no             |
//! | `InvalidConfig`        | 500         | no             |
//! | `InvalidDelta`         | 400         | no             |
//!
//! The invariant the table encodes: **a retry hint is present exactly
//! when [`ServeError::is_retryable`] is true**. Malformed requests never
//! reach this layer — the net crate answers those with `400` itself.

use std::time::Duration;

use crossmine_net::{Backend, BatchReply, Waker, WireReject, WireStatus};
use crossmine_obs::TraceCtx;
use crossmine_relational::Row;

use crate::error::ServeError;
use crate::server::{Admitter, Prediction, PredictionHandle};

/// Maps a serve-side failure onto the status both wire protocols answer
/// with. Total: every variant has exactly one row.
pub fn wire_status_for(e: &ServeError) -> WireStatus {
    match e {
        ServeError::Overloaded { .. } => WireStatus::overloaded(),
        ServeError::DeadlineExceeded { .. } => WireStatus::deadline_exceeded(),
        ServeError::WorkerPanicked => WireStatus::internal_retryable(),
        ServeError::ShuttingDown => WireStatus::shutting_down(),
        ServeError::InvalidConfig(_) => WireStatus::internal(),
        // A rejected delta is the caller's data being wrong, not the
        // server degrading: it maps to the same non-retryable 400 the net
        // layer uses for malformed requests.
        ServeError::InvalidDelta(_) => WireStatus::bad_request(),
    }
}

pub(crate) fn reject_for(e: &ServeError) -> WireReject {
    WireReject::new(wire_status_for(e), e.to_string())
}

/// One slot of an in-flight wire batch.
enum PendingSlot {
    Waiting(PredictionHandle),
    Ready(Prediction),
    Failed(ServeError),
}

/// An in-flight wire batch: one admission handle per row, resolved
/// incrementally by the poll thread.
pub struct ServePending {
    slots: Vec<PendingSlot>,
}

impl ServePending {
    /// A pending batch from already-admitted handles, in request order.
    /// Shared by [`ServeBackend`] and the shard router's backend, which
    /// admit through different paths but resolve identically.
    pub(crate) fn from_handles(handles: Vec<PredictionHandle>) -> Self {
        ServePending { slots: handles.into_iter().map(PendingSlot::Waiting).collect() }
    }
}

/// Drains whatever replies have arrived; `Some` once every row is
/// resolved. A batch with any failed row answers with the first failure
/// (request order). This is the one
/// copy of the resolution state machine — both wire backends (single
/// server and shard router) call it.
pub(crate) fn poll_pending(pending: &mut ServePending) -> Option<Result<BatchReply, WireReject>> {
    let slots = &mut pending.slots;
    let mut all_done = true;
    for slot in slots.iter_mut() {
        if let PendingSlot::Waiting(handle) = slot {
            match handle.try_wait() {
                Some(Ok(p)) => *slot = PendingSlot::Ready(p),
                Some(Err(e)) => *slot = PendingSlot::Failed(e),
                None => all_done = false,
            }
        }
    }
    if !all_done {
        return None;
    }
    let mut labels = Vec::with_capacity(slots.len());
    let mut epoch = 0u64;
    for slot in slots.iter() {
        match slot {
            PendingSlot::Ready(p) => {
                labels.push(p.label.0);
                // Rows of one wire batch can straddle a hot swap when
                // they land in different worker micro-batches; report
                // the newest epoch involved.
                epoch = epoch.max(p.epoch);
            }
            PendingSlot::Failed(e) => return Some(Err(reject_for(e))),
            PendingSlot::Waiting(_) => return None,
        }
    }
    Some(Ok(BatchReply { epoch, labels }))
}

/// [`Backend`] over the server's admission queue. A wire batch shares the
/// queue, the shedding policy, and the deadline clock with every
/// in-process submitter.
pub struct ServeBackend {
    admitter: Admitter,
}

impl ServeBackend {
    /// Wraps the server's admission path.
    pub(crate) fn new(admitter: Admitter) -> Self {
        ServeBackend { admitter }
    }
}

impl Backend for ServeBackend {
    type Pending = ServePending;

    /// Admits the batch all-or-nothing in one queue push; a rejection
    /// queues nothing and answers the whole batch with its wire status.
    /// Each row rides under the connection's trace context; the
    /// connection completes the trace when the reply bytes reach the
    /// socket, so the workers only add their spans. The worker that
    /// answers the rows wakes `waker`.
    fn submit(
        &self,
        rows: &[Row],
        deadline: Option<Duration>,
        trace: &TraceCtx,
        waker: &Waker,
    ) -> Result<ServePending, WireReject> {
        let deadline = deadline.map(|d| std::time::Instant::now() + d);
        self.admitter
            .admit_batch(rows, deadline, Some(trace), Some(waker))
            .map(ServePending::from_handles)
            .map_err(|e| reject_for(&e))
    }

    /// Resolution is shared with the shard router: see [`poll_pending`].
    fn poll(&self, pending: &mut ServePending) -> Option<Result<BatchReply, WireReject>> {
        poll_pending(pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The satellite contract: every `ServeError` variant maps to the
    /// pinned wire status, and `Retry-After` presence tracks
    /// `is_retryable` exactly.
    #[test]
    fn serve_error_wire_mapping_table() {
        let table: Vec<(ServeError, u16, bool)> = vec![
            (ServeError::Overloaded { queue_depth: 10, capacity: 10 }, 429, true),
            (ServeError::DeadlineExceeded { waited: Duration::from_millis(5) }, 504, true),
            (ServeError::WorkerPanicked, 500, true),
            (ServeError::ShuttingDown, 503, false),
            (ServeError::InvalidConfig("bad".into()), 500, false),
            (ServeError::InvalidDelta("dangling fk".into()), 400, false),
        ];
        for (err, code, retryable) in table {
            let status = wire_status_for(&err);
            assert_eq!(status.code, code, "{err:?}");
            assert_eq!(
                err.is_retryable(),
                retryable,
                "table out of sync with ServeError::is_retryable for {err:?}"
            );
            assert_eq!(
                status.retry_after.is_some(),
                err.is_retryable(),
                "Retry-After presence must track is_retryable for {err:?}"
            );
        }
    }

    /// Malformed input is the net layer's 400 — assert the status shape
    /// it uses is not retryable, completing the 429/503/504/400 set.
    #[test]
    fn bad_request_is_not_retryable() {
        let s = WireStatus::bad_request();
        assert_eq!(s.code, 400);
        assert!(s.retry_after.is_none());
    }
}
