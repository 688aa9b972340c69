//! Per-connection protocol state machine — pure bytes in, bytes out.
//!
//! A [`Connection`] owns everything about one client except the socket
//! and the backend: the read buffer, protocol sniffing, request parsing
//! (both protocols), the in-order pipeline of outstanding requests, and
//! the write buffer with partial-write continuation. The listener feeds
//! it bytes and a `submit` closure; the tests feed it bytes and
//! assertions. No I/O happens here, which is what makes the whole
//! lifecycle (sniff → parse → backpressure → reply → drain → close)
//! unit-testable without opening a socket.
//!
//! Pipelining invariant: responses are flushed strictly in request
//! order. A completed reply sits in its pipeline slot until every
//! earlier slot has completed and been flushed.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crossmine_obs::{Profiler, TraceCtx, Tracer, ROOT_SPAN};
use crossmine_relational::Row;

use crate::frame;
use crate::http::{self, HttpLimits};
use crate::json;
use crate::sniff::{sniff, Sniff};
use crate::wire::{BatchReply, WireStatus};

/// Parsing and buffering limits for one connection.
#[derive(Debug, Clone)]
pub struct NetLimits {
    /// HTTP header/body size caps.
    pub http: HttpLimits,
    /// Maximum binary frame payload size.
    pub max_frame_bytes: usize,
    /// Maximum rows per predict batch (either protocol).
    pub max_batch_rows: usize,
    /// Maximum pipelined requests in flight per connection; beyond this
    /// the connection stops reading (TCP backpressure) instead of
    /// buffering unboundedly.
    pub max_pipeline: usize,
}

impl Default for NetLimits {
    fn default() -> Self {
        NetLimits {
            http: HttpLimits::default(),
            max_frame_bytes: 1024 * 1024,
            max_batch_rows: 4096,
            max_pipeline: 64,
        }
    }
}

/// A rejected request: the status plus a human-readable detail that the
/// HTTP side embeds in the JSON error body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReject {
    /// Protocol-neutral status.
    pub status: WireStatus,
    /// One-line diagnostic, safe to show clients.
    pub detail: String,
}

impl WireReject {
    /// Convenience constructor.
    pub fn new(status: WireStatus, detail: impl Into<String>) -> Self {
        WireReject { status, detail: detail.into() }
    }
}

/// How a request's reply must be framed back to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplyCtx {
    Http { keep_alive: bool },
    Binary { request_id: u64 },
}

enum SlotState {
    Waiting,
    Done(Result<BatchReply, WireReject>),
}

struct Slot {
    id: u64,
    ctx: ReplyCtx,
    state: SlotState,
    /// The request's trace context (noop for non-predict replies such as
    /// 404s and parse errors). Completed when the reply bytes drain.
    trace: TraceCtx,
    /// When the request's first byte arrived — the wire-latency origin.
    /// `None` for slots that never went through [`Connection::dispatch`].
    born: Option<Instant>,
}

/// Watches one encoded reply until its last byte is accepted by the
/// socket, then closes out the request's trace and wire latency.
struct FlushWatch {
    /// `enqueued_total` the moment this reply finished encoding — once
    /// `written_total` reaches it, every byte of the reply is on the wire.
    target: u64,
    trace: TraceCtx,
    born: Instant,
    encode_at: Instant,
}

/// Which protocol the connection settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Not enough bytes yet to sniff.
    Undecided,
    /// HTTP/1.1 (keep-alive, pipelining).
    Http,
    /// Length-prefixed binary frames.
    Binary,
}

/// The outcome the listener's `submit` closure reports for one parsed
/// predict request.
pub type SubmitOutcome = Result<(), WireReject>;

/// One client connection's protocol state (no socket inside).
pub struct Connection {
    proto: Protocol,
    rbuf: Vec<u8>,
    roff: usize,
    wbuf: Vec<u8>,
    woff: usize,
    scratch: Vec<Row>,
    pending: VecDeque<Slot>,
    next_slot: u64,
    /// Flush what is buffered, then close (half-broken stream, explicit
    /// `Connection: close`, or fatal parse error already answered).
    close_after_flush: bool,
    /// Drop immediately without writing (unknown protocol).
    dead: bool,
    last_activity: Instant,
    /// Cumulative (ok, error) replies encoded, for the listener's
    /// per-protocol counters.
    encoded_ok: u64,
    encoded_err: u64,
    /// Births one trace per predict request (noop tracer = zero cost).
    tracer: Tracer,
    /// Publishes `net.sniff` / `net.parse` frames while pumping, so wall
    /// samples of the poll thread attribute protocol work (noop = one
    /// branch per pump).
    profiler: Profiler,
    /// First-byte arrival of the request currently being accumulated;
    /// consumed by `dispatch` as the trace origin, re-armed on the next
    /// read that starts a fresh request.
    read_since: Option<Instant>,
    /// When protocol sniffing resolved (first request only).
    sniff_done: Option<Instant>,
    /// Cumulative reply bytes ever placed into the write buffer.
    enqueued_total: u64,
    /// Cumulative reply bytes ever accepted by the socket.
    written_total: u64,
    /// Encoded replies awaiting their final byte on the wire, in encode
    /// order (monotonic targets — front settles first).
    watches: VecDeque<FlushWatch>,
    /// Settled requests as `(trace_id, wire_us)` for the listener to
    /// drain into the `net.request_us` histogram and its exemplars.
    /// `trace_id` is 0 when tracing was off for the request.
    finished: Vec<(u64, u64)>,
}

impl Connection {
    /// A fresh connection, with `now` as its first activity timestamp.
    /// Tracing is off; the listener uses [`with_tracer`](Self::with_tracer).
    pub fn new(now: Instant) -> Self {
        Self::with_tracer(now, Tracer::noop())
    }

    /// A fresh connection whose predict requests are traced by `tracer`.
    pub fn with_tracer(now: Instant, tracer: Tracer) -> Self {
        Self::with_obs(now, tracer, Profiler::noop())
    }

    /// A fresh connection with both a tracer and a profiler; what the
    /// listener constructs so pump-time frames land in the wall sampler.
    pub fn with_obs(now: Instant, tracer: Tracer, profiler: Profiler) -> Self {
        Connection {
            proto: Protocol::Undecided,
            rbuf: Vec::new(),
            roff: 0,
            wbuf: Vec::new(),
            woff: 0,
            scratch: Vec::new(),
            pending: VecDeque::new(),
            next_slot: 0,
            close_after_flush: false,
            dead: false,
            last_activity: now,
            encoded_ok: 0,
            encoded_err: 0,
            tracer,
            profiler,
            read_since: None,
            sniff_done: None,
            enqueued_total: 0,
            written_total: 0,
            watches: VecDeque::new(),
            finished: Vec::new(),
        }
    }

    /// The peer half-closed its read side (EOF on read): finish the
    /// in-flight responses, flush, then close — never drop work already
    /// admitted.
    pub fn mark_peer_closed(&mut self) {
        self.close_after_flush = true;
    }

    /// Cumulative `(ok, error)` replies encoded onto the wire so far.
    pub fn encoded_counts(&self) -> (u64, u64) {
        (self.encoded_ok, self.encoded_err)
    }

    /// Which protocol the connection sniffed to (for metrics/tests).
    pub fn protocol(&self) -> Protocol {
        self.proto
    }

    /// Appends bytes read from the socket.
    pub fn push_bytes(&mut self, bytes: &[u8], now: Instant) {
        if self.read_since.is_none() && !bytes.is_empty() {
            self.read_since = Some(now);
        }
        self.rbuf.extend_from_slice(bytes);
        self.last_activity = now;
    }

    /// Whether the listener should keep polling this socket for reads.
    /// False once closing, or while the pipeline is full (backpressure:
    /// the kernel buffer fills and the client blocks, instead of this
    /// process buffering unboundedly).
    pub fn wants_read(&self, limits: &NetLimits) -> bool {
        !self.dead && !self.close_after_flush && self.pending.len() < limits.max_pipeline
    }

    /// Unwritten response bytes (empty when nothing to send).
    pub fn write_slice(&self) -> &[u8] {
        &self.wbuf[self.woff..]
    }

    /// Records `n` bytes accepted by the socket — partial-write
    /// continuation: the remainder stays queued for the next writable
    /// readiness.
    pub fn advance_write(&mut self, n: usize, now: Instant) {
        let advanced = (self.woff + n).min(self.wbuf.len()) - self.woff;
        self.written_total += advanced as u64;
        self.woff += advanced;
        if self.woff == self.wbuf.len() {
            self.wbuf.clear();
            self.woff = 0;
        } else if self.woff > 64 * 1024 {
            self.wbuf.drain(..self.woff);
            self.woff = 0;
        }
        self.last_activity = now;
        self.settle_watches(now);
    }

    /// Closes out every watched reply whose last byte the socket has now
    /// accepted: stamps the `net.write` span, completes the trace, and
    /// queues the wire latency for the listener.
    fn settle_watches(&mut self, now: Instant) {
        while matches!(self.watches.front(), Some(w) if w.target <= self.written_total) {
            let Some(w) = self.watches.pop_front() else { break };
            // Clamp so the `net.write` span never ends before it starts,
            // whatever instant the caller passes.
            let end = now.max(w.encode_at);
            w.trace.add_span("net.write", ROOT_SPAN, w.encode_at, end);
            w.trace.complete();
            let wire_us = end.saturating_duration_since(w.born).as_micros();
            self.finished.push((w.trace.id().0, wire_us.min(u128::from(u64::MAX)) as u64));
        }
    }

    /// Moves settled `(trace_id, wire_us)` pairs into `out` (listener
    /// drains this every sweep; `trace_id` 0 means tracing was off).
    pub fn drain_finished(&mut self, out: &mut Vec<(u64, u64)>) {
        out.append(&mut self.finished);
    }

    /// True when the connection should be dropped now: fatal state, or
    /// it finished flushing everything after a close was requested.
    pub fn should_close(&self) -> bool {
        self.dead
            || (self.close_after_flush && self.pending.is_empty() && self.woff == self.wbuf.len())
    }

    /// True when nothing is buffered or in flight and the connection has
    /// been silent longer than `timeout`.
    pub fn is_idle(&self, now: Instant, timeout: Duration) -> bool {
        self.pending.is_empty()
            && self.woff == self.wbuf.len()
            && now.duration_since(self.last_activity) >= timeout
    }

    /// Outstanding pipelined requests (for tests and shed decisions).
    pub fn in_flight(&self) -> usize {
        self.pending.iter().filter(|s| matches!(s.state, SlotState::Waiting)).count()
    }

    /// Bytes read off the socket but not yet parsed. The listener checks
    /// this so a request that was fully buffered while the pipeline was
    /// at capacity still gets pumped once a slot frees — without it, a
    /// quiet client's final pipelined request would stall until its next
    /// write.
    pub fn buffered_input_len(&self) -> usize {
        self.rbuf.len() - self.roff
    }

    /// Parses as many complete requests as the pipeline allows, calling
    /// `submit(slot, rows, deadline, trace)` for each well-formed predict
    /// request. The closure returns `Ok(())` when the backend accepted
    /// the batch (the listener will later call [`complete`]) or a
    /// [`WireReject`] to answer immediately. The `trace` argument is the
    /// request's trace context (noop when tracing is off); backends clone
    /// it onto the work they enqueue so worker-side spans join the same
    /// tree. When `draining` is set, new predict requests are answered
    /// `503 Service Unavailable` without touching the backend.
    ///
    /// Malformed input is answered with a typed `400` (where the
    /// protocol still permits a response) and the connection is marked
    /// to close after flushing; bytes that are neither protocol kill the
    /// connection without a response.
    ///
    /// [`complete`]: Connection::complete
    pub fn pump<F>(&mut self, limits: &NetLimits, draining: bool, mut submit: F)
    where
        F: FnMut(u64, &[Row], Option<Duration>, &TraceCtx) -> SubmitOutcome,
    {
        loop {
            if self.dead || self.close_after_flush {
                break;
            }
            if self.pending.len() >= limits.max_pipeline {
                break;
            }
            self.compact_rbuf();
            let buf = &self.rbuf[self.roff..];
            if self.proto == Protocol::Undecided {
                let _sniff_frame = self.profiler.enter("net.sniff");
                match sniff(buf) {
                    Sniff::NeedMore => break,
                    Sniff::Http => self.proto = Protocol::Http,
                    Sniff::Binary => self.proto = Protocol::Binary,
                    Sniff::Unknown => {
                        self.dead = true;
                        break;
                    }
                }
                if self.tracer.is_enabled() {
                    self.sniff_done = Some(Instant::now());
                }
            }
            // Covers parse + dispatch (which runs the backend's submit
            // closure), so a wire request's admission shows up in the
            // profile as net.poll;net.parse;serve.admission.
            let _parse_frame = self.profiler.enter("net.parse");
            let made_progress = match self.proto {
                Protocol::Http => self.pump_http(limits, draining, &mut submit),
                Protocol::Binary => self.pump_binary(limits, draining, &mut submit),
                Protocol::Undecided => unreachable!("sniffed above"),
            };
            if !made_progress {
                break;
            }
        }
        self.flush_ready();
    }

    /// One HTTP request attempt; true if bytes were consumed.
    fn pump_http<F>(&mut self, limits: &NetLimits, draining: bool, submit: &mut F) -> bool
    where
        F: FnMut(u64, &[Row], Option<Duration>, &TraceCtx) -> SubmitOutcome,
    {
        let buf = &self.rbuf[self.roff..];
        let (req, consumed) = match http::parse_request(buf, &limits.http) {
            Ok(Some(pair)) => pair,
            Ok(None) => return false,
            Err(e) => {
                // Framing is broken; answer once and close.
                let slot = self.open_slot(ReplyCtx::Http { keep_alive: false });
                self.finish_slot(
                    slot,
                    Err(WireReject::new(WireStatus::bad_request(), e.to_string())),
                );
                self.close_after_flush = true;
                return false;
            }
        };
        self.roff += consumed;
        let keep_alive = req.keep_alive();
        if !keep_alive {
            // Last request on this connection; respond, flush, close.
            self.close_after_flush = true;
        }
        let ctx = ReplyCtx::Http { keep_alive };
        if req.path != "/predict" {
            let slot = self.open_slot(ctx);
            self.finish_slot(slot, Err(WireReject::new(WireStatus::not_found(), "unknown path")));
            return true;
        }
        if req.method != "POST" {
            let slot = self.open_slot(ctx);
            self.finish_slot(
                slot,
                Err(WireReject::new(WireStatus::method_not_allowed(), "use POST /predict")),
            );
            return true;
        }
        let body =
            match json::parse_predict_body(&req.body, limits.max_batch_rows, &mut self.scratch) {
                Ok(b) => b,
                Err(e) => {
                    // The request was well-framed, so keep-alive survives a
                    // semantically bad body.
                    let slot = self.open_slot(ctx);
                    self.finish_slot(
                        slot,
                        Err(WireReject::new(WireStatus::bad_request(), e.to_string())),
                    );
                    return true;
                }
            };
        // An explicit header overrides the body field.
        let deadline_ms = match header_deadline(&req) {
            Ok(h) => h.or(body.deadline_ms),
            Err(reject) => {
                let slot = self.open_slot(ctx);
                self.finish_slot(slot, Err(reject));
                return true;
            }
        };
        // `X-Request-Id` becomes the trace id so wire traces join client
        // logs; non-numeric or absent ids get a generated one.
        let id_hint = req.header("x-request-id").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        self.dispatch(ctx, id_hint, deadline_ms, draining, submit);
        true
    }

    /// One binary frame attempt; true if bytes were consumed.
    fn pump_binary<F>(&mut self, limits: &NetLimits, draining: bool, submit: &mut F) -> bool
    where
        F: FnMut(u64, &[Row], Option<Duration>, &TraceCtx) -> SubmitOutcome,
    {
        let buf = &self.rbuf[self.roff..];
        match frame::decode_request(
            buf,
            limits.max_frame_bytes,
            limits.max_batch_rows,
            &mut self.scratch,
        ) {
            Ok(Some((head, consumed))) => {
                self.roff += consumed;
                let ctx = ReplyCtx::Binary { request_id: head.request_id };
                // The frame's request id doubles as the trace id.
                self.dispatch(ctx, head.request_id, head.deadline_ms, draining, submit);
                true
            }
            Ok(None) => false,
            Err(e) => {
                // The stream cannot be re-synchronized after a bad
                // frame; answer with request id 0 and close.
                let slot = self.open_slot(ReplyCtx::Binary { request_id: 0 });
                self.finish_slot(
                    slot,
                    Err(WireReject::new(WireStatus::bad_request(), e.to_string())),
                );
                self.close_after_flush = true;
                false
            }
        }
    }

    /// Routes one parsed predict batch: drain-rejected, backend-rejected,
    /// or accepted into a waiting slot. `id_hint` (binary request id or
    /// parsed `X-Request-Id`) seeds the trace id; 0 generates one.
    fn dispatch<F>(
        &mut self,
        ctx: ReplyCtx,
        id_hint: u64,
        deadline_ms: Option<u64>,
        draining: bool,
        submit: &mut F,
    ) where
        F: FnMut(u64, &[Row], Option<Duration>, &TraceCtx) -> SubmitOutcome,
    {
        let t_parsed = Instant::now();
        // The wire-latency origin: first byte of this request off the
        // socket, or "now" for a request already fully buffered.
        let born = self.read_since.take().unwrap_or(t_parsed);
        let trace = self.tracer.start_at(id_hint, born);
        if trace.is_active() {
            // Sniffing happened once, on the connection's first request;
            // later keep-alive requests get a zero-length sniff span at
            // their origin so every trace shows the same chain.
            let sniff_end = self.sniff_done.map_or(born, |t| t.clamp(born, t_parsed));
            let proto = match self.proto {
                Protocol::Http => "http",
                Protocol::Binary => "binary",
                Protocol::Undecided => "undecided",
            };
            trace.add_span_with(
                "net.sniff",
                ROOT_SPAN,
                born,
                sniff_end,
                &[("proto", proto.into())],
            );
            trace.add_span_with(
                "net.parse",
                ROOT_SPAN,
                sniff_end,
                t_parsed,
                &[("rows", self.scratch.len().into())],
            );
        }
        let slot = self.open_slot_traced(ctx, trace.clone(), Some(born));
        if draining {
            trace.mark_error();
            self.finish_slot(
                slot,
                Err(WireReject::new(WireStatus::shutting_down(), "server is draining")),
            );
            return;
        }
        let deadline = deadline_ms.map(Duration::from_millis);
        match submit(slot, &self.scratch, deadline, &trace) {
            Ok(()) => {}
            Err(reject) => {
                trace.mark_error();
                self.finish_slot(slot, Err(reject));
            }
        }
    }

    /// Resolves a waiting slot with the backend's verdict. Unknown slot
    /// ids are ignored (the connection may have died and been replaced).
    pub fn complete(&mut self, slot: u64, result: Result<BatchReply, WireReject>) {
        if let Some(s) = self.pending.iter_mut().find(|s| s.id == slot) {
            if matches!(s.state, SlotState::Waiting) {
                s.state = SlotState::Done(result);
            }
        }
        self.flush_ready();
    }

    fn open_slot(&mut self, ctx: ReplyCtx) -> u64 {
        self.open_slot_traced(ctx, TraceCtx::noop(), None)
    }

    fn open_slot_traced(&mut self, ctx: ReplyCtx, trace: TraceCtx, born: Option<Instant>) -> u64 {
        let id = self.next_slot;
        self.next_slot += 1;
        self.pending.push_back(Slot { id, ctx, state: SlotState::Waiting, trace, born });
        id
    }

    fn finish_slot(&mut self, slot: u64, result: Result<BatchReply, WireReject>) {
        if let Some(s) = self.pending.iter_mut().find(|s| s.id == slot) {
            s.state = SlotState::Done(result);
        }
    }

    /// Encodes every head-of-line completed slot into the write buffer —
    /// this is what enforces pipelined response ordering. Dispatched
    /// slots gain a flush watch so their trace completes only when the
    /// reply's last byte is accepted by the socket.
    fn flush_ready(&mut self) {
        while matches!(self.pending.front(), Some(Slot { state: SlotState::Done(_), .. })) {
            let Some(slot) = self.pending.pop_front() else { break };
            if let SlotState::Done(result) = slot.state {
                if result.is_err() {
                    slot.trace.mark_error();
                }
                let encode_at = match slot.born {
                    Some(_) => Instant::now(),
                    None => self.last_activity,
                };
                self.encode_reply(slot.ctx, &result);
                if let Some(born) = slot.born {
                    self.watches.push_back(FlushWatch {
                        target: self.enqueued_total,
                        trace: slot.trace,
                        born,
                        encode_at,
                    });
                }
            }
        }
    }

    fn encode_reply(&mut self, ctx: ReplyCtx, result: &Result<BatchReply, WireReject>) {
        match result {
            Ok(_) => self.encoded_ok += 1,
            Err(_) => self.encoded_err += 1,
        }
        let wbuf_before = self.wbuf.len();
        match ctx {
            ReplyCtx::Http { keep_alive } => {
                let mut body = Vec::new();
                match result {
                    Ok(reply) => {
                        json::render_reply(reply.epoch, &reply.labels, &mut body);
                        http::write_response(
                            &mut self.wbuf,
                            200,
                            WireStatus::ok().reason(),
                            "application/json",
                            &[],
                            &body,
                            keep_alive,
                        );
                    }
                    Err(reject) => {
                        json::render_error(reject.status, &reject.detail, &mut body);
                        let retry = reject.status.retry_after_secs().map(|s| s.to_string());
                        let mut extra: Vec<(&str, &str)> = Vec::new();
                        if let Some(r) = retry.as_deref() {
                            extra.push(("Retry-After", r));
                        }
                        http::write_response(
                            &mut self.wbuf,
                            reject.status.code,
                            reject.status.reason(),
                            "application/json",
                            &extra,
                            &body,
                            keep_alive,
                        );
                    }
                }
            }
            ReplyCtx::Binary { request_id } => match result {
                Ok(reply) => {
                    frame::encode_reply(request_id, reply.epoch, &reply.labels, &mut self.wbuf)
                }
                Err(reject) => frame::encode_error(request_id, reject.status, &mut self.wbuf),
            },
        }
        self.enqueued_total += (self.wbuf.len() - wbuf_before) as u64;
    }

    /// Drops consumed bytes from the front of the read buffer once the
    /// dead prefix is large enough to be worth the move.
    fn compact_rbuf(&mut self) {
        if self.roff > 0 && (self.roff == self.rbuf.len() || self.roff > 16 * 1024) {
            self.rbuf.drain(..self.roff);
            self.roff = 0;
        }
    }
}

/// Parses the optional `x-deadline-ms` request header.
fn header_deadline(req: &http::HttpRequest) -> Result<Option<u64>, WireReject> {
    match req.header("x-deadline-ms") {
        None => Ok(None),
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Ok(Some(ms)),
            Err(_) => Err(WireReject::new(
                WireStatus::bad_request(),
                "x-deadline-ms must be a non-negative integer",
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_response, encode_request};
    use crate::http::format_predict_request;

    fn now() -> Instant {
        Instant::now()
    }

    fn accept_all(
        replies: &mut Vec<(u64, Vec<Row>)>,
    ) -> impl FnMut(u64, &[Row], Option<Duration>, &TraceCtx) -> SubmitOutcome + '_ {
        |slot, rows, _deadline, _trace| {
            replies.push((slot, rows.to_vec()));
            Ok(())
        }
    }

    #[test]
    fn http_request_flows_to_submit_and_reply() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        conn.push_bytes(&format_predict_request(&[1, 2, 3], Some(100), true), now());
        let mut seen = Vec::new();
        conn.pump(&limits, false, accept_all(&mut seen));
        assert_eq!(conn.protocol(), Protocol::Http);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1, vec![Row(1), Row(2), Row(3)]);
        assert!(conn.write_slice().is_empty(), "no reply before completion");
        conn.complete(seen[0].0, Ok(BatchReply { epoch: 4, labels: vec![0, 1, 0] }));
        let out = String::from_utf8_lossy(conn.write_slice()).to_string();
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("\"epoch\":4"), "{out}");
        assert!(out.contains("\"labels\":[0,1,0]"), "{out}");
        assert!(!conn.should_close(), "keep-alive survives");
    }

    #[test]
    fn pipelined_responses_flush_in_request_order() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        let mut wire = format_predict_request(&[1], None, true);
        wire.extend_from_slice(&format_predict_request(&[2], None, true));
        conn.push_bytes(&wire, now());
        let mut seen = Vec::new();
        conn.pump(&limits, false, accept_all(&mut seen));
        assert_eq!(seen.len(), 2);
        // Second request completes first: nothing may flush yet.
        conn.complete(seen[1].0, Ok(BatchReply { epoch: 1, labels: vec![7] }));
        assert!(conn.write_slice().is_empty(), "head-of-line blocks the later reply");
        conn.complete(seen[0].0, Ok(BatchReply { epoch: 1, labels: vec![5] }));
        let out = String::from_utf8_lossy(conn.write_slice()).to_string();
        let first = out.find("\"labels\":[5]").expect("first reply present");
        let second = out.find("\"labels\":[7]").expect("second reply present");
        assert!(first < second, "replies in request order: {out}");
    }

    #[test]
    fn binary_request_roundtrip_with_partial_write() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        let mut wire = Vec::new();
        encode_request(99, Some(50), &[4, 5], &mut wire);
        // Feed the frame one byte at a time: incremental decode.
        let mut seen = Vec::new();
        for b in wire {
            conn.push_bytes(&[b], now());
            conn.pump(&limits, false, accept_all(&mut seen));
        }
        assert_eq!(conn.protocol(), Protocol::Binary);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1, vec![Row(4), Row(5)]);
        conn.complete(seen[0].0, Ok(BatchReply { epoch: 2, labels: vec![1, 0] }));
        // Drain the write buffer in 3-byte sips: partial-write continuation.
        let mut got = Vec::new();
        while !conn.write_slice().is_empty() {
            let n = conn.write_slice().len().min(3);
            got.extend_from_slice(&conn.write_slice()[..n]);
            conn.advance_write(n, now());
        }
        let (resp, _) = decode_response(&got, 1 << 20).expect("well-formed").expect("complete");
        assert_eq!(resp.request_id, 99);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.labels, vec![1, 0]);
    }

    #[test]
    fn unknown_protocol_dies_without_a_response() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        conn.push_bytes(&[0x16, 0x03, 0x01], now()); // TLS ClientHello
        conn.pump(&limits, false, |_, _, _, _| panic!("must not submit"));
        assert!(conn.should_close());
        assert!(conn.write_slice().is_empty());
    }

    #[test]
    fn bad_binary_frame_answers_400_then_closes() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        let mut wire = Vec::new();
        encode_request(1, None, &[1], &mut wire);
        wire[5] = 200; // corrupt the version byte
        conn.push_bytes(&wire, now());
        conn.pump(&limits, false, |_, _, _, _| panic!("must not submit"));
        let (resp, _) =
            decode_response(conn.write_slice(), 1 << 20).expect("well-formed").expect("complete");
        assert_eq!(resp.status, 400);
        conn.advance_write(conn.write_slice().len(), now());
        assert!(conn.should_close());
    }

    #[test]
    fn http_overload_maps_to_429_with_retry_after() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        conn.push_bytes(&format_predict_request(&[1], None, true), now());
        conn.pump(&limits, false, |_, _, _, _| {
            Err(WireReject::new(WireStatus::overloaded(), "queue full"))
        });
        let out = String::from_utf8_lossy(conn.write_slice()).to_string();
        assert!(out.starts_with("HTTP/1.1 429 Too Many Requests"), "{out}");
        assert!(out.contains("Retry-After: 1"), "{out}");
        assert!(out.contains("\"retryable\":true"), "{out}");
    }

    #[test]
    fn draining_rejects_new_work_with_503() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        conn.push_bytes(&format_predict_request(&[1], None, true), now());
        conn.pump(&limits, true, |_, _, _, _| panic!("draining must not submit"));
        let out = String::from_utf8_lossy(conn.write_slice()).to_string();
        assert!(out.starts_with("HTTP/1.1 503 Service Unavailable"), "{out}");
        assert!(!out.contains("Retry-After"), "shutdown is not retryable against this instance");
    }

    #[test]
    fn pipeline_limit_applies_read_backpressure() {
        let limits = NetLimits { max_pipeline: 2, ..NetLimits::default() };
        let mut conn = Connection::new(now());
        let mut wire = Vec::new();
        for _ in 0..3 {
            wire.extend_from_slice(&format_predict_request(&[1], None, true));
        }
        conn.push_bytes(&wire, now());
        let mut seen = Vec::new();
        conn.pump(&limits, false, accept_all(&mut seen));
        assert_eq!(seen.len(), 2, "third request waits in the buffer");
        assert!(!conn.wants_read(&limits), "full pipeline stops reading");
        conn.complete(seen[0].0, Ok(BatchReply { epoch: 1, labels: vec![0] }));
        assert!(conn.wants_read(&limits));
        let mut more = Vec::new();
        conn.pump(&limits, false, accept_all(&mut more));
        assert_eq!(more.len(), 1, "buffered request parses once a slot frees");
    }

    #[test]
    fn connection_close_header_flushes_then_closes() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        conn.push_bytes(&format_predict_request(&[1], None, false), now());
        let mut seen = Vec::new();
        conn.pump(&limits, false, accept_all(&mut seen));
        conn.complete(seen[0].0, Ok(BatchReply { epoch: 1, labels: vec![0] }));
        assert!(!conn.should_close(), "response still buffered");
        conn.advance_write(conn.write_slice().len(), now());
        assert!(conn.should_close());
    }

    #[test]
    fn idle_detection() {
        let limits = NetLimits::default();
        let t0 = now();
        let conn = Connection::new(t0);
        assert!(!conn.is_idle(t0, Duration::from_secs(5)));
        assert!(conn.is_idle(t0 + Duration::from_secs(6), Duration::from_secs(5)));
        let mut busy = Connection::new(t0);
        busy.push_bytes(&format_predict_request(&[1], None, true), t0);
        let mut seen = Vec::new();
        busy.pump(&limits, false, accept_all(&mut seen));
        assert!(
            !busy.is_idle(t0 + Duration::from_secs(6), Duration::from_secs(5)),
            "in-flight request is never idle"
        );
    }

    #[test]
    fn http_get_metrics_is_not_found_here() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        conn.push_bytes(b"GET /metrics HTTP/1.1\r\n\r\n", now());
        conn.pump(&limits, false, |_, _, _, _| panic!("must not submit"));
        let out = String::from_utf8_lossy(conn.write_slice()).to_string();
        assert!(out.starts_with("HTTP/1.1 404 Not Found"), "{out}");
    }

    #[test]
    fn http_wrong_method_is_405() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        conn.push_bytes(b"GET /predict HTTP/1.1\r\n\r\n", now());
        conn.pump(&limits, false, |_, _, _, _| panic!("must not submit"));
        let out = String::from_utf8_lossy(conn.write_slice()).to_string();
        assert!(out.starts_with("HTTP/1.1 405 Method Not Allowed"), "{out}");
    }

    #[test]
    fn header_deadline_overrides_body() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        let body = b"{\"rows\":[1],\"deadline_ms\":5000}";
        let req = format!(
            "POST /predict HTTP/1.1\r\nx-deadline-ms: 250\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.push_bytes(req.as_bytes(), now());
        conn.push_bytes(body, now());
        let mut deadlines = Vec::new();
        conn.pump(&limits, false, |_, _, d, _| {
            deadlines.push(d);
            Ok(())
        });
        assert_eq!(deadlines, vec![Some(Duration::from_millis(250))]);
    }

    /// A tracer that retains every completion, for deterministic tests.
    fn keep_all_tracer() -> Tracer {
        Tracer::with_config(crossmine_obs::TraceConfig {
            ring_capacity: 64,
            window: 64,
            keep_slowest: 64,
            slow_threshold: None,
        })
    }

    #[test]
    fn trace_born_on_wire_completes_when_bytes_drain() {
        use crossmine_obs::TraceId;
        let limits = NetLimits::default();
        let tracer = keep_all_tracer();
        let mut conn = Connection::with_tracer(now(), tracer.clone());
        let body = b"{\"rows\":[1,2]}";
        let req = format!(
            "POST /predict HTTP/1.1\r\nx-request-id: 77\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.push_bytes(req.as_bytes(), now());
        conn.push_bytes(body, now());
        let mut seen = Vec::new();
        let mut trace_ids = Vec::new();
        conn.pump(&limits, false, |slot, rows, _d, trace| {
            trace_ids.push(trace.id());
            seen.push((slot, rows.to_vec()));
            Ok(())
        });
        assert_eq!(trace_ids, vec![TraceId(77)], "X-Request-Id seeds the trace id");
        conn.complete(seen[0].0, Ok(BatchReply { epoch: 1, labels: vec![0, 1] }));
        assert!(
            tracer.find(TraceId(77)).is_none(),
            "trace must not complete before the reply bytes hit the socket"
        );
        let n = conn.write_slice().len();
        conn.advance_write(n, now());
        let stored = tracer.find(TraceId(77)).expect("completed once the reply drained");
        let names: Vec<_> = stored.spans.iter().map(|s| s.name).collect();
        assert_eq!(names[0], "request", "implicit root first");
        assert!(names.contains(&"net.sniff"), "{names:?}");
        assert!(names.contains(&"net.parse"), "{names:?}");
        assert!(names.contains(&"net.write"), "{names:?}");
        assert!(!stored.error);
        let mut fin = Vec::new();
        conn.drain_finished(&mut fin);
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].0, 77, "wire latency is attributed to the trace");
    }

    #[test]
    fn partial_write_defers_trace_completion_until_last_byte() {
        use crossmine_obs::TraceId;
        let limits = NetLimits::default();
        let tracer = keep_all_tracer();
        let mut conn = Connection::with_tracer(now(), tracer.clone());
        let mut wire = Vec::new();
        encode_request(91, None, &[4], &mut wire);
        conn.push_bytes(&wire, now());
        let mut seen = Vec::new();
        conn.pump(&limits, false, accept_all(&mut seen));
        conn.complete(seen[0].0, Ok(BatchReply { epoch: 1, labels: vec![1] }));
        // Drain all but the final byte: still incomplete.
        let n = conn.write_slice().len();
        conn.advance_write(n - 1, now());
        assert!(tracer.find(TraceId(91)).is_none(), "one byte still queued");
        conn.advance_write(1, now());
        assert!(tracer.find(TraceId(91)).is_some(), "last byte completes the trace");
    }

    #[test]
    fn rejected_request_trace_is_kept_as_error() {
        use crossmine_obs::TraceId;
        let limits = NetLimits::default();
        let tracer = keep_all_tracer();
        let mut conn = Connection::with_tracer(now(), tracer.clone());
        let body = b"{\"rows\":[1]}";
        let req = format!(
            "POST /predict HTTP/1.1\r\nx-request-id: 55\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.push_bytes(req.as_bytes(), now());
        conn.push_bytes(body, now());
        conn.pump(&limits, false, |_, _, _, _| {
            Err(WireReject::new(WireStatus::overloaded(), "queue full"))
        });
        let n = conn.write_slice().len();
        conn.advance_write(n, now());
        let stored = tracer.find(TraceId(55)).expect("shed trace retained");
        assert!(stored.error, "rejection marks the trace as an error");
    }

    #[test]
    fn second_keep_alive_request_gets_its_own_complete_trace() {
        use crossmine_obs::TraceId;
        let limits = NetLimits::default();
        let tracer = keep_all_tracer();
        let mut conn = Connection::with_tracer(now(), tracer.clone());
        for id in [101u64, 102] {
            let body = b"{\"rows\":[1]}";
            let req = format!(
                "POST /predict HTTP/1.1\r\nx-request-id: {id}\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            conn.push_bytes(req.as_bytes(), now());
            conn.push_bytes(body, now());
            let mut seen = Vec::new();
            conn.pump(&limits, false, accept_all(&mut seen));
            conn.complete(seen[0].0, Ok(BatchReply { epoch: 1, labels: vec![0] }));
            let n = conn.write_slice().len();
            conn.advance_write(n, now());
        }
        for id in [101u64, 102] {
            let stored = tracer.find(TraceId(id)).expect("both traces retained");
            let names: Vec<_> = stored.spans.iter().map(|s| s.name).collect();
            assert!(names.contains(&"net.sniff"), "trace {id} has the full chain: {names:?}");
            assert!(names.contains(&"net.parse"), "{names:?}");
            assert!(names.contains(&"net.write"), "{names:?}");
        }
    }

    #[test]
    fn noop_tracer_records_wire_latency_without_ids() {
        let limits = NetLimits::default();
        let mut conn = Connection::new(now());
        conn.push_bytes(&format_predict_request(&[1], None, true), now());
        let mut seen = Vec::new();
        conn.pump(&limits, false, accept_all(&mut seen));
        conn.complete(seen[0].0, Ok(BatchReply { epoch: 1, labels: vec![0] }));
        let n = conn.write_slice().len();
        conn.advance_write(n, now());
        let mut fin = Vec::new();
        conn.drain_finished(&mut fin);
        assert_eq!(fin.len(), 1, "wire latency flows even with tracing off");
        assert_eq!(fin[0].0, 0, "no trace id without a tracer");
    }
}
