//! The nonblocking listener: one poll thread, many sockets, no
//! external dependencies.
//!
//! All sockets run in nonblocking mode and a single thread sweeps them
//! in a readiness loop: accept burst → read+parse per connection →
//! backend completion poll → write burst → reaping. `WouldBlock` means
//! "not ready, move on". A sweep that made progress is followed at once
//! by another; one that made none blocks in `epoll_wait` until a socket
//! changes state, the backend signals a finished batch through the
//! listener's [`Waker`], or the next metrics publish (every 100 ms) is
//! due — an idle listener sleeps, and a lone request is read as soon as
//! it lands. The poll thread never blocks on the backend or a lock held
//! across requests — overload answers `429` from the admission check, it
//! never stalls `accept(2)`.
//!
//! Protocol work (sniffing, parsing, pipelining, response encoding)
//! lives in [`Connection`]; this module only moves bytes and tickets.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossmine_obs::{ObsHandle, Profiler, TraceCtx, TraceId, Tracer};
use crossmine_relational::Row;

use crate::conn::{Connection, NetLimits, Protocol, WireReject};
use crate::metrics::{
    NetCountersSnapshot, NetMetrics, STAGE_ACCEPT_US, STAGE_DECODE_US, STAGE_READ_US,
    STAGE_REQUEST_US, STAGE_WRITE_US,
};
use crate::poller::{Poller, Waker};
use crate::wire::BatchReply;

/// What the wire front end plugs into: an admission-controlled
/// prediction queue. Implemented by the serve crate; the tests use
/// in-memory fakes. Both methods MUST be nonblocking — the poll thread
/// calls them inline — and a backend that finishes a batch after
/// `submit` returned must call [`Waker::wake`] on the waker it was given,
/// or the poll thread only notices at its next 100 ms tick.
pub trait Backend: Send + Sync + 'static {
    /// An in-flight batch the backend is still scoring.
    type Pending: Send;

    /// Admits one batch, or rejects it with a typed wire status
    /// (e.g. `429` when the queue is full). Must not block. `trace` is
    /// the request's trace context (noop when tracing is off); backends
    /// clone it onto the enqueued work so worker-side spans land in the
    /// same tree, and mark it on rejection so tail sampling keeps the
    /// trace. `waker` is the listener's: wake it once the batch's replies
    /// are ready to [`poll`](Self::poll). A backend that resolves every
    /// batch inside `submit` may ignore it.
    ///
    /// # Errors
    ///
    /// A [`WireReject`] carrying the status to answer with.
    fn submit(
        &self,
        rows: &[Row],
        deadline: Option<Duration>,
        trace: &TraceCtx,
        waker: &Waker,
    ) -> Result<Self::Pending, WireReject>;

    /// Polls an in-flight batch; `Some` when it finished (either way).
    /// Must not block.
    fn poll(&self, pending: &mut Self::Pending) -> Option<Result<BatchReply, WireReject>>;
}

/// Listener configuration; hangs off the serve crate's `ServerConfig`.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Connection-table cap; connections beyond it are accepted and
    /// immediately closed (shed) so the backlog cannot grow unboundedly.
    pub max_connections: usize,
    /// Idle connections (nothing buffered, nothing in flight) older than
    /// this are reaped.
    pub idle_timeout: Duration,
    /// During shutdown, how long to wait for in-flight responses to
    /// flush before force-closing.
    pub drain_timeout: Duration,
    /// Per-connection parsing and pipelining limits.
    pub limits: NetLimits,
    /// Births one trace per predict request. The default noop tracer
    /// keeps the wire path allocation-free; the serve crate installs its
    /// configured tracer here.
    pub tracer: Tracer,
    /// Publishes the poll thread's span stack (`net.poll` root with
    /// `net.sniff` / `net.parse` / `net.write` frames) into a wall
    /// sampler. The default noop profiler costs one branch per frame;
    /// the serve crate installs its configured profiler here.
    pub profiler: Profiler,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
            limits: NetLimits::default(),
            tracer: Tracer::noop(),
            profiler: Profiler::noop(),
        }
    }
}

struct Control {
    /// New predict requests are answered `503`; in-flight work finishes.
    draining: AtomicBool,
    /// The poll thread should drain and exit.
    stopping: AtomicBool,
}

/// Handle to the running poll thread.
pub struct NetListener {
    addr: SocketAddr,
    control: Arc<Control>,
    /// Ends the poll thread's wait so it sees drain and stop at once.
    waker: Waker,
    thread: Option<thread::JoinHandle<()>>,
    metrics: Arc<NetMetrics>,
}

impl NetListener {
    /// Binds `config.addr` and starts the poll thread. The caller
    /// supplies the counters so it can keep exporting them (e.g. through
    /// a metrics endpoint) independent of the listener's lifetime.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures from the OS.
    pub fn start<B: Backend>(
        config: NetConfig,
        backend: Arc<B>,
        obs: ObsHandle,
        metrics: Arc<NetMetrics>,
    ) -> io::Result<NetListener> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(listener.as_raw_fd(), SOCKET_TOKEN)?;
        poller.register_waker(&waker, WAKER_TOKEN)?;
        let control = Arc::new(Control {
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
        });
        let thread = {
            let control = Arc::clone(&control);
            let metrics = Arc::clone(&metrics);
            let waker = waker.clone();
            thread::Builder::new().name("crossmine-net".to_string()).spawn(move || {
                poll_loop(listener, poller, waker, config, backend, obs, control, metrics)
            })?
        };
        Ok(NetListener { addr, control, waker, thread: Some(thread), metrics })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters (for tests and the serve metrics endpoint).
    pub fn metrics(&self) -> Arc<NetMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Enters drain mode: connections stay open and in-flight work
    /// finishes, but new predict requests are answered `503`.
    pub fn begin_drain(&self) {
        self.control.draining.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Stops the poll thread: drains in-flight responses (bounded by
    /// `drain_timeout`), closes every socket, and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.control.draining.store(true, Ordering::SeqCst);
        self.control.stopping.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Whether the poll thread is still running (false after shutdown).
    pub fn is_running(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One connection's socket-side state.
struct ConnEntry<B: Backend> {
    stream: TcpStream,
    conn: Connection,
    /// In-flight backend tickets, keyed by pipeline slot.
    pendings: Vec<(u64, B::Pending)>,
    /// Whether the sniffed protocol was already counted.
    proto_counted: bool,
    /// Last (ok, err) reply counts mirrored into the metrics.
    last_encoded: (u64, u64),
}

const READ_CHUNK: usize = 16 * 1024;
const PUBLISH_EVERY: Duration = Duration::from_millis(100);
/// Every socket shares one token: a readiness report only ends the wait,
/// and the sweep that follows visits every connection anyway.
const SOCKET_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;

#[allow(clippy::too_many_arguments)]
fn poll_loop<B: Backend>(
    listener: TcpListener,
    mut poller: Poller,
    waker: Waker,
    config: NetConfig,
    backend: Arc<B>,
    obs: ObsHandle,
    control: Arc<Control>,
    metrics: Arc<NetMetrics>,
) {
    // Root profile frame held for the poll thread's whole life: every
    // wall sample of this thread lands under `net.poll`, refined by the
    // sniff/parse/write frames pushed inside the sweep.
    let _poll_frame = config.profiler.enter("net.poll");
    let mut conns: Vec<Option<ConnEntry<B>>> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    let mut finished = Vec::new();
    let mut last_publish = Instant::now();
    let mut last_snapshot = NetCountersSnapshot::default();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let now = Instant::now();
        let stopping = control.stopping.load(Ordering::SeqCst);
        let draining = stopping || control.draining.load(Ordering::SeqCst);
        if stopping && drain_deadline.is_none() {
            drain_deadline = Some(now + config.drain_timeout);
        }
        let mut progress = false;

        // 1. Accept burst (skipped once stopping).
        if !stopping {
            progress |= accept_burst(&listener, &poller, &config, &mut conns, &metrics, &obs, now);
        }

        // 2. Read + parse per connection.
        for entry in conns.iter_mut().flatten() {
            progress |= service_reads(
                entry, &config, &backend, &waker, &metrics, &obs, &mut buf, draining, now,
            );
        }

        // 3. Poll in-flight backend work.
        for entry in conns.iter_mut().flatten() {
            let mut i = 0;
            while i < entry.pendings.len() {
                if let Some(result) = backend.poll(&mut entry.pendings[i].1) {
                    let (slot, _) = entry.pendings.swap_remove(i);
                    entry.conn.complete(slot, result);
                    progress = true;
                } else {
                    i += 1;
                }
            }
        }

        // 4. Write burst. Reply counts mirror into the metrics *before*
        // the bytes go out: a client that has read a reply must observe
        // it in the counters, never a sweep later. Requests whose last
        // reply byte just drained feed the wire-latency histogram and
        // its exemplars in the same sweep.
        for entry in conns.iter_mut().flatten() {
            mirror_reply_counts(entry, &metrics);
            progress |= service_writes(entry, &metrics, &obs, &config.profiler);
            entry.conn.drain_finished(&mut finished);
            for (trace_id, wire_us) in finished.drain(..) {
                obs.record(STAGE_REQUEST_US, wire_us);
                metrics.request_exemplars.observe(wire_us, TraceId(trace_id));
            }
        }

        // 5. Reap finished and idle connections.
        for slot in conns.iter_mut() {
            let Some(entry) = slot.as_mut() else { continue };
            let idle = entry.conn.is_idle(now, config.idle_timeout);
            if entry.conn.should_close() || idle {
                if idle && !entry.conn.should_close() {
                    NetMetrics::inc(&metrics.idle_closed);
                }
                close_entry(slot, &metrics);
                progress = true;
            }
        }

        // 6. Periodic metrics publish.
        if now.duration_since(last_publish) >= PUBLISH_EVERY {
            metrics.publish(&obs, &mut last_snapshot);
            last_publish = now;
        }

        // 7. Exit once drained (or the drain deadline passed).
        if stopping {
            let flushed = conns.iter().flatten().all(|e| {
                e.pendings.is_empty() && e.conn.in_flight() == 0 && e.conn.write_slice().is_empty()
            });
            let expired = drain_deadline.is_some_and(|d| now >= d);
            if flushed || expired {
                for slot in conns.iter_mut() {
                    if slot.is_some() {
                        close_entry(slot, &metrics);
                    }
                }
                metrics.publish(&obs, &mut last_snapshot);
                return;
            }
        }

        // 8. A sweep that moved something may have unblocked more (a
        // freed pipeline slot, a capped read burst): sweep again at once.
        // One that moved nothing waits for a socket edge, a backend
        // completion on the waker, or the next publish / drain deadline.
        if !progress {
            let mut timeout = PUBLISH_EVERY.saturating_sub(now.duration_since(last_publish));
            if let Some(deadline) = drain_deadline {
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
            // An error here (none is expected on a valid epoll set) just
            // means another sweep.
            if let Ok(mut ready) = poller.wait(timeout) {
                if ready.any(|token| token == WAKER_TOKEN) {
                    waker.drain();
                }
            }
        }
    }
}

fn accept_burst<B: Backend>(
    listener: &TcpListener,
    poller: &Poller,
    config: &NetConfig,
    conns: &mut Vec<Option<ConnEntry<B>>>,
    metrics: &NetMetrics,
    obs: &ObsHandle,
    now: Instant,
) -> bool {
    let mut progress = false;
    loop {
        let started = Instant::now();
        match listener.accept() {
            Ok((stream, _)) => {
                progress = true;
                NetMetrics::inc(&metrics.accepted);
                let open = conns.iter().filter(|c| c.is_some()).count();
                if open >= config.max_connections {
                    // Shed: close immediately rather than queueing.
                    NetMetrics::inc(&metrics.accept_shed);
                    NetMetrics::inc(&metrics.closed);
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err()
                    || poller.register(stream.as_raw_fd(), SOCKET_TOKEN).is_err()
                {
                    NetMetrics::inc(&metrics.closed);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let entry = ConnEntry {
                    stream,
                    conn: Connection::with_obs(now, config.tracer.clone(), config.profiler.clone()),
                    pendings: Vec::new(),
                    proto_counted: false,
                    last_encoded: (0, 0),
                };
                obs.record(
                    STAGE_ACCEPT_US,
                    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                );
                match conns.iter_mut().position(|c| c.is_none()) {
                    Some(i) => conns[i] = Some(entry),
                    None => conns.push(Some(entry)),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    progress
}

#[allow(clippy::too_many_arguments)]
fn service_reads<B: Backend>(
    entry: &mut ConnEntry<B>,
    config: &NetConfig,
    backend: &Arc<B>,
    waker: &Waker,
    metrics: &NetMetrics,
    obs: &ObsHandle,
    buf: &mut [u8],
    draining: bool,
    now: Instant,
) -> bool {
    if !entry.conn.wants_read(&config.limits) {
        return false;
    }
    let started = Instant::now();
    let buffered_before = entry.conn.buffered_input_len();
    let mut total = 0usize;
    let mut peer_closed = false;
    let mut broken = false;
    loop {
        match entry.stream.read(buf) {
            Ok(0) => {
                peer_closed = true;
                break;
            }
            Ok(n) => {
                entry.conn.push_bytes(&buf[..n], now);
                total += n;
                if total >= READ_CHUNK * 4 {
                    break; // Cap the burst so one chatty peer cannot starve the sweep.
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                broken = true;
                break;
            }
        }
    }
    // Pump on new bytes, but also on leftover buffered bytes: a request
    // that arrived while the pipeline was full parses only here, after
    // backpressure lifted — the client won't send more to trigger it.
    if total > 0 || buffered_before > 0 {
        if total > 0 {
            NetMetrics::add(&metrics.bytes_read, total as u64);
            obs.record(
                STAGE_READ_US,
                started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            );
        }
        let decode_started = Instant::now();
        let proto = &mut entry.proto_counted;
        let conn = &mut entry.conn;
        let pendings = &mut entry.pendings;
        conn.pump(&config.limits, draining, |slot, rows, deadline, trace| {
            match backend.submit(rows, deadline, trace, waker) {
                Ok(pending) => {
                    pendings.push((slot, pending));
                    Ok(())
                }
                Err(reject) => Err(reject),
            }
        });
        count_protocol_and_requests(conn, proto, metrics);
        obs.record(
            STAGE_DECODE_US,
            decode_started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        );
    }
    if peer_closed {
        entry.conn.mark_peer_closed();
    }
    if broken {
        // The read side is gone for good; stop waiting on anything.
        entry.conn.mark_peer_closed();
    }
    let consumed_buffered =
        (buffered_before + total).saturating_sub(entry.conn.buffered_input_len());
    total > 0 || peer_closed || broken || consumed_buffered > 0
}

fn count_protocol_and_requests(conn: &Connection, counted: &mut bool, metrics: &NetMetrics) {
    if !*counted {
        match conn.protocol() {
            Protocol::Http => {
                NetMetrics::inc(&metrics.http_conns);
                *counted = true;
            }
            Protocol::Binary => {
                NetMetrics::inc(&metrics.binary_conns);
                *counted = true;
            }
            Protocol::Undecided => {
                if conn.should_close() {
                    NetMetrics::inc(&metrics.unknown_conns);
                    *counted = true;
                }
            }
        }
    }
}

fn service_writes<B: Backend>(
    entry: &mut ConnEntry<B>,
    metrics: &NetMetrics,
    obs: &ObsHandle,
    profiler: &Profiler,
) -> bool {
    if entry.conn.write_slice().is_empty() {
        return false;
    }
    let _write_frame = profiler.enter("net.write");
    let started = Instant::now();
    let mut total = 0usize;
    loop {
        let pending = entry.conn.write_slice();
        if pending.is_empty() {
            break;
        }
        match entry.stream.write(pending) {
            Ok(0) => break,
            Ok(n) => {
                // Stamp the instant the write returned, not the sweep's
                // start: the reply may have been encoded after that.
                entry.conn.advance_write(n, Instant::now());
                total += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Peer vanished mid-write; nothing more to deliver.
                entry.conn.mark_peer_closed();
                let len = entry.conn.write_slice().len();
                entry.conn.advance_write(len, Instant::now());
                break;
            }
        }
    }
    if total > 0 {
        NetMetrics::add(&metrics.bytes_written, total as u64);
        obs.record(STAGE_WRITE_US, started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    }
    total > 0
}

fn mirror_reply_counts<B: Backend>(entry: &mut ConnEntry<B>, metrics: &NetMetrics) {
    let (ok, err) = entry.conn.encoded_counts();
    let (last_ok, last_err) = entry.last_encoded;
    let new_ok = ok - last_ok;
    let new_err = err - last_err;
    if new_ok + new_err > 0 {
        match entry.conn.protocol() {
            Protocol::Http => NetMetrics::add(&metrics.http_requests, new_ok + new_err),
            Protocol::Binary => NetMetrics::add(&metrics.binary_requests, new_ok + new_err),
            Protocol::Undecided => {}
        }
        NetMetrics::add(&metrics.wire_errors, new_err);
        entry.last_encoded = (ok, err);
    }
}

fn close_entry<B: Backend>(slot: &mut Option<ConnEntry<B>>, metrics: &NetMetrics) {
    if let Some(entry) = slot.take() {
        NetMetrics::inc(&metrics.closed);
        let _ = entry.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use crate::http::format_predict_request;
    use std::io::{BufRead, BufReader};
    use std::sync::Mutex;

    /// Scores batches instantly: label = row id % 2, epoch = 7.
    struct EchoBackend {
        submitted: Mutex<Vec<usize>>,
    }

    impl EchoBackend {
        fn new() -> Arc<Self> {
            Arc::new(EchoBackend { submitted: Mutex::new(Vec::new()) })
        }
    }

    impl Backend for EchoBackend {
        type Pending = BatchReply;

        fn submit(
            &self,
            rows: &[Row],
            _deadline: Option<Duration>,
            _trace: &TraceCtx,
            _waker: &Waker,
        ) -> Result<Self::Pending, WireReject> {
            if let Ok(mut s) = self.submitted.lock() {
                s.push(rows.len());
            }
            Ok(BatchReply { epoch: 7, labels: rows.iter().map(|r| r.0 % 2).collect() })
        }

        fn poll(&self, pending: &mut Self::Pending) -> Option<Result<BatchReply, WireReject>> {
            Some(Ok(pending.clone()))
        }
    }

    /// Always sheds with 429.
    struct ShedBackend;

    impl Backend for ShedBackend {
        type Pending = ();

        fn submit(
            &self,
            _: &[Row],
            _: Option<Duration>,
            _: &TraceCtx,
            _: &Waker,
        ) -> Result<Self::Pending, WireReject> {
            Err(WireReject::new(crate::wire::WireStatus::overloaded(), "queue full"))
        }

        fn poll(&self, _: &mut Self::Pending) -> Option<Result<BatchReply, WireReject>> {
            Some(Err(WireReject::new(crate::wire::WireStatus::overloaded(), "queue full")))
        }
    }

    fn start_with<B: Backend>(config: NetConfig, backend: Arc<B>) -> (NetListener, SocketAddr) {
        let listener =
            NetListener::start(config, backend, ObsHandle::noop(), Arc::default()).expect("bind");
        let addr = listener.local_addr();
        (listener, addr)
    }

    fn start_echo() -> (NetListener, SocketAddr) {
        start_with(NetConfig::default(), EchoBackend::new())
    }

    fn read_http_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let code: u16 =
            status_line.split(' ').nth(1).and_then(|c| c.parse().ok()).expect("status code");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (code, String::from_utf8_lossy(&body).to_string())
    }

    #[test]
    fn http_keep_alive_roundtrip_over_a_real_socket() {
        let (listener, addr) = start_echo();
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        for round in 0..3 {
            writer
                .write_all(&format_predict_request(&[round, round + 1], None, true))
                .expect("send");
            let (code, body) = read_http_response(&mut reader);
            assert_eq!(code, 200, "round {round}: {body}");
            assert!(body.contains("\"epoch\":7"), "{body}");
        }
        let m = listener.metrics();
        assert_eq!(NetMetrics::get(&m.http_requests), 3);
        assert_eq!(NetMetrics::get(&m.http_conns), 1);
        listener.shutdown();
    }

    #[test]
    fn binary_roundtrip_over_a_real_socket() {
        let (listener, addr) = start_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut wire = Vec::new();
        frame::encode_request(11, Some(1000), &[2, 3, 4], &mut wire);
        stream.write_all(&wire).expect("send");
        let mut got = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            match frame::decode_response(&got, 1 << 20).expect("well-formed") {
                Some((resp, _)) => {
                    assert_eq!(resp.request_id, 11);
                    assert_eq!(resp.status, 200);
                    assert_eq!(resp.labels, vec![0, 1, 0]);
                    break;
                }
                None => {
                    let n = stream.read(&mut chunk).expect("read");
                    assert!(n > 0, "server closed early");
                    got.extend_from_slice(&chunk[..n]);
                }
            }
        }
        listener.shutdown();
    }

    #[test]
    fn overload_answers_429_and_keeps_accepting() {
        let (listener, addr) = start_with(NetConfig::default(), Arc::new(ShedBackend));
        for _ in 0..2 {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            writer.write_all(&format_predict_request(&[1], None, true)).expect("send");
            let (code, body) = read_http_response(&mut reader);
            assert_eq!(code, 429, "{body}");
            assert!(body.contains("\"retryable\":true"), "{body}");
        }
        let m = listener.metrics();
        assert_eq!(NetMetrics::get(&m.wire_errors), 2);
        listener.shutdown();
    }

    #[test]
    fn drain_mode_answers_503_and_shutdown_joins() {
        let (listener, addr) = start_echo();
        listener.begin_drain();
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(&format_predict_request(&[1], None, true)).expect("send");
        let (code, _) = read_http_response(&mut reader);
        assert_eq!(code, 503);
        listener.shutdown();
    }

    #[test]
    fn max_connections_sheds_extras() {
        let config = NetConfig { max_connections: 1, ..NetConfig::default() };
        let (listener, addr) = start_with(config, EchoBackend::new());
        let keeper = TcpStream::connect(addr).expect("connect");
        keeper.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut writer = keeper.try_clone().expect("clone");
        let mut reader = BufReader::new(keeper);
        // Prove the first connection is registered before racing a second.
        writer.write_all(&format_predict_request(&[1], None, true)).expect("send");
        let (code, _) = read_http_response(&mut reader);
        assert_eq!(code, 200);
        let extra = TcpStream::connect(addr).expect("connect");
        extra.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut extra = extra;
        // The shed socket is closed without a response: read returns 0.
        let mut tmp = [0u8; 64];
        let n = extra.read(&mut tmp).expect("read on shed conn");
        assert_eq!(n, 0, "shed connection closes cleanly");
        let m = listener.metrics();
        assert!(NetMetrics::get(&m.accept_shed) >= 1);
        listener.shutdown();
    }

    #[test]
    fn tracing_captures_wire_chain_over_a_real_socket() {
        use crossmine_obs::TraceConfig;
        let tracer = Tracer::with_config(TraceConfig {
            ring_capacity: 64,
            window: 64,
            keep_slowest: 64,
            slow_threshold: None,
        });
        let config = NetConfig { tracer: tracer.clone(), ..NetConfig::default() };
        let (listener, addr) = start_with(config, EchoBackend::new());
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let body = b"{\"rows\":[1,2,3]}";
        let req = format!(
            "POST /predict HTTP/1.1\r\nx-request-id: 4242\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        writer.write_all(req.as_bytes()).expect("send head");
        writer.write_all(body).expect("send body");
        let (code, _) = read_http_response(&mut reader);
        assert_eq!(code, 200);
        // Completion runs on the poll thread just after the reply bytes
        // were written; give it a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        let stored = loop {
            if let Some(t) = tracer.find(TraceId(4242)) {
                break t;
            }
            assert!(Instant::now() < deadline, "trace 4242 never completed");
            thread::sleep(Duration::from_millis(5));
        };
        let names: Vec<_> = stored.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"net.sniff"), "{names:?}");
        assert!(names.contains(&"net.parse"), "{names:?}");
        assert!(names.contains(&"net.write"), "{names:?}");
        // The wire-latency exemplar for this request resolves back to it.
        let m = listener.metrics();
        let found = m.request_exemplars.nonempty().iter().any(|(_, id)| *id == TraceId(4242));
        assert!(found, "request exemplar points at the trace");
        listener.shutdown();
    }

    #[test]
    fn garbage_first_byte_closes_without_response() {
        let (listener, addr) = start_echo();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        stream.write_all(&[0x16, 0x03, 0x01, 0x00]).expect("send");
        let mut tmp = [0u8; 64];
        let n = stream.read(&mut tmp).expect("read");
        assert_eq!(n, 0, "no bytes for unknown protocols");
        listener.shutdown();
    }
}
