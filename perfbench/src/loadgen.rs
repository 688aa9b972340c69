//! Open-loop load generator over the wire front end.
//!
//! A phase is a fixed request schedule: request `i` is due at `i / rate`
//! seconds after the phase origin, whatever happened to earlier requests.
//! One thread drives the keep-alive connections (at most two: one HTTP,
//! one binary). It sends every request at its due time, reads replies as
//! they arrive, and records when each request was due, sent and answered,
//! so latency is timed from the due time and the generator's own lag is
//! reported beside it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crossmine_net::frame::{decode_response, encode_request};
use crossmine_net::http::format_predict_request;

use crate::setup::{Deck, SplitMix};

/// The wire protocol one connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Http,
    Binary,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Req {
    /// Unique, nonzero: the binary frame id or `X-Request-Id`, which the
    /// server adopts as the trace id.
    pub id: u64,
    /// Due time, from the phase origin.
    pub due: Duration,
    /// Target row ids, distinct within the request.
    pub rows: Vec<u32>,
}

/// What happened to one request. Times are offsets from the phase origin.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub id: u64,
    pub due: Duration,
    pub sent: Option<Duration>,
    pub done: Option<Duration>,
    /// Wire status (200 on success, 0 when no reply arrived).
    pub status: u16,
    pub labels: Vec<u32>,
    /// The rows asked for.
    pub rows: Vec<u32>,
}

impl Outcome {
    /// Latency from the due time, in µs; `INFINITY` when the request was
    /// refused, errored or never answered (it misses every limit).
    pub fn latency_us(&self) -> f64 {
        match self.done {
            Some(done) if self.status == 200 => (done - self.due).as_secs_f64() * 1e6,
            _ => f64::INFINITY,
        }
    }

    /// Send-to-reply time in ns, as the client saw it.
    pub fn client_ns(&self) -> Option<u64> {
        Some((self.done? - self.sent?).as_nanos() as u64)
    }

    /// How late the generator sent this request, in µs.
    pub fn lag_us(&self) -> f64 {
        self.sent.map_or(f64::INFINITY, |s| s.saturating_sub(self.due).as_secs_f64() * 1e6)
    }
}

/// The traffic mix of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub rate_rps: f64,
    pub duration: Duration,
    /// Share of requests carrying [`Mix::big_rows`] rows; the rest carry
    /// one row.
    pub big_share: f64,
    pub big_rows: usize,
}

/// Builds a phase's schedule, split round-robin over `conns` connections.
/// Rows are dealt from `pool` in an order set by `seed`; ids start at
/// `id_base + 1`.
pub fn schedule(mix: Mix, conns: usize, pool: &[u32], seed: u64, id_base: u64) -> Vec<Vec<Req>> {
    let mut rng = SplitMix(seed);
    let mut deck = Deck::new(pool, seed ^ 0xdec4);
    let total = (mix.rate_rps * mix.duration.as_secs_f64()).round() as usize;
    let mut per_conn: Vec<Vec<Req>> = vec![Vec::new(); conns];
    for i in 0..total {
        let k = if rng.unit() < mix.big_share { mix.big_rows } else { 1 };
        let rows = deck.deal(k);
        per_conn[i % conns].push(Req {
            id: id_base + 1 + i as u64,
            due: Duration::from_secs_f64(i as f64 / mix.rate_rps),
            rows,
        });
    }
    per_conn
}

/// Runs one phase: connection `c` speaks `protos[c]` and carries
/// `plan[c]`. Connections wait at most `drain` past the last due time for
/// outstanding replies; what is still missing then counts as timed out.
/// Returns the phase origin and every outcome, in due order per
/// connection.
///
/// One thread drives every connection and never sleeps: it spins between
/// sends, reading whatever replies are ready. A generator that sleeps
/// until each due time leaves its virtual CPU idle, and waking an idle
/// virtual CPU can take the host milliseconds — the schedule would then
/// measure the host, not the server. It spins under `SCHED_IDLE`, so any
/// server thread that becomes runnable takes its CPU at once.
pub fn run_phase(
    addr: SocketAddr,
    protos: &[Proto],
    plan: &[Vec<Req>],
    drain: Duration,
) -> io::Result<(Instant, Vec<Outcome>)> {
    // Connect before the origin so connection setup is not charged to the
    // first requests.
    let mut conns: Vec<Conn> = protos
        .iter()
        .zip(plan)
        .map(|(&proto, reqs)| Conn::open(addr, proto, reqs))
        .collect::<io::Result<_>>()?;
    let last_due = plan.iter().filter_map(|r| r.last()).map(|r| r.due).max().unwrap_or_default();
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                crate::keepawake::lower_to_idle_priority();
                let origin = Instant::now();
                let deadline = origin + last_due + drain;
                loop {
                    let mut busy = false;
                    for c in &mut conns {
                        c.send_due(origin)?;
                        c.take_replies(origin)?;
                        busy |= !c.finished();
                    }
                    if !busy || Instant::now() >= deadline {
                        break; // whatever is still in flight timed out
                    }
                    std::hint::spin_loop();
                }
                Ok((origin, conns.into_iter().flat_map(|c| c.out).collect()))
            })
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("load generator panicked")))
    })
}

/// One connection's share of a phase.
struct Conn<'a> {
    stream: TcpStream,
    proto: Proto,
    reqs: &'a [Req],
    out: Vec<Outcome>,
    /// Indices of sent, unanswered requests (replies come back in order).
    inflight: VecDeque<usize>,
    next: usize,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl<'a> Conn<'a> {
    fn open(addr: SocketAddr, proto: Proto, reqs: &'a [Req]) -> io::Result<Conn<'a>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let out = reqs
            .iter()
            .map(|r| Outcome {
                id: r.id,
                due: r.due,
                sent: None,
                done: None,
                status: 0,
                labels: Vec::new(),
                rows: r.rows.clone(),
            })
            .collect();
        Ok(Conn {
            stream,
            proto,
            reqs,
            out,
            inflight: VecDeque::new(),
            next: 0,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
        })
    }

    fn finished(&self) -> bool {
        self.next == self.reqs.len() && self.inflight.is_empty()
    }

    /// Sends every request whose due time has come.
    fn send_due(&mut self, origin: Instant) -> io::Result<()> {
        while self.next < self.reqs.len() && self.reqs[self.next].due <= origin.elapsed() {
            self.wbuf.clear();
            encode(self.proto, &self.reqs[self.next], &mut self.wbuf);
            write_all_nonblocking(&mut self.stream, &self.wbuf)?;
            self.out[self.next].sent = Some(origin.elapsed());
            self.inflight.push_back(self.next);
            self.next += 1;
        }
        Ok(())
    }

    /// Reads what the socket has and settles every complete reply.
    fn take_replies(&mut self, origin: Instant) -> io::Result<()> {
        if self.inflight.is_empty() {
            return Ok(());
        }
        let read_at = read_available(&mut self.stream, &mut self.rbuf)?;
        while let Some((reply, used)) = decode(self.proto, &self.rbuf)? {
            self.rbuf.drain(..used);
            let i = self
                .inflight
                .pop_front()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unsolicited reply"))?;
            if self.proto == Proto::Binary && reply.id != self.reqs[i].id {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "reply out of order"));
            }
            self.out[i].done = Some(read_at - origin);
            self.out[i].status = reply.status;
            self.out[i].labels = reply.labels;
        }
        Ok(())
    }
}

fn encode(proto: Proto, req: &Req, out: &mut Vec<u8>) {
    match proto {
        Proto::Binary => encode_request(req.id, None, &req.rows, out),
        Proto::Http => {
            // The request id becomes the trace id, so traced requests can
            // be matched to what the client measured.
            let plain = format_predict_request(&req.rows, None, true);
            let line_end = plain.windows(2).position(|w| w == b"\r\n").map_or(0, |p| p + 2);
            out.extend_from_slice(&plain[..line_end]);
            out.extend_from_slice(format!("X-Request-Id: {}\r\n", req.id).as_bytes());
            out.extend_from_slice(&plain[line_end..]);
        }
    }
}

/// One decoded reply.
#[derive(Debug, PartialEq)]
struct Reply {
    /// The echoed request id (binary only; 0 for HTTP).
    id: u64,
    status: u16,
    labels: Vec<u32>,
}

/// Decodes one complete reply from the front of `buf`, with the bytes it
/// used, or `None` when incomplete.
fn decode(proto: Proto, buf: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    match proto {
        Proto::Binary => match decode_response(buf, 1 << 24) {
            Ok(Some((f, used))) => {
                Ok(Some((Reply { id: f.request_id, status: f.status, labels: f.labels }, used)))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}"))),
        },
        Proto::Http => decode_http(buf),
    }
}

fn decode_http(buf: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else { return Ok(None) };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut len = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    let start = head_end + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    let body = std::str::from_utf8(&buf[start..start + len]).map_err(|_| bad("non-UTF-8 body"))?;
    let labels = body
        .split_once("\"labels\":[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(list, _)| list.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_default();
    Ok(Some((Reply { id: 0, status, labels }, start + len)))
}

fn write_all_nonblocking(stream: &mut TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "server closed")),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Appends every byte the socket has ready; returns when that happened.
fn read_available(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> io::Result<Instant> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Instant::now()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_round_robin_and_evenly_spaced() {
        let mix =
            Mix { rate_rps: 100.0, duration: Duration::from_secs(2), big_share: 0.25, big_rows: 8 };
        let pool: Vec<u32> = (0..50).collect();
        let a = schedule(mix, 2, &pool, 9, 1000);
        let b = schedule(mix, 2, &pool, 9, 1000);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 200);
        assert_eq!(a[0].len(), 100);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same inputs");
        assert_eq!(a[0][0].id, 1001);
        assert_eq!(a[1][0].id, 1002);
        assert_eq!(a[1][0].due, Duration::from_millis(10));
        assert_eq!(a[0][1].due, Duration::from_millis(20));
        let big = a.iter().flatten().filter(|r| r.rows.len() == 8).count();
        assert!((30..=70).contains(&big), "about a quarter of 200 are big: {big}");
        for r in a.iter().flatten() {
            let mut rows = r.rows.clone();
            rows.sort_unstable();
            rows.dedup();
            assert_eq!(rows.len(), r.rows.len(), "rows are distinct within a request");
        }
        assert_ne!(format!("{a:?}"), format!("{:?}", schedule(mix, 2, &pool, 10, 1000)));
    }

    #[test]
    fn outcome_latency_and_lag_are_timed_from_the_due_time() {
        let ms = Duration::from_millis;
        let mut o = Outcome {
            id: 1,
            due: ms(10),
            sent: Some(ms(12)),
            done: Some(ms(15)),
            status: 200,
            labels: vec![1],
            rows: vec![4],
        };
        assert_eq!(o.latency_us(), 5000.0);
        assert_eq!(o.lag_us(), 2000.0);
        assert_eq!(o.client_ns(), Some(3_000_000));
        o.status = 429;
        assert_eq!(o.latency_us(), f64::INFINITY, "refused requests miss");
        o.status = 200;
        o.done = None;
        assert_eq!(o.latency_us(), f64::INFINITY, "timed-out requests miss");
    }

    #[test]
    fn http_replies_decode_incrementally() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 28\r\n\r\n{\"epoch\":3,\"labels\":[1,0,2]}";
        for cut in 0..wire.len() {
            assert!(decode_http(&wire[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (reply, used) = decode_http(wire).unwrap().unwrap();
        assert_eq!(reply, Reply { id: 0, status: 200, labels: vec![1, 0, 2] });
        assert_eq!(used, wire.len());
    }

    #[test]
    fn http_requests_carry_the_request_id() {
        let req = Req { id: 42, due: Duration::ZERO, rows: vec![3, 4] };
        let mut out = Vec::new();
        encode(Proto::Http, &req, &mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("POST /predict HTTP/1.1\r\nX-Request-Id: 42\r\n"), "{text}");
        assert!(text.ends_with("{\"rows\":[3,4]}"), "{text}");
    }
}
