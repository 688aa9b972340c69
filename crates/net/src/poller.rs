//! Readiness notification for the poll thread: one epoll set and an
//! eventfd [`Waker`], bound straight to the Linux system calls so the
//! crate stays std-only. This is the only module of the crate with
//! unsafe code; every block is a single foreign call whose arguments are
//! owned file descriptors or buffers this module allocated.
//!
//! File descriptors live in [`OwnedFd`] / [`File`], so they are closed on
//! drop, and the eventfd's 8-byte reads and writes go through `File`.

use std::ffi::{c_int, c_uint};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// `struct epoll_event`. The kernel declares it packed on x86_64 only
/// (12 bytes); elsewhere `data` is naturally aligned (16 bytes).
#[derive(Debug, Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// Most events one [`Poller::wait`] reports; more stay queued for the
/// next call.
const MAX_EVENTS: usize = 64;

/// Turns a `-1` return into the thread's `errno`.
fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll set with edge-triggered registrations.
#[derive(Debug)]
pub(crate) struct Poller {
    epfd: OwnedFd,
    events: Vec<EpollEvent>,
}

impl Poller {
    /// A new, empty epoll set.
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; the descriptor it
        // returns is new and owned by nobody else.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is an open descriptor that only this value owns.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Poller { epfd, events: vec![EpollEvent::default(); MAX_EVENTS] })
    }

    /// Watches socket `fd` edge-triggered for input, output and peer
    /// half-close; [`wait`](Self::wait) reports `token` when any of them
    /// becomes ready. Edge-triggered means one report per change of
    /// state, so the caller must read (or write) until `WouldBlock`, or
    /// come back to the socket without waiting. Closing `fd` removes it
    /// from the set.
    pub(crate) fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, token)
    }

    /// Watches `waker` edge-triggered for input: [`wait`](Self::wait)
    /// reports `token` after each [`Waker::wake`] that follows a
    /// [`Waker::drain`].
    pub(crate) fn register_waker(&self, waker: &Waker, token: u64) -> io::Result<()> {
        self.add(waker.fd.as_raw_fd(), EPOLLIN | EPOLLET, token)
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data: token };
        // SAFETY: `event` is a live, properly laid out epoll_event the
        // kernel only reads during the call. A stale or foreign `fd` is
        // rejected by the kernel with an error, never undefined behavior.
        check(unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) })?;
        Ok(())
    }

    /// Blocks until a registered descriptor is ready or `timeout` has
    /// passed, and returns the tokens of the ready ones (empty on
    /// timeout or when a signal interrupted the wait). The timeout is
    /// rounded up to whole milliseconds so a sub-millisecond remainder
    /// sleeps instead of spinning.
    pub(crate) fn wait(&mut self, timeout: Duration) -> io::Result<impl Iterator<Item = u64> + '_> {
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int;
        // SAFETY: `self.events` holds MAX_EVENTS initialized entries and
        // the kernel writes at most `maxevents` = MAX_EVENTS of them.
        let ret = unsafe {
            epoll_wait(self.epfd.as_raw_fd(), self.events.as_mut_ptr(), MAX_EVENTS as c_int, ms)
        };
        let ready = match check(ret) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        Ok(self.events[..ready].iter().map(|e| e.data))
    }
}

/// Wakes a thread blocked in [`Poller::wait`] from any other thread:
/// an eventfd registered in the poller's set. Clones share the one
/// descriptor, which closes when the last clone drops.
#[derive(Debug, Clone)]
pub struct Waker {
    fd: Arc<File>,
}

impl Waker {
    /// A new nonblocking eventfd.
    ///
    /// # Errors
    ///
    /// The OS error when no descriptor could be created.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers; the descriptor it returns is
        // new and owned by nobody else.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: `fd` is an open descriptor that only this value owns.
        let file = File::from(unsafe { OwnedFd::from_raw_fd(fd) });
        Ok(Waker { fd: Arc::new(file) })
    }

    /// Makes the eventfd readable, ending the poll thread's wait: one
    /// 8-byte write. Never blocks; a counter already near overflow just
    /// stays readable.
    pub fn wake(&self) {
        let _ = (&*self.fd).write(&1u64.to_ne_bytes());
    }

    /// Whether `self` and `other` are clones of one waker.
    pub fn same_as(&self, other: &Waker) -> bool {
        Arc::ptr_eq(&self.fd, &other.fd)
    }

    /// Resets the counter so the next [`wake`](Self::wake) is a new edge.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&*self.fd).read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn wait_ready(poller: &mut Poller, timeout: Duration) -> Vec<u64> {
        poller.wait(timeout).expect("wait").collect()
    }

    #[test]
    fn epoll_event_matches_the_kernel_layout() {
        let want = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<EpollEvent>(), want);
    }

    #[test]
    fn wait_with_nothing_ready_times_out_empty() {
        let mut poller = Poller::new().expect("epoll");
        let waker = Waker::new().expect("eventfd");
        poller.register_waker(&waker, 7).expect("register");
        let started = Instant::now();
        let ready = wait_ready(&mut poller, Duration::from_millis(30));
        assert!(ready.is_empty(), "{ready:?}");
        assert!(started.elapsed() >= Duration::from_millis(25), "{:?}", started.elapsed());
    }

    #[test]
    fn wake_from_another_thread_ends_a_long_wait() {
        let mut poller = Poller::new().expect("epoll");
        let waker = Waker::new().expect("eventfd");
        poller.register_waker(&waker, 7).expect("register");
        let (sent_tx, sent_rx) = std::sync::mpsc::channel();
        let remote = waker.clone();
        let thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let sent = Instant::now();
            remote.wake();
            sent_tx.send(sent).expect("send");
        });
        let ready = wait_ready(&mut poller, Duration::from_secs(5));
        let woke = Instant::now();
        thread.join().expect("waker thread");
        let sent = sent_rx.recv().expect("sent instant");
        assert_eq!(ready, vec![7]);
        assert!(woke.duration_since(sent) < Duration::from_millis(100));
        // Drained, the eventfd is quiet again.
        waker.drain();
        assert!(wait_ready(&mut poller, Duration::ZERO).is_empty());
    }

    #[test]
    fn socket_with_pending_bytes_is_reported_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let mut poller = Poller::new().expect("epoll");
        poller.register(server.as_raw_fd(), 3).expect("register");
        // A fresh socket is writable at once: consume that edge first.
        assert_eq!(wait_ready(&mut poller, Duration::from_secs(5)), vec![3]);
        assert!(wait_ready(&mut poller, Duration::ZERO).is_empty());
        client.write_all(b"ping").expect("send");
        assert_eq!(wait_ready(&mut poller, Duration::from_secs(5)), vec![3]);
    }
}
