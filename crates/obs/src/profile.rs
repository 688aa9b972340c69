//! Continuous in-process profiling: span-stack wall sampling, allocation
//! attribution, and lock-contention attribution — the third observability
//! pillar next to [`metrics`](crate::metrics) ("what moved?") and
//! [`tracectx`](crate::tracectx) ("why was this request slow?"). This
//! module answers "*where do the cycles, bytes, and lock waits go?*",
//! continuously, on the production binary.
//!
//! Three collectors share one [`Profiler`] handle:
//!
//! * **Span-stack wall sampler.** Every instrumented thread publishes its
//!   current span stack into a per-thread [seqlock] slot: entering a
//!   [`ProfileGuard`] pushes one `&'static str` frame, dropping it pops.
//!   A background sampler thread snapshots every slot at a configurable
//!   rate and folds the observed stacks into collapsed-stack counts —
//!   rendered as `a;b;c N` text ([`Profiler::collapsed`]) and as a
//!   self-contained flamegraph SVG ([`Profiler::flamegraph_svg`]).
//! * **Allocation attribution.** [`ProfiledAllocator`] wraps any
//!   [`GlobalAlloc`]; when profiling is live it charges every allocation's
//!   bytes to the innermost active span of the allocating thread, into a
//!   fixed-size lock-free table (the allocator itself never allocates).
//! * **Contention attribution.** [`LockTimer`]s handed out by
//!   [`Profiler::lock_timer`] time lock acquisitions into per-lock wait
//!   histograms, so "the queue mutex ate the p99" is a measurement.
//!
//! ## Cost model
//!
//! The crate-wide rule holds: **noop is free**. [`Profiler::noop`] (also
//! the [`Default`]) is a `None` inside — [`Profiler::enter`] is one branch
//! and zero allocations, [`LockTimer::noop`] runs the closure and nothing
//! else, and the wrapped allocator is a single relaxed load when no
//! profiler is live. The enabled hot path is small by construction: a
//! guard push is two sequence-counter bumps and two relaxed stores into a
//! preallocated per-thread slot; the sampler's work happens on its own
//! thread.
//!
//! [seqlock]: https://en.wikipedia.org/wiki/Seqlock
//!
//! ```
//! use crossmine_obs::profile::Profiler;
//!
//! let profiler = Profiler::noop(); // production default: free
//! {
//!     let _outer = profiler.enter("serve.batch");
//!     let _inner = profiler.enter("serve.eval");
//! } // stacks publish only on enabled profilers
//! assert!(profiler.collapsed().is_empty());
//! ```

use std::alloc::{GlobalAlloc, Layout};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::Histogram;

/// Deepest span stack a slot stores. Pushes beyond this depth are counted
/// (and the stack truncates) rather than lost — CrossMine's deepest real
/// nesting (wire → admission → shard → batch → eval → clause → literal)
/// is well under half of this.
pub const MAX_STACK_DEPTH: usize = 32;

/// How many distinct span names the process-global allocation table can
/// attribute to. Collisions beyond this fall into the overflow bucket
/// rather than being dropped.
pub const HEAP_TABLE_SLOTS: usize = 256;

/// Sampler knobs. The defaults — 97 Hz, allocation tracking on — suit
/// continuous production profiling: a prime rate avoids lockstep with
/// millisecond-periodic work, and ~100 samples/s/thread costs well under
/// a percent of one core.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Wall-sampling rate in samples per second per thread (clamped to
    /// `1..=10_000`). Prime rates avoid phase-locking with periodic work.
    pub hz: u32,
    /// Whether a live [`ProfiledAllocator`] should attribute allocations
    /// while this profiler exists.
    pub track_allocs: bool,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { hz: 97, track_allocs: true }
    }
}

// ---------------------------------------------------------------------------
// Per-thread seqlock slot
// ---------------------------------------------------------------------------

/// One frame: the raw parts of a `&'static str` span name, stored as two
/// relaxed atomics so a concurrent sampler read is a race on *values*,
/// never UB — the seqlock sequence check rejects torn combinations before
/// anything is dereferenced.
#[derive(Debug)]
struct Frame {
    ptr: AtomicUsize,
    len: AtomicUsize,
}

/// The per-thread span-stack slot: a single-writer seqlock. The owning
/// thread pushes/pops frames bracketed by sequence-counter bumps (odd =
/// write in progress); the sampler retries any read that observes an odd
/// or changed sequence, so it never acts on a torn stack.
#[derive(Debug)]
pub(crate) struct SpanSlot {
    /// Seqlock generation: odd while the owner is writing.
    seq: AtomicU64,
    /// Logical stack depth (may exceed [`MAX_STACK_DEPTH`]; frames beyond
    /// it are not stored).
    depth: AtomicUsize,
    frames: [Frame; MAX_STACK_DEPTH],
}

impl SpanSlot {
    fn new() -> Self {
        SpanSlot {
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| Frame {
                ptr: AtomicUsize::new(0),
                len: AtomicUsize::new(0),
            }),
        }
    }

    /// Owner-only: push one frame. Two `Release` sequence bumps bracket
    /// the relaxed data stores, the classic seqlock write protocol.
    pub(crate) fn push(&self, name: &'static str) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        if d < MAX_STACK_DEPTH {
            self.frames[d].ptr.store(name.as_ptr() as usize, Ordering::Relaxed);
            self.frames[d].len.store(name.len(), Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Owner-only: pop one frame.
    pub(crate) fn pop(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Sampler-side: snapshot the stack into `buf` (raw `(ptr, len)`
    /// pairs). Returns `(frames_copied, torn_retries)`; `None` for
    /// `frames_copied` means the writer kept the slot busy past the retry
    /// budget and this sample should be skipped. The raw pairs are only
    /// turned into strings *after* the sequence check accepted the read,
    /// so every returned pair was genuinely published as one frame.
    pub(crate) fn read_stack(
        &self,
        buf: &mut [(usize, usize); MAX_STACK_DEPTH],
    ) -> (Option<usize>, u64) {
        let mut retries = 0u64;
        // A writer's critical section is a handful of stores; 64 retries
        // only trips if the owner thread is pathologically preempted
        // mid-write, in which case skipping one sample is the right call.
        while retries < 64 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                retries += 1;
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed).min(MAX_STACK_DEPTH);
            for (i, slot) in buf.iter_mut().enumerate().take(depth) {
                *slot = (
                    self.frames[i].ptr.load(Ordering::Relaxed),
                    self.frames[i].len.load(Ordering::Relaxed),
                );
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return (Some(depth), retries);
            }
            retries += 1;
        }
        (None, retries)
    }
}

/// Recovers the `&'static str` a frame published. Sound because the only
/// writers of frame pairs are [`SpanSlot::push`] (raw parts of a genuine
/// `&'static str`) and because callers pass pairs validated by the
/// seqlock sequence check — a pair is never assembled from two different
/// writes.
fn frame_name(pair: (usize, usize)) -> &'static str {
    // SAFETY: see the function doc — (ptr, len) is the exact decomposition
    // of a `&'static str` that some `ProfileGuard` published, and 'static
    // string data never moves or deallocates.
    unsafe {
        std::str::from_utf8_unchecked(std::slice::from_raw_parts(pair.0 as *const u8, pair.1))
    }
}

// ---------------------------------------------------------------------------
// Allocation attribution (process-global: the allocator is)
// ---------------------------------------------------------------------------

/// Number of live profilers that asked for allocation tracking; the
/// wrapped allocator attributes only while this is nonzero, so disabled
/// runs pay one relaxed load per allocation.
static ALLOC_PROFILERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The innermost active span of this thread, as raw `&'static str`
    /// parts — `(0, 0)` when none. Maintained by [`ProfileGuard`]; read
    /// by the allocator (which must not touch anything that allocates).
    static CURRENT_SPAN: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// One row of the global attribution table. `ptr` doubles as the claim
/// word: slots are claimed by CAS from 0, then `len` is published, then
/// counts accumulate. All cumulative (bytes ever allocated, not live).
struct HeapSlot {
    ptr: AtomicUsize,
    len: AtomicUsize,
    bytes: AtomicU64,
    allocs: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as an array-repeat seed
const HEAP_SLOT_INIT: HeapSlot = HeapSlot {
    ptr: AtomicUsize::new(0),
    len: AtomicUsize::new(0),
    bytes: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
};

/// The process-global span → (bytes, allocs) table, plus an overflow
/// bucket for the (unlikely) case of more than [`HEAP_TABLE_SLOTS`]
/// distinct span names. Fixed-size and lock-free: the allocator writes
/// it, so it can never allocate or block.
static HEAP_TABLE: [HeapSlot; HEAP_TABLE_SLOTS] = [HEAP_SLOT_INIT; HEAP_TABLE_SLOTS];
static HEAP_OVERFLOW_BYTES: AtomicU64 = AtomicU64::new(0);
static HEAP_OVERFLOW_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated with no active span (startup, unprofiled threads).
static HEAP_UNATTRIBUTED_BYTES: AtomicU64 = AtomicU64::new(0);
static HEAP_UNATTRIBUTED_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Charges `size` bytes to the allocating thread's innermost span.
/// Called from inside the global allocator: no allocation, no locks, no
/// panics. `try_with` covers TLS teardown during thread exit.
fn charge_alloc(size: usize) {
    let span = CURRENT_SPAN.try_with(Cell::get).unwrap_or((0, 0));
    if span.0 == 0 {
        HEAP_UNATTRIBUTED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        HEAP_UNATTRIBUTED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // Open addressing keyed by the name's address. Distinct `&'static
    // str`s have distinct addresses (identical literals that the linker
    // merged share both address and length), so address equality is name
    // equality here.
    let mut idx = (span.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) % HEAP_TABLE_SLOTS;
    for _ in 0..HEAP_TABLE_SLOTS {
        let slot = &HEAP_TABLE[idx];
        let cur = slot.ptr.load(Ordering::Relaxed);
        if cur == span.0
            || (cur == 0
                && slot
                    .ptr
                    .compare_exchange(0, span.0, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok())
        {
            slot.len.store(span.1, Ordering::Release);
            slot.bytes.fetch_add(size as u64, Ordering::Relaxed);
            slot.allocs.fetch_add(1, Ordering::Relaxed);
            return;
        }
        idx = (idx + 1) % HEAP_TABLE_SLOTS;
    }
    HEAP_OVERFLOW_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    HEAP_OVERFLOW_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Cumulative allocation attribution of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapEntry {
    /// The innermost span the bytes were charged to.
    pub span: &'static str,
    /// Bytes ever allocated under that span (cumulative, not live).
    pub bytes: u64,
    /// Allocation count.
    pub allocs: u64,
}

/// Snapshot of the process-global allocation table, descending by bytes.
/// Populated only while a [`ProfiledAllocator`] is installed and a
/// profiler with `track_allocs` is live.
pub fn heap_snapshot() -> Vec<HeapEntry> {
    let mut out = Vec::new();
    for slot in HEAP_TABLE.iter() {
        let ptr = slot.ptr.load(Ordering::Relaxed);
        let len = slot.len.load(Ordering::Acquire);
        if ptr == 0 || len == 0 {
            continue;
        }
        let bytes = slot.bytes.load(Ordering::Relaxed);
        let allocs = slot.allocs.load(Ordering::Relaxed);
        if allocs == 0 {
            continue;
        }
        out.push(HeapEntry { span: frame_name((ptr, len)), bytes, allocs });
    }
    out.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.span.cmp(b.span)));
    out
}

/// A [`GlobalAlloc`] wrapper that attributes allocations to the
/// allocating thread's innermost active span. Install it as the global
/// allocator of binaries that want heap attribution:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ProfiledAllocator<std::alloc::System> =
///     ProfiledAllocator(std::alloc::System);
/// ```
///
/// While no profiler with `track_allocs` is live, every call is one
/// relaxed load plus the inner allocator — attribution machinery is never
/// touched.
#[derive(Debug)]
pub struct ProfiledAllocator<A>(pub A);

impl<A> ProfiledAllocator<A> {
    #[inline]
    fn live() -> bool {
        ALLOC_PROFILERS.load(Ordering::Relaxed) > 0
    }
}

// SAFETY: defers every allocation to the inner allocator unchanged; the
// attribution side channel allocates nothing and never unwinds.
unsafe impl<A: GlobalAlloc> GlobalAlloc for ProfiledAllocator<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if Self::live() {
            charge_alloc(layout.size());
        }
        self.0.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if Self::live() {
            charge_alloc(layout.size());
        }
        self.0.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if Self::live() {
            charge_alloc(new_size);
        }
        self.0.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout)
    }
}

// ---------------------------------------------------------------------------
// Lock contention attribution
// ---------------------------------------------------------------------------

/// Times lock acquisitions into a per-lock wait histogram. Handed out by
/// [`Profiler::lock_timer`] and cached at construction by the code that
/// owns the lock — the noop timer (from a noop profiler, or the
/// [`Default`]) runs the closure with zero further cost.
#[derive(Clone, Default)]
pub struct LockTimer(Option<Arc<Histogram>>);

impl std::fmt::Debug for LockTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "LockTimer(enabled)" } else { "LockTimer(noop)" })
    }
}

impl LockTimer {
    /// The free timer: [`time`](Self::time) is the closure and a branch.
    pub fn noop() -> Self {
        LockTimer(None)
    }

    /// Whether acquisitions are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `acquire` (typically `|| mutex.lock()`) and records how long
    /// it took, in nanoseconds, into the wait histogram.
    #[inline]
    pub fn time<T>(&self, acquire: impl FnOnce() -> T) -> T {
        match &self.0 {
            None => acquire(),
            Some(h) => {
                let t = Instant::now();
                let out = acquire();
                h.record(t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                out
            }
        }
    }
}

/// One lock's wait profile, for [`Profiler::lock_waits`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockWait {
    /// The lock's registered name (e.g. `serve.queue`).
    pub name: &'static str,
    /// Acquisitions recorded.
    pub count: u64,
    /// Total nanoseconds spent acquiring.
    pub total_ns: u64,
    /// Median wait (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile wait (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Worst wait observed, nanoseconds.
    pub max_ns: u64,
}

// ---------------------------------------------------------------------------
// The profiler proper
// ---------------------------------------------------------------------------

/// Source of unique profiler ids, keying the thread-local slot cache.
static NEXT_PROFILER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's registered slots, keyed by profiler id. A thread
    /// rarely serves more than one profiler; the vec keeps re-registration
    /// bounded if it ever does.
    static TLS_SLOTS: RefCell<Vec<(u64, Arc<SpanSlot>)>> = const { RefCell::new(Vec::new()) };
}

/// Folded sample state the sampler thread accumulates.
#[derive(Default)]
struct SampleState {
    /// Collapsed stacks: frame chain → samples observed.
    folded: HashMap<Vec<&'static str>, u64>,
    /// Samples where the thread had no active span.
    idle: u64,
    /// Samples skipped because the seqlock stayed busy.
    skipped: u64,
}

struct ProfilerCore {
    id: u64,
    cfg: ProfileConfig,
    /// Every registered thread slot (threads register on first
    /// [`Profiler::enter`] and are sampled until the profiler dies).
    slots: Mutex<Vec<Arc<SpanSlot>>>,
    state: Mutex<SampleState>,
    /// Per-lock wait histograms, interned by name.
    locks: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
    samples: AtomicU64,
    torn_retries: AtomicU64,
    stop: AtomicBool,
}

impl ProfilerCore {
    fn enter(self: &Arc<Self>, name: &'static str) -> ProfileGuard {
        let slot = TLS_SLOTS
            .try_with(|cache| {
                let mut cache = cache.borrow_mut();
                if let Some((_, slot)) = cache.iter().find(|(id, _)| *id == self.id) {
                    return Some(Arc::clone(slot));
                }
                let slot = Arc::new(SpanSlot::new());
                self.slots.lock().expect("profiler slots poisoned").push(Arc::clone(&slot));
                cache.push((self.id, Arc::clone(&slot)));
                Some(slot)
            })
            .ok()
            .flatten();
        let Some(slot) = slot else {
            return ProfileGuard { inner: None };
        };
        slot.push(name);
        let prev = CURRENT_SPAN
            .try_with(|c| c.replace((name.as_ptr() as usize, name.len())))
            .unwrap_or((0, 0));
        ProfileGuard { inner: Some(GuardInner { slot, prev }) }
    }

    /// One sampling sweep over every registered slot.
    fn sample_once(&self) {
        let slots = {
            let guard = self.slots.lock().expect("profiler slots poisoned");
            guard.clone()
        };
        if slots.is_empty() {
            return;
        }
        let mut buf = [(0usize, 0usize); MAX_STACK_DEPTH];
        let mut state = self.state.lock().expect("profiler state poisoned");
        for slot in &slots {
            let (depth, retries) = slot.read_stack(&mut buf);
            self.torn_retries.fetch_add(retries, Ordering::Relaxed);
            self.samples.fetch_add(1, Ordering::Relaxed);
            match depth {
                None => state.skipped += 1,
                Some(0) => state.idle += 1,
                Some(d) => {
                    let stack: Vec<&'static str> =
                        buf[..d].iter().map(|&pair| frame_name(pair)).collect();
                    *state.folded.entry(stack).or_insert(0) += 1;
                }
            }
        }
    }

    fn run_sampler(self: Arc<Self>) {
        let hz = self.cfg.hz.clamp(1, 10_000);
        let interval = Duration::from_nanos(1_000_000_000 / u64::from(hz));
        // Sleep first: a sample taken the moment the thread starts would
        // race whatever the starting thread does next.
        loop {
            std::thread::sleep(interval);
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            self.sample_once();
        }
    }
}

/// What the `Profiler` handles share: the core plus the sampler thread,
/// stopped and joined when the last handle drops.
struct ProfilerShared {
    core: Arc<ProfilerCore>,
    sampler: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for ProfilerShared {
    fn drop(&mut self) {
        self.core.stop.store(true, Ordering::Relaxed);
        if let Ok(mut guard) = self.sampler.lock() {
            if let Some(handle) = guard.take() {
                let _ = handle.join();
            }
        }
        if self.core.cfg.track_allocs {
            ALLOC_PROFILERS.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Cumulative sampler statistics, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Thread-samples taken (threads swept × sweeps).
    pub samples: u64,
    /// Samples that found an empty span stack.
    pub idle: u64,
    /// Samples abandoned because the slot's writer stayed busy.
    pub skipped: u64,
    /// Seqlock read retries (a retry is the tear-*avoidance* mechanism
    /// working, not a tear observed).
    pub torn_retries: u64,
    /// Threads currently registered.
    pub threads: usize,
}

/// A cheaply cloneable handle to one profiling session — or a no-op.
///
/// The no-op handle (also the [`Default`]) is what every config carries
/// unless the caller opts in; every instrumentation call on it is one
/// branch.
#[derive(Clone, Default)]
pub struct Profiler(Option<Arc<ProfilerShared>>);

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Profiler(noop)"),
            Some(sh) => write!(f, "Profiler(enabled, {} hz)", sh.core.cfg.hz),
        }
    }
}

impl Profiler {
    /// The free profiler: guards, timers, and renderers all no-op.
    pub fn noop() -> Self {
        Profiler(None)
    }

    /// An enabled profiler with default knobs (97 Hz, allocation
    /// tracking on). Spawns the sampler thread.
    pub fn enabled() -> Self {
        Self::with_config(ProfileConfig::default())
    }

    /// An enabled profiler with explicit knobs.
    pub fn with_config(cfg: ProfileConfig) -> Self {
        if cfg.track_allocs {
            ALLOC_PROFILERS.fetch_add(1, Ordering::Relaxed);
        }
        let core = Arc::new(ProfilerCore {
            id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed),
            cfg,
            slots: Mutex::new(Vec::new()),
            state: Mutex::new(SampleState::default()),
            locks: Mutex::new(Vec::new()),
            samples: AtomicU64::new(0),
            torn_retries: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let sampler_core = Arc::clone(&core);
        let sampler = std::thread::Builder::new()
            .name("crossmine-prof".into())
            .spawn(move || sampler_core.run_sampler())
            .ok();
        Profiler(Some(Arc::new(ProfilerShared { core, sampler: Mutex::new(sampler) })))
    }

    /// Whether this profiler records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Pushes `name` onto this thread's published span stack; the
    /// returned guard pops it on drop. The innermost live guard is also
    /// where [`ProfiledAllocator`] charges this thread's allocations.
    #[inline]
    pub fn enter(&self, name: &'static str) -> ProfileGuard {
        match &self.0 {
            None => ProfileGuard { inner: None },
            Some(sh) => sh.core.enter(name),
        }
    }

    /// A wait timer for the lock named `name`, interned per profiler.
    /// Noop profilers hand out noop timers.
    pub fn lock_timer(&self, name: &'static str) -> LockTimer {
        match &self.0 {
            None => LockTimer(None),
            Some(sh) => {
                let mut locks = sh.core.locks.lock().expect("profiler locks poisoned");
                if let Some((_, h)) = locks.iter().find(|(n, _)| *n == name) {
                    return LockTimer(Some(Arc::clone(h)));
                }
                let h = Arc::new(Histogram::new());
                locks.push((name, Arc::clone(&h)));
                LockTimer(Some(h))
            }
        }
    }

    /// Every registered lock's wait profile, name-ascending.
    pub fn lock_waits(&self) -> Vec<LockWait> {
        let Some(sh) = &self.0 else { return Vec::new() };
        let mut out: Vec<LockWait> = sh
            .core
            .locks
            .lock()
            .expect("profiler locks poisoned")
            .iter()
            .map(|(name, h)| LockWait {
                name,
                count: h.count(),
                total_ns: h.sum(),
                p50_ns: h.quantile(0.50),
                p99_ns: h.quantile(0.99),
                max_ns: h.max(),
            })
            .collect();
        out.sort_by_key(|w| w.name);
        out
    }

    /// Sampler statistics so far.
    pub fn stats(&self) -> ProfileStats {
        let Some(sh) = &self.0 else { return ProfileStats::default() };
        let state = sh.core.state.lock().expect("profiler state poisoned");
        ProfileStats {
            samples: sh.core.samples.load(Ordering::Relaxed),
            idle: state.idle,
            skipped: state.skipped,
            torn_retries: sh.core.torn_retries.load(Ordering::Relaxed),
            threads: sh.core.slots.lock().expect("profiler slots poisoned").len(),
        }
    }

    /// Forces one sampling sweep now, in addition to the timed cadence —
    /// used by tests and by short-lived runs that would otherwise race
    /// the sampler interval.
    pub fn sample_now(&self) {
        if let Some(sh) = &self.0 {
            sh.core.sample_once();
        }
    }

    /// The folded (collapsed-stack) profile: one `frame;frame;... count`
    /// line per distinct stack, lexicographically sorted — the format
    /// `flamegraph.pl` and speedscope ingest. Empty on a noop profiler
    /// or before any sample landed.
    pub fn collapsed(&self) -> String {
        let Some(sh) = &self.0 else { return String::new() };
        let state = sh.core.state.lock().expect("profiler state poisoned");
        let mut lines: Vec<String> =
            state.folded.iter().map(|(stack, n)| format!("{} {n}", stack.join(";"))).collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// The folded profile rendered as a self-contained flamegraph SVG
    /// (no scripts, no external fonts): frame width ∝ samples, hover
    /// titles carry exact counts. Empty string on a noop profiler.
    pub fn flamegraph_svg(&self) -> String {
        let Some(sh) = &self.0 else { return String::new() };
        let folded: Vec<(Vec<&'static str>, u64)> = {
            let state = sh.core.state.lock().expect("profiler state poisoned");
            let mut v: Vec<_> = state.folded.iter().map(|(s, &n)| (s.clone(), n)).collect();
            v.sort();
            v
        };
        render_flamegraph(&folded)
    }

    /// The `/profile/heap` document: the allocation attribution table
    /// (process-global, populated when a [`ProfiledAllocator`] is
    /// installed) followed by this profiler's lock-wait table.
    pub fn heap_report(&self) -> String {
        if self.0.is_none() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str("# heap: cumulative bytes charged to the innermost active span\n");
        out.push_str("# bytes allocs span\n");
        for e in heap_snapshot() {
            let _ = writeln!(out, "{} {} {}", e.bytes, e.allocs, e.span);
        }
        let (ub, ua) = (
            HEAP_UNATTRIBUTED_BYTES.load(Ordering::Relaxed),
            HEAP_UNATTRIBUTED_ALLOCS.load(Ordering::Relaxed),
        );
        if ua > 0 {
            let _ = writeln!(out, "{ub} {ua} (no active span)");
        }
        let (ob, oa) = (
            HEAP_OVERFLOW_BYTES.load(Ordering::Relaxed),
            HEAP_OVERFLOW_ALLOCS.load(Ordering::Relaxed),
        );
        if oa > 0 {
            let _ = writeln!(out, "{ob} {oa} (table overflow)");
        }
        out.push_str("# locks: acquisition wait, nanoseconds\n");
        out.push_str("# count total_ns p50_ns p99_ns max_ns lock\n");
        for w in self.lock_waits() {
            let _ = writeln!(
                out,
                "{} {} {} {} {} {}",
                w.count, w.total_ns, w.p50_ns, w.p99_ns, w.max_ns, w.name
            );
        }
        out
    }
}

/// What a live guard owns: the thread's slot (kept alive past profiler
/// shutdown so the pop always has a target) and the previous innermost
/// span to restore for allocation attribution.
struct GuardInner {
    slot: Arc<SpanSlot>,
    prev: (usize, usize),
}

/// RAII frame guard returned by [`Profiler::enter`]: pops the published
/// frame and restores the previous allocation-attribution span on drop.
/// The disabled guard does nothing.
pub struct ProfileGuard {
    inner: Option<GuardInner>,
}

impl ProfileGuard {
    /// Whether this guard published a frame.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            g.slot.pop();
            let _ = CURRENT_SPAN.try_with(|c| c.set(g.prev));
        }
    }
}

// ---------------------------------------------------------------------------
// Flamegraph rendering
// ---------------------------------------------------------------------------

/// One node of the frame trie the renderer lays out.
struct FlameNode {
    name: String,
    total: u64,
    children: Vec<FlameNode>,
}

impl FlameNode {
    fn child(&mut self, name: &str) -> &mut FlameNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(FlameNode { name: name.to_string(), total: 0, children: Vec::new() });
        self.children.last_mut().expect("just pushed")
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(FlameNode::depth).max().unwrap_or(0)
    }
}

const FLAME_WIDTH: f64 = 1200.0;
const FRAME_HEIGHT: f64 = 17.0;

/// Escapes text for SVG/XML attribute and text content.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// A stable warm color per frame name (flamegraph convention), via a
/// small string hash — same name, same color, across runs.
fn frame_color(name: &str) -> String {
    let mut h: u32 = 2166136261;
    for b in name.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(16777619);
    }
    let r = 205 + (h % 50);
    let g = 80 + ((h >> 8) % 110);
    let b = (h >> 16) % 55;
    format!("rgb({r},{g},{b})")
}

/// Renders folded stacks as a self-contained flamegraph SVG. Pure
/// function of its input, so tests can pin the layout.
fn render_flamegraph(folded: &[(Vec<&'static str>, u64)]) -> String {
    let mut root = FlameNode { name: "all".to_string(), total: 0, children: Vec::new() };
    for (stack, n) in folded {
        root.total += n;
        let mut node = &mut root;
        for frame in stack {
            node = node.child(frame);
            node.total += n;
        }
    }
    let depth = root.depth();
    let height = (depth as f64 + 2.0) * FRAME_HEIGHT;
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{FLAME_WIDTH}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"11\">"
    );
    let _ = writeln!(
        svg,
        "<text x=\"4\" y=\"{}\">crossmine wall profile — {} samples</text>",
        height - 4.0,
        root.total
    );
    render_node(&mut svg, &root, 0.0, FLAME_WIDTH, 0, root.total.max(1));
    svg.push_str("</svg>\n");
    svg
}

fn render_node(svg: &mut String, node: &FlameNode, x: f64, width: f64, level: usize, total: u64) {
    if width < 0.5 {
        return;
    }
    let y = level as f64 * FRAME_HEIGHT;
    let pct = 100.0 * node.total as f64 / total as f64;
    let name = xml_escape(&node.name);
    let frame_h = FRAME_HEIGHT - 1.0;
    let color = frame_color(&node.name);
    let _ = writeln!(
        svg,
        "<g><title>{name} ({} samples, {pct:.1}%)</title>\
         <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{width:.2}\" height=\"{frame_h:.2}\" \
         fill=\"{color}\" stroke=\"white\" stroke-width=\"0.5\"/>",
        node.total,
    );
    // Label only frames wide enough to hold any text.
    if width >= 30.0 {
        let shown: String = name.chars().take((width / 7.0) as usize).collect();
        let _ = writeln!(svg, "<text x=\"{:.2}\" y=\"{:.2}\">{shown}</text>", x + 3.0, y + 12.0);
    }
    svg.push_str("</g>\n");
    let mut child_x = x;
    for child in &node.children {
        let child_w = width * child.total as f64 / node.total.max(1) as f64;
        render_node(svg, child, child_x, child_w, level + 1, total);
        child_x += child_w;
    }
}

// ---------------------------------------------------------------------------
// Process-level stats (/proc/self)
// ---------------------------------------------------------------------------

/// Point-in-time process facts read from `/proc/self/status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessStats {
    /// Resident set size, bytes.
    pub resident_bytes: u64,
    /// OS threads in the process.
    pub threads: u64,
}

/// Reads [`ProcessStats`] from procfs; `None` on platforms without
/// `/proc/self/status` (macOS, Windows) or on any parse surprise, so
/// callers degrade to simply not exposing the gauges.
pub fn process_stats() -> Option<ProcessStats> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let mut rss_kb: Option<u64> = None;
    let mut threads: Option<u64> = None;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            rss_kb = rest.trim().trim_end_matches("kB").trim().parse().ok();
        } else if let Some(rest) = line.strip_prefix("Threads:") {
            threads = rest.trim().parse().ok();
        }
    }
    Some(ProcessStats { resident_bytes: rss_kb? * 1024, threads: threads? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_profiler_is_inert() {
        let p = Profiler::noop();
        assert!(!p.is_enabled());
        {
            let g = p.enter("x");
            assert!(!g.is_recording());
        }
        p.sample_now();
        assert_eq!(p.collapsed(), "");
        assert_eq!(p.flamegraph_svg(), "");
        assert_eq!(p.heap_report(), "");
        assert_eq!(p.stats(), ProfileStats::default());
        assert!(p.lock_waits().is_empty());
        let t = p.lock_timer("l");
        assert!(!t.is_enabled());
        assert_eq!(t.time(|| 7), 7);
        assert_eq!(format!("{p:?}"), "Profiler(noop)");
    }

    mod enabled {
        use super::*;

        #[test]
        fn nested_guards_fold_into_stacks() {
            let p = Profiler::with_config(ProfileConfig { hz: 1, track_allocs: false });
            let _a = p.enter("outer");
            {
                let _b = p.enter("inner");
                p.sample_now();
            }
            p.sample_now();
            let collapsed = p.collapsed();
            assert!(collapsed.contains("outer;inner 1"), "{collapsed}");
            assert!(collapsed.contains("outer 1"), "{collapsed}");
            let stats = p.stats();
            assert_eq!(stats.threads, 1);
            assert!(stats.samples >= 2);
        }

        #[test]
        fn guard_drop_restores_the_previous_frame() {
            let p = Profiler::with_config(ProfileConfig { hz: 1, track_allocs: false });
            let _a = p.enter("a");
            {
                let _b = p.enter("b");
            }
            p.sample_now();
            let collapsed = p.collapsed();
            assert!(collapsed.contains("a 1"), "{collapsed}");
            assert!(!collapsed.contains("a;b"), "popped frame resampled: {collapsed}");
        }

        #[test]
        fn deep_stacks_truncate_but_stay_balanced() {
            let p = Profiler::with_config(ProfileConfig { hz: 1, track_allocs: false });
            let guards: Vec<_> = (0..MAX_STACK_DEPTH + 4).map(|_| p.enter("deep")).collect();
            p.sample_now();
            drop(guards);
            // After dropping every guard the stack must be empty again.
            p.sample_now();
            let collapsed = p.collapsed();
            let deepest = "deep;".repeat(MAX_STACK_DEPTH - 1) + "deep 1";
            assert!(collapsed.contains(&deepest), "{collapsed}");
            let stats = p.stats();
            assert_eq!(stats.idle, 1, "{stats:?}");
        }

        #[test]
        fn lock_timer_records_waits() {
            let p = Profiler::enabled();
            let t = p.lock_timer("test.lock");
            assert!(t.is_enabled());
            let m = Mutex::new(0u32);
            for _ in 0..5 {
                let mut g = t.time(|| m.lock().expect("unpoisoned"));
                *g += 1;
            }
            let waits = p.lock_waits();
            assert_eq!(waits.len(), 1);
            assert_eq!(waits[0].name, "test.lock");
            assert_eq!(waits[0].count, 5);
            // Interning: same name, same histogram.
            let t2 = p.lock_timer("test.lock");
            t2.time(|| ());
            assert_eq!(p.lock_waits()[0].count, 6);
        }

        #[test]
        fn flamegraph_is_wellformed_svg_with_proportional_frames() {
            let folded: Vec<(Vec<&'static str>, u64)> = vec![
                (vec!["serve.worker", "serve.batch", "serve.eval"], 30),
                (vec!["serve.worker", "serve.wait"], 10),
            ];
            let svg = render_flamegraph(&folded);
            assert!(svg.starts_with("<svg "), "{svg}");
            assert!(svg.trim_end().ends_with("</svg>"), "{svg}");
            assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
            assert!(svg.contains("serve.eval (30 samples, 75.0%)"), "{svg}");
            assert!(svg.contains("serve.wait (10 samples, 25.0%)"), "{svg}");
            assert!(svg.contains("40 samples"), "{svg}");
        }

        #[test]
        fn xml_and_label_escaping() {
            assert_eq!(xml_escape("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
            // Same name always maps to the same color.
            assert_eq!(frame_color("serve.eval"), frame_color("serve.eval"));
        }

        /// The seqlock torn-read proof, at the slot level: one writer
        /// thread churns push/pop of a canonical nested stack while a
        /// reader snapshots continuously. Every accepted read must be an
        /// exact prefix of the canonical stack — a single torn frame or
        /// mismatched depth fails the run. (A name-level tear would also
        /// be UB before it was a wrong answer; the prefix check catches
        /// the logic-level corruption the seqlock exists to prevent.)
        #[test]
        fn sampler_never_observes_a_torn_stack() {
            const NAMES: [&str; 6] = ["d0", "d1", "d2", "d3", "d4", "d5"];
            let slot = Arc::new(SpanSlot::new());
            let stop = Arc::new(AtomicBool::new(false));
            let writer = {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for name in NAMES {
                            slot.push(name);
                        }
                        for _ in NAMES {
                            slot.pop();
                        }
                    }
                })
            };
            let mut buf = [(0usize, 0usize); MAX_STACK_DEPTH];
            let mut accepted = 0u64;
            let deadline = Instant::now() + Duration::from_millis(400);
            while Instant::now() < deadline {
                let (depth, _) = slot.read_stack(&mut buf);
                let Some(d) = depth else { continue };
                accepted += 1;
                assert!(d <= NAMES.len(), "impossible depth {d}");
                for (i, &pair) in buf[..d].iter().enumerate() {
                    let name = frame_name(pair);
                    assert_eq!(
                        name, NAMES[i],
                        "torn stack: frame {i} of a depth-{d} read was {name:?}"
                    );
                }
            }
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("writer thread");
            assert!(accepted > 1_000, "reader starved: only {accepted} accepted reads");
        }

        /// The same property through the public API: concurrent guard
        /// churn plus the real sampler thread, then every collapsed line
        /// must be a prefix chain of the canonical nesting.
        #[test]
        fn collapsed_stacks_are_always_valid_prefixes_under_concurrency() {
            let p = Profiler::with_config(ProfileConfig { hz: 5_000, track_allocs: false });
            let stop = Arc::new(AtomicBool::new(false));
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let p = p.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            let _a = p.enter("w0");
                            let _b = p.enter("w1");
                            let _c = p.enter("w2");
                        }
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(150));
            stop.store(true, Ordering::Relaxed);
            for w in workers {
                w.join().expect("worker thread");
            }
            let collapsed = p.collapsed();
            assert!(!collapsed.is_empty(), "sampler never caught a stack");
            for line in collapsed.lines() {
                let stack = line.rsplit_once(' ').expect("count suffix").0;
                assert!(
                    ["w0", "w0;w1", "w0;w1;w2"].contains(&stack),
                    "non-prefix stack sampled: {line:?}"
                );
            }
        }

        #[test]
        fn allocation_attribution_charges_the_innermost_span() {
            let p = Profiler::with_config(ProfileConfig { hz: 1, track_allocs: true });
            // The table is process-global; use a name unique to this test.
            {
                let _g = p.enter("test.alloc_attr_span");
                charge_alloc(1000);
                charge_alloc(24);
            }
            charge_alloc(8); // no active span on this thread now
            let snap = heap_snapshot();
            let e = snap
                .iter()
                .find(|e| e.span == "test.alloc_attr_span")
                .expect("attributed entry present");
            assert_eq!(e.bytes, 1024);
            assert_eq!(e.allocs, 2);
            let report = p.heap_report();
            assert!(report.contains("1024 2 test.alloc_attr_span"), "{report}");
            assert!(report.contains("# locks"), "{report}");
        }

        #[test]
        fn process_stats_parse_on_procfs_platforms() {
            // On Linux this must parse; elsewhere None is the contract.
            if std::path::Path::new("/proc/self/status").exists() {
                let s = process_stats().expect("procfs present but unparsed");
                assert!(s.resident_bytes > 0);
                assert!(s.threads >= 1);
            } else {
                assert!(process_stats().is_none());
            }
        }
    }
}
