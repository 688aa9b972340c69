//! The no-op handle's cost contract: instrumentation calls on
//! [`ObsHandle::noop`] perform **zero heap allocation**. This is what makes
//! it safe to leave spans and counters in the learner's hot loops.
//!
//! Uses a counting wrapper around the system allocator; the binary is its
//! own test target so the global allocator doesn't leak into other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Asserts that `body` performs zero allocations. The counter is
/// process-global, so a runtime thread (test harness bookkeeping) can
/// land a stray one-off allocation mid-window; a *genuine* leak in the
/// instrumented loop allocates on every attempt, so one clean attempt
/// out of five proves the zero-alloc contract.
fn assert_zero_alloc(label: &str, body: impl Fn()) {
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = alloc_count();
        body();
        let delta = alloc_count() - before;
        if delta == 0 {
            return;
        }
        min_delta = min_delta.min(delta);
    }
    panic!("{label}: allocated every attempt (min {min_delta} allocations)");
}

#[test]
fn noop_handle_allocates_nothing() {
    let obs = crossmine_obs::ObsHandle::noop();
    let clone = obs.clone();

    // Warm up any lazy runtime state (thread-locals, fmt machinery).
    {
        let _g = obs.span("warmup");
    }
    obs.add("warmup", 1);

    assert_zero_alloc("no-op instrumentation", || {
        for i in 0..10_000u64 {
            let _span = obs.span("propagation.pass");
            let _nested = clone.span("search.candidate");
            obs.add("propagation.ids_propagated", i);
            obs.record("batch.size", i);
            obs.gauge_set("queue.depth", i as i64);
        }
    });

    // Cloning and dropping the no-op handle is also free. Kept in the same
    // test: concurrent tests would race on the process-global counter.
    assert_zero_alloc("no-op handle clone", || {
        for _ in 0..1_000 {
            let c = obs.clone();
            drop(c);
        }
    });

    // The trace-context path holds the same contract: a noop Tracer and
    // the contexts it hands out cost zero allocations per request —
    // start, span recording, error marking, cloning through the queue,
    // and completion included: disabled tracing stays off the allocator
    // entirely.
    use crossmine_obs::{TraceId, Tracer, ROOT_SPAN};
    let tracer = Tracer::noop();
    let t0 = std::time::Instant::now();
    assert_zero_alloc("no-op trace contexts", || {
        for i in 0..10_000u64 {
            let ctx = tracer.start(i);
            let rider = ctx.clone(); // the copy that rides the admission queue
            let span = ctx.add_span("net.parse", ROOT_SPAN, t0, t0);
            ctx.add_span_with("serve.eval", span, t0, t0, &[("rows", i.into())]);
            rider.mark_error();
            assert_eq!(rider.id(), TraceId::UNSET);
            assert!(ctx.complete().is_none());
            drop(rider);
        }
    });

    // The profiler holds the same contract on its disabled path: frame
    // guards, lock timers, and handle clones must never touch the
    // allocator.
    use crossmine_obs::{LockTimer, Profiler};
    let profiler = Profiler::noop();
    let timer = profiler.lock_timer("stats_cache");
    let noop_timer = LockTimer::noop();
    // Warm up: first call may lazily init fmt/TLS machinery.
    {
        let _g = profiler.enter("warmup");
        let _ = timer.time(|| 0u64);
    }
    assert_zero_alloc("disabled profiler", || {
        for i in 0..10_000u64 {
            let _frame = profiler.enter("serve.eval");
            let _nested = profiler.enter("net.parse");
            let v = timer.time(|| i);
            let w = noop_timer.time(|| i + 1);
            assert_eq!(v + 1, w);
            let c = profiler.clone();
            assert!(!c.is_enabled());
            drop(c);
        }
    });
}
