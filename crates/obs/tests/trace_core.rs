//! Tracing-core integration test: concurrent span aggregation counts
//! every span and counter increment across threads.

use std::thread;

use crossmine_obs::{ObsHandle, TrainReport};

#[test]
fn concurrent_span_aggregation_counts_every_span() {
    const THREADS: usize = 6;
    const SPANS_PER_THREAD: u64 = 500;
    let obs = ObsHandle::enabled();
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let obs = obs.clone();
            scope.spawn(move || {
                for _ in 0..SPANS_PER_THREAD {
                    let _s = obs.span("parallel.work");
                    obs.add("parallel.items", 2);
                }
            });
        }
    });
    let report = TrainReport::from_handle(&obs);
    let span = report.0.spans.iter().find(|s| s.name == "parallel.work").unwrap();
    assert_eq!(span.count, THREADS as u64 * SPANS_PER_THREAD);
    assert_eq!(report.0.counters, vec![("parallel.items", THREADS as u64 * SPANS_PER_THREAD * 2)]);
}
