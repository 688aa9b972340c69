//! The benchmark's own arithmetic: percentiles under the ten-beyond rule,
//! medians, sustained-rung selection, and schedule-lag accounting.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The `per_mille`/1000 quantile of `sorted` (ascending) by nearest rank,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank, in integers so 0.99 × 1000 is exactly 990.
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// A latency distribution as reported: sample count, p50, p90 and p99
/// (each `None` when too few samples lie beyond it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: Option<f64>,
    pub p90: Option<f64>,
    pub p99: Option<f64>,
}

impl Latency {
    /// Summarizes `samples` (any order; `f64::INFINITY` marks a request
    /// that failed and so misses every limit).
    pub fn of(mut samples: Vec<f64>) -> Latency {
        samples.sort_by(f64::total_cmp);
        Latency {
            n: samples.len(),
            p50: percentile(&samples, 500),
            p90: percentile(&samples, 900),
            p99: percentile(&samples, 990),
        }
    }
}

/// The median of a handful of repeated measurements (mean of the middle
/// two for an even count). Not subject to the ten-beyond rule: it reports
/// the centre of a few repetitions, not a tail.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One rung of the capacity ladder, as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// The fixed open-loop rate offered.
    pub offered_rps: f64,
    /// Requests answered correctly per second of the rung.
    pub achieved_rps: f64,
    /// p99 latency from each request's due time, failures counted as
    /// infinite; `None` when the rung had too few samples.
    pub p99_us: Option<f64>,
    /// Whether latency grew across the rung (the queue did not keep up).
    pub backlog_growing: bool,
    /// Whether the generator kept to its schedule; a rung where it fell
    /// behind measured the generator, not the server.
    pub valid: bool,
}

impl Rung {
    /// Whether this rung meets `limit_us` at p99 with a stable queue.
    pub fn sustained(&self, limit_us: f64) -> bool {
        self.valid && !self.backlog_growing && self.p99_us.is_some_and(|p| p <= limit_us)
    }
}

/// The highest-rate rung that is sustained under `limit_us`, if any.
pub fn sustained_rung(rungs: &[Rung], limit_us: f64) -> Option<&Rung> {
    rungs
        .iter()
        .filter(|r| r.sustained(limit_us))
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
}

/// Whether latency grew across a rung: `in_due_order` holds each
/// request's latency in the order the requests were due. The queue is
/// taken to be growing when the median of the last quarter exceeds twice
/// the first quarter's plus `slack_us`.
pub fn backlog_growing(in_due_order: &[f64], slack_us: f64) -> bool {
    let q = in_due_order.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&in_due_order[..q]);
    let last = median(&in_due_order[in_due_order.len() - q..]);
    last > 2.0 * first + slack_us
}

/// The p99 of `values`, or their maximum when too few lie beyond the
/// p99 (0 when empty): how far behind its schedule the generator ran,
/// from its send-minus-due lags, and a stage's tail in the traced run.
pub fn p99_or_max(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 990).or(sorted.last().copied()).unwrap_or(0.0)
}

/// Whether a phase must be discarded because the generator fell behind:
/// half or more of its sends were over `limit_us` late. A late wake-up
/// now and then (the host descheduling an idle virtual CPU costs a few
/// milliseconds) shows in the lag p99; a generator that cannot keep pace
/// is late on most sends.
pub fn fell_behind(lags_us: &[f64], limit_us: f64) -> bool {
    !lags_us.is_empty() && median(lags_us) > limit_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        // 999 samples: rank 990 again, but only nine beyond.
        assert_eq!(percentile(&ramp(999), 990), None);
        // p50 of 20 samples is rank 10 with ten beyond; 19 is too few.
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
        assert_eq!(percentile(&ramp(19), 500), None);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn latency_counts_failures_as_misses() {
        let mut samples = ramp(2000);
        for s in samples.iter_mut().take(30) {
            *s = f64::INFINITY;
        }
        let l = Latency::of(samples);
        assert_eq!(l.n, 2000);
        // 30 failures sit above every real latency, so p99 (rank 1980)
        // lands on one of them.
        assert_eq!(l.p99, Some(f64::INFINITY));
        assert_eq!(l.p50, Some(1030.0));
        assert_eq!(l.p90, Some(1830.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn rung(rate: f64, p99: Option<f64>) -> Rung {
        Rung {
            offered_rps: rate,
            achieved_rps: rate * 0.99,
            p99_us: p99,
            backlog_growing: false,
            valid: true,
        }
    }

    #[test]
    fn sustained_rung_is_the_highest_meeting_the_limit() {
        let rungs = vec![
            rung(100.0, Some(900.0)),
            rung(200.0, Some(1500.0)),
            rung(300.0, Some(2500.0)),
            rung(400.0, Some(9000.0)),
        ];
        assert_eq!(sustained_rung(&rungs, 3000.0).map(|r| r.offered_rps), Some(300.0));
        assert_eq!(sustained_rung(&rungs, 1000.0).map(|r| r.offered_rps), Some(100.0));
        assert_eq!(sustained_rung(&rungs, 500.0), None);
    }

    #[test]
    fn a_failed_rung_is_never_sustained() {
        let mut failed = rung(300.0, Some(f64::INFINITY));
        let mut rungs = vec![rung(100.0, Some(900.0)), rung(200.0, Some(1500.0))];
        rungs.push(failed.clone());
        assert_eq!(sustained_rung(&rungs, 3000.0).map(|r| r.offered_rps), Some(200.0));
        // A rung whose p99 cannot be reported, whose queue grew, or whose
        // generator fell behind does not count either.
        failed.p99_us = None;
        assert!(!failed.sustained(f64::MAX));
        let mut growing = rung(250.0, Some(100.0));
        growing.backlog_growing = true;
        assert!(!growing.sustained(3000.0));
        let mut lagging = rung(250.0, Some(100.0));
        lagging.valid = false;
        assert!(!lagging.sustained(3000.0));
        // Above the top passing rung, a higher rung that passes again
        // still wins: rungs are judged independently.
        rungs.push(rung(400.0, Some(2000.0)));
        assert_eq!(sustained_rung(&rungs, 3000.0).map(|r| r.offered_rps), Some(400.0));
    }

    #[test]
    fn backlog_growth_compares_the_first_and_last_quarters() {
        let steady: Vec<f64> = (0..400).map(|i| 1000.0 + (i % 7) as f64).collect();
        assert!(!backlog_growing(&steady, 500.0));
        let climbing: Vec<f64> = (0..400).map(|i| 1000.0 + 50.0 * i as f64).collect();
        assert!(backlog_growing(&climbing, 500.0));
        assert!(!backlog_growing(&[5.0, 1e9], 0.0), "too short to judge");
    }

    #[test]
    fn schedule_lag_uses_p99_or_the_maximum() {
        // 1000 on-time sends and ten late ones: p99 stays on time.
        let mut lags = vec![50.0; 1000];
        lags.extend(std::iter::repeat_n(5000.0, 10));
        assert_eq!(p99_or_max(&lags), 50.0);
        // Twenty late ones push p99 into the late group, but late
        // wake-ups do not make the generator fall behind.
        lags.extend(std::iter::repeat_n(5000.0, 10));
        assert_eq!(p99_or_max(&lags), 5000.0);
        assert!(!fell_behind(&lags, 1000.0));
        // A generator late on most of its sends did.
        lags.extend(std::iter::repeat_n(5000.0, 1000));
        assert!(fell_behind(&lags, 1000.0));
        // Too few samples for a p99: the worst lag is reported.
        assert_eq!(p99_or_max(&[10.0, 20.0, 3000.0]), 3000.0);
        assert_eq!(p99_or_max(&[]), 0.0);
        assert!(!fell_behind(&[], 1000.0));
    }
}
