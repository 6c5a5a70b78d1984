//! The benchmark's own arithmetic: percentiles, span self time, and
//! failed-operation accounting. Everything here is unit-tested because
//! every reported number passes through it.

/// Percentiles a latency sample may be reported at, highest first.
pub const PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest rank (1-based) of percentile `p` in a sample of `n`, in exact
/// integer arithmetic on tenths of a percent.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (n * tenths).div_ceil(1000)
}

/// The highest percentile of [`PERCENTILES`] that has at least ten
/// samples beyond it in a sample of `n`, or `None` when even the median
/// has fewer than ten samples above it.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().copied().find(|&p| n - rank(n, p) >= 10)
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0..=100).
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A closed-open time interval in nanoseconds since a run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start (inclusive).
    pub start: u64,
    /// End (exclusive).
    pub end: u64,
}

impl Interval {
    /// Length in nanoseconds (0 for an inverted interval).
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// How much of `parent` the `children` cover: the length of the union of
/// the children, each clipped to the parent. Overlapping or unsorted
/// children are counted once per covered nanosecond. `children` is sorted
/// in place.
pub fn covered(parent: Interval, children: &mut [Interval]) -> u64 {
    if !children.windows(2).all(|w| w[0].start <= w[1].start) {
        children.sort_unstable_by_key(|c| c.start);
    }
    let mut total = 0;
    let mut reach = parent.start;
    for c in children.iter() {
        let start = c.start.max(reach);
        let end = c.end.min(parent.end);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover.
pub fn self_time(parent: Interval, children: &mut [Interval]) -> u64 {
    parent.len() - covered(parent, children)
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed: wrong output, error reply, refused
    /// connection or timeout.
    pub failed: u64,
    /// The first failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Latency of one request in milliseconds, or `None` when it failed. A
/// failed request counts as missing any latency limit, so it sorts above
/// every success.
pub fn latency_key(latency_ms: Option<f64>) -> f64 {
    latency_ms.unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn percentile_choice_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let mut kids = [iv(12, 15), iv(20, 30)];
        assert_eq!(self_time(iv(10, 40), &mut kids), 30 - 13);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut kids = [iv(20, 30), iv(12, 25), iv(14, 16)];
        assert_eq!(covered(iv(10, 40), &mut kids), 18);
        assert_eq!(self_time(iv(10, 40), &mut kids), 12);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let mut kids = [iv(0, 12), iv(35, 50), iv(60, 70)];
        assert_eq!(covered(iv(10, 40), &mut kids), 2 + 5);
        let mut none: [Interval; 0] = [];
        assert_eq!(self_time(iv(10, 40), &mut none), 30);
        let mut all = [iv(0, 100)];
        assert_eq!(self_time(iv(10, 40), &mut all), 0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("error reply".into()));
        t.record(Ok(()));
        let mut other = Tally::default();
        other.record(Err("refused".into()));
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.reasons, vec!["error reply".to_string(), "refused".to_string()]);
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        let mut lat = vec![latency_key(Some(3.0)), latency_key(None), latency_key(Some(1.0))];
        lat.sort_by(f64::total_cmp);
        assert_eq!(percentile(&lat, 100.0), Some(f64::INFINITY));
        assert_eq!(percentile(&lat, 50.0), Some(3.0));
    }
}
