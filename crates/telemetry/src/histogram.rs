//! Log₂ histograms of `u64` values, held by value.
//!
//! A [`Histogram`] lives inside the component it measures (the ToR's EQO
//! error histogram) and is read when a snapshot is taken; cloning the
//! component copies its buckets. A detached histogram (the `Default`) holds
//! no buckets, and recording into it is a single branch — the
//! zero-cost-when-disabled contract the churn micro-bench measures.

/// Number of histogram buckets: one for zero plus one per power of two of
/// the `u64` range.
const HIST_BUCKETS: usize = 65;

/// Bucket counts and totals of a recording histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Buckets {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// A log₂ histogram of `u64` values (sim-time durations, byte counts).
/// Count and sum saturate at `u64::MAX` instead of wrapping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram(Option<Box<Buckets>>);

impl Histogram {
    /// A histogram that records nothing.
    pub const fn detached() -> Self {
        Histogram(None)
    }

    /// An empty recording histogram.
    pub fn enabled() -> Self {
        Histogram(Some(Box::new(Buckets {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        })))
    }

    /// Whether observations are kept.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation (no-op when detached).
    #[inline]
    pub fn record(&mut self, v: u64) {
        let Some(h) = &mut self.0 else { return };
        h.counts[bucket_index(v)] += 1;
        h.count = h.count.saturating_add(1);
        h.sum = h.sum.saturating_add(v);
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// Aggregate view of everything recorded so far (empty when detached).
    pub fn summary(&self) -> HistogramSummary {
        let Some(h) = &self.0 else { return HistogramSummary::default() };
        let buckets = h
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u8, c))
            .collect();
        HistogramSummary {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
            buckets,
        }
    }
}

/// Bucket index of a value: 0 holds exactly 0; bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`. Values are typically sim-time durations in ns or byte
/// counts; log₂ buckets cover the full `u64` range in 65 slots.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Point-in-time aggregate of one histogram series: totals plus the
/// non-empty log₂ buckets as `(bucket index, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by index: bucket 0 holds exactly 0,
    /// bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u8, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn detached_histogram_is_inert() {
        let mut h = Histogram::detached();
        h.record(42);
        assert!(!h.is_on());
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn histogram_summary_aggregates() {
        let mut h = Histogram::enabled();
        for v in [0u64, 1, 3, 3, 8, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1015);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 -> b0; 1 -> b1; 3,3 -> b2; 8 -> b4; 1000 -> b10.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (4, 1), (10, 1)]);
    }

    #[test]
    fn histogram_count_and_sum_saturate() {
        let mut h = Histogram::enabled();
        if let Some(b) = &mut h.0 {
            b.count = u64::MAX;
            b.sum = u64::MAX - 1;
        }
        h.record(5);
        let s = h.summary();
        assert_eq!(s.count, u64::MAX, "count must saturate, not wrap to 0");
        assert_eq!(s.sum, u64::MAX, "sum must saturate, not wrap");
    }

    #[test]
    fn clones_are_independent() {
        let mut a = Histogram::enabled();
        a.record(7);
        let mut b = a.clone();
        b.record(9);
        assert_eq!(a.summary().count, 1);
        assert_eq!(b.summary().count, 2);
    }
}
