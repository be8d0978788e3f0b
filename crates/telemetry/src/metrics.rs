//! The log₂-bucket histogram.
//!
//! [`HistogramSnapshot`] is a plain (non-atomic) histogram owned by one
//! sink or observer on one thread. It merges associatively and
//! commutatively, so per-worker telemetry folds into one total in any
//! order with the same result.

/// Number of histogram buckets: one per possible `u64` bit length, plus a
/// dedicated zero bucket.
pub const NUM_BUCKETS: usize = 65;

/// The bucket index a value lands in: its bit length (`0` for `0`, else
/// `64 − leading_zeros`). Bucket `k ≥ 1` therefore covers `[2^(k−1), 2^k)`.
///
/// # Example
///
/// ```
/// use avc_telemetry::metrics::bucket_index;
/// assert_eq!(bucket_index(0), 0);
/// assert_eq!(bucket_index(1), 1);
/// assert_eq!(bucket_index(2), 2);
/// assert_eq!(bucket_index(3), 2);
/// assert_eq!(bucket_index(4), 3);
/// assert_eq!(bucket_index(u64::MAX), 64);
/// ```
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The inclusive `[lo, hi]` value range of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket {index} out of range");
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        k => (1 << (k - 1), (1 << k) - 1),
    }
}

/// A fixed-bucket log₂-scale histogram over `u64`.
///
/// Bucket `k` counts values of bit length `k` (see [`bucket_index`]), so 65
/// buckets cover the full `u64` range with one cache-cheap `leading_zeros`
/// per record and no configuration. Count and sum ride along for exact
/// means.
///
/// # Example
///
/// ```
/// use avc_telemetry::HistogramSnapshot;
/// let mut h = HistogramSnapshot::new();
/// for v in [0, 1, 5, 5, 900] {
///     h.record(v);
/// }
/// assert_eq!(h.count, 5);
/// assert_eq!(h.sum, 911);
/// assert_eq!(h.buckets[0], 1); // the zero
/// assert_eq!(h.buckets[3], 2); // the fives: [4, 8)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow; step counts fit
    /// comfortably in practice).
    pub sum: u64,
    /// Per-bucket observation counts, indexed by [`bucket_index`].
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// Whether no observation has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Folds another snapshot in. Associative and commutative: every field
    /// is a sum.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Exact mean of the observations (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`None` when empty). Resolution is one bucket — a factor of two —
    /// which is the deal log-scale histograms offer.
    #[must_use]
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i).1);
            }
        }
        Some(u64::MAX)
    }

    /// `(bucket_index, count)` pairs of the nonzero buckets, in index order
    /// (the sparse wire form).
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        let mut expected_lo = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} lower bound");
            assert!(lo <= hi);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "last bucket ends at u64::MAX");
    }

    #[test]
    fn values_land_inside_their_bucket_bounds() {
        for v in [0u64, 1, 2, 3, 4, 63, 64, 1_000_000, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantile_bound_tracks_bucket_edges() {
        let mut h = HistogramSnapshot::new();
        for _ in 0..99 {
            h.record(10); // bucket [8, 15]
        }
        h.record(1 << 20);
        assert_eq!(h.quantile_bound(0.5), Some(15));
        assert_eq!(h.quantile_bound(1.0), Some((1 << 21) - 1));
        assert_eq!(HistogramSnapshot::new().quantile_bound(0.5), None);
    }
}
