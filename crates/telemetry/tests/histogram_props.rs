//! Property tests for the histogram bucket scheme and the merge monoid.
//!
//! Two families: (1) bucket-boundary correctness — every `u64` lands inside
//! the bounds of its own bucket, buckets tile the range without gaps, and
//! bucketing is monotone; (2) merge algebra — histogram and registry
//! snapshots merge associatively and commutatively, so folding per-worker
//! telemetry in any grouping at any worker count yields the same total.

use avc_telemetry::metrics::{bucket_bounds, bucket_index, NUM_BUCKETS};
use avc_telemetry::{HistogramSnapshot, MetricValue, RegistrySnapshot};
use proptest::prelude::*;

/// Builds a snapshot by recording each value once.
fn histogram_of(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A registry snapshot exercising all three metric kinds, derived from a
/// value list the way a worker's sink would produce it.
fn registry_of(values: &[u64]) -> RegistrySnapshot {
    let mut r = RegistrySnapshot::new();
    r.set("sim.steps", MetricValue::Counter(values.len() as u64));
    r.set(
        "sim.depth_max",
        MetricValue::Gauge(values.iter().copied().max().unwrap_or(0)),
    );
    r.set("sim.values", MetricValue::Histogram(histogram_of(values)));
    r
}

proptest! {
    #[test]
    fn every_value_lands_inside_its_bucket(v in any::<u64>()) {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
    }

    #[test]
    fn bucketing_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
    }

    #[test]
    fn buckets_tile_without_gaps(i in 1usize..NUM_BUCKETS) {
        let (lo, _) = bucket_bounds(i);
        let (_, prev_hi) = bucket_bounds(i - 1);
        prop_assert_eq!(lo, prev_hi + 1, "gap or overlap between buckets {} and {}", i - 1, i);
    }

    #[test]
    fn recording_preserves_count_sum_and_placement(values in proptest::collection::vec(any::<u64>(), 0..64)) {
        let h = histogram_of(&values);
        prop_assert_eq!(h.count, values.len() as u64);
        let expected_sum = values.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
        prop_assert_eq!(h.sum, expected_sum);
        for i in 0..NUM_BUCKETS {
            let expected = values.iter().filter(|&&v| bucket_index(v) == i).count() as u64;
            prop_assert_eq!(h.buckets[i], expected, "bucket {} count", i);
        }
    }

    #[test]
    fn histogram_merge_is_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..32),
        b in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(any::<u64>(), 0..32),
        b in proptest::collection::vec(any::<u64>(), 0..32),
        c in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));
        let mut left = ha.clone(); // (a + b) + c
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb; // a + (b + c)
        bc.merge(&hc);
        let mut right = ha;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Splitting one observation stream across any worker count and folding
    /// the per-worker registries — in index order or reversed — matches the
    /// single-worker registry exactly. This is the property the parallel
    /// harness leans on when it merges one telemetry block per worker.
    #[test]
    fn worker_split_merge_matches_single_worker(
        values in proptest::collection::vec(any::<u64>(), 1..96),
        workers in 1usize..8,
    ) {
        let whole = registry_of(&values);
        let chunks: Vec<&[u64]> = values.chunks(values.len().div_ceil(workers)).collect();
        let parts: Vec<RegistrySnapshot> = chunks.iter().map(|c| registry_of(c)).collect();

        let mut forward = RegistrySnapshot::new();
        for p in &parts {
            forward.merge(p);
        }
        // Counters and histograms sum, gauges take the max — all
        // order-free, so the reversed fold must agree.
        let mut backward = RegistrySnapshot::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        // The whole-stream counter is the sum of chunk lengths and the
        // gauge is the max of chunk maxima, so both folds equal `whole`.
        prop_assert_eq!(&forward, &whole);
        prop_assert_eq!(&backward, &whole);
    }
}
