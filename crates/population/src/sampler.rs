//! Weighted categorical sampling backed by a Fenwick (binary indexed) tree.
//!
//! The count-based engines need to repeatedly draw a state index with
//! probability proportional to its agent count, under counts that change by
//! ±1 after every interaction. A Fenwick tree supports both the point update
//! and the inverse-CDF draw in `O(log s)`.
//!
//! For small state spaces (`len <= 64`, which covers every constant-state
//! protocol in the paper) the inverse-CDF draw instead does a branchless
//! linear scan over a flat copy of the weights: at that size the whole
//! distribution is one or two cache lines, and the scan's independent
//! adds beat the tree descent's chain of dependent loads by a wide margin.
//! Both paths compute the same function, so which one runs is invisible to
//! callers and to the RNG stream.

use rand::Rng;

/// A dynamic categorical distribution over `0..len` with integer weights
/// whose total is at most `u32::MAX`.
///
/// # Example
///
/// ```
/// use avc_population::sampler::FenwickSampler;
/// use rand::SeedableRng;
///
/// let mut sampler = FenwickSampler::from_weights(&[2, 0, 3]);
/// assert_eq!(sampler.total(), 5);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let i = sampler.sample(&mut rng).unwrap();
/// assert!(i == 0 || i == 2);
/// sampler.add(0, -2);
/// assert_eq!(sampler.weight(0), 0);
/// sampler.shift(2, 1);
/// assert_eq!(sampler.weights(), &[0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenwickSampler {
    /// `tree[i]` holds the sum of a block of weights ending at index `i`
    /// (1-based Fenwick layout; `tree[0]` is unused). The tree is padded to
    /// a power-of-two capacity with zero-weight categories so the inverse-CDF
    /// descent needs no bounds checks and every level's probe is a plain
    /// load — the padding is invisible to callers (`len` stays the logical
    /// category count, and padded categories can never be selected because
    /// their weight is zero). Every node is at most the total, which is
    /// capped at `u32::MAX`, so `u32` nodes halve the tree's footprint.
    tree: Vec<u32>,
    /// Plain copy of the current weights. Serves `weight()` and `weights()`
    /// in O(1) and the linear-scan select fast path for small `len`.
    leaves: Vec<u64>,
    len: usize,
    total: u64,
    /// Padded capacity: the smallest power of two `≥ len` (`0` when empty).
    top_bit: usize,
}

/// At or below this many categories, `select`/`select_two` scan the flat
/// weight array instead of descending the tree: a branchless cumulative
/// scan over one or two cache lines beats the tree's chain of dependent
/// loads. Above it, the `O(log len)` descent wins.
const LINEAR_SCAN_LIMIT: usize = 64;

/// The largest total weight a sampler holds: the bound that lets the tree
/// store `u32` nodes.
const MAX_TOTAL: u64 = u32::MAX as u64;

impl FenwickSampler {
    /// Creates a sampler over `len` categories, all with weight zero.
    #[must_use]
    pub fn new(len: usize) -> FenwickSampler {
        let top_bit = if len == 0 { 0 } else { len.next_power_of_two() };
        FenwickSampler {
            tree: vec![0; top_bit + 1],
            leaves: vec![0; len],
            len,
            total: 0,
            top_bit,
        }
    }

    /// Creates a sampler initialized with the given weights.
    ///
    /// # Panics
    ///
    /// Panics if the weights sum to more than `u32::MAX`.
    #[must_use]
    pub fn from_weights(weights: &[u64]) -> FenwickSampler {
        let mut sampler = FenwickSampler::new(weights.len());
        sampler.reassign(weights);
        sampler
    }

    /// Overwrites every weight in place, reusing the existing allocations.
    ///
    /// Equivalent to `*self = FenwickSampler::from_weights(weights)` —
    /// the rebuilt tree is bit-identical to a fresh build, including the
    /// padded parents — but performs no heap allocation, which is what the
    /// engines' trial-batch `reset` seam needs.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the sampler's category count
    /// (a reused sampler keeps its shape; changing `len` would need a
    /// realloc anyway, so callers should construct a new sampler instead),
    /// or if the weights sum to more than `u32::MAX`.
    pub fn reassign(&mut self, weights: &[u64]) {
        assert_eq!(
            weights.len(),
            self.len,
            "reassign must keep the category count"
        );
        let total = weights
            .iter()
            .try_fold(0u64, |sum, &w| sum.checked_add(w))
            .filter(|&sum| sum <= MAX_TOTAL)
            .expect("total weight exceeds u32::MAX");
        // O(capacity) bulk build: seed the leaves, then accumulate each node
        // into its parent block (padded nodes carry partial sums of real
        // leaves, so they propagate too). No node exceeds the total.
        self.total = total;
        self.leaves.copy_from_slice(weights);
        self.tree.fill(0);
        for (node, &w) in self.tree[1..].iter_mut().zip(weights) {
            *node = w as u32;
        }
        for i in 1..=self.top_bit {
            let parent = i + (i & i.wrapping_neg());
            if parent <= self.top_bit {
                let v = self.tree[i];
                self.tree[parent] += v;
            }
        }
    }

    /// Number of categories.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sampler has zero categories.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all weights.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Levels one `select` tree descent walks at the current size: `0` on
    /// the linear-scan fast path (`len <= 64`), else `log₂(top_bit)`.
    /// [`FenwickSampler::select_two`] runs two such draws. Constant per
    /// sampler, so telemetry can record it without touching the descent
    /// itself.
    #[must_use]
    pub fn descent_depth(&self) -> u32 {
        if self.len <= LINEAR_SCAN_LIMIT {
            0
        } else {
            self.top_bit.trailing_zeros()
        }
    }

    /// Adds `delta` to the weight of category `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, the weight would underflow, or
    /// the total would exceed `u32::MAX`.
    pub fn add(&mut self, index: usize, delta: i64) {
        assert!(index < self.len, "index {index} out of range {}", self.len);
        let d = delta.unsigned_abs();
        if delta >= 0 {
            assert!(d <= MAX_TOTAL - self.total, "total weight exceeds u32::MAX");
            self.total += d;
            self.leaves[index] += d;
            let mut i = index + 1;
            while i <= self.top_bit {
                self.tree[i] += d as u32;
                i += i & i.wrapping_neg();
            }
        } else {
            assert!(self.weight(index) >= d, "weight underflow at index {index}");
            self.total -= d;
            self.leaves[index] -= d;
            let mut i = index + 1;
            while i <= self.top_bit {
                self.tree[i] -= d as u32;
                i += i & i.wrapping_neg();
            }
        }
    }

    /// Moves one unit of weight from category `from` to category `to`:
    /// the same weights and the bit-identical tree as `add(from, -1)` then
    /// `add(to, 1)`, in fewer writes.
    ///
    /// The two update paths climb toward the root and meet at the first
    /// block that holds both categories; from there on the −1 and the +1
    /// cancel, so each walk stops where they meet.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `from` has weight zero.
    #[inline]
    pub fn shift(&mut self, from: usize, to: usize) {
        assert!(
            from < self.len && to < self.len,
            "shift {from} -> {to} out of range {}",
            self.len
        );
        assert!(self.leaves[from] > 0, "weight underflow at index {from}");
        self.leaves[from] -= 1;
        self.leaves[to] += 1;
        // Both paths end at the root `top_bit`, so they always meet.
        let (mut down, mut up) = (from + 1, to + 1);
        while down != up {
            if down < up {
                self.tree[down] -= 1;
                down += down & down.wrapping_neg();
            } else {
                self.tree[up] += 1;
                up += up & up.wrapping_neg();
            }
        }
    }

    /// Current weight of category `index`.
    #[must_use]
    pub fn weight(&self, index: usize) -> u64 {
        self.leaves[index]
    }

    /// Every category's current weight, in index order.
    #[must_use]
    pub fn weights(&self) -> &[u64] {
        &self.leaves
    }

    /// Sum of weights of categories `0..end`.
    #[must_use]
    pub fn prefix_sum(&self, end: usize) -> u64 {
        let mut i = end.min(self.len);
        let mut sum = 0;
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Finds the smallest index whose prefix-inclusive cumulative weight
    /// exceeds `target` (i.e. the inverse CDF at `target`).
    ///
    /// # Panics
    ///
    /// Panics if `target >= total()`.
    #[must_use]
    pub fn select(&self, target: u64) -> usize {
        assert!(target < self.total, "select target beyond total weight");
        if self.len <= LINEAR_SCAN_LIMIT {
            // Branchless cumulative scan: count the categories whose
            // inclusive prefix sum is still `<= target`; that count is the
            // selected index. No data-dependent branches, no dependent loads.
            let mut acc = 0u64;
            let mut pos = 0usize;
            for &w in &self.leaves {
                acc += w;
                pos += (acc <= target) as usize;
            }
            return pos;
        }
        // `target < total <= u32::MAX`, so the remainder fits a node.
        let mut rem = target as u32;
        let mut pos = 0;
        // The padded root `tree[top_bit]` is the full sum, which a target
        // `< total` can never take, so the descent starts one level below.
        let mut step = self.top_bit >> 1;
        // Branchless descent: with the tree padded to a power of two,
        // `pos + step` is always in bounds, and the take/skip decision is a
        // mask instead of a data-dependent branch. Padded categories have
        // weight zero, so a target `< total` can never land on one.
        while step > 0 {
            let v = self.tree[pos + step];
            let take = (v <= rem) as u32;
            rem -= v & take.wrapping_neg();
            pos += step & (take as usize).wrapping_neg();
            step >>= 1;
        }
        pos // 0-based index of the selected category
    }

    /// Resolves an ordered pair of agents drawn without replacement: the
    /// first agent's category is the inverse CDF at `first` (`< total`);
    /// the second's is the inverse CDF at `second` (`< total − 1`) of the
    /// weights with one unit removed from the first agent's category.
    ///
    /// Removing that unit shifts every cumulative weight at or past the
    /// first category down by one, so the second answer is `select(second)`
    /// when that lands before the first category and `select(second + 1)`
    /// otherwise. The three inverse-CDF walks run in one descent (one
    /// linear pass at `len <= 64`): their loads are independent, and the
    /// walkers for `second` and `second + 1` probe the same node until
    /// their paths diverge. The result equals those separate `select`s.
    ///
    /// # Panics
    ///
    /// Panics if `first >= total()` or `second + 1 >= total()`.
    #[inline]
    #[must_use]
    pub fn select_two(&self, first: u64, second: u64) -> (usize, usize) {
        assert!(
            first < self.total && second < self.total.saturating_sub(1),
            "select_two target beyond total weight"
        );
        let (i, j0, j1) = if self.len <= LINEAR_SCAN_LIMIT {
            let mut acc = 0u64;
            let (mut i, mut j0, mut j1) = (0usize, 0usize, 0usize);
            for &w in &self.leaves {
                acc += w;
                i += (acc <= first) as usize;
                j0 += (acc <= second) as usize;
                j1 += (acc <= second + 1) as usize;
            }
            (i, j0, j1)
        } else {
            let (mut rem, mut rem0, mut rem1) = (first as u32, second as u32, second as u32 + 1);
            let (mut i, mut j0, mut j1) = (0usize, 0usize, 0usize);
            let mut step = self.top_bit >> 1;
            while step > 0 {
                let v = self.tree[i + step];
                let take = (v <= rem) as u32;
                rem -= v & take.wrapping_neg();
                i += step & (take as usize).wrapping_neg();
                let v0 = self.tree[j0 + step];
                let take0 = (v0 <= rem0) as u32;
                rem0 -= v0 & take0.wrapping_neg();
                j0 += step & (take0 as usize).wrapping_neg();
                let v1 = self.tree[j1 + step];
                let take1 = (v1 <= rem1) as u32;
                rem1 -= v1 & take1.wrapping_neg();
                j1 += step & (take1 as usize).wrapping_neg();
                step >>= 1;
            }
            (i, j0, j1)
        };
        (i, if j0 < i { j0 } else { j1 })
    }

    /// Draws a category with probability proportional to its weight.
    ///
    /// Returns `None` if the total weight is zero.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        Some(self.select(rng.gen_range(0..self.total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn build_matches_incremental() {
        let weights = [3u64, 0, 7, 1, 0, 0, 5, 2, 9];
        let bulk = FenwickSampler::from_weights(&weights);
        let mut inc = FenwickSampler::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            inc.add(i, w as i64);
        }
        assert_eq!(bulk.total(), inc.total());
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(bulk.weight(i), w);
            assert_eq!(inc.weight(i), w);
            assert_eq!(bulk.prefix_sum(i), inc.prefix_sum(i));
        }
    }

    #[test]
    fn select_walks_cdf_boundaries() {
        let s = FenwickSampler::from_weights(&[2, 0, 3, 1]);
        assert_eq!(s.select(0), 0);
        assert_eq!(s.select(1), 0);
        assert_eq!(s.select(2), 2);
        assert_eq!(s.select(4), 2);
        assert_eq!(s.select(5), 3);
    }

    #[test]
    #[should_panic(expected = "beyond total")]
    fn select_rejects_out_of_range_target() {
        let s = FenwickSampler::from_weights(&[1, 1]);
        let _ = s.select(2);
    }

    #[test]
    fn add_and_remove_roundtrips() {
        let mut s = FenwickSampler::from_weights(&[5, 5, 5]);
        s.add(1, -5);
        assert_eq!(s.weight(1), 0);
        assert_eq!(s.total(), 10);
        s.add(1, 2);
        assert_eq!(s.weight(1), 2);
        assert_eq!(s.total(), 12);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn add_rejects_underflow() {
        let mut s = FenwickSampler::from_weights(&[1]);
        s.add(0, -2);
    }

    #[test]
    fn sample_respects_zero_weights() {
        let s = FenwickSampler::from_weights(&[0, 4, 0]);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), Some(1));
        }
    }

    #[test]
    fn sample_none_when_empty_weight() {
        let s = FenwickSampler::from_weights(&[0, 0]);
        let mut rng = SmallRng::seed_from_u64(42);
        assert_eq!(s.sample(&mut rng), None);
    }

    #[test]
    fn sample_frequencies_roughly_proportional() {
        let s = FenwickSampler::from_weights(&[1, 3, 6]);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut hits = [0u64; 3];
        let trials = 100_000;
        for _ in 0..trials {
            hits[s.sample(&mut rng).unwrap()] += 1;
        }
        // Expected proportions 0.1 / 0.3 / 0.6 with ±2% slack.
        assert!((hits[0] as f64 / trials as f64 - 0.1).abs() < 0.02);
        assert!((hits[1] as f64 / trials as f64 - 0.3).abs() < 0.02);
        assert!((hits[2] as f64 / trials as f64 - 0.6).abs() < 0.02);
    }

    #[test]
    fn new_zero_categories_is_inert() {
        let s = FenwickSampler::new(0);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.top_bit, 0);
        assert_eq!(s.prefix_sum(0), 0);
        assert_eq!(s.prefix_sum(10), 0);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(s.sample(&mut rng), None);
    }

    #[test]
    fn top_bit_is_padded_capacity() {
        assert_eq!(FenwickSampler::new(0).top_bit, 0);
        for (len, expected) in [
            (1usize, 1usize),
            (2, 2),
            (3, 4),
            (4, 4),
            (5, 8),
            (7, 8),
            (8, 8),
            (9, 16),
            (100, 128),
            (1000, 1024),
            (1024, 1024),
        ] {
            let s = FenwickSampler::new(len);
            assert_eq!(s.top_bit, expected, "len {len}");
            assert_eq!(s.tree.len(), expected + 1, "len {len}");
        }
    }

    #[test]
    fn single_category_absorbs_everything() {
        let mut s = FenwickSampler::from_weights(&[7]);
        assert_eq!(s.total(), 7);
        for t in 0..7 {
            assert_eq!(s.select(t), 0);
        }
        for t in 0..6 {
            assert_eq!(s.select_two(t, t), (0, 0));
        }
        s.add(0, -7);
        assert_eq!(s.total(), 0);
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(s.sample(&mut rng), None);
    }

    #[test]
    fn total_weight_one_always_hits_the_unit_category() {
        let s = FenwickSampler::from_weights(&[0, 0, 1, 0]);
        assert_eq!(s.total(), 1);
        assert_eq!(s.select(0), 2);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(s.sample(&mut rng), Some(2));
        }
    }

    #[test]
    fn weight_to_zero_and_back_is_consistent() {
        let mut s = FenwickSampler::from_weights(&[4, 6, 2]);
        s.add(1, -6);
        assert_eq!(s.weight(1), 0);
        assert_eq!(s.total(), 6);
        // With category 1 empty, targets inside what used to be its range
        // must fall through to category 2.
        assert_eq!(s.select(3), 0);
        assert_eq!(s.select(4), 2);
        assert_eq!(s.select(5), 2);
        s.add(1, 6);
        assert_eq!(s.weight(1), 6);
        assert_eq!(s.total(), 12);
        assert_eq!(s.select(4), 1);
        assert_eq!(s.select(10), 2);
        // The tree must be bit-identical to a fresh build of the same
        // weights, including the padded parents.
        let fresh = FenwickSampler::from_weights(&[4, 6, 2]);
        assert_eq!(s.tree, fresh.tree);
    }

    #[test]
    fn reassign_matches_fresh_build_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(31);
        use rand::Rng;
        for len in [1usize, 3, 8, 64, 257] {
            let first: Vec<u64> = (0..len).map(|_| rng.gen_range(0..9)).collect();
            let second: Vec<u64> = (0..len).map(|_| rng.gen_range(0..9)).collect();
            let mut reused = FenwickSampler::from_weights(&first);
            // Dirty the tree with some churn before reassigning.
            if reused.weight(0) > 0 {
                reused.add(0, -1);
            }
            reused.add(len - 1, 5);
            reused.reassign(&second);
            let fresh = FenwickSampler::from_weights(&second);
            assert_eq!(reused.tree, fresh.tree, "len {len}");
            assert_eq!(reused.leaves, fresh.leaves, "len {len}");
            assert_eq!(reused.total(), fresh.total(), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "category count")]
    fn reassign_rejects_shape_changes() {
        let mut s = FenwickSampler::from_weights(&[1, 2, 3]);
        s.reassign(&[1, 2]);
    }

    /// The pair [`FenwickSampler::select_two`] must return, built from
    /// separate `select` walks.
    fn two_walks(s: &FenwickSampler, first: u64, second: u64) -> (usize, usize) {
        let i = s.select(first);
        let j = s.select(second);
        (i, if j < i { j } else { s.select(second + 1) })
    }

    #[test]
    fn select_two_matches_independent_walks() {
        let mut rng = SmallRng::seed_from_u64(2024);
        use rand::Rng;
        for len in [1usize, 2, 3, 5, 8, 13, 64, 65, 257, 2_050] {
            let weights: Vec<u64> = (0..len).map(|_| rng.gen_range(0..5)).collect();
            let s = FenwickSampler::from_weights(&weights);
            if s.total() < 2 {
                continue;
            }
            for _ in 0..200 {
                let first = rng.gen_range(0..s.total());
                let second = rng.gen_range(0..s.total() - 1);
                assert_eq!(
                    s.select_two(first, second),
                    two_walks(&s, first, second),
                    "len {len}"
                );
            }
        }
    }

    /// The linear-scan fast path and the tree descent must agree exactly;
    /// straddle the cutoff and force both paths onto the same weights by
    /// appending zero-weight categories to push `len` past the limit.
    #[test]
    fn linear_scan_agrees_with_tree_descent_across_the_cutoff() {
        let mut rng = SmallRng::seed_from_u64(77);
        use rand::Rng;
        for len in [1usize, 4, 63, 64, 65, 128] {
            let weights: Vec<u64> = (0..len).map(|_| rng.gen_range(0..5)).collect();
            let small = FenwickSampler::from_weights(&weights);
            let mut padded = weights.clone();
            padded.resize(len.max(LINEAR_SCAN_LIMIT + 1), 0);
            let large = FenwickSampler::from_weights(&padded);
            assert!(large.len() > LINEAR_SCAN_LIMIT);
            assert_eq!(small.total(), large.total());
            for t in 0..small.total() {
                assert_eq!(small.select(t), large.select(t), "len {len} target {t}");
            }
            for first in 0..small.total() {
                for second in 0..small.total().saturating_sub(1) {
                    let pair = small.select_two(first, second);
                    assert_eq!(pair, large.select_two(first, second), "len {len}");
                    assert_eq!(pair, two_walks(&small, first, second), "len {len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond total")]
    fn select_two_rejects_second_target_past_the_reduced_total() {
        let s = FenwickSampler::from_weights(&[1, 1]);
        let _ = s.select_two(0, 1);
    }

    #[test]
    fn shift_leaves_the_tree_of_two_adds() {
        let mut rng = SmallRng::seed_from_u64(5);
        use rand::Rng;
        for len in [1usize, 2, 7, 64, 65, 1_000] {
            let weights: Vec<u64> = (0..len).map(|_| rng.gen_range(1..4)).collect();
            let mut shifted = FenwickSampler::from_weights(&weights);
            let mut added = shifted.clone();
            for _ in 0..500 {
                let from = rng.gen_range(0..len);
                if shifted.weight(from) == 0 {
                    continue;
                }
                let to = rng.gen_range(0..len);
                shifted.shift(from, to);
                added.add(from, -1);
                added.add(to, 1);
                assert_eq!(shifted, added, "len {len}: shift {from} -> {to}");
            }
        }
    }

    #[test]
    fn total_of_exactly_u32_max_is_accepted() {
        let max = u64::from(u32::MAX);
        // Both sides of the linear-scan cutoff.
        for len in [3usize, 100] {
            let mut weights = vec![0; len];
            weights[0] = max - 1;
            weights[len - 1] = 1;
            let mut s = FenwickSampler::from_weights(&weights);
            assert_eq!(s.total(), max);
            assert_eq!(s.select(max - 1), len - 1);
            assert_eq!(s.select_two(max - 2, max - 2), (0, len - 1));
            s.shift(0, 1);
            s.add(1, -1);
            s.add(1, 1);
            assert_eq!(s.weight(0), max - 2);
            assert_eq!(s.select(max - 2), 1);
            assert_eq!(s, {
                weights[0] = max - 2;
                weights[1] = 1;
                FenwickSampler::from_weights(&weights)
            });
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn build_past_u32_max_panics() {
        let _ = FenwickSampler::from_weights(&[u64::from(u32::MAX), 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn add_past_u32_max_panics() {
        let mut s = FenwickSampler::from_weights(&[u64::from(u32::MAX), 0]);
        s.add(1, 1);
    }

    #[test]
    fn works_at_non_power_of_two_lengths() {
        for len in [1usize, 2, 3, 5, 13, 100, 1000] {
            let weights: Vec<u64> = (0..len as u64).map(|i| i % 7).collect();
            let s = FenwickSampler::from_weights(&weights);
            let total: u64 = weights.iter().sum();
            assert_eq!(s.total(), total);
            // Every boundary target selects the right category.
            let mut acc = 0;
            for (i, &w) in weights.iter().enumerate() {
                if w > 0 {
                    assert_eq!(s.select(acc), i);
                    assert_eq!(s.select(acc + w - 1), i);
                }
                acc += w;
            }
        }
    }
}
