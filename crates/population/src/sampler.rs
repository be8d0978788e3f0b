//! Weighted categorical sampling for the count-based engines.
//!
//! The count-based engines repeatedly draw a state index with probability
//! proportional to its agent count, under counts that change by ±1 after
//! every interaction. The sampler resolves a draw — a rank below the total
//! weight — to its category (the inverse CDF) through one of two
//! representations, picked from its own length and total:
//!
//! - a **rank table** while `len <= 256` and `total <= 2^20`: one byte per
//!   unit of weight naming the category that holds that rank, plus the
//!   `len + 1` block starts. A draw is one load, and moving one unit from
//!   category `from` to category `to` rewrites one byte per block boundary
//!   between them. Every constant-state protocol in the paper, the rivals
//!   of the comparison grids and AVC up to 256 states take this path at
//!   every population the sweeps run.
//! - a **Fenwick tree** above either bound: a draw and a point update each
//!   walk `O(log len)` nodes.
//!
//! Both compute the same function, so which one runs is invisible to
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
    /// Plain copy of the current weights. Serves `weight()` and `weights()`
    /// in O(1).
    leaves: Vec<u64>,
    total: u64,
    /// The inverse CDF of `leaves`, always in the representation
    /// [`ranked`] picks for their length and total, so samplers with equal
    /// weights compare equal.
    index: Index,
}

/// How a [`FenwickSampler`] resolves a rank to the category holding it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Index {
    /// `ranks[r]` is the category holding rank `r` (`ranks.len()` is the
    /// total), and category `k` holds the ranks `starts[k]..starts[k + 1]`.
    Ranks { ranks: Vec<u8>, starts: Vec<u32> },
    /// `tree[i]` holds the sum of a block of weights ending at index `i`
    /// (1-based Fenwick layout; `tree[0]` is unused). The tree is padded to
    /// the power-of-two capacity `top_bit` (the smallest `≥ len`, `0` when
    /// empty) with zero-weight categories so the inverse-CDF descent needs
    /// no bounds checks and every level's probe is a plain load — padded
    /// categories can never be selected because their weight is zero.
    /// Every node is at most the total, which is capped at `u32::MAX`, so
    /// `u32` nodes halve the tree's footprint.
    Tree { tree: Vec<u32>, top_bit: usize },
}

/// The most categories the rank table serves: a rank names its category in
/// one byte. A move rewrites one byte per category between its two ends;
/// `CountSim`'s moves span 8–12 categories on average for AVC at 130
/// states and the comparison grids' BEF (30 states) and DEGSSU (142),
/// against 87 for AVC at 2 050 states, where the tree's `O(log len)` walk
/// is cheaper.
const MAX_RANKED_LEN: usize = 256;

/// The largest total the rank table serves: the table holds one byte per
/// unit of weight, 1 MiB at this bound. Past about a core's L2 cache its
/// random loads miss while the tree's few hot nodes stay cached: at
/// n = 2·10⁶ and above the tree steps four_state and BEF faster, at 10⁶
/// the two are about level.
const MAX_RANKED_TOTAL: u64 = 1 << 20;

/// The largest total weight a sampler holds: the bound that lets the tree
/// nodes and the block starts be `u32`.
const MAX_TOTAL: u64 = u32::MAX as u64;

/// Whether `len` categories of total weight `total` take the rank table.
fn ranked(len: usize, total: u64) -> bool {
    len <= MAX_RANKED_LEN && total <= MAX_RANKED_TOTAL
}

impl Index {
    /// The index of `len` zero weights, as a rank table or as a tree.
    fn zeros(len: usize, ranks: bool) -> Index {
        if ranks {
            Index::Ranks {
                ranks: Vec::new(),
                starts: vec![0; len + 1],
            }
        } else {
            let top_bit = if len == 0 { 0 } else { len.next_power_of_two() };
            Index::Tree {
                tree: vec![0; top_bit + 1],
                top_bit,
            }
        }
    }

    /// Rebuilds the index of `weights`, which sum to `total`, in the
    /// representation [`ranked`] picks. A rebuild that keeps the
    /// representation reuses the buffers, and allocates nothing unless the
    /// rank table must grow past every total it has held.
    fn refill(&mut self, weights: &[u64], total: u64) {
        let want_ranks = ranked(weights.len(), total);
        match self {
            Index::Ranks { ranks, starts } if want_ranks => {
                ranks.clear();
                let mut start = 0;
                for (k, &w) in weights.iter().enumerate() {
                    starts[k] = start;
                    start += w as u32;
                    ranks.resize(start as usize, k as u8);
                }
                starts[weights.len()] = start;
            }
            Index::Tree { tree, top_bit } if !want_ranks => {
                // O(capacity) bulk build: seed the leaves, then accumulate
                // each node into its parent block (padded nodes carry
                // partial sums of real leaves, so they propagate too). No
                // node exceeds the total.
                tree.fill(0);
                for (node, &w) in tree[1..].iter_mut().zip(weights) {
                    *node = w as u32;
                }
                for i in 1..=*top_bit {
                    let parent = i + (i & i.wrapping_neg());
                    if parent <= *top_bit {
                        let v = tree[i];
                        tree[parent] += v;
                    }
                }
            }
            _ => {
                *self = Index::zeros(weights.len(), want_ranks);
                self.refill(weights, total);
            }
        }
    }
}

impl FenwickSampler {
    /// Creates a sampler over `len` categories, all with weight zero.
    #[must_use]
    pub fn new(len: usize) -> FenwickSampler {
        FenwickSampler {
            leaves: vec![0; len],
            total: 0,
            index: Index::zeros(len, ranked(len, 0)),
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
    /// the rebuilt index is bit-identical to a fresh build, including the
    /// tree's padded parents — but performs no heap allocation while the
    /// total stays within what the sampler has held, which is what the
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
            self.leaves.len(),
            "reassign must keep the category count"
        );
        let total = weights
            .iter()
            .try_fold(0u64, |sum, &w| sum.checked_add(w))
            .filter(|&sum| sum <= MAX_TOTAL)
            .expect("total weight exceeds u32::MAX");
        self.total = total;
        self.leaves.copy_from_slice(weights);
        self.index.refill(weights, total);
    }

    /// Number of categories.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the sampler has zero categories.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Sum of all weights.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Levels one `select` tree descent walks at the current size: `0` on
    /// the rank table (`len <= 256` and `total <= 2^20`), else
    /// `log₂(top_bit)`. [`FenwickSampler::select_two`] runs two such draws.
    /// Constant while the total stays put, so telemetry can record it
    /// without touching the draw itself.
    #[must_use]
    pub fn descent_depth(&self) -> u32 {
        match self.index {
            Index::Ranks { .. } => 0,
            Index::Tree { top_bit, .. } => top_bit.trailing_zeros(),
        }
    }

    /// Adds `delta` to the weight of category `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, the weight would underflow, or
    /// the total would exceed `u32::MAX`.
    pub fn add(&mut self, index: usize, delta: i64) {
        let len = self.leaves.len();
        assert!(index < len, "index {index} out of range {len}");
        let d = delta.unsigned_abs();
        if delta >= 0 {
            assert!(d <= MAX_TOTAL - self.total, "total weight exceeds u32::MAX");
            self.total += d;
            self.leaves[index] += d;
        } else {
            assert!(self.leaves[index] >= d, "weight underflow at index {index}");
            self.total -= d;
            self.leaves[index] -= d;
        }
        let want_ranks = ranked(len, self.total);
        match &mut self.index {
            Index::Ranks { ranks, starts } if want_ranks => {
                // Category `index` ends where the next block starts: every
                // rank past that end, and every later start, moves by `d`.
                let (end, old_total, d) = (starts[index + 1] as usize, ranks.len(), d as usize);
                if delta >= 0 {
                    ranks.resize(old_total + d, 0);
                    ranks.copy_within(end..old_total, end + d);
                    ranks[end..end + d].fill(index as u8);
                    starts[index + 1..].iter_mut().for_each(|s| *s += d as u32);
                } else {
                    ranks.copy_within(end..old_total, end - d);
                    ranks.truncate(old_total - d);
                    starts[index + 1..].iter_mut().for_each(|s| *s -= d as u32);
                }
            }
            Index::Tree { tree, top_bit } if !want_ranks => {
                let mut i = index + 1;
                while i <= *top_bit {
                    if delta >= 0 {
                        tree[i] += d as u32;
                    } else {
                        tree[i] -= d as u32;
                    }
                    i += i & i.wrapping_neg();
                }
            }
            // The total crossed the rank table's bound.
            _ => self.index.refill(&self.leaves, self.total),
        }
    }

    /// Moves one unit of weight from category `from` to category `to`:
    /// the same weights and the bit-identical index as `add(from, -1)` then
    /// `add(to, 1)`, in fewer writes.
    ///
    /// On the rank table the unit leaves `from`'s block at the end facing
    /// `to` and joins `to`'s block at the end facing `from`, so each block
    /// boundary between them moves one rank toward `from`, and the rank it
    /// passes changes hands: one write per boundary. On the tree the two
    /// update paths climb toward the root and meet at the first block that
    /// holds both categories; from there on the −1 and the +1 cancel, so
    /// each walk stops where they meet.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `from` has weight zero.
    #[inline]
    pub fn shift(&mut self, from: usize, to: usize) {
        let len = self.leaves.len();
        assert!(
            from < len && to < len,
            "shift {from} -> {to} out of range {len}"
        );
        assert!(self.leaves[from] > 0, "weight underflow at index {from}");
        self.leaves[from] -= 1;
        self.leaves[to] += 1;
        match &mut self.index {
            Index::Ranks { ranks, starts } => {
                // An empty block starts where its successor does, so the
                // boundaries are moved in order from `from` toward `to`:
                // the last write to a rank names the last block starting at
                // or below it, which is the block that holds it.
                if from < to {
                    for k in from + 1..=to {
                        starts[k] -= 1;
                        ranks[starts[k] as usize] = k as u8;
                    }
                } else {
                    for k in (to + 1..=from).rev() {
                        ranks[starts[k] as usize] = (k - 1) as u8;
                        starts[k] += 1;
                    }
                }
            }
            Index::Tree { tree, .. } => {
                // Both paths end at the root `top_bit`, so they always meet.
                let (mut down, mut up) = (from + 1, to + 1);
                while down != up {
                    if down < up {
                        tree[down] -= 1;
                        down += down & down.wrapping_neg();
                    } else {
                        tree[up] += 1;
                        up += up & up.wrapping_neg();
                    }
                }
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
        let end = end.min(self.leaves.len());
        match &self.index {
            Index::Ranks { starts, .. } => u64::from(starts[end]),
            Index::Tree { tree, .. } => {
                let (mut i, mut sum) = (end, 0);
                while i > 0 {
                    sum += u64::from(tree[i]);
                    i -= i & i.wrapping_neg();
                }
                sum
            }
        }
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
        let (tree, top_bit) = match &self.index {
            Index::Ranks { ranks, .. } => return usize::from(ranks[target as usize]),
            Index::Tree { tree, top_bit } => (tree, *top_bit),
        };
        // `target < total <= u32::MAX`, so the remainder fits a node.
        let mut rem = target as u32;
        let mut pos = 0;
        // The padded root `tree[top_bit]` is the full sum, which a target
        // `< total` can never take, so the descent starts one level below.
        let mut step = top_bit >> 1;
        // Branchless descent: with the tree padded to a power of two,
        // `pos + step` is always in bounds, and the take/skip decision is a
        // mask instead of a data-dependent branch. Padded categories have
        // weight zero, so a target `< total` can never land on one.
        while step > 0 {
            let v = tree[pos + step];
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
    /// otherwise. On the rank table the three inverse CDFs are three loads;
    /// on the tree they run in one descent, where their loads are
    /// independent and the walkers for `second` and `second + 1` probe the
    /// same node until their paths diverge. The result equals those
    /// separate `select`s.
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
        let (i, j0, j1) = match &self.index {
            Index::Ranks { ranks, .. } => {
                let (first, second) = (first as usize, second as usize);
                (
                    usize::from(ranks[first]),
                    usize::from(ranks[second]),
                    usize::from(ranks[second + 1]),
                )
            }
            Index::Tree { tree, top_bit } => {
                let (mut rem, mut rem0, mut rem1) =
                    (first as u32, second as u32, second as u32 + 1);
                let (mut i, mut j0, mut j1) = (0usize, 0usize, 0usize);
                let mut step = top_bit >> 1;
                while step > 0 {
                    let v = tree[i + step];
                    let take = (v <= rem) as u32;
                    rem -= v & take.wrapping_neg();
                    i += step & (take as usize).wrapping_neg();
                    let v0 = tree[j0 + step];
                    let take0 = (v0 <= rem0) as u32;
                    rem0 -= v0 & take0.wrapping_neg();
                    j0 += step & (take0 as usize).wrapping_neg();
                    let v1 = tree[j1 + step];
                    let take1 = (v1 <= rem1) as u32;
                    rem1 -= v1 & take1.wrapping_neg();
                    j1 += step & (take1 as usize).wrapping_neg();
                    step >>= 1;
                }
                (i, j0, j1)
            }
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
        assert_eq!(s.descent_depth(), 0);
        assert_eq!(s.prefix_sum(0), 0);
        assert_eq!(s.prefix_sum(10), 0);
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(s.sample(&mut rng), None);
    }

    /// The tree's padded capacity and node count, or `None` on the rank
    /// table.
    fn tree_shape(s: &FenwickSampler) -> Option<(usize, usize)> {
        match &s.index {
            Index::Tree { tree, top_bit } => Some((*top_bit, tree.len())),
            Index::Ranks { .. } => None,
        }
    }

    #[test]
    fn top_bit_is_padded_capacity() {
        assert!(matches!(
            Index::zeros(0, false),
            Index::Tree { top_bit: 0, .. }
        ));
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
            // A total past the rank table's bound puts every length on the
            // tree.
            let mut weights = vec![0; len];
            weights[0] = MAX_RANKED_TOTAL + 1;
            let s = FenwickSampler::from_weights(&weights);
            assert_eq!(tree_shape(&s), Some((expected, expected + 1)), "len {len}");
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
        // The index must be bit-identical to a fresh build of the same
        // weights.
        assert_eq!(s, FenwickSampler::from_weights(&[4, 6, 2]));
    }

    #[test]
    fn reassign_matches_fresh_build_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(31);
        use rand::Rng;
        for len in [1usize, 3, 8, 64, 257] {
            let first: Vec<u64> = (0..len).map(|_| rng.gen_range(0..9)).collect();
            let second: Vec<u64> = (0..len).map(|_| rng.gen_range(0..9)).collect();
            let mut reused = FenwickSampler::from_weights(&first);
            // Dirty the index with some churn before reassigning.
            if reused.weight(0) > 0 {
                reused.add(0, -1);
            }
            reused.add(len - 1, 5);
            reused.reassign(&second);
            assert_eq!(reused, FenwickSampler::from_weights(&second), "len {len}");
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

    /// Asserts that `ranked` and `tree`, the same weights on the tree,
    /// resolve every `select` and every `(first, second)` of `select_two`
    /// alike, and like separate walks.
    fn assert_same_draws(ranked: &FenwickSampler, tree: &FenwickSampler, what: &str) {
        assert_eq!(ranked.total(), tree.total(), "{what}");
        for t in 0..ranked.total() {
            assert_eq!(ranked.select(t), tree.select(t), "{what}: target {t}");
        }
        for first in 0..ranked.total() {
            for second in 0..ranked.total().saturating_sub(1) {
                let pair = ranked.select_two(first, second);
                assert_eq!(pair, tree.select_two(first, second), "{what}");
                assert_eq!(pair, two_walks(tree, first, second), "{what}");
            }
        }
    }

    /// The rank table and the tree descent must agree exactly; straddle the
    /// length cutoff and force the tree onto the same weights by appending
    /// zero-weight categories, then apply the same random shifts to both.
    #[test]
    fn rank_table_agrees_with_tree_descent_across_the_cutoff() {
        let mut rng = SmallRng::seed_from_u64(77);
        use rand::Rng;
        for len in [1usize, 4, 30, 142, 255, 256, 257] {
            let weights: Vec<u64> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            let mut small = FenwickSampler::from_weights(&weights);
            let mut padded = weights.clone();
            padded.resize(len.max(MAX_RANKED_LEN + 1), 0);
            let mut large = FenwickSampler::from_weights(&padded);
            assert_eq!(tree_shape(&small).is_none(), len <= MAX_RANKED_LEN);
            assert!(tree_shape(&large).is_some());
            assert_same_draws(&small, &large, &format!("len {len}"));
            for _ in 0..200 {
                let (from, to) = (rng.gen_range(0..len), rng.gen_range(0..len));
                if small.weight(from) > 0 {
                    small.shift(from, to);
                    large.shift(from, to);
                }
            }
            assert_eq!(small.weights(), &large.weights()[..len]);
            assert_eq!(small, FenwickSampler::from_weights(small.weights()));
            assert_same_draws(&small, &large, &format!("len {len} after shifts"));
        }
    }

    /// One total on each side of the rank table's `2^20` bound, against the
    /// same weights on the tree; `add` and `reassign` across the bound land
    /// where a fresh build does.
    #[test]
    fn rank_table_stops_at_its_total_bound() {
        for total in [MAX_RANKED_TOTAL, MAX_RANKED_TOTAL + 1] {
            let weights = [3, total - 6, 0, 2, 1];
            let s = FenwickSampler::from_weights(&weights);
            assert_eq!(tree_shape(&s).is_none(), total <= MAX_RANKED_TOTAL);
            let mut padded = weights.to_vec();
            padded.resize(MAX_RANKED_LEN + 1, 0);
            let tree = FenwickSampler::from_weights(&padded);
            // Both ends of every block, as targets of either draw.
            let mut ends = Vec::new();
            let mut acc = 0;
            for &w in &weights {
                if w > 0 {
                    ends.extend([acc, acc + w - 1]);
                }
                acc += w;
            }
            for &first in &ends {
                assert_eq!(s.select(first), tree.select(first), "total {total}");
                for &second in ends.iter().filter(|&&t| t + 1 < total) {
                    let pair = s.select_two(first, second);
                    assert_eq!(pair, tree.select_two(first, second), "total {total}");
                    assert_eq!(pair, two_walks(&tree, first, second), "total {total}");
                }
            }
        }
        let below = [MAX_RANKED_TOTAL - 1, 1];
        let mut s = FenwickSampler::from_weights(&below);
        s.add(1, 1);
        assert!(tree_shape(&s).is_some());
        assert_eq!(s, FenwickSampler::from_weights(&[MAX_RANKED_TOTAL - 1, 2]));
        s.add(0, -1);
        assert!(tree_shape(&s).is_none());
        assert_eq!(s, FenwickSampler::from_weights(&[MAX_RANKED_TOTAL - 2, 2]));
        s.reassign(&[MAX_RANKED_TOTAL, 1]);
        assert!(tree_shape(&s).is_some());
        s.reassign(&below);
        assert_eq!(s, FenwickSampler::from_weights(&below));
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
        // Both sides of the rank table's length cutoff; a total this large
        // puts both on the tree.
        for len in [3usize, 300] {
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
