//! Weighted categorical sampling for the count-based engines.
//!
//! The count-based engines repeatedly draw a state index with probability
//! proportional to its agent count, under counts that change by ±1 after
//! every interaction. The sampler resolves a draw — a rank below the total
//! weight — to its category (the inverse CDF) in two stages:
//!
//! - the categories fall into aligned **blocks** of `B = 2^k`, the smallest
//!   `B` that makes at most 256 blocks, and while the total is at most
//!   `2^20` a **rank table** holds one byte per unit of weight naming the
//!   block that holds that rank, beside the block starts. One load finds
//!   the block, and moving one unit between two blocks rewrites one byte
//!   per block boundary between them;
//! - a branchless descent over the `k` in-block levels of a **Fenwick
//!   tree** then finds the category inside the block, and a point update
//!   climbs those levels only.
//!
//! Up to 256 categories `B = 1`, so a draw is one load and no descent:
//! every constant-state protocol in the paper, the rivals of the comparison
//! grids and AVC up to 256 states. AVC at 2 050 states descends 4 levels,
//! at 16 340 states 6. Past `2^20` there is no table and one block holds
//! every category, so a draw descends the whole padded tree. The geometry
//! follows from the length and the total alone, so which one runs is
//! invisible to callers and to the RNG stream.

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
    /// The inverse CDF of `leaves`, always in the geometry [`block_bits`]
    /// picks for their length and total, so samplers with equal weights
    /// compare equal.
    index: Index,
}

/// How a [`FenwickSampler`] resolves a rank to the category holding it:
/// category `c` lies in block `c >> bits`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Index {
    /// `log₂` of the block size `B`.
    bits: u32,
    /// `ranks[r]` is the block holding rank `r` while the total is at most
    /// [`MAX_RANKED_TOTAL`] (`ranks.len()` is then the total); empty above,
    /// where one block holds every category.
    ranks: Vec<u8>,
    /// Block `b` holds the ranks `starts[b]..starts[b + 1]`.
    starts: Vec<u32>,
    /// 1-based Fenwick layout (`tree[0]` is unused), padded with
    /// zero-weight categories to whole blocks: `tree[i]` sums the weights
    /// of the categories `i − lowbit(i)..i`. Only the in-block nodes, whose
    /// index is not a multiple of `B`, are kept; the others are zero, as a
    /// block's sum lives in `starts`. Every node is at most the total,
    /// which is capped at `u32::MAX`, so the nodes fit `u32`.
    tree: Vec<u32>,
}

/// The most blocks the rank table names: a rank names its block in one
/// byte. A draw descends `log₂ B` in-block levels and a move rewrites one
/// byte per block boundary between its two categories, so fewer blocks
/// would lengthen every descent, and more would need a `u16` per rank.
const MAX_BLOCKS: usize = 256;

/// The largest total the rank table serves: the table holds one byte per
/// unit of weight, 1 MiB at this bound. Past about a core's L2 cache its
/// random loads miss while the tree's few hot nodes stay cached: at
/// n = 2·10⁶ and above the tree steps four_state and BEF faster, at 10⁶
/// the two are about level.
const MAX_RANKED_TOTAL: u64 = 1 << 20;

/// The largest total weight a sampler holds: the bound that lets the tree
/// nodes and the block starts be `u32`.
const MAX_TOTAL: u64 = u32::MAX as u64;

/// `log₂` of the block size for `len` categories of total weight `total`:
/// the smallest power of two making at most [`MAX_BLOCKS`] blocks while the
/// rank table serves the total, one block of the padded length above.
fn block_bits(len: usize, total: u64) -> u32 {
    let blocks = if total <= MAX_RANKED_TOTAL {
        len.div_ceil(MAX_BLOCKS)
    } else {
        len
    };
    blocks.next_power_of_two().trailing_zeros()
}

impl Index {
    /// Rebuilds the index of `weights`, which sum to `total`, in the
    /// geometry [`block_bits`] picks. Reuses the buffers, and allocates
    /// nothing while the geometry stays and the total stays within what
    /// the rank table has held.
    fn refill(&mut self, weights: &[u64], total: u64) {
        self.bits = block_bits(weights.len(), total);
        let size = 1usize << self.bits;
        let in_block = |i: usize| i & (size - 1) != 0;
        // O(len) bulk build: seed each in-block node with its leaf, then
        // add it into its parent while the parent is in the same block.
        self.tree.clear();
        self.tree
            .resize((weights.len().div_ceil(size) << self.bits) + 1, 0);
        for i in (1..self.tree.len()).filter(|&i| in_block(i)) {
            self.tree[i] += weights.get(i - 1).map_or(0, |&w| w as u32);
            let parent = i + (i & i.wrapping_neg());
            if in_block(parent) {
                let v = self.tree[i];
                self.tree[parent] += v;
            }
        }
        self.ranks.clear();
        self.starts.clear();
        let mut start = 0;
        for (b, block) in weights.chunks(size).enumerate() {
            self.starts.push(start);
            start += block.iter().sum::<u64>() as u32;
            if total <= MAX_RANKED_TOTAL {
                self.ranks.resize(start as usize, b as u8);
            }
        }
        self.starts.push(start);
    }

    /// The block holding `rank`, from the rank table; block 0 without one.
    #[inline]
    fn block(&self, rank: u64) -> usize {
        self.ranks.get(rank as usize).map_or(0, |&b| usize::from(b))
    }
}

impl FenwickSampler {
    /// Creates a sampler over `len` categories, all with weight zero.
    #[must_use]
    pub fn new(len: usize) -> FenwickSampler {
        let mut sampler = FenwickSampler {
            leaves: vec![0; len],
            total: 0,
            index: Index::default(),
        };
        sampler.index.refill(&sampler.leaves, 0);
        sampler
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
    /// the rebuilt index is bit-identical to a fresh build — but performs
    /// no heap allocation while the total stays within what the sampler
    /// has held, which is what the engines' trial-batch `reset` seam needs.
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

    /// In-block levels one `select` descends at the current size: `k` for
    /// blocks of `2^k` categories, so `0` up to 256 categories while the
    /// total is at most `2^20`, and past that total the padded tree's
    /// depth, `log₂` of the next power of two `≥ len`.
    /// [`FenwickSampler::select_two`] runs two such draws. Constant while
    /// the total stays put, so telemetry can record it without touching
    /// the draw itself.
    #[must_use]
    pub fn descent_depth(&self) -> u32 {
        self.index.bits
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
        let (d, ranked) = (delta.unsigned_abs(), self.total <= MAX_RANKED_TOTAL);
        if delta >= 0 {
            assert!(d <= MAX_TOTAL - self.total, "total weight exceeds u32::MAX");
            self.total += d;
            self.leaves[index] += d;
        } else {
            assert!(self.leaves[index] >= d, "weight underflow at index {index}");
            self.total -= d;
            self.leaves[index] -= d;
        }
        if ranked != (self.total <= MAX_RANKED_TOTAL) {
            // The total crossed the rank table's bound.
            return self.index.refill(&self.leaves, self.total);
        }
        let ix = &mut self.index;
        // `delta as u32` is `delta` modulo 2^32, so a wrapping add applies
        // either sign; every node and start stays in `0..=total`.
        let (b, dw) = (index >> ix.bits, delta as u32);
        let mut i = index + 1;
        while i & ((1 << ix.bits) - 1) != 0 {
            ix.tree[i] = ix.tree[i].wrapping_add(dw);
            i += i & i.wrapping_neg();
        }
        // The block ends where the next one starts: every rank past that
        // end, and every later start, moves by `d`.
        if ranked {
            let (end, old_total, d) = (ix.starts[b + 1] as usize, ix.ranks.len(), d as usize);
            if delta >= 0 {
                ix.ranks.resize(old_total + d, 0);
                ix.ranks.copy_within(end..old_total, end + d);
                ix.ranks[end..end + d].fill(b as u8);
            } else {
                ix.ranks.copy_within(end..old_total, end - d);
                ix.ranks.truncate(old_total - d);
            }
        }
        ix.starts[b + 1..]
            .iter_mut()
            .for_each(|s| *s = s.wrapping_add(dw));
    }

    /// Moves one unit of weight from category `from` to category `to`:
    /// the same weights and the bit-identical index as `add(from, -1)` then
    /// `add(to, 1)`, in fewer writes.
    ///
    /// The two Fenwick update paths climb inside their blocks toward each
    /// other and stop where they meet, or below their block's node: above
    /// the meeting node the −1 and the +1 cancel, and block sums live in
    /// the starts. Between the blocks, the unit leaves `from`'s block at
    /// the end facing `to` and joins `to`'s block at the end facing `from`,
    /// so each block boundary between them moves one rank toward `from`,
    /// and the rank it passes changes hands: one write per boundary.
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
        let ix = &mut self.index;
        // The paths meet at the first multiple of `2^p` above both, where
        // `p` is the bit length of `from ^ to`, unless their block's node
        // comes first. Blocks of one category have no in-block nodes.
        if ix.bits > 0 {
            let p = (usize::BITS - (from ^ to).leading_zeros()).min(ix.bits);
            let (stop, mut down, mut up) = ((1 << p) - 1, from + 1, to + 1);
            while down & stop != 0 {
                ix.tree[down] -= 1;
                down += down & down.wrapping_neg();
            }
            while up & stop != 0 {
                ix.tree[up] += 1;
                up += up & up.wrapping_neg();
            }
        }
        // An empty block starts where its successor does, so the boundaries
        // are moved in order from `from` toward `to`: the last write to a
        // rank names the last block starting at or below it, which is the
        // block that holds it.
        let (bf, bt) = (from >> ix.bits, to >> ix.bits);
        if bf < bt {
            for b in bf + 1..=bt {
                ix.starts[b] -= 1;
                ix.ranks[ix.starts[b] as usize] = b as u8;
            }
        } else {
            for b in (bt + 1..=bf).rev() {
                ix.ranks[ix.starts[b] as usize] = (b - 1) as u8;
                ix.starts[b] += 1;
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
        let ix = &self.index;
        // The in-block nodes down to the block's start, then the start.
        let (mut i, mut sum) = (end.min(self.leaves.len()), 0);
        while i & ((1 << ix.bits) - 1) != 0 {
            sum += u64::from(ix.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum + u64::from(ix.starts[i >> ix.bits])
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
        let (ix, b) = (&self.index, self.index.block(target));
        // `target < total <= u32::MAX`, so the remainder fits a node.
        let (mut rem, mut pos) = (target as u32 - ix.starts[b], b << ix.bits);
        // Branchless descent from the block's start: with the tree padded
        // to whole blocks, `pos + step` is always in bounds, and the
        // take/skip decision is a mask instead of a data-dependent branch.
        // Padded categories have weight zero, so a target `< total` can
        // never land on one.
        let mut step = (1 << ix.bits) >> 1;
        while step > 0 {
            let v = ix.tree[pos + step];
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
    /// otherwise. The three blocks are three loads from the rank table, and
    /// the three in-block descents run in one loop, where their loads are
    /// independent. The result equals those separate `select`s.
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
        let ix = &self.index;
        let (b, b0, b1) = (ix.block(first), ix.block(second), ix.block(second + 1));
        if ix.bits == 0 {
            // Blocks of one category: the table names the categories.
            return (b, if b0 < b { b0 } else { b1 });
        }
        let (mut i, mut j0, mut j1) = (b << ix.bits, b0 << ix.bits, b1 << ix.bits);
        let (mut rem, mut rem0, mut rem1) = (
            first as u32 - ix.starts[b],
            second as u32 - ix.starts[b0],
            second as u32 + 1 - ix.starts[b1],
        );
        let mut step = 1 << (ix.bits - 1);
        while step > 0 {
            let v = ix.tree[i + step];
            let take = (v <= rem) as u32;
            rem -= v & take.wrapping_neg();
            i += step & (take as usize).wrapping_neg();
            let v0 = ix.tree[j0 + step];
            let take0 = (v0 <= rem0) as u32;
            rem0 -= v0 & take0.wrapping_neg();
            j0 += step & (take0 as usize).wrapping_neg();
            let v1 = ix.tree[j1 + step];
            let take1 = (v1 <= rem1) as u32;
            rem1 -= v1 & take1.wrapping_neg();
            j1 += step & (take1 as usize).wrapping_neg();
            step >>= 1;
        }
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

    /// The block size `B` and the block count of a sampler, with its index's
    /// array lengths checked against them.
    fn geometry(s: &FenwickSampler) -> (usize, usize) {
        let Index {
            bits,
            ranks,
            starts,
            tree,
        } = &s.index;
        let (size, blocks) = (1usize << bits, starts.len() - 1);
        assert_eq!(blocks, s.len().div_ceil(size));
        assert_eq!(tree.len(), blocks * size + 1);
        assert_eq!(s.descent_depth(), *bits);
        let ranked = s.total() <= MAX_RANKED_TOTAL;
        assert_eq!(ranks.len() as u64, if ranked { s.total() } else { 0 });
        (size, blocks)
    }

    #[test]
    fn block_size_is_the_smallest_giving_at_most_256_blocks() {
        for (len, size, blocks) in [
            (1usize, 1usize, 1usize),
            (4, 1, 4),
            (256, 1, 256),
            (257, 2, 129),
            (512, 2, 256),
            (513, 4, 129),
            (2_050, 16, 129),
            (4_098, 32, 129),
            (16_340, 64, 256),
            (100_001, 512, 196),
        ] {
            let s = FenwickSampler::from_weights(&vec![1; len]);
            assert_eq!(geometry(&s), (size, blocks), "len {len}");
            // Past 2^20 agents one block of the padded length holds every
            // category, and there is no rank table.
            let mut weights = vec![0; len];
            weights[len / 2] = MAX_RANKED_TOTAL + 1;
            let s = FenwickSampler::from_weights(&weights);
            assert_eq!(geometry(&s), (len.next_power_of_two(), 1), "len {len}");
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
        for len in [1usize, 3, 8, 64, 257, 2_050] {
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

    /// The category holding each rank, from a plain prefix-sum scan.
    fn naive_ranks(weights: &[u64]) -> Vec<usize> {
        (0..weights.len())
            .flat_map(|k| std::iter::repeat_n(k, weights[k] as usize))
            .collect()
    }

    /// The pair [`FenwickSampler::select_two`] must return, built from
    /// separate `select` walks.
    fn two_walks(s: &FenwickSampler, first: u64, second: u64) -> (usize, usize) {
        let i = s.select(first);
        let j = s.select(second);
        (i, if j < i { j } else { s.select(second + 1) })
    }

    /// Asserts that `s` resolves every rank to the category a prefix-sum
    /// scan of `weights` gives, and that `select_two` equals two walks with
    /// every rank as the first target and as the second.
    fn assert_every_rank(s: &FenwickSampler, weights: &[u64], what: &str) {
        let naive = naive_ranks(weights);
        let total = naive.len() as u64;
        assert_eq!(s.total(), total, "{what}");
        for (t, &k) in naive.iter().enumerate() {
            assert_eq!(s.select(t as u64), k, "{what}: target {t}");
        }
        for t in 0..total.saturating_sub(1) {
            // A partner rank far from `t` in a stride that visits them all.
            let u = (t * 7_919 + 13) % (total - 1);
            for (first, second) in [(t, u), (u + 1, t), (total - 1, t), (t, total - 2)] {
                let pair = s.select_two(first, second);
                assert_eq!(
                    pair,
                    two_walks(s, first, second),
                    "{what}: ({first}, {second})"
                );
            }
        }
    }

    #[test]
    fn select_two_matches_two_walks_on_every_rank() {
        let mut rng = SmallRng::seed_from_u64(2024);
        use rand::Rng;
        for len in [1usize, 2, 3, 5, 64, 256, 257, 600, 2_050, 4_098, 16_340] {
            let weights: Vec<u64> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            let s = FenwickSampler::from_weights(&weights);
            assert_every_rank(&s, &weights, &format!("len {len}"));
        }
    }

    /// The same weights under two block sizes, one of them padded with
    /// zero-weight categories, resolve every draw alike before and after
    /// the same random shifts, and each stays a fresh build of its weights.
    #[test]
    fn block_sizes_agree_on_padded_weights() {
        let mut rng = SmallRng::seed_from_u64(77);
        use rand::Rng;
        for len in [1usize, 4, 30, 142, 256, 257, 1_000, 2_050] {
            let weights: Vec<u64> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            let mut small = FenwickSampler::from_weights(&weights);
            let mut padded = weights.clone();
            padded.resize(4 * len.max(MAX_BLOCKS) + 1, 0);
            let mut large = FenwickSampler::from_weights(&padded);
            assert_ne!(small.descent_depth(), large.descent_depth());
            for _ in 0..300 {
                let (from, to) = (rng.gen_range(0..len), rng.gen_range(0..len));
                if small.weight(from) > 0 {
                    small.shift(from, to);
                    large.shift(from, to);
                }
            }
            assert_eq!(small.weights(), &large.weights()[..len]);
            assert_eq!(small, FenwickSampler::from_weights(small.weights()));
            assert_eq!(large, FenwickSampler::from_weights(large.weights()));
            assert_every_rank(&small, small.weights(), &format!("len {len}"));
            assert_every_rank(&large, small.weights(), &format!("len {len} padded"));
        }
    }

    /// One total on each side of the rank table's `2^20` bound resolves both
    /// ends of every category like a prefix-sum scan; `add` and `reassign`
    /// across the bound land where a fresh build does.
    #[test]
    fn rank_table_stops_at_its_total_bound() {
        for len in [5usize, 2_050] {
            for total in [MAX_RANKED_TOTAL, MAX_RANKED_TOTAL + 1] {
                let mut weights = vec![0; len];
                weights[..4].copy_from_slice(&[3, 0, 2, 1]);
                weights[len - 1] = total - 6;
                let s = FenwickSampler::from_weights(&weights);
                assert_eq!(geometry(&s).1 == 1, total > MAX_RANKED_TOTAL);
                // Both ends of every category, as targets of either draw.
                let (mut ends, mut acc) = (Vec::new(), 0);
                for (k, &w) in weights.iter().enumerate() {
                    if w > 0 {
                        ends.extend([acc, acc + w - 1]);
                        assert_eq!(s.select(acc), k);
                        assert_eq!(s.select(acc + w - 1), k);
                        assert_eq!(s.prefix_sum(k + 1), acc + w);
                    }
                    acc += w;
                }
                for &first in &ends {
                    for &second in ends.iter().filter(|&&t| t + 1 < total) {
                        let pair = s.select_two(first, second);
                        assert_eq!(pair, two_walks(&s, first, second), "total {total}");
                    }
                }
            }
            let mut below = vec![0; len];
            below[0] = MAX_RANKED_TOTAL - 1;
            below[len - 1] = 1;
            let mut s = FenwickSampler::from_weights(&below);
            s.add(len - 1, 1);
            assert!(s.index.ranks.is_empty());
            let mut expected = below.clone();
            expected[len - 1] = 2;
            assert_eq!(s, FenwickSampler::from_weights(&expected));
            s.add(0, -1);
            expected[0] -= 1;
            assert_eq!(s.index.ranks.len() as u64, MAX_RANKED_TOTAL);
            assert_eq!(s, FenwickSampler::from_weights(&expected));
            expected[0] += 2;
            s.reassign(&expected);
            assert!(s.index.ranks.is_empty());
            s.reassign(&below);
            assert_eq!(s, FenwickSampler::from_weights(&below));
        }
    }

    #[test]
    #[should_panic(expected = "beyond total")]
    fn select_two_rejects_second_target_past_the_reduced_total() {
        let s = FenwickSampler::from_weights(&[1, 1]);
        let _ = s.select_two(0, 1);
    }

    #[test]
    fn shift_leaves_the_index_of_two_adds() {
        let mut rng = SmallRng::seed_from_u64(5);
        use rand::Rng;
        for len in [1usize, 2, 7, 64, 65, 257, 1_000, 4_098] {
            let weights: Vec<u64> = (0..len).map(|_| rng.gen_range(1..4)).collect();
            let mut shifted = FenwickSampler::from_weights(&weights);
            let mut added = shifted.clone();
            for _ in 0..500 {
                let from = rng.gen_range(0..len);
                if shifted.weight(from) == 0 {
                    continue;
                }
                // Half the moves stay near `from`, mostly inside its block.
                let to = if rng.gen_bool(0.5) {
                    (from + rng.gen_range(0..8)).min(len - 1)
                } else {
                    rng.gen_range(0..len)
                };
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
        // A total this large puts every length in one block.
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
