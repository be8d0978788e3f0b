//! The frozen machine-speed references: a xoshiro256++ generator driving
//! Fenwick-tree descents (on one thread, and on two at once), and a
//! small-allocation churn loop, written here and nowhere else.
//!
//! Nothing in this file calls repository code, so its timings move only
//! when the machine does. Every report carries the one-thread reference,
//! which lets a reader tell a slower machine (this number rises too) from a
//! slower commit (it does not), and the measurement scales its times by
//! the other two (see `measure`). Changing this file invalidates every
//! recorded baseline.

use std::hint::black_box;
use std::time::Instant;

/// Leaves of the reference Fenwick tree (32 KiB of weights: cache-resident).
const LEAVES: usize = 4096;
/// Operations per timed repetition.
const OPS: u32 = 1 << 20;
/// Timed repetitions; the median is reported.
const REPS: usize = 5;

/// xoshiro256++ (the algorithm behind 64-bit `SmallRng`), seeded through
/// SplitMix64.
pub struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    /// A generator whose stream depends only on `seed`.
    #[must_use]
    pub fn new(mut seed: u64) -> Xoshiro {
        let mut next = || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Xoshiro {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A uniform draw from `0..bound` (multiply-shift; `bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A Fenwick tree over `LEAVES` weights with a top-down descent.
struct Fenwick {
    tree: Vec<u64>,
    weights: Vec<u64>,
    total: u64,
}

impl Fenwick {
    fn uniform(weight: u64) -> Fenwick {
        let mut f = Fenwick {
            tree: vec![0; LEAVES + 1],
            weights: vec![0; LEAVES],
            total: 0,
        };
        for i in 0..LEAVES {
            f.add(i, weight as i64);
        }
        f
    }

    fn add(&mut self, index: usize, delta: i64) {
        self.weights[index] = self.weights[index].wrapping_add_signed(delta);
        self.total = self.total.wrapping_add_signed(delta);
        let mut i = index + 1;
        while i <= LEAVES {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The leaf whose cumulative range holds `target` (`target < total`).
    fn descend(&self, mut target: u64) -> usize {
        let mut pos = 0;
        let mut step = LEAVES;
        while step > 0 {
            let next = pos + step;
            if next <= LEAVES && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }
}

/// One repetition: `OPS` draws, each a weighted pick by descent followed
/// by moving one unit of weight to a uniform leaf (the count-engine step).
fn one_rep(rng: &mut Xoshiro) -> f64 {
    let mut tree = Fenwick::uniform(64);
    let started = Instant::now();
    for _ in 0..OPS {
        let from = tree.descend(rng.below(tree.total));
        let to = (rng.next_u64() as usize) & (LEAVES - 1);
        tree.add(from, -1);
        tree.add(to, 1);
    }
    let ns = started.elapsed().as_nanos() as f64;
    black_box(&tree.weights);
    ns / f64::from(OPS)
}

/// Median nanoseconds per reference operation on this machine.
#[must_use]
pub fn ns_per_op() -> f64 {
    let mut rng = Xoshiro::new(2015);
    let reps: Vec<f64> = (0..REPS).map(|_| one_rep(&mut rng)).collect();
    crate::stats::median(&reps)
}

/// Nanoseconds per allocate-and-replace of a small vector among 1024 live
/// ones, on this thread: how fast the machine runs allocation-heavy,
/// single-threaded code (plan building, store parsing) right now.
#[must_use]
pub fn churn_ns_per_op() -> f64 {
    const LIVE: usize = 1024;
    const CHURN_OPS: u32 = 1 << 18;
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE);
    let mut rng = Xoshiro::new(7);
    let started = Instant::now();
    for i in 0..CHURN_OPS {
        let fresh = vec![u64::from(i); 1 + (rng.next_u64() % 16) as usize];
        if live.len() < LIVE {
            live.push(fresh);
        } else {
            live[rng.below(LIVE as u64) as usize] = fresh;
        }
    }
    let ns = started.elapsed().as_nanos() as f64;
    black_box(&live);
    ns / f64::from(CHURN_OPS)
}

/// One repetition on each of two threads at once (the sweeps' worker
/// count), averaged: how fast the machine runs two busy threads right now.
#[must_use]
pub fn pair_ns_per_op() -> f64 {
    let reps: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|i| scope.spawn(move || one_rep(&mut Xoshiro::new(i))))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference thread panicked"))
            .collect()
    });
    reps.iter().sum::<f64>() / reps.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_matches_the_published_xoshiro256pp_stream() {
        // Reference output of xoshiro256++ for state [1, 2, 3, 4].
        let mut rng = Xoshiro { s: [1, 2, 3, 4] };
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(first, [41_943_041, 58_720_359, 3_588_806_011_781_223]);
    }

    #[test]
    fn descent_inverts_prefix_sums_and_weight_moves_conserve_total() {
        let mut tree = Fenwick::uniform(3);
        assert_eq!(tree.descend(0), 0);
        assert_eq!(tree.descend(5), 1);
        assert_eq!(tree.descend(3 * LEAVES as u64 - 1), LEAVES - 1);
        tree.add(0, -3);
        assert_eq!(tree.descend(0), 1);
        tree.add(7, 3);
        assert_eq!(tree.total, 3 * LEAVES as u64);
    }
}
