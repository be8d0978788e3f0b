//! Pluggable pair schedulers, including adversarial ones.
//!
//! The population model leaves the *scheduler* — who interacts next — as a
//! degree of freedom. The paper's analysis (and every engine here by
//! default) uses the uniform random scheduler: each step draws an ordered
//! pair of distinct agents uniformly (an edge of the interaction graph,
//! uniformly, with a random orientation). Exactness claims are stronger
//! than that, though: the four-state protocol is exact under *any fair*
//! schedule \[DV12], and AVC's correctness argument never uses uniformity
//! (only its speed bound does). This module makes the scheduler a seam so
//! the stress suite can probe those claims empirically.
//!
//! [`Uniform`] is the default and is **RNG-stream-identical** to the
//! pre-seam engines: it monomorphizes to exactly the
//! [`Graph::sample_pair`] call the hot loop made before, so golden traces
//! and differential suites are unaffected. The adversarial strategies are
//! all *fair* (every edge keeps a positive per-step probability, so every
//! interaction recurs infinitely often almost surely) but heavily skewed:
//!
//! * [`BiasedPair`] — a fixed "hot" clique of agents hogs most steps;
//! * [`LaggardStarving`] — a victim set only interacts on a sparse
//!   periodic schedule, starving information flow through it;
//! * [`EpochBatched`] — steps are grouped into epochs of `⌊n/2⌋`
//!   disjoint pairs from a fresh random perfect matching, the
//!   round-robin-like schedule of synchronous gossip.
//!
//! A schedule restricted to a sparse topology (a star, a cycle) needs no
//! strategy of its own: [`Uniform`] on an [`AgentSim`](crate::engine::AgentSim)
//! built over that graph draws its edges.
//!
//! All strategies draw only from the supplied RNG, so a run under any of
//! them is deterministic per seed — the adversary is randomized but
//! replayable.

use crate::graph::Graph;
use rand::{Rng, RngCore};

/// A pair-selection strategy for per-agent engines.
///
/// Implementations return the ordered pair of (distinct) agents that
/// interact at `step` (the 0-based index of the step being scheduled).
/// They may keep internal state (epoch buffers, phase counters) but must
/// derive all randomness from `rng`, so trajectories stay deterministic
/// per seed. [`Scheduler::next_pair`] is generic over the RNG, so the
/// trait is not object safe: [`AgentSim`](crate::engine::AgentSim) takes the
/// scheduler as a type parameter and compiles it into its chunk loop.
pub trait Scheduler {
    /// Selects the ordered pair interacting at `step`.
    fn next_pair<R: RngCore + ?Sized>(
        &mut self,
        graph: &Graph,
        step: u64,
        rng: &mut R,
    ) -> (usize, usize);

    /// Returns the scheduler to its freshly-constructed state without
    /// reallocating, so a reused engine replays exactly like a new one
    /// (the trial-batch reuse seam of
    /// [`Simulator::reset`](crate::engine::Simulator::reset)).
    ///
    /// Stateless strategies need nothing; stateful ones (epoch buffers,
    /// phase counters) must clear every field that influences future
    /// draws. The contract: after `reset`, the next-pair stream for any
    /// RNG must be identical to a fresh scheduler's.
    fn reset(&mut self) {}
}

/// The uniform random scheduler: the model's default, and the paper's.
///
/// Delegates straight to [`Graph::sample_pair`], consuming the RNG
/// identically to the pre-scheduler engines (pinned by golden traces and
/// the differential suites).
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl Scheduler for Uniform {
    #[inline(always)]
    fn next_pair<R: RngCore + ?Sized>(
        &mut self,
        graph: &Graph,
        _step: u64,
        rng: &mut R,
    ) -> (usize, usize) {
        graph.sample_pair(rng)
    }
}

/// With probability `bias`, draw both agents from the "hot" set
/// `0..hot`; otherwise fall back to a uniform draw over the whole graph.
///
/// Clique-only. Models a scheduler that keeps hammering a fixed clique of
/// agents, slowing the spread of information held outside it. Fair: the
/// fallback branch gives every pair positive probability.
#[derive(Debug, Clone, Copy)]
pub struct BiasedPair {
    hot: usize,
    bias: f64,
}

impl BiasedPair {
    /// A scheduler favouring the agents `0..hot` with probability `bias`.
    ///
    /// # Panics
    ///
    /// Panics if `hot < 2` or `bias` is not in `[0, 1)` (a bias of 1 would
    /// be unfair: agents outside the hot set would never interact).
    #[must_use]
    pub fn new(hot: usize, bias: f64) -> BiasedPair {
        assert!(hot >= 2, "hot set needs at least two agents, got {hot}");
        assert!(
            (0.0..1.0).contains(&bias),
            "bias must be in [0,1), got {bias}"
        );
        BiasedPair { hot, bias }
    }
}

impl Scheduler for BiasedPair {
    fn next_pair<R: RngCore + ?Sized>(
        &mut self,
        graph: &Graph,
        _step: u64,
        rng: &mut R,
    ) -> (usize, usize) {
        assert!(
            graph.is_clique(),
            "BiasedPair schedules over a clique; got an explicit graph"
        );
        assert!(
            self.hot <= graph.num_agents(),
            "hot set larger than population"
        );
        if rng.gen_bool(self.bias) {
            let u = rng.gen_range(0..self.hot);
            let mut v = rng.gen_range(0..self.hot - 1);
            if v >= u {
                v += 1;
            }
            (u, v)
        } else {
            graph.sample_pair(rng)
        }
    }
}

/// Starves the last `laggards` agents: steps whose phase within `period`
/// is nonzero redraw any pair touching a laggard as a pair among the
/// non-laggards; only one step per period may touch a laggard.
///
/// Clique-only. Models agents on the far side of a congested link: they
/// do eventually interact (fairness via the phase-0 steps) but at a rate
/// `1/period` of everyone else's.
#[derive(Debug, Clone, Copy)]
pub struct LaggardStarving {
    laggards: usize,
    period: u64,
}

impl LaggardStarving {
    /// Starves the `laggards` highest-numbered agents to one potential
    /// interaction step per `period`.
    ///
    /// # Panics
    ///
    /// Panics if `laggards` is zero or `period < 2`.
    #[must_use]
    pub fn new(laggards: usize, period: u64) -> LaggardStarving {
        assert!(laggards >= 1, "need at least one laggard");
        assert!(period >= 2, "period must be at least 2, got {period}");
        LaggardStarving { laggards, period }
    }
}

impl Scheduler for LaggardStarving {
    fn next_pair<R: RngCore + ?Sized>(
        &mut self,
        graph: &Graph,
        step: u64,
        rng: &mut R,
    ) -> (usize, usize) {
        assert!(
            graph.is_clique(),
            "LaggardStarving schedules over a clique; got an explicit graph"
        );
        let n = graph.num_agents();
        assert!(
            self.laggards < n - 1,
            "at least two non-laggards required ({} laggards of {n})",
            self.laggards
        );
        let pair = graph.sample_pair(rng);
        if step.is_multiple_of(self.period) {
            return pair; // laggards may interact this step
        }
        let cutoff = n - self.laggards;
        if pair.0 < cutoff && pair.1 < cutoff {
            return pair;
        }
        // Redraw among the non-laggards (one extra draw pair; still
        // deterministic per seed).
        let u = rng.gen_range(0..cutoff);
        let mut v = rng.gen_range(0..cutoff - 1);
        if v >= u {
            v += 1;
        }
        (u, v)
    }
}

/// Serves steps from a fresh random perfect matching per epoch: each
/// epoch lasts `⌊n/2⌋` steps and plays the matching's disjoint pairs in
/// order (random orientation each).
///
/// Clique-only. This is the synchronous-gossip schedule: within an epoch
/// no agent interacts twice, the far extreme from the uniform scheduler's
/// birthday collisions. Fair by construction — every agent (bar one when
/// `n` is odd) interacts exactly once per epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochBatched {
    /// Shuffled agent ids; consecutive disjoint pairs form the matching.
    order: Vec<u32>,
    /// Next matching pair to serve, in `0..⌊n/2⌋`.
    cursor: usize,
}

impl EpochBatched {
    /// A fresh scheduler (the first `next_pair` call starts epoch 0).
    #[must_use]
    pub fn new() -> EpochBatched {
        EpochBatched::default()
    }

    fn reshuffle<R: RngCore + ?Sized>(&mut self, n: usize, rng: &mut R) {
        if self.order.len() != n {
            // Refill in place (no realloc once capacity is warm) so the
            // reuse seam's reset → reshuffle path allocates nothing.
            self.order.clear();
            self.order.extend(0..n as u32);
        }
        // Fisher–Yates; manual so we only depend on `gen_range`.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            self.order.swap(i, j);
        }
        self.cursor = 0;
    }
}

impl Scheduler for EpochBatched {
    fn next_pair<R: RngCore + ?Sized>(
        &mut self,
        graph: &Graph,
        _step: u64,
        rng: &mut R,
    ) -> (usize, usize) {
        assert!(
            graph.is_clique(),
            "EpochBatched schedules over a clique; got an explicit graph"
        );
        let n = graph.num_agents();
        if self.cursor >= n / 2 || self.order.len() != n {
            self.reshuffle(n, rng);
        }
        let u = self.order[2 * self.cursor] as usize;
        let v = self.order[2 * self.cursor + 1] as usize;
        self.cursor += 1;
        if rng.gen_bool(0.5) {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn reset(&mut self) {
        // An empty order forces `next_pair` down the same
        // rebuild-identity-then-shuffle path a fresh scheduler takes; a
        // bare `cursor = 0` would instead Fisher–Yates the *stale*
        // permutation and diverge from a fresh scheduler's draws.
        self.order.clear();
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn draws<S: Scheduler>(mut sched: S, n: usize, steps: u64, seed: u64) -> Vec<(usize, usize)> {
        let graph = Graph::clique(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..steps)
            .map(|t| sched.next_pair(&graph, t, &mut rng))
            .collect()
    }

    #[test]
    fn uniform_matches_graph_sample_pair_exactly() {
        let graph = Graph::clique(9);
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut sched = Uniform;
        for t in 0..500 {
            assert_eq!(
                sched.next_pair(&graph, t, &mut a),
                graph.sample_pair(&mut b)
            );
        }
    }

    #[test]
    fn all_strategies_return_valid_distinct_pairs() {
        for (label, pairs) in [
            ("uniform", draws(Uniform, 10, 300, 1)),
            ("biased", draws(BiasedPair::new(3, 0.9), 10, 300, 2)),
            ("starved", draws(LaggardStarving::new(3, 8), 10, 300, 3)),
            ("epoch", draws(EpochBatched::new(), 10, 300, 4)),
        ] {
            for &(u, v) in &pairs {
                assert!(u != v && u < 10 && v < 10, "{label}: bad pair ({u},{v})");
            }
        }
    }

    #[test]
    fn strategies_are_deterministic_per_seed() {
        assert_eq!(
            draws(EpochBatched::new(), 11, 200, 7),
            draws(EpochBatched::new(), 11, 200, 7)
        );
        assert_eq!(
            draws(BiasedPair::new(4, 0.75), 11, 200, 7),
            draws(BiasedPair::new(4, 0.75), 11, 200, 7)
        );
    }

    #[test]
    fn biased_pair_favours_the_hot_set() {
        let pairs = draws(BiasedPair::new(3, 0.9), 30, 10_000, 11);
        let hot = pairs.iter().filter(|&&(u, v)| u < 3 && v < 3).count();
        // ≈ 0.9 + 0.1 · P[uniform pair lands in hot set]; far above uniform's
        // 3·2/(30·29) ≈ 0.7%.
        assert!(hot > 8_000, "hot fraction too low: {hot}/10000");
    }

    #[test]
    fn laggards_interact_only_on_phase_zero_steps() {
        let n = 12;
        let sched = LaggardStarving::new(4, 16);
        let pairs = draws(sched, n, 16_000, 13);
        let cutoff = n - 4;
        let mut touched = 0u64;
        for (t, &(u, v)) in pairs.iter().enumerate() {
            if u >= cutoff || v >= cutoff {
                assert_eq!(t as u64 % 16, 0, "laggard touched off-phase at {t}");
                touched += 1;
            }
        }
        // Fairness: laggards do interact sometimes.
        assert!(touched > 0, "laggards never interacted");
    }

    #[test]
    fn epoch_batches_are_disjoint_matchings() {
        let n = 10;
        let pairs = draws(EpochBatched::new(), n, 200, 17);
        for epoch in pairs.chunks(n / 2) {
            let mut seen = vec![false; n];
            for &(u, v) in epoch {
                assert!(!seen[u] && !seen[v], "agent repeated within an epoch");
                seen[u] = true;
                seen[v] = true;
            }
        }
    }

    #[test]
    fn reset_epoch_scheduler_replays_like_a_fresh_one() {
        let graph = Graph::clique(11);
        let mut used = EpochBatched::new();
        let mut rng = SmallRng::seed_from_u64(23);
        // Leave the scheduler mid-epoch with a warm, partially-served
        // permutation — the state a trial boundary would catch it in.
        for t in 0..7 {
            used.next_pair(&graph, t, &mut rng);
        }
        used.reset();
        let mut a = SmallRng::seed_from_u64(29);
        let mut b = SmallRng::seed_from_u64(29);
        let mut fresh = EpochBatched::new();
        for t in 0..200 {
            assert_eq!(
                used.next_pair(&graph, t, &mut a),
                fresh.next_pair(&graph, t, &mut b),
                "divergence at step {t}"
            );
        }
    }
}
