//! Jump-chain simulation engine with null-step skipping.

use crate::config::Config;
use crate::engine::{
    corrupt_moves, output_a_mask, tally, AdvanceReport, Simulator, StopCondition, StopReason,
};
use crate::faults::{Fault, FaultError};
use crate::protocol::{Opinion, Protocol, StateId};
use avc_telemetry::{CountingSink, NoopSink, Sink};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Sentinel for "state not in the live list".
const NOT_LIVE: u32 = u32::MAX;

/// Memoized setup of the geometric silent-run draw.
///
/// One jump samples `⌊ln U / ln(1−p)⌋` with `p = w_prod / w_total`. The
/// denominator `ln(1−p)` depends only on the productive weight, which
/// changes far less often than steps are taken on slow protocols — so the
/// hot loop caches it keyed on `w_prod` instead of rebuilding a
/// `Geometric` distribution (probability check, division, `ln`) every
/// step. `w_prod = 0` marks the cache empty; a jump never draws at that
/// weight (the configuration is silent), so the sentinel can't collide.
///
/// The cached value is produced by exactly the expression
/// `rand_distr::Geometric` evaluates internally, so the draws are
/// bit-identical to the uncached path (pinned by
/// `geometric_cache_matches_rand_distr` below).
#[derive(Debug, Clone, Copy, Default)]
struct GeoCache {
    w_prod: u64,
    ln_one_minus_p: f64,
}

impl GeoCache {
    /// Draws the number of failures before the first success in
    /// Bernoulli(`w_prod / w_total`) trials, refreshing the cached
    /// `ln(1−p)` only when `w_prod` moved since the last draw.
    ///
    /// Caller guarantees `0 < w_prod < w_total` (the `p = 1` and silent
    /// cases never reach the draw).
    #[inline]
    fn sample<R: RngCore + ?Sized>(&mut self, w_prod: u64, w_total: u64, rng: &mut R) -> u64 {
        if self.w_prod != w_prod {
            let p = w_prod as f64 / w_total as f64;
            self.w_prod = w_prod;
            self.ln_one_minus_p = (1.0 - p).ln();
        }
        // Inversion, exactly as the vendored `rand_distr::Geometric`:
        // U uniform on (0, 1] from one `gen::<f64>()` draw.
        let u = 1.0 - rng.r#gen::<f64>();
        let failures = u.ln() / self.ln_one_minus_p;
        if failures >= u64::MAX as f64 {
            u64::MAX
        } else {
            failures as u64
        }
    }
}

/// A count-based engine that skips *silent* steps in geometric batches.
///
/// In the discrete model, a step whose sampled pair reacts to itself (up to
/// swapping) leaves the configuration unchanged. Between two configuration
/// changes, the number of such silent steps is geometrically distributed
/// with success probability `W_productive / (n(n−1))`, where the weights
/// count ordered agent pairs. `JumpSim` maintains those weights, samples the
/// silent-step count in one draw, and then samples a *productive* ordered
/// pair directly — so its running cost is proportional to the number of
/// productive interactions rather than to raw scheduler steps.
///
/// This matters enormously for the slow protocols in the paper: the
/// four-state protocol at `ε = 1/n`, `n = 100 001` needs ≈10¹¹ raw steps
/// but only ≈10⁶ productive ones.
///
/// The trajectory distribution of the configuration process is exactly that
/// of [`CountSim`](super::CountSim); see `tests/engine_equivalence.rs`.
///
/// # Example
///
/// ```
/// use avc_population::engine::{JumpSim, Simulator};
/// use avc_population::protocol::tests_support::Annihilate;
/// use avc_population::Config;
/// use rand::SeedableRng;
///
/// let config = Config::from_input(&Annihilate, 600, 400);
/// let mut sim = JumpSim::new(Annihilate, config);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let out = sim.run_to_consensus(&mut rng, u64::MAX);
/// // 400 productive annihilations, arbitrarily many skipped silent steps.
/// assert!(out.verdict.is_consensus());
/// ```
/// The `T` parameter is the telemetry [`Sink`] seam (see
/// [`CountSim`](super::CountSim) for the contract); the default
/// [`NoopSink`] compiles to nothing and leaves the RNG stream untouched.
#[derive(Debug, Clone)]
pub struct JumpSim<P, T = NoopSink> {
    protocol: P,
    counts: Vec<u64>,
    /// States with nonzero count.
    live: Vec<StateId>,
    /// Position of each state in `live`, or `NOT_LIVE`.
    live_pos: Vec<u32>,
    /// For each live state `i`: the number of *other agents* `y` such that
    /// the ordered pair `(i, state(y))` is silent, i.e.
    /// `Σ_j silent(i,j) · (c_j − [i = j])`. Stale for dead states.
    null_row: Vec<u64>,
    output_a: Vec<bool>,
    count_a: u64,
    unanimous: Option<StateId>,
    n: u64,
    /// `n(n−1)`, the total ordered-pair weight — constant per population.
    w_total: u64,
    /// Cached geometric-draw setup (see [`GeoCache`]). Pure memoization:
    /// never observable except through speed.
    geo: GeoCache,
    steps: u64,
    events: u64,
    telemetry: T,
}

impl<P: Protocol> JumpSim<P> {
    /// Creates an engine from an initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's state count differs from the
    /// protocol's, the population has fewer than two agents, or its
    /// `n(n−1)` ordered pairs overflow a `u64` (`n` above `u32::MAX + 1`).
    pub fn new(protocol: P, config: Config) -> JumpSim<P> {
        let s = protocol.num_states() as usize;
        let mut sim = JumpSim {
            counts: vec![0; s],
            // Full capacity up front so `reset` can repopulate liveness
            // without ever growing the vector.
            live: Vec::with_capacity(s),
            live_pos: vec![NOT_LIVE; s],
            null_row: vec![0; s],
            output_a: output_a_mask(&protocol),
            protocol,
            count_a: 0,
            unanimous: None,
            n: 0,
            w_total: 0,
            geo: GeoCache::default(),
            steps: 0,
            events: 0,
            telemetry: NoopSink,
        };
        sim.reset(&config);
        sim
    }
}

impl<P: Protocol, T: Sink> JumpSim<P, T> {
    /// Replaces the telemetry sink, rebinding the engine's type. All
    /// simulation state carries over untouched, so attaching telemetry is
    /// RNG-invisible.
    pub fn with_telemetry<T2: Sink>(self, telemetry: T2) -> JumpSim<P, T2> {
        JumpSim {
            protocol: self.protocol,
            counts: self.counts,
            live: self.live,
            live_pos: self.live_pos,
            null_row: self.null_row,
            output_a: self.output_a,
            count_a: self.count_a,
            unanimous: self.unanimous,
            n: self.n,
            w_total: self.w_total,
            geo: self.geo,
            steps: self.steps,
            events: self.events,
            telemetry,
        }
    }

    /// The attached telemetry sink.
    pub fn telemetry(&self) -> &T {
        &self.telemetry
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of live (nonzero-count) states; per-event cost is linear in
    /// this quantity.
    pub fn live_states(&self) -> usize {
        self.live.len()
    }

    /// Seeds the step/event counters; used by
    /// [`AdaptiveSim`](super::AdaptiveSim) when handing off a partially-run
    /// simulation.
    pub(crate) fn set_counters(&mut self, steps: u64, events: u64) {
        self.steps = steps;
        self.events = events;
    }

    /// [`Simulator::reset`] from per-state counts: refills the engine in
    /// place, allocating nothing, so [`AdaptiveSim`](super::AdaptiveSim)
    /// hands its live counts over without building a [`Config`].
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not have one entry per protocol state, if
    /// they sum to fewer than two agents, or if the `n(n−1)` ordered pairs
    /// overflow a `u64`.
    pub(crate) fn reset_counts(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.len(),
            self.counts.len(),
            "configuration does not match protocol state space"
        );
        let n = counts.iter().sum();
        assert!(n >= 2, "need at least two agents, got {n}");
        self.counts.copy_from_slice(counts);
        (self.count_a, self.unanimous) = tally(&self.counts, &self.output_a, n);
        self.n = n;
        self.w_total = n
            .checked_mul(n - 1)
            .unwrap_or_else(|| panic!("n = {n} agents make more than 2^64 ordered pairs"));
        // The memoized `ln(1−p)` is keyed on `w_prod` alone; a changed
        // `w_total` would silently invalidate it, so start cold like a
        // fresh engine.
        self.geo = GeoCache::default();
        self.steps = 0;
        self.events = 0;
        // Liveness and null rows, rebuilt in place.
        self.live.clear();
        self.live_pos.fill(NOT_LIVE);
        for q in 0..self.protocol.num_states() {
            if self.counts[q as usize] > 0 {
                self.live_pos[q as usize] = self.live.len() as u32;
                self.live.push(q);
            }
        }
        for idx in 0..self.live.len() {
            let q = self.live[idx];
            self.null_row[q as usize] = self.compute_null_row(q);
        }
    }

    /// The silent-pair predicate.
    ///
    /// No private memoization: the harness wraps cacheable protocols in
    /// [`Cached`](crate::cached::Cached), whose `is_silent` override is a
    /// precomputed bitset lookup. Arithmetic protocols above the table bound
    /// recompute on demand (their transitions are cheap).
    fn silent(&self, a: StateId, b: StateId) -> bool {
        self.protocol.is_silent(a, b)
    }

    /// Recomputes `null_row[i]` from scratch over live states.
    fn compute_null_row(&self, i: StateId) -> u64 {
        let mut row = 0;
        for idx in 0..self.live.len() {
            let j = self.live[idx];
            if self.silent(i, j) {
                row += self.counts[j as usize] - u64::from(i == j);
            }
        }
        row
    }

    /// Total ordered-pair weight of silent interactions.
    fn null_weight(&self) -> u64 {
        self.live
            .iter()
            .map(|&i| self.counts[i as usize] * self.null_row[i as usize])
            .sum()
    }

    /// Samples a productive ordered species pair given total productive
    /// weight `w_prod > 0`.
    fn sample_productive<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        w_prod: u64,
    ) -> (StateId, StateId) {
        let mut r = rng.gen_range(0..w_prod);
        let mut chosen_i = None;
        for idx in 0..self.live.len() {
            let i = self.live[idx];
            let c_i = self.counts[i as usize];
            let row_prod = c_i * (self.n - 1 - self.null_row[i as usize]);
            if r < row_prod {
                chosen_i = Some((i, c_i));
                break;
            }
            r -= row_prod;
        }
        let (i, c_i) = chosen_i.expect("productive weight accounted for some row");
        // Find j within the row: pair weight c_i · (c_j − [i=j]) if productive.
        for idx in 0..self.live.len() {
            let j = self.live[idx];
            if self.silent(i, j) {
                continue;
            }
            let w = c_i * (self.counts[j as usize] - u64::from(i == j));
            if r < w {
                return (i, j);
            }
            r -= w;
        }
        unreachable!("row weight accounted for some productive partner")
    }

    /// Applies the count delta for one species and maintains `count_a`,
    /// unanimity and liveness bookkeeping. Returns whether the species
    /// became live.
    fn apply_delta(&mut self, k: StateId, delta: i64) -> bool {
        let idx = k as usize;
        let old = self.counts[idx];
        let new = old as i64 + delta;
        debug_assert!(new >= 0, "count underflow at state {k}");
        let new = new as u64;
        self.counts[idx] = new;
        if self.output_a[idx] {
            self.count_a = (self.count_a as i64 + delta) as u64;
        }
        if new == self.n {
            self.unanimous = Some(k);
        }
        if old == 0 && new > 0 {
            self.live_pos[idx] = self.live.len() as u32;
            self.live.push(k);
            true
        } else {
            if old > 0 && new == 0 {
                // Swap-remove from the live list.
                let pos = self.live_pos[idx] as usize;
                let last = *self.live.last().expect("live list nonempty");
                self.live.swap_remove(pos);
                if pos < self.live.len() {
                    self.live_pos[last as usize] = pos as u32;
                }
                self.live_pos[idx] = NOT_LIVE;
            }
            false
        }
    }

    /// One jump: skips the geometric run of silent steps and applies one
    /// productive interaction. Returns steps advanced, `0` if silent.
    /// Generic over the RNG so chunked loops inline the draws end to end.
    #[inline]
    fn step<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let w_total = self.w_total;
        let w_null = self.null_weight();
        debug_assert!(w_null <= w_total, "null weight exceeds total");
        let w_prod = w_total - w_null;
        if w_prod == 0 {
            return 0; // silent configuration: no interaction can change it
        }

        // Number of skipped silent steps before the next productive one,
        // with the `ln(1−p)` setup memoized across steps (see [`GeoCache`]).
        let skipped = if w_prod == w_total {
            0
        } else {
            self.geo.sample(w_prod, w_total, rng)
        };

        let (i, j) = self.sample_productive(rng, w_prod);
        let (x, y) = self.protocol.transition(i, j);
        debug_assert!(
            x < self.protocol.num_states() && y < self.protocol.num_states(),
            "transition left the state space"
        );
        debug_assert!(
            !((x == i && y == j) || (x == j && y == i)),
            "sampled pair was silent"
        );

        // Net per-species deltas (at most four species involved).
        let mut deltas: [(StateId, i64); 4] = [(i, 0), (j, 0), (x, 0), (y, 0)];
        let mut len = 0;
        let add = |deltas: &mut [(StateId, i64); 4], len: &mut usize, k: StateId, d: i64| {
            for entry in deltas.iter_mut().take(*len) {
                if entry.0 == k {
                    entry.1 += d;
                    return;
                }
            }
            deltas[*len] = (k, d);
            *len += 1;
        };
        add(&mut deltas, &mut len, i, -1);
        add(&mut deltas, &mut len, j, -1);
        add(&mut deltas, &mut len, x, 1);
        add(&mut deltas, &mut len, y, 1);

        self.unanimous = None;
        let mut fresh: [Option<StateId>; 2] = [None, None];
        let mut fresh_len = 0;
        for &(k, d) in deltas.iter().take(len) {
            if d == 0 {
                continue;
            }
            if self.apply_delta(k, d) {
                fresh[fresh_len] = Some(k);
                fresh_len += 1;
            }
        }

        // Update null rows of previously-live states for each net change;
        // freshly-live states get their row recomputed from scratch below
        // (and are excluded here — their stale row must not be patched).
        for &(k, d) in deltas.iter().take(len) {
            if d == 0 {
                continue;
            }
            for idx in 0..self.live.len() {
                let l = self.live[idx];
                if fresh.contains(&Some(l)) {
                    continue;
                }
                if self.silent(l, k) {
                    let row = &mut self.null_row[l as usize];
                    *row = (*row as i64 + d) as u64;
                }
            }
        }
        for f in fresh.into_iter().flatten() {
            self.null_row[f as usize] = self.compute_null_row(f);
        }

        self.events += 1;
        let advanced = skipped.saturating_add(1);
        self.steps = self.steps.saturating_add(advanced);
        advanced
    }
}

impl<P: Protocol, T: Sink> Simulator for JumpSim<P, T> {
    fn population(&self) -> u64 {
        self.n
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn events(&self) -> u64 {
        self.events
    }

    fn counts(&self) -> &[u64] {
        &self.counts
    }

    fn count_a(&self) -> u64 {
        self.count_a
    }

    fn unanimous_state(&self) -> Option<StateId> {
        self.unanimous
    }

    fn state_output(&self, state: StateId) -> Opinion {
        self.protocol.output(state)
    }

    fn config_is_silent(&self) -> bool {
        self.null_weight() == self.n * (self.n - 1)
    }

    fn inject(&mut self, fault: Fault) -> Result<u64, FaultError> {
        let Fault::Corrupt { from, to, agents } = fault else {
            return Err(FaultError::Unsupported {
                engine: "JumpSim",
                fault,
            });
        };
        if !corrupt_moves(from, to, self.protocol.num_states())? {
            return Ok(0);
        }
        let moved = agents.min(self.counts[from as usize]);
        if moved == 0 {
            return Ok(0);
        }
        self.unanimous = None;
        self.apply_delta(from, -(moved as i64));
        self.apply_delta(to, moved as i64);
        // Injection is rare and off the hot path: rebuild every live null
        // row from scratch rather than patching incrementally.
        for idx in 0..self.live.len() {
            let q = self.live[idx];
            self.null_row[q as usize] = self.compute_null_row(q);
        }
        self.telemetry.on_fault();
        Ok(moved)
    }

    fn reset(&mut self, config: &Config) {
        self.reset_counts(config.as_slice());
    }

    fn advance_chunk(&mut self, rng: &mut SmallRng, stop: StopCondition) -> AdvanceReport {
        let (steps0, events0) = (self.steps, self.events);
        // One jump lands exactly on a productive step, so `count_a` and
        // unanimity change only at step boundaries the loop observes: the
        // chunk stops at the exact step a predicate first holds. The step
        // *budget* can be overshot by the final jump's skipped-silent-steps
        // batch (checked before each jump, like the single-step path).
        let reason = loop {
            if stop.predicate_hit(self.count_a, self.unanimous.is_some()) {
                break StopReason::Predicate;
            }
            if self.steps >= stop.max_steps {
                break StopReason::StepBudget;
            }
            if self.step(rng) == 0 {
                break StopReason::Silent;
            }
        };
        let report = AdvanceReport {
            steps: self.steps - steps0,
            events: self.events - events0,
            reason,
        };
        self.telemetry.on_chunk(report.steps, report.events);
        report
    }

    fn sink_counts(&self) -> Option<&CountingSink> {
        self.telemetry.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CountSim;
    use crate::protocol::tests_support::{Annihilate, Voter};
    use crate::spec::{ConvergenceRule, Verdict};
    use rand::SeedableRng;

    /// Exhaustively re-derives the null rows and compares with the
    /// incrementally-maintained ones.
    fn check_invariants<P: Protocol + Clone>(sim: &mut JumpSim<P>) {
        let n: u64 = sim.counts.iter().sum();
        assert_eq!(n, sim.n, "population drifted");
        let live: Vec<StateId> = sim
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i as StateId)
            .collect();
        let mut sorted = sim.live.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, live, "live list out of sync");
        for &q in &live {
            assert_eq!(sim.live[sim.live_pos[q as usize] as usize], q);
            let expected = sim.compute_null_row(q);
            assert_eq!(
                sim.null_row[q as usize], expected,
                "null row of state {q} stale"
            );
        }
    }

    #[test]
    fn annihilate_uses_few_events_but_counts_all_steps() {
        let config = Config::from_input(&Annihilate, 52, 48);
        let mut sim = JumpSim::new(Annihilate, config);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut events = 0u64;
        while sim.advance(&mut rng) > 0 {
            events += 1;
            check_invariants(&mut sim);
        }
        // Exactly min(a, b) productive annihilations.
        assert_eq!(events, 48);
        assert_eq!(sim.counts(), &[4, 0, 96]);
        // Raw steps dominated by skipped silent interactions.
        assert!(sim.steps() > events);
    }

    #[test]
    fn voter_trajectory_invariants_hold() {
        let config = Config::from_input(&Voter, 12, 8);
        let mut sim = JumpSim::new(Voter, config);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..200 {
            if sim.advance(&mut rng) == 0 {
                break;
            }
            check_invariants(&mut sim);
        }
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
    }

    #[test]
    fn silent_configuration_detected() {
        // All agents already dead: every pair is silent.
        let mut sim = JumpSim::new(Annihilate, Config::from_counts(vec![0, 0, 10]));
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(sim.config_is_silent());
        assert_eq!(sim.advance(&mut rng), 0);
        let out = sim.run_to_consensus_with(&mut rng, 1_000, ConvergenceRule::Silence);
        assert_eq!(out.verdict, Verdict::Consensus(Opinion::A));
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn stuck_without_consensus_is_reported() {
        // 1 live +1 agent and 1 live −1 agent cannot meet productively?
        // They can (annihilation), so instead: +1 agents with dead agents
        // only — outputs already all A; use StateConsensus which can never
        // hold to exercise the Stuck verdict.
        let mut sim = JumpSim::new(Annihilate, Config::from_counts(vec![3, 0, 7]));
        let mut rng = SmallRng::seed_from_u64(4);
        let out = sim.run_to_consensus_with(&mut rng, 1_000, ConvergenceRule::StateConsensus);
        assert_eq!(out.verdict, Verdict::Stuck);
    }

    #[test]
    fn matches_count_sim_in_distribution_cheaply() {
        // Compare mean productive-event counts of the two engines on the
        // annihilation protocol (deterministic: always min(a,b) events), and
        // mean convergence steps on the voter model within a loose band.
        let mut rng = SmallRng::seed_from_u64(5);
        let trials = 40;
        let mut jump_mean = 0.0;
        let mut count_mean = 0.0;
        for _ in 0..trials {
            let mut js = JumpSim::new(Voter, Config::from_input(&Voter, 15, 5));
            jump_mean += js.run_to_consensus(&mut rng, u64::MAX).steps as f64;
            let mut cs = CountSim::new(Voter, Config::from_input(&Voter, 15, 5));
            count_mean += cs.run_to_consensus(&mut rng, u64::MAX).steps as f64;
        }
        jump_mean /= trials as f64;
        count_mean /= trials as f64;
        let ratio = jump_mean / count_mean;
        assert!(
            (0.5..2.0).contains(&ratio),
            "engines disagree: jump {jump_mean} vs count {count_mean}"
        );
    }

    #[test]
    fn unanimity_flag_tracks_final_state() {
        let mut sim = JumpSim::new(Voter, Config::from_input(&Voter, 9, 3));
        let mut rng = SmallRng::seed_from_u64(6);
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
        assert!(sim.unanimous_state().is_some());
        let state = sim.unanimous_state().unwrap();
        assert_eq!(sim.counts()[state as usize], 12);
    }

    #[test]
    #[should_panic(expected = "does not match protocol")]
    fn rejects_wrong_state_space() {
        let _ = JumpSim::new(Voter, Config::from_counts(vec![1, 2, 3]));
    }

    /// n(n−1) fits a u64 up to n = 2³², and a larger population panics
    /// instead of wrapping its pair weights.
    #[test]
    #[should_panic(expected = "ordered pairs")]
    fn rejects_populations_whose_pairs_overflow_a_u64() {
        let largest = JumpSim::new(Voter, Config::from_counts(vec![1 << 31, 1 << 31]));
        assert_eq!(largest.w_total, (1 << 32) * ((1 << 32) - 1));
        let _ = JumpSim::new(Voter, Config::from_counts(vec![1 << 32, 1]));
    }

    /// The memoized geometric draw must be bit-identical to constructing
    /// `rand_distr::Geometric` fresh every step — same single RNG draw,
    /// same float pipeline — across cache hits, misses, and re-keys.
    #[test]
    fn geometric_cache_matches_rand_distr() {
        use rand_distr::{Distribution, Geometric};
        let w_total: u64 = 1_001 * 1_000;
        let weights = [1u64, 37, 500, 999_999, w_total - 1, 123_456];
        let mut cache = GeoCache::default();
        let mut rng_a = SmallRng::seed_from_u64(99);
        let mut rng_b = SmallRng::seed_from_u64(99);
        for round in 0..4 {
            for &w_prod in &weights {
                let cached = cache.sample(w_prod, w_total, &mut rng_a);
                let p = w_prod as f64 / w_total as f64;
                let fresh = Geometric::new(p)
                    .expect("probability in (0,1]")
                    .sample(&mut rng_b);
                assert_eq!(cached, fresh, "w_prod {w_prod} round {round}");
                // A repeated weight exercises the cache-hit path.
                let cached = cache.sample(w_prod, w_total, &mut rng_a);
                let fresh = Geometric::new(p)
                    .expect("probability in (0,1]")
                    .sample(&mut rng_b);
                assert_eq!(cached, fresh, "hit at w_prod {w_prod} round {round}");
            }
        }
        // RNG streams stayed in lockstep throughout.
        assert_eq!(rng_a.r#gen::<u64>(), rng_b.r#gen::<u64>());
    }

    #[test]
    fn reset_jump_sim_matches_a_fresh_one() {
        let mut used = JumpSim::new(Voter, Config::from_input(&Voter, 12, 8));
        let mut rng = SmallRng::seed_from_u64(41);
        let _ = used.run_to_consensus(&mut rng, u64::MAX);
        let config = Config::from_input(&Voter, 9, 11);
        used.reset(&config);
        let mut fresh = JumpSim::new(Voter, config);
        let mut rng_a = SmallRng::seed_from_u64(43);
        let mut rng_b = SmallRng::seed_from_u64(43);
        let out_a = used.run_to_consensus(&mut rng_a, u64::MAX);
        let out_b = fresh.run_to_consensus(&mut rng_b, u64::MAX);
        assert_eq!(out_a.verdict, out_b.verdict);
        assert_eq!(out_a.steps, out_b.steps);
        assert_eq!(used.counts(), fresh.counts());
        check_invariants(&mut used);
        assert_eq!(rng_a.r#gen::<u64>(), rng_b.r#gen::<u64>());
    }
}
