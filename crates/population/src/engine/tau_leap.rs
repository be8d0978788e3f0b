//! τ-leaping: approximate accelerated simulation.
//!
//! Population protocols are chemical reaction networks (the paper's
//! motivating deployments are molecular \[CDS+13]), and the standard
//! accelerated simulator for CRNs is *τ-leaping* \[Gillespie 2001]: instead
//! of executing interactions one at a time, leap `τ` scheduler steps at
//! once and sample how often each reaction channel fired during the leap
//! from a Poisson approximation, holding rates frozen. The leap length is
//! chosen by the bounded-relative-change criterion, and the engine falls
//! back to exact stepping when leaping would not pay.
//!
//! Unlike the exact engines, trajectories are **approximate**: per-leap
//! rate freezing introduces `O(τ·(rate change))` bias. Convergence-time
//! distributions agree with the exact engines to within a few percent on
//! the workloads in this repository (see `tests/engine_equivalence.rs`),
//! but anything that needs exact semantics (the figure experiments, the
//! verification tools) uses the exact engines.

use crate::config::Config;
use crate::engine::{AdvanceReport, Simulator, StopCondition, StopReason};
use crate::faults::{Fault, FaultError};
use crate::protocol::{Opinion, Protocol, StateId};
use avc_telemetry::{CountingSink, NoopSink, Sink};
use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Distribution, Poisson};

/// Relative-change control parameter of the leap-size criterion.
const ETA: f64 = 0.04;
/// Leaps shorter than this many steps are not worth the channel setup;
/// take exact steps instead.
const MIN_LEAP: f64 = 20.0;
/// How many times a leap is halved after producing negative counts before
/// giving up and stepping exactly.
const MAX_RETRIES: u32 = 8;

/// An approximate engine that advances many scheduler steps per call.
///
/// # Example
///
/// ```
/// use avc_population::engine::{Simulator, TauLeapSim};
/// use avc_population::protocol::tests_support::Voter;
/// use avc_population::Config;
/// use rand::SeedableRng;
///
/// let mut sim = TauLeapSim::new(Voter, Config::from_input(&Voter, 900, 100));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
/// let out = sim.run_to_consensus(&mut rng, u64::MAX);
/// assert!(out.verdict.is_consensus());
/// // Far fewer engine calls than scheduler steps:
/// assert!(sim.events() < sim.steps() / 4);
/// ```
/// The `T` parameter is the telemetry [`Sink`] seam (see
/// [`CountSim`](super::CountSim) for the contract); the default
/// [`NoopSink`] compiles to nothing and leaves the RNG stream untouched.
#[derive(Debug, Clone)]
pub struct TauLeapSim<P, T = NoopSink> {
    protocol: P,
    counts: Vec<u64>,
    output_a: Vec<bool>,
    count_a: u64,
    unanimous: Option<StateId>,
    n: u64,
    steps: u64,
    /// Engine invocations that changed the configuration (leaps or exact
    /// steps) — the cost metric, analogous to productive events.
    events: u64,
    telemetry: T,
}

/// One reaction channel: an ordered productive species pair with its
/// per-step firing probability and its net species deltas.
struct Channel {
    rate: f64,
    deltas: [(StateId, i64); 4],
    len: usize,
}

impl<P: Protocol> TauLeapSim<P> {
    /// Creates an engine from an initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's state count differs from the
    /// protocol's, or the population has fewer than two agents.
    pub fn new(protocol: P, config: Config) -> TauLeapSim<P> {
        assert_eq!(
            config.num_states(),
            protocol.num_states(),
            "configuration does not match protocol state space"
        );
        let n = config.population();
        assert!(n >= 2, "need at least two agents, got {n}");
        let counts = config.into_counts();
        let output_a: Vec<bool> = (0..counts.len())
            .map(|q| protocol.output(q as StateId) == Opinion::A)
            .collect();
        let count_a = counts
            .iter()
            .zip(&output_a)
            .filter(|(_, &is_a)| is_a)
            .map(|(&c, _)| c)
            .sum();
        let unanimous = counts.iter().position(|&c| c == n).map(|i| i as StateId);
        TauLeapSim {
            protocol,
            counts,
            output_a,
            count_a,
            unanimous,
            n,
            steps: 0,
            events: 0,
            telemetry: NoopSink,
        }
    }
}

impl<P: Protocol, T: Sink> TauLeapSim<P, T> {
    /// Replaces the telemetry sink, rebinding the engine's type. All
    /// simulation state carries over untouched, so attaching telemetry is
    /// RNG-invisible.
    pub fn with_telemetry<T2: Sink>(self, telemetry: T2) -> TauLeapSim<P, T2> {
        TauLeapSim {
            protocol: self.protocol,
            counts: self.counts,
            output_a: self.output_a,
            count_a: self.count_a,
            unanimous: self.unanimous,
            n: self.n,
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

    /// Builds the productive channels of the current configuration.
    fn channels(&self) -> Vec<Channel> {
        let total = (self.n * (self.n - 1)) as f64;
        let live: Vec<StateId> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i as StateId)
            .collect();
        let mut channels = Vec::new();
        for &i in &live {
            for &j in &live {
                let pairs = self.counts[i as usize] * (self.counts[j as usize] - u64::from(i == j));
                if pairs == 0 {
                    continue;
                }
                let (x, y) = self.protocol.transition(i, j);
                if (x == i && y == j) || (x == j && y == i) {
                    continue;
                }
                let mut deltas: [(StateId, i64); 4] = [(0, 0); 4];
                let mut len = 0;
                for (k, d) in [(i, -1i64), (j, -1), (x, 1), (y, 1)] {
                    if let Some(entry) = deltas.iter_mut().take(len).find(|e| e.0 == k) {
                        entry.1 += d;
                    } else {
                        deltas[len] = (k, d);
                        len += 1;
                    }
                }
                channels.push(Channel {
                    rate: pairs as f64 / total,
                    deltas,
                    len,
                });
            }
        }
        channels
    }

    /// The bounded-relative-change leap length for the given channels.
    fn leap_length(&self, channels: &[Channel]) -> f64 {
        // Per-species drift μ_k and diffusion σ²_k per step.
        let mut mu = vec![0.0f64; self.counts.len()];
        let mut var = vec![0.0f64; self.counts.len()];
        for ch in channels {
            for &(k, d) in ch.deltas.iter().take(ch.len) {
                if d != 0 {
                    mu[k as usize] += ch.rate * d as f64;
                    var[k as usize] += ch.rate * (d * d) as f64;
                }
            }
        }
        let mut tau = f64::INFINITY;
        for (k, &c) in self.counts.iter().enumerate() {
            let bound = (ETA * (c.max(1)) as f64).max(1.0);
            if mu[k] != 0.0 {
                tau = tau.min(bound / mu[k].abs());
            }
            if var[k] > 0.0 {
                tau = tau.min(bound * bound / var[k]);
            }
        }
        tau
    }

    /// Performs one exact SSA step: waits a geometric number of silent
    /// steps (implicitly, by sampling directly among the productive
    /// channels) and applies one reaction.
    fn exact_step<R: Rng + ?Sized>(&mut self, rng: &mut R, channels: &[Channel]) -> u64 {
        let total_rate: f64 = channels.iter().map(|c| c.rate).sum();
        if total_rate <= 0.0 {
            return 0;
        }
        // Steps until the next productive interaction (geometric, p = total_rate).
        let p = total_rate.min(1.0);
        let skipped = if p >= 1.0 {
            0
        } else {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            (u.ln() / (1.0 - p).ln()).floor() as u64
        };
        // Pick the channel.
        let mut r = rng.gen_range(0.0..total_rate);
        let mut chosen = channels.len() - 1;
        for (idx, ch) in channels.iter().enumerate() {
            if r < ch.rate {
                chosen = idx;
                break;
            }
            r -= ch.rate;
        }
        let ch = &channels[chosen];
        let deltas: Vec<(StateId, i64)> = ch.deltas.iter().take(ch.len).copied().collect();
        for (k, d) in deltas {
            self.apply_delta(k, d);
        }
        self.settle_unanimous();
        self.events += 1;
        let advanced = skipped.saturating_add(1);
        self.steps = self.steps.saturating_add(advanced);
        advanced
    }

    fn apply_delta(&mut self, k: StateId, delta: i64) {
        let idx = k as usize;
        let new = self.counts[idx] as i64 + delta;
        debug_assert!(new >= 0, "count underflow at state {k}");
        self.counts[idx] = new as u64;
        if self.output_a[idx] {
            self.count_a = (self.count_a as i64 + delta) as u64;
        }
        if self.counts[idx] == self.n {
            self.unanimous = Some(k);
        }
    }

    /// Re-validates the unanimity flag after a batch of deltas: a species
    /// recorded as unanimous mid-batch may have been decremented later.
    fn settle_unanimous(&mut self) {
        if let Some(k) = self.unanimous {
            if self.counts[k as usize] != self.n {
                self.unanimous = None;
            }
        }
    }

    /// One leap (or exact-step fallback). Returns steps advanced, `0` if
    /// silent. Generic over the RNG so chunked loops inline the Poisson
    /// draws end to end.
    #[inline]
    fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let channels = self.channels();
        if channels.is_empty() {
            return 0;
        }
        let mut tau = self.leap_length(&channels);
        if !tau.is_finite() || tau < MIN_LEAP {
            return self.exact_step(rng, &channels);
        }

        for _ in 0..=MAX_RETRIES {
            // Sample firing counts for every channel over ⌊τ⌋ steps.
            let leap = tau.floor().max(MIN_LEAP);
            let mut net = vec![0i64; self.counts.len()];
            for ch in &channels {
                let mean = leap * ch.rate;
                let firings = if mean > 0.0 {
                    Poisson::new(mean).expect("positive mean").sample(rng) as i64
                } else {
                    0
                };
                if firings == 0 {
                    continue;
                }
                for &(k, d) in ch.deltas.iter().take(ch.len) {
                    net[k as usize] += d * firings;
                }
            }
            let feasible = self
                .counts
                .iter()
                .zip(&net)
                .all(|(&c, &d)| c as i64 + d >= 0);
            if !feasible {
                tau /= 2.0;
                if tau < MIN_LEAP {
                    return self.exact_step(rng, &channels);
                }
                continue;
            }
            let mut changed = false;
            for (k, &d) in net.iter().enumerate() {
                if d != 0 {
                    self.apply_delta(k as StateId, d);
                    changed = true;
                }
            }
            self.settle_unanimous();
            if changed {
                self.events += 1;
            }
            let advanced = leap as u64;
            self.steps = self.steps.saturating_add(advanced);
            return advanced;
        }
        self.exact_step(rng, &channels)
    }
}

impl<P: Protocol, T: Sink> Simulator for TauLeapSim<P, T> {
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
        self.protocol.config_silent(&self.counts)
    }

    fn inject(&mut self, fault: Fault) -> Result<u64, FaultError> {
        let Fault::Corrupt { from, to, agents } = fault else {
            return Err(FaultError::Unsupported {
                engine: "TauLeapSim",
                fault,
            });
        };
        let s = self.protocol.num_states();
        if from >= s || to >= s {
            return Err(FaultError::OutOfRange {
                detail: format!("corrupt {from}->{to} with only {s} protocol states"),
            });
        }
        if from == to {
            return Ok(0);
        }
        let moved = agents.min(self.counts[from as usize]);
        if moved == 0 {
            return Ok(0);
        }
        self.apply_delta(from, -(moved as i64));
        self.apply_delta(to, moved as i64);
        self.settle_unanimous();
        self.telemetry.on_fault();
        Ok(moved)
    }

    fn advance_chunk(&mut self, rng: &mut SmallRng, stop: StopCondition) -> AdvanceReport {
        let (steps0, events0) = (self.steps, self.events);
        // Configuration state is only observable at leap boundaries, so
        // predicates resolve at the first boundary where they hold; both
        // the budget and (because whole leaps apply at once) predicate
        // crossings can land past their exact step — inherent to the
        // engine's approximation, not to chunking.
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

    fn reset(&mut self, config: &Config) {
        assert_eq!(
            config.num_states(),
            self.protocol.num_states(),
            "configuration does not match protocol state space"
        );
        let n = config.population();
        assert!(n >= 2, "need at least two agents, got {n}");
        self.counts.copy_from_slice(config.as_slice());
        self.count_a = self
            .counts
            .iter()
            .zip(&self.output_a)
            .filter(|(_, &is_a)| is_a)
            .map(|(&c, _)| c)
            .sum();
        self.unanimous = self
            .counts
            .iter()
            .position(|&c| c == n)
            .map(|i| i as StateId);
        self.n = n;
        self.steps = 0;
        self.events = 0;
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
    use crate::rngutil::SeedSequence;
    use rand::SeedableRng;

    #[test]
    fn conserves_population() {
        let mut sim = TauLeapSim::new(Voter, Config::from_input(&Voter, 700, 300));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            if sim.advance(&mut rng) == 0 {
                break;
            }
            assert_eq!(sim.counts().iter().sum::<u64>(), 1_000);
            let recount: u64 = sim
                .counts()
                .iter()
                .zip(&sim.output_a)
                .filter(|(_, &a)| a)
                .map(|(&c, _)| c)
                .sum();
            assert_eq!(recount, sim.count_a());
        }
    }

    #[test]
    fn reaches_consensus_and_leaps() {
        let mut sim = TauLeapSim::new(Voter, Config::from_input(&Voter, 1_800, 200));
        let mut rng = SmallRng::seed_from_u64(2);
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
        assert!(
            sim.events() < sim.steps() / 4,
            "expected leaping: {} events for {} steps",
            sim.events(),
            sim.steps()
        );
    }

    #[test]
    fn silent_configuration_is_terminal() {
        let mut sim = TauLeapSim::new(Annihilate, Config::from_counts(vec![5, 0, 5]));
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(sim.advance(&mut rng), 0);
        assert!(sim.config_is_silent());
    }

    #[test]
    fn mean_convergence_time_matches_exact_engine() {
        // Statistical agreement with CountSim on the voter model within 10%.
        let seeds = SeedSequence::new(4);
        let trials = 60;
        let mut tau_mean = 0.0;
        let mut exact_mean = 0.0;
        for t in 0..trials {
            let mut rng = seeds.rng_for(t);
            let mut sim = TauLeapSim::new(Voter, Config::from_input(&Voter, 1_500, 500));
            tau_mean += sim.run_to_consensus(&mut rng, u64::MAX).parallel_time;
            let mut rng = seeds.child(1).rng_for(t);
            let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 1_500, 500));
            exact_mean += sim.run_to_consensus(&mut rng, u64::MAX).parallel_time;
        }
        tau_mean /= trials as f64;
        exact_mean /= trials as f64;
        let ratio = tau_mean / exact_mean;
        assert!(
            (0.85..1.15).contains(&ratio),
            "tau {tau_mean} vs exact {exact_mean}"
        );
    }

    #[test]
    fn annihilation_endpoint_is_exact_despite_leaping() {
        // The invariant c0 − c1 survives Poisson leaping because every
        // channel preserves it.
        let mut sim = TauLeapSim::new(Annihilate, Config::from_input(&Annihilate, 2_600, 1_400));
        let mut rng = SmallRng::seed_from_u64(5);
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
        assert_eq!(sim.counts()[0], 1_200);
        assert_eq!(sim.counts()[1], 0);
        assert_eq!(sim.counts()[2], 2_800);
    }
}
