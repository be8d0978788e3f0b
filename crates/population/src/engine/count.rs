//! Species-count simulation engine for the complete graph.

use crate::config::Config;
use crate::engine::{AdvanceReport, Simulator, StopCondition, StopReason};
use crate::faults::{Fault, FaultError};
use crate::protocol::{Opinion, Protocol, StateId};
use crate::sampler::FenwickSampler;
use avc_telemetry::{CountingSink, NoopSink, Sink};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// A count-based engine: `O(log s)` per step, `O(s)` memory.
///
/// On a clique all agents in the same state are interchangeable, so the
/// engine stores only the number of agents per state and samples the ordered
/// interacting pair by species, using a [`FenwickSampler`] (first agent
/// proportional to counts; second proportional to counts with the first
/// agent removed). This is the work-horse engine for AVC with large state
/// counts (the "n-state" instances of Figure 3 and the large-`s` curves of
/// Figure 4).
///
/// # Example
///
/// ```
/// use avc_population::engine::{CountSim, Simulator};
/// use avc_population::protocol::tests_support::Voter;
/// use avc_population::Config;
/// use rand::SeedableRng;
///
/// let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 40, 9));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let out = sim.run_to_consensus(&mut rng, u64::MAX);
/// assert!(out.verdict.is_consensus());
/// ```
/// The `T` parameter is the telemetry [`Sink`] seam: the default
/// [`NoopSink`] compiles every recording site away (the CI bench gate holds
/// it to ≤2% of the uninstrumented hot loop), while a
/// [`CountingSink`](avc_telemetry::CountingSink) attached via
/// [`CountSim::with_telemetry`] records chunk step/event deltas and Fenwick
/// descent depths. The sink never touches the RNG, so instrumented and
/// plain runs draw byte-identical streams.
#[derive(Debug, Clone)]
pub struct CountSim<P, T = NoopSink> {
    protocol: P,
    counts: Vec<u64>,
    sampler: FenwickSampler,
    output_a: Vec<bool>,
    count_a: u64,
    unanimous: Option<StateId>,
    n: u64,
    steps: u64,
    events: u64,
    telemetry: T,
}

impl<P: Protocol> CountSim<P> {
    /// Creates an engine from an initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's state count differs from the
    /// protocol's, or the population has fewer than two agents.
    pub fn new(protocol: P, config: Config) -> CountSim<P> {
        assert_eq!(
            config.num_states(),
            protocol.num_states(),
            "configuration does not match protocol state space"
        );
        let n = config.population();
        assert!(n >= 2, "need at least two agents, got {n}");
        let counts = config.into_counts();
        let sampler = FenwickSampler::from_weights(&counts);
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
        CountSim {
            protocol,
            counts,
            sampler,
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

impl<P: Protocol, T: Sink> CountSim<P, T> {
    /// Replaces the telemetry sink, rebinding the engine's type. All
    /// simulation state (counts, sampler, step counters) carries over
    /// untouched, so attaching telemetry mid-run is RNG-invisible.
    pub fn with_telemetry<T2: Sink>(self, telemetry: T2) -> CountSim<P, T2> {
        CountSim {
            protocol: self.protocol,
            counts: self.counts,
            sampler: self.sampler,
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

    /// The current configuration as an owned [`Config`].
    pub fn config(&self) -> Config {
        Config::from_counts(self.counts.clone())
    }

    fn bump(&mut self, state: StateId, delta: i64) {
        let idx = state as usize;
        let new = self.counts[idx] as i64 + delta;
        debug_assert!(new >= 0, "count underflow at state {state}");
        self.counts[idx] = new as u64;
        self.sampler.add(idx, delta);
        if self.output_a[idx] {
            self.count_a = (self.count_a as i64 + delta) as u64;
        }
        if self.counts[idx] == self.n {
            self.unanimous = Some(state);
        }
    }

    /// One scheduler step, generic over the RNG so chunked loops inline the
    /// draws end to end.
    #[inline]
    fn step<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        self.steps += 1;
        if T::ENABLED {
            // Both draws below descend the tree once each; depth is a
            // function of the (fixed) category count, so recording it here
            // adds nothing to the descents themselves.
            let depth = self.sampler.descent_depth();
            self.telemetry.on_descent(depth);
            self.telemetry.on_descent(depth);
        }
        let total = self.sampler.total();
        // First agent by species, proportional to counts.
        let i = self.sampler.select(rng.gen_range(0..total)) as StateId;
        // Second agent among the remaining n−1, proportional to counts with
        // one agent of species i removed. Instead of materialising that
        // distribution in the tree (two `add` walks per step), invert its
        // CDF directly: removing one agent of species i shifts every prefix
        // sum at or past i down by one, so the inverse at t is `select(t)`
        // when that lands before i and `select(t+1)` otherwise — the same
        // species from the same single draw. Both inverse-CDF answers come
        // out of one fused tree descent.
        let t = rng.gen_range(0..total - 1);
        let (s0, s1) = self.sampler.select_pair(t);
        let j = if (s0 as StateId) < i {
            s0 as StateId
        } else {
            s1 as StateId
        };

        let (x, y) = self.protocol.transition(i, j);
        debug_assert!(
            x < self.protocol.num_states() && y < self.protocol.num_states(),
            "transition left the state space"
        );
        if (x == i && y == j) || (x == j && y == i) {
            return; // configuration unchanged
        }
        self.events += 1;
        self.unanimous = None;
        self.bump(i, -1);
        self.bump(j, -1);
        self.bump(x, 1);
        self.bump(y, 1);
    }
}

impl<P: Protocol, T: Sink> Simulator for CountSim<P, T> {
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
        // Count-based engines have no agent identity; only count-space
        // corruption is expressible.
        let Fault::Corrupt { from, to, agents } = fault else {
            return Err(FaultError::Unsupported {
                engine: "CountSim",
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
        self.unanimous = None;
        self.bump(from, -(moved as i64));
        self.bump(to, moved as i64);
        self.telemetry.on_fault();
        Ok(moved)
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
        self.sampler.reassign(&self.counts);
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

    fn advance_chunk(&mut self, rng: &mut SmallRng, stop: StopCondition) -> AdvanceReport {
        let (steps0, events0) = (self.steps, self.events);
        // Every step advances exactly one scheduler step, so the loop can
        // never report `Silent` — a silent configuration just keeps taking
        // (explicit) silent steps until the budget, like the scheduler does.
        let reason = loop {
            if stop.predicate_hit(self.count_a, self.unanimous.is_some()) {
                break StopReason::Predicate;
            }
            if self.steps >= stop.max_steps {
                break StopReason::StepBudget;
            }
            // The predicate reads count_a and unanimity, which only move on
            // productive events — so it cannot fire mid-stretch, and the
            // inner loop burns silent steps against the budget alone.
            let events_before = self.events;
            while self.events == events_before && self.steps < stop.max_steps {
                self.step(rng);
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
    use crate::protocol::tests_support::{Annihilate, Voter};
    use crate::spec::{ConvergenceRule, Verdict};
    use rand::SeedableRng;

    #[test]
    fn voter_consensus_preserves_population() {
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 25, 15));
        let mut rng = SmallRng::seed_from_u64(1);
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
        assert_eq!(sim.counts().iter().sum::<u64>(), 40);
        assert!(sim.unanimous_state().is_some());
    }

    #[test]
    fn annihilate_is_exactly_min_ab_productive_events() {
        let mut sim = CountSim::new(Annihilate, Config::from_input(&Annihilate, 7, 5));
        let mut rng = SmallRng::seed_from_u64(2);
        let out = sim.run_to_consensus_with(&mut rng, u64::MAX, ConvergenceRule::Silence);
        assert_eq!(out.verdict, Verdict::Consensus(Opinion::A));
        assert_eq!(sim.counts(), &[2, 0, 10]);
    }

    #[test]
    fn sampler_and_counts_stay_consistent() {
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 10, 10));
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..500 {
            sim.advance(&mut rng);
            for (idx, &c) in sim.counts().iter().enumerate() {
                assert_eq!(sim.sampler.weight(idx), c);
            }
            assert_eq!(sim.sampler.total(), 20);
        }
    }

    #[test]
    fn unanimity_flag_matches_counts() {
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 5, 2));
        let mut rng = SmallRng::seed_from_u64(4);
        loop {
            let expected = sim
                .counts()
                .iter()
                .position(|&c| c == 7)
                .map(|i| i as StateId);
            assert_eq!(sim.unanimous_state(), expected);
            if expected.is_some() {
                break;
            }
            sim.advance(&mut rng);
        }
    }

    #[test]
    fn already_unanimous_input_converges_instantly() {
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 0, 9));
        let mut rng = SmallRng::seed_from_u64(5);
        let out = sim.run_to_consensus(&mut rng, 100);
        assert_eq!(out.steps, 0);
        assert_eq!(out.verdict, Verdict::Consensus(Opinion::B));
    }

    #[test]
    #[should_panic(expected = "does not match protocol")]
    fn rejects_wrong_state_space() {
        let _ = CountSim::new(Voter, Config::from_counts(vec![1, 2, 3]));
    }

    #[test]
    fn telemetry_records_chunks_and_matches_counters() {
        use avc_telemetry::CountingSink;
        let sim = CountSim::new(Voter, Config::from_input(&Voter, 30, 20));
        let mut sim = sim.with_telemetry(CountingSink::new());
        let mut rng = SmallRng::seed_from_u64(6);
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
        let sink = sim.telemetry();
        assert_eq!(sink.steps, sim.steps());
        assert_eq!(sink.events, sim.events());
        assert_eq!(sink.silent_steps(), sim.steps() - sim.events());
        assert!(sink.chunks >= 1);
        // Voter has 2 states: linear-scan path, depth 0, two descents/step.
        assert_eq!(sink.descents, 2 * sim.steps());
        assert_eq!(sink.descent_depth_sum, 0);
    }

    #[test]
    fn telemetry_is_rng_invisible() {
        use avc_telemetry::CountingSink;
        let config = Config::from_input(&Voter, 30, 20);
        let mut plain = CountSim::new(Voter, config.clone());
        let mut instrumented = CountSim::new(Voter, config).with_telemetry(CountingSink::new());
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        let out_a = plain.run_to_consensus(&mut rng_a, u64::MAX);
        let out_b = instrumented.run_to_consensus(&mut rng_b, u64::MAX);
        assert_eq!(out_a.verdict, out_b.verdict);
        assert_eq!(out_a.steps, out_b.steps);
        assert_eq!(plain.counts(), instrumented.counts());
        assert_eq!(rng_a.r#gen::<u64>(), rng_b.r#gen::<u64>());
    }
}
