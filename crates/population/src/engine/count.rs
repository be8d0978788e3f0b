//! Species-count simulation engine for the complete graph.

use crate::config::Config;
use crate::engine::{AdvanceReport, Simulator, StopCondition, StopReason};
use crate::faults::{Fault, FaultError};
use crate::protocol::{Opinion, Protocol, StateId};
use crate::sampler::FenwickSampler;
use avc_telemetry::{CountingSink, NoopSink, Sink};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// A count-based engine: a pair lookup of one table load and
/// `log₂ ⌈s / 256⌉` tree levels per agent and `O(s + n)` memory up to
/// `2^20` agents (one load up to 256 states), `O(log s)` per step and
/// `O(s)` memory above.
///
/// On a clique all agents in the same state are interchangeable, so the
/// engine stores only the number of agents per state and samples the ordered
/// interacting pair by species, using a [`FenwickSampler`] (first agent
/// proportional to counts; second proportional to counts with the first
/// agent removed), which resolves both from a table naming each agent
/// rank's block of at most `⌈s / 256⌉` states and a short Fenwick descent
/// inside the block. This is the work-horse engine for AVC with large
/// state counts (the "n-state" instances of Figure 3 and the large-`s`
/// curves of Figure 4). The sampler's weights are the engine's only copy
/// of the counts, so the population is at most `u32::MAX` agents.
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
/// descent depths: the in-block levels of
/// [`FenwickSampler::descent_depth`], 0 up to 256 states. The sink never
/// touches the RNG, so instrumented and plain runs draw byte-identical
/// streams.
#[derive(Debug, Clone)]
pub struct CountSim<P, T = NoopSink> {
    protocol: P,
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
    /// protocol's, or the population has fewer than two agents or more
    /// than `u32::MAX`.
    pub fn new(protocol: P, config: Config) -> CountSim<P> {
        assert_eq!(
            config.num_states(),
            protocol.num_states(),
            "configuration does not match protocol state space"
        );
        let n = config.population();
        assert!(n >= 2, "need at least two agents, got {n}");
        let counts = config.as_slice();
        let sampler = FenwickSampler::from_weights(counts);
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
        Config::from_counts(self.sampler.weights().to_vec())
    }

    /// Moves `agents` agents from state `from` to state `to`: one
    /// [`FenwickSampler::shift`] for the single agent of a step, two `add`s
    /// for a fault's batch. The caller clears `unanimous` first.
    #[inline]
    fn relocate(&mut self, from: StateId, to: StateId, agents: u64) {
        let (f, t) = (from as usize, to as usize);
        if agents == 1 {
            self.sampler.shift(f, t);
        } else {
            self.sampler.add(f, -(agents as i64));
            self.sampler.add(t, agents as i64);
        }
        self.count_a = self.count_a + agents * u64::from(self.output_a[t])
            - agents * u64::from(self.output_a[f]);
        if self.sampler.weight(t) == self.n {
            self.unanimous = Some(to);
        }
    }

    /// One scheduler step, generic over the RNG so chunked loops inline the
    /// draws end to end.
    #[inline]
    fn step<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        self.steps += 1;
        if T::ENABLED {
            // The fused draw below descends the in-block levels once per
            // agent (depth 0 on blocks of one state); depth is fixed while
            // the population is, so recording it here adds nothing to the
            // draw itself.
            let depth = self.sampler.descent_depth();
            self.telemetry.on_descent(depth);
            self.telemetry.on_descent(depth);
        }
        let total = self.sampler.total();
        // First agent by species, proportional to counts; second among the
        // remaining n−1, proportional to counts with one agent of the first
        // species removed. One fused lookup resolves both species from
        // the two draws (see `FenwickSampler::select_two`).
        let first = rng.gen_range(0..total);
        let second = rng.gen_range(0..total - 1);
        let (i, j) = self.sampler.select_two(first, second);
        let (i, j) = (i as StateId, j as StateId);

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
        // The multiset change {i, j} → {x, y} as net moves: one per agent
        // whose state changes.
        if x == i {
            self.relocate(j, y, 1);
        } else if y == j {
            self.relocate(i, x, 1);
        } else if x == j {
            self.relocate(i, y, 1);
        } else if y == i {
            self.relocate(j, x, 1);
        } else {
            self.relocate(i, x, 1);
            self.relocate(j, y, 1);
        }
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
        self.sampler.weights()
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
        self.protocol.config_silent(self.sampler.weights())
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
        let moved = agents.min(self.sampler.weight(from as usize));
        if moved == 0 {
            return Ok(0);
        }
        self.unanimous = None;
        self.relocate(from, to, moved);
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
        self.sampler.reassign(config.as_slice());
        self.count_a = config
            .as_slice()
            .iter()
            .zip(&self.output_a)
            .filter(|(_, &is_a)| is_a)
            .map(|(&c, _)| c)
            .sum();
        self.unanimous = config
            .as_slice()
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
    fn net_moves_keep_the_index_of_a_fresh_build() {
        // Blocks of one state, and blocks of 16 whose boundaries each move
        // crosses.
        for voter in [WideVoter(2), WideVoter(2_050)] {
            let mut sim = CountSim::new(voter, Config::from_input(&voter, 10, 10));
            let mut rng = SmallRng::seed_from_u64(3);
            for _ in 0..500 {
                sim.advance(&mut rng);
                assert_eq!(sim.sampler, FenwickSampler::from_weights(sim.counts()));
                assert_eq!(sim.sampler.total(), 20);
            }
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

    /// The voter model on `self.0` states, its two opinions at the ends:
    /// the responder adopts the initiator's state.
    #[derive(Debug, Clone, Copy)]
    struct WideVoter(u32);

    impl Protocol for WideVoter {
        fn num_states(&self) -> u32 {
            self.0
        }
        fn transition(&self, initiator: StateId, _responder: StateId) -> (StateId, StateId) {
            (initiator, initiator)
        }
        fn output(&self, state: StateId) -> Opinion {
            if state == 0 {
                Opinion::A
            } else {
                Opinion::B
            }
        }
        fn input(&self, opinion: Opinion) -> StateId {
            match opinion {
                Opinion::A => 0,
                Opinion::B => self.0 - 1,
            }
        }
        fn name(&self) -> &str {
            "wide-voter-test"
        }
    }

    #[test]
    fn telemetry_records_chunks_and_matches_counters() {
        use avc_telemetry::CountingSink;
        // Two descents per step, each of the sampler's in-block levels: none
        // on blocks of one state (up to 256 states), four on the blocks of
        // 16 that 2 050 states take.
        for (states, depth) in [(2, 0), (2_050, 4)] {
            let voter = WideVoter(states);
            let sim = CountSim::new(voter, Config::from_input(&voter, 30, 20));
            let mut sim = sim.with_telemetry(CountingSink::new());
            let mut rng = SmallRng::seed_from_u64(6);
            let out = sim.run_to_consensus(&mut rng, u64::MAX);
            assert!(out.verdict.is_consensus());
            let sink = sim.telemetry();
            assert_eq!(sink.steps, sim.steps());
            assert_eq!(sink.events, sim.events());
            assert_eq!(sink.silent_steps(), sim.steps() - sim.events());
            assert!(sink.chunks >= 1);
            assert_eq!(sink.descents, 2 * sim.steps());
            assert_eq!(
                sink.descent_depth_sum,
                depth * sink.descents,
                "{states} states"
            );
        }
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
