//! Per-agent simulation engine.

use crate::config::Config;
use crate::engine::{
    corrupt_moves, output_a_mask, tally, AdvanceReport, Simulator, StopCondition, StopReason,
};
use crate::faults::{Fault, FaultError};
use crate::graph::Graph;
use crate::protocol::{Opinion, Protocol, StateId};
use crate::sched::{Scheduler, Uniform};
use avc_telemetry::{CountingSink, NoopSink, Sink};
use rand::rngs::SmallRng;

/// A per-agent engine supporting arbitrary interaction graphs and
/// pluggable [`Scheduler`] strategies.
///
/// Keeps one state per agent (`O(n)` memory) and performs one interaction
/// per [`advance`](Simulator::advance) in `O(1)`. This is the reference
/// engine the count-based engines are validated against, the only one
/// that supports non-complete interaction graphs, and — because agents
/// have identity here — the only one that supports agent-addressed
/// scheduling ([`crate::sched`]) and faults ([`crate::faults`]). The
/// default scheduler is [`Uniform`], which consumes the RNG identically
/// to sampling pairs straight from the graph.
///
/// # Example
///
/// ```
/// use avc_population::engine::{AgentSim, Simulator};
/// use avc_population::graph::Graph;
/// use avc_population::protocol::tests_support::Voter;
/// use avc_population::Config;
/// use rand::SeedableRng;
///
/// let config = Config::from_input(&Voter, 10, 1);
/// let mut sim = AgentSim::new(Voter, config, Graph::cycle(11));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let out = sim.run_to_consensus(&mut rng, 1_000_000);
/// assert!(out.verdict.is_consensus());
/// ```
/// The `T` parameter is the telemetry [`Sink`] seam (see
/// [`CountSim`](super::CountSim) for the contract); the default
/// [`NoopSink`] compiles to nothing and leaves the RNG stream untouched.
#[derive(Debug, Clone)]
pub struct AgentSim<P, S = Uniform, T = NoopSink> {
    protocol: P,
    graph: Graph,
    scheduler: S,
    states: States,
    counts: Vec<u64>,
    output_a: Vec<bool>,
    count_a: u64,
    unanimous: Option<StateId>,
    /// Lazily allocated by the first agent-addressed fault; while `None`,
    /// the chunk loop runs with [`NoFaults`] and checks nothing.
    faults: Option<Box<AgentFaults>>,
    steps: u64,
    events: u64,
    telemetry: T,
}

/// Per-agent fault flags (the fault overlay).
///
/// Once allocated it stays allocated — reviving the last crashed agent
/// leaves all-false flag vectors behind, which [`chunk_loop`] steps through
/// like [`NoFaults`], with two extra bitvec reads per step.
#[derive(Debug, Clone)]
struct AgentFaults {
    /// Crashed agents: scheduled steps touching them are burned.
    crashed: Vec<bool>,
    /// Stuck agents: they interact but their own state never changes.
    stuck: Vec<bool>,
}

impl AgentFaults {
    fn new(n: usize) -> AgentFaults {
        AgentFaults {
            crashed: vec![false; n],
            stuck: vec![false; n],
        }
    }
}

/// The crash and stuck-at checks [`chunk_loop`] makes per step.
trait FaultOverlay {
    /// Whether a step scheduled onto `agent` is burned.
    fn crashed(&self, agent: usize) -> bool;
    /// Whether `agent` keeps its state through its interactions.
    fn stuck(&self, agent: usize) -> bool;
}

/// The fault-free overlay: both checks are a constant `false`, so the
/// loop compiles to exactly the engine without faults.
struct NoFaults;

impl FaultOverlay for NoFaults {
    #[inline(always)]
    fn crashed(&self, _agent: usize) -> bool {
        false
    }
    #[inline(always)]
    fn stuck(&self, _agent: usize) -> bool {
        false
    }
}

impl FaultOverlay for AgentFaults {
    #[inline(always)]
    fn crashed(&self, agent: usize) -> bool {
        self.crashed[agent]
    }
    #[inline(always)]
    fn stuck(&self, agent: usize) -> bool {
        self.stuck[agent]
    }
}

/// Per-agent state storage, randomly indexed twice per step. When every
/// state id fits in a byte (true for all constant-state protocols) the
/// array is kept 4× denser so more of it stays in close cache levels.
#[derive(Debug, Clone)]
enum States {
    Narrow(Vec<u8>),
    Wide(Vec<StateId>),
}

/// Evaluates `$body` with `$cells` bound to the agent array at its cell
/// width, so generic code over [`StateCell`] matches the width once.
macro_rules! with_cells {
    ($states:expr, $cells:ident => $body:expr) => {
        match $states {
            States::Narrow($cells) => $body,
            States::Wide($cells) => $body,
        }
    };
}

impl States {
    fn new(states: Vec<StateId>, num_states: u32) -> States {
        if num_states <= u8::MAX as u32 + 1 {
            States::Narrow(states.into_iter().map(|s| s as u8).collect())
        } else {
            States::Wide(states)
        }
    }

    fn len(&self) -> usize {
        with_cells!(self, v => v.len())
    }

    fn get(&self, agent: usize) -> StateId {
        with_cells!(self, v => v[agent].unpack())
    }

    /// Overwrites every slot with the state-order placement of `config`:
    /// the first `config.count(0)` agents get state 0, and so on.
    fn refill_in_state_order(&mut self, config: &Config) {
        fn fill<C: StateCell>(cells: &mut [C], config: &Config) {
            let mut idx = 0;
            for s in 0..config.num_states() {
                for _ in 0..config.count(s) {
                    cells[idx] = C::pack(s);
                    idx += 1;
                }
            }
            debug_assert_eq!(idx, cells.len(), "config population mismatch");
        }
        with_cells!(self, v => fill(v, config));
    }
}

/// A fixed-width cell a `StateId` round-trips through losslessly (the
/// narrow impl is only constructed when every id fits).
trait StateCell: Copy + Eq {
    fn pack(id: StateId) -> Self;
    fn unpack(self) -> StateId;
}

impl StateCell for u8 {
    #[inline(always)]
    fn pack(id: StateId) -> u8 {
        id as u8
    }
    #[inline(always)]
    fn unpack(self) -> StateId {
        self as StateId
    }
}

impl StateCell for StateId {
    #[inline(always)]
    fn pack(id: StateId) -> StateId {
        id
    }
    #[inline(always)]
    fn unpack(self) -> StateId {
        self
    }
}

/// Moves `agent` to `to`, keeping the counts, `count_a` and unanimity
/// exact: the bookkeeping of one agent in a productive interaction, and of
/// an agent-addressed fault.
#[inline(always)]
fn move_agent<C: StateCell>(
    states: &mut [C],
    counts: &mut [u64],
    output_a: &[bool],
    count_a: &mut u64,
    unanimous: &mut Option<StateId>,
    agent: usize,
    to: StateId,
) {
    let from = states[agent].unpack();
    if from == to {
        return;
    }
    states[agent] = C::pack(to);
    counts[from as usize] -= 1;
    counts[to as usize] += 1;
    match (output_a[from as usize], output_a[to as usize]) {
        (true, false) => *count_a -= 1,
        (false, true) => *count_a += 1,
        _ => {}
    }
    *unanimous = if counts[to as usize] == states.len() as u64 {
        Some(to)
    } else {
        None
    };
}

/// The monomorphized hot loop, generic over the cell width so the narrow
/// path pays no dispatch per access, and over the fault overlay so the
/// fault-free path ([`NoFaults`]) pays nothing for crash and stuck-at
/// checks. Field references are passed split so the enum match happens
/// once per chunk, not once per step. The scheduler inlines too: under
/// [`Uniform`] this compiles to exactly the pre-scheduler loop (same
/// draws, same order).
///
/// Kept out of line (one call per chunk): inlined into `advance_chunk`,
/// the loop on the star-restricted schedule ran at 0.6× the steps/s
/// of this standalone function on an x86-64 release build.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn chunk_loop<C: StateCell, P: Protocol, S: Scheduler, F: FaultOverlay>(
    protocol: &P,
    graph: &Graph,
    scheduler: &mut S,
    faults: &F,
    states: &mut [C],
    counts: &mut [u64],
    output_a: &[bool],
    count_a: &mut u64,
    unanimous: &mut Option<StateId>,
    steps: &mut u64,
    events: &mut u64,
    rng: &mut SmallRng,
    stop: StopCondition,
) -> StopReason {
    // Like the real scheduler, the engine keeps drawing pairs on a silent
    // configuration, so the loop never reports `Silent`.
    loop {
        if stop.predicate_hit(*count_a, unanimous.is_some()) {
            return StopReason::Predicate;
        }
        if *steps >= stop.max_steps {
            return StopReason::StepBudget;
        }
        // The predicate reads count_a and unanimity, which only move on
        // productive events — so it cannot fire mid-stretch, and the inner
        // loop burns silent steps against the budget alone. Burned and
        // stuck-forced steps are never productive, so they stay inside it.
        let events_before = *events;
        while *events == events_before && *steps < stop.max_steps {
            let (u, v) = scheduler.next_pair(graph, *steps, rng);
            *steps += 1;
            if faults.crashed(u) || faults.crashed(v) {
                // A step scheduled onto a crashed agent is burned: the step
                // elapses, no interaction happens, counts are untouched.
                continue;
            }
            let (su, sv) = (states[u].unpack(), states[v].unpack());
            let (mut nu, mut nv) = protocol.transition(su, sv);
            debug_assert!(
                nu < protocol.num_states() && nv < protocol.num_states(),
                "transition left the state space"
            );
            // A stuck agent answers (its partner's update stands) but never
            // learns: its own post-state is forced back to its pre-state.
            if faults.stuck(u) {
                nu = su;
            }
            if faults.stuck(v) {
                nv = sv;
            }
            if (nu == su && nv == sv) || (nu == sv && nv == su) {
                // Silent interaction: the count multiset is untouched, so
                // the counts / count_a / unanimity bookkeeping is already
                // correct. Only a token swap moves the per-agent states
                // (and a silent pair with `nu != su` is necessarily a
                // swap); skipping the stores otherwise keeps both cache
                // lines clean.
                if nu != su {
                    states[u] = C::pack(nu);
                    states[v] = C::pack(nv);
                }
                continue;
            }
            *events += 1;
            for (agent, to) in [(u, nu), (v, nv)] {
                move_agent(states, counts, output_a, count_a, unanimous, agent, to);
            }
        }
    }
}

impl<P: Protocol> AgentSim<P> {
    /// Creates an engine on the complete graph with the [`Uniform`]
    /// scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration size and state count are inconsistent
    /// with the protocol, or the population has fewer than two agents.
    pub fn on_clique(protocol: P, config: Config) -> AgentSim<P> {
        let n = config.population() as usize;
        AgentSim::new(protocol, config, Graph::clique(n))
    }

    /// Creates an engine on an explicit interaction graph with the
    /// [`Uniform`] scheduler.
    ///
    /// Agents are assigned states in state order: the first `config.count(0)`
    /// agents get state 0, and so on. Callers that need a different
    /// state-to-vertex placement can use [`AgentSim::from_states`].
    ///
    /// # Panics
    ///
    /// Panics if the graph size differs from the population or the
    /// configuration is inconsistent with the protocol.
    pub fn new(protocol: P, config: Config, graph: Graph) -> AgentSim<P> {
        AgentSim::with_scheduler(protocol, config, graph, Uniform)
    }

    /// Creates an engine with an explicit state per vertex of the graph,
    /// with the [`Uniform`] scheduler.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of range, the graph size differs from the
    /// number of agents, or there are fewer than two agents.
    pub fn from_states(protocol: P, states: Vec<StateId>, graph: Graph) -> AgentSim<P> {
        AgentSim::from_states_with_scheduler(protocol, states, graph, Uniform)
    }
}

impl<P: Protocol, S: Scheduler> AgentSim<P, S> {
    /// As [`AgentSim::new`], with an explicit [`Scheduler`].
    ///
    /// `AgentSim::with_scheduler(p, c, g, Uniform)` is trajectory- and
    /// RNG-stream-identical to `AgentSim::new(p, c, g)`.
    ///
    /// # Panics
    ///
    /// As [`AgentSim::new`].
    pub fn with_scheduler(
        protocol: P,
        config: Config,
        graph: Graph,
        scheduler: S,
    ) -> AgentSim<P, S> {
        let agents = vec![0; config.population() as usize];
        let mut sim = AgentSim::from_states_with_scheduler(protocol, agents, graph, scheduler);
        sim.reset(&config);
        sim
    }

    /// As [`AgentSim::from_states`], with an explicit [`Scheduler`].
    ///
    /// # Panics
    ///
    /// As [`AgentSim::from_states`].
    pub fn from_states_with_scheduler(
        protocol: P,
        states: Vec<StateId>,
        graph: Graph,
        scheduler: S,
    ) -> AgentSim<P, S> {
        assert!(states.len() >= 2, "need at least two agents");
        assert_eq!(
            graph.num_agents(),
            states.len(),
            "graph size must match number of agents"
        );
        let s = protocol.num_states();
        let mut counts = vec![0u64; s as usize];
        for &st in &states {
            assert!(
                st < s,
                "state {st} out of range for protocol with {s} states"
            );
            counts[st as usize] += 1;
        }
        let output_a = output_a_mask(&protocol);
        let (count_a, unanimous) = tally(&counts, &output_a, states.len() as u64);
        AgentSim {
            protocol,
            graph,
            scheduler,
            states: States::new(states, s),
            counts,
            output_a,
            count_a,
            unanimous,
            faults: None,
            steps: 0,
            events: 0,
            telemetry: NoopSink,
        }
    }
}

impl<P: Protocol, S: Scheduler, T: Sink> AgentSim<P, S, T> {
    /// Replaces the telemetry sink, rebinding the engine's type. All
    /// simulation state carries over untouched, so attaching telemetry is
    /// RNG-invisible.
    pub fn with_telemetry<T2: Sink>(self, telemetry: T2) -> AgentSim<P, S, T2> {
        AgentSim {
            protocol: self.protocol,
            graph: self.graph,
            scheduler: self.scheduler,
            states: self.states,
            counts: self.counts,
            output_a: self.output_a,
            count_a: self.count_a,
            unanimous: self.unanimous,
            faults: self.faults,
            steps: self.steps,
            events: self.events,
            telemetry,
        }
    }

    /// The attached telemetry sink.
    pub fn telemetry(&self) -> &T {
        &self.telemetry
    }

    /// The interaction graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The scheduler driving pair selection.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// The state of agent `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn state_of(&self, agent: usize) -> StateId {
        self.states.get(agent)
    }

    /// Whether `agent` is currently crashed ([`Fault::Crash`]).
    pub fn is_crashed(&self, agent: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed[agent])
    }

    /// Whether `agent` is currently stuck-at ([`Fault::StickAt`]).
    pub fn is_stuck(&self, agent: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.stuck[agent])
    }

    /// Moves one agent to `to`, maintaining counts / `count_a` /
    /// unanimity exactly like a productive interaction would.
    fn set_agent_state(&mut self, agent: usize, to: StateId) {
        with_cells!(&mut self.states, v => move_agent(
            v,
            &mut self.counts,
            &self.output_a,
            &mut self.count_a,
            &mut self.unanimous,
            agent,
            to,
        ));
    }

    /// Runs [`chunk_loop`] over the agent array at its cell width, with
    /// the fields borrowed split once per chunk.
    fn chunk<F: FaultOverlay>(
        &mut self,
        faults: &F,
        rng: &mut SmallRng,
        stop: StopCondition,
    ) -> StopReason {
        with_cells!(&mut self.states, v => chunk_loop(
            &self.protocol,
            &self.graph,
            &mut self.scheduler,
            faults,
            v,
            &mut self.counts,
            &self.output_a,
            &mut self.count_a,
            &mut self.unanimous,
            &mut self.steps,
            &mut self.events,
            rng,
            stop,
        ))
    }

    fn check_agent(&self, agent: usize) -> Result<(), FaultError> {
        if agent < self.states.len() {
            Ok(())
        } else {
            Err(FaultError::OutOfRange {
                detail: format!("agent {agent} of {}", self.states.len()),
            })
        }
    }

    /// Sets a per-agent fault flag; returns 1 if it changed, 0 if it was
    /// already at `value`.
    fn set_flag(&mut self, agent: usize, stuck_flag: bool, value: bool) -> u64 {
        let n = self.states.len();
        let overlay = self
            .faults
            .get_or_insert_with(|| Box::new(AgentFaults::new(n)));
        let slot = if stuck_flag {
            &mut overlay.stuck[agent]
        } else {
            &mut overlay.crashed[agent]
        };
        if *slot == value {
            0
        } else {
            *slot = value;
            1
        }
    }
}

impl<P: Protocol, S: Scheduler, T: Sink> Simulator for AgentSim<P, S, T> {
    fn population(&self) -> u64 {
        self.states.len() as u64
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
        // On a clique, silence is exactly a property of the count multiset.
        // On a general graph this check is sound but incomplete: if no
        // species pair is productive then certainly no edge is, but a
        // configuration whose only productive species pairs sit on
        // non-adjacent agents is silent yet reported as live. The run loop
        // still terminates in that case via its step bound.
        self.protocol.config_silent(&self.counts)
    }

    fn inject(&mut self, fault: Fault) -> Result<u64, FaultError> {
        let s = self.protocol.num_states();
        let applied = match fault {
            Fault::Corrupt { from, to, agents } => {
                if !corrupt_moves(from, to, s)? {
                    return Ok(0);
                }
                // Move the first `agents` agents (by index) found in
                // `from`: a deterministic choice, so faulted runs replay
                // bit-identically.
                let mut moved = 0u64;
                for agent in 0..self.states.len() {
                    if moved == agents {
                        break;
                    }
                    if self.states.get(agent) == from {
                        self.set_agent_state(agent, to);
                        moved += 1;
                    }
                }
                Ok(moved)
            }
            Fault::BitFlip { agent, bit } => {
                self.check_agent(agent)?;
                if bit >= 32 {
                    return Err(FaultError::OutOfRange {
                        detail: format!("bit {bit} of a 32-bit state id"),
                    });
                }
                let flipped = self.states.get(agent) ^ (1u32 << bit);
                if flipped >= s {
                    // Flips that leave the state space are dropped, like
                    // registers range-checked on read.
                    Ok(0)
                } else {
                    self.set_agent_state(agent, flipped);
                    Ok(1)
                }
            }
            Fault::Crash { agent } => {
                self.check_agent(agent)?;
                Ok(self.set_flag(agent, false, true))
            }
            Fault::Revive { agent } => {
                self.check_agent(agent)?;
                Ok(self.set_flag(agent, false, false))
            }
            Fault::StickAt { agent } => {
                self.check_agent(agent)?;
                Ok(self.set_flag(agent, true, true))
            }
            Fault::Unstick { agent } => {
                self.check_agent(agent)?;
                Ok(self.set_flag(agent, true, false))
            }
        };
        if let Ok(n) = applied {
            if n > 0 {
                self.telemetry.on_fault();
            }
        }
        applied
    }

    fn reset(&mut self, config: &Config) {
        assert_eq!(
            config.num_states(),
            self.protocol.num_states(),
            "configuration does not match protocol state space"
        );
        // Agents have identity here (graph vertices), so the population is
        // part of the engine's shape and must not change across trials.
        assert_eq!(
            config.population() as usize,
            self.states.len(),
            "reset must keep the population (the graph is fixed)"
        );
        self.states.refill_in_state_order(config);
        self.counts.copy_from_slice(config.as_slice());
        (self.count_a, self.unanimous) = tally(&self.counts, &self.output_a, config.population());
        // A fresh engine holds no fault overlay; dropping one restores the
        // fault-free hot loop (and its exact RNG consumption).
        self.faults = None;
        self.scheduler.reset();
        self.steps = 0;
        self.events = 0;
    }

    fn advance_chunk(&mut self, rng: &mut SmallRng, stop: StopCondition) -> AdvanceReport {
        let (steps0, events0) = (self.steps, self.events);
        let faults = self.faults.take();
        let reason = match faults.as_deref() {
            None => self.chunk(&NoFaults, rng, stop),
            Some(faults) => self.chunk(faults, rng, stop),
        };
        self.faults = faults;
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
    use crate::spec::Verdict;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn voter_reaches_consensus_on_clique() {
        let config = Config::from_input(&Voter, 30, 10);
        let mut sim = AgentSim::on_clique(Voter, config);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = sim.run_to_consensus(&mut rng, 10_000_000);
        assert!(out.verdict.is_consensus());
        assert_eq!(out.steps, sim.steps());
        // All agents in one state.
        assert!(sim.unanimous_state().is_some());
    }

    #[test]
    fn annihilate_preserves_population_and_reaches_silence() {
        let config = Config::from_input(&Annihilate, 6, 4);
        let mut sim = AgentSim::on_clique(Annihilate, config);
        let mut rng = SmallRng::seed_from_u64(2);
        let out =
            sim.run_to_consensus_with(&mut rng, 10_000_000, crate::spec::ConvergenceRule::Silence);
        // 4 annihilations leave 2 in +1 and 8 dead; all output A.
        assert_eq!(out.verdict, Verdict::Consensus(Opinion::A));
        assert_eq!(sim.counts(), &[2, 0, 8]);
        assert_eq!(sim.population(), 10);
    }

    #[test]
    fn counts_track_states() {
        let config = Config::from_input(&Voter, 3, 2);
        let mut sim = AgentSim::on_clique(Voter, config);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            sim.advance(&mut rng);
            let mut recount = vec![0u64; 2];
            for agent in 0..5 {
                recount[sim.state_of(agent) as usize] += 1;
            }
            assert_eq!(sim.counts(), recount.as_slice());
            assert_eq!(sim.count_a(), recount[0]);
        }
    }

    #[test]
    fn consensus_on_cycle_matches_clique_semantics() {
        let config = Config::from_input(&Voter, 9, 0);
        let mut sim = AgentSim::new(Voter, config, Graph::cycle(9));
        let mut rng = SmallRng::seed_from_u64(4);
        // Already unanimous: converges without any step.
        let out = sim.run_to_consensus(&mut rng, 10);
        assert_eq!(out.steps, 0);
        assert_eq!(out.verdict, Verdict::Consensus(Opinion::A));
    }

    #[test]
    fn max_steps_is_respected() {
        let config = Config::from_input(&Voter, 500, 500);
        let mut sim = AgentSim::on_clique(Voter, config);
        let mut rng = SmallRng::seed_from_u64(5);
        let out = sim.run_to_consensus(&mut rng, 50);
        assert!(matches!(
            out.verdict,
            Verdict::MaxSteps | Verdict::Consensus(_)
        ));
        if out.verdict == Verdict::MaxSteps {
            assert!(out.steps >= 50);
        }
    }

    #[test]
    #[should_panic(expected = "graph size")]
    fn rejects_mismatched_graph() {
        let config = Config::from_input(&Voter, 3, 2);
        let _ = AgentSim::new(Voter, config, Graph::clique(4));
    }

    #[test]
    fn parallel_time_is_steps_over_population() {
        let config = Config::from_input(&Voter, 20, 1);
        let mut sim = AgentSim::on_clique(Voter, config);
        let mut rng = SmallRng::seed_from_u64(6);
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!((out.parallel_time - out.steps as f64 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_uniform_scheduler_is_bit_identical_to_default() {
        let mk_default = || AgentSim::on_clique(Voter, Config::from_input(&Voter, 18, 13));
        let mk_explicit = || {
            AgentSim::with_scheduler(
                Voter,
                Config::from_input(&Voter, 18, 13),
                Graph::clique(31),
                Uniform,
            )
        };
        for seed in 0..5u64 {
            let (mut a, mut b) = (mk_default(), mk_explicit());
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            let out_a = a.run_to_consensus(&mut rng_a, u64::MAX);
            let out_b = b.run_to_consensus(&mut rng_b, u64::MAX);
            assert_eq!(out_a, out_b);
            assert_eq!(a.counts(), b.counts());
            // Both RNGs are at the same stream position afterwards.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    #[test]
    fn crashed_pair_steps_are_burned() {
        let config = Config::from_input(&Voter, 1, 1);
        let mut sim = AgentSim::on_clique(Voter, config);
        // n = 2: every step schedules the pair (0,1); crashing agent 1
        // freezes the run entirely.
        assert_eq!(sim.inject(Fault::Crash { agent: 1 }), Ok(1));
        assert_eq!(sim.inject(Fault::Crash { agent: 1 }), Ok(0));
        let mut rng = SmallRng::seed_from_u64(7);
        let before = sim.counts().to_vec();
        for _ in 0..50 {
            sim.advance(&mut rng);
        }
        assert_eq!(sim.counts(), before.as_slice());
        assert_eq!(sim.steps(), 50);
        assert_eq!(sim.events(), 0);
        // Revive and the dynamics resume.
        assert_eq!(sim.inject(Fault::Revive { agent: 1 }), Ok(1));
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
    }

    #[test]
    fn stuck_agent_keeps_its_state_but_partners_update() {
        let config = Config::from_input(&Voter, 1, 1);
        let mut sim = AgentSim::on_clique(Voter, config);
        // Agent 0 holds A (state 0), agent 1 holds B and is stuck: when it
        // initiates, agent 0 adopts B as usual, but when agent 0 initiates
        // the stuck agent never adopts A.
        assert_eq!(sim.inject(Fault::StickAt { agent: 1 }), Ok(1));
        let mut rng = SmallRng::seed_from_u64(8);
        let out = sim.run_to_consensus(&mut rng, 10_000);
        // Consensus can only be on B: agent 1 is permanently B, and agent 0
        // eventually adopts it.
        assert_eq!(out.verdict, Verdict::Consensus(Opinion::B));
        assert_eq!(sim.state_of(1), 1);
    }

    #[test]
    fn corrupt_moves_and_clamps() {
        let config = Config::from_input(&Voter, 6, 4);
        let mut sim = AgentSim::on_clique(Voter, config);
        assert_eq!(
            sim.inject(Fault::Corrupt {
                from: 0,
                to: 1,
                agents: 99
            }),
            Ok(6)
        );
        assert_eq!(sim.counts(), &[0, 10]);
        assert_eq!(sim.count_a(), 0);
        assert_eq!(sim.unanimous_state(), Some(1));
        assert!(matches!(
            sim.inject(Fault::Corrupt {
                from: 5,
                to: 0,
                agents: 1
            }),
            Err(FaultError::OutOfRange { .. })
        ));
    }

    #[test]
    fn bitflip_is_range_checked() {
        let config = Config::from_input(&Annihilate, 2, 1);
        let mut sim = AgentSim::on_clique(Annihilate, config);
        // Annihilate has 3 states; agent 0 holds state 0; flipping bit 0
        // moves it to state 1, flipping bit 1 would reach state 2 (valid),
        // but on state 1 flipping bit 1 reaches 3 — out of space, no-op.
        assert_eq!(sim.inject(Fault::BitFlip { agent: 0, bit: 0 }), Ok(1));
        assert_eq!(sim.state_of(0), 1);
        assert_eq!(sim.inject(Fault::BitFlip { agent: 0, bit: 1 }), Ok(0));
        assert_eq!(sim.state_of(0), 1);
        assert!(sim.inject(Fault::BitFlip { agent: 9, bit: 0 }).is_err());
        assert!(sim.inject(Fault::BitFlip { agent: 0, bit: 32 }).is_err());
    }
}
