//! Simulation engines.
//!
//! Four engines execute the same discrete-time scheduler (uniform random
//! ordered pair per step) exactly, with different cost models:
//!
//! | Engine | Per-step cost | Sweet spot |
//! |---|---|---|
//! | [`AgentSim`] | `O(1)` | arbitrary interaction graphs, ground truth |
//! | [`CountSim`] | a table load plus `log₂⌈s/256⌉` tree levels per agent, `O(log s)` past 2²⁰ agents | cliques with many states (large-`s` AVC) |
//! | [`JumpSim`]  | `O(live states)` *per productive step* | long runs dominated by silent interactions (small-`s` protocols at small margins) |
//! | [`AdaptiveSim`] | `CountSim`'s, then `JumpSim`'s | whole runs that start dense and end sparse (the default, `auto`) |
//!
//! All engines implement the one object-safe [`Simulator`] trait, whose only
//! kernel is [`Simulator::advance_chunk`] over the workspace's RNG,
//! [`SmallRng`]; single steps ([`Simulator::advance`]) and whole runs
//! ([`Simulator::run_to_consensus`]) are provided on top of it. The
//! engines produce identically-distributed trajectories of the
//! configuration process (tested in `tests/engine_equivalence.rs`).

mod adaptive;
mod agent;
mod count;
mod jump;

pub use adaptive::AdaptiveSim;
pub use agent::AgentSim;
pub use count::CountSim;
pub use jump::JumpSim;

use crate::config::Config;
use crate::faults::{Fault, FaultError};
use crate::protocol::{Opinion, Protocol, StateId};
use crate::spec::{ConvergenceRule, RunOutcome, Verdict};
use avc_telemetry::CountingSink;
use rand::rngs::SmallRng;

/// Inline-checkable stopping rule for a chunked advance.
///
/// A chunk stops at the *first* step where any armed predicate holds
/// (`reason = `[`StopReason::Predicate`]), or — predicates checked first —
/// at the first step where `steps ≥ max_steps`
/// (`reason = `[`StopReason::StepBudget`]). The predicates are the
/// count-space projections of the [`ConvergenceRule`] variants
/// (see [`StopCondition::for_rule`]):
///
/// * `a_le` / `a_ge` / `a_eq` — thresholds on `count_a` (agents whose
///   output is [`Opinion::A`]);
/// * `unanimity` — all agents share one *state* (not just one output).
///
/// Engines evaluate these inline in their monomorphized loops — no dyn
/// dispatch, no RNG consumption — so stopping at the exact boundary step is
/// free and trajectories are bit-identical to single-step driving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopCondition {
    /// Stop once `steps ≥ max_steps` (checked *after* the predicates, and
    /// *before* each step — batching engines may still overshoot it within
    /// one batch; see [`Simulator::advance_chunk`]).
    pub max_steps: u64,
    /// Stop when `count_a ≤ a_le`.
    pub a_le: Option<u64>,
    /// Stop when `count_a ≥ a_ge`.
    pub a_ge: Option<u64>,
    /// Stop when `count_a == a_eq`.
    pub a_eq: Option<u64>,
    /// Stop when all agents share one state.
    pub unanimity: bool,
}

impl Default for StopCondition {
    fn default() -> StopCondition {
        StopCondition {
            max_steps: u64::MAX,
            a_le: None,
            a_ge: None,
            a_eq: None,
            unanimity: false,
        }
    }
}

impl StopCondition {
    /// A condition with no predicates and no step budget (never stops).
    #[must_use]
    pub fn never() -> StopCondition {
        StopCondition::default()
    }

    /// Replaces the step budget.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> StopCondition {
        self.max_steps = max_steps;
        self
    }

    /// Arms the `count_a ≤ lo` predicate.
    #[must_use]
    pub fn when_a_at_most(mut self, lo: u64) -> StopCondition {
        self.a_le = Some(lo);
        self
    }

    /// Arms the `count_a ≥ hi` predicate.
    #[must_use]
    pub fn when_a_at_least(mut self, hi: u64) -> StopCondition {
        self.a_ge = Some(hi);
        self
    }

    /// Arms the `count_a == c` predicate.
    #[must_use]
    pub fn when_a_exactly(mut self, c: u64) -> StopCondition {
        self.a_eq = Some(c);
        self
    }

    /// Arms the state-unanimity predicate.
    #[must_use]
    pub fn when_unanimous(mut self) -> StopCondition {
        self.unanimity = true;
        self
    }

    /// The predicates under which `rule` first holds, for population `n`
    /// (no step budget).
    ///
    /// [`ConvergenceRule::Silence`] has no count-space predicate — the
    /// driver checks `config_is_silent` at its own cadence instead.
    /// An unsatisfiable [`ConvergenceRule::OutputCount`] (more agents
    /// demanded than exist) arms nothing.
    #[must_use]
    pub fn for_rule(rule: ConvergenceRule, n: u64) -> StopCondition {
        let cond = StopCondition::never();
        match rule {
            ConvergenceRule::OutputConsensus => cond.when_a_at_most(0).when_a_at_least(n),
            ConvergenceRule::StateConsensus => cond.when_unanimous(),
            ConvergenceRule::Silence => cond,
            ConvergenceRule::OutputCount { opinion, count } => {
                let target = match opinion {
                    Opinion::A => Some(count),
                    Opinion::B => n.checked_sub(count),
                };
                match target {
                    Some(c) => cond.when_a_exactly(c),
                    None => cond,
                }
            }
        }
    }

    /// Whether any armed predicate holds for the given configuration
    /// summary. Cheap enough for per-step use in tight loops.
    #[inline]
    #[must_use]
    pub fn predicate_hit(&self, count_a: u64, unanimous: bool) -> bool {
        (self.unanimity && unanimous)
            || self.a_le.is_some_and(|lo| count_a <= lo)
            || self.a_ge.is_some_and(|hi| count_a >= hi)
            || self.a_eq.is_some_and(|c| count_a == c)
    }
}

/// Why a chunked advance returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A [`StopCondition`] predicate holds (checked before the budget).
    Predicate,
    /// `steps ≥ max_steps` (batching engines may have overshot the budget
    /// within their final batch; the report still counts true steps).
    StepBudget,
    /// The configuration is silent: no interaction can change it.
    Silent,
}

/// What one [`Simulator::advance_chunk`] call did.
///
/// Both counters are **deltas** for this call, not totals; totals stay
/// available via [`Simulator::steps`] / [`Simulator::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvanceReport {
    /// Scheduler steps advanced by this call (including skipped silent
    /// steps).
    pub steps: u64,
    /// Productive interactions executed by this call.
    pub events: u64,
    /// Why the chunk stopped.
    pub reason: StopReason,
}

/// Reference loop for [`Simulator::advance_chunk`]: the exact
/// check-then-step order every chunk loop must reproduce, driven one
/// [`Simulator::advance`] at a time.
///
/// Kept public so tests can pin chunk loops against it: split into one-step
/// chunks, a run must pass through the same configurations and consume the
/// RNG identically to one long chunk.
pub fn advance_upto_step_by_step<S: Simulator + ?Sized>(
    sim: &mut S,
    rng: &mut SmallRng,
    stop: StopCondition,
) -> AdvanceReport {
    let (steps0, events0) = (sim.steps(), sim.events());
    let reason = loop {
        if stop.predicate_hit(sim.count_a(), sim.unanimous_state().is_some()) {
            break StopReason::Predicate;
        }
        if sim.steps() >= stop.max_steps {
            break StopReason::StepBudget;
        }
        if sim.advance(rng) == 0 {
            break StopReason::Silent;
        }
    };
    AdvanceReport {
        steps: sim.steps() - steps0,
        events: sim.events() - events0,
        reason,
    }
}

/// A population-protocol simulation in progress.
///
/// The trait is object safe, so heterogeneous engines can be boxed as
/// `Box<dyn Simulator>` (the scenario plane's builder returns one) and
/// driven by the same harness. Its one kernel is
/// [`advance_chunk`](Self::advance_chunk): each engine implements it as a
/// tight loop over the concrete [`SmallRng`], with the RNG draws, predicate
/// checks and bookkeeping inlined, so a boxed engine costs one virtual call
/// per chunk (thousands to millions of steps), not per step.
/// [`advance`](Self::advance) and the `run_to_consensus*` methods are
/// provided on top of it.
pub trait Simulator {
    /// Number of agents `n`.
    fn population(&self) -> u64;

    /// Scheduler steps elapsed so far (including skipped silent steps).
    fn steps(&self) -> u64;

    /// Configuration-changing (productive) interactions executed so far.
    ///
    /// `events() ≤ steps()`; the gap is the work saved by engines that skip
    /// silent steps.
    fn events(&self) -> u64;

    /// Current species counts, indexed by state.
    fn counts(&self) -> &[u64];

    /// Number of agents whose output is [`Opinion::A`].
    fn count_a(&self) -> u64;

    /// The state all agents currently share, if the configuration is
    /// unanimous. Maintained in `O(1)` per step.
    fn unanimous_state(&self) -> Option<StateId>;

    /// Output of the given state under the protocol's `γ`.
    fn state_output(&self, state: StateId) -> Opinion;

    /// Whether no productive ordered pair remains.
    ///
    /// May cost `O(live states²)`; the driver only consults it under
    /// [`ConvergenceRule::Silence`].
    fn config_is_silent(&self) -> bool;

    /// Applies a fault to the current configuration, between steps.
    ///
    /// Returns the number of agents actually affected (`Corrupt` clamps to
    /// the source count; a `BitFlip` leaving the state space, or a `Crash`
    /// of an already-crashed agent, affects zero). Count-space faults
    /// ([`Fault::Corrupt`]) are supported by every engine; agent-addressed
    /// faults need per-agent identity and are only supported by
    /// [`AgentSim`] — other engines return [`FaultError::Unsupported`].
    ///
    /// Injection never draws randomness: the RNG stream of a faulted run
    /// is identical to a fault-free run of the same length.
    ///
    /// # Errors
    ///
    /// [`FaultError::Unsupported`] for fault classes the engine cannot
    /// express; [`FaultError::OutOfRange`] for bad state or agent indices.
    fn inject(&mut self, fault: Fault) -> Result<u64, FaultError>;

    /// Advances repeatedly until `stop` says to stop, checking the
    /// predicates *before* the budget *before* each step.
    ///
    /// Implementations must reproduce the check-then-step order of
    /// [`advance_upto_step_by_step`] and consume the RNG so that any split
    /// of a run into chunks is invisible: the same configurations at every
    /// chunk boundary and the same RNG stream (pinned by
    /// `tests/advance_upto_equivalence.rs`). The run therefore stops at the
    /// exact step a predicate first holds.
    ///
    /// Engines that batch steps ([`JumpSim`], and [`AdaptiveSim`] in its
    /// sparse phase) may overshoot `stop.max_steps` within their final
    /// batch; the report counts the true steps taken either way.
    fn advance_chunk(&mut self, rng: &mut SmallRng, stop: StopCondition) -> AdvanceReport;

    /// Reinitializes the engine in place to the given starting
    /// configuration, reusing every internal allocation.
    ///
    /// This is the trial-batch reuse seam: a worker thread builds one
    /// engine for its whole slice of trials and calls `reset` between
    /// them instead of constructing afresh. The contract is strict
    /// *fresh-equivalence* — after `reset(config)` the engine must be
    /// observationally identical to a newly constructed one over the same
    /// protocol and configuration, including its RNG consumption pattern
    /// (pinned by `tests/reuse_reset.rs`). Trial results therefore cannot
    /// depend on which worker (or which preceding trial) warmed the
    /// engine up. The engines' constructors allocate and then call
    /// `reset`, so the equivalence holds by construction.
    ///
    /// Implementations must not allocate on this path (beyond freeing
    /// state a fresh engine would not hold, e.g. a fault ledger from a
    /// faulted previous trial).
    ///
    /// # Panics
    ///
    /// Panics if `config` is incompatible with the engine's shape: a
    /// different state count, or (for engines with per-agent identity) a
    /// different population size.
    fn reset(&mut self, config: &Config);

    /// The counts of the attached telemetry sink: `Some` for a
    /// [`CountingSink`], owned or lent, `None` for the default
    /// [`NoopSink`](avc_telemetry::NoopSink). [`reset`](Self::reset) leaves
    /// the sink alone, so an owned sink sums every trial the engine runs.
    fn sink_counts(&self) -> Option<&CountingSink>;

    /// Advances the simulation by at least one scheduler step: one
    /// [`advance_chunk`](Self::advance_chunk) with a one-step budget and no
    /// predicates (a batching engine takes one whole batch; the sink
    /// records it as one chunk).
    ///
    /// Returns the number of steps advanced; `0` means the configuration is
    /// silent (terminal) and the simulation cannot progress.
    fn advance(&mut self, rng: &mut SmallRng) -> u64 {
        let stop = StopCondition::never().with_max_steps(self.steps().saturating_add(1));
        self.advance_chunk(rng, stop).steps
    }

    /// Runs until the convergence rule holds or `max_steps` is exceeded.
    ///
    /// Note that engines that skip silent steps in batches may overshoot
    /// `max_steps`; the reported [`RunOutcome::steps`] is always the true
    /// step count at the moment the run stopped.
    ///
    /// Delegates to [`crate::driver::Driver`], which owns the
    /// rule-evaluation loop.
    fn run_to_consensus_with(
        &mut self,
        rng: &mut SmallRng,
        max_steps: u64,
        rule: ConvergenceRule,
    ) -> RunOutcome {
        crate::driver::Driver::new(rule)
            .with_max_steps(max_steps)
            .run(self, rng, &mut crate::driver::NullObserver)
    }

    /// Runs under [`ConvergenceRule::OutputConsensus`] (the paper's
    /// convergence notion for AVC and the four-state protocol).
    fn run_to_consensus(&mut self, rng: &mut SmallRng, max_steps: u64) -> RunOutcome {
        self.run_to_consensus_with(rng, max_steps, ConvergenceRule::OutputConsensus)
    }

    /// Forwards to [`reset`](Self::reset). Part of the surface the
    /// end-to-end benchmark under `sweep_bench/` calls; new code calls
    /// `reset`.
    fn reset_erased(&mut self, config: &Config) {
        self.reset(config);
    }
}

/// The former name of [`Simulator`], kept as part of the surface the
/// end-to-end benchmark under `sweep_bench/` calls; new code names
/// `Simulator`.
pub use self::Simulator as ErasedChunkedSim;

/// Which states output [`Opinion::A`]: the mask an engine builds once, at
/// construction, and tallies every starting configuration against.
fn output_a_mask<P: Protocol>(protocol: &P) -> Vec<bool> {
    (0..protocol.num_states())
        .map(|q| protocol.output(q) == Opinion::A)
        .collect()
}

/// The number of agents whose state `output_a` marks, and the state all
/// `n` agents share, if any: an engine's `count_a` and unanimity for
/// `counts`.
fn tally(counts: &[u64], output_a: &[bool], n: u64) -> (u64, Option<StateId>) {
    let count_a = counts
        .iter()
        .zip(output_a)
        .filter(|(_, &is_a)| is_a)
        .map(|(&c, _)| c)
        .sum();
    let unanimous = counts.iter().position(|&c| c == n).map(|i| i as StateId);
    (count_a, unanimous)
}

/// Checks a [`Fault::Corrupt`] from `from` to `to` against a protocol of
/// `num_states` states: an error if either lies outside it, otherwise
/// whether the fault moves anyone (`from == to` moves no one).
fn corrupt_moves(from: StateId, to: StateId, num_states: u32) -> Result<bool, FaultError> {
    if from >= num_states || to >= num_states {
        return Err(FaultError::OutOfRange {
            detail: format!("corrupt {from}->{to} with only {num_states} protocol states"),
        });
    }
    Ok(from != to)
}

pub(crate) fn silent_verdict<S: Simulator + ?Sized>(sim: &S, n: u64) -> Verdict {
    let a = sim.count_a();
    if a == n {
        Verdict::Consensus(Opinion::A)
    } else if a == 0 {
        Verdict::Consensus(Opinion::B)
    } else {
        Verdict::Stuck
    }
}
