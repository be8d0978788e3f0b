//! The shared run driver: one loop that owns convergence-rule evaluation
//! and feeds pluggable observers, over any engine's
//! [`Simulator::advance_chunk`].
//!
//! Every consumer of a simulation — consensus runs, trace recording,
//! dynamics snapshots, store sweeps — used to carry its own stepping loop.
//! The [`Driver`] replaces them all: it translates a [`ConvergenceRule`]
//! into an inline-checkable [`StopCondition`], slices the run into chunks
//! bounded by the next *checkpoint* (observer sample, silence check, or
//! step budget), and lets the engine burn through each chunk in its own
//! tight loop. Between chunks it evaluates the rule, notifies the
//! [`Observer`], and decides the [`Verdict`]. The engine may be concrete or
//! a `dyn Simulator`; either way the driver makes one `advance_chunk` call
//! per chunk.
//!
//! # Cadence guarantees
//!
//! * An observer with `cadence() == Some(c)` sees the configuration at the
//!   run's entry step, then at the first step `≥` each subsequent multiple
//!   of `c` (engines that batch steps may land past the boundary; the
//!   observer sees the first reachable configuration at or after it), and
//!   finally at the terminal step via [`DriverEvent::Finished`].
//! * Under [`ConvergenceRule::Silence`] the (expensive) `config_is_silent`
//!   check runs at the driver's silence cadence — population size `n` by
//!   default, overridable via [`Driver::check_silence_every`].
//!
//! # Why RNG order is preserved
//!
//! Checkpoints only ever *shorten* a chunk's step budget; they never draw
//! randomness and never reorder the engine's draws. Each engine's chunk
//! loop consumes the RNG identically however a run is split into chunks
//! (pinned by `tests/advance_upto_equivalence.rs`), so trajectories are
//! bit-identical for every chunking, observer cadence, and dispatch path.

use crate::engine::{silent_verdict, AdvanceReport, Simulator, StopCondition, StopReason};
use crate::faults::{Fault, FaultPlan};
use crate::protocol::{Opinion, StateId};
use crate::spec::{ConvergenceRule, RunOutcome, Verdict};
use rand::rngs::SmallRng;

/// A cheap borrowed summary of a simulation's observable state, passed to
/// [`Observer`] callbacks.
///
/// Carrying the fields (rather than `&dyn Simulator`) keeps observer
/// notification free of dispatch and lets the driver stay generic over
/// unsized engine types.
#[derive(Debug, Clone, Copy)]
pub struct SimView<'a> {
    /// Number of agents `n`.
    pub population: u64,
    /// Total scheduler steps elapsed.
    pub steps: u64,
    /// Total productive interactions executed.
    pub events: u64,
    /// Agents whose output is [`Opinion::A`].
    pub count_a: u64,
    /// Species counts, indexed by state.
    pub counts: &'a [u64],
    /// The state all agents share, if unanimous.
    pub unanimous_state: Option<StateId>,
}

impl<'a> SimView<'a> {
    /// Snapshots `sim`.
    pub fn of<S: Simulator + ?Sized>(sim: &'a S) -> SimView<'a> {
        SimView {
            population: sim.population(),
            steps: sim.steps(),
            events: sim.events(),
            count_a: sim.count_a(),
            counts: sim.counts(),
            unanimous_state: sim.unanimous_state(),
        }
    }

    /// `steps / n`.
    #[must_use]
    pub fn parallel_time(&self) -> f64 {
        crate::time::parallel_time(self.steps, self.population)
    }
}

/// Lifecycle notifications a [`Driver`] sends its [`Observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverEvent {
    /// The run is about to start; the view shows the entry configuration.
    Started,
    /// The run ended with this verdict; the view shows the terminal
    /// configuration.
    Finished(Verdict),
    /// A fault from the run's [`FaultPlan`] was just injected; the view
    /// shows the post-injection configuration.
    Fault(Fault),
}

/// A pluggable consumer of driver progress.
///
/// All methods have no-op defaults; implement only what you need. See the
/// module docs for the cadence guarantees.
pub trait Observer {
    /// Requested sampling cadence in scheduler steps, if any.
    ///
    /// Returning `Some(c)` makes the driver end a chunk at (the first
    /// reachable step at or after) every `c` steps, so `on_chunk` is called
    /// there. Returning `None` lets chunks run to the next rule checkpoint.
    fn cadence(&self) -> Option<u64> {
        None
    }

    /// Called after every chunk with the post-chunk view and the chunk's
    /// [`AdvanceReport`].
    fn on_chunk(&mut self, _view: &SimView<'_>, _report: &AdvanceReport) {}

    /// Called at run start and end.
    fn on_event(&mut self, _view: &SimView<'_>, _event: &DriverEvent) {}
}

/// The do-nothing observer: chunks are bounded only by rule checkpoints.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Runs a simulation to a [`Verdict`] under a [`ConvergenceRule`].
///
/// Construct with [`Driver::new`], configure with the builder methods, then
/// call [`Driver::run`] (or [`Driver::run_faulted`] with a fault plan).
#[derive(Debug, Clone, Copy)]
pub struct Driver {
    rule: ConvergenceRule,
    max_steps: u64,
    silence_check_every: Option<u64>,
}

impl Driver {
    /// A driver for `rule` with an unlimited step budget and the default
    /// silence-check cadence (population size).
    #[must_use]
    pub fn new(rule: ConvergenceRule) -> Driver {
        Driver {
            rule,
            max_steps: u64::MAX,
            silence_check_every: None,
        }
    }

    /// Caps the run at `max_steps` scheduler steps (verdict
    /// [`Verdict::MaxSteps`] once `steps ≥ max_steps`; batching engines may
    /// overshoot within a batch, and the outcome reports true steps).
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Driver {
        self.max_steps = max_steps;
        self
    }

    /// Sets the cadence (in steps) of the explicit `config_is_silent`
    /// check used under [`ConvergenceRule::Silence`]. Default: `n`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    #[must_use]
    pub fn check_silence_every(mut self, steps: u64) -> Driver {
        assert!(steps > 0, "silence-check cadence must be positive");
        self.silence_check_every = Some(steps);
        self
    }

    /// Runs `sim` to a verdict: one [`Simulator::advance_chunk`] call per
    /// chunk, so a `dyn Simulator` costs one virtual call per chunk and the
    /// RNG stream is the same as a concrete engine's.
    pub fn run<S, O>(&self, sim: &mut S, rng: &mut SmallRng, observer: &mut O) -> RunOutcome
    where
        S: Simulator + ?Sized,
        O: Observer + ?Sized,
    {
        self.drive(sim, rng, observer, None)
    }

    /// As [`Driver::run`], injecting the faults of `faults` as the run
    /// crosses their scheduled steps.
    ///
    /// Each fault fires at the first *reachable* step at or after its
    /// `at_step` (chunks are cut at pending fault steps, so non-batching
    /// engines land exactly; batching engines may overshoot like they do
    /// observer cadences), *before* the convergence rule is evaluated at
    /// that step. The observer sees every injection as a
    /// [`DriverEvent::Fault`]. Injection draws no randomness, so the RNG
    /// stream is identical to a fault-free run of the same length. An
    /// empty plan makes this exactly [`Driver::run`].
    ///
    /// A run that ends (verdict reached, or a batching engine reports the
    /// configuration silent) before a scheduled fault's step never applies
    /// that fault; [`FaultPlan::remaining`] exposes how many were left.
    ///
    /// # Panics
    ///
    /// Panics if the engine rejects a fault
    /// (see [`Simulator::inject`]) — a mis-specified stress scenario is a
    /// programming error, not a run outcome.
    pub fn run_faulted<S, O>(
        &self,
        sim: &mut S,
        rng: &mut SmallRng,
        observer: &mut O,
        faults: &mut FaultPlan,
    ) -> RunOutcome
    where
        S: Simulator + ?Sized,
        O: Observer + ?Sized,
    {
        self.drive(sim, rng, observer, Some(faults))
    }

    /// Forwards to [`Driver::run`]. Part of the surface the end-to-end
    /// benchmark under `sweep_bench/` calls; new code calls `run`.
    pub fn run_erased<O>(
        &self,
        sim: &mut dyn Simulator,
        rng: &mut SmallRng,
        observer: &mut O,
    ) -> RunOutcome
    where
        O: Observer + ?Sized,
    {
        self.run(sim, rng, observer)
    }

    /// Forwards to [`Driver::run_faulted`]. Part of the surface the
    /// end-to-end benchmark under `sweep_bench/` calls; new code calls
    /// `run_faulted`.
    ///
    /// # Panics
    ///
    /// As [`Driver::run_faulted`].
    pub fn run_faulted_erased<O>(
        &self,
        sim: &mut dyn Simulator,
        rng: &mut SmallRng,
        observer: &mut O,
        faults: &mut FaultPlan,
    ) -> RunOutcome
    where
        O: Observer + ?Sized,
    {
        self.run_faulted(sim, rng, observer, faults)
    }

    /// The single driver loop [`Driver::run`] and [`Driver::run_faulted`]
    /// share.
    fn drive<S, O>(
        &self,
        sim: &mut S,
        rng: &mut SmallRng,
        observer: &mut O,
        mut faults: Option<&mut FaultPlan>,
    ) -> RunOutcome
    where
        S: Simulator + ?Sized,
        O: Observer + ?Sized,
    {
        let n = sim.population();
        let stop = StopCondition::for_rule(self.rule, n);
        observer.on_event(&SimView::of(sim), &DriverEvent::Started);

        let cadence = observer.cadence();
        if let Some(c) = cadence {
            assert!(c > 0, "observer cadence must be positive");
        }
        let mut next_sample = cadence.map_or(u64::MAX, |c| sim.steps().saturating_add(c));
        let silence_every = match self.rule {
            ConvergenceRule::Silence => Some(self.silence_check_every.unwrap_or(n).max(1)),
            _ => None,
        };
        let mut next_silence = silence_every.map_or(u64::MAX, |_| sim.steps());
        let mut next_fault = faults
            .as_deref()
            .and_then(FaultPlan::next_step)
            .unwrap_or(u64::MAX);

        let verdict = loop {
            // Due faults fire before the rule is evaluated at this step,
            // so a fault at the run's entry step perturbs the start state.
            if sim.steps() >= next_fault {
                let plan = faults
                    .as_deref_mut()
                    .expect("finite next_fault implies a plan");
                for event in plan.take_due(sim.steps()) {
                    match sim.inject(event.fault) {
                        Ok(_) => {
                            observer.on_event(&SimView::of(sim), &DriverEvent::Fault(event.fault));
                        }
                        Err(e) => panic!("fault injection failed at step {}: {e}", sim.steps()),
                    }
                }
                next_fault = plan.next_step().unwrap_or(u64::MAX);
            }
            if let Some(every) = silence_every {
                if sim.steps() >= next_silence {
                    if sim.config_is_silent() {
                        break silent_verdict(sim, n);
                    }
                    next_silence = sim.steps().saturating_add(every);
                }
            }
            if stop.predicate_hit(sim.count_a(), sim.unanimous_state().is_some()) {
                break self.rule_verdict(sim, n);
            }
            if sim.steps() >= self.max_steps {
                break Verdict::MaxSteps;
            }
            let target = self
                .max_steps
                .min(next_sample)
                .min(next_silence)
                .min(next_fault);
            let report = sim.advance_chunk(rng, stop.with_max_steps(target));
            observer.on_chunk(&SimView::of(sim), &report);
            if sim.steps() >= next_sample {
                next_sample = sim
                    .steps()
                    .saturating_add(cadence.expect("finite next_sample implies a cadence"));
            }
            match report.reason {
                StopReason::Predicate => break self.rule_verdict(sim, n),
                StopReason::Silent => {
                    break match self.rule {
                        ConvergenceRule::Silence => silent_verdict(sim, n),
                        // The rule was checked before the chunk and did not
                        // hold, and it never will: the configuration can no
                        // longer change.
                        _ => Verdict::Stuck,
                    };
                }
                // A checkpoint, not necessarily the global budget: loop back
                // to re-evaluate the rule / silence / sampling state.
                StopReason::StepBudget => {}
            }
        };
        observer.on_event(&SimView::of(sim), &DriverEvent::Finished(verdict));
        RunOutcome {
            steps: sim.steps(),
            parallel_time: crate::time::parallel_time(sim.steps(), n),
            verdict,
        }
    }

    /// The verdict once the rule's [`StopCondition`] predicate holds.
    fn rule_verdict<S: Simulator + ?Sized>(&self, sim: &S, n: u64) -> Verdict {
        match self.rule {
            ConvergenceRule::OutputConsensus => {
                if sim.count_a() == n {
                    Verdict::Consensus(Opinion::A)
                } else {
                    Verdict::Consensus(Opinion::B)
                }
            }
            ConvergenceRule::StateConsensus => {
                let state = sim
                    .unanimous_state()
                    .expect("unanimity predicate hit without a unanimous state");
                Verdict::Consensus(sim.state_output(state))
            }
            ConvergenceRule::OutputCount { opinion, .. } => Verdict::Consensus(opinion),
            // Silence has no predicate; it resolves via the silence
            // checkpoint, never here.
            ConvergenceRule::Silence => silent_verdict(sim, n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::{CountSim, JumpSim};
    use crate::protocol::tests_support::{Annihilate, Voter};
    use rand::SeedableRng;

    /// Records every callback for assertion.
    #[derive(Default)]
    struct Log {
        cadence: Option<u64>,
        chunk_steps: Vec<u64>,
        events: Vec<(u64, DriverEvent)>,
    }

    impl Observer for Log {
        fn cadence(&self) -> Option<u64> {
            self.cadence
        }
        fn on_chunk(&mut self, view: &SimView<'_>, _report: &AdvanceReport) {
            self.chunk_steps.push(view.steps);
        }
        fn on_event(&mut self, view: &SimView<'_>, event: &DriverEvent) {
            self.events.push((view.steps, *event));
        }
    }

    #[test]
    fn observer_sees_start_finish_and_cadenced_chunks() {
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 40, 40));
        let mut rng = SmallRng::seed_from_u64(9);
        let mut log = Log {
            cadence: Some(10),
            ..Log::default()
        };
        let out = Driver::new(ConvergenceRule::OutputConsensus)
            .with_max_steps(35)
            .run(&mut sim, &mut rng, &mut log);
        assert_eq!(log.events.first(), Some(&(0, DriverEvent::Started)));
        assert_eq!(
            log.events.last(),
            Some(&(out.steps, DriverEvent::Finished(out.verdict)))
        );
        // CountSim lands exactly on each 10-step boundary, then the budget.
        assert_eq!(log.chunk_steps, vec![10, 20, 30, 35]);
        assert_eq!(out.verdict, Verdict::MaxSteps);
    }

    #[test]
    fn silence_cadence_is_respected() {
        // Annihilate reaches silence; the default cadence (n) must find it.
        let mut sim = JumpSim::new(Annihilate, Config::from_input(&Annihilate, 9, 7));
        let mut rng = SmallRng::seed_from_u64(3);
        let out = Driver::new(ConvergenceRule::Silence).run(&mut sim, &mut rng, &mut NullObserver);
        assert_eq!(out.verdict, Verdict::Consensus(Opinion::A));
        assert!(sim.config_is_silent());
    }

    #[test]
    fn unsatisfiable_output_count_hits_the_budget() {
        // Demanding more B agents than exist must not underflow or stop
        // early — the run exhausts its budget (or dies silent).
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 6, 4));
        let mut rng = SmallRng::seed_from_u64(1);
        let out = Driver::new(ConvergenceRule::OutputCount {
            opinion: Opinion::B,
            count: 99,
        })
        .with_max_steps(50)
        .run(&mut sim, &mut rng, &mut NullObserver);
        assert_eq!(out.verdict, Verdict::MaxSteps);
    }
}
