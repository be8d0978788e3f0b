//! Adaptive engine: starts as [`CountSim`], switches to [`JumpSim`] once
//! silent steps dominate.

use crate::config::Config;
use crate::engine::{AdvanceReport, CountSim, JumpSim, Simulator, StopCondition, StopReason};
use crate::faults::{Fault, FaultError};
use crate::protocol::{Opinion, Protocol, StateId};
use avc_telemetry::{CountingSink, NoopSink, Sink};
use rand::rngs::SmallRng;

/// Window length over which the productive fraction is estimated.
const WINDOW: u64 = 4_096;
/// Switch to [`JumpSim`] once fewer than `WINDOW / SWITCH_DIVISOR`
/// interactions in a window were productive.
const SWITCH_DIVISOR: u64 = 16;

/// A one-way adaptive engine.
///
/// For protocols with many states, the early dynamics are dense — nearly
/// every interaction is productive — so stepping every interaction with
/// [`CountSim`] is optimal. The late dynamics are sparse: the bulk of
/// steps are silent, which is exactly where [`JumpSim`] shines (its
/// per-*event* cost pays off once events are rare). `AdaptiveSim` runs
/// `CountSim` until the productive fraction over a step window drops below
/// `1/16`, then transplants the configuration into a `JumpSim` and
/// continues there.
///
/// The switch does not perturb the trajectory distribution: both engines
/// simulate the same chain, and the handoff copies the exact configuration.
///
/// # Example
///
/// ```
/// use avc_population::engine::{AdaptiveSim, Simulator};
/// use avc_population::protocol::tests_support::Voter;
/// use avc_population::Config;
/// use rand::SeedableRng;
///
/// let mut sim = AdaptiveSim::new(Voter, Config::from_input(&Voter, 500, 100));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
/// assert!(sim.run_to_consensus(&mut rng, u64::MAX).verdict.is_consensus());
/// ```
/// The `T` parameter is the telemetry [`Sink`] seam (see
/// [`CountSim`] for the contract). The sink lives on the adaptive wrapper —
/// the inner engines keep the no-op default — so chunk deltas and the
/// dense→sparse [`Sink::on_phase_switch`] event are recorded at the level
/// that sees both phases.
#[derive(Debug)]
pub struct AdaptiveSim<P: Protocol + Clone, T = NoopSink> {
    dense: CountSim<P>,
    /// Allocated at the first dense→sparse switch and retained across
    /// [`Simulator::reset`]; later switches refill it in place from the
    /// dense counts, so reused trial batches switch phases without
    /// allocating. Stale (ignored) while `in_sparse` is false.
    sparse: Option<JumpSim<P>>,
    in_sparse: bool,
    window_start_steps: u64,
    window_start_events: u64,
    telemetry: T,
}

impl<P: Protocol + Clone> AdaptiveSim<P> {
    /// Creates an engine from an initial configuration.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CountSim::new`].
    pub fn new(protocol: P, config: Config) -> AdaptiveSim<P> {
        AdaptiveSim {
            dense: CountSim::new(protocol, config),
            sparse: None,
            in_sparse: false,
            window_start_steps: 0,
            window_start_events: 0,
            telemetry: NoopSink,
        }
    }
}

impl<P: Protocol + Clone, T: Sink> AdaptiveSim<P, T> {
    /// Replaces the telemetry sink, rebinding the engine's type. All
    /// simulation state carries over untouched, so attaching telemetry is
    /// RNG-invisible.
    pub fn with_telemetry<T2: Sink>(self, telemetry: T2) -> AdaptiveSim<P, T2> {
        AdaptiveSim {
            dense: self.dense,
            sparse: self.sparse,
            in_sparse: self.in_sparse,
            window_start_steps: self.window_start_steps,
            window_start_events: self.window_start_events,
            telemetry,
        }
    }

    /// The attached telemetry sink.
    pub fn telemetry(&self) -> &T {
        &self.telemetry
    }

    /// Whether the engine has switched to the jump-chain phase.
    #[must_use]
    pub fn is_sparse_phase(&self) -> bool {
        self.in_sparse
    }

    fn dispatch(&self) -> &dyn Simulator {
        if self.in_sparse {
            self.sparse.as_ref().expect("in_sparse without a JumpSim")
        } else {
            &self.dense
        }
    }

    fn maybe_switch(&mut self) {
        debug_assert!(!self.in_sparse, "maybe_switch is a dense-phase hook");
        let (steps, events) = (self.dense.steps(), self.dense.events());
        if steps - self.window_start_steps < WINDOW {
            return;
        }
        let productive = events - self.window_start_events;
        self.window_start_steps = steps;
        self.window_start_events = events;
        if productive < WINDOW / SWITCH_DIVISOR {
            let counts = self.dense.counts();
            match &mut self.sparse {
                // A retained JumpSim from an earlier trial, refilled in
                // place: it replays exactly like a fresh build, so the
                // handoff is unchanged and allocates nothing.
                Some(jump) => jump.reset_counts(counts),
                None => {
                    let config = Config::from_counts(counts.to_vec());
                    self.sparse = Some(JumpSim::new(self.dense.protocol().clone(), config));
                }
            }
            let jump = self.sparse.as_mut().expect("just installed");
            jump.set_counters(steps, events);
            self.in_sparse = true;
            self.telemetry.on_phase_switch();
        }
    }
}

impl<P: Protocol + Clone, T: Sink> Simulator for AdaptiveSim<P, T> {
    fn population(&self) -> u64 {
        self.dispatch().population()
    }

    fn steps(&self) -> u64 {
        self.dispatch().steps()
    }

    fn events(&self) -> u64 {
        self.dispatch().events()
    }

    fn counts(&self) -> &[u64] {
        if self.in_sparse {
            self.sparse
                .as_ref()
                .expect("in_sparse without a JumpSim")
                .counts()
        } else {
            self.dense.counts()
        }
    }

    fn count_a(&self) -> u64 {
        self.dispatch().count_a()
    }

    fn unanimous_state(&self) -> Option<StateId> {
        self.dispatch().unanimous_state()
    }

    fn state_output(&self, state: StateId) -> Opinion {
        self.dispatch().state_output(state)
    }

    fn config_is_silent(&self) -> bool {
        self.dispatch().config_is_silent()
    }

    fn inject(&mut self, fault: Fault) -> Result<u64, FaultError> {
        let result = if self.in_sparse {
            self.sparse
                .as_mut()
                .expect("in_sparse without a JumpSim")
                .inject(fault)
        } else {
            self.dense.inject(fault)
        };
        if let Ok(n) = result {
            if n > 0 {
                self.telemetry.on_fault();
            }
        }
        // Report the outer engine's name, not the current phase's.
        result.map_err(|e| match e {
            FaultError::Unsupported { fault, .. } => FaultError::Unsupported {
                engine: "AdaptiveSim",
                fault,
            },
            other => other,
        })
    }

    fn advance_chunk(&mut self, rng: &mut SmallRng, stop: StopCondition) -> AdvanceReport {
        let (steps0, events0) = (self.steps(), self.events());
        // Dense chunks are additionally bounded by the next window boundary
        // so the productive-fraction estimate is evaluated at exactly the
        // steps the per-step path would evaluate it (the handoff consumes
        // no randomness, so the trajectory is unaffected either way).
        let reason = loop {
            if self.in_sparse {
                let sim = self.sparse.as_mut().expect("in_sparse without a JumpSim");
                break sim.advance_chunk(rng, stop).reason;
            }
            let window_end = self.window_start_steps.saturating_add(WINDOW);
            let budget = stop.max_steps.min(window_end);
            let reason = self
                .dense
                .advance_chunk(rng, stop.with_max_steps(budget))
                .reason;
            match reason {
                StopReason::StepBudget => {
                    self.maybe_switch();
                    if self.steps() >= stop.max_steps {
                        break StopReason::StepBudget;
                    }
                }
                other => break other,
            }
        };
        let report = AdvanceReport {
            steps: self.steps() - steps0,
            events: self.events() - events0,
            reason,
        };
        self.telemetry.on_chunk(report.steps, report.events);
        report
    }

    fn reset(&mut self, config: &Config) {
        self.dense.reset(config);
        // The retained sparse engine (if any) stays allocated but ignored
        // until the next dense→sparse switch refills it from the live
        // counts.
        self.in_sparse = false;
        self.window_start_steps = 0;
        self.window_start_events = 0;
    }

    fn sink_counts(&self) -> Option<&CountingSink> {
        self.telemetry.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests_support::{Annihilate, Voter};
    use rand::SeedableRng;

    #[test]
    fn switches_on_sparse_dynamics() {
        // Annihilation with a huge imbalance is quiet from the start: only
        // 50 of 5050 agents can ever react, so the productive fraction is
        // ≈2% and the engine must switch within the first window.
        let config = Config::from_input(&Annihilate, 5_000, 50);
        let mut sim = AdaptiveSim::new(Annihilate, config);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
        assert!(sim.is_sparse_phase(), "expected a switch to JumpSim");
        // Counters carried over the handoff.
        assert_eq!(out.steps, sim.steps());
        assert!(sim.events() <= sim.steps());
    }

    #[test]
    fn stays_dense_on_dense_dynamics() {
        // The voter model on a balanced small instance is productive roughly
        // half the time; no switch should occur before consensus.
        let config = Config::from_input(&Voter, 60, 60);
        let mut sim = AdaptiveSim::new(Voter, config);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = sim.run_to_consensus(&mut rng, u64::MAX);
        assert!(out.verdict.is_consensus());
    }

    #[test]
    fn trait_accessors_delegate() {
        let config = Config::from_input(&Voter, 3, 2);
        let sim = AdaptiveSim::new(Voter, config);
        assert_eq!(sim.population(), 5);
        assert_eq!(sim.count_a(), 3);
        assert_eq!(sim.counts(), &[3, 2]);
        assert_eq!(sim.steps(), 0);
        assert_eq!(sim.unanimous_state(), None);
        assert!(!sim.config_is_silent());
    }
}
