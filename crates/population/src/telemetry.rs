//! Run telemetry: the engines' [`Sink`] seam and a driver-level
//! [`Observer`] that measures chunk latency and
//! convergence.
//!
//! The metric substrate lives in the dependency-free `avc-telemetry` crate
//! and is re-exported here wholesale, so downstream code can write
//! `avc_population::telemetry::CountingSink` without a second dependency.
//! This module adds the one piece that needs driver types:
//! [`TelemetryObserver`], which plugs into [`Driver`](crate::driver::Driver)
//! runs and records per-chunk wall latency (nondeterministic, kept in the
//! `wall` registry) alongside convergence outcomes (deterministic, kept in
//! `sim` — see the `avc_telemetry` crate docs for the split). Chunk sizes
//! and faults are the engine's to count, through its [`CountingSink`].

pub use avc_telemetry::*;

pub use cell::keys;

use crate::driver::{DriverEvent, Observer, SimView};
use crate::engine::AdvanceReport;

/// An [`Observer`] that turns driver progress into telemetry.
///
/// Records, per run:
/// * `sim.convergence_steps` / `sim.trials` / `sim.trials_converged` —
///   convergence outcomes from [`DriverEvent::Finished`];
/// * `wall.chunk_ns` — wall-clock latency between consecutive chunk
///   boundaries.
///
/// The observer draws no randomness and never touches the engine, so
/// attaching it leaves trajectories bit-identical. One observer can span
/// many runs; counts accumulate.
///
/// # Example
///
/// ```
/// use avc_population::driver::Driver;
/// use avc_population::engine::CountSim;
/// use avc_population::protocol::tests_support::Voter;
/// use avc_population::telemetry::TelemetryObserver;
/// use avc_population::{Config, ConvergenceRule};
/// use rand::SeedableRng;
///
/// let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 30, 20));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let mut obs = TelemetryObserver::new();
/// Driver::new(ConvergenceRule::OutputConsensus).run(&mut sim, &mut rng, &mut obs);
/// let cell = obs.into_cell_telemetry();
/// assert_eq!(cell.sim.counter("sim.trials"), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct TelemetryObserver {
    cadence: Option<u64>,
    chunk_ns: HistogramSnapshot,
    convergence_steps: HistogramSnapshot,
    trials: u64,
    converged: u64,
    last_boundary: Option<Span>,
}

impl TelemetryObserver {
    /// An observer with no sampling cadence: chunks are bounded only by
    /// rule checkpoints, so the chunk histograms reflect the driver's
    /// natural chunking.
    #[must_use]
    pub fn new() -> TelemetryObserver {
        TelemetryObserver::default()
    }

    /// Requests a sampling cadence of `steps`, bounding every chunk at the
    /// next multiple (finer-grained latency histograms, more callbacks).
    #[must_use]
    pub fn with_cadence(mut self, steps: u64) -> TelemetryObserver {
        self.cadence = Some(steps);
        self
    }

    /// Runs observed so far.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The deterministic half of the recorded telemetry.
    #[must_use]
    pub fn sim_snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::new();
        snap.set(
            keys::SIM_CONVERGENCE_STEPS,
            MetricValue::Histogram(self.convergence_steps.clone()),
        );
        snap.set(keys::SIM_TRIALS, MetricValue::Counter(self.trials));
        snap.set(
            keys::SIM_TRIALS_CONVERGED,
            MetricValue::Counter(self.converged),
        );
        snap
    }

    /// The wall-clock half of the recorded telemetry.
    #[must_use]
    pub fn wall_snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::new();
        snap.set(
            keys::WALL_CHUNK_NS,
            MetricValue::Histogram(self.chunk_ns.clone()),
        );
        snap
    }

    /// Packages both halves as a [`CellTelemetry`].
    #[must_use]
    pub fn into_cell_telemetry(self) -> CellTelemetry {
        CellTelemetry {
            sim: self.sim_snapshot(),
            wall: self.wall_snapshot(),
        }
    }
}

impl Observer for TelemetryObserver {
    fn cadence(&self) -> Option<u64> {
        self.cadence
    }

    fn on_chunk(&mut self, _view: &SimView<'_>, _report: &AdvanceReport) {
        if let Some(span) = self.last_boundary {
            span.record_into(&mut self.chunk_ns);
        }
        self.last_boundary = Some(Span::start());
    }

    fn on_event(&mut self, view: &SimView<'_>, event: &DriverEvent) {
        match event {
            DriverEvent::Started => {
                self.last_boundary = Some(Span::start());
            }
            DriverEvent::Finished(verdict) => {
                self.trials += 1;
                if verdict.is_consensus() {
                    self.converged += 1;
                    self.convergence_steps.record(view.steps);
                }
                self.last_boundary = None;
            }
            DriverEvent::Fault(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::driver::Driver;
    use crate::engine::{CountSim, Simulator};
    use crate::protocol::tests_support::Voter;
    use crate::spec::ConvergenceRule;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn observer_records_chunks_and_convergence() {
        let config = Config::from_input(&Voter, 25, 15);
        let mut sim = CountSim::new(Voter, config).with_telemetry(CountingSink::new());
        let mut rng = SmallRng::seed_from_u64(2);
        let mut obs = TelemetryObserver::new().with_cadence(16);
        let out = Driver::new(ConvergenceRule::OutputConsensus).run(&mut sim, &mut rng, &mut obs);
        assert!(out.verdict.is_consensus());
        assert_eq!(obs.trials(), 1);
        let cell = obs.into_cell_telemetry();
        assert_eq!(cell.sim.counter("sim.trials_converged"), Some(1));
        let conv = cell.sim.histogram("sim.convergence_steps").unwrap();
        assert_eq!(conv.count, 1);
        assert_eq!(conv.sum, out.steps);
        // Wall latencies were recorded for every chunk the engine ran.
        let ns = cell.wall.histogram("wall.chunk_ns").unwrap();
        assert_eq!(ns.count, sim.sink_counts().unwrap().chunks);
    }

    #[test]
    fn observer_is_rng_invisible() {
        let mk = || CountSim::new(Voter, Config::from_input(&Voter, 25, 15));
        let driver = Driver::new(ConvergenceRule::OutputConsensus);
        let (mut a, mut b) = (mk(), mk());
        let mut rng_a = SmallRng::seed_from_u64(3);
        let mut rng_b = SmallRng::seed_from_u64(3);
        let out_a = driver.run(&mut a, &mut rng_a, &mut crate::driver::NullObserver);
        let mut obs = TelemetryObserver::new().with_cadence(7);
        let out_b = driver.run(&mut b, &mut rng_b, &mut obs);
        assert_eq!(out_a, out_b);
        assert_eq!(a.counts(), b.counts());
    }
}
