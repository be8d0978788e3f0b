//! Trajectory recording: sampled time series of configuration statistics.
//!
//! The paper's analysis (§4) reasons about the *trajectory* of derived
//! quantities — the maximum weight per sign, the number of strong /
//! intermediate / weak nodes — not just the convergence time. This module
//! drives any [`Simulator`] while sampling a user probe at a fixed step
//! cadence, producing the data behind the dynamics experiments.

use crate::driver::{Driver, DriverEvent, Observer, SimView};
use crate::engine::{AdvanceReport, Simulator};
use crate::spec::{ConvergenceRule, RunOutcome};
use rand::rngs::SmallRng;

/// One sampled point of a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Scheduler steps elapsed at the sample.
    pub steps: u64,
    /// `steps / n`.
    pub parallel_time: f64,
    /// Values returned by the probe, one per probed statistic.
    pub values: Vec<f64>,
}

/// A recorded trajectory: the probe's statistic names plus the samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Names of the probed statistics (column headers).
    pub names: Vec<String>,
    /// Samples in step order (first sample at step 0).
    pub samples: Vec<Sample>,
    /// How the underlying run ended.
    pub outcome: RunOutcome,
}

impl Trace {
    /// The time series of statistic `index` as `(parallel_time, value)`
    /// pairs.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn series(&self, index: usize) -> Vec<(f64, f64)> {
        assert!(index < self.names.len(), "statistic index out of range");
        self.samples
            .iter()
            .map(|s| (s.parallel_time, s.values[index]))
            .collect()
    }
}

/// The recording [`Observer`]: samples the probe on the driver's cadence
/// and always captures the terminal configuration exactly once.
struct Recorder<'n, F> {
    cadence: u64,
    names: &'n [String],
    probe: F,
    samples: Vec<Sample>,
    next_sample: u64,
}

impl<F: FnMut(&[u64]) -> Vec<f64>> Recorder<'_, F> {
    fn take(&mut self, view: &SimView<'_>) {
        let values = (self.probe)(view.counts);
        assert_eq!(values.len(), self.names.len(), "probe arity mismatch");
        self.samples.push(Sample {
            steps: view.steps,
            parallel_time: view.parallel_time(),
            values,
        });
    }

    fn take_if_due(&mut self, view: &SimView<'_>) {
        if view.steps >= self.next_sample {
            self.take(view);
            self.next_sample = view.steps.saturating_add(self.cadence);
        }
    }
}

impl<F: FnMut(&[u64]) -> Vec<f64>> Observer for Recorder<'_, F> {
    fn cadence(&self) -> Option<u64> {
        Some(self.cadence)
    }

    fn on_chunk(&mut self, view: &SimView<'_>, _report: &AdvanceReport) {
        self.take_if_due(view);
    }

    fn on_event(&mut self, view: &SimView<'_>, event: &DriverEvent) {
        match event {
            DriverEvent::Started => self.take_if_due(view),
            // Always include the terminal configuration (deduplicated
            // against a cadence sample landing on the same step).
            DriverEvent::Finished(_) => {
                if self.samples.last().map(|s| s.steps) != Some(view.steps) {
                    self.take(view);
                }
            }
            // Injections surface through the cadence samples around them;
            // the trace records configurations, not causes.
            DriverEvent::Fault(_) => {}
        }
    }
}

/// Drives `sim` to convergence under `rule`, sampling `probe(counts)` every
/// `cadence` steps (and at step 0 and at the final configuration).
///
/// The probe receives the species counts and returns one value per
/// statistic named in `names`. The stepping is owned by
/// [`Driver`]; this function just plugs in a recording observer
/// (with a per-step silence cadence, so [`ConvergenceRule::Silence`] is
/// checked before every advance exactly as a sampled trace expects).
///
/// # Panics
///
/// Panics if `cadence` is zero or the probe returns a vector of the wrong
/// length.
pub fn record<S>(
    sim: &mut S,
    rng: &mut SmallRng,
    cadence: u64,
    max_steps: u64,
    rule: ConvergenceRule,
    names: Vec<String>,
    probe: impl FnMut(&[u64]) -> Vec<f64>,
) -> Trace
where
    S: Simulator + ?Sized,
{
    assert!(cadence > 0, "cadence must be positive");
    let mut recorder = Recorder {
        cadence,
        names: &names,
        probe,
        samples: Vec::new(),
        next_sample: sim.steps(),
    };
    let outcome = Driver::new(rule)
        .with_max_steps(max_steps)
        .check_silence_every(1)
        .run(sim, rng, &mut recorder);
    let samples = recorder.samples;
    Trace {
        names,
        samples,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::CountSim;
    use crate::protocol::tests_support::Voter;
    use crate::protocol::Opinion;
    use crate::spec::Verdict;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn record_voter(cadence: u64) -> Trace {
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 30, 10));
        let mut rng = SmallRng::seed_from_u64(4);
        record(
            &mut sim,
            &mut rng,
            cadence,
            u64::MAX,
            ConvergenceRule::OutputConsensus,
            vec!["count_a".to_string()],
            |counts| vec![counts[0] as f64],
        )
    }

    #[test]
    fn trace_starts_at_zero_and_ends_at_terminal() {
        let trace = record_voter(10);
        assert_eq!(trace.samples.first().unwrap().steps, 0);
        assert_eq!(
            trace.samples.last().unwrap().steps,
            trace.outcome.steps,
            "last sample must be the terminal configuration"
        );
        assert!(trace.outcome.verdict.is_consensus());
        // First sample sees the initial counts.
        assert_eq!(trace.samples[0].values[0], 30.0);
        // Terminal sample is absorbed: all 40 or none.
        let last = trace.samples.last().unwrap().values[0];
        assert!(last == 40.0 || last == 0.0);
    }

    #[test]
    fn cadence_controls_sample_density() {
        let sparse = record_voter(1_000_000);
        assert!(sparse.samples.len() <= 3);
        let dense = record_voter(5);
        assert!(dense.samples.len() >= sparse.samples.len());
        // Samples are strictly increasing in steps.
        for pair in dense.samples.windows(2) {
            assert!(pair[0].steps < pair[1].steps);
        }
    }

    #[test]
    fn series_extracts_columns() {
        let trace = record_voter(10);
        let series = trace.series(0);
        assert_eq!(series.len(), trace.samples.len());
        assert_eq!(series[0], (0.0, 30.0));
    }

    #[test]
    fn already_converged_config_yields_a_single_sample() {
        // All agents share the majority opinion from step 0: the run ends
        // before any interaction, and the step-0 sample doubles as the
        // terminal one (no duplicate).
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 7, 0));
        let mut rng = SmallRng::seed_from_u64(2);
        let trace = record(
            &mut sim,
            &mut rng,
            10,
            u64::MAX,
            ConvergenceRule::OutputConsensus,
            vec!["count_a".to_string()],
            |counts| vec![counts[0] as f64],
        );
        assert_eq!(trace.samples.len(), 1);
        assert_eq!(trace.samples[0].steps, 0);
        assert_eq!(trace.outcome.steps, 0);
        assert_eq!(trace.outcome.parallel_time, 0.0);
        assert_eq!(trace.outcome.verdict, Verdict::Consensus(Opinion::A));
    }

    #[test]
    fn max_steps_truncation_keeps_samples_strictly_increasing() {
        // Truncate both on and off the sampling cadence; the terminal
        // configuration must appear exactly once either way.
        for (cadence, max_steps) in [(5u64, 10u64), (4, 10), (10, 7)] {
            let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 50, 50));
            let mut rng = SmallRng::seed_from_u64(8);
            let trace = record(
                &mut sim,
                &mut rng,
                cadence,
                max_steps,
                ConvergenceRule::OutputConsensus,
                vec!["count_a".to_string()],
                |counts| vec![counts[0] as f64],
            );
            assert_eq!(trace.outcome.verdict, Verdict::MaxSteps);
            assert_eq!(trace.outcome.steps, max_steps);
            assert_eq!(trace.samples.last().unwrap().steps, max_steps);
            for pair in trace.samples.windows(2) {
                assert!(
                    pair[0].steps < pair[1].steps,
                    "duplicate sample at cadence={cadence}, max_steps={max_steps}"
                );
            }
        }
    }

    #[test]
    fn silent_config_under_unreachable_rule_is_stuck() {
        // All-A voter population is silent; a rule waiting for a lone B
        // agent can never hold. The jump engine reports the dead end and
        // the trace must surface it as `Stuck` instead of spinning.
        let mut sim = crate::engine::JumpSim::new(Voter, Config::from_input(&Voter, 5, 0));
        let mut rng = SmallRng::seed_from_u64(6);
        let trace = record(
            &mut sim,
            &mut rng,
            3,
            u64::MAX,
            ConvergenceRule::OutputCount {
                opinion: Opinion::B,
                count: 1,
            },
            vec!["count_a".to_string()],
            |counts| vec![counts[0] as f64],
        );
        assert_eq!(trace.outcome.verdict, Verdict::Stuck);
        assert_eq!(trace.samples.len(), 1, "no steps ever ran");
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn rejects_zero_cadence() {
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 3, 2));
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = record(
            &mut sim,
            &mut rng,
            0,
            10,
            ConvergenceRule::OutputConsensus,
            vec![],
            |_| vec![],
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_probe_arity_mismatch() {
        let mut sim = CountSim::new(Voter, Config::from_input(&Voter, 3, 2));
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = record(
            &mut sim,
            &mut rng,
            1,
            10,
            ConvergenceRule::OutputConsensus,
            vec!["a".into(), "b".into()],
            |_| vec![1.0],
        );
    }
}
