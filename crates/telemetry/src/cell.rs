//! Per-cell telemetry: the deterministic/wall-clock split.
//!
//! A sweep cell (one manifest's worth of trials) aggregates telemetry into
//! a [`CellTelemetry`] holding two registries:
//!
//! * `sim` — values derived purely from the simulation (steps, events,
//!   silent fractions, convergence-step histograms). For a fixed seed
//!   these are **identical at any worker count**, which the golden stream
//!   test pins byte-for-byte.
//! * `wall` — wall-clock measurements (durations, throughput inputs).
//!   Never comparable across runs or machines.
//!
//! Stored records carry both by default; setting the
//! `AVC_TELEMETRY_NOWALL` environment variable (any non-empty value) makes
//! the sweep store an empty `wall` registry, so determinism tests can
//! byte-compare whole stores.

use crate::registry::RegistrySnapshot;

/// Conventional metric names shared by producers (harness, sweep) and
/// consumers (`avc report`, `avc ls --wide`). Using these constants keeps
/// both sides of the wire agreeing on spelling.
pub mod keys {
    /// Total scheduler steps across all trials (counter, `sim`).
    pub const SIM_STEPS: &str = "sim.steps";
    /// Total productive interactions across all trials (counter, `sim`).
    pub const SIM_EVENTS: &str = "sim.events";
    /// Steps that took the silent fast path (counter, `sim`).
    pub const SIM_SILENT_STEPS: &str = "sim.silent_steps";
    /// Per-trial convergence step counts (histogram, `sim`).
    pub const SIM_CONVERGENCE_STEPS: &str = "sim.convergence_steps";
    /// Trials that converged (counter, `sim`).
    pub const SIM_TRIALS_CONVERGED: &str = "sim.trials_converged";
    /// Trials that ran (counter, `sim`).
    pub const SIM_TRIALS: &str = "sim.trials";
    /// Per-trial wall time in nanoseconds (histogram, `wall`).
    pub const WALL_TRIAL_NS: &str = "wall.trial_ns";
    /// The cell's share of the sweep's wall time in nanoseconds (counter,
    /// `wall`): from the later of the previous batch's completion and the
    /// cell's first claimed trial, to the cell's completion, so batches
    /// that overlap are not counted twice. Without the table build below.
    pub const WALL_CELL_NS: &str = "wall.cell_ns";
    /// Summed busy time of the workers that ran the cell's trials, each from
    /// its first claimed trial to the end of its last, in nanoseconds
    /// (counter, `wall`).
    pub const WALL_WORKER_BUSY_NS: &str = "wall.worker_busy_ns";
    /// Worker threads the cell's batch could run on (gauge, `wall`).
    pub const WALL_WORKERS: &str = "wall.workers";
    /// Wall time building the cell's dense transition table in nanoseconds;
    /// 0 when the protocol is above the table bound and runs arithmetically
    /// (counter, `wall`).
    pub const WALL_TABLE_BUILD_NS: &str = "wall.table_build_ns";
    /// The `i` of the `--shard i/k` run that executed the cell; set only
    /// when `k > 1` (gauge, `wall`).
    pub const WALL_SHARD_INDEX: &str = "wall.shard_index";
    /// The `k` of the `--shard i/k` run that executed the cell; set only
    /// when `k > 1` (gauge, `wall`).
    pub const WALL_SHARD_COUNT: &str = "wall.shard_count";
    /// Per-chunk wall latency in nanoseconds (histogram, `wall`).
    pub const WALL_CHUNK_NS: &str = "wall.chunk_ns";
}

/// Whether stored records should carry no wall-clock values (the
/// `AVC_TELEMETRY_NOWALL` escape hatch for byte-identity tests).
#[must_use]
pub fn wall_suppressed() -> bool {
    std::env::var_os("AVC_TELEMETRY_NOWALL").is_some_and(|v| !v.is_empty())
}

/// Telemetry for one sweep cell, split into deterministic and wall-clock
/// registries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellTelemetry {
    /// Simulation-derived metrics: deterministic for a fixed seed.
    pub sim: RegistrySnapshot,
    /// Wall-clock metrics: nondeterministic by nature.
    pub wall: RegistrySnapshot,
}

impl CellTelemetry {
    /// Empty telemetry.
    #[must_use]
    pub fn new() -> CellTelemetry {
        CellTelemetry::default()
    }

    /// Whether both registries are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty() && self.wall.is_empty()
    }

    /// Folds another cell's telemetry in (both halves merge by the metric
    /// kind laws; associative and commutative).
    pub fn merge(&mut self, other: &CellTelemetry) {
        self.sim.merge(&other.sim);
        self.wall.merge(&other.wall);
    }

    /// Steps per second over the whole cell, if both total steps and cell
    /// wall time are present.
    #[must_use]
    pub fn steps_per_sec(&self) -> Option<f64> {
        let steps = self.sim.counter(keys::SIM_STEPS)?;
        let ns = self.wall.counter(keys::WALL_CELL_NS)?;
        (ns > 0).then(|| steps as f64 * 1e9 / ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricValue;

    #[test]
    fn merge_combines_both_halves() {
        let mut a = CellTelemetry::new();
        a.sim.set(keys::SIM_STEPS, MetricValue::Counter(100));
        a.wall.set(keys::WALL_CELL_NS, MetricValue::Counter(10));
        let mut b = CellTelemetry::new();
        b.sim.set(keys::SIM_STEPS, MetricValue::Counter(50));
        b.wall.set(keys::WALL_CELL_NS, MetricValue::Counter(5));
        a.merge(&b);
        assert_eq!(a.sim.counter(keys::SIM_STEPS), Some(150));
        assert_eq!(a.wall.counter(keys::WALL_CELL_NS), Some(15));
    }

    #[test]
    fn steps_per_sec_needs_both_inputs() {
        let mut t = CellTelemetry::new();
        assert_eq!(t.steps_per_sec(), None);
        t.sim.set(keys::SIM_STEPS, MetricValue::Counter(2_000));
        t.wall
            .set(keys::WALL_CELL_NS, MetricValue::Counter(1_000_000_000));
        assert_eq!(t.steps_per_sec(), Some(2_000.0));
    }
}
