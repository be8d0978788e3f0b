//! Figure 4: AVC convergence time vs margin `ε` and state count `s`.
//!
//! The paper sweeps the margin over several decades for thirteen values of
//! the per-node state count `s` (with `d = 1`, so `m = s − 3`), at a fixed
//! population. The left panel plots mean parallel convergence time against
//! `ε` — one curve per `s`, each `Θ(1/ε)` for small `ε` and shifted down as
//! `s` grows; the right panel plots the same data against the product `s·ε`,
//! collapsing the curves and supporting the `Θ̃(1/(sε))` claim.
//!
//! Trials execute through the chunked run driver (`avc_population::driver`),
//! as in [`fig3`](crate::experiments::fig3).

use crate::harness::{Parallelism, ScenarioPlan, StatsCollector};
use crate::stats::Summary;
use crate::table::{fmt_num, Table};
use avc_population::telemetry::CellTelemetry;
use avc_population::{MajorityInstance, ProtocolSpec, Scenario};
use avc_protocols::Avc;

/// The paper's thirteen state counts (Figure 4 caption).
pub const PAPER_STATE_COUNTS: [u64; 13] = [
    4, 6, 12, 24, 34, 66, 130, 258, 514, 1_026, 2_050, 4_098, 16_340,
];

/// Parameters for the Figure 4 reproduction.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population size (the paper uses `n` on the order of `10⁵`).
    pub n: u64,
    /// State counts to sweep (`d = 1`, `m = s − 3`).
    pub state_counts: Vec<u64>,
    /// Margins to sweep.
    pub epsilons: Vec<f64>,
    /// Independent runs per `(s, ε)` point.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Thread sharding of each point's trials (results are unaffected).
    pub parallelism: Parallelism,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n: 100_001,
            state_counts: PAPER_STATE_COUNTS.to_vec(),
            // Half-decade grid over the paper's range 10^-5 … 10^-0.5.
            epsilons: vec![
                1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1,
            ],
            runs: 15,
            seed: 4,
            parallelism: Parallelism::default(),
        }
    }
}

impl Config {
    /// A downscaled configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Config {
        Config {
            n: 10_001,
            state_counts: vec![4, 12, 66, 514],
            epsilons: vec![1e-3, 1e-2, 1e-1],
            runs: 5,
            seed: 4,
            parallelism: Parallelism::default(),
        }
    }

    /// Builds a configuration from parsed CLI arguments (`--quick`, `--n`,
    /// `--states`, `--runs`, `--seed`, `--serial`/`--threads`).
    #[must_use]
    pub fn from_args(args: &crate::cli::Args) -> Config {
        let mut config = if args.flag("quick") {
            Config::quick()
        } else {
            Config::default()
        };
        config.n = args.get_u64("n", config.n);
        config.state_counts = args.get_u64_list("states", &config.state_counts);
        config.runs = args.get_u64("runs", config.runs);
        config.seed = args.get_u64("seed", config.seed);
        config.parallelism = args.parallelism();
        config
    }
}

/// One `(s, ε)` point of Figure 4.
#[derive(Debug, Clone)]
pub struct Point {
    /// Number of states per agent.
    pub s: u64,
    /// Requested margin.
    pub epsilon: f64,
    /// Margin actually realized after integer rounding of the instance.
    pub achieved_epsilon: f64,
    /// Parallel-time summary over the runs.
    pub summary: Summary,
    /// Aggregated run telemetry (engine counters, convergence histogram,
    /// wall timings) for the point's batch.
    pub telemetry: CellTelemetry,
}

/// Runs the sweep. Points are emitted in `(s, ε)` lexicographic order.
///
/// # Panics
///
/// Panics if a state count is below 4 or the population is even (the
/// one-agent-advantage margins need odd `n` only when `εn` rounds to 1;
/// margins are realized via [`MajorityInstance::with_margin`], which handles
/// parity, so only degenerate configurations panic).
#[must_use]
pub fn run(config: &Config) -> Vec<Point> {
    run_with_stats(config, &StatsCollector::new())
}

/// As [`run`], folding per-point throughput telemetry into `stats`.
#[must_use]
pub fn run_with_stats(config: &Config, stats: &StatsCollector) -> Vec<Point> {
    let mut points = Vec::new();
    for si in 0..config.state_counts.len() {
        for ei in 0..config.epsilons.len() {
            points.push(run_point(config, si, ei, stats));
        }
    }
    points
}

/// Lowers one `(s, ε)` point to a declarative run scenario: `si` indexes
/// [`Config::state_counts`], `ei` indexes [`Config::epsilons`]. Each
/// point's seed is derived from the grid indices alone, so a point reruns
/// identically regardless of which other points run alongside it (the
/// basis of checkpoint/resume).
///
/// # Panics
///
/// Panics if either index is out of range, or the state count is below 4
/// or above [`Avc::MAX_STATES`].
#[must_use]
pub fn cell_scenario(config: &Config, si: usize, ei: usize) -> Scenario {
    let avc =
        Avc::with_states(config.state_counts[si]).expect("state count in 4..=Avc::MAX_STATES");
    let instance = MajorityInstance::with_margin(config.n, config.epsilons[ei]);
    Scenario::new(
        ProtocolSpec::Avc {
            m: avc.m(),
            d: avc.d(),
        },
        instance,
    )
    .runs(config.runs)
    .seed(config.seed + (si as u64) * 1_000 + ei as u64)
}

/// Runs one `(s, ε)` point through the shared [`ScenarioPlan`] harness.
///
/// # Panics
///
/// As [`cell_scenario`].
#[must_use]
pub fn run_point(config: &Config, si: usize, ei: usize, stats: &StatsCollector) -> Point {
    let avc =
        Avc::with_states(config.state_counts[si]).expect("state count in 4..=Avc::MAX_STATES");
    let eps = config.epsilons[ei];
    let scenario = cell_scenario(config, si, ei);
    let achieved_epsilon = scenario.instance.margin();
    let (results, telemetry) = ScenarioPlan::new(scenario)
        .parallelism(config.parallelism)
        .run_with_telemetry(stats);
    Point {
        s: avc.s(),
        epsilon: eps,
        achieved_epsilon,
        summary: results.summary(),
        telemetry,
    }
}

/// Renders the combined table (serves both panels: the left keyed by `ε`,
/// the right by the `s·ε` column).
#[must_use]
pub fn table(points: &[Point], n: u64) -> Table {
    let mut t = Table::new(
        format!("Figure 4: AVC parallel convergence time vs eps and s (n = {n})"),
        [
            "s",
            "eps",
            "achieved_eps",
            "s_times_eps",
            "mean_parallel_time",
            "std_dev",
            "runs",
        ],
    );
    for p in points {
        t.push_row([
            p.s.to_string(),
            format!("{:e}", p.epsilon),
            fmt_num(p.achieved_epsilon),
            fmt_num(p.s as f64 * p.achieved_epsilon),
            fmt_num(p.summary.mean),
            fmt_num(p.summary.std_dev),
            p.summary.count.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_speedup_in_s_and_slowdown_in_small_eps() {
        let points = run(&Config {
            n: 2_001,
            state_counts: vec![4, 34],
            epsilons: vec![1e-3, 1e-1],
            runs: 7,
            seed: 9,
            parallelism: Parallelism::Auto,
        });
        assert_eq!(points.len(), 4);
        let get = |s: u64, eps: f64| {
            points
                .iter()
                .find(|p| p.s == s && (p.epsilon - eps).abs() < 1e-12)
                .unwrap()
        };
        // More states → faster at the hard margin.
        assert!(
            get(4, 1e-3).summary.mean > 2.0 * get(34, 1e-3).summary.mean,
            "s speedup missing"
        );
        // Smaller margin → slower at fixed s = 4.
        assert!(
            get(4, 1e-3).summary.mean > 3.0 * get(4, 1e-1).summary.mean,
            "eps slowdown missing"
        );
    }

    #[test]
    fn table_shape() {
        let points = run(&Config {
            n: 501,
            state_counts: vec![4],
            epsilons: vec![0.1],
            runs: 3,
            seed: 1,
            parallelism: Parallelism::Serial,
        });
        let t = table(&points, 501);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.columns().len(), 7);
    }
}
