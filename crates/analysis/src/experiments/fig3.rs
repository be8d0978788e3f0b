//! Figure 3: three protocols at the hardest margin `ε = 1/n`.
//!
//! The paper's first experiment compares, for `n ∈ {11, 101, 1001, 10001,
//! 100001}` with the majority decided by a single agent:
//!
//! * the 3-state approximate protocol (fast, errs),
//! * the 4-state exact protocol (slow, never errs),
//! * the "n-state" AVC (fast *and* never errs),
//!
//! reporting the mean parallel convergence time (left panel) and the
//! fraction of runs converging to the wrong final state (right panel) over
//! 101 runs.
//!
//! Trials execute through the chunked run driver (see
//! `avc_population::driver`): each engine's monomorphized chunk loop stops
//! at the exact step its convergence rule first holds, so these results are
//! independent of chunking and of the pre-driver per-step loop they
//! replaced.

use crate::harness::{EngineKind, Parallelism, ScenarioPlan, StatsCollector, TrialResults};
use crate::stats::quantile;
use crate::table::{fmt_num, Table};
use avc_population::telemetry::CellTelemetry;
use avc_population::{ConvergenceRule, MajorityInstance, ProtocolSpec, Scenario};
use avc_protocols::Avc;

/// Parameters for the Figure 3 reproduction.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population sizes (odd, so `εn = 1` is expressible).
    pub ns: Vec<u64>,
    /// Independent runs per cell (the paper uses 101).
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Thread sharding of each cell's trials (results are unaffected).
    pub parallelism: Parallelism,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            ns: vec![11, 101, 1_001, 10_001, 100_001],
            runs: 101,
            seed: 2015,
            parallelism: Parallelism::default(),
        }
    }
}

impl Config {
    /// A downscaled configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Config {
        Config {
            ns: vec![11, 101, 1_001],
            runs: 11,
            seed: 2015,
            parallelism: Parallelism::default(),
        }
    }

    /// Builds a configuration from parsed CLI arguments (`--quick`, `--ns`,
    /// `--runs`, `--seed`, `--serial`/`--threads`).
    #[must_use]
    pub fn from_args(args: &crate::cli::Args) -> Config {
        let mut config = if args.flag("quick") {
            Config::quick()
        } else {
            Config::default()
        };
        config.ns = args.get_u64_list("ns", &config.ns);
        config.runs = args.get_u64("runs", config.runs);
        config.seed = args.get_u64("seed", config.seed);
        config.parallelism = args.parallelism();
        config
    }
}

/// One cell of Figure 3.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Population size.
    pub n: u64,
    /// Protocol name.
    pub protocol: String,
    /// Number of states per agent.
    pub states: u64,
    /// Trial outcomes.
    pub results: TrialResults,
    /// Aggregated run telemetry (engine counters, convergence histogram,
    /// wall timings) for the cell's batch.
    pub telemetry: CellTelemetry,
}

/// The three protocol columns of Figure 3, in row order. These are the
/// stable cell keys used by sweep manifests; the human-readable
/// [`Cell::protocol`] labels differ (e.g. `avc(s=...)`).
pub const PROTOCOL_KEYS: [&str; 3] = ["three_state", "four_state", "avc"];

/// Runs the full experiment and returns one cell per `(n, protocol)`.
///
/// The 3-state protocol is measured to its terminal all-`x`/all-`y` state
/// ([`ConvergenceRule::StateConsensus`]); the exact protocols to output
/// consensus, which for them is stable (Lemma A.1).
#[must_use]
pub fn run(config: &Config) -> Vec<Cell> {
    run_with_stats(config, &StatsCollector::new())
}

/// As [`run`], folding per-cell throughput telemetry into `stats`.
#[must_use]
pub fn run_with_stats(config: &Config, stats: &StatsCollector) -> Vec<Cell> {
    let mut cells = Vec::new();
    for ni in 0..config.ns.len() {
        for pi in 0..PROTOCOL_KEYS.len() {
            cells.push(run_cell(config, ni, pi, stats));
        }
    }
    cells
}

/// Lowers one `(n, protocol)` cell to a declarative run scenario: `ni`
/// indexes [`Config::ns`], `pi` indexes [`PROTOCOL_KEYS`]. The 3-state
/// protocol is measured to its terminal all-`x`/all-`y` state
/// ([`ConvergenceRule::StateConsensus`]) on the jump engine; the exact
/// protocols to output consensus (stable for them, Lemma A.1) — 4-state on
/// the jump engine, AVC (whose large state spaces favor count space) on the
/// adaptive `auto` engine.
///
/// # Panics
///
/// Panics if either index is out of range, or if an AVC cell's `n` is
/// above [`Avc::MAX_STATES`].
#[must_use]
pub fn cell_scenario(config: &Config, ni: usize, pi: usize) -> Scenario {
    let n = config.ns[ni];
    let (protocol, engine, rule) = match PROTOCOL_KEYS[pi] {
        "three_state" => (
            ProtocolSpec::ThreeState,
            EngineKind::Jump,
            ConvergenceRule::StateConsensus,
        ),
        "four_state" => (
            ProtocolSpec::FourState,
            EngineKind::Jump,
            ConvergenceRule::OutputConsensus,
        ),
        _ => {
            let avc = Avc::with_states(n).expect("n-state AVC needs 4 <= n <= Avc::MAX_STATES");
            (
                ProtocolSpec::Avc {
                    m: avc.m(),
                    d: avc.d(),
                },
                EngineKind::Auto,
                ConvergenceRule::OutputConsensus,
            )
        }
    };
    Scenario::new(protocol, MajorityInstance::one_extra(n))
        .engine(engine)
        .rule(rule)
        .runs(config.runs)
        .seed(config.seed.wrapping_add(ni as u64))
}

/// Runs one `(n, protocol)` cell through the shared [`ScenarioPlan`]
/// harness. The cell's trials depend only on its [`cell_scenario`] — never
/// on which other cells run alongside it — which is what makes
/// cell-granular checkpoint/resume sound.
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
pub fn run_cell(config: &Config, ni: usize, pi: usize, stats: &StatsCollector) -> Cell {
    let n = config.ns[ni];
    let scenario = cell_scenario(config, ni, pi);
    let (protocol, states) = match scenario.protocol {
        ProtocolSpec::ThreeState => ("3-state".to_string(), 3),
        ProtocolSpec::FourState => ("4-state".to_string(), 4),
        ProtocolSpec::Avc { m, d } => {
            let states = m + 2 * u64::from(d) + 1;
            (format!("avc(s={states})"), states)
        }
        ProtocolSpec::Voter | ProtocolSpec::Bef { .. } | ProtocolSpec::Degssu { .. } => {
            unreachable!("figure 3 only runs the 3-state, 4-state, and AVC protocols")
        }
    };
    let (results, telemetry) = ScenarioPlan::new(scenario)
        .parallelism(config.parallelism)
        .run_with_telemetry(stats);
    Cell {
        n,
        protocol,
        states,
        results,
        telemetry,
    }
}

/// Renders the left panel (mean parallel convergence time).
#[must_use]
pub fn time_table(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "Figure 3 (left): parallel convergence time, eps = 1/n",
        [
            "n",
            "protocol",
            "states",
            "mean_parallel_time",
            "std_dev",
            "median",
            "p10",
            "p90",
            "runs",
        ],
    );
    for cell in cells {
        let s = cell.results.summary();
        let times = cell.results.converged_times();
        t.push_row([
            cell.n.to_string(),
            cell.protocol.clone(),
            cell.states.to_string(),
            fmt_num(s.mean),
            fmt_num(s.std_dev),
            fmt_num(s.median),
            fmt_num(quantile(&times, 0.1)),
            fmt_num(quantile(&times, 0.9)),
            s.count.to_string(),
        ]);
    }
    t
}

/// Renders the right panel (fraction of error convergence).
#[must_use]
pub fn error_table(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "Figure 3 (right): fraction of runs converging to the wrong state",
        ["n", "protocol", "error_fraction", "runs"],
    );
    for cell in cells {
        t.push_row([
            cell.n.to_string(),
            cell.protocol.clone(),
            fmt_num(cell.results.error_fraction()),
            cell.results.outcomes().len().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_figure3_shape() {
        let cells = run(&Config {
            ns: vec![101, 1_001],
            runs: 9,
            seed: 1,
            parallelism: Parallelism::Auto,
        });
        assert_eq!(cells.len(), 6);

        let cell = |n: u64, name: &str| {
            cells
                .iter()
                .find(|c| c.n == n && c.protocol.starts_with(name))
                .unwrap()
        };

        for &n in &[101u64, 1_001] {
            // Exact protocols never err; 3-state errs with ~1/2 probability
            // at eps = 1/n (not asserted — it is genuinely random — but the
            // exactness is deterministic).
            assert_eq!(cell(n, "4-state").results.error_fraction(), 0.0);
            assert_eq!(cell(n, "avc").results.error_fraction(), 0.0);

            // AVC is at least 5x faster than 4-state already at n = 101.
            let speedup = cell(n, "4-state").results.mean_parallel_time()
                / cell(n, "avc").results.mean_parallel_time();
            assert!(speedup > 5.0, "n={n}: speedup only {speedup:.1}");
        }

        // 4-state time grows superlinearly in n at eps = 1/n...
        let t4_small = cell(101, "4-state").results.mean_parallel_time();
        let t4_large = cell(1_001, "4-state").results.mean_parallel_time();
        assert!(t4_large > 5.0 * t4_small);
        // ...while AVC's stays polylogarithmic (well under 3x here).
        let ta_small = cell(101, "avc").results.mean_parallel_time();
        let ta_large = cell(1_001, "avc").results.mean_parallel_time();
        assert!(ta_large < 3.0 * ta_small, "{ta_small} -> {ta_large}");
    }

    #[test]
    fn tables_have_one_row_per_cell() {
        let cells = run(&Config {
            ns: vec![11],
            runs: 3,
            seed: 2,
            parallelism: Parallelism::Serial,
        });
        assert_eq!(time_table(&cells).num_rows(), 3);
        assert_eq!(error_table(&cells).num_rows(), 3);
    }
}
