//! Named sweep specs: one per paper artifact.
//!
//! Each spec turns parsed CLI flags into a [`Plan`] — the cell grid with
//! content-addressed manifests plus the export assembly that regenerates
//! the exact `results/*.csv` files. Six studies are batches of seeded
//! scenarios (fig3, fig4, lb_four_state, err_three_state, ablation_d,
//! robustness): each module declares only its flags and `--quick` profile,
//! its ordered cells, each cell's rows and its export trailer, and
//! `scenario_grid::ScenarioSweep::plan` — the builder behind grid files —
//! does the rest. lb_info, graph_gap, dynamics and the model checks run no
//! scenario batch and build their plans directly.

mod ablation_d;
mod checks;
mod err_three_state;
mod fig3;
mod fig4;
mod lb_four_state;
mod robustness;
mod sweeps;

use crate::record::{CellResult, TrialSummary};
use crate::sweep::Plan;
use avc_analysis::cli::Args;
use avc_analysis::harness::TrialResults;
use avc_analysis::stats::Summary;
use avc_analysis::table::Table;
use avc_population::{ConvergenceRule, MajorityInstance, Scenario};
use avc_protocols::Avc;
use std::fmt;

/// `(name, description)` of every sweep spec, in `avc help` order.
pub const NAMES: [(&str, &str); 11] = [
    (
        "fig3",
        "Figure 3: 3-state vs 4-state vs n-state AVC at eps = 1/n",
    ),
    ("fig4", "Figure 4: AVC time vs margin for 13 state counts"),
    (
        "lb_four_state",
        "Theorem B.1: four-state Θ(1/eps) scaling exponent",
    ),
    (
        "lb_info",
        "Theorem C.1: knowledge-set cover time (Ω(log n) bound)",
    ),
    (
        "err_three_state",
        "PVV09 error law: three-state error fraction vs the KL bound",
    ),
    (
        "ablation_d",
        "§6 ablation: state-budget split between m and d",
    ),
    ("dynamics", "§4 structure: one traced AVC trajectory"),
    (
        "graph_gap",
        "DV12: four-state time vs interaction-graph spectral gap",
    ),
    (
        "robustness",
        "Exactness under adversarial schedulers and injected faults",
    ),
    (
        "mc_avc",
        "Model check: AVC invariants and exactness (exhaustive)",
    ),
    (
        "mc_three_state",
        "Model check: MNRS14 three-state impossibility (exhaustive)",
    ),
];

/// A sweep flag whose value no plan can run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError {
    /// The flag, without its leading `--`.
    pub flag: &'static str,
    /// Why its value cannot run.
    pub reason: String,
}

impl FlagError {
    fn new(flag: &'static str, reason: impl fmt::Display) -> FlagError {
        FlagError {
            flag,
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "--{}: {}", self.flag, self.reason)
    }
}

impl std::error::Error for FlagError {}

/// Builds the plan for a named sweep from parsed flags: `None` for an
/// unknown name, an error naming the flag whose value cannot run.
pub fn try_build(name: &str, args: &Args) -> Option<Result<Plan, FlagError>> {
    let sweep = match name {
        "fig3" => fig3::sweep(args),
        "fig4" => fig4::sweep(args),
        "lb_four_state" => lb_four_state::sweep(args),
        "err_three_state" => err_three_state::sweep(args),
        "ablation_d" => ablation_d::sweep(args),
        "robustness" => robustness::sweep(args),
        "dynamics" => return Some(Ok(sweeps::dynamics_plan(args))),
        "lb_info" => return Some(sweeps::lb_info_plan(args)),
        "graph_gap" => return Some(sweeps::graph_gap_plan(args)),
        "mc_avc" => return Some(Ok(checks::mc_avc_plan(args))),
        "mc_three_state" => return Some(Ok(checks::mc_three_state_plan(args))),
        _ => return None,
    };
    Some(sweep.map(|sweep| sweep.plan(args.parallelism())))
}

/// [`try_build`] with a bad flag value panicking: the surface the
/// `sweep_bench` benchmark drives.
#[must_use]
pub fn build(name: &str, args: &Args) -> Option<Plan> {
    try_build(name, args).map(|plan| plan.unwrap_or_else(|e| panic!("{e}")))
}

/// Extracts the durable trial payload from harness results: converged-time
/// samples in the canonical `Summary` order plus error bookkeeping.
pub(crate) fn trials_of(results: &TrialResults) -> TrialSummary {
    let mut samples = results.converged_times();
    samples.sort_by(f64::total_cmp);
    TrialSummary {
        samples,
        error_fraction: results.error_fraction(),
        total_runs: results.outcomes().len() as u64,
    }
}

/// As [`trials_of`] for experiments that only retain a [`Summary`] (every
/// trial converged; no error notion).
pub(crate) fn trials_of_summary(summary: &Summary) -> TrialSummary {
    TrialSummary {
        samples: summary.samples().to_vec(),
        error_fraction: 0.0,
        total_runs: summary.count as u64,
    }
}

/// The single data row of a one-row table (cells contribute exactly one row
/// per table they participate in).
pub(crate) fn only_row(table: &Table) -> Vec<String> {
    assert_eq!(table.num_rows(), 1, "expected a single-row table");
    table.rows()[0].clone()
}

/// A scenario cell's contribution to the export: one row per named table
/// and the named values the export reads back.
fn cell_rows<const T: usize, const V: usize>(
    rows: [(&str, Vec<String>); T],
    values: [(&str, f64); V],
) -> CellResult {
    CellResult {
        tables: rows
            .into_iter()
            .map(|(stem, row)| (stem.to_string(), vec![row]))
            .collect(),
        values: values
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
        ..CellResult::default()
    }
}

/// The `--runs` flag (`default` when absent): a cell summarises at least
/// one run.
fn runs_flag(args: &Args, default: u64) -> Result<u64, FlagError> {
    match args.get_u64("runs", default) {
        0 => Err(FlagError::new("runs", "0 runs: a cell needs at least one")),
        runs => Ok(runs),
    }
}

/// `scenario`, if every trial of it can run (see [`Scenario::validate`]);
/// otherwise an error naming `flag`, the flag its population came from.
fn runnable(flag: &'static str, scenario: Scenario) -> Result<Scenario, FlagError> {
    match scenario.validate() {
        Ok(()) => Ok(scenario),
        Err(reason) => Err(FlagError::new(flag, reason)),
    }
}

/// The one-agent-majority instance on `n` agents (`flag`'s value), which
/// needs an odd `n >= 3`.
fn one_extra(flag: &'static str, n: u64) -> Result<MajorityInstance, FlagError> {
    if n < 3 || n.is_multiple_of(2) {
        return Err(FlagError::new(
            flag,
            format!("{n} agents: a one-agent majority needs an odd n >= 3"),
        ));
    }
    Ok(MajorityInstance::one_extra(n))
}

/// The instance on `n` agents (`flag`'s value) with margin at least `eps`.
fn with_margin(flag: &'static str, n: u64, eps: f64) -> Result<MajorityInstance, FlagError> {
    if n < 2 {
        return Err(FlagError::new(
            flag,
            format!("{n} agents: a majority needs n >= 2"),
        ));
    }
    Ok(MajorityInstance::with_margin(n, eps))
}

/// AVC with a budget of `s` states (`flag`'s value) and `d = 1`.
fn avc_with_states(flag: &'static str, s: u64) -> Result<Avc, FlagError> {
    Avc::with_states(s).map_err(|e| FlagError::new(flag, format!("{s} states: {e}")))
}

/// The two manifest params embedding a cell's declarative scenario: its
/// canonical JSON form and the SHA-256 of that form. A manifest carrying
/// these suffices to re-run the cell byte-identically — `avc run` executes
/// the embedded JSON directly.
pub(crate) fn scenario_params(scenario: &Scenario) -> [(&'static str, String); 2] {
    [
        ("scenario", scenario.canonical()),
        ("scenario_hash", scenario.hash()),
    ]
}

/// The manifest name of a convergence rule (the scenario plane's canonical
/// rule names).
pub(crate) fn rule_name(rule: ConvergenceRule) -> &'static str {
    match rule {
        ConvergenceRule::OutputConsensus => "output_consensus",
        ConvergenceRule::StateConsensus => "state_consensus",
        ConvergenceRule::Silence => "silence",
        ConvergenceRule::OutputCount { .. } => "output_count",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Export;
    use avc_analysis::harness::StatsCollector;

    pub(super) fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    /// A sweep built from `tokens` and run in memory: the plan, every
    /// cell's result in plan order, and the export over them.
    pub(super) fn run_sweep(name: &str, tokens: &[&str]) -> (Plan, Vec<CellResult>, Export) {
        let plan = build(name, &args(tokens)).expect("registered sweep");
        let stats = StatsCollector::new();
        let results: Vec<CellResult> = plan.cells.iter().map(|c| (c.run)(&stats)).collect();
        let export = (plan.export)(&results.iter().collect::<Vec<_>>());
        (plan, results, export)
    }

    /// The result of the cell labelled `label`.
    pub(super) fn cell<'r>(plan: &Plan, results: &'r [CellResult], label: &str) -> &'r CellResult {
        let i = plan.cells.iter().position(|c| c.label == label);
        &results[i.unwrap_or_else(|| panic!("no cell {label}"))]
    }

    /// The mean converged time of a cell.
    pub(super) fn mean(result: &CellResult) -> f64 {
        result
            .trials
            .as_ref()
            .and_then(TrialSummary::summary)
            .expect("converged runs")
            .mean
    }

    #[test]
    fn every_registered_name_builds() {
        let quick = args(&["--quick"]);
        for (name, _) in NAMES {
            let plan = build(name, &quick).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(plan.name, name);
            assert!(!plan.cells.is_empty(), "{name} has no cells");
            for cell in &plan.cells {
                assert_eq!(cell.manifest.experiment, name);
                assert_eq!(cell.manifest.get("cell"), Some(cell.label.as_str()));
            }
        }
        assert!(build("nope", &quick).is_none());
    }

    #[test]
    fn manifests_are_distinct_within_a_plan() {
        for (name, _) in NAMES {
            let plan = build(name, &args(&["--quick"])).unwrap();
            let mut hashes: Vec<String> = plan.cells.iter().map(|c| c.manifest.hash()).collect();
            hashes.sort();
            hashes.dedup();
            assert_eq!(hashes.len(), plan.cells.len(), "{name} has colliding cells");
        }
    }

    #[test]
    fn parallelism_does_not_enter_the_manifest() {
        let serial = build("fig3", &args(&["--quick", "--serial"])).unwrap();
        let threads = build("fig3", &args(&["--quick", "--threads", "4"])).unwrap();
        for (a, b) in serial.cells.iter().zip(&threads.cells) {
            assert_eq!(a.manifest.hash(), b.manifest.hash());
        }
    }

    #[test]
    fn seed_enters_the_manifest() {
        let a = build("fig4", &args(&["--quick"])).unwrap();
        let b = build("fig4", &args(&["--quick", "--seed", "99"])).unwrap();
        assert_ne!(a.cells[0].manifest.hash(), b.cells[0].manifest.hash());
    }

    /// Sweeps whose cells run through the scenario plane.
    const SCENARIO_SWEEPS: [&str; 6] = [
        "fig3",
        "fig4",
        "lb_four_state",
        "err_three_state",
        "ablation_d",
        "robustness",
    ];

    #[test]
    fn embedded_scenarios_are_canonical_and_hashed() {
        for name in SCENARIO_SWEEPS {
            let plan = build(name, &args(&["--quick"])).unwrap();
            for cell in &plan.cells {
                let text = cell
                    .manifest
                    .get("scenario")
                    .unwrap_or_else(|| panic!("{name}/{} lacks a scenario param", cell.label));
                let scenario = Scenario::parse(text)
                    .unwrap_or_else(|e| panic!("{name}/{}: embedded scenario: {e}", cell.label));
                assert_eq!(
                    scenario.canonical(),
                    text,
                    "{name}/{}: embedded form is not canonical",
                    cell.label
                );
                assert_eq!(
                    cell.manifest.get("scenario_hash"),
                    Some(scenario.hash().as_str()),
                    "{name}/{}: scenario_hash param disagrees with the scenario",
                    cell.label
                );
            }
        }
    }

    /// The reproducibility contract end to end: parsing the `scenario`
    /// param out of a manifest and running it through [`ScenarioPlan`]
    /// yields exactly the trial payload the cell's own runner checkpoints.
    /// No spec code, flags, or grid indices needed — the manifest alone
    /// re-runs the cell.
    #[test]
    fn manifest_scenario_alone_replays_the_cell() {
        use avc_analysis::harness::{ScenarioPlan, StatsCollector};

        let plan = build("fig3", &args(&["--quick"])).unwrap();
        let cell = plan
            .cells
            .iter()
            .find(|c| c.label == "n=11/avc")
            .expect("quick fig3 has an n=11 avc cell");

        let direct = (cell.run)(&StatsCollector::new());
        let trials = direct.trials.expect("fig3 cells checkpoint trials");

        let replayed = Scenario::parse(cell.manifest.get("scenario").unwrap())
            .expect("embedded scenario parses");
        let results = ScenarioPlan::new(replayed).run();
        let mut samples = results.converged_times();
        samples.sort_by(f64::total_cmp);

        assert_eq!(trials.samples, samples, "replay diverged from the cell");
        assert_eq!(trials.error_fraction, results.error_fraction());
        assert_eq!(trials.total_runs, results.outcomes().len() as u64);
    }
}
