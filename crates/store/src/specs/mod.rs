//! Named sweep specs: one per paper artifact.
//!
//! Each spec turns parsed CLI flags into a [`Plan`] — the cell grid with
//! content-addressed manifests plus the export assembly that regenerates
//! the exact `results/*.csv` files. Cells run the experiment modules' own
//! per-cell code (`fig3::run_cell`, `fig4::run_point`, …) and render rows
//! through the same table builders.

mod checks;
mod figures;
mod sweeps;

use crate::record::TrialSummary;
use crate::sweep::Plan;
use avc_analysis::cli::Args;
use avc_analysis::harness::TrialResults;
use avc_analysis::stats::Summary;
use avc_analysis::table::Table;
use avc_population::{ConvergenceRule, Scenario};

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

/// Builds the plan for a named sweep from parsed flags, or `None` for an
/// unknown name.
#[must_use]
pub fn build(name: &str, args: &Args) -> Option<Plan> {
    match name {
        "fig3" => Some(figures::fig3_plan(args)),
        "fig4" => Some(figures::fig4_plan(args)),
        "dynamics" => Some(figures::dynamics_plan(args)),
        "lb_four_state" => Some(sweeps::lb_four_state_plan(args)),
        "lb_info" => Some(sweeps::lb_info_plan(args)),
        "err_three_state" => Some(sweeps::err_three_state_plan(args)),
        "ablation_d" => Some(sweeps::ablation_d_plan(args)),
        "graph_gap" => Some(sweeps::graph_gap_plan(args)),
        "robustness" => Some(sweeps::robustness_plan(args)),
        "mc_avc" => Some(checks::mc_avc_plan(args)),
        "mc_three_state" => Some(checks::mc_three_state_plan(args)),
        _ => None,
    }
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

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()))
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
