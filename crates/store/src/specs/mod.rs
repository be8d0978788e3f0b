//! Named sweep specs: one per paper artifact, and the one builder that
//! turns any declared sweep into a [`Plan`].
//!
//! A spec module declares only its flags and `--quick` profile, its ordered
//! cells, each cell's rows and its export's titled tables and trailer: a
//! `Sweep`. A cell either runs a batch of seeded scenarios
//! (`SweepCell::batch`: fig3, fig4, lb_four_state, err_three_state,
//! ablation_d, robustness and every grid file) or computes its result
//! itself (`SweepCell::computed`: lb_info's knowledge-set cover,
//! graph_gap's runs on one interaction graph, dynamics' traced run and the
//! model checks). `Sweep::plan` does the rest: the content-addressed
//! manifests, the runs, and the export that fills each titled table with
//! the cells' rows and regenerates the exact `results/*.csv` files.

mod ablation_d;
mod checks;
mod dynamics;
mod err_three_state;
mod fig3;
mod fig4;
mod graph_gap;
mod lb_four_state;
mod lb_info;
mod robustness;

use crate::manifest::Manifest;
use crate::record::{CellResult, TrialSummary};
use crate::sweep::{Cell, Export, Plan};
use avc_analysis::cli::{Args, FlagError};
use avc_analysis::harness::{Parallelism, ScenarioPlan, StatsCollector, TrialResults};
use avc_analysis::stats::Summary;
use avc_population::{ConvergenceRule, MajorityInstance, Scenario};
use avc_protocols::Avc;

/// A registered sweep: the name `avc sweep` takes, its `avc help` line and
/// the spec that declares it from parsed flags.
pub struct Registered {
    /// The sweep's name, also its experiment name in the store.
    pub name: &'static str,
    /// What the sweep reproduces, for `avc help` and `avc ls`.
    pub description: &'static str,
    declare: fn(&Args) -> Result<Sweep, FlagError>,
}

/// Every registered sweep, in `avc help` order.
pub const SWEEPS: [Registered; 11] = [
    Registered {
        name: "fig3",
        description: "Figure 3: 3-state vs 4-state vs n-state AVC at eps = 1/n",
        declare: fig3::sweep,
    },
    Registered {
        name: "fig4",
        description: "Figure 4: AVC time vs margin for 13 state counts",
        declare: fig4::sweep,
    },
    Registered {
        name: "lb_four_state",
        description: "Theorem B.1: four-state Θ(1/eps) scaling exponent",
        declare: lb_four_state::sweep,
    },
    Registered {
        name: "lb_info",
        description: "Theorem C.1: knowledge-set cover time (Ω(log n) bound)",
        declare: lb_info::sweep,
    },
    Registered {
        name: "err_three_state",
        description: "PVV09 error law: three-state error fraction vs the KL bound",
        declare: err_three_state::sweep,
    },
    Registered {
        name: "ablation_d",
        description: "§6 ablation: state-budget split between m and d",
        declare: ablation_d::sweep,
    },
    Registered {
        name: "dynamics",
        description: "§4 structure: one traced AVC trajectory",
        declare: dynamics::sweep,
    },
    Registered {
        name: "graph_gap",
        description: "DV12: four-state time vs interaction-graph spectral gap",
        declare: graph_gap::sweep,
    },
    Registered {
        name: "robustness",
        description: "Exactness under adversarial schedulers and injected faults",
        declare: robustness::sweep,
    },
    Registered {
        name: "mc_avc",
        description: "Model check: AVC invariants and exactness (exhaustive)",
        declare: checks::mc_avc,
    },
    Registered {
        name: "mc_three_state",
        description: "Model check: MNRS14 three-state impossibility (exhaustive)",
        declare: checks::mc_three_state,
    },
];

/// Builds the plan for a named sweep from parsed flags: `None` for an
/// unknown name, an error naming the flag whose value does not parse or
/// cannot run.
pub fn try_build(name: &str, args: &Args) -> Option<Result<Plan, FlagError>> {
    let spec = SWEEPS.iter().find(|spec| spec.name == name)?;
    Some((spec.declare)(args).and_then(|sweep| Ok(sweep.plan(args.parallelism()?))))
}

/// [`try_build`] with a bad flag value panicking: the surface the
/// `sweep_bench` benchmark drives.
#[must_use]
pub fn build(name: &str, args: &Args) -> Option<Plan> {
    try_build(name, args).map(|plan| plan.unwrap_or_else(|e| panic!("{e}")))
}

/// What a [`SweepCell`] computes.
enum Work {
    /// A seeded scenario batch, and how its results become the cell's
    /// rows and named values.
    Batch(Scenario, Box<dyn Fn(&TrialResults) -> CellResult>),
    /// Any other computation of the cell's result.
    Computed(Box<dyn Fn(&StatsCollector) -> CellResult>),
}

/// One labelled cell of a [`Sweep`]: the manifest params it declares and
/// what it computes.
pub(crate) struct SweepCell {
    label: String,
    params: Vec<(&'static str, String)>,
    work: Work,
}

impl SweepCell {
    /// A cell that runs `scenario`'s trial batch. Its manifest is `cell`,
    /// `engine`, `n`, `runs` and `seed`, then `params`, then the embedded
    /// scenario with its hash; `rows` turns the batch's results into the
    /// cell's table rows and named values. The scenario must be runnable:
    /// grid files are validated at parse time, and specs check theirs
    /// while declaring.
    pub(crate) fn batch(
        label: String,
        params: Vec<(&'static str, String)>,
        scenario: Scenario,
        rows: impl Fn(&TrialResults) -> CellResult + 'static,
    ) -> SweepCell {
        SweepCell {
            label,
            params,
            work: Work::Batch(scenario, Box::new(rows)),
        }
    }

    /// A cell whose result `run` computes. Its manifest is `cell` and
    /// `params`, which must pin everything the result depends on; `run`
    /// records in the collector the throughput of any trials it runs.
    pub(crate) fn computed(
        label: String,
        params: Vec<(&'static str, String)>,
        run: impl Fn(&StatsCollector) -> CellResult + 'static,
    ) -> SweepCell {
        SweepCell {
            label,
            params,
            work: Work::Computed(Box::new(run)),
        }
    }

    /// The runnable cell of the sweep `name`. A batch cell stores the
    /// trial payload and the batch telemetry beside its rows.
    fn build(self, name: &str, parallelism: Parallelism) -> Cell {
        let cell = ("cell", self.label.clone());
        let (scenario, rows) = match self.work {
            Work::Batch(scenario, rows) => (scenario, rows),
            Work::Computed(run) => {
                return Cell {
                    manifest: Manifest::new(name, std::iter::once(cell).chain(self.params)),
                    label: self.label,
                    batch: None,
                    run,
                };
            }
        };
        let common = [
            cell,
            ("engine", scenario.engine.to_string()),
            ("n", scenario.instance.population().to_string()),
            ("runs", scenario.runs.to_string()),
            ("seed", scenario.seed.to_string()),
        ];
        let params = common.into_iter().chain(self.params);
        let manifest = Manifest::new(name, params.chain(scenario_params(&scenario)));
        let batch = ScenarioPlan::new(scenario).parallelism(parallelism);
        let plan = batch.clone();
        Cell {
            manifest,
            label: self.label,
            batch: Some(batch),
            run: Box::new(move |stats| {
                let (results, telemetry) = plan.run_with_telemetry(stats);
                CellResult {
                    trials: Some(trials_of(&results)),
                    telemetry: Some(telemetry),
                    ..rows(&results)
                }
            }),
        }
    }
}

/// A declared sweep: a grid file or a registered spec. [`Sweep::plan`] is
/// the one place a sweep becomes a [`Plan`].
pub(crate) struct Sweep {
    /// Experiment name in the store.
    pub name: String,
    /// One-line banner shown by `avc sweep`.
    pub banner: String,
    /// Cells in grid order.
    pub cells: Vec<SweepCell>,
    /// The export's titled, still empty tables (by CSV stem) and its
    /// trailer lines, from the results in cell order; the plan fills each
    /// table with every cell's rows for its stem.
    #[allow(clippy::type_complexity)]
    pub export: Box<dyn Fn(&[&CellResult]) -> Export>,
}

impl Sweep {
    /// The runnable plan: each cell's manifest and run, and the export.
    #[must_use]
    pub(crate) fn plan(self, parallelism: Parallelism) -> Plan {
        let name = self.name;
        let cells = self
            .cells
            .into_iter()
            .map(|cell| cell.build(&name, parallelism))
            .collect();
        let export = self.export;
        Plan {
            name,
            banner: self.banner,
            cells,
            export: Box::new(move |results| {
                let mut export = export(results);
                for (stem, table) in &mut export.tables {
                    for row in results.iter().flat_map(|r| r.rows(stem)) {
                        table.push_row(row.clone());
                    }
                }
                export
            }),
        }
    }
}

/// Extracts the durable trial payload from harness results: converged-time
/// samples in the canonical `Summary` order plus error bookkeeping.
fn trials_of(results: &TrialResults) -> TrialSummary {
    let mut samples = results.converged_times();
    samples.sort_by(f64::total_cmp);
    TrialSummary {
        samples,
        error_fraction: results.error_fraction(),
        total_runs: results.outcomes().len() as u64,
    }
}

/// As [`trials_of`] for cells that only retain a [`Summary`] (every
/// trial converged; no error notion).
fn trials_of_summary(summary: &Summary) -> TrialSummary {
    TrialSummary {
        samples: summary.samples().to_vec(),
        error_fraction: 0.0,
        total_runs: summary.count as u64,
    }
}

/// A cell's contribution to the export: one row per named table and the
/// named values the export reads back.
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
    match args.get_u64("runs", default)? {
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
fn scenario_params(scenario: &Scenario) -> [(&'static str, String); 2] {
    [
        ("scenario", scenario.canonical()),
        ("scenario_hash", scenario.hash()),
    ]
}

/// The manifest name of a convergence rule (the scenario plane's canonical
/// rule names).
fn rule_name(rule: ConvergenceRule) -> &'static str {
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
        for Registered { name, .. } in SWEEPS {
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
        for Registered { name, .. } in SWEEPS {
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

    #[test]
    fn trials_of_matches_results() {
        use avc_analysis::harness::EngineKind;
        use avc_population::ProtocolSpec;
        let scenario = Scenario::new(ProtocolSpec::FourState, MajorityInstance::one_extra(101))
            .engine(EngineKind::Jump)
            .runs(5)
            .seed(3);
        let results = ScenarioPlan::new(scenario).run();
        let trials = trials_of(&results);
        assert_eq!(trials.total_runs, 5);
        assert_eq!(trials.error_fraction, 0.0);
        assert_eq!(trials.summary().unwrap(), results.summary());
    }
}
