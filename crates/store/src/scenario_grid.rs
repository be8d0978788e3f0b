//! Scenario sweeps: the one builder that turns labelled scenarios into a
//! [`Plan`] (`ScenarioSweep::plan`), and the grid files it loads.
//!
//! The registered scenario studies (`fig3`, `fig4`, `lb_four_state`,
//! `err_three_state`, `ablation_d`, `robustness`) declare their cells in
//! `crate::specs`; a grid file declares them in JSON.
//!
//! A grid file is a committed `examples/scenarios/*.grid.json` document
//! bundling many declarative [`Scenario`]s into one sweep — the route by
//! which new protocols get comparison sweeps without any new Rust spec
//! module or binary. `avc sweep <path>.grid.json` runs the grid with the
//! full checkpoint/resume/shard machinery; `avc run <path>.grid.json`
//! executes it store-free; `avc export <path>.grid.json` writes one
//! `results/<name>.csv` with per-cell outcome and timing columns plus the
//! state-count accounting for each protocol.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "name": "rivals_time_vs_n",
//!   "banner": "exact-majority rivals: time vs n",
//!   "quick": {"runs": 3, "max_steps": 10000000, "max_n": 2000},
//!   "cells": [
//!     {"label": "bef/n=1001/gap=1", "scenario": {"schema": 1, "...": "..."}}
//!   ]
//! }
//! ```
//!
//! The optional `quick` block is the CI knob: under `--quick`, `runs` and
//! `max_steps` are clamped to its values and cells with populations above
//! `max_n` are dropped, so the smoke job stays fast while the committed
//! grid keeps its full resolution. Quick cells carry their clamped
//! scenario in the manifest, so quick and full runs never collide in the
//! store.

use crate::manifest::Manifest;
use crate::record::CellResult;
use crate::specs::{scenario_params, trials_of};
use crate::sweep::{Cell, Export, Plan};
use avc_analysis::cli::Args;
use avc_analysis::harness::{spec_states, Parallelism, ScenarioPlan, TrialResults};
use avc_analysis::stats::Summary;
use avc_analysis::table::{fmt_num, Table};
use avc_population::json::Json;
use avc_population::Scenario;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// The quick-profile clamps of a grid file (`"quick"` block), applied only
/// under `--quick`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridQuick {
    /// Upper bound on per-cell `runs`.
    pub runs: Option<u64>,
    /// Upper bound on per-cell `max_steps`.
    pub max_steps: Option<u64>,
    /// Cells with populations above this are dropped.
    pub max_n: Option<u64>,
}

/// One grid cell: a unique label plus the scenario it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Unique cell label (the manifest's `cell` param and the CSV row key).
    pub label: String,
    /// The declarative scenario this cell executes.
    pub scenario: Scenario,
}

/// A parsed scenario-grid file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// Grid name: the experiment name in the store and the CSV file stem.
    pub name: String,
    /// One-line banner shown by `avc sweep`.
    pub banner: String,
    /// Quick-profile clamps (empty defaults when the file has none).
    pub quick: GridQuick,
    /// Cells in file order (the sweep's deterministic grid order).
    pub cells: Vec<GridCell>,
}

/// Whether a JSON document is a scenario grid (as opposed to one scenario):
/// grids have a top-level `cells` array.
#[must_use]
pub fn is_grid(json: &Json) -> bool {
    json.get("cells").is_some()
}

fn u64_opt(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_int()
            .filter(|&i| i >= 0)
            .map(|i| Some(i as u64))
            .ok_or_else(|| format!("grid `{key}` must be a non-negative integer")),
    }
}

impl ScenarioGrid {
    /// Parses a grid document, validating every embedded scenario and
    /// requiring unique cell labels.
    pub fn from_json(json: &Json) -> Result<ScenarioGrid, String> {
        let obj = json.as_obj().ok_or("grid must be a JSON object")?;
        for key in obj.keys() {
            const KNOWN: [&str; 5] = ["schema", "name", "banner", "quick", "cells"];
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown grid field `{key}`"));
            }
        }
        if let Some(schema) = obj.get("schema") {
            if schema.as_int() != Some(1) {
                return Err("unsupported grid schema (expected 1)".to_string());
            }
        }
        let name = obj
            .get("name")
            .and_then(Json::as_str)
            .ok_or("grid needs a string `name` field")?
            .to_string();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!(
                "grid name `{name}` must be non-empty [A-Za-z0-9_] (it becomes the CSV stem)"
            ));
        }
        let banner = obj
            .get("banner")
            .and_then(Json::as_str)
            .unwrap_or(&name)
            .to_string();
        let quick = match obj.get("quick") {
            None => GridQuick::default(),
            Some(q) => {
                let qobj = q.as_obj().ok_or("grid `quick` must be an object")?;
                for key in qobj.keys() {
                    const KNOWN: [&str; 3] = ["runs", "max_steps", "max_n"];
                    if !KNOWN.contains(&key.as_str()) {
                        return Err(format!("unknown grid quick field `{key}`"));
                    }
                }
                let runs = u64_opt(q, "runs")?;
                if runs == Some(0) {
                    return Err("grid quick `runs` must be >= 1".to_string());
                }
                GridQuick {
                    runs,
                    max_steps: u64_opt(q, "max_steps")?,
                    max_n: u64_opt(q, "max_n")?,
                }
            }
        };
        let cells_json = obj
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("grid needs a `cells` array")?;
        if cells_json.is_empty() {
            return Err("grid has no cells".to_string());
        }
        let mut cells = Vec::with_capacity(cells_json.len());
        let mut labels = BTreeSet::new();
        for (i, cell) in cells_json.iter().enumerate() {
            let label = cell
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("grid cell {i} needs a string `label`"))?
                .to_string();
            if !labels.insert(label.clone()) {
                return Err(format!("duplicate grid cell label `{label}`"));
            }
            let scenario_json = cell
                .get("scenario")
                .ok_or_else(|| format!("grid cell `{label}` needs a `scenario` object"))?;
            let scenario = Scenario::from_json(scenario_json)
                .map_err(|e| format!("grid cell `{label}`: {e}"))?;
            cells.push(GridCell { label, scenario });
        }
        Ok(ScenarioGrid {
            name,
            banner,
            quick,
            cells,
        })
    }

    /// Parses a grid file's text.
    pub fn parse(text: &str) -> Result<ScenarioGrid, String> {
        ScenarioGrid::from_json(&Json::parse(text)?)
    }

    /// The cells to execute for a profile: the full grid, or the
    /// quick-clamped subset under `quick`.
    #[must_use]
    pub fn profile_cells(&self, quick: bool) -> Vec<GridCell> {
        if !quick {
            return self.cells.clone();
        }
        self.cells
            .iter()
            .filter(|cell| {
                self.quick
                    .max_n
                    .is_none_or(|max| cell.scenario.instance.population() <= max)
            })
            .map(|cell| {
                let mut scenario = cell.scenario.clone();
                if let Some(runs) = self.quick.runs {
                    scenario.runs = scenario.runs.min(runs);
                }
                if let Some(max_steps) = self.quick.max_steps {
                    scenario.max_steps = scenario.max_steps.min(max_steps);
                }
                GridCell {
                    label: cell.label.clone(),
                    scenario,
                }
            })
            .collect()
    }
}

/// One labelled scenario of a sweep: the batch its cell runs, the
/// manifest params the sweep pins beside the common ones, and how the
/// batch becomes the cell's table rows.
pub(crate) struct SweepCell {
    /// Unique cell label (the manifest's `cell` param).
    pub label: String,
    /// The scenario the cell's batch runs.
    pub scenario: Scenario,
    /// Manifest params beyond those every cell carries (`cell`, `engine`,
    /// `n`, `runs`, `seed` and the embedded scenario with its hash).
    pub params: Vec<(&'static str, String)>,
    /// The cell's table rows and named values, from its batch's results.
    pub rows: Box<dyn Fn(&TrialResults) -> CellResult>,
}

/// A sweep of labelled scenarios: a grid file or one of the registered
/// scenario studies. [`ScenarioSweep::plan`] is the one place such a sweep
/// becomes a [`Plan`].
pub(crate) struct ScenarioSweep {
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

impl ScenarioSweep {
    /// The runnable plan: each cell's manifest, its batch, and a run that
    /// joins that batch and stores the trial payload, the cell's rows and
    /// the batch telemetry. Scenarios are assumed runnable: grid files are
    /// validated at parse time, and specs check theirs while building.
    #[must_use]
    pub(crate) fn plan(self, parallelism: Parallelism) -> Plan {
        let name = self.name;
        let cells = self
            .cells
            .into_iter()
            .map(|cell| {
                let scenario = cell.scenario;
                let manifest = Manifest::new(
                    &name,
                    [
                        ("cell", cell.label.clone()),
                        ("engine", scenario.engine.to_string()),
                        ("n", scenario.instance.population().to_string()),
                        ("runs", scenario.runs.to_string()),
                        ("seed", scenario.seed.to_string()),
                    ]
                    .into_iter()
                    .chain(cell.params)
                    .chain(scenario_params(&scenario)),
                );
                let rows = cell.rows;
                let batch = ScenarioPlan::new(scenario).parallelism(parallelism);
                let run = batch.clone();
                Cell {
                    manifest,
                    label: cell.label,
                    batch: Some(batch),
                    run: Box::new(move |stats| {
                        let (results, telemetry) = run.run_with_telemetry(stats);
                        CellResult {
                            trials: Some(trials_of(&results)),
                            telemetry: Some(telemetry),
                            ..rows(&results)
                        }
                    }),
                }
            })
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

/// The grid CSV columns, in order.
const COLUMNS: [&str; 17] = [
    "cell",
    "protocol",
    "states",
    "n",
    "a",
    "b",
    "engine",
    "scheduler",
    "runs",
    "correct",
    "wrong",
    "timeout",
    "stuck",
    "mean_time",
    "std_error",
    "median_time",
    "max_time",
];

/// Loads a grid file into a runnable [`Plan`] (the `avc sweep`/`avc
/// export` entry point; honors `--quick`).
pub fn load_plan(path: &str, args: &Args) -> Result<Plan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let grid = ScenarioGrid::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(plan_of(&grid, args))
}

/// Builds the [`Plan`] for a parsed grid: one generic row per cell (its
/// scenario, verdict tally and time statistics) and a wrong-consensus
/// trailer.
#[must_use]
pub fn plan_of(grid: &ScenarioGrid, args: &Args) -> Plan {
    let quick = args.flag("quick");
    let stem = grid.name.clone();
    let cells = grid
        .profile_cells(quick)
        .into_iter()
        .map(|cell| {
            let scenario = cell.scenario;
            let states = spec_states(scenario.protocol);
            let params = vec![
                ("protocol", scenario.protocol.to_string()),
                ("states", states.to_string()),
                ("scheduler", scenario.scheduler.to_string()),
                ("a", scenario.instance.a().to_string()),
                ("b", scenario.instance.b().to_string()),
            ];
            let (label, stem, described) = (cell.label.clone(), stem.clone(), scenario.clone());
            SweepCell {
                label: cell.label,
                scenario,
                params,
                rows: Box::new(move |results| {
                    let tally = results.tally();
                    let times = results.converged_times();
                    let summary = (!times.is_empty()).then(|| Summary::from_samples(&times));
                    let stat = |f: fn(&Summary) -> f64| {
                        summary.as_ref().map_or("-".to_string(), |s| fmt_num(f(s)))
                    };
                    let row = vec![
                        label.clone(),
                        described.protocol.to_string(),
                        states.to_string(),
                        described.instance.population().to_string(),
                        described.instance.a().to_string(),
                        described.instance.b().to_string(),
                        described.engine.to_string(),
                        described.scheduler.to_string(),
                        results.outcomes().len().to_string(),
                        tally.correct.to_string(),
                        tally.wrong.to_string(),
                        tally.timed_out.to_string(),
                        tally.stuck.to_string(),
                        stat(|s| s.mean),
                        stat(Summary::std_error),
                        stat(|s| s.median),
                        stat(|s| s.max),
                    ];
                    CellResult {
                        tables: BTreeMap::from([(stem.clone(), vec![row])]),
                        values: BTreeMap::from([("wrong".to_string(), tally.wrong as f64)]),
                        ..CellResult::default()
                    }
                }),
            }
        })
        .collect();
    let banner = if quick {
        format!("{} [quick profile]", grid.banner)
    } else {
        grid.banner.clone()
    };
    let title = grid.banner.clone();
    ScenarioSweep {
        name: grid.name.clone(),
        banner,
        cells,
        export: Box::new(move |results| {
            let wrong: f64 = results.iter().filter_map(|r| r.value("wrong")).sum();
            Export {
                tables: vec![(stem.clone(), Table::new(title.clone(), COLUMNS))],
                trailer: vec![format!(
                    "wrong_consensus={wrong} across {} cells",
                    results.len()
                )],
            }
        }),
    }
    .plan(args.parallelism())
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_analysis::harness::StatsCollector;

    fn sample_grid() -> String {
        r#"{
          "schema": 1,
          "name": "mini_grid",
          "banner": "two tiny rival cells",
          "quick": {"runs": 2, "max_steps": 500000, "max_n": 12},
          "cells": [
            {"label": "bef/n=11", "scenario": {
              "schema": 1, "protocol": "bef(l=3)", "instance": {"a": 6, "b": 5},
              "engine": "count", "rule": "output_consensus",
              "max_steps": 2000000, "runs": 4, "seed": 7}},
            {"label": "degssu/n=11", "scenario": {
              "schema": 1, "protocol": "degssu(l=3,t=2)", "instance": {"a": 6, "b": 5},
              "engine": "count", "rule": "output_consensus",
              "max_steps": 2000000, "runs": 4, "seed": 7}},
            {"label": "four_state/n=101", "scenario": {
              "schema": 1, "protocol": "four_state", "instance": {"a": 51, "b": 50},
              "engine": "count", "rule": "output_consensus",
              "max_steps": 2000000, "runs": 4, "seed": 7}}
          ]
        }"#
        .to_string()
    }

    #[test]
    fn parses_and_validates() {
        let grid = ScenarioGrid::parse(&sample_grid()).expect("valid grid");
        assert_eq!(grid.name, "mini_grid");
        assert_eq!(grid.cells.len(), 3);
        assert_eq!(grid.quick.runs, Some(2));
        // Full profile keeps everything; quick drops the n=101 cell and
        // clamps runs.
        assert_eq!(grid.profile_cells(false).len(), 3);
        let quick = grid.profile_cells(true);
        assert_eq!(quick.len(), 2);
        assert!(quick.iter().all(|c| c.scenario.runs == 2));
        assert!(quick.iter().all(|c| c.scenario.max_steps == 500_000));
    }

    #[test]
    fn rejects_malformed_grids() {
        assert!(ScenarioGrid::parse("{}").is_err());
        let dup = sample_grid().replace("degssu/n=11", "bef/n=11");
        let err = ScenarioGrid::parse(&dup).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let bad_proto = sample_grid().replace("bef(l=3)", "avc(m=2,d=0)");
        let err = ScenarioGrid::parse(&bad_proto).unwrap_err();
        assert!(err.contains("avc m must be odd"), "{err}");
        let unknown = sample_grid().replace("\"banner\"", "\"bannner\"");
        assert!(ScenarioGrid::parse(&unknown).is_err());
        let no_runs = sample_grid().replace("\"quick\": {\"runs\": 2", "\"quick\": {\"runs\": 0");
        let err = ScenarioGrid::parse(&no_runs).unwrap_err();
        assert!(err.contains("quick `runs` must be >= 1"), "{err}");
    }

    #[test]
    fn grid_detection() {
        assert!(is_grid(&Json::parse(&sample_grid()).unwrap()));
        let single = r#"{"schema":1,"protocol":"voter","instance":{"a":2,"b":1},
                         "engine":"count","rule":"output_consensus","runs":1,"seed":1}"#;
        assert!(!is_grid(&Json::parse(single).unwrap()));
    }

    #[test]
    fn plan_runs_cells_and_exports_rows() {
        let grid = ScenarioGrid::parse(&sample_grid()).expect("valid grid");
        let args = Args::parse(["--quick".to_string()]);
        let plan = plan_of(&grid, &args);
        assert_eq!(plan.name, "mini_grid");
        assert_eq!(plan.cells.len(), 2);
        let stats = StatsCollector::new();
        let results: Vec<CellResult> = plan.cells.iter().map(|c| (c.run)(&stats)).collect();
        let refs: Vec<&CellResult> = results.iter().collect();
        let export = (plan.export)(&refs);
        assert_eq!(export.tables.len(), 1);
        let (stem, table) = &export.tables[0];
        assert_eq!(stem, "mini_grid");
        assert_eq!(table.num_rows(), 2);
        // Exactness: margin-1 cells with generous budgets never err.
        assert!(export.trailer[0].starts_with("wrong_consensus=0"));
        // The state-count accounting column is the resolved protocol size.
        assert_eq!(table.rows()[0][2], "10"); // bef(l=3): 2·4+2
        assert_eq!(table.rows()[1][2], "26"); // degssu(l=3,t=2): 2·4·3+2
    }

    #[test]
    fn manifests_embed_the_effective_scenario() {
        let grid = ScenarioGrid::parse(&sample_grid()).expect("valid grid");
        let full = plan_of(&grid, &Args::parse(Vec::new()));
        let quick = plan_of(&grid, &Args::parse(["--quick".to_string()]));
        // Quick cells clamp runs, so their manifests (and store identities)
        // differ from the full profile's.
        let full_params: Vec<_> = full.cells.iter().map(|c| c.manifest.hash()).collect();
        let quick_params: Vec<_> = quick.cells.iter().map(|c| c.manifest.hash()).collect();
        assert!(quick_params.iter().all(|h| !full_params.contains(h)));
    }
}
