//! Sweep specs that run no scenario batch: the knowledge-set cover of
//! `lb_info`, the interaction-graph study `graph_gap` and the traced
//! `dynamics` run.

use super::{only_row, runs_flag, trials_of_summary, FlagError};
use crate::manifest::Manifest;
use crate::record::{f64_to_hex, CellResult};
use crate::sweep::{Cell, Export, Plan};
use avc_analysis::cli::Args;
use avc_analysis::experiments::{dynamics, graph_gap};
use avc_analysis::harness::run_indexed_with_stats;
use avc_analysis::stats::{loglog_slope, Summary};
use avc_analysis::table::{fmt_num, Table};
use avc_population::rngutil::SeedSequence;
use avc_verify::knowledge::{cover_steps, expected_cover_steps};
use std::collections::BTreeMap;

/// The inline configuration of the `lb_info` study (it has no module in
/// `avc-analysis`: the experiment is a direct harness loop over
/// [`cover_steps`]).
#[derive(Debug, Clone)]
struct LbInfoConfig {
    ns: Vec<u64>,
    runs: u64,
    seed: u64,
    parallelism: avc_analysis::harness::Parallelism,
}

impl LbInfoConfig {
    fn from_args(args: &Args) -> Result<LbInfoConfig, FlagError> {
        let default_ns: Vec<u64> = if args.flag("quick") {
            vec![100, 1_000, 10_000]
        } else {
            vec![100, 1_000, 10_000, 100_000, 1_000_000]
        };
        Ok(LbInfoConfig {
            ns: args.get_u64_list("ns", &default_ns),
            runs: runs_flag(args, 101)?,
            seed: args.get_u64("seed", 12),
            parallelism: args.parallelism(),
        })
    }
}

fn lb_info_table() -> Table {
    Table::new(
        "Information-propagation lower bound: steps until |K_t| = n",
        [
            "n",
            "mean_steps",
            "expected_steps_closed_form",
            "mean_parallel_time",
            "ln_n",
            "runs",
        ],
    )
}

pub(super) fn lb_info_plan(args: &Args) -> Result<Plan, FlagError> {
    let config = LbInfoConfig::from_args(args)?;
    let mut cells = Vec::new();
    for (i, &n) in config.ns.iter().enumerate() {
        let label = format!("n={n}");
        let manifest = Manifest::new(
            "lb_info",
            [
                ("cell", label.clone()),
                ("kind", "knowledge_cover".to_string()),
                ("n", n.to_string()),
                ("runs", config.runs.to_string()),
                ("seed", config.seed.to_string()),
                ("seed_child", i.to_string()),
            ],
        );
        let config = config.clone();
        cells.push(Cell {
            manifest,
            label,
            run: Box::new(move |stats| {
                let cell_seeds = SeedSequence::new(config.seed).child(i as u64);
                let (samples, batch) =
                    run_indexed_with_stats(config.runs, config.parallelism, |t| {
                        let mut rng = cell_seeds.rng_for(t);
                        let steps = cover_steps(n, &mut rng);
                        (steps as f64, steps)
                    });
                stats.record(&batch);
                let summary = Summary::from_samples(&samples);
                let parallel = summary.mean / n as f64;
                let row = vec![
                    n.to_string(),
                    fmt_num(summary.mean),
                    fmt_num(expected_cover_steps(n)),
                    fmt_num(parallel),
                    fmt_num((n as f64).ln()),
                    config.runs.to_string(),
                ];
                CellResult {
                    trials: Some(trials_of_summary(&summary)),
                    tables: BTreeMap::from([("lb_info".to_string(), vec![row])]),
                    ..CellResult::default()
                }
            }),
        });
    }

    let banner = format!(
        "knowledge-set cover time, n in {:?}, {} runs per n",
        config.ns, config.runs
    );
    let export_config = config;
    Ok(Plan {
        name: "lb_info".to_string(),
        banner,
        cells,
        export: Box::new(move |results| {
            let mut table = lb_info_table();
            let mut lns = Vec::new();
            let mut times = Vec::new();
            for (i, r) in results.iter().enumerate() {
                for row in r.rows("lb_info") {
                    table.push_row(row.clone());
                }
                if let Some(summary) = r.trials.as_ref().and_then(|t| t.summary()) {
                    let n = export_config.ns[i] as f64;
                    lns.push(n.ln());
                    times.push(summary.mean / n);
                }
            }
            let slope = loglog_slope(&lns, &times);
            let trailer = format!(
                "log-log slope of parallel cover time vs ln n: {slope:.3} (theory: linear in ln n ⇒ 1)"
            );
            Export {
                tables: vec![("lb_info".to_string(), table)],
                trailer: vec![trailer],
            }
        }),
    })
}

pub(super) fn graph_gap_plan(args: &Args) -> Result<Plan, FlagError> {
    let mut config = graph_gap::Config::from_args(args);
    config.runs = runs_flag(args, config.runs)?;
    let mut cells = Vec::new();
    let topology_labels: Vec<String> = graph_gap::topologies(config.n, config.seed)
        .into_iter()
        .map(|(label, _)| label)
        .collect();
    for (gi, topology) in topology_labels.iter().enumerate() {
        let label = format!("graph={topology}");
        let manifest = Manifest::new(
            "graph_gap",
            [
                ("cell", label.clone()),
                ("protocol", "four_state".to_string()),
                ("engine", "agent".to_string()),
                ("topology", topology.clone()),
                ("topology_index", gi.to_string()),
                ("n", config.n.to_string()),
                ("eps", f64_to_hex(config.epsilon)),
                ("eps_text", format!("{}", config.epsilon)),
                ("runs", config.runs.to_string()),
                ("seed", config.seed.to_string()),
                ("max_steps", config.max_steps.to_string()),
            ],
        );
        let config = config.clone();
        cells.push(Cell {
            manifest,
            label,
            run: Box::new(move |stats| {
                let point = graph_gap::run_point(&config, gi, stats);
                CellResult {
                    trials: point.summary.as_ref().map(trials_of_summary),
                    tables: BTreeMap::from([(
                        "graph_gap".to_string(),
                        vec![only_row(&graph_gap::table(
                            std::slice::from_ref(&point),
                            &config,
                        ))],
                    )]),
                    values: BTreeMap::from([
                        ("spectral_gap".to_string(), point.gap),
                        ("timeouts".to_string(), point.timeouts as f64),
                    ]),
                    ..CellResult::default()
                }
            }),
        });
    }

    let banner = format!(
        "four-state protocol across topologies, n ≈ {}, eps = {}, {} runs",
        config.n, config.epsilon, config.runs
    );
    let export_config = config;
    Ok(Plan {
        name: "graph_gap".to_string(),
        banner,
        cells,
        export: Box::new(move |results| {
            let mut table = graph_gap::table(&[], &export_config);
            for r in results {
                for row in r.rows("graph_gap") {
                    table.push_row(row.clone());
                }
            }
            Export {
                tables: vec![("graph_gap".to_string(), table)],
                trailer: vec![],
            }
        }),
    })
}

pub(super) fn dynamics_plan(args: &Args) -> Plan {
    let config = dynamics::Config::from_args(args);
    let label = format!(
        "n={}/m={}/d={}/eps={:e}",
        config.n, config.m, config.d, config.epsilon
    );
    let manifest = Manifest::new(
        "dynamics",
        [
            ("cell", label.clone()),
            ("protocol", "avc".to_string()),
            ("engine", "count".to_string()),
            ("rule", "output_consensus".to_string()),
            ("n", config.n.to_string()),
            ("m", config.m.to_string()),
            ("d", config.d.to_string()),
            ("eps", f64_to_hex(config.epsilon)),
            ("eps_text", format!("{:e}", config.epsilon)),
            ("cadence", config.cadence.to_string()),
            ("seed", config.seed.to_string()),
        ],
    );

    let run_config = config.clone();
    let cell = Cell {
        manifest,
        label,
        run: Box::new(move |_stats| {
            let trace = dynamics::run(&run_config);
            let table = dynamics::table(&trace, &run_config);
            CellResult {
                tables: BTreeMap::from([("dynamics".to_string(), table.rows().to_vec())]),
                values: BTreeMap::from([(
                    "parallel_time".to_string(),
                    trace.outcome.parallel_time,
                )]),
                notes: vec![format!("{:?}", trace.outcome.verdict)],
                ..CellResult::default()
            }
        }),
    };

    let banner = format!(
        "one AVC run: n = {}, m = {}, d = {}, eps = {}",
        config.n, config.m, config.d, config.epsilon
    );
    let export_config = config;
    Plan {
        name: "dynamics".to_string(),
        banner,
        cells: vec![cell],
        export: Box::new(move |results| {
            let r = results[0];
            // Rebuild the titled table around the stored rows.
            let empty = avc_population::trace::Trace {
                samples: Vec::new(),
                names: dynamics::STATISTICS.iter().map(|s| s.to_string()).collect(),
                outcome: avc_population::spec::RunOutcome {
                    steps: 0,
                    parallel_time: 0.0,
                    verdict: avc_population::spec::Verdict::MaxSteps,
                },
            };
            let mut table = dynamics::table(&empty, &export_config);
            for row in r.rows("dynamics") {
                table.push_row(row.clone());
            }
            let verdict = r.notes.first().cloned().unwrap_or_default();
            let trailer = format!(
                "run converged: {verdict} at parallel time {:.1}",
                r.value("parallel_time").unwrap_or(f64::NAN)
            );
            Export {
                tables: vec![("dynamics".to_string(), table)],
                trailer: vec![trailer],
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use crate::specs::trials_of;

    #[test]
    fn trials_of_matches_results() {
        use avc_analysis::harness::{EngineKind, ScenarioPlan};
        use avc_population::{MajorityInstance, ProtocolSpec, Scenario};
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
