//! Sweep specs for the lower-bound and ablation studies.

use super::{only_row, rule_name, scenario_params, trials_of_summary};
use crate::manifest::Manifest;
use crate::record::{f64_to_hex, CellResult, TrialSummary};
use crate::sweep::{Cell, Export, Plan};
use avc_analysis::cli::Args;
use avc_analysis::experiments::{
    ablation_d, four_state_scaling, graph_gap, robustness, three_state_error,
};
use avc_analysis::harness::run_indexed_with_stats;
use avc_analysis::stats::{loglog_slope, Summary};
use avc_analysis::table::{fmt_num, Table};
use avc_population::rngutil::SeedSequence;
use avc_verify::knowledge::{cover_steps, expected_cover_steps};
use std::collections::BTreeMap;

pub(super) fn lb_four_state_plan(args: &Args) -> Plan {
    let config = four_state_scaling::Config::from_args(args);
    let mut cells = Vec::new();
    for (i, &eps) in config.epsilons.iter().enumerate() {
        let label = format!("eps={eps:e}");
        let scenario = four_state_scaling::cell_scenario(&config, i);
        let manifest = Manifest::new(
            "lb_four_state",
            [
                ("cell", label.clone()),
                ("protocol", "four_state".to_string()),
                ("engine", scenario.engine.to_string()),
                ("rule", rule_name(scenario.rule).to_string()),
                ("n", config.n.to_string()),
                ("eps", f64_to_hex(eps)),
                ("eps_text", format!("{eps:e}")),
                ("runs", config.runs.to_string()),
                ("seed", scenario.seed.to_string()),
            ]
            .into_iter()
            .chain(scenario_params(&scenario)),
        );
        let config = config.clone();
        cells.push(Cell {
            manifest,
            label,
            run: Box::new(move |stats| {
                let point = four_state_scaling::run_point(&config, i, stats);
                // Row rendering is slope-independent; use a placeholder
                // outcome to reuse the canonical table builder.
                let shell = four_state_scaling::Outcome {
                    points: vec![point.clone()],
                    slope: 0.0,
                };
                CellResult {
                    trials: Some(trials_of_summary(&point.summary)),
                    tables: BTreeMap::from([(
                        "lb_four_state".to_string(),
                        vec![only_row(&four_state_scaling::table(&shell, config.n))],
                    )]),
                    values: BTreeMap::from([("achieved_eps".to_string(), point.epsilon)]),
                    ..CellResult::default()
                }
            }),
        });
    }

    let banner = format!(
        "four-state protocol time vs margin at n = {}, {} runs per margin",
        config.n, config.runs
    );
    let export_config = config;
    Plan {
        name: "lb_four_state".to_string(),
        banner,
        cells,
        export: Box::new(move |results| {
            let points: Vec<four_state_scaling::Point> = results
                .iter()
                .filter_map(|r| {
                    Some(four_state_scaling::Point {
                        epsilon: r.value("achieved_eps")?,
                        summary: r.trials.as_ref()?.summary()?,
                    })
                })
                .collect();
            let outcome = four_state_scaling::Outcome {
                slope: four_state_scaling::fit_slope(&points),
                points,
            };
            let mut table = four_state_scaling::table(
                &four_state_scaling::Outcome {
                    points: Vec::new(),
                    slope: outcome.slope,
                },
                export_config.n,
            );
            for r in results {
                for row in r.rows("lb_four_state") {
                    table.push_row(row.clone());
                }
            }
            let trailer = format!(
                "fitted log-log slope of time vs 1/eps: {:.3} (theory: Θ(1/eps) ⇒ 1)",
                outcome.slope
            );
            Export {
                tables: vec![("lb_four_state".to_string(), table)],
                trailer: vec![trailer],
            }
        }),
    }
}

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
    fn from_args(args: &Args) -> LbInfoConfig {
        let default_ns: Vec<u64> = if args.flag("quick") {
            vec![100, 1_000, 10_000]
        } else {
            vec![100, 1_000, 10_000, 100_000, 1_000_000]
        };
        LbInfoConfig {
            ns: args.get_u64_list("ns", &default_ns),
            runs: args.get_u64("runs", 101),
            seed: args.get_u64("seed", 12),
            parallelism: args.parallelism(),
        }
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

pub(super) fn lb_info_plan(args: &Args) -> Plan {
    let config = LbInfoConfig::from_args(args);
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
    Plan {
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
    }
}

pub(super) fn err_three_state_plan(args: &Args) -> Plan {
    let config = three_state_error::Config::from_args(args);
    let mut cells = Vec::new();
    for (ni, &n) in config.ns.iter().enumerate() {
        for (ei, &eps) in config.epsilons.iter().enumerate() {
            let label = format!("n={n}/eps={eps}");
            let scenario = three_state_error::cell_scenario(&config, ni, ei);
            let manifest = Manifest::new(
                "err_three_state",
                [
                    ("cell", label.clone()),
                    ("protocol", "three_state".to_string()),
                    ("engine", scenario.engine.to_string()),
                    ("rule", rule_name(scenario.rule).to_string()),
                    ("n", n.to_string()),
                    ("eps", f64_to_hex(eps)),
                    ("eps_text", format!("{eps}")),
                    ("runs", config.runs.to_string()),
                    ("seed", scenario.seed.to_string()),
                ]
                .into_iter()
                .chain(scenario_params(&scenario)),
            );
            let config = config.clone();
            cells.push(Cell {
                manifest,
                label,
                run: Box::new(move |stats| {
                    let point = three_state_error::run_point(&config, ni, ei, stats);
                    CellResult {
                        tables: BTreeMap::from([(
                            "err_three_state".to_string(),
                            vec![only_row(&three_state_error::table(std::slice::from_ref(
                                &point,
                            )))],
                        )]),
                        values: BTreeMap::from([
                            ("error_fraction".to_string(), point.error_fraction),
                            ("kl_bound".to_string(), point.kl_bound),
                        ]),
                        ..CellResult::default()
                    }
                }),
            });
        }
    }

    let banner = format!(
        "error fraction vs KL bound, n in {:?}, {} runs per point",
        config.ns, config.runs
    );
    Plan {
        name: "err_three_state".to_string(),
        banner,
        cells,
        export: Box::new(|results| {
            let mut table = three_state_error::table(&[]);
            for r in results {
                for row in r.rows("err_three_state") {
                    table.push_row(row.clone());
                }
            }
            Export {
                tables: vec![("err_three_state".to_string(), table)],
                trailer: vec![],
            }
        }),
    }
}

pub(super) fn ablation_d_plan(args: &Args) -> Plan {
    let config = ablation_d::Config::from_args(args);
    let mut cells = Vec::new();
    for (i, &d) in config.ds.iter().enumerate() {
        let label = format!("d={d}");
        let scenario = ablation_d::cell_scenario(&config, i);
        let manifest = Manifest::new(
            "ablation_d",
            [
                ("cell", label.clone()),
                ("protocol", "avc".to_string()),
                ("engine", scenario.engine.to_string()),
                ("rule", rule_name(scenario.rule).to_string()),
                ("n", config.n.to_string()),
                ("budget", config.state_budget.to_string()),
                ("d", d.to_string()),
                ("runs", config.runs.to_string()),
                ("seed", scenario.seed.to_string()),
            ]
            .into_iter()
            .chain(scenario_params(&scenario)),
        );
        let config = config.clone();
        cells.push(Cell {
            manifest,
            label,
            run: Box::new(move |stats| {
                let point = ablation_d::run_point(&config, i, stats);
                CellResult {
                    trials: Some(trials_of_summary(&point.summary)),
                    tables: BTreeMap::from([(
                        "ablation_d".to_string(),
                        vec![only_row(&ablation_d::table(
                            std::slice::from_ref(&point),
                            &config,
                        ))],
                    )]),
                    ..CellResult::default()
                }
            }),
        });
    }

    let banner = format!(
        "AVC with budget {} states split across d in {:?}, n = {}",
        config.state_budget, config.ds, config.n
    );
    let export_config = config;
    Plan {
        name: "ablation_d".to_string(),
        banner,
        cells,
        export: Box::new(move |results| {
            let mut table = ablation_d::table(&[], &export_config);
            for r in results {
                for row in r.rows("ablation_d") {
                    table.push_row(row.clone());
                }
            }
            Export {
                tables: vec![("ablation_d".to_string(), table)],
                trailer: vec![],
            }
        }),
    }
}

pub(super) fn graph_gap_plan(args: &Args) -> Plan {
    let config = graph_gap::Config::from_args(args);
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
    Plan {
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
    }
}

pub(super) fn robustness_plan(args: &Args) -> Plan {
    let config = robustness::Config::from_args(args);
    let scenarios = robustness::scenarios(config.n);
    let mut cells = Vec::new();
    for (pi, protocol) in robustness::PROTOCOLS.iter().enumerate() {
        for (si, scenario) in scenarios.iter().enumerate() {
            let label = format!("{protocol}/{}", scenario.label);
            let run_scenario = robustness::cell_scenario(&config, pi, si);
            // The scheduler and fault configuration are part of the
            // manifest (via the canonical scenario JSON and its own
            // spec strings): a changed adversary is a different cell,
            // never a stale checkpoint hit.
            let manifest = Manifest::new(
                "robustness",
                [
                    ("cell", label.clone()),
                    ("protocol", (*protocol).to_string()),
                    ("engine", run_scenario.engine.to_string()),
                    ("scenario_label", scenario.label.clone()),
                    ("scheduler", scenario.scheduler_spec()),
                    ("faults", scenario.fault_spec()),
                    ("n", config.n.to_string()),
                    ("eps", f64_to_hex(config.epsilon)),
                    ("eps_text", format!("{}", config.epsilon)),
                    ("runs", config.runs.to_string()),
                    ("seed", config.seed.to_string()),
                    ("max_steps", config.max_steps.to_string()),
                ]
                .into_iter()
                .chain(scenario_params(&run_scenario)),
            );
            let config = config.clone();
            cells.push(Cell {
                manifest,
                label,
                run: Box::new(move |stats| {
                    let point = robustness::run_point(&config, pi, si, stats);
                    CellResult {
                        trials: point.summary.as_ref().map(trials_of_summary),
                        tables: BTreeMap::from([(
                            "robustness".to_string(),
                            vec![only_row(&robustness::table(
                                std::slice::from_ref(&point),
                                &config,
                            ))],
                        )]),
                        values: BTreeMap::from([
                            ("wrong_fraction".to_string(), point.wrong_fraction),
                            ("timeouts".to_string(), point.timeouts as f64),
                        ]),
                        ..CellResult::default()
                    }
                }),
            });
        }
    }

    let banner = format!(
        "AVC and four-state under adversarial schedulers and faults, n = {}, eps = {}, {} runs",
        config.n, config.epsilon, config.runs
    );
    let export_config = config;
    Plan {
        name: "robustness".to_string(),
        banner,
        cells,
        export: Box::new(move |results| {
            let mut table = robustness::table(&[], &export_config);
            for r in results {
                for row in r.rows("robustness") {
                    table.push_row(row.clone());
                }
            }
            // Slowdown factors vs each protocol's uniform baseline, from
            // the checkpointed trial means (cells are in protocol-major,
            // scenario-minor order).
            let num_scenarios = robustness::scenarios(export_config.n).len();
            let mut trailer = vec!["slowdown vs uniform (mean parallel time):".to_string()];
            for (pi, protocol) in robustness::PROTOCOLS.iter().enumerate() {
                let mean_of = |i: usize| {
                    results
                        .get(pi * num_scenarios + i)
                        .and_then(|r| r.trials.as_ref())
                        .and_then(TrialSummary::summary)
                        .map(|s| s.mean)
                };
                let Some(base) = mean_of(0) else { continue };
                for (si, scenario) in robustness::scenarios(export_config.n)
                    .iter()
                    .enumerate()
                    .skip(1)
                {
                    let factor = match mean_of(si) {
                        Some(mean) => format!("{:.2}x", mean / base),
                        None => "stalled (all runs timed out)".to_string(),
                    };
                    trailer.push(format!("  {protocol:11} {:17} {factor}", scenario.label));
                }
            }
            Export {
                tables: vec![("robustness".to_string(), table)],
                trailer: vec![trailer.join("\n")],
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
