//! Sweep specs for the exhaustive model checks (MC-1 and MC-2).
//!
//! These are deterministic (no RNG), so their cells carry only the
//! enumeration sizes in the manifest; a rerun at the same sizes is a cache
//! hit by construction.

use crate::manifest::Manifest;
use crate::record::CellResult;
use crate::sweep::{Cell, Export, Plan};
use avc_analysis::cli::Args;
use avc_analysis::table::Table;
use avc_population::Config;
use avc_protocols::{Avc, FourState};
use avc_verify::enumerate::{
    four_state_family_survey, four_state_mutation_study, three_state_impossibility,
};
use avc_verify::reach::{check_exact_majority, check_invariant};
use std::collections::BTreeMap;

/// The AVC `(m, d)` parameterizations explored by MC-2.
fn avc_params(quick: bool) -> &'static [(u64, u32)] {
    if quick {
        &[(1, 1), (3, 1)]
    } else {
        &[(1, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]
    }
}

fn mc_avc_table() -> Table {
    Table::new(
        "Exhaustive correctness checks",
        [
            "check",
            "protocol",
            "instances",
            "configs_explored",
            "result",
        ],
    )
}

fn params_text(params: &[(u64, u32)]) -> String {
    params
        .iter()
        .map(|(m, d)| format!("({m},{d})"))
        .collect::<Vec<_>>()
        .join(",")
}

fn check_cell(
    label: &str,
    extra_params: impl IntoIterator<Item = (&'static str, String)>,
    run: impl Fn() -> CellResult + 'static,
) -> Cell {
    let mut params = vec![("cell", label.to_string())];
    params.extend(extra_params);
    Cell {
        manifest: Manifest::new("mc_avc", params),
        label: label.to_string(),
        batch: None,
        run: Box::new(move |_| run()),
    }
}

fn one_row_result(row: Vec<String>) -> CellResult {
    CellResult {
        tables: BTreeMap::from([("mc_avc".to_string(), vec![row])]),
        ..CellResult::default()
    }
}

pub(super) fn mc_avc_plan(args: &Args) -> Plan {
    let quick = args.flag("quick");
    let params = avc_params(quick);
    let max_n = if quick { 6 } else { 9 };
    let mutation_n = if quick { 5 } else { 7 };
    let survey_n = if quick { 5 } else { 6 };

    let invariant = check_cell(
        "invariant",
        [
            ("check", "invariant_4_3".to_string()),
            ("params", params_text(params)),
            ("budget", "5000000".to_string()),
        ],
        move || {
            let mut explored = 0usize;
            let mut instances = 0;
            for &(m, d) in params {
                let avc = Avc::new(m, d).expect("valid parameters");
                for (a, b) in [(3u64, 2u64), (2, 3), (4, 2), (1, 4), (3, 3)] {
                    let initial = Config::from_input(&avc, a, b);
                    let checked =
                        check_invariant(&avc, &initial, 5_000_000, |c| avc.total_value(c))
                            .expect("state space within budget")
                            .unwrap_or_else(|bad| {
                                panic!("Invariant 4.3 violated for m={m}, d={d} at {bad:?}")
                            });
                    explored += checked;
                    instances += 1;
                }
            }
            one_row_result(vec![
                "invariant 4.3 (value sum)".to_string(),
                format!("avc, {} parameterizations", params.len()),
                instances.to_string(),
                explored.to_string(),
                "holds".to_string(),
            ])
        },
    );

    let exact_avc = check_cell(
        "exact_avc",
        [
            ("check", "exact_majority_avc".to_string()),
            ("params", params_text(params)),
            ("budget", "5000000".to_string()),
        ],
        move || {
            let mut explored = 0usize;
            let mut instances = 0;
            for &(m, d) in params {
                let avc = Avc::new(m, d).expect("valid parameters");
                for (a, b) in [(2u64, 1u64), (1, 2), (3, 2), (2, 3), (4, 1), (3, 3)] {
                    let v = check_exact_majority(&avc, a, b, 5_000_000).expect("within budget");
                    assert!(v.is_correct(), "AVC(m={m},d={d}) violated at a={a}, b={b}");
                    explored += v.explored;
                    instances += 1;
                }
            }
            one_row_result(vec![
                "exact majority (Thm B.1 properties)".to_string(),
                "avc".to_string(),
                instances.to_string(),
                explored.to_string(),
                "holds".to_string(),
            ])
        },
    );

    let exact_four_state = check_cell(
        "exact_four_state",
        [
            ("check", "exact_majority_four_state".to_string()),
            ("max_n", max_n.to_string()),
            ("budget", "1000000".to_string()),
        ],
        move || {
            let mut explored = 0usize;
            let mut instances = 0;
            for n in 2..=max_n {
                for a in 0..=n {
                    let v = check_exact_majority(&FourState, a, n - a, 1_000_000)
                        .expect("within budget");
                    assert!(v.is_correct(), "four-state violated at a={a}, b={}", n - a);
                    explored += v.explored;
                    instances += 1;
                }
            }
            one_row_result(vec![
                "exact majority, all instances".to_string(),
                "four-state".to_string(),
                instances.to_string(),
                explored.to_string(),
                "holds".to_string(),
            ])
        },
    );

    let mutations = check_cell(
        "mutations",
        [
            ("check", "four_state_mutations".to_string()),
            ("mutation_n", mutation_n.to_string()),
        ],
        move || {
            let outcome = four_state_mutation_study(mutation_n);
            one_row_result(vec![
                format!("single-rule mutations (n ≤ {mutation_n})"),
                "four-state".to_string(),
                outcome.candidates.to_string(),
                "-".to_string(),
                format!(
                    "{} of {} mutants survive",
                    outcome.survivors, outcome.candidates
                ),
            ])
        },
    );

    let family_survey = check_cell(
        "family_survey",
        [
            ("check", "four_state_family_survey".to_string()),
            ("survey_n", survey_n.to_string()),
        ],
        move || {
            let (survey, survivors) = four_state_family_survey(survey_n);
            let mut result = one_row_result(vec![
                format!("constrained 4-state family (n ≤ {survey_n})"),
                "Theorem B.1 case analysis".to_string(),
                survey.candidates.to_string(),
                "-".to_string(),
                format!(
                    "{} of {} assignments correct",
                    survey.survivors, survey.candidates
                ),
            ]);
            result.notes = survivors;
            result
        },
    );

    Plan {
        name: "mc_avc".to_string(),
        banner: "reachability over full configuration spaces at small n".to_string(),
        cells: vec![
            invariant,
            exact_avc,
            exact_four_state,
            mutations,
            family_survey,
        ],
        export: Box::new(|results| {
            let mut table = mc_avc_table();
            for r in results {
                for row in r.rows("mc_avc") {
                    table.push_row(row.clone());
                }
            }
            let mut trailer = vec!["surviving four-state rule assignments:".to_string()];
            for s in &results[4].notes {
                trailer.push(format!("  {s}"));
            }
            trailer.push("✔ all exhaustive checks passed".to_string());
            Export {
                tables: vec![("mc_avc".to_string(), table)],
                trailer: vec![trailer.join("\n")],
            }
        }),
    }
}

pub(super) fn mc_three_state_plan(args: &Args) -> Plan {
    let max_n = args.get_u64("max-n", if args.flag("quick") { 5 } else { 7 });
    let label = format!("max_n={max_n}");
    let cell = Cell {
        manifest: Manifest::new(
            "mc_three_state",
            [
                ("cell", label.clone()),
                ("check", "three_state_impossibility".to_string()),
                ("max_n", max_n.to_string()),
            ],
        ),
        label,
        batch: None,
        run: Box::new(move |_| {
            let outcome = three_state_impossibility(max_n);
            assert_eq!(
                outcome.survivors, 0,
                "impossibility violated: some 3-state protocol solved exact majority!"
            );
            CellResult {
                tables: BTreeMap::from([(
                    "mc_three_state".to_string(),
                    vec![vec![
                        outcome.candidates.to_string(),
                        outcome.survivors.to_string(),
                        max_n.to_string(),
                    ]],
                )]),
                ..CellResult::default()
            }
        }),
    };

    Plan {
        name: "mc_three_state".to_string(),
        banner: format!("all symmetric 3-state protocols, instances up to n = {max_n}"),
        cells: vec![cell],
        export: Box::new(move |results| {
            let mut table = Table::new(
                "Exhaustive 3-state enumeration",
                ["candidates", "survivors", "max_n"],
            );
            for row in results[0].rows("mc_three_state") {
                table.push_row(row.clone());
            }
            Export {
                tables: vec![("mc_three_state".to_string(), table)],
                trailer: vec![format!(
                    "✔ no three-state protocol solves exact majority (n ≤ {max_n})"
                )],
            }
        }),
    }
}
