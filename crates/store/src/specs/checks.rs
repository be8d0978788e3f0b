//! Sweep specs for the exhaustive model checks (MC-1 and MC-2).
//!
//! These are deterministic (no RNG), so their cells carry only the
//! enumeration sizes in the manifest; a rerun at the same sizes is a cache
//! hit by construction.

use super::{cell_rows, FlagError, Sweep, SweepCell};
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::table::Table;
use avc_population::Config;
use avc_protocols::{Avc, FourState};
use avc_verify::enumerate::{
    four_state_family_survey, four_state_mutation_study, three_state_impossibility,
};
use avc_verify::reach::{check_exact_majority, check_invariant};

/// The AVC `(m, d)` parameterizations explored by MC-2.
fn avc_params(quick: bool) -> &'static [(u64, u32)] {
    if quick {
        &[(1, 1), (3, 1)]
    } else {
        &[(1, 1), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]
    }
}

fn params_text(params: &[(u64, u32)]) -> String {
    params
        .iter()
        .map(|(m, d)| format!("({m},{d})"))
        .collect::<Vec<_>>()
        .join(",")
}

/// MC-2: AVC's value-sum invariant and exactness, the four-state
/// protocol's exactness on every instance, and the four-state mutation and
/// rule-family studies. Flags: `--quick` only.
pub(super) fn mc_avc(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let params = avc_params(quick);
    let max_n = if quick { 6 } else { 9 };
    let mutation_n = if quick { 5 } else { 7 };
    let survey_n = if quick { 5 } else { 6 };

    let invariant = SweepCell::computed(
        "invariant".to_string(),
        vec![
            ("check", "invariant_4_3".to_string()),
            ("params", params_text(params)),
            ("budget", "5000000".to_string()),
        ],
        move |_| {
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
            cell_rows(
                [(
                    "mc_avc",
                    vec![
                        "invariant 4.3 (value sum)".to_string(),
                        format!("avc, {} parameterizations", params.len()),
                        instances.to_string(),
                        explored.to_string(),
                        "holds".to_string(),
                    ],
                )],
                [],
            )
        },
    );

    let exact_avc = SweepCell::computed(
        "exact_avc".to_string(),
        vec![
            ("check", "exact_majority_avc".to_string()),
            ("params", params_text(params)),
            ("budget", "5000000".to_string()),
        ],
        move |_| {
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
            cell_rows(
                [(
                    "mc_avc",
                    vec![
                        "exact majority (Thm B.1 properties)".to_string(),
                        "avc".to_string(),
                        instances.to_string(),
                        explored.to_string(),
                        "holds".to_string(),
                    ],
                )],
                [],
            )
        },
    );

    let exact_four_state = SweepCell::computed(
        "exact_four_state".to_string(),
        vec![
            ("check", "exact_majority_four_state".to_string()),
            ("max_n", max_n.to_string()),
            ("budget", "1000000".to_string()),
        ],
        move |_| {
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
            cell_rows(
                [(
                    "mc_avc",
                    vec![
                        "exact majority, all instances".to_string(),
                        "four-state".to_string(),
                        instances.to_string(),
                        explored.to_string(),
                        "holds".to_string(),
                    ],
                )],
                [],
            )
        },
    );

    let mutations = SweepCell::computed(
        "mutations".to_string(),
        vec![
            ("check", "four_state_mutations".to_string()),
            ("mutation_n", mutation_n.to_string()),
        ],
        move |_| {
            let outcome = four_state_mutation_study(mutation_n);
            cell_rows(
                [(
                    "mc_avc",
                    vec![
                        format!("single-rule mutations (n ≤ {mutation_n})"),
                        "four-state".to_string(),
                        outcome.candidates.to_string(),
                        "-".to_string(),
                        format!(
                            "{} of {} mutants survive",
                            outcome.survivors, outcome.candidates
                        ),
                    ],
                )],
                [],
            )
        },
    );

    let family_survey = SweepCell::computed(
        "family_survey".to_string(),
        vec![
            ("check", "four_state_family_survey".to_string()),
            ("survey_n", survey_n.to_string()),
        ],
        move |_| {
            let (survey, survivors) = four_state_family_survey(survey_n);
            let mut result = cell_rows(
                [(
                    "mc_avc",
                    vec![
                        format!("constrained 4-state family (n ≤ {survey_n})"),
                        "Theorem B.1 case analysis".to_string(),
                        survey.candidates.to_string(),
                        "-".to_string(),
                        format!(
                            "{} of {} assignments correct",
                            survey.survivors, survey.candidates
                        ),
                    ],
                )],
                [],
            );
            result.notes = survivors;
            result
        },
    );

    Ok(Sweep {
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
            let mut trailer = vec!["surviving four-state rule assignments:".to_string()];
            trailer.extend(results[4].notes.iter().map(|s| format!("  {s}")));
            trailer.push("✔ all exhaustive checks passed".to_string());
            Export {
                tables: vec![(
                    "mc_avc".to_string(),
                    Table::new(
                        "Exhaustive correctness checks",
                        [
                            "check",
                            "protocol",
                            "instances",
                            "configs_explored",
                            "result",
                        ],
                    ),
                )],
                trailer: vec![trailer.join("\n")],
            }
        }),
    })
}

/// MC-1: no symmetric three-state protocol solves exact majority on every
/// instance up to `--max-n` agents (MNRS14).
pub(super) fn mc_three_state(args: &Args) -> Result<Sweep, FlagError> {
    let max_n = args.get_u64("max-n", if args.flag("quick") { 5 } else { 7 })?;
    if max_n < 5 {
        return Err(FlagError::new(
            "max-n",
            format!("{max_n} agents: some 3-state protocol is exact below n = 5"),
        ));
    }
    let cell = SweepCell::computed(
        format!("max_n={max_n}"),
        vec![
            ("check", "three_state_impossibility".to_string()),
            ("max_n", max_n.to_string()),
        ],
        move |_| {
            let outcome = three_state_impossibility(max_n);
            assert_eq!(
                outcome.survivors, 0,
                "impossibility violated: some 3-state protocol solved exact majority!"
            );
            cell_rows(
                [(
                    "mc_three_state",
                    vec![
                        outcome.candidates.to_string(),
                        outcome.survivors.to_string(),
                        max_n.to_string(),
                    ],
                )],
                [],
            )
        },
    );

    Ok(Sweep {
        name: "mc_three_state".to_string(),
        banner: format!("all symmetric 3-state protocols, instances up to n = {max_n}"),
        cells: vec![cell],
        export: Box::new(move |_| Export {
            tables: vec![(
                "mc_three_state".to_string(),
                Table::new(
                    "Exhaustive 3-state enumeration",
                    ["candidates", "survivors", "max_n"],
                ),
            )],
            trailer: vec![format!(
                "✔ no three-state protocol solves exact majority (n ≤ {max_n})"
            )],
        }),
    })
}
