//! Figure 3: three protocols at the hardest margin `ε = 1/n`.
//!
//! For each population size, with the majority decided by a single agent,
//! the sweep runs the 3-state approximate protocol (fast, errs), the
//! 4-state exact protocol (slow, never errs) and the "n-state" AVC (fast
//! *and* never errs), reporting the mean parallel convergence time (left
//! panel, `fig3_time`) and the fraction of runs converging to the wrong
//! state (right panel, `fig3_error`). The paper uses 101 runs per cell.

use super::{
    avc_with_states, cell_rows, one_extra, rule_name, runnable, runs_flag, FlagError, Sweep,
    SweepCell,
};
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::harness::EngineKind;
use avc_analysis::plot::ScatterPlot;
use avc_analysis::stats::quantile;
use avc_analysis::table::{fmt_num, Table};
use avc_population::{ConvergenceRule, ProtocolSpec, Scenario};

/// The protocol columns in row order, by manifest key.
const PROTOCOLS: [&str; 3] = ["three_state", "four_state", "avc"];

/// Flags: `--ns` (odd population sizes), `--runs`, `--seed`.
///
/// The 3-state protocol runs to its terminal all-`x`/all-`y` state
/// ([`ConvergenceRule::StateConsensus`]) on the jump engine; the exact
/// protocols to output consensus, which for them is stable (Lemma A.1):
/// 4-state on the jump engine, AVC with `s ≈ n` states on `auto`. Cell
/// `(ni, protocol)` is seeded with `seed + ni`.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let ns = args.get_u64_list(
        "ns",
        if quick {
            &[11, 101, 1_001]
        } else {
            &[11, 101, 1_001, 10_001, 100_001]
        },
    )?;
    let runs = runs_flag(args, if quick { 11 } else { 101 })?;
    let seed = args.get_u64("seed", 2015)?;
    let mut cells = Vec::new();
    for (ni, &n) in ns.iter().enumerate() {
        let instance = one_extra("ns", n)?;
        for key in PROTOCOLS {
            let (protocol, engine, rule) = match key {
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
                    let avc = avc_with_states("ns", n)?;
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
            let scenario = Scenario::new(protocol, instance)
                .engine(engine)
                .rule(rule)
                .runs(runs)
                .seed(seed.wrapping_add(ni as u64));
            let states = protocol.state_count();
            let name = match protocol {
                ProtocolSpec::ThreeState => "3-state".to_string(),
                ProtocolSpec::FourState => "4-state".to_string(),
                _ => format!("avc(s={states})"),
            };
            cells.push(SweepCell::batch(
                format!("n={n}/{key}"),
                vec![
                    ("protocol", key.to_string()),
                    ("rule", rule_name(rule).to_string()),
                ],
                runnable("ns", scenario)?,
                move |results| {
                    let s = results.summary();
                    let times = results.converged_times();
                    cell_rows(
                        [
                            (
                                "fig3_time",
                                vec![
                                    n.to_string(),
                                    name.clone(),
                                    states.to_string(),
                                    fmt_num(s.mean),
                                    fmt_num(s.std_dev),
                                    fmt_num(s.median),
                                    fmt_num(quantile(&times, 0.1)),
                                    fmt_num(quantile(&times, 0.9)),
                                    s.count.to_string(),
                                ],
                            ),
                            (
                                "fig3_error",
                                vec![
                                    n.to_string(),
                                    name.clone(),
                                    fmt_num(results.error_fraction()),
                                    results.outcomes().len().to_string(),
                                ],
                            ),
                        ],
                        [],
                    )
                },
            ));
        }
    }

    Ok(Sweep {
        name: "fig3".to_string(),
        banner: format!(
            "3-state vs 4-state vs n-state AVC, eps = 1/n, {runs} runs per cell, n in {ns:?}"
        ),
        cells,
        export: Box::new(move |results| {
            // Terminal rendering of the left panel (log–log, as in the paper).
            let mut plot = ScatterPlot::new(
                "Figure 3 (left): parallel convergence time vs n (log-log)",
                64,
                18,
            )
            .log_log();
            for (pi, family) in ["3-state", "4-state", "avc"].into_iter().enumerate() {
                let series: Vec<(f64, f64)> = results
                    .chunks(PROTOCOLS.len())
                    .zip(&ns)
                    .filter_map(|(row, &n)| {
                        Some((n as f64, row[pi].trials.as_ref()?.summary()?.mean))
                    })
                    .collect();
                plot.add_series(family, series);
            }
            Export {
                tables: vec![
                    (
                        "fig3_time".to_string(),
                        Table::new(
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
                        ),
                    ),
                    (
                        "fig3_error".to_string(),
                        Table::new(
                            "Figure 3 (right): fraction of runs converging to the wrong state",
                            ["n", "protocol", "error_fraction", "runs"],
                        ),
                    ),
                ],
                trailer: vec![plot.render()],
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cell, mean, run_sweep};

    #[test]
    fn quick_run_reproduces_figure3_shape() {
        let (plan, results, _) =
            run_sweep("fig3", &["--ns", "101,1001", "--runs", "9", "--seed", "1"]);
        assert_eq!(results.len(), 6);
        let get = |n: u64, key: &str| cell(&plan, &results, &format!("n={n}/{key}"));
        let error = |n: u64, key: &str| get(n, key).trials.as_ref().unwrap().error_fraction;

        for n in [101u64, 1_001] {
            // Exact protocols never err; 3-state errs with ~1/2 probability
            // at eps = 1/n (not asserted — it is genuinely random — but the
            // exactness is deterministic).
            assert_eq!(error(n, "four_state"), 0.0);
            assert_eq!(error(n, "avc"), 0.0);

            // AVC is at least 5x faster than 4-state already at n = 101.
            let speedup = mean(get(n, "four_state")) / mean(get(n, "avc"));
            assert!(speedup > 5.0, "n={n}: speedup only {speedup:.1}");
        }

        // 4-state time grows superlinearly in n at eps = 1/n...
        let t4_small = mean(get(101, "four_state"));
        let t4_large = mean(get(1_001, "four_state"));
        assert!(t4_large > 5.0 * t4_small);
        // ...while AVC's stays polylogarithmic (well under 3x here).
        let ta_small = mean(get(101, "avc"));
        let ta_large = mean(get(1_001, "avc"));
        assert!(ta_large < 3.0 * ta_small, "{ta_small} -> {ta_large}");
    }

    #[test]
    fn tables_have_one_row_per_cell() {
        let (_, _, export) = run_sweep(
            "fig3",
            &["--ns", "11", "--runs", "3", "--seed", "2", "--serial"],
        );
        assert_eq!(export.tables[0].0, "fig3_time");
        assert_eq!(export.tables[0].1.num_rows(), 3);
        assert_eq!(export.tables[1].0, "fig3_error");
        assert_eq!(export.tables[1].1.num_rows(), 3);
    }
}
