//! Figure 4: AVC convergence time vs margin `ε` and state count `s`.
//!
//! The paper sweeps the margin over several decades for thirteen values of
//! the per-node state count `s` (with `d = 1`, so `m = s − 3`), at a fixed
//! population. The left panel plots mean parallel convergence time against
//! `ε` — one curve per `s`, each `Θ(1/ε)` for small `ε` and shifted down as
//! `s` grows; the right panel plots the same data against the product
//! `s·ε`, collapsing the curves and supporting the `Θ̃(1/(sε))` claim.

use super::{
    avc_with_states, cell_rows, rule_name, runnable, runs_flag, with_margin, FlagError, Sweep,
    SweepCell,
};
use crate::record::f64_to_hex;
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::plot::ScatterPlot;
use avc_analysis::table::{fmt_num, Table};
use avc_population::{ProtocolSpec, Scenario};

/// The paper's thirteen state counts (Figure 4 caption).
const PAPER_STATE_COUNTS: [u64; 13] = [
    4, 6, 12, 24, 34, 66, 130, 258, 514, 1_026, 2_050, 4_098, 16_340,
];

/// Flags: `--n`, `--states` (state budgets, each at least 4), `--runs`,
/// `--seed`.
///
/// Cells run in `(s, ε)` lexicographic order; cell `(si, ei)` is seeded
/// with `seed + 1000·si + ei`. The margins are a half-decade grid over the
/// paper's range 10⁻⁵ … 10⁻⁰·⁵.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let n = args.get_u64("n", if quick { 10_001 } else { 100_001 })?;
    let state_counts = args.get_u64_list(
        "states",
        if quick {
            &[4, 12, 66, 514]
        } else {
            &PAPER_STATE_COUNTS
        },
    )?;
    let epsilons: &[f64] = if quick {
        &[1e-3, 1e-2, 1e-1]
    } else {
        &[
            1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1, 3.16e-1,
        ]
    };
    let runs = runs_flag(args, if quick { 5 } else { 15 })?;
    let seed = args.get_u64("seed", 4)?;
    let mut cells = Vec::new();
    let mut avc_states = Vec::new();
    for (si, &s_requested) in state_counts.iter().enumerate() {
        let avc = avc_with_states("states", s_requested)?;
        let s = avc.s();
        avc_states.push(s);
        let protocol = ProtocolSpec::Avc {
            m: avc.m(),
            d: avc.d(),
        };
        for (ei, &eps) in epsilons.iter().enumerate() {
            let scenario = Scenario::new(protocol, with_margin("n", n, eps)?)
                .runs(runs)
                .seed(seed + (si as u64) * 1_000 + ei as u64);
            let achieved = scenario.instance.margin();
            cells.push(SweepCell::batch(
                format!("s={s_requested}/eps={eps:e}"),
                vec![
                    ("protocol", "avc".to_string()),
                    ("rule", rule_name(scenario.rule).to_string()),
                    ("s", s_requested.to_string()),
                    ("eps", f64_to_hex(eps)),
                    ("eps_text", format!("{eps:e}")),
                ],
                runnable("n", scenario)?,
                move |results| {
                    let summary = results.summary();
                    cell_rows(
                        [(
                            "fig4",
                            vec![
                                s.to_string(),
                                format!("{eps:e}"),
                                fmt_num(achieved),
                                fmt_num(s as f64 * achieved),
                                fmt_num(summary.mean),
                                fmt_num(summary.std_dev),
                                summary.count.to_string(),
                            ],
                        )],
                        [("achieved_eps", achieved), ("s", s as f64)],
                    )
                },
            ));
        }
    }

    Ok(Sweep {
        name: "fig4".to_string(),
        banner: format!(
            "AVC time vs margin, n = {n}, s in {state_counts:?}, {} margins x {runs} runs",
            epsilons.len()
        ),
        cells,
        export: Box::new(move |results| {
            // (s, achieved_eps, mean) triples for the two panels.
            let points: Vec<(f64, f64, f64)> = results
                .iter()
                .filter_map(|r| {
                    Some((
                        r.value("s")?,
                        r.value("achieved_eps")?,
                        r.trials.as_ref()?.summary()?.mean,
                    ))
                })
                .collect();

            let mut left = ScatterPlot::new(
                "Figure 4 (left): time vs eps, one series per s (log-log)",
                64,
                18,
            )
            .log_log();
            for &s in &avc_states {
                let series: Vec<(f64, f64)> = points
                    .iter()
                    .filter(|&&(ps, _, _)| ps == s as f64)
                    .map(|&(_, eps, mean)| (eps, mean))
                    .collect();
                if !series.is_empty() {
                    left.add_series(format!("s={s}"), series);
                }
            }

            let mut right = ScatterPlot::new(
                "Figure 4 (right): time vs s*eps, all series (log-log)",
                64,
                18,
            )
            .log_log();
            right.add_series(
                "all (s, eps)",
                points.iter().map(|&(s, eps, mean)| (s * eps, mean)),
            );

            Export {
                tables: vec![(
                    "fig4".to_string(),
                    Table::new(
                        format!("Figure 4: AVC parallel convergence time vs eps and s (n = {n})"),
                        [
                            "s",
                            "eps",
                            "achieved_eps",
                            "s_times_eps",
                            "mean_parallel_time",
                            "std_dev",
                            "runs",
                        ],
                    ),
                )],
                trailer: vec![left.render(), right.render()],
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cell, mean, run_sweep};

    #[test]
    fn sweep_shows_speedup_in_s_and_slowdown_in_small_eps() {
        let (plan, results, _) = run_sweep(
            "fig4",
            &[
                "--quick", "--n", "2001", "--states", "4,34", "--runs", "7", "--seed", "9",
            ],
        );
        assert_eq!(results.len(), 6);
        let get = |s: u64, eps: &str| mean(cell(&plan, &results, &format!("s={s}/eps={eps}")));
        // More states → faster at the hard margin.
        assert!(get(4, "1e-3") > 2.0 * get(34, "1e-3"), "s speedup missing");
        // Smaller margin → slower at fixed s = 4.
        assert!(
            get(4, "1e-3") > 3.0 * get(4, "1e-1"),
            "eps slowdown missing"
        );
    }

    #[test]
    fn table_shape() {
        let (plan, _, export) = run_sweep(
            "fig4",
            &[
                "--quick", "--n", "501", "--states", "4", "--runs", "3", "--seed", "1", "--serial",
            ],
        );
        let table = &export.tables[0].1;
        assert_eq!(table.num_rows(), plan.cells.len());
        assert_eq!(table.columns().len(), 7);
    }
}
