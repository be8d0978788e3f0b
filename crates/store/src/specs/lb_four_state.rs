//! Theorem B.1: the four-state lower bound, measured.
//!
//! The paper proves that *any* four-state exact-majority protocol needs
//! `Ω(1/ε)` expected parallel time. This sweep measures the four-state
//! protocol's convergence time across a margin sweep at fixed `n` and fits
//! the log–log slope of time against `1/ε`; the bound predicts a slope of
//! ≈ 1 for small margins.

use super::{cell_rows, rule_name, runnable, runs_flag, with_margin, FlagError, Sweep, SweepCell};
use crate::record::{f64_to_hex, CellResult};
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::harness::EngineKind;
use avc_analysis::stats::loglog_slope;
use avc_analysis::table::{fmt_num, Table};
use avc_population::{ProtocolSpec, Scenario};

/// Flags: `--n`, `--runs`, `--seed`. Margin `i` is seeded with `seed + i`.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let n = args.get_u64("n", if quick { 2_001 } else { 100_001 })?;
    let epsilons: &[f64] = if quick {
        &[1e-3, 1e-2, 1e-1]
    } else {
        &[1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2]
    };
    let runs = runs_flag(args, if quick { 9 } else { 25 })?;
    let seed = args.get_u64("seed", 77)?;
    let mut cells = Vec::new();
    for (i, &eps) in epsilons.iter().enumerate() {
        let scenario = Scenario::new(ProtocolSpec::FourState, with_margin("n", n, eps)?)
            .engine(EngineKind::Jump)
            .runs(runs)
            .seed(seed + i as u64);
        let achieved = scenario.instance.margin();
        cells.push(SweepCell::batch(
            format!("eps={eps:e}"),
            vec![
                ("protocol", "four_state".to_string()),
                ("rule", rule_name(scenario.rule).to_string()),
                ("eps", f64_to_hex(eps)),
                ("eps_text", format!("{eps:e}")),
            ],
            runnable("n", scenario)?,
            move |results| {
                let summary = results.summary();
                cell_rows(
                    [(
                        "lb_four_state",
                        vec![
                            fmt_num(achieved),
                            fmt_num(1.0 / achieved),
                            fmt_num(summary.mean),
                            fmt_num(summary.std_dev),
                            summary.count.to_string(),
                        ],
                    )],
                    [("achieved_eps", achieved)],
                )
            },
        ));
    }

    Ok(Sweep {
        name: "lb_four_state".to_string(),
        banner: format!("four-state protocol time vs margin at n = {n}, {runs} runs per margin"),
        cells,
        export: Box::new(move |results| {
            let slope = fitted_slope(results);
            Export {
                tables: vec![(
                    "lb_four_state".to_string(),
                    Table::new(
                        format!(
                            "Theorem B.1 check: four-state time vs margin at n = {n} \
                             (fitted exponent {slope:.3}, theory: 1)"
                        ),
                        [
                            "eps",
                            "one_over_eps",
                            "mean_parallel_time",
                            "std_dev",
                            "runs",
                        ],
                    ),
                )],
                trailer: vec![format!(
                    "fitted log-log slope of time vs 1/eps: {slope:.3} (theory: Θ(1/eps) ⇒ 1)"
                )],
            }
        }),
    })
}

/// The log–log slope of mean time against `1/ε` over the cells that
/// converged.
fn fitted_slope(results: &[&CellResult]) -> f64 {
    let (inv_eps, times): (Vec<f64>, Vec<f64>) = results
        .iter()
        .filter_map(|r| {
            Some((
                1.0 / r.value("achieved_eps")?,
                r.trials.as_ref()?.summary()?.mean,
            ))
        })
        .unzip();
    loglog_slope(&inv_eps, &times)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{args, mean, run_sweep};
    use super::fitted_slope;
    use crate::specs::build;
    use avc_analysis::harness::StatsCollector;

    #[test]
    fn scaling_exponent_is_near_one() {
        // At n = 10 001 these four default margins round to distinct gaps.
        let fitted = ["eps=3.16e-4", "eps=1e-3", "eps=3.16e-3", "eps=1e-2"];
        let plan = build(
            "lb_four_state",
            &args(&["--n", "10001", "--runs", "15", "--seed", "3"]),
        )
        .unwrap();
        let stats = StatsCollector::new();
        let results: Vec<_> = plan
            .cells
            .iter()
            .filter(|c| fitted.contains(&c.label.as_str()))
            .map(|c| (c.run)(&stats))
            .collect();
        assert_eq!(results.len(), fitted.len());
        let slope = fitted_slope(&results.iter().collect::<Vec<_>>());
        // Θ(1/ε) with log corrections: generous band around 1.
        assert!(
            (0.6..=1.4).contains(&slope),
            "slope {slope} outside Θ(1/eps) band"
        );
        // Times must be monotone decreasing in eps (up to noise at ends).
        assert!(mean(&results[0]) > mean(&results[results.len() - 1]));
    }

    #[test]
    fn table_embeds_slope() {
        let (_, _, export) = run_sweep("lb_four_state", &["--quick"]);
        let table = &export.tables[0].1;
        assert!(table.title().contains("fitted exponent"));
        assert_eq!(table.num_rows(), 3);
    }
}
