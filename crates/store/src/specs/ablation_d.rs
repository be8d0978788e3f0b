//! Ablation: sensitivity of AVC to the intermediate-level count `d`.
//!
//! The paper's analysis sets `d = Θ(log m · log n)` but its experiments use
//! `d = 1` and observe that "setting d > 1 does not significantly affect the
//! running time" (§6 discussion). This ablation fixes a state *budget* `s`
//! and reallocates it between `m` and `d` (`s = m + 2d + 1`), measuring the
//! convergence time at the hardest margin `ε = 1/n` for several splits.

use super::{cell_rows, one_extra, rule_name, runnable, runs_flag, FlagError, Sweep, SweepCell};
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::table::{fmt_num, Table};
use avc_population::{ProtocolSpec, Scenario};
use avc_protocols::Avc;

/// Flags: `--n` (odd), `--budget` (states to split), `--runs`, `--seed`.
/// Split `i` takes `d = ds[i]` and the largest odd `m ≤ budget − 2d − 1`,
/// seeded with `seed + i`.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let n = args.get_u64("n", if quick { 1_001 } else { 10_001 })?;
    let budget = args.get_u64("budget", if quick { 24 } else { 64 })?;
    let ds: &[u32] = if quick { &[1, 4] } else { &[1, 2, 4, 8, 16] };
    let runs = runs_flag(args, if quick { 9 } else { 25 })?;
    let seed = args.get_u64("seed", 6)?;
    let instance = one_extra("n", n)?;
    let mut cells = Vec::new();
    for (i, &d) in ds.iter().enumerate() {
        let too_small = || {
            FlagError::new(
                "budget",
                format!(
                    "{budget} states are too small for d = {d} (m = budget - 2d - 1 must be >= 1)"
                ),
            )
        };
        let for_m = budget
            .checked_sub(2 * u64::from(d) + 1)
            .filter(|&left| left >= 1)
            .ok_or_else(too_small)?;
        let m = if for_m % 2 == 1 { for_m } else { for_m - 1 };
        Avc::new(m, d).map_err(|e| FlagError::new("budget", e))?;
        let scenario = Scenario::new(ProtocolSpec::Avc { m, d }, instance)
            .runs(runs)
            .seed(seed + i as u64);
        cells.push(SweepCell::batch(
            format!("d={d}"),
            vec![
                ("protocol", "avc".to_string()),
                ("rule", rule_name(scenario.rule).to_string()),
                ("budget", budget.to_string()),
                ("d", d.to_string()),
            ],
            runnable("n", scenario)?,
            move |results| {
                let summary = results.summary();
                cell_rows(
                    [(
                        "ablation_d",
                        vec![
                            m.to_string(),
                            d.to_string(),
                            (m + 2 * u64::from(d) + 1).to_string(),
                            fmt_num(summary.mean),
                            fmt_num(summary.std_dev),
                            summary.count.to_string(),
                        ],
                    )],
                    [],
                )
            },
        ));
    }

    Ok(Sweep {
        name: "ablation_d".to_string(),
        banner: format!("AVC with budget {budget} states split across d in {ds:?}, n = {n}"),
        cells,
        export: Box::new(move |_| Export {
            tables: vec![(
                "ablation_d".to_string(),
                Table::new(
                    format!(
                        "Ablation: splitting a budget of {budget} states between m and d \
                         (n = {n}, eps = 1/n)"
                    ),
                    ["m", "d", "s", "mean_parallel_time", "std_dev", "runs"],
                ),
            )],
            trailer: vec![],
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{args, run_sweep};
    use crate::specs::try_build;

    #[test]
    fn all_splits_converge_exactly() {
        let (_, results, export) = run_sweep("ablation_d", &["--quick"]);
        assert_eq!(results.len(), 2);
        for row in export.tables[0].1.rows() {
            let [m, d, s] = [0, 1, 2].map(|i| row[i].parse::<u64>().unwrap());
            assert_eq!(s, m + 2 * d + 1);
            assert_eq!(row[5], "9", "every run must converge (exactness)");
        }
    }

    #[test]
    fn rejects_infeasible_budget() {
        let tokens = ["--quick", "--n", "101", "--budget", "8", "--runs", "1"];
        let Some(Err(e)) = try_build("ablation_d", &args(&tokens)) else {
            panic!("budget 8 built a plan for d = 4");
        };
        assert_eq!(e.flag, "budget");
        assert!(e.reason.contains("too small"), "{e}");
    }
}
