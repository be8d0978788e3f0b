//! Theorem C.1: the `Ω(log n)` information-propagation bound, measured.
//!
//! The knowledge set `K_t` of agents with a causal chain to the three
//! decisive seed agents must cover the population before any agent can be
//! sure of its output. This sweep samples the cover time on a clique
//! ([`cover_steps`]) for each `n`, sets its mean beside the exact
//! expectation `Σ_k n(n−1) / (2k(n−k)) ≈ n ln n` and fits the log–log
//! slope of parallel cover time against `ln n`, which the bound predicts
//! to be 1.

use super::{runs_flag, trials_of_summary, FlagError, Sweep, SweepCell};
use crate::record::CellResult;
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::harness::run_indexed_with_stats;
use avc_analysis::stats::{loglog_slope, Summary};
use avc_analysis::table::{fmt_num, Table};
use avc_population::rngutil::SeedSequence;
use avc_verify::knowledge::{cover_steps, expected_cover_steps, SEED_SET};
use std::collections::BTreeMap;

/// Flags: `--ns` (populations above the seed set of three), `--runs`,
/// `--seed`. The `i`-th population draws trial `t` from stream `t` of seed
/// child `i`.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let ns = args.get_u64_list(
        "ns",
        if args.flag("quick") {
            &[100, 1_000, 10_000]
        } else {
            &[100, 1_000, 10_000, 100_000, 1_000_000]
        },
    )?;
    let runs = runs_flag(args, 101)?;
    let seed = args.get_u64("seed", 12)?;
    let parallelism = args.parallelism()?;
    let mut cells = Vec::new();
    for (i, &n) in ns.iter().enumerate() {
        if n <= SEED_SET {
            return Err(FlagError::new(
                "ns",
                format!("{n} agents: the knowledge set starts with {SEED_SET}, so n > {SEED_SET}"),
            ));
        }
        let params = vec![
            ("kind", "knowledge_cover".to_string()),
            ("n", n.to_string()),
            ("runs", runs.to_string()),
            ("seed", seed.to_string()),
            ("seed_child", i.to_string()),
        ];
        let seeds = SeedSequence::new(seed).child(i as u64);
        cells.push(SweepCell::computed(
            format!("n={n}"),
            params,
            move |stats| {
                let (samples, batch) = run_indexed_with_stats(runs, parallelism, |t| {
                    let steps = cover_steps(n, &mut seeds.rng_for(t));
                    (steps as f64, steps)
                });
                stats.record(&batch);
                let summary = Summary::from_samples(&samples);
                let row = vec![
                    n.to_string(),
                    fmt_num(summary.mean),
                    fmt_num(expected_cover_steps(n)),
                    fmt_num(summary.mean / n as f64),
                    fmt_num((n as f64).ln()),
                    runs.to_string(),
                ];
                CellResult {
                    trials: Some(trials_of_summary(&summary)),
                    tables: BTreeMap::from([("lb_info".to_string(), vec![row])]),
                    ..CellResult::default()
                }
            },
        ));
    }

    Ok(Sweep {
        name: "lb_info".to_string(),
        banner: format!("knowledge-set cover time, n in {ns:?}, {runs} runs per n"),
        cells,
        export: Box::new(move |results| {
            let (lns, times): (Vec<f64>, Vec<f64>) = results
                .iter()
                .zip(&ns)
                .filter_map(|(r, &n)| {
                    let n = n as f64;
                    Some((n.ln(), r.trials.as_ref()?.summary()?.mean / n))
                })
                .unzip();
            let slope = loglog_slope(&lns, &times);
            Export {
                tables: vec![(
                    "lb_info".to_string(),
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
                    ),
                )],
                trailer: vec![format!(
                    "log-log slope of parallel cover time vs ln n: {slope:.3} \
                     (theory: linear in ln n ⇒ 1)"
                )],
            }
        }),
    })
}
