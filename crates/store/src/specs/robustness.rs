//! Protocol robustness under adversarial schedulers and injected faults.
//!
//! The paper proves AVC exact under the uniform scheduler, and the
//! four-state baseline is exact under any *fair* scheduler \[DV12]. This
//! sweep probes both protocols under five adversarial (but fair,
//! fault-free) schedulers and two fault plans, crash/revive and state
//! corruption. Reported per cell: the wrong-consensus fraction (exactness
//! violations), the timeout count and the convergence-time summary, from
//! which the export derives each cell's *slowdown factor* relative to its
//! protocol's uniform baseline.
//!
//! Headline structure of the results: both protocols stay exact in every
//! cell; AVC additionally *stalls* (times out in a frozen mixed
//! configuration, never answering wrong) when the schedule is restricted
//! to a sparse interaction graph, while the four-state protocol converges
//! on any connected graph per \[DV12]. Schedulers draw all randomness from
//! the trial RNG and fault injection draws none, so a cell replays
//! bit-identically.

use super::{cell_rows, runnable, runs_flag, with_margin, FlagError, Sweep, SweepCell};
use crate::record::{f64_to_hex, CellResult, TrialSummary};
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::harness::EngineKind;
use avc_analysis::stats::Summary;
use avc_analysis::table::{fmt_num, Table};
use avc_population::faults::Fault;
use avc_population::{Opinion, Protocol, ProtocolSpec, Scenario, SchedulerSpec, StateId};
use avc_protocols::{Avc, FourState};

/// Protocols measured, in cell order. AVC runs with `m = 7, d = 1`
/// (10 states — exactness is parameter-independent; speed is not the
/// subject here).
const PROTOCOLS: [&str; 2] = ["avc", "four_state"];

/// One perturbation at population `n`: its label, scheduler, the fault
/// plan's text (for the manifest and the table) and its events.
type Perturbation = (&'static str, SchedulerSpec, String, Vec<(u64, Fault)>);

/// The perturbations in cell order, with parameters scaled to `n`; the
/// corruption turns `from` agents (the initial-A state) into `to` (the
/// initial-B state). Fault plans run under the uniform scheduler.
fn perturbations(n: u64, from: StateId, to: StateId) -> Vec<Perturbation> {
    let none = || "none".to_string();
    let crashed = (n as usize / 10).max(1);
    let corrupted = (n / 20).max(1);
    vec![
        ("uniform", SchedulerSpec::Uniform, none(), vec![]),
        (
            "biased",
            SchedulerSpec::Biased {
                hot: (n / 10).max(2),
                bias: 0.5,
            },
            none(),
            vec![],
        ),
        (
            "starved",
            SchedulerSpec::Starved {
                laggards: (n / 4).max(1),
                period: 16,
            },
            none(),
            vec![],
        ),
        ("epoch", SchedulerSpec::Epoch, none(), vec![]),
        (
            "star_restricted",
            SchedulerSpec::RestrictedStar,
            none(),
            vec![],
        ),
        (
            "cycle_restricted",
            SchedulerSpec::RestrictedCycle,
            none(),
            vec![],
        ),
        (
            "crash_revive",
            SchedulerSpec::Uniform,
            format!(
                "crash_revive(agents={crashed},crash_at={n},revive_at={})",
                20 * n
            ),
            (0..crashed)
                .flat_map(|agent| {
                    [
                        (n, Fault::Crash { agent }),
                        (20 * n, Fault::Revive { agent }),
                    ]
                })
                .collect(),
        ),
        (
            "corrupt",
            SchedulerSpec::Uniform,
            format!("corrupt(agents={corrupted},at={n},A->B)"),
            vec![(
                n,
                Fault::Corrupt {
                    from,
                    to,
                    agents: corrupted,
                },
            )],
        ),
    ]
}

/// Flags: `--n`, `--runs`, `--seed`.
///
/// Cells run protocol-major; cell `(pi, si)` draws from seed child
/// `pi · perturbations + si` of `seed`, so it reruns identically alone.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let n = args.get_u64("n", if quick { 41 } else { 201 })?;
    let epsilon = if quick { 0.5 } else { 0.2 };
    let runs = runs_flag(args, if quick { 6 } else { 25 })?;
    let seed = args.get_u64("seed", 77)?;
    let max_steps = if quick { 10_000_000 } else { 100_000_000 };
    let instance = with_margin("n", n, epsilon)?;
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (pi, key) in PROTOCOLS.into_iter().enumerate() {
        let (protocol, from, to) = match key {
            "avc" => {
                let avc = Avc::new(7, 1).expect("m = 7, d = 1 is a valid AVC");
                let (a, b) = (avc.input(Opinion::A), avc.input(Opinion::B));
                (ProtocolSpec::Avc { m: 7, d: 1 }, a, b)
            }
            _ => {
                let (a, b) = (FourState.input(Opinion::A), FourState.input(Opinion::B));
                (ProtocolSpec::FourState, a, b)
            }
        };
        let grid = perturbations(n, from, to);
        let per_protocol = grid.len();
        for (si, (label, scheduler, faults, events)) in grid.into_iter().enumerate() {
            let mut scenario = Scenario::new(protocol, instance)
                .engine(EngineKind::Agent)
                .scheduler(scheduler)
                .max_steps(max_steps)
                .runs(runs)
                .seed(seed)
                .seed_child((pi * per_protocol + si) as u64);
            for (at, fault) in events {
                scenario = scenario.fault(at, fault);
            }
            if pi == 0 {
                labels.push(label);
            }
            let row_faults = faults.clone();
            cells.push(SweepCell::batch(
                format!("{key}/{label}"),
                vec![
                    ("protocol", key.to_string()),
                    ("scenario_label", label.to_string()),
                    ("scheduler", scheduler.to_string()),
                    ("faults", faults),
                    ("eps", f64_to_hex(epsilon)),
                    ("eps_text", format!("{epsilon}")),
                    ("max_steps", max_steps.to_string()),
                ],
                runnable("n", scenario)?,
                move |results| {
                    // A run that never converges is a timeout, not an
                    // exactness violation: AVC stalls under sparse
                    // restricted schedules but never answers wrong.
                    let tally = results.tally();
                    let wrong_fraction = tally.wrong as f64 / runs as f64;
                    let timeouts = tally.timed_out + tally.stuck;
                    let times = results.converged_times();
                    let (mean, std) = if times.is_empty() {
                        ("-".to_string(), "-".to_string())
                    } else {
                        let s = Summary::from_samples(&times);
                        (fmt_num(s.mean), fmt_num(s.std_dev))
                    };
                    cell_rows(
                        [(
                            "robustness",
                            vec![
                                key.to_string(),
                                label.to_string(),
                                scheduler.to_string(),
                                row_faults.clone(),
                                fmt_num(wrong_fraction),
                                mean,
                                std,
                                timeouts.to_string(),
                                runs.to_string(),
                            ],
                        )],
                        [
                            ("wrong_fraction", wrong_fraction),
                            ("timeouts", timeouts as f64),
                        ],
                    )
                },
            ));
        }
    }

    Ok(Sweep {
        name: "robustness".to_string(),
        banner: format!(
            "AVC and four-state under adversarial schedulers and faults, n = {n}, \
             eps = {epsilon}, {runs} runs"
        ),
        cells,
        export: Box::new(move |results| {
            // Slowdown factors vs each protocol's uniform baseline, from the
            // checkpointed trial means (cells are protocol-major).
            let mut trailer = vec!["slowdown vs uniform (mean parallel time):".to_string()];
            for (protocol, row) in PROTOCOLS.iter().zip(results.chunks(labels.len())) {
                let mean_of = |r: &&CellResult| {
                    r.trials
                        .as_ref()
                        .and_then(TrialSummary::summary)
                        .map(|s| s.mean)
                };
                let Some(base) = row.first().and_then(mean_of) else {
                    continue;
                };
                for (label, r) in labels.iter().zip(row).skip(1) {
                    let factor = match mean_of(r) {
                        Some(mean) => format!("{:.2}x", mean / base),
                        None => "stalled (all runs timed out)".to_string(),
                    };
                    trailer.push(format!("  {protocol:11} {label:17} {factor}"));
                }
            }
            Export {
                tables: vec![(
                    "robustness".to_string(),
                    Table::new(
                        format!(
                            "Robustness under adversarial schedulers and faults \
                             (n = {n}, eps = {epsilon}, {runs} runs)"
                        ),
                        [
                            "protocol",
                            "scenario",
                            "scheduler",
                            "faults",
                            "wrong_consensus",
                            "mean_parallel_time",
                            "std_dev",
                            "timeouts",
                            "runs",
                        ],
                    ),
                )],
                trailer: vec![trailer.join("\n")],
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{args, run_sweep};
    use super::PROTOCOLS;
    use crate::specs::build;
    use avc_analysis::harness::StatsCollector;

    #[test]
    fn quick_grid_is_exact_where_the_paper_says_so() {
        let (plan, results, export) = run_sweep("robustness", &["--quick"]);
        assert_eq!(results.len(), PROTOCOLS.len() * 8);
        for (cell, r) in plan.cells.iter().zip(&results) {
            // Exactness: no scenario — adversarial or faulted — may
            // produce a wrong consensus at these fault magnitudes.
            assert_eq!(
                r.value("wrong_fraction"),
                Some(0.0),
                "{} answered wrong",
                cell.label
            );
            // four_state converges under every scenario (\[DV12] holds on
            // any connected graph), as does AVC under the clique-fair
            // schedulers; AVC stalls when the schedule is restricted to a
            // sparse graph — its transition structure assumes the clique.
            let avc_stalls = matches!(
                cell.label.as_str(),
                "avc/star_restricted" | "avc/cycle_restricted"
            );
            let timeouts = r.value("timeouts").unwrap();
            if avc_stalls {
                assert_eq!(timeouts, 6.0, "AVC unexpectedly converged");
            } else {
                assert_eq!(timeouts, 0.0, "{} timed out", cell.label);
            }
        }
        // Slowdowns resolve against the uniform baselines.
        assert!(export.trailer[0].lines().any(|l| l.contains("four_state")
            && l.contains("cycle_restricted")
            && l.ends_with('x')));
    }

    #[test]
    fn cells_rerun_identically_in_isolation() {
        let plan = build("robustness", &args(&["--quick"])).unwrap();
        let stats = StatsCollector::new();
        let cell = &plan.cells[8 + 2];
        let (a, b) = ((cell.run)(&stats), (cell.run)(&stats));
        assert_eq!(a.value("wrong_fraction"), b.value("wrong_fraction"));
        assert_eq!(a.value("timeouts"), b.value("timeouts"));
        assert_eq!(a.trials, b.trials);
    }
}
