//! The three-state protocol's error law (behind Figure 3, right).
//!
//! \[PVV09] prove the three-state protocol converges to the wrong state with
//! probability `exp(−D((1+ε)/2 ‖ 1/2)·n) ≈ exp(−ε²n/2)` for small `ε`. This
//! sweep measures the empirical error fraction across margins and
//! populations and reports it against the theory, verifying the
//! approximation regime in which Figure 3 (right) shows sizable error.

use super::{cell_rows, rule_name, runnable, runs_flag, with_margin, FlagError, Sweep, SweepCell};
use crate::record::f64_to_hex;
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::harness::EngineKind;
use avc_analysis::table::{fmt_num, Table};
use avc_population::{ConvergenceRule, ProtocolSpec, Scenario};

/// The KL divergence `D(p ‖ q)` between Bernoulli distributions.
///
/// # Panics
///
/// Panics unless both arguments lie strictly inside `(0, 1)`.
fn bernoulli_kl(p: f64, q: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0 && q > 0.0 && q < 1.0,
        "need p, q in (0,1)"
    );
    p * (p / q).ln() + (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln()
}

/// Flags: `--ns`, `--runs`, `--seed`. Cell `(ni, ei)` is seeded with
/// `seed + 100·ni + ei`; trials run to the terminal all-`x`/all-`y` state.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let ns = args.get_u64_list("ns", if quick { &[1_001] } else { &[1_001, 10_001] })?;
    let epsilons: &[f64] = if quick {
        &[0.01, 0.1]
    } else {
        &[0.001, 0.005, 0.01, 0.02, 0.03, 0.05, 0.08]
    };
    let runs = runs_flag(args, if quick { 60 } else { 400 })?;
    let seed = args.get_u64("seed", 55)?;
    let mut cells = Vec::new();
    for (ni, &n) in ns.iter().enumerate() {
        for (ei, &eps) in epsilons.iter().enumerate() {
            let scenario = Scenario::new(ProtocolSpec::ThreeState, with_margin("ns", n, eps)?)
                .engine(EngineKind::Jump)
                .rule(ConvergenceRule::StateConsensus)
                .runs(runs)
                .seed(seed + (ni as u64) * 100 + ei as u64);
            let achieved = scenario.instance.margin();
            if achieved >= 1.0 {
                return Err(FlagError::new(
                    "ns",
                    format!("{n} agents: eps = {eps} leaves no minority; the KL bound needs one"),
                ));
            }
            let kl_bound = (-bernoulli_kl((1.0 + achieved) / 2.0, 0.5) * n as f64).exp();
            cells.push(SweepCell::batch(
                format!("n={n}/eps={eps}"),
                vec![
                    ("protocol", "three_state".to_string()),
                    ("rule", rule_name(scenario.rule).to_string()),
                    ("eps", f64_to_hex(eps)),
                    ("eps_text", format!("{eps}")),
                ],
                runnable("ns", scenario)?,
                move |results| {
                    let error_fraction = results.error_fraction();
                    cell_rows(
                        [(
                            "err_three_state",
                            vec![
                                n.to_string(),
                                fmt_num(achieved),
                                fmt_num(achieved * achieved * n as f64),
                                fmt_num(error_fraction),
                                fmt_num(kl_bound),
                                results.outcomes().len().to_string(),
                            ],
                        )],
                        [("error_fraction", error_fraction), ("kl_bound", kl_bound)],
                    )
                },
            ));
        }
    }

    Ok(Sweep {
        name: "err_three_state".to_string(),
        banner: format!("error fraction vs KL bound, n in {ns:?}, {runs} runs per point"),
        cells,
        export: Box::new(|_| Export {
            tables: vec![(
                "err_three_state".to_string(),
                Table::new(
                    "Three-state error probability vs the PVV09 KL bound",
                    ["n", "eps", "eps^2*n", "error_fraction", "kl_bound", "runs"],
                ),
            )],
            trailer: vec![],
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::run_sweep;
    use super::bernoulli_kl;

    #[test]
    fn kl_of_fair_coin_is_zero() {
        assert!(bernoulli_kl(0.5, 0.5).abs() < 1e-15);
        assert!(bernoulli_kl(0.6, 0.5) > 0.0);
    }

    #[test]
    #[should_panic(expected = "(0,1)")]
    fn kl_rejects_degenerate() {
        let _ = bernoulli_kl(1.0, 0.5);
    }

    #[test]
    fn error_decays_with_margin() {
        let (_, results, _) = run_sweep(
            "err_three_state",
            &["--quick", "--ns", "601", "--runs", "80", "--seed", "1"],
        );
        let error = |i: usize| results[i].value("error_fraction").unwrap();
        let kl_bound = |i: usize| results[i].value("kl_bound").unwrap();
        // Near-tie: errors common. Wide margin: errors (almost) gone.
        assert!(error(0) > 0.15, "{}", error(0));
        assert!(error(1) < 0.05, "{}", error(1));
        // KL bound orders the same way.
        assert!(kl_bound(0) > kl_bound(1));
    }
}
