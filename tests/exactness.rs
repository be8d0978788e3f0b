//! Exactness: AVC and the four-state protocol must *never* converge to the
//! minority opinion — statistically at simulation scale, and exhaustively
//! (over all schedules) at model-checking scale.

use avc::analysis::harness::ScenarioPlan;
use avc::population::{MajorityInstance, ProtocolSpec, Scenario};
use avc::protocols::{Avc, FourState};
use avc::verify::reach::check_exact_majority;

/// AVC with assorted parameters never errs across margins and seeds.
#[test]
fn avc_exact_across_margins_and_parameters() {
    for (m, d) in [(1u64, 1u32), (5, 1), (15, 1), (15, 3), (63, 2)] {
        let avc = ProtocolSpec::Avc { m, d };
        for (n, eps) in [(101u64, 0.01), (501, 0.002), (1_001, 0.05)] {
            let scenario = Scenario::new(avc, MajorityInstance::with_margin(n, eps))
                .runs(25)
                .seed(m * 100 + d as u64);
            let results = ScenarioPlan::new(scenario).run();
            assert_eq!(
                results.error_fraction(),
                0.0,
                "AVC(m={m},d={d}) erred at n={n}, eps={eps}"
            );
            assert_eq!(results.convergence_fraction(), 1.0);
        }
    }
}

/// Minority-B inputs must also be decided exactly (symmetry check: the
/// analysis assumes A-majority w.l.o.g., the code must not).
#[test]
fn avc_exact_when_b_is_majority() {
    let avc = ProtocolSpec::Avc { m: 9, d: 1 };
    let scenario = Scenario::new(avc, MajorityInstance::new(200, 301))
        .runs(25)
        .seed(8);
    let results = ScenarioPlan::new(scenario).run();
    assert_eq!(results.error_fraction(), 0.0);
}

/// Exhaustive (all-schedules) exactness at model-checking scale: every
/// instance with n ≤ 7 for several AVC parameterizations.
#[test]
fn avc_exhaustively_exact_small_n() {
    for (m, d) in [(1u64, 1u32), (3, 1), (5, 2)] {
        let avc = Avc::new(m, d).expect("valid parameters");
        for n in 2..=6u64 {
            for a in 0..=n {
                let verdict = check_exact_majority(&avc, a, n - a, 3_000_000)
                    .expect("state space within budget");
                assert!(
                    verdict.is_correct(),
                    "AVC(m={m},d={d}) violated at a={a}, b={}",
                    n - a
                );
            }
        }
    }
}

/// The four-state protocol is exhaustively exact too (the known baseline).
#[test]
fn four_state_exhaustively_exact_small_n() {
    for n in 2..=8u64 {
        for a in 0..=n {
            let verdict =
                check_exact_majority(&FourState, a, n - a, 1_000_000).expect("within budget");
            assert!(verdict.is_correct(), "violated at a={a}, b={}", n - a);
        }
    }
}

/// The hardest margin: a single-agent advantage at moderate scale, many
/// seeds — the headline exactness claim of Figure 3 (right).
#[test]
fn single_agent_advantage_always_decides_correctly() {
    let avc = Avc::with_states(1_001).expect("valid budget");
    let spec = ProtocolSpec::Avc {
        m: avc.m(),
        d: avc.d(),
    };
    let scenario = Scenario::new(spec, MajorityInstance::one_extra(1_001))
        .runs(60)
        .seed(13);
    let results = ScenarioPlan::new(scenario).run();
    assert_eq!(results.error_fraction(), 0.0);
}
