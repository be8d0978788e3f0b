//! End-to-end suite for the rival exact-majority protocols (BEF and
//! DEGSSU): exhaustive small-`n` model checks of the three exact-majority
//! properties, margin-1 exactness pins on every applicable engine,
//! RNG-stream determinism of the scenario harness, and the declarative
//! scenario strings the comparison grids are written in.

use avc::analysis::harness::ScenarioPlan;
use avc::population::spec::Verdict;
use avc::population::{EngineKind, MajorityInstance, ProtocolSpec, Scenario};
use avc::protocols::{Bef, Degssu};
use avc::verify::reach::check_exact_majority;

/// Exhaustive reachability check of Theorem B.1's three properties
/// (correct absorbing configuration reachable, wrong consensus never
/// stable, correctness always recoverable) for every split of every tiny
/// population — the strongest exactness statement short of a proof, and
/// scheduler-independent by construction.
fn assert_exhaustively_exact<P: avc::population::Protocol>(protocol: &P, label: &str) {
    for n in 1..=6u64 {
        for a in 0..=n {
            let verdict = check_exact_majority(protocol, a, n - a, 5_000_000)
                .unwrap_or_else(|e| panic!("{label} n={n} a={a}: state space too large: {e:?}"));
            assert!(
                verdict.is_correct(),
                "{label} fails exact majority at n={n}, a={a}: {verdict:?}"
            );
        }
    }
}

#[test]
fn bef_is_exhaustively_exact_on_small_populations() {
    let bef = Bef::new(2).expect("valid parameters");
    assert_exhaustively_exact(&bef, "bef(l=2)");
}

#[test]
fn degssu_is_exhaustively_exact_on_small_populations() {
    let degssu = Degssu::new(2, 1).expect("valid parameters");
    assert_exhaustively_exact(&degssu, "degssu(l=2,t=1)");
}

/// Builds the margin-1 scenario the engine matrix below runs.
fn margin1_scenario(protocol: ProtocolSpec, engine: EngineKind, seed: u64) -> Scenario {
    Scenario::new(protocol, MajorityInstance::one_extra(101))
        .engine(engine)
        .runs(7)
        .seed(seed)
        .max_steps(50_000_000)
}

/// Every run must converge to the true majority (A, since `a = b + 1`).
fn assert_all_correct(scenario: &Scenario, label: &str) {
    let results = ScenarioPlan::new(scenario.clone()).run();
    for outcome in results.outcomes() {
        assert_eq!(
            outcome.verdict,
            Verdict::Consensus(avc::population::Opinion::A),
            "{label}: {outcome:?}"
        );
    }
    assert_eq!(results.outcomes().len(), 7, "{label}");
}

/// Both rivals decide margin-1 majority correctly on every exact engine —
/// the count-space engines (with their dense cached transition tables at
/// these state counts), the jump chain, the per-agent engine, and the
/// adaptive/auto selectors.
#[test]
fn rivals_converge_exactly_on_every_exact_engine() {
    let engines = [
        EngineKind::Auto,
        EngineKind::Count,
        EngineKind::Jump,
        EngineKind::Agent,
        EngineKind::Adaptive,
    ];
    for engine in engines {
        let bef = margin1_scenario(ProtocolSpec::Bef { levels: 7 }, engine, 71);
        assert_all_correct(&bef, &format!("bef on {engine}"));
        let degssu = margin1_scenario(
            ProtocolSpec::Degssu {
                levels: 7,
                phase: 3,
            },
            engine,
            72,
        );
        assert_all_correct(&degssu, &format!("degssu on {engine}"));
    }
}

/// The scenario harness is RNG-stream deterministic for the rivals: the
/// same scenario replayed twice yields identical verdicts and identical
/// step counts, run by run.
#[test]
fn rival_scenarios_replay_deterministically() {
    for protocol in [
        ProtocolSpec::Bef { levels: 6 },
        ProtocolSpec::Degssu {
            levels: 6,
            phase: 4,
        },
    ] {
        let scenario = margin1_scenario(protocol, EngineKind::Auto, 1234);
        let first = ScenarioPlan::new(scenario.clone()).run();
        let second = ScenarioPlan::new(scenario).run();
        assert_eq!(first.outcomes(), second.outcomes(), "{protocol}");
    }
}

/// The grid files drive the rivals purely through scenario strings; pin
/// the full declarative path — JSON text through `Scenario::parse`,
/// `build_erased`, and an adversarial scheduler on the agent engine — for
/// both protocols.
#[test]
fn rival_scenario_strings_run_under_adversarial_schedulers() {
    for (protocol, seed) in [("bef(l=5)", 51), ("degssu(l=5,t=2)", 52)] {
        let text = format!(
            r#"{{"schema": 1, "protocol": "{protocol}",
                "instance": {{"a": 26, "b": 25}},
                "engine": "agent",
                "scheduler": "biased(hot=6,bias=0.8)",
                "rule": "output_consensus",
                "max_steps": 10000000, "runs": 5, "seed": {seed}}}"#
        );
        let scenario = Scenario::parse(&text).expect("scenario string parses");
        let results = ScenarioPlan::new(scenario).run();
        for outcome in results.outcomes() {
            assert_eq!(
                outcome.verdict,
                Verdict::Consensus(avc::population::Opinion::A),
                "{protocol}: {outcome:?}"
            );
        }
    }
}

/// The state-count seam the sweep accounting relies on: the spec-level
/// formula, the harness resolution, and the concrete protocols agree.
#[test]
fn rival_state_counts_agree_across_the_seam() {
    use avc::population::Protocol;
    let bef = Bef::new(9).expect("valid parameters");
    let spec = ProtocolSpec::Bef { levels: 9 };
    assert_eq!(u64::from(bef.num_states()), spec.state_count());
    assert_eq!(avc::analysis::harness::spec_states(spec), bef.num_states());

    let degssu = Degssu::new(9, 4).expect("valid parameters");
    let spec = ProtocolSpec::Degssu {
        levels: 9,
        phase: 4,
    };
    assert_eq!(u64::from(degssu.num_states()), spec.state_count());
    assert_eq!(
        avc::analysis::harness::spec_states(spec),
        degssu.num_states()
    );
}
