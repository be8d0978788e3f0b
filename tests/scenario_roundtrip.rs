//! Property suite for the scenario plane's canonical form: parse → print →
//! parse is the identity on every runnable scenario, the canonical string
//! is a fixed point, and the content hash is stable across
//! re-serialization. Together these make a store manifest's embedded
//! scenario a faithful re-run recipe. Scenarios that could not run are
//! rejected at parse time with the error [`Scenario::validate`] names.

use avc::population::faults::{Fault, FaultEvent};
use avc::population::json::Json;
use avc::population::{
    ConvergenceRule, EngineKind, MajorityInstance, Opinion, ProtocolSpec, Scenario, SchedulerSpec,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn protocol_spec(choice: usize, half_m: u64, d: u32) -> ProtocolSpec {
    match choice % 6 {
        0 => ProtocolSpec::Avc {
            m: 2 * half_m + 1,
            d,
        },
        1 => ProtocolSpec::FourState,
        2 => ProtocolSpec::ThreeState,
        // Reuse the AVC parameter ranges for the rivals: `half_m` ∈ 0..=20
        // keeps levels within 1..=32 and `d` ∈ 1..=4 within 1..=64.
        3 => ProtocolSpec::Bef {
            levels: 1 + half_m as u32,
        },
        4 => ProtocolSpec::Degssu {
            levels: 1 + half_m as u32,
            phase: d,
        },
        _ => ProtocolSpec::Voter,
    }
}

fn engine_kind(choice: usize) -> EngineKind {
    match choice % 6 {
        0 => EngineKind::Auto,
        1 => EngineKind::Agent,
        2 => EngineKind::Count,
        3 => EngineKind::Jump,
        4 => EngineKind::Adaptive,
        _ => EngineKind::TauLeap,
    }
}

fn scheduler_spec(choice: usize, x: u64, y: u64) -> SchedulerSpec {
    match choice % 6 {
        0 => SchedulerSpec::Uniform,
        1 => SchedulerSpec::Biased {
            hot: 2 + x % 14,
            bias: (y % 10) as f64 / 10.0,
        },
        2 => SchedulerSpec::Starved {
            laggards: 1 + x % 8,
            period: 2 + y % 50,
        },
        3 => SchedulerSpec::Epoch,
        4 => SchedulerSpec::RestrictedStar,
        _ => SchedulerSpec::RestrictedCycle,
    }
}

fn fault(choice: usize, at: u64, x: u64, y: u64) -> FaultEvent {
    let agent = (x % 64) as usize;
    let fault = match choice % 6 {
        0 => Fault::Crash { agent },
        1 => Fault::Revive { agent },
        2 => Fault::StickAt { agent },
        3 => Fault::Unstick { agent },
        4 => Fault::BitFlip {
            agent,
            bit: (y % 8) as u32,
        },
        _ => Fault::Corrupt {
            from: (x % 10) as u32,
            to: (y % 10) as u32,
            agents: 1 + y % 5,
        },
    };
    FaultEvent { at_step: at, fault }
}

fn rule(choice: usize, count: u64) -> ConvergenceRule {
    match choice % 4 {
        0 => ConvergenceRule::OutputConsensus,
        1 => ConvergenceRule::StateConsensus,
        2 => ConvergenceRule::Silence,
        _ => ConvergenceRule::OutputCount {
            opinion: if count.is_multiple_of(2) {
                Opinion::A
            } else {
                Opinion::B
            },
            count,
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn scenario(
    (p_choice, half_m, d): (usize, u64, u32),
    (a, b): (u64, u64),
    e_choice: usize,
    (s_choice, sx, sy): (usize, u64, u64),
    faults: Vec<(usize, u64, u64, u64)>,
    (r_choice, r_count): (usize, u64),
    (max_steps_raw, runs, seed): (u64, u64, u64),
    seed_child: u64,
) -> Scenario {
    let mut built = Scenario::new(
        protocol_spec(p_choice, half_m, d),
        MajorityInstance::new(a, b),
    )
    .engine(engine_kind(e_choice))
    .scheduler(scheduler_spec(s_choice, sx, sy))
    .rule(rule(r_choice, r_count))
    .runs(runs)
    .seed(seed);
    // Exercise both the "absent because default" and the explicit spelling.
    if max_steps_raw != 0 {
        built = built.max_steps(max_steps_raw);
    }
    if seed_child.is_multiple_of(2) {
        built = built.seed_child(seed_child);
    }
    for (choice, at, x, y) in faults {
        built = built.fault(at, fault(choice, at, x, y).fault);
    }
    built
}

/// parse(canonical(s)) is `s` itself when `s` is runnable, else the error
/// `s.validate()` names. Checked for `s` and for `s` on the agent engine,
/// which takes every scheduler and fault, so most cases exercise the
/// identity.
fn assert_round_trip(original: &Scenario) -> Result<(), TestCaseError> {
    for scenario in [original.clone(), original.clone().engine(EngineKind::Agent)] {
        let parsed = Scenario::parse(&scenario.canonical());
        match scenario.validate() {
            Ok(()) => {
                let reparsed = parsed.expect("a runnable scenario's canonical form parses");
                prop_assert_eq!(&reparsed, &scenario);
                // The canonical string is a fixed point, so the hash is stable.
                prop_assert_eq!(reparsed.canonical(), scenario.canonical());
                prop_assert_eq!(reparsed.hash(), scenario.hash());
            }
            Err(why) => prop_assert_eq!(parsed, Err(why)),
        }
    }
    Ok(())
}

proptest! {
    /// parse(canonical(s)) == s for arbitrary runnable scenarios.
    #[test]
    fn parse_print_parse_is_identity(
        p in (0usize..6, 0u64..=20, 1u32..=4),
        inst in (1u64..500, 1u64..500),
        e_choice in 0usize..6,
        sched in (0usize..6, any::<u64>(), any::<u64>()),
        faults in proptest::collection::vec((0usize..6, 0u64..10_000, any::<u64>(), any::<u64>()), 0..4),
        r in (0usize..4, 0u64..1_000),
        tail in (0u64..5_000_000, 1u64..200, any::<u64>()),
        seed_child in any::<u64>(),
    ) {
        let original = scenario(p, inst, e_choice, sched, faults, r, tail, seed_child);
        assert_round_trip(&original)?;
    }

    /// Pretty-printed (hand-authored style) JSON parses to the same value
    /// and the same canonical hash as the compact canonical form.
    #[test]
    fn pretty_form_is_equivalent(
        p in (0usize..6, 0u64..=20, 1u32..=4),
        inst in (1u64..500, 1u64..500),
        e_choice in 0usize..6,
        sched in (0usize..6, any::<u64>(), any::<u64>()),
        r in (0usize..4, 0u64..1_000),
        tail in (0u64..5_000_000, 1u64..200, any::<u64>()),
    ) {
        let original = scenario(p, inst, e_choice, sched, Vec::new(), r, tail, 1);
        for scenario in [original.clone(), original.engine(EngineKind::Agent)] {
            let pretty = Json::parse(&scenario.canonical())
                .expect("canonical form is JSON")
                .to_string_pretty();
            match (Scenario::parse(&pretty), scenario.validate()) {
                (Ok(reparsed), Ok(())) => {
                    prop_assert_eq!(reparsed.hash(), scenario.hash());
                    prop_assert_eq!(reparsed, scenario);
                }
                (parsed, why) => prop_assert_eq!(parsed.err(), why.err()),
            }
        }
    }
}

#[test]
fn unknown_fields_are_rejected() {
    let err = Scenario::parse(r#"{"protocol":"voter","typo":1}"#).unwrap_err();
    assert!(err.contains("typo"), "{err}");
}

#[test]
fn committed_example_scenarios_parse() {
    let mut singles = 0;
    let mut grids = 0;
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios"))
        .expect("examples/scenarios exists")
    {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".grid.json"))
        {
            // Grid files bundle many scenarios; `ScenarioGrid::parse`
            // parses (and so validates) every embedded one.
            let grid = avc::store::scenario_grid::ScenarioGrid::parse(&text)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
            assert!(!grid.cells.is_empty(), "{}", path.display());
            grids += 1;
            continue;
        }
        Scenario::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        singles += 1;
    }
    assert!(singles > 0 && grids > 0, "{singles} singles, {grids} grids");
}

/// The scenarios that used to parse and then panic a trial worker, each
/// rejected by `Scenario::parse` with its own message.
#[test]
fn unrunnable_scenarios_are_rejected_at_parse_time() {
    let base = r#""protocol":"four_state","instance":{"a":23,"b":18},"rule":"output_consensus","runs":3,"seed":11"#;
    let table = [
        (
            r#""engine":"count","faults":[{"at":0,"kind":"stick_at","agent":40}]"#,
            "fault 0 (`stick(agent 40)` at step 0) addresses an agent, which needs per-agent \
             identity — set \"engine\": \"agent\" (got `count`)",
        ),
        (
            r#""engine":"tau_leap","faults":[{"at":5,"kind":"crash","agent":1}]"#,
            "fault 0 (`crash(agent 1)` at step 5) addresses an agent, which needs per-agent \
             identity — set \"engine\": \"agent\" (got `tau_leap`)",
        ),
        (
            r#""engine":"agent","faults":[{"at":0,"kind":"stick_at","agent":4000}]"#,
            "fault 0 (`stick(agent 4000)` at step 0) addresses agent 4000, outside the \
             population of n = 41",
        ),
        (
            r#""engine":"agent","faults":[{"at":0,"kind":"bit_flip","agent":2,"bit":32}]"#,
            "fault 0 (`bitflip(agent 2, bit 32)` at step 0) flips bit 32 of a 32-bit state id",
        ),
        (
            r#""engine":"count","faults":[{"at":0,"kind":"corrupt","from":0,"to":99,"agents":2}]"#,
            "fault 0 (`corrupt(2: 0->99)` at step 0) names state 99, outside the 4 states of \
             `four_state`",
        ),
        (
            r#""engine":"count","scheduler":"epoch""#,
            "scheduler `epoch` needs per-agent scheduling — set \"engine\": \"agent\" \
             (got `count`)",
        ),
        (
            r#""engine":"agent","scheduler":"biased(hot=50,bias=0.5)""#,
            "invalid scheduler `biased(hot=50,bias=0.5)`: hot must be in 2..=41 (the population)",
        ),
        (
            r#""engine":"agent","scheduler":"biased(hot=4,bias=1)""#,
            "invalid scheduler `biased(hot=4,bias=1)`: bias must be in [0, 1)",
        ),
        (
            r#""engine":"agent","scheduler":"starved(laggards=40,period=8)""#,
            "invalid scheduler `starved(laggards=40,period=8)`: laggards must be in 1..=39 \
             (two agents of 41 must stay eligible)",
        ),
        (
            r#""engine":"agent","scheduler":"starved(laggards=3,period=1)""#,
            "invalid scheduler `starved(laggards=3,period=1)`: period must be >= 2",
        ),
    ];
    for (fields, message) in table {
        let text = format!("{{{base},{fields}}}");
        assert_eq!(Scenario::parse(&text), Err(message.to_string()), "{text}");
    }
    // The same scenarios on the agent engine, in range, are accepted.
    let fine = format!(
        r#"{{{base},"engine":"agent","scheduler":"epoch","faults":[{{"at":0,"kind":"stick_at","agent":40}},{{"at":0,"kind":"corrupt","from":0,"to":3,"agents":2}}]}}"#
    );
    assert!(Scenario::parse(&fine).is_ok(), "{fine}");
    let cycle = r#"{"protocol":"voter","instance":{"a":1,"b":1},"engine":"agent","scheduler":"restricted(cycle)","rule":"output_consensus","runs":1,"seed":0}"#;
    assert_eq!(
        Scenario::parse(cycle),
        Err(
            "invalid scheduler `restricted(cycle)`: a cycle needs at least three agents (n = 2)"
                .to_string()
        )
    );
}
