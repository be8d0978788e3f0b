//! Fault-injection stress suite: pinned protocol behaviours under agent
//! crashes, stuck-at agents, and transient state corruption.
//!
//! Every test here is deterministic: fault injection draws no randomness,
//! the schedules are seeded, and the pinned seeds were chosen by
//! inspecting real runs — a failure means the fault machinery or a
//! protocol changed behaviour, not that the dice rolled differently.

use avc::population::driver::{Driver, DriverEvent, NullObserver, Observer, SimView};
use avc::population::engine::{AdaptiveSim, AgentSim, CountSim, JumpSim, Simulator, TauLeapSim};
use avc::population::faults::{Fault, FaultError, FaultEvent, FaultPlan};
use avc::population::graph::Graph;
use avc::population::spec::Verdict;
use avc::population::{Config, ConvergenceRule, Opinion, Protocol};
use avc::protocols::{Avc, FourState, ThreeState};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn drive_faulted<S: Simulator>(
    sim: &mut S,
    plan: &mut FaultPlan,
    seed: u64,
    max_steps: u64,
) -> avc::population::spec::RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    Driver::new(ConvergenceRule::OutputConsensus)
        .with_max_steps(max_steps)
        .run_faulted(sim, &mut rng, &mut NullObserver, plan)
}

/// Pinned fault-mode behaviour #1: the three-state protocol — approximate
/// by design — *flips its outcome* under a small corruption. At
/// `a = 52, b = 49` (margin 3), corrupting 5 agents from the A input state
/// to the B input state swings the effective majority, and seeds whose
/// clean run answers A answer B when faulted. The corruption path here is
/// the count-space one (`CountSim`), shared by all counting engines.
#[test]
fn three_state_outcome_flips_under_small_corruption() {
    let ts = ThreeState::new();
    // Seeds chosen by inspection: the clean run converges to A on each.
    for seed in [1u64, 2, 4] {
        let mut sim = CountSim::new(ts, Config::from_input(&ts, 52, 49));
        let mut rng = SmallRng::seed_from_u64(seed);
        let clean = Driver::new(ConvergenceRule::OutputConsensus)
            .with_max_steps(10_000_000)
            .run(&mut sim, &mut rng, &mut NullObserver);
        assert_eq!(clean.verdict, Verdict::Consensus(Opinion::A), "seed {seed}");

        let mut sim = CountSim::new(ts, Config::from_input(&ts, 52, 49));
        let mut plan = FaultPlan::new().at(
            0,
            Fault::Corrupt {
                from: ts.input(Opinion::A),
                to: ts.input(Opinion::B),
                agents: 5,
            },
        );
        let faulted = drive_faulted(&mut sim, &mut plan, seed, 10_000_000);
        assert_eq!(
            faulted.verdict,
            Verdict::Consensus(Opinion::B),
            "corruption failed to flip seed {seed}"
        );
        assert_eq!(plan.remaining(), 0, "fault was never applied");
    }
}

/// Pinned fault-mode behaviour #2: a *single* stuck-at agent defeats
/// four-state exactness. The protocol's correctness rests on conserving
/// the signed strong-token difference; an agent stuck in the strong-B
/// input state re-injects B influence at every interaction, and the whole
/// majority-A population is dragged to a wrong all-B consensus —
/// `count_a` reaches zero among the free agents too.
#[test]
fn single_stuck_agent_defeats_four_state_exactness() {
    for seed in 0..6u64 {
        let config = Config::from_input(&FourState, 15, 10);
        let mut sim = AgentSim::new(&FourState, config.clone(), Graph::clique(25));
        // Agent 24 is the last initial-B agent; stick it from step 0.
        let mut plan = FaultPlan::new().at(0, Fault::StickAt { agent: 24 });
        let out = drive_faulted(&mut sim, &mut plan, seed, 2_000_000);
        assert_eq!(
            out.verdict,
            Verdict::Consensus(Opinion::B),
            "seed {seed}: stuck agent failed to drag the population"
        );
        assert_eq!(sim.count_a(), 0, "seed {seed}");
        assert!(sim.is_stuck(24));

        // The same seed without the fault answers correctly.
        let mut sim = AgentSim::new(&FourState, config, Graph::clique(25));
        let mut rng = SmallRng::seed_from_u64(seed);
        let clean = Driver::new(ConvergenceRule::OutputConsensus)
            .with_max_steps(2_000_000)
            .run(&mut sim, &mut rng, &mut NullObserver);
        assert_eq!(clean.verdict, Verdict::Consensus(Opinion::A), "seed {seed}");
    }
}

/// Pinned fault-mode behaviour #3: AVC *recovers* from `k` crash/revive
/// events. Five of 25 agents crash early (their states freeze, their
/// outputs still count toward consensus) and revive at step 500; every
/// seeded run still converges to the correct majority, and only after the
/// revival — the frozen mid-protocol states block consensus until then.
#[test]
fn avc_recovers_from_crash_revive_events() {
    let avc = Avc::new(5, 1).expect("valid parameters");
    let (crash_at, revive_at) = (25u64, 500u64);
    for seed in 0..8u64 {
        let config = Config::from_input(&avc, 13, 12);
        let mut sim = AgentSim::new(&avc, config, Graph::clique(25));
        let mut events = Vec::new();
        for agent in 0..5usize {
            events.push(FaultEvent {
                at_step: crash_at,
                fault: Fault::Crash { agent },
            });
            events.push(FaultEvent {
                at_step: revive_at,
                fault: Fault::Revive { agent },
            });
        }
        let mut plan = FaultPlan::from_events(events);
        let out = drive_faulted(&mut sim, &mut plan, seed, 2_000_000);
        assert_eq!(
            out.verdict,
            Verdict::Consensus(Opinion::A),
            "seed {seed}: AVC failed to recover"
        );
        assert!(
            out.steps > revive_at,
            "seed {seed}: consensus at step {} before the revival at {revive_at}",
            out.steps
        );
        assert_eq!(plan.remaining(), 0);
    }
}

/// Same seed, same plan, twice: identical verdict, step count, and final
/// configuration. Faulted runs replay bit-identically because injection
/// draws no randomness and fires at deterministic steps.
#[test]
fn faulted_runs_replay_bit_identically() {
    let avc = Avc::new(7, 1).expect("valid parameters");
    let run_once = || {
        let config = Config::from_input(&avc, 30, 21);
        let mut sim = AgentSim::new(&avc, config, Graph::clique(51));
        let mut plan = FaultPlan::new()
            .at(40, Fault::Crash { agent: 3 })
            .at(60, Fault::BitFlip { agent: 10, bit: 0 })
            .at(300, Fault::Revive { agent: 3 });
        let out = drive_faulted(&mut sim, &mut plan, 7, 2_000_000);
        (out, sim.counts().to_vec())
    };
    let (out_a, counts_a) = run_once();
    let (out_b, counts_b) = run_once();
    assert_eq!(out_a, out_b);
    assert_eq!(counts_a, counts_b);
}

/// `Corrupt` is engine-universal: every counting engine applies it in
/// count space, preserves the population, and continues to a valid run.
#[test]
fn corruption_is_supported_by_every_engine() {
    let check = |sim: &mut dyn Simulator, label: &str| {
        let n = sim.population();
        let moved = sim
            .inject(Fault::Corrupt {
                from: 0,
                to: 1,
                agents: 4,
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(moved, 4, "{label}");
        assert_eq!(sim.population(), n, "{label} changed the population");
        assert_eq!(sim.counts().iter().sum::<u64>(), n, "{label}");
    };
    let config = || Config::from_input(&FourState, 40, 20);
    check(&mut CountSim::new(FourState, config()), "CountSim");
    check(&mut JumpSim::new(FourState, config()), "JumpSim");
    check(&mut AdaptiveSim::new(FourState, config()), "AdaptiveSim");
    check(&mut TauLeapSim::new(FourState, config()), "TauLeapSim");
    check(
        &mut AgentSim::new(FourState, config(), Graph::clique(60)),
        "AgentSim",
    );
}

/// Corrupting more agents than the source state holds moves only what is
/// there, on every engine.
#[test]
fn corruption_clamps_to_the_source_count() {
    let mut sim = CountSim::new(FourState, Config::from_input(&FourState, 3, 20));
    let moved = sim
        .inject(Fault::Corrupt {
            from: 0,
            to: 1,
            agents: 1_000,
        })
        .expect("corrupt is supported");
    assert_eq!(moved, 3);
    assert_eq!(sim.counts().iter().sum::<u64>(), 23);
}

/// Agent-addressed faults require agent identity, which only [`AgentSim`]
/// has; the counting engines must refuse them loudly rather than guess.
#[test]
fn agent_addressed_faults_are_rejected_by_counting_engines() {
    let mut sim = CountSim::new(FourState, Config::from_input(&FourState, 5, 5));
    for fault in [
        Fault::Crash { agent: 0 },
        Fault::Revive { agent: 0 },
        Fault::StickAt { agent: 0 },
        Fault::Unstick { agent: 0 },
        Fault::BitFlip { agent: 0, bit: 1 },
    ] {
        match sim.inject(fault) {
            Err(FaultError::Unsupported { engine, .. }) => assert_eq!(engine, "CountSim"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}

/// Observers hear each injection as a [`DriverEvent::Fault`], at the first
/// reachable step at or after its scheduled step.
#[test]
fn observer_sees_fault_events_in_schedule_order() {
    struct FaultLog {
        seen: Vec<(u64, Fault)>,
    }
    impl Observer for FaultLog {
        fn on_event(&mut self, view: &SimView<'_>, event: &DriverEvent) {
            if let DriverEvent::Fault(fault) = event {
                self.seen.push((view.steps, *fault));
            }
        }
    }

    let config = Config::from_input(&FourState, 30, 21);
    let mut sim = AgentSim::new(&FourState, config, Graph::clique(51));
    let mut plan = FaultPlan::new()
        .at(100, Fault::Crash { agent: 2 })
        .at(10, Fault::StickAt { agent: 7 })
        .at(100, Fault::Revive { agent: 2 });
    let mut log = FaultLog { seen: Vec::new() };
    let mut rng = SmallRng::seed_from_u64(3);
    let out = Driver::new(ConvergenceRule::OutputConsensus)
        .with_max_steps(50)
        .run_faulted(&mut sim, &mut rng, &mut log, &mut plan);

    // Only the step-10 fault fires within the 50-step budget.
    assert_eq!(out.verdict, Verdict::MaxSteps);
    assert_eq!(log.seen.len(), 1);
    assert_eq!(log.seen[0].1, Fault::StickAt { agent: 7 });
    assert!(log.seen[0].0 >= 10, "fired before its scheduled step");
    assert_eq!(plan.remaining(), 2, "the step-100 faults must stay pending");
}
