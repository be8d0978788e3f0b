//! Convergence-detector unit tests on hand-built edge configurations:
//! `n = 1` predicate projections, exact-tie inputs, already-unanimous
//! starts, unsatisfiable rules, and the verdict mapping for silent
//! configurations.
//!
//! The detectors live in two layers — [`StopCondition::for_rule`] projects
//! a [`ConvergenceRule`] into count-space predicates the engines evaluate
//! inline, and the driver maps predicate/silence hits back into a
//! [`Verdict`]. Both layers are pinned here.

use avc::population::driver::{Driver, NullObserver};
use avc::population::engine::{CountSim, JumpSim, Simulator, StopCondition};
use avc::population::protocol::tests_support::{Annihilate, Voter};
use avc::population::spec::Verdict;
use avc::population::{Config, ConvergenceRule, MajorityInstance, Opinion, Protocol, StateId};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

fn run_rule<P: Protocol>(
    protocol: P,
    config: Config,
    rule: ConvergenceRule,
    seed: u64,
    max_steps: u64,
) -> avc::population::spec::RunOutcome {
    let mut sim = CountSim::new(protocol, config);
    let mut rng = SmallRng::seed_from_u64(seed);
    Driver::new(rule)
        .with_max_steps(max_steps)
        .run(&mut sim, &mut rng, &mut NullObserver)
}

/// A single agent is always in output consensus: at `n = 1` the projected
/// predicates (`count_a ≤ 0`, `count_a ≥ 1`) cover both possible counts.
/// The engines refuse `n < 2`, so this boundary lives entirely in the
/// predicate layer — which is exactly where `for_rule` must get it right.
#[test]
fn output_consensus_is_immediate_at_n_equals_one() {
    let stop = StopCondition::for_rule(ConvergenceRule::OutputConsensus, 1);
    assert_eq!(stop.a_le, Some(0));
    assert_eq!(stop.a_ge, Some(1));
    assert!(stop.predicate_hit(0, false), "lone B agent is a consensus");
    assert!(stop.predicate_hit(1, false), "lone A agent is a consensus");
}

/// At general `n` the output-consensus predicates hit exactly the two
/// unanimous counts and nothing in between.
#[test]
fn output_consensus_hits_only_the_extremes() {
    let n = 10;
    let stop = StopCondition::for_rule(ConvergenceRule::OutputConsensus, n);
    assert!(stop.predicate_hit(0, false));
    assert!(stop.predicate_hit(n, false));
    for count_a in 1..n {
        assert!(
            !stop.predicate_hit(count_a, false),
            "spurious hit at count_a = {count_a}"
        );
    }
}

/// State consensus is strictly stronger than output consensus: the
/// projected predicate keys on the unanimity flag alone, so even
/// `count_a = n` (all agents *output* A, possibly from different states)
/// must not trigger it.
#[test]
fn state_consensus_ignores_output_counts() {
    let n = 10;
    let stop = StopCondition::for_rule(ConvergenceRule::StateConsensus, n);
    for count_a in [0, 1, n - 1, n] {
        assert!(!stop.predicate_hit(count_a, false));
        assert!(stop.predicate_hit(count_a, true));
    }
}

/// `Silence` has no count-space projection (the driver polls
/// `config_is_silent` at its own cadence), and an `OutputCount` demanding
/// more agents than exist arms nothing either — both conditions must never
/// fire, for any count.
#[test]
fn silence_and_unsatisfiable_output_count_arm_no_predicate() {
    let n = 10;
    let unsatisfiable = ConvergenceRule::OutputCount {
        opinion: Opinion::B,
        count: n + 1,
    };
    for stop in [
        StopCondition::for_rule(ConvergenceRule::Silence, n),
        StopCondition::for_rule(unsatisfiable, n),
    ] {
        assert_eq!((stop.a_le, stop.a_ge, stop.a_eq), (None, None, None));
        for count_a in 0..=n {
            assert!(!stop.predicate_hit(count_a, false));
        }
    }
}

/// `OutputCount` on opinion `B` projects through the complement:
/// demanding `count` B-agents out of `n` arms `count_a == n − count`, and
/// the tie target `n/2` sits strictly between the consensus extremes.
#[test]
fn output_count_projects_b_through_the_complement() {
    let n = 10;
    let stop = StopCondition::for_rule(
        ConvergenceRule::OutputCount {
            opinion: Opinion::B,
            count: 3,
        },
        n,
    );
    assert_eq!(stop.a_eq, Some(7));
    assert!(stop.predicate_hit(7, false));
    assert!(!stop.predicate_hit(3, false), "counted the wrong side");

    let tie = StopCondition::for_rule(
        ConvergenceRule::OutputCount {
            opinion: Opinion::A,
            count: n / 2,
        },
        n,
    );
    assert!(tie.predicate_hit(n / 2, false));
    assert!(!tie.predicate_hit(0, false));
    assert!(!tie.predicate_hit(n, false));
}

/// Every single-agent configuration is silent: an interaction needs an
/// ordered pair of *distinct* agents, and there is no second agent. This
/// is the `n = 1` degenerate case the engines themselves refuse.
#[test]
fn single_agent_configurations_are_silent() {
    assert!(Voter.config_silent(&[1, 0]));
    assert!(Voter.config_silent(&[0, 1]));
    assert!(Annihilate.config_silent(&[0, 1, 0]));
    // Two copies of a productive pair, by contrast, are live.
    assert!(!Annihilate.config_silent(&[1, 1, 0]));
}

/// An already-unanimous start converges at step zero: the driver checks
/// the rule before the first step, reports `parallel_time = 0`, and never
/// touches the RNG — the stream position matters because trial seeds are
/// shared across detector variants.
#[test]
fn already_unanimous_start_converges_at_step_zero() {
    for (counts, expected) in [(vec![6, 0], Opinion::A), (vec![0, 6], Opinion::B)] {
        let mut sim = CountSim::new(Voter, Config::from_counts(counts));
        let mut rng = SmallRng::seed_from_u64(42);
        let out = Driver::new(ConvergenceRule::OutputConsensus)
            .with_max_steps(1_000)
            .run(&mut sim, &mut rng, &mut NullObserver);
        assert_eq!(out.verdict, Verdict::Consensus(expected));
        assert_eq!(out.steps, 0);
        assert_eq!(out.parallel_time, 0.0);
        let mut fresh = SmallRng::seed_from_u64(42);
        assert_eq!(
            rng.next_u64(),
            fresh.next_u64(),
            "a zero-step run consumed randomness"
        );
    }
}

/// An exact tie has no correct answer (`winner()` is `None`), but the
/// detectors still terminate protocols that break ties dynamically: the
/// voter model absorbs into *some* consensus from `a = b`.
#[test]
fn exact_tie_has_no_winner_but_voter_still_decides() {
    let inst = MajorityInstance::new(8, 8);
    assert_eq!(inst.winner(), None);
    assert_eq!(inst.margin(), 0.0);
    for seed in 0..10u64 {
        let out = run_rule(
            Voter,
            Config::from_input(&Voter, inst.a(), inst.b()),
            ConvergenceRule::OutputConsensus,
            seed,
            10_000_000,
        );
        assert!(
            out.verdict.is_consensus(),
            "voter failed to break the tie (seed {seed}): {:?}",
            out.verdict
        );
    }
}

/// Verdicts for silent configurations, pinned with the annihilation
/// protocol (its terminal configuration is computable by hand):
///
/// * a tie annihilates completely — all agents dead, which is unanimous,
///   so `StateConsensus` is met;
/// * an off-tie leaves surviving tokens next to dead agents — silent but
///   not unanimous, so `StateConsensus` yields [`Verdict::Stuck`].
///
/// The stuck case runs on [`JumpSim`], the null-skipping engine that
/// *detects* silence mid-run; `CountSim` would sample unproductive pairs
/// to the step budget instead (the driver only polls silence for
/// `ConvergenceRule::Silence`).
#[test]
fn silent_configurations_resolve_by_unanimity_under_state_consensus() {
    for seed in 0..5u64 {
        let tied = run_rule(
            Annihilate,
            Config::from_input(&Annihilate, 4, 4),
            ConvergenceRule::StateConsensus,
            seed,
            10_000_000,
        );
        // All agents end dead; dead outputs A.
        assert_eq!(tied.verdict, Verdict::Consensus(Opinion::A), "seed {seed}");

        // One +1 token survives among dead agents: silent, not unanimous.
        let mut sim = JumpSim::new(Annihilate, Config::from_input(&Annihilate, 3, 2));
        let mut rng = SmallRng::seed_from_u64(seed);
        let offset = Driver::new(ConvergenceRule::StateConsensus)
            .with_max_steps(10_000_000)
            .run(&mut sim, &mut rng, &mut NullObserver);
        assert_eq!(offset.verdict, Verdict::Stuck, "seed {seed}");
        assert!(sim.config_is_silent(), "seed {seed}");
    }
}

/// Under `ConvergenceRule::Silence` the verdict reports the *output*
/// composition of the silent configuration: unanimous outputs give a
/// consensus, mixed outputs give `Stuck`. `Annihilate(3, 2)` ends with the
/// survivor and the dead agents all outputting A; `Annihilate(2, 3)` ends
/// with a B survivor among A-outputting dead agents — mixed.
#[test]
fn silence_rule_maps_outputs_of_the_silent_configuration() {
    for seed in 0..5u64 {
        let all_a = run_rule(
            Annihilate,
            Config::from_input(&Annihilate, 3, 2),
            ConvergenceRule::Silence,
            seed,
            10_000_000,
        );
        assert_eq!(all_a.verdict, Verdict::Consensus(Opinion::A), "seed {seed}");

        let mixed = run_rule(
            Annihilate,
            Config::from_input(&Annihilate, 2, 3),
            ConvergenceRule::Silence,
            seed,
            10_000_000,
        );
        assert_eq!(mixed.verdict, Verdict::Stuck, "seed {seed}");
    }
}

/// A two-state protocol that never goes silent: the responder toggles on
/// every interaction, so some ordered pair always changes the
/// configuration and the only way out is the step budget.
#[derive(Debug, Clone, Copy)]
struct Churn;

impl Protocol for Churn {
    fn num_states(&self) -> u32 {
        2
    }
    fn transition(&self, initiator: StateId, responder: StateId) -> (StateId, StateId) {
        (initiator, 1 - responder)
    }
    fn output(&self, state: StateId) -> Opinion {
        if state == 0 {
            Opinion::A
        } else {
            Opinion::B
        }
    }
    fn input(&self, opinion: Opinion) -> StateId {
        match opinion {
            Opinion::A => 0,
            Opinion::B => 1,
        }
    }
    fn name(&self) -> &str {
        "churn-test"
    }
}

/// An unsatisfiable rule on a never-silent protocol runs to the exact step
/// budget and reports `MaxSteps` — for both projection shapes: the armed
/// `count_a == n + 1` predicate that can never hold, and the B-side
/// projection that arms nothing at all.
#[test]
fn unsatisfiable_output_count_runs_to_the_step_budget() {
    let n = 10u64;
    let budget = 5_000u64;
    for opinion in [Opinion::A, Opinion::B] {
        let out = run_rule(
            Churn,
            Config::from_input(&Churn, n / 2, n / 2),
            ConvergenceRule::OutputCount {
                opinion,
                count: n + 1,
            },
            7,
            budget,
        );
        assert_eq!(out.verdict, Verdict::MaxSteps, "{opinion:?}");
        assert_eq!(out.steps, budget, "engines stop at the exact boundary");
    }
}

/// On one trajectory, output consensus is hit no later than state
/// consensus: the three-state protocol reaches all-one-output while blank
/// agents remain, and needs strictly longer to resolve them into one
/// state. Same seed ⇒ same trajectory, so the hitting times are directly
/// comparable.
#[test]
fn output_consensus_precedes_state_consensus_for_three_state() {
    let ts = avc::protocols::ThreeState::new();
    let mut strictly_earlier = 0u32;
    for seed in 0..8u64 {
        let output = run_rule(
            ts,
            Config::from_input(&ts, 30, 20),
            ConvergenceRule::OutputConsensus,
            seed,
            100_000_000,
        );
        let state = run_rule(
            ts,
            Config::from_input(&ts, 30, 20),
            ConvergenceRule::StateConsensus,
            seed,
            100_000_000,
        );
        assert!(output.verdict.is_consensus(), "seed {seed}");
        assert!(state.verdict.is_consensus(), "seed {seed}");
        assert!(
            output.steps <= state.steps,
            "seed {seed}: output consensus at {} after state consensus at {}",
            output.steps,
            state.steps
        );
        if output.steps < state.steps {
            strictly_earlier += 1;
        }
    }
    assert!(
        strictly_earlier > 0,
        "blank agents never delayed state consensus — detector distinction untested"
    );
}
