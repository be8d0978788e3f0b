//! Regression pins for batching engines at stopping boundaries.
//!
//! `JumpSim` advances in geometric silent-step batches and `TauLeapSim` in
//! Poisson leaps, so a *step budget* can legitimately be overshot by the
//! final batch: the budget is checked before each batch (exactly as the
//! per-step loop checks it before each `advance`), and the reported step
//! count is always the true chain position, never clamped back to the
//! budget. *Predicates*, by contrast, are exact on `JumpSim` — jumps land
//! precisely on productive steps, the only places counts change — while on
//! `TauLeapSim` they are observable only at leap boundaries (an engine
//! approximation predating the chunked driver, not introduced by it).
//!
//! These tests pin the exact reported step/event counts at those
//! boundaries for fixed seeds, so any change to batch bookkeeping, check
//! ordering, or RNG consumption shows up as a diff here. Every pin is also
//! cross-checked against the per-step reference loop
//! (`advance_upto_step_by_step`), which must report identical numbers.

use avc::population::engine::{
    advance_upto_step_by_step, JumpSim, Simulator, StopCondition, StopReason, TauLeapSim,
};
use avc::population::{Config, ConvergenceRule, Opinion};
use avc::protocols::FourState;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs the chunked path and the per-step reference path from the same
/// seed, asserts they agree, and returns (steps, events, reason, count_a).
fn pin<S: Simulator>(
    make: impl Fn() -> S,
    seed: u64,
    stop: StopCondition,
) -> (u64, u64, StopReason, u64) {
    let mut chunked = make();
    let mut rng = SmallRng::seed_from_u64(seed);
    let report = chunked.advance_chunk(&mut rng, stop);

    let mut reference = make();
    let mut rng = SmallRng::seed_from_u64(seed);
    let ref_report = advance_upto_step_by_step(&mut reference, &mut rng, stop);

    assert_eq!(reference.steps(), chunked.steps(), "reference steps differ");
    assert_eq!(
        reference.events(),
        chunked.events(),
        "reference events differ"
    );
    assert_eq!(ref_report.reason, report.reason, "reference reason differs");
    assert_eq!(
        reference.count_a(),
        chunked.count_a(),
        "reference count_a differs"
    );
    (
        chunked.steps(),
        chunked.events(),
        report.reason,
        chunked.count_a(),
    )
}

#[test]
fn jump_overshoots_step_budget_by_its_final_batch() {
    let make = || JumpSim::new(FourState, Config::from_input(&FourState, 900, 100));
    for (budget, steps, events) in [(1_000u64, 1_025u64, 157u64), (2_000, 2_035, 201)] {
        let stop = StopCondition::never().with_max_steps(budget);
        let pinned = pin(make, 7, stop);
        assert_eq!(pinned, (steps, events, StopReason::StepBudget, pinned.3));
        assert!(
            steps > budget,
            "this seed/budget pair is chosen to exhibit overshoot"
        );
    }
}

#[test]
fn tau_leap_overshoots_step_budget_by_its_final_leap() {
    let make = || TauLeapSim::new(FourState, Config::from_input(&FourState, 900, 100));
    for (budget, steps, events) in [(1_000u64, 1_006u64, 124u64), (2_000, 2_017, 191)] {
        let stop = StopCondition::never().with_max_steps(budget);
        let pinned = pin(make, 7, stop);
        assert_eq!(pinned, (steps, events, StopReason::StepBudget, pinned.3));
        assert!(
            steps > budget,
            "this seed/budget pair is chosen to exhibit overshoot"
        );
    }
}

#[test]
fn jump_stops_exactly_where_an_output_count_predicate_first_holds() {
    // Jumps land exactly on productive steps, so the OutputCount predicate
    // stops the chunk at the precise step the count is first reached — no
    // overshoot, even though the engine batches silent steps.
    let make = || JumpSim::new(FourState, Config::from_input(&FourState, 60, 40));
    let stop = StopCondition::for_rule(
        ConvergenceRule::OutputCount {
            opinion: Opinion::B,
            count: 10,
        },
        100,
    );
    let (steps, events, reason, count_a) = pin(make, 3, stop);
    assert_eq!(
        (steps, events, reason, count_a),
        (672, 138, StopReason::Predicate, 90),
        "B-count predicate must fire at the exact productive step"
    );
}

#[test]
fn tau_leap_sees_predicates_at_leap_boundaries() {
    // τ-leaping applies whole leaps atomically: the predicate is evaluated
    // at leap boundaries only. These pins document that granularity (an
    // engine approximation, not a chunking artifact — the per-step
    // reference loop reports the same numbers, as `pin` asserts).
    let make = || TauLeapSim::new(FourState, Config::from_input(&FourState, 60, 40));

    let count_stop = StopCondition::for_rule(
        ConvergenceRule::OutputCount {
            opinion: Opinion::B,
            count: 20,
        },
        100,
    );
    assert_eq!(
        pin(make, 3, count_stop),
        (252, 78, StopReason::Predicate, 80)
    );

    let consensus_stop = StopCondition::for_rule(ConvergenceRule::OutputConsensus, 100);
    assert_eq!(
        pin(make, 3, consensus_stop),
        (2_030, 136, StopReason::Predicate, 100)
    );
}

#[test]
fn reported_steps_are_never_clamped_to_the_budget() {
    // Sweep many budgets: whenever a batching engine stops on StepBudget,
    // the reported position must be >= the budget (never clamped down),
    // and re-running with the final position as the budget must reproduce
    // it exactly (the chain is budget-monotone).
    let make = || JumpSim::new(FourState, Config::from_input(&FourState, 300, 100));
    for budget in (50..2_000).step_by(171) {
        let mut sim = make();
        let mut rng = SmallRng::seed_from_u64(11);
        let report = sim.advance_chunk(&mut rng, StopCondition::never().with_max_steps(budget));
        if report.reason == StopReason::StepBudget {
            assert!(sim.steps() >= budget, "budget {budget}: clamped steps");
            let mut replay = make();
            let mut rng = SmallRng::seed_from_u64(11);
            let _ =
                replay.advance_chunk(&mut rng, StopCondition::never().with_max_steps(sim.steps()));
            assert_eq!(replay.steps(), sim.steps(), "budget {budget}: not stable");
        }
    }
}
