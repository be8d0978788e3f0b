//! Property tests: an engine's `advance_chunk` is observably identical to
//! repeated single-step `advance` for every engine and any chunking.
//!
//! `advance_chunk` is each engine's only kernel, and `advance` is one
//! `advance_chunk` with a one-step budget. Chunking must be invisible: for
//! *any* split of a run into chunk budgets, the engine must consume the RNG
//! in exactly the same order as the step-by-step reference loop
//! (`advance_upto_step_by_step`) and pass through exactly the same
//! configurations at each budget boundary. These properties drive both
//! paths from identical seeds over arbitrary budget splits and require
//! bit-identical steps, events, and species counts at every boundary. (The
//! per-step paths themselves are pinned at fixed seeds by
//! `tests/golden_traces.rs`.)

use avc::population::engine::{
    advance_upto_step_by_step, AdaptiveSim, AgentSim, CountSim, JumpSim, Simulator, StopCondition,
};
use avc::population::{Config, ConvergenceRule};
use avc::protocols::{FourState, ThreeState, Voter};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Drives `reference` via the per-step loop and `chunked` via
/// `advance_chunk`, splitting the run at the same cumulative budgets, and
/// asserts the two stay bit-identical at every boundary.
fn assert_chunking_invisible<S: Simulator>(
    mut reference: S,
    mut chunked: S,
    seed: u64,
    stop: StopCondition,
    budget_increments: &[u64],
) -> Result<(), TestCaseError> {
    let mut rng_ref = SmallRng::seed_from_u64(seed);
    let mut rng_chunk = SmallRng::seed_from_u64(seed);
    let mut budget = 0u64;
    // The final chunk runs to the stop condition's own budget.
    let final_budget = stop.max_steps;
    let budgets = budget_increments
        .iter()
        .map(|inc| {
            budget = budget.saturating_add(*inc).min(final_budget);
            budget
        })
        .chain([final_budget]);
    for target in budgets {
        let capped = stop.with_max_steps(target);
        let report_ref = advance_upto_step_by_step(&mut reference, &mut rng_ref, capped);
        let report_chunk = chunked.advance_chunk(&mut rng_chunk, capped);
        prop_assert_eq!(report_ref.steps, report_chunk.steps, "chunk step delta");
        prop_assert_eq!(report_ref.events, report_chunk.events, "chunk event delta");
        prop_assert_eq!(report_ref.reason, report_chunk.reason, "stop reason");
        prop_assert_eq!(reference.steps(), chunked.steps(), "total steps");
        prop_assert_eq!(reference.events(), chunked.events(), "total events");
        prop_assert_eq!(reference.counts(), chunked.counts(), "species counts");
        prop_assert_eq!(reference.count_a(), chunked.count_a(), "majority count");
    }
    // Both RNGs must have consumed exactly the same stream: draw once more
    // from each and compare.
    prop_assert_eq!(
        rand::RngCore::next_u64(&mut rng_ref),
        rand::RngCore::next_u64(&mut rng_chunk),
        "RNG streams diverged"
    );
    Ok(())
}

/// A stop condition exercising each predicate family plus the plain budget.
fn stop_for(case: u8, n: u64, max_steps: u64) -> StopCondition {
    match case % 4 {
        0 => StopCondition::never().with_max_steps(max_steps),
        1 => StopCondition::for_rule(ConvergenceRule::OutputConsensus, n).with_max_steps(max_steps),
        2 => StopCondition::for_rule(ConvergenceRule::StateConsensus, n).with_max_steps(max_steps),
        _ => StopCondition::never()
            .when_a_at_most(n / 4)
            .when_a_at_least(n - n / 4)
            .with_max_steps(max_steps),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CountSim: chunking is invisible for the voter protocol.
    #[test]
    fn count_engine_chunking_is_invisible(
        a in 1u64..40,
        b in 1u64..40,
        seed in any::<u64>(),
        case in any::<u8>(),
        max_steps in 1u64..3_000,
        increments in proptest::collection::vec(0u64..200, 0..8),
    ) {
        let make = || CountSim::new(Voter, Config::from_input(&Voter, a, b));
        let stop = stop_for(case, a + b, max_steps);
        assert_chunking_invisible(make(), make(), seed, stop, &increments)?;
    }

    /// JumpSim: chunking is invisible even though one productive event can
    /// carry the step counter far past a chunk boundary.
    #[test]
    fn jump_engine_chunking_is_invisible(
        a in 1u64..40,
        b in 1u64..40,
        seed in any::<u64>(),
        case in any::<u8>(),
        max_steps in 1u64..3_000,
        increments in proptest::collection::vec(0u64..200, 0..8),
    ) {
        let make = || JumpSim::new(FourState, Config::from_input(&FourState, a, b));
        let stop = stop_for(case, a + b, max_steps);
        assert_chunking_invisible(make(), make(), seed, stop, &increments)?;
    }

    /// AdaptiveSim: chunking is invisible across the dense→sparse handoff
    /// (window accounting happens at the same steps either way).
    #[test]
    fn adaptive_engine_chunking_is_invisible(
        a in 1u64..60,
        b in 1u64..60,
        seed in any::<u64>(),
        case in any::<u8>(),
        max_steps in 1u64..20_000,
        increments in proptest::collection::vec(0u64..5_000, 0..8),
    ) {
        let make = || AdaptiveSim::new(ThreeState::new(), Config::from_input(&ThreeState::new(), a, b));
        let stop = stop_for(case, a + b, max_steps);
        assert_chunking_invisible(make(), make(), seed, stop, &increments)?;
    }

    /// AgentSim on the clique: chunking is invisible for the per-agent
    /// engine too.
    #[test]
    fn agent_engine_chunking_is_invisible(
        a in 1u64..25,
        b in 1u64..25,
        seed in any::<u64>(),
        case in any::<u8>(),
        max_steps in 1u64..2_000,
        increments in proptest::collection::vec(0u64..150, 0..8),
    ) {
        let make = || AgentSim::on_clique(FourState, Config::from_input(&FourState, a, b));
        let stop = stop_for(case, a + b, max_steps);
        assert_chunking_invisible(make(), make(), seed, stop, &increments)?;
    }
}
