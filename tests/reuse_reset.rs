//! Fresh-equivalence of the trial-batch reuse seam.
//!
//! `Simulator::reset` promises that a reused engine replays exactly like a
//! freshly built one: identical outcomes, identical final configurations,
//! and — the sharp check — an identical RNG stream position afterwards (one
//! extra or missing draw would shift every later trial, and worker→trial
//! assignment races, so any divergence would make batch results
//! scheduling-dependent). These tests pin that contract across all five
//! engines through the `Box<dyn Simulator>` the batch loop uses, for dirty
//! states both mid-run and post-consensus, for resets that change the
//! population (count-space engines), and for the stateful epoch-batched
//! scheduler.

use avc::population::driver::{Driver, NullObserver};
use avc::population::engine::Simulator;
use avc::population::scenario::build_erased;
use avc::population::spec::RunOutcome;
use avc::population::{Config, ConvergenceRule, EngineKind, Protocol, SchedulerSpec};
use avc::protocols::{Avc, FourState, ThreeState};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

const MAX_STEPS: u64 = 2_000_000;

const ENGINES: [EngineKind; 5] = [
    EngineKind::Agent,
    EngineKind::Count,
    EngineKind::Jump,
    EngineKind::Adaptive,
    EngineKind::TauLeap,
];

fn driver() -> Driver {
    Driver::new(ConvergenceRule::OutputConsensus).with_max_steps(MAX_STEPS)
}

/// Drives `sim` to convergence and returns the outcome, the final counts,
/// and the RNG's next draw — the stream-position witness.
fn drive(sim: &mut dyn Simulator, seed: u64) -> (RunOutcome, Vec<u64>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let out = driver().run(sim, &mut rng, &mut NullObserver);
    (out, sim.counts().to_vec(), rng.next_u64())
}

/// The reference trial: a freshly built engine.
fn fresh_run<P: Protocol + Clone + 'static>(
    protocol: &P,
    config: &Config,
    engine: EngineKind,
    scheduler: &SchedulerSpec,
    seed: u64,
) -> (RunOutcome, Vec<u64>, u64) {
    let mut sim = build_erased(protocol.clone(), config.clone(), engine, scheduler)
        .expect("runnable combination");
    drive(sim.as_mut(), seed)
}

/// The reused trial: an engine dirtied by a full prior trial (different
/// config, different seed), then reset in place to `config`.
fn reset_run<P: Protocol + Clone + 'static>(
    protocol: &P,
    dirty: &Config,
    config: &Config,
    engine: EngineKind,
    scheduler: &SchedulerSpec,
    dirty_seed: u64,
    seed: u64,
) -> (RunOutcome, Vec<u64>, u64) {
    let mut sim = build_erased(protocol.clone(), dirty.clone(), engine, scheduler)
        .expect("runnable combination");
    let _ = drive(sim.as_mut(), dirty_seed);
    sim.reset(config);
    drive(sim.as_mut(), seed)
}

fn assert_fresh_equivalent(
    fresh: &(RunOutcome, Vec<u64>, u64),
    reused: &(RunOutcome, Vec<u64>, u64),
    context: &str,
) {
    assert_eq!(fresh.0, reused.0, "{context}: outcome diverged");
    assert_eq!(fresh.1, reused.1, "{context}: final counts diverged");
    assert_eq!(fresh.2, reused.2, "{context}: RNG stream position diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same-shape reuse (the batch loop's case: every trial of a cell runs
    /// the same config) is fresh-equivalent on all five engines.
    #[test]
    fn reset_replays_like_fresh_same_config(
        a in 3u64..40,
        b in 1u64..40,
        dirty_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let config = Config::from_input(&FourState, a, b);
        for engine in ENGINES {
            let fresh = fresh_run(&FourState, &config, engine, &SchedulerSpec::Uniform, seed);
            let reused = reset_run(
                &FourState, &config, &config, engine, &SchedulerSpec::Uniform, dirty_seed, seed,
            );
            assert_fresh_equivalent(&fresh, &reused, &format!("{engine:?} a={a} b={b}"));
        }
    }

    /// Count-space engines may be reset to a *different* population; the
    /// agent engine keeps its population (its graph is fixed), so it is
    /// reset across opinion splits of the same n.
    #[test]
    fn reset_replays_like_fresh_across_configs(
        a1 in 3u64..30, b1 in 1u64..30,
        a2 in 3u64..30, b2 in 1u64..30,
        dirty_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let avc = Avc::new(3, 2).expect("valid parameters");
        let dirty = Config::from_input(&avc, a1, b1);
        let config = Config::from_input(&avc, a2, b2);
        for engine in [EngineKind::Count, EngineKind::Jump, EngineKind::Adaptive, EngineKind::TauLeap] {
            let fresh = fresh_run(&avc, &config, engine, &SchedulerSpec::Uniform, seed);
            let reused = reset_run(
                &avc, &dirty, &config, engine, &SchedulerSpec::Uniform, dirty_seed, seed,
            );
            assert_fresh_equivalent(&fresh, &reused, &format!("{engine:?} avc"));
        }
        // Agent: same population, different split.
        let n = a1 + b1;
        let dirty = Config::from_input(&avc, a1, b1);
        let config = Config::from_input(&avc, n - 1, 1);
        let fresh = fresh_run(&avc, &config, EngineKind::Agent, &SchedulerSpec::Uniform, seed);
        let reused = reset_run(
            &avc, &dirty, &config, EngineKind::Agent, &SchedulerSpec::Uniform, dirty_seed, seed,
        );
        assert_fresh_equivalent(&fresh, &reused, "Agent avc resplit");
    }

    /// The stateful epoch-batched scheduler (a shuffled permutation plus a
    /// cursor) is rewound by reset, not merely re-seeded: a reused agent
    /// engine must not replay the stale epoch order.
    #[test]
    fn reset_rewinds_the_epoch_scheduler(
        a in 4u64..30, b in 1u64..30,
        dirty_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let spec = SchedulerSpec::Epoch;
        let config = Config::from_input(&ThreeState::new(), a, b);
        let fresh = fresh_run(&ThreeState::new(), &config, EngineKind::Agent, &spec, seed);
        let reused = reset_run(
            &ThreeState::new(), &config, &config, EngineKind::Agent, &spec, dirty_seed, seed,
        );
        assert_fresh_equivalent(&fresh, &reused, "Agent epoch");
    }
}

/// A reused engine stays fresh-equivalent across many consecutive resets —
/// the shape of a real worker's trial slice (one build, N trials).
#[test]
fn many_consecutive_resets_stay_fresh_equivalent() {
    let config = Config::from_input(&FourState, 23, 14);
    for engine in ENGINES {
        let mut sim = build_erased(FourState, config.clone(), engine, &SchedulerSpec::Uniform)
            .expect("runnable combination");
        for trial in 0..8u64 {
            let seed = 1000 + trial;
            sim.reset(&config);
            let reused = drive(sim.as_mut(), seed);
            let fresh = fresh_run(&FourState, &config, engine, &SchedulerSpec::Uniform, seed);
            assert_fresh_equivalent(&fresh, &reused, &format!("{engine:?} trial {trial}"));
        }
    }
}
