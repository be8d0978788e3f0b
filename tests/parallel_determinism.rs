//! The parallel trial harness's central guarantee: a [`ScenarioPlan`] produces
//! **bit-identical** per-trial outcomes and aggregate [`Summary`] statistics
//! under every [`Parallelism`] setting. Trial `i` always consumes seed
//! stream `i`, workers only affect scheduling, and each outcome is scattered
//! back to its trial's index before anything is summarised — so `Serial`,
//! `Threads(2)` and `Threads(8)` must agree to the last bit.

use avc::analysis::harness::{EngineKind, Parallelism, ScenarioPlan};
use avc::analysis::stats::Summary;
use avc::population::{ConvergenceRule, MajorityInstance, ProtocolSpec, Scenario};

/// Bit-level `Summary` equality: `to_bits` on every statistic and every
/// retained sample, so even −0.0 vs 0.0 or differently-rounded means fail.
fn bits_equal(a: &Summary, b: &Summary) -> bool {
    a.count == b.count
        && a.mean.to_bits() == b.mean.to_bits()
        && a.std_dev.to_bits() == b.std_dev.to_bits()
        && a.min.to_bits() == b.min.to_bits()
        && a.max.to_bits() == b.max.to_bits()
        && a.median.to_bits() == b.median.to_bits()
        && a.samples().len() == b.samples().len()
        && a.samples()
            .iter()
            .zip(b.samples())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Serial vs `Threads(2)` vs `Threads(8)`: identical outcome vectors and
/// bit-identical summaries for AVC, across several master seeds.
#[test]
fn avc_trials_are_parallelism_invariant() {
    let avc = ProtocolSpec::Avc { m: 9, d: 1 };
    for seed in [0u64, 17, 4_242] {
        let base = ScenarioPlan::new(
            Scenario::new(avc, MajorityInstance::new(40, 31))
                .runs(20)
                .seed(seed),
        );
        let serial = base.clone().parallelism(Parallelism::Serial).run();
        for workers in [2usize, 8] {
            let sharded = base
                .clone()
                .parallelism(Parallelism::Threads(workers))
                .run();
            assert_eq!(
                serial.outcomes(),
                sharded.outcomes(),
                "seed {seed}, {workers} workers"
            );
            assert!(
                bits_equal(&serial.summary(), &sharded.summary()),
                "seed {seed}, {workers} workers: {:?} vs {:?}",
                serial.summary(),
                sharded.summary()
            );
        }
    }
}

/// The same invariance for the three-state protocol under state consensus.
#[test]
fn three_state_trials_are_parallelism_invariant() {
    for seed in [3u64, 99] {
        let base = ScenarioPlan::new(
            Scenario::new(ProtocolSpec::ThreeState, MajorityInstance::new(50, 30))
                .engine(EngineKind::Count)
                .rule(ConvergenceRule::StateConsensus)
                .runs(24)
                .seed(seed),
        );
        let serial = base.clone().parallelism(Parallelism::Serial).run();
        for workers in [2usize, 8] {
            let sharded = base
                .clone()
                .parallelism(Parallelism::Threads(workers))
                .run();
            assert_eq!(serial.outcomes(), sharded.outcomes(), "seed {seed}");
            assert!(
                bits_equal(&serial.summary(), &sharded.summary()),
                "seed {seed}"
            );
            assert_eq!(serial.error_fraction(), sharded.error_fraction());
            assert_eq!(
                serial.convergence_fraction(),
                sharded.convergence_fraction()
            );
        }
    }
}

/// `Auto` is just a worker count — it too matches serial exactly.
#[test]
fn auto_parallelism_matches_serial() {
    let plan = ScenarioPlan::new(
        Scenario::new(ProtocolSpec::ThreeState, MajorityInstance::one_extra(31))
            .rule(ConvergenceRule::StateConsensus)
            .runs(16)
            .seed(8),
    );
    let serial = plan.clone().parallelism(Parallelism::Serial).run();
    let auto = plan.parallelism(Parallelism::Auto).run();
    assert_eq!(serial.outcomes(), auto.outcomes());
    assert!(bits_equal(&serial.summary(), &auto.summary()));
}
