//! The parallel trial harness's central guarantee: a [`ScenarioPlan`] produces
//! **bit-identical** per-trial outcomes and aggregate [`Summary`] statistics
//! under every [`Parallelism`] setting. Trial `i` always consumes seed
//! stream `i`, workers only affect scheduling, and `Summary::merge` is an
//! exact monoid — so `Serial`, `Threads(2)` and `Threads(8)` must agree to
//! the last bit.

use avc::analysis::harness::{EngineKind, Parallelism, ScenarioPlan};
use avc::analysis::stats::Summary;
use avc::population::{ConvergenceRule, MajorityInstance, ProtocolSpec, Scenario};
use proptest::prelude::*;

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

/// Strategy for a small f64 sample with finite values, including negatives
/// and zeros (the −0.0/0.0 corner is covered by dedicated unit tests in
/// `stats.rs`; total-order sorting makes it a non-issue here).
fn sample() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0e6f64..1.0e6, 0..24)
}

fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        Summary::empty()
    } else {
        Summary::from_samples(samples)
    }
}

proptest! {
    /// `Summary::merge` is associative down to the bit.
    #[test]
    fn merge_is_associative(a in sample(), b in sample(), c in sample()) {
        let (a, b, c) = (summarize(&a), summarize(&b), summarize(&c));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        prop_assert!(bits_equal(&left, &right), "{left:?} vs {right:?}");
    }

    /// Merging shards in any order reproduces the whole-sample summary: the
    /// exact property the parallel harness relies on.
    #[test]
    fn merge_is_order_independent(a in sample(), b in sample(), c in sample()) {
        let whole: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let expected = summarize(&whole);
        let (a, b, c) = (summarize(&a), summarize(&b), summarize(&c));
        for merged in [
            a.merge(&b).merge(&c),
            a.merge(&c).merge(&b),
            b.merge(&a).merge(&c),
            b.merge(&c).merge(&a),
            c.merge(&a).merge(&b),
            c.merge(&b).merge(&a),
        ] {
            prop_assert!(
                bits_equal(&expected, &merged),
                "{expected:?} vs {merged:?}"
            );
        }
    }

    /// `Summary::empty` is a two-sided identity for any sample.
    #[test]
    fn merge_has_empty_identity(a in sample()) {
        let s = summarize(&a);
        prop_assert!(bits_equal(&Summary::empty().merge(&s), &s));
        prop_assert!(bits_equal(&s.merge(&Summary::empty()), &s));
    }
}
