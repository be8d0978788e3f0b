//! Property-based tests (proptest) over the core invariants:
//! Invariant 4.3, state-space closure, codec round-trips, engine-side count
//! conservation, and sampler correctness.

use avc::population::engine::{CountSim, JumpSim, Simulator};
use avc::population::sampler::FenwickSampler;
use avc::population::{Config, Opinion, Protocol};
use avc::protocols::{Avc, FourState, ThreeState};
use proptest::prelude::*;

/// Arbitrary valid AVC parameters: odd `m` in 1..=41, `d` in 1..=5.
fn avc_params() -> impl Strategy<Value = (u64, u32)> {
    (0u64..=20, 1u32..=5).prop_map(|(half, d)| (2 * half + 1, d))
}

proptest! {
    /// Invariant 4.3 holds for every single transition, for arbitrary
    /// parameters and state pairs.
    #[test]
    fn avc_value_sum_invariant((m, d) in avc_params(), a_seed in any::<u32>(), b_seed in any::<u32>()) {
        let avc = Avc::new(m, d).expect("valid parameters");
        let s = avc.num_states();
        let a = a_seed % s;
        let b = b_seed % s;
        let (x, y) = avc.transition(a, b);
        prop_assert!(x < s && y < s, "closure violated");
        prop_assert_eq!(
            avc.value_of(a) + avc.value_of(b),
            avc.value_of(x) + avc.value_of(y)
        );
    }

    /// Weights never leave `[0, m]` and levels never leave `[1, d]` —
    /// i.e. decode of any transition output is structurally valid (decode
    /// panics otherwise).
    #[test]
    fn avc_outputs_decode((m, d) in avc_params(), a_seed in any::<u32>(), b_seed in any::<u32>()) {
        let avc = Avc::new(m, d).expect("valid parameters");
        let s = avc.num_states();
        let (x, y) = avc.transition(a_seed % s, b_seed % s);
        let _ = avc.decode(x);
        let _ = avc.decode(y);
    }

    /// Encode/decode is a bijection on the full index range.
    #[test]
    fn avc_codec_roundtrip((m, d) in avc_params()) {
        let avc = Avc::new(m, d).expect("valid parameters");
        for id in 0..avc.num_states() {
            prop_assert_eq!(avc.encode(avc.decode(id)), id);
        }
    }

    /// Along random trajectories, the total value is conserved, and so is
    /// the population (checked through the engine's counts).
    #[test]
    fn avc_trajectory_conserves_value(
        (m, d) in avc_params(),
        a in 1u64..30,
        b in 1u64..30,
        seed in any::<u64>(),
        steps in 1u64..400,
    ) {
        use rand::SeedableRng;
        let avc = Avc::new(m, d).expect("valid parameters");
        let initial = Config::from_input(&avc, a, b);
        let expected = avc.total_value(initial.as_slice());
        let mut sim = CountSim::new(avc.clone(), initial);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..steps {
            sim.advance(&mut rng);
        }
        prop_assert_eq!(avc.total_value(sim.counts()), expected);
        prop_assert_eq!(sim.counts().iter().sum::<u64>(), a + b);
    }

    /// The jump engine conserves the same quantities while skipping steps.
    #[test]
    fn avc_jump_trajectory_conserves_value(
        (m, d) in avc_params(),
        a in 1u64..30,
        b in 1u64..30,
        seed in any::<u64>(),
        events in 1u64..100,
    ) {
        use rand::SeedableRng;
        let avc = Avc::new(m, d).expect("valid parameters");
        let initial = Config::from_input(&avc, a, b);
        let expected = avc.total_value(initial.as_slice());
        let mut sim = JumpSim::new(avc.clone(), initial);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..events {
            if sim.advance(&mut rng) == 0 {
                break;
            }
        }
        prop_assert_eq!(avc.total_value(sim.counts()), expected);
        prop_assert_eq!(sim.counts().iter().sum::<u64>(), a + b);
    }

    /// The four-state protocol preserves the strong-count difference — its
    /// own exactness invariant.
    #[test]
    fn four_state_strong_difference_invariant(a_seed in 0u32..4, b_seed in 0u32..4) {
        let p = FourState;
        let (x, y) = p.transition(a_seed, b_seed);
        prop_assert_eq!(
            p.value_of(a_seed) + p.value_of(b_seed),
            p.value_of(x) + p.value_of(y)
        );
    }

    /// The three-state initiator is never modified by an interaction.
    #[test]
    fn three_state_initiator_untouched(a in 0u32..3, b in 0u32..3) {
        let p = ThreeState::new();
        let (x, _) = p.transition(a, b);
        prop_assert_eq!(x, a);
    }

    /// Fenwick sampler matches a naive prefix-sum oracle under arbitrary
    /// weight updates, and every `shift(from, to)` leaves the sampler
    /// bit-identical, index included, to `add(from, -1); add(to, 1)` and
    /// to a fresh build. Lengths take blocks of 1, 2, 4, 8, 16 and 32
    /// categories (up to 4 100), and a heavy category puts some totals on
    /// each side of the rank table's `2^20` bound, where updates cross it.
    #[test]
    fn fenwick_matches_naive_oracle(
        (block_bits, len_seed) in (0u32..6, any::<usize>()),
        heavy in (0u64..2, 0u64..64),
        initial in proptest::collection::vec((any::<usize>(), 0u64..50), 1..40),
        updates in proptest::collection::vec((any::<usize>(), -40i64..40), 0..60),
        moves in proptest::collection::vec((any::<u64>(), any::<usize>()), 0..60),
    ) {
        // Lengths past `256 · 2^(k − 1)` and up to `256 · 2^k` take blocks
        // of `2^k`; the longest are capped at 4 100.
        let (lo, hi) = match block_bits {
            0 => (1, 256),
            k => ((128 << k) + 1, (256 << k).min(4_100)),
        };
        let len = lo + len_seed % (hi - lo + 1);
        let mut naive = vec![0u64; len];
        for (idx, w) in initial {
            naive[idx % len] += w;
        }
        if heavy.0 > 0 {
            // A total within 32 of the bound, on either side of it.
            let rest: u64 = naive.iter().sum();
            naive[len_seed % len] += (1 << 20) + heavy.1 - 32 - rest;
        }
        let mut sampler = FenwickSampler::from_weights(&naive);
        for (idx, delta) in updates {
            let idx = idx % len;
            let delta = delta.max(-(naive[idx] as i64));
            naive[idx] = (naive[idx] as i64 + delta) as u64;
            sampler.add(idx, delta);
        }
        let total: u64 = naive.iter().sum();
        for (rank, to) in moves.into_iter().filter(|_| total > 0) {
            // The category holding a random rank, so every move is one.
            let (mut rank, mut from) = (rank % total, 0);
            while rank >= naive[from] {
                rank -= naive[from];
                from += 1;
            }
            let to = to % len;
            naive[from] -= 1;
            naive[to] += 1;
            let mut added = sampler.clone();
            added.add(from, -1);
            added.add(to, 1);
            sampler.shift(from, to);
            prop_assert_eq!(&sampler, &added);
        }
        prop_assert_eq!(&sampler, &FenwickSampler::from_weights(&naive));
        prop_assert_eq!(sampler.total(), total);
        // Every cumulative boundary selects the right category.
        let mut acc = 0u64;
        for (i, &w) in naive.iter().enumerate() {
            prop_assert_eq!(sampler.weight(i), w);
            prop_assert_eq!(sampler.prefix_sum(i), acc);
            if w > 0 {
                prop_assert_eq!(sampler.select(acc), i);
                prop_assert_eq!(sampler.select(acc + w - 1), i);
            }
            acc += w;
        }
    }

    /// AVC's output map is sign-consistent: positive value ⇒ A, negative ⇒
    /// B, and weak states follow their stored sign.
    #[test]
    fn avc_output_follows_sign((m, d) in avc_params()) {
        let avc = Avc::new(m, d).expect("valid parameters");
        for id in 0..avc.num_states() {
            let value = avc.value_of(id);
            let out = avc.output(id);
            if value > 0 {
                prop_assert_eq!(out, Opinion::A);
            } else if value < 0 {
                prop_assert_eq!(out, Opinion::B);
            }
        }
    }
}
