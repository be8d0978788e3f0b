//! Pins `CountSim`'s step against an independent replica of the plain
//! step it replaced.
//!
//! The engine resolves both agents' species in one fused draw — three loads
//! from the sampler's rank table of blocks of states, then one three-walker
//! descent inside the blocks — applies each productive step as net count
//! moves, and runs AVC on its table-free transition. Each rewrite is only
//! sound if it is invisible: the same `(i, j)` species pair must come out
//! of the same RNG draws and land in the same configuration, so that golden
//! traces and every seeded experiment stay byte-identical. This test drives
//! the real engine against a replica of the plain loop — independent
//! `select` walks, four `add`s and, for AVC, `encode(update(decode,
//! decode))` — and checks counts at every step and the RNG stream
//! afterwards. The replica's sampler is padded with zero-weight categories
//! to a block size other than the engine's, so the two resolve every draw
//! through different blocks and descents. The engine takes blocks of one
//! state for four_state, three_state, BEF at 30 states, DEGSSU at 142 and
//! AVC at 130, and of 16, 32 and 64 states for AVC at 2050, 4098 and
//! 16 340 states.

use avc_population::engine::{CountSim, Simulator};
use avc_population::sampler::FenwickSampler;
use avc_population::{Config, Protocol, StateId};
use avc_protocols::{Avc, Bef, Degssu, FourState, ThreeState};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// One step of the plain `CountSim` loop: identical draws, but the second
/// agent's species is resolved with two independent `select` walks and the
/// step moves the four agents' counts one `add` at a time.
fn old_style_step(
    delta: &impl Fn(StateId, StateId) -> (StateId, StateId),
    counts: &mut [u64],
    sampler: &mut FenwickSampler,
    rng: &mut SmallRng,
) {
    let total = sampler.total();
    let i = sampler.select(rng.gen_range(0..total)) as StateId;
    let t = rng.gen_range(0..total - 1);
    let s0 = sampler.select(t) as StateId;
    let j = if s0 < i {
        s0
    } else {
        sampler.select(t + 1) as StateId
    };
    let (x, y) = delta(i, j);
    if (x == i && y == j) || (x == j && y == i) {
        return;
    }
    for (k, d) in [(i, -1i64), (j, -1), (x, 1), (y, 1)] {
        counts[k as usize] = (counts[k as usize] as i64 + d) as u64;
        sampler.add(k as usize, d);
    }
}

/// Runs `steps` steps of `CountSim` on `protocol` and of the replica on
/// `delta` from the same seed, and asserts identical configurations
/// throughout and an identical RNG stream afterwards.
fn assert_lockstep<P: Protocol>(
    protocol: P,
    delta: impl Fn(StateId, StateId) -> (StateId, StateId),
    (a, b): (u64, u64),
    seed: u64,
    steps: u64,
) {
    let config = Config::from_input(&protocol, a, b);
    let mut counts: Vec<u64> = config.as_slice().to_vec();
    // Four times the categories (at least 1 024) take blocks at least four
    // times the engine's.
    let mut padded = counts.clone();
    padded.resize(4 * counts.len().max(256), 0);
    let mut sampler = FenwickSampler::from_weights(&padded);
    assert!(
        sampler.descent_depth() >= FenwickSampler::from_weights(&counts).descent_depth() + 2,
        "the replica must descend other blocks than the engine"
    );
    let mut sim = CountSim::new(protocol, config);
    let mut rng_new = SmallRng::seed_from_u64(seed);
    let mut rng_old = SmallRng::seed_from_u64(seed);
    for step in 0..steps {
        sim.advance(&mut rng_new);
        old_style_step(&delta, &mut counts, &mut sampler, &mut rng_old);
        assert_eq!(
            sim.counts(),
            counts.as_slice(),
            "configurations diverged at step {step}"
        );
    }
    // Same draws consumed: the streams must continue identically.
    for _ in 0..8 {
        assert_eq!(
            rng_new.next_u64(),
            rng_old.next_u64(),
            "RNG streams diverged"
        );
    }
}

#[test]
fn fused_select_is_invisible_on_four_state() {
    for seed in 0..5 {
        assert_lockstep(
            FourState,
            |a, b| FourState.transition(a, b),
            (60, 41),
            seed,
            4_000,
        );
    }
}

#[test]
fn fused_select_is_invisible_on_three_state() {
    // Asymmetric protocol: initiator/responder order matters, so any (i, j)
    // swap introduced by the fused walk would show up immediately.
    for seed in 5..10 {
        let three = ThreeState::new();
        assert_lockstep(three, |a, b| three.transition(a, b), (35, 25), seed, 4_000);
    }
}

#[test]
fn fused_select_is_invisible_on_avc_tree_path() {
    for (s, seed) in [(130, 10), (2_050, 11), (4_098, 15), (16_340, 12)] {
        let avc = Avc::with_states(s).expect("valid AVC budget");
        let reference = avc.clone();
        let delta = move |a, b| {
            let (x, y) = reference.update(reference.decode(a), reference.decode(b));
            (reference.encode(x), reference.encode(y))
        };
        assert_lockstep(avc, delta, (1_001, 1_000), seed, 20_000);
    }
}

#[test]
fn fused_select_is_invisible_on_the_rival_grids_protocols() {
    // BEF at l = 13 (30 states) and DEGSSU at l = 13, t = 4 (142 states),
    // the rival grids' largest instances, at their largest population.
    let bef = Bef::new(13).expect("valid BEF");
    let reference = bef.clone();
    let delta = move |a, b| reference.transition(a, b);
    assert_lockstep(bef, delta, (2_049, 2_048), 13, 20_000);
    let degssu = Degssu::new(13, 4).expect("valid DEGSSU");
    let reference = degssu.clone();
    let delta = move |a, b| reference.transition(a, b);
    assert_lockstep(degssu, delta, (2_049, 2_048), 14, 20_000);
}

/// The fused draw equals separate walks: `select(first)`, then
/// `select(second)` or `select(second + 1)`, on blocks of one, two and
/// four categories.
#[test]
fn select_two_matches_two_walks_on_random_weights() {
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..50 {
        let len = rng.gen_range(1..1_000usize);
        let weights: Vec<u64> = (0..len).map(|_| rng.gen_range(0..7)).collect();
        let sampler = FenwickSampler::from_weights(&weights);
        if sampler.total() < 2 {
            continue;
        }
        for _ in 0..100 {
            let first = rng.gen_range(0..sampler.total());
            let second = rng.gen_range(0..sampler.total() - 1);
            let i = sampler.select(first);
            let j0 = sampler.select(second);
            let j = if j0 < i {
                j0
            } else {
                sampler.select(second + 1)
            };
            assert_eq!(sampler.select_two(first, second), (i, j), "len {len}");
        }
    }
}
