//! Property tests for the `Cached` dense transition-table wrapper.
//!
//! The harness routes every experiment through `Cached` when the protocol's
//! state space fits under `MAX_TABLE_ENTRIES`, so the wrapper must be an
//! *exact* stand-in for the arithmetic protocol: same transitions, outputs,
//! input encodings, silent-pair predicate, and configuration-silence
//! verdicts, over real AVC instances and adversarial random tables alike.
//! The build must write the same table and silent-pair bitset as a
//! reference pass that knows only `transition` and the trait-default
//! `is_silent`.

use avc_population::cached::{Cached, MAX_TABLE_ENTRIES};
use avc_population::{Opinion, Protocol, StateId};
use avc_protocols::{Avc, Bef, Degssu, FourState};
use proptest::prelude::*;

/// Asserts that `cached` and `plain` agree on every Protocol query over the
/// full `s × s` grid, plus `config_silent` on the given count vectors.
fn assert_exact_standin<P: Protocol>(cached: &Cached<P>, plain: &P, configs: &[Vec<u64>]) {
    let s = plain.num_states();
    assert_eq!(cached.num_states(), s);
    for a in 0..s {
        for b in 0..s {
            assert_eq!(
                cached.transition(a, b),
                plain.transition(a, b),
                "transition({a}, {b})"
            );
            assert_eq!(
                cached.is_silent(a, b),
                plain.is_silent(a, b),
                "is_silent({a}, {b})"
            );
        }
        assert_eq!(cached.output(a), plain.output(a), "output({a})");
    }
    assert_eq!(cached.input(Opinion::A), plain.input(Opinion::A));
    assert_eq!(cached.input(Opinion::B), plain.input(Opinion::B));
    for counts in configs {
        assert_eq!(
            cached.config_silent(counts),
            plain.config_silent(counts),
            "config_silent({counts:?})"
        );
    }
}

/// A few count vectors exercising empty, singleton, and mixed occupancy.
fn probe_configs(s: u32, seed: u64) -> Vec<Vec<u64>> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut configs = vec![vec![0u64; s as usize]];
    for one in 0..s.min(4) {
        let mut c = vec![0u64; s as usize];
        c[one as usize] = 1;
        configs.push(c.clone());
        c[one as usize] = 2;
        configs.push(c);
    }
    for _ in 0..8 {
        let c: Vec<u64> = (0..s).map(|_| rng.gen_range(0..4)).collect();
        configs.push(c);
    }
    configs
}

/// `transition` plus the trait-default `is_silent` and nothing else: the
/// serial reference every table build must reproduce.
struct Reference<'p, P>(&'p P);

impl<P: Protocol> Protocol for Reference<'_, P> {
    fn num_states(&self) -> u32 {
        self.0.num_states()
    }
    fn transition(&self, a: StateId, b: StateId) -> (StateId, StateId) {
        self.0.transition(a, b)
    }
    fn output(&self, q: StateId) -> Opinion {
        self.0.output(q)
    }
    fn input(&self, opinion: Opinion) -> StateId {
        self.0.input(opinion)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Builds `protocol`'s table and checks every pair, output and input
/// against a [`Reference`] pass.
fn assert_builds_match_reference<P: Protocol + Clone>(protocol: &P) {
    let reference = Reference(protocol);
    let s = protocol.num_states();
    let expected: Vec<((StateId, StateId), bool)> = (0..s)
        .flat_map(|a| (0..s).map(move |b| (a, b)))
        .map(|(a, b)| (reference.transition(a, b), reference.is_silent(a, b)))
        .collect();
    let Ok(cached) = Cached::try_new(protocol.clone()) else {
        panic!("{} must fit the table bound", protocol.name());
    };
    let built: Vec<((StateId, StateId), bool)> = (0..s)
        .flat_map(|a| (0..s).map(move |b| (a, b)))
        .map(|(a, b)| (cached.transition(a, b), cached.is_silent(a, b)))
        .collect();
    assert!(built == expected, "{}", protocol.name());
    for q in 0..s {
        assert_eq!(cached.output(q), reference.output(q), "output({q})");
    }
    assert_eq!(cached.input(Opinion::A), reference.input(Opinion::A));
    assert_eq!(cached.input(Opinion::B), reference.input(Opinion::B));
}

#[test]
fn table_builds_match_the_reference() {
    for s in [4, 66, 514, 1_024] {
        assert_builds_match_reference(&Avc::with_states(s).expect("valid AVC budget"));
    }
    assert_builds_match_reference(&Bef::new(10).expect("valid BEF levels"));
    assert_builds_match_reference(&Degssu::new(10, 4).expect("valid DEGSSU parameters"));
    assert_builds_match_reference(&FourState);
}

#[test]
fn avc_grid_agrees_with_arithmetic_protocol() {
    for m in [1u64, 3, 5, 15] {
        for d in [1u32, 2, 3] {
            let plain = Avc::new(m, d).expect("valid AVC parameters");
            let cached = Cached::new(Avc::new(m, d).expect("valid AVC parameters"));
            let configs = probe_configs(plain.num_states(), m * 31 + d as u64);
            assert_exact_standin(&cached, &plain, &configs);
        }
    }
}

/// An arbitrary protocol defined by explicit transition/output tables; the
/// worst case for `Cached` because nothing about it is structured.
#[derive(Debug, Clone)]
struct TableProtocol {
    s: u32,
    delta: Vec<(StateId, StateId)>,
    gamma: Vec<bool>,
}

impl Protocol for TableProtocol {
    fn num_states(&self) -> u32 {
        self.s
    }
    fn transition(&self, a: StateId, b: StateId) -> (StateId, StateId) {
        self.delta[(a * self.s + b) as usize]
    }
    fn output(&self, q: StateId) -> Opinion {
        if self.gamma[q as usize] {
            Opinion::A
        } else {
            Opinion::B
        }
    }
    fn input(&self, opinion: Opinion) -> StateId {
        match opinion {
            Opinion::A => 0,
            Opinion::B => self.s - 1,
        }
    }
    fn name(&self) -> &str {
        "table-test"
    }
}

fn table_protocol_strategy(max_states: u32) -> impl Strategy<Value = TableProtocol> {
    (2..=max_states, any::<u64>()).prop_map(|(s, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let delta = (0..s * s)
            .map(|_| (rng.gen_range(0..s), rng.gen_range(0..s)))
            .collect();
        let gamma = (0..s).map(|_| rng.gen_range(0..2) == 0).collect();
        TableProtocol { s, delta, gamma }
    })
}

proptest! {
    #[test]
    fn random_table_protocols_round_trip_through_the_cache(
        protocol in table_protocol_strategy(24),
        seed in any::<u64>(),
    ) {
        let cached = Cached::new(protocol.clone());
        let configs = probe_configs(protocol.num_states(), seed);
        assert_exact_standin(&cached, &protocol, &configs);
        assert_builds_match_reference(&protocol);
    }

    #[test]
    fn config_silent_matches_brute_force_on_random_counts(
        protocol in table_protocol_strategy(16),
        counts in proptest::collection::vec(0u64..5, 16),
    ) {
        let counts = &counts[..protocol.num_states() as usize];
        let cached = Cached::new(protocol.clone());
        // Independent brute-force oracle over live ordered pairs.
        let live: Vec<StateId> = (0..protocol.num_states())
            .filter(|&q| counts[q as usize] > 0)
            .collect();
        let mut expected = true;
        'outer: for &a in &live {
            for &b in &live {
                if a == b && counts[a as usize] < 2 {
                    continue;
                }
                if !protocol.is_silent(a, b) {
                    expected = false;
                    break 'outer;
                }
            }
        }
        prop_assert_eq!(cached.config_silent(counts), expected);
        prop_assert_eq!(protocol.config_silent(counts), expected);
    }
}

/// A protocol with an arbitrary state count and trivial dynamics, for
/// probing the table-size bound without paying for a real table.
#[derive(Debug, Clone)]
struct WideProtocol {
    s: u32,
}

impl Protocol for WideProtocol {
    fn num_states(&self) -> u32 {
        self.s
    }
    fn transition(&self, a: StateId, _b: StateId) -> (StateId, StateId) {
        (a, a)
    }
    fn output(&self, q: StateId) -> Opinion {
        if q == 0 {
            Opinion::A
        } else {
            Opinion::B
        }
    }
    fn input(&self, opinion: Opinion) -> StateId {
        match opinion {
            Opinion::A => 0,
            Opinion::B => self.s - 1,
        }
    }
    fn name(&self) -> &str {
        "wide-test"
    }
}

#[test]
fn table_size_boundary_is_exact() {
    // 1024² entries is exactly the cap; one more state overflows it.
    assert_eq!(MAX_TABLE_ENTRIES, 1_024 * 1_024);
    assert!(Cached::<WideProtocol>::fits(1_024));
    assert!(!Cached::<WideProtocol>::fits(1_025));

    // At the boundary, the cache builds and answers correctly at the
    // corners of the table.
    let plain = WideProtocol { s: 1_024 };
    let cached = Cached::try_new(plain.clone()).expect("1024 states fit");
    for (a, b) in [(0, 0), (0, 1_023), (1_023, 0), (1_023, 1_023), (17, 834)] {
        assert_eq!(cached.transition(a, b), plain.transition(a, b));
        assert_eq!(cached.is_silent(a, b), plain.is_silent(a, b));
    }

    // One state past the boundary, try_new declines and returns the
    // protocol unchanged; new() panics.
    let too_wide = WideProtocol { s: 1_025 };
    let back = Cached::try_new(too_wide).expect_err("1025 states must not fit");
    assert_eq!(back.num_states(), 1_025);
    let panicked = std::panic::catch_unwind(|| Cached::new(WideProtocol { s: 1_025 })).is_err();
    assert!(panicked, "Cached::new must panic past the bound");
}

#[test]
fn large_avc_instances_fall_back_to_arithmetic() {
    // The n-state AVC instance of Figure 3 at n = 100 001 has ~100 000
    // states — far past the table bound. try_new must hand it back.
    let avc = Avc::with_states(100_000).expect("valid AVC budget");
    let s = avc.num_states();
    assert!(s > 4_096);
    assert!(Cached::try_new(avc).is_err());
}
