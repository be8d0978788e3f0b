//! Golden-trace regression tests: tiny fixed-seed runs with checked-in
//! expected count trajectories, driven one `Simulator::advance` at a time.
//! All eight protocols plus the parallel composition run on `CountSim`;
//! the agent, jump, adaptive and τ-leaping engines each pin their own
//! per-step `advance` on one protocol. Any edit that changes a transition
//! function, an engine's step, the pair sampler, or the RNG stream shifts
//! these traces and fails loudly.
//!
//! To regenerate after an *intentional* semantic change:
//! `cargo test --test golden_traces -- --ignored --nocapture` and paste the
//! printed blocks over the `EXPECTED_*` constants.

use avc::population::engine::{AdaptiveSim, Simulator};
use avc::population::rngutil::SeedSequence;
use avc::population::scenario::build_erased;
use avc::population::{Config, EngineKind, Protocol, SchedulerSpec};
use avc::protocols::compose::{Lead, Parallel};
use avc::protocols::{Avc, Bef, Degssu, Epidemic, FourState, LeaderElection, ThreeState, Voter};

/// Runs `protocol` from `(a, b)` on `engine` (built by the scenario plane's
/// builder under the uniform scheduler) with trial stream 0 of
/// `SeedSequence::new(seed)` and records `steps counts` every `stride`
/// advances (plus the initial configuration), stopping early if the
/// configuration goes silent.
fn trace<P: Protocol + Clone>(
    engine: EngineKind,
    protocol: &P,
    a: u64,
    b: u64,
    seed: u64,
    advances: u64,
    stride: u64,
) -> String {
    let config = Config::from_input(protocol, a, b);
    let mut sim = build_erased(protocol.clone(), config, engine, &SchedulerSpec::Uniform)
        .expect("the uniform scheduler runs on every engine");
    record(sim.as_mut(), seed, advances, stride)
}

/// The stepping loop behind [`trace`], over an already-built engine.
fn record<S: Simulator + ?Sized>(sim: &mut S, seed: u64, advances: u64, stride: u64) -> String {
    let mut rng = SeedSequence::new(seed).rng_for(0);
    let mut lines = vec![format!("{} {:?}", sim.steps(), sim.counts())];
    for k in 1..=advances {
        if sim.advance(&mut rng) == 0 {
            lines.push(format!("silent at {}", sim.steps()));
            break;
        }
        if k % stride == 0 {
            lines.push(format!("{} {:?}", sim.steps(), sim.counts()));
        }
    }
    lines.join("\n")
}

const EXPECTED_VOTER: &str = "\
0 [9, 6]
6 [11, 4]
12 [10, 5]
18 [12, 3]
24 [13, 2]
30 [15, 0]";

const EXPECTED_FOUR_STATE: &str = "\
0 [9, 6, 0, 0]
6 [8, 5, 0, 2]
12 [8, 5, 1, 1]
18 [5, 2, 5, 3]
24 [5, 2, 5, 3]
30 [4, 1, 5, 5]";

const EXPECTED_THREE_STATE: &str = "\
0 [9, 6, 0]
6 [8, 5, 2]
12 [7, 4, 4]
18 [8, 3, 4]
24 [7, 2, 6]
30 [8, 1, 6]";

const EXPECTED_LEADER_ELECTION: &str = "\
0 [15, 0]
6 [9, 6]
12 [8, 7]
18 [6, 9]
24 [5, 10]
30 [4, 11]
36 [4, 11]
42 [3, 12]
48 [3, 12]
54 [2, 13]
60 [2, 13]";

const EXPECTED_EPIDEMIC: &str = "\
0 [3, 12]
6 [4, 11]
12 [4, 11]
18 [5, 10]
24 [9, 6]
30 [9, 6]
36 [10, 5]
42 [11, 4]
48 [12, 3]
54 [14, 1]
60 [14, 1]";

const EXPECTED_AVC: &str = "\
0 [6, 0, 0, 0, 0, 0, 0, 9]
6 [4, 0, 1, 0, 2, 1, 0, 7]
12 [2, 0, 3, 1, 1, 2, 2, 4]
18 [0, 1, 5, 1, 1, 1, 4, 2]
24 [0, 0, 4, 3, 1, 2, 4, 1]
30 [0, 0, 4, 4, 0, 2, 4, 1]";

const EXPECTED_COMPOSE: &str = "\
0 [9, 0, 0, 6, 0, 0, 0, 0]
6 [8, 0, 0, 5, 1, 0, 0, 1]
12 [7, 0, 0, 4, 3, 0, 1, 0]
18 [6, 0, 1, 2, 3, 0, 3, 0]
24 [4, 0, 0, 1, 6, 0, 4, 0]
30 [4, 0, 0, 1, 6, 0, 4, 0]";

const EXPECTED_BEF: &str = "\
0 [0, 0, 9, 0, 0, 0, 6, 0, 0, 0]
6 [1, 2, 6, 2, 0, 0, 4, 0, 0, 0]
12 [2, 2, 5, 2, 0, 0, 2, 2, 0, 0]
18 [1, 1, 4, 2, 2, 0, 1, 2, 2, 0]
24 [1, 1, 2, 6, 1, 0, 1, 2, 1, 0]
30 [1, 2, 1, 7, 1, 0, 1, 1, 1, 0]
36 [1, 1, 1, 6, 3, 0, 1, 1, 1, 0]
42 [2, 0, 1, 6, 3, 0, 1, 1, 1, 0]
48 [1, 0, 1, 5, 5, 0, 1, 1, 1, 0]
54 [0, 0, 1, 5, 4, 2, 1, 1, 1, 0]
60 [1, 1, 2, 3, 2, 4, 1, 1, 0, 0]";

const EXPECTED_DEGSSU: &str = "\
0 [0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
6 [3, 3, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
12 [4, 4, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
18 [4, 4, 1, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
24 [4, 4, 1, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]
30 [4, 4, 0, 1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0]
36 [4, 4, 0, 1, 1, 1, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
42 [3, 3, 0, 1, 0, 3, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0]
48 [3, 4, 0, 0, 1, 2, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]
54 [3, 5, 0, 0, 0, 2, 2, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
60 [2, 5, 0, 0, 0, 1, 2, 1, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]";

const EXPECTED_AGENT_AVC: &str = "\
0 [6, 0, 0, 0, 0, 0, 0, 9]
6 [5, 0, 1, 0, 0, 1, 0, 8]
12 [2, 2, 3, 0, 0, 1, 1, 6]
18 [1, 2, 2, 0, 0, 5, 1, 4]
24 [0, 2, 4, 1, 1, 1, 3, 3]
30 [0, 2, 2, 0, 2, 3, 5, 1]
36 [0, 2, 1, 1, 1, 5, 4, 1]
42 [0, 1, 1, 1, 1, 7, 4, 0]
48 [0, 0, 2, 2, 2, 5, 4, 0]
54 [0, 0, 0, 3, 3, 6, 3, 0]
60 [0, 0, 0, 3, 3, 6, 3, 0]";

const EXPECTED_JUMP_FOUR_STATE: &str = "\
0 [9, 6, 0, 0]
6 [6, 3, 4, 2]
16 [4, 1, 6, 4]
26 [4, 1, 6, 4]
36 [4, 1, 6, 4]
58 [3, 0, 10, 2]
silent at 89";

const EXPECTED_TAU_LEAP_VOTER: &str = "\
0 [700, 300]
1125 [659, 341]
2322 [678, 322]
3530 [653, 347]
4858 [654, 346]
6068 [689, 311]
7129 [687, 313]
8237 [684, 316]
9315 [699, 301]
10283 [709, 291]
11302 [696, 304]";

const EXPECTED_ADAPTIVE_THREE_STATE: &str = "\
0 [3000, 40, 0]
512 [2994, 34, 12]
1024 [2987, 32, 21]
1536 [2983, 24, 33]
2048 [2982, 20, 38]
2560 [2982, 17, 41]
3072 [2985, 16, 39]
3584 [2988, 16, 36]
4096 [2995, 13, 32]
silent at 15493";

/// The composite used by the composition golden trace: four-state majority
/// running in parallel with a one-way epidemic, outputs led by the
/// majority component. Packs as `first * |second| + second` (8 states).
fn composite() -> Parallel<FourState, Epidemic> {
    Parallel::new(FourState, Epidemic, Lead::First)
}

#[test]
fn voter_trace_is_stable() {
    assert_eq!(
        trace(EngineKind::Count, &Voter, 9, 6, 101, 30, 6),
        EXPECTED_VOTER
    );
}

#[test]
fn four_state_trace_is_stable() {
    assert_eq!(
        trace(EngineKind::Count, &FourState, 9, 6, 102, 30, 6),
        EXPECTED_FOUR_STATE
    );
}

#[test]
fn three_state_trace_is_stable() {
    assert_eq!(
        trace(EngineKind::Count, &ThreeState::new(), 9, 6, 103, 30, 6),
        EXPECTED_THREE_STATE
    );
}

#[test]
fn avc_trace_is_stable() {
    let avc = Avc::new(5, 1).expect("valid parameters");
    assert_eq!(
        trace(EngineKind::Count, &avc, 9, 6, 104, 30, 6),
        EXPECTED_AVC
    );
}

/// Leader election starts from the all-leaders configuration (every agent
/// maps from opinion A), so the trace pins the fratricide dynamics from the
/// worst case.
#[test]
fn leader_election_trace_is_stable() {
    assert_eq!(
        trace(EngineKind::Count, &LeaderElection, 15, 0, 105, 60, 6),
        EXPECTED_LEADER_ELECTION
    );
}

/// One-way infection from three seeds; pins the one-sided (initiator-only)
/// transition orientation alongside the sampler stream.
#[test]
fn epidemic_trace_is_stable() {
    assert_eq!(
        trace(EngineKind::Count, &Epidemic, 3, 12, 109, 60, 6),
        EXPECTED_EPIDEMIC
    );
}

/// Parallel composition `FourState × Epidemic`: pins the product packing
/// (`first · |second| + second`), the component-wise transition, and the
/// lead-side input encoding all at once — a change to any of them, or to
/// either component, shifts this trace.
#[test]
fn compose_trace_is_stable() {
    assert_eq!(
        trace(EngineKind::Count, &composite(), 9, 6, 106, 30, 6),
        EXPECTED_COMPOSE
    );
}

/// BEF cancel/split/merge/adopt token dynamics at `L = 3` (10 states);
/// pins the state packing (inactives at 0/1, `+` actives by level, then
/// `-` actives) alongside the sampler stream.
#[test]
fn bef_trace_is_stable() {
    let bef = Bef::new(3).expect("valid parameters");
    assert_eq!(
        trace(EngineKind::Count, &bef, 9, 6, 107, 60, 6),
        EXPECTED_BEF
    );
}

/// DEGSSU clocked dynamics at `L = 3`, `T = 2` (26 states); pins the
/// `(sign, level, clock)` packing, the clock-gated split/merge, and the
/// cross-level absorb rule alongside the sampler stream.
#[test]
fn degssu_trace_is_stable() {
    let degssu = Degssu::new(3, 2).expect("valid parameters");
    assert_eq!(
        trace(EngineKind::Count, &degssu, 9, 6, 108, 60, 6),
        EXPECTED_DEGSSU
    );
}

/// `AgentSim`'s per-step `advance` (one scheduler step on the clique, the
/// narrow `u8` state cells) on AVC.
#[test]
fn agent_advance_trace_is_stable() {
    let avc = Avc::new(5, 1).expect("valid parameters");
    assert_eq!(
        trace(EngineKind::Agent, &avc, 9, 6, 110, 60, 6),
        EXPECTED_AGENT_AVC
    );
}

/// `JumpSim`'s per-step `advance` is one jump: a geometric run of skipped
/// silent steps plus one productive interaction, until the configuration
/// goes silent.
#[test]
fn jump_advance_trace_is_stable() {
    assert_eq!(
        trace(EngineKind::Jump, &FourState, 9, 6, 111, 40, 4),
        EXPECTED_JUMP_FOUR_STATE
    );
}

/// `TauLeapSim`'s per-step `advance` is one Poisson leap.
#[test]
fn tau_leap_advance_trace_is_stable() {
    assert_eq!(
        trace(EngineKind::TauLeap, &Voter, 700, 300, 112, 30, 3),
        EXPECTED_TAU_LEAP_VOTER
    );
}

/// `AdaptiveSim`'s per-step `advance`: single dense steps through the first
/// 4096-step window, the dense→sparse switch at its end, then one jump per
/// advance until the configuration goes silent.
#[test]
fn adaptive_advance_trace_crosses_into_the_sparse_phase() {
    let three = ThreeState::new();
    assert_eq!(
        trace(EngineKind::Adaptive, &three, 3000, 40, 113, 6000, 512),
        EXPECTED_ADAPTIVE_THREE_STATE
    );
    let mut sim = AdaptiveSim::new(three, Config::from_input(&three, 3000, 40));
    assert_eq!(
        record(&mut sim, 113, 6000, 512),
        EXPECTED_ADAPTIVE_THREE_STATE
    );
    assert!(
        sim.is_sparse_phase(),
        "the trace must end in the sparse phase"
    );
}

/// Regeneration helper (see the module docs). Ignored by default.
#[test]
#[ignore = "prints the current traces for manual regeneration"]
fn print_traces() {
    println!(
        "voter:\n{}\n",
        trace(EngineKind::Count, &Voter, 9, 6, 101, 30, 6)
    );
    println!(
        "four_state:\n{}\n",
        trace(EngineKind::Count, &FourState, 9, 6, 102, 30, 6)
    );
    println!(
        "three_state:\n{}\n",
        trace(EngineKind::Count, &ThreeState::new(), 9, 6, 103, 30, 6)
    );
    let avc = Avc::new(5, 1).expect("valid parameters");
    println!(
        "avc:\n{}\n",
        trace(EngineKind::Count, &avc, 9, 6, 104, 30, 6)
    );
    println!(
        "leader_election:\n{}\n",
        trace(EngineKind::Count, &LeaderElection, 15, 0, 105, 60, 6)
    );
    println!(
        "epidemic:\n{}\n",
        trace(EngineKind::Count, &Epidemic, 3, 12, 109, 60, 6)
    );
    println!(
        "compose:\n{}\n",
        trace(EngineKind::Count, &composite(), 9, 6, 106, 30, 6)
    );
    let bef = Bef::new(3).expect("valid parameters");
    println!(
        "bef:\n{}\n",
        trace(EngineKind::Count, &bef, 9, 6, 107, 60, 6)
    );
    let degssu = Degssu::new(3, 2).expect("valid parameters");
    println!(
        "degssu:\n{}\n",
        trace(EngineKind::Count, &degssu, 9, 6, 108, 60, 6)
    );
    println!(
        "agent_avc:\n{}\n",
        trace(EngineKind::Agent, &avc, 9, 6, 110, 60, 6)
    );
    println!(
        "jump_four_state:\n{}\n",
        trace(EngineKind::Jump, &FourState, 9, 6, 111, 40, 4)
    );
    println!(
        "tau_leap_voter:\n{}\n",
        trace(EngineKind::TauLeap, &Voter, 700, 300, 112, 30, 3)
    );
    println!(
        "adaptive_three_state:\n{}\n",
        trace(
            EngineKind::Adaptive,
            &ThreeState::new(),
            3000,
            40,
            113,
            6000,
            512
        )
    );
}
