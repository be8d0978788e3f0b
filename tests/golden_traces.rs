//! Golden-trace regression tests: tiny fixed-seed runs with checked-in
//! expected count trajectories, driven one `Simulator::advance` at a time.
//! All eight protocols plus the parallel composition run on `CountSim`;
//! the agent, jump and adaptive engines each pin their own per-step
//! `advance` on one protocol. The AVC trace at 2050 states pins
//! `CountSim`'s sampler on blocks of 16 states, a table load and a
//! four-level descent per draw; every other `CountSim` trace (at most 130
//! states) resolves its draws with one rank-table load. The 130- and
//! 2050-state traces were recorded when those sizes descended the whole
//! Fenwick tree, so they pin that the index draws as the tree did. Any
//! edit that changes a transition function, an engine's step, the pair
//! sampler, or the RNG stream shifts these traces and fails loudly.
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
    let mut lines = vec![format!("{} {}", sim.steps(), counts_line(sim.counts()))];
    for k in 1..=advances {
        if sim.advance(&mut rng) == 0 {
            lines.push(format!("silent at {}", sim.steps()));
            break;
        }
        if k % stride == 0 {
            lines.push(format!("{} {}", sim.steps(), counts_line(sim.counts())));
        }
    }
    lines.join("\n")
}

/// A configuration as one trace line: the whole count vector up to 32
/// states, and only the occupied `(state, count)` pairs above that.
fn counts_line(counts: &[u64]) -> String {
    if counts.len() <= 32 {
        return format!("{counts:?}");
    }
    let live: Vec<(usize, u64)> = (0..)
        .zip(counts)
        .filter(|&(_, &c)| c > 0)
        .map(|(q, &c)| (q, c))
        .collect();
    format!("{live:?}")
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

const EXPECTED_AVC_130: &str = "\
0 [(0, 16), (129, 17)]
30 [(0, 5), (10, 2), (20, 1), (23, 1), (24, 1), (40, 2), (66, 4), (81, 1), (85, 2), (89, 2), (97, 2), (98, 1), (99, 2), (101, 1), (105, 1), (129, 5)]
60 [(25, 2), (27, 1), (35, 1), (36, 1), (39, 1), (47, 3), (53, 1), (55, 3), (61, 1), (66, 3), (67, 1), (74, 3), (75, 2), (84, 1), (85, 1), (86, 1), (89, 1), (98, 1), (99, 3), (107, 2)]
90 [(25, 1), (36, 1), (41, 1), (47, 2), (56, 2), (59, 2), (60, 2), (61, 1), (62, 2), (68, 1), (69, 3), (70, 2), (73, 2), (74, 3), (75, 1), (76, 1), (78, 1), (83, 1), (87, 2), (98, 1), (99, 1)]
120 [(38, 1), (51, 1), (52, 1), (54, 1), (57, 2), (58, 2), (59, 1), (60, 1), (61, 1), (62, 2), (63, 2), (66, 1), (68, 1), (69, 1), (70, 1), (71, 4), (72, 2), (76, 1), (77, 1), (78, 2), (80, 1), (81, 1), (82, 1), (87, 1)]
150 [(45, 1), (55, 1), (58, 1), (60, 3), (61, 2), (62, 2), (63, 2), (66, 2), (67, 2), (68, 2), (69, 4), (70, 1), (72, 6), (73, 1), (74, 1), (77, 1), (87, 1)]
180 [(57, 1), (58, 2), (60, 2), (62, 2), (63, 1), (66, 2), (67, 2), (68, 5), (69, 5), (70, 5), (71, 4), (72, 2)]
210 [(61, 1), (62, 3), (63, 1), (66, 5), (67, 5), (68, 7), (69, 7), (70, 3), (71, 1)]
240 [(62, 1), (63, 1), (66, 6), (67, 8), (68, 10), (69, 6), (70, 1)]
270 [(63, 1), (66, 2), (67, 15), (68, 12), (69, 3)]
300 [(63, 1), (66, 1), (67, 14), (68, 17)]";

const EXPECTED_AVC_2050: &str = "\
0 [(0, 16), (2049, 17)]
60 [(0, 1), (384, 1), (528, 1), (708, 2), (735, 1), (929, 1), (930, 1), (964, 2), (977, 1), (978, 1), (1023, 2), (1026, 1), (1051, 2), (1089, 2), (1090, 2), (1097, 1), (1153, 1), (1156, 2), (1217, 1), (1281, 1), (1363, 2), (1418, 1), (1574, 1), (1673, 1), (2049, 1)]
120 [(718, 1), (737, 1), (829, 1), (856, 1), (866, 1), (928, 1), (952, 1), (957, 1), (983, 1), (1040, 1), (1062, 1), (1063, 1), (1067, 1), (1068, 1), (1069, 1), (1070, 1), (1074, 2), (1076, 1), (1078, 2), (1118, 1), (1122, 1), (1162, 1), (1166, 1), (1173, 1), (1178, 1), (1179, 1), (1184, 1), (1193, 1), (1226, 2), (1275, 1)]
180 [(961, 1), (1017, 1), (1021, 1), (1026, 2), (1032, 4), (1036, 1), (1043, 1), (1044, 1), (1048, 4), (1052, 1), (1053, 2), (1055, 1), (1056, 2), (1057, 1), (1079, 1), (1080, 1), (1084, 1), (1088, 1), (1091, 2), (1103, 1), (1104, 1), (1131, 1), (1132, 1)]
240 [(1027, 1), (1039, 1), (1040, 1), (1041, 2), (1047, 2), (1048, 1), (1049, 1), (1051, 2), (1052, 2), (1055, 4), (1056, 1), (1060, 1), (1061, 4), (1062, 2), (1063, 2), (1064, 1), (1069, 1), (1074, 1), (1075, 1), (1076, 1), (1092, 1)]
300 [(1039, 1), (1046, 1), (1053, 1), (1054, 1), (1055, 7), (1056, 4), (1057, 5), (1058, 2), (1059, 4), (1060, 4), (1062, 2), (1063, 1)]
360 [(1052, 1), (1053, 1), (1054, 2), (1055, 3), (1056, 7), (1057, 10), (1058, 6), (1059, 3)]
420 [(1055, 2), (1056, 13), (1057, 17), (1058, 1)]
480 [(1056, 16), (1057, 17)]
540 [(1056, 16), (1057, 17)]
600 [(1056, 16), (1057, 17)]";

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

/// AVC at 130 states (m = 127) from a margin of one, where the averaging
/// reaches the ±1 intermediate states. Recorded when both draws of every
/// step descended the Fenwick tree; they now load from the rank table.
#[test]
fn avc_tree_path_trace_is_stable_at_130_states() {
    let avc = Avc::with_states(130).expect("valid budget");
    assert_eq!(
        trace(EngineKind::Count, &avc, 17, 16, 114, 300, 30),
        EXPECTED_AVC_130
    );
}

/// AVC at 2050 states (m = 2047) from a margin of one, run on until the
/// strong values have averaged out. Recorded on an 11-level tree descent;
/// each draw is now a table load and a 4-level descent in a block of 16.
#[test]
fn avc_tree_path_trace_is_stable_at_2050_states() {
    let avc = Avc::with_states(2050).expect("valid budget");
    assert_eq!(
        trace(EngineKind::Count, &avc, 17, 16, 115, 600, 60),
        EXPECTED_AVC_2050
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
    let avc_130 = Avc::with_states(130).expect("valid budget");
    println!(
        "avc_130:\n{}\n",
        trace(EngineKind::Count, &avc_130, 17, 16, 114, 300, 30)
    );
    let avc_2050 = Avc::with_states(2050).expect("valid budget");
    println!(
        "avc_2050:\n{}\n",
        trace(EngineKind::Count, &avc_2050, 17, 16, 115, 600, 60)
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
