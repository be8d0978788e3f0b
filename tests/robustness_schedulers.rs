//! Adversarial-scheduler stress suite: exactness and slowdown of the
//! majority protocols when the interaction sequence is chosen by an
//! adversary instead of the uniform scheduler the paper analyzes.
//!
//! The suite runs a quick tier by default; set `ROBUSTNESS_FULL=1` for
//! more seeds per combination. Every assertion is deterministic per seed:
//! schedulers draw all their randomness from the trial RNG, so there is no
//! statistical flake — a failure is a real regression.

use avc::population::driver::{Driver, NullObserver};
use avc::population::engine::{AgentSim, Simulator};
use avc::population::graph::Graph;
use avc::population::sched::{BiasedPair, EpochBatched, LaggardStarving, Scheduler, Uniform};
use avc::population::spec::RunOutcome;
use avc::population::{Config, ConvergenceRule, MajorityInstance, Protocol};
use avc::protocols::{Avc, Bef, Degssu, FourState};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Step budget: ~24k parallel time at the populations used here — orders
/// of magnitude above any converging combination.
const BUDGET: u64 = 1_000_000;

/// Seeds per (protocol, scheduler) combination: quick tier by default,
/// `ROBUSTNESS_FULL=1` for the deeper sweep.
fn num_seeds() -> u64 {
    if std::env::var_os("ROBUSTNESS_FULL").is_some() {
        20
    } else {
        6
    }
}

/// Drives one run of `protocol` on the clique under `scheduler`.
fn run_scheduled<P: Protocol, S: Scheduler>(
    protocol: &P,
    a: u64,
    b: u64,
    scheduler: S,
    seed: u64,
    max_steps: u64,
) -> RunOutcome {
    let n = (a + b) as usize;
    run_on(protocol, a, b, Graph::clique(n), scheduler, seed, max_steps)
}

/// Drives one run of `protocol` on `graph` under `scheduler`; the uniform
/// scheduler on a star or cycle is the graph-restricted schedule.
fn run_on<P: Protocol, S: Scheduler>(
    protocol: &P,
    a: u64,
    b: u64,
    graph: Graph,
    scheduler: S,
    seed: u64,
    max_steps: u64,
) -> RunOutcome {
    let config = Config::from_input(protocol, a, b);
    let mut sim = AgentSim::with_scheduler(protocol, config, graph, scheduler);
    let mut rng = SmallRng::seed_from_u64(seed);
    Driver::new(ConvergenceRule::OutputConsensus)
        .with_max_steps(max_steps)
        .run(&mut sim, &mut rng, &mut NullObserver)
}

/// Asserts `protocol` decides a margin-1 instance correctly under every
/// clique-fair adversarial scheduler (all pairs stay reachable), across
/// seeds and with both majorities.
fn assert_exact_under_fair_adversaries<P: Protocol>(protocol: &P, label: &str) {
    let n = 25;
    let inst = MajorityInstance::one_extra(n);
    // Majority-A and the mirrored majority-B instance.
    for (a, b) in [(inst.a(), inst.b()), (inst.b(), inst.a())] {
        let expected = if a > b {
            avc::population::Opinion::A
        } else {
            avc::population::Opinion::B
        };
        for seed in 0..num_seeds() {
            let outcomes = [
                (
                    "biased",
                    run_scheduled(protocol, a, b, BiasedPair::new(4, 0.75), seed, BUDGET),
                ),
                (
                    "starved",
                    run_scheduled(
                        protocol,
                        a,
                        b,
                        LaggardStarving::new(n as usize / 3, 8),
                        seed,
                        BUDGET,
                    ),
                ),
                (
                    "epoch",
                    run_scheduled(protocol, a, b, EpochBatched::new(), seed, BUDGET),
                ),
                (
                    "uniform",
                    run_scheduled(protocol, a, b, Uniform, seed, BUDGET),
                ),
            ];
            for (sched, out) in outcomes {
                assert!(
                    out.verdict.is_consensus(),
                    "{label} did not converge under {sched} (seed {seed}, a={a}, b={b}): {:?}",
                    out.verdict
                );
                assert!(
                    out.verdict.is_correct(expected),
                    "{label} answered wrong under {sched} (seed {seed}, a={a}, b={b}): {:?}",
                    out.verdict
                );
            }
        }
    }
}

/// AVC stays exact under every fair adversarial schedule, at the hardest
/// margin (one extra agent).
#[test]
fn avc_exact_under_fair_adversarial_schedulers() {
    let avc = Avc::new(5, 1).expect("valid parameters");
    assert_exact_under_fair_adversaries(&avc, "avc");
}

/// The four-state protocol stays exact under every fair adversarial
/// schedule, at the hardest margin.
#[test]
fn four_state_exact_under_fair_adversarial_schedulers() {
    assert_exact_under_fair_adversaries(&FourState, "four_state");
}

/// The BEF split/cancel rival stays exact under every fair adversarial
/// schedule, at the hardest margin. (Graph-restricted schedules are out of
/// scope: BEF assumes the clique — see the module docs on `Bef`.)
#[test]
fn bef_exact_under_fair_adversarial_schedulers() {
    let bef = Bef::new(5).expect("valid parameters");
    assert_exact_under_fair_adversaries(&bef, "bef");
}

/// The DEGSSU clocked rival stays exact under every fair adversarial
/// schedule, at the hardest margin.
#[test]
fn degssu_exact_under_fair_adversarial_schedulers() {
    let degssu = Degssu::new(5, 3).expect("valid parameters");
    assert_exact_under_fair_adversaries(&degssu, "degssu");
}

/// The four-state protocol additionally converges exactly when the
/// schedule is *graph-restricted* — \[DV12] holds on any connected
/// interaction graph.
#[test]
fn four_state_exact_under_graph_restricted_schedules() {
    let n = 25usize;
    let inst = MajorityInstance::one_extra(n as u64);
    for sub in [Graph::star(n), Graph::cycle(n)] {
        for seed in 0..num_seeds() {
            let out = run_on(
                &FourState,
                inst.a(),
                inst.b(),
                sub.clone(),
                Uniform,
                seed,
                BUDGET,
            );
            assert!(
                out.verdict.is_correct(avc::population::Opinion::A),
                "four_state wrong/stuck on restricted graph (seed {seed}): {:?}",
                out.verdict
            );
        }
    }
}

/// AVC on graph-restricted schedules *stalls* rather than erring: its
/// transition structure assumes the clique, and on the star it freezes in
/// a mixed configuration. The pinned guarantees are (a) it never reports a
/// wrong consensus, and (b) the stall is real — the configuration stops
/// changing entirely (the paper's exactness is a safety property; lack of
/// progress under a restricted scheduler is outside its fairness model).
#[test]
fn avc_never_errs_but_stalls_on_restricted_graphs() {
    let n = 25usize;
    let avc = Avc::new(5, 1).expect("valid parameters");
    let inst = MajorityInstance::one_extra(n as u64);
    let mut stalls = 0u32;
    for sub in [Graph::star(n), Graph::cycle(n)] {
        for seed in 0..num_seeds() {
            let out = run_on(
                &avc,
                inst.a(),
                inst.b(),
                sub.clone(),
                Uniform,
                seed,
                200_000,
            );
            match out.verdict {
                v if v.is_consensus() => assert!(
                    v.is_correct(avc::population::Opinion::A),
                    "AVC answered wrong on a restricted graph (seed {seed})"
                ),
                _ => stalls += 1,
            }
        }
    }
    assert!(
        stalls > 0,
        "every restricted run converged — the stall finding no longer reproduces, \
         update the suite to quantify restricted-graph slowdown instead"
    );
}

/// Quantified slowdown: the cycle-restricted schedule costs the four-state
/// protocol well over 2x the uniform schedule's steps (the \[DV12] bound
/// scales with the inverse spectral gap, and the cycle's gap is `Θ(1/n²)`
/// against the clique's `Θ(1)`).
#[test]
fn cycle_restriction_slows_four_state_beyond_2x() {
    let n = 41usize;
    let inst = MajorityInstance::with_margin(n as u64, 0.5);
    let mean_steps = |restricted: bool| -> f64 {
        let mut total = 0u64;
        for seed in 0..num_seeds() {
            let out = if restricted {
                run_on(
                    &FourState,
                    inst.a(),
                    inst.b(),
                    Graph::cycle(n),
                    Uniform,
                    seed,
                    BUDGET * 10,
                )
            } else {
                run_scheduled(&FourState, inst.a(), inst.b(), Uniform, seed, BUDGET * 10)
            };
            assert!(out.verdict.is_consensus(), "run timed out (seed {seed})");
            total += out.steps;
        }
        total as f64 / num_seeds() as f64
    };
    let uniform = mean_steps(false);
    let cycle = mean_steps(true);
    assert!(
        cycle > 2.0 * uniform,
        "expected >2x slowdown, got cycle {cycle} vs uniform {uniform}"
    );
}

/// The scheduler seam is free on the default path: `AgentSim::new` (the
/// pre-seam constructor) and an explicit `Uniform` scheduler consume the
/// RNG stream identically and land on bit-identical trajectories.
#[test]
fn explicit_uniform_scheduler_is_bit_identical_to_default() {
    let avc = Avc::new(7, 1).expect("valid parameters");
    let config = Config::from_input(&avc, 30, 21);
    let graph = Graph::clique(51);

    let mut default_sim = AgentSim::new(&avc, config.clone(), graph.clone());
    let mut explicit_sim = AgentSim::with_scheduler(&avc, config, graph, Uniform);
    let mut rng_a = SmallRng::seed_from_u64(99);
    let mut rng_b = SmallRng::seed_from_u64(99);

    let out_a = default_sim.run_to_consensus(&mut rng_a, BUDGET);
    let out_b = explicit_sim.run_to_consensus(&mut rng_b, BUDGET);
    assert_eq!(out_a, out_b);
    assert_eq!(default_sim.counts(), explicit_sim.counts());
    assert_eq!(default_sim.steps(), explicit_sim.steps());
    // Both RNGs must sit at the same stream position afterwards.
    use rand::RngCore;
    assert_eq!(rng_a.next_u64(), rng_b.next_u64());
}
