//! Cross-engine differential suite: all four engines (Agent on the clique,
//! Count, Jump, Adaptive) simulate the same Markov chain, so their
//! trajectory and convergence-time distributions must agree. These tests
//! compare engines on matched workloads (Abl-2 of DESIGN.md) three ways:
//!
//! 1. **Mean agreement** — classic ratio checks on mean convergence time.
//! 2. **Distribution agreement** — two-sample Kolmogorov–Smirnov checks on
//!    the full convergence-step distribution and on the `counts()`
//!    trajectory marginal at a fixed step checkpoint, over every exact
//!    engine pair, so a *biased* engine (not just a shifted one) fails.
//! 3. **Exact trajectory agreement** where the RNG streams permit it — the
//!    adaptive engine's dense phase is bit-for-bit `CountSim`.
//!
//! Engines deliberately consume randomness differently (per-agent draws vs
//! Fenwick state pairs vs geometric skips), so a literally shared seed
//! yields *divergent but identically distributed* trajectories for the
//! other pairs; those are compared distributionally at matched step counts.

use avc::population::engine::{AdaptiveSim, AgentSim, CountSim, JumpSim, Simulator};
use avc::population::rngutil::SeedSequence;
use avc::population::{Config, ConvergenceRule, MajorityInstance, Opinion, Protocol};
use avc::protocols::{Avc, FourState, ThreeState, Voter};

const ENGINE_NAMES: [&str; 4] = ["agent", "count", "jump", "adaptive"];

/// Builds exact engine `engine` (0 = agent-on-clique, 1 = count, 2 = jump,
/// 3 = adaptive) on `config`.
fn make_engine<P: Protocol + Clone + 'static>(
    protocol: &P,
    config: Config,
    engine: usize,
) -> Box<dyn Simulator> {
    match engine {
        0 => Box::new(AgentSim::on_clique(protocol.clone(), config)),
        1 => Box::new(CountSim::new(protocol.clone(), config)),
        2 => Box::new(JumpSim::new(protocol.clone(), config)),
        _ => Box::new(AdaptiveSim::new(protocol.clone(), config)),
    }
}

/// Two-sample Kolmogorov–Smirnov statistic: the supremum distance between
/// the empirical CDFs of `xs` and `ys`.
fn ks_statistic(xs: &[f64], ys: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    let mut ys = ys.to_vec();
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    let (n, m) = (xs.len() as f64, ys.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xs.len() && j < ys.len() {
        let t = xs[i].min(ys[j]);
        while i < xs.len() && xs[i] <= t {
            i += 1;
        }
        while j < ys.len() && ys[j] <= t {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    d
}

/// The critical KS distance at significance `c` (e.g. 1.63 ⇒ α ≈ 0.01).
fn ks_critical(n: usize, m: usize, c: f64) -> f64 {
    c * ((n + m) as f64 / (n * m) as f64).sqrt()
}

/// Convergence *step counts* of `trials` runs of `protocol` on `engine`.
fn convergence_steps<P: Protocol + Clone + 'static>(
    protocol: &P,
    instance: MajorityInstance,
    engine: usize,
    rule: ConvergenceRule,
    trials: u64,
    seed: u64,
) -> Vec<f64> {
    let seeds = SeedSequence::new(seed);
    (0..trials)
        .map(|t| {
            let mut rng = seeds.rng_for(t);
            let config = Config::from_input(protocol, instance.a(), instance.b());
            let mut sim = make_engine(protocol, config, engine);
            let out = sim.run_to_consensus_with(&mut rng, u64::MAX, rule);
            assert!(
                out.verdict.is_consensus(),
                "engine {engine} did not converge"
            );
            out.steps as f64
        })
        .collect()
}

/// The configuration at scheduler step `t` exactly: engines that skip
/// silent steps in batches may overshoot `t`, but the configuration only
/// changes at the batch's final (productive) step, so the pre-overshoot
/// counts are the state at `t`.
fn counts_at_step(sim: &mut dyn Simulator, rng: &mut rand::rngs::SmallRng, t: u64) -> Vec<u64> {
    while sim.steps() < t {
        let before = sim.counts().to_vec();
        if sim.advance(rng) == 0 {
            break;
        }
        if sim.steps() > t {
            return before;
        }
    }
    sim.counts().to_vec()
}

/// Mean convergence parallel time of `protocol` over `trials` runs on the
/// chosen engine (0 = agent, 1 = count, 2 = jump, 3 = adaptive).
fn mean_time<P: Protocol + Clone>(
    protocol: &P,
    instance: MajorityInstance,
    engine: usize,
    rule: ConvergenceRule,
    trials: u64,
    seed: u64,
) -> f64 {
    let seeds = SeedSequence::new(seed);
    let mut total = 0.0;
    for t in 0..trials {
        let mut rng = seeds.rng_for(t);
        let config = Config::from_input(protocol, instance.a(), instance.b());
        let out = match engine {
            0 => AgentSim::on_clique(protocol.clone(), config).run_to_consensus_with(
                &mut rng,
                u64::MAX,
                rule,
            ),
            1 => CountSim::new(protocol.clone(), config).run_to_consensus_with(
                &mut rng,
                u64::MAX,
                rule,
            ),
            2 => JumpSim::new(protocol.clone(), config).run_to_consensus_with(
                &mut rng,
                u64::MAX,
                rule,
            ),
            _ => AdaptiveSim::new(protocol.clone(), config).run_to_consensus_with(
                &mut rng,
                u64::MAX,
                rule,
            ),
        };
        assert!(
            out.verdict.is_consensus(),
            "engine {engine} did not converge"
        );
        total += out.parallel_time;
    }
    total / trials as f64
}

/// All four engines agree on the four-state protocol's mean convergence
/// time within sampling noise.
#[test]
fn four_state_means_agree_across_engines() {
    let instance = MajorityInstance::new(70, 50);
    let baseline = mean_time(
        &FourState,
        instance,
        0,
        ConvergenceRule::OutputConsensus,
        60,
        1,
    );
    for engine in 1..=3 {
        let mean = mean_time(
            &FourState,
            instance,
            engine,
            ConvergenceRule::OutputConsensus,
            60,
            2 + engine as u64,
        );
        let ratio = mean / baseline;
        assert!(
            (0.7..1.4).contains(&ratio),
            "engine {engine}: mean {mean} vs baseline {baseline}"
        );
    }
}

/// Engines agree on AVC (including the intermediate-level machinery).
#[test]
fn avc_means_agree_across_engines() {
    let avc = Avc::new(9, 2).expect("valid parameters");
    let instance = MajorityInstance::new(65, 55);
    let baseline = mean_time(&avc, instance, 1, ConvergenceRule::OutputConsensus, 60, 5);
    for engine in [0usize, 2, 3] {
        let mean = mean_time(
            &avc,
            instance,
            engine,
            ConvergenceRule::OutputConsensus,
            60,
            6 + engine as u64,
        );
        let ratio = mean / baseline;
        assert!(
            (0.7..1.4).contains(&ratio),
            "engine {engine}: mean {mean} vs baseline {baseline}"
        );
    }
}

/// The one-way (order-sensitive) three-state protocol is also equivalent
/// across engines — the ordered-pair semantics match.
#[test]
fn three_state_means_agree_across_engines() {
    let p = ThreeState::new();
    let instance = MajorityInstance::new(80, 40);
    let baseline = mean_time(&p, instance, 0, ConvergenceRule::StateConsensus, 60, 9);
    for engine in 1..=3 {
        let mean = mean_time(
            &p,
            instance,
            engine,
            ConvergenceRule::StateConsensus,
            60,
            10 + engine as u64,
        );
        let ratio = mean / baseline;
        assert!(
            (0.7..1.4).contains(&ratio),
            "engine {engine}: mean {mean} vs baseline {baseline}"
        );
    }
}

/// Absorption probabilities (not just times) agree: the voter model's
/// P[consensus A] = a/n on every engine.
#[test]
fn voter_absorption_probability_agrees_across_engines() {
    let instance = MajorityInstance::new(12, 6);
    let trials = 300u64;
    for engine in 0..=3usize {
        let seeds = SeedSequence::new(20 + engine as u64);
        let mut wins = 0u64;
        for t in 0..trials {
            let mut rng = seeds.rng_for(t);
            let config = Config::from_input(&Voter, instance.a(), instance.b());
            let out = match engine {
                0 => AgentSim::on_clique(Voter, config).run_to_consensus(&mut rng, u64::MAX),
                1 => CountSim::new(Voter, config).run_to_consensus(&mut rng, u64::MAX),
                2 => JumpSim::new(Voter, config).run_to_consensus(&mut rng, u64::MAX),
                _ => AdaptiveSim::new(Voter, config).run_to_consensus(&mut rng, u64::MAX),
            };
            if out.verdict.opinion() == Some(Opinion::A) {
                wins += 1;
            }
        }
        let frac = wins as f64 / trials as f64;
        assert!(
            (frac - 12.0 / 18.0).abs() < 0.09,
            "engine {engine}: absorption fraction {frac}"
        );
    }
}

/// The jump engine reports identical *final configurations* to the count
/// engine for a deterministic-outcome protocol, and strictly fewer events
/// than steps in a silent-dominated run.
#[test]
fn jump_engine_skips_but_preserves_outcome() {
    let instance = MajorityInstance::new(900, 30);
    let seeds = SeedSequence::new(31);
    let config = Config::from_input(&FourState, instance.a(), instance.b());
    let mut sim = JumpSim::new(FourState, config);
    let mut rng = seeds.rng_for(0);
    let out = sim.run_to_consensus(&mut rng, u64::MAX);
    assert_eq!(out.verdict.opinion(), Some(Opinion::A));
    assert!(
        sim.events() * 10 < sim.steps(),
        "expected heavy skipping: {} events vs {} steps",
        sim.events(),
        sim.steps()
    );
    // Value conservation visible in the final configuration: +1 count minus
    // −1 count must equal the initial margin.
    let counts = sim.counts();
    assert_eq!(counts[0] as i64 - counts[1] as i64, 870);
}

/// KS check on the **full convergence-step distribution** across every
/// exact engine pair: 200 four-state trials per engine must be
/// indistinguishable at α ≈ 0.01. A biased sampler in any single engine
/// shifts its CDF and fails every pair involving it.
#[test]
fn convergence_step_distributions_agree_pairwise() {
    let instance = MajorityInstance::new(40, 28);
    let trials = 200u64;
    let samples: Vec<Vec<f64>> = (0..4)
        .map(|engine| {
            convergence_steps(
                &FourState,
                instance,
                engine,
                ConvergenceRule::OutputConsensus,
                trials,
                40 + engine as u64,
            )
        })
        .collect();
    let crit = ks_critical(trials as usize, trials as usize, 1.63);
    for i in 0..4 {
        for j in (i + 1)..4 {
            let d = ks_statistic(&samples[i], &samples[j]);
            assert!(
                d < crit,
                "{} vs {}: KS distance {d:.4} ≥ critical {crit:.4}",
                ENGINE_NAMES[i],
                ENGINE_NAMES[j]
            );
        }
    }
}

/// KS check on the **trajectory marginal**: the distribution of the
/// majority-species count at a fixed mid-run step checkpoint must agree
/// across every exact engine pair. This compares the `counts()` process
/// itself (not just its absorption time), at matched step counts, so an
/// engine whose per-step transition kernel is subtly wrong fails even if
/// its convergence times happen to match.
#[test]
fn trajectory_marginals_agree_pairwise() {
    let instance = MajorityInstance::new(18, 12);
    let checkpoint = 150u64;
    let trials = 200u64;
    let samples: Vec<Vec<f64>> = (0..4)
        .map(|engine| {
            let seeds = SeedSequence::new(60 + engine as u64);
            (0..trials)
                .map(|t| {
                    let mut rng = seeds.rng_for(t);
                    let config = Config::from_input(&Voter, instance.a(), instance.b());
                    let mut sim = make_engine(&Voter, config, engine);
                    counts_at_step(sim.as_mut(), &mut rng, checkpoint)[0] as f64
                })
                .collect()
        })
        .collect();
    let crit = ks_critical(trials as usize, trials as usize, 1.63);
    for i in 0..4 {
        for j in (i + 1)..4 {
            let d = ks_statistic(&samples[i], &samples[j]);
            assert!(
                d < crit,
                "{} vs {}: KS distance {d:.4} ≥ critical {crit:.4}",
                ENGINE_NAMES[i],
                ENGINE_NAMES[j]
            );
        }
    }
}

/// The same distributional agreement holds for AVC's larger state space —
/// here on the Count/Jump/Adaptive engines' convergence steps (the agent
/// engine is covered on the four-state workload above).
#[test]
fn avc_step_distributions_agree_pairwise() {
    let avc = Avc::new(7, 1).expect("valid parameters");
    let instance = MajorityInstance::new(36, 28);
    let trials = 200u64;
    let samples: Vec<Vec<f64>> = (1..4)
        .map(|engine| {
            convergence_steps(
                &avc,
                instance,
                engine,
                ConvergenceRule::OutputConsensus,
                trials,
                80 + engine as u64,
            )
        })
        .collect();
    let crit = ks_critical(trials as usize, trials as usize, 1.63);
    for i in 0..3 {
        for j in (i + 1)..3 {
            let d = ks_statistic(&samples[i], &samples[j]);
            assert!(
                d < crit,
                "{} vs {}: KS distance {d:.4} ≥ critical {crit:.4}",
                ENGINE_NAMES[i + 1],
                ENGINE_NAMES[j + 1]
            );
        }
    }
}

/// Where RNG streams *do* coincide, the agreement is exact: the adaptive
/// engine's dense phase is `CountSim` with the same draw sequence, so their
/// `counts()` trajectories under a shared seed match bit for bit at every
/// step (the voter run here ends long before the 4096-step switch window).
#[test]
fn adaptive_dense_phase_is_exactly_count_sim() {
    let seeds = SeedSequence::new(90);
    for trial in 0..5u64 {
        let config = Config::from_input(&Voter, 20, 10);
        let mut count = CountSim::new(Voter, config.clone());
        let mut adaptive = AdaptiveSim::new(Voter, config);
        let mut rng_c = seeds.rng_for(trial);
        let mut rng_a = seeds.rng_for(trial);
        for step in 0..300 {
            let c = count.advance(&mut rng_c);
            let a = adaptive.advance(&mut rng_a);
            assert_eq!(c, a, "trial {trial}, step {step}");
            assert_eq!(
                count.counts(),
                adaptive.counts(),
                "trial {trial}, step {step}"
            );
            if c == 0 {
                break;
            }
        }
        assert_eq!(count.steps(), adaptive.steps());
        assert_eq!(count.events(), adaptive.events());
    }
}

/// Sanity check on the KS machinery itself: it separates genuinely
/// different distributions at the same sample sizes the engine checks use
/// (guarding against a vacuous-threshold bug making the suite toothless).
#[test]
fn ks_statistic_detects_a_shifted_distribution() {
    let base = convergence_steps(
        &Voter,
        MajorityInstance::new(18, 12),
        1,
        ConvergenceRule::OutputConsensus,
        200,
        71,
    );
    // A 30% multiplicative bias — the size a broken sampler easily causes.
    let biased: Vec<f64> = convergence_steps(
        &Voter,
        MajorityInstance::new(18, 12),
        1,
        ConvergenceRule::OutputConsensus,
        200,
        72,
    )
    .iter()
    .map(|s| s * 1.3)
    .collect();
    let crit = ks_critical(200, 200, 1.63);
    assert!(
        ks_statistic(&base, &biased) > crit,
        "KS check failed to flag a 30% step-count bias"
    );
    // And identical samples give distance 0.
    assert_eq!(ks_statistic(&base, &base), 0.0);
}
