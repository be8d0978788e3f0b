//! Byte-identity of the scenario plane's erased dispatch seam.
//!
//! The scenario builder returns a `Box<dyn Simulator>`, whose
//! `advance_chunk` is the same code a concretely typed engine runs, so
//! erased runs must match concrete runs *exactly*: identical outcomes,
//! identical trajectories, and — the sharp check — identical RNG stream
//! positions afterwards (a single extra or missing draw shifts every later
//! trial). These tests pin that invariant across all five engines, under a
//! non-uniform scheduler, and through the faulted driver path.

use avc::population::driver::{Driver, NullObserver};
use avc::population::engine::{AdaptiveSim, AgentSim, CountSim, JumpSim, Simulator, TauLeapSim};
use avc::population::faults::{Fault, FaultPlan};
use avc::population::graph::Graph;
use avc::population::scenario::build_erased;
use avc::population::sched::BiasedPair;
use avc::population::spec::RunOutcome;
use avc::population::{
    Config, ConvergenceRule, EngineKind, MajorityInstance, Protocol, SchedulerSpec,
};
use avc::protocols::{Avc, FourState};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

const MAX_STEPS: u64 = 5_000_000;

fn driver() -> Driver {
    Driver::new(ConvergenceRule::OutputConsensus).with_max_steps(MAX_STEPS)
}

/// Runs `protocol` on the concretely-constructed engine named by `kind`
/// (dispatching on the *name* keeps the `EngineKind` match confined to the
/// scenario builder), returning the outcome, the final state counts, and
/// the RNG's next draw — the stream-position witness.
fn concrete_run<P: Protocol + Clone + 'static>(
    protocol: &P,
    config: Config,
    kind: EngineKind,
    seed: u64,
) -> (RunOutcome, Vec<u64>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let d = driver();
    let (out, counts) = match kind.name() {
        "agent" => {
            let mut sim = AgentSim::on_clique(protocol.clone(), config);
            (
                d.run(&mut sim, &mut rng, &mut NullObserver),
                sim.counts().to_vec(),
            )
        }
        "count" => {
            let mut sim = CountSim::new(protocol.clone(), config);
            (
                d.run(&mut sim, &mut rng, &mut NullObserver),
                sim.counts().to_vec(),
            )
        }
        "jump" => {
            let mut sim = JumpSim::new(protocol.clone(), config);
            (
                d.run(&mut sim, &mut rng, &mut NullObserver),
                sim.counts().to_vec(),
            )
        }
        "tau_leap" => {
            let mut sim = TauLeapSim::new(protocol.clone(), config);
            (
                d.run(&mut sim, &mut rng, &mut NullObserver),
                sim.counts().to_vec(),
            )
        }
        _ => {
            let mut sim = AdaptiveSim::new(protocol.clone(), config);
            (
                d.run(&mut sim, &mut rng, &mut NullObserver),
                sim.counts().to_vec(),
            )
        }
    };
    (out, counts, rng.next_u64())
}

/// As [`concrete_run`] through the erased seam.
fn erased_run<P: Protocol + Clone + 'static>(
    protocol: &P,
    config: Config,
    kind: EngineKind,
    scheduler: &SchedulerSpec,
    seed: u64,
) -> (RunOutcome, Vec<u64>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim =
        build_erased(protocol.clone(), config, kind, scheduler).expect("buildable scenario");
    let out = driver().run(sim.as_mut(), &mut rng, &mut NullObserver);
    (out, sim.counts().to_vec(), rng.next_u64())
}

#[test]
fn erased_matches_concrete_on_all_five_engines() {
    let protocol = Avc::new(7, 1).unwrap();
    let instance = MajorityInstance::with_margin(501, 0.05);
    for kind in EngineKind::CONCRETE {
        for seed in [0, 1, 42] {
            let config = Config::from_input(&protocol, instance.a(), instance.b());
            let concrete = concrete_run(&protocol, config.clone(), kind, seed);
            let erased = erased_run(&protocol, config, kind, &SchedulerSpec::Uniform, seed);
            assert_eq!(
                concrete, erased,
                "{kind} seed {seed}: erased dispatch diverged from concrete \
                 (outcome, trajectory, or RNG stream position)"
            );
        }
    }
}

#[test]
fn auto_engine_is_adaptive() {
    let protocol = FourState;
    let instance = MajorityInstance::one_extra(301);
    let config = Config::from_input(&protocol, instance.a(), instance.b());
    let auto = erased_run(
        &protocol,
        config.clone(),
        EngineKind::Auto,
        &SchedulerSpec::Uniform,
        9,
    );
    let adaptive = erased_run(
        &protocol,
        config,
        EngineKind::Adaptive,
        &SchedulerSpec::Uniform,
        9,
    );
    assert_eq!(auto, adaptive, "auto must resolve to the adaptive engine");
}

#[test]
fn erased_matches_concrete_under_biased_scheduler() {
    let protocol = FourState;
    let instance = MajorityInstance::with_margin(101, 0.2);
    let config = Config::from_input(&protocol, instance.a(), instance.b());
    let spec = SchedulerSpec::Biased { hot: 8, bias: 0.9 };

    let mut rng = SmallRng::seed_from_u64(5);
    let mut sim = AgentSim::with_scheduler(
        protocol,
        config.clone(),
        Graph::clique(config.population() as usize),
        BiasedPair::new(8, 0.9),
    );
    let out = driver().run(&mut sim, &mut rng, &mut NullObserver);
    let concrete = (out, sim.counts().to_vec(), rng.next_u64());

    let erased = erased_run(&protocol, config, EngineKind::Agent, &spec, 5);
    assert_eq!(
        concrete, erased,
        "biased-scheduler erased run diverged from concrete"
    );
}

#[test]
fn non_uniform_scheduler_rejects_batching_engines() {
    let protocol = FourState;
    let config = Config::from_input(&protocol, 6, 5);
    let err = build_erased(
        protocol,
        config,
        EngineKind::Jump,
        &SchedulerSpec::RestrictedStar,
    )
    .err()
    .expect("batching engines cannot honor per-agent schedules");
    assert!(err.contains("agent"), "{err}");
}

#[test]
fn faulted_erased_matches_faulted_concrete() {
    let protocol = FourState;
    let instance = MajorityInstance::one_extra(201);
    let config = Config::from_input(&protocol, instance.a(), instance.b());
    let events = vec![
        avc::population::faults::FaultEvent {
            at_step: 50,
            fault: Fault::Crash { agent: 3 },
        },
        avc::population::faults::FaultEvent {
            at_step: 900,
            fault: Fault::Revive { agent: 3 },
        },
    ];

    let mut rng = SmallRng::seed_from_u64(13);
    let mut sim = AgentSim::on_clique(protocol, config.clone());
    let mut plan = FaultPlan::from_events(events.clone());
    let out = driver().run_faulted(&mut sim, &mut rng, &mut NullObserver, &mut plan);
    let concrete = (out, sim.counts().to_vec(), rng.next_u64());

    let mut rng = SmallRng::seed_from_u64(13);
    let mut sim = build_erased(protocol, config, EngineKind::Agent, &SchedulerSpec::Uniform)
        .expect("buildable scenario");
    let mut plan = FaultPlan::from_events(events);
    let out = driver().run_faulted(sim.as_mut(), &mut rng, &mut NullObserver, &mut plan);
    let erased = (out, sim.counts().to_vec(), rng.next_u64());

    assert_eq!(
        concrete, erased,
        "faulted erased run diverged from concrete"
    );
}
