//! Fresh-equivalence of the trial-batch reuse seam.
//!
//! `Simulator::reset` promises that a reused engine replays exactly like a
//! freshly built one: identical outcomes, identical final configurations,
//! and — the sharp check — an identical RNG stream position afterwards (one
//! extra or missing draw would shift every later trial, and worker→trial
//! assignment races, so any divergence would make batch results
//! scheduling-dependent). These tests pin that contract across every
//! engine through the `Box<dyn Simulator>` the batch loop uses, for dirty
//! states both mid-run and post-consensus, for resets that change the
//! population (count-space engines), and for the stateful epoch-batched
//! scheduler.
//!
//! The same seam makes the steady-state trial loop allocate nothing: after
//! a worker's first trial, neither the engine, nor the driver, nor the
//! harness loop around them (`Batch::work`, which `Parallelism::Serial`
//! runs on the calling thread exactly as a pool worker runs it) allocates
//! per trial. The test binary's global allocator counts `alloc`,
//! `alloc_zeroed` and `realloc` calls on a thread only while that thread's
//! `COUNTING` flag is set, so tests running beside each other and
//! proptest's own bookkeeping never reach the count. Faulted trials are
//! out of scope: by design they rebuild their `FaultPlan`, and the agent
//! engine its per-agent fault overlay, every trial (DESIGN §2.3).

use avc::analysis::harness::{Parallelism, ScenarioPlan, StatsCollector};
use avc::population::cached::Cached;
use avc::population::driver::{Driver, NullObserver};
use avc::population::engine::Simulator;
use avc::population::scenario::{build_erased, build_erased_with_sink};
use avc::population::spec::RunOutcome;
use avc::population::telemetry::CountingSink;
use avc::population::{
    Config, ConvergenceRule, EngineKind, MajorityInstance, Protocol, ProtocolSpec, Scenario,
    SchedulerSpec,
};
use avc::protocols::{Avc, FourState, ThreeState};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const MAX_STEPS: u64 = 2_000_000;

fn driver() -> Driver {
    Driver::new(ConvergenceRule::OutputConsensus).with_max_steps(MAX_STEPS)
}

/// Drives `sim` to convergence and returns the outcome, the final counts,
/// and the RNG's next draw — the stream-position witness.
fn drive(sim: &mut dyn Simulator, seed: u64) -> (RunOutcome, Vec<u64>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let out = driver().run(sim, &mut rng, &mut NullObserver);
    (out, sim.counts().to_vec(), rng.next_u64())
}

/// The reference trial: a freshly built engine.
fn fresh_run<P: Protocol + Clone + 'static>(
    protocol: &P,
    config: &Config,
    engine: EngineKind,
    scheduler: &SchedulerSpec,
    seed: u64,
) -> (RunOutcome, Vec<u64>, u64) {
    let mut sim = build_erased(protocol.clone(), config.clone(), engine, scheduler)
        .expect("runnable combination");
    drive(sim.as_mut(), seed)
}

/// The reused trial: an engine dirtied by a full prior trial (different
/// config, different seed), then reset in place to `config`.
fn reset_run<P: Protocol + Clone + 'static>(
    protocol: &P,
    dirty: &Config,
    config: &Config,
    engine: EngineKind,
    scheduler: &SchedulerSpec,
    dirty_seed: u64,
    seed: u64,
) -> (RunOutcome, Vec<u64>, u64) {
    let mut sim = build_erased(protocol.clone(), dirty.clone(), engine, scheduler)
        .expect("runnable combination");
    let _ = drive(sim.as_mut(), dirty_seed);
    sim.reset(config);
    drive(sim.as_mut(), seed)
}

fn assert_fresh_equivalent(
    fresh: &(RunOutcome, Vec<u64>, u64),
    reused: &(RunOutcome, Vec<u64>, u64),
    context: &str,
) {
    assert_eq!(fresh.0, reused.0, "{context}: outcome diverged");
    assert_eq!(fresh.1, reused.1, "{context}: final counts diverged");
    assert_eq!(fresh.2, reused.2, "{context}: RNG stream position diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same-shape reuse (the batch loop's case: every trial of a cell runs
    /// the same config) is fresh-equivalent on every engine.
    #[test]
    fn reset_replays_like_fresh_same_config(
        a in 3u64..40,
        b in 1u64..40,
        dirty_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let config = Config::from_input(&FourState, a, b);
        for engine in EngineKind::CONCRETE {
            let fresh = fresh_run(&FourState, &config, engine, &SchedulerSpec::Uniform, seed);
            let reused = reset_run(
                &FourState, &config, &config, engine, &SchedulerSpec::Uniform, dirty_seed, seed,
            );
            assert_fresh_equivalent(&fresh, &reused, &format!("{engine:?} a={a} b={b}"));
        }
    }

    /// Count-space engines may be reset to a *different* population; the
    /// agent engine keeps its population (its graph is fixed), so it is
    /// reset across opinion splits of the same n.
    #[test]
    fn reset_replays_like_fresh_across_configs(
        a1 in 3u64..30, b1 in 1u64..30,
        a2 in 3u64..30, b2 in 1u64..30,
        dirty_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let avc = Avc::new(3, 2).expect("valid parameters");
        let dirty = Config::from_input(&avc, a1, b1);
        let config = Config::from_input(&avc, a2, b2);
        for engine in [EngineKind::Count, EngineKind::Jump, EngineKind::Adaptive] {
            let fresh = fresh_run(&avc, &config, engine, &SchedulerSpec::Uniform, seed);
            let reused = reset_run(
                &avc, &dirty, &config, engine, &SchedulerSpec::Uniform, dirty_seed, seed,
            );
            assert_fresh_equivalent(&fresh, &reused, &format!("{engine:?} avc"));
        }
        // Agent: same population, different split.
        let n = a1 + b1;
        let dirty = Config::from_input(&avc, a1, b1);
        let config = Config::from_input(&avc, n - 1, 1);
        let fresh = fresh_run(&avc, &config, EngineKind::Agent, &SchedulerSpec::Uniform, seed);
        let reused = reset_run(
            &avc, &dirty, &config, EngineKind::Agent, &SchedulerSpec::Uniform, dirty_seed, seed,
        );
        assert_fresh_equivalent(&fresh, &reused, "Agent avc resplit");
    }

    /// The stateful epoch-batched scheduler (a shuffled permutation plus a
    /// cursor) is rewound by reset, not merely re-seeded: a reused agent
    /// engine must not replay the stale epoch order.
    #[test]
    fn reset_rewinds_the_epoch_scheduler(
        a in 4u64..30, b in 1u64..30,
        dirty_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let spec = SchedulerSpec::Epoch;
        let config = Config::from_input(&ThreeState::new(), a, b);
        let fresh = fresh_run(&ThreeState::new(), &config, EngineKind::Agent, &spec, seed);
        let reused = reset_run(
            &ThreeState::new(), &config, &config, EngineKind::Agent, &spec, dirty_seed, seed,
        );
        assert_fresh_equivalent(&fresh, &reused, "Agent epoch");
    }
}

/// A reused engine stays fresh-equivalent across many consecutive resets —
/// the shape of a real worker's trial slice (one build, N trials).
#[test]
fn many_consecutive_resets_stay_fresh_equivalent() {
    let config = Config::from_input(&FourState, 23, 14);
    for engine in EngineKind::CONCRETE {
        let mut sim = build_erased(FourState, config.clone(), engine, &SchedulerSpec::Uniform)
            .expect("runnable combination");
        for trial in 0..8u64 {
            let seed = 1000 + trial;
            sim.reset(&config);
            let reused = drive(sim.as_mut(), seed);
            let fresh = fresh_run(&FourState, &config, engine, &SchedulerSpec::Uniform, seed);
            assert_fresh_equivalent(&fresh, &reused, &format!("{engine:?} trial {trial}"));
        }
    }
}

/// The test binary's allocator: [`System`], counting on threads that ask.
struct CountingAllocator;

thread_local! {
    /// Set while [`allocations`] runs its closure on this thread.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is counting. Both thread-locals are
/// `const`-initialised without a destructor, so reading them never
/// allocates.
fn count_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|counting| counting.set(true));
    f();
    COUNTING.with(|counting| counting.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// Step budget of the allocation cases: every uniform case converges
/// inside it, and the restricted schedules, which need not, stop at it.
const ALLOCATION_MAX_STEPS: u64 = 400_000;

/// Warm `reset` + run cycles counted per engine, after one warm-up trial.
const WARM_CYCLES: u64 = 32;

/// One fault-free case of the allocation contract.
struct AllocationCase {
    protocol: ProtocolSpec,
    n: u64,
    engine: EngineKind,
    scheduler: SchedulerSpec,
}

impl AllocationCase {
    fn name(&self) -> String {
        format!(
            "{}/{}/{} at n = {}",
            self.protocol, self.engine, self.scheduler, self.n
        )
    }

    /// The case as a scenario of `runs` trials, one-extra start.
    fn scenario(&self, runs: u64) -> Scenario {
        Scenario::new(self.protocol, MajorityInstance::one_extra(self.n))
            .engine(self.engine)
            .scheduler(self.scheduler)
            .max_steps(ALLOCATION_MAX_STEPS)
            .runs(runs)
            .seed(33)
    }
}

/// AVC at s = 1 026 states, the smallest whose table exceeds the `Cached`
/// bound, so its engines run the arithmetic transition.
const AVC_ARITHMETIC: ProtocolSpec = ProtocolSpec::Avc { m: 1_023, d: 1 };

/// four_state one-extra at n = 201 (where `auto` switches phase in every
/// trial) and AVC on its arithmetic path on every engine, then the agent
/// engine under each non-uniform scheduler.
fn allocation_cases() -> Vec<AllocationCase> {
    let uniform = [ProtocolSpec::FourState, AVC_ARITHMETIC]
        .into_iter()
        .flat_map(|protocol| {
            EngineKind::CONCRETE.map(|engine| AllocationCase {
                protocol,
                n: 201,
                engine,
                scheduler: SchedulerSpec::Uniform,
            })
        });
    let schedulers = [
        SchedulerSpec::Biased { hot: 4, bias: 0.5 },
        SchedulerSpec::Starved {
            laggards: 10,
            period: 16,
        },
        SchedulerSpec::Epoch,
        SchedulerSpec::RestrictedStar,
        SchedulerSpec::RestrictedCycle,
    ]
    .map(|scheduler| AllocationCase {
        protocol: ProtocolSpec::FourState,
        n: 41,
        engine: EngineKind::Agent,
        scheduler,
    });
    uniform.chain(schedulers).collect()
}

/// The allocations of [`WARM_CYCLES`] `reset` + [`Driver::run`] cycles,
/// after one warm-up trial, on the engine the harness builds for `case`:
/// through `build_erased_with_sink` with an owned [`CountingSink`].
fn warm_cycle_allocations<P: Protocol + Clone + 'static>(
    protocol: P,
    case: &AllocationCase,
) -> u64 {
    let instance = MajorityInstance::one_extra(case.n);
    let config = Config::from_input(&protocol, instance.a(), instance.b());
    let mut sim = build_erased_with_sink(
        protocol,
        config.clone(),
        case.engine,
        &case.scheduler,
        CountingSink::new(),
    )
    .expect("runnable combination");
    let driver = Driver::new(ConvergenceRule::OutputConsensus).with_max_steps(ALLOCATION_MAX_STEPS);
    let mut trial = |seed: u64| {
        sim.reset(&config);
        let mut rng = SmallRng::seed_from_u64(seed);
        driver.run(sim.as_mut(), &mut rng, &mut NullObserver);
    };
    trial(0);
    allocations(|| (1..=WARM_CYCLES).for_each(&mut trial))
}

#[test]
fn warm_engines_allocate_nothing_per_trial() {
    let mut failures = Vec::new();
    for case in allocation_cases() {
        let made = match case.protocol {
            ProtocolSpec::FourState => warm_cycle_allocations(Cached::new(FourState), &case),
            ProtocolSpec::Avc { m, d } => {
                let avc = Avc::new(m, d).expect("valid parameters");
                let avc = Cached::try_new(avc).expect_err("s = 1026 is above the table bound");
                warm_cycle_allocations(avc, &case)
            }
            other => unreachable!("no allocation case runs {other}"),
        };
        if made > 0 {
            failures.push(format!("{}: {made} allocations", case.name()));
        }
    }
    assert!(
        failures.is_empty(),
        "{WARM_CYCLES} warm reset + run cycles allocated: {}",
        failures.join("; ")
    );
}

#[test]
fn serial_batches_allocate_nothing_per_extra_trial() {
    const RUNS: u64 = 16;
    let mut failures = Vec::new();
    for case in allocation_cases() {
        let made = |runs: u64| {
            let plan = ScenarioPlan::new(case.scenario(runs)).parallelism(Parallelism::Serial);
            let stats = StatsCollector::new();
            allocations(|| drop(plan.run_with_telemetry(&stats)))
        };
        let (at_r, at_2r) = (made(RUNS), made(2 * RUNS));
        if at_2r > at_r + 2 {
            failures.push(format!(
                "{}: {at_r} allocations at {RUNS} runs, {at_2r} at {}",
                case.name(),
                2 * RUNS
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "doubling a serial batch's runs added more than two allocations: {}",
        failures.join("; ")
    );
}
