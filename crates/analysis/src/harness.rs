//! Seeded multi-trial experiment runners.
//!
//! # Parallel determinism
//!
//! Batches run under a [`Parallelism`] knob (`Serial | Threads(n) | Auto`).
//! Every trial draws its RNG from its own [`SeedSequence`] stream, keyed by
//! the trial index alone, so a trial's outcome does not depend on which
//! worker ran it or in what order. Workers pull indices from a shared atomic
//! counter and results are scattered back by index, making the full
//! [`TrialResults`] — and therefore every [`Summary`] derived from it —
//! **bit-identical to a serial run for any worker count and any
//! scheduling**. `tests/parallel_determinism.rs` enforces this.

use crate::stats::{fraction, Summary};
use avc_population::cached::Cached;
use avc_population::driver::{Driver, NullObserver, Observer};
use avc_population::engine::ChunkedSimulator;
use avc_population::faults::{FaultEvent, FaultPlan};
use avc_population::rngutil::SeedSequence;
use avc_population::scenario::{build_erased, build_erased_with_sink};
use avc_population::spec::RunOutcome;
use avc_population::telemetry::{
    keys, CellTelemetry, CountingSink, HistogramSnapshot, MetricValue, Span, TelemetryObserver,
};
use avc_population::{
    Config, ConvergenceRule, MajorityInstance, Opinion, Protocol, ProtocolSpec, Scenario,
    SchedulerSpec,
};
use avc_protocols::{Avc, Bef, Degssu, FourState, ThreeState, Voter};
use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How to spread a batch of trials across OS threads.
///
/// Regardless of the choice, trial `i` always consumes seed stream `i`, so
/// the knob changes wall-clock time only — never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Run every trial on the calling thread.
    Serial,
    /// Shard across exactly `n` worker threads (`n ≥ 1`).
    Threads(usize),
    /// Shard across [`std::thread::available_parallelism`] workers.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of workers this setting resolves to on this machine.
    ///
    /// # Panics
    ///
    /// Panics on `Threads(0)`.
    #[must_use]
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => {
                assert!(n >= 1, "Threads(0) would have no workers");
                n
            }
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Throughput telemetry for one or more trial batches.
///
/// Wall-clock only — parallel workers race, so none of these numbers feed
/// back into results. Batches accumulate with [`BatchStats::absorb`].
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Trials completed.
    pub trials: u64,
    /// Scheduler events (interaction steps, including skipped null steps)
    /// simulated across all trials.
    pub events: u64,
    /// Wall-clock time, summed over batches.
    pub wall: Duration,
    /// Trials completed by each worker (indexed by worker).
    pub worker_trials: Vec<u64>,
    /// Events simulated by each worker.
    pub worker_events: Vec<u64>,
    /// Busy time of each worker (its loop duration, not the batch wall).
    pub worker_busy: Vec<Duration>,
}

impl BatchStats {
    /// Events simulated per wall-clock second (0 if no time elapsed).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// Per-worker utilization: busy time as a fraction of the wall clock.
    #[must_use]
    pub fn utilization(&self) -> Vec<f64> {
        let secs = self.wall.as_secs_f64();
        self.worker_busy
            .iter()
            .map(|b| {
                if secs > 0.0 {
                    b.as_secs_f64() / secs
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Accumulates another batch into this one (summing per-worker vectors
    /// element-wise, extending if the other batch used more workers).
    pub fn absorb(&mut self, other: &BatchStats) {
        self.trials += other.trials;
        self.events += other.events;
        self.wall += other.wall;
        grow_to(&mut self.worker_trials, other.worker_trials.len(), 0);
        grow_to(&mut self.worker_events, other.worker_events.len(), 0);
        grow_to(
            &mut self.worker_busy,
            other.worker_busy.len(),
            Duration::ZERO,
        );
        for (mine, theirs) in self.worker_trials.iter_mut().zip(&other.worker_trials) {
            *mine += theirs;
        }
        for (mine, theirs) in self.worker_events.iter_mut().zip(&other.worker_events) {
            *mine += theirs;
        }
        for (mine, theirs) in self.worker_busy.iter_mut().zip(&other.worker_busy) {
            *mine += *theirs;
        }
    }
}

fn grow_to<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials, {} events in {:.2?} ({:.3e} events/s)",
            self.trials,
            self.events,
            self.wall,
            self.events_per_sec()
        )?;
        if self.worker_busy.len() > 1 {
            write!(f, "; worker utilization")?;
            for u in self.utilization() {
                write!(f, " {:.0}%", u * 100.0)?;
            }
        }
        Ok(())
    }
}

/// A thread-safe accumulator of [`BatchStats`] across experiment cells —
/// the observability hook the CLI binaries print — and the sweep's dense
/// table slot.
///
/// With [`StatsCollector::verbose`], each recorded batch also emits a
/// progress line to stderr (trials completed so far and the running event
/// rate), which is cheap enough to leave on for long sweeps.
///
/// Every cell of a sweep receives the same collector, so it also keeps the
/// last [`Cached`] table [`ScenarioPlan`] built, keyed by the
/// [`ProtocolSpec`] it came from: consecutive cells on one protocol (fig4's
/// ten margins per state count) share one build. A collector holds at most
/// one table; it lives exactly as long as the collector.
#[derive(Debug, Default)]
pub struct StatsCollector {
    totals: Mutex<BatchStats>,
    verbose: bool,
    table: TableSlot,
}

/// The one dense table a [`StatsCollector`] keeps between cells, with the
/// spec it was built from. Type-erased because each spec resolves to its
/// own protocol type.
#[derive(Default)]
struct TableSlot(Mutex<Option<(ProtocolSpec, Arc<dyn Any + Send + Sync>)>>);

impl fmt::Debug for TableSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = self
            .0
            .lock()
            .ok()
            .and_then(|slot| slot.as_ref().map(|e| e.0));
        f.debug_tuple("TableSlot").field(&key).finish()
    }
}

impl StatsCollector {
    /// A quiet collector.
    #[must_use]
    pub fn new() -> StatsCollector {
        StatsCollector::default()
    }

    /// A collector that prints a progress line per recorded batch.
    #[must_use]
    pub fn verbose() -> StatsCollector {
        StatsCollector {
            verbose: true,
            ..StatsCollector::default()
        }
    }

    /// The dense table of `protocol`, which `spec` names, plus the wall
    /// nanoseconds spent building it (0 when reused).
    ///
    /// A slot holding `spec` hands out its table. Otherwise the old table is
    /// dropped *before* the new one is built (rows split across `workers`),
    /// so at most one is ever alive, and the new one takes the slot. Above
    /// the table bound the slot is left empty and `None` returned.
    fn dense_table<P>(
        &self,
        spec: ProtocolSpec,
        protocol: &P,
        workers: usize,
    ) -> (Option<Arc<Cached<P>>>, u64)
    where
        P: Protocol + Clone + Send + Sync + 'static,
    {
        let mut slot = self.table.0.lock().expect("table slot lock poisoned");
        if let Some((key, table)) = slot.as_ref() {
            if *key == spec {
                let table = Arc::clone(table)
                    .downcast::<Cached<P>>()
                    .expect("a spec always resolves to the same protocol type");
                return (Some(table), 0);
            }
        }
        *slot = None;
        let started = Span::start();
        let Ok(table) = Cached::try_new_with_workers(protocol.clone(), workers) else {
            return (None, 0);
        };
        let table = Arc::new(table);
        let build_ns = started.elapsed_ns();
        *slot = Some((spec, Arc::clone(&table) as Arc<dyn Any + Send + Sync>));
        (Some(table), build_ns)
    }

    /// Folds one batch into the running totals.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a worker panicked).
    pub fn record(&self, batch: &BatchStats) {
        let mut totals = self.totals.lock().expect("stats lock poisoned");
        totals.absorb(batch);
        if self.verbose {
            eprintln!("[progress] {totals}");
        }
    }

    /// A copy of the accumulated totals.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a worker panicked).
    #[must_use]
    pub fn snapshot(&self) -> BatchStats {
        self.totals.lock().expect("stats lock poisoned").clone()
    }
}

/// Evaluates `task(i)` for `i ∈ 0..runs` under the given [`Parallelism`] and
/// returns the results in index order.
///
/// The output is identical for every parallelism setting; only wall-clock
/// time differs. `task` must therefore derive any randomness it needs from
/// the index alone (e.g. via [`SeedSequence::rng_for`]).
pub fn run_indexed<T, F>(runs: u64, parallelism: Parallelism, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    run_indexed_with_stats(runs, parallelism, |i| (task(i), 0)).0
}

/// As [`run_indexed`], but `task` also reports an event count per trial and
/// the call returns throughput telemetry alongside the results.
///
/// # Panics
///
/// Panics if a worker thread panics, propagating the failure.
pub fn run_indexed_with_stats<T, F>(
    runs: u64,
    parallelism: Parallelism,
    task: F,
) -> (Vec<T>, BatchStats)
where
    T: Send,
    F: Fn(u64) -> (T, u64) + Sync,
{
    run_indexed_with_ctx(runs, parallelism, || (), |(), i| task(i))
}

/// As [`run_indexed_with_stats`], but every worker lazily builds one
/// private context with `init` and threads it through each trial it claims
/// — the reuse seam behind zero-reallocation trial batches
/// ([`reset_erased`](avc_population::engine::ErasedChunkedSim::reset_erased) reinitializes a long-lived engine in
/// place between trials).
///
/// The context never crosses threads (workers are scoped and results travel
/// home without it), so `C` needs neither `Send` nor `Sync`. Determinism is
/// unaffected: trial `i` must still derive all randomness from its index
/// alone, and a correct context carries no trial-to-trial state — worker
/// assignment races, so anything leaking through the context would make
/// results scheduling-dependent.
///
/// # Panics
///
/// Panics if a worker thread panics, propagating the failure.
pub fn run_indexed_with_ctx<T, C, I, F>(
    runs: u64,
    parallelism: Parallelism,
    init: I,
    task: F,
) -> (Vec<T>, BatchStats)
where
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, u64) -> (T, u64) + Sync,
{
    let workers = parallelism.worker_count().min(runs.max(1) as usize);
    let started = Span::start();

    if workers <= 1 {
        let mut out = Vec::with_capacity(runs as usize);
        let mut events = 0u64;
        let mut ctx: Option<C> = None;
        for i in 0..runs {
            let (value, e) = task(ctx.get_or_insert_with(&init), i);
            events += e;
            out.push(value);
        }
        let busy = started.elapsed();
        let stats = BatchStats {
            trials: runs,
            events,
            wall: busy,
            worker_trials: vec![runs],
            worker_events: vec![events],
            worker_busy: vec![busy],
        };
        return (out, stats);
    }

    // Dynamic sharding: workers pull the next unclaimed trial index from a
    // shared counter (so stragglers never idle the rest), and results carry
    // their index home for an order-restoring scatter below.
    type WorkerYield<T> = (Vec<(u64, T)>, u64, Duration);
    let next = AtomicU64::new(0);
    let per_worker: Vec<WorkerYield<T>> = std::thread::scope(|scope| {
        let next = &next;
        let init = &init;
        let task = &task;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let begun = Span::start();
                    let mut local = Vec::new();
                    let mut events = 0u64;
                    // Lazy so a worker that never claims a trial (possible
                    // under dynamic sharding) never pays for a context.
                    let mut ctx: Option<C> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= runs {
                            break;
                        }
                        let (value, e) = task(ctx.get_or_insert_with(init), i);
                        events += e;
                        local.push((i, value));
                    }
                    (local, events, begun.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial worker panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let mut stats = BatchStats {
        trials: runs,
        events: 0,
        wall,
        worker_trials: Vec::with_capacity(workers),
        worker_events: Vec::with_capacity(workers),
        worker_busy: Vec::with_capacity(workers),
    };
    let mut slots: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    for (local, events, busy) in per_worker {
        stats.worker_trials.push(local.len() as u64);
        stats.worker_events.push(events);
        stats.worker_busy.push(busy);
        stats.events += events;
        for (i, value) in local {
            debug_assert!(slots[i as usize].is_none(), "trial {i} ran twice");
            slots[i as usize] = Some(value);
        }
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every trial index is claimed by exactly one worker"))
        .collect();
    (out, stats)
}

pub use avc_population::scenario::EngineKind;

/// A batch of trials on one majority instance.
///
/// Built with a fluent API; see the [crate-level example](crate).
#[derive(Debug, Clone, Copy)]
pub struct TrialPlan {
    instance: MajorityInstance,
    runs: u64,
    seed: u64,
    max_steps: u64,
    parallelism: Parallelism,
}

impl TrialPlan {
    /// A plan with the paper's defaults: 101 runs, unlimited steps, seed 0,
    /// automatic parallelism (results are identical at any setting).
    #[must_use]
    pub fn new(instance: MajorityInstance) -> TrialPlan {
        TrialPlan {
            instance,
            runs: 101,
            seed: 0,
            max_steps: u64::MAX,
            parallelism: Parallelism::default(),
        }
    }

    /// Sets the number of independent runs.
    #[must_use]
    pub fn runs(mut self, runs: u64) -> TrialPlan {
        self.runs = runs;
        self
    }

    /// Sets the master seed; trial `i` uses stream `i` of the derived
    /// [`SeedSequence`], so results are independent of execution order.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> TrialPlan {
        self.seed = seed;
        self
    }

    /// Caps each run at `max_steps` scheduler steps.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> TrialPlan {
        self.max_steps = max_steps;
        self
    }

    /// Sets how trials are spread across threads. Outcomes are bit-identical
    /// for every setting; only the wall-clock time changes.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> TrialPlan {
        self.parallelism = parallelism;
        self
    }

    /// The majority instance under test.
    #[must_use]
    pub fn instance(&self) -> MajorityInstance {
        self.instance
    }
}

/// Outcomes of a batch of trials, with the instance's expected winner.
#[derive(Debug, Clone)]
pub struct TrialResults {
    outcomes: Vec<RunOutcome>,
    expected: Option<Opinion>,
}

impl TrialResults {
    /// The raw per-run outcomes.
    #[must_use]
    pub fn outcomes(&self) -> &[RunOutcome] {
        &self.outcomes
    }

    /// Mean parallel convergence time over runs that converged.
    ///
    /// # Panics
    ///
    /// Panics if no run converged.
    #[must_use]
    pub fn mean_parallel_time(&self) -> f64 {
        self.summary().mean
    }

    /// Summary statistics of parallel convergence time over converged runs.
    ///
    /// # Panics
    ///
    /// Panics if no run converged.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let times: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.verdict.is_consensus())
            .map(|o| o.parallel_time)
            .collect();
        Summary::from_samples(&times)
    }

    /// Fraction of runs that converged to the *wrong* opinion (the paper's
    /// "fraction of runs to error final state", Figure 3 right).
    ///
    /// Runs that did not converge count as errors; ties have no wrong
    /// answer, so the fraction is 0 for tied instances.
    #[must_use]
    pub fn error_fraction(&self) -> f64 {
        let Some(expected) = self.expected else {
            return 0.0;
        };
        fraction(&self.outcomes, |o| !o.verdict.is_correct(expected))
    }

    /// Fraction of runs that converged (to either opinion).
    #[must_use]
    pub fn convergence_fraction(&self) -> f64 {
        fraction(&self.outcomes, |o| o.verdict.is_consensus())
    }

    /// Parallel convergence times of the runs that converged.
    #[must_use]
    pub fn converged_times(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_consensus())
            .map(|o| o.parallel_time)
            .collect()
    }
}

/// Runs one simulation to convergence on the chosen engine.
///
/// Goes through [`Driver::run`] with the concrete `SmallRng`, so every
/// engine executes its fully monomorphized chunk loop — the trial hot path
/// has no per-step dynamic dispatch. Protocols whose state space fits under
/// [`Cached::MAX_TABLE_ENTRIES`](avc_population::cached::MAX_TABLE_ENTRIES)
/// are wrapped in a [`Cached`] dense transition table before the engine is
/// built; larger ones keep the arithmetic path. The wrap changes no RNG
/// draws and no results — only per-step cost.
pub fn run_one<P: Protocol + Clone>(
    protocol: &P,
    config: Config,
    engine: EngineKind,
    rule: ConvergenceRule,
    rng: &mut rand::rngs::SmallRng,
    max_steps: u64,
) -> RunOutcome {
    run_one_observed(
        protocol,
        config,
        engine,
        rule,
        rng,
        max_steps,
        &mut NullObserver,
    )
}

/// As [`run_one`], but feeding driver progress to `observer`.
pub fn run_one_observed<P: Protocol + Clone, O: Observer + ?Sized>(
    protocol: &P,
    config: Config,
    engine: EngineKind,
    rule: ConvergenceRule,
    rng: &mut rand::rngs::SmallRng,
    max_steps: u64,
    observer: &mut O,
) -> RunOutcome {
    match Cached::try_new(protocol.clone()) {
        Ok(cached) => run_engine_observed(&cached, config, engine, rule, rng, max_steps, observer),
        Err(plain) => run_engine_observed(&plain, config, engine, rule, rng, max_steps, observer),
    }
}

/// Everything a batch loop needs beyond the protocol value: a [`Scenario`]'s
/// execution fields plus the [`Parallelism`] knob (which is deliberately
/// *not* part of a scenario — it never affects results).
///
/// Both [`TrialPlan`] entry points and [`ScenarioPlan`] lower to this, so
/// there is exactly one batch loop and one seeding policy in the workspace.
struct BatchSpec<'s> {
    instance: MajorityInstance,
    engine: EngineKind,
    scheduler: &'s SchedulerSpec,
    faults: &'s [FaultEvent],
    rule: ConvergenceRule,
    max_steps: u64,
    runs: u64,
    seed: u64,
    seed_child: Option<u64>,
    parallelism: Parallelism,
}

impl<'s> BatchSpec<'s> {
    /// A plain uniform-scheduler, fault-free batch — the [`TrialPlan`]
    /// semantics, unchanged byte for byte.
    fn from_plan(
        plan: &TrialPlan,
        engine: EngineKind,
        rule: ConvergenceRule,
    ) -> BatchSpec<'static> {
        BatchSpec {
            instance: plan.instance,
            engine,
            scheduler: &SchedulerSpec::Uniform,
            faults: &[],
            rule,
            max_steps: plan.max_steps,
            runs: plan.runs,
            seed: plan.seed,
            seed_child: None,
            parallelism: plan.parallelism,
        }
    }

    fn from_scenario(scenario: &'s Scenario, parallelism: Parallelism) -> BatchSpec<'s> {
        BatchSpec {
            instance: scenario.instance,
            engine: scenario.engine,
            scheduler: &scenario.scheduler,
            faults: &scenario.faults,
            rule: scenario.rule,
            max_steps: scenario.max_steps,
            runs: scenario.runs,
            seed: scenario.seed,
            seed_child: scenario.seed_child,
            parallelism,
        }
    }

    /// The trial seed streams: the master sequence, or one of its child
    /// families when the scenario routes through `seed_child` (grid sweeps
    /// give each cell its own family this way).
    fn seeds(&self) -> SeedSequence {
        match self.seed_child {
            Some(child) => SeedSequence::new(self.seed).child(child),
            None => SeedSequence::new(self.seed),
        }
    }

    /// Threads that fill a dense table for `states` states: the batch's
    /// workers, except that small tables stay on the calling thread.
    fn table_workers(&self, states: u32) -> usize {
        if u64::from(states).pow(2) < PARALLEL_TABLE_MIN_ENTRIES {
            1
        } else {
            self.parallelism.worker_count()
        }
    }

    /// A batch-private dense table and its build nanoseconds, for the
    /// [`TrialPlan`] entry points, which have no spec to key a slot by.
    fn own_table<P: Protocol + Clone + Sync>(&self, protocol: &P) -> (Result<Cached<P>, P>, u64) {
        let started = Span::start();
        let workers = self.table_workers(protocol.num_states());
        let table = Cached::try_new_with_workers(protocol.clone(), workers);
        let build_ns = table.as_ref().map_or(0, |_| started.elapsed_ns());
        (table, build_ns)
    }
}

/// Dense tables with fewer entries than this fill on the calling thread:
/// spawning a worker would cost more than the whole fill.
const PARALLEL_TABLE_MIN_ENTRIES: u64 = 1 << 16;

/// A batch's protocol after table dispatch: the shared dense table, or the
/// arithmetic protocol above the table bound.
type Dispatch<'p, P> = Result<&'p Cached<P>, &'p P>;

/// The arithmetic protocol behind a [`Dispatch`].
fn dispatched_protocol<P: Protocol>(dispatch: Dispatch<'_, P>) -> &P {
    match dispatch {
        Ok(cached) => cached.inner(),
        Err(plain) => plain,
    }
}

/// Builds the spec's engine over an already-dispatched protocol (cached or
/// arithmetic) through the [`build_erased_with_sink`] seam and drives one
/// trial to convergence, with a [`CountingSink`] attached to the engine's
/// telemetry seam. `protocol` is taken by value so batch callers can pass a
/// `&Cached<P>` — engines over a shared reference reuse one table across
/// every trial of a batch. The sink is borrowed, so the caller keeps the
/// counts after the engine is dropped. Attaching it changes no RNG draws —
/// the seam records only quantities the engine already computes. Fault-free
/// specs run [`Driver::run_erased`]; faulted ones rebuild the per-trial
/// [`FaultPlan`] (cheap: a sort of a handful of events) and run
/// [`Driver::run_faulted_erased`].
fn run_spec_trial_instrumented<P: Protocol + Clone, O: Observer + ?Sized>(
    protocol: P,
    config: Config,
    spec: &BatchSpec<'_>,
    rng: &mut rand::rngs::SmallRng,
    observer: &mut O,
    sink: &mut CountingSink,
) -> RunOutcome {
    let driver = Driver::new(spec.rule).with_max_steps(spec.max_steps);
    let mut sim = build_erased_with_sink(protocol, config, spec.engine, spec.scheduler, sink)
        .unwrap_or_else(|e| panic!("unrunnable scenario: {e}"));
    if spec.faults.is_empty() {
        driver.run_erased(sim.as_mut(), rng, observer)
    } else {
        let mut faults = FaultPlan::from_events(spec.faults.to_vec());
        driver.run_faulted_erased(sim.as_mut(), rng, observer, &mut faults)
    }
}

/// Builds the chosen engine over an already-dispatched protocol and drives
/// it to convergence — the uniform-scheduler, fault-free special case of
/// [`run_spec_trial`] for the single-run entry points.
fn run_engine_observed<P: Protocol + Clone, O: Observer + ?Sized>(
    protocol: P,
    config: Config,
    engine: EngineKind,
    rule: ConvergenceRule,
    rng: &mut rand::rngs::SmallRng,
    max_steps: u64,
    observer: &mut O,
) -> RunOutcome {
    let mut sim = build_erased(protocol, config, engine, &SchedulerSpec::Uniform)
        .expect("the uniform scheduler is valid for every engine");
    Driver::new(rule)
        .with_max_steps(max_steps)
        .run_erased(sim.as_mut(), rng, observer)
}

/// Runs an already-constructed engine to convergence on the monomorphized
/// driver path (convenience for callers that build their own simulator,
/// e.g. on a non-clique graph).
pub fn drive_to_consensus<S: ChunkedSimulator + ?Sized>(
    sim: &mut S,
    rule: ConvergenceRule,
    rng: &mut rand::rngs::SmallRng,
    max_steps: u64,
) -> RunOutcome {
    Driver::new(rule)
        .with_max_steps(max_steps)
        .run(sim, rng, &mut NullObserver)
}

/// Runs a batch of independent trials of `protocol` on the plan's instance.
///
/// Trial `i` is seeded from stream `i` of `SeedSequence::new(plan.seed)`,
/// making every batch reproducible run-for-run — including across
/// [`Parallelism`] settings, which affect wall-clock time only.
pub fn run_trials<P: Protocol + Clone + Sync>(
    protocol: &P,
    plan: &TrialPlan,
    engine: EngineKind,
    rule: ConvergenceRule,
) -> TrialResults {
    run_trials_core(protocol, plan, engine, rule).0
}

/// As [`run_trials`], folding the batch's throughput telemetry into `stats`.
pub fn run_trials_with_stats<P: Protocol + Clone + Sync>(
    protocol: &P,
    plan: &TrialPlan,
    engine: EngineKind,
    rule: ConvergenceRule,
    stats: &StatsCollector,
) -> TrialResults {
    let (results, batch) = run_trials_core(protocol, plan, engine, rule);
    stats.record(&batch);
    results
}

/// As [`run_trials_with_stats`], additionally capturing per-trial telemetry
/// and returning it aggregated into one [`CellTelemetry`].
///
/// Each trial runs with a [`CountingSink`] on the engine's telemetry seam
/// (engine-level counters: steps, events, silent steps, chunk sizes,
/// Fenwick descents, phase switches) and a [`TelemetryObserver`] on the
/// driver's observer seam (wall-clock chunk latency). Convergence outcomes
/// are folded in from the [`RunOutcome`]s. Per-trial snapshots are merged
/// **in trial-index order after the batch completes**, so the `sim` half of
/// the result is bit-identical at every [`Parallelism`] setting — the same
/// guarantee [`TrialResults`] carries. The `wall` half (per-trial and
/// per-chunk latencies, whole-cell wall time) is nondeterministic by
/// nature and kept in the separate registry that exports can suppress.
///
/// The observer's deterministic half is deliberately discarded: its chunk
/// histogram duplicates the sink's (both see the same `advance_chunk`
/// reports), and double-counting would corrupt the merge.
pub fn run_trials_with_telemetry<P: Protocol + Clone + Sync>(
    protocol: &P,
    plan: &TrialPlan,
    engine: EngineKind,
    rule: ConvergenceRule,
    stats: &StatsCollector,
) -> (TrialResults, CellTelemetry) {
    let spec = BatchSpec::from_plan(plan, engine, rule);
    let (table, build_ns) = spec.own_table(protocol);
    run_batch_with_telemetry(table.as_ref(), build_ns, &spec, stats)
}

/// The one instrumented batch loop behind [`run_trials_with_telemetry`] and
/// [`ScenarioPlan::run_with_telemetry`]; `build_ns` is what the caller
/// spent building `dispatch`'s table (recorded as
/// [`keys::WALL_TABLE_BUILD_NS`]).
fn run_batch_with_telemetry<P: Protocol + Clone + Sync>(
    dispatch: Dispatch<'_, P>,
    build_ns: u64,
    spec: &BatchSpec<'_>,
    stats: &StatsCollector,
) -> (TrialResults, CellTelemetry) {
    let seeds = spec.seeds();
    let instance = spec.instance;
    let protocol = dispatched_protocol(dispatch);
    let (pairs, batch) = run_indexed_with_stats(spec.runs, spec.parallelism, |trial| {
        let trial_span = Span::start();
        let mut rng = seeds.rng_for(trial);
        let config = Config::from_input(protocol, instance.a(), instance.b());
        let mut sink = CountingSink::new();
        let mut observer = TelemetryObserver::new();
        let outcome = match dispatch {
            Ok(cached) => run_spec_trial_instrumented(
                cached,
                config,
                spec,
                &mut rng,
                &mut observer,
                &mut sink,
            ),
            Err(plain) => {
                run_spec_trial_instrumented(plain, config, spec, &mut rng, &mut observer, &mut sink)
            }
        };
        let mut cell = CellTelemetry::new();
        cell.sim = sink.snapshot();
        let mut convergence = HistogramSnapshot::new();
        if outcome.verdict.is_consensus() {
            convergence.record(outcome.steps);
        }
        cell.sim.set(
            keys::SIM_CONVERGENCE_STEPS,
            MetricValue::Histogram(convergence),
        );
        cell.sim.set(keys::SIM_TRIALS, MetricValue::Counter(1));
        cell.sim.set(
            keys::SIM_TRIALS_CONVERGED,
            MetricValue::Counter(u64::from(outcome.verdict.is_consensus())),
        );
        cell.wall = observer.wall_snapshot();
        let mut trial_ns = HistogramSnapshot::new();
        trial_ns.record(trial_span.elapsed_ns());
        cell.wall
            .set(keys::WALL_TRIAL_NS, MetricValue::Histogram(trial_ns));
        let steps = outcome.steps;
        ((outcome, cell), steps)
    });
    let mut telemetry = CellTelemetry::new();
    let mut outcomes = Vec::with_capacity(pairs.len());
    for (outcome, cell) in pairs {
        telemetry.merge(&cell);
        outcomes.push(outcome);
    }
    telemetry.wall.set(
        keys::WALL_CELL_NS,
        MetricValue::Counter(u64::try_from(batch.wall.as_nanos()).unwrap_or(u64::MAX)),
    );
    telemetry
        .wall
        .set(keys::WALL_TABLE_BUILD_NS, MetricValue::Counter(build_ns));
    stats.record(&batch);
    let results = TrialResults {
        outcomes,
        expected: instance.winner(),
    };
    (results, telemetry)
}

fn run_trials_core<P: Protocol + Clone + Sync>(
    protocol: &P,
    plan: &TrialPlan,
    engine: EngineKind,
    rule: ConvergenceRule,
) -> (TrialResults, BatchStats) {
    let spec = BatchSpec::from_plan(plan, engine, rule);
    run_batch_core(spec.own_table(protocol).0.as_ref(), &spec)
}

/// The one uninstrumented batch loop behind [`run_trials`] and
/// [`ScenarioPlan::run`].
///
/// Each worker builds the spec's engine **once** through the
/// [`build_erased`] seam and replays every trial it claims through it,
/// reinitializing in place with [`reset_erased`](avc_population::engine::ErasedChunkedSim::reset_erased) between
/// trials. Reset is fresh-equivalent (`tests/reuse_reset.rs` pins outcomes
/// *and* RNG stream position), so results are bit-identical to per-trial
/// construction at every [`Parallelism`] setting — only the per-trial
/// allocator traffic disappears. The instrumented loop
/// ([`run_batch_with_telemetry`]) keeps per-trial construction: its
/// engines borrow a per-trial [`CountingSink`], which cannot outlive one
/// trial, and telemetry batches are not on the sweep hot path.
fn run_batch_core<P: Protocol + Clone + Sync>(
    dispatch: Dispatch<'_, P>,
    spec: &BatchSpec<'_>,
) -> (TrialResults, BatchStats) {
    let seeds = spec.seeds();
    let instance = spec.instance;
    let protocol = dispatched_protocol(dispatch);
    let driver = Driver::new(spec.rule).with_max_steps(spec.max_steps);
    let build = || {
        let config = Config::from_input(protocol, instance.a(), instance.b());
        let sim = match dispatch {
            Ok(cached) => build_erased(cached, config.clone(), spec.engine, spec.scheduler),
            Err(plain) => build_erased(plain, config.clone(), spec.engine, spec.scheduler),
        }
        .unwrap_or_else(|e| panic!("unrunnable scenario: {e}"));
        (sim, config)
    };
    let (outcomes, batch) =
        run_indexed_with_ctx(spec.runs, spec.parallelism, build, |ctx, trial| {
            let (sim, config) = ctx;
            let mut rng = seeds.rng_for(trial);
            // A freshly built engine is already in this state; resetting it
            // anyway keeps one uniform per-trial path.
            sim.reset_erased(config);
            let outcome = if spec.faults.is_empty() {
                driver.run_erased(sim.as_mut(), &mut rng, &mut NullObserver)
            } else {
                let mut faults = FaultPlan::from_events(spec.faults.to_vec());
                driver.run_faulted_erased(sim.as_mut(), &mut rng, &mut NullObserver, &mut faults)
            };
            (outcome, outcome.steps)
        });
    let results = TrialResults {
        outcomes,
        expected: instance.winner(),
    };
    (results, batch)
}

/// Resolves a [`ProtocolSpec`] to a concrete protocol value and runs `$body`
/// with it bound to `$protocol` — the spec-to-instance mapping the scenario
/// plane leaves to this crate (`avc-population` cannot depend on
/// `avc-protocols`).
macro_rules! with_resolved_protocol {
    ($spec:expr, |$protocol:ident| $body:expr) => {
        match $spec {
            ProtocolSpec::Avc { m, d } => {
                let $protocol = Avc::new(m, d).expect("scenario names a valid AVC instance");
                $body
            }
            ProtocolSpec::Bef { levels } => {
                let $protocol = Bef::new(levels).expect("scenario names a valid BEF instance");
                $body
            }
            ProtocolSpec::Degssu { levels, phase } => {
                let $protocol =
                    Degssu::new(levels, phase).expect("scenario names a valid DEGSSU instance");
                $body
            }
            ProtocolSpec::FourState => {
                let $protocol = FourState;
                $body
            }
            ProtocolSpec::ThreeState => {
                let $protocol = ThreeState::new();
                $body
            }
            ProtocolSpec::Voter => {
                let $protocol = Voter;
                $body
            }
        }
    };
}

/// Number of states of the protocol a [`ProtocolSpec`] names, resolved
/// through the real constructor (not the spec's arithmetic
/// [`ProtocolSpec::state_count`] formula) — the sweep tables' state-count
/// accounting goes through here so the two can be cross-checked.
///
/// # Panics
///
/// Panics on parameters the constructors reject; validate the spec first.
#[must_use]
pub fn spec_states(spec: ProtocolSpec) -> u32 {
    with_resolved_protocol!(spec, |protocol| Protocol::num_states(&protocol))
}

/// Runs any [`Scenario`] — scheduler and fault scenarios included — through
/// the deterministic parallel harness.
///
/// This is [`TrialPlan`] generalized: the scenario carries every
/// result-determining knob (protocol, engine, scheduler, faults, rule, step
/// budget, seed policy) and the plan adds only the [`Parallelism`] setting,
/// which never affects results. A uniform-scheduler, fault-free,
/// child-free scenario runs the *same* seed streams and RNG draws as the
/// equivalent [`TrialPlan`] call — the two entry points share one batch
/// loop.
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    scenario: Scenario,
    parallelism: Parallelism,
}

impl ScenarioPlan {
    /// A plan executing `scenario` under automatic parallelism.
    #[must_use]
    pub fn new(scenario: Scenario) -> ScenarioPlan {
        ScenarioPlan {
            scenario,
            parallelism: Parallelism::default(),
        }
    }

    /// Sets how trials are spread across threads. Outcomes are bit-identical
    /// for every setting; only the wall-clock time changes.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> ScenarioPlan {
        self.parallelism = parallelism;
        self
    }

    /// The scenario this plan executes.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs the scenario's batch of trials.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is unrunnable: invalid AVC parameters, or a
    /// non-uniform scheduler on a non-`agent` engine (pre-check with
    /// [`avc_population::scenario::build_erased`] semantics via
    /// [`Scenario`] validation at parse sites).
    #[must_use]
    pub fn run(&self) -> TrialResults {
        self.run_with_stats(&StatsCollector::new())
    }

    /// As [`ScenarioPlan::run`], folding throughput telemetry into `stats`
    /// and taking the dense table from its slot.
    #[must_use]
    pub fn run_with_stats(&self, stats: &StatsCollector) -> TrialResults {
        let spec = BatchSpec::from_scenario(&self.scenario, self.parallelism);
        let key = self.scenario.protocol;
        with_resolved_protocol!(key, |protocol| {
            let workers = spec.table_workers(protocol.num_states());
            let (table, _) = stats.dense_table(key, &protocol, workers);
            let (results, batch) = run_batch_core(table.as_deref().ok_or(&protocol), &spec);
            stats.record(&batch);
            results
        })
    }

    /// As [`run_trials_with_telemetry`], for a scenario: per-trial
    /// [`CountingSink`]/[`TelemetryObserver`] capture merged in trial-index
    /// order into one [`CellTelemetry`]. The dense table comes from `stats`'
    /// slot, so a cell on the previous cell's protocol records a
    /// [`keys::WALL_TABLE_BUILD_NS`] of 0.
    #[must_use]
    pub fn run_with_telemetry(&self, stats: &StatsCollector) -> (TrialResults, CellTelemetry) {
        let spec = BatchSpec::from_scenario(&self.scenario, self.parallelism);
        let key = self.scenario.protocol;
        with_resolved_protocol!(key, |protocol| {
            let workers = spec.table_workers(protocol.num_states());
            let (table, build_ns) = stats.dense_table(key, &protocol, workers);
            run_batch_with_telemetry(table.as_deref().ok_or(&protocol), build_ns, &spec, stats)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_protocols::{FourState, ThreeState, Voter};

    #[test]
    fn spec_states_agrees_with_the_state_count_formulas() {
        for spec in [
            ProtocolSpec::Avc { m: 15, d: 3 },
            ProtocolSpec::Bef { levels: 10 },
            ProtocolSpec::Degssu {
                levels: 10,
                phase: 4,
            },
            ProtocolSpec::FourState,
            ProtocolSpec::ThreeState,
            ProtocolSpec::Voter,
        ] {
            assert_eq!(u64::from(spec_states(spec)), spec.state_count(), "{spec}");
        }
    }

    #[test]
    fn spec_validation_bounds_match_the_constructors() {
        // `ProtocolSpec::validate` (in avc-population, which cannot see the
        // constructors) must accept exactly what the constructors accept at
        // the boundary values, or valid scenarios would panic at resolution.
        assert_eq!(Bef::MAX_LEVELS, 32);
        assert_eq!(Degssu::MAX_LEVELS, 32);
        assert_eq!(Degssu::MAX_PHASE, 64);
        for levels in [1, Bef::MAX_LEVELS] {
            assert!(ProtocolSpec::Bef { levels }.validate().is_ok());
            assert!(Bef::new(levels).is_ok());
        }
        assert!(ProtocolSpec::Bef { levels: 33 }.validate().is_err());
        for (levels, phase) in [(1, 1), (Degssu::MAX_LEVELS, Degssu::MAX_PHASE)] {
            assert!(ProtocolSpec::Degssu { levels, phase }.validate().is_ok());
            assert!(Degssu::new(levels, phase).is_ok());
        }
        assert!(ProtocolSpec::Degssu {
            levels: 33,
            phase: 1
        }
        .validate()
        .is_err());
        assert!(ProtocolSpec::Degssu {
            levels: 1,
            phase: 65
        }
        .validate()
        .is_err());
    }

    #[test]
    fn trials_are_reproducible() {
        let plan = TrialPlan::new(MajorityInstance::new(8, 5)).runs(10).seed(3);
        let a = run_trials(
            &FourState,
            &plan,
            EngineKind::Jump,
            ConvergenceRule::OutputConsensus,
        );
        let b = run_trials(
            &FourState,
            &plan,
            EngineKind::Jump,
            ConvergenceRule::OutputConsensus,
        );
        assert_eq!(a.outcomes(), b.outcomes());
    }

    #[test]
    fn four_state_never_errs() {
        let plan = TrialPlan::new(MajorityInstance::one_extra(21)).runs(30);
        for engine in [
            EngineKind::Agent,
            EngineKind::Count,
            EngineKind::Jump,
            EngineKind::Adaptive,
        ] {
            let r = run_trials(&FourState, &plan, engine, ConvergenceRule::OutputConsensus);
            assert_eq!(r.error_fraction(), 0.0, "engine {engine:?}");
            assert_eq!(r.convergence_fraction(), 1.0);
        }
    }

    #[test]
    fn voter_errs_roughly_at_minority_fraction() {
        // P[error] = b/n = 5/20.
        let plan = TrialPlan::new(MajorityInstance::new(15, 5))
            .runs(300)
            .seed(1);
        let r = run_trials(
            &Voter,
            &plan,
            EngineKind::Count,
            ConvergenceRule::OutputConsensus,
        );
        assert!(
            (r.error_fraction() - 0.25).abs() < 0.08,
            "{}",
            r.error_fraction()
        );
    }

    #[test]
    fn tie_instances_have_zero_error_fraction() {
        let plan = TrialPlan::new(MajorityInstance::new(5, 5)).runs(5);
        let r = run_trials(
            &Voter,
            &plan,
            EngineKind::Count,
            ConvergenceRule::OutputConsensus,
        );
        assert_eq!(r.error_fraction(), 0.0);
    }

    #[test]
    fn max_steps_shows_up_as_non_convergence() {
        let plan = TrialPlan::new(MajorityInstance::new(50, 50))
            .runs(5)
            .max_steps(3);
        let r = run_trials(
            &Voter,
            &plan,
            EngineKind::Count,
            ConvergenceRule::OutputConsensus,
        );
        assert!(r.convergence_fraction() < 1.0);
    }

    #[test]
    fn three_state_runs_under_state_consensus() {
        let plan = TrialPlan::new(MajorityInstance::new(40, 20)).runs(20);
        let r = run_trials(
            &ThreeState::new(),
            &plan,
            EngineKind::Auto,
            ConvergenceRule::StateConsensus,
        );
        assert_eq!(r.convergence_fraction(), 1.0);
        assert!(r.summary().mean > 0.0);
    }

    #[test]
    fn run_indexed_preserves_index_order_at_any_width() {
        let expected: Vec<u64> = (0..97).map(|i| i * i).collect();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
            Parallelism::Auto,
        ] {
            let got = run_indexed(97, parallelism, |i| i * i);
            assert_eq!(got, expected, "{parallelism:?}");
        }
    }

    #[test]
    fn run_indexed_handles_more_workers_than_trials() {
        let got = run_indexed(3, Parallelism::Threads(16), |i| i);
        assert_eq!(got, vec![0, 1, 2]);
        assert!(run_indexed(0, Parallelism::Threads(4), |i| i).is_empty());
    }

    #[test]
    fn parallel_trials_match_serial_bit_for_bit() {
        let base = TrialPlan::new(MajorityInstance::new(30, 21))
            .runs(24)
            .seed(7);
        let serial = run_trials(
            &FourState,
            &base.parallelism(Parallelism::Serial),
            EngineKind::Count,
            ConvergenceRule::OutputConsensus,
        );
        for workers in [2, 3, 8] {
            let parallel = run_trials(
                &FourState,
                &base.parallelism(Parallelism::Threads(workers)),
                EngineKind::Count,
                ConvergenceRule::OutputConsensus,
            );
            assert_eq!(serial.outcomes(), parallel.outcomes(), "{workers} workers");
            assert_eq!(serial.summary(), parallel.summary(), "{workers} workers");
        }
    }

    #[test]
    fn stats_account_for_every_trial_and_event() {
        let plan = TrialPlan::new(MajorityInstance::new(10, 5))
            .runs(12)
            .seed(2)
            .parallelism(Parallelism::Threads(3));
        let collector = StatsCollector::new();
        let r = run_trials_with_stats(
            &Voter,
            &plan,
            EngineKind::Count,
            ConvergenceRule::OutputConsensus,
            &collector,
        );
        let stats = collector.snapshot();
        assert_eq!(stats.trials, 12);
        let total_steps: u64 = r.outcomes().iter().map(|o| o.steps).sum();
        assert_eq!(stats.events, total_steps);
        assert_eq!(stats.worker_trials.iter().sum::<u64>(), 12);
        assert_eq!(stats.worker_events.iter().sum::<u64>(), stats.events);
        assert_eq!(stats.worker_busy.len(), stats.worker_trials.len());
    }

    #[test]
    fn batch_stats_absorb_sums_across_batches() {
        let mut a = BatchStats {
            trials: 2,
            events: 10,
            wall: Duration::from_millis(4),
            worker_trials: vec![2],
            worker_events: vec![10],
            worker_busy: vec![Duration::from_millis(4)],
        };
        let b = BatchStats {
            trials: 3,
            events: 5,
            wall: Duration::from_millis(6),
            worker_trials: vec![1, 2],
            worker_events: vec![2, 3],
            worker_busy: vec![Duration::from_millis(3), Duration::from_millis(3)],
        };
        a.absorb(&b);
        assert_eq!(a.trials, 5);
        assert_eq!(a.events, 15);
        assert_eq!(a.wall, Duration::from_millis(10));
        assert_eq!(a.worker_trials, vec![3, 2]);
        assert_eq!(a.worker_events, vec![12, 3]);
        assert!(a.events_per_sec() > 0.0);
        assert_eq!(a.utilization().len(), 2);
    }

    #[test]
    #[should_panic(expected = "Threads(0)")]
    fn zero_threads_is_rejected() {
        let _ = Parallelism::Threads(0).worker_count();
    }

    #[test]
    fn telemetry_matches_outcomes_and_stats() {
        use avc_population::telemetry::keys;
        let plan = TrialPlan::new(MajorityInstance::new(20, 11))
            .runs(8)
            .seed(5);
        let collector = StatsCollector::new();
        let (r, telemetry) = run_trials_with_telemetry(
            &FourState,
            &plan,
            EngineKind::Count,
            ConvergenceRule::OutputConsensus,
            &collector,
        );
        let total_steps: u64 = r.outcomes().iter().map(|o| o.steps).sum();
        assert_eq!(telemetry.sim.counter(keys::SIM_STEPS), Some(total_steps));
        assert_eq!(telemetry.sim.counter(keys::SIM_TRIALS), Some(8));
        assert_eq!(telemetry.sim.counter(keys::SIM_TRIALS_CONVERGED), Some(8));
        let conv = telemetry
            .sim
            .histogram(keys::SIM_CONVERGENCE_STEPS)
            .unwrap();
        assert_eq!(conv.count, 8);
        assert_eq!(conv.sum, total_steps);
        assert_eq!(collector.snapshot().events, total_steps);
        // Wall half is populated and throughput is derivable.
        assert_eq!(
            telemetry.wall.histogram(keys::WALL_TRIAL_NS).unwrap().count,
            8
        );
        assert!(telemetry.wall.counter(keys::WALL_CELL_NS).is_some());
        assert!(telemetry.steps_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn telemetry_sim_half_is_parallelism_invariant() {
        use avc_population::telemetry::keys;
        let base = TrialPlan::new(MajorityInstance::new(25, 18))
            .runs(12)
            .seed(9);
        let run = |parallelism| {
            let collector = StatsCollector::new();
            run_trials_with_telemetry(
                &ThreeState::new(),
                &base.parallelism(parallelism),
                EngineKind::Adaptive,
                ConvergenceRule::StateConsensus,
                &collector,
            )
        };
        let (serial_r, serial_t) = run(Parallelism::Serial);
        for workers in [2, 5] {
            let (r, t) = run(Parallelism::Threads(workers));
            assert_eq!(serial_r.outcomes(), r.outcomes(), "{workers} workers");
            assert_eq!(serial_t.sim, t.sim, "{workers} workers");
        }
        // RNG-invisibility: the uninstrumented path sees identical outcomes.
        let plain = run_trials(
            &ThreeState::new(),
            &base,
            EngineKind::Adaptive,
            ConvergenceRule::StateConsensus,
        );
        assert_eq!(plain.outcomes(), serial_r.outcomes());
        assert!(serial_t.sim.counter(keys::SIM_STEPS).unwrap() > 0);
    }

    /// The slot's entry, with a fresh reference to its table.
    fn slot_entry(stats: &StatsCollector) -> Option<(ProtocolSpec, Arc<dyn Any + Send + Sync>)> {
        let slot = stats.table.0.lock().unwrap();
        slot.as_ref().map(|(key, table)| (*key, Arc::clone(table)))
    }

    #[test]
    fn table_slot_builds_once_per_spec_and_keeps_one_table_alive() {
        let first = ProtocolSpec::Avc { m: 15, d: 3 };
        let second = ProtocolSpec::Bef { levels: 6 };
        let wide = Avc::with_states(5_000).unwrap();
        let above_bound = ProtocolSpec::Avc {
            m: wide.m(),
            d: wide.d(),
        };
        let plan = |spec, seed, parallelism| {
            let scenario = Scenario::new(spec, MajorityInstance::new(30, 21))
                .runs(6)
                .seed(seed);
            ScenarioPlan::new(scenario).parallelism(parallelism)
        };
        let build_ns = |t: &CellTelemetry| t.wall.counter(keys::WALL_TABLE_BUILD_NS).unwrap();
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let stats = StatsCollector::new();
            let mut runs = Vec::new();
            let mut run = |spec, seed| {
                let (r, t) = plan(spec, seed, parallelism).run_with_telemetry(&stats);
                runs.push((spec, seed, r.outcomes().to_vec(), t.sim.clone()));
                t
            };

            assert!(build_ns(&run(first, 1)) > 0);
            let (key, table) = slot_entry(&stats).unwrap();
            assert_eq!(key, first);
            assert_eq!(build_ns(&run(first, 2)), 0, "same spec reuses the table");
            let _ = plan(first, 3, parallelism).run_with_stats(&stats);
            let (_, held) = slot_entry(&stats).unwrap();
            assert!(Arc::ptr_eq(&table, &held), "{parallelism:?}");
            drop(held);
            // Only the slot and this test hold it: no batch kept a clone.
            assert_eq!(Arc::strong_count(&table), 2);
            let evicted = Arc::downgrade(&table);
            drop(table);

            assert!(build_ns(&run(second, 4)) > 0);
            assert!(
                evicted.upgrade().is_none(),
                "a new spec frees the old table"
            );
            assert_eq!(slot_entry(&stats).unwrap().0, second);
            assert_eq!(build_ns(&run(above_bound, 5)), 0);
            assert!(
                slot_entry(&stats).is_none(),
                "the arithmetic path empties it"
            );

            for (spec, seed, outcomes, sim) in runs {
                let (r, t) =
                    plan(spec, seed, parallelism).run_with_telemetry(&StatsCollector::new());
                assert_eq!(r.outcomes(), &outcomes[..], "{spec} {parallelism:?}");
                assert_eq!(t.sim, sim, "{spec} {parallelism:?}");
            }
        }
    }
}
