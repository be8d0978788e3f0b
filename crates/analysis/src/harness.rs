//! Seeded multi-trial experiment runners.
//!
//! # One batch loop
//!
//! Every batch of seeded trials — a figure cell, a scenario-grid cell, an
//! `avc run` file, a test — is a [`Scenario`] run by [`ScenarioPlan`], and
//! all of them take the same loop: on the worker pool of the
//! [`StatsCollector`] they are given, or inline on the caller under
//! [`Parallelism::Serial`]. A worker claims trial indices from the batch
//! and builds its engine once, on its first claim, through
//! [`build_erased_with_sink`] with a [`CountingSink`] the engine *owns*, as a
//! `Box<dyn Simulator>`; it [`reset`](Simulator::reset)s the engine in place
//! before every trial it claims. Reset leaves the sink alone, so the sink
//! sums the worker's trials. Once the batch has no unclaimed trial left,
//! the worker reads the sink back ([`Simulator::sink_counts`]) together
//! with its [`TelemetryObserver`] and trial times, hands that share of the
//! [`CellTelemetry`] to the batch, drops the engine and moves on. Every
//! `sim.*` value is an integer sum or a histogram bucket add, so the merged
//! shares do not depend on which worker ran which trial.
//!
//! # One pool per sweep
//!
//! A collector starts its workers on its first parallel batch and joins
//! them when it is dropped. Every cell of a sweep gets the same collector,
//! so a sweep starts its workers once. [`StatsCollector::queue`] hands a
//! batch to the pool ahead of the call that joins it, and workers take
//! trials from the oldest queued batch that has any left: a worker that
//! runs out of one cell's trials starts the next cell's while the first
//! cell's last trials finish. [`ScenarioPlan::run_with_telemetry`] joins
//! the queued batch of its plan, or queues one itself.
//!
//! # Parallel determinism
//!
//! Batches run under a [`Parallelism`] knob (`Serial | Threads(n) | Auto`).
//! Every trial draws its RNG from its own [`SeedSequence`] stream, keyed by
//! the trial index alone, so a trial's outcome does not depend on which
//! worker ran it or in what order; engine reset is fresh-equivalent, so
//! neither does it depend on the trials the worker ran before. Workers pull
//! indices from a shared atomic counter and results are scattered back by
//! index, making the full [`TrialResults`] — and therefore every
//! [`Summary`] derived from it — **bit-identical to a serial run for any
//! worker count and any scheduling**. `tests/parallel_determinism.rs`
//! enforces this.

use crate::stats::{fraction, Summary};
use avc_population::cached::Cached;
use avc_population::driver::Driver;
use avc_population::engine::Simulator;
use avc_population::faults::FaultPlan;
use avc_population::rngutil::SeedSequence;
use avc_population::scenario::build_erased_with_sink;
use avc_population::spec::{RunOutcome, Verdict};
use avc_population::telemetry::{
    keys, CellTelemetry, CountingSink, HistogramSnapshot, MetricValue, Span, TelemetryObserver,
};
use avc_population::{Config, Opinion, Protocol, ProtocolSpec, Scenario};
use avc_protocols::{Avc, Bef, Degssu, FourState, ThreeState, Voter};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
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
    /// Wall-clock time, summed over batches. A pool batch counts its share
    /// of the collector's wall clock ([`keys::WALL_CELL_NS`]), so batches
    /// that overlap are not counted twice.
    pub wall: Duration,
    /// Trials completed by each worker (indexed by worker).
    pub worker_trials: Vec<u64>,
    /// Events simulated by each worker.
    pub worker_events: Vec<u64>,
    /// Busy time of each worker: from its first claimed trial of a batch to
    /// the end of its last one, not the batch wall.
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

/// A sweep's trial workers, the thread-safe accumulator of [`BatchStats`]
/// across its cells — the observability hook the CLI prints — and its dense
/// table slot.
///
/// With [`StatsCollector::verbose`], each recorded batch also emits a
/// progress line to stderr (trials completed so far and the running event
/// rate), which is cheap enough to leave on for long sweeps.
///
/// Every cell of a sweep receives the same collector. It owns the worker
/// pool its parallel batches run on (see the [module docs](self)), started
/// on first use with as many workers as the widest batch asks for and
/// joined on drop. It also keeps the last [`Cached`] table a batch was
/// built with, keyed by the [`ProtocolSpec`] it came from: consecutive
/// cells on one protocol (fig4's ten margins per state count) share one
/// build. The slot holds one table; a queued batch holds its own, so at
/// most two are alive, the running batch's and the queued one's.
#[derive(Debug, Default)]
pub struct StatsCollector {
    totals: Mutex<BatchStats>,
    verbose: bool,
    table: TableSlot,
    pool: Pool,
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

    /// Queues `plan`'s batch on the pool, so that workers start its trials
    /// as soon as they run out of earlier batches'; the next call that runs
    /// `plan` on this collector joins it. The batch's table is taken from
    /// the slot, or built now on the calling thread. A serial plan runs
    /// inline on its caller, so queuing one does nothing. A queued batch
    /// that nothing joins runs anyway and is dropped with the collector.
    ///
    /// # Panics
    ///
    /// Panics on `Threads(0)`, or if a worker thread cannot be started.
    pub fn queue(&self, plan: &ScenarioPlan) {
        if plan.parallelism != Parallelism::Serial {
            self.pool.submit(Arc::new(plan.batch(self)), false);
        }
    }

    /// The dense table of `protocol`, which `spec` names, plus the wall
    /// nanoseconds spent building it (0 when reused).
    ///
    /// A slot holding `spec` hands out its table. Otherwise the slot lets go
    /// of its table *before* the new one is built (rows split across
    /// `workers`), and the new one takes the slot. Above the table bound the
    /// slot is left empty and `None` returned.
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

    /// Waits for `batch` to complete, takes it off the queue and returns its
    /// results and telemetry, recording its stats. The batch's wall time is
    /// its share of the collector's clock: from the later of its first
    /// claimed trial and the completion of the batches joined before it, to
    /// its own completion (0 if those finished later).
    fn join(&self, batch: &Arc<Batch>) -> (TrialResults, CellTelemetry) {
        let done = batch.wait();
        self.pool.remove(batch);
        if let Some(payload) = done.panic {
            panic::resume_unwind(payload);
        }
        let completed = done.completed.unwrap_or_default();
        let previous = self.pool.frontier.fetch_max(completed, Ordering::Relaxed);
        let first_claim = done.first_claim.unwrap_or(completed);
        let share_ns = completed.saturating_sub(first_claim.max(previous));
        let mut stats = done.stats;
        stats.events = stats.worker_events.iter().sum();
        stats.wall = Duration::from_nanos(share_ns);
        let busy_ns = stats
            .worker_busy
            .iter()
            .map(Duration::as_nanos)
            .sum::<u128>();
        let mut telemetry = done.telemetry;
        let wall = &mut telemetry.wall;
        wall.set(keys::WALL_CELL_NS, MetricValue::Counter(share_ns));
        wall.set(
            keys::WALL_TABLE_BUILD_NS,
            MetricValue::Counter(batch.build_ns),
        );
        wall.set(
            keys::WALL_WORKER_BUSY_NS,
            MetricValue::Counter(u64::try_from(busy_ns).unwrap_or(u64::MAX)),
        );
        wall.set(keys::WALL_WORKERS, MetricValue::Gauge(batch.slots as u64));
        self.record(&stats);
        let results = TrialResults {
            outcomes: done
                .outcomes
                .into_iter()
                .map(|o| o.expect("a completed batch has every trial's outcome"))
                .collect(),
            expected: batch.plan.scenario.instance.winner(),
        };
        (results, telemetry)
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

/// Locks `mutex`, also when a panicking thread held it. The pool's queue
/// changes in single steps, and a panic under a batch's lock fails that
/// batch, whose contents are then discarded; the pool must keep draining
/// after such a panic, and its `Drop` must not panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A collector's trial workers and their queue of batches, with the clock
/// the batches' times are read on.
struct Pool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    epoch: Span,
    /// The latest completion (ns since `epoch`) of a joined batch.
    frontier: AtomicU64,
}

/// What a pool's workers share with the collector.
#[derive(Default)]
struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a batch is queued or the pool closes.
    ready: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// Batches in queue order, each with whether a caller has taken it to
    /// join. A batch leaves the queue when it is joined.
    queue: VecDeque<(Arc<Batch>, bool)>,
    closing: bool,
}

impl Default for Pool {
    fn default() -> Pool {
        Pool {
            shared: Arc::default(),
            workers: Mutex::default(),
            epoch: Span::start(),
            frontier: AtomicU64::new(0),
        }
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &lock(&self.workers).len())
            .field("queued", &lock(&self.shared.state).queue.len())
            .finish()
    }
}

impl Pool {
    /// Queues `batch`, first starting workers until `batch.slots` exist;
    /// `taken` marks a batch its caller is about to join.
    fn submit(&self, batch: Arc<Batch>, taken: bool) {
        let mut workers = lock(&self.workers);
        while workers.len() < batch.slots {
            let slot = workers.len();
            let shared = Arc::clone(&self.shared);
            let worker = std::thread::Builder::new()
                .name(format!("trial-worker-{slot}"))
                .spawn(move || shared.serve(slot))
                .expect("start a trial worker thread");
            workers.push(worker);
        }
        drop(workers);
        lock(&self.shared.state).queue.push_back((batch, taken));
        self.shared.ready.notify_all();
    }

    /// The oldest queued batch of `plan` that no caller has taken yet.
    fn take(&self, plan: &ScenarioPlan) -> Option<Arc<Batch>> {
        let mut state = lock(&self.shared.state);
        let (batch, taken) = state
            .queue
            .iter_mut()
            .find(|(batch, taken)| !*taken && batch.plan == *plan)?;
        *taken = true;
        Some(Arc::clone(batch))
    }

    fn remove(&self, batch: &Arc<Batch>) {
        lock(&self.shared.state)
            .queue
            .retain(|(queued, _)| !Arc::ptr_eq(queued, batch));
    }
}

impl PoolShared {
    /// Worker `slot`'s life: run trials of the oldest queued batch that has
    /// unclaimed ones and admits this worker, until the pool closes. A
    /// panic in a trial or an engine build fails that batch, whose joiner
    /// re-raises it; the worker goes on.
    fn serve(&self, slot: usize) {
        loop {
            let batch = {
                let mut state = lock(&self.state);
                loop {
                    if state.closing {
                        return;
                    }
                    let open = state
                        .queue
                        .iter()
                        .find(|(batch, _)| batch.slots > slot && batch.has_unclaimed());
                    if let Some((batch, _)) = open {
                        break Arc::clone(batch);
                    }
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| batch.work(slot))) {
                batch.fail(payload);
            }
        }
    }
}

impl Drop for Pool {
    /// Stops every queued batch from handing out trials and joins the
    /// workers once their in-flight trials end.
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.closing = true;
            for (batch, _) in &state.queue {
                batch.stop();
            }
        }
        self.shared.ready.notify_all();
        let workers = self
            .workers
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for worker in workers.drain(..) {
            // A worker only ends by returning; its panics are caught.
            let _ = worker.join();
        }
    }
}

/// Builds one worker's engine for a batch's scenario.
type EngineBuilder = Box<dyn Fn(&Scenario) -> BatchWorker + Send + Sync>;

/// Engines over `protocol`, which every engine of the batch shares.
fn engine_builder<P: Protocol + Send + Sync + 'static>(protocol: Arc<P>) -> EngineBuilder {
    Box::new(move |scenario| BatchWorker::new(Arc::clone(&protocol), scenario))
}

/// One [`ScenarioPlan`]'s trials, as queued on a pool or run inline.
struct Batch {
    plan: ScenarioPlan,
    /// Workers `0..slots` of a pool work on this batch.
    slots: usize,
    /// Wall nanoseconds spent building the batch's table (0 when reused).
    build_ns: u64,
    /// The collector's clock.
    epoch: Span,
    /// Dropped when the batch is joined, and with it the batch's table.
    engines: RwLock<Option<EngineBuilder>>,
    /// The next unclaimed trial index.
    next: AtomicU64,
    state: Mutex<BatchState>,
    /// Signalled when the batch completes.
    done: Condvar,
}

/// What a batch's workers have handed back.
#[derive(Default)]
struct BatchState {
    outcomes: Vec<Option<RunOutcome>>,
    telemetry: CellTelemetry,
    stats: BatchStats,
    /// Trials whose outcomes are in.
    finished: u64,
    /// The first claimed trial's start, in ns since the epoch.
    first_claim: Option<u64>,
    /// When the last trial was handed back or a worker failed.
    completed: Option<u64>,
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    fn new(
        plan: ScenarioPlan,
        slots: usize,
        build_ns: u64,
        epoch: Span,
        engines: EngineBuilder,
    ) -> Batch {
        let runs = plan.scenario.runs;
        // A batch of no trials is complete as it is made.
        let empty = (runs == 0).then(|| epoch.elapsed_ns());
        let state = BatchState {
            outcomes: vec![None; runs as usize],
            stats: BatchStats {
                trials: runs,
                worker_trials: vec![0; slots],
                worker_events: vec![0; slots],
                worker_busy: vec![Duration::ZERO; slots],
                ..BatchStats::default()
            },
            first_claim: empty,
            completed: empty,
            ..BatchState::default()
        };
        Batch {
            plan,
            slots,
            build_ns,
            epoch,
            engines: RwLock::new(Some(engines)),
            next: AtomicU64::new(0),
            state: Mutex::new(state),
            done: Condvar::new(),
        }
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.plan.scenario.runs
    }

    /// Hands out no more trials; claimed ones still finish.
    fn stop(&self) {
        self.next
            .fetch_max(self.plan.scenario.runs, Ordering::Relaxed);
    }

    /// The one batch loop (see the [module docs](self)), run by worker
    /// `slot`: claim trials until none is left, then hand the outcomes and
    /// the engine's telemetry back. Fault-free scenarios run
    /// [`Driver::run`]; faulted ones rebuild the per-trial [`FaultPlan`] (a
    /// sort of a handful of events) and run [`Driver::run_faulted`].
    fn work(&self, slot: usize) {
        let scenario = &self.plan.scenario;
        let seeds = self.plan.seeds();
        let driver = Driver::new(scenario.rule).with_max_steps(scenario.max_steps);
        let mut ran = Vec::new();
        // This worker's first claim and engine, from its first claim on.
        let mut mine: Option<(u64, BatchWorker)> = None;
        loop {
            let trial = self.next.fetch_add(1, Ordering::Relaxed);
            if trial >= scenario.runs {
                break;
            }
            if mine.is_none() {
                let first_claim = self.epoch.elapsed_ns();
                let engines = self.engines.read().unwrap_or_else(PoisonError::into_inner);
                // The builder outlives every claim but those of a failed
                // batch that was joined already.
                let Some(build) = engines.as_ref() else {
                    return;
                };
                mine = Some((first_claim, build(scenario)));
            }
            let (_, worker) = mine.as_mut().expect("built on the first claim");
            let started = Span::start();
            let mut rng = seeds.rng_for(trial);
            // A freshly built engine is already in this state; resetting it
            // anyway keeps one uniform per-trial path.
            worker.sim.reset(&worker.config);
            let sim = worker.sim.as_mut();
            let outcome = if scenario.faults.is_empty() {
                driver.run(sim, &mut rng, &mut worker.observer)
            } else {
                let mut faults = FaultPlan::from_events(scenario.faults.clone());
                driver.run_faulted(sim, &mut rng, &mut worker.observer, &mut faults)
            };
            started.record_into(&mut worker.trial_ns);
            ran.push((trial, outcome));
        }
        if let Some((first_claim, worker)) = mine {
            self.hand_back(slot, first_claim, ran, &worker.into_telemetry());
        }
    }

    /// Folds one worker's trials into the batch; the last trial completes
    /// it. A failed batch takes nothing more.
    fn hand_back(
        &self,
        slot: usize,
        first_claim: u64,
        ran: Vec<(u64, RunOutcome)>,
        share: &CellTelemetry,
    ) {
        let now = self.epoch.elapsed_ns();
        let mut guard = lock(&self.state);
        let state = &mut *guard;
        if state.completed.is_some() {
            return;
        }
        state.first_claim = Some(
            state
                .first_claim
                .map_or(first_claim, |f| f.min(first_claim)),
        );
        state.finished += ran.len() as u64;
        state.stats.worker_trials[slot] += ran.len() as u64;
        state.stats.worker_busy[slot] += Duration::from_nanos(now - first_claim);
        for (trial, outcome) in ran {
            state.stats.worker_events[slot] += outcome.steps;
            state.outcomes[trial as usize] = Some(outcome);
        }
        state.telemetry.merge(share);
        if state.finished == self.plan.scenario.runs {
            state.completed = Some(now);
            self.done.notify_all();
        }
    }

    /// Fails the batch with a worker's panic, which its joiner re-raises.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        self.stop();
        let mut state = lock(&self.state);
        if state.completed.is_none() {
            state.completed = Some(self.epoch.elapsed_ns());
            state.panic = Some(payload);
            self.done.notify_all();
        }
    }

    /// Waits for completion and takes what the workers handed back,
    /// dropping the engine builder (and so the batch's hold on its table).
    fn wait(&self) -> BatchState {
        let mut state = lock(&self.state);
        while state.completed.is_none() {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // `completed` stays set, so a failed batch's stragglers hand back
        // nothing.
        let done = BatchState {
            outcomes: std::mem::take(&mut state.outcomes),
            telemetry: std::mem::take(&mut state.telemetry),
            stats: std::mem::take(&mut state.stats),
            panic: state.panic.take(),
            ..*state
        };
        drop(state);
        *self.engines.write().unwrap_or_else(PoisonError::into_inner) = None;
        done
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
/// the call returns throughput telemetry alongside the results. Runs on
/// scoped threads of its own, not on a collector's pool: it serves the
/// sweeps that are not scenario batches (lb_info, graph_gap).
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
    let workers = parallelism.worker_count().min(runs.max(1) as usize);
    let started = Span::start();
    // Dynamic sharding: workers pull the next unclaimed trial index from a
    // shared counter (so stragglers never idle the rest), and results carry
    // their index home for an order-restoring scatter below.
    let next = AtomicU64::new(0);
    let shard = || {
        let begun = Span::start();
        let (mut local, mut events) = (Vec::new(), 0u64);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= runs {
                break;
            }
            let (value, e) = task(i);
            events += e;
            local.push((i, value));
        }
        (local, events, begun.elapsed())
    };
    let per_worker: Vec<_> = if workers <= 1 {
        vec![shard()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(shard)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trial worker panicked"))
                .collect()
        })
    };
    let mut stats = BatchStats {
        trials: runs,
        wall: started.elapsed(),
        ..BatchStats::default()
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

    /// The runs counted by verdict. A consensus is correct when it names
    /// the expected winner, or whenever the instance is tied.
    #[must_use]
    pub fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for outcome in &self.outcomes {
            match outcome.verdict {
                Verdict::Consensus(op) if self.expected.is_none_or(|w| w == op) => {
                    tally.correct += 1;
                }
                Verdict::Consensus(_) => tally.wrong += 1,
                Verdict::MaxSteps => tally.timed_out += 1,
                Verdict::Stuck => tally.stuck += 1,
            }
        }
        tally
    }
}

/// A batch's runs counted by verdict ([`TrialResults::tally`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs that reached the expected consensus.
    pub correct: u64,
    /// Runs that reached the other consensus.
    pub wrong: u64,
    /// Runs that hit the step budget.
    pub timed_out: u64,
    /// Runs that fell silent without meeting their convergence rule.
    pub stuck: u64,
}

/// Dense tables with fewer entries than this fill on the calling thread:
/// spawning a worker would cost more than the whole fill.
const PARALLEL_TABLE_MIN_ENTRIES: u64 = 1 << 16;

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
/// The scenario carries every result-determining knob (protocol, engine,
/// scheduler, faults, rule, step budget, seed policy); the plan adds only
/// the [`Parallelism`] setting, which never affects results. All three
/// entry points run the one batch loop of the [module docs](self) and
/// differ only in what they hand back.
#[derive(Debug, Clone, PartialEq)]
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
    /// Panics if the scenario is unrunnable (a non-uniform scheduler on a
    /// non-`agent` engine, an agent-addressed fault off the `agent`
    /// engine, a fault outside the population or state space). Scenarios
    /// from [`Scenario::from_json`] are checked for all of these at parse
    /// time.
    #[must_use]
    pub fn run(&self) -> TrialResults {
        self.run_with_stats(&StatsCollector::new())
    }

    /// As [`ScenarioPlan::run`], folding throughput telemetry into `stats`
    /// and taking the dense table from its slot.
    #[must_use]
    pub fn run_with_stats(&self, stats: &StatsCollector) -> TrialResults {
        self.run_with_telemetry(stats).0
    }

    /// As [`ScenarioPlan::run_with_stats`], also returning the batch's
    /// [`CellTelemetry`]: the engines' [`CountingSink`] counts and the
    /// convergence outcomes in `sim`, and chunk latencies, trial times, the
    /// batch's share of the wall clock, its workers' busy time and the table
    /// build time in `wall`. A parallel plan joins the batch
    /// [`StatsCollector::queue`] queued for it, or queues one; a serial plan
    /// runs inline. The dense table comes from `stats`' slot, so a cell on
    /// the previous cell's protocol records a [`keys::WALL_TABLE_BUILD_NS`]
    /// of 0.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of a trial or an engine build on a pool worker.
    #[must_use]
    pub fn run_with_telemetry(&self, stats: &StatsCollector) -> (TrialResults, CellTelemetry) {
        let batch = if self.parallelism == Parallelism::Serial {
            let batch = Arc::new(self.batch(stats));
            batch.work(0);
            batch
        } else {
            stats.pool.take(self).unwrap_or_else(|| {
                let batch = Arc::new(self.batch(stats));
                stats.pool.submit(Arc::clone(&batch), true);
                batch
            })
        };
        stats.join(&batch)
    }

    /// This plan's batch. Its engines share, through an `Arc`, the dense
    /// table from `stats`' slot (built now if the slot holds another
    /// protocol's), or the arithmetic protocol above the table bound.
    fn batch(&self, stats: &StatsCollector) -> Batch {
        let key = self.scenario.protocol;
        let (engines, build_ns) = with_resolved_protocol!(key, |protocol| {
            let workers = self.table_workers(protocol.num_states());
            match stats.dense_table(key, &protocol, workers) {
                (Some(table), build_ns) => (engine_builder(table), build_ns),
                (None, _) => (engine_builder(Arc::new(protocol)), 0),
            }
        });
        let slots = self.parallelism.worker_count();
        Batch::new(self.clone(), slots, build_ns, stats.pool.epoch, engines)
    }

    /// The trial seed streams: the master sequence, or one of its child
    /// families when the scenario routes through `seed_child` (grid sweeps
    /// give each cell its own family this way).
    fn seeds(&self) -> SeedSequence {
        let seeds = SeedSequence::new(self.scenario.seed);
        match self.scenario.seed_child {
            Some(child) => seeds.child(child),
            None => seeds,
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
}

/// One worker's state for a whole batch: its engine, which owns the
/// worker's [`CountingSink`], the configuration every trial resets to, and
/// the driver-side telemetry the sink cannot see.
struct BatchWorker {
    sim: Box<dyn Simulator>,
    config: Config,
    observer: TelemetryObserver,
    trial_ns: HistogramSnapshot,
}

impl BatchWorker {
    /// The scenario's engine over the batch's protocol (the shared table
    /// or the arithmetic protocol), built through the workspace's one
    /// builder with a sink of its own.
    ///
    /// # Panics
    ///
    /// Panics with `unrunnable scenario` if the builder rejects the
    /// scenario.
    fn new<Q: Protocol + Clone + 'static>(protocol: Q, scenario: &Scenario) -> BatchWorker {
        let config = Config::from_input(&protocol, scenario.instance.a(), scenario.instance.b());
        let sim = build_erased_with_sink(
            protocol,
            config.clone(),
            scenario.engine,
            &scenario.scheduler,
            CountingSink::new(),
        )
        .unwrap_or_else(|e| panic!("unrunnable scenario: {e}"));
        BatchWorker {
            sim,
            config,
            observer: TelemetryObserver::new(),
            trial_ns: HistogramSnapshot::new(),
        }
    }

    /// This worker's share of the cell telemetry. `sim` is the sink's
    /// counts plus the observer's convergence outcomes (disjoint keys);
    /// `wall` is the observer's chunk latencies plus the trial times.
    fn into_telemetry(self) -> CellTelemetry {
        let sink = self
            .sim
            .sink_counts()
            .expect("batch engines own a CountingSink");
        let mut sim = sink.snapshot();
        sim.merge(&self.observer.sim_snapshot());
        let mut wall = self.observer.wall_snapshot();
        wall.set(keys::WALL_TRIAL_NS, MetricValue::Histogram(self.trial_ns));
        CellTelemetry { sim, wall }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_population::driver::{NullObserver, Observer};
    use avc_population::faults::Fault;
    use avc_population::scenario::build_erased;
    use avc_population::telemetry::RegistrySnapshot;
    use avc_population::{ConvergenceRule, EngineKind, MajorityInstance, SchedulerSpec};
    use std::any::Any;

    /// A scenario on `protocol` with engine, runs and seed set.
    fn scenario(
        protocol: ProtocolSpec,
        instance: MajorityInstance,
        engine: EngineKind,
        runs: u64,
        seed: u64,
    ) -> Scenario {
        Scenario::new(protocol, instance)
            .engine(engine)
            .runs(runs)
            .seed(seed)
    }

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
        assert_eq!(Avc::MAX_STATES, 1 << 31);
        assert_eq!(Bef::MAX_LEVELS, 32);
        assert_eq!(Degssu::MAX_LEVELS, 32);
        assert_eq!(Degssu::MAX_PHASE, 64);
        for (m, d) in [(1, 1), (Avc::MAX_STATES - 3, 1), (1, (1 << 30) - 1)] {
            assert!(ProtocolSpec::Avc { m, d }.validate().is_ok());
            assert!(Avc::new(m, d).is_ok());
        }
        for (m, d) in [(Avc::MAX_STATES - 1, 1), (1, 1 << 30), (u64::MAX, u32::MAX)] {
            assert!(ProtocolSpec::Avc { m, d }.validate().is_err());
            assert!(Avc::new(m, d).is_err());
        }
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
        let plan = ScenarioPlan::new(scenario(
            ProtocolSpec::FourState,
            MajorityInstance::new(8, 5),
            EngineKind::Jump,
            10,
            3,
        ));
        let a = plan.run();
        let b = plan.run();
        assert_eq!(a.outcomes(), b.outcomes());
    }

    #[test]
    fn four_state_never_errs() {
        for engine in [
            EngineKind::Agent,
            EngineKind::Count,
            EngineKind::Jump,
            EngineKind::Adaptive,
        ] {
            let s = scenario(
                ProtocolSpec::FourState,
                MajorityInstance::one_extra(21),
                engine,
                30,
                0,
            );
            let r = ScenarioPlan::new(s).run();
            assert_eq!(r.error_fraction(), 0.0, "engine {engine:?}");
            assert_eq!(r.convergence_fraction(), 1.0);
        }
    }

    #[test]
    fn voter_errs_roughly_at_minority_fraction() {
        // P[error] = b/n = 5/20.
        let s = scenario(
            ProtocolSpec::Voter,
            MajorityInstance::new(15, 5),
            EngineKind::Count,
            300,
            1,
        );
        let r = ScenarioPlan::new(s).run();
        assert!(
            (r.error_fraction() - 0.25).abs() < 0.08,
            "{}",
            r.error_fraction()
        );
    }

    #[test]
    fn tie_instances_have_zero_error_fraction() {
        let s = scenario(
            ProtocolSpec::Voter,
            MajorityInstance::new(5, 5),
            EngineKind::Count,
            5,
            0,
        );
        let r = ScenarioPlan::new(s).run();
        assert_eq!(r.error_fraction(), 0.0);
    }

    #[test]
    fn max_steps_shows_up_as_non_convergence() {
        let s = scenario(
            ProtocolSpec::Voter,
            MajorityInstance::new(50, 50),
            EngineKind::Count,
            5,
            0,
        )
        .max_steps(3);
        let r = ScenarioPlan::new(s).run();
        assert!(r.convergence_fraction() < 1.0);
    }

    #[test]
    fn three_state_runs_under_state_consensus() {
        let s = scenario(
            ProtocolSpec::ThreeState,
            MajorityInstance::new(40, 20),
            EngineKind::Auto,
            20,
            0,
        )
        .rule(ConvergenceRule::StateConsensus);
        let r = ScenarioPlan::new(s).run();
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
        let base = ScenarioPlan::new(scenario(
            ProtocolSpec::FourState,
            MajorityInstance::new(30, 21),
            EngineKind::Count,
            24,
            7,
        ));
        let serial = base.clone().parallelism(Parallelism::Serial).run();
        for workers in [2, 3, 8] {
            let parallel = base
                .clone()
                .parallelism(Parallelism::Threads(workers))
                .run();
            assert_eq!(serial.outcomes(), parallel.outcomes(), "{workers} workers");
            assert_eq!(serial.summary(), parallel.summary(), "{workers} workers");
        }
    }

    #[test]
    fn stats_account_for_every_trial_and_event() {
        let s = scenario(
            ProtocolSpec::Voter,
            MajorityInstance::new(10, 5),
            EngineKind::Count,
            12,
            2,
        );
        let collector = StatsCollector::new();
        let r = ScenarioPlan::new(s)
            .parallelism(Parallelism::Threads(3))
            .run_with_stats(&collector);
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
        let s = scenario(
            ProtocolSpec::FourState,
            MajorityInstance::new(20, 11),
            EngineKind::Count,
            8,
            5,
        );
        let collector = StatsCollector::new();
        let (r, telemetry) = ScenarioPlan::new(s).run_with_telemetry(&collector);
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
        let base = ScenarioPlan::new(
            scenario(
                ProtocolSpec::ThreeState,
                MajorityInstance::new(25, 18),
                EngineKind::Adaptive,
                12,
                9,
            )
            .rule(ConvergenceRule::StateConsensus),
        );
        let run = |parallelism| {
            base.clone()
                .parallelism(parallelism)
                .run_with_telemetry(&StatsCollector::new())
        };
        let (serial_r, serial_t) = run(Parallelism::Serial);
        for workers in [2, 5] {
            let (r, t) = run(Parallelism::Threads(workers));
            assert_eq!(serial_r.outcomes(), r.outcomes(), "{workers} workers");
            assert_eq!(serial_t.sim, t.sim, "{workers} workers");
        }
        // The outcome-only projection sees identical outcomes.
        let plain = base.run();
        assert_eq!(plain.outcomes(), serial_r.outcomes());
        assert!(serial_t.sim.counter(keys::SIM_STEPS).unwrap() > 0);
    }

    /// Runs one trial of `scenario` on `sim`, as every batch loop has.
    fn drive_trial<O: Observer>(
        scenario: &Scenario,
        sim: &mut dyn Simulator,
        trial: u64,
        observer: &mut O,
    ) -> RunOutcome {
        let seeds = match scenario.seed_child {
            Some(child) => SeedSequence::new(scenario.seed).child(child),
            None => SeedSequence::new(scenario.seed),
        };
        let mut rng = seeds.rng_for(trial);
        let driver = Driver::new(scenario.rule).with_max_steps(scenario.max_steps);
        if scenario.faults.is_empty() {
            driver.run(sim, &mut rng, observer)
        } else {
            let mut faults = FaultPlan::from_events(scenario.faults.clone());
            driver.run_faulted(sim, &mut rng, observer, &mut faults)
        }
    }

    /// The algorithm the single loop replaced: a fresh engine per trial
    /// over a lent `&mut CountingSink`, each trial's `sim` snapshot merged
    /// in trial-index order. Also returns the outcomes of the same trials
    /// on fresh `NoopSink` engines.
    fn per_trial_reference<P: Protocol + Clone>(
        protocol: P,
        scenario: &Scenario,
    ) -> (Vec<RunOutcome>, RegistrySnapshot, Vec<RunOutcome>) {
        let (a, b) = (scenario.instance.a(), scenario.instance.b());
        let (engine, scheduler) = (scenario.engine, &scenario.scheduler);
        let (mut outcomes, mut sim, mut noop) = (Vec::new(), RegistrySnapshot::new(), Vec::new());
        for trial in 0..scenario.runs {
            let config = Config::from_input(&protocol, a, b);
            let mut sink = CountingSink::new();
            let mut engine_sim = build_erased_with_sink(
                protocol.clone(),
                config.clone(),
                engine,
                scheduler,
                &mut sink,
            )
            .unwrap();
            let outcome = drive_trial(scenario, engine_sim.as_mut(), trial, &mut NullObserver);
            drop(engine_sim);
            let mut cell = sink.snapshot();
            let mut convergence = HistogramSnapshot::new();
            if outcome.verdict.is_consensus() {
                convergence.record(outcome.steps);
            }
            cell.set(
                keys::SIM_CONVERGENCE_STEPS,
                MetricValue::Histogram(convergence),
            );
            cell.set(keys::SIM_TRIALS, MetricValue::Counter(1));
            cell.set(
                keys::SIM_TRIALS_CONVERGED,
                MetricValue::Counter(u64::from(outcome.verdict.is_consensus())),
            );
            sim.merge(&cell);
            outcomes.push(outcome);

            let mut plain = build_erased(protocol.clone(), config, engine, scheduler).unwrap();
            noop.push(drive_trial(
                scenario,
                plain.as_mut(),
                trial,
                &mut NullObserver,
            ));
        }
        (outcomes, sim, noop)
    }

    #[test]
    fn single_loop_matches_the_per_trial_reference() {
        let four = |engine| {
            scenario(
                ProtocolSpec::FourState,
                MajorityInstance::new(41, 40),
                engine,
                7,
                11,
            )
        };
        let mut cases: Vec<Scenario> = EngineKind::CONCRETE.into_iter().map(four).collect();
        // Budget-truncated trials record no convergence steps.
        cases.push(four(EngineKind::Adaptive).max_steps(2_000));
        cases.push(
            scenario(
                ProtocolSpec::Avc { m: 7, d: 1 },
                MajorityInstance::new(31, 20),
                EngineKind::Agent,
                6,
                4,
            )
            .scheduler(SchedulerSpec::Biased { hot: 8, bias: 0.9 })
            .seed_child(2),
        );
        cases.push(
            four(EngineKind::Agent)
                .fault(
                    30,
                    Fault::Corrupt {
                        from: 0,
                        to: 1,
                        agents: 3,
                    },
                )
                .fault(60, Fault::StickAt { agent: 5 })
                .fault(90, Fault::Crash { agent: 7 })
                .max_steps(200_000),
        );
        let mut covered = RegistrySnapshot::new();
        for case in &cases {
            let (outcomes, sim, noop) = with_resolved_protocol!(case.protocol, |protocol| {
                match Cached::try_new(protocol) {
                    Ok(cached) => per_trial_reference(&cached, case),
                    Err(plain) => per_trial_reference(&plain, case),
                }
            });
            assert_eq!(
                noop,
                outcomes,
                "the sink moved an outcome: {}",
                case.canonical()
            );
            for parallelism in [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Threads(3),
            ] {
                let (r, t) = ScenarioPlan::new(case.clone())
                    .parallelism(parallelism)
                    .run_with_telemetry(&StatsCollector::new());
                let label = format!("{parallelism:?} {}", case.canonical());
                assert_eq!(r.outcomes(), &outcomes[..], "{label}");
                assert_eq!(t.sim, sim, "{label}");
            }
            covered.merge(&sim);
        }
        // Between them the cases move every counter the merge has to carry.
        for key in ["sim.faults", "sim.phase_switches", "sim.fenwick_descents"] {
            assert!(covered.counter(key).unwrap() > 0, "{key} never moved");
        }
        assert!(covered.counter(keys::SIM_TRIALS_CONVERGED) < covered.counter(keys::SIM_TRIALS));
    }

    #[test]
    fn batch_with_fewer_trials_than_workers_matches_serial() {
        let plan = ScenarioPlan::new(scenario(
            ProtocolSpec::FourState,
            MajorityInstance::new(30, 21),
            EngineKind::Count,
            2,
            13,
        ));
        let (serial_r, serial_t) = plan
            .clone()
            .parallelism(Parallelism::Serial)
            .run_with_telemetry(&StatsCollector::new());
        let collector = StatsCollector::new();
        let (r, t) = plan
            .parallelism(Parallelism::Threads(4))
            .run_with_telemetry(&collector);
        assert_eq!(r.outcomes(), serial_r.outcomes());
        assert_eq!(t.sim, serial_t.sim);
        let stats = collector.snapshot();
        assert_eq!(stats.worker_trials.len(), 4);
        assert_eq!(stats.worker_trials.iter().sum::<u64>(), 2);
        assert_eq!(t.wall.gauge(keys::WALL_WORKERS), Some(4));
        let busy: u128 = stats.worker_busy.iter().map(Duration::as_nanos).sum();
        assert_eq!(t.wall.counter(keys::WALL_WORKER_BUSY_NS), Some(busy as u64));
        assert_eq!(serial_t.wall.gauge(keys::WALL_WORKERS), Some(1));
    }

    #[test]
    fn queued_one_trial_cells_match_their_serial_runs() {
        // Alternating protocols make every queued batch swap the table
        // slot while the batch before it still runs on the old table.
        let cells: Vec<Scenario> = (0..8)
            .map(|i| {
                let protocol = if i % 2 == 0 {
                    ProtocolSpec::Avc { m: 15, d: 3 }
                } else {
                    ProtocolSpec::FourState
                };
                scenario(
                    protocol,
                    MajorityInstance::new(40, 31),
                    EngineKind::Auto,
                    1,
                    i,
                )
            })
            .collect();
        let serial: Vec<_> = cells
            .iter()
            .map(|s| {
                ScenarioPlan::new(s.clone())
                    .parallelism(Parallelism::Serial)
                    .run_with_telemetry(&StatsCollector::new())
            })
            .collect();
        for workers in [2, 3] {
            let plans: Vec<ScenarioPlan> = cells
                .iter()
                .map(|s| ScenarioPlan::new(s.clone()).parallelism(Parallelism::Threads(workers)))
                .collect();
            let collector = StatsCollector::new();
            let started = Span::start();
            collector.queue(&plans[0]);
            let mut shares_ns = 0;
            for (i, plan) in plans.iter().enumerate() {
                if let Some(next) = plans.get(i + 1) {
                    collector.queue(next);
                }
                let (r, t) = plan.run_with_telemetry(&collector);
                assert_eq!(
                    r.outcomes(),
                    serial[i].0.outcomes(),
                    "cell {i}, {workers} workers"
                );
                assert_eq!(t.sim, serial[i].1.sim, "cell {i}, {workers} workers");
                shares_ns += t.wall.counter(keys::WALL_CELL_NS).unwrap();
            }
            // Overlapping batches are not counted twice.
            assert!(shares_ns <= started.elapsed_ns(), "{workers} workers");
            assert_eq!(collector.snapshot().trials, 8);
        }
    }

    #[test]
    #[should_panic(expected = "unrunnable scenario")]
    fn engine_build_failure_on_a_pool_worker_panics_the_caller() {
        // Built without `validate`: the count engine has no per-agent
        // scheduler, so every worker's engine build fails.
        let unrunnable = scenario(
            ProtocolSpec::FourState,
            MajorityInstance::new(10, 7),
            EngineKind::Count,
            4,
            0,
        )
        .scheduler(SchedulerSpec::Biased { hot: 2, bias: 0.5 });
        let _ = ScenarioPlan::new(unrunnable)
            .parallelism(Parallelism::Threads(2))
            .run();
    }

    #[test]
    #[should_panic(expected = "fault injection failed")]
    fn trial_panic_in_a_queued_batch_panics_the_caller() {
        // Built without `validate`: the count engine cannot crash one agent.
        let unrunnable = scenario(
            ProtocolSpec::FourState,
            MajorityInstance::new(10, 7),
            EngineKind::Count,
            4,
            0,
        )
        .fault(0, Fault::Crash { agent: 1 });
        let plan = ScenarioPlan::new(unrunnable).parallelism(Parallelism::Threads(2));
        let collector = StatsCollector::new();
        collector.queue(&plan);
        let _ = plan.run_with_stats(&collector);
    }

    #[test]
    fn dropping_a_collector_with_an_unjoined_batch_returns() {
        let (sent, received) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let collector = StatsCollector::new();
            collector.queue(
                &ScenarioPlan::new(scenario(
                    ProtocolSpec::Voter,
                    MajorityInstance::new(600, 400),
                    EngineKind::Agent,
                    1_000_000,
                    1,
                ))
                .parallelism(Parallelism::Threads(2)),
            );
            drop(collector);
            sent.send(()).unwrap();
        });
        // A million trials would take minutes; the drop stops the batch.
        received
            .recv_timeout(Duration::from_secs(60))
            .expect("dropping the collector stops its queued batch and joins its workers");
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
