//! One workload, measured in this process: the closed-loop sweep repeated
//! for the run's duration, its correctness checks, and (traced) the
//! per-layer breakdown.
//!
//! A sweep makes exactly the library calls `avc sweep` makes —
//! `specs::build` or `scenario_grid::plan_of`, `Store::open`,
//! `sweep::run_sharded` (not verbose), `Store::compact` — and export makes
//! those of `avc export`: `Store::open`, `sweep::export`, CSV rendering.

use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::refkernel;
use crate::replay::{self, Replay};
use crate::stats::{self, Timing};
use crate::trace::{self, Tracer};
use crate::workload::Workload;
use avc_analysis::harness::StatsCollector;
use avc_population::telemetry::keys;
use avc_store::hash::sha256_hex;
use avc_store::store::Store;
use avc_store::sweep::{self, Cell, Plan, Shard, SweepOutcome};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Set-up repetitions (plan build plus opening an empty store) after each
/// sweep.
const SETUP_REPS: usize = 50;
/// Export repetitions (open the populated store, export, render CSV) after
/// each sweep.
const EXPORT_REPS: usize = 10;

/// The nominal machine every reported time is scaled to: one on which the
/// two-thread reference probe ([`refkernel::pair_ns_per_op`]) takes this
/// many nanoseconds per operation…
///
/// Machines shared with other tenants change speed by tens of percent from
/// one second to the next, and a sweep slows with them. A sweep's wall time
/// times `NOMINAL_PAIR_NS / probe`, with the probes taken around that very
/// sweep, cancels most of that drift while a code change still moves it in
/// full: the probes run no repository code and nothing of the program runs
/// while they do.
pub const NOMINAL_PAIR_NS: f64 = 80.0;
/// …and the single-threaded allocation probe
/// ([`refkernel::churn_ns_per_op`]) takes this many, which scales set-up
/// and export times.
const NOMINAL_CHURN_NS: f64 = 36.0;

/// SHA-256 of each workload's exported CSVs plus its ordered per-cell
/// `sim.steps`, at workload seed 0. A change that alters any simulated
/// trajectory or any exported byte changes these.
const SEED0_DIGESTS: [(&str, &str); 4] = [
    (
        "fig3_many_trials",
        "dcd0b45884f36dcedcdda7ac7e1f21f78b97c33ab2ff09872ef7a8aa52f83869",
    ),
    (
        "fig4_large_s",
        "93e97c20461abab05e16d337bb779b690f4065d4ca2254ed8eb2de3856942365",
    ),
    (
        "rivals_grid",
        "b57b774cfb3eaf078f5dab941ec42121f1a8d1b297807089d6ae2405a680d9fb",
    ),
    (
        "agent_adversarial",
        "0867e3b29ff0ba61dcfb432bc3d6c2d2ad8fbafe6a777590c6cb14dd904f4965",
    ),
];

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Minimum time spent in measured sweeps.
    pub seconds: Duration,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.json` and
    /// `<workload>.layers.json`.
    pub trace_out: Option<PathBuf>,
}

/// A measured run's verdict and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Trials attempted across the measured sweeps.
    pub attempted: u64,
    /// Trials that failed: ended `MaxSteps`/`Stuck`, or an exact protocol
    /// reached the wrong consensus.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or per-layer metrics (traced).
    pub values: Values,
    /// What each failed check found.
    pub problems: Vec<String>,
    /// Sweeps measured.
    pub sweeps: usize,
    /// Median sweep wall time before scaling to the nominal machine.
    pub raw_wall_s: f64,
    /// Median two-thread reference probe over the run, ns per operation.
    pub pair_ns: f64,
}

/// Measures `workload` under `opts`.
///
/// # Errors
///
/// I/O failures and library errors; failed checks are reported in the
/// [`Outcome`] instead.
pub fn run(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let work = WorkDir::new(workload)?;
    let tracer = Rc::new(Tracer::new(workload.name(), opts.trace));
    let build_plan = || workload.plan(opts.seed);

    let mut probes = vec![refkernel::pair_ns_per_op()];
    let mut setup = Vec::new();
    let mut exports = Vec::new();
    let mut csv = Vec::new();
    let mut sweeps: Vec<SweepRecord> = Vec::new();
    let mut replayed = None;
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    let started = Instant::now();
    let tally = loop {
        let (plan, mut tally, mut record) =
            tracer.span("sweep", || sweep_once(&build_plan, &work, &tracer))?;
        attempted += tally.trials;
        failed += tally.failed;
        problems.append(&mut tally.problems);
        // The machine speed around this sweep: the probes just before and
        // just after it.
        let probe = refkernel::pair_ns_per_op();
        probes.push(probe);
        record.scale = NOMINAL_PAIR_NS / stats::median(&probes[probes.len() - 2..]);
        let last_wall = Duration::from_secs_f64(record.wall_s);
        sweeps.push(record);

        // Set-up and export repetitions ride along after every sweep, so
        // they sample the same machine states the sweeps do. They run on
        // one thread and allocate heavily, so each block is scaled by the
        // single-threaded allocation probe taken just before it.
        let scale = NOMINAL_CHURN_NS / refkernel::churn_ns_per_op();
        tracer.span("setup", || -> Result<(), String> {
            for _ in 0..SETUP_REPS {
                let began = Instant::now();
                let built = tracer.span("store.plan_build", build_plan)?;
                let store = tracer.span("store.open", || Store::open(work.path("empty")));
                setup.push(began.elapsed().as_secs_f64() * scale);
                drop((built, store.map_err(io)?));
            }
            Ok(())
        })?;
        let scale = NOMINAL_CHURN_NS / refkernel::churn_ns_per_op();
        for _ in 0..EXPORT_REPS {
            let began = Instant::now();
            csv = tracer.span("export", || export_csv(&plan, &work.path("store"), &tracer))?;
            exports.push(began.elapsed().as_secs_f64() * scale);
        }
        for (stem, text) in &csv {
            let rows = text.lines().count().saturating_sub(1);
            if rows != plan.cells.len() {
                problems.push(format!(
                    "export {stem} has {rows} rows, expected {}",
                    plan.cells.len()
                ));
            }
        }

        if opts.trace && replayed.is_none() {
            let store = Store::open(work.path("store")).map_err(io)?;
            let scratch = work.fresh("replay")?;
            let result = tracer.span("replay", || {
                replay::replay(&plan, &store, &tracer, &scratch)
            })?;
            replayed = Some(result);
        }
        // Start no sweep that would likely end past the run's time.
        if started.elapsed() + last_wall >= opts.seconds {
            break tally;
        }
    };

    if opts.seed == 0 {
        check_digest(workload, &digest(&csv, &tally.cell_steps), &mut problems);
    }

    let values = if let Some(mut replayed) = replayed {
        problems.append(&mut replayed.mismatches);
        let layers = layer_values(&tracer, &sweeps, &tally, &replayed);
        if let Some(dir) = &opts.trace_out {
            write_trace(dir, workload, &tracer, &layers)?;
        }
        metrics::check(&PER_LAYER, &layers)?;
        layers
    } else {
        let walls: Vec<f64> = sweeps.iter().map(SweepRecord::scaled_wall_s).collect();
        let values = end_to_end_values(&walls, &tally, &setup, &exports, peak_rss_mb()?);
        metrics::check(&END_TO_END, &values)?;
        values
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        values,
        problems,
        sweeps: sweeps.len(),
        raw_wall_s: stats::median(&sweeps.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
        pair_ns: stats::median(&probes),
    })
}

fn io(e: std::io::Error) -> String {
    format!("I/O error: {e}")
}

/// A private scratch directory in the working directory, removed on drop.
struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    fn new(workload: Workload) -> Result<WorkDir, String> {
        let root = std::env::current_dir()
            .map_err(io)?
            .join(".sweep_bench_work")
            .join(format!("{}-{}", workload.name(), std::process::id()));
        let work = WorkDir { root };
        work.fresh("")?;
        Ok(work)
    }

    fn path(&self, leaf: &str) -> PathBuf {
        self.root.join(leaf)
    }

    /// `path(leaf)`, emptied.
    fn fresh(&self, leaf: &str) -> Result<PathBuf, String> {
        let path = self.path(leaf);
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(io)?;
        }
        Ok(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Per-sweep measurements.
struct SweepRecord {
    /// Plan build through the last `compact`, as measured.
    wall_s: f64,
    /// Factor to the nominal machine ([`NOMINAL_PAIR_NS`]).
    scale: f64,
    /// Σ `harness.cell_run` − Σ `BatchStats.wall` (traced sweeps only).
    batch_overhead_ms: f64,
    /// Σ worker busy time over (workers × Σ batch wall).
    worker_busy_frac: f64,
    /// `run_sharded` time outside the cells' computations: manifest
    /// hashing, store lookups, journal lines and record appends (traced
    /// sweeps only).
    outside_cells_ms: f64,
}

impl SweepRecord {
    fn scaled_wall_s(&self) -> f64 {
        self.wall_s * self.scale
    }
}

/// One closed-loop sweep into a fresh store.
fn sweep_once(
    plan: &impl Fn() -> Result<Plan, String>,
    work: &WorkDir,
    tracer: &Rc<Tracer>,
) -> Result<(Plan, Tally, SweepRecord), String> {
    let dir = work.fresh("store")?;
    let cell_runs_before = tracer.durations("harness.cell_run").len();
    let stats = StatsCollector::new();
    let started = Instant::now();
    let plan = traced_cells(tracer.span("store.plan_build", plan)?, tracer);
    let mut store = tracer
        .span("store.open", || Store::open(&dir))
        .map_err(io)?;
    let (outcome, run_ns) = tracer.timed("sweep.run", || {
        sweep::run_sharded(&mut store, &plan, &stats, false, Shard::full())
    });
    let outcome = outcome.map_err(io)?;
    tracer
        .span("store.compact", || store.compact())
        .map_err(io)?;
    let wall_s = started.elapsed().as_secs_f64();

    let batches = stats.snapshot();
    let cell_run_ns: f64 = tracer.durations("harness.cell_run")[cell_runs_before..]
        .iter()
        .sum();
    let busy: f64 = batches.worker_busy.iter().map(Duration::as_secs_f64).sum();
    let capacity = batches.wall.as_secs_f64() * batches.worker_busy.len() as f64;
    let record = SweepRecord {
        wall_s,
        scale: 1.0,
        batch_overhead_ms: (cell_run_ns - batches.wall.as_nanos() as f64) / 1e6,
        outside_cells_ms: (run_ns as f64 - cell_run_ns) / 1e6,
        worker_busy_frac: busy / capacity,
    };
    let tally = tally(&plan, &store, outcome);
    Ok((plan, tally, record))
}

/// With tracing on, wraps every cell's computation in a `harness.cell_run`
/// span; the manifests (and so the sweep's results) are untouched.
fn traced_cells(plan: Plan, tracer: &Rc<Tracer>) -> Plan {
    if !tracer.enabled() {
        return plan;
    }
    let cells = plan
        .cells
        .into_iter()
        .map(|cell| {
            let tracer = Rc::clone(tracer);
            let run = cell.run;
            Cell {
                run: Box::new(move |stats| tracer.span("harness.cell_run", || run(stats))),
                ..cell
            }
        })
        .collect();
    Plan { cells, ..plan }
}

/// What one sweep's records say, summed over cells.
#[derive(Debug, Default, Clone)]
struct Tally {
    trials: u64,
    failed: u64,
    /// `sim.steps` of each cell, in plan order.
    cell_steps: Vec<u64>,
    steps: u64,
    events: u64,
    chunks: u64,
    phase_switches: u64,
    problems: Vec<String>,
}

/// Reads one sweep's outcome back from the store and checks it.
fn tally(plan: &Plan, store: &Store, outcome: SweepOutcome) -> Tally {
    let mut t = Tally::default();
    if outcome.ran != plan.cells.len() {
        t.problems.push(format!(
            "sweep ran {} of {} cells",
            outcome.ran,
            plan.cells.len()
        ));
    }
    for cell in &plan.cells {
        let label = &cell.label;
        let Some(record) = store.get(&cell.manifest.hash()) else {
            t.problems.push(format!("{label}: no record"));
            continue;
        };
        let (Some(telemetry), Some(trials)) = (&record.result.telemetry, &record.result.trials)
        else {
            t.problems
                .push(format!("{label}: record lacks trials or telemetry"));
            continue;
        };
        let sim = |key: &str| telemetry.sim.counter(key).unwrap_or(0);
        let ran = sim(keys::SIM_TRIALS);
        let converged = sim(keys::SIM_TRIALS_CONVERGED);
        let runs = cell
            .manifest
            .get("runs")
            .and_then(|r| r.parse::<u64>().ok());
        if runs != Some(ran) {
            t.problems
                .push(format!("{label}: {ran} trials ran, manifest says {runs:?}"));
        }
        if trials.samples.len() as u64 != converged {
            t.problems.push(format!(
                "{label}: {} samples for {converged} converged trials",
                trials.samples.len()
            ));
        }
        // three_state's wrong answers are its measured result; every other
        // protocol here is exact, so a wrong consensus is a failure. Grid
        // cells record their wrong answers, fig3's error fraction counts
        // unconverged trials as errors too, and fig4 records neither.
        let exact = cell.manifest.get("protocol") != Some("three_state");
        let unconverged = ran.saturating_sub(converged);
        let wrong = match record.result.value("wrong") {
            _ if !exact => 0,
            Some(wrong) => wrong as u64,
            None => ((trials.error_fraction * trials.total_runs as f64).round() as u64)
                .saturating_sub(unconverged),
        };
        t.trials += ran;
        t.failed += unconverged + wrong;
        let steps = sim(keys::SIM_STEPS);
        t.cell_steps.push(steps);
        t.steps += steps;
        t.events += sim(keys::SIM_EVENTS);
        t.chunks += sim("sim.chunks");
        t.phase_switches += sim("sim.phase_switches");
    }
    t
}

/// `avc export` minus the file writes: `(stem, csv)` per table.
fn export_csv(plan: &Plan, dir: &Path, tracer: &Tracer) -> Result<Vec<(String, String)>, String> {
    let store = tracer.span("store.open", || Store::open(dir)).map_err(io)?;
    tracer.span("store.export", || {
        let export = sweep::export(&store, plan)?;
        Ok(export
            .tables
            .iter()
            .map(|(stem, table)| (stem.clone(), table.to_csv()))
            .collect())
    })
}

/// The correctness digest: every exported CSV (stem, then bytes) followed
/// by each cell's `sim.steps`, in plan order.
fn digest(csv: &[(String, String)], cell_steps: &[u64]) -> String {
    let mut text = String::new();
    for (stem, body) in csv {
        text.push_str(stem);
        text.push('\n');
        text.push_str(body);
    }
    for steps in cell_steps {
        text.push_str(&format!("{steps}\n"));
    }
    sha256_hex(text.as_bytes())
}

fn check_digest(workload: Workload, got: &str, problems: &mut Vec<String>) {
    let pinned = SEED0_DIGESTS
        .iter()
        .find(|(name, _)| *name == workload.name())
        .map(|(_, d)| *d);
    if pinned != Some(got) {
        problems.push(format!(
            "seed-0 digest {got} differs from the pinned {}",
            pinned.unwrap_or("(none)")
        ));
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(io)?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn end_to_end_values(
    walls: &[f64],
    tally: &Tally,
    setup: &[f64],
    exports: &[f64],
    peak_rss_mb: f64,
) -> Values {
    let wall = stats::median(walls);
    Values::from([
        ("wall_s", wall),
        ("trials_per_s", tally.trials as f64 / wall),
        ("steps_per_s", tally.steps as f64 / wall),
        ("setup_s", stats::median(setup)),
        ("export_s", stats::median(exports)),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

fn layer_values(tracer: &Tracer, sweeps: &[SweepRecord], tally: &Tally, r: &Replay) -> Values {
    let ms = |ns: &[f64]| stats::median(ns) / 1e6;
    let sum_ms = |name: &str| tracer.durations(name).iter().sum::<f64>() / 1e6;
    let us = |name: &str| Timing::of(&tracer.durations(name)).p50 / 1e3;
    let trial = Timing::of(&tracer.durations("harness.trial"));
    let chunk = Timing::of(&r.chunk_ns);
    let per_sweep =
        |f: fn(&SweepRecord) -> f64| stats::median(&sweeps.iter().map(f).collect::<Vec<_>>());
    Values::from([
        (
            "store.plan_build_ms",
            ms(&tracer.durations("store.plan_build")),
        ),
        (
            "store.open_ms",
            ms(&tracer.durations_under("store.open", "export")),
        ),
        ("store.append_ms", sum_ms("store.append")),
        ("store.append_bytes", r.append_bytes as f64),
        ("store.journal_ms", sum_ms("store.journal")),
        ("store.export_ms", ms(&tracer.durations("store.export"))),
        (
            "store.sweep_outside_cells_ms",
            per_sweep(|s| s.outside_cells_ms),
        ),
        (
            "harness.cell_ms_p50",
            ms(&tracer.durations("harness.cell_run")),
        ),
        ("harness.trial_us_p50", trial.p50 / 1e3),
        ("harness.trial_us_tail", trial.tail / 1e3),
        ("harness.construct_us_p50", us("engine.construct")),
        ("harness.reset_us_p50", us("engine.reset")),
        (
            "harness.batch_overhead_ms",
            per_sweep(|s| s.batch_overhead_ms),
        ),
        (
            "harness.worker_busy_frac",
            per_sweep(|s| s.worker_busy_frac),
        ),
        ("telemetry.merge_us_p50", us("telemetry.merge")),
        ("telemetry.sink_overhead_frac", r.sink_ns / r.noop_ns - 1.0),
        ("driver.chunks", tally.chunks as f64),
        ("driver.chunk_us_p50", chunk.p50 / 1e3),
        ("driver.chunk_us_tail", chunk.tail / 1e3),
        ("engine.steps", tally.steps as f64),
        ("engine.events", tally.events as f64),
        (
            "engine.productive_frac",
            tally.events as f64 / tally.steps as f64,
        ),
        ("engine.ns_per_step", r.run_ns / r.steps as f64),
        ("engine.ns_per_event", r.run_ns / r.events as f64),
        ("engine.phase_switches", tally.phase_switches as f64),
        ("cached.table_build_ms", sum_ms("cached.table_build")),
        ("cached.table_mb_max", r.table_bytes_max as f64 / 1e6),
        ("cached.arithmetic_cells", r.arithmetic_cells as f64),
        ("protocols.transition_ns", r.transition_ns),
        ("machine.ref_ns_per_op", refkernel::ns_per_op()),
        ("trace.sweep_wall_s", per_sweep(SweepRecord::scaled_wall_s)),
    ])
}

/// Writes `<workload>.trace.json` (Chrome trace events) and
/// `<workload>.layers.json` (per-layer metrics with sample counts, and
/// per-span totals and self times).
fn write_trace(
    dir: &Path,
    workload: Workload,
    tracer: &Tracer,
    layers: &Values,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(io)?;
    let name = workload.name();
    std::fs::write(
        dir.join(format!("{name}.trace.json")),
        tracer.chrome_trace(),
    )
    .map_err(io)?;
    let spans = tracer.spans();
    let span_rows: Vec<String> = trace::summary(&spans)
        .into_iter()
        .map(|(span, (count, total, own))| {
            format!(
                "\"{span}\":{{\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
                total as f64 / 1e6,
                own as f64 / 1e6
            )
        })
        .collect();
    let timing_rows: Vec<String> = [
        "harness.trial",
        "engine.construct",
        "engine.reset",
        "telemetry.merge",
        "harness.cell_run",
    ]
    .into_iter()
    .map(|span| {
        let t = Timing::of(&tracer.durations(span));
        format!(
            "\"{span}\":{{\"p50_ns\":{},\"tail_ns\":{},\"tail_pct\":{},\"count\":{}}}",
            t.p50, t.tail, t.tail_pct, t.count
        )
    })
    .collect();
    let text = format!(
        "{{\"workload\":\"{name}\",\"per_layer\":{},\"timings\":{{{}}},\"spans\":{{{}}}}}\n",
        metrics::to_json(&PER_LAYER, layers),
        timing_rows.join(","),
        span_rows.join(",")
    );
    std::fs::write(dir.join(format!("{name}.layers.json")), text).map_err(io)
}
