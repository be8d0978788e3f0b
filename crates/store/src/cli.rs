//! The `avc` command-line interface.
//!
//! ```text
//! avc sweep <name> [flags]    run (or resume) a sweep, checkpointing cells
//!                             (--shard i/k executes one grid slice)
//! avc resume <name> [flags]   alias for `sweep` — resuming IS rerunning
//! avc merge <name> [flags]    fold shard stores into one unsharded store
//! avc export <name> [flags]   write the sweep's CSVs from the store
//! avc run <file> [flags]      execute one scenario (or grid) file
//! avc report <name> [flags]   render the sweep's telemetry
//! avc top [name] [flags]      tail the store's records as a sweep appends
//! avc ls [--cells]            list stored results by experiment
//! avc show <hash-prefix>      inspect one stored cell
//! avc help                    this summary plus the sweep registry
//! ```
//!
//! Shared flags: `--out DIR` (CSV directory, default `results`), `--store
//! DIR` (registry directory, default `<out>/store`), `--progress`,
//! `--serial` / `--threads N`, `--shard i/k`, plus each sweep's own flags
//! (`--quick`, `--runs`, `--seed`, …). Every command but `help` reads its
//! flags through their parsers and then rejects, before it prints or opens
//! anything, a value flag given bare, a flag nothing reads, and a token
//! nothing consumed (see [`Args::check`]), as it does a positional argument
//! it does not take. Regenerating a paper artifact is `avc sweep <name>`
//! followed by `avc export <name>`.

use crate::json::Json;
use crate::specs;
use crate::store::Store;
use crate::sweep::{self, Plan};
use avc_analysis::cli::{Args, FlagError};
use avc_analysis::harness::{Parallelism, ScenarioPlan, StatsCollector};
use avc_analysis::stats::Summary;
use avc_analysis::table::{fmt_num, Table};
use avc_population::telemetry::export::prometheus_text;
use avc_population::telemetry::metrics::bucket_bounds;
use avc_population::telemetry::{keys, CellTelemetry, HistogramSnapshot, RegistrySnapshot};
use avc_population::{ProtocolSpec, Scenario};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The flags every command takes, read through their parsers.
struct Shared {
    /// The CSV directory (`--out`, default `results`).
    out: String,
    /// The registry directory (`--store`, default `<out>/store`).
    store: PathBuf,
    /// A collector that prints progress under `--progress`.
    stats: StatsCollector,
    /// `--serial` or `--threads N`.
    parallelism: Parallelism,
    /// The grid slice to execute (`--shard i/k`, default the full grid).
    shard: sweep::Shard,
}

/// Reads the shared flags once a command has read its own, then checks
/// that nothing else was given (see [`Args::check`]). A command calls it
/// before it prints or opens anything; the error names `scope` (the sweep,
/// or the command) and the flag.
fn check_flags(scope: &str, args: &Args) -> Result<Shared, String> {
    shared_flags(args).map_err(|e| format!("{scope}: {e}"))
}

/// [`check_flags`] before the error names its scope.
fn shared_flags(args: &Args) -> Result<Shared, FlagError> {
    let out = args.get("out").unwrap_or("results").to_string();
    let shard = match args.get("shard") {
        Some(text) => sweep::Shard::parse(text).map_err(|e| FlagError::new("shard", e))?,
        None => sweep::Shard::full(),
    };
    let shared = Shared {
        store: args
            .get("store")
            .map_or_else(|| Path::new(&out).join("store"), PathBuf::from),
        stats: if args.flag("progress") {
            StatsCollector::verbose()
        } else {
            StatsCollector::new()
        },
        parallelism: args.parallelism()?,
        shard,
        out,
    };
    args.check()?;
    Ok(shared)
}

/// The plan of the sweep `name` and the shared flags, once the command has
/// read its own flags (see [`check_flags`]).
fn build_plan(name: &str, args: &Args) -> Result<(Plan, Shared), String> {
    // A name ending in `.json` is a scenario-grid file, not a registered
    // spec module — the route by which new protocols get comparison sweeps
    // without new Rust code (see `scenario_grid`).
    let plan = if name.ends_with(".json") {
        crate::scenario_grid::load_plan(name, args)?
    } else {
        let plan = specs::try_build(name, args).ok_or_else(|| {
            let known: Vec<&str> = specs::SWEEPS.iter().map(|spec| spec.name).collect();
            format!(
                "unknown sweep `{name}` — known sweeps: {} (or a path to a scenario-grid \
                 *.grid.json file)",
                known.join(", ")
            )
        })?;
        plan.map_err(|e| format!("{name}: {e}"))?
    };
    Ok((plan, check_flags(name, args)?))
}

fn cmd_sweep(name: &str, args: &Args) -> Result<(), String> {
    let (plan, shared) = build_plan(name, args)?;
    println!("== avc sweep {name} ==");
    println!("{}", plan.banner);
    if !shared.shard.is_full() {
        println!("shard {} of the cell grid", shared.shard);
    }
    println!();
    let mut store = Store::open(shared.store).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let outcome = sweep::run_sharded(&mut store, &plan, &shared.stats, true, shared.shard)
        .map_err(|e| format!("store append failed: {e}"))?;
    store
        .compact()
        .map_err(|e| format!("store compaction failed: {e}"))?;
    let foreign = if outcome.foreign > 0 {
        format!(", {} on other shards", outcome.foreign)
    } else {
        String::new()
    };
    println!(
        "sweep {name}: {} cells ran, {} cached{foreign}, {:.1}s wall (store: {})",
        outcome.ran,
        outcome.cached,
        started.elapsed().as_secs_f64(),
        store.records_path().display()
    );
    Ok(())
}

/// `avc merge <name> --stores DIR1,DIR2,... [--store DIR]`: folds shard
/// stores into the destination store in plan grid order (see
/// [`sweep::merge`] for the byte-identity contract).
fn cmd_merge(name: &str, args: &Args) -> Result<(), String> {
    let stores_arg = args.get("stores");
    let (plan, shared) = build_plan(name, args)?;
    let stores_arg =
        stores_arg.ok_or("merge needs --stores DIR1,DIR2,... (the shard store directories)")?;
    let sources: Vec<Store> = stores_arg
        .split(',')
        .map(|dir| Store::open(dir.trim()).map_err(|e| format!("{dir}: {e}")))
        .collect::<Result<_, String>>()?;
    let mut dest = Store::open(shared.store).map_err(|e| e.to_string())?;
    let appended = sweep::merge(&mut dest, &plan, &sources)?;
    println!(
        "merge {name}: {appended} cells merged from {} shard store(s) into {}",
        sources.len(),
        dest.records_path().display()
    );
    Ok(())
}

fn cmd_export(name: &str, args: &Args) -> Result<(), String> {
    let (plan, shared) = build_plan(name, args)?;
    let store = Store::open(shared.store).map_err(|e| e.to_string())?;
    let export = sweep::export(&store, &plan)?;
    for (stem, table) in &export.tables {
        let path = Path::new(&shared.out).join(format!("{stem}.csv"));
        table
            .write_csv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("{}", table.to_markdown());
        println!("[written to {}]\n", path.display());
    }
    for line in &export.trailer {
        println!("{line}");
    }
    Ok(())
}

fn cmd_ls(args: &Args) -> Result<(), String> {
    let (wide, list_cells) = (args.flag("wide"), args.flag("cells"));
    let store = Store::open(check_flags("ls", args)?.store).map_err(|e| e.to_string())?;
    if store.is_empty() {
        println!("store {} is empty", store.records_path().display());
        return Ok(());
    }
    // Group the latest records by experiment, keeping registry order.
    for spec in specs::SWEEPS {
        let cells: Vec<_> = store
            .iter_latest()
            .filter(|r| r.manifest.experiment == spec.name)
            .collect();
        if cells.is_empty() {
            continue;
        }
        let wall: u64 = cells.iter().map(|r| r.wall_ms).sum();
        println!(
            "{}: {} cells, {:.1}s compute — {}",
            spec.name,
            cells.len(),
            wall as f64 / 1e3,
            spec.description
        );
        if list_cells || wide {
            for r in &cells {
                if wide {
                    // Wall time plus throughput from the telemetry block,
                    // when the cell recorded one.
                    let (steps, rate) = steps_and_rate(r.result.telemetry.as_ref());
                    println!(
                        "  {}  {:<28} {:>9.1}s  {:>14} steps  {:>10} steps/s",
                        &r.hash[..12],
                        r.manifest.get("cell").unwrap_or("?"),
                        r.wall_ms as f64 / 1e3,
                        steps,
                        rate
                    );
                } else {
                    println!(
                        "  {}  {}  ({:.1}s)",
                        &r.hash[..12],
                        r.manifest.get("cell").unwrap_or("?"),
                        r.wall_ms as f64 / 1e3
                    );
                }
            }
        }
    }
    let strays = store
        .iter_latest()
        .filter(|r| {
            specs::SWEEPS
                .iter()
                .all(|spec| spec.name != r.manifest.experiment)
        })
        .count();
    if strays > 0 {
        println!("(+ {strays} cells from unregistered experiments)");
    }
    Ok(())
}

/// A cell's total steps and steps per second, `-` where its record has no
/// telemetry (or, for the rate, no wall time).
fn steps_and_rate(telemetry: Option<&CellTelemetry>) -> (String, String) {
    let steps = telemetry
        .and_then(|t| t.sim.counter(keys::SIM_STEPS))
        .map_or("-".to_string(), |s| s.to_string());
    let rate = telemetry
        .and_then(CellTelemetry::steps_per_sec)
        .map_or("-".to_string(), |r| format!("{r:.3e}"));
    (steps, rate)
}

fn cmd_show(prefix: &str, args: &Args) -> Result<(), String> {
    let store = Store::open(check_flags("show", args)?.store).map_err(|e| e.to_string())?;
    let hits = store.find_by_prefix(prefix);
    match hits.as_slice() {
        [] => Err(format!("no stored cell matches `{prefix}`")),
        [record] => {
            println!("{}", record.manifest.to_json().to_string_pretty());
            println!("hash: {}", record.hash);
            println!("wall: {:.1}s", record.wall_ms as f64 / 1e3);
            if let Some(trials) = &record.result.trials {
                println!(
                    "trials: {} runs, {} converged samples, error fraction {}",
                    trials.total_runs,
                    trials.samples.len(),
                    trials.error_fraction
                );
            }
            for (stem, rows) in &record.result.tables {
                println!("table {stem}: {} row(s)", rows.len());
                for row in rows {
                    println!("  {}", row.join(" | "));
                }
            }
            for (key, value) in &record.result.values {
                println!("value {key} = {value}");
            }
            for note in &record.result.notes {
                println!("note: {note}");
            }
            Ok(())
        }
        many => {
            println!("{} cells match `{prefix}`:", many.len());
            for r in many {
                println!(
                    "  {}  {} / {}",
                    &r.hash[..12],
                    r.manifest.experiment,
                    r.manifest.get("cell").unwrap_or("?")
                );
            }
            Ok(())
        }
    }
}

/// Renders a log₂-bucket histogram as an indented bar chart.
fn render_histogram(title: &str, unit: &str, h: &HistogramSnapshot) -> String {
    let mut out = format!("{title}: {} samples", h.count);
    if let Some(mean) = h.mean() {
        out.push_str(&format!(", mean {} {unit}", fmt_num(mean)));
    }
    if let Some(p50) = h.quantile_bound(0.5) {
        out.push_str(&format!(", p50 <= {p50} {unit}"));
    }
    if let Some(p90) = h.quantile_bound(0.9) {
        out.push_str(&format!(", p90 <= {p90} {unit}"));
    }
    let buckets = h.nonzero_buckets();
    let max = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1);
    for (index, count) in buckets {
        let (lo, hi) = bucket_bounds(index);
        let bar = "#".repeat(((count * 40).div_ceil(max)) as usize);
        out.push_str(&format!("\n  [{lo:>13} .. {hi:>13}] {count:>9}  {bar}"));
    }
    out
}

fn cmd_report(name: &str, args: &Args) -> Result<(), String> {
    let prometheus = args.flag("prometheus");
    let (plan, shared) = build_plan(name, args)?;
    let store = Store::open(shared.store).map_err(|e| e.to_string())?;
    let mut aggregate = CellTelemetry::new();
    let mut table = Table::new(
        format!("telemetry: {name}"),
        [
            "cell",
            "trials",
            "converged",
            "steps",
            "events",
            "silent",
            "steps/s",
            "wall_s",
        ],
    );
    let mut missing = 0usize;
    let mut stored = 0usize;
    let mut table_builds = 0u64;
    let mut workers = WorkerUse::default();
    let mut shards = ShardUse::default();
    for cell in &plan.cells {
        let Some(record) = store.get(&cell.manifest.hash()) else {
            missing += 1;
            continue;
        };
        stored += 1;
        let Some(telemetry) = &record.result.telemetry else {
            missing += 1;
            continue;
        };
        aggregate.merge(telemetry);
        workers.add(&telemetry.wall);
        shards.add(telemetry);
        table_builds += u64::from(
            telemetry
                .wall
                .counter(keys::WALL_TABLE_BUILD_NS)
                .is_some_and(|ns| ns > 0),
        );
        let sim = &telemetry.sim;
        let counter = |key: &str| sim.counter(key).map_or("-".to_string(), |v| v.to_string());
        let silent = match (
            sim.counter(keys::SIM_SILENT_STEPS),
            sim.counter(keys::SIM_STEPS),
        ) {
            (Some(silent), Some(steps)) if steps > 0 => {
                format!("{:.1}%", silent as f64 * 100.0 / steps as f64)
            }
            _ => "-".to_string(),
        };
        table.push_row([
            cell.label.clone(),
            counter(keys::SIM_TRIALS),
            counter(keys::SIM_TRIALS_CONVERGED),
            counter(keys::SIM_STEPS),
            counter(keys::SIM_EVENTS),
            silent,
            telemetry
                .steps_per_sec()
                .map_or("-".to_string(), |r| format!("{r:.3e}")),
            format!("{:.1}", record.wall_ms as f64 / 1e3),
        ]);
    }
    if aggregate.is_empty() {
        // Only scenario batches run an engine the harness instruments.
        let batches = plan.cells.iter().any(|c| c.batch.is_some());
        return Err(if stored == 0 {
            format!("no cells of `{name}` stored — run `avc sweep {name}` with the same flags")
        } else if !batches {
            format!("`{name}` runs no scenario batch, so its cells record no engine telemetry")
        } else {
            format!(
                "the stored cells of `{name}` predate its telemetry — delete them and rerun \
                 `avc sweep {name}` to backfill"
            )
        });
    }

    if prometheus {
        // One merged exposition: sim and wall key spaces are disjoint.
        let mut merged = aggregate.sim.clone();
        merged.merge(&aggregate.wall);
        print!("{}", prometheus_text(&merged));
        return Ok(());
    }

    println!("{}", table.to_markdown());
    if missing > 0 {
        println!(
            "({missing} of {} cells have no telemetry)\n",
            plan.cells.len()
        );
    }
    if let Some(shards) = shards.table() {
        println!("{}", shards.to_markdown());
    }
    if let Some(chunks) = aggregate.sim.histogram("sim.chunk_steps") {
        println!("{}\n", render_histogram("chunk sizes", "steps", chunks));
    }
    if let Some(latency) = aggregate.wall.histogram(keys::WALL_CHUNK_NS) {
        println!("{}\n", render_histogram("chunk latency", "ns", latency));
    }
    if let Some(line) = table_build_line(&aggregate, table_builds) {
        println!("{line}");
    }
    if let Some(line) = workers.line() {
        println!("{line}");
    }
    let trials = aggregate.sim.counter(keys::SIM_TRIALS).unwrap_or(0);
    let converged = aggregate
        .sim
        .counter(keys::SIM_TRIALS_CONVERGED)
        .unwrap_or(0);
    print!("convergence: {converged}/{trials} trials");
    if let Some(conv) = aggregate.sim.histogram(keys::SIM_CONVERGENCE_STEPS) {
        if let Some(mean) = conv.mean() {
            print!(", mean {} steps", fmt_num(mean));
        }
        if let Some(p90) = conv.quantile_bound(0.9) {
            print!(", p90 <= {p90} steps");
        }
    }
    println!();
    Ok(())
}

/// Where a sweep's time went besides its trial batches: the dense table
/// builds beside the batch wall. `None` without wall telemetry (records
/// from before the key, or stored under `AVC_TELEMETRY_NOWALL`).
fn table_build_line(aggregate: &CellTelemetry, builds: u64) -> Option<String> {
    let build_ns = aggregate.wall.counter(keys::WALL_TABLE_BUILD_NS)?;
    let batch_ns = aggregate.wall.counter(keys::WALL_CELL_NS).unwrap_or(0);
    Some(format!(
        "table build: {:.1} ms in {builds} build(s), beside {:.1} ms in trial batches",
        build_ns as f64 / 1e6,
        batch_ns as f64 / 1e6
    ))
}

/// How busy a sweep's workers were, summed over its cells: their busy time
/// against the capacity of each cell's workers over its share of the wall
/// clock.
#[derive(Debug, Default)]
struct WorkerUse {
    busy_ns: u64,
    capacity_ns: u64,
    batch_ns: u64,
    /// The distinct worker counts the cells ran with.
    threads: BTreeSet<u64>,
}

impl WorkerUse {
    /// Adds one cell's `wall` registry; cells without worker telemetry
    /// (stored under `AVC_TELEMETRY_NOWALL`, or before the keys) add nothing.
    fn add(&mut self, wall: &RegistrySnapshot) {
        let (Some(cell_ns), Some(busy_ns), Some(workers)) = (
            wall.counter(keys::WALL_CELL_NS),
            wall.counter(keys::WALL_WORKER_BUSY_NS),
            wall.gauge(keys::WALL_WORKERS),
        ) else {
            return;
        };
        self.busy_ns += busy_ns;
        self.capacity_ns += cell_ns * workers;
        self.batch_ns += cell_ns;
        self.threads.insert(workers);
    }

    /// `workers: W threads busy X% of Y s in trial batches`, or `None` when
    /// no cell added worker telemetry.
    fn line(&self) -> Option<String> {
        let (fewest, most) = (self.threads.first()?, self.threads.last()?);
        let threads = if fewest == most {
            fewest.to_string()
        } else {
            format!("{fewest}-{most}")
        };
        let busy = if self.capacity_ns > 0 {
            format!(
                "{:.1}%",
                self.busy_ns as f64 * 100.0 / self.capacity_ns as f64
            )
        } else {
            "-".to_string()
        };
        Some(format!(
            "workers: {threads} threads busy {busy} of {:.2} s in trial batches",
            self.batch_ns as f64 / 1e9
        ))
    }
}

/// Wall time and throughput per shard invocation, from the shard gauges
/// that `--shard i/k` runs (`k > 1`) set in each cell's `wall` registry.
#[derive(Debug, Default)]
struct ShardUse {
    /// `(cells, trials, wall ns)` per `(k, i)`.
    by_shard: std::collections::BTreeMap<(u64, u64), (u64, u64, u64)>,
}

impl ShardUse {
    /// Adds one cell; cells without shard gauges (unsharded runs, or
    /// stored under `AVC_TELEMETRY_NOWALL`) add nothing.
    fn add(&mut self, telemetry: &CellTelemetry) {
        let wall = &telemetry.wall;
        let (Some(index), Some(count)) = (
            wall.gauge(keys::WALL_SHARD_INDEX),
            wall.gauge(keys::WALL_SHARD_COUNT),
        ) else {
            return;
        };
        let slot = self.by_shard.entry((count, index)).or_default();
        slot.0 += 1;
        slot.1 += telemetry.sim.counter(keys::SIM_TRIALS).unwrap_or(0);
        slot.2 += wall.counter(keys::WALL_CELL_NS).unwrap_or(0);
    }

    /// One row per shard, in `i/k` order; `None` when no cell added a
    /// shard, so unsharded sweeps print nothing extra.
    fn table(&self) -> Option<Table> {
        if self.by_shard.is_empty() {
            return None;
        }
        let mut table = Table::new(
            "per-shard wall time",
            ["shard", "cells", "trials", "wall_s", "trials/s"],
        );
        for (&(count, index), &(cells, trials, wall_ns)) in &self.by_shard {
            let wall_s = wall_ns as f64 / 1e9;
            let rate = if wall_ns > 0 {
                format!("{:.1}", trials as f64 / wall_s)
            } else {
                "-".to_string()
            };
            table.push_row([
                format!("{index}/{count}"),
                cells.to_string(),
                trials.to_string(),
                format!("{wall_s:.1}"),
                rate,
            ]);
        }
        Some(table)
    }
}

fn cmd_top(name: Option<&str>, args: &Args) -> Result<(), String> {
    let scope = name.unwrap_or("top");
    let last = args
        .get_u64("last", 10)
        .map_err(|e| format!("{scope}: {e}"))? as usize;
    let watch = args.flag("watch");
    // With a sweep name, show only that plan's cells (flags must match the
    // running sweep's); without one, show every stored cell.
    let (filter, dir) = match name {
        Some(name) => {
            let (plan, shared) = build_plan(name, args)?;
            let hashes = plan.cells.iter().map(|c| c.manifest.hash());
            (Some(hashes.collect::<BTreeSet<_>>()), shared.store)
        }
        None => (None, check_flags(scope, args)?.store),
    };
    loop {
        // Opening reads `records.jsonl` up to its last complete line and
        // takes no lock, so it never disturbs the sweep appending to it.
        let store = Store::open(&dir).map_err(|e| e.to_string())?;
        let records: Vec<_> = store
            .iter()
            .filter(|r| filter.as_ref().is_none_or(|f| f.contains(&r.hash)))
            .collect();
        let total_steps: u64 = records
            .iter()
            .filter_map(|r| r.result.telemetry.as_ref()?.sim.counter(keys::SIM_STEPS))
            .sum();
        println!(
            "{} cell(s) stored, {total_steps} steps total — showing last {}",
            records.len(),
            last.min(records.len())
        );
        for r in records.iter().rev().take(last).rev() {
            let (steps, rate) = steps_and_rate(r.result.telemetry.as_ref());
            println!(
                "  {}  {:<28} {:>14} steps  {:>10} steps/s",
                &r.hash[..12],
                r.manifest.get("cell").unwrap_or("?"),
                steps,
                rate
            );
        }
        if !watch {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(2));
        println!();
    }
}

/// `avc run <scenario.json>`: executes one declarative scenario file —
/// or a whole scenario grid (any file with a top-level `cells` array) —
/// end-to-end through the shared harness and prints the outcome summary.
/// Grid runs honor `--quick`.
fn cmd_run(path: &str, args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let grid = crate::scenario_grid::is_grid(&json);
    // `--quick` is a flag of grid files only.
    let quick = grid && args.flag("quick");
    let shared = check_flags("run", args)?;
    if grid {
        return cmd_run_grid(path, &json, quick, &shared);
    }
    let scenario = Scenario::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    println!("== avc run {path} ==");
    let plan = ScenarioPlan::new(scenario).parallelism(shared.parallelism);
    run_scenario(&plan, &shared.stats);
    Ok(())
}

/// Runs every cell of a scenario grid store-free (the `avc run` analogue of
/// a grid sweep) and prints a per-grid wrong-consensus tally. The cells
/// share one collector, and so one worker pool; as in a sweep, each cell's
/// batch is queued while the cell before it runs.
fn cmd_run_grid(path: &str, json: &Json, quick: bool, shared: &Shared) -> Result<(), String> {
    let grid =
        crate::scenario_grid::ScenarioGrid::from_json(json).map_err(|e| format!("{path}: {e}"))?;
    let cells = grid.profile_cells(quick);
    println!("== avc run {path} ==");
    println!(
        "grid {}: {}{} — {} of {} cell(s)",
        grid.name,
        grid.banner,
        if quick { " [quick profile]" } else { "" },
        cells.len(),
        grid.cells.len()
    );
    let stats = &shared.stats;
    let plans: Vec<ScenarioPlan> = cells
        .iter()
        .map(|cell| ScenarioPlan::new(cell.scenario.clone()).parallelism(shared.parallelism))
        .collect();
    if let Some(first) = plans.first() {
        stats.queue(first);
    }
    let mut wrong_total = 0u64;
    for (i, (cell, plan)) in cells.iter().zip(&plans).enumerate() {
        if let Some(next) = plans.get(i + 1) {
            stats.queue(next);
        }
        println!("\n-- cell {} --", cell.label);
        wrong_total += run_scenario(plan, stats);
    }
    println!(
        "\ngrid {}: {} cell(s) ran, wrong_consensus={wrong_total}",
        grid.name,
        cells.len()
    );
    Ok(())
}

/// Executes one scenario through the shared harness, prints its summary
/// block, and returns the number of wrong-consensus runs.
fn run_scenario(plan: &ScenarioPlan, stats: &StatsCollector) -> u64 {
    let scenario = plan.scenario();
    println!(
        "scenario {}: {} on n = {} (a = {}, b = {}), engine {}, scheduler {}, \
         {} fault(s), {} runs, seed {}",
        &scenario.hash()[..12],
        scenario.protocol,
        scenario.instance.population(),
        scenario.instance.a(),
        scenario.instance.b(),
        scenario.engine,
        scenario.scheduler,
        scenario.faults.len(),
        scenario.runs,
        scenario.seed
    );
    let started = std::time::Instant::now();
    let (results, telemetry) = plan.run_with_telemetry(stats);
    let wall = started.elapsed().as_secs_f64();

    let tally = results.tally();
    println!(
        "outcomes: {} correct, {} wrong, {} timed out, {} stuck (error fraction {})",
        tally.correct,
        tally.wrong,
        tally.timed_out,
        tally.stuck,
        fmt_num(results.error_fraction())
    );
    let times = results.converged_times();
    if times.is_empty() {
        println!("no run converged within the step budget");
    } else {
        let summary = Summary::from_samples(&times);
        println!(
            "parallel time: mean {} ± {}, median {}, range [{}, {}]",
            fmt_num(summary.mean),
            fmt_num(summary.std_error()),
            fmt_num(summary.median),
            fmt_num(summary.min),
            fmt_num(summary.max)
        );
    }
    let steps = telemetry
        .sim
        .counter(keys::SIM_STEPS)
        .map_or("-".to_string(), |s| s.to_string());
    let rate = telemetry
        .steps_per_sec()
        .map_or("-".to_string(), |r| format!("{r:.3e}"));
    println!("telemetry: {steps} steps, {rate} steps/s, {wall:.1}s wall");
    tally.wrong
}

fn usage() -> String {
    let mut out = String::from(
        "usage: avc <command> [flags]\n\
         \n\
         commands:\n\
         \x20 sweep <name>    run (or resume) a sweep, checkpointing each cell\n\
         \x20                 (--shard i/k runs the i-th of k grid slices)\n\
         \x20 resume <name>   alias for sweep\n\
         \x20 merge <name>    fold shard stores (--stores DIR1,DIR2,...) into\n\
         \x20                 --store, ordered like an unsharded sweep\n\
         \x20 run <file>      execute one scenario JSON file — or a whole\n\
         \x20                 *.grid.json grid — end-to-end\n\
         \x20                 (see examples/scenarios/)\n\
         \x20 export <name>   write the sweep's results/*.csv from the store\n\
         \x20 report <name>   render the sweep's telemetry (throughput table,\n\
         \x20                 chunk histograms, convergence; --prometheus)\n\
         \x20 top [name]      tail the store's records as a sweep appends\n\
         \x20                 (--last N, --watch)\n\
         \x20 ls [--cells|--wide]  list stored results by experiment\n\
         \x20 show <hash>     inspect one stored cell by hash prefix\n\
         \x20 help            this message\n\
         \n\
         flags: --out DIR (default results), --store DIR (default <out>/store),\n\
         \x20      --progress, --serial | --threads N, --shard i/k, plus\n\
         \x20      per-sweep flags (--quick, --runs N, --seed N, ...)\n\
         \n\
         sweeps:\n",
    );
    for spec in specs::SWEEPS {
        out.push_str(&format!("  {:<16} {}\n", spec.name, spec.description));
    }
    out.push_str(
        "\x20 <path>.json      any scenario-grid file (examples/scenarios/*.grid.json)\n\
         \n\
         protocols (scenario \"protocol\" strings):\n",
    );
    // Derived from the same canonical list as the parser and its error
    // hint, so the help can never drift from what `FromStr` accepts.
    for (name, params) in ProtocolSpec::SYNTAX {
        out.push_str(&format!("  {name}{params}\n"));
    }
    out
}

/// Entry point for the `avc` binary: dispatches a parsed command line and
/// returns the process exit code.
#[must_use]
pub fn main() -> i32 {
    let (positionals, args) = Args::from_env_with_positionals();
    let words: Vec<&str> = positionals.iter().map(String::as_str).collect();
    let outcome = match words[..] {
        [] | ["help", ..] => {
            print!("{}", usage());
            Ok(())
        }
        ["sweep" | "resume", name] => cmd_sweep(name, &args),
        ["merge", name] => cmd_merge(name, &args),
        ["run", path] => cmd_run(path, &args),
        ["export", name] => cmd_export(name, &args),
        ["report", name] => cmd_report(name, &args),
        ["top"] => cmd_top(None, &args),
        ["top", name] => cmd_top(Some(name), &args),
        ["ls"] => cmd_ls(&args),
        ["show", prefix] => cmd_show(prefix, &args),
        ["sweep" | "resume" | "merge" | "export" | "report"] => {
            Err("missing sweep name (see `avc help`)".to_string())
        }
        ["run"] => Err("missing scenario file (see `avc help`)".to_string()),
        ["show"] => Err("missing hash prefix (see `avc help`)".to_string()),
        [command @ "ls", extra, ..]
        | [command @ ("sweep" | "resume" | "merge" | "run"), _, extra, ..]
        | [command @ ("export" | "report" | "top" | "show"), _, extra, ..] => {
            Err(format!("{command}: unexpected argument `{extra}`"))
        }
        [other, ..] => Err(format!("unknown command `{other}` (see `avc help`)")),
    };
    match outcome {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("avc: {message}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_population::telemetry::MetricValue;

    fn wall(cell_ns: u64, busy_ns: u64, workers: u64) -> RegistrySnapshot {
        let mut wall = RegistrySnapshot::new();
        wall.set(keys::WALL_CELL_NS, MetricValue::Counter(cell_ns));
        wall.set(keys::WALL_WORKER_BUSY_NS, MetricValue::Counter(busy_ns));
        wall.set(keys::WALL_WORKERS, MetricValue::Gauge(workers));
        wall
    }

    #[test]
    fn worker_use_weighs_each_cell_by_its_workers() {
        let mut workers = WorkerUse::default();
        assert_eq!(workers.line(), None);
        // A cell without worker telemetry (a wall-suppressed store) adds
        // nothing.
        workers.add(&RegistrySnapshot::new());
        assert_eq!(workers.line(), None);
        workers.add(&wall(1_000_000_000, 1_500_000_000, 2));
        assert_eq!(
            workers.line().unwrap(),
            "workers: 2 threads busy 75.0% of 1.00 s in trial batches"
        );
        // 2.0 s busy of 2 * 1 s + 4 * 0.25 s = 3 s of capacity.
        workers.add(&wall(250_000_000, 500_000_000, 4));
        assert_eq!(
            workers.line().unwrap(),
            "workers: 2-4 threads busy 66.7% of 1.25 s in trial batches"
        );
    }
}
