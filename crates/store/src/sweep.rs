//! The sweep engine: checkpointed execution of a cell grid plus export.
//!
//! A [`Plan`] enumerates an experiment's cells (each with a [`Manifest`]
//! identity and a closure that computes its [`CellResult`]) and knows how to
//! assemble the final tables from the full, ordered result list. Running a
//! plan consults the [`Store`] before every cell: completed cells are
//! skipped, and missing ones run and are appended durably in plan order.
//! While a cell's trials run, the collector's worker pool may already run
//! the next pending cell's, so killing the process at any point loses at
//! most the two in-flight cells, and a rerun of the same command resumes
//! there — cells are seeded independently of each other and of the
//! `Parallelism` setting, so the resumed sweep's export is byte-identical
//! to an uninterrupted run's.
//!
//! Cell closures are clients of the chunked run driver
//! (`avc_population::driver::Driver`) via the analysis harness: per-trial
//! stepping is monomorphized inside each engine, and checkpoints see only
//! the driver's `RunOutcome`s, which are chunking-invariant — the resume
//! byte-identity above is unaffected by how the driver slices a run.

use crate::manifest::Manifest;
use crate::record::{CellResult, Record};
use crate::store::Store;
use avc_analysis::harness::{ScenarioPlan, StatsCollector};
use avc_analysis::table::Table;
use avc_population::telemetry::export::JsonlWriter;
use avc_population::telemetry::{keys, wall_suppressed, RegistrySnapshot, Span};
use std::fmt;
use std::io;

/// A deterministic 1-of-k slice of a sweep's cell grid (`--shard i/k`).
///
/// Ownership hashes each cell's content-addressed [`Manifest::hash`]: cell
/// `h` belongs to shard `i` iff `u64(h[..16]) % k == i`. The partition is a
/// pure function of cell identity — independent of grid order, flags that
/// don't enter the manifest, and which shards ran before — so k invocations
/// with `--shard 0/k .. k-1/k` cover every cell exactly once and
/// [`merge`] can reassemble them into an unsharded store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: u64,
    count: u64,
}

impl Shard {
    /// The trivial shard owning every cell (an unsharded sweep).
    #[must_use]
    pub fn full() -> Shard {
        Shard { index: 0, count: 1 }
    }

    /// A shard `index` of `count`.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index >= count`.
    pub fn new(index: u64, count: u64) -> Result<Shard, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s)"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Parses the CLI form `i/k`.
    ///
    /// # Errors
    ///
    /// Describes the malformed input.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("shard `{text}` is not of the form i/k"))?;
        let parse = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("shard `{text}` is not of the form i/k"))
        };
        Shard::new(parse(index)?, parse(count)?)
    }

    /// Whether this is the trivial full shard.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// Whether this shard owns the cell with the given manifest hash.
    ///
    /// # Panics
    ///
    /// Panics if `hash` is shorter than 16 hex characters (manifest hashes
    /// are 64).
    #[must_use]
    pub fn owns(&self, hash: &str) -> bool {
        let prefix = u64::from_str_radix(&hash[..16], 16).expect("manifest hashes are hex");
        prefix % self.count == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One runnable cell of a sweep.
pub struct Cell {
    /// The cell's content-addressed identity.
    pub manifest: Manifest,
    /// Short human label (also stored in the manifest under `cell`).
    pub label: String,
    /// The trial batch `run` executes, which [`run_sharded`] queues on the
    /// collector's pool ahead of `run`; `None` for cells that run no
    /// scenario batch (lb_info, graph_gap, dynamics, mc_*).
    pub batch: Option<ScenarioPlan>,
    /// Computes the cell. Must depend only on the manifest's parameters.
    pub run: Box<dyn Fn(&StatsCollector) -> CellResult>,
}

/// Everything `avc export` produces for a sweep.
pub struct Export {
    /// `(file_stem, table)` pairs to write as `<out>/<stem>.csv`.
    pub tables: Vec<(String, Table)>,
    /// Extra stdout lines (terminal plots, fitted slopes, check verdicts).
    pub trailer: Vec<String>,
}

/// A fully-specified sweep: cells plus the export assembly.
pub struct Plan {
    /// Sweep spec name (`fig3`, …).
    pub name: String,
    /// One-line banner description.
    pub banner: String,
    /// Cells in deterministic grid order.
    pub cells: Vec<Cell>,
    /// Assembles the export from results ordered as [`Plan::cells`].
    #[allow(clippy::type_complexity)]
    pub export: Box<dyn Fn(&[&CellResult]) -> Export>,
}

/// What [`run`] did for each cell class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepOutcome {
    /// Cells found complete in the store and skipped.
    pub cached: usize,
    /// Cells executed this invocation.
    pub ran: usize,
    /// Cells owned by other shards and not touched (`0` unsharded).
    pub foreign: usize,
}

/// Runs every missing cell of `plan`, checkpointing each into `store` as it
/// completes. Progress lines go to stderr when `verbose`. Equivalent to
/// [`run_sharded`] with [`Shard::full`].
///
/// # Errors
///
/// Propagates I/O errors from the store append; the sweep stops at the
/// first failed append (completed cells stay durable).
pub fn run(
    store: &mut Store,
    plan: &Plan,
    stats: &StatsCollector,
    verbose: bool,
) -> io::Result<SweepOutcome> {
    run_sharded(store, plan, stats, verbose, Shard::full())
}

/// As [`run`], but executing only the cells `shard` owns — the parallel
/// half of the shard/merge protocol (`avc sweep --shard i/k`, then
/// [`merge`]).
///
/// Before a cell runs, its batch and the next pending cell's are queued on
/// `stats`' pool, so workers that run out of one cell's trials start the
/// next cell's. Records and journal lines are still appended one cell at a
/// time, in plan order. A cell's recorded `wall_ms` is its batch's share of
/// the sweep's wall time ([`keys::WALL_CELL_NS`]), or the time its `run`
/// took where it runs no batch.
///
/// Cells are seeded by identity, not position, so a shard's cells run with
/// exactly the RNG streams they consume in an unsharded sweep. With
/// [`wall_suppressed`] set, checkpoints carry no wall-clock bytes at all
/// (`wall_ms` recorded as 0, the telemetry `wall` registry stripped), which
/// makes each shard store — and therefore the merged store — a pure
/// function of the plan and seed: byte-identical to an unsharded run's.
///
/// # Errors
///
/// As [`run`].
pub fn run_sharded(
    store: &mut Store,
    plan: &Plan,
    stats: &StatsCollector,
    verbose: bool,
    shard: Shard,
) -> io::Result<SweepOutcome> {
    let mut outcome = SweepOutcome::default();
    let total = plan.cells.len();
    // Per-cell telemetry journal beside the records file. Opening tolerates
    // a torn final line (the crash signature), so a resumed sweep appends
    // cleanly after a kill.
    let mut journal = JsonlWriter::open(&telemetry_path(store))?;
    // Journal lines of sharded runs carry their shard as provenance, so
    // `avc report` can attribute wall time and throughput per shard.
    let shard_field = if shard.is_full() {
        String::new()
    } else {
        format!("\"shard\":\"{shard}\",")
    };
    let hashes: Vec<String> = plan.cells.iter().map(|c| c.manifest.hash()).collect();
    let pending: Vec<bool> = hashes
        .iter()
        .map(|hash| shard.owns(hash) && store.get(hash).is_none())
        .collect();
    let queue = |cell: &Cell| {
        if let Some(batch) = &cell.batch {
            stats.queue(batch);
        }
    };
    // The pending cell whose batch was queued ahead of its turn.
    let mut queued = None;
    for (i, (cell, hash)) in plan.cells.iter().zip(&hashes).enumerate() {
        if !shard.owns(hash) {
            outcome.foreign += 1;
            continue;
        }
        if !pending[i] {
            outcome.cached += 1;
            if verbose {
                eprintln!(
                    "[cell {}/{total}] {} — cached ({})",
                    i + 1,
                    cell.label,
                    &hash[..12]
                );
            }
            continue;
        }
        if queued != Some(i) {
            queue(cell);
        }
        queued = (i + 1..total).find(|&j| pending[j]);
        if let Some(next) = queued {
            queue(&plan.cells[next]);
        }
        let started = Span::start();
        let mut result = (cell.run)(stats);
        let wall_ms = if wall_suppressed() {
            0
        } else {
            let batch_ns = result
                .telemetry
                .as_ref()
                .and_then(|t| t.wall.counter(keys::WALL_CELL_NS));
            batch_ns.map_or_else(|| started.elapsed_ms(), |ns| ns / 1_000_000)
        };
        if wall_suppressed() {
            if let Some(telemetry) = &mut result.telemetry {
                telemetry.wall = RegistrySnapshot::new();
            }
        }
        if let Some(telemetry) = &result.telemetry {
            journal.append(&format!(
                "{{\"hash\":\"{hash}\",\"cell\":\"{}\",{shard_field}\"telemetry\":{}}}",
                avc_population::telemetry::export::json_escape(&cell.label),
                telemetry.to_json()
            ))?;
        }
        store.append(Record::new(cell.manifest.clone(), result, wall_ms))?;
        outcome.ran += 1;
        if verbose {
            eprintln!(
                "[cell {}/{total}] {} — ran in {:.1}s ({})",
                i + 1,
                cell.label,
                wall_ms as f64 / 1e3,
                &hash[..12]
            );
        }
    }
    Ok(outcome)
}

/// Folds shard stores back into one store laid out exactly like an
/// unsharded sweep's: for each plan cell **in grid order**, the cell's
/// record is looked up across `sources` (first hit wins — a deterministic
/// sweep writes identical records wherever the cell ran) and appended to
/// `dest`. Since the unsharded runner also appends in grid order, a merge
/// of k complete shard stores produced under [`wall_suppressed`] yields a
/// `records.jsonl` byte-identical to the unsharded run's. Cells already in
/// `dest` are left untouched; the telemetry journals are merged the same
/// way (journal lines keep their shard provenance, so the merged journal is
/// shard-annotated rather than byte-identical).
///
/// Returns how many records were appended.
///
/// # Errors
///
/// Lists cells missing from every source (some shard has not finished),
/// and propagates store/journal I/O failures as strings.
pub fn merge(dest: &mut Store, plan: &Plan, sources: &[Store]) -> Result<usize, String> {
    let mut missing = Vec::new();
    let mut appended = 0usize;
    let source_journals: Vec<Vec<String>> = sources
        .iter()
        .map(|s| {
            avc_population::telemetry::export::read_lines_tolerant(&telemetry_path(s))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    let mut journal = JsonlWriter::open(&telemetry_path(dest)).map_err(|e| e.to_string())?;
    for cell in &plan.cells {
        let hash = cell.manifest.hash();
        if dest.get(&hash).is_some() {
            continue;
        }
        let Some(record) = sources.iter().find_map(|s| s.get(&hash)) else {
            missing.push(format!("  {} ({})", cell.label, &hash[..12]));
            continue;
        };
        dest.append(record.clone()).map_err(|e| e.to_string())?;
        // Carry the cell's journal line over (hash-keyed, plan-ordered).
        let needle = format!("\"hash\":\"{hash}\"");
        if let Some(line) = source_journals
            .iter()
            .flatten()
            .find(|line| line.contains(&needle))
        {
            journal.append(line).map_err(|e| e.to_string())?;
        }
        appended += 1;
    }
    if missing.is_empty() {
        Ok(appended)
    } else {
        Err(format!(
            "{} of {} cells missing from every shard store — run the remaining shards of \
             `avc sweep {}` first:\n{}",
            missing.len(),
            plan.cells.len(),
            plan.name,
            missing.join("\n")
        ))
    }
}

/// The sweep telemetry journal's path: `telemetry.jsonl` beside the
/// registry's `records.jsonl`. One line per cell *executed* (cached cells
/// re-run nothing, so they journal nothing), in execution order.
#[must_use]
pub fn telemetry_path(store: &Store) -> std::path::PathBuf {
    store.dir().join("telemetry.jsonl")
}

/// Collects the ordered results for `plan` from the store.
///
/// # Errors
///
/// Returns the labels and hashes of missing cells (the `avc export`
/// error message).
pub fn collect<'s>(store: &'s Store, plan: &Plan) -> Result<Vec<&'s CellResult>, String> {
    let mut results = Vec::with_capacity(plan.cells.len());
    let mut missing = Vec::new();
    for cell in &plan.cells {
        match store.get(&cell.manifest.hash()) {
            Some(record) => results.push(&record.result),
            None => missing.push(format!(
                "  {} ({})",
                cell.label,
                &cell.manifest.hash()[..12]
            )),
        }
    }
    if missing.is_empty() {
        Ok(results)
    } else {
        Err(format!(
            "{} of {} cells missing from the store — run `avc sweep {}` first:\n{}",
            missing.len(),
            plan.cells.len(),
            plan.name,
            missing.join("\n")
        ))
    }
}

/// Builds the export for `plan` from the store.
///
/// # Errors
///
/// As [`collect`].
pub fn export(store: &Store, plan: &Plan) -> Result<Export, String> {
    let results = collect(store, plan)?;
    Ok((plan.export)(&results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    fn counting_plan(counter: Rc<StdCell<u32>>) -> Plan {
        let cells = (0..3u64)
            .map(|i| {
                let counter = counter.clone();
                Cell {
                    manifest: Manifest::new("demo", [("i", i.to_string())]),
                    label: format!("i={i}"),
                    batch: None,
                    run: Box::new(move |_| {
                        counter.set(counter.get() + 1);
                        CellResult {
                            notes: vec![format!("cell {i}")],
                            ..CellResult::default()
                        }
                    }),
                }
            })
            .collect();
        Plan {
            name: "demo".to_string(),
            banner: "demo sweep".to_string(),
            cells,
            export: Box::new(|results| {
                let mut t = Table::new("demo", ["note"]);
                for r in results {
                    t.push_row([r.notes[0].clone()]);
                }
                Export {
                    tables: vec![("demo".to_string(), t)],
                    trailer: vec![],
                }
            }),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("avc-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_run_is_fully_cached() {
        let dir = temp_dir("cached");
        let counter = Rc::new(StdCell::new(0));
        let plan = counting_plan(counter.clone());
        let stats = StatsCollector::new();

        let mut store = Store::open(&dir).unwrap();
        let first = run(&mut store, &plan, &stats, false).unwrap();
        assert_eq!((first.ran, first.cached), (3, 0));
        assert_eq!(counter.get(), 3);

        // Fresh open, same plan: everything cached, closures never invoked.
        let mut store = Store::open(&dir).unwrap();
        let second = run(&mut store, &plan, &stats, false).unwrap();
        assert_eq!((second.ran, second.cached), (0, 3));
        assert_eq!(counter.get(), 3);

        let exported = export(&store, &plan).unwrap();
        assert_eq!(exported.tables[0].1.num_rows(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_store_resumes_only_missing_cells() {
        let dir = temp_dir("partial");
        let counter = Rc::new(StdCell::new(0));
        let plan = counting_plan(counter.clone());
        let stats = StatsCollector::new();

        // Simulate an interrupted sweep: only cell 0 durable.
        {
            let mut store = Store::open(&dir).unwrap();
            let first_cell = &plan.cells[0];
            let result = (first_cell.run)(&stats);
            store
                .append(Record::new(first_cell.manifest.clone(), result, 1))
                .unwrap();
        }
        assert_eq!(counter.get(), 1);

        let mut store = Store::open(&dir).unwrap();
        assert!(export(&store, &plan)
            .map(|_| ())
            .unwrap_err()
            .contains("2 of 3"));
        let outcome = run(&mut store, &plan, &stats, false).unwrap();
        assert_eq!((outcome.ran, outcome.cached), (2, 1));
        assert_eq!(counter.get(), 3);
        assert!(export(&store, &plan).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
