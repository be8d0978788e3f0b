//! The replay half of the traced run: a completed sweep's trials and store
//! writes re-run through the libraries' public functions, each call inside
//! a span, so every layer below the harness gets its own timings.
//!
//! Trials are seeded exactly as the harness seeds them
//! (`SeedSequence::new(seed)[.child(c)].rng_for(i)`), so each replayed
//! trial must land on a parallel time its cell's record already holds.

use crate::refkernel::Xoshiro;
use crate::stats;
use crate::trace::Tracer;
use avc_population::cached::Cached;
use avc_population::driver::{Driver, NullObserver};
use avc_population::engine::ErasedChunkedSim;
use avc_population::faults::FaultPlan;
use avc_population::rngutil::SeedSequence;
use avc_population::scenario::{build_erased, build_erased_with_sink};
use avc_population::spec::RunOutcome;
use avc_population::telemetry::export::{read_lines_tolerant, JsonlWriter};
use avc_population::telemetry::{
    keys, CellTelemetry, CountingSink, HistogramSnapshot, MetricValue,
};
use avc_population::{Config, Protocol, ProtocolSpec, Scenario};
use avc_protocols::{Avc, Bef, Degssu, FourState, ThreeState, Voter};
use avc_store::store::Store;
use avc_store::sweep::{self, Plan};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Most trials replayed per cell (a strided sample beyond this).
const MAX_TRIALS_PER_CELL: u64 = 1024;
/// Sampled trials per cell also run without a sink, for the sink overhead.
const SINK_PAIRS_PER_CELL: usize = 2;
/// Transition calls per timed repetition of the arithmetic replay.
const TRANSITION_CALLS: u32 = 1 << 20;

/// What the replay measured beyond its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per trial: `driver.run` nanoseconds divided by its chunk count.
    pub chunk_ns: Vec<f64>,
    /// Σ `driver.run` nanoseconds over replayed trials.
    pub run_ns: f64,
    /// Σ steps over replayed trials.
    pub steps: u64,
    /// Σ productive events over replayed trials.
    pub events: u64,
    /// Σ `driver.run` nanoseconds of paired trials with a `CountingSink`…
    pub sink_ns: f64,
    /// …and of the same trials with the default `NoopSink`.
    pub noop_ns: f64,
    /// Largest dense transition table built, in bytes.
    pub table_bytes_max: u64,
    /// Cells whose protocol is above the table bound (arithmetic path).
    pub arithmetic_cells: u64,
    /// Σ records-file size after each replayed append.
    pub append_bytes: u64,
    /// Median nanoseconds per arithmetic `transition` call at the largest
    /// state count in the sweep.
    pub transition_ns: f64,
    /// Replayed trials that disagree with their records.
    pub mismatches: Vec<String>,
}

/// Resolves a [`ProtocolSpec`] to its protocol value and runs `$body` with
/// it bound to `$p` (the harness does the same, privately).
macro_rules! with_protocol {
    ($spec:expr, |$p:ident| $body:expr) => {
        match $spec {
            ProtocolSpec::Avc { m, d } => {
                let $p = Avc::new(m, d).map_err(|e| format!("{e:?}"))?;
                $body
            }
            ProtocolSpec::Bef { levels } => {
                let $p = Bef::new(levels).map_err(|e| format!("{e:?}"))?;
                $body
            }
            ProtocolSpec::Degssu { levels, phase } => {
                let $p = Degssu::new(levels, phase).map_err(|e| format!("{e:?}"))?;
                $body
            }
            ProtocolSpec::FourState => {
                let $p = FourState;
                $body
            }
            ProtocolSpec::ThreeState => {
                let $p = ThreeState::new();
                $body
            }
            ProtocolSpec::Voter => {
                let $p = Voter;
                $body
            }
        }
    };
}

/// Replays `plan`'s trials and store writes against its completed `store`,
/// writing scratch files under `scratch`.
///
/// # Errors
///
/// Missing records, unparseable embedded scenarios, and I/O failures.
pub fn replay(
    plan: &Plan,
    store: &Store,
    tracer: &Tracer,
    scratch: &Path,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut largest: Option<ProtocolSpec> = None;
    for cell in &plan.cells {
        let record = store
            .get(&cell.manifest.hash())
            .ok_or_else(|| format!("{}: no record to replay", cell.label))?;
        let text = cell
            .manifest
            .get("scenario")
            .ok_or_else(|| format!("{}: manifest embeds no scenario", cell.label))?;
        let scenario = Scenario::parse(text).map_err(|e| format!("{}: {e}", cell.label))?;
        let samples = record
            .result
            .trials
            .as_ref()
            .map_or(&[][..], |t| t.samples.as_slice());
        if largest.is_none_or(|l| scenario.protocol.state_count() > l.state_count()) {
            largest = Some(scenario.protocol);
        }
        let label = cell.label.as_str();
        tracer.span("replay.cell", || -> Result<(), String> {
            with_protocol!(scenario.protocol, |protocol| {
                replay_cell(protocol, &scenario, samples, label, tracer, &mut out)
            })
        })?;
    }
    out.append_bytes = tracer.span("replay.store", || {
        replay_store(plan, store, tracer, scratch)
    })?;
    if let Some(spec) = largest {
        out.transition_ns = with_protocol!(spec, |protocol| transition_ns(&protocol));
    }
    Ok(out)
}

/// Table bytes `Cached` allocates for `s` states: the pair table plus the
/// productive-pair bitset.
fn table_bytes(s: u32) -> u64 {
    let s = u64::from(s);
    s * s * 8 + s * s.div_ceil(64) * 8
}

fn replay_cell<P: Protocol + Clone>(
    protocol: P,
    scenario: &Scenario,
    samples: &[f64],
    label: &str,
    tracer: &Tracer,
    out: &mut Replay,
) -> Result<(), String> {
    let states = protocol.num_states();
    match tracer.span("cached.table_build", || Cached::try_new(protocol)) {
        Ok(cached) => {
            out.table_bytes_max = out.table_bytes_max.max(table_bytes(states));
            replay_trials(&cached, scenario, samples, label, tracer, out)
        }
        Err(plain) => {
            out.arithmetic_cells += 1;
            replay_trials(&plain, scenario, samples, label, tracer, out)
        }
    }
}

fn replay_trials<P: Protocol + Clone>(
    protocol: P,
    scenario: &Scenario,
    samples: &[f64],
    label: &str,
    tracer: &Tracer,
    out: &mut Replay,
) -> Result<(), String> {
    let seeds = match scenario.seed_child {
        Some(child) => SeedSequence::new(scenario.seed).child(child),
        None => SeedSequence::new(scenario.seed),
    };
    let driver = Driver::new(scenario.rule).with_max_steps(scenario.max_steps);
    let (a, b) = (scenario.instance.a(), scenario.instance.b());
    let unrunnable = |e: String| format!("{label}: unrunnable scenario: {e}");
    // Drives trial `trial` exactly as the harness does.
    let drive = |sim: &mut dyn ErasedChunkedSim, trial: u64| {
        let mut rng = seeds.rng_for(trial);
        if scenario.faults.is_empty() {
            driver.run_erased(sim, &mut rng, &mut NullObserver)
        } else {
            let mut faults = FaultPlan::from_events(scenario.faults.clone());
            driver.run_faulted_erased(sim, &mut rng, &mut NullObserver, &mut faults)
        }
    };
    let stride = scenario.runs.div_ceil(MAX_TRIALS_PER_CELL).max(1);
    let mut aggregate = CellTelemetry::new();
    for (k, trial) in (0..scenario.runs).step_by(stride as usize).enumerate() {
        // The same trial without a sink, alternately before and after the
        // instrumented run so neither side always meets warm caches.
        let noop_run = || -> Result<(RunOutcome, f64), String> {
            let config = Config::from_input(&protocol, a, b);
            let mut sim = build_erased(
                protocol.clone(),
                config,
                scenario.engine,
                &scenario.scheduler,
            )
            .map_err(unrunnable)?;
            let started = Instant::now();
            let outcome = drive(sim.as_mut(), trial);
            Ok((outcome, started.elapsed().as_nanos() as f64))
        };
        let paired = k < SINK_PAIRS_PER_CELL;
        let noop_first = if paired && k % 2 == 0 {
            Some(noop_run()?)
        } else {
            None
        };

        let mut sink = CountingSink::new();
        let (outcome, run_ns) = tracer.span("harness.trial", || -> Result<_, String> {
            let (mut sim, config) = tracer.span("engine.construct", || {
                let config = Config::from_input(&protocol, a, b);
                build_erased_with_sink(
                    protocol.clone(),
                    config.clone(),
                    scenario.engine,
                    &scenario.scheduler,
                    &mut sink,
                )
                .map(|sim| (sim, config))
                .map_err(unrunnable)
            })?;
            tracer.span("engine.reset", || sim.reset_erased(&config));
            Ok(tracer.timed("driver.run", || drive(sim.as_mut(), trial)))
        })?;
        let noop = match noop_first {
            Some(pair) => Some(pair),
            None if paired => Some(noop_run()?),
            None => None,
        };
        if let Some((noop_outcome, noop_ns)) = noop {
            out.sink_ns += run_ns as f64;
            out.noop_ns += noop_ns;
            if noop_outcome != outcome {
                out.mismatches.push(format!(
                    "{label} trial {trial}: the sink changed the outcome"
                ));
            }
        }
        tracer.span("telemetry.merge", || {
            aggregate.merge(&trial_telemetry(&sink, &outcome));
        });

        out.run_ns += run_ns as f64;
        out.steps += sink.steps;
        out.events += sink.events;
        out.chunk_ns.push(run_ns as f64 / sink.chunks.max(1) as f64);
        if outcome.verdict.is_consensus()
            && samples
                .binary_search_by(|x| x.total_cmp(&outcome.parallel_time))
                .is_err()
        {
            out.mismatches.push(format!(
                "{label} trial {trial}: parallel time {} is not in the record",
                outcome.parallel_time
            ));
        }
    }
    black_box(aggregate);
    Ok(())
}

/// The per-trial telemetry block the harness builds and merges.
fn trial_telemetry(sink: &CountingSink, outcome: &RunOutcome) -> CellTelemetry {
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
    cell
}

/// Re-appends the sweep's journal lines and records, in sweep order, to a
/// scratch store; returns Σ records-file bytes written.
fn replay_store(
    plan: &Plan,
    store: &Store,
    tracer: &Tracer,
    scratch: &Path,
) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("replayed store write: {e}");
    let lines = read_lines_tolerant(&sweep::telemetry_path(store)).map_err(io)?;
    let mut dest = Store::open(scratch).map_err(io)?;
    let mut journal = JsonlWriter::open(&sweep::telemetry_path(&dest)).map_err(io)?;
    let mut bytes = 0;
    for cell in &plan.cells {
        let hash = cell.manifest.hash();
        let record = store
            .get(&hash)
            .ok_or_else(|| format!("{}: no record", cell.label))?
            .clone();
        let needle = format!("\"hash\":\"{hash}\"");
        if let Some(line) = lines.iter().find(|line| line.contains(&needle)) {
            tracer
                .span("store.journal", || journal.append(line))
                .map_err(io)?;
        }
        tracer
            .span("store.append", || dest.append(record))
            .map_err(io)?;
        bytes += std::fs::metadata(dest.records_path()).map_err(io)?.len();
    }
    Ok(bytes)
}

/// Median nanoseconds per `transition` call on uniformly random state
/// pairs, through the protocol's own (arithmetic) implementation.
fn transition_ns<P: Protocol>(protocol: &P) -> f64 {
    let s = u64::from(protocol.num_states());
    let mut rng = Xoshiro::new(s);
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut acc = 0u32;
            for _ in 0..TRANSITION_CALLS {
                let (x, y) = protocol.transition(rng.below(s) as u32, rng.below(s) as u32);
                acc = acc.wrapping_add(x ^ y);
            }
            black_box(acc);
            started.elapsed().as_nanos() as f64 / f64::from(TRANSITION_CALLS)
        })
        .collect();
    stats::median(&reps)
}
