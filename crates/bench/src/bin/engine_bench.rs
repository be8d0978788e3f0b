//! Engine microbenchmark: each engine's chunked driver loop, timed beside a
//! frozen reference kernel.
//!
//! Measures every engine on a Figure-3-shaped workload (four-state protocol,
//! one-extra instance, output-consensus rule, bounded step budget) through
//! [`Driver::run`] over the engine's `advance_chunk`, built by the scenario
//! plane's erased builder with the protocol behind the [`Cached`] dense
//! transition table, exactly like the experiment harness does. Beside that
//! grid, the [`PROTOCOL_CELLS`] run the count engine at n = 100 001 on AVC
//! at 130, 2050 and 16 340 states and on the largest BEF and DEGSSU of the
//! rival grids, each behind the table only where it fits the `Cached`
//! bound, as the harness dispatches it. The profile regime below runs
//! four_state.
//!
//! Every repetition also times a **reference kernel** ([`reference_ms`]): a
//! bench-local xoshiro256++ generator driving Fenwick-tree descents, which
//! calls no repository code, so its time moves only when the machine does.
//! A cell's `ref_ms` is that kernel's median over the cell's repetitions.
//!
//! Flags: `--quick` (small population only, two AVC cells, fewer reps),
//! `--out PATH` (write the JSON report), `--check PATH` (compare against a
//! committed report: each cell's `chunked_ms` must stay within its committed
//! time rescaled by this run's `ref_ms` over the committed `ref_ms`, times
//! 1.25 on every cell and times 1.02 on the four_state agent and count
//! cells, whose hot loops carry the telemetry `Sink` seam with its default
//! `NoopSink`), `--profile`
//! (per-phase breakdown — sampling vs transition vs bookkeeping — for the
//! agent and count engines, appended to the report), `--profile-out PATH`
//! (write the per-phase breakdown as telemetry registry snapshots; implies
//! `--profile`). Any other flag or token exits 1 before anything is
//! measured.

use avc_analysis::io::atomic_write;
use avc_population::cached::Cached;
use avc_population::driver::{Driver, NullObserver};
use avc_population::engine::Simulator;
use avc_population::graph::Graph;
use avc_population::sampler::FenwickSampler;
use avc_population::scenario::build_erased;
use avc_population::telemetry::{MetricValue, RegistrySnapshot};
use avc_population::{
    Config, ConvergenceRule, EngineKind, MajorityInstance, Protocol, ProtocolSpec, SchedulerSpec,
};
use avc_protocols::{Avc, Bef, Degssu, FourState};
use avc_store::json::Json;
use avc_store::record::registry_to_json;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The convergence rule of the Figure 3 workload.
const RULE: ConvergenceRule = ConvergenceRule::OutputConsensus;
/// Seed of every measured run.
const SEED: u64 = 42;
/// The tolerated machine-scaled chunked-time inflation for `--check`, on
/// every cell.
const TOLERANCE: f64 = 1.25;
/// The tighter bound `--check` holds the [`GATED_ENGINES`] cells to: the
/// telemetry overhead gate (the `NoopSink` seam must compile to nothing).
const SINK_TOLERANCE: f64 = 1.02;
/// The hot-loop cells [`SINK_TOLERANCE`] covers: the two engines whose
/// chunked loop pays a per-step cost, so any non-compiled-out `Sink` work
/// shows up here first. Only their four_state cells are held to it.
const GATED_ENGINES: [&str; 2] = ["agent", "count"];

/// The count-engine cells beyond four_state, all at n = 100 001: AVC at
/// s = 130, 2050 and 16 340 (`m = s − 3`), BEF at `l = 13` (30 states) and
/// DEGSSU at `l = 13, t = 4` (142 states). `--quick` keeps the first two:
/// s = 130 on the sampler's blocks of one state, whose draw is one
/// rank-table load, and s = 2050 on its blocks of 16, which add a
/// four-level descent.
const PROTOCOL_CELLS: [ProtocolSpec; 5] = [
    ProtocolSpec::Avc { m: 127, d: 1 },
    ProtocolSpec::Avc { m: 2_047, d: 1 },
    ProtocolSpec::Avc { m: 16_337, d: 1 },
    ProtocolSpec::Bef { levels: 13 },
    ProtocolSpec::Degssu {
        levels: 13,
        phase: 4,
    },
];
/// Population of the [`PROTOCOL_CELLS`].
const PROTOCOL_N: u64 = 100_001;
/// Step budget of the [`PROTOCOL_CELLS`]: about 20 parallel rounds at
/// [`PROTOCOL_N`], the dense start of each run.
const PROTOCOL_MAX_STEPS: u64 = 2_000_000;

/// Step budget keeping each measurement bounded; the per-agent engine
/// pays every scheduler step, so it gets a tighter cap at scale.
fn max_steps(engine: EngineKind, n: u64) -> u64 {
    match engine {
        EngineKind::Agent if n > 10_000 => 2_000_000,
        _ if n > 10_000 => 20_000_000,
        _ => 4_000_000,
    }
}

/// One measured (protocol, engine, n) cell.
struct Entry {
    protocol: String,
    engine: &'static str,
    n: u64,
    max_steps: u64,
    steps: u64,
    ref_ms: f64,
    chunked_ms: f64,
}

impl Entry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::str(&self.protocol)),
            ("engine", Json::str(self.engine)),
            ("n", Json::Int(self.n as i64)),
            ("max_steps", Json::Int(self.max_steps as i64)),
            ("steps", Json::Int(self.steps as i64)),
            ("ref_ms", Json::str(format!("{:.3}", self.ref_ms))),
            ("chunked_ms", Json::str(format!("{:.3}", self.chunked_ms))),
        ])
    }
}

/// Leaves of the reference Fenwick tree (32 KiB of weights: cache-resident).
const REF_LEAVES: usize = 4096;
/// Draws per reference repetition.
const REF_OPS: u32 = 1 << 19;

/// xoshiro256++ (the algorithm behind 64-bit `SmallRng`), seeded through
/// SplitMix64 — the reference kernel's own generator.
struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    fn new(mut seed: u64) -> Xoshiro {
        let mut next = || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Xoshiro {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A uniform draw from `0..bound` (multiply-shift; `bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// The reference kernel's Fenwick tree over [`REF_LEAVES`] weights.
struct RefFenwick {
    tree: Vec<u64>,
    total: u64,
}

impl RefFenwick {
    fn uniform(weight: u64) -> RefFenwick {
        let mut f = RefFenwick {
            tree: vec![0; REF_LEAVES + 1],
            total: 0,
        };
        for i in 0..REF_LEAVES {
            f.add(i, weight as i64);
        }
        f
    }

    fn add(&mut self, index: usize, delta: i64) {
        self.total = self.total.wrapping_add_signed(delta);
        let mut i = index + 1;
        while i <= REF_LEAVES {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The leaf whose cumulative range holds `target` (`target < total`).
    fn descend(&self, mut target: u64) -> usize {
        let mut pos = 0;
        let mut step = REF_LEAVES;
        while step > 0 {
            let next = pos + step;
            if next <= REF_LEAVES && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }
}

/// Times one repetition of the frozen reference kernel: [`REF_OPS`]
/// weighted picks by Fenwick descent, each moving one unit of weight to a
/// uniform leaf (the count-engine step shape). It calls no repository code,
/// so its time is a machine-speed proxy that no change to the engines can
/// move; changing it invalidates every committed report.
fn reference_ms() -> f64 {
    let mut rng = Xoshiro::new(2015);
    let mut tree = RefFenwick::uniform(64);
    let started = Instant::now();
    for _ in 0..REF_OPS {
        let from = tree.descend(rng.below(tree.total));
        let to = (rng.next_u64() as usize) & (REF_LEAVES - 1);
        tree.add(from, -1);
        tree.add(to, 1);
    }
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    black_box(&tree.tree);
    elapsed
}

/// Builds one engine on the one-extra instance through the scenario
/// plane's erased builder — the same seam every harness client uses, so
/// the bench measures the shipped dispatch path: the dense table where
/// the protocol fits the `Cached` bound, the arithmetic protocol above it.
fn build(spec: ProtocolSpec, engine: EngineKind, n: u64) -> Box<dyn Simulator> {
    fn erased<P: Protocol + Clone + 'static>(
        protocol: P,
        engine: EngineKind,
        n: u64,
    ) -> Box<dyn Simulator> {
        let inst = MajorityInstance::one_extra(n);
        let config = Config::from_input(&protocol, inst.a(), inst.b());
        match Cached::try_new(protocol) {
            Ok(table) => build_erased(table, config, engine, &SchedulerSpec::Uniform),
            Err(plain) => build_erased(plain, config, engine, &SchedulerSpec::Uniform),
        }
        .expect("the uniform scheduler is valid for every engine")
    }
    match spec {
        ProtocolSpec::Avc { m, d } => erased(Avc::new(m, d).expect("valid AVC"), engine, n),
        ProtocolSpec::Bef { levels } => erased(Bef::new(levels).expect("valid BEF"), engine, n),
        ProtocolSpec::Degssu { levels, phase } => {
            erased(Degssu::new(levels, phase).expect("valid DEGSSU"), engine, n)
        }
        ProtocolSpec::FourState => erased(FourState, engine, n),
        other => unreachable!("no bench cell runs {other}"),
    }
}

/// Runs the chunked driver loop: one virtual call per chunk into the
/// engine's `advance_chunk` over a concrete `SmallRng`
/// (construction stays outside the timed region).
fn run_chunked(spec: ProtocolSpec, engine: EngineKind, n: u64, max_steps: u64) -> (f64, u64, u64) {
    let mut sim = build(spec, engine, n);
    let driver = Driver::new(RULE).with_max_steps(max_steps);
    let mut rng = SmallRng::seed_from_u64(SEED);
    let started = Instant::now();
    let _ = driver.run(sim.as_mut(), &mut rng, &mut NullObserver);
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    (elapsed, sim.steps(), sim.count_a())
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Per-phase cost breakdown of one engine's chunked hot loop.
///
/// The full run is timed as usual; the sampling and transition phases are
/// then *replayed in isolation* for the same number of steps (sampling
/// against a frozen initial distribution / the interaction graph, transition
/// as flat table lookups over pseudo-random pairs). Bookkeeping is the
/// remainder, clamped at zero — replays on frozen state are approximations,
/// not exact slices of the real loop.
struct Profile {
    engine: &'static str,
    n: u64,
    /// The breakdown as a telemetry registry snapshot: `sim.steps` plus one
    /// `wall.<phase>_ns` counter per phase, so `--profile-out` serializes it
    /// in the store's registry form instead of a bespoke schema.
    snapshot: RegistrySnapshot,
}

impl Profile {
    fn set_phase_ms(snapshot: &mut RegistrySnapshot, key: &str, ms: f64) {
        snapshot.set(key, MetricValue::Counter((ms * 1e6).round() as u64));
    }

    fn phase_ms(&self, key: &str) -> f64 {
        self.snapshot.counter(key).unwrap_or(0) as f64 / 1e6
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("engine", Json::str(self.engine)),
            ("n", Json::Int(self.n as i64)),
            (
                "steps",
                Json::Int(self.snapshot.counter("sim.steps").unwrap_or(0) as i64),
            ),
            (
                "total_ms",
                Json::str(format!("{:.3}", self.phase_ms("wall.total_ns"))),
            ),
            (
                "sampling_ms",
                Json::str(format!("{:.3}", self.phase_ms("wall.sampling_ns"))),
            ),
            (
                "transition_ms",
                Json::str(format!("{:.3}", self.phase_ms("wall.transition_ns"))),
            ),
            (
                "bookkeeping_ms",
                Json::str(format!("{:.3}", self.phase_ms("wall.bookkeeping_ns"))),
            ),
        ])
    }
}

/// Times `steps` transition lookups over pseudo-random state pairs.
fn replay_transitions(protocol: &Cached<FourState>, steps: u64) -> f64 {
    let s = protocol.num_states();
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5eed);
    let started = Instant::now();
    for _ in 0..steps {
        let bits = rng.next_u32();
        let a = bits % s;
        let b = (bits >> 16) % s;
        black_box(protocol.transition(a, b));
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Times `steps` iterations of the count engine's sampling: two draws and
/// the fused `select_two` descent that resolves both agents' species,
/// against the frozen initial distribution.
fn replay_count_sampling(n: u64, steps: u64) -> f64 {
    let inst = MajorityInstance::one_extra(n);
    let config = Config::from_input(&FourState, inst.a(), inst.b());
    let sampler = FenwickSampler::from_weights(config.as_slice());
    let total = sampler.total();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let started = Instant::now();
    for _ in 0..steps {
        let first = rng.gen_range(0..total);
        let second = rng.gen_range(0..total - 1);
        black_box(sampler.select_two(first, second));
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Times `steps` ordered-pair draws on the clique graph.
fn replay_agent_sampling(n: u64, steps: u64) -> f64 {
    let graph = Graph::clique(n as usize);
    let mut rng = SmallRng::seed_from_u64(SEED);
    let started = Instant::now();
    for _ in 0..steps {
        black_box(graph.sample_pair(&mut rng));
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Profiles one engine at population `n` (agent and count only — the other
/// engines interleave their phases, so an isolated replay would not
/// correspond to any slice of their real loop).
fn profile(engine: EngineKind, n: u64, reps: usize) -> Profile {
    let max_steps = max_steps(engine, n);
    let protocol = Cached::new(FourState);
    let mut total = Vec::with_capacity(reps);
    let mut sampling = Vec::with_capacity(reps);
    let mut transition = Vec::with_capacity(reps);
    let mut steps = 0;
    for _ in 0..reps {
        let (t, s, _) = run_chunked(ProtocolSpec::FourState, engine, n, max_steps);
        total.push(t);
        steps = s;
        sampling.push(match engine {
            EngineKind::Count => replay_count_sampling(n, s),
            EngineKind::Agent => replay_agent_sampling(n, s),
            _ => unreachable!("profile covers agent and count only"),
        });
        transition.push(replay_transitions(&protocol, s));
    }
    let total_ms = median(&mut total);
    let sampling_ms = median(&mut sampling);
    let transition_ms = median(&mut transition);
    let mut snapshot = RegistrySnapshot::new();
    snapshot.set("sim.steps", MetricValue::Counter(steps));
    Profile::set_phase_ms(&mut snapshot, "wall.total_ns", total_ms);
    Profile::set_phase_ms(&mut snapshot, "wall.sampling_ns", sampling_ms);
    Profile::set_phase_ms(&mut snapshot, "wall.transition_ns", transition_ms);
    Profile::set_phase_ms(
        &mut snapshot,
        "wall.bookkeeping_ns",
        (total_ms - sampling_ms - transition_ms).max(0.0),
    );
    Profile {
        engine: engine.name(),
        n,
        snapshot,
    }
}

/// Measures one cell: every repetition times the reference kernel and then
/// the chunked run, so both medians see the same stretch of machine load.
fn measure(spec: ProtocolSpec, engine: EngineKind, n: u64, max_steps: u64, reps: usize) -> Entry {
    let mut reference = Vec::with_capacity(reps);
    let mut chunked = Vec::with_capacity(reps);
    let mut steps = 0;
    for _ in 0..reps {
        reference.push(reference_ms());
        let (ct, cs, _) = run_chunked(spec, engine, n, max_steps);
        chunked.push(ct);
        steps = cs;
    }
    Entry {
        protocol: spec.to_string(),
        engine: engine.name(),
        n,
        max_steps,
        steps,
        ref_ms: median(&mut reference),
        chunked_ms: median(&mut chunked),
    }
}

/// Compares freshly measured chunked times to a committed report. Raw wall
/// times are not comparable across machines (or across load on one), so
/// each committed `chunked_ms` is first rescaled by this run's
/// `ref_ms / committed ref_ms`; every cell present in both must then stay
/// within [`TOLERANCE`] of it, and the four_state [`GATED_ENGINES`] cells
/// within [`SINK_TOLERANCE`]. A committed entry without a `protocol` is a
/// four_state cell (the reports before the [`PROTOCOL_CELLS`]). Every cell
/// is checked before the verdict, so one run names all the cells over
/// their ceiling, and every committed cell this run did not measure is
/// named as skipped.
fn check(entries: &[Entry], committed_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("cannot read {committed_path}: {e}"))?;
    let committed = Json::parse(&text)?;
    let committed = committed
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("committed report has no entries array")?;
    let ms_field = |obj: &Json, key: &str| -> Option<f64> {
        obj.get(key).and_then(Json::as_str)?.parse().ok()
    };
    let mut compared = 0;
    let mut failures = Vec::new();
    for old in committed {
        let (protocol, engine, n) = (
            old.get("protocol")
                .and_then(Json::as_str)
                .unwrap_or("four_state"),
            old.get("engine").and_then(Json::as_str).unwrap_or(""),
            old.get("n").and_then(Json::as_int).unwrap_or(0),
        );
        let cell = format!("{protocol}/{engine}/{n}");
        let Some(new) = entries
            .iter()
            .find(|e| e.protocol == protocol && e.engine == engine && e.n as i64 == n)
        else {
            // Quick mode measures a subset of the committed grid, and a
            // committed engine may since have been removed.
            println!("check {cell}: not measured in this run, skipped");
            continue;
        };
        let old_ref =
            ms_field(old, "ref_ms").ok_or_else(|| format!("{cell}: malformed committed ref_ms"))?;
        let old_chunked = ms_field(old, "chunked_ms")
            .ok_or_else(|| format!("{cell}: malformed committed chunked_ms"))?;
        let scaled = old_chunked * (new.ref_ms / old_ref);
        let tolerance = if protocol == "four_state" && GATED_ENGINES.contains(&engine) {
            SINK_TOLERANCE
        } else {
            TOLERANCE
        };
        let ceiling = scaled * tolerance;
        println!(
            "check {cell}: committed {old_chunked:.3} ms at ref {old_ref:.3} ms, \
             machine-scaled {scaled:.3} ms, ceiling {ceiling:.3} ms ({tolerance}x), \
             current {:.3} ms at ref {:.3} ms",
            new.chunked_ms, new.ref_ms
        );
        if new.chunked_ms > ceiling {
            failures.push(format!(
                "{cell}: chunked loop at {:.3} ms exceeds {ceiling:.3} ms \
                 (committed {old_chunked:.3} ms scaled for machine speed, times {tolerance})",
                new.chunked_ms
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err("no overlapping entries between current and committed reports".into());
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    println!(
        "perf check passed ({compared} cells within {TOLERANCE}x of committed, \
         four_state {GATED_ENGINES:?} within {SINK_TOLERANCE}x)"
    );
    Ok(())
}

fn main() {
    let args = avc_analysis::cli::Args::from_env();
    let quick = args.flag("quick");
    let out = args.get("out");
    let profile_out = args.get("profile-out");
    let profiling = args.flag("profile") || profile_out.is_some();
    let committed = args.get("check");
    // A mistyped flag (`--chek` for the perf gate's `--check`) fails here,
    // before anything is measured.
    if let Err(e) = args.check() {
        eprintln!("engine_bench: {e}");
        std::process::exit(1);
    }
    let (ns, reps): (&[u64], usize) = if quick {
        (&[1_001], 3)
    } else {
        (&[1_001, 100_001], 5)
    };

    let protocol_cells = if quick {
        &PROTOCOL_CELLS[..2]
    } else {
        &PROTOCOL_CELLS[..]
    };
    let cells = ns
        .iter()
        .flat_map(|&n| {
            EngineKind::CONCRETE
                .map(|engine| (ProtocolSpec::FourState, engine, n, max_steps(engine, n)))
        })
        .chain(
            protocol_cells
                .iter()
                .map(|&spec| (spec, EngineKind::Count, PROTOCOL_N, PROTOCOL_MAX_STEPS)),
        );
    let mut entries = Vec::new();
    for (spec, engine, n, max_steps) in cells {
        let entry = measure(spec, engine, n, max_steps, reps);
        println!(
            "{:>8} {:>8} n={:<7} steps={:<9} ref {:>8.3} ms  chunked {:>9.3} ms",
            entry.protocol, entry.engine, entry.n, entry.steps, entry.ref_ms, entry.chunked_ms,
        );
        entries.push(entry);
    }

    let mut profiles = Vec::new();
    if profiling {
        for &n in ns {
            for engine in [EngineKind::Agent, EngineKind::Count] {
                let p = profile(engine, n, reps);
                println!(
                    "{:>8} n={:<7} profile: total {:>9.3} ms = sampling {:>8.3} + transition {:>8.3} + bookkeeping {:>8.3}",
                    p.engine,
                    p.n,
                    p.phase_ms("wall.total_ns"),
                    p.phase_ms("wall.sampling_ns"),
                    p.phase_ms("wall.transition_ns"),
                    p.phase_ms("wall.bookkeeping_ns")
                );
                profiles.push(p);
            }
        }
    }

    let mut fields = vec![
        ("bench", Json::str("engine_bench")),
        ("mode", Json::str(if quick { "quick" } else { "full" })),
        ("rule", Json::str("output_consensus")),
        ("seed", Json::Int(SEED as i64)),
        (
            "entries",
            Json::Arr(entries.iter().map(Entry::to_json).collect()),
        ),
    ];
    if !profiles.is_empty() {
        fields.push((
            "profile",
            Json::Arr(profiles.iter().map(Profile::to_json).collect()),
        ));
    }
    let report = Json::obj(fields);

    if let Some(path) = out {
        std::fs::write(path, report.to_string_pretty() + "\n").expect("write report");
        println!("[written to {path}]");
    }

    if let Some(path) = profile_out {
        // One telemetry registry snapshot per profiled cell, in the JSON form
        // the store's records embed.
        let cells = profiles
            .iter()
            .map(|p| {
                Json::obj([
                    ("engine", Json::str(p.engine)),
                    ("n", Json::Int(p.n as i64)),
                    ("snapshot", registry_to_json(&p.snapshot)),
                ])
            })
            .collect();
        let body = Json::obj([
            ("bench", Json::str("engine_bench_profile")),
            ("mode", Json::str(if quick { "quick" } else { "full" })),
            ("profiles", Json::Arr(cells)),
        ])
        .to_string_compact()
            + "\n";
        atomic_write(path, body).expect("write profile report");
        println!("[profile written to {path}]");
    }

    if let Some(path) = committed {
        if let Err(message) = check(&entries, path) {
            eprintln!("perf check FAILED: {message}");
            std::process::exit(1);
        }
    }
}
