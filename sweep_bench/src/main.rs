//! `sweep_bench`: the repository's end-to-end sweep benchmark, with a
//! traced per-layer breakdown.
//!
//! ```text
//! sweep_bench --workload W --seed S --seconds T --trace 0|1 [--trace-out DIR]
//!     measure one workload in this process; the last stdout line is the
//!     result object {"correct","attempted","failed","metrics"}
//! sweep_bench run --seed S --out report.json [--seconds T]
//!     every workload, each in its own child process, untraced
//! sweep_bench trace --seed S --out DIR [--seconds T]
//!     every workload traced (DIR/<workload>.trace.json, DIR/layers.json)
//!     plus untraced, reporting the tracing overhead
//! sweep_bench compare --parent a.json,... --change b.json,...
//!     verdicts per (workload, metric) under the acceptance rules
//! ```
//!
//! Exit status: 0 when every check passed, 1 when a correctness check failed
//! or a comparison found a regression, 2 on a usage or I/O error, 3 when a
//! comparison found no regression but some pair unresolved.

mod compare;
mod json;
mod measure;
mod metrics;
mod refkernel;
mod replay;
mod stats;
mod trace;
mod workload;

use avc_analysis::cli::Args;
use metrics::{Values, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workload::Workload;

/// Default measured seconds per workload for `run` and `trace`.
const DEFAULT_SECONDS: u64 = 25;
/// Largest accepted workload seed (cell seeds are offset by it and must stay
/// within the scenario format's integer range).
const MAX_SEED: u64 = 1 << 32;

fn main() -> ExitCode {
    let (positionals, args) = Args::from_env_with_positionals();
    let passed = |ok: bool| u8::from(!ok);
    let result = match positionals.first().map(String::as_str) {
        None => measure_one(&args).map(passed),
        Some("run") => run_all(&args).map(passed),
        Some("trace") => trace_all(&args).map(passed),
        Some("compare") => match (args.get("parent"), args.get("change")) {
            (Some(parent), Some(change)) => compare::main(parent, change),
            _ => Err("compare needs --parent a.json,... and --change b.json,...".to_string()),
        },
        Some(other) => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(status) => ExitCode::from(status),
        Err(message) => {
            eprintln!("sweep_bench: {message}");
            ExitCode::from(2)
        }
    }
}

fn seed(args: &Args) -> Result<u64, String> {
    let text = args.get("seed").unwrap_or("0");
    text.parse::<u64>()
        .ok()
        .filter(|&s| s <= MAX_SEED)
        .ok_or_else(|| format!("--seed must be an integer in 0..={MAX_SEED}, got `{text}`"))
}

fn seconds(args: &Args) -> Result<u64, String> {
    match args.get("seconds") {
        None => Ok(DEFAULT_SECONDS),
        Some(text) => text
            .parse::<u64>()
            .ok()
            .filter(|&s| (1..=3600).contains(&s))
            .ok_or_else(|| format!("--seconds must be an integer in 1..=3600, got `{text}`")),
    }
}

/// The result object printed as the last line of a measurement.
fn result_line(outcome: &measure::Outcome, traced: bool) -> String {
    let decls: &[metrics::Decl] = if traced { &PER_LAYER } else { &END_TO_END };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics::to_json(decls, &outcome.values)
    )
}

fn print_values(workload: &str, values: &Values) {
    for (name, value) in values {
        let unit = metrics::decl(name).map_or("", |d| d.unit);
        println!("{workload:<18} {name:<29} {value:>16.6} {unit}");
    }
}

/// The single-workload form: one workload measured in this process.
fn measure_one(args: &Args) -> Result<bool, String> {
    let name = args
        .get("workload")
        .ok_or("missing --workload (or a command)")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let opts = measure::Options {
        seed: seed(args)?,
        seconds: Duration::from_secs(seconds(args)?),
        trace,
        trace_out: args.get("trace-out").map(PathBuf::from),
    };
    let outcome = measure::run(workload, &opts)?;
    for problem in &outcome.problems {
        eprintln!("sweep_bench: {}: check failed: {problem}", workload.name());
    }
    print_values(workload.name(), &outcome.values);
    println!(
        "{:<18} {} sweeps, median raw wall {:.4} s, two-thread probe {:.2} ns/op \
         (times scaled to {} ns/op)",
        workload.name(),
        outcome.sweeps,
        outcome.raw_wall_s,
        outcome.pair_ns,
        measure::NOMINAL_PAIR_NS
    );
    println!("{}", result_line(&outcome, trace));
    Ok(outcome.correct && outcome.failed == 0)
}

/// Runs one workload in a child process; returns its result line and
/// whether every check passed (the child's exit status).
fn spawn(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace_out: Option<&Path>,
) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace_out.is_some() { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = trace_out {
        cmd.arg("--trace-out").arg(dir);
    }
    println!("== {}: {}", workload.name(), workload.why());
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().unwrap_or_default();
    if json::parse(line).is_err() {
        return Err(format!(
            "{} printed no result ({})",
            workload.name(),
            output.status
        ));
    }
    Ok((line.to_string(), output.status.success()))
}

/// `run`: every workload untraced, one child process each.
fn run_all(args: &Args) -> Result<bool, String> {
    let out = args.get("out").ok_or("run needs --out report.json")?;
    let (seed, seconds) = (seed(args)?, seconds(args)?);
    let reference = refkernel::ns_per_op();
    println!("machine.ref_ns_per_op {reference:.4} ns");
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        let (line, passed) = spawn(workload, seed, seconds, None)?;
        ok &= passed;
        entries.push(format!("\"{}\":{line}", workload.name()));
    }
    let report = format!(
        "{{\"seed\":{seed},\"seconds\":{seconds},\"machine.ref_ns_per_op\":{reference},\
         \"workloads\":{{{}}}}}\n",
        entries.join(",")
    );
    std::fs::write(out, report).map_err(|e| format!("{out}: {e}"))?;
    Ok(ok)
}

/// `trace`: every workload traced and untraced; writes the Chrome traces
/// and `layers.json` with the tracing overhead.
fn trace_all(args: &Args) -> Result<bool, String> {
    let dir = PathBuf::from(args.get("out").ok_or("trace needs --out DIR")?);
    let (seed, seconds) = (seed(args)?, seconds(args)?);
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        let (traced, traced_passed) = spawn(workload, seed, seconds, Some(&dir))?;
        let (untraced, untraced_passed) = spawn(workload, seed, seconds, None)?;
        ok &= traced_passed && untraced_passed;
        let metric = |line: &str, key: &str| {
            json::parse(line)
                .ok()
                .and_then(|d| d.get("metrics")?.get(key)?.get("value")?.as_f64())
                .ok_or_else(|| format!("{name}: no {key} in the result"))
        };
        let (traced_wall, wall) = (
            metric(&traced, "trace.sweep_wall_s")?,
            metric(&untraced, "wall_s")?,
        );
        println!(
            "{name:<18} tracing overhead {:.4} s per sweep ({traced_wall:.4} s traced vs {wall:.4} s)",
            traced_wall - wall
        );
        let fragment_path = dir.join(format!("{name}.layers.json"));
        let fragment = std::fs::read_to_string(&fragment_path).map_err(io)?;
        std::fs::remove_file(&fragment_path).map_err(io)?;
        entries.push(format!(
            "\"{name}\":{{\"untraced_wall_s\":{wall},\"tracing_overhead_s\":{},\"traced\":{}}}",
            traced_wall - wall,
            fragment.trim_end()
        ));
    }
    let layers = format!(
        "{{\"seed\":{seed},\"workloads\":{{{}}}}}\n",
        entries.join(",")
    );
    std::fs::write(dir.join("layers.json"), layers).map_err(io)?;
    Ok(ok)
}

#[cfg(test)]
mod tests {
    /// The settings lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect()
    }

    #[test]
    fn the_bench_compiles_with_the_repository_release_profile() {
        let ours = release_profile(include_str!("../Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, release_profile(include_str!("../../Cargo.toml")));
    }
}
