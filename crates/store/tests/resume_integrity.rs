//! Kill-and-resume integrity: `SIGKILL` an `avc sweep` mid-cell, resume it
//! at a *different* parallelism, and require the exported CSVs to be
//! byte-identical to an uninterrupted reference run.
//!
//! This is the crash-safety contract end to end: the store loses at most
//! the two in-flight cells (the victims run on the worker pool at
//! `--threads 2`, which runs the next cell's batch beside the current
//! one's), the resumed sweep recomputes exactly the missing cells, and
//! per-cell seeding makes the worker count irrelevant.

use avc_store::store::Store;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Flags chosen so the sweep has three cells of roughly 0.4s / 0.5s / 4s
/// on one core: the first record lands fast and the kill window after it
/// is wide.
const SWEEP_FLAGS: [&str; 4] = ["--ns", "5001", "--runs", "80"];
const TOTAL_CELLS: usize = 3;

fn avc(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_avc"));
    cmd.args(args)
        .args(SWEEP_FLAGS)
        .args(["--out", dir.to_str().expect("utf-8 temp path")]);
    cmd
}

fn read_csvs(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let read = |stem: &str| {
        let path = dir.join(format!("{stem}.csv"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()))
    };
    (read("fig3_time"), read("fig3_error"))
}

/// Durable records: newline-terminated lines only, since a kill can land
/// mid-append and leave a torn final line.
fn record_count(dir: &Path) -> usize {
    std::fs::read(dir.join("store/records.jsonl"))
        .map(|bytes| bytes.iter().filter(|&&b| b == b'\n').count())
        .unwrap_or(0)
}

/// Appends an unterminated fragment, as a kill mid-append leaves one.
fn inject_torn_tail(path: &Path, fragment: &[u8]) {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("open {} for torn-tail injection: {e}", path.display()));
    f.write_all(fragment).expect("inject torn tail");
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("avc-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn killed_sweep_resumes_to_byte_identical_export() {
    // Uninterrupted reference, serial workers.
    let reference = temp_dir("reference");
    let status = avc(&reference, &["sweep", "fig3", "--serial"])
        .status()
        .expect("spawn avc");
    assert!(status.success(), "reference sweep failed");
    let status = avc(&reference, &["export", "fig3"])
        .stdout(Stdio::null())
        .status()
        .expect("spawn avc");
    assert!(status.success(), "reference export failed");
    let (ref_time, ref_error) = read_csvs(&reference);

    // Interrupted run on the pool: SIGKILL once the first cell is durable
    // and the next ones are (very likely) in flight.
    let victim = temp_dir("victim");
    let mut child = avc(&victim, &["sweep", "fig3", "--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn avc");
    let deadline = Instant::now() + Duration::from_secs(60);
    while record_count(&victim) == 0 {
        assert!(Instant::now() < deadline, "no cell completed within 60s");
        if child.try_wait().expect("poll child").is_some() {
            panic!("sweep finished before any kill could land");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(200));
    child.kill().expect("SIGKILL the sweep"); // SIGKILL on unix: no cleanup runs
    let _ = child.wait();

    // The kill can leave an unterminated final line in the telemetry
    // journal and in the records file; make that certain by appending one
    // to each ourselves. The resumed sweep must drop exactly these
    // fragments and continue both streams.
    let journal_path = victim.join("store/telemetry.jsonl");
    let records_path = victim.join("store/records.jsonl");
    inject_torn_tail(&journal_path, b"{\"hash\":\"torn");
    inject_torn_tail(&records_path, b"{\"schema\":1,\"hash\":\"torn");

    // The store must hold a durable, loadable prefix of the grid.
    let survived = record_count(&victim);
    assert!(
        survived < TOTAL_CELLS,
        "kill landed after the sweep finished; widen the sweep to keep this test honest"
    );
    let store = Store::open(victim.join("store")).expect("killed store still parses");
    assert_eq!(store.len(), survived);

    // Export must refuse while cells are missing.
    let output = avc(&victim, &["export", "fig3"])
        .output()
        .expect("spawn avc");
    assert!(
        !output.status.success(),
        "export of a partial store must fail"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("missing from the store"),
        "unexpected export error: {stderr}"
    );

    // Resume at a different worker count; only missing cells may run.
    let output = avc(&victim, &["sweep", "fig3", "--serial"])
        .output()
        .expect("spawn avc");
    assert!(output.status.success(), "resume failed");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        stderr.matches("— cached").count(),
        survived,
        "resume recomputed a cell that was already durable: {stderr}"
    );

    let status = avc(&victim, &["export", "fig3"])
        .stdout(Stdio::null())
        .status()
        .expect("spawn avc");
    assert!(status.success(), "post-resume export failed");
    let (victim_time, victim_error) = read_csvs(&victim);
    assert_eq!(victim_time, ref_time, "fig3_time.csv differs after resume");
    assert_eq!(
        victim_error, ref_error,
        "fig3_error.csv differs after resume"
    );

    // Telemetry stream self-consistency after the crash + resume: the
    // injected torn tail is gone, every surviving line is a complete JSON
    // journal entry, and every durable record's hash is journaled (the
    // journal line lands before the store append, so a durable record
    // implies its line survived).
    let journal = std::fs::read_to_string(&journal_path).expect("journal readable after resume");
    assert!(
        journal.ends_with('\n'),
        "resumed journal left an unterminated tail"
    );
    let mut journaled = std::collections::BTreeSet::new();
    for line in journal.lines() {
        let parsed = avc_store::json::Json::parse(line)
            .unwrap_or_else(|e| panic!("torn or corrupt journal line `{line}`: {e}"));
        let hash = parsed
            .get("hash")
            .and_then(avc_store::json::Json::as_str)
            .expect("journal line missing hash");
        assert_ne!(hash, "torn", "injected torn fragment survived the resume");
        assert!(parsed.get("telemetry").is_some(), "line missing telemetry");
        journaled.insert(hash.to_string());
    }
    let store = Store::open(victim.join("store")).expect("resumed store parses");
    for record in store.iter_latest() {
        let hash = record.manifest.hash();
        assert!(
            journaled.contains(&hash),
            "durable record {hash} has no telemetry journal line"
        );
    }

    // The records file likewise: the resumed appends overwrote the torn
    // fragment, and every line is a whole record.
    let records = std::fs::read_to_string(&records_path).expect("records readable after resume");
    assert!(
        records.ends_with('\n'),
        "resumed records.jsonl left an unterminated tail"
    );
    for line in records.lines() {
        let parsed = avc_store::json::Json::parse(line)
            .unwrap_or_else(|e| panic!("torn or corrupt record line `{line}`: {e}"));
        avc_store::record::Record::from_json(&parsed)
            .unwrap_or_else(|e| panic!("record line `{line}` does not load: {e}"));
    }
    assert_eq!(records.lines().count(), TOTAL_CELLS);

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&victim);
}

/// As above for the `robustness` sweep, whose grid includes fault-config
/// cells (crash/revive and corruption plans) and adversarial-scheduler
/// cells: killing mid-grid and resuming must recompute exactly the missing
/// cells — faulted ones included — and export byte-identically. This holds
/// because fault injection draws no randomness and cell seeds derive from
/// the (protocol, scenario) index alone.
#[test]
fn killed_robustness_sweep_resumes_to_byte_identical_export() {
    const ROBUSTNESS_CELLS: usize = 16;
    let avc = |dir: &Path, args: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_avc"));
        cmd.args(args)
            .args(["--quick", "--out", dir.to_str().expect("utf-8 temp path")]);
        cmd
    };
    let read_csv = |dir: &Path| {
        let path = dir.join("robustness.csv");
        std::fs::read(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()))
    };

    // Uninterrupted reference.
    let reference = temp_dir("robustness-reference");
    let status = avc(&reference, &["sweep", "robustness", "--serial"])
        .status()
        .expect("spawn avc");
    assert!(status.success(), "reference sweep failed");
    let status = avc(&reference, &["export", "robustness"])
        .stdout(Stdio::null())
        .status()
        .expect("spawn avc");
    assert!(status.success(), "reference export failed");
    let ref_csv = read_csv(&reference);

    // Every cell records its batch telemetry, so the report has one row per
    // cell (a markdown row starts with `| ` and names its cell).
    let output = avc(&reference, &["report", "robustness"])
        .output()
        .expect("spawn avc");
    assert!(output.status.success(), "report failed: {output:?}");
    let report = String::from_utf8_lossy(&output.stdout);
    let rows = report
        .lines()
        .filter(|l| l.starts_with("| avc/") || l.starts_with("| four_state/"))
        .count();
    assert_eq!(rows, ROBUSTNESS_CELLS, "report rows:\n{report}");
    assert!(
        report.contains("workers: 1 threads busy"),
        "report lacks the serial sweep's workers line:\n{report}"
    );

    // Interrupted run on the pool: SIGKILL once the first cell is durable.
    let victim = temp_dir("robustness-victim");
    let mut child = avc(&victim, &["sweep", "robustness", "--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn avc");
    let deadline = Instant::now() + Duration::from_secs(60);
    while record_count(&victim) == 0 {
        assert!(Instant::now() < deadline, "no cell completed within 60s");
        if child.try_wait().expect("poll child").is_some() {
            panic!("sweep finished before any kill could land");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL the sweep");
    let _ = child.wait();

    let survived = record_count(&victim);
    assert!(
        survived < ROBUSTNESS_CELLS,
        "kill landed after the sweep finished; widen the sweep to keep this test honest"
    );
    let store = Store::open(victim.join("store")).expect("killed store still parses");
    assert_eq!(store.len(), survived);

    // Resume at a different worker count; only missing cells may run. The
    // grid ends with the four_state fault-config cells, so the recomputed
    // tail always exercises at least one faulted cell.
    let output = avc(&victim, &["sweep", "robustness", "--serial"])
        .output()
        .expect("spawn avc");
    assert!(output.status.success(), "resume failed");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        stderr.matches("— cached").count(),
        survived,
        "resume recomputed a cell that was already durable: {stderr}"
    );

    let status = avc(&victim, &["export", "robustness"])
        .stdout(Stdio::null())
        .status()
        .expect("spawn avc");
    assert!(status.success(), "post-resume export failed");
    assert_eq!(
        read_csv(&victim),
        ref_csv,
        "robustness.csv differs after resume"
    );

    // Every durable record of the resumed store — survivors and recomputed
    // cells alike — embeds its declarative scenario: the manifest alone is
    // a re-run recipe (`avc run` executes the embedded JSON directly), and
    // the stored hash matches a reparse of the stored form.
    let store = Store::open(victim.join("store")).expect("resumed store parses");
    assert_eq!(store.len(), ROBUSTNESS_CELLS);
    for record in store.iter_latest() {
        let text = record
            .manifest
            .get("scenario")
            .expect("robustness manifest lacks an embedded scenario");
        let scenario = avc_population::Scenario::parse(text)
            .unwrap_or_else(|e| panic!("embedded scenario does not parse: {e}"));
        assert_eq!(
            record.manifest.get("scenario_hash"),
            Some(scenario.hash().as_str()),
            "scenario_hash param disagrees with the embedded scenario"
        );
    }

    let _ = std::fs::remove_dir_all(&reference);
    let _ = std::fs::remove_dir_all(&victim);
}
