//! Golden determinism tests for the sweep stores, whose records carry each
//! cell's telemetry: the `records.jsonl` of a fixed-seed
//! `avc sweep fig3 --quick` at `--threads 1` and `--threads 4`, and of the
//! rival-protocol grid `examples/scenarios/rivals_margin1.grid.json
//! --quick`, must equal the committed fixtures under `tests/golden/` byte
//! for byte, and no sweep may write a second copy beside them. A
//! `fig4 --quick --runs 3` sweep, whose cells have fewer trials than
//! workers so that the worker pool runs two cells' batches at once, must
//! write the same store at `--threads 1`, `2` and `4`. `avc top` must tail
//! a store's records past a torn final line.
//!
//! Wall-clock sections are inherently run-dependent, so every sweep child
//! process runs with `AVC_TELEMETRY_NOWALL` set (scoped to the subprocess
//! — nothing leaks into this test harness), which makes every record pure
//! simulation-derived data. The remaining content is deterministic because
//! cell seeds are fixed and the harness's `sim.*` merges are integer sums,
//! independent of which worker ran which trial.
//!
//! The fixtures were recorded by the harness that built a fresh engine per
//! instrumented trial and merged per-trial telemetry in index order, so
//! they pin the single reusing batch loop to the algorithm it replaced;
//! the grid covers the agent engine under adversarial schedulers. A change
//! that means to alter results regenerates them with
//! `AVC_TELEMETRY_NOWALL=1 avc sweep <name> --quick --out DIR` and copies
//! `DIR/store/records.jsonl` over.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avc-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sweep(name: &str, dir: &Path, threads: &str) {
    sweep_with(name, dir, threads, &[]);
}

fn sweep_with(name: &str, dir: &Path, threads: &str, flags: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_avc"))
        .args(["sweep", name, "--quick", "--threads", threads])
        .args(flags)
        .args(["--out", dir.to_str().expect("utf-8 temp path")])
        .env("AVC_TELEMETRY_NOWALL", "1")
        .status()
        .expect("spawn avc");
    assert!(
        status.success(),
        "sweep {name} at --threads {threads} failed"
    );
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()))
}

/// Requires the store under `dir` to equal the fixture set `golden`, and
/// to hold nothing but its records.
fn assert_matches_golden(dir: &Path, golden: &str) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let file = "records.jsonl";
    let got = read(&dir.join("store").join(file));
    let want = read(&fixtures.join(golden).join(file));
    assert!(
        got == want,
        "{golden}/{file} differs from the committed fixture ({} vs {} bytes)",
        got.len(),
        want.len()
    );
    assert!(
        !dir.join("store/telemetry.jsonl").exists(),
        "the sweep wrote a telemetry.jsonl beside its records"
    );
}

#[test]
fn telemetry_stream_is_byte_identical_across_worker_counts() {
    let serial = temp_dir("t1");
    let parallel = temp_dir("t4");
    sweep("fig3", &serial, "1");
    sweep("fig3", &parallel, "4");
    assert_matches_golden(&serial, "fig3_quick");
    assert_matches_golden(&parallel, "fig3_quick");
    let _ = std::fs::remove_dir_all(&serial);
    let _ = std::fs::remove_dir_all(&parallel);
}

/// `avc top` tails `records.jsonl` in append order, and a torn final line
/// (what a kill mid-append leaves) changes nothing it prints.
#[test]
fn top_tails_the_records_past_a_torn_tail() {
    let dir = temp_dir("top");
    sweep("fig3", &dir, "2");
    let top = || {
        let output = Command::new(env!("CARGO_BIN_EXE_avc"))
            .args(["top", "fig3", "--quick", "--last", "3"])
            .args(["--out", dir.to_str().expect("utf-8 temp path")])
            .output()
            .expect("spawn avc");
        assert!(output.status.success(), "avc top failed: {output:?}");
        String::from_utf8(output.stdout).expect("utf-8 output")
    };
    let whole = top();
    let cells: Vec<&str> = whole.lines().filter(|l| l.contains(" steps/s")).collect();
    assert_eq!(cells.len(), 3, "avc top --last 3 printed:\n{whole}");
    assert!(
        cells.iter().all(|l| l.contains("n=1001/")),
        "the last three records are the n = 1001 cells:\n{whole}"
    );
    assert!(whole.starts_with("9 cell(s) stored"), "{whole}");

    use std::io::Write;
    std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("store/records.jsonl"))
        .and_then(|mut f| f.write_all(b"{\"schema\":1,\"hash\":\"torn"))
        .expect("append a torn tail");
    assert_eq!(top(), whole, "a torn tail changed what avc top prints");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rival_grid_stores_match_their_golden_fixture() {
    let grid = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/rivals_margin1.grid.json");
    let grid = grid.to_str().expect("utf-8 grid path");
    for threads in ["1", "3"] {
        let dir = temp_dir(&format!("rivals-t{threads}"));
        sweep(grid, &dir, threads);
        assert_matches_golden(&dir, "rivals_margin1_quick");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn overlapping_batches_write_the_same_store_at_any_worker_count() {
    let stores: Vec<(&str, PathBuf)> = ["1", "2", "4"]
        .into_iter()
        .map(|threads| {
            let dir = temp_dir(&format!("fig4-t{threads}"));
            sweep_with("fig4", &dir, threads, &["--runs", "3"]);
            (threads, dir)
        })
        .collect();
    let (_, first) = &stores[0];
    let file = "records.jsonl";
    let want = read(&first.join("store").join(file));
    assert!(!want.is_empty(), "{file} is empty");
    for (threads, dir) in &stores[1..] {
        assert!(
            read(&dir.join("store").join(file)) == want,
            "{file} differs between --threads 1 and --threads {threads}"
        );
    }
    for (_, dir) in stores {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
