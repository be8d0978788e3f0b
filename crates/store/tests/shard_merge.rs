//! The shard/merge protocol end to end: `avc sweep --shard i/k` slices the
//! cell grid into disjoint covering parts, and `avc merge` folds the shard
//! stores back into a `records.jsonl` **byte-identical** to an unsharded
//! sweep's.
//!
//! Byte-identity needs every nondeterministic byte out of the store, so the
//! child processes run with `AVC_TELEMETRY_NOWALL` set: the sweep then
//! records `wall_ms` as 0 and strips the telemetry `wall` registry, shard
//! gauges included, leaving records that are a pure function of the plan
//! and seed. Without it, each record names the shard that ran it, and
//! `avc report` on the merged store splits the work by shard.

use avc_analysis::cli::Args;
use avc_store::sweep::Shard;
use std::path::Path;
use std::process::Command;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("avc-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn avc(dir: &Path, args: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_avc"))
        .args(args)
        .args(["--out", dir.to_str().expect("utf-8 temp path")])
        .env("AVC_TELEMETRY_NOWALL", "1")
        .status()
        .expect("spawn avc");
    assert!(status.success(), "`avc {}` failed", args.join(" "));
}

/// As [`avc`] with wall telemetry kept, returning stdout.
fn avc_with_wall(dir: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_avc"))
        .args(args)
        .args(["--out", dir.to_str().expect("utf-8 temp path")])
        .env_remove("AVC_TELEMETRY_NOWALL")
        .output()
        .expect("spawn avc");
    assert!(output.status.success(), "`avc {}` failed", args.join(" "));
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// Shard ownership is a partition: for every k, each cell hash belongs to
/// exactly one of the k shards, and `0/1` owns everything.
#[test]
fn shards_partition_every_plan() {
    let quick = Args::parse(["--quick".to_string()]);
    for avc_store::specs::Registered { name, .. } in avc_store::specs::SWEEPS {
        let plan = avc_store::specs::build(name, &quick).expect("registered sweep builds");
        for k in 1..=5u64 {
            let shards: Vec<Shard> = (0..k)
                .map(|i| Shard::new(i, k).expect("valid shard"))
                .collect();
            for cell in &plan.cells {
                let hash = cell.manifest.hash();
                let owners = shards.iter().filter(|s| s.owns(&hash)).count();
                assert_eq!(
                    owners, 1,
                    "{name}/{} owned by {owners} of {k} shards",
                    cell.label
                );
            }
        }
        let full = Shard::full();
        assert!(plan.cells.iter().all(|c| full.owns(&c.manifest.hash())));
    }
}

#[test]
fn shard_parse_round_trips_and_rejects_malformed() {
    let shard = Shard::parse("2/5").expect("well-formed");
    assert_eq!(shard.to_string(), "2/5");
    assert!(!shard.is_full());
    assert!(Shard::parse("0/1").expect("well-formed").is_full());
    for bad in ["", "3", "3/", "/4", "a/b", "4/4", "5/3", "1/0", "1/1"] {
        assert!(Shard::parse(bad).is_err(), "`{bad}` should be rejected");
    }
}

/// The acceptance gate: a 3-way sharded quick fig3 sweep, merged, is
/// byte-identical to the unsharded (`--shard 0/1`) run — records and all.
#[test]
fn three_way_sharded_fig3_merges_byte_identical() {
    let base = temp_dir("base");
    avc(&base, &["sweep", "fig3", "--quick", "--shard", "0/1"]);

    let shards: Vec<_> = (0..3)
        .map(|i| {
            let dir = temp_dir(&format!("s{i}"));
            avc(
                &dir,
                &["sweep", "fig3", "--quick", "--shard", &format!("{i}/3")],
            );
            dir
        })
        .collect();

    let merged = temp_dir("merged");
    let stores = shards
        .iter()
        .map(|d| d.join("store").to_str().expect("utf-8").to_string())
        .collect::<Vec<_>>()
        .join(",");
    avc(&merged, &["merge", "fig3", "--quick", "--stores", &stores]);

    let records = |dir: &Path| {
        let path = dir.join("store/records.jsonl");
        std::fs::read(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()))
    };
    let (expected, got) = (records(&base), records(&merged));
    assert!(!expected.is_empty(), "unsharded store is empty");
    assert_eq!(
        expected, got,
        "merged records.jsonl differs from the unsharded sweep's"
    );

    // The shard stores are disjoint and together cover the 9-cell grid.
    let lines = |dir: &Path| {
        String::from_utf8(records(dir))
            .expect("utf-8")
            .lines()
            .count()
    };
    let total: usize = shards.iter().map(|d| lines(d)).sum();
    assert_eq!(total, 9, "shard stores overlap or miss cells");

    for dir in shards.iter().chain([&base, &merged]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// With wall telemetry kept, each record of a 2-way sharded sweep names
/// its shard, and `avc report` on the merged store prints one row per
/// shard whose cells add up to the grid.
#[test]
fn report_splits_a_merged_store_by_shard() {
    let shards: Vec<_> = (0..2)
        .map(|i| {
            let dir = temp_dir(&format!("wall-s{i}"));
            let shard = format!("{i}/2");
            avc_with_wall(&dir, &["sweep", "fig3", "--quick", "--shard", &shard]);
            dir
        })
        .collect();
    let merged = temp_dir("wall-merged");
    let stores = shards
        .iter()
        .map(|d| d.join("store").to_str().expect("utf-8").to_string())
        .collect::<Vec<_>>()
        .join(",");
    avc_with_wall(&merged, &["merge", "fig3", "--quick", "--stores", &stores]);

    let report = avc_with_wall(&merged, &["report", "fig3", "--quick"]);
    // Rows of the per-shard table: `| i/k | cells | trials | wall_s | … |`.
    let rows: Vec<(String, usize)> = report
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            let shard = fields.get(1)?;
            shard
                .ends_with("/2")
                .then(|| (shard.to_string(), fields[2].parse().expect("cell count")))
        })
        .collect();
    let names: Vec<&str> = rows.iter().map(|(shard, _)| shard.as_str()).collect();
    assert_eq!(names, ["0/2", "1/2"], "per-shard rows:\n{report}");
    let cells: usize = rows.iter().map(|&(_, cells)| cells).sum();
    assert_eq!(cells, 9, "per-shard cells:\n{report}");

    for dir in shards.iter().chain([&merged]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Merging with a shard missing reports the gap instead of writing a
/// partial store silently.
#[test]
fn merge_with_missing_shard_fails_loudly() {
    let only = temp_dir("only0");
    avc(&only, &["sweep", "fig3", "--quick", "--shard", "0/3"]);

    let merged = temp_dir("partial");
    let store = only.join("store");
    let output = Command::new(env!("CARGO_BIN_EXE_avc"))
        .args(["merge", "fig3", "--quick", "--stores"])
        .arg(store.to_str().expect("utf-8"))
        .args(["--out", merged.to_str().expect("utf-8")])
        .env("AVC_TELEMETRY_NOWALL", "1")
        .output()
        .expect("spawn avc");
    assert!(!output.status.success(), "partial merge should fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("missing from every shard store"),
        "unexpected error: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&only);
    let _ = std::fs::remove_dir_all(&merged);
}
