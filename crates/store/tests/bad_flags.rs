//! A flag value that does not parse or that no plan can run, a flag read
//! for a value but given without one, a flag that neither the sweep nor
//! the command reads, or a token nothing consumed makes every command that
//! builds the plan print one line `avc: <sweep>: --<flag>: …` and exit 1,
//! before anything is printed or any store is touched. The commands that
//! build no plan (`run`, `ls`, `show`, a name-less `top`) reject bad flags
//! as `avc: <command>: --<flag>: …` before anything runs, and every command
//! rejects a positional argument it does not take as `avc: <command>:
//! unexpected argument …`. An export that cannot write a CSV names it, and
//! `avc run` on a scenario of more than `u32::MAX` agents names the bound;
//! both exit 1 too.

use std::process::Command;

#[test]
fn bad_sweep_flags_exit_one_naming_the_flag() {
    let out = std::env::temp_dir().join(format!("avc-bad-flags-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    // Two cases pass a flag nothing reads: `--max_n` misspells
    // mc_three_state's `--max-n`, and mc_avc takes no `--runs`. Every
    // command but merge leaves `--stores` unread too; the message names
    // the first unread flag in sorted order. The last six give values
    // that do not parse and shared flags that cannot run.
    let cases: [(&str, &[&str], &str); 35] = [
        ("fig3", &["--ns", "10"], "ns"),
        ("fig3", &["--ns", "2"], "ns"),
        ("fig3", &["--runs", "0"], "runs"),
        ("fig4", &["--states", "3"], "states"),
        ("fig4", &["--n", "1"], "n"),
        ("fig4", &["--runs", "0"], "runs"),
        ("lb_four_state", &["--n", "1"], "n"),
        ("lb_four_state", &["--runs", "0"], "runs"),
        ("err_three_state", &["--ns", "1"], "ns"),
        ("err_three_state", &["--ns", "2"], "ns"),
        ("ablation_d", &["--budget", "8"], "budget"),
        ("ablation_d", &["--runs", "0"], "runs"),
        ("robustness", &["--n", "2"], "n"),
        ("lb_info", &["--runs", "0"], "runs"),
        ("lb_info", &["--ns", "100,3"], "ns"),
        ("graph_gap", &["--runs", "0"], "runs"),
        ("graph_gap", &["--n", "6"], "n"),
        ("dynamics", &["--n", "1"], "n"),
        ("dynamics", &["--eps", "0"], "eps"),
        ("dynamics", &["--eps", "1.5"], "eps"),
        ("dynamics", &["--eps", "NaN"], "eps"),
        ("dynamics", &["--m", "2"], "m"),
        ("dynamics", &["--d", "0"], "d"),
        ("dynamics", &["--d", "4294967296"], "d"),
        ("dynamics", &["--cadence", "0"], "cadence"),
        ("mc_three_state", &["--max-n", "0"], "max-n"),
        ("mc_three_state", &["--max-n", "4"], "max-n"),
        ("mc_three_state", &["--max_n", "3"], "max_n"),
        ("mc_avc", &["--quick", "--runs", "0"], "runs"),
        ("fig3", &["--runs", "many"], "runs"),
        ("fig3", &["--ns", "11,x"], "ns"),
        ("fig3", &["--threads", "0"], "threads"),
        ("fig3", &["--threads", "x"], "threads"),
        ("fig3", &["--serial", "--threads", "2"], "threads"),
        ("fig3", &["--shard", "x"], "shard"),
    ];
    // A value flag given bare, mid-line or last, is reported before any
    // unread flag (here `--stores`).
    let bare: [(&str, &[&str], &str); 3] = [
        ("mc_three_state", &["--max-n", "--quick"], "max-n"),
        ("fig3", &["--quick", "--seed"], "seed"),
        ("fig3", &["--threads", "--quick"], "threads"),
    ];
    let expected = cases
        .iter()
        .map(|&(name, flags, flag)| (name, flags, format!("avc: {name}: --{flag}: ")))
        .chain(bare.iter().map(|&(name, flags, flag)| {
            (
                name,
                flags,
                format!("avc: {name}: --{flag}: needs a value\n"),
            )
        }));
    for (name, flags, message) in expected {
        for command in ["sweep", "export", "report", "merge", "top"] {
            let output = Command::new(env!("CARGO_BIN_EXE_avc"))
                .args([command, name, "--out", out, "--stores", out])
                .args(flags)
                .output()
                .expect("spawn avc");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(1),
                "avc {command} {name} {flags:?}: {stderr}"
            );
            assert!(
                stderr.starts_with(&message) && stderr.lines().count() == 1,
                "avc {command} {name} {flags:?}: {stderr}"
            );
            assert!(
                output.stdout.is_empty(),
                "avc {command} {name} {flags:?} ran: {}",
                String::from_utf8_lossy(&output.stdout)
            );
        }
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a rejected plan touched the store"
    );
}

#[test]
fn commands_without_a_plan_reject_flags_they_do_not_read() {
    let out = std::env::temp_dir().join(format!("avc-bad-command-flags-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let scenario = format!("{examples}/fig3_cell.json");
    let grid = format!("{examples}/rivals_margin1.grid.json");
    let (scenario, grid) = (scenario.as_str(), grid.as_str());
    // `--quick` is a flag of grid files only; `--threads` and `--store`
    // are shared flags that take a value. Then two sweeps are given a word
    // nothing consumes, which is reported after any unread flag (so not in
    // the table above, where `--stores` is unread), and the last three
    // commands a positional argument they do not take.
    let cases: [(&[&str], &str); 17] = [
        (
            &["run", scenario, "--runs", "0", "--sed", "3"],
            "run: --runs: the command does not read it",
        ),
        (
            &["run", scenario, "--quick"],
            "run: --quick: the command does not read it",
        ),
        (
            &["run", scenario, "--threads"],
            "run: --threads: needs a value",
        ),
        (
            &["run", grid, "--quick", "--seed", "3"],
            "run: --seed: the command does not read it",
        ),
        (
            &["run", grid, "--threads", "--quick"],
            "run: --threads: needs a value",
        ),
        (
            &["ls", "--cell"],
            "ls: --cell: the command does not read it",
        ),
        (
            &["show", "0", "--wide"],
            "show: --wide: the command does not read it",
        ),
        (
            &["top", "--quick"],
            "top: --quick: the command does not read it",
        ),
        (&["top", "--last"], "top: --last: needs a value"),
        (
            &["top", "--store", "--watch"],
            "top: --store: needs a value",
        ),
        (
            &["top", "--last", "x"],
            "top: --last: expects an integer, got `x`",
        ),
        (
            &["run", scenario, "--threads", "x"],
            "run: --threads: expects an integer, got `x`",
        ),
        (
            &["sweep", "mc_three_state", "--quick", "1"],
            "mc_three_state: --quick: unexpected argument `1`",
        ),
        (
            &["sweep", "fig3", "--runs", "4", "5"],
            "fig3: --runs: unexpected argument `5`",
        ),
        (
            &["sweep", "mc_three_state", "mc_avc", "--quick"],
            "sweep: unexpected argument `mc_avc`",
        ),
        (
            &["run", scenario, "b.json"],
            "run: unexpected argument `b.json`",
        ),
        (&["ls", "extra"], "ls: unexpected argument `extra`"),
    ];
    for (command, message) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_avc"))
            .args(command)
            .args(["--out", out])
            .output()
            .expect("spawn avc");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "avc {command:?}: {stderr}");
        assert_eq!(stderr, format!("avc: {message}\n"), "avc {command:?}");
        assert!(
            output.stdout.is_empty(),
            "avc {command:?} ran: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a rejected command touched the store"
    );
}

#[test]
fn populations_past_the_bound_exit_one_naming_it() {
    // Past u32::MAX agents, `jump`'s n(n−1) overflows a u64 and `agent`
    // would ask for a 48 TB agent array: both fail at parse time.
    let cases = [
        ("jump", 4_294_967_297u64, 4_294_967_296u64),
        ("agent", 6_000_000_000_001, 6_000_000_000_000),
    ];
    for (engine, a, b) in cases {
        let path = std::env::temp_dir().join(format!(
            "avc-population-bound-{engine}-{}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            format!(
                r#"{{"protocol":"four_state","instance":{{"a":{a},"b":{b}}},"engine":"{engine}","rule":"output_consensus","runs":2,"seed":0}}"#
            ),
        )
        .expect("write a scenario file");
        let output = Command::new(env!("CARGO_BIN_EXE_avc"))
            .arg("run")
            .arg(&path)
            .output()
            .expect("spawn avc");
        std::fs::remove_file(&path).expect("remove the scenario file");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{engine}: {stderr}");
        assert_eq!(
            stderr,
            format!(
                "avc: {}: population n = {} exceeds 4294967295, the most agents a scenario \
                 may have\n",
                path.display(),
                a + b
            ),
            "{engine}"
        );
        assert!(
            output.stdout.is_empty(),
            "{engine} ran: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}

#[test]
fn export_names_the_csv_it_cannot_write() {
    let dir = std::env::temp_dir().join(format!("avc-export-fails-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let avc = |command: &str, out: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_avc"))
            .args([command, "mc_three_state", "--quick", "--store"])
            .arg(dir.join("store"))
            .arg("--out")
            .arg(out)
            .output()
            .expect("spawn avc")
    };
    assert!(avc("sweep", &dir).status.success());
    // A regular file where the CSV directory should be.
    let file = dir.join("file");
    std::fs::write(&file, "").expect("write a regular file");
    let output = avc("export", &file.join("out"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    let csv = file.join("out").join("mc_three_state.csv");
    assert!(
        stderr.starts_with(&format!("avc: cannot write {}: ", csv.display())),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
