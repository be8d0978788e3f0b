//! A sweep flag whose value no plan can run, or a flag that neither the
//! sweep nor the command reads, makes every command that builds the plan
//! print `avc: <sweep>: --<flag>: …` and exit 1, before any store is
//! touched; an export that cannot write a CSV names it and exits 1 too.

use std::process::Command;

#[test]
fn bad_sweep_flags_exit_one_naming_the_flag() {
    let out = std::env::temp_dir().join(format!("avc-bad-flags-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    // The last two cases pass a flag nothing reads: `--max_n` misspells
    // mc_three_state's `--max-n`, and mc_avc takes no `--runs`. Every
    // command but merge leaves `--stores` unread too; the message names
    // the first unread flag in sorted order.
    let cases: [(&str, &[&str], &str); 29] = [
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
    ];
    for (name, flags, flag) in cases {
        for command in ["sweep", "export", "report", "merge", "top"] {
            let output = Command::new(env!("CARGO_BIN_EXE_avc"))
                .args([command, name])
                .args(flags)
                .args(["--out", out, "--stores", out])
                .output()
                .expect("spawn avc");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(1),
                "avc {command} {name} {flags:?}: {stderr}"
            );
            assert!(
                stderr.starts_with(&format!("avc: {name}: --{flag}: ")),
                "avc {command} {name} {flags:?}: {stderr}"
            );
        }
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a rejected plan touched the store"
    );
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
