//! A sweep flag whose value no plan can run makes every command that
//! builds the plan print `avc: <sweep>: --<flag>: …` and exit 1, before
//! any store is touched.

use std::process::Command;

#[test]
fn bad_sweep_flags_exit_one_naming_the_flag() {
    let out = std::env::temp_dir().join(format!("avc-bad-flags-{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp path");
    let cases: [(&str, &[&str], &str); 15] = [
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
        ("graph_gap", &["--runs", "0"], "runs"),
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
