//! End-to-end checks of the paper's headline claims at reduced scale, run
//! in memory through the same sweep plans that regenerate the figures.

use avc::analysis::cli::Args;
use avc::analysis::harness::StatsCollector;
use avc::analysis::stats::loglog_slope;
use avc::store::record::CellResult;
use avc::store::specs;
use avc::verify::enumerate::three_state_impossibility;
use avc::verify::knowledge::{cover_steps, expected_cover_steps};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds the registered sweep `name` from `flags` and runs every cell:
/// `(label, result)` pairs in plan order.
fn run_sweep(name: &str, flags: &str) -> Vec<(String, CellResult)> {
    run_cells(name, flags, |_| true)
}

/// As [`run_sweep`], running only the cells whose labels `keep` accepts.
fn run_cells(name: &str, flags: &str, keep: impl Fn(&str) -> bool) -> Vec<(String, CellResult)> {
    let plan = specs::build(name, &Args::parse(flags.split(' ').map(str::to_string)))
        .unwrap_or_else(|| panic!("no sweep {name}"));
    let stats = StatsCollector::new();
    plan.cells
        .iter()
        .filter(|cell| keep(&cell.label))
        .map(|cell| (cell.label.clone(), (cell.run)(&stats)))
        .collect()
}

/// The result of the cell labelled `label`.
fn cell<'r>(cells: &'r [(String, CellResult)], label: &str) -> &'r CellResult {
    cells
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, r)| r)
        .unwrap_or_else(|| panic!("missing {label}"))
}

/// A cell's mean parallel convergence time over its converged runs.
fn mean(result: &CellResult) -> f64 {
    let trials = result.trials.as_ref().expect("scenario cells keep trials");
    trials.summary().expect("some run converged").mean
}

/// A cell's fraction of runs that did not reach the majority's consensus.
fn error_fraction(result: &CellResult) -> f64 {
    result
        .trials
        .as_ref()
        .expect("scenario cells keep trials")
        .error_fraction
}

/// Figure 3's ordering: AVC ≈ 3-state ≪ 4-state at `ε = 1/n`, with the
/// exact protocols at zero error and the 3-state protocol erring.
#[test]
fn figure3_ordering_holds() {
    let cells = run_sweep("fig3", "--ns 1001 --runs 21 --seed 3");
    let get = |key: &str| cell(&cells, &format!("n=1001/{key}"));
    let t3 = mean(get("three_state"));
    let t4 = mean(get("four_state"));
    let tavc = mean(get("avc"));

    assert!(t4 > 20.0 * tavc, "4-state {t4} should dwarf AVC {tavc}");
    assert!(
        tavc < 5.0 * t3,
        "AVC {tavc} should be comparable to 3-state {t3}"
    );
    assert_eq!(error_fraction(get("four_state")), 0.0);
    assert_eq!(error_fraction(get("avc")), 0.0);
    assert!(
        error_fraction(get("three_state")) > 0.2,
        "3-state should err often at eps = 1/n"
    );
}

/// Figure 4's left panel: at fixed `s`, time scales like `1/ε`; at fixed
/// `ε`, time falls roughly like `1/s` (until the polylog floor).
#[test]
fn figure4_scaling_shape_holds() {
    let cells = run_sweep(
        "fig4",
        "--quick --n 4001 --states 4,34,258 --runs 9 --seed 11",
    );
    let get = |s: u64, eps: &str| mean(cell(&cells, &format!("s={s}/eps={eps}")));
    // Left panel: 1/eps growth at s = 4 across two decades.
    let slope = loglog_slope(
        &[1e3, 1e2, 1e1],
        &[get(4, "1e-3"), get(4, "1e-2"), get(4, "1e-1")],
    );
    assert!((0.5..1.5).contains(&slope), "eps-scaling slope {slope}");
    // More states help at the hard margin by at least ~4x per ~8x states.
    assert!(get(4, "1e-3") > 4.0 * get(34, "1e-3"));
    assert!(get(34, "1e-3") > 2.0 * get(258, "1e-3"));
    // Right panel: the s·ε collapse — equal s·ε cells have similar times.
    let a = get(34, "1e-2"); // s·ε = 0.34
    let b = get(258, "1e-3"); // s·ε ≈ 0.258
    let ratio = a / b;
    assert!(
        (0.2..5.0).contains(&ratio),
        "collapse failed: {a} vs {b} at similar s*eps"
    );
}

/// Theorem B.1's shape: the four-state protocol's time is `Θ(1/ε)`.
///
/// At `n = 10 001` the default grid's five largest margins, `1e-4` to
/// `1e-2`, round to five distinct gaps; the two smaller ones round to the
/// same one-agent gap as `1e-4` and are not run.
#[test]
fn four_state_lower_bound_scaling() {
    let fitted = [
        "eps=1e-4",
        "eps=3.16e-4",
        "eps=1e-3",
        "eps=3.16e-3",
        "eps=1e-2",
    ];
    let cells = run_cells("lb_four_state", "--n 10001 --runs 11 --seed 21", |label| {
        fitted.contains(&label)
    });
    assert_eq!(cells.len(), fitted.len());
    let (inv_eps, times): (Vec<f64>, Vec<f64>) = cells
        .iter()
        .map(|(_, r)| (1.0 / r.value("achieved_eps").unwrap(), mean(r)))
        .unzip();
    let slope = loglog_slope(&inv_eps, &times);
    assert!(
        (0.6..1.4).contains(&slope),
        "expected Θ(1/eps), fitted exponent {slope}"
    );
}

/// Theorem C.1's shape: knowledge-set cover needs `Θ(n log n)` steps, and
/// the simulation matches the closed-form expectation.
#[test]
fn information_lower_bound_scaling() {
    let mut rng = SmallRng::seed_from_u64(5);
    for n in [200u64, 2_000] {
        let trials = 60;
        let mean = (0..trials)
            .map(|_| cover_steps(n, &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        let expected = expected_cover_steps(n);
        assert!(
            (mean - expected).abs() / expected < 0.15,
            "n={n}: {mean} vs {expected}"
        );
        // Θ(log n) parallel time: between ln n and 3·ln n.
        let parallel = expected / n as f64;
        let ln_n = (n as f64).ln();
        assert!(parallel > 0.8 * ln_n && parallel < 3.0 * ln_n);
    }
}

/// The PVV09 error law: the empirical error is within an order of magnitude
/// of `exp(−D·n)` and decays sharply in `ε²n`, here from `ε²n ≈ 0.06` to
/// `ε²n ≈ 5`, two cells of the default grid.
#[test]
fn three_state_error_law_shape() {
    let (near_tie, wide) = ("n=2001/eps=0.005", "n=2001/eps=0.05");
    let cells = run_cells(
        "err_three_state",
        "--ns 2001 --runs 200 --seed 17",
        |label| [near_tie, wide].contains(&label),
    );
    let near_tie = error_fraction(cell(&cells, near_tie));
    let wide = error_fraction(cell(&cells, wide));
    assert!(near_tie > 5.0 * wide.max(0.005), "{near_tie} vs {wide}");
}

/// The MNRS14 impossibility on a reduced instance set (the full n ≤ 7 sweep
/// is `avc sweep mc_three_state`).
#[test]
fn no_three_state_protocol_is_exact_up_to_n5() {
    let outcome = three_state_impossibility(5);
    assert_eq!(outcome.candidates, 2 * 6u64.pow(6));
    assert_eq!(outcome.survivors, 0);
}
