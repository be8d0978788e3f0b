//! The committed `results/` reproduce and show what the paper claims.
//!
//! fig3's cells for `n` up to 1001, at the default runs and seed, rebuild
//! the first nine data rows of `results/fig3_time.csv` and
//! `results/fig3_error.csv` byte for byte. Cell seeds depend on each
//! value's index in `--ns`, so only a prefix of the default list
//! reproduces committed rows. Through the `avc` binary, the CI release job
//! checks longer prefixes (fig3 to n = 10001, err_three_state at
//! n = 1001) and reruns ablation_d, lb_info, graph_gap, dynamics, mc_avc
//! and mc_three_state whole, comparing their CSVs byte for byte.
//!
//! fig3's n = 11 rows and its n = 101 three_state and four_state rows are
//! held to the exact expected times of their absorbing chains, and its
//! three_state error rows at n = 11 and 101 to the exact probability of
//! the wrong consensus. The other tests only read the committed full-size
//! CSVs of fig3, fig4, lb_info, lb_four_state, graph_gap, dynamics and the
//! model checks, and check the shape each artifact exists to show.

use avc::analysis::cli::Args;
use avc::analysis::harness::StatsCollector;
use avc::analysis::stats::loglog_slope;
use avc::population::{Config, ConvergenceRule, MajorityInstance, Opinion, Protocol};
use avc::protocols::{Avc, FourState, ThreeState};
use avc::store::specs;
use avc::verify::exact_time::{consensus_probability, expected_steps_to_convergence};
use std::ops::RangeInclusive;
use std::path::Path;

/// A committed `results/<stem>.csv`: its header and data rows, with
/// double-quoted fields unquoted.
struct Committed {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Committed {
    fn read(stem: &str) -> Committed {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{stem}.csv"));
        let text = std::fs::read_to_string(&path).expect("committed CSV");
        let mut lines = text.lines().map(fields);
        let header = lines.next().expect("a header line");
        Committed {
            header,
            rows: lines.collect(),
        }
    }

    /// The column named `name`, as text.
    fn text(&self, name: &str) -> Vec<&str> {
        let i = self.header.iter().position(|h| h == name);
        let i = i.unwrap_or_else(|| panic!("no column {name}"));
        self.rows.iter().map(|row| row[i].as_str()).collect()
    }

    /// The column named `name`, as numbers.
    fn numbers(&self, name: &str) -> Vec<f64> {
        let parse = |v: &str| v.parse().unwrap_or_else(|_| panic!("{name}: `{v}`"));
        self.text(name).into_iter().map(parse).collect()
    }
}

/// The fields of one CSV line (no embedded quotes or line breaks).
fn fields(line: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(String::new()),
            _ => fields.last_mut().expect("a field").push(c),
        }
    }
    fields
}

#[test]
fn fig3_prefix_reproduces_the_committed_rows() {
    let args = Args::parse(["--ns", "11,101,1001"].map(str::to_string));
    let plan = specs::build("fig3", &args).expect("fig3 is registered");
    let stats = StatsCollector::new();
    let results: Vec<_> = plan.cells.iter().map(|cell| (cell.run)(&stats)).collect();
    let export = (plan.export)(&results.iter().collect::<Vec<_>>());
    for (stem, table) in &export.tables {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/{stem}.csv"));
        let committed = std::fs::read_to_string(&path).expect("committed CSV");
        let rebuilt = table.to_csv();
        assert_eq!(rebuilt.lines().count(), 10, "{stem}: header plus nine rows");
        let prefix: Vec<&str> = committed.lines().take(10).collect();
        assert_eq!(
            rebuilt.lines().collect::<Vec<_>>(),
            prefix,
            "{stem}.csv rows differ from the committed file"
        );
    }
}

/// The band a committed log–log slope of 1 must fall in. The fits'
/// standard errors (0.002–0.013 on these files) are narrower than the
/// finite-size bend of the curves, so "1 within its standard error" would
/// fail curves that show the claimed scaling.
const SLOPE_BAND: RangeInclusive<f64> = 0.9..=1.1;

#[test]
fn lb_info_cover_time_is_linear_in_ln_n() {
    let lb_info = Committed::read("lb_info");
    let slope = loglog_slope(
        &lb_info.numbers("ln_n"),
        &lb_info.numbers("mean_parallel_time"),
    );
    assert!(SLOPE_BAND.contains(&slope), "slope {slope}");
    let expected = lb_info.numbers("expected_steps_closed_form");
    for (mean, expected) in lb_info.numbers("mean_steps").into_iter().zip(expected) {
        assert!(
            (mean / expected - 1.0).abs() <= 0.05,
            "{mean} steps against {expected}"
        );
    }
}

#[test]
fn lb_four_state_time_is_linear_in_one_over_eps() {
    let lb_four_state = Committed::read("lb_four_state");
    let one_over_eps = lb_four_state.numbers("one_over_eps");
    assert_eq!(one_over_eps.len(), 7, "one row per eps");
    let slope = loglog_slope(&one_over_eps, &lb_four_state.numbers("mean_parallel_time"));
    assert!(SLOPE_BAND.contains(&slope), "slope {slope}");
}

#[test]
fn fig4_time_is_linear_in_one_over_eps_up_to_66_states() {
    let fig4 = Committed::read("fig4");
    let rows: Vec<_> = fig4
        .numbers("s")
        .into_iter()
        .zip(fig4.numbers("eps"))
        .zip(fig4.numbers("achieved_eps"))
        .zip(fig4.numbers("mean_parallel_time"))
        .map(|(((s, eps), achieved), time)| (s, eps, achieved, time))
        .collect();
    let mut states: Vec<f64> = rows
        .iter()
        .map(|row| row.0)
        .filter(|&s| s <= 66.0)
        .collect();
    states.dedup();
    assert_eq!(states, [4.0, 6.0, 12.0, 24.0, 34.0, 66.0]);
    for s in states {
        let (inverse_eps, times): (Vec<f64>, Vec<f64>) = rows
            .iter()
            .filter(|row| row.0 == s && row.1 <= 1e-3)
            .map(|row| (1.0 / row.2, row.3))
            .unzip();
        assert_eq!(times.len(), 5, "s = {s}: eps 1e-5 to 1e-3");
        let slope = loglog_slope(&inverse_eps, &times);
        assert!(SLOPE_BAND.contains(&slope), "s = {s}: slope {slope}");
    }
}

#[test]
fn graph_gap_time_rises_with_the_inverse_gap() {
    let graph_gap = Committed::read("graph_gap");
    let graphs = graph_gap.text("graph");
    let by_graph = |prefix: &str, column: &str| {
        let i = graphs.iter().position(|g| g.starts_with(prefix));
        graph_gap.numbers(column)[i.unwrap_or_else(|| panic!("no {prefix} row"))]
    };
    let slowing = ["clique", "random 6-regular", "grid", "cycle"];
    for pair in slowing.windows(2) {
        assert!(by_graph(pair[0], "one_over_gap") < by_graph(pair[1], "one_over_gap"));
        assert!(
            by_graph(pair[0], "mean_parallel_time") < by_graph(pair[1], "mean_parallel_time"),
            "{} is not faster than {}",
            pair[0],
            pair[1]
        );
    }
    assert!(graph_gap.numbers("timeouts").iter().all(|&t| t == 0.0));
}

#[test]
fn dynamics_keeps_the_value_sum_and_halves_the_weights() {
    let dynamics = Committed::read("dynamics");
    let total = dynamics.numbers("total_value");
    assert!(total.iter().all(|&v| v == total[0]), "value sum drifted");
    let max_pos = dynamics.numbers("max_pos_weight");
    assert_eq!(max_pos[0], 1023.0);
    assert!(max_pos.windows(2).all(|w| w[1] <= w[0]), "max weight rose");
    assert_eq!(dynamics.numbers("strong_neg").last(), Some(&0.0));
    assert_eq!(dynamics.numbers("intermediate_neg").last(), Some(&0.0));
}

#[test]
fn model_checks_hold() {
    let mc_avc = Committed::read("mc_avc");
    let results = mc_avc.text("result");
    let proofs: Vec<_> = mc_avc
        .text("check")
        .into_iter()
        .zip(results)
        .filter(|(check, _)| check.starts_with("exact") || check.starts_with("invariant"))
        .collect();
    assert_eq!(proofs.len(), 3, "two exactness rows and one invariant row");
    for (check, result) in proofs {
        assert_eq!(result, "holds", "{check}");
    }
    let mc_three_state = Committed::read("mc_three_state");
    assert_eq!(mc_three_state.numbers("survivors"), [0.0]);
}

/// fig3's committed `stem` rows of the protocol whose label starts with
/// `prefix`, as `(n, value of column)` pairs in file order.
fn fig3_column(stem: &str, prefix: &str, column: &str) -> Vec<(f64, f64)> {
    let fig3 = Committed::read(stem);
    let protocols = fig3.text("protocol");
    let rows = fig3.numbers("n").into_iter().zip(fig3.numbers(column));
    let rows = rows
        .zip(protocols)
        .filter(|(_, protocol)| protocol.starts_with(prefix));
    rows.map(|(row, _)| row).collect()
}

#[test]
fn fig3_exact_protocols_never_reach_a_wrong_consensus() {
    for exact in ["4-state", "avc("] {
        let errors = fig3_column("fig3_error", exact, "error_fraction");
        assert_eq!(errors.len(), 5, "{exact}: one row per n");
        assert!(errors.iter().all(|&(_, e)| e == 0.0), "{exact}: {errors:?}");
        let runs = fig3_column("fig3_error", exact, "runs");
        assert_eq!(runs.iter().map(|&(_, r)| r).sum::<f64>(), 505.0, "{exact}");
    }
}

#[test]
fn fig3_four_state_slowdown_over_avc_rises_with_n() {
    let four_state = fig3_column("fig3_time", "4-state", "mean_parallel_time");
    let avc = fig3_column("fig3_time", "avc(", "mean_parallel_time");
    assert_eq!(four_state.len(), 5, "one four_state row per n");
    let ratios: Vec<f64> = four_state
        .iter()
        .zip(&avc)
        .map(|(&(n, slow), &(avc_n, fast))| {
            assert_eq!(n, avc_n, "rows out of step");
            slow / fast
        })
        .collect();
    assert!(ratios.windows(2).all(|w| w[0] < w[1]), "{ratios:?}");
}

/// The largest |z| a committed fig3 time may show against its exact value:
/// two-sided, Bonferroni over the five cells checked, at a family-wise
/// rate of 10⁻³.
const FIG3_Z_BOUND: f64 = 3.72;

/// The largest |z| a committed fig3 error fraction may show against its
/// exact value: two-sided, Bonferroni over the two rows checked, at a
/// family-wise rate of 10⁻³.
const FIG3_ERROR_Z_BOUND: f64 = 3.48;

/// fig3's committed `stem` table and the index of its `label` row at `n`.
fn fig3_row(stem: &str, label: &str, n: u64) -> (Committed, usize) {
    let fig3 = Committed::read(stem);
    let (ns, labels) = (fig3.text("n"), fig3.text("protocol"));
    let row = (0..fig3.rows.len()).find(|&i| ns[i] == n.to_string() && labels[i] == label);
    let row = row.unwrap_or_else(|| panic!("no {stem} row for {label} at n = {n}"));
    (fig3, row)
}

/// `protocol` on fig3's cell at `n`, set up as the sweep sets it up: the
/// one-extra instance.
fn fig3_start<P: Protocol>(protocol: &P, n: u64) -> Config {
    let instance = MajorityInstance::one_extra(n);
    Config::from_input(protocol, instance.a(), instance.b())
}

/// Holds fig3's committed `label` row at `n` to the exact expected parallel
/// time of `protocol`'s chain under `rule`, set up as the sweep sets the
/// cell up: z = (mean − exact) / (std_dev / √runs).
fn fig3_time_is_exact<P: Protocol>(protocol: &P, rule: ConvergenceRule, label: &str, n: u64) {
    let (fig3, row) = fig3_row("fig3_time", label, n);
    let column = |name: &str| fig3.numbers(name)[row];
    let steps = expected_steps_to_convergence(protocol, &fig3_start(protocol, n), rule, 1_000_000)
        .expect("the chain fits the configuration budget")
        .expect("every configuration reaches convergence");
    let exact = steps / n as f64;
    let stderr = column("std_dev") / column("runs").sqrt();
    let z = (column("mean_parallel_time") - exact) / stderr;
    assert!(
        z.abs() <= FIG3_Z_BOUND,
        "{label} at n = {n}: committed {} against exact {exact:.4} (z = {z:.2})",
        column("mean_parallel_time")
    );
}

/// Holds fig3's committed three_state error fraction at `n` to the exact
/// probability that its chain, set up as the sweep sets the cell up, ends
/// with every agent in `y`, the minority's state: z = (committed − exact)
/// / √(exact · (1 − exact) / runs).
fn fig3_three_state_error_is_exact(n: u64) {
    let (fig3, row) = fig3_row("fig3_error", "3-state", n);
    let column = |name: &str| fig3.numbers(name)[row];
    let protocol = ThreeState::new();
    let rule = ConvergenceRule::StateConsensus;
    let start = fig3_start(&protocol, n);
    let exact = consensus_probability(&protocol, &start, rule, Opinion::B, 1_000_000)
        .expect("the chain fits the configuration budget")
        .expect("every configuration reaches convergence");
    let stderr = (exact * (1.0 - exact) / column("runs")).sqrt();
    let z = (column("error_fraction") - exact) / stderr;
    assert!(
        z.abs() <= FIG3_ERROR_Z_BOUND,
        "3-state error at n = {n}: committed {} against exact {exact:.6} (z = {z:.2})",
        column("error_fraction")
    );
}

#[test]
fn fig3_three_state_n11_time_is_exact() {
    fig3_time_is_exact(
        &ThreeState::new(),
        ConvergenceRule::StateConsensus,
        "3-state",
        11,
    );
}

#[test]
fn fig3_four_state_n11_time_is_exact() {
    fig3_time_is_exact(&FourState, ConvergenceRule::OutputConsensus, "4-state", 11);
}

#[test]
#[ignore = "release-only: the chain solve takes about 4 s in a debug build"]
fn fig3_avc_n11_time_is_exact() {
    let avc = Avc::with_states(11).expect("a valid state budget");
    fig3_time_is_exact(&avc, ConvergenceRule::OutputConsensus, "avc(s=10)", 11);
}

#[test]
#[ignore = "release-only: the chain solve takes about 14 s in a debug build"]
fn fig3_three_state_n101_time_is_exact() {
    fig3_time_is_exact(
        &ThreeState::new(),
        ConvergenceRule::StateConsensus,
        "3-state",
        101,
    );
}

#[test]
fn fig3_four_state_n101_time_is_exact() {
    fig3_time_is_exact(&FourState, ConvergenceRule::OutputConsensus, "4-state", 101);
}

#[test]
fn fig3_three_state_n11_error_is_exact() {
    fig3_three_state_error_is_exact(11);
}

#[test]
#[ignore = "release-only: the chain solve takes about 14 s in a debug build"]
fn fig3_three_state_n101_error_is_exact() {
    fig3_three_state_error_is_exact(101);
}
