//! \[DV12]: the four-state protocol's convergence time against the
//! interaction graph's expansion.
//!
//! Draief–Vojnović bound the four-state protocol's convergence on a
//! connected interaction graph by `(log n + 1)/δ(G, ε)`, an eigenvalue-gap
//! quantity. This sweep measures convergence time on topologies with very
//! different spectral gaps (clique, star, random 6-regular, grid, cycle)
//! and reports both, showing that the slowdown tracks `1/gap`.

use super::{runs_flag, trials_of_summary, FlagError, Sweep, SweepCell};
use crate::record::{f64_to_hex, CellResult};
use crate::sweep::Export;
use avc_analysis::cli::Args;
use avc_analysis::harness::run_indexed_with_stats;
use avc_analysis::stats::Summary;
use avc_analysis::table::{fmt_num, Table};
use avc_population::cached::Cached;
use avc_population::engine::{AgentSim, Simulator};
use avc_population::graph::Graph;
use avc_population::rngutil::SeedSequence;
use avc_population::spectral::{spectral_gap, PowerIterationOptions};
use avc_population::{Config, ConvergenceRule, MajorityInstance};
use avc_protocols::FourState;
use std::collections::BTreeMap;

/// The degree of the random regular topology.
const DEGREE: usize = 6;

/// The side of the grid topology at population `n`: the grid is
/// `side × ⌊n/side⌋`, so its population may fall short of `n`.
fn grid_side(n: usize) -> usize {
    (n as f64).sqrt().round() as usize
}

/// The topology labels at population `n`, in cell order.
fn labels(n: usize) -> [String; 5] {
    let side = grid_side(n);
    [
        "clique".to_string(),
        "star".to_string(),
        format!("random {DEGREE}-regular"),
        format!("grid {side}x{}", n / side),
        "cycle".to_string(),
    ]
}

/// Topology `index` of [`labels`] at population `n`. The random regular
/// graph draws from stream `u64::MAX` of `seed`, redrawn until connected.
fn topology(index: usize, n: usize, seed: u64) -> Graph {
    match index {
        0 => Graph::clique(n),
        1 => Graph::star(n),
        2 => {
            let mut rng = SeedSequence::new(seed).rng_for(u64::MAX);
            loop {
                let graph = Graph::random_regular(n, DEGREE, &mut rng);
                if graph.is_connected() {
                    break graph;
                }
            }
        }
        3 => Graph::grid(grid_side(n), n / grid_side(n)),
        _ => Graph::cycle(n),
    }
}

/// Flags: `--n` (population; the per-agent engine pays every step and the
/// cycle needs `Θ(n²)` parallel time, so keep it moderate), `--runs`,
/// `--seed`. Topology `i` draws trial `t` from stream `t` of seed child
/// `i`; runs that hit the step budget are reported as timeouts.
pub(super) fn sweep(args: &Args) -> Result<Sweep, FlagError> {
    let quick = args.flag("quick");
    let n = args.get_u64("n", if quick { 24 } else { 300 })?;
    let epsilon = if quick { 0.5 } else { 0.2 };
    let runs = runs_flag(args, if quick { 5 } else { 25 })?;
    let seed = args.get_u64("seed", 23)?;
    let max_steps: u64 = if quick { 100_000_000 } else { 4_000_000_000 };
    if n <= DEGREE as u64 {
        return Err(FlagError::new(
            "n",
            format!("{n} agents: a random {DEGREE}-regular graph needs n > {DEGREE}"),
        ));
    }
    let parallelism = args.parallelism()?;
    let mut cells = Vec::new();
    for (index, label) in labels(n as usize).into_iter().enumerate() {
        let params = vec![
            ("protocol", "four_state".to_string()),
            ("engine", "agent".to_string()),
            ("topology", label.clone()),
            ("topology_index", index.to_string()),
            ("n", n.to_string()),
            ("eps", f64_to_hex(epsilon)),
            ("eps_text", format!("{epsilon}")),
            ("runs", runs.to_string()),
            ("seed", seed.to_string()),
            ("max_steps", max_steps.to_string()),
        ];
        let seeds = SeedSequence::new(seed).child(index as u64);
        cells.push(SweepCell::computed(
            format!("graph={label}"),
            params,
            move |stats| {
                let graph = topology(index, n as usize, seed);
                let instance = MajorityInstance::with_margin(graph.num_agents() as u64, epsilon);
                let gap = spectral_gap(&graph, PowerIterationOptions::default());
                // One shared transition table for every trial of this topology.
                let protocol = Cached::new(FourState);
                let (outcomes, batch) = run_indexed_with_stats(runs, parallelism, |trial| {
                    let initial = Config::from_input(&FourState, instance.a(), instance.b());
                    let mut sim = AgentSim::new(&protocol, initial, graph.clone());
                    let out = sim.run_to_consensus_with(
                        &mut seeds.rng_for(trial),
                        max_steps,
                        ConvergenceRule::OutputConsensus,
                    );
                    (out, out.steps)
                });
                stats.record(&batch);
                let times: Vec<f64> = outcomes
                    .iter()
                    .filter(|o| o.verdict.is_consensus())
                    .map(|o| o.parallel_time)
                    .collect();
                let timeouts = runs - times.len() as u64;
                let summary = (!times.is_empty()).then(|| Summary::from_samples(&times));
                let (mean, std) = match &summary {
                    Some(s) => (fmt_num(s.mean), fmt_num(s.std_dev)),
                    None => ("-".to_string(), "-".to_string()),
                };
                let row = vec![
                    label.clone(),
                    graph.num_edges().to_string(),
                    fmt_num(gap),
                    fmt_num(1.0 / gap),
                    mean,
                    std,
                    timeouts.to_string(),
                ];
                CellResult {
                    trials: summary.as_ref().map(trials_of_summary),
                    tables: BTreeMap::from([("graph_gap".to_string(), vec![row])]),
                    values: BTreeMap::from([
                        ("spectral_gap".to_string(), gap),
                        ("timeouts".to_string(), timeouts as f64),
                    ]),
                    ..CellResult::default()
                }
            },
        ));
    }

    Ok(Sweep {
        name: "graph_gap".to_string(),
        banner: format!(
            "four-state protocol across topologies, n ≈ {n}, eps = {epsilon}, {runs} runs"
        ),
        cells,
        export: Box::new(move |_| Export {
            tables: vec![(
                "graph_gap".to_string(),
                Table::new(
                    format!(
                        "Four-state protocol vs interaction-graph expansion \
                         (n ≈ {n}, eps = {epsilon}, {runs} runs)"
                    ),
                    [
                        "graph",
                        "edges",
                        "spectral_gap",
                        "one_over_gap",
                        "mean_parallel_time",
                        "std_dev",
                        "timeouts",
                    ],
                ),
            )],
            trailer: vec![],
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cell, mean, run_sweep};

    #[test]
    fn slow_graphs_have_small_gaps_and_long_times() {
        let (plan, results, _) = run_sweep("graph_gap", &["--quick"]);
        assert_eq!(results.len(), 5);
        let get = |topology: &str| cell(&plan, &results, &format!("graph={topology}"));
        let gap = |topology: &str| get(topology).value("spectral_gap").unwrap();

        // The cycle's gap is well below the clique's…
        assert!(gap("clique") > 20.0 * gap("cycle"));
        // …and its convergence correspondingly slower.
        let clique_mean = mean(get("clique"));
        let cycle_mean = mean(get("cycle"));
        assert!(
            cycle_mean > 3.0 * clique_mean,
            "cycle {cycle_mean} vs clique {clique_mean}"
        );
        // No timeouts at this scale.
        assert!(results.iter().all(|r| r.value("timeouts") == Some(0.0)));
    }
}
