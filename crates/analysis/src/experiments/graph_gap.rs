//! Convergence vs graph expansion — the \[DV12] spectral picture.
//!
//! Draief–Vojnović bound the four-state protocol's convergence on a
//! connected interaction graph by `(log n + 1)/δ(G, ε)`, an eigenvalue-gap
//! quantity. This experiment measures convergence time across topologies
//! with very different spectral gaps (clique, star, random-regular, grid,
//! cycle) and reports both, demonstrating the slowdown tracks `1/gap`.

use crate::harness::{run_indexed_with_stats, Parallelism, StatsCollector};
use crate::stats::Summary;
use crate::table::{fmt_num, Table};
use avc_population::cached::Cached;
use avc_population::engine::{AgentSim, Simulator};
use avc_population::graph::Graph;
use avc_population::rngutil::SeedSequence;
use avc_population::spectral::{spectral_gap, PowerIterationOptions};
use avc_population::{Config as PopulationConfig, ConvergenceRule, MajorityInstance};
use avc_protocols::FourState;

/// Parameters for the graph/gap experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population size (kept moderate: the per-agent engine pays every
    /// step, and the cycle needs `Θ(n²)` parallel time).
    pub n: usize,
    /// Margin.
    pub epsilon: f64,
    /// Runs per topology.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Step budget per run (slow topologies are reported as timeouts).
    pub max_steps: u64,
    /// Thread sharding of each topology's trials (results are unaffected).
    pub parallelism: Parallelism,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n: 300,
            epsilon: 0.2,
            runs: 25,
            seed: 23,
            max_steps: 4_000_000_000,
            parallelism: Parallelism::default(),
        }
    }
}

impl Config {
    /// A downscaled configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Config {
        Config {
            n: 24,
            epsilon: 0.5,
            runs: 5,
            seed: 23,
            max_steps: 100_000_000,
            parallelism: Parallelism::default(),
        }
    }

    /// Builds a configuration from parsed CLI arguments (`--quick`, `--n`,
    /// `--runs`, `--seed`, `--serial`/`--threads`).
    #[must_use]
    pub fn from_args(args: &crate::cli::Args) -> Config {
        let mut config = if args.flag("quick") {
            Config::quick()
        } else {
            Config::default()
        };
        config.n = args.get_u64("n", config.n as u64) as usize;
        config.runs = args.get_u64("runs", config.runs);
        config.seed = args.get_u64("seed", config.seed);
        config.parallelism = args.parallelism();
        config
    }
}

/// One topology's measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Topology label.
    pub label: String,
    /// Undirected edge count.
    pub edges: usize,
    /// Spectral gap `1 − λ₂` of the random-walk matrix.
    pub gap: f64,
    /// Parallel-time summary over converged runs (`None` if every run hit
    /// the step budget).
    pub summary: Option<Summary>,
    /// Runs that hit the step budget.
    pub timeouts: u64,
}

/// The topologies measured, constructed at population `n`. Public so sweep
/// specs can enumerate the cell labels without running the experiment.
#[must_use]
pub fn topologies(n: usize, seed: u64) -> Vec<(String, Graph)> {
    let mut rng = SeedSequence::new(seed).rng_for(u64::MAX);
    let regular = loop {
        let g = Graph::random_regular(n, 6, &mut rng);
        if g.is_connected() {
            break g;
        }
    };
    let side = (n as f64).sqrt().round() as usize;
    vec![
        ("clique".to_string(), Graph::clique(n)),
        ("star".to_string(), Graph::star(n)),
        ("random 6-regular".to_string(), regular),
        (
            format!("grid {side}x{}", n / side),
            Graph::grid(side, n / side),
        ),
        ("cycle".to_string(), Graph::cycle(n)),
    ]
}

/// Runs the experiment.
#[must_use]
pub fn run(config: &Config) -> Vec<Point> {
    run_with_stats(config, &StatsCollector::new())
}

/// As [`run`], folding per-topology throughput telemetry into `stats`.
#[must_use]
pub fn run_with_stats(config: &Config, stats: &StatsCollector) -> Vec<Point> {
    (0..topologies(config.n, config.seed).len())
        .map(|gi| run_point(config, gi, stats))
        .collect()
}

/// Runs one topology; `gi` indexes [`topologies`]`(config.n, config.seed)`.
/// Trial seeds derive from the topology index alone, so a topology reruns
/// identically in isolation (the basis of checkpoint/resume).
///
/// # Panics
///
/// Panics if `gi` is out of range.
#[must_use]
pub fn run_point(config: &Config, gi: usize, stats: &StatsCollector) -> Point {
    let seeds = SeedSequence::new(config.seed);
    let (label, graph) = topologies(config.n, config.seed)
        .into_iter()
        .nth(gi)
        .expect("topology index in range");
    // Population may differ slightly for the grid (side rounding).
    let n = graph.num_agents() as u64;
    let inst = MajorityInstance::with_margin(n, config.epsilon);
    let gap = spectral_gap(&graph, PowerIterationOptions::default());
    let topology_seeds = seeds.child(gi as u64);
    let graph_ref = &graph;
    // One shared transition table for every trial of this topology.
    let protocol = Cached::new(FourState);
    let protocol_ref = &protocol;
    let (outcomes, batch) = run_indexed_with_stats(config.runs, config.parallelism, |trial| {
        let mut rng = topology_seeds.rng_for(trial);
        let initial = PopulationConfig::from_input(&FourState, inst.a(), inst.b());
        let mut sim = AgentSim::new(protocol_ref, initial, graph_ref.clone());
        let out =
            sim.run_to_consensus_with(&mut rng, config.max_steps, ConvergenceRule::OutputConsensus);
        (out, out.steps)
    });
    stats.record(&batch);
    let times: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.verdict.is_consensus())
        .map(|o| o.parallel_time)
        .collect();
    let timeouts = config.runs - times.len() as u64;
    let summary = (!times.is_empty()).then(|| Summary::from_samples(&times));
    Point {
        label,
        edges: graph.num_edges(),
        gap,
        summary,
        timeouts,
    }
}

/// Renders the result table.
#[must_use]
pub fn table(points: &[Point], config: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Four-state protocol vs interaction-graph expansion (n ≈ {}, eps = {}, {} runs)",
            config.n, config.epsilon, config.runs
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
    );
    for p in points {
        let (mean, std) = match &p.summary {
            Some(s) => (fmt_num(s.mean), fmt_num(s.std_dev)),
            None => ("-".to_string(), "-".to_string()),
        };
        t.push_row([
            p.label.clone(),
            p.edges.to_string(),
            fmt_num(p.gap),
            fmt_num(1.0 / p.gap),
            mean,
            std,
            p.timeouts.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_graphs_have_small_gaps_and_long_times() {
        let config = Config::quick();
        let points = run(&config);
        assert_eq!(points.len(), 5);
        let get = |label: &str| points.iter().find(|p| p.label.starts_with(label)).unwrap();

        let clique = get("clique");
        let cycle = get("cycle");
        // The cycle's gap is well below the clique's…
        assert!(clique.gap > 20.0 * cycle.gap);
        // …and its convergence correspondingly slower.
        let clique_mean = clique.summary.as_ref().unwrap().mean;
        let cycle_mean = cycle.summary.as_ref().unwrap().mean;
        assert!(
            cycle_mean > 3.0 * clique_mean,
            "cycle {cycle_mean} vs clique {clique_mean}"
        );
        // No timeouts at this scale.
        assert!(points.iter().all(|p| p.timeouts == 0));
    }
}
