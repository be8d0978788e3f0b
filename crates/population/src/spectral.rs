//! Spectral analysis of interaction graphs.
//!
//! \[DV12] bound the four-state protocol's convergence on a connected graph
//! `G` by `(log n + 1)/δ(G, ε)`, where `δ` is an eigenvalue gap of the
//! pairwise interaction rate matrices; on the clique this specializes to
//! the `O(log n/ε)` bound quoted in the paper. This module computes the
//! spectral gap `1 − λ₂` of the lazy random-walk matrix of a graph, the
//! standard proxy for that mixing quantity, so experiments can correlate
//! convergence time with graph expansion (see the `graph_gap` sweep).

use crate::graph::Graph;
use rand::Rng;

/// Options for the power-iteration eigensolver.
#[derive(Debug, Clone, Copy)]
pub struct PowerIterationOptions {
    /// Maximum iterations before giving up.
    pub max_iterations: u32,
    /// Convergence tolerance on the eigenvalue estimate.
    pub tolerance: f64,
}

impl Default for PowerIterationOptions {
    fn default() -> PowerIterationOptions {
        PowerIterationOptions {
            max_iterations: 2_000_000,
            tolerance: 1e-11,
        }
    }
}

/// Computes the spectral gap `1 − λ₂` of the graph's random-walk matrix,
/// where `λ₂` is the second-largest (signed) eigenvalue of the symmetric
/// normalized adjacency `D^{-1/2} A D^{-1/2}`.
///
/// Large gaps (≈1, e.g. the clique) mean fast mixing and fast consensus;
/// small gaps (`Θ(1/n²)` for the cycle) mean slow consensus — the shape the
/// `graph_gap` experiment demonstrates for the four-state protocol.
///
/// The computation is exact for the clique (closed form) and uses deflated
/// power iteration otherwise.
///
/// # Panics
///
/// Panics if the graph is disconnected or has isolated vertices (the gap is
/// 0 and consensus is impossible), or if power iteration fails to converge
/// within the option budget.
#[must_use]
pub fn spectral_gap(graph: &Graph, options: PowerIterationOptions) -> f64 {
    let n = graph.num_agents();
    if graph.is_clique() {
        // K_n: eigenvalues of the normalized adjacency are 1 and −1/(n−1).
        return 1.0 + 1.0 / (n as f64 - 1.0);
    }
    assert!(graph.is_connected(), "spectral gap needs a connected graph");

    let mut adj = vec![Vec::new(); n];
    for (u, v) in graph.edge_pairs() {
        adj[u].push(v);
        adj[v].push(u);
    }
    let degree: Vec<f64> = adj.iter().map(|a| a.len() as f64).collect();
    assert!(
        degree.iter().all(|&d| d > 0.0),
        "spectral gap needs no isolated vertices"
    );

    // Shifted operator M = (N + I)/2 maps the spectrum of the normalized
    // adjacency N from [−1, 1] to [0, 1] monotonically, so the second
    // largest eigenvalue of M is (1 + λ₂)/2 and power iteration cannot be
    // captured by a large-magnitude negative eigenvalue (bipartite graphs).
    let top: Vec<f64> = {
        // The top eigenvector of N is D^{1/2}·1, normalized.
        let norm = degree.iter().sum::<f64>().sqrt();
        degree.iter().map(|d| d.sqrt() / norm).collect()
    };
    let apply = |x: &[f64], out: &mut [f64]| {
        for u in 0..n {
            let mut acc = 0.0;
            for &v in &adj[u] {
                acc += x[v] / (degree[u] * degree[v]).sqrt();
            }
            out[u] = 0.5 * (acc + x[u]);
        }
    };

    // Deterministically seeded start vector, deflated against `top`.
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(0x5eed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    deflate(&mut x, &top);
    normalize(&mut x);

    let mut y = vec![0.0; n];
    let mut previous = f64::NAN;
    for _ in 0..options.max_iterations {
        apply(&x, &mut y);
        deflate(&mut y, &top);
        let eigenvalue = dot(&x, &y);
        let norm = normalize(&mut y);
        std::mem::swap(&mut x, &mut y);
        if norm == 0.0 {
            // N has no second eigenvector component left: complete bipartite
            // corner cases; λ₂ of M is 0 ⇒ λ₂ of N is −1.
            return 2.0;
        }
        if (eigenvalue - previous).abs() < options.tolerance {
            let lambda2 = 2.0 * eigenvalue - 1.0;
            return 1.0 - lambda2;
        }
        previous = eigenvalue;
    }
    panic!(
        "power iteration did not converge within {} iterations",
        options.max_iterations
    );
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn deflate(x: &mut [f64], direction: &[f64]) {
    let proj = dot(x, direction);
    for (xi, di) in x.iter_mut().zip(direction) {
        *xi -= proj * di;
    }
}

fn normalize(x: &mut [f64]) -> f64 {
    let norm = dot(x, x).sqrt();
    if norm > 0.0 {
        for xi in x.iter_mut() {
            *xi /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gap(graph: &Graph) -> f64 {
        spectral_gap(graph, PowerIterationOptions::default())
    }

    #[test]
    fn clique_gap_is_closed_form() {
        assert!((gap(&Graph::clique(10)) - (1.0 + 1.0 / 9.0)).abs() < 1e-12);
        assert!((gap(&Graph::clique(100)) - (1.0 + 1.0 / 99.0)).abs() < 1e-12);
    }

    #[test]
    fn cycle_gap_matches_closed_form() {
        // C_n: λ₂ = cos(2π/n) ⇒ gap = 1 − cos(2π/n).
        for n in [8usize, 20, 50] {
            let expected = 1.0 - (2.0 * std::f64::consts::PI / n as f64).cos();
            let got = gap(&Graph::cycle(n));
            assert!(
                (got - expected).abs() < 1e-7,
                "cycle n={n}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn path_gap_matches_closed_form() {
        // P_n (random walk with reflecting ends): λ₂ = cos(π/(n−1)), so the
        // gap is 1 − cos(π/(n−1)).
        let n = 12usize;
        let expected = 1.0 - (std::f64::consts::PI / (n as f64 - 1.0)).cos();
        let got = gap(&Graph::path(n));
        assert!((got - expected).abs() < 1e-7, "{got} vs {expected}");
    }

    #[test]
    fn star_gap_is_one() {
        // Star: normalized adjacency eigenvalues are ±1 and 0 (multiplicity
        // n−2), so λ₂ = 0 and the gap is 1.
        let got = gap(&Graph::star(15));
        assert!((got - 1.0).abs() < 1e-7, "{got}");
    }

    #[test]
    fn expander_beats_cycle() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
        let er = loop {
            let g = Graph::erdos_renyi(60, 0.2, &mut rng);
            if g.is_connected() {
                break g;
            }
        };
        assert!(gap(&er) > 10.0 * gap(&Graph::cycle(60)));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected_graphs() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        let _ = gap(&g);
    }
}
