//! Exact expected convergence times via the absorbing-chain linear system.
//!
//! For small populations the configuration space is small enough to treat
//! the protocol as an explicit absorbing Markov chain: each configuration
//! `c` satisfies
//!
//! ```text
//! E[T | c] = 1 + Σ_{c'} P(c → c') · E[T | c']
//! ```
//!
//! with `E[T | absorbing] = 0`, where `P` counts ordered agent pairs (a
//! configuration's self-loop probability is its silent-pair weight over
//! `n(n−1)`). Solving the linear system gives *exact* expected hitting
//! times, against which the Monte-Carlo engines are validated — a much
//! sharper check than engine-vs-engine comparison.

use crate::reach::{moves, ReachabilityGraph, StateSpaceTooLarge};
use avc_population::{Config, ConvergenceRule, Opinion, Protocol, StateId};

/// Exact expected steps to convergence from `initial`, where convergence is
/// defined by `rule` (self-loops included in the step count, matching the
/// discrete scheduler).
///
/// Returns `None` if some reachable configuration cannot reach an absorbing
/// one (the expectation is infinite).
///
/// # Errors
///
/// Returns [`StateSpaceTooLarge`] if the closure exceeds `max_configs`.
///
/// # Panics
///
/// Panics if `rule` is [`ConvergenceRule::OutputCount`] with a target that
/// the chain treats as transient in both directions (unsupported), or on a
/// numerically singular system (cannot happen for a well-formed absorbing
/// chain).
pub fn expected_steps_to_convergence<P: Protocol>(
    protocol: &P,
    initial: &Config,
    rule: ConvergenceRule,
    max_configs: usize,
) -> Result<Option<f64>, StateSpaceTooLarge> {
    let graph = ReachabilityGraph::explore(protocol, initial, max_configs)?;
    let n = initial.population();
    let total_pairs = n * (n - 1);
    let count = graph.len();

    // Identify absorbing configurations under the rule.
    let absorbing: Vec<bool> = (0..count)
        .map(|id| is_converged(protocol, &graph, id, n, rule))
        .collect();

    if absorbing[0] {
        return Ok(Some(0.0));
    }

    // Transient configurations from which absorption is impossible have
    // infinite expectation.
    let can_absorb = graph.can_reach(&absorbing);
    if can_absorb.iter().any(|&r| !r) {
        return Ok(None);
    }

    // Index the transient configurations.
    let transient: Vec<usize> = (0..count).filter(|&id| !absorbing[id]).collect();
    if transient.is_empty() {
        return Ok(Some(0.0));
    }
    let index_of: std::collections::HashMap<usize, usize> = transient
        .iter()
        .enumerate()
        .map(|(row, &id)| (id, row))
        .collect();

    // Build (I − Q)·x = 1 over transient states, where Q holds transition
    // probabilities among transient configurations. P(c → c') is the number
    // of ordered agent pairs of `c` whose interaction yields `c'`, over
    // n(n−1); the remainder, the silent pairs' weight, is the self-loop.
    let t = transient.len();
    let mut matrix = vec![0.0f64; t * t];
    let mut rhs = vec![1.0f64; t];
    for (row, &id) in transient.iter().enumerate() {
        matrix[row * t + row] = 1.0;
        let mut self_loop_pairs = total_pairs;
        for step in moves(protocol, graph.config(id)) {
            self_loop_pairs -= step.weight;
            let succ = graph
                .find_config(&step.next)
                .expect("successor must be in the closure");
            let p = step.weight as f64 / total_pairs as f64;
            if let Some(&col) = index_of.get(&succ) {
                matrix[row * t + col] -= p;
            }
        }
        // Self-loop: move to the diagonal.
        matrix[row * t + row] -= self_loop_pairs as f64 / total_pairs as f64;
    }

    let solution = solve_dense(&mut matrix, &mut rhs, t);
    let root_row = index_of
        .get(&0)
        .copied()
        .expect("initial configuration is transient here");
    Ok(Some(solution[root_row]))
}

/// Whether configuration `id` satisfies the convergence rule.
fn is_converged<P: Protocol>(
    protocol: &P,
    graph: &ReachabilityGraph,
    id: usize,
    n: u64,
    rule: ConvergenceRule,
) -> bool {
    match rule {
        ConvergenceRule::OutputConsensus => {
            graph.all_output(protocol, id, Opinion::A) || graph.all_output(protocol, id, Opinion::B)
        }
        ConvergenceRule::StateConsensus => graph.config(id).contains(&n),
        ConvergenceRule::Silence => protocol.config_silent(graph.config(id)),
        ConvergenceRule::OutputCount { opinion, count } => {
            let with: u64 = graph
                .config(id)
                .iter()
                .enumerate()
                .filter(|(s, _)| protocol.output(*s as StateId) == opinion)
                .map(|(_, &c)| c)
                .sum();
            with == count
        }
    }
}

/// In-place Gaussian elimination with partial pivoting.
///
/// # Panics
///
/// Panics on a singular matrix.
fn solve_dense(matrix: &mut [f64], rhs: &mut [f64], t: usize) -> Vec<f64> {
    for col in 0..t {
        // Pivot.
        let pivot_row = (col..t)
            .max_by(|&a, &b| {
                matrix[a * t + col]
                    .abs()
                    .partial_cmp(&matrix[b * t + col].abs())
                    .expect("no NaN in chain matrix")
            })
            .expect("nonempty range");
        assert!(
            matrix[pivot_row * t + col].abs() > 1e-12,
            "singular system: chain is not absorbing as expected"
        );
        if pivot_row != col {
            for k in 0..t {
                matrix.swap(col * t + k, pivot_row * t + k);
            }
            rhs.swap(col, pivot_row);
        }
        // Eliminate below.
        let pivot = matrix[col * t + col];
        for row in col + 1..t {
            let factor = matrix[row * t + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..t {
                matrix[row * t + k] -= factor * matrix[col * t + k];
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; t];
    for row in (0..t).rev() {
        let mut acc = rhs[row];
        for k in row + 1..t {
            acc -= matrix[row * t + k] * x[k];
        }
        x[row] = acc / matrix[row * t + row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_population::engine::{CountSim, Simulator};
    use avc_population::rngutil::SeedSequence;
    use avc_protocols::{Avc, FourState, Voter};

    fn simulate_mean<P: Protocol + Clone>(
        protocol: &P,
        a: u64,
        b: u64,
        rule: ConvergenceRule,
        trials: u64,
    ) -> f64 {
        let seeds = SeedSequence::new(99);
        let mut total = 0.0;
        for t in 0..trials {
            let mut rng = seeds.rng_for(t);
            let config = Config::from_input(protocol, a, b);
            let mut sim = CountSim::new(protocol.clone(), config);
            let out = sim.run_to_consensus_with(&mut rng, u64::MAX, rule);
            assert!(out.verdict.is_consensus());
            total += out.steps as f64;
        }
        total / trials as f64
    }

    #[test]
    fn voter_two_agents_is_a_coin_flip_chain() {
        // n = 2, one agent each: every step is productive (responder adopts
        // initiator) and reaches consensus immediately: E[T] = 1.
        let exact = expected_steps_to_convergence(
            &Voter,
            &Config::from_input(&Voter, 1, 1),
            ConvergenceRule::OutputConsensus,
            1_000,
        )
        .unwrap()
        .unwrap();
        assert!((exact - 1.0).abs() < 1e-9, "{exact}");
    }

    #[test]
    fn already_absorbed_has_zero_expectation() {
        let exact = expected_steps_to_convergence(
            &Voter,
            &Config::from_input(&Voter, 5, 0),
            ConvergenceRule::OutputConsensus,
            1_000,
        )
        .unwrap()
        .unwrap();
        assert_eq!(exact, 0.0);
    }

    #[test]
    fn exact_matches_simulation_for_voter() {
        let exact = expected_steps_to_convergence(
            &Voter,
            &Config::from_input(&Voter, 4, 3),
            ConvergenceRule::OutputConsensus,
            10_000,
        )
        .unwrap()
        .unwrap();
        let simulated = simulate_mean(&Voter, 4, 3, ConvergenceRule::OutputConsensus, 4_000);
        assert!(
            (exact - simulated).abs() / exact < 0.05,
            "exact {exact} vs simulated {simulated}"
        );
    }

    #[test]
    fn exact_matches_simulation_for_four_state() {
        let exact = expected_steps_to_convergence(
            &FourState,
            &Config::from_input(&FourState, 5, 3),
            ConvergenceRule::OutputConsensus,
            100_000,
        )
        .unwrap()
        .unwrap();
        let simulated = simulate_mean(&FourState, 5, 3, ConvergenceRule::OutputConsensus, 4_000);
        assert!(
            (exact - simulated).abs() / exact < 0.05,
            "exact {exact} vs simulated {simulated}"
        );
    }

    #[test]
    fn exact_matches_simulation_for_avc() {
        let avc = Avc::new(3, 1).expect("valid parameters");
        let exact = expected_steps_to_convergence(
            &avc,
            &Config::from_input(&avc, 4, 2),
            ConvergenceRule::OutputConsensus,
            500_000,
        )
        .unwrap()
        .unwrap();
        let simulated = simulate_mean(&avc, 4, 2, ConvergenceRule::OutputConsensus, 4_000);
        assert!(
            (exact - simulated).abs() / exact < 0.05,
            "exact {exact} vs simulated {simulated}"
        );
    }

    #[test]
    fn detects_infinite_expectation() {
        // Leader election with StateConsensus can never be unanimous when a
        // follower exists alongside the everlasting leader.
        use avc_protocols::LeaderElection;
        let result = expected_steps_to_convergence(
            &LeaderElection,
            &Config::from_counts(vec![2, 1]),
            ConvergenceRule::StateConsensus,
            10_000,
        )
        .unwrap();
        assert_eq!(result, None);
    }

    #[test]
    fn leader_election_exact_time_matches_formula() {
        // From ℓ leaders: E[steps] = Σ_{j=2}^{ℓ} n(n−1)/(j(j−1)).
        let n = 6u64;
        let exact = expected_steps_to_convergence(
            &avc_protocols::LeaderElection,
            &Config::from_counts(vec![n, 0]),
            ConvergenceRule::OutputCount {
                opinion: Opinion::A,
                count: 1,
            },
            10_000,
        )
        .unwrap()
        .unwrap();
        let formula: f64 = (2..=n)
            .map(|j| (n * (n - 1)) as f64 / ((j * (j - 1)) as f64))
            .sum();
        assert!((exact - formula).abs() < 1e-6, "{exact} vs {formula}");
    }
}
