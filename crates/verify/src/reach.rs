//! Exact reachability analysis over configuration space.
//!
//! A configuration of `n` agents over `q` states is a multiset, i.e. a count
//! vector summing to `n`; there are `C(n+q−1, q−1)` of them, so exhaustive
//! exploration is feasible for small `n` and `q`. This module computes
//! forward closures and checks the three correctness properties Theorem B.1
//! demands of any exact-majority protocol:
//!
//! 1. *Absorbing correctness is reachable*: some configuration from which
//!    every reachable configuration outputs the majority is reachable.
//! 2. *Never wrong*: no reachable configuration is absorbing for the
//!    minority output.
//! 3. *Always recoverable*: from every reachable configuration there is a
//!    schedule leading to a correct absorbing configuration.

use avc_population::{Config, Opinion, Protocol, StateId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Exploration exceeded the configuration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSpaceTooLarge {
    /// The configured limit that was exceeded.
    pub limit: usize,
}

impl fmt::Display for StateSpaceTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reachable configuration space exceeds limit {}",
            self.limit
        )
    }
}

impl Error for StateSpaceTooLarge {}

/// One productive interaction out of a configuration.
pub(crate) struct Move {
    /// The ordered species pair that reacts.
    pub(crate) pair: (StateId, StateId),
    /// The number of ordered agent pairs in that species pair.
    pub(crate) weight: u64,
    /// The configuration the interaction leads to.
    pub(crate) next: Vec<u64>,
}

/// The productive interactions out of `counts`, initiator then responder
/// state ascending over the live states, skipping a state paired with
/// itself when it holds one agent and every silent pair. The explorer, the
/// schedule search and the chain solve all number configurations in this
/// order.
pub(crate) fn moves<'a, P: Protocol>(
    protocol: &'a P,
    counts: &'a [u64],
) -> impl Iterator<Item = Move> + 'a {
    let live: Vec<StateId> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, _)| i as StateId)
        .collect();
    let k = live.len();
    (0..k * k).filter_map(move |pair| {
        let (i, j) = (live[pair / k], live[pair % k]);
        let weight = counts[i as usize] * (counts[j as usize] - u64::from(i == j));
        if weight == 0 {
            return None;
        }
        let (x, y) = protocol.transition(i, j);
        if (x == i && y == j) || (x == j && y == i) {
            return None;
        }
        let mut next = counts.to_vec();
        next[i as usize] -= 1;
        next[j as usize] -= 1;
        next[x as usize] += 1;
        next[y as usize] += 1;
        Some(Move {
            pair: (i, j),
            weight,
            next,
        })
    })
}

/// The forward-reachable configuration graph from one initial configuration.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    configs: Vec<Vec<u64>>,
    index: HashMap<Vec<u64>, usize>,
    successors: Vec<Vec<usize>>,
}

impl ReachabilityGraph {
    /// Explores the forward closure of `initial` under `protocol`,
    /// aborting if more than `max_configs` configurations are found.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceTooLarge`] if the closure exceeds the budget.
    pub fn explore<P: Protocol>(
        protocol: &P,
        initial: &Config,
        max_configs: usize,
    ) -> Result<ReachabilityGraph, StateSpaceTooLarge> {
        let mut configs: Vec<Vec<u64>> = Vec::new();
        let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut successors: Vec<Vec<usize>> = Vec::new();

        let root = initial.as_slice().to_vec();
        index.insert(root.clone(), 0);
        configs.push(root);
        successors.push(Vec::new());

        let mut frontier = 0;
        while frontier < configs.len() {
            let current = configs[frontier].clone();
            let mut succ = Vec::new();
            for Move { next, .. } in moves(protocol, &current) {
                let id = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = configs.len();
                        if id >= max_configs {
                            return Err(StateSpaceTooLarge { limit: max_configs });
                        }
                        index.insert(next.clone(), id);
                        configs.push(next);
                        successors.push(Vec::new());
                        id
                    }
                };
                if !succ.contains(&id) {
                    succ.push(id);
                }
            }
            successors[frontier] = succ;
            frontier += 1;
        }
        Ok(ReachabilityGraph {
            configs,
            index,
            successors,
        })
    }

    /// Index of the configuration with the given counts, if reachable.
    #[must_use]
    pub fn find_config(&self, counts: &[u64]) -> Option<usize> {
        self.index.get(counts).copied()
    }

    /// Number of reachable configurations (including the initial one).
    #[must_use]
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the graph is empty (never: the initial config is present).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The count vector of configuration `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn config(&self, id: usize) -> &[u64] {
        &self.configs[id]
    }

    /// Distinct successor configurations of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn successors(&self, id: usize) -> &[usize] {
        &self.successors[id]
    }

    /// Whether all agents of configuration `id` output `opinion`.
    pub fn all_output<P: Protocol>(&self, protocol: &P, id: usize, opinion: Opinion) -> bool {
        self.configs[id]
            .iter()
            .enumerate()
            .all(|(s, &c)| c == 0 || protocol.output(s as StateId) == opinion)
    }

    /// The set of configurations that are *absorbing for `opinion`*: every
    /// configuration reachable from them (themselves included) has all
    /// agents outputting `opinion`. Returned as a boolean mask.
    ///
    /// This is the greatest fixpoint of "all-output ∧ all successors in the
    /// set" — the set `C_i` of the paper restricted to the explored closure.
    pub fn absorbing_for<P: Protocol>(&self, protocol: &P, opinion: Opinion) -> Vec<bool> {
        let mut in_set: Vec<bool> = (0..self.len())
            .map(|id| self.all_output(protocol, id, opinion))
            .collect();
        loop {
            let mut changed = false;
            for id in 0..self.len() {
                if in_set[id] && self.successors[id].iter().any(|&s| !in_set[s]) {
                    in_set[id] = false;
                    changed = true;
                }
            }
            if !changed {
                return in_set;
            }
        }
    }

    /// The set of configurations from which some configuration in `targets`
    /// is reachable (including targets themselves). Returned as a mask.
    #[must_use]
    pub fn can_reach(&self, targets: &[bool]) -> Vec<bool> {
        assert_eq!(targets.len(), self.len(), "mask length mismatch");
        let mut reachable = targets.to_vec();
        loop {
            let mut changed = false;
            for id in 0..self.len() {
                if !reachable[id] && self.successors[id].iter().any(|&s| reachable[s]) {
                    reachable[id] = true;
                    changed = true;
                }
            }
            if !changed {
                return reachable;
            }
        }
    }
}

/// The verdict of [`check_exact_majority`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorityVerdict {
    /// Number of configurations explored.
    pub explored: usize,
    /// Property 1: a correct absorbing configuration is reachable.
    pub correct_absorbing_reachable: bool,
    /// Property 2: no wrong absorbing configuration is reachable.
    pub never_wrong: bool,
    /// Property 3: every reachable configuration can still reach a correct
    /// absorbing configuration.
    pub always_recoverable: bool,
}

impl MajorityVerdict {
    /// Whether all three properties hold.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.correct_absorbing_reachable && self.never_wrong && self.always_recoverable
    }
}

/// Checks the three exact-majority correctness properties of Theorem B.1
/// for the instance with `a` agents of opinion `A` and `b` of opinion `B`.
///
/// Tied instances (`a == b`) are vacuously correct: the majority predicate
/// places no requirement on them.
///
/// # Errors
///
/// Returns [`StateSpaceTooLarge`] if the forward closure exceeds
/// `max_configs`.
pub fn check_exact_majority<P: Protocol>(
    protocol: &P,
    a: u64,
    b: u64,
    max_configs: usize,
) -> Result<MajorityVerdict, StateSpaceTooLarge> {
    let initial = Config::from_input(protocol, a, b);
    let graph = ReachabilityGraph::explore(protocol, &initial, max_configs)?;
    let Some(winner) = (match a.cmp(&b) {
        std::cmp::Ordering::Greater => Some(Opinion::A),
        std::cmp::Ordering::Less => Some(Opinion::B),
        std::cmp::Ordering::Equal => None,
    }) else {
        return Ok(MajorityVerdict {
            explored: graph.len(),
            correct_absorbing_reachable: true,
            never_wrong: true,
            always_recoverable: true,
        });
    };

    let good = graph.absorbing_for(protocol, winner);
    let bad = graph.absorbing_for(protocol, winner.flip());
    let can_recover = graph.can_reach(&good);

    Ok(MajorityVerdict {
        explored: graph.len(),
        correct_absorbing_reachable: good.iter().any(|&g| g),
        never_wrong: !bad.iter().any(|&b| b),
        always_recoverable: can_recover.iter().all(|&r| r),
    })
}

/// Checks a quantity is invariant across the entire forward closure — used
/// to machine-check Invariant 4.3 (the AVC value sum) on small instances.
///
/// Returns the number of configurations checked.
///
/// # Errors
///
/// Returns [`StateSpaceTooLarge`] if the closure exceeds `max_configs`.
pub fn check_invariant<P: Protocol>(
    protocol: &P,
    initial: &Config,
    max_configs: usize,
    quantity: impl Fn(&[u64]) -> i64,
) -> Result<Result<usize, Vec<u64>>, StateSpaceTooLarge> {
    let graph = ReachabilityGraph::explore(protocol, initial, max_configs)?;
    let reference = quantity(graph.config(0));
    for id in 1..graph.len() {
        if quantity(graph.config(id)) != reference {
            return Ok(Err(graph.config(id).to_vec()));
        }
    }
    Ok(Ok(graph.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_protocols::{Avc, FourState, ThreeState, Voter};

    #[test]
    fn four_state_is_exactly_correct_small_n() {
        for n in 2..=8u64 {
            for a in 0..=n {
                let v = check_exact_majority(&FourState, a, n - a, 1_000_000).unwrap();
                assert!(v.is_correct(), "four-state violated at a={a}, b={}", n - a);
            }
        }
    }

    #[test]
    fn avc_is_exactly_correct_small_n() {
        let avc = Avc::new(5, 2).unwrap();
        for (a, b) in [(2u64, 1u64), (1, 2), (3, 2), (2, 3), (4, 1), (3, 3)] {
            let v = check_exact_majority(&avc, a, b, 2_000_000).unwrap();
            assert!(v.is_correct(), "avc violated at a={a}, b={b}");
        }
    }

    #[test]
    fn three_state_fails_never_wrong() {
        // The approximate protocol can be driven to the wrong consensus:
        // property 2 must fail for some instance (this is the MNRS14
        // impossibility seen from the model checker's side).
        let p = ThreeState::new();
        let mut violated = false;
        for (a, b) in [(2u64, 1u64), (3, 2), (4, 3)] {
            let v = check_exact_majority(&p, a, b, 100_000).unwrap();
            if !v.never_wrong {
                violated = true;
            }
        }
        assert!(violated, "three-state protocol unexpectedly looked exact");
    }

    #[test]
    fn voter_fails_exactness() {
        let v = check_exact_majority(&Voter, 2, 1, 100_000).unwrap();
        assert!(!v.never_wrong, "voter can reach all-B from majority A");
    }

    #[test]
    fn tie_is_vacuously_correct() {
        let v = check_exact_majority(&FourState, 3, 3, 100_000).unwrap();
        assert!(v.is_correct());
    }

    #[test]
    fn avc_sum_invariant_holds_on_closure() {
        let avc = Avc::new(3, 1).unwrap();
        let initial = Config::from_input(&avc, 3, 2);
        let checked = check_invariant(&avc, &initial, 1_000_000, |counts| avc.total_value(counts))
            .unwrap()
            .expect("invariant must hold");
        assert!(checked > 1, "closure should be nontrivial, got {checked}");
    }

    #[test]
    fn explore_reports_budget_exhaustion() {
        let avc = Avc::new(9, 1).unwrap();
        let initial = Config::from_input(&avc, 6, 6);
        let err = ReachabilityGraph::explore(&avc, &initial, 10).unwrap_err();
        assert_eq!(err, StateSpaceTooLarge { limit: 10 });
    }

    #[test]
    fn graph_accessors() {
        let initial = Config::from_input(&Voter, 2, 1);
        let g = ReachabilityGraph::explore(&Voter, &initial, 100).unwrap();
        // Configurations: (2,1) -> (3,0) or (1,2); (1,2) -> (2,1)|(0,3)...
        assert!(g.len() >= 4);
        assert!(!g.is_empty());
        assert_eq!(g.config(0), &[2, 1]);
        assert!(!g.successors(0).is_empty());
        assert!(!g.all_output(&Voter, 0, Opinion::A));
    }
}
