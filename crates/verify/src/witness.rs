//! Witness schedules: concrete interaction sequences proving reachability.
//!
//! The paper's lower-bound arguments repeatedly say "there exists a
//! schedule of interactions leading to …". This module makes such claims
//! tangible: it extracts a *shortest* explicit interaction sequence (as
//! ordered species pairs) from the reachability graph, which can then be
//! replayed step by step against any configuration with
//! [`replay_schedule`]. Uses include producing counterexample traces for
//! incorrect protocols (e.g. the voter model reaching the minority
//! consensus) and constructive certificates for property 3 of Theorem B.1.

use crate::reach::{moves, Move, StateSpaceTooLarge};
use avc_population::{Config, Protocol, StateId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// One scheduled interaction: the ordered species pair that reacts.
pub type Interaction = (StateId, StateId);

/// Finds a shortest interaction schedule from `initial` to some
/// configuration satisfying `goal`, by BFS over the configuration graph.
///
/// Returns `None` if no reachable configuration satisfies the goal.
///
/// # Errors
///
/// Returns [`StateSpaceTooLarge`] if more than `max_configs` configurations
/// are explored.
pub fn find_schedule<P: Protocol>(
    protocol: &P,
    initial: &Config,
    max_configs: usize,
    goal: impl Fn(&[u64]) -> bool,
) -> Result<Option<Vec<Interaction>>, StateSpaceTooLarge> {
    let root = initial.as_slice().to_vec();
    if goal(&root) {
        return Ok(Some(Vec::new()));
    }
    let mut configs: Vec<Vec<u64>> = vec![root.clone()];
    let mut parent: Vec<Option<(usize, Interaction)>> = vec![None];
    let mut index: HashMap<Vec<u64>, usize> = HashMap::from([(root, 0)]);

    let mut frontier = 0;
    while frontier < configs.len() {
        let current = configs[frontier].clone();
        for Move { pair, next, .. } in moves(protocol, &current) {
            if index.contains_key(&next) {
                continue;
            }
            let id = configs.len();
            if id >= max_configs {
                return Err(StateSpaceTooLarge { limit: max_configs });
            }
            index.insert(next.clone(), id);
            parent.push(Some((frontier, pair)));
            let reached_goal = goal(&next);
            configs.push(next);
            if reached_goal {
                // Reconstruct the interaction sequence.
                let mut schedule = Vec::new();
                let mut at = id;
                while let Some((prev, action)) = parent[at] {
                    schedule.push(action);
                    at = prev;
                }
                schedule.reverse();
                return Ok(Some(schedule));
            }
        }
        frontier += 1;
    }
    Ok(None)
}

/// A schedule step could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the offending step.
    pub step: usize,
    /// The interaction that was not applicable.
    pub interaction: Interaction,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule step {} not applicable: no agent pair in states ({}, {})",
            self.step, self.interaction.0, self.interaction.1
        )
    }
}

impl Error for ReplayError {}

/// Replays an interaction schedule from a configuration, validating each
/// step's applicability, and returns the final configuration.
///
/// # Errors
///
/// Returns [`ReplayError`] when a step names a species pair that is not
/// present in the current configuration.
pub fn replay_schedule<P: Protocol>(
    protocol: &P,
    initial: &Config,
    schedule: &[Interaction],
) -> Result<Config, ReplayError> {
    let mut counts = initial.as_slice().to_vec();
    for (step, &(i, j)) in schedule.iter().enumerate() {
        let available = if i == j {
            counts[i as usize] >= 2
        } else {
            counts[i as usize] >= 1 && counts[j as usize] >= 1
        };
        if !available {
            return Err(ReplayError {
                step,
                interaction: (i, j),
            });
        }
        let (x, y) = protocol.transition(i, j);
        counts[i as usize] -= 1;
        counts[j as usize] -= 1;
        counts[x as usize] += 1;
        counts[y as usize] += 1;
    }
    Ok(Config::from_counts(counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_population::Opinion;
    use avc_protocols::{Avc, FourState, Voter};

    #[test]
    fn voter_counterexample_schedule_reaches_minority_consensus() {
        // Majority A (3 vs 2), yet a schedule drives everyone to B — the
        // witness for the voter model's non-exactness.
        let initial = Config::from_input(&Voter, 3, 2);
        let schedule = find_schedule(&Voter, &initial, 100_000, |c| c[0] == 0)
            .unwrap()
            .expect("the voter model can be driven to the minority");
        let final_config = replay_schedule(&Voter, &initial, &schedule).unwrap();
        assert_eq!(final_config.as_slice(), &[0, 5]);
        // A shortest such schedule flips one A per step.
        assert_eq!(schedule.len(), 3);
    }

    #[test]
    fn no_schedule_makes_four_state_err() {
        let initial = Config::from_input(&FourState, 3, 2);
        let p = FourState;
        // Goal: all outputs B (counterexample to exactness). Must not exist.
        let schedule = find_schedule(&p, &initial, 1_000_000, |c| {
            c.iter()
                .enumerate()
                .all(|(s, &count)| count == 0 || p.output(s as StateId) == Opinion::B)
        })
        .unwrap();
        assert_eq!(schedule, None);
    }

    #[test]
    fn avc_has_a_constructive_convergence_certificate() {
        // Property 3 of Theorem B.1, constructively: an explicit schedule to
        // output consensus on the majority.
        let avc = Avc::new(3, 1).unwrap();
        let initial = Config::from_input(&avc, 3, 2);
        let schedule = find_schedule(&avc, &initial, 1_000_000, |c| {
            c.iter()
                .enumerate()
                .all(|(s, &count)| count == 0 || avc.output(s as StateId) == Opinion::A)
        })
        .unwrap()
        .expect("AVC can always converge to the majority");
        let final_config = replay_schedule(&avc, &initial, &schedule).unwrap();
        assert_eq!(
            final_config.count_with_output(&avc, Opinion::A),
            5,
            "replayed endpoint must be all-A"
        );
        assert!(!schedule.is_empty());
    }

    #[test]
    fn trivial_goal_gives_empty_schedule() {
        let initial = Config::from_input(&Voter, 2, 1);
        let schedule = find_schedule(&Voter, &initial, 100, |_| true)
            .unwrap()
            .unwrap();
        assert!(schedule.is_empty());
        let replayed = replay_schedule(&Voter, &initial, &schedule).unwrap();
        assert_eq!(replayed.as_slice(), initial.as_slice());
    }

    #[test]
    fn replay_rejects_inapplicable_steps() {
        let initial = Config::from_input(&Voter, 2, 0);
        // No B agent exists, so interaction (1, 0) cannot fire.
        let err = replay_schedule(&Voter, &initial, &[(1, 0)]).unwrap_err();
        assert_eq!(err.step, 0);
        assert_eq!(err.interaction, (1, 0));
        assert!(err.to_string().contains("not applicable"));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let avc = Avc::new(9, 2).unwrap();
        let initial = Config::from_input(&avc, 6, 6);
        let result = find_schedule(&avc, &initial, 5, |_| false);
        assert!(result.is_err());
    }
}
