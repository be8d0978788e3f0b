//! Configurations as multisets of states (species counts).

use crate::protocol::{Opinion, Protocol, StateId};

/// A configuration of a population: how many agents occupy each state.
///
/// Because agents are anonymous, a configuration on a clique is fully
/// described by the count of agents per state ("species counts"). This is
/// the representation shared by the count-based engines and the exhaustive
/// model checker.
///
/// # Example
///
/// ```
/// use avc_population::Config;
///
/// let config = Config::from_counts(vec![5, 0, 2]);
/// assert_eq!(config.population(), 7);
/// assert_eq!(config.count(0), 5);
/// assert_eq!(config.live_states().collect::<Vec<_>>(), vec![0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Config {
    counts: Vec<u64>,
    population: u64,
}

impl Config {
    /// Creates a configuration from per-state counts.
    pub fn from_counts(counts: Vec<u64>) -> Config {
        let population = counts.iter().sum();
        Config { counts, population }
    }

    /// Creates the initial configuration of a majority instance: `a` agents
    /// in `protocol.input(Opinion::A)` and `b` agents in
    /// `protocol.input(Opinion::B)`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol maps both opinions to the same input state
    /// while both `a` and `b` are nonzero.
    pub fn from_input<P: Protocol>(protocol: &P, a: u64, b: u64) -> Config {
        let sa = protocol.input(Opinion::A);
        let sb = protocol.input(Opinion::B);
        assert!(
            sa != sb || a == 0 || b == 0,
            "protocol `{}` does not distinguish input opinions",
            protocol.name()
        );
        let mut counts = vec![0; protocol.num_states() as usize];
        counts[sa as usize] += a;
        counts[sb as usize] += b;
        Config::from_counts(counts)
    }

    /// Number of agents in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn count(&self, state: StateId) -> u64 {
        self.counts[state as usize]
    }

    /// Total number of agents `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Number of distinct states the configuration ranges over (the
    /// protocol's `|Q|`, not the number of live states).
    #[must_use]
    pub fn num_states(&self) -> u32 {
        self.counts.len() as u32
    }

    /// The raw count vector.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }

    /// Iterator over states with nonzero count.
    pub fn live_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i as StateId)
    }

    /// Number of agents whose output under `protocol` is `opinion`.
    pub fn count_with_output<P: Protocol>(&self, protocol: &P, opinion: Opinion) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .filter(|(i, _)| protocol.output(*i as StateId) == opinion)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Whether all agents are in a single state (and which).
    #[must_use]
    pub fn unanimous_state(&self) -> Option<StateId> {
        self.live_states()
            .next()
            .filter(|&s| self.count(s) == self.population)
    }

    /// Applies one interaction: removes one agent each from `from`, adds one
    /// agent each to `to` (the two elements of each pair may coincide).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a count would underflow, which indicates
    /// sampling a pair that is not present.
    pub fn apply(&mut self, from: (StateId, StateId), to: (StateId, StateId)) {
        debug_assert!(
            if from.0 == from.1 {
                self.counts[from.0 as usize] >= 2
            } else {
                self.counts[from.0 as usize] >= 1 && self.counts[from.1 as usize] >= 1
            },
            "interaction pair not present in configuration"
        );
        self.counts[from.0 as usize] -= 1;
        self.counts[from.1 as usize] -= 1;
        self.counts[to.0 as usize] += 1;
        self.counts[to.1 as usize] += 1;
    }
}

impl FromIterator<u64> for Config {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Config {
        Config::from_counts(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests_support::Voter;

    #[test]
    fn from_counts_tracks_population() {
        let c = Config::from_counts(vec![1, 2, 3]);
        assert_eq!(c.population(), 6);
        assert_eq!(c.num_states(), 3);
    }

    #[test]
    fn from_input_places_opinions() {
        let c = Config::from_input(&Voter, 4, 9);
        assert_eq!(c.count(0), 4);
        assert_eq!(c.count(1), 9);
        assert_eq!(c.population(), 13);
    }

    #[test]
    #[should_panic(expected = "does not distinguish")]
    fn from_input_rejects_degenerate_encoding() {
        struct Collapsed;
        impl crate::Protocol for Collapsed {
            fn num_states(&self) -> u32 {
                1
            }
            fn transition(&self, a: StateId, b: StateId) -> (StateId, StateId) {
                (a, b)
            }
            fn output(&self, _: StateId) -> Opinion {
                Opinion::A
            }
            fn input(&self, _: Opinion) -> StateId {
                0
            }
            fn name(&self) -> &str {
                "collapsed"
            }
        }
        let _ = Config::from_input(&Collapsed, 1, 1);
    }

    #[test]
    fn apply_moves_agents() {
        let mut c = Config::from_counts(vec![2, 1, 0]);
        c.apply((0, 1), (2, 2));
        assert_eq!(c.as_slice(), &[1, 0, 2]);
        assert_eq!(c.population(), 3);
    }

    #[test]
    fn apply_supports_identical_pair() {
        let mut c = Config::from_counts(vec![3, 0]);
        c.apply((0, 0), (1, 1));
        assert_eq!(c.as_slice(), &[1, 2]);
    }

    #[test]
    fn unanimity_detection() {
        assert_eq!(Config::from_counts(vec![0, 5]).unanimous_state(), Some(1));
        assert_eq!(Config::from_counts(vec![1, 4]).unanimous_state(), None);
    }

    #[test]
    fn count_with_output_partitions_population() {
        let c = Config::from_input(&Voter, 4, 9);
        assert_eq!(c.count_with_output(&Voter, Opinion::A), 4);
        assert_eq!(c.count_with_output(&Voter, Opinion::B), 9);
    }

    #[test]
    fn live_states_skips_zeros() {
        let c = Config::from_counts(vec![0, 3, 0, 1]);
        assert_eq!(c.live_states().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn collects_from_iterator() {
        let c: Config = [1u64, 2, 3].into_iter().collect();
        assert_eq!(c.population(), 6);
    }
}
