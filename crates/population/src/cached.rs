//! A transition-table cache wrapper for hot simulation loops.

use crate::protocol::{Opinion, Protocol, StateId};

/// Wraps a protocol with a dense, precomputed transition table.
///
/// Protocols like AVC compute each transition arithmetically
/// (decode → update → encode). Inside an engine's inner loop that work is
/// repeated billions of times; `Cached` trades `O(s²)` memory for flat
/// array lookups. Worth it for small-to-medium state counts (the table for
/// `s` states holds `s²` entries of 8 bytes). Building one costs `s²`
/// transition calls.
///
/// Outputs and input encodings are also precomputed.
///
/// # Example
///
/// ```
/// use avc_population::cached::Cached;
/// use avc_population::protocol::tests_support::Voter;
/// use avc_population::Protocol;
///
/// let cached = Cached::new(Voter);
/// assert_eq!(cached.transition(0, 1), Voter.transition(0, 1));
/// assert_eq!(cached.output(1), Voter.output(1));
/// ```
#[derive(Debug, Clone)]
pub struct Cached<P> {
    inner: P,
    num_states: u32,
    table: Vec<(StateId, StateId)>,
    outputs: Vec<Opinion>,
    inputs: (StateId, StateId),
    /// Row-major bitset over ordered state pairs: bit `(a, b)` is set iff
    /// the interaction `δ(a, b)` is *productive* (not silent). Rows are
    /// padded to a whole number of `u64` words so a row scan is word-wise.
    productive: Vec<u64>,
    /// `u64` words per bitset row: `ceil(num_states / 64)`.
    words_per_row: usize,
}

/// Keep tables at or below this many entries (`s ≤ 1024`, 8 MiB). Above
/// it, AVC's arithmetic transition is no slower than a table that misses
/// the cache (DESIGN.md §2.2 records the crossover).
pub const MAX_TABLE_ENTRIES: u64 = 1_024 * 1_024;

impl<P: Protocol> Cached<P> {
    /// Whether a protocol with `num_states` states fits under
    /// [`MAX_TABLE_ENTRIES`] and can therefore be cached.
    #[must_use]
    pub fn fits(num_states: u32) -> bool {
        (num_states as u64) * (num_states as u64) <= MAX_TABLE_ENTRIES
    }

    /// Precomputes the full transition table of `inner`.
    ///
    /// # Panics
    ///
    /// Panics if the table would exceed [`MAX_TABLE_ENTRIES`]. Use
    /// [`Cached::try_new`] to fall back to the arithmetic protocol instead.
    pub fn new(inner: P) -> Cached<P> {
        match Cached::try_new(inner) {
            Ok(cached) => cached,
            Err(inner) => panic!(
                "state space too large to cache: {} states",
                inner.num_states()
            ),
        }
    }

    /// Precomputes the full transition table of `inner`, or hands the
    /// protocol back unchanged when its `s²` table would exceed
    /// [`MAX_TABLE_ENTRIES`].
    ///
    /// This is the dispatch point used by the harness: protocols that fit
    /// run on the table, larger ones keep the arithmetic path.
    pub fn try_new(inner: P) -> Result<Cached<P>, P> {
        let s = inner.num_states();
        if !Cached::<P>::fits(s) {
            return Err(inner);
        }
        let words_per_row = (s as usize).div_ceil(64);
        let mut table = vec![(0, 0); (s as usize) * (s as usize)];
        let mut productive = vec![0u64; (s as usize) * words_per_row];
        // δ is evaluated once per pair, and the pair in hand decides silence
        // exactly as `Protocol::is_silent`'s default does, so no second
        // `transition` call is made.
        let rows = table
            .chunks_exact_mut((s as usize).max(1))
            .zip(productive.chunks_exact_mut(words_per_row.max(1)));
        for (a, (pairs, bits)) in (0..).zip(rows) {
            for (b, slot) in (0..).zip(pairs.iter_mut()) {
                let (x, y) = inner.transition(a, b);
                *slot = (x, y);
                if !((x == a && y == b) || (x == b && y == a)) {
                    bits[b as usize >> 6] |= 1u64 << (b & 63);
                }
            }
        }
        let outputs = (0..s).map(|q| inner.output(q)).collect();
        let inputs = (inner.input(Opinion::A), inner.input(Opinion::B));
        Ok(Cached {
            inner,
            num_states: s,
            table,
            outputs,
            inputs,
            productive,
            words_per_row,
        })
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the wrapper and returns the protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Protocol> Protocol for Cached<P> {
    fn num_states(&self) -> u32 {
        self.num_states
    }

    fn transition(&self, initiator: StateId, responder: StateId) -> (StateId, StateId) {
        self.table[(initiator * self.num_states + responder) as usize]
    }

    fn output(&self, state: StateId) -> Opinion {
        self.outputs[state as usize]
    }

    fn input(&self, opinion: Opinion) -> StateId {
        match opinion {
            Opinion::A => self.inputs.0,
            Opinion::B => self.inputs.1,
        }
    }

    fn state_label(&self, state: StateId) -> String {
        self.inner.state_label(state)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_silent(&self, a: StateId, b: StateId) -> bool {
        let word = self.productive[a as usize * self.words_per_row + (b as usize >> 6)];
        word & (1u64 << (b & 63)) == 0
    }

    fn config_silent(&self, counts: &[u64]) -> bool {
        // Word-wise scan of the productive-pair bitset restricted to live
        // species: O(live · s/64) instead of O(live²) transition probes.
        let w = self.words_per_row;
        let mut live = vec![0u64; w];
        let mut live_idx = Vec::new();
        for (q, &c) in counts.iter().enumerate() {
            if c > 0 {
                live[q >> 6] |= 1u64 << (q & 63);
                live_idx.push(q);
            }
        }
        for &a in &live_idx {
            let row = &self.productive[a * w..(a + 1) * w];
            for (k, (&r, &l)) in row.iter().zip(&live).enumerate() {
                let mut hits = r & l;
                // A productive self-pair (a, a) needs two agents in `a`.
                if counts[a] < 2 && (a >> 6) == k {
                    hits &= !(1u64 << (a & 63));
                }
                if hits != 0 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests_support::{Annihilate, Voter};

    #[test]
    fn cached_matches_inner_everywhere() {
        let cached = Cached::new(Annihilate);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(cached.transition(a, b), Annihilate.transition(a, b));
                assert_eq!(cached.is_silent(a, b), Annihilate.is_silent(a, b));
            }
        }
        for q in 0..3 {
            assert_eq!(cached.output(q), Annihilate.output(q));
            assert_eq!(cached.state_label(q), Annihilate.state_label(q));
        }
        assert_eq!(cached.input(Opinion::A), Annihilate.input(Opinion::A));
        assert_eq!(cached.input(Opinion::B), Annihilate.input(Opinion::B));
        assert_eq!(cached.name(), Annihilate.name());
    }

    #[test]
    fn accessors_expose_the_inner_protocol() {
        let cached = Cached::new(Voter);
        assert_eq!(cached.inner().num_states(), 2);
        let inner = cached.into_inner();
        assert_eq!(inner.num_states(), 2);
    }

    #[test]
    fn simulation_results_are_identical_under_caching() {
        use crate::engine::{CountSim, Simulator};
        use crate::Config;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        // Same seed → identical trajectory with and without the cache.
        let mut plain = CountSim::new(Voter, Config::from_input(&Voter, 12, 8));
        let mut cached = CountSim::new(
            Cached::new(Voter),
            Config::from_input(&Cached::new(Voter), 12, 8),
        );
        let mut rng1 = SmallRng::seed_from_u64(9);
        let mut rng2 = SmallRng::seed_from_u64(9);
        let a = plain.run_to_consensus(&mut rng1, u64::MAX);
        let b = cached.run_to_consensus(&mut rng2, u64::MAX);
        assert_eq!(a, b);
    }
}
