//! The population-protocol state machine abstraction.

use std::fmt;

/// Identifier of a protocol state.
///
/// States are dense indices `0..num_states`, so configurations can be stored
/// as flat count vectors. `u32` accommodates the largest state spaces used in
/// the paper's evaluation (the "n-state" AVC instance at `n = 100 001`).
pub type StateId = u32;

/// One of the two opinions in a binary consensus / majority task.
///
/// By the paper's convention, `A` is the opinion whose initial majority must
/// map to output `1` and `B` to output `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opinion {
    /// The first input opinion (paper output `1`, AVC sign `+`).
    A,
    /// The second input opinion (paper output `0`, AVC sign `−`).
    B,
}

impl Opinion {
    /// The opposite opinion.
    ///
    /// ```
    /// use avc_population::Opinion;
    /// assert_eq!(Opinion::A.flip(), Opinion::B);
    /// ```
    #[must_use]
    pub fn flip(self) -> Opinion {
        match self {
            Opinion::A => Opinion::B,
            Opinion::B => Opinion::A,
        }
    }

    /// The paper's output value: `1` for `A`, `0` for `B`.
    #[must_use]
    pub fn as_output_bit(self) -> u8 {
        match self {
            Opinion::A => 1,
            Opinion::B => 0,
        }
    }
}

impl fmt::Display for Opinion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Opinion::A => write!(f, "A"),
            Opinion::B => write!(f, "B"),
        }
    }
}

/// A deterministic population protocol.
///
/// A protocol is a finite state machine `(Q, δ, γ)` together with an input
/// encoding: agents start in `input(A)` or `input(B)` and update on pairwise
/// interactions via `transition`. All randomness lives in the scheduler; the
/// transition function itself is deterministic.
///
/// Interactions are *ordered*: the first argument is the initiator, the
/// second the responder. Symmetric (two-way) protocols simply ignore the
/// order. The asymmetric three-state protocol of \[AAE08] uses it.
///
/// # Contract
///
/// * `transition` must be total over `0..num_states × 0..num_states` and
///   closed (outputs in `0..num_states`). The engines debug-assert closure.
/// * `output` must be total over `0..num_states`.
///
/// # Example
///
/// See the [crate-level example](crate) for a two-state voter protocol.
pub trait Protocol {
    /// Number of states `|Q|`; states are `0..num_states()`.
    fn num_states(&self) -> u32;

    /// The transition function `δ(initiator, responder)`.
    ///
    /// Returns the pair of successor states `(initiator', responder')`.
    fn transition(&self, initiator: StateId, responder: StateId) -> (StateId, StateId);

    /// The output function `γ`.
    fn output(&self, state: StateId) -> Opinion;

    /// The initial state encoding an input opinion.
    fn input(&self, opinion: Opinion) -> StateId;

    /// Human-readable label for a state, used in traces and tables.
    fn state_label(&self, state: StateId) -> String {
        format!("q{state}")
    }

    /// Short protocol name for reports (e.g. `"avc(m=15,d=1)"`).
    fn name(&self) -> &str;

    /// Whether the interaction of the ordered state pair `(a, b)` leaves the
    /// configuration unchanged (as a multiset of states).
    ///
    /// A pair is *silent* when `δ(a, b)` equals `(a, b)` or `(b, a)`;
    /// swapping two agents' states does not change the configuration. The
    /// [`JumpSim`](crate::engine::JumpSim) engine skips silent steps in
    /// batches; this default implementation is correct for every protocol,
    /// and implementations may override it with a cheaper direct check.
    fn is_silent(&self, a: StateId, b: StateId) -> bool {
        let (x, y) = self.transition(a, b);
        (x == a && y == b) || (x == b && y == a)
    }

    /// Whether a configuration, given as per-state agent counts, is *silent*:
    /// no ordered pair of distinct agents can change it.
    ///
    /// This default brute-forces every ordered pair of live species in
    /// `O(live²)` calls to [`Protocol::is_silent`] (a self-pair `(q, q)`
    /// counts only when at least two agents occupy `q`).
    /// [`Cached`](crate::cached::Cached) overrides it with a scan of its
    /// precomputed productive-pair bitset.
    fn config_silent(&self, counts: &[u64]) -> bool {
        let live: Vec<StateId> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(q, _)| q as StateId)
            .collect();
        for &a in &live {
            for &b in &live {
                if a == b && counts[a as usize] < 2 {
                    continue;
                }
                if !self.is_silent(a, b) {
                    return false;
                }
            }
        }
        true
    }
}

/// A pointer to a protocol is that protocol: engines run over a borrowed
/// one (`&P`) or over one shared across threads (`Arc<P>`, as the trial
/// harness's pool shares a dense table).
macro_rules! delegate_protocol {
    ($($pointer:ty),*) => {$(
        impl<P: Protocol + ?Sized> Protocol for $pointer {
            fn num_states(&self) -> u32 {
                (**self).num_states()
            }
            fn transition(&self, initiator: StateId, responder: StateId) -> (StateId, StateId) {
                (**self).transition(initiator, responder)
            }
            fn output(&self, state: StateId) -> Opinion {
                (**self).output(state)
            }
            fn input(&self, opinion: Opinion) -> StateId {
                (**self).input(opinion)
            }
            fn state_label(&self, state: StateId) -> String {
                (**self).state_label(state)
            }
            fn name(&self) -> &str {
                (**self).name()
            }
            fn is_silent(&self, a: StateId, b: StateId) -> bool {
                (**self).is_silent(a, b)
            }
            fn config_silent(&self, counts: &[u64]) -> bool {
                (**self).config_silent(counts)
            }
        }
    )*};
}

delegate_protocol!(&P, std::sync::Arc<P>);

/// Tiny protocols used by unit tests across this crate.
///
/// Not part of the public API; real protocols live in the `avc-protocols`
/// crate.
#[doc(hidden)]
pub mod tests_support {
    use super::{Opinion, Protocol, StateId};

    /// Two-state voter model: the responder adopts the initiator's state.
    #[derive(Debug, Clone, Copy)]
    pub struct Voter;

    impl Protocol for Voter {
        fn num_states(&self) -> u32 {
            2
        }
        fn transition(&self, initiator: StateId, _responder: StateId) -> (StateId, StateId) {
            (initiator, initiator)
        }
        fn output(&self, state: StateId) -> Opinion {
            if state == 0 {
                Opinion::A
            } else {
                Opinion::B
            }
        }
        fn input(&self, opinion: Opinion) -> StateId {
            match opinion {
                Opinion::A => 0,
                Opinion::B => 1,
            }
        }
        fn name(&self) -> &str {
            "voter-test"
        }
    }

    /// Annihilation: opposite strong states cancel to a common dead state.
    ///
    /// States: 0 = +1 (A), 1 = −1 (B), 2 = dead (outputs A).
    /// `(+1, −1) → (dead, dead)`; everything else is silent. Useful for
    /// engines tests because the number of productive interactions is
    /// exactly `min(a, b)`.
    #[derive(Debug, Clone, Copy)]
    pub struct Annihilate;

    impl Protocol for Annihilate {
        fn num_states(&self) -> u32 {
            3
        }
        fn transition(&self, a: StateId, b: StateId) -> (StateId, StateId) {
            if (a == 0 && b == 1) || (a == 1 && b == 0) {
                (2, 2)
            } else {
                (a, b)
            }
        }
        fn output(&self, state: StateId) -> Opinion {
            if state == 1 {
                Opinion::B
            } else {
                Opinion::A
            }
        }
        fn input(&self, opinion: Opinion) -> StateId {
            match opinion {
                Opinion::A => 0,
                Opinion::B => 1,
            }
        }
        fn name(&self) -> &str {
            "annihilate-test"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Swap;
    impl Protocol for Swap {
        fn num_states(&self) -> u32 {
            2
        }
        fn transition(&self, a: StateId, b: StateId) -> (StateId, StateId) {
            (b, a)
        }
        fn output(&self, state: StateId) -> Opinion {
            if state == 0 {
                Opinion::A
            } else {
                Opinion::B
            }
        }
        fn input(&self, opinion: Opinion) -> StateId {
            match opinion {
                Opinion::A => 0,
                Opinion::B => 1,
            }
        }
        fn name(&self) -> &str {
            "swap"
        }
    }

    #[test]
    fn opinion_flip_is_involutive() {
        assert_eq!(Opinion::A.flip().flip(), Opinion::A);
        assert_eq!(Opinion::B.flip().flip(), Opinion::B);
    }

    #[test]
    fn opinion_output_bits_follow_paper_convention() {
        assert_eq!(Opinion::A.as_output_bit(), 1);
        assert_eq!(Opinion::B.as_output_bit(), 0);
    }

    #[test]
    fn swapping_transitions_are_silent() {
        // δ(0,1) = (1,0): a pure swap leaves the configuration unchanged.
        assert!(Swap.is_silent(0, 1));
        assert!(Swap.is_silent(1, 0));
        assert!(Swap.is_silent(0, 0));
    }

    #[test]
    fn protocol_impl_for_reference_delegates() {
        fn check<P: Protocol>(p: &P) {
            assert_eq!(p.num_states(), 2);
            assert_eq!(p.transition(0, 1), (1, 0));
            assert_eq!(p.output(0), Opinion::A);
            assert_eq!(p.input(Opinion::B), 1);
            assert_eq!(p.name(), "swap");
            assert!(p.is_silent(0, 1));
            assert_eq!(p.state_label(3), "q3");
        }
        check(&&Swap);
        check(&std::sync::Arc::new(Swap));
    }
}
