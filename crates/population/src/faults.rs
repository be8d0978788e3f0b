//! Fault injection: perturbing a running simulation at scheduled steps.
//!
//! The paper's exactness guarantees assume a well-behaved population. This
//! module models the standard ways real agents misbehave, so the stress
//! suite can probe how each protocol degrades:
//!
//! * [`Fault::Corrupt`] — transient state corruption in count space: move
//!   `agents` agents from one state to another. Meaningful on every engine
//!   (count-based engines only know the multiset).
//! * [`Fault::BitFlip`] — flip one bit of one agent's state id (a
//!   single-event-upset model). A flip that would leave the protocol's
//!   state space is a no-op, mirroring hardware whose registers are range
//!   checked on read.
//! * [`Fault::Crash`] / [`Fault::Revive`] — a crashed agent keeps its
//!   state and stays counted, but every interaction scheduled onto it is
//!   burned (the step elapses, nothing happens) until it is revived.
//! * [`Fault::StickAt`] / [`Fault::Unstick`] — a stuck agent still
//!   interacts (its partner updates normally) but its own state never
//!   changes: a Byzantine-lite agent that answers but never learns.
//!
//! Agent-addressed faults require per-agent identity, so they are only
//! supported by [`AgentSim`](crate::engine::AgentSim); count-based engines
//! report [`FaultError::Unsupported`]. Faults are injected between driver
//! chunks via [`Driver::run_faulted`](crate::driver::Driver::run_faulted)
//! and a [`FaultPlan`], which keeps injection off every engine's hot path
//! and leaves the RNG stream untouched: a faulted run draws exactly the
//! randomness a fault-free run of the same length would.

use crate::protocol::StateId;
use std::fmt;

/// One perturbation applied to a simulation at a scheduled step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Move up to `agents` agents from state `from` to state `to`
    /// (clamped to the current count of `from`).
    Corrupt {
        /// Source state.
        from: StateId,
        /// Destination state.
        to: StateId,
        /// Number of agents to move (clamped).
        agents: u64,
    },
    /// Flip bit `bit` of agent `agent`'s state id; a no-op if the flipped
    /// id is outside the protocol's state space.
    BitFlip {
        /// Target agent.
        agent: usize,
        /// Bit index to flip (0 = least significant).
        bit: u32,
    },
    /// Freeze `agent`: it keeps its state and stays counted, but every
    /// step that schedules it is burned without an interaction.
    Crash {
        /// Target agent.
        agent: usize,
    },
    /// Undo a [`Fault::Crash`].
    Revive {
        /// Target agent.
        agent: usize,
    },
    /// Make `agent` stuck-at: it interacts (partners update) but its own
    /// state never changes.
    StickAt {
        /// Target agent.
        agent: usize,
    },
    /// Undo a [`Fault::StickAt`].
    Unstick {
        /// Target agent.
        agent: usize,
    },
}

impl Fault {
    /// Whether this fault addresses an individual agent (and therefore
    /// needs an engine with per-agent identity).
    #[must_use]
    pub fn is_agent_addressed(&self) -> bool {
        self.agent().is_some()
    }

    /// The agent this fault addresses, if it addresses one.
    #[must_use]
    pub fn agent(&self) -> Option<usize> {
        match *self {
            Fault::Corrupt { .. } => None,
            Fault::BitFlip { agent, .. }
            | Fault::Crash { agent }
            | Fault::Revive { agent }
            | Fault::StickAt { agent }
            | Fault::Unstick { agent } => Some(agent),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Corrupt { from, to, agents } => {
                write!(f, "corrupt({agents}: {from}->{to})")
            }
            Fault::BitFlip { agent, bit } => write!(f, "bitflip(agent {agent}, bit {bit})"),
            Fault::Crash { agent } => write!(f, "crash(agent {agent})"),
            Fault::Revive { agent } => write!(f, "revive(agent {agent})"),
            Fault::StickAt { agent } => write!(f, "stick(agent {agent})"),
            Fault::Unstick { agent } => write!(f, "unstick(agent {agent})"),
        }
    }
}

/// Why a [`Simulator::inject`](crate::engine::Simulator::inject) call was
/// rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The engine has no mechanism for this fault class (agent-addressed
    /// faults on an engine without per-agent identity).
    Unsupported {
        /// Name of the rejecting engine.
        engine: &'static str,
        /// The rejected fault.
        fault: Fault,
    },
    /// The fault addresses a state or agent outside the simulation.
    OutOfRange {
        /// Human-readable description of the bad address.
        detail: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Unsupported { engine, fault } => {
                write!(
                    f,
                    "{engine} does not support {fault} (no per-agent identity)"
                )
            }
            FaultError::OutOfRange { detail } => write!(f, "fault out of range: {detail}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// A fault scheduled for a step.
///
/// The driver applies it at the first *reachable* step at or after
/// `at_step` (batching engines may land past the exact boundary, like
/// observer cadences).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Earliest scheduler step at which the fault fires.
    pub at_step: u64,
    /// The perturbation to apply.
    pub fault: Fault,
}

/// An ordered schedule of faults consumed by
/// [`Driver::run_faulted`](crate::driver::Driver::run_faulted).
///
/// Events are kept sorted by step (stable for equal steps, so faults
/// scheduled at the same step fire in insertion order — a `Crash` then a
/// `Revive` at one step net to a revived agent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Index of the first not-yet-applied event.
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan (a faulted run over it is a fault-free run).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builds a plan from events in any order (stable-sorted by step).
    #[must_use]
    pub fn from_events(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at_step);
        FaultPlan { events, cursor: 0 }
    }

    /// Adds a fault scheduled at `at_step` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the plan has already started being consumed.
    #[must_use]
    pub fn at(mut self, at_step: u64, fault: Fault) -> FaultPlan {
        assert_eq!(self.cursor, 0, "cannot extend a partially-consumed plan");
        self.events.push(FaultEvent { at_step, fault });
        self.events.sort_by_key(|e| e.at_step);
        self
    }

    /// The step of the next pending fault, if any.
    #[must_use]
    pub fn next_step(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.at_step)
    }

    /// Pops every pending event with `at_step ≤ now`, in schedule order.
    pub fn take_due(&mut self, now: u64) -> Vec<FaultEvent> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at_step <= now {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }

    /// Number of not-yet-applied events.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// All scheduled events, applied or not, in schedule order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Rewinds the plan so it can drive another run.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_orders_and_consumes_events() {
        let mut plan = FaultPlan::new()
            .at(100, Fault::Crash { agent: 3 })
            .at(10, Fault::Crash { agent: 1 })
            .at(10, Fault::Revive { agent: 1 });
        assert_eq!(plan.next_step(), Some(10));
        assert_eq!(plan.remaining(), 3);

        let due = plan.take_due(9);
        assert!(due.is_empty());

        // Equal-step events come out in insertion order (crash before revive).
        let due = plan.take_due(10);
        assert_eq!(
            due.iter().map(|e| e.fault).collect::<Vec<_>>(),
            vec![Fault::Crash { agent: 1 }, Fault::Revive { agent: 1 }]
        );
        assert_eq!(plan.next_step(), Some(100));

        let due = plan.take_due(u64::MAX);
        assert_eq!(due.len(), 1);
        assert_eq!(plan.remaining(), 0);
        assert_eq!(plan.next_step(), None);

        plan.reset();
        assert_eq!(plan.remaining(), 3);
    }

    #[test]
    fn display_is_compact() {
        let fault = Fault::Corrupt {
            from: 0,
            to: 1,
            agents: 5,
        };
        assert_eq!(fault.to_string(), "corrupt(5: 0->1)");
        assert!(!fault.is_agent_addressed());
        assert!(Fault::Crash { agent: 2 }.is_agent_addressed());
    }
}
