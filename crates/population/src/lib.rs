//! Simulation substrate for *population protocols*.
//!
//! A population protocol is a system of `n` anonymous agents, each running
//! the same deterministic state machine over a finite state set `Q`. In each
//! discrete step the scheduler draws an ordered pair of distinct agents
//! uniformly at random (on a clique; more generally, an edge of an
//! interaction graph) and both agents update their states according to the
//! protocol's transition function `δ`. One unit of *parallel time* is `n`
//! consecutive steps.
//!
//! This crate provides everything needed to define and execute such
//! protocols at the scale used in the evaluation of *Fast and Exact Majority
//! in Population Protocols* (Alistarh, Gelashvili, Vojnović; PODC 2015):
//!
//! * [`Protocol`] — the state machine abstraction (states, transition,
//!   output, input encoding);
//! * [`Config`] — a configuration as a multiset of states (species counts);
//! * four exact simulation engines with different cost models:
//!   * [`AgentSim`](engine::AgentSim) — per-agent, supports arbitrary
//!     [interaction graphs](graph::Graph);
//!   * [`CountSim`](engine::CountSim) — species counts + categorical
//!     sampling, a pair lookup of one table load plus `log₂⌈s/256⌉`
//!     tree levels per agent (the load alone up to 256 states);
//!   * [`JumpSim`](engine::JumpSim) — species counts with *null-step
//!     skipping*: steps whose interaction provably leaves the configuration
//!     unchanged are skipped in geometrically-sampled batches, so the cost
//!     is proportional to the number of *productive* interactions. This is
//!     what makes slow protocols (e.g. the four-state exact-majority
//!     protocol at `ε = 1/n`, whose convergence takes `Θ(n² log n)` raw
//!     steps) simulable at the paper's full scale;
//!   * [`AdaptiveSim`](engine::AdaptiveSim) — `CountSim` while most
//!     interactions are productive, then `JumpSim` (the default, `auto`).
//! * [`spec`] — the majority-problem specification and convergence rules.
//!
//! # Quick example
//!
//! ```
//! use avc_population::{Protocol, StateId, Opinion, Config};
//! use avc_population::engine::{CountSim, Simulator};
//! use rand::SeedableRng;
//!
//! /// The two-state voter model: the responder adopts the initiator's state.
//! struct Voter;
//!
//! impl Protocol for Voter {
//!     fn num_states(&self) -> u32 { 2 }
//!     fn transition(&self, initiator: StateId, _responder: StateId) -> (StateId, StateId) {
//!         (initiator, initiator)
//!     }
//!     fn output(&self, state: StateId) -> Opinion {
//!         if state == 0 { Opinion::A } else { Opinion::B }
//!     }
//!     fn input(&self, opinion: Opinion) -> StateId {
//!         match opinion { Opinion::A => 0, Opinion::B => 1 }
//!     }
//!     fn name(&self) -> &str { "voter" }
//! }
//!
//! let config = Config::from_input(&Voter, 8, 3); // 8 agents in A, 3 in B
//! let mut sim = CountSim::new(Voter, config);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let outcome = sim.run_to_consensus(&mut rng, u64::MAX);
//! assert!(outcome.verdict.is_consensus());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cached;
pub mod config;
pub mod driver;
pub mod engine;
pub mod faults;
pub mod graph;
pub mod hash;
pub mod json;
pub mod protocol;
pub mod rngutil;
pub mod sampler;
pub mod scenario;
pub mod sched;
pub mod spec;
pub mod spectral;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use config::Config;
pub use protocol::{Opinion, Protocol, StateId};
pub use scenario::{EngineKind, ProtocolSpec, Scenario, SchedulerSpec};
pub use spec::{ConvergenceRule, MajorityInstance};
