//! # AVC: Average-and-Conquer — fast and exact majority in population protocols
//!
//! A production-quality Rust reproduction of *Fast and Exact Majority in
//! Population Protocols* (Dan Alistarh, Rati Gelashvili, Milan Vojnović;
//! PODC 2015 / MSR-TR-2015-13).
//!
//! This meta-crate re-exports the workspace crates:
//!
//! * [`population`] — the simulation substrate (protocol trait, engines,
//!   interaction graphs, schedulers);
//! * [`protocols`] — the majority protocols: AVC, the four-state exact
//!   protocol, the three-state approximate protocol, the voter model;
//! * [`verify`] — exhaustive reachability model checking, protocol-space
//!   enumeration, and the knowledge-set lower-bound machinery;
//! * [`analysis`] — the experiment harness, statistics, and table output;
//! * [`store`] — the crash-safe experiment registry behind the `avc`
//!   sweep CLI (checkpoint/resume, content-addressed cells).
//!
//! # Quickstart
//!
//! ```
//! use avc::population::engine::{CountSim, Simulator};
//! use avc::population::{Config, MajorityInstance};
//! use avc::protocols::Avc;
//! use rand::SeedableRng;
//!
//! // 101 agents, majority decided by a single agent (ε = 1/n).
//! let instance = MajorityInstance::one_extra(101);
//! let protocol = Avc::with_states(64)?; // s ≈ 64 states per agent
//! let config = Config::from_input(&protocol, instance.a(), instance.b());
//! let mut sim = CountSim::new(protocol, config);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(2015);
//! let outcome = sim.run_to_consensus(&mut rng, u64::MAX);
//! // AVC solves majority *exactly*: the verdict always matches the input
//! // majority, here opinion A.
//! assert!(outcome.verdict.is_correct(avc::population::Opinion::A));
//! # Ok::<(), avc::protocols::AvcParameterError>(())
//! ```

#![forbid(unsafe_code)]

pub use avc_analysis as analysis;
pub use avc_population as population;
pub use avc_protocols as protocols;
pub use avc_store as store;
pub use avc_verify as verify;

/// The most common imports in one place.
///
/// ```
/// use avc::prelude::*;
/// use rand::SeedableRng;
///
/// let protocol = Avc::with_states(16).expect("valid budget");
/// let config = Config::from_input(&protocol, 30, 21);
/// let mut sim = CountSim::new(protocol, config);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// assert!(sim.run_to_consensus(&mut rng, u64::MAX).verdict.is_consensus());
/// ```
pub mod prelude {
    pub use avc_population::engine::{AdaptiveSim, AgentSim, CountSim, JumpSim, Simulator};
    pub use avc_population::graph::Graph;
    pub use avc_population::rngutil::SeedSequence;
    pub use avc_population::{
        Config, ConvergenceRule, MajorityInstance, Opinion, Protocol, StateId,
    };
    pub use avc_protocols::{Avc, Epidemic, FourState, LeaderElection, ThreeState, Voter};
}
