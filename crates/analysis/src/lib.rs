//! Experiment harness and statistics for the paper's evaluation.
//!
//! This crate turns the protocols and engines of the workspace into the
//! tables behind every figure of *Fast and Exact Majority in Population
//! Protocols*:
//!
//! * [`stats`] — summary statistics and log–log scaling fits;
//! * [`io`] — crash-safe (write-temp-fsync-rename) file output;
//! * [`plot`] — dependency-free ASCII log–log plots for the terminal;
//! * [`mean_field`] — the ODE limit of the three-state protocol \[PVV09];
//! * [`table`] — plain CSV / markdown table rendering (no serde);
//! * [`harness`] — seeded multi-trial runners with automatic engine choice;
//! * [`experiments`] — one module per figure/experiment of the paper
//!   (Figure 3, Figure 4, the lower-bound scaling experiments, and the
//!   ablations discussed in §6);
//! * [`cli`] — a tiny argument parser shared by the experiment binaries.
//!
//! # Example: one Figure-3 cell
//!
//! ```
//! use avc_analysis::harness::{EngineKind, ScenarioPlan};
//! use avc_population::{MajorityInstance, ProtocolSpec, Scenario};
//!
//! let scenario = Scenario::new(ProtocolSpec::FourState, MajorityInstance::one_extra(101))
//!     .engine(EngineKind::Jump)
//!     .runs(20)
//!     .seed(7);
//! let results = ScenarioPlan::new(scenario).run();
//! assert_eq!(results.error_fraction(), 0.0); // the four-state protocol is exact
//! assert!(results.mean_parallel_time() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod io;
pub mod mean_field;
pub mod plot;
pub mod stats;
pub mod table;
