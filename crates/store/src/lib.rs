//! Crash-safe experiment registry with checkpoint/resume, plus the unified
//! `avc` sweep CLI.
//!
//! Every experiment is a grid of *cells*. A cell's identity is the SHA-256
//! hash of a canonical [`manifest`](manifest::Manifest) — protocol, engine,
//! instance size, effective seed, trial count — and its result (trial
//! samples as exact `f64` bit patterns, pre-rendered table rows) is appended
//! durably to a JSONL [`store`](store::Store) once the cell finishes, in
//! plan order. Interrupting a sweep (Ctrl-C, `kill -9`, power loss)
//! therefore costs at most the two cells in flight (the worker pool runs
//! the next cell's trials beside the current cell's last ones); rerunning
//! the same `avc sweep` command skips
//! every completed cell and `avc export` regenerates byte-identical
//! `results/*.csv` files at any `--serial`/`--threads` setting.
//!
//! The crate is std-only by design: the registry format must not depend on
//! anything that could drift (see `json` for the canonical subset used).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod hash;
pub mod json;
pub mod manifest;
pub mod record;
pub mod scenario_grid;
pub mod specs;
pub mod store;
pub mod sweep;
