//! Low-overhead metrics and run telemetry for the AVC simulation stack.
//!
//! The crate is std-only and dependency-free: it sits *below*
//! `avc-population` in the workspace graph so the engines can carry a
//! monomorphized [`Sink`] seam without pulling anything into
//! their hot loops. It provides four layers:
//!
//! * **Histograms** ([`metrics`]): a fixed-bucket log₂-scale
//!   [`HistogramSnapshot`], owned by one sink or observer and mergeable.
//! * **Named metrics** ([`registry`]): [`RegistrySnapshot`], counters,
//!   gauges and histograms by name, in deterministic (`BTreeMap`) order,
//!   mergeable across trial workers exactly like the analysis crate's
//!   `Summary` monoid.
//! * **Instrumentation** ([`sink`], [`span`]): the `Sink` trait engines are
//!   generic over — [`NoopSink`] compiles to nothing, the default
//!   everywhere; [`CountingSink`] counts, one per engine — and a [`Span`]
//!   wall-clock timer for trial, chunk and cell timing.
//! * **Export** ([`export`]): the workspace's one JSONL appender (each
//!   append writes and `fdatasync`s one line; one locked writer per file;
//!   torn-tail-tolerant loading), which the store's records go through,
//!   plus the Prometheus text exposition format. The one JSON form of a
//!   registry lives in the store crate's records.
//!
//! # Determinism contract
//!
//! Telemetry separates *simulation-derived* values (steps, events, silent
//! fractions, convergence histograms — identical for a fixed seed at any
//! worker count) from *wall-clock* values (durations, throughput — never
//! comparable across runs). [`cell::CellTelemetry`] keeps the two in
//! distinct registries so stored records can byte-compare the
//! deterministic half; `tests/telemetry_stream.rs` in `avc-store` pins
//! `--threads 1` vs `--threads 4` byte-identity on exactly that split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod export;
pub mod metrics;
pub mod registry;
pub mod sink;
pub mod span;

pub use cell::{wall_suppressed, CellTelemetry};
pub use metrics::HistogramSnapshot;
pub use registry::{MetricValue, RegistrySnapshot};
pub use sink::{CountingSink, NoopSink, Sink};
pub use span::Span;
