//! Low-overhead metrics and run telemetry for the AVC simulation stack.
//!
//! The crate is std-only and dependency-free: it sits *below*
//! `avc-population` in the workspace graph so the engines can carry a
//! monomorphized [`Sink`] seam without pulling anything into
//! their hot loops. It provides four layers:
//!
//! * **Cells** ([`metrics`]): lock-free `AtomicU64` counters, gauges, and
//!   fixed-bucket log₂-scale histograms, each with a plain mergeable
//!   snapshot form.
//! * **Registry** ([`registry`]): named metrics with deterministic
//!   (`BTreeMap`) snapshot ordering, mergeable across trial workers exactly
//!   like the analysis crate's `Summary` monoid.
//! * **Instrumentation** ([`sink`], [`span`]): the `Sink` trait engines are
//!   generic over — [`NoopSink`] compiles to nothing, the
//!   default everywhere — and a [`Span`] wall-clock timer for
//!   phase/chunk/cell timing.
//! * **Export** ([`export`]): the workspace's one JSONL appender (each
//!   append writes and `fdatasync`s one line; one locked writer per file;
//!   torn-tail-tolerant loading), which the store's records also go
//!   through, plus the Prometheus text exposition format.
//!
//! # Determinism contract
//!
//! Telemetry separates *simulation-derived* values (steps, events, silent
//! fractions, convergence histograms — identical for a fixed seed at any
//! worker count) from *wall-clock* values (durations, throughput — never
//! comparable across runs). [`cell::CellTelemetry`] keeps the two in
//! distinct registries so exports can byte-compare the deterministic half;
//! `tests/telemetry_stream.rs` in `avc-store` pins `--threads 1` vs
//! `--threads 4` byte-identity on exactly that split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod export;
pub mod metrics;
pub mod registry;
pub mod sink;
pub mod span;

pub use cell::{wall_suppressed, CellTelemetry};
pub use metrics::{Counter, Gauge, HistogramSnapshot, LogHistogram};
pub use registry::{MetricValue, Registry, RegistrySnapshot};
pub use sink::{CountingSink, NoopSink, Sink};
pub use span::Span;
