//! The monomorphized telemetry seam engines are generic over.
//!
//! [`Sink`] mirrors the `Scheduler` precedent in `avc-population`: a
//! non-object-safe trait taken as a defaulted type parameter, so the
//! compiler specializes the hot loop per sink. The default [`NoopSink`]
//! has empty `#[inline(always)]` hooks and `ENABLED = false`, so every
//! recording site folds to nothing — the engines' code, and their RNG
//! streams, are byte-for-byte what they were before the seam existed.
//!
//! [`CountingSink`] is the working implementation: plain (non-atomic) `u64`
//! fields because a sink is owned by exactly one engine on one thread;
//! cross-worker aggregation happens later by merging snapshots.
//!
//! Hooks are *chunk-grained* where possible. Engines call
//! [`Sink::on_chunk`] once per `advance_chunk` with the step/event deltas,
//! which is enough to recover the silent-step fast-path hit count exactly
//! (`steps − events`) without any per-step work. The only per-step hook is
//! [`Sink::on_descent`] (Fenwick descent depth in `CountSim`), and the
//! engine guards it with `if T::ENABLED` so disabled builds pay nothing.

use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricValue, RegistrySnapshot};

/// Receiver for engine-level telemetry events.
///
/// All hooks have empty default bodies; implementors override what they
/// care about. `ENABLED` lets engines guard per-step recording sites so
/// the disabled seam compiles away entirely.
pub trait Sink {
    /// Whether this sink records anything. Engines use this as a
    /// compile-time guard around per-step hooks; it must be `false` only
    /// when every hook is a no-op.
    const ENABLED: bool;

    /// One `advance_chunk` completed, advancing `steps` scheduler steps of
    /// which `events` were productive (state-changing) interactions.
    #[inline(always)]
    fn on_chunk(&mut self, steps: u64, events: u64) {
        let _ = (steps, events);
    }

    /// One Fenwick descent of `depth` levels ran in `CountSim`.
    #[inline(always)]
    fn on_descent(&mut self, depth: u32) {
        let _ = depth;
    }

    /// One fault was injected into the engine.
    #[inline(always)]
    fn on_fault(&mut self) {}

    /// The adaptive engine switched dense/sparse phase.
    #[inline(always)]
    fn on_phase_switch(&mut self) {}

    /// The counts recorded so far, for a sink that keeps them.
    fn counts(&self) -> Option<&CountingSink> {
        None
    }
}

/// The default sink: records nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl Sink for NoopSink {
    const ENABLED: bool = false;
}

/// A recording sink: plain counters plus a chunk-size histogram, owned by
/// one engine on one thread.
///
/// # Example
///
/// ```
/// use avc_telemetry::{CountingSink, Sink};
/// let mut sink = CountingSink::new();
/// sink.on_chunk(1000, 40);
/// sink.on_chunk(500, 10);
/// assert_eq!(sink.steps, 1500);
/// assert_eq!(sink.events, 50);
/// assert_eq!(sink.silent_steps(), 1450);
/// assert_eq!(sink.chunks, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountingSink {
    /// Total scheduler steps observed.
    pub steps: u64,
    /// Total productive (state-changing) interactions.
    pub events: u64,
    /// Number of `advance_chunk` calls.
    pub chunks: u64,
    /// Distribution of per-chunk step counts.
    pub chunk_steps: HistogramSnapshot,
    /// Number of Fenwick descents recorded.
    pub descents: u64,
    /// Sum of Fenwick descent depths (levels walked).
    pub descent_depth_sum: u64,
    /// Faults injected.
    pub faults: u64,
    /// Adaptive dense↔sparse phase switches.
    pub switches: u64,
}

impl CountingSink {
    /// A sink with all counts at zero.
    #[must_use]
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Steps that took the silent fast path (no state change):
    /// `steps − events`, exact because both are exact.
    #[must_use]
    pub fn silent_steps(&self) -> u64 {
        self.steps - self.events
    }

    /// The deterministic `sim.*` snapshot of this sink's counts. Every
    /// value here derives from the simulation alone, so for a fixed seed it
    /// is identical at any worker count.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::new();
        snap.set("sim.steps", MetricValue::Counter(self.steps));
        snap.set("sim.events", MetricValue::Counter(self.events));
        snap.set(
            "sim.silent_steps",
            MetricValue::Counter(self.silent_steps()),
        );
        snap.set("sim.chunks", MetricValue::Counter(self.chunks));
        snap.set(
            "sim.chunk_steps",
            MetricValue::Histogram(self.chunk_steps.clone()),
        );
        snap.set("sim.fenwick_descents", MetricValue::Counter(self.descents));
        snap.set(
            "sim.fenwick_depth_sum",
            MetricValue::Counter(self.descent_depth_sum),
        );
        snap.set("sim.faults", MetricValue::Counter(self.faults));
        snap.set("sim.phase_switches", MetricValue::Counter(self.switches));
        snap
    }
}

impl Sink for CountingSink {
    const ENABLED: bool = true;

    #[inline]
    fn on_chunk(&mut self, steps: u64, events: u64) {
        self.steps += steps;
        self.events += events;
        self.chunks += 1;
        self.chunk_steps.record(steps);
    }

    #[inline]
    fn on_descent(&mut self, depth: u32) {
        self.descents += 1;
        self.descent_depth_sum += u64::from(depth);
    }

    #[inline]
    fn on_fault(&mut self) {
        self.faults += 1;
    }

    #[inline]
    fn on_phase_switch(&mut self) {
        self.switches += 1;
    }

    fn counts(&self) -> Option<&CountingSink> {
        Some(self)
    }
}

/// A mutable reference forwards to the underlying sink, so engines can
/// borrow a caller-owned sink instead of taking ownership.
impl<T: Sink> Sink for &mut T {
    const ENABLED: bool = T::ENABLED;

    #[inline(always)]
    fn on_chunk(&mut self, steps: u64, events: u64) {
        (**self).on_chunk(steps, events);
    }

    #[inline(always)]
    fn on_descent(&mut self, depth: u32) {
        (**self).on_descent(depth);
    }

    #[inline(always)]
    fn on_fault(&mut self) {
        (**self).on_fault();
    }

    #[inline(always)]
    fn on_phase_switch(&mut self) {
        (**self).on_phase_switch();
    }

    fn counts(&self) -> Option<&CountingSink> {
        (**self).counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_accumulates() {
        let mut a = CountingSink::new();
        a.on_chunk(100, 20);
        a.on_descent(7);
        a.on_fault();
        a.on_chunk(50, 5);
        a.on_phase_switch();
        assert_eq!(a.steps, 150);
        assert_eq!(a.events, 25);
        assert_eq!(a.silent_steps(), 125);
        assert_eq!(a.chunks, 2);
        assert_eq!(a.descents, 1);
        assert_eq!(a.descent_depth_sum, 7);
        assert_eq!(a.faults, 1);
        assert_eq!(a.switches, 1);
    }

    #[test]
    fn snapshot_has_all_sim_keys() {
        let mut sink = CountingSink::new();
        sink.on_chunk(10, 3);
        let snap = sink.snapshot();
        assert_eq!(snap.counter("sim.steps"), Some(10));
        assert_eq!(snap.counter("sim.events"), Some(3));
        assert_eq!(snap.counter("sim.silent_steps"), Some(7));
        assert_eq!(snap.histogram("sim.chunk_steps").unwrap().count, 1);
    }

    #[test]
    fn mut_ref_forwards() {
        fn drive<T: Sink>(mut sink: T) {
            sink.on_chunk(5, 1);
        }
        let mut sink = CountingSink::new();
        drive(&mut sink);
        assert_eq!(sink.steps, 5);
        let lent = &mut sink;
        assert_eq!(Sink::counts(&lent).map(|c| c.steps), Some(5));
        assert!(NoopSink.counts().is_none());
        const {
            assert!(<&mut CountingSink as Sink>::ENABLED);
            assert!(!<&mut NoopSink as Sink>::ENABLED);
        }
    }
}
