//! Wall-clock phase timing.
//!
//! [`Span`] is the one sanctioned way to measure elapsed wall time in the
//! workspace — the harness's per-trial timing and the store's per-cell
//! timing both go through it, so the `Instant` bookkeeping lives in exactly
//! one place. Span values are *wall-clock* telemetry: nondeterministic by
//! nature, and therefore kept out of the deterministic `sim.*` registries
//! (see the crate docs' determinism contract).

use std::time::{Duration, Instant};

use crate::metrics::HistogramSnapshot;

/// A started wall-clock timer.
///
/// # Example
///
/// ```
/// use avc_telemetry::Span;
/// let span = Span::start();
/// let ns = span.elapsed_ns();
/// let again = span.elapsed_ns();
/// assert!(again >= ns);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Span {
    started: Instant,
}

impl Span {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Span {
        Span {
            started: Instant::now(),
        }
    }

    /// Elapsed time since [`Span::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX` (584 years).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed whole milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ns() / 1_000_000
    }

    /// Records the elapsed nanoseconds into a histogram and returns them.
    pub fn record_into(&self, histogram: &mut HistogramSnapshot) -> u64 {
        let ns = self.elapsed_ns();
        histogram.record(ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_and_records() {
        let span = Span::start();
        std::thread::sleep(Duration::from_millis(2));
        let mut h = HistogramSnapshot::new();
        let ns = span.record_into(&mut h);
        assert!(ns >= 2_000_000, "slept 2ms but measured {ns}ns");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, ns);
    }
}
