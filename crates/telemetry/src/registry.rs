//! Named metrics with deterministic ordering.
//!
//! A [`RegistrySnapshot`] is a `BTreeMap` of [`MetricValue`]s keyed by
//! metric name, so iteration (and therefore every export) is
//! deterministically ordered, and snapshots merge associatively and
//! commutatively like the analysis crate's `Summary` monoid.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::metrics::HistogramSnapshot;

/// The plain value of one metric at snapshot time.
///
/// The histogram variant inlines its fixed bucket array (~0.5 KiB); these
/// values live in snapshot maps, not hot paths, so the size skew is fine.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// A monotone count; merges by addition.
    Counter(u64),
    /// A level; merges by maximum.
    Gauge(u64),
    /// A log₂-bucket distribution; merges bucket-wise.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Folds `other` into `self` following each variant's merge law.
    ///
    /// # Panics
    ///
    /// Panics if the two values are different metric kinds under the same
    /// name — that is a programming error, not a data condition.
    pub fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            (mine, theirs) => {
                panic!("metric kind mismatch in merge: {mine:?} vs {theirs:?}")
            }
        }
    }

    /// The counter value, if this is a counter.
    #[must_use]
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value, if this is a gauge.
    #[must_use]
    pub fn as_gauge(&self) -> Option<u64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, if this is a histogram.
    #[must_use]
    pub fn as_histogram(&self) -> Option<&HistogramSnapshot> {
        match self {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// A deterministic, mergeable set of named metric values (sinks and
/// observers build these directly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl RegistrySnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> RegistrySnapshot {
        RegistrySnapshot::default()
    }

    /// Whether the snapshot holds no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Inserts or overwrites a metric value under `name`.
    pub fn set(&mut self, name: &str, value: MetricValue) {
        self.entries.insert(name.to_owned(), value);
    }

    /// The value under `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Shorthand for a counter's value under `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(MetricValue::as_counter)
    }

    /// Shorthand for a gauge's value under `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(MetricValue::as_gauge)
    }

    /// Shorthand for a histogram under `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.get(name).and_then(MetricValue::as_histogram)
    }

    /// Iterates `(name, value)` in name order — the order every exporter
    /// uses, which is what makes exports byte-stable.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another snapshot in. Metrics present in both merge by their
    /// kind's law (counters add, gauges max, histograms add buckets);
    /// metrics present in only one side are kept. Associative and
    /// commutative, so per-trial snapshots can fold in any grouping.
    ///
    /// # Panics
    ///
    /// Panics if the same name maps to different metric kinds.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, value) in &other.entries {
            match self.entries.entry(name.clone()) {
                Entry::Occupied(mut e) => e.get_mut().merge(value),
                Entry::Vacant(e) => {
                    e.insert(value.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_follows_kind_laws() {
        let mut a = RegistrySnapshot::new();
        a.set("c", MetricValue::Counter(10));
        a.set("g", MetricValue::Gauge(4));
        let mut h1 = HistogramSnapshot::new();
        h1.record(3);
        a.set("h", MetricValue::Histogram(h1));

        let mut b = RegistrySnapshot::new();
        b.set("c", MetricValue::Counter(5));
        b.set("g", MetricValue::Gauge(9));
        let mut h2 = HistogramSnapshot::new();
        h2.record(100);
        b.set("h", MetricValue::Histogram(h2));
        b.set("only_b", MetricValue::Counter(1));

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.counter("c"), Some(15));
        assert_eq!(ab.gauge("g"), Some(9));
        assert_eq!(ab.histogram("h").unwrap().count, 2);
        assert_eq!(ab.counter("only_b"), Some(1));

        // Commutativity.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn snapshot_iteration_is_name_ordered() {
        let mut snap = RegistrySnapshot::new();
        for name in ["zeta", "alpha", "mid"] {
            snap.set(name, MetricValue::Counter(0));
        }
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }
}
