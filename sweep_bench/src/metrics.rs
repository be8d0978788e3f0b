//! The metrics the benchmark reports: declarations (the single source for
//! names, units, directions and bounds) and their rendering.
//!
//! `BENCHMARK.json` at the repository root repeats these declarations; a unit
//! test holds the two equal.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Decl; 6] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("trials_per_s", "1/s", Higher, 0.25),
    e2e("steps_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("export_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [Decl; 31] = [
    layer("store.plan_build_ms", "ms", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("store.append_ms", "ms", Lower),
    layer("store.append_bytes", "bytes", Lower),
    layer("store.journal_ms", "ms", Lower),
    layer("store.export_ms", "ms", Lower),
    layer("store.sweep_outside_cells_ms", "ms", Lower),
    layer("harness.cell_ms_p50", "ms", Lower),
    layer("harness.trial_us_p50", "us", Lower),
    layer("harness.trial_us_tail", "us", Lower),
    layer("harness.construct_us_p50", "us", Lower),
    layer("harness.reset_us_p50", "us", Lower),
    layer("harness.batch_overhead_ms", "ms", Lower),
    layer("harness.worker_busy_frac", "ratio", Higher),
    layer("telemetry.merge_us_p50", "us", Lower),
    layer("telemetry.sink_overhead_frac", "ratio", Lower),
    layer("driver.chunks", "count", Lower),
    layer("driver.chunk_us_p50", "us", Lower),
    layer("driver.chunk_us_tail", "us", Lower),
    layer("engine.steps", "count", Lower),
    layer("engine.events", "count", Lower),
    layer("engine.productive_frac", "ratio", Higher),
    layer("engine.ns_per_step", "ns", Lower),
    layer("engine.ns_per_event", "ns", Lower),
    layer("engine.phase_switches", "count", Lower),
    layer("cached.table_build_ms", "ms", Lower),
    layer("cached.table_mb_max", "MB", Lower),
    layer("cached.arithmetic_cells", "count", Lower),
    layer("protocols.transition_ns", "ns", Lower),
    layer("machine.ref_ns_per_op", "ns", Lower),
    layer("trace.sweep_wall_s", "s", Lower),
];

/// Looks a declaration up by name across both lists.
#[must_use]
pub fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Measured values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Checks that `values` holds exactly the declared metrics, each finite.
///
/// # Errors
///
/// Names missing, undeclared, or with a non-finite value.
pub fn check(decls: &[Decl], values: &Values) -> Result<(), String> {
    let mut problems = Vec::new();
    for d in decls {
        match values.get(d.name) {
            None => problems.push(format!("{} was not measured", d.name)),
            Some(v) if !v.is_finite() => problems.push(format!("{} is {v}", d.name)),
            Some(_) => {}
        }
    }
    for name in values.keys() {
        if !decls.iter().any(|d| d.name == *name) {
            problems.push(format!("{name} is not declared"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// The `"metrics"` object of a result line, in declaration order.
#[must_use]
pub fn to_json(decls: &[Decl], values: &Values) -> String {
    let fields: Vec<String> = decls
        .iter()
        .filter_map(|d| {
            let v = values.get(d.name)?;
            Some(format!(
                "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                d.name, d.unit
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::Workload;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn ours(decls: &[Decl]) -> Vec<(String, String, String, Option<f64>)> {
        decls
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_bench_emits() {
        let doc = json::parse(MANIFEST).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn emitted_values_must_match_the_declarations() {
        let full: Values = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        assert!(check(&END_TO_END, &full).is_ok());
        let json = to_json(&END_TO_END, &full);
        assert!(json.starts_with("{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(json::parse(&json).is_ok());

        let mut missing = full.clone();
        missing.remove("setup_s");
        assert!(check(&END_TO_END, &missing)
            .unwrap_err()
            .contains("setup_s"));
        let mut extra = full.clone();
        extra.insert("bogus", 1.0);
        assert!(check(&END_TO_END, &extra).unwrap_err().contains("bogus"));
        let mut nan = full;
        nan.insert("wall_s", f64::NAN);
        assert!(check(&END_TO_END, &nan).is_err());
        assert_eq!(decl("store.open_ms").map(|d| d.unit), Some("ms"));
    }
}
