//! `sweep_bench compare`: the benchmark's acceptance rules applied to two
//! sets of `run` reports, one verdict per (workload, end-to-end metric).
//!
//! * **improved** — at least [`MIN_PAIRS`] pairs, the change wins at least
//!   nine tenths of them (ties count for neither side), and the medians
//!   differ by more than the parent's interquartile range;
//! * **regressed** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **unresolved** — the parent's own spread (IQR over median) exceeds the
//!   bound, unless every change run beats every parent run;
//! * **within bound** — anything else.
//!
//! Pairs are the i-th parent report with the i-th change report, in the
//! order given; alternate which side runs first when producing them. The
//! exit status is 1 on any regression and 3 on any unresolved pair, so a
//! gate on the status never reads "unresolved" as "unchanged".

use crate::json::{self, Value};
use crate::metrics::{Better, Decl, END_TO_END};
use crate::stats;
use crate::workload::Workload;
use avc_analysis::table::fmt_num;
use std::fmt;

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain, by the rule above.
    Improved,
    /// No gain claimed and no regression beyond the bound.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Applies the rules to one metric's parent and change samples.
///
/// # Panics
///
/// Panics on a declaration without a bound (per-layer metrics have none)
/// or on empty samples.
#[must_use]
pub fn judge(decl: &Decl, parent: &[f64], change: &[f64]) -> Verdict {
    let bound = decl.bound.expect("end-to-end metrics carry a bound");
    assert!(!parent.is_empty() && !change.is_empty(), "no samples");
    // `gain(a, b)` > 0 when `b` is better than `a`.
    let gain = |a: f64, b: f64| match decl.better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    let (p_med, c_med) = (stats::median(parent), stats::median(change));
    let p_iqr = stats::quartiles(parent).map_or(0.0, |(q1, q3)| q3 - q1);
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    if p_iqr / p_med.abs() > bound && !all_better {
        return Verdict::Unresolved;
    }
    if -gain(p_med, c_med) / p_med.abs() > bound {
        return Verdict::Regressed;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| gain(p, c) > 0.0)
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain(p_med, c_med) > p_iqr {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Reads a `run` report: `workloads.<name>.metrics.<metric>.value`.
fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(reports: &[Value], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    reports
        .iter()
        .map(|r| {
            r.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("metrics"))
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("a report lacks {workload}/{metric}"))
        })
        .collect()
}

fn spread(samples: &[f64]) -> String {
    match stats::quartiles(samples) {
        Some((q1, q3)) => format!("IQR {}–{}", fmt_num(q1), fmt_num(q3)),
        None => "IQR n/a".to_string(),
    }
}

/// The exit status of a comparison: 1 when any pair regressed, 3 when none
/// did but some pair could not be judged, 0 otherwise.
#[must_use]
pub fn exit_status(verdicts: &[Verdict]) -> u8 {
    if verdicts.contains(&Verdict::Regressed) {
        1
    } else if verdicts.contains(&Verdict::Unresolved) {
        3
    } else {
        0
    }
}

/// Compares comma-separated parent and change report lists, prints one
/// line per (workload, metric) and returns the [`exit_status`].
///
/// # Errors
///
/// Unreadable or incomplete reports.
pub fn main(parent: &str, change: &str) -> Result<u8, String> {
    let load_all = |list: &str| list.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let (parents, changes) = (load_all(parent)?, load_all(change)?);
    let mut verdicts = Vec::new();
    for workload in Workload::ALL {
        for decl in &END_TO_END {
            let p = values(&parents, workload.name(), decl.name)?;
            let c = values(&changes, workload.name(), decl.name)?;
            let verdict = judge(decl, &p, &c);
            verdicts.push(verdict);
            let (p_med, c_med) = (stats::median(&p), stats::median(&c));
            println!(
                "{:<18} {:<13} parent {base} {unit} ({}, n={}) -> change {} {unit} ({}, n={}); \
                 ratio {:.4} of base {base} {unit}; bound {:.0}%: {verdict}",
                workload.name(),
                decl.name,
                spread(&p),
                p.len(),
                fmt_num(c_med),
                spread(&c),
                c.len(),
                c_med / p_med,
                decl.bound.unwrap_or(0.0) * 100.0,
                base = fmt_num(p_med),
                unit = decl.unit,
            );
        }
    }
    Ok(exit_status(&verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: Decl = END_TO_END[0];
    const RATE: Decl = END_TO_END[1];

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| center * (1.0 + 0.001 * i as f64)).collect()
    }

    #[test]
    fn a_clear_gain_over_ten_pairs_is_improved() {
        assert_eq!(
            judge(&WALL, &around(10.0, 10), &around(9.0, 10)),
            Verdict::Improved
        );
        assert_eq!(
            judge(&RATE, &around(9.0, 10), &around(10.0, 10)),
            Verdict::Improved
        );
        // The same gain on too few pairs is not a claim.
        assert_eq!(
            judge(&WALL, &around(10.0, 9), &around(9.0, 9)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed() {
        assert_eq!(
            judge(&WALL, &around(10.0, 5), &around(13.0, 5)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&WALL, &around(10.0, 5), &around(12.0, 5)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&RATE, &around(10.0, 5), &around(7.0, 5)),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr() {
        let parent = around(10.0, 10);
        // Two losing pairs out of ten: not enough wins.
        let mut change = around(9.0, 10);
        change[0] = 11.0;
        change[1] = 11.0;
        assert_eq!(judge(&WALL, &parent, &change), Verdict::WithinBound);
        // Wins everywhere but by less than the parent's IQR.
        let wide: Vec<f64> = (0..10).map(|i| 10.0 + 0.05 * i as f64).collect();
        let nudged: Vec<f64> = wide.iter().map(|w| w - 0.01).collect();
        assert_eq!(judge(&WALL, &wide, &nudged), Verdict::WithinBound);
    }

    #[test]
    fn a_parent_spread_beyond_the_bound_is_unresolved_unless_separated() {
        let noisy = [8.0, 12.0, 8.0, 12.0, 10.0];
        assert_eq!(judge(&WALL, &noisy, &[10.0, 10.0]), Verdict::Unresolved);
        assert_eq!(judge(&WALL, &noisy, &[7.0, 7.5]), Verdict::WithinBound);
        // An unresolved pair is not a pass, and a regression outranks it.
        use Verdict::{Improved, Regressed, Unresolved, WithinBound};
        assert_eq!(exit_status(&[Improved, WithinBound]), 0);
        assert_eq!(exit_status(&[WithinBound, Unresolved]), 3);
        assert_eq!(exit_status(&[Unresolved, Regressed]), 1);
    }
}
