//! Order statistics shared by the measurement, the trace summary and
//! `compare`.

/// The timing summary every per-layer latency reports: the median plus the
/// highest percentile that still has at least [`TAIL_BEYOND`] samples
/// beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median of the samples.
    pub p50: f64,
    /// The tail percentile's value.
    pub tail: f64,
    /// Which percentile `tail` is (`99.0`, `90.0`, …).
    pub tail_pct: f64,
    /// Number of samples.
    pub count: usize,
}

/// Samples a tail percentile must leave beyond it to count as measured.
const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles in permille, highest first (integers, so the
/// "samples beyond" count is exact).
const TAIL_LADDER: [usize; 5] = [999, 990, 900, 750, 500];

impl Timing {
    /// Summarizes `samples` (any order). Empty input gives NaN values.
    #[must_use]
    pub fn of(samples: &[f64]) -> Timing {
        let sorted = sorted(samples);
        let n = sorted.len();
        let permille = TAIL_LADDER
            .into_iter()
            .find(|&pm| n - rank(n, pm) >= TAIL_BEYOND)
            .unwrap_or(500);
        Timing {
            p50: median_sorted(&sorted),
            tail: match n {
                0 => f64::NAN,
                _ => sorted[rank(n, permille).max(1) - 1],
            },
            tail_pct: permille as f64 / 10.0,
            count: n,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest rank (1-based) of the `permille` percentile among `n`.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The median, as Python's `statistics.median` computes it (NaN when
/// empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    median_sorted(&sorted(samples))
}

/// First and third quartiles, as Python's `statistics.quantiles(data, n=4)`
/// computes them (the default `exclusive` method). `None` below two
/// samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(samples);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for tiny samples, as in Python: the cut extrapolates.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = Timing::of(&ramp(1000));
        assert_eq!((t.tail_pct, t.tail, t.count), (99.0, 990.0, 1000));
        assert_eq!(t.p50, 500.5);
        // 999 samples: p99 leaves 9.99, so the rule falls back to p90.
        assert_eq!(Timing::of(&ramp(999)).tail_pct, 90.0);
        // 100 samples: p90 leaves exactly 10.
        let t = Timing::of(&ramp(100));
        assert_eq!((t.tail_pct, t.tail), (90.0, 90.0));
        // 90 samples: only p75 leaves ten.
        assert_eq!(Timing::of(&ramp(90)).tail_pct, 75.0);
        // 10 000 samples reach p99.9.
        assert_eq!(Timing::of(&ramp(10_000)).tail_pct, 99.9);
        // Too few for any tail: the median stands in for it.
        let t = Timing::of(&ramp(7));
        assert_eq!((t.tail_pct, t.tail, t.p50), (50.0, 4.0, 4.0));
    }

    #[test]
    fn timing_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(Timing::of(&v), Timing::of(&ramp(200)));
        assert!(Timing::of(&[]).p50.is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
