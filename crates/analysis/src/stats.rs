//! Summary statistics and scaling-law fits.

use std::fmt;

/// Summary statistics of a sample.
///
/// A `Summary` retains its full sample, sorted into the IEEE 754 total
/// order, and computes every statistic as a pure function of that sorted
/// multiset. The parallel trial harness scatters each trial's outcome back
/// to its index, so a batch's summary is the same to the last bit under
/// every worker count.
///
/// # Example
///
/// ```
/// use avc_analysis::stats::Summary;
///
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.median, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// assert_eq!(Summary::from_samples(&[4.0, 2.0, 3.0, 1.0]), s);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n ≤ 1).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (mean of central pair for even sizes).
    pub median: f64,
    /// The sample itself, sorted by `f64::total_cmp`. The total order (not
    /// `partial_cmp`) keeps the representation canonical even for −0.0 vs
    /// 0.0, so equal multisets always have bit-identical layouts.
    samples: Vec<f64>,
}

impl Summary {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        assert!(samples.iter().all(|x| !x.is_nan()), "sample contains NaN");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
            samples: sorted,
        }
    }

    /// The retained sample, sorted ascending (IEEE 754 total order).
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The `q`-th quantile of the retained sample (linear interpolation, as
    /// [`quantile`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        quantile_of_sorted(&self.samples, q)
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        self.std_dev / (self.count as f64).sqrt()
    }

    /// A normal-approximation 95% confidence interval for the mean.
    ///
    /// Adequate for the experiment sample sizes in this repository
    /// (≥ 15 runs); for tiny samples prefer reporting the raw range.
    #[must_use]
    pub fn ci95(&self) -> (f64, f64) {
        let half = 1.96 * self.std_error();
        (self.mean - half, self.mean + half)
    }
}

/// The `q`-th quantile of a sample (linear interpolation between order
/// statistics, the default of most statistics packages).
///
/// # Panics
///
/// Panics if `samples` is empty, contains NaN, or `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use avc_analysis::stats::quantile;
/// let data = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(quantile(&data, 0.0), 1.0);
/// assert_eq!(quantile(&data, 0.5), 3.0);
/// assert_eq!(quantile(&data, 1.0), 5.0);
/// assert_eq!(quantile(&data, 0.25), 2.0);
/// ```
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "cannot take a quantile of nothing");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    assert!(samples.iter().all(|x| !x.is_nan()), "sample contains NaN");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_of_sorted(&sorted, q)
}

/// Shared quantile core over an already-sorted sample.
fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.4} ± {:.4} (n={}, median {:.4}, range [{:.4}, {:.4}])",
            self.mean,
            self.std_error(),
            self.count,
            self.median,
            self.min,
            self.max
        )
    }
}

/// Ordinary least-squares fit `y = slope·x + intercept`.
///
/// # Panics
///
/// Panics if the inputs differ in length, have fewer than two points, or
/// have zero variance in `x`.
///
/// # Example
///
/// ```
/// use avc_analysis::stats::linear_fit;
/// let (slope, intercept) = linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]);
/// assert!((slope - 2.0).abs() < 1e-12);
/// assert!((intercept - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    assert!(sxx > 0.0, "x has zero variance");
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

/// The log–log slope of `ys` against `xs` — the empirical scaling exponent
/// `α` in `y ≈ c·x^α`. Used to validate the paper's `Θ(1/ε)` and
/// `Θ(log n)` lower-bound shapes.
///
/// # Panics
///
/// Panics if any input is non-positive, or under the same conditions as
/// [`linear_fit`].
#[must_use]
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(
        xs.iter().chain(ys).all(|&v| v > 0.0),
        "log-log fit needs positive data"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    linear_fit(&lx, &ly).0
}

/// The fraction of `values` satisfying a predicate.
///
/// # Example
///
/// ```
/// use avc_analysis::stats::fraction;
/// assert_eq!(fraction(&[1, 2, 3, 4], |&x| x % 2 == 0), 0.5);
/// ```
pub fn fraction<T>(values: &[T], pred: impl Fn(&T) -> bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|v| pred(v)).count() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::from_samples(&[5.0; 7]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn summary_of_singleton() {
        let s = Summary::from_samples(&[3.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_median_even_size() {
        let s = Summary::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_std_dev_known_value() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        // Bessel-corrected variance of this classic sample is 32/7.
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        let _ = Summary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn loglog_slope_recovers_power_law() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(1.7)).collect();
        assert!((loglog_slope(&xs, &ys) - 1.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn loglog_rejects_nonpositive() {
        let _ = loglog_slope(&[1.0, 0.0], &[1.0, 2.0]);
    }

    #[test]
    fn fraction_counts() {
        assert_eq!(fraction::<u32>(&[], |_| true), 0.0);
        assert_eq!(fraction(&[1, 1, 2], |&x| x == 1), 2.0 / 3.0);
    }

    #[test]
    fn ci95_brackets_the_mean() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let (lo, hi) = s.ci95();
        assert!(lo < s.mean && s.mean < hi);
        assert!((hi - s.mean - 1.96 * s.std_error()).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&data, 0.5), 25.0);
        assert!((quantile(&data, 1.0 / 3.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn quantile_rejects_empty() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::from_samples(&[1.0, 2.0]);
        let text = s.to_string();
        assert!(text.contains("mean 1.5"));
        assert!(text.contains("n=2"));
    }

    #[test]
    fn summary_quantile_matches_free_function() {
        let data = [10.0, 20.0, 30.0, 40.0];
        let s = Summary::from_samples(&data);
        assert_eq!(s.quantile(0.5), quantile(&data, 0.5));
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
    }
}
