//! Statistics helpers for experiment output: summaries and CDFs.
//!
//! Every figure in the paper is either a CDF (Fig. 1c), a rate curve
//! (Fig. 1a/1b), or a bar chart (Fig. 5); these types carry the sample sets
//! and render the series the benchmark harness prints.

use std::fmt;

/// Five-number-style summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set. Returns `None` for an empty set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let sum: f64 = sorted.iter().sum();
        Some(Summary {
            count: sorted.len(),
            mean: sum / sorted.len() as f64,
            min: sorted[0],
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p99: percentile_sorted(&sorted, 0.99),
            #[expect(clippy::expect_used, reason = "the empty case returned None above")]
            max: *sorted.last().expect("nonempty"),
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} min={:.4} p50={:.4} p90={:.4} p99={:.4} max={:.4}",
            self.count, self.mean, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// Nearest-rank-with-interpolation percentile over a pre-sorted slice.
///
/// `q` is in `[0, 1]`. Uses linear interpolation between closest ranks, the
/// same convention as numpy's default.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    // pos is in [0, len-1], so floor/ceil fit in usize by construction.
    #[allow(clippy::cast_possible_truncation)]
    let lo = pos.floor() as usize;
    #[allow(clippy::cast_possible_truncation)]
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical cumulative distribution function over a sample set.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from samples. NaN samples are rejected.
    ///
    /// # Panics
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(sorted.iter().all(|x| !x.is_nan()), "NaN sample in CDF");
        sorted.sort_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (inverse CDF), `q` in `[0, 1]`.
    ///
    /// # Panics
    /// Panics on an empty CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q)
    }

    /// Render the CDF as `points` evenly spaced (quantile, value) pairs,
    /// suitable for plotting. Includes both endpoints.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least both endpoints");
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                (q, self.quantile(q))
            })
            .collect()
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_set() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("nonempty");
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn cdf_fraction_and_quantile_are_inverses() {
        let cdf = Cdf::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(cdf.fraction_at_most(50.0), 0.5);
        assert_eq!(cdf.fraction_at_most(0.0), 0.0);
        assert_eq!(cdf.fraction_at_most(100.0), 1.0);
        assert!((cdf.quantile(0.5) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_series_endpoints() {
        let cdf = Cdf::from_samples([3.0, 1.0, 2.0]);
        let series = cdf.series(3);
        assert_eq!(series[0], (0.0, 1.0));
        assert_eq!(series[2], (1.0, 3.0));
    }
}
