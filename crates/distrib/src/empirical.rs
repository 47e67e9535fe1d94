//! Empirical distributions over observed samples.
//!
//! The paper's primary workload replays exact per-job task durations from
//! the Facebook trace ("we have exact durations of map and reduce tasks per
//! job", §5.1). [`Empirical`] is the replay vehicle: it wraps a sorted
//! sample set with a Hazen-interpolated ECDF so it can serve as a drop-in
//! [`ContinuousDist`] — simulable, invertible and with trustworthy moments.

use crate::traits::{ContinuousDist, DistError};

/// An interpolated empirical distribution built from raw samples.
///
/// The CDF uses Hazen plotting positions (`(i - 0.5) / n` at the `i`-th
/// order statistic) with linear interpolation between consecutive order
/// statistics, which makes the quantile function continuous and strictly
/// increasing wherever the data are distinct.
///
/// # Examples
///
/// ```
/// use cedar_distrib::{ContinuousDist, Empirical};
///
/// let e = Empirical::from_samples(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert!((e.mean() - 2.5).abs() < 1e-12);
/// assert!((e.cdf(e.quantile(0.4)) - 0.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    sorted: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Empirical {
    /// Builds an empirical distribution from samples.
    ///
    /// Requires at least two finite samples; the input need not be sorted.
    pub fn from_samples(mut samples: Vec<f64>) -> Result<Self, DistError> {
        if samples.len() < 2 {
            return Err(DistError::InvalidData(
                "empirical distribution needs at least two samples",
            ));
        }
        if samples.iter().any(|x| !x.is_finite()) {
            return Err(DistError::InvalidData(
                "empirical samples must all be finite",
            ));
        }
        samples.sort_by(f64::total_cmp);
        let mean = cedar_mathx::kahan::mean(&samples);
        let variance = cedar_mathx::kahan::sample_variance(&samples);
        Ok(Self {
            sorted: samples,
            mean,
            variance,
        })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Hazen plotting position of 0-indexed order statistic `i`.
    fn position(&self, i: usize) -> f64 {
        (i as f64 + 0.5) / self.sorted.len() as f64
    }
}

impl ContinuousDist for Empirical {
    fn pdf(&self, x: f64) -> f64 {
        // Finite-difference density over a window of +/- one order
        // statistic; adequate for plotting and goodness-of-fit use.
        let n = self.sorted.len();
        if x < self.min() || x > self.max() {
            return 0.0;
        }
        let h = (self.max() - self.min()) / (n as f64).sqrt();
        if h == 0.0 {
            return f64::INFINITY;
        }
        (self.cdf(x + 0.5 * h) - self.cdf(x - 0.5 * h)) / h
    }

    fn cdf(&self, x: f64) -> f64 {
        if x.is_nan() {
            // NaN compares false with every sample, so the
            // interpolation below would index before the first one.
            return f64::NAN;
        }
        if x < self.min() {
            return 0.0;
        }
        if x >= self.max() {
            return 1.0;
        }
        // partition_point gives the count of samples <= x.
        let idx = self.sorted.partition_point(|&s| s <= x);
        // Interpolate between the plotting positions of the neighbours.
        let (lo_i, hi_i) = (idx - 1, idx);
        let (lo_x, hi_x) = (self.sorted[lo_i], self.sorted[hi_i]);
        let lo_p = self.position(lo_i);
        let hi_p = self.position(hi_i);
        if hi_x == lo_x {
            return hi_p;
        }
        let frac = (x - lo_x) / (hi_x - lo_x);
        (lo_p + frac * (hi_p - lo_p)).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        let n = self.sorted.len() as f64;
        if p <= self.position(0) {
            return self.min();
        }
        if p >= self.position(self.sorted.len() - 1) {
            return self.max();
        }
        // Invert the Hazen positions: find i with pos(i) <= p < pos(i+1).
        let t = p * n - 0.5;
        let i = t.floor() as usize;
        let frac = t - i as f64;
        self.sorted[i] * (1.0 - frac) + self.sorted[i + 1] * frac
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn rejects_bad_input() {
        assert!(Empirical::from_samples(vec![]).is_err());
        assert!(Empirical::from_samples(vec![1.0]).is_err());
        assert!(Empirical::from_samples(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn sorts_input() {
        let e = Empirical::from_samples(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.samples(), &[1.0, 2.0, 3.0]);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 3.0);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn moments_match_sample_statistics() {
        let xs = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let e = Empirical::from_samples(xs.clone()).unwrap();
        assert!((e.mean() - 5.0).abs() < 1e-12);
        assert!((e.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let e = Empirical::from_samples(vec![0.5, 1.5, 1.5, 2.5, 10.0]).unwrap();
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.06;
            let c = e.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn quantile_cdf_round_trip_inside_support() {
        let mut rng = StdRng::seed_from_u64(9);
        let ln = crate::LogNormal::new(1.0, 0.8).unwrap();
        let e = Empirical::from_samples(ln.sample_vec(&mut rng, 2000)).unwrap();
        for i in 5..95 {
            let p = i as f64 / 100.0;
            assert!(
                (e.cdf(e.quantile(p)) - p).abs() < 1e-6,
                "p={p}, q={}, back={}",
                e.quantile(p),
                e.cdf(e.quantile(p))
            );
        }
    }

    #[test]
    fn approximates_parent_distribution() {
        let mut rng = StdRng::seed_from_u64(17);
        let ln = crate::LogNormal::new(2.0, 0.6).unwrap();
        let e = Empirical::from_samples(ln.sample_vec(&mut rng, 50_000)).unwrap();
        for &p in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let rel = (e.quantile(p) / ln.quantile(p) - 1.0).abs();
            assert!(rel < 0.05, "p={p}: rel error {rel}");
        }
    }

    #[test]
    fn handles_duplicate_samples() {
        let e = Empirical::from_samples(vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(e.quantile(0.5), 1.0);
        assert_eq!(e.cdf(1.0), 1.0);
        assert_eq!(e.cdf(0.999), 0.0);
    }
}
