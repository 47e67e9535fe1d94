//! The summariser: per-query outcomes in, end-to-end figures out.
//!
//! Every attempted query is either answered (with a latency and a
//! quality) or failed in one class. Failures count against the attempted
//! total, score quality 0, and sit above every answered latency in the
//! percentiles — a failed query misses every latency limit.

use std::collections::BTreeMap;
use std::fmt;

/// Why a query produced no answer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailClass {
    /// Refused by admission (`shed` response code).
    Shed,
    /// A typed error response, by its code.
    Error(String),
    /// Exceeded the server's or the generator's execution cap.
    Timeout,
    /// The connection failed (connect, write, read or early close).
    Transport,
}

impl fmt::Display for FailClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailClass::Shed => f.write_str("shed"),
            FailClass::Error(code) => write!(f, "error:{code}"),
            FailClass::Timeout => f.write_str("timeout"),
            FailClass::Transport => f.write_str("transport"),
        }
    }
}

/// A nearest-rank percentile with the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the rank (`+inf` when the rank lands on a failure,
    /// `NaN` with no samples).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p/100 * n)`, clamped to `1..=n`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

/// Median (nearest-rank p50) of unsorted samples; `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// Per-query outcomes of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    latencies_ms: Vec<f64>,
    quality_sum: f64,
    attempted: u64,
    failures: BTreeMap<FailClass, u64>,
}

impl Tally {
    /// Records an answered query.
    pub fn answered(&mut self, latency_ms: f64, quality: f64) {
        self.attempted += 1;
        self.latencies_ms.push(latency_ms);
        self.quality_sum += quality;
    }

    /// Records a failed query.
    pub fn failed(&mut self, class: FailClass) {
        self.attempted += 1;
        *self.failures.entry(class).or_default() += 1;
    }

    /// Folds another phase's (or client's) outcomes into this one.
    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.quality_sum += other.quality_sum;
        self.attempted += other.attempted;
        for (class, n) in other.failures {
            *self.failures.entry(class).or_default() += n;
        }
    }

    /// Queries attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Queries answered.
    pub fn answered_count(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Queries failed, all classes.
    pub fn failed_count(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Failure counts by class.
    pub fn failures(&self) -> &BTreeMap<FailClass, u64> {
        &self.failures
    }

    /// Mean quality over attempted queries (failures score 0).
    pub fn quality_mean(&self) -> f64 {
        if self.attempted == 0 {
            return f64::NAN;
        }
        self.quality_sum / self.attempted as f64
    }

    /// Latency percentile over attempted queries; failures rank above
    /// every answer as `+inf`.
    pub fn latency(&self, p: f64) -> Percentile {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.failed_count() as usize,
        ));
        nearest_rank(&sorted, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0).value, 5.0);
        assert_eq!(nearest_rank(&xs, 90.0).value, 9.0);
        assert_eq!(nearest_rank(&xs, 91.0).value, 10.0);
        assert_eq!(nearest_rank(&xs, 99.0).value, 10.0);
        assert_eq!(nearest_rank(&xs, 0.0).value, 1.0);
        let p = nearest_rank(&xs, 99.0);
        assert_eq!((p.samples, p.beyond), (10, 0));
        let p = nearest_rank(&xs, 50.0);
        assert_eq!((p.samples, p.beyond), (10, 5));
        assert!(nearest_rank(&[], 50.0).value.is_nan());
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0).value, 2.0);
    }

    #[test]
    fn failures_count_against_attempts_and_miss_every_limit() {
        let mut t = Tally::default();
        for i in 0..97 {
            t.answered(10.0 + f64::from(i), 0.5);
        }
        t.failed(FailClass::Shed);
        t.failed(FailClass::Error("internal".into()));
        t.failed(FailClass::Transport);
        assert_eq!(t.attempted(), 100);
        assert_eq!(t.failed_count(), 3);
        assert_eq!(t.answered_count(), 97);
        assert!((t.quality_mean() - 0.485).abs() < 1e-12);
        let p50 = t.latency(50.0);
        assert_eq!((p50.value, p50.samples, p50.beyond), (59.0, 100, 50));
        // Ranks 98..=100 are the failures: p99 lands on one.
        let p99 = t.latency(99.0);
        assert_eq!(
            (p99.value, p99.samples, p99.beyond),
            (f64::INFINITY, 100, 1)
        );
        assert_eq!(t.latency(97.0).value, 106.0);
    }

    #[test]
    fn merge_keeps_classes_apart() {
        let mut a = Tally::default();
        a.answered(1.0, 1.0);
        a.failed(FailClass::Timeout);
        let mut b = Tally::default();
        b.failed(FailClass::Timeout);
        b.failed(FailClass::Shed);
        a.merge(b);
        assert_eq!(a.attempted(), 4);
        assert_eq!(a.failures()[&FailClass::Timeout], 2);
        assert_eq!(a.failures()[&FailClass::Shed], 1);
        assert_eq!(a.quality_mean(), 0.25);
        assert_eq!(a.latency(50.0).value, f64::INFINITY);
    }
}
