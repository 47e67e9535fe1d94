//! Re-optimization cadence ablation: Pseudocode 1 re-runs `CALCULATEWAIT`
//! on *every* arrival. How much of the quality survives if an aggregator
//! re-optimizes less often (cheaper CPU per query)?
//!
//! Sweeps `(min_samples, every)` from the paper's every-arrival setting
//! down to a single re-optimization, on the FacebookMR workload.

use crate::harness::{fpct, fq, par_map, Opts, Table};
use cedar_core::policy::{EstimatorKind, WaitPolicyKind};
use cedar_sim::{mean_quality, run_workload, SimConfig};
use cedar_workloads::production::facebook_mr;

/// Deadline used by the ablation (seconds).
pub const DEADLINE: f64 = 1000.0;

/// The swept cadences: (min_samples, every, label).
pub const CADENCES: [(usize, usize, &str); 5] = [
    (3, 1, "every arrival (paper)"),
    (3, 5, "every 5th arrival"),
    (3, 10, "every 10th arrival"),
    (10, 1, "from 10th, then every"),
    (10, 50, "once at 10th arrival"),
];

/// One cadence's result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Cadence label.
    pub label: &'static str,
    /// Mean quality.
    pub quality: f64,
    /// Upper bound on `CALCULATEWAIT` invocations per aggregator per
    /// query (fan-out 50).
    pub scans_per_query: usize,
}

/// Runs the ablation.
pub fn measure(opts: &Opts) -> (f64, Vec<Row>) {
    let w = facebook_mr(50, 50);
    let trials = opts.trials_capped(6);
    let cfg = SimConfig::new(w.priors.clone(), DEADLINE)
        .with_seed(opts.seed)
        .with_scan_steps(200);
    let baseline = mean_quality(&run_workload(
        &w,
        &cfg,
        WaitPolicyKind::ProportionalSplit,
        trials,
    ));
    let rows = par_map(CADENCES.to_vec(), |&(min_samples, every, label)| {
        let kind = WaitPolicyKind::CedarCustom {
            estimator: EstimatorKind::OrderStats,
            min_samples,
            every,
        };
        Row {
            label,
            quality: mean_quality(&run_workload(&w, &cfg, kind, trials)),
            scans_per_query: 1 + (50usize.saturating_sub(min_samples)) / every,
        }
    });
    (baseline, rows)
}

/// Runs the experiment.
pub fn run(opts: &Opts) -> Table {
    let (baseline, rows) = measure(opts);
    let mut t = Table::new(
        "Ablation: Cedar re-optimization cadence (FacebookMR, D=1000s, k=50)",
        &["cadence", "scans/aggregator", "quality", "vs prop-split"],
    );
    t.row(vec![
        "(prop-split baseline)".into(),
        "0".into(),
        fq(baseline),
        "-".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.label.into(),
            r.scans_per_query.to_string(),
            fq(r.quality),
            fpct(100.0 * (r.quality - baseline) / baseline.max(1e-9)),
        ]);
    }
    t.note("most of Cedar's gain survives sparse re-optimization — the scan budget is a knob, not a cliff");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_cadence_retains_most_of_the_gain() {
        let (baseline, rows) = measure(&Opts {
            trials: 10,
            seed: 41,
            quick: true,
        });
        let every = rows[0].quality;
        let sparse = rows[2].quality; // every 10th arrival
        let full_gain = every - baseline;
        let sparse_gain = sparse - baseline;
        assert!(full_gain > 0.0, "no gain to ablate");
        assert!(
            sparse_gain > 0.5 * full_gain,
            "sparse cadence lost too much: {sparse_gain} of {full_gain}"
        );
    }
}
