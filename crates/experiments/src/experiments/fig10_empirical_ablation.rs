//! Fig. 10 — learning ablation on the deployment runtime: Cedar vs
//! "Cedar with empirical estimates" (same wait optimization, biased
//! estimator) vs Proportional-split.
//!
//! Paper: order-statistics learning gives Cedar 30–70% higher response
//! quality than the empirical-estimates variant.

use crate::experiments::rtharness::{default_scale, mean_quality, run_workload_runtime};
use crate::harness::{fpct, fq, Opts, Table};
use cedar_core::policy::{EstimatorKind, WaitPolicyKind};
use cedar_estimate::Model;
use cedar_workloads::production::facebook_mr;

/// Deadlines for the ablation (model seconds).
pub const DEADLINES: [f64; 3] = [500.0, 1000.0, 2000.0];

/// Measured qualities at one deadline.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Deadline (s).
    pub deadline: f64,
    /// Proportional-split quality.
    pub baseline: f64,
    /// Cedar with the biased empirical estimator.
    pub cedar_empirical: f64,
    /// Full Cedar (order statistics).
    pub cedar: f64,
}

/// Runs the ablation.
pub fn measure(opts: &Opts) -> Vec<Row> {
    let w = facebook_mr(20, 16);
    let trials = opts.trials_capped(4).min(40);
    let concurrency = std::thread::available_parallelism().map_or(8, |n| n.get() * 2);
    let run = |d: f64, kind: WaitPolicyKind| {
        mean_quality(&run_workload_runtime(
            &w,
            d,
            default_scale(),
            kind,
            Model::LogNormal,
            trials,
            opts.seed,
            concurrency,
        ))
    };
    DEADLINES
        .iter()
        .map(|&d| Row {
            deadline: d,
            baseline: run(d, WaitPolicyKind::ProportionalSplit),
            cedar_empirical: run(d, WaitPolicyKind::cedar_with(EstimatorKind::Empirical)),
            cedar: run(d, WaitPolicyKind::Cedar),
        })
        .collect()
}

/// Runs the experiment.
pub fn run(opts: &Opts) -> Table {
    let rows = measure(opts);
    let mut t = Table::new(
        "Fig 10: Cedar vs Cedar-with-empirical-estimates vs Prop-split (deployment runtime)",
        &[
            "deadline (s)",
            "prop-split",
            "cedar (empirical)",
            "cedar",
            "cedar vs empirical",
        ],
    );
    for r in &rows {
        t.row(vec![
            format!("{:.0}", r.deadline),
            fq(r.baseline),
            fq(r.cedar_empirical),
            fq(r.cedar),
            fpct(100.0 * (r.cedar - r.cedar_empirical) / r.cedar_empirical.max(1e-9)),
        ]);
    }
    t.note("paper: Cedar's order-statistics learning is 30-70% better than empirical estimates");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cedar_not_worse_than_empirical_variant() {
        let rows = measure(&Opts {
            trials: 3,
            seed: 6,
            quick: true,
        });
        let c: f64 = rows.iter().map(|r| r.cedar).sum();
        let e: f64 = rows.iter().map(|r| r.cedar_empirical).sum();
        assert!(c >= e - 0.15, "cedar {c} vs empirical {e}");
    }
}
