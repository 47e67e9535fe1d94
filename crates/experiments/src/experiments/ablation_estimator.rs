//! Estimator ablation (design-choice study from DESIGN.md): the same
//! Cedar wait optimization driven by four estimators —
//!
//! - the default least-squares order-statistics regression,
//! - the paper's literal pairwise averaging,
//! - the biased empirical moments (Fig. 10's baseline),
//! - the exact Type-II censored MLE (the "too expensive" alternative).
//!
//! Measured on the FacebookMR workload at a mid-range deadline; the
//! question is how much end-to-end quality each learning scheme buys.

use crate::harness::{fpct, fq, par_map, Opts, Table};
use cedar_core::policy::{EstimatorKind, WaitPolicyKind};
use cedar_sim::{mean_quality, run_workload, SimConfig};
use cedar_workloads::production::facebook_mr;

/// Deadline used by the ablation (seconds).
pub const DEADLINE: f64 = 1000.0;

/// One estimator's end-to-end result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Display name.
    pub name: &'static str,
    /// Mean quality.
    pub quality: f64,
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
    let variants: Vec<(&'static str, WaitPolicyKind)> = vec![
        (
            "order-stats regression",
            WaitPolicyKind::cedar_with(EstimatorKind::OrderStats),
        ),
        (
            "pairwise (paper text)",
            WaitPolicyKind::cedar_with(EstimatorKind::PairwiseOrderStats),
        ),
        (
            "empirical (biased)",
            WaitPolicyKind::cedar_with(EstimatorKind::Empirical),
        ),
        (
            "censored MLE (exact)",
            WaitPolicyKind::cedar_with(EstimatorKind::CensoredMle),
        ),
    ];
    let rows = par_map(variants, |&(name, kind)| Row {
        name,
        quality: mean_quality(&run_workload(&w, &cfg, kind, trials)),
    });
    (baseline, rows)
}

/// Runs the experiment.
pub fn run(opts: &Opts) -> Table {
    let (baseline, rows) = measure(opts);
    let mut t = Table::new(
        "Ablation: Cedar's wait optimization under different online estimators (D=1000s)",
        &["estimator", "quality", "vs prop-split"],
    );
    t.row(vec![
        "(prop-split baseline)".into(),
        fq(baseline),
        "-".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.name.into(),
            fq(r.quality),
            fpct(100.0 * (r.quality - baseline) / baseline.max(1e-9)),
        ]);
    }
    t.note("order-stats variants should cluster together above the empirical one; the exact MLE buys little over the regression at ~10x the estimate cost");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_stats_variants_beat_empirical() {
        let (_, rows) = measure(&Opts {
            trials: 10,
            seed: 31,
            quick: true,
        });
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.name.contains(name))
                .expect("variant present")
                .quality
        };
        let regression = get("regression");
        let empirical = get("empirical");
        assert!(
            regression >= empirical - 0.02,
            "regression {regression} vs empirical {empirical}"
        );
        let mle = get("censored");
        assert!(
            (mle - regression).abs() < 0.08,
            "censored MLE {mle} far from regression {regression}"
        );
    }
}
