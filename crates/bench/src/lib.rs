//! Criterion benchmarks for the Cedar reproduction.
//!
//! The paper's only explicit performance claim is that Cedar's
//! `CALCULATEWAIT` "completes within tens of milliseconds even without
//! the parallelization proposed in §4.3.3" — the `calculate_wait` bench
//! verifies our implementation sits comfortably inside that budget.
//! The other benches track the costs that gate experiment throughput:
//! estimator updates, quality-profile construction, full simulated
//! queries, and distribution primitives.
//!
//! Run with `cargo bench --workspace`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use cedar_core::{
    AggregatorState, PolicyContext, QualityProfile, StageSpec, TreeSpec, WaitPolicyKind,
};
use cedar_distrib::{ContinuousDist, LogNormal};
use cedar_estimate::Model;
use std::sync::{Arc, OnceLock};

/// The Facebook-style two-level tree used across benches.
pub fn bench_tree(k1: usize, k2: usize) -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(6.5, 0.84).expect("valid"), k1),
        StageSpec::new(LogNormal::new(4.0, 1.2).expect("valid"), k2),
    )
}

/// A started Cedar aggregator over a 500-way fan-out (FB-like stages,
/// `D` = 1000, 300 scan steps), and its inputs' arrival times in order:
/// the population quantiles of the lower stage. Every arrival from the
/// third on re-estimates and re-scans; the first such arrival builds the
/// context's memoized grid.
pub fn cedar_aggregator() -> (AggregatorState, Vec<f64>) {
    const FANOUT: usize = 500;
    let deadline = 1000.0;
    let lower = LogNormal::new(2.77, 0.84).expect("valid");
    let upper = LogNormal::new(2.94, 0.55).expect("valid");
    let ctx = PolicyContext {
        deadline,
        fanout: FANOUT,
        upper: Arc::new(QualityProfile::single(&upper, deadline, 512)),
        prior_lower: Arc::new(lower),
        true_lower: None,
        mean_below: lower.mean(),
        mean_total: lower.mean() + upper.mean(),
        level: 1,
        levels_total: 2,
        scan_steps: 300,
        qup_grid: OnceLock::new(),
        prior_wait: OnceLock::new(),
    };
    let mut agg = AggregatorState::new(
        WaitPolicyKind::Cedar.instantiate(FANOUT, Model::LogNormal),
        ctx,
    );
    agg.start();
    let arrivals = (0..FANOUT)
        .map(|i| lower.quantile((i as f64 + 0.5) / FANOUT as f64))
        .collect();
    (agg, arrivals)
}
