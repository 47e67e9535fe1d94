//! Before/after latency of the per-arrival wait-duration scan.
//!
//! Three variants at the same ε-resolution:
//!
//! - `scalar_prechange` — the pre-batching path reproduced faithfully:
//!   one virtual `cdf` call per ε-step routed through the incomplete-gamma
//!   `erf` (the only erf the crate had before the Cody kernels), and the
//!   upstream quality closure evaluated per step.
//! - `batched` — `calculate_wait`: the grid, its logs and the quality
//!   closure evaluated per call, then one batched CDF call over the whole
//!   grid (Cody fixed-degree kernels).
//! - `batched_memo_grid` — `calculate_wait_with_grid`: batched CDF plus
//!   the memoized `QupGrid` (grid, logs, upstream quality), i.e. what
//!   every arrival after the first pays inside the runtime. `batched`
//!   should stay ≥ 2× faster than `scalar_prechange` at 500 steps.

use cedar_core::wait::{calculate_wait, calculate_wait_scalar, calculate_wait_with_grid, QupGrid};
use cedar_distrib::{ContinuousDist, DistError, LogNormal};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::RngCore;
use std::hint::black_box;

/// A log-normal whose CDF goes through the iterative incomplete-gamma
/// `erf` — the implementation every distribution used before this PR —
/// and which inherits the default (scalar-fallback) `cdf_batch`.
#[derive(Debug)]
struct PreChangeLogNormal {
    mu: f64,
    sigma: f64,
    modern: LogNormal,
}

impl PreChangeLogNormal {
    fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        Ok(Self {
            mu,
            sigma,
            modern: LogNormal::new(mu, sigma)?,
        })
    }
}

impl ContinuousDist for PreChangeLogNormal {
    fn pdf(&self, x: f64) -> f64 {
        self.modern.pdf(x)
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        cedar_mathx::special::norm_cdf((x.ln() - self.mu) / self.sigma)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.modern.quantile(p)
    }
    fn mean(&self) -> f64 {
        self.modern.mean()
    }
    fn variance(&self) -> f64 {
        self.modern.variance()
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.modern.sample(rng)
    }
}

fn bench_wait_scan(c: &mut Criterion) {
    let x1_old = PreChangeLogNormal::new(6.5, 0.84).unwrap();
    let x1_new = LogNormal::new(6.5, 0.84).unwrap();
    let x2_old = PreChangeLogNormal::new(4.0, 1.2).unwrap();
    let x2_new = LogNormal::new(4.0, 1.2).unwrap();
    let deadline = 1000.0;

    let mut group = c.benchmark_group("wait_scan");
    // 500 steps is the resolution the 2× bar above is judged at;
    // 1000/5000 track scaling.
    for &steps in &[500usize, 1000, 5000] {
        let eps = deadline / steps as f64;
        group.bench_with_input(
            BenchmarkId::new("scalar_prechange", steps),
            &steps,
            |b, _| {
                b.iter(|| {
                    calculate_wait_scalar(
                        black_box(deadline),
                        &x1_old,
                        50,
                        |rem| if rem <= 0.0 { 0.0 } else { x2_old.cdf(rem) },
                        eps,
                    )
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("batched", steps), &steps, |b, _| {
            b.iter(|| {
                calculate_wait(
                    black_box(deadline),
                    &x1_new,
                    50,
                    |rem| if rem <= 0.0 { 0.0 } else { x2_new.cdf(rem) },
                    eps,
                )
            });
        });
        group.bench_with_input(
            BenchmarkId::new("batched_memo_grid", steps),
            &steps,
            |b, _| {
                let grid = QupGrid::build(deadline, eps, |rem| {
                    if rem <= 0.0 {
                        0.0
                    } else {
                        x2_new.cdf(rem)
                    }
                });
                b.iter(|| calculate_wait_with_grid(black_box(&x1_new), 50, &grid));
            },
        );
        // The same hot path as the runtime runs it with metrics
        // attached: a wall-clock read before the scan and a lock-free
        // histogram record after. The enabled-but-idle telemetry budget
        // is < 2% over `batched_memo_grid`.
        group.bench_with_input(
            BenchmarkId::new("batched_memo_grid_telemetry", steps),
            &steps,
            |b, _| {
                let grid = QupGrid::build(deadline, eps, |rem| {
                    if rem <= 0.0 {
                        0.0
                    } else {
                        x2_new.cdf(rem)
                    }
                });
                let hist = cedar_telemetry::Registry::new()
                    .histogram("bench_wait_scan_seconds", "scan latency");
                b.iter(|| {
                    let t0 = std::time::Instant::now();
                    let w = calculate_wait_with_grid(black_box(&x1_new), 50, &grid);
                    hist.record(t0.elapsed().as_secs_f64());
                    w
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_wait_scan);
criterion_main!(benches);
