//! `CALCULATEWAIT` (Pseudocode 2): selecting the optimal wait duration.
//!
//! The expected quality as a function of the wait duration has no closed
//! form, so the paper scans the interval `[0, D]` in increments of `ε`,
//! accumulating the net quality change (gain − loss) and keeping the
//! argmax. The accumulated value at the optimum *is* the maximum expected
//! quality `q_n(D)`, which is what makes the recursion of §4.3.2 work.

use crate::quality::{quality_gain, quality_loss};
use cedar_distrib::ContinuousDist;
use cedar_mathx::KahanSum;
use std::cell::RefCell;

/// Reusable per-thread buffers for the scan: the batched lower-stage CDF
/// values, each step's net quality change, and (for the closure-driven
/// entry point) a grid refilled per call. Sized on first use and reused,
/// so steady-state scans allocate nothing.
struct Scratch {
    grid: QupGrid,
    fs: Vec<f64>,
    net: Vec<f64>,
}

impl Scratch {
    const fn new() -> Self {
        Self {
            grid: QupGrid::EMPTY,
            fs: Vec::new(),
            net: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Runs `f` with the thread-local scratch, falling back to a fresh
/// (allocating) scratch if the thread-local one is already borrowed —
/// which can only happen if a `q_up` closure re-enters the scan.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::new()),
    })
}

/// Number of scan steps for a given deadline and step size; shared by
/// every entry point so grids and scans always agree on the grid shape.
fn scan_steps(deadline: f64, epsilon: f64) -> usize {
    ((deadline / epsilon).ceil() as usize).max(1)
}

/// Everything a scan reads that does not depend on the lower-stage
/// estimate: the ε-grid, its logarithms and the upstream quality
/// function `q_{n-1}` pre-evaluated on it.
///
/// A Cedar aggregator re-runs the wait scan on *every* downstream arrival,
/// and within one query (and across concurrent queries sharing a priors
/// epoch and deadline) the upstream quality function does not change —
/// only the lower-stage estimate does. Building this table once and
/// passing it to [`calculate_wait_with_grid`] removes the per-arrival
/// `q_up` evaluations (an interpolation-table walk per ε-step), grid
/// fills and `ln t` evaluations entirely.
///
/// The grid stores `q_up(deadline - t_next)` for each step's departure
/// candidate `t_next`, plus the initial value `q_up(deadline)`, all
/// clamped to `[0, 1]` exactly as the scalar scan does — so a grid-driven
/// scan is *bit-identical* to the closure-driven scan it replaces.
#[derive(Debug, Clone)]
pub struct QupGrid {
    deadline: f64,
    epsilon: f64,
    /// `q_up(deadline)`, the quality of departing immediately.
    q0: f64,
    /// `q_up(deadline - t_next_i)` for step `i`.
    values: Vec<f64>,
    /// Step `i`'s departure candidate `t_next_i = (i + 1) * epsilon`,
    /// clamped to the deadline.
    ts: Vec<f64>,
    /// `ln t_next_i`, handed to [`ContinuousDist::cdf_batch_ln`].
    ln_ts: Vec<f64>,
}

impl QupGrid {
    const EMPTY: Self = Self {
        deadline: 0.0,
        epsilon: 0.0,
        q0: 0.0,
        values: Vec::new(),
        ts: Vec::new(),
        ln_ts: Vec::new(),
    };

    /// Evaluates `q_up` over the scan grid for `(deadline, epsilon)`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not strictly positive or `deadline <= 0`.
    pub fn build<Q>(deadline: f64, epsilon: f64, q_up: Q) -> Self
    where
        Q: Fn(f64) -> f64,
    {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(deadline > 0.0, "deadline must be positive");
        let mut grid = Self::EMPTY;
        grid.fill(deadline, epsilon, q_up);
        grid
    }

    /// Rebuilds the grid in place for `(deadline, epsilon)`, reusing the
    /// buffers' capacity.
    fn fill<Q>(&mut self, deadline: f64, epsilon: f64, q_up: Q)
    where
        Q: Fn(f64) -> f64,
    {
        let steps = scan_steps(deadline, epsilon);
        self.deadline = deadline;
        self.epsilon = epsilon;
        self.q0 = q_up(deadline).clamp(0.0, 1.0);
        self.ts.clear();
        self.ts
            .extend((0..steps).map(|i| (i as f64 * epsilon + epsilon).min(deadline)));
        self.ln_ts.clear();
        self.ln_ts.extend(self.ts.iter().map(|t| t.ln()));
        self.values.clear();
        self.values.extend(
            self.ts
                .iter()
                .map(|&t_next| q_up(deadline - t_next).clamp(0.0, 1.0)),
        );
    }

    /// The deadline this grid was built for.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// The scan step this grid was built for.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of scan steps covered.
    pub fn steps(&self) -> usize {
        self.values.len()
    }
}

/// Result of a wait-duration optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitDecision {
    /// The optimal wait duration (time from query start at this
    /// aggregator to its departure timer).
    pub wait: f64,
    /// The expected quality achieved by that wait — `q_n(D)` for the
    /// subtree rooted at this aggregator.
    pub quality: f64,
}

/// Scans wait durations in `[0, deadline]` with step `epsilon` and returns
/// the quality-maximizing wait (Pseudocode 2).
///
/// * `deadline` — remaining end-to-end budget `D` at this aggregator;
/// * `lower` — the stage duration distribution `X_1` of the nodes being
///   waited for;
/// * `fanout` — `k_1`, how many such nodes feed this aggregator;
/// * `q_up` — the upstream quality function `q_{n-1}(d)`: the probability
///   that an output shipped with `d` budget left still reaches the root
///   (for a two-level tree this is `F_{X_2}(d)`);
/// * `epsilon` — the scan step; smaller values reduce discretization
///   error at linear cost.
///
/// Returns a zero decision when `deadline <= 0` (nothing can be
/// delivered).
///
/// # Examples
///
/// ```
/// use cedar_core::wait::calculate_wait;
/// use cedar_distrib::{ContinuousDist, LogNormal};
///
/// let processes = LogNormal::new(2.77, 0.84).unwrap(); // X1
/// let aggregators = LogNormal::new(2.94, 0.55).unwrap(); // X2
/// let dec = calculate_wait(
///     100.0,
///     &processes,
///     50,
///     |rem| if rem <= 0.0 { 0.0 } else { aggregators.cdf(rem) },
///     0.2,
/// );
/// assert!(dec.wait > 0.0 && dec.wait < 100.0);
/// assert!(dec.quality > 0.0 && dec.quality <= 1.0);
/// ```
///
/// # Panics
///
/// Panics if `epsilon` is not strictly positive or `fanout == 0`.
pub fn calculate_wait<Q>(
    deadline: f64,
    lower: &dyn ContinuousDist,
    fanout: usize,
    q_up: Q,
    epsilon: f64,
) -> WaitDecision
where
    Q: Fn(f64) -> f64,
{
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(fanout >= 1, "fanout must be at least 1");
    if deadline <= 0.0 {
        return WaitDecision {
            wait: 0.0,
            quality: 0.0,
        };
    }
    with_scratch(|scratch| {
        scratch.grid.fill(deadline, epsilon, q_up);
        scan(
            lower,
            fanout,
            &scratch.grid,
            &mut scratch.fs,
            &mut scratch.net,
        )
    })
}

/// Scans wait durations against a pre-built upstream quality grid.
///
/// The per-arrival fast path: the lower-stage CDF is evaluated over the
/// whole ε-grid in one [`ContinuousDist::cdf_batch_ln`] call, and the
/// grid, its logarithms and the upstream quality come from the memoized
/// [`QupGrid`]. The result is bit-identical to [`calculate_wait`] with
/// the closure the grid was built from.
///
/// # Panics
///
/// Panics if `fanout == 0`.
pub fn calculate_wait_with_grid(
    lower: &dyn ContinuousDist,
    fanout: usize,
    grid: &QupGrid,
) -> WaitDecision {
    assert!(fanout >= 1, "fanout must be at least 1");
    with_scratch(|scratch| scan(lower, fanout, grid, &mut scratch.fs, &mut scratch.net))
}

/// The scan kernel behind both entry points: the batched lower-stage CDF,
/// then every step's net quality change in one element-wise pass, then
/// the sequential accumulation.
fn scan(
    lower: &dyn ContinuousDist,
    fanout: usize,
    grid: &QupGrid,
    fs: &mut Vec<f64>,
    net: &mut Vec<f64>,
) -> WaitDecision {
    let steps = grid.steps();
    fs.resize(steps, 0.0);
    lower.cdf_batch_ln(&grid.ts, &grid.ln_ts, fs);
    net.resize(steps, 0.0);
    net_quality(lower.cdf(0.0), fanout, fs, grid.q0, &grid.values, net);
    first_maximizer(&grid.ts, net)
}

/// Lanes per block of the element-wise pass: small enough for stack
/// buffers, long enough to amortize the exponent-bit loop.
const CHUNK: usize = 64;

/// Writes each ε-step's net quality change, gain − loss (Eqs. 3–4), into
/// `net`. Step `i` extends the wait from `t_i` to `t_{i+1}`; `f0 = F(0)`
/// and `q0 = q_up(D)` are the values before the first step.
///
/// No state carries from one step to the next, so the compiler can
/// vectorize the pass, and every entry has exactly the bits of
/// `quality_gain − quality_loss`:
/// the same operations in the same order, with `F^k` from [`powi_lanes`].
fn net_quality(f0: f64, fanout: usize, fs: &[f64], q0: f64, qs: &[f64], net: &mut [f64]) {
    let k = i32::try_from(fanout)
        .expect("fanout fits in an i32")
        .unsigned_abs();
    net[0] = quality_gain(f0, fs[0], qs[0]) - quality_loss(f0, fanout, q0, qs[0]);
    let (f_prev, f_next) = (&fs[..fs.len() - 1], &fs[1..]);
    let (q_prev, q_next) = (&qs[..qs.len() - 1], &qs[1..]);
    let mut f = [0.0; CHUNK];
    let mut fk = [0.0; CHUNK];
    for (c, out) in net[1..].chunks_mut(CHUNK).enumerate() {
        let lanes = c * CHUNK..c * CHUNK + out.len();
        let (fp, fnx) = (&f_prev[lanes.clone()], &f_next[lanes.clone()]);
        let (qp, qn) = (&q_prev[lanes.clone()], &q_next[lanes]);
        let f = &mut f[..out.len()];
        let fk = &mut fk[..out.len()];
        for (x, &p) in f.iter_mut().zip(fp) {
            *x = p.clamp(0.0, 1.0);
        }
        powi_lanes(f, k, fk);
        for l in 0..out.len() {
            let gain = (fnx[l] - fp[l]).max(0.0) * qn[l].clamp(0.0, 1.0);
            let loss = (f[l] - fk[l]).max(0.0) * (qp[l] - qn[l]).max(0.0);
            out[l] = gain - loss;
        }
    }
}

/// `out[l] = base[l].powi(k)` bit for bit, for up to [`CHUNK`] lanes.
///
/// `f64::powi` (`__powidf2`) is square-and-multiply from the lowest
/// exponent bit up: the result starts at 1 and takes `*= base^(2^j)` for
/// every set bit `j`. Running the bit loop outermost keeps that order per
/// lane while every inner loop runs across lanes.
fn powi_lanes(base: &[f64], k: u32, out: &mut [f64]) {
    let mut square = [0.0; CHUNK];
    let square = &mut square[..base.len()];
    square.copy_from_slice(base);
    out.fill(1.0);
    let mut bits = k;
    loop {
        if bits & 1 != 0 {
            for (o, &sq) in out.iter_mut().zip(square.iter()) {
                *o *= sq;
            }
        }
        bits >>= 1;
        if bits == 0 {
            break;
        }
        for sq in square.iter_mut() {
            *sq *= *sq;
        }
    }
}

/// The sequential half of the scan: Kahan-accumulates the net quality
/// changes along the grid and keeps the first maximizer.
fn first_maximizer(ts: &[f64], net: &[f64]) -> WaitDecision {
    let mut running = KahanSum::new();
    let mut best_q = 0.0f64;
    let mut best_wait = 0.0f64;
    for (&t_next, &change) in ts.iter().zip(net) {
        running.add(change);
        // Keep the *first* maximizer: on quality plateaus (gain and loss
        // both ~0) a later departure buys nothing but risks model error,
        // so the earliest wait achieving the maximum is the safe argmax.
        let q = running.value();
        if q > best_q {
            best_q = q;
            best_wait = t_next;
        }
    }
    WaitDecision {
        wait: best_wait,
        quality: best_q.clamp(0.0, 1.0),
    }
}

/// Recomputes the marginal quality gain and loss of the ε-step that ends
/// at `wait`, against a pre-built upstream quality grid.
///
/// This is the explain-path companion to [`calculate_wait_with_grid`]:
/// the scan itself only tracks the *accumulated* net quality, so when a
/// decision trace wants to show why the chosen `t` beat its neighbours it
/// re-derives the gain (quality bought by waiting through the step) and
/// loss (quality forfeited upstream) at that one step. Off the hot path:
/// called only when a query runs with `explain` on.
///
/// `wait` is snapped to the nearest grid step; a `wait` of zero (or a
/// non-positive deadline) reports zero gain and loss.
///
/// # Panics
///
/// Panics if `fanout == 0`.
pub fn gain_loss_at(
    lower: &dyn ContinuousDist,
    fanout: usize,
    grid: &QupGrid,
    wait: f64,
) -> (f64, f64) {
    assert!(fanout >= 1, "fanout must be at least 1");
    if grid.deadline <= 0.0 || wait <= 0.0 || grid.values.is_empty() {
        return (0.0, 0.0);
    }
    // Step i has t_next = (i + 1) * epsilon (clamped); invert and clamp.
    let i = ((wait / grid.epsilon).round() as usize)
        .saturating_sub(1)
        .min(grid.values.len() - 1);
    let t_prev = i as f64 * grid.epsilon;
    let t_next = (t_prev + grid.epsilon).min(grid.deadline);
    let f_prev = lower.cdf(t_prev);
    let f_next = lower.cdf(t_next);
    let q_up_prev = if i == 0 { grid.q0 } else { grid.values[i - 1] };
    let q_up_next = grid.values[i];
    (
        quality_gain(f_prev, f_next, q_up_next),
        quality_loss(f_prev, fanout, q_up_prev, q_up_next),
    )
}

/// The pre-batching scalar scan, kept verbatim as the reference
/// implementation: one virtual `cdf` call and one `q_up` evaluation per
/// ε-step. The equivalence tests and the `wait_scan` bench compare the
/// batched paths against this.
pub fn calculate_wait_scalar<Q>(
    deadline: f64,
    lower: &dyn ContinuousDist,
    fanout: usize,
    q_up: Q,
    epsilon: f64,
) -> WaitDecision
where
    Q: Fn(f64) -> f64,
{
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(fanout >= 1, "fanout must be at least 1");
    if deadline <= 0.0 {
        return WaitDecision {
            wait: 0.0,
            quality: 0.0,
        };
    }

    let steps = scan_steps(deadline, epsilon);
    let mut running = KahanSum::new();
    let mut best_q = 0.0f64;
    let mut best_wait = 0.0f64;

    let mut f_prev = lower.cdf(0.0);
    let mut q_up_prev = q_up(deadline).clamp(0.0, 1.0);
    for i in 0..steps {
        let t = i as f64 * epsilon;
        let t_next = (t + epsilon).min(deadline);
        let f_next = lower.cdf(t_next);
        let q_up_next = q_up(deadline - t_next).clamp(0.0, 1.0);

        let gain = quality_gain(f_prev, f_next, q_up_next);
        let loss = quality_loss(f_prev, fanout, q_up_prev, q_up_next);
        running.add(gain - loss);

        let q = running.value();
        if q > best_q {
            best_q = q;
            best_wait = t_next;
        }

        f_prev = f_next;
        q_up_prev = q_up_next;
    }

    WaitDecision {
        wait: best_wait,
        quality: best_q.clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::departure_quality;
    use cedar_distrib::{Exponential, LogNormal, Normal};

    /// Two-level helper: upstream quality is just the upper-stage CDF.
    fn two_level_qup(upper: &(impl ContinuousDist + Clone)) -> impl Fn(f64) -> f64 + '_ {
        move |d: f64| if d <= 0.0 { 0.0 } else { upper.cdf(d) }
    }

    use cedar_distrib::ContinuousDist;

    /// The scan resolution most tests run at.
    const STEPS: f64 = 500.0;

    #[test]
    fn zero_deadline_waits_zero() {
        let x1 = LogNormal::new(0.0, 1.0).unwrap();
        let d = calculate_wait(0.0, &x1, 50, |_| 1.0, 1.0);
        assert_eq!(d.wait, 0.0);
        assert_eq!(d.quality, 0.0);
    }

    #[test]
    fn generous_deadline_reaches_high_quality() {
        // Facebook-like stages with a deadline far above both stages'
        // p99: nearly all outputs should be deliverable.
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let d = calculate_wait(3000.0, &x1, 50, two_level_qup(&x2), 3000.0 / STEPS);
        assert!(d.quality > 0.95, "quality {}", d.quality);
        // The wait leaves room for the upper stage.
        assert!(d.wait < 3000.0);
        assert!(d.wait > x1.quantile(0.5));
    }

    #[test]
    fn tight_deadline_waits_less_and_quality_drops() {
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let tight = calculate_wait(60.0, &x1, 50, two_level_qup(&x2), 60.0 / STEPS);
        let loose = calculate_wait(1000.0, &x1, 50, two_level_qup(&x2), 1000.0 / STEPS);
        assert!(tight.wait < loose.wait);
        assert!(tight.quality < loose.quality);
    }

    #[test]
    fn quality_matches_departure_quality_at_optimum() {
        // The scan's accumulated quality must agree with the closed-form
        // expected quality of departing at the chosen wait.
        let x1 = LogNormal::new(1.0, 0.8).unwrap();
        let x2 = Exponential::from_mean(5.0).unwrap();
        let deadline = 30.0;
        let dec = calculate_wait(deadline, &x1, 20, two_level_qup(&x2), 0.01);
        let check = departure_quality(
            |t| x1.cdf(t),
            20,
            dec.wait,
            deadline,
            |rem| if rem <= 0.0 { 0.0 } else { x2.cdf(rem) },
            5000,
        );
        assert!(
            (dec.quality - check).abs() < 0.02,
            "scan {} vs closed form {}",
            dec.quality,
            check
        );
    }

    #[test]
    fn optimum_beats_grid_of_fixed_waits() {
        // No fixed wait on a coarse grid may beat the scan's choice by
        // more than the discretization slack.
        let x1 = LogNormal::new(2.0, 1.0).unwrap();
        let x2 = LogNormal::new(2.5, 0.5).unwrap();
        let deadline = 100.0;
        let dec = calculate_wait(deadline, &x1, 50, two_level_qup(&x2), 0.02);
        for i in 0..100 {
            let w = i as f64;
            let q = departure_quality(
                |t| x1.cdf(t),
                50,
                w,
                deadline,
                |rem| if rem <= 0.0 { 0.0 } else { x2.cdf(rem) },
                2000,
            );
            assert!(
                q <= dec.quality + 0.02,
                "fixed wait {w} gives {q}, scan gave {}",
                dec.quality
            );
        }
    }

    #[test]
    fn degenerate_upper_stage_spends_full_budget() {
        // If shipping upstream is instantaneous (q_up = 1 for any
        // remaining budget > 0), waiting until just before D is optimal.
        let x1 = LogNormal::new(2.0, 0.8).unwrap();
        let d = calculate_wait(50.0, &x1, 50, |rem| f64::from(rem > 0.0), 0.05);
        assert!(d.wait > 49.0, "wait {}", d.wait);
    }

    #[test]
    fn gaussian_stages_work() {
        let x1 = Normal::new(40.0, 80.0).unwrap();
        let x2 = Normal::new(40.0, 10.0).unwrap();
        let d = calculate_wait(200.0, &x1, 50, two_level_qup(&x2), 200.0 / STEPS);
        assert!(d.quality > 0.5);
        assert!(d.wait > 0.0 && d.wait < 200.0);
    }

    #[test]
    fn smaller_epsilon_refines_the_decision() {
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let coarse = calculate_wait(1000.0, &x1, 50, two_level_qup(&x2), 20.0);
        let fine = calculate_wait(1000.0, &x1, 50, two_level_qup(&x2), 0.5);
        // Both should find similar quality; fine resolution never worse
        // by more than the coarse discretization error.
        assert!(fine.quality >= coarse.quality - 1e-9);
        assert!((fine.wait - coarse.wait).abs() <= 40.0);
    }

    #[test]
    fn batched_scan_matches_scalar_reference() {
        // The acceptance bar: chosen wait and reported quality agree with
        // the pre-change scalar scan to ≤1e-9 across families, deadlines
        // and resolutions.
        let cases: Vec<(Box<dyn ContinuousDist>, Box<dyn ContinuousDist>)> = vec![
            (
                Box::new(LogNormal::new(2.77, 0.84).unwrap()),
                Box::new(LogNormal::new(2.94, 0.55).unwrap()),
            ),
            (
                Box::new(Normal::new(40.0, 80.0).unwrap()),
                Box::new(Normal::new(40.0, 10.0).unwrap()),
            ),
            (
                Box::new(Exponential::from_mean(12.0).unwrap()),
                Box::new(Exponential::from_mean(4.0).unwrap()),
            ),
            (
                Box::new(cedar_distrib::Pareto::new(1.0, 0.8).unwrap()),
                Box::new(LogNormal::new(0.5, 0.4).unwrap()),
            ),
        ];
        for (x1, x2) in &cases {
            for &deadline in &[5.0, 60.0, 300.0, 3000.0] {
                for &steps in &[100usize, 500] {
                    let eps = deadline / steps as f64;
                    let q_up = |rem: f64| if rem <= 0.0 { 0.0 } else { x2.cdf(rem) };
                    let scalar = calculate_wait_scalar(deadline, x1, 50, q_up, eps);
                    let batched = calculate_wait(deadline, x1, 50, q_up, eps);
                    assert!(
                        (batched.quality - scalar.quality).abs() <= 1e-9,
                        "quality {} vs {} (deadline {deadline}, steps {steps})",
                        batched.quality,
                        scalar.quality
                    );
                    assert!(
                        (batched.wait - scalar.wait).abs() <= 1e-9 * deadline.max(1.0),
                        "wait {} vs {} (deadline {deadline}, steps {steps})",
                        batched.wait,
                        scalar.wait
                    );
                }
            }
        }
    }

    #[test]
    fn grid_scan_is_bit_identical_to_closure_scan() {
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        for &deadline in &[40.0, 100.0, 750.0] {
            let eps = deadline / STEPS;
            let q_up = two_level_qup(&x2);
            let grid = QupGrid::build(deadline, eps, &q_up);
            assert_eq!(grid.steps(), 500);
            assert_eq!(grid.deadline(), deadline);
            assert_eq!(grid.epsilon(), eps);
            let via_closure = calculate_wait(deadline, &x1, 50, &q_up, eps);
            let via_grid = calculate_wait_with_grid(&x1, 50, &grid);
            // Same kernel, same inputs: exactly equal, not just close.
            assert_eq!(via_closure, via_grid);
        }
    }

    #[test]
    fn grid_reuse_across_lower_estimates() {
        // The per-arrival pattern: one grid, many lower-stage refits.
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let deadline = 200.0;
        let eps = deadline / STEPS;
        let grid = QupGrid::build(deadline, eps, two_level_qup(&x2));
        for &(mu, sigma) in &[(2.5, 0.9), (2.77, 0.84), (3.0, 0.7)] {
            let lower = LogNormal::new(mu, sigma).unwrap();
            let fast = calculate_wait_with_grid(&lower, 50, &grid);
            let slow = calculate_wait_scalar(deadline, &lower, 50, two_level_qup(&x2), eps);
            assert!((fast.quality - slow.quality).abs() <= 1e-9);
            assert!((fast.wait - slow.wait).abs() <= 1e-9 * deadline);
        }
    }

    #[test]
    fn gain_loss_at_matches_scan_step() {
        // The explain probe must reproduce the exact gain/loss the scan
        // accumulated at the chosen step: re-running the scalar scan and
        // capturing its marginal terms at the argmax step agrees with
        // `gain_loss_at` on the same grid.
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let deadline = 200.0;
        let eps = deadline / STEPS;
        let q_up = two_level_qup(&x2);
        let grid = QupGrid::build(deadline, eps, &q_up);
        let dec = calculate_wait_with_grid(&x1, 50, &grid);
        let (gain, loss) = gain_loss_at(&x1, 50, &grid, dec.wait);
        // Re-derive by hand at the same step.
        let i = ((dec.wait / eps).round() as usize) - 1;
        let t_prev = i as f64 * eps;
        let t_next = (t_prev + eps).min(deadline);
        let want_gain = quality_gain(x1.cdf(t_prev), x1.cdf(t_next), q_up(deadline - t_next));
        let want_loss = quality_loss(
            x1.cdf(t_prev),
            50,
            q_up(deadline - t_prev).clamp(0.0, 1.0),
            q_up(deadline - t_next),
        );
        assert!(
            (gain - want_gain).abs() < 1e-12,
            "gain {gain} vs {want_gain}"
        );
        assert!(
            (loss - want_loss).abs() < 1e-12,
            "loss {loss} vs {want_loss}"
        );
        // At an interior optimum the marginal step still nets positive.
        assert!(gain >= 0.0 && loss >= 0.0);
    }

    #[test]
    fn gain_loss_at_degenerate_inputs() {
        let x1 = Exponential::new(1.0).unwrap();
        let grid = QupGrid::build(10.0, 0.1, |_| 1.0);
        assert_eq!(gain_loss_at(&x1, 5, &grid, 0.0), (0.0, 0.0));
        let (g, l) = gain_loss_at(&x1, 5, &grid, 1e9);
        assert!(g.is_finite() && l.is_finite());
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn grid_rejects_non_positive_deadline() {
        QupGrid::build(0.0, 0.1, |_| 1.0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_non_positive_epsilon() {
        let x1 = Exponential::new(1.0).unwrap();
        calculate_wait(10.0, &x1, 5, |_| 1.0, 0.0);
    }

    #[test]
    fn unit_fanout_still_optimizes() {
        // k = 1: with a single input the "loss" term involves
        // F - F^1 = 0 (nothing partial at risk), so waiting costs nothing
        // until the upstream window closes; quality stays well-defined.
        let x1 = LogNormal::new(1.0, 0.6).unwrap();
        let x2 = LogNormal::new(1.0, 0.4).unwrap();
        let dec = calculate_wait(30.0, &x1, 1, two_level_qup(&x2), 30.0 / STEPS);
        assert!((0.0..=1.0).contains(&dec.quality));
        assert!(dec.wait > 0.0 && dec.wait <= 30.0);
    }

    #[test]
    fn heavy_tailed_pareto_lower_stage() {
        // Infinite-mean Pareto processes: the scan only consumes CDF
        // values, so heavy tails must not destabilize the decision.
        let x1 = cedar_distrib::Pareto::new(1.0, 0.8).unwrap();
        let x2 = LogNormal::new(0.5, 0.4).unwrap();
        let dec = calculate_wait(25.0, &x1, 20, two_level_qup(&x2), 0.05);
        assert!(dec.quality > 0.0 && dec.quality <= 1.0);
        assert!(dec.wait.is_finite());
        // Most Pareto(1, 0.8) mass sits near the scale; some outputs are
        // deliverable within the budget.
        assert!(dec.quality > 0.2, "quality {}", dec.quality);
    }

    #[test]
    fn deadline_smaller_than_epsilon_is_safe() {
        // One scan step larger than the whole budget: the loop still
        // terminates with a clamped, sane decision.
        let x1 = Exponential::new(1.0).unwrap();
        let x2 = Exponential::new(1.0).unwrap();
        let dec = calculate_wait(0.5, &x1, 5, two_level_qup(&x2), 2.0);
        assert!(dec.wait <= 0.5 + 1e-12);
        assert!((0.0..=1.0).contains(&dec.quality));
    }

    /// The accumulation as it was before the element-wise pass: one
    /// sequential walk computing gain and loss, with a `powi` per step,
    /// inside the Kahan loop. The reference the kernel must reproduce bit
    /// for bit.
    fn accumulate_scan(
        lower: &dyn ContinuousDist,
        fanout: usize,
        ts: &[f64],
        fs: &[f64],
        q0: f64,
        qs: &[f64],
    ) -> WaitDecision {
        let mut running = KahanSum::new();
        let mut best_q = 0.0f64;
        let mut best_wait = 0.0f64;
        let mut f_prev = lower.cdf(0.0);
        let mut q_up_prev = q0;
        for ((&t_next, &f_next), &q_up_next) in ts.iter().zip(fs).zip(qs) {
            let gain = quality_gain(f_prev, f_next, q_up_next);
            let loss = quality_loss(f_prev, fanout, q_up_prev, q_up_next);
            running.add(gain - loss);
            let q = running.value();
            if q > best_q {
                best_q = q;
                best_wait = t_next;
            }
            f_prev = f_next;
            q_up_prev = q_up_next;
        }
        WaitDecision {
            wait: best_wait,
            quality: best_q.clamp(0.0, 1.0),
        }
    }

    /// The grid path as it was: the grid's times through `cdf_batch`,
    /// then [`accumulate_scan`].
    fn grid_scan_reference(
        lower: &dyn ContinuousDist,
        fanout: usize,
        grid: &QupGrid,
    ) -> WaitDecision {
        let mut fs = vec![0.0; grid.steps()];
        lower.cdf_batch(&grid.ts, &mut fs);
        accumulate_scan(lower, fanout, &grid.ts, &fs, grid.q0, &grid.values)
    }

    fn assert_same_bits(got: WaitDecision, want: WaitDecision, case: &str) {
        assert_eq!(got.wait.to_bits(), want.wait.to_bits(), "wait, {case}");
        assert_eq!(
            got.quality.to_bits(),
            want.quality.to_bits(),
            "quality, {case}"
        );
    }

    #[test]
    fn powi_lanes_is_bit_identical_to_powi() {
        let mut fs: Vec<f64> = (0..=100_000).map(|i| f64::from(i) / 100_000.0).collect();
        fs.extend_from_slice(&[
            f64::MIN_POSITIVE,
            5e-324,
            1e-200,
            f64::from_bits(1.0f64.to_bits() - 1),
            0.999_999_9,
        ]);
        let mut out = [0.0; CHUNK];
        for k in [1u32, 2, 3, 7, 8, 50, 63, 64, 500] {
            for chunk in fs.chunks(CHUNK) {
                let out = &mut out[..chunk.len()];
                powi_lanes(chunk, k, out);
                for (&f, &got) in chunk.iter().zip(out.iter()) {
                    let want = f.powi(k as i32);
                    assert_eq!(got.to_bits(), want.to_bits(), "{f}^{k}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn kernel_matches_old_accumulate_on_seeded_gauntlet() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let ks = [1usize, 2, 3, 7, 8, 50, 63, 64, 500];
        let mut cases = 0;
        for family in 0..5 {
            for deadline in [5.0f64, 60.0, 300.0, 3000.0] {
                for steps in [100.0, 300.0, 500.0] {
                    for _ in 0..4 {
                        let scale = deadline / 4.0;
                        let lower: Box<dyn ContinuousDist> = match family {
                            0 => Box::new(
                                LogNormal::new(
                                    scale.ln() + rng.gen_range(-2.0..1.0),
                                    rng.gen_range(0.1..2.0),
                                )
                                .unwrap(),
                            ),
                            1 => Box::new(
                                Normal::new(
                                    scale * rng.gen_range(0.2..2.0),
                                    scale * rng.gen_range(0.05..1.5),
                                )
                                .unwrap(),
                            ),
                            2 => Box::new(
                                Exponential::from_mean(scale * rng.gen_range(0.1..3.0)).unwrap(),
                            ),
                            3 => Box::new(
                                cedar_distrib::Pareto::new(
                                    scale * rng.gen_range(0.05..0.5),
                                    rng.gen_range(0.7..3.0),
                                )
                                .unwrap(),
                            ),
                            _ => Box::new(
                                cedar_distrib::Mixture::new(vec![
                                    (
                                        0.9,
                                        Box::new(
                                            LogNormal::new(scale.ln(), rng.gen_range(0.2..1.0))
                                                .unwrap(),
                                        )
                                            as Box<dyn ContinuousDist>,
                                    ),
                                    (
                                        0.1,
                                        Box::new(cedar_distrib::Pareto::new(scale, 1.5).unwrap()),
                                    ),
                                ])
                                .unwrap(),
                            ),
                        };
                        let upper = LogNormal::new(
                            scale.ln() + rng.gen_range(-1.5..0.5),
                            rng.gen_range(0.2..1.2),
                        )
                        .unwrap();
                        let k = ks[rng.gen_range(0..ks.len())];
                        let eps = deadline / steps;
                        let q_up = two_level_qup(&upper);
                        let grid = QupGrid::build(deadline, eps, &q_up);
                        let case = format!("{lower:?} k={k} D={deadline} steps={steps}");
                        let want = grid_scan_reference(&lower, k, &grid);
                        assert_same_bits(calculate_wait_with_grid(&lower, k, &grid), want, &case);
                        assert_same_bits(
                            calculate_wait(deadline, &lower, k, &q_up, eps),
                            want,
                            &case,
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 240);

        // The per-arrival shape: one FB-like grid, many log-normal
        // estimates of the lower stage.
        let grid = QupGrid::build(
            1000.0,
            1000.0 / 300.0,
            two_level_qup(&LogNormal::new(2.94, 0.55).unwrap()),
        );
        for _ in 0..2000 {
            let lower = LogNormal::new(rng.gen_range(1.5..4.5), rng.gen_range(0.2..1.6)).unwrap();
            let want = grid_scan_reference(&lower, 50, &grid);
            assert_same_bits(
                calculate_wait_with_grid(&lower, 50, &grid),
                want,
                &format!("{lower:?}"),
            );
        }
    }
}
