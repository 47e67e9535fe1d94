//! Property tests: every `cdf_batch` override agrees with the scalar
//! `cdf` it specializes.
//!
//! The batched kernels hoist parameters out of the loop and may reassociate
//! the standardization (`* inv_sigma` instead of `/ sigma`), so finite
//! points allow a 1e-12 absolute tolerance rather than demanding bit
//! equality. Non-finite and signed-zero inputs are held to a stricter bar:
//! the batch must agree with the scalar **bit for bit** (NaN in, NaN out;
//! `cdf(+inf)` exactly 1; `-0.0` indistinguishable from `+0.0`), because
//! the SIMD lane kernels take region-classified fast paths that must not
//! invent finite answers for poisoned grids. Families without an override
//! (Gamma, Pareto, Weibull) exercise the trait-default fallback, which must
//! be exactly the scalar path.

use cedar_distrib::{
    ContinuousDist, Empirical, Exponential, Gamma, LogNormal, Mixture, Normal, Pareto, Rectified,
    Scaled, Shifted, Uniform, Weibull,
};
use proptest::prelude::*;
use std::sync::Arc;

const TOL: f64 = 1e-12;

/// Evaluation grids long enough to cross the 64-element chunk boundary in
/// the affine wrappers' chunked batch helper.
fn grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let step = (hi - lo) / (n.max(2) - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

/// The poison values every grid gets salted with: NaN, both infinities,
/// both zeros and the smallest normals of either sign.
const EDGES: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
];

fn assert_batch_matches<D: ContinuousDist>(dist: &D, ts: &[f64]) {
    let mut out = vec![f64::NAN; ts.len()];
    dist.cdf_batch(ts, &mut out);
    for (&t, &f) in ts.iter().zip(out.iter()) {
        let scalar = dist.cdf(t);
        if t.is_finite() {
            assert!(
                (f - scalar).abs() <= TOL,
                "cdf_batch({t}) = {f} but cdf({t}) = {scalar}"
            );
        } else {
            // Non-finite inputs: bit-for-bit with the scalar, no tolerance.
            assert_eq!(
                f.to_bits(),
                scalar.to_bits(),
                "cdf_batch({t}) = {f:?} but cdf({t}) = {scalar:?}"
            );
        }
    }
}

/// Salts a finite grid with the edge values at the front, middle and
/// back, so poisoned lanes land both inside and around SIMD blocks.
fn salt(mut ts: Vec<f64>) -> Vec<f64> {
    let mid = ts.len() / 2;
    for (i, &e) in EDGES.iter().enumerate() {
        ts.insert((mid + i) % ts.len().max(1), e);
    }
    ts.extend_from_slice(&EDGES);
    let mut front = EDGES.to_vec();
    front.extend_from_slice(&ts);
    front
}

/// `cdf_batch_ln` with the grid's logs returns exactly the bits of
/// `cdf_batch`, directly and through the `Box`/`Arc` forwarding impls.
fn assert_ln_batch_is_bit_identical(dist: Box<dyn ContinuousDist>, ts: &[f64]) {
    let ln_ts: Vec<f64> = ts.iter().map(|t| t.ln()).collect();
    let arced = Arc::new(dist);
    let direct: &dyn ContinuousDist = &**arced;
    let mut want = vec![0.0; ts.len()];
    direct.cdf_batch(ts, &mut want);
    // The family itself, `Box<dyn _>`, and `Arc<Box<dyn _>>`.
    let views: [&dyn ContinuousDist; 3] = [direct, &*arced, &arced];
    for view in views {
        let mut got = vec![f64::NAN; ts.len()];
        view.cdf_batch_ln(ts, &ln_ts, &mut got);
        for ((&t, &g), &w) in ts.iter().zip(&got).zip(&want) {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{direct:?}: cdf_batch_ln({t}) = {g:?} but cdf_batch = {w:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn normal_batch_matches_scalar(
        mu in -50.0..50.0f64,
        sigma in 0.05..30.0f64,
        n in 1usize..200,
    ) {
        let d = Normal::new(mu, sigma).unwrap();
        assert_batch_matches(&d, &salt(grid(mu - 8.0 * sigma, mu + 8.0 * sigma, n)));
    }

    #[test]
    fn lognormal_batch_matches_scalar(
        mu in -3.0..8.0f64,
        sigma in 0.05..3.0f64,
        n in 1usize..200,
    ) {
        let d = LogNormal::new(mu, sigma).unwrap();
        // Include non-positive ts to hit the `t <= 0 -> 0` branch.
        assert_batch_matches(&d, &salt(grid(-2.0, (mu + 6.0 * sigma).exp(), n)));
    }

    #[test]
    fn lognormal_ln_batch_is_bit_identical(
        mu in -3.0..8.0f64,
        sigma in 0.05..3.0f64,
        n in 1usize..200,
    ) {
        let d = LogNormal::new(mu, sigma).unwrap();
        assert_ln_batch_is_bit_identical(
            Box::new(d),
            &salt(grid(-2.0, (mu + 6.0 * sigma).exp(), n)),
        );
    }

    #[test]
    fn exponential_batch_matches_scalar(lambda in 0.01..20.0f64, n in 1usize..200) {
        let d = Exponential::new(lambda).unwrap();
        assert_batch_matches(&d, &salt(grid(-1.0, 10.0 / lambda, n)));
    }

    #[test]
    fn uniform_batch_matches_scalar(a in -100.0..100.0f64, w in 0.1..200.0f64, n in 1usize..200) {
        let d = Uniform::new(a, a + w).unwrap();
        assert_batch_matches(&d, &salt(grid(a - w, a + 2.0 * w, n)));
    }

    #[test]
    fn default_fallback_families_match_scalar(
        shape in 0.3..10.0f64,
        scale in 0.1..50.0f64,
        n in 1usize..120,
    ) {
        let ts = grid(-1.0, 12.0 * scale, n);
        assert_batch_matches(&Gamma::new(shape, scale).unwrap(), &ts);
        assert_batch_matches(&Weibull::new(shape, scale).unwrap(), &ts);
        assert_batch_matches(&Pareto::new(scale, shape + 1.0).unwrap(), &ts);
    }

    #[test]
    fn affine_wrappers_match_scalar(
        mu in 0.0..6.0f64,
        sigma in 0.1..2.0f64,
        factor in 0.05..25.0f64,
        offset in -40.0..40.0f64,
        n in 1usize..200,
    ) {
        let inner = LogNormal::new(mu, sigma).unwrap();
        let hi = (mu + 5.0 * sigma).exp();
        let scaled = Scaled::new(inner, factor).unwrap();
        assert_batch_matches(&scaled, &salt(grid(-1.0, hi * factor, n)));
        let shifted = Shifted::new(inner, offset).unwrap();
        assert_batch_matches(&shifted, &salt(grid(offset - 1.0, offset + hi, n)));
        let rectified = Rectified::new(Normal::new(mu, sigma).unwrap());
        assert_batch_matches(&rectified, &salt(grid(-sigma, mu + 5.0 * sigma, n)));
    }

    #[test]
    fn mixture_batch_matches_scalar(
        mu1 in 0.0..5.0f64,
        mu2 in 0.0..5.0f64,
        w in 0.05..0.95f64,
        n in 1usize..200,
    ) {
        let d = Mixture::new(vec![
            (w, Box::new(LogNormal::new(mu1, 0.7).unwrap()) as Box<dyn ContinuousDist>),
            (1.0 - w, Box::new(Normal::new(mu2, 1.3).unwrap())),
        ])
        .unwrap();
        assert_batch_matches(&d, &salt(grid(-3.0, (mu1.max(mu2) + 4.0).exp(), n)));
    }

    #[test]
    fn boxed_and_arc_forwarding_match_scalar(mu in -5.0..5.0f64, sigma in 0.1..4.0f64) {
        let ts = salt(grid(mu - 6.0 * sigma, mu + 6.0 * sigma, 97));
        let boxed: Box<dyn ContinuousDist> = Box::new(Normal::new(mu, sigma).unwrap());
        assert_batch_matches(&boxed, &ts);
        let arced: std::sync::Arc<dyn ContinuousDist> =
            std::sync::Arc::new(Normal::new(mu, sigma).unwrap());
        assert_batch_matches(&arced, &ts);
    }
}

/// Signed zero is indistinguishable from positive zero through every
/// batch kernel: the sign select in the erfc kernels compares with
/// `>=`, and the support guards compare with `<=`, so `-0.0` and
/// `+0.0` take identical paths and produce identical bits.
#[test]
fn signed_zero_agrees_bit_for_bit_with_scalar() {
    // Power-of-two parameters make the batch's hoisted `* inv_sigma`
    // standardization exactly equal to the scalar's `/ sigma`, so the
    // comparison is bit-for-bit, not merely within tolerance.
    let normal = Normal::new(0.5, 2.0).unwrap();
    let lognormal = LogNormal::new(0.0, 1.0).unwrap();
    let exponential = Exponential::new(1.0).unwrap();
    let uniform = Uniform::new(-1.0, 1.0).unwrap();
    let dists: [&dyn ContinuousDist; 4] = [&normal, &lognormal, &exponential, &uniform];
    for t in [0.0, -0.0] {
        for d in dists {
            let mut out = [f64::NAN];
            d.cdf_batch(&[t], &mut out);
            let scalar = d.cdf(t);
            assert_eq!(
                out[0].to_bits(),
                scalar.to_bits(),
                "cdf_batch({t:?}) = {:?} but cdf = {scalar:?}",
                out[0]
            );
        }
    }
    // The two zeros also agree with each other.
    assert_eq!(normal.cdf(0.0).to_bits(), normal.cdf(-0.0).to_bits());
    assert_eq!(lognormal.cdf(0.0).to_bits(), lognormal.cdf(-0.0).to_bits());
}

/// NaN anywhere in the grid yields NaN in exactly that slot — the lane
/// kernels must fall back rather than classify a NaN lane into a
/// region — and infinities saturate to exactly 0 and 1.
#[test]
fn non_finite_inputs_are_honored_slotwise() {
    let d = LogNormal::new(2.77, 0.84).unwrap();
    let ts = [
        1.0,
        f64::NAN,
        2.0,
        f64::INFINITY,
        3.0,
        f64::NEG_INFINITY,
        4.0,
        f64::NAN,
    ];
    let mut out = [0.0; 8];
    d.cdf_batch(&ts, &mut out);
    assert!(out[1].is_nan() && out[7].is_nan());
    assert_eq!(out[3], 1.0);
    assert_eq!(out[5], 0.0);
    for i in [0, 2, 4, 6] {
        assert!(
            (out[i] - d.cdf(ts[i])).abs() <= TOL,
            "finite neighbour {i} was disturbed by poisoned lanes"
        );
    }
}

/// Every family, overriding `cdf_batch_ln` or not, on a grid that spans
/// non-positive points and is salted with NaN and both infinities.
#[test]
fn cdf_batch_ln_is_bit_identical_for_every_family() {
    let inner = LogNormal::new(1.2, 0.7).unwrap();
    let families: Vec<Box<dyn ContinuousDist>> = vec![
        Box::new(inner),
        Box::new(LogNormal::new(2.77, 0.84).unwrap()),
        Box::new(Normal::new(3.0, 2.5).unwrap()),
        Box::new(Exponential::new(0.4).unwrap()),
        Box::new(Uniform::new(-1.0, 9.0).unwrap()),
        Box::new(Gamma::new(2.5, 1.5).unwrap()),
        Box::new(Weibull::new(1.7, 4.0).unwrap()),
        Box::new(Pareto::new(1.0, 2.2).unwrap()),
        Box::new(Empirical::from_samples(vec![0.5, 1.5, 2.0, 4.0, 7.5, 11.0]).unwrap()),
        Box::new(
            Mixture::new(vec![
                (0.7, Box::new(inner) as Box<dyn ContinuousDist>),
                (0.3, Box::new(Normal::new(6.0, 1.0).unwrap())),
            ])
            .unwrap(),
        ),
        Box::new(Scaled::new(inner, 3.0).unwrap()),
        Box::new(Shifted::new(inner, -2.0).unwrap()),
        Box::new(Rectified::new(Normal::new(1.0, 2.0).unwrap())),
    ];
    let ts = salt(grid(-3.0, 40.0, 301));
    for dist in families {
        assert_ln_batch_is_bit_identical(dist, &ts);
    }
}
