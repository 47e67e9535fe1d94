//! Input generation. Every query input is derived from the run's
//! `--seed`; the program under test only ever receives these values.

use cedar_core::TreeSpec;
use cedar_distrib::spec::DistSpec;
use cedar_distrib::{ContinuousDist, LogNormal, Normal};
use cedar_workloads::production::{
    FACEBOOK_MAP_REPLAY, FACEBOOK_REDUCE, FB_MU_JITTER, FB_SIGMA_JITTER,
};
use cedar_workloads::treedef::{StageDef, TreeDef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A seeded stream, split from the run seed by a per-use `lane` so that
/// independent input streams (setup, phases, clients) never overlap.
pub fn rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Steps of the R2 low-discrepancy sequence: `1/g` and `1/g^2` for the
/// plastic number `g`.
const R2: [f64; 2] = [0.754_877_666_246_692_7, 0.569_840_290_998_053_2];
/// Smallest per-query sigma, as in `PopulationModel::sample_query`.
const SIGMA_FLOOR: f64 = 0.05;

/// Per-query draws from the paper's Facebook map population (the one
/// `production::facebook_mr` samples bottom stages from).
///
/// The per-query `mu` — which sets how fast a query's leaves are, and so
/// most of its quality and cost — is taken at quantiles that follow a
/// seed-rotated R2 sequence rather than independently: any prefix of the
/// stream covers the population evenly, so a run's means do not drift
/// with the seed the way a few hundred independent draws do. The second
/// coordinate of the sequence is handed out for one more per-query
/// parameter (a deadline); everything else comes from the seeded stream.
pub struct Draws {
    rng: StdRng,
    u: [f64; 2],
    std_normal: Normal,
}

impl Draws {
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut rng = rng(seed, lane);
        let u = [rng.gen(), rng.gen()];
        Self {
            rng,
            u,
            std_normal: Normal::new(0.0, 1.0).expect("the standard normal is valid"),
        }
    }

    /// The seeded stream, for per-query values outside the sequence.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// One query: its bottom-stage distribution and the second sequence
    /// coordinate, uniform in (0, 1).
    pub fn next(&mut self) -> (LogNormal, f64) {
        for (u, step) in self.u.iter_mut().zip(R2) {
            *u = (*u + step).fract();
        }
        let z = |u: f64| self.std_normal.quantile(u.clamp(1e-9, 1.0 - 1e-9));
        let mu = FACEBOOK_MAP_REPLAY.0 + FB_MU_JITTER * z(self.u[0]);
        let sigma = (FACEBOOK_MAP_REPLAY.1 + FB_SIGMA_JITTER * z(self.rng.gen())).max(SIGMA_FLOOR);
        let bottom = LogNormal::new(mu, sigma).expect("jittered parameters are valid");
        (bottom, self.u[1])
    }

    /// One query's true tree: `priors` with a fresh bottom stage.
    pub fn tree(&mut self, priors: &TreeSpec) -> TreeSpec {
        let (bottom, _) = self.next();
        priors.with_bottom_dist(Arc::new(bottom) as Arc<dyn ContinuousDist>)
    }
}

/// A two-stage Facebook MapReduce tree on the wire: `bottom` over `k1`
/// leaves per aggregator, the reduce stage over `k2` aggregators.
pub fn fb_treedef(bottom: &LogNormal, k1: usize, k2: usize) -> TreeDef {
    TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: bottom.mu(),
                    sigma: bottom.sigma(),
                },
                fanout: k1,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: FACEBOOK_REDUCE.0,
                    sigma: FACEBOOK_REDUCE.1,
                },
                fanout: k2,
            },
        ],
    }
}

/// [`fb_treedef`] at the centre of the map population: the same tree
/// for every seed, for set-ups that must do the same work each time.
pub fn fb_central_treedef(k1: usize, k2: usize) -> TreeDef {
    let (mu, sigma) = FACEBOOK_MAP_REPLAY;
    let bottom = LogNormal::new(mu, sigma).expect("the population centre is valid");
    fb_treedef(&bottom, k1, k2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_per_seed_and_cover_the_population() {
        let mus = |seed| {
            let mut d = Draws::new(seed, 1);
            (0..200).map(|_| d.next().0.mu()).collect::<Vec<_>>()
        };
        assert_eq!(mus(5), mus(5));
        assert_ne!(mus(5), mus(6));
        // Even coverage: the sample mean sits on the population's mu.
        for seed in 1..6 {
            let m: f64 = mus(seed).iter().sum::<f64>() / 200.0;
            assert!(
                (m - FACEBOOK_MAP_REPLAY.0).abs() < 0.05,
                "seed {seed}: mean mu {m}"
            );
        }
    }
}
