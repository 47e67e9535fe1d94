//! Single-layer timings taken on each workload's own shapes: the same
//! priors, deadline, fan-out, frames and wire the workload runs with,
//! timed from outside around one public call per layer.

use crate::report::Metric;
use crate::stats::median;
use cedar_core::policy::WaitPolicyKind;
use cedar_core::profile::ProfileConfig;
use cedar_core::{calculate_wait, PreparedContexts, TreeSpec};
use cedar_estimate::{CedarEstimator, DurationEstimator, Model};
use cedar_mesh::wire::{self, MeshMsg, StageTiming};
use cedar_runtime::FailureReport;
use cedar_server::proto::{self, QueryResult, Request, Response};
use cedar_server::WireFormat;
use cedar_sim::engine::execute_prepared;
use cedar_sim::{Prepared, SimConfig};
use cedar_workloads::treedef::TreeDef;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// ε-scan resolution every surface in the repository uses by default.
const SCAN_STEPS: usize = 300;
/// Fan-out of the estimator timing (the paper's 50-map aggregators).
const ESTIMATOR_FANOUT: usize = 50;
/// Timed batches per layer; each figure is the median batch.
const BATCHES: usize = 7;

/// The shapes one workload runs with.
pub struct Shape<'a> {
    pub priors: &'a TreeSpec,
    pub deadline: f64,
    /// One query as it goes on the wire.
    pub request: Request,
    /// The wire format of the workload's mesh links (the shipped
    /// default where the workload has no mesh).
    pub mesh_wire: WireFormat,
}

/// Median per-call microseconds of `f` over [`BATCHES`] batches of
/// `per_batch` calls.
fn time_us(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(&batches)
}

fn answer_for(tree: &TreeDef) -> Response {
    let total: usize = tree.stages.iter().map(|s| s.fanout).product();
    let included = total / 2;
    Response::with_result(QueryResult {
        quality: included as f64 / total as f64,
        included_outputs: included,
        total_processes: total,
        root_arrivals: tree.stages.last().map_or(1, |s| s.fanout),
        value_sum: included as f64,
        latency_ms: 1.25,
        epoch: 3,
        failures: None,
        trace: None,
    })
}

/// `core.prepare_us`, `core.calculate_wait_us`, `estimate.update_us`,
/// `sim.query_ms`, `server.codec_us` and `mesh.partial_codec_us` for one
/// shape.
pub fn micro(shape: &Shape<'_>, rng: &mut StdRng) -> Vec<Metric> {
    let profile = ProfileConfig::default();
    let prepare = time_us(1, || {
        black_box(PreparedContexts::new(
            black_box(shape.priors),
            shape.deadline,
            WaitPolicyKind::Cedar,
            Model::LogNormal,
            SCAN_STEPS,
            &profile,
        ));
    });

    let lower = shape.priors.stage(0);
    let upper = shape.priors.stage(1).dist.clone();
    let epsilon = shape.deadline / SCAN_STEPS as f64;
    let scan = time_us(20, || {
        black_box(calculate_wait(
            black_box(shape.deadline),
            lower.dist.as_ref(),
            lower.fanout,
            |rem| if rem <= 0.0 { 0.0 } else { upper.cdf(rem) },
            epsilon,
        ));
    });

    let mut arrivals = lower.dist.sample_vec(rng, ESTIMATOR_FANOUT);
    arrivals.sort_by(f64::total_cmp);
    let mut est = CedarEstimator::new(ESTIMATOR_FANOUT, Model::LogNormal);
    let update = time_us(200, || {
        est.reset();
        for &t in &arrivals {
            est.observe(black_box(t));
            black_box(est.estimate());
        }
    }) / ESTIMATOR_FANOUT as f64;

    // One simulated query of the shape under Cedar, on fixed inputs.
    let sim_cfg = SimConfig::new(shape.priors.clone(), shape.deadline);
    let sim_prepared = Prepared::new(&sim_cfg, WaitPolicyKind::Cedar);
    let sim = time_us(1, || {
        let mut sim_rng = StdRng::seed_from_u64(1);
        black_box(execute_prepared(
            &sim_cfg,
            WaitPolicyKind::Cedar,
            &mut sim_rng,
            &sim_prepared,
        ));
    }) / 1e3;

    let tree = shape
        .request
        .tree
        .clone()
        .expect("query requests carry a tree");
    let response = answer_for(&tree);
    let mut buf = Vec::with_capacity(4096);
    let codec = time_us(200, || {
        buf.clear();
        proto::write_frame(&mut buf, &shape.request).expect("encode request");
        let req: Option<Request> = proto::read_frame(&mut buf.as_slice()).expect("decode request");
        black_box(req);
        buf.clear();
        proto::write_frame(&mut buf, &response).expect("encode response");
        let resp: Option<Response> =
            proto::read_frame(&mut buf.as_slice()).expect("decode response");
        black_box(resp);
    });

    let k1 = tree.stages[0].fanout;
    let partial = MeshMsg::Partial {
        query_id: 7,
        from: "agg0".into(),
        origin: 0,
        payload: k1,
        value: k1 as f64,
        duration: 3.25,
        retry: false,
        timings: arrivals
            .iter()
            .cycle()
            .take(k1)
            .enumerate()
            .map(|(origin, &duration)| StageTiming {
                level: 0,
                origin,
                duration,
            })
            .collect(),
        censored: Vec::new(),
        failures: FailureReport::default(),
        segment: None,
    };
    let partial_codec = time_us(200, || {
        buf.clear();
        wire::send_as(&mut buf, &partial, shape.mesh_wire).expect("encode partial");
        black_box(wire::recv(&mut buf.as_slice()).expect("decode partial"));
    });

    vec![
        Metric::new("core.prepare_us", "us", prepare, BATCHES),
        Metric::new("core.calculate_wait_us", "us", scan, BATCHES),
        Metric::new("estimate.update_us", "us", update, BATCHES),
        Metric::new("sim.query_ms", "ms", sim, BATCHES),
        Metric::new("server.codec_us", "us", codec, BATCHES),
        Metric::new("mesh.partial_codec_us", "us", partial_codec, BATCHES),
    ]
}
