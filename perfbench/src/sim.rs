//! `sim-fb50`: the discrete-event simulator on FB-MR 50x50 under the
//! Cedar policy, one thread, no timers.
//!
//! Each query is what `cedar_sim::runner::run_workload` runs — contexts
//! prepared once from the priors, then a fresh population draw, a seed
//! `base + i` and `execute_prepared` — with the draw taken from
//! [`Draws`]. The simulator is deterministic, so a run replays one query
//! set in passes and reports the best pass (per query, for latencies):
//! the host's speed drifts by tens of percent over seconds, and the best
//! pass is the steadiest estimate of the simulator's own cost. Every pass
//! must reproduce the first bit for bit, and sampled queries must match
//! `cedar_sim::runner::simulate_query` bit for bit.

use crate::inputs::{self, Draws};
use crate::layers::{self, Shape};
use crate::report::{end_to_end, set_up, trace_overhead, Checker, Metric, RunResult};
use crate::stats::Tally;
use crate::sys;
use crate::Args;
use cedar_core::policy::WaitPolicyKind;
use cedar_server::proto::Request;
use cedar_server::WireFormat;
use cedar_sim::engine::execute_prepared;
use cedar_sim::{simulate_query, Prepared, QueryOutcome, SimConfig};
use cedar_workloads::production;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const K1: usize = 50;
const K2: usize = 50;
const DEADLINE: f64 = 1000.0;
const POLICY: WaitPolicyKind = WaitPolicyKind::Cedar;
/// Queries in the set each pass replays (about 2 s of compute).
const QUERIES: usize = 128;
/// Every this many queries, one is replayed for the determinism check.
const REPLAY_EVERY: usize = 16;

fn check(checks: &mut Checker, out: &QueryOutcome) {
    checks.answer(
        "sim-fb50",
        K1 * K2,
        out.quality,
        out.included_outputs,
        out.total_processes,
        out.included_weight,
    );
}

/// One pass over the query set.
struct Pass {
    /// Per query: compute time (ms) and outcome.
    runs: Vec<(f64, QueryOutcome)>,
    wall_s: f64,
    cpu_s: f64,
}

fn pass(set: &[SimConfig], prepared: &Prepared) -> Pass {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let runs = set
        .iter()
        .map(|qcfg| {
            let t = Instant::now();
            let mut rng = StdRng::seed_from_u64(qcfg.seed);
            let out = execute_prepared(qcfg, POLICY, &mut rng, prepared);
            (t.elapsed().as_secs_f64() * 1e3, out)
        })
        .collect();
    Pass {
        runs,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds() - cpu0,
    }
}

/// The best of several passes: the per-query minimum compute time, and
/// the fastest pass's wall and CPU time.
struct Phase {
    tally: Tally,
    passes: usize,
    wall_s: f64,
    cpu_s: f64,
    /// Per query, the fastest pass's time outside `execute_prepared`, ms.
    residual_ms: f64,
}

/// Replays `set` in passes while whole passes fit in `seconds` (at least
/// one). Every pass must reproduce the first bit for bit.
fn phase(set: &[SimConfig], prepared: &Prepared, seconds: f64, checks: &mut Checker) -> Phase {
    let first = pass(set, prepared);
    for (_, out) in &first.runs {
        check(checks, out);
    }
    let mut best: Vec<f64> = first.runs.iter().map(|(ms, _)| *ms).collect();
    let mut fastest = (
        first.wall_s,
        first.cpu_s,
        first.wall_s * 1e3 - best.iter().sum::<f64>(),
    );
    let mut spent = first.wall_s;
    let mut passes = 1;
    while spent + first.wall_s.min(fastest.0) <= seconds {
        let p = pass(set, prepared);
        for (i, ((ms, out), (_, reference))) in p.runs.iter().zip(&first.runs).enumerate() {
            best[i] = best[i].min(*ms);
            if out.quality.to_bits() != reference.quality.to_bits() {
                checks.fail(format!(
                    "sim-fb50: query {i} changed quality between passes"
                ));
            }
        }
        if p.wall_s < fastest.0 {
            let exec_ms: f64 = p.runs.iter().map(|(ms, _)| ms).sum();
            fastest = (p.wall_s, p.cpu_s, p.wall_s * 1e3 - exec_ms);
        }
        spent += p.wall_s;
        passes += 1;
    }
    let mut tally = Tally::default();
    for (ms, (_, out)) in best.iter().zip(&first.runs) {
        tally.answered(*ms, out.quality);
    }
    Phase {
        tally,
        passes,
        wall_s: fastest.0,
        cpu_s: fastest.1,
        residual_ms: fastest.2 / set.len() as f64,
    }
}

pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let workload = production::facebook_mr(K1, K2);
    let base = SimConfig::new(workload.priors.clone(), DEADLINE)
        .with_seed(inputs::rng(args.seed, 1).gen());

    // Setup: the contexts, then one query on the priors themselves (a
    // fixed tree and seed, so every setup does the same work).
    let setups = if args.trace { 1 } else { 7 };
    let (setup_s, prepared) = set_up(
        setups,
        |_| {
            let t = Instant::now();
            let p = Prepared::new(&base, POLICY);
            let warm = execute_prepared(&base, POLICY, &mut StdRng::seed_from_u64(1), &p);
            let elapsed = t.elapsed().as_secs_f64();
            check(&mut r.checks, &warm);
            (elapsed, p)
        },
        drop,
    );

    let mut draws = Draws::new(args.seed, 2);
    let set: Vec<SimConfig> = (0..QUERIES as u64)
        .map(|i| {
            let mut qcfg = base.clone().with_seed(base.seed.wrapping_add(i));
            qcfg.tree = draws.tree(&base.priors);
            qcfg
        })
        .collect();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let p = phase(&set, &prepared, seconds, &mut r.checks);
    eprintln!(
        "sim-fb50: {} queries, best of {} passes",
        set.len(),
        p.passes
    );

    // The reference path must reproduce the measured answers bit for bit.
    for qcfg in set.iter().step_by(REPLAY_EVERY) {
        let reference = simulate_query(qcfg, POLICY);
        let mut rng = StdRng::seed_from_u64(qcfg.seed);
        let out = execute_prepared(qcfg, POLICY, &mut rng, &prepared);
        if out.quality.to_bits() != reference.quality.to_bits() {
            r.checks.fail(format!(
                "sim-fb50: seed {} quality {} differs from simulate_query's {}",
                qcfg.seed, out.quality, reference.quality
            ));
        }
    }

    if !args.trace {
        r.metrics = end_to_end(&p.tally, p.wall_s, p.cpu_s, &setup_s, sys::peak_rss_mb());
        r.tally = p.tally;
        return r;
    }
    // The simulator has no tracing of its own: the second half runs the
    // same loop, so the overhead reads as run-to-run noise.
    let second = phase(&set, &prepared, seconds, &mut r.checks);
    let mut draws = inputs::Draws::new(args.seed, 3);
    let (bottom, _) = draws.next();
    let shape = Shape {
        priors: &workload.priors,
        deadline: DEADLINE,
        request: Request::query(inputs::fb_treedef(&bottom, K1, K2), Some(DEADLINE), Some(1)),
        mesh_wire: WireFormat::default(),
    };
    r.metrics = vec![
        trace_overhead(&p.tally, &second.tally),
        Metric::new("trace.residual_ms", "ms", p.residual_ms, set.len()),
    ];
    r.metrics.extend(layers::micro(&shape, draws.rng()));
    r.tally = p.tally;
    r.tally.merge(second.tally);
    r
}
