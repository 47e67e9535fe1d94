//! `service-fb50`: the in-process `AggregationService` on a 2-worker
//! runtime, FB-MR 50x50 trees, open-loop Poisson arrivals.

use crate::inputs;
use crate::layers::{self, Shape};
use crate::report::{
    end_to_end, set_up, trace_overhead, trace_residual, Checker, Metric, RunResult,
};
use crate::stats::{FailClass, Tally};
use crate::sys;
use crate::Args;
use cedar_runtime::{AggregationService, QueryOptions, RuntimeOutcome, ServiceConfig, TimeScale};
use cedar_server::proto::Request;
use cedar_server::WireFormat;
use cedar_telemetry::QueryTrace;
use cedar_workloads::production;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tokio::runtime::Runtime;

const K1: usize = 50;
const K2: usize = 50;
/// Deadline in model seconds.
const DEADLINE: f64 = 1000.0;
/// Wall clock per model second: `D` is 200 ms.
const UNIT: Duration = Duration::from_micros(200);
/// Offered load: about 40% of two cores at ~55 ms of CPU per query. At
/// 60% the reference host's slow spells (its cores drop to ~0.6x speed
/// for seconds to minutes) saturate the runtime, and latency and quality
/// swing by 2x from run to run.
const RATE_QPS: f64 = 15.0;
/// The generator gives up on a query after this long (a timeout).
const QUERY_CAP: Duration = Duration::from_secs(5);
/// Requested sleep of the timer-lag probe.
const PROBE_SLEEP: Duration = Duration::from_millis(1);

struct Done {
    due: Duration,
    /// When the generator handed the query to the runtime.
    sent: Instant,
    /// When the query's task started on a runtime worker.
    submitted: Instant,
    finished: Instant,
    outcome: Option<RuntimeOutcome>,
}

#[derive(Default)]
struct Phase {
    tally: Tally,
    wall_s: f64,
    cpu_s: f64,
    lag_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    overrun_ms: Vec<f64>,
    submit_overhead_us: Vec<f64>,
    residual_ms: Vec<f64>,
    timer_lag_us: Vec<f64>,
    cache: (u64, u64),
    refits: usize,
}

fn config() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(production::facebook_mr(K1, K2).priors, DEADLINE);
    cfg.scale = TimeScale::new(UNIT);
    cfg
}

fn runtime() -> Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .expect("build the service runtime")
}

fn check(checks: &mut Checker, out: &RuntimeOutcome) {
    checks.answer(
        "service-fb50",
        K1 * K2,
        out.quality,
        out.included_outputs,
        out.total_processes,
        out.value_sum,
    );
}

/// Timer-lag probe: short sleeps on the service runtime, actual minus
/// requested.
async fn probe(stop: Arc<AtomicBool>) -> Vec<f64> {
    let mut lags = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        tokio::time::sleep(PROBE_SLEEP).await;
        lags.push((t.elapsed().saturating_sub(PROBE_SLEEP)).as_secs_f64() * 1e6);
    }
    lags
}

/// One measured phase. Every phase draws from the same lane of `seed`,
/// so a traced phase sends the untraced phase's queries; `probe` runs the
/// timer-lag probe beside them.
fn phase(
    rt: &Runtime,
    svc: &AggregationService,
    seed: u64,
    seconds: f64,
    traced: bool,
    probe_on: bool,
    checks: &mut Checker,
) -> Phase {
    let priors = production::facebook_mr(K1, K2).priors;
    let mut draws = inputs::Draws::new(seed, 1);
    // A Poisson process conditioned on its count: the arrival instants
    // are sorted uniforms over the phase.
    let n = (RATE_QPS * seconds).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| draws.rng().gen::<f64>() * seconds).collect();
    due.sort_by(f64::total_cmp);
    let queries: Vec<_> = due
        .iter()
        .map(|&d| {
            (
                Duration::from_secs_f64(d),
                draws.tree(&priors),
                draws.rng().gen::<u64>(),
            )
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let prober = probe_on.then(|| rt.spawn(probe(Arc::clone(&stop))));
    let (cache0, refits0) = (svc.cache_stats(), svc.refits());
    let (tx, rx) = mpsc::channel::<Done>();
    let mut p = Phase::default();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    for (due, tree, qseed) in queries {
        if let Some(wait) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        p.lag_ms
            .push((sent - t0).saturating_sub(due).as_secs_f64() * 1e3);
        let svc = svc.clone();
        let tx = tx.clone();
        let opts = QueryOptions {
            seed: Some(qseed),
            trace: traced.then(|| Arc::new(QueryTrace::new())),
            ..QueryOptions::default()
        };
        rt.spawn(async move {
            let submitted = Instant::now();
            let outcome = tokio::time::timeout(QUERY_CAP, svc.submit_with(tree, opts))
                .await
                .ok();
            let _ = tx.send(Done {
                due,
                sent,
                submitted,
                finished: Instant::now(),
                outcome,
            });
        });
    }
    drop(tx);
    let mut last = t0;
    let scaled_deadline = (UNIT * DEADLINE as u32).as_secs_f64() * 1e3;
    for d in rx {
        last = last.max(d.finished);
        let latency_ms = (d.finished - (t0 + d.due)).as_secs_f64() * 1e3;
        let Some(out) = d.outcome else {
            p.tally.failed(FailClass::Timeout);
            continue;
        };
        check(checks, &out);
        p.tally.answered(latency_ms, out.quality);
        // `wall_elapsed` is clamped at the deadline, so time past it
        // shows only in the span around `submit_with`.
        let span = d.finished - d.submitted;
        let span_ms = span.as_secs_f64() * 1e3;
        p.engine_ms.push(out.wall_elapsed.as_secs_f64() * 1e3);
        p.overrun_ms.push(span_ms - scaled_deadline);
        p.submit_overhead_us
            .push(span.saturating_sub(out.wall_elapsed).as_secs_f64() * 1e6);
        // Latency = generator lag + span + what is left: the hand-off
        // from the generator thread to a runtime worker.
        let lag_ms = d.sent.saturating_duration_since(t0 + d.due).as_secs_f64() * 1e3;
        p.residual_ms.push(latency_ms - lag_ms - span_ms);
    }
    p.wall_s = (last - t0).as_secs_f64();
    p.cpu_s = sys::cpu_seconds() - cpu0;
    // Submissions missing from the channel panicked inside the task.
    for _ in p.tally.attempted() as usize..n {
        p.tally.failed(FailClass::Error("panic".into()));
    }
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = prober {
        p.timer_lag_us = rt.block_on(h).unwrap_or_default();
    }
    let cache1 = svc.cache_stats();
    p.cache = (cache1.0 - cache0.0, cache1.1 - cache0.1);
    p.refits = svc.refits() - refits0;
    p
}

/// Construction to the first answered query: runtime, service, and one
/// warm-up query (which builds the prepared contexts).
fn setup(seed: u64, i: u64, checks: &mut Checker) -> (f64, (Runtime, AggregationService)) {
    let mut draws = inputs::Draws::new(seed, 100 + i);
    let tree = draws.tree(&production::facebook_mr(K1, K2).priors);
    let t = Instant::now();
    let rt = runtime();
    let svc = AggregationService::new(config());
    let opts = QueryOptions {
        seed: Some(draws.rng().gen()),
        ..QueryOptions::default()
    };
    let out = rt.block_on(svc.submit_with(tree, opts));
    let elapsed = t.elapsed().as_secs_f64();
    check(checks, &out);
    (elapsed, (rt, svc))
}

pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let setups = if args.trace { 1 } else { 3 };
    let (setup_s, (rt, svc)) = set_up(setups, |i| setup(args.seed, i, &mut r.checks), drop);

    if !args.trace {
        let p = phase(
            &rt,
            &svc,
            args.seed,
            args.seconds,
            false,
            false,
            &mut r.checks,
        );
        r.metrics = end_to_end(&p.tally, p.wall_s, p.cpu_s, &setup_s, sys::peak_rss_mb());
        r.tally = p.tally;
        return r;
    }

    let half = args.seconds / 2.0;
    let plain = phase(&rt, &svc, args.seed, half, false, true, &mut r.checks);
    let traced = phase(&rt, &svc, args.seed, half, true, true, &mut r.checks);
    let workload = production::facebook_mr(K1, K2);
    let mut draws = inputs::Draws::new(args.seed, 3);
    let (bottom, _) = draws.next();
    let shape = Shape {
        priors: &workload.priors,
        deadline: DEADLINE,
        request: Request::query(inputs::fb_treedef(&bottom, K1, K2), Some(DEADLINE), Some(1)),
        mesh_wire: WireFormat::default(),
    };
    let (hits, misses) = plain.cache;
    r.metrics = vec![
        Metric::pct_of("executor.timer_lag_us_p50", "us", &plain.timer_lag_us, 50.0),
        Metric::pct_of("executor.timer_lag_us_p99", "us", &plain.timer_lag_us, 99.0),
        Metric::pct_of("runtime.engine_ms_p50", "ms", &plain.engine_ms, 50.0),
        Metric::pct_of("runtime.overrun_ms_p99", "ms", &plain.overrun_ms, 99.0),
        Metric::pct_of(
            "runtime.submit_overhead_us_p50",
            "us",
            &plain.submit_overhead_us,
            50.0,
        ),
        Metric::pct_of(
            "runtime.submit_overhead_us_p99",
            "us",
            &plain.submit_overhead_us,
            99.0,
        ),
        Metric::new(
            "runtime.cache_hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        ),
        Metric::new(
            "runtime.refits",
            "count",
            plain.refits as f64,
            plain.tally.attempted() as usize,
        ),
        trace_overhead(&plain.tally, &traced.tally),
        trace_residual(&plain.residual_ms),
        Metric::pct_of("loadgen.lag_ms_p99", "ms", &plain.lag_ms, 99.0),
    ];
    r.metrics.extend(layers::micro(&shape, draws.rng()));
    r.tally = plain.tally;
    r.tally.merge(traced.tally);
    r
}
