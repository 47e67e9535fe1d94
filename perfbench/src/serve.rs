//! `serve-mixed`: `cedar-server` in-process on small FB trees, driven by
//! closed-loop `Client`s on the shipped default wire, with a fresh tree
//! and a fresh deadline per query.

use crate::closed::{self, Phase, Seen};
use crate::inputs::{self, Draws};
use crate::layers::{self, Shape};
use crate::report::{end_to_end, set_up, Checker, Metric, RunResult};
use crate::sys;
use crate::Args;
use cedar_runtime::TimeScale;
use cedar_server::proto::{Request, ServerStats};
use cedar_server::{Client, Server, ServerConfig, ServerHandle, WireFormat};
use cedar_workloads::production;
use rand::Rng;
use std::time::{Duration, Instant};

/// Closed-loop clients: one generator thread and one connection each.
pub const CLIENTS: usize = 2;
const K1: usize = 8;
const K2: usize = 4;
/// Server-default deadline (model seconds); every measured query
/// overrides it.
const DEFAULT_DEADLINE: f64 = 1000.0;
/// Per-query deadlines are uniform over this range (model seconds).
const DEADLINES: std::ops::Range<f64> = 400.0..1600.0;
/// Wall clock per model second: deadlines span 40-160 ms. At 20 µs
/// (8-32 ms), a slow spell of the reference host (a 2-vCPU VM) moved the
/// ten-run median quality by 24% and p99 latency by 31%, past their
/// bounds.
const UNIT: Duration = Duration::from_micros(100);

/// One query: a fresh tree, deadline and seed.
fn draw(draws: &mut Draws, traced: bool) -> Request {
    let (bottom, u) = draws.next();
    let deadline = DEADLINES.start + u * (DEADLINES.end - DEADLINES.start);
    let tree = inputs::fb_treedef(&bottom, K1, K2);
    Request::query(tree, Some(deadline), Some(draws.rng().gen())).with_explain(traced)
}

fn stats(client: &mut Client) -> ServerStats {
    client
        .stats()
        .ok()
        .and_then(|r| r.stats)
        .expect("the server answers the stats op")
}

/// A measured phase, with the server's cache and refit deltas over it.
struct Counted {
    phase: Phase<()>,
    hits: u64,
    misses: u64,
    refits: usize,
}

/// Every client draws from its own lane of `seed`, the same lanes in
/// every phase, so a traced phase sends the untraced phase's queries.
fn phase(clients: &mut [Client], addr: &str, seed: u64, seconds: f64, traced: bool) -> Counted {
    let before = stats(&mut clients[0]);
    let next = |c: usize| {
        let mut draws = Draws::new(seed, 16 + c as u64);
        move || draw(&mut draws, traced)
    };
    let phase = closed::phase("serve-mixed", clients, addr, seconds, next, |_| ());
    let after = stats(&mut clients[0]);
    Counted {
        phase,
        hits: after.cache_hits - before.cache_hits,
        misses: after.cache_misses - before.cache_misses,
        refits: after.refits - before.refits,
    }
}

/// Construction to the first answered query: server start (runtime,
/// bind, accept loop), the clients' connections, and one fixed query at
/// the server's default deadline (so every setup does the same work).
fn setup(checks: &mut Checker) -> (f64, (ServerHandle, Vec<Client>)) {
    let warm = Request::query(inputs::fb_central_treedef(K1, K2), None, Some(1));
    let t = Instant::now();
    let mut cfg = ServerConfig::facebook_mr_sized("127.0.0.1:0", DEFAULT_DEADLINE, K1, K2);
    cfg.service.scale = TimeScale::new(UNIT);
    let server = Server::start(cfg).expect("start cedar-server");
    let mut conns: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect to cedar-server"))
        .collect();
    let resp = conns[0].request(&warm);
    let elapsed = t.elapsed().as_secs_f64();
    let mut seen = Seen::default();
    seen.record("serve-mixed warm-up", &warm, Duration::ZERO, resp, |_| ());
    if seen.tally.failed_count() > 0 {
        checks.fail("serve-mixed: the warm-up query failed".into());
    }
    checks.merge(seen.checks);
    (elapsed, (server, conns))
}

fn stop((server, conns): (ServerHandle, Vec<Client>), checks: &mut Checker) {
    drop(conns);
    if let Err(e) = server.shutdown() {
        checks.fail(format!("serve-mixed: server shutdown failed: {e}"));
    }
}

pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let mut checks = Checker::default();
    let setups = if args.trace { 1 } else { 7 };
    let (setup_s, (server, mut conns)) = set_up(
        setups,
        |_| setup(&mut r.checks),
        |old| stop(old, &mut checks),
    );
    r.checks.merge(checks);
    let addr = server.addr().to_string();

    if !args.trace {
        let p = phase(&mut conns, &addr, args.seed, args.seconds, false).phase;
        r.metrics = end_to_end(
            &p.seen.tally,
            p.wall_s,
            p.cpu_s,
            &setup_s,
            sys::peak_rss_mb(),
        );
        p.seen.into_result(&mut r);
    } else {
        let plain = phase(&mut conns, &addr, args.seed, args.seconds / 2.0, false);
        let traced = phase(&mut conns, &addr, args.seed, args.seconds / 2.0, true);
        let workload = production::facebook_mr(K1, K2);
        let mut draws = Draws::new(args.seed, 3);
        let shape = Shape {
            priors: &workload.priors,
            deadline: DEFAULT_DEADLINE,
            request: draw(&mut draws, false),
            mesh_wire: WireFormat::default(),
        };
        let micro = layers::micro(&shape, draws.rng());
        let lookups = plain.hits + plain.misses;
        let frontend_us = &plain.phase.seen.frontend_us;
        r.metrics = vec![
            Metric::new(
                "runtime.cache_hit_ratio",
                "ratio",
                plain.hits as f64 / lookups.max(1) as f64,
                lookups as usize,
            ),
            Metric::new(
                "runtime.refits",
                "count",
                plain.refits as f64,
                plain.phase.seen.tally.attempted() as usize,
            ),
            Metric::pct_of("server.frontend_us_p50", "us", frontend_us, 50.0),
            Metric::pct_of("server.frontend_us_p99", "us", frontend_us, 99.0),
        ];
        r.metrics
            .extend(closed::trace_metrics(&plain.phase, &traced.phase, &micro));
        r.metrics.extend(micro);
        plain.phase.seen.into_result(&mut r);
        traced.phase.seen.into_result(&mut r);
    }
    stop((server, conns), &mut r.checks);
    r
}
