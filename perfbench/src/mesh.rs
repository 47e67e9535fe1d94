//! `mesh-7`: the 7-node shape of `examples/mesh/topology-local.json`
//! booted in-process, one closed-loop client at the root.
//!
//! Only the ports and `unit_us` differ from the example; its `wire` is
//! left unset, so the links run the shipped default.

use crate::closed::{self, Phase, Seen};
use crate::inputs::{self, Draws};
use crate::layers::{self, Shape};
use crate::report::{end_to_end, set_up, Checker, Metric, RunResult};
use crate::sys;
use crate::Args;
use cedar_mesh::topology::{Role, Topology};
use cedar_mesh::NodeHandle;
use cedar_server::proto::{QueryResult, Request};
use cedar_server::Client;
use cedar_telemetry::TraceSegment;
use rand::Rng;
use std::time::{Duration, Instant};

const TOPOLOGY: &str = include_str!("../../examples/mesh/topology-local.json");
/// Deadline in model seconds.
const DEADLINE: f64 = 2000.0;
/// Wall microseconds per model second: `D` is 2 ms.
const UNIT_US: u64 = 1;
/// How long the nodes get to report every peer up.
const READY_CAP: Duration = Duration::from_secs(10);
/// Boots tried on fresh ports before a run gives up.
const BOOT_ATTEMPTS: u32 = 5;

/// The example topology with fresh loopback ports and the benchmark's
/// time scale.
fn topology() -> Topology {
    let mut topo = Topology::from_json(TOPOLOGY).expect("the example topology parses");
    for node in &mut topo.nodes {
        node.addr = format!("127.0.0.1:{}", sys::free_port());
    }
    topo.unit_us = Some(UNIT_US);
    topo
}

/// The topology's tree shape: leaves per aggregator, aggregators.
fn shape(topo: &Topology) -> (usize, usize) {
    let aggs = topo.aggs();
    (topo.leaves_under(aggs[0]), aggs.len())
}

/// One query: a fresh FB map population draw over each aggregator's
/// leaves, the FB reduce stage over the aggregators.
fn draw(draws: &mut Draws, (k1, k2): (usize, usize), traced: bool) -> Request {
    let tree = inputs::fb_treedef(&draws.next().0, k1, k2);
    Request::query(tree, Some(DEADLINE), Some(draws.rng().gen())).with_explain(traced)
}

struct Mesh {
    nodes: Vec<NodeHandle>,
    client: Client,
    addr: String,
}

impl Mesh {
    fn stop(self) {
        drop(self.client);
        for n in &self.nodes {
            n.stop();
        }
        for n in self.nodes {
            n.join();
        }
    }
}

/// Starts every node leaves-first and waits until each reports all
/// peers up. Ports are picked just before binding, so another socket can
/// take one in between: the caller retries on a fresh topology.
fn boot(topo: &Topology) -> Result<Vec<NodeHandle>, String> {
    let t = Instant::now();
    let mut nodes = Vec::new();
    let stop = |nodes: Vec<NodeHandle>| {
        for n in &nodes {
            n.stop();
        }
        nodes.into_iter().for_each(NodeHandle::join);
    };
    for role in [Role::Worker, Role::Agg, Role::Root] {
        for node in topo.nodes.iter().filter(|n| n.role == role) {
            match cedar_mesh::start(topo.clone(), &node.name, None) {
                Ok(h) => nodes.push(h),
                Err(e) => {
                    stop(nodes);
                    return Err(format!("starting {}: {e}", node.name));
                }
            }
        }
    }
    while nodes.iter().any(|n| n.peers_up() < n.peers_total()) {
        if t.elapsed() > READY_CAP {
            stop(nodes);
            return Err("the mesh never reported every peer up".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(nodes)
}

/// Construction to the first answered query: the booted mesh, the
/// client's connection and one fixed query (so every setup does the same
/// work).
fn setup(checks: &mut Checker) -> (f64, Mesh) {
    let mut attempt = 0;
    let (t, topo, nodes) = loop {
        let topo = topology();
        let t = Instant::now();
        match boot(&topo) {
            Ok(nodes) => break (t, topo, nodes),
            Err(e) if attempt < BOOT_ATTEMPTS => {
                eprintln!("mesh-7: {e}; retrying on fresh ports");
                attempt += 1;
            }
            Err(e) => panic!("mesh-7: {e}"),
        }
    };
    let (k1, k2) = shape(&topo);
    let warm = Request::query(inputs::fb_central_treedef(k1, k2), Some(DEADLINE), Some(1));
    let addr = topo.root().addr.clone();
    let mut client = Client::connect(&addr).expect("connect to the mesh root");
    let resp = client.request(&warm);
    let elapsed = t.elapsed().as_secs_f64();
    let mut seen = Seen::default();
    seen.record("mesh-7 warm-up", &warm, Duration::ZERO, resp, |_| ());
    if seen.tally.failed_count() > 0 {
        checks.fail("mesh-7: the warm-up query failed".into());
    }
    checks.merge(seen.checks);
    (
        elapsed,
        Mesh {
            nodes,
            client,
            addr,
        },
    )
}

/// What the explain trace of one answer shows below the root.
#[derive(Default)]
struct Hops {
    hop_us: Vec<f64>,
    decode_us: Vec<f64>,
    queue_us: Vec<f64>,
    hops: usize,
    censored: usize,
}

/// Every segment below the root: the nodes an `exec` frame reached.
fn walk(seg: &TraceSegment, out: &mut Hops) {
    out.hop_us.extend(
        seg.hops
            .iter()
            .filter_map(|h| h.overhead_us())
            .map(|us| us as f64),
    );
    for child in &seg.children {
        out.decode_us.push(child.exec_decode_us as f64);
        out.queue_us.push(child.exec_queue_us as f64);
        walk(child, out);
    }
}

fn hops_of(q: &QueryResult) -> Option<Hops> {
    let mesh = q.trace.as_ref()?.mesh.as_ref()?;
    let mut out = Hops {
        hops: mesh.root.hop_count(),
        censored: mesh.root.censored_hops(),
        ..Hops::default()
    };
    walk(&mesh.root, &mut out);
    Some(out)
}

/// Both phases draw from the same lane of `seed`, so a traced phase
/// sends the untraced phase's queries.
fn phase(
    mesh: &mut Mesh,
    dims: (usize, usize),
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Phase<Option<Hops>> {
    let next = |_| {
        let mut draws = Draws::new(seed, 1);
        move || draw(&mut draws, dims, traced)
    };
    let clients = std::slice::from_mut(&mut mesh.client);
    closed::phase("mesh-7", clients, &mesh.addr, seconds, next, hops_of)
}

pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let setups = if args.trace { 1 } else { 5 };
    let (setup_s, mut mesh) = set_up(setups, |_| setup(&mut r.checks), Mesh::stop);
    let topo = Topology::from_json(TOPOLOGY).expect("the example topology parses");
    let dims = shape(&topo);

    if !args.trace {
        let p = phase(&mut mesh, dims, args.seed, args.seconds, false);
        r.metrics = end_to_end(
            &p.seen.tally,
            p.wall_s,
            p.cpu_s,
            &setup_s,
            sys::peak_rss_mb(),
        );
        p.seen.into_result(&mut r);
    } else {
        let plain = phase(&mut mesh, dims, args.seed, args.seconds / 2.0, false);
        let traced = phase(&mut mesh, dims, args.seed, args.seconds / 2.0, true);
        let mut draws = Draws::new(args.seed, 3);
        let request = draw(&mut draws, dims, false);
        let spec = request
            .tree
            .as_ref()
            .and_then(|t| t.build().ok())
            .expect("FB trees build");
        let shape = Shape {
            priors: &spec,
            deadline: DEADLINE,
            request,
            mesh_wire: topo.wire_format(),
        };
        let micro = layers::micro(&shape, draws.rng());
        let mut t = Hops::default();
        for h in traced.seen.kept.iter().flatten() {
            t.hop_us.extend(&h.hop_us);
            t.decode_us.extend(&h.decode_us);
            t.queue_us.extend(&h.queue_us);
            t.hops += h.hops;
            t.censored += h.censored;
        }
        r.metrics = vec![
            Metric::pct_of("mesh.frontend_us_p50", "us", &plain.seen.frontend_us, 50.0),
            Metric::pct_of("mesh.hop_us_p50", "us", &t.hop_us, 50.0),
            Metric::pct_of("mesh.hop_us_p99", "us", &t.hop_us, 99.0),
            Metric::pct_of("mesh.exec_decode_us_p50", "us", &t.decode_us, 50.0),
            Metric::pct_of("mesh.exec_queue_us_p50", "us", &t.queue_us, 50.0),
            Metric::new(
                "mesh.censored_hop_ratio",
                "ratio",
                t.censored as f64 / t.hops.max(1) as f64,
                t.hops,
            ),
        ];
        r.metrics
            .extend(closed::trace_metrics(&plain, &traced, &micro));
        r.metrics.extend(micro);
        plain.seen.into_result(&mut r);
        traced.seen.into_result(&mut r);
    }
    mesh.stop();
    r
}
