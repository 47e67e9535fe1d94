//! The closed-loop generator of `serve-mixed` and `mesh-7`: each client
//! sends one query, waits for the answer, checks and tallies it, and
//! sends the next.

use crate::report::{answer_of, trace_overhead, trace_residual, Checker, Metric, RunResult};
use crate::stats::{FailClass, Tally};
use crate::sys;
use cedar_server::proto::{QueryResult, Request, Response};
use cedar_server::Client;
use std::io;
use std::time::{Duration, Instant};

/// Consecutive transport failures after which a client gives up.
const MAX_TRANSPORT_STREAK: u32 = 20;

/// What closed-loop clients saw. `Y` is what the workload keeps of each
/// answer beyond the tally.
pub struct Seen<Y> {
    pub tally: Tally,
    pub checks: Checker,
    /// Client latency minus the answer's own `latency_ms`, in µs.
    pub frontend_us: Vec<f64>,
    pub kept: Vec<Y>,
}

impl<Y> Default for Seen<Y> {
    fn default() -> Self {
        Self {
            tally: Tally::default(),
            checks: Checker::default(),
            frontend_us: Vec::new(),
            kept: Vec::new(),
        }
    }
}

impl<Y> Seen<Y> {
    /// Checks and tallies one response to `req`; returns false on a
    /// transport error. The answer's `total_processes` must be the size
    /// of the request's tree.
    pub fn record(
        &mut self,
        what: &str,
        req: &Request,
        latency: Duration,
        resp: io::Result<Response>,
        keep: impl Fn(&QueryResult) -> Y,
    ) -> bool {
        match answer_of(resp) {
            Ok(q) => {
                let tree = req.tree.as_ref().expect("query requests carry a tree");
                let expected: usize = tree.stages.iter().map(|s| s.fanout).product();
                self.checks.answer(
                    what,
                    expected,
                    q.quality,
                    q.included_outputs,
                    q.total_processes,
                    q.value_sum,
                );
                let ms = latency.as_secs_f64() * 1e3;
                self.tally.answered(ms, q.quality);
                self.frontend_us.push((ms - q.latency_ms) * 1e3);
                self.kept.push(keep(&q));
                true
            }
            Err(class) => {
                let transport = class == FailClass::Transport;
                self.tally.failed(class);
                !transport
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.tally.merge(other.tally);
        self.checks.merge(other.checks);
        self.frontend_us.extend(other.frontend_us);
        self.kept.extend(other.kept);
    }

    /// Hands the tally and the checks to the run's result.
    pub fn into_result(self, r: &mut RunResult) {
        r.tally.merge(self.tally);
        r.checks.merge(self.checks);
    }
}

/// One client's loop until `until`, reconnecting after a transport
/// error.
fn drive<Y>(
    what: &str,
    client: &mut Client,
    addr: &str,
    until: Instant,
    mut next: impl FnMut() -> Request,
    keep: &impl Fn(&QueryResult) -> Y,
) -> Seen<Y> {
    let mut seen = Seen::default();
    let mut streak = 0;
    while Instant::now() < until && streak < MAX_TRANSPORT_STREAK {
        let req = next();
        let t = Instant::now();
        let resp = client.request(&req);
        if seen.record(what, &req, t.elapsed(), resp, keep) {
            streak = 0;
        } else {
            streak += 1;
            if let Ok(c) = Client::connect(addr) {
                *client = c;
            }
        }
    }
    seen
}

/// One measured phase of every client.
pub struct Phase<Y> {
    pub seen: Seen<Y>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Drives every client for `seconds`, the calling thread driving the
/// first: n clients, n threads, n connections. `next(c)` is client `c`'s
/// request stream.
pub fn phase<Y, N>(
    what: &str,
    clients: &mut [Client],
    addr: &str,
    seconds: f64,
    next: impl Fn(usize) -> N,
    keep: impl Fn(&QueryResult) -> Y + Sync,
) -> Phase<Y>
where
    Y: Send,
    N: FnMut() -> Request + Send,
{
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let (first, rest) = clients.split_first_mut().expect("at least one client");
    let keep = &keep;
    let seen = std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let n = next(c + 1);
                s.spawn(move || drive(what, client, addr, until, n, keep))
            })
            .collect();
        let mut seen = drive(what, first, addr, until, next(0), keep);
        for h in handles {
            seen.merge(h.join().expect("client thread"));
        }
        seen
    });
    Phase {
        seen,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds() - cpu0,
    }
}

/// `trace.overhead_ms` and `trace.residual_ms` of a closed-loop
/// workload. Client latency = the answer's own `latency_ms` + the four
/// frame codec passes (`server.codec_us` of `micro`) + the residual:
/// sockets, the serving thread, admission and the runtime hand-off.
pub fn trace_metrics<Y>(plain: &Phase<Y>, traced: &Phase<Y>, micro: &[Metric]) -> [Metric; 2] {
    let codec_us = micro
        .iter()
        .find(|m| m.name == "server.codec_us")
        .map_or(0.0, |m| m.value);
    let residual_ms: Vec<f64> = plain
        .seen
        .frontend_us
        .iter()
        .map(|us| (us - codec_us) / 1e3)
        .collect();
    [
        trace_overhead(&plain.seen.tally, &traced.seen.tally),
        trace_residual(&residual_ms),
    ]
}
