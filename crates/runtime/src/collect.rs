//! The aggregator's collection loop: Pseudocode 1 over a channel of
//! arrivals, shared by every backend that runs on tokio.
//!
//! The in-process engine wires workers to aggregators through bounded
//! channels; a mesh node's network reader threads push each decoded
//! partial-result frame into the same kind of channel. Both hand the
//! receiver to [`collect`], which runs the policy state machine
//! (initial wait, per-arrival re-estimate, timer re-arm, early
//! departure) and returns what arrived. What happens after departure —
//! the aggregator's own work, its fault fate and the send upstream —
//! stays with the caller. A dead or straggling *real* peer therefore
//! degrades quality through the same code path as an injected one:
//! missing children are right-censored at departure, duplicates are
//! suppressed by origin, and a watchdog hook lets the caller launch
//! speculative retries, in process or across the wire.

use crate::metrics::RuntimeMetrics;
use crate::scale::TimeScale;
use cedar_core::{AggregatorAction, AggregatorState};
use cedar_telemetry::{QueryTrace, ShipReason, TraceEventKind};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;
use tokio::sync::mpsc;
use tokio::time::Instant;

/// A partial result flowing up the tree: how many process outputs it
/// carries and their aggregated value. `origin` identifies the sending
/// task globally (workers `0..W`, then aggregators level by level) so
/// receivers can suppress duplicate arrivals; `duration` is the
/// sender's realized model-time duration (what refit should learn
/// from); `retry` marks a speculative re-execution launched by a
/// watchdog. This is the engine's channel-send boundary type; mesh
/// frames decode into it so remote children are indistinguishable from
/// local ones past the socket.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Process outputs aggregated into this message.
    pub payload: usize,
    /// Aggregated value over those outputs.
    pub value: f64,
    /// Global origin id of the sender.
    pub origin: usize,
    /// The sender's realized model-time duration.
    pub duration: f64,
    /// Whether this is a speculative re-execution's result.
    pub retry: bool,
}

/// Where an aggregator records its decision timeline.
#[derive(Clone)]
pub struct TraceSite {
    /// The shared per-query trace to record into.
    pub trace: Arc<QueryTrace>,
    /// Tree level this aggregator sits at (for event attribution).
    pub level: usize,
    /// The aggregator's index within its level.
    pub index: usize,
}

impl TraceSite {
    /// Records `kind` at model time `at`, attributed to this aggregator.
    pub(crate) fn record(&self, at: f64, kind: TraceEventKind) {
        self.trace.record(at, self.level, self.index, kind);
    }
}

/// Configuration for one aggregator's collection pass.
pub struct CollectConfig {
    /// Model-to-wall time mapping.
    pub scale: TimeScale,
    /// Query start on this node; model time is measured from here.
    pub start: Instant,
    /// Global origin ids of the children expected to arrive.
    pub expected: Range<usize>,
    /// Watchdog timeout in model units, if speculative retries are on:
    /// when it fires with children still missing, the caller's hook
    /// receives their origins (exactly once).
    pub watchdog: Option<f64>,
    /// Whether children missing at departure are recorded as
    /// right-censored observations in the trace. They are returned in
    /// [`Collected::censored`] either way; this says whether the caller
    /// feeds them to its refit ledger.
    pub censor: bool,
    /// Decision trace to record the pass into; attaching one turns on
    /// the policy's explain mode (`Estimate`/`Rearm` events).
    pub trace: Option<TraceSite>,
    /// Shared metrics that time each per-arrival wait scan.
    pub metrics: Option<Arc<RuntimeMetrics>>,
}

/// What one collection pass produced.
#[derive(Debug, Clone)]
pub struct Collected {
    /// Process outputs aggregated before departure.
    pub payload: usize,
    /// Aggregated value over those outputs.
    pub value: f64,
    /// Distinct children that arrived in time.
    pub received: usize,
    /// Departure time in model units.
    pub departed_at: f64,
    /// Delivered `(origin, duration)` observations from the stage
    /// below, in arrival order — refit food.
    pub observed: Vec<(usize, f64)>,
    /// Origins still missing at departure; each is right-censored at
    /// [`departed_at`](Self::departed_at).
    pub censored: Vec<usize>,
    /// Arrivals dropped because their origin had already been counted
    /// (injected duplicates, or a retry racing its original).
    pub duplicates_suppressed: usize,
    /// Delivered arrivals that were speculative re-executions.
    pub retries_delivered: usize,
}

/// Runs Pseudocode 1 over a channel of arrivals: collect, let the
/// policy revise the timer, depart on timer expiry or full collection.
/// Duplicate origins are suppressed; children missing when the
/// watchdog fires are handed to `on_watchdog` (called at most once,
/// then dropped, so anything it holds — a sender into `rx`, say — is
/// released); children missing at departure come back in
/// [`Collected::censored`].
pub async fn collect(
    mut state: AggregatorState,
    cfg: CollectConfig,
    mut rx: mpsc::Receiver<Arrival>,
    on_watchdog: impl FnOnce(&[usize]) + Send,
) -> Collected {
    let CollectConfig {
        scale,
        start,
        expected,
        watchdog,
        censor,
        trace,
        metrics,
    } = cfg;
    let record = |at: f64, event: TraceEventKind| {
        if let Some(t) = &trace {
            t.record(at, event);
        }
    };
    state.set_explain(trace.is_some());
    let w0 = state.start();
    record(0.0, TraceEventKind::InitialWait { wait: w0 });
    let mut timer = start + scale.to_wall(w0);
    let mut watchdog_at = watchdog.map(|w| start + scale.to_wall(w));
    let mut on_watchdog = Some(on_watchdog);
    let mut payload = 0usize;
    let mut value = 0.0f64;
    let mut seen: HashSet<usize> = HashSet::with_capacity(expected.len());
    let mut observed: Vec<(usize, f64)> = Vec::with_capacity(expected.len());
    let mut duplicates_suppressed = 0usize;
    let mut retries_delivered = 0usize;
    let mut prev_detail = None;
    loop {
        // The vendored select! has exactly two arms, so the watchdog
        // shares the timer arm: sleep until whichever is earlier and
        // dispatch on which one is due.
        let wake = match watchdog_at {
            Some(w) if w < timer => w,
            _ => timer,
        };
        tokio::select! {
            // The channel arm goes first: a result already sitting in
            // the queue beat the timer in wall time, so it must not be
            // censored by a concurrently-due timer — and the watchdog
            // must not speculatively re-execute a child whose answer
            // is a `recv` away. Tight timers make both races real when
            // a cold-start wait scan delays the first poll.
            biased;
            msg = rx.recv() => match msg {
                Some(m) => {
                    let now_model = scale.to_model(start.elapsed());
                    if !seen.insert(m.origin) {
                        duplicates_suppressed += 1;
                        record(
                            now_model,
                            TraceEventKind::DuplicateSuppressed { origin: m.origin },
                        );
                        continue;
                    }
                    if m.retry {
                        retries_delivered += 1;
                        record(now_model, TraceEventKind::RetryDelivered { origin: m.origin });
                    }
                    record(
                        now_model,
                        TraceEventKind::Arrival {
                            arrival: seen.len(),
                            origin: m.origin,
                            retry: m.retry,
                        },
                    );
                    observed.push((m.origin, m.duration));
                    payload += m.payload;
                    value += m.value;
                    // Time the whole arrival handler (estimate + ε-scan);
                    // under a paused test clock it records zero.
                    let scan_begun = metrics.as_ref().map(|_| Instant::now());
                    let action = state.on_output(now_model);
                    if let (Some(met), Some(t0)) = (&metrics, scan_begun) {
                        met.wait_scan_seconds.record(t0.elapsed().as_secs_f64());
                    }
                    // One Estimate + Rearm pair per *new* decision;
                    // straw-man policies never revise, so they only ever
                    // log their initial wait.
                    let detail = state.last_detail();
                    if detail != prev_detail {
                        if let Some(d) = detail {
                            record(
                                now_model,
                                TraceEventKind::Estimate {
                                    mu: d.mu,
                                    sigma: d.sigma,
                                    samples: d.samples,
                                },
                            );
                            record(
                                now_model,
                                TraceEventKind::Rearm {
                                    wait: d.wait,
                                    expected_quality: d.expected_quality,
                                    gain: d.gain,
                                    loss: d.loss,
                                },
                            );
                        }
                        prev_detail = detail;
                    }
                    match action {
                        AggregatorAction::Depart => break,
                        AggregatorAction::SetTimer(w) => {
                            timer = start + scale.to_wall(w);
                        }
                    }
                }
                // All senders gone: nothing more can arrive.
                None => break,
            },
            () = tokio::time::sleep_until(wake) => {
                if wake < timer {
                    // Watchdog, not the policy timer: hand the caller
                    // every child still missing, exactly once.
                    watchdog_at = None;
                    let missing: Vec<usize> =
                        expected.clone().filter(|id| !seen.contains(id)).collect();
                    if let (Some(hook), false) = (on_watchdog.take(), missing.is_empty()) {
                        record(
                            scale.to_model(start.elapsed()),
                            TraceEventKind::WatchdogFired {
                                expected: expected.len(),
                                received: seen.len(),
                            },
                        );
                        hook(&missing);
                    }
                    continue;
                }
                // The armed instant always mirrors the state machine's
                // current wait, so this firing is never stale.
                let _ = state.on_timer(state.timer());
                record(scale.to_model(start.elapsed()), TraceEventKind::TimerFired);
                break;
            }
        }
    }
    let departed_at = scale.to_model(start.elapsed());
    let censored: Vec<usize> = expected.clone().filter(|id| !seen.contains(id)).collect();
    if censor {
        for &origin in &censored {
            record(departed_at, TraceEventKind::Censored { origin });
        }
    }
    record(
        departed_at,
        TraceEventKind::Departed {
            reason: if censored.is_empty() {
                ShipReason::AllArrived
            } else {
                ShipReason::TimerExpired
            },
            received: state.received(),
            expected: expected.len(),
        },
    );
    Collected {
        payload,
        value,
        received: state.received(),
        departed_at,
        observed,
        censored,
        duplicates_suppressed,
        retries_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::profile::ProfileConfig;
    use cedar_core::{PolicyContext, PreparedContexts, StageSpec, TreeSpec, WaitPolicyKind};
    use cedar_distrib::LogNormal;
    use cedar_estimate::Model;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn tree() -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 2),
        )
    }

    fn ctx(tree: &TreeSpec, deadline: f64) -> PolicyContext {
        let prepared = PreparedContexts::new(
            tree,
            deadline,
            WaitPolicyKind::Cedar,
            Model::LogNormal,
            64,
            &ProfileConfig::default(),
        );
        let mut contexts = prepared.for_query(tree);
        contexts.remove(0)
    }

    fn state(kind: WaitPolicyKind, deadline: f64) -> AggregatorState {
        let ctx = ctx(&tree(), deadline);
        AggregatorState::new(kind.instantiate(ctx.fanout, Model::LogNormal), ctx)
    }

    fn config(watchdog: Option<f64>) -> CollectConfig {
        CollectConfig {
            scale: TimeScale::new(Duration::from_micros(50)),
            start: Instant::now(),
            expected: 0..4,
            watchdog,
            censor: true,
            trace: None,
            metrics: None,
        }
    }

    fn arrival(origin: usize, retry: bool) -> Arrival {
        Arrival {
            payload: 1,
            value: 1.0,
            origin,
            duration: 2.0,
            retry,
        }
    }

    fn runtime() -> tokio::runtime::Runtime {
        tokio::runtime::Builder::new_multi_thread()
            .worker_threads(2)
            .enable_all()
            .build()
            .unwrap()
    }

    /// Runs one Cedar pass over `origins`, queued before the pass starts.
    fn collect_queued(
        deadline: f64,
        origins: &[usize],
        close: bool,
        trace: Option<TraceSite>,
    ) -> Collected {
        runtime().block_on(async {
            let (tx, rx) = mpsc::channel(8);
            for &origin in origins {
                tx.send(arrival(origin, false)).await.unwrap();
            }
            if close {
                drop(tx);
            }
            let mut cfg = config(None);
            cfg.trace = trace;
            collect(state(WaitPolicyKind::Cedar, deadline), cfg, rx, |_| {}).await
        })
    }

    #[test]
    fn departs_early_when_every_child_arrives() {
        let out = collect_queued(400.0, &[0, 1, 2, 3], false, None);
        assert_eq!(out.payload, 4);
        assert_eq!(out.received, 4);
        assert!(out.censored.is_empty());
        assert_eq!(out.duplicates_suppressed, 0);
        assert!((out.value - 4.0).abs() < 1e-12);
    }

    #[test]
    fn censors_missing_children_and_suppresses_duplicates() {
        // Children 0 and 1 arrive (1 twice); 2 and 3 never do.
        let out = collect_queued(60.0, &[0, 1, 1], true, None);
        assert_eq!(out.payload, 2);
        assert_eq!(out.duplicates_suppressed, 1);
        assert_eq!(out.censored, vec![2, 3]);
        assert!(out.departed_at > 0.0);
    }

    /// A result already queued when the policy timer is already due
    /// beat the timer in wall time: it is counted, not censored.
    #[tokio::test(start_paused = true)]
    async fn a_queued_arrival_beats_a_due_timer() {
        let (tx, rx) = mpsc::channel(8);
        tx.send(arrival(0, false)).await.unwrap();
        // A zero fixed wait arms the timer at the start instant, so it
        // is due on the very first poll, alongside the queued arrival.
        let out = collect(
            state(WaitPolicyKind::FixedWait(0.0), 60.0),
            config(None),
            rx,
            |_| {},
        )
        .await;
        assert_eq!(out.payload, 1, "the queued arrival was censored");
        assert_eq!(out.observed.len(), 1);
        assert_eq!(out.censored, vec![1, 2, 3]);
        drop(tx);
    }

    #[test]
    fn watchdog_reports_missing_children_once() {
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_in = Arc::clone(&fired);
        let out = runtime().block_on(async move {
            let (tx, rx) = mpsc::channel(8);
            tx.send(Arrival {
                duration: 1.0,
                ..arrival(0, false)
            })
            .await
            .unwrap();
            let retry_tx = tx.clone();
            drop(tx);
            // Fire the watchdog almost immediately; deliver a "retry"
            // for one missing child when it does.
            let hook = move |missing: &[usize]| {
                fired_in.fetch_add(1, Ordering::SeqCst);
                assert_eq!(missing, &[1, 2, 3]);
                let _ = retry_tx.try_send(arrival(1, true));
            };
            collect(
                state(WaitPolicyKind::Cedar, 200.0),
                config(Some(0.5)),
                rx,
                hook,
            )
            .await
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(out.retries_delivered, 1);
        assert!(out.received >= 2);
        assert_eq!(out.censored, vec![2, 3]);
    }

    #[test]
    fn trace_records_the_pass_timeline() {
        let trace = Arc::new(QueryTrace::new());
        let site = TraceSite {
            trace: Arc::clone(&trace),
            level: 1,
            index: 3,
        };
        let out = collect_queued(60.0, &[0, 1, 1], true, Some(site));
        let summary = trace.summary();
        assert_eq!(summary.arrivals, 2);
        assert_eq!(summary.duplicates_suppressed, 1);
        assert_eq!(summary.censored_observations, out.censored.len());
        let events = trace.events();
        assert!(
            events.iter().all(|e| e.level == 1 && e.index == 3),
            "{events:?}"
        );
        assert!(matches!(
            events.first().map(|e| &e.kind),
            Some(TraceEventKind::InitialWait { .. })
        ));
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(TraceEventKind::Departed { .. })
        ));
    }
}
