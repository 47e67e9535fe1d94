//! Query execution on the tokio runtime: leaf workers, aggregators and
//! root wired by channels, timers driven by the wall clock.
//!
//! Every aggregator is its own task running [`collect`]. The leaf
//! workers are not: each bottom aggregator gets one *feeder* task that
//! plays its children's completions in `(fire time, origin)` order,
//! sending each result into the aggregator's channel when its sampled
//! duration elapses, and applying each worker's fault fate (straggle,
//! hang, crash, drop, duplicate) at the same model instant a dedicated
//! worker task would. A query therefore spawns one task per aggregator,
//! one feeder per bottom aggregator, and one task per speculative retry
//! — not one per leaf process.

use crate::collect::{collect, CollectConfig, TraceSite};
use crate::faults::{ChaosLog, FailureReport, FaultKind, FaultPlan};
use crate::metrics::RuntimeMetrics;
use crate::scale::TimeScale;
use cedar_core::policy::WaitPolicyKind;
use cedar_core::profile::ProfileConfig;
use cedar_core::setup::PreparedContexts;
use cedar_core::{AggregatorState, TreeSpec};
use cedar_distrib::ContinuousDist;
use cedar_estimate::Model;
use cedar_telemetry::{QueryTrace, ShipReason, TraceEventKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;
use tokio::time::Instant;

/// The engine's channel-send boundary type, shared with the mesh so a
/// partial result decoded off a socket flows through the identical
/// aggregation path as a local one.
use crate::collect::Arrival as PartialResult;

/// Chaos state shared by every task of one query.
struct ChaosShared {
    plan: Arc<FaultPlan>,
    log: ChaosLog,
    /// When hung tasks finally release their channel ends: past the
    /// deadline, so a hang can never be mistaken for a slow completion.
    hang_until: Instant,
    /// True stage-0 distribution that speculative re-executions draw from.
    dist: Arc<dyn ContinuousDist>,
    /// Per-worker partial values, for re-executions.
    values: Arc<Vec<f64>>,
}

/// Per-aggregator chaos wiring.
struct AggChaos {
    shared: Arc<ChaosShared>,
    /// This aggregator's level (1 = bottom aggregators).
    level: usize,
    /// The fault striking this aggregator's own send boundary, if any.
    fault: Option<FaultKind>,
    /// A sender into this aggregator's own channel for speculative
    /// retries (bottom aggregators with a watchdog armed only). The
    /// watchdog hook holds it until it fires, so the channel cannot
    /// close while a retry might still be launched.
    retry_tx: Option<mpsc::Sender<PartialResult>>,
}

/// Configuration of one runtime query.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The query's true stage distributions and fan-outs.
    pub tree: TreeSpec,
    /// The population tree the policies learned offline.
    pub priors: TreeSpec,
    /// End-to-end deadline in model units.
    pub deadline: f64,
    /// Model-to-wall time mapping.
    pub scale: TimeScale,
    /// Family assumed by Cedar's online estimator.
    pub model: Model,
    /// ε-scan resolution.
    pub scan_steps: usize,
    /// Quality-profile resolution.
    pub profile: ProfileConfig,
    /// RNG seed for duration sampling.
    pub seed: u64,
    /// Optional fault-injection plan. `None` (the default) runs the
    /// engine exactly as before — the clean path is byte-identical.
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional per-query decision trace. When attached, every
    /// Pseudocode-1 timeline event (arrivals, estimates, re-arms,
    /// watchdog/retry/fault events, ship decisions) is recorded into it
    /// and policies run in explain mode.
    pub trace: Option<Arc<QueryTrace>>,
    /// Optional shared runtime metrics (wait-scan latency, fault and
    /// outcome counters). One instance is typically shared across every
    /// query of a service.
    pub metrics: Option<Arc<RuntimeMetrics>>,
    /// Epoch of the priors snapshot this query planned against (surfaced
    /// in the trace's `QueryStart` event; 0 when priors are static).
    pub priors_epoch: u64,
}

impl RuntimeConfig {
    /// Creates a config with priors equal to the true tree and a
    /// 1 model unit = 1 ms scale.
    pub fn new(tree: TreeSpec, deadline: f64) -> Self {
        Self {
            priors: tree.clone(),
            tree,
            deadline,
            scale: TimeScale::millis(),
            model: Model::LogNormal,
            scan_steps: 300,
            profile: ProfileConfig::default(),
            seed: 0xCEDA2,
            faults: None,
            trace: None,
            metrics: None,
            priors_epoch: 0,
        }
    }

    /// Replaces the prior tree.
    pub fn with_priors(mut self, priors: TreeSpec) -> Self {
        self.priors = priors;
        self
    }

    /// Sets the time scale.
    pub fn with_scale(mut self, scale: TimeScale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the estimator family.
    pub fn with_model(mut self, model: Model) -> Self {
        self.model = model;
        self
    }

    /// Installs a fault-injection plan (and its recovery policy).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Attaches a decision trace (turns on policy explain mode).
    pub fn with_trace(mut self, trace: Arc<QueryTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches shared runtime metrics.
    pub fn with_metrics(mut self, metrics: Arc<RuntimeMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Sets the priors epoch surfaced in the trace.
    pub fn with_priors_epoch(mut self, epoch: u64) -> Self {
        self.priors_epoch = epoch;
        self
    }
}

/// What the root collected by the deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutcome {
    /// Fraction of process outputs included in the response.
    pub quality: f64,
    /// Number of process outputs included.
    pub included_outputs: usize,
    /// Total leaf processes.
    pub total_processes: usize,
    /// Top-level results that made the deadline.
    pub root_arrivals: usize,
    /// Sum of the included workers' partial values (the "answer" of the
    /// aggregation query).
    pub value_sum: f64,
    /// Wall-clock time the query took (bounded by the scaled deadline).
    pub wall_elapsed: Duration,
    /// The per-stage durations the engine actually ran with (model
    /// units): `realized_durations[0]` is one entry per leaf process,
    /// `realized_durations[level]` one entry per aggregator at `level`.
    /// These are what an online estimator should refit from — they are
    /// the ground truth of this execution, not a fresh model draw.
    ///
    /// Under a fault plan this holds only the durations that were
    /// actually *observed* upstream (delivered and counted), sorted by
    /// task origin — crashed, hung and dropped tasks are excluded here
    /// and surface in [`RuntimeOutcome::censored_durations`] instead.
    pub realized_durations: Vec<Vec<f64>>,
    /// Per-query fault/recovery summary. [`FailureReport::is_clean`] on
    /// runs without a fault plan.
    pub failures: FailureReport,
    /// Right-censoring thresholds, same shape as `realized_durations`:
    /// `censored_durations[0]` has one entry per leaf worker that never
    /// arrived at a departed aggregator (censored at the departure
    /// time). Feeding these to a censored MLE keeps the online refit
    /// unbiased when crashes thin out the slow tail. Aggregator stages
    /// are never censored (their non-arrival is absorbed by the stage
    /// above); all stages are empty when no fault plan is installed.
    pub censored_durations: Vec<Vec<f64>>,
}

/// Runs one aggregation query; every worker contributes the value `1.0`
/// (so `value_sum == included_outputs as f64`).
pub async fn run_query(cfg: &RuntimeConfig, kind: WaitPolicyKind) -> RuntimeOutcome {
    let n = cfg.tree.total_processes();
    run_query_with_values(cfg, kind, crate::pool::ones(n)).await
}

/// Runs one aggregation query with explicit per-worker partial values
/// (`values[i]` is worker `i`'s contribution; aggregators sum them).
///
/// # Panics
///
/// Panics if `values.len()` differs from the tree's process count or the
/// tree has fewer than two levels (a real partition-aggregate job always
/// has at least one aggregator stage).
pub async fn run_query_with_values(
    cfg: &RuntimeConfig,
    kind: WaitPolicyKind,
    values: Arc<Vec<f64>>,
) -> RuntimeOutcome {
    let prepared = PreparedContexts::new(
        &cfg.priors,
        cfg.deadline,
        kind,
        cfg.model,
        cfg.scan_steps,
        &cfg.profile,
    );
    run_query_prepared(cfg, kind, values, &prepared).await
}

/// Like [`run_query_with_values`], but reuses an already-built
/// [`PreparedContexts`]. Building one is the expensive, query-independent
/// part of setup (quality profiles + offline wait chain over the priors),
/// so callers issuing many queries against the same priors and deadline —
/// notably the aggregation service's profile cache — should build it once
/// and pass it here.
///
/// # Panics
///
/// Panics if `values.len()` differs from the tree's process count, the
/// tree has fewer than two levels, or `prepared` was built for a tree
/// shape other than `cfg.tree`'s.
pub async fn run_query_prepared(
    cfg: &RuntimeConfig,
    kind: WaitPolicyKind,
    values: Arc<Vec<f64>>,
    prepared: &PreparedContexts,
) -> RuntimeOutcome {
    let n = cfg.tree.levels();
    assert!(n >= 2, "runtime queries need at least one aggregator level");
    let total_processes = cfg.tree.total_processes();
    assert_eq!(
        values.len(),
        total_processes,
        "one value per leaf process required"
    );

    // Sample all durations up front (same order as the simulator).
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let process_durations = cfg.tree.stage(0).dist.sample_vec(&mut rng, total_processes);
    let agg_levels = n - 1;
    let own_durations: Vec<Vec<f64>> = (1..=agg_levels)
        .map(|level| {
            let count = cfg.tree.nodes_at(level);
            cfg.tree.stage(level).dist.sample_vec(&mut rng, count)
        })
        .collect();

    let contexts = prepared.for_query(&cfg.tree);

    let start = Instant::now();
    let deadline_instant = start + cfg.scale.to_wall(cfg.deadline);

    // Root-level trace site (the root collector sits above the top
    // aggregator stage, so it reports as level `n`).
    let site = |level: usize, index: usize| {
        cfg.trace.clone().map(|trace| TraceSite {
            trace,
            level,
            index,
        })
    };
    let root_site = site(n, 0);
    let root_record = |at: f64, kind: TraceEventKind| {
        if let Some(s) = &root_site {
            s.record(at, kind);
        }
    };
    root_record(
        0.0,
        TraceEventKind::QueryStart {
            deadline: cfg.deadline,
            total_processes,
            priors_epoch: cfg.priors_epoch,
        },
    );

    // Chaos wiring (None on clean runs; the clean path below is
    // byte-identical to the fault-free engine).
    let hang_until = deadline_instant + cfg.scale.to_wall(1.0);
    let chaos = cfg.faults.as_ref().map(|plan| {
        Arc::new(ChaosShared {
            plan: plan.clone(),
            log: ChaosLog::new(n),
            hang_until,
            dist: cfg.tree.stage(0).dist.clone(),
            values: values.clone(),
        })
    });
    // The watchdog fires at a quantile of the *learned* leaf
    // distribution: beyond it, a missing worker is presumed dead rather
    // than slow. Clamped to the deadline — retrying later is pointless.
    let watchdog = cfg.faults.as_ref().and_then(|plan| {
        let rec = plan.recovery();
        rec.speculative_retry.then(|| {
            cfg.priors
                .stage(0)
                .dist
                .quantile(rec.watchdog_quantile.clamp(0.5, 0.9999))
                .clamp(0.0, cfg.deadline)
        })
    });
    // Global task-origin numbering: workers 0..W, then each aggregator
    // level in order. Scheduling-independent, so dedup and the chaos log
    // are deterministic.
    let mut origin_base = vec![0usize; n];
    let mut acc = total_processes;
    for (level, slot) in origin_base.iter_mut().enumerate().skip(1) {
        *slot = acc;
        acc += cfg.tree.nodes_at(level);
    }

    // Root channel.
    let top_fanout = cfg.tree.stage(agg_levels - 1).fanout.max(1);
    let (root_tx, mut root_rx) =
        mpsc::channel::<PartialResult>(cfg.tree.nodes_at(agg_levels).max(top_fanout));

    // Build aggregator channels level by level, top-down, so each level
    // knows its parent's senders.
    let mut upper_txs: Vec<mpsc::Sender<PartialResult>> = vec![root_tx];
    let mut level1_txs: Vec<mpsc::Sender<PartialResult>> = Vec::new();
    for level in (1..=agg_levels).rev() {
        let count = cfg.tree.nodes_at(level);
        let fan_in = cfg.tree.stage(level - 1).fanout;
        let parent_fanout = if level == agg_levels {
            // All top-level aggregators share the single root receiver.
            count
        } else {
            cfg.tree.stage(level).fanout
        };
        let child_base = if level == 1 {
            0
        } else {
            origin_base[level - 1]
        };
        // Only bottom aggregators watch for dead workers.
        let watchdog = watchdog.filter(|_| level == 1);
        let mut txs = Vec::with_capacity(count);
        for agg in 0..count {
            let (tx, rx) = mpsc::channel::<PartialResult>(fan_in.max(1));
            let parent_tx = if level == agg_levels {
                upper_txs[0].clone()
            } else {
                upper_txs[agg / parent_fanout.max(1)].clone()
            };
            let state = AggregatorState::new(
                kind.instantiate(contexts[level - 1].fanout, cfg.model),
                contexts[level - 1].clone(),
            );
            let collect_cfg = CollectConfig {
                scale: cfg.scale,
                start,
                expected: (child_base + agg * fan_in)..(child_base + (agg + 1) * fan_in),
                watchdog,
                // Only the bottom stage feeds the censored refit path: a
                // missing aggregator is absorbed by the stage above.
                censor: chaos.is_some() && level == 1,
                trace: site(level, agg),
                metrics: cfg.metrics.clone(),
            };
            let agg_chaos = chaos.as_ref().map(|c| AggChaos {
                shared: Arc::clone(c),
                level,
                fault: c.plan.fault_for(level, agg),
                retry_tx: watchdog.map(|_| tx.clone()),
            });
            let own = own_durations[level - 1][agg];
            let agg_origin = origin_base[level] + agg;
            // cedar-lint: allow(L10): one task per aggregator of a tree already validated against MAX_STAGES at decode; the loop bound is the tree shape, not raw client input
            tokio::spawn(aggregator_task(
                state,
                collect_cfg,
                rx,
                parent_tx,
                own,
                agg_origin,
                agg_chaos,
            ));
            txs.push(tx);
        }
        if level == 1 {
            level1_txs = txs;
        } else {
            upper_txs = txs;
        }
    }

    // Leaf workers: one feeder per bottom aggregator plays its children.
    // Faults strike at the channel-send boundary: the sampled duration
    // is the work, the send is the one act a fault can deny.
    let k1 = cfg.tree.stage(0).fanout;
    let feeder = Feeder {
        chaos: chaos.clone(),
        trace: cfg.trace.clone(),
        scale: cfg.scale,
        start,
    };
    for (agg, tx) in level1_txs.into_iter().enumerate() {
        let leaves = (agg * k1..(agg + 1) * k1)
            .map(|origin| {
                let fault = chaos.as_ref().and_then(|c| c.plan.fault_for(0, origin));
                let duration = match fault {
                    Some(FaultKind::Straggle { factor }) => process_durations[origin] * factor,
                    _ => process_durations[origin],
                };
                let fire_at = match fault {
                    // A hung worker never finishes: it holds its sender
                    // past the deadline so the channel cannot close early.
                    Some(FaultKind::Hang) => hang_until,
                    _ => start + cfg.scale.to_wall(duration),
                };
                Leaf {
                    fire_at,
                    origin,
                    duration,
                    value: values[origin],
                    fault,
                }
            })
            .collect();
        // cedar-lint: allow(L10): one task per bottom aggregator of the validated tree; the loop bound is the tree shape, not raw client input
        tokio::spawn(feeder.clone().run(leaves, tx));
    }
    // Drop our clones so channels close when tasks finish.
    drop(upper_txs);

    // Root: gather until the deadline (suppressing duplicate top-level
    // arrivals when faults can duplicate them).
    let mut included = 0usize;
    let mut arrivals = 0usize;
    let mut value_sum = 0.0f64;
    let mut root_seen: HashSet<usize> = HashSet::new();
    let mut end_reason = ShipReason::AllArrived;
    loop {
        tokio::select! {
            () = tokio::time::sleep_until(deadline_instant) => {
                end_reason = ShipReason::DeadlineExpired;
                break;
            }
            msg = root_rx.recv() => match msg {
                Some(m) => {
                    let now_model = cfg.scale.to_model(start.elapsed());
                    if let Some(c) = &chaos {
                        if !root_seen.insert(m.origin) {
                            c.log.duplicates_suppressed(1);
                            root_record(
                                now_model,
                                TraceEventKind::DuplicateSuppressed { origin: m.origin },
                            );
                            continue;
                        }
                    }
                    included += m.payload;
                    arrivals += 1;
                    value_sum += m.value;
                    root_record(
                        now_model,
                        TraceEventKind::RootArrival {
                            origin: m.origin,
                            weight: m.payload,
                        },
                    );
                }
                None => break,
            },
        }
    }

    let (failures, realized_durations, censored_durations) = match &chaos {
        Some(c) => c.log.finish(),
        None => {
            let mut realized = Vec::with_capacity(1 + own_durations.len());
            realized.push(process_durations);
            realized.extend(own_durations);
            (FailureReport::default(), realized, vec![Vec::new(); n])
        }
    };

    let outcome = RuntimeOutcome {
        quality: included as f64 / total_processes.max(1) as f64,
        included_outputs: included,
        total_processes,
        root_arrivals: arrivals,
        value_sum,
        wall_elapsed: start.elapsed().min(cfg.scale.to_wall(cfg.deadline)),
        realized_durations,
        failures,
        censored_durations,
    };
    root_record(
        cfg.scale.to_model(outcome.wall_elapsed),
        TraceEventKind::QueryEnd {
            quality: outcome.quality,
            included: outcome.included_outputs,
            reason: end_reason,
        },
    );
    if let Some(m) = &cfg.metrics {
        m.observe_outcome(&outcome);
    }
    outcome
}

/// One aggregator: Pseudocode 1 via [`collect`], then aggregate (sleep
/// the own duration) and ship upstream.
///
/// With chaos wiring attached, the watchdog hook re-executes each child
/// still missing at the learned-quantile timeout exactly once, the
/// collection outcome feeds the query's chaos log (suppressed
/// duplicates everywhere; delivered retries and observed and censored
/// durations at the bottom stage), and the aggregator's own upstream
/// send is subject to the fault plan.
async fn aggregator_task(
    state: AggregatorState,
    cfg: CollectConfig,
    rx: mpsc::Receiver<PartialResult>,
    parent_tx: mpsc::Sender<PartialResult>,
    own_duration: f64,
    origin: usize,
    mut chaos: Option<AggChaos>,
) {
    let (scale, start, watchdog) = (cfg.scale, cfg.start, cfg.watchdog);
    let site = cfg.trace.clone();
    let retry = chaos
        .as_mut()
        .and_then(|c| Some((Arc::clone(&c.shared), c.retry_tx.take()?)));
    let hook_site = site.clone();
    let out = collect(state, cfg, rx, move |missing: &[usize]| {
        let (Some((c, retry_tx)), Some(at)) = (retry, watchdog) else {
            return;
        };
        let at = start + scale.to_wall(at);
        let now_model = scale.to_model(start.elapsed());
        for &id in missing {
            c.log.retry_launched();
            if let Some(s) = &hook_site {
                s.record(now_model, TraceEventKind::RetryLaunched { origin: id });
            }
            let mut rng = StdRng::seed_from_u64(c.plan.retry_seed(id));
            let dur = c.dist.sample(&mut rng);
            let fire_at = at + scale.to_wall(dur);
            let retry_tx = retry_tx.clone();
            let value = c.values[id];
            // cedar-lint: allow(L10): at most one retry per missing child; `missing` is within the fan-in range fixed by the validated tree
            tokio::spawn(async move {
                tokio::time::sleep_until(fire_at).await;
                let _ = retry_tx
                    .send(PartialResult {
                        payload: 1,
                        value,
                        origin: id,
                        duration: dur,
                        retry: true,
                    })
                    .await;
            });
        }
    })
    .await;
    let depart_model = out.departed_at;
    if let Some(c) = &chaos {
        let log = &c.shared.log;
        log.duplicates_suppressed(out.duplicates_suppressed);
        log.retries_delivered(out.retries_delivered);
        if c.level == 1 {
            for &(id, duration) in &out.observed {
                log.delivered(0, id, duration);
            }
            // Children missing at departure are right-censored at the
            // departure time: all we know is their duration exceeds it.
            for &id in &out.censored {
                log.censored(0, id, depart_model);
            }
        }
    }
    if out.payload > 0 {
        // Pair the fault with its chaos wiring so each arm gets both
        // without re-asserting the implication.
        let own_fault = chaos
            .as_ref()
            .and_then(|c| c.fault.map(|k| (k, &*c.shared)));
        let fault_at = |at: f64, k: FaultKind| {
            if let Some(s) = &site {
                let fault = k.class();
                s.record(at, TraceEventKind::FaultInjected { fault, origin });
            }
        };
        match own_fault {
            Some((k @ FaultKind::CrashBeforeSend, c)) => {
                // Died at departure: no aggregation work, no send.
                c.log.injected(k);
                fault_at(depart_model, k);
            }
            Some((k @ FaultKind::Hang, c)) => {
                c.log.injected(k);
                fault_at(depart_model, k);
                tokio::time::sleep_until(c.hang_until).await;
            }
            own_fault => {
                let own_duration = match own_fault {
                    Some((k @ FaultKind::Straggle { factor }, c)) => {
                        c.log.injected(k);
                        fault_at(depart_model, k);
                        own_duration * factor
                    }
                    _ => own_duration,
                };
                tokio::time::sleep(scale.to_wall(own_duration)).await;
                if let Some((k @ FaultKind::DropMessage, c)) = own_fault {
                    // Aggregation completed but the result is lost.
                    c.log.injected(k);
                    fault_at(scale.to_model(start.elapsed()), k);
                    return;
                }
                if let Some(c) = &chaos {
                    c.shared.log.delivered(c.level, origin, own_duration);
                }
                let msg = PartialResult {
                    payload: out.payload,
                    value: out.value,
                    origin,
                    duration: own_duration,
                    retry: false,
                };
                if let Some((k @ FaultKind::DuplicateMessage, c)) = own_fault {
                    c.log.injected(k);
                    fault_at(scale.to_model(start.elapsed()), k);
                    let _ = parent_tx.send(msg).await;
                }
                let _ = parent_tx.send(msg).await;
            }
        }
    }
}

/// One leaf worker as its feeder plays it.
struct Leaf {
    /// When the worker's fate plays out: its completion for a live
    /// worker (straggle included), the hang release for a hung one.
    fire_at: Instant,
    origin: usize,
    /// Realized model-time duration (inflated for a straggler).
    duration: f64,
    value: f64,
    fault: Option<FaultKind>,
}

/// Per-query wiring shared by every feeder.
#[derive(Clone)]
struct Feeder {
    chaos: Option<Arc<ChaosShared>>,
    trace: Option<Arc<QueryTrace>>,
    scale: TimeScale,
    start: Instant,
}

impl Feeder {
    /// Records an injected worker fault in the chaos log and, at the
    /// same instant, in the trace, so their counts agree.
    fn inject(&self, kind: FaultKind, origin: usize) {
        if let Some(c) = &self.chaos {
            c.log.injected(kind);
        }
        if let Some(t) = &self.trace {
            t.record(
                self.scale.to_model(self.start.elapsed()),
                0,
                origin,
                TraceEventKind::FaultInjected {
                    fault: kind.class(),
                    origin,
                },
            );
        }
    }

    /// Plays one bottom aggregator's leaf workers into `tx`.
    ///
    /// Hangs and straggles are injected up front, as a worker learns
    /// its fate when it starts; crashes, drops and duplicates at fire
    /// time. Results go out in `(fire_at, origin)` order, every already
    /// due one in the same wake. Once a send fails the aggregator has
    /// departed: only entries with a fault still to log are played on.
    async fn run(self, mut leaves: Vec<Leaf>, tx: mpsc::Sender<PartialResult>) {
        for leaf in &leaves {
            if let Some(k @ (FaultKind::Hang | FaultKind::Straggle { .. })) = leaf.fault {
                self.inject(k, leaf.origin);
            }
        }
        leaves.sort_by_key(|l| (l.fire_at, l.origin));
        let mut departed = false;
        for leaf in leaves {
            let injects_at_fire = matches!(
                leaf.fault,
                Some(
                    FaultKind::CrashBeforeSend
                        | FaultKind::DropMessage
                        | FaultKind::DuplicateMessage
                )
            );
            if departed && !injects_at_fire {
                continue;
            }
            tokio::time::sleep_until(leaf.fire_at).await;
            let copies = match leaf.fault {
                // The released hang sends nothing.
                Some(FaultKind::Hang) => 0,
                // The work happens; the result never leaves the host.
                Some(k @ (FaultKind::CrashBeforeSend | FaultKind::DropMessage)) => {
                    self.inject(k, leaf.origin);
                    0
                }
                Some(k @ FaultKind::DuplicateMessage) => {
                    self.inject(k, leaf.origin);
                    2
                }
                _ => 1,
            };
            let msg = PartialResult {
                payload: 1,
                value: leaf.value,
                origin: leaf.origin,
                duration: leaf.duration,
                retry: false,
            };
            for _ in 0..copies {
                // A send error is exactly the "output ignored upstream"
                // case: the aggregator already departed.
                departed = departed || tx.send(msg).await.is_err();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::StageSpec;
    use cedar_distrib::{LogNormal, Uniform};

    fn small_tree() -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(2.0, 0.6).unwrap(), 8),
            StageSpec::new(LogNormal::new(2.0, 0.4).unwrap(), 4),
        )
    }

    #[tokio::test(start_paused = true)]
    async fn generous_deadline_collects_everything() {
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(1.0, 5.0).unwrap(), 6),
            StageSpec::new(Uniform::new(1.0, 5.0).unwrap(), 3),
        );
        let cfg = RuntimeConfig::new(tree, 1000.0).with_seed(1);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.included_outputs, 18);
        assert_eq!(out.quality, 1.0);
        assert_eq!(out.root_arrivals, 3);
        assert!((out.value_sum - 18.0).abs() < 1e-9);
    }

    #[tokio::test(start_paused = true)]
    async fn zero_like_deadline_collects_nothing() {
        let cfg = RuntimeConfig::new(small_tree(), 0.001).with_seed(2);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.included_outputs, 0);
        assert_eq!(out.quality, 0.0);
    }

    #[tokio::test(start_paused = true)]
    async fn quality_is_fraction_under_tight_deadline() {
        let cfg = RuntimeConfig::new(small_tree(), 20.0).with_seed(3);
        let out = run_query(&cfg, WaitPolicyKind::ProportionalSplit).await;
        assert!((0.0..=1.0).contains(&out.quality));
        assert_eq!(out.total_processes, 32);
    }

    #[tokio::test(start_paused = true)]
    async fn values_are_aggregated() {
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 4),
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 2),
        );
        let cfg = RuntimeConfig::new(tree, 100.0).with_seed(4);
        let values: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let out = run_query_with_values(&cfg, WaitPolicyKind::Cedar, Arc::new(values)).await;
        // 0 + 1 + ... + 7 = 28.
        assert!((out.value_sum - 28.0).abs() < 1e-9);
    }

    #[tokio::test(start_paused = true)]
    async fn cedar_beats_or_matches_bad_fixed_wait() {
        // A fixed wait of ~0 ships immediately with almost nothing;
        // Cedar must do better on the same sampled query.
        let cfg = RuntimeConfig::new(small_tree(), 40.0).with_seed(5);
        let cedar = run_query(&cfg, WaitPolicyKind::Cedar).await;
        let hasty = run_query(&cfg, WaitPolicyKind::FixedWait(0.01)).await;
        assert!(
            cedar.included_outputs >= hasty.included_outputs,
            "cedar {} vs hasty {}",
            cedar.included_outputs,
            hasty.included_outputs
        );
    }

    #[tokio::test(start_paused = true)]
    async fn three_level_runtime_works() {
        let tree = TreeSpec::new(vec![
            StageSpec::new(LogNormal::new(1.5, 0.5).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 3),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 2),
        ]);
        let cfg = RuntimeConfig::new(tree, 60.0).with_seed(6);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.total_processes, 24);
        assert!(out.quality > 0.3, "quality {}", out.quality);
        assert!(out.root_arrivals <= 2);
    }

    #[tokio::test(start_paused = true)]
    async fn deterministic_under_seed_and_paused_time() {
        let cfg = RuntimeConfig::new(small_tree(), 30.0).with_seed(7);
        let a = run_query(&cfg, WaitPolicyKind::Ideal).await;
        let b = run_query(&cfg, WaitPolicyKind::Ideal).await;
        assert_eq!(a.included_outputs, b.included_outputs);
    }

    #[tokio::test(start_paused = true)]
    async fn realized_durations_cover_every_stage() {
        let tree = TreeSpec::new(vec![
            StageSpec::new(LogNormal::new(1.5, 0.5).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 3),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 2),
        ]);
        let cfg = RuntimeConfig::new(tree, 60.0).with_seed(11);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.realized_durations.len(), 3);
        assert_eq!(out.realized_durations[0].len(), 24);
        assert_eq!(out.realized_durations[1].len(), 6);
        assert_eq!(out.realized_durations[2].len(), 2);
        assert!(out
            .realized_durations
            .iter()
            .flatten()
            .all(|d| d.is_finite() && *d >= 0.0));
    }

    #[tokio::test(start_paused = true)]
    async fn prepared_contexts_reuse_matches_fresh_build() {
        let cfg = RuntimeConfig::new(small_tree(), 30.0).with_seed(9);
        let prepared = PreparedContexts::new(
            &cfg.priors,
            cfg.deadline,
            WaitPolicyKind::Cedar,
            cfg.model,
            cfg.scan_steps,
            &cfg.profile,
        );
        let n = cfg.tree.total_processes();
        let values = Arc::new(vec![1.0; n]);
        let fresh = run_query(&cfg, WaitPolicyKind::Cedar).await;
        let cached = run_query_prepared(&cfg, WaitPolicyKind::Cedar, values, &prepared).await;
        assert_eq!(fresh.included_outputs, cached.included_outputs);
        assert_eq!(fresh.root_arrivals, cached.root_arrivals);
        assert_eq!(fresh.realized_durations, cached.realized_durations);
    }

    #[test]
    #[should_panic(expected = "one value per leaf")]
    fn rejects_wrong_value_count() {
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_time()
            .build()
            .unwrap();
        rt.block_on(async {
            let cfg = RuntimeConfig::new(small_tree(), 30.0);
            run_query_with_values(&cfg, WaitPolicyKind::Cedar, Arc::new(vec![1.0])).await;
        });
    }

    /// One seeded query under a mixed fault plan (crash, hang, straggle,
    /// drop and duplicate, plus speculative retries), pinned to recorded
    /// values: the fault bookkeeping must not depend on how the leaves
    /// are scheduled.
    #[tokio::test(start_paused = true)]
    async fn mixed_faults_pin_the_outcome() {
        use crate::faults::{FaultSpec, RecoveryPolicy};
        use cedar_telemetry::FaultClass;

        let spec = FaultSpec {
            crash: 0.1,
            hang: 0.1,
            straggle: 0.1,
            straggle_factor: 3.0,
            drop: 0.1,
            duplicate: 0.1,
            workers_only: true,
        };
        let plan = FaultPlan::new(0, spec).with_recovery(RecoveryPolicy {
            watchdog_quantile: 0.7,
            speculative_retry: true,
        });
        let trace = Arc::new(QueryTrace::new());
        let cfg = RuntimeConfig::new(small_tree(), 40.0)
            .with_seed(0)
            .with_faults(plan)
            .with_trace(Arc::clone(&trace));
        let values: Vec<f64> = (0..32).map(f64::from).collect();
        let out = run_query_with_values(&cfg, WaitPolicyKind::Cedar, Arc::new(values)).await;

        assert_eq!(out.included_outputs, 29);
        assert_eq!(out.value_sum, 442.0);
        assert_eq!(
            out.realized_durations,
            vec![
                vec![
                    10.694293979092288,
                    11.590368264802178,
                    2.299225716032438,
                    8.394085129663004,
                    5.008364104422022,
                    11.556450065894998,
                    4.6368673746939,
                    11.06122335559028,
                    6.855231940874804,
                    8.453113125940959,
                    3.8579073086366424,
                    3.5720547313315048,
                    10.288357708703321,
                    2.744450208697876,
                    6.603525720460826,
                    6.963038201880679,
                    7.375845168594585,
                    4.7153495063158175,
                    8.081406562968318,
                    4.022267520817319,
                    8.436068477354624,
                    4.503100271657672,
                    7.15760257036835,
                    13.658072842717361,
                    2.889596925287424,
                    2.953763620883492,
                    5.121340129069366,
                    4.618949590510158,
                    10.174110795019867,
                ],
                vec![
                    12.874291244931447,
                    8.88138214742616,
                    3.102561205527132,
                    4.085134860772018,
                ],
            ]
        );
        assert_eq!(
            out.censored_durations,
            vec![vec![25.6, 25.733333000000002, 25.6], vec![]]
        );
        assert_eq!(
            out.failures,
            FailureReport {
                crashed: 3,
                hung: 3,
                straggled: 3,
                dropped: 4,
                duplicated: 2,
                retries_launched: 17,
                retries_delivered: 10,
                duplicates_suppressed: 6,
                censored_observations: 3,
            }
        );
        assert!(out.failures.matches_trace(&trace.summary()));

        // A crash or drop that fires after its aggregator departed is
        // still counted as injected, at its own fire time.
        let events = trace.events();
        let departed_at = |agg: usize| {
            events
                .iter()
                .find(|e| {
                    e.level == 1
                        && e.index == agg
                        && matches!(e.kind, TraceEventKind::Departed { .. })
                })
                .map(|e| e.at)
        };
        let late = events.iter().filter(|e| {
            e.level == 0
                && matches!(
                    e.kind,
                    TraceEventKind::FaultInjected {
                        fault: FaultClass::Crash | FaultClass::Drop,
                        ..
                    }
                )
                && departed_at(e.index / 8).is_some_and(|t| e.at > t)
        });
        assert_eq!(late.count(), 1);
    }
}
