//! The aggregator state machine (Pseudocode 1), shared by the
//! discrete-event simulator and the tokio runtime.
//!
//! The machine owns a wait policy and mirrors the paper's event handlers:
//!
//! - `PARALLELHIERARCHICALCOMP`: [`AggregatorState::start`] sets the
//!   initial timer;
//! - `PROCESSHANDLER`: [`AggregatorState::on_output`] records an arrival,
//!   lets the policy revise the wait, and departs early once all inputs
//!   are in;
//! - `TIMEREXPIRE`: [`AggregatorState::on_timer`] departs with whatever
//!   has been collected.
//!
//! Time is abstract (absolute units from query start); the driver maps it
//! onto simulated or wall-clock time.

use crate::policy::{PolicyContext, WaitPolicy};

/// What the driver should do after feeding an event to the state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregatorAction {
    /// Keep waiting; (re-)arm the departure timer for this absolute time.
    SetTimer(f64),
    /// Ship the collected outputs upstream now.
    Depart,
}

/// Per-(aggregator, query) execution state.
#[derive(Debug)]
pub struct AggregatorState {
    policy: Box<dyn WaitPolicy>,
    ctx: PolicyContext,
    received: usize,
    timer: f64,
    departed: bool,
}

impl AggregatorState {
    /// Creates the state machine; call [`AggregatorState::start`] before
    /// feeding events.
    pub fn new(policy: Box<dyn WaitPolicy>, ctx: PolicyContext) -> Self {
        Self {
            policy,
            ctx,
            received: 0,
            timer: 0.0,
            departed: false,
        }
    }

    /// Starts the query: asks the policy for the initial wait and returns
    /// the first timer (absolute, clamped to `[0, D]`; a non-finite wait
    /// from a misbehaving policy degrades to the full deadline).
    pub fn start(&mut self) -> f64 {
        let w = self.policy.initial_wait(&self.ctx);
        self.timer = if w.is_finite() {
            w.clamp(0.0, self.ctx.deadline)
        } else {
            self.ctx.deadline
        };
        self.timer
    }

    /// Handles one downstream output arriving at absolute time `now`.
    ///
    /// Returns [`AggregatorAction::Depart`] when all inputs are in
    /// (`numOutputs == k`, the paper's early exit) or when the revised
    /// wait is already in the past; otherwise returns the (possibly
    /// updated) timer.
    pub fn on_output(&mut self, now: f64) -> AggregatorAction {
        if self.departed {
            // Late output after departure: upstream already left; ignore.
            return AggregatorAction::Depart;
        }
        self.received += 1;
        if self.received >= self.ctx.fanout {
            self.departed = true;
            return AggregatorAction::Depart;
        }
        if let Some(w) = self.policy.on_arrival(&self.ctx, now) {
            if w.is_finite() {
                self.timer = w.clamp(0.0, self.ctx.deadline);
            }
        }
        if self.timer <= now {
            self.departed = true;
            AggregatorAction::Depart
        } else {
            AggregatorAction::SetTimer(self.timer)
        }
    }

    /// Handles the departure timer firing at absolute time `now`.
    ///
    /// Returns `true` if this firing is current (the aggregator departs),
    /// `false` if the timer was stale (superseded by a later re-arm) or
    /// the aggregator already departed.
    pub fn on_timer(&mut self, now: f64) -> bool {
        if self.departed || now + 1e-12 < self.timer {
            return false;
        }
        self.departed = true;
        true
    }

    /// Outputs collected so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Current departure timer (absolute).
    pub fn timer(&self) -> f64 {
        self.timer
    }

    /// Whether the aggregator has departed.
    pub fn departed(&self) -> bool {
        self.departed
    }

    /// The policy context (immutable view).
    pub fn ctx(&self) -> &PolicyContext {
        &self.ctx
    }

    /// Turns explain mode on or off for the underlying policy (see
    /// [`crate::policy::WaitPolicy::set_explain`]).
    pub fn set_explain(&mut self, on: bool) {
        self.policy.set_explain(on);
    }

    /// Detail of the most recent wait revision, when explain mode is on
    /// and the policy recomputed at least once since the query started.
    pub fn last_detail(&self) -> Option<crate::policy::DecisionDetail> {
        self.policy.last_detail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedWaitPolicy;
    use crate::profile::QualityProfile;
    use cedar_distrib::{ContinuousDist, LogNormal};
    use std::sync::Arc;

    fn ctx(fanout: usize, deadline: f64) -> PolicyContext {
        let x1 = LogNormal::new(0.0, 1.0).unwrap();
        let x2 = LogNormal::new(0.0, 0.5).unwrap();
        PolicyContext {
            deadline,
            fanout,
            upper: Arc::new(QualityProfile::single(&x2, deadline, 64)),
            prior_lower: Arc::new(x1),
            true_lower: None,
            mean_below: 1.0,
            mean_total: 2.0,
            level: 1,
            levels_total: 2,
            scan_steps: 100,
            qup_grid: std::sync::OnceLock::new(),
            prior_wait: std::sync::OnceLock::new(),
        }
    }

    #[test]
    fn departs_early_when_all_inputs_arrive() {
        let mut agg = AggregatorState::new(Box::new(FixedWaitPolicy(50.0)), ctx(3, 100.0));
        assert_eq!(agg.start(), 50.0);
        assert_eq!(agg.on_output(1.0), AggregatorAction::SetTimer(50.0));
        assert_eq!(agg.on_output(2.0), AggregatorAction::SetTimer(50.0));
        // Third of three: immediate departure (numOutputs == k).
        assert_eq!(agg.on_output(3.0), AggregatorAction::Depart);
        assert!(agg.departed());
        assert_eq!(agg.received(), 3);
    }

    #[test]
    fn timer_fires_and_departs() {
        let mut agg = AggregatorState::new(Box::new(FixedWaitPolicy(10.0)), ctx(5, 100.0));
        agg.start();
        agg.on_output(1.0);
        assert!(agg.on_timer(10.0));
        assert!(agg.departed());
        // Second firing is a no-op.
        assert!(!agg.on_timer(10.0));
    }

    #[test]
    fn stale_timer_is_ignored() {
        // A policy that pushes the wait out on arrival; the old timer
        // firing must be recognized as stale.
        #[derive(Debug)]
        struct Extender;
        impl crate::policy::WaitPolicy for Extender {
            fn initial_wait(&mut self, _ctx: &PolicyContext) -> f64 {
                10.0
            }
            fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
                Some(20.0)
            }
        }
        let mut agg = AggregatorState::new(Box::new(Extender), ctx(5, 100.0));
        assert_eq!(agg.start(), 10.0);
        assert_eq!(agg.on_output(5.0), AggregatorAction::SetTimer(20.0));
        // Old timer for t=10 fires: stale.
        assert!(!agg.on_timer(10.0));
        assert!(!agg.departed());
        // Current timer fires.
        assert!(agg.on_timer(20.0));
    }

    #[test]
    fn revised_wait_in_the_past_departs_immediately() {
        #[derive(Debug)]
        struct Shrinker;
        impl crate::policy::WaitPolicy for Shrinker {
            fn initial_wait(&mut self, _ctx: &PolicyContext) -> f64 {
                50.0
            }
            fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
                Some(1.0)
            }
        }
        let mut agg = AggregatorState::new(Box::new(Shrinker), ctx(5, 100.0));
        agg.start();
        // Arrival at t=5 revises wait to t=1 (already past): depart now.
        assert_eq!(agg.on_output(5.0), AggregatorAction::Depart);
        assert!(agg.departed());
    }

    #[test]
    fn wait_clamped_to_deadline() {
        let mut agg = AggregatorState::new(Box::new(FixedWaitPolicy(1e18)), ctx(5, 100.0));
        assert_eq!(agg.start(), 100.0);
    }

    #[test]
    fn outputs_after_departure_are_ignored() {
        let mut agg = AggregatorState::new(Box::new(FixedWaitPolicy(10.0)), ctx(5, 100.0));
        agg.start();
        assert!(agg.on_timer(10.0));
        assert_eq!(agg.on_output(11.0), AggregatorAction::Depart);
        // The late output must not be counted as collected.
        assert_eq!(agg.received(), 0);
    }

    #[test]
    fn cedar_policy_drives_state_machine() {
        use cedar_estimate::Model;
        let c = ctx(5, 100.0);
        let mut agg = AggregatorState::new(
            crate::policy::WaitPolicyKind::Cedar.instantiate(5, Model::LogNormal),
            c,
        );
        let w0 = agg.start();
        assert!(w0 > 0.0);
        let x1 = LogNormal::new(0.0, 1.0).unwrap();
        let mut times: Vec<f64> = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            x1.sample_vec(&mut rng, 4)
        };
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &t in &times {
            match agg.on_output(t) {
                AggregatorAction::SetTimer(w) => assert!(w <= 100.0),
                AggregatorAction::Depart => break,
            }
        }
        assert!(agg.received() >= 1);
    }
}
