//! Per-backend circuit breakers on the logical clock.
//!
//! The classic closed → open → half-open state machine, with every
//! transition driven by the same logical tick counter as the rest of
//! the serving layer (and as `resilience_core::faults`): a run under a
//! given trace and fault plan replays its breaker trips bit-identically
//! on any thread budget, because no wall-clock time ever feeds a
//! decision.

use std::fmt;

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are counted.
    Closed,
    /// Traffic is refused until the cooldown elapses.
    Open,
    /// One probe request is allowed through; its fate decides the next
    /// state.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BreakerTransition {
    /// Logical tick of the change.
    pub tick: u64,
    /// State left.
    pub from: BreakerState,
    /// State entered.
    pub to: BreakerState,
}

/// A circuit breaker for one backend family.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Consecutive failures that trip an open.
    failure_threshold: u32,
    /// Ticks the breaker stays open before probing.
    cooldown: u64,
    consecutive_failures: u32,
    opened_at: u64,
    probe_in_flight: bool,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `failure_threshold` consecutive
    /// failures and cooling down for `cooldown` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `failure_threshold == 0`.
    pub fn new(failure_threshold: u32, cooldown: u64) -> Self {
        assert!(failure_threshold >= 1, "threshold must be at least 1");
        CircuitBreaker {
            state: BreakerState::Closed,
            failure_threshold,
            cooldown,
            consecutive_failures: 0,
            opened_at: 0,
            probe_in_flight: false,
            transitions: Vec::new(),
        }
    }

    /// Current state (after applying any due open → half-open lapse at
    /// `now`; this is the observing side of the logical clock).
    fn state_at(&mut self, now: u64) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.opened_at + self.cooldown {
            self.transition(now, BreakerState::HalfOpen);
            self.probe_in_flight = false;
        }
        self.state
    }

    /// The state an observer at `now` would see, without committing the
    /// open → half-open lapse (no transition is recorded, no probe slot
    /// is reset). Use this for read-only inspection — dashboards,
    /// metrics, assertions — where `state_at`'s `&mut self` would
    /// mutate history as a side effect of looking.
    pub fn peek_state(&self, now: u64) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.opened_at + self.cooldown {
            BreakerState::HalfOpen
        } else {
            self.state
        }
    }

    /// Ticks the breaker stays open before probing.
    pub fn cooldown(&self) -> u64 {
        self.cooldown
    }

    /// Retune the cooldown (the anticipation layer widens it in
    /// Emergency so a probe cannot re-close onto a still-collapsing
    /// backend). Takes effect from the next trip *and* for any open
    /// period still in progress.
    pub fn set_cooldown(&mut self, cooldown: u64) {
        self.cooldown = cooldown;
    }

    /// Whether a new request may be sent to the backend at `now`. In
    /// half-open state only a single probe is allowed until it settles.
    pub fn allow(&mut self, now: u64) -> bool {
        match self.state_at(now) {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => !self.probe_in_flight,
        }
    }

    /// Mark the admitted request as the half-open probe, if one is
    /// pending. Call exactly once per allowed admission.
    pub fn on_admitted(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_in_flight = true;
        }
    }

    /// Record a backend success at `now`.
    pub fn record_success(&mut self, now: u64) {
        self.consecutive_failures = 0;
        if self.state_at(now) == BreakerState::HalfOpen {
            self.probe_in_flight = false;
            self.transition(now, BreakerState::Closed);
        }
    }

    /// Record a backend failure at `now`.
    pub fn record_failure(&mut self, now: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state_at(now) {
            BreakerState::HalfOpen => {
                // The probe failed: re-open and restart the cooldown.
                self.probe_in_flight = false;
                self.opened_at = now;
                self.transition(now, BreakerState::Open);
            }
            BreakerState::Closed => {
                if self.consecutive_failures >= self.failure_threshold {
                    self.opened_at = now;
                    self.transition(now, BreakerState::Open);
                }
            }
            // Failures of requests admitted before the trip keep the
            // breaker open but do not extend the cooldown.
            BreakerState::Open => {}
        }
    }

    /// Every state change so far, in tick order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn transition(&mut self, tick: u64, to: BreakerState) {
        let from = self.state;
        if from != to {
            self.state = to;
            self.transitions.push(BreakerTransition { tick, from, to });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(3, 10);
        b.record_failure(0);
        b.record_failure(1);
        b.record_success(2); // streak broken
        b.record_failure(3);
        b.record_failure(4);
        assert!(b.allow(5), "two consecutive failures stay closed");
        b.record_failure(5);
        assert!(!b.allow(6), "third consecutive failure trips the breaker");
        assert_eq!(b.peek_state(6), BreakerState::Open);
    }

    #[test]
    fn cooldown_leads_to_single_probe_then_close_on_success() {
        let mut b = CircuitBreaker::new(1, 5);
        b.record_failure(0);
        assert!(!b.allow(4), "still cooling down");
        assert!(b.allow(5), "cooldown elapsed: probe allowed");
        b.on_admitted();
        assert!(!b.allow(5), "only one probe at a time");
        b.record_success(7);
        assert_eq!(b.peek_state(7), BreakerState::Closed);
        assert!(b.allow(8));
        let states: Vec<_> = b.transitions().iter().map(|t| t.to).collect();
        assert_eq!(
            states,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ]
        );
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(1, 5);
        b.record_failure(0);
        assert!(b.allow(5));
        b.on_admitted();
        b.record_failure(6);
        assert_eq!(b.peek_state(6), BreakerState::Open);
        assert!(!b.allow(10), "cooldown restarted at tick 6");
        assert!(b.allow(11));
    }

    #[test]
    fn stale_failures_do_not_extend_cooldown() {
        let mut b = CircuitBreaker::new(1, 5);
        b.record_failure(0);
        // A request admitted before the trip fails mid-cooldown.
        b.record_failure(2);
        assert!(b.allow(5), "cooldown still counted from the trip at 0");
    }

    #[test]
    fn peek_state_previews_the_lapse_without_committing_it() {
        let mut b = CircuitBreaker::new(1, 5);
        b.record_failure(0);
        // The observer at tick 5 sees the due lapse...
        assert_eq!(b.peek_state(5), BreakerState::HalfOpen);
        // ...but nothing was committed: no transition recorded beyond
        // the trip, and the next mutating read replays the same lapse.
        assert_eq!(b.transitions().len(), 1);
        assert_eq!(b.state_at(5), BreakerState::HalfOpen);
        assert_eq!(b.transitions().len(), 2);
    }

    #[test]
    fn widened_cooldown_extends_an_open_period_in_progress() {
        let mut b = CircuitBreaker::new(1, 5);
        b.record_failure(0);
        b.set_cooldown(20);
        assert_eq!(b.cooldown(), 20);
        assert!(!b.allow(5), "old cooldown no longer applies");
        assert_eq!(b.peek_state(19), BreakerState::Open);
        assert!(
            b.allow(20),
            "probe allowed once the widened cooldown elapses"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_rejected() {
        let _ = CircuitBreaker::new(0, 5);
    }
}
