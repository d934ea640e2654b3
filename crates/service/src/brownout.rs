//! Self-scored brownout control.
//!
//! Brownout (Klein et al.; De Florio's quality indicators, PAPERS.md)
//! trades response quality for survival: under pressure the service
//! dims optional work instead of queueing toward collapse. The
//! controller here is *self-scored*: its pressure signal is the
//! involuntary part of the per-tick Bruneau integrand — the fraction of
//! adjudications shed or hard-failed — blended with queue occupancy as
//! the leading indicator, so the serving layer steers by the same
//! quality accounting it is judged on. The *planned* degradation
//! penalties (reduced/cached responses) are deliberately excluded from
//! the signal: feeding them back would be a positive feedback loop in
//! which a fully-dimmed service reads its own cached responses as
//! pressure and never recovers.
//!
//! Three dimmer levels:
//!
//! * **0 — full**: every request runs the full backend computation.
//! * **1 — reduced**: backends run at `1/divisor` of the trials.
//! * **2 — cached**: responses come from precomputed per-family tables;
//!   the backends see no new work at all.
//!
//! Level changes run on the workspace's one hysteresis ladder
//! (`resilience_core::modes`): both rungs share one strict band pair
//! (raise above `raise_above`, lower below `lower_below`), and the
//! dwell gates both directions, counted from tick 0, so the dimmer
//! cannot flap. Every input is a logical-clock quantity — the level
//! sequence replays exactly for any thread budget.
//!
//! The anticipation layer can impose a *floor* and a *ceiling* on the
//! dimmer ([`BrownoutController::set_floor`],
//! [`BrownoutController::set_ceiling`]): the effective level is the
//! reactive level raised to the floor, then clamped to the ceiling.
//! An Emergency policy pre-dims the service before any deficit arrives
//! (floor 2); a calm Normal policy caps the occupancy-spooked reactive
//! dimmer (ceiling 0) so quality is only spent when the warning score
//! says collapse is actually approaching. The reactive machinery
//! underneath keeps tracking pressure unchanged either way.

use resilience_core::modes::{CappedLog, Escalation, Ladder, LadderState, Rung};

/// Configuration of the brownout controller.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutConfig {
    /// EMA smoothing factor for the pressure signal, in `(0, 1]`.
    pub alpha: f64,
    /// Raise the dimmer one level when smoothed pressure exceeds this.
    pub raise_above: f64,
    /// Lower the dimmer one level when smoothed pressure falls below.
    pub lower_below: f64,
    /// Minimum ticks between level changes.
    pub dwell: u64,
    /// Trial divisor at level 1 (reduced fidelity).
    pub reduced_divisor: u64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            alpha: 0.25,
            raise_above: 0.15,
            lower_below: 0.03,
            dwell: 8,
            reduced_divisor: 4,
        }
    }
}

/// The dimmer state machine.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    alpha: f64,
    ladder: Ladder,
    state: LadderState,
    floor: u8,
    ceiling: u8,
    pressure: f64,
    history: CappedLog<(u64, u8)>,
}

impl BrownoutController {
    /// A controller at level 0 (full fidelity) with zero pressure.
    pub fn new(config: BrownoutConfig) -> Self {
        let band = Rung::strict(config.raise_above, config.lower_below);
        BrownoutController {
            alpha: config.alpha,
            ladder: Ladder::new(vec![band; 2], config.dwell, Escalation::DwellGated),
            state: LadderState::settled_at(0),
            floor: 0,
            ceiling: 2,
            pressure: 0.0,
            history: CappedLog::default(),
        }
    }

    /// Current effective dimmer level (0 = full, 1 = reduced,
    /// 2 = cached): the reactive level, raised to any anticipatory
    /// floor in force, then clamped to any anticipatory ceiling.
    pub fn level(&self) -> u8 {
        self.state.level().max(self.floor).min(self.ceiling)
    }

    /// The anticipatory floor currently in force.
    pub fn floor(&self) -> u8 {
        self.floor
    }

    /// The anticipatory ceiling currently in force.
    pub fn ceiling(&self) -> u8 {
        self.ceiling
    }

    /// Impose a minimum dimmer level (clamped to 2). The effective
    /// level changes immediately; the reactive level underneath keeps
    /// tracking pressure so lifting the floor falls back to whatever
    /// the reactive controller decided in the meantime. A floor change
    /// that moves the effective level is recorded in the history at
    /// `tick`.
    pub fn set_floor(&mut self, tick: u64, floor: u8) {
        let before = self.level();
        self.floor = floor.min(2);
        let after = self.level();
        if after != before {
            self.history.push((tick, after));
        }
    }

    /// Impose a maximum dimmer level (the ceiling beats the floor when
    /// they conflict). A calm-mode policy uses this to keep the
    /// reactive dimmer from spending quality on pressure the warning
    /// detector says is benign; the reactive level underneath keeps
    /// tracking pressure, so raising the ceiling falls back to it. A
    /// ceiling change that moves the effective level is recorded in the
    /// history at `tick`.
    pub fn set_ceiling(&mut self, tick: u64, ceiling: u8) {
        let before = self.level();
        self.ceiling = ceiling.min(2);
        let after = self.level();
        if after != before {
            self.history.push((tick, after));
        }
    }

    /// Smoothed pressure signal in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        self.pressure
    }

    /// `(tick, new effective level)` for the first
    /// [`LOG_CAP`](resilience_core::modes::LOG_CAP) changes, in tick
    /// order.
    pub fn history(&self) -> &[(u64, u8)] {
        self.history.entries()
    }

    /// Feed one tick of self-measurement: `deficit` is the tick's
    /// *involuntary* quality deficit (the fraction of adjudications
    /// shed or hard-failed — planned degradation excluded), `occupancy`
    /// the worst bulkhead queue occupancy. The controller smooths the
    /// larger of the two (either signal alone is a reason to dim) and
    /// moves the dimmer one level with hysteresis and dwell.
    pub fn observe(&mut self, tick: u64, deficit: f64, occupancy: f64) {
        let raw = deficit.max(occupancy).clamp(0.0, 1.0);
        self.pressure = self.alpha * raw + (1.0 - self.alpha) * self.pressure;
        let before = self.level();
        if self
            .ladder
            .step(&mut self.state, tick, self.pressure)
            .is_some()
        {
            let after = self.level();
            if after != before {
                self.history.push((tick, after));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::modes::LOG_CAP;

    fn controller() -> BrownoutController {
        BrownoutController::new(BrownoutConfig {
            dwell: 2,
            ..BrownoutConfig::default()
        })
    }

    #[test]
    fn sustained_pressure_raises_level_stepwise() {
        let mut c = controller();
        let mut tick = 0;
        while c.level() < 2 && tick < 200 {
            c.observe(tick, 0.8, 0.0);
            tick += 1;
        }
        assert_eq!(c.level(), 2, "sustained deficit must reach level 2");
        // Stepwise: history shows 1 then 2, never a jump.
        let levels: Vec<u8> = c.history().iter().map(|&(_, l)| l).collect();
        assert_eq!(levels, vec![1, 2]);
    }

    #[test]
    fn calm_recovers_to_full_fidelity() {
        let mut c = controller();
        for t in 0..50 {
            c.observe(t, 0.9, 0.9);
        }
        assert_eq!(c.level(), 2);
        for t in 50..300 {
            c.observe(t, 0.0, 0.0);
        }
        assert_eq!(c.level(), 0, "pressure gone, dimmer must reopen");
    }

    #[test]
    fn occupancy_alone_is_a_dimming_signal() {
        let mut c = controller();
        for t in 0..100 {
            c.observe(t, 0.0, 0.8);
        }
        assert!(c.level() > 0, "full queues must dim even before sheds");
    }

    #[test]
    fn dwell_limits_change_rate() {
        let mut c = BrownoutController::new(BrownoutConfig {
            dwell: 10,
            ..BrownoutConfig::default()
        });
        for t in 0..10 {
            c.observe(t, 1.0, 1.0);
        }
        assert!(c.level() <= 1, "dwell must prevent back-to-back raises");
    }

    #[test]
    fn hysteresis_band_holds_level() {
        let mut c = controller();
        for t in 0..60 {
            c.observe(t, 0.9, 0.0);
        }
        let level = c.level();
        // Pressure inside the band (between thresholds): no movement.
        for t in 60..200 {
            c.observe(t, 0.08, 0.0);
        }
        assert_eq!(c.level(), level, "mid-band pressure must hold the level");
    }

    #[test]
    fn floor_pre_dims_and_lifting_it_restores_the_reactive_level() {
        let mut c = controller();
        assert_eq!(c.level(), 0);
        c.set_floor(5, 2);
        assert_eq!(c.level(), 2, "floor takes effect immediately");
        assert_eq!(c.history(), &[(5, 2)], "effective change recorded");
        // No pressure underneath: lifting the floor returns to full.
        c.set_floor(9, 0);
        assert_eq!(c.level(), 0);
        assert_eq!(c.history(), &[(5, 2), (9, 0)]);
    }

    #[test]
    fn redundant_floor_changes_leave_no_history() {
        let mut c = controller();
        for t in 0..50 {
            c.observe(t, 0.9, 0.9);
        }
        assert_eq!(c.level(), 2);
        let before = c.history().to_vec();
        // Reactive level already at 2: a floor below it is invisible.
        c.set_floor(50, 1);
        c.set_floor(51, 0);
        assert_eq!(c.history(), &before[..], "no effective change, no entry");
    }

    #[test]
    fn ceiling_caps_the_reactive_dimmer() {
        let mut c = controller();
        c.set_ceiling(0, 0);
        for t in 0..100 {
            c.observe(t, 0.9, 0.9);
        }
        assert_eq!(c.level(), 0, "ceiling 0 must pin full fidelity");
        // Raising the ceiling exposes the reactive level underneath.
        c.set_ceiling(100, 2);
        assert_eq!(c.level(), 2, "reactive level kept tracking pressure");
        assert_eq!(c.history().last(), Some(&(100, 2)));
    }

    #[test]
    fn history_is_capped_deterministically() {
        let mut c = controller();
        // Flap the floor to generate many effective-level changes.
        let flaps = LOG_CAP as u64 / 2 + 10;
        for i in 0..flaps {
            c.set_floor(2 * i, 2);
            c.set_floor(2 * i + 1, 0);
        }
        assert_eq!(c.history().len(), LOG_CAP, "log capped");
        assert_eq!(c.history.truncated(), 20, "overflow counted exactly");
    }
}
