//! Normal / Alert / Emergency operating modes driven by the warning
//! score (§3.4.6, "mode switching").
//!
//! The paper's example is an organization that runs one policy set in
//! normal operation and an explicitly different one in emergencies.
//! [`AnticipationController`] makes that executable for the serving
//! layer: the online [`EarlyWarning`] detector scores the live deficit
//! stream, and the score drives the workspace's one hysteresis ladder
//! (`resilience_core::modes`) over three levels. Bands compare
//! inclusively (`>= on`, `<= off`), the dwell gates escalation and
//! release alike (a mode's first change is exempt), and the detector's
//! warning latch holds the ladder at Alert or above. Each mode carries
//! a [`ModePolicy`]: how far to pre-dim the brownout floor, how much to
//! widen breaker cooldowns, how much to tighten admission deadlines,
//! and which provisioning rule (sample mean vs heavy-tail quantile) to
//! trust.
//!
//! The transition log is the core [`CappedLog`]: the first
//! [`LOG_CAP`](resilience_core::modes::LOG_CAP) transitions are retained
//! and later ones only counted, so a pathological run cannot grow
//! memory without bound, and the truncation point is a pure function of
//! the transition sequence (byte-identical across thread budgets).

use std::fmt;

use resilience_core::modes::{CappedLog, Escalation, Ladder, LadderState, Rung};
use serde::{Deserialize, Serialize};

use crate::detector::{EarlyWarning, EarlyWarningConfig, WarningSnapshot};
use crate::provision::ProvisioningPolicy;

/// The three operating modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OperatingMode {
    /// Business as usual: reactive controllers only.
    Normal,
    /// Early-warning indicators are elevated: hedge cheaply.
    Alert,
    /// Collapse signature confirmed: pay for survival up front.
    Emergency,
}

impl fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperatingMode::Normal => write!(f, "normal"),
            OperatingMode::Alert => write!(f, "alert"),
            OperatingMode::Emergency => write!(f, "emergency"),
        }
    }
}

impl OperatingMode {
    /// The mode at ladder `level` (0 = Normal, 1 = Alert, 2 and above =
    /// Emergency).
    pub fn from_level(level: u8) -> Self {
        match level {
            0 => OperatingMode::Normal,
            1 => OperatingMode::Alert,
            _ => OperatingMode::Emergency,
        }
    }
}

/// The policy set one mode runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModePolicy {
    /// Minimum brownout dimmer level while in this mode (0–2): the
    /// anticipatory pre-dim — the service starts shedding optional
    /// quality *before* the deficit arrives.
    pub brownout_floor: u8,
    /// Maximum brownout dimmer level while in this mode (0–2). The
    /// other half of the anticipatory trade: when the warning score
    /// says no collapse is coming, a calm mode caps the reactive
    /// dimmer so quality is not spent insuring against benign pressure
    /// (queues that are merely busy, not failing). The ceiling beats
    /// the floor when they conflict.
    pub brownout_ceiling: u8,
    /// Breaker cooldown multiplier in milli-units (1000 = unchanged).
    /// Emergencies widen cooldowns: a probing breaker re-closing onto a
    /// still-collapsing backend is how reactive systems flap.
    pub cooldown_scale_milli: u64,
    /// Admission deadline multiplier in milli-units (1000 = unchanged).
    /// Tightening (< 1000) sheds or degrades marginal requests at
    /// admission instead of letting them pile onto queues that the
    /// warning says are about to stop draining.
    pub deadline_scale_milli: u64,
    /// How this mode turns observed losses into a provisioning
    /// estimate (the pressure bias fed to the dimmer).
    pub provisioning: ProvisioningPolicy,
}

/// Hysteresis bands and dwell of the three-state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeSwitchConfig {
    /// Enter Alert at or above this score (or on a latched warning).
    pub alert_on: f64,
    /// Leave Alert for Normal at or below this score (with the warning
    /// latch off).
    pub alert_off: f64,
    /// Enter Emergency at or above this score.
    pub emergency_on: f64,
    /// Leave Emergency for Alert at or below this score.
    pub emergency_off: f64,
    /// Minimum ticks between mode changes, in either direction.
    pub dwell: u64,
}

impl Default for ModeSwitchConfig {
    fn default() -> Self {
        ModeSwitchConfig {
            alert_on: 0.35,
            alert_off: 0.15,
            emergency_on: 0.85,
            emergency_off: 0.50,
            dwell: 8,
        }
    }
}

impl ModeSwitchConfig {
    /// The three-level ladder these bands describe: inclusive bands,
    /// dwell on both directions.
    pub fn ladder(&self) -> Ladder {
        let rungs = vec![
            Rung::new(self.alert_on, self.alert_off),
            Rung::new(self.emergency_on, self.emergency_off),
        ];
        Ladder::new(rungs, self.dwell, Escalation::DwellGated)
    }
}

/// One recorded mode change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModeTransition {
    /// Logical tick of the change.
    pub tick: u64,
    /// Mode left.
    pub from: OperatingMode,
    /// Mode entered.
    pub to: OperatingMode,
    /// Warning score at the change, in milli-units (deterministic
    /// integer encoding for logs and telemetry).
    pub score_milli: u64,
}

impl ModeTransition {
    /// True for a transition *into* Emergency — the snapshot hook the
    /// incident flight recorder triggers on.
    pub fn is_escalation(&self) -> bool {
        self.to == OperatingMode::Emergency && self.from != OperatingMode::Emergency
    }
}

/// Complete tuning of the anticipation loop: detector, switch bands,
/// and the per-mode policy sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnticipationConfig {
    /// Early-warning detector tuning.
    pub detector: EarlyWarningConfig,
    /// Mode-switch hysteresis and dwell.
    pub switch: ModeSwitchConfig,
    /// Policy set for Normal.
    pub normal: ModePolicy,
    /// Policy set for Alert.
    pub alert: ModePolicy,
    /// Policy set for Emergency.
    pub emergency: ModePolicy,
}

impl Default for AnticipationConfig {
    fn default() -> Self {
        AnticipationConfig {
            detector: EarlyWarningConfig::default(),
            switch: ModeSwitchConfig::default(),
            normal: ModePolicy {
                brownout_floor: 0,
                brownout_ceiling: 0,
                cooldown_scale_milli: 1000,
                deadline_scale_milli: 1000,
                provisioning: ProvisioningPolicy::SampleMean,
            },
            alert: ModePolicy {
                brownout_floor: 0,
                brownout_ceiling: 2,
                cooldown_scale_milli: 1500,
                deadline_scale_milli: 1000,
                provisioning: ProvisioningPolicy::Auto,
            },
            emergency: ModePolicy {
                brownout_floor: 2,
                brownout_ceiling: 2,
                cooldown_scale_milli: 2000,
                deadline_scale_milli: 900,
                provisioning: ProvisioningPolicy::TailQuantile,
            },
        }
    }
}

impl AnticipationConfig {
    /// The policy set `mode` runs.
    pub fn policy(&self, mode: OperatingMode) -> &ModePolicy {
        match mode {
            OperatingMode::Normal => &self.normal,
            OperatingMode::Alert => &self.alert,
            OperatingMode::Emergency => &self.emergency,
        }
    }
}

/// The anticipation state machine: detector + mode ladder + capped
/// transition log. Pure function of the sample sequence fed to
/// [`observe`](Self::observe).
#[derive(Debug, Clone)]
pub struct AnticipationController {
    config: AnticipationConfig,
    detector: EarlyWarning,
    ladder: Ladder,
    state: LadderState,
    transitions: CappedLog<ModeTransition>,
    alert_ticks: u64,
    emergency_ticks: u64,
}

impl AnticipationController {
    /// A controller starting in Normal with a cold detector.
    pub fn new(config: AnticipationConfig) -> Self {
        AnticipationController {
            detector: EarlyWarning::new(config.detector.clone()),
            ladder: config.switch.ladder(),
            config,
            state: LadderState::default(),
            transitions: CappedLog::default(),
            alert_ticks: 0,
            emergency_ticks: 0,
        }
    }

    /// The controller's tuning.
    pub fn config(&self) -> &AnticipationConfig {
        &self.config
    }

    /// Current operating mode.
    pub fn mode(&self) -> OperatingMode {
        OperatingMode::from_level(self.state.level())
    }

    /// The policy set of the current mode.
    pub fn policy(&self) -> &ModePolicy {
        self.config.policy(self.mode())
    }

    /// The detector's current readout.
    pub fn snapshot(&self) -> WarningSnapshot {
        self.detector.snapshot()
    }

    /// Current warning score in milli-units.
    pub fn score_milli(&self) -> u64 {
        score_milli(self.detector.score())
    }

    /// Retained mode transitions, in tick order (at most
    /// [`LOG_CAP`](resilience_core::modes::LOG_CAP)).
    pub fn transitions(&self) -> &[ModeTransition] {
        self.transitions.entries()
    }

    /// Retained transitions into Emergency, in tick order — each is an
    /// incident-flight-recorder trigger point.
    pub fn escalations(&self) -> impl Iterator<Item = &ModeTransition> {
        self.transitions().iter().filter(|t| t.is_escalation())
    }

    /// Ticks spent in Alert so far.
    pub fn alert_ticks(&self) -> u64 {
        self.alert_ticks
    }

    /// Ticks spent in Emergency so far.
    pub fn emergency_ticks(&self) -> u64 {
        self.emergency_ticks
    }

    /// Feed one tick's signal sample; returns the mode in force after
    /// the update. Mode moves one step per tick at most, honors the
    /// dwell in both directions, and requires a warm detector to
    /// escalate — a cold start can never jump straight to Emergency.
    pub fn observe(&mut self, tick: u64, sample: f64) -> OperatingMode {
        let snap = self.detector.observe(sample);
        // The warning latch holds the ladder at Alert or above.
        let hold = u8::from(snap.active);
        if let Some((from, to)) = self
            .ladder
            .step_held(&mut self.state, tick, snap.score, hold)
        {
            self.transitions.push(ModeTransition {
                tick,
                from: OperatingMode::from_level(from),
                to: OperatingMode::from_level(to),
                score_milli: score_milli(snap.score),
            });
        }
        let mode = self.mode();
        match mode {
            OperatingMode::Normal => {}
            OperatingMode::Alert => self.alert_ticks += 1,
            OperatingMode::Emergency => self.emergency_ticks += 1,
        }
        mode
    }
}

/// Deterministic milli-unit encoding of a `[0, 1]` score.
pub fn score_milli(score: f64) -> u64 {
    (score.clamp(0.0, 1.0) * 1000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::modes::LOG_CAP;

    fn controller() -> AnticipationController {
        let mut config = AnticipationConfig::default();
        config.detector.window = 8;
        config.detector.confirm = 2;
        config.switch.dwell = 2;
        AnticipationController::new(config)
    }

    /// A smooth period-14 swing that saturates both indicators (large
    /// within-window variance, lag-1 autocorrelation near +0.9).
    fn stress(c: &mut AnticipationController, ticks: u64, start: u64) -> u64 {
        for t in 0..ticks {
            let phase = ((start + t) as f64 * 0.45).sin();
            c.observe(start + t, 0.5 + 0.5 * phase);
        }
        start + ticks
    }

    #[test]
    fn quiet_stream_stays_normal() {
        let mut c = controller();
        for t in 0..200 {
            c.observe(t, 0.0);
        }
        assert_eq!(c.mode(), OperatingMode::Normal);
        assert!(c.transitions().is_empty());
        assert_eq!(c.emergency_ticks(), 0);
    }

    #[test]
    fn escalation_is_stepwise_and_deescalation_returns_to_normal() {
        let mut c = controller();
        let next = stress(&mut c, 60, 0);
        assert_eq!(
            c.mode(),
            OperatingMode::Emergency,
            "score {}",
            c.snapshot().score
        );
        // Stepwise: every recorded transition moves one level.
        for t in c.transitions() {
            let (f, to) = (t.from as i32, t.to as i32);
            assert_eq!((to - f).abs(), 1, "no level skipping: {:?}", t);
        }
        for t in 0..300 {
            c.observe(next + t, 0.0);
        }
        assert_eq!(c.mode(), OperatingMode::Normal);
        assert!(c.emergency_ticks() > 0);
        assert!(c.alert_ticks() > 0);
    }

    #[test]
    fn dwell_blocks_rapid_mode_flapping() {
        let mut config = AnticipationConfig::default();
        config.detector.window = 8;
        config.detector.confirm = 1;
        config.switch.dwell = 50;
        let mut c = AnticipationController::new(config);
        stress(&mut c, 60, 0);
        assert!(
            c.transitions().len() <= 2,
            "dwell 50 over 60 ticks allows at most 2 changes, got {:?}",
            c.transitions()
        );
    }

    #[test]
    fn transition_log_is_capped_deterministically() {
        let mut config = AnticipationConfig::default();
        config.detector.window = 8;
        config.detector.confirm = 1;
        config.switch.dwell = 0;
        let mut c = AnticipationController::new(config);
        // Alternate stress and calm until the log overflows.
        let mut t = 0;
        while c.transitions.truncated() == 0 && t < 1_000_000 {
            t = stress(&mut c, 40, t);
            for _ in 0..60 {
                c.observe(t, 0.0);
                t += 1;
            }
        }
        assert_eq!(c.transitions().len(), LOG_CAP, "log capped");
        assert!(c.transitions.truncated() > 0, "overflow counted");
    }

    #[test]
    fn cold_detector_cannot_escalate() {
        let mut c = controller();
        // Violent samples, but fewer than the window: score stays 0.
        for t in 0..7 {
            c.observe(t, if t % 2 == 0 { 1.0 } else { 0.0 });
        }
        assert_eq!(c.mode(), OperatingMode::Normal);
    }

    #[test]
    fn policies_expose_the_taleb_ladder() {
        let config = AnticipationConfig::default();
        assert_eq!(config.normal.provisioning, ProvisioningPolicy::SampleMean);
        assert_eq!(
            config.emergency.provisioning,
            ProvisioningPolicy::TailQuantile
        );
        assert!(config.emergency.cooldown_scale_milli > config.normal.cooldown_scale_milli);
        assert!(config.emergency.deadline_scale_milli < config.normal.deadline_scale_milli);
        assert!(config.emergency.brownout_floor > config.alert.brownout_floor);
    }
}
