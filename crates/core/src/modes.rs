//! Mode switching (the paper's §3.4.6): one hysteresis ladder.
//!
//! "In the normal mode, the system works within the designed realm and
//! follows the designed set of policy, for example, pursuing maximum
//! economic efficiency. If an extreme event happens and the system can no
//! longer function as designed, the system switches its operational mode to
//! the emergency mode, in which the system and the people behave based on a
//! different set of policies."
//!
//! Every mode machine in the workspace (E13/E19, the anticipation
//! controller, the brownout dimmer, the cluster's node modes) is a
//! [`Ladder`]: levels `0..=rungs.len()`, where [`Rung`] `i` joins level
//! `i` to `i + 1`. A signal at or above the rung's `up` escalates; one at
//! or below its `down` releases; a strict threshold is converted exactly
//! with [`Rung::strict`]. A step moves at most one rung, tests escalation
//! before release, and honours a minimum `dwell` between changes. The
//! rules are data and each instance keeps its own [`LadderState`].
//! [`CappedLog`] is the one bounded transition log. DESIGN.md's
//! "Hysteresis ladder" lists each caller's configuration.
//!
//! # Example
//!
//! A two-level ladder, and the §3.4.4 perception bias as the caller
//! scaling its input ("people may overestimate the threat … and may
//! overreact"):
//!
//! ```
//! use resilience_core::modes::{Ladder, LadderState};
//! let ladder = Ladder::two_level(10.0, 3.0).expect("valid");
//! let mut state = LadderState::default();
//! for (damage, level) in [(2.0, 0), (25.0, 1), (5.0, 1), (1.0, 0)] {
//!     ladder.step(&mut state, 0, damage); // shock, hysteresis, all clear
//!     assert_eq!(state.level(), level);
//! }
//! // An alarmist perceives damage × 3: a moderate 5.0 reads as 15.
//! let (mut calm, mut alarmist) = (LadderState::default(), LadderState::default());
//! ladder.step(&mut calm, 0, 5.0);
//! ladder.step(&mut alarmist, 0, 5.0 * 3.0);
//! assert_eq!((calm.level(), alarmist.level()), (0, 1));
//! ```

use crate::error::{invalid_param, CoreError};

/// Retained length of every transition log (see [`CappedLog`]).
pub const LOG_CAP: usize = 4096;

/// The band between two adjacent levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Escalate across this rung when the signal is at or above `up`.
    pub up: f64,
    /// Release back across this rung when the signal is at or below
    /// `down`.
    pub down: f64,
}

impl Rung {
    /// The rung for inclusive comparisons (`>= up`, `<= down`).
    pub fn new(up: f64, down: f64) -> Self {
        Rung { up, down }
    }

    /// The rung for strict comparisons (`> above`, `< below`), exactly:
    /// `x > a` holds iff `x >= a.next_up()`, for every float `x`.
    pub fn strict(above: f64, below: f64) -> Self {
        Rung::new(above.next_up(), below.next_down())
    }
}

/// Which directions the dwell gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escalation {
    /// Both escalation and release wait out the dwell.
    DwellGated,
    /// Escalation fires at once; only release waits out the dwell.
    Immediate,
}

/// Hysteresis rules: rungs, dwell and escalation rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    rungs: Vec<Rung>,
    dwell: u64,
    escalation: Escalation,
}

/// One instance's position on a [`Ladder`].
///
/// The default state sits at level 0 and has never changed, so the
/// dwell cannot block its first change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LadderState {
    level: u8,
    changed_at: Option<u64>,
}

impl LadderState {
    /// Level 0, with the dwell counted from `tick` as if the state had
    /// just changed there.
    pub fn settled_at(tick: u64) -> Self {
        LadderState {
            level: 0,
            changed_at: Some(tick),
        }
    }

    /// The current level (0 = normal).
    pub fn level(&self) -> u8 {
        self.level
    }
}

impl Ladder {
    /// A ladder over `rungs` (bottom first). No rungs is a ladder that
    /// never switches.
    ///
    /// # Panics
    ///
    /// Panics on more than 255 rungs: levels are `u8`.
    pub fn new(rungs: Vec<Rung>, dwell: u64, escalation: Escalation) -> Self {
        assert!(rungs.len() <= usize::from(u8::MAX), "at most 255 rungs");
        Ladder {
            rungs,
            dwell,
            escalation,
        }
    }

    /// Normal/emergency without dwell: enter level 1 when the signal
    /// exceeds `enter`, return to 0 when it falls below `exit`.
    ///
    /// Both thresholds must be finite and non-negative with
    /// `exit <= enter`; otherwise the error names the offending one.
    pub fn two_level(enter: f64, exit: f64) -> Result<Self, CoreError> {
        for (name, value) in [("enter", enter), ("exit", exit)] {
            if !(value.is_finite() && value >= 0.0) {
                let reason = format!("threshold must be finite and non-negative, got {value}");
                return Err(invalid_param(name, reason));
            }
        }
        if exit > enter {
            let reason = format!("exit threshold {exit} exceeds enter threshold {enter}");
            return Err(invalid_param("exit", reason));
        }
        let rungs = vec![Rung::strict(enter, exit)];
        Ok(Ladder::new(rungs, 0, Escalation::Immediate))
    }

    /// Feed one observation at `tick`; returns `(from, to)` when the
    /// level moved.
    pub fn step(&self, state: &mut LadderState, tick: u64, signal: f64) -> Option<(u8, u8)> {
        self.step_held(state, tick, signal, 0)
    }

    /// [`step`](Self::step) with a latch holding the ladder at level
    /// `hold` or above: below it the ladder escalates whatever the
    /// signal, and it never releases below it.
    pub fn step_held(
        &self,
        state: &mut LadderState,
        tick: u64,
        signal: f64,
        hold: u8,
    ) -> Option<(u8, u8)> {
        let from = state.level;
        let at = usize::from(from);
        let dwelled = state
            .changed_at
            .is_none_or(|t| tick.saturating_sub(t) >= self.dwell);
        let to = if at < self.rungs.len()
            && (signal >= self.rungs[at].up || from < hold)
            && (dwelled || self.escalation == Escalation::Immediate)
        {
            from + 1
        } else if at > 0 && from > hold && dwelled && signal <= self.rungs[at - 1].down {
            from - 1
        } else {
            return None;
        };
        state.level = to;
        state.changed_at = Some(tick);
        Some((from, to))
    }
}

/// A transition log that keeps the first [`LOG_CAP`] entries and only
/// counts the rest, so a long run cannot grow memory without bound and
/// the truncation point depends only on the entry sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct CappedLog<T> {
    entries: Vec<T>,
    truncated: u64,
}

impl<T> Default for CappedLog<T> {
    fn default() -> Self {
        CappedLog {
            entries: Vec::new(),
            truncated: 0,
        }
    }
}

impl<T> CappedLog<T> {
    /// Record `entry`, or count it once the log is full.
    pub fn push(&mut self, entry: T) {
        if self.entries.len() < LOG_CAP {
            self.entries.push(entry);
        } else {
            self.truncated += 1;
        }
    }

    /// The retained entries, in push order.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Entries counted but not retained.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The retained entries and the truncated count.
    pub fn into_parts(self) -> (Vec<T>, u64) {
        (self.entries, self.truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels(ladder: &Ladder, mut state: LadderState, signals: &[f64]) -> Vec<u8> {
        (0u64..)
            .zip(signals)
            .map(|(tick, &s)| {
                ladder.step(&mut state, tick, s);
                state.level()
            })
            .collect()
    }

    #[test]
    fn two_level_switches_strictly_with_hysteresis() {
        let ladder = Ladder::two_level(10.0, 3.0).expect("valid");
        // At a threshold is not past it: 10.0 holds Normal, 3.0 holds
        // Emergency.
        let got = levels(
            &ladder,
            LadderState::default(),
            &[10.0, 11.0, 3.0, 5.0, 2.9],
        );
        assert_eq!(got, [0, 1, 1, 1, 0]);
    }

    #[test]
    fn two_level_rejects_bad_bands_naming_them() {
        let name = |r: Result<Ladder, CoreError>| match r {
            Err(CoreError::InvalidParameter { name, .. }) => name,
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        assert_eq!(name(Ladder::two_level(3.0, 10.0)), "exit");
        assert_eq!(name(Ladder::two_level(f64::NAN, 1.0)), "enter");
        assert_eq!(name(Ladder::two_level(-1.0, -2.0)), "enter");
        assert_eq!(name(Ladder::two_level(1.0, f64::INFINITY)), "exit");
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let ladder = Ladder::two_level(10.0, 3.0).expect("valid");
        let mut state = LadderState::default();
        let mut switches = usize::from(ladder.step(&mut state, 0, 20.0).is_some());
        for tick in 1..200 {
            let damage = if tick % 2 == 0 { 5.0 } else { 9.0 };
            switches += usize::from(ladder.step(&mut state, tick, damage).is_some());
        }
        assert_eq!((switches, state.level()), (1, 1));
    }

    #[test]
    fn no_rungs_never_switches() {
        let never = Ladder::new(Vec::new(), 0, Escalation::Immediate);
        let got = levels(&never, LadderState::default(), &[1e9, f64::INFINITY, 0.0]);
        assert_eq!(got, [0, 0, 0]);
    }

    #[test]
    fn one_rung_per_step_and_escalation_before_release() {
        // Overlapping bands: 0.5 both escalates and releases; escalation
        // wins until the top, where only release applies.
        let ladder = Ladder::new(
            vec![Rung { up: 0.5, down: 0.5 }; 2],
            0,
            Escalation::Immediate,
        );
        let got = levels(&ladder, LadderState::default(), &[1.0, 0.5, 0.5, 0.0]);
        assert_eq!(got, [1, 2, 1, 0]);
    }

    #[test]
    fn dwell_gates_by_rule_and_initial_state() {
        let band = Rung { up: 0.5, down: 0.1 };
        let gated = Ladder::new(vec![band; 2], 3, Escalation::DwellGated);
        let immediate = Ladder::new(vec![band; 2], 3, Escalation::Immediate);
        let surge = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        // First change exempt, then every change waits three ticks.
        assert_eq!(
            levels(&gated, LadderState::default(), &surge),
            [1, 1, 1, 2, 2, 2, 1, 1]
        );
        // Counted from tick 0: even the first change waits.
        assert_eq!(
            levels(&gated, LadderState::settled_at(0), &surge),
            [0, 0, 0, 1, 1, 1, 0, 0]
        );
        // Escalation at once; release still waits.
        assert_eq!(
            levels(&immediate, LadderState::default(), &surge),
            [1, 2, 2, 2, 1, 1, 1, 0]
        );
    }

    #[test]
    fn hold_escalates_and_blocks_release_below_it() {
        let ladder = Ladder::new(
            vec![Rung { up: 0.4, down: 0.1 }, Rung { up: 0.8, down: 0.5 }],
            0,
            Escalation::DwellGated,
        );
        let mut state = LadderState::default();
        assert_eq!(ladder.step_held(&mut state, 0, 0.0, 1), Some((0, 1)));
        assert_eq!(ladder.step_held(&mut state, 1, 0.0, 1), None);
        assert_eq!(ladder.step_held(&mut state, 2, 0.9, 1), Some((1, 2)));
        assert_eq!(ladder.step_held(&mut state, 3, 0.0, 1), Some((2, 1)));
        assert_eq!(ladder.step_held(&mut state, 4, 0.0, 0), Some((1, 0)));
    }

    #[test]
    fn capped_log_keeps_the_first_entries_and_counts_the_rest() {
        let mut log = CappedLog::default();
        for i in 0..LOG_CAP + 17 {
            log.push(i);
        }
        assert_eq!(log.entries().len(), LOG_CAP);
        assert_eq!(log.entries().last(), Some(&(LOG_CAP - 1)));
        assert_eq!(log.truncated(), 17);
        let (kept, truncated) = log.into_parts();
        assert_eq!((kept.len(), truncated), (LOG_CAP, 17));
    }
}
