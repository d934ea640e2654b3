//! Equivalence suite for the one hysteresis ladder (`core::modes`).
//!
//! Four mode machines used to carry their own transition logic. Each is
//! written out below as a small reference function, exactly as that
//! code behaved, and the ladder configured for it must reproduce its
//! level sequence and transition log on random streams:
//!
//! * core (E13/E19): 2 levels; up `> enter`, down `< exit`; no dwell;
//! * anticipation: up `>= on`, down `<= off`; the warning latch also
//!   escalates Normal→Alert and blocks Alert→Normal; the dwell gates
//!   both directions and a first change is exempt;
//! * brownout: one band pair for both rungs; up `> raise_above`, down
//!   `< lower_below`; the dwell gates both directions and counts from
//!   tick 0;
//! * cluster nodes: up `>= on`, down `< off`; the dwell gates release
//!   only and a first change is exempt.
//!
//! Signals are drawn from each threshold, its `next_up`/`next_down`, 0,
//! 1 and uniform: equality at a threshold is real traffic (a degree-4
//! node with one or two dead neighbours has pressure exactly 0.25 or
//! 0.5, the default `alert_on` and `emergency_on`).

use proptest::prelude::*;
use systems_resilience::anticipate::{
    AnticipationConfig, AnticipationController, EarlyWarning, ModeSwitchConfig,
};
use systems_resilience::cluster::NodeAnticipationConfig;
use systems_resilience::core::modes::{Ladder, LadderState};
use systems_resilience::service::{BrownoutConfig, BrownoutController};

/// One observation: tick, signal, warning latch.
type Obs = (u64, f64, bool);
/// `(tick, from, to)` per level change.
type Log = Vec<(u64, u8, u8)>;
/// Raw draws: value selector, uniform value, latch, tick increment.
type Draw = (u32, f64, bool, u64);

/// Band values the callers use, plus the edges of the signal range.
const BAND_POOL: [f64; 10] = [0.0, 0.03, 0.1, 0.15, 0.25, 0.35, 0.5, 0.85, 1.0, 2.0];

fn pick(selector: u32, uniform: f64, pool: &[f64]) -> f64 {
    pool.get(selector as usize % (pool.len() + 2))
        .copied()
        .unwrap_or(uniform)
}

/// Turn raw draws into a stream whose signals sit on, just above and
/// just below every threshold, at 0 and 1, or anywhere in between.
fn stream(draws: &[Draw], thresholds: &[f64], start: u64) -> Vec<Obs> {
    let mut pool = vec![0.0, 1.0];
    for &t in thresholds {
        pool.extend([t, t.next_up(), t.next_down()]);
    }
    let mut tick = start;
    draws
        .iter()
        .map(|&(selector, uniform, latch, gap)| {
            tick += gap;
            (tick, pick(selector, uniform, &pool), latch)
        })
        .collect()
}

/// Drive `ladder` over `obs`, holding at 1 while the latch is on when
/// `latched`.
fn run_ladder(
    ladder: &Ladder,
    mut state: LadderState,
    obs: &[Obs],
    latched: bool,
) -> (Vec<u8>, Log) {
    let mut levels = Vec::new();
    let mut log = Vec::new();
    for &(tick, signal, latch) in obs {
        let hold = u8::from(latched && latch);
        if let Some((from, to)) = ladder.step_held(&mut state, tick, signal, hold) {
            log.push((tick, from, to));
        }
        levels.push(state.level());
    }
    (levels, log)
}

/// Reference: the two-level threshold policy of E13/E19.
fn core_reference(enter: f64, exit: f64, obs: &[Obs]) -> (Vec<u8>, Log) {
    let mut mode = 0u8;
    let mut levels = Vec::new();
    let mut log = Vec::new();
    for &(tick, damage, _) in obs {
        let next = match mode {
            0 if damage > enter => 1,
            1 if damage < exit => 0,
            m => m,
        };
        if next != mode {
            log.push((tick, mode, next));
            mode = next;
        }
        levels.push(mode);
    }
    (levels, log)
}

/// Reference: the anticipation controller's three-state switch.
fn anticipation_reference(sw: &ModeSwitchConfig, obs: &[Obs]) -> (Vec<u8>, Log) {
    let (mut mode, mut last_change, mut changed) = (0u8, 0u64, false);
    let mut levels = Vec::new();
    let mut log = Vec::new();
    for &(tick, score, active) in obs {
        let dwelled = !changed || tick.saturating_sub(last_change) >= sw.dwell;
        let target = if dwelled {
            match mode {
                0 if score >= sw.alert_on || active => Some(1),
                1 if score >= sw.emergency_on => Some(2),
                1 if score <= sw.alert_off && !active => Some(0),
                2 if score <= sw.emergency_off => Some(1),
                _ => None,
            }
        } else {
            None
        };
        if let Some(to) = target {
            log.push((tick, mode, to));
            mode = to;
            last_change = tick;
            changed = true;
        }
        levels.push(mode);
    }
    (levels, log)
}

/// Reference: the brownout dimmer's reactive level.
fn brownout_reference(
    raise_above: f64,
    lower_below: f64,
    dwell: u64,
    obs: &[Obs],
) -> (Vec<u8>, Log) {
    let (mut level, mut last_change) = (0u8, 0u64);
    let mut levels = Vec::new();
    let mut log = Vec::new();
    for &(tick, pressure, _) in obs {
        if tick.saturating_sub(last_change) >= dwell {
            let from = level;
            if pressure > raise_above && level < 2 {
                level += 1;
            } else if pressure < lower_below && level > 0 {
                level -= 1;
            }
            if level != from {
                last_change = tick;
                log.push((tick, from, level));
            }
        }
        levels.push(level);
    }
    (levels, log)
}

/// Reference: one cluster node's mode ladder.
fn cluster_reference(cfg: &NodeAnticipationConfig, obs: &[Obs]) -> (Vec<u8>, Log) {
    let (mut mode, mut changed_at) = (0u8, u64::MAX);
    let mut levels = Vec::new();
    let mut log = Vec::new();
    for &(tick, pressure, _) in obs {
        let dwelled = changed_at == u64::MAX || tick.saturating_sub(changed_at) >= cfg.dwell;
        let next = match mode {
            0 if pressure >= cfg.alert_on => 1,
            1 if pressure >= cfg.emergency_on => 2,
            1 if dwelled && pressure < cfg.alert_off => 0,
            2 if dwelled && pressure < cfg.emergency_off => 1,
            m => m,
        };
        if next != mode {
            log.push((tick, mode, next));
            mode = next;
            changed_at = tick;
        }
        levels.push(mode);
    }
    (levels, log)
}

/// Four band values from the pool or uniform, or bench_smoke's pinned
/// anticipation bands (`alert_on = emergency_on = 2.0 > emergency_off`),
/// under which a latch encoded as `max(score, alert_on)` would escalate
/// to Emergency.
fn bands(b: &[(u32, f64)], pinned: bool) -> [f64; 4] {
    if pinned {
        [2.0, 0.15, 2.0, 0.5]
    } else {
        [0, 1, 2, 3].map(|i| pick(b[i].0, b[i].1, &BAND_POOL))
    }
}

fn draws() -> impl Strategy<Value = Vec<Draw>> {
    proptest::collection::vec((any::<u32>(), 0.0f64..1.0, any::<bool>(), 0u64..3), 1..300)
}

fn band_draw() -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((any::<u32>(), 0.0f64..1.0), 4..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn two_level_ladder_matches_the_threshold_policy(
        obs in draws(),
        enter in (any::<u32>(), 0.0f64..1.0),
        exit_frac in 0.0f64..1.0,
        start in 0u64..5,
    ) {
        let enter = pick(enter.0, enter.1, &BAND_POOL);
        let exit = enter * exit_frac;
        let obs = stream(&obs, &[enter, exit], start);
        let ladder = Ladder::two_level(enter, exit).expect("ordered, finite, non-negative");
        prop_assert_eq!(
            run_ladder(&ladder, LadderState::default(), &obs, false),
            core_reference(enter, exit, &obs)
        );
    }

    #[test]
    fn anticipation_ladder_matches_the_mode_switch(
        obs in draws(),
        b in band_draw(),
        dwell in 0u64..6,
        pinned in any::<bool>(),
    ) {
        let [alert_on, alert_off, emergency_on, emergency_off] = bands(&b, pinned);
        let sw = ModeSwitchConfig { alert_on, alert_off, emergency_on, emergency_off, dwell };
        let obs = stream(&obs, &[alert_on, alert_off, emergency_on, emergency_off], 0);
        prop_assert_eq!(
            run_ladder(&sw.ladder(), LadderState::default(), &obs, true),
            anticipation_reference(&sw, &obs)
        );
    }

    #[test]
    fn brownout_controller_matches_the_dimmer(
        obs in draws(),
        b in band_draw(),
        dwell in 0u64..6,
        start in 0u64..5,
    ) {
        let [raise_above, lower_below, ..] = bands(&b, false);
        // alpha = 1: the smoothed pressure is the (clamped) sample itself.
        let mut dimmer = BrownoutController::new(BrownoutConfig {
            alpha: 1.0,
            raise_above,
            lower_below,
            dwell,
            ..BrownoutConfig::default()
        });
        let obs: Vec<Obs> = stream(&obs, &[raise_above, lower_below], start)
            .into_iter()
            .map(|(tick, s, latch)| (tick, s.clamp(0.0, 1.0), latch))
            .collect();
        let mut levels = Vec::new();
        for &(tick, pressure, _) in &obs {
            dimmer.observe(tick, pressure, 0.0);
            levels.push(dimmer.level());
        }
        let (want_levels, want_log) = brownout_reference(raise_above, lower_below, dwell, &obs);
        prop_assert_eq!(levels, want_levels);
        let want_history: Vec<(u64, u8)> = want_log.iter().map(|&(t, _, to)| (t, to)).collect();
        prop_assert_eq!(dimmer.history(), &want_history[..]);
    }

    #[test]
    fn cluster_ladder_matches_the_node_modes(
        obs in draws(),
        b in band_draw(),
        dwell in 0u64..6,
    ) {
        let [alert_on, alert_off, emergency_on, emergency_off] = bands(&b, false);
        let cfg = NodeAnticipationConfig {
            alert_on,
            alert_off,
            emergency_on,
            emergency_off,
            dwell,
            ..NodeAnticipationConfig::default()
        };
        let obs = stream(&obs, &[alert_on, alert_off, emergency_on, emergency_off], 0);
        prop_assert_eq!(
            run_ladder(&cfg.ladder(), LadderState::default(), &obs, false),
            cluster_reference(&cfg, &obs)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The whole controller, latch wiring included: a twin detector
    /// reads the same samples, and the reference switch fed its scores
    /// and latch reproduces the controller's modes and transition log.
    #[test]
    fn anticipation_controller_matches_the_reference_on_detector_scores(
        samples in proptest::collection::vec(0.0f64..1.0, 1..400),
        b in band_draw(),
        dwell in 0u64..6,
        confirm in 1u32..4,
    ) {
        let mut config = AnticipationConfig::default();
        config.detector.window = 8;
        config.detector.confirm = confirm;
        let [alert_on, alert_off, emergency_on, emergency_off] = bands(&b, false);
        config.switch = ModeSwitchConfig { alert_on, alert_off, emergency_on, emergency_off, dwell };
        let mut twin = EarlyWarning::new(config.detector.clone());
        let mut controller = AnticipationController::new(config.clone());
        let mut obs = Vec::new();
        let mut modes = Vec::new();
        for (tick, &x) in (0u64..).zip(&samples) {
            let snap = twin.observe(x);
            obs.push((tick, snap.score, snap.active));
            modes.push(controller.observe(tick, x) as u8);
        }
        let (want_modes, want_log) = anticipation_reference(&config.switch, &obs);
        prop_assert_eq!(modes, want_modes);
        let log: Log = controller
            .transitions()
            .iter()
            .map(|t| (t.tick, t.from as u8, t.to as u8))
            .collect();
        prop_assert_eq!(log, want_log);
    }
}
