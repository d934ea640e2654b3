//! Control-plane oracle for traced serves.
//!
//! A traced serve's breaker, brownout, mode, warning-score and incident
//! events must be exactly what the report's own logs say happened: one
//! `BreakerTransition` per logged breaker change, one
//! `BrownoutLevelChange` per brownout history entry, one
//! `ModeTransition` per mode change (plus an `IncidentSnapshot` for each
//! escalation to Emergency), and one `WarningScore` whenever the per-tick
//! score changes — each stamped with its own logged tick. The oracle
//! compares the multiset of `(tick, compact JSON)` rows, so it holds
//! whatever order the events are recorded in within a tick.
//!
//! Each snapshot's `captured` count is derived here from the report's
//! outcome log alone: the last [`RING_CAPACITY`] requests per family
//! decided at or before the escalation tick, or 0 once [`MAX_TRIGGERS`]
//! snapshots have been kept.

use proptest::prelude::*;
use resilience_anticipate::AnticipationConfig;
use resilience_core::faults::{FaultConfig, FaultPlan};
use resilience_service::{
    ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, ServiceReport, TraceSpec,
};
use resilience_telemetry::incident::{MAX_TRIGGERS, RING_CAPACITY};
use resilience_telemetry::{Event, Telemetry};

fn anticipation() -> AnticipationConfig {
    let mut anticipation = AnticipationConfig::default();
    anticipation.switch.emergency_on = 0.40;
    anticipation
}

fn diverse_2() -> ServiceConfig {
    ServiceConfig {
        servers_per_family: 4,
        replication: Some(ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    }
}

const CONFIGS: [&str; 5] = [
    "default",
    "degradation-off",
    "anticipation",
    "diverse-2",
    "anticipation-diverse-2",
];

fn config(name: &str) -> ServiceConfig {
    match name {
        "default" => ServiceConfig::default(),
        "degradation-off" => ServiceConfig {
            degradation: false,
            ..ServiceConfig::default()
        },
        "anticipation" => ServiceConfig {
            anticipation: Some(anticipation()),
            ..ServiceConfig::default()
        },
        "diverse-2" => diverse_2(),
        "anticipation-diverse-2" => ServiceConfig {
            anticipation: Some(anticipation()),
            ..diverse_2()
        },
        other => panic!("unknown config {other}"),
    }
}

/// The golden matrix's four fault plans.
const PLANS: [&str; 4] = [
    "",
    "seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05",
    "seed=11,panic=0.05,gray=0.1,correlated=0.25",
    "seed=23,gray=1.0",
];

fn plan(spec: &str) -> FaultPlan {
    if spec.is_empty() {
        return FaultPlan::none();
    }
    FaultConfig::parse(spec).expect("canned plan parses").plan
}

fn row(tick: u64, event: &Event) -> (u64, String) {
    (
        tick,
        serde_json::to_string(event).expect("event serializes"),
    )
}

/// The trace label whose serialized form is `display`'s text: the oracle
/// reads labels from the report types' display forms, not from the
/// engine's conversions.
fn label<T: serde::Deserialize>(display: impl std::fmt::Display) -> T {
    let text = serde::Value::String(display.to_string());
    T::deserialize(&text).expect("display form is a trace label")
}

fn is_control_plane(event: &Event) -> bool {
    matches!(
        event,
        Event::BreakerTransition { .. }
            | Event::BrownoutLevelChange { .. }
            | Event::ModeTransition { .. }
            | Event::WarningScore { .. }
            | Event::IncidentSnapshot { .. }
    )
}

/// Requests a flight window holds at `tick`: per family, the requests
/// decided at or before `tick`, at most [`RING_CAPACITY`] of them.
fn flight_window(report: &ServiceReport, tick: u64) -> u64 {
    let mut per_family = vec![0u64; report.per_family.len().max(1)];
    for o in report.outcomes.iter().filter(|o| o.decided_at <= tick) {
        per_family[o.family] += 1;
    }
    per_family
        .iter()
        .map(|&n| n.min(RING_CAPACITY as u64))
        .sum()
}

/// The control-plane rows the report's logs imply, sorted.
fn derived(report: &ServiceReport) -> Vec<(u64, String)> {
    let mut rows = Vec::new();
    for (family, log) in report.breaker_transitions.iter().enumerate() {
        for t in log {
            let event = Event::BreakerTransition {
                family: family as u32,
                from: label(t.from),
                to: label(t.to),
            };
            rows.push(row(t.tick, &event));
        }
    }
    for &(tick, level) in &report.brownout_history {
        rows.push(row(tick, &Event::BrownoutLevelChange { level }));
    }
    let mut kept = 0;
    for t in &report.mode_transitions {
        let event = Event::ModeTransition {
            from: label(t.from),
            to: label(t.to),
            score_milli: t.score_milli,
        };
        rows.push(row(t.tick, &event));
        if t.is_escalation() {
            let captured = if kept < MAX_TRIGGERS {
                flight_window(report, t.tick)
            } else {
                0
            };
            kept += 1;
            let snapshot = Event::IncidentSnapshot {
                trigger: label("mode-escalation"),
                trigger_tick: t.tick,
                captured,
            };
            rows.push(row(t.tick, &snapshot));
        }
    }
    let mut last = None;
    for (tick, &score_milli) in report.warning_scores.iter().enumerate() {
        if last != Some(score_milli) {
            rows.push(row(tick as u64, &Event::WarningScore { score_milli }));
            last = Some(score_milli);
        }
    }
    rows.sort();
    rows
}

/// Serve traced and untraced; check the control-plane oracle and that
/// tracing did not steer. Returns the number of control-plane events.
fn check(config_name: &str, plan_spec: &str, len: u64, seed: u64) -> usize {
    let trace = RequestTrace::generate(&TraceSpec {
        base_rate: 1.5,
        surge_factor: 3.0,
        ..TraceSpec::new(len, seed)
    });
    let plan = plan(plan_spec);
    let engine = ServiceEngine::new(config(config_name));
    let mut tel = Telemetry::new(1.0);
    let report = engine.serve_traced(&trace, &plan, &mut tel);
    let cell = format!("{config_name} / {plan_spec:?} / {len} / {seed}");
    assert_eq!(
        report,
        engine.serve(&trace, &plan),
        "{cell}: tracing steered the serve"
    );
    let mut traced: Vec<(u64, String)> = tel
        .tracer
        .merged()
        .iter()
        .filter(|e| is_control_plane(&e.event))
        .map(|e| row(e.tick, &e.event))
        .collect();
    traced.sort();
    let expected = derived(&report);
    assert_eq!(traced, expected, "{cell}: control-plane events drifted");
    traced.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every traced control-plane event is derivable from the report.
    #[test]
    fn control_plane_events_match_the_report_logs(
        len in 100u64..=400,
        seed in any::<u64>(),
        config_idx in 0usize..CONFIGS.len(),
        plan_idx in 0usize..PLANS.len(),
    ) {
        check(CONFIGS[config_idx], PLANS[plan_idx], len, seed);
    }
}

/// Every configuration and plan at a fixed trace, so each arm is
/// covered whatever the property draws; the anticipation arms must
/// actually escalate for the snapshot rule to bite.
#[test]
fn every_arm_matches_on_the_golden_trace() {
    let mut events = 0;
    for config_name in CONFIGS {
        for plan_spec in PLANS {
            events += check(config_name, plan_spec, 300, 42);
        }
    }
    assert!(events > 0, "the matrix must record control-plane events");
    let trace = RequestTrace::generate(&TraceSpec {
        base_rate: 1.5,
        surge_factor: 3.0,
        ..TraceSpec::new(300, 42)
    });
    let report = ServiceEngine::new(config("anticipation")).serve(&trace, &plan(PLANS[1]));
    assert!(
        report.mode_transitions.iter().any(|t| t.is_escalation()),
        "the chaos anticipation arm must escalate to Emergency"
    );
}
