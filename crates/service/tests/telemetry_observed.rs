//! Telemetry contract of the serving layer: recording observes, never
//! steers; the observed trajectory is bit-identical to the report's
//! own; and every exposition (trace JSON, Prometheus text, metrics
//! JSON) is byte-identical for any thread budget.

use resilience_core::faults::{FaultConfig, FaultPlan};
use resilience_service::{
    Disposition, ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, ServiceReport,
    TraceSpec,
};
use resilience_telemetry::{Event, Telemetry};

fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 11,
        panic_rate: 0.10,
        delay_rate: 0.05,
        poison_rate: 0.10,
        permanent_rate: 0.05,
        ..FaultPlan::none()
    }
}

fn run_traced(
    threads: usize,
    degradation: bool,
    trace: &RequestTrace,
    plan: &FaultPlan,
) -> (ServiceReport, Telemetry) {
    let engine = ServiceEngine::new(ServiceConfig {
        threads,
        degradation,
        ..ServiceConfig::default()
    });
    let mut tel = Telemetry::new(1.0);
    let report = engine.serve_traced(trace, plan, &mut tel);
    (report, tel)
}

#[test]
fn tracing_never_changes_the_report() {
    let trace = RequestTrace::generate(&TraceSpec::new(400, 42));
    let plan = chaos_plan();
    for degradation in [true, false] {
        let engine = ServiceEngine::new(ServiceConfig {
            degradation,
            ..ServiceConfig::default()
        });
        let plain = engine.serve(&trace, &plan);
        let (traced, _) = run_traced(1, degradation, &trace, &plan);
        assert_eq!(plain, traced, "degradation={degradation}");
    }
}

#[test]
fn observed_trajectory_is_bit_identical_to_the_reports() {
    let trace = RequestTrace::generate(&TraceSpec::new(500, 7));
    let (report, tel) = run_traced(1, true, &trace, &chaos_plan());
    assert_eq!(tel.trajectory.quality(), &report.quality);
    let attr = tel.trajectory.attribution();
    assert_eq!(attr.total, report.resilience_loss());
    let err = (attr.components_sum() - attr.total).abs();
    assert!(
        err <= 1e-9 * attr.total.max(1.0),
        "attribution must reconcile: {} vs {}",
        attr.components_sum(),
        attr.total
    );
    // With brownout on, nothing fails hard — the deficit is all shed
    // plus degraded service.
    assert_eq!(attr.failed, 0.0);
    assert!(attr.degraded > 0.0);
}

#[test]
fn every_exposition_is_byte_identical_across_thread_budgets() {
    let trace = RequestTrace::generate(&TraceSpec::new(400, 42));
    for plan in [FaultPlan::none(), chaos_plan()] {
        let (_, base) = run_traced(1, true, &trace, &plan);
        for threads in [2usize, 4] {
            let (_, other) = run_traced(threads, true, &trace, &plan);
            assert_eq!(
                base.tracer.to_json(),
                other.tracer.to_json(),
                "trace, threads={threads}"
            );
            assert_eq!(
                base.metrics.to_prometheus(),
                other.metrics.to_prometheus(),
                "prometheus, threads={threads}"
            );
            assert_eq!(
                base.metrics.to_json(),
                other.metrics.to_json(),
                "metrics json, threads={threads}"
            );
        }
    }
}

#[test]
fn trace_tallies_reconcile_with_the_report() {
    let trace = RequestTrace::generate(&TraceSpec::new(600, 42));
    for degradation in [true, false] {
        let (report, tel) = run_traced(1, degradation, &trace, &chaos_plan());
        let merged = tel.tracer.merged();
        let served = merged
            .iter()
            .filter(|e| matches!(e.event, Event::RequestServed { .. }))
            .count() as u64;
        let shed = merged
            .iter()
            .filter(|e| matches!(e.event, Event::RequestShed { .. }))
            .count() as u64;
        let failed = merged
            .iter()
            .filter(|e| matches!(e.event, Event::RequestFailed { .. }))
            .count() as u64;
        assert_eq!(served, report.served(), "degradation={degradation}");
        assert_eq!(shed, report.shed(), "degradation={degradation}");
        assert_eq!(failed, report.failed(), "degradation={degradation}");
        let transitions: u64 = report
            .breaker_transitions
            .iter()
            .map(|t| t.len() as u64)
            .sum();
        let transition_events = merged
            .iter()
            .filter(|e| matches!(e.event, Event::BreakerTransition { .. }))
            .count() as u64;
        assert_eq!(transition_events, transitions);
        let brownout_events = merged
            .iter()
            .filter(|e| matches!(e.event, Event::BrownoutLevelChange { .. }))
            .count();
        assert_eq!(brownout_events, report.brownout_history.len());
    }
}

/// The replication events reconcile with the report's replica tallies.
/// The serve is the golden matrix's `diverse-2` arm under its
/// `correlated` plan, on the matrix's surge trace with tighter deadlines
/// (seed 4): it hedges, fails over, wins hedges and runs its retry
/// budget dry, and each of those shows up once in the trace.
#[test]
fn replication_events_reconcile_with_the_replica_stats() {
    let trace = RequestTrace::generate(&TraceSpec {
        base_rate: 1.5,
        surge_factor: 3.0,
        deadline: (12, 50),
        ..TraceSpec::new(300, 4)
    });
    let plan = FaultConfig::parse("seed=11,panic=0.05,gray=0.1,correlated=0.25")
        .expect("canned plan parses")
        .plan;
    let engine = ServiceEngine::new(ServiceConfig {
        servers_per_family: 4,
        replication: Some(ReplicationConfig {
            replicas: 2,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    });
    let mut tel = Telemetry::new(1.0);
    let report = engine.serve_traced(&trace, &plan, &mut tel);
    let merged = tel.tracer.merged();
    let count = |pred: fn(&Event) -> bool| merged.iter().filter(|e| pred(&e.event)).count() as u64;
    let stat = |f: fn(&resilience_service::ReplicaFamilyStats) -> u64| {
        report.replica_stats.iter().map(f).sum::<u64>()
    };
    let launched = count(|e| matches!(e, Event::HedgeLaunched { .. }));
    let failovers = count(|e| matches!(e, Event::ReplicaFailover { .. }));
    let won = count(|e| matches!(e, Event::HedgeWon { .. }));
    let exhausted = count(|e| matches!(e, Event::RetryBudgetExhausted { .. }));
    let routed = count(|e| matches!(e, Event::ReplicaRouted { .. }));
    for (name, n) in [
        ("hedges launched", launched),
        ("failovers", failovers),
        ("hedges won", won),
        ("budget exhausted", exhausted),
    ] {
        assert!(n > 0, "the plan must exercise {name}");
    }
    assert_eq!(launched, stat(|s| s.hedges_launched));
    assert_eq!(failovers, stat(|s| s.failovers));
    assert_eq!(won, stat(|s| s.hedges_won));
    assert_eq!(exhausted, stat(|s| s.budget_exhausted));
    assert_eq!(stat(|s| s.routed), routed + launched + failovers);
}

#[test]
fn service_report_serializes_through_the_shared_trajectory_type() {
    let trace = RequestTrace::generate(&TraceSpec::new(100, 3));
    let (report, _) = run_traced(1, true, &trace, &FaultPlan::none());
    let value = serde::Serialize::serialize(&report);
    let text = serde_json::to_string_pretty(&value).expect("report serializes");
    assert!(text.contains("\"quality\""));
    assert!(text.contains("\"samples\""));
    assert!(text.contains("\"outcomes\""));
    // The metrics exposition names every required family.
    let mut tel = Telemetry::new(1.0);
    resilience_service::record_service(&mut tel, &report);
    let prom = tel.metrics.to_prometheus();
    for family in [
        "service_requests_total",
        "service_shed_total",
        "service_resilience_loss",
        "service_latency_ticks_bucket",
    ] {
        assert!(prom.contains(family), "missing {family} in exposition");
    }
    // `failed` count must survive the round through Disposition's serde.
    let outcome = &report.outcomes[0];
    let round: resilience_service::RequestOutcome =
        serde::Deserialize::deserialize(&serde::Serialize::serialize(outcome))
            .expect("outcome round-trips");
    assert_eq!(&round, outcome);
    let _ = Disposition::Shed {
        reason: resilience_service::ShedReason::QueueFull,
    };
}
