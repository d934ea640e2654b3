//! Determinism and resilience properties of the replicated serve path.
//!
//! The acceptance bar from ISSUE 9: the replicated report — including
//! which replica served each request and whether a hedge won — must be
//! byte-identical for threads 1 vs 4; `R(N=2) < R(N=1)` under
//! correlated faults at equal aggregate capacity; and retry-budget
//! exhaustion must degrade to single-attempt serving instead of
//! hard-failing. Anticipation composes with replication in the same
//! serve loop: an anticipatory replicated storm replays byte-for-byte.

use resilience_anticipate::AnticipationConfig;
use resilience_core::faults::FaultPlan;
use resilience_service::{
    ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, ServiceReport, TraceSpec,
};

/// A config whose aggregate capacity (4 servers, 16 queue slots per
/// family) divides evenly across 1 or 2 replicas, so the N sweep
/// compares redundancy — never provisioning.
fn replicated_config(replicas: usize, classes: Vec<u32>, threads: usize) -> ServiceConfig {
    ServiceConfig {
        servers_per_family: 4,
        threads,
        replication: Some(ReplicationConfig {
            replicas,
            diversity_classes: classes,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    }
}

fn run(config: ServiceConfig, trace: &RequestTrace, plan: &FaultPlan) -> ServiceReport {
    ServiceEngine::new(config).serve(trace, plan)
}

/// Correlated blasts plus a sprinkle of panics and gray slowness — the
/// chaos mix that makes redundancy and diversity earn their keep.
fn correlated_chaos() -> FaultPlan {
    FaultPlan {
        seed: 11,
        panic_rate: 0.05,
        gray_rate: 0.10,
        correlated_rate: 0.25,
        ..FaultPlan::none()
    }
}

/// Every replica slot slowed, none failed: the hedging stress case.
fn gray_storm() -> FaultPlan {
    FaultPlan {
        seed: 23,
        gray_rate: 1.0,
        ..FaultPlan::none()
    }
}

/// A moderate-load workload where redundancy pays: enough headroom
/// that the diverse arm's failovers (which re-run the dead attempt's
/// work) fit inside deadlines, but enough correlated damage that the
/// single-backend arm keeps eating cached-fallback penalties.
fn moderate_trace(seed: u64) -> RequestTrace {
    RequestTrace::generate(&TraceSpec {
        base_rate: 0.8,
        surge_factor: 2.5,
        deadline: (30, 70),
        ..TraceSpec::new(600, seed)
    })
}

#[test]
fn replicated_report_is_byte_identical_for_any_thread_budget() {
    let trace = RequestTrace::generate(&TraceSpec::new(400, 42));
    for plan in [FaultPlan::none(), correlated_chaos(), gray_storm()] {
        let baseline = run(replicated_config(2, vec![], 1), &trace, &plan);
        let baseline_json = serde_json::to_string(&baseline).expect("replicated report serializes");
        for threads in [2usize, 4] {
            let other = run(replicated_config(2, vec![], threads), &trace, &plan);
            assert_eq!(
                baseline, other,
                "threads={threads}: full report must replay"
            );
            let other_json = serde_json::to_string(&other).expect("report serializes");
            assert_eq!(
                baseline_json, other_json,
                "threads={threads}: serialized report must be byte-identical"
            );
        }
    }
}

/// `replicas: 1` and the unreplicated config run the same serve loop;
/// they differ only in the fault key, which a quiet plan never reads.
#[test]
fn n1_replication_under_a_quiet_plan_matches_the_legacy_path_exactly() {
    let trace = RequestTrace::generate(&TraceSpec::new(500, 42));
    let plan = FaultPlan::none();
    let unreplicated = run(
        ServiceConfig {
            servers_per_family: 4,
            ..ServiceConfig::default()
        },
        &trace,
        &plan,
    );
    let replicated = run(replicated_config(1, vec![], 1), &trace, &plan);
    // The replicated machinery must be pure overhead on the quiet
    // N = 1 path: every externally visible decision is identical.
    assert_eq!(unreplicated.outcomes, replicated.outcomes);
    assert_eq!(unreplicated.per_family, replicated.per_family);
    assert_eq!(unreplicated.quality, replicated.quality);
    assert_eq!(unreplicated.brownout_history, replicated.brownout_history);
    assert_eq!(unreplicated.ticks, replicated.ticks);
    assert!(replicated.replication_active());
    assert!(!unreplicated.replication_active());
    assert_eq!(replicated.hedges_launched(), 0, "no one to hedge against");
    assert_eq!(replicated.failovers(), 0);
}

#[test]
fn replication_lowers_resilience_loss_under_correlated_faults() {
    let trace = moderate_trace(42);
    let plan = correlated_chaos();
    let single = run(replicated_config(1, vec![], 1), &trace, &plan);
    let replicated = run(replicated_config(2, vec![], 1), &trace, &plan);
    let (r1, r2) = (single.resilience_loss(), replicated.resilience_loss());
    assert!(
        r2 < r1,
        "a diverse replica pair must shrink the resilience triangle: R(N=1)={r1} R(N=2)={r2}"
    );
    assert_eq!(single.failed(), 0, "degradation still absorbs every fault");
    assert_eq!(replicated.failed(), 0);
    assert!(
        replicated.failovers() > 0,
        "correlated kills must actually exercise failover"
    );
}

#[test]
fn diverse_replica_sets_beat_homogeneous_ones_under_correlated_faults() {
    let trace = moderate_trace(42);
    let plan = correlated_chaos();
    // Same N, same capacity split — only the diversity-class wiring
    // differs: one correlated draw fells the whole homogeneous set.
    let homogeneous = run(replicated_config(2, vec![0], 1), &trace, &plan);
    let diverse = run(replicated_config(2, vec![], 1), &trace, &plan);
    let (r_homo, r_div) = (homogeneous.resilience_loss(), diverse.resilience_loss());
    assert!(
        r_div < r_homo,
        "diversity must pay under correlated chaos: homogeneous R={r_homo} diverse R={r_div}"
    );
}

#[test]
fn retry_budget_exhaustion_degrades_to_single_attempt_serving() {
    let trace = RequestTrace::generate(&TraceSpec::new(400, 42));
    let plan = gray_storm();
    let starved = ServiceConfig {
        servers_per_family: 4,
        replication: Some(ReplicationConfig {
            replicas: 2,
            budget_capacity: 0,
            budget_refill_milli: 0,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    };
    let report = run(starved, &trace, &plan);
    assert_eq!(
        report.hedges_launched(),
        0,
        "an empty budget must suppress every hedge"
    );
    assert_eq!(report.failovers(), 0);
    assert_eq!(
        report.failed(),
        0,
        "budget starvation degrades service, it never hard-fails"
    );
    assert_eq!(report.total(), 400, "every request still adjudicated");
    let exhausted: u64 = report
        .replica_stats
        .iter()
        .map(|s| s.budget_exhausted)
        .sum();
    assert!(
        exhausted > 0,
        "the gray storm must actually press against the empty budget"
    );
}

#[test]
fn hedge_and_failover_volume_is_bounded_by_the_retry_budget() {
    let trace = RequestTrace::generate(&TraceSpec::new(600, 42));
    let report = run(replicated_config(2, vec![], 1), &trace, &gray_storm());
    assert_eq!(report.failed(), 0, "gray storms slow, they never fail");
    assert!(
        report.hedges_launched() > 0,
        "a 100%-gray storm must trigger hedging"
    );
    let rcfg = ReplicationConfig::default();
    for (fam, stats) in report.replica_stats.iter().enumerate() {
        let spent = stats.hedges_launched + stats.failovers;
        assert_eq!(
            spent, stats.budget_spent,
            "family {fam}: every extra attempt costs exactly one token"
        );
        let ceiling = u64::from(rcfg.budget_capacity)
            + report.ticks * u64::from(rcfg.budget_refill_milli) / 1000
            + 1;
        assert!(
            spent <= ceiling,
            "family {fam}: budget must bound extra attempts: spent={spent} ceiling={ceiling}"
        );
    }
}

#[test]
fn replica_log_is_consistent_with_the_outcome_log() {
    let trace = RequestTrace::generate(&TraceSpec::new(500, 42));
    let report = run(replicated_config(2, vec![], 1), &trace, &correlated_chaos());
    let mut last_id = None;
    for entry in &report.replica_log {
        assert!(
            last_id < Some(entry.id),
            "replica log must be strictly ascending by request id"
        );
        last_id = Some(entry.id);
        assert!(entry.replica < 2, "replica index inside the set");
        if entry.hedge_won {
            assert!(entry.hedged, "a hedge can only win if it was launched");
        }
        let outcome = &report.outcomes[usize::try_from(entry.id).expect("id fits")];
        assert_eq!(outcome.id, entry.id, "outcomes are in id order");
    }
    let hedges_won: u64 = report.replica_stats.iter().map(|s| s.hedges_won).sum();
    assert_eq!(
        report.replica_log.iter().filter(|e| e.hedge_won).count() as u64,
        hedges_won,
        "per-request hedge wins must reconcile with the family tallies"
    );
}

#[test]
fn anticipation_composes_with_replication_under_a_correlated_storm() {
    // A sustained overload, surged four times again mid-trace: the
    // anticipation loop must escalate while the replica router hedges
    // and fails over underneath it.
    let trace = RequestTrace::generate(&TraceSpec {
        base_rate: 6.0,
        surge_factor: 4.0,
        ..TraceSpec::new(600, 42)
    });
    let plan = correlated_chaos();
    let anticipatory = |threads| {
        let mut anticipation = AnticipationConfig::default();
        anticipation.switch.emergency_on = 0.40;
        ServiceConfig {
            anticipation: Some(anticipation),
            ..replicated_config(2, vec![], threads)
        }
    };
    let report = run(anticipatory(1), &trace, &plan);
    let other = run(anticipatory(2), &trace, &plan);
    assert_eq!(
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&other).expect("report serializes"),
        "the anticipatory replicated report must be byte-identical at threads 1 and 2"
    );
    assert!(report.emergency_ticks > 0, "the storm must reach Emergency");
    assert!(
        report.hedges_launched() > 0 && report.failovers() > 0,
        "the router must hedge and fail over under the anticipation loop"
    );
    for (fam, stats) in report.replica_stats.iter().enumerate() {
        assert_eq!(
            stats.hedges_launched + stats.failovers,
            stats.budget_spent,
            "family {fam}: every extra attempt costs exactly one token"
        );
    }
    assert_eq!(report.total(), 600, "every request adjudicated");
    assert_eq!(report.outcomes.len(), 600);
    assert_eq!(report.failed(), 0, "degradation still absorbs every fault");
}
