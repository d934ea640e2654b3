//! Property tests for the replicated serve path: the determinism
//! contract (bit-identical reports for any thread budget, for any
//! replication factor and chaos mix), the retry-budget accounting
//! invariant (every extra attempt costs exactly one token and the
//! token stream bounds the volume), and the replica log's internal
//! consistency.

use proptest::prelude::*;
use systems_resilience::anticipate::AnticipationConfig;
use systems_resilience::core::faults::FaultPlan;
use systems_resilience::service::{
    ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, ServiceReport, TraceSpec,
};

fn serve(
    replicas: usize,
    classes: Vec<u32>,
    threads: usize,
    trace: &RequestTrace,
    plan: &FaultPlan,
) -> ServiceReport {
    let engine = ServiceEngine::new(ServiceConfig {
        servers_per_family: 4,
        threads,
        replication: Some(ReplicationConfig {
            replicas,
            diversity_classes: classes,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    });
    engine.serve(trace, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The replicated report replays bit-identically for threads 1, 2,
    /// and 4 under arbitrary chaos mixes, replication factors, and
    /// diversity wirings — routing, hedging, failover, and budget
    /// decisions must all live on the logical clock. The same holds
    /// with anticipation steering a diverse pair through a storm.
    #[test]
    fn replicated_reports_are_thread_invariant(
        trace_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        replicas in 1usize..=3,
        homogeneous in any::<bool>(),
        panic_m in 0u32..=150,
        gray_m in 0u32..=300,
        correlated_m in 0u32..=300,
    ) {
        let trace = RequestTrace::generate(&TraceSpec::new(200, trace_seed));
        let plan = FaultPlan {
            seed: plan_seed,
            panic_rate: f64::from(panic_m) / 1000.0,
            gray_rate: f64::from(gray_m) / 1000.0,
            correlated_rate: f64::from(correlated_m) / 1000.0,
            ..FaultPlan::none()
        };
        let classes = if homogeneous { vec![0] } else { Vec::new() };
        let baseline = serve(replicas, classes.clone(), 1, &trace, &plan);
        for threads in [2usize, 4] {
            let other = serve(replicas, classes.clone(), threads, &trace, &plan);
            prop_assert!(
                baseline == other,
                "replicated report diverged at threads={threads}"
            );
        }

        let storm = RequestTrace::generate(&TraceSpec {
            base_rate: 6.0,
            surge_factor: 4.0,
            ..TraceSpec::new(200, trace_seed)
        });
        let anticipatory = |threads| {
            let mut anticipation = AnticipationConfig::default();
            anticipation.switch.emergency_on = 0.40;
            ServiceEngine::new(ServiceConfig {
                servers_per_family: 4,
                threads,
                anticipation: Some(anticipation),
                replication: Some(ReplicationConfig::default()),
                ..ServiceConfig::default()
            })
            .serve(&storm, &plan)
        };
        let baseline = anticipatory(1);
        for threads in [2usize, 4] {
            prop_assert!(
                baseline == anticipatory(threads),
                "anticipatory replicated report diverged at threads={threads}"
            );
        }
    }

    /// Budget accounting: hedges + failovers equals tokens spent, and
    /// the token stream (capacity + refills) bounds the volume per
    /// family; with degradation on, nothing ever hard-fails.
    #[test]
    fn retry_budget_bounds_extra_attempts(
        trace_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        capacity in 0u32..=6,
        refill_step in 0u32..=4,
        gray_m in 500u32..=1000,
    ) {
        let refill = refill_step * 125;
        let trace = RequestTrace::generate(&TraceSpec::new(250, trace_seed));
        let plan = FaultPlan {
            seed: plan_seed,
            gray_rate: f64::from(gray_m) / 1000.0,
            ..FaultPlan::none()
        };
        let engine = ServiceEngine::new(ServiceConfig {
            servers_per_family: 4,
            replication: Some(ReplicationConfig {
                replicas: 2,
                budget_capacity: capacity,
                budget_refill_milli: refill,
                ..ReplicationConfig::default()
            }),
            ..ServiceConfig::default()
        });
        let report = engine.serve(&trace, &plan);
        prop_assert_eq!(report.failed(), 0);
        prop_assert_eq!(report.total(), 250);
        for (fam, stats) in report.replica_stats.iter().enumerate() {
            let extra = stats.hedges_launched + stats.failovers;
            prop_assert!(
                extra == stats.budget_spent,
                "family {}: every extra attempt costs one token: extra={} spent={}",
                fam, extra, stats.budget_spent
            );
            let ceiling = u64::from(capacity) + report.ticks * u64::from(refill) / 1000 + 1;
            prop_assert!(
                extra <= ceiling,
                "family {}: extra={} over token ceiling {}", fam, extra, ceiling
            );
        }
    }

    /// The replica log is internally consistent for any chaos mix:
    /// strictly ascending request ids, replica indices inside the set,
    /// hedge wins only on hedged requests, and family-tally
    /// reconciliation.
    #[test]
    fn replica_log_is_internally_consistent(
        trace_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        replicas in 2usize..=3,
        correlated_m in 0u32..=400,
    ) {
        let trace = RequestTrace::generate(&TraceSpec::new(200, trace_seed));
        let plan = FaultPlan {
            seed: plan_seed,
            panic_rate: 0.05,
            gray_rate: 0.2,
            correlated_rate: f64::from(correlated_m) / 1000.0,
            ..FaultPlan::none()
        };
        let report = serve(replicas, Vec::new(), 1, &trace, &plan);
        let mut last_id = None;
        for entry in &report.replica_log {
            prop_assert!(last_id < Some(entry.id), "log must ascend by id");
            last_id = Some(entry.id);
            prop_assert!((entry.replica as usize) < replicas);
            if entry.hedge_won {
                prop_assert!(entry.hedged, "a hedge can only win if launched");
            }
        }
        let wins: u64 = report.replica_stats.iter().map(|s| s.hedges_won).sum();
        let log_wins = report.replica_log.iter().filter(|e| e.hedge_won).count() as u64;
        prop_assert!(wins == log_wins, "hedge wins must reconcile: {} vs {}", wins, log_wins);
        let launched = report.hedges_launched();
        prop_assert!(wins <= launched, "wins cannot exceed launches");
    }

    /// `N = 1` replication under a quiet plan decides exactly as the
    /// unreplicated config: identical outcomes, tallies, and quality
    /// trajectory for any trace seed — the replication machinery must
    /// be pure plumbing when there is nothing to route around.
    #[test]
    fn n1_quiet_replication_is_the_legacy_path(trace_seed in any::<u64>()) {
        let trace = RequestTrace::generate(&TraceSpec::new(200, trace_seed));
        let plan = FaultPlan::none();
        let unreplicated = ServiceEngine::new(ServiceConfig {
            servers_per_family: 4,
            ..ServiceConfig::default()
        })
        .serve(&trace, &plan);
        let replicated = serve(1, Vec::new(), 1, &trace, &plan);
        prop_assert!(unreplicated.outcomes == replicated.outcomes, "outcome log diverged");
        prop_assert!(unreplicated.per_family == replicated.per_family);
        prop_assert!(unreplicated.quality == replicated.quality);
        prop_assert_eq!(unreplicated.ticks, replicated.ticks);
    }
}
