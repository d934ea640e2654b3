//! Cross-layer determinism contract for the cluster simulator's
//! telemetry: the expositions derived from a fleet of cluster runs —
//! merged event-trace JSON, Prometheus text, metrics JSON — are
//! byte-identical for any thread budget, with and without a chaos
//! fault plan, and the per-run deficit attribution reconciles with the
//! run's own Bruneau loss.

use rand::Rng;
use systems_resilience::cluster::{
    record_cluster, AttackSpec, ClusterConfig, ClusterEngine, ClusterReport, TopologyKind,
};
use systems_resilience::core::{FaultPlan, RunContext};
use systems_resilience::networks::AttackStrategy;
use systems_resilience::telemetry::Telemetry;

fn fleet_engine() -> ClusterEngine {
    let mut config = ClusterConfig::new(1_500, TopologyKind::ScaleFree { m: 3 });
    config.ticks = 25;
    config.headroom = 0.8;
    config.surge_drops = 30;
    config.surge_grain = 0.5;
    ClusterEngine::new(config, 0x7E1E)
}

fn cluster_chaos() -> FaultPlan {
    FaultPlan {
        seed: 23,
        panic_rate: 0.004,
        delay_rate: 0.002,
        poison_rate: 0.004,
        permanent_rate: 0.001,
        ..FaultPlan::none()
    }
}

/// Run a small fleet of cluster trials on `threads` threads and derive
/// every exposition from the pooled reports: one tracer and one
/// metrics registry folding all runs, plus the serialized reports
/// themselves.
fn cluster_expositions(threads: usize, plan: &FaultPlan) -> [String; 4] {
    let engine = fleet_engine();
    let attack = AttackSpec {
        tick: 6,
        strategy: AttackStrategy::TargetedByDegree,
        fraction: 0.04,
        recoverable: true,
    };
    let ctx = RunContext::with_threads(41, threads);
    let reports: Vec<ClusterReport> = ctx.run_trials(
        5,
        ctx.derive(2),
        |_trial, rng| {
            let run_seed: u64 = rng.gen();
            engine.run(run_seed, Some(&attack), plan)
        },
        Vec::new(),
        |mut acc, report| {
            acc.push(report);
            acc
        },
    );

    let mut tel = Telemetry::default();
    for report in &reports {
        // Attribution must reconcile with the run's own Bruneau loss —
        // the exposition is only trustworthy if the per-cause split
        // sums back to the quality deficit it explains.
        let r = report.resilience_loss();
        assert_eq!(
            report.attribution.total, r,
            "attribution total drifted from R"
        );
        assert!(
            (report.attribution.components_sum() - r).abs() <= 1e-9 * r.max(1.0),
            "per-cause components do not sum to R: {} vs {r}",
            report.attribution.components_sum()
        );
        record_cluster(&mut tel, report);
    }
    let logs = serde_json::to_string(&reports).expect("reports serialize");
    [
        tel.tracer.to_json(),
        tel.metrics.to_prometheus(),
        tel.metrics.to_json(),
        logs,
    ]
}

#[test]
fn cluster_expositions_are_thread_invariant_without_chaos() {
    let quiet = FaultPlan::none();
    let serial = cluster_expositions(1, &quiet);
    assert!(
        serial[0].contains("ClusterCascade"),
        "the fleet must actually record cascade events"
    );
    assert!(
        serial[1].contains("cluster_cascades_total"),
        "the metrics exposition must carry the cluster family"
    );
    assert_eq!(serial, cluster_expositions(2, &quiet), "2 threads diverged");
    assert_eq!(serial, cluster_expositions(4, &quiet), "4 threads diverged");
}

#[test]
fn cluster_expositions_are_thread_invariant_under_chaos() {
    let chaos = cluster_chaos();
    let serial = cluster_expositions(1, &chaos);
    let quiet = cluster_expositions(1, &FaultPlan::none());
    assert_ne!(
        serial, quiet,
        "the chaos plan must actually perturb the fleet for this test to bite"
    );
    assert_eq!(serial, cluster_expositions(2, &chaos), "2 threads diverged");
    assert_eq!(serial, cluster_expositions(4, &chaos), "4 threads diverged");
}
