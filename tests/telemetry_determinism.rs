//! Workspace-level determinism contract of the telemetry spine: every
//! exposition — merged event trace JSON, Prometheus text, metrics JSON —
//! is byte-identical for any `--threads` budget, with and without chaos,
//! across all three instrumented engines (supervised runtime, DCSP
//! verifier, serving layer); and the live deficit attribution always
//! reconciles with the engine's own Bruneau `R`.

use proptest::prelude::*;
use rand::Rng;
use systems_resilience::core::{FaultConfig, FaultPlan, RunContext, Supervision};
use systems_resilience::dcsp::recoverability::{check_recoverability, RecoverabilityOptions};
use systems_resilience::dcsp::repair::GreedyRepair;
use systems_resilience::dcsp::{record_maintainability, record_verification};
use systems_resilience::service::{RequestTrace, ServiceConfig, ServiceEngine, TraceSpec};
use systems_resilience::telemetry::{
    record_run_events, record_run_metrics, trajectory_of_run, MetricsRegistry, Telemetry, Tracer,
};

fn service_chaos() -> FaultPlan {
    FaultPlan {
        seed: 11,
        panic_rate: 0.10,
        delay_rate: 0.05,
        poison_rate: 0.10,
        permanent_rate: 0.05,
        ..FaultPlan::none()
    }
}

/// All three deterministic expositions of one traced serve run.
fn serve_expositions(threads: usize, trace: &RequestTrace, plan: &FaultPlan) -> [String; 3] {
    let engine = ServiceEngine::new(ServiceConfig {
        threads,
        ..ServiceConfig::default()
    });
    let mut tel = Telemetry::new(1.0);
    let report = engine.serve_traced(trace, plan, &mut tel);
    let attr = tel.trajectory.attribution();
    assert_eq!(
        attr.total,
        report.resilience_loss(),
        "attributed deficit must equal the report's Bruneau R"
    );
    [
        tel.tracer.to_json(),
        tel.metrics.to_prometheus(),
        tel.metrics.to_json(),
    ]
}

#[test]
fn serve_expositions_are_byte_identical_across_thread_budgets() {
    let trace = RequestTrace::generate(&TraceSpec::new(400, 42));
    for plan in [FaultPlan::none(), service_chaos()] {
        let base = serve_expositions(1, &trace, &plan);
        for threads in [2usize, 4] {
            assert_eq!(
                base,
                serve_expositions(threads, &trace, &plan),
                "threads={threads}"
            );
        }
    }
}

/// All expositions derivable from one supervised chaos run.
fn runtime_expositions(threads: usize) -> [String; 2] {
    let chaos = FaultConfig::parse("seed=7,panic=0.05,poison=0.05,times=2,retries=3,backoff_ms=0")
        .expect("canned chaos spec parses");
    let ctx =
        RunContext::with_threads(0, threads).supervised(Supervision::new("telemetry-test", chaos));
    let folded = ctx.run_trials(
        2_000u64,
        17,
        |idx, rng| idx ^ rng.gen::<u64>(),
        0u64,
        |acc, x| acc ^ x,
    );
    let report = ctx.run_report().expect("supervised context reports");
    let obs = trajectory_of_run(&report);
    assert_eq!(
        obs.quality(),
        &report.health,
        "observed trajectory must be bit-identical to the report's"
    );
    let attr = obs.attribution();
    assert_eq!(attr.total, report.resilience_loss());
    let err = (attr.components_sum() - attr.total).abs();
    assert!(err <= 1e-9 * attr.total.max(1.0));
    let mut tracer = Tracer::new();
    record_run_events(&mut tracer, &report);
    let mut registry = MetricsRegistry::new();
    record_run_metrics(&mut registry, &report);
    // The fold itself is part of the contract: instrumentation must not
    // perturb the deterministic result.
    assert_eq!(
        folded,
        {
            let bare = RunContext::with_threads(0, threads);
            bare.run_trials(
                2_000u64,
                17,
                |idx, rng| idx ^ rng.gen::<u64>(),
                0u64,
                |acc, x| acc ^ x,
            )
        },
        "recoverable chaos must reproduce the bare fold"
    );
    [tracer.to_json(), registry.to_prometheus()]
}

#[test]
fn runtime_trace_is_byte_identical_across_thread_budgets() {
    let base = runtime_expositions(1);
    for threads in [2usize, 4] {
        assert_eq!(base, runtime_expositions(threads), "threads={threads}");
    }
}

/// Trace + Prometheus exposition of one parallel recoverability check.
fn dcsp_expositions(threads: usize) -> [String; 2] {
    let start = systems_resilience::core::Config::ones(14);
    let env = systems_resilience::core::AtLeastOnes::new(14, 9);
    let ctx = RunContext::with_threads(0, threads);
    let options = RecoverabilityOptions {
        symmetry: false,
        stats: true,
    };
    let (report, stats) =
        check_recoverability(&start, &env, &GreedyRepair::new(), 3, 5, &ctx, options)
            .expect("ones(14) is fit under AtLeastOnes(14, 9)");
    let stats = stats.expect("greedy repair is deterministic");
    let mut tracer = Tracer::new();
    let mut registry = MetricsRegistry::new();
    record_verification(&mut tracer, &mut registry, &report, &stats);
    let maint = systems_resilience::dcsp::maintainability::analyze_bit_dcsp(
        8,
        &systems_resilience::core::AtLeastOnes::new(8, 5),
    );
    record_maintainability(&mut tracer, &mut registry, &maint);
    [tracer.to_json(), registry.to_prometheus()]
}

#[test]
fn dcsp_expositions_are_byte_identical_across_thread_budgets() {
    let base = dcsp_expositions(1);
    for threads in [2usize, 4] {
        assert_eq!(base, dcsp_expositions(threads), "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary trace seeds and fault rates, the serve-layer trace
    /// is byte-identical between 1 and 4 threads and the attribution
    /// reconciles componentwise with the report's R.
    #[test]
    fn serve_telemetry_is_thread_invariant_for_any_seed(
        trace_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        panic_rate in 0.0f64..0.2,
        poison_rate in 0.0f64..0.2,
        permanent_rate in 0.0f64..0.1,
    ) {
        let trace = RequestTrace::generate(&TraceSpec::new(150, trace_seed));
        let plan = FaultPlan {
            seed: plan_seed,
            panic_rate,
            poison_rate,
            permanent_rate,
            ..FaultPlan::none()
        };
        let engine1 = ServiceEngine::new(ServiceConfig { threads: 1, ..ServiceConfig::default() });
        let engine4 = ServiceEngine::new(ServiceConfig { threads: 4, ..ServiceConfig::default() });
        let mut tel1 = Telemetry::new(1.0);
        let mut tel4 = Telemetry::new(1.0);
        let report = engine1.serve_traced(&trace, &plan, &mut tel1);
        let report4 = engine4.serve_traced(&trace, &plan, &mut tel4);
        prop_assert_eq!(&report, &report4);
        prop_assert_eq!(tel1.tracer.to_json(), tel4.tracer.to_json());
        prop_assert_eq!(tel1.metrics.to_prometheus(), tel4.metrics.to_prometheus());
        let attr = tel1.trajectory.attribution();
        prop_assert_eq!(attr.total, report.resilience_loss());
        let err = (attr.components_sum() - attr.total).abs();
        prop_assert!(err <= 1e-9 * attr.total.max(1.0),
            "attribution components {} must sum to total {}", attr.components_sum(), attr.total);
    }
}
