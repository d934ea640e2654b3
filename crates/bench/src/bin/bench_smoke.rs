//! Self-checking performance smokes, one mode per checked-in BENCH file.
//!
//! Each mode times its workload, exits 1 on the first failed correctness
//! gate, and prints a JSON summary (median wall times, no criterion
//! machinery):
//!
//! - no mode: DCSP engine vs the reference checkers (`BENCH_2.json`);
//! - `faults`: supervision overhead, quiet and under chaos (`BENCH_3.json`);
//! - `telemetry`: telemetry-derivation overhead, ≤ 1.3x (`BENCH_5.json`);
//! - `cluster`: million-node cascade scale (`BENCH_6.json`);
//! - `dcsp`: symmetry reduction > 2.8x, 2^30 orbit summaries (`BENCH_7.json`);
//! - `anticipate`: `serve --compare-modes` + detector overhead (`BENCH_8.json`);
//! - `redundancy`: `serve --compare-redundancy` + N=1 overhead (`BENCH_9.json`);
//! - `obs`: causal-tracing overhead, blame and incidents (`BENCH_10.json`).
//!
//! Gates, timing and the serve comparisons come from
//! [`resilience_bench::harness`]; each mode's own checks are documented
//! on its `run_*` function.
//!
//! ```bash
//! cargo run --release -p resilience-bench --bin bench_smoke -- [MODE] > BENCH_N.json
//! ```

// Drivers surface failures as `die(...)` usage errors or documented
// panics, never bare `unwrap()`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use rand::Rng;
use serde::Serialize;

use resilience_bench::harness::{
    anticipatory_config, build_profile, canned_plan, compare_modes, compare_redundancy, emit, gate,
    gate_budget_reconciles, interleaved, median_secs, redundancy_trace_spec, replicated_config,
    serve_arm, ModeArms, RedundancyArms, REDUNDANCY_CHAOS, SERVE_CHAOS,
};
use resilience_core::{
    AllOnes, AtLeastOnes, Config, Constraint, FaultConfig, PredicateConstraint, RunContext,
    Supervision,
};
use resilience_dcsp::maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, MaintainabilityReport, TransitionSystem,
};
use resilience_dcsp::recoverability::{
    check_recoverability, recoverability_reference, RecoverabilityOptions, RecoverabilityReport,
    VerifyStats,
};
use resilience_dcsp::repair::GreedyRepair;

#[derive(Serialize)]
struct Recoverability {
    n16_d3_cases: usize,
    n16_d3_engine_cases_per_sec: f64,
    n16_d3_reference_cases_per_sec: f64,
    n16_d3_engine_speedup: f64,
    n24_d4_cases: usize,
    n24_d4_threads1_cases_per_sec: f64,
    n24_d4_threads4_cases_per_sec: f64,
    n24_d4_thread_scaling: Option<f64>,
}

#[derive(Serialize)]
struct Maintainability {
    explicit_2pow12_csr_states_per_sec: f64,
    explicit_2pow12_reference_states_per_sec: f64,
    explicit_2pow12_csr_speedup: f64,
    implicit_2pow20_bfs_states_per_sec: f64,
    implicit_2pow20_adversarial_threads1_states_per_sec: f64,
    implicit_2pow20_adversarial_threads4_states_per_sec: f64,
    implicit_2pow20_adversarial_thread_scaling: Option<f64>,
}

#[derive(Serialize)]
struct Meta {
    profile: &'static str,
    repetitions: usize,
    timing: &'static str,
    /// Host parallelism: thread-scaling ratios cannot exceed this, so a
    /// `*_thread_scaling` below 1.0 on a 1-core host measures pure
    /// spawn/contention overhead, not an engine defect.
    cores: usize,
    /// Why `*_thread_scaling` fields are null, when they are.
    thread_scaling_note: Option<&'static str>,
}

/// Detected host parallelism (1 when detection fails).
fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `t1/tn` thread-scaling ratio, or `None` on a single-core host where
/// the ratio would measure spawn/contention overhead rather than
/// scaling (the `meta.thread_scaling_note` explains the null).
fn thread_scaling(t1_secs: f64, tn_secs: f64) -> Option<f64> {
    (detected_cores() > 1).then(|| t1_secs / tn_secs)
}

/// Print a smoke's JSON: its named sections, then the shared `meta`
/// block — build profile, repetition count, timing methodology, and
/// host-honesty fields.
fn emit_smoke(sections: Vec<(&str, serde::Value)>, reps: usize, timing: &'static str) {
    let cores = detected_cores();
    let meta = Meta {
        profile: build_profile(),
        repetitions: reps,
        timing,
        cores,
        thread_scaling_note: (cores == 1).then_some(
            "single-core host: thread-scaling ratios suppressed (a 1-core \
             ratio prices thread spawn/contention, not parallel speedup)",
        ),
    };
    let mut fields: Vec<(String, serde::Value)> = sections
        .into_iter()
        .map(|(name, section)| (name.to_string(), section))
        .collect();
    fields.push(("meta".to_string(), meta.serialize()));
    emit(&serde::Value::Object(fields));
}

/// Run `f` at one and at four threads; fail unless both agree, and
/// return the one-thread result.
fn thread_invariant<T: PartialEq>(what: &str, f: impl Fn(usize) -> T) -> T {
    let one = f(1);
    gate(one == f(4), format!("{what} depends on thread count"));
    one
}

/// The `meta.timing` note of the interleaved-overhead serve smokes.
const INTERLEAVED_TIMING: &str =
    "median wall seconds per round; overhead is the median of interleaved per-round ratios";

/// A service report's full serialization: the byte-identity gates compare
/// the whole self-measurement, not just aggregates.
fn report_json(report: &resilience_service::ServiceReport) -> String {
    serde_json::to_string(report).expect("service reports serialize")
}

#[derive(Serialize)]
struct FaultOverhead {
    trials: u64,
    threads: usize,
    chaos_plan: String,
    baseline_trials_per_sec: f64,
    supervised_quiet_trials_per_sec: f64,
    /// Supervised-quiet wall time over bare wall time (1.0 = free).
    supervised_quiet_overhead: f64,
    chaos_trials_per_sec: f64,
    /// Chaos-plan wall time over bare wall time (includes injected
    /// delays and retries, so this is the cost of the *disturbance*,
    /// not just the machinery).
    chaos_overhead: f64,
    faults_injected: u64,
    recovered: u64,
    lost: usize,
    health_r: f64,
}

/// The Monte Carlo kernel the fault-overhead numbers are measured on:
/// fold 64 rng draws per trial, XOR-reduce across trials.
fn mc_kernel(ctx: &RunContext, trials: u64) -> u64 {
    ctx.run_trials(
        trials,
        17,
        |idx, rng| (0..64).fold(idx, |acc, _| acc ^ rng.gen::<u64>()),
        0u64,
        |acc, x| acc ^ x,
    )
}

/// The recoverable chaos plan of the supervision and telemetry smokes.
/// Delay-free so the chaos numbers measure machinery + retries, not
/// sleeps; rates are high enough that every run injects thousands of
/// faults.
const SUPERVISION_CHAOS: &str = "seed=7,panic=0.02,poison=0.02,times=2,retries=3,backoff_ms=0";

/// The supervised Monte Carlo workload's size and thread budget.
const TRIALS: u64 = 50_000;
const THREADS: usize = 4;

/// The serve smokes' workload: the stock 600-request seed-42 trace,
/// replayed `SERVES_PER_ROUND` times per timing round.
const REQUESTS: u64 = 600;
const SEED: u64 = 42;
const SERVES_PER_ROUND: usize = 40;

/// A context supervised under [`SUPERVISION_CHAOS`].
fn chaos_context(name: &str, threads: usize) -> RunContext {
    let chaos = FaultConfig::parse(SUPERVISION_CHAOS).expect("canned chaos spec parses");
    RunContext::with_threads(0, threads).supervised(Supervision::new(name, chaos))
}

/// `bench_smoke faults`: supervision-layer overhead — bare vs quiet plan
/// vs chaos plan — plus a bit-identical-folds check.
fn run_fault_smoke(reps: usize) {
    let bare_ctx = RunContext::with_threads(0, THREADS);
    let quiet_ctx =
        RunContext::with_threads(0, THREADS).supervised(Supervision::isolation("bench-quiet"));
    let chaos_ctx = chaos_context("bench-chaos", THREADS);

    let bare = mc_kernel(&bare_ctx, TRIALS);
    let quiet = mc_kernel(&quiet_ctx, TRIALS);
    let chaotic = mc_kernel(&chaos_ctx, TRIALS);
    gate(
        bare == quiet && bare == chaotic,
        "supervised folds differ from the bare runtime",
    );
    let report = chaos_ctx.run_report().expect("chaos context reports");
    gate(
        report.faults_injected > 0 && report.recovered > 0,
        "chaos plan injected or recovered nothing",
    );
    gate(
        report.lost.is_empty(),
        "canned chaos plan is recoverable, nothing may be lost",
    );

    let bare_secs = median_secs(reps, || mc_kernel(&bare_ctx, TRIALS));
    let quiet_secs = median_secs(reps, || mc_kernel(&quiet_ctx, TRIALS));
    let chaos_secs = median_secs(reps, || mc_kernel(&chaos_ctx, TRIALS));

    let section = FaultOverhead {
        trials: TRIALS,
        threads: THREADS,
        chaos_plan: SUPERVISION_CHAOS.to_string(),
        baseline_trials_per_sec: TRIALS as f64 / bare_secs,
        supervised_quiet_trials_per_sec: TRIALS as f64 / quiet_secs,
        supervised_quiet_overhead: quiet_secs / bare_secs,
        chaos_trials_per_sec: TRIALS as f64 / chaos_secs,
        chaos_overhead: chaos_secs / bare_secs,
        faults_injected: report.faults_injected,
        recovered: report.recovered,
        lost: report.lost.len(),
        health_r: report.resilience_loss(),
    };
    emit_smoke(
        vec![("fault_overhead", section.serialize())],
        reps,
        "median wall seconds per run",
    );
}

#[derive(Serialize)]
struct TelemetryOverhead {
    trials: u64,
    threads: usize,
    chaos_plan: String,
    baseline_trials_per_sec: f64,
    traced_trials_per_sec: f64,
    /// Supervised-run-plus-full-telemetry-derivation wall time over the
    /// bare supervised run (1.0 = free). The acceptance bar is 1.3.
    tracing_overhead: f64,
    /// Events in the derived trace (retries + plans + losses).
    events_derived: usize,
    /// Metric families registered from the run report.
    metric_families: usize,
    health_r: f64,
    attribution: resilience_telemetry::DeficitAttribution,
}

/// `bench_smoke telemetry`: derivation overhead + trace determinism +
/// attribution reconciliation on the supervised chaos kernel.
fn run_telemetry_smoke(reps: usize) {
    use resilience_telemetry::{
        record_run_events, record_run_metrics, trajectory_of_run, MetricsRegistry, Tracer,
    };

    let supervised_run = |threads: usize| {
        let ctx = chaos_context("bench-telemetry", threads);
        let fold = mc_kernel(&ctx, TRIALS);
        let report = ctx.run_report().expect("supervised context reports");
        (fold, report)
    };
    let derive = |report: &resilience_core::RunReport| {
        let mut tracer = Tracer::new();
        record_run_events(&mut tracer, report);
        let mut registry = MetricsRegistry::new();
        record_run_metrics(&mut registry, report);
        let observer = trajectory_of_run(report);
        (
            tracer.to_json(),
            registry.to_prometheus(),
            observer.attribution(),
            observer,
        )
    };

    // Correctness gates first: thread-invariant derivation, observer
    // trajectory bit-identical to the report's own health series, and
    // attribution reconciling with the report's Bruneau loss.
    let (fold1, report1) = supervised_run(1);
    let (fold4, report4) = supervised_run(THREADS);
    gate(
        fold1 == fold4,
        "supervised folds differ across thread budgets",
    );
    let (trace1, prom1, attr1, obs1) = derive(&report1);
    let (trace4, prom4, attr4, _) = derive(&report4);
    gate(
        trace1 == trace4 && prom1 == prom4,
        "derived telemetry depends on thread count",
    );
    gate(
        attr1 == attr4,
        "deficit attribution depends on thread count",
    );
    gate(
        obs1.quality() == &report1.health,
        "observed trajectory is not bit-identical to the report's health",
    );
    let r = report1.resilience_loss();
    gate(
        attr1.total == r && (attr1.components_sum() - r).abs() <= 1e-9 * r.max(1.0),
        format!(
            "attribution does not reconcile: components={} total={} R={r}",
            attr1.components_sum(),
            attr1.total
        ),
    );

    let timing = interleaved(
        reps,
        1,
        || supervised_run(THREADS),
        || {
            let (fold, report) = supervised_run(THREADS);
            (fold, derive(&report))
        },
    );
    timing.gate("telemetry derivation", 1.3);

    let mut registry = MetricsRegistry::new();
    record_run_metrics(&mut registry, &report1);
    let mut tracer = Tracer::new();
    record_run_events(&mut tracer, &report1);
    let section = TelemetryOverhead {
        trials: TRIALS,
        threads: THREADS,
        chaos_plan: SUPERVISION_CHAOS.to_string(),
        baseline_trials_per_sec: TRIALS as f64 / timing.base_secs,
        traced_trials_per_sec: TRIALS as f64 / timing.arm_secs,
        tracing_overhead: timing.ratio,
        events_derived: tracer.len(),
        metric_families: registry.len(),
        health_r: r,
        attribution: attr1,
    };
    emit_smoke(
        vec![("telemetry_overhead", section.serialize())],
        reps,
        "median wall seconds per run; overhead is the median of interleaved per-round ratios",
    );
}

#[derive(Serialize)]
struct ClusterScale {
    /// Fleet size of the thread-scaled workload.
    hundred_k_nodes: usize,
    hundred_k_ticks: u64,
    hundred_k_trials: u64,
    hundred_k_threads1_secs: f64,
    hundred_k_threads4_secs: f64,
    hundred_k_thread_scaling: Option<f64>,
    /// Node-ticks per second of the single-threaded workload.
    hundred_k_node_ticks_per_sec: f64,
    /// Cascade topples summed over the 100k trials (must be non-zero —
    /// the workload has to actually exercise the sandpile machinery).
    hundred_k_toppled: u64,
    million_nodes: usize,
    million_topology_build_secs: f64,
    million_topology_nodes_per_sec: f64,
    /// One million-node run: hub attack at tick 1, scored to tick 5.
    million_run_ticks: u64,
    million_run_secs: f64,
    million_run_node_ticks_per_sec: f64,
    /// Surviving giant-component fraction after the million-node attack.
    million_final_giant_fraction: f64,
}

/// `bench_smoke cluster`: cascade-simulator scale numbers + cross-thread
/// bit-identity of experiment tables and serialized cascade logs.
fn run_cluster_smoke(reps: usize) {
    use resilience_bench::experiments::c01_cluster_attack;
    use resilience_cluster::{AttackSpec, ClusterConfig, ClusterEngine, TopologyKind};
    use resilience_core::FaultPlan;
    use resilience_networks::{AttackStrategy, Graph};

    // Gate 1: the attack-vs-random experiment table is bit-identical
    // across thread budgets.
    thread_invariant("cluster_attack table", |threads| {
        c01_cluster_attack::run(&RunContext::with_threads(0, threads))
    });

    // The thread-scaled workload: a 100k-node scale-free fleet, surge
    // load plus a recoverable hub attack, eight seeded trials folded
    // into serialized cascade logs.
    const HK_NODES: usize = 100_000;
    const HK_TICKS: u64 = 30;
    const HK_TRIALS: u64 = 8;
    let mut config = ClusterConfig::new(HK_NODES, TopologyKind::ScaleFree { m: 3 });
    config.ticks = HK_TICKS;
    config.headroom = 1.0;
    config.surge_drops = 200;
    config.surge_grain = 0.5;
    let engine = ClusterEngine::new(config, 0xC1);
    let attack = AttackSpec {
        tick: 5,
        strategy: AttackStrategy::TargetedByDegree,
        fraction: 0.05,
        recoverable: true,
    };
    let logs_at = |threads: usize| -> Vec<(String, u64)> {
        let ctx = RunContext::with_threads(0xC2, threads);
        ctx.run_trials(
            HK_TRIALS,
            ctx.derive(1),
            |_trial, rng| {
                let run_seed: u64 = rng.gen();
                let report = engine.run(run_seed, Some(&attack), &FaultPlan::none());
                let log = serde_json::to_string(&report).expect("cluster reports serialize");
                (log, report.total_toppled())
            },
            Vec::new(),
            |mut acc, log| {
                acc.push(log);
                acc
            },
        )
    };

    // Gate 2: the serialized cascade logs are byte-identical at one and
    // four threads, and the workload genuinely cascades.
    let logs1 = thread_invariant("100k-node cascade log", logs_at);
    let toppled: u64 = logs1.iter().map(|(_, toppled)| toppled).sum();
    gate(toppled > 0, "the 100k-node workload never cascaded");

    let t1_secs = median_secs(reps, || logs_at(1));
    let t4_secs = median_secs(reps, || logs_at(4));

    // Million-node scale: topology generation, then one attacked run.
    const M_NODES: usize = 1_000_000;
    const M_TICKS: u64 = 5;
    let m_kind = TopologyKind::ScaleFree { m: 3 };
    let m_topology_secs = median_secs(reps, || Graph::generate(&m_kind, M_NODES, 0xC3));
    let mut m_config = ClusterConfig::new(M_NODES, m_kind);
    m_config.ticks = M_TICKS;
    m_config.headroom = 1.0;
    let m_engine = ClusterEngine::new(m_config, 0xC3);
    let m_attack = AttackSpec {
        tick: 1,
        strategy: AttackStrategy::TargetedByDegree,
        fraction: 0.1,
        recoverable: false,
    };
    let m_report = m_engine.run(7, Some(&m_attack), &FaultPlan::none());
    let m_secs = median_secs(reps, || {
        m_engine.run(7, Some(&m_attack), &FaultPlan::none())
    });

    let node_ticks = (HK_NODES as u64 * HK_TICKS * HK_TRIALS) as f64;
    let section = ClusterScale {
        hundred_k_nodes: HK_NODES,
        hundred_k_ticks: HK_TICKS,
        hundred_k_trials: HK_TRIALS,
        hundred_k_threads1_secs: t1_secs,
        hundred_k_threads4_secs: t4_secs,
        hundred_k_thread_scaling: thread_scaling(t1_secs, t4_secs),
        hundred_k_node_ticks_per_sec: node_ticks / t1_secs,
        hundred_k_toppled: toppled,
        million_nodes: M_NODES,
        million_topology_build_secs: m_topology_secs,
        million_topology_nodes_per_sec: M_NODES as f64 / m_topology_secs,
        million_run_ticks: M_TICKS,
        million_run_secs: m_secs,
        million_run_node_ticks_per_sec: (M_NODES as u64 * M_TICKS) as f64 / m_secs,
        million_final_giant_fraction: m_report.final_giant as f64 / m_report.n as f64,
    };
    emit_smoke(
        vec![("cluster_scale", section.serialize())],
        reps,
        "median wall seconds per run",
    );
}

#[derive(Serialize)]
struct AnticipationOverhead {
    requests: u64,
    seed: u64,
    chaos_plan: String,
    /// Serves per timing round (one round = this many full replays).
    serves_per_round: usize,
    reactive_serves_per_sec: f64,
    pinned_detector_serves_per_sec: f64,
    /// Pinned-configuration wall time over reactive wall time, median
    /// of interleaved per-round ratios (1.0 = free): the cost of
    /// running the detector machinery with every decision unchanged.
    /// Acceptance bar: 1.15.
    anticipation_overhead: f64,
    resilience_loss_reactive: f64,
    resilience_loss_anticipatory: f64,
    /// `R_reactive / R_anticipatory` (> 1 means anticipation wins).
    resilience_improvement: f64,
    anticipatory_failed: u64,
    alert_ticks: u64,
    emergency_ticks: u64,
    mode_transitions: usize,
}

/// `bench_smoke anticipate`: anticipation-layer overhead + the
/// `serve --compare-modes` gates + thread invariance on the
/// chaos-serving workload.
fn run_anticipate_smoke(reps: usize) {
    use resilience_anticipate::AnticipationConfig;
    use resilience_service::{RequestTrace, ServiceConfig, TraceSpec};

    let trace = RequestTrace::generate(&TraceSpec::new(REQUESTS, SEED));
    let plan = canned_plan(SERVE_CHAOS);
    // Both timed arms run the stock single-threaded config.
    let serve = |config| serve_arm(config, &trace, &plan, None);
    let serve_reactive = || serve(ServiceConfig::default());
    // The pinned configuration: the detector, loss window, and mode
    // controller run every tick, but the thresholds sit above the score
    // ceiling (score ≤ 1) and every policy is inert, so the run makes
    // exactly the reactive arm's decisions. Timing it against the
    // reactive arm prices the watching machinery alone — the real
    // configuration serves a different (higher-fidelity) mix, so its
    // wall time measures delivered work, not overhead.
    let pinned_config = || {
        let mut cfg = AnticipationConfig::default();
        cfg.detector.warn_on = 2.0;
        cfg.switch.alert_on = 2.0;
        cfg.switch.emergency_on = 2.0;
        let inert = resilience_anticipate::ModePolicy {
            brownout_floor: 0,
            brownout_ceiling: 2,
            cooldown_scale_milli: 1000,
            deadline_scale_milli: 1000,
        };
        cfg.normal = inert.clone();
        cfg.alert = inert.clone();
        cfg.emergency = inert;
        cfg
    };
    let serve_pinned = || {
        serve(ServiceConfig {
            anticipation: Some(pinned_config()),
            ..ServiceConfig::default()
        })
    };

    // Correctness gates first: the `serve --compare-modes` claim (the
    // anticipatory arm beats the reactive R and never hard-fails), and
    // the anticipatory report (the whole self-measurement, not just
    // aggregates) is byte-identical across thread budgets.
    let ModeArms {
        reactive: react,
        anticipatory: ant,
    } = compare_modes(&trace, &plan, 1, None);
    gate(
        report_json(&ant) == report_json(&serve(anticipatory_config(4))),
        "anticipatory service report depends on thread count",
    );
    // The pinned run must be behaviourally indistinguishable from the
    // reactive one — otherwise the overhead ratio is not pricing the
    // machinery alone.
    gate(
        serve_pinned().outcomes == react.outcomes,
        "pinned anticipation changed serving decisions",
    );

    let timing = interleaved(reps, SERVES_PER_ROUND, serve_reactive, serve_pinned);
    timing.gate("anticipation", 1.15);

    let section = AnticipationOverhead {
        requests: REQUESTS,
        seed: SEED,
        chaos_plan: SERVE_CHAOS.to_string(),
        serves_per_round: SERVES_PER_ROUND,
        reactive_serves_per_sec: SERVES_PER_ROUND as f64 / timing.base_secs,
        pinned_detector_serves_per_sec: SERVES_PER_ROUND as f64 / timing.arm_secs,
        anticipation_overhead: timing.ratio,
        resilience_loss_reactive: react.resilience_loss(),
        resilience_loss_anticipatory: ant.resilience_loss(),
        resilience_improvement: react.resilience_loss() / ant.resilience_loss(),
        anticipatory_failed: ant.failed(),
        alert_ticks: ant.alert_ticks,
        emergency_ticks: ant.emergency_ticks,
        mode_transitions: ant.mode_transitions.len(),
    };
    emit_smoke(
        vec![("anticipation_overhead", section.serialize())],
        reps,
        INTERLEAVED_TIMING,
    );
}

#[derive(Serialize)]
struct RedundancyOverhead {
    requests: u64,
    seed: u64,
    chaos_plan: String,
    /// Serves per timing round (one round = this many full replays).
    serves_per_round: usize,
    /// Serves per second of the unreplicated config.
    unreplicated_serves_per_sec: f64,
    replicated_n1_serves_per_sec: f64,
    /// Quiet N=1-replicated wall time over unreplicated wall time, median of
    /// interleaved per-round ratios (1.0 = free): the cost of routing
    /// every request through the replication machinery with every
    /// decision unchanged. Acceptance bar: 1.15.
    replication_overhead: f64,
    resilience_loss_single: f64,
    resilience_loss_homogeneous: f64,
    resilience_loss_diverse: f64,
    /// `R_single / R_diverse` (> 1 means redundancy wins).
    resilience_improvement: f64,
    /// `R_homogeneous / R_diverse` (> 1 means diversity carries it).
    diversity_improvement: f64,
    diverse_failed: u64,
    diverse_failovers: u64,
    /// Gray-storm side check: hedges launched / budget tokens spent /
    /// exhaustion events, with zero hard failures.
    storm_hedges_launched: u64,
    storm_budget_spent: u64,
    storm_budget_exhausted: u64,
}

/// `bench_smoke redundancy`: replication-layer overhead + the
/// `serve --compare-redundancy` gates + gray-storm budget accounting and
/// thread invariance on the serving workload.
fn run_redundancy_smoke(reps: usize) {
    use resilience_core::FaultPlan;
    use resilience_service::{ReplicationConfig, RequestTrace, ServiceConfig};

    // The moderate-load operating point where redundancy pays (same
    // shape as the redundancy_diversity experiment).
    let trace = RequestTrace::generate(&redundancy_trace_spec(REQUESTS, SEED));
    let plan = canned_plan(REDUNDANCY_CHAOS);
    let quiet = FaultPlan::none();
    let serve = |config, plan: &FaultPlan| serve_arm(config, &trace, plan, None);
    let serve_unreplicated_quiet = || {
        serve(
            ServiceConfig {
                servers_per_family: 4,
                ..ServiceConfig::default()
            },
            &quiet,
        )
    };
    let serve_replicated_quiet = || serve(replicated_config(1, vec![], 1), &quiet);

    // Correctness gates first. Gate 1: the `serve --compare-redundancy`
    // claim — redundancy wins, diversity carries it, nothing
    // hard-fails — and the full diverse-pair report is byte-identical
    // across thread budgets under chaos.
    let RedundancyArms {
        single,
        homogeneous,
        diverse,
    } = compare_redundancy(&trace, &plan, 1, None);
    gate(
        report_json(&diverse) == report_json(&serve(replicated_config(2, vec![], 4), &plan)),
        "replicated service report depends on thread count",
    );

    // Gate 2: under a 100%-gray storm the retry budget's token
    // accounting reconciles exactly and hedging actually fires, with
    // zero hard failures.
    let storm = serve(
        replicated_config(2, vec![], 1),
        &canned_plan("seed=23,gray=1.0"),
    );
    gate(storm.failed() == 0, "a gray storm hard-failed a request");
    gate(
        storm.hedges_launched() > 0,
        "a 100%-gray storm never triggered hedging",
    );
    gate_budget_reconciles(&storm);
    let rcfg = ReplicationConfig::default();
    let ceiling = u64::from(rcfg.budget_capacity)
        + storm.ticks * u64::from(rcfg.budget_refill_milli) / 1000
        + 1;
    for (fam, s) in storm.replica_stats.iter().enumerate() {
        gate(
            s.budget_spent <= ceiling,
            format!(
                "family {fam}: budget spend {} exceeds the token ceiling {ceiling}",
                s.budget_spent
            ),
        );
    }

    // Gate 3: the quiet N=1-replicated path is behaviourally identical
    // to the unreplicated config — otherwise the overhead ratio is not
    // pricing the machinery alone.
    let unreplicated = serve_unreplicated_quiet();
    let replicated = serve_replicated_quiet();
    gate(
        unreplicated.outcomes == replicated.outcomes && unreplicated.quality == replicated.quality,
        "N=1 replication changed quiet-path serving decisions",
    );

    let timing = interleaved(
        reps,
        SERVES_PER_ROUND,
        serve_unreplicated_quiet,
        serve_replicated_quiet,
    );
    timing.gate("replication", 1.15);

    let section = RedundancyOverhead {
        requests: REQUESTS,
        seed: SEED,
        chaos_plan: REDUNDANCY_CHAOS.to_string(),
        serves_per_round: SERVES_PER_ROUND,
        unreplicated_serves_per_sec: SERVES_PER_ROUND as f64 / timing.base_secs,
        replicated_n1_serves_per_sec: SERVES_PER_ROUND as f64 / timing.arm_secs,
        replication_overhead: timing.ratio,
        resilience_loss_single: single.resilience_loss(),
        resilience_loss_homogeneous: homogeneous.resilience_loss(),
        resilience_loss_diverse: diverse.resilience_loss(),
        resilience_improvement: single.resilience_loss() / diverse.resilience_loss(),
        diversity_improvement: homogeneous.resilience_loss() / diverse.resilience_loss(),
        diverse_failed: diverse.failed(),
        diverse_failovers: diverse.failovers(),
        storm_hedges_launched: storm.hedges_launched(),
        storm_budget_spent: storm.replica_stats.iter().map(|s| s.budget_spent).sum(),
        storm_budget_exhausted: storm.replica_stats.iter().map(|s| s.budget_exhausted).sum(),
    };
    emit_smoke(
        vec![("redundancy_overhead", section.serialize())],
        reps,
        INTERLEAVED_TIMING,
    );
}

#[derive(Serialize)]
struct ObservabilityOverhead {
    requests: u64,
    seed: u64,
    chaos_plan: String,
    /// Serves per timing round (one round = this many full replays).
    serves_per_round: usize,
    untraced_serves_per_sec: f64,
    traced_serves_per_sec: f64,
    /// Traced wall time over untraced wall time, median of interleaved
    /// per-round ratios (1.0 = free): the cost of building span trees,
    /// critical paths, flight-recorder snapshots, and metrics alongside
    /// the serve. Acceptance bar: 1.15.
    tracing_overhead: f64,
    /// Requests expanded into span trees by the causal tracer.
    requests_traced: u64,
    spans_recorded: usize,
    /// Critical paths extracted (requests that missed or were shed).
    critical_paths: usize,
    /// Total slack deficit across the extracted paths, in ticks; the
    /// blame gate checks each path's decomposition sums exactly to its
    /// share of this.
    slack_deficit_ticks: u64,
    /// Incident reports promoted from flight-recorder snapshots.
    incident_reports: usize,
    /// Emergency ticks of the escalating arm (must be non-zero — the
    /// incident gate needs a real escalation to bite on).
    emergency_ticks: u64,
    /// Bytes of the rendered postmortem bundle.
    postmortem_bytes: usize,
}

/// `bench_smoke obs`: causal-observability overhead (an untraced serve
/// vs the same serve with the full telemetry spine attached) +
/// blame-exactness, incident-trigger, observe-only, and
/// thread-invariance gates on the chaos-serving workload.
fn run_obs_smoke(reps: usize) {
    use resilience_anticipate::AnticipationConfig;
    use resilience_service::{RequestTrace, ServiceConfig, TraceSpec};
    use resilience_telemetry::{render_postmortem, Telemetry, TriggerKind};

    let trace = RequestTrace::generate(&TraceSpec::new(REQUESTS, SEED));
    let plan = canned_plan(SERVE_CHAOS);
    // The default switch thresholds park this workload in Alert; lower
    // the Emergency band so the run genuinely escalates — the incident
    // gate needs a ModeEscalation trigger to check against.
    let config = |threads: usize| {
        let mut escalating = AnticipationConfig::default();
        escalating.switch.emergency_on = 0.40;
        ServiceConfig {
            threads,
            anticipation: Some(escalating),
            ..ServiceConfig::default()
        }
    };
    let serve_untraced = |threads: usize| serve_arm(config(threads), &trace, &plan, None);
    let serve_traced = |threads: usize| {
        let mut tel = Telemetry::new(1.0);
        let report = serve_arm(config(threads), &trace, &plan, Some(&mut tel));
        (report, tel)
    };

    // Gate 1: tracing observes, never steers — the traced report is
    // byte-identical to the untraced one.
    let untraced = serve_untraced(1);
    let (report1, tel1) = serve_traced(1);
    gate(
        report_json(&untraced) == report_json(&report1),
        "attaching the causal tracer changed serving decisions",
    );

    // Gate 2: the workload escalates, and the Emergency escalation left
    // an incident report whose trigger tick is exactly the transition's.
    gate(
        report1.emergency_ticks > 0,
        "the escalating configuration never reached Emergency",
    );
    let escalation_tick = report1
        .mode_transitions
        .iter()
        .find(|t| t.is_escalation())
        .map(|t| t.tick)
        .expect("emergency ticks imply an escalation transition");
    let incidents = tel1
        .incidents
        .finalize(&tel1.causal, &report1.warning_scores);
    gate(
        incidents
            .iter()
            .any(|i| i.kind == TriggerKind::ModeEscalation && i.trigger_tick == escalation_tick),
        format!("no incident report matches the Emergency escalation at tick {escalation_tick}"),
    );

    // Gate 3: blame decompositions are exact — every critical path's
    // components sum to its slack deficit, and the tracer saw every
    // request the engine decided.
    gate(
        tel1.causal.requests() == REQUESTS,
        format!(
            "causal tracer saw {} of {REQUESTS} requests",
            tel1.causal.requests()
        ),
    );
    gate(
        !tel1.causal.paths().is_empty(),
        "the chaos workload extracted no critical paths",
    );
    for path in tel1.causal.paths() {
        gate(
            path.blame.total() == path.slack_deficit,
            format!(
                "request {} blame components sum to {} but slack deficit is {}",
                path.request,
                path.blame.total(),
                path.slack_deficit
            ),
        );
    }

    // Gate 4: the postmortem bundle and prometheus exposition are
    // byte-identical across thread budgets under chaos.
    let (bundle, _) = thread_invariant("postmortem bundle or prometheus exposition", |threads| {
        let (report, tel) = serve_traced(threads);
        let incidents = tel.incidents.finalize(&tel.causal, &report.warning_scores);
        let bundle = render_postmortem("bench-obs", &incidents, &tel.causal);
        (bundle, tel.metrics.to_prometheus())
    });

    let timing = interleaved(
        reps,
        SERVES_PER_ROUND,
        || serve_untraced(1),
        || serve_traced(1),
    );
    timing.gate("causal tracing", 1.15);

    let slack_deficit_ticks: u64 = tel1.causal.paths().iter().map(|p| p.slack_deficit).sum();
    let section = ObservabilityOverhead {
        requests: REQUESTS,
        seed: SEED,
        chaos_plan: SERVE_CHAOS.to_string(),
        serves_per_round: SERVES_PER_ROUND,
        untraced_serves_per_sec: SERVES_PER_ROUND as f64 / timing.base_secs,
        traced_serves_per_sec: SERVES_PER_ROUND as f64 / timing.arm_secs,
        tracing_overhead: timing.ratio,
        requests_traced: tel1.causal.requests(),
        spans_recorded: tel1.causal.spans().len(),
        critical_paths: tel1.causal.paths().len(),
        slack_deficit_ticks,
        incident_reports: incidents.len(),
        emergency_ticks: report1.emergency_ticks,
        postmortem_bytes: bundle.len(),
    };
    emit_smoke(
        vec![("observability_overhead", section.serialize())],
        reps,
        INTERLEAVED_TIMING,
    );
}

#[derive(Serialize)]
struct SymmetrySpeed {
    /// Damage cases covered by the n=24/d=4/k=4 AllOnes instance.
    n24_d4_cases: usize,
    /// Orbit representatives actually walked by the symmetric checker —
    /// one per (per-class damage count) signature.
    n24_d4_orbit_representatives: u64,
    reference_secs: f64,
    reference_cases_per_sec: f64,
    symmetric_threads1_secs: f64,
    symmetric_threads4_secs: f64,
    symmetric_cases_per_sec: f64,
    /// Reference wall time over symmetric wall time; the acceptance gate
    /// demands > 2.8 (the memoization ceiling of the exhaustive engine).
    symmetric_vs_reference_speedup: f64,
    symmetric_thread_scaling: Option<f64>,
}

#[derive(Serialize)]
struct OrbitScale {
    /// The quiet 2^30 instance: AtLeastOnes(30, 4), five BFS levels,
    /// solved on its 31 popcount orbits.
    quiet_2pow30_levels: usize,
    quiet_2pow30_secs: f64,
    /// The adversarial 2^26 instance: AtLeastOnes(26, 18) at damage 2.
    adversarial_2pow26_levels: usize,
    adversarial_2pow26_secs: f64,
}

/// A symmetry-free twin of `AtLeastOnes(n, need)`: the same fit set with
/// no declared symmetry, so the maintainability checkers take their
/// dense per-state path on it.
fn dense_twin(need: usize) -> PredicateConstraint {
    PredicateConstraint::new("at-least", move |c: &Config| c.count_ones() >= need)
}

/// Gate that an orbit report's counts cover all `2^n_bits` states.
fn gate_covers_space(report: &MaintainabilityReport, what: &str) {
    gate(
        report.frontier_sizes().iter().sum::<u64>() + report.hopeless() == report.n_states() as u64,
        format!("{what} counts do not sum to the state space"),
    );
}

/// The rank walk without stats, as the timed paths run it.
const RANK_WALK: RecoverabilityOptions = RecoverabilityOptions {
    symmetry: false,
    stats: false,
};

/// The orbit walk where sound, without stats.
const ORBIT_WALK: RecoverabilityOptions = RecoverabilityOptions {
    symmetry: true,
    stats: false,
};

/// `check_recoverability` with greedy repair on a smoke instance, each of
/// which starts fit with a damage space far inside `u64`.
fn greedy_check(
    start: &Config,
    env: &dyn Constraint,
    d: usize,
    k: usize,
    ctx: &RunContext,
    options: RecoverabilityOptions,
) -> (RecoverabilityReport, Option<VerifyStats>) {
    check_recoverability(start, env, &GreedyRepair::new(), d, k, ctx, options)
        .expect("smoke instances start fit")
}

/// `bench_smoke dcsp`: symmetry-reduction speed, orbit-report scale
/// numbers (2^30 states, beyond the dense path's 2^24 cap) and their
/// equivalence gates.
fn run_dcsp_smoke(reps: usize) {
    let greedy = GreedyRepair::new();
    let ctx1 = RunContext::with_threads(0, 1);
    let ctx4 = RunContext::with_threads(0, 4);

    // Gate 1: on the timed instance the orbit walk reproduces the rank
    // walk and reference reports bit-for-bit, at one and four threads.
    let start = Config::ones(24);
    let env = AllOnes::new(24);
    let with_stats = RecoverabilityOptions {
        symmetry: true,
        stats: true,
    };
    let (sym_report, sym_stats) = greedy_check(&start, &env, 4, 4, &ctx4, with_stats);
    let sym_stats = sym_stats.expect("greedy repair is deterministic");
    gate(
        sym_stats.orbit_hits > 0,
        "AllOnes(24) did not take the orbit walk",
    );
    let (sym_report1, _) = greedy_check(&start, &env, 4, 4, &ctx1, ORBIT_WALK);
    let (full, _) = greedy_check(&start, &env, 4, 4, &ctx4, RANK_WALK);
    let reference = recoverability_reference(&start, &env, &greedy, 4, 4);
    gate(
        sym_report == full && sym_report == reference && sym_report == sym_report1,
        "symmetric recoverability report differs from the reference paths",
    );

    let ref_secs = median_secs(reps, || {
        recoverability_reference(&start, &env, &greedy, 4, 4)
    });
    let sym1_secs = median_secs(reps, || greedy_check(&start, &env, 4, 4, &ctx1, ORBIT_WALK));
    let sym4_secs = median_secs(reps, || greedy_check(&start, &env, 4, 4, &ctx4, ORBIT_WALK));
    let speedup = ref_secs / sym1_secs;
    gate(
        speedup > 2.8,
        format!(
            "symmetry reduction speedup {speedup:.2}x does not clear the 2.8x memoization ceiling"
        ),
    );

    // Gate 2: the orbit report's counts agree with the dense path, run
    // on the symmetry-free twin, at the largest size it still reaches
    // comfortably.
    let orbit20 = analyze_bit_dcsp(20, &AtLeastOnes::new(20, 13));
    let dense20 = analyze_bit_dcsp(20, &dense_twin(13));
    gate(
        orbit20.frontier_sizes() == dense20.frontier_sizes()
            && orbit20.hopeless() == dense20.hopeless(),
        "orbit summary differs from the dense analysis at 2^20",
    );

    // The headline rows: 2^30 quiet and 2^26 adversarial states, beyond
    // the dense cap. Their level counts are pinned, and every state must
    // land in a level or the hopeless count.
    const BIG: usize = 30;
    let env30 = AtLeastOnes::new(BIG, 4);
    let big = analyze_bit_dcsp(BIG, &env30);
    gate(
        big.frontier_sizes().len() == 5,
        "2^30 quiet summary does not have five levels",
    );
    gate_covers_space(&big, "2^30 quiet summary");
    let big_secs = median_secs(reps, || analyze_bit_dcsp(BIG, &env30));
    let env26 = AtLeastOnes::new(26, 18);
    let adv = analyze_bit_dcsp_adversarial(26, &env26, 2, 1);
    gate(
        adv.frontier_sizes().len() == 1,
        "2^26 adversarial summary does not have one level",
    );
    gate_covers_space(&adv, "2^26 adversarial summary");
    let adv_secs = median_secs(reps, || analyze_bit_dcsp_adversarial(26, &env26, 2, 1));

    let cases = sym_report.cases as f64;
    let symmetry = SymmetrySpeed {
        n24_d4_cases: sym_report.cases,
        n24_d4_orbit_representatives: sym_report.cases as u64 - sym_stats.orbit_hits,
        reference_secs: ref_secs,
        reference_cases_per_sec: cases / ref_secs,
        symmetric_threads1_secs: sym1_secs,
        symmetric_threads4_secs: sym4_secs,
        symmetric_cases_per_sec: cases / sym1_secs,
        symmetric_vs_reference_speedup: speedup,
        symmetric_thread_scaling: thread_scaling(sym1_secs, sym4_secs),
    };
    let orbits = OrbitScale {
        quiet_2pow30_levels: big.frontier_sizes().len(),
        quiet_2pow30_secs: big_secs,
        adversarial_2pow26_levels: adv.frontier_sizes().len(),
        adversarial_2pow26_secs: adv_secs,
    };
    emit_smoke(
        vec![
            ("symmetry", symmetry.serialize()),
            ("orbits", orbits.serialize()),
        ],
        reps,
        "median wall seconds per run",
    );
}

fn main() {
    let reps = 5;
    match std::env::args().nth(1).as_deref() {
        Some("faults") => run_fault_smoke(reps),
        Some("telemetry") => run_telemetry_smoke(reps),
        Some("cluster") => run_cluster_smoke(reps),
        Some("dcsp") => run_dcsp_smoke(reps),
        Some("anticipate") => run_anticipate_smoke(reps),
        Some("redundancy") => run_redundancy_smoke(reps),
        Some("obs") => run_obs_smoke(reps),
        _ => run_engine_smoke(reps),
    }
}

/// `bench_smoke` with no mode: the headline DCSP kernels, cross-checked
/// against the retained reference implementations.
fn run_engine_smoke(reps: usize) {
    let greedy = GreedyRepair::new();

    // Exhaustive k-recoverability, engine vs reference, n=16/d=3/k=3.
    let start16 = Config::ones(16);
    let env16 = AllOnes::new(16);
    let ctx1 = RunContext::with_threads(0, 1);
    let ctx4 = RunContext::with_threads(0, 4);
    let (engine_report, _) = greedy_check(&start16, &env16, 3, 3, &ctx1, RANK_WALK);
    let reference_report = recoverability_reference(&start16, &env16, &greedy, 3, 3);
    gate(
        engine_report == reference_report,
        "engine and reference recoverability reports differ",
    );
    let cases16 = engine_report.cases as f64;
    let engine_secs = median_secs(reps, || {
        greedy_check(&start16, &env16, 3, 3, &ctx1, RANK_WALK)
    });
    let reference_secs = median_secs(reps, || {
        recoverability_reference(&start16, &env16, &greedy, 3, 3)
    });

    // Thread scaling on the widened E2 workload, n=24/d=4/k=4.
    let start24 = Config::ones(24);
    let env24 = AllOnes::new(24);
    let serial = thread_invariant("recoverability report", |threads| {
        let ctx = RunContext::with_threads(0, threads);
        greedy_check(&start24, &env24, 4, 4, &ctx, RANK_WALK).0
    });
    let cases24 = serial.cases as f64;
    let t1_secs = median_secs(reps, || {
        greedy_check(&start24, &env24, 4, 4, &ctx1, RANK_WALK)
    });
    let t4_secs = median_secs(reps, || {
        greedy_check(&start24, &env24, 4, 4, &ctx4, RANK_WALK)
    });

    // CSR backward BFS vs reference on the explicit 2^12-state system.
    let env12 = AtLeastOnes::new(12, 10);
    let ts12 = TransitionSystem::from_bit_dcsp(12, &env12, 2);
    gate(
        ts12.analyze() == ts12.analyze_reference(),
        "CSR analyze and reference reports differ",
    );
    let csr_secs = median_secs(reps, || ts12.analyze());
    let ref_secs = median_secs(reps, || ts12.analyze_reference());

    // Implicit model checking at 2^20 states, on the dense path (the
    // twin declares no symmetry, so no orbit quotient applies).
    let n = 20usize;
    let env20 = dense_twin(n - n / 3);
    let states20 = (1u64 << n) as f64;
    let bfs_secs = median_secs(reps, || analyze_bit_dcsp(n, &env20));
    thread_invariant("implicit adversarial report", |threads| {
        analyze_bit_dcsp_adversarial(n, &env20, 2, threads)
    });
    let adv1_secs = median_secs(reps, || analyze_bit_dcsp_adversarial(n, &env20, 2, 1));
    let adv4_secs = median_secs(reps, || analyze_bit_dcsp_adversarial(n, &env20, 2, 4));

    let recoverability = Recoverability {
        n16_d3_cases: engine_report.cases,
        n16_d3_engine_cases_per_sec: cases16 / engine_secs,
        n16_d3_reference_cases_per_sec: cases16 / reference_secs,
        n16_d3_engine_speedup: reference_secs / engine_secs,
        n24_d4_cases: serial.cases,
        n24_d4_threads1_cases_per_sec: cases24 / t1_secs,
        n24_d4_threads4_cases_per_sec: cases24 / t4_secs,
        n24_d4_thread_scaling: thread_scaling(t1_secs, t4_secs),
    };
    let maintainability = Maintainability {
        explicit_2pow12_csr_states_per_sec: 4096.0 / csr_secs,
        explicit_2pow12_reference_states_per_sec: 4096.0 / ref_secs,
        explicit_2pow12_csr_speedup: ref_secs / csr_secs,
        implicit_2pow20_bfs_states_per_sec: states20 / bfs_secs,
        implicit_2pow20_adversarial_threads1_states_per_sec: states20 / adv1_secs,
        implicit_2pow20_adversarial_threads4_states_per_sec: states20 / adv4_secs,
        implicit_2pow20_adversarial_thread_scaling: thread_scaling(adv1_secs, adv4_secs),
    };
    emit_smoke(
        vec![
            ("recoverability", recoverability.serialize()),
            ("maintainability", maintainability.serialize()),
        ],
        reps,
        "median wall seconds per run",
    );
}
