//! Shared plumbing for the self-checking drivers: `serve --compare*` and
//! every `bench_smoke` mode check a claim and exit 1 ([`gate`]) when it
//! fails, so CI running them doubles as a smoke test. The three serve
//! comparisons live here once; `serve` prints their results and
//! `bench_smoke` adds only its own thread-invariance and overhead checks.

use std::fmt::Display;
use std::time::Instant;

use resilience_anticipate::AnticipationConfig;
use resilience_core::faults::{FaultConfig, FaultPlan};
use resilience_service::{
    ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, ServiceReport, TraceSpec,
};
use resilience_telemetry::Telemetry;
use serde::Serialize;

/// The chaos plan of the degradation and anticipation comparisons:
/// enough damage that the reactive and degradation-off arms visibly
/// bleed.
pub const SERVE_CHAOS: &str = "seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05";

/// The chaos plan of the redundancy comparison: correlated blasts plus
/// panics and gray slowness — the mix that makes diversity measurable.
pub const REDUNDANCY_CHAOS: &str = "seed=11,panic=0.05,gray=0.1,correlated=0.25";

/// A self-check: unless `ok`, print `FAIL: {msg}` to stderr and exit 1.
pub fn gate(ok: bool, msg: impl Display) {
    if !ok {
        eprintln!("FAIL: {msg}");
        std::process::exit(1);
    }
}

/// Pretty-print `value` as JSON on stdout.
pub fn emit<T: Serialize>(value: &T) {
    println!(
        "{}",
        serde_json::to_string_pretty(value).expect("serializes")
    );
}

/// `"debug"` or `"release"`: the build profile every summary's `meta`
/// names, since debug timings are not comparable with release ones.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Parse a canned (compiled-in) fault spec.
pub fn canned_plan(spec: &str) -> FaultPlan {
    FaultConfig::parse(spec)
        .expect("canned chaos spec parses")
        .plan
}

/// The upper median of `values` (sorts them in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Run `f` once; return its result and wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median wall-clock seconds over `reps` runs of `f`.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| timed(|| std::hint::black_box(f())).1)
        .collect();
    median(&mut times)
}

/// Wall-time medians of [`interleaved`] rounds.
#[derive(Debug, Clone, Copy)]
pub struct Interleaved {
    /// Median seconds of one base round.
    pub base_secs: f64,
    /// Median seconds of one arm round.
    pub arm_secs: f64,
    /// Median of the per-round `arm / base` ratios: the overhead.
    pub ratio: f64,
}

impl Interleaved {
    /// The overhead gate: `what`'s ratio must not exceed `budget`.
    pub fn gate(&self, what: &str, budget: f64) {
        gate(
            self.ratio <= budget,
            format!(
                "{what} overhead {:.3}x exceeds the {budget}x budget",
                self.ratio
            ),
        );
    }
}

/// Time `reps` rounds of `base` and `arm`, each called `calls` times per
/// round, after one untimed warm-up of each so allocator and page-cache
/// cold starts don't land on the first ratio. Base and arm rounds
/// alternate and the overhead is the median of the per-round ratios:
/// timing the two as separate batches would let machine-load drift
/// between the batches masquerade as overhead.
pub fn interleaved<A, B>(
    reps: usize,
    calls: usize,
    mut base: impl FnMut() -> A,
    mut arm: impl FnMut() -> B,
) -> Interleaved {
    std::hint::black_box((base(), arm()));
    let round = |f: &mut dyn FnMut()| timed(|| (0..calls).for_each(|_| f())).1;
    let (mut base_times, mut arm_times, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let b = round(&mut || {
            std::hint::black_box(base());
        });
        let a = round(&mut || {
            std::hint::black_box(arm());
        });
        base_times.push(b);
        arm_times.push(a);
        ratios.push(a / b);
    }
    Interleaved {
        base_secs: median(&mut base_times),
        arm_secs: median(&mut arm_times),
        ratio: median(&mut ratios),
    }
}

/// Serve `trace` under `plan` with `config`, recording into `tel` when
/// given. Recording observes, never steers: the report is the same
/// either way.
pub fn serve_arm(
    config: ServiceConfig,
    trace: &RequestTrace,
    plan: &FaultPlan,
    tel: Option<&mut Telemetry>,
) -> ServiceReport {
    let engine = ServiceEngine::new(config);
    match tel {
        Some(tel) => engine.serve_traced(trace, plan, tel),
        None => engine.serve(trace, plan),
    }
}

/// The stock service with the default anticipation layer on.
pub fn anticipatory_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        anticipation: Some(AnticipationConfig::default()),
        ..ServiceConfig::default()
    }
}

/// A replicated service with `replicas` per family over `classes`
/// diversity classes (empty = one class per replica). Every arm splits
/// the same 4 servers and 16 queue slots per family, so redundancy never
/// adds capacity.
pub fn replicated_config(replicas: usize, classes: Vec<u32>, threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        servers_per_family: 4,
        replication: Some(ReplicationConfig {
            replicas,
            diversity_classes: classes,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    }
}

/// The redundancy comparison's trace: the moderate-load operating point
/// where failovers (which re-run the dead attempt's work) still land
/// inside deadlines — the stock surge shape would price capacity
/// fragmentation, not redundancy.
pub fn redundancy_trace_spec(requests: u64, seed: u64) -> TraceSpec {
    TraceSpec {
        base_rate: 0.8,
        surge_factor: 2.5,
        deadline: (30, 70),
        ..TraceSpec::new(requests, seed)
    }
}

/// The gates every comparison arm must pass: no hard failures (faults
/// become fallbacks), something served, and a finite R.
fn gate_arm(name: &str, report: &ServiceReport) {
    gate(
        report.failed() == 0,
        format!(
            "{} hard failures in the {name} arm; faults must become fallbacks",
            report.failed()
        ),
    );
    gate_served(name, report);
}

/// The gates a baseline arm must pass: something served, finite R.
fn gate_served(name: &str, report: &ServiceReport) {
    gate(
        report.shed_rate() < 1.0,
        format!("{name} arm shed rate reached 100%: the service served nothing"),
    );
    gate(
        report.resilience_loss().is_finite(),
        format!("non-finite resilience loss in the {name} arm"),
    );
}

/// `claim` holds only if `better` has strictly smaller R than `worse`.
fn gate_shrinks(claim: &str, better: &ServiceReport, worse: &ServiceReport) {
    let (rb, rw) = (better.resilience_loss(), worse.resilience_loss());
    gate(
        rb < rw,
        format!("{claim} did not shrink the resilience triangle: R={rb} vs {rw}"),
    );
}

/// Every family's retry-budget spend reconciles exactly with its hedge
/// and failover volume.
pub fn gate_budget_reconciles(report: &ServiceReport) {
    for (fam, s) in report.replica_stats.iter().enumerate() {
        gate(
            s.hedges_launched + s.failovers == s.budget_spent,
            format!(
                "family {fam}: retry-budget accounting does not reconcile: \
                 hedges={} failovers={} spent={}",
                s.hedges_launched, s.failovers, s.budget_spent
            ),
        );
    }
}

/// Graceful degradation on vs off.
pub struct DegradationArms {
    /// Degradation on: the production configuration.
    pub on: ServiceReport,
    /// Degradation off: full fidelity or nothing.
    pub off: ServiceReport,
}

/// Serve `trace` under `plan` with graceful degradation on (recorded
/// into `tel`) and off, and gate the claim: degradation strictly
/// shrinks the resilience triangle with zero hard failures.
pub fn compare_degradation(
    trace: &RequestTrace,
    plan: &FaultPlan,
    threads: usize,
    tel: Option<&mut Telemetry>,
) -> DegradationArms {
    let config = |degradation| ServiceConfig {
        threads,
        degradation,
        ..ServiceConfig::default()
    };
    let on = serve_arm(config(true), trace, plan, tel);
    let off = serve_arm(config(false), trace, plan, None);
    gate_arm("degradation-on", &on);
    gate_served("degradation-off", &off);
    gate_shrinks("degradation", &on, &off);
    DegradationArms { on, off }
}

/// Reactive vs anticipatory serving.
pub struct ModeArms {
    /// The stock defense stack.
    pub reactive: ServiceReport,
    /// Early-warning detector plus Normal/Alert/Emergency modes.
    pub anticipatory: ServiceReport,
}

/// Serve `trace` under `plan` anticipatorily (recorded into `tel`) and
/// reactively, and gate the claim: anticipation strictly shrinks the
/// resilience triangle without trading availability for the warning.
pub fn compare_modes(
    trace: &RequestTrace,
    plan: &FaultPlan,
    threads: usize,
    tel: Option<&mut Telemetry>,
) -> ModeArms {
    let reactive_config = ServiceConfig {
        threads,
        ..ServiceConfig::default()
    };
    let anticipatory = serve_arm(anticipatory_config(threads), trace, plan, tel);
    let reactive = serve_arm(reactive_config, trace, plan, None);
    gate_arm("anticipatory", &anticipatory);
    gate_served("reactive", &reactive);
    gate_shrinks("anticipation", &anticipatory, &reactive);
    ModeArms {
        reactive,
        anticipatory,
    }
}

/// A single backend vs a homogeneous and a diverse replica pair.
pub struct RedundancyArms {
    /// One replica per family.
    pub single: ServiceReport,
    /// Two replicas sharing one diversity class.
    pub homogeneous: ServiceReport,
    /// Two replicas in distinct diversity classes.
    pub diverse: ServiceReport,
}

/// Serve `trace` under `plan` through the three replication wirings at
/// equal aggregate capacity (the diverse pair recorded into `tel`), and
/// gate the claim: the diverse pair strictly beats both other arms, no
/// arm hard-fails, failover is exercised, and the diverse pair's retry
/// budget reconciles.
pub fn compare_redundancy(
    trace: &RequestTrace,
    plan: &FaultPlan,
    threads: usize,
    tel: Option<&mut Telemetry>,
) -> RedundancyArms {
    let arm = |replicas, classes| replicated_config(replicas, classes, threads);
    let diverse = serve_arm(arm(2, vec![]), trace, plan, tel);
    let single = serve_arm(arm(1, vec![]), trace, plan, None);
    let homogeneous = serve_arm(arm(2, vec![0]), trace, plan, None);
    for (name, report) in [
        ("single", &single),
        ("homogeneous", &homogeneous),
        ("diverse", &diverse),
    ] {
        gate_arm(name, report);
    }
    gate_shrinks("the diverse pair (vs single)", &diverse, &single);
    gate_shrinks("diversity (vs homogeneous)", &diverse, &homogeneous);
    gate(
        diverse.failovers() > 0,
        "correlated chaos never exercised failover in the diverse arm",
    );
    gate_budget_reconciles(&diverse);
    RedundancyArms {
        single,
        homogeneous,
        diverse,
    }
}
