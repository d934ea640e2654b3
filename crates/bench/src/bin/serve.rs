//! Load driver for the graceful-degradation serving layer.
//!
//! Replays a seeded open-loop request trace (base load plus a mid-trace
//! arrival surge) through `resilience_service::ServiceEngine`,
//! optionally under a chaos [`FaultPlan`], and reports the run's
//! goodput, shed rate, and Bruneau resilience loss.
//!
//! Usage:
//!
//! ```bash
//! serve                                  # one run, summary to stdout
//! serve --requests 600 --seed 42        # workload shape
//! serve --threads 4                     # backend thread budget (same output!)
//! serve --degradation off               # ablation: full fidelity or nothing
//! serve --fault-plan seed=11,panic=0.1  # chaos mode
//! serve --json                          # machine-readable single run
//! serve --log                           # per-request outcome log lines
//! serve --compare                       # degradation on vs off (BENCH_4.json)
//! serve --compare-modes                 # anticipatory vs reactive (BENCH_8.json)
//! serve --compare-redundancy            # N x diversity sweep under correlated chaos
//! serve --metrics-out m.json            # telemetry: metrics + deficit attribution
//! serve --prom-out metrics.prom         # telemetry: Prometheus text exposition
//! serve --trace-out trace.json          # telemetry: structured event trace
//! serve --postmortem-out pm.json        # telemetry: incident postmortem bundle
//! ```
//!
//! Every service decision runs on a logical clock, so the entire
//! per-request outcome log — not just the aggregates — is bit-identical
//! for any `--threads` value (the `serve_cli` e2e test spawns this
//! binary at several budgets and diffs the logs).
//!
//! Each `--compare*` flag runs one of the self-checking comparisons in
//! [`resilience_bench::harness`] — one trace and chaos plan through every
//! arm, exiting 1 if an acceptance gate fails, so CI running this binary
//! doubles as a smoke test — and prints its JSON (`--compare` is the
//! source of `BENCH_4.json`). A comparison fixes its own arms and
//! output, so `--log`, `--json` and `--degradation` are rejected with
//! one.

// Drivers surface failures as `die(...)` usage errors or documented
// panics, never bare `unwrap()`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use resilience_bench::harness::{
    build_profile, compare_degradation, compare_modes, compare_redundancy, emit,
    redundancy_trace_spec, serve_arm, DegradationArms, ModeArms, RedundancyArms, REDUNDANCY_CHAOS,
    SERVE_CHAOS,
};
use resilience_core::faults::{FaultConfig, FaultPlan};
use resilience_service::{
    BreakerState, ReplicaFamilyStats, RequestTrace, ServiceConfig, ServiceReport, TraceSpec,
};
use resilience_telemetry::Telemetry;
use serde::Serialize;

#[derive(Serialize)]
struct Workload {
    requests: u64,
    seed: u64,
    families: Vec<String>,
    base_rate: f64,
    surge_factor: f64,
    chaos_plan: String,
}

#[derive(Serialize)]
struct Arm {
    served_full: u64,
    served_reduced: u64,
    served_cached: u64,
    shed: u64,
    failed: u64,
    goodput: f64,
    shed_rate: f64,
    mean_latency_ticks: f64,
    resilience_loss: f64,
    ticks: u64,
    brownout_level_changes: usize,
    breaker_trips: usize,
}

#[derive(Serialize)]
struct Comparison {
    resilience_loss_on: f64,
    resilience_loss_off: f64,
    /// `R_off / R_on` — how much smaller degradation makes the
    /// resilience triangle (> 1 means degradation wins).
    resilience_improvement: f64,
    goodput_gain: f64,
}

#[derive(Serialize)]
struct Meta {
    profile: &'static str,
    threads: usize,
    determinism: &'static str,
}

/// Queue-wait latency quantiles of the traced arm, interpolated from
/// the `service_queue_wait_ticks` histogram. Zero when nothing ever
/// queued.
#[derive(Serialize)]
struct QueueWaitQuantiles {
    p50_ticks: f64,
    p99_ticks: f64,
}

fn queue_wait_quantiles(tel: &Telemetry) -> QueueWaitQuantiles {
    let q = |quantile| {
        tel.metrics
            .histogram_quantile("service_queue_wait_ticks", quantile)
            .unwrap_or(0.0)
    };
    QueueWaitQuantiles {
        p50_ticks: q(0.5),
        p99_ticks: q(0.99),
    }
}

#[derive(Serialize)]
struct CompareOutput {
    workload: Workload,
    degradation_on: Arm,
    degradation_off: Arm,
    comparison: Comparison,
    queue_wait: QueueWaitQuantiles,
    meta: Meta,
}

/// Mode-controller activity of the anticipatory arm.
#[derive(Serialize)]
struct ModeStats {
    alert_ticks: u64,
    emergency_ticks: u64,
    mode_transitions: usize,
}

#[derive(Serialize)]
struct ModeComparison {
    resilience_loss_reactive: f64,
    resilience_loss_anticipatory: f64,
    /// `R_reactive / R_anticipatory` — how much smaller anticipation
    /// makes the resilience triangle (> 1 means anticipation wins).
    resilience_improvement: f64,
    goodput_gain: f64,
}

#[derive(Serialize)]
struct ModeCompareOutput {
    workload: Workload,
    reactive: Arm,
    anticipatory: Arm,
    anticipation: ModeStats,
    comparison: ModeComparison,
    queue_wait: QueueWaitQuantiles,
    meta: Meta,
}

/// Replication-layer activity of the diverse arm.
#[derive(Serialize)]
struct RedundancyStats {
    replicas: usize,
    hedges_launched: u64,
    hedges_won: u64,
    failovers: u64,
    correlated_hits: u64,
    gray_slots: u64,
    reclaimed_work: u64,
    retry_budget_spent: u64,
    retry_budget_exhausted: u64,
}

#[derive(Serialize)]
struct RedundancyComparison {
    resilience_loss_single: f64,
    resilience_loss_homogeneous: f64,
    resilience_loss_diverse: f64,
    /// `R_single / R_diverse` — how much smaller a diverse replica pair
    /// makes the resilience triangle (> 1 means redundancy wins).
    resilience_improvement: f64,
    /// `R_homogeneous / R_diverse` — the share of the win carried by
    /// diversity rather than mere redundancy (> 1 means diversity pays).
    diversity_improvement: f64,
    goodput_gain: f64,
}

#[derive(Serialize)]
struct RedundancyCompareOutput {
    workload: Workload,
    single: Arm,
    homogeneous: Arm,
    diverse: Arm,
    redundancy: RedundancyStats,
    comparison: RedundancyComparison,
    queue_wait: QueueWaitQuantiles,
    meta: Meta,
}

#[derive(Serialize)]
struct SingleOutput {
    workload: Workload,
    degradation: bool,
    arm: Arm,
    meta: Meta,
}

fn arm(report: &ServiceReport) -> Arm {
    let mut served_full = 0;
    let mut served_reduced = 0;
    let mut served_cached = 0;
    for f in &report.per_family {
        served_full += f.served_full;
        served_reduced += f.served_reduced;
        served_cached += f.served_cached;
    }
    Arm {
        served_full,
        served_reduced,
        served_cached,
        shed: report.shed(),
        failed: report.failed(),
        goodput: report.goodput(),
        shed_rate: report.shed_rate(),
        mean_latency_ticks: report.mean_latency(),
        resilience_loss: report.resilience_loss(),
        ticks: report.ticks,
        brownout_level_changes: report.brownout_history.len(),
        breaker_trips: report
            .breaker_transitions
            .iter()
            .flatten()
            .filter(|t| t.to == BreakerState::Open)
            .count(),
    }
}

fn meta(threads: usize) -> Meta {
    Meta {
        profile: build_profile(),
        threads,
        determinism: "logical clock; outcome log is bit-identical for any thread budget",
    }
}

fn die(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    eprintln!("usage: serve [--requests N] [--seed N] [--threads N] [--fault-plan SPEC]");
    eprintln!("             [--degradation on|off] [--json] [--log] [--compare]");
    eprintln!("             [--compare-modes] [--compare-redundancy]");
    eprintln!("             [--metrics-out PATH] [--prom-out PATH] [--trace-out PATH]");
    eprintln!("             [--postmortem-out PATH]");
    std::process::exit(2);
}

/// Telemetry output paths; when any is set the run goes through
/// `serve_traced` (in `--compare` mode telemetry observes the
/// degradation-on arm — the production configuration).
#[derive(Default)]
struct TelemetryOut {
    metrics: Option<String>,
    prom: Option<String>,
    trace: Option<String>,
    postmortem: Option<String>,
}

impl TelemetryOut {
    fn any(&self) -> bool {
        self.metrics.is_some()
            || self.prom.is_some()
            || self.trace.is_some()
            || self.postmortem.is_some()
    }

    /// Write every requested exposition. The metrics document carries
    /// the registry plus the observer's per-cause deficit attribution,
    /// under a `schema` tag CI validates against
    /// `schemas/metrics.schema.json`; the postmortem bundle is validated
    /// against `schemas/incident.schema.json`.
    fn write(&self, tel: &Telemetry, report: &ServiceReport) {
        if let Some(path) = &self.metrics {
            let serde::Value::Object(fields) = tel.metrics.to_json_value() else {
                unreachable!("registry exposition is an object");
            };
            let metrics = fields
                .into_iter()
                .find(|(k, _)| k == "metrics")
                .map(|(_, v)| v)
                .unwrap_or(serde::Value::Array(Vec::new()));
            let doc = serde::Value::Object(vec![
                (
                    "schema".to_string(),
                    Serialize::serialize("resilience-metrics/v1"),
                ),
                (
                    "attribution".to_string(),
                    Serialize::serialize(&tel.trajectory.attribution()),
                ),
                ("metrics".to_string(), metrics),
            ]);
            let rendered = serde_json::to_string_pretty(&doc).expect("metrics render");
            write_file(path, &format!("{rendered}\n"), "--metrics-out");
        }
        if let Some(path) = &self.prom {
            write_file(path, &tel.metrics.to_prometheus(), "--prom-out");
        }
        if let Some(path) = &self.trace {
            write_file(path, &tel.tracer.to_json(), "--trace-out");
        }
        if let Some(path) = &self.postmortem {
            let incidents = tel.incidents.finalize(&tel.causal, &report.warning_scores);
            let rendered =
                resilience_telemetry::render_postmortem("serve", &incidents, &tel.causal);
            write_file(path, &rendered, "--postmortem-out");
        }
    }
}

fn write_file(path: &str, contents: &str, flag: &str) {
    std::fs::write(path, contents)
        .unwrap_or_else(|e| die(&format!("cannot write {flag} {path}: {e}")));
}

/// The value after `flag`, or a usage error naming what it needs.
fn next_arg(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    it.next()
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

/// The integer after `flag`, or a usage error naming the bad value.
fn int_arg<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let raw = next_arg(it, flag, "an integer");
    raw.parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs an integer, got `{raw}`")))
}

fn env_threads() -> usize {
    std::env::var("RESILIENCE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t: &usize| t >= 1)
        .unwrap_or(1)
}

fn main() {
    let mut requests = 600u64;
    let mut seed = 42u64;
    let mut threads = env_threads();
    let mut fault_spec: Option<String> = None;
    let mut degradation: Option<bool> = None;
    let mut json = false;
    let mut log = false;
    let mut compares: Vec<String> = Vec::new();
    let mut telemetry_out = TelemetryOut::default();

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--requests" => requests = int_arg(&mut it, &flag),
            "--seed" => seed = int_arg(&mut it, &flag),
            "--threads" => {
                threads = int_arg(&mut it, &flag);
                if threads == 0 {
                    die("--threads must be at least 1");
                }
            }
            "--fault-plan" => fault_spec = Some(next_arg(&mut it, &flag, "a key=value spec")),
            "--degradation" => {
                degradation = Some(match next_arg(&mut it, &flag, "on|off").as_str() {
                    "on" => true,
                    "off" => false,
                    other => die(&format!("--degradation needs on|off, got `{other}`")),
                });
            }
            "--json" => json = true,
            "--log" => log = true,
            "--compare" | "--compare-modes" | "--compare-redundancy" => {
                if !compares.contains(&flag) {
                    compares.push(flag);
                }
            }
            "--metrics-out" => telemetry_out.metrics = Some(next_arg(&mut it, &flag, "a path")),
            "--prom-out" => telemetry_out.prom = Some(next_arg(&mut it, &flag, "a path")),
            "--trace-out" => telemetry_out.trace = Some(next_arg(&mut it, &flag, "a path")),
            "--postmortem-out" => {
                telemetry_out.postmortem = Some(next_arg(&mut it, &flag, "a path"));
            }
            "--help" | "-h" => die("load driver for the serving layer"),
            other => die(&format!("unknown flag `{other}`")),
        }
    }

    // One comparison at a time, and none of the single-run flags with
    // it: a comparison fixes its own arms and prints its own JSON.
    let compare = match compares.as_slice() {
        [] => None,
        [one] => Some(one.as_str()),
        [a, b, ..] => die(&format!("{a} and {b} are mutually exclusive")),
    };
    if let Some(cmp) = compare {
        for (flag, given) in [
            ("--log", log),
            ("--json", json),
            ("--degradation", degradation.is_some()),
        ] {
            if given {
                die(&format!("{flag} has no effect with {cmp}"));
            }
        }
    }
    let chaos_spec = fault_spec.unwrap_or_else(|| match compare {
        None => String::new(),
        Some("--compare-redundancy") => REDUNDANCY_CHAOS.to_string(),
        Some(_) => SERVE_CHAOS.to_string(),
    });
    let plan: FaultPlan = if chaos_spec.is_empty() {
        FaultPlan::none()
    } else {
        FaultConfig::parse(&chaos_spec)
            .unwrap_or_else(|e| die(&format!("bad --fault-plan: {e}")))
            .plan
    };

    let spec = if compare == Some("--compare-redundancy") {
        redundancy_trace_spec(requests, seed)
    } else {
        TraceSpec::new(requests, seed)
    };
    let trace = RequestTrace::generate(&spec);
    let workload = Workload {
        requests,
        seed,
        families: spec.families.clone(),
        base_rate: spec.base_rate,
        surge_factor: spec.surge_factor,
        chaos_plan: chaos_spec.clone(),
    };
    // Telemetry always observes a comparison's featured arm — the
    // configuration under test — so the summary's queue-wait quantiles
    // are always measured (tracing never steers); expositions are only
    // written when requested.
    let mut tel = Telemetry::new(1.0);

    match compare {
        Some("--compare") => {
            let DegradationArms { on, off } =
                compare_degradation(&trace, &plan, threads, Some(&mut tel));
            telemetry_out.write(&tel, &on);
            emit(&CompareOutput {
                workload,
                comparison: Comparison {
                    resilience_loss_on: on.resilience_loss(),
                    resilience_loss_off: off.resilience_loss(),
                    resilience_improvement: off.resilience_loss() / on.resilience_loss(),
                    goodput_gain: on.goodput() - off.goodput(),
                },
                degradation_on: arm(&on),
                degradation_off: arm(&off),
                queue_wait: queue_wait_quantiles(&tel),
                meta: meta(threads),
            });
        }
        Some("--compare-modes") => {
            let ModeArms {
                reactive: react,
                anticipatory: ant,
            } = compare_modes(&trace, &plan, threads, Some(&mut tel));
            telemetry_out.write(&tel, &ant);
            emit(&ModeCompareOutput {
                workload,
                comparison: ModeComparison {
                    resilience_loss_reactive: react.resilience_loss(),
                    resilience_loss_anticipatory: ant.resilience_loss(),
                    resilience_improvement: react.resilience_loss() / ant.resilience_loss(),
                    goodput_gain: ant.goodput() - react.goodput(),
                },
                anticipation: ModeStats {
                    alert_ticks: ant.alert_ticks,
                    emergency_ticks: ant.emergency_ticks,
                    mode_transitions: ant.mode_transitions.len(),
                },
                reactive: arm(&react),
                anticipatory: arm(&ant),
                queue_wait: queue_wait_quantiles(&tel),
                meta: meta(threads),
            });
        }
        Some(_) => {
            // --compare-redundancy
            let RedundancyArms {
                single,
                homogeneous,
                diverse,
            } = compare_redundancy(&trace, &plan, threads, Some(&mut tel));
            telemetry_out.write(&tel, &diverse);
            let total = |field: fn(&ReplicaFamilyStats) -> u64| {
                diverse.replica_stats.iter().map(field).sum()
            };
            let stats = RedundancyStats {
                replicas: 2,
                hedges_launched: diverse.hedges_launched(),
                hedges_won: total(|s| s.hedges_won),
                failovers: diverse.failovers(),
                correlated_hits: total(|s| s.correlated_hits),
                gray_slots: total(|s| s.gray_slots),
                reclaimed_work: total(|s| s.reclaimed_work),
                retry_budget_spent: total(|s| s.budget_spent),
                retry_budget_exhausted: total(|s| s.budget_exhausted),
            };
            emit(&RedundancyCompareOutput {
                workload,
                comparison: RedundancyComparison {
                    resilience_loss_single: single.resilience_loss(),
                    resilience_loss_homogeneous: homogeneous.resilience_loss(),
                    resilience_loss_diverse: diverse.resilience_loss(),
                    resilience_improvement: single.resilience_loss() / diverse.resilience_loss(),
                    diversity_improvement: homogeneous.resilience_loss()
                        / diverse.resilience_loss(),
                    goodput_gain: diverse.goodput() - single.goodput(),
                },
                redundancy: stats,
                single: arm(&single),
                homogeneous: arm(&homogeneous),
                diverse: arm(&diverse),
                queue_wait: queue_wait_quantiles(&tel),
                meta: meta(threads),
            });
        }
        None => {
            let degradation = degradation.unwrap_or(true);
            let config = ServiceConfig {
                threads,
                degradation,
                ..ServiceConfig::default()
            };
            let traced = telemetry_out.any().then_some(&mut tel);
            let report = serve_arm(config, &trace, &plan, traced);
            telemetry_out.write(&tel, &report);
            if log {
                for outcome in &report.outcomes {
                    println!("{outcome}");
                }
            }
            let summary = arm(&report);
            if json {
                emit(&SingleOutput {
                    workload,
                    degradation,
                    arm: summary,
                    meta: meta(threads),
                });
            } else if !log {
                println!(
                    "serve: {} requests seed={} degradation={} | served={} (full={} reduced={} cached={}) \
                     shed={} failed={} | goodput={:.3} shed_rate={:.3} mean_latency={:.1} ticks={} R={:.1}",
                    report.total(),
                    seed,
                    if degradation { "on" } else { "off" },
                    report.served(),
                    summary.served_full,
                    summary.served_reduced,
                    summary.served_cached,
                    report.shed(),
                    report.failed(),
                    report.goodput(),
                    report.shed_rate(),
                    report.mean_latency(),
                    report.ticks,
                    report.resilience_loss(),
                );
            }
        }
    }
}
