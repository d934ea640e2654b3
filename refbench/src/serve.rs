//! The three serve workloads: one batch serve of a seeded request trace
//! under a chaos plan per operation, cycling through the run's traces.
//!
//! The backend replay probe re-issues, through `ParallelTrials::run`,
//! exactly the Monte Carlo calls the engine made — the same seeds, trial
//! counts, trial closure and thread budget, rebuilt from each served
//! outcome — so that the backend's share of a serve is measured from
//! outside the program. `replay_mismatches` counts replayed values that
//! differ from the served ones; while it reads 0 the replay mirrors the
//! engine's backend exactly.

use std::hint::black_box;
use std::time::Instant;

use rand::Rng;
use resilience_anticipate::{AnticipationConfig, AnticipationController};
use resilience_core::{derive_seed, FaultConfig, FaultPlan, ParallelTrials};
use resilience_service::{
    BreakerState, Disposition, FamilyStats, Fidelity, ReplicaFamilyStats, ReplicationConfig,
    RequestTrace, ServiceConfig, ServiceEngine, ServiceReport, TraceSpec,
};
use resilience_telemetry::{render_postmortem, Telemetry};

use crate::digest::{self, Digest};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use crate::workload::{Layers, Workload};

const CHAOS: &str = "seed=11,panic=0.1,delay=0.05,poison=0.1,permanent=0.05";
const REPLICA_CHAOS: &str = "seed=11,panic=0.05,gray=0.1,correlated=0.25";

/// Seed streams the engine derives its backend calls from.
const BACKEND_STREAM: u64 = 0xbac0;
const CACHE_STREAM: u64 = 0xcafe;
const CACHE_TRIALS: u64 = 64;

/// Traces per run, each from its own seed derived from the workload
/// seed; operation `i` serves trace `i mod TRACES`. How much backend
/// work a trace needs varies from seed to seed by 7–14%, so a run's
/// percentiles are taken over many traces.
const TRACES: u64 = 64;

/// Traces whose full report is also checked at the other thread budget.
const THREAD_CHECKS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The reference serve: the canonical 600-request trace, reactive.
    Reactive,
    /// A sustained overload served with anticipation and the telemetry
    /// spine, rendered as `serve --postmortem-out --prom-out` does.
    Storm,
    /// Two diverse replicas per family on two threads.
    Replicated,
}

impl Shape {
    fn spec(self, seed: u64) -> TraceSpec {
        match self {
            Shape::Reactive => TraceSpec::new(600, seed),
            // Five times the canonical base rate for the whole trace,
            // surged four times again mid-trace: every seed escalates to
            // Emergency. (At 4.0 about one seed in eight never does, and
            // that serve sheds instead, doing twice the backend work.)
            Shape::Storm => TraceSpec {
                base_rate: 6.0,
                surge_factor: 4.0,
                ..TraceSpec::new(2000, seed)
            },
            Shape::Replicated => TraceSpec {
                base_rate: 0.8,
                surge_factor: 2.5,
                deadline: (30, 70),
                ..TraceSpec::new(600, seed)
            },
        }
    }

    fn threads(self) -> usize {
        match self {
            Shape::Replicated => 2,
            _ => 1,
        }
    }

    fn config(self, threads: usize) -> ServiceConfig {
        match self {
            Shape::Reactive => ServiceConfig {
                threads,
                ..ServiceConfig::default()
            },
            Shape::Storm => {
                let mut anticipation = AnticipationConfig::default();
                // Low enough that the overload escalates to Emergency.
                anticipation.switch.emergency_on = 0.40;
                ServiceConfig {
                    threads,
                    anticipation: Some(anticipation),
                    ..ServiceConfig::default()
                }
            }
            Shape::Replicated => ServiceConfig {
                threads,
                servers_per_family: 4,
                replication: Some(ReplicationConfig {
                    replicas: 2,
                    ..ReplicationConfig::default()
                }),
                ..ServiceConfig::default()
            },
        }
    }

    /// Name of the operation's serve span: the storm serves traced.
    fn serve_span(self) -> &'static str {
        match self {
            Shape::Storm => "service.engine.serve_traced",
            _ => "service.engine.serve",
        }
    }
}

/// One backend Monte Carlo call: `(master seed, trials, served value)`.
type BackendCall = (u64, u64, Option<u64>);

/// The rendered telemetry of a storm operation.
#[derive(Debug)]
pub struct Rendered {
    telemetry: Telemetry,
    incidents: usize,
    postmortem: String,
    prometheus: String,
}

impl Rendered {
    fn digest(&self) -> u64 {
        Digest::default()
            .bytes(self.postmortem.as_bytes())
            .bytes(self.prometheus.as_bytes())
            .finish()
    }
}

#[derive(Debug)]
pub struct ServeOut {
    report: ServiceReport,
    rendered: Option<Rendered>,
}

/// What one trace's operation must reproduce, and what its layers did.
#[derive(Debug)]
struct Reference {
    report: ServiceReport,
    /// Digest of the rendered postmortem and exposition (storm only).
    rendered: Option<u64>,
    calls: Vec<BackendCall>,
    spans: usize,
    critical_paths: usize,
    incidents: usize,
    postmortem_bytes: usize,
}

#[derive(Debug)]
pub struct Serve {
    shape: Shape,
    config: ServiceConfig,
    engine: ServiceEngine,
    traces: Vec<RequestTrace>,
    plan: FaultPlan,
    generate_ms: f64,
    references: Vec<Reference>,
}

impl Serve {
    /// Generate the traces, parse the chaos plan, build the engine.
    pub fn setup(shape: Shape, seed: u64) -> Self {
        let t = Instant::now();
        let traces = (0..TRACES)
            .map(|k| RequestTrace::generate(&shape.spec(derive_seed(seed, k))))
            .collect();
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let chaos = match shape {
            Shape::Replicated => REPLICA_CHAOS,
            _ => CHAOS,
        };
        let plan = FaultConfig::parse(chaos)
            .expect("the canned chaos plan parses")
            .plan;
        let config = shape.config(shape.threads());
        Serve {
            shape,
            engine: ServiceEngine::new(config.clone()),
            config,
            traces,
            plan,
            generate_ms,
            references: Vec::new(),
        }
    }

    /// Operation `i` serves trace `i mod TRACES`.
    fn trace(&self, i: u64) -> &RequestTrace {
        &self.traces[(i % TRACES) as usize]
    }

    fn reference(&self, i: u64) -> Option<&Reference> {
        self.references.get((i % TRACES) as usize)
    }

    /// Mean over the run's traces.
    fn mean(&self, f: impl Fn(&Reference) -> f64) -> f64 {
        self.references.iter().map(f).sum::<f64>() / self.references.len().max(1) as f64
    }

    /// The backend calls behind `report` on `trace`: the per-family
    /// cache tables, then one call per outcome the backend served (full
    /// or reduced fidelity; cached answers never reach it).
    fn backend_calls(&self, trace: &RequestTrace, report: &ServiceReport) -> Vec<BackendCall> {
        let master = derive_seed(trace.seed, BACKEND_STREAM);
        let mut cost = vec![0u64; trace.len()];
        for r in &trace.requests {
            cost[usize::try_from(r.id).expect("request ids index the trace")] = r.cost;
        }
        let divisor = self.config.brownout.reduced_divisor.max(1);
        let mut calls: Vec<BackendCall> = (0..trace.families.len().max(1) as u64)
            .map(|fam| (derive_seed(master, CACHE_STREAM + fam), CACHE_TRIALS, None))
            .collect();
        for o in &report.outcomes {
            if let Disposition::Served {
                fidelity, value, ..
            } = o.disposition
            {
                let c = cost[usize::try_from(o.id).expect("request ids index the trace")];
                let work = match fidelity {
                    Fidelity::Full => c.max(1),
                    Fidelity::Reduced => (c / divisor).max(1),
                    Fidelity::Cached => continue,
                };
                let trials = work * self.config.trials_per_work_unit;
                calls.push((derive_seed(master, o.id), trials, Some(value)));
            }
        }
        calls
    }

    /// Re-issue `calls` on the engine's thread budget; returns how many
    /// replayed values differ from the served ones.
    fn replay(&self, calls: &[BackendCall]) -> usize {
        let pool = ParallelTrials::new(self.config.threads);
        calls
            .iter()
            .filter(|&&(seed, trials, served)| {
                let value = pool.run(
                    trials,
                    seed,
                    |idx, rng| idx.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rng.gen::<u64>(),
                    0u64,
                    |acc, x| acc ^ x,
                );
                served.is_some_and(|v| v != black_box(value))
            })
            .count()
    }
}

impl Workload for Serve {
    type Out = ServeOut;

    fn input_ms(&self) -> f64 {
        self.generate_ms
    }

    fn prepare(&mut self) -> Result<u64, String> {
        let mut golden = Digest::default();
        for k in 0..TRACES {
            let out = self.op(k, None);
            let trace = self.trace(k);
            // The full report, backend values included, must not depend
            // on the thread budget; for the storm this also checks that
            // the traced report equals the untraced one.
            let other = 3 - self.config.threads;
            if k < THREAD_CHECKS {
                let plain = ServiceEngine::new(self.shape.config(other)).serve(trace, &self.plan);
                if digest::json(&plain) != digest::json(&out.report) {
                    return Err(format!(
                        "trace {k}: the untraced report at {other} thread(s) differs from the \
                         operation's"
                    ));
                }
            }
            let rendered = out.rendered.as_ref();
            let reference = Reference {
                calls: self.backend_calls(trace, &out.report),
                rendered: rendered.map(Rendered::digest),
                spans: rendered.map_or(0, |r| r.telemetry.causal.spans().len()),
                critical_paths: rendered.map_or(0, |r| r.telemetry.causal.paths().len()),
                incidents: rendered.map_or(0, |r| r.incidents),
                postmortem_bytes: rendered.map_or(0, |r| r.postmortem.len()),
                report: out.report.clone(),
            };
            golden = golden.u64(digest::decisions(&reference.report));
            self.references.push(reference);
            self.check(k, &out)?;
        }
        Ok(golden.finish())
    }

    fn work_per_op(&self) -> f64 {
        self.trace(0).len() as f64
    }

    fn op(&self, i: u64, mut rec: Option<&mut Recorder>) -> ServeOut {
        let (trace, plan) = (self.trace(i), &self.plan);
        let serve_span = self.shape.serve_span();
        if self.shape != Shape::Storm {
            let report = Recorder::maybe(rec, serve_span, || self.engine.serve(trace, plan));
            return ServeOut {
                report,
                rendered: None,
            };
        }
        let mut telemetry = Telemetry::new(1.0);
        let report = Recorder::maybe(rec.as_deref_mut(), serve_span, || {
            self.engine.serve_traced(trace, plan, &mut telemetry)
        });
        let incidents = Recorder::maybe(rec.as_deref_mut(), "telemetry.finalize", || {
            telemetry
                .incidents
                .finalize(&telemetry.causal, &report.warning_scores)
        });
        let postmortem = Recorder::maybe(rec.as_deref_mut(), "telemetry.postmortem", || {
            render_postmortem("serve", &incidents, &telemetry.causal)
        });
        let prometheus = Recorder::maybe(rec, "telemetry.prometheus", || {
            telemetry.metrics.to_prometheus()
        });
        ServeOut {
            report,
            rendered: Some(Rendered {
                telemetry,
                incidents: incidents.len(),
                postmortem,
                prometheus,
            }),
        }
    }

    fn check(&self, i: u64, out: &ServeOut) -> Result<(), String> {
        let report = &out.report;
        let requests = self.trace(i).len() as u64;
        if report.total() != requests || report.outcomes.len() as u64 != requests {
            return Err(format!(
                "adjudicated {} of {requests} requests",
                report.total()
            ));
        }
        for (fam, s) in report.replica_stats.iter().enumerate() {
            if s.hedges_launched + s.failovers != s.budget_spent {
                return Err(format!(
                    "family {fam}: hedges {} + failovers {} != budget spent {}",
                    s.hedges_launched, s.failovers, s.budget_spent
                ));
            }
        }
        if let Some(r) = &out.rendered {
            if let Some(p) = r
                .telemetry
                .causal
                .paths()
                .iter()
                .find(|p| p.blame.total() != p.slack_deficit)
            {
                return Err(format!(
                    "request {}: blame {} != slack deficit {}",
                    p.request,
                    p.blame.total(),
                    p.slack_deficit
                ));
            }
        }
        let reference = self.reference(i).expect("prepare records every trace");
        if *report != reference.report {
            return Err("report differs from the reference serve".to_string());
        }
        if out.rendered.as_ref().map(Rendered::digest) != reference.rendered {
            return Err("postmortem or exposition differs from the reference".to_string());
        }
        Ok(())
    }

    fn probe(&self, i: u64, out: &ServeOut, rec: &mut Recorder) {
        let reference = self.reference(i).expect("prepare records every trace");
        rec.span("core.runtime.replay", |_| self.replay(&reference.calls));
        let Some(anticipation) = &self.config.anticipation else {
            return;
        };
        // The storm's serve without the telemetry spine: the base of the
        // tracing overhead ratio and of the backend and observe shares.
        rec.span("service.engine.serve", |_| {
            black_box(self.engine.serve(self.trace(i), &self.plan))
        });
        // The controller fed the operation's Q(t) deficit, one sample
        // per tick, as the engine feeds it its own pressure signal.
        rec.span("anticipate.observe_replay", |_| {
            let mut controller = AnticipationController::new(anticipation.clone());
            for (tick, q) in out.report.quality.samples().iter().enumerate() {
                controller.observe(tick as u64, (100.0 - q) / 100.0);
            }
            black_box(controller.mode())
        });
    }

    fn layers(&self, rec: &Recorder, layers: &mut Layers) {
        let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
        let serve = "service.engine.serve";
        let trials = |r: &Reference| r.calls.iter().map(|c| c.1).sum::<u64>() as f64;
        let trials_per_s: Vec<f64> = rec
            .per_op("core.runtime.replay")
            .into_iter()
            .filter_map(|(op, ms)| Some(trials(self.reference(op)?) / ms * 1e3))
            .collect();
        let backend_share = rec.ratios("core.runtime.replay", serve);
        let control_share = backend_share.iter().map(|b| 1.0 - b).collect();
        let family = |f: fn(&FamilyStats) -> u64| {
            self.mean(|r| r.report.per_family.iter().map(f).sum::<u64>() as f64)
        };
        let latencies: Vec<f64> = self
            .references
            .iter()
            .flat_map(|r| &r.report.outcomes)
            .filter_map(|o| match o.disposition {
                Disposition::Served { latency, .. } => Some(latency as f64),
                _ => None,
            })
            .collect();
        let mismatches: usize = self.references.iter().map(|r| self.replay(&r.calls)).sum();
        layers.extend([
            (
                "core.runtime.backend_calls",
                self.mean(|r| r.calls.len() as f64),
            ),
            ("core.runtime.backend_trials", self.mean(trials)),
            ("core.runtime.replay_mismatches", mismatches as f64),
            ("core.runtime.trials_per_s", med(trials_per_s)),
            ("core.runtime.backend_share", med(backend_share)),
            (
                "service.engine.requests_per_s",
                self.work_per_op() / med(rec.durations(self.shape.serve_span())) * 1e3,
            ),
            ("service.engine.control_share", med(control_share)),
            ("service.engine.served_full", family(|f| f.served_full)),
            (
                "service.engine.served_reduced",
                family(|f| f.served_reduced),
            ),
            ("service.engine.served_cached", family(|f| f.served_cached)),
            ("service.engine.shed", family(|f| f.shed)),
            ("service.engine.failed", family(|f| f.failed)),
            ("service.engine.ticks", self.mean(|r| r.report.ticks as f64)),
            (
                "service.engine.breaker_trips",
                self.mean(|r| {
                    let t = r.report.breaker_transitions.iter().flatten();
                    t.filter(|t| t.to == BreakerState::Open).count() as f64
                }),
            ),
            (
                "service.engine.brownout_changes",
                self.mean(|r| r.report.brownout_history.len() as f64),
            ),
            (
                "service.engine.latency_p50_ticks",
                percentile(&latencies, 50),
            ),
            (
                "service.engine.latency_p99_ticks",
                percentile(&latencies, 99),
            ),
            (
                "service.engine.resilience_loss",
                self.mean(|r| r.report.resilience_loss()),
            ),
        ]);
        if self.shape == Shape::Storm {
            let share = |span: &str| med(rec.ratios(span, "op"));
            layers.extend([
                (
                    "anticipate.alert_ticks",
                    self.mean(|r| r.report.alert_ticks as f64),
                ),
                (
                    "anticipate.emergency_ticks",
                    self.mean(|r| r.report.emergency_ticks as f64),
                ),
                (
                    "anticipate.mode_transitions",
                    self.mean(|r| r.report.mode_transitions.len() as f64),
                ),
                (
                    "anticipate.observe_share",
                    med(rec.ratios("anticipate.observe_replay", serve)),
                ),
                (
                    "telemetry.overhead_ratio",
                    med(rec.ratios(self.shape.serve_span(), serve)),
                ),
                ("telemetry.finalize_share", share("telemetry.finalize")),
                ("telemetry.postmortem_share", share("telemetry.postmortem")),
                ("telemetry.prometheus_share", share("telemetry.prometheus")),
                ("telemetry.spans", self.mean(|r| r.spans as f64)),
                (
                    "telemetry.critical_paths",
                    self.mean(|r| r.critical_paths as f64),
                ),
                ("telemetry.incidents", self.mean(|r| r.incidents as f64)),
                (
                    "telemetry.postmortem_bytes",
                    self.mean(|r| r.postmortem_bytes as f64),
                ),
            ]);
        }
        if self.shape == Shape::Replicated {
            let replica = |f: fn(&ReplicaFamilyStats) -> u64| {
                self.mean(|r| r.report.replica_stats.iter().map(f).sum::<u64>() as f64)
            };
            let (launched, won) = (replica(|s| s.hedges_launched), replica(|s| s.hedges_won));
            layers.extend([
                ("service.replica.routed", replica(|s| s.routed)),
                ("service.replica.hedges_launched", launched),
                ("service.replica.hedges_won", won),
                (
                    "service.replica.hedge_win_ratio",
                    if launched == 0.0 { 0.0 } else { won / launched },
                ),
                ("service.replica.failovers", replica(|s| s.failovers)),
                (
                    "service.replica.retry_budget_spent",
                    replica(|s| s.budget_spent),
                ),
                (
                    "service.replica.retry_budget_exhausted",
                    replica(|s| s.budget_exhausted),
                ),
                (
                    "service.replica.reclaimed_work",
                    replica(|s| s.reclaimed_work),
                ),
                (
                    "service.replica.correlated_hits",
                    replica(|s| s.correlated_hits),
                ),
                ("service.replica.gray_slots", replica(|s| s.gray_slots)),
            ]);
        }
    }
}
