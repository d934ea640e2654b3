//! Deterministic observability spine for the Systems Resilience
//! workspace.
//!
//! The paper's central quantitative object is the quality trajectory
//! `Q(t)` and its Bruneau integral `R = ∫ [100 − Q(t)] dt`; before this
//! crate, the workspace only surfaced `Q(t)` post-hoc in bespoke report
//! structs. This crate is one coherent instrumentation layer over all
//! four engines — the supervised Monte Carlo runtime, the DCSP
//! verification engine, the serving layer, and the bench drivers:
//!
//! * [`trace`] — typed events ([`Event`]) stamped with the logical
//!   clock, recorded through per-worker [`TraceBuffer`]s (plain owned
//!   `Vec` pushes, no locks) and merged by sorting on
//!   `(tick, lane, seq)`, so the full trace is **bit-identical for any
//!   thread budget**.
//! * [`metrics`] — a [`MetricsRegistry`] of counters, gauges, and
//!   fixed-bucket histograms with Prometheus text exposition and JSON
//!   export, both rendered in deterministic order.
//! * [`trajectory`] — live `Q(t)`/Bruneau scoring: a
//!   [`TrajectoryObserver`] folds deficit charges into the quality
//!   series incrementally and attributes the Bruneau deficit to cause
//!   (shed vs failed vs degraded vs supervisor-retry).
//! * [`causal`] — causal span trees on the logical tick clock: the serve
//!   loop hands [`Telemetry::record_request`] one [`RequestSketch`] per
//!   decided request, which yields the request's trace events; the
//!   [`CausalTracer`] expands it into a well-formed span tree and, for
//!   every deadline-missed or shed request, decomposes the slack deficit
//!   *exactly* into blame edges (queue wait, breaker dwell, gray
//!   inflation, retry backoff, intrinsic work). The tracer is the one
//!   per-request record; nothing else stores decided requests.
//! * [`incident`] — a [`FlightRecorder`] that snapshots the tracer's
//!   last requests per family when anticipation escalates to Emergency
//!   (or a cluster cascade ignites), and renders [`IncidentReport`]s as
//!   a schema-validated postmortem bundle.
//! * [`report`] — derivation of runtime telemetry from a supervised
//!   [`RunReport`](resilience_core::faults::RunReport)'s logical
//!   attempt log.
//! * [`schema`] — an offline JSON-Schema-subset validator, so CI can
//!   check the exported metrics document against a checked-in schema
//!   without network access.
//!
//! # Determinism contract
//!
//! Telemetry is opt-in; engines take `Option<&mut Telemetry>` (or a
//! `_traced` entry point) and the `None` path does no work. When on,
//! everything recorded into [`Tracer`], [`MetricsRegistry`], and
//! [`TrajectoryObserver`] is a pure function of logical state — tick
//! clocks, seeded draws, rank orders — never of scheduling, so traces,
//! expositions, and attributions are byte-identical across `--threads`
//! budgets *and* the instrumented run's deterministic outputs are
//! byte-identical to the uninstrumented run. Nothing in this crate reads
//! a wall clock; perf timing lives in the benchmark binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never `unwrap()`; tests are exempt because a failed unwrap
// there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod causal;
pub mod incident;
pub mod metrics;
pub mod report;
pub mod schema;
pub mod trace;
pub mod trajectory;

pub use causal::{record_causal_metrics, Blame, BlameEdge, CausalSpan, CausalTracer, CriticalPath};
use causal::{AttemptKind, RequestSketch, SketchOutcome};
pub use incident::{
    postmortem_bundle, record_incident_metrics, render_postmortem, FlightRecorder, IncidentReport,
    TriggerKind,
};
pub use metrics::{Histogram, MetricValue, MetricsRegistry};
pub use report::{record_run_events, record_run_metrics, trajectory_of_run};
pub use schema::validate;
pub use trace::{Event, PlanAction, TraceBuffer, TraceEvent, Tracer};
pub use trajectory::{DeficitAttribution, DeficitCause, TrajectoryObserver};

/// The full telemetry bundle an instrumented engine records into: the
/// deterministic trace, metrics, trajectory, causal spans and incident
/// triggers.
#[derive(Debug)]
pub struct Telemetry {
    /// Structured event trace (deterministic).
    pub tracer: Tracer,
    /// Metrics registry (deterministic).
    pub metrics: MetricsRegistry,
    /// Live Q(t) observer with deficit attribution (deterministic).
    pub trajectory: TrajectoryObserver,
    /// Causal span trees + critical paths (deterministic).
    pub causal: CausalTracer,
    /// Incident flight recorder (deterministic).
    pub incidents: FlightRecorder,
}

impl Telemetry {
    /// A fresh bundle whose trajectory samples with spacing `dt`.
    pub fn new(dt: f64) -> Self {
        Telemetry {
            tracer: Tracer::new(),
            metrics: MetricsRegistry::new(),
            trajectory: TrajectoryObserver::new(dt),
            causal: CausalTracer::new(),
            incidents: FlightRecorder::new(),
        }
    }

    /// Record one decided request: charge its `penalty` to the observed
    /// trajectory, expand its span tree, and derive its trace events at
    /// their own ticks. Admission, routing and the hedge launch (or the
    /// budget's refusal of it) land on the arrival tick, a failover on
    /// its enqueue tick, and the hedge win, a refused failover, the
    /// disposition and the cache verdict on the decision tick.
    pub fn record_request(&mut self, sketch: &RequestSketch<'_>, penalty: f64) {
        let (id, family, tracer) = (sketch.id, sketch.family, &mut self.tracer);
        let (arrival, tick) = (sketch.arrival, sketch.decided_at);
        let exhausted = |kind: &str| Event::RetryBudgetExhausted {
            family,
            kind: kind.to_string(),
        };
        if let Some(fidelity) = sketch.admitted.map(str::to_string) {
            let admitted = Event::RequestAdmitted {
                id,
                family,
                fidelity,
            };
            tracer.record(arrival, admitted);
        }
        if sketch.refused_hedge {
            tracer.record(arrival, exhausted("hedge"));
        }
        for a in &sketch.attempts {
            let replica = a.replica;
            let event = match a.kind {
                AttemptKind::Primary if !sketch.replicated => continue,
                AttemptKind::Primary => Event::ReplicaRouted {
                    id,
                    family,
                    replica,
                },
                AttemptKind::Hedge => Event::HedgeLaunched {
                    id,
                    family,
                    replica,
                },
                // Replicas resolve in index order, so the attempt whose
                // death launched the failover is the highest-indexed one
                // that died on the failover's enqueue tick.
                AttemptKind::Failover => Event::ReplicaFailover {
                    id,
                    family,
                    from_replica: (sketch.attempts.iter())
                        .filter(|b| b.kind != AttemptKind::Failover)
                        .filter(|b| b.completed == Some(a.enqueued))
                        .map(|b| b.replica)
                        .max()
                        .unwrap_or_default(),
                    to_replica: replica,
                },
            };
            tracer.record(a.enqueued, event);
            if a.won && a.kind == AttemptKind::Hedge {
                let reclaimed = sketch.reclaimed;
                let won = Event::HedgeWon {
                    id,
                    family,
                    replica,
                    reclaimed,
                };
                tracer.record(tick, won);
            }
        }
        if sketch.refused_failover {
            tracer.record(tick, exhausted("failover"));
        }
        let cause = match sketch.outcome {
            SketchOutcome::Served {
                fidelity, latency, ..
            } => {
                // `cached` is the label of an answer from the cache table.
                let hit = fidelity == "cached";
                let fidelity = fidelity.to_string();
                let served = Event::RequestServed {
                    id,
                    family,
                    fidelity,
                    latency,
                };
                tracer.record(tick, served);
                let verdict = if hit {
                    Event::CacheHit { family }
                } else {
                    Event::CacheMiss { family }
                };
                tracer.record(tick, verdict);
                DeficitCause::Degraded
            }
            SketchOutcome::Failed { cause } => {
                let cause = cause.to_string();
                tracer.record(tick, Event::RequestFailed { id, family, cause });
                DeficitCause::Failed
            }
            SketchOutcome::Shed { reason } => {
                let reason = reason.to_string();
                tracer.record(tick, Event::RequestShed { id, family, reason });
                DeficitCause::Shed
            }
        };
        self.trajectory.charge(cause, penalty);
        self.causal.record(sketch);
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(1.0)
    }
}
