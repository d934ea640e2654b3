//! Incident flight recorder and deterministic postmortem bundles.
//!
//! A [`FlightRecorder`] keeps no per-request state of its own: the
//! causal tracer is the one record of decided requests. For each
//! escalation to Emergency (or cluster cascade onset), the engine's
//! report→telemetry derivation calls [`FlightRecorder::trigger`] with
//! the tracer's entries decided by the trigger tick, and it snapshots
//! the last [`RING_CAPACITY`] of them per family — deterministically,
//! because the tracer's decision order is a pure function of the
//! simulation. After the run,
//! [`FlightRecorder::finalize`] joins each snapshot against the causal
//! tracer to produce [`IncidentReport`]s: trigger, pre/post warning-score
//! trajectory, involved replicas, and the top-k critical paths ranked by
//! slack deficit. [`postmortem_bundle`] renders reports as a
//! schema-validated JSON document plus a human-readable timeline,
//! byte-identical across thread budgets.

use crate::causal::{BlameEdge, CausalTracer, CriticalPath, RequestEntry};
use serde::Value;
use std::collections::BTreeMap;

/// Recently decided requests captured per family at a trigger.
pub const RING_CAPACITY: usize = 64;
/// Hard cap on recorded triggers; later triggers are counted, not kept.
pub const MAX_TRIGGERS: usize = 32;
/// Critical paths kept per incident, ranked by slack deficit.
pub const TOP_K: usize = 5;
/// Warning-score samples kept before and after the trigger tick.
pub const WARNING_WINDOW: usize = 16;

pub use crate::label::TriggerKind;

/// One recorded trigger with its snapshot.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Tick the trigger fired (the mode-transition / cascade tick).
    pub tick: u64,
    /// Trigger classification.
    pub kind: TriggerKind,
    /// Warning score (milli) at the trigger, 0 when not applicable.
    pub score_milli: u64,
    /// Human-readable trigger detail.
    pub detail: String,
    /// Decision positions (indices into [`CausalTracer::entries`]) of the
    /// captured requests, family order then age order.
    pub snapshot: Vec<usize>,
}

/// Decision positions of the last [`RING_CAPACITY`] requests of each
/// family: families ascending, oldest first.
fn flight_window(entries: &[RequestEntry]) -> Vec<usize> {
    let mut lanes: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (pos, entry) in entries.iter().enumerate().rev() {
        let lane = lanes.entry(entry.family).or_default();
        if lane.len() < RING_CAPACITY {
            lane.push(pos);
        }
    }
    lanes
        .into_values()
        .flat_map(|lane| lane.into_iter().rev())
        .collect()
}

/// Recorded triggers with their snapshots of the causal tracer.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    triggers: Vec<Trigger>,
    dropped: u64,
}

impl FlightRecorder {
    /// Fresh, empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Snapshot the last [`RING_CAPACITY`] requests of each family among
    /// `decided`, the prefix of [`CausalTracer::entries`] decided by
    /// `tick`. Returns the number of requests captured. Past
    /// [`MAX_TRIGGERS`] the trigger is counted but not kept, bounding
    /// memory under trigger storms.
    pub fn trigger(
        &mut self,
        decided: &[RequestEntry],
        tick: u64,
        kind: TriggerKind,
        score_milli: u64,
        detail: String,
    ) -> u64 {
        if self.triggers.len() >= MAX_TRIGGERS {
            self.dropped += 1;
            return 0;
        }
        let snapshot = flight_window(decided);
        let captured = snapshot.len() as u64;
        self.triggers.push(Trigger {
            tick,
            kind,
            score_milli,
            detail,
            snapshot,
        });
        captured
    }

    /// Recorded triggers, in firing order.
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Triggers dropped past [`MAX_TRIGGERS`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True when no trigger has fired.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }

    /// Join every trigger's snapshot against the causal tracer the
    /// triggers read and the warning-score trajectory, producing one
    /// [`IncidentReport`] per trigger. Pure: callable repeatedly with
    /// identical results.
    pub fn finalize(&self, causal: &CausalTracer, warning_scores: &[u64]) -> Vec<IncidentReport> {
        self.triggers
            .iter()
            .map(|t| {
                let tick = t.tick as usize;
                let lo = tick
                    .saturating_sub(WARNING_WINDOW)
                    .min(warning_scores.len());
                let mid = tick.min(warning_scores.len());
                let hi = tick
                    .saturating_add(WARNING_WINDOW)
                    .min(warning_scores.len());
                let (mut paths, mut replicas, mut snapshot_spans) = (Vec::new(), Vec::new(), 0);
                for &pos in &t.snapshot {
                    let entry = &causal.entries()[pos];
                    let spans = &causal.spans()[entry.span_start..][..entry.span_count];
                    snapshot_spans += spans.len() as u64;
                    replicas.extend(
                        spans
                            .iter()
                            .filter(|s| s.kind.is_attempt())
                            .map(|s| s.replica),
                    );
                    paths.extend(entry.path.map(|i| causal.paths()[i].clone()));
                }
                paths.sort_by(|a: &CriticalPath, b| {
                    b.slack_deficit
                        .cmp(&a.slack_deficit)
                        .then(a.request.cmp(&b.request))
                });
                paths.truncate(TOP_K);
                replicas.sort_unstable();
                replicas.dedup();
                IncidentReport {
                    trigger_tick: t.tick,
                    kind: t.kind,
                    score_milli: t.score_milli,
                    detail: t.detail.clone(),
                    warning_before: warning_scores[lo..mid].to_vec(),
                    warning_after: warning_scores[mid..hi].to_vec(),
                    involved_replicas: replicas,
                    snapshot_spans,
                    critical_paths: paths,
                }
            })
            .collect()
    }
}

/// One incident: trigger context, warning-score trajectory around the
/// trigger tick, and the worst critical paths in the flight window.
#[derive(Debug, Clone)]
pub struct IncidentReport {
    /// Tick the trigger fired; for mode escalations this is exactly the
    /// `ModeTransition::tick` of the Emergency switch.
    pub trigger_tick: u64,
    /// Trigger classification.
    pub kind: TriggerKind,
    /// Warning score (milli) at the trigger, 0 when not applicable.
    pub score_milli: u64,
    /// Human-readable trigger detail.
    pub detail: String,
    /// Warning scores for the [`WARNING_WINDOW`] ticks before the trigger.
    pub warning_before: Vec<u64>,
    /// Warning scores for the [`WARNING_WINDOW`] ticks from the trigger on.
    pub warning_after: Vec<u64>,
    /// Sorted replica indices touched by snapshotted requests.
    pub involved_replicas: Vec<u32>,
    /// Causal spans owned by snapshotted requests.
    pub snapshot_spans: u64,
    /// Top-k critical paths by slack deficit (ties by request id).
    pub critical_paths: Vec<CriticalPath>,
}

/// Register the `incident_*` metric families. Called by the engines at end
/// of run when causal tracing was active, so the families are always
/// present (possibly zero) in traced expositions.
pub fn record_incident_metrics(
    registry: &mut crate::metrics::MetricsRegistry,
    incidents: &[IncidentReport],
) {
    registry.inc_counter(
        "incident_reports_total",
        "Flight-recorder snapshots promoted to incident reports",
        incidents.len() as u64,
    );
    registry.inc_counter(
        "incident_snapshot_spans_total",
        "Causal spans captured across all incident snapshots",
        incidents.iter().map(|i| i.snapshot_spans).sum(),
    );
    registry.inc_counter(
        "incident_critical_paths_total",
        "Critical paths attached to incident reports (top-k per incident)",
        incidents
            .iter()
            .map(|i| i.critical_paths.len() as u64)
            .sum(),
    );
}

fn uints(xs: &[u64]) -> Value {
    Value::Array(xs.iter().map(|x| Value::UInt(*x)).collect())
}

fn path_value(p: &CriticalPath) -> Value {
    Value::Object(vec![
        ("request".to_string(), Value::UInt(p.request)),
        ("family".to_string(), Value::UInt(p.family as u64)),
        ("decided_at".to_string(), Value::UInt(p.decided_at)),
        ("outcome".to_string(), Value::String(p.outcome.clone())),
        ("slack_deficit".to_string(), Value::UInt(p.slack_deficit)),
        (
            "longest_pole".to_string(),
            Value::String(p.longest_pole.as_str().to_string()),
        ),
        (
            "blame".to_string(),
            Value::Object(
                BlameEdge::ALL
                    .iter()
                    .map(|e| (e.field().to_string(), Value::UInt(p.blame.get(*e))))
                    .collect(),
            ),
        ),
    ])
}

/// Build the `resilience-incident/v1` postmortem bundle: incidents,
/// whole-run critical-path totals, and a human-readable timeline. A pure
/// function of its inputs, so the document is byte-identical across
/// thread budgets and repeated exports.
pub fn postmortem_bundle(
    source: &str,
    incidents: &[IncidentReport],
    causal: &CausalTracer,
) -> Value {
    let totals = causal.totals();
    let mut timeline: Vec<Value> = Vec::new();
    for i in incidents {
        timeline.push(Value::String(format!(
            "tick {:>6}: {} ({}) — score {} milli, {} snapshot spans, {} critical paths",
            i.trigger_tick,
            i.kind.as_str(),
            i.detail,
            i.score_milli,
            i.snapshot_spans,
            i.critical_paths.len(),
        )));
        for p in &i.critical_paths {
            timeline.push(Value::String(format!(
                "tick {:>6}:   request {} family {} {} — deficit {} ticks, longest pole {} (queue {} + breaker {} + gray {} + retry {} + intrinsic {})",
                p.decided_at,
                p.request,
                p.family,
                p.outcome,
                p.slack_deficit,
                p.longest_pole.as_str(),
                p.blame.queue_wait,
                p.blame.breaker_dwell,
                p.blame.gray_inflation,
                p.blame.retry_backoff,
                p.blame.intrinsic_work,
            )));
        }
    }

    let incident_values: Vec<Value> = incidents
        .iter()
        .map(|i| {
            Value::Object(vec![
                (
                    "trigger".to_string(),
                    Value::String(i.kind.as_str().to_string()),
                ),
                ("trigger_tick".to_string(), Value::UInt(i.trigger_tick)),
                ("score_milli".to_string(), Value::UInt(i.score_milli)),
                ("detail".to_string(), Value::String(i.detail.clone())),
                ("warning_before".to_string(), uints(&i.warning_before)),
                ("warning_after".to_string(), uints(&i.warning_after)),
                (
                    "involved_replicas".to_string(),
                    Value::Array(
                        i.involved_replicas
                            .iter()
                            .map(|r| Value::UInt(*r as u64))
                            .collect(),
                    ),
                ),
                ("snapshot_spans".to_string(), Value::UInt(i.snapshot_spans)),
                (
                    "critical_paths".to_string(),
                    Value::Array(i.critical_paths.iter().map(path_value).collect()),
                ),
            ])
        })
        .collect();

    Value::Object(vec![
        (
            "schema".to_string(),
            Value::String("resilience-incident/v1".to_string()),
        ),
        ("source".to_string(), Value::String(source.to_string())),
        (
            "requests_traced".to_string(),
            Value::UInt(causal.requests()),
        ),
        (
            "spans_recorded".to_string(),
            Value::UInt(causal.spans().len() as u64),
        ),
        ("incidents".to_string(), Value::Array(incident_values)),
        (
            "critical_path_totals".to_string(),
            Value::Object(
                [
                    ("requests".to_string(), causal.paths().len() as u64),
                    ("slack_deficit_ticks".to_string(), totals.slack_deficit),
                ]
                .into_iter()
                .chain(
                    BlameEdge::ALL
                        .iter()
                        .map(|e| (format!("{}_ticks", e.field()), totals.blame.get(*e))),
                )
                .map(|(key, ticks)| (key, Value::UInt(ticks)))
                .collect(),
            ),
        ),
        ("timeline".to_string(), Value::Array(timeline)),
    ])
}

/// Render a postmortem bundle to pretty-printed JSON with a trailing
/// newline, matching the other exposition writers.
pub fn render_postmortem(
    source: &str,
    incidents: &[IncidentReport],
    causal: &CausalTracer,
) -> String {
    let bundle = postmortem_bundle(source, incidents, causal);
    let mut rendered = serde_json::to_string_pretty(&bundle).expect("postmortem bundle serializes");
    rendered.push('\n');
    rendered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{AttemptKind, AttemptSketch, RequestSketch, SketchOutcome};
    use crate::label::Fidelity;

    fn traced_request(id: u64, family: u32, deadline: u64) -> RequestSketch<'static> {
        RequestSketch {
            id,
            family,
            arrival: 5,
            deadline,
            decided_at: 5 + 9,
            outcome: SketchOutcome::Served {
                fidelity: Fidelity::Full,
                latency: 9,
                fallback: false,
            },
            attempts: &[AttemptSketch {
                replica: 1,
                kind: AttemptKind::Primary,
                enqueued: 5,
                base_work: 8,
                work: 8,
                rate: 8,
                completed: Some(14),
                won: true,
            }],
            gate: None,
            admitted: Some(Fidelity::Full),
            replicated: false,
            reclaimed: 0,
            refused_hedge: false,
            refused_failover: false,
        }
    }

    #[test]
    fn ring_is_bounded_and_snapshot_ordered() {
        let mut causal = CausalTracer::new();
        causal.record(&traced_request(999, 1, 100));
        for i in 0..(RING_CAPACITY as u64 + 10) {
            causal.record(&traced_request(i, 0, 100));
        }
        let mut rec = FlightRecorder::new();
        let captured = rec.trigger(
            causal.entries(),
            50,
            TriggerKind::ModeEscalation,
            900,
            "test".to_string(),
        );
        assert_eq!(captured, RING_CAPACITY as u64 + 1);
        let ids: Vec<u64> = rec.triggers()[0]
            .snapshot
            .iter()
            .map(|&pos| causal.entries()[pos].request)
            .collect();
        assert_eq!(ids[0], 10); // oldest surviving family-0 request
        assert_eq!(*ids.last().expect("non-empty"), 999);
    }

    #[test]
    fn finalize_joins_paths_and_windows() {
        let mut causal = CausalTracer::new();
        causal.record(&traced_request(1, 0, 4)); // deficit 5
        causal.record(&traced_request(2, 0, 2)); // deficit 7
        let mut rec = FlightRecorder::new();
        rec.trigger(
            causal.entries(),
            20,
            TriggerKind::ModeEscalation,
            912,
            "alert->emergency".to_string(),
        );
        let scores: Vec<u64> = (0..40).collect();
        let reports = rec.finalize(&causal, &scores);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.trigger_tick, 20);
        assert_eq!(r.warning_before, (4..20).collect::<Vec<u64>>());
        assert_eq!(r.warning_after, (20..36).collect::<Vec<u64>>());
        assert_eq!(r.involved_replicas, vec![1]);
        assert_eq!(r.snapshot_spans, causal.spans().len() as u64);
        assert_eq!(r.critical_paths.len(), 2);
        // Ranked by slack deficit descending.
        assert_eq!(r.critical_paths[0].request, 2);
        assert_eq!(r.critical_paths[1].request, 1);
    }

    #[test]
    fn snapshot_excludes_requests_decided_after_the_trigger() {
        let mut causal = CausalTracer::new();
        causal.record(&traced_request(1, 0, 4));
        let mut rec = FlightRecorder::new();
        rec.trigger(
            causal.entries(),
            9,
            TriggerKind::ModeEscalation,
            0,
            String::new(),
        );
        causal.record(&traced_request(2, 0, 2));
        let reports = rec.finalize(&causal, &[]);
        assert_eq!(rec.triggers()[0].snapshot, vec![0]);
        assert_eq!(reports[0].critical_paths.len(), 1);
        assert_eq!(reports[0].critical_paths[0].request, 1);
    }

    #[test]
    fn bundle_is_deterministic_and_labelled() {
        let mut causal = CausalTracer::new();
        causal.record(&traced_request(1, 0, 4));
        let mut rec = FlightRecorder::new();
        rec.trigger(
            causal.entries(),
            9,
            TriggerKind::CascadeOnset,
            0,
            "wave of 3".to_string(),
        );
        let reports = rec.finalize(&causal, &[]);
        let a = render_postmortem("test", &reports, &causal);
        let b = render_postmortem("test", &reports, &causal);
        assert_eq!(a, b);
        assert!(a.contains("\"resilience-incident/v1\""));
        assert!(a.contains("cascade-onset"));
        assert!(a.contains("\"outcome\": \"served:full:late\""));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn trigger_storm_is_bounded() {
        let mut rec = FlightRecorder::new();
        for t in 0..(MAX_TRIGGERS as u64 + 5) {
            assert_eq!(
                rec.trigger(&[], t, TriggerKind::TrialLoss, 0, String::new()),
                0
            );
        }
        assert_eq!(rec.triggers().len(), MAX_TRIGGERS);
        assert_eq!(rec.dropped(), 5);
    }
}
