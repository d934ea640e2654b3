//! Causal span trees on the logical tick clock.
//!
//! The event tracer ([`crate::trace`]) records *what* happened; this module
//! records *why a request was slow*. Engines emit one [`RequestSketch`] per
//! decided request — a compact record of the admission gate, every attempt
//! (primary / hedge / failover) with its enqueue tick, base and inflated
//! work, and the final disposition. The tracer expands each sketch into a
//! well-formed span tree (one root per request, parent ticks bracketing
//! children) and, for every deadline-missed or shed request, runs the
//! **critical-path extractor**: an exact integer decomposition of the
//! request's slack deficit into blame edges (queue wait, breaker-open
//! dwell, gray-inflated work, retry backoff, intrinsic work).
//!
//! Everything here is a pure function of the sketches, which are themselves
//! pure functions of the deterministic simulation — so span trees, blame
//! tables and the derived `critical_path_*` metric families are
//! byte-identical across thread budgets.

use crate::metrics::MetricsRegistry;

/// Bucket bounds for the `service_queue_wait_ticks` histogram (ticks a
/// winning attempt spent between enqueue and service start).
const QUEUE_WAIT_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// What a causal span represents in the request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root span: arrival to final disposition.
    Request,
    /// Admission-gate decision (zero-width, at the arrival tick).
    Admission,
    /// Primary attempt container.
    Primary,
    /// Hedge attempt container.
    Hedge,
    /// Failover attempt container.
    Failover,
    /// Ticks an attempt sat in the bulkhead queue before service.
    QueueWait,
    /// Ticks an attempt spent in service (draining work).
    Service,
    /// Cached-fallback resolution (zero-width, at the decision tick).
    Fallback,
}

impl SpanKind {
    /// Stable lowercase label used in exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Admission => "admission",
            SpanKind::Primary => "primary",
            SpanKind::Hedge => "hedge",
            SpanKind::Failover => "failover",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Service => "service",
            SpanKind::Fallback => "fallback",
        }
    }

    /// Whether this span is an attempt container (primary, hedge or
    /// failover), whose `replica` hosted the attempt.
    pub fn is_attempt(&self) -> bool {
        matches!(
            self,
            SpanKind::Primary | SpanKind::Hedge | SpanKind::Failover
        )
    }
}

/// One node of a causal span tree, on the logical tick clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalSpan {
    /// Deterministic id derived from (request, attempt, stage).
    pub span_id: u64,
    /// Parent span id; `0` marks the root.
    pub parent_id: u64,
    /// Request id this span belongs to.
    pub request: u64,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// First tick covered by the span.
    pub start: u64,
    /// Last tick covered by the span (`start <= end`).
    pub end: u64,
    /// Replica index that hosted the work (0 when unreplicated).
    pub replica: u32,
}

/// Blame edge names for the critical-path decomposition. The
/// declaration order is the canonical order: `edge as usize` indexes
/// [`BlameEdge::ALL`] and [`PathTotals::poles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlameEdge {
    /// Ticks waiting in a bulkhead queue.
    QueueWait,
    /// Ticks locked out behind an open circuit breaker.
    BreakerDwell,
    /// Extra service ticks from gray-failure work inflation.
    GrayInflation,
    /// Ticks between arrival and the winning attempt's enqueue
    /// (hedge/failover launch delay).
    RetryBackoff,
    /// Ticks the request's own base work needed at full rate.
    IntrinsicWork,
}

impl BlameEdge {
    /// Every edge, in canonical order.
    pub const ALL: [BlameEdge; 5] = [
        BlameEdge::QueueWait,
        BlameEdge::BreakerDwell,
        BlameEdge::GrayInflation,
        BlameEdge::RetryBackoff,
        BlameEdge::IntrinsicWork,
    ];

    /// Stable lowercase label used in exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            BlameEdge::QueueWait => "queue-wait",
            BlameEdge::BreakerDwell => "breaker-dwell",
            BlameEdge::GrayInflation => "gray-inflation",
            BlameEdge::RetryBackoff => "retry-backoff",
            BlameEdge::IntrinsicWork => "intrinsic-work",
        }
    }

    /// Snake-case name of the matching [`Blame`] field, used in metric
    /// family names and JSON keys.
    pub fn field(&self) -> &'static str {
        match self {
            BlameEdge::QueueWait => "queue_wait",
            BlameEdge::BreakerDwell => "breaker_dwell",
            BlameEdge::GrayInflation => "gray_inflation",
            BlameEdge::RetryBackoff => "retry_backoff",
            BlameEdge::IntrinsicWork => "intrinsic_work",
        }
    }
}

/// Exact integer decomposition of a slack deficit into blame edges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Blame {
    /// Ticks blamed on queue wait.
    pub queue_wait: u64,
    /// Ticks blamed on breaker-open dwell.
    pub breaker_dwell: u64,
    /// Ticks blamed on gray-inflated work.
    pub gray_inflation: u64,
    /// Ticks blamed on retry/hedge/failover backoff.
    pub retry_backoff: u64,
    /// Ticks blamed on the request's intrinsic work.
    pub intrinsic_work: u64,
}

impl Blame {
    /// Sum of all components; equals the critical path's slack deficit.
    pub fn total(&self) -> u64 {
        self.queue_wait
            + self.breaker_dwell
            + self.gray_inflation
            + self.retry_backoff
            + self.intrinsic_work
    }

    /// Ticks blamed on `edge`.
    pub fn get(&self, edge: BlameEdge) -> u64 {
        match edge {
            BlameEdge::QueueWait => self.queue_wait,
            BlameEdge::BreakerDwell => self.breaker_dwell,
            BlameEdge::GrayInflation => self.gray_inflation,
            BlameEdge::RetryBackoff => self.retry_backoff,
            BlameEdge::IntrinsicWork => self.intrinsic_work,
        }
    }

    fn add(&mut self, edge: BlameEdge, ticks: u64) {
        match edge {
            BlameEdge::QueueWait => self.queue_wait += ticks,
            BlameEdge::BreakerDwell => self.breaker_dwell += ticks,
            BlameEdge::GrayInflation => self.gray_inflation += ticks,
            BlameEdge::RetryBackoff => self.retry_backoff += ticks,
            BlameEdge::IntrinsicWork => self.intrinsic_work += ticks,
        }
    }
}

/// Critical path for one deadline-missed or shed request: which edge was
/// the longest pole, and an exact split of the slack deficit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Request id.
    pub request: u64,
    /// Request family (lane).
    pub family: u32,
    /// Tick the final disposition was recorded.
    pub decided_at: u64,
    /// Final disposition label (`shed:queue-full`, `served:full:late`, ...).
    pub outcome: String,
    /// Ticks past the effective deadline (or the modeled wait for sheds).
    pub slack_deficit: u64,
    /// Edge with the largest raw contribution.
    pub longest_pole: BlameEdge,
    /// Exact decomposition; `blame.total() == slack_deficit`.
    pub blame: Blame,
}

/// Whole-run sums over a tracer's critical paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathTotals {
    /// Blame per edge, summed over every path.
    pub blame: Blame,
    /// Summed slack deficit.
    pub slack_deficit: u64,
    /// How many paths had each edge as longest pole, in
    /// [`BlameEdge::ALL`] order.
    pub poles: [u64; 5],
}

/// Attempt kind, as seen by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// First routed attempt.
    Primary,
    /// Speculative duplicate launched by the hedger.
    Hedge,
    /// Replacement attempt after a replica failure.
    Failover,
}

impl AttemptKind {
    fn span_kind(&self) -> SpanKind {
        match self {
            AttemptKind::Primary => SpanKind::Primary,
            AttemptKind::Hedge => SpanKind::Hedge,
            AttemptKind::Failover => SpanKind::Failover,
        }
    }
}

/// One attempt's compact causal record, emitted by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptSketch {
    /// Replica index that hosted the attempt (0 when unreplicated).
    pub replica: u32,
    /// Primary, hedge, or failover.
    pub kind: AttemptKind,
    /// Tick the attempt entered the bulkhead queue.
    pub enqueued: u64,
    /// Work units before fault inflation (delay/gray).
    pub base_work: u64,
    /// Work units actually drained (after inflation).
    pub work: u64,
    /// Per-server drain rate of the hosting bulkhead.
    pub rate: u64,
    /// Tick the bulkhead retired the job; `None` if cancelled first.
    pub completed: Option<u64>,
    /// Whether this attempt produced the served response.
    pub won: bool,
}

/// Admission-gate evidence captured when a request is shed, so the
/// extractor can model the wait the gate refused to pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedGate {
    /// Every eligible breaker was open.
    BreakerOpen {
        /// Tick the (last) blocking breaker opened, when known.
        open_since: Option<u64>,
    },
    /// Every eligible queue was full.
    QueueFull {
        /// Total backlog across eligible bulkheads, in work units.
        backlog: u64,
        /// Aggregate drain rate (work units per tick).
        aggregate_rate: u64,
    },
    /// No fidelity could meet the deadline.
    DeadlineUnmeetable {
        /// Backlog ahead of the cheapest candidate, in work units.
        backlog: u64,
        /// Aggregate drain rate (work units per tick).
        aggregate_rate: u64,
        /// Cheapest candidate's work before inflation.
        base_work: u64,
        /// Cheapest candidate's work after inflation.
        work: u64,
    },
}

/// Final disposition of a sketched request. Labels are borrowed; the
/// tracer formats them only into the critical paths it keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchOutcome<'a> {
    /// Served (possibly degraded or via cached fallback).
    Served {
        /// Fidelity label (`full`, `reduced`, `cached`).
        fidelity: &'a str,
        /// Ticks from arrival to response.
        latency: u64,
        /// Whether a cached fallback resolved the request after a fault.
        fallback: bool,
    },
    /// Shed at admission.
    Shed {
        /// Shed cause label (`breaker-open`, `queue-full`, ...).
        reason: &'a str,
    },
    /// Failed after admission.
    Failed {
        /// Failure cause label (`backend-panic`, ...).
        cause: &'a str,
    },
}

/// Compact causal record for one decided request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSketch<'a> {
    /// Request id.
    pub id: u64,
    /// Request family (lane).
    pub family: u32,
    /// Arrival tick.
    pub arrival: u64,
    /// Effective deadline in ticks (after any brownout scaling).
    pub deadline: u64,
    /// Tick the final disposition was recorded.
    pub decided_at: u64,
    /// Final disposition.
    pub outcome: SketchOutcome<'a>,
    /// Attempts in launch order (empty for admission-time decisions).
    pub attempts: Vec<AttemptSketch>,
    /// Gate evidence, present iff the request was shed.
    pub gate: Option<ShedGate>,
    /// Fidelity label the request was admitted at; `None` when it was
    /// decided at arrival.
    pub admitted: Option<&'a str>,
    /// Whether the serve is replicated (only then is the primary's
    /// routing reported).
    pub replicated: bool,
    /// Work units reclaimed from losers cancelled by the winning attempt.
    pub reclaimed: u64,
    /// The retry budget refused a hedge (at arrival).
    pub refused_hedge: bool,
    /// The retry budget refused a failover (at the decision tick).
    pub refused_failover: bool,
}

/// One decided request's slice of the tracer's flat stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestEntry {
    /// Request id.
    pub request: u64,
    /// Request family (lane).
    pub family: u32,
    /// Offset of the request's spans in [`CausalTracer::spans`].
    pub span_start: usize,
    /// Number of spans the request owns.
    pub span_count: usize,
    /// Index into [`CausalTracer::paths`], when the request missed/shed.
    pub path: Option<usize>,
}

/// Deterministic causal tracer: accumulates span trees and critical paths
/// from engine-emitted sketches. It is the one per-request record: the
/// flight recorder reads its incident windows from [`CausalTracer::entries`].
#[derive(Debug, Clone, Default)]
pub struct CausalTracer {
    spans: Vec<CausalSpan>,
    paths: Vec<CriticalPath>,
    queue_waits: Vec<u64>,
    entries: Vec<RequestEntry>,
}

/// splitmix64 finalizer — the same mixer the core crate uses for seed
/// derivation, reproduced here to keep span ids a pure local function.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic span id from (request, attempt, stage), hashed after a
/// fixed leading 0 so ids stay stable across versions. Never returns 0,
/// which is reserved for "no parent".
pub fn span_id(request: u64, attempt: u64, stage: u64) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for v in [0, request, attempt, stage] {
        h = mix(h ^ v.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    }
    h | 1
}

impl CausalTracer {
    /// Fresh, empty tracer.
    pub fn new() -> Self {
        CausalTracer::default()
    }

    /// All spans, in request-decision order (tree nodes pre-order).
    pub fn spans(&self) -> &[CausalSpan] {
        &self.spans
    }

    /// All critical paths, in request-decision order.
    pub fn paths(&self) -> &[CriticalPath] {
        &self.paths
    }

    /// Every traced request, in decision order.
    pub fn entries(&self) -> &[RequestEntry] {
        &self.entries
    }

    /// Winning-attempt queue waits, one per request that ran an attempt.
    fn queue_waits(&self) -> &[u64] {
        &self.queue_waits
    }

    /// Number of requests traced.
    pub fn requests(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True when no sketches have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Blame, slack deficit and longest-pole counts summed over every
    /// critical path.
    pub fn totals(&self) -> PathTotals {
        let mut totals = PathTotals::default();
        for p in &self.paths {
            for edge in BlameEdge::ALL {
                totals.blame.add(edge, p.blame.get(edge));
            }
            totals.slack_deficit += p.slack_deficit;
            totals.poles[p.longest_pole as usize] += 1;
        }
        totals
    }

    /// Expand a sketch into its span tree, extract the critical path when
    /// the request missed its deadline or was shed, and append the
    /// request's entry.
    pub fn record(&mut self, sketch: &RequestSketch<'_>) {
        let span_start = self.spans.len();
        let id = sketch.id;
        let span = |span_id, parent_id, kind, start, end, replica| CausalSpan {
            span_id,
            parent_id,
            request: id,
            kind,
            start,
            end,
            replica,
        };
        let (latency, shed) = match sketch.outcome {
            SketchOutcome::Served { latency, .. } => (latency, false),
            SketchOutcome::Shed { .. } => (0, true),
            SketchOutcome::Failed { .. } => {
                (sketch.decided_at.saturating_sub(sketch.arrival), false)
            }
        };

        let (arrival, decided_at) = (sketch.arrival, sketch.decided_at);
        let root_id = span_id(id, u64::MAX, 0);
        self.spans
            .push(span(root_id, 0, SpanKind::Request, arrival, decided_at, 0));
        self.spans.push(span(
            span_id(id, u64::MAX, 1),
            root_id,
            SpanKind::Admission,
            arrival,
            arrival,
            0,
        ));
        for (i, attempt) in sketch.attempts.iter().enumerate() {
            let (ix, enqueued, replica) = (i as u64, attempt.enqueued, attempt.replica);
            let container_id = span_id(id, ix, 2);
            let end = attempt.completed.unwrap_or(decided_at);
            let kind = attempt.kind.span_kind();
            self.spans
                .push(span(container_id, root_id, kind, enqueued, end, replica));
            // A completed attempt queued until its service ticks began; a
            // cancelled one queued until the decision.
            let queued_until = match attempt.completed {
                Some(completed) => {
                    let svc_ticks = attempt.work.div_ceil(attempt.rate.max(1)).max(1);
                    completed.saturating_sub(svc_ticks).max(enqueued)
                }
                None => end,
            };
            self.spans.push(span(
                span_id(id, ix, 3),
                container_id,
                SpanKind::QueueWait,
                enqueued,
                queued_until,
                replica,
            ));
            if let Some(completed) = attempt.completed {
                self.spans.push(span(
                    span_id(id, ix, 4),
                    container_id,
                    SpanKind::Service,
                    queued_until,
                    completed,
                    replica,
                ));
            }
        }
        // A cached answer after attempts ran is the fallback for a dead
        // backend; an admission-time cached answer has no fallback span.
        if matches!(sketch.outcome, SketchOutcome::Served { fallback: true, .. })
            && !sketch.attempts.is_empty()
        {
            self.spans.push(span(
                span_id(id, u64::MAX, 5),
                root_id,
                SpanKind::Fallback,
                decided_at,
                decided_at,
                0,
            ));
        }

        if let Some(w) = winning_attempt(sketch) {
            let svc_ticks = w.work.div_ceil(w.rate.max(1)).max(1);
            let total = decided_at.saturating_sub(arrival);
            let retry = w.enqueued.saturating_sub(arrival);
            self.queue_waits
                .push(total.saturating_sub(retry + svc_ticks));
        }

        let path = (shed || latency > sketch.deadline).then(|| {
            let (deficit, blame, pole) = decompose(sketch, latency);
            self.paths.push(CriticalPath {
                request: id,
                family: sketch.family,
                decided_at,
                outcome: match sketch.outcome {
                    SketchOutcome::Served {
                        fidelity,
                        fallback: true,
                        ..
                    } => format!("served:{fidelity}:fallback:late"),
                    SketchOutcome::Served { fidelity, .. } => format!("served:{fidelity}:late"),
                    SketchOutcome::Shed { reason } => format!("shed:{reason}"),
                    SketchOutcome::Failed { cause } => format!("failed:{cause}"),
                },
                slack_deficit: deficit,
                longest_pole: pole,
                blame,
            });
            self.paths.len() - 1
        });

        self.entries.push(RequestEntry {
            request: id,
            family: sketch.family,
            span_start,
            span_count: self.spans.len() - span_start,
            path,
        });
    }
}

/// The attempt that decided the request: the winner if any, else the last
/// completed attempt, else the last attempt.
fn winning_attempt<'s>(sketch: &'s RequestSketch<'_>) -> Option<&'s AttemptSketch> {
    sketch
        .attempts
        .iter()
        .find(|a| a.won)
        .or_else(|| sketch.attempts.iter().rev().find(|a| a.completed.is_some()))
        .or_else(|| sketch.attempts.last())
}

/// Exact blame decomposition for a missed/shed request. Returns
/// `(slack_deficit, blame, longest_pole)` with `blame.total() == deficit`.
fn decompose(sketch: &RequestSketch<'_>, latency: u64) -> (u64, Blame, BlameEdge) {
    // Raw edge magnitudes in canonical order:
    // [queue, breaker, gray, retry, intrinsic].
    let mut raw = [0u64; 5];
    let deficit;
    match (&sketch.gate, winning_attempt(sketch)) {
        (Some(ShedGate::BreakerOpen { open_since }), _) => {
            let dwell = sketch
                .decided_at
                .saturating_sub(open_since.unwrap_or(sketch.decided_at))
                .max(1);
            deficit = dwell;
            raw[1] = dwell;
        }
        (
            Some(ShedGate::QueueFull {
                backlog,
                aggregate_rate,
            }),
            _,
        ) => {
            let wait = backlog.div_ceil((*aggregate_rate).max(1)).max(1);
            deficit = wait;
            raw[0] = wait;
        }
        (
            Some(ShedGate::DeadlineUnmeetable {
                backlog,
                aggregate_rate,
                base_work,
                work,
            }),
            _,
        ) => {
            let agg = (*aggregate_rate).max(1);
            let est = (backlog + work).div_ceil(agg);
            deficit = est.saturating_sub(sketch.deadline).max(1);
            let svc = work.div_ceil(agg);
            let base = base_work.div_ceil(agg);
            raw[0] = backlog.div_ceil(agg);
            raw[2] = svc.saturating_sub(base);
            raw[4] = base;
        }
        (None, Some(w)) => {
            deficit = latency.saturating_sub(sketch.deadline).max(1);
            let svc_total = w.work.div_ceil(w.rate.max(1)).max(1);
            let base_svc = w.base_work.div_ceil(w.rate.max(1)).max(1);
            raw[3] = w.enqueued.saturating_sub(sketch.arrival);
            raw[2] = svc_total.saturating_sub(base_svc);
            raw[4] = base_svc;
            raw[0] = latency.saturating_sub(raw[3] + svc_total);
        }
        // Defensive: shed without gate evidence, or a miss with no
        // attempts. Blame the request's own work.
        _ => {
            deficit = latency.saturating_sub(sketch.deadline).max(1);
            raw[4] = deficit;
        }
    }

    // Longest pole: largest raw magnitude, canonical order breaking ties.
    let mut pole = BlameEdge::IntrinsicWork;
    let mut best = 0u64;
    for (i, &r) in raw.iter().enumerate() {
        if r > best {
            best = r;
            pole = BlameEdge::ALL[i];
        }
    }
    // Greedy exact assignment: charge edges in descending raw order until
    // the deficit is covered. Σraw >= deficit by construction for every
    // gate above; any defensive residue lands on intrinsic work so the
    // components always sum exactly to the deficit.
    let mut order: Vec<usize> = (0..5).collect();
    order.sort_by(|&a, &b| raw[b].cmp(&raw[a]).then(a.cmp(&b)));
    let mut blame = Blame::default();
    let mut remaining = deficit;
    for &i in &order {
        let take = raw[i].min(remaining);
        if take > 0 {
            blame.add(BlameEdge::ALL[i], take);
            remaining -= take;
        }
    }
    if remaining > 0 {
        blame.add(BlameEdge::IntrinsicWork, remaining);
    }
    (deficit, blame, pole)
}

/// Help-text phrases per edge, in [`BlameEdge::ALL`] order: what the
/// edge's blamed ticks measure, and what a path with it as longest pole
/// was held up by.
const EDGE_HELP: [(&str, &str); 5] = [
    ("bulkhead queue wait", "queue wait"),
    ("breaker-open dwell", "breaker-open dwell"),
    ("gray-failure work inflation", "gray work inflation"),
    ("hedge/failover launch delay", "retry backoff"),
    ("the request's own base work", "intrinsic work"),
];

/// Register the `critical_path_*` families and the queue-wait histogram
/// from an accumulated tracer. Called by the engines at end of run when
/// causal tracing was active, so the families are always present (possibly
/// zero) in traced expositions.
pub fn record_causal_metrics(registry: &mut MetricsRegistry, causal: &CausalTracer) {
    let totals = causal.totals();
    registry.inc_counter(
        "critical_path_requests_total",
        "Requests that missed their deadline or were shed, with an extracted critical path",
        causal.paths().len() as u64,
    );
    registry.inc_counter(
        "critical_path_slack_deficit_ticks_total",
        "Total slack deficit across all critical paths, in ticks",
        totals.slack_deficit,
    );
    for (edge, (blamed, pole)) in BlameEdge::ALL.into_iter().zip(EDGE_HELP) {
        registry.inc_counter(
            &format!("critical_path_{}_ticks_total", edge.field()),
            &format!("Slack-deficit ticks blamed on {blamed}"),
            totals.blame.get(edge),
        );
        registry.inc_counter(
            &format!("critical_path_pole_{}_total", edge.field()),
            &format!("Critical paths whose longest pole was {pole}"),
            totals.poles[edge as usize],
        );
    }
    for qw in causal.queue_waits() {
        registry.observe(
            "service_queue_wait_ticks",
            "Ticks winning attempts spent queued before service",
            &QUEUE_WAIT_BOUNDS,
            *qw as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served_sketch() -> RequestSketch<'static> {
        RequestSketch {
            id: 7,
            family: 1,
            arrival: 10,
            deadline: 4,
            decided_at: 19,
            outcome: SketchOutcome::Served {
                fidelity: "full",
                latency: 9,
                fallback: false,
            },
            attempts: vec![AttemptSketch {
                replica: 0,
                kind: AttemptKind::Primary,
                enqueued: 10,
                base_work: 8,
                work: 24,
                rate: 8,
                completed: Some(19),
                won: true,
            }],
            gate: None,
            admitted: Some("full"),
            replicated: false,
            reclaimed: 0,
            refused_hedge: false,
            refused_failover: false,
        }
    }

    #[test]
    fn span_tree_is_well_formed() {
        let mut tracer = CausalTracer::new();
        tracer.record(&served_sketch());
        let spans = tracer.spans();
        let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].kind, SpanKind::Request);
        for s in spans {
            assert!(s.start <= s.end, "span {s:?} inverted");
            if s.parent_id != 0 {
                let parent = spans
                    .iter()
                    .find(|p| p.span_id == s.parent_id)
                    .expect("parent exists");
                assert!(parent.start <= s.start && s.end <= parent.end);
            }
        }
    }

    #[test]
    fn blame_sums_to_deficit_for_late_request() {
        let mut tracer = CausalTracer::new();
        tracer.record(&served_sketch());
        let path = &tracer.paths()[0];
        assert_eq!(path.slack_deficit, 9 - 4);
        assert_eq!(path.blame.total(), path.slack_deficit);
        // 24 work at rate 8 = 3 service ticks, 8 base work = 1 tick, so
        // gray inflated by 2; queue wait = 9 - 0 - 3 = 6 -> longest pole.
        assert_eq!(path.longest_pole, BlameEdge::QueueWait);
        assert_eq!(path.blame.queue_wait, 5);
    }

    #[test]
    fn shed_gates_yield_exact_paths() {
        let mut tracer = CausalTracer::new();
        let mut s = served_sketch();
        s.id = 8;
        s.attempts.clear();
        s.decided_at = 10;
        s.outcome = SketchOutcome::Shed {
            reason: "queue-full",
        };
        s.gate = Some(ShedGate::QueueFull {
            backlog: 33,
            aggregate_rate: 16,
        });
        tracer.record(&s);
        let path = &tracer.paths()[0];
        assert_eq!(path.slack_deficit, 3); // ceil(33/16)
        assert_eq!(path.blame.queue_wait, 3);
        assert_eq!(path.longest_pole, BlameEdge::QueueWait);
        assert_eq!(path.blame.total(), path.slack_deficit);
    }

    #[test]
    fn breaker_shed_blames_dwell() {
        let mut tracer = CausalTracer::new();
        let mut s = served_sketch();
        s.id = 9;
        s.attempts.clear();
        s.decided_at = 42;
        s.outcome = SketchOutcome::Shed {
            reason: "breaker-open",
        };
        s.gate = Some(ShedGate::BreakerOpen {
            open_since: Some(30),
        });
        tracer.record(&s);
        let path = &tracer.paths()[0];
        assert_eq!(path.slack_deficit, 12);
        assert_eq!(path.blame.breaker_dwell, 12);
        assert_eq!(path.longest_pole, BlameEdge::BreakerDwell);
    }

    #[test]
    fn entries_keep_decision_order_and_paths_carry_labels() {
        let mut tracer = CausalTracer::new();
        let mut s = served_sketch();
        tracer.record(&s);
        s.id = 8;
        s.outcome = SketchOutcome::Served {
            fidelity: "cached",
            latency: 9,
            fallback: true,
        };
        tracer.record(&s);
        s.id = 3;
        s.outcome = SketchOutcome::Failed {
            cause: "backend-panic",
        };
        tracer.record(&s);
        s.id = 10;
        s.deadline = 100;
        s.outcome = SketchOutcome::Served {
            fidelity: "full",
            latency: 9,
            fallback: false,
        };
        tracer.record(&s);
        let ids: Vec<u64> = tracer.entries().iter().map(|e| e.request).collect();
        assert_eq!(ids, [7, 8, 3, 10]);
        assert_eq!(tracer.entries()[3].path, None);
        let labels: Vec<&str> = tracer.paths().iter().map(|p| p.outcome.as_str()).collect();
        assert_eq!(
            labels,
            [
                "served:full:late",
                "served:cached:fallback:late",
                "failed:backend-panic"
            ]
        );
        let fallback: Vec<u64> = tracer
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Fallback)
            .map(|s| s.request)
            .collect();
        assert_eq!(fallback, [8]);
    }

    #[test]
    fn metrics_fold_every_path() {
        let mut tracer = CausalTracer::new();
        tracer.record(&served_sketch()); // queue wait 5
        let mut s = served_sketch();
        s.id = 9;
        s.attempts.clear();
        s.decided_at = 42;
        s.outcome = SketchOutcome::Shed {
            reason: "breaker-open",
        };
        s.gate = Some(ShedGate::BreakerOpen {
            open_since: Some(30),
        });
        tracer.record(&s); // breaker dwell 12
        let totals = tracer.totals();
        assert_eq!(totals.slack_deficit, 17);
        assert_eq!(totals.blame.total(), 17);
        let mut reg = MetricsRegistry::new();
        record_causal_metrics(&mut reg, &tracer);
        let prom = reg.to_prometheus();
        for line in [
            "critical_path_requests_total 2",
            "critical_path_slack_deficit_ticks_total 17",
            "critical_path_queue_wait_ticks_total 5",
            "critical_path_breaker_dwell_ticks_total 12",
            "critical_path_pole_queue_wait_total 1",
            "critical_path_pole_breaker_dwell_total 1",
            "critical_path_pole_intrinsic_work_total 0",
            "# HELP critical_path_retry_backoff_ticks_total Slack-deficit ticks blamed on hedge/failover launch delay",
        ] {
            assert!(prom.lines().any(|l| l == line), "missing `{line}`");
        }
    }

    #[test]
    fn span_ids_are_deterministic_and_nonzero() {
        assert_eq!(span_id(1, 2, 3), span_id(1, 2, 3));
        assert_ne!(span_id(1, 2, 3), span_id(1, 2, 4));
        assert_ne!(span_id(1, 2, 3), 0);
    }

    #[test]
    fn metrics_families_register_even_when_quiet() {
        let mut tracer = CausalTracer::new();
        let mut s = served_sketch();
        s.deadline = 100; // not missed
        tracer.record(&s);
        let mut reg = MetricsRegistry::new();
        record_causal_metrics(&mut reg, &tracer);
        let prom = reg.to_prometheus();
        assert!(prom.contains("critical_path_requests_total 0"));
        assert!(prom.contains("service_queue_wait_ticks_bucket"));
    }
}
