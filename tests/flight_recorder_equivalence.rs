//! Equivalence suite for the flight recorder's snapshot rule.
//!
//! The recorder used to keep its own per-family rings of the last
//! `RING_CAPACITY` decided request ids, fed one id per decided request,
//! and joined each snapshot against the causal tracer by request id. It
//! now reads the same window out of the tracer's decision-ordered
//! entries. The old rule is written out below as a reference, with its
//! id-keyed join rebuilt from the sketches, and the recorder must match
//! it on random decision streams: the `captured` count of every trigger,
//! every snapshot, and every field of every incident report, with more
//! triggers than `MAX_TRIGGERS` so the dropped count is exercised too.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;
use systems_resilience::telemetry::causal::{
    AttemptKind, AttemptSketch, RequestSketch, ShedGate, SketchOutcome,
};
use systems_resilience::telemetry::incident::{
    FlightRecorder, TriggerKind, MAX_TRIGGERS, RING_CAPACITY, TOP_K, WARNING_WINDOW,
};
use systems_resilience::telemetry::{CausalTracer, CriticalPath, Fidelity, ShedReason};

/// The old recorder: bounded per-family rings of request ids, snapshot
/// in family order then age order.
#[derive(Default)]
struct RingRecorder {
    rings: BTreeMap<u32, VecDeque<u64>>,
    triggers: Vec<(u64, Vec<u64>)>,
    dropped: u64,
}

impl RingRecorder {
    fn observe(&mut self, family: u32, request: u64) {
        let ring = self.rings.entry(family).or_default();
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(request);
    }

    fn trigger(&mut self, tick: u64) -> u64 {
        if self.triggers.len() >= MAX_TRIGGERS {
            self.dropped += 1;
            return 0;
        }
        let snapshot: Vec<u64> = self.rings.values().flatten().copied().collect();
        let captured = snapshot.len() as u64;
        self.triggers.push((tick, snapshot));
        captured
    }
}

/// What the old id-keyed index held per request.
struct IndexEntry {
    span_count: u64,
    path: Option<CriticalPath>,
    replicas: Vec<u32>,
}

/// One reference incident report, field for field.
#[derive(Debug, PartialEq)]
struct RefReport {
    trigger_tick: u64,
    warning_before: Vec<u64>,
    warning_after: Vec<u64>,
    involved_replicas: Vec<u32>,
    snapshot_spans: u64,
    critical_paths: Vec<CriticalPath>,
}

/// The old finalize: join each snapshot by request id.
fn ring_finalize(
    rings: &RingRecorder,
    index: &BTreeMap<u64, IndexEntry>,
    scores: &[u64],
) -> Vec<RefReport> {
    rings
        .triggers
        .iter()
        .map(|(tick, snapshot)| {
            let t = *tick as usize;
            let lo = t.saturating_sub(WARNING_WINDOW).min(scores.len());
            let mid = t.min(scores.len());
            let hi = t.saturating_add(WARNING_WINDOW).min(scores.len());
            let mut paths: Vec<CriticalPath> = snapshot
                .iter()
                .filter_map(|id| index[id].path.clone())
                .collect();
            paths.sort_by(|a, b| {
                b.slack_deficit
                    .cmp(&a.slack_deficit)
                    .then(a.request.cmp(&b.request))
            });
            paths.truncate(TOP_K);
            let mut replicas: Vec<u32> = Vec::new();
            let mut snapshot_spans = 0u64;
            for id in snapshot {
                snapshot_spans += index[id].span_count;
                for r in &index[id].replicas {
                    if !replicas.contains(r) {
                        replicas.push(*r);
                    }
                }
            }
            replicas.sort_unstable();
            RefReport {
                trigger_tick: *tick,
                warning_before: scores[lo..mid].to_vec(),
                warning_after: scores[mid..hi].to_vec(),
                involved_replicas: replicas,
                snapshot_spans,
                critical_paths: paths,
            }
        })
        .collect()
}

/// Raw draws for one request: family, outcome selector, latency,
/// deadline, and up to three attempts as (replica, completed, won).
type ReqDraw = ((u32, u8), u64, u64, Vec<(u32, bool, bool)>);

/// Build a sketch from its draws, its attempts written to `buf`. Ids come
/// from an odd multiplier, a bijection on `u64`, so they are unique but
/// not in decision order.
fn sketch<'a>(
    position: usize,
    salt: u64,
    draw: &ReqDraw,
    buf: &'a mut Vec<AttemptSketch>,
) -> RequestSketch<'a> {
    let ((family, selector), latency, deadline, attempts) = draw;
    let id = (position as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    let arrival = position as u64;
    let decided_at = arrival + latency;
    let (outcome, gate) = match selector % 4 {
        0 => (
            SketchOutcome::Shed {
                reason: ShedReason::QueueFull,
            },
            Some(ShedGate::QueueFull {
                backlog: *latency * 8,
                aggregate_rate: 8,
            }),
        ),
        1 => (
            SketchOutcome::Failed {
                cause: "backend-panic",
            },
            None,
        ),
        s => (
            SketchOutcome::Served {
                fidelity: if s == 2 {
                    Fidelity::Full
                } else {
                    Fidelity::Cached
                },
                latency: *latency,
                fallback: s == 3,
            },
            None,
        ),
    };
    buf.clear();
    if gate.is_none() {
        let attempts = attempts
            .iter()
            .enumerate()
            .map(|(i, &(replica, completed, won))| AttemptSketch {
                replica,
                kind: [
                    AttemptKind::Primary,
                    AttemptKind::Hedge,
                    AttemptKind::Failover,
                ][i],
                enqueued: arrival + i as u64,
                base_work: 8,
                work: 8 + 8 * u64::from(replica),
                rate: 8,
                completed: completed.then_some(decided_at),
                won,
            });
        buf.extend(attempts);
    }
    RequestSketch {
        id,
        family: *family,
        arrival,
        deadline: *deadline,
        decided_at,
        outcome,
        attempts: buf,
        gate,
        admitted: gate.is_none().then_some(Fidelity::Full),
        replicated: false,
        reclaimed: 0,
        refused_hedge: false,
        refused_failover: false,
    }
}

fn req_draw() -> impl Strategy<Value = ReqDraw> {
    (
        (0u32..5, any::<u8>()),
        0u64..12,
        0u64..8,
        proptest::collection::vec((0u32..4, any::<bool>(), any::<bool>()), 0..=3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Triggers fired between random decisions capture the same window
    /// and finalize to the same reports as the deleted ring rule.
    #[test]
    fn tracer_window_matches_the_ring_rule(
        draws in proptest::collection::vec(req_draw(), 0..400),
        trigger_at in proptest::collection::vec(0usize..400, 0..(MAX_TRIGGERS + 12)),
        salt in any::<u64>(),
        scores in proptest::collection::vec(0u64..1000, 0..500),
    ) {
        let mut trigger_at = trigger_at;
        trigger_at.sort_unstable();
        let mut causal = CausalTracer::new();
        let mut recorder = FlightRecorder::new();
        let mut rings = RingRecorder::default();
        let mut index = BTreeMap::new();
        let mut pending = trigger_at.iter().peekable();
        for position in 0..=draws.len() {
            // Triggers scheduled at or before this position fire first.
            while let Some(&&at) = pending.peek() {
                if at > position && position < draws.len() {
                    break;
                }
                pending.next();
                let tick = at as u64;
                let captured = recorder.trigger(
                    causal.entries(),
                    tick,
                    TriggerKind::ModeEscalation,
                    tick * 3,
                    format!("at {at}"),
                );
                prop_assert_eq!(captured, rings.trigger(tick));
            }
            let Some(draw) = draws.get(position) else { break };
            let mut buf = Vec::new();
            let s = sketch(position, salt, draw, &mut buf);
            let spans_before = causal.spans().len();
            let paths_before = causal.paths().len();
            causal.record(&s);
            rings.observe(s.family, s.id);
            let mut replicas: Vec<u32> = s.attempts.iter().map(|a| a.replica).collect();
            replicas.sort_unstable();
            replicas.dedup();
            index.insert(
                s.id,
                IndexEntry {
                    span_count: (causal.spans().len() - spans_before) as u64,
                    path: causal.paths()[paths_before..].first().cloned(),
                    replicas,
                },
            );
        }

        prop_assert_eq!(recorder.dropped(), rings.dropped);
        prop_assert_eq!(recorder.triggers().len(), rings.triggers.len());
        for (t, (_, ids)) in recorder.triggers().iter().zip(&rings.triggers) {
            let snapshot: Vec<u64> =
                t.snapshot.iter().map(|&pos| causal.entries()[pos].request).collect();
            prop_assert_eq!(&snapshot, ids);
        }
        let reports = recorder.finalize(&causal, &scores);
        let expected = ring_finalize(&rings, &index, &scores);
        prop_assert_eq!(reports.len(), expected.len());
        for ((got, want), t) in reports.iter().zip(&expected).zip(recorder.triggers()) {
            prop_assert_eq!(got.kind, TriggerKind::ModeEscalation);
            prop_assert_eq!(got.score_milli, t.tick * 3);
            prop_assert_eq!(&got.detail, &format!("at {}", t.tick));
            let got = RefReport {
                trigger_tick: got.trigger_tick,
                warning_before: got.warning_before.clone(),
                warning_after: got.warning_after.clone(),
                involved_replicas: got.involved_replicas.clone(),
                snapshot_spans: got.snapshot_spans,
                critical_paths: got.critical_paths.clone(),
            };
            prop_assert_eq!(&got, want);
        }
    }
}

/// A long single-family stream overflows the window: only the last
/// `RING_CAPACITY` requests are captured, oldest first.
#[test]
fn window_keeps_the_newest_requests_per_family() {
    let mut causal = CausalTracer::new();
    let mut rings = RingRecorder::default();
    for position in 0..(3 * RING_CAPACITY) {
        let draw: ReqDraw = (((position % 2) as u32, 2), 1, 4, vec![(0, true, true)]);
        let mut buf = Vec::new();
        let s = sketch(position, 7, &draw, &mut buf);
        causal.record(&s);
        rings.observe(s.family, s.id);
    }
    let mut recorder = FlightRecorder::new();
    let captured = recorder.trigger(
        causal.entries(),
        1,
        TriggerKind::CascadeOnset,
        0,
        String::new(),
    );
    assert_eq!(captured, rings.trigger(1));
    assert_eq!(captured, 2 * RING_CAPACITY as u64);
    let snapshot: Vec<u64> = recorder.triggers()[0]
        .snapshot
        .iter()
        .map(|&pos| causal.entries()[pos].request)
        .collect();
    assert_eq!(snapshot, rings.triggers[0].1);
}
