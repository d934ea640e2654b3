//! Telemetry derivation from supervised-runtime reports.
//!
//! The supervised runtime executes each attempt round on several worker
//! threads, so emitting trace events *live* from inside an attempt
//! would bake scheduling noise into the trace. Instead the runtime
//! retains its logical knowledge base — the attempt log, sorted by
//! `(attempt, trial)` — on the [`RunReport`], and this module replays
//! it after the fact: every retry, plan, and loss event is stamped with
//! the attempt number as its logical tick. The derivation is a pure
//! function of the report, so the trace is bit-identical for any thread
//! budget by construction.

use resilience_core::faults::RunReport;

use crate::metrics::MetricsRegistry;
use crate::trace::{Event, PlanAction, Tracer};
use crate::trajectory::TrajectoryObserver;

/// Replay `report`'s attempt log into `tracer`: one lane per stream
/// segment (lane = segment index + 1; lane 0 stays reserved for the
/// caller), tick = attempt number.
///
/// Quiet attempts (first try, succeeded) emit nothing — they are the
/// overwhelmingly common case and belong in the metrics, not the
/// trace. Emitted events:
///
/// * [`Event::SupervisorPlan`] for every failed attempt — `Retry` if a
///   later attempt of the trial exists in the log, else `GiveUp`;
/// * [`Event::TrialRetried`] for every attempt with `attempt > 0` (a
///   re-dispatch actually executing);
/// * [`Event::TrialLost`] when a trial's terminal failure is
///   adjudicated.
pub fn record_run_events(tracer: &mut Tracer, report: &RunReport) {
    for (seg_idx, segment) in report.segments.iter().enumerate() {
        let mut buf = tracer.lane_buffer(seg_idx as u32 + 1);
        // Which (attempt, trial) pairs exist, to distinguish a failure
        // that was retried from a terminal one. The log is sorted by
        // `(attempt, trial)`, so a sorted key vector built in one pass
        // beats a tree set rebuilt from 50k inserts.
        let keys: Vec<(u32, u64)> = segment.log.iter().map(|r| (r.attempt, r.trial)).collect();
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let mut failures: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        for rec in &segment.log {
            let tick = rec.attempt as u64;
            if rec.attempt > 0 {
                buf.record(
                    tick,
                    Event::TrialRetried {
                        trial: rec.trial,
                        attempt: rec.attempt,
                    },
                );
            }
            if !rec.ok {
                let count = failures.entry(rec.trial).or_insert(0);
                *count += 1;
                let retried = keys.binary_search(&(rec.attempt + 1, rec.trial)).is_ok();
                buf.record(
                    tick,
                    Event::SupervisorPlan {
                        trial: rec.trial,
                        failures: *count,
                        action: if retried {
                            PlanAction::Retry
                        } else {
                            PlanAction::GiveUp
                        },
                    },
                );
                if !retried && segment.lost.binary_search(&rec.trial).is_ok() {
                    let cause = report
                        .lost
                        .iter()
                        .find(|l| l.trial == rec.trial)
                        .map(|l| l.cause.to_string())
                        .unwrap_or_else(|| "unknown".to_string());
                    buf.record(
                        tick,
                        Event::TrialLost {
                            trial: rec.trial,
                            cause,
                        },
                    );
                }
            }
        }
        tracer.absorb(buf);
    }
}

/// Fold `report`'s aggregates into `registry` under the `runtime_`
/// metric family.
pub fn record_run_metrics(registry: &mut MetricsRegistry, report: &RunReport) {
    registry.inc_counter(
        "runtime_trials_total",
        "Trial slots supervised",
        report.trials,
    );
    registry.inc_counter(
        "runtime_attempts_total",
        "Attempts executed (retries included)",
        report.attempts,
    );
    registry.inc_counter(
        "runtime_faults_injected_total",
        "Attempts on which the fault plan fired",
        report.faults_injected,
    );
    registry.inc_counter(
        "runtime_trials_recovered_total",
        "Trials that failed at least once but completed",
        report.recovered,
    );
    registry.inc_counter(
        "runtime_trials_lost_total",
        "Trials abandoned after exhausting the retry budget",
        report.lost.len() as u64,
    );
    registry.add_gauge(
        "runtime_resilience_loss",
        "Bruneau R of the runtime's own health trajectory",
        report.resilience_loss(),
    );
}

/// Rebuild the report's health trajectory as a [`TrajectoryObserver`],
/// attributing each sample's deficit to [`Retry`] (unhealthy trials the
/// supervisor will re-dispatch) vs [`Failed`] (trials lost for good).
/// The observed quality samples are bit-identical to `report.health`.
///
/// [`Retry`]: crate::trajectory::DeficitCause::Retry
/// [`Failed`]: crate::trajectory::DeficitCause::Failed
pub fn trajectory_of_run(report: &RunReport) -> TrajectoryObserver {
    let mut obs = TrajectoryObserver::new(report.health.dt());
    for segment in &report.segments {
        // Mirror `health_from_log`: a leading full-quality sample, then
        // one sample per adjudicated attempt.
        obs.push_full();
        if segment.trials == 0 {
            continue;
        }
        let mut unhealthy: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        // Count lost-and-unhealthy incrementally on set transitions:
        // re-deriving it from the full set every record is quadratic in
        // the failure count under a chaos plan.
        let mut lost_unhealthy: u64 = 0;
        for rec in &segment.log {
            if rec.ok {
                if unhealthy.remove(&rec.trial) && segment.lost.binary_search(&rec.trial).is_ok() {
                    lost_unhealthy -= 1;
                }
            } else if unhealthy.insert(rec.trial) && segment.lost.binary_search(&rec.trial).is_ok()
            {
                lost_unhealthy += 1;
            }
            obs.push_health(
                segment.trials - unhealthy.len() as u64,
                lost_unhealthy,
                segment.trials,
            );
        }
    }
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::DeficitCause;
    use resilience_core::faults::{AttemptRecord, AttemptSegment, FailureCause, LostTrial};

    fn rec(trial: u64, attempt: u32, ok: bool) -> AttemptRecord {
        AttemptRecord { trial, attempt, ok }
    }

    fn sample_report() -> RunReport {
        let mut report = RunReport::new("test");
        report.trials = 4;
        report.attempts = 7;
        report.recovered = 1;
        report.lost = vec![LostTrial {
            stream: 9,
            trial: 2,
            cause: FailureCause::Panicked,
            detail: "boom".to_string(),
        }];
        let mut log = vec![
            rec(0, 0, true),
            rec(1, 0, false),
            rec(2, 0, false),
            rec(3, 0, true),
            rec(1, 1, true),
            rec(2, 1, false),
        ];
        report.health = RunReport::health_from_log(4, &mut log);
        report.segments = vec![AttemptSegment {
            trials: 4,
            log,
            lost: vec![2],
        }];
        report
    }

    #[test]
    fn events_cover_retries_plans_and_losses() {
        let report = sample_report();
        let mut tracer = Tracer::new();
        record_run_events(&mut tracer, &report);
        let events: Vec<Event> = tracer.merged().into_iter().map(|e| e.event).collect();
        assert!(events.contains(&Event::TrialRetried {
            trial: 1,
            attempt: 1
        }));
        assert!(events.contains(&Event::SupervisorPlan {
            trial: 1,
            failures: 1,
            action: PlanAction::Retry
        }));
        assert!(events.contains(&Event::SupervisorPlan {
            trial: 2,
            failures: 2,
            action: PlanAction::GiveUp
        }));
        assert!(events.contains(&Event::TrialLost {
            trial: 2,
            cause: "panicked".to_string()
        }));
        // Quiet attempts (trials 0 and 3) emit nothing.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn trajectory_matches_report_health_bitwise() {
        let report = sample_report();
        let obs = trajectory_of_run(&report);
        assert_eq!(obs.quality(), &report.health);
        let attr = obs.attribution();
        let sum = attr.components_sum();
        assert!((sum - attr.total).abs() <= 1e-9 * attr.total.max(1.0));
        assert!(attr.failed > 0.0, "lost trial must charge `failed`");
        assert!(attr.retry > 0.0, "recovered trial must charge `retry`");
        assert_eq!(
            obs.cause_series(DeficitCause::Shed).iter().sum::<f64>(),
            0.0
        );
    }

    #[test]
    fn metrics_accumulate_across_reports() {
        let report = sample_report();
        let mut reg = MetricsRegistry::new();
        record_run_metrics(&mut reg, &report);
        record_run_metrics(&mut reg, &report);
        let prom = reg.to_prometheus();
        assert!(prom.contains("runtime_trials_total 8"));
        assert!(prom.contains("runtime_trials_lost_total 2"));
    }
}
