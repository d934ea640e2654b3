//! Deriving telemetry expositions from a [`ClusterReport`].
//!
//! The engine's report is the single source of truth; the tracer and
//! metrics views are pure functions of it. Because the report itself is
//! bit-identical across thread budgets, so is every exposition derived
//! here — the property `tests/cluster_telemetry.rs` pins.

use crate::engine::ClusterReport;
use resilience_telemetry::{Event, FlightRecorder, MetricsRegistry, Tracer, TriggerKind};

/// Convert load units to the integer milli-units the trace schema
/// carries (the streamed JSON writer is integer-only by design).
fn milli(x: f64) -> u64 {
    (x * 1000.0).round().max(0.0) as u64
}

/// Record a run's cascade history plus recovery/burn summaries into a
/// tracer lane. Events land on the ticks they happened on; the run-level
/// summaries land on the final tick.
pub fn record_cluster_events(tracer: &mut Tracer, report: &ClusterReport) {
    for record in &report.cascades {
        tracer.record(
            record.tick,
            Event::ClusterCascade {
                trigger: record.stats.trigger,
                toppled: record.stats.toppled,
                waves: record.stats.waves,
                shed_milli: milli(record.stats.shed_load),
            },
        );
    }
    tracer.record(
        report.ticks,
        Event::ClusterRecovery {
            revived: report.recovered,
            lost: report.lost,
        },
    );
    if report.burns > 0 {
        tracer.record(
            report.ticks,
            Event::ClusterBurn {
                burns: report.burns,
                nodes: report.burned_nodes,
                relieved_milli: milli(report.burn_relieved),
            },
        );
    }
    // Mode census: replay the retained shift log and emit one census
    // event per tick on which any node changed mode. Pure function of
    // the report, like everything else here.
    if !report.mode_shifts.is_empty() {
        use resilience_anticipate::OperatingMode;
        let mut alert: u64 = 0;
        let mut emergency: u64 = 0;
        let mut i = 0;
        let shifts = &report.mode_shifts;
        while i < shifts.len() {
            let tick = shifts[i].tick;
            while i < shifts.len() && shifts[i].tick == tick {
                let s = &shifts[i];
                match s.from {
                    OperatingMode::Alert => alert = alert.saturating_sub(1),
                    OperatingMode::Emergency => emergency = emergency.saturating_sub(1),
                    OperatingMode::Normal => {}
                }
                match s.to {
                    OperatingMode::Alert => alert += 1,
                    OperatingMode::Emergency => emergency += 1,
                    OperatingMode::Normal => {}
                }
                i += 1;
            }
            tracer.record(tick, Event::ClusterModeCensus { alert, emergency });
        }
    }
}

/// Trip the incident flight recorder at every cascade **onset**: a
/// cascade record whose previous tick carried no cascade starts a new
/// incident; back-to-back cascade ticks are one rolling incident and
/// retrigger nothing. Pure function of the report, like every other
/// derivation here; the recorder's own `MAX_TRIGGERS` cap bounds a
/// cascade storm.
pub fn record_cluster_incidents(recorder: &mut FlightRecorder, report: &ClusterReport) {
    let mut last_cascade_tick: Option<u64> = None;
    for record in &report.cascades {
        let onset = last_cascade_tick != Some(record.tick.saturating_sub(1))
            && last_cascade_tick != Some(record.tick);
        if onset {
            recorder.trigger(
                &resilience_telemetry::CausalTracer::new(),
                record.tick,
                TriggerKind::CascadeOnset,
                milli(record.stats.shed_load),
                format!(
                    "wave of {} (trigger {}, {} waves)",
                    record.stats.trigger + record.stats.toppled,
                    record.stats.trigger,
                    record.stats.waves
                ),
            );
        }
        last_cascade_tick = Some(record.tick);
    }
}

/// Histogram bounds for cascade sizes (powers of two — cascade-size
/// distributions are judged on their tail).
pub const CASCADE_SIZE_BOUNDS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Record a run's aggregate counters, gauges, and the cascade-size
/// histogram. Calling this for several reports accumulates counters and
/// histograms; gauges keep the last run's value.
pub fn record_cluster_metrics(registry: &mut MetricsRegistry, report: &ClusterReport) {
    registry.inc_counter(
        "cluster_cascades_total",
        "Cascades with at least one death",
        report.cascades.len() as u64,
    );
    registry.inc_counter(
        "cluster_toppled_total",
        "Nodes toppled by overload during cascades",
        report.total_toppled(),
    );
    registry.inc_counter(
        "cluster_exo_kills_total",
        "Nodes killed by the chaos fault plan",
        report.exo_kills,
    );
    registry.inc_counter(
        "cluster_attack_kills_total",
        "Nodes removed by attacks",
        report.attack_kills,
    );
    registry.inc_counter(
        "cluster_recovered_total",
        "Nodes revived by the MAPE-K supervisor",
        report.recovered,
    );
    registry.inc_counter(
        "cluster_lost_total",
        "Nodes dead for good (budget exhausted or condemned)",
        report.lost,
    );
    registry.inc_counter(
        "cluster_burns_total",
        "Prescribed-burn firings",
        report.burns,
    );
    registry.inc_counter(
        "cluster_burned_nodes_total",
        "Nodes relieved by prescribed burns",
        report.burned_nodes,
    );
    registry.set_gauge(
        "cluster_nodes",
        "Fleet size of the last recorded run",
        report.n as f64,
    );
    registry.set_gauge(
        "cluster_final_giant_fraction",
        "Giant-component fraction at the end of the last recorded run",
        if report.n == 0 {
            0.0
        } else {
            report.final_giant as f64 / report.n as f64
        },
    );
    registry.set_gauge(
        "cluster_resilience_loss",
        "Bruneau R of the last recorded run",
        report.resilience_loss(),
    );
    for size in report.cascade_sizes() {
        registry.observe(
            "cluster_cascade_size",
            "Nodes lost per cascade (trigger + toppled)",
            &CASCADE_SIZE_BOUNDS,
            size as f64,
        );
    }
    // Anticipation families only exist on runs where the loop acted:
    // registering zeroed families would change reactive expositions.
    if !report.mode_shifts.is_empty() || report.truncated_mode_shifts > 0 {
        registry.inc_counter(
            "cluster_mode_shifts_total",
            "Per-node operating-mode changes of the anticipation loop",
            report.mode_shifts.len() as u64 + report.truncated_mode_shifts,
        );
        registry.set_gauge(
            "cluster_alert_node_ticks",
            "Node-ticks spent in Alert mode",
            report.alert_node_ticks as f64,
        );
        registry.set_gauge(
            "cluster_emergency_node_ticks",
            "Node-ticks spent in Emergency mode",
            report.emergency_node_ticks as f64,
        );
        registry.set_gauge(
            "cluster_anticipatory_shed",
            "Load shed voluntarily by Emergency nodes, in load units",
            report.anticipatory_shed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AttackSpec, ClusterConfig, ClusterEngine};
    use resilience_core::FaultPlan;
    use resilience_networks::AttackStrategy;
    use resilience_networks::TopologyKind;

    fn sample_report() -> ClusterReport {
        let mut config = ClusterConfig::new(300, TopologyKind::ScaleFree { m: 3 });
        config.ticks = 25;
        let engine = ClusterEngine::new(config, 7);
        let attack = AttackSpec {
            tick: 5,
            strategy: AttackStrategy::TargetedByDegree,
            fraction: 0.1,
            recoverable: true,
        };
        engine.run(3, Some(&attack), &FaultPlan::none())
    }

    #[test]
    fn events_mirror_the_report() {
        let report = sample_report();
        let mut tracer = Tracer::new();
        record_cluster_events(&mut tracer, &report);
        // One event per cascade + the recovery summary (+ burn if any).
        let expected = report.cascades.len() + 1 + usize::from(report.burns > 0);
        assert_eq!(tracer.len(), expected);
        let json = tracer.to_json();
        assert!(json.contains("ClusterCascade"));
        assert!(json.contains("ClusterRecovery"));
    }

    #[test]
    fn incidents_trigger_on_cascade_onsets_only() {
        let report = sample_report();
        let mut recorder = FlightRecorder::new();
        record_cluster_incidents(&mut recorder, &report);
        // Count onsets the same way: runs of consecutive cascade ticks.
        let mut expected = 0usize;
        let mut last: Option<u64> = None;
        for record in &report.cascades {
            if last != Some(record.tick.saturating_sub(1)) && last != Some(record.tick) {
                expected += 1;
            }
            last = Some(record.tick);
        }
        assert!(expected > 0, "fixture must produce at least one cascade");
        assert_eq!(
            recorder.triggers().len() + recorder.dropped() as usize,
            expected
        );
        for t in recorder.triggers() {
            assert_eq!(t.kind, TriggerKind::CascadeOnset);
            assert!(t.detail.starts_with("wave of "));
        }
        // Pure function of the report: recording twice doubles nothing
        // silently — it appends deterministically.
        let mut again = FlightRecorder::new();
        record_cluster_incidents(&mut again, &report);
        assert_eq!(again.triggers().len(), recorder.triggers().len());
    }

    #[test]
    fn metrics_accumulate_and_expose() {
        let report = sample_report();
        let mut registry = MetricsRegistry::new();
        record_cluster_metrics(&mut registry, &report);
        record_cluster_metrics(&mut registry, &report);
        let prom = registry.to_prometheus();
        assert!(prom.contains("cluster_cascades_total"));
        assert!(prom.contains("cluster_resilience_loss"));
        assert!(prom.contains("cluster_cascade_size"));
        // Counters doubled by the second recording.
        let line = prom
            .lines()
            .find(|l| l.starts_with("cluster_attack_kills_total "))
            .expect("attack kills counter exposed");
        let value: f64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("counter value parses");
        assert_eq!(value, 2.0 * report.attack_kills as f64);
    }
}
