//! The benchmark's catalogue: workloads, metrics, units and bounds.
//! `BENCHMARK.json` at the repository root mirrors these tables; a unit
//! test keeps the two in step.

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "serve_reactive",
    "serve_storm_traced",
    "serve_replicated",
    "cluster_100k",
    "verify_dcsp",
];

/// Seconds one run measures unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 20;

/// Seed used when `--seed` is absent; the golden digests pin it.
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics of the untraced pass, reported by every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_p90", "ms", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.1),
];

/// Metrics of the traced pass. Every workload reports every one; a
/// layer the workload never calls reads 0. Layer times are given as
/// shares of the op or as rates, so that each stays defined on every
/// workload.
pub const PER_LAYER: &[Metric] = &[
    layer("bench.op_ms_p50", "ms", Lower),
    layer("bench.untraced_op_ms_p50", "ms", Lower),
    layer("bench.span_overhead_ratio", "ratio", Lower),
    layer("bench.check_ms", "ms", Lower),
    layer("input.generate_ms", "ms", Lower),
    layer("core.runtime.backend_calls", "count", Lower),
    layer("core.runtime.backend_trials", "count", Lower),
    layer("core.runtime.replay_mismatches", "count", Lower),
    layer("core.runtime.trials_per_s", "1/s", Higher),
    layer("core.runtime.backend_share", "ratio", Lower),
    layer("service.engine.requests_per_s", "1/s", Higher),
    layer("service.engine.control_share", "ratio", Lower),
    layer("service.engine.served_full", "count", Higher),
    layer("service.engine.served_reduced", "count", Lower),
    layer("service.engine.served_cached", "count", Lower),
    layer("service.engine.shed", "count", Lower),
    layer("service.engine.failed", "count", Lower),
    layer("service.engine.ticks", "count", Lower),
    layer("service.engine.breaker_trips", "count", Lower),
    layer("service.engine.brownout_changes", "count", Lower),
    layer("service.engine.latency_p50_ticks", "ticks", Lower),
    layer("service.engine.latency_p99_ticks", "ticks", Lower),
    layer("service.engine.resilience_loss", "R", Lower),
    layer("service.replica.routed", "count", Lower),
    layer("service.replica.hedges_launched", "count", Lower),
    layer("service.replica.hedges_won", "count", Higher),
    layer("service.replica.hedge_win_ratio", "ratio", Higher),
    layer("service.replica.failovers", "count", Lower),
    layer("service.replica.retry_budget_spent", "count", Lower),
    layer("service.replica.retry_budget_exhausted", "count", Lower),
    layer("service.replica.reclaimed_work", "work", Lower),
    layer("service.replica.correlated_hits", "count", Lower),
    layer("service.replica.gray_slots", "count", Lower),
    layer("anticipate.alert_ticks", "count", Lower),
    layer("anticipate.emergency_ticks", "count", Lower),
    layer("anticipate.mode_transitions", "count", Lower),
    layer("anticipate.observe_share", "ratio", Lower),
    layer("telemetry.overhead_ratio", "ratio", Lower),
    layer("telemetry.finalize_share", "ratio", Lower),
    layer("telemetry.postmortem_share", "ratio", Lower),
    layer("telemetry.prometheus_share", "ratio", Lower),
    layer("telemetry.spans", "count", Lower),
    layer("telemetry.critical_paths", "count", Lower),
    layer("telemetry.incidents", "count", Lower),
    layer("telemetry.postmortem_bytes", "bytes", Lower),
    layer("cluster.topology.edges", "count", Lower),
    layer("cluster.engine.node_ticks_per_s", "1/s", Higher),
    layer("cluster.engine.toppled", "count", Lower),
    layer("cluster.engine.largest_cascade", "count", Lower),
    layer("cluster.engine.final_giant_fraction", "ratio", Higher),
    layer("cluster.engine.resilience_loss", "R", Lower),
    layer("dcsp.recoverability.cases_per_s", "1/s", Higher),
    layer("dcsp.recoverability.share", "ratio", Lower),
    layer("dcsp.recoverability.cases", "count", Lower),
    layer("dcsp.recoverability.cache_hits", "count", Higher),
    layer("dcsp.recoverability.cache_misses", "count", Lower),
    layer("dcsp.recoverability.hit_ratio", "ratio", Higher),
    layer("dcsp.recoverability.states_explored", "count", Lower),
    layer("dcsp.maintainability.states_per_s", "1/s", Higher),
    layer("dcsp.maintainability.bfs_share", "ratio", Lower),
    layer("dcsp.maintainability.adversarial_share", "ratio", Lower),
    layer("dcsp.maintainability.states", "count", Lower),
    layer("dcsp.maintainability.levels", "count", Lower),
    layer("dcsp.maintainability.hopeless", "count", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        serde_json::parse_value_complete(&text).expect("BENCHMARK.json parses")
    }

    fn names(list: &Value) -> Vec<&str> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| m["name"].as_str().expect("a name"))
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad name {name}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name} twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = manifest();
        assert_eq!(names(&doc["workloads"]), WORKLOADS);
        assert_eq!(doc["run_seconds"].as_u64(), Some(RUN_SECONDS));
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc[key].as_array().expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (json, m) in listed.iter().zip(table) {
                assert_eq!(json["name"].as_str(), Some(m.name));
                assert_eq!(json["unit"].as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    json["better"].as_str(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(json["bound"].as_f64(), m.bound, "{}", m.name);
            }
        }
    }
}
