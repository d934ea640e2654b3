//! Telemetry recording for the verification engines.
//!
//! The DCSP checkers already return deterministic aggregates — the
//! [`VerifyStats`] that
//! [`is_k_recoverable_exhaustive_parallel_stats`](crate::is_k_recoverable_exhaustive_parallel_stats)
//! and [`is_k_recoverable_symmetric`](crate::is_k_recoverable_symmetric)
//! return beside their reports, and the
//! per-depth frontier sizes of a [`MaintainabilityReport`] — so, as with
//! the supervised runtime, telemetry is derived from those results after
//! the fact rather than emitted live from worker threads. Everything
//! recorded here is a pure function of the reports, which are themselves
//! thread-invariant, so traces and expositions are byte-identical for
//! any thread budget.

use resilience_telemetry::{Event, MetricsRegistry, Tracer};

use crate::maintainability::{FrontierSummary, MaintainabilityReport};
use crate::recoverability::{RecoverabilityReport, VerifyStats};

/// Record one recoverability verification: a single
/// [`Event::VerifierCacheSummary`] on lane 0 (per-probe events would
/// dwarf the trace) plus the `dcsp_verify_*` metric family.
pub fn record_verification(
    tracer: &mut Tracer,
    registry: &mut MetricsRegistry,
    report: &RecoverabilityReport,
    stats: &VerifyStats,
) {
    tracer.record(
        0,
        Event::VerifierCacheSummary {
            hits: stats.cache_hits,
            misses: stats.cache_misses,
            states: stats.states_explored,
        },
    );
    registry.inc_counter(
        "dcsp_verify_cases_total",
        "Damage cases examined by recoverability checks",
        report.cases as u64,
    );
    registry.inc_counter(
        "dcsp_verify_recovered_total",
        "Damage cases repaired within the step bound",
        report.recovered_within_k as u64,
    );
    registry.inc_counter(
        "dcsp_verify_cache_hits_total",
        "Transposition-cache probes that hit a finished entry",
        stats.cache_hits,
    );
    registry.inc_counter(
        "dcsp_verify_cache_misses_total",
        "Transposition-cache probes that missed",
        stats.cache_misses,
    );
    registry.inc_counter(
        "dcsp_verify_states_explored_total",
        "Distinct states assigned a distance by repair walks",
        stats.states_explored,
    );
    registry.inc_counter(
        "dcsp_verify_orbit_hits_total",
        "Damage cases settled by symmetry-orbit multiplication without a repair walk",
        stats.orbit_hits,
    );
    registry.set_gauge(
        "dcsp_verify_cache_hit_rate",
        "Cache hit rate of the most recent verification",
        stats.hit_rate(),
    );
}

/// Record one maintainability analysis: an [`Event::FrontierLevel`] per
/// backward-BFS depth (tick = depth, lane 0) plus the
/// `dcsp_maintainability_*` metric family.
pub fn record_maintainability(
    tracer: &mut Tracer,
    registry: &mut MetricsRegistry,
    report: &MaintainabilityReport,
) {
    record_frontiers(
        tracer,
        registry,
        &report.frontier_sizes(),
        report.levels.len() as u64,
        report.hopeless_states().len() as u64,
    );
}

/// Record one summarized maintainability run ([`FrontierSummary`]): the
/// same [`Event::FrontierLevel`] stream and `dcsp_maintainability_*`
/// metric family as [`record_maintainability`] — a dense report and an
/// orbit summary of the same instance produce byte-identical telemetry.
pub fn record_frontier_summary(
    tracer: &mut Tracer,
    registry: &mut MetricsRegistry,
    summary: &FrontierSummary,
) {
    record_frontiers(
        tracer,
        registry,
        &summary.frontier_sizes,
        summary.total_states(),
        summary.hopeless,
    );
}

/// The one body behind both maintainability recorders.
fn record_frontiers(
    tracer: &mut Tracer,
    registry: &mut MetricsRegistry,
    frontier: &[u64],
    states: u64,
    hopeless: u64,
) {
    for (depth, states) in frontier.iter().enumerate() {
        tracer.record(
            depth as u64,
            Event::FrontierLevel {
                depth: depth as u32,
                states: *states,
            },
        );
    }
    registry.inc_counter(
        "dcsp_maintainability_states_total",
        "States analyzed by backward BFS",
        states,
    );
    registry.inc_counter(
        "dcsp_maintainability_hopeless_total",
        "States from which normality is unreachable",
        hopeless,
    );
    registry.set_gauge(
        "dcsp_maintainability_depth",
        "Deepest backward-BFS level of the most recent analysis",
        frontier.len().saturating_sub(1) as f64,
    );
    registry.set_gauge(
        "dcsp_maintainability_frontier_peak",
        "Largest single frontier of the most recent analysis",
        frontier.iter().copied().max().unwrap_or(0) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintainability::{analyze_bit_dcsp, analyze_bit_dcsp_frontiers};
    use crate::recoverability::{
        is_k_recoverable_exhaustive_parallel_stats, is_k_recoverable_symmetric,
    };
    use crate::repair::GreedyRepair;
    use resilience_core::{AtLeastOnes, Config, PredicateConstraint, RunContext};

    #[test]
    fn verification_telemetry_reconciles_with_the_report() {
        let start = Config::ones(10);
        let env = AtLeastOnes::new(10, 6);
        let (report, stats) = is_k_recoverable_exhaustive_parallel_stats(
            &start,
            &env,
            &GreedyRepair::new(),
            3,
            4,
            &RunContext::new(0),
        );
        let mut tracer = Tracer::new();
        let mut registry = MetricsRegistry::new();
        record_verification(&mut tracer, &mut registry, &report, &stats);
        let merged = tracer.merged();
        assert_eq!(merged.len(), 1);
        assert!(matches!(
            merged[0].event,
            Event::VerifierCacheSummary { hits, misses, .. }
                if hits == stats.cache_hits && misses == stats.cache_misses
        ));
        let prom = registry.to_prometheus();
        assert!(prom.contains(&format!("dcsp_verify_cases_total {}", report.cases)));
        assert!(prom.contains("dcsp_verify_cache_hit_rate"));
    }

    #[test]
    fn maintainability_frontier_becomes_one_event_per_depth() {
        let report = analyze_bit_dcsp(6, &AtLeastOnes::new(6, 4));
        let mut tracer = Tracer::new();
        let mut registry = MetricsRegistry::new();
        record_maintainability(&mut tracer, &mut registry, &report);
        let frontier = report.frontier_sizes();
        let merged = tracer.merged();
        assert_eq!(merged.len(), frontier.len());
        let total: u64 = frontier.iter().sum();
        assert_eq!(
            total + report.hopeless_states().len() as u64,
            report.levels.len() as u64
        );
        // Events come out depth-ordered because tick = depth.
        for (depth, ev) in merged.iter().enumerate() {
            assert_eq!(ev.tick, depth as u64);
            assert!(matches!(ev.event, Event::FrontierLevel { depth: d, .. }
                if d as usize == depth));
        }
        assert!(registry
            .to_prometheus()
            .contains("dcsp_maintainability_states_total"));
    }

    #[test]
    fn orbit_hits_flow_into_the_exposition() {
        let start = Config::ones(10);
        let env = AtLeastOnes::new(10, 6);
        let ctx = RunContext::new(0);
        let (report, stats) =
            is_k_recoverable_symmetric(&start, &env, &GreedyRepair::new(), 3, 4, &ctx)
                .expect("counting constraints declare symmetry");
        let mut tracer = Tracer::new();
        let mut registry = MetricsRegistry::new();
        record_verification(&mut tracer, &mut registry, &report, &stats);
        let prom = registry.to_prometheus();
        assert!(stats.orbit_hits > 0);
        assert!(prom.contains(&format!(
            "dcsp_verify_orbit_hits_total {}",
            stats.orbit_hits
        )));
    }

    #[test]
    fn dense_and_orbit_maintainability_telemetry_agree() {
        // The predicate twin declares no symmetry, so it takes the dense
        // path; `AtLeastOnes` is summarized on popcount orbits.
        let twin = PredicateConstraint::new("at-least-5", |c: &Config| c.count_ones() >= 5);
        let report = analyze_bit_dcsp(8, &twin);
        let summary = analyze_bit_dcsp_frontiers(8, &AtLeastOnes::new(8, 5)).expect("in range");
        let mut tracer_a = Tracer::new();
        let mut registry_a = MetricsRegistry::new();
        record_maintainability(&mut tracer_a, &mut registry_a, &report);
        let mut tracer_b = Tracer::new();
        let mut registry_b = MetricsRegistry::new();
        record_frontier_summary(&mut tracer_b, &mut registry_b, &summary);
        assert_eq!(tracer_a.merged(), tracer_b.merged());
        assert_eq!(registry_a.to_prometheus(), registry_b.to_prometheus());
        assert!(registry_b
            .to_prometheus()
            .contains("dcsp_maintainability_frontier_peak"));
    }
}
