//! Property suite for the anticipation layer (ISSUE: early-warning
//! detection and normal/emergency mode switching).
//!
//! The contracts pinned here:
//!
//! * anticipatory serving is a pure function of `(trace seed, chaos
//!   plan)`: the full service report — outcomes, warning scores, mode
//!   transitions — is byte-identical across thread budgets 1, 2, and 4,
//!   with and without a chaos plan;
//! * the detector's O(1) sliding-window indicators (Welford variance +
//!   incremental lag-1 autocorrelation) agree with a from-scratch
//!   `TimeSeries` recomputation on arbitrary streams and window sizes;
//! * the canonical no-fault workload never drives the default mode
//!   controller into Emergency, for any trace seed: the emergency
//!   posture is reserved for genuine trouble, and a quiet service never
//!   pays its price.

use proptest::prelude::*;
use systems_resilience::anticipate::{
    AnticipationConfig, EarlyWarning, EarlyWarningConfig, OperatingMode,
};
use systems_resilience::core::faults::{FaultConfig, FaultPlan};
use systems_resilience::core::TimeSeries;
use systems_resilience::service::{
    RequestTrace, ServiceConfig, ServiceEngine, ServiceReport, TraceSpec,
};

/// Serve the canonical workload with the default anticipation layer.
fn serve_anticipatory(trace_seed: u64, plan: &FaultPlan, threads: usize) -> ServiceReport {
    let trace = RequestTrace::generate(&TraceSpec::new(600, trace_seed));
    ServiceEngine::new(ServiceConfig {
        threads,
        anticipation: Some(AnticipationConfig::default()),
        ..ServiceConfig::default()
    })
    .serve(&trace, plan)
}

/// Replay the detector's own detrend chain over the sample prefix, then
/// read the trailing window's indicators off a `TimeSeries`: sample
/// variance is the population variance · n/(n−1), and the
/// autocorrelation is gated and clamped where the detector does.
fn reference_indicators(samples: &[f64], alpha: f64, window: usize) -> (f64, f64) {
    let mut trend = 0.0;
    let mut residuals = Vec::new();
    for (i, &x) in samples.iter().enumerate() {
        if i == 0 {
            trend = x;
            residuals.push(0.0);
        } else {
            residuals.push(x - trend);
            trend += alpha * (x - trend);
        }
    }
    let tail =
        TimeSeries::from_values(residuals[residuals.len().saturating_sub(window)..].to_vec());
    let n = tail.len() as f64;
    if tail.len() < 2 {
        return (0.0, 0.0);
    }
    let m2 = tail.variance() * n;
    let autocorr = if tail.len() >= 3 && m2 > 1e-18 {
        tail.lag1_autocorrelation().clamp(-1.0, 1.0)
    } else {
        0.0
    };
    (m2 / (n - 1.0), autocorr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The anticipatory serve path runs entirely on the logical tick
    /// clock: the complete report is byte-identical at thread budgets
    /// 1, 2, and 4 — quiet or under a seeded chaos plan.
    #[test]
    fn anticipatory_serving_is_thread_invariant(
        trace_seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        with_chaos in any::<bool>(),
    ) {
        let plan = if with_chaos {
            FaultConfig::parse(&format!(
                "seed={chaos_seed},panic=0.1,delay=0.05,poison=0.1,permanent=0.05"
            ))
            .expect("static chaos spec parses")
            .plan
        } else {
            FaultPlan::none()
        };
        let baseline = serve_anticipatory(trace_seed, &plan, 1);
        let json1 = serde_json::to_string(&baseline).expect("reports serialize");
        for threads in [2usize, 4] {
            let report = serve_anticipatory(trace_seed, &plan, threads);
            let json = serde_json::to_string(&report).expect("reports serialize");
            prop_assert!(
                json1 == json,
                "report depends on the thread budget at threads={}",
                threads
            );
        }
        // The warning-score stream is per-tick and must cover the run.
        prop_assert_eq!(baseline.warning_scores.len() as u64, baseline.ticks);
    }

    /// The incremental window indicators match a from-scratch
    /// recomputation at every step, for arbitrary streams and window
    /// sizes — the O(1) sliding Welford + cross-sum updates never
    /// drift from the quantity they claim to maintain.
    #[test]
    fn incremental_indicators_agree_with_naive_reference(
        samples in proptest::collection::vec(0.0f64..1.0, 8..120),
        window in 4usize..40,
    ) {
        let config = EarlyWarningConfig {
            window,
            ..EarlyWarningConfig::default()
        };
        let alpha = config.detrend_alpha;
        let mut detector = EarlyWarning::new(config);
        for (i, &x) in samples.iter().enumerate() {
            let snap = detector.observe(x);
            let (var, ac) = reference_indicators(&samples[..=i], alpha, window);
            prop_assert!(
                (snap.variance - var).abs() <= 1e-9 * var.max(1.0),
                "sample {}: incremental variance {} vs reference {}",
                i, snap.variance, var
            );
            prop_assert!(
                (snap.autocorr - ac).abs() <= 1e-7,
                "sample {}: incremental autocorr {} vs reference {}",
                i, snap.autocorr, ac
            );
        }
    }

    /// On the canonical workload with no fault plan, the default
    /// controller never escalates to Emergency for any trace seed —
    /// surge-driven queue pressure alone stays below the emergency
    /// threshold, so the brownout floor and deadline squeeze of the
    /// emergency posture are never paid in a healthy system.
    #[test]
    fn no_fault_canonical_trace_never_enters_emergency(trace_seed in any::<u64>()) {
        let report = serve_anticipatory(trace_seed, &FaultPlan::none(), 1);
        prop_assert!(
            report.emergency_ticks == 0,
            "quiet run spent ticks in Emergency (transitions: {:?})",
            report.mode_transitions
        );
        prop_assert!(
            report
                .mode_transitions
                .iter()
                .all(|t| t.to != OperatingMode::Emergency),
            "quiet run transitioned into Emergency: {:?}",
            report.mode_transitions
        );
        // And the quiet run must still serve everything it admits.
        prop_assert_eq!(report.failed(), 0);
    }
}
