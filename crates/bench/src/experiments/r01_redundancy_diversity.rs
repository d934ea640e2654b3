//! REDUNDANCY_DIVERSITY — deterministic replication with diversity
//! against correlated failure (paper §3.2: redundancy only buys
//! resilience when the redundant parts do not share a failure mode;
//! diverse replicas turn a common-cause blast into a survivable
//! partial outage).
//!
//! Three arms serve the same generated trace under the same seeded
//! chaos plan (correlated blasts plus panics and gray slowness),
//! paired per replicate, all at EQUAL aggregate capacity (replica
//! sets split the family's servers and queue slots, never add to
//! them):
//!
//! - `N=1`: a replica set of one — one backend holding the whole
//!   family capacity, with its own per-replica fault draws.
//! - `N=2 homogeneous`: two replicas wired to the same diversity
//!   class — one correlated draw fells both.
//! - `N=2 diverse`: two replicas in distinct classes — a correlated
//!   draw fells at most one, and the router fails over to the
//!   survivor.
//!
//! Claims under test: (a) mean R strictly improves for the diverse
//! pair over the single backend; (b) the diverse pair strictly beats
//! the homogeneous pair (diversity, not mere redundancy, carries the
//! improvement); (c) under a 100%-gray storm the retry budget bounds
//! hedge+failover volume with zero hard failures.

use crate::table::ExperimentTable;
use resilience_core::faults::FaultConfig;
use resilience_core::RunContext;
use resilience_service::{
    ReplicationConfig, RequestTrace, ServiceConfig, ServiceEngine, ServiceReport, TraceSpec,
};

/// Paired seeded replicates (same trace + chaos plan in all arms).
const REPLICATES: u64 = 6;

/// Requests per generated trace.
const REQUESTS: u64 = 600;

/// The moderate-load operating point where redundancy pays: enough
/// deadline headroom that failovers (which re-run the dead attempt's
/// work) still land in time, enough correlated damage that the single
/// backend keeps eating cached-fallback penalties.
fn trace_for(seed: u64) -> RequestTrace {
    RequestTrace::generate(&TraceSpec {
        base_rate: 0.8,
        surge_factor: 2.5,
        deadline: (30, 70),
        ..TraceSpec::new(REQUESTS, seed)
    })
}

/// One arm's config: `classes` empty means one class per replica
/// (diverse); `vec![0]` wires every replica to the same class.
fn arm_config(replicas: usize, classes: Vec<u32>) -> ServiceConfig {
    ServiceConfig {
        servers_per_family: 4,
        replication: Some(ReplicationConfig {
            replicas,
            diversity_classes: classes,
            ..ReplicationConfig::default()
        }),
        ..ServiceConfig::default()
    }
}

/// Serve one replicate through all three arms; returns
/// (r_single, r_homogeneous, r_diverse, failed_total, failovers,
/// hedges).
fn run_replicate(trace_seed: u64, chaos_seed: u64) -> (f64, f64, f64, u64, u64, u64) {
    let trace = trace_for(trace_seed);
    let chaos = format!("seed={chaos_seed},panic=0.05,gray=0.1,correlated=0.25");
    let plan = FaultConfig::parse(&chaos)
        .expect("static chaos spec parses")
        .plan;
    let single = ServiceEngine::new(arm_config(1, vec![])).serve(&trace, &plan);
    let homogeneous = ServiceEngine::new(arm_config(2, vec![0])).serve(&trace, &plan);
    let diverse = ServiceEngine::new(arm_config(2, vec![])).serve(&trace, &plan);
    (
        single.resilience_loss(),
        homogeneous.resilience_loss(),
        diverse.resilience_loss(),
        single.failed() + homogeneous.failed() + diverse.failed(),
        diverse.failovers(),
        diverse.hedges_launched(),
    )
}

/// The gray-storm side check: every replica slot slowed ×4, none
/// failed — hedging fires, and the retry budget must bound it.
fn gray_storm_check(trace_seed: u64, chaos_seed: u64) -> ServiceReport {
    let trace = trace_for(trace_seed);
    let chaos = format!("seed={chaos_seed},gray=1.0");
    let plan = FaultConfig::parse(&chaos)
        .expect("static gray spec parses")
        .plan;
    ServiceEngine::new(arm_config(2, vec![])).serve(&trace, &plan)
}

/// Run REDUNDANCY_DIVERSITY.
pub fn run(ctx: &RunContext) -> ExperimentTable {
    let trace_root = ctx.derive(2700);
    let chaos_root = ctx.derive(2710);

    // Paired trials: each replicate serves the SAME trace under the
    // SAME chaos plan in all three arms, so R comparisons are
    // same-world and only the replication wiring differs.
    let results: Vec<(u64, f64, f64, f64, u64, u64, u64)> = ctx.run_trials(
        REPLICATES,
        ctx.derive(2720),
        |trial, _rng| {
            let trace_seed = resilience_core::derive_seed(trace_root, trial);
            let chaos_seed = resilience_core::derive_seed(chaos_root, trial);
            let (r1, r_homo, r_div, failed, failovers, hedges) =
                run_replicate(trace_seed, chaos_seed);
            (trial, r1, r_homo, r_div, failed, failovers, hedges)
        },
        Vec::new(),
        |mut acc, item| {
            acc.push(item);
            acc
        },
    );

    let mut rows = Vec::new();
    let mut sum_single = 0.0;
    let mut sum_homo = 0.0;
    let mut sum_div = 0.0;
    let mut wins_vs_single = 0u64;
    let mut wins_vs_homo = 0u64;
    let mut total_failed = 0u64;
    let mut total_failovers = 0u64;
    for &(rep, r1, r_homo, r_div, failed, failovers, hedges) in &results {
        sum_single += r1;
        sum_homo += r_homo;
        sum_div += r_div;
        wins_vs_single += u64::from(r_div < r1);
        wins_vs_homo += u64::from(r_div < r_homo);
        total_failed += failed;
        total_failovers += failovers;
        rows.push(vec![
            rep.to_string(),
            format!("{r1:.0}"),
            format!("{r_homo:.0}"),
            format!("{r_div:.0}"),
            format!("{:.3}", r1 / r_div),
            failovers.to_string(),
            hedges.to_string(),
        ]);
    }
    let mean_single = sum_single / REPLICATES as f64;
    let mean_homo = sum_homo / REPLICATES as f64;
    let mean_div = sum_div / REPLICATES as f64;

    // Self-asserting claims (a) and (b): regressions fail loudly
    // wherever the registry runs, not only in one test binary.
    assert!(
        mean_div < mean_single,
        "a diverse replica pair must lower mean R vs a single backend: \
         {mean_div:.1} vs {mean_single:.1}"
    );
    assert!(
        mean_div < mean_homo,
        "diversity must carry the improvement, not mere redundancy: \
         diverse {mean_div:.1} vs homogeneous {mean_homo:.1}"
    );
    assert_eq!(total_failed, 0, "no arm may hard-fail a request");
    assert!(
        total_failovers > 0,
        "correlated kills must actually exercise failover"
    );

    // Claim (c): under a 100%-gray storm the retry budget bounds the
    // hedge+failover volume at zero hard failures.
    let storm = gray_storm_check(
        resilience_core::derive_seed(trace_root, REPLICATES),
        resilience_core::derive_seed(chaos_root, REPLICATES),
    );
    assert_eq!(
        storm.failed(),
        0,
        "gray storms slow requests, never fail them"
    );
    let rcfg = ReplicationConfig::default();
    for (fam, stats) in storm.replica_stats.iter().enumerate() {
        let spent = stats.hedges_launched + stats.failovers;
        assert_eq!(
            spent, stats.budget_spent,
            "family {fam}: every extra attempt costs exactly one token"
        );
        let ceiling = u64::from(rcfg.budget_capacity)
            + storm.ticks * u64::from(rcfg.budget_refill_milli) / 1000
            + 1;
        assert!(
            spent <= ceiling,
            "family {fam}: the retry budget must bound extra attempts: \
             spent={spent} ceiling={ceiling}"
        );
    }

    ExperimentTable {
        perf: None,
        id: "REDUNDANCY_DIVERSITY".into(),
        title: "Diverse replication vs single backend under correlated failure".into(),
        claim: "§3.2: redundancy buys resilience only when the redundant \
                parts do not share a failure mode — at equal aggregate \
                capacity, a diverse replica pair survives correlated \
                blasts that fell a homogeneous pair and a single backend \
                alike"
            .into(),
        headers: vec![
            "replicate".into(),
            "R N=1".into(),
            "R N=2 homogeneous".into(),
            "R N=2 diverse".into(),
            "improvement".into(),
            "failovers".into(),
            "hedges".into(),
        ],
        rows,
        finding: format!(
            "mean R drops from {mean_single:.0} (single backend) and \
             {mean_homo:.0} (homogeneous pair) to {mean_div:.0} with a \
             diverse pair ({:.2}x vs single), winning \
             {wins_vs_single}/{REPLICATES} paired replicates against the \
             single backend and {wins_vs_homo}/{REPLICATES} against the \
             homogeneous pair at zero hard failures — and under a \
             100%-gray storm the retry budget bounds hedge+failover \
             volume with nothing hard-failing",
            mean_single / mean_div
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diverse_replication_beats_single_and_homogeneous_arms() {
        let t = run(&RunContext::new(0));
        assert_eq!(t.rows.len(), REPLICATES as usize);
        // run() already asserts the means; pin the paired majority too.
        let wins = t
            .rows
            .iter()
            .filter(|row| {
                let improvement: f64 = row[4].parse().unwrap();
                improvement > 1.0
            })
            .count();
        assert!(
            wins * 2 > REPLICATES as usize,
            "the diverse pair must win a majority of paired replicates ({wins}/{REPLICATES})"
        );
    }
}
