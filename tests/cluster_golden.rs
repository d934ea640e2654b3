//! Byte-identity safety net for the cluster engine's reports.
//!
//! A grid of small cluster runs crosses every topology family (scale-free
//! trees and meshes, a sparse Erdős–Rényi graph with isolated nodes and
//! many equal-size components, small-world), targeted and random attacks
//! (recoverable or not), both burn policies, node anticipation, a slow
//! recovery policy whose revivals share due ticks and outlast the run,
//! and a fault plan with transient and permanent panics. Each run's
//! serialized [`ClusterReport`] is hashed with 64-bit FNV-1a and pinned
//! below, so a change to the engine's phase order, its draws, or the
//! giant-component sizes it scores shows up here.
//!
//! When a change is *meant* to alter a report, the failure message
//! prints the complete new table to paste over `GOLDEN`.

use systems_resilience::cluster::{
    AttackSpec, BurnPolicy, ClusterConfig, ClusterEngine, ClusterReport, NodeAnticipationConfig,
    TopologyKind,
};
use systems_resilience::core::{FaultPlan, RecoveryPolicy};
use systems_resilience::networks::AttackStrategy;

use std::time::Duration;

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(report: &ClusterReport) -> u64 {
    fnv1a(serde_json::to_string(report).unwrap().as_bytes())
}

/// A surging fleet over `topology`: enough grains and little enough
/// headroom that cascades split and re-join the giant component.
fn surging(n: usize, topology: TopologyKind) -> ClusterConfig {
    let mut config = ClusterConfig::new(n, topology);
    config.ticks = 40;
    config.headroom = 1.0;
    config.surge_drops = n / 50;
    config.surge_grain = 0.5;
    config.drain = 0.05;
    config
}

fn attack(tick: u64, strategy: AttackStrategy, fraction: f64, recoverable: bool) -> AttackSpec {
    AttackSpec {
        tick,
        strategy,
        fraction,
        recoverable,
    }
}

fn panics() -> FaultPlan {
    FaultPlan {
        seed: 5,
        panic_rate: 0.01,
        delay_rate: 0.005,
        permanent_rate: 0.002,
        ..FaultPlan::none()
    }
}

struct Case {
    name: &'static str,
    config: ClusterConfig,
    topology_seed: u64,
    run_seed: u64,
    attack: Option<AttackSpec>,
    plan: FaultPlan,
}

fn cases() -> Vec<Case> {
    use AttackStrategy::{Random, TargetedByDegree};
    let sparse = TopologyKind::Random { mean_degree: 1.5 };
    let critical = TopologyKind::Random { mean_degree: 1.0 };
    let small_world = TopologyKind::SmallWorld { k: 4, beta: 0.1 };
    let mut anticipating = surging(1_000, TopologyKind::ScaleFree { m: 3 });
    anticipating.surge_grain = 0.05;
    anticipating.anticipation = Some(NodeAnticipationConfig::default());
    let mut hub_burn = surging(1_500, TopologyKind::ScaleFree { m: 3 });
    hub_burn.surge_grain = 0.15;
    hub_burn.burn = BurnPolicy::HubRelief {
        fraction: 0.05,
        period: 4,
    };
    let mut random_burn = hub_burn.clone();
    random_burn.burn = BurnPolicy::RandomRelief {
        fraction: 0.05,
        period: 3,
    };
    // A slow supervisor: many victims of one tick share a due tick, and
    // later backoffs land past the horizon.
    let mut slow_recovery = surging(2_000, TopologyKind::ScaleFree { m: 3 });
    slow_recovery.recovery = RecoveryPolicy {
        retries: 5,
        backoff: Duration::from_millis(3),
        backoff_cap: Duration::from_millis(20),
        deadline: None,
    };
    let mut quiet_one = ClusterConfig::new(1, TopologyKind::ScaleFree { m: 1 });
    quiet_one.ticks = 20;
    let case = |name, config, topology_seed, run_seed, attack, plan| Case {
        name,
        config,
        topology_seed,
        run_seed,
        attack,
        plan,
    };
    vec![
        case(
            "sf_m1_targeted_unrecoverable",
            surging(2_000, TopologyKind::ScaleFree { m: 1 }),
            1,
            11,
            Some(attack(5, TargetedByDegree, 0.05, false)),
            FaultPlan::none(),
        ),
        case(
            "sf_m1_random_recoverable",
            surging(2_000, TopologyKind::ScaleFree { m: 1 }),
            2,
            12,
            Some(attack(4, Random, 0.2, true)),
            FaultPlan::none(),
        ),
        case(
            "sf_m3_targeted_recoverable",
            surging(2_000, TopologyKind::ScaleFree { m: 3 }),
            3,
            13,
            Some(attack(5, TargetedByDegree, 0.1, true)),
            FaultPlan::none(),
        ),
        case(
            "sf_m3_random_unrecoverable_panics",
            surging(2_000, TopologyKind::ScaleFree { m: 3 }),
            4,
            14,
            Some(attack(6, Random, 0.3, false)),
            panics(),
        ),
        case(
            "er_sparse_random_recoverable",
            surging(2_000, sparse.clone()),
            5,
            15,
            Some(attack(3, Random, 0.1, true)),
            FaultPlan::none(),
        ),
        case(
            "er_sparse_targeted_unrecoverable",
            surging(2_000, sparse),
            6,
            16,
            Some(attack(5, TargetedByDegree, 0.05, false)),
            panics(),
        ),
        case(
            "er_critical_quiet",
            surging(1_000, critical),
            7,
            17,
            None,
            FaultPlan::none(),
        ),
        case(
            "small_world_targeted_recoverable",
            surging(2_000, small_world.clone()),
            8,
            18,
            Some(attack(5, TargetedByDegree, 0.1, true)),
            FaultPlan::none(),
        ),
        case(
            "small_world_random_panics",
            surging(2_000, small_world),
            9,
            19,
            Some(attack(2, Random, 0.4, false)),
            panics(),
        ),
        case(
            "hub_relief_burn",
            hub_burn,
            10,
            20,
            Some(attack(8, TargetedByDegree, 0.05, true)),
            FaultPlan::none(),
        ),
        case(
            "random_relief_burn",
            random_burn,
            10,
            21,
            Some(attack(8, Random, 0.05, true)),
            FaultPlan::none(),
        ),
        case(
            "anticipation_surge",
            anticipating,
            11,
            22,
            Some(attack(10, TargetedByDegree, 0.05, true)),
            FaultPlan::none(),
        ),
        case(
            "one_node_panics",
            quiet_one,
            12,
            23,
            Some(attack(3, Random, 1.0, true)),
            panics(),
        ),
        case(
            "slow_recovery_backoff",
            slow_recovery,
            13,
            24,
            Some(attack(5, TargetedByDegree, 0.1, true)),
            panics(),
        ),
    ]
}

const GOLDEN: [(&str, u64); 14] = [
    ("sf_m1_targeted_unrecoverable", 0x5b4a3ce4cd41075e),
    ("sf_m1_random_recoverable", 0x992c5a4161dc3daa),
    ("sf_m3_targeted_recoverable", 0x91717066e2715ded),
    ("sf_m3_random_unrecoverable_panics", 0x2f2a2494154852ff),
    ("er_sparse_random_recoverable", 0xc08c38e3c0b1c662),
    ("er_sparse_targeted_unrecoverable", 0xedbc8ce0fd1ddfa7),
    ("er_critical_quiet", 0x1f3bf1526b009c8d),
    ("small_world_targeted_recoverable", 0x913781fa55cea129),
    ("small_world_random_panics", 0x4209f17dbcb72e10),
    ("hub_relief_burn", 0x2ace2bb0bad4baff),
    ("random_relief_burn", 0xedce38354efa24a3),
    ("anticipation_surge", 0x41f24787673fff10),
    ("one_node_panics", 0x07cb30dd031d65b8),
    ("slow_recovery_backoff", 0x505d94fd2291ae03),
];

#[test]
fn cluster_reports_match_pinned_digests() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (case, &(name, want)) in cases().into_iter().zip(GOLDEN.iter()) {
        assert_eq!(case.name, name, "grid and GOLDEN rows out of order");
        let engine = ClusterEngine::new(case.config, case.topology_seed);
        let report = engine.run(case.run_seed, case.attack.as_ref(), &case.plan);
        let got = digest(&report);
        table.push_str(&format!("    ({name:?}, {got:#018x}),\n"));
        if got != want {
            mismatches.push(format!(
                "{name}: got {got:#018x}, want {want:#018x} (final giant {} of {} alive, min giant {}, {} cascades, R {})",
                report.final_giant, report.final_alive, report.min_giant, report.cascades.len(), report.resilience_loss()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "cluster report digests moved:\n{}\nfull table:\n{table}",
        mismatches.join("\n")
    );
}
