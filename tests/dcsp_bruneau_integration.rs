//! Integration: the DCSP repair model and the Bruneau metric agree about
//! what "resilient" means.

use std::sync::Arc;

use systems_resilience::core::bruneau::analyze_triangle;
use systems_resilience::core::{
    resilience_loss, seeded_rng, AllOnes, Config, RunContext, ShockKind,
};
use systems_resilience::dcsp::maintainability::TransitionSystem;
use systems_resilience::dcsp::recoverability::{
    check_recoverability, RecoverabilityOptions, RecoverabilityReport,
};
use systems_resilience::dcsp::repair::BfsRepair;
use systems_resilience::dcsp::{DcspSystem, GreedyRepair, Spacecraft};

#[test]
fn repair_episode_produces_a_measurable_triangle() {
    let mut rng = seeded_rng(1001);
    let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(20)));
    let record = sys.episode(
        &ShockKind::BitDamage { flips: 5 },
        &GreedyRepair::new(),
        20,
        &mut rng,
    );
    assert!(record.recovered);
    assert_eq!(record.repair_steps, 5);

    let triangle = analyze_triangle(sys.quality_trajectory(), 100.0)
        .expect("non-empty")
        .expect("a drop happened");
    assert!(triangle.recovered);
    // One flip per time step: recovery time equals repair steps.
    assert!((triangle.recovery_time - 5.0).abs() < 1e-9);
    // Quality dropped by 5 components of 20 = 25 points.
    assert!((triangle.max_drop - 25.0).abs() < 1e-9);
}

#[test]
fn faster_repair_means_smaller_bruneau_loss() {
    // The spacecraft with more repair capacity scores a strictly smaller
    // resilience loss on the same debris schedule.
    use systems_resilience::core::ShockSchedule;
    let mut losses = Vec::new();
    for repairs in [1usize, 2, 4] {
        let mut rng = seeded_rng(1002);
        let mut craft = Spacecraft::new(24, 4, repairs);
        let log = craft.simulate_mission(400, &ShockSchedule::Periodic { period: 10 }, &mut rng);
        losses.push(log.resilience_loss());
    }
    assert!(losses[0] > losses[1] && losses[1] > losses[2], "{losses:?}");
}

/// Greedy repair's one-thread rank walk from a fit `start`.
fn exhaustive(start: &Config, env: &AllOnes, damage: usize, k: usize) -> RecoverabilityReport {
    let ctx = RunContext::new(0);
    let options = RecoverabilityOptions::default();
    check_recoverability(start, env, &GreedyRepair::new(), damage, k, &ctx, options)
        .expect("a fit start")
        .0
}

#[test]
fn recoverability_matches_spacecraft_guarantee() {
    // The exhaustive DCSP checker proves exactly the bound the spacecraft
    // API promises via guaranteed_k().
    let craft = Spacecraft::new(10, 3, 1);
    let k = craft.guaranteed_k();
    let start = Config::ones(10);
    let env = AllOnes::new(10);
    let ok = exhaustive(&start, &env, 3, k);
    assert!(ok.is_k_recoverable());
    if k > 0 {
        let tight = exhaustive(&start, &env, 3, k - 1);
        assert!(!tight.is_k_recoverable());
    }
}

#[test]
fn maintainability_levels_equal_bfs_repair_distance() {
    // Two independent machineries — the explicit-state K-maintainability
    // analysis and the configuration-space BFS repair planner — must agree
    // on the repair distance of every state.
    let n = 6;
    let env = AllOnes::new(n);
    let ts = TransitionSystem::from_bit_dcsp(n, &env, 2);
    let report = ts.analyze();
    let bfs = BfsRepair::new(n);
    for s in 0..(1usize << n) {
        let cfg = Config::from_u64(s as u64, n);
        let plan = bfs.shortest_plan(&cfg, &env).expect("always reachable");
        assert_eq!(
            report.level(s),
            Some(plan.len()),
            "state {s:06b}: levels vs BFS"
        );
    }
}

#[test]
fn quality_trajectory_loss_is_zero_iff_never_unfit() {
    let mut rng = seeded_rng(1003);
    let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(8)));
    for _ in 0..10 {
        sys.idle();
    }
    assert_eq!(resilience_loss(sys.quality_trajectory()), 0.0);
    sys.strike(&ShockKind::BitDamage { flips: 1 }, &mut rng);
    sys.repair(&GreedyRepair::new(), 8);
    assert!(resilience_loss(sys.quality_trajectory()) > 0.0);
}
