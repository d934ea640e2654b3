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

/// The least single-flip budget the verifier certifies for damage up to
/// `damage` from `1ⁿ`, with the counterexample one budget below it
/// (`None` when that least budget is 0).
fn least_certified_budget(n: usize, damage: usize) -> (usize, Option<Vec<usize>>) {
    let start = Config::ones(n);
    let env = AllOnes::new(n);
    let mut below = None;
    for k in 0..=n {
        let report = exhaustive(&start, &env, damage, k);
        if report.is_k_recoverable() {
            return (k, below);
        }
        below = Some(report.counterexample.expect("a failed bound has a witness"));
    }
    panic!("n {n}, damage {damage}: no budget up to n certified");
}

#[test]
fn recoverability_matches_spacecraft_guarantee() {
    // The simulated spacecraft against the exhaustive DCSP checker, over
    // n ≤ 16, damage d ≤ 4 and r ∈ {1, 2, 3} repairs per step: the
    // verifier certifies k* single flips, so r flips a step need
    // ⌈k*/r⌉ steps, which is exactly what guaranteed_k() promises.
    use systems_resilience::core::ShockSchedule;
    for n in 1..=16usize {
        for d in 0..=n.min(4) {
            let (k_star, counterexample) = least_certified_budget(n, d);
            for r in 1..=3usize {
                let craft = Spacecraft::new(n, d, r);
                let k = craft.guaranteed_k();
                let at = format!("n {n}, d {d}, r {r}");
                // 1. The promise is the certified budget in steps of r.
                assert_eq!(k, k_star.div_ceil(r), "{at}");
                // 2. The witness at k* − 1 needs exactly ⌈k*/r⌉ budgeted
                //    repair steps.
                if let Some(damaged) = &counterexample {
                    let mut state = Config::ones(n);
                    damaged.iter().for_each(|&bit| state.flip(bit));
                    let goal = Config::ones(n);
                    assert_eq!(damaged.len(), k_star, "{at}");
                    // Bounded, so a step that stalls fails instead of hanging.
                    let mut steps = 0;
                    while state != goal && steps <= n {
                        let remaining = state.hamming(&goal).unwrap();
                        assert_eq!(state.flip_toward(&goal, r), Ok(remaining.min(r)), "{at}");
                        steps += 1;
                    }
                    assert_eq!(steps, k_star.div_ceil(r), "{at}");
                }
                // 3. Debris every k + 1 steps or more never keeps the
                //    craft down longer than k.
                for period in [k + 1, k + 2, 2 * k + 3] {
                    for seed in 0..3u64 {
                        let mut craft = Spacecraft::new(n, d, r);
                        let mut rng = seeded_rng(seed ^ (((n * 64 + d * 8 + r) as u64) << 16));
                        let schedule = ShockSchedule::Periodic { period };
                        let log = craft.simulate_mission(120, &schedule, &mut rng);
                        assert!(log.strikes > 0, "{at}, period {period}");
                        assert!(
                            log.longest_outage <= k,
                            "{at}, period {period}, seed {seed}: outage {}",
                            log.longest_outage
                        );
                    }
                }
            }
        }
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
