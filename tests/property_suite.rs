//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary parameters, not just the hand-picked cases in unit tests.

use proptest::prelude::*;

use systems_resilience::core::{
    seeded_rng, AllOnes, AtLeastOnes, Config, Constraint, RunContext, ShockKind,
};
use systems_resilience::dcsp::recoverability::{
    check_recoverability, RecoverabilityOptions, RecoverabilityReport,
};
use systems_resilience::dcsp::repair::{BfsRepair, GreedyRepair, RepairStrategy};
use systems_resilience::engineering::nversion::{DesignStrategy, NVersionController};
use systems_resilience::engineering::storage::StorageArray;
use systems_resilience::networks::generators::erdos_renyi;
use systems_resilience::networks::percolation::removal_curve;
use systems_resilience::stats::ews::kendall_tau;

/// Greedy repair's one-thread rank walk from `ones(n)` under `AllOnes(n)`.
fn exhaustive(n: usize, damage: usize, k: usize) -> RecoverabilityReport {
    let ctx = RunContext::new(0);
    let options = RecoverabilityOptions::default();
    let (start, env) = (Config::ones(n), AllOnes::new(n));
    check_recoverability(&start, &env, &GreedyRepair::new(), damage, k, &ctx, options)
        .expect("ones(n) is fit under AllOnes(n)")
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// k-recoverability is monotone in the repair budget k.
    #[test]
    fn recoverability_monotone_in_k(n in 4usize..9, damage in 1usize..4) {
        let mut prev_recovered = 0usize;
        for k in 0..=damage {
            let report = exhaustive(n, damage, k);
            prop_assert!(report.recovered_within_k >= prev_recovered,
                "k={k}: {} < {prev_recovered}", report.recovered_within_k);
            prev_recovered = report.recovered_within_k;
        }
        // And at k = damage the system is fully recoverable.
        let full = exhaustive(n, damage, damage);
        prop_assert!(full.is_k_recoverable());
    }

    /// BFS never needs more flips than greedy on any AllOnes instance
    /// (both are optimal there), and on AtLeastOnes BFS ≤ greedy.
    #[test]
    fn bfs_is_no_worse_than_greedy(n in 4usize..10, need_frac in 0.3f64..1.0, seed in any::<u64>()) {
        let need = ((n as f64) * need_frac).ceil() as usize;
        let env = AtLeastOnes::new(n, need.min(n));
        let mut rng = seeded_rng(seed);
        let mut state = Config::random(n, &mut rng);
        // Greedy steps.
        let mut greedy_state = state.clone();
        let greedy = GreedyRepair::new();
        let mut greedy_steps = 0;
        while !env.is_fit(&greedy_state) && greedy_steps <= n {
            match greedy.propose_flip(&greedy_state, &env) {
                Some(b) => { greedy_state.flip(b); greedy_steps += 1; }
                None => break,
            }
        }
        // BFS plan.
        let plan = BfsRepair::new(n).shortest_plan(&state, &env);
        if let Some(plan) = plan {
            prop_assert!(plan.len() <= greedy_steps || !env.is_fit(&greedy_state));
            // Executing the plan really repairs.
            for b in plan { state.flip(b); }
            prop_assert!(env.is_fit(&state));
        }
    }

    /// Every shock kind damages at most its declared worst case.
    #[test]
    fn shock_damage_within_worst_case(n in 1usize..80, flips in 0usize..20, seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        for kind in [
            ShockKind::BitDamage { flips },
            ShockKind::BoundedBitDamage { max_flips: flips },
            ShockKind::ComponentLoss { count: flips },
        ] {
            let mut state = Config::random(n, &mut rng);
            let shock = kind.strike(&mut state, &mut rng);
            if let Some(worst) = kind.worst_case_damage(n) {
                prop_assert!(shock.magnitude() <= worst, "{kind:?}");
            }
        }
    }

    /// Removal curves are monotone non-increasing for arbitrary random
    /// graphs and removal prefixes.
    #[test]
    fn removal_curves_monotone(n in 5usize..60, p in 0.0f64..0.3, removals_frac in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let g = erdos_renyi(n, p, &mut rng);
        let k = ((n as f64) * removals_frac) as usize;
        let order: Vec<usize> = (0..k).collect();
        let curve = removal_curve(&g, &order);
        prop_assert_eq!(curve.len(), k + 1);
        for w in curve.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-12);
        }
        prop_assert!(curve.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    /// N-version analytic failure probabilities are proper probabilities,
    /// and adding diverse units never hurts.
    #[test]
    fn nversion_analytic_sane(flaw in 0.0f64..0.5, hw in 0.0f64..0.5) {
        for units in [1usize, 3, 5, 7] {
            for strategy in [DesignStrategy::Identical, DesignStrategy::Diverse] {
                let c = NVersionController::new(units, strategy, flaw, hw);
                let p = c.analytic_failure_probability();
                prop_assert!((0.0..=1.0 + 1e-12).contains(&p), "{units} {strategy:?}: {p}");
            }
        }
        let d3 = NVersionController::new(3, DesignStrategy::Diverse, flaw, hw)
            .analytic_failure_probability();
        let d5 = NVersionController::new(5, DesignStrategy::Diverse, flaw, hw)
            .analytic_failure_probability();
        // More diverse redundancy helps whenever units are better than
        // coin flips.
        if (1.0 - (1.0 - flaw) * (1.0 - hw)) < 0.5 {
            prop_assert!(d5 <= d3 + 1e-12, "d5 {d5} vs d3 {d3}");
        }
    }

    /// Snapshot data-loss probability is monotone in the per-disk failure
    /// probability and anti-monotone in parity.
    #[test]
    fn storage_snapshot_monotonicity(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let array = StorageArray::new(6, 2, 0.0, 1);
        prop_assert!(array.snapshot_loss_probability(lo) <= array.snapshot_loss_probability(hi) + 1e-12);
        let less_parity = StorageArray::new(6, 1, 0.0, 1);
        prop_assert!(array.snapshot_loss_probability(lo) <= less_parity.snapshot_loss_probability(lo) + 1e-12);
    }

    /// Kendall τ is antisymmetric under negating one argument and
    /// symmetric under swapping.
    #[test]
    fn kendall_tau_symmetries(values in proptest::collection::vec(-100.0f64..100.0, 3..40)) {
        let time: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
        let tau = kendall_tau(&time, &values);
        let negated: Vec<f64> = values.iter().map(|v| -v).collect();
        let tau_neg = kendall_tau(&time, &negated);
        prop_assert!((tau + tau_neg).abs() < 1e-12);
        let tau_swapped = kendall_tau(&values, &time);
        prop_assert!((tau - tau_swapped).abs() < 1e-12);
        prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&tau));
    }

    /// Bruneau loss is invariant under padding with full-quality samples,
    /// provided the trajectory already starts and ends at full quality
    /// (otherwise the junction trapezoid adds area, as it should).
    #[test]
    fn bruneau_invariant_under_healthy_padding(values in proptest::collection::vec(0.0f64..100.0, 2..40), pad in 0usize..20) {
        use systems_resilience::core::{resilience_loss, QualityTrajectory};
        let mut episode = vec![100.0];
        episode.extend(values);
        episode.push(100.0);
        let base = QualityTrajectory::from_samples(1.0, episode.clone());
        let mut padded_values = vec![100.0; pad];
        padded_values.extend(episode);
        padded_values.extend(vec![100.0; pad]);
        let padded = QualityTrajectory::from_samples(1.0, padded_values);
        prop_assert!((resilience_loss(&base) - resilience_loss(&padded)).abs() < 1e-9);
    }

    /// The diversity index never exceeds richness.
    #[test]
    fn diversity_bounded_by_richness(pops in proptest::collection::vec(0.0f64..1e5, 1..30)) {
        use systems_resilience::ecology::{diversity_index, richness};
        if pops.iter().sum::<f64>() > 0.0 {
            let g = diversity_index(&pops).unwrap();
            prop_assert!(g <= richness(&pops) as f64 + 1e-9);
        }
    }
}
