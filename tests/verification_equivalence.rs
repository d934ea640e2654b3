//! Property-based equivalence of the high-throughput verification engine
//! against the retained reference implementations.
//!
//! The engine (memoized exhaustive recoverability on the rank or orbit
//! walk, under every `RecoverabilityOptions` value; CSR + bitset-BFS +
//! Jacobi maintainability) must produce *identical* reports — including
//! the counterexample and the policy — to the straightforward sequential
//! checkers it replaced, on arbitrary inputs, for any thread count.

use proptest::prelude::*;

use systems_resilience::core::{seeded_rng, AtLeastOnes, Config, RunContext};
use systems_resilience::dcsp::maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, TransitionSystem,
};
use systems_resilience::dcsp::recoverability::{
    check_recoverability, recoverability_reference, RecoverabilityOptions,
};
use systems_resilience::dcsp::repair::{BfsRepair, GreedyRepair, RepairStrategy};

use rand::Rng;

/// Random transition system with `n` states: sparse normal set plus random
/// controllable/exogenous edges (self-loops and duplicates included — the
/// engine must tolerate both).
fn random_system(seed: u64, n: usize, edge_factor: usize) -> TransitionSystem {
    let mut rng = seeded_rng(seed);
    let mut ts = TransitionSystem::new(n);
    for s in 0..n {
        if rng.gen_bool(0.25) {
            ts.mark_normal(s);
        }
    }
    for _ in 0..n * edge_factor {
        ts.add_controllable(rng.gen_range(0..n), rng.gen_range(0..n));
        if rng.gen_bool(0.6) {
            ts.add_exogenous(rng.gen_range(0..n), rng.gen_range(0..n));
        }
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exhaustive k-recoverability: every option value — symmetry on and
    /// off, stats on and off — at 1, 2, 3 and the drawn number of threads
    /// agrees with the sequential reference checker bit-for-bit — same
    /// case count, same worst repair distance, same verdict, and the
    /// *same* (lowest-rank) counterexample — for arbitrary constraints,
    /// damage bounds, budgets and strategies. The stats are the same for
    /// every thread budget, and count orbit hits exactly when the orbit
    /// walk ran.
    #[test]
    fn recoverability_engine_matches_reference(
        n in 2usize..10,
        damage in 0usize..4,
        k in 0usize..5,
        need_frac in 0.2f64..1.0,
        threads in 1usize..5,
    ) {
        let need = (((n as f64) * need_frac).ceil() as usize).clamp(1, n);
        let env = AtLeastOnes::new(n, need);
        let start = Config::ones(n);
        let strategies: [Box<dyn RepairStrategy>; 2] =
            [Box::new(GreedyRepair::new()), Box::new(BfsRepair::new(n))];
        for strategy in &strategies {
            let reference =
                recoverability_reference(&start, &env, strategy.as_ref(), damage, k);
            for symmetry in [false, true] {
                let mut first_stats = None;
                for stats in [false, true] {
                    for threads in [1, 2, 3, threads] {
                        let ctx = RunContext::with_threads(0, threads);
                        let options = RecoverabilityOptions { symmetry, stats };
                        let (report, got) = check_recoverability(
                            &start, &env, strategy.as_ref(), damage, k, &ctx, options,
                        )
                        .expect("ones(n) is fit under AtLeastOnes(n, need)");
                        prop_assert!(
                            report == reference,
                            "{options:?} threads={threads}: {report:?} vs {reference:?}"
                        );
                        prop_assert_eq!(got.is_some(), stats);
                        if let Some(got) = got {
                            // AtLeastOnes declares symmetry and both
                            // strategies respect it; n ≥ 2, so any damage
                            // leaves an orbit of more than one pattern.
                            prop_assert_eq!(got.orbit_hits > 0, symmetry && damage > 0);
                            match first_stats {
                                None => first_stats = Some(got),
                                Some(want) => prop_assert!(
                                    got == want,
                                    "threads={threads}: {got:?} vs {want:?}"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }

    /// CSR + bitset-BFS maintainability and Jacobi adversarial
    /// maintainability produce reports identical to the reference
    /// implementations on random transition systems, independent of the
    /// thread count.
    #[test]
    fn maintainability_engine_matches_reference(
        seed in any::<u64>(),
        n in 1usize..48,
        edge_factor in 0usize..5,
        threads in 1usize..5,
    ) {
        let ts = random_system(seed, n, edge_factor);
        prop_assert_eq!(ts.analyze(), ts.analyze_reference());
        let adversarial = ts.analyze_adversarial(1);
        prop_assert_eq!(&adversarial, &ts.analyze_adversarial_reference());
        prop_assert_eq!(&adversarial, &ts.analyze_adversarial(threads));
    }

    /// The implicit (on-the-fly) bit-DCSP checkers match the explicit
    /// transition-system construction exactly, including policies.
    #[test]
    fn implicit_bit_dcsp_matches_explicit(
        n in 1usize..8,
        need_frac in 0.2f64..1.0,
        damage in 0usize..3,
        threads in 1usize..5,
    ) {
        let need = (((n as f64) * need_frac).ceil() as usize).clamp(1, n);
        let env = AtLeastOnes::new(n, need);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, damage);
        prop_assert_eq!(analyze_bit_dcsp(n, &env), ts.analyze());
        let explicit = ts.analyze_adversarial(1);
        prop_assert_eq!(
            &analyze_bit_dcsp_adversarial(n, &env, damage, threads),
            &explicit
        );
    }
}
