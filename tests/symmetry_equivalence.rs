//! Property-based equivalence of the ceiling-breaking verification paths
//! against the engines they accelerate.
//!
//! The symmetry-reduced recoverability checker (one repair walk per
//! damage *orbit*, counts multiplied by orbit size) and the
//! popcount-orbit maintainability path (both analyses solved on the
//! `n + 1` popcount orbits, then expanded or summarized) must be
//! observationally invisible: identical reports — including the
//! counterexample, the levels and the policy — to the unreduced/dense
//! paths they replace, on arbitrary inputs, for any thread count, with or
//! without chaos fault injection in the run context. The dense
//! maintainability path is reached through a `PredicateConstraint` twin:
//! the same fit set with no declared symmetry.

use std::sync::Arc;

use proptest::prelude::*;

use systems_resilience::core::{
    AllOnes, AtLeastOnes, Config, Constraint, FaultConfig, PredicateConstraint, RunContext,
    Supervision,
};
use systems_resilience::dcsp::maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, analyze_bit_dcsp_adversarial_frontiers,
    analyze_bit_dcsp_frontiers, MaintainabilityReport,
};
use systems_resilience::dcsp::recoverability::{
    is_k_recoverable_exhaustive, is_k_recoverable_exhaustive_parallel, is_k_recoverable_symmetric,
    is_k_recoverable_symmetric_stats,
};
use systems_resilience::dcsp::repair::{BfsRepair, GreedyRepair, RepairStrategy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Orbit reduction is invisible: for symmetric counting constraints
    /// the reduced checker must reproduce the exhaustive engine's report
    /// bit-for-bit — case counts, worst repair distance, verdict, and the
    /// lowest-ranked counterexample — for arbitrary thresholds, damage
    /// bounds, budgets, strategies, and thread counts.
    #[test]
    fn orbit_reduction_matches_exhaustive(
        n in 4usize..12,
        damage in 1usize..4,
        k in 0usize..5,
        need_frac in 0.3f64..1.0,
        use_bfs in any::<bool>(),
        threads in 1usize..5,
    ) {
        let need = (((n as f64) * need_frac).ceil() as usize).clamp(1, n);
        let start = Config::ones(n);
        let greedy = GreedyRepair::new();
        let bfs = BfsRepair::new(k.max(1));
        let strategy: &dyn RepairStrategy = if use_bfs { &bfs } else { &greedy };
        let ctx = RunContext::with_threads(0, threads);
        let env = AtLeastOnes::new(n, need);
        let sym = is_k_recoverable_symmetric(&start, &env, strategy, damage, k, &ctx)
            .expect("counting constraints declare symmetry");
        let full = is_k_recoverable_exhaustive(&start, &env, strategy, damage, k);
        prop_assert_eq!(sym, full);
    }

    /// The symmetric checker's report *and* its telemetry counters are a
    /// pure function of the problem: bit-identical for 1, 2, and 4
    /// threads.
    #[test]
    fn symmetric_reports_and_stats_are_thread_invariant(
        n in 4usize..11,
        damage in 1usize..4,
        k in 0usize..4,
    ) {
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let mut first = None;
        for threads in [1usize, 2, 4] {
            let ctx = RunContext::with_threads(0, threads);
            let got = is_k_recoverable_symmetric_stats(
                &start, &env, &GreedyRepair::new(), damage, k, &ctx,
            )
            .expect("AllOnes declares symmetry");
            match &first {
                None => first = Some(got),
                Some(want) => prop_assert_eq!(&got, want),
            }
        }
    }

    /// Orbit-path reports equal the dense twin's, state by state —
    /// levels and policy, quiet and adversarial — for `AtLeastOnes`,
    /// `AllOnes` and arbitrary popcount sets, and for a partition that
    /// covers one bit fewer than the state (which must stay dense).
    #[test]
    fn orbit_reports_match_dense_twin(
        n in 1usize..=14,
        kind in 0usize..4,
        fit in any::<u64>(),
        damage in 0usize..=3,
        threads in 1usize..=4,
    ) {
        let set = fit & ((1u64 << (n + 1)) - 1);
        let env: Arc<dyn Constraint> = match kind {
            0 => Arc::new(AtLeastOnes::new(n, fit as usize % (n + 1))),
            1 => Arc::new(AllOnes::new(n)),
            2 => popcount_in(n, set),
            _ => popcount_in(n - 1, set),
        };
        for (orbit, dense) in orbit_and_twin_reports(n, &env, damage, threads) {
            prop_assert_eq!(orbit, dense);
        }
    }

    /// Quiet orbit summaries equal the dense twin's per-state analysis on
    /// arbitrary thresholds.
    #[test]
    fn orbit_quiet_frontiers_match_dense(
        n_bits in 1usize..13,
        need_frac in 0.0f64..1.0,
    ) {
        let need = ((n_bits as f64) * need_frac).ceil() as usize;
        let env: Arc<dyn Constraint> = Arc::new(AtLeastOnes::new(n_bits, need));
        let summary = analyze_bit_dcsp_frontiers(n_bits, env.as_ref())
            .expect("orbits reach 2^63 states");
        let dense = analyze_bit_dcsp(n_bits, &twin(&env));
        prop_assert_eq!(&summary.frontier_sizes, &dense.frontier_sizes());
        prop_assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
        prop_assert_eq!(summary.min_k(), dense.min_k());
    }

    /// Adversarial orbit summaries equal the dense twin's min-max value
    /// iteration level histogram.
    #[test]
    fn orbit_adversarial_frontiers_match_dense(
        n_bits in 1usize..11,
        need_gap in 0usize..4,
        damage in 0usize..3,
        threads in 1usize..4,
    ) {
        let env: Arc<dyn Constraint> =
            Arc::new(AtLeastOnes::new(n_bits, n_bits - need_gap.min(n_bits)));
        let summary = analyze_bit_dcsp_adversarial_frontiers(n_bits, env.as_ref(), damage, threads)
            .expect("orbits reach 2^63 states");
        let dense = analyze_bit_dcsp_adversarial(n_bits, &twin(&env), damage, threads);
        prop_assert_eq!(&summary.frontier_sizes, &dense.frontier_sizes());
        prop_assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
    }
}

/// Fit iff the popcount of the first `span` bits is in `set` (bit `p` of
/// `set` admits popcount `p`). Declares one interchangeability class over
/// those `span` bits: full symmetry exactly when `span` is the state
/// width.
struct PopcountIn {
    span: usize,
    set: u64,
}

impl Constraint for PopcountIn {
    fn is_fit(&self, config: &Config) -> bool {
        let p = (0..self.span.min(config.len()))
            .filter(|&i| config.get(i))
            .count();
        self.set >> p & 1 == 1
    }

    fn symmetry_classes(&self) -> Option<Vec<usize>> {
        Some(vec![0; self.span])
    }
}

/// The same fit set as `env` with no declared symmetry, so the
/// maintainability checkers take their dense per-state path on it.
fn twin(env: &Arc<dyn Constraint>) -> PredicateConstraint {
    let env = Arc::clone(env);
    PredicateConstraint::new(format!("twin of {}", env.describe()), move |c| {
        env.is_fit(c)
    })
}

fn popcount_in(span: usize, set: u64) -> Arc<dyn Constraint> {
    Arc::new(PopcountIn { span, set })
}

/// `[quiet, adversarial]`, each as `(orbit-path report, dense twin
/// report)`.
fn orbit_and_twin_reports(
    n: usize,
    env: &Arc<dyn Constraint>,
    damage: usize,
    threads: usize,
) -> [(MaintainabilityReport, MaintainabilityReport); 2] {
    let dense = twin(env);
    [
        (
            analyze_bit_dcsp(n, env.as_ref()),
            analyze_bit_dcsp(n, &dense),
        ),
        (
            analyze_bit_dcsp_adversarial(n, env.as_ref(), damage, 1),
            analyze_bit_dcsp_adversarial(n, &dense, damage, threads),
        ),
    ]
}

/// Whole-report equivalence on chosen cases, at scale (n = 16 and 20,
/// among them the reference benchmark's `AtLeastOnes(20, 14)` at damage
/// 2), and a check that the cases reach the interesting corners: an
/// adversarial report with `min_k() >= Some(2)` and a quiet state whose
/// lower and upper neighbouring orbits both lead toward normality.
#[test]
fn orbit_reports_match_dense_twin_at_scale() {
    let cases: [(usize, Arc<dyn Constraint>, usize); 6] = [
        (6, popcount_in(6, 0b100_0001), 0),
        (9, popcount_in(9, 0b10_0010_0100), 1),
        (10, popcount_in(9, 0b11_1000), 2),
        (12, Arc::new(AllOnes::new(12)), 3),
        (16, Arc::new(AtLeastOnes::new(16, 10)), 2),
        (20, Arc::new(AtLeastOnes::new(20, 14)), 2),
    ];
    let (mut deep_adversarial, mut two_way_state) = (false, false);
    for (n, env, damage) in &cases {
        let [(quiet, quiet_dense), (adv, adv_dense)] = orbit_and_twin_reports(*n, env, *damage, 2);
        assert_eq!(quiet, quiet_dense, "quiet n={n} {env:?}");
        assert_eq!(adv, adv_dense, "adversarial n={n} d={damage} {env:?}");
        deep_adversarial |= adv.min_k() >= Some(2);
        two_way_state = two_way_state
            || (0..1usize << n).any(|s| {
                let Some(l) = quiet.levels[s].filter(|&l| l > 0) else {
                    return false;
                };
                let reaches = |b: usize| quiet.levels[s ^ (1 << b)] == Some(l - 1);
                let down = (0..*n).filter(|b| s >> b & 1 == 1).any(reaches);
                let up = (0..*n).filter(|b| s >> b & 1 == 0).any(reaches);
                down && up
            });
    }
    assert!(deep_adversarial, "no adversarial report with min_k >= 2");
    assert!(two_way_state, "no quiet state with both directions optimal");
}

/// The 2^12–2^20 band the dense engine still reaches: the orbit
/// summaries must agree exactly with the dense twin at every size.
#[test]
fn orbit_frontiers_match_dense_at_scale() {
    for (n_bits, need) in [(12usize, 7usize), (16, 10), (20, 13)] {
        let env: Arc<dyn Constraint> = Arc::new(AtLeastOnes::new(n_bits, need));
        let dense = analyze_bit_dcsp(n_bits, &twin(&env));
        let summary =
            analyze_bit_dcsp_frontiers(n_bits, env.as_ref()).expect("orbits reach 2^63 states");
        assert_eq!(summary.frontier_sizes, dense.frontier_sizes(), "n={n_bits}");
        assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
        let dense = analyze_bit_dcsp_adversarial(n_bits, &twin(&env), 2, 4);
        let summary = analyze_bit_dcsp_adversarial_frontiers(n_bits, env.as_ref(), 2, 4)
            .expect("orbits reach 2^63 states");
        assert_eq!(summary.frontier_sizes, dense.frontier_sizes(), "n={n_bits}");
        assert_eq!(summary.hopeless, dense.hopeless_states().len() as u64);
    }
}

/// Chaos fault injection in the run context (panics, delays, poisoned
/// slots, all recoverable) must not perturb verification output: the
/// symmetric and exhaustive parallel checkers stay bit-identical to an
/// unsupervised run at every thread count.
#[test]
fn chaos_supervision_leaves_verification_bit_identical() {
    let cfg = FaultConfig::parse(
        "seed=11,panic=0.2,delay=0.05,delay_ms=1,poison=0.15,times=2,retries=3,backoff_ms=1",
    )
    .expect("valid chaos spec");
    let start = Config::ones(10);
    let env = AllOnes::new(10);
    let clean_sym = is_k_recoverable_symmetric(
        &start,
        &env,
        &GreedyRepair::new(),
        3,
        3,
        &RunContext::with_threads(0, 2),
    )
    .expect("symmetric");
    let clean_full = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 3, 3);
    for threads in [1usize, 2, 4] {
        let ctx = RunContext::with_threads(0, threads)
            .supervised(Supervision::new("symmetry-chaos", cfg.clone()));
        let sym = is_k_recoverable_symmetric(&start, &env, &GreedyRepair::new(), 3, 3, &ctx)
            .expect("symmetric");
        assert_eq!(sym, clean_sym, "symmetric threads={threads}");
        let ctx = RunContext::with_threads(0, threads)
            .supervised(Supervision::new("exhaustive-chaos", cfg.clone()));
        let full =
            is_k_recoverable_exhaustive_parallel(&start, &env, &GreedyRepair::new(), 3, 3, &ctx);
        assert_eq!(full, clean_full, "exhaustive threads={threads}");
    }
}
