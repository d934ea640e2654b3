//! Byte-identity safety net for the DCSP verifier's outputs.
//!
//! The equivalence suites compare each engine with a retained reference,
//! but the references build their policies with the same canonical rule
//! as the engines, so a change to that rule moves both sides at once.
//! This suite pins the outputs themselves by digest:
//!
//! * a maintainability report hashes, per state, its level (or
//!   `u64::MAX` when unreachable) and its policy's next state (or
//!   `u64::MAX` when there is none);
//! * a frontier summary hashes its width, its frontier sizes and its
//!   hopeless count;
//! * a recoverability result hashes every report field, the
//!   counterexample (length, then bits) and every `VerifyStats` counter.
//!
//! The instances cover the three state spaces the verifier walks: the
//! explicit transition system, the dense bit-flip space and the popcount
//! orbits. When a change is *meant* to alter an output, the failure
//! message prints the complete new table to paste over `GOLDEN`.

use systems_resilience::core::{
    AllOnes, AtLeastOnes, Config, Constraint, PredicateConstraint, RunContext,
};
use systems_resilience::dcsp::maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, try_analyze_bit_dcsp,
    try_analyze_bit_dcsp_adversarial, MaintainabilityReport, TransitionSystem,
};
use systems_resilience::dcsp::recoverability::{
    check_recoverability, RecoverabilityOptions, RecoverabilityReport, VerifyStats,
};
use systems_resilience::dcsp::repair::GreedyRepair;

/// 64-bit FNV-1a over `u64` words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

fn or_max(x: Option<usize>) -> u64 {
    x.map_or(u64::MAX, |v| v as u64)
}

fn report_digest(report: &MaintainabilityReport) -> u64 {
    fnv1a(
        (0..report.n_states())
            .flat_map(|s| [or_max(report.level(s)), or_max(report.next_state(s))]),
    )
}

fn summary_digest(report: &MaintainabilityReport) -> u64 {
    let sizes = report.frontier_sizes();
    let n_bits = report.n_states().trailing_zeros();
    let mut words = vec![u64::from(n_bits), sizes.len() as u64];
    words.extend(&sizes);
    words.push(report.hopeless());
    fnv1a(words)
}

fn recoverability_digest(report: &RecoverabilityReport, stats: Option<&VerifyStats>) -> u64 {
    let mut words = vec![
        report.k as u64,
        report.cases as u64,
        report.recovered_within_k as u64,
        report.worst_steps as u64,
    ];
    match &report.counterexample {
        Some(bits) => {
            words.push(bits.len() as u64);
            words.extend(bits.iter().map(|&b| b as u64));
        }
        None => words.push(u64::MAX),
    }
    if let Some(stats) = stats {
        words.extend([
            stats.cache_hits,
            stats.cache_misses,
            stats.states_explored,
            stats.orbit_hits,
        ]);
    }
    fnv1a(words)
}

/// SplitMix64: a test-local generator, so the pinned systems do not
/// depend on any library's random stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random system: about a fifth of the states normal, three controllable
/// moves per state and about one and a half exogenous ones (self-loops and
/// duplicates included).
fn random_system(seed: u64, n: usize) -> TransitionSystem {
    let mut rng = SplitMix(seed);
    let mut ts = TransitionSystem::new(n);
    for s in 0..n {
        if rng.below(5) == 0 {
            ts.mark_normal(s);
        }
    }
    for _ in 0..n * 3 {
        ts.add_controllable(rng.below(n), rng.below(n));
        if rng.below(2) == 0 {
            ts.add_exogenous(rng.below(n), rng.below(n));
        }
    }
    ts
}

/// "At least `need` ones" without a declared symmetry, so the bit-DCSP
/// analyses walk the dense bit-flip space.
fn at_least_twin(need: usize) -> PredicateConstraint {
    PredicateConstraint::new("at-least", move |c: &Config| c.count_ones() >= need)
}

/// The quiet and the adversarial (damage 2) orbit reports of
/// `AtLeastOnes(40, 30)`: 2^40 states, past the dense limit.
fn wide_reports() -> [MaintainabilityReport; 2] {
    let wide = AtLeastOnes::new(40, 30);
    [
        try_analyze_bit_dcsp(40, &wide).expect("orbit path"),
        try_analyze_bit_dcsp_adversarial(40, &wide, 2, 1).expect("orbit path"),
    ]
}

fn computed() -> Vec<(String, u64)> {
    let mut out = Vec::new();

    // Dense bit-flip space.
    let twin = at_least_twin(9);
    out.push((
        "dense quiet AtLeastOnes(14, 9) twin".to_string(),
        report_digest(&analyze_bit_dcsp(14, &twin)),
    ));
    for threads in [1, 3] {
        out.push((
            format!("dense adversarial AtLeastOnes(14, 9) twin d=2 threads={threads}"),
            report_digest(&analyze_bit_dcsp_adversarial(14, &twin, 2, threads)),
        ));
    }

    // Explicit transition systems.
    let ts = TransitionSystem::from_bit_dcsp(10, &AtLeastOnes::new(10, 7), 2);
    out.push((
        "explicit quiet from_bit_dcsp(10, AtLeastOnes(10, 7), 2)".to_string(),
        report_digest(&ts.analyze()),
    ));
    out.push((
        "explicit adversarial from_bit_dcsp(10, AtLeastOnes(10, 7), 2) threads=1".to_string(),
        report_digest(&ts.analyze_adversarial(1)),
    ));
    out.push((
        "explicit adversarial from_bit_dcsp(10, AtLeastOnes(10, 7), 2) threads=3".to_string(),
        report_digest(&ts.analyze_adversarial(3)),
    ));
    for (seed, n) in [(1u64, 40usize), (7, 97), (42, 300)] {
        let ts = random_system(seed, n);
        out.push((
            format!("explicit quiet random seed={seed} n={n}"),
            report_digest(&ts.analyze()),
        ));
        out.push((
            format!("explicit adversarial random seed={seed} n={n} threads=1"),
            report_digest(&ts.analyze_adversarial(1)),
        ));
        out.push((
            format!("explicit adversarial random seed={seed} n={n} threads=3"),
            report_digest(&ts.analyze_adversarial(3)),
        ));
    }

    // Popcount orbits, expanded to per-state reports.
    let at_least = AtLeastOnes::new(14, 9);
    let all_ones = AllOnes::new(12);
    out.push((
        "orbit quiet AtLeastOnes(14, 9)".to_string(),
        report_digest(&analyze_bit_dcsp(14, &at_least)),
    ));
    out.push((
        "orbit adversarial AtLeastOnes(14, 9) d=2".to_string(),
        report_digest(&analyze_bit_dcsp_adversarial(14, &at_least, 2, 1)),
    ));
    out.push((
        "orbit quiet AllOnes(12)".to_string(),
        report_digest(&analyze_bit_dcsp(12, &all_ones)),
    ));
    out.push((
        "orbit adversarial AllOnes(12) d=2".to_string(),
        report_digest(&analyze_bit_dcsp_adversarial(12, &all_ones, 2, 1)),
    ));

    // Orbit reports past the dense limit, summarized.
    let [quiet, adversarial] = wide_reports();
    out.push((
        "summary quiet AtLeastOnes(40, 30)".to_string(),
        summary_digest(&quiet),
    ));
    out.push((
        "summary adversarial AtLeastOnes(40, 30) d=2".to_string(),
        summary_digest(&adversarial),
    ));

    // Recoverability: the rank walk with stats (64 ranges), the orbit walk
    // with stats (one range per orbit) and the one-thread rank walk (one
    // range), recoverable and failing.
    let greedy = GreedyRepair::new();
    let check = |start: &Config,
                 env: &dyn Constraint,
                 d: usize,
                 k: usize,
                 ctx: &RunContext,
                 symmetry: bool,
                 stats: bool| {
        let options = RecoverabilityOptions { symmetry, stats };
        check_recoverability(start, env, &greedy, d, k, ctx, options).expect("a fit start")
    };
    let start = Config::ones(14);
    let env = AtLeastOnes::new(14, 13);
    for k in [3, 1] {
        for threads in [1, 3] {
            let ctx = RunContext::with_threads(0, threads);
            let (report, stats) = check(&start, &env, 3, k, &ctx, false, true);
            let stats = stats.expect("greedy repair is deterministic");
            out.push((
                format!("parallel_stats AtLeastOnes(14, 13) d=3 k={k} threads={threads}"),
                recoverability_digest(&report, Some(&stats)),
            ));
        }
    }
    let start = Config::ones(20);
    let env = AllOnes::new(20);
    for k in [4, 3] {
        for threads in [1, 3] {
            let ctx = RunContext::with_threads(0, threads);
            let (report, stats) = check(&start, &env, 4, k, &ctx, true, true);
            let stats = stats.expect("greedy repair is deterministic");
            assert!(stats.orbit_hits > 0, "AllOnes declares symmetry");
            out.push((
                format!("symmetric AllOnes(20) d=4 k={k} threads={threads}"),
                recoverability_digest(&report, Some(&stats)),
            ));
        }
    }
    let start = Config::ones(12);
    let env = at_least_twin(10);
    let (report, _) = check(&start, &env, 4, 1, &RunContext::new(0), false, false);
    assert!(report.counterexample.is_some(), "the failing k fails");
    out.push((
        "exhaustive AtLeastOnes(12, 10) twin d=4 k=1".to_string(),
        recoverability_digest(&report, None),
    ));
    out
}

/// Past the dense limit the orbit reports still answer per state: from
/// 1,000 seeded states the policy reaches a normal state in exactly
/// `level(s)` steps, one level down per step, and hopeless states have
/// no move.
#[test]
fn wide_orbit_reports_walk_to_normal_in_level_steps() {
    let wide = AtLeastOnes::new(40, 30);
    let normal = |s: usize| wide.is_fit(&Config::from_u64(s as u64, 40));
    let mut rng = SplitMix(40);
    let mask = (1u64 << 40) - 1;
    for report in wide_reports() {
        let (mut walked, mut hopeless) = (0, 0);
        for i in 0..1_000 {
            // Alternate plain and OR-ed draws: popcounts near 20 and
            // near 30, so both sides of the threshold are sampled.
            let draw = rng.next() | if i % 2 == 0 { 0 } else { rng.next() };
            let mut s = (draw & mask) as usize;
            let Some(level) = report.level(s) else {
                assert_eq!(report.next_state(s), None, "hopeless {s:#x} has a move");
                hopeless += 1;
                continue;
            };
            for remaining in (1..=level).rev() {
                assert!(!normal(s), "{s:#x} is normal {remaining} steps early");
                let next = report.next_state(s).expect("a non-normal state has a move");
                assert_eq!((s ^ next).count_ones(), 1, "a move flips one bit");
                assert_eq!(report.level(next), Some(remaining - 1));
                s = next;
            }
            assert!(normal(s), "{s:#x} is not normal after {level} steps");
            assert_eq!(report.next_state(s), None);
            walked += 1;
        }
        assert!(walked > 0 && walked + hopeless == 1_000);
    }
}

#[test]
fn verifier_outputs_match_pinned_digests() {
    let got = computed();
    let table: String = got
        .iter()
        .map(|(label, d)| format!("    ({label:?}, 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(label, d)| (label.to_string(), d))
        .collect();
    assert!(
        got == expected,
        "verifier digests changed; if intended, replace GOLDEN with:\n{table}"
    );
}

/// Generated at the commit that introduced this test.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("dense quiet AtLeastOnes(14, 9) twin", 0x431117d0f033980e),
    ("dense adversarial AtLeastOnes(14, 9) twin d=2 threads=1", 0xd14d96c0d7475faa),
    ("dense adversarial AtLeastOnes(14, 9) twin d=2 threads=3", 0xd14d96c0d7475faa),
    ("explicit quiet from_bit_dcsp(10, AtLeastOnes(10, 7), 2)", 0xc3e0231e510ef6ad),
    ("explicit adversarial from_bit_dcsp(10, AtLeastOnes(10, 7), 2) threads=1", 0x024887ff6ebe93dd),
    ("explicit adversarial from_bit_dcsp(10, AtLeastOnes(10, 7), 2) threads=3", 0x024887ff6ebe93dd),
    ("explicit quiet random seed=1 n=40", 0xb6341c5b8fecb5b6),
    ("explicit adversarial random seed=1 n=40 threads=1", 0x39f7e74eddddc13f),
    ("explicit adversarial random seed=1 n=40 threads=3", 0x39f7e74eddddc13f),
    ("explicit quiet random seed=7 n=97", 0xf8dce37eb0cffd74),
    ("explicit adversarial random seed=7 n=97 threads=1", 0xab3b485f65bcbf62),
    ("explicit adversarial random seed=7 n=97 threads=3", 0xab3b485f65bcbf62),
    ("explicit quiet random seed=42 n=300", 0x1922873c42ab47e0),
    ("explicit adversarial random seed=42 n=300 threads=1", 0xb10b62649cc1bfc9),
    ("explicit adversarial random seed=42 n=300 threads=3", 0xb10b62649cc1bfc9),
    ("orbit quiet AtLeastOnes(14, 9)", 0x431117d0f033980e),
    ("orbit adversarial AtLeastOnes(14, 9) d=2", 0xd14d96c0d7475faa),
    ("orbit quiet AllOnes(12)", 0x021e8900a5bf7e75),
    ("orbit adversarial AllOnes(12) d=2", 0xe41488b649625c9e),
    ("summary quiet AtLeastOnes(40, 30)", 0x0a08ac031c7c5bca),
    ("summary adversarial AtLeastOnes(40, 30) d=2", 0xe2aff185b8c7a66a),
    ("parallel_stats AtLeastOnes(14, 13) d=3 k=3 threads=1", 0xfb9117b71f98071f),
    ("parallel_stats AtLeastOnes(14, 13) d=3 k=3 threads=3", 0xfb9117b71f98071f),
    ("parallel_stats AtLeastOnes(14, 13) d=3 k=1 threads=1", 0x01b857122713e277),
    ("parallel_stats AtLeastOnes(14, 13) d=3 k=1 threads=3", 0x01b857122713e277),
    ("symmetric AllOnes(20) d=4 k=4 threads=1", 0x9855fd824474d5e3),
    ("symmetric AllOnes(20) d=4 k=4 threads=3", 0x9855fd824474d5e3),
    ("symmetric AllOnes(20) d=4 k=3 threads=1", 0xebf43db4ef85f247),
    ("symmetric AllOnes(20) d=4 k=3 threads=3", 0xebf43db4ef85f247),
    ("exhaustive AtLeastOnes(12, 10) twin d=4 k=1", 0x7014a72b43af9baa),
];
