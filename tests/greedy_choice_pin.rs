//! Pins `GreedyRepair::propose_flip` to the probe loop it is defined by:
//! flip each bit of a copy in turn, read the violation, flip it back,
//! and keep the strictly lowest violation below the current one, the
//! lowest index on ties.
//!
//! Every `Constraint` in the workspace is covered (the counting ones,
//! the explicit set, predicates, the cost adapter and the three
//! combinators), plus a copy of E17's decoy landscape and a landscape
//! with NaN and infinite violations. States are seeded: random ones,
//! lightly damaged fit ones, and every state on the greedy walk from
//! them. Lengths straddle the word boundaries, and each constraint also
//! sees configurations of the wrong length. E17's own landscape is
//! private to its experiment, so it is reached through the E17 table.

use std::sync::Arc;

use rand::Rng;
use systems_resilience::core::{
    seeded_rng, AllOnes, AndConstraint, AtLeastOnes, Config, Constraint, ExplicitSet,
    NotConstraint, OrConstraint, PredicateConstraint, RunContext,
};
use systems_resilience::dcsp::repair::{GreedyRepair, RepairStrategy};
use systems_resilience::dcsp::{CostConstraint, WeightedMismatch};

const LENGTHS: [usize; 8] = [0, 1, 2, 24, 63, 64, 65, 130];

/// The greedy choice as a plain probe loop over a cloned state.
fn probe_loop_choice(state: &Config, env: &dyn Constraint) -> Option<usize> {
    let current = env.violation(state);
    let mut best: Option<(usize, f64)> = None;
    let mut probe = state.clone();
    for i in 0..state.len() {
        probe.flip(i);
        let v = env.violation(&probe);
        probe.flip(i);
        if v < current {
            match best {
                Some((_, bv)) if bv <= v => {}
                _ => best = Some((i, v)),
            }
        }
    }
    best.map(|(i, _)| i)
}

/// E17's decoy landscape: all ones is fit, but the state with bits 0–2
/// cleared reads an almost-fit 0.2 and is a dead end.
struct Decoy {
    n: usize,
    decoy: Config,
}

impl Decoy {
    fn new(n: usize) -> Self {
        let mut decoy = Config::ones(n);
        (0..n.min(3)).for_each(|i| decoy.clear(i));
        Decoy { n, decoy }
    }
}

impl Constraint for Decoy {
    fn is_fit(&self, config: &Config) -> bool {
        config.len() == self.n && config.count_ones() == self.n
    }

    fn violation(&self, config: &Config) -> f64 {
        if config.len() != self.n {
            return f64::INFINITY;
        }
        if config == &self.decoy {
            0.2
        } else {
            config.count_zeros() as f64
        }
    }
}

/// A landscape with holes: NaN where the popcount is a multiple of 5,
/// infinite where it is a multiple of 7, the zero count elsewhere.
struct Holes {
    n: usize,
}

impl Constraint for Holes {
    fn is_fit(&self, config: &Config) -> bool {
        config.len() == self.n && config.count_ones() == self.n
    }

    fn violation(&self, config: &Config) -> f64 {
        let ones = config.count_ones();
        if ones == self.n {
            0.0
        } else if ones.is_multiple_of(5) {
            f64::NAN
        } else if ones.is_multiple_of(7) {
            f64::INFINITY
        } else {
            config.count_zeros() as f64
        }
    }
}

/// Every constraint shape of the workspace at length `n`, built from
/// `seed`.
fn constraints(n: usize, seed: u64) -> Vec<(String, Arc<dyn Constraint>)> {
    let mut rng = seeded_rng(seed);
    let all_ones: Arc<dyn Constraint> = Arc::new(AllOnes::new(n));
    let at_least: Arc<dyn Constraint> = Arc::new(AtLeastOnes::new(n, n / 2));
    let at_least_all: Arc<dyn Constraint> = Arc::new(AtLeastOnes::new(n, n));
    let at_least_none: Arc<dyn Constraint> = Arc::new(AtLeastOnes::new(n, 0));
    let members: Vec<Config> = (0..4).map(|_| Config::random(n, &mut rng)).collect();
    let explicit: Arc<dyn Constraint> = Arc::new(ExplicitSet::new(members));
    let predicate: Arc<dyn Constraint> = Arc::new(PredicateConstraint::new(
        "bit 0 set and at least half ones",
        |c: &Config| !c.is_empty() && c.get(0) && 2 * c.count_ones() >= c.len(),
    ));
    // Weights that are not dyadic, so the cost's float sum is
    // order-sensitive.
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..3.0)).collect();
    let target = Config::random(n, &mut rng);
    let cost: Arc<dyn Constraint> = Arc::new(CostConstraint::new(
        "weighted mismatch",
        Arc::new(WeightedMismatch::new(target, weights)),
        0.7,
        Some(n),
    ));
    let and: Arc<dyn Constraint> = Arc::new(AndConstraint::new(vec![
        all_ones.clone(),
        cost.clone(),
        at_least.clone(),
    ]));
    let or: Arc<dyn Constraint> = Arc::new(OrConstraint::new(vec![
        at_least_all.clone(),
        explicit.clone(),
        cost.clone(),
    ]));
    let not: Arc<dyn Constraint> = Arc::new(NotConstraint::new(at_least.clone()));
    let nested: Arc<dyn Constraint> = Arc::new(AndConstraint::new(vec![
        or.clone(),
        Arc::new(OrConstraint::new(vec![predicate.clone(), not.clone()])),
    ]));
    let empty_and: Arc<dyn Constraint> = Arc::new(AndConstraint::new(Vec::new()));
    let empty_or: Arc<dyn Constraint> = Arc::new(OrConstraint::new(Vec::new()));
    vec![
        ("all ones".into(), all_ones),
        ("at least half".into(), at_least),
        ("at least all".into(), at_least_all),
        ("at least none".into(), at_least_none),
        ("explicit".into(), explicit),
        ("predicate".into(), predicate),
        ("cost".into(), cost),
        ("and".into(), and),
        ("or".into(), or),
        ("not".into(), not),
        ("nested".into(), nested),
        ("empty and".into(), empty_and),
        ("empty or".into(), empty_or),
        ("decoy".into(), Arc::new(Decoy::new(n))),
        ("holes".into(), Arc::new(Holes { n })),
    ]
}

/// Seeded starting states at length `len`.
fn states(len: usize, seed: u64) -> Vec<Config> {
    let mut rng = seeded_rng(seed);
    let mut out = vec![Config::zeros(len), Config::ones(len)];
    for _ in 0..4 {
        out.push(Config::random(len, &mut rng));
    }
    for flips in [1, 2, 3, 5] {
        let mut damaged = Config::ones(len);
        damaged.flip_random(flips, &mut rng);
        out.push(damaged);
    }
    out
}

/// Compare the proposal on `start` and on every state of the greedy
/// walk from it (at most `len + 2` steps); returns the states checked.
fn check_walk(name: &str, env: &dyn Constraint, start: &Config) -> usize {
    let greedy = GreedyRepair::new();
    let mut state = start.clone();
    let mut checked = 0;
    for _ in 0..start.len() + 2 {
        let got = greedy.propose_flip(&state, env);
        let want = probe_loop_choice(&state, env);
        assert_eq!(
            got,
            want,
            "{name}: greedy choice differs on {state} (len {})",
            state.len()
        );
        checked += 1;
        match got {
            Some(bit) => state.flip(bit),
            None => break,
        }
    }
    checked
}

#[test]
fn greedy_choice_matches_the_probe_loop_under_every_constraint() {
    let mut checked = 0;
    for (li, &n) in LENGTHS.iter().enumerate() {
        for (name, env) in constraints(n, 0x9e37 + li as u64) {
            for start in states(n, 0x51ed + li as u64) {
                checked += check_walk(&name, env.as_ref(), &start);
            }
        }
    }
    assert!(checked > 2000, "only {checked} states checked");
}

#[test]
fn greedy_choice_matches_the_probe_loop_on_wrong_length_configs() {
    for (li, &n) in LENGTHS.iter().enumerate() {
        for (name, env) in constraints(n, 0x7a3b + li as u64) {
            for len in [n + 1, n.saturating_sub(1), n + 64] {
                if len == n {
                    continue;
                }
                for start in states(len, 0x1c0d + li as u64) {
                    check_walk(&name, env.as_ref(), &start);
                }
            }
        }
    }
}

#[test]
fn counting_constraints_have_infinite_violation_at_the_wrong_length() {
    let greedy = GreedyRepair::new();
    for n in LENGTHS {
        let wrong = Config::zeros(n + 1);
        for env in [
            Arc::new(AllOnes::new(n)) as Arc<dyn Constraint>,
            Arc::new(AtLeastOnes::new(n, n / 2)),
        ] {
            assert_eq!(env.violation(&wrong), f64::INFINITY);
            assert_eq!(greedy.propose_flip(&wrong, env.as_ref()), None);
        }
    }
}

/// E17's decoy landscape is private to its experiment; its table is a
/// function of every greedy choice the tiger team and the random
/// testers make on it.
#[test]
fn e17_table_is_unchanged() {
    let table = resilience_bench::experiments::e17_tiger_team::run(&RunContext::new(42));
    let want = [
        ["tiger team (beam search)", "210", "found: true", "[0, 1]"],
        [
            "random testing (1× evals)",
            "210",
            "found in 8/20 runs",
            "-",
        ],
        [
            "random testing (10× evals)",
            "2100",
            "found in 20/20 runs",
            "-",
        ],
    ];
    assert_eq!(table.rows, want.map(|row| row.map(String::from).to_vec()));
}
