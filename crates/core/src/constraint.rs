//! Environments as constraints over configurations.
//!
//! In the paper's model (§4.2) the environment is represented "as a subset C
//! of all fit configurations. A system configuration s is said to be fit iff
//! s ∈ C." A [`Constraint`] is the membership test for such a set, plus an
//! optional *violation degree* used by repair heuristics.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::config::Config;

/// A constraint over configurations — the set `C` of fit configurations.
///
/// Implementors must provide [`Constraint::is_fit`]; they may also override
/// [`Constraint::violation`] with a cheaper or better-shaped measure of
/// "how unfit" a configuration is (repair heuristics descend on it).
///
/// The trait is object-safe; environments are commonly handled as
/// `Arc<dyn Constraint>` so a shock can swap them atomically.
pub trait Constraint: Send + Sync {
    /// Whether `config` satisfies the constraint (`s ∈ C`).
    fn is_fit(&self, config: &Config) -> bool;

    /// A non-negative unfitness measure; `0` iff fit.
    ///
    /// The default is the coarse indicator `0/1`. Implementations with
    /// structure (e.g. "at least k ones") should return a graded count so
    /// greedy repair can make progress.
    fn violation(&self, config: &Config) -> f64 {
        if self.is_fit(config) {
            0.0
        } else {
            1.0
        }
    }

    /// Expected configuration length, if the constraint is length-specific.
    fn arity(&self) -> Option<usize> {
        None
    }

    /// Declared variable automorphisms: a partition of the variable
    /// indices into *interchangeability classes* such that every
    /// permutation of variables within a class preserves fitness (and
    /// violation degree) for every configuration. `Some(classes)` maps
    /// each variable index to its class id; `None` means no symmetry is
    /// declared (the safe default — verifiers then enumerate every case).
    ///
    /// This is a contract like [`Constraint::violation`]: implementations
    /// must only declare permutations that genuinely fix the fit set.
    /// Counting constraints whose fitness depends solely on the number of
    /// ones ([`AllOnes`], [`AtLeastOnes`]) declare one class covering all
    /// variables; structured sets keep the default.
    fn symmetry_classes(&self) -> Option<Vec<usize>> {
        None
    }

    /// Short human-readable description, used in reports.
    fn describe(&self) -> String {
        "unnamed constraint".to_string()
    }
}

impl fmt::Debug for dyn Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Constraint({})", self.describe())
    }
}

/// The spacecraft constraint `C = 1^n`: every component must be good.
///
/// # Example
///
/// ```
/// use resilience_core::{AllOnes, Config, Constraint};
/// let c = AllOnes::new(4);
/// assert!(c.is_fit(&Config::ones(4)));
/// assert!(!c.is_fit(&Config::zeros(4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllOnes {
    len: usize,
}

impl AllOnes {
    /// Constraint requiring all `len` bits to be 1.
    pub fn new(len: usize) -> Self {
        AllOnes { len }
    }

    /// The required configuration length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the constraint is over zero variables (trivially satisfied).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Constraint for AllOnes {
    fn is_fit(&self, config: &Config) -> bool {
        config.len() == self.len && config.count_ones() == self.len
    }

    fn violation(&self, config: &Config) -> f64 {
        if config.len() != self.len {
            return f64::INFINITY;
        }
        config.count_zeros() as f64
    }

    fn arity(&self) -> Option<usize> {
        Some(self.len)
    }

    fn symmetry_classes(&self) -> Option<Vec<usize>> {
        // Fitness depends only on the count of ones: every variable
        // permutation is an automorphism.
        Some(vec![0; self.len])
    }

    fn describe(&self) -> String {
        format!("all {} components good (C = 1^n)", self.len)
    }
}

/// Requires at least `k` of the `len` bits to be 1 — a redundancy-tolerant
/// environment (the system functions as long as enough components survive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtLeastOnes {
    len: usize,
    k: usize,
}

impl AtLeastOnes {
    /// Constraint requiring at least `k` ones among `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `k > len`.
    pub fn new(len: usize, k: usize) -> Self {
        assert!(k <= len, "threshold k={k} exceeds length {len}");
        AtLeastOnes { len, k }
    }

    /// The threshold `k`.
    pub fn threshold(&self) -> usize {
        self.k
    }
}

impl Constraint for AtLeastOnes {
    fn is_fit(&self, config: &Config) -> bool {
        config.len() == self.len && config.count_ones() >= self.k
    }

    fn violation(&self, config: &Config) -> f64 {
        if config.len() != self.len {
            return f64::INFINITY;
        }
        self.k.saturating_sub(config.count_ones()) as f64
    }

    fn arity(&self) -> Option<usize> {
        Some(self.len)
    }

    fn symmetry_classes(&self) -> Option<Vec<usize>> {
        // Fitness depends only on the count of ones: every variable
        // permutation is an automorphism.
        Some(vec![0; self.len])
    }

    fn describe(&self) -> String {
        format!("at least {} of {} components good", self.k, self.len)
    }
}

/// An explicitly enumerated fit set — the most literal reading of the
/// paper's "subset C of all fit configurations".
#[derive(Debug, Clone)]
pub struct ExplicitSet {
    members: HashSet<Config>,
    len: usize,
}

impl ExplicitSet {
    /// Build from an iterator of fit configurations.
    ///
    /// # Panics
    ///
    /// Panics if member configurations have differing lengths.
    pub fn new<I: IntoIterator<Item = Config>>(members: I) -> Self {
        let members: HashSet<Config> = members.into_iter().collect();
        let mut lens = members.iter().map(Config::len);
        let len = lens.next().unwrap_or(0);
        assert!(
            lens.all(|l| l == len),
            "all members of an explicit fit set must share a length"
        );
        ExplicitSet { members, len }
    }

    /// Number of fit configurations.
    pub fn cardinality(&self) -> usize {
        self.members.len()
    }

    /// Iterate over the fit configurations.
    pub fn iter(&self) -> impl Iterator<Item = &Config> {
        self.members.iter()
    }

    /// Minimum Hamming distance from `config` to any member (repair
    /// distance); `None` if the set is empty.
    fn distance_to_fit(&self, config: &Config) -> Option<usize> {
        self.members
            .iter()
            .filter_map(|m| config.hamming(m).ok())
            .min()
    }
}

impl Constraint for ExplicitSet {
    fn is_fit(&self, config: &Config) -> bool {
        self.members.contains(config)
    }

    fn violation(&self, config: &Config) -> f64 {
        match self.distance_to_fit(config) {
            Some(d) => d as f64,
            None => f64::INFINITY,
        }
    }

    fn arity(&self) -> Option<usize> {
        Some(self.len)
    }

    fn describe(&self) -> String {
        format!("explicit fit set of {} configurations", self.members.len())
    }
}

impl FromIterator<Config> for ExplicitSet {
    fn from_iter<I: IntoIterator<Item = Config>>(iter: I) -> Self {
        ExplicitSet::new(iter)
    }
}

/// A constraint defined by an arbitrary predicate.
#[derive(Clone)]
pub struct PredicateConstraint {
    pred: Arc<dyn Fn(&Config) -> bool + Send + Sync>,
    name: String,
}

impl PredicateConstraint {
    /// Wrap a predicate with a descriptive name.
    pub fn new(
        name: impl Into<String>,
        pred: impl Fn(&Config) -> bool + Send + Sync + 'static,
    ) -> Self {
        PredicateConstraint {
            pred: Arc::new(pred),
            name: name.into(),
        }
    }
}

impl fmt::Debug for PredicateConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PredicateConstraint({})", self.name)
    }
}

impl Constraint for PredicateConstraint {
    fn is_fit(&self, config: &Config) -> bool {
        (self.pred)(config)
    }

    fn describe(&self) -> String {
        self.name.clone()
    }
}

/// Conjunction of constraints: fit iff fit under all parts.
#[derive(Clone)]
pub struct AndConstraint {
    parts: Vec<Arc<dyn Constraint>>,
}

impl AndConstraint {
    /// Combine constraints conjunctively.
    pub fn new(parts: Vec<Arc<dyn Constraint>>) -> Self {
        AndConstraint { parts }
    }
}

impl fmt::Debug for AndConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AndConstraint({} parts)", self.parts.len())
    }
}

impl Constraint for AndConstraint {
    fn is_fit(&self, config: &Config) -> bool {
        self.parts.iter().all(|p| p.is_fit(config))
    }

    fn violation(&self, config: &Config) -> f64 {
        self.parts.iter().map(|p| p.violation(config)).sum()
    }

    fn describe(&self) -> String {
        let inner: Vec<String> = self.parts.iter().map(|p| p.describe()).collect();
        format!("({})", inner.join(" AND "))
    }
}

/// Disjunction of constraints: fit iff fit under any part.
#[derive(Clone)]
pub struct OrConstraint {
    parts: Vec<Arc<dyn Constraint>>,
}

impl OrConstraint {
    /// Combine constraints disjunctively.
    pub fn new(parts: Vec<Arc<dyn Constraint>>) -> Self {
        OrConstraint { parts }
    }
}

impl fmt::Debug for OrConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OrConstraint({} parts)", self.parts.len())
    }
}

impl Constraint for OrConstraint {
    fn is_fit(&self, config: &Config) -> bool {
        self.parts.iter().any(|p| p.is_fit(config))
    }

    fn violation(&self, config: &Config) -> f64 {
        self.parts
            .iter()
            .map(|p| p.violation(config))
            .fold(f64::INFINITY, f64::min)
    }

    fn describe(&self) -> String {
        let inner: Vec<String> = self.parts.iter().map(|p| p.describe()).collect();
        format!("({})", inner.join(" OR "))
    }
}

/// Negation of a constraint.
#[derive(Clone)]
pub struct NotConstraint {
    inner: Arc<dyn Constraint>,
}

impl NotConstraint {
    /// Negate a constraint.
    pub fn new(inner: Arc<dyn Constraint>) -> Self {
        NotConstraint { inner }
    }
}

impl fmt::Debug for NotConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NotConstraint({})", self.inner.describe())
    }
}

impl Constraint for NotConstraint {
    fn is_fit(&self, config: &Config) -> bool {
        !self.inner.is_fit(config)
    }

    fn describe(&self) -> String {
        format!("NOT {}", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use proptest::prelude::*;

    #[test]
    fn all_ones_basics() {
        let c = AllOnes::new(3);
        assert!(c.is_fit(&Config::ones(3)));
        assert!(!c.is_fit(&"110".parse().unwrap()));
        assert!(!c.is_fit(&Config::ones(4))); // wrong arity
        assert_eq!(c.violation(&"100".parse().unwrap()), 2.0);
        assert_eq!(c.arity(), Some(3));
        assert!(c.describe().contains("3"));
    }

    #[test]
    fn at_least_ones() {
        let c = AtLeastOnes::new(5, 3);
        assert!(c.is_fit(&"11100".parse().unwrap()));
        assert!(c.is_fit(&Config::ones(5)));
        assert!(!c.is_fit(&"11000".parse().unwrap()));
        assert_eq!(c.violation(&"10000".parse().unwrap()), 2.0);
        assert_eq!(c.violation(&Config::ones(5)), 0.0);
        assert_eq!(c.threshold(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds length")]
    fn at_least_ones_rejects_bad_threshold() {
        let _ = AtLeastOnes::new(3, 4);
    }

    #[test]
    fn explicit_set_membership_and_distance() {
        let set: ExplicitSet = ["101".parse().unwrap(), "011".parse().unwrap()]
            .into_iter()
            .collect();
        assert_eq!(set.cardinality(), 2);
        assert!(set.is_fit(&"101".parse().unwrap()));
        assert!(!set.is_fit(&"000".parse().unwrap()));
        // 000 is distance 2 from both members
        assert_eq!(set.distance_to_fit(&"000".parse().unwrap()), Some(2));
        // 111 is distance 1 from both
        assert_eq!(set.violation(&"111".parse().unwrap()), 1.0);
    }

    #[test]
    fn empty_explicit_set_is_never_fit() {
        let set = ExplicitSet::new(Vec::<Config>::new());
        assert!(!set.is_fit(&Config::zeros(3)));
        assert_eq!(set.distance_to_fit(&Config::zeros(3)), None);
        assert!(set.violation(&Config::zeros(3)).is_infinite());
    }

    #[test]
    fn predicate_constraint() {
        let even_ones =
            PredicateConstraint::new("even parity", |c: &Config| c.count_ones().is_multiple_of(2));
        assert!(even_ones.is_fit(&"1100".parse().unwrap()));
        assert!(!even_ones.is_fit(&"1000".parse().unwrap()));
        assert_eq!(even_ones.describe(), "even parity");
    }

    #[test]
    fn and_or_not_combinators() {
        let a: Arc<dyn Constraint> = Arc::new(AtLeastOnes::new(4, 2));
        let b: Arc<dyn Constraint> =
            Arc::new(PredicateConstraint::new("bit0", |c: &Config| c.get(0)));
        let both = AndConstraint::new(vec![a.clone(), b.clone()]);
        let either = OrConstraint::new(vec![a.clone(), b.clone()]);
        let neither = NotConstraint::new(Arc::new(OrConstraint::new(vec![a, b])));

        let fit_both: Config = "1100".parse().unwrap();
        let fit_a_only: Config = "0110".parse().unwrap();
        let fit_none: Config = "0100".parse().unwrap();

        assert!(both.is_fit(&fit_both));
        assert!(!both.is_fit(&fit_a_only));
        assert!(either.is_fit(&fit_a_only));
        assert!(!either.is_fit(&fit_none));
        assert!(neither.is_fit(&fit_none));
        assert!(!neither.is_fit(&fit_both));
        assert!(both.describe().contains("AND"));
        assert!(either.describe().contains("OR"));
        assert!(neither.describe().contains("NOT"));
    }

    #[test]
    fn symmetry_declarations_match_structure() {
        // Counting constraints: one class over every variable.
        assert_eq!(AllOnes::new(5).symmetry_classes(), Some(vec![0; 5]));
        assert_eq!(AtLeastOnes::new(6, 2).symmetry_classes(), Some(vec![0; 6]));
        // Structured sets declare nothing.
        let set: ExplicitSet = ["101".parse().unwrap()].into_iter().collect();
        assert_eq!(set.symmetry_classes(), None);
        let pred = PredicateConstraint::new("bit0", |c: &Config| c.get(0));
        assert_eq!(pred.symmetry_classes(), None);
        // Declared classes really are automorphisms: swapping any two
        // variables of a counting constraint never changes fitness.
        let c = AtLeastOnes::new(6, 3);
        let mut rng = seeded_rng(41);
        for _ in 0..50 {
            let cfg = Config::random(6, &mut rng);
            for i in 0..6 {
                for j in i + 1..6 {
                    let mut swapped = cfg.clone();
                    let (bi, bj) = (cfg.get(i), cfg.get(j));
                    swapped.assign(i, bj);
                    swapped.assign(j, bi);
                    assert_eq!(c.is_fit(&cfg), c.is_fit(&swapped));
                }
            }
        }
    }

    #[test]
    fn and_violation_sums_parts() {
        let a: Arc<dyn Constraint> = Arc::new(AllOnes::new(4));
        let b: Arc<dyn Constraint> = Arc::new(AtLeastOnes::new(4, 2));
        let both = AndConstraint::new(vec![a, b]);
        let cfg: Config = "1000".parse().unwrap();
        // AllOnes violation 3, AtLeastOnes violation 1.
        assert_eq!(both.violation(&cfg), 4.0);
    }

    proptest! {
        #[test]
        fn prop_violation_zero_iff_fit(len in 1usize..64, k_frac in 0.0f64..1.0, seed in any::<u64>()) {
            let k = ((len as f64) * k_frac) as usize;
            let c = AtLeastOnes::new(len, k);
            let cfg = Config::random(len, &mut seeded_rng(seed));
            prop_assert_eq!(c.is_fit(&cfg), c.violation(&cfg) == 0.0);
        }

        #[test]
        fn prop_explicit_set_distance_zero_iff_member(seed in any::<u64>()) {
            let mut rng = seeded_rng(seed);
            let members: Vec<Config> = (0..8).map(|_| Config::random(10, &mut rng)).collect();
            let set = ExplicitSet::new(members.clone());
            for m in &members {
                prop_assert_eq!(set.distance_to_fit(m), Some(0));
            }
            let probe = Config::random(10, &mut rng);
            let d = set.distance_to_fit(&probe).unwrap();
            prop_assert_eq!(d == 0, set.is_fit(&probe));
        }
    }
}
