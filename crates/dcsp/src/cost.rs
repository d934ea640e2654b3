//! Weighted (soft) constraints.
//!
//! The paper (§4.2): "The fitness could be represented by a cost function
//! over the set of all configurations. For simplicity, let us assume here
//! that the cost function can be represented as a subset C…". This module
//! implements the general form the paper simplifies away: a numeric
//! [`CostFunction`] with a fitness threshold, so that repair heuristics can
//! descend a *graded* landscape instead of a set-membership cliff.

use std::sync::Arc;

use resilience_core::{Config, Constraint};

/// A cost function over configurations (lower is better; `0` is perfect).
pub trait CostFunction: Send + Sync {
    /// Cost of `config` (non-negative).
    fn cost(&self, config: &Config) -> f64;
}

/// Cost = weighted Hamming mismatch against a target configuration: bit
/// `i` disagreeing with the target costs `weights[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedMismatch {
    target: Config,
    weights: Vec<f64>,
}

impl WeightedMismatch {
    /// New weighted-mismatch cost.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any weight is negative/non-finite.
    pub fn new(target: Config, weights: Vec<f64>) -> Self {
        assert_eq!(
            target.len(),
            weights.len(),
            "one weight per configuration bit"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        WeightedMismatch { target, weights }
    }

    /// Uniform weight 1 per bit (plain Hamming distance).
    pub fn uniform(target: Config) -> Self {
        let weights = vec![1.0; target.len()];
        WeightedMismatch { target, weights }
    }

    /// The target configuration.
    pub fn target(&self) -> &Config {
        &self.target
    }
}

impl CostFunction for WeightedMismatch {
    fn cost(&self, config: &Config) -> f64 {
        if config.len() != self.target.len() {
            return f64::INFINITY;
        }
        (0..config.len())
            .filter(|&i| config.get(i) != self.target.get(i))
            .map(|i| self.weights[i])
            .sum()
    }
}

/// Adapts a cost function into a [`Constraint`]: fit iff cost ≤
/// `threshold`; the violation degree is the excess cost, so greedy repair
/// descends the weighted landscape.
#[derive(Clone)]
pub struct CostConstraint {
    cost_fn: Arc<dyn CostFunction>,
    threshold: f64,
    arity: Option<usize>,
    name: String,
}

impl std::fmt::Debug for CostConstraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CostConstraint({} ≤ {})", self.name, self.threshold)
    }
}

impl CostConstraint {
    /// Fit iff `cost ≤ threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or non-finite.
    pub fn new(
        name: impl Into<String>,
        cost_fn: Arc<dyn CostFunction>,
        threshold: f64,
        arity: Option<usize>,
    ) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "threshold must be finite and non-negative"
        );
        CostConstraint {
            cost_fn,
            threshold,
            arity,
            name: name.into(),
        }
    }

    /// The fitness threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Constraint for CostConstraint {
    fn is_fit(&self, config: &Config) -> bool {
        self.cost_fn.cost(config) <= self.threshold
    }

    fn violation(&self, config: &Config) -> f64 {
        (self.cost_fn.cost(config) - self.threshold).max(0.0)
    }

    fn arity(&self) -> Option<usize> {
        self.arity
    }

    fn describe(&self) -> String {
        format!("{} ≤ {}", self.name, self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{GreedyRepair, RepairStrategy};

    #[test]
    fn weighted_mismatch_costs() {
        let target: Config = "1111".parse().unwrap();
        let wm = WeightedMismatch::new(target.clone(), vec![1.0, 2.0, 4.0, 8.0]);
        assert_eq!(wm.cost(&target), 0.0);
        assert_eq!(wm.cost(&"0111".parse().unwrap()), 1.0);
        assert_eq!(wm.cost(&"1011".parse().unwrap()), 2.0);
        assert_eq!(wm.cost(&"0000".parse().unwrap()), 15.0);
        assert!(wm.cost(&Config::zeros(3)).is_infinite());
        assert_eq!(wm.target(), &target);
    }

    #[test]
    fn uniform_is_hamming() {
        let target: Config = "1010".parse().unwrap();
        let wm = WeightedMismatch::uniform(target.clone());
        let probe: Config = "0110".parse().unwrap();
        assert_eq!(wm.cost(&probe), probe.hamming(&target).unwrap() as f64);
    }

    #[test]
    #[should_panic(expected = "one weight per")]
    fn mismatched_weights_rejected() {
        let _ = WeightedMismatch::new(Config::zeros(3), vec![1.0]);
    }

    #[test]
    fn cost_constraint_adapts_to_constraint_trait() {
        let target: Config = "1111".parse().unwrap();
        let cost = Arc::new(WeightedMismatch::new(target, vec![1.0, 2.0, 4.0, 8.0]));
        let constraint = CostConstraint::new("weighted mismatch", cost, 2.0, Some(4));
        // Cost 2 (bit 1 wrong) is fit; cost 4 (bit 2 wrong) is not.
        assert!(constraint.is_fit(&"1011".parse().unwrap()));
        assert!(!constraint.is_fit(&"1101".parse().unwrap()));
        assert_eq!(constraint.violation(&"1101".parse().unwrap()), 2.0);
        assert_eq!(constraint.arity(), Some(4));
        assert!(constraint.describe().contains("≤ 2"));
        assert_eq!(constraint.threshold(), 2.0);
    }

    #[test]
    fn greedy_repair_fixes_expensive_bits_first() {
        // Bits weighted 1, 2, 4, 8; all wrong; threshold 3 ⇒ greedy must
        // fix bit 3 (weight 8) then bit 2 (weight 4); then cost = 3 ≤ 3.
        let target: Config = "1111".parse().unwrap();
        let cost = Arc::new(WeightedMismatch::new(target, vec![1.0, 2.0, 4.0, 8.0]));
        let constraint = CostConstraint::new("wm", cost, 3.0, Some(4));
        let greedy = GreedyRepair::new();
        let mut state: Config = "0000".parse().unwrap();
        let first = greedy.propose_flip(&state, &constraint).unwrap();
        assert_eq!(first, 3, "highest-weight mismatch first");
        state.flip(first);
        let second = greedy.propose_flip(&state, &constraint).unwrap();
        assert_eq!(second, 2);
        state.flip(second);
        assert!(constraint.is_fit(&state));
    }
}
