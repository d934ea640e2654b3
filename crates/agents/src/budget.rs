//! Mapping a [`BudgetAllocation`] onto concrete organism parameters.
//!
//! §4.4's open question — "Should we invest our resource on redundancy,
//! diversity, adaptability…?" — needs the three investments priced in a
//! common currency. We give every population the same 12 points and
//! convert:
//!
//! * **redundancy** points → initial resource endowment per organism,
//! * **diversity** points → offspring mutation rate *and* initial
//!   genotype spread,
//! * **adaptability** points → bits flippable per step.

use resilience_core::BudgetAllocation;
use serde::{Deserialize, Serialize};

/// Total budget points every configuration spends (equal total cost).
const BUDGET_POINTS: f64 = 12.0;

/// Concrete parameters derived from a budget split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetedParams {
    /// Initial resource per organism (redundancy). Baseline 2 + 1 per
    /// point.
    pub initial_resource: f64,
    /// Per-bit mutation rate at reproduction (diversity). Baseline 0.002 +
    /// 0.008 per point.
    pub mutation_rate: f64,
    /// Initial genotype spread: fraction of bits randomized away from the
    /// founder (diversity). 1% per point, capped at 40%.
    pub initial_spread: f64,
    /// Bits flippable per step (adaptability). Baseline 0 + 1 per 2
    /// points, rounded.
    pub adaptation_rate: usize,
}

impl BudgetedParams {
    /// Price a budget allocation.
    pub fn from_allocation(allocation: &BudgetAllocation) -> Self {
        let r = allocation.redundancy() * BUDGET_POINTS;
        let d = allocation.diversity() * BUDGET_POINTS;
        let a = allocation.adaptability() * BUDGET_POINTS;
        BudgetedParams {
            initial_resource: 2.0 + r,
            mutation_rate: (0.002 + 0.008 * d).min(0.5),
            initial_spread: (0.01 * d).min(0.4),
            adaptation_rate: (a / 2.0).round() as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::Strategy;

    #[test]
    fn uniform_split() {
        let p = BudgetedParams::from_allocation(&BudgetAllocation::uniform());
        assert!((p.initial_resource - 6.0).abs() < 1e-9);
        assert!((p.mutation_rate - 0.034).abs() < 1e-9);
        assert_eq!(p.adaptation_rate, 2);
        assert!((p.initial_spread - 0.04).abs() < 1e-9);
    }

    #[test]
    fn pure_corners() {
        let r = BudgetedParams::from_allocation(&BudgetAllocation::pure(Strategy::Redundancy));
        assert!((r.initial_resource - 14.0).abs() < 1e-9);
        assert_eq!(r.adaptation_rate, 0);
        assert!(r.mutation_rate < 0.01);

        let d = BudgetedParams::from_allocation(&BudgetAllocation::pure(Strategy::Diversity));
        assert!((d.initial_resource - 2.0).abs() < 1e-9);
        assert!(d.mutation_rate > 0.09);
        assert!((d.initial_spread - 0.12).abs() < 1e-9);

        let a = BudgetedParams::from_allocation(&BudgetAllocation::pure(Strategy::Adaptability));
        assert_eq!(a.adaptation_rate, 6);
        assert!((a.initial_resource - 2.0).abs() < 1e-9);
    }

    #[test]
    fn caps_hold() {
        // Even pathological allocations stay within sane parameter ranges.
        let p = BudgetedParams::from_allocation(&BudgetAllocation::pure(Strategy::Diversity));
        assert!(p.mutation_rate <= 0.5);
        assert!(p.initial_spread <= 0.4);
        // Founders must start fit in a calm world (spread below the 0.15
        // unfitness margin of the default 0.85 threshold).
        assert!(p.initial_spread <= 0.125);
    }
}
