//! The taxonomy of resilience strategies and budget allocations over them.
//!
//! The paper's working hypothesis (§3) categorizes *passive* resilience
//! strategies into redundancy, diversity, and adaptability, plus *active*
//! resilience dimensions (§3.4). §4.4 asks: "Should we invest our resource
//! on redundancy, diversity, adaptability, or active resilience? … What
//! combination of resilience strategies is optimum under a given condition?"
//! [`BudgetAllocation`] is that investment split; the `resilience-agents`
//! crate sweeps it experimentally (experiment E14).

use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, CoreError};

/// A resilience strategy from the paper's catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Strategy {
    /// §3.1 — spare/dormant capacity: backups, reserves, interoperability.
    Redundancy,
    /// §3.2 — heterogeneity of components/designs/species.
    Diversity,
    /// §3.3 — speed of reaction to environmental change.
    Adaptability,
    /// §3.4 — human-in-the-loop strategies.
    Active(ActiveStrategy),
}

/// The active-resilience sub-dimensions (§3.4.1–3.4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ActiveStrategy {
    /// §3.4.1 — prediction, scenario planning, early-warning signals.
    Anticipation,
    /// §3.4.2 — model building during/after a disaster.
    Modeling,
    /// §3.4.3 — BCP/ISO 22320-style empowered response.
    EmergencyResponse,
    /// §3.4.5 — stakeholder consensus on the recovery target.
    ConsensusBuilding,
    /// §3.4.6 — normal/emergency mode switching.
    ModeSwitching,
}

impl Strategy {
    /// All passive strategies, in the paper's order.
    pub const PASSIVE: [Strategy; 3] = [
        Strategy::Redundancy,
        Strategy::Diversity,
        Strategy::Adaptability,
    ];

    /// Whether this strategy requires human intelligence in the loop.
    pub fn is_active(&self) -> bool {
        matches!(self, Strategy::Active(_))
    }
}

/// A normalized split of a fixed resource budget across the three passive
/// strategies. Fractions are non-negative and sum to 1.
///
/// # Example
///
/// ```
/// use resilience_core::BudgetAllocation;
/// let b = BudgetAllocation::new(2.0, 1.0, 1.0)?;
/// assert!((b.redundancy() - 0.5).abs() < 1e-12);
/// # Ok::<(), resilience_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BudgetAllocation {
    redundancy: f64,
    diversity: f64,
    adaptability: f64,
}

impl BudgetAllocation {
    /// Build from non-negative weights (any scale); they are normalized to
    /// sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if any weight is negative or
    /// non-finite, or if all are zero.
    pub fn new(redundancy: f64, diversity: f64, adaptability: f64) -> Result<Self, CoreError> {
        for (name, v) in [
            ("redundancy", redundancy),
            ("diversity", diversity),
            ("adaptability", adaptability),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(invalid_param(
                    "budget weight",
                    format!("{name} must be finite and non-negative, got {v}"),
                ));
            }
        }
        let total = redundancy + diversity + adaptability;
        if total <= 0.0 {
            return Err(invalid_param("budget weight", "all weights are zero"));
        }
        Ok(BudgetAllocation {
            redundancy: redundancy / total,
            diversity: diversity / total,
            adaptability: adaptability / total,
        })
    }

    /// Equal thirds.
    pub fn uniform() -> Self {
        BudgetAllocation {
            redundancy: 1.0 / 3.0,
            diversity: 1.0 / 3.0,
            adaptability: 1.0 / 3.0,
        }
    }

    /// Everything on one strategy (the ablation corners of E14).
    ///
    /// # Panics
    ///
    /// Panics if `strategy` is an active strategy (budgets cover the
    /// passive axes only).
    pub fn pure(strategy: Strategy) -> Self {
        match Self::checked_pure(strategy) {
            Ok(alloc) => alloc,
            Err(err) => panic!("{err}"),
        }
    }

    /// Everything on one strategy, rejecting active strategies with
    /// [`CoreError::ActiveStrategyUnsupported`] instead of panicking.
    fn checked_pure(strategy: Strategy) -> Result<Self, CoreError> {
        match strategy {
            Strategy::Redundancy => Ok(BudgetAllocation {
                redundancy: 1.0,
                diversity: 0.0,
                adaptability: 0.0,
            }),
            Strategy::Diversity => Ok(BudgetAllocation {
                redundancy: 0.0,
                diversity: 1.0,
                adaptability: 0.0,
            }),
            Strategy::Adaptability => Ok(BudgetAllocation {
                redundancy: 0.0,
                diversity: 0.0,
                adaptability: 1.0,
            }),
            Strategy::Active(_) => Err(CoreError::ActiveStrategyUnsupported),
        }
    }

    /// Fraction on redundancy.
    pub fn redundancy(&self) -> f64 {
        self.redundancy
    }

    /// Fraction on diversity.
    pub fn diversity(&self) -> f64 {
        self.diversity
    }

    /// Fraction on adaptability.
    pub fn adaptability(&self) -> f64 {
        self.adaptability
    }

    /// Fraction allocated to one strategy.
    ///
    /// # Panics
    ///
    /// Panics on an active strategy.
    pub fn fraction(&self, strategy: Strategy) -> f64 {
        match self.checked_fraction(strategy) {
            Ok(fraction) => fraction,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fraction allocated to one strategy, rejecting active strategies
    /// with [`CoreError::ActiveStrategyUnsupported`] instead of
    /// panicking.
    fn checked_fraction(&self, strategy: Strategy) -> Result<f64, CoreError> {
        match strategy {
            Strategy::Redundancy => Ok(self.redundancy),
            Strategy::Diversity => Ok(self.diversity),
            Strategy::Adaptability => Ok(self.adaptability),
            Strategy::Active(_) => Err(CoreError::ActiveStrategyUnsupported),
        }
    }

    /// Enumerate a simplex grid of allocations with `steps` subdivisions
    /// per axis (e.g. `steps = 4` gives fractions in {0, ¼, ½, ¾, 1}).
    /// Useful for the E14 parameter sweep.
    pub fn simplex_grid(steps: usize) -> Vec<BudgetAllocation> {
        let mut out = Vec::new();
        if steps == 0 {
            out.push(BudgetAllocation::uniform());
            return out;
        }
        for r in 0..=steps {
            for d in 0..=(steps - r) {
                let a = steps - r - d;
                let total = steps as f64;
                out.push(BudgetAllocation {
                    redundancy: r as f64 / total,
                    diversity: d as f64 / total,
                    adaptability: a as f64 / total,
                });
            }
        }
        out
    }
}

impl Default for BudgetAllocation {
    fn default() -> Self {
        BudgetAllocation::uniform()
    }
}

impl std::fmt::Display for BudgetAllocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "R={:.2} D={:.2} A={:.2}",
            self.redundancy, self.diversity, self.adaptability
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, proptest};

    #[test]
    fn normalization() {
        let b = BudgetAllocation::new(2.0, 1.0, 1.0).unwrap();
        assert!((b.redundancy() - 0.5).abs() < 1e-12);
        assert!((b.diversity() - 0.25).abs() < 1e-12);
        assert!((b.adaptability() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(BudgetAllocation::new(-1.0, 1.0, 1.0).is_err());
        assert!(BudgetAllocation::new(f64::NAN, 1.0, 1.0).is_err());
        assert!(BudgetAllocation::new(0.0, 0.0, 0.0).is_err());
        assert!(BudgetAllocation::new(f64::INFINITY, 1.0, 1.0).is_err());
    }

    #[test]
    fn pure_corners() {
        let r = BudgetAllocation::pure(Strategy::Redundancy);
        assert_eq!(r.redundancy(), 1.0);
        assert_eq!(r.fraction(Strategy::Diversity), 0.0);
        let d = BudgetAllocation::pure(Strategy::Diversity);
        assert_eq!(d.diversity(), 1.0);
        let a = BudgetAllocation::pure(Strategy::Adaptability);
        assert_eq!(a.adaptability(), 1.0);
    }

    #[test]
    #[should_panic(expected = "passive strategy axes")]
    fn pure_rejects_active() {
        let _ = BudgetAllocation::pure(Strategy::Active(ActiveStrategy::Anticipation));
    }

    #[test]
    fn checked_variants_return_typed_errors() {
        let active = Strategy::Active(ActiveStrategy::Anticipation);
        assert_eq!(
            BudgetAllocation::checked_pure(active),
            Err(CoreError::ActiveStrategyUnsupported)
        );
        assert_eq!(
            BudgetAllocation::uniform().checked_fraction(active),
            Err(CoreError::ActiveStrategyUnsupported)
        );
        let pure = BudgetAllocation::checked_pure(Strategy::Diversity).unwrap();
        assert_eq!(pure.checked_fraction(Strategy::Diversity), Ok(1.0));
    }

    #[test]
    fn simplex_grid_counts() {
        // Number of points on the 2-simplex grid: (s+1)(s+2)/2.
        for steps in [1usize, 2, 4, 8] {
            let grid = BudgetAllocation::simplex_grid(steps);
            assert_eq!(grid.len(), (steps + 1) * (steps + 2) / 2);
            for b in &grid {
                let sum = b.redundancy() + b.diversity() + b.adaptability();
                assert!((sum - 1.0).abs() < 1e-9);
            }
        }
        assert_eq!(BudgetAllocation::simplex_grid(0).len(), 1);
    }

    #[test]
    fn strategy_helpers() {
        assert!(!Strategy::Redundancy.is_active());
        assert!(Strategy::Active(ActiveStrategy::ModeSwitching).is_active());
        assert_eq!(Strategy::PASSIVE.len(), 3);
    }

    #[test]
    fn display_shows_fractions() {
        let s = BudgetAllocation::uniform().to_string();
        assert!(s.contains("R=0.33"));
    }

    proptest! {
        #[test]
        fn prop_normalized_sums_to_one(r in 0.01f64..100.0, d in 0.0f64..100.0, a in 0.0f64..100.0) {
            let b = BudgetAllocation::new(r, d, a).unwrap();
            prop_assert!((b.redundancy() + b.diversity() + b.adaptability() - 1.0).abs() < 1e-9);
            prop_assert!(b.redundancy() >= 0.0 && b.diversity() >= 0.0 && b.adaptability() >= 0.0);
        }
    }
}
