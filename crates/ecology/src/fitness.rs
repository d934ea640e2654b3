//! Fitness landscapes (the paper's §3.2.4 and Fig. 2).
//!
//! Three shapes matter to the paper's diversity argument:
//!
//! * [`LinearFitness`] — constant per-species fitness. Under the replicator
//!   equation the fittest species "ultimately dominates the entire
//!   ecosystem without a mechanism that penalizes such domination".
//! * [`DensityDependent`] — fitness decreasing in own population share:
//!   "the dominating species loses its advantage as its population
//!   increases, and this gives spaces for other species to occupy".
//! * [`ConcaveFitness`] — Fig. 2's diminishing-return curve over
//!   *cumulative advantage*: "as the species gain a larger fitness, a
//!   contribution of each advantageous mutation to the fitness declines"
//!   (Akashi's weak-selection explanation for the near-neutral theory).

/// A fitness function over a community state.
///
/// `fitness(i, proportions)` returns the (strictly positive) fitness `πᵢ`
/// of species `i` given the current population proportions.
pub trait FitnessFn: Send + Sync {
    /// Fitness of species `i` under community `proportions` (which sum
    /// to 1).
    fn fitness(&self, i: usize, proportions: &[f64]) -> f64;

    /// Number of species this landscape describes.
    fn n_species(&self) -> usize;

    /// Mean community fitness `π̄ = Σ qᵢ πᵢ`.
    fn mean_fitness(&self, proportions: &[f64]) -> f64 {
        proportions
            .iter()
            .enumerate()
            .map(|(i, &q)| q * self.fitness(i, proportions))
            .sum()
    }
}

/// Constant per-species fitness, independent of the community.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFitness {
    values: Vec<f64>,
}

impl LinearFitness {
    /// Fitness values, one per species.
    ///
    /// # Panics
    ///
    /// Panics if any value is non-positive or non-finite.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(
            values.iter().all(|v| v.is_finite() && *v > 0.0),
            "fitness values must be positive and finite"
        );
        LinearFitness { values }
    }

    /// `n` species with fitness `1 + i·gradient` for species `i`.
    ///
    /// # Panics
    ///
    /// Panics if the weakest species would have non-positive fitness.
    pub fn graded(n: usize, gradient: f64) -> Self {
        let values: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * gradient).collect();
        LinearFitness::new(values)
    }
}

impl FitnessFn for LinearFitness {
    fn fitness(&self, i: usize, _proportions: &[f64]) -> f64 {
        self.values[i]
    }

    fn n_species(&self) -> usize {
        self.values.len()
    }
}

/// Fitness decreasing in own population share:
/// `πᵢ(q) = baseᵢ · (1 − damping·qᵢ)`, floored at `min_fitness`.
///
/// This is the paper's diversity-preserving mechanism: dominance is
/// self-limiting.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityDependent {
    base: Vec<f64>,
    damping: f64,
    min_fitness: f64,
}

impl DensityDependent {
    /// Density-dependent landscape with per-species base fitness and a
    /// shared damping coefficient in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if bases are non-positive, or `damping ∉ [0, 1]`.
    pub fn new(base: Vec<f64>, damping: f64) -> Self {
        assert!(
            base.iter().all(|v| v.is_finite() && *v > 0.0),
            "base fitness must be positive"
        );
        assert!((0.0..=1.0).contains(&damping), "damping must be in [0,1]");
        DensityDependent {
            base,
            damping,
            min_fitness: 1e-6,
        }
    }
}

impl FitnessFn for DensityDependent {
    fn fitness(&self, i: usize, proportions: &[f64]) -> f64 {
        (self.base[i] * (1.0 - self.damping * proportions[i])).max(self.min_fitness)
    }

    fn n_species(&self) -> usize {
        self.base.len()
    }
}

/// Fig. 2's concave (diminishing-return) map from cumulative advantage to
/// fitness: `π(a) = (1 + a)^exponent` with `exponent ∈ (0, 1)`.
///
/// The *selection differential* between advantage `a` and `a + δ` shrinks
/// as `a` grows — weak selection at high fitness, strong selection at low
/// fitness. Compare [`ConcaveFitness::selection_coefficient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcaveFitness {
    exponent: f64,
}

impl ConcaveFitness {
    /// Concave fitness with `exponent ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is outside `(0, 1)`.
    pub fn new(exponent: f64) -> Self {
        assert!(
            exponent > 0.0 && exponent < 1.0,
            "concavity requires exponent in (0,1), got {exponent}"
        );
        ConcaveFitness { exponent }
    }

    /// Fitness at cumulative advantage `a ≥ 0`.
    pub fn at(&self, advantage: f64) -> f64 {
        (1.0 + advantage.max(0.0)).powf(self.exponent)
    }

    /// Relative selection coefficient of one extra unit of advantage at
    /// level `a`: `s(a) = π(a+1)/π(a) − 1`. Strictly decreasing in `a` —
    /// the weak-selection regime of the near-neutral theory.
    pub fn selection_coefficient(&self, advantage: f64) -> f64 {
        self.at(advantage + 1.0) / self.at(advantage) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear comparison curve `π(a) = 1 + exponent·a` (same slope at
    /// the origin, no diminishing returns).
    fn linear_at(c: &ConcaveFitness, advantage: f64) -> f64 {
        1.0 + c.exponent * advantage.max(0.0)
    }

    #[test]
    fn linear_fitness_constant() {
        let f = LinearFitness::new(vec![1.0, 2.0]);
        assert_eq!(f.fitness(1, &[0.5, 0.5]), 2.0);
        assert_eq!(f.fitness(1, &[0.9, 0.1]), 2.0);
        assert_eq!(f.n_species(), 2);
    }

    #[test]
    fn graded_builder() {
        let f = LinearFitness::graded(3, 0.1);
        assert_eq!(f.fitness(0, &[]), 1.0);
        assert!((f.fitness(2, &[]) - 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn linear_rejects_nonpositive() {
        let _ = LinearFitness::new(vec![1.0, 0.0]);
    }

    #[test]
    fn mean_fitness_weighted() {
        let f = LinearFitness::new(vec![1.0, 3.0]);
        let mean = f.mean_fitness(&[0.25, 0.75]);
        assert!((mean - (0.25 + 2.25)).abs() < 1e-12);
    }

    #[test]
    fn density_dependent_penalizes_dominance() {
        let f = DensityDependent::new(vec![2.0, 2.0], 0.8);
        let dominant = f.fitness(0, &[0.9, 0.1]);
        let rare = f.fitness(1, &[0.9, 0.1]);
        assert!(rare > dominant, "rare {rare} vs dominant {dominant}");
    }

    #[test]
    fn density_dependent_floors_fitness() {
        let f = DensityDependent::new(vec![1.0], 1.0);
        assert!(f.fitness(0, &[1.0]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn density_rejects_bad_damping() {
        let _ = DensityDependent::new(vec![1.0], 1.5);
    }

    #[test]
    fn concave_is_concave() {
        let c = ConcaveFitness::new(0.5);
        // Increasing…
        assert!(c.at(1.0) > c.at(0.0));
        assert!(c.at(10.0) > c.at(1.0));
        // …with diminishing increments.
        let d1 = c.at(1.0) - c.at(0.0);
        let d2 = c.at(2.0) - c.at(1.0);
        let d10 = c.at(10.0) - c.at(9.0);
        assert!(d1 > d2 && d2 > d10);
    }

    #[test]
    fn concave_beats_linear_nowhere_after_origin() {
        let c = ConcaveFitness::new(0.5);
        for a in [0.5, 1.0, 5.0, 20.0] {
            assert!(c.at(a) < linear_at(&c, a), "a={a}");
        }
        assert!((c.at(0.0) - linear_at(&c, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn selection_weakens_with_advantage() {
        // The Akashi/near-neutral claim: the same +1 advantage confers a
        // smaller relative benefit on an already-advantaged background.
        let c = ConcaveFitness::new(0.4);
        let s0 = c.selection_coefficient(0.0);
        let s5 = c.selection_coefficient(5.0);
        let s50 = c.selection_coefficient(50.0);
        assert!(s0 > s5 && s5 > s50);
        assert!(
            s50 < 0.01,
            "selection nearly neutral at high advantage: {s50}"
        );
    }

    #[test]
    #[should_panic(expected = "concavity")]
    fn concave_rejects_exponent_one() {
        let _ = ConcaveFitness::new(1.0);
    }

    proptest! {
        #[test]
        fn prop_concave_increments_decrease(e in 0.05f64..0.95, a in 0.0f64..100.0) {
            let c = ConcaveFitness::new(e);
            let inc1 = c.at(a + 1.0) - c.at(a);
            let inc2 = c.at(a + 2.0) - c.at(a + 1.0);
            prop_assert!(inc2 <= inc1 + 1e-12);
        }

        #[test]
        fn prop_density_fitness_positive(q in 0.0f64..1.0, damping in 0.0f64..1.0) {
            let f = DensityDependent::new(vec![1.0, 1.0], damping);
            prop_assert!(f.fitness(0, &[q, 1.0 - q]) > 0.0);
        }
    }
}
