//! The discrete replicator equation (the paper's §3.2.4).
//!
//! `pᵢᵗ⁺¹ = pᵢᵗ · πᵢ / π̄ᵗ` — "the population of a fit species will get
//! larger by each generation, and the most fit species will ultimately
//! dominate the entire ecosystem without a mechanism that penalizes such
//! domination."

use std::sync::Arc;

use resilience_core::TimeSeries;

use crate::diversity::diversity_index;
use crate::fitness::FitnessFn;

/// A replicator-dynamics simulation.
///
/// # Example
///
/// ```
/// use resilience_ecology::replicator::ReplicatorSim;
/// use resilience_ecology::fitness::LinearFitness;
/// use std::sync::Arc;
///
/// // Constant fitness gradient: the fittest species takes over (§3.2.4).
/// let mut sim = ReplicatorSim::uniform(Arc::new(LinearFitness::graded(4, 0.1)));
/// let trajectory = sim.run(300);
/// assert_eq!(trajectory.dominant_species(), 3);
/// assert!(*trajectory.diversity.values().last().unwrap() < 1.1);
/// ```
#[derive(Clone)]
pub struct ReplicatorSim {
    fitness: Arc<dyn FitnessFn>,
    proportions: Vec<f64>,
    mutation: f64,
}

impl std::fmt::Debug for ReplicatorSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatorSim")
            .field("n_species", &self.proportions.len())
            .field("proportions", &self.proportions)
            .field("mutation", &self.mutation)
            .finish()
    }
}

/// Trajectory of a replicator run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatorTrajectory {
    /// Diversity index `G` per generation.
    pub diversity: TimeSeries,
    /// Mean fitness per generation.
    pub mean_fitness: TimeSeries,
    /// Final proportions.
    pub final_proportions: Vec<f64>,
}

impl ReplicatorTrajectory {
    /// Index of the most abundant species at the end.
    pub fn dominant_species(&self) -> usize {
        self.final_proportions
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl ReplicatorSim {
    /// Start from explicit proportions (normalized internally).
    ///
    /// # Panics
    ///
    /// Panics if the species count mismatches the landscape, any proportion
    /// is negative/non-finite, or all are zero.
    pub fn new(fitness: Arc<dyn FitnessFn>, initial: Vec<f64>) -> Self {
        assert_eq!(
            initial.len(),
            fitness.n_species(),
            "proportions must match the landscape's species count"
        );
        assert!(
            initial.iter().all(|p| p.is_finite() && *p >= 0.0),
            "proportions must be finite and non-negative"
        );
        let total: f64 = initial.iter().sum();
        assert!(total > 0.0, "at least one species must be present");
        let proportions = initial.iter().map(|p| p / total).collect();
        ReplicatorSim {
            fitness,
            proportions,
            mutation: 0.0,
        }
    }

    /// Start from the uniform community.
    pub fn uniform(fitness: Arc<dyn FitnessFn>) -> Self {
        let n = fitness.n_species();
        ReplicatorSim::new(fitness, vec![1.0; n])
    }

    /// Enable symmetric mutation: after selection, a fraction `mu` of each
    /// species redistributes uniformly over all species (keeps extinct
    /// types recoverable; `mu = 0` is pure selection).
    ///
    /// # Panics
    ///
    /// Panics if `mu ∉ [0, 1]`.
    pub fn with_mutation(mut self, mu: f64) -> Self {
        assert!((0.0..=1.0).contains(&mu), "mutation rate must be in [0,1]");
        self.mutation = mu;
        self
    }

    /// Current proportions (sum to 1).
    pub fn proportions(&self) -> &[f64] {
        &self.proportions
    }

    /// One generation of selection (+ optional mutation).
    pub fn step(&mut self) {
        let mean = self.fitness.mean_fitness(&self.proportions);
        if mean <= 0.0 {
            return; // degenerate landscape: freeze rather than divide by zero
        }
        let n = self.proportions.len();
        let mut next: Vec<f64> = (0..n)
            .map(|i| self.proportions[i] * self.fitness.fitness(i, &self.proportions) / mean)
            .collect();
        // Renormalize to wash out floating-point drift.
        let total: f64 = next.iter().sum();
        for p in &mut next {
            *p /= total;
        }
        if self.mutation > 0.0 {
            let share = self.mutation / n as f64;
            for p in &mut next {
                *p = *p * (1.0 - self.mutation) + share;
            }
        }
        self.proportions = next;
    }

    /// Run `generations` steps, recording diversity and mean fitness.
    pub fn run(&mut self, generations: usize) -> ReplicatorTrajectory {
        let mut diversity = TimeSeries::new();
        let mut mean_fitness = TimeSeries::new();
        diversity.push(diversity_index(&self.proportions).unwrap_or(f64::NAN));
        mean_fitness.push(self.fitness.mean_fitness(&self.proportions));
        for _ in 0..generations {
            self.step();
            diversity.push(diversity_index(&self.proportions).unwrap_or(f64::NAN));
            mean_fitness.push(self.fitness.mean_fitness(&self.proportions));
        }
        ReplicatorTrajectory {
            diversity,
            mean_fitness,
            final_proportions: self.proportions.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{DensityDependent, LinearFitness};

    #[test]
    fn fitter_species_grows() {
        let f = Arc::new(LinearFitness::new(vec![1.0, 1.2]));
        let mut sim = ReplicatorSim::uniform(f);
        sim.step();
        let p = sim.proportions();
        assert!(p[1] > 0.5, "fitter species should exceed half: {p:?}");
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fitness_collapses_diversity() {
        // The paper's §3.2.4 claim: without a penalizing mechanism, the
        // most fit species ultimately dominates.
        let f = Arc::new(LinearFitness::graded(5, 0.1));
        let mut sim = ReplicatorSim::uniform(f);
        let traj = sim.run(400);
        assert_eq!(traj.dominant_species(), 4);
        assert!(traj.final_proportions[4] > 0.99);
        let g_start = traj.diversity.values()[0];
        let g_end = *traj.diversity.values().last().unwrap();
        assert!((g_start - 5.0).abs() < 1e-9);
        assert!(g_end < 1.05, "diversity collapsed to {g_end}");
    }

    #[test]
    fn density_dependence_preserves_diversity() {
        // The paper's counter-mechanism: decreasing π(p) gives space to
        // other species.
        let f = Arc::new(DensityDependent::new(vec![1.0, 1.05, 1.1, 1.15, 1.2], 0.9));
        let mut sim = ReplicatorSim::uniform(f);
        let traj = sim.run(400);
        let g_end = *traj.diversity.values().last().unwrap();
        assert!(g_end > 2.5, "diversity retained: G = {g_end}");
        // Every species survives.
        assert!(traj.final_proportions.iter().all(|&p| p > 0.01));
    }

    #[test]
    fn mean_fitness_nondecreasing_under_constant_landscape() {
        // Fisher's fundamental theorem (discrete flavor) holds for
        // frequency-independent fitness.
        let f = Arc::new(LinearFitness::graded(4, 0.2));
        let mut sim = ReplicatorSim::uniform(f);
        let traj = sim.run(100);
        for w in traj.mean_fitness.values().windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn mutation_keeps_extinct_types_alive() {
        let f = Arc::new(LinearFitness::graded(3, 0.5));
        let mut sim = ReplicatorSim::new(f, vec![1.0, 1.0, 0.0]).with_mutation(0.01);
        let traj = sim.run(200);
        // Species 2 was absent but mutation reintroduces it; being fittest
        // it then dominates.
        assert!(traj.final_proportions[2] > 0.5);
    }

    #[test]
    fn extinct_stays_extinct_without_mutation() {
        let f = Arc::new(LinearFitness::graded(3, 0.5));
        let mut sim = ReplicatorSim::new(f, vec![1.0, 1.0, 0.0]);
        let traj = sim.run(200);
        assert_eq!(traj.final_proportions[2], 0.0);
    }

    #[test]
    fn proportions_always_normalized() {
        let f = Arc::new(LinearFitness::graded(6, 0.3));
        let mut sim = ReplicatorSim::uniform(f).with_mutation(0.05);
        for _ in 0..50 {
            sim.step();
            let total: f64 = sim.proportions().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "match the landscape")]
    fn mismatched_lengths_rejected() {
        let f = Arc::new(LinearFitness::graded(3, 0.1));
        let _ = ReplicatorSim::new(f, vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one species")]
    fn all_zero_rejected() {
        let f = Arc::new(LinearFitness::graded(2, 0.1));
        let _ = ReplicatorSim::new(f, vec![0.0, 0.0]);
    }

    #[test]
    fn debug_is_informative() {
        let f = Arc::new(LinearFitness::graded(2, 0.1));
        let sim = ReplicatorSim::uniform(f);
        assert!(format!("{sim:?}").contains("n_species"));
    }
}
