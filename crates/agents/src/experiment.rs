//! The E14 budget-allocation experiment (the paper's §4.4 question).
//!
//! "What combination of resilience strategies is optimum under a given
//! condition is one of the questions that we would like to answer."
//!
//! [`sweep_budgets`] runs the multi-agent simulation across the budget
//! simplex for a given shock regime and reports survival probabilities.

use resilience_core::{derive_seed, seeded_rng, BudgetAllocation};
use serde::{Deserialize, Serialize};

use crate::budget::BudgetedParams;
use crate::dynamics::{SimConfig, Simulation, N_BITS};
use crate::environment::{Environment, EnvironmentKind};

/// The environmental regime a population must endure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShockRegime {
    /// No change at all.
    Calm,
    /// Steady drift of 2 bits/step.
    SteadyDrift,
    /// A 12-bit shock every 60 steps (rare X-events).
    RareShocks,
    /// A 6-bit shock every 12 steps (frequent mid-size events).
    FrequentShocks,
}

impl ShockRegime {
    /// All regimes, in sweep order.
    pub const ALL: [ShockRegime; 4] = [
        ShockRegime::Calm,
        ShockRegime::SteadyDrift,
        ShockRegime::RareShocks,
        ShockRegime::FrequentShocks,
    ];

    /// The environment law for this regime.
    fn environment_kind(&self) -> EnvironmentKind {
        match self {
            ShockRegime::Calm => EnvironmentKind::Static,
            ShockRegime::SteadyDrift => EnvironmentKind::Drift { bits_per_step: 2 },
            ShockRegime::RareShocks => EnvironmentKind::Shocks {
                period: 60,
                bits: 12,
            },
            ShockRegime::FrequentShocks => EnvironmentKind::Shocks {
                period: 12,
                bits: 6,
            },
        }
    }
}

/// Survival results for one allocation under one regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeOutcome {
    /// The budget split.
    pub allocation: BudgetAllocation,
    /// The regime tested.
    pub regime: ShockRegime,
    /// Replicates run.
    pub replicates: usize,
    /// Replicates whose population survived the horizon.
    pub survivals: usize,
    /// Mean final population size across replicates (0 for extinct runs).
    pub mean_final_population: f64,
}

impl RegimeOutcome {
    /// Fraction of replicates surviving.
    pub fn survival_rate(&self) -> f64 {
        if self.replicates == 0 {
            1.0
        } else {
            self.survivals as f64 / self.replicates as f64
        }
    }
}

/// Evaluate one allocation under one regime (`replicates` independent
/// runs of `steps` steps each, seeded from `seed`).
pub fn evaluate_allocation(
    allocation: &BudgetAllocation,
    regime: ShockRegime,
    steps: usize,
    replicates: usize,
    seed: u64,
) -> RegimeOutcome {
    let params = BudgetedParams::from_allocation(allocation);
    let config = SimConfig::default();
    let mut survivals = 0;
    let mut pop_sum = 0.0;
    for rep in 0..replicates {
        let mut rng = seeded_rng(derive_seed(seed, rep as u64));
        let env = Environment::random(N_BITS, regime.environment_kind(), &mut rng);
        let mut sim = Simulation::new(config, params, env, &mut rng);
        let out = sim.run(steps, &mut rng);
        if !out.extinct {
            survivals += 1;
            pop_sum += *out.population_series.values().last().unwrap_or(&0.0);
        }
    }
    RegimeOutcome {
        allocation: *allocation,
        regime,
        replicates,
        survivals,
        mean_final_population: pop_sum / replicates.max(1) as f64,
    }
}

/// Sweep the whole budget simplex (`grid_steps` subdivisions) under one
/// regime.
pub fn sweep_budgets(
    regime: ShockRegime,
    grid_steps: usize,
    steps: usize,
    replicates: usize,
    seed: u64,
) -> Vec<RegimeOutcome> {
    BudgetAllocation::simplex_grid(grid_steps)
        .iter()
        .enumerate()
        .map(|(i, alloc)| {
            evaluate_allocation(
                alloc,
                regime,
                steps,
                replicates,
                derive_seed(seed, i as u64),
            )
        })
        .collect()
}

/// The best allocation of a sweep (highest survival, ties broken by final
/// population).
pub fn best_allocation(outcomes: &[RegimeOutcome]) -> Option<&RegimeOutcome> {
    outcomes.iter().max_by(|a, b| {
        a.survival_rate()
            .total_cmp(&b.survival_rate())
            .then(a.mean_final_population.total_cmp(&b.mean_final_population))
    })
}

/// Convenience used by tests and the bench harness: an ablation row
/// comparing the uniform mix against each pure corner under `regime`.
pub fn ablation_rows(
    regime: ShockRegime,
    steps: usize,
    replicates: usize,
    seed: u64,
) -> Vec<RegimeOutcome> {
    use resilience_core::Strategy;
    let allocations = [
        BudgetAllocation::uniform(),
        BudgetAllocation::pure(Strategy::Redundancy),
        BudgetAllocation::pure(Strategy::Diversity),
        BudgetAllocation::pure(Strategy::Adaptability),
    ];
    allocations
        .iter()
        .enumerate()
        .map(|(i, alloc)| {
            evaluate_allocation(
                alloc,
                regime,
                steps,
                replicates,
                derive_seed(seed, 100 + i as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_regime_everything_survives() {
        let out = evaluate_allocation(&BudgetAllocation::uniform(), ShockRegime::Calm, 150, 5, 1);
        assert_eq!(out.survival_rate(), 1.0);
        assert!(out.mean_final_population > 40.0);
    }

    #[test]
    fn drift_demands_adaptability() {
        use resilience_core::Strategy;
        // Under steady drift, a zero-adaptability (pure redundancy)
        // population dies; an adaptability-heavy one survives.
        let redundancy_only = evaluate_allocation(
            &BudgetAllocation::pure(Strategy::Redundancy),
            ShockRegime::SteadyDrift,
            250,
            6,
            2,
        );
        let adaptability_heavy = evaluate_allocation(
            &BudgetAllocation::new(0.1, 0.1, 0.8).unwrap(),
            ShockRegime::SteadyDrift,
            250,
            6,
            2,
        );
        assert_eq!(
            redundancy_only.survival_rate(),
            0.0,
            "pure redundancy cannot track drift"
        );
        assert!(
            adaptability_heavy.survival_rate() > 0.8,
            "adaptability survives drift: {}",
            adaptability_heavy.survival_rate()
        );
    }

    #[test]
    fn sweep_covers_simplex() {
        let outcomes = sweep_budgets(ShockRegime::Calm, 2, 50, 2, 3);
        assert_eq!(outcomes.len(), 6); // (2+1)(2+2)/2
        let best = best_allocation(&outcomes).unwrap();
        assert!(best.survival_rate() >= outcomes[0].survival_rate());
    }

    #[test]
    fn ablation_has_four_rows() {
        let rows = ablation_rows(ShockRegime::Calm, 50, 2, 4);
        assert_eq!(rows.len(), 4);
        // All corners survive a calm world.
        for row in &rows {
            assert_eq!(row.survival_rate(), 1.0, "{:?}", row.allocation);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = evaluate_allocation(
            &BudgetAllocation::uniform(),
            ShockRegime::RareShocks,
            100,
            3,
            7,
        );
        let b = evaluate_allocation(
            &BudgetAllocation::uniform(),
            ShockRegime::RareShocks,
            100,
            3,
            7,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn regime_kinds() {
        assert_eq!(
            ShockRegime::Calm.environment_kind(),
            EnvironmentKind::Static
        );
        assert!(matches!(
            ShockRegime::SteadyDrift.environment_kind(),
            EnvironmentKind::Drift { bits_per_step: 2 }
        ));
        assert_eq!(ShockRegime::ALL.len(), 4);
    }

    /// Pins the testbed's fixed parameters (genome length, founding
    /// population, fitness and reproduction thresholds) through one seeded
    /// drifting run, built the way [`evaluate_allocation`] builds it: the
    /// population and mean-fitness series are hashed bit for bit. (The
    /// genotype-diversity series sums over a `HashMap`, so its last bits
    /// vary from run to run.)
    #[test]
    fn seeded_drift_run_matches_pinned_digest() {
        let config = SimConfig::default();
        let params = BudgetedParams::from_allocation(&BudgetAllocation::uniform());
        let mut rng = seeded_rng(11);
        let kind = EnvironmentKind::Drift { bits_per_step: 2 };
        let env = Environment::random(N_BITS, kind, &mut rng);
        let out = Simulation::new(config, params, env, &mut rng).run(60, &mut rng);
        let series = [&out.population_series, &out.fitness_series];
        let digest = series
            .iter()
            .flat_map(|s| s.values())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(digest, 0xf5fb_d2af_628b_9df1);
    }
}
