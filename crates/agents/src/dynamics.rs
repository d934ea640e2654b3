//! The simulation loop of the §4.4 testbed.
//!
//! Per step: the environment moves; every organism adapts (flips up to its
//! adaptation rate of mismatched bits), earns income if fit, pays upkeep,
//! reproduces when rich enough, and dies when broke.

use rand::Rng;

use resilience_core::TimeSeries;

use crate::budget::BudgetedParams;
use crate::environment::Environment;
use crate::organism::Organism;
use crate::population::{Population, PopulationStats};

/// Genome length.
pub const N_BITS: usize = 32;
/// Initial population size.
pub const INITIAL_POPULATION: usize = 40;
/// Fitness threshold for "satisfies the constraint".
pub const FIT_THRESHOLD: f64 = 0.85;
/// Resource above which an organism reproduces.
pub const REPRODUCE_AT: f64 = 8.0;

/// Fixed (non-budget) simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Hard population cap (carrying capacity).
    pub capacity: usize,
    /// Income per step while fit.
    pub income: f64,
    /// Upkeep per step, always paid.
    pub upkeep: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            capacity: 200,
            income: 1.0,
            upkeep: 0.6,
        }
    }
}

/// A running simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    params: BudgetedParams,
    environment: Environment,
    population: Population,
}

/// Aggregate result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Population size per step.
    pub population_series: TimeSeries,
    /// Genotype diversity per step.
    pub diversity_series: TimeSeries,
    /// Mean fitness per step.
    pub fitness_series: TimeSeries,
    /// Whether the population was extinct at the end.
    pub extinct: bool,
    /// Step of extinction, if it happened.
    pub extinction_step: Option<usize>,
}

impl Simulation {
    /// Set up a simulation: organisms are founded on the initial target
    /// with `initial_spread` of their bits randomized.
    pub fn new<R: Rng + ?Sized>(
        config: SimConfig,
        params: BudgetedParams,
        environment: Environment,
        rng: &mut R,
    ) -> Self {
        let mut population = Population::new();
        for _ in 0..INITIAL_POPULATION {
            let mut genome = environment.target().clone();
            let spread_bits = (N_BITS as f64 * params.initial_spread).round() as usize;
            genome.flip_random(spread_bits, rng);
            population.push(Organism::new(
                genome,
                params.initial_resource,
                params.adaptation_rate,
            ));
        }
        Simulation {
            config,
            params,
            environment,
            population,
        }
    }

    /// Current population statistics.
    pub fn stats(&self) -> PopulationStats {
        self.population
            .stats(self.environment.target(), FIT_THRESHOLD)
    }

    /// The population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The environment.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// One simulation step.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.environment.step(rng);
        let target = self.environment.target().clone();
        let mut offspring = Vec::new();
        let capacity = self.config.capacity;
        let alive = self.population.len();
        for o in self.population.members_mut() {
            o.age += 1;
            o.adapt(&target);
            if o.is_fit(&target, FIT_THRESHOLD) {
                o.resource += self.config.income;
            }
            o.resource -= self.config.upkeep;
            if o.resource >= REPRODUCE_AT && alive + offspring.len() < capacity {
                offspring.push(o.reproduce(self.params.mutation_rate, rng));
            }
        }
        for child in offspring {
            self.population.push(child);
        }
        self.population.reap();
    }

    /// Run `steps` steps, recording the §4.4 metrics.
    pub fn run<R: Rng + ?Sized>(&mut self, steps: usize, rng: &mut R) -> SimOutcome {
        let mut population_series = TimeSeries::new();
        let mut diversity_series = TimeSeries::new();
        let mut fitness_series = TimeSeries::new();
        let mut extinction_step = None;
        for t in 0..steps {
            self.step(rng);
            let stats = self.stats();
            population_series.push(stats.size as f64);
            diversity_series.push(stats.genotype_diversity);
            fitness_series.push(stats.mean_fitness);
            if stats.size == 0 {
                extinction_step = Some(t);
                break;
            }
        }
        SimOutcome {
            population_series,
            diversity_series,
            fitness_series,
            extinct: extinction_step.is_some(),
            extinction_step,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::EnvironmentKind;
    use resilience_core::{seeded_rng, BudgetAllocation};

    fn params() -> BudgetedParams {
        BudgetedParams::from_allocation(&BudgetAllocation::uniform())
    }

    #[test]
    fn static_environment_population_persists_and_grows() {
        let mut rng = seeded_rng(241);
        let env = Environment::random(32, EnvironmentKind::Static, &mut rng);
        let mut sim = Simulation::new(SimConfig::default(), params(), env, &mut rng);
        let out = sim.run(300, &mut rng);
        assert!(!out.extinct);
        let final_pop = *out.population_series.values().last().unwrap();
        assert!(final_pop > 40.0, "population should grow, got {final_pop}");
    }

    #[test]
    fn impossible_environment_kills_everyone() {
        let mut rng = seeded_rng(242);
        // Full-speed drift (16 bits/step on a 32-bit genome) with a
        // no-adaptability population: fitness collapses, upkeep bleeds
        // everyone out.
        let env = Environment::random(32, EnvironmentKind::Drift { bits_per_step: 16 }, &mut rng);
        let p = BudgetedParams {
            initial_resource: 3.0,
            mutation_rate: 0.002,
            initial_spread: 0.0,
            adaptation_rate: 0,
        };
        let mut sim = Simulation::new(SimConfig::default(), p, env, &mut rng);
        let out = sim.run(500, &mut rng);
        assert!(out.extinct, "population must starve");
        assert!(out.extinction_step.unwrap() > 2, "resource buys some time");
    }

    #[test]
    fn redundancy_delays_extinction_under_hopeless_drift() {
        let mut rng = seeded_rng(243);
        let env = |rng: &mut _| {
            Environment::random(32, EnvironmentKind::Drift { bits_per_step: 16 }, rng)
        };
        let poor = BudgetedParams {
            initial_resource: 2.0,
            mutation_rate: 0.002,
            initial_spread: 0.0,
            adaptation_rate: 0,
        };
        let rich = BudgetedParams {
            initial_resource: 14.0,
            ..poor
        };
        let e1 = env(&mut rng);
        let mut sim_poor = Simulation::new(SimConfig::default(), poor, e1, &mut rng);
        let out_poor = sim_poor.run(500, &mut rng);
        let e2 = env(&mut rng);
        let mut sim_rich = Simulation::new(SimConfig::default(), rich, e2, &mut rng);
        let out_rich = sim_rich.run(500, &mut rng);
        // The paper's redundancy factor: "an agent can remain alive until
        // it uses up its resources even if it does not satisfy a
        // constraint for a certain period".
        assert!(
            out_rich.extinction_step.unwrap() > out_poor.extinction_step.unwrap() + 5,
            "rich {:?} vs poor {:?}",
            out_rich.extinction_step,
            out_poor.extinction_step
        );
    }

    #[test]
    fn adaptability_survives_drift_that_kills_the_sluggish() {
        let mut rng = seeded_rng(244);
        let drift = EnvironmentKind::Drift { bits_per_step: 2 };
        let sluggish = BudgetedParams {
            initial_resource: 6.0,
            mutation_rate: 0.002,
            initial_spread: 0.0,
            adaptation_rate: 0,
        };
        let agile = BudgetedParams {
            adaptation_rate: 4,
            ..sluggish
        };
        let e1 = Environment::random(32, drift.clone(), &mut rng);
        let out_slug =
            Simulation::new(SimConfig::default(), sluggish, e1, &mut rng).run(400, &mut rng);
        let e2 = Environment::random(32, drift, &mut rng);
        let out_agile =
            Simulation::new(SimConfig::default(), agile, e2, &mut rng).run(400, &mut rng);
        assert!(out_slug.extinct, "no adaptation ⇒ extinct under drift");
        assert!(!out_agile.extinct, "fast adaptation tracks the drift");
    }

    #[test]
    fn capacity_caps_population() {
        let mut rng = seeded_rng(245);
        let env = Environment::random(32, EnvironmentKind::Static, &mut rng);
        let config = SimConfig {
            capacity: 60,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, params(), env, &mut rng);
        let out = sim.run(300, &mut rng);
        for &p in out.population_series.values() {
            assert!(p <= 60.0);
        }
    }

    #[test]
    fn mutation_sustains_diversity() {
        let mut rng = seeded_rng(246);
        let env = Environment::random(32, EnvironmentKind::Static, &mut rng);
        // Zero adaptation: otherwise every lineage hill-climbs back onto
        // the target and the genotype classes re-merge.
        let high_mu = BudgetedParams {
            initial_resource: 6.0,
            mutation_rate: 0.05,
            initial_spread: 0.1,
            adaptation_rate: 0,
        };
        let mut sim = Simulation::new(SimConfig::default(), high_mu, env, &mut rng);
        let out = sim.run(200, &mut rng);
        let late_diversity = *out.diversity_series.values().last().unwrap();
        assert!(late_diversity > 2.0, "diversity {late_diversity}");
    }
}
