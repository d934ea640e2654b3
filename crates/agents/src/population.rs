//! The agent population and the §4.4 metric set.

use std::collections::HashMap;

use resilience_core::Config;
use resilience_ecology::diversity_index;

use crate::organism::Organism;

/// A population of digital organisms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Population {
    members: Vec<Organism>,
}

/// Snapshot of the population's §4.4 quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationStats {
    /// Living organisms.
    pub size: usize,
    /// Inverse-Simpson diversity over *genotype classes* (identical
    /// genomes form one class) — the paper's diversity measure applied to
    /// the agent population.
    pub genotype_diversity: f64,
    /// Mean stored resource (the redundancy factor).
    pub mean_resource: f64,
    /// Mean fitness against the current target.
    pub mean_fitness: f64,
    /// Fraction of organisms currently satisfying the constraint.
    pub fit_fraction: f64,
}

impl Population {
    /// An empty population.
    pub fn new() -> Self {
        Population {
            members: Vec::new(),
        }
    }

    /// Number of living members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the population is extinct.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Immutable members.
    pub fn members(&self) -> &[Organism] {
        &self.members
    }

    /// Mutable members.
    pub fn members_mut(&mut self) -> &mut Vec<Organism> {
        &mut self.members
    }

    /// Add an organism.
    pub fn push(&mut self, organism: Organism) {
        self.members.push(organism);
    }

    /// Remove the dead; returns how many died.
    pub fn reap(&mut self) -> usize {
        let before = self.members.len();
        self.members.retain(|o| !o.is_dead());
        before - self.members.len()
    }

    /// Compute the §4.4 statistics against `target` with fitness
    /// `threshold`.
    pub fn stats(&self, target: &Config, threshold: f64) -> PopulationStats {
        if self.members.is_empty() {
            return PopulationStats {
                size: 0,
                genotype_diversity: 0.0,
                mean_resource: 0.0,
                mean_fitness: 0.0,
                fit_fraction: 0.0,
            };
        }
        let mut classes: HashMap<&Config, usize> = HashMap::new();
        for o in &self.members {
            *classes.entry(&o.genome).or_insert(0) += 1;
        }
        let counts: Vec<f64> = classes.values().map(|&c| c as f64).collect();
        let n = self.members.len() as f64;
        PopulationStats {
            size: self.members.len(),
            genotype_diversity: diversity_index(&counts).unwrap_or(0.0),
            mean_resource: self.members.iter().map(|o| o.resource).sum::<f64>() / n,
            mean_fitness: self.members.iter().map(|o| o.fitness(target)).sum::<f64>() / n,
            fit_fraction: self
                .members
                .iter()
                .filter(|o| o.is_fit(target, threshold))
                .count() as f64
                / n,
        }
    }
}

impl FromIterator<Organism> for Population {
    fn from_iter<I: IntoIterator<Item = Organism>>(iter: I) -> Self {
        Population {
            members: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org(genome: &str, resource: f64) -> Organism {
        Organism::new(genome.parse().unwrap(), resource, 1)
    }

    #[test]
    fn reap_removes_dead() {
        let mut p = Population {
            members: vec![org("11", 1.0), org("10", 0.0), org("01", -1.0)],
        };
        assert_eq!(p.len(), 3);
        assert_eq!(p.reap(), 2);
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn stats_of_empty_population() {
        let p = Population::new();
        let s = p.stats(&"11".parse().unwrap(), 0.5);
        assert_eq!(s.size, 0);
        assert_eq!(s.genotype_diversity, 0.0);
        assert_eq!(s.fit_fraction, 0.0);
    }

    #[test]
    fn genotype_diversity_counts_classes() {
        let target: Config = "1111".parse().unwrap();
        // Two copies of one genotype + two distinct others: G over counts
        // [2,1,1] = 1/(0.25+0.0625+0.0625) = 8/3.
        let p = Population {
            members: vec![
                org("1111", 1.0),
                org("1111", 1.0),
                org("0000", 1.0),
                org("1010", 1.0),
            ],
        };
        let s = p.stats(&target, 0.9);
        assert!((s.genotype_diversity - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.size, 4);
        assert!((s.fit_fraction - 0.5).abs() < 1e-12);
        assert!((s.mean_fitness - (1.0 + 1.0 + 0.0 + 0.5) / 4.0).abs() < 1e-12);
        assert!((s.mean_resource - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monoculture_diversity_is_one() {
        let p: Population = (0..5).map(|_| org("1010", 1.0)).collect();
        let s = p.stats(&"1111".parse().unwrap(), 0.5);
        assert!((s.genotype_diversity - 1.0).abs() < 1e-9);
    }
}
