//! A digital organism (the paper's §4.4 agent).

use rand::Rng;

use resilience_core::Config;

/// A self-replicating digital organism.
///
/// The three §4.4 resilience quantities live here: `resource` is the
/// redundancy store, the genome's spread across the population is the
/// diversity, and `adaptation_rate` (bits flippable per step) is the
/// adaptability.
#[derive(Debug, Clone, PartialEq)]
pub struct Organism {
    /// The genotype: a configuration that wants to match the environment.
    pub genome: Config,
    /// Stored resource; the organism dies when it reaches zero.
    pub resource: f64,
    /// Bits the organism can flip towards the target per step.
    pub adaptation_rate: usize,
    /// Age in steps.
    pub age: usize,
}

impl Organism {
    /// A new organism.
    pub fn new(genome: Config, resource: f64, adaptation_rate: usize) -> Self {
        Organism {
            genome,
            resource,
            adaptation_rate,
            age: 0,
        }
    }

    /// Fitness against a target: fraction of matching bits, in `[0, 1]`.
    pub fn fitness(&self, target: &Config) -> f64 {
        match self.genome.hamming(target) {
            Ok(d) => 1.0 - d as f64 / self.genome.len().max(1) as f64,
            Err(_) => 0.0,
        }
    }

    /// Whether the organism satisfies the environment's constraint
    /// (fitness ≥ `threshold`).
    pub fn is_fit(&self, target: &Config, threshold: f64) -> bool {
        self.fitness(target) >= threshold
    }

    /// One adaptation move: flip up to `adaptation_rate` mismatched bits
    /// toward the target, lowest-indexed first (the organism senses its
    /// own misfit). Returns the number of bits fixed; a target of the
    /// wrong length fixes none.
    pub fn adapt(&mut self, target: &Config) -> usize {
        self.genome
            .flip_toward(target, self.adaptation_rate)
            .unwrap_or(0)
    }

    /// Produce an offspring: the parent's resource is split in half, and
    /// the child's genome mutates at per-bit rate `mutation`.
    pub fn reproduce<R: Rng + ?Sized>(&mut self, mutation: f64, rng: &mut R) -> Organism {
        self.resource /= 2.0;
        let mut child_genome = self.genome.clone();
        child_genome.mutate(mutation, rng);
        Organism {
            genome: child_genome,
            resource: self.resource,
            adaptation_rate: self.adaptation_rate,
            age: 0,
        }
    }

    /// Whether the organism is dead (resource exhausted).
    pub fn is_dead(&self) -> bool {
        self.resource <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    #[test]
    fn fitness_fraction() {
        let target: Config = "1111".parse().unwrap();
        let o = Organism::new("1100".parse().unwrap(), 1.0, 1);
        assert!((o.fitness(&target) - 0.5).abs() < 1e-12);
        assert!(!o.is_fit(&target, 0.9));
        assert!(o.is_fit(&target, 0.5));
        // Length mismatch is zero fitness, not a panic.
        assert_eq!(o.fitness(&Config::ones(6)), 0.0);
    }

    #[test]
    fn adapt_fixes_up_to_rate() {
        let target: Config = "111111".parse().unwrap();
        let mut o = Organism::new("000000".parse().unwrap(), 1.0, 2);
        assert_eq!(o.adapt(&target), 2);
        assert!((o.fitness(&target) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(o.adapt(&target), 2);
        assert_eq!(o.adapt(&target), 2);
        assert_eq!(o.adapt(&target), 0); // already perfect
        assert!(o.is_fit(&target, 1.0));
    }

    #[test]
    fn wrong_length_target_leaves_the_genome_unchanged() {
        let mut o = Organism::new("0101".parse().unwrap(), 1.0, 3);
        assert_eq!(o.adapt(&Config::ones(5)), 0);
        assert_eq!(o.adapt(&Config::ones(3)), 0);
        assert_eq!(o.genome, "0101".parse().unwrap());
    }

    #[test]
    fn zero_rate_cannot_adapt() {
        let target: Config = "11".parse().unwrap();
        let mut o = Organism::new("00".parse().unwrap(), 1.0, 0);
        assert_eq!(o.adapt(&target), 0);
        assert_eq!(o.fitness(&target), 0.0);
    }

    #[test]
    fn reproduction_splits_resource_and_mutates() {
        let mut rng = seeded_rng(221);
        let mut parent = Organism::new(Config::ones(64), 10.0, 3);
        let child = parent.reproduce(0.1, &mut rng);
        assert!((parent.resource - 5.0).abs() < 1e-12);
        assert!((child.resource - 5.0).abs() < 1e-12);
        assert_eq!(child.adaptation_rate, 3);
        assert_eq!(child.age, 0);
        // With rate 0.1 over 64 bits a mutation is overwhelmingly likely.
        assert!(child.genome.hamming(&parent.genome).unwrap() > 0);
    }

    #[test]
    fn zero_mutation_clones_exactly() {
        let mut rng = seeded_rng(222);
        let mut parent = Organism::new(Config::random(32, &mut rng), 4.0, 1);
        let child = parent.reproduce(0.0, &mut rng);
        assert_eq!(child.genome, parent.genome);
    }

    #[test]
    fn death_at_zero_resource() {
        let o = Organism::new(Config::ones(4), 0.0, 1);
        assert!(o.is_dead());
        let alive = Organism::new(Config::ones(4), 0.1, 1);
        assert!(!alive.is_dead());
    }
}
