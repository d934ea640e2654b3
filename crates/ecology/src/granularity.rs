//! System granularity (the paper's §5.2).
//!
//! "Conflict of resilience requirements among different levels of system
//! granularity appears in many domains. … The most granular level would be
//! the individual of a species. … Then there is the species level. … The
//! most coarse level is the entire ecosystem as a whole. In this case, if
//! at least one species survives, the system is considered to be resilient.
//! … In general, the more coarse the system is, the easier it is to make
//! the system resilient."
//!
//! [`hierarchical_experiment`] measures each shock at all three levels
//! and averages over shocks — confirming the
//! monotone ordering individual ≤ species ≤ ecosystem.

use rand::Rng;

use crate::extinction::Community;

/// Survival measured at the paper's three granularity levels.
///
/// Individuals bear the brunt: within a surviving species, the fraction of
/// individuals that make it falls linearly with the species' distance from
/// the new optimum (`1 − |trait − optimum|/tolerance`). A species survives
/// if *any* member does ("species can survive even if it loses some of its
/// members"); the ecosystem survives if any species does.
#[derive(Debug, Clone, PartialEq)]
pub struct GranularityReport {
    /// Individual level: surviving fraction of the total population.
    pub individual_survival: f64,
    /// Species level: fraction of species with at least one survivor.
    pub species_survival: f64,
    /// Ecosystem level: 1 if any species survived, else 0.
    pub system_survival: f64,
}

impl GranularityReport {
    /// The §5.2 ordering: survival is non-decreasing with coarseness.
    pub fn ordering_holds(&self) -> bool {
        self.individual_survival <= self.species_survival + 1e-12
            && self.species_survival <= self.system_survival + 1e-12
    }
}

/// Measure one environment `(optimum, tolerance)` against `community` at
/// all three levels.
fn hierarchical_survival(community: &Community, optimum: f64, tolerance: f64) -> GranularityReport {
    let total_pop: f64 = community.populations.iter().sum();
    let survivors = community.survivors(optimum, tolerance);
    // Within a surviving species, the member survival fraction falls
    // linearly with mal-adaptation; a perfectly-adapted species keeps
    // everyone, one at the tolerance edge keeps almost no one.
    let surviving_pop: f64 = survivors
        .iter()
        .map(|&i| {
            let misfit = (community.traits[i] - optimum).abs() / tolerance.max(f64::MIN_POSITIVE);
            community.populations[i] * (1.0 - misfit).max(0.0)
        })
        .sum();
    let extant_species = community
        .populations
        .iter()
        .filter(|&&p| p > 0.0)
        .count()
        .max(1);
    GranularityReport {
        individual_survival: if total_pop > 0.0 {
            surviving_pop / total_pop
        } else {
            0.0
        },
        species_survival: survivors.len() as f64 / extant_species as f64,
        system_survival: if survivors.is_empty() { 0.0 } else { 1.0 },
    }
}

/// Average the three levels over `trials` random optimum jumps of scale
/// `shock_scale` (uniform in `±shock_scale` around `initial_optimum`).
pub fn hierarchical_experiment<R: Rng + ?Sized>(
    community: &Community,
    initial_optimum: f64,
    tolerance: f64,
    shock_scale: f64,
    trials: usize,
    rng: &mut R,
) -> GranularityReport {
    let mut acc = GranularityReport {
        individual_survival: 0.0,
        species_survival: 0.0,
        system_survival: 0.0,
    };
    for _ in 0..trials {
        let jump = rng.gen_range(-shock_scale..=shock_scale);
        let r = hierarchical_survival(community, initial_optimum + jump, tolerance);
        acc.individual_survival += r.individual_survival;
        acc.species_survival += r.species_survival;
        acc.system_survival += r.system_survival;
    }
    let n = trials.max(1) as f64;
    GranularityReport {
        individual_survival: acc.individual_survival / n,
        species_survival: acc.species_survival / n,
        system_survival: acc.system_survival / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    #[test]
    fn single_shock_levels() {
        let c = Community::spread(4, 0.0, 3.0, 40.0);
        // Optimum 3.0, tolerance 1.5: traits are −3, −1, 1, 3 ⇒ survivors
        // at 3 (and 1.5 within? |1−3|=2 > 1.5 no). So 1 of 4 species.
        let r = hierarchical_survival(&c, 3.0, 1.5);
        assert!((r.species_survival - 0.25).abs() < 1e-12);
        assert!((r.individual_survival - 0.25).abs() < 1e-12); // equal pops
        assert_eq!(r.system_survival, 1.0);
        assert!(r.ordering_holds());
    }

    #[test]
    fn total_wipeout() {
        let c = Community::spread(3, 0.0, 1.0, 30.0);
        let r = hierarchical_survival(&c, 100.0, 0.5);
        assert_eq!(r.individual_survival, 0.0);
        assert_eq!(r.species_survival, 0.0);
        assert_eq!(r.system_survival, 0.0);
        assert!(r.ordering_holds());
    }

    #[test]
    fn unequal_populations_weight_individual_level() {
        let c = Community {
            traits: vec![0.0, 5.0],
            populations: vec![90.0, 10.0],
        };
        // Only the small species survives.
        let r = hierarchical_survival(&c, 5.0, 0.5);
        assert!((r.individual_survival - 0.1).abs() < 1e-12);
        assert!((r.species_survival - 0.5).abs() < 1e-12);
        assert_eq!(r.system_survival, 1.0);
    }

    /// The §5.2 claim, averaged over shocks: coarser ⇒ easier.
    #[test]
    fn coarser_levels_survive_more() {
        let mut rng = seeded_rng(501);
        let c = Community::spread(20, 0.0, 3.0, 100.0);
        let r = hierarchical_experiment(&c, 0.0, 0.5, 3.0, 3_000, &mut rng);
        assert!(r.ordering_holds());
        // Strict separation in this regime.
        assert!(
            r.individual_survival + 0.1 < r.species_survival
                || r.species_survival + 0.1 < r.system_survival,
            "{r:?}"
        );
        assert!(r.system_survival > 0.95);
        assert!(r.individual_survival < 0.3);
    }

    #[test]
    fn empty_community_is_dead_at_every_level() {
        let c = Community {
            traits: vec![0.0],
            populations: vec![0.0],
        };
        let r = hierarchical_survival(&c, 0.0, 1.0);
        assert_eq!(r.individual_survival, 0.0);
        assert_eq!(r.system_survival, 0.0);
    }
}
