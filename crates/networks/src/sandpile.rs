//! The Bak–Tang–Wiesenfeld sandpile (the paper's §4.5).
//!
//! "Bak shows that many decentralized systems that are modeled based on
//! cellular automaton naturally reach a critical state with minimum
//! stability without carefully choosing initial system parameters and that
//! a small disturbance or noise at the critical state could cause cascading
//! failures of the system leading to a large disaster."
//!
//! A 2-D grid of cells each holding up to 3 grains; adding a fourth topples
//! the cell, sending one grain to each neighbor (grains fall off the
//! boundary). Avalanche sizes at the self-organized critical state follow a
//! power law. [`InterventionPolicy`] implements the paper's suggested
//! "small destructions … centrally coordinated interventions … in order to
//! avoid critical points": proactively relieving near-critical cells.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Cells topple at this many grains.
pub const TOPPLE_AT: u8 = 4;

/// A centrally-coordinated relief policy applied between grain drops.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InterventionPolicy {
    /// Let the pile self-organize (the decentralized baseline).
    None,
    /// Every `period` drops, remove one grain from each of the `budget`
    /// fullest cells (the "prescribed burn" analogue).
    TargetedRelief {
        /// Drops between interventions.
        period: usize,
        /// Cells relieved per intervention.
        budget: usize,
    },
    /// Every `period` drops, remove one grain from each of `budget`
    /// random cells (an unfocused control intervention).
    RandomRelief {
        /// Drops between interventions.
        period: usize,
        /// Cells relieved per intervention.
        budget: usize,
    },
}

/// The sandpile automaton.
///
/// # Example
///
/// ```
/// use resilience_networks::sandpile::Sandpile;
/// let mut pile = Sandpile::new(3, 3);
/// for _ in 0..3 {
///     assert_eq!(pile.drop_at(1, 1), 0); // piling up quietly…
/// }
/// assert_eq!(pile.drop_at(1, 1), 1); // …until the fourth grain topples
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sandpile {
    width: usize,
    height: usize,
    grains: Vec<u8>,
}

/// Statistics from a sandpile run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SandpileReport {
    /// Size (number of topplings) of each avalanche, one entry per drop.
    pub avalanche_sizes: Vec<usize>,
    /// Grains removed by interventions.
    pub grains_relieved: usize,
}

impl SandpileReport {
    /// Largest avalanche observed.
    pub fn max_avalanche(&self) -> usize {
        self.avalanche_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of avalanches at least `size`.
    pub fn tail_fraction(&self, size: usize) -> f64 {
        if self.avalanche_sizes.is_empty() {
            return 0.0;
        }
        self.avalanche_sizes.iter().filter(|&&s| s >= size).count() as f64
            / self.avalanche_sizes.len() as f64
    }
}

impl Sandpile {
    /// An empty `width × height` pile.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid must be non-empty");
        Sandpile {
            width,
            height,
            grains: vec![0; width * height],
        }
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Grains at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn grains_at(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height);
        self.grains[y * self.width + x]
    }

    /// Total grains on the pile.
    fn total_grains(&self) -> usize {
        self.grains.iter().map(|&g| g as usize).sum()
    }

    /// Mean grains per cell — rises toward the critical density ≈ 2.1 as
    /// the pile self-organizes.
    pub fn density(&self) -> f64 {
        self.total_grains() as f64 / self.grains.len() as f64
    }

    /// Drop one grain at `(x, y)` and relax; returns the avalanche size
    /// (number of topplings).
    pub fn drop_at(&mut self, x: usize, y: usize) -> usize {
        assert!(x < self.width && y < self.height);
        let idx = y * self.width + x;
        self.grains[idx] += 1;
        let mut avalanche = 0usize;
        let mut stack = Vec::new();
        if self.grains[idx] >= TOPPLE_AT {
            stack.push(idx);
        }
        let (width, height) = (self.width, self.height);
        // Off-grid grains fall off the edge (open boundary).
        fn spill(
            width: usize,
            height: usize,
            nx: isize,
            ny: isize,
            stack: &mut Vec<usize>,
            grains: &mut [u8],
        ) {
            if nx >= 0 && ny >= 0 && (nx as usize) < width && (ny as usize) < height {
                let ni = ny as usize * width + nx as usize;
                grains[ni] += 1;
                if grains[ni] >= TOPPLE_AT {
                    stack.push(ni);
                }
            }
        }
        while let Some(i) = stack.pop() {
            if self.grains[i] < TOPPLE_AT {
                continue;
            }
            self.grains[i] -= TOPPLE_AT;
            avalanche += 1;
            let x = (i % width) as isize;
            let y = (i / width) as isize;
            spill(width, height, x - 1, y, &mut stack, &mut self.grains);
            spill(width, height, x + 1, y, &mut stack, &mut self.grains);
            spill(width, height, x, y - 1, &mut stack, &mut self.grains);
            spill(width, height, x, y + 1, &mut stack, &mut self.grains);
        }
        avalanche
    }

    /// Drop one grain at a random cell; returns the avalanche size.
    fn drop_random<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let x = rng.gen_range(0..self.width);
        let y = rng.gen_range(0..self.height);
        self.drop_at(x, y)
    }

    /// Run `drops` random drops under `policy`, recording every avalanche.
    /// Call after [`Sandpile::warm_up`] to measure the critical state.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        drops: usize,
        policy: InterventionPolicy,
        rng: &mut R,
    ) -> SandpileReport {
        let mut avalanche_sizes = Vec::with_capacity(drops);
        let mut grains_relieved = 0usize;
        for t in 1..=drops {
            match policy {
                InterventionPolicy::None => {}
                InterventionPolicy::TargetedRelief { period, budget } => {
                    if period > 0 && t % period == 0 {
                        grains_relieved += self.relieve_fullest(budget, rng);
                    }
                }
                InterventionPolicy::RandomRelief { period, budget } => {
                    if period > 0 && t % period == 0 {
                        grains_relieved += self.relieve_random(budget, rng);
                    }
                }
            }
            avalanche_sizes.push(self.drop_random(rng));
        }
        SandpileReport {
            avalanche_sizes,
            grains_relieved,
        }
    }

    /// Drive the pile to its self-organized critical state by dropping
    /// `drops` grains without recording.
    pub fn warm_up<R: Rng + ?Sized>(&mut self, drops: usize, rng: &mut R) {
        for _ in 0..drops {
            self.drop_random(rng);
        }
    }

    fn relieve_fullest<R: Rng + ?Sized>(&mut self, budget: usize, rng: &mut R) -> usize {
        // Remove one grain from each of the `budget` fullest cells, with
        // random tie-breaking — a deterministic tie-break would relieve
        // the same corner of the grid forever and leave the rest critical.
        let mut order: Vec<usize> = (0..self.grains.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order.sort_by_key(|&i| std::cmp::Reverse(self.grains[i]));
        let mut removed = 0;
        for &i in order.iter().take(budget) {
            if self.grains[i] > 0 {
                self.grains[i] -= 1;
                removed += 1;
            }
        }
        removed
    }

    fn relieve_random<R: Rng + ?Sized>(&mut self, budget: usize, rng: &mut R) -> usize {
        let mut removed = 0;
        for _ in 0..budget {
            let i = rng.gen_range(0..self.grains.len());
            if self.grains[i] > 0 {
                self.grains[i] -= 1;
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::seeded_rng;

    #[test]
    fn single_topple() {
        let mut p = Sandpile::new(3, 3);
        for _ in 0..3 {
            assert_eq!(p.drop_at(1, 1), 0);
        }
        // Fourth grain topples the center onto its 4 neighbors.
        assert_eq!(p.drop_at(1, 1), 1);
        assert_eq!(p.grains_at(1, 1), 0);
        assert_eq!(p.grains_at(0, 1), 1);
        assert_eq!(p.grains_at(2, 1), 1);
        assert_eq!(p.grains_at(1, 0), 1);
        assert_eq!(p.grains_at(1, 2), 1);
        assert_eq!(p.total_grains(), 4);
    }

    #[test]
    fn boundary_loses_grains() {
        let mut p = Sandpile::new(2, 2);
        for _ in 0..3 {
            p.drop_at(0, 0);
        }
        assert_eq!(p.drop_at(0, 0), 1);
        // Corner topple: 2 grains stay (right, down), 2 fall off.
        assert_eq!(p.total_grains(), 2);
    }

    #[test]
    fn chain_reaction() {
        let mut p = Sandpile::new(3, 1);
        // Fill all three cells to 3 grains.
        for x in 0..3 {
            for _ in 0..3 {
                p.drop_at(x, 0);
            }
        }
        // One more grain in the middle cascades through the row.
        let avalanche = p.drop_at(1, 0);
        assert!(avalanche >= 3, "avalanche {avalanche}");
    }

    #[test]
    fn density_self_organizes_to_critical_value() {
        let mut rng = seeded_rng(131);
        let mut p = Sandpile::new(30, 30);
        p.warm_up(60_000, &mut rng);
        let d = p.density();
        // BTW critical density ≈ 2.12 in 2-D.
        assert!((1.9..2.3).contains(&d), "density {d}");
    }

    /// The E16 reproduction, part 1: power-law avalanches at criticality.
    #[test]
    fn avalanche_sizes_are_heavy_tailed() {
        let mut rng = seeded_rng(132);
        let mut p = Sandpile::new(40, 40);
        p.warm_up(80_000, &mut rng);
        let report = p.run(30_000, InterventionPolicy::None, &mut rng);
        // Many zero/small avalanches…
        assert!(report.tail_fraction(1) < 0.8);
        // …but some spanning hundreds of topplings.
        assert!(
            report.max_avalanche() > 300,
            "max {}",
            report.max_avalanche()
        );
        // Log-log CCDF slope of positive sizes is shallow (power-law-ish):
        let sizes: Vec<f64> = report
            .avalanche_sizes
            .iter()
            .filter(|&&s| s > 0)
            .map(|&s| s as f64)
            .collect();
        let slope = resilience_stats::tail::loglog_slope(&sizes, 0.2).unwrap();
        assert!(
            (-2.5..-0.4).contains(&slope),
            "slope {slope} should look like a power law"
        );
    }

    /// The E16 reproduction, part 2: targeted relief suppresses the
    /// largest cascades.
    #[test]
    fn targeted_relief_caps_large_avalanches() {
        let mut rng = seeded_rng(133);
        let mut baseline = Sandpile::new(30, 30);
        baseline.warm_up(50_000, &mut rng);
        let base_report = baseline.run(20_000, InterventionPolicy::None, &mut rng);

        let mut relieved = Sandpile::new(30, 30);
        relieved.warm_up(50_000, &mut rng);
        let relief_report = relieved.run(
            20_000,
            InterventionPolicy::TargetedRelief {
                period: 5,
                budget: 40,
            },
            &mut rng,
        );
        assert!(relief_report.grains_relieved > 0);
        // The intervention trims the extreme tail.
        let base_tail = base_report.tail_fraction(100);
        let relief_tail = relief_report.tail_fraction(100);
        assert!(
            relief_tail < 0.5 * base_tail,
            "relief tail {relief_tail} vs baseline {base_tail}"
        );
    }

    #[test]
    fn report_helpers() {
        let r = SandpileReport {
            avalanche_sizes: vec![0, 2, 10],
            grains_relieved: 0,
        };
        assert_eq!(r.max_avalanche(), 10);
        assert!((r.tail_fraction(2) - 2.0 / 3.0).abs() < 1e-12);
        let empty = SandpileReport {
            avalanche_sizes: vec![],
            grains_relieved: 0,
        };
        assert_eq!(empty.max_avalanche(), 0);
        assert_eq!(empty.tail_fraction(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_grid_rejected() {
        let _ = Sandpile::new(0, 3);
    }
}
