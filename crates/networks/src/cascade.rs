//! Failure cascades on networks.
//!
//! [`ThresholdCascade`] is Watts-style load redistribution: a node fails
//! once the fraction of failed neighbors exceeds its threshold. This is
//! the "cascading failures of the system leading to a large disaster,
//! such as Northeast blackout of 2003" mechanism (§4.5).

use std::collections::VecDeque;

use crate::graph::Graph;

/// Watts threshold cascade: node `v` fails when
/// `failed_neighbors(v) / degree(v) ≥ threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdCascade {
    /// Failure threshold in `(0, 1]`.
    pub threshold: f64,
}

/// Outcome of a cascade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeOutcome {
    /// Total failed nodes (including the seeds).
    pub failed: usize,
    /// Rounds until the cascade stopped.
    pub rounds: usize,
}

impl ThresholdCascade {
    /// New cascade model.
    ///
    /// # Panics
    ///
    /// Panics if `threshold ∉ (0, 1]`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        ThresholdCascade { threshold }
    }

    /// Run the cascade from `seeds` on `graph`.
    pub fn run(&self, graph: &Graph, seeds: &[usize]) -> CascadeOutcome {
        let n = graph.len();
        let mut failed = vec![false; n];
        let mut failed_neighbors = vec![0usize; n];
        // Each queued node carries the round it failed in (seeds: 1).
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        let mut failed_count = 0;
        for &s in seeds {
            if s < n && !failed[s] {
                failed[s] = true;
                failed_count += 1;
                queue.push_back((s, 1));
            }
        }
        let mut rounds = 0;
        while let Some((v, round)) = queue.pop_front() {
            rounds = round;
            for &w in graph.neighbors(v) {
                let w = w as usize;
                if failed[w] {
                    continue;
                }
                failed_neighbors[w] += 1;
                let deg = graph.degree(w).max(1);
                if failed_neighbors[w] as f64 / deg as f64 >= self.threshold {
                    failed[w] = true;
                    failed_count += 1;
                    queue.push_back((w, round + 1));
                }
            }
        }
        CascadeOutcome {
            failed: failed_count,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, ring_lattice};

    #[test]
    fn low_threshold_cascades_globally() {
        // Ring with k=2: each node has 4 neighbors; threshold 0.25 means
        // a single failed neighbor suffices — the whole ring falls.
        let g = ring_lattice(100, 2);
        let c = ThresholdCascade::new(0.25);
        let out = c.run(&g, &[0]);
        assert_eq!(out.failed, 100);
        assert!(out.rounds > 10); // propagates outward, not instantly
    }

    #[test]
    fn high_threshold_contains_cascade() {
        let g = ring_lattice(100, 2);
        let c = ThresholdCascade::new(0.6); // needs 3 of 4 neighbors
        let out = c.run(&g, &[0]);
        assert_eq!(out.failed, 1, "cascade must not spread");
    }

    #[test]
    fn duplicate_and_out_of_range_seeds() {
        let g = complete(5);
        let c = ThresholdCascade::new(1.0);
        let out = c.run(&g, &[2, 2, 99]);
        assert_eq!(out.failed, 1);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_zero_threshold() {
        let _ = ThresholdCascade::new(0.0);
    }

    #[test]
    fn denser_seeding_fails_more() {
        let g = ring_lattice(60, 1);
        let c = ThresholdCascade::new(0.5);
        let one = c.run(&g, &[0]);
        let many = c.run(&g, &[0, 20, 40]);
        assert!(many.failed >= one.failed);
    }
}
