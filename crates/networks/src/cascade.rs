//! Failure cascades and epidemics on networks.
//!
//! Two processes from the paper's discussion:
//!
//! * [`ThresholdCascade`] — Watts-style load redistribution: a node fails
//!   once the fraction of failed neighbors exceeds its threshold. This is
//!   the "cascading failures of the system leading to a large disaster,
//!   such as Northeast blackout of 2003" mechanism (§4.5).
//! * [`sir_epidemic`] — a discrete SIR "spreading virus" (§5.1) with
//!   optional immunization, comparing random vs. hub-targeted vaccine
//!   allocation.

use std::collections::VecDeque;

use rand::seq::SliceRandom;
use rand::Rng;

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

/// Outcome of an SIR epidemic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SirOutcome {
    /// Nodes ever infected.
    pub total_infected: usize,
    /// Rounds until no infectious nodes remained.
    pub rounds: usize,
}

/// How vaccine doses are allocated before the outbreak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Immunization {
    /// No vaccination.
    None,
    /// `count` random nodes immunized.
    Random {
        /// Doses available.
        count: usize,
    },
    /// The `count` highest-degree nodes immunized — protecting the hubs
    /// that §5.1 identifies as the scale-free network's weak point.
    Hubs {
        /// Doses available.
        count: usize,
    },
}

/// Discrete-time SIR: each round every infectious node infects each
/// susceptible neighbor with probability `beta`, then recovers.
pub fn sir_epidemic<R: Rng + ?Sized>(
    graph: &Graph,
    beta: f64,
    seed_count: usize,
    immunization: Immunization,
    rng: &mut R,
) -> SirOutcome {
    assert!(
        (0.0..=1.0).contains(&beta),
        "infection rate must be in [0,1]"
    );
    let n = graph.len();
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Susceptible,
        Infectious,
        Recovered,
        Immune,
    }
    let mut state = vec![State::Susceptible; n];
    match immunization {
        Immunization::None => {}
        Immunization::Random { count } => {
            let mut nodes: Vec<usize> = (0..n).collect();
            nodes.shuffle(rng);
            for &v in nodes.iter().take(count.min(n)) {
                state[v] = State::Immune;
            }
        }
        Immunization::Hubs { count } => {
            for &v in graph.nodes_by_degree_desc().iter().take(count.min(n)) {
                state[v as usize] = State::Immune;
            }
        }
    }
    // Seed among the still-susceptible.
    let susceptible: Vec<usize> = (0..n).filter(|&v| state[v] == State::Susceptible).collect();
    let mut infectious: Vec<usize> = susceptible
        .choose_multiple(rng, seed_count.min(susceptible.len()))
        .copied()
        .collect();
    for &v in &infectious {
        state[v] = State::Infectious;
    }
    let mut total_infected = infectious.len();
    let mut rounds = 0;
    while !infectious.is_empty() {
        rounds += 1;
        let mut next = Vec::new();
        for &v in &infectious {
            for &w in graph.neighbors(v) {
                let w = w as usize;
                if state[w] == State::Susceptible && rng.gen_bool(beta) {
                    state[w] = State::Infectious;
                    next.push(w);
                    total_infected += 1;
                }
            }
        }
        for &v in &infectious {
            state[v] = State::Recovered;
        }
        infectious = next;
    }
    SirOutcome {
        total_infected,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, complete, ring_lattice};
    use resilience_core::seeded_rng;

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

    #[test]
    fn epidemic_spreads_on_dense_graph() {
        let mut rng = seeded_rng(121);
        let g = complete(60);
        let out = sir_epidemic(&g, 0.2, 1, Immunization::None, &mut rng);
        assert!(out.total_infected > 50, "infected {}", out.total_infected);
    }

    #[test]
    fn zero_beta_never_spreads() {
        let mut rng = seeded_rng(122);
        let g = complete(30);
        let out = sir_epidemic(&g, 0.0, 2, Immunization::None, &mut rng);
        assert_eq!(out.total_infected, 2);
        assert_eq!(out.rounds, 1);
    }

    /// The §5.1 countermeasure: on a scale-free graph, hub immunization
    /// beats random immunization with the same number of doses.
    #[test]
    fn hub_immunization_beats_random_on_scale_free() {
        let mut rng = seeded_rng(123);
        let g = barabasi_albert(1_500, 2, &mut rng);
        let doses = 150; // 10%
        let trials = 30;
        let mut hub_total = 0usize;
        let mut rand_total = 0usize;
        for _ in 0..trials {
            hub_total += sir_epidemic(&g, 0.35, 3, Immunization::Hubs { count: doses }, &mut rng)
                .total_infected;
            rand_total +=
                sir_epidemic(&g, 0.35, 3, Immunization::Random { count: doses }, &mut rng)
                    .total_infected;
        }
        assert!(
            (hub_total as f64) < 0.6 * rand_total as f64,
            "hubs {hub_total} vs random {rand_total}"
        );
    }
}
