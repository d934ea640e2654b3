//! Network and lattice substrates for the Systems Resilience project
//! (the paper's §4.5 and §5.1).
//!
//! * [`graph`] / [`generators`] — the workspace's one graph type, a
//!   compressed-sparse-row [`Graph`] with sorted neighbor lists and a
//!   union–find giant-component routine over an `alive` predicate,
//!   which [`GiantTracker`] falls back to when it cannot repair a giant
//!   incrementally across a sequence of alive sets; one
//!   generator per family (Barabási–Albert, skip-sampled Erdős–Rényi,
//!   Watts–Strogatz, planted partition, complete), and
//!   [`Graph::generate`] for a seeded [`TopologyKind`]. The cluster
//!   simulator (`crates/cluster`) runs on the same graph.
//! * [`percolation`] / [`attack`] — "network-based systems that possess the
//!   scale-free property are extremely robust against random failures …
//!   However, … a spreading virus deliberately designed to attack the hubs
//!   … such connectivity becomes a vulnerability" (Barabási, §5.1).
//!   Giant-component tracking under random vs. targeted node removal.
//! * [`cascade`] — Watts-style threshold cascades.
//! * [`sandpile`] — the Bak–Tang–Wiesenfeld sandpile: "many decentralized
//!   systems … naturally reach a critical state … a small disturbance …
//!   could cause cascading failures" (§4.5). Includes centrally-coordinated
//!   relief interventions (the "small destructions" the paper suggests).
//! * [`forest_fire`] — the Drossel–Schwabl forest-fire model with fire
//!   suppression: "it is a common wisdom not to extinguish small forest
//!   fires … otherwise … the risk of a large-scale forest fire would much
//!   increase" (§3.2.3).
//!
//! # Example
//!
//! ```
//! use resilience_networks::{attack_sweep, barabasi_albert, AttackStrategy};
//! use resilience_core::seeded_rng;
//!
//! let mut rng = seeded_rng(1);
//! let graph = barabasi_albert(500, 2, &mut rng);
//! let random = attack_sweep(&graph, AttackStrategy::Random, 250, &mut rng);
//! let targeted = attack_sweep(&graph, AttackStrategy::TargetedByDegree, 250, &mut rng);
//! // Hub attacks hurt a scale-free network far more than random failures.
//! assert!(targeted.robustness() < random.robustness());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never `unwrap()`; tests are exempt because a failed unwrap
// there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod attack;
pub mod cascade;
pub mod forest_fire;
pub mod generators;
pub mod giant;
pub mod graph;
pub mod percolation;
pub mod sandpile;
pub mod union_find;

pub use attack::{attack_sweep, AttackCurve, AttackStrategy};
pub use cascade::{CascadeOutcome, ThresholdCascade};
pub use forest_fire::{ForestFire, ForestPolicy, ForestReport};
pub use generators::{
    barabasi_albert, complete, erdos_renyi, planted_partition, ring_lattice, TopologyKind,
};
pub use giant::{GiantSnapshot, GiantTracker};
pub use graph::Graph;
pub use sandpile::{InterventionPolicy, Sandpile, SandpileReport};
pub use union_find::UnionFind;
