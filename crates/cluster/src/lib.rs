//! Cluster-scale cascade simulation for the Systems Resilience model
//! (the paper's §5 at collective scale).
//!
//! A cluster is a fleet of miniature service nodes wired by a seeded
//! generated topology. Failures propagate sandpile-style — a dead
//! node's load sheds equally onto surviving neighbors, overloads
//! topple in waves — while the MAPE-K supervisor plans cross-node
//! recovery on the logical tick clock. The layer exists to measure
//! resilience *collectively*: attack-vs-random R curves, cascade-size
//! distributions at criticality, and prescribed-burn policies scored
//! as ΔR.
//!
//! * Topology — the cluster runs on [`resilience_networks::Graph`], the
//!   workspace's one compressed-sparse-row graph, drawn by
//!   `Graph::generate` from a seeded [`TopologyKind`] (scale-free,
//!   Erdős–Rényi or Watts–Strogatz) and scored each tick by its
//!   giant-component routine.
//! * [`NodeFleet`] — structure-of-arrays per-node service state
//!   (baseline demand, Motter–Lai capacity, load, MAPE-K bookkeeping).
//! * [`propagate`] — deterministic cascade waves over word-packed
//!   alive-sets ([`resilience_core::Config`]).
//! * [`ClusterEngine`] — the tick loop: revive → burn → surge → chaos
//!   → attack → cascade → plan → drain → score.
//! * [`BurnPolicy`] — prescribed burns: periodic controlled relief of
//!   the most-stressed nodes.
//! * [`record_cluster`] — the one derivation of a [`ClusterReport`]'s
//!   trace events, flight-recorder triggers and metric families through
//!   `crates/telemetry`.
//!
//! # Example
//!
//! ```
//! use resilience_cluster::{
//!     AttackSpec, ClusterConfig, ClusterEngine, TopologyKind,
//! };
//! use resilience_core::FaultPlan;
//! use resilience_networks::AttackStrategy;
//!
//! let config = ClusterConfig::new(500, TopologyKind::ScaleFree { m: 3 });
//! let engine = ClusterEngine::new(config, 7);
//! let attack = AttackSpec {
//!     tick: 5,
//!     strategy: AttackStrategy::TargetedByDegree,
//!     fraction: 0.05,
//!     recoverable: false,
//! };
//! let report = engine.run(1, Some(&attack), &FaultPlan::none());
//! assert!(report.resilience_loss() > 0.0);
//! // Bit-identical on every rerun: the run is a pure function.
//! assert_eq!(report, engine.run(1, Some(&attack), &FaultPlan::none()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors, never `unwrap()`
// or `expect()`; tests are exempt (the `not(test)` gate) because a failed
// unwrap there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod burn;
pub mod cascade;
pub mod engine;
pub mod node;
pub mod telemetry;

pub use burn::{select_most_stressed, BurnPolicy};
pub use cascade::{propagate, CascadeScratch, CascadeStats};
pub use engine::{
    AttackSpec, CascadeRecord, ClusterConfig, ClusterEngine, ClusterReport, NodeAnticipationConfig,
    NodeModeShift, BURN_COST, DISCONNECT_COST,
};
pub use node::{NodeFleet, NEVER};
pub use telemetry::{record_cluster, CASCADE_SIZE_BOUNDS};
// `Graph` keeps its old cluster-side name for the reference benchmark
// (`refbench/`), which is pinned to this import path; everything in the
// workspace itself names `resilience_networks::Graph`.
pub use resilience_networks::{Graph as CsrTopology, TopologyKind};
