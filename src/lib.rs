//! # Systems Resilience
//!
//! A quantitative toolkit reproducing Maruyama & Minami, *Towards Systems
//! Resilience* (2013): a mathematical model of resilience based on dynamic
//! constraint satisfaction, executable models of the paper's strategy
//! catalogue (redundancy, diversity, adaptability, active resilience), and
//! the evolutionary multi-agent testbed the paper proposes.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`core`] — configurations, constraints, shocks, quality trajectories,
//!   the Bruneau resilience metric, and mode switching.
//! * [`dcsp`] — the dynamic-constraint-satisfaction model: repair search,
//!   *k*-recoverability, *K*-maintainability, belief-state reasoning.
//! * [`ecology`] — replicator dynamics, diversity indices, concave fitness
//!   and weak selection, redundant genomes, extinction experiments.
//! * [`agents`] — digital-organism populations with redundancy/diversity/
//!   adaptability budgets (the paper's §4.4 testbed).
//! * [`networks`] — scale-free/random graphs under attack, cascades, the
//!   BTW sandpile, and the forest-fire model.
//! * [`stats`] — heavy-tail statistics and early-warning signals.
//! * [`engineering`] — RAID-style storage, N-version controllers, power
//!   grids, supply chains, MAPE-K loops, portfolios.
//! * [`service`] — the graceful-degradation serving layer: deadline-aware
//!   admission control, per-family bulkheads, circuit breakers, and a
//!   self-scored brownout controller over the experiment engines.
//! * [`telemetry`] — the deterministic observability spine: structured
//!   event tracing, a metrics registry with Prometheus/JSON exposition,
//!   causal span trees with critical-path blame and incident
//!   postmortems, and live Q(t) scoring with per-cause deficit
//!   attribution.
//! * [`anticipate`] — the anticipation layer: online early-warning
//!   detection (critical slowing down) over the live deficit stream,
//!   Normal/Alert/Emergency mode switching, and tail-quantile loss
//!   provisioning.
//!
//! # Quickstart
//!
//! ```
//! use systems_resilience::core::{QualityTrajectory, resilience_loss};
//!
//! // Compare two recovery profiles with Bruneau's metric.
//! let slow = QualityTrajectory::bruneau_shape(1.0, 2, 50.0, 10, 2);
//! let fast = QualityTrajectory::bruneau_shape(1.0, 2, 50.0, 3, 2);
//! assert!(resilience_loss(&fast) < resilience_loss(&slow));
//! ```

#![forbid(unsafe_code)]

pub use resilience_agents as agents;
pub use resilience_anticipate as anticipate;
pub use resilience_cluster as cluster;
pub use resilience_core as core;
pub use resilience_dcsp as dcsp;
pub use resilience_ecology as ecology;
pub use resilience_engineering as engineering;
pub use resilience_networks as networks;
pub use resilience_service as service;
pub use resilience_stats as stats;
pub use resilience_telemetry as telemetry;
