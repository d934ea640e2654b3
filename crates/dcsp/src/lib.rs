//! Dynamic constraint satisfaction substrate for the Systems Resilience
//! model (the paper's §4).
//!
//! "We base our model on the framework of dynamic constraint satisfaction
//! problems (DCSPs) and formally define the notion of resilience of open
//! dynamic systems."
//!
//! * [`DcspSystem`] — a system with a bit-string state living in an
//!   environment (constraint) that can change; shocks perturb state and/or
//!   environment; repair strategies flip bits to regain fitness.
//! * [`repair`] — single-bit-flip repair search: greedy descent on the
//!   constraint's violation degree, BFS-optimal repair, and simulated
//!   annealing, all restricted to the paper's "flip one bit at a time"
//!   move set.
//! * [`recoverability`] — *k*-recoverability (§4.2): "If the system can fix
//!   its configuration for any perturbations of type D within k steps, we
//!   call the system k-recoverable." Exhaustive and Monte-Carlo checkers.
//! * [`maintainability`] — *K*-maintainability (§4.3, after Baral & Eiter):
//!   policy construction over an explicit transition system with exogenous
//!   and controllable transitions.
//! * [`belief`] — reasoning under uncertainty (§4.3): belief states as sets
//!   of possible configurations, conservative repair.
//! * [`spacecraft`] — the paper's worked example: `C = 1^n`, space debris
//!   damages at most `k` components, one repair per step.
//!
//! # Example
//!
//! ```
//! use resilience_dcsp::{DcspSystem, GreedyRepair};
//! use resilience_core::{AllOnes, ShockKind, seeded_rng};
//! use std::sync::Arc;
//!
//! let mut rng = seeded_rng(7);
//! let mut sys = DcspSystem::fit_under(Arc::new(AllOnes::new(16)));
//! sys.strike(&ShockKind::BitDamage { flips: 3 }, &mut rng);
//! assert!(!sys.is_fit());
//! let outcome = sys.repair(&GreedyRepair::new(), 16);
//! assert!(outcome.recovered);
//! assert_eq!(outcome.steps, 3); // one flip per damaged bit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed `CoreError`s, never
// `unwrap()`; tests are exempt (the `not(test)` gate) because a failed
// unwrap there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod belief;
pub mod bitwords;
pub mod cost;
pub mod maintainability;
pub mod problem;
pub mod recoverability;
pub mod repair;
pub mod scenario;
pub mod spacecraft;
pub mod symmetry;
pub mod telemetry;
pub mod tiger_team;

pub use belief::BeliefState;
pub use bitwords::BitWords;
pub use cost::{CostConstraint, CostFunction, WeightedClauses, WeightedMismatch};
pub use maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, analyze_bit_dcsp_adversarial_frontiers,
    analyze_bit_dcsp_frontiers, try_analyze_bit_dcsp, try_analyze_bit_dcsp_adversarial,
    FrontierSummary, MaintainabilityReport, MaintenancePolicy, TransitionSystem,
};
pub use problem::{DcspSystem, EpisodeRecord};
pub use recoverability::{
    is_k_recoverable_auto, is_k_recoverable_exhaustive, is_k_recoverable_exhaustive_parallel,
    is_k_recoverable_exhaustive_parallel_stats, is_k_recoverable_exhaustive_stats,
    is_k_recoverable_symmetric, is_k_recoverable_symmetric_stats, recoverability_reference,
    sampled_recoverability, RecoverabilityReport, VerifyStats,
};
pub use repair::{AnnealRepair, BfsRepair, GreedyRepair, RepairOutcome, RepairStrategy};
pub use scenario::{Scenario, ScenarioReport, ScenarioStep};
pub use spacecraft::{MissionLog, Spacecraft};
pub use symmetry::{DamageOrbit, SymmetryClasses};
pub use telemetry::{record_frontier_summary, record_maintainability, record_verification};
pub use tiger_team::{random_testing, AttackReport, TigerTeam};
