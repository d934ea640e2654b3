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
//!   call the system k-recoverable." One exact check
//!   ([`check_recoverability`]) and a Monte-Carlo estimate.
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
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod belief;
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
pub use cost::{CostConstraint, CostFunction, WeightedMismatch};
pub use maintainability::{
    analyze_bit_dcsp, analyze_bit_dcsp_adversarial, try_analyze_bit_dcsp,
    try_analyze_bit_dcsp_adversarial, MaintainabilityReport, TransitionSystem,
};
pub use problem::{DcspSystem, EpisodeRecord};
pub use recoverability::{
    check_recoverability, recoverability_reference, RecoverabilityOptions, RecoverabilityReport,
    VerifyStats,
};
pub use repair::{AnnealRepair, BfsRepair, GreedyRepair, RepairOutcome, RepairStrategy};
pub use scenario::{Scenario, ScenarioReport, ScenarioStep};
pub use spacecraft::{MissionLog, Spacecraft};
pub use symmetry::{DamageOrbit, SymmetryClasses};
pub use telemetry::{record_maintainability, record_verification};
pub use tiger_team::{random_testing, AttackReport, TigerTeam};
