//! Core abstractions for the Systems Resilience project.
//!
//! This crate implements the mathematical backbone of Maruyama & Minami,
//! *Towards Systems Resilience* (2013):
//!
//! * [`Config`] — a system configuration represented as a finite bit string
//!   (the paper's §4.2 model: "a system status can be represented as a bit
//!   string of length n").
//! * [`Constraint`] — an environment, i.e. the set `C` of *fit*
//!   configurations; a system is fit iff its configuration satisfies the
//!   constraint.
//! * [`Shock`] — a perturbation event (the paper's event "type D"), which may
//!   damage the configuration, shift the environment, or both.
//! * [`QualityTrajectory`] and [`bruneau`] — Bruneau's quantitative
//!   resilience metric `R = ∫ [100 − Q(t)] dt` (the "resilience triangle" of
//!   the paper's Fig. 3).
//! * [`modes`] — normal/emergency *mode switching* (§3.4.6).
//! * [`strategy`] — the taxonomy of resilience strategies (redundancy,
//!   diversity, adaptability, active resilience) and budget allocations over
//!   them (§3, §4.4).
//!
//! The substrate crates (`resilience-dcsp`, `resilience-ecology`,
//! `resilience-networks`, `resilience-stats`, `resilience-engineering`,
//! `resilience-agents`) all build on these types.
//!
//! # Example
//!
//! ```
//! use resilience_core::{Config, Constraint, AllOnes, QualityTrajectory};
//!
//! // A 8-component system where every component must be up (C = 1^n).
//! let constraint = AllOnes::new(8);
//! let mut state = Config::ones(8);
//! assert!(constraint.is_fit(&state));
//!
//! // A shock knocks out components 2 and 5.
//! state.clear(2);
//! state.clear(5);
//! assert!(!constraint.is_fit(&state));
//!
//! // Quality drops to 75 and recovers linearly; measure the Bruneau loss.
//! let q = QualityTrajectory::from_samples(1.0, vec![100.0, 75.0, 87.5, 100.0]);
//! let loss = resilience_core::bruneau::resilience_loss(&q);
//! assert!(loss > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed `CoreError`s, never
// `unwrap()`; tests are exempt (the `not(test)` gate) because a failed
// unwrap there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bok;
pub mod bruneau;
pub mod config;
pub mod constraint;
pub mod error;
pub mod faults;
pub mod modes;
pub mod quality;
pub mod rng;
pub mod runtime;
pub mod series;
pub mod shock;
pub mod strategy;

pub use bok::{BokEntry, Catalogue, Domain};
pub use bruneau::{resilience_loss, ResilienceTriangle};
pub use config::{BitIndexIter, Config};
pub use constraint::{
    AllOnes, AndConstraint, AtLeastOnes, Constraint, ExplicitSet, NotConstraint, OrConstraint,
    PredicateConstraint,
};
pub use error::CoreError;
pub use faults::{
    AttemptRecord, AttemptSegment, FailureCause, FaultConfig, FaultKind, FaultPlan, LostTrial,
    RecoveryPolicy, RunReport, Supervision, TrialCheckpoint,
};
pub use modes::{CappedLog, Escalation, Ladder, LadderState, Rung, LOG_CAP};
pub use quality::QualityTrajectory;
pub use rng::{derive_seed, seeded_rng};
pub use runtime::{ParallelTrials, RunContext};
pub use series::TimeSeries;
pub use shock::{Shock, ShockKind, ShockSchedule};
pub use strategy::{BudgetAllocation, Strategy};
