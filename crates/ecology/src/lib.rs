//! Ecological and evolutionary dynamics for the Systems Resilience project
//! (the paper's §3.1.1, §3.2.1, §3.2.4, §3.3.1).
//!
//! * [`diversity`] — the paper's Diversity Index (inverse Simpson,
//!   `G = 1/Σ qᵢ²`), Shannon entropy, richness, evenness.
//! * [`fitness`] — fitness landscapes: linear (constant), *concave /
//!   diminishing-return* (the paper's Fig. 2), and density-dependent
//!   (fitness decreasing in own population — the paper's mechanism for
//!   sustained diversity).
//! * [`replicator`] — the discrete replicator equation
//!   `pᵢᵗ⁺¹ = pᵢᵗ · πᵢ/π̄ᵗ` with optional mutation.
//! * [`weak_selection`] — Wright–Fisher allele dynamics in the
//!   near-neutral regime (Kimura/Ohta/Akashi): concave cumulative-advantage
//!   fitness makes selection on further mutations weak.
//! * [`moran`] — the Moran birth–death process with exact fixation
//!   probabilities for cross-checking.
//! * [`polarization`] — §3.2.4's closing claim: linear (financial)
//!   accumulation polarizes wealth and concentrates fragility; diminishing
//!   returns equalize.
//! * [`extinction`] — mass-extinction experiments: diverse vs. monoculture
//!   communities under abrupt environment shifts (§3.2.1).
//! * [`genome`] — redundant genomes under gene knockouts (E. coli, §3.1.1).
//! * [`dormant`] — dormant-trait reactivation (the stickleback armor
//!   plates, §3.1.1 and Fig. 1).
//!
//! # Example
//!
//! ```
//! use resilience_ecology::diversity_index;
//! // Four equally-sized species: G = 4. One dominant: G → 1.
//! assert!((diversity_index(&[25.0, 25.0, 25.0, 25.0]).unwrap() - 4.0).abs() < 1e-9);
//! assert!(diversity_index(&[97.0, 1.0, 1.0, 1.0]).unwrap() < 1.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never `unwrap()` or `expect()`; tests are exempt because a
// failed unwrap there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod diversity;
pub mod dormant;
pub mod extinction;
pub mod fitness;
pub mod genome;
pub mod granularity;
pub mod moran;
pub mod polarization;
pub mod replicator;
pub mod weak_selection;

pub use diversity::{diversity_index, evenness, raw_diversity_index, richness, shannon_entropy};
pub use dormant::{DormantTraitModel, DormantTraitOutcome};
pub use extinction::{ExtinctionExperiment, ExtinctionOutcome};
pub use fitness::{ConcaveFitness, DensityDependent, FitnessFn, LinearFitness};
pub use genome::{KnockoutOutcome, RedundantGenome};
pub use granularity::{hierarchical_experiment, hierarchical_survival, GranularityReport};
pub use moran::MoranProcess;
pub use polarization::{gini, top_share, WealthModel};
pub use replicator::{ReplicatorSim, ReplicatorTrajectory};
pub use weak_selection::{AlleleDynamics, SelectionRegime};
