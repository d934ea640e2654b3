//! The evolutionary multi-agent testbed of the paper's §4.4.
//!
//! "We plan to address that question using an evolutionary multi-agent
//! system. Each agent in the system is a digital organism that can
//! self-replicate, mutate, or evolve … We quantify the three resilience
//! properties of the system as follows. First, we consider the amount of a
//! resource owned by an agent as the redundancy factor. An agent can
//! remain alive until it uses up its resources even if it does not satisfy
//! a constraint for a certain period. Second, we measure the diversity of
//! a population … with the diversity index … Third, we quantify the speed
//! of an adaptation by the number of bits an agent can flip at a time."
//!
//! * [`organism`] — a digital organism: genome (bit string), resource
//!   store, adaptation rate.
//! * [`environment`] — target configurations over time: static, drifting,
//!   or shock-driven.
//! * [`population`] — the agent population with §4.4's three metrics.
//! * [`dynamics`] — the simulation loop: adapt → earn/burn → reproduce →
//!   die.
//! * [`budget`] — [`resilience_core::BudgetAllocation`] → concrete
//!   organism parameters at equal total cost.
//! * [`experiment`] — the E14 sweep: survival across the budget simplex
//!   and shock regimes.
//!
//! # Example
//!
//! ```
//! use resilience_agents::experiment::{evaluate_allocation, ShockRegime};
//! use resilience_core::{BudgetAllocation, Strategy};
//!
//! // Pure redundancy cannot track a drifting environment (§4.4).
//! let redundancy = BudgetAllocation::pure(Strategy::Redundancy);
//! let outcome = evaluate_allocation(&redundancy, ShockRegime::SteadyDrift, 200, 3, 42);
//! assert_eq!(outcome.survival_rate(), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never `unwrap()` or `expect()`; tests are exempt because a
// failed unwrap there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod budget;
pub mod dynamics;
pub mod environment;
pub mod experiment;
pub mod organism;
pub mod population;

pub use budget::{BudgetedParams, BUDGET_POINTS};
pub use dynamics::{SimConfig, SimOutcome, Simulation};
pub use environment::{Environment, EnvironmentKind};
pub use experiment::{sweep_budgets, RegimeOutcome, ShockRegime};
pub use organism::Organism;
pub use population::{Population, PopulationStats};
