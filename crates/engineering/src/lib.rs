//! Engineered-system resilience models (the paper's §3.1.2, §3.1.3,
//! §3.2.2, §3.2.3, §3.3.2).
//!
//! Each module is an executable version of one of the paper's engineering
//! case studies:
//!
//! * [`storage`] — RAID-style redundant disk arrays (§3.1.2, Patterson et
//!   al.): survival under disk failures as a function of parity count.
//! * [`grid`] — the Japanese-grid reserve-margin story (§3.1.2): excess
//!   capacity lets the system lose a third of generation without blackout.
//! * [`supply_chain`] — monetary reserve as universal redundancy (§3.1.3):
//!   firms survive a revenue outage iff reserves cover the burn.
//! * [`interop`] — interoperability as mutual backup (§3.1.3, the 9/11
//!   communication story).
//! * [`nversion`] — Boeing-777-style N-version design diversity (§3.2.2):
//!   identical designs share design-flaw failures; diverse designs don't.
//! * [`portfolio`] — investment diversification (§3.2.3): slightly lower
//!   expected return, drastically lower catastrophic-loss risk.
//! * [`mape`] — the MAPE (Monitor–Analyze–Plan–Execute) autonomic loop
//!   (§3.3.2, Kephart & Chess): adaptability as tracking speed.
//! * [`response`] — emergency response structures (§3.4.3, ISO 22320):
//!   centralized dispatch vs. empowered on-site teams.
//! * [`regulation`] — regulatory adaptability (§3.3.3): slow top-down
//!   legislation vs. fast co-regulation.
//!
//! # Example
//!
//! ```
//! use resilience_engineering::{DesignStrategy, NVersionController};
//!
//! // The Boeing 777 story: identical designs share common-mode flaws.
//! let identical = NVersionController::new(3, DesignStrategy::Identical, 0.01, 0.01);
//! let diverse = NVersionController::new(3, DesignStrategy::Diverse, 0.01, 0.01);
//! assert!(diverse.analytic_failure_probability() < identical.analytic_failure_probability());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors or documented
// panics, never `unwrap()`; tests are exempt because a failed unwrap
// there *is* the assertion.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod grid;
pub mod interop;
pub mod mape;
pub mod nversion;
pub mod portfolio;
pub mod regulation;
pub mod response;
pub mod storage;
pub mod supply_chain;

pub use grid::{GridOutcome, PowerGrid};
pub use interop::{InteropModel, InteropOutcome};
pub use mape::{MapeLoop, MapeOutcome};
pub use nversion::{DesignStrategy, NVersionController, NVersionOutcome};
pub use portfolio::{Portfolio, PortfolioOutcome};
pub use regulation::{track_environment, RegulationOutcome, RegulatoryRegime};
pub use response::{respond, CommandStructure, ResponseOutcome};
pub use storage::{StorageArray, StorageOutcome};
pub use supply_chain::{SupplyChain, SupplyChainOutcome};
