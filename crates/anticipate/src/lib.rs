//! Anticipation layer for the Systems Resilience stack (§3.4, "active
//! resilience").
//!
//! The reactive controllers in `resilience-service` — brownout dimmer,
//! circuit breakers, admission control — only move *after* quality has
//! already been lost: the dimmer needs a deficit to smooth, the breaker
//! needs failures to count. The paper's §3.4.1 argues a resilient
//! system should *anticipate*: dynamical systems approaching a tipping
//! point exhibit critical slowing down — rising variance and rising
//! lag-1 autocorrelation in their output signal (Scheffer 2009) — which
//! is measurable *before* the collapse. This crate turns that into a
//! deterministic control loop:
//!
//! * [`detector`] — [`EarlyWarning`]: an online, O(1)-per-sample
//!   detector over the live deficit stream. A ring-buffered rolling
//!   window holds EMA-detrended residuals; sliding Welford updates
//!   maintain their variance, an incremental cross-sum maintains their
//!   lag-1 autocorrelation, and a hysteretic latch (confirmation runs
//!   on both flanks) turns the composite score into a warning flag a
//!   single spike cannot flap.
//! * [`modes`] — [`AnticipationController`]: explicit Normal / Alert /
//!   Emergency operating modes (§3.4.6) driven by the warning score on
//!   the core hysteresis ladder (`resilience_core::modes`), each
//!   carrying a policy set — brownout pre-dim floor, breaker
//!   cooldown widening, admission deadline tightening, and the
//!   provisioning rule.
//! * [`provision`] — [`LossWindow`]: the Taleb caveat made executable.
//!   Sample-mean provisioning fails when losses are heavy-tailed
//!   (§3.4.6: a power law "may not have a finite average value"), so
//!   the loss window estimates the tail index with the Hill estimator
//!   (`resilience-stats`) and switches from mean-based to
//!   tail-quantile-based provisioning when the tail is heavy.
//!
//! Everything here is a pure function of the samples fed in: no clocks,
//! no randomness, no thread-dependence. The serving layer's
//! anticipatory path drives it from its logical tick loop, so warning
//! scores and mode transition logs replay bit-identically for any
//! thread budget. (The cluster engine borrows only [`OperatingMode`]:
//! its per-node ladders read raw neighborhood pressure, not a
//! detector.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod detector;
pub mod modes;
pub mod provision;

pub use detector::{EarlyWarning, EarlyWarningConfig, WarningSnapshot};
pub use modes::{
    AnticipationConfig, AnticipationController, ModePolicy, ModeSwitchConfig, ModeTransition,
    OperatingMode,
};
pub use provision::{LossWindow, ProvisioningPolicy};
