//! Deterministic fault injection and self-healing supervision.
//!
//! The paper defines resilience operationally: a shock of type `D`
//! perturbs the system and recovery must complete within a bounded
//! number of steps (§4.2, *k*-recoverability). This module turns the
//! Monte Carlo runtime itself into a live demonstration of that model:
//!
//! * [`FaultPlan`] — a *seeded* plan of injectable shocks (panics,
//!   artificial delays, transiently poisoned results), keyed by
//!   `(experiment, stream, trial)` so a plan replays exactly no matter
//!   how trials are scheduled across threads.
//! * [`RecoveryPolicy`] — the paper's *k* budget: bounded retries with
//!   capped exponential backoff plus an optional per-attempt deadline.
//! * [`RunReport`] — the run's self-measurement (RESMETRIC-style): every
//!   supervised run records its own health trajectory (fraction of trial
//!   slots healthy over logical time) and scores it with the Bruneau
//!   integral, so a faulted run reports its own resilience triangle `R`.
//!
//! The supervisor that consumes these types (a small MAPE-K loop — see
//! `crates/engineering/src/mape.rs` for the modelled counterpart) lives
//! in [`crate::runtime`]; supervision is enabled per run through
//! [`crate::RunContext::supervised`].

use std::fmt;
use std::time::Duration;

use crate::bruneau::resilience_loss;
use crate::error::CoreError;
use crate::quality::{QualityTrajectory, FULL_QUALITY};
use crate::rng::derive_seed;

/// The kind of shock injected into one trial slot — the module's
/// rendering of the paper's type-`D` perturbation taxonomy (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The trial attempt panics (a crash fault; the configuration is
    /// damaged and the attempt dies).
    Panic,
    /// The trial attempt is artificially delayed before executing (a
    /// timing fault; combined with a [`RecoveryPolicy::deadline`] this
    /// models the paper's bounded-recovery-time requirement).
    Delay,
    /// The trial executes but its result is discarded as untrustworthy
    /// (a value fault; the environment rejects the delivered state).
    Poison,
    /// The backend keeps answering but at a slowed work rate — a *gray*
    /// failure: alive to a circuit breaker (its responses still count as
    /// successes) yet useless against a deadline. In the serving layer a
    /// gray replica's effective work is inflated by
    /// [`FaultPlan::gray_factor`]; in the Monte Carlo runtime it behaves
    /// like a delay that never fails.
    Gray,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Delay => write!(f, "delay"),
            FaultKind::Poison => write!(f, "poison"),
            FaultKind::Gray => write!(f, "gray"),
        }
    }
}

/// The fault assigned to one `(experiment, stream, trial)` slot: `kind`
/// fires on every attempt index `< attempts`, then clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotFault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// How many leading attempts the fault hits; `u32::MAX` means the
    /// fault is permanent (never clears, the slot is unrecoverable).
    pub attempts: u32,
}

impl SlotFault {
    /// Whether this fault fires on the given (0-based) attempt.
    fn fires_on(&self, attempt: u32) -> bool {
        attempt < self.attempts
    }

    /// Whether the fault never clears.
    pub fn is_permanent(&self) -> bool {
        self.attempts == u32::MAX
    }
}

/// A seeded, replayable fault-injection plan.
///
/// Whether a trial slot is faulted — and with which [`FaultKind`] — is a
/// pure function of `(plan seed, experiment, stream, trial)`, so the same
/// plan injects exactly the same faults for any thread budget or
/// execution order. Transient faults fire on the first
/// `transient_attempts` attempts of a slot and then clear; a separate
/// `permanent_rate` assigns slots faults that never clear (these exhaust
/// any retry budget and exercise graceful degradation).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's own decision stream (independent of the
    /// experiment's master seed: the same chaos can be replayed against
    /// different science, and vice versa).
    pub seed: u64,
    /// Fraction of trial slots given a transient [`FaultKind::Panic`].
    pub panic_rate: f64,
    /// Fraction of trial slots given a transient [`FaultKind::Delay`].
    pub delay_rate: f64,
    /// Fraction of trial slots given a transient [`FaultKind::Poison`].
    pub poison_rate: f64,
    /// Fraction of trial slots given a *permanent* panic fault.
    pub permanent_rate: f64,
    /// Fraction of trial slots given a transient [`FaultKind::Gray`]
    /// fault (served, but slowed by [`FaultPlan::gray_factor`]).
    pub gray_rate: f64,
    /// Probability, per `(experiment, stream, trial, diversity_class)`
    /// key, that a correlated shock fells every replica sharing that
    /// `diversity_class` (see [`FaultPlan::correlated_hit`]). Drawn on a
    /// stream independent of the per-slot chain, so turning it on does
    /// not reshuffle existing panic/delay/poison/gray draws.
    pub correlated_rate: f64,
    /// Work-rate inflation of a gray backend: a gray replica needs
    /// `gray_factor ×` the healthy work to serve the same request.
    pub gray_factor: u64,
    /// Length of an injected delay.
    pub delay: Duration,
    /// Attempts a transient fault persists for before clearing.
    pub transient_attempts: u32,
}

/// Largest `gray_factor`, and largest `delay` in milliseconds, a plan may
/// carry (the bound `FaultConfig::parse` reads both with).
const MAX_WORK_MULTIPLIER: u64 = u32::MAX as u64;

impl FaultPlan {
    /// A quiet plan: no faults are ever injected (supervision still
    /// isolates genuine panics and enforces the recovery policy).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            panic_rate: 0.0,
            delay_rate: 0.0,
            poison_rate: 0.0,
            permanent_rate: 0.0,
            gray_rate: 0.0,
            correlated_rate: 0.0,
            gray_factor: 4,
            delay: Duration::from_millis(1),
            transient_attempts: 1,
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_quiet(&self) -> bool {
        self.panic_rate == 0.0
            && self.delay_rate == 0.0
            && self.poison_rate == 0.0
            && self.permanent_rate == 0.0
            && self.gray_rate == 0.0
            && self.correlated_rate == 0.0
    }

    /// Validate the rates and knobs.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if any rate is outside `[0, 1]`,
    /// the per-slot rates sum above 1 (`correlated_rate` rides its own
    /// draw stream and is excluded from the sum), `gray_factor` is 0 or
    /// above `u32::MAX`, `delay` is above `u32::MAX` milliseconds, or
    /// `transient_attempts == 0`.
    pub fn validate(&self) -> Result<(), CoreError> {
        for (name, rate) in [
            ("panic_rate", self.panic_rate),
            ("delay_rate", self.delay_rate),
            ("poison_rate", self.poison_rate),
            ("permanent_rate", self.permanent_rate),
            ("gray_rate", self.gray_rate),
            ("correlated_rate", self.correlated_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(crate::error::invalid_param(
                    "fault rate",
                    format!("{name} must be in [0, 1], got {rate}"),
                ));
            }
        }
        let total = self.panic_rate
            + self.delay_rate
            + self.poison_rate
            + self.permanent_rate
            + self.gray_rate;
        if total > 1.0 {
            return Err(crate::error::invalid_param(
                "fault rate",
                format!("rates must sum to at most 1, got {total}"),
            ));
        }
        if self.gray_factor == 0 {
            return Err(crate::error::invalid_param(
                "gray_factor",
                "a gray backend must still make progress (gray_factor >= 1)",
            ));
        }
        if self.gray_factor > MAX_WORK_MULTIPLIER {
            return Err(crate::error::invalid_param(
                "gray_factor",
                format!("must be at most {MAX_WORK_MULTIPLIER}"),
            ));
        }
        if self.delay.as_millis() > u128::from(MAX_WORK_MULTIPLIER) {
            return Err(crate::error::invalid_param(
                "delay",
                format!("must be at most {MAX_WORK_MULTIPLIER} ms"),
            ));
        }
        if self.transient_attempts == 0 {
            return Err(crate::error::invalid_param(
                "times",
                "transient faults must persist for at least 1 attempt",
            ));
        }
        Ok(())
    }

    /// `gray_factor` clamped to the `1..=u32::MAX` that
    /// [`FaultPlan::validate`] accepts: the serve multiplies it into its
    /// work units, so any plan keeps that arithmetic in `u64`.
    pub fn gray_work_factor(&self) -> u64 {
        self.gray_factor.clamp(1, MAX_WORK_MULTIPLIER)
    }

    /// `delay` in whole milliseconds, clamped to the `u32::MAX` that
    /// [`FaultPlan::validate`] accepts, for the same reason.
    pub fn delay_ms(&self) -> u64 {
        self.delay.as_millis().min(u128::from(MAX_WORK_MULTIPLIER)) as u64
    }

    /// The fault assigned to a trial slot, if any — a pure function of
    /// the plan seed and the slot key, independent of scheduling.
    pub fn slot_fault(&self, experiment: &str, stream: u64, trial: u64) -> Option<SlotFault> {
        if self.is_quiet() {
            return None;
        }
        let mix = fnv1a(experiment.as_bytes()) ^ stream;
        let h = derive_seed(derive_seed(self.seed, mix), trial);
        self.fault_from_hash(h)
    }

    /// The fault assigned to one *replica* of a slot — the per-replica
    /// analogue of [`FaultPlan::slot_fault`], keyed additionally by the
    /// replica index so each replica of a replicated backend draws its
    /// own independent fate (otherwise failover could never help: every
    /// copy would fail identically). A pure function of
    /// `(plan seed, experiment, stream, trial, replica)`.
    pub fn replica_fault(
        &self,
        experiment: &str,
        stream: u64,
        trial: u64,
        replica: u32,
    ) -> Option<SlotFault> {
        if self.is_quiet() {
            return None;
        }
        let mix = fnv1a(experiment.as_bytes()) ^ stream;
        let h = derive_seed(
            derive_seed(derive_seed(self.seed, mix), trial),
            REPLICA_SALT ^ u64::from(replica),
        );
        self.fault_from_hash(h)
    }

    /// Whether a correlated shock fells every replica sharing
    /// `diversity_class` on this slot. The draw is keyed by the class —
    /// *not* the replica index — so a homogeneous replica set (all
    /// replicas in one class) lives or dies as a unit, while a diverse
    /// set pays `correlated_rate` independently per class and loses all
    /// copies only with probability `correlated_rate^N`. Drawn on its
    /// own salted stream, independent of the per-slot fault chain.
    pub fn correlated_hit(
        &self,
        experiment: &str,
        stream: u64,
        trial: u64,
        diversity_class: u32,
    ) -> bool {
        if self.correlated_rate == 0.0 {
            return false;
        }
        let mix = fnv1a(experiment.as_bytes()) ^ stream;
        let h = derive_seed(
            derive_seed(derive_seed(self.seed ^ CORRELATED_SALT, mix), trial),
            u64::from(diversity_class),
        );
        unit_from_hash(h) < self.correlated_rate
    }

    /// Walk the cumulative rate chain for one 53-bit uniform draw.
    fn fault_from_hash(&self, h: u64) -> Option<SlotFault> {
        let u = unit_from_hash(h);
        let mut edge = self.panic_rate;
        if u < edge {
            return Some(SlotFault {
                kind: FaultKind::Panic,
                attempts: self.transient_attempts,
            });
        }
        edge += self.delay_rate;
        if u < edge {
            return Some(SlotFault {
                kind: FaultKind::Delay,
                attempts: self.transient_attempts,
            });
        }
        edge += self.poison_rate;
        if u < edge {
            return Some(SlotFault {
                kind: FaultKind::Poison,
                attempts: self.transient_attempts,
            });
        }
        edge += self.permanent_rate;
        if u < edge {
            return Some(SlotFault {
                kind: FaultKind::Panic,
                attempts: u32::MAX,
            });
        }
        edge += self.gray_rate;
        if u < edge {
            return Some(SlotFault {
                kind: FaultKind::Gray,
                attempts: self.transient_attempts,
            });
        }
        None
    }

    /// The fault firing on a specific attempt of a slot, if any.
    pub fn fires(
        &self,
        experiment: &str,
        stream: u64,
        trial: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        self.slot_fault(experiment, stream, trial)
            .filter(|f| f.fires_on(attempt))
            .map(|f| f.kind)
    }

    /// Whether every fault this plan can inject is recoverable under
    /// `policy`: no permanent faults, transient faults clear within the
    /// retry budget, and injected delays (a gray backend's slow-down is
    /// a delay to the runtime) cannot blow the deadline.
    pub fn recoverable_under(&self, policy: &RecoveryPolicy) -> bool {
        let transients_fit =
            self.is_quiet() || u64::from(self.transient_attempts) <= u64::from(policy.retries);
        let delays_fit = (self.delay_rate == 0.0 && self.gray_rate == 0.0)
            || policy.deadline.is_none_or(|d| self.delay < d)
            || u64::from(self.transient_attempts) <= u64::from(policy.retries);
        self.permanent_rate == 0.0 && transients_fit && delays_fit
    }
}

/// Salt separating the per-replica fault stream from the per-slot one.
const REPLICA_SALT: u64 = 0x5e11_ca5e_0000_0000;

/// Salt separating the correlated-shock stream from the fault chain.
const CORRELATED_SALT: u64 = 0xc0_55e1_a7ed;

/// 53 uniform bits of a hash → `[0, 1)`.
fn unit_from_hash(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// 64-bit FNV-1a — stable, dependency-free label hashing for slot keys.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The recovery budget — the paper's *k*-recoverability, applied to the
/// runtime itself: a trial must recover within `retries` re-dispatches,
/// each backed off exponentially (capped), or the slot is abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-dispatches allowed after the first attempt fails.
    pub retries: u32,
    /// Base backoff before the first re-dispatch.
    pub backoff: Duration,
    /// Upper bound on any single backoff.
    pub backoff_cap: Duration,
    /// Per-attempt deadline: an attempt whose wall time exceeds this
    /// counts as failed even if it eventually returned. Enforced
    /// cooperatively (the attempt is not preempted — arbitrary trial
    /// closures cannot be killed safely); `None` disables deadlines.
    pub deadline: Option<Duration>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            retries: 3,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(32),
            deadline: None,
        }
    }
}

impl RecoveryPolicy {
    /// Total attempts a trial may use (first attempt + retries).
    pub fn max_attempts(&self) -> u32 {
        self.retries.saturating_add(1)
    }

    /// Capped exponential backoff before re-dispatch number `failures`
    /// (1-based): `backoff · 2^(failures−1)`, capped at `backoff_cap`.
    pub fn backoff_for(&self, failures: u32) -> Duration {
        let shift = failures.saturating_sub(1).min(20);
        let grown = self
            .backoff
            .checked_mul(1u32 << shift)
            .unwrap_or(self.backoff_cap);
        grown.min(self.backoff_cap)
    }
}

/// A parsed fault specification: the plan plus the recovery policy, as
/// given on the command line (`--fault-plan`) or in `RESILIENCE_FAULTS`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// What to inject.
    pub plan: FaultPlan,
    /// How to recover.
    pub policy: RecoveryPolicy,
}

impl FaultConfig {
    /// Parse a comma-separated `key=value` spec, e.g.
    /// `seed=7,panic=0.2,delay=0.05,delay_ms=2,poison=0.1,times=2,retries=3`.
    ///
    /// Keys: `seed` (u64), `panic`/`delay`/`poison`/`permanent`/`gray`/
    /// `correlated` (rates in `[0,1]`), `gray_factor` (work inflation of
    /// a gray backend, u32 ≥ 1), `delay_ms` (u32), `times` (attempts a
    /// transient fault persists), `retries` (u32),
    /// `backoff_ms`/`backoff_cap_ms` (u64), `deadline_ms` (u64). Unknown
    /// keys and malformed values are reported with the offending token,
    /// never silently ignored.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidFaultSpec`] naming the offending token, or
    /// [`CoreError::InvalidParameter`] if the parsed plan fails
    /// [`FaultPlan::validate`].
    pub fn parse(spec: &str) -> Result<Self, CoreError> {
        let mut plan = FaultPlan::none();
        let mut policy = RecoveryPolicy::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) =
                token
                    .split_once('=')
                    .ok_or_else(|| CoreError::InvalidFaultSpec {
                        token: token.to_string(),
                        reason: "expected key=value".to_string(),
                    })?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |reason: &str| CoreError::InvalidFaultSpec {
                token: token.to_string(),
                reason: reason.to_string(),
            };
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad("seed must be a u64"))?,
                "panic" => {
                    plan.panic_rate =
                        parse_rate(value).ok_or_else(|| bad("rate must be in [0,1]"))?
                }
                "delay" => {
                    plan.delay_rate =
                        parse_rate(value).ok_or_else(|| bad("rate must be in [0,1]"))?
                }
                "poison" => {
                    plan.poison_rate =
                        parse_rate(value).ok_or_else(|| bad("rate must be in [0,1]"))?
                }
                "permanent" => {
                    plan.permanent_rate =
                        parse_rate(value).ok_or_else(|| bad("rate must be in [0,1]"))?
                }
                "gray" => {
                    plan.gray_rate =
                        parse_rate(value).ok_or_else(|| bad("rate must be in [0,1]"))?
                }
                "correlated" => {
                    plan.correlated_rate =
                        parse_rate(value).ok_or_else(|| bad("rate must be in [0,1]"))?
                }
                // `gray_factor` and `delay_ms` scale the serve's work
                // units; the u32 bound keeps that arithmetic in u64.
                "gray_factor" => {
                    plan.gray_factor = value
                        .parse()
                        .ok()
                        .filter(|&g: &u32| g >= 1)
                        .ok_or_else(|| bad("gray_factor must be a positive u32"))?
                        .into()
                }
                "delay_ms" => {
                    let ms: u32 = value.parse().map_err(|_| bad("delay_ms must be a u32"))?;
                    plan.delay = Duration::from_millis(ms.into())
                }
                "times" => {
                    plan.transient_attempts = value
                        .parse()
                        .ok()
                        .filter(|&t: &u32| t >= 1)
                        .ok_or_else(|| bad("times must be a positive u32"))?
                }
                "retries" => {
                    policy.retries = value.parse().map_err(|_| bad("retries must be a u32"))?
                }
                "backoff_ms" => {
                    policy.backoff = Duration::from_millis(
                        value.parse().map_err(|_| bad("backoff_ms must be a u64"))?,
                    )
                }
                "backoff_cap_ms" => {
                    policy.backoff_cap = Duration::from_millis(
                        value
                            .parse()
                            .map_err(|_| bad("backoff_cap_ms must be a u64"))?,
                    )
                }
                "deadline_ms" => {
                    policy.deadline = Some(Duration::from_millis(
                        value
                            .parse()
                            .map_err(|_| bad("deadline_ms must be a u64"))?,
                    ))
                }
                _ => return Err(bad("unknown key")),
            }
        }
        plan.validate()?;
        Ok(FaultConfig { plan, policy })
    }

    /// Canonical spec string (parses back to an equal config). Used as
    /// the checkpoint fingerprint: a resume only reuses results produced
    /// under the same fault configuration.
    pub fn to_spec(&self) -> String {
        let mut s = format!(
            "seed={},panic={},delay={},poison={},permanent={},gray={},correlated={},\
             gray_factor={},delay_ms={},times={},\
             retries={},backoff_ms={},backoff_cap_ms={}",
            self.plan.seed,
            self.plan.panic_rate,
            self.plan.delay_rate,
            self.plan.poison_rate,
            self.plan.permanent_rate,
            self.plan.gray_rate,
            self.plan.correlated_rate,
            self.plan.gray_factor,
            self.plan.delay.as_millis(),
            self.plan.transient_attempts,
            self.policy.retries,
            self.policy.backoff.as_millis(),
            self.policy.backoff_cap.as_millis(),
        );
        if let Some(d) = self.policy.deadline {
            s.push_str(&format!(",deadline_ms={}", d.as_millis()));
        }
        s
    }
}

/// Displays the canonical spec ([`FaultConfig::to_spec`]), so
/// `FaultConfig::parse(cfg.to_string())` round-trips any config whose
/// durations are whole milliseconds (the spec's unit) and whose delay
/// and gray factor fit the parser's u32 bound.
impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

fn parse_rate(value: &str) -> Option<f64> {
    value
        .parse::<f64>()
        .ok()
        .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
}

/// Supervision settings for one experiment run: the experiment label
/// (part of the fault key) plus the fault configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Supervision {
    /// Experiment label, e.g. `"e8"` — keys the fault plan so each
    /// experiment sees its own replayable shock sequence.
    pub experiment: String,
    /// Plan and policy.
    pub config: FaultConfig,
}

impl Supervision {
    /// Supervision for `experiment` under `config`.
    pub fn new(experiment: impl Into<String>, config: FaultConfig) -> Self {
        Supervision {
            experiment: experiment.into(),
            config,
        }
    }

    /// Panic-isolation-only supervision: no injected faults, default
    /// recovery policy.
    pub fn isolation(experiment: impl Into<String>) -> Self {
        Supervision::new(
            experiment,
            FaultConfig {
                plan: FaultPlan::none(),
                policy: RecoveryPolicy::default(),
            },
        )
    }
}

/// Why a trial attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// The attempt panicked (injected or genuine).
    Panicked,
    /// The attempt completed but its result was poisoned.
    Poisoned,
    /// The attempt exceeded the per-attempt deadline.
    DeadlineExceeded,
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Panicked => write!(f, "panicked"),
            FailureCause::Poisoned => write!(f, "poisoned"),
            FailureCause::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl serde::Serialize for FailureCause {
    fn serialize(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl serde::Deserialize for FailureCause {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::String(s) => match s.as_str() {
                "panicked" => Ok(FailureCause::Panicked),
                "poisoned" => Ok(FailureCause::Poisoned),
                "deadline exceeded" => Ok(FailureCause::DeadlineExceeded),
                other => Err(serde::DeError::new(&format!(
                    "unknown failure cause `{other}`"
                ))),
            },
            _ => Err(serde::DeError::new("failure cause must be a string")),
        }
    }
}

/// A trial slot that exhausted its retry budget and was abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostTrial {
    /// The `run_trials` stream (its master seed) the trial belonged to.
    pub stream: u64,
    /// Trial index within the stream.
    pub trial: u64,
    /// The final failure cause.
    pub cause: FailureCause,
    /// Human-readable detail (e.g. the panic message).
    pub detail: String,
}

impl serde::Serialize for LostTrial {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("stream".to_string(), serde::Value::UInt(self.stream)),
            ("trial".to_string(), serde::Value::UInt(self.trial)),
            ("cause".to_string(), self.cause.serialize()),
            (
                "detail".to_string(),
                serde::Value::String(self.detail.clone()),
            ),
        ])
    }
}

impl serde::Deserialize for LostTrial {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = match v {
            serde::Value::Object(entries) => entries,
            _ => return Err(serde::DeError::new("lost trial must be an object")),
        };
        Ok(LostTrial {
            stream: serde::Deserialize::deserialize(serde::object_field(entries, "stream")?)?,
            trial: serde::Deserialize::deserialize(serde::object_field(entries, "trial")?)?,
            cause: serde::Deserialize::deserialize(serde::object_field(entries, "cause")?)?,
            detail: serde::Deserialize::deserialize(serde::object_field(entries, "detail")?)?,
        })
    }
}

/// One adjudicated attempt, in the supervisor's knowledge base.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AttemptRecord {
    /// Trial index within its stream.
    pub trial: u64,
    /// 0-based attempt number.
    pub attempt: u32,
    /// Whether the attempt delivered a healthy result.
    pub ok: bool,
}

/// The attempt log of one supervised `run_trials` stream, retained on
/// the report so telemetry can replay the supervisor's MAPE-K
/// decisions — retries, plans, losses — in logical `(attempt, trial)`
/// order after the fact. Each stream a runner executes contributes one
/// segment (in [`RunReport::merge`] call order), mirroring how the
/// health trajectories are concatenated.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AttemptSegment {
    /// Trial slots the stream supervised.
    pub trials: u64,
    /// Adjudicated attempts sorted by `(attempt, trial)` — the same
    /// logical order the health trajectory samples.
    pub log: Vec<AttemptRecord>,
    /// Trials this stream abandoned for good, ascending.
    pub lost: Vec<u64>,
}

/// The supervised run's self-measurement: what failed, what recovered,
/// what was lost, and the run's own quality trajectory scored with the
/// Bruneau integral (the runtime measuring its own resilience triangle).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Experiment label.
    pub experiment: String,
    /// Trial slots supervised.
    pub trials: u64,
    /// Attempts executed (≥ `trials` when anything failed).
    pub attempts: u64,
    /// Attempts on which the fault plan injected a fault.
    pub faults_injected: u64,
    /// Trials that failed at least once but ultimately completed —
    /// recoveries within the budget, the paper's *k*-recoverable shocks.
    pub recovered: u64,
    /// Trials abandoned after exhausting the retry budget, in trial
    /// order within each supervised run.
    pub lost: Vec<LostTrial>,
    /// Fraction of trial slots healthy over logical time (one sample per
    /// adjudicated attempt, in deterministic `(attempt, trial)` order),
    /// as a quality trajectory in `[0, 100]`.
    pub health: QualityTrajectory,
    /// Per-stream attempt logs, for telemetry replay. Excluded from the
    /// report's standard JSON rendering (`--report-json` is unchanged);
    /// [`RunReport::serialize_full`] includes it for journals that need
    /// to reconstruct the trace.
    pub segments: Vec<AttemptSegment>,
}

impl RunReport {
    /// An empty report for `experiment`.
    pub fn new(experiment: impl Into<String>) -> Self {
        RunReport {
            experiment: experiment.into(),
            trials: 0,
            attempts: 0,
            faults_injected: 0,
            recovered: 0,
            lost: Vec::new(),
            health: QualityTrajectory::new(1.0),
            segments: Vec::new(),
        }
    }

    /// The run's own Bruneau resilience loss `R = ∫ [100 − health(t)] dt`
    /// over its health trajectory. `0` for an undisturbed run.
    pub fn resilience_loss(&self) -> f64 {
        resilience_loss(&self.health)
    }

    /// Fold another report (a later `run_trials` call of the same
    /// experiment) into this one; health trajectories are concatenated
    /// in call order.
    pub fn merge(&mut self, other: RunReport) {
        self.trials += other.trials;
        self.attempts += other.attempts;
        self.faults_injected += other.faults_injected;
        self.recovered += other.recovered;
        self.lost.extend(other.lost);
        self.health.extend(other.health.samples().iter().copied());
        self.segments.extend(other.segments);
    }

    /// Build the deterministic health trajectory from an attempt log:
    /// records are sorted by `(attempt, trial)` — logical time, not wall
    /// time — and the healthy fraction is sampled after each event, so
    /// the trajectory is identical for every thread budget.
    pub fn health_from_log(n_trials: u64, log: &mut [AttemptRecord]) -> QualityTrajectory {
        let mut health = QualityTrajectory::new(1.0);
        health.push(FULL_QUALITY);
        if n_trials == 0 {
            return health;
        }
        log.sort_unstable_by_key(|r| (r.attempt, r.trial));
        let mut unhealthy: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for rec in log.iter() {
            if rec.ok {
                unhealthy.remove(&rec.trial);
            } else {
                unhealthy.insert(rec.trial);
            }
            let healthy = n_trials - unhealthy.len() as u64;
            health.push(FULL_QUALITY * healthy as f64 / n_trials as f64);
        }
        health
    }
}

/// The JSON rendering (`experiments --report-json`) is the report's
/// fields plus the *computed* `resilience_loss`, so downstream tooling
/// reads `R` directly instead of re-integrating the trajectory.
impl serde::Serialize for RunReport {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "experiment".to_string(),
                serde::Value::String(self.experiment.clone()),
            ),
            ("trials".to_string(), serde::Value::UInt(self.trials)),
            ("attempts".to_string(), serde::Value::UInt(self.attempts)),
            (
                "faults_injected".to_string(),
                serde::Value::UInt(self.faults_injected),
            ),
            ("recovered".to_string(), serde::Value::UInt(self.recovered)),
            ("lost".to_string(), self.lost.serialize()),
            (
                "resilience_loss".to_string(),
                serde::Value::Float(self.resilience_loss()),
            ),
            ("health".to_string(), self.health.serialize()),
        ])
    }
}

impl RunReport {
    /// The standard JSON rendering plus the attempt-log `segments` —
    /// everything needed to reconstruct the report (and its telemetry
    /// trace) exactly, e.g. from a resume journal.
    pub fn serialize_full(&self) -> serde::Value {
        let mut fields = match serde::Serialize::serialize(self) {
            serde::Value::Object(fields) => fields,
            other => return other,
        };
        fields.push((
            "segments".to_string(),
            serde::Serialize::serialize(&self.segments),
        ));
        serde::Value::Object(fields)
    }
}

impl serde::Deserialize for RunReport {
    /// Accepts both the standard `--report-json` rendering (the
    /// computed `resilience_loss` field is ignored, `segments` defaults
    /// to empty) and the [`RunReport::serialize_full`] form.
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = match v {
            serde::Value::Object(entries) => entries,
            _ => return Err(serde::DeError::new("run report must be an object")),
        };
        let segments = match serde::object_field(entries, "segments") {
            Ok(raw) => serde::Deserialize::deserialize(raw)?,
            Err(_) => Vec::new(),
        };
        Ok(RunReport {
            experiment: serde::Deserialize::deserialize(serde::object_field(
                entries,
                "experiment",
            )?)?,
            trials: serde::Deserialize::deserialize(serde::object_field(entries, "trials")?)?,
            attempts: serde::Deserialize::deserialize(serde::object_field(entries, "attempts")?)?,
            faults_injected: serde::Deserialize::deserialize(serde::object_field(
                entries,
                "faults_injected",
            )?)?,
            recovered: serde::Deserialize::deserialize(serde::object_field(entries, "recovered")?)?,
            lost: serde::Deserialize::deserialize(serde::object_field(entries, "lost")?)?,
            health: serde::Deserialize::deserialize(serde::object_field(entries, "health")?)?,
            segments,
        })
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} run report: trials={} attempts={} injected={} recovered={} lost={} health R={:.3}",
            self.experiment,
            self.trials,
            self.attempts,
            self.faults_injected,
            self.recovered,
            self.lost.len(),
            self.resilience_loss(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_quiet());
        for trial in 0..100 {
            assert_eq!(plan.slot_fault("e1", 7, trial), None);
        }
    }

    #[test]
    fn slot_faults_are_deterministic_and_keyed() {
        let plan = FaultPlan {
            seed: 9,
            panic_rate: 0.2,
            delay_rate: 0.2,
            poison_rate: 0.2,
            permanent_rate: 0.1,
            ..FaultPlan::none()
        };
        let a: Vec<_> = (0..200).map(|t| plan.slot_fault("e4", 1, t)).collect();
        let b: Vec<_> = (0..200).map(|t| plan.slot_fault("e4", 1, t)).collect();
        assert_eq!(a, b, "plan must replay exactly");
        let other_exp: Vec<_> = (0..200).map(|t| plan.slot_fault("e5", 1, t)).collect();
        assert_ne!(a, other_exp, "experiment label keys the plan");
        let other_stream: Vec<_> = (0..200).map(|t| plan.slot_fault("e4", 2, t)).collect();
        assert_ne!(a, other_stream, "stream seed keys the plan");
        // Roughly the configured fraction of slots is faulted.
        let faulted = a.iter().filter(|f| f.is_some()).count();
        assert!((100..=180).contains(&faulted), "got {faulted}");
        assert!(a.iter().any(|f| matches!(
            f,
            Some(SlotFault {
                kind: FaultKind::Panic,
                attempts: u32::MAX
            })
        )));
    }

    #[test]
    fn transient_faults_clear_after_budgeted_attempts() {
        let fault = SlotFault {
            kind: FaultKind::Poison,
            attempts: 2,
        };
        assert!(fault.fires_on(0));
        assert!(fault.fires_on(1));
        assert!(!fault.fires_on(2));
        assert!(!fault.is_permanent());
        assert!(SlotFault {
            kind: FaultKind::Panic,
            attempts: u32::MAX
        }
        .is_permanent());
    }

    #[test]
    fn recoverable_under_matches_budget() {
        let policy = RecoveryPolicy::default(); // 3 retries
        let mut plan = FaultPlan {
            panic_rate: 0.5,
            transient_attempts: 3,
            ..FaultPlan::none()
        };
        assert!(plan.recoverable_under(&policy));
        plan.transient_attempts = 4;
        assert!(!plan.recoverable_under(&policy));
        plan.transient_attempts = 2;
        plan.permanent_rate = 0.1;
        assert!(!plan.recoverable_under(&policy));
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut plan = FaultPlan::none();
        plan.panic_rate = 1.2;
        assert!(plan.validate().is_err());
        plan.panic_rate = 0.6;
        plan.delay_rate = 0.6;
        assert!(plan.validate().is_err(), "rates summing above 1 rejected");
        plan.delay_rate = 0.2;
        assert!(plan.validate().is_ok());
        plan.transient_attempts = 0;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = RecoveryPolicy {
            retries: 10,
            backoff: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(9),
            deadline: None,
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(2));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(4));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(8));
        assert_eq!(policy.backoff_for(4), Duration::from_millis(9), "capped");
        assert_eq!(policy.backoff_for(u32::MAX), Duration::from_millis(9));
        assert_eq!(policy.max_attempts(), 11);
    }

    #[test]
    fn spec_round_trips() {
        let cfg = FaultConfig::parse(
            "seed=7,panic=0.25,delay=0.1,delay_ms=2,poison=0.05,permanent=0.01,\
             gray=0.07,correlated=0.2,gray_factor=6,\
             times=2,retries=4,backoff_ms=3,backoff_cap_ms=17,deadline_ms=40",
        )
        .expect("valid spec");
        assert_eq!(cfg.plan.seed, 7);
        assert_eq!(cfg.plan.panic_rate, 0.25);
        assert_eq!(cfg.plan.gray_rate, 0.07);
        assert_eq!(cfg.plan.correlated_rate, 0.2);
        assert_eq!(cfg.plan.gray_factor, 6);
        assert_eq!(cfg.plan.delay, Duration::from_millis(2));
        assert_eq!(cfg.plan.transient_attempts, 2);
        assert_eq!(cfg.policy.retries, 4);
        assert_eq!(cfg.policy.deadline, Some(Duration::from_millis(40)));
        let reparsed = FaultConfig::parse(&cfg.to_spec()).expect("canonical spec parses");
        assert_eq!(cfg, reparsed);
    }

    #[test]
    fn spec_reports_offending_token() {
        for (spec, needle) in [
            ("panic=2.0", "panic=2.0"),
            ("bogus=1", "bogus=1"),
            ("panic", "expected key=value"),
            ("retries=x", "retries=x"),
            ("times=0", "times=0"),
            ("seed=-1", "seed=-1"),
            ("gray=1.5", "gray=1.5"),
            ("correlated=-0.2", "correlated=-0.2"),
            ("gray_factor=0", "gray_factor=0"),
            ("gray_factor=4294967296", "gray_factor=4294967296"),
            ("delay_ms=4294967296", "delay_ms=4294967296"),
            // These two overflowed the serve's work arithmetic.
            (
                "seed=1,delay=0.5,delay_ms=2305843009213693952",
                "delay_ms=2305843009213693952",
            ),
            (
                "seed=1,gray=0.5,gray_factor=18446744073709551615",
                "gray_factor=18446744073709551615",
            ),
        ] {
            let err = FaultConfig::parse(spec).expect_err(spec);
            let msg = err.to_string();
            assert!(msg.contains(needle), "spec `{spec}` error `{msg}`");
        }
    }

    #[test]
    fn gray_enters_the_slot_chain_without_reshuffling_old_draws() {
        let base = FaultPlan {
            seed: 9,
            panic_rate: 0.2,
            delay_rate: 0.2,
            poison_rate: 0.2,
            permanent_rate: 0.1,
            ..FaultPlan::none()
        };
        let with_gray = FaultPlan {
            gray_rate: 0.2,
            ..base.clone()
        };
        let old: Vec<_> = (0..400).map(|t| base.slot_fault("e4", 1, t)).collect();
        let new: Vec<_> = (0..400).map(|t| with_gray.slot_fault("e4", 1, t)).collect();
        // The gray edge extends the chain; every previously-faulted slot
        // keeps its exact fault, and only previously-quiet slots can
        // newly turn gray.
        let mut grays = 0;
        for (a, b) in old.iter().zip(&new) {
            match a {
                Some(f) => assert_eq!(Some(*f), *b, "existing draws must not reshuffle"),
                None => {
                    if let Some(f) = b {
                        assert_eq!(f.kind, FaultKind::Gray);
                        grays += 1;
                    }
                }
            }
        }
        assert!(grays > 0, "a 0.2 gray rate must fault some slots");
    }

    #[test]
    fn replica_faults_are_keyed_by_replica_index() {
        let plan = FaultPlan {
            seed: 5,
            panic_rate: 0.3,
            gray_rate: 0.3,
            ..FaultPlan::none()
        };
        let r0: Vec<_> = (0..300)
            .map(|t| plan.replica_fault("e4", 1, t, 0))
            .collect();
        let r0_again: Vec<_> = (0..300)
            .map(|t| plan.replica_fault("e4", 1, t, 0))
            .collect();
        assert_eq!(r0, r0_again, "replica draws must replay exactly");
        let r1: Vec<_> = (0..300)
            .map(|t| plan.replica_fault("e4", 1, t, 1))
            .collect();
        assert_ne!(r0, r1, "each replica draws its own fate");
        // There must exist a slot where replica 0 fails and replica 1 is
        // healthy — the draw independence failover relies on.
        assert!(
            r0.iter().zip(&r1).any(|(a, b)| a.is_some() && b.is_none()),
            "independent draws must disagree somewhere"
        );
    }

    #[test]
    fn correlated_hits_key_on_the_diversity_class() {
        let plan = FaultPlan {
            seed: 13,
            correlated_rate: 0.25,
            ..FaultPlan::none()
        };
        assert!(!plan.is_quiet(), "a correlated-only plan is not quiet");
        // The per-slot chain stays empty: correlated shocks ride their
        // own stream.
        assert!((0..200).all(|t| plan.slot_fault("e4", 1, t).is_none()));
        let class0: Vec<bool> = (0..400)
            .map(|t| plan.correlated_hit("e4", 1, t, 0))
            .collect();
        let class0_again: Vec<bool> = (0..400)
            .map(|t| plan.correlated_hit("e4", 1, t, 0))
            .collect();
        assert_eq!(class0, class0_again, "hits must replay exactly");
        let class1: Vec<bool> = (0..400)
            .map(|t| plan.correlated_hit("e4", 1, t, 1))
            .collect();
        assert_ne!(class0, class1, "distinct classes draw independently");
        let hits = class0.iter().filter(|&&h| h).count();
        assert!((50..=150).contains(&hits), "got {hits} hits at rate 0.25");
        // Rate zero: no shock, ever.
        let quiet = FaultPlan::none();
        assert!((0..400).all(|t| !quiet.correlated_hit("e4", 1, t, 0)));
    }

    #[test]
    fn empty_spec_is_quiet_defaults() {
        let cfg = FaultConfig::parse("").expect("empty spec ok");
        assert!(cfg.plan.is_quiet());
        assert_eq!(cfg.policy, RecoveryPolicy::default());
    }

    #[test]
    fn report_merges_and_scores_health() {
        let mut log = vec![
            AttemptRecord {
                trial: 1,
                attempt: 0,
                ok: false,
            },
            AttemptRecord {
                trial: 0,
                attempt: 0,
                ok: true,
            },
            AttemptRecord {
                trial: 1,
                attempt: 1,
                ok: true,
            },
        ];
        let health = RunReport::health_from_log(2, &mut log);
        // Sorted order: (0, t0 ok), (0, t1 fail), (1, t1 ok).
        assert_eq!(health.samples(), &[100.0, 100.0, 50.0, 100.0]);
        let mut report = RunReport::new("e9");
        report.trials = 2;
        report.attempts = 3;
        report.recovered = 1;
        report.health = health;
        assert!(report.resilience_loss() > 0.0);
        let mut merged = RunReport::new("e9");
        merged.merge(report.clone());
        merged.merge(report);
        assert_eq!(merged.trials, 4);
        assert_eq!(merged.recovered, 2);
        assert_eq!(merged.health.len(), 8);
        let line = merged.to_string();
        assert!(line.contains("recovered=2"), "{line}");
        assert!(line.contains("health R="), "{line}");
    }

    #[test]
    fn health_of_clean_run_has_zero_loss() {
        let mut log = vec![
            AttemptRecord {
                trial: 0,
                attempt: 0,
                ok: true,
            },
            AttemptRecord {
                trial: 1,
                attempt: 0,
                ok: true,
            },
        ];
        let health = RunReport::health_from_log(2, &mut log);
        assert_eq!(resilience_loss(&health), 0.0);
    }
}
