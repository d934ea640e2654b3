//! Requests, traces, and per-request outcomes.
//!
//! The serving layer is exercised with *open-loop* traces: arrivals are
//! scheduled up front from a seeded Poisson process and do not slow down
//! when the service struggles — exactly the regime in which a system must
//! shed or degrade load instead of queueing unboundedly. A
//! [`RequestTrace`] is a pure function of its [`TraceSpec`], so the same
//! spec replays the same workload forever.

use std::fmt;

use rand::Rng;
use resilience_core::{derive_seed, seeded_rng};
use serde::{Deserialize, Serialize};

/// One request for backend work, in logical-clock units.
///
/// `cost` is the request's demand in abstract *work units*; the engine
/// converts work units into Monte Carlo trials when it actually executes
/// the backend computation, and into service ticks when it schedules the
/// request on a bulkhead's logical servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Trace-unique id; also seeds the request's backend computation.
    pub id: u64,
    /// Index into the trace's family table (the bulkhead key).
    pub family: usize,
    /// Arrival tick on the logical clock.
    pub arrival: u64,
    /// Ticks after arrival by which the response must complete; admission
    /// rejects on arrival when this provably cannot be met.
    pub deadline: u64,
    /// Demand in work units at full fidelity.
    pub cost: u64,
}

/// Parameters of a seeded open-loop request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Number of requests to generate.
    pub requests: u64,
    /// Seed of the trace's arrival/cost/family streams.
    pub seed: u64,
    /// Experiment-family labels; one bulkhead per entry.
    pub families: Vec<String>,
    /// Mean arrivals per tick outside the surge window.
    pub base_rate: f64,
    /// Arrival-rate multiplier during the surge window.
    pub surge_factor: f64,
    /// Surge window as fractions of the request index space: requests
    /// with index in `[start·n, end·n)` arrive at the surged rate.
    pub surge_start_frac: f64,
    /// End fraction of the surge window.
    pub surge_end_frac: f64,
    /// Inclusive range of per-request cost in work units.
    pub cost: (u64, u64),
    /// Inclusive range of per-request deadlines in ticks.
    pub deadline: (u64, u64),
}

impl TraceSpec {
    /// The canonical benchmark workload: four experiment families, a
    /// sustainable base rate, and a mid-trace arrival surge that pushes
    /// demand well past the default engine capacity — the open-loop
    /// shock whose Q(t) response the Bruneau metric scores.
    pub fn new(requests: u64, seed: u64) -> Self {
        TraceSpec {
            requests,
            seed,
            families: vec![
                "bruneau".to_string(),
                "dcsp".to_string(),
                "ecology".to_string(),
                "networks".to_string(),
            ],
            base_rate: 1.2,
            surge_factor: 4.0,
            surge_start_frac: 0.35,
            surge_end_frac: 0.60,
            cost: (8, 64),
            deadline: (20, 60),
        }
    }
}

/// A fully materialized open-loop trace: requests sorted by arrival tick
/// (ties in id order), plus the family table and the spec seed (which
/// also keys the fault plan and the backend computations).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Seed the trace was generated from.
    pub seed: u64,
    /// Family labels; `Request::family` indexes into this table.
    pub families: Vec<String>,
    /// The requests, ascending by `(arrival, id)`.
    pub requests: Vec<Request>,
}

impl RequestTrace {
    /// Generate the trace for `spec` — a pure function of the spec.
    ///
    /// Inter-arrival gaps are exponential with the phase's rate
    /// (surged inside the surge window), accumulated in continuous time
    /// and floored onto the tick grid, so several requests may share an
    /// arrival tick under load.
    pub fn generate(spec: &TraceSpec) -> Self {
        let mut rng = seeded_rng(derive_seed(spec.seed, 0x7ace));
        let n_families = spec.families.len().max(1);
        let surge_lo = (spec.surge_start_frac * spec.requests as f64) as u64;
        let surge_hi = (spec.surge_end_frac * spec.requests as f64) as u64;
        let mut clock = 0.0f64;
        let mut requests = Vec::with_capacity(usize::try_from(spec.requests).unwrap_or(0));
        for id in 0..spec.requests {
            let rate = if (surge_lo..surge_hi).contains(&id) {
                spec.base_rate * spec.surge_factor
            } else {
                spec.base_rate
            };
            let u: f64 = rng.gen();
            clock += -(1.0 - u).ln() / rate.max(1e-9);
            let family = rng.gen_range(0..n_families);
            let cost = rng.gen_range(spec.cost.0..=spec.cost.1.max(spec.cost.0));
            let deadline = rng.gen_range(spec.deadline.0..=spec.deadline.1.max(spec.deadline.0));
            requests.push(Request {
                id,
                family,
                arrival: clock as u64,
                deadline,
                cost,
            });
        }
        RequestTrace {
            seed: spec.seed,
            families: spec.families.clone(),
            requests,
        }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Last arrival tick (0 for an empty trace).
    pub fn horizon(&self) -> u64 {
        self.requests.last().map_or(0, |r| r.arrival)
    }
}

/// The fidelity a request was served at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Full-cost backend computation.
    Full,
    /// Brownout level 1: the backend ran at a fraction of the trials.
    Reduced,
    /// Brownout level 2 / breaker fallback: a precomputed per-family
    /// table answered instead of the backend.
    Cached,
}

impl Fidelity {
    /// Stable lowercase label used in logs and exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::Reduced => "reduced",
            Fidelity::Cached => "cached",
        }
    }

    /// Whether this fidelity counts as degraded service.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, Fidelity::Full)
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why admission control rejected a request on arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The family's bulkhead queue was at capacity.
    QueueFull,
    /// The backlog guaranteed the deadline could not be met.
    DeadlineUnmeetable,
    /// The family's circuit breaker was open (and no cached fallback
    /// was allowed — degradation off).
    BreakerOpen,
}

impl ShedReason {
    /// Stable lowercase label used in logs and exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineUnmeetable => "deadline-unmeetable",
            ShedReason::BreakerOpen => "breaker-open",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The adjudicated fate of one request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Disposition {
    /// The request was served (possibly degraded).
    Served {
        /// Fidelity it was served at.
        fidelity: Fidelity,
        /// Completion tick minus arrival tick.
        latency: u64,
        /// Folded backend result (or the cached table value) — included
        /// in the outcome log so replay tests catch any thread-dependent
        /// computation, not just thread-dependent scheduling.
        value: u64,
    },
    /// Rejected at admission — the explicit, bounded-cost "no".
    Shed {
        /// Why admission said no.
        reason: ShedReason,
    },
    /// The backend failed and no degraded fallback was allowed
    /// (degradation off). Never produced when brownout is enabled.
    Failed {
        /// The injected fault kind that killed the attempt.
        cause: String,
    },
}

/// One line of the per-request outcome log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Request id.
    pub id: u64,
    /// Family index.
    pub family: usize,
    /// Tick at which the fate was decided (arrival tick for sheds,
    /// completion tick for served/failed requests).
    pub decided_at: u64,
    /// The fate.
    pub disposition: Disposition,
}

impl fmt::Display for RequestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fam={} t={} ", self.id, self.family, self.decided_at)?;
        match &self.disposition {
            Disposition::Served {
                fidelity,
                latency,
                value,
            } => write!(f, "served {fidelity} latency={latency} value={value:016x}"),
            Disposition::Shed { reason } => write!(f, "shed {reason}"),
            Disposition::Failed { cause } => write!(f, "failed {cause}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_replay_exactly() {
        let spec = TraceSpec::new(500, 42);
        let a = RequestTrace::generate(&spec);
        let b = RequestTrace::generate(&spec);
        assert_eq!(a, b, "same spec, same trace");
        let other = RequestTrace::generate(&TraceSpec::new(500, 43));
        assert_ne!(a, other, "seed keys the trace");
    }

    #[test]
    fn arrivals_are_monotone_and_fields_in_range() {
        let spec = TraceSpec::new(400, 7);
        let trace = RequestTrace::generate(&spec);
        assert_eq!(trace.len(), 400);
        let mut last = 0;
        for (i, r) in trace.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival >= last, "arrivals sorted");
            last = r.arrival;
            assert!(r.family < trace.families.len());
            assert!((spec.cost.0..=spec.cost.1).contains(&r.cost));
            assert!((spec.deadline.0..=spec.deadline.1).contains(&r.deadline));
        }
        assert_eq!(trace.horizon(), last);
    }

    #[test]
    fn surge_window_compresses_interarrivals() {
        let spec = TraceSpec::new(1000, 11);
        let trace = RequestTrace::generate(&spec);
        let lo = (spec.surge_start_frac * 1000.0) as usize;
        let hi = (spec.surge_end_frac * 1000.0) as usize;
        let span = |a: usize, b: usize| {
            (trace.requests[b - 1].arrival - trace.requests[a].arrival) as f64 / (b - a) as f64
        };
        let surge_gap = span(lo, hi);
        let calm_gap = span(0, lo);
        assert!(
            surge_gap < calm_gap / 2.0,
            "surge must at least halve the mean gap: surge={surge_gap} calm={calm_gap}"
        );
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let trace = RequestTrace::generate(&TraceSpec::new(0, 1));
        assert!(trace.is_empty());
        assert_eq!(trace.horizon(), 0);
    }

    #[test]
    fn outcome_lines_render_each_disposition() {
        let served = RequestOutcome {
            id: 3,
            family: 1,
            decided_at: 9,
            disposition: Disposition::Served {
                fidelity: Fidelity::Reduced,
                latency: 4,
                value: 0xabcd,
            },
        };
        let line = served.to_string();
        assert!(line.contains("served reduced"), "{line}");
        assert!(line.contains("latency=4"), "{line}");
        let shed = RequestOutcome {
            id: 4,
            family: 0,
            decided_at: 2,
            disposition: Disposition::Shed {
                reason: ShedReason::QueueFull,
            },
        };
        assert!(shed.to_string().contains("shed queue-full"));
        let failed = RequestOutcome {
            id: 5,
            family: 2,
            decided_at: 7,
            disposition: Disposition::Failed {
                cause: "panic".into(),
            },
        };
        assert!(failed.to_string().contains("failed panic"));
    }
}
