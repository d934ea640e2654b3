//! Output digests: what the golden file pins for the default seed.
//!
//! The serve digest covers every *decision* the engine made — which
//! requests it served, at what fidelity and latency, which it shed and
//! why — plus the exact Q(t) samples, but not the backend `value` a
//! served request computed. A change to how the backend draws its
//! Monte Carlo numbers may change values without changing a decision;
//! the full report is still checked byte-for-byte across thread budgets
//! and against the run's own reference.

use resilience_service::{Disposition, Fidelity, ServiceReport, ShedReason};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over bytes and words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold a whole word in one step (FNV-1a's xor-multiply, word-wise).
    pub fn u64(mut self, v: u64) -> Self {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a serializable report's JSON rendering.
pub fn json<T: serde::Serialize>(value: &T) -> u64 {
    let text = serde_json::to_string(value).expect("reports serialize to JSON");
    Digest::default().bytes(text.as_bytes()).finish()
}

/// Digest of a serve run's decisions and Q(t); ignores backend values.
pub fn decisions(report: &ServiceReport) -> u64 {
    let mut d = Digest::default();
    for o in &report.outcomes {
        d = d.u64(o.id).u64(o.family as u64).u64(o.decided_at);
        d = match &o.disposition {
            Disposition::Served {
                fidelity, latency, ..
            } => d.u64(0).u64(fidelity_tag(*fidelity)).u64(*latency),
            Disposition::Shed { reason } => d.u64(1).u64(shed_tag(*reason)),
            Disposition::Failed { cause } => d.u64(2).bytes(cause.as_bytes()),
        };
    }
    for q in report.quality.samples() {
        d = d.u64(q.to_bits());
    }
    d.finish()
}

fn fidelity_tag(f: Fidelity) -> u64 {
    match f {
        Fidelity::Full => 0,
        Fidelity::Reduced => 1,
        Fidelity::Cached => 2,
    }
}

fn shed_tag(r: ShedReason) -> u64 {
    match r {
        ShedReason::QueueFull => 0,
        ShedReason::DeadlineUnmeetable => 1,
        ShedReason::BreakerOpen => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::QualityTrajectory;
    use resilience_service::RequestOutcome;

    fn report(latency: u64, value: u64) -> ServiceReport {
        let mut quality = QualityTrajectory::new(1.0);
        quality.push(100.0);
        quality.push(87.5);
        ServiceReport {
            outcomes: vec![
                RequestOutcome {
                    id: 0,
                    family: 1,
                    decided_at: 4,
                    disposition: Disposition::Served {
                        fidelity: Fidelity::Full,
                        latency,
                        value,
                    },
                },
                RequestOutcome {
                    id: 1,
                    family: 0,
                    decided_at: 2,
                    disposition: Disposition::Shed {
                        reason: ShedReason::QueueFull,
                    },
                },
            ],
            per_family: Vec::new(),
            breaker_transitions: Vec::new(),
            brownout_history: Vec::new(),
            mode_transitions: Vec::new(),
            warning_scores: Vec::new(),
            alert_ticks: 0,
            emergency_ticks: 0,
            replica_log: Vec::new(),
            replica_stats: Vec::new(),
            quality,
            ticks: 5,
        }
    }

    #[test]
    fn decision_digest_ignores_value_but_not_latency() {
        let base = decisions(&report(3, 0xdead));
        assert_eq!(base, decisions(&report(3, 0xbeef)), "value must not matter");
        assert_ne!(base, decisions(&report(4, 0xdead)), "latency must matter");
        let mut dipped = report(3, 0xdead);
        dipped.quality.push(50.0);
        assert_ne!(base, decisions(&dipped), "Q(t) must matter");
        // The full-report digest does see the value.
        assert_ne!(json(&report(3, 0xdead)), json(&report(3, 0xbeef)));
    }
}
