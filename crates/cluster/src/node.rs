//! Per-node service state in structure-of-arrays form.
//!
//! Each cluster node runs a miniature service engine: it carries a
//! baseline demand (load it serves when healthy), a capacity with
//! headroom above that baseline (the Motter–Lai `1 + α` rule), and the
//! MAPE-K bookkeeping the supervisor needs to plan recovery — a failure
//! counter against the retry budget and the tick at which a planned
//! revival executes. Millions of nodes means no per-node structs: five
//! flat arrays, indexed by node id.

use resilience_core::RecoveryPolicy;
use resilience_networks::Graph;

/// Sentinel for "no revival scheduled".
pub const NEVER: u64 = u64::MAX;

/// The structure-of-arrays state of every node in the cluster.
#[derive(Debug, Clone)]
pub struct NodeFleet {
    /// Baseline demand per tick, normalized so the fleet mean is 1.
    /// Proportional to degree: hubs carry more of the cluster's work,
    /// which is exactly why targeted attacks hurt.
    pub baseline: Vec<f64>,
    /// Overload threshold: `(1 + headroom) · baseline` (Motter–Lai).
    pub capacity: Vec<f64>,
    /// Load currently carried. Dead nodes carry zero.
    pub load: Vec<f64>,
    /// Failures observed by the MAPE-K monitor, checked against the
    /// recovery policy's retry budget.
    pub failures: Vec<u32>,
    /// Tick at which the planned revival executes ([`NEVER`] if none).
    pub revive_at: Vec<u64>,
}

impl NodeFleet {
    /// Provision a fleet over `topology` with overload headroom
    /// `headroom` (the Motter–Lai α). Isolated nodes get the mean
    /// baseline of 1 so they still represent a unit of demand.
    pub fn provision(topology: &Graph, headroom: f64) -> Self {
        let n = topology.len();
        let mean_degree = topology.mean_degree().max(1.0);
        let mut baseline = Vec::with_capacity(n);
        for v in 0..n {
            let d = topology.degree(v);
            baseline.push(if d == 0 { 1.0 } else { d as f64 / mean_degree });
        }
        let capacity = baseline.iter().map(|b| (1.0 + headroom) * b).collect();
        NodeFleet {
            load: baseline.clone(),
            baseline,
            capacity,
            failures: vec![0; n],
            revive_at: vec![NEVER; n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.baseline.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.baseline.is_empty()
    }

    /// MAPE-K plan step for a node that just failed: bump its failure
    /// count and, if the retry budget allows, schedule a revival after
    /// the policy's capped-exponential backoff (milliseconds read as
    /// logical ticks). Returns `true` if a revival was scheduled,
    /// `false` if the budget is exhausted (the node is lost). A backoff
    /// too long for a `u64` tick saturates: the revival is due at
    /// `u64::MAX`, past any horizon.
    pub fn plan_recovery(&mut self, v: usize, now: u64, policy: &RecoveryPolicy) -> bool {
        self.failures[v] += 1;
        if self.failures[v] <= policy.retries {
            let backoff = policy.backoff_for(self.failures[v]).as_millis();
            let backoff = u64::try_from(backoff).unwrap_or(u64::MAX);
            self.revive_at[v] = now.saturating_add(1).saturating_add(backoff);
            true
        } else {
            self.revive_at[v] = NEVER;
            false
        }
    }

    /// Execute a revival: restore the node to baseline load with no
    /// pending schedule. (The caller flips the alive bit.)
    pub fn revive(&mut self, v: usize) {
        self.load[v] = self.baseline[v];
        self.revive_at[v] = NEVER;
    }

    /// Mark a node as unrecoverable (permanent fault or unrecoverable
    /// attack): exhaust its budget and cancel any schedule.
    pub fn condemn(&mut self, v: usize, policy: &RecoveryPolicy) {
        self.failures[v] = policy.retries + 1;
        self.revive_at[v] = NEVER;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_networks::{Graph, TopologyKind};
    use std::time::Duration;

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy {
            retries: 2,
            backoff: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(8),
            deadline: None,
        }
    }

    #[test]
    fn provisioning_tracks_degree() {
        let top = Graph::generate(&TopologyKind::ScaleFree { m: 2 }, 300, 5);
        let fleet = NodeFleet::provision(&top, 0.25);
        assert_eq!(fleet.len(), 300);
        let mean: f64 = fleet.baseline.iter().sum::<f64>() / 300.0;
        assert!((mean - 1.0).abs() < 0.05, "baseline mean {mean}");
        for v in 0..fleet.len() {
            assert!((fleet.capacity[v] - 1.25 * fleet.baseline[v]).abs() < 1e-12);
            assert_eq!(fleet.load[v], fleet.baseline[v]);
        }
    }

    #[test]
    fn recovery_budget_and_backoff() {
        let top = Graph::from_edges(2, &[(0, 1)]);
        let mut fleet = NodeFleet::provision(&top, 0.5);
        let p = policy();
        // First failure: backoff 2 ticks → revival at now + 3.
        assert!(fleet.plan_recovery(0, 10, &p));
        assert_eq!(fleet.revive_at[0], 13);
        // Second failure: doubled backoff.
        assert!(fleet.plan_recovery(0, 20, &p));
        assert_eq!(fleet.revive_at[0], 25);
        // Third failure exhausts retries=2.
        assert!(!fleet.plan_recovery(0, 30, &p));
        assert_eq!(fleet.revive_at[0], NEVER);
        fleet.revive(1);
        assert_eq!(fleet.load[1], fleet.baseline[1]);
        fleet.condemn(1, &p);
        assert_eq!(fleet.revive_at[1], NEVER);
        assert!(fleet.failures[1] > p.retries);
    }

    #[test]
    fn a_huge_backoff_saturates_instead_of_wrapping() {
        let top = Graph::from_edges(2, &[(0, 1)]);
        let mut fleet = NodeFleet::provision(&top, 0.5);
        let forever = Duration::from_millis(u64::MAX);
        let p = RecoveryPolicy {
            backoff: forever,
            backoff_cap: forever,
            ..policy()
        };
        assert!(fleet.plan_recovery(0, 10, &p));
        assert_eq!(fleet.revive_at[0], u64::MAX);
        // A backoff past `u64::MAX` milliseconds saturates too.
        let p = RecoveryPolicy {
            backoff: Duration::MAX,
            backoff_cap: Duration::MAX,
            ..policy()
        };
        assert!(fleet.plan_recovery(1, u64::MAX - 1, &p));
        assert_eq!(fleet.revive_at[1], u64::MAX);
    }
}
