//! Prescribed-burn policies: small controlled perturbations that bleed
//! accumulated stress out of the cluster before it feeds a large
//! cascade — the forest-management strategy the paper carries over to
//! engineered systems.
//!
//! A burn runs periodically. It selects nodes carrying the most excess
//! load (or a seeded random sample) and relieves them back to baseline.
//! Relief is not free: each burned node is briefly degraded while its
//! overflow work is re-queued, which the engine charges against Q(t) —
//! so a burn policy only pays off if the large cascades it prevents cost
//! more than the steady trickle of small, controlled ones. That trade is
//! exactly what the `cluster_burn` experiment scores as ΔR.

use resilience_core::Config;
use serde::{Deserialize, Serialize};

/// When and which nodes to burn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BurnPolicy {
    /// Never intervene (the control arm).
    None,
    /// Every `period` ticks, relieve the `fraction` of nodes carrying
    /// the largest excess load (load − baseline), most-stressed first.
    HubRelief {
        /// Fraction of the fleet relieved per burn, in `[0, 1]`.
        fraction: f64,
        /// Ticks between burns (≥ 1).
        period: u64,
    },
    /// Every `period` ticks, relieve a seeded uniform sample of the
    /// fleet — the naive control showing that *where* you burn matters.
    RandomRelief {
        /// Fraction of the fleet relieved per burn, in `[0, 1]`.
        fraction: f64,
        /// Ticks between burns (≥ 1).
        period: u64,
    },
}

impl BurnPolicy {
    /// Whether a burn fires at `tick`.
    pub fn fires_at(&self, tick: u64) -> bool {
        match *self {
            BurnPolicy::None => false,
            BurnPolicy::HubRelief { period, .. } | BurnPolicy::RandomRelief { period, .. } => {
                period > 0 && tick > 0 && tick.is_multiple_of(period)
            }
        }
    }

    /// How many nodes a firing burn relieves in an `n`-node fleet.
    pub fn burn_count(&self, n: usize) -> usize {
        match *self {
            BurnPolicy::None => 0,
            BurnPolicy::HubRelief { fraction, .. } | BurnPolicy::RandomRelief { fraction, .. } => {
                ((fraction * n as f64).round() as usize).min(n)
            }
        }
    }

    /// Label for tables and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            BurnPolicy::None => "no_burn",
            BurnPolicy::HubRelief { .. } => "hub_relief",
            BurnPolicy::RandomRelief { .. } => "random_relief",
        }
    }
}

/// Select the burn victims for a [`BurnPolicy::HubRelief`] firing:
/// the `count` alive nodes with the largest positive excess load,
/// ties broken by ascending node id. Returns ascending node ids.
pub fn select_most_stressed(
    load: &[f64],
    baseline: &[f64],
    alive: &Config,
    count: usize,
) -> Vec<u32> {
    let mut stressed: Vec<(f64, u32)> = Vec::new();
    for v in alive.iter_ones() {
        let excess = load[v] - baseline[v];
        if excess > 0.0 {
            stressed.push((excess, v as u32));
        }
    }
    // Largest excess first; f64 total order is safe (no NaNs in loads).
    stressed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    stressed.truncate(count);
    let mut ids: Vec<u32> = stressed.into_iter().map(|(_, v)| v).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firing_schedule() {
        let p = BurnPolicy::HubRelief {
            fraction: 0.1,
            period: 5,
        };
        assert!(!p.fires_at(0));
        assert!(p.fires_at(5));
        assert!(!p.fires_at(6));
        assert!(p.fires_at(10));
        assert!(!BurnPolicy::None.fires_at(5));
        assert_eq!(p.burn_count(100), 10);
        assert_eq!(BurnPolicy::None.burn_count(100), 0);
    }

    #[test]
    fn most_stressed_selection() {
        let load = vec![1.0, 3.0, 2.0, 0.5, 9.0];
        let baseline = vec![1.0, 1.0, 1.0, 1.0, 1.0];
        let mut alive = Config::ones(5);
        alive.clear(4); // most stressed node is dead — skip it
        let picked = select_most_stressed(&load, &baseline, &alive, 2);
        // Excess: node1=2.0, node2=1.0, node0=0, node3<0 → top two are
        // 1 and 2, returned ascending.
        assert_eq!(picked, vec![1, 2]);
        let all = select_most_stressed(&load, &baseline, &alive, 10);
        assert_eq!(all, vec![1, 2]);
    }
}
