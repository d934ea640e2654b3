//! Sandpile-style load-shedding cascades.
//!
//! When a node dies, the load it carried does not vanish — it sheds onto
//! its surviving neighbors in equal shares (the sandpile redistribution
//! rule, after Motter–Lai's overload model). A neighbor pushed past its
//! capacity topples in turn, and the failure front advances in waves
//! until no node is overloaded. Load shed by a node with no surviving
//! neighbors is dropped from the system entirely.
//!
//! Determinism contract: within a wave, dead nodes redistribute in
//! ascending node-id order and overload checks scan the touched set in
//! ascending order (both via [`Config::iter_ones`]), so the float
//! accumulation order — and therefore every bit of the outcome — is a
//! pure function of `(topology, loads, initial frontier)`. No RNG, no
//! thread-dependent ordering.

use resilience_core::Config;
use resilience_networks::Graph;
use serde::{Deserialize, Serialize};

/// Outcome of one cascade (a maximal sequence of topple waves).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CascadeStats {
    /// Nodes dead at the start of the cascade (exogenous trigger).
    pub trigger: u64,
    /// Nodes that toppled from overload during propagation.
    pub toppled: u64,
    /// Propagation waves until quiescence (0 if nothing toppled).
    pub waves: u32,
    /// Load dropped because a dead node had no surviving neighbor.
    pub shed_load: f64,
}

impl CascadeStats {
    /// Total nodes lost to this cascade (trigger + toppled).
    pub fn size(&self) -> u64 {
        self.trigger + self.toppled
    }
}

/// Scratch buffers for cascade propagation, reused across ticks so the
/// hot loop performs no allocation.
#[derive(Debug, Clone)]
pub struct CascadeScratch {
    /// Alive nodes whose load changed this wave (overload candidates).
    touched: Config,
    /// The next wave's frontier.
    next: Vec<u32>,
    /// The alive neighbours of the dead node being redistributed.
    survivors: Vec<u32>,
    /// Every node that toppled during the last [`propagate`] call, in
    /// topple order — the engine plans MAPE-K recovery from this list.
    pub toppled_ids: Vec<u32>,
}

impl CascadeScratch {
    /// Scratch for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        CascadeScratch {
            touched: Config::zeros(n),
            next: Vec::new(),
            survivors: Vec::new(),
            toppled_ids: Vec::new(),
        }
    }
}

/// Propagate a cascade to quiescence.
///
/// `frontier` holds the nodes that just died (ascending order, already
/// cleared from `alive`, loads still carrying their at-death value).
/// On return every overloaded node reachable from the trigger has
/// toppled: cleared from `alive`, load redistributed onward.
pub fn propagate(
    topology: &Graph,
    alive: &mut Config,
    load: &mut [f64],
    capacity: &[f64],
    frontier: &mut Vec<u32>,
    scratch: &mut CascadeScratch,
) -> CascadeStats {
    let mut stats = CascadeStats {
        trigger: frontier.len() as u64,
        toppled: 0,
        waves: 0,
        shed_load: 0.0,
    };
    scratch.toppled_ids.clear();
    while !frontier.is_empty() {
        stats.waves += 1;
        scratch.touched.clear_all();
        // Redistribute in ascending node order (frontier is sorted).
        for &v in frontier.iter() {
            let v = v as usize;
            let shed = load[v];
            load[v] = 0.0;
            if shed == 0.0 {
                continue;
            }
            // Each neighbour is probed once; the list keeps their
            // ascending order for the accumulation.
            let survivors = &mut scratch.survivors;
            survivors.clear();
            survivors.extend(
                topology
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| alive.get(w as usize)),
            );
            if survivors.is_empty() {
                stats.shed_load += shed;
                continue;
            }
            let share = shed / survivors.len() as f64;
            for &w in survivors.iter() {
                let w = w as usize;
                load[w] += share;
                scratch.touched.set(w);
            }
        }
        // Overload check in ascending order over the touched set.
        scratch.next.clear();
        scratch.touched.iter_ones().for_each(|w| {
            if load[w] > capacity[w] {
                scratch.next.push(w as u32);
            }
        });
        frontier.clear();
        for &w in &scratch.next {
            alive.clear(w as usize);
            frontier.push(w);
            scratch.toppled_ids.push(w);
        }
        stats.toppled += frontier.len() as u64;
    }
    // The final wave found no topples; don't count it as propagation.
    if stats.waves > 0 {
        stats.waves -= 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star: hub 0 linked to 1..=4.
    fn star() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)])
    }

    #[test]
    fn hub_death_spreads_equally() {
        let top = star();
        let mut alive = Config::ones(5);
        let mut load = vec![4.0, 1.0, 1.0, 1.0, 1.0];
        let capacity = vec![8.0, 3.0, 3.0, 3.0, 3.0];
        alive.clear(0);
        let mut frontier = vec![0u32];
        let mut scratch = CascadeScratch::new(5);
        let stats = propagate(
            &top,
            &mut alive,
            &mut load,
            &capacity,
            &mut frontier,
            &mut scratch,
        );
        assert_eq!(stats.trigger, 1);
        assert_eq!(stats.toppled, 0);
        assert_eq!(stats.waves, 0);
        assert_eq!(stats.shed_load, 0.0);
        // 4.0 split across four leaves.
        assert_eq!(load, vec![0.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn overload_topples_in_waves() {
        // Chain 0-1-2-3 with tight capacities: killing 0 overloads 1,
        // whose shed overloads 2, etc.
        let top = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut alive = Config::ones(4);
        let mut load = vec![1.0, 1.0, 1.0, 1.0];
        let capacity = vec![1.5, 1.5, 1.5, 10.0];
        alive.clear(0);
        let mut frontier = vec![0u32];
        let mut scratch = CascadeScratch::new(4);
        let stats = propagate(
            &top,
            &mut alive,
            &mut load,
            &capacity,
            &mut frontier,
            &mut scratch,
        );
        // 1 gets 1.0 → 2.0 > 1.5, topples; 2 gets 2.0 → 3.0 > 1.5,
        // topples; 3 gets 3.0 → 4.0 < 10, survives.
        assert_eq!(stats.trigger, 1);
        assert_eq!(stats.toppled, 2);
        assert_eq!(stats.waves, 2);
        assert_eq!(stats.size(), 3);
        assert!(alive.get(3) && !alive.get(1) && !alive.get(2));
        assert_eq!(load[3], 4.0);
    }

    #[test]
    fn isolated_death_sheds_load() {
        let top = Graph::from_edges(3, &[(0, 1)]);
        let mut alive = Config::ones(3);
        let mut load = vec![1.0, 1.0, 2.5];
        let capacity = vec![5.0, 5.0, 5.0];
        alive.clear(2);
        let mut frontier = vec![2u32];
        let mut scratch = CascadeScratch::new(3);
        let stats = propagate(
            &top,
            &mut alive,
            &mut load,
            &capacity,
            &mut frontier,
            &mut scratch,
        );
        assert_eq!(stats.shed_load, 2.5);
        assert_eq!(load[2], 0.0);
    }

    #[test]
    fn cascade_is_deterministic() {
        let top = Graph::generate(&crate::TopologyKind::ScaleFree { m: 3 }, 2_000, 9);
        let run = || {
            let mut alive = Config::ones(2_000);
            let mut load: Vec<f64> = (0..2_000).map(|v| top.degree(v) as f64 / 6.0).collect();
            let capacity: Vec<f64> = load.iter().map(|l| 1.05 * l).collect();
            let order = top.nodes_by_degree_desc();
            let mut frontier: Vec<u32> = order[..20].to_vec();
            frontier.sort_unstable();
            for &v in &frontier {
                alive.clear(v as usize);
            }
            let mut scratch = CascadeScratch::new(2_000);
            let stats = propagate(
                &top,
                &mut alive,
                &mut load,
                &capacity,
                &mut frontier,
                &mut scratch,
            );
            (stats, alive, load)
        };
        let (s1, a1, l1) = run();
        let (s2, a2, l2) = run();
        assert_eq!(s1, s2);
        assert_eq!(a1, a2);
        assert_eq!(l1, l2);
        assert!(s1.toppled > 0, "tight headroom should cascade");
    }
}
