//! The workspace's one undirected graph, in compressed-sparse-row form.
//!
//! [`Graph`] stores the neighbor lists of all nodes in one flat array
//! indexed by per-node offsets — two allocations total, cache-dense
//! iteration at million-node scale, and `degree(v)` is a subtraction.
//! Every generator in [`crate::generators`] builds an edge list and
//! hands it to [`Graph::from_edges`].

use resilience_core::Config;
use serde::{Deserialize, Serialize};

use crate::union_find::UnionFind;

/// An undirected graph over nodes `0..n` in compressed-sparse-row form.
///
/// `neighbors(v)` is the slice `adjacency[offsets[v]..offsets[v+1]]`.
/// Each undirected edge appears once in each endpoint's list. Neighbor
/// lists are sorted ascending, so iteration order — and therefore every
/// float accumulation a cascade performs — is a pure function of the
/// edge set, independent of generator internals or thread budget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    offsets: Vec<u64>,
    adjacency: Vec<u32>,
}

impl Graph {
    /// Build the CSR arrays from an undirected edge list over `n` nodes
    /// (counting sort: one pass to size each neighbor list, one pass to
    /// scatter). Self-loops are dropped; parallel edges are kept.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` nodes or an endpoint is out of
    /// range.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        assert!(n <= u32::MAX as usize, "node ids are u32");
        let mut degree = vec![0u64; n];
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a}, {b}) endpoint out of range for {n} nodes"
            );
            if a == b {
                continue;
            }
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut adjacency = vec![0u32; offsets[n] as usize];
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            adjacency[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            adjacency[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            adjacency[lo..hi].sort_unstable();
        }
        Graph { offsets, adjacency }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Neighbors of `v`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// All degrees.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.len()).map(|v| self.degree(v)).collect()
    }

    /// Mean degree (`2·edges / n`; `0` for an empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.adjacency.len() as f64 / self.len() as f64
        }
    }

    /// Node ids sorted by descending degree, ties broken by ascending id
    /// (hubs first) — the deterministic victim order of §5.1's targeted
    /// attack.
    pub fn nodes_by_degree_desc(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v as usize)), v));
        order
    }

    /// Size of the largest connected component among the nodes in the
    /// set `alive` (0 if it is empty).
    ///
    /// The workspace's one full giant-component routine; the
    /// incremental [`GiantTracker`](crate::GiantTracker) falls back to it.
    ///
    /// # Panics
    ///
    /// Panics if `alive` is not a set over exactly the graph's nodes.
    pub fn giant_component(&self, alive: &Config) -> usize {
        self.giant_members(alive, None)
    }

    /// [`Graph::giant_component`], optionally also marking the members
    /// of one largest component in `members`, a set over the nodes
    /// (cleared first; left empty when no node is alive).
    ///
    /// Each alive edge is unioned once, from its higher endpoint: the
    /// sorted neighbor list is read only up to the first `w >= v`. A
    /// node is still a singleton when its turn comes (only higher nodes
    /// have unioned with it so far), so its root is carried through its
    /// own unions instead of being looked up again. The union–find
    /// tracks the largest component as it merges; only marking takes a
    /// second pass over the alive nodes.
    pub(crate) fn giant_members(&self, alive: &Config, members: Option<&mut Config>) -> usize {
        assert!(
            alive.len() == self.len(),
            "alive set has {} nodes but the graph has {}",
            alive.len(),
            self.len()
        );
        let mut uf = UnionFind::new(self.len());
        let mut any_alive = false;
        alive.iter_ones().for_each(|v| {
            any_alive = true;
            let mut root = v;
            for &w in self.neighbors(v) {
                let w = w as usize;
                if w >= v {
                    break;
                }
                if alive.get(w) {
                    let rw = uf.find(w);
                    root = uf.union_roots(root, rw);
                }
            }
        });
        let largest = if any_alive { uf.largest_component() } else { 0 };
        if let Some(members) = members {
            members.clear_all();
            let giant_root = alive
                .iter_ones()
                .find(|&v| uf.find(v) == v && uf.component_size(v) == largest);
            if let Some(root) = giant_root {
                alive.iter_ones().for_each(|v| {
                    if uf.find(v) == root {
                        members.set(v);
                    }
                });
            }
        }
        largest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_matches_edge_list() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 3)]);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 4); // self-loop dropped
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
        assert_eq!(g.degree(2), 3);
        assert!((g.mean_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoint() {
        let _ = Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn hubs_first_ordering() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        // Hub first; the degree-2 tie between 1 and 2 breaks by id.
        assert_eq!(g.nodes_by_degree_desc(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        assert!(g.is_empty());
        assert_eq!(g.mean_degree(), 0.0);
        assert!(g.nodes_by_degree_desc().is_empty());
        assert_eq!(g.giant_component(&Config::zeros(0)), 0);
    }

    #[test]
    fn giant_component_tracks_alive_set() {
        // Path 0-1-2-3 plus isolated 4.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let alive = |bits: &str| bits.parse::<Config>().unwrap();
        assert_eq!(g.giant_component(&alive("11111")), 4);
        assert_eq!(g.giant_component(&alive("10111")), 2); // split the path
        assert_eq!(g.giant_component(&alive("00001")), 1);
        assert_eq!(g.giant_component(&alive("00000")), 0);
        // A clique stays one component whichever nodes survive.
        let k6 = crate::generators::complete(6);
        assert_eq!(k6.giant_component(&alive("111111")), 6);
        assert_eq!(k6.giant_component(&alive("110111")), 5);
    }
}
