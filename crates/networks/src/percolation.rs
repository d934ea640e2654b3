//! Giant-component curves under node removal.
//!
//! Removing nodes and asking how large the biggest connected cluster
//! remains is the standard robustness probe for the §5.1 claims. A single
//! alive set is measured by [`Graph::giant_component`]; a whole removal
//! sweep is computed *additively* here: nodes are inserted in reverse
//! removal order into a union–find, so the sweep costs near-linear time.

use crate::graph::Graph;
use crate::union_find::UnionFind;

/// Giant-component fraction after removing each prefix of `removal_order`:
/// `result[k]` = fraction with the first `k` nodes removed. Computed by
/// adding nodes in reverse order (O((n + m) α(n)) total).
pub fn removal_curve(graph: &Graph, removal_order: &[usize]) -> Vec<f64> {
    let n = graph.len();
    assert!(
        removal_order.len() <= n,
        "cannot remove more nodes than exist"
    );
    let mut uf = UnionFind::new(n);
    let mut alive = vec![false; n];
    // Insert `v`, returning the size of the component it joins.
    let mut insert = |v: usize| {
        alive[v] = true;
        for &w in graph.neighbors(v) {
            let w = w as usize;
            if alive[w] {
                uf.union(v, w);
            }
        }
        uf.component_size(v)
    };
    // Insert the never-removed nodes first.
    let mut removed = vec![false; n];
    for &v in removal_order {
        removed[v] = true;
    }
    let mut giant = 0usize;
    for v in (0..n).filter(|&v| !removed[v]) {
        giant = giant.max(insert(v));
    }
    // Replay removals backwards, recording the curve back-to-front.
    let denom = n.max(1) as f64;
    let mut curve = vec![giant as f64 / denom; removal_order.len() + 1];
    for (k, &v) in removal_order.iter().enumerate().rev() {
        giant = giant.max(insert(v));
        curve[k] = giant as f64 / denom;
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, ring_lattice};
    use resilience_core::Config;

    #[test]
    fn removal_curve_is_monotone_decreasing() {
        let g = complete(8);
        let order: Vec<usize> = (0..5).collect();
        let curve = removal_curve(&g, &order);
        assert_eq!(curve.len(), 6);
        assert!((curve[0] - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // After removing 5 of 8: 3 nodes remain fully connected.
        assert!((curve[5] - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn removal_curve_matches_direct_computation() {
        let g = ring_lattice(12, 2);
        let order = vec![0, 3, 7, 9, 1];
        let curve = removal_curve(&g, &order);
        for k in 0..=order.len() {
            let mut alive = Config::ones(12);
            for &v in &order[..k] {
                alive.clear(v);
            }
            let direct = g.giant_component(&alive) as f64 / 12.0;
            assert!(
                (curve[k] - direct).abs() < 1e-12,
                "k={k}: curve {} vs direct {direct}",
                curve[k]
            );
        }
    }
}
