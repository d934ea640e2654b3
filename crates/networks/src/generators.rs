//! Graph generators, one per family: Barabási–Albert scale-free
//! networks, Erdős–Rényi random graphs, Watts–Strogatz small worlds, and
//! the planted-partition and complete reference graphs.
//!
//! Each generator draws an edge list from the caller's RNG and hands it
//! to [`Graph::from_edges`]. [`Graph::generate`] picks the generator for
//! a [`TopologyKind`] and seeds it, so a topology is a pure function of
//! `(kind, n, seed)`.

use rand::Rng;
use resilience_core::seeded_rng;
use serde::{Deserialize, Serialize};

use crate::graph::Graph;

/// Which generator family to draw a topology from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Barabási–Albert preferential attachment: each new node attaches
    /// `m` edges to existing nodes with probability proportional to
    /// degree. Produces a power-law degree tail (hubs).
    ScaleFree {
        /// Edges attached by each arriving node (`m ≥ 1`).
        m: usize,
    },
    /// Erdős–Rényi `G(n, p)` with `p` chosen to hit `mean_degree`.
    /// Degree distribution is binomial — no hubs.
    Random {
        /// Expected mean degree (`p = mean_degree / (n − 1)`).
        mean_degree: f64,
    },
    /// Watts–Strogatz small-world: ring lattice of degree `k` with each
    /// far endpoint rewired with probability `beta`.
    SmallWorld {
        /// Ring degree (each node links `k/2` to each side; even, ≥ 2).
        k: usize,
        /// Rewiring probability in `[0, 1]`.
        beta: f64,
    },
}

impl TopologyKind {
    /// Short label for tables and metric names.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::ScaleFree { .. } => "scale_free",
            TopologyKind::Random { .. } => "random",
            TopologyKind::SmallWorld { .. } => "small_world",
        }
    }
}

impl Graph {
    /// Generate a topology of `n` nodes from `kind`, deterministically
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` nodes or the kind's parameters
    /// are degenerate (`m == 0`, odd or too small `k`, negative
    /// `mean_degree`, `beta ∉ [0, 1]`).
    pub fn generate(kind: &TopologyKind, n: usize, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        match *kind {
            TopologyKind::ScaleFree { m } => barabasi_albert(n, m, &mut rng),
            TopologyKind::Random { mean_degree } => {
                assert!(mean_degree >= 0.0, "mean_degree must be non-negative");
                let p = (mean_degree / n.saturating_sub(1).max(1) as f64).min(1.0);
                erdos_renyi(n, p, &mut rng)
            }
            TopologyKind::SmallWorld { k, beta } => watts_strogatz(n, k, beta, &mut rng),
        }
    }
}

/// Barabási–Albert preferential attachment, endpoint-multiset form.
///
/// Seeded with a clique of `m + 1` nodes (all `n` if `n ≤ m + 1`); every
/// later node attaches `m` edges whose far endpoints are drawn uniformly
/// from the flat vector of all previous edge endpoints — sampling a node
/// with probability proportional to its degree. Duplicate targets within
/// one arrival are redrawn, so the graph is simple. Produces the
/// power-law degree distribution behind §5.1's scale-free robustness
/// claims.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1, "scale-free m must be >= 1");
    let core = (m + 1).min(n);
    let mut edges: Vec<(u32, u32)> =
        Vec::with_capacity(core * core / 2 + n.saturating_sub(core) * m);
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * edges.capacity());
    for a in 0..core {
        for b in (a + 1)..core {
            edges.push((a as u32, b as u32));
            endpoints.push(a as u32);
            endpoints.push(b as u32);
        }
    }
    let mut targets: Vec<u32> = Vec::with_capacity(m);
    for v in core..n {
        targets.clear();
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((v as u32, t));
            endpoints.push(v as u32);
            endpoints.push(t);
        }
    }
    // Free the multiset before the CSR arrays are allocated: at scale it
    // is as large as the edge list, and would otherwise raise peak memory.
    drop(endpoints);
    Graph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)` by geometric skip-sampling over the strictly
/// lower-triangular pair order `(1,0), (2,0), (2,1), (3,0), …`: instead
/// of flipping `n·(n−1)/2` coins, jump straight to the next successful
/// pair, so generation is `O(edges)` and viable at million-node scale.
///
/// # Panics
///
/// Panics if `p ∉ [0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0,1]"
    );
    let mut edges = Vec::new();
    if n < 2 || p <= 0.0 {
        return Graph::from_edges(n, &edges);
    }
    edges.reserve((p * n as f64 * (n - 1) as f64 / 2.0) as usize + 16);
    if p >= 1.0 {
        for a in 1..n as u32 {
            for b in 0..a {
                edges.push((a, b));
            }
        }
        return Graph::from_edges(n, &edges);
    }
    // For p below ~1e-16, `1 − p` rounds to 1 and its log to 0, which
    // would make every skip 0 (the complete graph); `ln_1p` stays exact
    // there. Larger p stays on `(1 − p).ln()` so pinned topologies keep
    // their draws.
    let mut log_q = (1.0 - p).ln();
    if log_q == 0.0 {
        log_q = (-p).ln_1p();
    }
    // (v, w) walks the lower triangle; skip ~ Geometric(p) pairs ahead.
    let mut v: u64 = 1;
    let mut w: i64 = -1;
    loop {
        let u: f64 = rng.gen::<f64>();
        let skip = ((1.0 - u).ln() / log_q).floor().max(0.0) as i64;
        w = w.saturating_add(1).saturating_add(skip);
        while w >= v as i64 && (v as usize) < n {
            w -= v as i64;
            v += 1;
        }
        if v as usize >= n {
            return Graph::from_edges(n, &edges);
        }
        edges.push((v as u32, w as u32));
    }
}

/// Watts–Strogatz small world: a ring lattice of total degree
/// `ring_degree` (each node links to its `ring_degree / 2` nearest
/// neighbors on each side — note [`ring_lattice`] takes the per-side
/// count instead), then each far endpoint is rewired to a uniform node
/// with probability `beta` (redrawn while it hits the node itself or the
/// ring neighbor it replaces; parallel edges elsewhere are tolerated, as
/// in the classical model's large-n limit). `beta = 0` is the lattice and
/// draws nothing.
///
/// # Panics
///
/// Panics if `ring_degree` is odd or below 2, or `beta ∉ [0, 1]`.
fn watts_strogatz<R: Rng + ?Sized>(n: usize, ring_degree: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(
        ring_degree >= 2 && ring_degree.is_multiple_of(2),
        "small-world ring degree k must be even and >= 2"
    );
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let half = (ring_degree / 2).min(n.saturating_sub(1));
    let mut edges = Vec::with_capacity(n * half);
    for v in 0..n {
        for d in 1..=half {
            let w = (v + d) % n;
            if beta > 0.0 && rng.gen::<f64>() < beta {
                let mut t = rng.gen_range(0..n);
                let mut guard = 0;
                while (t == v || t == w) && guard < 64 {
                    t = rng.gen_range(0..n);
                    guard += 1;
                }
                if t != v {
                    edges.push((v as u32, t as u32));
                    continue;
                }
            }
            edges.push((v as u32, w as u32));
        }
    }
    Graph::from_edges(n, &edges)
}

/// A ring lattice where each node connects to its `k` nearest neighbors
/// on each side, so every degree is `2k`: the Watts–Strogatz generator
/// ([`TopologyKind::SmallWorld`]) at ring degree `2k` (it takes the total
/// degree, not the per-side count) and `beta = 0`.
///
/// # Panics
///
/// Panics if `k == 0` or `2k ≥ n` (the ring would wrap onto itself).
pub fn ring_lattice(n: usize, k: usize) -> Graph {
    assert!(
        n > 2 * k,
        "ring of {n} nodes cannot host {k} neighbors per side"
    );
    // β = 0 never draws, so the seed is immaterial.
    watts_strogatz(n, 2 * k, 0.0, &mut seeded_rng(0))
}

/// Planted-partition (stochastic block) graph: `blocks` equal communities
/// over `n` nodes; within-community pairs connect with probability `p_in`,
/// cross-community pairs with `p_out`. With `p_in ≫ p_out` this is the
/// *modularized* architecture §4.5 recommends for damage containment.
///
/// # Panics
///
/// Panics if `blocks == 0` or either probability is outside `[0, 1]`.
pub fn planted_partition<R: Rng + ?Sized>(
    n: usize,
    blocks: usize,
    p_in: f64,
    p_out: f64,
    rng: &mut R,
) -> Graph {
    assert!(blocks > 0, "need at least one block");
    assert!((0.0..=1.0).contains(&p_in), "p_in must be in [0,1]");
    assert!((0.0..=1.0).contains(&p_out), "p_out must be in [0,1]");
    let block_of = |v: usize| v * blocks / n.max(1);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let p = if block_of(a) == block_of(b) {
                p_in
            } else {
                p_out
            };
            if p > 0.0 && rng.gen_bool(p) {
                edges.push((a as u32, b as u32));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            edges.push((a, b));
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_node_and_edge_counts() {
        let mut rng = seeded_rng(101);
        let n = 500;
        let m = 3;
        let g = barabasi_albert(n, m, &mut rng);
        assert_eq!(g.len(), n);
        // Seed: C(m+1, 2) edges; each later node adds m.
        let expected = m * (m + 1) / 2 + (n - m - 1) * m;
        assert_eq!(g.edge_count(), expected);
        // Minimum degree is m.
        assert!(g.degrees().iter().all(|&d| d >= m));
    }

    #[test]
    fn ba_produces_hubs() {
        let mut rng = seeded_rng(102);
        let g = barabasi_albert(2_000, 2, &mut rng);
        let max_deg = *g.degrees().iter().max().unwrap();
        let mean = g.mean_degree();
        // Scale-free: the largest hub dwarfs the mean degree.
        assert!(max_deg as f64 > 8.0 * mean, "max {max_deg} vs mean {mean}");
    }

    #[test]
    fn ba_degree_distribution_is_heavy_tailed() {
        let mut rng = seeded_rng(103);
        let g = barabasi_albert(3_000, 2, &mut rng);
        let degrees: Vec<f64> = g.degrees().iter().map(|&d| d as f64).collect();
        // Hill tail-index of a BA network's degree sequence ≈ 2–3; an ER
        // graph's Poisson degrees give a much larger (thin-tail) value.
        let hill_ba = resilience_stats::hill_estimator(&degrees, 300).unwrap();
        let er = erdos_renyi(3_000, 4.0 / 3_000.0, &mut rng);
        let er_degrees: Vec<f64> = er.degrees().iter().map(|&d| d as f64).collect();
        let hill_er = resilience_stats::hill_estimator(&er_degrees, 300).unwrap();
        assert!(
            hill_ba < 4.0 && hill_er > hill_ba,
            "BA {hill_ba} vs ER {hill_er}"
        );
    }

    #[test]
    fn ba_small_n_is_a_clique() {
        let mut rng = seeded_rng(104);
        let g = barabasi_albert(3, 3, &mut rng);
        assert_eq!(g.edge_count(), 3);
        assert!(g.degrees().iter().all(|&d| d == 2));
    }

    #[test]
    #[should_panic(expected = "m must be >= 1")]
    fn ba_rejects_zero_m() {
        let mut rng = seeded_rng(104);
        let _ = barabasi_albert(10, 0, &mut rng);
    }

    #[test]
    fn er_edge_count_near_expectation() {
        let mut rng = seeded_rng(105);
        let n = 400;
        let p = 0.02;
        let g = erdos_renyi(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 0.2 * expected,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn er_extreme_probabilities() {
        let mut rng = seeded_rng(106);
        assert_eq!(erdos_renyi(20, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi(20, 1.0, &mut rng).edge_count(), 190);
    }

    #[test]
    fn er_vanishing_probability_is_nearly_edgeless() {
        // `1 − p` rounds to 1 here; the skip must still be geometric.
        let mut rng = seeded_rng(114);
        assert_eq!(erdos_renyi(1_000, 1e-18, &mut rng).edge_count(), 0);
        let kind = TopologyKind::Random { mean_degree: 1e-12 };
        assert_eq!(Graph::generate(&kind, 100_000, 7).edge_count(), 0);
    }

    #[test]
    fn ring_lattice_regular() {
        let g = ring_lattice(10, 2);
        assert!(g.degrees().iter().all(|&d| d == 4));
        assert_eq!(g.edge_count(), 20);
    }

    #[test]
    fn watts_strogatz_zero_beta_is_the_lattice() {
        let mut rng = seeded_rng(107);
        assert_eq!(watts_strogatz(20, 4, 0.0, &mut rng), ring_lattice(20, 2));
    }

    #[test]
    fn watts_strogatz_preserves_edge_count() {
        let mut rng = seeded_rng(108);
        for beta in [0.1, 0.5, 1.0] {
            let ws = watts_strogatz(60, 6, beta, &mut rng);
            assert_eq!(ws.edge_count(), 60 * 3, "beta {beta}");
            assert!(ws.degrees().iter().all(|&d| d >= 1));
        }
    }

    #[test]
    fn watts_strogatz_rewiring_spreads_degrees() {
        let mut rng = seeded_rng(109);
        let rewired = watts_strogatz(200, 4, 1.0, &mut rng);
        let degrees = rewired.degrees();
        let min = *degrees.iter().min().unwrap();
        let max = *degrees.iter().max().unwrap();
        assert!(max > min, "full rewiring breaks the regular lattice");
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn watts_strogatz_rejects_bad_beta() {
        let mut rng = seeded_rng(110);
        let _ = watts_strogatz(10, 2, 1.5, &mut rng);
    }

    #[test]
    #[should_panic(expected = "even and >= 2")]
    fn watts_strogatz_rejects_odd_k() {
        let mut rng = seeded_rng(110);
        let _ = watts_strogatz(10, 3, 0.1, &mut rng);
    }

    #[test]
    fn planted_partition_density_structure() {
        let mut rng = seeded_rng(111);
        let n = 200;
        let blocks = 4;
        let g = planted_partition(n, blocks, 0.3, 0.01, &mut rng);
        // Count within- vs cross-block edges.
        let block_of = |v: usize| v * blocks / n;
        let mut within = 0usize;
        let mut cross = 0usize;
        for a in 0..n {
            for &b in g.neighbors(a) {
                let b = b as usize;
                if b > a {
                    if block_of(a) == block_of(b) {
                        within += 1;
                    } else {
                        cross += 1;
                    }
                }
            }
        }
        // Expected within ≈ 4·C(50,2)·0.3 = 1470; cross ≈ 7500·0.01 = 75.
        assert!(within > 10 * cross, "within {within} vs cross {cross}");
    }

    #[test]
    fn planted_partition_extremes() {
        let mut rng = seeded_rng(112);
        assert_eq!(planted_partition(30, 3, 0.0, 0.0, &mut rng).edge_count(), 0);
        let full = planted_partition(12, 3, 1.0, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 12 * 11 / 2);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn planted_partition_rejects_zero_blocks() {
        let mut rng = seeded_rng(113);
        let _ = planted_partition(10, 0, 0.1, 0.1, &mut rng);
    }

    #[test]
    fn complete_graph() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.degrees().iter().all(|&d| d == 4));
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in [
            TopologyKind::ScaleFree { m: 3 },
            TopologyKind::Random { mean_degree: 6.0 },
            TopologyKind::SmallWorld { k: 6, beta: 0.1 },
        ] {
            let a = Graph::generate(&kind, 500, 42);
            let b = Graph::generate(&kind, 500, 42);
            let c = Graph::generate(&kind, 500, 43);
            assert_eq!(a, b, "{kind:?} not deterministic");
            assert_ne!(a, c, "{kind:?} ignores its seed");
        }
    }

    #[test]
    fn scale_free_edge_count_and_hubs() {
        let n = 2_000;
        let m = 3;
        let g = Graph::generate(&TopologyKind::ScaleFree { m }, n, 7);
        // m+1 clique seed + m edges per arrival.
        let expected = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(g.edge_count(), expected);
        let order = g.nodes_by_degree_desc();
        let top_degree = g.degree(order[0] as usize);
        assert!(
            top_degree > 10 * m,
            "expected a hub, max degree {top_degree}"
        );
        // Degrees descend along the attack order.
        assert!(g.degree(order[0] as usize) >= g.degree(order[n / 2] as usize));
    }

    #[test]
    fn random_graph_hits_mean_degree() {
        let g = Graph::generate(&TopologyKind::Random { mean_degree: 8.0 }, 10_000, 11);
        let mean = g.mean_degree();
        assert!((mean - 8.0).abs() < 0.5, "mean degree {mean}");
        // Binomial degrees: the maximum stays within a small multiple of
        // the mean (no hubs).
        let max_deg = *g.degrees().iter().max().unwrap();
        assert!(max_deg < 40, "unexpected hub of degree {max_deg}");
    }

    #[test]
    fn small_world_keeps_ring_degree() {
        let g = Graph::generate(&TopologyKind::SmallWorld { k: 6, beta: 0.05 }, 2_000, 3);
        assert_eq!(g.edge_count(), 2_000 * 3);
        assert!((g.mean_degree() - 6.0).abs() < 1e-9);
    }
}
