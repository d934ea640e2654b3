//! Byte-identity safety net for the graph generators.
//!
//! Every generator family is run over a fixed grid of sizes, parameters
//! and seeds, and the resulting graph is hashed in canonical form: the
//! node count, then each node's neighbour list sorted ascending (with
//! its length). The expected digests are pinned below, so any change to
//! a generator's draws, its edge set or the graph construction shows up
//! here — independent of how the graph stores its adjacency.
//!
//! When a change is *meant* to alter a topology, the failure message
//! prints the complete new table to paste over `GOLDEN`.

use systems_resilience::cluster::{CsrTopology, TopologyKind};
use systems_resilience::core::seeded_rng;
use systems_resilience::networks::generators::{
    barabasi_albert, complete, planted_partition, ring_lattice,
};

/// 64-bit FNV-1a over `u64` words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Canonical adjacency digest: `n`, then per node its degree and its
/// sorted neighbour list.
fn canonical<'a>(n: usize, neighbors: impl Fn(usize) -> &'a [u32]) -> u64 {
    let mut words = vec![n as u64];
    for v in 0..n {
        let mut list = neighbors(v).to_vec();
        list.sort_unstable();
        words.push(list.len() as u64);
        words.extend(list.iter().map(|&w| u64::from(w)));
    }
    fnv1a(words)
}

const SIZES: [usize; 9] = [1, 2, 3, 4, 5, 8, 13, 100, 2_000];
const SEEDS: [u64; 2] = [1, 42];

/// Every `TopologyKind` at its edge parameters, for a graph of `n` nodes.
fn kinds(n: usize) -> Vec<TopologyKind> {
    let mut kinds = vec![
        TopologyKind::ScaleFree { m: 1 },
        TopologyKind::ScaleFree { m: 3 },
        TopologyKind::Random { mean_degree: 0.0 },
        TopologyKind::Random { mean_degree: 6.0 },
        TopologyKind::Random {
            mean_degree: n.saturating_sub(1) as f64,
        },
        TopologyKind::Random {
            mean_degree: 10.0 * n as f64,
        },
    ];
    for k in [2, 6] {
        for beta in [0.0, 0.1, 1.0] {
            kinds.push(TopologyKind::SmallWorld { k, beta });
        }
    }
    kinds
}

fn computed() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for &n in &SIZES {
        for kind in kinds(n) {
            for &seed in &SEEDS {
                let g = CsrTopology::generate(&kind, n, seed);
                out.push((
                    format!("generate {kind:?} n={n} seed={seed}"),
                    canonical(g.len(), |v| g.neighbors(v)),
                ));
            }
        }
    }
    for (n, m) in [(2, 1), (500, 2), (1_500, 2), (2_000, 3)] {
        for &seed in &SEEDS {
            let g = barabasi_albert(n, m, &mut seeded_rng(seed));
            out.push((
                format!("barabasi_albert n={n} m={m} seed={seed}"),
                canonical(g.len(), |v| g.neighbors(v)),
            ));
        }
    }
    for (n, blocks, p_in, p_out) in [
        (30, 3, 0.0, 0.0),
        (12, 3, 1.0, 1.0),
        (200, 4, 0.3, 0.01),
        (400, 8, 0.2, 0.005),
    ] {
        for &seed in &SEEDS {
            let g = planted_partition(n, blocks, p_in, p_out, &mut seeded_rng(seed));
            out.push((
                format!(
                    "planted_partition n={n} blocks={blocks} p_in={p_in} p_out={p_out} seed={seed}"
                ),
                canonical(g.len(), |v| g.neighbors(v)),
            ));
        }
    }
    for n in [0, 1, 2, 5, 60] {
        let g = complete(n);
        out.push((
            format!("complete n={n}"),
            canonical(g.len(), |v| g.neighbors(v)),
        ));
    }
    for (n, k) in [(3, 1), (5, 1), (12, 2), (60, 1), (100, 2), (15, 7)] {
        let g = ring_lattice(n, k);
        out.push((
            format!("ring_lattice n={n} k={k}"),
            canonical(g.len(), |v| g.neighbors(v)),
        ));
    }
    out
}

#[test]
fn generated_topologies_match_pinned_digests() {
    let got = computed();
    let table: String = got
        .iter()
        .map(|(label, d)| format!("    ({label:?}, 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN
        .iter()
        .map(|&(label, d)| (label.to_string(), d))
        .collect();
    assert!(
        got == expected,
        "graph digests changed; if intended, replace GOLDEN with:\n{table}"
    );
}

/// Generated at the commit that introduced this test.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("generate ScaleFree { m: 1 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate ScaleFree { m: 1 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate ScaleFree { m: 3 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate ScaleFree { m: 3 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate Random { mean_degree: 0.0 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate Random { mean_degree: 0.0 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate Random { mean_degree: 6.0 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate Random { mean_degree: 6.0 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate Random { mean_degree: 0.0 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate Random { mean_degree: 0.0 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate Random { mean_degree: 10.0 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate Random { mean_degree: 10.0 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=1 seed=1", 0x082f2207b4e88cc4),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=1 seed=42", 0x082f2207b4e88cc4),
    ("generate ScaleFree { m: 1 } n=2 seed=1", 0x66c57f25ce7a1d06),
    ("generate ScaleFree { m: 1 } n=2 seed=42", 0x66c57f25ce7a1d06),
    ("generate ScaleFree { m: 3 } n=2 seed=1", 0x66c57f25ce7a1d06),
    ("generate ScaleFree { m: 3 } n=2 seed=42", 0x66c57f25ce7a1d06),
    ("generate Random { mean_degree: 0.0 } n=2 seed=1", 0xeaa0081875df2d0d),
    ("generate Random { mean_degree: 0.0 } n=2 seed=42", 0xeaa0081875df2d0d),
    ("generate Random { mean_degree: 6.0 } n=2 seed=1", 0x66c57f25ce7a1d06),
    ("generate Random { mean_degree: 6.0 } n=2 seed=42", 0x66c57f25ce7a1d06),
    ("generate Random { mean_degree: 1.0 } n=2 seed=1", 0x66c57f25ce7a1d06),
    ("generate Random { mean_degree: 1.0 } n=2 seed=42", 0x66c57f25ce7a1d06),
    ("generate Random { mean_degree: 20.0 } n=2 seed=1", 0x66c57f25ce7a1d06),
    ("generate Random { mean_degree: 20.0 } n=2 seed=42", 0x66c57f25ce7a1d06),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=2 seed=1", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=2 seed=42", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=2 seed=1", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=2 seed=42", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=2 seed=1", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=2 seed=42", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=2 seed=1", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=2 seed=42", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=2 seed=1", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=2 seed=42", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=2 seed=1", 0x3d55ac6d0528f1a7),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=2 seed=42", 0x3d55ac6d0528f1a7),
    ("generate ScaleFree { m: 1 } n=3 seed=1", 0x605f1ffc2c81f63b),
    ("generate ScaleFree { m: 1 } n=3 seed=42", 0xb88d0be787bd496e),
    ("generate ScaleFree { m: 3 } n=3 seed=1", 0x8814d2b3bcb0b26e),
    ("generate ScaleFree { m: 3 } n=3 seed=42", 0x8814d2b3bcb0b26e),
    ("generate Random { mean_degree: 0.0 } n=3 seed=1", 0xed202287f403d086),
    ("generate Random { mean_degree: 0.0 } n=3 seed=42", 0xed202287f403d086),
    ("generate Random { mean_degree: 6.0 } n=3 seed=1", 0x8814d2b3bcb0b26e),
    ("generate Random { mean_degree: 6.0 } n=3 seed=42", 0x8814d2b3bcb0b26e),
    ("generate Random { mean_degree: 2.0 } n=3 seed=1", 0x8814d2b3bcb0b26e),
    ("generate Random { mean_degree: 2.0 } n=3 seed=42", 0x8814d2b3bcb0b26e),
    ("generate Random { mean_degree: 30.0 } n=3 seed=1", 0x8814d2b3bcb0b26e),
    ("generate Random { mean_degree: 30.0 } n=3 seed=42", 0x8814d2b3bcb0b26e),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=3 seed=1", 0x8814d2b3bcb0b26e),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=3 seed=42", 0x8814d2b3bcb0b26e),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=3 seed=1", 0x67ecb0ae2d10228c),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=3 seed=42", 0x8814d2b3bcb0b26e),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=3 seed=1", 0x8814d2b3bcb0b26e),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=3 seed=42", 0x8814d2b3bcb0b26e),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=3 seed=1", 0x95730ad2f7c2d57e),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=3 seed=42", 0x95730ad2f7c2d57e),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=3 seed=1", 0x6e26542d2a1ee5eb),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=3 seed=42", 0x95730ad2f7c2d57e),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=3 seed=1", 0x95730ad2f7c2d57e),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=3 seed=42", 0x95730ad2f7c2d57e),
    ("generate ScaleFree { m: 1 } n=4 seed=1", 0xc7ad54640b93c0e7),
    ("generate ScaleFree { m: 1 } n=4 seed=42", 0x74eb8b6fe5e435b1),
    ("generate ScaleFree { m: 3 } n=4 seed=1", 0x1cd0db4a7d5abf6f),
    ("generate ScaleFree { m: 3 } n=4 seed=42", 0x1cd0db4a7d5abf6f),
    ("generate Random { mean_degree: 0.0 } n=4 seed=1", 0xb200c32f2fee3fc3),
    ("generate Random { mean_degree: 0.0 } n=4 seed=42", 0xb200c32f2fee3fc3),
    ("generate Random { mean_degree: 6.0 } n=4 seed=1", 0x1cd0db4a7d5abf6f),
    ("generate Random { mean_degree: 6.0 } n=4 seed=42", 0x1cd0db4a7d5abf6f),
    ("generate Random { mean_degree: 3.0 } n=4 seed=1", 0x1cd0db4a7d5abf6f),
    ("generate Random { mean_degree: 3.0 } n=4 seed=42", 0x1cd0db4a7d5abf6f),
    ("generate Random { mean_degree: 40.0 } n=4 seed=1", 0x1cd0db4a7d5abf6f),
    ("generate Random { mean_degree: 40.0 } n=4 seed=42", 0x1cd0db4a7d5abf6f),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=4 seed=1", 0x0a7c4d27bc91cbaf),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=4 seed=42", 0x0a7c4d27bc91cbaf),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=4 seed=1", 0xf0b02b9e14c13b6a),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=4 seed=42", 0x0a7c4d27bc91cbaf),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=4 seed=1", 0x563b6cacc3c8b273),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=4 seed=42", 0xa1597420b1b60b82),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=4 seed=1", 0xcbe1fc1d2164ac9b),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=4 seed=42", 0xcbe1fc1d2164ac9b),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=4 seed=1", 0x50d5ce9a12ba3551),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=4 seed=42", 0xcbe1fc1d2164ac9b),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=4 seed=1", 0x97b5a540c288287a),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=4 seed=42", 0x76213f6842e90a59),
    ("generate ScaleFree { m: 1 } n=5 seed=1", 0xa5f08fcb478adccd),
    ("generate ScaleFree { m: 1 } n=5 seed=42", 0xb5eaec20643ee4df),
    ("generate ScaleFree { m: 3 } n=5 seed=1", 0xefa0a2dfa9a80a1f),
    ("generate ScaleFree { m: 3 } n=5 seed=42", 0x881008263fcb23be),
    ("generate Random { mean_degree: 0.0 } n=5 seed=1", 0x88f507fb83e49220),
    ("generate Random { mean_degree: 0.0 } n=5 seed=42", 0x88f507fb83e49220),
    ("generate Random { mean_degree: 6.0 } n=5 seed=1", 0xa2d085eb67babcc4),
    ("generate Random { mean_degree: 6.0 } n=5 seed=42", 0xa2d085eb67babcc4),
    ("generate Random { mean_degree: 4.0 } n=5 seed=1", 0xa2d085eb67babcc4),
    ("generate Random { mean_degree: 4.0 } n=5 seed=42", 0xa2d085eb67babcc4),
    ("generate Random { mean_degree: 50.0 } n=5 seed=1", 0xa2d085eb67babcc4),
    ("generate Random { mean_degree: 50.0 } n=5 seed=42", 0xa2d085eb67babcc4),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=5 seed=1", 0xe25719059256dd82),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=5 seed=42", 0xe25719059256dd82),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=5 seed=1", 0xb9451307ebda2483),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=5 seed=42", 0xe25719059256dd82),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=5 seed=1", 0xc292f3e79f2b5d69),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=5 seed=42", 0x906216d8c719b70e),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=5 seed=1", 0x33efc371d725b356),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=5 seed=42", 0x33efc371d725b356),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=5 seed=1", 0xb6480ad53a737f4c),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=5 seed=42", 0x33efc371d725b356),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=5 seed=1", 0x35b2ce15de080a80),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=5 seed=42", 0x87fcfb10b64b3ee3),
    ("generate ScaleFree { m: 1 } n=8 seed=1", 0x21c061e9f1d2acb5),
    ("generate ScaleFree { m: 1 } n=8 seed=42", 0xcc8cd9f5d8a85625),
    ("generate ScaleFree { m: 3 } n=8 seed=1", 0xe8efdfd25af461ef),
    ("generate ScaleFree { m: 3 } n=8 seed=42", 0x2ea932bc867edb7a),
    ("generate Random { mean_degree: 0.0 } n=8 seed=1", 0x81572d26c967da57),
    ("generate Random { mean_degree: 0.0 } n=8 seed=42", 0x81572d26c967da57),
    ("generate Random { mean_degree: 6.0 } n=8 seed=1", 0xf8e2f0fc2a51eb67),
    ("generate Random { mean_degree: 6.0 } n=8 seed=42", 0x988fac28cc66c037),
    ("generate Random { mean_degree: 7.0 } n=8 seed=1", 0x7ad9e50cac985a07),
    ("generate Random { mean_degree: 7.0 } n=8 seed=42", 0x7ad9e50cac985a07),
    ("generate Random { mean_degree: 80.0 } n=8 seed=1", 0x7ad9e50cac985a07),
    ("generate Random { mean_degree: 80.0 } n=8 seed=42", 0x7ad9e50cac985a07),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=8 seed=1", 0x330ff229351338f3),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=8 seed=42", 0x330ff229351338f3),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=8 seed=1", 0x9d61505dd4fe2dd7),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=8 seed=42", 0x330ff229351338f3),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=8 seed=1", 0x72246ca5c38a1a1f),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=8 seed=42", 0x85a9497b272b42d7),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=8 seed=1", 0x551e53cab89ce9b7),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=8 seed=42", 0x551e53cab89ce9b7),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=8 seed=1", 0x72c8b3e5ea3bdf49),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=8 seed=42", 0xe75f5e8c667218c7),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=8 seed=1", 0x303581bf228426de),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=8 seed=42", 0xf2922b3d30e32228),
    ("generate ScaleFree { m: 1 } n=13 seed=1", 0x61d11a90e8c29f49),
    ("generate ScaleFree { m: 1 } n=13 seed=42", 0x6fd33bcbb3acec13),
    ("generate ScaleFree { m: 3 } n=13 seed=1", 0x2de61fd9e2ee2d03),
    ("generate ScaleFree { m: 3 } n=13 seed=42", 0xcb205e9eeea87c52),
    ("generate Random { mean_degree: 0.0 } n=13 seed=1", 0x9247d544840450e8),
    ("generate Random { mean_degree: 0.0 } n=13 seed=42", 0x9247d544840450e8),
    ("generate Random { mean_degree: 6.0 } n=13 seed=1", 0x841cfc02e8d45fd4),
    ("generate Random { mean_degree: 6.0 } n=13 seed=42", 0x0221a532ee74eded),
    ("generate Random { mean_degree: 12.0 } n=13 seed=1", 0xed1576614f24ada4),
    ("generate Random { mean_degree: 12.0 } n=13 seed=42", 0xed1576614f24ada4),
    ("generate Random { mean_degree: 130.0 } n=13 seed=1", 0xed1576614f24ada4),
    ("generate Random { mean_degree: 130.0 } n=13 seed=42", 0xed1576614f24ada4),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=13 seed=1", 0x6adf81ac339a89aa),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=13 seed=42", 0x6adf81ac339a89aa),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=13 seed=1", 0xf687285bcb9963fe),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=13 seed=42", 0x6adf81ac339a89aa),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=13 seed=1", 0xb2479532c1ad54fd),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=13 seed=42", 0x2dc1b047e8c44d35),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=13 seed=1", 0x5a4a2bed8ab60212),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=13 seed=42", 0x5a4a2bed8ab60212),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=13 seed=1", 0xdf7aad9b3b1daf2a),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=13 seed=42", 0xfcfe32f90b04d335),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=13 seed=1", 0x9ea53f790c980591),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=13 seed=42", 0x7d96deb72ca0313c),
    ("generate ScaleFree { m: 1 } n=100 seed=1", 0x284bfb195276440f),
    ("generate ScaleFree { m: 1 } n=100 seed=42", 0x1f244cc6a008a152),
    ("generate ScaleFree { m: 3 } n=100 seed=1", 0x92f397e18254bf2f),
    ("generate ScaleFree { m: 3 } n=100 seed=42", 0xec73fc9448ffe089),
    ("generate Random { mean_degree: 0.0 } n=100 seed=1", 0x39bf36e888e840a3),
    ("generate Random { mean_degree: 0.0 } n=100 seed=42", 0x39bf36e888e840a3),
    ("generate Random { mean_degree: 6.0 } n=100 seed=1", 0xfa8666305c6080d9),
    ("generate Random { mean_degree: 6.0 } n=100 seed=42", 0x0e8d74e5e12d04dd),
    ("generate Random { mean_degree: 99.0 } n=100 seed=1", 0x3700af852b1430af),
    ("generate Random { mean_degree: 99.0 } n=100 seed=42", 0x3700af852b1430af),
    ("generate Random { mean_degree: 1000.0 } n=100 seed=1", 0x3700af852b1430af),
    ("generate Random { mean_degree: 1000.0 } n=100 seed=42", 0x3700af852b1430af),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=100 seed=1", 0xefc2fdfb10dd6a0f),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=100 seed=42", 0xefc2fdfb10dd6a0f),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=100 seed=1", 0x15f19027dbe9494a),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=100 seed=42", 0xde537edc1836e024),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=100 seed=1", 0x69505057ce0173d4),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=100 seed=42", 0x74871d0f5b8179f2),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=100 seed=1", 0xfefef9575efcb62b),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=100 seed=42", 0xfefef9575efcb62b),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=100 seed=1", 0x00978a5c08a14819),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=100 seed=42", 0x480409c3740b06c7),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=100 seed=1", 0x0c9dda844333d266),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=100 seed=42", 0x6dfd13d4c752d8ed),
    ("generate ScaleFree { m: 1 } n=2000 seed=1", 0x704b7cd0cd44be22),
    ("generate ScaleFree { m: 1 } n=2000 seed=42", 0xc3ccce697ef34dd4),
    ("generate ScaleFree { m: 3 } n=2000 seed=1", 0xc544eaa2119b2ece),
    ("generate ScaleFree { m: 3 } n=2000 seed=42", 0x2d148e25a4c703ee),
    ("generate Random { mean_degree: 0.0 } n=2000 seed=1", 0x8deb34380a9bd90f),
    ("generate Random { mean_degree: 0.0 } n=2000 seed=42", 0x8deb34380a9bd90f),
    ("generate Random { mean_degree: 6.0 } n=2000 seed=1", 0x93bc10b8ff1c710b),
    ("generate Random { mean_degree: 6.0 } n=2000 seed=42", 0x20c4beaea5ca735e),
    ("generate Random { mean_degree: 1999.0 } n=2000 seed=1", 0xcb5fab2059e0a69f),
    ("generate Random { mean_degree: 1999.0 } n=2000 seed=42", 0xcb5fab2059e0a69f),
    ("generate Random { mean_degree: 20000.0 } n=2000 seed=1", 0xcb5fab2059e0a69f),
    ("generate Random { mean_degree: 20000.0 } n=2000 seed=42", 0xcb5fab2059e0a69f),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=2000 seed=1", 0x811bca8edb4d7f6b),
    ("generate SmallWorld { k: 2, beta: 0.0 } n=2000 seed=42", 0x811bca8edb4d7f6b),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=2000 seed=1", 0x866f496e8e48de45),
    ("generate SmallWorld { k: 2, beta: 0.1 } n=2000 seed=42", 0x96175d2afd14246e),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=2000 seed=1", 0x2deb4f1572d8d990),
    ("generate SmallWorld { k: 2, beta: 1.0 } n=2000 seed=42", 0x7cb8dfc733d9d16e),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=2000 seed=1", 0xa62b0eee73141e3f),
    ("generate SmallWorld { k: 6, beta: 0.0 } n=2000 seed=42", 0xa62b0eee73141e3f),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=2000 seed=1", 0x1abcac473aa8bdb9),
    ("generate SmallWorld { k: 6, beta: 0.1 } n=2000 seed=42", 0x0268095a14c8462c),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=2000 seed=1", 0xd88ac8024839abe7),
    ("generate SmallWorld { k: 6, beta: 1.0 } n=2000 seed=42", 0x3fea3c01d088a714),
    ("barabasi_albert n=2 m=1 seed=1", 0x66c57f25ce7a1d06),
    ("barabasi_albert n=2 m=1 seed=42", 0x66c57f25ce7a1d06),
    ("barabasi_albert n=500 m=2 seed=1", 0x654d8088d05e7f35),
    ("barabasi_albert n=500 m=2 seed=42", 0x45522fbc6b6058d7),
    ("barabasi_albert n=1500 m=2 seed=1", 0x430c6daf6df284f5),
    ("barabasi_albert n=1500 m=2 seed=42", 0x8d33afb4983e3667),
    ("barabasi_albert n=2000 m=3 seed=1", 0xc544eaa2119b2ece),
    ("barabasi_albert n=2000 m=3 seed=42", 0x2d148e25a4c703ee),
    ("planted_partition n=30 blocks=3 p_in=0 p_out=0 seed=1", 0xbec568836858b0d9),
    ("planted_partition n=30 blocks=3 p_in=0 p_out=0 seed=42", 0xbec568836858b0d9),
    ("planted_partition n=12 blocks=3 p_in=1 p_out=1 seed=1", 0x6c59e7c6d80c14cf),
    ("planted_partition n=12 blocks=3 p_in=1 p_out=1 seed=42", 0x6c59e7c6d80c14cf),
    ("planted_partition n=200 blocks=4 p_in=0.3 p_out=0.01 seed=1", 0x569cc9cbcfac0560),
    ("planted_partition n=200 blocks=4 p_in=0.3 p_out=0.01 seed=42", 0x7db8c662d8e4c305),
    ("planted_partition n=400 blocks=8 p_in=0.2 p_out=0.005 seed=1", 0x8ad0e2ab0d1cfd48),
    ("planted_partition n=400 blocks=8 p_in=0.2 p_out=0.005 seed=42", 0x3c8c180811fc227a),
    ("complete n=0", 0xaf63bd4c8601b7df),
    ("complete n=1", 0x082f2207b4e88cc4),
    ("complete n=2", 0x66c57f25ce7a1d06),
    ("complete n=5", 0xa2d085eb67babcc4),
    ("complete n=60", 0x91319831db4af75f),
    ("ring_lattice n=3 k=1", 0x8814d2b3bcb0b26e),
    ("ring_lattice n=5 k=1", 0xe25719059256dd82),
    ("ring_lattice n=12 k=2", 0xe352c813761d9bab),
    ("ring_lattice n=60 k=1", 0x1050780aaf3eaa97),
    ("ring_lattice n=100 k=2", 0x7dfd3031550f6a83),
    ("ring_lattice n=15 k=7", 0x55ae8789050edf32),
];
