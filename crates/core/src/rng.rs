//! Deterministic random-number plumbing.
//!
//! Every stochastic simulation in the workspace takes an explicit `u64` seed
//! and derives a [`rand_chacha::ChaCha8Rng`] from it, so experiments are
//! exactly reproducible across platforms and `rand` releases (upstream
//! `rand`'s `StdRng` makes no cross-version stability promise).

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Build a deterministic RNG from a seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = resilience_core::seeded_rng(42);
/// let mut b = resilience_core::seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// The first `u64` that [`seeded_rng`]`(seed)` yields, computed from one
/// ChaCha8 block without building the generator: the draw of a trial
/// that takes exactly one `u64`.
#[inline]
pub fn first_draw(seed: u64) -> u64 {
    rand_chacha::chacha8_first_u64(seed)
}

/// Derive a sub-seed from a master seed and a stream index.
///
/// Used to give each replicate / agent / trial its own independent stream
/// while keeping the whole experiment a pure function of one master seed.
/// The mixing function is SplitMix64, which is a bijection on `u64` per
/// fixed `stream`, so distinct streams never collide for the same seed.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_deterministic() {
        let xs: Vec<u64> = (0..8).map(|_| 0u64).collect();
        let mut r1 = seeded_rng(7);
        let mut r2 = seeded_rng(7);
        let a: Vec<u64> = xs.iter().map(|_| r1.gen()).collect();
        let b: Vec<u64> = xs.iter().map(|_| r2.gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = seeded_rng(1);
        let mut r2 = seeded_rng(2);
        let a: u64 = r1.gen();
        let b: u64 = r2.gen();
        assert_ne!(a, b);
    }

    #[test]
    fn derive_seed_varies_with_stream() {
        let s0 = derive_seed(99, 0);
        let s1 = derive_seed(99, 1);
        let s2 = derive_seed(99, 2);
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
        assert_ne!(s0, s2);
    }

    #[test]
    fn derive_seed_is_pure() {
        assert_eq!(derive_seed(5, 11), derive_seed(5, 11));
    }
}
