//! Deterministic random-number plumbing.
//!
//! Every stochastic simulation in the workspace takes an explicit `u64` seed
//! and derives a [`rand_chacha::ChaCha8Rng`] from it, so experiments are
//! exactly reproducible across platforms and `rand` releases (upstream
//! `rand`'s `StdRng` makes no cross-version stability promise).

use std::ops::Range;

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

/// Trials per group of the vector fold: sixteen lanes fill two AVX2
/// registers per state word, which measured about twice as fast per trial
/// as eight lanes and two to three times as fast as the scalar kernel.
const FOLD_LANES: usize = 16;

/// φ, the fold's per-trial index multiplier.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// The backend fold over `range`: the XOR of
/// `i·φ ^ first_draw(derive_seed(seed, i))` for every `i` in the range
/// (φ = `0x9e37_79b9_7f4a_7c15`). XOR is associative and commutative,
/// so any split of the range into groups, lanes or chunks folds to the
/// same value, bit for bit, on any CPU.
///
/// Whether the CPU has AVX2 is checked once per call, never per trial;
/// with it the range runs through [`first_draw_fold_avx2`], without it
/// through [`first_draw_fold_portable`].
pub fn first_draw_fold(seed: u64, range: Range<u64>) -> u64 {
    first_draw_fold_avx2(seed, range.clone())
        .unwrap_or_else(|| first_draw_fold_portable(seed, range))
}

/// [`first_draw_fold`] one trial at a time through the scalar kernel:
/// the reference every vector path must equal, and the path of CPUs
/// without AVX2 (run as lanes on a baseline target, the kernel is
/// slower than scalar).
pub fn first_draw_fold_portable(seed: u64, range: Range<u64>) -> u64 {
    range.fold(0, |acc, i| acc ^ fold_term(seed, i))
}

/// [`first_draw_fold`] in groups of 16 lanes compiled for AVX2, the tail
/// after the last full group through the scalar kernel; `None` when the
/// CPU lacks AVX2, and always `None` off x86-64.
pub fn first_draw_fold_avx2(seed: u64, range: Range<u64>) -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fold_lanes_avx2` only requires the CPU to support
        // AVX2, which `is_x86_feature_detected!("avx2")` just confirmed.
        #[allow(unsafe_code)]
        return Some(unsafe { fold_lanes_avx2(seed, range) });
    }
    // Off x86-64 neither argument is read.
    let _ = (seed, range);
    None
}

/// One trial's term of the fold.
#[inline(always)]
fn fold_term(seed: u64, i: u64) -> u64 {
    i.wrapping_mul(PHI) ^ first_draw(derive_seed(seed, i))
}

/// The lane fold, with every inlined kernel compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_lanes_avx2(seed: u64, range: Range<u64>) -> u64 {
    let groups = range.end.saturating_sub(range.start) / FOLD_LANES as u64;
    let tail = range.start + groups * FOLD_LANES as u64;
    let mut acc = 0u64;
    for g in 0..groups {
        let base = range.start + g * FOLD_LANES as u64;
        let idx: [u64; FOLD_LANES] = std::array::from_fn(|l| base + l as u64);
        let draws = rand_chacha::chacha8_first_u64_lanes(&idx.map(|i| derive_seed(seed, i)));
        for (i, draw) in idx.into_iter().zip(draws) {
            acc ^= i.wrapping_mul(PHI) ^ draw;
        }
    }
    acc ^ first_draw_fold_portable(seed, tail..range.end)
}

/// Derive a sub-seed from a master seed and a stream index.
///
/// Used to give each replicate / agent / trial its own independent stream
/// while keeping the whole experiment a pure function of one master seed.
/// The mixing function is SplitMix64, which is a bijection on `u64` per
/// fixed `stream`, so distinct streams never collide for the same seed.
#[inline]
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
