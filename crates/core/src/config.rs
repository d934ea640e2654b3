//! Bit-string system configurations.
//!
//! The paper's model (§4.2) assumes "without loss of generality, a system
//! status can be represented as a bit string of length n. At any given time,
//! the system takes one of the 2^n possible configurations." [`Config`] is
//! that bit string, stored packed in 64-bit words. It is also the
//! workspace's one bitset: the cluster's alive sets, the giant tracker's
//! member sets and the maintainability checker's BFS frontiers are all
//! `Config`s, and every walk over set bits goes through [`BitIndexIter`].

use std::fmt;
use std::str::FromStr;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;

const WORD_BITS: usize = 64;

/// A system configuration: a fixed-length string of boolean state variables.
///
/// Bit `i = 1` conventionally means "component `i` is good" (the paper's
/// spacecraft example), but the interpretation is up to the constraint.
/// As a set over `0..len`, bit `i = 1` means index `i` is present.
///
/// Bits at or past `len` in the last word are always zero: equality,
/// hashing and [`Config::count_zeros`] rely on it,
/// so the words are readable ([`Config::words`]) but never writable.
///
/// # Example
///
/// ```
/// use resilience_core::Config;
///
/// let mut c = Config::zeros(5);
/// c.set(0);
/// c.set(3);
/// assert_eq!(c.to_string(), "10010");
///
/// // The same type as a set over `0..100`.
/// let mut alive = Config::ones(100);
/// alive.clear(7);
/// alive.clear(64);
/// assert_eq!(alive.count_ones(), 98);
/// let mut low = Config::zeros(100);
/// (0..10).for_each(|i| low.set(i));
/// low.intersect_with(&alive);
/// assert_eq!(low.iter_ones().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5, 6, 8, 9]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Config {
    len: usize,
    words: Vec<u64>,
}

impl Config {
    /// An all-zeros configuration of length `len`.
    pub fn zeros(len: usize) -> Self {
        let n_words = len.div_ceil(WORD_BITS);
        Config {
            len,
            words: vec![0; n_words],
        }
    }

    /// An all-ones configuration of length `len` (the spacecraft's "every
    /// component good" state `1^n`).
    pub fn ones(len: usize) -> Self {
        let mut c = Config::zeros(len);
        for w in &mut c.words {
            *w = u64::MAX;
        }
        c.mask_tail();
        c
    }

    /// A uniformly random configuration of length `len`.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut c = Config::zeros(len);
        for w in &mut c.words {
            *w = rng.gen();
        }
        c.mask_tail();
        c
    }

    /// Decode the low `len` bits of an integer (bit 0 = index 0).
    ///
    /// Useful for exhaustively enumerating small configuration spaces.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        let mut c = Config::zeros(len);
        if len > 0 {
            c.words[0] = if len == 64 {
                value
            } else {
                value & ((1u64 << len) - 1)
            };
        }
        c
    }

    /// Overwrite all bits from the low `len` bits of `value`, in place —
    /// the allocation-free counterpart of [`Config::from_u64`] for tight
    /// loops sweeping an explicit state space.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is longer than 64 bits.
    pub fn set_from_u64(&mut self, value: u64) {
        assert!(self.len <= 64, "set_from_u64 supports at most 64 bits");
        if let Some(word) = self.words.first_mut() {
            *word = if self.len == 64 {
                value
            } else {
                value & ((1u64 << self.len) - 1)
            };
        }
    }

    /// Encode as an integer (inverse of [`Config::from_u64`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is longer than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(self.len <= 64, "to_u64 supports at most 64 bits");
        self.words.first().copied().unwrap_or(0)
    }

    /// Number of state variables.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the configuration has zero state variables.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Set bit `i` to 1.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        self.words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
    }

    /// Set bit `i` to 0.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        self.words[i / WORD_BITS] &= !(1 << (i % WORD_BITS));
    }

    /// Write bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Flip bit `i` — the paper's elementary repair/adaptation move
    /// ("the system flips one bit at a time").
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range for {}", self.len);
        self.words[i / WORD_BITS] ^= 1 << (i % WORD_BITS);
    }

    /// Number of 1-bits (e.g. working components).
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of 0-bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Hamming distance to another configuration: the minimum number of
    /// single-bit flips to transform one into the other. This is the paper's
    /// natural notion of repair effort.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if lengths differ.
    pub fn hamming(&self, other: &Config) -> Result<usize, CoreError> {
        if self.len != other.len {
            return Err(CoreError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// Iterate over the bits as booleans, index order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Indices where this configuration differs from `other`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if lengths differ.
    pub fn differing_bits(&self, other: &Config) -> Result<Vec<usize>, CoreError> {
        if self.len != other.len {
            return Err(CoreError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        Ok((0..self.len)
            .filter(|&i| self.get(i) != other.get(i))
            .collect())
    }

    /// Iterate over the indices of 1-bits in ascending order without
    /// allocating: each word is drained with `trailing_zeros`, so the cost
    /// is `O(words + popcount)` rather than `O(len)` per call.
    #[inline]
    pub fn iter_ones(&self) -> BitIndexIter<impl Iterator<Item = u64> + '_> {
        BitIndexIter::new(self.words.iter().copied())
    }

    /// The packed words, 64 bits each, bit `i` in bit `i % 64` of word
    /// `i / 64`; bits at or past `len` are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Clear every bit (the length is unchanged).
    #[inline]
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// In-place AND: keep only the bits also set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn intersect_with(&mut self, other: &Config) {
        assert_eq!(self.len, other.len, "intersect_with: length mismatch");
        for (word, &keep) in self.words.iter_mut().zip(&other.words) {
            *word &= keep;
        }
    }

    /// The index of the `k`-th 1-bit (0-based selection), or `None` if
    /// fewer than `k + 1` bits are set. Equivalent to
    /// `self.iter_ones().nth(k)` without walking the earlier bits.
    pub fn nth_one(&self, k: usize) -> Option<usize> {
        let mut remaining = k;
        for (w, &word) in self.words.iter().enumerate() {
            let pop = word.count_ones() as usize;
            if remaining < pop {
                // Select the `remaining`-th set bit inside this word.
                let mut word = word;
                for _ in 0..remaining {
                    word &= word - 1; // clear lowest set bit
                }
                return Some(w * WORD_BITS + word.trailing_zeros() as usize);
            }
            remaining -= pop;
        }
        None
    }

    /// Flip `k` distinct uniformly-chosen bits (a random damage event).
    /// If `k >= len`, every bit is flipped.
    ///
    /// Returns the flipped indices.
    pub fn flip_random<R: Rng + ?Sized>(&mut self, k: usize, rng: &mut R) -> Vec<usize> {
        let k = k.min(self.len);
        let chosen = rand::seq::index::sample(rng, self.len, k).into_vec();
        for &i in &chosen {
            self.flip(i);
        }
        chosen
    }

    /// Each bit independently flips with probability `p` (per-locus
    /// mutation). Returns the number of flips.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn mutate<R: Rng + ?Sized>(&mut self, p: f64, rng: &mut R) -> usize {
        assert!((0.0..=1.0).contains(&p), "mutation rate must be in [0,1]");
        let mut flips = 0;
        for i in 0..self.len {
            if rng.gen_bool(p) {
                self.flip(i);
                flips += 1;
            }
        }
        flips
    }

    /// Fraction of 1-bits, in `[0, 1]`; `0` for an empty configuration.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Allocation-free iterator over the indices of the 1-bits of a stream
/// of packed words, in ascending order: bit `b` of word `w` is index
/// `64 * w + b`. Created by [`Config::iter_ones`], or by
/// [`BitIndexIter::new`] over a word-wise
/// combination of equal-length configurations (such as `a & !b`), which
/// walks it without building it.
#[derive(Debug, Clone)]
pub struct BitIndexIter<I> {
    words: I,
    /// One past the last index of the current word.
    end: usize,
    /// Unvisited bits of the current word.
    current: u64,
}

impl<I: Iterator<Item = u64>> BitIndexIter<I> {
    /// The 1-bit indices of `words`, the first word holding indices
    /// `0..64`.
    #[inline]
    pub fn new(words: I) -> Self {
        BitIndexIter {
            words,
            end: 0,
            current: 0,
        }
    }
}

impl<I: Iterator<Item = u64>> Iterator for BitIndexIter<I> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.current = self.words.next()?;
            self.end += WORD_BITS;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.end - WORD_BITS + bit)
    }

    /// The same walk as nested loops, which `for_each` reaches: the
    /// cluster's per-tick walks over 100k alive nodes run measurably
    /// faster this way than through repeated `next` calls.
    #[inline]
    fn fold<B, F: FnMut(B, usize) -> B>(self, init: B, mut f: F) -> B {
        let BitIndexIter {
            mut words,
            mut end,
            mut current,
        } = self;
        let mut acc = init;
        loop {
            while current != 0 {
                acc = f(acc, end - WORD_BITS + current.trailing_zeros() as usize);
                current &= current - 1;
            }
            match words.next() {
                Some(word) => {
                    current = word;
                    end += WORD_BITS;
                }
                None => return acc,
            }
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Config({self})")
    }
}

impl FromStr for Config {
    type Err = CoreError;

    /// Parse a string of `0`/`1` characters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on any other character.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut c = Config::zeros(s.chars().count());
        for (i, ch) in s.chars().enumerate() {
            match ch {
                '0' => {}
                '1' => c.set(i),
                other => {
                    return Err(crate::error::invalid_param(
                        "config string",
                        format!("unexpected character {other:?} at position {i}"),
                    ))
                }
            }
        }
        Ok(c)
    }
}

impl FromIterator<bool> for Config {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut c = Config::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            if *b {
                c.set(i);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_ones() {
        let z = Config::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 100);
        let o = Config::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.count_zeros(), 0);
    }

    #[test]
    fn ones_masks_tail_correctly() {
        // Non-multiple-of-64 length must not report phantom bits.
        for len in [1, 63, 64, 65, 127, 128, 130] {
            let o = Config::ones(len);
            assert_eq!(o.count_ones(), len, "len={len}");
        }
    }

    #[test]
    fn set_clear_flip_get() {
        let mut c = Config::zeros(70);
        c.set(69);
        assert!(c.get(69));
        c.clear(69);
        assert!(!c.get(69));
        c.flip(69);
        assert!(c.get(69));
        c.assign(69, false);
        assert!(!c.get(69));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let c = Config::zeros(4);
        let _ = c.get(4);
    }

    #[test]
    fn hamming_distance() {
        let a: Config = "10110".parse().unwrap();
        let b: Config = "00111".parse().unwrap();
        assert_eq!(a.hamming(&b).unwrap(), 2);
        assert_eq!(a.hamming(&a).unwrap(), 0);
    }

    #[test]
    fn hamming_length_mismatch_errors() {
        let a = Config::zeros(3);
        let b = Config::zeros(4);
        assert!(matches!(
            a.hamming(&b),
            Err(CoreError::LengthMismatch { left: 3, right: 4 })
        ));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "0110010111";
        let c: Config = s.parse().unwrap();
        assert_eq!(c.to_string(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("01x0".parse::<Config>().is_err());
    }

    #[test]
    fn from_u64_roundtrip() {
        let c = Config::from_u64(0b1011, 6);
        assert_eq!(c.to_string(), "110100"); // bit 0 first
        assert_eq!(c.to_u64(), 0b1011);
        let full = Config::from_u64(u64::MAX, 64);
        assert_eq!(full.count_ones(), 64);
    }

    #[test]
    fn from_u64_masks_high_bits() {
        let c = Config::from_u64(u64::MAX, 5);
        assert_eq!(c.count_ones(), 5);
    }

    #[test]
    fn differing_bits_and_indices() {
        let a: Config = "1010".parse().unwrap();
        let b: Config = "0011".parse().unwrap();
        assert_eq!(a.differing_bits(&b).unwrap(), vec![0, 3]);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn iter_ones_matches_get() {
        for len in [0usize, 1, 7, 63, 64, 65, 128, 130] {
            for seed in 0..4u64 {
                let c = Config::random(len, &mut seeded_rng(seed ^ len as u64));
                let ones: Vec<usize> = (0..len).filter(|&i| c.get(i)).collect();
                assert_eq!(c.iter_ones().collect::<Vec<_>>(), ones);
            }
        }
    }

    #[test]
    fn bit_index_iter_walks_combined_words() {
        let a: Config = "1101_0000".replace('_', "").parse().unwrap();
        let b: Config = "0100_0000".replace('_', "").parse().unwrap();
        let words = a.words().iter().zip(b.words()).map(|(&x, &y)| x & !y);
        assert_eq!(BitIndexIter::new(words).collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn intersect_with_rejects_a_length_mismatch() {
        Config::ones(64).intersect_with(&Config::ones(65));
    }

    #[test]
    fn nth_one_selects_kth_set_bit() {
        let c: Config = "0110010111".parse().unwrap();
        let ones: Vec<usize> = c.iter_ones().collect();
        for (k, &idx) in ones.iter().enumerate() {
            assert_eq!(c.nth_one(k), Some(idx));
        }
        assert_eq!(c.nth_one(ones.len()), None);
        // Across word boundaries.
        let mut wide = Config::zeros(130);
        wide.set(3);
        wide.set(64);
        wide.set(129);
        assert_eq!(wide.nth_one(0), Some(3));
        assert_eq!(wide.nth_one(1), Some(64));
        assert_eq!(wide.nth_one(2), Some(129));
        assert_eq!(wide.nth_one(3), None);
    }

    #[test]
    fn set_from_u64_matches_from_u64() {
        let mut probe = Config::zeros(7);
        for value in 0u64..128 {
            probe.set_from_u64(value);
            assert_eq!(probe, Config::from_u64(value, 7));
        }
        // High bits beyond the length are masked off, like from_u64.
        probe.set_from_u64(u64::MAX);
        assert_eq!(probe, Config::ones(7));
        let mut full = Config::zeros(64);
        full.set_from_u64(u64::MAX);
        assert_eq!(full, Config::ones(64));
    }

    #[test]
    #[should_panic(expected = "at most 64 bits")]
    fn set_from_u64_rejects_wide_configs() {
        let mut wide = Config::zeros(65);
        wide.set_from_u64(1);
    }

    #[test]
    fn flip_random_flips_exactly_k() {
        let mut rng = seeded_rng(3);
        let mut c = Config::ones(50);
        let flipped = c.flip_random(7, &mut rng);
        assert_eq!(flipped.len(), 7);
        assert_eq!(c.count_zeros(), 7);
        // k larger than len saturates
        let mut d = Config::ones(5);
        let flipped = d.flip_random(100, &mut rng);
        assert_eq!(flipped.len(), 5);
        assert_eq!(d.count_ones(), 0);
    }

    #[test]
    fn mutate_rate_zero_and_one() {
        let mut rng = seeded_rng(4);
        let mut c = Config::ones(40);
        assert_eq!(c.mutate(0.0, &mut rng), 0);
        assert_eq!(c.count_ones(), 40);
        assert_eq!(c.mutate(1.0, &mut rng), 40);
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    fn density() {
        let c: Config = "1100".parse().unwrap();
        assert!((c.density() - 0.5).abs() < 1e-12);
        assert_eq!(Config::zeros(0).density(), 0.0);
    }

    #[test]
    fn from_iterator() {
        let c: Config = [true, false, true].into_iter().collect();
        assert_eq!(c.to_string(), "101");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Config::zeros(0)).is_empty());
    }

    proptest! {
        #[test]
        fn prop_hamming_is_metric(len in 1usize..200, s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>()) {
            let a = Config::random(len, &mut seeded_rng(s1));
            let b = Config::random(len, &mut seeded_rng(s2));
            let c = Config::random(len, &mut seeded_rng(s3));
            let dab = a.hamming(&b).unwrap();
            let dba = b.hamming(&a).unwrap();
            prop_assert_eq!(dab, dba); // symmetry
            prop_assert_eq!(a.hamming(&a).unwrap(), 0); // identity
            let dac = a.hamming(&c).unwrap();
            let dcb = c.hamming(&b).unwrap();
            prop_assert!(dab <= dac + dcb); // triangle inequality
        }

        #[test]
        fn prop_flip_changes_hamming_by_one(len in 1usize..150, seed in any::<u64>()) {
            let mut rng = seeded_rng(seed);
            let a = Config::random(len, &mut rng);
            let mut b = a.clone();
            let idx = (seed as usize) % len;
            b.flip(idx);
            prop_assert_eq!(a.hamming(&b).unwrap(), 1);
            b.flip(idx);
            prop_assert_eq!(a.hamming(&b).unwrap(), 0);
        }

        #[test]
        fn prop_display_parse_roundtrip(len in 0usize..300, seed in any::<u64>()) {
            let c = Config::random(len, &mut seeded_rng(seed));
            let parsed: Config = c.to_string().parse().unwrap();
            prop_assert_eq!(parsed, c);
        }

        #[test]
        fn prop_count_ones_plus_zeros_is_len(len in 0usize..300, seed in any::<u64>()) {
            let c = Config::random(len, &mut seeded_rng(seed));
            prop_assert_eq!(c.count_ones() + c.count_zeros(), len);
        }

        /// A random set/clear/clear-all/AND sequence agrees with a
        /// `BTreeSet` reference, lengths on and off word boundaries.
        #[test]
        fn prop_matches_reference_set(
            len in 1usize..300,
            ops in proptest::collection::vec((0usize..300, 0u8..8, any::<u64>()), 0..200),
        ) {
            let mut bits = Config::zeros(len);
            let mut reference = std::collections::BTreeSet::new();
            for (i, op, seed) in ops {
                let i = i % len;
                match op {
                    0 => {
                        bits.clear_all();
                        reference.clear();
                    }
                    1 => {
                        let mask = Config::random(len, &mut seeded_rng(seed));
                        bits.intersect_with(&mask);
                        reference.retain(|&j| mask.get(j));
                    }
                    2..=4 => {
                        bits.set(i);
                        reference.insert(i);
                    }
                    _ => {
                        bits.clear(i);
                        reference.remove(&i);
                    }
                }
            }
            prop_assert_eq!(bits.count_ones(), reference.len());
            prop_assert_eq!(bits.count_zeros(), len - reference.len());
            let expected: Vec<usize> = reference.iter().copied().collect();
            // A `for` loop walks with `next`.
            let mut via_next = Vec::new();
            for i in bits.iter_ones() {
                via_next.push(i);
            }
            prop_assert_eq!(&via_next, &expected);
            // `for_each` (the `fold` walk), also resumed mid-stream.
            let mut via_fold = Vec::new();
            bits.iter_ones().for_each(|i| via_fold.push(i));
            prop_assert_eq!(&via_fold, &expected);
            let mut iter = bits.iter_ones();
            let mut resumed: Vec<usize> = iter.by_ref().take(expected.len() / 2).collect();
            iter.for_each(|i| resumed.push(i));
            prop_assert_eq!(&resumed, &expected);
            for i in 0..len {
                prop_assert_eq!(bits.get(i), reference.contains(&i));
            }
        }
    }
}
