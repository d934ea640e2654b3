//! Word-packed bitsets — the frontier/marker machinery of the
//! maintainability model checker, extracted so every layer that tracks
//! large boolean populations (BFS frontiers, normal sets, cluster
//! alive-sets, visited markers) shares one implementation.
//!
//! A [`BitWords`] is a fixed-capacity set over `0..len` backed by
//! `u64` words. The dense-iteration idiom the model checker relies on
//! (`word &= word - 1` to strip set bits in ascending order) is wrapped
//! by [`BitWords::for_each_one`] / [`BitWords::iter_ones`], and the raw
//! words stay reachable through [`BitWords::words`] /
//! [`BitWords::words_mut`] for callers that batch at word granularity.

use serde::{Deserialize, Serialize};

/// A fixed-capacity set of `usize` indices packed 64 per word.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitWords {
    len: usize,
    words: Vec<u64>,
}

impl BitWords {
    /// An empty set over `0..len`.
    pub fn new(len: usize) -> Self {
        BitWords {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// A full set over `0..len` (every index present).
    pub fn new_filled(len: usize) -> Self {
        let mut b = BitWords {
            len,
            words: vec![u64::MAX; len.div_ceil(64)],
        };
        b.trim_tail();
        b
    }

    /// Zero any bits beyond `len` in the final partial word.
    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The capacity (number of addressable indices), *not* the count of
    /// set bits — see [`BitWords::count`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (in debug builds; release indexes the word
    /// vector, which still panics for `i / 64` out of range).
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `i` is present.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bits are set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every index (capacity unchanged).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Insert every index in `0..len`.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.trim_tail();
    }

    /// The backing words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words. Callers must not set bits at
    /// or above `len` — [`BitWords::count`] and iteration would see them.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Visit every set index in ascending order (the dense word-stripping
    /// loop of the model checker).
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                f(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
    }

    /// Iterator over the set indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&m| {
                let m = m & (m - 1);
                (m != 0).then_some(m)
            })
            .map(move |m| w * 64 + m.trailing_zeros() as usize)
        })
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitWords) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: remove every bit set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &BitWords) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitWords::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count(), 0);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn filled_respects_partial_tail_word() {
        let b = BitWords::new_filled(70);
        assert_eq!(b.count(), 70);
        let mut c = BitWords::new(70);
        c.set_all();
        assert_eq!(b, c);
        assert_eq!(BitWords::new_filled(64).count(), 64);
        assert_eq!(BitWords::new_filled(0).count(), 0);
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut b = BitWords::new(200);
        let targets = [0usize, 5, 63, 64, 65, 127, 128, 199];
        for &t in &targets {
            b.set(t);
        }
        let mut visited = Vec::new();
        b.for_each_one(|i| visited.push(i));
        assert_eq!(visited, targets);
        let iterated: Vec<usize> = b.iter_ones().collect();
        assert_eq!(iterated, targets);
    }

    #[test]
    fn set_ops() {
        let mut a = BitWords::new(100);
        let mut b = BitWords::new(100);
        a.set(1);
        a.set(70);
        b.set(70);
        b.set(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 70, 99]);
        a.difference_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn clear_all_and_none_set() {
        let mut b = BitWords::new_filled(65);
        assert!(!b.none_set());
        b.clear_all();
        assert!(b.none_set());
        assert_eq!(b.count(), 0);
    }

    proptest! {
        #[test]
        fn prop_matches_reference_set(len in 1usize..300, ops in proptest::collection::vec((0usize..300, 0usize..2), 0..200)) {
            let mut bits = BitWords::new(len);
            let mut reference = std::collections::BTreeSet::new();
            for (i, insert) in ops {
                let i = i % len;
                if insert == 1 {
                    bits.set(i);
                    reference.insert(i);
                } else {
                    bits.clear(i);
                    reference.remove(&i);
                }
            }
            prop_assert_eq!(bits.count(), reference.len());
            let via_iter: Vec<usize> = bits.iter_ones().collect();
            let expected: Vec<usize> = reference.iter().copied().collect();
            prop_assert_eq!(via_iter, expected);
            for i in 0..len {
                prop_assert_eq!(bits.get(i), reference.contains(&i));
            }
        }
    }
}
