//! Property tests for `derive_seed`, the stream-derivation function the
//! parallel runtime hangs its determinism contract on: trial `i` of a
//! batch is seeded with `derive_seed(master, i)`, so collisions between
//! streams (or between experiments' stream bases) would silently correlate
//! Monte Carlo trials. Also pins `first_draw`, the one-block kernel the
//! service backend draws each trial's single `u64` with, to the first
//! draw of the trial's seeded generator.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::Rng;
use systems_resilience::core::rng::first_draw;
use systems_resilience::core::{derive_seed, seeded_rng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Within a window of consecutive stream indices — the shape every
    /// `ParallelTrials` batch uses — all derived seeds are distinct.
    #[test]
    fn injective_over_contiguous_stream_window(master in any::<u64>(), base in 0u64..u64::MAX - 2048) {
        let mut seen = HashSet::new();
        for stream in base..base + 1024 {
            prop_assert!(
                seen.insert(derive_seed(master, stream)),
                "collision in window at stream {stream}"
            );
        }
    }

    /// Distinct masters keep the same stream window disjoint: two
    /// experiments (or two master seeds) never share a trial stream.
    #[test]
    fn windows_of_distinct_masters_are_disjoint(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let wa: HashSet<u64> = (0..256).map(|s| derive_seed(a, s)).collect();
        for s in 0..256 {
            prop_assert!(!wa.contains(&derive_seed(b, s)));
        }
    }

    /// The function is not symmetric in (master, stream) — swapping the
    /// roles must not reproduce the same seed, or a master colliding with
    /// a stream index would alias two unrelated batches.
    #[test]
    fn no_master_stream_symmetry(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(derive_seed(a, b), derive_seed(b, a));
    }

    /// Independence smoke: adjacent streams differ in roughly half their
    /// bits (SplitMix64-style avalanche), so neighbouring trials do not
    /// start from correlated states.
    #[test]
    fn adjacent_streams_avalanche(master in any::<u64>(), stream in 0u64..u64::MAX - 1) {
        let d = (derive_seed(master, stream) ^ derive_seed(master, stream + 1)).count_ones();
        prop_assert!((8..=56).contains(&d), "hamming distance {d} out of range");
    }

    /// Pure function: the same inputs always produce the same seed.
    #[test]
    fn deterministic(master in any::<u64>(), stream in any::<u64>()) {
        prop_assert_eq!(derive_seed(master, stream), derive_seed(master, stream));
    }

    /// The one-block kernel a single-draw trial uses is exactly the
    /// first `u64` of that trial's seeded generator.
    #[test]
    fn first_draw_is_the_generators_first_u64(seed in any::<u64>()) {
        prop_assert_eq!(first_draw(seed), seeded_rng(seed).gen::<u64>());
    }
}

#[test]
fn first_draw_matches_generator_at_edge_seeds() {
    for seed in [0, u64::MAX, 1 << 63] {
        assert_eq!(
            first_draw(seed),
            seeded_rng(seed).gen::<u64>(),
            "seed {seed:#x}"
        );
    }
}
