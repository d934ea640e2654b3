//! Repair search over the single-bit-flip move set.
//!
//! The paper (§4.2): "the system needs to adapt to the new environment as
//! quickly as possible by flipping some bits in s. One way to model this
//! process is that the system flips one bit at a time."
//!
//! Three strategies are provided:
//!
//! * [`GreedyRepair`] — flip the bit that most reduces the constraint's
//!   violation degree (hill climbing; fast, can get stuck on plateaus).
//! * [`BfsRepair`] — breadth-first search over flip sequences up to a depth
//!   bound; finds a *shortest* repair if one exists within the bound
//!   (optimal but exponential in the repair distance).
//! * [`AnnealRepair`] — simulated annealing; escapes plateaus
//!   probabilistically, at the cost of non-monotone trajectories.

use std::collections::{HashSet, VecDeque};

use rand::Rng;
use resilience_core::{seeded_rng, Config, Constraint};

/// Result of a repair attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Number of flips performed.
    pub steps: usize,
    /// The flipped bit indices, in order.
    pub flips: Vec<usize>,
    /// Whether the system ended fit.
    pub recovered: bool,
}

/// A repair strategy proposes the next single bit to flip.
///
/// Returning `None` signals the strategy is stuck (no flip it is willing to
/// make); the driver stops the repair loop.
pub trait RepairStrategy: Send + Sync {
    /// Choose the next bit to flip for `state` under `env`, or `None` if
    /// stuck. Must not be called on an already-fit state (callers check).
    fn propose_flip(&self, state: &Config, env: &dyn Constraint) -> Option<usize>;

    /// Whether `propose_flip` is a pure function of `(state, env)` — no
    /// interior mutability, no dependence on call order. Deterministic
    /// strategies admit memoized and parallel verification (the repair
    /// trajectory from a state is unique, so outcomes can be cached per
    /// state and cases checked in any order); non-deterministic ones fall
    /// back to the sequential unmemoized path. Defaults to `true`;
    /// strategies that mix hidden per-call state into their choice (e.g.
    /// [`AnnealRepair`]'s call counter) must override this to `false`.
    fn is_deterministic(&self) -> bool {
        true
    }

    /// Whether the *length* of this strategy's repair trajectory is
    /// invariant under constraint automorphisms that fix the start
    /// configuration — the soundness requirement of orbit-reduced
    /// verification (one representative's walk stands in for its whole
    /// orbit). Violation-guided and distance-optimal strategies qualify
    /// because violation degree and repair distance are
    /// automorphism-invariant. Defaults to `false`; strategies whose
    /// step count can depend on variable identity (not just orbit) must
    /// keep it that way.
    fn is_symmetry_invariant(&self) -> bool {
        false
    }
}

/// Greedy hill climbing on the violation degree: flips the
/// lowest-indexed bit achieving the strictest decrease; `None` when no
/// single flip strictly improves (plateau or local minimum).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyRepair {
    _private: (),
}

impl GreedyRepair {
    /// New greedy repairer.
    pub fn new() -> Self {
        GreedyRepair { _private: () }
    }
}

impl RepairStrategy for GreedyRepair {
    /// Greedy descends on the violation degree, which automorphisms
    /// preserve, so its trajectory *length* is orbit-invariant.
    fn is_symmetry_invariant(&self) -> bool {
        true
    }

    /// One [`Constraint::flip_violations`] call reads the whole
    /// neighbourhood into a stack buffer (a heap one past 64 bits); one
    /// scan keeps the best violation so far, starting from the current
    /// one, and moves only on a strict `<`. So the lowest index wins
    /// ties, and a NaN neither wins nor blocks a later bit. The scan
    /// selects rather than branches: the winning bit's position varies
    /// from state to state, so a branch on it mispredicts.
    fn propose_flip(&self, state: &Config, env: &dyn Constraint) -> Option<usize> {
        let current = env.violation(state);
        let mut stack = [0.0; 64];
        let mut heap = Vec::new();
        let out = if state.len() <= stack.len() {
            &mut stack[..state.len()]
        } else {
            heap.resize(state.len(), 0.0);
            &mut heap[..]
        };
        env.flip_violations(state, out);
        let mut best = usize::MAX;
        let mut best_v = current;
        for (i, &v) in out.iter().enumerate() {
            let better = v < best_v;
            best = if better { i } else { best };
            best_v = if better { v } else { best_v };
        }
        (best != usize::MAX).then_some(best)
    }
}

/// Breadth-first search for a shortest flip sequence reaching fitness,
/// up to `max_depth` flips. The proposal returns the *first* flip of a
/// shortest plan (recomputed each step, so it tolerates interleaved
/// perturbations).
///
/// State-space caution: BFS visits up to `O(n^depth)` configurations; use
/// for small `n` or small repair distances (exactly the regime of the
/// paper's spacecraft example).
#[derive(Debug, Clone, Copy)]
pub struct BfsRepair {
    max_depth: usize,
}

impl BfsRepair {
    /// BFS repairer with the given depth bound.
    pub fn new(max_depth: usize) -> Self {
        BfsRepair { max_depth }
    }

    /// Find a complete shortest repair plan (sequence of flips), if one
    /// exists within the depth bound.
    pub fn shortest_plan(&self, state: &Config, env: &dyn Constraint) -> Option<Vec<usize>> {
        if env.is_fit(state) {
            return Some(Vec::new());
        }
        let mut seen: HashSet<Config> = HashSet::new();
        let mut queue: VecDeque<(Config, Vec<usize>)> = VecDeque::new();
        seen.insert(state.clone());
        queue.push_back((state.clone(), Vec::new()));
        while let Some((cfg, plan)) = queue.pop_front() {
            if plan.len() >= self.max_depth {
                continue;
            }
            for i in 0..cfg.len() {
                let mut next = cfg.clone();
                next.flip(i);
                if seen.contains(&next) {
                    continue;
                }
                let mut next_plan = plan.clone();
                next_plan.push(i);
                if env.is_fit(&next) {
                    return Some(next_plan);
                }
                seen.insert(next.clone());
                queue.push_back((next, next_plan));
            }
        }
        None
    }
}

impl RepairStrategy for BfsRepair {
    /// BFS walks a shortest repair; repair *distance* is preserved by
    /// constraint automorphisms, so the step count is orbit-invariant.
    fn is_symmetry_invariant(&self) -> bool {
        true
    }

    fn propose_flip(&self, state: &Config, env: &dyn Constraint) -> Option<usize> {
        self.shortest_plan(state, env)
            .and_then(|plan| plan.first().copied())
    }
}

/// Simulated annealing: accepts uphill flips with a Boltzmann probability.
/// An internal atomic call counter is mixed into the per-call RNG so
/// repeated proposals on the same state explore different moves (a pure
/// state-derived RNG would deterministically cycle); trajectories remain
/// reproducible for a given `seed` and call sequence.
#[derive(Debug)]
pub struct AnnealRepair {
    temperature: f64,
    seed: u64,
    calls: std::sync::atomic::AtomicU64,
}

impl AnnealRepair {
    /// Annealing repairer with initial `temperature` (> 0) and RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is not positive and finite.
    pub fn new(temperature: f64, seed: u64) -> Self {
        assert!(
            temperature.is_finite() && temperature > 0.0,
            "temperature must be positive"
        );
        AnnealRepair {
            temperature,
            seed,
            calls: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl RepairStrategy for AnnealRepair {
    /// Not deterministic: the call counter makes repeated proposals on
    /// the same state differ, so outcomes depend on global call order.
    fn is_deterministic(&self) -> bool {
        false
    }

    fn propose_flip(&self, state: &Config, env: &dyn Constraint) -> Option<usize> {
        if state.is_empty() {
            return None;
        }
        let call = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Mix state, seed, and the call counter into the per-call RNG.
        let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ self.seed ^ call.rotate_left(17);
        for b in state.iter() {
            hash = hash
                .wrapping_mul(0x1000_0000_01b3)
                .wrapping_add(b as u64 + 1);
        }
        let mut rng = seeded_rng(hash);
        let current = env.violation(state);
        let mut probe = state.clone();
        // Try a handful of candidate bits; accept the first improving flip,
        // or a worsening one with annealing probability.
        for _ in 0..state.len().max(8) {
            let i = rng.gen_range(0..state.len());
            probe.flip(i);
            let v = env.violation(&probe);
            probe.flip(i);
            if v < current {
                return Some(i);
            }
            let delta = v - current;
            if delta.is_finite() && rng.gen_bool((-delta / self.temperature).exp().min(1.0)) {
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience_core::{AllOnes, ExplicitSet};

    #[test]
    fn greedy_fixes_all_ones_deficit() {
        let env = AllOnes::new(6);
        let mut state: Config = "101010".parse().unwrap();
        let greedy = GreedyRepair::new();
        let mut steps = 0;
        while !env.is_fit(&state) {
            let bit = greedy.propose_flip(&state, &env).expect("not stuck");
            state.flip(bit);
            steps += 1;
            assert!(steps <= 6, "greedy must terminate");
        }
        assert_eq!(steps, 3);
    }

    #[test]
    fn greedy_gets_stuck_on_indicator_constraints() {
        // An explicit two-member set gives graded violations (Hamming
        // distance), so greedy succeeds; but an indicator-style predicate
        // constraint gives no gradient, so greedy is stuck.
        use resilience_core::PredicateConstraint;
        let flat = PredicateConstraint::new("exact", |c: &Config| c.to_u64() == 0b111);
        let state: Config = "000".parse().unwrap();
        assert_eq!(GreedyRepair::new().propose_flip(&state, &flat), None);
    }

    #[test]
    fn bfs_finds_shortest_plan() {
        let env: ExplicitSet = ["1111".parse().unwrap(), "0000".parse().unwrap()]
            .into_iter()
            .collect();
        let state: Config = "1101".parse().unwrap();
        let bfs = BfsRepair::new(4);
        let plan = bfs.shortest_plan(&state, &env).unwrap();
        assert_eq!(plan.len(), 1); // flip bit 2 to reach 1111
        assert_eq!(plan[0], 2);
    }

    #[test]
    fn bfs_chooses_nearer_target() {
        let env: ExplicitSet = ["111111".parse().unwrap(), "000000".parse().unwrap()]
            .into_iter()
            .collect();
        // One zero: nearest fit is all-ones (distance 1 vs 5).
        let state: Config = "110111".parse().unwrap();
        let plan = BfsRepair::new(6).shortest_plan(&state, &env).unwrap();
        assert_eq!(plan, vec![2]);
    }

    #[test]
    fn bfs_respects_depth_bound() {
        let env = AllOnes::new(5);
        let state = Config::zeros(5);
        assert!(BfsRepair::new(4).shortest_plan(&state, &env).is_none());
        assert_eq!(
            BfsRepair::new(5).shortest_plan(&state, &env).unwrap().len(),
            5
        );
    }

    #[test]
    fn bfs_fit_state_has_empty_plan() {
        let env = AllOnes::new(3);
        let plan = BfsRepair::new(3).shortest_plan(&Config::ones(3), &env);
        assert_eq!(plan, Some(Vec::new()));
    }

    #[test]
    fn bfs_propose_returns_first_step() {
        let env = AllOnes::new(4);
        let state: Config = "1011".parse().unwrap();
        assert_eq!(BfsRepair::new(4).propose_flip(&state, &env), Some(1));
    }

    #[test]
    fn anneal_eventually_repairs() {
        let env = AllOnes::new(8);
        let mut state: Config = "10101010".parse().unwrap();
        let anneal = AnnealRepair::new(0.5, 42);
        let mut steps = 0;
        while !env.is_fit(&state) && steps < 500 {
            if let Some(bit) = anneal.propose_flip(&state, &env) {
                state.flip(bit);
            }
            steps += 1;
        }
        assert!(
            env.is_fit(&state),
            "annealing failed to repair in {steps} steps"
        );
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn anneal_validates_temperature() {
        let _ = AnnealRepair::new(0.0, 1);
    }

    #[test]
    fn determinism_flags() {
        assert!(GreedyRepair::new().is_deterministic());
        assert!(BfsRepair::new(3).is_deterministic());
        assert!(!AnnealRepair::new(1.0, 0).is_deterministic());
        // Also through a trait object.
        let anneal: Box<dyn RepairStrategy> = Box::new(AnnealRepair::new(1.0, 0));
        assert!(!anneal.is_deterministic());
    }

    #[test]
    fn symmetry_invariance_flags() {
        assert!(GreedyRepair::new().is_symmetry_invariant());
        assert!(BfsRepair::new(3).is_symmetry_invariant());
        // Annealing mixes variable identity into its RNG hash, so its
        // step count is not an orbit invariant.
        assert!(!AnnealRepair::new(1.0, 0).is_symmetry_invariant());
    }

    #[test]
    fn strategies_are_object_safe() {
        let strategies: Vec<Box<dyn RepairStrategy>> = vec![
            Box::new(GreedyRepair::new()),
            Box::new(BfsRepair::new(3)),
            Box::new(AnnealRepair::new(1.0, 0)),
        ];
        let env = AllOnes::new(4);
        let state: Config = "0111".parse().unwrap();
        for s in &strategies {
            assert!(s.propose_flip(&state, &env).is_some());
        }
    }
}
