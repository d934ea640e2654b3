//! *K*-maintainability (the paper's §4.3, after Baral & Eiter 2004).
//!
//! "We say that a system is K-maintainable if, for any non-normal state of
//! the system, there exists a sequence of actions (i.e., events controllable
//! by a system administrator) that move the system back to one of the normal
//! states within k steps."
//!
//! [`TransitionSystem`] is an explicit-state model with *controllable*
//! actions (the administrator's moves) and *exogenous* transitions (the
//! environment's moves). Internally the adjacency lists are mirrored into
//! compressed-sparse-row (CSR) arrays — forward and reverse edges packed
//! into flat `u32` offset/target vectors — built once on first analysis and
//! invalidated when edges change. Two analyses are provided:
//!
//! * [`TransitionSystem::analyze`] — the paper's definition: the
//!   environment stays quiet during repair. Backward BFS (word-packed
//!   bitset frontiers) from the normal states yields, for every state, the
//!   minimum number of controllable steps to normality, and a repair
//!   policy achieving it ([`MaintainabilityReport::next_state`]). This is
//!   the polynomial-time construction of Baral & Eiter.
//! * [`TransitionSystem::analyze_adversarial`] — a strictly stronger
//!   variant in which after every administrator action the environment may
//!   take one worst-case exogenous step; computed as a min-max fixed point
//!   by Jacobi (snapshot) value iteration, chunked over a thread budget
//!   with thread-invariant output.
//!
//! For bit-string DCSPs the explicit construction
//! ([`TransitionSystem::from_bit_dcsp`]) materializes all `2^n` states and
//! is capped at 20 bits; the *implicit* checkers [`analyze_bit_dcsp`] and
//! [`analyze_bit_dcsp_adversarial`] generate single-bit-flip moves on the
//! fly and produce equal reports without the transition system.
//!
//! When the constraint declares full variable symmetry — one
//! interchangeability class over exactly the `n` state bits
//! ([`Constraint::symmetry_classes`]) — fitness depends only on a state's
//! popcount, and so do both analyses. The implicit checkers then solve on
//! the `n + 1` popcount *orbits* (the count view of state): a flip moves
//! orbit `p` to `p ± 1`, and damaging `j` set and `k` clear bits moves it
//! to `p − j + k`. The Jacobi iterates are orbit-constant, so the orbit
//! fixed point is the dense one.
//!
//! A [`MaintainabilityReport`] has two storages. A dense report keeps a
//! `u32` level and a `u32` successor per state, up to `2^24` states. An
//! orbit report keeps, per orbit, the level and whether the orbits below
//! and above reach the target, up to `2^63` states; it answers for a
//! state from its popcount, and weights each orbit by `C(n, p)` when it
//! counts frontiers or hopeless states. Both answer every query, each
//! per-state one in O(1), and compare equal when every state's level and
//! next state agree. The `try_` variants return
//! [`CoreError::StateSpaceTooLarge`] past those limits.
//!
//! The three state spaces — the CSR, the dense bit-flip space and the
//! orbits — are three move sources of one engine: one backward BFS, one
//! Jacobi fixed point and one policy rule, monomorphized per source.
//! Policy tie-breaking is therefore canonical in every analysis path:
//! among the controllable successors achieving the optimal value, the one
//! inserted first is chosen (for bit DCSPs, the lowest flipped bit — on
//! orbits, `min(tz(s), tz(!s))` over the directions that reach the
//! target). This makes the fast paths, the retained references, and the
//! implicit generators agree exactly, which the test suite checks.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use resilience_core::{Config, Constraint, CoreError};

/// "Unreachable / unbounded" sentinel for levels and adversarial values;
/// `INF + 1` saturates to `INF`. Every finite value is below the state
/// count, which each move source keeps under `u32::MAX` (the CSR asserts
/// it; bit spaces stop at `2^24` states).
const INF: u32 = u32::MAX;

/// Explicit-state transition system with controllable and exogenous moves.
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    n_states: usize,
    normal: Vec<bool>,
    /// `controllable[s]` = administrator moves available in `s`.
    controllable: Vec<Vec<usize>>,
    /// `exogenous[s]` = environment moves possible from `s`.
    exogenous: Vec<Vec<usize>>,
    /// CSR mirror of the adjacency lists, built lazily on first analysis
    /// and dropped whenever an edge is added.
    csr: OnceLock<Csr>,
}

/// One adjacency relation in compressed-sparse-row form: the neighbors of
/// `s` are `targets[offsets[s] .. offsets[s + 1]]`, in insertion order.
#[derive(Debug, Clone)]
struct EdgeList {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl EdgeList {
    fn forward(adj: &[Vec<usize>]) -> Self {
        let n_edges: usize = adj.iter().map(Vec::len).sum();
        assert!(
            n_edges < u32::MAX as usize,
            "edge count exceeds CSR capacity"
        );
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut targets = Vec::with_capacity(n_edges);
        offsets.push(0u32);
        for tos in adj {
            targets.extend(tos.iter().map(|&t| t as u32));
            offsets.push(targets.len() as u32);
        }
        EdgeList { offsets, targets }
    }

    /// Reverse adjacency via stable counting sort: each state's
    /// predecessors appear in ascending (source, insertion) order.
    fn reversed(adj: &[Vec<usize>]) -> Self {
        let n = adj.len();
        let n_edges: usize = adj.iter().map(Vec::len).sum();
        assert!(
            n_edges < u32::MAX as usize,
            "edge count exceeds CSR capacity"
        );
        let mut counts = vec![0u32; n + 1];
        for tos in adj {
            for &t in tos {
                counts[t + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; n_edges];
        for (from, tos) in adj.iter().enumerate() {
            for &t in tos {
                targets[cursor[t] as usize] = from as u32;
                cursor[t] += 1;
            }
        }
        EdgeList { offsets, targets }
    }

    fn neighbors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.targets[self.offsets[s] as usize..self.offsets[s + 1] as usize]
            .iter()
            .map(|&t| t as usize)
    }
}

#[derive(Debug, Clone)]
struct Csr {
    /// Forward controllable edges.
    ctrl: EdgeList,
    /// Reverse controllable edges (for the backward BFS).
    ctrl_rev: EdgeList,
    /// Forward exogenous edges (for the adversarial worst-case reply).
    exo: EdgeList,
}

impl Csr {
    fn build(controllable: &[Vec<usize>], exogenous: &[Vec<usize>]) -> Self {
        assert!(
            controllable.len() < u32::MAX as usize,
            "state count exceeds CSR capacity"
        );
        Csr {
            ctrl: EdgeList::forward(controllable),
            ctrl_rev: EdgeList::reversed(controllable),
            exo: EdgeList::forward(exogenous),
        }
    }
}

/// One state space as the analyses see it. [`bfs_levels`],
/// [`fixed_point`] and [`report`] are generic over it, so each source
/// gets its own monomorphized sweeps.
trait MoveSource: Sync {
    fn n_states(&self) -> usize;

    fn is_normal(&self, s: usize) -> bool;

    /// Controllable successors of `s` in canonical order: the policy
    /// takes the first one achieving the optimum.
    fn successors(&self, s: usize) -> impl Iterator<Item = usize> + '_;

    /// States with a controllable move into `s`: by default the
    /// successors, as in the bit-flip and orbit spaces, where every move
    /// can be undone by one.
    fn predecessors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.successors(s)
    }

    /// The environment's worst reply once the administrator lands in `t`:
    /// the largest of `v[t]` and `v` over the exogenous moves out of `t`.
    fn worst_reply(&self, v: &[u32], t: usize) -> u32;
}

/// [`TransitionSystem`]'s cached CSR.
struct CsrMoves<'a> {
    normal: &'a [bool],
    csr: &'a Csr,
}

impl MoveSource for CsrMoves<'_> {
    fn n_states(&self) -> usize {
        self.normal.len()
    }

    fn is_normal(&self, s: usize) -> bool {
        self.normal[s]
    }

    fn successors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.csr.ctrl.neighbors(s)
    }

    fn predecessors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.csr.ctrl_rev.neighbors(s)
    }

    fn worst_reply(&self, v: &[u32], t: usize) -> u32 {
        self.csr.exo.neighbors(t).fold(v[t], |w, u| w.max(v[u]))
    }
}

/// The dense `2^n_bits`-state space of a bit DCSP: a move flips one bit
/// (lowest first), and from every normal state the environment may damage
/// up to `max_damage` bits (the shock model of
/// [`TransitionSystem::from_bit_dcsp`]).
struct BitFlips {
    n_bits: usize,
    normal: Config,
    /// Every non-zero damage pattern as an XOR mask (order irrelevant:
    /// only the max over the ball is taken).
    masks: Vec<usize>,
}

impl BitFlips {
    fn new(n_bits: usize, env: &dyn Constraint, max_damage: usize) -> Self {
        let n_states = 1usize << n_bits;
        let mut normal = Config::zeros(n_states);
        let mut probe = Config::zeros(n_bits);
        for s in 0..n_states {
            probe.set_from_u64(s as u64);
            if env.is_fit(&probe) {
                normal.set(s);
            }
        }
        let mut masks = Vec::new();
        damage_masks(n_bits, max_damage, 0, 0, &mut masks);
        BitFlips {
            n_bits,
            normal,
            masks,
        }
    }
}

impl MoveSource for BitFlips {
    fn n_states(&self) -> usize {
        1 << self.n_bits
    }

    fn is_normal(&self, s: usize) -> bool {
        self.normal.get(s)
    }

    fn successors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_bits).map(move |b| s ^ (1 << b))
    }

    fn worst_reply(&self, v: &[u32], t: usize) -> u32 {
        if !self.normal.get(t) {
            return v[t];
        }
        self.masks.iter().fold(v[t], |w, &m| w.max(v[t ^ m]))
    }
}

/// The `n + 1` popcount orbits of a fully symmetric bit DCSP. A flip
/// moves orbit `p` to `p ± 1`; damaging `j` set and `k` clear bits of a
/// normal state in orbit `p` lands in orbit `p − j + k`, for
/// `1 ≤ j + k ≤ max_damage`, `j ≤ p`, `k ≤ n − p`. The engine's iterates
/// on orbits are the dense ones restricted to orbit-constant vectors, so
/// the values are the dense values.
struct Orbits {
    /// Fitness per orbit: `n + 1` probes of the prefix configurations
    /// `0^n`, `10^(n−1)`, ….
    fit: Vec<bool>,
    max_damage: usize,
}

impl Orbits {
    fn new(n_bits: usize, env: &dyn Constraint, max_damage: usize) -> Self {
        let mut probe = Config::zeros(n_bits);
        let mut fit = vec![env.is_fit(&probe)];
        for b in 0..n_bits {
            probe.flip(b);
            fit.push(env.is_fit(&probe));
        }
        Orbits { fit, max_damage }
    }
}

impl MoveSource for Orbits {
    fn n_states(&self) -> usize {
        self.fit.len()
    }

    fn is_normal(&self, p: usize) -> bool {
        self.fit[p]
    }

    fn successors(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let up = (p + 1 < self.fit.len()).then_some(p + 1);
        p.checked_sub(1).into_iter().chain(up)
    }

    fn worst_reply(&self, v: &[u32], p: usize) -> u32 {
        if !self.fit[p] {
            return v[p];
        }
        let n = self.fit.len() - 1;
        let mut w = v[p];
        for j in 0..=self.max_damage.min(p) {
            for k in 0..=(self.max_damage - j).min(n - p) {
                w = w.max(v[p - j + k]);
            }
        }
        w
    }
}

/// Split `out` into `threads` contiguous chunks and fill each on its own
/// thread. Chunk boundaries cannot affect the result — every element is a
/// pure function of its index and shared read-only state — so the output
/// is identical for any thread count.
fn run_chunks<T: Send, F>(out: &mut [T], threads: usize, fill: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    if threads <= 1 {
        fill(0, out);
        return;
    }
    let chunk_len = out.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for (c, chunk) in out.chunks_mut(chunk_len).enumerate() {
            let fill = &fill;
            scope.spawn(move || fill(c * chunk_len, chunk));
        }
    });
}

/// Backward BFS from the normal states over the predecessors, with
/// word-packed bitset frontiers: the quiet analysis's levels (`INF` =
/// unreachable).
fn bfs_levels<M: MoveSource>(moves: &M) -> Vec<u32> {
    let n_states = moves.n_states();
    let mut levels = vec![INF; n_states];
    let mut frontier = Config::zeros(n_states);
    let mut next = Config::zeros(n_states);
    for (s, level) in levels.iter_mut().enumerate() {
        if moves.is_normal(s) {
            *level = 0;
            frontier.set(s);
        }
    }
    let mut depth = 0;
    loop {
        let mut any = false;
        frontier.iter_ones().for_each(|s| {
            for p in moves.predecessors(s) {
                if levels[p] == INF {
                    levels[p] = depth + 1;
                    next.set(p);
                    any = true;
                }
            }
        });
        if !any {
            break;
        }
        depth += 1;
        std::mem::swap(&mut frontier, &mut next);
        next.clear_all();
    }
    levels
}

/// Fill `replies[t] = moves.worst_reply(v, t)` for every state, chunked
/// over `threads` threads.
fn reply_pass<M: MoveSource>(moves: &M, v: &[u32], replies: &mut [u32], threads: usize) {
    run_chunks(replies, threads, |start, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = moves.worst_reply(v, start + i);
        }
    });
}

/// The adversarial min-max fixed point
/// `V(s) = 1 + min_a max_{u ∈ {t_a} ∪ exo(t_a)} V(u)`, `V = 0` on normal
/// states, as values and the environment's worst replies to them (`INF` =
/// unbounded). Each Jacobi sweep reads a snapshot `v` and writes
/// `v_next`, so every element is a pure function of the previous sweep
/// and the output is identical for any `threads` (and identical to the
/// Gauss-Seidel [`TransitionSystem::analyze_adversarial_reference`]: both
/// iterate a monotone operator down from ⊤ to the same greatest fixed
/// point, and finite values — all below the state count — settle within
/// that many sweeps).
fn fixed_point<M: MoveSource>(moves: &M, threads: usize) -> (Vec<u32>, Vec<u32>) {
    let threads = threads.max(1);
    let n_states = moves.n_states();
    let mut v: Vec<u32> = (0..n_states)
        .map(|s| if moves.is_normal(s) { 0 } else { INF })
        .collect();
    let mut v_next = v.clone();
    let mut worst = vec![INF; n_states];
    for _ in 0..n_states {
        reply_pass(moves, &v, &mut worst, threads);
        let (v_ref, worst_ref) = (&v, &worst);
        run_chunks(&mut v_next, threads, |start, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let s = start + i;
                *slot = if moves.is_normal(s) {
                    0
                } else {
                    let best = moves.successors(s).map(|t| worst_ref[t]).min();
                    v_ref[s].min(best.unwrap_or(INF).saturating_add(1))
                };
            }
        });
        let changed = v_next != v;
        std::mem::swap(&mut v, &mut v_next);
        if !changed {
            break;
        }
    }
    // Recompute the replies from the converged values for the policy.
    reply_pass(moves, &v, &mut worst, threads);
    (v, worst)
}

/// The dense report of values `v` (`INF` = unreachable) under the one
/// policy rule: from every non-normal state of finite value, move to the
/// first successor whose reply is one less. `replies` defaults to `v`,
/// which is the quiet analysis's reply.
fn report<M: MoveSource>(moves: &M, v: Vec<u32>, replies: Option<&[u32]>) -> MaintainabilityReport {
    let replies = replies.unwrap_or(&v);
    let next = (0..moves.n_states())
        .map(|s| {
            if moves.is_normal(s) || v[s] == INF {
                return NO_MOVE;
            }
            moves
                .successors(s)
                .find(|&t| replies[t] == v[s] - 1)
                .map_or(NO_MOVE, |t| t as u32)
        })
        .collect();
    MaintainabilityReport::new(Storage::Dense { levels: v, next })
}

/// The orbit report of an `n_bits`-bit space, from the orbit values `v`
/// and worst replies. The policy rule keeps every direction whose orbit
/// reaches the target `v − 1`, and [`Storage::next_state`] flips the
/// lowest such bit of each state, which is the dense path's "lowest
/// flipped bit" tie-break.
fn orbit_report(
    n_bits: usize,
    orbits: &Orbits,
    v: Vec<u32>,
    worst: &[u32],
) -> MaintainabilityReport {
    let dirs = (0..v.len())
        .map(|p| {
            if orbits.is_normal(p) || v[p] == INF {
                return 0;
            }
            orbits
                .successors(p)
                .filter(|&t| worst[t] == v[p] - 1)
                .fold(0, |dirs, t| dirs | if t < p { DOWN } else { UP })
        })
        .collect();
    MaintainabilityReport::new(Storage::Orbits {
        n_bits,
        levels: v,
        dirs,
    })
}

/// Dense successor word of a state with no move (normal or hopeless).
/// Successors are state indices, which every move source keeps below it.
const NO_MOVE: u32 = u32::MAX;

/// Orbit direction flags: a set-bit flip (to the orbit below) or a
/// clear-bit flip (to the orbit above) reaches the target.
const DOWN: u8 = 1;
const UP: u8 = 2;

/// The private storage of a [`MaintainabilityReport`]. Its words are
/// canonical: two storages of one kind answer alike iff they are equal.
#[derive(Debug, PartialEq)]
enum Storage {
    /// Per state: the engine's value (`INF` = unreachable) and the
    /// policy's successor (`NO_MOVE` = none).
    Dense { levels: Vec<u32>, next: Vec<u32> },
    /// Per popcount orbit `p` of an `n_bits`-bit space, answering for
    /// each of its `C(n_bits, p)` states: the level and the `DOWN` / `UP`
    /// directions whose orbit reaches the target.
    Orbits {
        n_bits: usize,
        levels: Vec<u32>,
        dirs: Vec<u8>,
    },
}

impl Storage {
    fn n_states(&self) -> usize {
        match self {
            Storage::Dense { levels, .. } => levels.len(),
            Storage::Orbits { n_bits, .. } => 1 << n_bits,
        }
    }

    /// The popcount orbit of `state`; panics past `n_bits` bits.
    fn orbit(n_bits: usize, state: usize) -> usize {
        assert!(state >> n_bits == 0, "state {state} is not {n_bits} bits");
        state.count_ones() as usize
    }

    fn level(&self, state: usize) -> Option<usize> {
        let level = match self {
            Storage::Dense { levels, .. } => levels[state],
            Storage::Orbits { n_bits, levels, .. } => levels[Self::orbit(*n_bits, state)],
        };
        (level != INF).then_some(level as usize)
    }

    fn next_state(&self, state: usize) -> Option<usize> {
        match self {
            Storage::Dense { next, .. } => (next[state] != NO_MOVE).then_some(next[state] as usize),
            Storage::Orbits { n_bits, dirs, .. } => {
                let dirs = dirs[Self::orbit(*n_bits, state)];
                let down = (dirs & DOWN != 0).then(|| state.trailing_zeros());
                let up = (dirs & UP != 0).then(|| (!state).trailing_zeros());
                down.into_iter()
                    .chain(up)
                    .min()
                    .map(|bit| state ^ (1 << bit))
            }
        }
    }

    /// Each stored level with the number of states it answers for.
    fn weighted_levels(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let (levels, n_bits) = match self {
            Storage::Dense { levels, .. } => (levels, None),
            Storage::Orbits { n_bits, levels, .. } => (levels, Some(*n_bits)),
        };
        let mut choose = 1u64;
        levels
            .iter()
            .enumerate()
            .map(move |(p, &level)| match n_bits {
                None => (level, 1),
                Some(n) => {
                    let states = choose;
                    // C(n, p + 1) = C(n, p) · (n − p) / (p + 1), exact in u128.
                    choose = (u128::from(choose) * (n - p) as u128 / (p as u128 + 1)) as u64;
                    (level, states)
                }
            })
    }
}

/// Result of a maintainability analysis: every state's level and the
/// repair policy's move from it.
///
/// A dense report stores a `u32` level and a `u32` successor per state.
/// An orbit report, built when the constraint is fully symmetric, stores
/// one level and two direction flags per popcount orbit and answers for
/// each state from its popcount. Every query below works on both, each
/// per-state one in O(1), and two reports are equal when every state's
/// level and next state agree, whatever their storage.
#[derive(Debug, Clone)]
pub struct MaintainabilityReport {
    #[doc(hidden)]
    pub levels: Levels,
    #[doc(hidden)]
    pub policy: Policy,
}

/// Views `refbench/src/verify.rs` reads by field name. They share the
/// report's storage and go once refbench reads the accessors.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Levels(Arc<Storage>);

impl Levels {
    /// Every state's level, in state order; panics past `2^24` states.
    pub fn iter(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        let n_states = self.0.n_states();
        assert!(
            n_states <= 1 << DENSE_BIT_LIMIT,
            "{n_states} states are too many to walk; read single states with level()"
        );
        (0..n_states).map(|s| self.0.level(s))
    }
}

/// See [`Levels`].
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Policy(Arc<Storage>);

impl Policy {
    /// [`MaintainabilityReport::next_state`].
    pub fn next_state(&self, state: usize) -> Option<usize> {
        self.0.next_state(state)
    }
}

impl PartialEq for MaintainabilityReport {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.storage(), other.storage());
        if std::mem::discriminant(a) == std::mem::discriminant(b) {
            return a == b;
        }
        a.n_states() == b.n_states()
            && (0..a.n_states())
                .all(|s| a.level(s) == b.level(s) && a.next_state(s) == b.next_state(s))
    }
}

impl MaintainabilityReport {
    fn new(storage: Storage) -> Self {
        let storage = Arc::new(storage);
        MaintainabilityReport {
            levels: Levels(Arc::clone(&storage)),
            policy: Policy(storage),
        }
    }

    fn storage(&self) -> &Storage {
        &self.policy.0
    }

    /// Number of states the report covers.
    pub fn n_states(&self) -> usize {
        self.storage().n_states()
    }

    /// Minimum controllable steps from `state` to a normal state, or
    /// `None` if normality is unreachable from it.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn level(&self, state: usize) -> Option<usize> {
        self.storage().level(state)
    }

    /// The successor the policy chooses in `state`, or `None` at normal
    /// and hopeless states.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn next_state(&self, state: usize) -> Option<usize> {
        self.storage().next_state(state)
    }

    /// Execute the policy from `state` for at most `budget` steps over
    /// `system`, returning the visited states (including the start).
    pub fn execute(&self, system: &TransitionSystem, state: usize, budget: usize) -> Vec<usize> {
        let mut path = vec![state];
        let mut cur = state;
        for _ in 0..budget {
            if system.is_normal(cur) {
                break;
            }
            match self.next_state(cur) {
                Some(next) => {
                    path.push(next);
                    cur = next;
                }
                None => break,
            }
        }
        path
    }

    /// The smallest `k` such that the system is k-maintainable, or `None`
    /// if some state can never reach normality.
    pub fn min_k(&self) -> Option<usize> {
        self.storage()
            .weighted_levels()
            .try_fold(0, |max, (level, _)| (level != INF).then(|| max.max(level)))
            .map(|max| max as usize)
    }

    /// Whether every state reaches a normal state within `k` controllable
    /// steps.
    pub fn is_k_maintainable(&self, k: usize) -> bool {
        matches!(self.min_k(), Some(m) if m <= k)
    }

    /// Number of states from which normality is unreachable.
    pub fn hopeless(&self) -> u64 {
        self.storage()
            .weighted_levels()
            .filter(|&(level, _)| level == INF)
            .map(|(_, states)| states)
            .sum()
    }

    /// Every hopeless state, ascending; panics past `2^24` states like
    /// [`Levels::iter`]. [`hopeless`](Self::hopeless) counts them.
    #[doc(hidden)]
    pub fn hopeless_states(&self) -> Vec<usize> {
        (self.levels.iter().enumerate())
            .filter_map(|(s, level)| level.is_none().then_some(s))
            .collect()
    }

    /// Number of states first reached at each BFS depth: element `d` is
    /// the size of the backward-search frontier at distance `d` from the
    /// normal set. Hopeless states are excluded, and the vector is empty
    /// when no state is normal. Derived from the levels, so it is
    /// identical however the analysis was scheduled or stored.
    pub fn frontier_sizes(&self) -> Vec<u64> {
        let mut sizes = Vec::new();
        for (level, states) in self.storage().weighted_levels() {
            if level == INF {
                continue;
            }
            let level = level as usize;
            if level >= sizes.len() {
                sizes.resize(level + 1, 0u64);
            }
            sizes[level] += states;
        }
        sizes
    }
}

impl TransitionSystem {
    /// Empty system with `n_states` states, no moves, no normal states.
    pub fn new(n_states: usize) -> Self {
        TransitionSystem {
            n_states,
            normal: vec![false; n_states],
            controllable: vec![Vec::new(); n_states],
            exogenous: vec![Vec::new(); n_states],
            csr: OnceLock::new(),
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.n_states
    }

    /// Whether the system has no states.
    pub fn is_empty(&self) -> bool {
        self.n_states == 0
    }

    /// Mark `state` as normal.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn mark_normal(&mut self, state: usize) {
        self.normal[state] = true;
    }

    /// Whether `state` is normal.
    pub fn is_normal(&self, state: usize) -> bool {
        self.normal[state]
    }

    /// Add a controllable (administrator) move `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_controllable(&mut self, from: usize, to: usize) {
        assert!(from < self.n_states && to < self.n_states);
        self.controllable[from].push(to);
        self.csr.take();
    }

    /// Add an exogenous (environment) move `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_exogenous(&mut self, from: usize, to: usize) {
        assert!(from < self.n_states && to < self.n_states);
        self.exogenous[from].push(to);
        self.csr.take();
    }

    /// Controllable successors of `state`.
    pub fn controllable_moves(&self, state: usize) -> &[usize] {
        &self.controllable[state]
    }

    /// Exogenous successors of `state`.
    pub fn exogenous_moves(&self, state: usize) -> &[usize] {
        &self.exogenous[state]
    }

    fn moves(&self) -> CsrMoves<'_> {
        CsrMoves {
            normal: &self.normal,
            csr: self
                .csr
                .get_or_init(|| Csr::build(&self.controllable, &self.exogenous)),
        }
    }

    /// Build the full `2^n`-state transition system of an `n`-bit DCSP:
    /// states are configurations (encoded as integers), controllable moves
    /// are single-bit flips, normal states are those satisfying `env`, and
    /// exogenous moves are all damages of up to `max_damage` bit flips from
    /// a *normal* state (shocks strike fit systems).
    ///
    /// # Panics
    ///
    /// Panics if `n_bits > 20` (the explicit state space would exceed ~1M
    /// states). Use [`analyze_bit_dcsp`] / [`analyze_bit_dcsp_adversarial`]
    /// for larger spaces.
    pub fn from_bit_dcsp(n_bits: usize, env: &dyn Constraint, max_damage: usize) -> Self {
        assert!(n_bits <= 20, "explicit construction limited to 20 bits");
        let n_states = 1usize << n_bits;
        let mut ts = TransitionSystem::new(n_states);
        let mut probe = Config::zeros(n_bits);
        for s in 0..n_states {
            probe.set_from_u64(s as u64);
            if env.is_fit(&probe) {
                ts.mark_normal(s);
            }
            for b in 0..n_bits {
                ts.add_controllable(s, s ^ (1 << b));
            }
        }
        // Exogenous damage: from each normal state, every ≤ max_damage
        // flip. Dedup via a bitset reset per source through the `touched`
        // list; discovery order (frontier order × bit order) is unchanged,
        // so the edge lists are identical to a naive linear-scan dedup.
        let mut seen = Config::zeros(n_states);
        let mut touched: Vec<usize> = Vec::new();
        let mut frontier: Vec<usize> = Vec::new();
        let mut next: Vec<usize> = Vec::new();
        for s in 0..n_states {
            if !ts.normal[s] {
                continue;
            }
            frontier.clear();
            frontier.push(s);
            seen.set(s);
            touched.push(s);
            for _ in 0..max_damage {
                next.clear();
                for &f in &frontier {
                    for b in 0..n_bits {
                        let t = f ^ (1 << b);
                        if !seen.get(t) {
                            seen.set(t);
                            touched.push(t);
                            next.push(t);
                            ts.add_exogenous(s, t);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            for &t in &touched {
                seen.clear(t);
            }
            touched.clear();
        }
        ts
    }

    /// The paper's K-maintainability: backward BFS from the normal states
    /// over reversed controllable edges, `O(states + edges)` — the
    /// polynomial-time construction the paper cites from Baral & Eiter.
    /// Runs over the cached CSR with bitset frontiers; the report is
    /// identical to [`TransitionSystem::analyze_reference`].
    pub fn analyze(&self) -> MaintainabilityReport {
        let moves = self.moves();
        let levels = bfs_levels(&moves);
        report(&moves, levels, None)
    }

    /// Reference implementation of [`TransitionSystem::analyze`], retained
    /// for differential testing: pointer-chasing `Vec<Vec<_>>` reverse
    /// adjacency built per call and a FIFO BFS. Produces an identical
    /// report to the CSR path.
    pub fn analyze_reference(&self) -> MaintainabilityReport {
        let mut levels = vec![INF; self.n_states];
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.n_states];
        for (from, tos) in self.controllable.iter().enumerate() {
            for &to in tos {
                rev[to].push(from);
            }
        }
        let mut queue = VecDeque::new();
        for (s, lvl) in levels.iter_mut().enumerate() {
            if self.normal[s] {
                *lvl = 0;
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            let next_level = levels[s] + 1;
            for &p in &rev[s] {
                if levels[p] == INF {
                    levels[p] = next_level;
                    queue.push_back(p);
                }
            }
        }
        report(&self.moves(), levels, None)
    }

    /// Adversarial maintainability: after each administrator action landing
    /// in `t`, the environment may take one exogenous move out of `t` (or
    /// stay). `levels[s]` is the worst-case number of administrator steps
    /// needed; computed by Jacobi value iteration on the min-max recurrence
    /// `V(s) = 1 + min_a max_{u ∈ {t_a} ∪ exo(t_a)} V(u)`, `V = 0` on
    /// normal states, with each sweep chunked over `threads` threads. The
    /// report is identical for any `threads` and to
    /// [`TransitionSystem::analyze_adversarial_reference`].
    pub fn analyze_adversarial(&self, threads: usize) -> MaintainabilityReport {
        let moves = self.moves();
        let (v, worst) = fixed_point(&moves, threads);
        report(&moves, v, Some(&worst))
    }

    /// Reference implementation of
    /// [`TransitionSystem::analyze_adversarial`], retained for differential
    /// testing: in-place Gauss-Seidel value iteration over the raw
    /// adjacency lists. Produces an identical report to the Jacobi path.
    pub fn analyze_adversarial_reference(&self) -> MaintainabilityReport {
        let mut v = vec![INF; self.n_states];
        for (s, value) in v.iter_mut().enumerate() {
            if self.normal[s] {
                *value = 0;
            }
        }
        // Value iteration: at most n_states sweeps are needed because
        // levels only take values in 0..n_states.
        for _ in 0..self.n_states {
            let mut changed = false;
            for s in 0..self.n_states {
                if self.normal[s] {
                    continue;
                }
                let mut best = INF;
                for &t in &self.controllable[s] {
                    // Worst case over the environment's reply.
                    let mut worst = v[t];
                    for &u in &self.exogenous[t] {
                        worst = worst.max(v[u]);
                    }
                    best = best.min(worst);
                }
                let candidate = if best == INF { INF } else { best + 1 };
                if candidate < v[s] {
                    v[s] = candidate;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let moves = self.moves();
        let mut worst = vec![INF; self.n_states];
        reply_pass(&moves, &v, &mut worst, 1);
        report(&moves, v, Some(&worst))
    }
}

/// Largest `n_bits` a dense report accepts: at `2^24` states its level
/// and successor arrays already take 128 MiB.
const DENSE_BIT_LIMIT: usize = 24;

/// Largest `n_bits` an orbit report accepts: its `2^n_bits` state count
/// must fit a `usize` (63 bits on 64-bit targets).
const ORBIT_BIT_LIMIT: usize = usize::BITS as usize - 1;

fn too_large(n_bits: usize, limit: usize) -> Result<(), CoreError> {
    if n_bits > limit {
        return Err(CoreError::StateSpaceTooLarge { n_bits, limit });
    }
    Ok(())
}

/// Whether `env` declares full variable symmetry over an `n_bits`-bit
/// state: one interchangeability class covering exactly `n_bits`
/// variables ([`Constraint::symmetry_classes`]). Fitness is then a
/// function of the popcount alone.
fn fully_symmetric(n_bits: usize, env: &dyn Constraint) -> bool {
    env.symmetry_classes()
        .is_some_and(|c| c.len() == n_bits && c.iter().all(|&x| x == c[0]))
}

/// K-maintainability of an `n`-bit DCSP without materializing the
/// transition system: states are configurations, controllable moves are
/// single-bit flips (involutions, so the backward BFS walks forward
/// neighbors), and normal states are those satisfying `env`. Produces a
/// report equal to
/// `TransitionSystem::from_bit_dcsp(n_bits, env, _).analyze()` while
/// scaling past `2^20` states (the quiet analysis ignores exogenous edges,
/// so no damage bound is taken). A fully symmetric `env` is solved on
/// its `n_bits + 1` popcount orbits (see the module doc).
///
/// # Panics
///
/// Panics past the size limits of [`try_analyze_bit_dcsp`], which
/// returns a typed error instead.
pub fn analyze_bit_dcsp(n_bits: usize, env: &dyn Constraint) -> MaintainabilityReport {
    match try_analyze_bit_dcsp(n_bits, env) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// [`analyze_bit_dcsp`] with the size limits surfaced as a typed error
/// ([`CoreError::StateSpaceTooLarge`]) instead of a panic.
///
/// # Errors
///
/// Returns [`CoreError::StateSpaceTooLarge`] when `n_bits` exceeds the
/// limit of the report it builds: 63 bits for an orbit report, 24 for a
/// dense one.
pub fn try_analyze_bit_dcsp(
    n_bits: usize,
    env: &dyn Constraint,
) -> Result<MaintainabilityReport, CoreError> {
    // An empty damage ball: the values are the quiet BFS distances.
    try_analyze_bit_dcsp_adversarial(n_bits, env, 0, 1)
}

/// Adversarial K-maintainability of an `n`-bit DCSP with on-the-fly move
/// generation: controllable moves are single-bit flips; from every
/// *normal* state the environment may damage up to `max_damage` bits (the
/// same shock model as [`TransitionSystem::from_bit_dcsp`]). The min-max
/// fixed point runs as thread-chunked Jacobi sweeps; output is identical
/// for any `threads` and equal to
/// `TransitionSystem::from_bit_dcsp(n_bits, env, max_damage)
///     .analyze_adversarial(threads)`. A fully symmetric `env` is solved on
/// its popcount orbits instead (`threads` is then unused).
///
/// # Panics
///
/// Panics past the size limits of [`try_analyze_bit_dcsp_adversarial`],
/// which returns a typed error instead.
pub fn analyze_bit_dcsp_adversarial(
    n_bits: usize,
    env: &dyn Constraint,
    max_damage: usize,
    threads: usize,
) -> MaintainabilityReport {
    match try_analyze_bit_dcsp_adversarial(n_bits, env, max_damage, threads) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// [`analyze_bit_dcsp_adversarial`] with the size limits surfaced as a
/// typed error instead of a panic.
///
/// # Errors
///
/// Returns [`CoreError::StateSpaceTooLarge`] when `n_bits` exceeds the
/// limit of the report it builds: 63 bits for an orbit report, 24 for a
/// dense one.
pub fn try_analyze_bit_dcsp_adversarial(
    n_bits: usize,
    env: &dyn Constraint,
    max_damage: usize,
    threads: usize,
) -> Result<MaintainabilityReport, CoreError> {
    if fully_symmetric(n_bits, env) {
        too_large(n_bits, ORBIT_BIT_LIMIT)?;
        let orbits = Orbits::new(n_bits, env, max_damage);
        let (v, worst) = fixed_point(&orbits, 1);
        return Ok(orbit_report(n_bits, &orbits, v, &worst));
    }
    too_large(n_bits, DENSE_BIT_LIMIT)?;
    let moves = BitFlips::new(n_bits, env, max_damage);
    if max_damage == 0 {
        let levels = bfs_levels(&moves);
        return Ok(report(&moves, levels, None));
    }
    let (v, worst) = fixed_point(&moves, threads);
    Ok(report(&moves, v, Some(&worst)))
}

/// Collect every non-zero damage mask of popcount ≤ `max_damage` over
/// `n_bits` bits (ascending-bit DFS; order is irrelevant downstream —
/// only the max over the whole ball is taken).
fn damage_masks(n_bits: usize, max_damage: usize, from: usize, cur: usize, out: &mut Vec<usize>) {
    if max_damage == 0 {
        return;
    }
    for b in from..n_bits {
        let m = cur | (1 << b);
        out.push(m);
        damage_masks(n_bits, max_damage - 1, b + 1, m, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use resilience_core::{seeded_rng, AllOnes, AtLeastOnes, ExplicitSet, PredicateConstraint};

    /// A 4-state chain: 3 → 2 → 1 → 0(normal), controllable steps.
    fn chain() -> TransitionSystem {
        let mut ts = TransitionSystem::new(4);
        ts.mark_normal(0);
        ts.add_controllable(1, 0);
        ts.add_controllable(2, 1);
        ts.add_controllable(3, 2);
        ts
    }

    #[test]
    fn chain_levels_and_policy() {
        let report = chain().analyze();
        let levels: Vec<_> = (0..4).map(|s| report.level(s)).collect();
        assert_eq!(levels, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(report.min_k(), Some(3));
        assert!(report.is_k_maintainable(3));
        assert!(!report.is_k_maintainable(2));
        assert_eq!(report.next_state(3), Some(2));
        assert_eq!(report.next_state(0), None);
        let ts = chain();
        assert_eq!(report.execute(&ts, 3, 10), vec![3, 2, 1, 0]);
    }

    #[test]
    fn unreachable_state_blocks_maintainability() {
        let mut ts = chain();
        // Add an isolated state 4? n_states fixed at 4; rebuild with 5.
        let mut ts5 = TransitionSystem::new(5);
        ts5.mark_normal(0);
        ts5.add_controllable(1, 0);
        // State 2,3,4 have no moves.
        ts5.add_controllable(3, 4);
        let report = ts5.analyze();
        assert_eq!(report.min_k(), None);
        let hopeless: Vec<usize> = (0..5).filter(|&s| report.level(s).is_none()).collect();
        assert_eq!(hopeless, vec![2, 3, 4]);
        assert_eq!(report.hopeless(), 3);
        assert!(!report.is_k_maintainable(100));
        // The original chain has no hopeless states.
        assert_eq!(chain().analyze().hopeless(), 0);
        ts.add_exogenous(0, 3); // exogenous moves don't affect plain analysis
        assert_eq!(ts.analyze().min_k(), Some(3));
    }

    #[test]
    fn policy_chooses_shortest_route() {
        // Diamond: 3 →{1,2}, 1→0, 2→0, and a long detour 3→4→...→0.
        let mut ts = TransitionSystem::new(5);
        ts.mark_normal(0);
        ts.add_controllable(3, 4);
        ts.add_controllable(4, 1);
        ts.add_controllable(3, 1);
        ts.add_controllable(1, 0);
        ts.add_controllable(2, 0);
        let report = ts.analyze();
        assert_eq!(report.level(3), Some(2));
        // Policy from 3 must go via 1 (level 1), not 4 (level 2).
        assert_eq!(report.next_state(3), Some(1));
    }

    #[test]
    fn bit_dcsp_min_k_equals_max_damage_for_all_ones() {
        // The spacecraft: from 1^n, ≤ d failures, one repair per step.
        // Every state with z zeros is z steps from normal, so the worst
        // reachable state after a shock is d away — but analyze() covers
        // ALL states, whose worst is n. Restrict to the shocked set by
        // checking the level of each exogenous successor of the normal
        // state.
        let n = 6;
        let d = 2;
        let env = AllOnes::new(n);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, d);
        let report = ts.analyze();
        let normal = (1usize << n) - 1; // all ones encoded
        assert!(ts.is_normal(normal));
        let worst = ts
            .exogenous_moves(normal)
            .iter()
            .map(|&s| report.level(s).unwrap())
            .max()
            .unwrap();
        assert_eq!(worst, d);
        // Global min_k is n (the all-zeros state).
        assert_eq!(report.min_k(), Some(n));
    }

    #[test]
    fn bit_dcsp_tolerant_constraint_shrinks_levels() {
        let n = 6;
        let env = AtLeastOnes::new(n, 4);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, 2);
        let report = ts.analyze();
        // All-zeros needs exactly 4 set bits.
        assert_eq!(report.level(0), Some(4));
        assert_eq!(report.min_k(), Some(4));
    }

    #[test]
    fn adversarial_is_at_least_plain() {
        let n = 5;
        let env = AtLeastOnes::new(n, 3);
        let ts = TransitionSystem::from_bit_dcsp(n, &env, 1);
        let plain = ts.analyze();
        let adv = ts.analyze_adversarial(1);
        for s in 0..ts.len() {
            match (plain.level(s), adv.level(s)) {
                (Some(p), Some(a)) => assert!(a >= p, "state {s}: adv {a} < plain {p}"),
                (None, Some(_)) => panic!("adversarial easier than plain at {s}"),
                _ => {}
            }
        }
    }

    #[test]
    fn adversarial_with_hostile_environment_can_be_unwinnable() {
        // 0 normal; 1 →ctrl 0 but exo(0) = {1}: the environment undoes
        // every repair, so adversarially the system never stabilizes…
        // Actually V(1) = 1 + max(V(0), V(1-after-exo)): the exo move out
        // of the *target* 0 goes back to 1, so V(1) = 1 + max(0, V(1)) ⇒
        // unbounded ⇒ None.
        let mut ts = TransitionSystem::new(2);
        ts.mark_normal(0);
        ts.add_controllable(1, 0);
        ts.add_exogenous(0, 1);
        let adv = ts.analyze_adversarial(1);
        assert_eq!(adv.level(1), None);
        // Plain analysis (quiet environment) says 1 step.
        assert_eq!(ts.analyze().level(1), Some(1));
    }

    #[test]
    fn adversarial_quiet_environment_matches_plain() {
        let ts = chain();
        let plain = ts.analyze();
        let adv = ts.analyze_adversarial(1);
        for s in 0..ts.len() {
            assert_eq!(plain.level(s), adv.level(s), "state {s}");
        }
    }

    #[test]
    #[should_panic(expected = "20 bits")]
    fn from_bit_dcsp_rejects_huge_spaces() {
        let env = AllOnes::new(25);
        let _ = TransitionSystem::from_bit_dcsp(25, &env, 1);
    }

    #[test]
    fn empty_system() {
        let ts = TransitionSystem::new(0);
        assert!(ts.is_empty());
        let report = ts.analyze();
        assert_eq!(report.min_k(), Some(0));
        assert_eq!(ts.analyze_adversarial(1).min_k(), Some(0));
    }

    /// Seeded random system: sparse normal set, random controllable and
    /// exogenous edges (duplicates and self-loops allowed on purpose).
    fn random_system(seed: u64, n: usize) -> TransitionSystem {
        let mut rng = seeded_rng(seed);
        let mut ts = TransitionSystem::new(n);
        for s in 0..n {
            if rng.gen_bool(0.2) {
                ts.mark_normal(s);
            }
        }
        for _ in 0..n * 3 {
            ts.add_controllable(rng.gen_range(0..n), rng.gen_range(0..n));
            if rng.gen_bool(0.5) {
                ts.add_exogenous(rng.gen_range(0..n), rng.gen_range(0..n));
            }
        }
        ts
    }

    #[test]
    fn csr_analyze_matches_reference_on_random_systems() {
        for seed in 0..20 {
            let ts = random_system(seed, 30 + (seed as usize % 17));
            assert_eq!(ts.analyze(), ts.analyze_reference(), "seed {seed}");
        }
    }

    #[test]
    fn adversarial_matches_reference_and_is_thread_invariant() {
        for seed in 0..12 {
            let ts = random_system(100 + seed, 40);
            let new = ts.analyze_adversarial(1);
            assert_eq!(new, ts.analyze_adversarial_reference(), "seed {seed}");
            for threads in [2, 4, 7] {
                assert_eq!(
                    new,
                    ts.analyze_adversarial(threads),
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn edge_mutation_invalidates_cached_csr() {
        let mut ts = TransitionSystem::new(3);
        ts.mark_normal(0);
        assert_eq!(ts.analyze().level(2), None);
        ts.add_controllable(2, 0);
        let after = ts.analyze();
        assert_eq!(after.level(2), Some(1));
        assert_eq!(after.next_state(2), Some(0));
        // The environment undoing the repair flips the adversarial answer.
        assert_eq!(ts.analyze_adversarial(1).level(2), Some(1));
        ts.add_exogenous(0, 2);
        assert_eq!(ts.analyze_adversarial(1).level(2), None);
    }

    #[test]
    fn implicit_bit_dcsp_matches_explicit() {
        for (n, need, d) in [(5, 3, 1), (6, 4, 2), (4, 4, 2)] {
            let env = AtLeastOnes::new(n, need);
            let ts = TransitionSystem::from_bit_dcsp(n, &env, d);
            assert_eq!(
                analyze_bit_dcsp(n, &env),
                ts.analyze(),
                "plain n={n} need={need}"
            );
            let adv = ts.analyze_adversarial(1);
            assert_eq!(
                analyze_bit_dcsp_adversarial(n, &env, d, 1),
                adv,
                "adversarial n={n} need={need} d={d}"
            );
            assert_eq!(
                analyze_bit_dcsp_adversarial(n, &env, d, 4),
                adv,
                "threaded adversarial n={n} need={need} d={d}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "2^24")]
    fn implicit_rejects_huge_spaces() {
        let _ = analyze_bit_dcsp(30, &at_least_twin(20));
    }

    #[test]
    fn oversized_dense_requests_yield_typed_errors() {
        let env = at_least_twin(20);
        let err = try_analyze_bit_dcsp(30, &env).expect_err("over the dense limit");
        assert!(matches!(
            err,
            CoreError::StateSpaceTooLarge {
                n_bits: 30,
                limit: 24
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("2^30") && msg.contains("2^24"), "{msg}");
        assert!(try_analyze_bit_dcsp_adversarial(27, &env, 1, 2).is_err());
        // In-range requests succeed through the fallible entry points.
        let small = AtLeastOnes::new(8, 5);
        assert_eq!(
            try_analyze_bit_dcsp(8, &small).expect("in range"),
            analyze_bit_dcsp(8, &small)
        );
    }

    /// "At least `need` ones" with no declared symmetry, so it takes the
    /// dense path.
    fn at_least_twin(need: usize) -> PredicateConstraint {
        PredicateConstraint::new("at-least", move |c: &Config| c.count_ones() >= need)
    }

    #[test]
    fn empty_normal_set_is_all_hopeless() {
        // Single-bit flips reach every state, so hopeless states require
        // an empty normal set.
        let never = ExplicitSet::new(Vec::<Config>::new());
        let report = try_analyze_bit_dcsp(6, &never).expect("in range");
        assert_eq!(report.hopeless(), 64);
        assert_eq!(report.min_k(), None);
        assert!(!report.is_k_maintainable(100));
        assert!(report.frontier_sizes().is_empty());
    }

    #[test]
    fn orbit_reports_reject_oversized_widths() {
        // Zero bits: one state, normal iff the empty configuration fits.
        let report = try_analyze_bit_dcsp(0, &AllOnes::new(0)).expect("one state");
        assert_eq!((report.frontier_sizes(), report.hopeless()), (vec![1], 0));
        let adv = try_analyze_bit_dcsp_adversarial(0, &at_least_twin(1), 2, 1).expect("one state");
        assert_eq!((adv.frontier_sizes(), adv.hopeless()), (vec![], 1));
        // Orbits reach 63 bits; 2^64 states do not fit the count.
        let top = try_analyze_bit_dcsp(63, &AtLeastOnes::new(63, 60)).expect("orbits");
        assert_eq!(top.n_states(), 1 << 63);
        assert_eq!(
            top.frontier_sizes().iter().sum::<u64>() + top.hopeless(),
            1 << 63
        );
        let err = try_analyze_bit_dcsp(64, &AllOnes::new(64)).expect_err("2^64");
        assert!(matches!(
            err,
            CoreError::StateSpaceTooLarge {
                n_bits: 64,
                limit: 63
            }
        ));
        // Without a declared symmetry the dense limit applies.
        let err =
            try_analyze_bit_dcsp_adversarial(25, &at_least_twin(20), 1, 1).expect_err("dense path");
        assert!(matches!(
            err,
            CoreError::StateSpaceTooLarge {
                n_bits: 25,
                limit: 24
            }
        ));
    }

    #[test]
    fn refbench_views_answer_like_the_accessors() {
        let orbit = analyze_bit_dcsp_adversarial(8, &AtLeastOnes::new(8, 5), 2, 1);
        let dense = analyze_bit_dcsp_adversarial(8, &at_least_twin(5), 2, 1);
        let hopeless = analyze_bit_dcsp(6, &ExplicitSet::new(Vec::<Config>::new()));
        for report in [orbit, dense, hopeless] {
            let levels: Vec<Option<usize>> = report.levels.iter().collect();
            assert_eq!(levels.len(), report.n_states());
            for (s, level) in levels.into_iter().enumerate() {
                assert_eq!(level, report.level(s));
                assert_eq!(report.policy.next_state(s), report.next_state(s));
            }
            assert_eq!(report.hopeless_states().len() as u64, report.hopeless());
        }
    }

    #[test]
    #[should_panic(expected = "too many to walk")]
    fn refbench_views_refuse_wide_reports() {
        analyze_bit_dcsp(40, &AtLeastOnes::new(40, 30)).hopeless_states();
    }
}
