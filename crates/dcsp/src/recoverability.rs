//! *k*-recoverability (the paper's §4.2).
//!
//! "If the system can fix its configuration for any perturbations of type D
//! within k-steps, we call the system k-recoverable."
//!
//! The checkers:
//!
//! * [`is_k_recoverable_exhaustive`] — exact enumeration of *every*
//!   perturbation of at most `max_damage` bit flips, accelerated by a
//!   transposition cache over repair outcomes and allocation-free
//!   incremental damage enumeration (see the verification-engine section
//!   of DESIGN.md). Falls back to the plain sequential walk for
//!   non-deterministic strategies.
//! * [`is_k_recoverable_exhaustive_parallel`] — the same check fanned out
//!   over a [`RunContext`]'s thread budget: the damage-pattern space is
//!   split into contiguous *rank ranges* by combinatorial unranking, each
//!   range is verified independently, and the partial reports are folded
//!   in rank order — so the report (including the counterexample, which
//!   is always the lowest-ranked failure) is bit-identical for any thread
//!   count. [`is_k_recoverable_exhaustive_parallel_stats`] adds the
//!   [`VerifyStats`] of a fixed, thread-independent partition.
//! * [`is_k_recoverable_symmetric`] — orbit-reduced verification for
//!   environments declaring variable automorphisms
//!   (`Constraint::symmetry_classes`): one repair walk per damage *orbit*
//!   instead of one per damage pattern, with counts multiplied by orbit
//!   size, returned with its [`VerifyStats`]. Breaks the
//!   Σs·C(n,s)/ΣC(n,s) ceiling of the memoized engine because whole
//!   orbits cost a single check. Reports (including the counterexample,
//!   reconstructed as the preorder-minimal member of the lowest-ranked
//!   failing orbit) are bit-identical to the unreduced engine; see
//!   `tests/symmetry_equivalence.rs`.
//! * [`is_k_recoverable_auto`] — routes to the orbit-reduced checker when
//!   sound, else to the parallel exhaustive engine.
//! * [`sampled_recoverability`] — Monte-Carlo estimate for systems too
//!   large to enumerate.
//!
//! The rank-range walk and the orbit walk fold one partial-report type,
//! which keeps the preorder-minimal counterexample (preorder is rank
//! order).
//!
//! [`recoverability_reference`] retains the original clone-per-case
//! recursive checker as the oracle the optimized engine is proven
//! against (see `tests/verification_equivalence.rs`).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

use rand::Rng;

use resilience_core::{Config, Constraint, RunContext, ShockKind};

use crate::repair::RepairStrategy;
use crate::symmetry::{preorder_cmp, DamageOrbit, SymmetryClasses};

/// Verdict of a recoverability analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverabilityReport {
    /// The step bound `k` checked against.
    pub k: usize,
    /// Number of perturbations examined.
    pub cases: usize,
    /// Number of perturbations repaired within `k` steps.
    pub recovered_within_k: usize,
    /// Worst repair length observed (including failures counted at their
    /// step budget).
    pub worst_steps: usize,
    /// A witness perturbation that broke the bound, if any (damaged bits).
    pub counterexample: Option<Vec<usize>>,
}

impl RecoverabilityReport {
    /// Whether every examined perturbation recovered within `k`.
    pub fn is_k_recoverable(&self) -> bool {
        self.cases == self.recovered_within_k
    }

    /// Fraction of cases recovered within `k` (1.0 if no cases).
    pub fn recovery_rate(&self) -> f64 {
        if self.cases == 0 {
            1.0
        } else {
            self.recovered_within_k as f64 / self.cases as f64
        }
    }

    fn empty(k: usize) -> Self {
        RecoverabilityReport {
            k,
            cases: 0,
            recovered_within_k: 0,
            worst_steps: 0,
            counterexample: None,
        }
    }
}

/// Exhaustively check k-recoverability of `start` under `env` against all
/// damage patterns of 1..=`max_damage` bit flips, repairing with
/// `strategy` (one flip per step, the paper's repair model).
///
/// The paper's side condition is honored: "once the spacecraft has
/// component failures at time t, it will not have another component failure
/// until time t + k" — i.e. repair runs shock-free.
///
/// For deterministic strategies (see
/// [`RepairStrategy::is_deterministic`]) the check runs on the memoized
/// engine; the report is identical to [`recoverability_reference`], just
/// faster. Non-deterministic strategies use the reference walk directly.
///
/// # Panics
///
/// Panics if `start` does not satisfy `env` (recoverability is defined
/// from a fit configuration).
pub fn is_k_recoverable_exhaustive<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
) -> RecoverabilityReport {
    assert!(
        env.is_fit(start),
        "k-recoverability is checked from a fit configuration"
    );
    if !strategy.is_deterministic() {
        return reference_inner(start, env, strategy, max_damage, k);
    }
    rank_walk(start, env, strategy, max_damage, k, &RunContext::new(0), 1).0
}

/// [`is_k_recoverable_exhaustive`] on `ctx`'s thread budget: the rank
/// space of damage patterns is partitioned into contiguous chunks, chunks
/// are verified on worker threads, and the partial reports are folded in
/// rank order. The output is bit-identical to the sequential check for
/// every thread count (each case's verdict is exact, sums and maxima are
/// order-free, and the surviving counterexample is the lowest-ranked
/// failure under any partition).
///
/// Non-deterministic strategies cannot be checked out of order (their
/// proposals depend on global call order), so they fall back to the
/// sequential [`recoverability_reference`] walk regardless of `ctx`.
///
/// # Panics
///
/// Panics if `start` does not satisfy `env`.
pub fn is_k_recoverable_exhaustive_parallel<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
    ctx: &RunContext,
) -> RecoverabilityReport {
    assert!(
        env.is_fit(start),
        "k-recoverability is checked from a fit configuration"
    );
    if !strategy.is_deterministic() {
        return reference_inner(start, env, strategy, max_damage, k);
    }
    // Aim for several chunks per worker so uneven repair costs still
    // load-balance; chunk boundaries never affect the folded report.
    let chunks = ctx.threads() as u64 * 8;
    rank_walk(start, env, strategy, max_damage, k, ctx, chunks).0
}

/// [`is_k_recoverable_exhaustive_parallel`] with telemetry. Unlike the
/// plain parallel checker — whose chunk boundaries adapt to
/// `ctx.threads()` for load balance — this variant partitions the rank
/// space into a **fixed** number of chunks independent of the thread
/// budget. The transposition cache is per-range, so cache hit/miss
/// counts are a pure function of the partition; pinning the partition
/// makes the returned [`VerifyStats`] (and any telemetry derived from
/// it) bit-identical for any `--threads` value, at a small
/// load-balancing cost. The report itself is bit-identical to both
/// other exhaustive checkers regardless.
///
/// # Panics
///
/// Panics if `start` does not satisfy `env`, or if `strategy` is not
/// deterministic (stats are defined over the memoized engine only —
/// non-deterministic strategies never touch the cache).
pub fn is_k_recoverable_exhaustive_parallel_stats<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
    ctx: &RunContext,
) -> (RecoverabilityReport, VerifyStats) {
    assert!(
        env.is_fit(start),
        "k-recoverability is checked from a fit configuration"
    );
    assert!(
        strategy.is_deterministic(),
        "verification stats require a deterministic strategy"
    );
    // Fixed 64-way partition: thread-count-independent stats (see the
    // type-level docs). 64 chunks still load-balance well past the
    // machine sizes the harness targets.
    rank_walk(start, env, strategy, max_damage, k, ctx, 64)
}

/// Check every damage pattern of `1..=max_damage` flips with the
/// rank-range walk: the rank space is cut into about `chunks` contiguous
/// ranges, checked on `ctx`'s workers and folded in rank order.
fn rank_walk<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
    ctx: &RunContext,
    chunks: u64,
) -> (RecoverabilityReport, VerifyStats) {
    let n = start.len();
    let counts = SubsetCounts::new(n, max_damage.min(n));
    let total = counts.total_nonempty();
    ctx.run_ranges(
        total,
        (total / chunks).clamp(1, total.max(1)),
        |r| check_rank_range(r, start, env, strategy, k, &counts),
        Partial::default(),
        Partial::merge,
    )
    .finish(k)
}

/// Orbit-reduced k-recoverability: when `env` declares variable
/// automorphisms ([`Constraint::symmetry_classes`]) that fix `start`,
/// damage patterns partition into orbits sharing one verdict, so the
/// checker walks **one representative per orbit** and multiplies by the
/// orbit size. For the paper's fully symmetric spacecraft instances the
/// Σ_s C(n,s) cases collapse to `max_damage` representative walks.
///
/// Returns `None` — make no claim, caller falls back to the exhaustive
/// engine — when the reduction is unsound: no declared symmetry, `start`
/// not constant on some class, or a strategy that is non-deterministic
/// or whose step count is not an orbit invariant
/// ([`RepairStrategy::is_symmetry_invariant`]). It also returns `None`
/// when the damage-pattern count does not fit `u64`
/// ([`SymmetryClasses::damage_orbits`]) or `usize`; the exhaustive
/// engine then rejects the instance.
///
/// The report is bit-identical to the unreduced engine for any thread
/// budget: counts and maxima aggregate orbit-wise, and the
/// counterexample is the preorder-minimal member of the lowest-ranked
/// failing orbit — exactly the witness the forward-enumerating reference
/// keeps.
///
/// The returned [`VerifyStats`] counts the representative walks' cache
/// traffic plus `orbit_hits` — the damage cases settled by orbit
/// multiplication without a walk of their own. Each orbit is checked in
/// its own rank range with its own transposition cache, so the stats are
/// a pure function of the orbit list and bit-identical for any thread
/// budget.
///
/// # Panics
///
/// Panics if `start` does not satisfy `env`.
pub fn is_k_recoverable_symmetric<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
    ctx: &RunContext,
) -> Option<(RecoverabilityReport, VerifyStats)> {
    assert!(
        env.is_fit(start),
        "k-recoverability is checked from a fit configuration"
    );
    if !strategy.is_deterministic() || !strategy.is_symmetry_invariant() {
        return None;
    }
    let classes = SymmetryClasses::detect(env, start)?;
    let n = start.len();
    let max_damage = max_damage.min(n);
    let orbits = classes.damage_orbits(max_damage)?;
    usize::try_from(orbits.iter().map(|o| o.size).sum::<u64>()).ok()?;
    // The orbit sizes must partition the unreduced case count exactly —
    // this is what licenses reporting `cases` without enumerating them.
    debug_assert_eq!(
        orbits.iter().map(|o| o.size).sum::<u64>(),
        SubsetCounts::new(n, max_damage).total_nonempty()
    );
    // One orbit per rank range: per-orbit caches make the stats a pure
    // function of the orbit list (thread-invariant), and representative
    // walks are cheap enough that cross-orbit sharing buys nothing.
    let partial = ctx.run_ranges(
        orbits.len() as u64,
        1,
        // The ranges split `0..orbits.len()`, so their bounds fit `usize`.
        |r| {
            check_orbits(
                &orbits[r.start as usize..r.end as usize],
                start,
                env,
                strategy,
                k,
            )
        },
        Partial::default(),
        Partial::merge,
    );
    Some(partial.finish(k))
}

/// Route to the fastest sound checker: orbit-reduced when the constraint
/// declares symmetry the strategy respects, else the parallel exhaustive
/// engine. The report is identical either way.
///
/// # Panics
///
/// Panics if `start` does not satisfy `env`.
pub fn is_k_recoverable_auto<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
    ctx: &RunContext,
) -> RecoverabilityReport {
    match is_k_recoverable_symmetric(start, env, strategy, max_damage, k, ctx) {
        Some((report, _)) => report,
        None => is_k_recoverable_exhaustive_parallel(start, env, strategy, max_damage, k, ctx),
    }
}

/// Verify the representatives of `orbits`.
fn check_orbits<S: RepairStrategy + ?Sized>(
    orbits: &[DamageOrbit],
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    k: usize,
) -> Partial {
    let mut partial = Partial::default();
    if orbits.is_empty() {
        return partial;
    }
    let mut memo = Memo::for_len(start.len());
    let mut damaged = start.clone();
    let mut scratch = start.clone();
    let mut path: Vec<MemoKey> = Vec::with_capacity(k + 2);
    for orbit in orbits {
        for &b in &orbit.representative {
            damaged.flip(b);
        }
        let verdict = eval_case(
            &damaged,
            env,
            strategy,
            k,
            &mut memo,
            &mut scratch,
            &mut path,
            &mut partial.stats,
        );
        for &b in &orbit.representative {
            damaged.flip(b);
        }
        partial.stats.orbit_hits += orbit.size - 1;
        partial.record(verdict, k, orbit.size, &orbit.representative);
    }
    partial
}

/// The original unmemoized sequential checker, retained verbatim as the
/// reference oracle for the optimized engine: recursive subset
/// enumeration, one `Config` clone per case, one full repair walk per
/// case. Reports are identical to [`is_k_recoverable_exhaustive`]; only
/// the running time differs.
///
/// # Panics
///
/// Panics if `start` does not satisfy `env`.
pub fn recoverability_reference<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
) -> RecoverabilityReport {
    assert!(
        env.is_fit(start),
        "k-recoverability is checked from a fit configuration"
    );
    reference_inner(start, env, strategy, max_damage, k)
}

fn reference_inner<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
) -> RecoverabilityReport {
    let n = start.len();
    let max_damage = max_damage.min(n);
    let mut report = RecoverabilityReport::empty(k);
    let mut subset: Vec<usize> = Vec::new();
    enumerate_subsets(n, max_damage, 0, &mut subset, &mut |damage: &[usize]| {
        let mut state = start.clone();
        for &b in damage {
            state.flip(b);
        }
        let steps = run_repair(&mut state, env, strategy, k);
        report.cases += 1;
        match steps {
            Some(s) => {
                report.recovered_within_k += 1;
                report.worst_steps = report.worst_steps.max(s);
            }
            None => {
                report.worst_steps = report.worst_steps.max(k);
                if report.counterexample.is_none() {
                    report.counterexample = Some(damage.to_vec());
                }
            }
        }
    });
    report
}

/// Monte-Carlo recoverability estimate: strike `trials` shocks of `kind`
/// against `start` and repair each within `k` steps.
///
/// # Panics
///
/// Panics if `start` does not satisfy `env`.
pub fn sampled_recoverability<S: RepairStrategy + ?Sized, R: Rng + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    kind: &ShockKind,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> RecoverabilityReport {
    assert!(
        env.is_fit(start),
        "k-recoverability is checked from a fit configuration"
    );
    let mut report = RecoverabilityReport::empty(k);
    for _ in 0..trials {
        let mut state = start.clone();
        let shock = kind.strike(&mut state, rng);
        report.cases += 1;
        match run_repair(&mut state, env, strategy, k) {
            Some(s) => {
                report.recovered_within_k += 1;
                report.worst_steps = report.worst_steps.max(s);
            }
            None => {
                report.worst_steps = report.worst_steps.max(k);
                if report.counterexample.is_none() {
                    report.counterexample = Some(shock.flipped_bits.clone());
                }
            }
        }
    }
    report
}

/// Run the repair loop for at most `k` flips; `Some(steps)` if fitness was
/// regained, `None` otherwise.
fn run_repair<S: RepairStrategy + ?Sized>(
    state: &mut Config,
    env: &dyn Constraint,
    strategy: &S,
    k: usize,
) -> Option<usize> {
    let mut steps = 0;
    while !env.is_fit(state) {
        if steps >= k {
            return None;
        }
        match strategy.propose_flip(state, env) {
            Some(bit) => {
                state.flip(bit);
                steps += 1;
            }
            None => return None,
        }
    }
    Some(steps)
}

/// Visit every non-empty subset of `{0..n}` of size ≤ `max_size`, in
/// DFS preorder (each subset before its extensions, extensions in
/// ascending next-element order). This order defines the *rank* of a
/// damage pattern used by the unranking engine below.
fn enumerate_subsets<F: FnMut(&[usize])>(
    n: usize,
    max_size: usize,
    start: usize,
    current: &mut Vec<usize>,
    visit: &mut F,
) {
    if !current.is_empty() {
        visit(current);
    }
    if current.len() == max_size {
        return;
    }
    for i in start..n {
        current.push(i);
        enumerate_subsets(n, max_size, i + 1, current, visit);
        current.pop();
    }
}

// ---------------------------------------------------------------------------
// The verification engine: combinatorial unranking + transposition cache.
// ---------------------------------------------------------------------------

/// Sentinel for "repair distance exceeds `k` (or the strategy is stuck)".
const UNRECOVERABLE: u32 = u32::MAX;

/// Configurations this small get a direct-mapped `Vec<u32>` transposition
/// table (2^n entries); larger ones use a `HashMap`.
const DIRECT_TABLE_BITS: usize = 20;

/// Subset-count table: `upto[m][c]` = number of subsets of size ≤ `c`
/// drawn from `m` elements (including the empty subset). This is exactly
/// the size of the enumeration subtree rooted at a node with `m`
/// remaining candidate elements and `c` remaining size budget, which is
/// what unranking needs.
struct SubsetCounts {
    n: usize,
    max_size: usize,
    /// `upto[m * (max_size + 1) + c]`, m in `0..=n`, c in `0..=max_size`.
    upto: Vec<u64>,
}

impl SubsetCounts {
    fn new(n: usize, max_size: usize) -> Self {
        let width = max_size + 1;
        let mut upto = vec![0u64; (n + 1) * width];
        for m in 0..=n {
            upto[m * width] = 1; // only the empty subset at budget 0
        }
        for slot in upto.iter_mut().take(width) {
            *slot = 1; // no elements left: only the empty subset
        }
        for m in 1..=n {
            for c in 1..=max_size {
                // Exclude the first remaining element, or include it.
                let excl = upto[(m - 1) * width + c];
                let incl = upto[(m - 1) * width + c - 1];
                upto[m * width + c] = excl.saturating_add(incl);
            }
        }
        let counts = SubsetCounts { n, max_size, upto };
        // Below u64::MAX the rank arithmetic cannot saturate; within
        // usize the report's case counts are exact.
        let total = counts.upto(n, max_size);
        assert!(
            total < u64::MAX && usize::try_from(total).is_ok(),
            "damage-pattern space exceeds the u64 rank space"
        );
        counts
    }

    /// Subsets of size ≤ `c` from `m` elements, including the empty one.
    fn upto(&self, m: usize, c: usize) -> u64 {
        self.upto[m * (self.max_size + 1) + c]
    }

    /// Number of non-empty subsets of `{0..n}` of size ≤ `max_size` —
    /// the total case count of the exhaustive check.
    fn total_nonempty(&self) -> u64 {
        self.upto(self.n, self.max_size) - 1
    }

    /// Size of the enumeration subtree rooted at a node whose last chosen
    /// element is `j` at depth `depth` (the node itself plus all of its
    /// extensions).
    fn subtree(&self, j: usize, depth: usize) -> u64 {
        self.upto(self.n - 1 - j, self.max_size - depth)
    }

    /// Materialize the subset of preorder rank `rank` (0-based over
    /// non-empty subsets) into `subset`, flipping each chosen bit into
    /// `damaged` as it is appended.
    fn unrank_into(&self, rank: u64, subset: &mut Vec<usize>, damaged: &mut Config) {
        debug_assert!(rank < self.total_nonempty());
        subset.clear();
        let mut r = rank;
        let mut start = 0;
        loop {
            let depth = subset.len();
            debug_assert!(depth < self.max_size);
            for j in start.. {
                debug_assert!(j < self.n);
                let t = self.subtree(j, depth + 1);
                if r < t {
                    subset.push(j);
                    damaged.flip(j);
                    if r == 0 {
                        return;
                    }
                    r -= 1; // skip the node itself; descend into its extensions
                    start = j + 1;
                    break;
                }
                r -= t;
            }
        }
    }

    /// Step `subset` to its preorder predecessor, mirroring the flips into
    /// `damaged`. The caller guarantees the subset has rank ≥ 1; the empty
    /// subset, which has no rank, is left as it is.
    fn predecessor(&self, subset: &mut Vec<usize>, damaged: &mut Config) {
        debug_assert!(!subset.is_empty(), "the empty subset has no rank");
        let Some(&last) = subset.last() else {
            return;
        };
        let prev_plus_one = subset.len().checked_sub(2).map_or(0, |i| subset[i] + 1);
        if last == prev_plus_one {
            // First child of its parent: the predecessor is the parent.
            subset.pop();
            damaged.flip(last);
            debug_assert!(!subset.is_empty(), "rank 0 has no predecessor");
        } else {
            // Last (deepest, rightmost) descendant of the previous sibling.
            subset.pop();
            damaged.flip(last);
            subset.push(last - 1);
            damaged.flip(last - 1);
            if subset.len() < self.max_size {
                subset.push(self.n - 1);
                damaged.flip(self.n - 1);
            }
        }
    }
}

/// Key into the transposition cache: configurations up to 64 bits pack
/// losslessly into a word; longer ones are keyed by the full `Config`.
enum MemoKey {
    Packed(u64),
    Wide(Config),
}

/// Per-range transposition cache memoizing, for each damaged
/// configuration, the exact strategy-path repair distance when it is
/// ≤ `k`, or [`UNRECOVERABLE`] when the walk provably exceeds the budget
/// (or the strategy is stuck). Exactness is what makes the engine's
/// verdicts independent of evaluation order and thread schedule.
enum Memo {
    /// Direct-mapped table for ≤ [`DIRECT_TABLE_BITS`]-bit configurations:
    /// entry 0 = unset, 1 = unrecoverable, `d + 2` = distance `d`.
    Table(Vec<u32>),
    /// Word-keyed map for ≤ 64-bit configurations.
    Small(HashMap<u64, u32>),
    /// Full-configuration keys beyond 64 bits.
    Big(HashMap<Config, u32>),
}

impl Memo {
    fn for_len(n: usize) -> Self {
        if n <= DIRECT_TABLE_BITS {
            Memo::Table(vec![0; 1usize << n])
        } else if n <= 64 {
            Memo::Small(HashMap::new())
        } else {
            Memo::Big(HashMap::new())
        }
    }

    fn key(&self, cfg: &Config) -> MemoKey {
        match self {
            Memo::Table(_) | Memo::Small(_) => MemoKey::Packed(cfg.to_u64()),
            Memo::Big(_) => MemoKey::Wide(cfg.clone()),
        }
    }

    fn get(&self, key: &MemoKey) -> Option<u32> {
        match (self, key) {
            (Memo::Table(t), MemoKey::Packed(w)) => match t[*w as usize] {
                0 => None,
                1 => Some(UNRECOVERABLE),
                v => Some(v - 2),
            },
            (Memo::Small(m), MemoKey::Packed(w)) => m.get(w).copied(),
            (Memo::Big(m), MemoKey::Wide(c)) => m.get(c).copied(),
            _ => unreachable!("memo key variant matches memo variant"),
        }
    }

    fn insert(&mut self, key: MemoKey, value: u32) {
        match (self, key) {
            (Memo::Table(t), MemoKey::Packed(w)) => {
                t[w as usize] = if value == UNRECOVERABLE { 1 } else { value + 2 };
            }
            (Memo::Small(m), MemoKey::Packed(w)) => {
                m.insert(w, value);
            }
            (Memo::Big(m), MemoKey::Wide(c)) => {
                m.insert(c, value);
            }
            _ => unreachable!("memo key variant matches memo variant"),
        }
    }
}

/// Telemetry counters of one verification run: how hard the
/// transposition cache worked and how many states the repair walks
/// visited.
///
/// Stats are accumulated per rank range and folded in rank order, so
/// for a *fixed* range partition they are a pure function of the
/// problem — [`is_k_recoverable_exhaustive_parallel_stats`] (64 rank
/// ranges) and [`is_k_recoverable_symmetric`] (one range per orbit) use
/// thread-count-independent partitions precisely so these counters are
/// bit-identical for any thread budget (unlike the adaptive partition of
/// [`is_k_recoverable_exhaustive_parallel`], whose chunk boundaries —
/// and therefore per-chunk cache contents — depend on `ctx.threads()`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct VerifyStats {
    /// Memo probes that found a finished entry (initial probe or a
    /// repair walk landing on a cached state).
    pub cache_hits: u64,
    /// Initial memo probes that missed and forced a repair walk.
    pub cache_misses: u64,
    /// Distinct states assigned a distance by repair walks (memo
    /// insertions).
    pub states_explored: u64,
    /// Damage cases settled by orbit multiplication in the
    /// symmetry-reduced checker — cases counted in the report without a
    /// repair walk of their own. Zero for the exhaustive engines.
    pub orbit_hits: u64,
}

impl VerifyStats {
    /// Componentwise sum.
    pub fn merge(mut self, other: VerifyStats) -> VerifyStats {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.states_explored += other.states_explored;
        self.orbit_hits += other.orbit_hits;
        self
    }

    /// Cache hit rate in `[0, 1]` (0 when no probes were made).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

/// Partial report of a range of damage cases — rank ranges or damage
/// orbits. The counterexample kept is the preorder-minimal failure, which
/// is the lowest-ranked one (preorder is rank order), so the fold is
/// associative and thread-invariant whatever order the cases and ranges
/// are checked in.
#[derive(Debug, Default)]
struct Partial {
    cases: u64,
    recovered: u64,
    worst_steps: usize,
    counterexample: Option<Vec<usize>>,
    /// Cache/exploration counters for this range.
    stats: VerifyStats,
}

impl Partial {
    /// Count `size` damage cases sharing `verdict`; `damage` is the
    /// pattern that stands for them.
    fn record(&mut self, verdict: Option<usize>, k: usize, size: u64, damage: &[usize]) {
        self.cases += size;
        match verdict {
            Some(steps) => {
                self.recovered += size;
                self.worst_steps = self.worst_steps.max(steps);
            }
            None => {
                self.worst_steps = self.worst_steps.max(k);
                self.keep_counterexample(damage);
            }
        }
    }

    fn keep_counterexample(&mut self, damage: &[usize]) {
        if self
            .counterexample
            .as_ref()
            .is_none_or(|c| preorder_cmp(damage, c) == Ordering::Less)
        {
            self.counterexample = Some(damage.to_vec());
        }
    }

    /// Fold `next` into `acc`.
    fn merge(mut acc: Partial, next: Partial) -> Partial {
        acc.cases += next.cases;
        acc.recovered += next.recovered;
        acc.worst_steps = acc.worst_steps.max(next.worst_steps);
        if let Some(c) = next.counterexample {
            acc.keep_counterexample(&c);
        }
        acc.stats = acc.stats.merge(next.stats);
        acc
    }

    fn finish(self, k: usize) -> (RecoverabilityReport, VerifyStats) {
        debug_assert!(usize::try_from(self.cases).is_ok() && self.recovered <= self.cases);
        let report = RecoverabilityReport {
            k,
            // Lossless: both counts are at most the instance's case
            // count, which `SubsetCounts::new` and
            // `is_k_recoverable_symmetric` keep within usize.
            cases: self.cases as usize,
            recovered_within_k: self.recovered as usize,
            worst_steps: self.worst_steps,
            counterexample: self.counterexample,
        };
        (report, self.stats)
    }
}

/// Verify every damage pattern with rank in `range`.
///
/// Cases are *evaluated* highest rank first — preorder places a pattern
/// before its extensions, so walking backwards means a repair trajectory
/// usually lands on an already-cached sub-pattern after a single step —
/// but the *report* is independent of evaluation order: counts and maxima
/// are order-free, and the counterexample kept is the lowest-ranked
/// failure, matching the forward-enumerating reference checker exactly.
///
/// Every exhaustive entry point runs this walk, so
/// [`is_k_recoverable_exhaustive_parallel_stats`] counts exactly the work
/// the plain checkers do on the same partition.
fn check_rank_range<S: RepairStrategy + ?Sized>(
    range: Range<u64>,
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    k: usize,
    counts: &SubsetCounts,
) -> Partial {
    let mut partial = Partial::default();
    if range.is_empty() {
        return partial;
    }
    let mut memo = Memo::for_len(start.len());
    let mut subset: Vec<usize> = Vec::with_capacity(counts.max_size);
    let mut damaged = start.clone();
    let mut scratch = start.clone();
    let mut path: Vec<MemoKey> = Vec::with_capacity(k + 2);
    counts.unrank_into(range.end - 1, &mut subset, &mut damaged);
    let mut rank = range.end - 1;
    loop {
        let verdict = eval_case(
            &damaged,
            env,
            strategy,
            k,
            &mut memo,
            &mut scratch,
            &mut path,
            &mut partial.stats,
        );
        partial.record(verdict, k, 1, &subset);
        if rank == range.start {
            break;
        }
        counts.predecessor(&mut subset, &mut damaged);
        rank -= 1;
    }
    partial
}

/// Repair-walk one damaged configuration through the transposition cache.
/// Equivalent to `run_repair` on a clone of `damaged` for a deterministic
/// strategy: the walk is the strategy's unique trajectory, so every state
/// on it has an exact distance-to-fit that can be cached and reused by
/// later cases passing through the same states.
// The trailing four parameters are the per-range scratch bundle
// (transposition cache, reusable buffers, probe counters); bundling them
// into a struct would only move the argument count into field plumbing.
#[allow(clippy::too_many_arguments)]
fn eval_case<S: RepairStrategy + ?Sized>(
    damaged: &Config,
    env: &dyn Constraint,
    strategy: &S,
    k: usize,
    memo: &mut Memo,
    scratch: &mut Config,
    path: &mut Vec<MemoKey>,
    stats: &mut VerifyStats,
) -> Option<usize> {
    let start_key = memo.key(damaged);
    if let Some(v) = memo.get(&start_key) {
        stats.cache_hits += 1;
        return (v != UNRECOVERABLE).then_some(v as usize);
    }
    stats.cache_misses += 1;
    scratch.clone_from(damaged);
    path.clear();
    path.push(start_key);
    let mut steps = 0usize;
    enum Outcome {
        Fit(usize),
        Stuck,
        Budget,
        /// Hit a cached state after `.0` steps with cached value `.1`.
        Known(usize, u32),
    }
    let outcome = loop {
        if env.is_fit(scratch) {
            break Outcome::Fit(steps);
        }
        if steps >= k {
            break Outcome::Budget;
        }
        match strategy.propose_flip(scratch, env) {
            Some(bit) => {
                scratch.flip(bit);
                steps += 1;
                let key = memo.key(scratch);
                if let Some(v) = memo.get(&key) {
                    stats.cache_hits += 1;
                    break Outcome::Known(steps, v);
                }
                path.push(key);
            }
            None => break Outcome::Stuck,
        }
    };
    match outcome {
        Outcome::Fit(s) => {
            // path holds states at distances s, s-1, …, 0 — all ≤ k.
            stats.states_explored += path.len() as u64;
            for (j, key) in path.drain(..).enumerate() {
                memo.insert(key, (s - j) as u32);
            }
            Some(s)
        }
        Outcome::Stuck => {
            // The strategy's trajectory from every path state dead-ends.
            stats.states_explored += path.len() as u64;
            for key in path.drain(..) {
                memo.insert(key, UNRECOVERABLE);
            }
            None
        }
        Outcome::Budget => {
            // Walked k steps without reaching fitness: only the origin is
            // proven over budget (an intermediate state at index j has
            // only walked k - j steps).
            // `path` starts with the origin, pushed before the walk.
            stats.states_explored += 1;
            debug_assert!(!path.is_empty(), "path holds the origin");
            path.truncate(1);
            for origin in path.drain(..) {
                memo.insert(origin, UNRECOVERABLE);
            }
            None
        }
        Outcome::Known(s, v) => {
            stats.states_explored += path.len() as u64;
            if v == UNRECOVERABLE {
                // Cached distance exceeds k, so every state upstream of it
                // on this walk exceeds k too.
                for key in path.drain(..) {
                    memo.insert(key, UNRECOVERABLE);
                }
                None
            } else {
                // Exact distances: path state j sits s - j steps before a
                // state at distance v.
                let total = s + v as usize;
                for (j, key) in path.drain(..).enumerate() {
                    let dist = total - j;
                    memo.insert(
                        key,
                        if dist <= k {
                            dist as u32
                        } else {
                            UNRECOVERABLE
                        },
                    );
                }
                (total <= k).then_some(total)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{AnnealRepair, BfsRepair, GreedyRepair};
    use resilience_core::{seeded_rng, AllOnes, AtLeastOnes, ExplicitSet};

    #[test]
    fn spacecraft_is_k_recoverable_for_k_damage() {
        // The paper's claim: fixing one component per step, the spacecraft
        // recovers from ≤ k failures within k steps.
        let n = 10;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        for k in 1..=3 {
            let report = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), k, k);
            assert!(report.is_k_recoverable(), "k={k}: {report:?}");
            assert_eq!(report.worst_steps, k);
        }
    }

    #[test]
    fn insufficient_k_is_caught_with_counterexample() {
        let n = 8;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        // Damage up to 3 bits but only 2 repair steps allowed.
        let report = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 3, 2);
        assert!(!report.is_k_recoverable());
        let witness = report.counterexample.as_ref().expect("needs witness");
        assert_eq!(witness.len(), 3);
        // Exactly the 3-bit damages fail: C(8,1)+C(8,2) recover, C(8,3) fail.
        assert_eq!(report.cases, 8 + 28 + 56);
        assert_eq!(report.recovered_within_k, 8 + 28);
    }

    #[test]
    fn case_count_matches_binomial_sums() {
        let n = 6;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let report = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 2, 2);
        assert_eq!(report.cases, 6 + 15);
    }

    #[test]
    fn tolerant_constraint_needs_fewer_steps() {
        // With an AtLeastOnes(8,6) environment, a 2-bit damage may still be
        // fit, or need at most... damage of 2 can drop ones to 6 (still
        // fit). So everything recovers in 0 steps.
        let start = Config::ones(8);
        let env = AtLeastOnes::new(8, 6);
        let report = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 2, 0);
        assert!(report.is_k_recoverable());
        assert_eq!(report.worst_steps, 0);
        // 3-bit damage needs exactly 1 repair step.
        let report = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 3, 1);
        assert!(report.is_k_recoverable());
        assert_eq!(report.worst_steps, 1);
    }

    #[test]
    fn strategy_quality_matters_for_recoverability() {
        // Fit set {1111, 0000}: from 1111, a 3-bit damage leaves one 1;
        // greedy (Hamming-violation) walks to 0000 in 1 step, BFS also 1.
        // But consider fit set {111111}: both need d steps.
        let env: ExplicitSet = ["1111".parse().unwrap(), "0000".parse().unwrap()]
            .into_iter()
            .collect();
        let start: Config = "1111".parse().unwrap();
        let report = is_k_recoverable_exhaustive(&start, &env, &BfsRepair::new(4), 3, 1);
        // Any ≤3 damage is within distance 1 of a fit config? damage 2 →
        // distance 2 from both members. So k=1 must fail for some case.
        assert!(!report.is_k_recoverable());
        let report2 = is_k_recoverable_exhaustive(&start, &env, &BfsRepair::new(4), 3, 2);
        assert!(report2.is_k_recoverable());
    }

    #[test]
    #[should_panic(expected = "fit configuration")]
    fn rejects_unfit_start() {
        let env = AllOnes::new(4);
        let start = Config::zeros(4);
        let _ = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 1, 1);
    }

    #[test]
    #[should_panic(expected = "fit configuration")]
    fn parallel_rejects_unfit_start() {
        let env = AllOnes::new(4);
        let start = Config::zeros(4);
        let _ = is_k_recoverable_exhaustive_parallel(
            &start,
            &env,
            &GreedyRepair::new(),
            1,
            1,
            &RunContext::new(0),
        );
    }

    #[test]
    fn unranking_matches_recursive_enumeration_order() {
        for (n, d) in [(1usize, 1usize), (3, 2), (5, 3), (6, 6), (7, 2), (8, 4)] {
            let mut expected: Vec<Vec<usize>> = Vec::new();
            let mut cur = Vec::new();
            enumerate_subsets(n, d, 0, &mut cur, &mut |s: &[usize]| {
                expected.push(s.to_vec());
            });
            let counts = SubsetCounts::new(n, d);
            assert_eq!(
                counts.total_nonempty(),
                expected.len() as u64,
                "n={n} d={d}"
            );
            // Every rank unranks to the recursive enumeration's subset.
            let base = Config::zeros(n);
            for (rank, want) in expected.iter().enumerate() {
                let mut subset = Vec::new();
                let mut damaged = base.clone();
                counts.unrank_into(rank as u64, &mut subset, &mut damaged);
                assert_eq!(&subset, want, "n={n} d={d} rank={rank}");
                assert_eq!(damaged.ones_indices(), *want, "damage bits track subset");
            }
            // Predecessor walks the whole order backwards.
            let mut subset = Vec::new();
            let mut damaged = base.clone();
            counts.unrank_into(counts.total_nonempty() - 1, &mut subset, &mut damaged);
            for rank in (0..expected.len() - 1).rev() {
                counts.predecessor(&mut subset, &mut damaged);
                assert_eq!(subset, expected[rank], "n={n} d={d} rank={rank}");
                assert_eq!(damaged.ones_indices(), expected[rank]);
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_varied_environments() {
        let greedy = GreedyRepair::new();
        let bfs = BfsRepair::new(5);
        let strategies: [&dyn RepairStrategy; 2] = [&greedy, &bfs];
        let explicit: ExplicitSet = ["11111111".parse().unwrap(), "00000000".parse().unwrap()]
            .into_iter()
            .collect();
        let envs: [&dyn Constraint; 3] = [&AllOnes::new(8), &AtLeastOnes::new(8, 6), &explicit];
        let start = Config::ones(8);
        for strategy in strategies {
            for env in envs {
                for d in 0..=4 {
                    for k in 0..=4 {
                        let fast = is_k_recoverable_exhaustive(&start, env, strategy, d, k);
                        let slow = recoverability_reference(&start, env, strategy, d, k);
                        assert_eq!(fast, slow, "d={d} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_is_thread_invariant_and_matches_serial() {
        let start = Config::ones(12);
        let env = AllOnes::new(12);
        let serial = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 3, 2);
        for threads in [1usize, 2, 4, 7] {
            let ctx = RunContext::with_threads(0, threads);
            let par = is_k_recoverable_exhaustive_parallel(
                &start,
                &env,
                &GreedyRepair::new(),
                3,
                2,
                &ctx,
            );
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn non_deterministic_strategy_falls_back_to_reference() {
        // AnnealRepair's proposals depend on its internal call counter, so
        // the engine must route it through the sequential reference walk —
        // both entry points, same call order, same answer shape.
        let start = Config::ones(6);
        let env = AllOnes::new(6);
        let direct = is_k_recoverable_exhaustive(&start, &env, &AnnealRepair::new(0.5, 7), 2, 6);
        let reference = recoverability_reference(&start, &env, &AnnealRepair::new(0.5, 7), 2, 6);
        assert_eq!(direct, reference);
        let parallel = is_k_recoverable_exhaustive_parallel(
            &start,
            &env,
            &AnnealRepair::new(0.5, 7),
            2,
            6,
            &RunContext::with_threads(0, 4),
        );
        assert_eq!(parallel, reference);
    }

    #[test]
    fn engine_handles_wide_configs_beyond_direct_table() {
        // 70 bits exceeds both the direct table and the packed-u64 keys.
        let n = 70;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let fast = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 2, 1);
        let slow = recoverability_reference(&start, &env, &GreedyRepair::new(), 2, 1);
        assert_eq!(fast, slow);
        assert_eq!(fast.cases, 70 + 70 * 69 / 2);
        assert!(!fast.is_k_recoverable());
    }

    #[test]
    fn sampled_agrees_with_exhaustive_on_small_system() {
        let mut rng = seeded_rng(9);
        let n = 10;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let report = sampled_recoverability(
            &start,
            &env,
            &GreedyRepair::new(),
            &ShockKind::BoundedBitDamage { max_flips: 3 },
            3,
            200,
            &mut rng,
        );
        assert!(report.is_k_recoverable());
        assert_eq!(report.cases, 200);
        assert!((report.recovery_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn sampled_detects_failures_under_tight_budget() {
        let mut rng = seeded_rng(10);
        let start = Config::ones(12);
        let env = AllOnes::new(12);
        let report = sampled_recoverability(
            &start,
            &env,
            &GreedyRepair::new(),
            &ShockKind::BitDamage { flips: 5 },
            3,
            100,
            &mut rng,
        );
        assert_eq!(report.recovered_within_k, 0);
        assert!(report.counterexample.is_some());
        assert_eq!(report.recovery_rate(), 0.0);
    }

    #[test]
    fn stats_variant_matches_plain_report_and_counts_cache_traffic() {
        let n = 10;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let plain = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 3, 3);
        let (report, stats) = is_k_recoverable_exhaustive_parallel_stats(
            &start,
            &env,
            &GreedyRepair::new(),
            3,
            3,
            &RunContext::new(0),
        );
        assert_eq!(report, plain);
        // Every case probes the cache at least once up front; repair
        // walks that land on memoized states probe again mid-walk.
        assert!(stats.cache_hits + stats.cache_misses >= report.cases as u64);
        assert!(stats.states_explored > 0);
        // Overlapping damage patterns share repair paths, so the
        // transposition cache must see real traffic on this instance.
        assert!(stats.cache_hits > 0, "{stats:?}");
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
    }

    #[test]
    fn parallel_stats_are_thread_invariant() {
        let n = 12;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let serial = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 3, 3);
        let mut expect: Option<VerifyStats> = None;
        for threads in [1, 2, 4, 7] {
            let (report, stats) = is_k_recoverable_exhaustive_parallel_stats(
                &start,
                &env,
                &GreedyRepair::new(),
                3,
                3,
                &RunContext::with_threads(0, threads),
            );
            assert_eq!(report, serial, "threads={threads}");
            match &expect {
                None => expect = Some(stats),
                Some(first) => assert_eq!(stats, *first, "threads={threads}"),
            }
        }
    }

    #[test]
    fn symmetric_matches_exhaustive_reports() {
        let ctx = RunContext::with_threads(0, 2);
        let n = 9;
        let start = Config::ones(n);
        let all = AllOnes::new(n);
        let atleast = AtLeastOnes::new(n, n - 2);
        let envs: [&dyn Constraint; 2] = [&all, &atleast];
        for env in envs {
            for (d, k) in [(2usize, 1usize), (3, 3), (4, 2)] {
                let (sym, _) =
                    is_k_recoverable_symmetric(&start, env, &GreedyRepair::new(), d, k, &ctx)
                        .expect("counting constraints declare symmetry");
                let full = is_k_recoverable_exhaustive(&start, env, &GreedyRepair::new(), d, k);
                assert_eq!(sym, full, "d={d} k={k}");
            }
        }
    }

    #[test]
    fn symmetric_counterexample_matches_reference() {
        let ctx = RunContext::with_threads(0, 3);
        let start = Config::ones(8);
        let env = AllOnes::new(8);
        let (sym, _) =
            is_k_recoverable_symmetric(&start, &env, &GreedyRepair::new(), 3, 2, &ctx).unwrap();
        let reference = recoverability_reference(&start, &env, &GreedyRepair::new(), 3, 2);
        assert_eq!(sym, reference);
        // The preorder-minimal member of the failing size-3 orbit is the
        // prefix {0,1,2} — exactly the reference's first failure.
        assert_eq!(sym.counterexample.as_deref(), Some(&[0, 1, 2][..]));
    }

    #[test]
    fn symmetric_stats_are_thread_invariant_and_count_orbit_hits() {
        let n = 10;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let mut expect: Option<VerifyStats> = None;
        for threads in [1usize, 2, 4] {
            let ctx = RunContext::with_threads(0, threads);
            let (report, stats) =
                is_k_recoverable_symmetric(&start, &env, &GreedyRepair::new(), 3, 3, &ctx)
                    .expect("symmetric");
            assert!(report.is_k_recoverable());
            assert_eq!(report.cases, 10 + 45 + 120);
            // Three representative walks; everything else is settled by
            // orbit multiplication.
            assert_eq!(stats.orbit_hits, (10 + 45 + 120) - 3);
            match &expect {
                None => expect = Some(stats),
                Some(first) => assert_eq!(stats, *first, "threads={threads}"),
            }
        }
    }

    #[test]
    fn auto_routes_symmetric_and_falls_back() {
        let ctx = RunContext::with_threads(0, 2);
        let start = Config::ones(8);
        let env = AllOnes::new(8);
        let auto = is_k_recoverable_auto(&start, &env, &GreedyRepair::new(), 3, 3, &ctx);
        let full = is_k_recoverable_exhaustive(&start, &env, &GreedyRepair::new(), 3, 3);
        assert_eq!(auto, full);
        // ExplicitSet declares no symmetry → the symmetric checker makes
        // no claim and auto falls back to the exhaustive engine.
        let set: ExplicitSet = ["11111111".parse().unwrap(), "00000000".parse().unwrap()]
            .into_iter()
            .collect();
        assert!(
            is_k_recoverable_symmetric(&start, &set, &GreedyRepair::new(), 2, 2, &ctx).is_none()
        );
        let auto = is_k_recoverable_auto(&start, &set, &GreedyRepair::new(), 2, 2, &ctx);
        let full = is_k_recoverable_exhaustive(&start, &set, &GreedyRepair::new(), 2, 2);
        assert_eq!(auto, full);
        // Anneal is neither deterministic nor symmetry-invariant.
        assert!(
            is_k_recoverable_symmetric(&start, &env, &AnnealRepair::new(0.5, 7), 2, 2, &ctx)
                .is_none()
        );
    }

    #[test]
    fn empty_report_rate_is_one() {
        let r = RecoverabilityReport {
            k: 1,
            cases: 0,
            recovered_within_k: 0,
            worst_steps: 0,
            counterexample: None,
        };
        assert_eq!(r.recovery_rate(), 1.0);
        assert!(r.is_k_recoverable());
    }
}
