//! *k*-recoverability (the paper's §4.2).
//!
//! "If the system can fix its configuration for any perturbations of type D
//! within k steps, we call the system k-recoverable."
//!
//! [`check_recoverability`] is the one exact check: it repairs every
//! perturbation of at most `max_damage` bit flips with the given strategy
//! (one flip per step, shock-free) and returns one [`RecoverabilityReport`],
//! with its [`VerifyStats`] when asked. The report is bit-identical for
//! every thread budget and every [`RecoverabilityOptions`] value; the
//! options only choose how the damage space is walked.
//!
//! * The **rank walk** numbers the damage patterns in preorder, cuts the
//!   rank space into contiguous ranges by combinatorial unranking, checks
//!   each range with its own transposition cache over repair outcomes and
//!   folds the partial reports in rank order (see the verification-engine
//!   section of DESIGN.md).
//! * The **orbit walk** (`symmetry`) applies when the constraint declares
//!   variable automorphisms (`Constraint::symmetry_classes`) that fix
//!   `start` and the strategy respects them
//!   ([`RepairStrategy::is_symmetry_invariant`]): it repairs one
//!   representative per damage *orbit* and multiplies by the orbit size,
//!   so the fully symmetric spacecraft instances cost `max_damage` walks.
//!   Otherwise the rank walk runs. `tests/symmetry_equivalence.rs` pins
//!   the two walks to each other.
//!
//! Both walks fold one partial-report type, which keeps the
//! preorder-minimal counterexample (preorder is rank order): the
//! lowest-ranked failure, exactly the witness the forward-enumerating
//! reference keeps. Each range starts with an empty cache, and a repair
//! step usually lands in another range's ranks, so the partition decides
//! how much work the cache saves:
//!
//! * without stats on a one-thread budget, one range;
//! * without stats on more threads, `threads × 8` ranges, for load balance;
//! * with stats, 64 rank ranges or one range per orbit. The counters are
//!   a pure function of the partition, so a partition fixed by the problem
//!   makes them the same for every thread budget.
//!
//! A non-deterministic strategy's proposals depend on global call order,
//! so it runs the sequential reference walk and returns no stats.
//!
//! [`recoverability_reference`] keeps the original
//! clone-per-case recursive checker as the oracle the engine is proven
//! against (see `tests/verification_equivalence.rs`).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use resilience_core::{Config, Constraint, CoreError, RunContext};

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

/// How [`check_recoverability`] may walk the damage space. Neither field
/// changes the report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoverabilityOptions {
    /// Walk one representative per damage orbit when that is sound (the
    /// constraint declares automorphisms that fix `start`, and the strategy
    /// is deterministic and symmetry-invariant); otherwise, or when unset,
    /// walk every damage pattern.
    pub symmetry: bool,
    /// Return the walk's [`VerifyStats`], counted on a partition fixed by
    /// the problem so they are the same for every thread budget.
    pub stats: bool,
}

/// Check k-recoverability of `start` under `env` against every damage
/// pattern of 1..=`max_damage` bit flips, repairing with `strategy` (one
/// flip per step, the paper's repair model) on `ctx`'s thread budget.
///
/// The paper's side condition is honored: "once the spacecraft has
/// component failures at time t, it will not have another component failure
/// until time t + k" — i.e. repair runs shock-free.
///
/// The report is identical to [`recoverability_reference`] for every
/// `ctx` and `options`; see the module docs for the walks and the
/// partition rule. The stats are `Some` when `options.stats` is set and
/// the strategy is deterministic ([`RepairStrategy::is_deterministic`]);
/// a non-deterministic strategy runs the reference walk, which has no
/// cache to count.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] when `start` does not satisfy `env`
/// (recoverability is defined from a fit configuration), or when the
/// damage-pattern count does not fit the `u64` rank space.
pub fn check_recoverability<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
    ctx: &RunContext,
    options: RecoverabilityOptions,
) -> Result<(RecoverabilityReport, Option<VerifyStats>), CoreError> {
    require_fit(start, env)?;
    let n = start.len();
    let counts = SubsetCounts::new(n, max_damage.min(n))?;
    if !strategy.is_deterministic() {
        return Ok((reference_inner(start, env, strategy, max_damage, k), None));
    }
    let orbits = if options.symmetry && strategy.is_symmetry_invariant() {
        SymmetryClasses::detect(env, start).and_then(|c| c.damage_orbits(counts.max_size))
    } else {
        None
    };
    // The orbit sizes must partition the unreduced case count exactly —
    // this is what licenses reporting `cases` without enumerating them.
    debug_assert!(orbits
        .as_ref()
        .is_none_or(|o| o.iter().map(|o| o.size).sum::<u64>() == counts.total_nonempty()));
    let (total, stats_ranges) = match &orbits {
        Some(orbits) => (orbits.len() as u64, orbits.len() as u64),
        None => (counts.total_nonempty(), 64),
    };
    let ranges = if options.stats {
        stats_ranges
    } else if ctx.threads() == 1 {
        1
    } else {
        ctx.threads() as u64 * 8
    };
    let (report, stats) = ctx
        .run_ranges(
            total,
            // No damage (or no orbit) leaves nothing to cut.
            (total / ranges.max(1)).clamp(1, total.max(1)),
            // Orbit ranges split `0..orbits.len()`, so their bounds fit
            // `usize`.
            |r| match &orbits {
                Some(orbits) => check_orbits(
                    &orbits[r.start as usize..r.end as usize],
                    start,
                    env,
                    strategy,
                    k,
                ),
                None => check_rank_range(r, start, env, strategy, k, &counts),
            },
            Partial::default(),
            Partial::merge,
        )
        .finish(k);
    Ok((report, options.stats.then_some(stats)))
}

/// [`check_recoverability`] on the rank walk, without stats.
///
/// # Panics
///
/// Panics where [`check_recoverability`] returns an error.
#[doc(hidden)]
pub fn is_k_recoverable_exhaustive_parallel<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
    ctx: &RunContext,
) -> RecoverabilityReport {
    let options = RecoverabilityOptions::default();
    or_panic(check_recoverability(
        start, env, strategy, max_damage, k, ctx, options,
    ))
    .0
}

/// [`check_recoverability`] on the rank walk, with stats.
///
/// # Panics
///
/// Panics where [`check_recoverability`] returns an error, and for a
/// non-deterministic strategy, which has no stats.
#[doc(hidden)]
pub fn is_k_recoverable_exhaustive_parallel_stats<S: RepairStrategy + ?Sized>(
    start: &Config,
    env: &dyn Constraint,
    strategy: &S,
    max_damage: usize,
    k: usize,
    ctx: &RunContext,
) -> (RecoverabilityReport, VerifyStats) {
    let options = RecoverabilityOptions {
        symmetry: false,
        stats: true,
    };
    match or_panic(check_recoverability(
        start, env, strategy, max_damage, k, ctx, options,
    )) {
        (report, Some(stats)) => (report, stats),
        (_, None) => panic!("verification stats require a deterministic strategy"),
    }
}

fn or_panic<T>(result: Result<T, CoreError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// Recoverability is defined from a fit configuration.
fn require_fit(start: &Config, env: &dyn Constraint) -> Result<(), CoreError> {
    if env.is_fit(start) {
        Ok(())
    } else {
        Err(CoreError::InvalidParameter {
            name: "start",
            reason: "k-recoverability is checked from a fit configuration".to_string(),
        })
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
/// case. Reports are identical to [`check_recoverability`]'s; only the
/// running time differs.
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
/// table (2^n entries, 4 MiB at the cap); longer ones use a map keyed by
/// the packed word ([`FoldHasher`]) up to 64 bits and by the full
/// `Config` beyond.
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
    /// The table for `n` elements and subsets of at most `max_size`, or
    /// an error when their count does not fit the `u64` rank space.
    fn new(n: usize, max_size: usize) -> Result<Self, CoreError> {
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
        if total < u64::MAX && usize::try_from(total).is_ok() {
            Ok(counts)
        } else {
            Err(CoreError::InvalidParameter {
                name: "max_damage",
                reason: format!(
                    "the damage patterns of up to {max_size} of {n} bits \
                     exceed the u64 rank space"
                ),
            })
        }
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

/// Multiply-fold hasher for packed-configuration keys: the key times an
/// odd constant, as a 128-bit product whose high half is xor-folded into
/// the low half. Damaged near-all-ones keys differ only in a few high
/// bits, which a plain 64-bit multiply never carries down into the low
/// bits the map buckets by; the fold does. On the 12,950 keys of
/// `AllOnes(24)` at four flips the fullest 15-bit bucket holds 5 keys,
/// against 255 for the plain multiply.
#[derive(Debug, Default, Clone, Copy)]
struct FoldHasher(u64);

impl FoldHasher {
    /// 2^64 / φ, odd.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(Self::MUL);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-range transposition cache memoizing, for each damaged
/// configuration, the exact strategy-path repair distance when it is
/// ≤ `k`, or [`UNRECOVERABLE`] when the walk provably exceeds the budget
/// (or the strategy is stuck). Exactness is what makes the engine's
/// verdicts independent of evaluation order and thread schedule. The
/// storage is chosen by length, and no storage changes a verdict or a
/// [`VerifyStats`] counter.
enum Memo {
    /// Direct-mapped table for ≤ [`DIRECT_TABLE_BITS`]-bit configurations:
    /// entry 0 = unset, 1 = unrecoverable, `d + 2` = distance `d`.
    Table(Vec<u32>),
    /// Word-keyed map for ≤ 64-bit configurations, hashed by
    /// [`FoldHasher`]. It grows from empty: pre-sizing it for a
    /// workload's key count ran slower and raised the peak resident set.
    Small(HashMap<u64, u32, BuildHasherDefault<FoldHasher>>),
    /// Full-configuration keys beyond 64 bits.
    Big(HashMap<Config, u32>),
}

impl Memo {
    fn for_len(n: usize) -> Self {
        if n <= DIRECT_TABLE_BITS {
            Memo::Table(vec![0; 1usize << n])
        } else if n <= 64 {
            Memo::Small(HashMap::default())
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
/// Stats are accumulated per range, each with its own transposition
/// cache, and folded in rank order, so they are a pure function of the
/// problem and the partition. [`check_recoverability`] returns them only
/// with [`RecoverabilityOptions::stats`] set, and then walks a partition
/// the problem fixes (64 rank ranges, or one range per damage orbit), so
/// the counters are bit-identical for any thread budget.
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
    /// Damage cases settled by orbit multiplication on the orbit walk —
    /// cases counted in the report without a repair walk of their own.
    /// Zero on the rank walk.
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
            // count, which `SubsetCounts::new` keeps within usize.
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
    use resilience_core::{AllOnes, AtLeastOnes, ExplicitSet};

    const EXHAUSTIVE: RecoverabilityOptions = RecoverabilityOptions {
        symmetry: false,
        stats: false,
    };

    /// `check_recoverability` on `threads` workers.
    fn check<S: RepairStrategy + ?Sized>(
        start: &Config,
        env: &dyn Constraint,
        strategy: &S,
        d: usize,
        k: usize,
        threads: usize,
        options: RecoverabilityOptions,
    ) -> (RecoverabilityReport, Option<VerifyStats>) {
        let ctx = RunContext::with_threads(0, threads);
        check_recoverability(start, env, strategy, d, k, &ctx, options).unwrap()
    }

    /// The one-thread rank walk's report.
    fn exhaustive<S: RepairStrategy + ?Sized>(
        start: &Config,
        env: &dyn Constraint,
        strategy: &S,
        d: usize,
        k: usize,
    ) -> RecoverabilityReport {
        check(start, env, strategy, d, k, 1, EXHAUSTIVE).0
    }

    /// The report and stats of the orbit walk where it is sound.
    fn symmetric<S: RepairStrategy + ?Sized>(
        start: &Config,
        env: &dyn Constraint,
        strategy: &S,
        d: usize,
        k: usize,
        threads: usize,
    ) -> (RecoverabilityReport, VerifyStats) {
        let options = RecoverabilityOptions {
            symmetry: true,
            stats: true,
        };
        let (report, stats) = check(start, env, strategy, d, k, threads, options);
        (report, stats.unwrap())
    }

    #[test]
    fn spacecraft_is_k_recoverable_for_k_damage() {
        // The paper's claim: fixing one component per step, the spacecraft
        // recovers from ≤ k failures within k steps.
        let n = 10;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        for k in 1..=3 {
            let report = exhaustive(&start, &env, &GreedyRepair::new(), k, k);
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
        let report = exhaustive(&start, &env, &GreedyRepair::new(), 3, 2);
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
        let report = exhaustive(&start, &env, &GreedyRepair::new(), 2, 2);
        assert_eq!(report.cases, 6 + 15);
    }

    #[test]
    fn tolerant_constraint_needs_fewer_steps() {
        // With an AtLeastOnes(8,6) environment, a 2-bit damage may still be
        // fit, or need at most... damage of 2 can drop ones to 6 (still
        // fit). So everything recovers in 0 steps.
        let start = Config::ones(8);
        let env = AtLeastOnes::new(8, 6);
        let report = exhaustive(&start, &env, &GreedyRepair::new(), 2, 0);
        assert!(report.is_k_recoverable());
        assert_eq!(report.worst_steps, 0);
        // 3-bit damage needs exactly 1 repair step.
        let report = exhaustive(&start, &env, &GreedyRepair::new(), 3, 1);
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
        let report = exhaustive(&start, &env, &BfsRepair::new(4), 3, 1);
        // Any ≤3 damage is within distance 1 of a fit config? damage 2 →
        // distance 2 from both members. So k=1 must fail for some case.
        assert!(!report.is_k_recoverable());
        let report2 = exhaustive(&start, &env, &BfsRepair::new(4), 3, 2);
        assert!(report2.is_k_recoverable());
    }

    #[test]
    fn rejects_unfit_start() {
        let env = AllOnes::new(4);
        let start = Config::zeros(4);
        for threads in [1, 2] {
            for symmetry in [false, true] {
                let ctx = RunContext::with_threads(0, threads);
                let options = RecoverabilityOptions {
                    symmetry,
                    stats: true,
                };
                let err =
                    check_recoverability(&start, &env, &GreedyRepair::new(), 1, 1, &ctx, options)
                        .unwrap_err();
                assert!(
                    matches!(err, CoreError::InvalidParameter { name: "start", .. }),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn damage_space_past_u64_is_an_error() {
        // Σ_{s≤d} C(70, s) fits u64 at d = 25 and not at d = 26. Only the
        // orbit walk makes d = 25 checkable in practice.
        let start = Config::ones(70);
        let env = AllOnes::new(70);
        let ctx = RunContext::new(0);
        let options = RecoverabilityOptions {
            symmetry: true,
            stats: true,
        };
        let (report, stats) =
            check_recoverability(&start, &env, &GreedyRepair::new(), 25, 25, &ctx, options)
                .unwrap();
        assert!(report.is_k_recoverable());
        assert_eq!(stats.unwrap().orbit_hits, report.cases as u64 - 25);
        for symmetry in [false, true] {
            let options = RecoverabilityOptions {
                symmetry,
                stats: false,
            };
            let err =
                check_recoverability(&start, &env, &GreedyRepair::new(), 26, 26, &ctx, options)
                    .unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::InvalidParameter {
                        name: "max_damage",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn unranking_matches_recursive_enumeration_order() {
        for (n, d) in [(1usize, 1usize), (3, 2), (5, 3), (6, 6), (7, 2), (8, 4)] {
            let mut expected: Vec<Vec<usize>> = Vec::new();
            let mut cur = Vec::new();
            enumerate_subsets(n, d, 0, &mut cur, &mut |s: &[usize]| {
                expected.push(s.to_vec());
            });
            let counts = SubsetCounts::new(n, d).unwrap();
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
                assert_eq!(
                    damaged.iter_ones().collect::<Vec<_>>(),
                    *want,
                    "damage bits track subset"
                );
            }
            // Predecessor walks the whole order backwards.
            let mut subset = Vec::new();
            let mut damaged = base.clone();
            counts.unrank_into(counts.total_nonempty() - 1, &mut subset, &mut damaged);
            for rank in (0..expected.len() - 1).rev() {
                counts.predecessor(&mut subset, &mut damaged);
                assert_eq!(subset, expected[rank], "n={n} d={d} rank={rank}");
                assert_eq!(damaged.iter_ones().collect::<Vec<_>>(), expected[rank]);
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
                        let fast = exhaustive(&start, env, strategy, d, k);
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
        let serial = exhaustive(&start, &env, &GreedyRepair::new(), 3, 2);
        for threads in [1usize, 2, 4, 7] {
            let (par, _) = check(
                &start,
                &env,
                &GreedyRepair::new(),
                3,
                2,
                threads,
                EXHAUSTIVE,
            );
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn non_deterministic_strategy_falls_back_to_reference() {
        // AnnealRepair's proposals depend on its internal call counter, so
        // the engine must route it through the sequential reference walk
        // for every thread budget and option, with no stats to return.
        let start = Config::ones(6);
        let env = AllOnes::new(6);
        let reference = recoverability_reference(&start, &env, &AnnealRepair::new(0.5, 7), 2, 6);
        for threads in [1, 4] {
            for (symmetry, stats) in [(false, false), (true, true)] {
                let options = RecoverabilityOptions { symmetry, stats };
                let (report, stats) = check(
                    &start,
                    &env,
                    &AnnealRepair::new(0.5, 7),
                    2,
                    6,
                    threads,
                    options,
                );
                assert_eq!(report, reference, "threads={threads} {options:?}");
                assert_eq!(stats, None);
            }
        }
    }

    #[test]
    fn engine_handles_wide_configs_beyond_direct_table() {
        // 70 bits exceeds both the direct table and the packed-u64 keys.
        let n = 70;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let fast = exhaustive(&start, &env, &GreedyRepair::new(), 2, 1);
        let slow = recoverability_reference(&start, &env, &GreedyRepair::new(), 2, 1);
        assert_eq!(fast, slow);
        assert_eq!(fast.cases, 70 + 70 * 69 / 2);
        assert!(!fast.is_k_recoverable());
    }

    #[test]
    fn stats_variant_matches_plain_report_and_counts_cache_traffic() {
        let n = 10;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let plain = exhaustive(&start, &env, &GreedyRepair::new(), 3, 3);
        let options = RecoverabilityOptions {
            symmetry: false,
            stats: true,
        };
        let (report, stats) = check(&start, &env, &GreedyRepair::new(), 3, 3, 1, options);
        let stats = stats.unwrap();
        assert_eq!(report, plain);
        // Every case probes the cache at least once up front; repair
        // walks that land on memoized states probe again mid-walk.
        assert!(stats.cache_hits + stats.cache_misses >= report.cases as u64);
        assert!(stats.states_explored > 0);
        // Overlapping damage patterns share repair paths, so the
        // transposition cache must see real traffic on this instance.
        assert!(stats.cache_hits > 0, "{stats:?}");
        assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
        // The rank walk settles no case by orbit multiplication.
        assert_eq!(stats.orbit_hits, 0);
    }

    /// The memo's bucket index is the hash's low bits. Every damaged key
    /// of the reference instance (`AllOnes(24)`, up to four flips) is
    /// all ones but for a few bits, and the fold must still spread them.
    #[test]
    fn fold_hasher_spreads_damaged_all_ones_keys() {
        let n = 24;
        let mut buckets: HashMap<u64, usize> = HashMap::new();
        let mut keys = 0;
        enumerate_subsets(n, 4, 0, &mut Vec::new(), &mut |damage: &[usize]| {
            let mut damaged = Config::ones(n);
            damage.iter().for_each(|&i| damaged.flip(i));
            let mut hasher = FoldHasher::default();
            hasher.write_u64(damaged.to_u64());
            *buckets.entry(hasher.finish() & 0x7fff).or_default() += 1;
            keys += 1;
        });
        assert_eq!(keys, 12_950);
        let fullest = buckets.values().copied().max().unwrap_or(0);
        assert!(fullest <= 8, "a 15-bit bucket holds {fullest} keys");
    }

    /// The reference instance's cache counters are a function of the
    /// walk and the partition, not of the memo's hasher.
    #[test]
    fn reference_instance_stats_are_pinned() {
        let n = 24;
        let options = RecoverabilityOptions {
            symmetry: false,
            stats: true,
        };
        let start = Config::ones(n);
        let (report, stats) = check(
            &start,
            &AllOnes::new(n),
            &GreedyRepair::new(),
            4,
            4,
            1,
            options,
        );
        assert_eq!(report.cases, 12_950);
        let stats = stats.unwrap();
        assert_eq!(
            (stats.cache_hits, stats.cache_misses, stats.states_explored),
            (12_885, 12_950, 31_899)
        );
    }

    #[test]
    fn parallel_stats_are_thread_invariant() {
        let n = 12;
        let start = Config::ones(n);
        let env = AllOnes::new(n);
        let serial = exhaustive(&start, &env, &GreedyRepair::new(), 3, 3);
        let options = RecoverabilityOptions {
            symmetry: false,
            stats: true,
        };
        let mut expect: Option<VerifyStats> = None;
        for threads in [1, 2, 4, 7] {
            let (report, stats) = check(&start, &env, &GreedyRepair::new(), 3, 3, threads, options);
            let stats = stats.unwrap();
            assert_eq!(report, serial, "threads={threads}");
            match &expect {
                None => expect = Some(stats),
                Some(first) => assert_eq!(stats, *first, "threads={threads}"),
            }
        }
    }

    #[test]
    fn hidden_shims_forward_to_the_rank_walk() {
        let start = Config::ones(9);
        let env = AtLeastOnes::new(9, 7);
        let ctx = RunContext::with_threads(0, 2);
        let greedy = GreedyRepair::new();
        let options = RecoverabilityOptions {
            symmetry: false,
            stats: true,
        };
        let (report, stats) = check(&start, &env, &greedy, 3, 1, 2, options);
        assert_eq!(
            is_k_recoverable_exhaustive_parallel(&start, &env, &greedy, 3, 1, &ctx),
            report
        );
        assert_eq!(
            is_k_recoverable_exhaustive_parallel_stats(&start, &env, &greedy, 3, 1, &ctx),
            (report, stats.unwrap())
        );
    }

    #[test]
    fn symmetric_matches_exhaustive_reports() {
        let n = 9;
        let start = Config::ones(n);
        let all = AllOnes::new(n);
        let atleast = AtLeastOnes::new(n, n - 2);
        let envs: [&dyn Constraint; 2] = [&all, &atleast];
        for env in envs {
            for (d, k) in [(2usize, 1usize), (3, 3), (4, 2)] {
                let (sym, stats) = symmetric(&start, env, &GreedyRepair::new(), d, k, 2);
                assert!(
                    stats.orbit_hits > 0,
                    "counting constraints declare symmetry"
                );
                let full = exhaustive(&start, env, &GreedyRepair::new(), d, k);
                assert_eq!(sym, full, "d={d} k={k}");
            }
        }
    }

    #[test]
    fn symmetric_counterexample_matches_reference() {
        let start = Config::ones(8);
        let env = AllOnes::new(8);
        let (sym, stats) = symmetric(&start, &env, &GreedyRepair::new(), 3, 2, 3);
        assert!(stats.orbit_hits > 0);
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
            let (report, stats) = symmetric(&start, &env, &GreedyRepair::new(), 3, 3, threads);
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
    fn symmetry_is_used_only_where_sound() {
        let start = Config::ones(8);
        let env = AllOnes::new(8);
        let full = exhaustive(&start, &env, &GreedyRepair::new(), 3, 3);
        let (sym, stats) = symmetric(&start, &env, &GreedyRepair::new(), 3, 3, 2);
        assert_eq!(sym, full);
        assert!(stats.orbit_hits > 0);
        // ExplicitSet declares no symmetry → the orbit walk is unsound and
        // the rank walk runs instead.
        let set: ExplicitSet = ["11111111".parse().unwrap(), "00000000".parse().unwrap()]
            .into_iter()
            .collect();
        let (sym, stats) = symmetric(&start, &set, &GreedyRepair::new(), 2, 2, 2);
        assert_eq!(sym, exhaustive(&start, &set, &GreedyRepair::new(), 2, 2));
        assert_eq!(stats.orbit_hits, 0);
        // Symmetry off never takes the orbit walk.
        let options = RecoverabilityOptions {
            symmetry: false,
            stats: true,
        };
        let (report, stats) = check(&start, &env, &GreedyRepair::new(), 3, 3, 2, options);
        assert_eq!(report, full);
        assert_eq!(stats.unwrap().orbit_hits, 0);
    }

    #[test]
    fn empty_report_is_recoverable() {
        let r = RecoverabilityReport {
            k: 1,
            cases: 0,
            recovered_within_k: 0,
            worst_steps: 0,
            counterexample: None,
        };
        assert!(r.is_k_recoverable());
    }
}
