//! Giant-component tracking across a sequence of alive sets.
//!
//! A simulation that scores the giant component every tick usually
//! changes only a handful of nodes between ticks, so rebuilding a
//! union–find over the whole graph each time repeats almost all of its
//! work. [`GiantTracker`] keeps the previous alive set and the giant's
//! member set, both [`Config`]s, and repairs the giant from the
//! word-level diff of the alive sets:
//!
//! * **Deaths.** The dead leave the giant. A multi-source search starts
//!   from the giant's surviving neighbours of the dead and runs inside
//!   the old giant, all searches advancing together from one queue.
//!   Searches that meet merge into one group; a group whose queue runs
//!   dry has explored a whole split-off fragment, which leaves the
//!   giant. The search stops as soon as at most one group is still
//!   running. This is exact: the old giant was connected, so every
//!   surviving member reaches one of the sources without crossing a
//!   dead node, and every member not in a dry fragment therefore lies
//!   in the one piece the running group belongs to. No node outside
//!   the old giant can border it.
//! * **Revivals.** A revived node with a neighbour in the giant pulls
//!   in its whole alive non-giant component.
//! * **Rebuild.** The tracker falls back to the full routine,
//!   [`Graph::giant_component`], when the repair would visit more
//!   neighbours than the graph's adjacency holds (more than a rebuild
//!   reads), when every search group runs dry, and whenever the giant
//!   holds no more than half the alive nodes. The last condition is what
//!   makes the tracked component the unique largest one: any other
//!   component is then strictly smaller, so repairing it stays exact.
//!   It also rebuilds at once, without trying a repair, when more than
//!   half the giant died or the revivals outnumber half the alive
//!   nodes: a repair that large cannot beat a rebuild, and a collapse's
//!   death search ends in one anyway.
//!
//! Scratch is one `u32` search label per node plus the two sets; the
//! search queue grows only with the nodes a repair visits.
//!
//! A [`GiantSnapshot`] is an owned copy of a tracker's state between
//! updates. A simulation that starts every run from the same alive set
//! computes that set's giant once, exports it with
//! [`GiantTracker::snapshot`], and starts each run's tracker from it
//! with [`GiantTracker::resume`] instead of rebuilding it per run.

use resilience_core::{BitIndexIter, Config};

use crate::graph::Graph;

/// One group of the death search: a union–find node over the groups
/// and how many of its queued nodes are still unexpanded (a group with
/// none left has run dry).
#[derive(Debug, Clone, Copy)]
struct Group {
    parent: u32,
    pending: u32,
}

/// Representative of group `g` (path halving).
fn find_group(groups: &mut [Group], mut g: u32) -> u32 {
    while groups[g as usize].parent != g {
        let grand = groups[groups[g as usize].parent as usize].parent;
        groups[g as usize].parent = grand;
        g = grand;
    }
    g
}

/// A [`GiantTracker`]'s state between two updates: the last alive set
/// and its tracked giant. Only a tracker makes one, so the members it
/// holds are always the giant a tracker computed for that alive set.
#[derive(Debug, Clone)]
pub struct GiantSnapshot {
    alive: Config,
    giant: Config,
    size: usize,
    alive_count: usize,
}

/// The size of a graph's giant component, kept up to date across
/// successive alive sets (see the [module docs](self)).
///
/// Alive sets are [`Config`]s over the graph's nodes: bit `v` set means
/// node `v` is alive.
///
/// ```
/// use resilience_core::Config;
/// use resilience_networks::{generators::ring_lattice, GiantTracker};
///
/// let ring = ring_lattice(100, 1);
/// let mut tracker = GiantTracker::new(&ring);
/// let mut alive = Config::ones(100);
/// assert_eq!(tracker.update(&alive), 100);
/// alive.clear(10); // one cut leaves a path
/// assert_eq!(tracker.update(&alive), 99);
/// alive.clear(30); // a second cut splits it 19 / 79
/// assert_eq!(tracker.update(&alive), 79);
/// ```
#[derive(Debug)]
pub struct GiantTracker<'g> {
    graph: &'g Graph,
    /// The alive set of the last update.
    alive: Config,
    /// Members of the tracked giant component.
    giant: Config,
    /// Number of members in `giant`.
    size: usize,
    /// Number of nodes in `alive`.
    alive_count: usize,
    /// Per node: 0, or 1 + the death-search group that reached it.
    label: Vec<u32>,
    /// The search queue; during the death search it also lists every
    /// labelled node, so the labels can be reset afterwards.
    queue: Vec<u32>,
    groups: Vec<Group>,
}

impl<'g> GiantTracker<'g> {
    /// A tracker over `graph`; the first update builds the giant from
    /// scratch.
    pub fn new(graph: &'g Graph) -> Self {
        GiantTracker {
            graph,
            alive: Config::zeros(graph.len()),
            giant: Config::zeros(graph.len()),
            size: 0,
            alive_count: 0,
            label: vec![0; graph.len()],
            queue: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// A tracker over `graph` that continues from `snapshot`, as if it
    /// were the tracker the snapshot was taken from: the next update
    /// diffs against the snapshot's alive set.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` was taken over a graph with another node
    /// count.
    pub fn resume(graph: &'g Graph, snapshot: &GiantSnapshot) -> Self {
        assert!(
            snapshot.alive.len() == graph.len(),
            "snapshot covers {} nodes but the graph has {}",
            snapshot.alive.len(),
            graph.len()
        );
        GiantTracker {
            graph,
            alive: snapshot.alive.clone(),
            giant: snapshot.giant.clone(),
            size: snapshot.size,
            alive_count: snapshot.alive_count,
            label: vec![0; graph.len()],
            queue: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// The tracker's state after its last update, for
    /// [`GiantTracker::resume`].
    pub fn snapshot(&self) -> GiantSnapshot {
        GiantSnapshot {
            alive: self.alive.clone(),
            giant: self.giant.clone(),
            size: self.size,
            alive_count: self.alive_count,
        }
    }

    /// Move to the alive set `alive` and return its giant-component
    /// size (0 if no node is alive).
    ///
    /// # Panics
    ///
    /// Panics if `alive` is not a set over exactly the graph's nodes.
    pub fn update(&mut self, alive: &Config) -> usize {
        assert!(
            alive.len() == self.graph.len(),
            "alive set has {} nodes but the graph has {}",
            alive.len(),
            self.graph.len()
        );
        if !(self.unique() && self.repair(alive)) {
            self.rebuild(alive);
        }
        self.alive.clone_from(alive);
        self.size
    }

    /// Whether the giant holds more than half the alive nodes, so it is
    /// the unique largest component and may be repaired; when not, the
    /// next update rebuilds.
    fn unique(&self) -> bool {
        2 * self.size > self.alive_count
    }

    /// Recompute the giant and its members with the full routine.
    fn rebuild(&mut self, alive: &Config) {
        self.size = self.graph.giant_members(alive, Some(&mut self.giant));
        self.alive_count = alive.count_ones();
    }

    /// Repair the giant from the diff against the last alive set.
    /// Returns `false` when the caller must rebuild instead; the
    /// tracker's state is then stale but the rebuild overwrites it.
    fn repair(&mut self, alive: &Config) -> bool {
        let budget = 2 * self.graph.edge_count();
        let mut visits = 0;
        let (mut giant_lost, mut revived) = (0, 0);
        self.alive_count = 0;
        let words = self.alive.words().iter().zip(alive.words());
        for ((&old, &new), &giant) in words.zip(self.giant.words()) {
            giant_lost += (giant & !new).count_ones() as usize;
            revived += (new & !old).count_ones() as usize;
            self.alive_count += new.count_ones() as usize;
        }
        if revived == 0 && 2 * (self.size - giant_lost) <= self.alive_count {
            // Without revivals the giant can only shrink: what is left of
            // it cannot hold more than half the alive nodes.
            return false;
        }
        if 2 * giant_lost > self.size || 2 * revived > self.alive_count {
            // A change this large is cheaper to rebuild than to repair.
            return false;
        }
        if giant_lost > 0 {
            if !self.split_off_fragments(alive, &mut visits, budget) {
                return false;
            }
            self.giant.intersect_with(alive);
            self.size -= giant_lost;
        }
        if revived > 0 && !self.absorb_revivals(alive, &mut visits, budget) {
            return false;
        }
        self.unique()
    }

    /// The death search: clear every split-off fragment of the old giant
    /// from `giant` (the dead themselves are cleared by the caller).
    /// Returns `false` if the search overran `budget` neighbour visits or
    /// every group ran dry.
    fn split_off_fragments(&mut self, alive: &Config, visits: &mut usize, budget: usize) -> bool {
        let graph = self.graph;
        let (giant, label) = (&self.giant, &mut self.label);
        // Surviving member of the old giant.
        let survivor = |w: usize| giant.get(w) && alive.get(w);
        self.queue.clear();
        self.groups.clear();
        let mut overran = false;
        let words = self.alive.words().iter().zip(alive.words());
        let dead_members = words.zip(giant.words());
        for d in BitIndexIter::new(dead_members.map(|((&old, &new), &g)| old & !new & g)) {
            if overran {
                break;
            }
            *visits += graph.degree(d);
            overran = *visits > budget;
            for &w in graph.neighbors(d) {
                let w = w as usize;
                if survivor(w) && label[w] == 0 {
                    let g = self.groups.len() as u32;
                    self.groups.push(Group {
                        parent: g,
                        pending: 1,
                    });
                    label[w] = g + 1;
                    self.queue.push(w as u32);
                }
            }
        }
        let mut running = self.groups.len();
        let mut head = 0;
        while running > 1 && !overran {
            // A running group has a queued node, so `head` is in range.
            let u = self.queue[head] as usize;
            head += 1;
            *visits += graph.degree(u);
            overran = *visits > budget;
            let r = find_group(&mut self.groups, label[u] - 1);
            for &w in graph.neighbors(u) {
                let w = w as usize;
                if !survivor(w) {
                    continue;
                }
                if label[w] == 0 {
                    label[w] = r + 1;
                    self.queue.push(w as u32);
                    self.groups[r as usize].pending += 1;
                    continue;
                }
                let other = find_group(&mut self.groups, label[w] - 1);
                if other != r {
                    // Two searches met: one group fewer is running
                    // (`r` is, since `u` is still counted).
                    self.groups[other as usize].parent = r;
                    let pending = self.groups[other as usize].pending;
                    if pending > 0 {
                        running -= 1;
                    }
                    self.groups[r as usize].pending += pending;
                }
            }
            self.groups[r as usize].pending -= 1;
            if self.groups[r as usize].pending == 0 {
                running -= 1;
            }
        }
        let repaired = running == 1 && !overran;
        for &u in &self.queue {
            let u = u as usize;
            if repaired {
                let g = find_group(&mut self.groups, label[u] - 1);
                if self.groups[g as usize].pending == 0 {
                    // A dry group: `u` lies in a split-off fragment.
                    self.giant.clear(u);
                    self.size -= 1;
                }
            }
            label[u] = 0;
        }
        repaired
    }

    /// Pull into the giant every alive non-giant component that a revived
    /// node joins to it. Returns `false` if that overran `budget`
    /// neighbour visits.
    fn absorb_revivals(&mut self, alive: &Config, visits: &mut usize, budget: usize) -> bool {
        let graph = self.graph;
        let words = self.alive.words().iter().zip(alive.words());
        let mut overran = false;
        for r in BitIndexIter::new(words.map(|(&old, &new)| new & !old)) {
            if overran {
                break;
            }
            if self.giant.get(r) {
                continue;
            }
            *visits += graph.degree(r);
            overran = *visits > budget;
            if !graph
                .neighbors(r)
                .iter()
                .any(|&w| self.giant.get(w as usize))
            {
                continue;
            }
            self.giant.set(r);
            self.size += 1;
            self.queue.clear();
            self.queue.push(r as u32);
            let mut head = 0;
            while head < self.queue.len() && !overran {
                let u = self.queue[head] as usize;
                head += 1;
                *visits += graph.degree(u);
                overran = *visits > budget;
                for &w in graph.neighbors(u) {
                    let w = w as usize;
                    if alive.get(w) && !self.giant.get(w) {
                        self.giant.set(w);
                        self.size += 1;
                        self.queue.push(w as u32);
                    }
                }
            }
        }
        !overran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, ring_lattice, TopologyKind};
    use proptest::prelude::*;
    use rand::Rng;
    use resilience_core::seeded_rng;
    use std::collections::VecDeque;

    /// Every alive component as a sorted member list, by plain BFS.
    fn components(graph: &Graph, alive: &[bool]) -> Vec<Vec<usize>> {
        let mut seen = vec![false; graph.len()];
        let mut out = Vec::new();
        for s in 0..graph.len() {
            if !alive[s] || seen[s] {
                continue;
            }
            seen[s] = true;
            let mut members = vec![s];
            let mut queue = VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &w in graph.neighbors(u) {
                    let w = w as usize;
                    if alive[w] && !seen[w] {
                        seen[w] = true;
                        members.push(w);
                        queue.push_back(w);
                    }
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// Update `tracker` to `alive` and check it, and the full routine,
    /// against the BFS oracle; a tracker that will repair next time must
    /// also hold exactly the members of the unique largest component.
    fn check(tracker: &mut GiantTracker, alive: &[bool]) -> Result<(), String> {
        let graph = tracker.graph;
        let comps = components(graph, alive);
        let want = comps.iter().map(Vec::len).max().unwrap_or(0);
        let set: Config = alive.iter().copied().collect();
        prop_assert_eq!(tracker.update(&set), want);
        prop_assert_eq!(graph.giant_component(&set), want);
        let alive_count = alive.iter().filter(|&&a| a).count();
        prop_assert_eq!(tracker.alive_count, alive_count);
        if tracker.unique() {
            let giant: Vec<usize> = tracker.giant.iter_ones().collect();
            prop_assert!(comps.contains(&giant), "tracked giant is not a component");
        }
        prop_assert!(tracker.label.iter().all(|&l| l == 0), "labels left set");
        Ok(())
    }

    /// A graph of `family`: scale-free, sparse random (many components,
    /// equal-size ties), small-world, empty, or a single node.
    fn graph(family: usize, n: usize, seed: u64) -> Graph {
        let kind = match family {
            0 => TopologyKind::ScaleFree {
                m: 1 + seed as usize % 3,
            },
            1 => TopologyKind::Random {
                mean_degree: 0.5 + (seed % 4) as f64 * 0.5,
            },
            2 => TopologyKind::SmallWorld { k: 4, beta: 0.1 },
            3 => return Graph::from_edges(0, &[]),
            _ => return Graph::from_edges(1, &[]),
        };
        Graph::generate(&kind, n, seed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn prop_tracker_matches_bfs_oracle(
            family in 0usize..5,
            n in 5usize..400,
            seed in any::<u64>(),
            steps in proptest::collection::vec((0u8..7, any::<u64>()), 1..40),
        ) {
            let graph = graph(family, n, seed);
            let n = graph.len();
            let mut tracker = GiantTracker::new(&graph);
            let mut alive = vec![true; n];
            check(&mut tracker, &alive)?;
            let start = tracker.snapshot();
            for (kind, step_seed) in steps {
                let mut rng = seeded_rng(step_seed);
                match kind {
                    // Single flips: the common tick, one death or revival.
                    0 | 1 if n > 0 => {
                        let flips = if kind == 0 { 1 } else { rng.gen_range(1..=n / 8 + 1) };
                        for _ in 0..flips {
                            let v = rng.gen_range(0..n);
                            alive[v] = !alive[v];
                        }
                    }
                    2 => alive.fill(false),
                    3 => alive.fill(true),
                    // Mass revival: most dead nodes come back at once.
                    4 => alive.iter_mut().for_each(|a| *a |= rng.gen_bool(0.8)),
                    // Mass death: an attack-sized batch of removals.
                    5 => alive.iter_mut().for_each(|a| *a &= rng.gen_bool(0.7)),
                    // Collapse: most of the giant dies, a few survive.
                    _ => alive.iter_mut().for_each(|a| *a &= rng.gen_bool(0.2)),
                }
                check(&mut tracker, &alive)?;
                // A tracker resumed from the all-alive state, and a fresh
                // one, reach the same giant in one update.
                check(&mut GiantTracker::resume(&graph, &start), &alive)?;
                check(&mut GiantTracker::new(&graph), &alive)?;
            }
        }
    }

    #[test]
    fn cuts_split_the_ring_and_revivals_rejoin_it() {
        let ring = ring_lattice(200, 1);
        let mut tracker = GiantTracker::new(&ring);
        let mut alive = vec![true; 200];
        check(&mut tracker, &alive).unwrap();
        for cut in [0, 20, 40, 41, 180] {
            alive[cut] = false;
            check(&mut tracker, &alive).unwrap();
            assert!(tracker.unique(), "the long arc stays the unique giant");
        }
        assert_eq!(tracker.size, 138);
        for revive in [41, 40, 20, 0, 180] {
            alive[revive] = true;
            check(&mut tracker, &alive).unwrap();
        }
        assert_eq!(tracker.size, 200);
    }

    #[test]
    fn ties_and_empty_sets_rebuild() {
        // Two equal halves: no unique giant, so every update rebuilds.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut tracker = GiantTracker::new(&g);
        check(&mut tracker, &[true; 4]).unwrap();
        assert!(!tracker.unique());
        check(&mut tracker, &[true, true, true, false]).unwrap();
        assert!(tracker.unique());
        check(&mut tracker, &[false; 4]).unwrap();
        assert_eq!(tracker.size, 0);
        let empty = Graph::from_edges(0, &[]);
        assert_eq!(GiantTracker::new(&empty).update(&Config::zeros(0)), 0);
    }

    #[test]
    fn a_hub_attack_falls_back_to_a_rebuild() {
        // Killing a star's hub leaves every leaf's search dry at once.
        let star = Graph::from_edges(50, &(1..50).map(|v| (0, v)).collect::<Vec<_>>());
        let mut tracker = GiantTracker::new(&star);
        let mut alive = vec![true; 50];
        check(&mut tracker, &alive).unwrap();
        alive[0] = false;
        check(&mut tracker, &alive).unwrap();
        assert_eq!(tracker.size, 1);
        let k8 = complete(8);
        let mut tracker = GiantTracker::new(&k8);
        check(&mut tracker, &[true; 8]).unwrap();
        check(
            &mut tracker,
            &[false, true, true, true, true, true, true, false],
        )
        .unwrap();
        assert_eq!(tracker.size, 6);
    }

    #[test]
    #[should_panic(expected = "snapshot covers 99 nodes but the graph has 100")]
    fn rejects_a_snapshot_of_another_graph() {
        let small = ring_lattice(99, 1);
        let mut tracker = GiantTracker::new(&small);
        tracker.update(&Config::ones(99));
        let snapshot = tracker.snapshot();
        GiantTracker::resume(&ring_lattice(100, 1), &snapshot);
    }

    #[test]
    #[should_panic(expected = "alive set has 99 nodes but the graph has 100")]
    fn rejects_an_alive_set_of_another_length() {
        // 99 and 100 nodes both fill two words.
        let ring = ring_lattice(100, 1);
        GiantTracker::new(&ring).update(&Config::ones(99));
    }
}
