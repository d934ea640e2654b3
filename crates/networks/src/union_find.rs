//! Disjoint-set union (union–find) with path halving and union by size —
//! the workhorse of the percolation analyses.

/// A union–find structure over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    largest: usize,
}

impl UnionFind {
    /// `n` singleton components.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            largest: usize::from(n > 0),
        }
    }

    /// Representative of `x`'s component.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            // Path halving.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merge the components of `a` and `b`; returns `true` if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        self.union_roots(ra, rb);
        ra != rb
    }

    /// Merge the components whose representatives are `ra` and `rb`
    /// (union by size) and return the merged representative — for
    /// callers that already hold both roots and would otherwise pay a
    /// second `find` per union.
    pub(crate) fn union_roots(&mut self, ra: usize, rb: usize) -> usize {
        debug_assert!(self.parent[ra] as usize == ra && self.parent[rb] as usize == rb);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra] < self.size[rb] {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        self.largest = self.largest.max(self.size[big] as usize);
        big
    }

    /// Whether `a` and `b` are in the same component.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of `x`'s component.
    pub fn component_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Size of the largest component (0 for an empty structure).
    pub fn largest_component(&self) -> usize {
        self.largest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.largest_component(), 1);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.component_size(3), 1);
    }

    #[test]
    fn unions_merge() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0)); // already merged
        assert!(uf.union(0, 2));
        assert!(uf.connected(1, 3));
        assert_eq!(uf.component_size(3), 4);
        assert_eq!(uf.largest_component(), 4);
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert_eq!(uf.largest_component(), 0);
    }

    proptest! {
        #[test]
        fn prop_component_sizes_sum_to_n(n in 1usize..80, ops in proptest::collection::vec((0usize..80, 0usize..80), 0..160)) {
            let mut uf = UnionFind::new(n);
            for (a, b) in ops {
                if a % n != b % n {
                    uf.union(a % n, b % n);
                }
            }
            let mut seen = std::collections::HashSet::new();
            let mut total = 0;
            for x in 0..n {
                let r = uf.find(x);
                if seen.insert(r) {
                    total += uf.component_size(r);
                }
            }
            prop_assert_eq!(total, n);
        }
    }
}
