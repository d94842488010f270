//! Disjoint-set (union-find) with path compression and min-root
//! linking.
//!
//! Used by [`crate::MergeStrategy::UnionFind`] — and a nod to the
//! disjoint-set parallel DBSCAN of Patwary et al. (SC'12), the baseline
//! the paper compares its cluster quality against.
//!
//! A union links the larger root under the smaller, so every root is
//! the smallest element of its set and [`DisjointSet::find`] returns a
//! key that names the set by its smallest member — the merge's group
//! key, with no second pass to compute it. Path compression alone keeps
//! `find` at amortized `O(log n)`.

/// Array-based disjoint set over `0..n` (`n < 2^32`).
#[derive(Debug, Clone)]
pub struct DisjointSet {
    parent: Vec<u32>,
    components: usize,
}

impl DisjointSet {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        let n32 = u32::try_from(n).expect("a disjoint set holds fewer than 2^32 elements");
        DisjointSet { parent: (0..n32).collect(), components: n }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set — its smallest element — with path
    /// compression.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // compress
        let mut cur = x;
        while self.parent[cur] as usize != root {
            cur = std::mem::replace(&mut self.parent[cur], root as u32) as usize;
        }
        root
    }

    /// Merge the sets of `a` and `b`, linking the larger root under the
    /// smaller; returns `true` if they were distinct. Elements that share
    /// a parent — `a == b`, or two elements already compressed onto one
    /// root — are answered from that one comparison.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        if self.parent[a] == self.parent[b] {
            return false;
        }
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo as u32;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut d = DisjointSet::new(4);
        assert_eq!(d.components(), 4);
        assert!(!d.connected(0, 1));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn union_connects_transitively() {
        let mut d = DisjointSet::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(d.connected(0, 2));
        assert_eq!(d.components(), 3);
        assert!(!d.union(0, 2), "already connected");
        assert_eq!(d.components(), 3);
    }

    #[test]
    fn find_is_stable_per_component() {
        let mut d = DisjointSet::new(6);
        d.union(0, 1);
        d.union(2, 3);
        d.union(1, 3);
        let r = d.find(0);
        for x in [1, 2, 3] {
            assert_eq!(d.find(x), r);
        }
        assert_ne!(d.find(4), r);
        // the representative is the component's smallest element,
        // whichever way the unions ran
        assert_eq!(r, 0);
        d.union(5, 4);
        assert_eq!((d.find(4), d.find(5)), (4, 4));
        d.union(5, 3);
        for x in 0..6 {
            assert_eq!(d.find(x), 0, "element {x}");
        }
    }

    #[test]
    fn long_chain_compresses() {
        let n = 1000;
        let mut d = DisjointSet::new(n);
        for i in 1..n {
            d.union(i - 1, i);
        }
        assert_eq!(d.components(), 1);
        assert!(d.connected(0, n - 1));
    }

    #[test]
    fn empty_set() {
        let d = DisjointSet::new(0);
        assert!(d.is_empty());
        assert_eq!(d.components(), 0);
    }
}
