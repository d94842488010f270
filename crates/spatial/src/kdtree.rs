//! kd-tree (Bentley 1975) — the paper's spatial index.
//!
//! * Construction selects the median by `select_nth_unstable` at every
//!   level, giving a count-balanced tree in `O(n log n)` time and depth
//!   `O(log n)` even for adversarial inputs.
//! * Exact eps range queries prune subtrees with the splitting-plane
//!   bound; complexity is between `O(log n)` and `O(n^(1-1/d) + k)` per
//!   query, matching the bounds quoted in the paper (Kakde 2005).
//! * [`PruneConfig`] implements the paper's "kd-tree with pruning
//!   branches" used for the 1M-point experiments: the traversal stops
//!   early once enough neighbours are found and/or a node-visit budget is
//!   exhausted, trading exactness for speed. Pruned results are always a
//!   subset of the exact result (property-tested).

use crate::dataset::Dataset;
use crate::index::SpatialIndex;
use crate::metric::Metric;
use crate::point::PointId;
use std::sync::Arc;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Point stored at this node.
    id: u32,
    /// Splitting axis (depth % dim).
    axis: u32,
    /// Flat index of the left child, `NIL` if absent.
    left: u32,
    /// Flat index of the right child, `NIL` if absent.
    right: u32,
}

/// Early-termination knobs for approximate ("pruning branches") queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneConfig {
    /// Stop after reporting this many neighbours (`None` = unlimited).
    pub max_neighbors: Option<usize>,
    /// Stop after visiting this many tree nodes (`None` = unlimited).
    pub max_visited: Option<usize>,
}

impl PruneConfig {
    /// No pruning: equivalent to the exact query.
    pub const EXACT: PruneConfig = PruneConfig { max_neighbors: None, max_visited: None };

    /// The setting used for the paper's r1m runs: cap the neighbour list.
    pub fn cap_neighbors(k: usize) -> Self {
        PruneConfig { max_neighbors: Some(k), max_visited: None }
    }
}

/// A balanced kd-tree over a shared [`Dataset`].
#[derive(Debug, Clone)]
pub struct KdTree {
    dataset: Arc<Dataset>,
    nodes: Vec<Node>,
    root: u32,
    metric: Metric,
}

impl KdTree {
    /// Build over every point of `dataset` with the Euclidean metric.
    pub fn build(dataset: Arc<Dataset>) -> Self {
        Self::build_with_metric(dataset, Metric::Euclidean)
    }

    /// Build with an explicit metric.
    pub fn build_with_metric(dataset: Arc<Dataset>, metric: Metric) -> Self {
        let n = dataset.len();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(n);
        let root = if n == 0 { NIL } else { build_recursive(&dataset, &mut ids, 0, &mut nodes) };
        KdTree { dataset, nodes, root, metric }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The metric in use.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Maximum node depth (root = 1); 0 for an empty tree. A balanced
    /// build keeps this at `O(log n)`. Iterative, so even a degenerate
    /// (path-shaped) tree cannot overflow the call stack.
    pub fn depth(&self) -> usize {
        if self.root == NIL {
            return 0;
        }
        let mut deepest = 0usize;
        let mut stack: Vec<(u32, usize)> = vec![(self.root, 1)];
        while let Some((at, d)) = stack.pop() {
            deepest = deepest.max(d);
            let n = self.nodes[at as usize];
            if n.left != NIL {
                stack.push((n.left, d + 1));
            }
            if n.right != NIL {
                stack.push((n.right, d + 1));
            }
        }
        deepest
    }

    /// Logical size in bytes of the serialized tree (what broadcasting it
    /// would ship in a real cluster).
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>() + std::mem::size_of::<Self>()
    }

    /// Approximate range query with early termination (the paper's
    /// "pruning branches"). The result is a subset of the exact result.
    /// Returns the number of tree nodes visited.
    pub fn range_pruned(
        &self,
        query: &[f64],
        eps: f64,
        cfg: PruneConfig,
        out: &mut Vec<PointId>,
    ) -> usize {
        debug_assert_eq!(query.len(), self.dataset.dim());
        if self.root == NIL {
            return 0;
        }
        let mut walker = Walker {
            tree: self,
            query,
            thr: self.metric.threshold(eps),
            cfg,
            visited: 0,
            reported: 0,
            out,
        };
        walker.visit(self.root);
        walker.visited
    }

    /// Nearest neighbour of `query` (ties broken arbitrarily); `None` for
    /// an empty tree. Returns `(id, distance)`. Iterative over an
    /// explicit `(lower bound, node)` stack — the same shape as
    /// [`crate::BkdTree::nearest_scratch`] — so deep trees cannot
    /// overflow the call stack, and far subtrees pruned at *pop* time
    /// benefit from the best-so-far found after they were pushed.
    pub fn nearest(&self, query: &[f64]) -> Option<(PointId, f64)> {
        if self.root == NIL {
            return None;
        }
        let mut best = (PointId(0), f64::INFINITY);
        let mut stack: Vec<(f64, u32)> = vec![(0.0, self.root)];
        while let Some((bound, at)) = stack.pop() {
            if bound >= best.1 {
                continue; // the whole subtree is provably farther
            }
            let node = self.nodes[at as usize];
            let row = self.dataset.row(node.id as usize);
            let d = self.metric.reduced_distance(query, row);
            if d < best.1 {
                best = (PointId(node.id), d);
            }
            let axis = node.axis as usize;
            let delta = query[axis] - row[axis];
            let (near, far) =
                if delta <= 0.0 { (node.left, node.right) } else { (node.right, node.left) };
            if far != NIL {
                stack.push((self.metric.axis_bound(delta), far));
            }
            if near != NIL {
                stack.push((bound, near));
            }
        }
        best.1 = match self.metric {
            Metric::Euclidean => best.1.sqrt(),
            _ => best.1,
        };
        Some(best)
    }
}

fn build_recursive(ds: &Dataset, ids: &mut [u32], depth: usize, nodes: &mut Vec<Node>) -> u32 {
    debug_assert!(!ids.is_empty());
    let axis = depth % ds.dim();
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        let va = ds.row(a as usize)[axis];
        let vb = ds.row(b as usize)[axis];
        va.total_cmp(&vb)
    });
    let me = nodes.len() as u32;
    nodes.push(Node { id: ids[mid], axis: axis as u32, left: NIL, right: NIL });
    // split_at_mut to satisfy the borrow checker: [0, mid) left, (mid, len) right
    let (lo, rest) = ids.split_at_mut(mid);
    let hi = &mut rest[1..];
    let left = if lo.is_empty() { NIL } else { build_recursive(ds, lo, depth + 1, nodes) };
    let right = if hi.is_empty() { NIL } else { build_recursive(ds, hi, depth + 1, nodes) };
    nodes[me as usize].left = left;
    nodes[me as usize].right = right;
    me
}

/// Range-query traversal state, shared by exact and pruned queries
/// (the exact query is a pruned query with no limits).
struct Walker<'a> {
    tree: &'a KdTree,
    query: &'a [f64],
    thr: f64,
    cfg: PruneConfig,
    visited: usize,
    reported: usize,
    out: &'a mut Vec<PointId>,
}

impl Walker<'_> {
    /// Returns `false` once a budget is exhausted so ancestors stop too.
    fn visit(&mut self, at: u32) -> bool {
        if let Some(maxv) = self.cfg.max_visited {
            if self.visited >= maxv {
                return false;
            }
        }
        self.visited += 1;
        let node = self.tree.nodes[at as usize];
        let row = self.tree.dataset.row(node.id as usize);
        if self.tree.metric.reduced_distance(self.query, row) <= self.thr {
            self.out.push(PointId(node.id));
            self.reported += 1;
            if let Some(maxn) = self.cfg.max_neighbors {
                if self.reported >= maxn {
                    return false;
                }
            }
        }
        let axis = node.axis as usize;
        let delta = self.query[axis] - row[axis];
        let (near, far) =
            if delta <= 0.0 { (node.left, node.right) } else { (node.right, node.left) };
        if near != NIL && !self.visit(near) {
            return false;
        }
        if far != NIL && self.tree.metric.axis_bound(delta) <= self.thr && !self.visit(far) {
            return false;
        }
        true
    }
}

impl SpatialIndex for KdTree {
    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn range_into(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        self.range_pruned(query, eps, PruneConfig::EXACT, out);
    }

    fn name(&self) -> &'static str {
        "kd-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;

    #[test]
    fn non_finite_coordinates_build_a_permutation() {
        for n in [1, 2, 40, 300] {
            let t = KdTree::build(Arc::new(Dataset::from_rows(crate::dataset::non_finite_rows(n))));
            let mut perm: Vec<u32> = t.nodes.iter().map(|node| node.id).collect();
            perm.sort_unstable();
            assert_eq!(perm, (0..n as u32).collect::<Vec<_>>(), "n={n}");
            t.range(&[1.0, 2.0, 3.0], 4.0);
        }
    }

    fn grid_dataset() -> Arc<Dataset> {
        // 5x5 integer grid
        let rows = (0..5).flat_map(|x| (0..5).map(move |y| vec![x as f64, y as f64])).collect();
        Arc::new(Dataset::from_rows(rows))
    }

    fn sorted(mut v: Vec<PointId>) -> Vec<PointId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_queries_safely() {
        let t = KdTree::build(Arc::new(Dataset::empty(2)));
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.range(&[0.0, 0.0], 1.0).is_empty());
        assert!(t.nearest(&[0.0, 0.0]).is_none());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(Arc::new(Dataset::from_rows(vec![vec![1.0, 1.0]])));
        assert_eq!(t.range(&[1.0, 1.0], 0.0), vec![PointId(0)]);
        assert!(t.range(&[2.0, 1.0], 0.5).is_empty());
        assert_eq!(t.nearest(&[5.0, 5.0]).unwrap().0, PointId(0));
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn matches_brute_force_on_grid() {
        let ds = grid_dataset();
        let t = KdTree::build(ds.clone());
        let bf = BruteForceIndex::new(ds.clone());
        for eps in [0.0, 0.5, 1.0, 1.5, 2.5, 10.0] {
            for (id, _) in ds.iter() {
                let q = ds.point(id).to_vec();
                assert_eq!(
                    sorted(t.range(&q, eps)),
                    sorted(bf.range(&q, eps)),
                    "eps={eps} q={q:?}"
                );
            }
        }
    }

    #[test]
    fn count_within_matches_range() {
        let ds = grid_dataset();
        let t = KdTree::build(ds.clone());
        assert_eq!(t.count_within(&[2.0, 2.0], 1.0), t.range(&[2.0, 2.0], 1.0).len());
    }

    #[test]
    fn duplicate_points_all_reported() {
        let ds = Arc::new(Dataset::from_rows(vec![vec![3.0]; 7]));
        let t = KdTree::build(ds);
        assert_eq!(t.range(&[3.0], 0.0).len(), 7);
    }

    #[test]
    fn depth_is_logarithmic() {
        let rows = (0..1024).map(|i| vec![i as f64]).collect();
        let t = KdTree::build(Arc::new(Dataset::from_rows(rows)));
        // perfectly balanced depth for 1024 is 11; allow a little slack
        assert!(t.depth() <= 12, "depth {} too large", t.depth());
    }

    #[test]
    fn depth_is_logarithmic_with_duplicate_coordinate() {
        // all points share axis-0 values — median split must still balance
        let rows = (0..512).map(|i| vec![1.0, i as f64]).collect();
        let t = KdTree::build(Arc::new(Dataset::from_rows(rows)));
        assert!(t.depth() <= 11, "depth {} too large", t.depth());
    }

    #[test]
    fn pruned_is_subset_of_exact() {
        let ds = grid_dataset();
        let t = KdTree::build(ds.clone());
        let exact = sorted(t.range(&[2.0, 2.0], 2.0));
        let mut pruned = Vec::new();
        t.range_pruned(&[2.0, 2.0], 2.0, PruneConfig::cap_neighbors(3), &mut pruned);
        assert_eq!(pruned.len(), 3);
        for p in &pruned {
            assert!(exact.contains(p));
        }
    }

    #[test]
    fn pruned_with_no_limits_is_exact() {
        let ds = grid_dataset();
        let t = KdTree::build(ds.clone());
        let mut out = Vec::new();
        let visited = t.range_pruned(&[2.0, 2.0], 1.5, PruneConfig::EXACT, &mut out);
        assert!(visited > 0);
        assert_eq!(sorted(out), sorted(t.range(&[2.0, 2.0], 1.5)));
    }

    #[test]
    fn visit_budget_limits_traversal() {
        let ds = grid_dataset();
        let t = KdTree::build(ds);
        let mut out = Vec::new();
        let cfg = PruneConfig { max_neighbors: None, max_visited: Some(4) };
        let visited = t.range_pruned(&[2.0, 2.0], 100.0, cfg, &mut out);
        assert!(visited <= 4);
        assert!(out.len() <= 4);
    }

    #[test]
    fn nearest_finds_closest_grid_point() {
        let ds = grid_dataset();
        let t = KdTree::build(ds.clone());
        let (id, d) = t.nearest(&[3.2, 1.9]).unwrap();
        assert_eq!(ds.point(id), &[3.0, 2.0]);
        assert!((d - ((0.2f64 * 0.2 + 0.1 * 0.1).sqrt())).abs() < 1e-9);
    }

    #[test]
    fn manhattan_tree_matches_brute_force() {
        let ds = grid_dataset();
        let t = KdTree::build_with_metric(ds.clone(), Metric::Manhattan);
        let bf = BruteForceIndex::with_metric(ds.clone(), Metric::Manhattan);
        for eps in [1.0, 2.0, 3.0] {
            let q = [2.0, 2.0];
            assert_eq!(sorted(t.range(&q, eps)), sorted(bf.range(&q, eps)));
        }
    }

    #[test]
    fn query_point_not_in_dataset() {
        let ds = grid_dataset();
        let t = KdTree::build(ds);
        let r = t.range(&[2.5, 2.5], 0.8);
        // the 4 surrounding grid points are at distance sqrt(0.5) ≈ 0.707
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn size_bytes_positive() {
        let t = KdTree::build(grid_dataset());
        assert!(t.size_bytes() > 25 * std::mem::size_of::<u32>());
    }
}
