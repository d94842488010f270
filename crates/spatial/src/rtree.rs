//! Packed R-tree — the other index family the paper cites (Beckmann et
//! al.'s R*-tree is reference \[2\]).
//!
//! Bulk-loaded bottom-up by recursive median splits on the widest axis
//! (the classic packed/bulk-load construction), with `M`-point leaf
//! buckets and a bounding box per node. Range queries prune subtrees
//! whose box lies outside the query ball and — unlike our kd-tree —
//! report *whole subtrees without per-point tests* when the box lies
//! entirely inside the ball, which pays off at large `eps`.

use crate::aabb::Aabb;
use crate::dataset::Dataset;
use crate::index::SpatialIndex;
use crate::metric::Metric;
use crate::point::PointId;
use std::sync::Arc;

const LEAF_CAPACITY: usize = 16;

#[derive(Debug)]
enum Node {
    Leaf {
        aabb: Aabb,
        /// Range into `ids`.
        start: usize,
        end: usize,
    },
    Inner {
        aabb: Aabb,
        left: usize,
        right: usize,
        /// Range into `ids` covered by the whole subtree (for wholesale
        /// reporting).
        start: usize,
        end: usize,
    },
}

impl Node {
    fn aabb(&self) -> &Aabb {
        match self {
            Node::Leaf { aabb, .. } | Node::Inner { aabb, .. } => aabb,
        }
    }

    fn span(&self) -> (usize, usize) {
        match self {
            Node::Leaf { start, end, .. } | Node::Inner { start, end, .. } => (*start, *end),
        }
    }
}

/// A packed R-tree over a shared [`Dataset`].
#[derive(Debug)]
pub struct RTree {
    dataset: Arc<Dataset>,
    ids: Vec<u32>,
    nodes: Vec<Node>,
    root: Option<usize>,
    metric: Metric,
}

impl RTree {
    /// Bulk-load over every point of `dataset` (Euclidean metric).
    pub fn build(dataset: Arc<Dataset>) -> Self {
        Self::build_with_metric(dataset, Metric::Euclidean)
    }

    /// Bulk-load with an explicit metric.
    pub fn build_with_metric(dataset: Arc<Dataset>, metric: Metric) -> Self {
        let n = dataset.len();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::new();
        let root = if n == 0 { None } else { Some(build(&dataset, &mut ids, 0, n, &mut nodes)) };
        RTree { dataset, ids, nodes, root, metric }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Tree height (1 = a single leaf); 0 when empty.
    pub fn height(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 1,
                Node::Inner { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        self.root.map(|r| rec(&self.nodes, r)).unwrap_or(0)
    }

    fn report_all(&self, start: usize, end: usize, out: &mut Vec<PointId>) {
        out.extend(self.ids[start..end].iter().map(|&i| PointId(i)));
    }

    fn query_rec(&self, at: usize, query: &[f64], thr: f64, out: &mut Vec<PointId>) {
        let node = &self.nodes[at];
        let aabb = node.aabb();
        if aabb.min_reduced_distance(query, self.metric) > thr {
            return; // entirely outside the ball
        }
        if aabb.max_reduced_distance(query, self.metric) <= thr {
            // entirely inside: report wholesale, no per-point tests
            let (s, e) = node.span();
            self.report_all(s, e, out);
            return;
        }
        match node {
            Node::Leaf { start, end, .. } => {
                for &i in &self.ids[*start..*end] {
                    if self.metric.reduced_distance(query, self.dataset.row(i as usize)) <= thr {
                        out.push(PointId(i));
                    }
                }
            }
            Node::Inner { left, right, .. } => {
                self.query_rec(*left, query, thr, out);
                self.query_rec(*right, query, thr, out);
            }
        }
    }
}

/// Bounding box of the rows `ids` (non-empty). Built through
/// [`Aabb::from_points`], which, unlike [`Aabb::new`], accepts the NaN
/// bounds a non-finite coordinate leaves behind.
fn bounding(ds: &Dataset, ids: &[u32]) -> Aabb {
    let rows: Vec<f64> = ids.iter().flat_map(|&i| ds.row(i as usize)).copied().collect();
    Aabb::from_points(ds.dim(), &rows).expect("a node holds at least one point")
}

/// Recursive packed build over `ids[start..end]`; returns the node id.
fn build(ds: &Dataset, ids: &mut [u32], start: usize, end: usize, nodes: &mut Vec<Node>) -> usize {
    let slice = &ids[start..end];
    let aabb = bounding(ds, slice);
    if end - start <= LEAF_CAPACITY {
        nodes.push(Node::Leaf { aabb, start, end });
        return nodes.len() - 1;
    }
    // split at the median of the widest axis
    let axis = (0..ds.dim())
        .max_by(|&a, &b| {
            let wa = aabb.hi()[a] - aabb.lo()[a];
            let wb = aabb.hi()[b] - aabb.lo()[b];
            wa.total_cmp(&wb)
        })
        .unwrap_or(0);
    let mid = (end - start) / 2;
    ids[start..end].select_nth_unstable_by(mid, |&a, &b| {
        let va = ds.row(a as usize)[axis];
        let vb = ds.row(b as usize)[axis];
        va.total_cmp(&vb)
    });
    let left = build(ds, ids, start, start + mid, nodes);
    let right = build(ds, ids, start + mid, end, nodes);
    nodes.push(Node::Inner { aabb, left, right, start, end });
    nodes.len() - 1
}

impl SpatialIndex for RTree {
    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn range_into(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        debug_assert_eq!(query.len(), self.dataset.dim());
        if let Some(root) = self.root {
            self.query_rec(root, query, self.metric.threshold(eps), out);
        }
    }

    fn name(&self) -> &'static str {
        "packed-rtree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;

    #[test]
    fn non_finite_coordinates_build_a_permutation() {
        for n in [1, 2, 40, 300] {
            let t = RTree::build(Arc::new(Dataset::from_rows(crate::dataset::non_finite_rows(n))));
            let mut perm = t.ids.clone();
            perm.sort_unstable();
            assert_eq!(perm, (0..n as u32).collect::<Vec<_>>(), "n={n}");
            t.range(&[1.0, 2.0, 3.0], 4.0);
        }
    }

    fn grid() -> Arc<Dataset> {
        let rows = (0..9).flat_map(|x| (0..9).map(move |y| vec![x as f64, y as f64])).collect();
        Arc::new(Dataset::from_rows(rows))
    }

    fn sorted(mut v: Vec<PointId>) -> Vec<PointId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree() {
        let t = RTree::build(Arc::new(Dataset::empty(3)));
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.range(&[0.0, 0.0, 0.0], 5.0).is_empty());
    }

    #[test]
    fn matches_brute_force() {
        let ds = grid();
        let t = RTree::build(ds.clone());
        let bf = BruteForceIndex::new(ds.clone());
        for eps in [0.0, 0.5, 1.0, 2.5, 6.0, 20.0] {
            for (_, row) in ds.iter().step_by(7) {
                assert_eq!(sorted(t.range(row, eps)), sorted(bf.range(row, eps)), "eps={eps}");
            }
        }
    }

    #[test]
    fn wholesale_report_covers_everything_at_huge_eps() {
        let ds = grid();
        let t = RTree::build(ds.clone());
        let r = t.range(&[4.0, 4.0], 1000.0);
        assert_eq!(r.len(), 81);
    }

    #[test]
    fn height_is_logarithmic() {
        let rows = (0..4096).map(|i| vec![(i % 64) as f64, (i / 64) as f64]).collect();
        let t = RTree::build(Arc::new(Dataset::from_rows(rows)));
        // 4096 / 16 = 256 leaves -> height ~ 1 + log2(256) = 9
        assert!(t.height() <= 10, "height {}", t.height());
        assert_eq!(t.len(), 4096);
    }

    #[test]
    fn single_leaf_dataset() {
        let ds = Arc::new(Dataset::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]));
        let t = RTree::build(ds);
        assert_eq!(t.height(), 1);
        assert_eq!(t.range(&[2.0], 1.0).len(), 3);
    }

    #[test]
    fn manhattan_metric() {
        let ds = grid();
        let t = RTree::build_with_metric(ds.clone(), Metric::Manhattan);
        let bf = BruteForceIndex::with_metric(ds, Metric::Manhattan);
        for eps in [1.0, 2.0, 3.5] {
            assert_eq!(sorted(t.range(&[4.0, 4.0], eps)), sorted(bf.range(&[4.0, 4.0], eps)));
        }
    }

    #[test]
    fn duplicates_reported_each() {
        let ds = Arc::new(Dataset::from_rows(vec![vec![5.0, 5.0]; 40]));
        let t = RTree::build(ds);
        assert_eq!(t.range(&[5.0, 5.0], 0.0).len(), 40);
    }
}
