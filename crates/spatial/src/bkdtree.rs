//! Bucketed kd-tree — the cache-conscious successor to [`crate::KdTree`].
//!
//! The node-per-point kd-tree pays one pointer chase *and* one random
//! dataset row fetch per visited node. This structure removes both costs:
//!
//! * **Leaf buckets**: recursion stops at `bucket_size` points (default
//!   64). A leaf owns a *contiguous block* of the tree's own coordinate
//!   array, scanned linearly by the lane-blocked kernels of
//!   [`crate::kernel`].
//! * **Implicit layout**: points are permuted into tree order at build
//!   time (`ids[pos] = original id`), so the whole traversal touches
//!   memory front-to-back. Internal nodes store only `(axis, split,
//!   right-child index)` in a flat `Vec`; the left child is the next
//!   node (`self + 1`), so descent never fetches dataset rows.
//! * **Zero-allocation queries**: traversal is iterative over a
//!   caller-provided reusable [`QueryScratch`]; the steady state neither
//!   allocates nor recurses.
//! * **One walk, masks out**: every range query is one depth-first walk
//!   ([`BkdTree::range_masks`]) that picks its leaf-scan arm once and
//!   records each scanned chunk's hit mask with the chunk's first tree
//!   position ([`HitMask`]) in the scratch. [`BkdTree::range_pruned_scratch`]
//!   and [`BkdTree::range_into_scratch`] are that walk plus decoding
//!   through [`BkdTree::tree_order`], and `count_within` is its hit
//!   count; the executors decode the masks in place. A `max_neighbors`
//!   cap cuts the mask that reaches it down to the bits up to the cap.
//! * **Split policy**: widest-spread axis with a median split
//!   (`select_nth_unstable`), which prunes better than the classic
//!   depth-cycling axis on skewed data and keeps the tree count-balanced
//!   regardless of coordinate distribution (duplicates included).
//! * **Parallel build**: sibling subtrees above [`PAR_CUTOFF`] points
//!   are built on scoped threads and spliced.
//!
//! Query results are mapped back through the permutation, so callers see
//! original [`PointId`]s — the index is a drop-in [`SpatialIndex`].
//! [`PruneConfig`] keeps the node-per-point semantics: pruned results
//! are always a subset of the exact result. A split prunes its far side
//! only when the query's distance to the split plane exceeds the
//! threshold; a NaN distance (a NaN query coordinate or split) prunes
//! nothing.

use crate::dataset::Dataset;
use crate::index::SpatialIndex;
use crate::kdtree::PruneConfig;
use crate::kernel::{KernelConfig, KernelCounters, KernelLayout, LeafScan};
use crate::metric::Metric;
use crate::point::PointId;
use std::cell::RefCell;
use std::sync::Arc;

/// Leaf capacity used by [`BkdTree::build`]. Median splits leave
/// 32–64-row leaves, two to four whole 16-lane groups of the SoA
/// kernel; 16-point leaves spent most of the scan on per-leaf overhead
/// and scalar remainder rows (EXPERIMENTS.md, "Leaf geometry").
pub const DEFAULT_BUCKET_SIZE: usize = 64;

/// Subtrees at least this large are built on their own scoped thread.
pub const PAR_CUTOFF: usize = 8 * 1024;

/// How the bulk build is run. The resulting tree is **structurally
/// identical** for every setting: median selection processes the same
/// sub-slices in the same way no matter which thread handles them, so
/// only wall-clock time changes. That invariant is what lets the driver
/// scale the build without perturbing a single downstream byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Worker threads the recursion may fan out to. `0` means "auto"
    /// (the host's available parallelism); `1` disables forking.
    pub threads: usize,
    /// Leaf capacity (see [`DEFAULT_BUCKET_SIZE`]).
    pub bucket_size: usize,
    /// Subtrees smaller than this build sequentially; this is also the
    /// shard boundary of [`BuildReport`], so the shard decomposition
    /// depends only on the data, never on `threads`.
    pub par_cutoff: usize,
    /// Query-kernel configuration the built tree will scan leaves with
    /// (the leaf data layout). Like `threads`, every value
    /// yields byte-identical query results; under
    /// [`KernelLayout::Lanes`] the build additionally materializes the
    /// dimension-major leaf blocks.
    pub kernel: KernelConfig,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            threads: 0,
            bucket_size: DEFAULT_BUCKET_SIZE,
            par_cutoff: PAR_CUTOFF,
            kernel: KernelConfig::default(),
        }
    }
}

impl BuildConfig {
    /// Set the worker thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the leaf capacity.
    pub fn with_bucket_size(mut self, bucket_size: usize) -> Self {
        self.bucket_size = bucket_size;
        self
    }

    /// Set the sequential cutoff / shard boundary.
    pub fn with_par_cutoff(mut self, par_cutoff: usize) -> Self {
        self.par_cutoff = par_cutoff;
        self
    }

    /// Set the query-kernel configuration.
    pub fn with_kernel(mut self, kernel: KernelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// The resolved worker count (`threads`, or the host parallelism
    /// when `threads == 0`).
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            t => t,
        }
    }

    /// Fork-depth budget: the recursion forks while `depth < budget`,
    /// giving at most `2^budget >= threads` concurrent builders.
    fn fork_budget(&self) -> usize {
        let t = self.effective_threads().max(1);
        (usize::BITS - (t - 1).leading_zeros()) as usize
    }
}

/// One sequentially-built subtree of the bulk build — the unit of work
/// the fork-join recursion dispatches. The decomposition is a pure
/// function of the data and [`BuildConfig::par_cutoff`]: a shard is a
/// maximal subtree with fewer than `par_cutoff` points (or the whole
/// tree when it is already that small).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildShard {
    /// First tree-order position of the shard's point range.
    pub offset: usize,
    /// Points in the shard.
    pub len: usize,
}

/// The shard decomposition of one bulk build. It depends only on the
/// data and [`BuildConfig::par_cutoff`], never on `threads`, so reports
/// of builds at different thread counts compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Sequentially-built shards, in tree order (left to right).
    pub shards: Vec<BuildShard>,
}

/// Longest-processing-time-first schedule length of `durs` on `k`
/// workers (the same model the engine's stage metrics use).
pub fn lpt_makespan_nanos(durs: impl Iterator<Item = u64>, k: usize) -> u64 {
    let mut durs: Vec<u64> = durs.collect();
    durs.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; k.max(1)];
    for d in durs {
        let min = loads.iter_mut().min().expect("at least one worker");
        *min += d;
    }
    loads.into_iter().max().unwrap_or(0)
}

const LEAF: u32 = u32::MAX;

/// One flat tree node. Internal nodes keep the split inline so descent
/// is pure `Vec` indexing; leaves address a contiguous coordinate block.
#[derive(Debug, Clone, Copy)]
struct BNode {
    /// `LEAF` for leaves, otherwise the split axis.
    axis: u32,
    /// Internal: flat index of the right child (the left child is always
    /// `self + 1`). Leaf: start of the point range in tree order.
    a: u32,
    /// Internal: unused. Leaf: end (exclusive) of the point range.
    b: u32,
    /// Internal: split coordinate. Leaf: unused.
    split: f64,
}

impl BNode {
    #[inline]
    fn is_leaf(self) -> bool {
        self.axis == LEAF
    }
}

/// The hits of one chunk of a leaf: bit `j` of `mask` is set iff the
/// point at tree-order position `pos + j` is within the query's radius.
/// A chunk holds at most 64 rows and never crosses a leaf's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitMask {
    /// Tree-order position of the chunk's first row.
    pub pos: u32,
    /// One bit per row of the chunk, set on a hit; never zero.
    pub mask: u64,
}

impl HitMask {
    /// The tree-order positions of the chunk's hits, ascending.
    #[inline]
    pub fn rows(self) -> impl Iterator<Item = usize> {
        let base = self.pos as usize;
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let j = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                base + j
            })
        })
    }
}

/// The lowest `k` set bits of `mask`: the hits a cap of `k` keeps.
#[inline]
fn lowest_bits(mask: u64, k: usize) -> u64 {
    let mut rest = mask;
    for _ in 0..k.min(64) {
        rest &= rest.wrapping_sub(1);
    }
    mask ^ rest
}

/// Reusable per-task traversal state. One instance per worker thread (or
/// per call site) makes the steady-state query path allocation-free: the
/// stacks and the mask buffer grow to their high-water sizes once and
/// are reused afterwards.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// DFS stack of node indices (range traversal).
    stack: Vec<u32>,
    /// DFS stack of (reduced-space lower bound, node) for nearest search.
    bounded: Vec<(f64, u32)>,
    /// The last range walk's hits as chunk masks, in walk order.
    masks: Vec<HitMask>,
    /// Kernel instrumentation accumulated by every scratch-taking query
    /// on this tree; the caller owns the reset/read cycle.
    pub counters: KernelCounters,
}

impl QueryScratch {
    /// Fresh scratch; buffers are grown lazily by the first queries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacity of the traversal stack — exposed so tests can
    /// assert the steady state stops allocating.
    pub fn stack_capacity(&self) -> usize {
        self.stack.capacity()
    }

    /// The last range walk's hits as chunk masks, in walk order: leaves
    /// in the order the walk scanned them, chunks in row order.
    pub fn hit_masks(&self) -> &[HitMask] {
        &self.masks
    }
}

thread_local! {
    /// Fallback scratch for the plain [`SpatialIndex`] entry points,
    /// which have no scratch parameter. Per-thread, so the trait methods
    /// are also allocation-free after warm-up.
    static TLS_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// A leaf-bucketed kd-tree over a shared [`Dataset`], with points stored
/// in tree order for linear leaf scans.
#[derive(Debug, Clone)]
pub struct BkdTree {
    dataset: Arc<Dataset>,
    /// Flat nodes; the root is node 0 (empty for an empty dataset).
    nodes: Vec<BNode>,
    /// Tree-order copy of the coordinates (row-major, `dim` per point).
    coords: Vec<f64>,
    /// Dimension-major (SoA) copy of each leaf's coordinate block: leaf
    /// `[start, end)` owns `soa[start * d..end * d]`, transposed so
    /// coordinate `k` of the leaf's point `i` sits at
    /// `start * d + k * (end - start) + i`. Empty under
    /// [`KernelLayout::Scalar`].
    soa: Vec<f64>,
    /// `ids[pos]` = original dataset index of tree-order position `pos`.
    ids: Vec<u32>,
    /// The inverse of `ids`: `pos_of[id]` = tree-order position of the
    /// original point `id`.
    pos_of: Vec<u32>,
    metric: Metric,
    bucket_size: usize,
    /// Leaf-scan kernel configuration the tree was built for.
    kernel: KernelConfig,
}

impl BkdTree {
    /// Build over every point with the Euclidean metric and the default
    /// bucket size.
    pub fn build(dataset: Arc<Dataset>) -> Self {
        Self::build_with(dataset, Metric::Euclidean, DEFAULT_BUCKET_SIZE)
    }

    /// Build with an explicit metric.
    pub fn build_with_metric(dataset: Arc<Dataset>, metric: Metric) -> Self {
        Self::build_with(dataset, metric, DEFAULT_BUCKET_SIZE)
    }

    /// Build with full control over metric and leaf capacity.
    pub fn build_with(dataset: Arc<Dataset>, metric: Metric, bucket_size: usize) -> Self {
        let cfg = BuildConfig::default().with_bucket_size(bucket_size);
        Self::build_with_config(dataset, metric, cfg)
    }

    /// Build under an explicit [`BuildConfig`].
    pub fn build_with_config(dataset: Arc<Dataset>, metric: Metric, cfg: BuildConfig) -> Self {
        Self::build_with_report(dataset, metric, cfg).0
    }

    /// Build under an explicit [`BuildConfig`] and return the
    /// [`BuildReport`] shard decomposition alongside the tree.
    pub fn build_with_report(
        dataset: Arc<Dataset>,
        metric: Metric,
        cfg: BuildConfig,
    ) -> (Self, BuildReport) {
        let bucket_size = cfg.bucket_size.max(1);
        let cutoff = cfg.par_cutoff.max(1);
        let threads = cfg.effective_threads().max(1);
        let n = dataset.len();
        let d = dataset.dim();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let (nodes, report) = if n == 0 {
            (Vec::new(), BuildReport::default())
        } else {
            build_rec(&dataset, &mut ids, 0, bucket_size, cutoff, cfg.fork_budget())
        };
        // materialize the permuted coordinate blocks the leaves scan;
        // each worker gathers a disjoint contiguous chunk
        let mut coords = vec![0.0f64; n * d];
        if n > 0 && d > 0 {
            let chunk = n.div_ceil(threads);
            if threads <= 1 {
                gather_coords(&dataset, &ids, &mut coords, d);
            } else {
                std::thread::scope(|s| {
                    for (cc, ic) in coords.chunks_mut(chunk * d).zip(ids.chunks(chunk)) {
                        s.spawn(|| gather_coords(&dataset, ic, cc, d));
                    }
                });
            }
        }
        // materialize the dimension-major leaf blocks the lane-blocked
        // kernels scan; per-leaf transposes over disjoint ranges, so the
        // leaf list chunks across the same workers
        let soa = if cfg.kernel.layout == KernelLayout::Lanes && n > 0 && d > 0 {
            build_soa(&nodes, &coords, d, threads)
        } else {
            Vec::new()
        };
        let mut pos_of = vec![0u32; n];
        for (pos, &id) in ids.iter().enumerate() {
            pos_of[id as usize] = pos as u32;
        }
        let kernel = cfg.kernel;
        (BkdTree { dataset, nodes, coords, soa, ids, pos_of, metric, bucket_size, kernel }, report)
    }

    /// Whether two trees are structurally identical: same flat node
    /// array (splits compared bitwise), same tree-order permutation,
    /// same permuted coordinates. The parallel build must satisfy this
    /// against the sequential build for every thread count. The kernel
    /// configuration (and the SoA mirror it may add) is deliberately
    /// excluded: it is derived data, a pure per-leaf transpose of
    /// `coords`.
    pub fn same_structure(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.coords.len() == other.coords.len()
            && self.coords.iter().zip(&other.coords).all(|(a, b)| a.to_bits() == b.to_bits())
            && self.nodes.len() == other.nodes.len()
            && self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
                a.axis == b.axis
                    && a.a == b.a
                    && a.b == b.b
                    && a.split.to_bits() == b.split.to_bits()
            })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The metric in use.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Leaf capacity this tree was built with.
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// The kernel configuration this tree was built for.
    pub fn kernel_config(&self) -> KernelConfig {
        self.kernel
    }

    /// The build permutation: `tree_order()[pos]` is the original id of
    /// the point stored at tree-order position `pos`.
    pub fn tree_order(&self) -> &[u32] {
        &self.ids
    }

    /// The inverse of [`BkdTree::tree_order`]: `tree_position()[id]` is
    /// the tree-order position of the original point `id`. State keyed
    /// by it sits in the order of the leaves, so a neighbourhood's
    /// entries fall on a few cache lines.
    pub fn tree_position(&self) -> &[u32] {
        &self.pos_of
    }

    /// Maximum node depth (root = 1); 0 for an empty tree. Iterative —
    /// safe for any tree shape.
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut deepest = 0usize;
        let mut stack: Vec<(u32, usize)> = vec![(0, 1)];
        while let Some((at, d)) = stack.pop() {
            deepest = deepest.max(d);
            let node = self.nodes[at as usize];
            if !node.is_leaf() {
                stack.push((at + 1, d + 1));
                stack.push((node.a, d + 1));
            }
        }
        deepest
    }

    /// Size in bytes of the tree in memory: nodes + permuted
    /// coordinates + the SoA leaf mirror + the id permutation and its
    /// inverse.
    pub fn size_bytes(&self) -> usize {
        self.shipped_bytes()
            + self.soa.len() * std::mem::size_of::<f64>()
            + std::mem::size_of_val(&self.pos_of)
            + self.pos_of.len() * std::mem::size_of::<u32>()
    }

    /// Bytes a broadcast of this tree logically ships (what broadcasting
    /// it would ship in a real cluster): nodes + permuted coordinates +
    /// the id permutation. Unlike [`BkdTree::size_bytes`] this excludes
    /// the SoA leaf mirror and [`BkdTree::tree_position`]: both are
    /// derived locally (a transposition of `coords`, the inverse of the
    /// permutation), rebuildable on the receiving side, so the shipped
    /// payload — and with it the trace — is identical across kernel
    /// layouts.
    pub fn shipped_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<BNode>()
            + self.coords.len() * std::mem::size_of::<f64>()
            + self.ids.len() * std::mem::size_of::<u32>()
            + (std::mem::size_of::<Self>() - std::mem::size_of_val(&self.pos_of))
    }

    /// The one range walk: an iterative depth-first descent that scans
    /// every leaf the query's ball reaches and records the hits as chunk
    /// masks in `scratch` ([`QueryScratch::hit_masks`]), in walk order.
    /// Returns `(visited nodes, hits)`.
    ///
    /// [`PruneConfig`] cuts the walk short: `max_visited` stops it
    /// before the node past the budget, and `max_neighbors = k` cuts the
    /// chunk mask that reaches the `k`-th hit down to the bits up to it
    /// and stops there. Either stop counts one early exit. A leaf counts
    /// its whole block in `rows_scanned`, stopped or not.
    fn walk(
        &self,
        query: &[f64],
        eps: f64,
        cfg: PruneConfig,
        scratch: &mut QueryScratch,
    ) -> (usize, usize) {
        debug_assert_eq!(query.len(), self.dataset.dim());
        let QueryScratch { stack, masks, counters, .. } = scratch;
        masks.clear();
        if self.nodes.is_empty() {
            return (0, 0);
        }
        let d = self.dataset.dim().max(1);
        let thr = self.metric.threshold(eps);
        let metric = self.metric;
        // the arm and its body are picked here, once per walk
        let scan = LeafScan::new(self.kernel.layout, metric, d, query, thr);
        let blocks = match self.kernel.layout {
            KernelLayout::Scalar => &self.coords,
            KernelLayout::Lanes => &self.soa,
        };
        // a cap of 0 still reports the first hit, as a per-hit stop would
        let cap = cfg.max_neighbors.map_or(usize::MAX, |k| k.max(1));
        let mut visited = 0usize;
        let mut hits = 0usize;
        stack.clear();
        stack.push(0);
        while let Some(at) = stack.pop() {
            if cfg.max_visited.is_some_and(|maxv| visited >= maxv) {
                counters.early_exits += 1;
                break;
            }
            visited += 1;
            let node = self.nodes[at as usize];
            if node.is_leaf() {
                let (start, end) = (node.a as usize, node.b as usize);
                counters.blocks_scanned += 1;
                counters.rows_scanned += (end - start) as u64;
                let finished =
                    scan.masks(&blocks[start * d..end * d], end - start, |base, mask| {
                        let pos = (start + base) as u32;
                        let left = cap - hits;
                        let found = mask.count_ones() as usize;
                        if found < left {
                            masks.push(HitMask { pos, mask });
                            hits += found;
                            true
                        } else {
                            masks.push(HitMask { pos, mask: lowest_bits(mask, left) });
                            hits = cap;
                            false
                        }
                    });
                if !finished {
                    counters.early_exits += 1;
                    break;
                }
            } else {
                let delta = query[node.axis as usize] - node.split;
                let (near, far) = if delta <= 0.0 { (at + 1, node.a) } else { (node.a, at + 1) };
                // push far first so the near side is explored first —
                // matters once budgets cut the walk short. A NaN delta (a
                // NaN query coordinate or split, or inf - inf) bounds
                // nothing: a NaN split says nothing of the rows on either
                // side
                if metric.axis_bound(delta) <= thr || delta.is_nan() {
                    stack.push(far);
                }
                stack.push(near);
            }
        }
        counters.range_hits += hits as u64;
        (visited, hits)
    }

    /// Range query that leaves its hits as chunk masks in `scratch`
    /// ([`QueryScratch::hit_masks`]) instead of a neighbour list; returns
    /// the hit count. The hits are the masks' rows decoded through
    /// [`BkdTree::tree_order`], which is exactly what
    /// [`BkdTree::range_pruned_scratch`] returns under the same `cfg`.
    pub fn range_masks(
        &self,
        query: &[f64],
        eps: f64,
        cfg: PruneConfig,
        scratch: &mut QueryScratch,
    ) -> usize {
        self.walk(query, eps, cfg, scratch).1
    }

    /// Exact eps-range query through caller-provided scratch. `out` is
    /// appended to, not cleared (buffer-reuse contract of
    /// [`SpatialIndex::range_into`]).
    pub fn range_into_scratch(
        &self,
        query: &[f64],
        eps: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<PointId>,
    ) {
        self.range_pruned_scratch(query, eps, PruneConfig::EXACT, scratch, out);
    }

    /// Pruned ("pruning branches") range query through caller-provided
    /// scratch; the result is a subset of the exact result. Returns the
    /// number of tree nodes visited. The walk's masks decoded into `out`.
    pub fn range_pruned_scratch(
        &self,
        query: &[f64],
        eps: f64,
        cfg: PruneConfig,
        scratch: &mut QueryScratch,
        out: &mut Vec<PointId>,
    ) -> usize {
        let (visited, hits) = self.walk(query, eps, cfg, scratch);
        out.reserve(hits);
        for h in &scratch.masks {
            out.extend(h.rows().map(|pos| PointId(self.ids[pos])));
        }
        visited
    }

    /// [`crate::KdTree::range_pruned`]-compatible entry point using the
    /// per-thread fallback scratch.
    pub fn range_pruned(
        &self,
        query: &[f64],
        eps: f64,
        cfg: PruneConfig,
        out: &mut Vec<PointId>,
    ) -> usize {
        TLS_SCRATCH.with(|s| self.range_pruned_scratch(query, eps, cfg, &mut s.borrow_mut(), out))
    }

    /// Nearest neighbour of `query` (ties broken arbitrarily); `None`
    /// for an empty tree. Returns `(id, distance)`. Iterative, through
    /// caller-provided scratch.
    pub fn nearest_scratch(
        &self,
        query: &[f64],
        scratch: &mut QueryScratch,
    ) -> Option<(PointId, f64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let d = self.dataset.dim().max(1);
        let metric = self.metric;
        let mut best = (PointId(0), f64::INFINITY);
        let stack = &mut scratch.bounded;
        stack.clear();
        stack.push((0.0, 0));
        while let Some((bound, at)) = stack.pop() {
            if bound > best.1 {
                continue; // the whole subtree is provably farther
            }
            let node = self.nodes[at as usize];
            if node.is_leaf() {
                let (start, end) = (node.a as usize, node.b as usize);
                let block = &self.coords[start * d..end * d];
                for (i, row) in block.chunks_exact(d).enumerate() {
                    let dist = metric.reduced_distance(query, row);
                    if dist < best.1 {
                        best = (PointId(self.ids[start + i]), dist);
                    }
                }
            } else {
                let delta = query[node.axis as usize] - node.split;
                let (near, far) = if delta <= 0.0 { (at + 1, node.a) } else { (node.a, at + 1) };
                stack.push((metric.axis_bound(delta), far));
                stack.push((bound, near));
            }
        }
        best.1 = match self.metric {
            Metric::Euclidean => best.1.sqrt(),
            _ => best.1,
        };
        Some(best)
    }

    /// Nearest neighbour using the per-thread fallback scratch.
    pub fn nearest(&self, query: &[f64]) -> Option<(PointId, f64)> {
        TLS_SCRATCH.with(|s| self.nearest_scratch(query, &mut s.borrow_mut()))
    }
}

impl SpatialIndex for BkdTree {
    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn range_into(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        TLS_SCRATCH.with(|s| self.range_into_scratch(query, eps, &mut s.borrow_mut(), out));
    }

    fn count_within(&self, query: &[f64], eps: f64) -> usize {
        // the walk's hit count: no neighbour list materialized
        TLS_SCRATCH.with(|s| self.walk(query, eps, PruneConfig::EXACT, &mut s.borrow_mut()).1)
    }

    fn name(&self) -> &'static str {
        "bucketed kd-tree"
    }
}

/// Gather the tree-order coordinate rows for one contiguous id chunk.
fn gather_coords(ds: &Dataset, ids: &[u32], out: &mut [f64], d: usize) {
    for (slot, &id) in out.chunks_exact_mut(d).zip(ids) {
        slot.copy_from_slice(ds.row(id as usize));
    }
}

/// Materialize the dimension-major mirror of every leaf's coordinate
/// block. Leaf ranges tile `[0, n)` contiguously in flat node order, so
/// the leaf list chunks across workers and each worker transposes a
/// disjoint `soa` slice.
fn build_soa(nodes: &[BNode], coords: &[f64], d: usize, threads: usize) -> Vec<f64> {
    let mut soa = vec![0.0f64; coords.len()];
    let leaves: Vec<(usize, usize)> =
        nodes.iter().filter(|n| n.is_leaf()).map(|n| (n.a as usize, n.b as usize)).collect();
    if threads <= 1 || leaves.len() < 2 {
        transpose_leaves(&leaves, coords, d, &mut soa, 0);
    } else {
        let per = leaves.len().div_ceil(threads);
        std::thread::scope(|s| {
            let mut rest: &mut [f64] = &mut soa;
            let mut consumed = 0usize;
            for chunk in leaves.chunks(per) {
                let start = chunk.first().expect("non-empty chunk").0;
                let end = chunk.last().expect("non-empty chunk").1;
                debug_assert_eq!(start, consumed, "leaves must tile [0, n) in node order");
                let (mine, tail) = rest.split_at_mut((end - start) * d);
                rest = tail;
                consumed = end;
                s.spawn(move || transpose_leaves(chunk, coords, d, mine, start));
            }
        });
    }
    soa
}

/// Transpose a run of leaves into an `out` slice that starts at
/// tree-order position `base`.
fn transpose_leaves(
    leaves: &[(usize, usize)],
    coords: &[f64],
    d: usize,
    out: &mut [f64],
    base: usize,
) {
    for &(start, end) in leaves {
        crate::kernel::transpose_block(
            &coords[start * d..end * d],
            d,
            &mut out[(start - base) * d..(end - base) * d],
        );
    }
}

/// Build the subtree over `ids` (a sub-slice of the global permutation,
/// starting at tree-order position `off`). Returns nodes with indices
/// relative to the returned vec (leaf point ranges are absolute) plus
/// the shard decomposition of this subtree.
///
/// Subtrees below `cutoff` are **shards**: built sequentially in one
/// unit. Above `cutoff` the recursion forks onto a scoped thread while
/// `par > 0`. The node layout is identical either way —
/// `select_nth_unstable_by` is deterministic for a given input slice,
/// and both children see the exact slices the sequential recursion
/// would, so the thread count can never change the tree.
fn build_rec(
    ds: &Dataset,
    ids: &mut [u32],
    off: usize,
    bucket: usize,
    cutoff: usize,
    par: usize,
) -> (Vec<BNode>, BuildReport) {
    let len = ids.len();
    if len < cutoff || len <= bucket {
        let nodes = build_seq(ds, ids, off, bucket);
        return (nodes, BuildReport { shards: vec![BuildShard { offset: off, len }] });
    }
    let axis = widest_axis(ds, ids);
    let mid = len / 2;
    ids.select_nth_unstable_by(mid, |&p, &q| {
        let vp = ds.row(p as usize)[axis];
        let vq = ds.row(q as usize)[axis];
        vp.total_cmp(&vq)
    });
    let split = ds.row(ids[mid] as usize)[axis];
    // left gets [0, mid) with values <= split, right gets [mid, len)
    // with values >= split; both strictly shrink, so the build
    // terminates even when every coordinate is identical
    let (lo, hi) = ids.split_at_mut(mid);
    let ((left, mut report), (mut right, rrep)) = if par > 0 {
        std::thread::scope(|s| {
            let lh = s.spawn(|| build_rec(ds, lo, off, bucket, cutoff, par - 1));
            let r = build_rec(ds, hi, off + mid, bucket, cutoff, par - 1);
            (lh.join().expect("subtree builder"), r)
        })
    } else {
        (
            build_rec(ds, lo, off, bucket, cutoff, par),
            build_rec(ds, hi, off + mid, bucket, cutoff, par),
        )
    };
    // shards stay in tree order, left before right
    report.shards.extend(rrep.shards);

    let mut nodes = Vec::with_capacity(1 + left.len() + right.len());
    let right_at = 1 + left.len() as u32;
    nodes.push(BNode { axis: axis as u32, a: right_at, b: 0, split });
    // splice the children, shifting their internal child links (leaf
    // ranges are already absolute)
    nodes.extend(left.into_iter().map(|mut n| {
        if !n.is_leaf() {
            n.a += 1;
        }
        n
    }));
    for n in &mut right {
        if !n.is_leaf() {
            n.a += right_at;
        }
    }
    nodes.extend(right);
    (nodes, report)
}

/// The plain sequential recursion (subtrees below the cutoff).
fn build_seq(ds: &Dataset, ids: &mut [u32], off: usize, bucket: usize) -> Vec<BNode> {
    let len = ids.len();
    if len <= bucket {
        return vec![BNode { axis: LEAF, a: off as u32, b: (off + len) as u32, split: 0.0 }];
    }
    let axis = widest_axis(ds, ids);
    let mid = len / 2;
    ids.select_nth_unstable_by(mid, |&p, &q| {
        let vp = ds.row(p as usize)[axis];
        let vq = ds.row(q as usize)[axis];
        vp.total_cmp(&vq)
    });
    let split = ds.row(ids[mid] as usize)[axis];
    let (lo, hi) = ids.split_at_mut(mid);
    let left = build_seq(ds, lo, off, bucket);
    let mut right = build_seq(ds, hi, off + mid, bucket);

    let mut nodes = Vec::with_capacity(1 + left.len() + right.len());
    let right_at = 1 + left.len() as u32;
    nodes.push(BNode { axis: axis as u32, a: right_at, b: 0, split });
    nodes.extend(left.into_iter().map(|mut n| {
        if !n.is_leaf() {
            n.a += 1;
        }
        n
    }));
    for n in &mut right {
        if !n.is_leaf() {
            n.a += right_at;
        }
    }
    nodes.extend(right);
    nodes
}

/// Axis with the widest coordinate spread over `ids`.
fn widest_axis(ds: &Dataset, ids: &[u32]) -> usize {
    let d = ds.dim();
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for &id in ids {
        for (axis, &v) in ds.row(id as usize).iter().enumerate() {
            lo[axis] = lo[axis].min(v);
            hi[axis] = hi[axis].max(v);
        }
    }
    let mut best = 0;
    let mut best_spread = f64::NEG_INFINITY;
    for axis in 0..d {
        let spread = hi[axis] - lo[axis];
        if spread > best_spread {
            best_spread = spread;
            best = axis;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;

    /// The leaf-level accessors the layout tests and the leaf-scan
    /// throughput floor sweep.
    impl BkdTree {
        /// The `[start, end)` tree-order point range of every leaf, in
        /// flat node order (which tiles `[0, len)` ascending).
        fn leaf_ranges(&self) -> Vec<(usize, usize)> {
            self.nodes
                .iter()
                .filter(|n| n.is_leaf())
                .map(|n| (n.a as usize, n.b as usize))
                .collect()
        }

        /// Row-major coordinate block of leaf `[start, end)`.
        fn leaf_coords(&self, start: usize, end: usize) -> &[f64] {
            let d = self.dataset.dim().max(1);
            &self.coords[start * d..end * d]
        }

        /// Dimension-major (SoA) coordinate block of leaf `[start, end)`;
        /// `None` under [`KernelLayout::Scalar`], which keeps no SoA mirror.
        fn leaf_soa(&self, start: usize, end: usize) -> Option<&[f64]> {
            if self.soa.is_empty() {
                return None;
            }
            let d = self.dataset.dim().max(1);
            Some(&self.soa[start * d..end * d])
        }
    }

    /// Tree-order range under node `at`, checking on the way that every
    /// internal node splits its points at `split` in `f64::total_cmp` order.
    fn check_splits(t: &BkdTree, at: usize) -> (usize, usize) {
        let node = t.nodes[at];
        if node.is_leaf() {
            return (node.a as usize, node.b as usize);
        }
        let (start, mid) = check_splits(t, at + 1);
        let (right_start, end) = check_splits(t, node.a as usize);
        assert_eq!(mid, right_start);
        let d = t.dataset.dim();
        let v = |pos: usize| t.coords[pos * d + node.axis as usize];
        assert!((start..mid).all(|p| v(p).total_cmp(&node.split).is_le()), "left of {at}");
        assert!((mid..end).all(|p| v(p).total_cmp(&node.split).is_ge()), "right of {at}");
        (start, end)
    }

    #[test]
    fn non_finite_coordinates_build_a_permutation() {
        for n in [1, 2, 40, 300] {
            let ds = Arc::new(Dataset::from_rows(crate::dataset::non_finite_rows(n)));
            for bucket in [1, 4, DEFAULT_BUCKET_SIZE] {
                let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, bucket);
                let mut perm = t.tree_order().to_vec();
                perm.sort_unstable();
                assert_eq!(perm, (0..n as u32).collect::<Vec<_>>(), "n={n} bucket={bucket}");
                assert_eq!(check_splits(&t, 0), (0, n));
                t.range(&[1.0, 2.0, 3.0], 4.0);
            }
        }
    }

    fn grid_dataset() -> Arc<Dataset> {
        let rows = (0..5).flat_map(|x| (0..5).map(move |y| vec![x as f64, y as f64])).collect();
        Arc::new(Dataset::from_rows(rows))
    }

    fn sorted(mut v: Vec<PointId>) -> Vec<PointId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_queries_safely() {
        let t = BkdTree::build(Arc::new(Dataset::empty(2)));
        let mut s = QueryScratch::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.range(&[0.0, 0.0], 1.0).is_empty());
        assert!(t.nearest_scratch(&[0.0, 0.0], &mut s).is_none());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn single_point() {
        let t = BkdTree::build(Arc::new(Dataset::from_rows(vec![vec![1.0, 1.0]])));
        assert_eq!(t.range(&[1.0, 1.0], 0.0), vec![PointId(0)]);
        assert!(t.range(&[2.0, 1.0], 0.5).is_empty());
        assert_eq!(t.nearest(&[5.0, 5.0]).unwrap().0, PointId(0));
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn matches_brute_force_on_grid_all_bucket_sizes() {
        let ds = grid_dataset();
        let bf = BruteForceIndex::new(ds.clone());
        for bucket in [1, 2, 4, 8, 32] {
            let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, bucket);
            for eps in [0.0, 0.5, 1.0, 1.5, 2.5, 10.0] {
                for (id, _) in ds.iter() {
                    let q = ds.point(id).to_vec();
                    assert_eq!(
                        sorted(t.range(&q, eps)),
                        sorted(bf.range(&q, eps)),
                        "bucket={bucket} eps={eps} q={q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn permutation_is_consistent() {
        let ds = grid_dataset();
        let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, 16);
        // tree_order is a permutation of 0..n
        let mut perm = t.tree_order().to_vec();
        perm.sort_unstable();
        assert_eq!(perm, (0..ds.len() as u32).collect::<Vec<_>>());
        // the permuted coordinate blocks match the original rows
        let d = ds.dim();
        for (pos, &id) in t.tree_order().iter().enumerate() {
            assert_eq!(&t.coords[pos * d..(pos + 1) * d], ds.row(id as usize));
        }
    }

    #[test]
    fn duplicate_points_all_reported() {
        let ds = Arc::new(Dataset::from_rows(vec![vec![3.0]; 70]));
        let t = BkdTree::build_with(ds, Metric::Euclidean, 4);
        assert_eq!(t.range(&[3.0], 0.0).len(), 70);
    }

    #[test]
    fn depth_is_logarithmic() {
        let rows = (0..4096).map(|i| vec![i as f64]).collect();
        let t = BkdTree::build_with(Arc::new(Dataset::from_rows(rows)), Metric::Euclidean, 16);
        // 4096 points / 16-point buckets = 256 leaves -> depth 9
        assert!(t.depth() <= 10, "depth {} too large", t.depth());
    }

    #[test]
    fn pruned_is_subset_of_exact() {
        let ds = grid_dataset();
        let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, 4);
        let exact = sorted(t.range(&[2.0, 2.0], 2.0));
        let mut s = QueryScratch::new();
        let mut pruned = Vec::new();
        t.range_pruned_scratch(
            &[2.0, 2.0],
            2.0,
            PruneConfig::cap_neighbors(3),
            &mut s,
            &mut pruned,
        );
        assert_eq!(pruned.len(), 3);
        for p in &pruned {
            assert!(exact.contains(p));
        }
    }

    #[test]
    fn visit_budget_limits_traversal() {
        let ds = grid_dataset();
        let t = BkdTree::build_with(ds, Metric::Euclidean, 2);
        let mut s = QueryScratch::new();
        let mut out = Vec::new();
        let cfg = PruneConfig { max_neighbors: None, max_visited: Some(3) };
        let visited = t.range_pruned_scratch(&[2.0, 2.0], 100.0, cfg, &mut s, &mut out);
        assert!(visited <= 3);
    }

    #[test]
    fn nearest_finds_closest_grid_point() {
        let ds = grid_dataset();
        let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, 16);
        let (id, d) = t.nearest(&[3.2, 1.9]).unwrap();
        assert_eq!(ds.point(id), &[3.0, 2.0]);
        assert!((d - (0.2f64 * 0.2 + 0.1 * 0.1).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn nearest_matches_brute_force_scan() {
        let rows: Vec<Vec<f64>> =
            (0..300).map(|i| vec![(i as f64 * 7.3) % 31.0, (i as f64 * 3.7) % 17.0]).collect();
        let ds = Arc::new(Dataset::from_rows(rows));
        let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, 8);
        let mut s = QueryScratch::new();
        for q in [[0.0, 0.0], [15.5, 8.2], [31.0, 17.0], [-3.0, 40.0]] {
            let (_, d) = t.nearest_scratch(&q, &mut s).unwrap();
            let best = (0..ds.len())
                .map(|i| crate::metric::euclidean(&q, ds.row(i)))
                .fold(f64::INFINITY, f64::min);
            assert!((d - best).abs() < 1e-9, "q={q:?}: got {d}, want {best}");
        }
    }

    #[test]
    fn manhattan_tree_matches_brute_force() {
        let ds = grid_dataset();
        let t = BkdTree::build_with(ds.clone(), Metric::Manhattan, 4);
        let bf = BruteForceIndex::with_metric(ds.clone(), Metric::Manhattan);
        for eps in [1.0, 2.0, 3.0] {
            let q = [2.0, 2.0];
            assert_eq!(sorted(t.range(&q, eps)), sorted(bf.range(&q, eps)));
        }
    }

    #[test]
    fn parallel_build_matches_sequential_layout_semantics() {
        // above PAR_CUTOFF the build forks; results must be identical to
        // querying brute force
        let n = PAR_CUTOFF * 2 + 37;
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i as f64 * 37.0) % 997.0, (i as f64 * 61.0) % 499.0]).collect();
        let ds = Arc::new(Dataset::from_rows(rows));
        let t = BkdTree::build(ds.clone());
        assert_eq!(t.len(), n);
        let mut perm = t.tree_order().to_vec();
        perm.sort_unstable();
        assert_eq!(perm.len(), n);
        assert!(perm.windows(2).all(|w| w[0] < w[1]), "permutation has duplicates");
        let bf = BruteForceIndex::new(ds.clone());
        let mut s = QueryScratch::new();
        for id in (0..n).step_by(997) {
            let q = ds.row(id).to_vec();
            let mut got = Vec::new();
            t.range_into_scratch(&q, 5.0, &mut s, &mut got);
            assert_eq!(sorted(got), sorted(bf.range(&q, 5.0)), "id={id}");
        }
    }

    #[test]
    fn steady_state_queries_do_not_allocate() {
        let rows: Vec<Vec<f64>> =
            (0..2000).map(|i| vec![(i as f64 * 13.0) % 101.0, (i as f64 * 29.0) % 103.0]).collect();
        let ds = Arc::new(Dataset::from_rows(rows));
        let t = BkdTree::build(ds.clone());
        let mut s = QueryScratch::new();
        let mut out = Vec::new();
        // warm-up: grow scratch and output buffers to their high-water marks
        for id in 0..200 {
            out.clear();
            t.range_into_scratch(ds.row(id), 10.0, &mut s, &mut out);
        }
        let stack_cap = s.stack_capacity();
        let out_cap = out.capacity();
        assert!(stack_cap > 0);
        // steady state: capacities must not move across many more queries
        for id in 0..2000 {
            out.clear();
            t.range_into_scratch(ds.row(id), 10.0, &mut s, &mut out);
            out.clear();
            t.range_into_scratch(ds.row(1999 - id), 3.0, &mut s, &mut out);
        }
        assert_eq!(s.stack_capacity(), stack_cap, "traversal stack reallocated");
        assert_eq!(out.capacity(), out_cap, "output buffer reallocated");
    }

    #[test]
    fn spatial_index_trait_entry_points() {
        let ds = grid_dataset();
        let t = BkdTree::build(ds.clone());
        let idx: &dyn SpatialIndex = &t;
        assert_eq!(idx.name(), "bucketed kd-tree");
        assert_eq!(idx.count_within(&[2.0, 2.0], 1.0), idx.range(&[2.0, 2.0], 1.0).len());
        assert_eq!(idx.dataset().len(), 25);
    }

    #[test]
    fn size_bytes_accounts_for_coords() {
        let t = BkdTree::build(grid_dataset());
        assert!(t.size_bytes() >= 25 * 2 * std::mem::size_of::<f64>());
    }

    fn scatter_dataset(n: usize) -> Arc<Dataset> {
        let rows =
            (0..n).map(|i| vec![(i as f64 * 37.0) % 211.0, (i as f64 * 53.0) % 197.0]).collect();
        Arc::new(Dataset::from_rows(rows))
    }

    #[test]
    fn parallel_build_is_structurally_identical() {
        let ds = scatter_dataset(3000);
        let base = BuildConfig::default().with_bucket_size(8).with_par_cutoff(64);
        let (seq, _) =
            BkdTree::build_with_report(ds.clone(), Metric::Euclidean, base.with_threads(1));
        for threads in [2, 3, 8] {
            let (par, _) = BkdTree::build_with_report(
                ds.clone(),
                Metric::Euclidean,
                base.with_threads(threads),
            );
            assert!(seq.same_structure(&par), "threads={threads}: tree structure diverged");
            assert_eq!(
                sorted(seq.range(&[100.0, 100.0], 30.0)),
                sorted(par.range(&[100.0, 100.0], 30.0)),
            );
        }
    }

    #[test]
    fn tree_position_inverts_tree_order_and_ships_nothing() {
        let ds = scatter_dataset(3000);
        let base = BuildConfig::default().with_bucket_size(8).with_par_cutoff(64);
        for threads in [1, 2, 3, 8] {
            for kernel in [KernelConfig::scalar(), KernelConfig::default()] {
                let cfg = base.with_threads(threads).with_kernel(kernel);
                let t = BkdTree::build_with_config(ds.clone(), Metric::Euclidean, cfg);
                let (order, position) = (t.tree_order(), t.tree_position());
                assert_eq!(position.len(), ds.len());
                for (pos, &id) in order.iter().enumerate() {
                    assert_eq!(position[id as usize] as usize, pos, "threads={threads}");
                }
                // the broadcast payload of this tree before the inverse
                // existed: derived state adds to `size_bytes` only
                assert_eq!(t.shipped_bytes(), 84_672, "threads={threads} {kernel:?}");
                let soa = if kernel == KernelConfig::scalar() { 0 } else { 3000 * 2 * 8 };
                let derived = soa + 3000 * 4 + std::mem::size_of::<Vec<u32>>();
                assert_eq!(t.size_bytes(), t.shipped_bytes() + derived);
            }
        }
    }

    #[test]
    fn build_report_accounts_for_the_whole_tree() {
        let ds = scatter_dataset(2000);
        let cfg = BuildConfig::default().with_bucket_size(8).with_par_cutoff(128).with_threads(1);
        let (t, rep) = BkdTree::build_with_report(ds.clone(), Metric::Euclidean, cfg);
        // shards tile [0, n) exactly, in tree order
        let mut at = 0usize;
        for s in &rep.shards {
            assert_eq!(s.offset, at, "shards must tile the permutation contiguously");
            assert!(s.len < 128, "shard at {} has len {} >= cutoff", s.offset, s.len);
            at += s.len;
        }
        assert_eq!(at, ds.len());
        assert!(rep.shards.len() > 1, "n=2000 cutoff=128 must split into many shards");
        assert!(t.len() == ds.len());
    }

    #[test]
    fn build_config_default_threads_and_fork_budgets() {
        // no env set in tests: default is auto
        assert_eq!(BuildConfig::default().threads, 0);
        assert!(BuildConfig::default().effective_threads() >= 1);
        assert_eq!(BuildConfig::default().with_threads(1).fork_budget(), 0);
        assert_eq!(BuildConfig::default().with_threads(2).fork_budget(), 1);
        assert_eq!(BuildConfig::default().with_threads(8).fork_budget(), 3);
        assert_eq!(BuildConfig::default().with_threads(5).fork_budget(), 3);
    }

    #[test]
    fn soa_mirror_transposes_every_leaf() {
        let ds = scatter_dataset(1500);
        let d = ds.dim();
        for threads in [1, 4] {
            let cfg = BuildConfig::default().with_bucket_size(8).with_threads(threads);
            let t = BkdTree::build_with_config(ds.clone(), Metric::Euclidean, cfg);
            assert_eq!(t.kernel_config().layout, KernelLayout::Lanes);
            let mut covered = 0usize;
            for (start, end) in t.leaf_ranges() {
                assert_eq!(start, covered, "leaves tile [0, n) in node order");
                covered = end;
                let rows = end - start;
                let block = t.leaf_coords(start, end);
                let soa = t.leaf_soa(start, end).expect("lanes layout keeps an SoA mirror");
                for i in 0..rows {
                    for k in 0..d {
                        assert_eq!(block[i * d + k].to_bits(), soa[k * rows + i].to_bits());
                    }
                }
            }
            assert_eq!(covered, ds.len());
        }
    }

    #[test]
    fn scalar_layout_keeps_no_soa_and_matches_lanes() {
        let ds = scatter_dataset(800);
        let lanes = BkdTree::build(ds.clone());
        let scalar = BkdTree::build_with_config(
            ds.clone(),
            Metric::Euclidean,
            BuildConfig::default().with_kernel(KernelConfig::scalar()),
        );
        assert!(scalar.leaf_soa(0, 1).is_none());
        assert!(lanes.same_structure(&scalar), "layout is derived data, structure identical");
        let mut s = QueryScratch::new();
        for id in (0..ds.len()).step_by(37) {
            let q = ds.row(id);
            for eps in [0.0, 5.0, 40.0] {
                let mut a = Vec::new();
                let mut b = Vec::new();
                lanes.range_into_scratch(q, eps, &mut s, &mut a);
                scalar.range_into_scratch(q, eps, &mut s, &mut b);
                // order and contents must match exactly, not just as sets
                assert_eq!(a, b, "id={id} eps={eps}");
            }
        }
    }

    #[test]
    fn query_counters_are_layout_invariant() {
        let ds = scatter_dataset(700);
        let lanes = BkdTree::build(ds.clone());
        let scalar = BkdTree::build_with_config(
            ds.clone(),
            Metric::Euclidean,
            BuildConfig::default().with_kernel(KernelConfig::scalar()),
        );
        let run = |t: &BkdTree| {
            let mut s = QueryScratch::new();
            let mut out = Vec::new();
            for id in 0..ds.len() {
                out.clear();
                t.range_into_scratch(ds.row(id), 12.0, &mut s, &mut out);
            }
            s.counters
        };
        let (a, b) = (run(&lanes), run(&scalar));
        assert_eq!(a, b, "blocks/rows/hits are defined over visited leaves, not layout");
        assert!(!a.is_zero());
        assert_eq!(a.early_exits, 0, "exact queries never exit early");
        // the counters are per query: a second pass through one reused
        // scratch adds exactly the same amount again
        let mut s = QueryScratch::new();
        let mut out = Vec::new();
        for _ in 0..2 {
            for id in 0..ds.len() {
                out.clear();
                lanes.range_into_scratch(ds.row(id), 12.0, &mut s, &mut out);
            }
        }
        let doubled = KernelCounters {
            blocks_scanned: 2 * a.blocks_scanned,
            rows_scanned: 2 * a.rows_scanned,
            range_hits: 2 * a.range_hits,
            early_exits: 0,
        };
        assert_eq!(s.counters, doubled, "a reused scratch accumulates, never resets");
    }

    /// The d = 10 floor of each chunk-scan body: its mask scan's speedup
    /// over the scalar arm's must reach 80% of the slowest of ten
    /// release runs on an AVX-512 host (EXPERIMENTS.md, "Mask hand-off").
    fn d10_floor(body: crate::kernel::Body) -> f64 {
        use crate::kernel::Body;
        match body {
            Body::Portable => 0.69,
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => 1.79,
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => 2.70,
        }
    }

    /// Leaf-scan throughput floor on the chunk masks the executors
    /// consume: every query swept over every leaf of a tree with the
    /// default build geometry, once through the scalar arm (row-major,
    /// masks built from per-row decisions) and once through each
    /// chunk-scan body the CPU runs (dimension-major), both recording
    /// every non-empty mask as the tree walk does, at d = 2..=6 and at
    /// c100k's d = 10. The detected body must reach 1.5x scalar at
    /// d in {2, 3, 4}, and every body its own floor at d = 10. The equal
    /// hit counts cross-check the arms and keep the scans from being
    /// optimized away.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "throughput floor is measured in release")]
    fn soa_leaf_scan_masks_meet_per_body_floors() {
        use crate::kernel::{Arm, Body, LeafScan};
        use std::time::Instant;
        let detected = Body::detect();
        println!("leaf scan body: {detected:?}");
        let queries = 192;
        let mut min_speedup_d2_4 = f64::INFINITY;
        let mut short = Vec::new();
        for dim in [2, 3, 4, 5, 6, 10] {
            // d = 10 is shaped like c100k: 12,800 points make 50-row
            // leaves, and the threshold keeps about a tenth of the rows
            // each query scans
            let n = if dim == 10 { 12_800 } else { 16_384 };
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..dim).map(|k| (((i * dim + k) as f64) * 0.711).sin() * 500.0).collect())
                .collect();
            let ds = Arc::new(Dataset::from_rows(rows));
            let t =
                BkdTree::build_with_config(ds.clone(), Metric::Euclidean, BuildConfig::default());
            let leaves = t.leaf_ranges();
            let qs: Vec<&[f64]> = (0..queries).map(|q| ds.row(q * 7919 % n)).collect();
            let thr = if dim == 10 {
                let mut d: Vec<f64> = qs
                    .iter()
                    .flat_map(|q| {
                        (0..n).step_by(13).map(|i| Metric::Euclidean.reduced_distance(q, ds.row(i)))
                    })
                    .collect();
                let tenth = d.len() / 10;
                *d.select_nth_unstable_by(tenth, f64::total_cmp).1
            } else {
                Metric::Euclidean.threshold(50.0)
            };
            let mut masks: Vec<HitMask> = Vec::new();
            let mut pass = |arm: Arm| {
                let mut hits = 0u64;
                let start = Instant::now();
                for q in &qs {
                    let scan = LeafScan::with_arm(arm, Metric::Euclidean, dim, q, thr);
                    masks.clear();
                    for &(s, e) in &leaves {
                        let block = match arm {
                            Arm::RowMajor => t.leaf_coords(s, e),
                            Arm::Chunked(_) => t.leaf_soa(s, e).expect("lanes layout mirror"),
                        };
                        scan.masks(block, e - s, |base, mask| {
                            masks.push(HitMask { pos: (s + base) as u32, mask });
                            true
                        });
                    }
                    hits += masks.iter().map(|h| u64::from(h.mask.count_ones())).sum::<u64>();
                }
                (start.elapsed().as_secs_f64(), hits)
            };
            // one warm-up pass per arm, then interleaved best-of-5: any
            // single pass can be descheduled on a shared CPU, so the
            // minimum over alternating passes is the stable estimate
            let arms: Vec<Arm> = std::iter::once(Arm::RowMajor)
                .chain(Body::runnable().into_iter().map(Arm::Chunked))
                .collect();
            let mut best = vec![(f64::INFINITY, 0u64); arms.len()];
            for round in 0..6 {
                for (slot, &arm) in best.iter_mut().zip(&arms) {
                    let (secs, hits) = pass(arm);
                    if round > 0 {
                        *slot = (slot.0.min(secs), hits);
                    }
                }
            }
            let (scalar_s, scalar_hits) = best[0];
            assert!(scalar_hits > 0, "the leaf scan found no hit at dim {dim}");
            let touched = (queries * n) as f64;
            println!(
                "leaf scan dim={dim}: scalar {:.1} Mrows/s ({} leaves, {:.3} hit ratio)",
                touched / scalar_s / 1e6,
                leaves.len(),
                scalar_hits as f64 / touched
            );
            for (&arm, &(secs, hits)) in arms.iter().zip(&best).skip(1) {
                let Arm::Chunked(body) = arm else {
                    unreachable!("arms after the first are bodies")
                };
                assert_eq!(hits, scalar_hits, "{body:?} disagrees with scalar at dim {dim}");
                let speedup = scalar_s / secs;
                println!("  {body:?}: {:.1} Mrows/s ({speedup:.2}x scalar)", touched / secs / 1e6);
                if dim <= 4 && body == detected {
                    min_speedup_d2_4 = min_speedup_d2_4.min(speedup);
                }
                if dim == 10 && speedup < d10_floor(body) {
                    short.push(format!("{body:?} {speedup:.2}x < {:.2}x", d10_floor(body)));
                }
            }
        }
        assert!(
            min_speedup_d2_4 >= 1.5,
            "{detected:?} mask scan {min_speedup_d2_4:.2}x scalar at d in {{2,3,4}} is below the 1.5x floor"
        );
        assert!(short.is_empty(), "d = 10 mask scans below their floors: {}", short.join(", "));
    }
}
