//! Executor-side local clustering with SEED placement — Algorithms 2
//! (lines 4–29) and 3 of the paper.
//!
//! The executor owns one contiguous index range. It expands clusters
//! with the usual queue-based DBSCAN, **but only through points it
//! owns**. A core point's neighborhood is settled as it leaves the
//! query: each *foreign* index goes straight through Algorithm 3 — it
//! is recorded as a SEED member (under the paper's
//! [`SeedPolicy::OnePerPartition`], the first time this cluster touches
//! that foreign partition) or skipped, and is never enqueued or
//! expanded — while own indices that still need work join the queue.
//! The queue is FIFO, so foreign points meet the policy in the order a
//! dequeue-time placement would see them, and every partial keeps the
//! same SEEDs. A partial's members are its regular points in claim
//! order, then its SEEDs in placement order. Neighborhoods are computed over the **full broadcast
//! dataset**, so core status is globally exact even though expansion
//! is local.
//!
//! Data structures: the paper's §III-B uses a Java `Hashtable` for
//! visited state and a `LinkedList` queue for candidates. We keep the
//! FIFO queue (`VecDeque`) but replace every hashtable with a **dense
//! stamped array**: visited/assigned flags indexed by local offset and
//! stamped per task, and Algorithm 3's SEED tables indexed by partition
//! or by global point and stamped per cluster. An `O(1)` array probe
//! beats hashing — and keeps per-point cost independent of partition
//! size (a `HashSet` sized to the whole partition penalizes the
//! 1-partition baseline through cache misses and would *inflate* the
//! reported speedups).

use crate::model::{PartialCluster, PartitionRanges};
use crate::params::DbscanParams;
use crate::partitioned::SeedPolicy;
use dbscan_spatial::{
    BkdTree, KernelConfig, KernelCounters, PointId, PruneConfig, QueryScratch, SpatialIndex,
};
use std::collections::VecDeque;
use std::mem::replace;

/// Instrumentation returned with each executor's result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Points of the own range processed at the top level.
    pub points_processed: usize,
    /// eps-neighborhood queries issued.
    pub neighbor_queries: usize,
    /// Total neighbors returned across all queries — the executor's
    /// real scan effort (what the cost planner predicts), unlike
    /// `neighbor_queries`, which just tracks partition size.
    pub neighbors_found: usize,
    /// Own points found noise at the top level (may become borders of
    /// other partitions' clusters after the merge).
    pub local_noise: usize,
    /// SEEDs placed across all partial clusters.
    pub seeds_placed: usize,
    /// Kernel-level instrumentation of the task's queries (leaf blocks
    /// scanned, rows of those blocks, hits, early exits). Unlike every
    /// field above — which is invariant across *all* kernel
    /// configurations — the counters legitimately shrink when the
    /// `min_pts` count fast path prunes traversals; compare through
    /// [`ExecutorStats::without_kernel`] in identity tests that enable
    /// it.
    pub kernel: KernelCounters,
}

impl ExecutorStats {
    /// This stats value with the kernel counters zeroed — the part
    /// that must be byte-identical across every kernel configuration,
    /// count fast path included.
    pub fn without_kernel(mut self) -> Self {
        self.kernel = KernelCounters::default();
        self
    }
}

/// One executor's output: its partial clusters, the core points it
/// certified, and stats.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalClustering {
    /// Partial clusters (with SEEDs), in creation order.
    pub clusters: Vec<PartialCluster>,
    /// Global indices of own points that are core points.
    pub core_points: Vec<u32>,
    /// Instrumentation.
    pub stats: ExecutorStats,
}

/// Reusable executor working state. Every array and buffer keeps its
/// high-water size across clusters, tasks and jobs, and the stamped
/// arrays are never cleared, so steady-state tasks allocate nothing but
/// their output.
#[derive(Debug, Default)]
pub struct ExecutorScratch {
    /// The stamp tables and queue an [`Expansion`] works on.
    marks: Marks,
    /// Neighborhood query buffer, reused across all queries.
    nbuf: Vec<PointId>,
    /// Frontier members that still need a neighborhood query this
    /// round (batched expansion).
    pending: Vec<u32>,
    /// Concatenated batch-query results.
    batch_out: Vec<PointId>,
    /// Per-pending-query (offset, len) into `batch_out`.
    spans: Vec<(u32, u32)>,
}

impl ExecutorScratch {
    /// Fresh scratch (first task pays the allocations).
    pub fn new() -> Self {
        Self::default()
    }

    /// High-water capacity of the visited array (test hook).
    pub fn capacity(&self) -> usize {
        self.marks.visited_epoch.len()
    }

    /// High-water length of the per-point SEED table (test hook).
    #[cfg(test)]
    fn seed_capacity(&self) -> usize {
        self.marks.seeded_point_stamp.len()
    }
}

/// The stamped arrays of Algorithms 2 and 3, the FIFO queue and the
/// open cluster's SEED buffer.
#[derive(Debug, Default)]
struct Marks {
    /// Current task epoch; `visited`/`assigned` entries are live iff
    /// stamped with it.
    epoch: u32,
    /// Own point at local offset `i` is visited iff
    /// `visited_epoch[i] == epoch`.
    visited_epoch: Vec<u32>,
    /// Own point `i` already belongs to a cluster of this task iff
    /// `assigned_epoch[i] == epoch` (first assignment wins; *which*
    /// cluster claimed it lives in the cluster's member list). An
    /// assigned point is always visited.
    assigned_epoch: Vec<u32>,
    /// FIFO expansion queue (Algorithm 2): own points only.
    queue: VecDeque<u32>,
    /// Monotonic per-cluster stamp, never reused across tasks or jobs,
    /// so the SEED tables below are never cleared: an entry belongs to
    /// the current cluster iff it holds the cluster's stamp.
    seed_stamp: u64,
    /// Algorithm 3's `place_flg`, one entry per partition
    /// ([`SeedPolicy::OnePerPartition`]).
    seeded_partition_stamp: Vec<u64>,
    /// One entry per global point ([`SeedPolicy::PerBoundaryEdge`]).
    seeded_point_stamp: Vec<u64>,
    /// SEEDs of the open cluster in placement order, appended to its
    /// members when it closes.
    seeds: Vec<u32>,
}

/// One task's expansion over its own range: the Algorithm 2/3 steps
/// shared by the scalar and the batched loop.
struct Expansion<'a> {
    marks: &'a mut Marks,
    ranges: &'a PartitionRanges,
    policy: SeedPolicy,
    epoch: u32,
    owner: u32,
    start: u32,
    end: u32,
}

impl<'a> Expansion<'a> {
    /// Start the task for `partition`: bump the epoch and grow (never
    /// shrink) the arrays.
    fn begin(
        marks: &'a mut Marks,
        ranges: &'a PartitionRanges,
        partition: usize,
        policy: SeedPolicy,
    ) -> Self {
        let (start, end) = ranges.range(partition);
        let local_n = (end - start) as usize;
        if marks.epoch == u32::MAX {
            // epoch wrap: hard-reset the stamps once every 2^32 tasks
            marks.visited_epoch.iter_mut().for_each(|s| *s = 0);
            marks.assigned_epoch.iter_mut().for_each(|s| *s = 0);
            marks.epoch = 0;
        }
        marks.epoch += 1;
        if marks.visited_epoch.len() < local_n {
            marks.visited_epoch.resize(local_n, 0);
            marks.assigned_epoch.resize(local_n, 0);
        }
        if marks.seeded_partition_stamp.len() < ranges.num_partitions() {
            marks.seeded_partition_stamp.resize(ranges.num_partitions(), 0);
        }
        if marks.seeded_point_stamp.len() < ranges.num_points() {
            marks.seeded_point_stamp.resize(ranges.num_points(), 0);
        }
        marks.queue.clear();
        let epoch = marks.epoch;
        Expansion { marks, ranges, policy, epoch, owner: partition as u32, start, end }
    }

    /// Mark own point `q` visited; whether it was unvisited.
    fn visit(&mut self, q: u32) -> bool {
        replace(&mut self.marks.visited_epoch[(q - self.start) as usize], self.epoch) != self.epoch
    }

    /// Algorithm 2 lines 13-22 for a dequeued own point: claim it for
    /// `cluster` unless a cluster already holds it (border-point claim),
    /// then visit it. Returns whether it still needs a query.
    fn claim(&mut self, q: u32, cluster: &mut PartialCluster) -> bool {
        let assigned = &mut self.marks.assigned_epoch[(q - self.start) as usize];
        if replace(assigned, self.epoch) != self.epoch {
            cluster.members.push(q);
        }
        self.visit(q)
    }

    /// Algorithm 2 line 8: a new cluster around the visited core point
    /// `p`, with a fresh SEED stamp.
    fn open(&mut self, p: u32) -> PartialCluster {
        self.marks.seed_stamp += 1;
        self.marks.seeds.clear();
        let mut cluster = PartialCluster::new(self.owner, (self.start, self.end));
        self.claim(p, &mut cluster);
        cluster
    }

    /// Finish `cluster`: its regulars in claim order, then its SEEDs in
    /// placement order.
    fn close(&mut self, mut cluster: PartialCluster, stats: &mut ExecutorStats) -> PartialCluster {
        stats.seeds_placed += self.marks.seeds.len();
        cluster.members.append(&mut self.marks.seeds);
        cluster
    }

    /// Admit a core point's neighborhood `nbrs` into the open cluster.
    /// A foreign index meets Algorithm 3 at once and becomes a SEED or
    /// nothing — "each executor only computes the points that belong
    /// to it". An own index is enqueued unless already claimed, since
    /// a claimed point has nothing left to do at dequeue.
    fn admit(&mut self, nbrs: &[PointId]) {
        let stamp = self.marks.seed_stamp;
        for &PointId(r) in nbrs {
            if r >= self.start && r < self.end {
                if self.marks.assigned_epoch[(r - self.start) as usize] != self.epoch {
                    self.marks.queue.push_back(r);
                }
                continue;
            }
            let seeded = match self.policy {
                SeedPolicy::OnePerPartition => {
                    &mut self.marks.seeded_partition_stamp[self.ranges.partition_of(r)]
                }
                SeedPolicy::PerBoundaryEdge => &mut self.marks.seeded_point_stamp[r as usize],
            };
            if replace(seeded, stamp) != stamp {
                self.marks.seeds.push(r);
            }
        }
    }
}

/// Where the executor gets eps-neighborhoods from. The object-level
/// contract is [`NeighborSource::neighbors_of`]; the batched and
/// count-only entry points have *defaults* expressed in terms of it, so
/// any closure source (via the blanket `FnMut` impl) works with every
/// expansion strategy, while [`TreeNeighborSource`] overrides them with
/// the genuinely shared-work tree paths.
pub trait NeighborSource {
    /// Append the eps-neighborhood of point `q` over the **whole**
    /// dataset to `out` (which arrives cleared). The reported order
    /// must be deterministic — it decides SEED placement.
    fn neighbors_of(&mut self, q: u32, out: &mut Vec<PointId>);

    /// Neighborhoods of a whole frontier chunk: `out` and `spans` are
    /// cleared, then `spans[i] = (offset, len)` addresses query `i`'s
    /// slice of `out`. Per query, contents and order must equal
    /// [`NeighborSource::neighbors_of`] exactly.
    fn neighbors_batch(
        &mut self,
        ids: &[u32],
        out: &mut Vec<PointId>,
        spans: &mut Vec<(u32, u32)>,
    ) {
        out.clear();
        spans.clear();
        for &q in ids {
            let off = out.len() as u32;
            self.neighbors_of(q, out);
            spans.push((off, out.len() as u32 - off));
        }
    }

    /// Neighbor count of `q`, allowed to stop once `cap` is reached;
    /// any returned value **below** `cap` must be the exact count. The
    /// default pays a full materialized query.
    fn count_up_to(&mut self, q: u32, cap: usize) -> usize {
        let _ = cap;
        let mut tmp = Vec::new();
        self.neighbors_of(q, &mut tmp);
        tmp.len()
    }
}

impl<F: FnMut(u32, &mut Vec<PointId>)> NeighborSource for F {
    fn neighbors_of(&mut self, q: u32, out: &mut Vec<PointId>) {
        self(q, out)
    }
}

/// The production [`NeighborSource`]: the broadcast [`BkdTree`] plus a
/// worker's [`QueryScratch`]. Batched queries go through
/// [`BkdTree::query_batch`] when the prune configuration is exact (the
/// only case where deferring leaf scans is sound); core-status probes
/// go through [`BkdTree::count_up_to`] under the same condition.
pub struct TreeNeighborSource<'a> {
    tree: &'a BkdTree,
    scratch: &'a mut QueryScratch,
    eps: f64,
    prune: PruneConfig,
    /// Scratch for the pruned-configuration `count_up_to` fallback,
    /// which must reproduce the capped materialized query's count.
    count_buf: Vec<PointId>,
}

impl<'a> TreeNeighborSource<'a> {
    /// Wrap a broadcast tree and per-worker query scratch.
    pub fn new(
        tree: &'a BkdTree,
        scratch: &'a mut QueryScratch,
        eps: f64,
        prune: PruneConfig,
    ) -> Self {
        TreeNeighborSource { tree, scratch, eps, prune, count_buf: Vec::new() }
    }
}

impl NeighborSource for TreeNeighborSource<'_> {
    fn neighbors_of(&mut self, q: u32, out: &mut Vec<PointId>) {
        let row = self.tree.dataset().point(PointId(q));
        self.tree.range_pruned_scratch(row, self.eps, self.prune, self.scratch, out);
    }

    fn neighbors_batch(
        &mut self,
        ids: &[u32],
        out: &mut Vec<PointId>,
        spans: &mut Vec<(u32, u32)>,
    ) {
        if self.prune == PruneConfig::EXACT {
            self.tree.query_batch(ids, self.eps, self.scratch, out, spans);
        } else {
            // pruned traversals carry per-query state; run them one at
            // a time with the exact scalar semantics
            out.clear();
            spans.clear();
            for &q in ids {
                let off = out.len() as u32;
                self.neighbors_of(q, out);
                spans.push((off, out.len() as u32 - off));
            }
        }
    }

    fn count_up_to(&mut self, q: u32, cap: usize) -> usize {
        let row = self.tree.dataset().point(PointId(q));
        if self.prune == PruneConfig::EXACT {
            self.tree.count_up_to(row, self.eps, cap, self.scratch)
        } else {
            // a pruned query's neighbor count is defined by the pruned
            // traversal itself — reproduce it exactly
            self.count_buf.clear();
            let buf = &mut self.count_buf;
            self.tree.range_pruned_scratch(row, self.eps, self.prune, self.scratch, buf);
            buf.len()
        }
    }
}

/// Run Algorithms 2+3 for one partition with throwaway scratch.
///
/// `neighbors_of(idx, out)` must append the eps-neighborhood of point
/// `idx` over the **whole** dataset (the broadcast kd-tree query); `out`
/// arrives cleared.
pub fn local_partial_clusters(
    neighbors_of: impl FnMut(u32, &mut Vec<PointId>),
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
) -> LocalClustering {
    let mut scratch = ExecutorScratch::new();
    local_partial_clusters_scratch(
        neighbors_of,
        params,
        ranges,
        partition,
        seed_policy,
        &mut scratch,
    )
}

/// [`local_partial_clusters`] against caller-owned scratch, the hot
/// path for executors that process many partitions: steady-state tasks
/// allocate nothing but the output itself.
pub fn local_partial_clusters_scratch(
    mut neighbors_of: impl FnMut(u32, &mut Vec<PointId>),
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
    scratch: &mut ExecutorScratch,
) -> LocalClustering {
    let ExecutorScratch { marks, nbuf, .. } = scratch;
    let mut x = Expansion::begin(marks, ranges, partition, seed_policy);
    let mut clusters: Vec<PartialCluster> = Vec::new();
    let mut core_points: Vec<u32> = Vec::new();
    let mut stats = ExecutorStats::default();

    for p in x.start..x.end {
        stats.points_processed += 1;
        if !x.visit(p) {
            continue;
        }
        nbuf.clear();
        neighbors_of(p, nbuf);
        stats.neighbor_queries += 1;
        stats.neighbors_found += nbuf.len();
        if nbuf.len() < params.min_pts {
            // Algorithm 2 line 9: "mark p as noise" (it may later be
            // claimed as a border point by an expanding cluster)
            stats.local_noise += 1;
            continue;
        }

        let mut cluster = x.open(p);
        core_points.push(p);
        x.admit(nbuf);
        while let Some(q) = x.marks.queue.pop_front() {
            if !x.claim(q, &mut cluster) {
                continue;
            }
            nbuf.clear();
            neighbors_of(q, nbuf);
            stats.neighbor_queries += 1;
            stats.neighbors_found += nbuf.len();
            if nbuf.len() >= params.min_pts {
                core_points.push(q);
                x.admit(nbuf);
            }
        }
        clusters.push(x.close(cluster, &mut stats));
    }

    LocalClustering { clusters, core_points, stats }
}

/// [`local_partial_clusters_scratch`] parameterized by a
/// [`NeighborSource`] and a [`KernelConfig`]: `kernel.batch > 0` drains
/// the BFS frontier in chunks and issues batched neighborhood queries;
/// `kernel.count_fast_path` settles non-core points with an early-exit
/// count instead of a materialized neighbor list. With both off this
/// *is* the scalar loop.
///
/// Every configuration is **byte-identical** to the scalar path — same
/// clusters, member order, core points, SEEDs and stats (fast path
/// excepted on [`ExecutorStats::kernel`] only):
///
/// * A chunk is claimed strictly in FIFO order, so member pushes and
///   visited/assigned transitions replay the scalar dequeue sequence;
///   expansions admit their neighborhoods in chunk order, exactly where
///   the scalar loop admits them, so SEEDs are placed in the same order.
/// * Deferring an expansion behind later chunk claims can only *drop*
///   enqueues the scalar path would also neutralize: admission rejects
///   claimed points, and such a point's scalar dequeue is a no-op.
/// * A non-core point's early-exit count never reaches `min_pts`, so it
///   is the exact neighborhood size — `neighbors_found` is unchanged.
///   Core points still pay the full query that drives expansion.
pub fn local_partial_clusters_source<S: NeighborSource>(
    source: &mut S,
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
    scratch: &mut ExecutorScratch,
    kernel: KernelConfig,
) -> LocalClustering {
    if kernel.batch == 0 && !kernel.count_fast_path {
        return local_partial_clusters_scratch(
            |q, out| source.neighbors_of(q, out),
            params,
            ranges,
            partition,
            seed_policy,
            scratch,
        );
    }

    let ExecutorScratch { marks, nbuf, pending, batch_out, spans } = scratch;
    let mut x = Expansion::begin(marks, ranges, partition, seed_policy);
    let chunk_cap = kernel.batch.max(1);
    let fast = kernel.count_fast_path;
    let mut clusters: Vec<PartialCluster> = Vec::new();
    let mut core_points: Vec<u32> = Vec::new();
    let mut stats = ExecutorStats::default();

    for p in x.start..x.end {
        stats.points_processed += 1;
        if !x.visit(p) {
            continue;
        }
        stats.neighbor_queries += 1;
        if fast {
            // probe first: noise points settle with their exact count
            // (exact because the cap was never reached) and skip the
            // materialized query entirely
            let cnt = source.count_up_to(p, params.min_pts);
            if cnt < params.min_pts {
                stats.neighbors_found += cnt;
                stats.local_noise += 1;
                continue;
            }
        }
        nbuf.clear();
        source.neighbors_of(p, nbuf);
        stats.neighbors_found += nbuf.len();
        if nbuf.len() < params.min_pts {
            stats.local_noise += 1;
            continue;
        }

        let mut cluster = x.open(p);
        core_points.push(p);
        x.admit(nbuf);
        while !x.marks.queue.is_empty() {
            // claim up to chunk_cap frontier items in FIFO order
            pending.clear();
            for _ in 0..chunk_cap {
                let Some(q) = x.marks.queue.pop_front() else { break };
                if x.claim(q, &mut cluster) {
                    pending.push(q);
                }
            }
            if fast {
                // count probes retire non-core points; survivors keep
                // their chunk order for the materialized batch below
                pending.retain(|&q| {
                    let cnt = source.count_up_to(q, params.min_pts);
                    if cnt < params.min_pts {
                        stats.neighbor_queries += 1;
                        stats.neighbors_found += cnt;
                    }
                    cnt >= params.min_pts
                });
            }
            if pending.is_empty() {
                continue;
            }
            source.neighbors_batch(pending, batch_out, spans);
            for (&q, &(off, len)) in pending.iter().zip(spans.iter()) {
                let span = &batch_out[off as usize..(off + len) as usize];
                stats.neighbor_queries += 1;
                stats.neighbors_found += span.len();
                if span.len() >= params.min_pts {
                    core_points.push(q);
                    x.admit(span);
                }
            }
        }
        clusters.push(x.close(cluster, &mut stats));
    }

    LocalClustering { clusters, core_points, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_spatial::{Dataset, KdTree, Metric, SpatialIndex};
    use std::sync::Arc;

    /// 1-d chain of points 1.0 apart: with eps=1.1 / minpts=2 the whole
    /// line is one density-connected cluster.
    fn chain_tree(n: usize) -> KdTree {
        let rows = (0..n).map(|i| vec![i as f64]).collect();
        KdTree::build(Arc::new(Dataset::from_rows(rows)))
    }

    fn run(
        tree: &KdTree,
        params: DbscanParams,
        ranges: &PartitionRanges,
        part: usize,
        policy: SeedPolicy,
    ) -> LocalClustering {
        let data = tree.dataset().clone();
        local_partial_clusters(
            |q, out| tree.range_into(data.point(PointId(q)), params.eps, out),
            params,
            ranges,
            part,
            policy,
        )
    }

    #[test]
    fn single_partition_matches_whole_clustering() {
        let tree = chain_tree(10);
        let params = DbscanParams::new(1.1, 2).unwrap();
        let ranges = PartitionRanges::new(10, 1);
        let local = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        assert_eq!(local.clusters.len(), 1);
        assert_eq!(local.clusters[0].len(), 10);
        assert_eq!(local.stats.seeds_placed, 0, "no foreign partitions exist");
        assert_eq!(local.core_points.len(), 10);
    }

    #[test]
    fn boundary_cluster_places_exactly_one_seed_paper_policy() {
        // chain split in two partitions: each side's cluster touches the
        // other side at exactly the boundary
        let tree = chain_tree(10);
        let params = DbscanParams::new(1.1, 2).unwrap();
        let ranges = PartitionRanges::new(10, 2);
        let left = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        assert_eq!(left.clusters.len(), 1);
        let seeds: Vec<u32> = left.clusters[0].seeds().collect();
        assert_eq!(seeds, vec![5], "one SEED into partition 1, the boundary point");
        let right = run(&tree, params, &ranges, 1, SeedPolicy::OnePerPartition);
        let rseeds: Vec<u32> = right.clusters[0].seeds().collect();
        assert_eq!(rseeds, vec![4]);
    }

    #[test]
    fn per_boundary_edge_policy_records_all_boundary_points() {
        // eps=2.1 reaches two points across the boundary
        let tree = chain_tree(10);
        let params = DbscanParams::new(2.1, 2).unwrap();
        let ranges = PartitionRanges::new(10, 2);
        let one = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        let all = run(&tree, params, &ranges, 0, SeedPolicy::PerBoundaryEdge);
        assert_eq!(one.clusters[0].seeds().count(), 1);
        assert_eq!(all.clusters[0].seeds().count(), 2, "points 5 and 6 both recorded");
    }

    #[test]
    fn foreign_points_are_never_expanded() {
        let tree = chain_tree(100);
        let params = DbscanParams::new(1.1, 2).unwrap();
        let ranges = PartitionRanges::new(100, 4);
        let local = run(&tree, params, &ranges, 1, SeedPolicy::OnePerPartition);
        // queries only for own 25 points (each visited once)
        assert_eq!(local.stats.neighbor_queries, 25);
        for c in &local.clusters {
            for r in c.regulars() {
                assert!(ranges.contains(1, r));
            }
        }
    }

    #[test]
    fn sparse_points_are_local_noise() {
        let rows = (0..8).map(|i| vec![i as f64 * 100.0]).collect();
        let tree = KdTree::build(Arc::new(Dataset::from_rows(rows)));
        let params = DbscanParams::new(1.0, 2).unwrap();
        let ranges = PartitionRanges::new(8, 2);
        let local = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        assert!(local.clusters.is_empty());
        assert_eq!(local.stats.local_noise, 4);
        assert!(local.core_points.is_empty());
    }

    #[test]
    fn two_separate_local_clusters_stay_separate() {
        // two dense blobs within one partition
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..5 {
            rows.push(vec![i as f64 * 0.1]);
        }
        for i in 0..5 {
            rows.push(vec![100.0 + i as f64 * 0.1]);
        }
        let tree = KdTree::build(Arc::new(Dataset::from_rows(rows)));
        let params = DbscanParams::new(0.5, 3).unwrap();
        let ranges = PartitionRanges::new(10, 1);
        let local = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        assert_eq!(local.clusters.len(), 2);
        assert_eq!(local.clusters[0].len(), 5);
        assert_eq!(local.clusters[1].len(), 5);
    }

    #[test]
    fn empty_partition_produces_nothing() {
        let tree = chain_tree(3);
        let params = DbscanParams::new(1.1, 2).unwrap();
        // 3 points over 5 partitions: some ranges are empty
        let ranges = PartitionRanges::new(3, 5);
        let local = run(&tree, params, &ranges, 1, SeedPolicy::OnePerPartition);
        assert!(local.stats.points_processed <= 1);
    }

    #[test]
    fn members_are_unique_within_a_cluster() {
        let tree = chain_tree(30);
        let params = DbscanParams::new(3.5, 2).unwrap(); // wide eps, heavy re-enqueueing
        let ranges = PartitionRanges::new(30, 3);
        for part in 0..3 {
            let local = run(&tree, params, &ranges, part, SeedPolicy::PerBoundaryEdge);
            for c in &local.clusters {
                let mut m = c.members.clone();
                m.sort_unstable();
                let before = m.len();
                m.dedup();
                assert_eq!(m.len(), before, "duplicate members in partition {part}");
            }
        }
    }

    #[test]
    fn reused_scratch_is_identical_to_fresh_scratch() {
        // one scratch driven through every partition of both policies,
        // repeatedly — outputs must match throwaway-scratch runs exactly
        let tree = chain_tree(60);
        let data = tree.dataset().clone();
        let params = DbscanParams::new(2.1, 2).unwrap();
        let ranges = PartitionRanges::new(60, 4);
        let mut scratch = ExecutorScratch::new();
        for _round in 0..3 {
            for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                for part in 0..4 {
                    let fresh = run(&tree, params, &ranges, part, policy);
                    let reused = local_partial_clusters_scratch(
                        |q, out| tree.range_into(data.point(PointId(q)), params.eps, out),
                        params,
                        &ranges,
                        part,
                        policy,
                        &mut scratch,
                    );
                    assert_eq!(fresh, reused, "partition {part} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn scratch_grows_to_high_water_and_stays() {
        let tree = chain_tree(40);
        let data = tree.dataset().clone();
        let params = DbscanParams::new(1.1, 2).unwrap();
        let mut scratch = ExecutorScratch::new();
        let go = |parts: usize, part: usize, scratch: &mut ExecutorScratch| {
            let ranges = PartitionRanges::new(40, parts);
            local_partial_clusters_scratch(
                |q, out| tree.range_into(data.point(PointId(q)), params.eps, out),
                params,
                &ranges,
                part,
                SeedPolicy::OnePerPartition,
                scratch,
            )
        };
        go(4, 0, &mut scratch); // local_n = 10
        assert_eq!(scratch.capacity(), 10);
        go(2, 1, &mut scratch); // local_n = 20: grows
        assert_eq!(scratch.capacity(), 20);
        go(8, 3, &mut scratch); // local_n = 5: keeps high-water capacity
        assert_eq!(scratch.capacity(), 20);
        // the per-point SEED table spans the whole dataset and keeps its
        // high-water length when a smaller dataset follows
        assert_eq!(scratch.seed_capacity(), 40);
        for (n, len) in [(60usize, 60usize), (25, 60)] {
            let tree = chain_tree(n);
            let ranges = PartitionRanges::new(n, 3);
            let fresh = run(&tree, params, &ranges, 1, SeedPolicy::PerBoundaryEdge);
            let reused = local_partial_clusters_scratch(
                |q, out| tree.range_into(tree.dataset().point(PointId(q)), params.eps, out),
                params,
                &ranges,
                1,
                SeedPolicy::PerBoundaryEdge,
                &mut scratch,
            );
            assert_eq!(fresh, reused, "n={n}");
            assert_eq!(scratch.seed_capacity(), len, "n={n}");
        }
    }

    /// A mildly adversarial 2-d mixture: two dense blobs, a bridge of
    /// chained points between them, and a few isolated noise points.
    fn blob_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..12 {
            rows.push(vec![(i % 4) as f64 * 0.4, (i / 4) as f64 * 0.4]);
        }
        for i in 0..9 {
            rows.push(vec![2.0 + i as f64 * 0.9, 0.5]);
        }
        for i in 0..12 {
            rows.push(vec![11.0 + (i % 3) as f64 * 0.4, (i / 3) as f64 * 0.4]);
        }
        for i in 0..4 {
            rows.push(vec![50.0 + i as f64 * 40.0, -30.0]);
        }
        rows
    }

    fn run_kernel(
        tree: &KdTree,
        params: DbscanParams,
        ranges: &PartitionRanges,
        part: usize,
        policy: SeedPolicy,
        kernel: KernelConfig,
    ) -> LocalClustering {
        let data = tree.dataset().clone();
        let mut scratch = ExecutorScratch::new();
        let mut source = |q: u32, out: &mut Vec<PointId>| {
            tree.range_into(data.point(PointId(q)), params.eps, out)
        };
        local_partial_clusters_source(
            &mut source,
            params,
            ranges,
            part,
            policy,
            &mut scratch,
            kernel,
        )
    }

    #[test]
    fn batched_frontier_is_identical_to_scalar_for_every_chunk_size() {
        let datasets = [chain_tree(37), KdTree::build(Arc::new(Dataset::from_rows(blob_rows())))];
        for tree in &datasets {
            let n = tree.dataset().len();
            let params = DbscanParams::new(1.1, 3).unwrap();
            for parts in [1usize, 3] {
                let ranges = PartitionRanges::new(n, parts);
                for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                    for part in 0..parts {
                        let scalar = run(tree, params, &ranges, part, policy);
                        for batch in [1usize, 2, 3, 7, 64] {
                            let kernel = KernelConfig::default().with_batch(batch);
                            let batched = run_kernel(tree, params, &ranges, part, policy, kernel);
                            assert_eq!(
                                scalar, batched,
                                "batch={batch} part={part}/{parts} {policy:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn count_fast_path_is_identical_to_scalar() {
        // closure sources answer count_up_to with a full materialized
        // query, so the fast path must reproduce the scalar stats and
        // clustering exactly — alone and combined with batching
        let tree = KdTree::build(Arc::new(Dataset::from_rows(blob_rows())));
        let n = tree.dataset().len();
        let params = DbscanParams::new(1.1, 4).unwrap();
        let ranges = PartitionRanges::new(n, 2);
        for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
            for part in 0..2 {
                let scalar = run(&tree, params, &ranges, part, policy);
                for batch in [0usize, 3] {
                    let kernel =
                        KernelConfig::default().with_batch(batch).with_count_fast_path(true);
                    let fast = run_kernel(&tree, params, &ranges, part, policy, kernel);
                    assert_eq!(scalar, fast, "batch={batch} part={part} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn tree_neighbor_source_matches_closure_source() {
        // the real executor-side source (BkdTree + QueryScratch, batched
        // leaf scans, early-exit counting) against a plain closure over
        // the same tree — neighbor order, hence member order, must match
        let ds = Arc::new(Dataset::from_rows(blob_rows()));
        // 16-point leaves: the 37 points span several leaves
        let bkd = BkdTree::build_with(ds.clone(), Metric::Euclidean, 16);
        let n = ds.len();
        let params = DbscanParams::new(1.1, 3).unwrap();
        let ranges = PartitionRanges::new(n, 3);
        let configs = [
            KernelConfig::default(),
            KernelConfig::default().with_batch(4),
            KernelConfig::default().with_count_fast_path(true),
            KernelConfig::default().with_batch(4).with_count_fast_path(true),
        ];
        for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
            for part in 0..3 {
                let mut base_scratch = QueryScratch::new();
                let baseline = local_partial_clusters(
                    |q, out| {
                        bkd.range_into_scratch(
                            ds.point(PointId(q)),
                            params.eps,
                            &mut base_scratch,
                            out,
                        )
                    },
                    params,
                    &ranges,
                    part,
                    policy,
                );
                for kernel in configs {
                    let mut qscratch = QueryScratch::new();
                    let mut source = TreeNeighborSource::new(
                        &bkd,
                        &mut qscratch,
                        params.eps,
                        PruneConfig::EXACT,
                    );
                    let mut scratch = ExecutorScratch::new();
                    let got = local_partial_clusters_source(
                        &mut source,
                        params,
                        &ranges,
                        part,
                        policy,
                        &mut scratch,
                        kernel,
                    );
                    assert_eq!(baseline, got, "{kernel:?} part={part} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn without_kernel_clears_only_kernel_counters() {
        let stats = ExecutorStats {
            neighbor_queries: 7,
            kernel: KernelCounters { rows_scanned: 99, ..Default::default() },
            ..Default::default()
        };
        let cleared = stats.without_kernel();
        assert_eq!(cleared.neighbor_queries, 7);
        assert!(cleared.kernel.is_zero());
    }

    /// Algorithms 2 and 3 transcribed directly, with SEEDs placed when
    /// the queue yields a foreign point: `HashSet` visited, assigned and
    /// seeded sets, and every neighbor enqueued except own points
    /// already visited and assigned.
    fn reference(
        tree: &KdTree,
        params: DbscanParams,
        ranges: &PartitionRanges,
        part: usize,
        policy: SeedPolicy,
    ) -> LocalClustering {
        use std::collections::HashSet;
        let (start, end) = ranges.range(part);
        let own = |q: u32| q >= start && q < end;
        let neighbors = |q: u32| {
            let mut out = Vec::new();
            tree.range_into(tree.dataset().point(PointId(q)), params.eps, &mut out);
            out.into_iter().map(|id| id.0).collect::<Vec<u32>>()
        };
        let (mut visited, mut assigned) = (HashSet::new(), HashSet::new());
        let mut clusters = Vec::new();
        let mut core_points = Vec::new();
        let mut stats = ExecutorStats::default();
        for p in start..end {
            stats.points_processed += 1;
            if !visited.insert(p) {
                continue;
            }
            let nbrs = neighbors(p);
            stats.neighbor_queries += 1;
            stats.neighbors_found += nbrs.len();
            if nbrs.len() < params.min_pts {
                stats.local_noise += 1;
                continue;
            }
            let mut cluster = PartialCluster::new(part as u32, (start, end));
            cluster.members.push(p);
            assigned.insert(p);
            core_points.push(p);
            let mut seeded = HashSet::new();
            let mut queue = VecDeque::new();
            queue.extend(
                nbrs.into_iter()
                    .filter(|r| !(own(*r) && visited.contains(r) && assigned.contains(r))),
            );
            while let Some(q) = queue.pop_front() {
                if !own(q) {
                    let key = match policy {
                        SeedPolicy::OnePerPartition => ranges.partition_of(q) as u32,
                        SeedPolicy::PerBoundaryEdge => q,
                    };
                    if seeded.insert(key) {
                        cluster.members.push(q);
                        stats.seeds_placed += 1;
                    }
                    continue;
                }
                let fresh = visited.insert(q);
                if assigned.insert(q) {
                    cluster.members.push(q);
                }
                if !fresh {
                    continue;
                }
                let nbrs = neighbors(q);
                stats.neighbor_queries += 1;
                stats.neighbors_found += nbrs.len();
                if nbrs.len() >= params.min_pts {
                    core_points.push(q);
                    queue.extend(
                        nbrs.into_iter()
                            .filter(|r| !(own(*r) && visited.contains(r) && assigned.contains(r))),
                    );
                }
            }
            clusters.push(cluster);
        }
        LocalClustering { clusters, core_points, stats }
    }

    #[test]
    fn admission_time_seeds_match_the_dequeue_time_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut seeds_seen = 0;
        for trial in 0..16 {
            // clumpy 2-d data: jittered points around a few centres
            let centres = rng.random_range(1usize..5);
            let rows = (0..rng.random_range(20usize..120))
                .map(|_| {
                    let c = rng.random_range(0..centres) as f64;
                    let (dx, dy): (f64, f64) =
                        (rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0));
                    vec![3.0 * c + dx, 2.0 * (c % 2.0) + dy]
                })
                .collect();
            let tree = KdTree::build(Arc::new(Dataset::from_rows(rows)));
            let n = tree.dataset().len();
            let params =
                DbscanParams::new(rng.random_range(0.2..1.2), rng.random_range(2usize..6)).unwrap();
            for parts in 1..=8 {
                let ranges = PartitionRanges::new(n, parts);
                for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                    for part in 0..parts {
                        let want = reference(&tree, params, &ranges, part, policy);
                        seeds_seen += want.stats.seeds_placed;
                        for batch in [0usize, 3] {
                            let kernel = KernelConfig::default().with_batch(batch);
                            let got = run_kernel(&tree, params, &ranges, part, policy, kernel);
                            let tag =
                                format!("trial {trial} batch={batch} {part}/{parts} {policy:?}");
                            assert_eq!(got.clusters.len(), want.clusters.len(), "{tag}");
                            for (g, w) in got.clusters.iter().zip(&want.clusters) {
                                assert_eq!((g.owner, g.range), (w.owner, w.range), "{tag}");
                                assert_eq!(g.members[0], w.members[0], "{tag}");
                                assert!(g.regulars().eq(w.regulars()), "{tag}: regulars");
                                assert!(g.seeds().eq(w.seeds()), "{tag}: seeds");
                            }
                            assert_eq!(got.core_points, want.core_points, "{tag}");
                            assert_eq!(got.stats, want.stats, "{tag}");
                        }
                    }
                }
            }
        }
        assert!(seeds_seen > 1000, "inputs must place SEEDs: {seeds_seen}");
    }
}
