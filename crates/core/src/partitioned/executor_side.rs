//! Executor-side local clustering with SEED placement — Algorithms 2
//! (lines 4–29) and 3 of the paper.
//!
//! The executor owns one contiguous index range. It expands clusters
//! with the usual queue-based DBSCAN, **but only through points it
//! owns**: when the queue yields a *foreign* index the executor never
//! expands it — it either records it as a SEED member (first time that
//! foreign partition is touched by this cluster, under the paper's
//! [`SeedPolicy::OnePerPartition`]) or skips it. Neighborhoods are
//! computed over the **full broadcast dataset**, so core status is
//! globally exact even though expansion is local.
//!
//! Data structures: the paper's §III-B uses a Java `Hashtable` for
//! visited state and a `LinkedList` queue for candidates. We keep the
//! FIFO queue (`VecDeque`) but replace the hashtable with **dense
//! per-partition arrays** indexed by local offset: the executor only
//! ever marks its own `[start, end)` points, so an `O(1)` array probe
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
use std::collections::{HashSet, VecDeque};

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

/// Reusable executor working state, epoch-stamped so nothing is
/// cleared (or reallocated) between tasks.
///
/// The per-partition `visited`/`assigned` arrays are validated by an
/// epoch stamp: an entry belongs to the current task iff its stamp
/// equals the task's epoch, so "clearing" them is a single counter
/// bump. The expansion queue, neighbor buffer and Algorithm-3 seed
/// tables likewise persist at their high-water capacity across every
/// partial cluster and every task the executor runs.
#[derive(Debug, Default)]
pub struct ExecutorScratch {
    /// Current task epoch; array entries are live iff stamped with it.
    epoch: u32,
    /// visited\[i\] iff `visited_epoch[i] == epoch`.
    visited_epoch: Vec<u32>,
    /// Point `i` already belongs to a cluster of this task iff
    /// `assigned_epoch[i] == epoch` (first assignment wins; *which*
    /// cluster claimed it lives in the cluster's member list).
    assigned_epoch: Vec<u32>,
    /// FIFO expansion queue (Algorithm 2), reused across clusters.
    queue: VecDeque<u32>,
    /// Neighborhood query buffer, reused across all queries.
    nbuf: Vec<PointId>,
    /// Algorithm 3's `place_flg`, stamped by `seed_stamp` — an entry
    /// belongs to the current cluster iff it holds the cluster's stamp.
    seeded_partition_stamp: Vec<u64>,
    /// Monotonic per-cluster stamp; never reused across tasks, so the
    /// partition table survives task boundaries without clearing.
    seed_stamp: u64,
    /// `(slot, point)` pairs already seeded under `PerBoundaryEdge`.
    seeded_points: HashSet<u64>,
    /// Frontier chunk drained from `queue` (batched expansion).
    chunk: Vec<u32>,
    /// Chunk members that still need a neighborhood query this round.
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

    /// Start a task over `local_n` points and `partitions` partitions:
    /// bump the epoch and grow (never shrink) the arrays.
    fn begin_task(&mut self, local_n: usize, partitions: usize) {
        if self.epoch == u32::MAX {
            // epoch wrap: hard-reset the stamps once every 2^32 tasks
            self.visited_epoch.iter_mut().for_each(|s| *s = 0);
            self.assigned_epoch.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.visited_epoch.len() < local_n {
            self.visited_epoch.resize(local_n, 0);
            self.assigned_epoch.resize(local_n, 0);
        }
        if self.seeded_partition_stamp.len() < partitions {
            self.seeded_partition_stamp.resize(partitions, 0);
        }
        // slots restart at 0 each task, so the (slot, point) key set
        // must not leak across tasks; clearing keeps its capacity
        self.seeded_points.clear();
        self.queue.clear();
    }

    /// High-water capacity of the visited array (test hook).
    pub fn capacity(&self) -> usize {
        self.visited_epoch.len()
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
    let (start, end) = ranges.range(partition);
    let owner = partition as u32;
    let local_n = (end - start) as usize;

    scratch.begin_task(local_n, ranges.num_partitions());
    let epoch = scratch.epoch;
    let ExecutorScratch {
        visited_epoch,
        assigned_epoch,
        queue,
        nbuf,
        seeded_partition_stamp,
        seed_stamp,
        seeded_points,
        ..
    } = scratch;

    let mut clusters: Vec<PartialCluster> = Vec::new();
    let mut core_points: Vec<u32> = Vec::new();
    let mut stats = ExecutorStats::default();

    for p in start..end {
        let pl = (p - start) as usize;
        stats.points_processed += 1;
        if visited_epoch[pl] == epoch {
            continue;
        }
        visited_epoch[pl] = epoch;
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

        // Algorithm 2 line 8: create a new cluster C and add p to it
        let slot = clusters.len() as u32;
        *seed_stamp += 1;
        let stamp = *seed_stamp;
        let mut cluster = PartialCluster::new(owner, (start, end));
        cluster.members.push(p);
        assigned_epoch[pl] = epoch;
        core_points.push(p);

        queue.clear();
        queue.extend(nbuf.iter().map(|id| id.0).filter(|&r| {
            // own points that are already visited *and* assigned have
            // nothing left to do at dequeue — don't enqueue them at all
            !(r >= start && r < end && {
                let rl = (r - start) as usize;
                visited_epoch[rl] == epoch && assigned_epoch[rl] == epoch
            })
        }));
        while let Some(q) = queue.pop_front() {
            if q < start || q >= end {
                // foreign point: SEED placement (Algorithm 3), never
                // expanded — "each executor only computes the points
                // that belong to it"
                let place = match seed_policy {
                    SeedPolicy::OnePerPartition => {
                        let pt = ranges.partition_of(q);
                        let fresh = seeded_partition_stamp[pt] != stamp;
                        seeded_partition_stamp[pt] = stamp;
                        fresh
                    }
                    SeedPolicy::PerBoundaryEdge => {
                        seeded_points.insert((slot as u64) << 32 | q as u64)
                    }
                };
                if place {
                    cluster.members.push(q);
                    stats.seeds_placed += 1;
                }
                continue;
            }
            let ql = (q - start) as usize;
            if visited_epoch[ql] == epoch {
                // Algorithm 2 lines 20-22: add to C if not yet a member
                // of any cluster (border-point claim)
                if assigned_epoch[ql] != epoch {
                    assigned_epoch[ql] = epoch;
                    cluster.members.push(q);
                }
                continue;
            }
            // Algorithm 2 lines 13-19: visit q, claim it, test core status
            visited_epoch[ql] = epoch;
            if assigned_epoch[ql] != epoch {
                assigned_epoch[ql] = epoch;
                cluster.members.push(q);
            }
            nbuf.clear();
            neighbors_of(q, nbuf);
            stats.neighbor_queries += 1;
            stats.neighbors_found += nbuf.len();
            if nbuf.len() >= params.min_pts {
                core_points.push(q);
                queue.extend(nbuf.iter().map(|id| id.0).filter(|&r| {
                    !(r >= start && r < end && {
                        let rl = (r - start) as usize;
                        visited_epoch[rl] == epoch && assigned_epoch[rl] == epoch
                    })
                }));
            }
        }
        clusters.push(cluster);
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
/// * A chunk is classified strictly in FIFO order, so member pushes,
///   SEED placements and visited/assigned transitions replay the
///   scalar dequeue sequence; expansions append to the queue in chunk
///   order, exactly where the scalar loop appends them.
/// * Deferring an expansion behind later chunk classifications can only
///   *drop* enqueues the scalar path would also neutralize: the enqueue
///   filter rejects visited-and-assigned points, and such a point's
///   scalar dequeue is a no-op.
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

    let (start, end) = ranges.range(partition);
    let owner = partition as u32;
    let local_n = (end - start) as usize;

    scratch.begin_task(local_n, ranges.num_partitions());
    let epoch = scratch.epoch;
    let ExecutorScratch {
        visited_epoch,
        assigned_epoch,
        queue,
        nbuf,
        seeded_partition_stamp,
        seed_stamp,
        seeded_points,
        chunk,
        pending,
        batch_out,
        spans,
        ..
    } = scratch;

    let chunk_cap = kernel.batch.max(1);
    let fast = kernel.count_fast_path;
    let mut clusters: Vec<PartialCluster> = Vec::new();
    let mut core_points: Vec<u32> = Vec::new();
    let mut stats = ExecutorStats::default();

    for p in start..end {
        let pl = (p - start) as usize;
        stats.points_processed += 1;
        if visited_epoch[pl] == epoch {
            continue;
        }
        visited_epoch[pl] = epoch;
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
            nbuf.clear();
            source.neighbors_of(p, nbuf);
            stats.neighbors_found += nbuf.len();
        } else {
            nbuf.clear();
            source.neighbors_of(p, nbuf);
            stats.neighbors_found += nbuf.len();
            if nbuf.len() < params.min_pts {
                stats.local_noise += 1;
                continue;
            }
        }

        let slot = clusters.len() as u32;
        *seed_stamp += 1;
        let stamp = *seed_stamp;
        let mut cluster = PartialCluster::new(owner, (start, end));
        cluster.members.push(p);
        assigned_epoch[pl] = epoch;
        core_points.push(p);

        queue.clear();
        queue.extend(nbuf.iter().map(|id| id.0).filter(|&r| {
            !(r >= start && r < end && {
                let rl = (r - start) as usize;
                visited_epoch[rl] == epoch && assigned_epoch[rl] == epoch
            })
        }));
        while !queue.is_empty() {
            // drain up to chunk_cap frontier items, classify in FIFO order
            chunk.clear();
            while chunk.len() < chunk_cap {
                match queue.pop_front() {
                    Some(q) => chunk.push(q),
                    None => break,
                }
            }
            pending.clear();
            for &q in chunk.iter() {
                if q < start || q >= end {
                    let place = match seed_policy {
                        SeedPolicy::OnePerPartition => {
                            let pt = ranges.partition_of(q);
                            let fresh = seeded_partition_stamp[pt] != stamp;
                            seeded_partition_stamp[pt] = stamp;
                            fresh
                        }
                        SeedPolicy::PerBoundaryEdge => {
                            seeded_points.insert((slot as u64) << 32 | q as u64)
                        }
                    };
                    if place {
                        cluster.members.push(q);
                        stats.seeds_placed += 1;
                    }
                    continue;
                }
                let ql = (q - start) as usize;
                if visited_epoch[ql] == epoch {
                    if assigned_epoch[ql] != epoch {
                        assigned_epoch[ql] = epoch;
                        cluster.members.push(q);
                    }
                    continue;
                }
                visited_epoch[ql] = epoch;
                if assigned_epoch[ql] != epoch {
                    assigned_epoch[ql] = epoch;
                    cluster.members.push(q);
                }
                pending.push(q);
            }
            if fast {
                // count probes retire non-core points; survivors keep
                // their chunk order for the materialized batch below
                let mut keep = 0usize;
                for i in 0..pending.len() {
                    let q = pending[i];
                    let cnt = source.count_up_to(q, params.min_pts);
                    if cnt >= params.min_pts {
                        pending[keep] = q;
                        keep += 1;
                    } else {
                        stats.neighbor_queries += 1;
                        stats.neighbors_found += cnt;
                    }
                }
                pending.truncate(keep);
            }
            if pending.is_empty() {
                continue;
            }
            source.neighbors_batch(pending, batch_out, spans);
            for (i, &q) in pending.iter().enumerate() {
                let (off, len) = spans[i];
                let span = &batch_out[off as usize..(off + len) as usize];
                stats.neighbor_queries += 1;
                stats.neighbors_found += span.len();
                if span.len() >= params.min_pts {
                    core_points.push(q);
                    queue.extend(span.iter().map(|id| id.0).filter(|&r| {
                        !(r >= start && r < end && {
                            let rl = (r - start) as usize;
                            visited_epoch[rl] == epoch && assigned_epoch[rl] == epoch
                        })
                    }));
                }
            }
        }
        clusters.push(cluster);
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
}
