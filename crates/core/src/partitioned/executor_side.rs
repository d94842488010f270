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
//! expanded — while an own index no cluster holds yet is claimed for
//! the open cluster and joins the queue, once per task. The queue is
//! FIFO, so foreign points meet the policy in the order a dequeue-time
//! placement would see them, and own points are claimed in the order a
//! dequeue-time claim would see them: every partial keeps the same
//! members and SEEDs. A partial's members are its regular points in
//! claim order, then its SEEDs in placement order — the
//! [`PartialCluster`] layout contract the merge relies on. A task
//! appends every partial it closes to one [`PartialArena`], the output
//! the driver collects; the public entry points convert it once into
//! owned partials. When the driver's exact union-find merges the arenas
//! in place, a task ships only the SEEDs above its range and, for each
//! own point its query finds not core, the neighbours above its range
//! (a forward-only [`PartialArena`]; see [`crate::partitioned::merge`],
//! "Who records each edge").
//! Neighborhoods are computed over the **full broadcast dataset**, so
//! core status is globally exact even though expansion is local.
//!
//! Data structures: the paper's §III-B uses a Java `Hashtable` for
//! visited state and a `LinkedList` queue for candidates. We keep the
//! FIFO queue (a `Vec` and a read cursor, since each own point enters
//! it at most once per task) but replace every hashtable with a **dense
//! stamped array**: visited flags indexed by local offset and stamped
//! per task; one mark table with a slot per point that holds both the
//! claims and the per-point SEEDs, with a stamp per cluster (an own
//! point is claimed in this task iff its mark is at least the stamp of
//! the task's first cluster; a foreign point is a SEED of the open
//! cluster iff its mark equals that cluster's stamp); and Algorithm 3's
//! per-partition table, stamped the same way. An `O(1)`
//! array probe beats hashing — and keeps per-point cost independent of
//! partition size (a `HashSet` sized to the whole partition penalizes
//! the 1-partition baseline through cache misses and would *inflate*
//! the reported speedups).
//!
//! On the tree path ([`local_partial_clusters_source`]) a query leaves
//! its neighbourhood as the walk's chunk hit masks, and admission
//! decodes them in place: no neighbour list is built. Its marks are
//! keyed by tree position ([`BkdTree::tree_position`]), so the marks of
//! one neighbourhood lie in the few runs of the table its leaves cover.
//! The closure entry points list each neighbourhood into a buffer, key
//! the marks by point id and admit it through the same steps, so there
//! is one implementation of Algorithms 2 and 3.

use crate::model::{PartialArena, PartialCluster, PartitionRanges};
use crate::params::DbscanParams;
use crate::partitioned::SeedPolicy;
use dbscan_spatial::{
    BkdTree, HitMask, KernelConfig, KernelCounters, PointId, PruneConfig, QueryScratch,
    SpatialIndex,
};
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
    /// SEEDs the task's partial clusters hold. A task of the driver's
    /// exact union-find path places only the SEEDs above its range (see
    /// [`crate::partitioned::merge`], "Who records each edge"), so there
    /// it counts about half of what the public entry points count for
    /// the same partition.
    pub seeds_placed: usize,
    /// Kernel-level instrumentation of the task's queries (leaf blocks
    /// scanned, rows of those blocks, hits, early exits). Like every
    /// field above, invariant across kernel configurations.
    pub kernel: KernelCounters,
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
/// arrays are cleared only when their stamps run out, so steady-state
/// tasks on the tree path allocate nothing but their output.
#[derive(Debug, Default)]
pub struct ExecutorScratch {
    /// The stamp tables and queue an [`Expansion`] works on.
    marks: Marks,
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

    /// High-water length of the per-point mark table (test hook).
    #[cfg(test)]
    fn mark_capacity(&self) -> usize {
        self.marks.mark.len()
    }

    /// Points the last task enqueued (test hook).
    #[cfg(test)]
    fn queued(&self) -> usize {
        self.marks.queue.len()
    }

    /// Scratch whose last cluster took the stamp `stamp`, with every
    /// mark set to it, as if a task had just claimed or seeded every
    /// point (test hook).
    #[cfg(test)]
    fn at_stamp(stamp: u32, points: usize, partitions: usize) -> Self {
        let mut s = Self::new();
        s.marks.stamp = stamp;
        s.marks.mark = vec![stamp; points];
        s.marks.seeded_partition_stamp = vec![stamp; partitions];
        s
    }
}

/// The stamped arrays of Algorithms 2 and 3, the FIFO queue and the
/// open cluster's SEED buffer.
///
/// One mark table, with one slot per point (by tree position on the
/// tree path, by point id otherwise), holds both the claims of
/// Algorithm 2 and the per-point SEEDs of Algorithm 3. Every cluster
/// takes the next `stamp`, and a mark only ever holds a stamp already
/// taken, so no mark exceeds the open cluster's stamp. With `first` the
/// stamp of the task's first cluster:
///
/// * an own point is claimed in this task iff its mark is `>= first`;
/// * a foreign point is a SEED of the open cluster iff its mark equals
///   the cluster's stamp.
///
/// Both tests are one compare against a bound, `first` or the stamp,
/// so every neighbour costs one load and one compare. A task opens at
/// most one cluster per own point, so a task that begins with at least
/// that many stamps left never wraps; one that does not resets every
/// mark first. Tasks keyed either way may share the table: every mark
/// an earlier task left is below the next task's first stamp.
#[derive(Debug, Default)]
struct Marks {
    /// Current task epoch; `visited` entries are live iff stamped with
    /// it.
    epoch: u32,
    /// Own point at local offset `i` is visited iff
    /// `visited_epoch[i] == epoch`.
    visited_epoch: Vec<u32>,
    /// Stamp of the open cluster (of the last one between clusters),
    /// carried across tasks and jobs.
    stamp: u32,
    /// The claim-or-SEED mark of every point, at its slot (see above).
    mark: Vec<u32>,
    /// Algorithm 3's `place_flg`, one entry per partition
    /// ([`SeedPolicy::OnePerPartition`]): the partition has a SEED in
    /// the open cluster iff its entry equals the cluster's stamp.
    seeded_partition_stamp: Vec<u32>,
    /// FIFO expansion queue (Algorithm 2): the own points the task has
    /// claimed through [`Expansion::admit`], each once, in claim order.
    /// The task reads it through a cursor and clears it when it begins.
    queue: Vec<u32>,
    /// SEEDs of the open cluster in placement order, appended to its
    /// members when it closes.
    seeds: Vec<u32>,
}

/// One task's expansion over its own range: the Algorithm 2/3 steps of
/// the expansion loop.
struct Expansion<'a> {
    marks: &'a mut Marks,
    ranges: &'a PartitionRanges,
    policy: SeedPolicy,
    /// SEEDs below it are dropped: the range's start for a forward-only
    /// task, 0 otherwise.
    floor: u32,
    epoch: u32,
    /// Stamp of the task's first cluster: own points marked at or above
    /// it are claimed.
    first: u32,
    start: u32,
    end: u32,
}

impl<'a> Expansion<'a> {
    /// Start the task for `partition`: bump the epoch, grow (never
    /// shrink) the arrays, and reset the marks when fewer stamps are
    /// left than the task could take. A `forward_only` task drops the
    /// SEEDs below its range.
    fn begin(
        marks: &'a mut Marks,
        ranges: &'a PartitionRanges,
        partition: usize,
        policy: SeedPolicy,
        forward_only: bool,
    ) -> Self {
        debug_assert!(!forward_only || policy == SeedPolicy::PerBoundaryEdge);
        let (start, end) = ranges.range(partition);
        let local_n = end - start;
        if marks.epoch == u32::MAX {
            // epoch wrap: hard-reset the visited stamps once every 2^32
            // tasks
            marks.visited_epoch.fill(0);
            marks.epoch = 0;
        }
        marks.epoch += 1;
        if u32::MAX - marks.stamp < local_n.max(1) {
            // this task could run the stamp past u32::MAX, which would
            // forget its claims: start the marks over
            marks.mark.fill(0);
            marks.seeded_partition_stamp.fill(0);
            marks.stamp = 0;
        }
        if marks.visited_epoch.len() < local_n as usize {
            marks.visited_epoch.resize(local_n as usize, 0);
        }
        if marks.mark.len() < ranges.num_points() {
            marks.mark.resize(ranges.num_points(), 0);
        }
        if marks.seeded_partition_stamp.len() < ranges.num_partitions() {
            marks.seeded_partition_stamp.resize(ranges.num_partitions(), 0);
        }
        marks.queue.clear();
        let (epoch, first) = (marks.epoch, marks.stamp + 1);
        let floor = if forward_only { start } else { 0 };
        Expansion { marks, ranges, policy, floor, epoch, first, start, end }
    }

    /// Mark own point `q` visited; whether it was unvisited.
    fn visit(&mut self, q: u32) -> bool {
        replace(&mut self.marks.visited_epoch[(q - self.start) as usize], self.epoch) != self.epoch
    }

    /// Algorithm 2 line 8: a new cluster around the visited core point
    /// `p`, whose mark sits at `slot`, with a fresh stamp; its first
    /// member goes to the arena. `p` is unclaimed: every claimed point
    /// is queued, and the queue drains before the next top-level point.
    fn open(&mut self, p: u32, slot: usize, arena: &mut PartialArena) {
        self.marks.stamp += 1;
        debug_assert!(self.marks.mark[slot] < self.first, "a visited point was claimed");
        self.marks.mark[slot] = self.marks.stamp;
        self.marks.seeds.clear();
        arena.members.push(p);
    }

    /// Close the open cluster: its SEEDs, in placement order, after the
    /// regulars the arena holds in claim order.
    fn close(&mut self, arena: &mut PartialArena, stats: &mut ExecutorStats) {
        stats.seeds_placed += self.marks.seeds.len();
        arena.close(&self.marks.seeds);
    }

    /// The last query found own point `s` not core. A forward-only
    /// task lists `(s, q)` for each neighbour `q` above its range: the
    /// owner of a core `q` dropped `s` as a SEED below its own range.
    fn note_border<S: Neighbourhoods>(&self, source: &S, s: u32, arena: &mut PartialArena) {
        let Some(pairs) = &mut arena.border_candidates else { return };
        let (ids, masks) = source.hits();
        let above =
            masks.iter().flat_map(|h| h.rows()).map(|pos| ids[pos]).filter(|&q| q >= self.end);
        pairs.extend(above.map(|q| (s, q)));
    }

    /// Admit the last query's neighbourhood into the open cluster, in
    /// query order: neighbour `ids[pos + j]` for every set bit `j` of
    /// every chunk mask, decoded in place, its mark at
    /// `S::hit_slot(pos, id)`. An own index no cluster of the task holds
    /// is claimed (Algorithm 2 lines 13-22, border claims included),
    /// appended to `members` and enqueued; a claimed one has nothing
    /// left to do, so each own point enters the queue at most once per
    /// task. A foreign index meets Algorithm 3 at once and becomes a
    /// SEED or nothing — "each executor only computes the points that
    /// belong to it"; a SEED below `floor` is dropped again.
    fn admit<S: Neighbourhoods>(&mut self, source: &S, members: &mut Vec<u32>) {
        let (ids, masks) = source.hits();
        let Marks { mark, stamp, seeded_partition_stamp, queue, seeds, .. } = &mut *self.marks;
        let (start, len, first, stamp) = (self.start, self.end - self.start, self.first, *stamp);
        let floor = self.floor;
        let mark = &mut mark[..];
        let neighbours =
            masks.iter().flat_map(|h| h.rows()).map(|pos| (S::hit_slot(pos, ids[pos]), ids[pos]));
        match self.policy {
            SeedPolicy::PerBoundaryEdge => {
                for (slot, r) in neighbours {
                    // one load and one compare: own points against the
                    // task's first stamp, foreign ones against the
                    // cluster's; the bound is a select, not a branch
                    let own = r.wrapping_sub(start) < len;
                    let bound = stamp - ((stamp - first) & 0u32.wrapping_sub(own as u32));
                    let m = &mut mark[slot];
                    if *m < bound {
                        *m = stamp;
                        if own {
                            members.push(r);
                            queue.push(r);
                        } else {
                            // pushed, then popped again if below the
                            // floor: a branch would mispredict on about
                            // half the SEEDs, which come in no index order
                            seeds.push(r);
                            seeds.truncate(seeds.len() - (r < floor) as usize);
                        }
                    }
                }
            }
            SeedPolicy::OnePerPartition => {
                for (slot, r) in neighbours {
                    if r.wrapping_sub(start) < len {
                        let m = &mut mark[slot];
                        if *m < first {
                            *m = stamp;
                            members.push(r);
                            queue.push(r);
                        }
                    } else {
                        let s = &mut seeded_partition_stamp[self.ranges.partition_of(r)];
                        if replace(s, stamp) != stamp {
                            seeds.push(r);
                        }
                    }
                }
            }
        }
    }
}

/// Where one task's ε-neighbourhoods come from: a query for one point,
/// then its neighbours as chunk masks over an id table, and where each
/// point's mark sits in the mark table.
trait Neighbourhoods {
    /// Query the ε-neighbourhood of point `q` over the whole dataset;
    /// returns its size.
    fn query(&mut self, q: u32) -> usize;

    /// The last query's neighbours, in query order: `ids[pos + j]` for
    /// every set bit `j` of every mask.
    fn hits(&self) -> (&[u32], &[HitMask]);

    /// The mark slot of point `p`: a bijection of `0..n` onto itself.
    fn slot(&self, p: u32) -> usize;

    /// The mark slot of the hit at `pos` of [`Neighbourhoods::hits`],
    /// whose point is `id`: `slot(id)`, cheaper.
    fn hit_slot(pos: usize, id: u32) -> usize;
}

/// Neighbourhoods listed by a closure: the list, as ids under whole
/// chunk masks, with marks keyed by point id.
struct Listed<F> {
    neighbors_of: F,
    buf: Vec<PointId>,
    ids: Vec<u32>,
    masks: Vec<HitMask>,
}

impl<F: FnMut(u32, &mut Vec<PointId>)> Neighbourhoods for Listed<F> {
    fn query(&mut self, q: u32) -> usize {
        self.buf.clear();
        (self.neighbors_of)(q, &mut self.buf);
        self.ids.clear();
        self.ids.extend(self.buf.iter().map(|p| p.0));
        let n = self.ids.len();
        self.masks.clear();
        self.masks.extend(
            (0..n)
                .step_by(64)
                .map(|pos| HitMask { pos: pos as u32, mask: u64::MAX >> (64 - (n - pos).min(64)) }),
        );
        n
    }

    fn hits(&self) -> (&[u32], &[HitMask]) {
        (&self.ids, &self.masks)
    }

    fn slot(&self, p: u32) -> usize {
        p as usize
    }

    fn hit_slot(_pos: usize, id: u32) -> usize {
        id as usize
    }
}

/// Where the executor gets eps-neighborhoods from: the broadcast
/// [`BkdTree`] plus a worker's [`QueryScratch`], queried under the
/// run's [`PruneConfig`].
pub struct TreeNeighborSource<'a> {
    tree: &'a BkdTree,
    scratch: &'a mut QueryScratch,
    eps: f64,
    prune: PruneConfig,
}

impl<'a> TreeNeighborSource<'a> {
    /// Wrap a broadcast tree and per-worker query scratch.
    pub fn new(
        tree: &'a BkdTree,
        scratch: &'a mut QueryScratch,
        eps: f64,
        prune: PruneConfig,
    ) -> Self {
        TreeNeighborSource { tree, scratch, eps, prune }
    }

    /// Append the eps-neighborhood of point `q` over the **whole**
    /// dataset to `out`, in the tree's deterministic order.
    pub fn neighbors_of(&mut self, q: u32, out: &mut Vec<PointId>) {
        let row = self.tree.dataset().point(PointId(q));
        self.tree.range_pruned_scratch(row, self.eps, self.prune, self.scratch, out);
    }
}

/// The tree path: the walk leaves each neighbourhood as chunk masks in
/// the query scratch, and admission decodes them in place through the
/// tree's order. Marks are keyed by tree position, so a neighbourhood's
/// marks lie in the few runs of the table its leaves cover.
impl Neighbourhoods for TreeNeighborSource<'_> {
    fn query(&mut self, q: u32) -> usize {
        let row = self.tree.dataset().point(PointId(q));
        self.tree.range_masks(row, self.eps, self.prune, self.scratch)
    }

    fn hits(&self) -> (&[u32], &[HitMask]) {
        (self.tree.tree_order(), self.scratch.hit_masks())
    }

    fn slot(&self, p: u32) -> usize {
        self.tree.tree_position()[p as usize] as usize
    }

    fn hit_slot(pos: usize, _id: u32) -> usize {
        pos
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

/// [`local_partial_clusters`] against caller-owned scratch. The task
/// lists each neighbourhood into one buffer of its own, then admits it
/// through the same steps as [`local_partial_clusters_source`].
pub fn local_partial_clusters_scratch(
    neighbors_of: impl FnMut(u32, &mut Vec<PointId>),
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
    scratch: &mut ExecutorScratch,
) -> LocalClustering {
    let mut listed = Listed { neighbors_of, buf: Vec::new(), ids: Vec::new(), masks: Vec::new() };
    expand(&mut listed, params, ranges, partition, seed_policy, false, scratch).into()
}

/// Algorithms 2+3 for one partition over a [`TreeNeighborSource`], the
/// executors' hot path, as owned partials: the task's arena converted
/// once. `kernel` is unused: the leaf layout is fixed when the tree is
/// built, and every layout gives the same clustering.
pub fn local_partial_clusters_source(
    source: &mut TreeNeighborSource<'_>,
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
    scratch: &mut ExecutorScratch,
    _kernel: KernelConfig,
) -> LocalClustering {
    local_partial_arena(source, params, ranges, partition, seed_policy, false, scratch).into()
}

/// One task's output as the driver collects it: its partial clusters in
/// one arena, the core points it certified, and stats.
#[derive(Debug)]
pub(crate) struct TaskPartials {
    pub(crate) partials: PartialArena,
    pub(crate) core_points: Vec<u32>,
    pub(crate) stats: ExecutorStats,
}

impl From<TaskPartials> for LocalClustering {
    fn from(task: TaskPartials) -> Self {
        let TaskPartials { partials, core_points, stats } = task;
        LocalClustering { clusters: partials.into_partials(), core_points, stats }
    }
}

/// [`local_partial_clusters_source`] with the partials left in the
/// task's arena, as the driver takes them: admission reads each
/// neighbourhood straight from the walk's chunk masks, so steady-state
/// tasks allocate nothing but the arena and the core list. With
/// `forward_only` (exact [`SeedPolicy::PerBoundaryEdge`] only) the
/// arena is forward-only: SEEDs above the range, plus border
/// candidates (see [`PartialArena`]).
pub(crate) fn local_partial_arena(
    source: &mut TreeNeighborSource<'_>,
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
    forward_only: bool,
    scratch: &mut ExecutorScratch,
) -> TaskPartials {
    expand(source, params, ranges, partition, seed_policy, forward_only, scratch)
}

/// The one Algorithm 2 loop: visit each own point in index order, open a
/// cluster at each unvisited core point and drain the queue its
/// admissions fill.
fn expand<S: Neighbourhoods>(
    source: &mut S,
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
    forward_only: bool,
    scratch: &mut ExecutorScratch,
) -> TaskPartials {
    let mut x = Expansion::begin(&mut scratch.marks, ranges, partition, seed_policy, forward_only);
    let (owner, range) = (partition as u32, (x.start, x.end));
    let mut arena = if forward_only {
        PartialArena::forward_only(owner, range)
    } else {
        PartialArena::new(owner, range)
    };
    // the queue's read cursor: every cluster drains the queue, so the
    // next one starts where the last stopped
    let mut head = 0usize;
    let mut core_points: Vec<u32> = Vec::new();
    let mut stats = ExecutorStats::default();

    for p in x.start..x.end {
        stats.points_processed += 1;
        if !x.visit(p) {
            continue;
        }
        let found = source.query(p);
        stats.neighbor_queries += 1;
        stats.neighbors_found += found;
        if found < params.min_pts {
            // Algorithm 2 line 9: "mark p as noise" (it may later be
            // claimed as a border point by an expanding cluster)
            stats.local_noise += 1;
            x.note_border(source, p, &mut arena);
            continue;
        }

        x.open(p, source.slot(p), &mut arena);
        core_points.push(p);
        x.admit(source, &mut arena.members);
        while let Some(&q) = x.marks.queue.get(head) {
            head += 1;
            // a point claimed as a border of this cluster may have been
            // visited (and found noise) at the top level already
            if !x.visit(q) {
                continue;
            }
            let found = source.query(q);
            stats.neighbor_queries += 1;
            stats.neighbors_found += found;
            if found >= params.min_pts {
                core_points.push(q);
                x.admit(source, &mut arena.members);
            } else {
                x.note_border(source, q, &mut arena);
            }
        }
        x.close(&mut arena, &mut stats);
    }

    // the arena waits for the merge: hand its growth slack back first
    // (on `d2-p128` the 128 forward-only arenas hold about 14 MB between
    // them, 28 MB with every SEED)
    arena.members.shrink_to_fit();
    TaskPartials { partials: arena, core_points, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_spatial::{BruteForceIndex, BuildConfig, Dataset, KdTree, Metric, SpatialIndex};
    use std::collections::VecDeque;
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
                    assert!(
                        reused.clusters.iter().all(PartialCluster::has_contract_layout),
                        "partition {part} {policy:?}: regulars before SEEDs"
                    );
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
        // the per-point mark table spans the whole dataset and keeps its
        // high-water length when a smaller dataset follows
        assert_eq!(scratch.mark_capacity(), 40);
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
            assert_eq!(scratch.mark_capacity(), len, "n={n}");
        }
    }

    #[test]
    fn queue_holds_each_own_point_at_most_once() {
        // wide eps: every own point is a neighbour of many core points
        let tree = chain_tree(60);
        let data = tree.dataset().clone();
        let params = DbscanParams::new(3.5, 2).unwrap();
        let mut scratch = ExecutorScratch::new();
        for parts in [1, 3, 7] {
            let ranges = PartitionRanges::new(60, parts);
            for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                for part in 0..parts {
                    let local = local_partial_clusters_scratch(
                        |q, out| tree.range_into(data.point(PointId(q)), params.eps, out),
                        params,
                        &ranges,
                        part,
                        policy,
                        &mut scratch,
                    );
                    let (start, end) = ranges.range(part);
                    // every regular but each cluster's first entered the
                    // queue, once
                    let regulars: usize = local.clusters.iter().map(|c| c.regulars().count()).sum();
                    assert_eq!(scratch.queued(), regulars - local.clusters.len());
                    assert!(scratch.queued() <= (end - start) as usize, "{part}/{parts}");
                }
            }
        }
    }

    #[test]
    fn seed_stamp_wrap_matches_fresh_scratch() {
        // every task runs on scratch whose stamp sits `left` below
        // u32::MAX with every mark stale at it: with fewer stamps left
        // than the task has points it must reset the marks, with enough
        // it must run up to u32::MAX without one, and either way (and
        // for the tasks after it) match fresh scratch. At min_pts = 1
        // and a tiny eps every point opens its own cluster, so a task
        // takes one stamp per own point, the most it can
        let ds = Arc::new(Dataset::from_rows(blob_rows()));
        let tree = KdTree::build(ds.clone());
        let n = ds.len();
        for (eps, min_pts) in [(1.1, 3), (0.01, 1)] {
            let params = DbscanParams::new(eps, min_pts).unwrap();
            for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                for parts in [1, 2, 4] {
                    let ranges = PartitionRanges::new(n, parts);
                    let fresh: Vec<LocalClustering> =
                        (0..parts).map(|part| run(&tree, params, &ranges, part, policy)).collect();
                    let clusters: usize = fresh.iter().map(|l| l.clusters.len()).sum();
                    assert!(clusters >= 2, "the tasks must open clusters: {clusters}");
                    let local_n = (n / parts) as u32;
                    for left in [0, 1, 2, 3, local_n - 1, local_n, local_n + 1, n as u32] {
                        let mut scratch = ExecutorScratch::at_stamp(u32::MAX - left, n, parts);
                        for (part, want) in fresh.iter().enumerate() {
                            let got = local_partial_clusters_scratch(
                                |q, out| tree.range_into(ds.point(PointId(q)), params.eps, out),
                                params,
                                &ranges,
                                part,
                                policy,
                                &mut scratch,
                            );
                            let tag = format!("eps={eps} {part}/{parts} {policy:?} left={left}");
                            assert_eq!(*want, got, "{tag}");
                        }
                    }
                }
            }
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

    #[test]
    fn tree_neighbor_source_matches_closure_source() {
        // the real executor-side source (BkdTree + QueryScratch, whose
        // chunk masks admission decodes in place) under both leaf
        // layouts against a plain closure listing the scalar-layout
        // tree's neighbourhoods — neighbour order, hence member order,
        // and the kernel counters must match, exact and pruned
        let ds = Arc::new(Dataset::from_rows(blob_rows()));
        // 16-point leaves: the 37 points span several leaves
        let build = |kernel| {
            let cfg = BuildConfig::default().with_bucket_size(16).with_kernel(kernel);
            BkdTree::build_with_config(ds.clone(), Metric::Euclidean, cfg)
        };
        let scalar = build(KernelConfig::scalar());
        let n = ds.len();
        let ranges = PartitionRanges::new(n, 3);
        let prunes = [
            PruneConfig::EXACT,
            PruneConfig::cap_neighbors(1),
            PruneConfig::cap_neighbors(4),
            PruneConfig::cap_neighbors(7),
            PruneConfig { max_neighbors: None, max_visited: Some(3) },
            PruneConfig { max_neighbors: Some(5), max_visited: Some(6) },
        ];
        let mut seeds_placed = 0;
        for (eps, min_pts) in [(1.1, 3), (2.5, 4)] {
            let params = DbscanParams::new(eps, min_pts).unwrap();
            for prune in prunes {
                for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                    for part in 0..3 {
                        let mut base_scratch = QueryScratch::new();
                        let baseline = local_partial_clusters(
                            |q, out| {
                                scalar.range_pruned_scratch(
                                    ds.point(PointId(q)),
                                    params.eps,
                                    prune,
                                    &mut base_scratch,
                                    out,
                                );
                            },
                            params,
                            &ranges,
                            part,
                            policy,
                        );
                        seeds_placed += baseline.stats.seeds_placed;
                        for kernel in [KernelConfig::default(), KernelConfig::scalar()] {
                            let bkd = build(kernel);
                            let mut qscratch = QueryScratch::new();
                            let mut source =
                                TreeNeighborSource::new(&bkd, &mut qscratch, params.eps, prune);
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
                            let tag = format!("{kernel:?} {prune:?} part={part} {policy:?}");
                            assert_eq!(baseline, got, "{tag}");
                            assert_eq!(base_scratch.counters, qscratch.counters, "{tag}");
                        }
                    }
                }
            }
        }
        assert!(seeds_placed > 0, "the inputs must place SEEDs");
    }

    #[test]
    fn arena_views_match_the_converted_partials() {
        // the arena the driver collects against the owned partials of
        // the public tree-path entry point, exact and pruned, under
        // both SEED policies; one executor scratch serves every task
        let ds = Arc::new(Dataset::from_rows(blob_rows()));
        let cfg = BuildConfig::default().with_bucket_size(16);
        let tree = BkdTree::build_with_config(ds.clone(), Metric::Euclidean, cfg);
        let ranges = PartitionRanges::new(ds.len(), 3);
        let prunes = [
            PruneConfig::EXACT,
            PruneConfig::cap_neighbors(1),
            PruneConfig::cap_neighbors(4),
            PruneConfig { max_neighbors: None, max_visited: Some(3) },
            PruneConfig { max_neighbors: Some(5), max_visited: Some(6) },
        ];
        let mut reused = ExecutorScratch::new();
        let (mut partials, mut seeds_placed) = (0, 0);
        for (eps, min_pts) in [(1.1, 3), (2.5, 4)] {
            let params = DbscanParams::new(eps, min_pts).unwrap();
            for prune in prunes {
                for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                    for part in 0..3 {
                        let tag = format!("eps={eps} {prune:?} part={part} {policy:?}");
                        let mut qscratch = QueryScratch::new();
                        let mut source =
                            TreeNeighborSource::new(&tree, &mut qscratch, params.eps, prune);
                        let want = local_partial_clusters_source(
                            &mut source,
                            params,
                            &ranges,
                            part,
                            policy,
                            &mut ExecutorScratch::new(),
                            KernelConfig::default(),
                        );
                        let mut qscratch = QueryScratch::new();
                        let mut source =
                            TreeNeighborSource::new(&tree, &mut qscratch, params.eps, prune);
                        let got = local_partial_arena(
                            &mut source,
                            params,
                            &ranges,
                            part,
                            policy,
                            false,
                            &mut reused,
                        );
                        let arena = &got.partials;
                        assert_eq!((arena.owner, arena.range), (part as u32, ranges.range(part)));
                        assert_eq!(arena.len(), want.clusters.len(), "{tag}");
                        for (view, c) in arena.views().zip(&want.clusters) {
                            assert_eq!((c.owner, c.range), (arena.owner, arena.range), "{tag}");
                            assert_eq!(view, c.view(), "{tag}");
                            assert_eq!([view.regulars, view.seeds].concat(), c.members, "{tag}");
                        }
                        assert_eq!(got.core_points, want.core_points, "{tag}");
                        assert_eq!(got.stats, want.stats, "{tag}");
                        partials += arena.len();
                        seeds_placed += got.stats.seeds_placed;
                    }
                }
            }
        }
        assert!(partials > 0 && seeds_placed > 0, "{partials} partials, {seeds_placed} SEEDs");
    }

    #[test]
    fn forward_only_arena_keeps_forward_seeds_and_lists_border_candidates() {
        // a forward-only task against the full one on the same tree: the
        // same regulars, core points and stats, the SEEDs above the range
        // in placement order, and `(s, q)` for every non-core own point
        // `s` and each neighbour `q` above the range (checked against
        // brute force)
        let ds = Arc::new(Dataset::from_rows(blob_rows()));
        let cfg = BuildConfig::default().with_bucket_size(16);
        let tree = BkdTree::build_with_config(ds.clone(), Metric::Euclidean, cfg);
        let brute = BruteForceIndex::new(ds.clone());
        let mut reused = ExecutorScratch::new();
        let (mut dropped, mut candidates) = (0, 0);
        for (eps, min_pts) in [(1.1, 3), (2.5, 4), (0.95, 5)] {
            let params = DbscanParams::new(eps, min_pts).unwrap();
            for parts in [2, 3, 5] {
                let ranges = PartitionRanges::new(ds.len(), parts);
                for part in 0..parts {
                    let tag = format!("eps={eps} {part}/{parts}");
                    let (start, end) = ranges.range(part);
                    let mut task = |forward_only| {
                        let mut qscratch = QueryScratch::new();
                        let mut source = TreeNeighborSource::new(
                            &tree,
                            &mut qscratch,
                            params.eps,
                            PruneConfig::EXACT,
                        );
                        let policy = SeedPolicy::PerBoundaryEdge;
                        let scratch = &mut reused;
                        local_partial_arena(
                            &mut source,
                            params,
                            &ranges,
                            part,
                            policy,
                            forward_only,
                            scratch,
                        )
                    };
                    let (full, fwd) = (task(false), task(true));
                    assert_eq!(full.partials.border_candidates, None, "{tag}");
                    assert_eq!(fwd.core_points, full.core_points, "{tag}");
                    assert_eq!(fwd.partials.len(), full.partials.len(), "{tag}");
                    let mut shipped = 0;
                    for (f, w) in fwd.partials.views().zip(full.partials.views()) {
                        assert_eq!(f.regulars, w.regulars, "{tag}");
                        let forward: Vec<u32> =
                            w.seeds.iter().copied().filter(|&s| s >= end).collect();
                        assert_eq!(f.seeds, forward, "{tag}");
                        shipped += forward.len();
                        dropped += w.seeds.len() - forward.len();
                    }
                    let want_stats = ExecutorStats { seeds_placed: shipped, ..full.stats };
                    assert_eq!(fwd.stats, want_stats, "{tag}");
                    let mut want = Vec::new();
                    for s in (start..end).filter(|s| !full.core_points.contains(s)) {
                        let mut out = Vec::new();
                        brute.range_into(ds.point(PointId(s)), eps, &mut out);
                        want.extend(out.iter().filter(|q| q.0 >= end).map(|q| (s, q.0)));
                    }
                    want.sort_unstable();
                    let mut got = fwd.partials.border_candidates().to_vec();
                    got.sort_unstable();
                    assert_eq!(got, want, "{tag}");
                    candidates += got.len();
                }
            }
        }
        assert!(dropped > 0 && candidates > 0, "{dropped} SEEDs dropped, {candidates} candidates");
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
                        let got = run(&tree, params, &ranges, part, policy);
                        let tag = format!("trial {trial} {part}/{parts} {policy:?}");
                        assert_eq!(got.clusters.len(), want.clusters.len(), "{tag}");
                        for (g, w) in got.clusters.iter().zip(&want.clusters) {
                            assert_eq!((g.owner, g.range), (w.owner, w.range), "{tag}");
                            assert_eq!(g.members[0], w.members[0], "{tag}");
                            // the reference interleaves SEEDs with regulars,
                            // so split its members by range explicitly
                            let (w_regulars, w_seeds): (Vec<u32>, Vec<u32>) =
                                w.members.iter().partition(|&&m| w.is_regular(m));
                            assert!(g.regulars().eq(w_regulars), "{tag}: regulars");
                            assert!(g.seeds().eq(w_seeds), "{tag}: seeds");
                        }
                        assert_eq!(got.core_points, want.core_points, "{tag}");
                        assert_eq!(got.stats, want.stats, "{tag}");
                    }
                }
            }
        }
        assert!(seeds_seen > 1000, "inputs must place SEEDs: {seeds_seen}");
    }
}
