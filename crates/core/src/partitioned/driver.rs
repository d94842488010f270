//! The full pipeline on the sparklet engine — Algorithm 2 end to end.
//!
//! Driver: read/transform data, build the kd-tree, broadcast
//! `{kd-tree, eps, minpts, partition info}`. Executors: local clustering
//! with SEEDs, partial clusters returned through a collection
//! accumulator "right before the executor finishes its task". Driver
//! again: merge partial clusters (Algorithm 4). The result carries the
//! timing split (kd-tree build / executor / driver-merge) that Figures
//! 5, 6 and 8 report.

use crate::filter::filter_small_partials;
use crate::label::Clustering;
use crate::model::{PartialArena, PartialCluster, PartialView, PartitionRanges};
use crate::params::DbscanParams;
use crate::partitioned::executor_side::{
    local_partial_arena, ExecutorScratch, ExecutorStats, TreeNeighborSource,
};
use crate::partitioned::merge::{
    border_candidates, fill_owner, merge_partial_clusters, union_seeds, MergeOutcome, MergeStrategy,
};
use crate::partitioned::planner::{plan_partitions, Balance};
use crate::partitioned::SeedPolicy;
use crate::reorder::{apply_permutation, zorder_permutation};
use crate::resources::Resources;
use dbscan_spatial::{
    BkdTree, BuildReport, Dataset, KernelCounters, Metric, PruneConfig, QueryScratch,
};
use sparklet::{Context, JobMetrics, MemoryStats, TraceHandle};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Estimated executor working-set bytes per owned point (expansion
/// queue slot, membership entry, core flag, accumulator staging) —
/// declared to the scheduler as each task's memory reservation.
const POINT_WORKING_BYTES: u64 = 48;

thread_local! {
    /// Per-worker reusable scratch: the kd-query traversal stack and
    /// hit-mask buffer plus the stamped executor state. Worker threads persist across
    /// tasks (and runs), so steady-state tasks allocate nothing on the
    /// expansion hot path.
    static WORKER_SCRATCH: RefCell<(QueryScratch, ExecutorScratch)> =
        RefCell::new((QueryScratch::new(), ExecutorScratch::new()));
}

/// Wall-clock decomposition of one run (the quantities of Figs. 5/6/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Timings {
    /// Driver: Z-order reordering (zero unless spatial partitioning is
    /// enabled).
    pub reorder: Duration,
    /// Driver: cost-balanced partition planning (zero under
    /// [`Balance::Count`]).
    pub plan: Duration,
    /// Driver: kd-tree construction (Fig. 5 numerator).
    pub kdtree_build: Duration,
    /// Executor phase wall time as seen by the driver (the summed task
    /// busy time is [`JobMetrics::executor_busy`] on the result's `job`).
    pub executor_wall: Duration,
    /// Driver: merging partial clusters (the growing component in
    /// Fig. 6).
    pub merge: Duration,
    /// Whole run.
    pub total: Duration,
}

/// Result of a [`SparkDbscan`] run.
#[derive(Debug, Clone)]
pub struct SparkDbscanResult {
    /// The global clustering.
    pub clustering: Clustering,
    /// Number of partial clusters collected from the executors (the
    /// annotation above every Fig. 6 panel).
    pub num_partial_clusters: usize,
    /// Partial clusters dropped by the small-cluster filter (r1m mode).
    pub filtered_partials: usize,
    /// Timing decomposition.
    pub timings: Timings,
    /// Engine metrics of the executor job (per-task times feed the
    /// virtual-cluster speedup model).
    pub job: JobMetrics,
    /// Shuffle records moved during the run — the paper's design goal is
    /// that this is **zero**.
    pub shuffle_records: u64,
    /// Merge operations performed in the driver.
    pub merge_ops: usize,
    /// Per-partition executor instrumentation, sorted by partition.
    pub executor_stats: Vec<(u32, ExecutorStats)>,
    /// The planner's predicted work units per partition (only under
    /// [`Balance::Cost`]); compare against `executor_stats` to judge
    /// prediction quality.
    pub predicted_cost: Option<Vec<f64>>,
    /// Shard decomposition of the kd-tree build, also recorded as
    /// `BuildShard` trace events.
    pub build: BuildReport,
    /// Engine memory-ledger counters as of run end (cumulative for the
    /// context: peak bytes, task bytes reserved and released).
    pub memory: MemoryStats,
}

/// The paper's parallel DBSCAN, configured via builder methods.
#[derive(Debug, Clone)]
pub struct SparkDbscan {
    params: DbscanParams,
    num_partitions: Option<usize>,
    seed_policy: SeedPolicy,
    merge_strategy: MergeStrategy,
    prune: PruneConfig,
    min_partial_size: Option<usize>,
    spatial_partitioning: bool,
    res: Resources,
}

impl SparkDbscan {
    /// Default configuration: paper-literal SEED policy and merge, one
    /// partition per executor, exact kd-tree queries, no filtering.
    /// Resource knobs start at [`Resources::new`]; set them with
    /// [`SparkDbscan::resources`] — the result is byte-identical for any
    /// `Resources` value.
    pub fn new(params: DbscanParams) -> Self {
        SparkDbscan {
            params,
            num_partitions: None,
            seed_policy: SeedPolicy::OnePerPartition,
            merge_strategy: MergeStrategy::PaperSinglePass,
            prune: PruneConfig::EXACT,
            min_partial_size: None,
            spatial_partitioning: false,
            res: Resources::new(),
        }
    }

    /// Replace the whole execution-resource bundle (partition balance,
    /// kd-tree build configuration) in one call.
    pub fn resources(mut self, res: Resources) -> Self {
        self.res = res;
        self
    }

    /// Override the partition count (defaults to the context's executor
    /// count — the paper's "each core processes one partition").
    pub fn partitions(mut self, p: usize) -> Self {
        self.num_partitions = Some(p.max(1));
        self
    }

    /// Choose the SEED placement policy.
    pub fn seed_policy(mut self, s: SeedPolicy) -> Self {
        self.seed_policy = s;
        self
    }

    /// Choose the merge strategy.
    pub fn merge_strategy(mut self, m: MergeStrategy) -> Self {
        self.merge_strategy = m;
        self
    }

    /// Enable the paper's "kd-tree with pruning branches" used for the
    /// 1M-point runs: cap each neighborhood query.
    pub fn prune(mut self, p: PruneConfig) -> Self {
        self.prune = p;
        self
    }

    /// Drop partial clusters smaller than `min` before merging (the
    /// paper applies this to r1m: "we filter out those partial clusters
    /// whose size is too small").
    pub fn min_partial_size(mut self, min: usize) -> Self {
        self.min_partial_size = Some(min);
        self
    }

    /// Reorder the points along a Z-order curve before assigning index
    /// ranges, so partitions are spatially coherent — the paper's
    /// stated future work ("partitioning the input data points before
    /// they are assigned to executors"). Dramatically reduces partial
    /// clusters and merge work; results are returned in the original
    /// point order.
    pub fn spatial_partitioning(mut self, on: bool) -> Self {
        self.spatial_partitioning = on;
        self
    }

    /// The hardened exact configuration (see crate docs).
    pub fn exact(mut self) -> Self {
        self.seed_policy = SeedPolicy::PerBoundaryEdge;
        self.merge_strategy = MergeStrategy::UnionFind;
        self
    }

    /// Run the full pipeline on `ctx` over `data`.
    ///
    /// When the context has tracing enabled the driver phases appear in
    /// the trace as `kdtree_build` / `merge` spans alongside the
    /// engine's own stage/task events.
    ///
    /// Note: new code comparing implementations should prefer the
    /// uniform [`crate::runner::DbscanRunner`] facade; this inherent
    /// method remains the way to get the full [`SparkDbscanResult`].
    pub fn run(&self, ctx: &Context, data: Arc<Dataset>) -> SparkDbscanResult {
        let total_start = Instant::now();
        let trace = ctx.trace();

        // optional future-work feature: spatially coherent partitions
        let (data, inverse, reorder) = if self.spatial_partitioning {
            let t = Instant::now();
            let perm = zorder_permutation(&data);
            let (reordered, inverse) = apply_permutation(&data, &perm);
            (Arc::new(reordered), Some(inverse), t.elapsed())
        } else {
            (data, None, Duration::ZERO)
        };
        let n = data.len();
        let p = self.num_partitions.unwrap_or_else(|| ctx.num_executors()).max(1);

        // ---- driver: partition planning ----
        let t = Instant::now();
        let (ranges, predicted_cost) = match self.res.balance {
            Balance::Count => (PartitionRanges::new(n, p), None),
            Balance::Cost => {
                trace.phase_start("partition_plan");
                let plan = plan_partitions(&data, self.params.eps, p);
                trace.phase_end("partition_plan");
                for (i, &c) in plan.predicted.iter().enumerate() {
                    let (a, b) = plan.ranges.range(i);
                    trace.plan_partition(i, (b - a) as u64, c.round() as u64);
                }
                (plan.ranges, Some(plan.predicted))
            }
        };
        let plan_time = t.elapsed();
        let shuffle_before = ctx.shuffle_records();

        // ---- driver: build + broadcast the kd-tree (parallel bulk
        // build; structurally identical at every thread count) ----
        let t = Instant::now();
        trace.phase_start("kdtree_build");
        let (tree, build_report) =
            BkdTree::build_with_report(Arc::clone(&data), Metric::Euclidean, self.res.build);
        // the shard decomposition is a pure function of (n, bucket,
        // cutoff) — never of the thread count — and the payloads carry
        // no wall times, so these events keep the trace byte-identical
        // across thread counts
        for (i, s) in build_report.shards.iter().enumerate() {
            trace.build_shard(i, s.len as u64);
        }
        trace.phase_end("kdtree_build");
        let kdtree_build = t.elapsed();
        // shipped_bytes, not size_bytes: the SoA leaf mirror is derived
        // locally from the broadcast coords, so the accounted payload
        // (and the trace) stays identical across kernel layouts
        let broadcast_size = data.size_bytes() + tree.shipped_bytes();
        // exact queries under PerBoundaryEdge record every edge from both
        // ends, so forward unions suffice; where the union-find also
        // reads the arenas in place, the executors ship only forward
        // SEEDs (see merge docs, "Who records each edge")
        let symmetric =
            self.seed_policy == SeedPolicy::PerBoundaryEdge && self.prune == PruneConfig::EXACT;
        let in_place =
            self.merge_strategy == MergeStrategy::UnionFind && self.min_partial_size.is_none();
        let shared = ctx.broadcast_sized(
            SharedInfo {
                tree,
                params: self.params,
                ranges: ranges.clone(),
                seed_policy: self.seed_policy,
                prune: self.prune,
                forward_only: symmetric && in_place,
            },
            broadcast_size,
        );

        // ---- executors: local clustering, streamed to the driver ----
        // A single accumulator whose *fold* runs on the driver thread
        // the moment each task succeeds (the scheduler's drain
        // callback): each task's partial-cluster arena is kept and core
        // flags are written straight into the dense array the merge's
        // owner fill reads — prep work overlapped with the tasks still
        // running, instead of deferred behind a full-stage barrier.
        // Exactly-once holds because folds only apply on task success.
        // Collected partials are the merge's input, part of the driver's
        // own working set: like the merge, they sit outside the
        // executors' memory ledger.
        let collected_acc =
            ctx.accumulator_with(Collected::default(), move |state: &mut Collected, feed: Feed| {
                match feed {
                    Feed::Partials(arena) => state.arenas.push(arena),
                    Feed::Cores(cs) => {
                        if state.core.len() < n {
                            state.core.resize(n, false);
                        }
                        for c in cs {
                            state.core[c as usize] = true;
                        }
                    }
                    Feed::Stats(part, stats) => state.stats.push((part, stats)),
                }
            });
        let acc = collected_acc.clone();
        let th = trace.clone();
        let bcast = shared.clone();

        // each task declares its working set up front, reserved in the
        // engine's memory ledger while the task runs
        let hints: Vec<u64> = (0..p)
            .map(|i| {
                let (a, b) = ranges.range(i);
                (b - a) as u64 * POINT_WORKING_BYTES
            })
            .collect();

        let t = Instant::now();
        ctx.range(0, n as u64, p)
            .mem_hints(hints)
            .foreach_partition(move |part, _indices| {
                let info = bcast.value();
                // per-worker scratch: the query traversal stack and the
                // epoch-stamped expansion state persist across tasks,
                // so the hot path allocates nothing in steady state
                let local = WORKER_SCRATCH.with(|s| {
                    let (qscratch, escratch) = &mut *s.borrow_mut();
                    qscratch.counters = KernelCounters::default();
                    let mut source =
                        TreeNeighborSource::new(&info.tree, qscratch, info.params.eps, info.prune);
                    let mut local = local_partial_arena(
                        &mut source,
                        info.params,
                        &info.ranges,
                        part,
                        info.seed_policy,
                        info.forward_only,
                        escratch,
                    );
                    local.stats.kernel = qscratch.counters;
                    local
                });
                // work actually performed, in the planner's units
                // (candidates scanned ~ neighbors found across queries)
                th.task_work(local.stats.neighbors_found as u64);
                let k = local.stats.kernel;
                th.task_kernel(k.blocks_scanned, k.rows_scanned, k.range_hits, k.early_exits);
                // Algorithm 2 lines 26-28: send partial clusters to the
                // driver through the accumulator at closure end
                acc.add(Feed::Partials(local.partials));
                acc.add(Feed::Cores(local.core_points));
                acc.add(Feed::Stats(part as u32, local.stats));
            })
            .expect("executor job");
        let executor_wall = t.elapsed();
        let job = ctx.last_job().expect("job metrics recorded");

        // ---- driver: merge (Algorithm 4) ----
        let Collected { mut arenas, mut core, stats: mut executor_stats } = collected_acc.take();
        // core flags gate the merge (only core SEEDs may weld clusters
        // together — see merge docs); empty partitions may leave the
        // lazily-sized array short
        core.resize(n, false);
        // The accumulator folds in task *completion* order, which
        // varies with scheduling and retries. The merge must be a pure
        // function of the data, so restore the canonical order first:
        // by owner, then first member. Each task's arena holds its
        // partials in ascending first-member order (a partial opens at
        // its first member, and the executor opens them in index
        // order), so sorting the arenas by owner yields it.
        arenas.sort_unstable_by_key(|a| a.owner);
        debug_assert!(arenas.windows(2).all(|w| w[0].owner < w[1].owner));
        let before_filter: usize = arenas.iter().map(PartialArena::len).sum();
        // the union-find reads the arenas in place; the paper strategies
        // and the small-partial filter take owned partials
        let owned = (!in_place).then(|| {
            let partials = arenas.drain(..).flat_map(PartialArena::into_partials).collect();
            match self.min_partial_size {
                Some(min) => filter_small_partials(partials, min),
                None => partials,
            }
        });
        let num_partial_clusters = owned.as_ref().map_or(before_filter, Vec::len);
        let filtered = before_filter - num_partial_clusters;

        let t = Instant::now();
        trace.phase_start("merge");
        let outcome = match &owned {
            None => {
                let views = || arenas.iter().flat_map(PartialArena::views);
                let candidates = border_candidates(&arenas);
                let m = num_partial_clusters;
                traced_union_find(&trace, n, views, m, &core, symmetric, candidates)
            }
            Some(partials) if self.merge_strategy == MergeStrategy::UnionFind => {
                let views = || partials.iter().map(PartialCluster::view);
                let m = num_partial_clusters;
                traced_union_find(&trace, n, views, m, &core, symmetric, [])
            }
            // paper-literal strategies stay the serial baseline arm
            Some(partials) => merge_partial_clusters(n, partials, self.merge_strategy, &core),
        };
        trace.phase_end("merge");
        let merge = t.elapsed();

        let mut clustering = outcome.clustering;
        clustering.core = core;
        if let Some(inverse) = inverse {
            // map labels/cores back to the caller's point order
            let mut labels = clustering.labels.clone();
            let mut cores = clustering.core.clone();
            for old in 0..n {
                let new = inverse[old] as usize;
                labels[old] = clustering.labels[new];
                cores[old] = clustering.core[new];
            }
            clustering = crate::label::Clustering { labels, core: cores };
        }

        executor_stats.sort_by_key(|&(part, _)| part);

        SparkDbscanResult {
            clustering,
            num_partial_clusters,
            filtered_partials: filtered,
            timings: Timings {
                reorder,
                plan: plan_time,
                kdtree_build,
                executor_wall,
                merge,
                total: total_start.elapsed(),
            },
            job,
            shuffle_records: ctx.shuffle_records() - shuffle_before,
            merge_ops: outcome.merge_ops,
            executor_stats,
            predicted_cost,
            build: build_report,
            memory: ctx.memory_stats(),
        }
    }
}

/// The union-find merge over the `m` partials `views()` yields and the
/// border `candidates` of forward-only arenas, its owner fill and SEED
/// scan traced as the `merge_extract` and `merge_union` phases.
fn traced_union_find<'a, I: Iterator<Item = PartialView<'a>>>(
    trace: &TraceHandle,
    n: usize,
    views: impl Fn() -> I,
    m: usize,
    core: &[bool],
    symmetric: bool,
    candidates: impl IntoIterator<Item = (u32, u32)>,
) -> MergeOutcome {
    trace.phase_start("merge_extract");
    let owner = fill_owner(n, views(), core);
    trace.phase_end("merge_extract");
    trace.phase_start("merge_union");
    let outcome = union_seeds(views(), m, owner, symmetric, candidates);
    trace.phase_end("merge_union");
    outcome
}

/// Everything an executor needs, shipped once as a broadcast variable
/// ("eps, minimum number of points, partition information, and
/// especially, the kdtree").
struct SharedInfo {
    tree: BkdTree,
    params: DbscanParams,
    ranges: PartitionRanges,
    seed_policy: SeedPolicy,
    prune: PruneConfig,
    /// Whether the executors ship forward-only arenas: derived from the
    /// run's configuration, never set.
    forward_only: bool,
}

/// Driver-side state grown by the streaming fold as each task finishes.
#[derive(Default)]
struct Collected {
    arenas: Vec<PartialArena>,
    core: Vec<bool>,
    stats: Vec<(u32, ExecutorStats)>,
}

/// One streamed fragment of an executor's result.
enum Feed {
    /// One task's partial clusters.
    Partials(PartialArena),
    Cores(Vec<u32>),
    Stats(u32, ExecutorStats),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialDbscan;
    use crate::validate::core_labels_equivalent;
    use sparklet::ClusterConfig;

    fn blobs(k: usize, per: usize, spacing: f64) -> Arc<Dataset> {
        let mut rows = Vec::new();
        for c in 0..k {
            for i in 0..per {
                rows.push(vec![c as f64 * spacing + (i as f64) * 0.01, (i % 7) as f64 * 0.01]);
            }
        }
        Arc::new(Dataset::from_rows(rows))
    }

    #[test]
    fn matches_sequential_on_blobs() {
        let data = blobs(3, 40, 100.0);
        let params = DbscanParams::new(0.5, 4).unwrap();
        let ctx = Context::new(ClusterConfig::local(4));
        let result = SparkDbscan::new(params).run(&ctx, Arc::clone(&data));
        let seq = SequentialDbscan::new(params).run(Arc::clone(&data));
        assert_eq!(result.clustering.num_clusters(), 3);
        assert_eq!(result.clustering.canonicalize().labels, seq.canonicalize().labels);
        assert!(core_labels_equivalent(&result.clustering, &seq));
    }

    #[test]
    fn zero_shuffles_by_design() {
        let data = blobs(2, 30, 50.0);
        let ctx = Context::new(ClusterConfig::local(4));
        let result = SparkDbscan::new(DbscanParams::new(0.5, 3).unwrap()).run(&ctx, data);
        assert_eq!(result.shuffle_records, 0, "the paper's central design property");
    }

    #[test]
    fn cluster_spanning_partitions_is_merged_via_seeds() {
        // one long chain across 4 partitions -> 4 partial clusters, one
        // global cluster after the SEED merge
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(1.5, 2).unwrap();
        let ctx = Context::new(ClusterConfig::local(4));
        let result = SparkDbscan::new(params).partitions(4).run(&ctx, data);
        assert_eq!(result.num_partial_clusters, 4);
        assert!(result.merge_ops >= 3);
        assert_eq!(result.clustering.num_clusters(), 1);
        assert_eq!(result.clustering.noise_count(), 0);
    }

    #[test]
    fn partial_cluster_count_grows_with_partitions() {
        let rows: Vec<Vec<f64>> = (0..240).map(|i| vec![i as f64]).collect();
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(1.5, 2).unwrap();
        let ctx = Context::new(ClusterConfig::local(8));
        let mut counts = Vec::new();
        for p in [1, 2, 4, 8] {
            let r = SparkDbscan::new(params).partitions(p).run(&ctx, Arc::clone(&data));
            counts.push(r.num_partial_clusters);
            assert_eq!(r.clustering.num_clusters(), 1, "p={p}");
        }
        assert_eq!(counts, vec![1, 2, 4, 8], "Fig. 6's partial-cluster growth");
    }

    #[test]
    fn exact_mode_matches_sequential_even_with_many_partitions() {
        let data = blobs(4, 25, 30.0);
        let params = DbscanParams::new(0.5, 3).unwrap();
        let ctx = Context::new(ClusterConfig::local(8));
        let r = SparkDbscan::new(params).partitions(8).exact().run(&ctx, Arc::clone(&data));
        let seq = SequentialDbscan::new(params).run(data);
        assert!(core_labels_equivalent(&r.clustering, &seq));
        assert_eq!(r.clustering.num_clusters(), seq.num_clusters());
    }

    #[test]
    fn timings_are_populated() {
        let data = blobs(2, 50, 60.0);
        let ctx = Context::new(ClusterConfig::local(2));
        let r = SparkDbscan::new(DbscanParams::new(0.5, 3).unwrap()).run(&ctx, data);
        assert!(r.timings.total >= r.timings.merge);
        assert!(r.timings.total >= r.timings.kdtree_build);
        assert!(r.timings.executor_wall > Duration::ZERO);
        assert!(r.job.executor_busy() > Duration::ZERO);
        assert_eq!(r.job.stages.len(), 1, "single result stage, no shuffle stages");
    }

    #[test]
    fn memory_ledger_reserves_each_points_working_set_once() {
        let data = blobs(3, 40, 100.0);
        let n = data.len() as u64;
        let ctx = Context::new(ClusterConfig::local(4));
        let r = SparkDbscan::new(DbscanParams::new(0.5, 4).unwrap()).partitions(8).run(&ctx, data);
        let m = r.memory;
        assert_eq!(m.task_reserved_bytes, n * 48, "48 working-set bytes per owned point");
        assert_eq!(m.task_released_bytes, m.task_reserved_bytes, "every reservation released");
        // tasks may release before the last one is submitted, so the
        // peak is bounded by, not equal to, the total reservation
        assert!(0 < m.peak_bytes && m.peak_bytes <= n * 48, "peak {}", m.peak_bytes);
    }

    #[test]
    fn empty_dataset() {
        let data = Arc::new(Dataset::empty(2));
        let ctx = Context::new(ClusterConfig::local(2));
        let r = SparkDbscan::new(DbscanParams::paper()).run(&ctx, data);
        assert!(r.clustering.is_empty());
        assert_eq!(r.num_partial_clusters, 0);
    }

    #[test]
    fn more_partitions_than_points() {
        let data = Arc::new(Dataset::from_rows(vec![vec![0.0], vec![0.1], vec![0.2]]));
        let ctx = Context::new(ClusterConfig::local(2));
        let r = SparkDbscan::new(DbscanParams::new(0.5, 2).unwrap()).partitions(10).run(&ctx, data);
        assert_eq!(r.clustering.num_clusters(), 1);
    }

    #[test]
    fn min_partial_size_filters() {
        // chain + isolated dense pair; filter partials smaller than 3
        let mut rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        rows.push(vec![1000.0]);
        rows.push(vec![1000.3]);
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(1.5, 2).unwrap();
        let ctx = Context::new(ClusterConfig::local(2));
        let unfiltered = SparkDbscan::new(params).partitions(2).run(&ctx, Arc::clone(&data));
        assert_eq!(unfiltered.clustering.num_clusters(), 2);
        let filtered = SparkDbscan::new(params).partitions(2).min_partial_size(3).run(&ctx, data);
        assert_eq!(filtered.filtered_partials, 1);
        assert_eq!(filtered.clustering.num_clusters(), 1, "tiny cluster dropped to noise");
    }

    #[test]
    fn pruned_queries_still_find_dense_structure() {
        // pruning caps each neighborhood: clusters may split (it is an
        // approximation) but dense points must not become noise, and the
        // two far-apart blobs must never merge
        let data = blobs(2, 60, 100.0);
        let params = DbscanParams::new(0.6, 4).unwrap();
        let ctx = Context::new(ClusterConfig::local(4));
        let r = SparkDbscan::new(params)
            .prune(PruneConfig::cap_neighbors(10))
            .run(&ctx, Arc::clone(&data));
        assert!(r.clustering.num_clusters() >= 2);
        assert_eq!(r.clustering.noise_count(), 0, "every point is in a dense region");
        // no label appears in both blobs (indices interleave: blob =
        // row / 60 after construction order)
        let mut blob_of_label: std::collections::HashMap<_, usize> =
            std::collections::HashMap::new();
        for (i, l) in r.clustering.labels.iter().enumerate() {
            if let crate::label::Label::Cluster(c) = l {
                let blob = i / 60;
                assert_eq!(*blob_of_label.entry(*c).or_insert(blob), blob, "blobs merged");
            }
        }
    }

    /// Dense hotspot emitted first, sparse background after — index
    /// order correlates with density, the worst case for equal-count
    /// ranges.
    fn hotspot(n_hot: usize, n_bg: usize) -> Arc<Dataset> {
        let mut rows = Vec::new();
        for i in 0..n_hot {
            rows.push(vec![(i % 17) as f64 * 0.05, (i / 17) as f64 * 0.05]);
        }
        for i in 0..n_bg {
            rows.push(vec![500.0 + (i % 31) as f64 * 20.0, (i / 31) as f64 * 20.0]);
        }
        Arc::new(Dataset::from_rows(rows))
    }

    #[test]
    fn cost_balance_is_label_identical_to_count() {
        let data = hotspot(300, 300);
        let params = DbscanParams::new(0.6, 4).unwrap();
        let ctx = Context::new(ClusterConfig::local(8));
        let count = SparkDbscan::new(params).partitions(8).exact().run(&ctx, Arc::clone(&data));
        let cost = SparkDbscan::new(params)
            .partitions(8)
            .exact()
            .resources(Resources::new().with_balance(Balance::Cost))
            .run(&ctx, Arc::clone(&data));
        assert_eq!(
            count.clustering.canonicalize().labels,
            cost.clustering.canonicalize().labels,
            "balance choice must not change the clustering"
        );
        assert_eq!(count.clustering.core, cost.clustering.core);
        assert!(cost.predicted_cost.is_some());
        assert!(count.predicted_cost.is_none());
        assert!(cost.timings.plan > Duration::ZERO);
    }

    #[test]
    fn cost_balance_reduces_query_imbalance() {
        let data = hotspot(400, 400);
        let params = DbscanParams::new(0.6, 4).unwrap();
        let ctx = Context::new(ClusterConfig::local(8));
        let imbalance = |r: &SparkDbscanResult| {
            let q: Vec<f64> =
                r.executor_stats.iter().map(|(_, s)| s.neighbors_found as f64).collect();
            let max = q.iter().cloned().fold(0.0, f64::max);
            max / (q.iter().sum::<f64>() / q.len() as f64)
        };
        let count = SparkDbscan::new(params).partitions(8).run(&ctx, Arc::clone(&data));
        let cost = SparkDbscan::new(params)
            .partitions(8)
            .resources(Resources::new().with_balance(Balance::Cost))
            .run(&ctx, Arc::clone(&data));
        assert_eq!(count.executor_stats.len(), 8);
        assert!(
            imbalance(&cost) < imbalance(&count),
            "cost {} vs count {}",
            imbalance(&cost),
            imbalance(&count)
        );
    }

    #[test]
    fn executor_stats_are_collected_per_partition() {
        let data = blobs(2, 40, 80.0);
        let ctx = Context::new(ClusterConfig::local(4));
        let r = SparkDbscan::new(DbscanParams::new(0.5, 3).unwrap()).partitions(4).run(&ctx, data);
        assert_eq!(r.executor_stats.len(), 4);
        let parts: Vec<u32> = r.executor_stats.iter().map(|&(p, _)| p).collect();
        assert_eq!(parts, vec![0, 1, 2, 3], "sorted by partition");
        let total: usize = r.executor_stats.iter().map(|(_, s)| s.points_processed).sum();
        assert_eq!(total, 80, "every point processed exactly once");
    }

    #[test]
    fn survives_injected_task_failures() {
        let data = blobs(2, 40, 80.0);
        let params = DbscanParams::new(0.5, 3).unwrap();
        let cfg = ClusterConfig::local(4)
            .with_fault(sparklet::FaultPlan::tasks(sparklet::FaultRule::always_first(1)))
            .with_max_attempts(3);
        let ctx = Context::new(cfg);
        let r = SparkDbscan::new(params).run(&ctx, Arc::clone(&data));
        let seq = SequentialDbscan::new(params).run(data);
        // retried tasks must not duplicate accumulator contributions
        assert_eq!(r.clustering.canonicalize().labels, seq.canonicalize().labels);
        assert!(r.job.failed_attempts() > 0);
    }

    #[test]
    fn worker_scratch_reuse_across_jobs_matches_fresh_contexts() {
        // worker threads keep their executor scratch (stamp arrays
        // included) from one run to the next: jobs of growing and
        // shrinking n on one context must equal runs on fresh contexts
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let params = DbscanParams::new(0.3, 4).unwrap();
        let shared = Context::new(ClusterConfig::local(2));
        let mut rng = StdRng::seed_from_u64(3);
        for n in [3_000usize, 500, 5_000] {
            let rows = (0..n)
                .map(|_| {
                    let c = rng.random_range(0..6u32) as f64;
                    vec![4.0 * c + rng.random_range(-1.5..1.5), rng.random_range(-1.5..1.5)]
                })
                .collect();
            let data = Arc::new(Dataset::from_rows(rows));
            let run = |ctx: &Context| {
                SparkDbscan::new(params).partitions(8).exact().run(ctx, Arc::clone(&data))
            };
            let reused = run(&shared);
            let fresh = run(&Context::new(ClusterConfig::local(2)));
            assert_eq!(reused.clustering, fresh.clustering, "n={n}");
            assert_eq!(reused.num_partial_clusters, fresh.num_partial_clusters, "n={n}");
            assert_eq!(reused.merge_ops, fresh.merge_ops, "n={n}");
            assert_eq!(reused.executor_stats, fresh.executor_stats, "n={n}");
            let seeds: usize = fresh.executor_stats.iter().map(|(_, s)| s.seeds_placed).sum();
            assert!(seeds > 0, "n={n}: the job must place SEEDs");
        }
    }
}

#[cfg(test)]
mod spatial_partitioning_tests {
    use super::*;
    use crate::sequential::SequentialDbscan;
    use crate::validate::core_labels_equivalent;
    use sparklet::ClusterConfig;

    /// Interleaved blobs: worst case for index-range partitioning,
    /// best case for the Z-order future-work feature.
    fn interleaved_blobs() -> Arc<Dataset> {
        let mut rows = Vec::new();
        for i in 0..240 {
            let blob = i % 4;
            rows.push(vec![blob as f64 * 50.0 + (i / 4) as f64 * 0.01, blob as f64 * 50.0]);
        }
        Arc::new(Dataset::from_rows(rows))
    }

    #[test]
    fn results_are_in_original_order_and_correct() {
        let data = interleaved_blobs();
        let params = DbscanParams::new(0.5, 3).unwrap();
        let ctx = Context::new(ClusterConfig::local(4));
        let plain = SparkDbscan::new(params).partitions(8).exact().run(&ctx, Arc::clone(&data));
        let zord = SparkDbscan::new(params)
            .partitions(8)
            .exact()
            .spatial_partitioning(true)
            .run(&ctx, Arc::clone(&data));
        let seq = SequentialDbscan::new(params).run(data);
        assert!(core_labels_equivalent(&plain.clustering, &seq));
        assert!(core_labels_equivalent(&zord.clustering, &seq), "reordering must be invisible");
        assert!(zord.timings.reorder > Duration::ZERO);
    }

    #[test]
    fn zorder_slashes_partial_clusters() {
        let data = interleaved_blobs();
        let params = DbscanParams::new(0.5, 3).unwrap();
        let ctx = Context::new(ClusterConfig::local(8));
        let plain = SparkDbscan::new(params).partitions(8).run(&ctx, Arc::clone(&data));
        let zord =
            SparkDbscan::new(params).partitions(8).spatial_partitioning(true).run(&ctx, data);
        assert!(
            zord.num_partial_clusters < plain.num_partial_clusters,
            "z-order {} vs plain {}",
            zord.num_partial_clusters,
            plain.num_partial_clusters
        );
        assert!(zord.merge_ops <= plain.merge_ops);
    }
}
