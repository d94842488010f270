//! DBSCAN on the MapReduce engine — the paper's Fig. 7 baseline.
//!
//! "As we are not able to get source code from the other research teams,
//! we have implemented our own DBSCAN with MapReduce approach." Ours
//! mirrors that: the *same* local clustering and merge code as the Spark
//! version, but the data path is MapReduce's — every point is emitted as
//! an intermediate `(partition, (index, coords))` record that is
//! serialized, **spilled to disk**, sorted, and re-read by the reducers;
//! partial clusters come back as reducer output and merge in the driver.
//! The per-record serialization + disk round-trip is exactly the
//! overhead the paper blames for MapReduce's 9–16x slowdown.

use crate::label::Clustering;
use crate::model::{PartialCluster, PartitionRanges};
use crate::params::DbscanParams;
use crate::partitioned::executor_side::local_partial_clusters;
use crate::partitioned::merge::{merge_partial_clusters, merge_union_find, MergeStrategy};
use crate::partitioned::SeedPolicy;
use dbscan_spatial::{Dataset, KdTree, PointId, SpatialIndex};
use mapred::{Counters, Emitter, JobConfig, MapReduceJob, Mapper, MrResult, Reducer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of an [`MrDbscan`] run.
#[derive(Debug, Clone)]
pub struct MrDbscanResult {
    /// The global clustering.
    pub clustering: Clustering,
    /// Partial clusters produced by the reducers.
    pub num_partial_clusters: usize,
    /// Whole run, including kd-tree construction.
    pub total: Duration,
    /// Bytes spilled to local disk by map tasks.
    pub spilled_bytes: u64,
    /// Bytes read back from disk by reducers.
    pub shuffled_bytes: u64,
    /// Per-map-task busy times (for makespan simulation).
    pub map_task_times: Vec<Duration>,
    /// Per-reduce-task busy times (for makespan simulation).
    pub reduce_task_times: Vec<Duration>,
}

/// The MapReduce DBSCAN baseline.
#[derive(Debug, Clone)]
pub struct MrDbscan {
    params: DbscanParams,
    num_partitions: usize,
    seed_policy: SeedPolicy,
    merge_strategy: MergeStrategy,
}

impl MrDbscan {
    /// Configure for `num_partitions` reduce partitions (the "cores" of
    /// Fig. 7).
    pub fn new(params: DbscanParams, num_partitions: usize) -> Self {
        MrDbscan {
            params,
            num_partitions: num_partitions.max(1),
            seed_policy: SeedPolicy::OnePerPartition,
            merge_strategy: MergeStrategy::PaperSinglePass,
        }
    }

    /// Use the hardened exact configuration.
    pub fn exact(mut self) -> Self {
        self.seed_policy = SeedPolicy::PerBoundaryEdge;
        self.merge_strategy = MergeStrategy::UnionFind;
        self
    }

    /// Run with `slots` concurrent map/reduce slots.
    ///
    /// Note: code comparing implementations should prefer the uniform
    /// [`crate::runner::DbscanRunner`] facade; this inherent method
    /// remains the way to get the full [`MrDbscanResult`].
    pub fn run(&self, data: Arc<Dataset>, slots: usize) -> MrResult<MrDbscanResult> {
        let total_start = Instant::now();
        let n = data.len();
        let ranges = PartitionRanges::new(n, self.num_partitions);

        // driver-side index build (Hadoop would ship this via the
        // distributed cache)
        let tree = Arc::new(KdTree::build(Arc::clone(&data)));

        let mapper = RouteMapper { ranges: ranges.clone(), data: Arc::clone(&data) };
        let reducer = ClusterReducer {
            tree: Arc::clone(&tree),
            ranges: ranges.clone(),
            params: self.params,
            seed_policy: self.seed_policy,
        };
        let config = JobConfig::with_slots(slots).num_reducers(self.num_partitions);

        // input splits: the point indices, chopped per map slot
        let ids: Vec<u32> = (0..n as u32).collect();
        let split_size = n.div_ceil(slots.max(1)).max(1);
        let splits: Vec<Vec<u32>> = ids.chunks(split_size).map(|c| c.to_vec()).collect();

        let job = MapReduceJob::new(mapper, reducer, config).run(splits)?;

        // driver-side merge of the reducers' partial clusters
        let mut partials: Vec<PartialCluster> = Vec::new();
        let mut core_flags = vec![false; n];
        for (mut clusters, cores) in job.outputs {
            partials.append(&mut clusters);
            for c in cores {
                core_flags[c as usize] = true;
            }
        }
        let num_partial_clusters = partials.len();
        let outcome = match self.merge_strategy {
            // the reducers query the KdTree exactly, so under
            // PerBoundaryEdge every core–core boundary edge is recorded
            // from both ends and forward unions suffice (see merge docs)
            MergeStrategy::UnionFind => merge_union_find(
                n,
                &partials,
                &core_flags,
                self.seed_policy == SeedPolicy::PerBoundaryEdge,
            ),
            s => merge_partial_clusters(n, &partials, s, &core_flags),
        };
        let mut clustering = outcome.clustering;
        clustering.core = core_flags;

        Ok(MrDbscanResult {
            clustering,
            num_partial_clusters,
            total: total_start.elapsed(),
            spilled_bytes: job.counters.spilled_bytes.load(std::sync::atomic::Ordering::Relaxed),
            shuffled_bytes: job.counters.shuffled_bytes.load(std::sync::atomic::Ordering::Relaxed),
            map_task_times: job.map_task_times,
            reduce_task_times: job.reduce_task_times,
        })
    }
}

/// Map: route every point (with its coordinates) to its partition — the
/// record that pays the serialization + disk toll.
struct RouteMapper {
    ranges: PartitionRanges,
    data: Arc<Dataset>,
}

impl Mapper for RouteMapper {
    type In = u32;
    type KOut = u32;
    type VOut = (u32, Vec<f64>);

    fn map(&self, idx: u32, emit: &mut Emitter<u32, (u32, Vec<f64>)>, _c: &Counters) {
        let part = self.ranges.partition_of(idx) as u32;
        emit.emit(part, (idx, self.data.point(PointId(idx)).to_vec()));
    }
}

/// Reduce: local clustering of one partition (same code the Spark
/// executors run), emitting partial clusters + core points.
struct ClusterReducer {
    tree: Arc<KdTree>,
    ranges: PartitionRanges,
    params: DbscanParams,
    seed_policy: SeedPolicy,
}

impl Reducer for ClusterReducer {
    type KIn = u32;
    type VIn = (u32, Vec<f64>);
    type Out = (Vec<PartialCluster>, Vec<u32>);

    fn reduce(
        &self,
        partition: u32,
        values: Vec<(u32, Vec<f64>)>,
        out: &mut Vec<Self::Out>,
        counters: &Counters,
    ) {
        counters.incr("points_received", values.len() as u64);
        let dataset = self.tree.dataset();
        let local = local_partial_clusters(
            |q, buf| {
                self.tree.range_into(dataset.point(PointId(q)), self.params.eps, buf);
            },
            self.params,
            &self.ranges,
            partition as usize,
            self.seed_policy,
        );
        out.push((local.clusters, local.core_points));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialDbscan;
    use crate::validate::core_labels_equivalent;

    fn blobs() -> Arc<Dataset> {
        let mut rows = Vec::new();
        for c in 0..3 {
            for i in 0..30 {
                rows.push(vec![c as f64 * 50.0 + i as f64 * 0.01, 0.0]);
            }
        }
        Arc::new(Dataset::from_rows(rows))
    }

    #[test]
    fn matches_sequential() {
        let data = blobs();
        let params = DbscanParams::new(0.5, 3).unwrap();
        let r = MrDbscan::new(params, 4).run(Arc::clone(&data), 2).unwrap();
        let seq = SequentialDbscan::new(params).run(data);
        assert_eq!(r.clustering.num_clusters(), 3);
        assert!(core_labels_equivalent(&r.clustering, &seq));
    }

    #[test]
    fn intermediates_really_hit_disk() {
        let data = blobs();
        let params = DbscanParams::new(0.5, 3).unwrap();
        let r = MrDbscan::new(params, 2).run(data, 2).unwrap();
        assert!(r.spilled_bytes > 0, "points serialized to spill files");
        assert!(r.shuffled_bytes >= r.spilled_bytes, "reducers read them back");
    }

    #[test]
    fn cluster_spanning_partitions_merges() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64]).collect();
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(1.5, 2).unwrap();
        let r = MrDbscan::new(params, 3).run(data, 3).unwrap();
        assert_eq!(r.num_partial_clusters, 3);
        assert_eq!(r.clustering.num_clusters(), 1);
    }

    #[test]
    fn empty_dataset() {
        let data = Arc::new(Dataset::empty(2));
        let r = MrDbscan::new(DbscanParams::paper(), 2).run(data, 2).unwrap();
        assert!(r.clustering.is_empty());
    }

    #[test]
    fn exact_mode_matches_sequential_many_partitions() {
        let rows: Vec<Vec<f64>> =
            (0..90).map(|i| vec![(i % 45) as f64, (i / 45) as f64 * 0.2]).collect();
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(1.2, 3).unwrap();
        let r = MrDbscan::new(params, 6).exact().run(Arc::clone(&data), 3).unwrap();
        let seq = SequentialDbscan::new(params).run(data);
        assert!(core_labels_equivalent(&r.clustering, &seq));
    }
}
