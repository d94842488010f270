//! Thread-count invariance of the parallel kd-tree bulk build.
//!
//! The parallel build promises **byte identity** with the sequential
//! one: threads may only change wall-clock time, never a node or a
//! label. These tests pin that contract at two levels — the raw tree
//! and the full `SparkDbscan` pipeline.

use scalable_dbscan::datagen::StandardDataset;
use scalable_dbscan::dbscan::{DbscanParams, SparkDbscan};
use scalable_dbscan::prelude::*;
use scalable_dbscan::spatial::{BkdTree, Metric, SpatialIndex};
use std::sync::Arc;

/// Small cutoff/bucket so even these debug-sized datasets decompose
/// into many shards and several fork levels.
fn small_cfg(threads: usize) -> BuildConfig {
    BuildConfig::default().with_threads(threads).with_bucket_size(8).with_par_cutoff(64)
}

fn dataset(seed_scale: u32) -> (Arc<Dataset>, DbscanParams) {
    let mut spec = StandardDataset::C10k.scaled_spec(8); // 1250 points
    spec.params.seed = 7000 + seed_scale as u64;
    let (data, _) = spec.generate();
    (Arc::new(data), DbscanParams::new(spec.eps, spec.min_pts).unwrap())
}

#[test]
fn parallel_build_is_byte_identical_across_thread_counts() {
    for trial in 0..4 {
        let (data, params) = dataset(trial);
        let (serial, serial_report) =
            BkdTree::build_with_report(Arc::clone(&data), Metric::Euclidean, small_cfg(1));
        for threads in [2, 3, 8] {
            let (par, report) = BkdTree::build_with_report(
                Arc::clone(&data),
                Metric::Euclidean,
                small_cfg(threads),
            );
            assert!(
                serial.same_structure(&par),
                "trial {trial}: {threads}-thread build diverged from sequential"
            );
            assert_eq!(
                serial_report, report,
                "trial {trial}: shards diverged at {threads} threads"
            );
            // and the trees answer queries identically (sorted: query
            // order within a leaf is an implementation detail)
            for q in (0..data.len()).step_by(97) {
                let mut a = serial.range(data.row(q), params.eps);
                let mut b = par.range(data.row(q), params.eps);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "trial {trial}: query {q} diverged at {threads} threads");
            }
        }
    }
}

/// The whole pipeline — parallel build, overlapped collection, merge —
/// returns the same bytes at every build thread count.
#[test]
fn spark_dbscan_output_is_thread_count_invariant() {
    let (data, params) = dataset(99);
    let run = |threads: usize| {
        let ctx = Context::new(ClusterConfig::local(4));
        SparkDbscan::new(params)
            .partitions(5)
            .resources(Resources::new().with_build(small_cfg(threads)))
            .run(&ctx, Arc::clone(&data))
    };
    let base = run(1);
    for threads in [2, 8] {
        let r = run(threads);
        assert_eq!(base.clustering.labels, r.clustering.labels, "labels diverged at {threads}");
        assert_eq!(base.num_partial_clusters, r.num_partial_clusters);
        assert_eq!(base.merge_ops, r.merge_ops);
        assert_eq!(base.build, r.build, "shard decomposition must not depend on thread count");
    }
}
