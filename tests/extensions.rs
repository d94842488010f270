//! Integration tests for the beyond-the-paper extensions that back an
//! ablation: Z-order spatial pre-partitioning (A4) and the packed R-tree
//! (A2), both exercised through the public facade.

use scalable_dbscan::datagen::StandardDataset;
use scalable_dbscan::prelude::*;
use scalable_dbscan::spatial::{RTree, SpatialIndex};
use std::sync::Arc;

fn catalog_data() -> (Arc<Dataset>, DbscanParams) {
    let spec = StandardDataset::C10k.scaled_spec(16);
    let (data, _) = spec.generate();
    (Arc::new(data), DbscanParams::new(spec.eps, spec.min_pts).unwrap())
}

#[test]
fn spatial_partitioning_preserves_results_and_cuts_partials() {
    let (data, params) = catalog_data();
    let ctx = Context::new(ClusterConfig::local(8));
    let plain = SparkDbscan::new(params).partitions(8).exact().run(&ctx, Arc::clone(&data));
    let zord = SparkDbscan::new(params)
        .partitions(8)
        .exact()
        .spatial_partitioning(true)
        .run(&ctx, Arc::clone(&data));
    assert_eq!(
        plain.clustering.canonicalize().labels,
        zord.clustering.canonicalize().labels,
        "reordering is invisible in the results"
    );
    assert!(
        zord.num_partial_clusters < plain.num_partial_clusters,
        "z-order {} vs index-range {}",
        zord.num_partial_clusters,
        plain.num_partial_clusters
    );
    assert_eq!(zord.shuffle_records, 0, "pre-partitioning adds no shuffles");
}

#[test]
fn rtree_drives_sequential_dbscan_identically() {
    let (data, params) = catalog_data();
    let alg = SequentialDbscan::new(params);
    let via_rtree = alg.run_with_index(&RTree::build(Arc::clone(&data)));
    let via_kdtree = alg.run(Arc::clone(&data));
    assert_eq!(via_rtree.canonicalize().labels, via_kdtree.canonicalize().labels);
}

#[test]
fn rtree_and_kdtree_agree_on_catalog_queries() {
    let (data, params) = catalog_data();
    let rt = RTree::build(Arc::clone(&data));
    let kd = KdTree::build(Arc::clone(&data));
    for (_, row) in data.iter().step_by(53) {
        let mut a = rt.range(row, params.eps);
        let mut b = kd.range(row, params.eps);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
