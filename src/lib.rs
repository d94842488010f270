//! # scalable-dbscan
//!
//! A from-scratch Rust reproduction of *"A Novel Scalable DBSCAN Algorithm
//! with Spark"* (Han, Agrawal, Liao, Choudhary — IPDPSW 2016).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`spatial`] — datasets, kd-tree (with the paper's "pruning branches"
//!   mode), brute-force and grid indexes.
//! * [`dfs`] — `minidfs`, an in-process HDFS-like replicated block store.
//! * [`engine`] — `sparklet`, a Spark-like engine: lazy typed RDDs, DAG
//!   scheduling, broadcast variables, accumulators, task retry and a
//!   virtual-cluster time model.
//! * [`mr`] — `mapred`, a Hadoop-MapReduce-like engine with real on-disk
//!   intermediate spills (the paper's baseline substrate).
//! * [`datagen`] — synthetic-cluster generators and the Table I dataset
//!   catalog (c10k, c100k, r10k, r100k, r1m).
//! * [`dbscan`] — the clustering algorithms: sequential DBSCAN, the
//!   paper's SEED-based Spark DBSCAN, and the MapReduce baseline.
//!
//! ## Quickstart
//!
//! ```
//! use scalable_dbscan::prelude::*;
//! use std::sync::Arc;
//!
//! // two blobs and one outlier
//! let mut rows = Vec::new();
//! for i in 0..20 {
//!     rows.push(vec![0.0 + 0.01 * i as f64, 0.0]);
//!     rows.push(vec![10.0 + 0.01 * i as f64, 10.0]);
//! }
//! rows.push(vec![100.0, 100.0]);
//! let data = Arc::new(Dataset::from_rows(rows));
//!
//! let params = DbscanParams::new(0.5, 3).unwrap();
//! let ctx = Context::new(ClusterConfig::local(4));
//! let result = SparkDbscan::new(params).run(&ctx, data.clone());
//! assert_eq!(result.clustering.num_clusters(), 2);
//! assert_eq!(result.clustering.noise_count(), 1);
//! ```

pub use dbscan_core as dbscan;
pub use dbscan_datagen as datagen;
pub use dbscan_spatial as spatial;
pub use mapred as mr;
pub use minidfs as dfs;
pub use sparklet as engine;

/// The most common imports for applications.
pub mod prelude {
    pub use dbscan_core::{
        clustering_fingerprint, Balance, Clustering, DbscanExploreJob, DbscanParams, DbscanRunner,
        Label, MergeStrategy, MrDbscan, ParamError, Resources, RunEnv, RunOutcome, RunnerError,
        SeedPolicy, SequentialDbscan, SparkDbscan,
    };
    pub use dbscan_datagen::{DatasetSpec, StandardDataset};
    pub use dbscan_spatial::{
        BuildConfig, Dataset, KdTree, KernelConfig, KernelLayout, PointId, SpatialIndex,
    };
    pub use sparklet::{
        ClusterConfig, Context, ExploreJob, ExploreReport, Explorer, MemoryStats, Replay,
        ReplayToken, SchedulePolicy, Seeded, SparkError, TraceConfig, TraceHandle,
    };
}
