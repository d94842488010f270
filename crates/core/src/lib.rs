//! # dbscan-core — the paper's algorithms
//!
//! Implements *"A Novel Scalable DBSCAN Algorithm with Spark"* (Han,
//! Agrawal, Liao, Choudhary — IPDPSW 2016) on the workspace's from-scratch
//! substrates:
//!
//! * [`SequentialDbscan`] — Algorithm 1 (Ester et al.'s DBSCAN with a
//!   queue-based expansion), the correctness oracle and the `T_s`
//!   baseline for every speedup figure.
//! * [`SparkDbscan`] — Algorithms 2–4: the driver builds and broadcasts
//!   the kd-tree; each executor clusters **only the contiguous index
//!   range it owns**, with *zero* executor↔executor communication,
//!   placing **SEED** markers (foreign-partition points) in its partial
//!   clusters; partial clusters return through an accumulator and the
//!   driver merges them by locating each SEED's *master* cluster.
//! * [`MrDbscan`] — the paper's own MapReduce baseline (Fig. 7), running
//!   the same local-clustering logic behind a real disk-spilling
//!   MapReduce engine.
//! * [`ShuffleDbscan`] — an ablation baseline that does what the paper
//!   refused to do: propagate cluster labels through shuffles, so the
//!   cost of *not* having SEEDs is measurable.
//! * [`validate`] — Adjusted Rand Index and core-point-exact equivalence
//!   checks between clusterings (DBSCAN border points are legitimately
//!   assignment-order dependent).
//!
//! ## Fidelity and hardening
//!
//! The paper's Algorithm 3 places *at most one SEED per foreign partition
//! per partial cluster*, and Algorithm 4 merges in a single pass. Both
//! are kept as the literal defaults ([`SeedPolicy::OnePerPartition`],
//! [`MergeStrategy::PaperSinglePass`]); both can lose merges in corner
//! cases (transitive chains over ≥3 partitions, one cluster touching two
//! disconnected foreign clusters). [`SeedPolicy::PerBoundaryEdge`] +
//! [`MergeStrategy::UnionFind`] is provably equivalent to sequential
//! DBSCAN on core points (property-tested in `tests/`).

pub mod explore;
pub mod filter;
pub mod label;
pub mod model;
pub mod mr;
pub mod mr_iterative;
pub mod params;
pub mod partitioned;
pub mod reorder;
pub mod resources;
pub mod runner;
pub mod sequential;
pub mod shuffle_baseline;
pub mod unionfind;
pub mod validate;

pub use explore::{clustering_fingerprint, DbscanExploreJob};
pub use filter::filter_small_partials;
pub use label::{Clustering, Label};
pub use model::{PartialArena, PartialCluster, PartialView, PartitionRanges};
pub use mr::{MrDbscan, MrDbscanResult};
pub use mr_iterative::{MrDbscanIterative, MrIterativeResult, PointState};
pub use params::{DbscanParams, ParamError};
pub use partitioned::driver::{SparkDbscan, SparkDbscanResult, Timings};
pub use partitioned::executor_side::{
    local_partial_clusters, local_partial_clusters_scratch, local_partial_clusters_source,
    ExecutorScratch, ExecutorStats, LocalClustering, TreeNeighborSource,
};
pub use partitioned::merge::{
    extract_seed_edges, merge_partial_clusters, merge_union_find, merge_union_find_arenas,
    merge_with_edges, MergeOutcome, MergeStrategy,
};
pub use partitioned::planner::{plan_partitions, Balance, CostPlan};
pub use partitioned::SeedPolicy;
pub use reorder::{apply_permutation, zorder_permutation};
pub use resources::Resources;
pub use runner::{DbscanRunner, RunEnv, RunOutcome, RunnerError};
pub use sequential::SequentialDbscan;
pub use shuffle_baseline::{ShuffleDbscan, ShuffleDbscanResult};
pub use unionfind::DisjointSet;
pub use validate::{adjusted_rand_index, core_labels_equivalent, ComparisonReport};
