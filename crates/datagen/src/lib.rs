//! # dbscan-datagen — synthetic workloads for the reproduction
//!
//! The paper evaluates on five datasets "generated synthetically using
//! the IBM synthetic data generator" (Quest / NU-MineBench's
//! synthetic-cluster): c10k, c100k, r10k, r100k, r1m — all with `d = 10`,
//! `eps = 25`, `minpts = 5` (Table I). The original generator is not
//! distributed any more, so this crate implements the same *kind* of
//! workload: Gaussian clusters with uniformly placed centers plus
//! uniform background noise, parameterized so that the paper's `eps`
//! and `minpts` are meaningful (cluster members are dense at eps = 25,
//! noise is not). Deterministic per seed.
//!
//! [`catalog`] pins the five named datasets with fixed seeds and
//! provides scaled-down variants so benches can run at laptop speed.

pub mod catalog;
pub mod cluster_gen;
pub mod io;
pub mod normal;
pub mod skewed;

pub use catalog::{DatasetSpec, StandardDataset};
pub use cluster_gen::{ClusterGenerator, GeneratorParams, GroundTruth};
pub use io::{
    dataset_from_csv, dataset_to_csv, parse_csv_row, read_dataset_from_dfs, write_dataset_to_dfs,
    CsvError,
};
pub use normal::NormalSampler;
pub use skewed::{SkewedGenerator, SkewedParams};
