//! The workloads, their set-up, and the job the benchmark times.
//!
//! A job is what a user of the paper's pipeline waits for: read the CSV
//! from the mini-DFS through `Context::text_file`, parse it with
//! `parse_csv_row`, build the `Dataset`, then run `SparkDbscan` in exact
//! mode.
//!
//! Why exact mode (`PerBoundaryEdge` SEEDs + `UnionFind` merge): the
//! paper-literal default (`OnePerPartition` + `PaperSinglePass`) does
//! not reproduce sequential DBSCAN on any dataset tried, even at two
//! partitions. On c100k it gives 66 clusters against 64 and 5,677 noise
//! points against 5,375; on r100k 131 clusters against 128; on the 2-d
//! set of `d2-p128` 472 clusters against 215. A benchmark must check
//! every answer, so every workload runs the configuration that matched
//! the sequential reference in every case.

use dbscan_core::{
    core_labels_equivalent, Clustering, DbscanParams, Label, Resources, SequentialDbscan,
    SparkDbscan, SparkDbscanResult,
};
use dbscan_datagen::{
    parse_csv_row, write_dataset_to_dfs, ClusterGenerator, GeneratorParams, StandardDataset,
};
use dbscan_spatial::{BuildConfig, Dataset};
use minidfs::{DfsCluster, DfsConfig};
use sparklet::Context;
use std::sync::Arc;
use std::time::Instant;

/// Where set-up stores the generated points in the mini-DFS.
pub const CSV_PATH: &str = "/bench/points.csv";

/// Names accepted by `--workload`.
pub const NAMES: [&str; 2] = ["c100k-p2", "d2-p128"];

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub gen: GeneratorParams,
    pub params: DbscanParams,
    pub partitions: usize,
    /// Merge-bound workloads must yield at least this many partial
    /// clusters and a non-empty SEED edge set, or the merge they time is
    /// not the merge they claim to time (0 disables both guards).
    pub min_partials: usize,
}

impl Workload {
    /// The named workload with its generator seeded by `seed`.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            // Table I c100k at one partition per core: query-bound, the
            // executors take about 94% of the job and the merge sees
            // only a few hundred partial clusters
            "c100k-p2" => {
                let spec = StandardDataset::C100k.spec();
                let gen = GeneratorParams { seed, ..spec.params };
                let params = DbscanParams::new(spec.eps, spec.min_pts).ok()?;
                Some(Workload { name: "c100k-p2", gen, params, partitions: 2, min_partials: 0 })
            }
            // 200k 2-d points over 128 index ranges: ~146k partial
            // clusters collapse to ~215, so the merge is about half the
            // job; at d = 2 about 38% of scanned rows are hits against
            // about 10% at d = 10, and the scheduler runs 128 tasks
            "d2-p128" => {
                let gen = GeneratorParams {
                    noise_fraction: 0.10,
                    ..GeneratorParams::new(200_000, 2, 64, seed)
                };
                let params = DbscanParams::new(2.0, 5).ok()?;
                Some(Workload {
                    name: "d2-p128",
                    gen,
                    params,
                    partitions: 128,
                    min_partials: 100_000,
                })
            }
            _ => None,
        }
    }

    /// A scaled-down copy with the same generator parameters: `n` points
    /// and proportionally fewer clusters (at least four), no guards.
    pub fn scaled(&self, n: usize) -> Self {
        let clusters = (self.gen.num_clusters * n / self.gen.n).max(4);
        let gen = GeneratorParams { n, num_clusters: clusters, ..self.gen.clone() };
        Workload { gen, min_partials: 0, ..self.clone() }
    }

    pub fn generate(&self) -> Dataset {
        ClusterGenerator::new(self.gen.clone()).generate().0
    }
}

/// The explicit resources of a run on `workers` threads: that many
/// build threads and merge threads, the library's default kernel.
/// Never read from the environment.
pub fn resources(workers: usize) -> Resources {
    Resources::new()
        .with_build(BuildConfig::default().with_threads(workers))
        .with_merge_threads(workers)
}

/// Set-up output: the points in the DFS and the trusted reference.
pub struct Prepared {
    pub data: Arc<Dataset>,
    pub dfs: Arc<DfsCluster>,
    pub reference: Clustering,
}

/// Generate the points, write them as CSV into a fresh mini-DFS and
/// compute the `SequentialDbscan` reference.
pub fn prepare(w: &Workload) -> Result<Prepared, String> {
    let data = Arc::new(w.generate());
    let config = DfsConfig { num_datanodes: 4, replication: 3, block_size: 1 << 20 };
    let dfs = Arc::new(DfsCluster::new(config).map_err(|e| format!("dfs: {e}"))?);
    write_dataset_to_dfs(&dfs, CSV_PATH, &data).map_err(|e| format!("dfs write: {e}"))?;
    let reference = SequentialDbscan::new(w.params).run(Arc::clone(&data));
    Ok(Prepared { data, dfs, reference })
}

/// Read and parse the CSV through the engine: the ingest part of a job.
pub fn ingest(ctx: &Context, dfs: &Arc<DfsCluster>) -> Result<Vec<Vec<f64>>, String> {
    let rows = ctx
        .text_file(Arc::clone(dfs), CSV_PATH)
        .map_err(|e| format!("open {CSV_PATH}: {e}"))?
        .map(|line| parse_csv_row(&line))
        .collect()
        .map_err(|e| format!("parse job: {e}"))?;
    rows.into_iter().collect::<Option<Vec<_>>>().ok_or_else(|| "malformed CSV row".to_string())
}

/// One timed job on `ctx`: DFS read, parse, dataset, exact-mode DBSCAN.
/// Returns its wall time in seconds with the result.
pub fn run_job(
    w: &Workload,
    dfs: &Arc<DfsCluster>,
    ctx: &Context,
    workers: usize,
) -> Result<(f64, SparkDbscanResult), String> {
    let start = Instant::now();
    let rows = ingest(ctx, dfs)?;
    let data = Arc::new(Dataset::from_rows(rows));
    let result = SparkDbscan::new(w.params)
        .partitions(w.partitions)
        .exact()
        .resources(resources(workers))
        .run(ctx, data);
    Ok((start.elapsed().as_secs_f64(), result))
}

/// Whether `got` is a correct DBSCAN answer by the reference: identical
/// core flags, the same partition of the core points, the same noise
/// set. (Border points may legitimately join either adjacent cluster.)
pub fn check_labels(reference: &Clustering, got: &Clustering) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!("{} labels, expected {}", got.len(), reference.len()));
    }
    if got.core != reference.core {
        return Err("core flags differ from the reference".into());
    }
    if !core_labels_equivalent(got, reference) {
        return Err("core points are partitioned differently from the reference".into());
    }
    let noise = |c: &Clustering, i: usize| c.labels[i] == Label::Noise;
    if let Some(i) = (0..got.len()).find(|&i| noise(got, i) != noise(reference, i)) {
        return Err(format!("noise sets differ at point {i}"));
    }
    Ok(())
}

/// Check one job: correct labels plus the engagement guards, so a run
/// cannot pass while the workload skips the path it times.
pub fn check_job(
    w: &Workload,
    reference: &Clustering,
    r: &SparkDbscanResult,
) -> Result<(), String> {
    check_labels(reference, &r.clustering)?;
    let hits: u64 = r.executor_stats.iter().map(|(_, s)| s.kernel.range_hits).sum();
    if hits == 0 {
        return Err("kernel.hits is zero: the leaf-scan hit path never ran".into());
    }
    if r.shuffle_records != 0 {
        return Err(format!("{} shuffle records; the design moves none", r.shuffle_records));
    }
    if r.job.failed_attempts() != 0 {
        return Err(format!("{} failed task attempts", r.job.failed_attempts()));
    }
    if w.min_partials > 0 {
        if r.num_partial_clusters < w.min_partials {
            return Err(format!(
                "{} partial clusters, fewer than the {} the merge-bound workload needs",
                r.num_partial_clusters, w.min_partials
            ));
        }
        // a union happens only along a SEED edge between two partials
        if r.merge_ops == 0 {
            return Err("no SEED edges: the merge had nothing to union".into());
        }
    }
    Ok(())
}
