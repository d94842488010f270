//! Experiment runners shared by the figure binaries.
//!
//! All multi-core numbers use the virtual-cluster time model: the run
//! executes with `p` partitions (so the *algorithm* — partial cluster
//! counts, SEEDs, merge work — is exactly what `p` cores would produce),
//! every task's busy time is measured for real, and the makespan on `p`
//! executors is computed by LPT scheduling. Because the paper's design
//! has zero executor↔executor communication, this makespan *is* the
//! parallel executor time (see DESIGN.md, Substitutions).

use dbscan_core::{DbscanParams, MrDbscanIterative, SparkDbscan, SparkDbscanResult};
use dbscan_datagen::DatasetSpec;
use dbscan_spatial::{Dataset, PruneConfig};
use serde::Serialize;
use sparklet::{lpt_makespan, ClusterConfig, Context};
use std::sync::Arc;
use std::time::Duration;

/// Extra knobs the paper applies on large datasets.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Cap each kd-tree neighborhood query ("pruning branches", r1m).
    pub prune_cap: Option<usize>,
    /// Drop partial clusters smaller than this before merging (r1m).
    pub min_partial_size: Option<usize>,
}

impl RunOptions {
    /// The paper's r1m configuration: "kd-tree with pruning branches"
    /// (we cap each neighbourhood) plus the small-partial-cluster
    /// filter.
    ///
    /// The cap must stay *above* the locality threshold: with globally
    /// shuffled indices, a partition owns `n/p` of the index space, so a
    /// capped neighbour list of size `c` contains about `c/p` own
    /// points — expansion starves (everything degenerates to singleton
    /// partials) once `c/p` drops below ~2. 4096 keeps `c/p ≥ 8` at
    /// p = 512 while still truncating the multi-thousand-neighbour
    /// tails inside dense cluster cores.
    pub fn r1m() -> Self {
        RunOptions { prune_cap: Some(4096), min_partial_size: Some(4) }
    }
}

fn configure(params: DbscanParams, p: usize, opts: RunOptions) -> SparkDbscan {
    let mut alg = SparkDbscan::new(params).partitions(p);
    if let Some(cap) = opts.prune_cap {
        alg = alg.prune(PruneConfig::cap_neighbors(cap));
    }
    if let Some(min) = opts.min_partial_size {
        alg = alg.min_partial_size(min);
    }
    alg
}

/// One Spark-DBSCAN run at `p` virtual cores.
pub fn run_spark_at(
    data: &Arc<Dataset>,
    params: DbscanParams,
    p: usize,
    opts: RunOptions,
) -> SparkDbscanResult {
    let ctx = Context::new(ClusterConfig::virtual_cluster(p));
    configure(params, p, opts).run(&ctx, Arc::clone(data))
}

/// Driver-side time of a run: kd-tree build + merge (what Fig. 6 calls
/// "time spent in driver").
pub fn driver_time(r: &SparkDbscanResult) -> Duration {
    r.timings.kdtree_build + r.timings.merge
}

/// Simulated executor time of a run on `p` cores.
pub fn executor_time(r: &SparkDbscanResult, p: usize) -> Duration {
    r.job.simulated_executor_time(p)
}

// ---------------------------------------------------------------- fig 5

/// One row of the Fig. 5 bar chart.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Dataset name.
    pub dataset: String,
    /// Number of points.
    pub n: usize,
    /// kd-tree construction time.
    pub kdtree: Duration,
    /// Whole DBSCAN time (8 partitions, as in the paper's note).
    pub whole: Duration,
    /// kd-tree time / whole time, in 1/1000 (the paper's y-axis).
    pub per_mille: f64,
}

/// Measure the Fig. 5 ratio for one dataset (8 partitions).
pub fn fig5_row(name: &str, spec: &DatasetSpec, opts: RunOptions) -> Fig5Row {
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let params = DbscanParams::new(spec.eps, spec.min_pts).expect("Table I params");
    let r = run_spark_at(&data, params, 8, opts);
    let whole = r.timings.kdtree_build + executor_time(&r, 8) + r.timings.merge;
    Fig5Row {
        dataset: name.to_string(),
        n: data.len(),
        kdtree: r.timings.kdtree_build,
        whole,
        per_mille: r.timings.kdtree_build.as_secs_f64() / whole.as_secs_f64() * 1000.0,
    }
}

// ---------------------------------------------------------------- fig 6

/// One x-position of a Fig. 6 panel.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Point {
    /// Core count (= partition count).
    pub cores: usize,
    /// Partial clusters collected in the driver (the top annotation).
    pub partial_clusters: usize,
    /// Time spent in driver (kd-tree build + merge).
    pub driver: Duration,
    /// Time spent in executors (simulated makespan on `cores`).
    pub executors: Duration,
}

/// The driver/executor time split across core counts (one Fig. 6 panel).
pub fn fig6_series(spec: &DatasetSpec, cores: &[usize], opts: RunOptions) -> Vec<Fig6Point> {
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let params = DbscanParams::new(spec.eps, spec.min_pts).expect("Table I params");
    cores
        .iter()
        .map(|&p| {
            let r = run_spark_at(&data, params, p, opts);
            Fig6Point {
                cores: p,
                partial_clusters: r.num_partial_clusters,
                driver: driver_time(&r),
                executors: executor_time(&r, p),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig 7

/// One x-position of Fig. 7 (MapReduce vs Spark).
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Point {
    /// Core count.
    pub cores: usize,
    /// Spark-style total time (simulated at `cores`).
    pub spark: Duration,
    /// Iterative MapReduce total time (simulated at `cores`).
    pub mapreduce: Duration,
    /// Label-propagation rounds the MapReduce run needed.
    pub mr_rounds: usize,
    /// `mapreduce / spark` — the paper reports 9–16x.
    pub ratio: f64,
}

/// MapReduce vs Spark across core counts (Fig. 7; the paper uses 10k
/// points). The MapReduce side is the *iterative* label-propagation
/// formulation of the published MapReduce DBSCANs the paper cites: each
/// round serializes the full point state (labels + adjacency) to disk
/// and reads it back — the data path the paper blames for the gap.
pub fn fig7_series(spec: &DatasetSpec, cores: &[usize]) -> Vec<Fig7Point> {
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let params = DbscanParams::new(spec.eps, spec.min_pts).expect("Table I params");
    cores
        .iter()
        .map(|&p| {
            let spark_run = run_spark_at(&data, params, p, RunOptions::default());
            let spark = spark_run.timings.kdtree_build
                + executor_time(&spark_run, p)
                + spark_run.timings.merge;

            let mr_run =
                MrDbscanIterative::new(params, p).run(Arc::clone(&data), 1).expect("mapreduce run");
            // per-round makespans: map and reduce phases are barriers,
            // so simulate each phase's tasks on `p` slots
            let mapreduce = mr_run.setup
                + lpt_makespan(mr_run.map_task_times.iter().copied(), p)
                + lpt_makespan(mr_run.reduce_task_times.iter().copied(), p);
            Fig7Point {
                cores: p,
                spark,
                mapreduce,
                mr_rounds: mr_run.rounds,
                ratio: mapreduce.as_secs_f64() / spark.as_secs_f64().max(f64::MIN_POSITIVE),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig 8

/// One x-position of a Fig. 8 speedup curve.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Point {
    /// Core count.
    pub cores: usize,
    /// Speedup counting executor computation only (left column).
    pub speedup_executor: f64,
    /// Speedup counting executors + driver (right column).
    pub speedup_total: f64,
    /// Partial clusters at this core count.
    pub partial_clusters: usize,
}

/// A full Fig. 8 speedup curve for one dataset: baseline is the same
/// algorithm at 1 partition on 1 core.
pub fn fig8_series(spec: &DatasetSpec, cores: &[usize], opts: RunOptions) -> Vec<Fig8Point> {
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let params = DbscanParams::new(spec.eps, spec.min_pts).expect("Table I params");

    let base = run_spark_at(&data, params, 1, opts);
    let t1_exec = executor_time(&base, 1);
    let t1_total = t1_exec + driver_time(&base);

    cores
        .iter()
        .map(|&p| {
            let r = run_spark_at(&data, params, p, opts);
            let exec = executor_time(&r, p);
            let total = exec + driver_time(&r);
            Fig8Point {
                cores: p,
                speedup_executor: t1_exec.as_secs_f64() / exec.as_secs_f64().max(1e-12),
                speedup_total: t1_total.as_secs_f64() / total.as_secs_f64().max(1e-12),
                partial_clusters: r.num_partial_clusters,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_datagen::StandardDataset;
    use sparklet::EventKind;
    use std::collections::HashMap;

    fn tiny() -> DatasetSpec {
        StandardDataset::C10k.scaled_spec(32)
    }

    // Note on tolerances: these tests measure real wall time on whatever
    // CI machine runs them, possibly while other tests hog the only
    // core, so the structural assertions allow generous timing slack —
    // the precise curves are the figure binaries' job, run in isolation.

    #[test]
    fn fig5_row_produces_sane_ratio() {
        let row = fig5_row("c10k", &tiny(), RunOptions::default());
        assert!(row.per_mille > 0.0);
        assert!(row.per_mille < 1000.0);
        assert!(row.whole >= row.kdtree);
    }

    #[test]
    fn fig6_partial_clusters_grow_with_cores() {
        let pts = fig6_series(&tiny(), &[1, 4], RunOptions::default());
        assert_eq!(pts.len(), 2);
        assert!(pts[1].partial_clusters >= pts[0].partial_clusters);
        // 4 cores must not be dramatically slower than 1 (noise-tolerant)
        assert!(
            pts[1].executors <= pts[0].executors * 2,
            "4-core makespan {:?} vs 1-core {:?}",
            pts[1].executors,
            pts[0].executors
        );
    }

    #[test]
    fn fig7_mapreduce_is_slower() {
        let pts = fig7_series(&tiny(), &[2]);
        assert!(pts[0].ratio > 1.0, "MapReduce must pay its disk toll (ratio {})", pts[0].ratio);
    }

    /// Virtual-time executor and driver spans, in trace ticks, of one
    /// traced run at `p` cores: the summed stage spans and the summed
    /// `kdtree_build` + `merge` phase spans. Unlike wall time these are
    /// a pure function of the seeded workload.
    fn virtual_spans(data: &Arc<Dataset>, params: DbscanParams, p: usize) -> (u64, u64) {
        let ctx = Context::new(ClusterConfig::virtual_cluster(p).with_tracing());
        configure(params, p, RunOptions::default()).run(&ctx, Arc::clone(data));
        let (mut stages, mut phases) = (HashMap::new(), HashMap::new());
        let (mut exec, mut driver) = (0, 0);
        for e in ctx.trace().snapshot().events {
            match e.kind {
                EventKind::StageStart { stage, .. } => {
                    stages.insert(stage, e.vt);
                }
                EventKind::StageEnd { stage, .. } => exec += e.vt - stages[&stage],
                EventKind::PhaseStart { name } => {
                    phases.insert(name, e.vt);
                }
                EventKind::PhaseEnd { name } if name == "kdtree_build" || name == "merge" => {
                    driver += e.vt - phases[name];
                }
                _ => {}
            }
        }
        (exec, driver)
    }

    #[test]
    fn fig8_speedup_increases_with_cores() {
        // the Fig. 8 speedup definitions (executor-only and executor +
        // driver, against the 1-partition run) on virtual-time spans
        let spec = tiny();
        let (data, _) = spec.generate();
        let data = Arc::new(data);
        let params = DbscanParams::new(spec.eps, spec.min_pts).unwrap();
        let (e1, d1) = virtual_spans(&data, params, 1);
        let speedups: Vec<(f64, f64)> = [2, 8]
            .iter()
            .map(|&p| {
                let (e, d) = virtual_spans(&data, params, p);
                (e1 as f64 / e as f64, (e1 + d1) as f64 / (e + d) as f64)
            })
            .collect();
        let (exec2, _) = speedups[0];
        let (exec8, total8) = speedups[1];
        assert!(exec8 > exec2 * 0.5, "8-core speedup {exec8} collapsed vs 2-core {exec2}");
        assert!(exec8 > 1.0);
        assert!(total8 <= exec8 * 1.1, "driver time can only reduce total speedup");
    }
}
