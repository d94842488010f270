//! The per-layer pass (`--trace 1`): spans recorded by the benchmark
//! around each call into a layer's public function, on the same
//! generated inputs as the timed jobs. Layers are named after the
//! repository's modules.
//!
//! `driver.other_s` reconciles the layers with `job_s`: it is `job_s`
//! minus the layer times a job is made of (parse, dataset, build,
//! broadcast, executor stage, merge extract and union). `ingest.read_s`
//! is inside `ingest.parse_s`, and `query.s` and `executor.busy_s` are
//! inside the stage, so those are not subtracted again.

use crate::median;
use crate::workload::{
    check_job, check_labels, ingest, resources, run_job, Prepared, Workload, CSV_PATH,
};
use dbscan_core::{
    extract_seed_edges, local_partial_clusters_source, merge_with_edges, ExecutorScratch,
    LocalClustering, PartialCluster, PartitionRanges, SeedPolicy, SparkDbscanResult,
    TreeNeighborSource,
};
use dbscan_spatial::{lpt_makespan_nanos, BkdTree, Dataset, Metric, PruneConfig, QueryScratch};
use sparklet::{ClusterConfig, Context};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls timed per cheap layer; the layer reports their median.
const REPEATS: usize = 3;
/// Virtual cores of the Fig. 8 comparison model.
const MODEL_CORES: usize = 8;

thread_local! {
    /// Per-worker scratch of the measured stage, as the driver keeps it.
    static STAGE_SCRATCH: RefCell<(QueryScratch, ExecutorScratch)> =
        RefCell::new((QueryScratch::new(), ExecutorScratch::new()));
}

/// One reported metric: name, value, unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median time of `REPEATS` calls of `f`, with the last call's output.
fn repeat<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        last = Some(f()?);
        times.push(secs(t));
    }
    Ok((median(&times), last.expect("REPEATS > 0")))
}

/// Measure every layer of workload `w` on `workers` threads. `ctx` is
/// the workload's untraced context, `untraced` a checked job from the
/// timed loop and `job_s` the job time the run reports.
pub fn measure(
    w: &Workload,
    prep: &Prepared,
    ctx: &Context,
    workers: usize,
    untraced: &SparkDbscanResult,
    job_s: f64,
) -> Result<Metrics, String> {
    let mut m: Metrics = Vec::new();
    let (eps, p) = (w.params.eps, w.partitions);

    // ---- ingest: minidfs, sparklet::rdd::text, datagen::io ----
    let (read_s, bytes) = repeat(|| prep.dfs.read_file(CSV_PATH).map_err(|e| e.to_string()))?;
    let stat = prep.dfs.stat(CSV_PATH).map_err(|e| e.to_string())?;
    let (parse_s, rows) = repeat(|| ingest(ctx, &prep.dfs))?;
    let mut dataset_times = Vec::with_capacity(REPEATS);
    let mut data = Dataset::empty(1);
    for _ in 0..REPEATS {
        let input = rows.clone();
        let t = Instant::now();
        data = Dataset::from_rows(input);
        dataset_times.push(secs(t));
    }
    if data != *prep.data {
        return Err("ingested points differ from the generated points".into());
    }
    let data = Arc::new(data);
    let n = data.len();
    let dataset_s = median(&dataset_times);
    m.push(("ingest.read_s", read_s, "s"));
    m.push(("ingest.parse_s", parse_s, "s"));
    m.push(("ingest.dataset_s", dataset_s, "s"));
    m.push(("ingest.bytes", bytes.len() as f64, "bytes"));
    m.push(("ingest.blocks", stat.num_blocks as f64, "count"));

    // ---- build: spatial bkdtree ----
    let build_cfg = resources(workers).build;
    let (build_s, (tree, report)) =
        repeat(|| Ok(BkdTree::build_with_report(Arc::clone(&data), Metric::Euclidean, build_cfg)))?;
    m.push(("build.s", build_s, "s"));
    m.push(("build.shards", report.shards.len() as f64, "count"));
    m.push(("build.shipped_bytes", tree.shipped_bytes() as f64, "bytes"));

    // ---- query + kernel: one exact range query per point. The scratch
    // variant is what `range_into` runs; it exposes the kernel counters.
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut found = 0usize;
    let t = Instant::now();
    for i in 0..n {
        out.clear();
        tree.range_into_scratch(data.row(i), eps, &mut scratch, &mut out);
        found += out.len();
    }
    let query_s = secs(t);
    black_box(found);
    let k = scratch.counters;
    if k.range_hits == 0 {
        return Err("kernel.hits is zero: the leaf-scan hit path never ran".into());
    }
    let rows_scanned = k.rows_scanned as f64;
    m.push(("query.s", query_s, "s"));
    m.push(("kernel.blocks", k.blocks_scanned as f64, "count"));
    m.push(("kernel.rows", rows_scanned, "count"));
    m.push(("kernel.hits", k.range_hits as f64, "count"));
    m.push(("kernel.hit_ratio", k.range_hits as f64 / rows_scanned, "ratio"));
    m.push(("kernel.bytes_computed", rows_scanned * (data.dim() * 8) as f64, "bytes-computed"));
    m.push(("kernel.rows_per_s", rows_scanned / query_s, "1/s"));

    // ---- executor: core executor_side, one partition at a time ----
    let ranges = PartitionRanges::new(n, p);
    let kernel = tree.kernel_config();
    let mut escratch = ExecutorScratch::new();
    let mut task_s = Vec::with_capacity(p);
    let mut locals: Vec<LocalClustering> = Vec::with_capacity(p);
    for part in 0..p {
        let t = Instant::now();
        let mut source = TreeNeighborSource::new(&tree, &mut scratch, eps, PruneConfig::EXACT);
        locals.push(local_partial_clusters_source(
            &mut source,
            w.params,
            &ranges,
            part,
            SeedPolicy::PerBoundaryEdge,
            &mut escratch,
            kernel,
        ));
        task_s.push(secs(t));
    }
    let busy_s: f64 = task_s.iter().sum();
    let task_max_s = task_s.iter().cloned().fold(0.0, f64::max);
    let sum = |f: fn(&LocalClustering) -> usize| locals.iter().map(f).sum::<usize>() as f64;
    m.push(("executor.busy_s", busy_s, "s"));
    m.push(("executor.task_max_s", task_max_s, "s"));
    m.push(("executor.imbalance", task_max_s / (busy_s / p as f64), "ratio"));
    m.push(("executor.self_s", busy_s - query_s, "s"));
    m.push(("executor.queries", sum(|l| l.stats.neighbor_queries), "count"));
    m.push(("executor.neighbors", sum(|l| l.stats.neighbors_found), "count"));
    m.push(("executor.seeds", sum(|l| l.stats.seeds_placed), "count"));
    m.push(("executor.partials", sum(|l| l.clusters.len()), "count"));

    // ---- sparklet: the same calls as one engine stage ----
    let shuffle_before = ctx.shuffle_records();
    let shipped = data.size_bytes() + tree.shipped_bytes();
    let t = Instant::now();
    let shared = ctx.broadcast_sized((tree, ranges), shipped);
    let broadcast_s = secs(t);
    let acc =
        ctx.accumulator_with(Vec::new(), |v: &mut Vec<(usize, LocalClustering)>, u| v.push(u));
    let (task_acc, bcast, params) = (acc.clone(), shared.clone(), w.params);
    let t = Instant::now();
    ctx.range(0, n as u64, p)
        .foreach_partition(move |part, _| {
            let (tree, ranges) = bcast.value();
            let local = STAGE_SCRATCH.with(|s| {
                let (qs, es) = &mut *s.borrow_mut();
                let mut source = TreeNeighborSource::new(tree, qs, eps, PruneConfig::EXACT);
                let policy = SeedPolicy::PerBoundaryEdge;
                let kernel = tree.kernel_config();
                local_partial_clusters_source(&mut source, params, ranges, part, policy, es, kernel)
            });
            task_acc.add((part, local));
        })
        .map_err(|e| format!("stage: {e}"))?;
    let stage_s = secs(t);
    let stage_job = ctx.last_job().ok_or("stage recorded no job metrics")?;
    let mut staged = acc.take();
    staged.sort_by_key(|&(part, _)| part);
    let same = |(a, b): (&(usize, LocalClustering), &LocalClustering)| {
        a.1.clusters == b.clusters && a.1.core_points == b.core_points
    };
    if staged.len() != p || !staged.iter().zip(&locals).all(same) {
        return Err("the engine stage's partial clusters differ from the direct calls".into());
    }
    let mut overhead = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        ctx.range(0, p as u64, p).foreach_partition(|_, _| {}).map_err(|e| format!("{e}"))?;
        overhead.push(secs(t) / p as f64);
    }
    let shuffle_records = ctx.shuffle_records() - shuffle_before;
    if shuffle_records != 0 {
        return Err(format!("{shuffle_records} shuffle records; the design moves none"));
    }
    m.push(("sparklet.stage_s", stage_s, "s"));
    m.push(("sparklet.stage_wait_s", stage_s - busy_s / workers as f64, "s"));
    m.push(("sparklet.task_overhead_s", median(&overhead), "s"));
    m.push(("sparklet.broadcast_s", broadcast_s, "s"));
    m.push(("sparklet.shuffle_records", shuffle_records as f64, "count"));
    m.push(("sparklet.failed_attempts", stage_job.failed_attempts() as f64, "count"));

    // ---- merge: core merge, on the partials in the driver's order ----
    let mut core = vec![false; n];
    let mut partials: Vec<PartialCluster> = Vec::new();
    for local in locals {
        local.core_points.iter().for_each(|&c| core[c as usize] = true);
        partials.extend(local.clusters);
    }
    partials.sort_by_key(|c| (c.owner, c.members.first().copied()));
    let (extract_s, edges) = repeat(|| Ok(extract_seed_edges(n, &partials, &core, workers)))?;
    let (union_s, outcome) = repeat(|| Ok(merge_with_edges(n, &partials, &edges, workers)))?;
    let mut merged = outcome.clustering;
    merged.core = core;
    check_labels(&prep.reference, &merged).map_err(|e| format!("merge layer: {e}"))?;
    if w.min_partials > 0 && (partials.len() < w.min_partials || edges.is_empty()) {
        return Err(format!(
            "{} partials and {} SEED edges: merge not engaged",
            partials.len(),
            edges.len()
        ));
    }
    m.push(("merge.extract_s", extract_s, "s"));
    m.push(("merge.union_s", union_s, "s"));
    m.push(("merge.partials", partials.len() as f64, "count"));
    m.push(("merge.edges", edges.len() as f64, "count"));
    m.push(("merge.clusters", outcome.merged_clusters as f64, "count"));

    m.push(("memory.peak_bytes", untraced.memory.peak_bytes as f64, "bytes"));

    // ---- reconciliation ----
    let layers = parse_s + dataset_s + build_s + broadcast_s + stage_s + extract_s + union_s;
    m.push(("driver.other_s", job_s - layers, "s"));
    let tctx = Context::new(ClusterConfig::local(workers).with_tracing());
    let traced = run_job(w, &prep.dfs, &tctx, workers);
    // the traced context routed the DFS's block events into its trace;
    // detach so later untraced reads pay nothing
    prep.dfs.set_event_sink(None);
    let (traced_s, traced) = traced?;
    check_job(w, &prep.reference, &traced).map_err(|e| format!("traced job: {e}"))?;
    if traced.clustering != untraced.clustering {
        return Err("the traced job's labels differ from the untraced job's".into());
    }
    m.push(("trace.job_s", traced_s, "s"));
    m.push(("trace.overhead_s", traced_s - job_s, "s"));
    m.push(("trace.events", tctx.trace().snapshot().events.len() as f64, "count"));

    // ---- models: never a measured gain ----
    let nanos = task_s.iter().map(|s| (s * 1e9) as u64);
    let makespan = lpt_makespan_nanos(nanos, MODEL_CORES) as f64 / 1e9;
    m.push(("model.lpt_makespan_8_s", makespan, "s-model"));
    m.push(("model.lpt_speedup_8", busy_s / makespan, "x-model"));
    Ok(m)
}
