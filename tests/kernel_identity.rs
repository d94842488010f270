//! Kernel-configuration identity, end to end: the data layout
//! (row-major scalar vs dimension-major SoA lanes) is a pure *speed*
//! knob — labels, per-partition executor stats (kernel counters
//! included) and the full event trace must be byte-identical across
//! both layouts at every build/worker thread count, at a given leaf
//! size.

use scalable_dbscan::datagen::{SkewedGenerator, SkewedParams};
use scalable_dbscan::dbscan::{ExecutorStats, SparkDbscan};
use scalable_dbscan::engine::Trace;
use scalable_dbscan::prelude::*;
use std::sync::Arc;

const SEED: u64 = 11;
const PARTITIONS: usize = 6;

/// Seeded random workload, same recipe as the chaos harness.
fn random_dataset() -> (Arc<Dataset>, DbscanParams) {
    let mut spec = StandardDataset::C10k.scaled_spec(32);
    spec.params.seed = 1000 + SEED;
    let (data, _) = spec.generate();
    (Arc::new(data), DbscanParams::new(spec.eps, spec.min_pts).unwrap())
}

/// Hotspot-skewed workload: dense Gaussian core plus uniform
/// background: huge expansion frontiers in the hotspot, tiny ones
/// outside.
fn skewed_dataset() -> (Arc<Dataset>, DbscanParams) {
    let (data, _) = SkewedGenerator::new(SkewedParams::new(600, 3, SEED)).generate();
    (Arc::new(data), DbscanParams::new(25.0, 5).unwrap())
}

struct RunOut {
    labels: Vec<Label>,
    stats: Vec<(u32, ExecutorStats)>,
    trace: Trace,
}

fn run_config(
    data: &Arc<Dataset>,
    params: DbscanParams,
    kernel: KernelConfig,
    build_threads: usize,
    worker_threads: usize,
) -> RunOut {
    run_build(
        data,
        params,
        BuildConfig::default().with_kernel(kernel),
        build_threads,
        worker_threads,
    )
}

fn run_build(
    data: &Arc<Dataset>,
    params: DbscanParams,
    build: BuildConfig,
    build_threads: usize,
    worker_threads: usize,
) -> RunOut {
    let mut cfg = ClusterConfig::local(4).with_tracing().with_seed(SEED);
    cfg.worker_threads = worker_threads;
    let ctx = Context::new(cfg);
    let res = Resources::new().with_build(build.with_threads(build_threads));
    let out = SparkDbscan::new(params)
        .resources(res)
        .exact()
        .partitions(PARTITIONS)
        .run(&ctx, Arc::clone(data));
    RunOut {
        labels: out.clustering.canonicalize().labels,
        stats: out.executor_stats,
        trace: ctx.trace().snapshot(),
    }
}

#[test]
fn every_kernel_configuration_is_byte_identical_to_scalar() {
    // (kernel, leaf size, build threads, worker threads): layouts
    // crossed with thread counts, on the default leaves and on 16-point
    // leaves (many leaves, mostly remainder rows)
    let arms = [
        (KernelConfig::default(), None, 2, 2),
        (KernelConfig::default(), Some(16), 8, 8),
        (KernelConfig::default(), Some(16), 1, 1),
        (KernelConfig::default(), None, 2, 1),
        (KernelConfig::default(), None, 1, 8),
        (KernelConfig::scalar(), None, 2, 2),
        (KernelConfig::scalar(), Some(16), 8, 8),
    ];
    let build = |kernel: KernelConfig, bucket: Option<usize>| {
        let b = BuildConfig::default().with_kernel(kernel);
        bucket.map_or(b, |n| b.with_bucket_size(n))
    };
    for (name, (data, params)) in [("random", random_dataset()), ("skewed", skewed_dataset())] {
        let reference =
            |bucket| run_build(&data, params, build(KernelConfig::scalar(), bucket), 1, 1);
        let references = [(None, reference(None)), (Some(16), reference(Some(16)))];
        for (_, r) in &references {
            assert!(
                r.labels.iter().any(|l| matches!(l, Label::Cluster(_))),
                "{name}: reference run must actually cluster something"
            );
        }
        for (kernel, bucket, bt, wt) in arms {
            let reference = &references.iter().find(|(b, _)| *b == bucket).expect("a reference").1;
            let got = run_build(&data, params, build(kernel, bucket), bt, wt);
            assert_eq!(
                got.labels, reference.labels,
                "{name}: labels differ for {kernel:?} bucket={bucket:?} build={bt} workers={wt}"
            );
            assert_eq!(
                got.stats, reference.stats,
                "{name}: executor stats differ for {kernel:?} bucket={bucket:?} build={bt} workers={wt}"
            );
            assert_eq!(
                got.trace.events, reference.trace.events,
                "{name}: trace differs for {kernel:?} bucket={bucket:?} build={bt} workers={wt}"
            );
        }
    }
}

#[test]
fn kernel_counters_reach_the_run_result_and_trace() {
    let (data, params) = random_dataset();
    let out = run_config(&data, params, KernelConfig::default(), 1, 1);
    let total: u64 = out.stats.iter().map(|(_, s)| s.kernel.rows_scanned).sum();
    assert!(total > 0, "exact runs over a BkdTree must count scanned rows");
    let kernel_events = out.trace.events.iter().filter(|e| e.kind.category() == "kernel").count();
    assert_eq!(kernel_events, PARTITIONS, "one TaskKernel event per task");
}
