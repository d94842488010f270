//! Differential chaos harness: every DBSCAN entrypoint, driven through
//! the [`DbscanRunner`] facade, must produce the *same clustering* under
//! a matrix of seeded fault plans as it does on a clean run — and the
//! engine's recovery must be visible and surgical in the trace.
//!
//! The matrix is `SEEDS x plans() x runners()`. Every run is
//! reproducible from the `seed=.. plan=.. runner=..` tag embedded in
//! each panic message: the dataset, the fault schedule and the engine
//! configuration are all pure functions of the seed. On failure the
//! chaos run's Chrome trace is written to `results/` so CI can upload
//! it as an artifact.

use scalable_dbscan::dbscan::{
    MrDbscan, MrDbscanIterative, SequentialDbscan, ShuffleDbscan, SparkDbscan,
};
use scalable_dbscan::engine::{
    chrome_trace_json, EventKind, ExecutorKillAt, FaultPlan, FaultRule, Trace,
};
use scalable_dbscan::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const SEEDS: [u64; 4] = [1, 2, 3, 4];
const PARTITIONS: usize = 4;

/// The fault plans of the chaos campaign. Each plan stresses one
/// recovery path; all are deterministic in the context seed.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        // task attempts fail (twice per task at worst) and a third of
        // tasks run slow: retry + straggler accounting
        (
            "task-failures",
            FaultPlan::none()
                .with_task_failures(FaultRule::with_prob(1.0, 2))
                .with_stragglers(FaultRule::with_prob(0.3, 1), 2),
        ),
        // first fetch of every reduce task fails, marking a map output
        // lost: lineage recomputation of exactly the lost partitions
        (
            "fetch-failures",
            FaultPlan::none()
                .with_fetch_failures(FaultRule::always_first(1))
                .with_task_failures(FaultRule::with_prob(0.4, 1)),
        ),
        // executors die mid-stage, dropping their shuffle outputs and
        // in-flight attempts; mild task faults on top
        (
            "executor-kill",
            FaultPlan::none()
                .with_task_failures(FaultRule::with_prob(0.3, 1))
                .with_executor_kill(ExecutorKillAt { stage: 1, executor: 0, after_tasks: 1 })
                .with_executor_kill(ExecutorKillAt { stage: 3, executor: 1, after_tasks: 1 }),
        ),
    ]
}

/// All five entrypoints behind the facade. `exact()` variants so every
/// runner agrees with the sequential oracle point for point.
fn runners(params: DbscanParams) -> Vec<Box<dyn DbscanRunner>> {
    vec![
        Box::new(SequentialDbscan::new(params)),
        Box::new(SparkDbscan::new(params).exact()),
        Box::new(ShuffleDbscan::new(params).partitions(PARTITIONS)),
        Box::new(MrDbscan::new(params, PARTITIONS).exact()),
        Box::new(MrDbscanIterative::new(params, PARTITIONS)),
    ]
}

/// Build cells pinned on top of the default `Resources` (auto threads,
/// lane-blocked leaves): one build thread with the scalar leaf layout,
/// eight with the lane-blocked one. Labels must not depend on either.
fn pinned_builds() -> [BuildConfig; 2] {
    [
        BuildConfig::default().with_threads(1).with_kernel(KernelConfig::scalar()),
        BuildConfig::default().with_threads(8),
    ]
}

/// Seeded workload: the dataset itself varies with the chaos seed.
fn dataset(seed: u64) -> (Arc<Dataset>, DbscanParams) {
    let mut spec = StandardDataset::C10k.scaled_spec(32);
    spec.params.seed = 1000 + seed;
    let (data, _) = spec.generate();
    (Arc::new(data), DbscanParams::new(spec.eps, spec.min_pts).unwrap())
}

fn chaos_config(seed: u64, plan: &FaultPlan) -> ClusterConfig {
    ClusterConfig::local(PARTITIONS)
        .with_tracing()
        .with_seed(seed)
        .with_fault(plan.clone())
        .with_max_attempts(6)
}

/// On a failed invariant: persist the chaos run's trace for the CI
/// artifact, then panic with the full reproduction tag.
fn fail(tag: &str, trace: Option<&Trace>, msg: &str) -> ! {
    if let Some(t) = trace {
        let _ = std::fs::create_dir_all("results");
        let path = format!("results/chaos-{}.json", tag.replace(' ', "-").replace('=', "_"));
        if std::fs::write(&path, chrome_trace_json(t)).is_ok() {
            eprintln!("chaos: wrote failing trace to {path}");
        }
    }
    panic!("chaos[{tag}]: {msg}");
}

type RecoverySets = (HashSet<(usize, usize)>, HashSet<(usize, usize)>);

/// (lost, recomputed) map-output identity sets from a trace.
fn lost_and_recomputed(t: &Trace) -> RecoverySets {
    let mut lost = HashSet::new();
    let mut recomputed = HashSet::new();
    for e in &t.events {
        match e.kind {
            EventKind::MapOutputLost { shuffle, partition } => {
                lost.insert((shuffle, partition));
            }
            EventKind::MapOutputRecomputed { shuffle, partition } => {
                recomputed.insert((shuffle, partition));
            }
            _ => {}
        }
    }
    (lost, recomputed)
}

#[test]
fn chaos_matrix_all_runners_all_plans_all_seeds() {
    for seed in SEEDS {
        let (data, params) = dataset(seed);
        let oracle = SequentialDbscan::new(params).run(Arc::clone(&data));

        // clean reference labels per runner (engine context without
        // faults; the facade routes each runner appropriately)
        let clean_ctx = Context::new(ClusterConfig::local(PARTITIONS).with_seed(seed));
        let clean_env = RunEnv::engine(&clean_ctx);
        let clean_labels: Vec<Vec<Label>> = runners(params)
            .iter()
            .map(|r| {
                let out = r
                    .run_dbscan(&clean_env, Arc::clone(&data))
                    .unwrap_or_else(|e| panic!("chaos[seed={seed} clean {}]: {e}", r.name()));
                out.clustering.canonicalize().labels
            })
            .collect();

        for (plan_name, plan) in plans() {
            for (i, runner) in runners(params).iter().enumerate() {
                let tag = format!("seed={seed} plan={plan_name} runner={}", runner.name());
                let ctx = Context::new(chaos_config(seed, &plan));
                let env = RunEnv::engine(&ctx);
                let out = match runner.run_dbscan(&env, Arc::clone(&data)) {
                    Ok(out) => out,
                    Err(e) => {
                        fail(&tag, Some(&ctx.trace().snapshot()), &format!("run failed: {e}"))
                    }
                };
                let trace = ctx.trace().snapshot();

                // (a) byte-identical clustering vs the clean run, and
                // point-for-point agreement with the sequential oracle
                let labels = out.clustering.canonicalize().labels;
                if labels != clean_labels[i] {
                    fail(&tag, Some(&trace), "clustering differs from clean run");
                }
                if !scalable_dbscan::dbscan::core_labels_equivalent(&out.clustering, &oracle) {
                    fail(&tag, Some(&trace), "clustering differs from sequential oracle");
                }

                // (c) recovery is surgical: nothing is recomputed that
                // was not first marked lost, and under the fetch plan
                // every lost output is recomputed (the job finished)
                let (lost, recomputed) = lost_and_recomputed(&trace);
                if !recomputed.is_subset(&lost) {
                    fail(&tag, Some(&trace), "recomputed a map output that was never lost");
                }
                if plan_name == "fetch-failures" && lost != recomputed {
                    fail(&tag, Some(&trace), "lost map outputs were not all recomputed");
                }
                if plan_name == "fetch-failures" && runner.name() == "shuffle" && lost.is_empty() {
                    fail(&tag, Some(&trace), "fetch faults never fired in the shuffle runner");
                }
            }
        }
    }
}

#[test]
fn chaos_accumulators_merge_once_under_every_plan() {
    // (b) accumulator merge-once: under every plan of the matrix a
    // summing accumulator sees each element exactly once, regardless
    // of how many attempts ran
    for seed in SEEDS {
        for (plan_name, plan) in plans() {
            let tag = format!("seed={seed} plan={plan_name} runner=accumulator");
            let ctx = Context::new(chaos_config(seed, &plan));
            let acc = ctx.accumulator(0u64);
            let adds = acc.clone();
            let r = ctx.parallelize((1..=500u64).collect(), PARTITIONS * 2).foreach_partition(
                move |_, data| {
                    for v in data {
                        adds.add(v);
                    }
                },
            );
            if let Err(e) = r {
                fail(&tag, Some(&ctx.trace().snapshot()), &format!("job failed: {e}"));
            }
            let got = acc.value();
            if got != 500 * 501 / 2 {
                fail(
                    &tag,
                    Some(&ctx.trace().snapshot()),
                    &format!("accumulator saw {got}, want {}", 500 * 501 / 2),
                );
            }
        }
    }
}

#[test]
fn chaos_cost_balanced_matches_clean_equal_count() {
    // the cost planner only moves partition *cuts*; SEED semantics are
    // invariant under any contiguous index ranges, so a cost-balanced
    // exact run under every fault plan must stay byte-identical to the
    // clean equal-count reference
    for seed in SEEDS {
        let (data, params) = dataset(seed);

        let clean_ctx = Context::new(ClusterConfig::local(PARTITIONS).with_seed(seed));
        let reference = SparkDbscan::new(params)
            .exact()
            .run(&clean_ctx, Arc::clone(&data))
            .clustering
            .canonicalize();

        for (plan_name, plan) in plans() {
            for build in [BuildConfig::default()].into_iter().chain(pinned_builds()) {
                let tag = format!(
                    "seed={seed} plan={plan_name} runner=spark-cost-balanced-t{}-{:?}",
                    build.threads, build.kernel.layout
                );
                let ctx = Context::new(chaos_config(seed, &plan));
                let res = Resources::new().with_balance(Balance::Cost).with_build(build);
                let out =
                    SparkDbscan::new(params).exact().resources(res).run(&ctx, Arc::clone(&data));
                let trace = ctx.trace().snapshot();
                if out.clustering.canonicalize().labels != reference.labels {
                    fail(&tag, Some(&trace), "cost-balanced labels differ from clean equal-count");
                }
                let (lost, recomputed) = lost_and_recomputed(&trace);
                if !recomputed.is_subset(&lost) {
                    fail(&tag, Some(&trace), "recomputed a map output that was never lost");
                }
                if out.predicted_cost.as_ref().is_none_or(|p| p.len() != PARTITIONS) {
                    fail(&tag, Some(&trace), "cost plan predictions missing from the result");
                }
            }
        }
    }
}

#[test]
fn chaos_overlapped_collection_matches_clean_at_every_thread_count() {
    // the overlapped collector folds each task's partial clusters into
    // the driver accumulator *as the task finishes* — under retries,
    // stragglers and executor kills the fold must still apply exactly
    // once per task, and the parallel build must not let thread
    // scheduling leak into the labels. Clean 1-thread run is the
    // reference; every plan × thread combination must reproduce it.
    for seed in SEEDS {
        let (data, params) = dataset(seed);
        let build = |threads| {
            BuildConfig::default().with_threads(threads).with_bucket_size(8).with_par_cutoff(64)
        };

        let clean_ctx = Context::new(ClusterConfig::local(PARTITIONS).with_seed(seed));
        let reference = SparkDbscan::new(params)
            .exact()
            .resources(Resources::new().with_build(build(1)))
            .run(&clean_ctx, Arc::clone(&data));
        let ref_labels = reference.clustering.canonicalize().labels;

        for (plan_name, plan) in plans() {
            for threads in [1usize, 8] {
                let tag =
                    format!("seed={seed} plan={plan_name} runner=spark-overlapped-t{threads}");
                let ctx = Context::new(chaos_config(seed, &plan));
                let out = SparkDbscan::new(params)
                    .exact()
                    .resources(Resources::new().with_build(build(threads)))
                    .run(&ctx, Arc::clone(&data));
                let trace = ctx.trace().snapshot();
                if out.clustering.canonicalize().labels != ref_labels {
                    fail(&tag, Some(&trace), "overlapped labels differ from clean reference");
                }
                if out.num_partial_clusters != reference.num_partial_clusters
                    || out.merge_ops != reference.merge_ops
                {
                    fail(&tag, Some(&trace), "partial-cluster accounting differs from clean run");
                }
                let (lost, recomputed) = lost_and_recomputed(&trace);
                if !recomputed.is_subset(&lost) {
                    fail(&tag, Some(&trace), "recomputed a map output that was never lost");
                }
            }
        }
    }
}

#[test]
fn chaos_tight_budget_matches_unbudgeted() {
    // a per-executor memory budget changes where bytes live — eviction,
    // scheduler backpressure — never what gets computed: every runner
    // under every fault plan with a tight budget must reproduce the
    // clean unbudgeted labels byte for byte
    //
    // SparkDbscan runs four tasks per executor lane in this cell (both
    // arms), so the budget below holds one task reservation per lane
    // and the rest must wait for it; it runs once on the default
    // resources and once per pinned build cell
    const SPARK_PARTITIONS: usize = PARTITIONS * 4;
    let cell_runners = |params: DbscanParams| -> Vec<Box<dyn DbscanRunner>> {
        let spark = SparkDbscan::new(params).exact().partitions(SPARK_PARTITIONS);
        let mut cell: Vec<Box<dyn DbscanRunner>> = runners(params)
            .into_iter()
            .map(|r| match r.name() {
                "spark" => Box::new(spark.clone()),
                _ => r,
            })
            .collect();
        for build in pinned_builds() {
            cell.push(Box::new(spark.clone().resources(Resources::new().with_build(build))));
        }
        cell
    };
    for seed in SEEDS {
        let (data, params) = dataset(seed);
        // just above the largest single task reservation (points per
        // partition × the driver's 48-byte working-set estimate): small
        // enough to crowd the lanes, big enough that no single
        // reservation exceeds the whole budget
        let budget = (data.len().div_ceil(SPARK_PARTITIONS) * 48 * 5 / 4) as u64;

        let clean_ctx = Context::new(ClusterConfig::local(PARTITIONS).with_seed(seed));
        let clean_env = RunEnv::engine(&clean_ctx);
        let clean_labels: Vec<Vec<Label>> = cell_runners(params)
            .iter()
            .map(|r| {
                let out = r
                    .run_dbscan(&clean_env, Arc::clone(&data))
                    .unwrap_or_else(|e| panic!("chaos[seed={seed} clean {}]: {e}", r.name()));
                out.clustering.canonicalize().labels
            })
            .collect();

        for (plan_name, plan) in plans() {
            for (i, runner) in cell_runners(params).iter().enumerate() {
                let tag = format!(
                    "seed={seed} plan={plan_name} runner={}#{i} budget={budget}",
                    runner.name()
                );
                let ctx = Context::new(chaos_config(seed, &plan).with_memory_budget(budget));
                let env = RunEnv::engine(&ctx);
                let out = match runner.run_dbscan(&env, Arc::clone(&data)) {
                    Ok(out) => out,
                    Err(e) => fail(
                        &tag,
                        Some(&ctx.trace().snapshot()),
                        &format!("budgeted run failed: {e}"),
                    ),
                };
                let trace = ctx.trace().snapshot();
                if out.clustering.canonicalize().labels != clean_labels[i] {
                    fail(&tag, Some(&trace), "budgeted clustering differs from clean run");
                }
                if runner.name() == "spark" && ctx.memory_stats().backpressure_waits == 0 {
                    fail(&tag, Some(&trace), "budget never deferred a crowded task");
                }
                let (lost, recomputed) = lost_and_recomputed(&trace);
                if !recomputed.is_subset(&lost) {
                    fail(&tag, Some(&trace), "recomputed a map output that was never lost");
                }
            }
        }
    }
}

#[test]
fn chaos_scalar_kernel_matches_clean_under_every_plan() {
    // the executor reuses per-worker scratch across task attempts —
    // retries, stragglers and executor kills must never leak a stale
    // epoch, queued point or counter into the labels: the scalar-layout
    // cell under every fault plan reproduces the clean default-kernel
    // run byte for byte
    let kernel = KernelConfig::scalar();
    for seed in SEEDS {
        let (data, params) = dataset(seed);

        let clean_ctx = Context::new(ClusterConfig::local(PARTITIONS).with_seed(seed));
        let reference = SparkDbscan::new(params)
            .exact()
            .run(&clean_ctx, Arc::clone(&data))
            .clustering
            .canonicalize();

        for (plan_name, plan) in plans() {
            let tag = format!("seed={seed} plan={plan_name} runner=spark-kernel-scalar");
            let ctx = Context::new(chaos_config(seed, &plan));
            let res = Resources::new().with_build(BuildConfig::default().with_kernel(kernel));
            let out = SparkDbscan::new(params).exact().resources(res).run(&ctx, Arc::clone(&data));
            let trace = ctx.trace().snapshot();
            if out.clustering.canonicalize().labels != reference.labels {
                fail(&tag, Some(&trace), "scalar-kernel labels differ from clean run");
            }
            let (lost, recomputed) = lost_and_recomputed(&trace);
            if !recomputed.is_subset(&lost) {
                fail(&tag, Some(&trace), "recomputed a map output that was never lost");
            }
        }
    }
}

#[test]
fn chaos_runs_are_reproducible_from_the_seed_alone() {
    // the printed tag is the whole reproduction recipe: same seed +
    // plan + runner must give the same clustering AND the same
    // recovery set, twice
    let seed = SEEDS[0];
    let (data, params) = dataset(seed);
    let (_, plan) = plans().remove(1); // fetch-failures
    let run = || {
        let ctx = Context::new(chaos_config(seed, &plan));
        let r = ShuffleDbscan::new(params)
            .partitions(PARTITIONS)
            .run(&ctx, Arc::clone(&data))
            .expect("chaos run");
        (r.clustering.canonicalize().labels, lost_and_recomputed(&ctx.trace().snapshot()))
    };
    let (la, sets_a) = run();
    let (lb, sets_b) = run();
    assert_eq!(la, lb, "labels must be identical run to run");
    assert_eq!(sets_a, sets_b, "lost/recomputed sets must be identical run to run");
    assert!(!sets_a.0.is_empty(), "fetch plan must actually lose map outputs");
}
