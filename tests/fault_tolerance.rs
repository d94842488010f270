//! Fault-tolerance integration: the framework-level resilience the
//! paper contrasts with MPI ("one failed process causes the whole job
//! to fail") must hold across the whole stack.

use scalable_dbscan::datagen::StandardDataset;
use scalable_dbscan::dbscan::{MrDbscan, ShuffleDbscan};
use scalable_dbscan::engine::{FaultPlan, FaultRule, SparkError};
use scalable_dbscan::prelude::*;
use std::sync::Arc;

fn data_and_params() -> (Arc<Dataset>, DbscanParams) {
    let spec = StandardDataset::C10k.scaled_spec(32);
    let (data, _) = spec.generate();
    (Arc::new(data), DbscanParams::new(spec.eps, spec.min_pts).unwrap())
}

#[test]
fn task_failures_do_not_change_the_clustering() {
    let (data, params) = data_and_params();
    let clean_ctx = Context::new(ClusterConfig::local(4));
    let clean = SparkDbscan::new(params).run(&clean_ctx, Arc::clone(&data));

    for prob in [0.3, 1.0] {
        let cfg = ClusterConfig::local(4)
            .with_fault(FaultPlan::tasks(FaultRule::with_prob(prob, 2)))
            .with_max_attempts(5);
        let ctx = Context::new(cfg);
        let faulty = SparkDbscan::new(params).run(&ctx, Arc::clone(&data));
        assert_eq!(
            faulty.clustering.canonicalize().labels,
            clean.clustering.canonicalize().labels,
            "prob={prob}"
        );
        assert_eq!(
            faulty.num_partial_clusters, clean.num_partial_clusters,
            "accumulator stays exactly-once under retries (prob={prob})"
        );
    }
}

#[test]
fn executor_loss_between_jobs_is_recovered_from_lineage() {
    let (data, params) = data_and_params();
    let ctx = Context::new(ClusterConfig::local(4));
    let first = SparkDbscan::new(params).run(&ctx, Arc::clone(&data));
    // lose an executor (drops its cached partitions + shuffle outputs)
    ctx.kill_executor(1);
    let second = SparkDbscan::new(params).run(&ctx, Arc::clone(&data));
    assert_eq!(first.clustering.canonicalize().labels, second.clustering.canonicalize().labels);
}

#[test]
fn mapreduce_retries_map_and_reduce_tasks() {
    let (data, params) = data_and_params();
    let clean = MrDbscan::new(params, 3).run(Arc::clone(&data), 2).unwrap();

    // exercise injected failures at the engine level: a job where every
    // task's first attempt fails must still produce the clean answer
    use scalable_dbscan::mr::{Counters, Emitter, JobConfig, MapReduceJob, Mapper, Reducer};
    struct Double;
    impl Mapper for Double {
        type In = u32;
        type KOut = u32;
        type VOut = u32;
        fn map(&self, x: u32, emit: &mut Emitter<u32, u32>, _c: &Counters) {
            emit.emit(x % 10, x);
        }
    }
    struct Count;
    impl Reducer for Count {
        type KIn = u32;
        type VIn = u32;
        type Out = (u32, usize);
        fn reduce(&self, k: u32, vs: Vec<u32>, out: &mut Vec<(u32, usize)>, _c: &Counters) {
            out.push((k, vs.len()));
        }
    }
    let splits: Vec<Vec<u32>> = (0..4).map(|s| (s * 25..(s + 1) * 25).collect()).collect();
    let clean_job =
        MapReduceJob::new(Double, Count, JobConfig::with_slots(2)).run(splits.clone()).unwrap();
    let faulty_job = MapReduceJob::new(Double, Count, JobConfig::with_slots(2).with_faults(1.0, 1))
        .run(splits)
        .unwrap();
    let sort = |mut v: Vec<(u32, usize)>| {
        v.sort_unstable();
        v
    };
    assert_eq!(sort(clean_job.outputs), sort(faulty_job.outputs));
    assert!(faulty_job.metrics.map_retries >= 2);
    assert!(faulty_job.metrics.reduce_retries >= 1);

    // and the DBSCAN-level MR result is stable run to run
    let again = MrDbscan::new(params, 3).run(Arc::clone(&data), 2).unwrap();
    assert_eq!(clean.clustering.canonicalize().labels, again.clustering.canonicalize().labels);
}

#[test]
fn accumulators_merge_exactly_once_under_injected_retries() {
    // every task's first two attempts fail; buffered accumulator
    // updates from those failed attempts must be discarded, so each
    // element is folded exactly once
    let cfg = ClusterConfig::local(4)
        .with_fault(FaultPlan::none().with_task_failures(FaultRule::with_prob(1.0, 2)))
        .with_max_attempts(5);
    let ctx = Context::new(cfg);
    let sum = ctx.accumulator(0u64);
    let adds = sum.clone();
    ctx.parallelize((1..=200u64).collect(), 8)
        .foreach_partition(move |_, data| {
            for v in data {
                adds.add(v);
            }
        })
        .unwrap();
    assert_eq!(sum.value(), 200 * 201 / 2, "each element folded exactly once despite retries");
}

#[test]
fn exhausting_the_attempt_budget_is_a_typed_error_not_a_hang() {
    // failures never stop firing: the job must abort with the typed
    // TaskFailed error after exactly max_task_attempts tries, and no
    // accumulator update from any of the doomed attempts may leak
    let cfg = ClusterConfig::local(2)
        .with_fault(FaultPlan::none().with_task_failures(FaultRule::with_prob(1.0, usize::MAX)))
        .with_max_attempts(3);
    let ctx = Context::new(cfg);
    let acc = ctx.accumulator(0u64);
    let adds = acc.clone();
    let err = ctx
        .parallelize((1..=100u64).collect(), 4)
        .foreach_partition(move |_, data| {
            for v in data {
                adds.add(v);
            }
        })
        .unwrap_err();
    match err {
        SparkError::TaskFailed { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    assert_eq!(acc.value(), 0, "failed attempts must not leak accumulator updates");
}

#[test]
fn runner_facade_surfaces_engine_fault_exhaustion() {
    // the same exhaustion, end to end through the DbscanRunner facade:
    // a typed RunnerError::Engine(TaskFailed), not a hang or a panic
    let (data, params) = data_and_params();
    let cfg = ClusterConfig::local(2)
        .with_fault(FaultPlan::none().with_task_failures(FaultRule::with_prob(1.0, usize::MAX)))
        .with_max_attempts(2);
    let ctx = Context::new(cfg);
    let env = RunEnv::engine(&ctx);
    let err = ShuffleDbscan::new(params).run_dbscan(&env, data).unwrap_err();
    match err {
        RunnerError::Engine(SparkError::TaskFailed { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected Engine(TaskFailed), got {other}"),
    }
}

#[test]
fn text_file_reads_survive_all_but_one_datanode() {
    use scalable_dbscan::dfs::{DfsCluster, DfsConfig};
    let dfs = Arc::new(
        DfsCluster::new(DfsConfig { num_datanodes: 3, replication: 3, block_size: 8 }).unwrap(),
    );
    let content = "alpha\nbeta\ngamma\ndelta\n";
    dfs.write_file("/t.txt", content.as_bytes()).unwrap();
    // kill N-1 datanodes: every block still has its last replica
    dfs.kill_datanode(0).unwrap();
    dfs.kill_datanode(1).unwrap();
    let ctx = Context::new(ClusterConfig::local(2));
    let mut lines = ctx.text_file(Arc::clone(&dfs), "/t.txt").unwrap().collect().unwrap();
    lines.sort();
    assert_eq!(lines, vec!["alpha", "beta", "delta", "gamma"]);

    // kill the last holder: exhaustion is a typed storage error that
    // propagates through the task layer and wraps into RunnerError
    dfs.kill_datanode(2).unwrap();
    let err = ctx.text_file(Arc::clone(&dfs), "/t.txt").unwrap().collect().unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, SparkError::Storage(_)), "got {err:?}");
    assert!(msg.contains("all replicas lost"), "storage error names the cause: {msg}");
    let wrapped = RunnerError::from(err);
    assert!(matches!(wrapped, RunnerError::Engine(SparkError::Storage(_))));
}

#[test]
fn injected_dfs_read_faults_fall_back_across_replicas() {
    use scalable_dbscan::dfs::{DfsCluster, DfsConfig};
    let dfs = Arc::new(
        DfsCluster::new(DfsConfig { num_datanodes: 4, replication: 3, block_size: 8 }).unwrap(),
    );
    let content = "one\ntwo\nthree\nfour\nfive\n";
    dfs.write_file("/t.txt", content.as_bytes()).unwrap();
    let expect: Vec<String> = {
        let mut v: Vec<String> = content.lines().map(String::from).collect();
        v.sort();
        v
    };

    // curse at most one replica per block via the engine fault plan:
    // reads heal through the surviving replicas, the answer is intact
    let cfg = ClusterConfig::local(2)
        .with_fault(FaultPlan::none().with_dfs_read_failures(FaultRule::with_prob(1.0, 1)))
        .with_seed(7);
    let ctx = Context::new(cfg);
    let mut lines = ctx.text_file(Arc::clone(&dfs), "/t.txt").unwrap().collect().unwrap();
    lines.sort();
    assert_eq!(lines, expect);

    // curse every replica of every block: typed exhaustion, no hang
    let cursed = Context::new(
        ClusterConfig::local(2)
            .with_fault(FaultPlan::none().with_dfs_read_failures(FaultRule::with_prob(1.0, 3)))
            .with_seed(7),
    );
    let err = cursed.text_file(Arc::clone(&dfs), "/t.txt").unwrap().collect().unwrap_err();
    assert!(matches!(err, SparkError::Storage(_)), "got {err:?}");
}

#[test]
fn datanode_loss_does_not_lose_input_data() {
    use scalable_dbscan::datagen;
    use scalable_dbscan::dfs::{DfsCluster, DfsConfig};
    let (data, _) = data_and_params();
    let dfs = Arc::new(
        DfsCluster::new(DfsConfig { num_datanodes: 4, replication: 2, block_size: 4096 }).unwrap(),
    );
    datagen::write_dataset_to_dfs(&dfs, "/d.csv", &data).unwrap();
    dfs.kill_datanode(2).unwrap();
    let back = datagen::read_dataset_from_dfs(&dfs, "/d.csv").unwrap();
    assert_eq!(back, *data);
    // the read healed replication; another failure is survivable too
    dfs.kill_datanode(3).unwrap();
    let back2 = datagen::read_dataset_from_dfs(&dfs, "/d.csv").unwrap();
    assert_eq!(back2, *data);
}
