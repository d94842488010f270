//! End-to-end schedule-space exploration (ISSUE 8 acceptance tests).
//!
//! * The paper's algorithm must produce byte-identical labels under
//!   every task interleaving, including under fault plans that retry
//!   tasks and kill executors mid-stage — explored here with seeded
//!   schedules over two fault plans.
//! * A deliberately order-sensitive job must be *caught* by the
//!   `label-identity` oracle and its failing schedule shrunk to a short
//!   replayable token.
//!
//! Debug builds keep the schedule counts small. The full 256-schedule
//! campaign and the 64-schedule detector self-check run in release
//! builds only (`cargo test --release --test schedule_explore`); a
//! campaign violation writes its shrunk replay token to
//! `results/failing_token.txt`.

use scalable_dbscan::datagen::StandardDataset;
use scalable_dbscan::dbscan::DbscanExploreJob;
use scalable_dbscan::engine::{
    Context, ExecutorKillAt, Explorer, FaultPlan, FaultRule, JobArtifacts, Replay, ReplayToken,
    SparkResult,
};
use scalable_dbscan::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const PARTITIONS: usize = 4;

fn blobs() -> Arc<Dataset> {
    let mut rows = Vec::new();
    for c in 0..3 {
        for i in 0..30 {
            rows.push(vec![c as f64 * 100.0 + i as f64 * 0.01, (i % 5) as f64 * 0.01]);
        }
    }
    Arc::new(Dataset::from_rows(rows))
}

fn params() -> DbscanParams {
    DbscanParams::new(0.5, 4).unwrap()
}

fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "task-failures",
            FaultPlan::none()
                .with_task_failures(FaultRule::with_prob(1.0, 2))
                .with_stragglers(FaultRule::with_prob(0.3, 1), 2),
        ),
        (
            "executor-kill",
            FaultPlan::none()
                .with_task_failures(FaultRule::with_prob(0.3, 1))
                .with_executor_kill(ExecutorKillAt { stage: 1, executor: 0, after_tasks: 1 })
                .with_executor_kill(ExecutorKillAt { stage: 3, executor: 1, after_tasks: 1 }),
        ),
    ]
}

fn cluster_with(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig::local(PARTITIONS).with_fault(plan).with_max_attempts(6)
}

#[test]
fn spark_dbscan_is_schedule_independent_under_fault_plans() {
    let job = DbscanExploreJob::new(blobs(), params(), PARTITIONS);
    for (name, plan) in fault_plans() {
        let report = Explorer::new(cluster_with(plan))
            .with_schedules(6)
            .with_seed0(100)
            .explore_or_panic(&job);
        assert_eq!(report.schedules_run, 6, "plan {name}");
        assert!(report.ok());
    }
}

/// A job whose fingerprint depends on driver-observed completion order
/// — the class of bug the explorer exists to surface.
fn order_sensitive_job(ctx: &Context) -> SparkResult<JobArtifacts> {
    let arrivals = ctx.collection_accumulator::<u64>();
    ctx.range(0, 8, 8).foreach_partition({
        let arrivals = arrivals.clone();
        move |p, _| arrivals.add(p as u64)
    })?;
    Ok(JobArtifacts {
        fingerprint: arrivals.value().iter().flat_map(|x| x.to_le_bytes()).collect(),
        merge_once: Vec::new(),
    })
}

#[test]
fn planted_ordering_bug_is_caught_and_shrunk_to_a_replayable_token() {
    let explorer = Explorer::new(ClusterConfig::local(PARTITIONS)).with_schedules(32);
    let report = explorer.explore(&order_sensitive_job).expect("baseline must run");
    let v = report.violation.expect("the planted ordering bug must be found");

    assert_eq!(v.oracle, "label-identity", "wrong oracle fired: {}", v.report());
    assert!(
        v.shrunk.decisions() <= 20,
        "shrunk token must be short, got {} decisions: {}",
        v.shrunk.decisions(),
        v.shrunk
    );

    // the printed token round-trips and still reproduces the violation
    let reparsed: ReplayToken = v.shrunk.to_string().parse().expect("token parses back");
    assert_eq!(reparsed, v.shrunk);
    let baseline = baseline_artifacts(&order_sensitive_job);
    assert!(
        explorer.check_token(&order_sensitive_job, &baseline, &reparsed).is_some(),
        "replaying the shrunk token must reproduce the violation: {}",
        v.report()
    );
    assert!(v.report().contains("reproduce with"), "{}", v.report());
}

/// The canonical-baseline artifacts: the job run under the empty-token
/// schedule the explorer compares everything against.
fn baseline_artifacts(job: &dyn scalable_dbscan::engine::ExploreJob) -> JobArtifacts {
    let ctx =
        Context::new(ClusterConfig::local(PARTITIONS).with_schedule(Arc::new(Replay::baseline())));
    job.run(&ctx).expect("baseline job runs")
}

#[test]
fn replaying_a_token_reproduces_the_exact_schedule() {
    // on an order-sensitive observable, the same token must reproduce
    // the same arrival order every time
    let token: ReplayToken = "sv1;k=2a;0=2,1=1,3=2".parse().unwrap();
    let run = |token: ReplayToken| {
        let cfg = ClusterConfig::local(PARTITIONS).with_schedule(Arc::new(Replay::new(token)));
        let ctx = Context::new(cfg);
        order_sensitive_job(&ctx).expect("job runs").fingerprint
    };
    let a = run(token.clone());
    let b = run(token.clone());
    assert_eq!(a, b, "replay must be deterministic");
    let baseline = run(ReplayToken::default());
    assert_ne!(a, baseline, "this token's overrides must actually reorder arrivals");
}

/// A shuffle job under exploration: keyed fetch-order permutation and
/// fetch-failure recovery must not change a canonical (sorted)
/// fingerprint.
fn shuffle_job(ctx: &Context) -> SparkResult<JobArtifacts> {
    let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i % 7, i)).collect();
    let mut reduced =
        ctx.parallelize(pairs, PARTITIONS).reduce_by_key(PARTITIONS, |a, b| a + b).collect()?;
    reduced.sort_unstable();
    Ok(JobArtifacts {
        fingerprint: reduced
            .iter()
            .flat_map(|(k, v)| k.to_le_bytes().into_iter().chain(v.to_le_bytes()))
            .collect(),
        merge_once: Vec::new(),
    })
}

#[test]
fn shuffle_fetch_order_exploration_is_clean() {
    let plan = FaultPlan::none()
        .with_fetch_failures(FaultRule::always_first(1))
        .with_task_failures(FaultRule::with_prob(0.4, 1));
    let report = Explorer::new(cluster_with(plan))
        .with_schedules(8)
        .with_seed0(7)
        .explore_or_panic(&shuffle_job);
    assert!(report.ok());
    assert_eq!(report.schedules_run, 8);
}

/// The release-mode campaign: 256 seeded schedules of the full
/// exact-mode job on the seeded c10k/32 dataset, split across the
/// fault-free plan and both fault plans with disjoint seed ranges
/// (`seed0 = plan index × per-plan count`). Every schedule must pass
/// the invariant-oracle set; a violation's shrunk replay token goes to
/// `results/failing_token.txt`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn campaign_256_schedules_over_three_fault_plans_is_clean() {
    let mut spec = StandardDataset::C10k.scaled_spec(32);
    spec.params.seed = 1000;
    let (data, _) = spec.generate();
    let params = DbscanParams::new(spec.eps, spec.min_pts).unwrap();
    let job = DbscanExploreJob::new(Arc::new(data), params, PARTITIONS);
    let mut plans = vec![("none", FaultPlan::none())];
    plans.extend(fault_plans());
    let per_plan = 256usize.div_ceil(plans.len());

    let t0 = Instant::now();
    let mut failures = String::new();
    for (i, (name, plan)) in plans.into_iter().enumerate() {
        let report = Explorer::new(cluster_with(plan))
            .with_schedules(per_plan)
            .with_seed0((i * per_plan) as u64)
            .explore(&job)
            .unwrap_or_else(|e| panic!("plan {name}: baseline schedule errored: {e}"));
        match report.violation {
            None => assert_eq!(report.schedules_run, per_plan, "plan {name}"),
            Some(v) => failures.push_str(&format!("plan={name}\n{}\n", v.report())),
        }
    }
    println!("campaign: {} schedules in {:.2?}", 3 * per_plan, t0.elapsed());
    if !failures.is_empty() {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write("results/failing_token.txt", &failures).expect("write failing token");
        panic!(
            "schedule campaign found violations (token in results/failing_token.txt):\n{failures}"
        );
    }
}

/// The detector self-check at campaign scale: within 64 schedules the
/// planted ordering bug is caught by the `label-identity` oracle and
/// shrunk to at most 20 decisions.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn planted_ordering_bug_is_caught_within_64_schedules() {
    let report = Explorer::new(ClusterConfig::local(PARTITIONS))
        .with_schedules(64)
        .explore(&order_sensitive_job)
        .expect("baseline must run");
    let v = report.violation.expect("the planted ordering bug must be found");
    assert_eq!(v.oracle, "label-identity", "wrong oracle fired: {}", v.report());
    assert!(v.shrunk.decisions() <= 20, "shrunk token too long: {}", v.report());
    println!("self-check: caught after {} schedules, token {}", report.schedules_run, v.shrunk);
}
