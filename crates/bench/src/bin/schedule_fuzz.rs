//! Schedule-exploration campaign — CI's interleaving fuzzer.
//!
//! Drives [`Explorer`] over many seeded schedules of a full
//! [`SparkDbscan`] job (via [`DbscanExploreJob`]) under several fault
//! plans, checking every run against the invariant-oracle set. Any
//! violation writes the shrunk replay token to `<out_dir>/failing_token.txt`
//! (CI uploads it as an artifact) and exits non-zero. A JSON summary
//! with throughput lands in `<out_dir>/schedule_fuzz.json`.
//!
//! `--mutate` runs the harness self-check instead: a deliberately
//! order-sensitive job (its fingerprint folds accumulator arrival
//! order unsorted — exactly the bug class the explorer exists to
//! catch) must be caught by the `label-identity` oracle and shrunk to
//! a replay token of at most 20 decisions. Exit is non-zero when the
//! planted bug is *missed*, so CI also guards the detector itself.
//!
//! Usage:
//!   cargo run --release -p dbscan-bench --bin schedule_fuzz -- \
//!       [schedules] [out_dir] [--mutate]

use dbscan_core::{DbscanExploreJob, DbscanParams};
use dbscan_datagen::StandardDataset;
use sparklet::{
    ClusterConfig, Context, ExecutorKillAt, Explorer, FaultPlan, FaultRule, JobArtifacts,
    SparkResult,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const PARTITIONS: usize = 4;

fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
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

fn campaign_job() -> DbscanExploreJob {
    let mut spec = StandardDataset::C10k.scaled_spec(32);
    spec.params.seed = 1000;
    let (data, _) = spec.generate();
    let params = DbscanParams::new(spec.eps, spec.min_pts).expect("Table I params");
    DbscanExploreJob::new(Arc::new(data), params, PARTITIONS)
}

fn cluster_with(plan: FaultPlan) -> ClusterConfig {
    ClusterConfig::local(PARTITIONS).with_fault(plan).with_max_attempts(6)
}

/// Explore `schedules` seeds split evenly across the fault plans.
/// Returns the number of violations (0 or 1 per plan — exploration
/// stops at the first).
fn run_campaign(schedules: usize, out_dir: &Path) -> usize {
    let job = campaign_job();
    let plans = plans();
    let per_plan = schedules.div_ceil(plans.len());
    let mut violations = 0usize;
    let mut explored = 0usize;
    let t0 = Instant::now();

    for (i, (name, plan)) in plans.into_iter().enumerate() {
        let explorer = Explorer::new(cluster_with(plan))
            .with_schedules(per_plan)
            .with_seed0((i * per_plan) as u64);
        let report = match explorer.explore(&job) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("FAIL schedule_fuzz[{name}]: baseline schedule errored: {e}");
                violations += 1;
                continue;
            }
        };
        explored += report.schedules_run;
        match report.violation {
            None => println!("ok   schedule_fuzz[{name}]: {} schedules clean", per_plan),
            Some(v) => {
                std::fs::create_dir_all(out_dir).expect("create out dir");
                let token_file = out_dir.join("failing_token.txt");
                std::fs::write(&token_file, format!("plan={name}\n{}\n", v.report()))
                    .expect("write failing token");
                eprintln!("FAIL schedule_fuzz[{name}]:\n{}", v.report());
                eprintln!("token written to {}", token_file.display());
                violations += 1;
            }
        }
    }

    let elapsed = t0.elapsed();
    let rate = explored as f64 / elapsed.as_secs_f64().max(1e-9);
    std::fs::create_dir_all(out_dir).expect("create out dir");
    let summary = format!(
        "{{\n  \"schedules\": {explored},\n  \"violations\": {violations},\n  \
         \"elapsed_secs\": {:.3},\n  \"schedules_per_sec\": {rate:.2}\n}}\n",
        elapsed.as_secs_f64()
    );
    std::fs::write(out_dir.join("schedule_fuzz.json"), &summary).expect("write summary");
    println!(
        "schedule_fuzz: {explored} schedules, {violations} violations, {rate:.1} schedules/sec"
    );
    violations
}

/// The planted bug: fingerprint folds collection-accumulator arrival
/// order unsorted, so it depends on which replies the driver processes
/// first.
fn planted_bug_job(ctx: &Context) -> SparkResult<JobArtifacts> {
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

/// Detector self-check: the planted ordering bug must be caught and
/// shrunk to a short token. Returns the number of failures.
fn run_mutation_check(schedules: usize, out_dir: &Path) -> usize {
    let explorer = Explorer::new(ClusterConfig::local(PARTITIONS)).with_schedules(schedules);
    let report = match explorer.explore(&planted_bug_job) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL schedule_fuzz[mutate]: baseline errored: {e}");
            return 1;
        }
    };
    match report.violation {
        None => {
            eprintln!(
                "FAIL schedule_fuzz[mutate]: planted ordering bug NOT caught in {} schedules",
                report.schedules_run
            );
            1
        }
        Some(v) => {
            let ok_oracle = v.oracle == "label-identity";
            let ok_len = v.shrunk.decisions() <= 20;
            std::fs::create_dir_all(out_dir).expect("create out dir");
            std::fs::write(out_dir.join("mutation_token.txt"), format!("{}\n", v.report()))
                .expect("write mutation token");
            println!(
                "schedule_fuzz[mutate]: caught by {} after {} schedules; token {} ({} decisions, \
                 {} probes)",
                v.oracle,
                report.schedules_run,
                v.shrunk,
                v.shrunk.decisions(),
                v.probes
            );
            if !ok_oracle {
                eprintln!("FAIL schedule_fuzz[mutate]: wrong oracle {}", v.oracle);
            }
            if !ok_len {
                eprintln!(
                    "FAIL schedule_fuzz[mutate]: shrunk token too long ({} decisions)",
                    v.shrunk.decisions()
                );
            }
            usize::from(!ok_oracle) + usize::from(!ok_len)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mutate = args.iter().any(|a| a == "--mutate");
    let positional: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let schedules: usize =
        positional.first().map(|s| s.parse().expect("schedules must be an integer")).unwrap_or(256);
    let out_dir = positional.get(1).map(|s| s.as_str()).unwrap_or("results");
    let out_dir = Path::new(out_dir);

    let failures = if mutate {
        run_mutation_check(schedules.min(64), out_dir)
    } else {
        run_campaign(schedules, out_dir)
    };
    if failures > 0 {
        std::process::exit(1);
    }
}
