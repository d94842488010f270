//! The DAG + task scheduler.
//!
//! A job (one action) is executed as: (1) walk the lineage graph and
//! materialize every missing shuffle output, oldest first — each such
//! group of map tasks is a **shuffle-map stage**; (2) run the **result
//! stage** over the action's RDD. Failed attempts are retried up to the
//! configured budget; accumulator updates of an attempt are merged only
//! when it succeeds.
//!
//! ## Fault recovery
//!
//! Three recovery paths beyond plain in-place retry:
//!
//! * **Fetch failures → lineage recomputation.** When a task fails with
//!   [`TaskErrorKind::FetchFailed`], some parent map outputs are lost.
//!   The stage parks the task and keeps draining in-flight replies; once
//!   *nothing* is in flight (a barrier — this makes the recovery round
//!   structure, and hence the trace, independent of reply arrival
//!   order), it recomputes **only the missing map partitions** as a
//!   nested shuffle-map stage from lineage, then resubmits the parked
//!   tasks at the next attempt number. Rounds are bounded by
//!   `max_stage_retries` with an exponential virtual-time backoff
//!   recorded as [`EventKind::StageRetry`].
//! * **Executor kills → in-flight requeue.** A [`FaultPlan`] kill fires
//!   after the N-th completion of its stage: the executor's cache and
//!   map outputs are dropped and its in-flight attempts are resubmitted
//!   at a bumped attempt number. Replies from superseded attempts are
//!   recognized by their stale attempt number and discarded — including
//!   their accumulator updates, preserving merge-once semantics.
//! * **Storage failures → typed surfacing.** A task that exhausts its
//!   retry budget with [`TaskErrorKind::Storage`] (e.g. every DFS
//!   replica of a block lost) fails the job with
//!   [`SparkError::Storage`] rather than a generic task failure.
//!
//! [`TaskErrorKind::FetchFailed`]: crate::task::TaskErrorKind::FetchFailed
//! [`TaskErrorKind::Storage`]: crate::task::TaskErrorKind::Storage
//! [`FaultPlan`]: crate::FaultPlan

use crate::context::Context;
use crate::error::{SparkError, SparkResult};
use crate::executor::Envelope;
use crate::memory::Grant;
use crate::metrics::{JobMetrics, StageKind, StageMetrics, TaskMetrics};
use crate::rdd::{AnyRdd, Parent, RddNode, ShuffleDepObj};
use crate::schedule::DecisionPoint;
use crate::task::{AttemptResult, TaskErrorKind, TaskOutput, TaskSpec};
use crate::trace::EventKind;
use crate::Data;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Base of the exponential virtual-time backoff between stage-retry
/// rounds: round `r` waits `BASE << (r - 1)` driver ticks.
pub(crate) const STAGE_RETRY_BACKOFF_TICKS: u64 = 4;

/// Run one action over `node`, applying `func` to each materialized
/// partition on the executors, and return the per-partition results in
/// partition order.
pub(crate) fn run_job<T: Data, R: Send + 'static>(
    ctx: &Context,
    node: Arc<dyn RddNode<Item = T>>,
    func: Arc<dyn Fn(usize, Vec<T>) -> R + Send + Sync>,
) -> SparkResult<Vec<R>> {
    let job_start = Instant::now();
    let job_id = ctx.inner.next_job_id();
    ctx.inner.tracer.record_driver(EventKind::JobSubmit { job: job_id });
    let records_before = ctx.inner.shuffles.total_records();
    let bytes_before = ctx.inner.shuffles.total_bytes();

    let as_any: Arc<dyn AnyRdd> = node.clone();
    let mut ordered: Vec<Arc<dyn ShuffleDepObj>> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    collect_deps(&as_any, &mut ordered, &mut seen);
    // every shuffle reachable from the action, for lineage recomputation
    let deps: HashMap<usize, Arc<dyn ShuffleDepObj>> =
        ordered.iter().map(|d| (d.shuffle_id(), Arc::clone(d))).collect();

    let mut stage_metrics = Vec::new();
    ensure_shuffles(ctx, &ordered, &deps, &mut stage_metrics)?;

    let stage_id = ctx.inner.next_stage_id();
    let executors = ctx.inner.config.num_executors;
    let tasks: Vec<TaskSpec> = (0..node.num_partitions())
        .map(|p| {
            let node = node.clone();
            let func = func.clone();
            TaskSpec {
                stage_id,
                partition: p,
                executor: p % executors,
                mem_hint: node.mem_hint(p),
                work: Arc::new(move || {
                    node.compute(p).map(|data| TaskOutput::Boxed(Box::new(func(p, data))))
                }),
            }
        })
        .collect();
    let mut outputs =
        run_stage(ctx, stage_id, StageKind::Result, tasks, &deps, &mut stage_metrics)?;

    let mut results = Vec::with_capacity(node.num_partitions());
    for p in 0..node.num_partitions() {
        match outputs.remove(&p) {
            Some(TaskOutput::Boxed(b)) => {
                results.push(*b.downcast::<R>().expect("result stage output type"))
            }
            _ => unreachable!("result stage produced no output for partition {p}"),
        }
    }

    let job = JobMetrics {
        job_id,
        stages: stage_metrics,
        wall: job_start.elapsed(),
        shuffle_records: ctx.inner.shuffles.total_records() - records_before,
        shuffle_bytes: ctx.inner.shuffles.total_bytes() - bytes_before,
        memory: ctx.inner.memory.stats(),
    };
    ctx.inner.tracer.record_driver(EventKind::JobEnd { job: job_id, stages: job.stages.len() });
    ctx.inner.record_job(job);
    Ok(results)
}

/// Run map stages for any missing outputs of the job's shuffle
/// dependencies, in dependency order (parents before children). Loops
/// per dependency because an executor kill *during* a map stage can
/// drop outputs of tasks that already completed in that very stage.
fn ensure_shuffles(
    ctx: &Context,
    ordered: &[Arc<dyn ShuffleDepObj>],
    deps: &HashMap<usize, Arc<dyn ShuffleDepObj>>,
    out: &mut Vec<StageMetrics>,
) -> SparkResult<()> {
    for dep in ordered {
        ctx.inner.shuffles.register(dep.shuffle_id(), dep.num_maps(), dep.num_reduces());
        let mut rounds = 0usize;
        let mut last_stage = 0usize;
        loop {
            let missing = ctx.inner.shuffles.missing_maps(dep.shuffle_id());
            if missing.is_empty() {
                break;
            }
            if rounds > ctx.inner.config.max_stage_retries {
                return Err(SparkError::FetchFailed {
                    stage: last_stage,
                    shuffle: dep.shuffle_id(),
                    retries: rounds,
                });
            }
            rounds += 1;
            last_stage = run_map_stage(ctx, dep, missing, deps, out)?;
        }
    }
    Ok(())
}

/// Run one shuffle-map stage computing `parts` of `dep`, returning its
/// stage id.
fn run_map_stage(
    ctx: &Context,
    dep: &Arc<dyn ShuffleDepObj>,
    parts: Vec<usize>,
    deps: &HashMap<usize, Arc<dyn ShuffleDepObj>>,
    out: &mut Vec<StageMetrics>,
) -> SparkResult<usize> {
    let stage_id = ctx.inner.next_stage_id();
    let executors = ctx.inner.config.num_executors;
    let tasks: Vec<TaskSpec> = parts
        .into_iter()
        .map(|p| TaskSpec {
            stage_id,
            partition: p,
            executor: p % executors,
            // map-task working memory is the shuffle buffer it writes,
            // which is storage-charged on registration instead
            mem_hint: 0,
            work: dep.make_map_task(p, p % executors),
        })
        .collect();
    run_stage(ctx, stage_id, StageKind::ShuffleMap, tasks, deps, out)?;
    Ok(stage_id)
}

fn collect_deps(
    node: &Arc<dyn AnyRdd>,
    ordered: &mut Vec<Arc<dyn ShuffleDepObj>>,
    seen: &mut HashSet<usize>,
) {
    for parent in node.parents() {
        match parent {
            Parent::Narrow(n) => collect_deps(&n, ordered, seen),
            Parent::Shuffle(dep) => {
                if seen.insert(dep.shuffle_id()) {
                    // ancestors of the shuffle's map side come first
                    collect_deps(&dep.parent_node(), ordered, seen);
                    ordered.push(dep);
                }
            }
        }
    }
}

/// A reduce task parked on a fetch failure, waiting for the recovery
/// barrier.
struct ParkedFetch {
    partition: usize,
    /// The attempt that observed the failure (resubmitted at + 1).
    attempt: usize,
    shuffle: usize,
}

/// Submit a task attempt, reserving its declared working-set bytes on
/// the executor's memory lane first. A reservation the budget cannot
/// grant *right now* queues the attempt (backpressure); a reservation
/// larger than the whole budget is a typed error. `force` is the
/// scheduler's progress guarantee — an idle lane always runs one task —
/// and overrides crowding but never the too-large rule.
fn submit_reserved(
    ctx: &Context,
    spec: TaskSpec,
    attempt: usize,
    force: bool,
    tx: &Sender<AttemptResult>,
    pending: &mut VecDeque<(TaskSpec, usize)>,
    in_flight: &mut usize,
) -> SparkResult<()> {
    match ctx.inner.memory.reserve_task(spec.executor, spec.mem_hint, force) {
        Grant::TooLarge => Err(SparkError::OutOfMemory {
            executor: spec.executor,
            requested: spec.mem_hint,
            budget: ctx.inner.memory.budget().bytes(),
        }),
        Grant::Deferred => {
            pending.push_back((spec, attempt));
            Ok(())
        }
        Grant::Granted => {
            ctx.inner.pool.submit(Envelope { spec, attempt, reply: tx.clone() });
            *in_flight += 1;
            Ok(())
        }
    }
}

/// Re-try queued submissions after a release may have made room,
/// preserving queue order for the ones that still do not fit. Uses the
/// quiet charge path so repeated polling does not inflate backpressure
/// counters or the trace.
fn drain_pending(
    ctx: &Context,
    tx: &Sender<AttemptResult>,
    pending: &mut VecDeque<(TaskSpec, usize)>,
    in_flight: &mut usize,
) {
    let policy = &ctx.inner.config.schedule;
    if policy.reorders() && pending.len() > 1 {
        // schedule exploration: the policy picks the drain order by
        // repeatedly choosing the next candidate (the final pick has
        // arity 1 and is free)
        let mut rest: Vec<(TaskSpec, usize)> = std::mem::take(pending).into_iter().collect();
        while !rest.is_empty() {
            let k = policy.choose(DecisionPoint::Drain, rest.len());
            pending.push_back(rest.remove(k));
        }
    }
    let mut still_blocked = VecDeque::with_capacity(pending.len());
    while let Some((spec, attempt)) = pending.pop_front() {
        if ctx.inner.memory.reserve_task_quiet(spec.executor, spec.mem_hint) {
            ctx.inner.pool.submit(Envelope { spec, attempt, reply: tx.clone() });
            *in_flight += 1;
        } else {
            still_blocked.push_back((spec, attempt));
        }
    }
    *pending = still_blocked;
}

/// Run a set of tasks as one stage, with retries and fault recovery,
/// returning the outputs keyed by partition. Pushes this stage's
/// metrics — after any nested recomputation stages' — onto
/// `metrics_out`.
fn run_stage(
    ctx: &Context,
    stage_id: usize,
    kind: StageKind,
    tasks: Vec<TaskSpec>,
    deps: &HashMap<usize, Arc<dyn ShuffleDepObj>>,
    metrics_out: &mut Vec<StageMetrics>,
) -> SparkResult<HashMap<usize, TaskOutput>> {
    let start = Instant::now();
    let total = tasks.len();
    ctx.inner.tracer.record_driver(EventKind::StageStart { stage: stage_id, kind, tasks: total });
    let specs: HashMap<usize, TaskSpec> = tasks.iter().map(|t| (t.partition, t.clone())).collect();
    let (tx, rx) = mpsc::channel();

    let finish_err = |failed_attempts: usize, err: SparkError| -> SparkError {
        ctx.inner.tracer.record_driver(EventKind::StageEnd { stage: stage_id, failed_attempts });
        err
    };

    let cfg = &ctx.inner.config;
    let policy = Arc::clone(&cfg.schedule);
    let explore = policy.reorders();

    // the attempt number currently accepted per partition; replies with
    // any other attempt are stale (superseded by a requeue) and dropped
    let mut expected: HashMap<usize, usize> = HashMap::with_capacity(total);
    let mut in_flight = 0usize;
    // submissions deferred by memory backpressure, in submission order
    let mut pending: VecDeque<(TaskSpec, usize)> = VecDeque::new();
    for spec in tasks {
        expected.insert(spec.partition, 0);
        submit_reserved(ctx, spec, 0, false, &tx, &mut pending, &mut in_flight)
            .map_err(|e| finish_err(0, e))?;
    }
    let kills: Vec<crate::fault::ExecutorKillAt> = cfg
        .fault
        .executor_kills
        .iter()
        .filter(|k| k.stage == stage_id)
        .copied()
        .map(|mut k| {
            if explore {
                // virtual-time kill placement: choice `c > 0` fires the
                // kill after the c-th completion instead of the plan's
                let c = policy.choose(DecisionPoint::Kill, total + 1);
                if c != 0 {
                    k.after_tasks = c;
                }
            }
            k
        })
        .collect();
    let mut kills_fired = vec![false; kills.len()];

    let mut outputs: HashMap<usize, TaskOutput> = HashMap::with_capacity(total);
    // replies received but not yet processed (exploring policies only);
    // `in_flight` keeps counting them until they are processed, so the
    // recovery-barrier conditions below are unchanged
    let mut reply_buf: Vec<AttemptResult> = Vec::new();
    let mut task_metrics = Vec::with_capacity(total);
    let mut parked: Vec<ParkedFetch> = Vec::new();
    let mut failed_attempts = 0usize;
    let mut stage_retries = 0usize;
    let mut done = 0usize;

    while done < total {
        // recovery barrier: only recompute once every in-flight reply
        // has drained, so the recomputation round's shape does not
        // depend on which replies happened to arrive first
        if in_flight == 0 && parked.is_empty() {
            // every remaining task is blocked on memory: force the head
            // of the queue through (the progress guarantee — an idle
            // lane always runs one task, even over budget)
            debug_assert!(!pending.is_empty(), "stage stalled with nothing in flight");
            let (spec, attempt) =
                pending.pop_front().expect("pending non-empty when stage is stalled");
            submit_reserved(ctx, spec, attempt, true, &tx, &mut pending, &mut in_flight)
                .map_err(|e| finish_err(failed_attempts, e))?;
            drain_pending(ctx, &tx, &mut pending, &mut in_flight);
            continue;
        }
        if in_flight == 0 {
            stage_retries += 1;
            if stage_retries > cfg.max_stage_retries {
                let shuffle = parked.first().map(|p| p.shuffle).unwrap_or(0);
                return Err(finish_err(
                    failed_attempts,
                    SparkError::FetchFailed { stage: stage_id, shuffle, retries: stage_retries },
                ));
            }
            let backoff = STAGE_RETRY_BACKOFF_TICKS << (stage_retries - 1);
            let mut shuffles_hit: Vec<usize> = parked.iter().map(|p| p.shuffle).collect();
            shuffles_hit.sort_unstable();
            shuffles_hit.dedup();
            for shuffle in shuffles_hit {
                ctx.inner.tracer.record_driver(EventKind::StageRetry {
                    stage: stage_id,
                    shuffle,
                    retry: stage_retries,
                    backoff_ticks: backoff,
                });
                let Some(dep) = deps.get(&shuffle) else {
                    let msg = format!("no lineage for shuffle {shuffle}");
                    return Err(finish_err(
                        failed_attempts,
                        SparkError::TaskFailed {
                            stage: stage_id,
                            partition: parked[0].partition,
                            attempts: parked[0].attempt + 1,
                            message: msg,
                        },
                    ));
                };
                let missing = ctx.inner.shuffles.missing_maps(shuffle);
                if !missing.is_empty() {
                    run_map_stage(ctx, dep, missing, deps, metrics_out).inspect_err(|_| {
                        ctx.inner.tracer.record_driver(EventKind::StageEnd {
                            stage: stage_id,
                            failed_attempts,
                        });
                    })?;
                }
            }
            for p in parked.drain(..) {
                let next = p.attempt + 1;
                expected.insert(p.partition, next);
                let spec = specs.get(&p.partition).expect("parked partition was submitted").clone();
                submit_reserved(ctx, spec, next, false, &tx, &mut pending, &mut in_flight)
                    .map_err(|e| finish_err(failed_attempts, e))?;
            }
            continue;
        }

        let r = if explore {
            // collect every outstanding reply, then let the policy pick
            // from a canonically-ordered buffer: driver-observed
            // completion order becomes a pure function of the decision
            // sequence, independent of thread timing
            while reply_buf.len() < in_flight {
                reply_buf.push(rx.recv().expect("executor pool alive while context exists"));
            }
            reply_buf.sort_by_key(|r| (r.partition, r.attempt));
            let k = policy.choose(DecisionPoint::Reply, reply_buf.len());
            reply_buf.remove(k)
        } else {
            rx.recv().expect("executor pool alive while context exists")
        };
        in_flight -= 1;
        // the finished attempt released its reservation before replying;
        // queued submissions may fit now
        drain_pending(ctx, &tx, &mut pending, &mut in_flight);
        if expected.get(&r.partition) != Some(&r.attempt) {
            // superseded by a requeue after an executor kill: drop the
            // reply *and* its accumulator updates (merge-once)
            continue;
        }
        if outputs.contains_key(&r.partition) {
            // the partition already committed: a second reply must not
            // merge its accumulator updates again (merge-once)
            continue;
        }
        match r.outcome {
            Ok(output) => {
                ctx.inner.accums.apply_all(r.accum_updates);
                task_metrics.push(TaskMetrics {
                    partition: r.partition,
                    executor: r.executor,
                    attempt: r.attempt,
                    busy: r.busy,
                    records_out: 0,
                });
                outputs.insert(r.partition, output);
                done += 1;
                for (i, k) in kills.iter().enumerate() {
                    if kills_fired[i] || done < k.after_tasks {
                        continue;
                    }
                    kills_fired[i] = true;
                    ctx.kill_executor(k.executor);
                    // requeue the victim's in-flight attempts (parked
                    // tasks are not in flight; the recovery barrier
                    // resubmits those)
                    let mut victims: Vec<usize> = expected
                        .keys()
                        .copied()
                        .filter(|p| {
                            !outputs.contains_key(p)
                                && !parked.iter().any(|f| f.partition == *p)
                                && !pending.iter().any(|(s, _)| s.partition == *p)
                                && specs.get(p).is_some_and(|s| s.executor == k.executor)
                        })
                        .collect();
                    victims.sort_unstable();
                    for p in victims {
                        let next = expected[&p] + 1;
                        expected.insert(p, next);
                        let spec = specs.get(&p).expect("victim partition was submitted").clone();
                        submit_reserved(ctx, spec, next, false, &tx, &mut pending, &mut in_flight)
                            .map_err(|e| finish_err(failed_attempts, e))?;
                    }
                }
            }
            Err(err) => {
                failed_attempts += 1;
                match err.kind {
                    TaskErrorKind::FetchFailed { shuffle } if deps.contains_key(&shuffle) => {
                        // park until the recovery barrier; the attempt
                        // number is bumped on resubmission
                        parked.push(ParkedFetch {
                            partition: r.partition,
                            attempt: r.attempt,
                            shuffle,
                        });
                    }
                    _ => {
                        let next = r.attempt + 1;
                        if next >= cfg.max_task_attempts {
                            let err = match err.kind {
                                TaskErrorKind::Storage => SparkError::Storage(format!(
                                    "stage {stage_id} partition {} failed after {next} attempts: {}",
                                    r.partition, err.message
                                )),
                                _ => SparkError::TaskFailed {
                                    stage: stage_id,
                                    partition: r.partition,
                                    attempts: next,
                                    message: err.message,
                                },
                            };
                            return Err(finish_err(failed_attempts, err));
                        }
                        expected.insert(r.partition, next);
                        let spec = specs
                            .get(&r.partition)
                            .expect("result for a submitted partition")
                            .clone();
                        submit_reserved(ctx, spec, next, false, &tx, &mut pending, &mut in_flight)
                            .map_err(|e| finish_err(failed_attempts, e))?;
                    }
                }
            }
        }
    }
    task_metrics.sort_by_key(|t| t.partition);
    ctx.inner.tracer.record_driver(EventKind::StageEnd { stage: stage_id, failed_attempts });
    metrics_out.push(StageMetrics {
        stage_id,
        kind,
        wall: start.elapsed(),
        tasks: task_metrics,
        failed_attempts,
    });
    Ok(outputs)
}
