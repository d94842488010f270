//! The executor pool: worker threads that run tasks.
//!
//! Workers measure each attempt's busy time, install the accumulator
//! buffer, apply fault-plan injection (task failures and straggler
//! slowdowns), and catch panics so one bad task never takes the process
//! down — the fault-tolerance contrast with MPI the paper emphasizes.
//! The workers share one `std::sync::mpsc` task queue behind a mutex.

use crate::accumulator::{begin_task_buffer, take_task_buffer};
use crate::fault::{decision_hash, FaultPlan, EXPLORE_JITTER_SALT, STRAGGLER_SALT, TASK_SALT};
use crate::memory::MemoryManager;
use crate::schedule::SchedulePolicy;
use crate::task::{set_current_executor, AttemptResult, TaskError, TaskSpec};
use crate::trace::{self, EventKind, MemOp, TaskScope, TraceCollector};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An envelope routed to a worker.
pub(crate) struct Envelope {
    pub spec: TaskSpec,
    pub attempt: usize,
    pub reply: Sender<AttemptResult>,
}

/// A pool of worker threads with a shared task queue.
pub struct ExecutorPool {
    sender: Option<Sender<Envelope>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl ExecutorPool {
    /// Start `threads` workers applying the given fault plan, reporting
    /// task lifecycle events to `tracer`.
    pub(crate) fn start(
        threads: usize,
        plan: FaultPlan,
        seed: u64,
        tracer: Arc<TraceCollector>,
        memory: Arc<MemoryManager>,
        schedule: Arc<dyn SchedulePolicy>,
    ) -> Self {
        let threads = threads.max(1);
        let plan = Arc::new(plan);
        // keyed decisions only: workers are concurrent, so the schedule
        // seam reaches them as a pure hash seed, never a shared counter
        let keyed = schedule.keyed_seed();
        let (tx, rx) = mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let plan = Arc::clone(&plan);
                let tracer = Arc::clone(&tracer);
                let memory = Arc::clone(&memory);
                std::thread::Builder::new()
                    .name(format!("sparklet-worker-{w}"))
                    .spawn(move || loop {
                        // a `let`, not `while let`: the lock guard must drop before the task runs
                        let Ok(env) = rx.lock().recv() else { break };
                        let result = run_attempt(&env, &plan, seed, keyed, &tracer, &memory);
                        // the driver may have aborted the job; a closed
                        // reply channel is not an error for the worker
                        let _ = env.reply.send(result);
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ExecutorPool { sender: Some(tx), workers, size: threads }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Submit a task attempt.
    pub(crate) fn submit(&self, env: Envelope) {
        self.sender
            .as_ref()
            .expect("pool not shut down")
            .send(env)
            .expect("workers alive while pool exists");
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        // closing the channel lets workers drain and exit
        self.sender.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn run_attempt(
    env: &Envelope,
    plan: &FaultPlan,
    seed: u64,
    keyed: Option<u64>,
    tracer: &TraceCollector,
    memory: &MemoryManager,
) -> AttemptResult {
    let spec = &env.spec;
    set_current_executor(spec.executor);
    let scope = TaskScope {
        stage: spec.stage_id,
        partition: spec.partition,
        attempt: env.attempt,
        executor: spec.executor,
    };
    trace::set_task_scope(Some(scope));
    tracer.record(Some(scope), EventKind::TaskStart);
    // the scheduler charged the reservation before submitting; the
    // task-scoped Reserve/Release events bracket the attempt in the
    // trace (bounded budgets only, so unbudgeted traces are unchanged)
    let hint = spec.mem_hint;
    let bounded_budget = hint > 0 && memory.budget().is_bounded();
    if bounded_budget {
        tracer.record(
            Some(scope),
            EventKind::MemoryAction { op: MemOp::Reserve, lane: spec.executor, bytes: hint },
        );
    }
    begin_task_buffer();

    // straggler injection: a real (small) delay perturbing the actual
    // thread interleaving, the way a slow node would
    if plan.straggler.should_fire(seed, STRAGGLER_SALT, spec.stage_id, spec.partition, env.attempt)
    {
        std::thread::sleep(Duration::from_millis(plan.straggler_delay_ms));
    }
    // schedule-exploration jitter: an extra keyed sub-millisecond delay
    // perturbing the real thread interleaving, decided purely from the
    // task identity so a replay reproduces it without shared state
    if let Some(ks) = keyed {
        let h = decision_hash(
            ks,
            EXPLORE_JITTER_SALT,
            spec.stage_id as u64,
            spec.partition as u64,
            env.attempt as u64,
        );
        if h.is_multiple_of(4) {
            std::thread::sleep(Duration::from_micros(100 + h % 900));
        }
    }
    let start = Instant::now();

    let outcome = if plan.task_failure.should_fire(
        seed,
        TASK_SALT,
        spec.stage_id,
        spec.partition,
        env.attempt,
    ) {
        Err(TaskError::generic(format!(
            "injected failure (stage {} partition {} attempt {})",
            spec.stage_id, spec.partition, env.attempt
        ))
        .injected())
    } else {
        match catch_unwind(AssertUnwindSafe(|| (spec.work)())) {
            Ok(r) => r,
            Err(panic) => Err(TaskError::generic(panic_message(panic))),
        }
    };

    let busy = start.elapsed();
    let accum_updates = take_task_buffer();
    if bounded_budget {
        tracer.record(
            Some(scope),
            EventKind::MemoryAction { op: MemOp::Release, lane: spec.executor, bytes: hint },
        );
    }
    if hint > 0 {
        memory.release_task(spec.executor, hint);
    }
    match &outcome {
        Ok(_) => tracer.record(Some(scope), EventKind::TaskSuccess),
        Err(e) => tracer.record(Some(scope), EventKind::TaskFailure { injected: e.injected }),
    }
    trace::set_task_scope(None);
    AttemptResult {
        partition: spec.partition,
        executor: spec.executor,
        attempt: env.attempt,
        busy,
        outcome,
        accum_updates,
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRule};
    use crate::task::{TaskOutput, TaskWork};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn spec(work: TaskWork) -> TaskSpec {
        TaskSpec { stage_id: 0, partition: 0, executor: 0, mem_hint: 0, work }
    }

    /// Test pools run under the production (pass-through) policy.
    fn start_fifo(
        threads: usize,
        plan: FaultPlan,
        seed: u64,
        tracer: Arc<TraceCollector>,
        memory: Arc<MemoryManager>,
    ) -> ExecutorPool {
        ExecutorPool::start(threads, plan, seed, tracer, memory, Arc::new(crate::schedule::Fifo))
    }

    fn run_one(pool: &ExecutorPool, s: TaskSpec, attempt: usize) -> AttemptResult {
        let (tx, rx) = mpsc::channel();
        pool.submit(Envelope { spec: s, attempt, reply: tx });
        rx.recv().unwrap()
    }

    #[test]
    fn runs_tasks_and_returns_output() {
        let pool = start_fifo(
            2,
            FaultPlan::none(),
            0,
            TraceCollector::disabled(),
            MemoryManager::unbounded(),
        );
        let r = run_one(&pool, spec(Arc::new(|| Ok(TaskOutput::Boxed(Box::new(41i32))))), 0);
        match r.outcome.unwrap() {
            TaskOutput::Boxed(b) => assert_eq!(*b.downcast::<i32>().unwrap(), 41),
            TaskOutput::Unit => panic!("expected boxed output"),
        }
    }

    #[test]
    fn catches_panics() {
        let pool = start_fifo(
            1,
            FaultPlan::none(),
            0,
            TraceCollector::disabled(),
            MemoryManager::unbounded(),
        );
        let r = run_one(&pool, spec(Arc::new(|| panic!("kaboom"))), 0);
        let err = r.outcome.err().unwrap();
        assert!(err.message.contains("kaboom"), "{err}");
        assert!(!err.injected);
    }

    #[test]
    fn injects_failures_per_config() {
        let pool = start_fifo(
            1,
            FaultPlan::tasks(FaultRule::always_first(1)),
            7,
            TraceCollector::disabled(),
            MemoryManager::unbounded(),
        );
        let r0 = run_one(&pool, spec(Arc::new(|| Ok(TaskOutput::Unit))), 0);
        assert!(r0.outcome.as_ref().err().is_some_and(|e| e.injected));
        let r1 = run_one(&pool, spec(Arc::new(|| Ok(TaskOutput::Unit))), 1);
        assert!(r1.outcome.is_ok());
    }

    #[test]
    fn straggler_rule_delays_the_attempt() {
        let plan = FaultPlan::none().with_stragglers(FaultRule::always_first(1), 20);
        let pool = start_fifo(1, plan, 0, TraceCollector::disabled(), MemoryManager::unbounded());
        let t0 = Instant::now();
        let r = run_one(&pool, spec(Arc::new(|| Ok(TaskOutput::Unit))), 0);
        assert!(r.outcome.is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(18), "straggler delay must apply");
        // busy time excludes the injected delay
        assert!(r.busy < Duration::from_millis(18));
    }

    #[test]
    fn busy_time_is_measured() {
        let pool = start_fifo(
            1,
            FaultPlan::none(),
            0,
            TraceCollector::disabled(),
            MemoryManager::unbounded(),
        );
        let r = run_one(
            &pool,
            spec(Arc::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(15));
                Ok(TaskOutput::Unit)
            })),
            0,
        );
        assert!(r.busy >= std::time::Duration::from_millis(14));
    }

    #[test]
    fn pool_shuts_down_cleanly() {
        // shutdown races are rare per cycle, so run many start-and-drop
        // cycles on a watchdogged thread and fail on a hang
        let (done_tx, done_rx) = mpsc::channel();
        let cycles = std::thread::spawn(move || {
            let pool = start_fifo(
                4,
                FaultPlan::none(),
                0,
                TraceCollector::disabled(),
                MemoryManager::unbounded(),
            );
            assert_eq!(pool.size(), 4);
            drop(pool);
            for _ in 0..20_000 {
                drop(start_fifo(
                    1,
                    FaultPlan::none(),
                    0,
                    TraceCollector::disabled(),
                    MemoryManager::unbounded(),
                ));
            }
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("dropping a pool hung"),
            // a panic in the loop disconnects the channel; join surfaces it
            _ => cycles.join().expect("shutdown loop panicked"),
        }
    }

    #[test]
    fn two_workers_run_two_tasks_at_once() {
        // each task waits for its peer to start, so this passes only if
        // no worker holds the queue while its task runs
        let pool = start_fifo(
            2,
            FaultPlan::none(),
            0,
            TraceCollector::disabled(),
            MemoryManager::unbounded(),
        );
        let started = Arc::new(AtomicUsize::new(0));
        let work: TaskWork = Arc::new(move || {
            started.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while started.load(Ordering::SeqCst) < 2 {
                if t0.elapsed() > Duration::from_secs(10) {
                    return Err(TaskError::generic("peer task never started"));
                }
                std::thread::yield_now();
            }
            Ok(TaskOutput::Unit)
        });
        let (tx, rx) = mpsc::channel();
        for partition in 0..2 {
            let s = TaskSpec { partition, ..spec(Arc::clone(&work)) };
            pool.submit(Envelope { spec: s, attempt: 0, reply: tx.clone() });
        }
        for _ in 0..2 {
            let r = rx.recv().unwrap();
            assert!(r.outcome.is_ok(), "{:?}", r.outcome.err());
        }
    }

    #[test]
    fn task_lifecycle_is_traced_with_injected_flag() {
        let tracer = Arc::new(TraceCollector::new(crate::config::TraceConfig::enabled()));
        let pool = start_fifo(
            1,
            FaultPlan::tasks(FaultRule::always_first(1)),
            0,
            Arc::clone(&tracer),
            MemoryManager::unbounded(),
        );
        assert!(run_one(&pool, spec(Arc::new(|| Ok(TaskOutput::Unit))), 0).outcome.is_err());
        assert!(run_one(&pool, spec(Arc::new(|| Ok(TaskOutput::Unit))), 1).outcome.is_ok());
        let kinds: Vec<EventKind> = tracer.snapshot().events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::TaskFailure { injected: true }), "{kinds:?}");
        assert!(kinds.contains(&EventKind::TaskSuccess));
        assert_eq!(kinds.iter().filter(|k| **k == EventKind::TaskStart).count(), 2);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let pool = start_fifo(
            0,
            FaultPlan::none(),
            0,
            TraceCollector::disabled(),
            MemoryManager::unbounded(),
        );
        assert_eq!(pool.size(), 1);
    }
}
