//! Per-task, per-stage and per-job metrics.
//!
//! Figure 6 of the paper plots "time spent in driver" against "time spent
//! in executors"; Figure 8 derives speedups from executor-only and
//! executor+driver times. These structures capture exactly those
//! quantities: every task records its busy time and virtual executor, and
//! [`JobMetrics`] aggregates them and feeds the makespan simulator.

use crate::memory::MemoryStats;
use crate::sim::lpt_makespan;
use std::time::Duration;

/// What a stage computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Writes shuffle map outputs.
    ShuffleMap,
    /// Produces the job's results.
    Result,
}

/// Measurements for one successful task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMetrics {
    /// Partition the task computed.
    pub partition: usize,
    /// Virtual executor the task was bound to.
    pub executor: usize,
    /// Attempt number that succeeded (0-based).
    pub attempt: usize,
    /// Measured busy time of the successful attempt.
    pub busy: Duration,
    /// Records produced by the task.
    pub records_out: u64,
}

/// Measurements for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// Stage id (unique within the context).
    pub stage_id: usize,
    /// Kind of stage.
    pub kind: StageKind,
    /// Wall-clock time of the stage as observed by the driver.
    pub wall: Duration,
    /// One entry per task (successful attempt).
    pub tasks: Vec<TaskMetrics>,
    /// Total failed attempts (injected or panics) within the stage.
    pub failed_attempts: usize,
}

impl StageMetrics {
    /// Sum of task busy times — total executor CPU consumed.
    pub fn executor_busy(&self) -> Duration {
        self.tasks.iter().map(|t| t.busy).sum()
    }

    /// Simulated makespan of this stage on `p` virtual executors,
    /// binding tasks to executors greedily longest-first (LPT).
    pub fn simulated_makespan(&self, p: usize) -> Duration {
        lpt_makespan(self.tasks.iter().map(|t| t.busy), p)
    }
}

/// Measurements for one job (one action).
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Job id (unique within the context).
    pub job_id: usize,
    /// Stages, in execution order.
    pub stages: Vec<StageMetrics>,
    /// Driver wall time for the whole job (scheduling + result handling).
    pub wall: Duration,
    /// Records moved through shuffles during this job.
    pub shuffle_records: u64,
    /// Estimated bytes moved through shuffles during this job.
    pub shuffle_bytes: u64,
    /// Memory-ledger counters as of job end (cumulative for the
    /// context: peaks, evicted bytes, backpressure waits).
    pub memory: MemoryStats,
}

impl JobMetrics {
    /// Total executor CPU across all stages.
    pub fn executor_busy(&self) -> Duration {
        self.stages.iter().map(|s| s.executor_busy()).sum()
    }

    /// Simulated wall time of the executor side on `p` cores: stage
    /// makespans are summed because stages are serialized by their
    /// shuffle dependency.
    pub fn simulated_executor_time(&self, p: usize) -> Duration {
        self.stages.iter().map(|s| s.simulated_makespan(p)).sum()
    }

    /// Total failed attempts across stages.
    pub fn failed_attempts(&self) -> usize {
        self.stages.iter().map(|s| s.failed_attempts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(part: usize, ms: u64) -> TaskMetrics {
        TaskMetrics {
            partition: part,
            executor: part % 2,
            attempt: 0,
            busy: Duration::from_millis(ms),
            records_out: 1,
        }
    }

    fn stage(tasks: Vec<TaskMetrics>) -> StageMetrics {
        StageMetrics {
            stage_id: 0,
            kind: StageKind::Result,
            wall: Duration::from_millis(50),
            tasks,
            failed_attempts: 0,
        }
    }

    #[test]
    fn executor_busy_sums_tasks() {
        let s = stage(vec![task(0, 10), task(1, 20), task(2, 30)]);
        assert_eq!(s.executor_busy(), Duration::from_millis(60));
    }

    #[test]
    fn makespan_monotone_in_cores() {
        let s = stage((0..8).map(|i| task(i, 10 + i as u64)).collect());
        let m1 = s.simulated_makespan(1);
        let m2 = s.simulated_makespan(2);
        let m8 = s.simulated_makespan(8);
        assert!(m1 >= m2 && m2 >= m8);
        assert_eq!(m1, s.executor_busy());
        assert_eq!(m8, Duration::from_millis(17), "8 cores: the longest task");
    }

    #[test]
    fn job_aggregates_over_stages() {
        let j = JobMetrics {
            job_id: 0,
            stages: vec![stage(vec![task(0, 10)]), stage(vec![task(0, 5), task(1, 5)])],
            wall: Duration::from_millis(120),
            shuffle_records: 0,
            shuffle_bytes: 0,
            memory: MemoryStats::default(),
        };
        assert_eq!(j.executor_busy(), Duration::from_millis(20));
        assert_eq!(j.simulated_executor_time(1), Duration::from_millis(20));
        assert_eq!(j.simulated_executor_time(2), Duration::from_millis(15));
    }
}
