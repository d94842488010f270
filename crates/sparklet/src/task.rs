//! Task types shared by the scheduler and the executor pool.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// What a finished task hands back to the driver.
pub(crate) enum TaskOutput {
    /// Shuffle-map tasks produce side effects only.
    Unit,
    /// Result-stage tasks return a boxed value.
    Boxed(Box<dyn Any + Send>),
}

/// Why a task attempt failed — the scheduler picks its recovery path by
/// kind: `Generic` failures are retried in place, `FetchFailed` triggers
/// lineage recomputation of the lost map outputs, `Storage` failures
/// surface as typed [`crate::SparkError::Storage`] once retries are
/// exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskErrorKind {
    /// User-code error or panic (retried in place).
    Generic,
    /// A reduce-side fetch could not obtain every map output of the
    /// named shuffle.
    FetchFailed {
        /// The shuffle whose outputs were incomplete.
        shuffle: usize,
    },
    /// The storage layer (DFS) failed — e.g. every replica of a block
    /// was lost.
    Storage,
}

/// A typed task-attempt failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Recovery-relevant classification.
    pub kind: TaskErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// Whether this failure was injected by the fault plan (as opposed
    /// to arising from user code or a real missing output).
    pub injected: bool,
}

impl TaskError {
    /// A plain user-code failure.
    pub fn generic(message: impl Into<String>) -> Self {
        TaskError { kind: TaskErrorKind::Generic, message: message.into(), injected: false }
    }

    /// A shuffle-fetch failure for `shuffle`.
    pub fn fetch_failed(shuffle: usize, message: impl Into<String>) -> Self {
        TaskError {
            kind: TaskErrorKind::FetchFailed { shuffle },
            message: message.into(),
            injected: false,
        }
    }

    /// A storage-layer failure.
    pub fn storage(message: impl Into<String>) -> Self {
        TaskError { kind: TaskErrorKind::Storage, message: message.into(), injected: false }
    }

    /// Builder-style: mark the failure as fault-plan-injected.
    pub fn injected(mut self) -> Self {
        self.injected = true;
        self
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TaskErrorKind::Generic => write!(f, "{}", self.message),
            TaskErrorKind::FetchFailed { shuffle } => {
                write!(f, "fetch failed (shuffle {}): {}", shuffle, self.message)
            }
            TaskErrorKind::Storage => write!(f, "storage failure: {}", self.message),
        }
    }
}

impl From<String> for TaskError {
    fn from(message: String) -> Self {
        TaskError::generic(message)
    }
}

impl From<&str> for TaskError {
    fn from(message: &str) -> Self {
        TaskError::generic(message)
    }
}

/// The (re-runnable) work of one task: retries call it again.
pub(crate) type TaskWork = Arc<dyn Fn() -> Result<TaskOutput, TaskError> + Send + Sync>;

/// A task as submitted by the scheduler.
#[derive(Clone)]
pub(crate) struct TaskSpec {
    /// Stage this task belongs to.
    pub stage_id: usize,
    /// Partition index it computes.
    pub partition: usize,
    /// Virtual executor it is bound to (`partition % num_executors`).
    pub executor: usize,
    /// Declared working-set bytes, reserved in the memory ledger
    /// before submission (0 = no reservation).
    pub mem_hint: u64,
    /// The work itself.
    pub work: TaskWork,
}

/// One attempt's outcome, reported by a worker.
pub(crate) struct AttemptResult {
    pub partition: usize,
    pub executor: usize,
    pub attempt: usize,
    pub busy: Duration,
    pub outcome: Result<TaskOutput, TaskError>,
    /// Buffered accumulator updates (merged only on success).
    pub accum_updates: Vec<crate::accumulator::PendingUpdate>,
}

thread_local! {
    /// Virtual executor id of the task currently running on this thread.
    static CURRENT_EXECUTOR: Cell<usize> = const { Cell::new(0) };
}

/// Set by the worker before running a task.
pub(crate) fn set_current_executor(e: usize) {
    CURRENT_EXECUTOR.with(|c| c.set(e));
}

/// Virtual executor of the current thread's task (0 on the driver).
pub(crate) fn current_executor() -> usize {
    CURRENT_EXECUTOR.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_tls_roundtrip() {
        assert_eq!(current_executor(), 0);
        set_current_executor(7);
        assert_eq!(current_executor(), 7);
        set_current_executor(0);
    }

    #[test]
    fn task_spec_is_cloneable_and_rerunnable() {
        let work: TaskWork = Arc::new(|| Ok(TaskOutput::Unit));
        let spec = TaskSpec { stage_id: 0, partition: 1, executor: 1, mem_hint: 0, work };
        let spec2 = spec.clone();
        assert!(matches!((spec.work)(), Ok(TaskOutput::Unit)));
        assert!(matches!((spec2.work)(), Ok(TaskOutput::Unit)));
    }

    #[test]
    fn task_error_kinds_display_and_convert() {
        let g: TaskError = "boom".into();
        assert_eq!(g.kind, TaskErrorKind::Generic);
        assert!(!g.injected);
        assert_eq!(g.to_string(), "boom");

        let f = TaskError::fetch_failed(3, "map 1 missing").injected();
        assert_eq!(f.kind, TaskErrorKind::FetchFailed { shuffle: 3 });
        assert!(f.injected);
        assert!(f.to_string().contains("shuffle 3"));

        let s = TaskError::storage(String::from("all replicas lost"));
        assert_eq!(s.kind, TaskErrorKind::Storage);
        assert!(s.to_string().contains("storage failure"));
    }
}
