//! Engine error types.

/// Result alias used throughout the engine.
pub type SparkResult<T> = Result<T, SparkError>;

/// Failures surfaced to the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparkError {
    /// A task exhausted its retry budget.
    TaskFailed {
        /// Stage the task belonged to.
        stage: usize,
        /// Partition index of the task.
        partition: usize,
        /// Number of attempts made.
        attempts: usize,
        /// Last failure message.
        message: String,
    },
    /// A shuffle output was requested before its map stage completed —
    /// an internal scheduling invariant violation.
    ShuffleMissing {
        /// Shuffle id.
        shuffle: usize,
        /// Reduce partition requested.
        reduce: usize,
    },
    /// A stage exhausted its fetch-failure recovery budget: lineage
    /// recomputation of the lost map outputs was retried
    /// `retries` times without the stage completing.
    FetchFailed {
        /// The stage whose tasks kept hitting fetch failures.
        stage: usize,
        /// The shuffle whose outputs kept going missing.
        shuffle: usize,
        /// Recovery rounds attempted.
        retries: usize,
    },
    /// Reading input from the DFS failed.
    Storage(String),
    /// Invalid engine configuration.
    InvalidConfig(String),
    /// A single task reservation exceeds the whole per-executor memory
    /// budget — no amount of eviction or backpressure can grant it.
    /// (Mere crowding never raises this: the scheduler defers
    /// submission until running tasks release their reservations.)
    OutOfMemory {
        /// Executor lane the reservation targeted.
        executor: usize,
        /// Bytes the task asked to reserve.
        requested: u64,
        /// The per-executor budget in force.
        budget: u64,
    },
}

impl std::fmt::Display for SparkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparkError::TaskFailed { stage, partition, attempts, message } => write!(
                f,
                "task failed: stage {stage} partition {partition} after {attempts} attempts: {message}"
            ),
            SparkError::ShuffleMissing { shuffle, reduce } => {
                write!(f, "shuffle {shuffle} output missing for reduce partition {reduce}")
            }
            SparkError::FetchFailed { stage, shuffle, retries } => write!(
                f,
                "stage {stage} aborted: shuffle {shuffle} fetch still failing after {retries} recovery rounds"
            ),
            SparkError::Storage(m) => write!(f, "storage error: {m}"),
            SparkError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            SparkError::OutOfMemory { executor, requested, budget } => write!(
                f,
                "out of memory: task reservation of {requested} bytes on executor {executor} exceeds the whole per-executor budget ({budget} bytes)"
            ),
        }
    }
}

impl std::error::Error for SparkError {}

impl From<minidfs::DfsError> for SparkError {
    fn from(e: minidfs::DfsError) -> Self {
        SparkError::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_errors_convert_to_storage() {
        let e: SparkError = minidfs::DfsError::FileNotFound("/x".into()).into();
        assert!(matches!(e, SparkError::Storage(_)));
    }

    #[test]
    fn display_contains_context() {
        let e =
            SparkError::TaskFailed { stage: 1, partition: 3, attempts: 4, message: "boom".into() };
        let s = e.to_string();
        assert!(s.contains("stage 1") && s.contains("partition 3") && s.contains("boom"));
    }
}
