//! # sparklet — a from-scratch Spark-like engine
//!
//! The paper's contribution is an algorithm *designed around Spark's
//! execution model*: lazy RDDs, a driver/executor split, broadcast
//! variables, accumulators, and the imperative to avoid shuffles. To
//! reproduce the paper without Spark, this crate implements that model:
//!
//! * **Typed, lazy RDDs** ([`Rdd`]) with narrow transformations (`map`,
//!   `filter`, `flat_map`, `union`) and wide ones
//!   (`reduce_by_key`, `group_by_key`) that introduce a real hash
//!   **shuffle** with byte/record accounting — so "our DBSCAN performs
//!   zero shuffles" is a measured property.
//! * **DAG scheduling**: jobs are split into stages at shuffle
//!   boundaries; missing shuffle outputs are (re)computed from lineage.
//! * **Executors**: a worker thread pool executing tasks; every task's
//!   busy time is measured, giving the driver-vs-executor time split the
//!   paper reports (Fig. 6).
//! * **Shared variables**: read-only [`Broadcast`] values and write-only
//!   [`Accumulator`]s with Spark's exactly-once-per-successful-task merge
//!   semantics (updates from failed task attempts are discarded).
//! * **Fault tolerance**: injected task failures are retried; a "lost
//!   executor" drops its cached partitions and shuffle outputs, which are
//!   then recomputed from lineage — the MPI-vs-framework contrast the
//!   paper opens with.
//! * **Virtual-cluster time model** ([`sim`]): because the paper's
//!   algorithm has no executor↔executor communication, the parallel
//!   runtime on `p` cores is the makespan of independent tasks; we
//!   measure real per-task busy times and schedule them onto `p` virtual
//!   executors (greedy LPT) — this is how the 64–512-core curves of
//!   Figs. 6b/8e/8f are reproduced on a laptop.

pub mod accumulator;
pub mod broadcast;
pub mod config;
pub mod context;
pub mod error;
pub mod executor;
pub mod explore;
pub mod fault;
pub mod memory;
pub mod metrics;
pub mod oracle;
pub mod rdd;
pub mod schedule;
pub mod scheduler;
pub mod shuffle;
pub mod sim;
pub mod storage;
pub mod task;
pub mod trace;

pub use accumulator::Accumulator;
pub use broadcast::Broadcast;
pub use config::{ClusterConfig, TraceConfig};
pub use context::{Context, KillReport};
pub use error::{SparkError, SparkResult};
pub use explore::{ExploreJob, ExploreReport, Explorer, JobArtifacts, MergeOnceCheck, Violation};
pub use fault::{ExecutorKillAt, FaultPlan, FaultRule};
pub use memory::{MemoryBudget, MemoryManager, MemoryStats};
pub use metrics::{JobMetrics, StageKind, StageMetrics, TaskMetrics};
pub use oracle::{
    default_oracles, InvariantOracle, LabelIdentity, LedgerConservation, MergeOnce, RunObservation,
    TraceWellFormed,
};
pub use rdd::Rdd;
pub use schedule::{DecisionPoint, Fifo, Replay, ReplayToken, SchedulePolicy, Seeded};
pub use sim::{lpt_makespan, VirtualScheduler};
pub use storage::{CacheConfig, CacheManager};
pub use task::{TaskError, TaskErrorKind};
pub use trace::{
    ascii_timeline, chrome_trace_json, validate_chrome_trace, EventKind, MemOp, TaskScope, Trace,
    TraceEvent, TraceHandle, TraceSummary,
};

/// Marker for types that can flow through RDDs: cheap to move between
/// threads and clonable for caching/shuffle fan-out.
pub trait Data: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Data for T {}
