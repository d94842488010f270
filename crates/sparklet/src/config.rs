//! Cluster configuration.

use crate::fault::FaultPlan;
use crate::memory::MemoryBudget;
use crate::schedule::{Fifo, SchedulePolicy};
use std::sync::Arc;

/// Configuration of the structured tracing subsystem
/// ([`crate::trace`]). Disabled by default: the task hot path then
/// costs one relaxed atomic load and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether events are recorded.
    pub enabled: bool,
    /// Maximum buffered events; the oldest are dropped (and counted)
    /// past this.
    pub capacity: usize,
}

impl TraceConfig {
    /// Default ring capacity (events), ample for any test-scale run.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Tracing on, with the default capacity.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true, capacity: Self::DEFAULT_CAPACITY }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { enabled: false, capacity: Self::DEFAULT_CAPACITY }
    }
}

/// Configuration of a [`crate::Context`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of (virtual) executors. Tasks are bound to executors by
    /// `partition % num_executors`, mirroring the paper's setup where
    /// each core processes its own contiguous partition.
    pub num_executors: usize,
    /// Real worker threads backing the executors. Defaults to
    /// `min(num_executors, available_parallelism)`; per-task busy time is
    /// measured regardless, so virtual executor counts may exceed this.
    pub worker_threads: usize,
    /// Maximum attempts per task (1 = no retry).
    pub max_task_attempts: usize,
    /// Maximum fetch-failure recovery rounds per stage (lineage
    /// recomputation of lost map outputs), separate from the per-task
    /// attempt budget.
    pub max_stage_retries: usize,
    /// Injected-fault schedule (see [`FaultPlan`]).
    pub fault: FaultPlan,
    /// Seed for all deterministic pseudo-randomness in the engine.
    pub seed: u64,
    /// Structured event tracing (off by default).
    pub trace: TraceConfig,
    /// Per-executor memory budget (unbounded by default; see
    /// [`crate::memory::MemoryManager`] for the eviction / backpressure
    /// ladder a bounded budget engages). Set it with
    /// [`ClusterConfig::with_memory_budget`], the one budget setter.
    pub(crate) memory: MemoryBudget,
    /// Scheduling-decision policy ([`Fifo`] by default — production
    /// order; see [`crate::schedule`] and [`crate::explore`]).
    pub schedule: Arc<dyn SchedulePolicy>,
}

impl ClusterConfig {
    /// A local cluster with `n` executors, one worker thread per executor
    /// (capped by the host's parallelism).
    pub fn local(n: usize) -> Self {
        let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
        ClusterConfig {
            num_executors: n.max(1),
            worker_threads: n.clamp(1, host),
            max_task_attempts: 4,
            max_stage_retries: 4,
            fault: FaultPlan::none(),
            seed: 0x5eed,
            trace: TraceConfig::default(),
            memory: MemoryBudget::UNBOUNDED,
            schedule: Arc::new(Fifo),
        }
    }

    /// A *virtual* cluster with `n` executors backed by all host threads:
    /// task times are measured for real, while makespans for `n` cores
    /// come from the [`crate::sim`] model. Used for the paper's 64–512
    /// core experiments.
    pub fn virtual_cluster(n: usize) -> Self {
        let host = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
        ClusterConfig { worker_threads: host, ..ClusterConfig::local(n) }
    }

    /// Builder-style: set the fault schedule.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Builder-style: set the per-stage fetch-failure recovery budget.
    pub fn with_max_stage_retries(mut self, n: usize) -> Self {
        self.max_stage_retries = n.max(1);
        self
    }

    /// Builder-style: set the retry budget.
    pub fn with_max_attempts(mut self, n: usize) -> Self {
        self.max_task_attempts = n.max(1);
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: enable tracing with the default capacity.
    pub fn with_tracing(mut self) -> Self {
        self.trace = TraceConfig::enabled();
        self
    }

    /// Builder-style: set a per-executor memory budget in bytes.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory = MemoryBudget::per_executor(bytes);
        self
    }

    /// Builder-style: set the scheduling-decision policy.
    pub fn with_schedule(mut self, schedule: Arc<dyn SchedulePolicy>) -> Self {
        self.schedule = schedule;
        self
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::local(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_clamps_to_host() {
        let c = ClusterConfig::local(10_000);
        assert_eq!(c.num_executors, 10_000);
        assert!(c.worker_threads <= 10_000);
        assert!(c.worker_threads >= 1);
    }

    #[test]
    fn zero_executors_becomes_one() {
        let c = ClusterConfig::local(0);
        assert_eq!(c.num_executors, 1);
        assert_eq!(c.worker_threads, 1);
    }

    #[test]
    fn builders_apply() {
        let c = ClusterConfig::local(2).with_max_attempts(0).with_seed(99);
        assert_eq!(c.max_task_attempts, 1, "attempt budget is at least 1");
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn fault_builder_sets_task_and_fetch_rules() {
        let c = ClusterConfig::local(2)
            .with_fault(FaultPlan::tasks(crate::fault::FaultRule::always_first(2)));
        assert_eq!(c.fault.task_failure.max_per_task, 2);
        let plan = FaultPlan::none().with_fetch_failures(crate::fault::FaultRule::always_first(1));
        let c = ClusterConfig::local(2).with_fault(plan).with_max_stage_retries(0);
        assert!(c.fault.fetch_failure.is_active());
        assert_eq!(c.max_stage_retries, 1, "stage-retry budget is at least 1");
    }

    #[test]
    fn trace_builders_apply() {
        let c = ClusterConfig::local(2);
        assert!(!c.trace.enabled, "tracing is opt-in");
        let c = c.with_tracing();
        assert!(c.trace.enabled);
        assert_eq!(c.trace.capacity, TraceConfig::DEFAULT_CAPACITY);
    }

    #[test]
    fn schedule_defaults_to_fifo_and_is_swappable() {
        let c = ClusterConfig::local(2);
        assert!(!c.schedule.reorders(), "production default is pass-through");
        let c = c.with_schedule(Arc::new(crate::schedule::Seeded::new(3)));
        assert!(c.schedule.reorders());
        assert_eq!(c.schedule.keyed_seed(), Some(3));
    }

    #[test]
    fn virtual_cluster_uses_host_threads() {
        let c = ClusterConfig::virtual_cluster(512);
        assert_eq!(c.num_executors, 512);
        assert!(c.worker_threads < 512 || c.worker_threads >= 1);
    }
}
