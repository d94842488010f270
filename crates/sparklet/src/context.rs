//! The driver-side entry point (Spark's `SparkContext`).

use crate::accumulator::{Accumulator, AccumulatorRegistry};
use crate::broadcast::Broadcast;
use crate::config::ClusterConfig;
use crate::error::SparkResult;
use crate::executor::ExecutorPool;
use crate::memory::{MemoryManager, MemoryStats};
use crate::metrics::JobMetrics;
use crate::rdd::{ops, text::TextFileRdd, Rdd};
use crate::shuffle::ShuffleManager;
use crate::storage::CacheManager;
use crate::trace::{DfsTraceSink, EventKind, TraceCollector, TraceHandle};
use crate::Data;
use minidfs::DfsCluster;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

pub(crate) struct ContextInner {
    pub(crate) config: ClusterConfig,
    pub(crate) shuffles: Arc<ShuffleManager>,
    pub(crate) cache: Arc<CacheManager>,
    pub(crate) accums: Arc<AccumulatorRegistry>,
    pub(crate) pool: ExecutorPool,
    pub(crate) tracer: Arc<TraceCollector>,
    pub(crate) memory: Arc<MemoryManager>,
    next_rdd: AtomicUsize,
    next_shuffle: AtomicUsize,
    next_stage: AtomicUsize,
    next_job: AtomicUsize,
    next_broadcast: AtomicUsize,
    next_accum: AtomicUsize,
    metrics: Mutex<Vec<JobMetrics>>,
    broadcast_bytes: AtomicU64,
}

impl ContextInner {
    pub(crate) fn next_rdd_id(&self) -> usize {
        self.next_rdd.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn next_shuffle_id(&self) -> usize {
        self.next_shuffle.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn next_stage_id(&self) -> usize {
        self.next_stage.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn next_job_id(&self) -> usize {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn record_job(&self, job: JobMetrics) {
        self.metrics.lock().push(job);
    }
}

/// The driver's handle to the (in-process) cluster. Cheap to clone.
#[derive(Clone)]
pub struct Context {
    pub(crate) inner: Arc<ContextInner>,
}

impl Context {
    /// Start a context per `config` (spawns the worker threads).
    pub fn new(config: ClusterConfig) -> Self {
        let tracer = Arc::new(TraceCollector::new(config.trace));
        let memory = Arc::new(MemoryManager::new());
        let pool = ExecutorPool::start(
            config.worker_threads,
            config.fault.clone(),
            config.seed,
            Arc::clone(&tracer),
            Arc::clone(&memory),
            Arc::clone(&config.schedule),
        );
        let shuffles = Arc::new(ShuffleManager::with_tracer_and_faults(
            Arc::clone(&tracer),
            config.fault.fetch_failure,
            config.seed,
            Arc::clone(&memory),
            Arc::clone(&config.schedule),
        ));
        let cache = Arc::new(CacheManager::new(Arc::clone(&memory)));
        Context {
            inner: Arc::new(ContextInner {
                config,
                shuffles,
                cache,
                memory,
                accums: Arc::new(AccumulatorRegistry::new()),
                pool,
                tracer,
                next_rdd: AtomicUsize::new(0),
                next_shuffle: AtomicUsize::new(0),
                next_stage: AtomicUsize::new(0),
                next_job: AtomicUsize::new(0),
                next_broadcast: AtomicUsize::new(0),
                next_accum: AtomicUsize::new(0),
                metrics: Mutex::new(Vec::new()),
                broadcast_bytes: AtomicU64::new(0),
            }),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Number of virtual executors.
    pub fn num_executors(&self) -> usize {
        self.inner.config.num_executors
    }

    // ---- RDD sources -------------------------------------------------

    /// Distribute a driver-side collection into `num_partitions`
    /// contiguous, balanced slices.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, num_partitions: usize) -> Rdd<T> {
        let node = Arc::new(ops::ParallelRdd {
            id: self.inner.next_rdd_id(),
            data: Arc::new(data),
            num_partitions: num_partitions.max(1),
        });
        Rdd::new(node, self.clone())
    }

    /// A partitioned `start..end` range — each partition is a contiguous
    /// index block, the paper's partitioning scheme.
    pub fn range(&self, start: u64, end: u64, num_partitions: usize) -> Rdd<u64> {
        let node = Arc::new(ops::RangeRdd {
            id: self.inner.next_rdd_id(),
            start,
            end: end.max(start),
            num_partitions: num_partitions.max(1),
        });
        Rdd::new(node, self.clone())
    }

    /// Lines of a DFS file, one partition per block, with Hadoop line
    /// split semantics. When tracing is enabled, the cluster's block
    /// events are routed into this context's trace.
    pub fn text_file(&self, dfs: Arc<DfsCluster>, path: &str) -> SparkResult<Rdd<String>> {
        if self.inner.tracer.is_enabled() {
            self.attach_dfs(&dfs);
        }
        // forward the fault plan's DFS read rule to the cluster so block
        // reads exercise replica fallback (and, when every replica is
        // cursed, typed exhaustion)
        let rule = self.inner.config.fault.dfs_read_failure;
        if rule.is_active() {
            dfs.set_read_faults(Some(minidfs::ReadFaultPlan {
                seed: self.inner.config.seed,
                prob: rule.prob,
                max_dead_replicas_per_block: rule.max_per_task,
            }));
        }
        let node = TextFileRdd::open(self.inner.next_rdd_id(), dfs, path)?;
        Ok(Rdd::new(Arc::new(node), self.clone()))
    }

    /// Route `dfs`'s block-read events into this context's trace
    /// (replacing any sink installed on the cluster before).
    pub fn attach_dfs(&self, dfs: &DfsCluster) {
        dfs.set_event_sink(Some(Arc::new(DfsTraceSink { tracer: Arc::clone(&self.inner.tracer) })));
    }

    // ---- shared variables ---------------------------------------------

    /// Broadcast a read-only value to all executors, accounting
    /// `size_hint` logical bytes per executor.
    pub fn broadcast_sized<T: Send + Sync>(&self, value: T, size_hint: usize) -> Broadcast<T> {
        let id = self.inner.next_broadcast.fetch_add(1, Ordering::Relaxed);
        let shipped = (size_hint * self.num_executors()) as u64;
        self.inner.broadcast_bytes.fetch_add(shipped, Ordering::Relaxed);
        self.inner.tracer.record_driver(EventKind::BroadcastCreate { id, bytes: shipped });
        Broadcast::new(id, value, size_hint)
    }

    /// Broadcast with `size_of::<T>()` as the size hint.
    pub fn broadcast<T: Send + Sync>(&self, value: T) -> Broadcast<T> {
        let hint = std::mem::size_of::<T>();
        self.broadcast_sized(value, hint)
    }

    /// Logical bytes shipped by all broadcasts so far.
    pub fn broadcast_bytes(&self) -> u64 {
        self.inner.broadcast_bytes.load(Ordering::Relaxed)
    }

    /// A general accumulator: `init` driver value folded with updates.
    pub fn accumulator_with<T, U>(
        &self,
        init: T,
        fold: impl Fn(&mut T, U) + Send + Sync + 'static,
    ) -> Accumulator<T, U>
    where
        T: Send + 'static,
        U: Send + 'static,
    {
        let id = self.inner.next_accum.fetch_add(1, Ordering::Relaxed);
        Accumulator::create(id, Arc::clone(&self.inner.accums), init, fold)
    }

    /// A summing accumulator (Spark's classic counter).
    pub fn accumulator<T>(&self, init: T) -> Accumulator<T>
    where
        T: std::ops::AddAssign<T> + Send + 'static,
    {
        self.accumulator_with(init, |a, b| *a += b)
    }

    /// A collection accumulator: every `add` appends one element — the
    /// construct the paper uses to return partial clusters to the driver.
    pub fn collection_accumulator<T: Send + 'static>(&self) -> Accumulator<Vec<T>, T> {
        self.accumulator_with(Vec::new(), |v: &mut Vec<T>, t| v.push(t))
    }

    // ---- cluster introspection & fault injection -----------------------

    /// Metrics of every completed job, oldest first.
    pub fn job_metrics(&self) -> Vec<JobMetrics> {
        self.inner.metrics.lock().clone()
    }

    /// Metrics of the most recent job.
    pub fn last_job(&self) -> Option<JobMetrics> {
        self.inner.metrics.lock().last().cloned()
    }

    /// Total records moved through shuffles in this context.
    pub fn shuffle_records(&self) -> u64 {
        self.inner.shuffles.total_records()
    }

    /// Total estimated bytes moved through shuffles in this context.
    pub fn shuffle_bytes(&self) -> u64 {
        self.inner.shuffles.total_bytes()
    }

    /// Simulate losing a (virtual) executor: its cached partitions and
    /// shuffle map outputs vanish; later jobs recompute them from
    /// lineage. Returns what was lost with it.
    pub fn kill_executor(&self, executor: usize) -> KillReport {
        let cached = self.inner.cache.kill_executor(executor);
        let maps = self.inner.shuffles.kill_executor(executor);
        self.inner.tracer.record_driver(EventKind::ExecutorKill {
            executor,
            cached_lost: cached,
            maps_lost: maps,
        });
        KillReport { executor, cached_partitions_lost: cached, map_outputs_lost: maps }
    }

    /// Handle to this context's structured trace (see [`crate::trace`]).
    /// Always available; records nothing unless
    /// [`crate::config::TraceConfig::enabled`] was set.
    pub fn trace(&self) -> TraceHandle {
        TraceHandle::new(Arc::clone(&self.inner.tracer))
    }

    // ---- memory ------------------------------------------------------

    /// Snapshot of the memory ledger's counters (peak bytes, task bytes
    /// reserved and released; see [`crate::memory`]).
    pub fn memory_stats(&self) -> MemoryStats {
        self.inner.memory.stats()
    }
}

/// What [`Context::kill_executor`] destroyed.
///
/// Both counts refer to state that *will be recomputed from lineage* on
/// the next job that needs it — losing an executor never loses data,
/// only work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillReport {
    /// The executor that was killed.
    pub executor: usize,
    /// Cached RDD partitions that lived on the executor and were
    /// evicted with it.
    pub cached_partitions_lost: usize,
    /// Shuffle map outputs the executor had produced, now missing
    /// (their map tasks re-run on the next dependent job).
    pub map_outputs_lost: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SparkError;
    use crate::fault::{FaultPlan, FaultRule};

    fn ctx() -> Context {
        Context::new(ClusterConfig::local(4))
    }

    #[test]
    fn parallelize_collect_roundtrip() {
        let c = ctx();
        let data: Vec<i32> = (0..100).collect();
        let rdd = c.parallelize(data.clone(), 8);
        assert_eq!(rdd.num_partitions(), 8);
        assert_eq!(rdd.collect().unwrap(), data);
    }

    #[test]
    fn map_filter_flat_map_pipeline() {
        let c = ctx();
        let out = c
            .parallelize((0..10i64).collect(), 3)
            .map(|x| x + 1)
            .filter(|x| x % 2 == 0)
            .flat_map(|x| vec![x, -x])
            .collect()
            .unwrap();
        assert_eq!(out, vec![2, -2, 4, -4, 6, -6, 8, -8, 10, -10]);
    }

    #[test]
    fn count_and_partition_sizes() {
        let c = ctx();
        let rdd = c.parallelize((0..11i32).collect(), 4);
        assert_eq!(rdd.count().unwrap(), 11);
        assert_eq!(rdd.partition_sizes().unwrap().iter().sum::<usize>(), 11);
    }

    #[test]
    fn reduce_and_fold() {
        let c = ctx();
        let rdd = c.parallelize((1..=10i64).collect(), 3);
        assert_eq!(rdd.reduce(|a, b| a + b).unwrap(), Some(55));
        assert_eq!(rdd.fold(0, |a, b| a + b).unwrap(), 55);
        let empty = c.parallelize(Vec::<i64>::new(), 2);
        assert_eq!(empty.reduce(|a, b| a + b).unwrap(), None);
    }

    #[test]
    fn range_source() {
        let c = ctx();
        let r = c.range(5, 25, 4);
        assert_eq!(r.count().unwrap(), 20);
        assert_eq!(r.collect().unwrap(), (5..25).collect::<Vec<u64>>());
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = c.parallelize(vec![1, 2], 1);
        let b = c.parallelize(vec![3], 1);
        assert_eq!(a.union(&b).collect().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn take_returns_prefix() {
        let c = ctx();
        let rdd = c.parallelize((0..50i32).collect(), 5);
        assert_eq!(rdd.take(3).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn reduce_by_key_shuffles_and_counts() {
        let c = ctx();
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i % 4, 1u64)).collect();
        let rdd = c.parallelize(pairs, 4);
        let mut out = rdd.reduce_by_key(3, |a, b| a + b).collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![(0, 25), (1, 25), (2, 25), (3, 25)]);
        // map-side combine: 4 keys per map partition x 4 partitions
        assert_eq!(c.shuffle_records(), 16, "shuffle is accounted post-combine");
        assert!(c.shuffle_bytes() > 0);
    }

    #[test]
    fn group_by_key_gathers_all_values() {
        let c = ctx();
        let rdd = c.parallelize(vec![(1u8, 'a'), (2, 'b'), (1, 'c')], 2);
        let mut out = rdd.group_by_key(2).collect().unwrap();
        out.sort_by_key(|(k, _)| *k);
        out[0].1.sort_unstable();
        assert_eq!(out, vec![(1, vec!['a', 'c']), (2, vec!['b'])]);
    }

    #[test]
    fn narrow_only_jobs_move_zero_shuffle_bytes() {
        let c = ctx();
        let rdd = c.parallelize((0..1000i64).collect(), 8).map(|x| x * 2);
        rdd.collect().unwrap();
        assert_eq!(c.shuffle_records(), 0);
        assert_eq!(c.shuffle_bytes(), 0);
    }

    #[test]
    fn foreach_partition_with_collection_accumulator() {
        let c = ctx();
        let acc = c.collection_accumulator::<usize>();
        let acc2 = acc.clone();
        c.parallelize((0..20i32).collect(), 4)
            .foreach_partition(move |p, data| {
                acc2.add(p * 1000 + data.len());
            })
            .unwrap();
        let mut v = acc.value();
        v.sort_unstable();
        assert_eq!(v, vec![5, 1005, 2005, 3005]);
    }

    #[test]
    fn summing_accumulator_across_tasks() {
        let c = ctx();
        let acc = c.accumulator(0u64);
        let acc2 = acc.clone();
        c.parallelize((1..=100u64).collect(), 7)
            .foreach_partition(move |_, data| {
                for v in data {
                    acc2.add(v);
                }
            })
            .unwrap();
        assert_eq!(acc.value(), 5050);
    }

    #[test]
    fn cache_avoids_recompute() {
        let c = ctx();
        let hits_counter = c.accumulator(0u64);
        let hc = hits_counter.clone();
        let rdd = c
            .parallelize((0..10i32).collect(), 2)
            .map(move |x| {
                hc.add(1); // counts how many times elements are computed
                x
            })
            .cache();
        rdd.collect().unwrap();
        rdd.collect().unwrap();
        assert_eq!(hits_counter.value(), 10, "second collect served from cache");
        assert_eq!(rdd.unpersist(), 2);
        rdd.collect().unwrap();
        assert_eq!(hits_counter.value(), 20, "unpersist forces recompute");
    }

    #[test]
    fn metrics_recorded_per_job() {
        let c = ctx();
        let rdd = c.parallelize((0..100i32).collect(), 4);
        rdd.collect().unwrap();
        rdd.count().unwrap();
        let jobs = c.job_metrics();
        assert_eq!(jobs.len(), 2);
        let last = c.last_job().unwrap();
        assert_eq!(last.stages.len(), 1);
        assert_eq!(last.stages[0].tasks.len(), 4);
        assert!(last.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn shuffle_job_has_two_stages() {
        let c = ctx();
        let rdd = c.parallelize(vec![(1u8, 1u32), (2, 2), (1, 3)], 2);
        rdd.reduce_by_key(2, |a, b| a + b).collect().unwrap();
        let last = c.last_job().unwrap();
        assert_eq!(last.stages.len(), 2);
        assert_eq!(last.stages[0].kind, crate::metrics::StageKind::ShuffleMap);
        assert_eq!(last.stages[1].kind, crate::metrics::StageKind::Result);
        assert!(last.shuffle_records > 0);
    }

    #[test]
    fn shuffle_outputs_are_reused_across_jobs() {
        let c = ctx();
        let reduced = c
            .parallelize((0..50u32).map(|i| (i % 5, 1u64)).collect(), 5)
            .reduce_by_key(2, |a, b| a + b);
        reduced.collect().unwrap();
        let records_after_first = c.shuffle_records();
        reduced.count().unwrap();
        assert_eq!(c.shuffle_records(), records_after_first, "no re-shuffle on reuse");
        let last = c.last_job().unwrap();
        assert_eq!(last.stages.len(), 1, "map stage skipped on second job");
    }

    #[test]
    fn fault_injection_is_retried_transparently() {
        let cfg = ClusterConfig::local(2)
            .with_fault(FaultPlan::tasks(FaultRule::always_first(2)))
            .with_max_attempts(4);
        let c = Context::new(cfg);
        let acc = c.accumulator(0u64);
        let acc2 = acc.clone();
        let rdd = c.parallelize((0..10u64).collect(), 3);
        rdd.foreach_partition(move |_, data| {
            for v in data {
                acc2.add(v);
            }
        })
        .unwrap();
        assert_eq!(acc.value(), 45, "accumulator exactly-once despite retries");
        let last = c.last_job().unwrap();
        assert_eq!(last.failed_attempts(), 6, "2 injected failures x 3 tasks");
    }

    #[test]
    fn exhausted_retries_fail_the_job() {
        let cfg = ClusterConfig::local(1)
            .with_fault(FaultPlan::tasks(FaultRule::always_first(10)))
            .with_max_attempts(2);
        let c = Context::new(cfg);
        let err = c.parallelize(vec![1], 1).collect().unwrap_err();
        assert!(matches!(err, SparkError::TaskFailed { attempts: 2, .. }));
    }

    #[test]
    fn task_panic_is_an_error_not_a_crash() {
        let cfg = ClusterConfig::local(1).with_max_attempts(1);
        let c = Context::new(cfg);
        let err = c
            .parallelize(vec![1i32], 1)
            .map(|_| -> i32 { panic!("user code exploded") })
            .collect()
            .unwrap_err();
        match err {
            SparkError::TaskFailed { message, .. } => assert!(message.contains("exploded")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn killed_executor_recomputed_from_lineage() {
        let c = ctx();
        let reduced = c
            .parallelize((0..40u32).map(|i| (i % 4, 1u64)).collect(), 4)
            .reduce_by_key(4, |a, b| a + b);
        let first: Vec<(u32, u64)> = reduced.collect().unwrap();
        // lose executor 1: its shuffle map outputs vanish
        let report = c.kill_executor(1);
        assert_eq!(report.executor, 1);
        assert!(report.map_outputs_lost > 0);
        let mut second = reduced.collect().unwrap();
        let mut first_sorted = first;
        first_sorted.sort_unstable();
        second.sort_unstable();
        assert_eq!(first_sorted, second, "lineage recomputation restores results");
    }

    #[test]
    fn executor_kill_mid_map_stage_recovers_via_lineage() {
        use crate::fault::ExecutorKillAt;
        use crate::trace::EventKind;
        let clean: Vec<(u32, u64)> = {
            let c = Context::new(ClusterConfig::local(1));
            let mut v = c
                .parallelize((0..40u32).map(|i| (i % 4, 1u64)).collect(), 4)
                .reduce_by_key(4, |a, b| a + b)
                .collect()
                .unwrap();
            v.sort_unstable();
            v
        };
        // one executor, killed after the first map task lands: its
        // registered map output is dropped mid-stage and must be
        // recomputed before the reduce side can run
        let cfg = ClusterConfig::local(1)
            .with_tracing()
            .with_fault(FaultPlan::none().with_executor_kill(ExecutorKillAt {
                stage: 0,
                executor: 0,
                after_tasks: 1,
            }))
            .with_max_attempts(4);
        let c = Context::new(cfg);
        let mut got = c
            .parallelize((0..40u32).map(|i| (i % 4, 1u64)).collect(), 4)
            .reduce_by_key(4, |a, b| a + b)
            .collect()
            .unwrap();
        got.sort_unstable();
        assert_eq!(got, clean, "mid-stage executor kill must not change the answer");
        let t = c.trace().snapshot();
        let lost =
            t.events.iter().filter(|e| matches!(e.kind, EventKind::MapOutputLost { .. })).count();
        let recomputed = t
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MapOutputRecomputed { .. }))
            .count();
        assert!(lost > 0, "the kill must have dropped a registered map output");
        assert_eq!(lost, recomputed, "every dropped output is recomputed exactly once");
    }

    #[test]
    fn executor_kill_mid_result_stage_requeues_in_flight_tasks() {
        use crate::fault::ExecutorKillAt;
        // the kill lands in the result stage: completed results are
        // kept, in-flight attempts are requeued (stale replies and
        // their accumulator updates dropped), and the reduce tasks that
        // now hit missing map outputs recover through the barrier
        let cfg = ClusterConfig::local(1)
            .with_fault(FaultPlan::none().with_executor_kill(ExecutorKillAt {
                stage: 1,
                executor: 0,
                after_tasks: 1,
            }))
            .with_max_attempts(4);
        let c = Context::new(cfg);
        let acc = c.accumulator(0u64);
        let acc2 = acc.clone();
        let mut got: Vec<(u32, u64)> = c
            .parallelize((0..40u32).map(|i| (i % 4, 1u64)).collect(), 4)
            .reduce_by_key(4, |a, b| a + b)
            .map(move |kv| {
                acc2.add(1);
                kv
            })
            .collect()
            .unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 10), (1, 10), (2, 10), (3, 10)]);
        assert_eq!(acc.value(), 4, "requeued attempts must not double-count");
    }

    #[test]
    fn killed_executor_cache_is_rebuilt() {
        let c = ctx();
        let rdd = c.parallelize((0..8i32).collect(), 4).cache();
        rdd.collect().unwrap();
        let before = c.inner.cache.len();
        assert_eq!(before, 4);
        c.kill_executor(0);
        assert!(c.inner.cache.len() < before);
        assert_eq!(rdd.collect().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn broadcast_reaches_tasks_and_accounts_bytes() {
        let c = ctx();
        let table = c.broadcast_sized(vec![10i32, 20, 30], 3 * 4);
        assert_eq!(c.broadcast_bytes(), (3 * 4 * c.num_executors()) as u64);
        let t = table.clone();
        let out =
            c.parallelize(vec![0usize, 1, 2], 3).map(move |i| t.value()[i]).collect().unwrap();
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn text_file_roundtrip_through_dfs() {
        let dfs = Arc::new(DfsCluster::single_node());
        dfs.write_file("/data.txt", b"1,2\n3,4\n5,6\n").unwrap();
        let c = ctx();
        let lines = c.text_file(Arc::clone(&dfs), "/data.txt").unwrap();
        assert_eq!(lines.collect().unwrap(), vec!["1,2", "3,4", "5,6"]);
    }

    #[test]
    fn missing_text_file_is_storage_error() {
        let dfs = Arc::new(DfsCluster::single_node());
        let c = ctx();
        assert!(matches!(c.text_file(dfs, "/nope"), Err(SparkError::Storage(_))));
    }

    #[test]
    fn traced_context_records_all_engine_event_categories() {
        let c = Context::new(
            ClusterConfig::local(2)
                .with_tracing()
                .with_fault(FaultPlan::tasks(FaultRule::always_first(1)))
                .with_max_attempts(3),
        );
        let dfs = Arc::new(DfsCluster::single_node());
        dfs.write_file("/in.txt", b"1\n2\n3\n").unwrap();
        let _b = c.broadcast(7u32);
        let lines = c.text_file(Arc::clone(&dfs), "/in.txt").unwrap();
        assert_eq!(lines.count().unwrap(), 3);
        c.parallelize((0..20u32).map(|i| (i % 3, 1u64)).collect(), 2)
            .reduce_by_key(2, |a, b| a + b)
            .collect()
            .unwrap();
        c.kill_executor(0);
        let trace = c.trace().snapshot();
        for cat in ["job", "stage", "task", "shuffle", "broadcast", "executor", "dfs"] {
            assert!(
                trace.events.iter().any(|e| e.kind.category() == cat),
                "missing {cat} events in {:?}",
                trace.events
            );
        }
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.kind == crate::trace::EventKind::TaskFailure { injected: true }),
            "injected failures are marked"
        );
        let json = c.trace().chrome_json();
        let summary = crate::trace::validate_chrome_trace(&json).expect("trace validates");
        assert!(summary.count("task") > 0 && summary.count("dfs") > 0, "{summary:?}");
    }

    #[test]
    fn untraced_context_records_nothing() {
        let c = ctx();
        c.parallelize((0..10i32).collect(), 2).collect().unwrap();
        assert!(!c.trace().enabled());
        assert!(c.trace().snapshot().events.is_empty());
    }
}
