//! In-memory hash shuffle with byte/record accounting.
//!
//! The paper's core design decision is to *avoid* shuffles ("we avoid
//! all-to-all communication... shuffle operations are very expensive in
//! Spark"). For that claim to be checkable, the engine implements real
//! shuffles: map tasks bucket their output by key hash, the manager holds
//! the buckets, reduce tasks fetch one bucket column each. Every record
//! and estimated byte moved is counted, and the DBSCAN tests assert the
//! count is **zero** for the paper's algorithm and non-zero for the
//! shuffle-based baseline.
//!
//! The manager is also the injection point for **shuffle fetch
//! failures**: under an active [`FaultRule`], a reduce-side fetch can
//! deterministically mark one parent map output lost and fail with a
//! typed [`TaskError`], driving the scheduler down the
//! lineage-recomputation path. Lost and recomputed outputs are recorded
//! as paired [`EventKind::MapOutputLost`] / [`EventKind::MapOutputRecomputed`]
//! trace events.

use crate::fault::{decision_hash, FaultRule, EXPLORE_FETCH_SALT, FETCH_SALT, VICTIM_SALT};
use crate::memory::MemoryManager;
use crate::schedule::{Fifo, SchedulePolicy};
use crate::task::TaskError;
use crate::trace::{self, EventKind, TraceCollector};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A type-erased map-output bucket (`Vec<(K, V)>` behind `Any`).
pub(crate) type Bucket = Arc<dyn Any + Send + Sync>;

#[derive(Clone)]
struct MapOutput {
    /// Virtual executor that produced this output (lost with it).
    executor: usize,
    /// Accounted bytes (released when the output is dropped).
    bytes: u64,
    /// One bucket per reduce partition.
    buckets: Vec<Bucket>,
}

struct ShuffleState {
    num_maps: usize,
    num_reduces: usize,
    outputs: Vec<Option<MapOutput>>,
    /// Map partitions whose output was lost (fault injection or
    /// executor kill) and not yet recomputed — recomputing one records
    /// the matching `MapOutputRecomputed` event.
    lost: HashSet<usize>,
}

/// Registry of all shuffle outputs in a context.
pub struct ShuffleManager {
    shuffles: Mutex<HashMap<usize, ShuffleState>>,
    records: AtomicU64,
    bytes: AtomicU64,
    tracer: Arc<TraceCollector>,
    /// Fetch-failure injection rule (from the context's fault plan).
    fetch_fault: FaultRule,
    seed: u64,
    /// Ledger map-output buffers are charged to while they are held.
    memory: Arc<MemoryManager>,
    /// Schedule policy: an exploring policy's keyed seed permutes the
    /// per-fetch bucket order (see [`crate::schedule`]).
    schedule: Arc<dyn SchedulePolicy>,
}

impl Default for ShuffleManager {
    fn default() -> Self {
        ShuffleManager::with_tracer(TraceCollector::disabled())
    }
}

impl ShuffleManager {
    /// Fresh, empty manager with tracing off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh manager reporting shuffle traffic to `tracer`.
    pub(crate) fn with_tracer(tracer: Arc<TraceCollector>) -> Self {
        Self::with_tracer_and_faults(tracer, FaultRule::NONE, 0, Arc::default(), Arc::new(Fifo))
    }

    /// Fresh manager with fetch-failure injection under `fetch_fault`,
    /// accounting buffers against `memory`.
    pub(crate) fn with_tracer_and_faults(
        tracer: Arc<TraceCollector>,
        fetch_fault: FaultRule,
        seed: u64,
        memory: Arc<MemoryManager>,
        schedule: Arc<dyn SchedulePolicy>,
    ) -> Self {
        ShuffleManager {
            shuffles: Mutex::new(HashMap::new()),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            tracer,
            fetch_fault,
            seed,
            memory,
            schedule,
        }
    }

    /// Declare a shuffle's geometry (idempotent).
    pub fn register(&self, shuffle_id: usize, num_maps: usize, num_reduces: usize) {
        let mut s = self.shuffles.lock();
        s.entry(shuffle_id).or_insert_with(|| ShuffleState {
            num_maps,
            num_reduces,
            outputs: vec![None; num_maps],
            lost: HashSet::new(),
        });
    }

    /// Store the output of map task `map_part`, overwriting any previous
    /// attempt's output (task retries are idempotent). If the partition
    /// had been marked lost, this is its recomputation and the matching
    /// `MapOutputRecomputed` event is recorded. The buffer is charged to
    /// the ledger until it is replaced or lost.
    pub(crate) fn put_map_output(
        &self,
        shuffle_id: usize,
        map_part: usize,
        executor: usize,
        buckets: Vec<Bucket>,
        records: u64,
        bytes: u64,
    ) {
        self.memory.charge(bytes);
        let mut s = self.shuffles.lock();
        let st = s.get_mut(&shuffle_id).expect("shuffle registered before map output");
        assert!(map_part < st.num_maps, "map partition out of range");
        assert_eq!(buckets.len(), st.num_reduces, "bucket count mismatch");
        let old = st.outputs[map_part].replace(MapOutput { executor, bytes, buckets });
        let recomputed = st.lost.remove(&map_part);
        drop(s);
        if let Some(old) = old {
            self.memory.uncharge(old.bytes);
        }
        self.records.fetch_add(records, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if recomputed {
            self.tracer.record_auto(EventKind::MapOutputRecomputed {
                shuffle: shuffle_id,
                partition: map_part,
            });
        }
        self.tracer.record_auto(EventKind::ShuffleWrite { shuffle: shuffle_id, records, bytes });
    }

    /// Report a reduce-side fetch to the trace (called by the shuffled
    /// RDD, which knows the record/byte volume after downcasting).
    pub(crate) fn trace_read(&self, shuffle_id: usize, records: u64, bytes: u64) {
        self.tracer.record_auto(EventKind::ShuffleRead { shuffle: shuffle_id, records, bytes });
    }

    /// Map partitions whose output is missing (initially all of them;
    /// after an executor loss, the ones it had produced).
    pub fn missing_maps(&self, shuffle_id: usize) -> Vec<usize> {
        let s = self.shuffles.lock();
        match s.get(&shuffle_id) {
            None => Vec::new(),
            Some(st) => (0..st.num_maps).filter(|&i| st.outputs[i].is_none()).collect(),
        }
    }

    /// Whether a shuffle has been registered at all.
    pub fn is_registered(&self, shuffle_id: usize) -> bool {
        self.shuffles.lock().contains_key(&shuffle_id)
    }

    /// Fetch the bucket column for `reduce_part`: one bucket per map
    /// partition. `None` if any map output is missing.
    ///
    /// Buckets are stored behind [`Arc`], so fetching one is a refcount
    /// bump per map output — no record data is copied
    /// (regression-tested by `fetch_is_refcount_bump_not_deep_clone`).
    /// Logical shuffle records/bytes are accounted at write and read
    /// time regardless, since they model what a real cluster would move.
    pub(crate) fn fetch(&self, shuffle_id: usize, reduce_part: usize) -> Option<Vec<Bucket>> {
        let col: Vec<Bucket> = {
            let s = self.shuffles.lock();
            let st = s.get(&shuffle_id)?;
            st.outputs
                .iter()
                .map(|o| o.as_ref()?.buckets.get(reduce_part).cloned())
                .collect::<Option<_>>()?
        };
        // schedule exploration: an exploring policy's keyed seed ranks
        // the buckets per (shuffle, reduce, map) identity, so the reduce
        // task walks them in a replayable permuted order instead of map
        // order. Buckets form one merged column; no consumer may assume
        // positional alignment with map indices.
        match self.schedule.keyed_seed() {
            Some(ks) if col.len() > 1 => {
                let mut ranked: Vec<(u64, Bucket)> = col
                    .into_iter()
                    .enumerate()
                    .map(|(m, b)| {
                        let rank = decision_hash(
                            ks,
                            EXPLORE_FETCH_SALT,
                            shuffle_id as u64,
                            reduce_part as u64,
                            m as u64,
                        );
                        (rank, b)
                    })
                    .collect();
                ranked.sort_by_key(|(rank, _)| *rank);
                Some(ranked.into_iter().map(|(_, b)| b).collect())
            }
            _ => Some(col),
        }
    }

    /// Fetch with fault injection and typed errors: under an active
    /// fetch-failure rule, the decision keyed by the calling task's
    /// `(stage, partition, attempt)` identity (and the shuffle id) may
    /// mark a deterministic victim map output lost and fail the fetch.
    /// A genuinely incomplete shuffle (e.g. after a mid-stage executor
    /// kill) also fails typed, so the scheduler recovers via lineage
    /// either way.
    pub(crate) fn fetch_checked(
        &self,
        shuffle_id: usize,
        reduce_part: usize,
    ) -> Result<Vec<Bucket>, TaskError> {
        if self.fetch_fault.is_active() {
            if let Some(scope) = trace::task_scope() {
                let fire = self.fetch_fault.should_fire(
                    self.seed,
                    FETCH_SALT.wrapping_add(shuffle_id as u64),
                    scope.stage,
                    scope.partition,
                    scope.attempt,
                );
                if fire {
                    let victim = self.inject_lost_output(shuffle_id, scope);
                    return Err(TaskError::fetch_failed(
                        shuffle_id,
                        format!(
                            "injected fetch failure (stage {} partition {} attempt {}): map output {victim} lost",
                            scope.stage, scope.partition, scope.attempt
                        ),
                    )
                    .injected());
                }
            }
        }
        self.fetch(shuffle_id, reduce_part).ok_or_else(|| {
            TaskError::fetch_failed(
                shuffle_id,
                format!("outputs missing for reduce partition {reduce_part}"),
            )
        })
    }

    /// Pick and mark the victim map output for an injected fetch
    /// failure. The victim index is derived from the same deterministic
    /// key as the decision, so a given `(stage, partition, attempt)`
    /// always loses the same output. The `MapOutputLost` event is
    /// recorded in the failing task's scope (once per injection) even if
    /// another task already lost the same victim, keeping the trace
    /// independent of reply ordering.
    fn inject_lost_output(&self, shuffle_id: usize, scope: trace::TaskScope) -> usize {
        let mut s = self.shuffles.lock();
        let Some(st) = s.get_mut(&shuffle_id) else { return 0 };
        let h = decision_hash(
            self.seed,
            VICTIM_SALT.wrapping_add(shuffle_id as u64),
            scope.stage as u64,
            scope.partition as u64,
            scope.attempt as u64,
        );
        let victim = (h % st.num_maps.max(1) as u64) as usize;
        let dropped = st.outputs[victim].take();
        st.lost.insert(victim);
        drop(s);
        if let Some(out) = dropped {
            self.memory.uncharge(out.bytes);
        }
        self.tracer
            .record_auto(EventKind::MapOutputLost { shuffle: shuffle_id, partition: victim });
        victim
    }

    /// Drop every map output produced by `executor` across all shuffles
    /// (simulating the loss of that executor), recording a
    /// `MapOutputLost` event per dropped output. Returns how many
    /// outputs were lost.
    pub fn kill_executor(&self, executor: usize) -> usize {
        let mut lost: Vec<(usize, usize)> = Vec::new();
        let mut dropped: Vec<MapOutput> = Vec::new();
        let mut s = self.shuffles.lock();
        for (&sid, st) in s.iter_mut() {
            for (i, o) in st.outputs.iter_mut().enumerate() {
                if o.as_ref().is_some_and(|m| m.executor == executor) {
                    if let Some(out) = o.take() {
                        dropped.push(out);
                    }
                    st.lost.insert(i);
                    lost.push((sid, i));
                }
            }
        }
        drop(s);
        // reconcile accounting for everything the executor held
        for out in dropped {
            self.memory.uncharge(out.bytes);
        }
        lost.sort_unstable();
        for &(sid, i) in &lost {
            self.tracer.record_auto(EventKind::MapOutputLost { shuffle: sid, partition: i });
        }
        lost.len()
    }

    /// Total records moved through shuffles since creation.
    pub fn total_records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Total estimated bytes moved through shuffles since creation.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TaskScope;

    fn bucket(v: Vec<(u32, u32)>) -> Bucket {
        Arc::new(v)
    }

    #[test]
    fn register_put_fetch_roundtrip() {
        let m = ShuffleManager::new();
        m.register(0, 2, 2);
        assert_eq!(m.missing_maps(0), vec![0, 1]);
        m.put_map_output(0, 0, 0, vec![bucket(vec![(1, 1)]), bucket(vec![(2, 2)])], 2, 32);
        assert!(m.fetch(0, 0).is_none(), "incomplete shuffle not fetchable");
        m.put_map_output(0, 1, 1, vec![bucket(vec![(3, 3)]), bucket(vec![])], 1, 16);
        let col0 = m.fetch(0, 0).unwrap();
        assert_eq!(col0.len(), 2);
        let b: &Vec<(u32, u32)> = col0[0].downcast_ref().unwrap();
        assert_eq!(b, &vec![(1, 1)]);
        assert_eq!(m.total_records(), 3);
        assert_eq!(m.total_bytes(), 48);
    }

    #[test]
    fn fetch_is_refcount_bump_not_deep_clone() {
        let m = ShuffleManager::new();
        m.register(0, 2, 1);
        let b0 = bucket(vec![(1u32, 1u32)]);
        let b1 = bucket(vec![(2u32, 2u32)]);
        m.put_map_output(0, 0, 0, vec![Arc::clone(&b0)], 1, 8);
        m.put_map_output(0, 1, 1, vec![Arc::clone(&b1)], 1, 8);
        let col = m.fetch(0, 0).unwrap();
        assert!(Arc::ptr_eq(&col[0], &b0), "fetch must share the stored allocation");
        assert!(Arc::ptr_eq(&col[1], &b1));
        // repeated reads keep sharing — no copy amplification with
        // reduce-side retries
        let again = m.fetch(0, 0).unwrap();
        assert!(Arc::ptr_eq(&again[0], &b0));
    }

    #[test]
    fn register_is_idempotent() {
        let m = ShuffleManager::new();
        m.register(5, 3, 1);
        m.put_map_output(5, 0, 0, vec![bucket(vec![])], 0, 0);
        m.register(5, 3, 1); // must not clear outputs
        assert_eq!(m.missing_maps(5), vec![1, 2]);
    }

    #[test]
    fn kill_executor_drops_its_outputs_only() {
        let m = ShuffleManager::new();
        m.register(0, 2, 1);
        m.put_map_output(0, 0, 7, vec![bucket(vec![(1, 1)])], 1, 8);
        m.put_map_output(0, 1, 8, vec![bucket(vec![(2, 2)])], 1, 8);
        assert_eq!(m.kill_executor(7), 1);
        assert_eq!(m.missing_maps(0), vec![0]);
        assert!(m.fetch(0, 0).is_none());
        // re-run the lost map task and fetch succeeds again
        m.put_map_output(0, 0, 3, vec![bucket(vec![(1, 1)])], 1, 8);
        assert!(m.fetch(0, 0).is_some());
    }

    #[test]
    fn retried_map_overwrites() {
        let m = ShuffleManager::new();
        m.register(0, 1, 1);
        m.put_map_output(0, 0, 0, vec![bucket(vec![(1, 1)])], 1, 8);
        m.put_map_output(0, 0, 0, vec![bucket(vec![(9, 9)])], 1, 8);
        let col = m.fetch(0, 0).unwrap();
        let b: &Vec<(u32, u32)> = col[0].downcast_ref().unwrap();
        assert_eq!(b, &vec![(9, 9)]);
    }

    #[test]
    fn map_output_is_charged_until_replaced_or_lost() {
        let memory = Arc::new(MemoryManager::new());
        let m = ShuffleManager::with_tracer_and_faults(
            TraceCollector::disabled(),
            FaultRule::NONE,
            0,
            Arc::clone(&memory),
            Arc::new(Fifo),
        );
        m.register(0, 1, 1);
        m.put_map_output(0, 0, 2, vec![bucket(vec![(1, 1)])], 1, 64);
        assert_eq!(memory.used(), 64);
        // fetching shares the buffer; the map output stays charged
        assert!(m.fetch(0, 0).is_some());
        assert_eq!(memory.used(), 64);
        // a retried put replaces the output and its charge
        m.put_map_output(0, 0, 2, vec![bucket(vec![(9, 9)])], 1, 64);
        assert_eq!(memory.used(), 64);
        let col = m.fetch(0, 0).unwrap();
        let b: &Vec<(u32, u32)> = col[0].downcast_ref().unwrap();
        assert_eq!(b, &vec![(9, 9)]);
        assert_eq!(m.kill_executor(2), 1);
        assert_eq!(memory.used(), 0, "the lost output returns its charge");
        assert_eq!(memory.stats().peak_bytes, 128, "the retry charged before releasing");
    }

    #[test]
    fn unknown_shuffle_fetch_is_none() {
        let m = ShuffleManager::new();
        assert!(m.fetch(99, 0).is_none());
        assert!(m.missing_maps(99).is_empty());
        assert!(!m.is_registered(99));
    }

    #[test]
    fn fetch_checked_without_faults_matches_fetch() {
        let m = ShuffleManager::new();
        m.register(0, 1, 1);
        let err = m.fetch_checked(0, 0).unwrap_err();
        assert_eq!(err.kind, crate::task::TaskErrorKind::FetchFailed { shuffle: 0 });
        assert!(!err.injected);
        m.put_map_output(0, 0, 0, vec![bucket(vec![(1, 1)])], 1, 8);
        assert!(m.fetch_checked(0, 0).is_ok());
    }

    #[test]
    fn injected_fetch_failure_marks_victim_lost_then_recomputed() {
        let memory = Arc::new(MemoryManager::new());
        let m = ShuffleManager::with_tracer_and_faults(
            Arc::new(TraceCollector::new(crate::config::TraceConfig::enabled())),
            FaultRule::always_first(1),
            42,
            Arc::clone(&memory),
            Arc::new(Fifo),
        );
        m.register(3, 2, 1);
        m.put_map_output(3, 0, 0, vec![bucket(vec![(1, 1)])], 1, 8);
        m.put_map_output(3, 1, 1, vec![bucket(vec![(2, 2)])], 1, 8);

        // attempt 0 inside a task scope: injection fires, a victim is lost
        trace::set_task_scope(Some(TaskScope { stage: 9, partition: 0, attempt: 0, executor: 0 }));
        let err = m.fetch_checked(3, 0).unwrap_err();
        assert!(err.injected, "{err}");
        let missing = m.missing_maps(3);
        assert_eq!(missing.len(), 1, "exactly one victim lost");
        assert_eq!(memory.used(), 8, "the lost output returns its charge");

        // recompute the victim, then attempt 1 succeeds
        m.put_map_output(3, missing[0], 0, vec![bucket(vec![(1, 1)])], 1, 8);
        assert_eq!(memory.used(), 16);
        trace::set_task_scope(Some(TaskScope { stage: 9, partition: 0, attempt: 1, executor: 0 }));
        assert!(m.fetch_checked(3, 0).is_ok());
        trace::set_task_scope(None);
    }

    #[test]
    fn lost_and_recomputed_events_pair_up() {
        let tracer = Arc::new(TraceCollector::new(crate::config::TraceConfig::enabled()));
        let m = ShuffleManager::with_tracer(Arc::clone(&tracer));
        m.register(0, 2, 1);
        m.put_map_output(0, 0, 7, vec![bucket(vec![(1, 1)])], 1, 8);
        m.put_map_output(0, 1, 8, vec![bucket(vec![(2, 2)])], 1, 8);
        m.kill_executor(7);
        m.put_map_output(0, 0, 3, vec![bucket(vec![(1, 1)])], 1, 8);
        let events = tracer.snapshot().events;
        let lost: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MapOutputLost { shuffle: 0, partition: 0 }))
            .collect();
        let recomputed: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::MapOutputRecomputed { shuffle: 0, partition: 0 })
            })
            .collect();
        assert_eq!(lost.len(), 1);
        assert_eq!(recomputed.len(), 1);
    }
}
