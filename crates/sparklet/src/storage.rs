//! Cached-partition storage (the engine's "memory store").
//!
//! Spark's headline feature over MapReduce — and a theme the paper's
//! background section dwells on — is keeping RDDs in memory for reuse.
//! `CacheManager` stores materialized partitions keyed by
//! `(rdd, partition)`, tagged with the executor that produced them so a
//! simulated executor loss evicts exactly its partitions, which are then
//! rebuilt from lineage on next access.
//!
//! Entries are **size-accounted** against the owning executor's lane in
//! the [`MemoryManager`]. When a put would exceed a bounded budget, the
//! cache walks a two-step ladder on that lane:
//!
//! 1. **Evict** — the least-recently-used unpinned entry is dropped;
//!    lineage recomputes it on next access (Spark's `MEMORY_ONLY`).
//!    Repeat until the new entry fits.
//! 2. **Skip** — if no unpinned victim can make room, the new entry is
//!    simply not cached (correct, just slower).
//!
//! **Determinism.** The LRU stamp is a logical access counter, so the
//! eviction decision is a pure function of the cache's *operation
//! sequence*, never of wall-clock time or worker-thread identity.
//! Victims are chosen per-executor with `(stamp, rdd, partition)`
//! ordering; since tasks are bound to executors by `partition %
//! num_executors` and the driver serializes stages, any workload that
//! keeps at most one task in flight per executor (the DBSCAN pipeline's
//! layout) produces the same eviction order at every worker-thread
//! count. Pinned entries (`pin`/`unpin`) are never victims.

use crate::memory::MemoryManager;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) type CachedPartition = Arc<dyn Any + Send + Sync>;

/// What a [`CacheManager`] needs: the ledger it accounts against. No
/// hidden defaults — the context passes its own manager, tests make
/// their intent explicit.
pub struct CacheConfig {
    /// Ledger to account entry bytes against.
    pub memory: Arc<MemoryManager>,
}

impl CacheConfig {
    /// An unbounded, untraced configuration (tests, standalone use).
    pub fn unbounded() -> Self {
        CacheConfig { memory: MemoryManager::unbounded() }
    }
}

struct Entry {
    executor: usize,
    bytes: u64,
    /// Logical access stamp (see module docs for the determinism
    /// argument).
    stamp: u64,
    pins: u32,
    data: CachedPartition,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<(usize, usize), Entry>,
    hits: u64,
    misses: u64,
    clock: u64,
}

/// In-memory store of cached RDD partitions, size-accounted with
/// LRU-with-pinning eviction.
pub struct CacheManager {
    inner: Mutex<Inner>,
    memory: Arc<MemoryManager>,
}

impl CacheManager {
    /// Fresh, empty cache accounting against `config`'s ledger.
    pub fn new(config: CacheConfig) -> Self {
        CacheManager { inner: Mutex::new(Inner::default()), memory: config.memory }
    }

    /// Evict LRU entries on `lane` until `bytes` fit (or no unpinned
    /// victim remains). Returns whether the charge was made.
    fn make_room(&self, inner: &mut Inner, lane: usize, bytes: u64) -> bool {
        loop {
            if self.memory.try_charge(lane, bytes) {
                return true;
            }
            // LRU victim on this lane: oldest stamp, then (rdd, part)
            // for a canonical tiebreak
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.executor == lane && e.pins == 0)
                .min_by_key(|(k, e)| (e.stamp, k.0, k.1))
                .map(|(k, _)| *k);
            let Some(key) = victim else {
                return false;
            };
            let e = inner.entries.remove(&key).expect("victim exists");
            self.memory.note_evict(lane, e.bytes);
        }
    }

    /// Look up a cached partition, counting the hit or miss.
    pub(crate) fn get(&self, rdd: usize, part: usize) -> Option<CachedPartition> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        let hit = inner.entries.get_mut(&(rdd, part)).map(|e| {
            e.stamp = stamp;
            e.data.clone()
        });
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Store a partition produced on `executor`, accounting `bytes`
    /// against its lane and evicting LRU entries to lineage under
    /// pressure. Returns whether the entry was admitted (a full lane
    /// with no evictable victim skips caching rather than failing).
    pub(crate) fn put(
        &self,
        rdd: usize,
        part: usize,
        executor: usize,
        data: CachedPartition,
        bytes: u64,
    ) -> bool {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        // overwrite (task retry recomputed the partition): release the
        // old entry's accounting first
        if let Some(old) = inner.entries.remove(&(rdd, part)) {
            self.memory.uncharge(old.executor, old.bytes);
        }
        if !self.make_room(&mut inner, executor, bytes) {
            return false;
        }
        inner.entries.insert((rdd, part), Entry { executor, bytes, stamp, pins: 0, data });
        true
    }

    /// Pin an entry: pinned entries are never eviction victims. Returns
    /// whether the entry exists.
    pub fn pin(&self, rdd: usize, part: usize) -> bool {
        match self.inner.lock().entries.get_mut(&(rdd, part)) {
            Some(e) => {
                e.pins += 1;
                true
            }
            None => false,
        }
    }

    /// Release one pin.
    pub fn unpin(&self, rdd: usize, part: usize) {
        if let Some(e) = self.inner.lock().entries.get_mut(&(rdd, part)) {
            e.pins = e.pins.saturating_sub(1);
        }
    }

    /// Evict all partitions of an RDD (Spark's `unpersist`), returning
    /// their accounting. Returns the number evicted.
    pub fn unpersist(&self, rdd: usize) -> usize {
        let mut inner = self.inner.lock();
        let keys: Vec<_> = inner.entries.keys().filter(|(r, _)| *r == rdd).copied().collect();
        for key in &keys {
            let e = inner.entries.remove(key).expect("key listed");
            self.memory.uncharge(e.executor, e.bytes);
        }
        keys.len()
    }

    /// Evict everything cached by `executor` (executor loss), releasing
    /// its ledger bytes. Returns the number evicted.
    pub fn kill_executor(&self, executor: usize) -> usize {
        let mut inner = self.inner.lock();
        let keys: Vec<_> =
            inner.entries.iter().filter(|(_, e)| e.executor == executor).map(|(k, _)| *k).collect();
        for key in &keys {
            let e = inner.entries.remove(key).expect("key listed");
            self.memory.uncharge(executor, e.bytes);
        }
        keys.len()
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().entries.values().map(|e| e.bytes).sum()
    }

    /// Cache hits since creation (all executors, dead ones included).
    pub fn hits(&self) -> u64 {
        self.inner.lock().hits
    }

    /// Cache misses since creation (all executors, dead ones included).
    pub fn misses(&self) -> u64 {
        self.inner.lock().misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{MemoryBudget, MemoryManager};
    use crate::trace::TraceCollector;

    fn data(v: Vec<i32>) -> CachedPartition {
        Arc::new(v)
    }

    fn bounded(bytes: u64) -> (CacheManager, Arc<MemoryManager>) {
        let memory = Arc::new(MemoryManager::new(
            MemoryBudget::per_executor(bytes),
            TraceCollector::disabled(),
        ));
        (CacheManager::new(CacheConfig { memory: Arc::clone(&memory) }), memory)
    }

    #[test]
    fn put_get_counts_hits_and_misses() {
        let c = CacheManager::new(CacheConfig::unbounded());
        assert!(c.get(1, 0).is_none());
        assert!(c.put(1, 0, 3, data(vec![1, 2]), 8));
        let got = c.get(1, 0).unwrap();
        assert_eq!(got.downcast_ref::<Vec<i32>>().unwrap(), &vec![1, 2]);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn unpersist_removes_only_that_rdd() {
        let c = CacheManager::new(CacheConfig::unbounded());
        c.put(1, 0, 0, data(vec![]), 0);
        c.put(1, 1, 0, data(vec![]), 0);
        c.put(2, 0, 0, data(vec![]), 0);
        assert_eq!(c.unpersist(1), 2);
        assert_eq!(c.len(), 1);
        assert!(c.get(2, 0).is_some());
    }

    #[test]
    fn kill_executor_evicts_its_partitions() {
        let c = CacheManager::new(CacheConfig::unbounded());
        c.put(1, 0, 0, data(vec![]), 0);
        c.put(1, 1, 1, data(vec![]), 0);
        assert_eq!(c.kill_executor(0), 1);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(1, 1).is_some());
    }

    #[test]
    fn empty_cache_reports_empty() {
        let c = CacheManager::new(CacheConfig::unbounded());
        assert!(c.is_empty());
        c.put(0, 0, 0, data(vec![]), 0);
        assert!(!c.is_empty());
    }

    #[test]
    fn kill_executor_reconciles_bytes_and_counters() {
        let (c, memory) = bounded(1000);
        c.put(1, 0, 0, data(vec![1]), 400);
        c.put(1, 2, 0, data(vec![2]), 400);
        c.put(1, 1, 1, data(vec![3]), 300);
        // attribute some traffic to executor 0 (driver thread counts as
        // executor 0 without a task scope)
        assert!(c.get(1, 0).is_some());
        assert!(c.get(9, 9).is_none());
        assert_eq!(memory.lane_used(0), 800);
        let (hits, misses) = (c.hits(), c.misses());
        assert_eq!(c.kill_executor(0), 2);
        // byte accounting reconciled: lane 0 drained, lane 1 untouched
        assert_eq!(memory.lane_used(0), 0);
        assert_eq!(memory.lane_used(1), 300);
        // counter totals survive the death
        assert_eq!(c.hits(), hits);
        assert_eq!(c.misses(), misses);
        assert_eq!(c.resident_bytes(), 300);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_respects_pins() {
        // budget fits two 100-byte entries per lane; all on executor 0
        let (c, _m) = bounded(200);
        assert!(c.put(1, 0, 0, data(vec![0]), 100));
        assert!(c.put(1, 1, 0, data(vec![1]), 100));
        // touch (1,0) so (1,1) becomes the LRU victim
        assert!(c.get(1, 0).is_some());
        assert!(c.put(1, 2, 0, data(vec![2]), 100));
        assert!(c.get(1, 1).is_none(), "LRU entry evicted");
        assert!(c.get(1, 0).is_some(), "recently-used entry kept");
        // pinning protects the LRU entry: the next-oldest goes instead
        c.pin(1, 0);
        assert!(c.put(1, 3, 0, data(vec![3]), 100));
        assert!(c.get(1, 0).is_some(), "pinned entry survives");
        assert!(c.get(1, 2).is_none(), "unpinned next-LRU evicted");
        c.unpin(1, 0);
    }

    #[test]
    fn oversized_entry_is_skipped_not_fatal() {
        let (c, m) = bounded(100);
        assert!(!c.put(1, 0, 0, data(vec![1; 64]), 500), "over-budget put skips caching");
        assert!(c.get(1, 0).is_none());
        assert_eq!(m.lane_used(0), 0);
    }

    #[test]
    fn read_after_kill_executor_surfaces_a_clean_miss() {
        // two puts on executor 0 under a one-entry budget: the second
        // evicts the first. After the executor dies, lookups of both
        // partitions (evicted and resident alike) are plain cache misses
        // that trigger a lineage recompute, and the lane is drained
        let (c, memory) = bounded(200);
        assert!(c.put(1, 0, 0, data(vec![1, 2, 3]), 150));
        assert!(c.put(1, 1, 0, data(vec![4]), 150));
        assert_eq!(memory.stats().evictions, 1);
        assert_eq!(c.kill_executor(0), 1);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(1, 1).is_none());
        assert_eq!(memory.lane_used(0), 0);
        assert!(c.is_empty());
    }
}
