//! Cached-partition storage (the engine's "memory store").
//!
//! Spark's headline feature over MapReduce — and a theme the paper's
//! background section dwells on — is keeping RDDs in memory for reuse.
//! `CacheManager` stores materialized partitions keyed by
//! `(rdd, partition)`, tagged with the executor that produced them so a
//! simulated executor loss evicts exactly its partitions, which are then
//! rebuilt from lineage on next access.
//!
//! Entries are **size-accounted** in the context's [`MemoryManager`]:
//! a put charges the entry's bytes, and dropping the entry (overwrite,
//! `unpersist`, executor loss) uncharges them. Nothing is evicted for
//! room: an entry stays until one of those drops it.

use crate::memory::MemoryManager;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) type CachedPartition = Arc<dyn Any + Send + Sync>;

struct Entry {
    executor: usize,
    bytes: u64,
    data: CachedPartition,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<(usize, usize), Entry>,
    hits: u64,
    misses: u64,
}

/// In-memory store of cached RDD partitions, size-accounted.
pub struct CacheManager {
    inner: Mutex<Inner>,
    memory: Arc<MemoryManager>,
}

impl CacheManager {
    /// Fresh, empty cache accounting against `memory`.
    pub fn new(memory: Arc<MemoryManager>) -> Self {
        CacheManager { inner: Mutex::new(Inner::default()), memory }
    }

    /// Look up a cached partition, counting the hit or miss.
    pub(crate) fn get(&self, rdd: usize, part: usize) -> Option<CachedPartition> {
        let mut inner = self.inner.lock();
        let hit = inner.entries.get(&(rdd, part)).map(|e| e.data.clone());
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Store a partition produced on `executor`, charging `bytes` to
    /// the ledger.
    pub(crate) fn put(
        &self,
        rdd: usize,
        part: usize,
        executor: usize,
        data: CachedPartition,
        bytes: u64,
    ) {
        let mut inner = self.inner.lock();
        // overwrite (task retry recomputed the partition): release the
        // old entry's accounting first
        if let Some(old) = inner.entries.remove(&(rdd, part)) {
            self.memory.uncharge(old.bytes);
        }
        self.memory.charge(bytes);
        inner.entries.insert((rdd, part), Entry { executor, bytes, data });
    }

    /// Evict all partitions of an RDD (Spark's `unpersist`), returning
    /// their accounting. Returns the number evicted.
    pub fn unpersist(&self, rdd: usize) -> usize {
        let mut inner = self.inner.lock();
        let keys: Vec<_> = inner.entries.keys().filter(|(r, _)| *r == rdd).copied().collect();
        for key in &keys {
            let e = inner.entries.remove(key).expect("key listed");
            self.memory.uncharge(e.bytes);
        }
        keys.len()
    }

    /// Evict everything cached by `executor` (executor loss), releasing
    /// their ledger bytes. Returns the number evicted.
    pub fn kill_executor(&self, executor: usize) -> usize {
        let mut inner = self.inner.lock();
        let keys: Vec<_> =
            inner.entries.iter().filter(|(_, e)| e.executor == executor).map(|(k, _)| *k).collect();
        for key in &keys {
            let e = inner.entries.remove(key).expect("key listed");
            self.memory.uncharge(e.bytes);
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

    fn data(v: Vec<i32>) -> CachedPartition {
        Arc::new(v)
    }

    fn cache() -> (CacheManager, Arc<MemoryManager>) {
        let memory = Arc::new(MemoryManager::new());
        (CacheManager::new(Arc::clone(&memory)), memory)
    }

    #[test]
    fn put_get_counts_hits_and_misses() {
        let (c, _) = cache();
        assert!(c.get(1, 0).is_none());
        c.put(1, 0, 3, data(vec![1, 2]), 8);
        let got = c.get(1, 0).unwrap();
        assert_eq!(got.downcast_ref::<Vec<i32>>().unwrap(), &vec![1, 2]);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn unpersist_removes_only_that_rdd() {
        let (c, memory) = cache();
        c.put(1, 0, 0, data(vec![]), 10);
        c.put(1, 1, 0, data(vec![]), 20);
        c.put(2, 0, 0, data(vec![]), 40);
        assert_eq!(c.unpersist(1), 2);
        assert_eq!(c.len(), 1);
        assert!(c.get(2, 0).is_some());
        assert_eq!(memory.used(), 40, "unpersist returns its entries' charges");
    }

    #[test]
    fn kill_executor_evicts_its_partitions() {
        let (c, _) = cache();
        c.put(1, 0, 0, data(vec![]), 0);
        c.put(1, 1, 1, data(vec![]), 0);
        assert_eq!(c.kill_executor(0), 1);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(1, 1).is_some());
    }

    #[test]
    fn empty_cache_reports_empty() {
        let (c, _) = cache();
        assert!(c.is_empty());
        c.put(0, 0, 0, data(vec![]), 0);
        assert!(!c.is_empty());
    }

    #[test]
    fn kill_executor_reconciles_bytes_and_counters() {
        let (c, memory) = cache();
        c.put(1, 0, 0, data(vec![1]), 400);
        c.put(1, 2, 0, data(vec![2]), 400);
        c.put(1, 1, 1, data(vec![3]), 300);
        assert!(c.get(1, 0).is_some());
        assert!(c.get(9, 9).is_none());
        assert_eq!(memory.used(), 1100);
        let (hits, misses) = (c.hits(), c.misses());
        assert_eq!(c.kill_executor(0), 2);
        // byte accounting reconciled: executor 0's entries uncharged,
        // executor 1's still held
        assert_eq!(memory.used(), 300);
        assert_eq!(memory.stats().peak_bytes, 1100);
        // counter totals survive the death
        assert_eq!(c.hits(), hits);
        assert_eq!(c.misses(), misses);
        assert_eq!(c.resident_bytes(), 300);
    }

    #[test]
    fn read_after_kill_executor_surfaces_a_clean_miss() {
        // two puts on executor 0, the second a retry overwriting the
        // first: the ledger holds only the latest charge. After the
        // executor dies, lookups of both partitions are plain cache
        // misses that trigger a lineage recompute, and the ledger is
        // drained
        let (c, memory) = cache();
        c.put(1, 0, 0, data(vec![1, 2, 3]), 150);
        c.put(1, 0, 0, data(vec![1, 2, 3]), 150);
        c.put(1, 1, 0, data(vec![4]), 150);
        assert_eq!(memory.used(), 300, "an overwrite replaces the old charge");
        assert_eq!(c.kill_executor(0), 2);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(1, 1).is_none());
        assert_eq!(memory.used(), 0);
        assert_eq!(memory.stats().peak_bytes, 300);
        assert!(c.is_empty());
    }
}
