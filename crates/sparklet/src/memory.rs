//! Memory accounting: one always-on ledger of executor-side bytes.
//!
//! One [`MemoryManager`] per [`crate::Context`] counts the bytes the
//! executors hold:
//!
//! * **Task reservations** (scheduler): before submitting a task the
//!   driver reserves the task's declared working-set bytes (set with
//!   [`crate::Rdd::mem_hints`]); the worker releases them when the
//!   attempt ends.
//! * **Storage charges** (cache, shuffle): resident cached partitions
//!   and shuffle map-output buffers are charged while they are held and
//!   uncharged when they are dropped (overwritten, unpersisted, or lost
//!   with their executor).
//!
//! Driver-side buffers (the collected results an action hands back)
//! are not accounted: they are the driver's own working set.
//!
//! The ledger only counts; it never refuses a charge. The paper's
//! Spark 1.5 runs never measure memory pressure, so no budget is kept:
//! [`MemoryStats::peak_bytes`] reports the high-water mark a run
//! reached, and the reserved/released task totals back the schedule
//! explorer's ledger-conservation oracle.

use parking_lot::Mutex;

/// A point-in-time snapshot of the manager's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// High-water mark of total accounted bytes.
    pub peak_bytes: u64,
    /// Total task working-set bytes ever reserved by
    /// [`MemoryManager::reserve_task`].
    pub task_reserved_bytes: u64,
    /// Total task working-set bytes released back by finished attempts.
    /// Once every submitted attempt has run to completion,
    /// `task_released_bytes == task_reserved_bytes` — the ledger
    /// conservation law the schedule explorer's oracle checks.
    pub task_released_bytes: u64,
}

#[derive(Default)]
struct Ledger {
    used: u64,
    stats: MemoryStats,
}

impl Ledger {
    fn charge(&mut self, bytes: u64) {
        self.used += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.used);
    }

    fn uncharge(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }
}

/// The per-context memory ledger. Cheap to share (`Arc`), internally a
/// single mutex — every operation is a few integer updates.
#[derive(Default)]
pub struct MemoryManager {
    inner: Mutex<Ledger>,
}

impl MemoryManager {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `bytes` of task working memory.
    pub fn reserve_task(&self, bytes: u64) {
        if bytes > 0 {
            let mut ledger = self.inner.lock();
            ledger.charge(bytes);
            ledger.stats.task_reserved_bytes += bytes;
        }
    }

    /// Release a task reservation made by [`MemoryManager::reserve_task`].
    pub fn release_task(&self, bytes: u64) {
        if bytes > 0 {
            let mut ledger = self.inner.lock();
            ledger.uncharge(bytes);
            ledger.stats.task_released_bytes += bytes;
        }
    }

    /// Charge storage bytes (a cached partition or a map-output buffer).
    pub fn charge(&self, bytes: u64) {
        self.inner.lock().charge(bytes);
    }

    /// Return previously charged storage bytes.
    pub fn uncharge(&self, bytes: u64) {
        self.inner.lock().uncharge(bytes);
    }

    /// Bytes currently accounted.
    #[cfg(test)]
    pub(crate) fn used(&self) -> u64 {
        self.inner.lock().used
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> MemoryStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_grants_everything_and_tracks_peaks() {
        let m = MemoryManager::new();
        m.reserve_task(1 << 40);
        m.charge(100);
        assert_eq!(m.used(), (1 << 40) + 100);
        m.release_task(1 << 40);
        m.uncharge(100);
        assert_eq!(m.used(), 0);
        // peaks are high-water marks, not current usage
        assert_eq!(m.stats().peak_bytes, (1 << 40) + 100);
        m.charge(50);
        assert_eq!(m.stats().peak_bytes, (1 << 40) + 100, "a lower level leaves the peak");
    }

    #[test]
    fn task_ledger_conserves_reserved_and_released() {
        let m = MemoryManager::new();
        m.reserve_task(60);
        m.reserve_task(90);
        assert_eq!(m.stats().task_released_bytes, 0);
        m.release_task(60);
        m.reserve_task(60);
        m.release_task(90);
        m.release_task(60);
        let s = m.stats();
        assert_eq!(s.task_reserved_bytes, 60 + 90 + 60);
        assert_eq!(s.task_released_bytes, s.task_reserved_bytes, "conservation at quiescence");
        assert_eq!(s.peak_bytes, 150);
        assert_eq!(m.used(), 0);
        // zero-byte reservations are free on both sides
        m.reserve_task(0);
        m.release_task(0);
        assert_eq!(m.stats(), s);
    }

    #[test]
    fn storage_charges_do_not_count_as_task_reservations() {
        let m = MemoryManager::new();
        m.charge(80);
        m.reserve_task(20);
        assert_eq!(m.used(), 100);
        m.uncharge(80);
        m.release_task(20);
        let s = m.stats();
        assert_eq!((s.task_reserved_bytes, s.task_released_bytes), (20, 20));
        assert_eq!(s.peak_bytes, 100);
        assert_eq!(m.used(), 0);
    }
}
