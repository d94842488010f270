//! Memory accounting: per-executor byte budgets, task reservations, and
//! the evict → backpressure ladder.
//!
//! The paper's substrate ran under hard per-executor memory limits; this
//! module gives `sparklet` the same constraint as a first-class, typed
//! budget instead of unbounded in-process maps. One [`MemoryManager`]
//! per [`crate::Context`] keeps a ledger of accounted bytes per *lane* —
//! one lane per virtual executor — against the [`MemoryBudget`] set once
//! by [`crate::ClusterConfig::with_memory_budget`]:
//!
//! * **Task reservations** (scheduler): before submitting a task the
//!   driver reserves the task's declared working-set bytes on its
//!   executor's lane. A reservation that cannot be granted *defers* the
//!   submission (backpressure) until running tasks release theirs; only
//!   a single reservation larger than the whole budget is an error
//!   ([`crate::SparkError::OutOfMemory`]).
//! * **Storage charges** (cache, shuffle): resident cached partitions
//!   and shuffle map-output buffers charge their lane. When a cache
//!   charge would exceed the budget the cache evicts least-recently-used
//!   entries to lineage (see [`crate::storage::CacheManager`]); shuffle
//!   map outputs are force-charged and stay resident.
//!
//! Driver-side buffers (the collected results an action hands back)
//! are not accounted: they are the driver's own working set, outside
//! the executors' budget.
//!
//! Accounting is always on — an unbounded manager still tracks peaks,
//! which is how the budget-identity tests measure the unbounded
//! high-water mark to derive a budget from — but `MemoryAction` trace
//! events are recorded only when the budget is bounded, so traces of
//! unbudgeted runs are byte-identical to pre-budget traces.

use crate::trace::{EventKind, MemOp, TraceCollector};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A per-executor byte budget. [`MemoryBudget::UNBOUNDED`] (the default)
/// disables enforcement while keeping the accounting live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    per_lane: u64,
}

impl MemoryBudget {
    /// No limit: every reservation and charge is granted.
    pub const UNBOUNDED: MemoryBudget = MemoryBudget { per_lane: u64::MAX };

    /// A hard per-executor budget in bytes.
    pub fn per_executor(bytes: u64) -> Self {
        MemoryBudget { per_lane: bytes.max(1) }
    }

    /// The per-lane byte limit (`u64::MAX` when unbounded).
    pub fn bytes(self) -> u64 {
        self.per_lane
    }

    /// Whether enforcement is active.
    pub fn is_bounded(self) -> bool {
        self.per_lane != u64::MAX
    }
}

impl Default for MemoryBudget {
    fn default() -> Self {
        MemoryBudget::UNBOUNDED
    }
}

/// Outcome of a task reservation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// Reserved; the ledger was charged.
    Granted,
    /// Over budget right now — resubmit after a running task releases
    /// its reservation (scheduler backpressure).
    Deferred,
    /// The reservation alone exceeds the whole per-lane budget; no
    /// amount of waiting can grant it.
    TooLarge,
}

/// A point-in-time snapshot of the manager's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// High-water mark of total accounted bytes across all lanes.
    pub peak_bytes: u64,
    /// Largest per-lane high-water mark.
    pub max_lane_peak: u64,
    /// Bytes freed by evicting (dropping) cache entries.
    pub evicted_bytes: u64,
    /// Cache entries evicted outright.
    pub evictions: u64,
    /// Task submissions deferred because a reservation could not be
    /// granted.
    pub backpressure_waits: u64,
    /// Broadcast bytes shipped — metered but budget-exempt (broadcasts
    /// are shared read-only state, not per-task working memory).
    pub broadcast_bytes: u64,
    /// Total task working-set bytes ever granted (by
    /// [`MemoryManager::reserve_task`], forced or not, and by the quiet
    /// backpressure-drain path).
    pub task_reserved_bytes: u64,
    /// Total task working-set bytes released back by finished attempts.
    /// Once every submitted attempt has run to completion,
    /// `task_released_bytes == task_reserved_bytes` — the ledger
    /// conservation law the schedule explorer's oracle checks.
    pub task_released_bytes: u64,
}

#[derive(Default)]
struct Lane {
    used: u64,
    peak: u64,
}

struct Ledger {
    lanes: HashMap<usize, Lane>,
    total_used: u64,
    stats: MemoryStats,
}

/// The per-context memory ledger. Cheap to share (`Arc`), internally a
/// single mutex — every operation is a few integer updates.
pub struct MemoryManager {
    budget: MemoryBudget,
    inner: Mutex<Ledger>,
    tracer: Arc<TraceCollector>,
}

impl MemoryManager {
    /// A manager enforcing `budget`, reporting `MemoryAction` events to
    /// `tracer` when bounded.
    pub fn new(budget: MemoryBudget, tracer: Arc<TraceCollector>) -> Self {
        MemoryManager {
            budget,
            inner: Mutex::new(Ledger {
                lanes: HashMap::new(),
                total_used: 0,
                stats: MemoryStats::default(),
            }),
            tracer,
        }
    }

    /// An unbounded manager with no trace sink — for components used
    /// outside a [`crate::Context`] (direct `CacheManager` tests, etc.).
    pub fn unbounded() -> Arc<Self> {
        Arc::new(MemoryManager::new(MemoryBudget::UNBOUNDED, TraceCollector::disabled()))
    }

    /// The budget.
    pub fn budget(&self) -> MemoryBudget {
        self.budget
    }

    fn record(&self, op: MemOp, lane: usize, bytes: u64) {
        if self.budget.is_bounded() {
            self.tracer.record_auto(EventKind::MemoryAction { op, lane, bytes });
        }
    }

    fn charge_locked(ledger: &mut Ledger, lane: usize, bytes: u64) {
        let l = ledger.lanes.entry(lane).or_default();
        l.used += bytes;
        l.peak = l.peak.max(l.used);
        ledger.stats.max_lane_peak = ledger.stats.max_lane_peak.max(l.peak);
        ledger.total_used += bytes;
        ledger.stats.peak_bytes = ledger.stats.peak_bytes.max(ledger.total_used);
    }

    fn uncharge_locked(ledger: &mut Ledger, lane: usize, bytes: u64) {
        let l = ledger.lanes.entry(lane).or_default();
        l.used = l.used.saturating_sub(bytes);
        ledger.total_used = ledger.total_used.saturating_sub(bytes);
    }

    /// Reserve `bytes` of task working memory on `lane`. `force` grants
    /// even over budget — the scheduler's starvation escape hatch (a
    /// lane with nothing in flight must always be able to run one task).
    pub fn reserve_task(&self, lane: usize, bytes: u64, force: bool) -> Grant {
        if bytes == 0 {
            return Grant::Granted;
        }
        let bounded = self.budget.is_bounded();
        let limit = self.budget.bytes();
        let grant = {
            let mut ledger = self.inner.lock();
            if bounded && bytes > limit {
                Grant::TooLarge
            } else {
                let used = ledger.lanes.get(&lane).map_or(0, |l| l.used);
                if bounded && !force && used + bytes > limit {
                    ledger.stats.backpressure_waits += 1;
                    Grant::Deferred
                } else {
                    Self::charge_locked(&mut ledger, lane, bytes);
                    ledger.stats.task_reserved_bytes += bytes;
                    Grant::Granted
                }
            }
        };
        if grant == Grant::Deferred {
            self.record(MemOp::Backpressure, lane, bytes);
        }
        grant
    }

    /// Release a task reservation made by [`MemoryManager::reserve_task`]
    /// or [`MemoryManager::reserve_task_quiet`].
    pub fn release_task(&self, lane: usize, bytes: u64) {
        if bytes > 0 {
            let mut ledger = self.inner.lock();
            Self::uncharge_locked(&mut ledger, lane, bytes);
            ledger.stats.task_released_bytes += bytes;
        }
    }

    /// Whether `bytes` more fit on `lane` (always, when unbounded).
    fn fits(&self, ledger: &Ledger, lane: usize, bytes: u64) -> bool {
        !self.budget.is_bounded()
            || ledger.lanes.get(&lane).map_or(0, |l| l.used) + bytes <= self.budget.bytes()
    }

    /// Quiet retry of a deferred task reservation: charge if it fits,
    /// without bumping the backpressure counter or emitting trace
    /// events (the scheduler polls this after every release, and
    /// repeated polling would inflate both). A successful charge counts
    /// toward `task_reserved_bytes` like any granted reservation, so
    /// the reserved/released conservation law holds on either path.
    pub fn reserve_task_quiet(&self, lane: usize, bytes: u64) -> bool {
        if bytes == 0 {
            return true;
        }
        let mut ledger = self.inner.lock();
        let fits = self.fits(&ledger, lane, bytes);
        if fits {
            Self::charge_locked(&mut ledger, lane, bytes);
            ledger.stats.task_reserved_bytes += bytes;
        }
        fits
    }

    /// Charge storage bytes if they fit (or the budget is unbounded).
    /// Returns `false` — without charging — when bounded and over
    /// budget; the caller should evict and retry, or give up.
    pub fn try_charge(&self, lane: usize, bytes: u64) -> bool {
        let mut ledger = self.inner.lock();
        let fits = self.fits(&ledger, lane, bytes);
        if fits {
            Self::charge_locked(&mut ledger, lane, bytes);
        }
        fits
    }

    /// Charge storage bytes unconditionally (when correctness requires
    /// the bytes to stay resident, as for shuffle map outputs).
    pub fn force_charge(&self, lane: usize, bytes: u64) {
        Self::charge_locked(&mut self.inner.lock(), lane, bytes);
    }

    /// Return previously charged storage bytes.
    pub fn uncharge(&self, lane: usize, bytes: u64) {
        Self::uncharge_locked(&mut self.inner.lock(), lane, bytes);
    }

    /// Account an eviction: `bytes` were freed by dropping an entry.
    pub fn note_evict(&self, lane: usize, bytes: u64) {
        {
            let mut ledger = self.inner.lock();
            Self::uncharge_locked(&mut ledger, lane, bytes);
            ledger.stats.evicted_bytes += bytes;
            ledger.stats.evictions += 1;
        }
        self.record(MemOp::Evict, lane, bytes);
    }

    /// Meter broadcast bytes: exempt from the budget (broadcasts are
    /// shared read-only state) but visible in [`MemoryStats`].
    pub fn meter_broadcast(&self, bytes: u64) {
        self.inner.lock().stats.broadcast_bytes += bytes;
    }

    /// Bytes currently accounted on a lane.
    #[cfg(test)]
    pub(crate) fn lane_used(&self, lane: usize) -> u64 {
        self.inner.lock().lanes.get(&lane).map_or(0, |l| l.used)
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> MemoryStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounded(bytes: u64) -> MemoryManager {
        MemoryManager::new(MemoryBudget::per_executor(bytes), TraceCollector::disabled())
    }

    #[test]
    fn unbounded_grants_everything_and_tracks_peaks() {
        let m = MemoryManager::unbounded();
        assert_eq!(m.reserve_task(0, 1 << 40, false), Grant::Granted);
        assert_eq!(m.reserve_task(1, 100, false), Grant::Granted);
        let s = m.stats();
        assert_eq!(s.peak_bytes, (1 << 40) + 100);
        assert_eq!(s.max_lane_peak, 1 << 40);
        m.release_task(0, 1 << 40);
        m.release_task(1, 100);
        assert_eq!(m.lane_used(0), 0);
        // peaks are high-water marks, not current usage
        assert_eq!(m.stats().peak_bytes, (1 << 40) + 100);
    }

    #[test]
    fn bounded_defers_then_grants_after_release() {
        let m = bounded(100);
        assert_eq!(m.reserve_task(0, 60, false), Grant::Granted);
        assert_eq!(m.reserve_task(0, 60, false), Grant::Deferred);
        // lanes are independent budgets
        assert_eq!(m.reserve_task(1, 60, false), Grant::Granted);
        m.release_task(0, 60);
        assert_eq!(m.reserve_task(0, 60, false), Grant::Granted);
        assert_eq!(m.stats().backpressure_waits, 1);
    }

    #[test]
    fn single_reservation_over_budget_is_too_large_even_forced_lane_is_empty() {
        let m = bounded(100);
        assert_eq!(m.reserve_task(0, 101, false), Grant::TooLarge);
        // force overrides crowding, never the too-large rule
        assert_eq!(m.reserve_task(0, 101, true), Grant::TooLarge);
        assert_eq!(m.reserve_task(0, 90, false), Grant::Granted);
        assert_eq!(m.reserve_task(0, 90, true), Grant::Granted);
        assert_eq!(m.lane_used(0), 180);
    }

    #[test]
    fn storage_charges_and_eviction_accounting_balance() {
        let m = bounded(100);
        assert!(m.try_charge(0, 80));
        assert!(!m.try_charge(0, 40));
        m.note_evict(0, 80);
        assert_eq!(m.lane_used(0), 0);
        assert!(m.try_charge(0, 40));
        m.note_evict(0, 40);
        let s = m.stats();
        assert_eq!(s.evicted_bytes, 120);
        assert_eq!(s.evictions, 2);
        assert_eq!(m.lane_used(0), 0);
    }

    #[test]
    fn task_ledger_conserves_reserved_and_released() {
        let m = bounded(100);
        assert_eq!(m.reserve_task(0, 60, false), Grant::Granted);
        assert_eq!(m.reserve_task(0, 60, false), Grant::Deferred, "deferred counts nothing");
        assert!(!m.reserve_task_quiet(0, 60), "quiet path refuses over budget");
        m.release_task(0, 60);
        assert!(m.reserve_task_quiet(0, 60), "quiet path charges when it fits");
        assert_eq!(m.reserve_task(1, 90, true), Grant::Granted, "forced grants count too");
        m.release_task(0, 60);
        m.release_task(1, 90);
        let s = m.stats();
        assert_eq!(s.task_reserved_bytes, 60 + 60 + 90);
        assert_eq!(s.task_released_bytes, s.task_reserved_bytes, "conservation at quiescence");
        // zero-byte reservations are free on both sides
        assert_eq!(m.reserve_task(0, 0, false), Grant::Granted);
        m.release_task(0, 0);
        assert_eq!(m.stats().task_reserved_bytes, 210);
        assert_eq!(m.stats().task_released_bytes, 210);
    }

    #[test]
    fn broadcast_is_metered_but_exempt() {
        let m = bounded(10);
        m.meter_broadcast(1_000_000);
        assert_eq!(m.stats().broadcast_bytes, 1_000_000);
        // the broadcast did not consume budget
        assert!(m.try_charge(0, 10));
    }
}
