//! Assert the tracing hot path is free when tracing is off.
//!
//! The task hot path calls [`TraceCollector::record`] for every
//! lifecycle/shuffle event; with tracing disabled that must cost one
//! relaxed atomic load and **zero heap allocations**, or the "tracing
//! is safe to leave compiled in" claim is false. A counting global
//! allocator measures exactly that; the binary exits non-zero on any
//! allocation. (Enabled-path counts are reported for context — ring
//! slots are preallocated, so steady-state recording should not
//! allocate either.)
//!
//! Usage:
//!   cargo run --release -p dbscan-bench --bin trace_overhead

use sparklet::trace::{EventKind, TaskScope, TraceCollector};
use sparklet::TraceConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ITERS: u64 = 100_000;

fn hammer(collector: &TraceCollector) -> u64 {
    let scope = TaskScope { stage: 0, partition: 3, attempt: 0, executor: 1 };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..ITERS {
        collector.record(Some(scope), EventKind::TaskStart);
        collector
            .record(Some(scope), EventKind::ShuffleWrite { shuffle: 0, records: i, bytes: i * 16 });
        collector.record(Some(scope), EventKind::TaskSuccess);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn main() {
    let disabled = TraceCollector::new(TraceConfig::default());
    assert!(!disabled.is_enabled());
    let disabled_allocs = hammer(&disabled);
    println!("disabled path: {disabled_allocs} allocations over {} record calls", 3 * ITERS);

    // warm the enabled collector once so lazy init (if any) is paid,
    // then measure its steady state against preallocated ring slots
    let enabled = TraceCollector::new(TraceConfig::enabled());
    hammer(&enabled);
    let enabled_allocs = hammer(&enabled);
    println!("enabled steady state: {enabled_allocs} allocations over {} record calls", 3 * ITERS);

    if disabled_allocs != 0 {
        eprintln!("FAIL: disabled tracing allocated {disabled_allocs} times on the hot path");
        std::process::exit(1);
    }
    if enabled_allocs != 0 {
        eprintln!("FAIL: enabled steady-state recording allocated {enabled_allocs} times");
        std::process::exit(1);
    }
    println!("OK: record() is allocation-free (disabled and enabled steady state)");
}
