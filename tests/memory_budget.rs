//! Memory-budgeted storage engine, end to end: a per-executor byte
//! budget must change *where bytes live* — evicted to lineage or held
//! back by scheduler backpressure — and never what the engine
//! computes. Labels, collected values and the event trace (modulo
//! zero-tick `MemoryAction` events) are byte-identical across budget
//! settings; the only typed failure is a single reservation larger
//! than the whole budget.

use scalable_dbscan::dbscan::SparkDbscan;
use scalable_dbscan::engine::{EventKind, MemOp};
use scalable_dbscan::prelude::*;
use std::sync::Arc;

const SEED: u64 = 7;

/// Small seeded workload, same recipe as the chaos harness.
fn dataset() -> (Arc<Dataset>, DbscanParams) {
    let mut spec = StandardDataset::C10k.scaled_spec(32);
    spec.params.seed = 1000 + SEED;
    let (data, _) = spec.generate();
    (Arc::new(data), DbscanParams::new(spec.eps, spec.min_pts).unwrap())
}

/// Per-lane sequence of memory actions, in trace order. Absolute
/// virtual timestamps may shift with worker-thread interleaving; the
/// per-lane *decision sequence* may not.
fn memory_actions_by_lane(
    events: &[scalable_dbscan::engine::TraceEvent],
) -> Vec<Vec<(usize, MemOp, u64)>> {
    let mut lanes: std::collections::BTreeMap<usize, Vec<(usize, MemOp, u64)>> =
        std::collections::BTreeMap::new();
    for e in events {
        if let EventKind::MemoryAction { op, lane, bytes } = e.kind {
            lanes.entry(lane).or_default().push((lane, op, bytes));
        }
    }
    lanes.into_values().collect()
}

// ---- eviction determinism --------------------------------------------

#[test]
fn eviction_order_is_deterministic_at_1_2_8_worker_threads() {
    // two cached RDDs per executor lane under a budget that holds only
    // one: every re-count evicts the other to lineage. The per-lane
    // eviction decision sequence is a pure function of the cache
    // operation sequence, so 1, 2 and 8 worker threads must produce
    // identical ledgers.
    let run = |threads: usize| {
        let mut cfg =
            ClusterConfig::local(2).with_tracing().with_seed(SEED).with_memory_budget(20_000);
        cfg.worker_threads = threads;
        let ctx = Context::new(cfg);

        let plain = ctx.parallelize((0..4000i64).collect(), 2).map(|x| x * 3).cache();
        let shifted = ctx.parallelize((0..4000i64).collect(), 2).map(|x| x + 7).cache();

        // alternate so the two RDDs keep displacing each other
        let mut sums = Vec::new();
        for _ in 0..3 {
            sums.push(plain.collect().expect("plain pass").iter().sum::<i64>());
            sums.push(shifted.collect().expect("shifted pass").iter().sum::<i64>());
        }
        let trace = ctx.trace().snapshot();
        (sums, memory_actions_by_lane(&trace.events), ctx.memory_stats())
    };

    let (sums1, lanes1, stats1) = run(1);
    let expect: i64 = (0..4000i64).map(|x| x * 3).sum();
    let expect_sh: i64 = (0..4000i64).map(|x| x + 7).sum();
    assert_eq!(sums1, vec![expect, expect_sh, expect, expect_sh, expect, expect_sh]);
    assert!(
        stats1.evictions > 0,
        "budget of one partition per lane must force eviction, got {stats1:?}"
    );

    for threads in [2usize, 8] {
        let (sums, lanes, stats) = run(threads);
        assert_eq!(sums, sums1, "collected values differ at {threads} worker threads");
        assert_eq!(lanes, lanes1, "per-lane memory ledger differs at {threads} worker threads");
        assert_eq!(stats, stats1, "memory stats differ at {threads} worker threads");
    }
}

// ---- typed out-of-memory ---------------------------------------------

#[test]
fn single_reservation_larger_than_the_budget_is_a_typed_error() {
    let ctx = Context::new(ClusterConfig::local(2).with_seed(SEED).with_memory_budget(1_000));
    // a task declaring a working set over the whole per-executor budget
    // can never be granted — typed error, not a hang or a panic
    let r = ctx.parallelize((0..100i64).collect(), 2).mem_hints(vec![500, 2_000]).collect();
    match r {
        Err(SparkError::OutOfMemory { requested, budget, .. }) => {
            assert_eq!(requested, 2_000);
            assert_eq!(budget, 1_000);
        }
        other => panic!("want SparkError::OutOfMemory, got {other:?}"),
    }
    // crowding alone must NOT raise it: four 900-byte tasks on two
    // lanes only backpressure
    let v = ctx
        .parallelize((0..100i64).collect(), 4)
        .mem_hints(vec![900; 4])
        .collect()
        .expect("crowded but feasible job");
    assert_eq!(v.len(), 100);
}

// ---- budget identity through the DBSCAN driver -----------------------

/// The largest task working-set reservation SparkDbscan declares on
/// `partitions` equal-count partitions (48 bytes per owned point).
fn max_task_hint(n: usize, partitions: usize) -> u64 {
    (n.div_ceil(partitions) * 48) as u64
}

#[test]
fn tight_budget_spark_dbscan_labels_and_trace_are_byte_identical() {
    let (data, params) = dataset();
    let partitions = 16; // 4 tasks per lane on local(4): reservations crowd

    // reference: unbounded, traced
    let clean_ctx = Context::new(ClusterConfig::local(4).with_tracing().with_seed(SEED));
    let reference =
        SparkDbscan::new(params).exact().partitions(partitions).run(&clean_ctx, Arc::clone(&data));
    let clean_trace = clean_ctx.trace().snapshot();
    // the ledger holds executor lanes only, so this is the largest
    // executor lane's high-water mark: its tasks' reservations at once
    let unbounded_peak = clean_ctx.memory_stats().max_lane_peak;
    assert!(unbounded_peak > 0, "unbounded runs still account task reservations");

    // budget = 25% of the unbounded per-lane peak, but never below the
    // largest task reservation: the lanes crowd, no task is too large
    let budget = (unbounded_peak / 4).max(max_task_hint(data.len(), partitions));
    let ctx = Context::new(
        ClusterConfig::local(4).with_tracing().with_seed(SEED).with_memory_budget(budget),
    );
    let out = SparkDbscan::new(params).exact().partitions(partitions).run(&ctx, Arc::clone(&data));
    let trace = ctx.trace().snapshot();

    assert_eq!(
        out.clustering.canonicalize().labels,
        reference.clustering.canonicalize().labels,
        "labels must be byte-identical under a 25% budget"
    );
    assert_eq!(
        trace.without_memory().events,
        clean_trace.events,
        "budgeted trace modulo MemoryAction events must equal the unbudgeted trace"
    );
    let stats = out.memory;
    assert!(stats.backpressure_waits > 0, "a 25% budget must defer crowded tasks: {stats:?}");
    assert!(
        stats.max_lane_peak <= budget,
        "accounted peak {} exceeds budget {budget}",
        stats.max_lane_peak
    );
    assert!(
        trace.events.iter().any(|e| matches!(e.kind, EventKind::MemoryAction { .. })),
        "bounded runs must record MemoryAction events"
    );
    assert!(
        !clean_trace.events.iter().any(|e| matches!(e.kind, EventKind::MemoryAction { .. })),
        "unbounded runs must record none"
    );
}

#[test]
fn resources_bundle_applies_budget_through_the_runner_facade() {
    let (data, params) = dataset();

    let clean_ctx = Context::new(ClusterConfig::local(4).with_seed(SEED));
    let clean = SparkDbscan::new(params)
        .exact()
        .run(&clean_ctx, Arc::clone(&data))
        .clustering
        .canonicalize();

    // the budget lives on the context, just above one task's
    // working-set reservation, so the run crowds but nothing is too
    // large to grant; a non-default resource bundle is set on the
    // runner before it is boxed
    let budget = max_task_hint(data.len(), 4) * 5 / 4;
    let ctx = Context::new(ClusterConfig::local(4).with_seed(SEED).with_memory_budget(budget));
    let res = Resources::new().with_build(BuildConfig::default().with_threads(2));
    let env = RunEnv::engine(&ctx);
    let runner: Box<dyn DbscanRunner> = Box::new(SparkDbscan::new(params).exact().resources(res));
    let out = runner.run_dbscan(&env, Arc::clone(&data)).expect("budgeted facade run");

    assert_eq!(out.clustering.canonicalize().labels, clean.labels);
    let stats = ctx.memory_stats();
    assert!(stats.peak_bytes > 0);
}
