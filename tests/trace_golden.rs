//! Golden trace determinism: the whole point of virtual timestamps is
//! that a seeded workload yields a byte-identical trace on every run,
//! no matter how the OS schedules the worker threads — even when fault
//! injection forces task retries.

use scalable_dbscan::dbscan::ShuffleDbscan;
use scalable_dbscan::engine::{
    chrome_trace_json, validate_chrome_trace, EventKind, FaultPlan, FaultRule, Trace,
};
use scalable_dbscan::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// One fresh context + traced 2-partition run with every task's first
/// attempt failing (injected), retried to success.
fn traced_run() -> Trace {
    let spec = StandardDataset::C10k.scaled_spec(64);
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let params = DbscanParams::new(spec.eps, spec.min_pts).unwrap();
    let cfg = ClusterConfig::local(2)
        .with_tracing()
        .with_fault(FaultPlan::tasks(FaultRule::always_first(1)))
        .with_max_attempts(3);
    let ctx = Context::new(cfg);
    let r = SparkDbscan::new(params).partitions(2).run(&ctx, Arc::clone(&data));
    assert!(r.job.failed_attempts() > 0, "fault injection must have fired");
    ctx.trace().snapshot()
}

#[test]
fn trace_is_byte_identical_across_runs() {
    let a = traced_run();
    let b = traced_run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "snapshots must match event for event");
    assert_eq!(chrome_trace_json(&a), chrome_trace_json(&b), "exports must match byte for byte");
}

#[test]
fn golden_trace_structure() {
    let t = traced_run();
    assert_eq!(t.dropped, 0, "workload must fit the default ring");

    // virtual timestamps never go backwards in canonical order per lane:
    // driver events are globally ordered by the driver clock
    let driver_ts: Vec<u64> = t.events.iter().filter(|e| e.scope.is_none()).map(|e| e.vt).collect();
    assert!(driver_ts.windows(2).all(|w| w[0] < w[1]), "driver clock strictly increases");

    // every partition's first attempt failed (injected) and was retried
    for part in 0..2usize {
        let failed = t.events.iter().any(|e| {
            matches!(e.kind, EventKind::TaskFailure { injected: true })
                && e.scope.is_some_and(|s| s.partition == part && s.attempt == 0)
        });
        let succeeded = t.events.iter().any(|e| {
            matches!(e.kind, EventKind::TaskSuccess)
                && e.scope.is_some_and(|s| s.partition == part && s.attempt == 1)
        });
        assert!(failed, "partition {part}: attempt 0 must fail (injected)");
        assert!(succeeded, "partition {part}: attempt 1 must succeed");
    }

    // the export round-trips the validator with monotone timestamps
    let summary = validate_chrome_trace(&chrome_trace_json(&t)).expect("valid chrome trace");
    assert!(summary.events > 0);
    for cat in ["job", "stage", "task", "broadcast", "phase"] {
        assert!(summary.count(cat) > 0, "missing {cat} events");
    }
}

/// One fresh traced exact-mode run at the given build thread count,
/// with a cutoff small enough that the build really decomposes into
/// several shards (and so emits several `BuildShard` events).
fn traced_threaded_run(threads: usize) -> Trace {
    let spec = StandardDataset::C10k.scaled_spec(64);
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let params = DbscanParams::new(spec.eps, spec.min_pts).unwrap();
    let ctx = Context::new(ClusterConfig::local(2).with_tracing());
    let r = SparkDbscan::new(params)
        .partitions(2)
        .exact()
        .resources(
            Resources::new()
                .with_build(BuildConfig::default().with_threads(threads).with_par_cutoff(64)),
        )
        .run(&ctx, Arc::clone(&data));
    assert!(r.build.shards.len() > 1, "cutoff must force a multi-shard build");
    ctx.trace().snapshot()
}

#[test]
fn trace_is_byte_identical_across_thread_counts() {
    // worker count is a pure performance knob: the shard decomposition,
    // the merge sub-phases and every virtual timestamp must come out
    // the same whether the build forks or not
    let serial = traced_threaded_run(1);
    for threads in [2, 8] {
        let par = traced_threaded_run(threads);
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "{threads}-thread snapshot differs from sequential"
        );
        assert_eq!(
            chrome_trace_json(&serial),
            chrome_trace_json(&par),
            "{threads}-thread export differs from sequential"
        );
    }
    // the parallelized phases actually show up in the export
    let json = chrome_trace_json(&serial);
    for needle in ["merge_extract", "merge_union", "build shard"] {
        assert!(json.contains(needle), "trace export must contain {needle:?} events");
    }
}

/// One fresh context + traced shuffle-baseline run where the first
/// fetch of every reduce task fails (injected), marking a map output
/// lost and forcing lineage recomputation of exactly that output.
fn traced_fetch_failure_run() -> (Trace, Vec<Label>) {
    let spec = StandardDataset::C10k.scaled_spec(64);
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let params = DbscanParams::new(spec.eps, spec.min_pts).unwrap();
    let cfg = ClusterConfig::local(2)
        .with_tracing()
        .with_fault(FaultPlan::none().with_fetch_failures(FaultRule::always_first(1)))
        .with_max_attempts(4)
        .with_seed(42);
    let ctx = Context::new(cfg);
    let r = ShuffleDbscan::new(params).partitions(2).run(&ctx, Arc::clone(&data)).unwrap();
    (ctx.trace().snapshot(), r.clustering.canonicalize().labels)
}

#[test]
fn fetch_failure_recovery_trace_is_byte_identical_across_runs() {
    let (ta, la) = traced_fetch_failure_run();
    let (tb, lb) = traced_fetch_failure_run();
    assert_eq!(la, lb, "recovered clustering must be deterministic");
    assert_eq!(format!("{ta:?}"), format!("{tb:?}"), "recovery trace snapshots must match");
    assert_eq!(
        chrome_trace_json(&ta),
        chrome_trace_json(&tb),
        "recovery trace exports must match byte for byte"
    );
}

#[test]
fn fetch_failure_recovery_trace_structure() {
    let (t, labels) = traced_fetch_failure_run();

    // fault injection must not change the answer: same clustering as a
    // clean run of the same workload
    let spec = StandardDataset::C10k.scaled_spec(64);
    let (data, _) = spec.generate();
    let params = DbscanParams::new(spec.eps, spec.min_pts).unwrap();
    let clean_ctx = Context::new(ClusterConfig::local(2));
    let clean = ShuffleDbscan::new(params).partitions(2).run(&clean_ctx, Arc::new(data)).unwrap();
    assert_eq!(labels, clean.clustering.canonicalize().labels);

    // lineage recomputation is surgical: the set of recomputed map
    // partitions equals the set marked lost — nothing more recomputed,
    // nothing lost left behind
    let lost: HashSet<(usize, usize)> = t
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MapOutputLost { shuffle, partition } => Some((shuffle, partition)),
            _ => None,
        })
        .collect();
    let recomputed: HashSet<(usize, usize)> = t
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MapOutputRecomputed { shuffle, partition } => Some((shuffle, partition)),
            _ => None,
        })
        .collect();
    assert!(!lost.is_empty(), "fetch faults must have marked map outputs lost");
    assert_eq!(lost, recomputed, "exactly the lost outputs are recomputed");

    // the driver recorded the recovery round with its virtual-time
    // backoff, and the export carries the recovery category
    assert!(
        t.events.iter().any(
            |e| matches!(e.kind, EventKind::StageRetry { backoff_ticks, .. } if backoff_ticks > 0)
        ),
        "stage retry with backoff must be traced"
    );
    let summary = validate_chrome_trace(&chrome_trace_json(&t)).expect("valid chrome trace");
    assert!(summary.count("recovery") > 0, "recovery events must export");
}
