//! Structured tracing: typed engine events on a virtual timeline.
//!
//! The paper's evaluation is an exercise in *attribution* — driver vs.
//! executor time (Fig. 6), shuffle volume, merge cost — and the
//! aggregate metrics in [`crate::metrics`] cannot answer "what happened
//! when" questions (which attempt failed, which stage a shuffle read
//! belongs to, where a DFS replica fallback occurred). This module adds
//! an event-level record:
//!
//! * **Collector** ([`TraceCollector`]): a lock-sharded, bounded
//!   ring-buffer sink. Recording an event is wait-short and allocates
//!   nothing — every [`EventKind`] is `Copy` and the rings are
//!   preallocated; when disabled, recording is a single relaxed atomic
//!   load. On overflow the oldest events are dropped and counted.
//! * **Virtual timestamps**: wall-clock times differ between runs, so
//!   raw events carry only *ordering* information (a driver-side epoch
//!   counter plus task identity). At [`TraceHandle::snapshot`] time the
//!   events are canonically ordered and replayed through
//!   [`crate::sim::VirtualScheduler`], producing a deterministic,
//!   seed-keyed logical timeline.
//! * **Exporters**: Chrome `chrome://tracing` JSON (one "process" per
//!   virtual executor, task attempts as duration events) and a compact
//!   per-stage ASCII timeline for terminals.

use crate::config::TraceConfig;
use crate::metrics::StageKind;
use crate::sim::{VirtualScheduler, FAIL_BASE_TICKS, TASK_BASE_TICKS};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of the task attempt an event occurred inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskScope {
    /// Stage of the attempt.
    pub stage: usize,
    /// Partition the attempt computes.
    pub partition: usize,
    /// Attempt number (0-based).
    pub attempt: usize,
    /// Virtual executor the attempt is bound to.
    pub executor: usize,
}

/// One traced engine event. All payloads are scalars or `&'static str`
/// so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An action was submitted to the scheduler.
    JobSubmit {
        /// Job id.
        job: usize,
    },
    /// A job finished successfully.
    JobEnd {
        /// Job id.
        job: usize,
        /// Stages the job ran (including reused-shuffle skips).
        stages: usize,
    },
    /// A stage's tasks were submitted.
    StageStart {
        /// Stage id.
        stage: usize,
        /// Shuffle-map or result stage.
        kind: StageKind,
        /// Tasks submitted.
        tasks: usize,
    },
    /// A stage completed (or aborted after retry exhaustion).
    StageEnd {
        /// Stage id.
        stage: usize,
        /// Failed attempts observed within the stage.
        failed_attempts: usize,
    },
    /// A task attempt began on a worker.
    TaskStart,
    /// A task attempt completed successfully.
    TaskSuccess,
    /// A task attempt failed.
    TaskFailure {
        /// Whether the failure was injected by the [`crate::FaultPlan`]
        /// (as opposed to a panic/error in task code).
        injected: bool,
    },
    /// A map task registered its shuffle output.
    ShuffleWrite {
        /// Shuffle id.
        shuffle: usize,
        /// Records written (post map-side combine).
        records: u64,
        /// Estimated bytes written.
        bytes: u64,
    },
    /// A reduce task fetched its shuffle bucket column.
    ShuffleRead {
        /// Shuffle id.
        shuffle: usize,
        /// Records read.
        records: u64,
        /// Estimated bytes read.
        bytes: u64,
    },
    /// The driver created a broadcast variable.
    BroadcastCreate {
        /// Broadcast id.
        id: usize,
        /// Logical bytes shipped (size hint × executors).
        bytes: u64,
    },
    /// A virtual executor was killed via [`crate::Context::kill_executor`].
    ExecutorKill {
        /// The killed executor.
        executor: usize,
        /// Cached partitions lost with it.
        cached_lost: usize,
        /// Shuffle map outputs lost with it.
        maps_lost: usize,
    },
    /// A DFS block was read (possibly inside a task).
    DfsBlockRead {
        /// Block id.
        block: u64,
        /// Block length in bytes.
        bytes: u64,
    },
    /// A DFS block read found dead replicas and fell back to survivors.
    DfsReplicaFallback {
        /// Block id.
        block: u64,
        /// Replicas found dead.
        lost: usize,
    },
    /// Start of a named algorithm phase (driver-side).
    PhaseStart {
        /// Phase name (e.g. `"kdtree_build"`).
        name: &'static str,
    },
    /// End of a named algorithm phase.
    PhaseEnd {
        /// Phase name.
        name: &'static str,
    },
    /// A shuffle map output was lost — to an injected fetch failure
    /// (recorded in the failing reduce task's scope) or an executor
    /// kill (recorded driver-side).
    MapOutputLost {
        /// Shuffle id.
        shuffle: usize,
        /// Map partition whose output was lost.
        partition: usize,
    },
    /// A previously-lost map output was recomputed from lineage
    /// (recorded in the recomputing map task's scope).
    MapOutputRecomputed {
        /// Shuffle id.
        shuffle: usize,
        /// Map partition that was recomputed.
        partition: usize,
    },
    /// The scheduler started a fetch-failure recovery round for a
    /// stage, after a virtual-time backoff.
    StageRetry {
        /// The stage whose tasks hit fetch failures.
        stage: usize,
        /// The shuffle whose outputs are being recomputed.
        shuffle: usize,
        /// Recovery round within the stage (1-based).
        retry: usize,
        /// Virtual driver ticks waited before this round.
        backoff_ticks: u64,
    },
    /// The driver planned one partition of a job (driver-side, emitted
    /// once per partition before the stage runs). Comparing
    /// `predicted_cost` against the partition's [`EventKind::TaskWork`]
    /// shows the planner's prediction quality in the same trace.
    PartitionPlan {
        /// Partition index.
        partition: usize,
        /// Points assigned to the partition.
        points: u64,
        /// Planner-estimated work units (point count when planning is
        /// count-based).
        predicted_cost: u64,
    },
    /// Work actually performed by a task, in planner work units
    /// (recorded in-task on completion; stretches the task's virtual
    /// timeline so skewed tasks are visibly longer in exports).
    TaskWork {
        /// Work units performed (e.g. neighbor queries issued).
        units: u64,
    },
    /// One sequential shard of a parallel driver-side bulk build
    /// (driver-side, emitted in shard order after the build so the
    /// trace stays byte-identical at every thread count — the payload
    /// carries only the thread-invariant decomposition, never wall
    /// times).
    BuildShard {
        /// Shard index in tree order.
        shard: usize,
        /// Points the shard covers.
        points: u64,
    },
    /// Spatial-kernel counters for one task (recorded in-task before
    /// completion). The counts are defined over *visited* leaves, so
    /// they are invariant across the scalar and lane-blocked layouts.
    /// The event consumes zero virtual ticks.
    TaskKernel {
        /// Leaf blocks scanned ((leaf, query) visits).
        blocks: u64,
        /// Rows belonging to the visited leaf blocks.
        rows: u64,
        /// Rows that passed the eps threshold.
        hits: u64,
        /// Scans cut short (report budget or count cap reached).
        early_exits: u64,
    },
}

impl EventKind {
    /// Coarse category, used by exporters and [`validate_chrome_trace`].
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::JobSubmit { .. } | EventKind::JobEnd { .. } => "job",
            EventKind::StageStart { .. } | EventKind::StageEnd { .. } => "stage",
            EventKind::TaskStart | EventKind::TaskSuccess | EventKind::TaskFailure { .. } => "task",
            EventKind::ShuffleWrite { .. } | EventKind::ShuffleRead { .. } => "shuffle",
            EventKind::BroadcastCreate { .. } => "broadcast",
            EventKind::ExecutorKill { .. } => "executor",
            EventKind::DfsBlockRead { .. } | EventKind::DfsReplicaFallback { .. } => "dfs",
            EventKind::PhaseStart { .. } | EventKind::PhaseEnd { .. } => "phase",
            EventKind::MapOutputLost { .. }
            | EventKind::MapOutputRecomputed { .. }
            | EventKind::StageRetry { .. } => "recovery",
            EventKind::PartitionPlan { .. } => "plan",
            EventKind::TaskWork { .. } => "task",
            EventKind::BuildShard { .. } => "phase",
            EventKind::TaskKernel { .. } => "kernel",
        }
    }

    /// Virtual ticks an *in-task* event advances its task's cursor by.
    /// Sized so that data-heavy events stretch the timeline visibly.
    /// Kernel counters advance nothing.
    fn in_task_ticks(&self) -> u64 {
        match self {
            EventKind::ShuffleWrite { bytes, .. } | EventKind::ShuffleRead { bytes, .. } => {
                1 + bytes / 256
            }
            EventKind::DfsBlockRead { bytes, .. } => 1 + bytes / 1024,
            EventKind::TaskWork { units } => 1 + units / 16,
            EventKind::TaskKernel { .. } => 0,
            _ => 1,
        }
    }
}

/// A recorded event before virtual-time assignment.
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    /// Global record sequence (deterministic only *within* one task
    /// attempt, where recording is single-threaded).
    seq: u64,
    /// Driver epoch for driver-side events; `u64::MAX` for task events
    /// (their order comes from `scope` + their stage's start epoch).
    epoch: u64,
    scope: Option<TaskScope>,
    kind: EventKind,
}

/// An event on the deterministic virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual timestamp (ticks; see [`crate::sim::VirtualScheduler`]).
    pub vt: u64,
    /// Task attempt the event occurred in, if any.
    pub scope: Option<TaskScope>,
    /// What happened.
    pub kind: EventKind,
}

/// A drained, canonically ordered trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Events in canonical order with virtual timestamps.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer overflow.
    pub dropped: u64,
}

const SHARDS: usize = 8;

/// Lock-sharded, bounded ring-buffer event sink.
///
/// Shared by the driver, every worker thread, the shuffle manager and
/// the DFS sink adapter. The hot path ([`TraceCollector::record`])
/// checks a single atomic when tracing is disabled and never allocates
/// when enabled (rings are preallocated; overflow drops the oldest
/// event and bumps a counter).
pub struct TraceCollector {
    enabled: AtomicBool,
    seq: AtomicU64,
    driver_epoch: AtomicU64,
    dropped: AtomicU64,
    shards: Vec<Mutex<VecDeque<RawEvent>>>,
    shard_cap: usize,
}

impl TraceCollector {
    /// Build per `config`. Capacity is split across the shards.
    pub fn new(config: TraceConfig) -> Self {
        let shard_cap = (config.capacity.max(SHARDS)).div_ceil(SHARDS);
        TraceCollector {
            enabled: AtomicBool::new(config.enabled),
            seq: AtomicU64::new(0),
            driver_epoch: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::with_capacity(shard_cap))).collect(),
            shard_cap,
        }
    }

    /// A disabled collector (records nothing), for components that need
    /// a collector but run outside a traced [`crate::Context`].
    pub fn disabled() -> Arc<Self> {
        Arc::new(TraceCollector::new(TraceConfig::default()))
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Events lost to overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one event. No-op (one atomic load) when disabled.
    pub fn record(&self, scope: Option<TaskScope>, kind: EventKind) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let epoch = match scope {
            None => self.driver_epoch.fetch_add(1, Ordering::Relaxed),
            Some(_) => u64::MAX,
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.shards[seq as usize % SHARDS].lock();
        if ring.len() >= self.shard_cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(RawEvent { seq, epoch, scope, kind });
    }

    /// Record a driver-side event (no task scope).
    pub fn record_driver(&self, kind: EventKind) {
        self.record(None, kind);
    }

    /// Record with the current thread's task scope if inside a task,
    /// as a driver event otherwise. Used by sinks (shuffle, DFS) that
    /// can be reached from either side.
    pub fn record_auto(&self, kind: EventKind) {
        self.record(task_scope(), kind);
    }

    /// Drain a canonically ordered, virtually timestamped snapshot.
    /// The collector keeps its events (snapshots are repeatable).
    pub fn snapshot(&self) -> Trace {
        let mut raw: Vec<RawEvent> = Vec::new();
        for shard in &self.shards {
            raw.extend(shard.lock().iter().copied());
        }
        // Task events inherit the epoch of their stage's StageStart, so
        // they order between that and the next driver event.
        let mut stage_epoch: HashMap<usize, u64> = HashMap::new();
        for e in &raw {
            if let EventKind::StageStart { stage, .. } = e.kind {
                stage_epoch.insert(stage, e.epoch);
            }
        }
        // Canonical key: driver events by their epoch; task events by
        // (stage epoch, partition, attempt) — all deterministic for a
        // fixed seed — with the raw sequence as a within-attempt
        // tiebreaker (single-threaded there, hence deterministic too).
        let key = |e: &RawEvent| match e.scope {
            None => (e.epoch, 0u8, 0usize, 0usize, e.seq),
            Some(s) => (
                stage_epoch.get(&s.stage).copied().unwrap_or(u64::MAX),
                1u8,
                s.partition,
                s.attempt,
                e.seq,
            ),
        };
        raw.sort_by_key(key);

        let mut vs = VirtualScheduler::new();
        let mut stage_vt: HashMap<usize, u64> = HashMap::new();
        let mut stage_max_end: HashMap<usize, u64> = HashMap::new();
        let mut cursor = 0u64;
        let mut events = Vec::with_capacity(raw.len());
        for e in &raw {
            let vt = match (e.scope, e.kind) {
                (None, EventKind::StageEnd { stage, .. }) => {
                    vs.driver_join(stage_max_end.get(&stage).copied().unwrap_or(0))
                }
                (None, EventKind::StageRetry { backoff_ticks, .. }) => {
                    // recovery rounds wait out an exponential backoff on
                    // the virtual driver clock
                    vs.driver_backoff(backoff_ticks)
                }
                // kernel counters never advance the driver clock
                (None, EventKind::TaskKernel { .. }) => vs.now(),
                (None, kind) => {
                    let t = vs.driver_tick();
                    if let EventKind::StageStart { stage, .. } = kind {
                        stage_vt.insert(stage, t);
                    }
                    t
                }
                (Some(s), EventKind::TaskStart) => {
                    let barrier = stage_vt.get(&s.stage).copied().unwrap_or(vs.now()) + 1;
                    cursor = vs.task_start(s.executor, barrier);
                    cursor
                }
                (Some(s), EventKind::TaskSuccess) => {
                    cursor += TASK_BASE_TICKS;
                    vs.task_end(s.executor, cursor);
                    let m = stage_max_end.entry(s.stage).or_insert(0);
                    *m = (*m).max(cursor);
                    cursor
                }
                (Some(s), EventKind::TaskFailure { .. }) => {
                    cursor += FAIL_BASE_TICKS;
                    vs.task_end(s.executor, cursor);
                    let m = stage_max_end.entry(s.stage).or_insert(0);
                    *m = (*m).max(cursor);
                    cursor
                }
                (Some(_), kind) => {
                    cursor += kind.in_task_ticks();
                    cursor
                }
            };
            events.push(TraceEvent { vt, scope: e.scope, kind: e.kind });
        }
        Trace { events, dropped: self.dropped() }
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new(TraceConfig::default())
    }
}

thread_local! {
    /// Scope of the task attempt running on this thread, if any.
    static TRACE_SCOPE: Cell<Option<TaskScope>> = const { Cell::new(None) };
}

/// Install (or clear) the current thread's task scope. Set by workers
/// around each attempt so sinks can attribute events.
pub(crate) fn set_task_scope(scope: Option<TaskScope>) {
    TRACE_SCOPE.with(|c| c.set(scope));
}

/// The current thread's task scope, if inside a task attempt.
pub(crate) fn task_scope() -> Option<TaskScope> {
    TRACE_SCOPE.with(|c| c.get())
}

/// Cheap, cloneable user-facing handle to a context's collector.
#[derive(Clone)]
pub struct TraceHandle {
    collector: Arc<TraceCollector>,
}

impl TraceHandle {
    pub(crate) fn new(collector: Arc<TraceCollector>) -> Self {
        TraceHandle { collector }
    }

    /// Whether tracing is enabled for this context.
    pub fn enabled(&self) -> bool {
        self.collector.is_enabled()
    }

    /// Events lost to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.collector.dropped()
    }

    /// Mark the start of a named driver-side algorithm phase.
    pub fn phase_start(&self, name: &'static str) {
        self.collector.record_driver(EventKind::PhaseStart { name });
    }

    /// Mark the end of a named driver-side algorithm phase.
    pub fn phase_end(&self, name: &'static str) {
        self.collector.record_driver(EventKind::PhaseEnd { name });
    }

    /// Record the driver's plan for one partition of an upcoming stage
    /// (point count plus predicted work units).
    pub fn plan_partition(&self, partition: usize, points: u64, predicted_cost: u64) {
        self.collector.record_driver(EventKind::PartitionPlan {
            partition,
            points,
            predicted_cost,
        });
    }

    /// Record work units actually performed by the calling task (or the
    /// driver, outside a task scope). Advances the task's virtual-time
    /// cursor proportionally, so heavy tasks are visibly longer in
    /// exported timelines.
    pub fn task_work(&self, units: u64) {
        self.collector.record_auto(EventKind::TaskWork { units });
    }

    /// Record the calling task's spatial-kernel counters (zero virtual
    /// ticks; see [`EventKind::TaskKernel`]).
    pub fn task_kernel(&self, blocks: u64, rows: u64, hits: u64, early_exits: u64) {
        self.collector.record_auto(EventKind::TaskKernel { blocks, rows, hits, early_exits });
    }

    /// Record one shard of a parallel driver-side bulk build (e.g. a
    /// sequential kd-subtree). Call in shard order after the build.
    pub fn build_shard(&self, shard: usize, points: u64) {
        self.collector.record_driver(EventKind::BuildShard { shard, points });
    }

    /// Drain a canonically ordered, virtually timestamped snapshot.
    pub fn snapshot(&self) -> Trace {
        self.collector.snapshot()
    }

    /// Export the current snapshot as Chrome `chrome://tracing` JSON.
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.snapshot())
    }

    /// Render the current snapshot as a per-stage ASCII timeline.
    pub fn ascii_timeline(&self) -> String {
        ascii_timeline(&self.snapshot())
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.enabled())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Adapter installing a collector as a [`minidfs::BlockEventSink`], so
/// DFS block reads and replica fallbacks appear in the trace attributed
/// to the task (or driver) that triggered them.
pub(crate) struct DfsTraceSink {
    pub(crate) tracer: Arc<TraceCollector>,
}

impl minidfs::BlockEventSink for DfsTraceSink {
    fn block_read(&self, block: minidfs::BlockId, bytes: usize) {
        self.tracer.record_auto(EventKind::DfsBlockRead { block: block.0, bytes: bytes as u64 });
    }

    fn replica_fallback(&self, block: minidfs::BlockId, lost: usize) {
        self.tracer.record_auto(EventKind::DfsReplicaFallback { block: block.0, lost });
    }
}

// ---- Chrome trace exporter ---------------------------------------------

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn stage_kind_name(kind: StageKind) -> &'static str {
    match kind {
        StageKind::ShuffleMap => "shuffle-map",
        StageKind::Result => "result",
    }
}

/// Pid/tid placement: the driver is process 0; each virtual executor is
/// its own process (`executor + 1`) with one thread row per partition.
fn placement(scope: Option<TaskScope>) -> (u64, u64) {
    match scope {
        None => (0, 0),
        Some(s) => (s.executor as u64 + 1, s.partition as u64),
    }
}

/// Serialize a snapshot in the Chrome trace-event format. Duration
/// ("X") events are built for jobs, stages, phases and task attempts;
/// point-in-time events (shuffle, broadcast, DFS, kills) become instant
/// ("i") events. Output events are sorted by timestamp, so a valid
/// trace has monotone non-decreasing `ts`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    type Entries = Vec<(u64, usize, String)>;
    fn push(entries: &mut Entries, order: &mut usize, ts: u64, body: String) {
        entries.push((ts, *order, body));
        *order += 1;
    }
    #[allow(clippy::too_many_arguments)]
    fn complete(
        entries: &mut Entries,
        order: &mut usize,
        name: &str,
        cat: &str,
        ts: u64,
        dur: u64,
        pid: u64,
        tid: u64,
        args: &str,
    ) {
        push(
            entries,
            order,
            ts,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                json_escape(name),
                json_escape(cat),
                ts,
                dur,
                pid,
                tid,
                args
            ),
        );
    }

    let mut entries: Entries = Vec::new();
    let mut order = 0usize;
    let mut job_open: HashMap<usize, u64> = HashMap::new();
    let mut stage_open: HashMap<usize, (u64, StageKind, usize)> = HashMap::new();
    let mut phase_open: HashMap<&'static str, Vec<u64>> = HashMap::new();
    let mut task_open: HashMap<(usize, usize, usize), (u64, usize)> = HashMap::new();
    let mut executors: BTreeMap<u64, ()> = BTreeMap::new();
    let last_vt = trace.events.last().map(|e| e.vt).unwrap_or(0);

    for e in &trace.events {
        if let Some(s) = e.scope {
            executors.insert(s.executor as u64 + 1, ());
        }
        let (pid, tid) = placement(e.scope);
        match e.kind {
            EventKind::JobSubmit { job } => {
                job_open.insert(job, e.vt);
            }
            EventKind::JobEnd { job, stages } => {
                let start = job_open.remove(&job).unwrap_or(e.vt);
                complete(
                    &mut entries,
                    &mut order,
                    &format!("job {job}"),
                    "job",
                    start,
                    e.vt - start,
                    0,
                    0,
                    &format!("\"job\":{job},\"stages\":{stages}"),
                );
            }
            EventKind::StageStart { stage, kind, tasks } => {
                stage_open.insert(stage, (e.vt, kind, tasks));
            }
            EventKind::StageEnd { stage, failed_attempts } => {
                let (start, kind, tasks) =
                    stage_open.remove(&stage).unwrap_or((e.vt, StageKind::Result, 0));
                complete(
                    &mut entries,
                    &mut order,
                    &format!("stage {stage} ({})", stage_kind_name(kind)),
                    "stage",
                    start,
                    e.vt - start,
                    0,
                    1,
                    &format!(
                        "\"stage\":{stage},\"tasks\":{tasks},\"failed_attempts\":{failed_attempts}"
                    ),
                );
            }
            EventKind::PhaseStart { name } => {
                phase_open.entry(name).or_default().push(e.vt);
            }
            EventKind::PhaseEnd { name } => {
                let start = phase_open.get_mut(name).and_then(Vec::pop).unwrap_or(e.vt);
                complete(
                    &mut entries,
                    &mut order,
                    name,
                    "phase",
                    start,
                    e.vt - start,
                    0,
                    2,
                    "",
                );
            }
            EventKind::TaskStart => {
                if let Some(s) = e.scope {
                    task_open.insert((s.stage, s.partition, s.attempt), (e.vt, s.executor));
                }
            }
            EventKind::TaskSuccess | EventKind::TaskFailure { .. } => {
                if let Some(s) = e.scope {
                    let (start, _) = task_open
                        .remove(&(s.stage, s.partition, s.attempt))
                        .unwrap_or((e.vt, s.executor));
                    let (status, injected) = match e.kind {
                        EventKind::TaskFailure { injected } => ("failed", injected),
                        _ => ("ok", false),
                    };
                    complete(
                        &mut entries,
                        &mut order,
                        &format!("task s{}p{} a{}", s.stage, s.partition, s.attempt),
                        "task",
                        start,
                        e.vt - start,
                        pid,
                        tid,
                        &format!(
                            "\"stage\":{},\"partition\":{},\"attempt\":{},\"status\":\"{}\",\"injected\":{}",
                            s.stage, s.partition, s.attempt, status, injected
                        ),
                    );
                }
            }
            EventKind::ShuffleWrite { shuffle, records, bytes } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("shuffle write", "shuffle", e.vt, pid, tid,
                    &format!("\"shuffle\":{shuffle},\"records\":{records},\"bytes\":{bytes}")),
            ),
            EventKind::ShuffleRead { shuffle, records, bytes } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("shuffle read", "shuffle", e.vt, pid, tid,
                    &format!("\"shuffle\":{shuffle},\"records\":{records},\"bytes\":{bytes}")),
            ),
            EventKind::BroadcastCreate { id, bytes } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("broadcast", "broadcast", e.vt, pid, tid,
                    &format!("\"id\":{id},\"bytes\":{bytes}")),
            ),
            EventKind::ExecutorKill { executor, cached_lost, maps_lost } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("executor kill", "executor", e.vt, pid, tid,
                    &format!(
                        "\"executor\":{executor},\"cached_lost\":{cached_lost},\"maps_lost\":{maps_lost}"
                    )),
            ),
            EventKind::DfsBlockRead { block, bytes } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("dfs block read", "dfs", e.vt, pid, tid,
                    &format!("\"block\":{block},\"bytes\":{bytes}")),
            ),
            EventKind::DfsReplicaFallback { block, lost } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("dfs replica fallback", "dfs", e.vt, pid, tid,
                    &format!("\"block\":{block},\"lost\":{lost}")),
            ),
            EventKind::MapOutputLost { shuffle, partition } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("map output lost", "recovery", e.vt, pid, tid,
                    &format!("\"shuffle\":{shuffle},\"partition\":{partition}")),
            ),
            EventKind::MapOutputRecomputed { shuffle, partition } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("map output recomputed", "recovery", e.vt, pid, tid,
                    &format!("\"shuffle\":{shuffle},\"partition\":{partition}")),
            ),
            EventKind::StageRetry { stage, shuffle, retry, backoff_ticks } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("stage retry", "recovery", e.vt, pid, tid,
                    &format!(
                        "\"stage\":{stage},\"shuffle\":{shuffle},\"retry\":{retry},\"backoff_ticks\":{backoff_ticks}"
                    )),
            ),
            EventKind::PartitionPlan { partition, points, predicted_cost } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("partition plan", "plan", e.vt, pid, tid,
                    &format!(
                        "\"partition\":{partition},\"points\":{points},\"predicted_cost\":{predicted_cost}"
                    )),
            ),
            EventKind::TaskWork { units } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("task work", "task", e.vt, pid, tid,
                    &format!("\"units\":{units}")),
            ),
            EventKind::BuildShard { shard, points } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("build shard", "phase", e.vt, pid, tid,
                    &format!("\"shard\":{shard},\"points\":{points}")),
            ),
            EventKind::TaskKernel { blocks, rows, hits, early_exits } => push(
                &mut entries,
                &mut order,
                e.vt,
                instant("task kernel", "kernel", e.vt, pid, tid,
                    &format!(
                        "\"blocks\":{blocks},\"rows\":{rows},\"hits\":{hits},\"early_exits\":{early_exits}"
                    )),
            ),
        }
    }

    // Close anything left open (aborted stages, unended phases) so the
    // exported file is still well-formed. Sorted: HashMap iteration
    // order must not leak into the (deterministic) output.
    let mut job_open: Vec<_> = job_open.into_iter().collect();
    job_open.sort_unstable();
    let mut stage_open: Vec<_> = stage_open.into_iter().collect();
    stage_open.sort_unstable_by_key(|(stage, _)| *stage);
    let mut phase_open: Vec<_> = phase_open.into_iter().collect();
    phase_open.sort_unstable_by_key(|(name, _)| *name);
    let mut task_open: Vec<_> = task_open.into_iter().collect();
    task_open.sort_unstable_by_key(|(k, _)| *k);
    for (job, start) in job_open {
        complete(
            &mut entries,
            &mut order,
            &format!("job {job}"),
            "job",
            start,
            last_vt.saturating_sub(start),
            0,
            0,
            &format!("\"job\":{job},\"stages\":0"),
        );
    }
    for (stage, (start, kind, tasks)) in stage_open {
        complete(
            &mut entries,
            &mut order,
            &format!("stage {stage} ({})", stage_kind_name(kind)),
            "stage",
            start,
            last_vt.saturating_sub(start),
            0,
            1,
            &format!("\"stage\":{stage},\"tasks\":{tasks},\"failed_attempts\":0"),
        );
    }
    for (name, starts) in phase_open {
        for start in starts {
            complete(
                &mut entries,
                &mut order,
                name,
                "phase",
                start,
                last_vt.saturating_sub(start),
                0,
                2,
                "",
            );
        }
    }
    for ((stage, partition, attempt), (start, executor)) in task_open {
        complete(&mut entries, &mut order,
            &format!("task s{stage}p{partition} a{attempt}"), "task", start,
            last_vt.saturating_sub(start), executor as u64 + 1, partition as u64,
            &format!(
                "\"stage\":{stage},\"partition\":{partition},\"attempt\":{attempt},\"status\":\"open\",\"injected\":false"
            ));
    }

    entries.sort_by_key(|(ts, ord, _)| (*ts, *ord));

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    // process-name metadata rows first
    let meta = |out: &mut String, first: &mut bool, pid: u64, name: &str| {
        if !*first {
            out.push(',');
        }
        *first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            pid,
            json_escape(name)
        );
    };
    meta(&mut out, &mut first, 0, "driver");
    for pid in executors.keys() {
        meta(&mut out, &mut first, *pid, &format!("executor {}", pid - 1));
    }
    for (_, _, body) in &entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(body);
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
        trace.dropped
    );
    out
}

fn instant(name: &str, cat: &str, ts: u64, pid: u64, tid: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\",\"args\":{{{}}}}}",
        json_escape(name),
        json_escape(cat),
        ts,
        pid,
        tid,
        args
    )
}

// ---- validator ---------------------------------------------------------

/// What [`validate_chrome_trace`] learned about a trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Non-metadata events in the file.
    pub events: usize,
    /// Events per [`EventKind::category`] (`cat` field), sorted by name.
    pub categories: Vec<(String, usize)>,
    /// Largest timestamp seen.
    pub max_ts: u64,
}

impl TraceSummary {
    /// Events in `cat`.
    pub fn count(&self, cat: &str) -> usize {
        self.categories.iter().find(|(c, _)| c == cat).map(|(_, n)| *n).unwrap_or(0)
    }
}

/// Parse and validate a Chrome trace JSON file: it must parse, every
/// non-metadata event must carry `name`/`ph`/`ts`/`pid`/`tid`, and
/// timestamps must be monotone non-decreasing in file order.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    use serde::Value;
    let root = serde_json::parse(json).map_err(|e| format!("trace does not parse: {e}"))?;
    let events = match root.field("traceEvents") {
        Ok(Value::Array(items)) => items,
        Ok(other) => return Err(format!("traceEvents is {}, not an array", other.kind())),
        Err(e) => return Err(e.to_string()),
    };
    let mut summary = TraceSummary::default();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut last_ts = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.field("ph") {
            Ok(Value::String(s)) => s.clone(),
            _ => return Err(format!("event {i} has no ph")),
        };
        ev.field("name").map_err(|_| format!("event {i} has no name"))?;
        ev.field("pid").map_err(|_| format!("event {i} has no pid"))?;
        ev.field("tid").map_err(|_| format!("event {i} has no tid"))?;
        if ph == "M" {
            continue;
        }
        let ts = match ev.field("ts") {
            Ok(Value::Int(n)) if *n >= 0 => *n as u64,
            _ => return Err(format!("event {i} has no integer ts")),
        };
        if ts < last_ts {
            return Err(format!("event {i}: ts {ts} < previous {last_ts} (not monotone)"));
        }
        last_ts = ts;
        summary.events += 1;
        summary.max_ts = summary.max_ts.max(ts);
        if let Ok(Value::String(cat)) = ev.field("cat") {
            *counts.entry(cat.clone()).or_insert(0) += 1;
        }
    }
    summary.categories = counts.into_iter().collect();
    Ok(summary)
}

// ---- ASCII timeline ----------------------------------------------------

/// Render a compact per-stage timeline: one header row per stage and
/// one bar row per task attempt, scaled to the stage's virtual span.
pub fn ascii_timeline(trace: &Trace) -> String {
    const WIDTH: u64 = 40;
    struct Attempt {
        scope: TaskScope,
        start: u64,
        end: u64,
        status: &'static str,
    }
    struct Stage {
        id: usize,
        kind: StageKind,
        start: u64,
        end: u64,
        failed: usize,
        attempts: Vec<Attempt>,
    }
    let mut stages: Vec<Stage> = Vec::new();
    let mut open: HashMap<(usize, usize, usize), u64> = HashMap::new();
    for e in &trace.events {
        match (e.scope, e.kind) {
            (None, EventKind::StageStart { stage, kind, .. }) => stages.push(Stage {
                id: stage,
                kind,
                start: e.vt,
                end: e.vt,
                failed: 0,
                attempts: Vec::new(),
            }),
            (None, EventKind::StageEnd { stage, failed_attempts }) => {
                if let Some(st) = stages.iter_mut().rev().find(|s| s.id == stage) {
                    st.end = e.vt;
                    st.failed = failed_attempts;
                }
            }
            (Some(s), EventKind::TaskStart) => {
                open.insert((s.stage, s.partition, s.attempt), e.vt);
            }
            (Some(s), EventKind::TaskSuccess) | (Some(s), EventKind::TaskFailure { .. }) => {
                let start = open.remove(&(s.stage, s.partition, s.attempt)).unwrap_or(e.vt);
                let status = match e.kind {
                    EventKind::TaskFailure { injected: true } => "fail(injected)",
                    EventKind::TaskFailure { injected: false } => "fail",
                    _ => "ok",
                };
                if let Some(st) = stages.iter_mut().rev().find(|st| st.id == s.stage) {
                    st.attempts.push(Attempt { scope: s, start, end: e.vt, status });
                }
            }
            _ => {}
        }
    }
    let mut out = String::new();
    for st in &stages {
        let span = (st.end.saturating_sub(st.start)).max(1);
        let _ = writeln!(
            out,
            "stage {:>3} {:<11} vt {:>6}..{:<6} tasks={} failed={}",
            st.id,
            stage_kind_name(st.kind),
            st.start,
            st.end,
            st.attempts.iter().filter(|a| a.status == "ok").count(),
            st.failed
        );
        for a in &st.attempts {
            let lead = ((a.start.saturating_sub(st.start)) * WIDTH / span).min(WIDTH);
            let fill = (((a.end.saturating_sub(st.start)) * WIDTH / span).min(WIDTH)).max(lead + 1);
            let mut bar = String::with_capacity(WIDTH as usize + 2);
            for i in 0..WIDTH.max(fill) {
                bar.push(if i >= lead && i < fill { '#' } else { '.' });
            }
            let _ = writeln!(
                out,
                "  p{:<3} a{} e{:<3} |{}| {:>6}..{:<6} {}",
                a.scope.partition, a.scope.attempt, a.scope.executor, bar, a.start, a.end, a.status
            );
        }
    }
    if trace.dropped > 0 {
        let _ = writeln!(out, "({} events dropped by ring overflow)", trace.dropped);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(stage: usize, partition: usize, attempt: usize) -> TaskScope {
        TaskScope { stage, partition, attempt, executor: partition % 2 }
    }

    fn enabled_collector(capacity: usize) -> TraceCollector {
        TraceCollector::new(TraceConfig { enabled: true, capacity })
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = TraceCollector::disabled();
        c.record_driver(EventKind::JobSubmit { job: 0 });
        c.record(Some(scope(0, 0, 0)), EventKind::TaskStart);
        assert!(c.snapshot().events.is_empty());
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        // capacity 8 with 8 shards -> 1 slot per shard
        let c = enabled_collector(8);
        for job in 0..20 {
            c.record_driver(EventKind::JobSubmit { job });
        }
        assert_eq!(c.dropped(), 12, "20 events into capacity 8");
        let t = c.snapshot();
        assert_eq!(t.dropped, 12);
        assert_eq!(t.events.len(), 8);
        // the *newest* events survive: jobs 12..20
        let jobs: Vec<usize> = t
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::JobSubmit { job } => job,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(jobs, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_orders_task_events_within_their_stage() {
        let c = enabled_collector(1024);
        c.record_driver(EventKind::JobSubmit { job: 0 });
        c.record_driver(EventKind::StageStart { stage: 0, kind: StageKind::Result, tasks: 2 });
        // record task events "out of order" (as racing workers would)
        let s1 = scope(0, 1, 0);
        let s0 = scope(0, 0, 0);
        c.record(Some(s1), EventKind::TaskStart);
        c.record(Some(s0), EventKind::TaskStart);
        c.record(Some(s1), EventKind::TaskSuccess);
        c.record(Some(s0), EventKind::TaskSuccess);
        c.record_driver(EventKind::StageEnd { stage: 0, failed_attempts: 0 });
        c.record_driver(EventKind::JobEnd { job: 0, stages: 1 });
        let t = c.snapshot();
        let kinds: Vec<&'static str> = t.events.iter().map(|e| e.kind.category()).collect();
        assert_eq!(kinds, vec!["job", "stage", "task", "task", "task", "task", "stage", "job"]);
        // canonical order sorts partition 0 before partition 1
        assert_eq!(t.events[2].scope, Some(s0));
        assert_eq!(t.events[3].kind, EventKind::TaskSuccess);
        assert_eq!(t.events[4].scope, Some(s1));
        assert!(matches!(t.events[6].kind, EventKind::StageEnd { .. }));
        // timestamps never precede the stage start
        let stage_vt = t.events[1].vt;
        assert!(t.events[2..6].iter().all(|e| e.vt > stage_vt));
        // stage end joins past the slowest task
        let max_task = t.events[2..6].iter().map(|e| e.vt).max().unwrap();
        assert!(t.events[6].vt > max_task);
    }

    #[test]
    fn snapshot_is_deterministic_for_same_inputs() {
        let build = || {
            let c = enabled_collector(1024);
            c.record_driver(EventKind::StageStart { stage: 7, kind: StageKind::Result, tasks: 1 });
            let s = scope(7, 0, 0);
            c.record(Some(s), EventKind::TaskStart);
            c.record(Some(s), EventKind::ShuffleWrite { shuffle: 0, records: 10, bytes: 1000 });
            c.record(Some(s), EventKind::TaskSuccess);
            c.record_driver(EventKind::StageEnd { stage: 7, failed_attempts: 0 });
            format!("{:?}", c.snapshot())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("back\\slash"), "back\\\\slash");
        assert_eq!(json_escape("line\nbreak\ttab\rret"), "line\\nbreak\\ttab\\rret");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("ünïcödé ok"), "ünïcödé ok");
    }

    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        let nasty = "q\"uote \\ back\nnew\tline\u{7}bell";
        let json = format!("{{\"s\":\"{}\"}}", json_escape(nasty));
        let v = serde_json::parse(&json).expect("escaped JSON parses");
        match v.field("s").unwrap() {
            serde::Value::String(s) => assert_eq!(s, nasty),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn chrome_export_round_trips_through_validator() {
        let c = enabled_collector(4096);
        c.record_driver(EventKind::JobSubmit { job: 0 });
        c.record_driver(EventKind::BroadcastCreate { id: 0, bytes: 64 });
        c.record_driver(EventKind::StageStart { stage: 0, kind: StageKind::ShuffleMap, tasks: 2 });
        for p in 0..2usize {
            let s = scope(0, p, 0);
            c.record(Some(s), EventKind::TaskStart);
            c.record(Some(s), EventKind::ShuffleWrite { shuffle: 0, records: 4, bytes: 64 });
            c.record(Some(s), EventKind::TaskSuccess);
        }
        c.record_driver(EventKind::StageEnd { stage: 0, failed_attempts: 0 });
        c.record_driver(EventKind::JobEnd { job: 0, stages: 1 });
        let json = chrome_trace_json(&c.snapshot());
        let summary = validate_chrome_trace(&json).expect("exported trace validates");
        assert_eq!(summary.count("job"), 1);
        assert_eq!(summary.count("stage"), 1);
        assert_eq!(summary.count("task"), 2);
        assert_eq!(summary.count("shuffle"), 2);
        assert_eq!(summary.count("broadcast"), 1);
    }

    #[test]
    fn task_kernel_events_consume_zero_ticks_and_strip_cleanly() {
        let build = |with_kernel: bool| {
            let c = enabled_collector(1024);
            c.record_driver(EventKind::StageStart { stage: 0, kind: StageKind::Result, tasks: 1 });
            let s = scope(0, 0, 0);
            c.record(Some(s), EventKind::TaskStart);
            c.record(Some(s), EventKind::TaskWork { units: 64 });
            if with_kernel {
                c.record(
                    Some(s),
                    EventKind::TaskKernel { blocks: 3, rows: 90, hits: 12, early_exits: 1 },
                );
            }
            c.record(Some(s), EventKind::TaskSuccess);
            c.record_driver(EventKind::StageEnd { stage: 0, failed_attempts: 0 });
            c.snapshot()
        };
        let with = build(true);
        let without = build(false);
        // zero in-task ticks: stripping the kernel event reproduces the
        // kernel-free trace byte for byte
        let stripped = Trace {
            events: with
                .events
                .iter()
                .filter(|e| !matches!(e.kind, EventKind::TaskKernel { .. }))
                .copied()
                .collect(),
            dropped: with.dropped,
        };
        assert_eq!(format!("{stripped:?}"), format!("{without:?}"));
        // and the event itself round-trips through the chrome exporter
        let json = chrome_trace_json(&with);
        let summary = validate_chrome_trace(&json).expect("trace with kernel event validates");
        assert_eq!(summary.count("kernel"), 1);
        assert!(json.contains("\"early_exits\":1"));
    }

    #[test]
    fn validator_rejects_non_monotone_ts() {
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"x","ph":"i","ts":5,"pid":0,"tid":0,"s":"t","args":{}},
            {"name":"b","cat":"x","ph":"i","ts":4,"pid":0,"tid":0,"s":"t","args":{}}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":7}").is_err());
    }

    #[test]
    fn failed_then_retried_attempt_appears_twice() {
        let c = enabled_collector(1024);
        c.record_driver(EventKind::StageStart { stage: 0, kind: StageKind::Result, tasks: 1 });
        let a0 = scope(0, 0, 0);
        let a1 = scope(0, 0, 1);
        c.record(Some(a0), EventKind::TaskStart);
        c.record(Some(a0), EventKind::TaskFailure { injected: true });
        c.record(Some(a1), EventKind::TaskStart);
        c.record(Some(a1), EventKind::TaskSuccess);
        c.record_driver(EventKind::StageEnd { stage: 0, failed_attempts: 1 });
        let t = c.snapshot();
        // attempt 1 starts after attempt 0 ends (same executor lane)
        let fail_vt =
            t.events.iter().find(|e| matches!(e.kind, EventKind::TaskFailure { .. })).unwrap().vt;
        let retry_start = t
            .events
            .iter()
            .find(|e| e.scope == Some(a1) && e.kind == EventKind::TaskStart)
            .unwrap()
            .vt;
        assert!(retry_start >= fail_vt, "retry serializes on the lane");
        let timeline = ascii_timeline(&t);
        assert!(timeline.contains("fail(injected)"), "{timeline}");
        assert!(timeline.contains("a1"), "{timeline}");
        let summary = validate_chrome_trace(&chrome_trace_json(&t)).unwrap();
        assert_eq!(summary.count("task"), 2, "both attempts exported");
    }
}
