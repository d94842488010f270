//! One front door for five DBSCAN implementations.
//!
//! The workspace grew five entrypoints with five different shapes:
//! [`SparkDbscan::run`] (infallible, engine context, rich result),
//! [`ShuffleDbscan::run`] (fallible, engine context),
//! [`SequentialDbscan::run`] / `run_with_index` (infallible, no
//! substrate), and the two MapReduce baselines (fallible, slot count
//! instead of a context). Benchmarks, examples and tests that want to
//! compare implementations had to special-case every one.
//!
//! [`DbscanRunner`] unifies them: every implementation takes the same
//! [`RunEnv`] (an optional engine [`Context`] plus a slot count) and
//! returns the same [`RunOutcome`] — the clustering, a coarse
//! [`RunTimings`] decomposition, and the engine's [`TraceHandle`] when
//! the run went through sparklet. The implementation-specific result
//! structs remain available through the original inherent `run`
//! methods; the trait is the lowest common denominator, not a
//! replacement for them.

use crate::label::Clustering;
use crate::mr::MrDbscan;
use crate::mr_iterative::MrDbscanIterative;
use crate::partitioned::driver::SparkDbscan;
use crate::resources::Resources;
use crate::sequential::SequentialDbscan;
use crate::shuffle_baseline::ShuffleDbscan;
use dbscan_spatial::Dataset;
use mapred::MrError;
use sparklet::{Context, SparkError, TraceHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The substrate a [`DbscanRunner`] executes on.
///
/// Engine-backed runners need `ctx`; MapReduce runners need `slots`;
/// the sequential oracle needs neither. Carrying both in one struct
/// lets call sites build the environment once and hand it to any
/// runner.
#[derive(Clone, Copy)]
pub struct RunEnv<'a> {
    /// The sparklet context, if one is available. Runners that require
    /// an engine fail with [`RunnerError::MissingContext`] when `None`.
    pub ctx: Option<&'a Context>,
    /// Concurrent map/reduce slots for the MapReduce baselines.
    pub slots: usize,
    /// Execution-resource bundle (threads, balance, memory budget).
    /// Runners that understand it apply a non-default value over their
    /// own configuration; [`Resources::default`] leaves a
    /// hand-configured runner untouched.
    pub resources: Resources,
}

impl<'a> RunEnv<'a> {
    /// An environment backed by a sparklet context; MapReduce slots
    /// default to the context's executor count.
    pub fn engine(ctx: &'a Context) -> Self {
        RunEnv { ctx: Some(ctx), slots: ctx.num_executors(), resources: Resources::default() }
    }

    /// An engine-less environment (sequential and MapReduce runners
    /// only).
    pub fn standalone(slots: usize) -> Self {
        RunEnv { ctx: None, slots: slots.max(1), resources: Resources::default() }
    }

    /// Override the environment's resource bundle.
    pub fn with_resources(mut self, resources: Resources) -> Self {
        self.resources = resources;
        self
    }
}

/// Coarse wall-clock decomposition shared by every runner.
///
/// Implementations report what they can measure and leave the rest
/// zero; invariant: `setup + executor + merge <= total` (driver-side
/// glue makes up the difference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunTimings {
    /// Whole run.
    pub total: Duration,
    /// Driver-side preparation (reordering, index construction,
    /// adjacency precomputation).
    pub setup: Duration,
    /// Parallel phase (executor wall time, or summed MapReduce task
    /// busy time).
    pub executor: Duration,
    /// Driver-side merge of partial results.
    pub merge: Duration,
    /// Merge sub-phase: the owner fill, each point's regular partial
    /// (zero when the runner does not decompose its merge).
    pub merge_extract: Duration,
    /// Merge sub-phase: the core-SEED scan with its unions, plus the
    /// relabel (zero when the runner does not decompose its merge).
    pub merge_union: Duration,
    /// Peak accounted engine-memory bytes (zero for engine-less runners).
    pub peak_memory_bytes: u64,
    /// Bytes moved to the spill tier under memory pressure (zero for
    /// engine-less runners or unbounded budgets).
    pub spilled_bytes: u64,
    /// Bytes freed by evicting cache entries (zero for engine-less
    /// runners or unbounded budgets).
    pub evicted_bytes: u64,
}

/// What every [`DbscanRunner`] returns.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The global clustering.
    pub clustering: Clustering,
    /// Coarse timing decomposition.
    pub timings: RunTimings,
    /// Handle onto the engine's trace collector — `Some` exactly when
    /// the run executed on a sparklet [`Context`] (enabled or not; use
    /// [`TraceHandle::enabled`] to distinguish).
    pub trace: Option<TraceHandle>,
}

/// Unified error type for the runner facade.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunnerError {
    /// The sparklet engine failed the job.
    Engine(SparkError),
    /// The MapReduce engine failed the job.
    MapReduce(MrError),
    /// The runner requires an engine [`Context`] but
    /// [`RunEnv::ctx`] was `None`. Carries the runner's name.
    MissingContext(&'static str),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Engine(e) => write!(f, "engine error: {e}"),
            RunnerError::MapReduce(e) => write!(f, "mapreduce error: {e}"),
            RunnerError::MissingContext(who) => {
                write!(f, "{who} requires a sparklet Context (RunEnv::engine)")
            }
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Engine(e) => Some(e),
            RunnerError::MapReduce(e) => Some(e),
            RunnerError::MissingContext(_) => None,
        }
    }
}

impl From<SparkError> for RunnerError {
    fn from(e: SparkError) -> Self {
        RunnerError::Engine(e)
    }
}

impl From<MrError> for RunnerError {
    fn from(e: MrError) -> Self {
        RunnerError::MapReduce(e)
    }
}

/// A DBSCAN implementation runnable through the common facade.
pub trait DbscanRunner {
    /// Short stable name for tables and trace labels.
    fn name(&self) -> &'static str;

    /// Cluster `data` in `env`.
    ///
    /// # Errors
    /// [`RunnerError::MissingContext`] when an engine-backed runner is
    /// given an engine-less [`RunEnv`]; otherwise whatever the
    /// underlying substrate reports.
    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError>;
}

impl DbscanRunner for SequentialDbscan {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn run_dbscan(&self, _env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        let t = Instant::now();
        let clustering = self.run(data);
        let total = t.elapsed();
        Ok(RunOutcome {
            clustering,
            timings: RunTimings { total, executor: total, ..RunTimings::default() },
            trace: None,
        })
    }
}

impl DbscanRunner for SparkDbscan {
    fn name(&self) -> &'static str {
        "spark"
    }

    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        let ctx = env.ctx.ok_or(RunnerError::MissingContext("SparkDbscan"))?;
        // a non-default environment bundle overrides this runner's own
        // resource knobs; the default leaves hand-tuned builders alone
        let r = if env.resources.is_default() {
            self.run(ctx, data)
        } else {
            self.clone().resources(env.resources).run(ctx, data)
        };
        Ok(RunOutcome {
            clustering: r.clustering,
            timings: RunTimings {
                total: r.timings.total,
                setup: r.timings.reorder + r.timings.plan + r.timings.kdtree_build,
                executor: r.timings.executor_wall,
                merge: r.timings.merge,
                merge_extract: r.timings.merge_extract,
                merge_union: r.timings.merge_union,
                peak_memory_bytes: r.memory.peak_bytes,
                spilled_bytes: r.memory.spilled_bytes,
                evicted_bytes: r.memory.evicted_bytes,
            },
            trace: Some(ctx.trace()),
        })
    }
}

impl DbscanRunner for ShuffleDbscan {
    fn name(&self) -> &'static str {
        "shuffle"
    }

    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        let ctx = env.ctx.ok_or(RunnerError::MissingContext("ShuffleDbscan"))?;
        let r = self.run(ctx, data)?;
        Ok(RunOutcome {
            clustering: r.clustering,
            timings: RunTimings { total: r.total, executor: r.total, ..RunTimings::default() },
            trace: Some(ctx.trace()),
        })
    }
}

impl DbscanRunner for MrDbscan {
    fn name(&self) -> &'static str {
        "mapreduce"
    }

    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        let r = self.run(data, env.slots)?;
        Ok(RunOutcome {
            clustering: r.clustering,
            timings: RunTimings {
                total: r.total,
                setup: r.total.saturating_sub(
                    r.phases.map + r.phases.shuffle_sort + r.phases.reduce + r.merge,
                ),
                executor: r.phases.map + r.phases.shuffle_sort + r.phases.reduce,
                merge: r.merge,
                ..RunTimings::default()
            },
            trace: None,
        })
    }
}

impl DbscanRunner for MrDbscanIterative {
    fn name(&self) -> &'static str {
        "mapreduce-iterative"
    }

    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        let r = self.run(data, env.slots)?;
        let busy: Duration =
            r.map_task_times.iter().chain(r.reduce_task_times.iter()).copied().sum();
        Ok(RunOutcome {
            clustering: r.clustering,
            timings: RunTimings {
                total: r.total,
                setup: r.setup,
                executor: busy,
                ..RunTimings::default()
            },
            trace: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DbscanParams;
    use crate::validate::core_labels_equivalent;
    use sparklet::ClusterConfig;

    fn blobs() -> Arc<Dataset> {
        let mut rows = Vec::new();
        for c in 0..3 {
            for i in 0..30 {
                rows.push(vec![c as f64 * 100.0 + i as f64 * 0.01, (i % 5) as f64 * 0.01]);
            }
        }
        Arc::new(Dataset::from_rows(rows))
    }

    fn params() -> DbscanParams {
        DbscanParams::new(0.5, 4).unwrap()
    }

    #[test]
    fn all_five_runners_agree_through_the_facade() {
        let data = blobs();
        let ctx = Context::new(ClusterConfig::local(4));
        let env = RunEnv::engine(&ctx);
        let oracle = SequentialDbscan::new(params()).run(Arc::clone(&data));

        let runners: Vec<Box<dyn DbscanRunner>> = vec![
            Box::new(SequentialDbscan::new(params())),
            Box::new(SparkDbscan::new(params()).exact()),
            Box::new(ShuffleDbscan::new(params())),
            Box::new(MrDbscan::new(params(), 4).exact()),
            Box::new(MrDbscanIterative::new(params(), 4)),
        ];
        for r in &runners {
            let out = r.run_dbscan(&env, Arc::clone(&data)).unwrap_or_else(|e| {
                panic!("{} failed: {e}", r.name());
            });
            assert_eq!(out.clustering.num_clusters(), 3, "{}", r.name());
            assert!(core_labels_equivalent(&out.clustering, &oracle), "{}", r.name());
            assert!(out.timings.total >= out.timings.merge, "{}", r.name());
        }
    }

    #[test]
    fn engine_runners_refuse_standalone_env() {
        let data = blobs();
        let env = RunEnv::standalone(2);
        let err = SparkDbscan::new(params()).run_dbscan(&env, Arc::clone(&data)).unwrap_err();
        assert!(matches!(err, RunnerError::MissingContext("SparkDbscan")));
        assert!(err.to_string().contains("SparkDbscan"));
        let err = ShuffleDbscan::new(params()).run_dbscan(&env, data).unwrap_err();
        assert!(matches!(err, RunnerError::MissingContext("ShuffleDbscan")));
    }

    #[test]
    fn standalone_env_runs_sequential_and_mapreduce() {
        let data = blobs();
        let env = RunEnv::standalone(2);
        let seq = SequentialDbscan::new(params()).run_dbscan(&env, Arc::clone(&data)).unwrap();
        assert!(seq.trace.is_none());
        assert!(seq.timings.total >= seq.timings.executor);
        let mr = MrDbscan::new(params(), 2).run_dbscan(&env, data).unwrap();
        assert!(mr.trace.is_none());
        assert_eq!(mr.clustering.num_clusters(), 3);
    }

    #[test]
    fn engine_run_returns_a_trace_handle() {
        let data = blobs();
        let ctx = Context::new(ClusterConfig::local(2).with_tracing());
        let env = RunEnv::engine(&ctx);
        let out = SparkDbscan::new(params()).run_dbscan(&env, data).unwrap();
        let trace = out.trace.expect("engine runs carry a trace handle");
        assert!(trace.enabled());
        let snap = trace.snapshot();
        assert!(!snap.events.is_empty());
    }

    #[test]
    fn runner_errors_chain_sources() {
        let e = RunnerError::from(MrError::InvalidConfig("bad".into()));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("mapreduce"));
    }
}
