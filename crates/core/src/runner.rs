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
//! returns the same [`RunOutcome`] — the clustering, and the engine's
//! [`TraceHandle`] when the run went through sparklet. Each runner is
//! configured on its own builder before it is boxed (for
//! [`SparkDbscan`], resources go through [`SparkDbscan::resources`]).
//! Timings and engine metrics live on the implementation-specific
//! result structs, which the original inherent `run` methods return;
//! the trait is the lowest common denominator, not a replacement for
//! them.

use crate::label::Clustering;
use crate::mr::MrDbscan;
use crate::mr_iterative::MrDbscanIterative;
use crate::partitioned::driver::SparkDbscan;
use crate::sequential::SequentialDbscan;
use crate::shuffle_baseline::ShuffleDbscan;
use dbscan_spatial::Dataset;
use mapred::MrError;
use sparklet::{Context, SparkError, TraceHandle};
use std::sync::Arc;

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
}

impl<'a> RunEnv<'a> {
    /// An environment backed by a sparklet context; MapReduce slots
    /// default to the context's executor count.
    pub fn engine(ctx: &'a Context) -> Self {
        RunEnv { ctx: Some(ctx), slots: ctx.num_executors() }
    }

    /// An engine-less environment (sequential and MapReduce runners
    /// only).
    pub fn standalone(slots: usize) -> Self {
        RunEnv { ctx: None, slots: slots.max(1) }
    }
}

/// What every [`DbscanRunner`] returns.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The global clustering.
    pub clustering: Clustering,
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
        Ok(RunOutcome { clustering: self.run(data), trace: None })
    }
}

impl DbscanRunner for SparkDbscan {
    fn name(&self) -> &'static str {
        "spark"
    }

    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        let ctx = env.ctx.ok_or(RunnerError::MissingContext("SparkDbscan"))?;
        let clustering = self.run(ctx, data).clustering;
        Ok(RunOutcome { clustering, trace: Some(ctx.trace()) })
    }
}

impl DbscanRunner for ShuffleDbscan {
    fn name(&self) -> &'static str {
        "shuffle"
    }

    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        let ctx = env.ctx.ok_or(RunnerError::MissingContext("ShuffleDbscan"))?;
        let clustering = self.run(ctx, data)?.clustering;
        Ok(RunOutcome { clustering, trace: Some(ctx.trace()) })
    }
}

impl DbscanRunner for MrDbscan {
    fn name(&self) -> &'static str {
        "mapreduce"
    }

    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        Ok(RunOutcome { clustering: self.run(data, env.slots)?.clustering, trace: None })
    }
}

impl DbscanRunner for MrDbscanIterative {
    fn name(&self) -> &'static str {
        "mapreduce-iterative"
    }

    fn run_dbscan(&self, env: &RunEnv<'_>, data: Arc<Dataset>) -> Result<RunOutcome, RunnerError> {
        Ok(RunOutcome { clustering: self.run(data, env.slots)?.clustering, trace: None })
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
