//! Schedule-space exploration: a seeded interleaving fuzzer with
//! invariant oracles and a failing-schedule shrinker.
//!
//! The engine's answer should not depend on *when* things happen —
//! which worker finishes first, the order a reduce task walks its
//! map-side buckets, where in virtual time a planned executor kill
//! lands. [`Explorer`] turns that
//! claim into a test: it runs the same job under many schedules drawn
//! from the [`crate::schedule`] seam and checks each run against a set
//! of [`InvariantOracle`]s (output identical to the canonical baseline,
//! well-formed trace, balanced task-memory ledger, accumulators merged
//! exactly once).
//!
//! When a schedule violates an oracle, the decision sequence that
//! produced it is minimized by delta debugging into a short
//! [`ReplayToken`] — a printable string like `sv1;k=2a;3=2` — and the
//! panic message shows exactly how to re-run that one schedule with
//! [`Replay`]. The full pipeline:
//!
//! ```text
//! seeds ──▶ Seeded policy ──▶ job run ──▶ oracles ──▶ (violation?)
//!                                             │ yes
//!                                             ▼
//!                           ddmin over recorded decisions
//!                                             │
//!                                             ▼
//!                       "reproduce with sv1;…" in the report
//! ```
//!
//! Jobs are expressed through [`ExploreJob`] so any crate can plug its
//! workload in: run something on the provided [`Context`] and return
//! [`JobArtifacts`] — an order-insensitive output fingerprint plus any
//! accumulator merge-once expectations.

use crate::config::{ClusterConfig, TraceConfig};
use crate::context::Context;
use crate::error::SparkResult;
use crate::memory::MemoryStats;
use crate::oracle::{default_oracles, InvariantOracle, RunObservation};
use crate::schedule::{Replay, ReplayToken, SchedulePolicy, Seeded};
use std::sync::Arc;

/// One accumulator's exactly-once expectation, declared by the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOnceCheck {
    /// Which accumulator this covers (quoted in violation reports).
    pub name: String,
    /// The value implied by exactly-once merging of successful attempts.
    pub expected: u64,
    /// The value actually observed at job end.
    pub observed: u64,
}

/// What one explored run produced, as seen by the oracles.
///
/// The fingerprint must be a *deterministic function of the job's
/// logical output* — sort or canonicalize anything whose order the
/// engine legitimately may vary (shuffle bucket order, accumulator
/// arrival order), because [`crate::oracle::LabelIdentity`] compares it
/// byte-for-byte against the canonical baseline schedule's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobArtifacts {
    /// Canonical byte fingerprint of the job's output.
    pub fingerprint: Vec<u8>,
    /// Accumulator exactly-once checks to enforce.
    pub merge_once: Vec<MergeOnceCheck>,
}

/// A workload the explorer can run repeatedly under different
/// schedules. Implemented for free by any
/// `Fn(&Context) -> SparkResult<JobArtifacts> + Sync` closure.
pub trait ExploreJob: Sync {
    /// Run the job once on a fresh context and report its artifacts.
    fn run(&self, ctx: &Context) -> SparkResult<JobArtifacts>;
}

impl<F> ExploreJob for F
where
    F: Fn(&Context) -> SparkResult<JobArtifacts> + Sync,
{
    fn run(&self, ctx: &Context) -> SparkResult<JobArtifacts> {
        self(ctx)
    }
}

/// An invariant violation found by exploration, already shrunk.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Seed of the schedule that first exposed the violation.
    pub seed: u64,
    /// Name of the oracle that fired (for the shrunk schedule).
    pub oracle: &'static str,
    /// The oracle's detail message (for the shrunk schedule).
    pub detail: String,
    /// Full token recorded from the failing seeded run.
    pub token: ReplayToken,
    /// Minimized token that still violates an oracle.
    pub shrunk: ReplayToken,
    /// Candidate schedules the shrinker executed.
    pub probes: u32,
}

impl Violation {
    /// A copy-pasteable report with reproduction instructions.
    pub fn report(&self) -> String {
        format!(
            "schedule exploration found an invariant violation\n\
             \x20 oracle:  {}\n\
             \x20 detail:  {}\n\
             \x20 seed:    {}\n\
             \x20 token:   {}  ({} decisions)\n\
             \x20 shrunk:  {}  ({} decisions, {} shrink probes)\n\
             reproduce with:\n\
             \x20 let schedule = Replay::new(\"{}\".parse().unwrap());\n\
             \x20 config.with_schedule(Arc::new(schedule))",
            self.oracle,
            self.detail,
            self.seed,
            self.token,
            self.token.decisions(),
            self.shrunk,
            self.shrunk.decisions(),
            self.probes,
            self.shrunk,
        )
    }
}

/// Outcome of one exploration campaign.
#[derive(Debug)]
pub struct ExploreReport {
    /// Seeded schedules actually executed (excludes the baseline and
    /// any shrink probes).
    pub schedules_run: usize,
    /// The first violation found, if any (exploration stops at the
    /// first so the shrinker works from a fresh reproduction).
    pub violation: Option<Violation>,
}

impl ExploreReport {
    /// `true` when every explored schedule satisfied every oracle.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

struct RunOutcome {
    artifacts: JobArtifacts,
    memory: MemoryStats,
    trace_json: String,
}

/// The schedule-space explorer. Configure a cluster, how many seeds to
/// try, and which oracles to enforce; then [`Explorer::explore`] a job.
pub struct Explorer {
    base: ClusterConfig,
    schedules: usize,
    seed0: u64,
    oracles: Vec<Box<dyn InvariantOracle>>,
}

/// Cap on the candidate schedules the shrinker may run per failure.
const MAX_SHRINK_PROBES: u32 = 200;

impl Explorer {
    /// An explorer over clusters configured like `base` (its schedule
    /// field is ignored — the explorer installs its own policies), with
    /// the default oracle set, 16 schedules from seed 0, and a shrink
    /// budget of 200 probes.
    pub fn new(base: ClusterConfig) -> Self {
        Explorer { base, schedules: 16, seed0: 0, oracles: default_oracles() }
    }

    /// Set how many seeded schedules to run.
    pub fn with_schedules(mut self, n: usize) -> Self {
        self.schedules = n;
        self
    }

    /// Set the first seed (seeds are `seed0..seed0 + schedules`).
    pub fn with_seed0(mut self, seed0: u64) -> Self {
        self.seed0 = seed0;
        self
    }

    /// Run `job` once on a fresh context under `policy`.
    fn run_policy(
        &self,
        job: &dyn ExploreJob,
        policy: Arc<dyn SchedulePolicy>,
    ) -> SparkResult<RunOutcome> {
        let mut cfg = self.base.clone();
        // oracles need the trace; everything else comes from `base`
        cfg.trace = TraceConfig::enabled();
        cfg.schedule = policy;
        let ctx = Context::new(cfg);
        let artifacts = job.run(&ctx)?;
        Ok(RunOutcome {
            artifacts,
            memory: ctx.memory_stats(),
            trace_json: ctx.trace().chrome_json(),
        })
    }

    /// Check one run against every oracle; first failure wins.
    fn violated(
        &self,
        outcome: &RunOutcome,
        baseline: &JobArtifacts,
    ) -> Option<(&'static str, String)> {
        let obs = RunObservation {
            artifacts: &outcome.artifacts,
            baseline,
            memory: outcome.memory,
            trace_json: &outcome.trace_json,
        };
        for oracle in &self.oracles {
            if let Err(detail) = oracle.check(&obs) {
                return Some((oracle.name(), detail));
            }
        }
        None
    }

    /// Replay `token` and report the violation it still triggers, if
    /// any. A job error counts as a violation of the implicit
    /// "job-completes" oracle.
    pub fn check_token(
        &self,
        job: &dyn ExploreJob,
        baseline: &JobArtifacts,
        token: &ReplayToken,
    ) -> Option<(&'static str, String)> {
        match self.run_policy(job, Arc::new(Replay::new(token.clone()))) {
            Ok(outcome) => self.violated(&outcome, baseline),
            Err(e) => Some(("job-completes", e.to_string())),
        }
    }

    /// Explore the schedule space of `job`. Returns `Err` only when the
    /// canonical *baseline* schedule itself fails — that means the job
    /// or cluster config is broken, not that a schedule bug was found.
    pub fn explore(&self, job: &dyn ExploreJob) -> SparkResult<ExploreReport> {
        let baseline = self.run_policy(job, Arc::new(Replay::baseline()))?.artifacts;
        let mut schedules_run = 0usize;
        for seed in self.seed0..self.seed0 + self.schedules as u64 {
            let policy = Arc::new(Seeded::new(seed));
            let failure = match self.run_policy(job, Arc::<Seeded>::clone(&policy) as _) {
                Ok(outcome) => self.violated(&outcome, &baseline),
                Err(e) => Some(("job-completes", e.to_string())),
            };
            schedules_run += 1;
            if failure.is_some() {
                let token = policy.token();
                let (shrunk, probes) = self.shrink(job, &baseline, token.clone());
                // re-derive the firing oracle from the *shrunk* token so
                // the report's repro line matches its oracle line
                let (oracle, detail) = self
                    .check_token(job, &baseline, &shrunk)
                    .or(failure)
                    .expect("shrunk token came from a failing candidate");
                return Ok(ExploreReport {
                    schedules_run,
                    violation: Some(Violation { seed, oracle, detail, token, shrunk, probes }),
                });
            }
        }
        Ok(ExploreReport { schedules_run, violation: None })
    }

    /// [`Explorer::explore`], panicking with a reproduction recipe on
    /// the first violation. The panic message contains the shrunk
    /// [`ReplayToken`] and the [`Replay`] one-liner to re-run it.
    pub fn explore_or_panic(&self, job: &dyn ExploreJob) -> ExploreReport {
        let report =
            self.explore(job).unwrap_or_else(|e| panic!("explorer baseline schedule failed: {e}"));
        if let Some(v) = &report.violation {
            panic!("{}", v.report());
        }
        report
    }

    /// Run one shrink candidate, spending a probe. Returns whether the
    /// candidate still violates an oracle; the budget being exhausted
    /// reads as "does not fail" so shrinking stops conservatively.
    fn still_fails(
        &self,
        job: &dyn ExploreJob,
        baseline: &JobArtifacts,
        cand: &ReplayToken,
        probes: &mut u32,
    ) -> bool {
        if *probes >= MAX_SHRINK_PROBES {
            return false;
        }
        *probes += 1;
        self.check_token(job, baseline, cand).is_some()
    }

    fn try_drop_keyed(
        &self,
        job: &dyn ExploreJob,
        baseline: &JobArtifacts,
        best: &mut ReplayToken,
        probes: &mut u32,
    ) {
        if best.keyed_seed.is_some() {
            let cand = ReplayToken { keyed_seed: None, overrides: best.overrides.clone() };
            if self.still_fails(job, baseline, &cand, probes) {
                *best = cand;
            }
        }
    }

    /// Minimize a failing token with delta debugging: first try
    /// dropping the keyed seed, then ddmin over the sequenced
    /// overrides, then a one-at-a-time polish pass — all bounded by
    /// [`MAX_SHRINK_PROBES`] candidate runs.
    fn shrink(
        &self,
        job: &dyn ExploreJob,
        baseline: &JobArtifacts,
        full: ReplayToken,
    ) -> (ReplayToken, u32) {
        let mut probes = 0u32;
        let mut best = full;

        self.try_drop_keyed(job, baseline, &mut best, &mut probes);

        // ddmin (complement variant): cut ever-finer chunks of the
        // override list as long as the remainder still fails
        let mut chunks = 2usize;
        while best.overrides.len() >= 2 && probes < MAX_SHRINK_PROBES {
            let chunk = best.overrides.len().div_ceil(chunks);
            let mut reduced = false;
            let mut i = 0;
            while i * chunk < best.overrides.len() && probes < MAX_SHRINK_PROBES {
                let mut overrides = best.overrides.clone();
                let start = i * chunk;
                overrides.drain(start..(start + chunk).min(overrides.len()));
                let cand = ReplayToken { keyed_seed: best.keyed_seed, overrides };
                if self.still_fails(job, baseline, &cand, &mut probes) {
                    best = cand;
                    reduced = true;
                    // same granularity over the shorter list, from the top
                    i = 0;
                } else {
                    i += 1;
                }
            }
            if !reduced {
                if chunks >= best.overrides.len() {
                    break;
                }
                chunks = (chunks * 2).min(best.overrides.len());
            }
        }

        // polish: retry single removals until a fixpoint — ddmin at
        // full granularity can still leave individually-removable pairs
        'polish: while best.overrides.len() >= 2 && probes < MAX_SHRINK_PROBES {
            for i in 0..best.overrides.len() {
                let mut overrides = best.overrides.clone();
                overrides.remove(i);
                let cand = ReplayToken { keyed_seed: best.keyed_seed, overrides };
                if self.still_fails(job, baseline, &cand, &mut probes) {
                    best = cand;
                    continue 'polish;
                }
            }
            break;
        }

        self.try_drop_keyed(job, baseline, &mut best, &mut probes);
        (best, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Fifo;

    fn small_cluster() -> ClusterConfig {
        ClusterConfig::local(3)
    }

    /// A well-behaved job: output fingerprint is sorted, so no schedule
    /// can change it.
    fn clean_job(ctx: &Context) -> SparkResult<JobArtifacts> {
        let mut out = ctx.range(0, 40, 6).map(|x| x * 3 + 1).collect()?;
        out.sort_unstable();
        Ok(JobArtifacts {
            fingerprint: out.iter().flat_map(|x| x.to_le_bytes()).collect(),
            merge_once: Vec::new(),
        })
    }

    /// A planted schedule bug: the fingerprint folds accumulator
    /// arrival order, which depends on which replies the driver
    /// processes first.
    fn order_sensitive_job(ctx: &Context) -> SparkResult<JobArtifacts> {
        let arrivals = ctx.collection_accumulator::<u64>();
        ctx.range(0, 6, 6).foreach_partition({
            let arrivals = arrivals.clone();
            move |p, _| arrivals.add(p as u64)
        })?;
        Ok(JobArtifacts {
            fingerprint: arrivals.value().iter().flat_map(|x| x.to_le_bytes()).collect(),
            merge_once: Vec::new(),
        })
    }

    #[test]
    fn clean_job_explores_clean() {
        let report = Explorer::new(small_cluster())
            .with_schedules(4)
            .explore(&clean_job)
            .expect("baseline runs");
        assert!(report.ok(), "{:?}", report.violation);
        assert_eq!(report.schedules_run, 4);
    }

    #[test]
    fn planted_order_bug_is_caught_and_shrunk() {
        let explorer = Explorer::new(small_cluster()).with_schedules(32);
        let report = explorer.explore(&order_sensitive_job).expect("baseline runs");
        let v = report.violation.expect("order-sensitive job must trip LabelIdentity");
        assert_eq!(v.oracle, "label-identity");
        assert!(v.shrunk.decisions() <= v.token.decisions());
        assert!(v.shrunk.decisions() <= 20, "shrunk to {} decisions", v.shrunk.decisions());
        // the shrunk token is really a reproduction
        let baseline = explorer
            .run_policy(&order_sensitive_job, Arc::new(Replay::baseline()))
            .unwrap()
            .artifacts;
        assert!(
            explorer.check_token(&order_sensitive_job, &baseline, &v.shrunk).is_some(),
            "shrunk token must still violate: {}",
            v.report()
        );
        // and the report round-trips through the printable token form
        let reparsed: ReplayToken = v.shrunk.to_string().parse().unwrap();
        assert_eq!(reparsed, v.shrunk);
        assert!(v.report().contains("reproduce with"), "{}", v.report());
    }

    #[test]
    fn explorer_ignores_base_schedule_field() {
        // even if the base config carries a non-default policy, the
        // explorer installs its own
        let cfg = small_cluster().with_schedule(Arc::new(Fifo));
        let report =
            Explorer::new(cfg).with_schedules(2).explore(&clean_job).expect("baseline runs");
        assert!(report.ok());
    }
}
