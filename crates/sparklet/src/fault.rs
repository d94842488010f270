//! Deterministic fault injection.
//!
//! The paper motivates framework-based parallelism with fault tolerance:
//! "A single process failure in MPI will cause the whole job to fail. In
//! \[the\] MapReduce framework, another task will be automatically launched
//! if one task fails." This module schedules faults so every recovery
//! path in the engine is exercised — deterministically, keyed by
//! `(seed, stage, partition, attempt)` splitmix hashes, so any failing
//! run is reproducible from its seed alone.
//!
//! A [`FaultPlan`] describes *which* faults a run injects:
//!
//! * **task attempt failures**: the attempt dies before user code runs;
//!   the scheduler retries it.
//! * **shuffle fetch failures**: a reduce-side fetch fails and one of the
//!   parent map outputs is marked lost, forcing the scheduler down the
//!   lineage-recomputation path (recompute only the missing map
//!   partitions, then resubmit the reduce task).
//! * **DFS block-read failures** (forwarded to minidfs): a replica is
//!   deterministically treated as dead, exercising replica fallback and
//!   re-replication; exhausting every replica surfaces a typed error.
//! * **executor kills at a virtual-time point**: after the N-th task
//!   completion of a given stage, an executor dies — its cache and map
//!   outputs vanish and its in-flight attempts are requeued.
//! * **straggler slowdowns**: a real (small) delay on selected attempts,
//!   perturbing thread interleavings the way slow nodes would.
//!
//! Every decision hashes its fault kind's salt together with the run
//! seed and the full task identity, each field mixed *separately* (a
//! plain bit-pack like `partition << 20 | attempt` would alias distinct
//! pairs), so rules are independent of each other and of the workload.

/// splitmix64 finalizer — a cheap, well-distributed hash for injection
/// decisions and straggler sampling.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Chain-mix a decision key. Each field passes through the finalizer
/// before the next is folded in, so the hash is sensitive to field
/// *position* — `(partition=1, attempt=0)` and `(partition=0, attempt=1)`
/// land far apart, unlike the old `partition << 20 | attempt` packing
/// which aliased any pair with colliding bits.
#[inline]
pub(crate) fn decision_hash(seed: u64, salt: u64, stage: u64, partition: u64, attempt: u64) -> u64 {
    mix(mix(mix(mix(seed ^ salt) ^ stage) ^ partition) ^ attempt)
}

/// Per-kind salts keep the fault kinds' decision streams independent:
/// whether an attempt suffers a task failure says nothing about whether
/// its shuffle fetch fails.
pub(crate) const TASK_SALT: u64 = 0x7461_736b_6661_696c; // "taskfail"
pub(crate) const FETCH_SALT: u64 = 0x6665_7463_6866_6c74; // "fetchflt"
pub(crate) const VICTIM_SALT: u64 = 0x6d61_7076_6963_7469; // "mapvicti"
                                                           // DFS read-fault curses are decided inside minidfs (its own salt) so the
                                                           // storage crate stays engine-independent; see `minidfs::ReadFaultPlan`.
pub(crate) const STRAGGLER_SALT: u64 = 0x7374_7261_6767_6c65; // "straggle"
                                                              // salts for the schedule explorer's keyed (worker-side) decisions, so
                                                              // its perturbations never alias the fault plan's decision streams
pub(crate) const EXPLORE_FETCH_SALT: u64 = 0x6578_706c_6674_6368; // "explftch"
pub(crate) const EXPLORE_JITTER_SALT: u64 = 0x6578_706c_6a69_7474; // "expljitt"

/// One probabilistic fault rule, keyed by the full task identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Probability that the rule fires for any given attempt.
    pub prob: f64,
    /// Attempts the rule may hit per task (0 disables the rule). Keeping
    /// this below the relevant retry budget guarantees eventual success.
    pub max_per_task: usize,
}

impl FaultRule {
    /// A rule that never fires.
    pub const NONE: FaultRule = FaultRule { prob: 0.0, max_per_task: 0 };

    /// Fire on every task's first `n` attempts.
    pub fn always_first(n: usize) -> Self {
        FaultRule { prob: 1.0, max_per_task: n }
    }

    /// Fire with probability `prob` on each of a task's first `max`
    /// attempts.
    pub fn with_prob(prob: f64, max: usize) -> Self {
        FaultRule { prob, max_per_task: max }
    }

    /// Whether the rule can ever fire.
    pub fn is_active(&self) -> bool {
        self.prob > 0.0 && self.max_per_task > 0
    }

    /// Deterministic decision for one attempt under this rule.
    pub(crate) fn should_fire(
        &self,
        seed: u64,
        salt: u64,
        stage: usize,
        partition: usize,
        attempt: usize,
    ) -> bool {
        if attempt >= self.max_per_task || self.prob <= 0.0 {
            return false;
        }
        if self.prob >= 1.0 {
            return true;
        }
        let h = decision_hash(seed, salt, stage as u64, partition as u64, attempt as u64);
        (h as f64 / u64::MAX as f64) < self.prob
    }
}

impl Default for FaultRule {
    fn default() -> Self {
        FaultRule::NONE
    }
}

/// A scheduled executor kill: after `after_tasks` task completions of
/// stage `stage` (a virtual-time point on the driver's stage clock),
/// executor `executor` dies — dropping its cached partitions and shuffle
/// map outputs and requeueing its in-flight attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorKillAt {
    /// Global stage ordinal (stage ids are assigned in submission order
    /// across a context's lifetime) at which the kill fires.
    pub stage: usize,
    /// The victim executor.
    pub executor: usize,
    /// Completions observed in the stage before the kill fires.
    pub after_tasks: usize,
}

/// A deterministic schedule of faults for one run. See the module docs
/// for the five fault kinds and their recovery paths.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Task attempt failures (retried by the scheduler).
    pub task_failure: FaultRule,
    /// Reduce-side shuffle fetch failures (trigger lineage
    /// recomputation of the lost map outputs).
    pub fetch_failure: FaultRule,
    /// DFS block-read replica failures (trigger replica fallback;
    /// exhaustion surfaces a typed storage error). Forwarded to the
    /// minidfs cluster by [`crate::Context::text_file`].
    pub dfs_read_failure: FaultRule,
    /// Straggler slowdowns: selected attempts sleep for
    /// [`FaultPlan::straggler_delay_ms`] before running.
    pub straggler: FaultRule,
    /// Real delay applied to straggling attempts, in milliseconds.
    pub straggler_delay_ms: u64,
    /// Scheduled executor kills.
    pub executor_kills: Vec<ExecutorKillAt>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan injecting only task failures under `rule`.
    pub fn tasks(rule: FaultRule) -> Self {
        FaultPlan { task_failure: rule, ..FaultPlan::default() }
    }

    /// Builder-style: set the task-failure rule.
    pub fn with_task_failures(mut self, rule: FaultRule) -> Self {
        self.task_failure = rule;
        self
    }

    /// Builder-style: set the shuffle-fetch-failure rule.
    pub fn with_fetch_failures(mut self, rule: FaultRule) -> Self {
        self.fetch_failure = rule;
        self
    }

    /// Builder-style: set the DFS block-read-failure rule.
    pub fn with_dfs_read_failures(mut self, rule: FaultRule) -> Self {
        self.dfs_read_failure = rule;
        self
    }

    /// Builder-style: set the straggler rule and its real delay.
    pub fn with_stragglers(mut self, rule: FaultRule, delay_ms: u64) -> Self {
        self.straggler = rule;
        self.straggler_delay_ms = delay_ms;
        self
    }

    /// Builder-style: schedule one executor kill.
    pub fn with_executor_kill(mut self, kill: ExecutorKillAt) -> Self {
        self.executor_kills.push(kill);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let f = FaultRule::NONE;
        for a in 0..10 {
            assert!(!f.should_fire(1, TASK_SALT, 2, 3, a));
        }
    }

    #[test]
    fn always_first_fails_exactly_n_attempts() {
        let f = FaultRule::always_first(2);
        assert!(f.should_fire(0, TASK_SALT, 0, 0, 0));
        assert!(f.should_fire(0, TASK_SALT, 0, 0, 1));
        assert!(!f.should_fire(0, TASK_SALT, 0, 0, 2));
    }

    #[test]
    fn decisions_are_deterministic() {
        let f = FaultRule::with_prob(0.5, 1);
        for part in 0..50 {
            assert_eq!(
                f.should_fire(7, TASK_SALT, 1, part, 0),
                f.should_fire(7, TASK_SALT, 1, part, 0)
            );
        }
    }

    #[test]
    fn probability_is_roughly_respected() {
        let f = FaultRule::with_prob(0.3, 1);
        let n = 10_000;
        let fails = (0..n).filter(|&p| f.should_fire(42, TASK_SALT, 0, p, 0)).count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed failure rate {rate}");
    }

    #[test]
    fn mix_spreads_bits() {
        assert_ne!(mix(0), mix(1));
        assert_ne!(mix(1), mix(2));
    }

    #[test]
    fn decision_hash_does_not_alias_partition_attempt_pairs() {
        // the old packing `partition << 20 | attempt` made
        // (partition=p, attempt=a) collide with (p + k, a - (k << 20))
        // and, worse, gave every attempt of one partition the same
        // high bits. Mixed fields must produce distinct decisions.
        let mut seen = std::collections::HashSet::new();
        for partition in 0..64u64 {
            for attempt in 0..64u64 {
                assert!(
                    seen.insert(decision_hash(9, TASK_SALT, 3, partition, attempt)),
                    "collision at partition={partition} attempt={attempt}"
                );
            }
        }
        // swapped fields decide differently
        assert_ne!(
            decision_hash(9, TASK_SALT, 3, 1, 0),
            decision_hash(9, TASK_SALT, 3, 0, 1),
            "field order must matter"
        );
    }

    #[test]
    fn salts_decorrelate_fault_kinds() {
        let task =
            (0..1000).filter(|&p| decision_hash(1, TASK_SALT, 0, p, 0).is_multiple_of(2)).count();
        let fetch = (0..1000)
            .filter(|&p| {
                decision_hash(1, TASK_SALT, 0, p, 0).is_multiple_of(2)
                    && decision_hash(1, FETCH_SALT, 0, p, 0).is_multiple_of(2)
            })
            .count();
        // independent streams: the joint rate is ~ the product of rates
        assert!((400..600).contains(&task), "{task}");
        assert!((150..350).contains(&fetch), "{fetch}");
    }

    #[test]
    fn fault_rule_budget_respected() {
        let r = FaultRule::always_first(2);
        assert!(r.should_fire(0, TASK_SALT, 0, 0, 0));
        assert!(r.should_fire(0, TASK_SALT, 0, 0, 1));
        assert!(!r.should_fire(0, TASK_SALT, 0, 0, 2));
        assert!(!FaultRule::NONE.should_fire(0, TASK_SALT, 0, 0, 0));
        assert!(FaultRule::with_prob(0.5, 3).is_active());
        assert!(!FaultRule::with_prob(0.5, 0).is_active());
    }

    #[test]
    fn decision_hash_values_are_pinned() {
        // chaos baselines and replay tokens depend on every injection
        // decision staying the same forever: pin a few raw hashes
        assert_eq!(decision_hash(9, TASK_SALT, 0, 0, 0), 0x253d_de6c_328e_011e);
        assert_eq!(decision_hash(9, TASK_SALT, 3, 17, 2), 0x7b0b_1f8c_fa6c_6840);
        assert_eq!(decision_hash(0x5eed, STRAGGLER_SALT, 1, 5, 0), 0x0860_aa85_ada4_2454);
    }

    #[test]
    fn tasks_plan_injects_only_task_failures() {
        let plan = FaultPlan::tasks(FaultRule::always_first(3));
        assert_eq!(plan.task_failure, FaultRule::always_first(3));
        assert!(!plan.fetch_failure.is_active());
        assert!(!plan.dfs_read_failure.is_active());
        assert!(plan.executor_kills.is_empty());
    }

    #[test]
    fn plan_builders_compose() {
        let plan = FaultPlan::none()
            .with_task_failures(FaultRule::always_first(1))
            .with_fetch_failures(FaultRule::with_prob(0.5, 1))
            .with_dfs_read_failures(FaultRule::with_prob(0.2, 1))
            .with_stragglers(FaultRule::with_prob(0.1, 1), 5)
            .with_executor_kill(ExecutorKillAt { stage: 1, executor: 2, after_tasks: 1 });
        assert!(plan.task_failure.is_active());
        assert!(plan.fetch_failure.is_active());
        assert!(plan.dfs_read_failure.is_active());
        assert!(plan.straggler.is_active());
        assert_eq!(plan.straggler_delay_ms, 5);
        assert_eq!(plan.executor_kills.len(), 1);
    }
}
