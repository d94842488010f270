//! One typed bundle for every resource knob.
//!
//! [`Resources`] holds the partition balance and the driver-side kd-tree
//! build configuration (worker count, leaf-scan layout) in one
//! `#[non_exhaustive]` value. [`SparkDbscan::resources`] is the one way
//! to set them; nothing is read from the process environment.
//!
//! Every field is benign to vary: clustering labels are identical for
//! any `Resources` value (thread counts and leaf layouts are
//! byte-deterministic by construction), only speed changes. Memory is
//! not a `Resources` knob: the engine's ledger only counts bytes (see
//! [`sparklet::memory`]), and no budget is kept.
//!
//! [`SparkDbscan::resources`]: crate::partitioned::driver::SparkDbscan::resources

use crate::partitioned::planner::Balance;
use dbscan_spatial::BuildConfig;

/// Execution-resource configuration of a
/// [`crate::partitioned::driver::SparkDbscan`] run. Construct with
/// [`Resources::new`] (library defaults), then chain `with_*` setters.
/// `#[non_exhaustive]` so new knobs can ride along without breaking
/// callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Resources {
    /// How index ranges are balanced across partitions: equal point
    /// counts (the paper) or equal estimated eps-query cost. Ranges
    /// stay contiguous either way, so only task load balance changes.
    pub balance: Balance,
    /// Driver-side kd-tree bulk-build configuration (worker count,
    /// bucket size, parallel cutoff, leaf kernel).
    pub build: BuildConfig,
}

impl Resources {
    /// Library defaults: equal-count balance, auto build threads.
    pub fn new() -> Self {
        Resources { balance: Balance::Count, build: BuildConfig::default() }
    }

    /// Set the partition balance policy.
    pub fn with_balance(mut self, balance: Balance) -> Self {
        self.balance = balance;
        self
    }

    /// Set the kd-tree build configuration.
    pub fn with_build(mut self, build: BuildConfig) -> Self {
        self.build = build;
        self
    }

    /// Ignored: the merge is one sequential pass and has no worker
    /// count. Kept so existing callers still compile.
    pub fn with_merge_threads(self, _threads: usize) -> Self {
        self
    }
}

impl Default for Resources {
    fn default() -> Self {
        Resources::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded_auto() {
        let r = Resources::new();
        assert_eq!(r.balance, Balance::Count);
        assert_eq!(r, Resources::default());
    }

    #[test]
    fn builders_compose() {
        let r = Resources::new()
            .with_balance(Balance::Cost)
            .with_build(BuildConfig::default().with_threads(2));
        assert_ne!(r, Resources::new());
        assert_eq!(r.balance, Balance::Cost);
        assert_eq!(r.build.threads, 2);
    }

    #[test]
    fn kernel_config_rides_the_build_config() {
        use dbscan_spatial::{KernelConfig, KernelLayout};
        let k = KernelConfig::default().with_layout(KernelLayout::Scalar);
        let r = Resources::new().with_build(BuildConfig::default().with_kernel(k));
        assert_eq!(r.build.kernel, k);
        assert_eq!(r.build.kernel.layout, KernelLayout::Scalar);
        assert_eq!(Resources::new().build.kernel, KernelConfig::default());
    }
}
