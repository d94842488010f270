//! One typed bundle for every resource knob.
//!
//! [`Resources`] holds the partition balance and the driver-side kd-tree
//! build configuration (seeded from the `DBSCAN_BUILD_THREADS`
//! environment variable) in one `#[non_exhaustive]` value. It is the one
//! way to set them: [`SparkDbscan::resources`] and
//! [`crate::runner::RunEnv::with_resources`] both accept it, and
//! [`Resources::from_env`] is the single documented place environment
//! variables are read:
//!
//! | variable | field | meaning |
//! |---|---|---|
//! | `DBSCAN_BUILD_THREADS` | `build.threads` | kd-tree build worker count (`0` = auto) |
//! | `DBSCAN_KERNEL` | `build.kernel.layout` | `scalar` or `lanes` leaf-scan layout |
//!
//! Every field is benign to vary: clustering labels are identical for
//! any `Resources` value (thread counts and leaf layouts are
//! byte-deterministic by construction), only speed changes. The memory
//! budget is not a `Resources` knob: the engine owns the ledger, so it
//! is set once per context with
//! [`sparklet::ClusterConfig::with_memory_budget`].
//!
//! [`SparkDbscan::resources`]: crate::partitioned::driver::SparkDbscan::resources

use crate::partitioned::planner::Balance;
use dbscan_spatial::BuildConfig;

/// Execution-resource configuration shared by the driver builders and
/// the [`crate::runner::RunEnv`] facade. Construct with
/// [`Resources::new`] (library defaults) or [`Resources::from_env`]
/// (defaults overlaid with the documented environment variables), then
/// chain `with_*` setters. `#[non_exhaustive]` so new knobs can ride
/// along without breaking callers.
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

    /// Defaults overlaid with the environment: `DBSCAN_BUILD_THREADS`
    /// sets the build worker count and `DBSCAN_KERNEL` (parsed by
    /// [`dbscan_spatial::KernelConfig::from_env`]) selects the leaf-scan
    /// layout. Unset or unparsable variables leave the default in place.
    pub fn from_env() -> Self {
        let mut r = Self::from_env_values(std::env::var("DBSCAN_BUILD_THREADS").ok().as_deref());
        r.build = r.build.with_kernel(dbscan_spatial::KernelConfig::from_env());
        r
    }

    /// The pure core of [`Resources::from_env`], taking the raw variable
    /// value so tests can exercise the parsing contract without touching
    /// the process environment (`std::env::set_var` is unsound under
    /// threaded test runners).
    ///
    /// The contract, for any input including junk, overflow and empty
    /// strings — this function never panics and never errors:
    ///
    /// `build_threads` is a whitespace-trimmed string of ASCII digits
    /// parsed as `usize`, else the default (`0` = auto). `0` is a
    /// *valid* value meaning auto.
    ///
    /// Parsing is strictly digit-only: unlike Rust's integer `FromStr`,
    /// a leading `+` (or any other non-digit) rejects the value. An
    /// environment variable carrying `+8` is far likelier a templating
    /// bug than an intentional sign, and silently accepting it would
    /// make the contract depend on `FromStr` quirks.
    pub fn from_env_values(build_threads: Option<&str>) -> Self {
        let mut r = Resources::new();
        if let Some(t) = build_threads.and_then(parse_env_uint::<usize>) {
            r.build = r.build.with_threads(t);
        }
        r
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

    /// Whether this is exactly the library default ([`Resources::new`]).
    /// The runner facade uses this to leave a hand-configured
    /// [`crate::partitioned::driver::SparkDbscan`] untouched.
    pub fn is_default(&self) -> bool {
        *self == Resources::new()
    }
}

impl Default for Resources {
    fn default() -> Self {
        Resources::new()
    }
}

/// Strict digit-only unsigned parsing for environment values: optional
/// surrounding whitespace around a non-empty run of ASCII digits,
/// nothing else. Rejects the leading `+` that integer `FromStr` would
/// accept (see [`Resources::from_env_values`]).
fn parse_env_uint<T: std::str::FromStr>(v: &str) -> Option<T> {
    let t = v.trim();
    if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    t.parse::<T>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded_auto() {
        let r = Resources::new();
        assert!(r.is_default());
        assert_eq!(r.balance, Balance::Count);
        assert_eq!(r, Resources::default());
    }

    #[test]
    fn builders_compose() {
        let r = Resources::new()
            .with_balance(Balance::Cost)
            .with_build(BuildConfig::default().with_threads(2));
        assert!(!r.is_default());
        assert_eq!(r.balance, Balance::Cost);
        assert_eq!(r.build.threads, 2);
    }

    #[test]
    fn env_parsing_is_strictly_digit_only() {
        // signs that integer FromStr would happily accept are rejected
        assert_eq!(Resources::from_env_values(Some("+8")).build.threads, 0);
        // inner whitespace and radix prefixes are junk too
        assert_eq!(Resources::from_env_values(Some("1 2")).build.threads, 0);
        // plain digits (with surrounding whitespace) still parse
        assert_eq!(Resources::from_env_values(Some(" 8 ")).build.threads, 8);
    }

    #[test]
    fn kernel_config_rides_the_build_config() {
        use dbscan_spatial::{KernelConfig, KernelLayout};
        let k = KernelConfig::default().with_layout(KernelLayout::Scalar);
        let r = Resources::new().with_build(BuildConfig::default().with_kernel(k));
        assert_eq!(r.build.kernel, k);
        assert_eq!(r.build.kernel.layout, KernelLayout::Scalar);
        // no kernel env set under test: from_env keeps the default
        assert_eq!(Resources::from_env().build.kernel, KernelConfig::default());
        // the pure parsing core never reads kernel variables — it takes
        // the build-threads value alone
        assert_eq!(Resources::from_env_values(None).build.kernel, KernelConfig::default());
    }
}
