//! Property tests for the `Resources::from_env` parsing contract:
//! whatever garbage the environment holds — junk words, overflow
//! digits, empty strings, control characters — the parser must never
//! panic and must land on either the parsed value or the documented
//! default (threads `0` = auto).

use proptest::prelude::*;
use scalable_dbscan::dbscan::Resources;

/// An optional arbitrary ASCII string (including control characters,
/// digits and whitespace), standing in for a raw environment value.
fn arb_env_value() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), prop::collection::vec(0u8..128, 0..14))
        .prop_map(|(set, bytes)| set.then(|| bytes.into_iter().map(char::from).collect()))
}

/// Whitespace padding assembled from spaces, tabs and newlines.
fn arb_padding() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..3, 0..4)
        .prop_map(|ix| ix.into_iter().map(|i| [' ', '\t', '\n'][i]).collect())
}

/// The documented parsing contract, restated independently of the
/// implementation: trimmed, non-empty, ASCII digits only. Notably
/// stricter than integer `FromStr`, which would accept a leading `+`.
fn strict_uint<T: std::str::FromStr>(v: &str) -> Option<T> {
    let t = v.trim();
    (!t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())).then(|| t.parse().ok()).flatten()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_env_values_never_panic(threads in arb_env_value()) {
        let r = Resources::from_env_values(threads.as_deref());
        // whatever happened, the result is either the documented default
        // or a faithfully parsed override — mirroring the contract, not
        // the implementation
        match threads.as_deref().and_then(strict_uint::<usize>) {
            Some(t) => prop_assert_eq!(r.build.threads, t),
            None => prop_assert_eq!(r.build.threads, 0, "junk threads must mean auto"),
        }
    }

    #[test]
    fn numeric_values_round_trip(threads in 0usize..1_000_000) {
        let t = threads.to_string();
        let r = Resources::from_env_values(Some(&t));
        prop_assert_eq!(r.build.threads, threads);
    }

    #[test]
    fn surrounding_whitespace_is_trimmed(
        threads in 0usize..64,
        pad_l in arb_padding(),
        pad_r in arb_padding(),
    ) {
        let t = format!("{pad_l}{threads}{pad_r}");
        let r = Resources::from_env_values(Some(&t));
        prop_assert_eq!(r.build.threads, threads);
    }
}

#[test]
fn documented_defaults_for_the_usual_suspects() {
    // unset: full library defaults
    assert_eq!(Resources::from_env_values(None), Resources::new());
    // junk, empty, signs, overflow, inner whitespace, unicode digits:
    // all fall back to the documented defaults
    for bad in [
        "",
        "   ",
        "lots",
        "-1",
        "+8",
        "+4096",
        "1e6",
        "0x10",
        "4 threads",
        "1 0",
        "١٢٣",
        "99999999999999999999999999999999",
        "18446744073709551616", // u64::MAX + 1
    ] {
        let r = Resources::from_env_values(Some(bad));
        assert_eq!(r.build.threads, 0, "threads from {bad:?}");
    }
}

#[test]
fn leading_plus_sign_is_rejected_as_junk() {
    // `str::parse` accepts an explicit plus, but the env contract is
    // strictly digit-only: `+8` in an environment variable is far more
    // likely a templating bug than an intentional sign, so it falls
    // back to the documented defaults instead of half-parsing
    let r = Resources::from_env_values(Some("+8"));
    assert_eq!(r.build.threads, 0, "signed threads value must mean auto");
}

#[test]
fn zero_means_auto_threads() {
    let r = Resources::from_env_values(Some("0"));
    assert_eq!(r.build.threads, 0);
}
