//! The schedule-policy seam: who decides "what happens next"?
//!
//! The engine has a handful of points where several orders are equally
//! legal — which buffered reply the driver processes first, the order
//! the backpressure queue drains, the order a reduce task walks its
//! map-side buckets, when a planned executor kill fires. Production
//! code takes the fastest order ([`Fifo`], the default: process replies
//! as they arrive, drain FIFO, fetch in map order). The
//! schedule-exploration harness ([`crate::explore`]) swaps in a
//! [`Seeded`] policy to search those orders for schedule-dependent
//! behavior, and a [`Replay`] policy to reproduce a specific schedule
//! from a compact [`ReplayToken`].
//!
//! ## Two kinds of decision
//!
//! * **Sequenced** decisions ([`SchedulePolicy::choose`]) happen on the
//!   single driver thread, in a deterministic program order, so they
//!   can be numbered by a global position counter and replayed by
//!   position. Decisions with fewer than two options consume no
//!   position — tokens stay short and a replay stays aligned even when
//!   trivial decision sites differ.
//! * **Keyed** decisions ([`SchedulePolicy::keyed_seed`]) happen on
//!   concurrent worker threads (shuffle-fetch bucket order, extra
//!   straggler jitter), where a shared counter would itself be a race.
//!   They are pure functions of `(keyed_seed, task identity)` — no
//!   state, so they replay exactly by reusing the seed.
//!
//! Under [`Fifo`] (`reorders() == false`) every hook is skipped
//! entirely: the hot paths and traces of normal runs are byte-identical
//! to a build without this seam.

use crate::fault::mix;
use parking_lot::Mutex;
use std::fmt;
use std::str::FromStr;

/// Which class of scheduling decision is being made. Carried for
/// diagnostics and future point-specific policies; the built-in
/// policies are position-addressed and treat all points uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPoint {
    /// Which buffered task reply the driver processes next.
    Reply,
    /// Which deferred (backpressured) submission goes next.
    Drain,
    /// Virtual-time placement of a planned executor kill (choice `k`
    /// fires it after the `k`-th completion; `0` keeps the plan's own
    /// placement).
    Kill,
}

/// A pluggable source of scheduling decisions. See the module docs for
/// the sequenced/keyed split.
pub trait SchedulePolicy: fmt::Debug + Send + Sync {
    /// Whether this policy wants the reordering hooks engaged. `false`
    /// (the default) keeps every production code path untouched.
    fn reorders(&self) -> bool {
        false
    }

    /// Pick one of `arity` options (`0..arity`) for a sequenced
    /// decision. Only called when `reorders()`; implementations must
    /// return a value `< arity` and should not consume a position when
    /// `arity <= 1`.
    fn choose(&self, _point: DecisionPoint, _arity: usize) -> usize {
        0
    }

    /// Seed for keyed (worker-side) decisions; `None` leaves keyed
    /// orders at their production defaults.
    fn keyed_seed(&self) -> Option<u64> {
        None
    }

    /// Sequenced positions consumed so far (decision-site count with
    /// `arity > 1`).
    fn positions_used(&self) -> u32 {
        0
    }

    /// The non-default choices made so far, as sparse
    /// `(position, choice)` pairs — the payload of a [`ReplayToken`].
    fn recorded(&self) -> Vec<(u32, u16)> {
        Vec::new()
    }
}

/// The production policy: replies in arrival order, FIFO drain, map
/// order fetches, fault plan untouched. Engages no hooks at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulePolicy for Fifo {}

#[derive(Debug, Default)]
struct SeededState {
    pos: u32,
    log: Vec<(u32, u16)>,
}

/// Pseudo-random schedule derived from one seed: every sequenced
/// decision hashes `(seed, position)`, and the same seed keys the
/// worker-side decisions. Records its non-default choices so a failing
/// schedule converts to a [`ReplayToken`] losslessly.
#[derive(Debug)]
pub struct Seeded {
    seed: u64,
    state: Mutex<SeededState>,
}

impl Seeded {
    /// A policy exploring the schedule keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Seeded { seed, state: Mutex::new(SeededState::default()) }
    }

    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Convert the choices made so far into a replayable token.
    pub fn token(&self) -> ReplayToken {
        ReplayToken { keyed_seed: Some(self.seed), overrides: self.recorded() }
    }
}

impl SchedulePolicy for Seeded {
    fn reorders(&self) -> bool {
        true
    }

    fn choose(&self, _point: DecisionPoint, arity: usize) -> usize {
        if arity <= 1 {
            return 0;
        }
        let mut s = self.state.lock();
        let pos = s.pos;
        s.pos += 1;
        let h = mix(self.seed ^ mix(u64::from(pos).wrapping_add(0x9e37_79b9_7f4a_7c15)));
        let choice = (h % arity as u64) as usize;
        if choice != 0 {
            s.log.push((pos, choice as u16));
        }
        choice
    }

    fn keyed_seed(&self) -> Option<u64> {
        Some(self.seed)
    }

    fn positions_used(&self) -> u32 {
        self.state.lock().pos
    }

    fn recorded(&self) -> Vec<(u32, u16)> {
        self.state.lock().log.clone()
    }
}

/// Replays a recorded schedule: position `p` takes the override from
/// the token (clamped to the live arity) or the canonical choice `0`.
/// An empty token is the *canonical baseline* — every decision is `0`,
/// which orders replies by `(partition, attempt)` regardless of thread
/// timing, making it the deterministic reference schedule the explorer
/// compares against.
#[derive(Debug)]
pub struct Replay {
    token: ReplayToken,
    pos: Mutex<u32>,
}

impl Replay {
    /// A policy replaying `token`.
    pub fn new(token: ReplayToken) -> Self {
        Replay { token, pos: Mutex::new(0) }
    }

    /// The canonical baseline schedule (empty token: all-zero choices,
    /// no keyed perturbation).
    pub fn baseline() -> Self {
        Replay::new(ReplayToken::default())
    }

    /// The token being replayed.
    pub fn token(&self) -> &ReplayToken {
        &self.token
    }
}

impl SchedulePolicy for Replay {
    fn reorders(&self) -> bool {
        true
    }

    fn choose(&self, _point: DecisionPoint, arity: usize) -> usize {
        if arity <= 1 {
            return 0;
        }
        let mut g = self.pos.lock();
        let pos = *g;
        *g += 1;
        match self.token.overrides.iter().find(|(p, _)| *p == pos) {
            Some((_, c)) => (*c as usize).min(arity - 1),
            None => 0,
        }
    }

    fn keyed_seed(&self) -> Option<u64> {
        self.token.keyed_seed
    }

    fn positions_used(&self) -> u32 {
        *self.pos.lock()
    }

    fn recorded(&self) -> Vec<(u32, u16)> {
        self.token.overrides.clone()
    }
}

/// A compact, printable description of one explored schedule: the seed
/// for keyed decisions (if any) plus the sparse list of non-default
/// sequenced choices. Renders as e.g. `sv1;k=2a;3=2,17=1` and parses
/// back with [`FromStr`], so a panic message is enough to reproduce a
/// failing schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayToken {
    /// Seed for the keyed (worker-side) decisions; `None` leaves them
    /// at production order.
    pub keyed_seed: Option<u64>,
    /// Sparse `(position, choice)` overrides for sequenced decisions;
    /// positions not listed take choice `0`.
    pub overrides: Vec<(u32, u16)>,
}

impl ReplayToken {
    /// Number of recorded (non-default) decisions — the "length" quoted
    /// when a shrunk token is reported.
    pub fn decisions(&self) -> usize {
        self.overrides.len()
    }
}

impl fmt::Display for ReplayToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sv1")?;
        if let Some(k) = self.keyed_seed {
            write!(f, ";k={k:x}")?;
        }
        if !self.overrides.is_empty() {
            f.write_str(";")?;
            for (i, (p, c)) in self.overrides.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{p}={c}")?;
            }
        }
        Ok(())
    }
}

/// Error parsing a [`ReplayToken`] from its string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenParseError(String);

impl fmt::Display for TokenParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid replay token: {}", self.0)
    }
}

impl std::error::Error for TokenParseError {}

impl FromStr for ReplayToken {
    type Err = TokenParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(';');
        match parts.next() {
            Some("sv1") => {}
            _ => return Err(TokenParseError(format!("expected sv1 prefix in {s:?}"))),
        }
        let mut token = ReplayToken::default();
        for part in parts {
            if let Some(hex) = part.strip_prefix("k=") {
                let k = u64::from_str_radix(hex, 16)
                    .map_err(|e| TokenParseError(format!("bad keyed seed {hex:?}: {e}")))?;
                token.keyed_seed = Some(k);
            } else if !part.is_empty() {
                for pair in part.split(',') {
                    let (p, c) = pair
                        .split_once('=')
                        .ok_or_else(|| TokenParseError(format!("bad override {pair:?}")))?;
                    let p = p
                        .parse::<u32>()
                        .map_err(|e| TokenParseError(format!("bad position {p:?}: {e}")))?;
                    let c = c
                        .parse::<u16>()
                        .map_err(|e| TokenParseError(format!("bad choice {c:?}: {e}")))?;
                    token.overrides.push((p, c));
                }
            }
        }
        Ok(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_engages_nothing() {
        let f = Fifo;
        assert!(!f.reorders());
        assert_eq!(f.choose(DecisionPoint::Reply, 8), 0);
        assert_eq!(f.keyed_seed(), None);
        assert!(f.recorded().is_empty());
    }

    #[test]
    fn seeded_is_deterministic_and_in_range() {
        let arities = [3usize, 1, 5, 2, 9, 1, 4];
        let run = |seed: u64| -> (Vec<usize>, Vec<(u32, u16)>, u32) {
            let s = Seeded::new(seed);
            let picks =
                arities.iter().map(|&a| s.choose(DecisionPoint::Reply, a)).collect::<Vec<_>>();
            (picks, s.recorded(), s.positions_used())
        };
        let (a, log_a, pos_a) = run(7);
        let (b, log_b, pos_b) = run(7);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(log_a, log_b);
        assert_eq!((pos_a, pos_b), (5, 5), "arity-1 sites consume no position");
        for (pick, &arity) in a.iter().zip(&arities) {
            assert!(*pick < arity);
        }
        let (c, _, _) = run(8);
        assert_ne!(a, c, "different seeds explore different schedules");
    }

    #[test]
    fn replay_reproduces_a_seeded_run() {
        let arities = [4usize, 2, 1, 6, 3, 5, 2, 7];
        let s = Seeded::new(42);
        let picks: Vec<usize> =
            arities.iter().map(|&a| s.choose(DecisionPoint::Drain, a)).collect();
        let r = Replay::new(s.token());
        let replayed: Vec<usize> =
            arities.iter().map(|&a| r.choose(DecisionPoint::Drain, a)).collect();
        assert_eq!(picks, replayed);
        assert_eq!(r.keyed_seed(), Some(42));
    }

    #[test]
    fn replay_clamps_overrides_to_live_arity() {
        let r = Replay::new(ReplayToken { keyed_seed: None, overrides: vec![(0, 9)] });
        assert_eq!(r.choose(DecisionPoint::Reply, 3), 2, "9 clamps to arity-1");
        assert_eq!(r.choose(DecisionPoint::Reply, 3), 0, "position 1 has no override");
    }

    #[test]
    fn baseline_replay_is_all_zero() {
        let r = Replay::baseline();
        for arity in [1usize, 2, 5, 9] {
            assert_eq!(r.choose(DecisionPoint::Reply, arity), 0);
        }
        assert_eq!(r.keyed_seed(), None);
    }

    #[test]
    fn token_roundtrips_through_display() {
        let cases = [
            ReplayToken::default(),
            ReplayToken { keyed_seed: Some(0x2a), overrides: vec![] },
            ReplayToken { keyed_seed: None, overrides: vec![(3, 2), (17, 1)] },
            ReplayToken { keyed_seed: Some(u64::MAX), overrides: vec![(0, 1), (9, 4), (1000, 2)] },
        ];
        for t in cases {
            let s = t.to_string();
            let back: ReplayToken = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, t, "{s}");
        }
        assert_eq!(ReplayToken::default().to_string(), "sv1");
    }

    #[test]
    fn token_parse_rejects_garbage() {
        for bad in ["", "sv2", "sv1;k=zz", "sv1;3", "sv1;x=1", "sv1;3=70000"] {
            assert!(bad.parse::<ReplayToken>().is_err(), "{bad:?} must not parse");
        }
    }
}
