//! Driver-side merging of partial clusters — Algorithm 4 of the paper —
//! plus hardened variants.
//!
//! The key observation (Fig. 4): a SEED in partial cluster `C[i]` is a
//! *regular* element of exactly one other partial cluster (its
//! **master**), because every point is a regular member of at most one
//! partial cluster of its own partition. Locating the master and merging
//! yields the global clusters.
//!
//! **Correctness repair over the printed Algorithm 4**: a SEED may land
//! on a *border* point of the foreign partition — a point that is a
//! regular member of some cluster B without being density-connected to
//! the seeding cluster A (border points can be reachable from several
//! clusters at once). Merging on such a SEED would weld together
//! clusters that sequential DBSCAN keeps apart. We therefore merge only
//! through SEEDs that are **core points** (the driver knows every
//! point's core status from the executors); two clusters are genuinely
//! one exactly when a core–core edge crosses the boundary, and that
//! core endpoint is always recorded as a SEED. Non-core SEEDs still
//! receive the seeding cluster's label (ordinary border assignment).
//!
//! **Union-find merge**: three sequential loops and no edge list. It
//! rests on the [`PartialCluster`] layout contract — regulars first,
//! then SEEDs — and reads each partial through a borrowed
//! [`PartialView`] of the two parts, so each loop reads only the part
//! it needs. The views come from a slice of owned partials
//! ([`merge_union_find`]) or straight from the executors' per-task
//! arenas ([`merge_union_find_arenas`], the driver's path), through the
//! same loops:
//!
//! 1. *owner fill* over the regulars: one `n`-sized table names, for
//!    each point, the partial holding it as a regular member, flagged
//!    `NOT_CORE` unless the point is a core point (`UNOWNED`, flag
//!    included, when no partial holds it);
//! 2. *SEED scan*, one table lookup per SEED: a SEED `s` of partial `i`
//!    whose entry `j` is unflagged — a core point, the regular of
//!    partial `j` — unions `i` with `j` as the scan meets it; a flagged
//!    SEED (a border or noise point, or a core point whose partial was
//!    filtered away) goes on a short `(point, partial)` border list;
//! 3. *relabel* of the regulars and the border list only: every regular
//!    takes its partial's group key straight from the owner table, and
//!    an owned core SEED already shares its owner's group, so it cannot
//!    change a label.
//!
//! A union-find ignores repeated and already-joined pairs, so neither
//! the components nor the merge-op count (partials minus components)
//! depend on edge order or multiplicity. Every strategy names each
//! group by its smallest partial index, which the union-find's min-root
//! linking makes the root itself, and gives each point the smallest key
//! among the partials holding it. The paper strategies relabel over
//! every member.
//!
//! **Who records each edge.** Under exact queries and
//! [`SeedPolicy::PerBoundaryEdge`] every edge is recorded from both
//! ends, so the merge needs only one of the two records:
//!
//! * *Core–core.* Take core `p` regular in partial `i`, core `s`
//!   regular in partial `j` of another partition, and
//!   `dist(p, s) ≤ ε`. Every core point is queried once and admitted
//!   into the partial that claims it, and the distance is bitwise
//!   symmetric (`fl(a−b) = −fl(b−a)`, both sides summed in the same
//!   coordinate order), so `i` records `s` and `j` records `p`. The
//!   partials lie in different partitions, so exactly one of the two
//!   SEEDs lies above its partial's range, whatever the partials'
//!   order: unioning only through SEEDs above the range
//!   (`s >= range.1`) keeps every connection with half the unions.
//! * *Core–non-core.* A non-core point `s` takes the smallest group key
//!   among the partials holding it, so every partial with a core point
//!   within `ε` of `s` must be found. The owner of each such core `q`
//!   records `s` as a SEED, and `s`'s own task queries `s` exactly
//!   once (every own point is queried once, claimed or not), so that
//!   query sees every foreign core neighbour `q` of `s` as well.
//!
//! With `symmetric_seeds` the SEED scan unions forward only. The
//! driver's union-find over per-task arenas goes one step further: its
//! executors ship only the SEEDs above their range (forward-only
//! arenas). A SEED `s` below partial `i`'s range adds nothing when `s`
//! is core (its owner's task records the reverse edge as a forward
//! SEED) and is replaced when `s` is not: `s`'s task lists `(s, q)` for
//! each neighbour `q` above its range, and a pair whose `q` is an owned
//! core point joins the border list as `(s, owner[q])`. That is the
//! SEED the owner of `q` dropped, so labels, components and `merge_ops`
//! are those of the full SEEDs. On `d2-p128` this halves the SEEDs
//! shipped (about 3.5M of 7.0M are backward) for about 8.5k pairs.
//!
//! The symmetry fails under [`SeedPolicy::OnePerPartition`] (one SEED
//! per foreign partition can see `p → s` without `s → p`) and under
//! pruned queries (a capped query can stop before it reaches `p`).
//! Dropping whole partials (`min_partial_size`) removes both
//! directions of a core–core edge at once, so it keeps the symmetry.
//! Callers derive the flag from the run's configuration and union every
//! edge in the other cases. Forward-only arenas go only where the
//! driver merges arenas in place; the small-partial filter and the
//! paper strategies take owned partials, which need every SEED.
//!
//! [`SeedPolicy::PerBoundaryEdge`]: crate::SeedPolicy::PerBoundaryEdge
//! [`SeedPolicy::OnePerPartition`]: crate::SeedPolicy::OnePerPartition

use crate::label::{Clustering, Label};
use crate::model::{PartialArena, PartialCluster, PartialView};
use crate::unionfind::DisjointSet;

/// Owner-table flag of a point that is not a core point: a SEED on it
/// welds nothing.
const NOT_CORE: u32 = 1 << 31;

/// A point no partial cluster holds as a regular element (flagged
/// `NOT_CORE`), and a point no partial cluster holds at all, in the
/// relabel.
const UNOWNED: u32 = u32::MAX;

/// How the driver merges partial clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Algorithm 4 verbatim: one pass over the clusters; each unfinished
    /// cluster pulls in the masters of its (original) SEEDs and all
    /// statuses become Finished. Misses transitive chains across ≥3
    /// partitions (seeds gained *by* merging are not chased).
    PaperSinglePass,
    /// Algorithm 4 repeated until no merge happens, with SEED sets
    /// recomputed from the merged membership — fixes transitivity while
    /// keeping the paper's scan structure.
    PaperFixpoint,
    /// Union-find over the SEED → master edges; equivalent result to
    /// `PaperFixpoint` at lower cost. The recommended default.
    UnionFind,
}

/// Result of the merge phase.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// Final labels over all `n` points (core flags not filled here —
    /// the driver overlays them from the executors' core lists).
    pub clustering: Clustering,
    /// Number of global clusters after merging.
    pub merged_clusters: usize,
    /// Number of merge operations performed.
    pub merge_ops: usize,
    /// Scan passes over the partial clusters (1 for single-pass and
    /// union-find).
    pub passes: usize,
}

/// The owner table, the entry of every merge: `owner[p]` = index of the
/// partial cluster holding `p` as a *regular* element (unique by
/// construction — one assignment per point per partition, ranges
/// disjoint), flagged `NOT_CORE` unless `p` is a core point; `UNOWNED`
/// for a point no partial holds as a regular. Partials are indexed in
/// the order `partials` yields them. Reads only the regulars of each
/// partial, so an unflagged entry under a SEED is exactly a core SEED's
/// master.
pub(crate) fn fill_owner<'a>(
    n: usize,
    partials: impl Iterator<Item = PartialView<'a>>,
    core: &[bool],
) -> Vec<u32> {
    assert_eq!(core.len(), n, "core flags must cover every point");
    let mut owner = vec![UNOWNED; n];
    let mut m = 0usize;
    for (i, c) in partials.enumerate() {
        debug_assert!(
            c.regulars.iter().all(|&r| (c.range.0..c.range.1).contains(&r))
                && c.seeds.iter().all(|&s| !(c.range.0..c.range.1).contains(&s)),
            "partial cluster members must list regulars before SEEDs"
        );
        for &r in c.regulars {
            debug_assert!(
                owner[r as usize] == UNOWNED,
                "point {r} regular in two partial clusters"
            );
            owner[r as usize] = if core[r as usize] { i as u32 } else { i as u32 | NOT_CORE };
        }
        m = i + 1;
    }
    assert!(m < NOT_CORE as usize, "partial indices must leave the flag bit free");
    owner
}

/// The union-find merge over `n` points: owner fill, SEED scan with
/// unions, relabel. `symmetric_seeds` turns on forward-only unions and
/// is sound only when every core-SEED edge has its reverse (see the
/// module docs); with `false` every edge is unioned, which is exact for
/// any input.
pub fn merge_union_find(
    n: usize,
    partials: &[PartialCluster],
    core: &[bool],
    symmetric_seeds: bool,
) -> MergeOutcome {
    let views = || partials.iter().map(PartialCluster::view);
    let owner = fill_owner(n, views(), core);
    union_seeds(views(), partials.len(), owner, symmetric_seeds, [])
}

/// [`merge_union_find`] over the partials of `arenas`, read in place:
/// arena by arena, each in its own order, with the border candidates of
/// forward-only arenas folded into the border list. Over arenas that
/// hold every SEED it equals [`merge_union_find`] over the arenas
/// converted with [`PartialArena::into_partials`] and concatenated.
pub fn merge_union_find_arenas(
    n: usize,
    arenas: &[PartialArena],
    core: &[bool],
    symmetric_seeds: bool,
) -> MergeOutcome {
    let views = || arenas.iter().flat_map(PartialArena::views);
    let owner = fill_owner(n, views(), core);
    let m = arenas.iter().map(PartialArena::len).sum();
    union_seeds(views(), m, owner, symmetric_seeds, border_candidates(arenas))
}

/// The border candidates of every forward-only arena in `arenas`.
pub(crate) fn border_candidates(arenas: &[PartialArena]) -> impl Iterator<Item = (u32, u32)> + '_ {
    arenas.iter().flat_map(|a| a.border_candidates().iter().copied())
}

/// Loops 2 and 3 of the union-find merge over the `m` partials of
/// `partials` and their filled `owner` table: union each partial with
/// the master of every core SEED as the scan meets it (only SEEDs above
/// the partial's range when `symmetric_seeds`), list the other SEEDs
/// and the `candidates` `(s, q)` whose `q` is an owned core point, then
/// relabel the regulars and that list, reusing the table for the
/// labels. `merge_ops` counts the unions that join two components.
pub(crate) fn union_seeds<'a>(
    partials: impl Iterator<Item = PartialView<'a>>,
    m: usize,
    mut owner: Vec<u32>,
    symmetric_seeds: bool,
    candidates: impl IntoIterator<Item = (u32, u32)>,
) -> MergeOutcome {
    let mut dsu = DisjointSet::new(m);
    let mut merge_ops = 0usize;
    // (point, partial) for every SEED on a point that is not an owned
    // core point
    let mut border: Vec<(u32, u32)> = Vec::new();
    for (i, c) in partials.enumerate() {
        // the smallest SEED this partial unions through
        let first = if symmetric_seeds { c.range.1 } else { 0 };
        for &s in c.seeds {
            let j = owner[s as usize];
            if j & NOT_CORE != 0 {
                border.push((s, i as u32));
                continue;
            }
            // a SEED below `first` unions the partial with itself, which
            // the union answers from one parent comparison: a select,
            // where a branch on the forward test would mispredict on
            // about half the SEEDs, which come in no index order
            let master = if s >= first { j as usize } else { i };
            if dsu.union(i, master) {
                merge_ops += 1;
            }
        }
    }
    // a candidate on core point `q` is the SEED on `s` that `q`'s owner
    // dropped
    for (s, q) in candidates {
        let j = owner[q as usize];
        if j & NOT_CORE == 0 {
            border.push((s, j));
        }
    }
    // each regular takes its partial's key from the owner table; only
    // border-list points can be held by more than one partial
    let keys = group_keys(&mut dsu);
    for w in owner.iter_mut().filter(|w| **w != UNOWNED) {
        *w = keys[(*w & !NOT_CORE) as usize];
    }
    for &(p, i) in &border {
        let w = &mut owner[p as usize];
        *w = (*w).min(keys[i as usize]);
    }
    number_groups(owner, m, merge_ops, 1)
}

/// Extract the core SEED → master edges in partial order: `(i, master)`
/// for every core SEED of partial `i` that some partial holds as a
/// regular element. Duplicates (several SEEDs of one partial landing in
/// the same master, as under [`SeedPolicy::PerBoundaryEdge`]) are kept.
/// `_threads` is ignored: the pass is sequential.
///
/// The driver no longer builds this list — [`merge_union_find`] unions
/// the edges as it scans them. This two-call path
/// (`extract_seed_edges` + [`merge_with_edges`]) serves only the
/// benchmark's per-layer pass and the merge reference tests, and goes
/// once the benchmark reads the run report instead.
///
/// [`SeedPolicy::PerBoundaryEdge`]: crate::SeedPolicy::PerBoundaryEdge
pub fn extract_seed_edges(
    n: usize,
    partials: &[PartialCluster],
    core: &[bool],
    _threads: usize,
) -> Vec<(u32, u32)> {
    let owner = fill_owner(n, partials.iter().map(PartialCluster::view), core);
    let mut edges = Vec::new();
    for (i, c) in partials.iter().enumerate() {
        for &s in c.view().seeds {
            let j = owner[s as usize];
            if j & NOT_CORE == 0 {
                edges.push((i as u32, j));
            }
        }
    }
    edges
}

/// Union the edges of [`extract_seed_edges`] and relabel. `merge_ops`
/// counts the unions that join two components. `_threads` is ignored:
/// the pass is sequential. Like `extract_seed_edges`, this serves only
/// the benchmark's per-layer pass and the merge reference tests.
pub fn merge_with_edges(
    n: usize,
    partials: &[PartialCluster],
    edges: &[(u32, u32)],
    _threads: usize,
) -> MergeOutcome {
    let mut dsu = DisjointSet::new(partials.len());
    let merge_ops = edges.iter().filter(|&&(a, b)| dsu.union(a as usize, b as usize)).count();
    relabel(n, partials, &group_keys(&mut dsu), merge_ops, 1)
}

/// Each partial's group key: the smallest partial index of its
/// union-find component, which min-root linking makes the root.
fn group_keys(dsu: &mut DisjointSet) -> Vec<u32> {
    (0..dsu.len()).map(|i| dsu.find(i) as u32).collect()
}

/// Canonical relabel over every member. `keys[i]` names partial `i`'s
/// group by the group's smallest partial index, and a point takes the
/// smallest key among the partials holding it.
fn relabel(
    n: usize,
    partials: &[PartialCluster],
    keys: &[u32],
    merge_ops: usize,
    passes: usize,
) -> MergeOutcome {
    let mut winner = vec![UNOWNED; n];
    for (c, &key) in partials.iter().zip(keys) {
        for &p in &c.members {
            let w = &mut winner[p as usize];
            *w = (*w).min(key);
        }
    }
    number_groups(winner, partials.len(), merge_ops, passes)
}

/// Labels from `winner[p]`, the key of the group that labels point `p`
/// (`UNOWNED` for noise): every key that wins a point gets a cluster id
/// in ascending key order. This is first-assignment-wins (DBSCAN border
/// semantics) over the groups ordered by smallest member: the first
/// group to reach a point labels it, and a group that labels no point
/// consumes no id.
fn number_groups(winner: Vec<u32>, m: usize, merge_ops: usize, passes: usize) -> MergeOutcome {
    // mark the winning keys with 0, then number them in key order
    let mut id_of_key = vec![UNOWNED; m];
    for &w in winner.iter().filter(|&&w| w != UNOWNED) {
        id_of_key[w as usize] = 0;
    }
    let mut next = 0u32;
    for id in id_of_key.iter_mut().filter(|id| **id == 0) {
        *id = next;
        next += 1;
    }
    let labels = winner
        .iter()
        .map(|&w| if w == UNOWNED { Label::Noise } else { Label::Cluster(id_of_key[w as usize]) })
        .collect();
    let n = winner.len();
    MergeOutcome {
        clustering: Clustering { labels, core: vec![false; n] },
        merged_clusters: next as usize,
        merge_ops,
        passes,
    }
}

/// Merge `partials` into global clusters over `n` points.
///
/// `core[idx]` must say whether global point `idx` is a core point;
/// only core SEEDs trigger merges (see module docs).
pub fn merge_partial_clusters(
    n: usize,
    partials: &[PartialCluster],
    strategy: MergeStrategy,
    core: &[bool],
) -> MergeOutcome {
    let fixpoint = match strategy {
        // the SEED policy is unknown here, so every edge is unioned
        MergeStrategy::UnionFind => return merge_union_find(n, partials, core, false),
        MergeStrategy::PaperSinglePass => false,
        MergeStrategy::PaperFixpoint => true,
    };
    let owner = fill_owner(n, partials.iter().map(PartialCluster::view), core);
    let (keys, merge_ops, passes) = paper_groups(partials, &owner, fixpoint);
    relabel(n, partials, &keys, merge_ops, passes)
}

/// Algorithm 4 as printed (optionally repeated to a fixpoint). Returns
/// each partial's group key (the group's smallest partial index), the
/// merge count and the number of passes.
fn paper_groups(
    partials: &[PartialCluster],
    owner: &[u32],
    fixpoint: bool,
) -> (Vec<u32>, usize, usize) {
    let m = partials.len();
    // group_of[i]: index of the active group this partial belongs to
    let mut group_of: Vec<usize> = (0..m).collect();
    let mut groups: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
    let mut merge_ops = 0usize;
    let mut passes = 0usize;

    loop {
        passes += 1;
        let mut merged_this_pass = false;
        // line 1: for i = 0 .. all partial clusters
        for g in 0..groups.len() {
            if groups[g].is_empty() {
                continue; // absorbed earlier ("finished")
            }
            // line 3: identify seeds from the (current) cluster
            let seed_masters: Vec<usize> = {
                let constituents = &groups[g];
                let mut masters = Vec::new();
                for &i in constituents {
                    for s in partials[i].seeds() {
                        let j = owner[s as usize];
                        if j & NOT_CORE == 0 {
                            let tg = group_of[j as usize];
                            if tg != g {
                                masters.push(tg);
                            }
                        }
                    }
                }
                masters
            };
            // lines 4-8: merge each master into the current cluster
            for tg0 in seed_masters {
                // the master group may itself have been merged meanwhile;
                // chase its current location
                let tg = current_group(&group_of, &groups, tg0);
                if tg == g || groups[tg].is_empty() {
                    continue;
                }
                let absorbed = std::mem::take(&mut groups[tg]);
                for &i in &absorbed {
                    group_of[i] = g;
                }
                groups[g].extend(absorbed);
                merge_ops += 1;
                merged_this_pass = true;
            }
        }
        if !fixpoint || !merged_this_pass {
            break;
        }
    }

    let mut keys = vec![0u32; m];
    for g in &groups {
        if let Some(&key) = g.iter().min() {
            for &i in g {
                keys[i] = key as u32;
            }
        }
    }
    (keys, merge_ops, passes)
}

/// Follow `group_of` to the group that currently holds `g`'s first
/// member (groups may have been drained by earlier merges in the pass).
fn current_group(group_of: &[usize], groups: &[Vec<usize>], g: usize) -> usize {
    if let Some(&first) = groups[g].first() {
        group_of[first]
    } else {
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a partial cluster quickly, listing `members` in the layout
    /// contract's order: the regulars, then the SEEDs, each in the
    /// given order.
    fn pc(owner: u32, range: (u32, u32), members: &[u32]) -> PartialCluster {
        let mut c = PartialCluster::new(owner, range);
        let (regulars, seeds): (Vec<u32>, Vec<u32>) =
            members.iter().partition(|&&m| c.is_regular(m));
        c.members = [regulars, seeds].concat();
        c
    }

    const STRATEGIES: [MergeStrategy; 3] =
        [MergeStrategy::PaperSinglePass, MergeStrategy::PaperFixpoint, MergeStrategy::UnionFind];

    #[test]
    fn figure4_example_merges_two_clusters() {
        // C[0]: range 0..2500 with SEED 3000; C[5]: range 2500..5000
        // containing 3000 as a regular element
        let c0 = pc(0, (0, 2500), &[0, 5, 6, 3000, 11, 223, 2300, 23, 45, 1000]);
        let c5 = pc(1, (2500, 5000), &[3000, 2501, 4200, 2800, 2600, 3401, 3678]);
        for s in STRATEGIES {
            let out = merge_partial_clusters(5000, &[c0.clone(), c5.clone()], s, &vec![true; 5000]);
            assert_eq!(out.merged_clusters, 1, "{s:?}");
            assert_eq!(out.merge_ops, 1);
            // every member of both partials has the same label
            let l = out.clustering.labels[0];
            for &m in c0.members.iter().chain(&c5.members) {
                assert_eq!(out.clustering.labels[m as usize], l);
            }
        }
    }

    #[test]
    fn disjoint_partials_stay_separate() {
        let a = pc(0, (0, 10), &[1, 2, 3]);
        let b = pc(1, (10, 20), &[11, 12]);
        for s in STRATEGIES {
            let out = merge_partial_clusters(20, &[a.clone(), b.clone()], s, &[true; 20]);
            assert_eq!(out.merged_clusters, 2, "{s:?}");
            assert_eq!(out.merge_ops, 0);
            assert_ne!(out.clustering.labels[1], out.clustering.labels[11]);
        }
    }

    #[test]
    fn seed_to_unowned_point_is_harmless() {
        // the SEED points at a noise point of the foreign partition
        // (regular member of no partial cluster)
        let a = pc(0, (0, 10), &[1, 2, 15]);
        let b = pc(1, (10, 20), &[11, 12]);
        for s in STRATEGIES {
            let out = merge_partial_clusters(20, &[a.clone(), b.clone()], s, &[true; 20]);
            assert_eq!(out.merged_clusters, 2, "{s:?}");
            // the seed itself still gets cluster a's label (border point)
            assert_eq!(out.clustering.labels[15], out.clustering.labels[1]);
        }
    }

    #[test]
    fn transitive_chain_across_three_partitions() {
        // A --seed--> B --seed--> C: single-pass processes A first and,
        // per the printed algorithm, does not chase B's seeds — catching
        // this divergence is exactly why the hardened modes exist.
        // Here the chain happens to be discovered because the pass also
        // visits B's group (now merged into A) ... single-pass CAN catch
        // chains when order is favourable; build the unfavourable order:
        // C first would finish C before B merges into A.
        let a = pc(0, (0, 10), &[1, 12]); // seed into B's range
        let b = pc(1, (10, 20), &[12, 22]); // seed into C's range
        let c = pc(2, (20, 30), &[22, 25]);
        let partials = [c.clone(), a.clone(), b.clone()]; // C scanned first
        let uf = merge_partial_clusters(30, &partials, MergeStrategy::UnionFind, &[true; 30]);
        assert_eq!(uf.merged_clusters, 1);
        let fx = merge_partial_clusters(30, &partials, MergeStrategy::PaperFixpoint, &[true; 30]);
        assert_eq!(fx.merged_clusters, 1);
        assert!(fx.passes >= 1);
        // single-pass on this order still merges everything reachable
        // through regular-member seeds transitively chased via groups;
        // assert it never *splits* what union-find joins into more
        // clusters than fixpoint + document the count
        let sp = merge_partial_clusters(30, &partials, MergeStrategy::PaperSinglePass, &[true; 30]);
        assert!(sp.merged_clusters >= uf.merged_clusters);
    }

    #[test]
    fn fixpoint_equals_unionfind_on_random_topologies() {
        // pseudo-random seed graphs over k partials
        let mut state = 0x12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..50 {
            let k = 2 + (next() % 8) as usize;
            let per = 5u32;
            let n = k as u32 * per;
            let mut partials: Vec<PartialCluster> = (0..k)
                .map(|i| {
                    let a = i as u32 * per;
                    pc(i as u32, (a, a + per), &[a, a + 1])
                })
                .collect();
            // sprinkle random seeds
            for _ in 0..(next() % 10) {
                let from = (next() % k as u64) as usize;
                let to_point = (next() % n as u64) as u32;
                if !partials[from].is_regular(to_point) {
                    partials[from].members.push(to_point);
                }
            }
            let uf = merge_partial_clusters(
                n as usize,
                &partials,
                MergeStrategy::UnionFind,
                &vec![true; n as usize],
            );
            let fx = merge_partial_clusters(
                n as usize,
                &partials,
                MergeStrategy::PaperFixpoint,
                &vec![true; n as usize],
            );
            assert_eq!(uf.merged_clusters, fx.merged_clusters, "trial {trial}");
            assert_eq!(
                uf.clustering.canonicalize().labels,
                fx.clustering.canonicalize().labels,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn empty_input() {
        for s in STRATEGIES {
            let out = merge_partial_clusters(5, &[], s, &[false; 5]);
            assert_eq!(out.merged_clusters, 0);
            assert_eq!(out.clustering.noise_count(), 5);
        }
    }

    #[test]
    fn duplicate_members_after_merge_get_one_label() {
        let a = pc(0, (0, 10), &[1, 12]);
        let b = pc(1, (10, 20), &[12, 13]);
        let out = merge_partial_clusters(20, &[a, b], MergeStrategy::UnionFind, &[true; 20]);
        assert_eq!(out.merged_clusters, 1);
        assert!(out.clustering.labels[12].is_cluster());
    }

    #[test]
    fn border_seed_does_not_weld_clusters() {
        // point 12 is a shared BORDER point: regular member of b, SEED
        // of a — merging would be wrong, the clusters stay apart
        let a = pc(0, (0, 10), &[1, 2, 12]);
        let b = pc(1, (10, 20), &[12, 13, 14]);
        let mut core = vec![true; 20];
        core[12] = false;
        for s in STRATEGIES {
            let out = merge_partial_clusters(20, &[a.clone(), b.clone()], s, &core);
            assert_eq!(out.merged_clusters, 2, "{s:?}: border seed must not merge");
            assert_ne!(out.clustering.labels[1], out.clustering.labels[13]);
            // the border point itself is labeled (first-wins)
            assert!(out.clustering.labels[12].is_cluster());
        }
    }

    #[test]
    fn core_seed_still_welds_clusters() {
        let a = pc(0, (0, 10), &[1, 2, 12]);
        let b = pc(1, (10, 20), &[12, 13, 14]);
        let core = vec![true; 20];
        for s in STRATEGIES {
            let out = merge_partial_clusters(20, &[a.clone(), b.clone()], s, &core);
            assert_eq!(out.merged_clusters, 1, "{s:?}");
        }
    }
}
