//! The union-find merge against a literal reference.
//!
//! The reference below is Algorithm 4's union-find merge written out
//! the slow, obvious way, sharing no code with `merge.rs`: components
//! by breadth-first search over the core SEED → master edges, groups
//! ordered by their smallest partial index, and the first-assignment-
//! wins label loop. Labels, cluster count and merge-op count must match
//! exactly — on random topologies, on hand-built corner cases and on
//! real partial clusters under both SEED policies.
//!
//! The forward-only path (`merge_union_find` with symmetric SEEDs)
//! rests on a premise about the executors: under exact
//! `PerBoundaryEdge` queries every core-SEED edge `(i, j)` has its
//! reverse `(j, i)`. The premise is pinned on real partials, the fast
//! path on symmetric random topologies, and an asymmetric topology shows
//! why the full path stays for every other configuration. The driver's
//! exact runs go further and ship only forward SEEDs plus border
//! candidates; they are checked against full-SEED runs of the same
//! configuration, on random data and on hand-built 1-d fixtures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scalable_dbscan::datagen::{ClusterGenerator, GeneratorParams, StandardDataset};
use scalable_dbscan::dbscan::{
    extract_seed_edges, filter_small_partials, local_partial_clusters, merge_partial_clusters,
    merge_union_find, merge_union_find_arenas, merge_with_edges, DbscanParams, Label,
    MergeStrategy, PartialArena, PartialCluster, PartitionRanges, SeedPolicy, SparkDbscan,
    SparkDbscanResult,
};
use scalable_dbscan::engine::{ClusterConfig, Context};
use scalable_dbscan::spatial::{BkdTree, Dataset, PruneConfig, QueryScratch};
use std::collections::HashSet;
use std::sync::Arc;

/// Literal union-find merge: `(labels, merged_clusters, merge_ops)`.
fn reference_merge(
    n: usize,
    partials: &[PartialCluster],
    core: &[bool],
) -> (Vec<Label>, usize, usize) {
    let m = partials.len();
    // undirected adjacency over the core SEED → master edges
    let mut adj = vec![Vec::new(); m];
    for (i, j) in core_seed_edges(n, partials, core) {
        adj[i].push(j);
        adj[j].push(i);
    }
    // BFS from each unvisited partial in index order, so the groups
    // come out ordered by their smallest partial index
    let mut seen = vec![false; m];
    let mut groups = Vec::new();
    for start in 0..m {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut group = vec![start];
        let mut next = 0;
        while next < group.len() {
            for &j in &adj[group[next]] {
                if !seen[j] {
                    seen[j] = true;
                    group.push(j);
                }
            }
            next += 1;
        }
        groups.push(group);
    }
    // first assignment wins; a group that labels no point takes no id
    let mut labels = vec![Label::Noise; n];
    let mut clusters = 0u32;
    for group in &groups {
        let mut any = false;
        for &i in group {
            for &p in &partials[i].members {
                if labels[p as usize] == Label::Noise {
                    labels[p as usize] = Label::Cluster(clusters);
                    any = true;
                }
            }
        }
        if any {
            clusters += 1;
        }
    }
    (labels, clusters as usize, m - groups.len())
}

/// The directed core SEED → master edges `(i, j)`: core SEED `s` of
/// partial `i` is a regular member of partial `j`.
fn core_seed_edges(n: usize, partials: &[PartialCluster], core: &[bool]) -> Vec<(usize, usize)> {
    let regular = |c: &PartialCluster, p: u32| c.range.0 <= p && p < c.range.1;
    // the master of a point: the partial holding it as a regular member
    let mut master = vec![None; n];
    for (i, c) in partials.iter().enumerate() {
        for &p in c.members.iter().filter(|&&p| regular(c, p)) {
            master[p as usize] = Some(i);
        }
    }
    let mut edges = Vec::new();
    for (i, c) in partials.iter().enumerate() {
        for &s in c.members.iter().filter(|&&s| !regular(c, s) && core[s as usize]) {
            if let Some(j) = master[s as usize] {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// Check the one-call merge and the two-call pipeline against the
/// reference.
fn assert_matches_reference(n: usize, partials: &[PartialCluster], core: &[bool], case: &str) {
    let (labels, clusters, ops) = reference_merge(n, partials, core);
    let whole = merge_partial_clusters(n, partials, MergeStrategy::UnionFind, core);
    let edges = extract_seed_edges(n, partials, core, 1);
    let split = merge_with_edges(n, partials, &edges, 1);
    for (path, out) in [("one call", whole), ("two calls", split)] {
        assert_eq!(out.clustering.labels, labels, "{case} ({path}): labels");
        assert_eq!(out.merged_clusters, clusters, "{case} ({path}): merged_clusters");
        assert_eq!(out.merge_ops, ops, "{case} ({path}): merge_ops");
    }
}

/// Build a partial cluster quickly.
fn pc(owner: u32, range: (u32, u32), members: &[u32]) -> PartialCluster {
    PartialCluster { owner, range, members: members.to_vec() }
}

/// Seeded random topology: k partials over disjoint ranges plus
/// sprinkled cross-partition seeds and random core flags.
fn random_topology(seed: u64) -> (usize, Vec<PartialCluster>, Vec<bool>) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let k = 2 + (next() % 12) as usize;
    let per = 6u32;
    let n = k as u32 * per;
    let mut partials: Vec<PartialCluster> = (0..k)
        .map(|i| {
            let a = i as u32 * per;
            pc(i as u32, (a, a + per), &[a, a + 1, a + 2])
        })
        .collect();
    for _ in 0..(next() % 24) {
        let from = (next() % k as u64) as usize;
        let to_point = (next() % n as u64) as u32;
        if !partials[from].is_regular(to_point) {
            partials[from].members.push(to_point);
        }
    }
    let core: Vec<bool> = (0..n).map(|_| next() % 4 != 0).collect();
    (n as usize, partials, core)
}

#[test]
fn merge_matches_reference_on_random_topologies() {
    for trial in 0..60u64 {
        let (n, partials, core) = random_topology(0xABCD + trial);
        assert_matches_reference(n, &partials, &core, &format!("trial {trial}"));
    }
}

#[test]
fn merge_matches_reference_on_corner_cases() {
    let all_core = vec![true; 30];
    // duplicate edges: two SEEDs of partial 0 land in partial 1, and
    // partial 1 seeds back into partial 0
    let dup = [pc(0, (0, 10), &[1, 2, 12, 13]), pc(1, (10, 20), &[12, 13, 2])];
    assert_matches_reference(30, &dup, &all_core, "duplicate edges");
    assert_eq!(merge_partial_clusters(30, &dup, MergeStrategy::UnionFind, &all_core).merge_ops, 1);

    // a SEED on a point no partial holds as a regular member
    let unowned = [pc(0, (0, 10), &[1, 2, 15]), pc(1, (10, 20), &[11, 12])];
    assert_matches_reference(30, &unowned, &all_core, "SEED on an unowned point");

    // a non-core SEED labels its point but welds nothing
    let mut core = all_core.clone();
    core[12] = false;
    let border = [pc(0, (0, 10), &[1, 2, 12]), pc(1, (10, 20), &[12, 13, 14])];
    assert_matches_reference(30, &border, &core, "non-core SEED");

    // point 25 is held by partial 1 (a non-core SEED) and by partial 2
    // (regular), and partial 2 joins partial 0 through core SEED 22: the
    // group {0, 2} comes first, so it labels 25 although partial 1 has
    // the smaller index
    let mut core = all_core.clone();
    core[25] = false;
    let two_groups =
        [pc(0, (0, 10), &[1, 22]), pc(1, (10, 20), &[11, 25]), pc(2, (20, 30), &[22, 25])];
    assert_matches_reference(30, &two_groups, &core, "point held by two groups");
    let out = merge_partial_clusters(30, &two_groups, MergeStrategy::UnionFind, &core);
    assert_eq!(out.clustering.labels[25], out.clustering.labels[1]);
    assert_ne!(out.clustering.labels[11], out.clustering.labels[1]);

    // a group whose every point is labelled by an earlier group takes no
    // cluster id
    let mut core = all_core;
    core[1] = false;
    let starved = [pc(0, (0, 10), &[1, 2]), pc(1, (10, 20), &[1]), pc(2, (20, 30), &[21])];
    assert_matches_reference(30, &starved, &core, "group that wins no point");
    let out = merge_partial_clusters(30, &starved, MergeStrategy::UnionFind, &core);
    assert_eq!(out.merged_clusters, 2);
    assert_eq!(out.clustering.labels[21], Label::Cluster(1));
}

/// Algorithms 2+3 over every partition of `data` against a
/// broadcast-style kd-tree queried under `prune`: the partials in the
/// driver's canonical order, and the core flags.
fn real_partials(
    data: &Arc<Dataset>,
    params: DbscanParams,
    partitions: usize,
    policy: SeedPolicy,
    prune: PruneConfig,
) -> (Vec<PartialCluster>, Vec<bool>) {
    let n = data.len();
    let tree = BkdTree::build(Arc::clone(data));
    let ranges = PartitionRanges::new(n, partitions);
    let mut scratch = QueryScratch::new();
    let mut partials = Vec::new();
    let mut core = vec![false; n];
    for p in 0..ranges.num_partitions() {
        let local = local_partial_clusters(
            |i, out| {
                tree.range_pruned_scratch(
                    data.row(i as usize),
                    params.eps,
                    prune,
                    &mut scratch,
                    out,
                );
            },
            params,
            &ranges,
            p,
            policy,
        );
        partials.extend(local.clusters);
        for c in local.core_points {
            core[c as usize] = true;
        }
    }
    partials.sort_by_key(|c| (c.owner, c.members.first().copied()));
    (partials, core)
}

/// Real partial clusters (Algorithms 2+3 over a broadcast-style
/// kd-tree) under both SEED policies.
#[test]
fn merge_matches_reference_on_real_partials() {
    for (trial, policy) in
        [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge].into_iter().enumerate()
    {
        let mut spec = StandardDataset::C10k.scaled_spec(8); // 1250 points
        spec.params.seed = 7000 + trial as u64;
        let (data, _) = spec.generate();
        let data = Arc::new(data);
        let params = DbscanParams::new(spec.eps, spec.min_pts).unwrap();
        let n = data.len();
        let (partials, core) = real_partials(&data, params, 6, policy, PruneConfig::EXACT);
        let edges = extract_seed_edges(n, &partials, &core, 1);
        assert!(!edges.is_empty(), "{policy:?}: the merge must have SEED edges to follow");
        assert_matches_reference(n, &partials, &core, &format!("{policy:?}"));
    }
}

/// Check the forward-only path (symmetric SEED edges) against the
/// reference.
fn assert_forward_only_matches_reference(
    n: usize,
    partials: &[PartialCluster],
    core: &[bool],
    case: &str,
) {
    let (labels, clusters, ops) = reference_merge(n, partials, core);
    let out = merge_union_find(n, partials, core, true);
    assert_eq!(out.clustering.labels, labels, "{case} (forward only): labels");
    assert_eq!(out.merged_clusters, clusters, "{case} (forward only): merged_clusters");
    assert_eq!(out.merge_ops, ops, "{case} (forward only): merge_ops");
}

/// The directed core-SEED edges that have no reverse edge.
fn one_way_edges(n: usize, partials: &[PartialCluster], core: &[bool]) -> Vec<(usize, usize)> {
    let edges: HashSet<(usize, usize)> = core_seed_edges(n, partials, core).into_iter().collect();
    let mut one_way: Vec<_> =
        edges.iter().copied().filter(|&(i, j)| !edges.contains(&(j, i))).collect();
    one_way.sort_unstable();
    one_way
}

/// A scaled-down copy of the merge-bound benchmark's 2-d input:
/// Gaussian clumps plus 10% uniform noise, clustered at eps 2, minpts 5.
fn clumpy_2d(seed: u64) -> (Arc<Dataset>, DbscanParams) {
    let gen = GeneratorParams { noise_fraction: 0.10, ..GeneratorParams::new(8000, 2, 4, seed) };
    let (data, _) = ClusterGenerator::new(gen).generate();
    (Arc::new(data), DbscanParams::new(2.0, 5).unwrap())
}

/// The premise of the forward-only path: every core point is queried
/// once and distances are bitwise symmetric, so under exact
/// `PerBoundaryEdge` queries each core-SEED edge `(i, j)` comes with
/// `(j, i)`. A change to the executors that breaks this fails here
/// rather than silently in the merge.
#[test]
fn exact_per_boundary_edge_seed_edges_are_symmetric() {
    let mut spec = StandardDataset::C10k.scaled_spec(8);
    spec.params.seed = 7001;
    let c10k = Arc::new(spec.generate().0);
    let c10k_params = DbscanParams::new(spec.eps, spec.min_pts).unwrap();
    let (d2, d2_params) = clumpy_2d(11);
    for (name, data, params, partitions) in
        [("c10k/8 at 6", c10k, c10k_params, 6), ("clumpy 2-d at 48", d2, d2_params, 48)]
    {
        let n = data.len();
        let (partials, core) = real_partials(
            &data,
            params,
            partitions,
            SeedPolicy::PerBoundaryEdge,
            PruneConfig::EXACT,
        );
        let edges = core_seed_edges(n, &partials, &core);
        assert!(edges.len() >= 100, "{name}: only {} SEED edges", edges.len());
        assert_eq!(one_way_edges(n, &partials, &core), vec![], "{name}: edges without a reverse");
        assert_forward_only_matches_reference(n, &partials, &core, name);
    }
}

/// Mirror every core-SEED edge `(i, j)`: partial `j` gains a SEED on a
/// regular core point of partial `i`. Every partial first gets a
/// regular core point, so the mirrors add no edge of their own.
fn symmetrize(n: usize, partials: &mut [PartialCluster], core: &mut [bool]) {
    let anchor: Vec<u32> = partials
        .iter()
        .map(|c| {
            let r = c.regulars().find(|&r| core[r as usize]).or_else(|| c.regulars().next());
            let r = r.expect("every random partial has regular members");
            core[r as usize] = true;
            r
        })
        .collect();
    for (i, j) in core_seed_edges(n, partials, core) {
        partials[j].members.push(anchor[i]);
    }
}

/// The forward test keys on a SEED's position against its partial's
/// range, not on partial indices, so it must hold whatever order the
/// partials come in: each topology also runs with its partials
/// shuffled, which puts partial index order and range order apart.
#[test]
fn forward_only_merge_matches_reference_on_symmetric_topologies() {
    let mut rng = StdRng::seed_from_u64(0xF0F0);
    for trial in 0..60u64 {
        let (n, mut partials, mut core) = random_topology(0xABCD + trial);
        symmetrize(n, &mut partials, &mut core);
        let case = format!("symmetric trial {trial}");
        assert_eq!(one_way_edges(n, &partials, &core), vec![], "{case}: not symmetric");
        assert_forward_only_matches_reference(n, &partials, &core, &case);
        partials.shuffle(&mut rng);
        assert_forward_only_matches_reference(n, &partials, &core, &format!("{case} shuffled"));
    }
}

/// Where a SEED edge has no reverse the forward-only path would drop a
/// union, so the full path must stay for `OnePerPartition` and for
/// pruned queries — which the driver's merge does.
#[test]
fn full_edge_path_matches_reference_on_asymmetric_topologies() {
    // partial 1 seeds core point 2 of partial 0; nothing seeds back
    let all_core = [true; 20];
    let one_way = [pc(0, (0, 10), &[1, 2]), pc(1, (10, 20), &[11, 12, 2])];
    assert_eq!(one_way_edges(20, &one_way, &all_core), vec![(1, 0)]);
    let forward = merge_union_find(20, &one_way, &all_core, true);
    assert_eq!((forward.merged_clusters, forward.merge_ops), (2, 0), "the union is dropped");
    assert_matches_reference(20, &one_way, &all_core, "one-way edge");

    // real partials whose SEED edges are not symmetric, and the
    // driver's merge over the same configuration
    let (data, params) = clumpy_2d(12);
    let n = data.len();
    let partitions = 32;
    let ctx = Context::new(ClusterConfig::local(2));
    let configs = [
        ("OnePerPartition", SeedPolicy::OnePerPartition, PruneConfig::EXACT),
        ("pruned PerBoundaryEdge", SeedPolicy::PerBoundaryEdge, PruneConfig::cap_neighbors(8)),
    ];
    for (name, policy, prune) in configs {
        let (partials, core) = real_partials(&data, params, partitions, policy, prune);
        assert!(!one_way_edges(n, &partials, &core).is_empty(), "{name}: edges are symmetric");
        assert_matches_reference(n, &partials, &core, name);
        let (labels, _, ops) = reference_merge(n, &partials, &core);
        let run = SparkDbscan::new(params)
            .partitions(partitions)
            .seed_policy(policy)
            .merge_strategy(MergeStrategy::UnionFind)
            .prune(prune)
            .run(&ctx, Arc::clone(&data));
        assert_eq!(run.num_partial_clusters, partials.len(), "{name}: driver partials");
        assert_eq!(run.clustering.labels, labels, "{name}: driver labels");
        assert_eq!(run.merge_ops, ops, "{name}: driver merge_ops");
    }
}

/// The partials grouped into arenas as the executors emit them: one per
/// run of consecutive partials of one owner, in order.
fn arenas_of(partials: &[PartialCluster]) -> Vec<PartialArena> {
    let mut arenas: Vec<PartialArena> = Vec::new();
    for c in partials {
        if arenas.last().is_none_or(|a| a.owner != c.owner) {
            arenas.push(PartialArena::new(c.owner, c.range));
        }
        arenas.last_mut().expect("an arena for this owner").push(c);
    }
    arenas
}

/// The union-find read in place over arenas against `merge_union_find`
/// over the same arenas converted to owned partials, forward-only and
/// full. Returns how many partials shared an arena with another.
fn assert_arena_merge_matches(
    n: usize,
    partials: &[PartialCluster],
    core: &[bool],
    case: &str,
) -> usize {
    let arenas = arenas_of(partials);
    let converted: Vec<PartialCluster> =
        arenas.iter().cloned().flat_map(PartialArena::into_partials).collect();
    assert_eq!(converted, partials, "{case}: the arenas convert back to their partials");
    for symmetric in [false, true] {
        let want = merge_union_find(n, &converted, core, symmetric);
        let got = merge_union_find_arenas(n, &arenas, core, symmetric);
        let tag = format!("{case} (symmetric {symmetric})");
        assert_eq!(got.clustering, want.clustering, "{tag}: clustering");
        assert_eq!(got.merged_clusters, want.merged_clusters, "{tag}: merged_clusters");
        assert_eq!(got.merge_ops, want.merge_ops, "{tag}: merge_ops");
        assert_eq!(got.passes, want.passes, "{tag}: passes");
    }
    partials.len() - arenas.len()
}

/// The executors hand the driver one arena per task and the driver
/// merges them in place; every other caller merges owned partials. Both
/// must give the same outcome: on random and symmetric topologies, on
/// corner cases with unowned and non-core SEEDs, and on real partials
/// under both SEED policies, whole and with small partials filtered
/// out (which leaves SEEDs whose master is gone).
#[test]
fn arena_merge_matches_merge_over_converted_partials() {
    let mut rng = StdRng::seed_from_u64(0xA7E4A);
    for trial in 0..60u64 {
        let (n, mut partials, mut core) = random_topology(0xABCD + trial);
        let case = format!("trial {trial}");
        assert_arena_merge_matches(n, &partials, &core, &case);
        symmetrize(n, &mut partials, &mut core);
        assert_arena_merge_matches(n, &partials, &core, &format!("symmetric {case}"));
        partials.shuffle(&mut rng);
        assert_arena_merge_matches(n, &partials, &core, &format!("shuffled {case}"));
    }

    let all_core = vec![true; 30];
    let unowned = [pc(0, (0, 10), &[1, 2, 15]), pc(1, (10, 20), &[11, 12])];
    assert_arena_merge_matches(30, &unowned, &all_core, "SEED on an unowned point");
    let mut core = all_core.clone();
    core[12] = false;
    let border =
        [pc(0, (0, 10), &[1, 2, 12]), pc(1, (10, 20), &[12, 13, 14]), pc(1, (10, 20), &[16])];
    assert_arena_merge_matches(30, &border, &core, "non-core SEED");
    assert_arena_merge_matches(30, &[], &all_core, "no partials");

    let (data, params) = clumpy_2d(13);
    let n = data.len();
    let mut shared = 0;
    for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
        for prune in [PruneConfig::EXACT, PruneConfig::cap_neighbors(8)] {
            let (partials, core) = real_partials(&data, params, 24, policy, prune);
            let case = format!("{policy:?} {prune:?}");
            shared += assert_arena_merge_matches(n, &partials, &core, &case);
            let kept = filter_small_partials(partials.clone(), 3);
            assert!(kept.len() < partials.len(), "{case}: the filter must drop partials");
            let held = |ps: &[PartialCluster]| -> HashSet<u32> {
                ps.iter().flat_map(PartialCluster::regulars).collect()
            };
            let (before, after) = (held(&partials), held(&kept));
            let dangling = kept.iter().flat_map(PartialCluster::seeds);
            let dangling = dangling.filter(|&s| core[s as usize] && before.contains(&s));
            let dangling = dangling.filter(|s| !after.contains(s)).count();
            assert!(dangling > 0, "{case}: the filter must leave core SEEDs without a master");
            shared += assert_arena_merge_matches(n, &kept, &core, &format!("{case} filtered"));
        }
    }
    assert!(shared > 1000, "tasks must emit many partials per arena: {shared}");
}

/// `SparkDbscan::exact()` merges forward-only arenas: its executors
/// ship only the SEEDs above their range and list border candidates for
/// the rest. `min_partial_size(1)` filters nothing but takes the owned
/// partials, which carry every SEED. Both must give the same result.
fn assert_forward_only_run_matches_full_seeds(
    ctx: &Context,
    data: &Arc<Dataset>,
    params: DbscanParams,
    partitions: usize,
    case: &str,
) -> SparkDbscanResult {
    let run = |exact: SparkDbscan| exact.partitions(partitions).run(ctx, Arc::clone(data));
    let forward = run(SparkDbscan::new(params).exact());
    let full = run(SparkDbscan::new(params).exact().min_partial_size(1));
    assert_eq!(full.filtered_partials, 0, "{case}: a size-1 filter drops nothing");
    assert_eq!(forward.clustering, full.clustering, "{case}: clustering");
    let clusters = |r: &SparkDbscanResult| r.clustering.num_clusters();
    assert_eq!(clusters(&forward), clusters(&full), "{case}: merged clusters");
    assert_eq!(forward.merge_ops, full.merge_ops, "{case}: merge_ops");
    assert_eq!(forward.num_partial_clusters, full.num_partial_clusters, "{case}: partials");
    let seeds = |r: &SparkDbscanResult| -> usize {
        r.executor_stats.iter().map(|(_, s)| s.seeds_placed).sum()
    };
    assert!(seeds(&forward) <= seeds(&full), "{case}: forward-only ships more SEEDs");
    forward
}

/// Clumpy 1-d or 2-d rows on a coarse grid, so that equal points and
/// points exactly `eps` apart are common, in random index order, with
/// some rows NaN or ±inf in one coordinate.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let cell = (0usize..3, 0u32..24, 0u32..24, 0usize..16);
    (1usize..3, prop::collection::vec(cell, 1..90)).prop_map(|(dim, cells)| {
        cells
            .into_iter()
            .map(|(clump, x, y, odd)| {
                let mut row = vec![8.0 * clump as f64 + 0.25 * x as f64, 0.25 * y as f64];
                row.truncate(dim);
                let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                if let Some(&v) = hostile.get(odd) {
                    row[odd % dim] = v;
                }
                row
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random data against the full-SEED path, with a duplicate of the
    /// last point of every partition at the first index of the next, a
    /// `min_pts` of 1 among the settings, and up to twice as many
    /// partitions as points.
    #[test]
    fn forward_only_seeds_match_full_seeds(
        rows in arb_rows(),
        eps in 0.2f64..2.5,
        min_pts in 1usize..7,
        spread in 1usize..200,
    ) {
        let mut rows = rows;
        let n = rows.len();
        let partitions = 1 + spread % (2 * n);
        let ranges = PartitionRanges::new(n, partitions);
        for &cut in ranges.cut_points() {
            let cut = cut as usize;
            if 0 < cut && cut < n {
                rows[cut] = rows[cut - 1].clone();
            }
        }
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let ctx = Context::new(ClusterConfig::local(2));
        let case = format!("n={n} eps={eps} min_pts={min_pts} p={partitions}");
        assert_forward_only_run_matches_full_seeds(&ctx, &data, params, partitions, &case);
    }
}

/// Hand-built 1-d inputs at eps 1 (every coordinate a multiple of
/// 0.125, so no distance rounds across eps) for each way a non-core
/// point meets a foreign core point. Each row is `(case, coordinates,
/// partitions, border point, the point whose label it must take)`.
#[test]
fn forward_only_border_points_take_the_full_seed_labels() {
    let cases: [(&str, &[f64], usize, usize, usize); 5] = [
        // point 0 is non-core (min_pts 4: itself and 3.0) and its only
        // core neighbour, 3.0, lies in partition 1; only the candidate
        // (0, 3) labels it
        ("only core neighbour above", &[2.0, 50.0, 60.0, 3.0, 3.25, 3.5], 2, 0, 3),
        // point 5 is non-core and its only core neighbour, 3.5, lies in
        // partition 0, which ships point 5 as a forward SEED
        ("only core neighbour below", &[3.0, 3.25, 3.5, 50.0, 60.0, 4.5], 2, 5, 2),
        // point 4 (4.75) is local noise in partition 1 and touches the
        // cores 4.0 (cluster X, partition 0) and 5.5 (cluster Y,
        // partition 2); Y also holds 6.5, the first point of partition
        // 0, so Y's group key is the smaller and point 4 takes Y's
        // label, which only the candidate (4, 8) knows
        (
            "local noise between two foreign cores",
            &[6.5, 3.0, 3.25, 4.0, 4.75, 3.5, 100.0, 200.0, 5.5, 5.875, 6.125, 300.0],
            3,
            4,
            8,
        ),
        // the same, but 4.0 sits in partition 1 ahead of point 5
        // (4.75), so X claims point 5 before its own query finds it
        // non-core: the candidate comes from the claimed-border branch
        (
            "claimed border touching a foreign core above",
            &[6.5, 3.0, 3.25, 3.5, 4.0, 4.75, 100.0, 200.0, 5.5, 5.875, 6.125, 300.0],
            3,
            5,
            8,
        ),
        // a border point duplicated across the cut between partitions 0
        // and 1, whose only core neighbour lies in partition 2
        (
            "duplicate border straddling a cut",
            &[9.0, 2.0, 2.0, 30.0, 3.0, 3.25, 3.5, 40.0],
            4,
            1,
            4,
        ),
    ];
    let params = DbscanParams::new(1.0, 4).unwrap();
    let ctx = Context::new(ClusterConfig::local(2));
    for (case, coords, partitions, border, core_point) in cases {
        let data = Arc::new(Dataset::from_rows(coords.iter().map(|&x| vec![x]).collect()));
        let r = assert_forward_only_run_matches_full_seeds(&ctx, &data, params, partitions, case);
        let c = &r.clustering;
        assert!(!c.core[border] && c.core[core_point], "{case}: core flags");
        assert!(c.labels[border].is_cluster(), "{case}: the border point is labelled");
        assert_eq!(c.labels[border], c.labels[core_point], "{case}: border label");
    }
}
