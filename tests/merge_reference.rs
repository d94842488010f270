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
//! why the full path stays for every other configuration.

use scalable_dbscan::datagen::{ClusterGenerator, GeneratorParams, StandardDataset};
use scalable_dbscan::dbscan::{
    extract_seed_edges, local_partial_clusters, merge_partial_clusters, merge_union_find,
    merge_with_edges, DbscanParams, Label, MergeStrategy, PartialCluster, PartitionRanges,
    SeedPolicy, SparkDbscan,
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

#[test]
fn forward_only_merge_matches_reference_on_symmetric_topologies() {
    for trial in 0..60u64 {
        let (n, mut partials, mut core) = random_topology(0xABCD + trial);
        symmetrize(n, &mut partials, &mut core);
        let case = format!("symmetric trial {trial}");
        assert_eq!(one_way_edges(n, &partials, &core), vec![], "{case}: not symmetric");
        assert_forward_only_matches_reference(n, &partials, &core, &case);
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
