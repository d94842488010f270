//! The union-find merge against a literal reference.
//!
//! The reference below is Algorithm 4's union-find merge written out
//! the slow, obvious way, sharing no code with `merge.rs`: components
//! by breadth-first search over the core SEED → master edges, groups
//! ordered by their smallest partial index, and the first-assignment-
//! wins label loop. Labels, cluster count and merge-op count must match
//! exactly — on random topologies, on hand-built corner cases and on
//! real partial clusters under both SEED policies.

use scalable_dbscan::datagen::StandardDataset;
use scalable_dbscan::dbscan::{
    extract_seed_edges, local_partial_clusters, merge_partial_clusters, merge_with_edges,
    DbscanParams, Label, MergeStrategy, PartialCluster, PartitionRanges, SeedPolicy,
};
use scalable_dbscan::spatial::{BkdTree, SpatialIndex};
use std::sync::Arc;

/// Literal union-find merge: `(labels, merged_clusters, merge_ops)`.
fn reference_merge(
    n: usize,
    partials: &[PartialCluster],
    core: &[bool],
) -> (Vec<Label>, usize, usize) {
    let m = partials.len();
    let regular = |c: &PartialCluster, p: u32| c.range.0 <= p && p < c.range.1;
    // the master of a point: the partial holding it as a regular member
    let mut master = vec![None; n];
    for (i, c) in partials.iter().enumerate() {
        for &p in c.members.iter().filter(|&&p| regular(c, p)) {
            master[p as usize] = Some(i);
        }
    }
    // undirected adjacency over the core SEED → master edges
    let mut adj = vec![Vec::new(); m];
    for (i, c) in partials.iter().enumerate() {
        for &s in c.members.iter().filter(|&&s| !regular(c, s) && core[s as usize]) {
            if let Some(j) = master[s as usize] {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
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

/// Check the one-call merge and the driver's two-call pipeline against
/// the reference.
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
        let tree = BkdTree::build(Arc::clone(&data));
        let ranges = PartitionRanges::new(n, 6);

        let mut partials = Vec::new();
        let mut core = vec![false; n];
        for p in 0..ranges.num_partitions() {
            let local = local_partial_clusters(
                |i, out| tree.range_into(data.row(i as usize), params.eps, out),
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
        let edges = extract_seed_edges(n, &partials, &core, 1);
        assert!(!edges.is_empty(), "{policy:?}: the merge must have SEED edges to follow");
        assert_matches_reference(n, &partials, &core, &format!("{policy:?}"));
    }
}
