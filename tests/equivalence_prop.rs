//! Property tests: the hardened partitioned DBSCAN is equivalent to
//! sequential DBSCAN on core points for *arbitrary* data, parameters
//! and partition counts; the paper-literal configuration is equivalent
//! whenever clusters span at most two partitions and close to it
//! otherwise (checked via ARI). Both exact entry points are also
//! checked against an independent O(n²) all-pairs oracle ([`oracle`]).

use proptest::prelude::*;
use scalable_dbscan::dbscan::{
    core_labels_equivalent, DbscanParams, SequentialDbscan, SparkDbscan,
};
use scalable_dbscan::prelude::*;
use std::sync::Arc;

fn arb_dataset() -> impl Strategy<Value = Vec<Vec<f64>>> {
    // clumpy data: a few attractor centers plus jitter, so interesting
    // cluster structure actually arises
    (2usize..5, prop::collection::vec((0usize..4, -1.0f64..1.0, -1.0f64..1.0), 10..160)).prop_map(
        |(k, pts)| {
            let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)];
            pts.into_iter()
                .map(|(c, dx, dy)| {
                    let (cx, cy) = centers[c % k];
                    vec![cx + dx, cy + dy]
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_mode_always_matches_sequential(
        rows in arb_dataset(),
        eps in 0.2f64..3.0,
        min_pts in 2usize..6,
        partitions in 1usize..9,
    ) {
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let seq = SequentialDbscan::new(params).run(Arc::clone(&data));
        let ctx = Context::new(ClusterConfig::local(2));
        let par = SparkDbscan::new(params)
            .partitions(partitions)
            .exact()
            .run(&ctx, data);
        prop_assert!(
            core_labels_equivalent(&par.clustering, &seq),
            "eps={eps} min_pts={min_pts} p={partitions}: {} vs {} clusters",
            par.clustering.num_clusters(),
            seq.num_clusters()
        );
        prop_assert_eq!(par.clustering.noise_count(), seq.noise_count());
        prop_assert_eq!(par.shuffle_records, 0u64);
    }

    #[test]
    fn paper_mode_is_close_for_any_partition_count(
        rows in arb_dataset(),
        eps in 0.2f64..2.0,
        min_pts in 2usize..5,
        partitions in 2usize..9,
    ) {
        // the literal one-seed-per-partition rule is a heuristic: its
        // single SEED can land on a foreign *noise* point and miss the
        // real connection (one reason the reproduction grades the
        // paper's soundness low) — so we bound the damage instead of
        // asserting exactness
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let seq = SequentialDbscan::new(params).run(Arc::clone(&data));
        let ctx = Context::new(ClusterConfig::local(2));
        let par = SparkDbscan::new(params).partitions(partitions).run(&ctx, data);
        // provable invariants of the heuristic:
        // 1. it can split but never merge distinct true clusters
        prop_assert!(par.clustering.num_clusters() >= seq.num_clusters());
        // 2. every core point stays clustered (cores found locally)
        for i in 0..par.clustering.len() {
            if par.clustering.core[i] {
                prop_assert!(par.clustering.labels[i].is_cluster());
            }
        }
        // 3. it can only add noise (dropped borders), never remove it
        prop_assert!(par.clustering.noise_count() >= seq.noise_count());
        // (no ARI floor here: on adversarial shrunken inputs a single
        // missed merge can halve the only cluster and ARI with it — the
        // quality claim on realistic data lives in tests/end_to_end.rs)
    }

    #[test]
    fn partitioning_never_changes_core_points(
        rows in arb_dataset(),
        eps in 0.2f64..3.0,
        min_pts in 2usize..6,
        partitions in 1usize..9,
    ) {
        // core status is computed on the broadcast kd-tree over the full
        // dataset, so it must be identical no matter the partitioning
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let seq = SequentialDbscan::new(params).run(Arc::clone(&data));
        let ctx = Context::new(ClusterConfig::local(2));
        let par = SparkDbscan::new(params).partitions(partitions).run(&ctx, data);
        prop_assert_eq!(par.clustering.core, seq.core);
    }
}

/// Named deterministic versions of the shrunken counterexamples in
/// `tests/equivalence_prop.proptest-regressions`.
///
/// Policy (see DESIGN.md "Testing strategy"): every counterexample
/// proptest persists is promoted to a named `#[test]` on its literal
/// shrunken input, so the case survives even if the regression file is
/// pruned, runs under plain `cargo test` filters, and carries a name
/// that says what it once broke. The persistence file stays checked in
/// too — proptest replays it before generating novel cases.
mod regressions {
    use super::*;

    /// Run one literal input through every property in this file.
    fn check(rows: Vec<Vec<f64>>, eps: f64, min_pts: usize, partitions: usize) {
        let data = Arc::new(Dataset::from_rows(rows));
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let seq = SequentialDbscan::new(params).run(Arc::clone(&data));
        let ctx = Context::new(ClusterConfig::local(2));

        // exact_mode_always_matches_sequential
        let exact =
            SparkDbscan::new(params).partitions(partitions).exact().run(&ctx, Arc::clone(&data));
        assert!(
            core_labels_equivalent(&exact.clustering, &seq),
            "exact mode: {} vs {} clusters",
            exact.clustering.num_clusters(),
            seq.num_clusters()
        );
        assert_eq!(exact.clustering.noise_count(), seq.noise_count());
        assert_eq!(exact.shuffle_records, 0u64);

        // paper_mode_is_close_for_any_partition_count (heuristic bounds)
        // + partitioning_never_changes_core_points
        let paper = SparkDbscan::new(params).partitions(partitions).run(&ctx, data);
        assert!(paper.clustering.num_clusters() >= seq.num_clusters());
        for i in 0..paper.clustering.len() {
            if paper.clustering.core[i] {
                assert!(paper.clustering.labels[i].is_cluster(), "clustered core {i}");
            }
        }
        assert!(paper.clustering.noise_count() >= seq.noise_count());
        assert_eq!(paper.clustering.core, seq.core);
    }

    /// cc 20d5425b: 27 points, two tight blobs plus scattered jitter,
    /// four partitions — historically tripped the single-SEED heuristic
    /// when its one seed landed on a foreign noise point.
    #[test]
    fn regression_20d5425b_seed_on_foreign_noise_point() {
        let rows = vec![
            vec![10.0, -0.2850782337097511],
            vec![0.0, 10.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![-0.041444441218034415, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![10.268989552694892, 0.506355330074332],
            vec![10.0, 0.720588168561722],
            vec![9.889513524327018, 0.6534951939783447],
            vec![0.0, 0.9539137294501702],
            vec![10.644800005765397, 0.8135421299999321],
            vec![10.0, 0.1360880687228832],
            vec![10.0, 0.0],
            vec![0.0, 0.0],
            vec![10.41723435473722, -0.46213903453233196],
            vec![0.9186153285570567, 0.0],
            vec![0.0, 10.0],
            vec![0.0, 10.0],
            vec![0.5025936042084814, 9.464398111712613],
            vec![0.0, -0.7349210206880596],
            vec![10.522870414053097, -0.960817477270511],
            vec![0.8142190649641046, 0.0],
            vec![10.057122293751208, -0.17243763953864563],
            vec![0.0, 0.0],
        ];
        check(rows, 0.5719099935266885, 4, 4);
    }

    /// cc 68823134: one blob of nine near-duplicates plus an isolated
    /// point, min_pts at the blob-size edge — a borderline-core case.
    #[test]
    fn regression_68823134_borderline_core_blob() {
        let rows = vec![
            vec![10.0, 0.20855521032469343],
            vec![10.317347808802843, 0.25521174531242363],
            vec![10.0, -0.11788590702232724],
            vec![9.487243436843926, 0.0],
            vec![10.0, 0.1746286932327519],
            vec![9.509521074049541, 0.0],
            vec![10.0, 0.44060099468500735],
            vec![10.0, -0.5963605119230624],
            vec![9.676793801746774, -0.27589836019078046],
            vec![0.0, 0.0],
        ];
        check(rows, 0.4680977845584666, 5, 2);
    }

    /// cc 5e81629f: two small far-apart groups with a tiny eps, so the
    /// lower group is all noise while the upper one barely clusters.
    #[test]
    fn regression_5e81629f_sparse_group_all_noise() {
        let rows = vec![
            vec![-0.367568148509745, 10.647586815107566],
            vec![0.0, 0.0],
            vec![-0.7722293898595615, 10.624562294685532],
            vec![-0.3170553334522932, 10.974557983501958],
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 0.5068917624335951],
            vec![0.0, -0.6891592066935873],
            vec![-0.5117484259762696, 10.774599476761976],
            vec![0.0, -0.8584529199867934],
        ];
        check(rows, 0.33271281245546924, 4, 2);
    }
}

/// An independent DBSCAN oracle: an O(n²) all-pairs loop over plain
/// rows. It uses no spatial index, leaf kernel or library distance
/// function, so it cannot share a bug with the code under test.
mod oracle {
    use scalable_dbscan::prelude::{Clustering, Label};
    use std::collections::HashMap;

    /// Brute-force DBSCAN facts about a point set.
    pub struct Oracle {
        /// At least `min_pts` points (itself included) within `eps`.
        core: Vec<bool>,
        /// Smallest index in each core point's component of core
        /// points linked by `eps`; `usize::MAX` for non-core points.
        component: Vec<usize>,
        /// Core points within `eps` of each point.
        core_neighbors: Vec<Vec<usize>>,
    }

    fn within(a: &[f64], b: &[f64], eps: f64) -> bool {
        let mut sum = 0.0;
        for (x, y) in a.iter().zip(b) {
            sum += (x - y) * (x - y);
        }
        sum <= eps * eps
    }

    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }

    impl Oracle {
        pub fn new(rows: &[Vec<f64>], eps: f64, min_pts: usize) -> Self {
            let n = rows.len();
            let neighbors: Vec<Vec<usize>> = (0..n)
                .map(|i| (0..n).filter(|&j| within(&rows[i], &rows[j], eps)).collect())
                .collect();
            let core: Vec<bool> = neighbors.iter().map(|nb| nb.len() >= min_pts).collect();
            let core_neighbors: Vec<Vec<usize>> = neighbors
                .into_iter()
                .map(|nb| nb.into_iter().filter(|&j| core[j]).collect())
                .collect();
            let mut parent: Vec<usize> = (0..n).collect();
            for i in (0..n).filter(|&i| core[i]) {
                for &j in &core_neighbors[i] {
                    let (a, b) = (root(&mut parent, i), root(&mut parent, j));
                    parent[a.max(b)] = a.min(b);
                }
            }
            let component =
                (0..n).map(|i| if core[i] { root(&mut parent, i) } else { usize::MAX }).collect();
            Oracle { core, component, core_neighbors }
        }

        /// Whether `c` is a DBSCAN answer: the same core flags, the same
        /// partition of the core points into clusters, noise exactly
        /// where no core point lies within `eps`, and every border
        /// point within `eps` of a core point of its own cluster.
        pub fn check(&self, c: &Clustering) -> Result<(), String> {
            let n = self.core.len();
            if c.labels.len() != n || c.core.len() != n {
                return Err(format!(
                    "{} labels, {} core flags for {n} points",
                    c.len(),
                    c.core.len()
                ));
            }
            if let Some(i) = (0..n).find(|&i| c.core[i] != self.core[i]) {
                return Err(format!("core flag of point {i} is {}", c.core[i]));
            }
            let mut label_of: HashMap<usize, u32> = HashMap::new();
            let mut component_of: HashMap<u32, usize> = HashMap::new();
            for i in (0..n).filter(|&i| self.core[i]) {
                let Label::Cluster(l) = c.labels[i] else {
                    return Err(format!("core point {i} is noise"));
                };
                let comp = self.component[i];
                if *label_of.entry(comp).or_insert(l) != l
                    || *component_of.entry(l).or_insert(comp) != comp
                {
                    return Err(format!("core point {i} is in the wrong cluster"));
                }
            }
            for i in (0..n).filter(|&i| !self.core[i]) {
                let near = &self.core_neighbors[i];
                match c.labels[i] {
                    Label::Noise if near.is_empty() => {}
                    Label::Noise => return Err(format!("border point {i} is noise")),
                    Label::Cluster(_) if near.is_empty() => {
                        return Err(format!("noise point {i} is clustered"))
                    }
                    label => {
                        if !near.iter().any(|&j| c.labels[j] == label) {
                            return Err(format!(
                                "border point {i} has no core point in its cluster"
                            ));
                        }
                    }
                }
            }
            Ok(())
        }

        /// Whether `c` keeps what the paper's one-SEED-per-partition
        /// heuristic guarantees: exact core flags, every core point
        /// clustered, and no cluster whose core points span two true
        /// clusters (it may split clusters, never join them).
        pub fn check_paper(&self, c: &Clustering) -> Result<(), String> {
            let n = self.core.len();
            if let Some(i) = (0..n).find(|&i| c.core.get(i) != Some(&self.core[i])) {
                return Err(format!("core flag of point {i} is wrong"));
            }
            let mut component_of: HashMap<u32, usize> = HashMap::new();
            for i in (0..n).filter(|&i| self.core[i]) {
                let Label::Cluster(l) = c.labels[i] else {
                    return Err(format!("core point {i} is noise"));
                };
                if *component_of.entry(l).or_insert(self.component[i]) != self.component[i] {
                    return Err(format!("cluster {l} joins two true clusters at core point {i}"));
                }
            }
            Ok(())
        }
    }

    #[test]
    fn oracle_rejects_wrong_answers() {
        // a 1-d chain 0..=4 (one cluster) and an isolated point
        let rows: Vec<Vec<f64>> = [0.0, 1.0, 2.0, 3.0, 4.0, 100.0].map(|x| vec![x]).into();
        let oracle = Oracle::new(&rows, 1.0, 3);
        let good = Clustering {
            labels: vec![Label::Cluster(7); 5].into_iter().chain([Label::Noise]).collect(),
            core: vec![false, true, true, true, false, false],
        };
        oracle.check(&good).expect("correct answer");
        let mut split = good.clone();
        split.labels[3] = Label::Cluster(8);
        assert!(oracle.check(&split).is_err(), "split core component");
        let mut flag = good.clone();
        flag.core[0] = true;
        assert!(oracle.check(&flag).is_err(), "wrong core flag");
        let mut noise = good.clone();
        noise.labels[5] = Label::Cluster(7);
        assert!(oracle.check(&noise).is_err(), "noise clustered");
        let mut border = good.clone();
        border.labels[0] = Label::Noise;
        assert!(oracle.check(&border).is_err(), "border dropped to noise");
        let mut stray = good;
        stray.labels[4] = Label::Cluster(8);
        assert!(oracle.check(&stray).is_err(), "border in a cluster with no core neighbour");
    }

    #[test]
    fn paper_check_allows_splits_but_rejects_joins() {
        // two 1-d chains far apart, both all core at min_pts 2
        let rows: Vec<Vec<f64>> = [0.0, 1.0, 2.0, 50.0, 51.0].map(|x| vec![x]).into();
        let oracle = Oracle::new(&rows, 1.0, 2);
        let split =
            Clustering { labels: [0, 1, 1, 2, 2].map(Label::Cluster).into(), core: vec![true; 5] };
        oracle.check_paper(&split).expect("a split keeps the invariants");
        let mut joined = split.clone();
        joined.labels[3] = Label::Cluster(1);
        assert!(oracle.check_paper(&joined).is_err(), "two true clusters joined");
        let mut noise = split.clone();
        noise.labels[0] = Label::Noise;
        assert!(oracle.check_paper(&noise).is_err(), "core point dropped to noise");
        let mut flag = split;
        flag.core[4] = false;
        assert!(oracle.check_paper(&flag).is_err(), "wrong core flag");
    }
}

/// Check `SequentialDbscan` and `SparkDbscan::exact()` against the
/// all-pairs oracle, under both leaf kernel layouts and the batched
/// expansion loop. Under the same kernels, the paper's one SEED per
/// partition, with either merge, must keep the heuristic's invariants.
fn check_against_oracle(rows: Vec<Vec<f64>>, eps: f64, min_pts: usize, partitions: usize) {
    let oracle = oracle::Oracle::new(&rows, eps, min_pts);
    let data = Arc::new(Dataset::from_rows(rows));
    let params = DbscanParams::new(eps, min_pts).unwrap();
    let tag =
        format!("n={} d={} eps={eps} min_pts={min_pts} p={partitions}", data.len(), data.dim());
    let seq = SequentialDbscan::new(params).run(Arc::clone(&data));
    oracle.check(&seq).unwrap_or_else(|e| panic!("{tag}: sequential: {e}"));
    let ctx = Context::new(ClusterConfig::local(2));
    let kernels = [
        KernelConfig::default().with_layout(KernelLayout::Scalar),
        KernelConfig::default().with_layout(KernelLayout::Lanes),
        KernelConfig::default().with_batch(4),
    ];
    for kernel in kernels {
        let res = Resources::new().with_build(BuildConfig::default().with_kernel(kernel));
        let job = SparkDbscan::new(params).partitions(partitions).resources(res);
        let par = job.clone().exact().run(&ctx, Arc::clone(&data));
        oracle.check(&par.clustering).unwrap_or_else(|e| panic!("{tag}: exact {kernel:?}: {e}"));
        let union_find = job.clone().exact().seed_policy(SeedPolicy::OnePerPartition);
        for (merge, paper) in [("paper merge", job), ("union-find", union_find)] {
            let out = paper.run(&ctx, Arc::clone(&data)).clustering;
            oracle.check_paper(&out).unwrap_or_else(|e| panic!("{tag}: one SEED, {merge}: {e}"));
        }
    }
}

/// Clumpy rows in `1..=7` dimensions around four far-apart centres;
/// `grid` snaps the jitter to quarter steps, which makes duplicates and
/// exact-`eps` ties common.
fn arb_rows_any_dim() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        1usize..=7,
        any::<bool>(),
        prop::collection::vec((0usize..4, prop::collection::vec(-1.0f64..1.0, 7)), 1..100),
    )
        .prop_map(|(dim, grid, pts)| {
            pts.into_iter()
                .map(|(c, jitter)| {
                    jitter[..dim]
                        .iter()
                        .map(|&j| 10.0 * c as f64 + if grid { (j * 4.0).round() / 4.0 } else { j })
                        .collect()
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exact_entry_points_match_the_all_pairs_oracle(
        rows in arb_rows_any_dim(),
        eps in (0usize..6).prop_map(|i| [0.25, 0.5, 0.7, 1.0, 1.5, 2.5][i]),
        min_pts in 1usize..8,
        partitions in 1usize..12,
    ) {
        check_against_oracle(rows, eps, min_pts, partitions);
    }
}

/// Fixed hostile shapes for the oracle check.
mod oracle_cases {
    use super::*;

    #[test]
    fn mass_duplicates() {
        // 60 copies of one point plus 20 of another: every point is core
        // at min_pts 5, and eps 0 still links exact duplicates
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![f64::from(u8::from(i >= 60)); 2]).collect();
        check_against_oracle(rows.clone(), 0.0, 5, 4);
        check_against_oracle(rows, 0.5, 30, 7);
    }

    #[test]
    fn fewer_points_than_min_pts() {
        let rows = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1]];
        check_against_oracle(rows, 5.0, 4, 2);
    }

    #[test]
    fn more_partitions_than_points() {
        let rows = vec![vec![0.0, 0.0], vec![0.5, 0.0], vec![1.0, 0.0], vec![9.0, 9.0]];
        check_against_oracle(rows, 0.6, 2, 9);
        check_against_oracle(vec![vec![3.0, 4.0]], 1.0, 1, 5);
    }

    #[test]
    fn one_dimension() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i % 20) * 0.5]).collect();
        check_against_oracle(rows, 0.5, 3, 3);
    }

    #[test]
    fn seven_dimensions() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i: u32| {
                (0..7)
                    .map(|k| f64::from((i * (k + 3)) % 5) * 0.3 + f64::from(i / 30) * 20.0)
                    .collect()
            })
            .collect();
        check_against_oracle(rows, 0.8, 4, 5);
    }
}
