//! Property tests for the dimension-monomorphized and lane-blocked
//! kernels: the specialized `D = 2..=6` paths and the SoA chunk scan
//! must be **byte-identical** to the generic dynamic-length loops —
//! same matched rows, same `f64` bits, same early-exit row — and the
//! indexes wired through them must still agree with each other.

use dbscan_spatial::{
    scan_block, scan_block_generic, scan_block_soa, transpose_block, BkdTree, BruteForceIndex,
    BuildConfig, Dataset, KernelConfig, KernelCounters, KernelLayout, Metric, PointId, PruneConfig,
    QueryScratch, SpatialIndex, SPECIALIZED_DIMS,
};
use proptest::prelude::*;
use std::sync::Arc;

const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

fn sorted(mut v: Vec<PointId>) -> Vec<PointId> {
    v.sort_unstable();
    v
}

fn dataset_strategy(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, dim..=dim), 1..120)
}

/// Leaf-sized blocks: 1..=80 rows covers one and two 64-row chunks
/// and every 8-lane tail length.
fn block_strategy(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, dim..=dim), 1..=80)
}

/// One coordinate of a chunk-boundary row relative to the query: the
/// query's own value, one radius off (exactly at the threshold along
/// that axis), an ordinary offset, or a non-finite value.
fn coordinate_strategy() -> impl Strategy<Value = Coord> {
    (0usize..15, -3.0f64..3.0).prop_map(|(pick, x)| match pick {
        0..4 => Coord::Same,
        4..6 => Coord::Radius(1.0),
        6..8 => Coord::Radius(-1.0),
        8..12 => Coord::Offset(x),
        12 => Coord::Value(f64::NAN),
        13 => Coord::Value(f64::INFINITY),
        _ => Coord::Value(f64::NEG_INFINITY),
    })
}

#[derive(Debug, Clone, Copy)]
enum Coord {
    Same,
    Radius(f64),
    Offset(f64),
    Value(f64),
}

impl Coord {
    fn at(self, q: f64, eps: f64) -> f64 {
        match self {
            Coord::Same => q,
            Coord::Radius(sign) => q + sign * eps,
            Coord::Offset(x) => q + x * eps,
            Coord::Value(v) => v,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core claim of the kernel module: for every dim (specialized
    /// or not) and every metric, the dispatching scan and the generic
    /// scan report exactly the same row set.
    #[test]
    fn scan_block_matches_generic_any_dim(
        dim in 1usize..=6,
        seed_rows in dataset_strategy(6),
        q6 in prop::collection::vec(-60.0f64..60.0, 6..=6),
        eps in 0.0f64..60.0,
        metric_idx in 0usize..3,
    ) {
        let metric = METRICS[metric_idx];
        let block: Vec<f64> =
            seed_rows.iter().flat_map(|r| r[..dim].iter().copied()).collect();
        let q = &q6[..dim];
        let thr = metric.threshold(eps);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        scan_block(metric, dim, q, &block, thr, |i| { fast.push(i); true });
        scan_block_generic(metric, dim, q, &block, thr, |i| { slow.push(i); true });
        prop_assert_eq!(fast, slow);
    }

    /// Distances along both paths are bit-identical, not merely close:
    /// the specialized kernels accumulate in the same order as the
    /// generic loops, so clustering results cannot drift by dimension.
    #[test]
    fn reduced_distances_are_bit_identical(
        a in prop::collection::vec(-1e6f64..1e6, 1..=6),
        b6 in prop::collection::vec(-1e6f64..1e6, 6..=6),
        metric_idx in 0usize..3,
    ) {
        let metric = METRICS[metric_idx];
        let b = &b6[..a.len()];
        let via_dispatch = metric.reduced_distance(&a, b);
        let via_generic = dbscan_spatial::kernel::reduced_generic(metric, &a, b);
        prop_assert_eq!(via_dispatch.to_bits(), via_generic.to_bits());
    }

    /// Early exit fires at the same row on both paths.
    #[test]
    fn early_exit_agrees_with_generic(
        dim in 1usize..=5,
        seed_rows in dataset_strategy(5),
        eps in 0.0f64..80.0,
        cap in 1usize..8,
    ) {
        let block: Vec<f64> =
            seed_rows.iter().flat_map(|r| r[..dim].iter().copied()).collect();
        let q = vec![0.0; dim];
        let thr = Metric::Euclidean.threshold(eps);
        let run = |generic: bool| {
            let mut hits = Vec::new();
            let mut n = 0usize;
            let cb = |i: usize| {
                hits.push(i);
                n += 1;
                n < cap
            };
            let finished = if generic {
                scan_block_generic(Metric::Euclidean, dim, &q, &block, thr, cb)
            } else {
                scan_block(Metric::Euclidean, dim, &q, &block, thr, cb)
            };
            (finished, hits)
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// End-to-end through the tree: the bucketed kd-tree (whose leaf
    /// scans dispatch to the specialized kernels) agrees with the
    /// brute-force oracle on exactly the specialized dims, plus one
    /// fallback dim, for every metric.
    #[test]
    fn bkdtree_matches_bruteforce_specialized_dims(
        seed_rows in dataset_strategy(7),
        eps in 0.0f64..40.0,
        bucket in 1usize..=80,
        metric_idx in 0usize..3,
    ) {
        let metric = METRICS[metric_idx];
        for dim in SPECIALIZED_DIMS.iter().copied().chain([7usize]) {
            let rows: Vec<Vec<f64>> =
                seed_rows.iter().map(|r| r[..dim].to_vec()).collect();
            let ds = Arc::new(Dataset::from_rows(rows));
            let bkd = BkdTree::build_with(ds.clone(), metric, bucket);
            let bf = BruteForceIndex::with_metric(ds.clone(), metric);
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            for (_, row) in ds.iter().take(30) {
                out.clear();
                bkd.range_into_scratch(row, eps, &mut scratch, &mut out);
                prop_assert_eq!(sorted(out.clone()), sorted(bf.range(row, eps)));
                prop_assert_eq!(bkd.count_within(row, eps), bf.count_within(row, eps));
            }
        }
    }

    /// SoA transposition is lossless: every coordinate lands at its
    /// dimension-major slot with identical bits, and transposing back
    /// reproduces the row-major block exactly.
    #[test]
    fn soa_transpose_round_trips_losslessly(
        dim in 1usize..=6,
        seed_rows in dataset_strategy(6),
    ) {
        let block: Vec<f64> =
            seed_rows.iter().flat_map(|r| r[..dim].iter().copied()).collect();
        let rows = block.len() / dim;
        let mut soa = vec![0.0f64; block.len()];
        transpose_block(&block, dim, &mut soa);
        for i in 0..rows {
            for k in 0..dim {
                prop_assert_eq!(block[i * dim + k].to_bits(), soa[k * rows + i].to_bits());
            }
        }
        // round trip: the SoA block viewed as a rows-per-"row" matrix
        // transposes back to the original
        let mut back = vec![0.0f64; block.len()];
        transpose_block(&soa, rows, &mut back);
        for (a, b) in block.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The 16-lane SoA scan reports exactly the rows the scalar scan
    /// reports, in the same order, for every dim and metric — including
    /// the early-exit row when the callback stops.
    #[test]
    fn soa_scan_is_bit_identical_to_scalar(
        dim in 1usize..=6,
        seed_rows in block_strategy(6),
        q6 in prop::collection::vec(-60.0f64..60.0, 6..=6),
        eps in 0.0f64..60.0,
        metric_idx in 0usize..3,
        cap_raw in 0usize..8,
    ) {
        let cap = (cap_raw > 0).then_some(cap_raw);
        let metric = METRICS[metric_idx];
        let block: Vec<f64> =
            seed_rows.iter().flat_map(|r| r[..dim].iter().copied()).collect();
        let rows = block.len() / dim;
        let mut soa = vec![0.0f64; block.len()];
        transpose_block(&block, dim, &mut soa);
        let q = &q6[..dim];
        let thr = metric.threshold(eps);
        let scalar = {
            let mut hits = Vec::new();
            let finished = scan_block(metric, dim, q, &block, thr, |i| {
                hits.push(i);
                cap.is_none_or(|c| hits.len() < c)
            });
            (finished, hits)
        };
        let mut hits = Vec::new();
        let finished = scan_block_soa(metric, dim, q, &soa, rows, thr, |i| {
            hits.push(i);
            cap.is_none_or(|c| hits.len() < c)
        });
        prop_assert_eq!(&(finished, hits), &scalar);
    }

    /// The chunk scan at its boundaries: 0..=130 rows (empty, single
    /// rows, every 8-lane tail, one to three 64-row chunks), d = 1..=12,
    /// rows at exactly the threshold, NaN and infinite coordinates, and
    /// values past the leaf that every query would hit or that are not
    /// finite. The rows reported, the order and the early-exit row must
    /// be the row-major scan's, and nothing past the leaf is reported.
    #[test]
    fn soa_chunk_boundaries_match_scalar(
        dim in 1usize..=12,
        rows in 0usize..=130,
        cells in prop::collection::vec(coordinate_strategy(), 130 * 12..=130 * 12),
        pad_idx in 0usize..4,
        thr_idx in 0usize..4,
        metric_idx in 0usize..3,
        cap_raw in 0usize..140,
    ) {
        let metric = METRICS[metric_idx];
        // exactly representable query and radius: rows one radius away
        // along an axis sit exactly at the threshold
        let (eps, q) = (0.5, (0..dim).map(|k| 0.25 * k as f64).collect::<Vec<f64>>());
        let thr = [0.0, metric.threshold(eps), 2.0, f64::INFINITY][thr_idx];
        let cap = (cap_raw > 0).then_some(cap_raw);
        let pad = [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pad_idx];
        let block: Vec<f64> = (0..rows)
            .flat_map(|i| (0..dim).map(move |k| (i, k)))
            .map(|(i, k)| cells[i * 12 + k].at(q[k], eps))
            .collect();
        // the leaf's mirror inside a longer buffer, as a tree stores it
        let mut mirror = vec![pad; 8];
        let start = mirror.len();
        mirror.resize(start + block.len(), 0.0);
        transpose_block(&block, dim, &mut mirror[start..]);
        mirror.resize(mirror.len() + 128 * dim, pad);
        let soa = &mirror[start..start + block.len()];
        let scan = |soa_path: bool| {
            let mut hits = Vec::new();
            let stop = |i: usize, hits: &mut Vec<usize>| {
                hits.push(i);
                cap.is_none_or(|c| hits.len() < c)
            };
            let finished = if soa_path {
                scan_block_soa(metric, dim, &q, soa, rows, thr, |i| stop(i, &mut hits))
            } else {
                scan_block_generic(metric, dim, &q, &block, thr, |i| stop(i, &mut hits))
            };
            (finished, hits)
        };
        let soa_result = scan(true);
        prop_assert!(soa_result.1.iter().all(|&i| i < rows));
        prop_assert_eq!(soa_result, scan(false));
    }
}

// ---- the mask walk against a reference walk --------------------------

/// A kd-tree built by the bucketed tree's documented rule, written out
/// here apart from it: split on the axis of widest spread (`min`/`max`
/// skip NaN; the first axis wins ties) at the median in `total_cmp`
/// order, the left side taking `[0, mid)`, until at most `bucket` rows
/// are left.
enum RefNode {
    Leaf(Vec<u32>),
    Split { axis: usize, split: f64, left: Box<RefNode>, right: Box<RefNode> },
}

fn ref_build(rows: &[Vec<f64>], ids: &mut [u32], bucket: usize) -> RefNode {
    if ids.len() <= bucket {
        return RefNode::Leaf(ids.to_vec());
    }
    let spread = |axis: usize| {
        let values = ids.iter().map(|&i| rows[i as usize][axis]);
        let (lo, hi) =
            values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
        hi - lo
    };
    let best = (0..rows[0].len())
        .map(|axis| (axis, spread(axis)))
        .fold((0, f64::NEG_INFINITY), |best, (axis, s)| if s > best.1 { (axis, s) } else { best });
    let axis = best.0;
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&p, &q| {
        rows[p as usize][axis].total_cmp(&rows[q as usize][axis])
    });
    let split = rows[ids[mid] as usize][axis];
    let (lo, hi) = ids.split_at_mut(mid);
    let left = Box::new(ref_build(rows, lo, bucket));
    let right = Box::new(ref_build(rows, hi, bucket));
    RefNode::Split { axis, split, left, right }
}

fn ref_leaf_order(node: &RefNode, out: &mut Vec<u32>) {
    match node {
        RefNode::Leaf(ids) => out.extend(ids),
        RefNode::Split { left, right, .. } => {
            ref_leaf_order(left, out);
            ref_leaf_order(right, out);
        }
    }
}

/// The reduced distance, query minus row in coordinate order.
fn ref_distance(metric: Metric, q: &[f64], row: &[f64]) -> f64 {
    let pairs = q.iter().zip(row);
    match metric {
        Metric::Euclidean => pairs.fold(0.0, |a, (x, y)| a + (x - y) * (x - y)),
        Metric::Manhattan => pairs.fold(0.0, |a, (x, y)| a + (x - y).abs()),
        // NaN once any difference is NaN, as for the other metrics
        Metric::Chebyshev => pairs.fold(0.0, |a: f64, (x, y)| {
            let v = (x - y).abs();
            if a.is_nan() || v.is_nan() {
                f64::NAN
            } else {
                a.max(v)
            }
        }),
    }
}

/// One reference range walk: its hits in order, the nodes it visited
/// and the kernel counters it would count.
#[derive(Debug, Default, PartialEq)]
struct RefWalk {
    hits: Vec<u32>,
    visited: usize,
    counters: KernelCounters,
    /// Cumulative hit count at the end of each scanned leaf.
    leaf_ends: Vec<usize>,
}

struct RefQuery<'a> {
    rows: &'a [Vec<f64>],
    metric: Metric,
    q: &'a [f64],
    thr: f64,
    cap: usize,
    max_visited: Option<usize>,
}

impl RefQuery<'_> {
    /// Depth first, the near side of each split before the far side,
    /// which is skipped only when the split plane alone puts it beyond
    /// the threshold. Returns whether the walk may go on.
    fn walk(&self, node: &RefNode, w: &mut RefWalk) -> bool {
        if self.max_visited.is_some_and(|m| w.visited >= m) {
            w.counters.early_exits += 1;
            return false;
        }
        w.visited += 1;
        match node {
            RefNode::Leaf(ids) => {
                w.counters.blocks_scanned += 1;
                w.counters.rows_scanned += ids.len() as u64;
                for &id in ids {
                    if ref_distance(self.metric, self.q, &self.rows[id as usize]) <= self.thr {
                        w.hits.push(id);
                        w.counters.range_hits += 1;
                        if w.hits.len() >= self.cap {
                            w.leaf_ends.push(w.hits.len());
                            w.counters.early_exits += 1;
                            return false;
                        }
                    }
                }
                w.leaf_ends.push(w.hits.len());
                true
            }
            RefNode::Split { axis, split, left, right } => {
                let delta = self.q[*axis] - split;
                let (near, far) = if delta <= 0.0 { (left, right) } else { (right, left) };
                let plane = match self.metric {
                    Metric::Euclidean => delta * delta,
                    _ => delta.abs(),
                };
                let far_reachable = plane <= self.thr || delta.is_nan();
                self.walk(near, w) && (!far_reachable || self.walk(far, w))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The mask walk, decoded through `tree_order()`, against a
    /// reference walk that shares no code with the tree (hit order,
    /// visited count, kernel counters) and, unpruned, against the
    /// brute-force index (hit set). Both layouts, all metrics, leaves
    /// of 1..=130 rows (several 64-row chunks), caps that land inside a
    /// chunk, on its last bit and on a leaf's last hit, visit budgets,
    /// non-finite rows and queries, and thresholds 0, exact and +inf.
    #[test]
    fn mask_walk_matches_reference_walk(
        dim in (0usize..7).prop_map(|i| [1, 2, 3, 4, 6, 7, 10][i]),
        n in 1usize..=220,
        bucket in 1usize..=130,
        cells in prop::collection::vec(coordinate_strategy(), 220 * 10..=220 * 10),
        metric_idx in 0usize..3,
        eps_idx in 0usize..3,
        poison in (0usize..10, 0usize..3),
    ) {
        let metric = METRICS[metric_idx];
        let eps = [0.0, 0.5, f64::INFINITY][eps_idx];
        let base: Vec<f64> = (0..dim).map(|k| 0.25 * k as f64).collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dim).map(|k| cells[i * 10 + k].at(base[k], 0.5)).collect())
            .collect();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let reference = ref_build(&rows, &mut ids, bucket);
        let mut order = Vec::new();
        ref_leaf_order(&reference, &mut order);
        // queries: the base point, a few data rows, and the base point
        // with one coordinate NaN or infinite
        let mut odd = base.clone();
        odd[poison.0 % dim] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][poison.1];
        let queries: Vec<Vec<f64>> =
            [base.clone(), odd].into_iter().chain(rows.iter().take(3).cloned()).collect();
        let ds = Arc::new(Dataset::from_rows(rows.clone()));
        let bf = BruteForceIndex::with_metric(ds.clone(), metric);
        for layout in [KernelLayout::Scalar, KernelLayout::Lanes] {
            let cfg = BuildConfig::default()
                .with_bucket_size(bucket)
                .with_kernel(KernelConfig::default().with_layout(layout));
            let tree = BkdTree::build_with_config(ds.clone(), metric, cfg);
            prop_assert_eq!(tree.tree_order(), &order[..], "the reference rebuilds the tree");
            for q in &queries {
                let rq = |cap: usize, max_visited| RefQuery {
                    rows: &rows, metric, q, thr: metric.threshold(eps), cap, max_visited,
                };
                let mut exact = RefWalk::default();
                rq(usize::MAX, None).walk(&reference, &mut exact);
                let mut want = exact.hits.iter().map(|&i| PointId(i)).collect::<Vec<_>>();
                want.sort_unstable();
                prop_assert_eq!(want, sorted(bf.range(q, eps)), "{:?} {:?} q={:?}", layout, metric, q);

                // caps inside a chunk, on a chunk's last bit and on a
                // leaf's last hit, from the tree's own exact masks and
                // the reference's leaves
                let mut scratch = QueryScratch::new();
                tree.range_masks(q, eps, PruneConfig::EXACT, &mut scratch);
                let mut caps = vec![0, 1, 2, exact.hits.len(), exact.hits.len() + 1];
                let mut seen = 0;
                for h in scratch.hit_masks() {
                    let count = h.mask.count_ones() as usize;
                    caps.extend([seen + count / 2 + 1, seen + count]);
                    seen += count;
                }
                caps.extend(exact.leaf_ends.iter().copied());
                let mut prunes: Vec<PruneConfig> =
                    caps.into_iter().map(PruneConfig::cap_neighbors).collect();
                for budget in [0, 1, 2, exact.visited / 2, exact.visited - 1, exact.visited] {
                    prunes.push(PruneConfig { max_neighbors: None, max_visited: Some(budget) });
                }
                prunes.push(PruneConfig { max_neighbors: Some(3), max_visited: Some(exact.visited / 2) });
                prunes.push(PruneConfig::EXACT);

                for prune in prunes {
                    let mut want = RefWalk::default();
                    let cap = prune.max_neighbors.map_or(usize::MAX, |k| k.max(1));
                    rq(cap, prune.max_visited).walk(&reference, &mut want);
                    let tag = format!("{layout:?} {metric:?} {prune:?} q={q:?}");

                    let mut scratch = QueryScratch::new();
                    let found = tree.range_masks(q, eps, prune, &mut scratch);
                    let masks = scratch.hit_masks().to_vec();
                    prop_assert!(masks.iter().all(|h| h.mask != 0), "{}", tag);
                    let decoded: Vec<u32> = masks
                        .iter()
                        .flat_map(|h| h.rows())
                        .map(|pos| tree.tree_order()[pos])
                        .collect();
                    prop_assert_eq!(found, want.hits.len(), "{}", tag);
                    prop_assert_eq!(&decoded, &want.hits, "{}", tag);
                    prop_assert_eq!(scratch.counters, want.counters, "{}", tag);

                    let mut scratch = QueryScratch::new();
                    let mut out = Vec::new();
                    let visited = tree.range_pruned_scratch(q, eps, prune, &mut scratch, &mut out);
                    prop_assert_eq!(visited, want.visited, "{}", tag);
                    prop_assert!(out.iter().map(|p| p.0).eq(want.hits.iter().copied()), "{}", tag);
                    prop_assert_eq!(scratch.counters, want.counters, "{}", tag);
                }
            }
        }
    }
}
