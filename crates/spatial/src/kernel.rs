//! Dimension-monomorphized and lane-blocked query kernels.
//!
//! Every distance in [`crate::metric`] is a dynamic-length loop over
//! `&[f64]`: the compiler cannot unroll it, keeps the trip-count check,
//! and emits scalar code. But a dataset's dimensionality is fixed for
//! the lifetime of every query, and the paper's workloads are low-`d`
//! (2–10, with the figures' plots all 2-D). This module monomorphizes
//! the hot loops over a `const D` for the neighborhood-query dimensions
//! (`D = 2..=6`, matching the planner's `MAX_NEIGHBORHOOD_DIM`) and
//! dispatches **once per block scan** on `Dataset::dim`, so the per-row
//! work is a fixed-trip-count, bounds-check-free loop.
//!
//! On top of the row-major kernels sits the **lane-blocked SoA kernel**
//! ([`scan_block_soa`]): it scans a leaf block
//! stored dimension-major (all `x`s, then all `y`s, …), sixteen points
//! at a time into a `[f64; 16]` stack buffer that LLVM vectorizes. The
//! group distances are compiled twice, for the build target and with
//! AVX2 enabled, and the AVX2 build runs when the CPU has it; rows past
//! the last whole group run one at a time. One lane per
//! point: each point's per-dimension sum runs in the exact sequential
//! coordinate order of the scalar kernels, so every distance is the
//! same `f64` bit for bit — vectorization happens *across* points,
//! never inside one point's accumulation. The threshold test is a
//! branch-free pass packing hit indices left, so dense and sparse
//! blocks cost the same per row.
//!
//! Two invariants make the kernels safe to wire everywhere:
//!
//! * **Bit-identical results.** Fixed-`D`, generic and lane-blocked
//!   paths accumulate in the same coordinate order, so every distance
//!   is the exact same `f64` — all paths return byte-identical
//!   neighborhoods (property-tested in `tests/proptest_kernels.rs`).
//!   The AVX2 build computes the distances from the same source on
//!   wider registers (Rust never contracts a multiply and an add into
//!   an FMA) and only writes the `<=` threshold compare as an
//!   intrinsic, so it is covered by the same guarantee.
//! * **Same early-exit semantics.** [`scan_block`] and
//!   [`scan_block_soa`] report matches through a callback that can stop
//!   the scan, row by row in row order, so pruned queries
//!   (`max_neighbors`) behave exactly like the generic traversal they
//!   replace.
//!
//! Callers: [`crate::BkdTree`] leaf scans, [`crate::BruteForceIndex`]
//! whole-matrix scans, and [`crate::Metric::reduced_distance`] (single
//! pairs).

use crate::metric::Metric;

/// Dimensions with a monomorphized kernel; anything else takes the
/// generic fallback. Exposed so benches and tests can iterate the
/// dispatch table. Covers every dimension the partition planner builds
/// neighborhood grids for (`MAX_NEIGHBORHOOD_DIM = 6`).
pub const SPECIALIZED_DIMS: [usize; 5] = [2, 3, 4, 5, 6];

/// Points per SoA lane group: sixteen `f64` lanes are four ymm
/// registers on AVX2, and a full leaf at the default 64-point bucket
/// size is four whole groups.
const LANES: usize = 16;

/// How leaf blocks are stored and scanned. Every layout produces
/// bit-identical results; only throughput changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLayout {
    /// Row-major blocks, one point at a time ([`scan_block`]).
    Scalar,
    /// Dimension-major (SoA) blocks, a lane group of points at a time
    /// ([`scan_block_soa`]).
    Lanes,
}

/// Query-kernel configuration threaded through the resource bundle:
/// the leaf-block layout. Labels, executor stats and kernel counters
/// are byte-identical for every value; only throughput changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Leaf-block layout and scan strategy.
    pub layout: KernelLayout,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig { layout: KernelLayout::Lanes }
    }
}

impl KernelConfig {
    /// The seed-path configuration: row-major scalar scans — the arm
    /// the lane-blocked layout is checked byte-identical against.
    pub fn scalar() -> Self {
        KernelConfig { layout: KernelLayout::Scalar }
    }

    /// Set the leaf-block layout.
    pub fn with_layout(mut self, layout: KernelLayout) -> Self {
        self.layout = layout;
        self
    }
}

/// Per-run kernel instrumentation, accumulated on
/// [`crate::QueryScratch`] and surfaced on the executor stats. The
/// counters are defined over *visited* leaves — blocks touched by the
/// traversal and the rows those blocks hold — so they are invariant
/// across the scalar and lane-blocked layouts, which visit the same
/// leaves in the same order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Leaf blocks scanned (one per leaf per query touching it).
    pub blocks_scanned: u64,
    /// Rows held by the scanned blocks.
    pub rows_scanned: u64,
    /// Rows reported within the query threshold.
    pub range_hits: u64,
    /// Scans stopped before their last block (pruning budgets
    /// exhausted).
    pub early_exits: u64,
}

impl KernelCounters {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &KernelCounters) {
        self.blocks_scanned += other.blocks_scanned;
        self.rows_scanned += other.rows_scanned;
        self.range_hits += other.range_hits;
        self.early_exits += other.early_exits;
    }

    /// Whether nothing was counted.
    pub fn is_zero(&self) -> bool {
        *self == KernelCounters::default()
    }
}

/// Scan a row-major coordinate block (`block.len() == rows * dim`),
/// invoking `on_match(i)` for every row `i` whose reduced distance to
/// `query` is `<= thr` (`thr` in [`Metric::threshold`] space). The
/// callback returns `false` to stop the scan; `scan_block` returns
/// `false` iff it was stopped early.
///
/// Dispatches once on `dim` to a fixed-`D` kernel when one exists.
#[inline]
pub fn scan_block<F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    block: &[f64],
    thr: f64,
    on_match: F,
) -> bool {
    debug_assert!(block.is_empty() || query.len() == dim.max(1));
    debug_assert!(block.len().is_multiple_of(dim.max(1)));
    match dim {
        2 => scan_fixed::<2, F>(metric, query, block, thr, on_match),
        3 => scan_fixed::<3, F>(metric, query, block, thr, on_match),
        4 => scan_fixed::<4, F>(metric, query, block, thr, on_match),
        5 => scan_fixed::<5, F>(metric, query, block, thr, on_match),
        6 => scan_fixed::<6, F>(metric, query, block, thr, on_match),
        _ => scan_block_generic(metric, dim, query, block, thr, on_match),
    }
}

/// The dynamic-length scan [`scan_block`] falls back to — public so the
/// differential property tests can pit the two paths against each other
/// on the same data. The metric's kernel function is
/// resolved once per scan, never once per row.
#[inline]
pub fn scan_block_generic<F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    block: &[f64],
    thr: f64,
    mut on_match: F,
) -> bool {
    let d = dim.max(1);
    let dist = metric_kernel(metric);
    for (i, row) in block.chunks_exact(d).enumerate() {
        if dist(query, row) <= thr && !on_match(i) {
            return false;
        }
    }
    true
}

/// The dynamic-length reduced-distance function for `metric`, resolved
/// once so block scans don't re-dispatch the metric per row.
#[inline]
pub fn metric_kernel(metric: Metric) -> fn(&[f64], &[f64]) -> f64 {
    match metric {
        Metric::Euclidean => crate::metric::squared_euclidean,
        Metric::Manhattan => crate::metric::manhattan,
        Metric::Chebyshev => crate::metric::chebyshev,
    }
}

#[inline]
fn scan_fixed<const D: usize, F: FnMut(usize) -> bool>(
    metric: Metric,
    query: &[f64],
    block: &[f64],
    thr: f64,
    on_match: F,
) -> bool {
    let q: &[f64; D] = query.try_into().expect("query length matches dataset dim");
    match metric {
        Metric::Euclidean => {
            scan_rows::<D, _, _>(block, thr, |r| squared_euclidean_fixed(q, r), on_match)
        }
        Metric::Manhattan => scan_rows::<D, _, _>(block, thr, |r| manhattan_fixed(q, r), on_match),
        Metric::Chebyshev => scan_rows::<D, _, _>(block, thr, |r| chebyshev_fixed(q, r), on_match),
    }
}

/// The monomorphized inner loop: fixed trip count per row, no bounds
/// checks (the `&[f64; D]` conversion proves the length to LLVM).
#[inline]
fn scan_rows<const D: usize, G: Fn(&[f64; D]) -> f64, F: FnMut(usize) -> bool>(
    block: &[f64],
    thr: f64,
    dist: G,
    mut on_match: F,
) -> bool {
    for (i, row) in block.chunks_exact(D).enumerate() {
        let row: &[f64; D] = row.try_into().expect("chunks_exact yields D-length rows");
        if dist(row) <= thr && !on_match(i) {
            return false;
        }
    }
    true
}

// ---- lane-blocked SoA kernels ------------------------------------------

/// Scan a dimension-major (SoA) coordinate block of `rows` points
/// (`soa[k * rows + i]` = coordinate `k` of point `i`,
/// `soa.len() == rows * dim`), invoking `on_match(i)` for every row
/// within `thr`, **in row order** — the same callback sequence, stops
/// included, as [`scan_block`] over the row-major transpose of the
/// block. Distances are bit-identical to the scalar path: lanes run
/// across points, each point still accumulates coordinate `0..dim`
/// sequentially.
#[inline]
pub fn scan_block_soa<F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    thr: f64,
    on_match: F,
) -> bool {
    assert_eq!(soa.len(), rows * dim, "a dimension-major block holds rows * dim values");
    if rows == 0 || dim == 0 {
        return true;
    }
    let block = SoaBlock { metric, query: &query[..dim], soa, rows, thr };
    // SAFETY: `Body::detect` only returns a body this CPU can run.
    unsafe { Body::detect().scan(&block, on_match) }
}

/// One SoA leaf scan: `query` (one coordinate per dimension) against
/// the `rows` points of a dimension-major block, with the threshold in
/// [`Metric::threshold`] space.
struct SoaBlock<'a> {
    metric: Metric,
    query: &'a [f64],
    soa: &'a [f64],
    rows: usize,
    thr: f64,
}

impl SoaBlock<'_> {
    /// The block's coordinate columns in dimension order, paired with
    /// the query coordinate each is compared against. Every column is
    /// split off as exactly `rows` values, which lets LLVM drop the
    /// per-column bounds checks inside a lane group. (`chunks_exact`
    /// would too, but zipping it divides `soa.len()` by `rows` on every
    /// call.)
    #[inline(always)]
    fn columns(&self) -> impl Iterator<Item = (f64, &[f64])> {
        let mut rest = self.soa;
        self.query.iter().map(move |&q| {
            let (col, tail) = rest.split_at(self.rows);
            rest = tail;
            (q, col)
        })
    }

    /// Reduced distances of the lane group at `base`. The outer loop
    /// runs coordinates in ascending order, so each lane accumulates
    /// exactly like the scalar kernels; the inner `0..LANES` loop over
    /// a length-proven group is what LLVM turns into vector code.
    #[inline(always)]
    fn distances(&self, base: usize) -> [f64; LANES] {
        let mut acc = [0.0f64; LANES];
        match self.metric {
            Metric::Euclidean => {
                for (q, col) in self.columns() {
                    let col = lane_group(col, base);
                    for j in 0..LANES {
                        let delta = q - col[j];
                        acc[j] += delta * delta;
                    }
                }
            }
            Metric::Manhattan => {
                for (q, col) in self.columns() {
                    let col = lane_group(col, base);
                    for j in 0..LANES {
                        acc[j] += (q - col[j]).abs();
                    }
                }
            }
            Metric::Chebyshev => {
                for (q, col) in self.columns() {
                    let col = lane_group(col, base);
                    for j in 0..LANES {
                        acc[j] = f64::max(acc[j], (q - col[j]).abs());
                    }
                }
            }
        }
        acc
    }

    /// Reduced distance of point `i` (the remainder rows after the last
    /// full lane group). Same coordinate order as the scalar kernels.
    #[inline(always)]
    fn distance(&self, i: usize) -> f64 {
        let mut acc = 0.0f64;
        match self.metric {
            Metric::Euclidean => {
                for (q, col) in self.columns() {
                    let delta = q - col[i];
                    acc += delta * delta;
                }
            }
            Metric::Manhattan => {
                for (q, col) in self.columns() {
                    acc += (q - col[i]).abs();
                }
            }
            Metric::Chebyshev => {
                for (q, col) in self.columns() {
                    acc = f64::max(acc, (q - col[i]).abs());
                }
            }
        }
        acc
    }
}

/// Bitmask of the lanes of `acc` within `thr`: bit `j` is set iff
/// `acc[j] <= thr`. Folding from the last lane keeps lane j in vector
/// slot j; a shift-by-j loop led LLVM to regroup the accumulators and
/// gather columns lane by lane.
#[inline(always)]
fn threshold(acc: &[f64; LANES], thr: f64) -> u32 {
    acc.iter().rev().fold(0, |mask, &a| mask << 1 | u32::from(a <= thr))
}

/// The `LANES` values of `col` starting at row `base`.
#[inline(always)]
fn lane_group(col: &[f64], base: usize) -> &[f64; LANES] {
    col[base..base + LANES].try_into().expect("a full lane group")
}

/// The two builds of the lane-group body. Both compute the distances
/// with [`SoaBlock::distances`] and keep those `<=` the threshold, so
/// they are interchangeable bit for bit; [`Body::detect`] picks AVX2
/// when the CPU has it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// Compiled for the build target (SSE2 on a baseline x86-64 build).
    Portable,
    /// Compiled with AVX2 enabled: four ymm accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Body {
    /// The AVX2 body when the host supports it, detected at run time.
    #[inline]
    fn detect() -> Body {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Body::Avx2;
        }
        Body::Portable
    }

    /// [`scan_block_soa`] through this body.
    ///
    /// # Safety
    ///
    /// The CPU must support the body's instruction set.
    #[inline]
    unsafe fn scan<F: FnMut(usize) -> bool>(self, block: &SoaBlock, on_match: F) -> bool {
        match self {
            Body::Portable => scan_groups(block, threshold, on_match),
            // SAFETY: the caller guarantees the CPU has AVX2.
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => unsafe { scan_avx2(block, on_match) },
        }
    }
}

/// Report the rows of `block` within its threshold in row order: whole
/// lane groups through `threshold` (the bitmask of the group's
/// distances within `thr`), the remainder one point at a time. Returns
/// `false` iff `on_match` stopped the scan.
#[inline(always)]
fn scan_groups<T: Fn(&[f64; LANES], f64) -> u32, F: FnMut(usize) -> bool>(
    block: &SoaBlock,
    threshold: T,
    mut on_match: F,
) -> bool {
    let mut base = 0usize;
    while base + LANES <= block.rows {
        // the usual all-zero mask skips the emission loop entirely
        let mut mask = threshold(&block.distances(base), block.thr);
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            if !on_match(base + j) {
                return false;
            }
            mask &= mask - 1;
        }
        base += LANES;
    }
    for i in base..block.rows {
        if block.distance(i) <= block.thr && !on_match(i) {
            return false;
        }
    }
    true
}

/// [`scan_groups`] compiled with AVX2 enabled, through
/// [`threshold_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2<F: FnMut(usize) -> bool>(block: &SoaBlock, on_match: F) -> bool {
    scan_groups(block, |acc, thr| threshold_avx2(acc, thr), on_match)
}

/// [`threshold`] with AVX2: one `vcmppd LE_OQ` + `vmovmskpd` per four
/// lanes (`LE_OQ` is false on NaN, like `<=`). The distances stay the
/// shared safe code, which the AVX2 wrappers compile on ymm registers
/// (Rust never contracts a multiply and an add into an FMA). From the
/// portable fold LLVM emits packs, `pmovmskb` and about 20 scalar bit
/// operations per group instead, which at d = 2 cost a third of the
/// leaf-scan throughput (EXPERIMENTS.md, "Kernel body").
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn threshold_avx2(acc: &[f64; LANES], thr: f64) -> u32 {
    use std::arch::x86_64::*;
    let thr = _mm256_set1_pd(thr);
    let (quads, _) = acc.as_chunks::<4>();
    quads.iter().enumerate().fold(0, |mask, (c, quad)| {
        // SAFETY: `quad` is four contiguous f64.
        let a = unsafe { _mm256_loadu_pd(quad.as_ptr()) };
        let hits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a, thr)) as u32;
        mask | hits << (4 * c)
    })
}

/// Transpose one row-major block into dimension-major (SoA) order:
/// `out[k * rows + i] = block[i * dim + k]`. The inverse of the gather
/// the SoA kernels perform; `out.len() == block.len()`.
pub fn transpose_block(block: &[f64], dim: usize, out: &mut [f64]) {
    debug_assert_eq!(block.len(), out.len());
    if dim == 0 {
        return;
    }
    let rows = block.len() / dim;
    for (i, row) in block.chunks_exact(dim).enumerate() {
        for (k, &v) in row.iter().enumerate() {
            out[k * rows + i] = v;
        }
    }
}

/// Reduced distance between a single pair of points, dispatched on
/// length. Accumulation order matches the generic loops exactly, so the
/// result is bit-identical to [`reduced_generic`].
#[inline]
pub fn reduced_distance_dispatch(metric: Metric, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match a.len() {
        2 => reduced_fixed::<2>(metric, a, b),
        3 => reduced_fixed::<3>(metric, a, b),
        4 => reduced_fixed::<4>(metric, a, b),
        5 => reduced_fixed::<5>(metric, a, b),
        6 => reduced_fixed::<6>(metric, a, b),
        _ => reduced_generic(metric, a, b),
    }
}

#[inline]
fn reduced_fixed<const D: usize>(metric: Metric, a: &[f64], b: &[f64]) -> f64 {
    let a: &[f64; D] = a.try_into().expect("length checked by dispatch");
    let b: &[f64; D] = b.try_into().expect("length checked by dispatch");
    match metric {
        Metric::Euclidean => squared_euclidean_fixed(a, b),
        Metric::Manhattan => manhattan_fixed(a, b),
        Metric::Chebyshev => chebyshev_fixed(a, b),
    }
}

/// The dynamic-length reduced distance (no dispatch) — the reference
/// the specialized kernels must agree with bit for bit.
#[inline]
pub fn reduced_generic(metric: Metric, a: &[f64], b: &[f64]) -> f64 {
    metric_kernel(metric)(a, b)
}

/// Squared Euclidean distance over a fixed dimension.
#[inline]
pub fn squared_euclidean_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for k in 0..D {
        let d = a[k] - b[k];
        acc += d * d;
    }
    acc
}

/// Manhattan (L1) distance over a fixed dimension.
#[inline]
pub fn manhattan_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for k in 0..D {
        acc += (a[k] - b[k]).abs();
    }
    acc
}

/// Chebyshev (L∞) distance over a fixed dimension.
#[inline]
pub fn chebyshev_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for k in 0..D {
        acc = f64::max(acc, (a[k] - b[k]).abs());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    fn block(dim: usize, rows: usize) -> Vec<f64> {
        (0..dim * rows).map(|i| ((i as f64) * 7.31).sin() * 40.0).collect()
    }

    fn soa_of(block: &[f64], dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; block.len()];
        transpose_block(block, dim, &mut out);
        out
    }

    /// Every lane-group body this CPU can run. Dispatch runs only the
    /// AVX2 build on an AVX2 host, so these tests are what executes the
    /// portable one there.
    fn bodies() -> Vec<Body> {
        let mut v = vec![Body::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Body::Avx2);
            }
        }
        v
    }

    #[test]
    fn dispatch_matches_generic_bit_for_bit() {
        for dim in 1..=8 {
            let data = block(dim, 37);
            let q: Vec<f64> = (0..dim).map(|k| (k as f64) * 3.7 - 1.0).collect();
            for m in METRICS {
                for row in data.chunks_exact(dim) {
                    let a = reduced_distance_dispatch(m, &q, row);
                    let b = reduced_generic(m, &q, row);
                    assert_eq!(a.to_bits(), b.to_bits(), "dim={dim} metric={m:?}");
                }
            }
        }
    }

    #[test]
    fn scan_block_matches_generic_matches() {
        for dim in 1..=8 {
            let data = block(dim, 53);
            let q: Vec<f64> = (0..dim).map(|k| (k as f64) * 1.3).collect();
            for m in METRICS {
                for thr in [0.0, 10.0, 1000.0, f64::INFINITY] {
                    let mut fast = Vec::new();
                    let mut slow = Vec::new();
                    assert!(scan_block(m, dim, &q, &data, thr, |i| {
                        fast.push(i);
                        true
                    }));
                    assert!(scan_block_generic(m, dim, &q, &data, thr, |i| {
                        slow.push(i);
                        true
                    }));
                    assert_eq!(fast, slow, "dim={dim} metric={m:?} thr={thr}");
                }
            }
        }
    }

    #[test]
    fn soa_scan_matches_row_major_scan() {
        // 0..=2 full lane groups, every remainder length in between
        for rows in 0..=2 * LANES + 3 {
            for dim in 1..=8 {
                let data = block(dim, rows);
                let soa = soa_of(&data, dim);
                let q: Vec<f64> = (0..dim).map(|k| (k as f64) * 1.3).collect();
                for m in METRICS {
                    for thr in [0.0, 10.0, 1000.0, f64::INFINITY] {
                        let mut row_major = Vec::new();
                        assert!(scan_block(m, dim, &q, &data, thr, |i| {
                            row_major.push(i);
                            true
                        }));
                        let sb = SoaBlock { metric: m, query: &q, soa: &soa, rows, thr };
                        for body in bodies() {
                            let mut lane = Vec::new();
                            // SAFETY: `bodies` lists only bodies this CPU runs.
                            let done = unsafe {
                                body.scan(&sb, |i| {
                                    lane.push(i);
                                    true
                                })
                            };
                            assert!(done);
                            assert_eq!(row_major, lane, "rows={rows} dim={dim} {m:?} {body:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn soa_scan_early_exit_matches_row_major() {
        let data = block(3, 100);
        let soa = soa_of(&data, 3);
        let q = [0.0, 0.0, 0.0];
        let thr = 2500.0;
        let sb = SoaBlock { metric: Metric::Euclidean, query: &q, soa: &soa, rows: 100, thr };
        for cap in [1usize, 3, 7, LANES + 1, 2 * LANES + 2] {
            let mut want = Vec::new();
            let want_done = scan_block(Metric::Euclidean, 3, &q, &data, thr, |i| {
                want.push(i);
                want.len() < cap
            });
            let mut hits = Vec::new();
            let done = scan_block_soa(Metric::Euclidean, 3, &q, &soa, 100, thr, |i| {
                hits.push(i);
                hits.len() < cap
            });
            assert_eq!((done, &hits), (want_done, &want), "cap={cap}");
            for body in bodies() {
                hits.clear();
                // SAFETY: `bodies` lists only bodies this CPU runs.
                let done = unsafe {
                    body.scan(&sb, |i| {
                        hits.push(i);
                        hits.len() < cap
                    })
                };
                assert_eq!((done, &hits), (want_done, &want), "cap={cap} {body:?}");
            }
        }
    }

    #[test]
    fn transpose_round_trips_losslessly() {
        for dim in 1..=6 {
            let data = block(dim, 29);
            let soa = soa_of(&data, dim);
            let rows = 29;
            for (i, row) in data.chunks_exact(dim).enumerate() {
                for (k, &v) in row.iter().enumerate() {
                    assert_eq!(v.to_bits(), soa[k * rows + i].to_bits());
                }
            }
        }
    }

    #[test]
    fn early_exit_stops_the_scan() {
        let data = block(2, 100);
        let mut seen = 0usize;
        let finished = scan_block(Metric::Euclidean, 2, &[0.0, 0.0], &data, f64::INFINITY, |_| {
            seen += 1;
            seen < 5
        });
        assert!(!finished);
        assert_eq!(seen, 5);
    }

    #[test]
    fn empty_block_scans_nothing() {
        for dim in [1, 2, 3, 4, 5, 6, 7] {
            let q = vec![0.0; dim];
            assert!(scan_block(Metric::Euclidean, dim, &q, &[], 1.0, |_| panic!("no rows")));
            assert!(scan_block_soa(Metric::Euclidean, dim, &q, &[], 0, 1.0, |_| panic!("no rows")));
        }
    }

    #[test]
    fn specialized_dims_are_dispatched() {
        // sanity: the dispatch table covers exactly what it claims —
        // every neighborhood-grid dimension up to MAX_NEIGHBORHOOD_DIM
        assert_eq!(SPECIALIZED_DIMS.to_vec(), (2..=6).collect::<Vec<_>>());
    }

    #[test]
    fn kernel_counters_merge() {
        let mut a = KernelCounters::default();
        assert!(a.is_zero());
        let b =
            KernelCounters { blocks_scanned: 1, rows_scanned: 16, range_hits: 3, early_exits: 1 };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.blocks_scanned, 2);
        assert_eq!(a.rows_scanned, 32);
        assert_eq!(a.range_hits, 6);
        assert_eq!(a.early_exits, 2);
        assert!(!a.is_zero());
    }
}
