//! Dimension-monomorphized and chunked SoA query kernels.
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
//! On top of the row-major kernels sits the **SoA chunk scan**
//! ([`LeafScan::masks`]): it scans a leaf block stored dimension-major
//! (all `x`s, then all `y`s, …) one chunk of up to 64 rows at a time
//! (longer leaves take several chunks). The coordinate loop runs
//! outermost and every row of the chunk keeps its accumulator in a
//! register: per coordinate, broadcast `q[k]`, then one sub, mul and
//! add per lane (abs and add, or abs and max, for the other metrics).
//! The last lane group loads only the rows the chunk holds, with a
//! masked load, so there is no scalar remainder loop and nothing past
//! the leaf is read. Three bodies run this structure, picked at run
//! time: AVX-512F (64-row chunks in eight zmm accumulators), AVX2
//! (32-row chunks in eight ymm accumulators) and safe Rust for every
//! other target. One lane per point: each point's per-dimension sum
//! runs in the exact sequential coordinate order of the scalar kernels,
//! so every distance is the same `f64` bit for bit — vectorization
//! happens *across* points, never inside one point's accumulation.
//!
//! **Masks are the kernel's output.** The compares of a chunk become
//! one `u64` hit mask, whose bits past the leaf's end are cleared, and
//! every mask that holds a hit goes to the caller as `(first row,
//! mask)`. The tree walk records them as they come
//! ([`crate::bkdtree::HitMask`]) and the executors decode them in place,
//! so no hit crosses a per-row callback on the hot path. A
//! [`LeafScan`] is resolved once per walk: the metric, the query, its
//! threshold and the arm — the row-major scalar kernel under
//! [`KernelLayout::Scalar`], which builds its masks from its own
//! per-row decisions and stays the reference, or the body detected for
//! [`KernelLayout::Lanes`].
//!
//! Two invariants make the kernels safe to wire everywhere:
//!
//! * **Bit-identical results.** Fixed-`D`, generic and chunked paths
//!   accumulate in the same coordinate order with the same IEEE
//!   operations (the intrinsics bodies use no FMA, and Rust never
//!   contracts one), so every distance is the exact same `f64` — all
//!   paths return byte-identical neighborhoods (property-tested in
//!   `tests/proptest_kernels.rs`). A NaN coordinate makes every
//!   metric's distance NaN, Chebyshev included: its bodies keep a NaN
//!   accumulator through `maxpd`'s operand order and take a NaN
//!   difference by a masked max or a blend.
//! * **Same early-exit semantics.** [`scan_block`] reports matches row
//!   by row through a callback that can stop the scan, and
//!   [`scan_block_soa`] replays the chunk masks through the same kind of
//!   callback, so both stop on the same row. The mask emitter can stop
//!   a scan after any chunk, which is where the tree walk cuts a
//!   `max_neighbors` cap.
//!
//! Callers: [`crate::BkdTree`] leaf scans, [`crate::BruteForceIndex`]
//! whole-matrix scans, and [`crate::Metric::reduced_distance`] (single
//! pairs).

use crate::metric::{nan_max, Metric};

/// Dimensions with a monomorphized kernel; anything else takes the
/// generic fallback. Exposed so benches and tests can iterate the
/// dispatch table. Covers every dimension the partition planner builds
/// neighborhood grids for (`MAX_NEIGHBORHOOD_DIM = 6`).
pub const SPECIALIZED_DIMS: [usize; 5] = [2, 3, 4, 5, 6];

/// How leaf blocks are stored and scanned. Every layout produces
/// bit-identical results; only throughput changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLayout {
    /// Row-major blocks, one point at a time ([`scan_block`]).
    Scalar,
    /// Dimension-major (SoA) blocks, a chunk of up to 64 points at a time
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

// ---- chunk masks --------------------------------------------------------

/// One query's leaf scanner, resolved once per tree walk: the metric,
/// the query and its threshold, and the arm that scans — the row-major
/// scalar kernel under [`KernelLayout::Scalar`], the widest chunk-scan
/// body the CPU runs under [`KernelLayout::Lanes`], detected here once.
/// Every arm reports the same hits; the tree walk records them as chunk
/// masks.
#[derive(Debug, Clone, Copy)]
pub struct LeafScan<'a> {
    metric: Metric,
    dim: usize,
    query: &'a [f64],
    thr: f64,
    arm: Arm,
}

/// How a [`LeafScan`] reads a leaf block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arm {
    /// A row-major block, one row at a time through [`scan_block`]: the
    /// reference arm.
    RowMajor,
    /// A dimension-major block, one chunk at a time through a body.
    Chunked(Body),
}

impl<'a> LeafScan<'a> {
    /// The scanner for `query` (`dim` coordinates) at threshold `thr`
    /// (in [`Metric::threshold`] space) over blocks stored in `layout`.
    #[inline]
    pub fn new(
        layout: KernelLayout,
        metric: Metric,
        dim: usize,
        query: &'a [f64],
        thr: f64,
    ) -> Self {
        let arm = match layout {
            KernelLayout::Scalar => Arm::RowMajor,
            KernelLayout::Lanes => Arm::Chunked(Body::detect()),
        };
        Self::with_arm(arm, metric, dim, query, thr)
    }

    /// The scanner through an explicit arm (tests pit every body the
    /// CPU runs against the others).
    #[inline]
    pub(crate) fn with_arm(
        arm: Arm,
        metric: Metric,
        dim: usize,
        query: &'a [f64],
        thr: f64,
    ) -> Self {
        LeafScan { metric, dim, query, thr, arm }
    }

    /// Report the hits of one leaf block of `rows` rows as chunk masks:
    /// `emit(base, mask)` for every chunk of up to 64 rows that holds a
    /// hit, in row order, where bit `j` of `mask` is set iff row
    /// `base + j` is within the threshold. `block` holds `rows * dim`
    /// values, row-major under [`KernelLayout::Scalar`] and
    /// dimension-major under [`KernelLayout::Lanes`]. `emit` returns
    /// `false` to stop the scan; `masks` returns `false` iff it was
    /// stopped.
    #[inline]
    pub fn masks<E: FnMut(usize, u64) -> bool>(&self, block: &[f64], rows: usize, emit: E) -> bool {
        assert_eq!(block.len(), rows * self.dim, "a leaf block holds rows * dim values");
        if rows == 0 || self.dim == 0 {
            return true;
        }
        match self.arm {
            Arm::RowMajor => {
                let (m, d, q, thr) = (self.metric, self.dim, self.query, self.thr);
                scan_chunks::<64, _, _>(
                    rows,
                    |base, len| {
                        let mut mask = 0u64;
                        scan_block(m, d, q, &block[base * d..(base + len) * d], thr, |i| {
                            mask |= 1 << i;
                            true
                        });
                        mask
                    },
                    emit,
                )
            }
            Arm::Chunked(body) => {
                let soa = SoaBlock {
                    metric: self.metric,
                    query: &self.query[..self.dim],
                    soa: block,
                    rows,
                    thr: self.thr,
                };
                // SAFETY: `Body::detect` only returns a body this CPU can
                // run, and tests build a `Chunked` arm only from
                // `Body::runnable`.
                unsafe { body.scan(&soa, emit) }
            }
        }
    }
}

/// Scan a dimension-major (SoA) coordinate block of `rows` points
/// (`soa[k * rows + i]` = coordinate `k` of point `i`,
/// `soa.len() == rows * dim`), invoking `on_match(i)` for every row
/// within `thr`, **in row order** — the same callback sequence, stops
/// included, as [`scan_block`] over the row-major transpose of the
/// block. Distances are bit-identical to the scalar path: lanes run
/// across points, each point still accumulates coordinate `0..dim`
/// sequentially. The rows come from the chunk masks of
/// [`LeafScan::masks`].
#[inline]
pub fn scan_block_soa<F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    thr: f64,
    mut on_match: F,
) -> bool {
    LeafScan::new(KernelLayout::Lanes, metric, dim, query, thr)
        .masks(soa, rows, |base, mask| each_row(base, mask, &mut on_match))
}

/// `on_match(base + j)` for every set bit `j` of `mask`, ascending,
/// until it returns `false`; whether it never did.
#[inline]
fn each_row(base: usize, mask: u64, mut on_match: impl FnMut(usize) -> bool) -> bool {
    let mut rest = mask;
    while rest != 0 {
        if !on_match(base + rest.trailing_zeros() as usize) {
            return false;
        }
        rest &= rest - 1;
    }
    true
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
    /// The chunk `[base, base + len)` of every coordinate column in
    /// dimension order, paired with the query coordinate each is
    /// compared against. Slicing once per column keeps the lane loads
    /// in bounds without a check per lane.
    #[inline(always)]
    fn columns(&self, base: usize, len: usize) -> impl Iterator<Item = (f64, &[f64])> {
        self.query.iter().enumerate().map(move |(k, &q)| {
            let start = k * self.rows + base;
            (q, &self.soa[start..start + len])
        })
    }
}

/// Emit the hit masks of a block of `rows` rows, one chunk of up to `C`
/// rows at a time: `hits(base, len)` is the chunk's hit mask (bit `j`
/// set iff row `base + j` is within the threshold), and `emit(base,
/// mask)` receives every mask that holds a hit, in row order. Bits at
/// and past `len` are cleared here, so a body may leave anything in the
/// lanes past the leaf's end. Returns `false` iff `emit` stopped the
/// scan.
#[inline(always)]
fn scan_chunks<const C: usize, H: FnMut(usize, usize) -> u64, E: FnMut(usize, u64) -> bool>(
    rows: usize,
    mut hits: H,
    mut emit: E,
) -> bool {
    const { assert!(C <= 64, "a chunk's hit mask is one u64") };
    let mut base = 0usize;
    while base < rows {
        let len = C.min(rows - base);
        let mask = hits(base, len) & (u64::MAX >> (64 - len));
        // the usual all-zero mask costs one branch
        if mask != 0 && !emit(base, mask) {
            return false;
        }
        base += len;
    }
    true
}

/// The chunk-scan bodies. All three run the same structure — the
/// coordinate loop outermost, one accumulator per row of the chunk,
/// the scalar kernels' per-coordinate operations in the scalar order —
/// so they are interchangeable bit for bit; [`Body::detect`] picks the
/// widest one the CPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body {
    /// Safe Rust for any target: 64-row chunks.
    Portable,
    /// AVX2: 32-row chunks in eight ymm accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F: 64-row chunks in eight zmm accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Body {
    /// The widest body the host supports, detected at run time.
    #[inline]
    pub(crate) fn detect() -> Body {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Body::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Body::Avx2;
            }
        }
        Body::Portable
    }

    /// Every body this CPU can run, narrowest first. Dispatch runs only
    /// the widest one, so tests are what executes the others there.
    #[cfg(test)]
    pub(crate) fn runnable() -> Vec<Body> {
        let mut v = vec![Body::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Body::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                v.push(Body::Avx512);
            }
        }
        v
    }

    /// The chunk masks of `block` through this body ([`scan_chunks`]).
    ///
    /// # Safety
    ///
    /// The CPU must support the body's instruction set.
    #[inline]
    unsafe fn scan<E: FnMut(usize, u64) -> bool>(self, block: &SoaBlock, emit: E) -> bool {
        match self {
            Body::Portable => scan_portable(block, emit),
            // SAFETY: the caller guarantees the CPU has AVX2.
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => unsafe { scan_avx2(block, emit) },
            // SAFETY: the caller guarantees the CPU has AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => unsafe { scan_avx512(block, emit) },
        }
    }
}

/// The portable body: the chunk's accumulators in a `[f64; 64]`, one
/// per row, updated column by column.
fn scan_portable<E: FnMut(usize, u64) -> bool>(block: &SoaBlock, emit: E) -> bool {
    /// One coordinate's contribution folded into a row's accumulator:
    /// `step(acc, q, x)` with the scalar kernels' operations.
    #[inline(always)]
    fn hits<S: Fn(f64, f64, f64) -> f64>(b: &SoaBlock, base: usize, len: usize, step: S) -> u64 {
        let mut acc = [0.0f64; 64];
        for (q, col) in b.columns(base, len) {
            for (a, &x) in acc.iter_mut().zip(col) {
                *a = step(*a, q, x);
            }
        }
        acc[..len].iter().rev().fold(0, |mask, &a| mask << 1 | u64::from(a <= b.thr))
    }
    let rows = block.rows;
    match block.metric {
        Metric::Euclidean => scan_chunks::<64, _, _>(
            rows,
            |base, len| {
                hits(block, base, len, |a, q, x| {
                    let delta = q - x;
                    a + delta * delta
                })
            },
            emit,
        ),
        Metric::Manhattan => scan_chunks::<64, _, _>(
            rows,
            |base, len| hits(block, base, len, |a, q, x| a + (q - x).abs()),
            emit,
        ),
        Metric::Chebyshev => scan_chunks::<64, _, _>(
            rows,
            |base, len| hits(block, base, len, |a, q, x| nan_max(a, (q - x).abs())),
            emit,
        ),
    }
}

/// Dispatch a chunk of `len` rows to the body instantiated for its
/// number of `W`-lane groups, `1..=8`, so that exactly the groups the
/// chunk needs are computed and every accumulator stays in a register.
macro_rules! by_groups {
    ($f:ident, $w:expr, $block:expr, $base:expr, $len:expr, $step:expr) => {
        match $len.div_ceil($w) {
            1 => $f::<1, _>($block, $base, $len, $step),
            2 => $f::<2, _>($block, $base, $len, $step),
            3 => $f::<3, _>($block, $base, $len, $step),
            4 => $f::<4, _>($block, $base, $len, $step),
            5 => $f::<5, _>($block, $base, $len, $step),
            6 => $f::<6, _>($block, $base, $len, $step),
            7 => $f::<7, _>($block, $base, $len, $step),
            _ => $f::<8, _>($block, $base, $len, $step),
        }
    };
}

/// The AVX-512F body: 64-row chunks as eight 8-lane zmm groups.
/// Per coordinate it broadcasts `q[k]` and applies one IEEE sub, mul
/// and add per group (Euclidean; abs and add, or abs and max, for the
/// other metrics) — the scalar kernels' operations in their order, with
/// no FMA. The last group loads only the chunk's lanes
/// (`_mm512_maskz_loadu_pd`), so nothing past the leaf is read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn scan_avx512<E: FnMut(usize, u64) -> bool>(block: &SoaBlock, emit: E) -> bool {
    use std::arch::x86_64::*;
    let rows = block.rows;
    match block.metric {
        Metric::Euclidean => scan_chunks::<64, _, _>(
            rows,
            |base, len| {
                by_groups!(groups_avx512, 8, block, base, len, |a, q, x| {
                    let delta = _mm512_sub_pd(q, x);
                    _mm512_add_pd(a, _mm512_mul_pd(delta, delta))
                })
            },
            emit,
        ),
        Metric::Manhattan => scan_chunks::<64, _, _>(
            rows,
            |base, len| {
                by_groups!(groups_avx512, 8, block, base, len, |a, q, x| {
                    _mm512_add_pd(a, _mm512_abs_pd(_mm512_sub_pd(q, x)))
                })
            },
            emit,
        ),
        // `nan_max(a, v)`: `maxpd(v, a)` returns its second operand when
        // either is NaN, which keeps a NaN `a`; the lanes where `v` is
        // NaN take `v` instead, so a NaN in one coordinate is not lost
        // by the next
        Metric::Chebyshev => scan_chunks::<64, _, _>(
            rows,
            |base, len| {
                by_groups!(groups_avx512, 8, block, base, len, |a, q, x| {
                    let v = _mm512_abs_pd(_mm512_sub_pd(q, x));
                    _mm512_mask_max_pd(v, _mm512_cmp_pd_mask::<_CMP_ORD_Q>(v, v), v, a)
                })
            },
            emit,
        ),
    }
}

/// The hit mask of one AVX-512 chunk of `len` rows in `G` groups
/// (`8 * (G - 1) < len <= 8 * G`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn groups_avx512<const G: usize, S>(b: &SoaBlock, base: usize, len: usize, step: S) -> u64
where
    S: Fn(
        std::arch::x86_64::__m512d,
        std::arch::x86_64::__m512d,
        std::arch::x86_64::__m512d,
    ) -> std::arch::x86_64::__m512d,
{
    use std::arch::x86_64::*;
    // the loads below rely on it: every group before the last is whole
    assert!(8 * (G - 1) < len && len <= 8 * G, "{len} rows are not {G} 8-lane groups");
    let tail = (0xFFu32 >> (8 * G - len)) as __mmask8;
    let mut acc = [_mm512_setzero_pd(); G];
    for (q, col) in b.columns(base, len) {
        let q = _mm512_set1_pd(q);
        for (g, a) in acc.iter_mut().enumerate() {
            let lanes = if g + 1 == G { tail } else { 0xFF };
            // SAFETY: `col` holds `len` values and `8 * (G - 1) < len`
            // (asserted above), so the lanes `lanes` enables are rows
            // below `len`; masked-off lanes are not read.
            let x = unsafe { _mm512_maskz_loadu_pd(lanes, col.as_ptr().add(8 * g)) };
            *a = step(*a, q, x);
        }
    }
    let thr = _mm512_set1_pd(b.thr);
    acc.iter().enumerate().fold(0, |mask, (g, &a)| {
        mask | u64::from(_mm512_cmp_pd_mask::<_CMP_LE_OQ>(a, thr)) << (8 * g)
    })
}

/// The AVX2 body: the AVX-512 structure on ymm registers, so 32-row
/// chunks as eight 4-lane groups, with the last group loaded through
/// `_mm256_maskload_pd`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2<E: FnMut(usize, u64) -> bool>(block: &SoaBlock, emit: E) -> bool {
    use std::arch::x86_64::*;
    let rows = block.rows;
    // clears the sign bit: `f64::abs`
    let abs = |v| _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
    match block.metric {
        Metric::Euclidean => scan_chunks::<32, _, _>(
            rows,
            |base, len| {
                by_groups!(groups_avx2, 4, block, base, len, |a, q, x| {
                    let delta = _mm256_sub_pd(q, x);
                    _mm256_add_pd(a, _mm256_mul_pd(delta, delta))
                })
            },
            emit,
        ),
        Metric::Manhattan => scan_chunks::<32, _, _>(
            rows,
            |base, len| {
                by_groups!(groups_avx2, 4, block, base, len, |a, q, x| {
                    _mm256_add_pd(a, abs(_mm256_sub_pd(q, x)))
                })
            },
            emit,
        ),
        // `scan_avx512`'s Chebyshev: `maxpd(v, a)` keeps a NaN `a`, and
        // a blend takes `v` where it is NaN
        Metric::Chebyshev => scan_chunks::<32, _, _>(
            rows,
            |base, len| {
                by_groups!(groups_avx2, 4, block, base, len, |a, q, x| {
                    let v = abs(_mm256_sub_pd(q, x));
                    _mm256_blendv_pd(_mm256_max_pd(v, a), v, _mm256_cmp_pd::<_CMP_UNORD_Q>(v, v))
                })
            },
            emit,
        ),
    }
}

/// The hit mask of one AVX2 chunk of `len` rows in `G` groups
/// (`4 * (G - 1) < len <= 4 * G`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn groups_avx2<const G: usize, S>(b: &SoaBlock, base: usize, len: usize, step: S) -> u64
where
    S: Fn(
        std::arch::x86_64::__m256d,
        std::arch::x86_64::__m256d,
        std::arch::x86_64::__m256d,
    ) -> std::arch::x86_64::__m256d,
{
    use std::arch::x86_64::*;
    // the loads below rely on it: every group before the last is whole
    assert!(4 * (G - 1) < len && len <= 4 * G, "{len} rows are not {G} 4-lane groups");
    // lane i of the last group is loaded iff its sign bit is set
    let tail = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x((len - 4 * (G - 1)) as i64),
        _mm256_setr_epi64x(0, 1, 2, 3),
    );
    let mut acc = [_mm256_setzero_pd(); G];
    for (q, col) in b.columns(base, len) {
        let q = _mm256_set1_pd(q);
        for (g, a) in acc.iter_mut().enumerate() {
            let p = col.as_ptr().wrapping_add(4 * g);
            // SAFETY: `col` holds `len` values and `4 * (G - 1) < len`
            // (asserted above): a group before the last is four whole
            // rows below `len`, and the last group reads only the lanes
            // `tail` enables, which are below `len`.
            let x = unsafe {
                if g + 1 == G {
                    _mm256_maskload_pd(p, tail)
                } else {
                    _mm256_loadu_pd(p)
                }
            };
            *a = step(*a, q, x);
        }
    }
    let thr = _mm256_set1_pd(b.thr);
    acc.iter().enumerate().fold(0, |mask, (g, &a)| {
        let hits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a, thr)) as u32;
        mask | u64::from(hits) << (4 * g)
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
        acc = nan_max(acc, (a[k] - b[k]).abs());
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

    /// The query the chunk-boundary tests scan with, and its radius:
    /// both exactly representable, so rows placed one radius away along
    /// an axis sit exactly at the threshold under every metric.
    fn boundary_query(dim: usize) -> (Vec<f64>, f64) {
        ((0..dim).map(|k| 1.5 + k as f64).collect(), 2.0)
    }

    /// A leaf of `rows` rows around `q`: copies of `q` (hit at every
    /// threshold), rows exactly one `eps` away along one axis, rows
    /// holding a NaN or an infinity, and a spread of ordinary rows.
    fn boundary_leaf(q: &[f64], eps: f64, rows: usize) -> Vec<f64> {
        let dim = q.len();
        let mut out = Vec::with_capacity(rows * dim);
        for i in 0..rows {
            let mut row = q.to_vec();
            let k = i % dim;
            match i % 6 {
                0 => {}
                1 => row[k] += if i % 4 == 1 { eps } else { -eps },
                2 => row[k] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i / 6 % 3],
                _ => {
                    for (j, c) in row.iter_mut().enumerate() {
                        *c += (((i * dim + j) as f64) * 7.31).sin() * 3.0;
                    }
                }
            }
            out.extend(row);
        }
        out
    }

    /// `leaf`'s dimension-major mirror between values a scan must never
    /// report — the query's first coordinate and non-finite values, as a
    /// neighbouring leaf of a tree's mirror can hold: `(mirror, start)`,
    /// the leaf at `mirror[start..start + leaf.len()]`.
    fn poisoned_mirror(q: &[f64], leaf: &[f64]) -> (Vec<f64>, usize) {
        let pad = [q[0], f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut mirror: Vec<f64> = pad.iter().copied().cycle().take(8).collect();
        let start = mirror.len();
        mirror.extend(soa_of(leaf, q.len()));
        mirror.extend(pad.iter().copied().cycle().take(128 * q.len()));
        (mirror, start)
    }

    fn row_major_hits(
        m: Metric,
        q: &[f64],
        leaf: &[f64],
        thr: f64,
        cap: usize,
    ) -> (bool, Vec<usize>) {
        let mut hits = Vec::new();
        let done = scan_block_generic(m, q.len(), q, leaf, thr, |i| {
            hits.push(i);
            hits.len() < cap
        });
        (done, hits)
    }

    /// The rows `body` reports for `sb` through its chunk masks, stopped
    /// at the `cap`-th hit, with whether the scan ran to the end.
    fn body_hits(body: Body, sb: &SoaBlock, cap: usize) -> (bool, Vec<usize>) {
        let mut hits = Vec::new();
        // SAFETY: `Body::runnable` lists only bodies this CPU runs.
        let done = unsafe {
            body.scan(sb, |base, mask| {
                each_row(base, mask, |i| {
                    hits.push(i);
                    hits.len() < cap
                })
            })
        };
        (done, hits)
    }

    #[test]
    fn soa_scan_matches_row_major_scan() {
        // 0..=130 rows crosses the 4-, 8-, 32- and 64-row group and
        // chunk edges of every body at once
        for dim in 1..=12 {
            let (q, eps) = boundary_query(dim);
            let mut odd_q = q.clone();
            odd_q[0] = f64::NAN;
            odd_q[dim - 1] = f64::INFINITY;
            for rows in 0..=130 {
                let leaf = boundary_leaf(&q, eps, rows);
                let (mirror, start) = poisoned_mirror(&q, &leaf);
                let soa = &mirror[start..start + leaf.len()];
                for m in METRICS {
                    for thr in [0.0, m.threshold(eps), 1000.0, f64::INFINITY] {
                        for query in [&q, &odd_q] {
                            let want = row_major_hits(m, query, &leaf, thr, usize::MAX);
                            let sb = SoaBlock { metric: m, query, soa, rows, thr };
                            for body in Body::runnable() {
                                assert_eq!(
                                    body_hits(body, &sb, usize::MAX),
                                    want,
                                    "rows={rows} dim={dim} {m:?} thr={thr} {body:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chebyshev_nan_in_one_coordinate_is_not_lost_by_the_next() {
        // `maxpd` returns its second operand when either is NaN, so a
        // NaN met in coordinate 0 would fall to a finite coordinate 1
        // unless the body tracks it: every row below holds one NaN next
        // to coordinates within any threshold, and none may be a hit
        let m = Metric::Chebyshev;
        for dim in 2..=6 {
            let q: Vec<f64> = (0..dim).map(|k| 0.5 * k as f64).collect();
            for rows in [1, 5, 8, 9, 33, 64, 70] {
                let leaf: Vec<f64> = (0..rows)
                    .flat_map(|i| {
                        let mut row = q.clone();
                        row[i % dim] = f64::NAN;
                        row[(i + 1) % dim] += 0.25;
                        row
                    })
                    .collect();
                let soa = soa_of(&leaf, dim);
                for thr in [1.0, f64::INFINITY] {
                    let tag = format!("dim={dim} rows={rows} thr={thr}");
                    assert_eq!(row_major_hits(m, &q, &leaf, thr, usize::MAX), (true, vec![]));
                    let mut fixed = Vec::new();
                    scan_block(m, dim, &q, &leaf, thr, |i| {
                        fixed.push(i);
                        true
                    });
                    assert_eq!(fixed, Vec::<usize>::new(), "{tag}");
                    let sb = SoaBlock { metric: m, query: &q, soa: &soa, rows, thr };
                    for body in Body::runnable() {
                        assert_eq!(
                            body_hits(body, &sb, usize::MAX),
                            (true, vec![]),
                            "{tag} {body:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soa_scan_keeps_rows_at_the_threshold() {
        // the boundary rows are exactly at the threshold, and `<=`
        // keeps them: a body that compared `<` would drop them
        for m in METRICS {
            let (q, eps) = boundary_query(3);
            let leaf = boundary_leaf(&q, eps, 70);
            let (_, hits) = row_major_hits(m, &q, &leaf, m.threshold(eps), usize::MAX);
            assert!(hits.contains(&1) && hits.contains(&67), "{m:?}: {hits:?}");
        }
    }

    #[test]
    fn soa_scan_early_exit_matches_row_major() {
        let (q, eps) = boundary_query(3);
        let leaf = boundary_leaf(&q, eps, 130);
        let soa = soa_of(&leaf, 3);
        for m in METRICS {
            for thr in [m.threshold(eps), f64::INFINITY] {
                let sb = SoaBlock { metric: m, query: &q, soa: &soa, rows: 130, thr };
                for cap in [1usize, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 129, 130, 131] {
                    let want = row_major_hits(m, &q, &leaf, thr, cap);
                    let mut hits = Vec::new();
                    let done = scan_block_soa(m, 3, &q, &soa, 130, thr, |i| {
                        hits.push(i);
                        hits.len() < cap
                    });
                    assert_eq!((done, &hits), (want.0, &want.1), "cap={cap} {m:?}");
                    for body in Body::runnable() {
                        assert_eq!(body_hits(body, &sb, cap), want, "cap={cap} {m:?} {body:?}");
                    }
                }
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
