//! Ablation A2: spatial index comparison — node-per-point kd-tree (the
//! paper's choice, exact and pruned) vs the leaf-bucketed kd-tree (our
//! default) vs brute force (the `O(n^2)` strawman) vs uniform grid, on
//! the paper's d=10 data. Build cost and eps-range query cost.
//!
//! For a standalone timed bkd-vs-kd comparison that writes JSON to
//! `results/`, run `cargo run --release -p dbscan-bench --bin
//! a2_bkd_vs_kd -- --scale paper`.

use criterion::{criterion_group, criterion_main, Criterion};
use dbscan_datagen::StandardDataset;
use dbscan_spatial::{
    BkdTree, BruteForceIndex, GridIndex, KdTree, PruneConfig, QueryScratch, RTree, SpatialIndex,
};
use std::hint::black_box;
use std::sync::Arc;

fn bench_spatial(c: &mut Criterion) {
    let spec = StandardDataset::C10k.scaled_spec(8);
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let eps = spec.eps;

    let mut g = c.benchmark_group("a2_index_build");
    g.sample_size(10);
    g.bench_function("kdtree", |b| b.iter(|| black_box(KdTree::build(Arc::clone(&data))).len()));
    g.bench_function("bkdtree", |b| b.iter(|| black_box(BkdTree::build(Arc::clone(&data))).len()));
    g.bench_function("grid", |b| {
        b.iter(|| black_box(GridIndex::build(Arc::clone(&data), eps)).occupied_cells())
    });
    g.bench_function("rtree", |b| b.iter(|| black_box(RTree::build(Arc::clone(&data))).len()));
    g.finish();

    let kd = KdTree::build(Arc::clone(&data));
    let bkd = BkdTree::build(Arc::clone(&data));
    let bf = BruteForceIndex::new(Arc::clone(&data));
    let grid = GridIndex::build(Arc::clone(&data), eps);
    let rtree = RTree::build(Arc::clone(&data));
    let queries: Vec<Vec<f64>> =
        data.iter().step_by(17).map(|(_, row)| row.to_vec()).take(64).collect();

    let mut g = c.benchmark_group("a2_range_query_x64");
    g.sample_size(10);
    let mut buf = Vec::new();
    g.bench_function("kdtree_exact", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                buf.clear();
                kd.range_into(q, eps, &mut buf);
                total += buf.len();
            }
            black_box(total)
        })
    });
    g.bench_function("kdtree_pruned_cap32", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                buf.clear();
                kd.range_pruned(q, eps, PruneConfig::cap_neighbors(32), &mut buf);
                total += buf.len();
            }
            black_box(total)
        })
    });
    let mut scratch = QueryScratch::new();
    g.bench_function("bkdtree_exact", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                buf.clear();
                bkd.range_into_scratch(q, eps, &mut scratch, &mut buf);
                total += buf.len();
            }
            black_box(total)
        })
    });
    g.bench_function("bkdtree_pruned_cap32", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                buf.clear();
                bkd.range_pruned_scratch(
                    q,
                    eps,
                    PruneConfig::cap_neighbors(32),
                    &mut scratch,
                    &mut buf,
                );
                total += buf.len();
            }
            black_box(total)
        })
    });
    g.bench_function("brute_force", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                buf.clear();
                bf.range_into(q, eps, &mut buf);
                total += buf.len();
            }
            black_box(total)
        })
    });
    g.bench_function("rtree", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                buf.clear();
                rtree.range_into(q, eps, &mut buf);
                total += buf.len();
            }
            black_box(total)
        })
    });
    g.bench_function("grid_d10", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                buf.clear();
                grid.range_into(q, eps, &mut buf);
                total += buf.len();
            }
            black_box(total)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_spatial);
criterion_main!(benches);
