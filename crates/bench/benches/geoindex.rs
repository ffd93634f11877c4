//! Spatial index benchmarks: R-tree vs brute force on build,
//! bounding-box query and nearest-neighbour workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stir_bench::korea_points;
use stir_geoindex::{BBox, BruteForceIndex, Point, RTree};

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("geoindex/build");
    for &n in &[1_000usize, 10_000, 100_000] {
        let pts = korea_points(n, 1);
        group.bench_with_input(BenchmarkId::new("rtree_bulk", n), &pts, |b, pts| {
            b.iter(|| RTree::bulk_load(black_box(pts.clone())))
        });
        group.bench_with_input(BenchmarkId::new("rtree_insert", n), &pts, |b, pts| {
            b.iter(|| {
                let mut t = RTree::new();
                for &p in pts {
                    t.insert(p);
                }
                t
            })
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("geoindex/bbox_query");
    let n = 100_000;
    let pts = korea_points(n, 2);
    let rtree = RTree::bulk_load(pts.clone());
    let brute = BruteForceIndex::from_items(pts);
    let queries: Vec<BBox> = korea_points(100, 3)
        .into_iter()
        .map(|p| {
            BBox::new(
                p.lat,
                p.lon,
                (p.lat + 0.3).min(38.7),
                (p.lon + 0.3).min(131.0),
            )
        })
        .collect();
    group.bench_function("rtree", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                total += rtree.query_points_in(q).len();
            }
            black_box(total)
        })
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &queries {
                total += brute.query_points_in(q).len();
            }
            black_box(total)
        })
    });
    group.finish();
}

fn bench_nearest(c: &mut Criterion) {
    let mut group = c.benchmark_group("geoindex/nearest");
    let pts = korea_points(100_000, 4);
    let rtree = RTree::bulk_load(pts.clone());
    let brute = BruteForceIndex::from_items(pts);
    let queries: Vec<Point> = korea_points(256, 5);
    group.bench_function("rtree", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|&q| rtree.nearest(q).unwrap().0)
                .sum::<usize>()
        })
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|&q| brute.nearest(q).unwrap().0)
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_query, bench_nearest
}
criterion_main!(benches);
