//! Geocoder benchmarks: the per-GPS-tweet cost the paper paid 2xx,xxx
//! times — direct, cached, and through the Yahoo XML round trip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use stir_bench::district_points;
use stir_geokr::yahoo::YahooPlaceFinder;
use stir_geokr::{BackendChoice, FaultPlan, ForwardGeocoder, Gazetteer, ReverseGeocoder};

fn bench_reverse(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let points = district_points(&gazetteer, 10_000, 1);
    let mut group = c.benchmark_group("geocode/reverse");
    group.throughput(Throughput::Elements(points.len() as u64));
    group.bench_function("uncached", |b| {
        b.iter(|| {
            // A fresh geocoder per iteration: every lookup misses.
            let geo = ReverseGeocoder::builder(&gazetteer)
                .capacity(1)
                .build_reverse();
            points
                .iter()
                .filter_map(|&p| geo.resolve(black_box(p)))
                .count()
        })
    });
    group.bench_function("cached", |b| {
        let geo = ReverseGeocoder::builder(&gazetteer).build_reverse();
        // Warm the quantized cells once.
        for &p in &points {
            geo.resolve(p);
        }
        b.iter(|| {
            points
                .iter()
                .filter_map(|&p| geo.resolve(black_box(p)))
                .count()
        })
    });
    group.bench_function("yahoo_xml", |b| {
        let api = YahooPlaceFinder::with_limits(&gazetteer, u64::MAX, 0);
        b.iter(|| {
            points
                .iter()
                .filter_map(|&p| api.lookup(black_box(p)).ok().flatten())
                .count()
        })
    });
    group.finish();
}

/// Lock-contention benchmark: N threads hammering ONE warmed geocoder.
/// `single_shard` reproduces the seed's layout (one mutex around the whole
/// cache — `builder(..).shards(1)`); `sharded` is the default power-of-two
/// shard array. On multi-core hardware the single mutex serialises the hit
/// path and throughput flat-lines as threads grow, while the sharded cache
/// scales; on a single core the two converge (no parallel hit paths exist
/// to collide).
fn bench_contention(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let points = district_points(&gazetteer, 4_000, 2);
    let mut group = c.benchmark_group("geocode/contention");
    for &threads in &[1usize, 2, 4, 8, 16] {
        group.throughput(Throughput::Elements((points.len() * threads) as u64));
        for (label, shards) in [("single_shard", 1usize), ("sharded", 64)] {
            group.bench_function(BenchmarkId::new(label, threads), |b| {
                let geo = ReverseGeocoder::builder(&gazetteer)
                    .capacity(1 << 20)
                    .shards(shards)
                    .build_reverse();
                // Warm every quantized cell: the benchmark measures the
                // hit path, where the seed design took the global lock.
                for &p in &points {
                    geo.resolve(p);
                }
                b.iter(|| {
                    std::thread::scope(|s| {
                        let handles: Vec<_> = (0..threads)
                            .map(|t| {
                                let geo = &geo;
                                let points = &points;
                                s.spawn(move || {
                                    // Offset walks so threads collide on
                                    // shards in every order.
                                    (0..points.len())
                                        .filter_map(|i| {
                                            let p = points[(i + t * 101) % points.len()];
                                            geo.resolve(black_box(p))
                                        })
                                        .count()
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().unwrap())
                            .sum::<usize>()
                    })
                })
            });
        }
    }
    group.finish();
}

/// Overhead of the service layer itself: the same warmed lookups through the
/// bare gazetteer backend, the resilient decorator over a quiet endpoint, and
/// the resilient decorator riding out a 10% drop schedule. The first two
/// should be indistinguishable from `geocode/reverse/cached` modulo the trait
/// dispatch; the faulted run shows what retries + fallbacks cost.
fn bench_resilience(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let points = district_points(&gazetteer, 10_000, 3);
    let mut group = c.benchmark_group("geocode/resilience");
    group.throughput(Throughput::Elements(points.len() as u64));
    let cases = [
        ("gazetteer", BackendChoice::Gazetteer, FaultPlan::default()),
        (
            "resilient_quiet",
            BackendChoice::Resilient,
            FaultPlan::default(),
        ),
        (
            "resilient_drop10",
            BackendChoice::Resilient,
            FaultPlan::parse("drop:0.1,seed:42").unwrap(),
        ),
    ];
    for (label, backend, faults) in cases {
        group.bench_function(label, |b| {
            let geo = ReverseGeocoder::builder(&gazetteer)
                .backend(backend)
                .fault_plan(faults)
                .yahoo_limits(u64::MAX, 0)
                .build();
            for &p in &points {
                let _ = geo.lookup(p);
            }
            b.iter(|| {
                points
                    .iter()
                    .filter_map(|&p| geo.lookup(black_box(p)).ok().flatten())
                    .count()
            })
        });
    }
    group.finish();
}

fn bench_forward(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let forward = ForwardGeocoder::new(&gazetteer);
    let names: Vec<&str> = gazetteer.districts().iter().map(|d| d.name_en).collect();
    let mut group = c.benchmark_group("geocode/forward");
    group.throughput(Throughput::Elements(names.len() as u64));
    group.bench_function("exact_names", |b| {
        b.iter(|| {
            names
                .iter()
                .filter(|n| {
                    forward
                        .resolve_district(black_box(n), None)
                        .unique()
                        .is_some()
                })
                .count()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_reverse, bench_contention, bench_resilience, bench_forward
}
criterion_main!(benches);
