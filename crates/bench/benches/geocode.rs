//! Geocoder benchmarks: the per-GPS-tweet cost the paper paid 2xx,xxx
//! times — through the district atlas, by the polygon walk alone, and
//! through the Yahoo XML round trip.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use stir_bench::district_points;
use stir_geokr::yahoo::YahooPlaceFinder;
use stir_geokr::{BackendChoice, FaultPlan, ForwardGeocoder, Gazetteer, ReverseGeocoder};

fn bench_reverse(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let points = district_points(&gazetteer, 10_000, 1);
    let mut group = c.benchmark_group("geocode/reverse");
    group.throughput(Throughput::Elements(points.len() as u64));
    // The geocoder as every engine calls it: the district atlas answers
    // most points by array index, the rest take the polygon walk.
    group.bench_function("atlas", |b| {
        let geo = ReverseGeocoder::builder(&gazetteer).build_reverse();
        b.iter(|| {
            points
                .iter()
                .filter_map(|&p| geo.resolve(black_box(p)))
                .count()
        })
    });
    // The polygon walk alone, the reference the atlas is proved against.
    group.bench_function("walk", |b| {
        b.iter(|| {
            points
                .iter()
                .filter_map(|&p| gazetteer.resolve_point_walk(black_box(p)))
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

/// Overhead of the service layer itself: the same warmed lookups through the
/// bare gazetteer backend, the resilient decorator over a quiet endpoint, and
/// the resilient decorator riding out a 10% drop schedule. The first should
/// be indistinguishable from `geocode/reverse/atlas` modulo the trait
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
    targets = bench_reverse, bench_resilience, bench_forward
}
criterion_main!(benches);
