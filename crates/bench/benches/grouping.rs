//! Grouping-method benchmarks: the paper's merge/order/classify step as a
//! function of tweets per user and cohort size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use stir_core::{
    group_user_keys, group_user_strings, DistrictInterner, GroupTable, LocationKey, LocationString,
    ReliabilityWeights,
};

fn user_strings(user: u64, n_tweets: usize, n_spots: usize, seed: u64) -> Vec<LocationString> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spots: Vec<String> = (0..n_spots).map(|i| format!("District-{i}")).collect();
    (0..n_tweets)
        .map(|_| {
            // Zipf-ish skew toward the first spots.
            let r: f64 = rng.gen::<f64>();
            let idx = ((r * r) * n_spots as f64) as usize;
            LocationString {
                user,
                state_profile: "Seoul".into(),
                county_profile: "District-0".into(),
                state_tweet: "Seoul".into(),
                county_tweet: spots[idx.min(n_spots - 1)].clone(),
            }
        })
        .collect()
}

fn bench_group_user(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouping/per_user");
    for &n in &[10usize, 100, 1_000, 10_000] {
        let strings = user_strings(1, n, 8, 7);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &strings, |b, s| {
            b.iter(|| group_user_strings(black_box(s)).unwrap().matched_rank)
        });
    }
    group.finish();
}

/// The tentpole sweep: the published string merge against the interned
/// id merge, same workload. The string path hashes and clones `(String,
/// String)` keys per tweet; the interned path compares `u32`s into a
/// small vector — the sweep measures exactly that gap.
fn bench_interned_vs_string(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouping/interned_vs_string");
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let strings = user_strings(1, n, 8, 7);
        let mut interner = DistrictInterner::new();
        let keys: Vec<LocationKey> = strings.iter().map(|s| s.to_key(&mut interner)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("string", n), &strings, |b, s| {
            b.iter(|| group_user_strings(black_box(s)).unwrap().matched_rank)
        });
        group.bench_with_input(BenchmarkId::new("interned", n), &keys, |b, k| {
            b.iter(|| {
                group_user_keys(black_box(k), &interner)
                    .unwrap()
                    .matched_rank
            })
        });
    }
    group.finish();
}

fn bench_cohort(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouping/cohort_stats");
    for &users in &[100usize, 1_000, 10_000] {
        let cohort: Vec<_> = (0..users)
            .map(|u| group_user_strings(&user_strings(u as u64, 40, 6, u as u64)).unwrap())
            .collect();
        group.throughput(Throughput::Elements(users as u64));
        group.bench_with_input(BenchmarkId::new("table", users), &cohort, |b, cohort| {
            b.iter(|| GroupTable::compute(black_box(cohort)).total_users)
        });
        group.bench_with_input(BenchmarkId::new("weights", users), &cohort, |b, cohort| {
            b.iter(|| ReliabilityWeights::from_cohort(black_box(cohort), 0.02).as_array())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_group_user, bench_interned_vs_string, bench_cohort
}
criterion_main!(benches);
