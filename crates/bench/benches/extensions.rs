//! Benchmarks for the extension modules: WAL durability, store compaction,
//! hangul romanization and mention extraction.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use stir_geoindex::Point;
use stir_geokr::Gazetteer;
use stir_textgeo::hangul::romanize;
use stir_textgeo::MentionExtractor;
use stir_tweetstore::wal::Wal;
use stir_tweetstore::{gps_only, TweetRecord, TweetStore};

fn records(n: usize, gps_rate: f64, seed: u64) -> Vec<TweetRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| TweetRecord {
            id: i as u64,
            user: rng.gen_range(0..500),
            timestamp: rng.gen_range(0..86_400 * 90),
            gps: rng
                .gen_bool(gps_rate)
                .then(|| Point::new(rng.gen_range(33.0..38.7), rng.gen_range(124.5..131.0))),
            text: String::new(),
        })
        .collect()
}

fn bench_wal(c: &mut Criterion) {
    let recs = records(10_000, 0.05, 1);
    let mut group = c.benchmark_group("extensions/wal");
    group.throughput(Throughput::Elements(recs.len() as u64));
    group.sample_size(10);
    group.bench_function("append_10k_single_sync", |b| {
        b.iter(|| {
            let path =
                std::env::temp_dir().join(format!("stir-bench-wal-{}.log", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let mut wal = Wal::open(&path).unwrap();
            for r in &recs {
                wal.append(black_box(r)).unwrap();
            }
            wal.sync().unwrap();
            std::fs::remove_file(&path).ok();
        })
    });
    group.bench_function("recover_10k", |b| {
        let path =
            std::env::temp_dir().join(format!("stir-bench-walrec-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        for r in &recs {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        b.iter(|| Wal::recover(black_box(&path)).unwrap().1);
        std::fs::remove_file(&path).ok();
    });
    group.finish();
}

fn bench_compaction(c: &mut Criterion) {
    let recs = records(100_000, 0.02, 2);
    let mut store = TweetStore::new();
    for r in &recs {
        store.append(r);
    }
    let mut group = c.benchmark_group("extensions/compaction");
    group.sample_size(10);
    group.throughput(Throughput::Elements(recs.len() as u64));
    group.bench_function("gps_only_100k", |b| {
        b.iter(|| gps_only(black_box(&store)).1.kept)
    });
    group.finish();
}

fn bench_hangul(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let names: Vec<&str> = gazetteer.districts().iter().map(|d| d.name_ko).collect();
    let mut group = c.benchmark_group("extensions/hangul");
    group.throughput(Throughput::Elements(names.len() as u64));
    group.bench_function("romanize_229_districts", |b| {
        b.iter(|| {
            names
                .iter()
                .map(|n| romanize(black_box(n)).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_mentions(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let extractor = MentionExtractor::new(&gazetteer);
    let texts: Vec<String> = (0..2_000)
        .map(|i| match i % 4 {
            0 => "just arrived in Yangcheon-gu haha".to_string(),
            1 => "coffee time at work ㅋㅋ".to_string(),
            2 => format!("meeting friends downtown {i}"),
            _ => "오늘 강남구 날씨 좋다".to_string(),
        })
        .collect();
    let mut group = c.benchmark_group("extensions/mentions");
    group.throughput(Throughput::Elements(texts.len() as u64));
    group.bench_function("extract_mixed_2k", |b| {
        b.iter(|| {
            texts
                .iter()
                .map(|t| extractor.districts(black_box(t)).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wal, bench_compaction, bench_hangul, bench_mentions
}
criterion_main!(benches);
