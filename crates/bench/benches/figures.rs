//! Figure-scale benchmarks: the cost of regenerating each paper artifact.
//!
//! One group per experiment family:
//! * `figures/fig6_fig7` — the Korean analysis behind Figs. 6–7 and the
//!   tweets-per-group slide, at growing fractions of paper scale.
//! * `figures/compare` — the Lady Gaga streaming analysis (slides 4–5).
//! * `figures/ablation` — district vs city grouping grain (§III-B).
//! * `figures/eventloc` — the E8 weighted-estimation experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stir_bench::korean_dataset;
use stir_core::{
    Granularity, GroupTable, PipelineBuilder, PipelineInput, ProfileRow, RefinementPipeline,
    ReliabilityWeights, TweetRow,
};
use stir_eventdet::weighted::RawReport;
use stir_eventdet::{LocationEstimator, MeanEstimator, ObservationBuilder};
use stir_geoindex::Point;
use stir_geokr::Gazetteer;
use stir_twitter_sim::datasets::{Dataset, DatasetSpec};
use stir_twitter_sim::event::{inject, EventScenario};

fn run_pipeline(gazetteer: &Gazetteer, dataset: &Dataset, granularity: Granularity) -> GroupTable {
    let pipeline = PipelineBuilder::new(gazetteer)
        .granularity(granularity)
        .build()
        .unwrap();
    let result = pipeline.execute(
        dataset.users.iter().map(|u| ProfileRow {
            user: u.id.0,
            location_text: u.location_text.clone(),
        }),
        PipelineInput::rows(dataset.users.iter().flat_map(|u| {
            dataset
                .user_tweets(gazetteer, u.id)
                .into_iter()
                .map(|t| TweetRow {
                    user: t.user.0,
                    tweet_id: t.id.0,
                    gps: t.gps,
                })
        })),
    );
    GroupTable::compute(&result.users)
}

fn bench_fig6_fig7(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let mut group = c.benchmark_group("figures/fig6_fig7");
    group.sample_size(10);
    for &users in &[1_000usize, 5_220] {
        let dataset = korean_dataset(&gazetteer, users, 2012);
        group.bench_with_input(BenchmarkId::from_parameter(users), &dataset, |b, d| {
            b.iter(|| run_pipeline(&gazetteer, black_box(d), Granularity::District).total_users)
        });
    }
    group.finish();
}

/// Thread sweep over the pipeline: the fused engine at a ceiling of
/// 1/2/4/8 workers on the same dataset. With one core the curve is flat
/// (the ceiling caps at the machine); on real hardware it shows how the
/// fused engine scales.
fn bench_thread_sweep(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let dataset = korean_dataset(&gazetteer, 2_000, 2012);
    let mut group = c.benchmark_group("figures/thread_sweep");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &dataset, |b, d| {
            let pipeline = PipelineBuilder::new(&gazetteer)
                .threads(threads)
                .build()
                .unwrap();
            b.iter(|| {
                let result = pipeline.execute(
                    d.users.iter().map(|u| ProfileRow {
                        user: u.id.0,
                        location_text: u.location_text.clone(),
                    }),
                    PipelineInput::rows(d.users.iter().flat_map(|u| {
                        d.user_tweets(&gazetteer, u.id)
                            .into_iter()
                            .map(|t| TweetRow {
                                user: t.user.0,
                                tweet_id: t.id.0,
                                gps: t.gps,
                            })
                    })),
                );
                black_box(result.metrics.geocode.fixes)
            })
        });
    }
    group.finish();
}

fn bench_compare(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let dataset = Dataset::generate(
        DatasetSpec {
            n_users: 20_000,
            ..DatasetSpec::lady_gaga_paper()
        },
        &gazetteer,
        2012,
    );
    let mut group = c.benchmark_group("figures/compare");
    group.sample_size(10);
    group.bench_function("lady_gaga_20k", |b| {
        b.iter(|| run_pipeline(&gazetteer, black_box(&dataset), Granularity::District).total_users)
    });
    group.finish();
}

fn bench_ablation(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let dataset = korean_dataset(&gazetteer, 2_000, 2012);
    let mut group = c.benchmark_group("figures/ablation");
    group.sample_size(10);
    group.bench_function("district_grain", |b| {
        b.iter(|| run_pipeline(&gazetteer, black_box(&dataset), Granularity::District).total_users)
    });
    group.bench_function("city_grain", |b| {
        b.iter(|| run_pipeline(&gazetteer, black_box(&dataset), Granularity::City).total_users)
    });
    group.finish();
}

fn bench_eventloc(c: &mut Criterion) {
    let gazetteer = Gazetteer::load();
    let dataset = korean_dataset(&gazetteer, 3_000, 2012);
    let pipeline = RefinementPipeline::with_defaults(&gazetteer);
    let result = pipeline.execute(
        dataset.users.iter().map(|u| ProfileRow {
            user: u.id.0,
            location_text: u.location_text.clone(),
        }),
        PipelineInput::rows(dataset.users.iter().flat_map(|u| {
            dataset
                .user_tweets(&gazetteer, u.id)
                .into_iter()
                .map(|t| TweetRow {
                    user: t.user.0,
                    tweet_id: t.id.0,
                    gps: t.gps,
                })
        })),
    );
    let scenario = EventScenario::earthquake(Point::new(37.5, 127.0), 10_000);
    let reports = inject(&scenario, &dataset, &gazetteer, 1);
    let raw: Vec<RawReport> = reports
        .iter()
        .map(|r| RawReport {
            user: r.tweet.user.0,
            timestamp: r.tweet.timestamp,
            gps: r.tweet.gps,
        })
        .collect();
    let weighted = ObservationBuilder::from_analysis(&gazetteer, &result, 0.02);
    let uniform = ObservationBuilder::from_analysis(&gazetteer, &result, 0.02)
        .with_weight_profile(ReliabilityWeights::uniform());

    let mut group = c.benchmark_group("figures/eventloc");
    group.sample_size(20);
    group.bench_function("build_weighted_observations", |b| {
        b.iter(|| weighted.build(black_box(&raw)).len())
    });
    group.bench_function("build_uniform_observations", |b| {
        b.iter(|| uniform.build(black_box(&raw)).len())
    });
    let obs = weighted.build(&raw);
    group.bench_function("estimate_mean", |b| {
        b.iter(|| MeanEstimator.estimate(black_box(&obs)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_fig6_fig7, bench_thread_sweep, bench_compare, bench_ablation, bench_eventloc
}
criterion_main!(benches);
