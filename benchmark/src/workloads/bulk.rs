//! `bulk_load`: the store write path. Each cycle opens a fresh 4-shard
//! `ShardedDurableStore`, ingests the corpus with `ingest_parallel` in
//! 64k-tweet batches and syncs once at the end, seals the tail (columnar
//! transpose plus sketch build), saves the store, loads it back and
//! checks it, and finally reopens the durable store from its WALs.
//! Cycles repeat until the traffic budget is spent.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stir_benchmark::harness::{self, Summary};
use stir_core::{gazetteer_fingerprint, GazetteerSketcher, RefinementPipeline};
use stir_tweetstore::persist::PersistError;
use stir_tweetstore::{ShardedDurableStore, ShardedStore, StoreFormat};

use super::{
    attribute, ms, report_query_layers, traced_scan_request, Answer, Ctx, Input, LayerSamples,
    Report,
};

/// Shards of the durable store.
const SHARDS: usize = 4;

/// Tweets per `ingest_parallel` call.
const BATCH: usize = 1 << 16;

/// Segment roll threshold (the store default).
const SEGMENT_BYTES: usize = 4 << 20;

/// Empty-store opens per run (each well under a millisecond);
/// `setup_s` is their median.
const SETUP_REPS: usize = 31;

fn open(dir: &Path) -> Result<ShardedDurableStore, PersistError> {
    ShardedDurableStore::open_with_segment_bytes_and_format(
        dir,
        SHARDS,
        SEGMENT_BYTES,
        StoreFormat::V2,
    )
}

#[derive(Default)]
struct Totals {
    batches: Vec<f64>,
    syncs: Vec<f64>,
    tps: Vec<f64>,
    recover: Vec<f64>,
    disk_per_tweet: f64,
}

/// One load cycle; returns `Err` on the first I/O error. On a traced
/// cycle every batch is a `batch` request span and the loaded store is
/// also checked through the traced scan-engine replay.
#[allow(clippy::too_many_arguments)]
fn cycle(
    ctx: &Ctx,
    pipe: &RefinementPipeline<'_>,
    want: &Answer,
    report: &mut Report,
    totals: &mut Totals,
    layer: &mut LayerSamples,
    traced: bool,
    request: &mut u64,
) -> Result<(), PersistError> {
    let rec = ctx.rec.as_ref().filter(|_| traced);
    let dir = ctx.scratch("bulk");
    let store_dir = dir.join("store");
    let n = ctx.tweets();
    let mut durable = open(&dir)?;
    let mut ingest = Duration::ZERO;
    for batch in ctx.records.chunks(BATCH) {
        *request += 1;
        let id = *request;
        let t = Instant::now();
        match rec {
            Some(rec) => rec.span("batch", None, id, |rid| {
                rec.span("tweetstore.shard.ingest_parallel", Some(rid), id, |_| {
                    durable.ingest_parallel(batch, ctx.threads)
                })
            }),
            None => durable.ingest_parallel(batch, ctx.threads),
        }?;
        let d = t.elapsed();
        ingest += d;
        totals.batches.push(ms(d));
    }
    let t = Instant::now();
    durable.sync()?;
    let sync = t.elapsed();
    ingest += sync;
    totals.syncs.push(ms(sync));
    totals.tps.push(n as f64 / ingest.as_secs_f64());
    let wal_bytes = harness::dir_bytes(&dir);

    let mut store = durable.into_store();
    let t = Instant::now();
    store.set_sketcher(Arc::new(GazetteerSketcher::for_gazetteer(ctx.g)));
    store.seal_active();
    // Segments sealed during ingest had no sketcher yet: build theirs now,
    // so every sealed segment persists a sidecar.
    let fp = gazetteer_fingerprint(ctx.g);
    for shard in store.shards() {
        for seg in 0..shard.segments().len() {
            let _ = shard.sketch_for(seg, fp);
        }
    }
    let seal = t.elapsed();
    let t = Instant::now();
    store.save(&store_dir)?;
    let save = t.elapsed();
    drop(store);
    let t = Instant::now();
    let loaded = ShardedStore::load(&store_dir)?;
    let load = t.elapsed();
    let sizes: Vec<f64> = loaded.shards().iter().map(|s| s.len() as f64).collect();
    let r = pipe.execute(ctx.profiles.clone(), &loaded);
    report.check(loaded.len() as u64 == n && want.matches(&r.funnel, &r.users));
    if let Some(rec) = rec {
        *request += 1;
        let ok = traced_scan_request(
            ctx,
            rec,
            pipe,
            Input::Shards(&loaded),
            None,
            "verify",
            *request,
            want,
            layer,
        );
        report.check(ok);
        if let Some(e) = &r.metrics.exec {
            layer.push("core.sketch.query_ms", ms(r.metrics.stages.total));
            layer.push("core.sketch.segments", e.sketch_segments as f64);
            layer.push("core.sketch.entries_merged", e.sketch_entries_merged as f64);
            layer.push(
                "core.sketch.residual_records",
                e.records_scanned_residual as f64,
            );
        }
    }
    drop(loaded);

    let t = Instant::now();
    let reopened = open(&dir)?;
    let recover = t.elapsed();
    report.check(reopened.store().len() as u64 == n);
    totals.recover.push(ms(recover));
    drop(reopened);
    totals.disk_per_tweet = harness::dir_bytes(&dir) as f64 / n as f64;

    let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
    layer.push(
        "tweetstore.shard.skew",
        sizes.iter().copied().fold(0.0, f64::max) / mean,
    );
    layer.push("tweetstore.store.seal_ms", ms(seal));
    layer.push("tweetstore.persist.save_ms", ms(save));
    layer.push("tweetstore.persist.load_ms", ms(load));
    layer.push(
        "tweetstore.persist.bytes",
        harness::dir_bytes(&store_dir) as f64,
    );
    layer.push(
        "tweetstore.wal.bytes_per_tweet",
        wal_bytes as f64 / n as f64,
    );
    layer.push("tweetstore.wal.recover_ms", ms(recover));
    layer.push("tweetstore.wal.syncs", 1.0);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs `bulk_load`.
pub fn run(ctx: &Ctx) -> Report {
    let want = ctx.reference(None);
    let mut report = Report::default();
    let mut layer = LayerSamples::default();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let dir = ctx.scratch("setup");
        let t = Instant::now();
        let durable = open(&dir).expect("open an empty durable store");
        setups.push(t.elapsed().as_secs_f64());
        drop(durable);
    }
    let _ = std::fs::remove_dir_all(ctx.dir.join("setup"));
    report.e2e("setup_s", harness::median(&setups));

    let pipe = ctx.pipeline(true);
    let mut request = 0;
    let mut cycles = |traced: bool, report: &mut Report, layer: &mut LayerSamples| {
        let mut totals = Totals::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < ctx.traffic_seconds() || totals.recover.is_empty() {
            let r = cycle(
                ctx,
                &pipe,
                &want,
                report,
                &mut totals,
                layer,
                traced,
                &mut request,
            );
            if let Err(e) = r {
                eprintln!("bulk cycle failed: {e}");
                report.check(false);
                break;
            }
        }
        totals
    };
    let totals = cycles(false, &mut report, &mut layer);
    let batches = Summary::of(&totals.batches);
    eprintln!("ingest_parallel batch {}", batches.render("ms"));
    eprintln!(
        "recovery              {}",
        Summary::of(&totals.recover).render("ms")
    );
    eprintln!(
        "bulk ingest {:.0} tweets/s (median of {} cycles)",
        harness::median(&totals.tps),
        totals.tps.len()
    );
    report.e2e("op_p25_ms", harness::percentile(&totals.batches, 0.25));
    report.e2e("aux_p25_ms", harness::percentile(&totals.recover, 0.25));
    report.e2e("tweets_per_s", harness::median(&totals.tps));
    report.e2e("disk_bytes_per_tweet", totals.disk_per_tweet);

    if let Some(rec) = &ctx.rec {
        let traced = cycles(true, &mut report, &mut layer);
        let spans = rec.spans();
        let batch = attribute(&spans, "batch", Some(batches.p50));
        let verify_layers = attribute(&spans, "verify", None);
        layer.push(
            "tweetstore.wal.sync_p50_us",
            harness::median(&traced.syncs) * 1e3,
        );
        layer.push(
            "tweetstore.wal.sync_p99_us",
            harness::percentile(&traced.syncs, 0.99) * 1e3,
        );
        layer.finish(&mut report);
        if let Some(&v) = batch.get("tweetstore.shard.ingest_parallel") {
            report.layer("tweetstore.shard.ingest_parallel_ms", v);
        }
        report_query_layers(&mut report, &spans, &verify_layers, "verify");
    }
    report.peak_rss();
    report
}
