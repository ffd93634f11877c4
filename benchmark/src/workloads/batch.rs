//! `batch_scan` and `batch_sketch`: a closed loop of one client sending
//! Fig. 7 requests to a sealed, persisted and reloaded store, alternating
//! a full request and a windowed one. `batch_scan` is a one-shard store
//! answered by the fused scan (sketches off); `batch_sketch` is its
//! sharded twin with persisted sketch sidecars, answered by the sketch
//! merge.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stir_benchmark::harness::{self, Summary};
use stir_core::{AnalysisResult, GazetteerSketcher, ProfileRow, RefinementPipeline, TimeWindow};
use stir_tweetstore::{
    persist, splitmix64, Query, ScanOptions, ShardedStore, StoreFormat, TweetStore,
};

use super::{
    attribute, ms, report_query_layers, traced_scan_request, Answer, Ctx, Input, LayerSamples,
    Report, DAY,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Shards of the sketched store.
const SHARDS: usize = 4;

/// Segment roll threshold (the store default).
const SEGMENT_BYTES: usize = 4 << 20;

/// Windows in the request stream.
const WINDOWS: usize = 16;

/// Consecutive requests per throughput sample.
const RATE_GROUP: usize = 8;

enum Store {
    One(Box<TweetStore>),
    Many(ShardedStore),
}

impl Store {
    /// One Fig. 7 request: the whole store, or the records in `window`.
    fn answer(
        &self,
        pipe: &RefinementPipeline<'_>,
        profiles: Vec<ProfileRow>,
        window: Option<TimeWindow>,
    ) -> AnalysisResult {
        match (self, window) {
            (Store::One(s), None) => pipe.execute(profiles, &**s),
            (Store::Many(s), None) => pipe.execute(profiles, s),
            (Store::One(s), Some(w)) => pipe.execute_windowed(profiles, s, w),
            (Store::Many(s), Some(w)) => pipe.execute_windowed_sharded(profiles, s, w),
        }
    }
}

/// The seed-drawn window set: four each of 1, 7 and 30 whole days, and of
/// 7 days starting at 12:00, interleaved by kind.
pub fn draw_windows(seed: u64, days: u64) -> Vec<TimeWindow> {
    const KINDS: [(u64, u64); 4] = [(1, 0), (7, 0), (30, 0), (7, DAY / 2)];
    (0..WINDOWS as u64)
        .map(|i| {
            let (len, offset) = KINDS[(i % 4) as usize];
            let starts = days.saturating_sub(len + u64::from(offset > 0)).max(1);
            let day = splitmix64(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % starts;
            TimeWindow {
                start: day * DAY + offset,
                end: (day + len) * DAY + offset,
            }
        })
        .collect()
}

/// Builds the store from the corpus, seals its tail, saves it to `dir`
/// and loads it back. Returns the loaded store and the set-up time.
fn set_up(ctx: &Ctx, sketched: bool, dir: &Path, layer: &mut LayerSamples) -> (Store, Duration) {
    let t = Instant::now();
    let mut built = if sketched {
        let mut s =
            ShardedStore::with_segment_bytes_and_format(SHARDS, SEGMENT_BYTES, StoreFormat::V2);
        // Installed before the appends, so every seal sketches itself.
        s.set_sketcher(Arc::new(GazetteerSketcher::for_gazetteer(ctx.g)));
        for r in &ctx.records {
            s.append(r);
        }
        Store::Many(s)
    } else {
        let mut s = TweetStore::with_segment_bytes_and_format(SEGMENT_BYTES, StoreFormat::V2);
        for r in &ctx.records {
            s.append(r);
        }
        Store::One(Box::new(s))
    };
    let append = t.elapsed();
    let t = Instant::now();
    match &mut built {
        Store::One(s) => s.seal_active(),
        Store::Many(s) => s.seal_active(),
    }
    let seal = t.elapsed();
    let t = Instant::now();
    match &built {
        Store::One(s) => persist::save(s, dir),
        Store::Many(s) => s.save(dir),
    }
    .expect("save store");
    let save = t.elapsed();
    drop(built);
    let t = Instant::now();
    let loaded = if sketched {
        Store::Many(ShardedStore::load(dir).expect("load store"))
    } else {
        Store::One(Box::new(persist::load(dir).expect("load store")))
    };
    let load = t.elapsed();
    layer.push(
        "tweetstore.store.append_ns_per_tweet",
        append.as_nanos() as f64 / ctx.tweets() as f64,
    );
    layer.push("tweetstore.store.seal_ms", ms(seal));
    layer.push("tweetstore.persist.save_ms", ms(save));
    layer.push("tweetstore.persist.load_ms", ms(load));
    layer.push("tweetstore.persist.bytes", harness::dir_bytes(dir) as f64);
    (loaded, append + seal + save + load)
}

/// Runs `batch_scan` (`sketched = false`) or `batch_sketch`.
pub fn run(ctx: &Ctx, sketched: bool) -> Report {
    let windows = draw_windows(ctx.seed, ctx.days);
    let full_ref = ctx.reference(None);
    let window_refs: Vec<Answer> = windows.iter().map(|&w| ctx.reference(Some(w))).collect();
    let mut report = Report::default();
    let mut layer = LayerSamples::default();

    let mut setups = Vec::new();
    let mut store = None;
    let dir = ctx.dir.join("store");
    for _ in 0..SETUP_REPS {
        drop(store.take());
        let _ = std::fs::remove_dir_all(&dir);
        let (s, t) = set_up(ctx, sketched, &dir, &mut layer);
        setups.push(t.as_secs_f64());
        store = Some(s);
    }
    let store = store.expect("at least one set-up");
    report.e2e("setup_s", harness::median(&setups));
    report.e2e(
        "disk_bytes_per_tweet",
        harness::dir_bytes(&dir) as f64 / ctx.tweets() as f64,
    );

    let pipe = ctx.pipeline(sketched);
    // Request i: even ones are full, odd ones cycle through the windows.
    let shape = |i: usize| -> (Option<TimeWindow>, &Answer) {
        if i.is_multiple_of(2) {
            (None, &full_ref)
        } else {
            let k = (i / 2) % WINDOWS;
            (Some(windows[k]), &window_refs[k])
        }
    };

    // Let lazy set-up and caches settle: one request of each shape,
    // checked but not timed.
    for i in 0..2 {
        let (w, want) = shape(i);
        let r = store.answer(&pipe, ctx.profiles.clone(), w);
        report.check(want.matches(&r.funnel, &r.users));
    }

    // Untraced closed loop: every end-to-end number comes from here.
    let (mut full, mut window, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut group_s, mut sketch_segments) = (0.0, 0);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < ctx.traffic_seconds() || window.is_empty() {
        let (w, want) = shape(i);
        let profiles = ctx.profiles.clone();
        let t = Instant::now();
        let r = store.answer(&pipe, profiles, w);
        let lat = t.elapsed().as_secs_f64();
        if w.is_none() {
            full.push(lat * 1e3);
            sketch_segments = r.metrics.exec.as_ref().map_or(0, |e| e.sketch_segments);
        } else {
            window.push(lat * 1e3);
        }
        report.check(want.matches(&r.funnel, &r.users));
        i += 1;
        group_s += lat;
        if i % RATE_GROUP == 0 {
            rates.push((RATE_GROUP as u64 * ctx.tweets()) as f64 / group_s);
            group_s = 0.0;
        }
    }
    if rates.is_empty() {
        rates.push((i as u64 * ctx.tweets()) as f64 / group_s);
    }
    let (full_s, window_s) = (Summary::of(&full), Summary::of(&window));
    eprintln!("full request   {}", full_s.render("ms"));
    eprintln!("window request {}", window_s.render("ms"));
    if sketched && sketch_segments == 0 {
        eprintln!("warning: the sketch path did not engage");
    }
    report.e2e("op_p25_ms", harness::percentile(&full, 0.25));
    report.e2e("aux_p25_ms", harness::percentile(&window, 0.25));
    report.e2e("tweets_per_s", harness::median(&rates));

    if let Some(rec) = &ctx.rec {
        let start = Instant::now();
        let mut i = 0;
        while start.elapsed().as_secs_f64() < ctx.traffic_seconds() || i < 2 {
            let (w, want) = shape(i);
            let name = if w.is_none() {
                "request.full"
            } else {
                "request.window"
            };
            let id = i as u64;
            let ok = match &store {
                Store::One(s) => {
                    if let Some(w) = w {
                        let (_, m) = Query::all().between(w.start, w.end).scan_filtered(
                            s,
                            &ScanOptions::serial(),
                            |_| Some(()),
                        );
                        layer.push("tweetstore.scan.segments_pruned", m.segments_pruned as f64);
                    }
                    traced_scan_request(
                        ctx,
                        rec,
                        &pipe,
                        Input::Store(s),
                        w,
                        name,
                        id,
                        want,
                        &mut layer,
                    )
                }
                Store::Many(_) => {
                    let profiles = ctx.profiles.clone();
                    let r = rec.span(name, None, id, |rid| {
                        rec.span("core.sketch", Some(rid), id, |_| {
                            store.answer(&pipe, profiles, w)
                        })
                    });
                    if w.is_none() {
                        layer.push("core.select.ms", ms(r.metrics.stages.select_users));
                        layer.push("core.select.profiles", r.metrics.select.profiles as f64);
                        layer.push(
                            "core.select.distinct_texts",
                            r.metrics.select.distinct_texts as f64,
                        );
                        layer.push(
                            "core.select.cache_hits",
                            r.metrics.select.profile_cache_hits as f64,
                        );
                        if let Some(e) = &r.metrics.exec {
                            layer.push("core.sketch.segments", e.sketch_segments as f64);
                            layer
                                .push("core.sketch.entries_merged", e.sketch_entries_merged as f64);
                            layer.push(
                                "core.sketch.residual_records",
                                e.records_scanned_residual as f64,
                            );
                        }
                    }
                    want.matches(&r.funnel, &r.users)
                }
            };
            report.check(ok);
            i += 1;
        }
        let spans = rec.spans();
        let full_layers = attribute(&spans, "request.full", Some(full_s.p50));
        let window_layers = attribute(&spans, "request.window", Some(window_s.p50));
        layer.finish(&mut report);
        report_query_layers(&mut report, &spans, &full_layers, "request.full");
        if let Some(&v) = window_layers.get("tweetstore.scan") {
            report.layer("tweetstore.scan.window_ms", v);
        }
    }
    report.peak_rss();
    report
}
