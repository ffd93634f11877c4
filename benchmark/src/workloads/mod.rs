//! What every workload shares: the seeded corpus, the staged-engine
//! reference answers, the metric tables, the report, and the traced
//! replay of a scan-engine request through the entry points it is built
//! from.

pub mod batch;
pub mod bulk;
pub mod live;

use std::collections::BTreeMap;
use std::path::PathBuf;

use stir_benchmark::harness::{self, Recorder, Span};
use stir_core::{
    CollectionFunnel, ColumnBatch, GroupedUser, MorselSource, PipelineBuilder, PipelineMetrics,
    ProfileRow, RefinementPipeline, RowSource, SelectMetrics, TimeWindow, TweetRow,
};
use stir_geoindex::Point;
use stir_geokr::{Gazetteer, ReverseGeocoder};
use stir_tweetstore::{
    BlockChunk, HeaderBlocks, ShardedHeaderBlocks, ShardedStore, TweetRecord, TweetStore,
};
use stir_twitter_sim::datasets::{Dataset, DatasetSpec};
use stir_twitter_sim::stream::{collect, StreamSpec};

/// End-to-end metrics, printed by every untraced run, in `BENCHMARK.json`
/// order. What each one times on each workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p25_ms", "ms"),
    ("aux_p25_ms", "ms"),
    ("tweets_per_s", "1/s"),
    ("disk_bytes_per_tweet", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (0 where the workload
/// leaves the layer idle).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.select.ms", "ms"),
    ("core.select.profiles", "count"),
    ("core.select.distinct_texts", "count"),
    ("core.select.cache_hits", "count"),
    ("tweetstore.scan.ms", "ms"),
    ("tweetstore.scan.window_ms", "ms"),
    ("tweetstore.scan.records", "count"),
    ("tweetstore.scan.col_bytes_read", "B"),
    ("tweetstore.scan.segments_pruned", "count"),
    ("geokr.reverse.ms", "ms"),
    ("geokr.reverse.lookups", "count"),
    ("geokr.reverse.hit_ratio", "ratio"),
    ("core.exec.ms", "ms"),
    ("core.exec.filter_cpu_ms", "ms"),
    ("core.exec.geocode_cpu_ms", "ms"),
    ("core.exec.partition_cpu_ms", "ms"),
    ("core.exec.group_cpu_ms", "ms"),
    ("core.sketch.query_ms", "ms"),
    ("core.sketch.segments", "count"),
    ("core.sketch.entries_merged", "count"),
    ("core.sketch.residual_records", "count"),
    ("tweetstore.store.append_ns_per_tweet", "ns"),
    ("tweetstore.store.seal_ms", "ms"),
    ("tweetstore.persist.save_ms", "ms"),
    ("tweetstore.persist.load_ms", "ms"),
    ("tweetstore.persist.bytes", "B"),
    ("tweetstore.shard.ingest_parallel_ms", "ms"),
    ("tweetstore.shard.skew", "ratio"),
    ("tweetstore.wal.sync_p50_us", "us"),
    ("tweetstore.wal.sync_p99_us", "us"),
    ("tweetstore.wal.syncs", "count"),
    ("tweetstore.wal.bytes_per_tweet", "B"),
    ("tweetstore.wal.recover_ms", "ms"),
    ("tweetstore.snapshot.latest_ms", "ms"),
    ("tweetstore.snapshot.bytes", "B"),
    ("core.service.ingest_ns_per_tweet", "ns"),
    ("core.service.query_ms", "ms"),
    ("core.service.checkpoint_ms", "ms"),
    ("core.service.open_ms", "ms"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["batch_scan", "batch_sketch", "live_ingest", "bulk_load"];

/// Seconds in a simulated day.
pub const DAY: u64 = 86_400;

/// Cells per degree of the reverse geocoder's cache grid.
const GEOCODER_CELLS_PER_DEGREE: f64 = 2000.0;

/// A generated coordinate moved to the centre of its geocoder cache cell.
///
/// The geocoder answers every fix in a cell with the district of the
/// first fix it resolved there, so two distinct fixes of one cell on
/// either side of a district border resolve by arrival order — and the
/// engines see fixes in different orders (parallel morsels, shard order,
/// checkpoint plus replay). Such a pair makes their answers differ from
/// each other and from run to run. With one point per cell every engine
/// gives the reference answer, while the cache sees the same cells, hits
/// and misses as with the raw fixes. The centre is a whole number of
/// micro-degrees, so the store codec keeps it exactly.
fn snap(x: f64) -> f64 {
    ((x * GEOCODER_CELLS_PER_DEGREE).floor() + 0.5) / GEOCODER_CELLS_PER_DEGREE
}

/// What one workload run needs: its inputs, settings and scratch space.
pub struct Ctx {
    /// The gazetteer every engine resolves against.
    pub g: &'static Gazetteer,
    /// Every user's profile row.
    pub profiles: Vec<ProfileRow>,
    /// The corpus in firehose (timestamp) order.
    pub records: Vec<TweetRecord>,
    /// Days the corpus spans.
    pub days: u64,
    /// The workload seed.
    pub seed: u64,
    /// Seconds of timed traffic.
    pub seconds: f64,
    /// Engine threads: the machine's parallelism.
    pub threads: usize,
    /// Scratch directory, removed when the run ends.
    pub dir: PathBuf,
    /// Span recorder, present on traced runs.
    pub rec: Option<Recorder>,
}

impl Ctx {
    /// Generates the corpus for `seed` at `scale` of the paper's crawl.
    /// Generation is not part of any metric.
    pub fn generate(
        scale: f64,
        seed: u64,
    ) -> (&'static Gazetteer, Vec<ProfileRow>, Vec<TweetRecord>, u64) {
        let g: &'static Gazetteer = Box::leak(Box::new(Gazetteer::load()));
        let dataset = Dataset::generate(DatasetSpec::korean_paper().scaled(scale), g, seed);
        let days = dataset.spec.tweet_cfg.window_secs.div_ceil(DAY);
        let stream = collect(&dataset, g, &StreamSpec::firehose());
        let profiles = dataset
            .users
            .iter()
            .map(|u| ProfileRow {
                user: u.id.0,
                location_text: u.location_text.clone(),
            })
            .collect();
        let records = stream
            .tweets
            .into_iter()
            .map(|t| TweetRecord {
                id: t.id.0,
                user: t.user.0,
                timestamp: t.timestamp,
                gps: t.gps.map(|p| Point::new(snap(p.lat), snap(p.lon))),
                text: t.text,
            })
            .collect();
        (g, profiles, records, days)
    }

    /// A pipeline on the fused engine running exactly the machine's
    /// parallelism. The adaptive warmup collapse is off: it decides from a
    /// timing probe, and on a shared host it chose the serial pass for
    /// anywhere from 4% to 94% of a run's requests, which moved the
    /// request median by up to a third between runs.
    pub fn pipeline(&self, sketches: bool) -> RefinementPipeline<'static> {
        PipelineBuilder::new(self.g)
            .threads(self.threads)
            .threads_exact(true)
            .sketches(sketches)
            .build()
            .expect("benchmark pipeline config is valid")
    }

    /// The staged engine's answer over the in-memory corpus, restricted to
    /// `window` when given: the oracle every timed answer must equal.
    pub fn reference(&self, window: Option<TimeWindow>) -> Answer {
        let staged = PipelineBuilder::new(self.g)
            .threads(self.threads)
            .staged()
            .build()
            .expect("staged config is valid");
        let rows: Vec<TweetRow> = self
            .records
            .iter()
            .filter(|r| window.is_none_or(|w| w.contains(r.timestamp)))
            .map(|r| TweetRow {
                user: r.user,
                tweet_id: r.id,
                gps: r.gps,
            })
            .collect();
        let r = staged.execute(self.profiles.clone(), rows);
        Answer {
            funnel: r.funnel,
            users: r.users,
        }
    }

    /// Tweets in the corpus.
    pub fn tweets(&self) -> u64 {
        self.records.len() as u64
    }

    /// How long timed traffic runs: the whole budget untraced, half of it
    /// on a traced run (the other half is the traced replay).
    pub fn traffic_seconds(&self) -> f64 {
        if self.rec.is_some() {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// A fresh scratch subdirectory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let d = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch directory");
        d
    }
}

/// A reference answer: the funnel and the grouped users.
pub struct Answer {
    /// Stage-by-stage counts.
    pub funnel: CollectionFunnel,
    /// The final cohort.
    pub users: Vec<GroupedUser>,
}

impl Answer {
    /// Whether an engine's answer equals this one; says how it differs
    /// when it does not.
    pub fn matches(&self, funnel: &CollectionFunnel, users: &[GroupedUser]) -> bool {
        if self.funnel != *funnel {
            eprintln!(
                "answer mismatch: funnel {funnel:?}, reference {:?}",
                self.funnel
            );
            return false;
        }
        if let Some((got, want)) = users.iter().zip(&self.users).find(|(a, b)| a != b) {
            eprintln!("answer mismatch: user {got:?}, reference {want:?}");
            return false;
        }
        if users.len() != self.users.len() {
            eprintln!(
                "answer mismatch: {} users, reference {}",
                users.len(),
                self.users.len()
            );
            return false;
        }
        true
    }
}

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted (timed requests, chunks, cycles, checks).
    pub attempted: u64,
    /// Operations whose answer was wrong or that returned an error.
    pub failed: u64,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.e2e.insert(name, value);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records the process's peak resident set.
    pub fn peak_rss(&mut self) {
        let kib = harness::peak_rss_kib().unwrap_or(0);
        self.e2e("peak_rss_mb", kib as f64 / 1024.0);
    }
}

/// Per-layer samples gathered over a traced phase, reduced to medians.
#[derive(Default)]
pub struct LayerSamples(BTreeMap<&'static str, Vec<f64>>);

impl LayerSamples {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Writes each metric's median into the report.
    pub fn finish(self, report: &mut Report) {
        for (name, values) in self.0 {
            report.layer(name, harness::median(&values));
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Store tiers a scan-engine request can run over.
#[derive(Clone, Copy)]
pub enum Input<'s> {
    /// One store.
    Store(&'s TweetStore),
    /// A user-hash-sharded store.
    Shards(&'s ShardedStore),
}

enum Blocks<'s> {
    One(HeaderBlocks<'s>),
    Many(ShardedHeaderBlocks<'s>),
}

/// Store scan blocks as fused-engine morsels, one `tweetstore.scan` span
/// around every block fetch.
struct TracedBlocks<'a, 's> {
    blocks: Blocks<'s>,
    rec: &'a Recorder,
    parent: u32,
    request: u64,
}

impl MorselSource for TracedBlocks<'_, '_> {
    fn next_morsel(&self, buf: &mut ColumnBatch) -> Option<u64> {
        self.rec
            .span("tweetstore.scan", Some(self.parent), self.request, |_| {
                buf.clear();
                let sink = |chunk: BlockChunk<'_>| match chunk {
                    BlockChunk::Columns(c) => {
                        buf.push_store_columns(c.users, c.timestamps, c.lats_e6, c.lons_e6)
                    }
                    BlockChunk::Header(h) => buf.push(h.user, h.timestamp as i64, h.gps),
                };
                match &self.blocks {
                    Blocks::One(b) => b.next_block_mixed(sink),
                    Blocks::Many(b) => b.next_block_mixed(sink),
                }
            })
    }

    fn morsel_rows(&self) -> usize {
        match &self.blocks {
            Blocks::One(b) => b.block_records(),
            Blocks::Many(b) => b.block_records(),
        }
    }
}

/// Replays one scan-engine request (`execute` or `execute_windowed`)
/// through the entry points it is built from, each in a span under a
/// root span named `request`: `select_users_metered`, then — for a full
/// request — `process_tweets_fused` over the store's scan blocks, or — for
/// a windowed one — the store's serial view scan followed by
/// `process_tweets_fused` over the surviving rows. Afterwards the
/// request's kept fixes go through `ReverseGeocoder::resolve_cols` on a
/// fresh geocoder (a `geokr.reverse` span outside the request, so it does
/// not count towards the request's time). Counts from the returned
/// structs land in `samples`. Returns whether the answer equals `want`.
#[allow(clippy::too_many_arguments)]
pub fn traced_scan_request(
    ctx: &Ctx,
    rec: &Recorder,
    pipe: &RefinementPipeline<'_>,
    input: Input<'_>,
    window: Option<TimeWindow>,
    request_name: &'static str,
    request: u64,
    want: &Answer,
    samples: &mut LayerSamples,
) -> bool {
    let profiles = ctx.profiles.clone();
    let morsel_rows = pipe.config().effective_morsel_rows();
    let mut funnel = CollectionFunnel::default();
    let mut select = SelectMetrics::default();
    let mut metrics = PipelineMetrics::default();
    let mut scanned = (0u64, 0u64);
    let (kept, users) = rec.span(request_name, None, request, |rid| {
        let kept = rec.span("core.select", Some(rid), request, |_| {
            pipe.select_users_metered(profiles, &mut funnel, &mut select)
        });
        let users = match (window, input) {
            (None, _) => rec.span("core.exec", Some(rid), request, |eid| {
                let blocks = match input {
                    Input::Store(s) => Blocks::One(HeaderBlocks::new(s, morsel_rows)),
                    Input::Shards(s) => Blocks::Many(ShardedHeaderBlocks::new(s, morsel_rows)),
                };
                let src = TracedBlocks {
                    blocks,
                    rec,
                    parent: eid,
                    request,
                };
                let users = pipe.process_tweets_fused(&kept, &src, &mut funnel, &mut metrics);
                scanned = match &src.blocks {
                    Blocks::One(b) => (b.headers_decoded(), b.col_bytes_read()),
                    Blocks::Many(b) => (b.headers_decoded(), b.col_bytes_read()),
                };
                users
            }),
            (Some(w), Input::Store(store)) => {
                let rows: Vec<TweetRow> = rec.span("tweetstore.scan", Some(rid), request, |_| {
                    store
                        .scan_views()
                        .filter_map(|r| match r {
                            Ok(v) if w.contains(v.header.timestamp) => Some(TweetRow {
                                user: v.header.user,
                                tweet_id: v.header.id,
                                gps: v.header.gps,
                            }),
                            _ => None,
                        })
                        .collect()
                });
                scanned = (store.len() as u64, 0);
                rec.span("core.exec", Some(rid), request, |_| {
                    let src = RowSource::new(rows.into_iter(), morsel_rows);
                    pipe.process_tweets_fused(&kept, &src, &mut funnel, &mut metrics)
                })
            }
            (Some(_), Input::Shards(_)) => unreachable!("windowed replays run on one store"),
        };
        (kept, users)
    });
    let (mut lats, mut lons) = (Vec::new(), Vec::new());
    for r in &ctx.records {
        if let Some(p) = r.gps {
            if kept.contains_key(&r.user) && window.is_none_or(|w| w.contains(r.timestamp)) {
                lats.push(p.lat);
                lons.push(p.lon);
            }
        }
    }
    let geocoder = ReverseGeocoder::builder(ctx.g).build_reverse();
    rec.span("geokr.reverse", None, request, |_| {
        geocoder.resolve_cols(&lats, &lons, |d| {
            std::hint::black_box(d);
        })
    });
    let stats = geocoder.stats();
    samples.push("core.select.profiles", select.profiles as f64);
    samples.push("core.select.distinct_texts", select.distinct_texts as f64);
    samples.push("core.select.cache_hits", select.profile_cache_hits as f64);
    samples.push("geokr.reverse.lookups", stats.lookups as f64);
    samples.push("geokr.reverse.hit_ratio", stats.hit_ratio());
    if window.is_none() {
        samples.push("tweetstore.scan.records", scanned.0 as f64);
        samples.push("tweetstore.scan.col_bytes_read", scanned.1 as f64);
        if let Some(e) = &metrics.exec {
            samples.push("core.exec.filter_cpu_ms", ms(e.filter_wall));
            samples.push("core.exec.geocode_cpu_ms", ms(e.geocode_wall));
            samples.push("core.exec.partition_cpu_ms", ms(e.partition_wall));
            samples.push("core.exec.group_cpu_ms", ms(e.group_wall));
        }
    }
    want.matches(&funnel, &users)
}

/// Per-layer self times of the requests named `request_name`, with the
/// attribution line: the sum of the layers' median self times against
/// the untraced median, the unexplained residue, and the tracing
/// overhead (traced median minus untraced). Returns each layer's median
/// self time in milliseconds. Spans outside a request's tree (parent-less
/// side replays) are not part of its time.
pub fn attribute(
    spans: &[Span],
    request_name: &str,
    untraced_ms: Option<f64>,
) -> BTreeMap<&'static str, f64> {
    let selfs = harness::self_times(spans);
    let roots: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == request_name && s.parent.is_none())
        .map(|s| (s.request, s.dur_ns()))
        .collect();
    let mut per_layer: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        if s.parent.is_some() && roots.contains_key(&s.request) {
            *per_layer
                .entry(s.name)
                .or_default()
                .entry(s.request)
                .or_default() += *self_ns as f64 / 1e6;
        }
    }
    let medians: BTreeMap<&'static str, f64> = per_layer
        .into_iter()
        .map(|(name, by_req)| {
            let v: Vec<f64> = roots
                .keys()
                .map(|r| by_req.get(r).copied().unwrap_or(0.0))
                .collect();
            (name, harness::median(&v))
        })
        .collect();
    let traced: Vec<f64> = roots.values().map(|&ns| ns as f64 / 1e6).collect();
    let traced_ms = harness::median(&traced);
    let explained: f64 = medians.values().sum();
    let parts: Vec<String> = medians.iter().map(|(n, v)| format!("{n} {v:.3}")).collect();
    // A request with no untraced twin (a check replay) is attributed
    // against its own traced median and has no overhead to report.
    let base = untraced_ms.unwrap_or(traced_ms);
    eprintln!(
        "attribution {request_name}: {} p50 {base:.3} ms = {} + residue {:.3} ms ({} traced){}",
        if untraced_ms.is_some() {
            "untraced"
        } else {
            "traced"
        },
        parts.join(" + "),
        base - explained,
        roots.len(),
        untraced_ms.map_or(String::new(), |u| format!(
            "; tracing overhead {:+.3} ms",
            traced_ms - u
        ))
    );
    medians
}

/// Reports the per-layer times of a replayed request kind from its
/// attribution medians, plus the geocoder side replay's duration.
pub fn report_query_layers(
    report: &mut Report,
    spans: &[Span],
    medians: &BTreeMap<&'static str, f64>,
    request_name: &str,
) {
    for (span, metric) in [
        ("core.select", "core.select.ms"),
        ("core.exec", "core.exec.ms"),
        ("tweetstore.scan", "tweetstore.scan.ms"),
        ("core.sketch", "core.sketch.query_ms"),
    ] {
        if let Some(&v) = medians.get(span) {
            report.layer(metric, v);
        }
    }
    report.layer(
        "geokr.reverse.ms",
        aside_ms(spans, "geokr.reverse", request_name),
    );
}

/// Median duration in milliseconds of the parent-less spans named `name`
/// (side replays such as the geocoder's) that belong to requests named
/// `request_name`.
fn aside_ms(spans: &[Span], name: &str, request_name: &str) -> f64 {
    let requests: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == request_name && s.parent.is_none())
        .map(|s| s.request)
        .collect();
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_none() && requests.contains(&s.request))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    harness::median(&v)
}
