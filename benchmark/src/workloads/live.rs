//! `live_ingest`: writes beside reads on the service tier. One client
//! thread runs an open loop over a fresh `DurableSession`: the firehose
//! arrives in 1024-tweet chunks at a fixed rate, each chunk is ingested
//! and then synced (group commit), a checkpoint is taken every 500k
//! tweets, and a 7-day Top-5 query is due every 20 ms. At the end of the
//! corpus the session is dropped and reopened from its WAL and
//! checkpoints, and the reopened state must answer like the staged
//! reference. Passes repeat until the traffic budget is spent.

use std::path::Path;
use std::time::{Duration, Instant};

use stir_benchmark::harness::{self, OpenLoop, Recorder, Summary};
use stir_core::DurableSession;
use stir_tweetstore::persist::PersistError;
use stir_tweetstore::{latest_snapshot, TweetRecord, Wal};

use super::{
    attribute, ms, report_query_layers, traced_scan_request, Answer, Ctx, Input, LayerSamples,
    Report,
};

/// Offered load, tweets per second.
const RATE: f64 = 1_500_000.0;

/// Tweets per chunk; one WAL sync per chunk.
const CHUNK: usize = 1024;

/// A query is due this often.
const QUERY_EVERY: Duration = Duration::from_millis(20);

/// Tweets between checkpoints.
const CHECKPOINT_EVERY: u64 = 500_000;

/// The query's window (days) and per-user Top-k cut.
const QUERY_DAYS: u64 = 7;
const QUERY_TOP_K: usize = 5;

/// First opens of a fresh session per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

const WAL: &str = "session.wal";
const SNAP: &str = "session.snap";

fn open<'g>(ctx: &'g Ctx, dir: &Path) -> Result<(DurableSession<'g>, Duration), PersistError> {
    let pipe = ctx.pipeline(false);
    let profiles = ctx.profiles.clone();
    let t = Instant::now();
    let s = DurableSession::open(&dir.join(WAL), &dir.join(SNAP), pipe, profiles)?;
    Ok((s, t.elapsed()))
}

#[derive(Default)]
struct Totals {
    chunks: Vec<f64>,
    queries: Vec<f64>,
    lag: Vec<f64>,
    /// Tweets per second of chunk service time, one sample per pass.
    capacity: Vec<f64>,
    reopen: Vec<f64>,
    disk_per_tweet: f64,
}

/// What a traced pass records besides its spans.
struct Tracing<'a> {
    rec: &'a Recorder,
    next_request: u64,
    samples: LayerSamples,
}

/// Ingests one chunk, syncs the WAL (group commit) and checkpoints when
/// due; on a traced pass each call is a span under the chunk's span
/// (`trace` = recorder, parent span, request).
fn ingest_chunk(
    session: &mut DurableSession<'_>,
    chunk: &[TweetRecord],
    checkpoint: bool,
    trace: Option<(&Recorder, u32, u64)>,
) -> Result<(), PersistError> {
    let span = |name: &'static str, f: &mut dyn FnMut() -> Result<(), PersistError>| match trace {
        Some((rec, parent, request)) => rec.span(name, Some(parent), request, |_| f()),
        None => f(),
    };
    span("core.service.ingest", &mut || {
        chunk.iter().try_for_each(|r| session.ingest(r))
    })?;
    span("tweetstore.wal.sync", &mut || session.sync())?;
    if checkpoint {
        span("core.service.checkpoint", &mut || session.checkpoint())?;
    }
    Ok(())
}

/// One pass over the corpus; returns `Err` on the first I/O error.
fn pass(
    ctx: &Ctx,
    want: &Answer,
    report: &mut Report,
    totals: &mut Totals,
    mut tracing: Option<&mut Tracing<'_>>,
) -> Result<(), PersistError> {
    let dir = ctx.scratch("live");
    let (mut session, _) = open(ctx, &dir)?;
    let chunks: Vec<_> = ctx.records.chunks(CHUNK).collect();
    let mut ol = OpenLoop::new(&[Duration::from_secs_f64(CHUNK as f64 / RATE), QUERY_EVERY]);
    let (mut next, mut ingested, mut next_checkpoint) = (0, 0u64, CHECKPOINT_EVERY);
    let mut service = 0.0;
    loop {
        let (stream, due) = ol.next_event();
        if stream == 0 && next == chunks.len() {
            break;
        }
        totals.lag.push(ms(harness::wait_until(due)));
        let sent = Instant::now();
        let request = tracing.as_mut().map_or(0, |t| {
            t.next_request += 1;
            t.next_request
        });
        if stream == 0 {
            let chunk = chunks[next];
            next += 1;
            ingested += chunk.len() as u64;
            let checkpoint = ingested >= next_checkpoint;
            if checkpoint {
                next_checkpoint += CHECKPOINT_EVERY;
            }
            let result = match tracing.as_deref().map(|t| t.rec) {
                Some(rec) => rec.span("chunk", None, request, |rid| {
                    ingest_chunk(&mut session, chunk, checkpoint, Some((rec, rid, request)))
                }),
                None => ingest_chunk(&mut session, chunk, checkpoint, None),
            };
            let done = Instant::now();
            report.check(result.is_ok());
            result?;
            totals.chunks.push(ms(done - due));
            service += (done - sent).as_secs_f64();
        } else {
            let query = || {
                session
                    .query()
                    .window(QUERY_DAYS)
                    .top_k(QUERY_TOP_K)
                    .execute()
            };
            let r = match tracing.as_deref() {
                Some(t) => t.rec.span("query", None, request, |rid| {
                    t.rec
                        .span("core.service.query", Some(rid), request, |_| query())
                }),
                None => query(),
            };
            totals.queries.push(ms(due.elapsed()));
            // The live state must cover exactly what was ingested so far.
            report.check(r.funnel.tweets_total == ingested);
        }
    }
    let wal_bytes = harness::dir_bytes(&dir.join(WAL));
    let snap_bytes = harness::dir_bytes(&dir.join(SNAP));
    totals.disk_per_tweet = (wal_bytes + snap_bytes) as f64 / ingested as f64;
    totals.capacity.push(ingested as f64 / service);
    drop(session);

    let (session, reopen) = open(ctx, &dir)?;
    totals.reopen.push(ms(reopen));
    let r = session.query().execute();
    report.check(want.matches(&r.funnel, &r.users));
    drop(session);

    if let Some(t) = tracing {
        let s = &mut t.samples;
        s.push("core.service.open_ms", ms(reopen));
        s.push(
            "tweetstore.wal.bytes_per_tweet",
            wal_bytes as f64 / ingested as f64,
        );
        s.push("tweetstore.snapshot.bytes", snap_bytes as f64);
        s.push(
            "tweetstore.wal.syncs",
            (chunks.len() as u64 + ingested / CHECKPOINT_EVERY) as f64,
        );
        let started = Instant::now();
        let frame = latest_snapshot(&dir.join(SNAP))?;
        s.push("tweetstore.snapshot.latest_ms", ms(started.elapsed()));
        report.check(frame.is_some() == (ingested >= CHECKPOINT_EVERY));
        // Recovery of a copy, so the timing is of the log alone; the
        // recovered store then answers through the batch engine, which
        // must agree with the live session and the reference.
        let copy = dir.join("recover.wal");
        std::fs::copy(dir.join(WAL), &copy)?;
        let started = Instant::now();
        let (store, recovered) = Wal::recover(&copy)?;
        s.push("tweetstore.wal.recover_ms", ms(started.elapsed()));
        report.check(recovered == ingested);
        t.next_request += 1;
        let pipe = ctx.pipeline(false);
        let ok = traced_scan_request(
            ctx,
            t.rec,
            &pipe,
            Input::Store(&store),
            None,
            "verify",
            t.next_request,
            want,
            &mut t.samples,
        );
        report.check(ok);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Passes until the traffic budget is spent (at least one).
fn passes(
    ctx: &Ctx,
    want: &Answer,
    report: &mut Report,
    mut tracing: Option<&mut Tracing<'_>>,
) -> Totals {
    let mut totals = Totals::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.traffic_seconds() || totals.reopen.is_empty() {
        if let Err(e) = pass(ctx, want, report, &mut totals, tracing.as_deref_mut()) {
            eprintln!("live pass failed: {e}");
            report.check(false);
            break;
        }
    }
    totals
}

/// Runs `live_ingest`.
pub fn run(ctx: &Ctx) -> Report {
    let want = ctx.reference(None);
    let mut report = Report::default();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let dir = ctx.scratch("setup");
        let (session, t) = open(ctx, &dir).expect("open a fresh durable session");
        setups.push(t.as_secs_f64());
        drop(session);
    }
    let _ = std::fs::remove_dir_all(ctx.dir.join("setup"));
    report.e2e("setup_s", harness::median(&setups));

    let totals = passes(ctx, &want, &mut report, None);
    let (chunks, queries) = (Summary::of(&totals.chunks), Summary::of(&totals.queries));
    eprintln!("chunk due→synced {}", chunks.render("ms"));
    eprintln!("window query     {}", queries.render("ms"));
    eprintln!(
        "reopen           {}",
        Summary::of(&totals.reopen).render("ms")
    );
    eprintln!(
        "generator lag p50 {:.3} ms, max {:.3} ms",
        harness::median(&totals.lag),
        totals.lag.iter().copied().fold(0.0, f64::max)
    );
    report.e2e("op_p25_ms", harness::percentile(&totals.chunks, 0.25));
    report.e2e("aux_p25_ms", harness::percentile(&totals.queries, 0.25));
    report.e2e("tweets_per_s", harness::median(&totals.capacity));
    report.e2e("disk_bytes_per_tweet", totals.disk_per_tweet);

    if let Some(rec) = &ctx.rec {
        let mut tracing = Tracing {
            rec,
            next_request: 0,
            samples: LayerSamples::default(),
        };
        passes(ctx, &want, &mut report, Some(&mut tracing));
        let spans = rec.spans();
        let chunk_layers = attribute(&spans, "chunk", Some(chunks.p50));
        let query_layers = attribute(&spans, "query", Some(queries.p50));
        let verify_layers = attribute(&spans, "verify", None);
        tracing.samples.finish(&mut report);
        let span_ms = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect()
        };
        let syncs = span_ms("tweetstore.wal.sync");
        report.layer(
            "tweetstore.wal.sync_p50_us",
            harness::percentile(&syncs, 0.5) * 1e3,
        );
        report.layer(
            "tweetstore.wal.sync_p99_us",
            harness::percentile(&syncs, 0.99) * 1e3,
        );
        report.layer(
            "core.service.checkpoint_ms",
            harness::median(&span_ms("core.service.checkpoint")),
        );
        if let Some(&v) = chunk_layers.get("core.service.ingest") {
            report.layer("core.service.ingest_ns_per_tweet", v * 1e6 / CHUNK as f64);
        }
        if let Some(&v) = query_layers.get("core.service.query") {
            report.layer("core.service.query_ms", v);
        }
        report_query_layers(&mut report, &spans, &verify_layers, "verify");
    }
    report.peak_rss();
    report
}
