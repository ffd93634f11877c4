//! Property tests pinning the incremental [`AnalysisSession`] to the
//! fused batch pipeline: after ingesting any prefix of a stream — in
//! arbitrary chunk sizes, across a snapshot/restore point, and across a
//! crash that tears the WAL mid-append — an unmodified session query must
//! be byte-identical to running the batch pipeline over that same prefix,
//! and a windowed session query must group the same users as a windowed
//! batch run (scan or sketched) over the same days.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use stir::core::{
    AnalysisResult, AnalysisSession, DurableSession, GazetteerSketcher, PipelineBuilder,
    ProfileRow, TimeWindow, TweetRow,
};
use stir::geokr::Gazetteer;
use stir::tweetstore::{StoreFormat, TweetRecord, TweetStore};

fn gaz() -> &'static Gazetteer {
    use std::sync::OnceLock;
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

/// Profile texts cycling through every classifier branch (see
/// `proptest_fused.rs`): kept districts, vague, insufficient, coordinates,
/// empty — so the session's kept-cohort probe is exercised on users the
/// batch select stage keeps *and* drops.
const PROFILE_TEXTS: [&str; 6] = [
    "Seoul Yangcheon-gu",
    "Seoul Gangnam-gu",
    "my home",
    "Seoul",
    "37.517, 126.866",
    "",
];

/// Tweet GPS vocabulary: two resolvable Seoul districts, one
/// out-of-coverage fix (Tokyo), and a GPS-less row.
const POINTS: [Option<(f64, f64)>; 4] = [
    Some((37.517, 126.866)), // Yangcheon-gu
    Some((37.517, 127.047)), // Gangnam-gu
    Some((35.68, 139.69)),   // Tokyo — unresolvable
    None,
];

/// Builds the corpus: profiles for every user seen, tweet rows in stream
/// order, and a timestamp per tweet spreading the stream over a few days
/// (the session buckets by day; the batch pipeline never sees time).
fn corpus(rows: &[(u64, usize, u64)]) -> (Vec<ProfileRow>, Vec<TweetRow>, Vec<u64>) {
    let users: Vec<u64> = {
        let mut u: Vec<u64> = rows.iter().map(|&(u, _, _)| u).collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    let profiles = users
        .iter()
        .map(|&u| ProfileRow {
            user: u,
            location_text: PROFILE_TEXTS[u as usize % PROFILE_TEXTS.len()].to_string(),
        })
        .collect();
    let tweets = rows
        .iter()
        .enumerate()
        .map(|(i, &(u, p, _))| match POINTS[p % POINTS.len()] {
            Some((lat, lon)) => TweetRow::tagged(u, i as u64, lat, lon),
            None => TweetRow::plain(u, i as u64),
        })
        .collect();
    let timestamps = rows
        .iter()
        .enumerate()
        .map(|(i, &(_, _, day))| day * 86_400 + (i as u64 * 761) % 86_400)
        .collect();
    (profiles, tweets, timestamps)
}

/// The batch oracle over a tweet prefix.
fn batch(g: &'static Gazetteer, profiles: &[ProfileRow], tweets: &[TweetRow]) -> AnalysisResult {
    let pipe = PipelineBuilder::new(g).build().unwrap();
    pipe.execute(profiles.to_vec(), tweets.to_vec())
}

/// A columnar store of `tweets` in ingest order, with small segments so
/// sealed (sketched) segments and an open tail both occur.
fn store_of(
    tweets: &[TweetRow],
    timestamps: &[u64],
    sketcher: &Arc<GazetteerSketcher<'static>>,
) -> TweetStore {
    let mut store = TweetStore::with_segment_bytes_and_format(256, StoreFormat::V2);
    store.set_sketcher(sketcher.clone());
    for (t, &timestamp) in tweets.iter().zip(timestamps) {
        store.append(&TweetRecord {
            id: t.tweet_id,
            user: t.user,
            timestamp,
            gps: t.gps,
            text: String::new(),
        });
    }
    store
}

/// Every window `n` in `1..=cap + 1` of the session against the batch
/// engines over the same days, `TimeWindow::days(latest + 1 − min(n,
/// cap), latest + 1)` with `latest` the newest day of the prefix.
fn assert_windows_agree(
    g: &'static Gazetteer,
    session: &AnalysisSession<'_>,
    cap: u64,
    profiles: &[ProfileRow],
    store: &TweetStore,
    latest: u64,
) -> Result<(), proptest::TestCaseError> {
    let scan = PipelineBuilder::new(g).build().unwrap();
    let sketched = PipelineBuilder::new(g).sketches(true).build().unwrap();
    for n in 1..=cap + 1 {
        let live = session.query().window(n).execute();
        let days = TimeWindow::days((latest + 1).saturating_sub(n.min(cap)), latest + 1);
        prop_assert_eq!(live.funnel.tweets_total, session.ingested());
        for pipe in [&scan, &sketched] {
            let batch = pipe.execute_windowed(profiles.to_vec(), store, days);
            prop_assert_eq!(&live.users, &batch.users, "window {} of cap {}", n, cap);
            prop_assert_eq!(live.funnel.users_final, batch.funnel.users_final);
        }
    }
    Ok(())
}

fn assert_identical(a: &AnalysisResult, b: &AnalysisResult) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(&a.funnel, &b.funnel);
    prop_assert_eq!(&a.users, &b.users);
    prop_assert_eq!(&a.kept_profiles, &b.kept_profiles);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chunked ingest: at every delivery boundary the live answer equals a
    /// batch run over exactly the tweets delivered so far.
    #[test]
    fn session_equals_batch_at_every_chunk_boundary(
        rows in prop::collection::vec((0u64..8, 0usize..4, 0u64..5), 1..100),
        chunk in 1usize..40,
    ) {
        let g = gaz();
        let (profiles, tweets, timestamps) = corpus(&rows);
        let pipe = PipelineBuilder::new(g).build().unwrap();
        let mut session = AnalysisSession::new(pipe, profiles.clone());
        let mut fed = 0usize;
        for batch_rows in tweets.chunks(chunk) {
            for t in batch_rows {
                session.ingest(t.user, timestamps[fed], t.gps);
                fed += 1;
            }
            assert_identical(
                &session.query().execute(),
                &batch(g, &profiles, &tweets[..fed]),
            )?;
        }
        prop_assert_eq!(session.ingested(), tweets.len() as u64);
    }

    /// Snapshot at an arbitrary point, restore into a fresh session, keep
    /// ingesting: the spliced run ends exactly where an uninterrupted one
    /// does.
    #[test]
    fn snapshot_restore_at_any_point_is_invisible(
        rows in prop::collection::vec((0u64..8, 0usize..4, 0u64..5), 1..100),
        cut_seed in 0usize..10_000,
    ) {
        let g = gaz();
        let (profiles, tweets, timestamps) = corpus(&rows);
        let cut = cut_seed % (tweets.len() + 1);
        let pipe = PipelineBuilder::new(g).build().unwrap();
        let mut session = AnalysisSession::new(pipe, profiles.clone());
        for (t, &ts) in tweets[..cut].iter().zip(&timestamps) {
            session.ingest(t.user, ts, t.gps);
        }
        let snap = session.snapshot();
        drop(session);

        let pipe = PipelineBuilder::new(g).build().unwrap();
        let mut restored = AnalysisSession::restore(pipe, &snap).expect("restore");
        prop_assert_eq!(restored.ingested(), cut as u64);
        for (t, &ts) in tweets[cut..].iter().zip(&timestamps[cut..]) {
            restored.ingest(t.user, ts, t.gps);
        }
        assert_identical(&restored.query().execute(), &batch(g, &profiles, &tweets))?;
    }

    /// Crash mid-WAL-append: ingest through the durable shell (with a
    /// checkpoint somewhere before the crash), tear bytes off the WAL
    /// tail, reopen, re-ingest everything the torn log lost — the final
    /// answer is byte-identical to a run that never crashed.
    #[test]
    fn torn_wal_recovery_then_reingest_equals_uninterrupted_run(
        rows in prop::collection::vec((0u64..8, 0usize..4, 0u64..5), 1..80),
        cut_seed in 0usize..10_000,
        ck_seed in 0usize..10_000,
        tear in 1u64..20,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let g = gaz();
        let (profiles, tweets, timestamps) = corpus(&rows);
        let dir = std::env::temp_dir().join(format!(
            "stir-proptest-session-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let wal_path = dir.join("session.wal");
        let snap_path = dir.join("session.snap");
        let rec = |i: usize| TweetRecord {
            id: i as u64,
            user: tweets[i].user,
            timestamp: timestamps[i],
            gps: tweets[i].gps,
            text: format!("tweet {i}"),
        };

        // First life: ingest a prefix, checkpointing partway through it.
        let cut = cut_seed % (tweets.len() + 1);
        let ck = ck_seed % (cut + 1);
        {
            let pipe = PipelineBuilder::new(g).build().unwrap();
            let mut svc = DurableSession::open(&wal_path, &snap_path, pipe, profiles.clone())
                .expect("open");
            for i in 0..ck {
                svc.ingest(&rec(i)).expect("append");
            }
            svc.checkpoint().expect("checkpoint");
            for i in ck..cut {
                svc.ingest(&rec(i)).expect("append");
            }
            svc.sync().expect("sync");
        }

        // The crash: the last WAL frame is torn mid-write.
        let len = std::fs::metadata(&wal_path).expect("wal exists").len();
        if len > tear {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .expect("reopen wal");
            f.set_len(len - tear).expect("tear tail");
        }

        // Second life: resume from checkpoint + recovered tail, then
        // re-ingest every record the torn log no longer covers.
        let pipe = PipelineBuilder::new(g).build().unwrap();
        let mut svc = DurableSession::open(&wal_path, &snap_path, pipe, profiles.clone())
            .expect("reopen");
        let resumed = svc.session().ingested();
        prop_assert!(resumed <= cut as u64, "recovered past what was written");
        for i in resumed as usize..tweets.len() {
            svc.ingest(&rec(i)).expect("re-append");
        }
        svc.sync().expect("sync");
        assert_identical(&svc.query().execute(), &batch(g, &profiles, &tweets))?;
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Windowed answers: at every chunk boundary, across a snapshot/
    /// restore cut, and for every window up to one past the ring capacity,
    /// the session ranks each user's in-window tweets exactly as the scan
    /// and sketch engines rank them — counts and first-seen ties both taken
    /// within the window.
    #[test]
    fn windowed_session_equals_windowed_batch(
        rows in prop::collection::vec((0u64..8, 0usize..4, 0u64..6), 1..100),
        chunk in 4usize..40,
        cap in 1u64..8,
        cut_seed in 0usize..10_000,
    ) {
        let g = gaz();
        let (profiles, tweets, timestamps) = corpus(&rows);
        let sketcher = Arc::new(GazetteerSketcher::for_gazetteer(g));
        let cut = cut_seed % (tweets.len() + 1);
        let pipe = PipelineBuilder::new(g).build().unwrap();
        let mut session = AnalysisSession::new(pipe, profiles.clone()).with_window_capacity(cap);
        let mut fed = 0usize;
        for batch_rows in tweets.chunks(chunk) {
            for t in batch_rows {
                if fed == cut {
                    let snap = session.snapshot();
                    let pipe = PipelineBuilder::new(g).build().unwrap();
                    session = AnalysisSession::restore(pipe, &snap).expect("restore");
                }
                session.ingest(t.user, timestamps[fed], t.gps);
                fed += 1;
            }
            let latest = timestamps[..fed].iter().max().unwrap() / 86_400;
            let store = store_of(&tweets[..fed], &timestamps[..fed], &sketcher);
            assert_windows_agree(g, &session, cap, &profiles, &store, latest)?;
        }
    }
}
