//! Property tests pinning the sketch delta-merge query path to the scan
//! engines: for arbitrary corpora, arbitrary time windows (day-aligned
//! and straddling), every storage format (row, columnar, mixed) and both
//! store shapes (single, user-hash-sharded), answering from per-segment
//! group sketches plus a residual scan must be byte-identical to scanning
//! every record. A session built from a sketched store must agree with
//! the batch engines over the same store, and a tampered or truncated sketch
//! sidecar must never panic or change any answer — it only costs the
//! shortcut.

use std::sync::Arc;

use proptest::prelude::*;
use stir::core::{
    AnalysisResult, AnalysisSession, GazetteerSketcher, PipelineBuilder, ProfileRow, TimeWindow,
    TweetRow,
};
use stir::geokr::Gazetteer;
use stir::tweetstore::{GroupSketch, ShardedStore, StoreFormat, TweetRecord, TweetStore};

fn gaz() -> &'static Gazetteer {
    use std::sync::OnceLock;
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

const PROFILE_TEXTS: [&str; 6] = [
    "Seoul Yangcheon-gu",
    "Seoul Gangnam-gu",
    "my home",
    "Seoul",
    "37.517, 126.866",
    "",
];

/// The centre coordinate of cell `k` on a 1/2000° lattice: proptest-chosen
/// fixes spread over the Korea area on whole micro-degrees.
/// `tests/proptest_border_fixes.rs` covers raw fixes between lattice
/// points.
fn cell_center(k: i64) -> f64 {
    (k as f64 + 0.5) / 2000.0
}

/// GPS vocabulary: two Seoul districts, one out-of-coverage fix (Tokyo),
/// a GPS-less row, and two proptest-chosen Korea-area cells.
fn point(idx: usize, lat_k: i64, lon_k: i64) -> Option<(f64, f64)> {
    match idx % 6 {
        0 => Some((cell_center(75_034), cell_center(253_732))), // Yangcheon-gu
        1 => Some((cell_center(75_034), cell_center(254_094))), // Gangnam-gu
        2 => Some((35.68, 139.69)),                             // Tokyo — unresolvable
        3 => None,
        _ => Some((cell_center(lat_k), cell_center(lon_k))),
    }
}

type Row = (u64, usize, u64, u64);

/// `rows` is `(user, point_idx, day, second_of_day)` — tweets scattered
/// over users, locations, and days.
fn corpus(rows: &[Row], lat_k: i64, lon_k: i64) -> (Vec<ProfileRow>, Vec<TweetRecord>) {
    let users: Vec<u64> = {
        let mut u: Vec<u64> = rows.iter().map(|&(u, ..)| u).collect();
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
    let records = rows
        .iter()
        .enumerate()
        .map(|(i, &(u, p, day, sec))| TweetRecord {
            id: i as u64,
            user: u,
            timestamp: day * 86_400 + sec,
            gps: point(p, lat_k, lon_k).map(|(lat, lon)| stir::geoindex::Point::new(lat, lon)),
            text: format!("tweet {i}"),
        })
        .collect();
    (profiles, records)
}

fn assert_identical(a: &AnalysisResult, b: &AnalysisResult) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(&a.funnel, &b.funnel);
    prop_assert_eq!(&a.users, &b.users);
    prop_assert_eq!(&a.kept_profiles, &b.kept_profiles);
    Ok(())
}

/// A single store in the requested format (2 = mid-stream flip leaving a
/// mixed chain), sketcher installed before ingest, 1 KiB segments so
/// several seals happen.
fn build_store(records: &[TweetRecord], fmt_idx: usize) -> TweetStore {
    let first = match fmt_idx {
        0 => StoreFormat::V1,
        _ => StoreFormat::V2,
    };
    let mut store = TweetStore::with_segment_bytes_and_format(1024, first);
    store.set_sketcher(Arc::new(GazetteerSketcher::new()));
    for (i, r) in records.iter().enumerate() {
        if fmt_idx == 2 && i == records.len() / 2 {
            store.set_format(StoreFormat::V1);
        }
        store.append(r);
    }
    store
}

fn build_shards(records: &[TweetRecord], fmt_idx: usize, shards: usize) -> ShardedStore {
    let first = match fmt_idx {
        0 => StoreFormat::V1,
        _ => StoreFormat::V2,
    };
    let mut store = ShardedStore::with_segment_bytes_and_format(shards, 1024, first);
    store.set_sketcher(Arc::new(GazetteerSketcher::new()));
    for (i, r) in records.iter().enumerate() {
        if fmt_idx == 2 && i == records.len() / 2 {
            store.set_format(StoreFormat::V1);
        }
        store.append(r);
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sketch path ≡ scan path ≡ staged oracle: full queries and windowed
    /// queries (aligned when `sec == 0`, straddling otherwise), across row
    /// / columnar / mixed segment chains and single / sharded stores. The
    /// oracle is the staged engine fed the window's rows in append order,
    /// so the fused, zone-pruned windowed store path is pinned to it, not
    /// only to the sketch path.
    #[test]
    fn sketch_path_equals_scan_path(
        rows in prop::collection::vec((0u64..10, 0usize..6, 0u64..5, 0u64..86_400), 1..300),
        lat_k in 73_000i64..77_000,
        lon_k in 252_000i64..259_000,
        fmt_idx in 0usize..3,
        shards in 1usize..5,
        w_start in 0u64..6 * 86_400,
        w_len in 0u64..4 * 86_400,
        aligned in any::<bool>(),
    ) {
        let g = gaz();
        let (profiles, records) = corpus(&rows, lat_k, lon_k);
        let window = if aligned {
            TimeWindow {
                start: w_start / 86_400 * 86_400,
                end: (w_start + w_len) / 86_400 * 86_400,
            }
        } else {
            TimeWindow { start: w_start, end: w_start + w_len }
        };
        let scan = PipelineBuilder::new(g).build().unwrap();
        let sketched = PipelineBuilder::new(g).sketches(true).build().unwrap();
        let in_window: Vec<TweetRow> = records
            .iter()
            .filter(|r| window.contains(r.timestamp))
            .map(|r| TweetRow { user: r.user, tweet_id: r.id, gps: r.gps })
            .collect();
        let oracle = PipelineBuilder::new(g)
            .staged()
            .build()
            .unwrap()
            .execute(profiles.clone(), in_window);
        if shards == 1 {
            let store = build_store(&records, fmt_idx);
            assert_identical(
                &sketched.execute(profiles.clone(), &store),
                &scan.execute(profiles.clone(), &store),
            )?;
            assert_identical(&sketched.execute_windowed(profiles.clone(), &store, window), &oracle)?;
            assert_identical(&scan.execute_windowed(profiles, &store, window), &oracle)?;
        } else {
            let store = build_shards(&records, fmt_idx, shards);
            assert_identical(
                &sketched.execute(profiles.clone(), &store),
                &scan.execute(profiles.clone(), &store),
            )?;
            assert_identical(
                &sketched.execute_windowed_sharded(profiles.clone(), &store, window),
                &oracle,
            )?;
            assert_identical(&scan.execute_windowed_sharded(profiles, &store, window), &oracle)?;
        }
    }

    /// A session built from a sketched store (`from_store` replays every
    /// record in scan order) answers exactly like the batch pipeline with
    /// sketches on, and like a cold session fed every record in order.
    #[test]
    fn warm_session_equals_batch_with_sketches_on(
        rows in prop::collection::vec((0u64..8, 0usize..6, 0u64..4, 0u64..86_400), 1..250),
        lat_k in 73_000i64..77_000,
        lon_k in 252_000i64..259_000,
        sharded in any::<bool>(),
    ) {
        let g = gaz();
        let (profiles, records) = corpus(&rows, lat_k, lon_k);
        let batch = PipelineBuilder::new(g)
            .sketches(true)
            .build()
            .unwrap();
        let warm = if sharded {
            let store = build_shards(&records, 1, 4);
            let reference = batch.execute(profiles.clone(), &store);
            let session = AnalysisSession::from_store(
                PipelineBuilder::new(g).sketches(true).build().unwrap(),
                profiles.clone(),
                &store,
            );
            assert_identical(&session.query().execute(), &reference)?;
            session
        } else {
            let store = build_store(&records, 1);
            let reference = batch.execute(profiles.clone(), &store);
            let session = AnalysisSession::from_store(
                PipelineBuilder::new(g).sketches(true).build().unwrap(),
                profiles.clone(),
                &store,
            );
            assert_identical(&session.query().execute(), &reference)?;
            session
        };
        // Windowed session queries read the replayed day tallies; a cold
        // session over the same records is the reference.
        let mut cold = AnalysisSession::new(
            PipelineBuilder::new(g).build().unwrap(),
            profiles,
        );
        for r in &records {
            cold.ingest(r.user, r.timestamp, r.gps);
        }
        prop_assert_eq!(warm.ingested(), cold.ingested());
        for days in [1u64, 2, 5] {
            assert_identical(
                &warm.query().window(days).execute(),
                &cold.query().window(days).execute(),
            )?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `GroupSketch::decode` over arbitrary bytes: errors, never panics.
    #[test]
    fn sketch_decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let _ = GroupSketch::decode(&bytes);
    }

    /// A persisted store whose sketch sidecar is bit-flipped or truncated
    /// still loads, never panics, and answers every query identically —
    /// the damaged sidecar fails its checksum and the query falls back to
    /// the column scan (or rebuilds the sketch when a sketcher is
    /// installed).
    #[test]
    fn tampered_sketch_sidecar_falls_back_to_scan(
        rows in prop::collection::vec((0u64..6, 0usize..6, 0u64..3, 0u64..86_400), 150..300),
        lat_k in 73_000i64..77_000,
        lon_k in 252_000i64..259_000,
        damage_at in 0usize..1 << 20,
        flip in 1u8..=255,
        truncate in any::<bool>(),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static CASE: AtomicU64 = AtomicU64::new(0);

        let g = gaz();
        let (profiles, records) = corpus(&rows, lat_k, lon_k);
        let store = build_store(&records, 1); // V2: sketches persist as sidecars
        let dir = std::env::temp_dir().join(format!(
            "stir-proptest-sketches-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        stir::tweetstore::persist::save(&store, &dir).unwrap();

        // Damage every persisted sidecar: the sketch region is whatever
        // follows the STIRSKT1 magic inside each segment file.
        let mut damaged = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("stir") {
                continue;
            }
            let bytes = std::fs::read(&path).unwrap();
            let Some(at) = bytes
                .windows(8)
                .position(|w| w == b"STIRSKT1")
            else {
                continue;
            };
            let mut bytes = bytes;
            let off = at + damage_at % (bytes.len() - at);
            if truncate {
                bytes.truncate(off);
            } else {
                bytes[off] ^= flip;
            }
            std::fs::write(&path, bytes).unwrap();
            damaged += 1;
        }
        prop_assert!(damaged > 0, "corpus too small to seal a sketched segment");

        let loaded = stir::tweetstore::persist::load(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let scan = PipelineBuilder::new(g).build().unwrap();
        let sketched = PipelineBuilder::new(g).sketches(true).build().unwrap();
        let reference = scan.execute(profiles.clone(), &store);
        // No sketcher on the loaded store: damaged sidecars are dropped at
        // load, nothing can rebuild them, the query falls back to a scan.
        assert_identical(&sketched.execute(profiles.clone(), &loaded), &reference)?;
        // With a sketcher installed the dropped sidecars rebuild lazily
        // and the sketch path re-engages — same bytes either way.
        let mut rebuilt = loaded;
        rebuilt.set_sketcher(Arc::new(GazetteerSketcher::new()));
        assert_identical(&sketched.execute(profiles, &rebuilt), &reference)?;
    }
}
