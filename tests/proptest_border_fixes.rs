//! Property test pinning reverse geocoding to a pure function of the
//! stored fix, across every engine.
//!
//! The fixture sits on a district border. Two µ° points one micro-degree
//! apart resolve to different districts and share one 0.0005° cell, so a
//! geocoder that answered a whole cell with the district of its first fix
//! would get one of them wrong, and which one would depend on arrival
//! order. A third raw fix lies 0.3 µ° from the border, where the store's
//! µ° rounding carries it across, so an engine that resolved the raw
//! coordinate instead of the stored one would disagree with a store-fed
//! engine. Every engine must answer every fix with
//! `Gazetteer::resolve_point_walk` of the point the store keeps
//! (`canonical_point`), whatever the arrival order, and so every engine
//! agrees with every other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use stir::core::{
    AnalysisResult, AnalysisSession, DurableSession, GazetteerSketcher, PipelineBuilder,
    ProfileRow, TweetRow,
};
use stir::geoindex::Point;
use stir::geokr::Gazetteer;
use stir::tweetstore::{canonical_point, ShardedStore, StoreFormat, TweetRecord};

fn gaz() -> &'static Gazetteer {
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

/// The 0.0005° cell of a point, floored on both axes.
fn cell(p: Point) -> (i64, i64) {
    (
        (p.lat * 2000.0).floor() as i64,
        (p.lon * 2000.0).floor() as i64,
    )
}

/// Five fixes in one 0.0005° cell around a district border: the two µ°
/// points either side of it, a raw fix near each that rounds to it, and a
/// raw fix 0.3 µ° from the border whose stored point lies across it.
///
/// Found by scanning µ° latitude rows from the Yangcheon-gu centroid
/// northward: on each row, bisect the µ° longitudes between the
/// Yangcheon-gu and Gangnam-gu centroids down to two neighbours the walk
/// resolves differently, then bisect between them in f64 to place the
/// border. The first row where both neighbours share a cell and the
/// border sits within 0.2 µ° of one of them gives the fixture.
fn border_fixes() -> &'static [Point] {
    static FIXES: OnceLock<Vec<Point>> = OnceLock::new();
    FIXES.get_or_init(|| {
        let g = gaz();
        for lat_e6 in 37_517_000i64..37_519_000 {
            let lat = lat_e6 as f64 / 1e6;
            let walk = |lon: f64| g.resolve_point_walk(Point::new(lat, lon));
            let (mut lo, mut hi) = (126_866_000i64, 127_047_000i64);
            let west = walk(lo as f64 / 1e6);
            if walk(hi as f64 / 1e6) == west {
                continue;
            }
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if walk(mid as f64 / 1e6) == west {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let (mut w, mut e) = (lo as f64 / 1e6, hi as f64 / 1e6);
            for _ in 0..60 {
                let m = (w + e) / 2.0;
                if walk(m) == west {
                    w = m;
                } else {
                    e = m;
                }
            }
            let offset = w * 1e6 - lo as f64;
            let across = if offset < 0.2 {
                e + 0.3e-6
            } else if offset > 0.8 {
                w - 0.3e-6
            } else {
                continue;
            };
            let fixes = vec![
                Point::new(lat, lo as f64 / 1e6),
                Point::new(lat, hi as f64 / 1e6),
                Point::new(lat + 0.2e-6, lo as f64 / 1e6 + 0.1e-6),
                Point::new(lat - 0.2e-6, hi as f64 / 1e6 - 0.1e-6),
                Point::new(lat, across),
            ];
            let stored_across = canonical_point(fixes[4]);
            if fixes.iter().any(|&p| cell(p) != cell(fixes[0]))
                || walk(fixes[4].lon) == g.resolve_point_walk(stored_across)
            {
                continue;
            }
            return fixes;
        }
        panic!("no border row with a rounding-sensitive fix found");
    })
}

/// The corpus: user `u + 1` tweets `fixes[picks[u]]` once, and users
/// arrive in `order`. Every profile is kept.
fn corpus(picks: &[usize], order: &[usize]) -> (Vec<ProfileRow>, Vec<TweetRecord>) {
    let fixes = border_fixes();
    let profiles = (0..picks.len())
        .map(|u| ProfileRow {
            user: u as u64 + 1,
            location_text: "Seoul Yangcheon-gu".into(),
        })
        .collect();
    let records = order
        .iter()
        .enumerate()
        .map(|(i, &u)| TweetRecord {
            id: i as u64,
            user: u as u64 + 1,
            timestamp: i as u64 * 3_600,
            gps: Some(fixes[picks[u]]),
            text: format!("tweet {i}"),
        })
        .collect();
    (profiles, records)
}

fn rows(records: &[TweetRecord]) -> Vec<TweetRow> {
    records
        .iter()
        .map(|r| TweetRow {
            user: r.user,
            tweet_id: r.id,
            gps: r.gps,
        })
        .collect()
}

fn assert_identical(
    got: &AnalysisResult,
    want: &AnalysisResult,
    engine: &str,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(&got.funnel, &want.funnel, "{}", engine);
    prop_assert_eq!(&got.users, &want.users, "{}", engine);
    prop_assert_eq!(&got.kept_profiles, &want.kept_profiles, "{}", engine);
    Ok(())
}

/// The stores under test: {v1, v2} × {1, 8 shards}, with segments so
/// small that most records land in sealed, sketched segments and a few
/// stay in each open tail.
fn stores(records: &[TweetRecord]) -> Vec<(String, ShardedStore)> {
    let mut out = Vec::new();
    for format in [StoreFormat::V1, StoreFormat::V2] {
        for shards in [1usize, 8] {
            let mut store = ShardedStore::with_segment_bytes_and_format(shards, 64, format);
            store.set_sketcher(Arc::new(GazetteerSketcher::new()));
            for r in records {
                store.append(r);
            }
            out.push((format!("{format:?} store, {shards} shard(s)"), store));
        }
    }
    out
}

const THREADS: [usize; 3] = [1, 2, 8];
const MORSELS: [usize; 3] = [1, 3, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_engine_resolves_the_stored_fix_in_any_arrival_order(
        picks in prop::collection::vec(0usize..5, 2..16),
        threads_idx in 0usize..3,
        morsel_idx in 0usize..3,
        partitions in 1usize..9,
        exact in any::<bool>(),
        ck_seed in 0usize..1_000,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let g = gaz();
        let fixes = border_fixes();
        let forward: Vec<usize> = (0..picks.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        for order in [forward, backward] {
            let (profiles, records) = corpus(&picks, &order);

            // The staged reference answers each user's one fix with the
            // walk of its stored point.
            let staged = PipelineBuilder::new(g)
                .staged()
                .build()
                .unwrap()
                .execute(profiles.clone(), rows(&records));
            prop_assert_eq!(staged.users.len(), picks.len());
            for user in &staged.users {
                let fix = fixes[picks[user.user as usize - 1]];
                let id = g
                    .resolve_point_walk(canonical_point(fix))
                    .expect("border fixes are in coverage");
                let d = g.district(id);
                prop_assert_eq!(user.entries.len(), 1);
                prop_assert_eq!(user.entries[0].state.as_str(), d.province.name_en());
                prop_assert_eq!(user.entries[0].county.as_str(), d.name_en);
            }

            let fused = PipelineBuilder::new(g)
                .threads(THREADS[threads_idx])
                .threads_exact(exact)
                .morsel_rows(MORSELS[morsel_idx])
                .partitions(partitions)
                .build()
                .unwrap();
            assert_identical(&fused.execute(profiles.clone(), rows(&records)), &staged, "fused")?;

            let sketched = PipelineBuilder::new(g).sketches(true).build().unwrap();
            for (label, store) in stores(&records) {
                assert_identical(&fused.execute(profiles.clone(), &store), &staged, &label)?;
                let via_sketch = sketched.execute(profiles.clone(), &store);
                assert_identical(&via_sketch, &staged, &format!("sketched {label}"))?;
                let scan = via_sketch.metrics.scan.as_ref().expect("store runs fill scan");
                let sealed: usize = store.shards().iter().map(|s| s.segments().len() - 1).sum();
                prop_assert_eq!(scan.sketch_segments, sealed as u64, "{}", label);
            }

            let mut session = AnalysisSession::new(
                PipelineBuilder::new(g).build().unwrap(),
                profiles.clone(),
            );
            for r in &records {
                session.ingest(r.user, r.timestamp, r.gps);
            }
            assert_identical(&session.query().execute(), &staged, "session")?;

            // Checkpoint partway, then reopen: the tail replays from the
            // WAL as stored points while the prefix was ingested raw.
            let dir = std::env::temp_dir().join(format!(
                "stir-proptest-border-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed),
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let (wal, snap) = (dir.join("session.wal"), dir.join("session.snap"));
            let ck = ck_seed % (records.len() + 1);
            {
                let pipe = PipelineBuilder::new(g).build().unwrap();
                let mut svc = DurableSession::open(&wal, &snap, pipe, profiles.clone())
                    .expect("open");
                for r in &records[..ck] {
                    svc.ingest(r).expect("append");
                }
                svc.checkpoint().expect("checkpoint");
                for r in &records[ck..] {
                    svc.ingest(r).expect("append");
                }
                svc.sync().expect("sync");
            }
            let pipe = PipelineBuilder::new(g).build().unwrap();
            let svc = DurableSession::open(&wal, &snap, pipe, profiles).expect("reopen");
            prop_assert_eq!(svc.session().ingested(), records.len() as u64);
            assert_identical(&svc.query().execute(), &staged, "checkpoint + replay")?;
            drop(svc);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
