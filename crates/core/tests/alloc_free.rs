//! Proves the interned merge loop allocates nothing per tweet, and pins
//! the live tier's allocation counts: a durable ingest allocates nothing
//! per record, and a session answer nothing per kept-cohort member.
//!
//! A counting global allocator wraps the system one; the test groups the
//! same district mix at two tweet volumes two orders of magnitude apart and
//! asserts the allocation count is identical — every allocation the stage
//! makes is per *distinct district* (the merge vector, the boundary
//! strings), never per key. Lives in its own integration-test binary so no
//! other test's allocations pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stir_core::intern::{DistrictInterner, LocationKey};
use stir_core::{group_user_keys_with, TieBreak};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `n` keys for one user cycling over `districts` tweet districts.
fn keys(interner: &mut DistrictInterner, n: usize, districts: usize) -> Vec<LocationKey> {
    let profile = interner.intern("Seoul", "District-0");
    let tweet_ids: Vec<_> = (0..districts)
        .map(|d| interner.intern("Seoul", &format!("District-{d}")))
        .collect();
    (0..n)
        .map(|i| LocationKey {
            user: 1,
            profile,
            tweet: tweet_ids[i % districts],
        })
        .collect()
}

/// Serializes the tests: the harness runs them on parallel threads, and a
/// concurrent test's allocations — its set-up included — would land in
/// our window. Every test holds it from its first line.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(|e| e.into_inner())
}

fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn merge_loop_allocation_count_is_independent_of_tweet_count() {
    let _serial = serial();
    let mut interner = DistrictInterner::new();
    let small = keys(&mut interner, 1_000, 8);
    let large = keys(&mut interner, 100_000, 8);

    // Warm up once so lazily-initialized runtime structures don't bill
    // their one-time allocations to the first measured run.
    let _ = group_user_keys_with(&small, TieBreak::FirstSeen, &interner);

    let (a, small_allocs) =
        allocations_during(|| group_user_keys_with(&small, TieBreak::FirstSeen, &interner));
    let (b, large_allocs) =
        allocations_during(|| group_user_keys_with(&large, TieBreak::FirstSeen, &interner));

    let a = a.expect("non-empty");
    let b = b.expect("non-empty");
    assert_eq!(a.entries.len(), 8);
    assert_eq!(b.entries.len(), 8);
    assert_eq!(b.total_tweets(), 100_000);

    // 100× the tweets, identical allocation count: every allocation is per
    // distinct district, zero are per tweet.
    assert_eq!(
        small_allocs, large_allocs,
        "merge loop allocated per tweet: {small_allocs} allocs at 1k keys \
         vs {large_allocs} at 100k keys"
    );
    // Sanity: the stage does allocate *something* (the merge vector and the
    // boundary strings), so the counter is actually live.
    assert!(small_allocs > 0);
}

#[test]
fn warm_session_ingest_and_rank_queries_are_allocation_free() {
    let _serial = serial();
    use stir_core::{AnalysisSession, PipelineBuilder, ProfileRow};
    use stir_geokr::{Gazetteer, ReverseGeocoder};

    const DAY: u64 = 86_400;
    let gazetteer = Gazetteer::load();
    let pipeline = PipelineBuilder::new(&gazetteer).threads(1).build().unwrap();
    let profiles = (0..16u64).map(|user| ProfileRow {
        user,
        location_text: "Seoul Yangcheon-gu".into(),
    });
    let mut session = AnalysisSession::new(pipeline, profiles);
    let spots = atlas_spots();
    // Every spot sits in a pure cell of the district atlas, so ingest
    // resolves it by array index. A fix the atlas leaves to the polygon
    // walk still allocates (`RTree::nearest_k` builds a `Vec` and a heap
    // per lookup), so the zero below holds for atlas-answered fixes only.
    let probe = ReverseGeocoder::builder(&gazetteer).build_reverse();
    for &p in &spots {
        probe.resolve(p);
    }
    let traffic = probe.stats();
    assert_eq!(
        traffic.cache_hits, traffic.lookups,
        "every spot must be answered by the district atlas"
    );
    // Warm-up: every user tweets from every district on every day, so each
    // merged list, day ring and bucket has reached its final size.
    for user in 0..16u64 {
        for day in 0..3 {
            for &p in &spots {
                session.ingest(user, day * DAY, Some(p));
            }
        }
    }

    // Steady state: 50k ingests + a rank query each, zero heap traffic.
    let (last, allocs) = allocations_during(|| {
        let mut last = None;
        for i in 0..50_000u64 {
            let user = i % 16;
            session.ingest(
                user,
                (i % 3) * DAY + i % 1000,
                Some(spots[(i % 4) as usize]),
            );
            last = session.group_of(user);
        }
        last
    });
    assert!(last.is_some());
    assert_eq!(
        allocs, 0,
        "warm ingest/group_of allocated {allocs} times over 50k tweets"
    );
}

#[test]
fn merge_loop_allocations_scale_with_district_count_only() {
    let _serial = serial();
    let mut interner = DistrictInterner::new();
    let narrow = keys(&mut interner, 50_000, 4);
    let wide = keys(&mut interner, 50_000, 64);
    let _ = group_user_keys_with(&narrow, TieBreak::FirstSeen, &interner);
    let (_, narrow_allocs) =
        allocations_during(|| group_user_keys_with(&narrow, TieBreak::FirstSeen, &interner));
    let (_, wide_allocs) =
        allocations_during(|| group_user_keys_with(&wide, TieBreak::FirstSeen, &interner));
    assert!(
        wide_allocs > narrow_allocs,
        "a wider district vocabulary must cost more ({narrow_allocs} vs {wide_allocs})"
    );
    // But still bounded by the vocabulary, not the 50k tweets: even at 64
    // districts the whole stage stays under ~6 allocations per district
    // (merge vector growth + two strings and a Vec per merged entry).
    assert!(
        wide_allocs < 6 * 64,
        "{wide_allocs} allocations for 64 districts"
    );
}

/// Four fixes in pure cells of the district atlas (checked in
/// `warm_session_ingest_and_rank_queries_are_allocation_free`): ingest
/// resolves them by array index, with no polygon walk.
fn atlas_spots() -> [stir_geoindex::Point; 4] {
    use stir_geoindex::Point;
    [
        Point::new(37.517, 126.866), // Yangcheon-gu
        Point::new(37.517, 127.047), // Gangnam-gu
        Point::new(35.106, 129.032), // Busan Jung-gu
        Point::new(37.345, 126.968), // Uiwang-si
    ]
}

/// Profiles of `n` kept users, all in Yangcheon-gu.
fn kept_cohort(n: u64) -> impl Iterator<Item = stir_core::ProfileRow> {
    (0..n).map(|user| stir_core::ProfileRow {
        user,
        location_text: "Seoul Yangcheon-gu".into(),
    })
}

#[test]
fn warm_window_query_allocations_do_not_grow_with_the_kept_cohort() {
    let _serial = serial();
    use stir_core::{AnalysisSession, PipelineBuilder};
    use stir_geokr::Gazetteer;

    const DAY: u64 = 86_400;
    let gazetteer = Gazetteer::load();
    // Users 0..16 tweet; every other kept member never does.
    let allocs_with_cohort = |members: u64| {
        let pipeline = PipelineBuilder::new(&gazetteer).threads(1).build().unwrap();
        let mut session = AnalysisSession::new(pipeline, kept_cohort(members));
        for i in 0..4_000u64 {
            let spot = atlas_spots()[(i % 4) as usize];
            session.ingest(i % 16, (i % 9) * DAY, Some(spot));
        }
        let query = || session.query().window(7).top_k(5).execute();
        let warm = query();
        assert_eq!(warm.kept_profiles.len() as u64, members);
        assert_eq!(warm.users.len(), 16);
        allocations_during(query).1
    };
    let (small, large) = (allocs_with_cohort(100), allocs_with_cohort(10_000));
    assert_eq!(
        small, large,
        "a warm answer allocated per kept member: {small} blocks with 100 \
         members vs {large} with 10,000"
    );
}

#[test]
fn warm_durable_ingest_allocations_do_not_grow_with_the_record_count() {
    let _serial = serial();
    use stir_core::{DurableSession, PipelineBuilder};
    use stir_geokr::Gazetteer;
    use stir_tweetstore::TweetRecord;

    const DAY: u64 = 86_400;
    let gazetteer = Gazetteer::load();
    let dir = std::env::temp_dir().join(format!("stir-alloc-free-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pipeline = PipelineBuilder::new(&gazetteer).threads(1).build().unwrap();
    let mut svc = DurableSession::open(
        &dir.join("session.wal"),
        &dir.join("session.snap"),
        pipeline,
        kept_cohort(16),
    )
    .unwrap();
    // Three of every four tweets carry no fix, as most of a real stream.
    let records = |n: u64, base: u64| -> Vec<TweetRecord> {
        (base..base + n)
            .map(|i| TweetRecord {
                id: i,
                user: i % 16,
                timestamp: (i % 3) * DAY + i % 1000,
                gps: (i % 4 == 0).then(|| atlas_spots()[(i / 4 % 4) as usize]),
                text: format!("tweet {i} from the firehose"),
            })
            .collect()
    };
    // Warm-up: every user, district and day, so each tally and day ring
    // and the log's encode buffer have reached their final size.
    for rec in &records(4_000, 0) {
        svc.ingest(rec).unwrap();
    }
    svc.sync().unwrap();
    let mut ingest_all = |batch: &[TweetRecord]| {
        allocations_during(|| {
            for rec in batch {
                svc.ingest(rec).unwrap();
            }
        })
        .1
    };
    let (small_batch, large_batch) = (records(1_000, 4_000), records(20_000, 5_000));
    let small = ingest_all(&small_batch);
    let large = ingest_all(&large_batch);
    svc.sync().unwrap();
    assert_eq!(
        small, large,
        "durable ingest allocated per record: {small} blocks for 1,000 \
         records vs {large} for 20,000"
    );
    assert_eq!(svc.session().ingested(), 25_000);
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}
