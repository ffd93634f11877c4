//! Concurrency tests for the reverse geocoder: many threads hammering one
//! instance must produce exactly the serial answers and exactly-counted
//! statistics. These are the guarantees the fused pipeline's workers build
//! on.

use stir_geoindex::Point;
use stir_geokr::{Gazetteer, ReverseGeocoder};

fn gaz() -> &'static Gazetteer {
    use std::sync::OnceLock;
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

/// A deterministic mixed workload: in-coverage points that repeat, a
/// spread of distinct cells (some answered by the atlas, some by the
/// walk), and out-of-coverage points (misses).
fn mixed_points() -> Vec<Point> {
    let mut pts = Vec::new();
    for i in 0..400 {
        match i % 4 {
            // Repeats: two Seoul districts, hammered over and over.
            0 => pts.push(Point::new(37.517, 127.047)), // Gangnam-gu
            1 => pts.push(Point::new(37.517, 126.866)), // Yangcheon-gu
            // Spread: a walk across the peninsula, one fresh cell each.
            2 => pts.push(Point::new(
                34.2 + (i as f64) * 0.009,
                126.6 + (i as f64) * 0.007,
            )),
            // Out of coverage: Tokyo and the open Pacific.
            _ => pts.push(if i % 8 == 3 {
                Point::new(35.68, 139.69)
            } else {
                Point::new(20.0, 170.0)
            }),
        }
    }
    pts
}

#[test]
fn eight_threads_agree_with_serial_and_count_exactly() {
    const THREADS: usize = 8;
    let g = gaz();
    let points = mixed_points();

    // Ground truth: the gazetteer's polygon walk, point by point.
    let expected: Vec<_> = points.iter().map(|&p| g.resolve_point_walk(p)).collect();
    let serial = ReverseGeocoder::builder(g).build_reverse();
    for &p in &points {
        serial.resolve(p);
    }

    let geo = ReverseGeocoder::builder(g).build_reverse();
    let results: Vec<Vec<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let geo = &geo;
                let points = &points;
                s.spawn(move || {
                    // Each thread walks the whole list from a different
                    // offset, so the fixes arrive in every order.
                    (0..points.len())
                        .map(|i| geo.resolve(points[(i + t * 53) % points.len()]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, thread_results) in results.iter().enumerate() {
        for (i, &got) in thread_results.iter().enumerate() {
            let want = expected[(i + t * 53) % points.len()];
            assert_eq!(got, want, "thread {t}, call {i}");
        }
    }

    // Counters are exact, not approximate: every call counted once, and
    // the outcome split covers all of them.
    let s = geo.stats();
    let total_calls = (THREADS * points.len()) as u64;
    assert_eq!(s.lookups, total_calls);
    assert_eq!(s.resolved + s.misses, total_calls);
    // Whether the atlas answers is a function of the point alone, so the
    // hit count is the serial run's, THREADS times over, under any
    // interleaving.
    assert_eq!(s.cache_hits, THREADS as u64 * serial.stats().cache_hits);
    assert!(s.cache_hits > 0 && s.cache_hits < total_calls, "{s:?}");
}

#[test]
fn concurrent_stats_match_serial_outcome_split() {
    // The resolved/miss split is workload-determined, so the concurrent
    // run must reproduce the serial split exactly.
    let g = gaz();
    let points = mixed_points();
    let serial = ReverseGeocoder::builder(g).build_reverse();
    for &p in &points {
        serial.resolve(p);
    }
    let serial_stats = serial.stats();

    let geo = ReverseGeocoder::builder(g).build_reverse();
    std::thread::scope(|s| {
        for chunk in points.chunks(points.len() / 8) {
            let geo = &geo;
            s.spawn(move || {
                for &p in chunk {
                    geo.resolve(p);
                }
            });
        }
    });
    let concurrent_stats = geo.stats();
    assert_eq!(concurrent_stats.lookups, serial_stats.lookups);
    assert_eq!(concurrent_stats.resolved, serial_stats.resolved);
    assert_eq!(concurrent_stats.misses, serial_stats.misses);
    assert_eq!(concurrent_stats.cache_hits, serial_stats.cache_hits);
}
