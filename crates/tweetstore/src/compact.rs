//! Compaction: rebuild a store keeping only the records a predicate
//! accepts.
//!
//! The paper's pipeline throws away ~99% of the corpus (non-GPS tweets,
//! tweets of removed users) before analysis. Doing that *in storage* —
//! compacting 11M records down to the 1–2% that matter — shrinks segments
//! and indexes by the same factor and makes every later scan proportionally
//! cheaper. [`gps_only`] is the canonical instance.
//!
//! Compaction is zero-copy on the record level for row segments: the
//! predicate is decided on [`TweetHeader`]s alone, and survivors are moved
//! as raw encoded frames through [`TweetStore::append_raw`] — a record's
//! bytes are never decoded into a `String` and re-encoded just to be
//! kept. Survivors of columnar
//! (`STIRSEG2`) segments are re-framed from the decoded columns without a
//! float or UTF-8 round-trip.
//!
//! Compaction is also the row→column **upgrade point**: the output store
//! inherits the source's [`StoreFormat`](crate::store::StoreFormat), so
//! compacting a store switched to `V2` re-seals every full segment —
//! including legacy `STIRSEG1` row segments — in the columnar format.

use crate::codec::{encode_parts, TweetHeader};
use crate::store::{SegmentRef, TweetStore};

/// What a compaction did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records scanned in the source store.
    pub scanned: u64,
    /// Records kept.
    pub kept: u64,
    /// Source payload bytes.
    pub bytes_before: u64,
    /// Compacted payload bytes.
    pub bytes_after: u64,
}

impl CompactionReport {
    /// Fraction of records kept.
    pub fn keep_ratio(&self) -> f64 {
        if self.scanned == 0 {
            0.0
        } else {
            self.kept as f64 / self.scanned as f64
        }
    }

    /// Fraction of bytes reclaimed.
    pub fn space_saved(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

/// Rebuilds `store` keeping only records whose *header* satisfies `keep`.
/// Indexes are rebuilt from scratch; record order is preserved. Survivors
/// are copied as raw frames — decoded once for the header, never for the
/// text.
pub fn compact<F: FnMut(&TweetHeader) -> bool>(
    store: &TweetStore,
    mut keep: F,
) -> (TweetStore, CompactionReport) {
    let mut out = TweetStore::with_segment_bytes_and_format(store.segment_bytes(), store.format());
    // The output inherits the source's sketch resolver, so rebuilt columnar
    // seals re-materialize their group sketches eagerly; the source's own
    // sketches are never carried over (slots and counts changed).
    if let Some(sk) = store.sketcher() {
        out.set_sketcher(std::sync::Arc::clone(sk));
    }
    let mut report = CompactionReport {
        bytes_before: store.stats().payload_bytes,
        ..Default::default()
    };
    let mut scratch = Vec::new();
    for seg in store.segments() {
        match seg {
            SegmentRef::Rows(s) => {
                for slot in 0..s.len() as u32 {
                    let Ok(header) = s.header(slot) else {
                        continue;
                    };
                    report.scanned += 1;
                    if keep(&header) && out.append_raw(s.raw(slot)).is_ok() {
                        report.kept += 1;
                    }
                }
            }
            SegmentRef::Cols(c) => {
                for slot in 0..c.len() as u32 {
                    let header = c.header(slot);
                    report.scanned += 1;
                    if keep(&header) {
                        scratch.clear();
                        encode_parts(
                            &mut scratch,
                            header.id,
                            header.user,
                            header.timestamp,
                            c.gps_e6(slot),
                            c.text_bytes(slot),
                        );
                        if out.append_raw(&scratch).is_ok() {
                            report.kept += 1;
                        }
                    }
                }
            }
        }
    }
    report.bytes_after = out.stats().payload_bytes;
    (out, report)
}

/// The paper's filter: keep only GPS-tagged records.
pub fn gps_only(store: &TweetStore) -> (TweetStore, CompactionReport) {
    compact(store, |h| h.gps.is_some())
}

/// Keep only records whose author is in the `users` list — the
/// "well-defined profiles only" stage. The list may arrive in any order:
/// the probe is a binary search, so an unsorted input is sorted into a
/// local copy first (an already-sorted list pays nothing but the check —
/// release builds used to skip straight to the search and silently drop
/// survivors whose authors sat out of order).
pub fn users_only(store: &TweetStore, users: &[u64]) -> (TweetStore, CompactionReport) {
    let sorted: Vec<u64>;
    let users = if users.windows(2).all(|w| w[0] <= w[1]) {
        users
    } else {
        sorted = {
            let mut v = users.to_vec();
            v.sort_unstable();
            v
        };
        &sorted
    };
    compact(store, |h| users.binary_search(&h.user).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TweetRecord;
    use crate::query::Query;
    use stir_geoindex::Point;

    fn populated() -> TweetStore {
        let mut s = TweetStore::new();
        for i in 0..1_000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 10,
                timestamp: i * 60,
                gps: (i % 20 == 0).then(|| Point::new(37.5, 127.0)),
                text: format!("tweet {i}"),
            });
        }
        s
    }

    #[test]
    fn gps_only_keeps_exactly_gps_records() {
        let s = populated();
        let (c, report) = gps_only(&s);
        assert_eq!(report.scanned, 1_000);
        assert_eq!(report.kept, 50);
        assert_eq!(c.len(), 50);
        assert_eq!(c.stats().gps_records, 50);
        assert!((report.keep_ratio() - 0.05).abs() < 1e-12);
        assert!(report.space_saved() > 0.9, "saved {}", report.space_saved());
        // Queries still work on the compacted store.
        assert_eq!(Query::all().gps(true).execute(&c).len(), 50);
        assert!(Query::all().gps(false).execute(&c).is_empty());
    }

    #[test]
    fn users_only_filters_authors() {
        let s = populated();
        let (c, report) = users_only(&s, &[2, 5]);
        assert_eq!(report.kept, 200);
        assert!(c.scan().all(|r| {
            let u = r.unwrap().user;
            u == 2 || u == 5
        }));
    }

    #[test]
    fn users_only_accepts_unsorted_caller_list() {
        // Regression: the binary-search probe used to assume a sorted list
        // and silently dropped survivors in release builds when callers
        // passed one out of order.
        let s = populated();
        let (sorted, r_sorted) = users_only(&s, &[2, 5, 8]);
        let (unsorted, r_unsorted) = users_only(&s, &[8, 2, 5]);
        assert_eq!(r_sorted, r_unsorted);
        assert_eq!(r_sorted.kept, 300);
        let a: Vec<u64> = sorted.scan().map(|r| r.unwrap().id).collect();
        let b: Vec<u64> = unsorted.scan().map(|r| r.unwrap().id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn compose_filters_like_the_paper_funnel() {
        let s = populated();
        let (wd, _) = users_only(&s, &[0, 1, 2, 3, 4]);
        let (finals, report) = gps_only(&wd);
        // Users 0..5, every 20th tweet has GPS; user = i % 10, gps = i % 20
        // == 0 means GPS tweets belong to users 0 (i=0,20,…): i%20==0 →
        // user i%10 == 0. So 50 GPS tweets, all user 0.
        assert_eq!(finals.len(), 50);
        assert_eq!(finals.user_count(), 1);
        assert_eq!(report.scanned, 500);
    }

    #[test]
    fn empty_store_compacts_to_empty() {
        let s = TweetStore::new();
        let (c, report) = gps_only(&s);
        assert!(c.is_empty());
        assert_eq!(report.keep_ratio(), 0.0);
        assert_eq!(report.space_saved(), 0.0);
    }

    #[test]
    fn survivors_are_byte_identical_raw_frames() {
        // Raw-frame compaction must not re-encode: every surviving
        // record's encoded bytes in the compacted store equal its bytes in
        // the source, and so does the concatenated payload stream.
        let mut s = TweetStore::with_segment_bytes(2048); // force rolling
        for i in 0..1_000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 10,
                timestamp: i * 60,
                gps: (i % 20 == 0).then(|| Point::new(37.5, 127.0)),
                text: format!("tweet {i} with enough text to make frames distinctive"),
            });
        }
        let (c, report) = gps_only(&s);
        assert_eq!(report.kept, 50);
        let rows = |store: &TweetStore| -> Vec<Vec<u8>> {
            store
                .segments()
                .iter()
                .flat_map(|seg| {
                    let rows = seg.as_rows().expect("v1 store is all row segments");
                    (0..rows.len() as u32)
                        .map(|slot| rows.raw(slot).to_vec())
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let src_frames: Vec<Vec<u8>> = rows(&s)
            .into_iter()
            .filter(|frame| {
                crate::codec::decode_header(frame)
                    .map(|(h, _)| h.gps.is_some())
                    .unwrap_or(false)
            })
            .collect();
        let dst_frames: Vec<Vec<u8>> = rows(&c);
        assert_eq!(src_frames, dst_frames);
        assert_eq!(
            report.bytes_after,
            dst_frames.iter().map(|f| f.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn v2_compaction_emits_columnar_segments_with_identical_answers() {
        use crate::store::StoreFormat;
        // Mixed source: row segments sealed under V1, then the store is
        // switched to V2 and keeps growing. Compacting must (a) inherit V2,
        // (b) re-seal survivors columnar — the upgrade path — and (c)
        // answer queries identically to a V1 compaction of the same data.
        let mut s = TweetStore::with_segment_bytes(2048);
        for i in 0..600u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 10,
                timestamp: i * 60,
                gps: (i % 3 == 0).then(|| Point::new(37.5 + (i as f64) * 1e-4, 127.0)),
                text: format!("tweet {i} with enough text to force segment rolls"),
            });
        }
        s.set_format(StoreFormat::V2);
        for i in 600..1_200u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 10,
                timestamp: i * 60,
                gps: (i % 3 == 0).then(|| Point::new(37.5 + (i as f64) * 1e-4, 127.0)),
                text: format!("tweet {i} with enough text to force segment rolls"),
            });
        }
        let (c, report) = gps_only(&s);
        assert_eq!(c.format(), StoreFormat::V2);
        assert_eq!(report.kept, 400);
        let sealed_cols = c.segments().iter().filter(|seg| seg.is_columnar()).count();
        assert!(sealed_cols > 0, "V2 compaction must seal columnar segments");
        // Same records, byte-for-byte, as a V1 compaction of the same data.
        let mut v1 = TweetStore::with_segment_bytes(2048);
        for r in s.scan() {
            v1.append(&r.unwrap());
        }
        let (c1, report1) = gps_only(&v1);
        assert_eq!(report.kept, report1.kept);
        let a: Vec<TweetRecord> = c.scan().map(|r| r.unwrap()).collect();
        let b: Vec<TweetRecord> = c1.scan().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
        // Queries over the columnar compacted store still work.
        assert_eq!(Query::all().gps(true).execute(&c).len(), 400);
        assert_eq!(Query::all().user(3).execute(&c).len(), 40);
    }

    #[test]
    fn compaction_rebuilds_sketches_for_new_seals() {
        use crate::sketch::SketchResolver;
        use crate::store::StoreFormat;
        struct Bands;
        impl SketchResolver for Bands {
            fn fingerprint(&self) -> u64 {
                0x5EED
            }
            fn resolve(&self, lat: f64, _lon: f64) -> Option<u32> {
                Some(lat as u32)
            }
        }
        let mut s = TweetStore::with_segment_bytes_and_format(2048, StoreFormat::V2);
        s.set_sketcher(std::sync::Arc::new(Bands));
        for i in 0..1_000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 10,
                timestamp: i * 60,
                gps: (i % 3 == 0).then(|| Point::new(36.0 + (i % 3) as f64, 127.0)),
                text: format!("tweet {i} with enough text to force segment rolls"),
            });
        }
        let (c, report) = gps_only(&s);
        // The output inherits the resolver, and every re-sealed columnar
        // segment carries a freshly built sketch over the *kept* records —
        // never a stale copy from the source.
        assert!(c.sketcher().is_some());
        let mut sketched_records = 0;
        for (i, seg) in c.segments().iter().enumerate() {
            if seg.is_columnar() {
                let sk = c
                    .sketch_cached(i)
                    .expect("compacted seal must carry a sketch");
                assert_eq!(sk.records, seg.len() as u64);
                sketched_records += sk.records;
            }
        }
        let tail_records = c.segments().last().map_or(0, |seg| seg.len() as u64);
        assert_eq!(sketched_records + tail_records, report.kept);
    }

    #[test]
    fn order_is_preserved() {
        let s = populated();
        let (c, _) = gps_only(&s);
        let ids: Vec<u64> = c.scan().map(|r| r.unwrap().id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }
}
