//! # stir-tweetstore — an append-only tweet store
//!
//! The paper's funnel filters 11.1M crawled tweets down to the 2xx,xxx that
//! carry GPS coordinates, then scans them per user. This crate is the
//! storage substrate that makes those scans honest at that scale:
//!
//! * [`codec`] — a compact varint binary record format (`bytes`-based);
//!   GPS coordinates are fixed-point micro-degrees. Decoding is two-phase:
//!   a fixed-field [`TweetHeader`] decode, then a lazy text decode through
//!   a borrowed [`TweetView`] — predicates never pay the text allocation.
//! * [`segment`] — append-only segments with slot offsets, CRC-checked
//!   framing, and a per-segment [`ZoneMap`] (record count, min/max
//!   timestamp and user, GPS count and bounding box) maintained at append
//!   time and rebuilt-and-verified on load.
//! * [`colseg`] — columnar sealed segments (`STIRSEG2`): per-column
//!   checksummed blocks (delta-varint timestamps, varint users,
//!   micro-degree `i32` coordinates, an LZ-compressed text region), a
//!   zero-decode scan path, and point lookups through a [`ColumnCursor`].
//!   Writes stay row-first; sealing and compaction convert rows→columns.
//! * [`TweetStore`] — segmented log plus three secondary indexes: by user,
//!   by time bucket, and by geohash cell (GPS tweets only). A
//!   [`StoreFormat`] picks the sealed-segment encoding; mixed stores work.
//! * [`query`] — a cardinality-aware query planner: point/user/time/bbox
//!   predicates, index selection by estimated candidate rows, zone-map
//!   segment pruning, post-filtering.
//! * [`scan`] — the pruned, parallel, zero-copy scan engine behind
//!   [`Query::for_each`] and [`Query::scan_filtered`], with [`ScanMetrics`]
//!   reporting pruning and decode volume.
//! * [`compact`] — predicate compaction (the paper's GPS-only filter as a
//!   storage operation); survivors are copied as raw frames, never
//!   re-encoded.
//! * [`persist`] — directory-based save/load with manifest and checksums;
//!   the manifest carries each segment's zone map, cross-checked against
//!   the rebuilt statistics on load.
//! * [`wal`] — per-append durability: a CRC-framed write-ahead log with
//!   torn-tail truncation on recovery.
//! * [`snapshot`] — append-only checkpoint frames for incremental
//!   services: an opaque state payload plus the WAL record ordinal it
//!   covers, newest-intact-frame recovery.
//! * [`shard`] — user-hash-sharded scale-out: N independent stores behind
//!   deterministic `splitmix64(user) % N` placement, with scatter-gather
//!   queries, one WAL per shard (independent torn-tail recovery), a
//!   cross-shard morsel source, and a cold-shard compaction scheduler.
//! * [`sketch`] — seal-time group sketches: per-segment materialized
//!   grouping partials (per-user `(district, count, first-slot)` entries
//!   bucketed by day), persisted as FNV-checksummed sidecars after the
//!   `STIRSEG2` column region and merged by the analysis layer instead of
//!   re-scanning sealed records.

#![warn(missing_docs)]

pub mod codec;
pub mod colseg;
pub mod compact;
pub mod persist;
pub mod query;
pub mod scan;
pub mod segment;
pub mod shard;
pub mod sketch;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::{canonical_point, TweetHeader, TweetRecord, TweetView};
pub use colseg::{ColumnCursor, ColumnSegment};
pub use compact::{compact, gps_only, users_only, CompactionReport};
pub use query::{AccessPath, Query};
pub use scan::{BlockChunk, ColumnSlice, HeaderBlocks, ScanMetrics, ScanOptions, ShardScanMetrics};
pub use segment::{quantize_e6, ZoneMap};
pub use shard::{
    shard_of, splitmix64, CompactionPolicy, ShardedDurableStore, ShardedHeaderBlocks, ShardedStore,
};
pub use sketch::{DaySketch, DayTotal, GroupSketch, SketchEntry, SketchResolver, UserSketch};
pub use snapshot::{append_snapshot, latest_snapshot, SnapshotFrame};
pub use store::{RecordPtr, SegmentRef, StoreFormat, StoreStats, TweetStore};
pub use wal::{Wal, WalRecovery};
