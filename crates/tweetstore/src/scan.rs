//! The pruned, parallel, zero-copy scan engine.
//!
//! Three ideas compose here:
//!
//! 1. **Zone-map pruning** — a segment whose [`crate::ZoneMap`] disproves
//!    the predicate is skipped without touching a byte of its payload.
//! 2. **Header-only decode** — surviving segments are walked as
//!    [`TweetView`]s: the fixed fields decode, the text stays a borrowed
//!    slice. Predicates need only headers (see
//!    [`Query::matches_header`]), so rejected records never pay the text
//!    allocation, and accepted ones pay it only if the consumer asks.
//! 3. **Block-parallel execution** — surviving segments are chunked into
//!    slot blocks and fanned over a work-stealing pool (an atomic cursor
//!    over the block list, the same scheme the geocoding stage uses).
//!    Results are stitched back in block order, which is exactly
//!    (segment, slot) order — so output is byte-identical to a serial
//!    scan at any thread count or block size.
//!
//! [`ScanMetrics`] reports what the engine did: segments pruned, records
//! header-rejected, bytes decoded versus bytes stored, throughput, and
//! per-thread block counts.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::codec::{TweetHeader, TweetView};
use crate::colseg::{ColumnSegment, COL_HEADER_BYTES};
use crate::query::Query;
use crate::segment::Segment;
use crate::store::{SegmentRef, TweetStore};
use crate::wal::WalRecovery;

/// Default records per work block for the parallel scan.
pub const DEFAULT_SCAN_BLOCK: usize = 4096;

/// Minimum surviving records before a parallel scan spawns threads.
const PARALLEL_THRESHOLD: usize = 4096;

/// Knobs for [`Query::scan_filtered`].
#[derive(Clone, Copy, Debug)]
pub struct ScanOptions {
    /// Worker threads (1 = serial, no spawn).
    pub threads: usize,
    /// Records per work block handed to a worker at a time.
    pub block_records: usize,
}

impl ScanOptions {
    /// Serial execution (the default).
    pub fn serial() -> Self {
        ScanOptions {
            threads: 1,
            block_records: DEFAULT_SCAN_BLOCK,
        }
    }

    /// Parallel execution over `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ScanOptions {
            threads: threads.max(1),
            block_records: DEFAULT_SCAN_BLOCK,
        }
    }
}

impl Default for ScanOptions {
    fn default() -> Self {
        Self::serial()
    }
}

/// What a scan did: pruning effectiveness, decode volume, throughput.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScanMetrics {
    /// Segments in the store.
    pub segments_total: u64,
    /// Segments skipped entirely by zone-map pruning.
    pub segments_pruned: u64,
    /// Records in the store.
    pub records_stored: u64,
    /// Records inside pruned segments (never decoded at all).
    pub records_pruned: u64,
    /// Records whose header was decoded.
    pub headers_decoded: u64,
    /// Header-decoded records rejected by the predicate.
    pub records_rejected: u64,
    /// Records that matched and were handed to the consumer.
    pub records_yielded: u64,
    /// Records whose header failed to decode (skipped).
    pub records_corrupt: u64,
    /// Encoded payload bytes in the store.
    pub bytes_stored: u64,
    /// Bytes actually decoded: header bytes for every examined record,
    /// plus text bytes for yielded ones (the text a consumer *may* read;
    /// rejected records never pay it). For columnar segments this counts
    /// the column bytes materialized per record.
    pub bytes_decoded: u64,
    /// Row-format (`STIRSEG1`) segments seen, including the active tail.
    pub segments_row: u64,
    /// Columnar (`STIRSEG2`) segments seen.
    pub segments_col: u64,
    /// Bytes read from columnar segments (primitive column slices plus
    /// text bytes for yielded records).
    pub col_bytes_read: u64,
    /// What the same reads would have decoded on the row path — header
    /// frames for every examined record, text for yields. `col_bytes_read`
    /// vs this is the observable decode win of the columnar format.
    pub row_bytes_equiv: u64,
    /// Worker threads used (1 = serial).
    pub threads: usize,
    /// Work blocks completed per thread (work-stealing makes this uneven).
    pub blocks_per_thread: Vec<u64>,
    /// Wall-clock time of the scan.
    pub wall: Duration,
    /// Per-shard breakdown when the scan ran over a sharded store
    /// (empty for single-store scans). Rendered as one row per shard.
    pub per_shard: Vec<ShardScanMetrics>,
    /// Sealed segments answered from their materialized group sketch
    /// instead of being scanned (0 when the sketch path was off or
    /// inapplicable).
    pub sketch_segments: u64,
    /// Sketch entries merged across those segments — the work the merge
    /// path did in place of per-record decodes.
    pub sketch_entries_merged: u64,
    /// Records scanned record-wise outside the sketch path: the open tail
    /// plus any non-day-aligned window boundaries.
    pub records_scanned_residual: u64,
    /// Encoded sketch bytes merged; against `bytes_stored` of the sketched
    /// segments this is the aggregation-pushdown read ratio.
    pub sketch_bytes: u64,
}

/// One shard's slice of a sharded scan: pruning, decode volume, and the
/// WAL recovery outcome the shard opened with (if it opened from a log).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardScanMetrics {
    /// Shard index.
    pub shard: u32,
    /// Segments the shard holds.
    pub segments_total: u64,
    /// Segments zone-map-pruned in this shard.
    pub segments_pruned: u64,
    /// Records the shard holds.
    pub records_stored: u64,
    /// Records inside this shard's pruned segments.
    pub records_pruned: u64,
    /// Bytes decoded from this shard.
    pub bytes_decoded: u64,
    /// How this shard's WAL recovery went at open (`None` when the shard
    /// was built in memory or loaded from a persisted snapshot).
    pub wal: Option<WalRecovery>,
}

impl ScanMetrics {
    /// Fraction of stored records skipped without any decode.
    pub fn prune_fraction(&self) -> f64 {
        if self.records_stored == 0 {
            0.0
        } else {
            self.records_pruned as f64 / self.records_stored as f64
        }
    }

    /// Bytes decoded as a fraction of bytes stored.
    pub fn decode_fraction(&self) -> f64 {
        if self.bytes_stored == 0 {
            0.0
        } else {
            self.bytes_decoded as f64 / self.bytes_stored as f64
        }
    }

    /// Stored records processed (pruned or scanned) per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.records_stored as f64 / secs
        }
    }

    /// Multi-line human-readable rendering (joins `PipelineMetrics`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "store scan: {}/{} segments pruned, {}/{} records skipped ({:.1}%)\n",
            self.segments_pruned,
            self.segments_total,
            self.records_pruned,
            self.records_stored,
            100.0 * self.prune_fraction(),
        ));
        out.push_str(&format!(
            "  headers decoded {}  rejected {}  yielded {}  corrupt {}\n",
            self.headers_decoded, self.records_rejected, self.records_yielded, self.records_corrupt,
        ));
        out.push_str(&format!(
            "  bytes decoded {} of {} stored ({:.1}%)\n",
            self.bytes_decoded,
            self.bytes_stored,
            100.0 * self.decode_fraction(),
        ));
        out.push_str(&format!(
            "  formats: {} row / {} col segments; column bytes read {} vs row-equivalent {}\n",
            self.segments_row, self.segments_col, self.col_bytes_read, self.row_bytes_equiv,
        ));
        out.push_str(&format!(
            "  {} thread(s), blocks per thread {:?}, {:.0} records/sec\n",
            self.threads,
            self.blocks_per_thread,
            self.records_per_sec(),
        ));
        if self.sketch_segments > 0 {
            let ratio = if self.bytes_stored == 0 {
                0.0
            } else {
                self.sketch_bytes as f64 / self.bytes_stored as f64
            };
            out.push_str(&format!(
                "  sketches: {} segment(s) answered from sketches, {} entries merged, \
                 {} residual records scanned, {} sketch bytes vs {} stored ({:.1}%)\n",
                self.sketch_segments,
                self.sketch_entries_merged,
                self.records_scanned_residual,
                self.sketch_bytes,
                self.bytes_stored,
                100.0 * ratio,
            ));
        }
        for s in &self.per_shard {
            out.push_str(&format!(
                "  shard {}: {}/{} segments pruned, {}/{} records pruned, {} bytes decoded",
                s.shard,
                s.segments_pruned,
                s.segments_total,
                s.records_pruned,
                s.records_stored,
                s.bytes_decoded,
            ));
            match s.wal {
                Some(w) => out.push_str(&format!(
                    ", wal recovered {} (truncated {} B)\n",
                    w.recovered, w.truncated_bytes
                )),
                None => out.push('\n'),
            }
        }
        out
    }
}

/// Per-worker counters, merged into [`ScanMetrics`] at the end.
#[derive(Clone, Copy, Debug, Default)]
struct LocalCounts {
    headers_decoded: u64,
    records_rejected: u64,
    records_yielded: u64,
    records_corrupt: u64,
    bytes_decoded: u64,
    col_bytes_read: u64,
    row_bytes_equiv: u64,
    blocks: u64,
}

impl LocalCounts {
    fn merge_into(&self, m: &mut ScanMetrics) {
        m.headers_decoded += self.headers_decoded;
        m.records_rejected += self.records_rejected;
        m.records_yielded += self.records_yielded;
        m.records_corrupt += self.records_corrupt;
        m.bytes_decoded += self.bytes_decoded;
        m.col_bytes_read += self.col_bytes_read;
        m.row_bytes_equiv += self.row_bytes_equiv;
    }
}

/// Walks `[lo, hi)` slots of one segment, calling `on_match` for each
/// predicate-passing view. The shared inner loop of serial and parallel
/// scans — identical per-record behaviour guarantees identical output
/// across formats and thread counts.
fn scan_slots<F: FnMut(&TweetView<'_>)>(
    seg: SegmentRef<'_>,
    lo: u32,
    hi: u32,
    query: &Query,
    counts: &mut LocalCounts,
    mut on_match: F,
) {
    match seg {
        SegmentRef::Rows(s) => {
            for slot in lo..hi {
                let view = match s.view(slot) {
                    Ok(v) => v,
                    Err(_) => {
                        counts.records_corrupt += 1;
                        continue;
                    }
                };
                counts.headers_decoded += 1;
                counts.bytes_decoded += view.header_len() as u64;
                counts.row_bytes_equiv += view.header_len() as u64;
                if query.matches_header(&view.header) {
                    counts.records_yielded += 1;
                    counts.bytes_decoded += view.raw_text().len() as u64;
                    counts.row_bytes_equiv += view.raw_text().len() as u64;
                    on_match(&view);
                } else {
                    counts.records_rejected += 1;
                }
            }
        }
        SegmentRef::Cols(c) => {
            // Columns decoded once at load: a "view" here assembles a
            // header from primitive arrays, charged at the fixed column
            // width. The row-equivalent is the segment's recorded row
            // header bytes, pro-rated over the slots examined.
            if !c.is_empty() {
                counts.row_bytes_equiv += c.row_header_bytes() * (hi - lo) as u64 / c.len() as u64;
            }
            for slot in lo..hi {
                let view = c.view(slot);
                counts.headers_decoded += 1;
                counts.bytes_decoded += view.header_len() as u64;
                counts.col_bytes_read += view.header_len() as u64;
                if query.matches_header(&view.header) {
                    counts.records_yielded += 1;
                    let text = view.raw_text().len() as u64;
                    counts.bytes_decoded += text;
                    counts.col_bytes_read += text;
                    counts.row_bytes_equiv += text;
                    on_match(&view);
                } else {
                    counts.records_rejected += 1;
                }
            }
        }
    }
}

/// Splits the store into (pruned-out, surviving) segment lists and
/// pre-fills the pruning and per-format fields of the metrics.
fn prune<'s>(query: &Query, store: &'s TweetStore, m: &mut ScanMetrics) -> Vec<SegmentRef<'s>> {
    let segments = store.segments();
    m.segments_total = segments.len() as u64;
    m.records_stored = store.len() as u64;
    m.bytes_stored = store.stats().payload_bytes;
    let mut survivors = Vec::with_capacity(segments.len());
    for seg in segments {
        if seg.is_columnar() {
            m.segments_col += 1;
        } else {
            m.segments_row += 1;
        }
        if query.zone_may_match(seg.zone_map()) {
            survivors.push(seg);
        } else {
            m.segments_pruned += 1;
            m.records_pruned += seg.len() as u64;
        }
    }
    survivors
}

/// Serial streaming scan; see [`Query::for_each`].
pub(crate) fn for_each<F: FnMut(&TweetView<'_>)>(
    query: &Query,
    store: &TweetStore,
    mut visit: F,
) -> ScanMetrics {
    let start = Instant::now();
    let mut m = ScanMetrics {
        threads: 1,
        ..Default::default()
    };
    let survivors = prune(query, store, &mut m);
    let mut counts = LocalCounts::default();
    for &seg in &survivors {
        scan_slots(seg, 0, seg.len() as u32, query, &mut counts, &mut visit);
        counts.blocks += 1;
    }
    counts.merge_into(&mut m);
    m.blocks_per_thread = vec![counts.blocks];
    m.wall = start.elapsed();
    m
}

/// Pruned, optionally parallel scan; see [`Query::scan_filtered`].
pub(crate) fn scan_filtered<R, F>(
    query: &Query,
    store: &TweetStore,
    opts: &ScanOptions,
    map: &F,
) -> (Vec<R>, ScanMetrics)
where
    R: Send,
    F: Fn(&TweetView<'_>) -> Option<R> + Sync,
{
    let start = Instant::now();
    let mut m = ScanMetrics::default();
    let survivors = prune(query, store, &mut m);
    let surviving_records: usize = survivors.iter().map(|s| s.len()).sum();

    if opts.threads <= 1 || surviving_records < PARALLEL_THRESHOLD {
        // Serial: one implicit block per surviving segment.
        let mut out = Vec::new();
        let mut counts = LocalCounts::default();
        for &seg in &survivors {
            scan_slots(seg, 0, seg.len() as u32, query, &mut counts, |view| {
                if let Some(r) = map(view) {
                    out.push(r);
                }
            });
            counts.blocks += 1;
        }
        counts.merge_into(&mut m);
        m.threads = 1;
        m.blocks_per_thread = vec![counts.blocks];
        m.wall = start.elapsed();
        return (out, m);
    }

    // Chunk surviving segments into slot blocks. Block order is
    // (segment, slot) order, so stitching by block index reproduces the
    // serial output exactly.
    let block_records = opts.block_records.max(64) as u32;
    let mut blocks: Vec<(usize, u32, u32)> = Vec::new();
    for (i, seg) in survivors.iter().enumerate() {
        let len = seg.len() as u32;
        let mut lo = 0u32;
        while lo < len {
            let hi = (lo + block_records).min(len);
            blocks.push((i, lo, hi));
            lo = hi;
        }
    }

    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<(usize, Vec<R>)> = Vec::new();
    let mut per_thread_blocks = Vec::with_capacity(opts.threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..opts.threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local_parts: Vec<(usize, Vec<R>)> = Vec::new();
                    let mut counts = LocalCounts::default();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(seg_idx, lo, hi)) = blocks.get(b) else {
                            break;
                        };
                        let mut out = Vec::new();
                        scan_slots(survivors[seg_idx], lo, hi, query, &mut counts, |view| {
                            if let Some(r) = map(view) {
                                out.push(r);
                            }
                        });
                        local_parts.push((b, out));
                        counts.blocks += 1;
                    }
                    (local_parts, counts)
                })
            })
            .collect();
        for w in workers {
            let (local_parts, counts) = w.join().expect("scan worker panicked");
            parts.extend(local_parts);
            per_thread_blocks.push(counts.blocks);
            counts.merge_into(&mut m);
        }
    });

    parts.sort_unstable_by_key(|(b, _)| *b);
    let mut out = Vec::with_capacity(parts.iter().map(|(_, v)| v.len()).sum());
    for (_, mut v) in parts {
        out.append(&mut v);
    }
    m.threads = opts.threads;
    m.blocks_per_thread = per_thread_blocks;
    m.wall = start.elapsed();
    (out, m)
}

/// A thread-safe, block-granular header reader over a slice of shards —
/// the store-side half of a fused pipeline. Many workers call
/// [`HeaderBlocks::next_block_mixed`] concurrently; each draw decodes one
/// block of record **headers** (the text stays untouched in the segment
/// buffers, exactly like [`TweetStore::scan_views`]) straight into the
/// caller's sink.
///
/// Any `S: AsRef<[TweetStore]>` lays out: a [`TweetStore`] is a one-shard
/// slice, a [`crate::ShardedStore`] its shards. Blocks are laid out shard
/// by shard in `(segment, slot)` order, an atomic cursor hands them out,
/// and every block carries the *ordinal* of its first slot — its slot
/// position across the whole slice, each shard starting where the one
/// before it ends. Ordinals are therefore unique across the slice, and
/// each user's records (confined to one shard by placement) keep
/// ascending ordinals in append order.
///
/// [`HeaderBlocks::between`] narrows the layout to a time window: segments
/// whose [`crate::ZoneMap`] misses it are never laid out, and in segments
/// straddling a bound the rows outside it are skipped and counted as
/// rejected. A corrupt record is skipped and counted too. Either skip
/// shifts the later ordinals of its block down but keeps them strictly
/// increasing and unique — which is all a determinism-by-ordinal consumer
/// needs, since a serial replay skips the same records in the same order.
pub struct HeaderBlocks<'s> {
    blocks: Vec<HeaderBlock<'s>>,
    cursor: AtomicUsize,
    block_records: usize,
    start: u64,
    end: u64,
    shards: Vec<ShardCounts>,
}

struct HeaderBlock<'s> {
    seg: SegmentRef<'s>,
    lo: u32,
    hi: u32,
    first_ordinal: u64,
    shard: usize,
    /// The segment straddles a window bound: each row's timestamp is
    /// checked.
    filter: bool,
}

/// One shard's pruning and the draws charged to it so far.
#[derive(Default)]
struct ShardCounts {
    segments_pruned: u64,
    records_pruned: u64,
    headers_decoded: AtomicU64,
    records_rejected: AtomicU64,
    records_corrupt: AtomicU64,
    bytes_decoded: AtomicU64,
    col_bytes_read: AtomicU64,
    row_bytes_equiv: AtomicU64,
}

/// `ts < end`, with `end = u64::MAX` read as no upper bound.
fn below(ts: u64, end: u64) -> bool {
    ts < end || end == u64::MAX
}

/// One columnar block's rows as borrowed primitive slices — what
/// [`HeaderBlocks::next_block_mixed`] hands a consumer for `STIRSEG2`
/// segments. All slices have the block's length; coordinates use the
/// micro-degree grid with `i32::MIN` meaning "no GPS fix" (the same
/// sentinel the pipeline's column batches use), so a consumer bulk-copies
/// them without any per-record decode or transpose.
#[derive(Clone, Copy, Debug)]
pub struct ColumnSlice<'a> {
    /// Author user ids.
    pub users: &'a [u64],
    /// Timestamps (seconds since the collection-window epoch).
    pub timestamps: &'a [u64],
    /// Latitudes in micro-degrees (`i32::MIN` = no fix).
    pub lats_e6: &'a [i32],
    /// Longitudes in micro-degrees (`i32::MIN` = no fix).
    pub lons_e6: &'a [i32],
}

impl ColumnSlice<'_> {
    /// Rows in the slice.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

/// Column bytes a direct columnar block read touches per row: user(8) +
/// timestamp(8) + lat_e6(4) + lon_e6(4). Ids and text are never read.
const COL_SLICE_BYTES: u64 = 24;

/// What [`HeaderBlocks::next_block_mixed`] hands its sink: a whole
/// columnar block at once, or one decoded header at a time from a row
/// block. A single sink closure (rather than one per variant) lets a
/// consumer accumulate both shapes into the same mutable buffer.
#[derive(Clone, Copy, Debug)]
pub enum BlockChunk<'a> {
    /// One `STIRSEG2` block as borrowed primitive column slices.
    Columns(ColumnSlice<'a>),
    /// One decoded row-segment header.
    Header(&'a TweetHeader),
}

impl<'s> HeaderBlocks<'s> {
    /// Chunks every segment of every shard of `store` into blocks of at
    /// most `block_records` slots (min 1): the full time range.
    pub fn new<S: AsRef<[TweetStore]> + ?Sized>(store: &'s S, block_records: usize) -> Self {
        Self::between(store, block_records, 0, u64::MAX)
    }

    /// [`HeaderBlocks::new`] narrowed to timestamps in `[start, end)`, with
    /// `end = u64::MAX` leaving the window open above — so `new` is exactly
    /// the window `[0, u64::MAX)`. Segments the window misses are pruned,
    /// and only those straddling a bound pay a per-row timestamp check.
    pub fn between<S: AsRef<[TweetStore]> + ?Sized>(
        store: &'s S,
        block_records: usize,
        start: u64,
        end: u64,
    ) -> Self {
        let block_records = block_records.max(1);
        let step = block_records as u32;
        let mut blocks = Vec::new();
        let mut shards = Vec::new();
        let mut ordinal = 0u64;
        for (shard, s) in store.as_ref().iter().enumerate() {
            let mut counts = ShardCounts::default();
            for seg in s.segments() {
                let len = seg.len() as u32;
                let zone = seg.zone_map();
                if len > 0 && (zone.max_ts < start || !below(zone.min_ts, end)) {
                    counts.segments_pruned += 1;
                    counts.records_pruned += len as u64;
                } else {
                    let filter = zone.min_ts < start || !below(zone.max_ts, end);
                    let mut lo = 0u32;
                    while lo < len {
                        let hi = (lo + step).min(len);
                        blocks.push(HeaderBlock {
                            seg,
                            lo,
                            hi,
                            first_ordinal: ordinal + lo as u64,
                            shard,
                            filter,
                        });
                        lo = hi;
                    }
                }
                ordinal += len as u64;
            }
            shards.push(counts);
        }
        HeaderBlocks {
            blocks,
            cursor: AtomicUsize::new(0),
            block_records,
            start,
            end,
            shards,
        }
    }

    /// Whether `ts` lies in the window.
    fn admits(&self, ts: u64) -> bool {
        ts >= self.start && below(ts, self.end)
    }

    /// Hands out the next block, or `None` when the slice is drained.
    fn draw(&self) -> Option<&HeaderBlock<'s>> {
        self.blocks.get(self.cursor.fetch_add(1, Ordering::Relaxed))
    }

    /// Decodes a row block's headers into `sink` in slot order, skipping
    /// corrupt records and — when the block straddles a window bound —
    /// out-of-window ones.
    fn drain_rows(&self, block: &HeaderBlock<'_>, s: &Segment, mut sink: impl FnMut(&TweetHeader)) {
        let (mut decoded, mut rejected, mut corrupt, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        for slot in block.lo..block.hi {
            match s.view(slot) {
                Ok(view) => {
                    decoded += 1;
                    bytes += view.header_len() as u64;
                    if block.filter && !self.admits(view.header.timestamp) {
                        rejected += 1;
                    } else {
                        sink(&view.header);
                    }
                }
                Err(_) => corrupt += 1,
            }
        }
        let c = &self.shards[block.shard];
        c.headers_decoded.fetch_add(decoded, Ordering::Relaxed);
        c.records_rejected.fetch_add(rejected, Ordering::Relaxed);
        c.records_corrupt.fetch_add(corrupt, Ordering::Relaxed);
        c.bytes_decoded.fetch_add(bytes, Ordering::Relaxed);
        c.row_bytes_equiv.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Charges a columnar block's reads to its shard: `per_row` column
    /// bytes for each row examined, and the segment's row header bytes
    /// pro-rated over those rows as the row-path equivalent.
    fn charge_columnar(
        &self,
        block: &HeaderBlock<'_>,
        c: &ColumnSegment,
        rejected: u64,
        per_row: u64,
    ) {
        let rows = (block.hi - block.lo) as u64;
        let counts = &self.shards[block.shard];
        counts.headers_decoded.fetch_add(rows, Ordering::Relaxed);
        counts
            .records_rejected
            .fetch_add(rejected, Ordering::Relaxed);
        counts
            .bytes_decoded
            .fetch_add(rows * per_row, Ordering::Relaxed);
        counts
            .col_bytes_read
            .fetch_add(rows * per_row, Ordering::Relaxed);
        if !c.is_empty() {
            counts.row_bytes_equiv.fetch_add(
                c.row_header_bytes() * rows / c.len() as u64,
                Ordering::Relaxed,
            );
        }
    }

    /// Draws the next block and hands every decoded, in-window header to
    /// `sink`, in slot order. Returns the first slot's ordinal, or `None`
    /// when the slice is drained. Columnar blocks assemble headers from
    /// their columns; consumers that can take raw columns should prefer
    /// [`HeaderBlocks::next_block_mixed`], which skips even that.
    pub fn next_block_headers(&self, mut sink: impl FnMut(&TweetHeader)) -> Option<u64> {
        let block = self.draw()?;
        match block.seg {
            SegmentRef::Rows(s) => self.drain_rows(block, s, sink),
            SegmentRef::Cols(c) => {
                let mut rejected = 0u64;
                for slot in block.lo..block.hi {
                    let h = c.header(slot);
                    if block.filter && !self.admits(h.timestamp) {
                        rejected += 1;
                    } else {
                        sink(&h);
                    }
                }
                self.charge_columnar(block, c, rejected, COL_HEADER_BYTES as u64);
            }
        }
        Some(block.first_ordinal)
    }

    /// Draws the next block through the format-aware direct path: a
    /// columnar block reaches `sink` as [`BlockChunk::Columns`] of borrowed
    /// primitive slices (zero per-record work — no header is ever
    /// assembled; a block straddling a window bound arrives as one chunk
    /// per run of in-window rows), a row block decodes headers into
    /// per-record [`BlockChunk::Header`] calls exactly like
    /// [`HeaderBlocks::next_block_headers`]. Returns the first slot's
    /// ordinal, or `None` when the slice is drained. Both paths visit
    /// identical logical rows in identical order, so a consumer that treats
    /// them uniformly stays byte-identical across formats.
    pub fn next_block_mixed(&self, mut sink: impl FnMut(BlockChunk<'_>)) -> Option<u64> {
        let block = self.draw()?;
        match block.seg {
            SegmentRef::Rows(s) => self.drain_rows(block, s, |h| sink(BlockChunk::Header(h))),
            SegmentRef::Cols(c) => {
                let mut emit = |lo: usize, hi: usize| {
                    sink(BlockChunk::Columns(ColumnSlice {
                        users: &c.users()[lo..hi],
                        timestamps: &c.timestamps()[lo..hi],
                        lats_e6: &c.lats_e6()[lo..hi],
                        lons_e6: &c.lons_e6()[lo..hi],
                    }))
                };
                let (lo, hi) = (block.lo as usize, block.hi as usize);
                let mut rejected = 0u64;
                if block.filter {
                    let mut run = None;
                    for (i, &ts) in c.timestamps()[lo..hi].iter().enumerate() {
                        if self.admits(ts) {
                            run.get_or_insert(lo + i);
                        } else {
                            rejected += 1;
                            if let Some(first) = run.take() {
                                emit(first, lo + i);
                            }
                        }
                    }
                    if let Some(first) = run {
                        emit(first, hi);
                    }
                } else {
                    emit(lo, hi);
                }
                self.charge_columnar(block, c, rejected, COL_SLICE_BYTES);
            }
        }
        Some(block.first_ordinal)
    }

    /// Records per full block, as configured.
    pub fn block_records(&self) -> usize {
        self.block_records
    }

    /// Headers decoded so far, in-window or not (exact once concurrent
    /// readers joined).
    pub fn headers_decoded(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.headers_decoded.load(Ordering::Relaxed))
            .sum()
    }

    /// Bytes read from columnar segments so far.
    pub fn col_bytes_read(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.col_bytes_read.load(Ordering::Relaxed))
            .sum()
    }

    /// Adds the pruning and every draw so far to `m` and to its per-shard
    /// rows (where `m` has a row for the shard): segments and records
    /// pruned, headers decoded, rejected, yielded and corrupt, and bytes
    /// decoded, read from columns, and their row-path equivalent. Exact
    /// once concurrent readers joined.
    pub fn charge(&self, m: &mut ScanMetrics) {
        for (i, c) in self.shards.iter().enumerate() {
            let decoded = c.headers_decoded.load(Ordering::Relaxed);
            let rejected = c.records_rejected.load(Ordering::Relaxed);
            let bytes = c.bytes_decoded.load(Ordering::Relaxed);
            m.segments_pruned += c.segments_pruned;
            m.records_pruned += c.records_pruned;
            m.headers_decoded += decoded;
            m.records_rejected += rejected;
            m.records_yielded += decoded - rejected;
            m.records_corrupt += c.records_corrupt.load(Ordering::Relaxed);
            m.bytes_decoded += bytes;
            m.col_bytes_read += c.col_bytes_read.load(Ordering::Relaxed);
            m.row_bytes_equiv += c.row_bytes_equiv.load(Ordering::Relaxed);
            if let Some(row) = m.per_shard.get_mut(i) {
                row.segments_pruned += c.segments_pruned;
                row.records_pruned += c.records_pruned;
                row.bytes_decoded += bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TweetRecord;
    use stir_geoindex::{BBox, Point};

    fn build_store_n(segment_bytes: usize, n: u64) -> TweetStore {
        let mut s = TweetStore::with_segment_bytes(segment_bytes);
        // Time-ordered appends, so segments cover disjoint time ranges and
        // zone-map pruning on a time predicate has real bite.
        for i in 0..n {
            s.append(&TweetRecord {
                id: i,
                user: i % 50,
                timestamp: i * 10,
                gps: (i % 5 == 0).then(|| {
                    Point::new(
                        35.0 + (i % 100) as f64 * 0.03,
                        126.0 + (i % 70) as f64 * 0.04,
                    )
                }),
                text: format!("tweet body number {i} with some realistic length padding"),
            });
        }
        s
    }

    fn build_store(segment_bytes: usize) -> TweetStore {
        build_store_n(segment_bytes, 3000)
    }

    fn naive(query: &Query, store: &TweetStore) -> Vec<u64> {
        store
            .scan()
            .filter_map(|r| r.ok())
            .filter(|r| query.matches(r))
            .map(|r| r.id)
            .collect()
    }

    #[test]
    fn serial_scan_matches_naive() {
        let s = build_store(4096);
        for q in [
            Query::all(),
            Query::all().gps(true),
            Query::all().user(7),
            Query::all().between(5_000, 9_000),
            Query::all().within(BBox::new(35.0, 126.0, 36.0, 127.0)),
            Query::all().user(3).between(0, 15_000).gps(true),
        ] {
            let (got, m) = q.scan_filtered(&s, &ScanOptions::serial(), |v| Some(v.header.id));
            assert_eq!(got, naive(&q, &s), "query {q:?}");
            assert_eq!(m.records_yielded as usize, got.len());
            assert_eq!(
                m.records_pruned + m.headers_decoded + m.records_corrupt,
                m.records_stored
            );
        }
    }

    #[test]
    fn parallel_scan_identical_to_serial() {
        // Large enough that the surviving record count clears the
        // parallel threshold and threads actually spawn.
        let s = build_store_n(2048, 10_000);
        let q = Query::all().between(2_000, 80_000);
        let (serial, _) = q.scan_filtered(&s, &ScanOptions::serial(), |v| Some(v.header.id));
        for threads in [2, 3, 8] {
            for block in [64, 101, 1000] {
                let opts = ScanOptions {
                    threads,
                    block_records: block,
                };
                let (par, m) = q.scan_filtered(&s, &opts, |v| Some(v.header.id));
                assert_eq!(par, serial, "threads={threads} block={block}");
                assert_eq!(m.threads, threads);
                assert_eq!(m.blocks_per_thread.len(), threads);
            }
        }
    }

    #[test]
    fn time_pruning_skips_segments() {
        let s = build_store(4096);
        assert!(s.stats().segments > 4, "fixture must roll segments");
        // A narrow window at the end of the corpus: early segments are
        // disjoint in time and must be pruned without a single decode.
        let q = Query::all().between(28_000, 30_000);
        let (rows, m) = q.scan_filtered(&s, &ScanOptions::serial(), |v| Some(v.header.id));
        assert_eq!(rows, naive(&q, &s));
        assert!(m.segments_pruned > 0, "metrics: {m:?}");
        assert!(m.records_pruned > 0);
        assert!(m.headers_decoded < m.records_stored);
        assert!(m.bytes_decoded < m.bytes_stored);
    }

    #[test]
    fn user_out_of_range_prunes_everything() {
        let s = build_store(4096);
        let q = Query::all().user(10_000);
        let (rows, m) = q.for_each_collect(&s);
        assert!(rows.is_empty());
        assert_eq!(m.segments_pruned, m.segments_total);
        assert_eq!(m.headers_decoded, 0);
        assert_eq!(m.bytes_decoded, 0);
    }

    #[test]
    fn rejected_records_never_pay_text_bytes() {
        let s = build_store(1 << 20); // single segment: nothing pruned
        let q = Query::all().user(0); // 60 of 3000 match
        let (_, m) = q.scan_filtered(&s, &ScanOptions::serial(), |v| Some(v.header.id));
        assert_eq!(m.segments_pruned, 0);
        assert_eq!(m.headers_decoded, 3000);
        assert_eq!(m.records_yielded, 60);
        // Decoded bytes must be far below stored bytes: text is only
        // charged for the 2% of records that matched.
        assert!(
            m.bytes_decoded * 2 < m.bytes_stored,
            "decoded {} stored {}",
            m.bytes_decoded,
            m.bytes_stored
        );
    }

    #[test]
    fn for_each_streams_matches_in_order() {
        let s = build_store(2048);
        let q = Query::all().gps(true).between(0, 10_000);
        let mut ids = Vec::new();
        let m = q.for_each(&s, |v| ids.push(v.header.id));
        assert_eq!(ids, naive(&q, &s));
        assert_eq!(m.records_yielded as usize, ids.len());
        assert_eq!(m.threads, 1);
    }

    #[test]
    fn metrics_render_mentions_key_fields() {
        let s = build_store(4096);
        let q = Query::all().between(0, 5_000);
        let (_, m) = q.scan_filtered(&s, &ScanOptions::with_threads(2), |v| Some(v.header.id));
        let text = m.render();
        for marker in [
            "store scan:",
            "segments pruned",
            "headers decoded",
            "bytes decoded",
            "records/sec",
        ] {
            assert!(text.contains(marker), "missing {marker:?} in:\n{text}");
        }
    }

    impl Query {
        /// Test helper: collect matching ids via the streaming visitor.
        fn for_each_collect(&self, store: &TweetStore) -> (Vec<u64>, ScanMetrics) {
            let mut ids = Vec::new();
            let m = self.for_each(store, |v| ids.push(v.header.id));
            (ids, m)
        }
    }

    /// Drains `blocks` serially: every handed-out header's `(ordinal,
    /// header)` in draw order.
    fn drain(blocks: &HeaderBlocks<'_>) -> Vec<(u64, TweetHeader)> {
        let mut rows = Vec::new();
        loop {
            let mut block = Vec::new();
            let Some(first) = blocks.next_block_headers(|h| block.push(*h)) else {
                return rows;
            };
            rows.extend((first..).zip(block));
        }
    }

    #[test]
    fn header_blocks_drain_every_record_in_slot_order_with_slot_ordinals() {
        let s = build_store_n(4096, 500);
        let blocks = HeaderBlocks::new(&s, 64);
        let rows = drain(&blocks);
        // No corruption here, so ordinals are exactly slot positions.
        let ordinals: Vec<u64> = rows.iter().map(|r| r.0).collect();
        assert_eq!(ordinals, (0..500).collect::<Vec<u64>>());
        // Serial reference: scan_views order.
        let reference: Vec<u64> = s.scan_views().map(|r| r.unwrap().header.id).collect();
        assert_eq!(rows.iter().map(|r| r.1.id).collect::<Vec<_>>(), reference);
        let mut m = ScanMetrics::default();
        blocks.charge(&mut m);
        assert_eq!(m.headers_decoded, 500);
        assert_eq!(m.records_yielded, 500);
        assert_eq!(m.records_corrupt, 0);
        // Header-only: decode volume falls far short of the stored bytes.
        assert!(m.bytes_decoded < s.stats().payload_bytes);
    }

    #[test]
    fn header_blocks_over_shards_keep_ordinals_unique_and_per_user_ascending() {
        let mut sharded = crate::ShardedStore::with_segment_bytes(3, 4096);
        for i in 0..1500u64 {
            sharded.append(&TweetRecord {
                id: i,
                user: i % 97,
                timestamp: i * 31 % 100_000,
                gps: None,
                text: format!("shard test tweet {i}"),
            });
        }
        let blocks = HeaderBlocks::new(&sharded, 64);
        let rows = drain(&blocks);
        assert_eq!(rows.len(), 1500);
        let mut seen = std::collections::HashSet::new();
        let mut last: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for &(ordinal, h) in &rows {
            assert!(seen.insert(ordinal), "duplicate ordinal {ordinal}");
            // Per-user ordinals ascend in append order (id order here):
            // the property grouping determinism rests on.
            if let Some(&(ord, id)) = last.get(&h.user) {
                assert!(ord < ordinal && id < h.id, "user {} out of order", h.user);
            }
            last.insert(h.user, (ordinal, h.id));
        }
        let mut m = ScanMetrics {
            per_shard: vec![ShardScanMetrics::default(); 3],
            ..Default::default()
        };
        blocks.charge(&mut m);
        assert_eq!(m.headers_decoded, 1500);
        assert_eq!(
            m.per_shard.iter().map(|p| p.bytes_decoded).sum::<u64>(),
            m.bytes_decoded
        );
    }

    #[test]
    fn header_blocks_between_prune_and_filter_like_a_time_query() {
        use crate::store::StoreFormat;
        for format in [StoreFormat::V1, StoreFormat::V2] {
            let mut s = TweetStore::with_segment_bytes_and_format(2048, format);
            for i in 0..3000u64 {
                s.append(&TweetRecord {
                    id: i,
                    user: i % 50,
                    timestamp: i * 10,
                    gps: None,
                    text: format!("window {i}"),
                });
            }
            let (start, end) = (12_345, 17_001);
            let blocks = HeaderBlocks::between(&s, 100, start, end);
            let mut ids = Vec::new();
            let mut last = None;
            while let Some(first) = blocks.next_block_mixed(|chunk| match chunk {
                BlockChunk::Columns(c) => ids.extend(c.timestamps.iter().map(|t| t / 10)),
                BlockChunk::Header(h) => ids.push(h.id),
            }) {
                assert!(last < Some(first), "ordinals must increase");
                last = Some(first);
            }
            let want = naive(&Query::all().between(start, end), &s);
            assert_eq!(ids, want, "{format:?}");
            let mut m = ScanMetrics::default();
            blocks.charge(&mut m);
            assert!(m.segments_pruned > 0, "{m:?}");
            assert_eq!(m.records_yielded, want.len() as u64);
            assert_eq!(
                m.records_pruned + m.headers_decoded + m.records_corrupt,
                s.len() as u64
            );
            // The open upper bound: `new` is the window [0, u64::MAX).
            let all = HeaderBlocks::new(&s, 100);
            assert_eq!(drain(&all).len(), 3000);
        }
    }

    #[test]
    fn header_blocks_mixed_path_identical_across_formats() {
        use crate::segment::quantize_e6;
        use crate::store::StoreFormat;
        // Same appends into a v1 and a v2 store: draining v1 via headers
        // and v2 via the column direct path must yield identical logical
        // rows in identical order, with identical ordinals.
        let build = |format| {
            let mut s = TweetStore::with_segment_bytes_and_format(2048, format);
            for i in 0..1500u64 {
                s.append(&TweetRecord {
                    id: i,
                    user: i % 40,
                    timestamp: i * 10,
                    gps: (i % 3 == 0).then(|| Point::new(37.0 + (i % 9) as f64 * 0.01, 127.0)),
                    text: format!("mixed path {i}"),
                });
            }
            s
        };
        let drain = |s: &TweetStore| {
            let blocks = HeaderBlocks::new(s, 128);
            let mut rows: Vec<(u64, u64, i32, i32)> = Vec::new();
            let mut ordinals = Vec::new();
            while let Some(ord) = blocks.next_block_mixed(|chunk| match chunk {
                BlockChunk::Columns(cols) => {
                    for i in 0..cols.len() {
                        rows.push((
                            cols.users[i],
                            cols.timestamps[i],
                            cols.lats_e6[i],
                            cols.lons_e6[i],
                        ));
                    }
                }
                BlockChunk::Header(h) => {
                    let (lat, lon) = h.gps.map(quantize_e6).unwrap_or((i32::MIN, i32::MIN));
                    rows.push((h.user, h.timestamp, lat, lon));
                }
            }) {
                ordinals.push(ord);
            }
            let mut m = ScanMetrics::default();
            blocks.charge(&mut m);
            (rows, ordinals, m.col_bytes_read, m.row_bytes_equiv)
        };
        let v1 = build(StoreFormat::V1);
        let v2 = build(StoreFormat::V2);
        let (rows1, ords1, col1, row_equiv1) = drain(&v1);
        let (rows2, ords2, col2, row_equiv2) = drain(&v2);
        assert_eq!(rows1, rows2);
        assert_eq!(ords1, ords2);
        assert_eq!(col1, 0, "v1 store reads no column bytes");
        assert!(col2 > 0, "v2 store must use the direct path");
        assert!(
            row_equiv2 > 0 && row_equiv2 <= row_equiv1,
            "row-equivalent accounting: v2 {row_equiv2} vs v1 {row_equiv1}"
        );
    }

    #[test]
    fn header_blocks_survive_concurrent_draining() {
        let s = build_store_n(2048, 1200);
        let blocks = HeaderBlocks::new(&s, 50);
        let total = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = 0u64;
                        while blocks.next_block_headers(|_| seen += 1).is_some() {}
                        seen
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("drain worker panicked"))
                .sum::<u64>()
        });
        assert_eq!(total, 1200);
        assert_eq!(blocks.headers_decoded(), 1200);
    }
}
