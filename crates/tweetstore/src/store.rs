//! The tweet store: segmented log + secondary indexes.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use stir_geoindex::geohash;

use crate::codec::{fnv1a, CodecError, TweetHeader, TweetRecord, TweetView};
use crate::colseg::ColumnSegment;
use crate::segment::{Segment, ZoneMap, DEFAULT_SEGMENT_BYTES};
use crate::sketch::{GroupSketch, SketchResolver};

/// Physical location of a record: `(segment, slot)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecordPtr {
    /// Segment index.
    pub seg: u32,
    /// Slot within the segment.
    pub slot: u32,
}

/// Geohash precision of the spatial index key (5 chars ≈ 4.9 × 4.9 km cells
/// — comfortably below district size, above GPS noise).
pub const GEO_PRECISION: usize = 5;

/// Width of a time-index bucket in seconds (1 hour).
pub const TIME_BUCKET_SECS: u64 = 3600;

/// On-disk / sealed-segment encoding a store targets.
///
/// Writes are row-first in both: the WAL and the open tail segment always
/// hold `STIRWAL1`-style row frames. The format decides what *sealing*
/// produces — `V2` converts a full row segment into a [`ColumnSegment`]
/// at the moment it seals, `V1` keeps it as rows. Mixed stores (old `V1`
/// sealed segments under a `V2` format) are fully supported; compaction
/// upgrades them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreFormat {
    /// Row-oriented sealed segments (`STIRSEG1`).
    #[default]
    V1,
    /// Columnar sealed segments (`STIRSEG2`).
    V2,
}

impl StoreFormat {
    /// Parses the CLI/manifest spelling (`"v1"` / `"v2"`).
    pub fn parse(s: &str) -> Option<StoreFormat> {
        match s {
            "v1" => Some(StoreFormat::V1),
            "v2" => Some(StoreFormat::V2),
            _ => None,
        }
    }

    /// The manifest/CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            StoreFormat::V1 => "v1",
            StoreFormat::V2 => "v2",
        }
    }
}

/// A sealed segment in either encoding. The active segment is always
/// rows; sealed ones are whatever the store's format (at seal time) says.
#[derive(Debug, Clone)]
pub(crate) enum SealedSegment {
    /// Row frames (`STIRSEG1`).
    Rows(Segment),
    /// Columns (`STIRSEG2`).
    Cols(ColumnSegment),
}

/// A borrowed segment in either format — what [`TweetStore::segments`]
/// hands to the scan engine, compaction, and persistence. `Copy`, so scan
/// blocks capture it by value.
#[derive(Clone, Copy, Debug)]
pub enum SegmentRef<'a> {
    /// A row-oriented segment (sealed `STIRSEG1` or the active tail).
    Rows(&'a Segment),
    /// A columnar sealed segment (`STIRSEG2`).
    Cols(&'a ColumnSegment),
}

impl<'a> SegmentRef<'a> {
    /// Number of records.
    pub fn len(&self) -> usize {
        match self {
            SegmentRef::Rows(s) => s.len(),
            SegmentRef::Cols(c) => c.len(),
        }
    }

    /// True when the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for columnar (`STIRSEG2`) segments.
    pub fn is_columnar(&self) -> bool {
        matches!(self, SegmentRef::Cols(_))
    }

    /// The segment's zone map.
    pub fn zone_map(&self) -> &'a ZoneMap {
        match self {
            SegmentRef::Rows(s) => s.zone_map(),
            SegmentRef::Cols(c) => c.zone_map(),
        }
    }

    /// Row-encoded payload bytes (for columnar segments, the row-format
    /// equivalent) — keeps size accounting format-independent, so roll
    /// thresholds and stats agree across formats.
    pub fn byte_len(&self) -> usize {
        match self {
            SegmentRef::Rows(s) => s.byte_len(),
            SegmentRef::Cols(c) => c.row_bytes_equiv() as usize,
        }
    }

    /// Header of the record at `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn header(&self, slot: u32) -> Result<TweetHeader, CodecError> {
        match self {
            SegmentRef::Rows(s) => s.header(slot),
            SegmentRef::Cols(c) => Ok(c.header(slot)),
        }
    }

    /// Borrowed view of the record at `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn view(&self, slot: u32) -> Result<TweetView<'a>, CodecError> {
        match self {
            SegmentRef::Rows(s) => s.view(slot),
            SegmentRef::Cols(c) => Ok(c.view(slot)),
        }
    }

    /// Decodes the record at `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn get(&self, slot: u32) -> Result<TweetRecord, CodecError> {
        match self {
            SegmentRef::Rows(s) => s.get(slot),
            SegmentRef::Cols(c) => c.cursor().record(slot),
        }
    }

    /// The underlying row segment, when this is one.
    pub fn as_rows(&self) -> Option<&'a Segment> {
        match self {
            SegmentRef::Rows(s) => Some(s),
            SegmentRef::Cols(_) => None,
        }
    }

    /// The underlying columnar segment, when this is one.
    pub fn as_cols(&self) -> Option<&'a ColumnSegment> {
        match self {
            SegmentRef::Rows(_) => None,
            SegmentRef::Cols(c) => Some(c),
        }
    }

    /// Iterates borrowed views in slot order.
    pub fn views(&self) -> impl Iterator<Item = Result<TweetView<'a>, CodecError>> + 'a {
        let this = *self;
        (0..this.len() as u32).map(move |slot| this.view(slot))
    }
}

impl SealedSegment {
    pub(crate) fn as_ref(&self) -> SegmentRef<'_> {
        match self {
            SealedSegment::Rows(s) => SegmentRef::Rows(s),
            SealedSegment::Cols(c) => SegmentRef::Cols(c),
        }
    }
}

/// One sealed segment's sketch state: a sidecar loaded from disk (kept
/// only while it validates against the segment and the query's resolver
/// fingerprint) and/or a lazily-built in-memory sketch.
#[derive(Debug, Default)]
struct SketchSlot {
    /// Sketch loaded from a persisted sidecar, if the file carried one.
    loaded: Option<Arc<GroupSketch>>,
    /// Sketch built in-process (eagerly at seal, or lazily on first use).
    /// `OnceLock` so concurrent readers race to build at most once;
    /// `None` inside means a build was attempted without a resolver.
    built: OnceLock<Option<Arc<GroupSketch>>>,
}

impl SketchSlot {
    fn from_loaded(loaded: Option<GroupSketch>) -> Self {
        SketchSlot {
            loaded: loaded.map(Arc::new),
            built: OnceLock::new(),
        }
    }
}

/// Aggregate store statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended.
    pub records: u64,
    /// Records carrying GPS.
    pub gps_records: u64,
    /// Total encoded payload bytes (row-format equivalent for columnar
    /// segments, so the figure is stable across formats).
    pub payload_bytes: u64,
    /// Number of segments (including the active one).
    pub segments: u32,
}

/// An in-memory segmented tweet store with user/time/geohash indexes.
///
/// Appends go to the active segment, which seals at a byte threshold.
/// Indexes map to [`RecordPtr`]s, so a record is decoded only when a query
/// actually returns it. Under [`StoreFormat::V2`] a segment is transposed
/// to columns when it seals; slots are preserved, so pointers stay valid.
///
/// ```
/// use stir_tweetstore::{Query, TweetRecord, TweetStore};
/// use stir_geoindex::Point;
///
/// let mut store = TweetStore::new();
/// store.append(&TweetRecord {
///     id: 1,
///     user: 42,
///     timestamp: 3_600,
///     gps: Some(Point::new(37.5, 127.0)),
///     text: "hello".into(),
/// });
/// assert_eq!(Query::all().user(42).execute(&store).len(), 1);
/// assert_eq!(store.get_by_id(1).unwrap().text, "hello");
/// ```
pub struct TweetStore {
    sealed: Vec<SealedSegment>,
    /// Per-sealed-segment sketch state, index-aligned with `sealed`.
    sketches: Vec<SketchSlot>,
    /// Resolver for building sketches (absent = sketches stay cold; only
    /// persisted sidecars can answer).
    sketcher: Option<Arc<dyn SketchResolver>>,
    active: Segment,
    segment_bytes: usize,
    format: StoreFormat,
    by_id: HashMap<u64, RecordPtr>,
    by_user: HashMap<u64, Vec<RecordPtr>>,
    by_time: BTreeMap<u64, Vec<RecordPtr>>,
    by_geo: HashMap<String, Vec<RecordPtr>>,
    stats: StoreStats,
}

impl Default for TweetStore {
    fn default() -> Self {
        Self::new()
    }
}

/// A single store is a one-shard slice: everything that reads a shard
/// slice ([`crate::HeaderBlocks`], the pipeline's store path) takes it.
impl AsRef<[TweetStore]> for TweetStore {
    fn as_ref(&self) -> &[TweetStore] {
        std::slice::from_ref(self)
    }
}

impl TweetStore {
    /// A store with the default segment size and format (`V1`).
    pub fn new() -> Self {
        Self::with_segment_bytes(DEFAULT_SEGMENT_BYTES)
    }

    /// A store that seals segments at `segment_bytes` encoded bytes.
    pub fn with_segment_bytes(segment_bytes: usize) -> Self {
        Self::with_segment_bytes_and_format(segment_bytes, StoreFormat::default())
    }

    /// A store targeting `format` with the default segment size.
    pub fn with_format(format: StoreFormat) -> Self {
        Self::with_segment_bytes_and_format(DEFAULT_SEGMENT_BYTES, format)
    }

    /// A store with both the roll threshold and the sealed-segment format
    /// chosen by the caller.
    pub fn with_segment_bytes_and_format(segment_bytes: usize, format: StoreFormat) -> Self {
        TweetStore {
            sealed: Vec::new(),
            sketches: Vec::new(),
            sketcher: None,
            active: Segment::new(),
            segment_bytes: segment_bytes.max(1024),
            format,
            by_id: HashMap::new(),
            by_user: HashMap::new(),
            by_time: BTreeMap::new(),
            by_geo: HashMap::new(),
            stats: StoreStats {
                segments: 1,
                ..Default::default()
            },
        }
    }

    /// The sealed-segment format this store targets.
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// The configured segment roll threshold in (row-equivalent) bytes.
    pub fn segment_bytes(&self) -> usize {
        self.segment_bytes
    }

    /// Switches the format *future* seals target. Already-sealed segments
    /// keep their encoding (a mixed store — compaction upgrades them).
    pub fn set_format(&mut self, format: StoreFormat) {
        self.format = format;
    }

    /// Seals the active segment if it has reached the roll threshold.
    ///
    /// The threshold is always measured in *row* bytes (the active
    /// segment is rows in both formats), so segment/slot boundaries — and
    /// therefore scan ordinals and `RecordPtr`s — are identical across
    /// formats for the same append sequence.
    fn roll_if_full(&mut self) {
        if self.active.byte_len() >= self.segment_bytes {
            self.roll();
        }
    }

    /// Seals the open tail now, regardless of fill. The forced boundary is
    /// observable (per-segment slot layout, persisted file set), so the
    /// store never does this on its own — it exists for callers that want
    /// a *fully* sealed store: read-only handoff after bulk ingest,
    /// persistence snapshots, benchmarks of the sealed-only paths. An
    /// empty tail is left alone. Under `V2` with a sketcher installed the
    /// forced seal sketches itself like any other.
    pub fn seal_active(&mut self) {
        if !self.active.is_empty() {
            self.roll();
        }
    }

    fn roll(&mut self) {
        let full = std::mem::replace(&mut self.active, Segment::new());
        let sealed = Self::seal(full, self.format);
        let slot = SketchSlot::default();
        // Seal-time sketch: columnar seals under an installed resolver
        // materialize their grouping partial immediately — the sealed
        // payload is immutable from here on, so the sketch never goes
        // stale. Row seals stay lazy (built on first sketch query).
        if let (SealedSegment::Cols(_), Some(resolver)) = (&sealed, &self.sketcher) {
            let sketch = GroupSketch::build(sealed.as_ref(), resolver.as_ref());
            let _ = slot.built.set(Some(Arc::new(sketch)));
        }
        self.sealed.push(sealed);
        self.sketches.push(slot);
        self.stats.segments += 1;
    }

    /// Installs the resolver used to build [`GroupSketch`]es at seal time
    /// and on demand. Replacing the resolver discards sketches built under
    /// the previous one (persisted sidecars stay; they re-validate by
    /// fingerprint at query time).
    pub fn set_sketcher(&mut self, resolver: Arc<dyn SketchResolver>) {
        self.sketcher = Some(resolver);
        for slot in &mut self.sketches {
            slot.built = OnceLock::new();
        }
    }

    /// The installed sketch resolver, if any.
    pub fn sketcher(&self) -> Option<&Arc<dyn SketchResolver>> {
        self.sketcher.as_ref()
    }

    /// The sketch of sealed segment `seg_idx` under the vocabulary
    /// identified by `expected_fingerprint`, building it on first use when
    /// a matching resolver is installed. `None` when the index is the
    /// active tail, no valid sidecar or resolver exists, or the
    /// fingerprints disagree — the caller must fall back to scanning that
    /// segment (in practice: the whole query falls back).
    pub fn sketch_for(
        &self,
        seg_idx: usize,
        expected_fingerprint: u64,
    ) -> Option<Arc<GroupSketch>> {
        let slot = self.sketches.get(seg_idx)?;
        let seg_records = self.sealed[seg_idx].as_ref().len() as u64;
        if let Some(loaded) = &slot.loaded {
            if loaded.fingerprint == expected_fingerprint && loaded.records == seg_records {
                return Some(Arc::clone(loaded));
            }
        }
        let built = slot.built.get_or_init(|| {
            let resolver = self.sketcher.as_ref()?;
            if resolver.fingerprint() != expected_fingerprint {
                return None;
            }
            Some(Arc::new(GroupSketch::build(
                self.sealed[seg_idx].as_ref(),
                resolver.as_ref(),
            )))
        });
        let sketch = built.clone()?;
        (sketch.fingerprint == expected_fingerprint && sketch.records == seg_records)
            .then_some(sketch)
    }

    /// A sketch already in memory for sealed segment `seg_idx` (persisted
    /// sidecar or a completed build) — never triggers a build. What
    /// persistence writes back out.
    pub(crate) fn sketch_cached(&self, seg_idx: usize) -> Option<Arc<GroupSketch>> {
        let slot = self.sketches.get(seg_idx)?;
        slot.built
            .get()
            .and_then(|b| b.clone())
            .or_else(|| slot.loaded.clone())
    }

    /// Converts a full row segment into its sealed form for `format`.
    fn seal(seg: Segment, format: StoreFormat) -> SealedSegment {
        match format {
            StoreFormat::V1 => SealedSegment::Rows(seg),
            StoreFormat::V2 => match ColumnSegment::from_rows(&seg) {
                Ok(cols) => SealedSegment::Cols(cols),
                // A sealed segment only holds frames the append path
                // already validated, so this can't fail in practice; if
                // it somehow does, keep the rows rather than lose data.
                Err(_) => SealedSegment::Rows(seg),
            },
        }
    }

    /// Registers a freshly-appended record (by header) in every index.
    fn index_record(&mut self, header: &TweetHeader, ptr: RecordPtr, frame_bytes: u64) {
        self.by_id.insert(header.id, ptr);
        self.by_user.entry(header.user).or_default().push(ptr);
        self.by_time
            .entry(header.timestamp / TIME_BUCKET_SECS)
            .or_default()
            .push(ptr);
        if let Some(p) = header.gps {
            let cell = geohash::encode(p, GEO_PRECISION);
            self.by_geo.entry(cell).or_default().push(ptr);
            self.stats.gps_records += 1;
        }
        self.stats.records += 1;
        self.stats.payload_bytes += frame_bytes;
    }

    /// Appends a record, indexing it; returns its pointer.
    pub fn append(&mut self, rec: &TweetRecord) -> RecordPtr {
        self.roll_if_full();
        let seg = self.sealed.len() as u32;
        let before = self.active.byte_len();
        let slot = self.active.append(rec);
        let ptr = RecordPtr { seg, slot };
        let frame_bytes = (self.active.byte_len() - before) as u64;
        self.index_record(&rec.header(), ptr, frame_bytes);
        ptr
    }

    /// Appends an already-encoded record frame without re-encoding (and
    /// without decoding the text); the frame must be exactly one valid
    /// record header plus its text bytes. Used by compaction and WAL
    /// replay, which checks each frame's stored checksum itself.
    pub fn append_raw(&mut self, frame: &[u8]) -> Result<RecordPtr, CodecError> {
        self.append_raw_with_crc(frame, fnv1a(frame))
    }

    /// [`TweetStore::append_raw`] under the caller's FNV-1a checksum of
    /// the frame (the WAL framing carries one). The frame is checked
    /// against it before anything is appended: a mismatch is
    /// [`CodecError::ChecksumMismatch`] and leaves the store as it was.
    pub(crate) fn append_raw_with_crc(
        &mut self,
        frame: &[u8],
        expected: u32,
    ) -> Result<RecordPtr, CodecError> {
        let actual = fnv1a(frame);
        if expected != actual {
            return Err(CodecError::ChecksumMismatch { expected, actual });
        }
        self.roll_if_full();
        let seg = self.sealed.len() as u32;
        let (slot, header) = self.active.append_raw_frame(frame)?;
        let ptr = RecordPtr { seg, slot };
        self.index_record(&header, ptr, frame.len() as u64);
        Ok(ptr)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.stats.records as usize
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.stats.records == 0
    }

    /// Store statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn segment(&self, seg: u32) -> SegmentRef<'_> {
        if (seg as usize) < self.sealed.len() {
            self.sealed[seg as usize].as_ref()
        } else {
            SegmentRef::Rows(&self.active)
        }
    }

    /// Decodes the record at `ptr`. Columnar segments go through their
    /// point-lookup cursor; row segments decode the frame.
    pub fn get(&self, ptr: RecordPtr) -> Result<TweetRecord, CodecError> {
        self.segment(ptr.seg).get(ptr.slot)
    }

    /// Looks up a record by tweet id.
    pub fn get_by_id(&self, id: u64) -> Option<TweetRecord> {
        let ptr = *self.by_id.get(&id)?;
        self.get(ptr).ok()
    }

    /// All pointers for a user, in append order.
    pub fn user_ptrs(&self, user: u64) -> &[RecordPtr] {
        self.by_user.get(&user).map_or(&[], |v| v.as_slice())
    }

    /// Pointers whose timestamps fall in `[start, end)` (bucket-granular
    /// prefilter; exact filtering happens in the query layer).
    pub fn time_ptrs(&self, start: u64, end: u64) -> Vec<RecordPtr> {
        if start >= end {
            return Vec::new();
        }
        let b0 = start / TIME_BUCKET_SECS;
        let b1 = (end - 1) / TIME_BUCKET_SECS;
        self.by_time
            .range(b0..=b1)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Pointers in the given geohash cell (exact-precision key).
    pub fn geo_cell_ptrs(&self, cell: &str) -> &[RecordPtr] {
        self.by_geo.get(cell).map_or(&[], |v| v.as_slice())
    }

    /// All geo-index cells currently populated.
    pub fn geo_cells(&self) -> impl Iterator<Item = &str> {
        self.by_geo.keys().map(|s| s.as_str())
    }

    /// Distinct users with at least one record.
    pub fn user_count(&self) -> usize {
        self.by_user.len()
    }

    /// Iterates over every record in (segment, slot) order.
    pub fn scan(&self) -> impl Iterator<Item = Result<TweetRecord, CodecError>> + '_ {
        self.segments()
            .into_iter()
            .flat_map(|s| (0..s.len() as u32).map(move |slot| s.get(slot)))
    }

    /// Iterates records in (segment, slot) order starting at record
    /// ordinal `from` — the tail primitive behind snapshot-resume: whole
    /// segments before the ordinal are skipped by their record counts, so
    /// the cost is proportional to the tail, not to the corpus.
    pub fn scan_from(
        &self,
        from: u64,
    ) -> impl Iterator<Item = Result<TweetRecord, CodecError>> + '_ {
        let mut skip = from as usize;
        self.segments()
            .into_iter()
            .filter_map(move |s| {
                if skip >= s.len() {
                    skip -= s.len();
                    None
                } else {
                    let first = skip as u32;
                    skip = 0;
                    Some((s, first))
                }
            })
            .flat_map(|(s, first)| (first..s.len() as u32).map(move |slot| s.get(slot)))
    }

    /// Streams borrowed views over every record in (segment, slot) order —
    /// the zero-copy counterpart of [`TweetStore::scan`]: headers are
    /// decoded, text stays in the segment buffer until asked for.
    pub fn scan_views(&self) -> impl Iterator<Item = Result<TweetView<'_>, CodecError>> + '_ {
        self.segments().into_iter().flat_map(|s| s.views())
    }

    /// Streams header-only decodes in (segment, slot) order.
    pub fn scan_headers(&self) -> impl Iterator<Item = Result<TweetHeader, CodecError>> + '_ {
        self.scan_views().map(|r| r.map(|v| v.header))
    }

    /// Total records indexed under the time buckets overlapping
    /// `[start, end)` — the planner's cardinality estimate for the time
    /// index (bucket-granular, like [`TweetStore::time_ptrs`]).
    pub(crate) fn time_ptr_count(&self, start: u64, end: u64) -> usize {
        if start >= end {
            return 0;
        }
        let b0 = start / TIME_BUCKET_SECS;
        let b1 = (end - 1) / TIME_BUCKET_SECS;
        self.by_time.range(b0..=b1).map(|(_, v)| v.len()).sum()
    }

    /// Sealed + active segments in order — a read-only view used by
    /// persistence, compaction, the scan engine, and zone-map inspection.
    /// Each entry is a [`SegmentRef`] carrying its format.
    pub fn segments(&self) -> Vec<SegmentRef<'_>> {
        self.sealed
            .iter()
            .map(|s| s.as_ref())
            .chain(std::iter::once(SegmentRef::Rows(&self.active)))
            .collect()
    }

    /// Rebuilds a store from sealed segments (persistence path).
    ///
    /// Segments are adopted as-is — payload bytes are never re-encoded and
    /// record text is never decoded. A trailing *row* segment resumes as
    /// the active segment (a columnar tail stays sealed: columns are
    /// immutable). Indexes and stats are rebuilt from a header-only scan.
    /// Each segment arrives with its persisted sketch sidecar (if its file
    /// carried a valid one) riding along.
    pub(crate) fn from_sealed_with_sketches(
        mut segments: Vec<(SealedSegment, Option<GroupSketch>)>,
        segment_bytes: usize,
        format: StoreFormat,
    ) -> Self {
        let mut store = TweetStore::with_segment_bytes_and_format(segment_bytes, format);
        match segments.pop() {
            Some((SealedSegment::Rows(tail), _)) => {
                // The trailing row segment resumes as the active tail; a
                // sketch cannot cover a mutable segment, so any sidecar it
                // had is dropped.
                store.sealed = Vec::with_capacity(segments.len());
                store.sketches = Vec::with_capacity(segments.len());
                for (seg, sketch) in segments {
                    store.sealed.push(seg);
                    store.sketches.push(SketchSlot::from_loaded(sketch));
                }
                store.active = tail;
            }
            Some(cols @ (SealedSegment::Cols(_), _)) => {
                segments.push(cols);
                store.sealed = Vec::with_capacity(segments.len());
                store.sketches = Vec::with_capacity(segments.len());
                for (seg, sketch) in segments {
                    store.sealed.push(seg);
                    store.sketches.push(SketchSlot::from_loaded(sketch));
                }
            }
            None => return store,
        }
        store.stats.segments = store.sealed.len() as u32 + 1;
        for seg_idx in 0..store.stats.segments {
            // Collect headers first: indexing needs `&mut store` while the
            // segment walk borrows `&store`.
            let seg = store.segment(seg_idx);
            let mut entries = Vec::with_capacity(seg.len());
            for slot in 0..seg.len() as u32 {
                // The framed loader verified the checksums and rebuilt the
                // zone map from these same headers, so decode cannot fail
                // here; skip defensively rather than panic.
                let Ok(view) = seg.view(slot) else { continue };
                let ptr = RecordPtr { seg: seg_idx, slot };
                entries.push((view.header, ptr, view.frame_len() as u64));
            }
            for (header, ptr, frame_bytes) in entries {
                store.index_record(&header, ptr, frame_bytes);
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_geoindex::Point;

    fn rec(id: u64, user: u64, ts: u64, gps: Option<(f64, f64)>) -> TweetRecord {
        TweetRecord {
            id,
            user,
            timestamp: ts,
            gps: gps.map(|(a, b)| Point::new(a, b)),
            text: format!("t{id}"),
        }
    }

    #[test]
    fn append_and_get_by_id() {
        let mut s = TweetStore::new();
        for i in 0..100 {
            s.append(&rec(i, i % 5, i * 60, None));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.get_by_id(42).unwrap().id, 42);
        assert!(s.get_by_id(9999).is_none());
    }

    #[test]
    fn user_index_complete() {
        let mut s = TweetStore::new();
        for i in 0..60 {
            s.append(&rec(i, i % 3, i, None));
        }
        assert_eq!(s.user_ptrs(0).len(), 20);
        assert_eq!(s.user_count(), 3);
        for &ptr in s.user_ptrs(1) {
            assert_eq!(s.get(ptr).unwrap().user, 1);
        }
    }

    #[test]
    fn time_index_bucket_ranges() {
        let mut s = TweetStore::new();
        for i in 0..48 {
            s.append(&rec(i, 0, i * 1800, None)); // every 30 min over 24h
        }
        let ptrs = s.time_ptrs(0, 3 * 3600); // first three hours
        let mut hits: Vec<u64> = ptrs
            .into_iter()
            .map(|p| s.get(p).unwrap().timestamp)
            .filter(|&t| t < 3 * 3600)
            .collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1800, 3600, 5400, 7200, 9000]);
        assert!(s.time_ptrs(10, 10).is_empty());
    }

    #[test]
    fn geo_index_only_gps_records() {
        let mut s = TweetStore::new();
        s.append(&rec(1, 0, 0, Some((37.5663, 126.9779))));
        s.append(&rec(2, 0, 0, None));
        s.append(&rec(3, 0, 0, Some((37.5664, 126.9780))));
        assert_eq!(s.stats().gps_records, 2);
        let cell = stir_geoindex::geohash::encode(Point::new(37.5663, 126.9779), GEO_PRECISION);
        assert_eq!(s.geo_cell_ptrs(&cell).len(), 2);
    }

    #[test]
    fn segments_roll_at_threshold() {
        let mut s = TweetStore::with_segment_bytes(2048);
        for i in 0..2000 {
            s.append(&rec(i, i, i, None));
        }
        assert!(s.stats().segments > 1, "segments {}", s.stats().segments);
        // Every record still reachable after rolling.
        assert_eq!(s.scan().filter(|r| r.is_ok()).count(), 2000);
        assert_eq!(s.get_by_id(1999).unwrap().id, 1999);
    }

    #[test]
    fn append_raw_matches_append() {
        let mut a = TweetStore::with_segment_bytes(2048);
        let mut b = TweetStore::with_segment_bytes(2048);
        for i in 0..500 {
            let r = rec(i, i % 5, i * 60, (i % 3 == 0).then_some((37.5, 127.0)));
            a.append(&r);
        }
        // Replay a's raw frames into b: identical stats, indexes, bytes.
        let frames: Vec<Vec<u8>> = a
            .segments()
            .iter()
            .flat_map(|s| {
                let rows = s.as_rows().expect("v1 store is all rows");
                (0..rows.len() as u32).map(|slot| rows.raw(slot).to_vec())
            })
            .collect();
        for f in &frames {
            b.append_raw(f).unwrap();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.user_count(), b.user_count());
        for (sa, sb) in a.segments().iter().zip(b.segments().iter()) {
            assert_eq!(sa.zone_map(), sb.zone_map());
            let (ra, rb) = (sa.as_rows().unwrap(), sb.as_rows().unwrap());
            for slot in 0..ra.len() as u32 {
                assert_eq!(ra.raw(slot), rb.raw(slot));
            }
        }
        // Garbage frames are rejected without perturbing the store.
        let before = b.stats();
        assert!(b.append_raw(&[0xFF; 3]).is_err());
        assert_eq!(b.stats(), before);
    }

    #[test]
    fn wrong_crc_append_leaves_no_trace() {
        // A full tail: any append that got past the check would roll it.
        let mut s = TweetStore::with_segment_bytes(1024);
        for id in 0.. {
            if s.stats().payload_bytes >= 1024 {
                break;
            }
            s.append(&rec(id, 1, 10, None));
        }
        let mut donor = TweetStore::new();
        donor.append(&rec(2, 2, 20, Some((35.1, 129.0))));
        let frame = donor.segments()[0].as_rows().unwrap().raw(0).to_vec();
        let lens = |s: &TweetStore| s.segments().iter().map(|g| g.len()).collect::<Vec<_>>();
        let zones = |s: &TweetStore| {
            s.segments()
                .iter()
                .map(|g| *g.zone_map())
                .collect::<Vec<_>>()
        };
        let (len, seg_lens, zone_maps) = (s.len(), lens(&s), zones(&s));
        let expected = fnv1a(&frame) ^ 1;
        assert_eq!(
            s.append_raw_with_crc(&frame, expected),
            Err(CodecError::ChecksumMismatch {
                expected,
                actual: fnv1a(&frame)
            })
        );
        assert_eq!(s.len(), len);
        assert_eq!(lens(&s), seg_lens);
        assert_eq!(zones(&s), zone_maps);
        assert_eq!(s.scan().count(), len);
        // The right checksum still goes through.
        s.append_raw_with_crc(&frame, fnv1a(&frame)).unwrap();
        assert_eq!((s.len(), s.scan().count()), (len + 1, len + 1));
        assert_eq!(s.stats().gps_records, 1);
    }

    #[test]
    fn scan_views_agrees_with_scan() {
        let mut s = TweetStore::with_segment_bytes(1024);
        for i in 0..300 {
            s.append(&rec(
                i,
                i % 7,
                i * 30,
                (i % 4 == 0).then_some((35.1, 129.0)),
            ));
        }
        let full: Vec<TweetRecord> = s.scan().map(|r| r.unwrap()).collect();
        let via_views: Vec<TweetRecord> = s
            .scan_views()
            .map(|v| v.unwrap().to_record().unwrap())
            .collect();
        assert_eq!(full, via_views);
        let headers: Vec<_> = s.scan_headers().map(|h| h.unwrap()).collect();
        assert_eq!(headers, full.iter().map(|r| r.header()).collect::<Vec<_>>());
    }

    #[test]
    fn scan_order_is_append_order() {
        let mut s = TweetStore::with_segment_bytes(1024);
        for i in 0..500 {
            s.append(&rec(i, 0, 0, None));
        }
        let ids: Vec<u64> = s.scan().map(|r| r.unwrap().id).collect();
        assert_eq!(ids, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn v2_store_seals_columnar_and_answers_identically() {
        let mut v1 = TweetStore::with_segment_bytes(2048);
        let mut v2 = TweetStore::with_segment_bytes_and_format(2048, StoreFormat::V2);
        for i in 0..1200 {
            let r = rec(i, i % 11, i * 60, (i % 3 == 0).then_some((37.5, 127.0)));
            v1.append(&r);
            v2.append(&r);
        }
        assert_eq!(v1.stats(), v2.stats(), "stats are format-independent");
        assert!(
            v2.segments().iter().filter(|s| s.is_columnar()).count() > 0,
            "v2 store must seal columnar segments"
        );
        assert!(
            v1.segments().iter().all(|s| !s.is_columnar()),
            "v1 store stays rows"
        );
        // Same segment/slot geometry (roll thresholds are row bytes in
        // both), same answers via every access path.
        for (sa, sb) in v1.segments().iter().zip(v2.segments().iter()) {
            assert_eq!(sa.len(), sb.len());
            assert_eq!(sa.zone_map(), sb.zone_map());
        }
        for i in 0..1200 {
            assert_eq!(v1.get_by_id(i), v2.get_by_id(i));
        }
        let a: Vec<TweetRecord> = v1.scan().map(|r| r.unwrap()).collect();
        let b: Vec<TweetRecord> = v2.scan().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_store_after_format_switch() {
        let mut s = TweetStore::with_segment_bytes(2048);
        for i in 0..600 {
            s.append(&rec(i, i % 5, i, None));
        }
        s.set_format(StoreFormat::V2);
        for i in 600..1200 {
            s.append(&rec(i, i % 5, i, None));
        }
        let segs = s.segments();
        assert!(segs.iter().any(|s| s.is_columnar()));
        assert!(segs.iter().any(|s| !s.is_columnar()));
        assert_eq!(s.scan().filter(|r| r.is_ok()).count(), 1200);
        for i in 0..1200 {
            assert_eq!(s.get_by_id(i).unwrap().id, i);
        }
    }
}
