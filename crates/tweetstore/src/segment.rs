//! Append-only segments.
//!
//! A segment is a byte buffer of concatenated encoded records plus a slot
//! table (byte offset per record). Sealed segments are immutable; the store
//! rolls to a new active segment at a size threshold. Framing for
//! persistence adds an FNV-1a checksum over the payload.

use bytes::BytesMut;

use crate::codec::{
    decode_header, decode_record, decode_view, encode_record, fnv1a, CodecError, TweetHeader,
    TweetRecord, TweetView,
};

/// Default segment roll threshold (bytes of encoded records).
pub const DEFAULT_SEGMENT_BYTES: usize = 4 << 20;

/// Quantizes a coordinate pair to the fixed-point micro-degree grid the
/// codec stores (each coordinate rounded to the nearest µ°). Zone-map GPS
/// bounds MUST be tracked on this grid — raw `f64` bounds could disagree
/// with decoded points by up to half a micro-degree and prune a segment
/// that actually matches.
pub fn quantize_e6(p: stir_geoindex::Point) -> (i32, i32) {
    ((p.lat * 1e6).round() as i32, (p.lon * 1e6).round() as i32)
}

/// Per-segment statistics maintained at append time and consulted by the
/// query planner to skip segments that cannot match a predicate.
///
/// Invariants (for every record in the owning segment):
/// - `records` equals the segment's slot count;
/// - `min_ts ..= max_ts` and `min_user ..= max_user` bound every record's
///   timestamp and user id;
/// - `gps_records` counts records with GPS, and the `*_e6` fields bound
///   their coordinates on the codec's micro-degree grid (the exact values
///   a decode returns, not the pre-quantization floats).
///
/// An empty zone map keeps inverted sentinels (`min_* = MAX`, `max_* = 0`)
/// so that `observe` is branch-free on the first record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneMap {
    /// Records in the segment.
    pub records: u32,
    /// Minimum timestamp over all records.
    pub min_ts: u64,
    /// Maximum timestamp over all records.
    pub max_ts: u64,
    /// Minimum user id over all records.
    pub min_user: u64,
    /// Maximum user id over all records.
    pub max_user: u64,
    /// Records carrying GPS.
    pub gps_records: u32,
    /// Minimum latitude in micro-degrees over GPS records.
    pub min_lat_e6: i32,
    /// Maximum latitude in micro-degrees over GPS records.
    pub max_lat_e6: i32,
    /// Minimum longitude in micro-degrees over GPS records.
    pub min_lon_e6: i32,
    /// Maximum longitude in micro-degrees over GPS records.
    pub max_lon_e6: i32,
}

impl Default for ZoneMap {
    fn default() -> Self {
        ZoneMap {
            records: 0,
            min_ts: u64::MAX,
            max_ts: 0,
            min_user: u64::MAX,
            max_user: 0,
            gps_records: 0,
            min_lat_e6: i32::MAX,
            max_lat_e6: i32::MIN,
            min_lon_e6: i32::MAX,
            max_lon_e6: i32::MIN,
        }
    }
}

impl ZoneMap {
    /// Folds one record's header into the statistics.
    pub(crate) fn observe(&mut self, h: &TweetHeader) {
        self.records += 1;
        self.min_ts = self.min_ts.min(h.timestamp);
        self.max_ts = self.max_ts.max(h.timestamp);
        self.min_user = self.min_user.min(h.user);
        self.max_user = self.max_user.max(h.user);
        if let Some(p) = h.gps {
            let (lat, lon) = quantize_e6(p);
            self.gps_records += 1;
            self.min_lat_e6 = self.min_lat_e6.min(lat);
            self.max_lat_e6 = self.max_lat_e6.max(lat);
            self.min_lon_e6 = self.min_lon_e6.min(lon);
            self.max_lon_e6 = self.max_lon_e6.max(lon);
        }
    }

    /// Recomputes the zone map from a segment's records. Used to verify
    /// persisted statistics on load and rebuilt statistics in tests.
    pub fn compute(seg: &Segment) -> Result<ZoneMap, CodecError> {
        let mut zone = ZoneMap::default();
        for slot in 0..seg.len() as u32 {
            zone.observe(&seg.header(slot)?);
        }
        Ok(zone)
    }

    /// The GPS bounding box in degrees, if any record carries GPS.
    pub fn gps_bbox(&self) -> Option<stir_geoindex::BBox> {
        (self.gps_records > 0).then(|| {
            stir_geoindex::BBox::new(
                self.min_lat_e6 as f64 / 1e6,
                self.min_lon_e6 as f64 / 1e6,
                self.max_lat_e6 as f64 / 1e6,
                self.max_lon_e6 as f64 / 1e6,
            )
        })
    }
}

/// An append-only run of encoded records.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    data: BytesMut,
    offsets: Vec<u32>,
    zone: ZoneMap,
}

impl Segment {
    /// An empty segment.
    pub fn new() -> Self {
        Segment {
            data: BytesMut::with_capacity(64 * 1024),
            offsets: Vec::new(),
            zone: ZoneMap::default(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Encoded payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Appends a record; returns its slot.
    pub fn append(&mut self, rec: &TweetRecord) -> u32 {
        let slot = self.offsets.len() as u32;
        self.offsets.push(self.data.len() as u32);
        encode_record(&mut self.data, rec);
        self.zone.observe(&rec.header());
        slot
    }

    /// Appends an already-encoded record frame without decoding its text;
    /// returns the slot and the decoded header. The frame must be exactly
    /// one record — trailing bytes are rejected.
    pub fn append_raw_frame(&mut self, frame: &[u8]) -> Result<(u32, TweetHeader), CodecError> {
        let (header, consumed) = decode_header(frame)?;
        if consumed != frame.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let slot = self.offsets.len() as u32;
        self.offsets.push(self.data.len() as u32);
        self.data.extend_from_slice(frame);
        self.zone.observe(&header);
        Ok((slot, header))
    }

    /// The segment's zone map.
    pub fn zone_map(&self) -> &ZoneMap {
        &self.zone
    }

    /// Byte range of the record at `slot` within the payload.
    fn slot_range(&self, slot: u32) -> (usize, usize) {
        let start = self.offsets[slot as usize] as usize;
        let end = self
            .offsets
            .get(slot as usize + 1)
            .map_or(self.data.len(), |&o| o as usize);
        (start, end)
    }

    /// The raw encoded frame of the record at `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn raw(&self, slot: u32) -> &[u8] {
        let (start, end) = self.slot_range(slot);
        &self.data[start..end]
    }

    /// Decodes the record at `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range; corruption within a slot surfaces
    /// as a `CodecError`.
    pub fn get(&self, slot: u32) -> Result<TweetRecord, CodecError> {
        let mut slice = self.raw(slot);
        decode_record(&mut slice)
    }

    /// Header-only decode of the record at `slot` (phase one: no text).
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn header(&self, slot: u32) -> Result<TweetHeader, CodecError> {
        decode_header(self.raw(slot)).map(|(h, _)| h)
    }

    /// Borrowed view of the record at `slot`: header decoded, text lazy.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn view(&self, slot: u32) -> Result<TweetView<'_>, CodecError> {
        decode_view(self.raw(slot))
    }

    /// Iterates over all records in slot order.
    pub fn iter(&self) -> impl Iterator<Item = Result<TweetRecord, CodecError>> + '_ {
        (0..self.len() as u32).map(move |slot| self.get(slot))
    }

    /// Iterates over borrowed views in slot order.
    pub fn views(&self) -> impl Iterator<Item = Result<TweetView<'_>, CodecError>> + '_ {
        (0..self.len() as u32).map(move |slot| self.view(slot))
    }

    /// Serializes the segment with framing:
    /// `record_count(u32 LE) · payload_len(u32 LE) · checksum(u32 LE) ·
    /// offsets(u32 LE each) · payload`.
    pub fn to_framed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.offsets.len() * 4 + self.data.len());
        out.extend_from_slice(&(self.offsets.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.data).to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&self.data);
        out
    }

    /// Deserializes a framed segment, verifying the checksum.
    pub fn from_framed_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() < 12 {
            return Err(CodecError::UnexpectedEof);
        }
        let count = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let payload_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let expected = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let offsets_end = 12 + count * 4;
        if bytes.len() < offsets_end + payload_len {
            return Err(CodecError::UnexpectedEof);
        }
        let mut offsets = Vec::with_capacity(count);
        for i in 0..count {
            let at = 12 + i * 4;
            offsets.push(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()));
        }
        // The checksum below covers the payload only, so the offset table
        // must be validated independently: every offset in range and the
        // table monotone, or `raw()`'s slicing would panic on lookup.
        let mut prev = 0u32;
        for &o in &offsets {
            if o < prev || o as usize > payload_len {
                return Err(CodecError::UnexpectedEof);
            }
            prev = o;
        }
        let payload = &bytes[offsets_end..offsets_end + payload_len];
        let actual = fnv1a(payload);
        if actual != expected {
            return Err(CodecError::ChecksumMismatch { expected, actual });
        }
        let mut seg = Segment {
            data: BytesMut::from(payload),
            offsets,
            zone: ZoneMap::default(),
        };
        // Rebuild the zone map from headers. The checksum above guarantees
        // the payload is what was written, and writes only go through the
        // encoder — so a header that fails to decode means a crafted or
        // incoherent frame, which we reject outright rather than carry as
        // an unindexable slot.
        seg.zone = ZoneMap::compute(&seg)?;
        Ok(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_geoindex::Point;

    fn rec(id: u64) -> TweetRecord {
        TweetRecord {
            id,
            user: id % 7,
            timestamp: id * 11,
            gps: id
                .is_multiple_of(3)
                .then(|| Point::new(37.0 + id as f64 * 1e-4, 127.0)),
            text: format!("tweet number {id}"),
        }
    }

    #[test]
    fn append_get_roundtrip() {
        let mut s = Segment::new();
        for i in 0..100 {
            let slot = s.append(&rec(i));
            assert_eq!(slot, i as u32);
        }
        assert_eq!(s.len(), 100);
        for i in 0..100u32 {
            let r = s.get(i).unwrap();
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn iter_yields_in_order() {
        let mut s = Segment::new();
        for i in 0..20 {
            s.append(&rec(i));
        }
        let ids: Vec<u64> = s.iter().map(|r| r.unwrap().id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn framed_roundtrip() {
        let mut s = Segment::new();
        for i in 0..50 {
            s.append(&rec(i));
        }
        let framed = s.to_framed_bytes();
        let back = Segment::from_framed_bytes(&framed).unwrap();
        assert_eq!(back.len(), 50);
        for i in 0..50u32 {
            assert_eq!(back.get(i).unwrap(), s.get(i).unwrap());
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut s = Segment::new();
        for i in 0..10 {
            s.append(&rec(i));
        }
        let mut framed = s.to_framed_bytes();
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        match Segment::from_framed_bytes(&framed) {
            Err(CodecError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut s = Segment::new();
        s.append(&rec(1));
        let framed = s.to_framed_bytes();
        assert!(Segment::from_framed_bytes(&framed[..framed.len() - 2]).is_err());
        assert!(Segment::from_framed_bytes(&framed[..4]).is_err());
    }

    #[test]
    fn empty_segment_frames() {
        let s = Segment::new();
        let back = Segment::from_framed_bytes(&s.to_framed_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(*back.zone_map(), ZoneMap::default());
    }

    #[test]
    fn zone_map_tracks_appends() {
        let mut s = Segment::new();
        for i in 0..30 {
            s.append(&rec(i));
        }
        let z = *s.zone_map();
        assert_eq!(z.records, 30);
        assert_eq!(z.min_ts, 0);
        assert_eq!(z.max_ts, 29 * 11);
        assert_eq!(z.min_user, 0);
        assert_eq!(z.max_user, 6);
        assert_eq!(z.gps_records, 10); // ids 0, 3, 6, ... 27
        let bbox = z.gps_bbox().unwrap();
        assert!(bbox.contains(Point::new(37.0, 127.0)));
        assert!(bbox.contains(Point::new(37.0027, 127.0)));
        // Zone map matches a from-scratch recompute exactly.
        assert_eq!(z, ZoneMap::compute(&s).unwrap());
    }

    #[test]
    fn zone_map_rebuilt_on_load() {
        let mut s = Segment::new();
        for i in 0..40 {
            s.append(&rec(i));
        }
        let back = Segment::from_framed_bytes(&s.to_framed_bytes()).unwrap();
        assert_eq!(back.zone_map(), s.zone_map());
    }

    #[test]
    fn zone_map_gps_bounds_match_decoded_points() {
        // Bounds are tracked on the quantized grid, so every decoded GPS
        // point must fall inside the zone bbox exactly — no epsilon.
        let mut s = Segment::new();
        for i in 0..50u64 {
            s.append(&TweetRecord {
                id: i,
                user: 1,
                timestamp: i,
                gps: Some(Point::new(
                    37.0 + (i as f64) * 1e-7 * 3.0, // sub-micro-degree steps
                    127.0 - (i as f64) * 1e-7 * 7.0,
                )),
                text: String::new(),
            });
        }
        let bbox = s.zone_map().gps_bbox().unwrap();
        for r in s.iter() {
            let p = r.unwrap().gps.unwrap();
            assert!(
                bbox.contains(p),
                "decoded point {p:?} outside zone {bbox:?}"
            );
        }
    }

    #[test]
    fn append_raw_frame_is_byte_identical() {
        let mut src = Segment::new();
        for i in 0..20 {
            src.append(&rec(i));
        }
        let mut dst = Segment::new();
        for slot in 0..src.len() as u32 {
            let (new_slot, header) = dst.append_raw_frame(src.raw(slot)).unwrap();
            assert_eq!(new_slot, slot);
            assert_eq!(header, src.header(slot).unwrap());
            assert_eq!(dst.raw(new_slot), src.raw(slot));
        }
        assert_eq!(dst.zone_map(), src.zone_map());
        // Trailing bytes are rejected.
        let mut frame = src.raw(0).to_vec();
        frame.push(0);
        assert!(dst.append_raw_frame(&frame).is_err());
    }

    #[test]
    fn view_defers_text_decode() {
        let mut s = Segment::new();
        for i in 0..10 {
            s.append(&rec(i));
        }
        for slot in 0..10u32 {
            let view = s.view(slot).unwrap();
            let full = s.get(slot).unwrap();
            assert_eq!(view.header, full.header());
            assert_eq!(view.text().unwrap(), full.text);
            assert_eq!(view.frame_len(), s.raw(slot).len());
            assert!(view.header_len() < view.frame_len());
        }
    }
}
