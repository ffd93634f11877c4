//! Binary encoding of tweet records.
//!
//! Layout (all integers varint unless noted):
//!
//! ```text
//! id · user · timestamp · flags(u8) · [lat_e6: i32 LE · lon_e6: i32 LE] ·
//! text_len · text_bytes
//! ```
//!
//! GPS coordinates are fixed-point micro-degrees (`i32`), ~11 cm of
//! resolution — far beyond GPS accuracy — in 8 bytes instead of 16.
//!
//! There is one record encoder, `encode_parts`: it writes the fixed
//! fields into a stack buffer and hands the buffer and the text to the
//! sink as two slices. [`encode_record`], the WAL, the store and the
//! sharded bulk ingest all go through it.

use bytes::{Buf, BufMut};
use stir_geoindex::Point;

use crate::segment::quantize_e6;

/// Flag bit: record carries GPS coordinates.
const FLAG_GPS: u8 = 0b0000_0001;

/// A stored tweet.
#[derive(Clone, Debug, PartialEq)]
pub struct TweetRecord {
    /// Tweet id.
    pub id: u64,
    /// Author user id.
    pub user: u64,
    /// Seconds since the collection-window epoch.
    pub timestamp: u64,
    /// GPS coordinates, if the client attached them.
    pub gps: Option<Point>,
    /// Tweet text (may be empty).
    pub text: String,
}

/// Encoding/decoding errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-record.
    UnexpectedEof,
    /// Varint longer than 10 bytes.
    VarintOverflow,
    /// Text bytes were not valid UTF-8.
    BadUtf8,
    /// GPS coordinates outside the valid latitude/longitude ranges —
    /// only possible on corrupted input.
    InvalidCoordinate,
    /// Checksum mismatch on a framed segment (see [`crate::segment`]).
    ChecksumMismatch {
        /// Expected checksum from the frame header.
        expected: u32,
        /// Checksum computed over the payload.
        actual: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in text"),
            CodecError::InvalidCoordinate => write!(f, "GPS coordinate out of range"),
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:08x}, got {actual:08x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT: usize = 10;

/// Longest record header: three varints, the flag byte, two `i32`
/// coordinates and the text-length varint.
const MAX_HEADER: usize = 3 * MAX_VARINT + 1 + 8 + MAX_VARINT;

/// Writes `v` as a LEB128 varint into `out` at `at`; returns the index
/// just past it.
#[inline]
fn write_varint(out: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Writes a LEB128 varint.
pub fn put_varint<B: BufMut>(buf: &mut B, v: u64) {
    let mut bytes = [0u8; MAX_VARINT];
    let len = write_varint(&mut bytes, 0, v);
    buf.put_slice(&bytes[..len]);
}

/// Reads a LEB128 varint.
pub fn get_varint<B: Buf>(buf: &mut B) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encodes one record onto `buf`.
pub fn encode_record<B: BufMut>(buf: &mut B, rec: &TweetRecord) {
    encode_parts(
        buf,
        rec.id,
        rec.user,
        rec.timestamp,
        rec.gps.map(quantize_e6),
        rec.text.as_bytes(),
    );
}

/// The point the codec keeps for `p`: each coordinate rounded to the
/// nearest micro-degree, exactly as [`encode_record`] writes it and
/// [`decode_record`] reads it back. The analysis engines geocode this
/// point rather than the raw fix, so a fix fed from rows and the same fix
/// read back from a store resolve alike. Idempotent: a decoded point maps
/// to itself.
pub fn canonical_point(p: Point) -> Point {
    let (lat_e6, lon_e6) = quantize_e6(p);
    Point::new(lat_e6 as f64 / 1e6, lon_e6 as f64 / 1e6)
}

/// Encodes one record onto `buf` from its parts, the GPS fix already
/// quantized to µ° — the one record encoder. The fixed fields go through
/// one stack buffer, so the sink sees two `put_slice` calls: the header
/// and the text. The columnar→row conversion calls it with a segment's
/// stored µ° integers, so no float round-trip can perturb them.
pub(crate) fn encode_parts<B: BufMut>(
    buf: &mut B,
    id: u64,
    user: u64,
    timestamp: u64,
    gps_e6: Option<(i32, i32)>,
    text: &[u8],
) {
    let mut head = [0u8; MAX_HEADER];
    let mut at = write_varint(&mut head, 0, id);
    at = write_varint(&mut head, at, user);
    at = write_varint(&mut head, at, timestamp);
    match gps_e6 {
        Some((lat_e6, lon_e6)) => {
            head[at] = FLAG_GPS;
            head[at + 1..at + 5].copy_from_slice(&lat_e6.to_le_bytes());
            head[at + 5..at + 9].copy_from_slice(&lon_e6.to_le_bytes());
            at += 9;
        }
        None => at += 1, // flag byte 0
    }
    at = write_varint(&mut head, at, text.len() as u64);
    buf.put_slice(&head[..at]);
    buf.put_slice(text);
}

/// Zigzag-encodes a signed delta so small magnitudes stay small varints.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Decodes one record from `buf`, advancing it.
pub fn decode_record<B: Buf>(buf: &mut B) -> Result<TweetRecord, CodecError> {
    let id = get_varint(buf)?;
    let user = get_varint(buf)?;
    let timestamp = get_varint(buf)?;
    if !buf.has_remaining() {
        return Err(CodecError::UnexpectedEof);
    }
    let flags = buf.get_u8();
    let gps = if flags & FLAG_GPS != 0 {
        if buf.remaining() < 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let lat = buf.get_i32_le() as f64 / 1e6;
        let lon = buf.get_i32_le() as f64 / 1e6;
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
            return Err(CodecError::InvalidCoordinate);
        }
        Some(Point::new(lat, lon))
    } else {
        None
    };
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(CodecError::UnexpectedEof);
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    let text = String::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
    Ok(TweetRecord {
        id,
        user,
        timestamp,
        gps,
        text,
    })
}

/// The fixed fields of a stored tweet, decoded without touching the text.
///
/// This is the first phase of the two-phase decode: everything a query
/// predicate can test (id, user, timestamp, GPS) costs a header decode
/// only; the text `String` — the one heap allocation in
/// [`decode_record`] — is deferred until a consumer actually asks for it
/// through [`TweetView::text`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TweetHeader {
    /// Tweet id.
    pub id: u64,
    /// Author user id.
    pub user: u64,
    /// Seconds since the collection-window epoch.
    pub timestamp: u64,
    /// GPS coordinates, if the client attached them.
    pub gps: Option<Point>,
}

impl TweetRecord {
    /// The record's fixed fields as a [`TweetHeader`].
    pub fn header(&self) -> TweetHeader {
        TweetHeader {
            id: self.id,
            user: self.user,
            timestamp: self.timestamp,
            gps: self.gps,
        }
    }
}

/// A borrowed, lazily-decoded record over a segment buffer.
///
/// The header is decoded eagerly; the text stays a borrowed byte slice
/// into the segment until [`TweetView::text`] validates it (zero-copy) or
/// [`TweetView::to_record`] materializes an owned [`TweetRecord`].
#[derive(Clone, Copy, Debug)]
pub struct TweetView<'a> {
    /// The decoded fixed fields.
    pub header: TweetHeader,
    text_bytes: &'a [u8],
    header_len: usize,
}

impl<'a> TweetView<'a> {
    /// Builds a view from already-decoded parts — the columnar segment's
    /// view path, where the header lives in column arrays and the text is
    /// a slice of the segment's concatenated text region. `header_len` is
    /// the *charged* header width (what a bytes-decoded metric should
    /// count), not a row-frame offset.
    pub(crate) fn from_parts(header: TweetHeader, text_bytes: &'a [u8], header_len: usize) -> Self {
        TweetView {
            header,
            text_bytes,
            header_len,
        }
    }

    /// The tweet text, UTF-8 validated in place — no copy, no allocation.
    pub fn text(&self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.text_bytes).map_err(|_| CodecError::BadUtf8)
    }

    /// The raw text bytes (not yet UTF-8 validated).
    pub fn raw_text(&self) -> &'a [u8] {
        self.text_bytes
    }

    /// Encoded size of the fixed fields plus the text-length prefix.
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// Total encoded size of the record.
    pub fn frame_len(&self) -> usize {
        self.header_len + self.text_bytes.len()
    }

    /// Materializes an owned [`TweetRecord`] (validates and copies the
    /// text — the only allocating step of the two-phase decode).
    pub fn to_record(&self) -> Result<TweetRecord, CodecError> {
        Ok(TweetRecord {
            id: self.header.id,
            user: self.header.user,
            timestamp: self.header.timestamp,
            gps: self.header.gps,
            text: self.text()?.to_owned(),
        })
    }
}

/// Reads a LEB128 varint from `buf` starting at `*at`, advancing it.
pub(crate) fn get_varint_at(buf: &[u8], at: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*at) else {
            return Err(CodecError::UnexpectedEof);
        };
        *at += 1;
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decodes the fixed fields of the record at the start of `buf` plus the
/// byte range of its text, without touching the text bytes.
fn decode_fixed(buf: &[u8]) -> Result<(TweetHeader, usize, usize), CodecError> {
    let mut at = 0usize;
    let id = get_varint_at(buf, &mut at)?;
    let user = get_varint_at(buf, &mut at)?;
    let timestamp = get_varint_at(buf, &mut at)?;
    let Some(&flags) = buf.get(at) else {
        return Err(CodecError::UnexpectedEof);
    };
    at += 1;
    let gps = if flags & FLAG_GPS != 0 {
        let Some(bytes) = buf.get(at..at + 8) else {
            return Err(CodecError::UnexpectedEof);
        };
        at += 8;
        let lat = i32::from_le_bytes(bytes[0..4].try_into().unwrap()) as f64 / 1e6;
        let lon = i32::from_le_bytes(bytes[4..8].try_into().unwrap()) as f64 / 1e6;
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
            return Err(CodecError::InvalidCoordinate);
        }
        Some(Point::new(lat, lon))
    } else {
        None
    };
    let text_len = get_varint_at(buf, &mut at)? as usize;
    if buf.len().saturating_sub(at) < text_len {
        return Err(CodecError::UnexpectedEof);
    }
    Ok((
        TweetHeader {
            id,
            user,
            timestamp,
            gps,
        },
        at,
        text_len,
    ))
}

/// Phase-one decode: the fixed fields of the record at the start of `buf`,
/// plus the record's total encoded length. The text bytes are bounds-checked
/// but never read.
pub fn decode_header(buf: &[u8]) -> Result<(TweetHeader, usize), CodecError> {
    let (header, text_start, text_len) = decode_fixed(buf)?;
    Ok((header, text_start + text_len))
}

/// Decodes a [`TweetView`] over the record at the start of `buf`: the
/// header eagerly, the text as a borrowed slice.
pub fn decode_view(buf: &[u8]) -> Result<TweetView<'_>, CodecError> {
    let (header, text_start, text_len) = decode_fixed(buf)?;
    Ok(TweetView {
        header,
        text_bytes: &buf[text_start..text_start + text_len],
        header_len: text_start,
    })
}

/// FNV-1a 32-bit checksum, used for segment framing.
pub fn fnv1a(data: &[u8]) -> u32 {
    let mut hash = 0x811C_9DC5u32;
    for &b in data {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    /// The per-byte encoder the stack-buffer one replaced, kept as the
    /// reference: one `put_u8` per varint byte and per fixed field.
    fn reference_put_varint<B: BufMut>(buf: &mut B, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                buf.put_u8(byte);
                return;
            }
            buf.put_u8(byte | 0x80);
        }
    }

    fn reference_encode_record<B: BufMut>(buf: &mut B, rec: &TweetRecord) {
        reference_put_varint(buf, rec.id);
        reference_put_varint(buf, rec.user);
        reference_put_varint(buf, rec.timestamp);
        match rec.gps {
            Some(p) => {
                let (lat_e6, lon_e6) = quantize_e6(p);
                buf.put_u8(FLAG_GPS);
                buf.put_i32_le(lat_e6);
                buf.put_i32_le(lon_e6);
            }
            None => buf.put_u8(0),
        }
        reference_put_varint(buf, rec.text.len() as u64);
        buf.put_slice(rec.text.as_bytes());
    }

    /// 0, `u64::MAX`, 2^63, and both sides of every varint length step
    /// (2^7k − 1 and 2^7k).
    fn varint_boundaries() -> Vec<u64> {
        let mut edges = vec![0, u64::MAX, 1 << 63];
        for k in 1..=9 {
            edges.extend([(1u64 << (7 * k)) - 1, 1 << (7 * k)]);
        }
        edges
    }

    /// A boundary value about half the time, otherwise a random value of
    /// random width.
    fn varint() -> impl Strategy<Value = u64> {
        (0usize..42, any::<u64>(), 0u32..64).prop_map(|(pick, random, shift)| {
            varint_boundaries()
                .get(pick)
                .copied()
                .unwrap_or(random >> shift)
        })
    }

    /// No fix, a random one, a corner of the coordinate range, or a
    /// south-western one.
    fn gps() -> impl Strategy<Value = Option<Point>> {
        (
            0u8..4,
            -90.0f64..=90.0,
            -180.0f64..=180.0,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(kind, lat, lon, north, east)| match kind {
                0 => None,
                1 => Some(Point::new(lat, lon)),
                2 => Some(Point::new(
                    if north { 90.0 } else { -90.0 },
                    if east { 180.0 } else { -180.0 },
                )),
                _ => Some(Point::new(-lat.abs(), -lon.abs())),
            })
    }

    /// Empty, short printable (ASCII and multi-byte), or longer than 127
    /// bytes in one or three bytes a character.
    fn text() -> impl Strategy<Value = String> {
        (0u8..4, "\\PC{0,60}", "[a-z]{128,200}", "[가-힣]{43,80}").prop_map(
            |(kind, short, ascii, hangul)| match kind {
                0 => String::new(),
                1 => short,
                2 => ascii,
                _ => hangul,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn encode_record_equals_the_per_byte_reference(
            id in varint(),
            user in varint(),
            timestamp in varint(),
            gps in gps(),
            text in text(),
        ) {
            let rec = TweetRecord { id, user, timestamp, gps, text };
            // A non-empty sink: the encoder must append, not overwrite.
            let (mut got, mut want) = (vec![0xAB], vec![0xAB]);
            encode_record(&mut got, &rec);
            reference_encode_record(&mut want, &rec);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn put_varint_equals_the_per_byte_reference(v in varint()) {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            put_varint(&mut got, v);
            reference_put_varint(&mut want, v);
            prop_assert_eq!(got, want);
        }
    }

    fn sample(gps: bool) -> TweetRecord {
        TweetRecord {
            id: 123_456_789,
            user: 42,
            timestamp: 86_400,
            gps: gps.then(|| Point::new(37.5663, 126.9779)),
            text: "just arrived in Jung-gu ㅋㅋ".into(),
        }
    }

    #[test]
    fn roundtrip_with_and_without_gps() {
        for gps in [true, false] {
            let rec = sample(gps);
            let mut buf = BytesMut::new();
            encode_record(&mut buf, &rec);
            let mut slice = buf.freeze();
            let back = decode_record(&mut slice).unwrap();
            assert_eq!(back.id, rec.id);
            assert_eq!(back.user, rec.user);
            assert_eq!(back.timestamp, rec.timestamp);
            assert_eq!(back.text, rec.text);
            match (back.gps, rec.gps) {
                (Some(a), Some(b)) => {
                    assert!((a.lat - b.lat).abs() < 1e-6);
                    assert!((a.lon - b.lon).abs() < 1e-6);
                }
                (None, None) => {}
                other => panic!("gps mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn empty_text_roundtrips() {
        let rec = TweetRecord {
            id: 0,
            user: 0,
            timestamp: 0,
            gps: None,
            text: String::new(),
        };
        let mut buf = BytesMut::new();
        encode_record(&mut buf, &rec);
        let mut slice = buf.freeze();
        assert_eq!(decode_record(&mut slice).unwrap(), rec);
    }

    #[test]
    fn varint_roundtrips_extremes() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice = buf.freeze();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_is_eof() {
        let rec = sample(true);
        let mut buf = BytesMut::new();
        encode_record(&mut buf, &rec);
        let full = buf.freeze();
        for cut in [0, 1, 3, full.len() / 2, full.len() - 1] {
            let mut slice = full.slice(..cut);
            assert!(decode_record(&mut slice).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn negative_coordinates_roundtrip() {
        let rec = TweetRecord {
            id: 1,
            user: 2,
            timestamp: 3,
            gps: Some(Point::new(-33.8688, -151.2093 + 300.0)), // lon must be in range
            text: String::new(),
        };
        let mut buf = BytesMut::new();
        encode_record(&mut buf, &rec);
        let mut slice = buf.freeze();
        let back = decode_record(&mut slice).unwrap();
        assert!((back.gps.unwrap().lat - -33.8688).abs() < 1e-6);
    }

    #[test]
    fn canonical_point_is_what_a_decode_returns_and_is_idempotent() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let lat = 32.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 8.0;
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let lon = -180.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 360.0;
            let rec = TweetRecord {
                id: 1,
                user: 1,
                timestamp: 1,
                gps: Some(Point::new(lat, lon)),
                text: String::new(),
            };
            let mut buf = BytesMut::new();
            encode_record(&mut buf, &rec);
            let decoded = decode_record(&mut buf.freeze()).unwrap().gps.unwrap();
            let canonical = canonical_point(Point::new(lat, lon));
            assert_eq!(canonical, decoded);
            assert_eq!(canonical_point(canonical), canonical);
        }
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0x811C_9DC5);
        assert_eq!(fnv1a(b"a"), 0xE40C_292C);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"acb"));
    }

    #[test]
    fn gps_resolution_is_sub_meter() {
        let p = Point::new(37.123456789, 127.987654321);
        let rec = TweetRecord {
            id: 1,
            user: 1,
            timestamp: 1,
            gps: Some(p),
            text: String::new(),
        };
        let mut buf = BytesMut::new();
        encode_record(&mut buf, &rec);
        let mut slice = buf.freeze();
        let back = decode_record(&mut slice).unwrap().gps.unwrap();
        assert!(
            p.haversine_km(back) < 0.0002,
            "error {} km",
            p.haversine_km(back)
        );
    }
}
