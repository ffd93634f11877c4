//! Directory-based persistence: one framed file per segment plus a
//! manifest. Loading verifies checksums and rebuilds every index.
//!
//! Each segment file opens with a format magic — `STIRSEG1` for row
//! segments, `STIRSEG2` for columnar ones — and a mixed store persists
//! each sealed segment in its own encoding, so saving never converts.
//! The manifest opens with a version header (`STIRMAN\t3\t<v1|v2>`)
//! recording the store's target format; version-2 manifests (pre-sketch)
//! and headerless ones from before the header existed (all-row by
//! construction, target `v1`) still load.
//!
//! A columnar segment whose [`GroupSketch`] is in memory at save time
//! persists it as a sidecar block after the column region (see
//! [`crate::sketch`]). On load the sidecar is decoded leniently: a
//! tampered or truncated sketch is dropped — queries fall back to the
//! column scan — while corruption in the column region itself still
//! rejects the file.
//!
//! Each manifest segment line carries the segment's file name followed by
//! its [`ZoneMap`] statistics (tab-separated; GPS bounds in micro-degrees
//! so the round trip is exact). On load the zone map is rebuilt from the
//! segment's records and cross-checked against the manifest — a segment
//! file swapped for a different (but internally consistent) one is caught
//! even though its own checksum passes. Legacy manifests that list bare
//! file names still load; they simply skip the cross-check.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::codec::CodecError;
use crate::colseg::ColumnSegment;
use crate::segment::{Segment, ZoneMap, DEFAULT_SEGMENT_BYTES};
use crate::sketch::GroupSketch;
use crate::store::{SealedSegment, SegmentRef, StoreFormat, TweetStore};

/// Magic header of row-format segment files.
const MAGIC: &[u8; 8] = b"STIRSEG1";
/// Magic header of columnar segment files.
const MAGIC_COLS: &[u8; 8] = b"STIRSEG2";
/// Manifest file name.
const MANIFEST: &str = "MANIFEST";
/// First field of the manifest's version header line.
const MANIFEST_MAGIC: &str = "STIRMAN";
/// Current manifest version (3 = segment files may carry sketch
/// sidecars).
const MANIFEST_VERSION: &str = "3";
/// Manifest versions this build reads.
const MANIFEST_READABLE: [&str; 2] = ["2", "3"];

/// Persistence errors.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Segment file failed decoding or checksum verification.
    Corrupt(CodecError),
    /// File did not start with the segment magic.
    BadMagic,
    /// Manifest was missing or unreadable.
    BadManifest,
    /// A segment's rebuilt zone map disagreed with the manifest.
    ZoneMapMismatch(String),
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Corrupt(e)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Corrupt(e) => write!(f, "corrupt segment: {e}"),
            PersistError::BadMagic => write!(f, "bad segment magic"),
            PersistError::BadManifest => write!(f, "bad manifest"),
            PersistError::ZoneMapMismatch(name) => {
                write!(f, "zone map mismatch for segment {name}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Serializes a zone map as the manifest's tab-separated stat fields.
fn zone_to_fields(z: &ZoneMap) -> String {
    if z.records == 0 {
        // Sentinel bounds are meaningless when empty; persist just the count.
        return "0".to_string();
    }
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        z.records,
        z.min_ts,
        z.max_ts,
        z.min_user,
        z.max_user,
        z.gps_records,
        z.min_lat_e6,
        z.max_lat_e6,
        z.min_lon_e6,
        z.max_lon_e6
    )
}

/// Parses manifest stat fields back into a zone map. `None` means the
/// fields are malformed (a bad manifest, not a legacy one).
fn zone_from_fields(fields: &[&str]) -> Option<ZoneMap> {
    match fields {
        ["0"] => Some(ZoneMap::default()),
        [records, min_ts, max_ts, min_user, max_user, gps_records, min_lat, max_lat, min_lon, max_lon] => {
            Some(ZoneMap {
                records: records.parse().ok()?,
                min_ts: min_ts.parse().ok()?,
                max_ts: max_ts.parse().ok()?,
                min_user: min_user.parse().ok()?,
                max_user: max_user.parse().ok()?,
                gps_records: gps_records.parse().ok()?,
                min_lat_e6: min_lat.parse().ok()?,
                max_lat_e6: max_lat.parse().ok()?,
                min_lon_e6: min_lon.parse().ok()?,
                max_lon_e6: max_lon.parse().ok()?,
            })
        }
        _ => None,
    }
}

/// Writes the store to `dir` (created if absent): `seg-NNNN.stir` files and
/// a `MANIFEST` listing them in order, each with its zone-map statistics.
pub fn save(store: &TweetStore, dir: &Path) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    let segments = store.segments();
    let mut manifest = format!(
        "{MANIFEST_MAGIC}\t{MANIFEST_VERSION}\t{}\n",
        store.format().as_str()
    );
    for (i, seg) in segments.iter().enumerate() {
        let name = format!("seg-{i:04}.stir");
        let path = dir.join(&name);
        let mut f = fs::File::create(&path)?;
        match seg {
            SegmentRef::Rows(s) => {
                f.write_all(MAGIC)?;
                f.write_all(&s.to_framed_bytes())?;
            }
            SegmentRef::Cols(c) => {
                f.write_all(MAGIC_COLS)?;
                f.write_all(&c.encode())?;
                // Sketch sidecar: persisted only when already in memory
                // (a seal-time or on-demand build, or a sidecar loaded
                // earlier) — saving never forces a build.
                if let Some(sketch) = store.sketch_cached(i) {
                    f.write_all(&sketch.encode())?;
                }
            }
        }
        f.sync_all()?;
        manifest.push_str(&name);
        manifest.push('\t');
        manifest.push_str(&zone_to_fields(seg.zone_map()));
        manifest.push('\n');
    }
    fs::write(dir.join(MANIFEST), manifest)?;
    remove_stale(dir, "seg-", ".stir", segments.len())?;
    Ok(())
}

/// Deletes the `{prefix}N{suffix}` entries of `dir` numbered `live` or
/// higher: what an earlier save of a larger store left behind, which the
/// manifest just written no longer lists.
pub(crate) fn remove_stale(dir: &Path, prefix: &str, suffix: &str, live: usize) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let index = path.file_name().and_then(|n| n.to_str()).and_then(|n| {
            n.strip_prefix(prefix)?
                .strip_suffix(suffix)?
                .parse::<usize>()
                .ok()
        });
        if index.is_some_and(|i| i >= live) {
            if path.is_dir() {
                fs::remove_dir_all(&path)?;
            } else {
                fs::remove_file(&path)?;
            }
        }
    }
    Ok(())
}

/// Loads a store from `dir`, verifying every segment checksum and
/// rebuilding the indexes.
pub fn load(dir: &Path) -> Result<TweetStore, PersistError> {
    load_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
}

/// [`load`] with an explicit segment-roll threshold for the rebuilt store.
pub fn load_with_segment_bytes(
    dir: &Path,
    segment_bytes: usize,
) -> Result<TweetStore, PersistError> {
    let manifest = fs::read_to_string(dir.join(MANIFEST)).map_err(|_| PersistError::BadManifest)?;
    let mut lines = manifest.lines().filter(|l| !l.is_empty()).peekable();
    // Versioned manifests lead with `STIRMAN\t<version>\t<format>`;
    // headerless ones predate columnar segments and target v1.
    let format = match lines.peek() {
        Some(first) if first.starts_with(MANIFEST_MAGIC) => {
            let fields: Vec<&str> = first.split('\t').collect();
            if fields.len() != 3
                || fields[0] != MANIFEST_MAGIC
                || !MANIFEST_READABLE.contains(&fields[1])
            {
                return Err(PersistError::BadManifest);
            }
            let format = StoreFormat::parse(fields[2]).ok_or(PersistError::BadManifest)?;
            lines.next();
            format
        }
        _ => StoreFormat::V1,
    };
    let mut segments = Vec::new();
    for line in lines {
        let mut fields = line.split('\t');
        let name = fields.next().ok_or(PersistError::BadManifest)?;
        let stat_fields: Vec<&str> = fields.collect();
        let expected_zone = if stat_fields.is_empty() {
            None // legacy manifest: bare file name, no stats to verify
        } else {
            Some(zone_from_fields(&stat_fields).ok_or(PersistError::BadManifest)?)
        };
        let mut f = fs::File::open(dir.join(name))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        // Dispatch on the per-file magic — a mixed store round-trips each
        // segment in the encoding it was sealed with.
        let (seg, sketch) = if bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC {
            (
                SealedSegment::Rows(Segment::from_framed_bytes(&bytes[MAGIC.len()..])?),
                None,
            )
        } else if bytes.len() >= MAGIC_COLS.len() && &bytes[..MAGIC_COLS.len()] == MAGIC_COLS {
            let (cols, consumed) = ColumnSegment::decode_prefix(&bytes[MAGIC_COLS.len()..])?;
            // Anything after the column region is the optional sketch
            // sidecar. It is decoded leniently: a damaged sidecar is
            // dropped (queries fall back to scanning) rather than
            // rejecting the otherwise-intact segment.
            let rest = &bytes[MAGIC_COLS.len() + consumed..];
            let sketch = if rest.is_empty() {
                None
            } else {
                GroupSketch::decode(rest).ok()
            };
            (SealedSegment::Cols(cols), sketch)
        } else {
            return Err(PersistError::BadMagic);
        };
        // Decoding rebuilt the zone map from the payload; it must agree
        // with what the manifest promised.
        if let Some(expected) = expected_zone {
            if *seg.as_ref().zone_map() != expected {
                return Err(PersistError::ZoneMapMismatch(name.to_string()));
            }
        }
        segments.push((seg, sketch));
    }
    Ok(TweetStore::from_sealed_with_sketches(
        segments,
        segment_bytes,
        format,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TweetRecord;
    use crate::query::Query;
    use stir_geoindex::Point;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stir-tweetstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn populated() -> TweetStore {
        let mut s = TweetStore::with_segment_bytes(4096);
        for i in 0..1000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 11,
                timestamp: i * 17,
                gps: (i % 4 == 0).then(|| Point::new(36.0 + (i as f64) * 1e-3 % 2.0, 127.5)),
                text: format!("tweet {i}"),
            });
        }
        s
    }

    #[test]
    fn save_load_roundtrip_preserves_queries() {
        let dir = tmpdir("roundtrip");
        let s = populated();
        save(&s, &dir).unwrap();
        let loaded = load_with_segment_bytes(&dir, 4096).unwrap();
        assert_eq!(loaded.len(), s.len());
        assert_eq!(loaded.stats().gps_records, s.stats().gps_records);
        let a = Query::all().user(3).execute(&s);
        let b = Query::all().user(3).execute(&loaded);
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A store whose segment list (active tail included) is `n` long.
    fn with_segments(n: usize, first_id: u64) -> TweetStore {
        let mut s = TweetStore::with_segment_bytes(1024);
        for id in first_id.. {
            if s.segments().len() == n {
                break;
            }
            s.append(&TweetRecord {
                id,
                user: id % 7,
                timestamp: id,
                gps: None,
                text: format!("resave {id}"),
            });
        }
        s
    }

    #[test]
    fn resaving_a_smaller_store_removes_stale_segment_files() {
        let dir = tmpdir("resave");
        save(&with_segments(5, 0), &dir).unwrap();
        let second = with_segments(2, 10_000);
        save(&second, &dir).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["MANIFEST", "seg-0000.stir", "seg-0001.stir"]);
        let loaded = load_with_segment_bytes(&dir, 1024).unwrap();
        assert_eq!(loaded.stats(), second.stats());
        let ids = |s: &TweetStore| s.scan().map(|r| r.unwrap()).collect::<Vec<_>>();
        assert_eq!(ids(&loaded), ids(&second));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_file_is_rejected() {
        let dir = tmpdir("corrupt");
        save(&populated(), &dir).unwrap();
        // Flip a byte in the first segment's payload.
        let seg_path = dir.join("seg-0000.stir");
        let mut bytes = fs::read(&seg_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        fs::write(&seg_path, bytes).unwrap();
        match load(&dir) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {:?}", other.map(|s| s.len())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zone_maps_round_trip_through_manifest() {
        let dir = tmpdir("zonemap");
        let s = populated();
        save(&s, &dir).unwrap();
        let loaded = load_with_segment_bytes(&dir, 4096).unwrap();
        // Loaded zone maps equal both the source's and an independent
        // recompute — exact, including the micro-degree GPS bounds.
        for (a, b) in s.segments().iter().zip(loaded.segments().iter()) {
            assert_eq!(a.zone_map(), b.zone_map());
            let rows = b.as_rows().expect("v1 store is all row segments");
            assert_eq!(*b.zone_map(), ZoneMap::compute(rows).unwrap());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_manifest_zone_map_is_rejected() {
        let dir = tmpdir("zonetamper");
        save(&populated(), &dir).unwrap();
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        // Corrupt the record count of the first segment's stats (line 0 is
        // the version header; segment lines start at 1).
        let mut lines: Vec<String> = manifest.lines().map(str::to_string).collect();
        let mut fields: Vec<String> = lines[1].split('\t').map(str::to_string).collect();
        fields[1] = "99999".to_string();
        lines[1] = fields.join("\t");
        fs::write(dir.join(MANIFEST), lines.join("\n")).unwrap();
        assert!(matches!(
            load(&dir),
            Err(PersistError::ZoneMapMismatch(name)) if name == "seg-0000.stir"
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_bare_name_manifest_still_loads() {
        let dir = tmpdir("legacy");
        let s = populated();
        save(&s, &dir).unwrap();
        // Strip the stats columns and the version header: a manifest from
        // before zone maps and formats.
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let bare: String = manifest
            .lines()
            .filter(|l| !l.starts_with(MANIFEST_MAGIC))
            .map(|l| l.split('\t').next().unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        fs::write(dir.join(MANIFEST), bare).unwrap();
        let loaded = load_with_segment_bytes(&dir, 4096).unwrap();
        assert_eq!(loaded.len(), s.len());
        // Zone maps are still rebuilt from the payload on load.
        for (a, b) in s.segments().iter().zip(loaded.segments().iter()) {
            assert_eq!(a.zone_map(), b.zone_map());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbled_manifest_stats_are_rejected() {
        let dir = tmpdir("garbled");
        save(&populated(), &dir).unwrap();
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        // Garble a stats field on the first *segment* line (the header
        // line is checked separately below).
        let mut lines: Vec<String> = manifest.lines().map(str::to_string).collect();
        lines[1] = lines[1].replacen('\t', "\tnot-a-number\t", 1);
        fs::write(dir.join(MANIFEST), lines.join("\n")).unwrap();
        assert!(matches!(load(&dir), Err(PersistError::BadManifest)));
        // A garbled header is rejected too.
        let mut lines: Vec<String> = manifest.lines().map(str::to_string).collect();
        lines[0] = format!("{MANIFEST_MAGIC}\tnot-a-version\tv1");
        fs::write(dir.join(MANIFEST), lines.join("\n")).unwrap();
        assert!(matches!(load(&dir), Err(PersistError::BadManifest)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_store_roundtrips_with_columnar_files() {
        let dir = tmpdir("v2roundtrip");
        let mut s = TweetStore::with_segment_bytes_and_format(4096, StoreFormat::V2);
        for i in 0..1000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 11,
                timestamp: i * 17,
                gps: (i % 4 == 0).then(|| Point::new(36.0 + (i as f64) * 1e-3 % 2.0, 127.5)),
                text: format!("tweet {i}"),
            });
        }
        save(&s, &dir).unwrap();
        // At least one persisted file is columnar (STIRSEG2 magic).
        let col_files = (0..)
            .map_while(|i| fs::read(dir.join(format!("seg-{i:04}.stir"))).ok())
            .filter(|b| b.starts_with(b"STIRSEG2"))
            .count();
        assert!(col_files > 0, "v2 store must persist STIRSEG2 files");
        let loaded = load_with_segment_bytes(&dir, 4096).unwrap();
        assert_eq!(loaded.format(), StoreFormat::V2);
        assert_eq!(loaded.len(), s.len());
        assert_eq!(
            loaded.segments().iter().filter(|g| g.is_columnar()).count(),
            s.segments().iter().filter(|g| g.is_columnar()).count(),
            "sealed-segment encodings must survive the round trip"
        );
        let a: Vec<TweetRecord> = s.scan().map(|r| r.unwrap()).collect();
        let b: Vec<TweetRecord> = loaded.scan().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
        assert_eq!(
            Query::all().user(3).execute(&s),
            Query::all().user(3).execute(&loaded)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_store_roundtrips_each_segment_in_its_own_encoding() {
        let dir = tmpdir("mixedroundtrip");
        let mut s = TweetStore::with_segment_bytes(4096);
        for i in 0..500u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 7,
                timestamp: i * 13,
                gps: None,
                text: format!("row-era tweet {i}"),
            });
        }
        s.set_format(StoreFormat::V2);
        for i in 500..1000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 7,
                timestamp: i * 13,
                gps: Some(Point::new(37.0, 127.0)),
                text: format!("column-era tweet {i}"),
            });
        }
        let rows_before = s.segments().iter().filter(|g| !g.is_columnar()).count();
        let cols_before = s.segments().iter().filter(|g| g.is_columnar()).count();
        assert!(rows_before > 0 && cols_before > 0, "fixture must be mixed");
        save(&s, &dir).unwrap();
        let loaded = load_with_segment_bytes(&dir, 4096).unwrap();
        assert_eq!(loaded.format(), StoreFormat::V2);
        assert_eq!(
            loaded
                .segments()
                .iter()
                .filter(|g| !g.is_columnar())
                .count(),
            rows_before
        );
        assert_eq!(
            loaded.segments().iter().filter(|g| g.is_columnar()).count(),
            cols_before
        );
        let a: Vec<TweetRecord> = s.scan().map(|r| r.unwrap()).collect();
        let b: Vec<TweetRecord> = loaded.scan().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_columnar_file_is_rejected() {
        let dir = tmpdir("v2corrupt");
        let mut s = TweetStore::with_segment_bytes_and_format(4096, StoreFormat::V2);
        for i in 0..1000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 11,
                timestamp: i * 17,
                gps: (i % 4 == 0).then(|| Point::new(36.5, 127.5)),
                text: format!("tweet {i}"),
            });
        }
        save(&s, &dir).unwrap();
        let seg_path = dir.join("seg-0000.stir");
        let mut bytes = fs::read(&seg_path).unwrap();
        assert!(bytes.starts_with(b"STIRSEG2"));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        fs::write(&seg_path, bytes).unwrap();
        match load(&dir) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected corrupt, got {:?}", other.map(|s| s.len())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Test resolver: district = whole-degree latitude band.
    struct Bands;
    impl crate::sketch::SketchResolver for Bands {
        fn fingerprint(&self) -> u64 {
            0x5EED
        }
        fn resolve(&self, lat: f64, _lon: f64) -> Option<u32> {
            Some(lat as u32)
        }
    }

    fn populated_v2_with_sketches() -> TweetStore {
        let mut s = TweetStore::with_segment_bytes_and_format(4096, StoreFormat::V2);
        s.set_sketcher(std::sync::Arc::new(Bands));
        for i in 0..1000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 11,
                timestamp: i * 17,
                gps: (i % 4 == 0).then(|| Point::new(36.0 + (i as f64) * 1e-3 % 2.0, 127.5)),
                text: format!("tweet {i}"),
            });
        }
        s
    }

    #[test]
    fn sketch_sidecar_round_trips() {
        let dir = tmpdir("sketchside");
        let s = populated_v2_with_sketches();
        let sealed_cols: Vec<usize> = (0..s.segments().len())
            .filter(|&i| s.segments()[i].is_columnar())
            .collect();
        assert!(
            !sealed_cols.is_empty(),
            "fixture must seal columnar segments"
        );
        save(&s, &dir).unwrap();
        // The loaded store has no resolver installed, so any sketch it can
        // produce must come from the persisted sidecar.
        let loaded = load_with_segment_bytes(&dir, 4096).unwrap();
        assert!(loaded.sketcher().is_none());
        for &i in &sealed_cols {
            let orig = s.sketch_cached(i).expect("seal-time sketch present");
            let got = loaded
                .sketch_for(i, 0x5EED)
                .expect("persisted sidecar must satisfy sketch_for without a resolver");
            assert_eq!(orig.encode(), got.encode());
            // A different fingerprint must not be served stale data.
            assert!(loaded.sketch_for(i, 0xDEAD).is_none());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_sketch_sidecar_falls_back_to_scan() {
        let dir = tmpdir("sketchtamper");
        let s = populated_v2_with_sketches();
        save(&s, &dir).unwrap();
        let seg_path = dir.join("seg-0000.stir");
        let pristine = fs::read(&seg_path).unwrap();
        let sidecar_at = pristine
            .windows(8)
            .rposition(|w| w == crate::sketch::SKETCH_MAGIC)
            .expect("saved columnar file must carry a sketch sidecar");
        for mutated in [
            // Flip the file's last byte: inside the sidecar payload.
            {
                let mut b = pristine.clone();
                let last = b.len() - 1;
                b[last] ^= 0x55;
                b
            },
            // Truncate mid-sidecar.
            pristine[..sidecar_at + 10].to_vec(),
            // Garble the sidecar magic itself.
            {
                let mut b = pristine.clone();
                b[sidecar_at] = b'X';
                b
            },
        ] {
            fs::write(&seg_path, mutated).unwrap();
            // The column region is intact, so the load succeeds; the
            // damaged sidecar is simply dropped.
            let loaded = load_with_segment_bytes(&dir, 4096).unwrap();
            assert!(
                loaded.sketch_cached(0).is_none(),
                "damaged sidecar must be dropped"
            );
            assert!(loaded.sketch_for(0, 0x5EED).is_none());
            assert_eq!(
                Query::all().user(3).execute(&s),
                Query::all().user(3).execute(&loaded),
                "records must survive sidecar damage"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_rejected() {
        let dir = tmpdir("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load(&dir), Err(PersistError::BadManifest)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = tmpdir("badmagic");
        save(&populated(), &dir).unwrap();
        let seg_path = dir.join("seg-0000.stir");
        let mut bytes = fs::read(&seg_path).unwrap();
        bytes[0] = b'X';
        fs::write(&seg_path, bytes).unwrap();
        assert!(matches!(load(&dir), Err(PersistError::BadMagic)));
        fs::remove_dir_all(&dir).unwrap();
    }
}
