//! Write-ahead logging for the tweet store.
//!
//! [`crate::persist`] snapshots a whole store; a collector ingesting a live
//! stream needs durability *per append*. The WAL frames each record as
//! `len(u32 LE) · crc(u32 LE) · payload` appended to a log file; recovery
//! replays frames until the first corrupt or torn one and truncates the
//! tail — the standard contract: everything acknowledged before a crash is
//! recovered, a torn tail is dropped, corruption never propagates.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::codec::{decode_view, encode_record, fnv1a, TweetRecord};
use crate::persist::PersistError;
use crate::segment::DEFAULT_SEGMENT_BYTES;
use crate::store::TweetStore;

/// Magic header of WAL files.
const MAGIC: &[u8; 8] = b"STIRWAL1";

/// Bytes the log buffers before writing: a group commit of about a
/// thousand tweets (~21 KB of frames) reaches the file in one `write(2)`
/// at [`Wal::sync`].
const WRITE_BUFFER: usize = 64 * 1024;

/// What recovering one WAL did — how many records replayed cleanly and
/// how many torn-tail bytes were truncated. One of these per shard is the
/// per-shard recovery outcome a sharded open reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Records replayed into the store.
    pub recovered: u64,
    /// Bytes dropped from the log's torn or corrupt tail (0 = clean).
    pub truncated_bytes: u64,
}

/// An append-only write-ahead log.
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    appended: u64,
    scratch: Vec<u8>,
}

impl Wal {
    /// Opens (or creates) the log at `path` for appending. A fresh file
    /// gets the magic header; an existing file must carry it.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let exists = path.exists();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        if exists && file.metadata()?.len() >= MAGIC.len() as u64 {
            let mut head = [0u8; 8];
            let mut reader = File::open(path)?;
            reader.read_exact(&mut head)?;
            if &head != MAGIC {
                return Err(PersistError::BadMagic);
            }
        } else {
            file.write_all(MAGIC)?;
            file.sync_all()?;
        }
        Ok(Wal {
            path: path.to_path_buf(),
            writer: BufWriter::with_capacity(WRITE_BUFFER, file),
            appended: 0,
            scratch: Vec::new(),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one record frame (buffered; see [`Wal::sync`]).
    pub fn append(&mut self, rec: &TweetRecord) -> Result<(), PersistError> {
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        encode_record(&mut payload, rec);
        let res = self.append_payload(&payload, fnv1a(&payload));
        self.scratch = payload;
        res
    }

    /// Appends one already-encoded record payload under the caller's
    /// checksum — the encode-once path: a batch ingest that also feeds the
    /// bytes to a store frames them here without re-encoding.
    pub(crate) fn append_payload(&mut self, payload: &[u8], crc: u32) -> Result<(), PersistError> {
        self.writer
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&crc.to_le_bytes())?;
        self.writer.write_all(payload)?;
        self.appended += 1;
        Ok(())
    }

    /// Appends `records` pre-framed records (`len·crc·payload` runs laid
    /// out exactly as [`Wal::append`] writes them) in one buffered write.
    /// The staged batch-ingest path frames records while encoding them for
    /// the store, so the log bytes are identical to per-record appends of
    /// the same sequence.
    pub(crate) fn append_framed(
        &mut self,
        framed: &[u8],
        records: u64,
    ) -> Result<(), PersistError> {
        self.writer.write_all(framed)?;
        self.appended += records;
        Ok(())
    }

    /// Flushes buffers and fsyncs — the durability point.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        Ok(())
    }

    /// Replays the log into a fresh store. Stops at the first torn or
    /// corrupt frame, truncates the file there, and returns the store plus
    /// the number of recovered records.
    ///
    /// A file shorter than the header whose bytes are a prefix of it (the
    /// empty file included) is a crash between creating the log and
    /// syncing its header: it holds no record, so it recovers as 0 records
    /// and is emptied for [`Wal::open`] to write a clean header. Any other
    /// file that lacks the header is [`PersistError::BadMagic`].
    pub fn recover(path: &Path) -> Result<(TweetStore, u64), PersistError> {
        Self::recover_with_segment_bytes(path, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Wal::recover`] into a store that seals segments at
    /// `segment_bytes`, so a reopened log rolls where its writer did.
    pub(crate) fn recover_with_segment_bytes(
        path: &Path,
        segment_bytes: usize,
    ) -> Result<(TweetStore, u64), PersistError> {
        let mut file = File::open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut store = TweetStore::with_segment_bytes(segment_bytes);
        if bytes.len() < MAGIC.len() && MAGIC.starts_with(&bytes) {
            truncate(path, 0)?;
            return Ok((store, 0));
        }
        if !bytes.starts_with(MAGIC) {
            return Err(PersistError::BadMagic);
        }
        let mut recovered = 0u64;
        let mut at = MAGIC.len();
        let valid_end = loop {
            if at + 8 > bytes.len() {
                break at; // torn header
            }
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
            let start = at + 8;
            if start + len > bytes.len() {
                break at; // torn payload
            }
            let payload = &bytes[start..start + len];
            if fnv1a(payload) != crc {
                break at; // corrupt frame
            }
            // Validate the full record (including text UTF-8), then adopt
            // the frame bytes directly — no re-encode, no text allocation.
            let valid = decode_view(payload).and_then(|v| v.text().map(|_| ()));
            if valid.is_err() || store.append_raw(payload).is_err() {
                break at;
            }
            recovered += 1;
            at = start + len;
        };
        if valid_end < bytes.len() {
            // Drop the broken tail so the log is clean for further appends.
            truncate(path, valid_end as u64)?;
        }
        Ok((store, recovered))
    }
}

/// Cuts the file at `path` to `len` bytes, durably.
fn truncate(path: &Path, len: u64) -> Result<(), PersistError> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_geoindex::Point;

    fn rec(id: u64) -> TweetRecord {
        TweetRecord {
            id,
            user: id % 5,
            timestamp: id * 13,
            gps: id.is_multiple_of(2).then(|| Point::new(37.0, 127.0)),
            text: format!("wal {id}"),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("stir-wal-{tag}-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_sync_recover_roundtrip() {
        let path = tmp("roundtrip");
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 0..200 {
                wal.append(&rec(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        let (store, recovered) = Wal::recover(&path).unwrap();
        assert_eq!(recovered, 200);
        assert_eq!(store.len(), 200);
        assert_eq!(store.get_by_id(133).unwrap().text, "wal 133");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_recoverable() {
        let path = tmp("torn");
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 0..50 {
                wal.append(&rec(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        // Simulate a crash mid-frame: chop 3 bytes off the end.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (store, recovered) = Wal::recover(&path).unwrap();
        assert_eq!(recovered, 49, "last frame is torn, rest recovered");
        assert_eq!(store.len(), 49);
        // The log is clean again: appends after recovery work.
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&rec(999)).unwrap();
        wal.sync().unwrap();
        let (store2, recovered2) = Wal::recover(&path).unwrap();
        assert_eq!(recovered2, 50);
        assert!(store2.get_by_id(999).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_stops_replay() {
        let path = tmp("corrupt");
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 0..20 {
                wal.append(&rec(i)).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip a byte in the middle of the file (inside some frame).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let (store, recovered) = Wal::recover(&path).unwrap();
        assert!(
            recovered < 20,
            "corruption must stop replay, got {recovered}"
        );
        assert_eq!(store.len() as u64, recovered);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAWAL!extra").unwrap();
        assert!(matches!(Wal::recover(&path), Err(PersistError::BadMagic)));
        assert!(matches!(Wal::open(&path), Err(PersistError::BadMagic)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn golden_wal_bytes() {
        let path = tmp("golden");
        let records = [
            TweetRecord {
                id: 1,
                user: 2,
                timestamp: 3,
                gps: None,
                text: String::new(),
            },
            TweetRecord {
                id: 300,
                user: u64::MAX,
                timestamp: 7_776_000,
                gps: Some(Point::new(37.5663, 126.9779)),
                text: "서울 Jung-gu ㅋㅋ".into(),
            },
            TweetRecord {
                id: 1 << 35,
                user: 16_384,
                timestamp: 128,
                gps: Some(Point::new(-90.0, -180.0)),
                text: "wal".into(),
            },
        ];
        let mut wal = Wal::open(&path).unwrap();
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        let hex: String = std::fs::read(&path)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        std::fs::remove_file(&path).unwrap();
        // Header, then `len · crc · payload` per record, the payload split
        // as varints + flag, lat, lon, text length, text. Record 1 has
        // one-byte varints and no fix; record 2 a ten-byte user, a fix and
        // multi-byte text; record 3 a six-byte id and the most negative
        // coordinates.
        let golden = concat!(
            "5354495257414c31",
            "05000000",
            "2353db2c",
            "01020300",
            "00",
            "2f000000",
            "ac175dea",
            "ac02ffffffffffffffffff0180ceda0301",
            "5c373d02",
            "6c879107",
            "15",
            "ec849cec9ab8204a756e672d677520e3858be3858b",
            "18000000",
            "be13cbb9",
            "808080808001808001800101",
            "80b5a2fa",
            "006b45f5",
            "03",
            "77616c",
        );
        assert_eq!(hex, golden);
    }

    #[test]
    fn empty_wal_recovers_empty() {
        // A fresh log holds only its header. A crash after the file exists
        // but before its header is synced leaves a prefix of the header,
        // possibly empty: that holds no record either and reopens clean.
        for (tag, bytes) in [
            ("empty", &MAGIC[..]),
            ("torn-none", &b""[..]),
            ("torn-sti", &b"STI"[..]),
        ] {
            let path = tmp(tag);
            std::fs::write(&path, bytes).unwrap();
            let (store, recovered) = Wal::recover(&path).unwrap();
            assert_eq!(recovered, 0, "{tag}");
            assert!(store.is_empty(), "{tag}");
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&rec(7)).unwrap();
            wal.sync().unwrap();
            let (store, recovered) = Wal::recover(&path).unwrap();
            assert_eq!(recovered, 1, "{tag}");
            assert_eq!(store.get_by_id(7).unwrap(), rec(7), "{tag}");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
