//! User-hash-sharded multi-store scale-out.
//!
//! One [`TweetStore`] is a single segment chain behind a single WAL: ingest
//! serializes on one log file and every scan walks one chain. At the
//! paper's headline scale (tens of millions of tweets from millions of
//! users, §IV) that single chain is the bottleneck no matter how fast the
//! pipeline above it is. [`ShardedStore`] splits the corpus into N
//! independent stores by a **deterministic user hash**:
//!
//! ```text
//! shard_of(user) = splitmix64(user) % N
//! ```
//!
//! — the exact invariant the fused pipeline's hash partitions rely on, so
//! every record of one user lives in exactly one shard, in append order.
//! That placement is what makes everything downstream composable:
//!
//! * **Scatter-gather queries** ([`ShardedStore::query`]) run the
//!   zone-map-pruned per-shard plans independently (concurrently above a
//!   size threshold) and k-way merge the already-`(timestamp, id)`-sorted
//!   per-shard answers — byte-identical to the single-store result,
//!   because record keys are unique and each shard's answer is a sorted
//!   disjoint subset of the global one.
//! * **One store path.** A [`ShardedStore`] is a slice of shards
//!   (`AsRef<[TweetStore]>`), and so is a single [`TweetStore`]: the block
//!   layout ([`HeaderBlocks`]) and everything above it take the slice, so
//!   shard blocks lay out shard by shard with cumulative ordinal bases —
//!   ordinals stay unique and each user's records keep their relative
//!   order, all a determinism-by-ordinal consumer (the fused pipeline, the
//!   incremental session) needs.
//! * **Parallel durable ingest** ([`ShardedDurableStore`]) gives every
//!   shard its own WAL file; recovery truncates torn tails **per shard**,
//!   so one torn log never holds back the other N−1.
//! * **Background compaction** ([`ShardedStore::begin_compaction`] /
//!   [`ShardedStore::finish_compaction`]) detaches a cold shard's frames
//!   (picked by zone-map recency + reclaimable-estimate,
//!   [`ShardedStore::pick_cold_shard`]), rewrites them off-thread with the
//!   zero-copy [`crate::compact`] raw-frame moves, and swaps the result
//!   back in — ingest into the other shards (and even into the shard being
//!   compacted) never blocks.

use std::path::{Path, PathBuf};

use crate::codec::{encode_parts, encode_record, fnv1a, TweetHeader, TweetRecord};
use crate::compact::{compact, CompactionReport};
use crate::persist::{self, PersistError};
use crate::query::Query;
use crate::scan::HeaderBlocks;
use crate::segment::DEFAULT_SEGMENT_BYTES;
use crate::store::{RecordPtr, SegmentRef, StoreFormat, StoreStats, TweetStore};
use crate::wal::{Wal, WalRecovery};

/// File name of the shard-count manifest inside a sharded persist dir.
const SHARDS_MANIFEST: &str = "SHARDS";

/// The canonical mixer behind shard (and pipeline-partition) placement.
///
/// This is the *one* definition in the workspace: `stir_core`'s fused
/// pipeline partitions users with the same function, so a shard can feed
/// its partition group with no cross-shard shuffle.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard a user's records live in — a pure function of the user id and
/// the shard count, independent of ingest order, threads, or restarts.
pub fn shard_of(user: u64, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    (splitmix64(user) % shards as u64) as usize
}

/// Records below which a scatter-gather query stays serial (thread spawn
/// costs more than it saves on small corpora).
const PARALLEL_QUERY_THRESHOLD: usize = 4096;

/// N independent [`TweetStore`]s behind deterministic
/// `splitmix64(user) % N` placement. See the [module docs](self).
pub struct ShardedStore {
    shards: Vec<TweetStore>,
    segment_bytes: usize,
    /// Per-shard WAL recovery outcome, filled by
    /// [`ShardedDurableStore::open`] — `None` for shards built in memory.
    recovery: Vec<Option<WalRecovery>>,
}

impl ShardedStore {
    /// A sharded store with `shards` stores at the default segment size.
    pub fn new(shards: usize) -> Self {
        Self::with_segment_bytes(shards, DEFAULT_SEGMENT_BYTES)
    }

    /// A sharded store whose shards seal segments at `segment_bytes`.
    pub fn with_segment_bytes(shards: usize, segment_bytes: usize) -> Self {
        Self::with_segment_bytes_and_format(shards, segment_bytes, StoreFormat::default())
    }

    /// A sharded store whose shards seal segments at `segment_bytes` in
    /// `format` — every shard targets the same sealed-segment encoding.
    pub fn with_segment_bytes_and_format(
        shards: usize,
        segment_bytes: usize,
        format: StoreFormat,
    ) -> Self {
        let shards = shards.max(1);
        ShardedStore {
            shards: (0..shards)
                .map(|_| TweetStore::with_segment_bytes_and_format(segment_bytes, format))
                .collect(),
            segment_bytes,
            recovery: vec![None; shards],
        }
    }

    /// The sealed-segment format the shards target (shard 0's — every
    /// constructor and [`ShardedStore::set_format`] keep them uniform).
    pub fn format(&self) -> StoreFormat {
        self.shards[0].format()
    }

    /// Switches every shard's sealed-segment format for segments sealed
    /// from now on; already-sealed segments keep their encoding (mixed
    /// shards scan and query fine).
    pub fn set_format(&mut self, format: StoreFormat) {
        for s in &mut self.shards {
            s.set_format(format);
        }
    }

    /// Adopts pre-built per-shard stores (recovery/persistence path). The
    /// caller guarantees every record already sits in its placement shard.
    fn from_shards(shards: Vec<TweetStore>, segment_bytes: usize) -> Self {
        let n = shards.len().max(1);
        let mut this = ShardedStore {
            shards,
            segment_bytes,
            recovery: vec![None; n],
        };
        if this.shards.is_empty() {
            this.shards
                .push(TweetStore::with_segment_bytes(segment_bytes));
        }
        this
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `user`'s records live in.
    pub fn shard_of(&self, user: u64) -> usize {
        shard_of(user, self.shards.len())
    }

    /// Read access to every shard, in shard order.
    pub fn shards(&self) -> &[TweetStore] {
        &self.shards
    }

    /// Read access to one shard.
    pub fn shard(&self, i: usize) -> &TweetStore {
        &self.shards[i]
    }

    /// Mutable access to every shard — module-private so external code
    /// cannot break the placement invariant.
    pub(crate) fn shards_mut(&mut self) -> &mut [TweetStore] {
        &mut self.shards
    }

    /// Installs one sketch resolver on every shard (see
    /// [`TweetStore::set_sketcher`]): future columnar seals in any shard
    /// build their group sketch eagerly, and already-sealed segments build
    /// theirs lazily on first use.
    pub fn set_sketcher(&mut self, resolver: std::sync::Arc<dyn crate::sketch::SketchResolver>) {
        for s in &mut self.shards {
            s.set_sketcher(std::sync::Arc::clone(&resolver));
        }
    }

    /// Seals every shard's open tail (see [`TweetStore::seal_active`]):
    /// after this, all records live in sealed segments and a sketched
    /// query has no residue to scan.
    pub fn seal_active(&mut self) {
        for s in &mut self.shards {
            s.seal_active();
        }
    }

    /// Per-shard WAL recovery outcomes (`None` where no WAL was involved).
    pub fn recovery(&self) -> &[Option<WalRecovery>] {
        &self.recovery
    }

    /// Appends a record to its placement shard; returns `(shard, ptr)`.
    pub fn append(&mut self, rec: &TweetRecord) -> (usize, RecordPtr) {
        let shard = self.shard_of(rec.user);
        (shard, self.shards[shard].append(rec))
    }

    /// Total records across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Aggregate statistics over all shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.records += st.records;
            total.gps_records += st.gps_records;
            total.payload_bytes += st.payload_bytes;
            total.segments += st.segments;
        }
        total
    }

    /// Distinct users across shards (placement makes shards user-disjoint,
    /// so the per-shard counts sum exactly).
    pub fn user_count(&self) -> usize {
        self.shards.iter().map(|s| s.user_count()).sum()
    }

    /// Looks up a record by tweet id (ids are global; every shard is
    /// probed — the id index is per shard and the hit is unique).
    pub fn get_by_id(&self, id: u64) -> Option<TweetRecord> {
        self.shards.iter().find_map(|s| s.get_by_id(id))
    }

    /// Scatter-gather query execution: each shard runs its own
    /// zone-map-pruned plan (concurrently when the corpus is large enough
    /// to pay for threads), and the per-shard `(timestamp, id)`-sorted
    /// answers are k-way merged in that same order. Because every record
    /// key is unique and shards partition the corpus, the merge *is* the
    /// globally sorted answer — byte-identical to
    /// [`Query::execute`] on an equivalent single store.
    pub fn query(&self, query: &Query) -> Vec<TweetRecord> {
        let parts: Vec<Vec<TweetRecord>> =
            if self.shards.len() > 1 && self.len() >= PARALLEL_QUERY_THRESHOLD {
                std::thread::scope(|scope| {
                    let workers: Vec<_> = self
                        .shards
                        .iter()
                        .map(|s| scope.spawn(move || query.execute(s)))
                        .collect();
                    workers
                        .into_iter()
                        .map(|w| w.join().expect("shard query worker panicked"))
                        .collect()
                })
            } else {
                self.shards.iter().map(|s| query.execute(s)).collect()
            };
        merge_by_time_id(parts)
    }

    /// Zone-map-derived per-shard temperature, the compaction scheduler's
    /// input: recency (newest timestamp any segment holds) plus an
    /// estimate of how many records the paper's GPS-only rewrite would
    /// reclaim — both read straight off the segment zone maps, no decode.
    pub fn shard_heat(&self) -> Vec<ShardHeat> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let mut max_ts = 0u64;
                let mut records = 0u64;
                let mut gps_records = 0u64;
                for seg in s.segments() {
                    let z = seg.zone_map();
                    if z.records > 0 {
                        max_ts = max_ts.max(z.max_ts);
                        records += z.records as u64;
                        gps_records += z.gps_records as u64;
                    }
                }
                ShardHeat {
                    shard,
                    records,
                    max_ts,
                    reclaimable: records - gps_records,
                }
            })
            .collect()
    }

    /// Picks the coldest shard worth compacting under `policy`: among
    /// shards with at least `min_records` records and a reclaimable
    /// fraction of at least `min_reclaimable`, the one whose newest record
    /// is oldest (ties break to the lowest shard index). `None` when no
    /// shard qualifies — the scheduler idles.
    pub fn pick_cold_shard(&self, policy: &CompactionPolicy) -> Option<usize> {
        self.shard_heat()
            .into_iter()
            .filter(|h| {
                h.records >= policy.min_records.max(1)
                    && h.reclaimable as f64 >= policy.min_reclaimable * h.records as f64
            })
            .min_by_key(|h| (h.max_ts, h.shard))
            .map(|h| h.shard)
    }

    /// Detaches shard `shard`'s current frames into an owned
    /// [`CompactionJob`] that can be rewritten on any thread. The live
    /// shard keeps serving reads and appends; nothing blocks. Frames are
    /// moved raw, never re-encoded.
    pub fn begin_compaction(&self, shard: usize) -> CompactionJob {
        let src = &self.shards[shard];
        let mut detached =
            TweetStore::with_segment_bytes_and_format(self.segment_bytes, src.format());
        let mut scratch = Vec::new();
        for seg in src.segments() {
            for slot in 0..seg.len() as u32 {
                // The source store validated these frames at append; a
                // failure here would be a memory error, so propagating is
                // pointless — skip defensively.
                let _ = detached.append_raw(reframe(seg, slot, &mut scratch));
            }
        }
        CompactionJob {
            shard,
            records_at_begin: src.len() as u64,
            store: detached,
        }
    }

    /// Installs a finished [`CompactedShard`]: the rewritten store replaces
    /// the shard, and every record appended since
    /// [`ShardedStore::begin_compaction`] is re-applied on top (raw-frame
    /// move, same `keep` predicate). This is the only step that holds
    /// `&mut self`, and its cost is proportional to the append tail, not
    /// the shard.
    pub fn finish_compaction<F: FnMut(&TweetHeader) -> bool>(
        &mut self,
        done: CompactedShard,
        mut keep: F,
    ) -> CompactionReport {
        let CompactedShard {
            shard,
            records_at_begin,
            compacted,
            mut report,
        } = done;
        let mut rebuilt = compacted;
        let live = &self.shards[shard];
        report.bytes_before = live.stats().payload_bytes;
        let mut skip = records_at_begin;
        let mut scratch = Vec::new();
        for seg in live.segments() {
            let len = seg.len() as u64;
            if skip >= len {
                skip -= len;
                continue;
            }
            for slot in skip as u32..len as u32 {
                let Ok(header) = seg.header(slot) else {
                    continue;
                };
                report.scanned += 1;
                if keep(&header) && rebuilt.append_raw(reframe(seg, slot, &mut scratch)).is_ok() {
                    report.kept += 1;
                }
            }
            skip = 0;
        }
        report.bytes_after = rebuilt.stats().payload_bytes;
        self.shards[shard] = rebuilt;
        self.recovery[shard] = None;
        report
    }

    /// One synchronous scheduler step: pick the coldest qualifying shard,
    /// rewrite it with `keep`, install the result. Returns the shard and
    /// its report, or `None` when nothing qualified. (The asynchronous
    /// shape — `begin_compaction` on one thread, `finish_compaction` after
    /// joining — is what a background scheduler loop composes from.)
    pub fn maintain<F: FnMut(&TweetHeader) -> bool>(
        &mut self,
        policy: &CompactionPolicy,
        mut keep: F,
    ) -> Option<(usize, CompactionReport)> {
        let shard = self.pick_cold_shard(policy)?;
        let job = self.begin_compaction(shard);
        let done = job.run(&mut keep);
        let report = self.finish_compaction(done, keep);
        Some((shard, report))
    }

    /// Persists every shard under `dir`: `shard-NNN/` subdirectories (each
    /// a normal [`crate::persist::save`] layout) plus a `SHARDS` manifest
    /// carrying the shard count — placement is a pure function of user and
    /// count, so the count is all reopen needs to reproduce it.
    pub fn save(&self, dir: &Path) -> Result<(), PersistError> {
        std::fs::create_dir_all(dir)?;
        for (i, shard) in self.shards.iter().enumerate() {
            persist::save(shard, &shard_dir(dir, i))?;
        }
        std::fs::write(
            dir.join(SHARDS_MANIFEST),
            format!("{}\n", self.shards.len()),
        )?;
        persist::remove_stale(dir, "shard-", "", self.shards.len())?;
        Ok(())
    }

    /// Loads a sharded store persisted by [`ShardedStore::save`]. The
    /// shard count comes from the `SHARDS` manifest; every record loads
    /// back into the shard `splitmix64(user) % N` placed it in, so
    /// assignments are stable across reopen.
    pub fn load(dir: &Path) -> Result<Self, PersistError> {
        Self::load_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`ShardedStore::load`] with an explicit segment-roll threshold.
    pub fn load_with_segment_bytes(dir: &Path, segment_bytes: usize) -> Result<Self, PersistError> {
        let manifest = std::fs::read_to_string(dir.join(SHARDS_MANIFEST))
            .map_err(|_| PersistError::BadManifest)?;
        let n: usize = manifest
            .trim()
            .parse()
            .map_err(|_| PersistError::BadManifest)?;
        if n == 0 {
            return Err(PersistError::BadManifest);
        }
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            shards.push(persist::load_with_segment_bytes(
                &shard_dir(dir, i),
                segment_bytes,
            )?);
        }
        Ok(Self::from_shards(shards, segment_bytes))
    }
}

impl AsRef<[TweetStore]> for ShardedStore {
    fn as_ref(&self) -> &[TweetStore] {
        &self.shards
    }
}

/// `dir/shard-NNN`, the per-shard persist subdirectory.
fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

/// One slot's row frame: row segments hand back their stored bytes
/// zero-copy; columnar segments re-frame the slot from the decoded columns
/// into `scratch` — µ° integers written directly, so no float or UTF-8
/// round-trip can perturb the bytes.
fn reframe<'a>(seg: SegmentRef<'a>, slot: u32, scratch: &'a mut Vec<u8>) -> &'a [u8] {
    match seg {
        SegmentRef::Rows(s) => s.raw(slot),
        SegmentRef::Cols(c) => {
            let h = c.header(slot);
            scratch.clear();
            encode_parts(
                scratch,
                h.id,
                h.user,
                h.timestamp,
                c.gps_e6(slot),
                c.text_bytes(slot),
            );
            scratch
        }
    }
}

/// K-way merges per-shard `(timestamp, id)`-sorted answers into the global
/// `(timestamp, id)` order. Keys are unique across shards, so the merge is
/// exactly the sorted union.
fn merge_by_time_id(mut parts: Vec<Vec<TweetRecord>>) -> Vec<TweetRecord> {
    parts.retain(|p| !p.is_empty());
    match parts.len() {
        0 => return Vec::new(),
        1 => return parts.pop().unwrap(),
        _ => {}
    }
    let total = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors = vec![0usize; parts.len()];
    loop {
        let mut best: Option<(usize, (u64, u64))> = None;
        for (i, part) in parts.iter().enumerate() {
            if let Some(rec) = part.get(cursors[i]) {
                let key = (rec.timestamp, rec.id);
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((i, key));
                }
            }
        }
        let Some((i, _)) = best else { break };
        out.push(parts[i][cursors[i]].clone());
        cursors[i] += 1;
    }
    out
}

/// One shard's zone-map-derived temperature (see
/// [`ShardedStore::shard_heat`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHeat {
    /// Shard index.
    pub shard: usize,
    /// Records the shard holds (zone-map sum).
    pub records: u64,
    /// Newest timestamp any segment holds — the recency signal; smaller
    /// means colder.
    pub max_ts: u64,
    /// Records the GPS-only rewrite would drop (`records − gps_records`).
    pub reclaimable: u64,
}

/// When the compaction scheduler considers a shard worth rewriting.
#[derive(Clone, Copy, Debug)]
pub struct CompactionPolicy {
    /// Shards below this record count are never picked (rewriting dust
    /// buys nothing).
    pub min_records: u64,
    /// Minimum reclaimable fraction (`reclaimable / records`) before a
    /// rewrite pays for itself.
    pub min_reclaimable: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_records: 1024,
            min_reclaimable: 0.5,
        }
    }
}

/// A cold shard's frames, detached by [`ShardedStore::begin_compaction`]
/// and owned by whichever thread runs the rewrite.
pub struct CompactionJob {
    shard: usize,
    records_at_begin: u64,
    store: TweetStore,
}

impl CompactionJob {
    /// The shard this job will replace.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Records the detached copy covers (appends past this ordinal are
    /// re-applied at [`ShardedStore::finish_compaction`]).
    pub fn records_at_begin(&self) -> u64 {
        self.records_at_begin
    }

    /// Rewrites the detached frames through [`crate::compact::compact`] —
    /// zero-copy raw-frame moves. Runs on any thread; the sharded store is
    /// untouched meanwhile.
    pub fn run<F: FnMut(&TweetHeader) -> bool>(self, keep: F) -> CompactedShard {
        let (compacted, report) = compact(&self.store, keep);
        CompactedShard {
            shard: self.shard,
            records_at_begin: self.records_at_begin,
            compacted,
            report,
        }
    }
}

/// A finished rewrite, ready for [`ShardedStore::finish_compaction`].
pub struct CompactedShard {
    shard: usize,
    records_at_begin: u64,
    compacted: TweetStore,
    report: CompactionReport,
}

impl CompactedShard {
    /// The shard the rewrite belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The rewrite's report so far (the tail re-apply in
    /// [`ShardedStore::finish_compaction`] extends it).
    pub fn report(&self) -> CompactionReport {
        self.report
    }
}

/// The cross-shard morsel source: [`HeaderBlocks`] already lays blocks
/// out over any shard slice, a [`ShardedStore`] included.
pub type ShardedHeaderBlocks<'s> = HeaderBlocks<'s>;

/// A [`ShardedStore`] coupled to one WAL per shard: appends hit the
/// placement shard's log first, [`ShardedDurableStore::sync`] is the
/// durability point, and [`ShardedDurableStore::open`] recovers every
/// shard's log **independently** — a torn tail on one shard truncates that
/// log alone and the other shards recover in full.
pub struct ShardedDurableStore {
    store: ShardedStore,
    wals: Vec<Wal>,
}

impl ShardedDurableStore {
    /// Opens (or creates) `shards` WALs under `dir` (`wal-NNN.log`),
    /// recovering each existing log into its shard. Per-shard recovery
    /// outcomes are recorded on the store
    /// ([`ShardedStore::recovery`]).
    pub fn open(dir: &Path, shards: usize) -> Result<Self, PersistError> {
        Self::open_with_segment_bytes(dir, shards, DEFAULT_SEGMENT_BYTES)
    }

    /// [`ShardedDurableStore::open`] with an explicit segment threshold.
    pub fn open_with_segment_bytes(
        dir: &Path,
        shards: usize,
        segment_bytes: usize,
    ) -> Result<Self, PersistError> {
        Self::open_with_segment_bytes_and_format(dir, shards, segment_bytes, StoreFormat::default())
    }

    /// [`ShardedDurableStore::open`] with an explicit segment threshold
    /// and sealed-segment format. WAL recovery itself is format-agnostic —
    /// logs hold `STIRWAL1` row frames either way, and replay rebuilds
    /// row segments byte-identically, rolling them at `segment_bytes` as
    /// the writer did — the format only governs how segments sealed
    /// *after* recovery are encoded.
    pub fn open_with_segment_bytes_and_format(
        dir: &Path,
        shards: usize,
        segment_bytes: usize,
        format: StoreFormat,
    ) -> Result<Self, PersistError> {
        let shards = shards.max(1);
        std::fs::create_dir_all(dir)?;
        let mut stores = Vec::with_capacity(shards);
        let mut recovery = Vec::with_capacity(shards);
        let mut wals = Vec::with_capacity(shards);
        for i in 0..shards {
            let path = wal_path(dir, i);
            let (store, rec) = if path.exists() {
                let before = std::fs::metadata(&path)?.len();
                let (store, recovered) = Wal::recover_with_segment_bytes(&path, segment_bytes)?;
                let after = std::fs::metadata(&path)?.len();
                (
                    store,
                    Some(WalRecovery {
                        recovered,
                        truncated_bytes: before - after,
                    }),
                )
            } else {
                (TweetStore::with_segment_bytes(segment_bytes), None)
            };
            stores.push(store);
            recovery.push(rec);
            wals.push(Wal::open(&path)?);
        }
        let mut store = ShardedStore::from_shards(stores, segment_bytes);
        store.recovery = recovery;
        store.set_format(format);
        Ok(ShardedDurableStore { store, wals })
    }

    /// Appends one record: placement shard's WAL first, then its store.
    pub fn append(&mut self, rec: &TweetRecord) -> Result<(), PersistError> {
        let shard = self.store.shard_of(rec.user);
        self.wals[shard].append(rec)?;
        self.store.shards_mut()[shard].append(rec);
        Ok(())
    }

    /// Ingests a batch with up to `workers` threads, each owning a
    /// disjoint set of `(shard store, shard WAL)` pairs — the N
    /// independent log files are what makes the writes truly parallel.
    /// Records are pre-partitioned by placement, so the result is
    /// identical to serial [`ShardedDurableStore::append`] of the same
    /// batch in order (per-shard append order is arrival order either
    /// way). `workers` is clamped to the shard count; 1 runs inline.
    pub fn ingest_parallel(
        &mut self,
        records: &[TweetRecord],
        workers: usize,
    ) -> Result<(), PersistError> {
        let shards = self.store.shard_count();
        let workers = workers.clamp(1, shards);
        if workers == 1 {
            return self.ingest_staged(records);
        }
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, rec) in records.iter().enumerate() {
            by_shard[shard_of(rec.user, shards)].push(i);
        }
        // Hand each worker a contiguous run of (store, wal, index-list)
        // triples; shards are disjoint, so no synchronization is needed.
        let mut lanes: Vec<(&mut TweetStore, &mut Wal, &Vec<usize>)> = self
            .store
            .shards
            .iter_mut()
            .zip(self.wals.iter_mut())
            .zip(by_shard.iter())
            .map(|((s, w), idxs)| (s, w, idxs))
            .collect();
        let per_worker = lanes.len().div_ceil(workers);
        let mut failure: Option<PersistError> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            let mut rest = lanes.as_mut_slice();
            while !rest.is_empty() {
                let take = per_worker.min(rest.len());
                let (chunk, tail) = rest.split_at_mut(take);
                rest = tail;
                handles.push(scope.spawn(move || -> Result<(), PersistError> {
                    // Encode once per record: the same payload bytes are
                    // the WAL frame and the segment frame.
                    let mut payload: Vec<u8> = Vec::with_capacity(128);
                    for (store, wal, idxs) in chunk.iter_mut() {
                        for &i in idxs.iter() {
                            payload.clear();
                            encode_record(&mut payload, &records[i]);
                            let crc = fnv1a(&payload);
                            wal.append_payload(&payload, crc)?;
                            store.append_raw_with_crc(&payload, crc)?;
                        }
                    }
                    Ok(())
                }));
            }
            for h in handles {
                if let Err(e) = h.join().expect("ingest worker panicked") {
                    failure.get_or_insert(e);
                }
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Serial batch ingest with staged per-shard encoding.
    ///
    /// Each record is encoded **once**, in arrival order, straight into
    /// its placement shard's staging buffer with the WAL framing
    /// (`len·crc·payload`) inline; a flush then writes each shard's run
    /// in one buffered log write and replays the payload slices into the
    /// shard store as raw frames. Two wins over streaming per record:
    /// the segment encode and the WAL encode collapse into one, and the
    /// per-shard index inserts land in long hot runs instead of
    /// alternating shard structures per record. Per-shard order is still
    /// arrival order and the staged framing is byte-identical to
    /// [`Wal::append`]'s, so log and store bytes match serial
    /// [`ShardedDurableStore::append`] of the same batch exactly.
    fn ingest_staged(&mut self, records: &[TweetRecord]) -> Result<(), PersistError> {
        self.ingest_staged_with(records, STAGE_FLUSH_BYTES)
    }

    /// [`ShardedDurableStore::ingest_staged`] with an explicit flush
    /// threshold (tests force tiny windows to cover mid-batch flushes).
    fn ingest_staged_with(
        &mut self,
        records: &[TweetRecord],
        flush_bytes: usize,
    ) -> Result<(), PersistError> {
        let shards = self.store.shard_count();
        let mut stages: Vec<ShardStage> = (0..shards).map(|_| ShardStage::default()).collect();
        let mut staged = 0usize;
        for rec in records {
            let st = &mut stages[shard_of(rec.user, shards)];
            let start = st.framed.len();
            st.offsets.push(start as u32);
            st.framed.extend_from_slice(&[0u8; 8]);
            encode_record(&mut st.framed, rec);
            let payload_len = (st.framed.len() - start - 8) as u32;
            let crc = fnv1a(&st.framed[start + 8..]);
            st.framed[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
            st.framed[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
            staged += st.framed.len() - start;
            if staged >= flush_bytes {
                self.flush_stages(&mut stages)?;
                staged = 0;
            }
        }
        self.flush_stages(&mut stages)
    }

    /// Drains every staging buffer shard by shard: one bulk WAL write,
    /// then the payload slices into the shard store.
    fn flush_stages(&mut self, stages: &mut [ShardStage]) -> Result<(), PersistError> {
        for (shard, st) in stages.iter_mut().enumerate() {
            if st.offsets.is_empty() {
                continue;
            }
            self.wals[shard].append_framed(&st.framed, st.offsets.len() as u64)?;
            let store = &mut self.store.shards_mut()[shard];
            for i in 0..st.offsets.len() {
                let start = st.offsets[i] as usize;
                let end = st
                    .offsets
                    .get(i + 1)
                    .map_or(st.framed.len(), |&o| o as usize);
                let crc = u32::from_le_bytes(st.framed[start + 4..start + 8].try_into().unwrap());
                store.append_raw_with_crc(&st.framed[start + 8..end], crc)?;
            }
            st.framed.clear();
            st.offsets.clear();
        }
        Ok(())
    }

    /// Fsyncs every shard's WAL — the batch durability point.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        for wal in &mut self.wals {
            wal.sync()?;
        }
        Ok(())
    }

    /// The in-memory sharded store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Consumes the shell, returning the recovered in-memory store.
    pub fn into_store(self) -> ShardedStore {
        self.store
    }
}

/// Staged frame bytes (across all shards) that trigger a flush in
/// [`ShardedDurableStore::ingest_parallel`]'s serial path — large enough
/// that each shard's index inserts run in long hot streaks, small enough
/// that staging memory stays bounded for arbitrarily large batches.
const STAGE_FLUSH_BYTES: usize = 32 << 20;

/// One shard's staged ingest run: WAL-framed record bytes plus the start
/// offset of each frame (the store frame is the payload slice after the
/// 8-byte `len·crc` prefix).
#[derive(Default)]
struct ShardStage {
    framed: Vec<u8>,
    offsets: Vec<u32>,
}

/// `dir/wal-NNN.log`, the per-shard WAL path.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal-{shard:03}.log"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_geoindex::Point;

    fn rec(id: u64) -> TweetRecord {
        TweetRecord {
            id,
            user: id % 97,
            timestamp: id * 31 % 100_000,
            gps: id.is_multiple_of(3).then(|| {
                Point::new(
                    35.0 + (id % 100) as f64 * 0.02,
                    126.0 + (id % 80) as f64 * 0.03,
                )
            }),
            text: format!("shard test tweet {id}"),
        }
    }

    fn build(shards: usize, n: u64) -> (ShardedStore, TweetStore) {
        let mut sharded = ShardedStore::with_segment_bytes(shards, 4096);
        let mut single = TweetStore::with_segment_bytes(4096);
        for i in 0..n {
            let r = rec(i);
            sharded.append(&r);
            single.append(&r);
        }
        (sharded, single)
    }

    #[test]
    fn placement_is_splitmix64_mod_n() {
        let (sharded, _) = build(7, 500);
        for (i, shard) in sharded.shards().iter().enumerate() {
            for r in shard.scan().map(|r| r.unwrap()) {
                assert_eq!(shard_of(r.user, 7), i, "user {} in wrong shard", r.user);
            }
        }
        assert_eq!(sharded.len(), 500);
    }

    #[test]
    fn aggregate_stats_and_lookup() {
        let (sharded, single) = build(4, 1000);
        let (a, b) = (sharded.stats(), single.stats());
        assert_eq!(a.records, b.records);
        assert_eq!(a.gps_records, b.gps_records);
        assert_eq!(a.payload_bytes, b.payload_bytes);
        assert_eq!(sharded.user_count(), single.user_count());
        assert_eq!(
            sharded.get_by_id(123).unwrap(),
            single.get_by_id(123).unwrap()
        );
        assert!(sharded.get_by_id(10_000).is_none());
    }

    #[test]
    fn scatter_gather_matches_single_store() {
        use stir_geoindex::BBox;
        let (sharded, single) = build(5, 2000);
        for q in [
            Query::all(),
            Query::all().user(13),
            Query::all().between(10_000, 60_000),
            Query::all().within(BBox::new(35.0, 126.0, 36.0, 127.0)),
            Query::all().gps(true),
            Query::all().user(9999),
        ] {
            assert_eq!(sharded.query(&q), q.execute(&single), "query {q:?}");
        }
    }

    #[test]
    fn save_load_reproduces_placement_and_queries() {
        let dir = std::env::temp_dir().join(format!("stir-shard-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (sharded, single) = build(4, 800);
        sharded.save(&dir).unwrap();
        let loaded = ShardedStore::load_with_segment_bytes(&dir, 4096).unwrap();
        assert_eq!(loaded.shard_count(), 4);
        assert_eq!(loaded.len(), 800);
        for (i, shard) in loaded.shards().iter().enumerate() {
            for r in shard.scan().map(|r| r.unwrap()) {
                assert_eq!(shard_of(r.user, 4), i);
            }
        }
        let q = Query::all().between(0, 50_000);
        assert_eq!(loaded.query(&q), q.execute(&single));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resaving_fewer_shards_removes_stale_shard_directories() {
        let dir = std::env::temp_dir().join(format!("stir-shard-resave-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        build(4, 800).0.save(&dir).unwrap();
        let (two, single) = build(2, 300);
        two.save(&dir).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["SHARDS", "shard-000", "shard-001"]);
        let loaded = ShardedStore::load_with_segment_bytes(&dir, 4096).unwrap();
        assert_eq!(loaded.shard_count(), 2);
        assert_eq!(loaded.query(&Query::all()), Query::all().execute(&single));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_roundtrip_and_parallel_ingest_match_serial() {
        let base = std::env::temp_dir().join(format!("stir-shard-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let records: Vec<TweetRecord> = (0..1200).map(rec).collect();
        // Serial reference.
        let dir_a = base.join("serial");
        let mut a = ShardedDurableStore::open_with_segment_bytes(&dir_a, 6, 4096).unwrap();
        for r in &records {
            a.append(r).unwrap();
        }
        a.sync().unwrap();
        // Parallel ingest of the same batch.
        let dir_b = base.join("parallel");
        let mut b = ShardedDurableStore::open_with_segment_bytes(&dir_b, 6, 4096).unwrap();
        b.ingest_parallel(&records, 4).unwrap();
        b.sync().unwrap();
        assert_eq!(a.store().stats(), b.store().stats());
        for (sa, sb) in a.store().shards().iter().zip(b.store().shards()) {
            let ra: Vec<_> = sa.scan().map(|r| r.unwrap()).collect();
            let rb: Vec<_> = sb.scan().map(|r| r.unwrap()).collect();
            assert_eq!(ra, rb, "per-shard append order must match");
        }
        // Reopen both: full recovery on every shard, rolled at the
        // segment size the store was opened with.
        let layout = |s: &ShardedStore| -> Vec<(usize, u32)> {
            s.shards()
                .iter()
                .map(|s| (s.segment_bytes(), s.stats().segments))
                .collect()
        };
        let before = layout(a.store());
        assert!(before.iter().any(|&(_, segs)| segs > 1), "{before:?}");
        drop(a);
        let a2 = ShardedDurableStore::open_with_segment_bytes(&dir_a, 6, 4096).unwrap();
        assert_eq!(a2.store().len(), 1200);
        assert_eq!(layout(a2.store()), before);
        for r in a2.store().recovery() {
            let r = r.as_ref().unwrap();
            assert_eq!(r.truncated_bytes, 0);
        }
        assert_eq!(
            a2.store()
                .recovery()
                .iter()
                .map(|r| r.as_ref().unwrap().recovered)
                .sum::<u64>(),
            1200
        );
        // One shard: reopen → append → reopen keeps every record.
        let dir_c = base.join("one-shard");
        {
            let mut one = ShardedDurableStore::open(&dir_c, 1).unwrap();
            for r in &records[..30] {
                one.append(r).unwrap();
            }
            one.sync().unwrap();
        }
        {
            let mut one = ShardedDurableStore::open(&dir_c, 1).unwrap();
            assert_eq!(one.store().len(), 30, "recovery on reopen");
            one.append(&records[100]).unwrap();
            one.sync().unwrap();
        }
        let one = ShardedDurableStore::open(&dir_c, 1).unwrap();
        assert_eq!(one.store().len(), 31);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn staged_serial_ingest_is_byte_identical_to_per_record_appends() {
        let base = std::env::temp_dir().join(format!("stir-shard-stage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let records: Vec<TweetRecord> = (0..900).map(rec).collect();
        // Per-record append reference.
        let dir_a = base.join("serial");
        let mut a = ShardedDurableStore::open_with_segment_bytes(&dir_a, 5, 4096).unwrap();
        for r in &records {
            a.append(r).unwrap();
        }
        a.sync().unwrap();
        // Staged serial ingest with a tiny window so mid-batch flushes
        // (the partial-buffer path) are exercised, not just the final one.
        let dir_b = base.join("staged");
        let mut b = ShardedDurableStore::open_with_segment_bytes(&dir_b, 5, 4096).unwrap();
        b.ingest_staged_with(&records, 512).unwrap();
        b.sync().unwrap();
        assert_eq!(a.store().stats(), b.store().stats());
        for shard in 0..5 {
            let log_a = std::fs::read(wal_path(&dir_a, shard)).unwrap();
            let log_b = std::fs::read(wal_path(&dir_b, shard)).unwrap();
            assert_eq!(log_a, log_b, "shard {shard} WAL bytes must match");
            let ra: Vec<_> = a.store().shard(shard).scan().map(|r| r.unwrap()).collect();
            let rb: Vec<_> = b.store().shard(shard).scan().map(|r| r.unwrap()).collect();
            assert_eq!(ra, rb, "shard {shard} store contents must match");
        }
        // The default-window path (single flush at the end) too.
        let dir_c = base.join("staged-default");
        let mut c = ShardedDurableStore::open_with_segment_bytes(&dir_c, 5, 4096).unwrap();
        c.ingest_parallel(&records, 1).unwrap();
        c.sync().unwrap();
        for shard in 0..5 {
            assert_eq!(
                std::fs::read(wal_path(&dir_a, shard)).unwrap(),
                std::fs::read(wal_path(&dir_c, shard)).unwrap(),
            );
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn cold_shard_scheduler_picks_by_recency_and_reclaim() {
        let mut s = ShardedStore::with_segment_bytes(4, 4096);
        // Fill with records whose GPS share is low (reclaimable high).
        for i in 0..8000u64 {
            s.append(&TweetRecord {
                id: i,
                user: i % 200,
                timestamp: i,
                gps: i.is_multiple_of(50).then(|| Point::new(37.0, 127.0)),
                text: format!("cold {i}"),
            });
        }
        let policy = CompactionPolicy {
            min_records: 100,
            min_reclaimable: 0.5,
        };
        let heat = s.shard_heat();
        assert_eq!(heat.len(), 4);
        let picked = s.pick_cold_shard(&policy).unwrap();
        let coldest = heat
            .iter()
            .filter(|h| h.records >= 100 && h.reclaimable * 2 >= h.records)
            .min_by_key(|h| (h.max_ts, h.shard))
            .unwrap();
        assert_eq!(picked, coldest.shard);
        // After a GPS-only maintain pass the picked shard holds only GPS
        // records, and no longer qualifies under the policy once every
        // shard is rewritten.
        let before = s.len();
        let (shard, report) = s.maintain(&policy, |h| h.gps.is_some()).unwrap();
        assert_eq!(shard, picked);
        assert!(report.kept < report.scanned);
        assert!(s.len() < before);
        assert_eq!(
            s.shard(shard).stats().gps_records,
            s.shard(shard).stats().records
        );
    }

    #[test]
    fn background_compaction_does_not_block_ingest() {
        let mut s = ShardedStore::with_segment_bytes(3, 4096);
        for i in 0..6000u64 {
            s.append(&rec(i));
        }
        let target = s.pick_cold_shard(&CompactionPolicy::default()).unwrap_or(0);
        let job = s.begin_compaction(target);
        assert_eq!(job.records_at_begin(), s.shard(target).len() as u64);
        // The job runs on another thread while the owner keeps appending —
        // including into the shard being compacted.
        let done = std::thread::scope(|scope| {
            let worker = scope.spawn(move || job.run(|h| h.gps.is_some()));
            for i in 6000..7000u64 {
                s.append(&rec(i));
            }
            worker.join().expect("compaction worker panicked")
        });
        let report = s.finish_compaction(done, |h| h.gps.is_some());
        // Survivors: every GPS record that was ever in the shard, tail
        // included, in append order.
        let ids: Vec<u64> = s.shard(target).scan().map(|r| r.unwrap().id).collect();
        let expected: Vec<u64> = (0..7000u64)
            .map(rec)
            .filter(|r| shard_of(r.user, 3) == target && r.gps.is_some())
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, expected);
        assert!(report.scanned >= report.kept);
        // Other shards untouched: full record counts preserved.
        let others: usize = (0..3)
            .filter(|&i| i != target)
            .map(|i| s.shard(i).len())
            .sum();
        let expected_others = (0..7000u64)
            .map(rec)
            .filter(|r| shard_of(r.user, 3) != target)
            .count();
        assert_eq!(others, expected_others);
    }

    #[test]
    fn cold_shard_compaction_emits_columnar_segments_under_v2() {
        // A sharded store switched to V2 (e.g. after recovery, which is
        // always row-first) upgrades shards to columnar as the scheduler
        // rewrites them — and the rewritten shard answers identically.
        let mut s = ShardedStore::with_segment_bytes(3, 2048);
        for i in 0..6000u64 {
            s.append(&rec(i));
        }
        assert_eq!(s.format(), StoreFormat::V1);
        s.set_format(StoreFormat::V2);
        let policy = CompactionPolicy {
            min_records: 100,
            min_reclaimable: 0.1,
        };
        let target = s.pick_cold_shard(&policy).unwrap();
        let (shard, _) = s.maintain(&policy, |h| h.gps.is_some()).unwrap();
        assert_eq!(shard, target);
        let cols = s
            .shard(shard)
            .segments()
            .iter()
            .filter(|seg| seg.is_columnar())
            .count();
        assert!(cols > 0, "V2 rewrite must seal columnar segments");
        let expected: Vec<u64> = (0..6000u64)
            .map(rec)
            .filter(|r| shard_of(r.user, 3) == shard && r.gps.is_some())
            .map(|r| r.id)
            .collect();
        let ids: Vec<u64> = s.shard(shard).scan().map(|r| r.unwrap().id).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn merge_is_time_id_sorted_union() {
        let (sharded, single) = build(16, 3000);
        let merged = sharded.query(&Query::all());
        let mut expected = Query::all().execute(&single);
        expected.sort_by_key(|r| (r.timestamp, r.id));
        assert_eq!(merged, expected);
        for w in merged.windows(2) {
            assert!((w[0].timestamp, w[0].id) < (w[1].timestamp, w[1].id));
        }
    }

    #[test]
    fn one_shard_degenerates_to_single_store() {
        let (sharded, single) = build(1, 700);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.query(&Query::all()), Query::all().execute(&single));
    }
}
