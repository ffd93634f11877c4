//! The fused, morsel-driven execution engine (stages 2–3 in one pass).
//!
//! The staged reference path runs the paper's §III pipeline serially as
//! barrier-separated stages, materializing a fix vector, a resolved
//! vector, and a per-user key map between them. This engine fuses them,
//! and it is the only code in this crate that spawns threads: tweet rows
//! stream in fixed-size **columnar morsels** handed out by a
//! work-stealing source, and each worker runs filter → GPS check →
//! kept-user probe → bbox prescreen → batched geocode → intern →
//! [`LocationKey`] emission in one pass.
//! Nothing row-shaped survives a morsel: the only growing intermediate is
//! the emitted key itself.
//!
//! **Columnar morsels.** A morsel is a [`ColumnBatch`] — parallel
//! primitive columns (`users`, `timestamps`, e6-grid `lats_e6`/`lons_e6`,
//! and the `f64` `lats`/`lons`) instead of a `Vec` of row structs. The
//! GPS-presence check is one `i32` compare against [`NO_GPS_E6`] and the
//! coverage prescreen is four more, so the filter runs as a tight loop
//! over primitive slices with no `Option` discriminant chasing. The e6
//! columns hold each fix on the store's µ° grid, and the `f64` columns the
//! point those integers decode to — the fix as the store keeps it
//! ([`stir_tweetstore::canonical_point`]) — which is what survivors
//! geocode through [`Geocoder::resolve_id_cols`]. The prescreen only ever *rejects*, with
//! bounds widened outward (floor/ceil), so the answer is bit-identical to
//! resolving every point: the gazetteer itself rejects anything outside
//! its coverage box before touching the index.
//!
//! **Adaptive parallelism.** `threads` is a *ceiling*, not a command: the
//! scheduler caps it at `std::thread::available_parallelism()` up front
//! (see `PipelineConfig::effective_threads`) and then verifies the cap
//! empirically — after a serial warmup tranche of morsels, one probe
//! morsel per candidate worker runs in parallel and [`warmup_collapse`]
//! compares per-morsel operator time. Workers that time-slice one core
//! show inflated per-morsel CPU, and the pass collapses to serial-inline
//! rather than paying oversubscription for nothing. The decision is a
//! pure function of the two [`ExecMetrics`] samples, so tests can pin it
//! without any wall clock. `threads_exact` bypasses all of it for benches.
//!
//! **Determinism.** Every emitted key is tagged with its row's global
//! *ordinal* (input position, assigned by the source under its cursor
//! lock). Keys hash-partition by user — SplitMix64 of the user id modulo
//! `P`, so one user's keys land wholly in one partition — into
//! `Mutex<Vec<_>>` buffers, appended per morsel from thread-local
//! staging (the lock is touched once per morsel per partition, never per
//! row). Each partition then sorts by `(user, ordinal)`: ordinals are
//! unique, so the sort key is a strict total order and the result is
//! independent of worker interleaving; within a user the keys come out in
//! tweet input order, which is exactly the sequence the staged path feeds
//! the grouping kernel. Partitions group in parallel through
//! [`group_partition`] (the PR-3 merge engine) and concatenate +
//! user-id-sort at the end — users are unique across partitions, so the
//! final order is deterministic too. Funnel counters are order-independent
//! sums. The output is therefore byte-identical to the staged path at
//! every thread/morsel/partition geometry, which the property tests pin.
//!
//! **Fallback.** Below [`FUSED_PARALLEL_THRESHOLD`] buffered rows (or at
//! an effective thread count of 1) the fused pass runs inline on the
//! calling thread — prefetched morsels are processed first as owned
//! batches, so no row is lost or reordered. Prefetched morsels are also
//! how parallel workers get their guaranteed initial work: they are dealt
//! round-robin, one backlog per worker, so no worker is ever spawned with
//! zero morsels (the worker count shrinks to the morsel count first).

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stir_geoindex::Point;
use stir_geokr::service::{BackendChoice, Geocoder};
use stir_geokr::{DistrictId as GazDistrictId, GeocodeError};
use stir_tweetstore::quantize_e6;

use crate::funnel::CollectionFunnel;
use crate::grouping::{group_partition, GroupedUser, TieBreak};
use crate::input::TweetRow;
use crate::intern::{DistrictId, DistrictInterner, LocationKey};
use crate::metrics::{ExecMetrics, ExecMode, GeocodeMode, PipelineMetrics};

/// Below this many prefetched rows the fused pass stays on the calling
/// thread: spawning workers would cost more than they save on so small
/// an input.
pub const FUSED_PARALLEL_THRESHOLD: usize = 1024;

/// Serial warmup morsels the adaptive scheduler samples before deciding
/// whether parallel workers actually run in parallel on this machine.
const WARMUP_MORSELS: usize = 2;

/// The `lats_e6`/`lons_e6` sentinel for a row without a GPS fix.
/// Row intake clamps real coordinates to `i32::MIN + 1`, so no finite
/// (or infinite) coordinate can alias it.
pub const NO_GPS_E6: i32 = i32::MIN;

/// A fix on the store's micro-degree grid: [`quantize_e6`], the codec's
/// own rounding, saturated so that no input — including `-inf` — can
/// collide with [`NO_GPS_E6`]. `NaN` maps to 0, which the Korea coverage
/// prescreen rejects, matching the gazetteer (whose bbox test also
/// rejects `NaN`).
#[inline]
pub(crate) fn fix_e6(p: Point) -> (i32, i32) {
    let (lat, lon) = quantize_e6(p);
    (lat.max(NO_GPS_E6 + 1), lon.max(NO_GPS_E6 + 1))
}

/// The degrees an e6 column value decodes to — `e6 / 1e6`, lossless for
/// any µ° integer and the same division the codec decodes with — or
/// `0.0` on a GPS-less slot.
#[inline]
fn degrees(e6: i32) -> f64 {
    if e6 == NO_GPS_E6 {
        0.0
    } else {
        e6 as f64 / 1e6
    }
}

/// One columnar morsel: parallel primitive columns, one slot per row.
///
/// `lats_e6`/`lons_e6` carry the coordinates on the store's micro-degree
/// grid ([`NO_GPS_E6`] marks a GPS-less row) and drive the branch-light
/// filter loops; `lats`/`lons` carry the `f64` points those integers
/// decode to, which the geocoder resolves: the fix as the store keeps it,
/// [`stir_tweetstore::canonical_point`] (GPS-less slots hold `0.0` to
/// keep the columns dense and index-aligned). `timestamps` rides along
/// for sources that have one (the tweet store); row-fed sources fill it
/// with zeros.
#[derive(Debug, Default)]
pub struct ColumnBatch {
    /// Author ids.
    pub users: Vec<u64>,
    /// Tweet timestamps (0 when the source has none).
    pub timestamps: Vec<i64>,
    /// Latitude in micro-degrees, or [`NO_GPS_E6`].
    pub lats_e6: Vec<i32>,
    /// Longitude in micro-degrees, or [`NO_GPS_E6`].
    pub lons_e6: Vec<i32>,
    /// Stored latitude (0.0 on GPS-less slots).
    pub lats: Vec<f64>,
    /// Stored longitude (0.0 on GPS-less slots).
    pub lons: Vec<f64>,
}

impl ColumnBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with every column sized for `rows`.
    pub fn with_capacity(rows: usize) -> Self {
        ColumnBatch {
            users: Vec::with_capacity(rows),
            timestamps: Vec::with_capacity(rows),
            lats_e6: Vec::with_capacity(rows),
            lons_e6: Vec::with_capacity(rows),
            lats: Vec::with_capacity(rows),
            lons: Vec::with_capacity(rows),
        }
    }

    /// Clears every column, keeping capacity.
    pub fn clear(&mut self) {
        self.users.clear();
        self.timestamps.clear();
        self.lats_e6.clear();
        self.lons_e6.clear();
        self.lats.clear();
        self.lons.clear();
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Appends one row. The fix is rounded once onto the store's µ° grid
    /// ([`quantize_e6`], the codec's rounding), so a raw fix lands exactly
    /// as the same fix read back from a store.
    #[inline]
    pub fn push(&mut self, user: u64, timestamp: i64, gps: Option<Point>) {
        self.users.push(user);
        self.timestamps.push(timestamp);
        let (lat_e6, lon_e6) = gps.map_or((NO_GPS_E6, NO_GPS_E6), fix_e6);
        self.lats_e6.push(lat_e6);
        self.lons_e6.push(lon_e6);
        self.lats.push(degrees(lat_e6));
        self.lons.push(degrees(lon_e6));
    }

    /// Appends one [`TweetRow`] (no timestamp — filled with 0).
    #[inline]
    pub fn push_row(&mut self, row: &TweetRow) {
        self.push(row.user, 0, row.gps);
    }

    /// Bulk-appends one block of tweet-store column slices — the
    /// zero-decode path from a columnar (`STIRSEG2`) segment. The store's
    /// e6 integers are this batch's grid already (`i32::MIN` marks a
    /// GPS-less row there too), so they are copied as they are.
    pub fn push_store_columns(
        &mut self,
        users: &[u64],
        timestamps: &[u64],
        lats_e6: &[i32],
        lons_e6: &[i32],
    ) {
        debug_assert!(
            users.len() == timestamps.len()
                && users.len() == lats_e6.len()
                && users.len() == lons_e6.len()
        );
        self.users.extend_from_slice(users);
        self.timestamps.extend(timestamps.iter().map(|&t| t as i64));
        self.lats_e6.extend_from_slice(lats_e6);
        self.lons_e6.extend_from_slice(lons_e6);
        self.lats.extend(lats_e6.iter().map(|&e6| degrees(e6)));
        self.lons.extend(lons_e6.iter().map(|&e6| degrees(e6)));
    }

    /// Total allocated capacity across all columns, in bytes — the
    /// batch's contribution to the peak-intermediate estimate.
    pub fn capacity_bytes(&self) -> u64 {
        (self.users.capacity() * size_of::<u64>()
            + self.timestamps.capacity() * size_of::<i64>()
            + self.lats_e6.capacity() * size_of::<i32>()
            + self.lons_e6.capacity() * size_of::<i32>()
            + self.lats.capacity() * size_of::<f64>()
            + self.lons.capacity() * size_of::<f64>()) as u64
    }
}

/// The gazetteer's coverage box on the e6 grid, widened outward
/// (floor − 2 / ceil + 2) so a rejection on quantized coordinates is
/// always a true rejection on the point they decode to: [`fix_e6`] sits
/// within ½ µ° of `x·1e6` (plus sub-µ° product rounding), and a quantized
/// value two whole steps below the floor of the bound leaves no room for
/// that slack — `fix_e6(p).0 < min_lat` implies `p.lat < bbox.min_lat`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CoverE6 {
    min_lat: i32,
    max_lat: i32,
    min_lon: i32,
    max_lon: i32,
}

impl CoverE6 {
    fn from_bbox(b: &stir_geoindex::BBox) -> Self {
        CoverE6 {
            min_lat: ((b.min_lat * 1e6).floor() as i32).saturating_sub(2),
            max_lat: ((b.max_lat * 1e6).ceil() as i32).saturating_add(2),
            min_lon: ((b.min_lon * 1e6).floor() as i32).saturating_sub(2),
            max_lon: ((b.max_lon * 1e6).ceil() as i32).saturating_add(2),
        }
    }

    /// The Korean gazetteer's coverage box — the only backend the
    /// prescreen applies to (remote backends have test-pinned per-lookup
    /// traffic that a prescreen would silently change).
    pub(crate) fn korea() -> Self {
        Self::from_bbox(&stir_geokr::gazetteer::KOREA_BBOX)
    }

    /// True when the e6 point is provably outside the exact box.
    #[inline]
    pub(crate) fn rejects(&self, lat_e6: i32, lon_e6: i32) -> bool {
        lat_e6 < self.min_lat
            || lat_e6 > self.max_lat
            || lon_e6 < self.min_lon
            || lon_e6 > self.max_lon
    }
}

/// A source of columnar tweet morsels that many workers can drain
/// concurrently.
///
/// `next_morsel` clears `buf`, fills its columns with the next batch of
/// rows, and returns the global **ordinal** (0-based input position) of
/// the batch's first row, or `None` when the source is exhausted.
/// Ordinals must be strictly increasing across successive batches and row
/// `i` of a batch must rank at `first + i`: the engine tags every emitted
/// key with them to reconstruct input order after the parallel
/// free-for-all. A source may skip rows (e.g. corrupt store records) —
/// gaps only waste ordinals, which need to be unique and monotone, not
/// dense.
pub trait MorselSource: Sync {
    /// Fills `buf` with the next morsel; returns its first row's ordinal.
    fn next_morsel(&self, buf: &mut ColumnBatch) -> Option<u64>;

    /// Rows a full morsel carries (buffer-capacity hint and metrics label).
    fn morsel_rows(&self) -> usize;
}

/// Adapts any row iterator into a [`MorselSource`]: a mutex around the
/// iterator hands out `morsel_rows`-sized column batches with a running
/// ordinal. The lock is held once per morsel, not per row.
pub struct RowSource<I> {
    state: Mutex<(I, u64)>,
    morsel_rows: usize,
}

impl<I: Iterator<Item = TweetRow> + Send> RowSource<I> {
    /// Wraps `rows`, batching `morsel_rows` rows per draw (min 1).
    pub fn new(rows: I, morsel_rows: usize) -> Self {
        RowSource {
            state: Mutex::new((rows, 0)),
            morsel_rows: morsel_rows.max(1),
        }
    }
}

impl<I: Iterator<Item = TweetRow> + Send> MorselSource for RowSource<I> {
    fn next_morsel(&self, buf: &mut ColumnBatch) -> Option<u64> {
        buf.clear();
        let mut state = self.state.lock().expect("row source poisoned");
        let (rows, next_ordinal) = &mut *state;
        let first = *next_ordinal;
        for row in rows.take(self.morsel_rows) {
            buf.push_row(&row);
        }
        *next_ordinal += buf.len() as u64;
        if buf.is_empty() {
            None
        } else {
            Some(first)
        }
    }

    fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }
}

/// Everything a fused pass needs from the pipeline, borrowed.
pub(crate) struct FusedParams<'a> {
    /// The assembled geocoding backend (shared by all workers).
    pub backend: &'a dyn Geocoder,
    /// Which backend `backend` is — drives the mode label only.
    pub choice: BackendChoice,
    /// Kept users → interned profile district (stage-1 output).
    pub kept: &'a HashMap<u64, DistrictId>,
    /// Gazetteer district id → interned grouping id.
    pub gaz_to_interned: &'a [DistrictId],
    /// The district symbol table (grouping boundary).
    pub interner: &'a DistrictInterner,
    /// Grouping tie-break policy.
    pub tie_break: TieBreak,
    /// Planned worker count (≥ 1), already capped at the machine's
    /// parallelism unless `threads_exact`.
    pub threads: usize,
    /// The configured `--threads` value before capping (metrics only).
    pub threads_ceiling: usize,
    /// Obey `threads` exactly: skip the availability cap *and* the
    /// warmup-collapse check (the bench escape hatch).
    pub threads_exact: bool,
    /// Hash partitions for emitted keys (≥ 1) when the pass goes parallel.
    pub partitions: usize,
    /// Coverage prescreen on the e6 grid; `None` for backends whose
    /// per-lookup traffic must stay exact (Yahoo, resilient).
    pub cover: Option<CoverE6>,
}

/// A row that survived filter + probe, waiting on its morsel's geocode:
/// `(ordinal, user, profile district)`.
type Pending = (u64, u64, DistrictId);

/// One batched-geocode answer (per-point, like the staged path's).
type Resolved = Result<Option<GazDistrictId>, GeocodeError>;

/// The staged path's fix record — referenced here only to estimate, from
/// the fused pass's counters, what the reference path would have held.
type StagedFix = (u64, u64, Point, DistrictId);

/// Counters one worker accumulates over its morsels.
#[derive(Default)]
struct WorkerStats {
    morsels: u64,
    rows_in: u64,
    gps_rows: u64,
    kept_probes: u64,
    fixes: u64,
    bbox_rejected: u64,
    keys: u64,
    unresolved: u64,
    filter_wall: Duration,
    geocode_wall: Duration,
    partition_wall: Duration,
    /// Final capacity of the worker's reusable morsel buffers, in bytes —
    /// its contribution to the peak-intermediate estimate.
    buffer_bytes: u64,
}

impl WorkerStats {
    /// Folds another worker's (or tranche's) counters into this one.
    fn merge(&mut self, o: WorkerStats) {
        self.morsels += o.morsels;
        self.rows_in += o.rows_in;
        self.gps_rows += o.gps_rows;
        self.kept_probes += o.kept_probes;
        self.fixes += o.fixes;
        self.bbox_rejected += o.bbox_rejected;
        self.keys += o.keys;
        self.unresolved += o.unresolved;
        self.filter_wall += o.filter_wall;
        self.geocode_wall += o.geocode_wall;
        self.partition_wall += o.partition_wall;
        self.buffer_bytes += o.buffer_bytes;
    }
}

/// The engine's user hash is the store layer's shard hash — delegating
/// keeps the two permutations identical by construction, so a sharded
/// store's per-shard user populations spread across pipeline partitions
/// exactly as a single store's would.
fn splitmix64(x: u64) -> u64 {
    stir_tweetstore::splitmix64(x)
}

/// The partition a user's keys land in — a pure function of the user id
/// and the partition count, so the layout never depends on threads.
fn partition_of(user: u64, partitions: usize) -> usize {
    (splitmix64(user) % partitions as u64) as usize
}

/// Rearranges one partition's `(ordinal, key)` pairs into the
/// user-contiguous, ordinal-ascending runs [`group_partition`] needs,
/// without paying a full comparison sort. Pairs are counted and scattered
/// into power-of-two buckets keyed by the *upper* bits of the user's
/// splitmix64 hash (the partition choice consumed the hash modulo the
/// partition count, so the upper bits still spread users within one
/// partition), then each small bucket is sorted by `(user, ordinal)`.
/// Every user lands wholly in one bucket, so the concatenation of buckets
/// is run-contiguous; run order is an arbitrary pure function of the user
/// ids, independent of threads, and the caller's final user-id merge sort
/// erases it. A bucket typically holds one or two users' runs — and on the
/// serial path a run arrives already ordinal-ordered — so the per-bucket
/// sorts run near `O(n)` instead of the full `n·log n`.
fn arrange_runs(pairs: &mut Vec<(u64, LocationKey)>) {
    /// Pairs per bucket to aim for when sizing the bucket table.
    const TARGET: usize = 8;
    let n = pairs.len();
    if n <= 64 {
        pairs.sort_unstable_by_key(|&(ordinal, k)| (k.user, ordinal));
        return;
    }
    let buckets = (n / TARGET).next_power_of_two().min(1 << 16);
    let mask = (buckets - 1) as u64;
    let bucket_of = |user: u64| ((splitmix64(user) >> 32) & mask) as usize;
    let mut starts = vec![0usize; buckets + 1];
    for &(_, k) in pairs.iter() {
        starts[bucket_of(k.user) + 1] += 1;
    }
    for b in 0..buckets {
        starts[b + 1] += starts[b];
    }
    let mut cursor: Vec<usize> = starts[..buckets].to_vec();
    let mut scratch = vec![pairs[0]; n];
    for &pair in pairs.iter() {
        let b = bucket_of(pair.1.user);
        scratch[cursor[b]] = pair;
        cursor[b] += 1;
    }
    for b in 0..buckets {
        let (s, e) = (starts[b], starts[b + 1]);
        if e - s > 1 {
            scratch[s..e].sort_unstable_by_key(|&(ordinal, k)| (k.user, ordinal));
        }
    }
    *pairs = scratch;
}

/// Reusable per-worker scratch: the survivors of one morsel's filter, the
/// exact coordinates feeding the columnar geocode, its answers, and the
/// per-partition staging flushed once per morsel.
struct Scratch {
    pending: Vec<Pending>,
    lats: Vec<f64>,
    lons: Vec<f64>,
    resolved: Vec<Resolved>,
    staging: Vec<Vec<(u64, LocationKey)>>,
}

impl Scratch {
    fn new(partitions: usize) -> Self {
        Scratch {
            pending: Vec::new(),
            lats: Vec::new(),
            lons: Vec::new(),
            resolved: Vec::new(),
            staging: (0..partitions).map(|_| Vec::new()).collect(),
        }
    }

    fn capacity_bytes(&self) -> u64 {
        (self.pending.capacity() * size_of::<Pending>()
            + self.lats.capacity() * size_of::<f64>()
            + self.lons.capacity() * size_of::<f64>()
            + self.resolved.capacity() * size_of::<Resolved>()) as u64
    }
}

/// One morsel through the fused operators: columnar filter (presence +
/// kept probe + coverage prescreen), columnar geocode, intern + emit.
fn process_morsel(
    first: u64,
    batch: &ColumnBatch,
    p: &FusedParams<'_>,
    partitions: &[Mutex<Vec<(u64, LocationKey)>>],
    scratch: &mut Scratch,
    stats: &mut WorkerStats,
) {
    stats.morsels += 1;
    let n = batch.len();
    stats.rows_in += n as u64;

    // Filter: the presence check is one i32 compare per row and the
    // coverage prescreen four more, all over primitive columns; only the
    // kept-cohort probe touches a hash map. The profile district rides in
    // the pending record, so the key build below never re-hashes the user.
    let filter_start = Instant::now();
    scratch.pending.clear();
    scratch.lats.clear();
    scratch.lons.clear();
    for i in 0..n {
        let lat_e6 = batch.lats_e6[i];
        if lat_e6 == NO_GPS_E6 {
            continue;
        }
        stats.gps_rows += 1;
        stats.kept_probes += 1;
        let user = batch.users[i];
        let Some(&profile) = p.kept.get(&user) else {
            continue;
        };
        if let Some(cover) = &p.cover {
            if cover.rejects(lat_e6, batch.lons_e6[i]) {
                // Provably outside coverage: the gazetteer would answer
                // None, so skip the lookup and count the fix unresolved.
                stats.fixes += 1;
                stats.bbox_rejected += 1;
                stats.unresolved += 1;
                continue;
            }
        }
        scratch.pending.push((first + i as u64, user, profile));
        scratch.lats.push(batch.lats[i]);
        scratch.lons.push(batch.lons[i]);
    }
    stats.fixes += scratch.pending.len() as u64;
    stats.filter_wall += filter_start.elapsed();

    // Geocode the morsel's survivors in one columnar backend call
    // (per-point results, identical semantics to point-at-a-time).
    let geocode_start = Instant::now();
    p.backend
        .resolve_id_cols(&scratch.lats, &scratch.lons, &mut scratch.resolved);
    stats.geocode_wall += geocode_start.elapsed();

    // Intern + emit: tag with the ordinal, stage by partition, flush
    // each partition's staging once per morsel.
    let partition_start = Instant::now();
    let partition_count = partitions.len();
    for (&(ordinal, user, profile), rec) in scratch.pending.iter().zip(&scratch.resolved) {
        match rec {
            Ok(Some(gaz_id)) => {
                stats.keys += 1;
                let key = LocationKey {
                    user,
                    profile,
                    tweet: p.gaz_to_interned[gaz_id.0 as usize],
                };
                let slot = if partition_count == 1 {
                    0
                } else {
                    partition_of(user, partition_count)
                };
                scratch.staging[slot].push((ordinal, key));
            }
            _ => stats.unresolved += 1,
        }
    }
    for (stage, partition) in scratch.staging.iter_mut().zip(partitions) {
        if !stage.is_empty() {
            partition.lock().expect("partition poisoned").append(stage);
        }
    }
    stats.partition_wall += partition_start.elapsed();
}

/// One worker's whole pass: process the owned `initial` morsels first
/// (round-robin backlog, the no-empty-worker guarantee), then drain
/// `source` until dry (when given — warmup/probe tranches pass `None`).
fn worker_pass(
    initial: Vec<(u64, ColumnBatch)>,
    source: Option<&dyn MorselSource>,
    p: &FusedParams<'_>,
    partitions: &[Mutex<Vec<(u64, LocationKey)>>],
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut scratch = Scratch::new(partitions.len());
    let mut batch_bytes = 0u64;
    for (first, batch) in &initial {
        batch_bytes = batch_bytes.max(batch.capacity_bytes());
        process_morsel(*first, batch, p, partitions, &mut scratch, &mut stats);
    }
    drop(initial);
    if let Some(source) = source {
        let mut buf = ColumnBatch::with_capacity(source.morsel_rows());
        while let Some(first) = source.next_morsel(&mut buf) {
            process_morsel(first, &buf, p, partitions, &mut scratch, &mut stats);
        }
        batch_bytes = batch_bytes.max(buf.capacity_bytes());
    }
    stats.buffer_bytes = batch_bytes + scratch.capacity_bytes();
    stats
}

/// Deals morsels round-robin into one owned backlog per worker. Every
/// worker gets at least one morsel when `morsels.len() >= workers`, which
/// the caller guarantees by shrinking the worker count first.
fn deal(morsels: Vec<(u64, ColumnBatch)>, workers: usize) -> Vec<Vec<(u64, ColumnBatch)>> {
    let mut out: Vec<Vec<(u64, ColumnBatch)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, m) in morsels.into_iter().enumerate() {
        out[i % workers].push(m);
    }
    out
}

/// Condenses worker counters into the sample shape [`warmup_collapse`]
/// consumes: morsel count plus the three fused-operator walls.
fn sample(stats: &[WorkerStats]) -> ExecMetrics {
    let mut m = ExecMetrics::default();
    for s in stats {
        m.morsels += s.morsels;
        m.filter_wall += s.filter_wall;
        m.geocode_wall += s.geocode_wall;
        m.partition_wall += s.partition_wall;
    }
    m
}

/// The adaptive scheduler's collapse decision: given a serial warmup
/// sample and a parallel probe sample (one morsel per worker, run
/// concurrently), should the pass fall back to serial-inline?
///
/// Physics: each sample's per-morsel operator time is its summed
/// filter/geocode/partition walls divided by its morsel count. Workers
/// that genuinely run in parallel show per-morsel time ≈ the serial
/// sample; workers time-slicing a core show it inflated toward
/// `workers ×` serial, because a descheduled worker's wall keeps
/// ticking. The pass collapses when the parallel per-morsel time exceeds
/// the midpoint, `(workers + 1) / 2 ×` serial — integer arithmetic on
/// nanoseconds, no floats.
///
/// This is a **pure function of the two samples**: no clock is read, so
/// the decision is reproducible from injected [`ExecMetrics`] values
/// (which the unit tests do). Degenerate samples (fewer than 2 workers,
/// an empty sample, or a zero-time serial baseline) never collapse.
pub fn warmup_collapse(workers: usize, serial: &ExecMetrics, parallel: &ExecMetrics) -> bool {
    if workers < 2 || serial.morsels == 0 || parallel.morsels == 0 {
        return false;
    }
    let per_morsel = |m: &ExecMetrics| -> u128 {
        (m.filter_wall + m.geocode_wall + m.partition_wall).as_nanos() / m.morsels as u128
    };
    let s = per_morsel(serial);
    if s == 0 {
        return false;
    }
    2 * per_morsel(parallel) > (workers as u128 + 1) * s
}

/// Runs stages 2–3 fused: one morsel-driven pass from `source` to grouped
/// users. Fills the funnel's tweet counters, the geocode/grouping metric
/// slots (so staged-path consumers see the same fields filled), and the
/// [`ExecMetrics`] slot.
pub(crate) fn run_fused(
    source: &dyn MorselSource,
    p: &FusedParams<'_>,
    funnel: &mut CollectionFunnel,
    metrics: &mut PipelineMetrics,
) -> Vec<GroupedUser> {
    let planned = p.threads.max(1);
    let phase1_start = Instant::now();

    // Peek at the input: buffer morsels until the parallel threshold is
    // reached *and* there are enough to give every candidate worker (plus
    // the adaptive warmup) an owned backlog, or the source runs dry.
    let mut prefetched: Vec<(u64, ColumnBatch)> = Vec::new();
    let mut buffered_rows = 0usize;
    if planned > 1 {
        let want = if p.threads_exact {
            planned
        } else {
            planned + WARMUP_MORSELS
        };
        let mut buf = ColumnBatch::new();
        while buffered_rows < FUSED_PARALLEL_THRESHOLD || prefetched.len() < want {
            match source.next_morsel(&mut buf) {
                Some(first) => {
                    buffered_rows += buf.len();
                    prefetched.push((first, std::mem::take(&mut buf)));
                }
                None => break,
            }
        }
    }
    let go_parallel = planned > 1 && buffered_rows >= FUSED_PARALLEL_THRESHOLD;
    // Hash partitioning stays on even for a serial pass: P small sorts
    // beat one big one (smaller n·log n, better locality), and the
    // uncontended per-morsel flush locks cost nothing.
    let partition_count = p.partitions.max(1);
    let partitions: Vec<Mutex<Vec<(u64, LocationKey)>>> = (0..partition_count)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    // A Copy reference for the spawn closures (a `move` closure would
    // otherwise capture the Vec itself).
    let parts: &[Mutex<Vec<(u64, LocationKey)>>] = &partitions;

    // Phase 1: the fused filter→geocode→partition pass.
    let stats: Vec<WorkerStats> = if !go_parallel {
        vec![worker_pass(prefetched, Some(source), p, parts)]
    } else if p.threads_exact {
        // Exact mode: spawn min(threads, prefetched morsels) workers, one
        // owned morsel each (round-robin), then share the live source.
        let workers = planned.min(prefetched.len());
        if workers <= 1 {
            vec![worker_pass(prefetched, Some(source), p, parts)]
        } else {
            let owned = deal(prefetched, workers);
            std::thread::scope(|s| {
                let handles: Vec<_> = owned
                    .into_iter()
                    .map(|mine| s.spawn(move || worker_pass(mine, Some(source), p, parts)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fused worker panicked"))
                    .collect()
            })
        }
    } else {
        // Adaptive mode: serial warmup sample, then one probe morsel per
        // candidate worker in parallel; collapse to serial-inline if the
        // probe shows the workers time-slicing instead of running.
        let mut rest = prefetched;
        let take = WARMUP_MORSELS.min(rest.len());
        let warm: Vec<_> = rest.drain(..take).collect();
        let mut warmup = worker_pass(warm, None, p, parts);
        let workers = planned.min(rest.len());
        if workers <= 1 {
            warmup.merge(worker_pass(rest, Some(source), p, parts));
            vec![warmup]
        } else {
            let tranche: Vec<_> = rest.drain(..workers).collect();
            let tranche_stats: Vec<WorkerStats> = std::thread::scope(|s| {
                let handles: Vec<_> = tranche
                    .into_iter()
                    .map(|m| s.spawn(move || worker_pass(vec![m], None, p, parts)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe worker panicked"))
                    .collect()
            });
            if warmup_collapse(
                workers,
                &sample(std::slice::from_ref(&warmup)),
                &sample(&tranche_stats),
            ) {
                for t in tranche_stats {
                    warmup.merge(t);
                }
                warmup.merge(worker_pass(rest, Some(source), p, parts));
                vec![warmup]
            } else {
                let owned = deal(rest, workers);
                let mut stats: Vec<WorkerStats> = std::thread::scope(|s| {
                    let handles: Vec<_> = owned
                        .into_iter()
                        .map(|mine| s.spawn(move || worker_pass(mine, Some(source), p, parts)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("fused worker panicked"))
                        .collect()
                });
                // Every worker already drew a probe morsel, so per-thread
                // counts are all ≥ 1; the warmup ran on the calling
                // thread and folds into the first worker's tally.
                for (w, t) in stats.iter_mut().zip(tranche_stats) {
                    w.merge(t);
                }
                stats[0].merge(warmup);
                stats
            }
        }
    };
    let workers = stats.len();
    let phase1_wall = phase1_start.elapsed();

    // Phase 2: partitions sort + group in parallel, then merge in user-id
    // order (users are unique, so concatenate-and-sort is deterministic).
    let phase2_start = Instant::now();
    let partition_keys: Vec<u64> = partitions
        .iter()
        .map(|m| m.lock().expect("partition poisoned").len() as u64)
        .collect();
    let group_workers = if workers > 1 && partition_count > 1 {
        workers.min(partition_count)
    } else {
        1
    };
    let cursor = AtomicUsize::new(0);
    let group_one = |draws: &mut u64, group_wall: &mut Duration| {
        let mut parts: Vec<(usize, Vec<GroupedUser>)> = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= partition_count {
                break;
            }
            *draws += 1;
            let start = Instant::now();
            let mut pairs =
                std::mem::take(&mut *partitions[idx].lock().expect("partition poisoned"));
            if pairs.is_empty() {
                continue;
            }
            arrange_runs(&mut pairs);
            parts.push((idx, group_partition(&pairs, p.interner, p.tie_break)));
            *group_wall += start.elapsed();
        }
        parts
    };
    let mut draws_per_thread = vec![0u64; group_workers];
    let mut group_wall = Duration::ZERO;
    let mut by_partition: Vec<Vec<GroupedUser>> =
        (0..partition_count).map(|_| Vec::new()).collect();
    if group_workers == 1 {
        for (idx, grouped) in group_one(&mut draws_per_thread[0], &mut group_wall) {
            by_partition[idx] = grouped;
        }
    } else {
        type GroupWorkerResult = (Vec<(usize, Vec<GroupedUser>)>, u64, Duration);
        let results: Vec<GroupWorkerResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..group_workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut draws = 0u64;
                        let mut wall = Duration::ZERO;
                        let parts = group_one(&mut draws, &mut wall);
                        (parts, draws, wall)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("group worker panicked"))
                .collect()
        });
        for (t, (parts, draws, wall)) in results.into_iter().enumerate() {
            draws_per_thread[t] = draws;
            group_wall += wall;
            for (idx, grouped) in parts {
                by_partition[idx] = grouped;
            }
        }
    }
    let merge_start = Instant::now();
    let mut grouped: Vec<GroupedUser> = by_partition.into_iter().flatten().collect();
    grouped.sort_unstable_by_key(|g| g.user);
    let merge_wall = merge_start.elapsed();
    let grouping_wall = phase2_start.elapsed();

    // Fold worker counters. `threads`/`partitions` report the *executed*
    // geometry; the configured ceiling and partition count ride alongside
    // so the render never conflates the two (the serial-inline path used
    // to report the configured numbers as if they had run).
    let mut exec = ExecMetrics {
        threads: workers,
        threads_ceiling: p.threads_ceiling.max(1),
        mode: if workers > 1 {
            ExecMode::Parallel
        } else {
            ExecMode::SerialInline
        },
        morsel_rows: source.morsel_rows(),
        partitions: partition_count,
        partitions_configured: p.partitions.max(1),
        morsels_per_thread: Vec::with_capacity(workers),
        partition_keys,
        merge_wall,
        group_wall,
        ..ExecMetrics::default()
    };
    let mut buffer_bytes = 0u64;
    for s in &stats {
        exec.morsels += s.morsels;
        exec.morsels_per_thread.push(s.morsels);
        exec.rows_in += s.rows_in;
        exec.gps_rows += s.gps_rows;
        exec.kept_probes += s.kept_probes;
        exec.fixes += s.fixes;
        exec.bbox_rejected += s.bbox_rejected;
        exec.keys_emitted += s.keys;
        exec.unresolved += s.unresolved;
        exec.filter_wall += s.filter_wall;
        exec.geocode_wall += s.geocode_wall;
        exec.partition_wall += s.partition_wall;
        buffer_bytes += s.buffer_bytes;
    }
    let pair = size_of::<(u64, LocationKey)>() as u64;
    exec.peak_bytes_estimate = exec.keys_emitted * pair + buffer_bytes;
    // What the staged path materializes for the same input: the fix
    // vector, the same-length resolved vector, and the per-user key map
    // (keys + per-user Vec headers + map-slot overhead).
    let users = grouped.len() as u64;
    exec.staged_bytes_estimate = exec.fixes
        * (size_of::<StagedFix>() + size_of::<Option<GazDistrictId>>()) as u64
        + exec.keys_emitted * size_of::<LocationKey>() as u64
        + users * (size_of::<(u64, Vec<LocationKey>)>() as u64 + 16);

    // Funnel: order-independent sums, so the parallel pass lands the same
    // totals as the staged loop.
    funnel.tweets_total += exec.rows_in;
    funnel.tweets_with_gps += exec.gps_rows;
    funnel.tweets_gps_unresolvable += exec.unresolved;
    funnel.strings_built += exec.keys_emitted;
    funnel.users_final = users;

    // Geocode metrics: same fields the staged path fills, plus the
    // backend's exact traffic partition.
    metrics.geocode.fixes = exec.fixes;
    metrics.geocode.mode = match (p.choice, workers > 1) {
        (BackendChoice::Gazetteer, false) => GeocodeMode::DirectSerial,
        (BackendChoice::Gazetteer, true) => GeocodeMode::DirectParallel,
        (BackendChoice::Yahoo, _) => GeocodeMode::YahooXml,
        (BackendChoice::Resilient, _) => GeocodeMode::Resilient,
    };
    metrics.geocode.threads = workers;
    metrics.geocode.blocks_per_thread = if workers > 1 {
        exec.morsels_per_thread.clone()
    } else {
        Vec::new()
    };
    let traffic = p.backend.traffic();
    metrics.geocode.lookups = traffic.lookups;
    metrics.geocode.cache_hits = traffic.cache_hits;
    metrics.geocode.traffic = traffic;
    funnel.yahoo_quota_days = metrics.geocode.traffic.quota_days;
    // Stage walls: the operators are fused, so "intake" is the summed
    // filter-operator time (a subset of the pass, like the scan wall on
    // store runs) and "geocode" is the whole phase-1 wall.
    metrics.stages.tweet_intake = exec.filter_wall;
    metrics.stages.geocode = phase1_wall;
    metrics.geocode.wall = phase1_wall;

    // Grouping metrics, shaped like the staged path's.
    metrics.stages.grouping = grouping_wall;
    metrics.grouping.strings = exec.keys_emitted;
    metrics.grouping.users = users;
    metrics.grouping.merged_entries = grouped.iter().map(|u| u.entries.len() as u64).sum();
    metrics.grouping.interner_size = p.interner.len() as u64;
    metrics.grouping.threads = group_workers;
    metrics.grouping.blocks_per_thread = if group_workers == 1 {
        vec![1]
    } else {
        draws_per_thread
    };
    metrics.grouping.wall = grouping_wall;
    metrics.exec = Some(exec);
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_source_hands_out_dense_monotone_ordinals() {
        let rows: Vec<TweetRow> = (0..10).map(|i| TweetRow::plain(i, i)).collect();
        let source = RowSource::new(rows.into_iter(), 3);
        let mut buf = ColumnBatch::new();
        let mut firsts = Vec::new();
        let mut lens = Vec::new();
        while let Some(first) = source.next_morsel(&mut buf) {
            firsts.push(first);
            lens.push(buf.len());
        }
        assert_eq!(firsts, vec![0, 3, 6, 9]);
        assert_eq!(lens, vec![3, 3, 3, 1]);
        assert_eq!(source.next_morsel(&mut buf), None);
    }

    #[test]
    fn partition_choice_is_a_pure_function_of_user_and_count() {
        for user in [0u64, 1, 17, u64::MAX] {
            for partitions in [1usize, 2, 7, 64] {
                let a = partition_of(user, partitions);
                assert!(a < partitions);
                assert_eq!(a, partition_of(user, partitions));
            }
        }
    }

    #[test]
    fn arrange_runs_yields_contiguous_ordinal_ordered_runs() {
        let mut interner = DistrictInterner::new();
        let d = interner.intern("Seoul", "Yangchun-gu");
        // 40 users × 10 keys, emitted interleaved (every user in every
        // round) and big enough to take the bucket-scatter path.
        let mut pairs: Vec<(u64, LocationKey)> = Vec::new();
        for round in 0..10u64 {
            for user in 0..40u64 {
                let ordinal = user * 10 + round;
                let key = LocationKey {
                    user,
                    profile: d,
                    tweet: d,
                };
                pairs.push((ordinal, key));
            }
        }
        let mut expected = pairs.clone();
        expected.sort_unstable_by_key(|&(o, k)| (k.user, o));
        arrange_runs(&mut pairs);
        // Every user forms exactly one run, ordinals ascend inside it,
        // and nothing was dropped or duplicated.
        let mut seen = std::collections::HashSet::new();
        let mut i = 0;
        while i < pairs.len() {
            let user = pairs[i].1.user;
            assert!(seen.insert(user), "user {user} split across runs");
            while i + 1 < pairs.len() && pairs[i + 1].1.user == user {
                assert!(pairs[i].0 < pairs[i + 1].0, "ordinals out of order");
                i += 1;
            }
            i += 1;
        }
        let mut sorted = pairs.clone();
        sorted.sort_unstable_by_key(|&(o, k)| (k.user, o));
        assert_eq!(sorted, expected);
        // The small-partition path is a plain sort; same properties hold.
        let mut small = expected[..50].to_vec();
        arrange_runs(&mut small);
        assert_eq!(small, expected[..50].to_vec());
    }

    #[test]
    fn column_batch_keeps_columns_aligned_and_exact() {
        let mut b = ColumnBatch::with_capacity(4);
        b.push(7, 1_300_000_000, Some(Point::new(37.517, 126.866)));
        b.push(8, 0, None);
        b.push_row(&TweetRow::tagged(9, 3, -33.8688, 151.2093));
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.users, vec![7, 8, 9]);
        assert_eq!(b.timestamps, vec![1_300_000_000, 0, 0]);
        // The e6 columns round (within ½ µ° of the exact product);
        // GPS-less slots hold the sentinel.
        for (i, (lat, lon)) in [(37.517f64, 126.866f64), (0.0, 0.0), (-33.8688, 151.2093)]
            .iter()
            .enumerate()
        {
            if i == 1 {
                assert_eq!(b.lats_e6[i], NO_GPS_E6);
                assert_eq!(b.lons_e6[i], NO_GPS_E6);
            } else {
                assert!((b.lats_e6[i] as f64 - lat * 1e6).abs() <= 0.5);
                assert!((b.lons_e6[i] as f64 - lon * 1e6).abs() <= 0.5);
            }
        }
        // The f64 columns stay exact and dense (GPS-less slots hold 0.0).
        assert_eq!(b.lats, vec![37.517, 0.0, -33.8688]);
        assert_eq!(b.lons, vec![126.866, 0.0, 151.2093]);
        b.clear();
        assert!(b.is_empty());
        assert!(b.capacity_bytes() > 0, "capacity survives clear");
    }

    #[test]
    fn column_batch_keeps_the_point_the_store_keeps() {
        // A raw fix with sub-µ° digits lands in the columns exactly as the
        // same fix decoded from the store does.
        let raw = Point::new(37.517_000_4, 126.865_999_6);
        let mut from_rows = ColumnBatch::new();
        from_rows.push(7, 0, Some(raw));
        let mut from_store = ColumnBatch::new();
        from_store.push_store_columns(&[7], &[0], &[37_517_000], &[126_866_000]);
        assert_eq!(from_rows.lats, vec![37.517]);
        assert_eq!(from_rows.lons, vec![126.866]);
        assert_eq!(from_rows.lats, from_store.lats);
        assert_eq!(from_rows.lons, from_store.lons);
        assert_eq!(from_rows.lats_e6, from_store.lats_e6);
        assert_eq!(from_rows.lons_e6, from_store.lons_e6);
    }

    #[test]
    fn quantization_saturates_away_from_the_sentinel() {
        // No real coordinate — however pathological — may alias the
        // GPS-less sentinel.
        // (A struct literal: `Point::new` debug-asserts finite input.)
        let e6 = |lat, lon| fix_e6(Point { lat, lon });
        assert_eq!(e6(f64::NEG_INFINITY, 0.0), (i32::MIN + 1, 0));
        assert_ne!(e6(f64::NEG_INFINITY, 0.0).0, NO_GPS_E6);
        assert_eq!(e6(0.0, f64::NEG_INFINITY), (0, i32::MIN + 1));
        assert_eq!(e6(f64::INFINITY, 1e30), (i32::MAX, i32::MAX));
        assert_eq!(e6(-1e30, -1e30), (i32::MIN + 1, i32::MIN + 1));
        assert_eq!(e6(f64::NAN, f64::NAN), (0, 0));
        // Rounding lands within ½ µ° of the exact product, on the codec's
        // own grid.
        for x in [37.517, -33.8688, 126.866, 0.0000004, -0.0000006] {
            let (lat, lon) = e6(x, -x);
            assert!((lat as f64 - x * 1e6).abs() <= 0.5, "{x}");
            assert_eq!((lat, lon), quantize_e6(Point { lat: x, lon: -x }), "{x}");
        }
    }

    #[test]
    fn coverage_prescreen_never_rejects_a_resolvable_point() {
        let cover = CoverE6::korea();
        let rejects = |lat, lon| {
            let (lat_e6, lon_e6) = fix_e6(Point { lat, lon });
            cover.rejects(lat_e6, lon_e6)
        };
        // Points inside (and exactly on the edge of) the Korea box pass.
        for (lat, lon) in [
            (37.517, 126.866),
            (32.5, 124.0),
            (39.5, 132.0),
            (33.0, 126.5),
        ] {
            assert!(!rejects(lat, lon), "({lat}, {lon}) wrongly prescreened");
        }
        // Clearly-outside points are rejected without a lookup.
        for (lat, lon) in [
            (35.68, 139.69), // Tokyo
            (-33.86, 151.2), // Sydney
            (0.0, 0.0),
            (f64::NAN, f64::NAN),
            (f64::NEG_INFINITY, 126.9),
        ] {
            assert!(rejects(lat, lon), "({lat}, {lon}) not prescreened");
        }
    }

    #[test]
    fn warmup_collapse_is_a_pure_function_of_injected_samples() {
        // Build samples by hand — no clock anywhere near the decision.
        let sample = |morsels: u64, nanos_per_morsel: u64| ExecMetrics {
            morsels,
            filter_wall: Duration::from_nanos(morsels * nanos_per_morsel / 2),
            geocode_wall: Duration::from_nanos(morsels * nanos_per_morsel / 4),
            partition_wall: Duration::from_nanos(morsels * nanos_per_morsel / 4),
            ..ExecMetrics::default()
        };
        // Time-sliced: 4 workers each took ~4× the serial per-morsel time
        // — wall ≫ cpu/worker — so the pass must collapse.
        assert!(warmup_collapse(4, &sample(2, 1_000), &sample(4, 4_000)));
        // Truly parallel: per-morsel time ≈ serial — stay parallel.
        assert!(!warmup_collapse(4, &sample(2, 1_000), &sample(4, 1_100)));
        // Exactly at the midpoint (2.5× for 4 workers) stays parallel;
        // just above it collapses.
        assert!(!warmup_collapse(4, &sample(2, 1_000), &sample(4, 2_500)));
        assert!(warmup_collapse(4, &sample(2, 1_000), &sample(4, 2_504)));
        // Degenerate samples never collapse.
        assert!(!warmup_collapse(1, &sample(2, 1_000), &sample(4, 9_000)));
        assert!(!warmup_collapse(4, &sample(0, 0), &sample(4, 9_000)));
        assert!(!warmup_collapse(4, &sample(2, 1_000), &sample(0, 0)));
        assert!(!warmup_collapse(4, &sample(2, 0), &sample(4, 9_000)));
        // Same samples, same answer, every time.
        for _ in 0..5 {
            assert!(warmup_collapse(3, &sample(2, 800), &sample(3, 2_000)));
        }
    }

    #[test]
    fn deal_gives_every_worker_a_morsel() {
        let morsels: Vec<(u64, ColumnBatch)> =
            (0..7).map(|i| (i as u64, ColumnBatch::new())).collect();
        let dealt = deal(morsels, 3);
        assert_eq!(dealt.len(), 3);
        let counts: Vec<usize> = dealt.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![3, 2, 2]);
        // Round-robin keeps ordinal order within each backlog.
        assert_eq!(
            dealt[0].iter().map(|(f, _)| *f).collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
    }
}
