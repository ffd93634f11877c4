//! The always-on incremental analysis service.
//!
//! The batch pipeline ([`crate::pipeline`]) recomputes the world per
//! query; [`AnalysisSession`] keeps the §III-B state live instead. An
//! arriving tweet costs one kept-cohort probe, one geocode and two tally
//! bumps — the author's all-time tally for the district and that day's —
//! with no sort: ranking happens at query time, with the comparator the
//! batch kernel and the sketch merge share. The correctness contract,
//! pinned by property tests: after ingesting any prefix of a stream,
//! [`SessionQuery::execute`] with no modifiers returns the same funnel,
//! grouped users, and kept profiles as running the fused batch pipeline
//! over that same prefix, and a windowed query returns the same users as
//! a windowed batch run over the same days.
//!
//! Three layers:
//!
//! * [`AnalysisSession`] — in-memory incremental state: the kept cohort
//!   (stage 1 runs once, at construction), the funnel counters, and per
//!   user the tallies the sketch merge accumulates — `(district, count,
//!   first ingest ordinal)` once all-time and once per (day, district)
//!   inside the window horizon. The ingest ordinal is the tweet's
//!   position in the stream (and in the WAL), so first-seen ties break
//!   exactly as the batch scan breaks them.
//! * [`SessionQuery`] — the query builder over live state:
//!   `session.query().top_k(3).window(7).execute()`. An answer ranks the
//!   all-time tallies, or the fold of the in-window day tallies — §III
//!   applied to the window's tweets, as the batch and sketch engines
//!   compute it; `top_k(k)` truncates each user's ranked list to its top
//!   `k` entries.
//! * [`DurableSession`] — the service shell: every ingest is WAL-appended
//!   before it touches state, [`DurableSession::checkpoint`] persists a
//!   [`SessionSnapshot`] frame (see [`stir_tweetstore::snapshot`]), and
//!   [`DurableSession::open`] resumes from the newest intact checkpoint
//!   plus a replay of the WAL tail into the session, surviving torn WAL
//!   tails and torn checkpoint frames alike. Opening still reads and
//!   checks the whole log: only the replay is limited to the tail.
//!
//! Snapshot format (version 2, all integers LE): version, interner length
//! (guard — the snapshot's district ids are indexes into the pipeline's
//! interner and are meaningless under a different vocabulary), ingest
//! ordinal, window capacity, latest day, the 14 funnel counters, the kept
//! map, then per user the profile id, the all-time tallies `(district,
//! count, first ordinal)`, and the day tallies `(day, district, count,
//! first ordinal)`. Version 1 (dense per-user first-seen ids) is rejected
//! with [`SnapshotError::BadVersion`]; a [`DurableSession`] then replays
//! its whole WAL.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use stir_geoindex::Point;
use stir_geokr::service::Geocoder;
use stir_tweetstore::persist::PersistError;
use stir_tweetstore::{
    append_snapshot, canonical_point, latest_snapshot, TweetRecord, TweetStore, Wal,
};

use crate::funnel::CollectionFunnel;
use crate::grouping::{bump_tally, materialize_user, rank_tallies, tally_rank, Tally, TieBreak};
use crate::input::ProfileRow;
use crate::intern::DistrictId;
use crate::metrics::{GroupingMetrics, PipelineMetrics};
use crate::pipeline::{resolve_one, AnalysisResult, RefinementPipeline};
use crate::topk::TopKGroup;

/// Snapshot payload format version.
const SNAP_VERSION: u32 = 2;

/// Default ring capacity: windowed queries can look back this many days.
const DEFAULT_WINDOW_DAYS: u64 = 32;

const SECONDS_PER_DAY: u64 = 86_400;

/// One user's live state: the all-time tally per district, and one tally
/// per (day, district) behind windowed queries. Both are unordered; an
/// answer ranks them on demand.
#[derive(Clone, Debug)]
struct SessionUser {
    profile: DistrictId,
    tally: Vec<Tally>,
    /// `(day, tally)` for days within the window horizon, unordered;
    /// entries behind `latest_day - window_cap + 1` are evicted when the
    /// user opens a new one.
    ring: Vec<(u64, Tally)>,
}

/// Everything a snapshot carries, decoded — the bridge between
/// [`SessionSnapshot`] bytes and a live [`AnalysisSession`].
struct DecodedState {
    ingested: u64,
    window_cap: u64,
    latest_day: Option<u64>,
    funnel: CollectionFunnel,
    kept: HashMap<u64, DistrictId>,
    users: HashMap<u64, SessionUser>,
}

/// Why a [`SessionSnapshot`] could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload ended mid-field.
    Truncated,
    /// The payload's version is not one this build reads.
    BadVersion(u32),
    /// The snapshot was taken against a different district vocabulary —
    /// its interned ids would alias arbitrary districts here.
    InternerMismatch {
        /// Interner length the snapshot was taken under.
        snapshot: usize,
        /// Interner length of the pipeline restoring it.
        pipeline: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot payload truncated"),
            SnapshotError::BadVersion(v) => write!(f, "unknown snapshot version {v}"),
            SnapshotError::InternerMismatch { snapshot, pipeline } => write!(
                f,
                "snapshot taken under a {snapshot}-district vocabulary, pipeline has {pipeline}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A serialized [`AnalysisSession`] state — what
/// [`AnalysisSession::snapshot`] produces and
/// [`AnalysisSession::restore`] consumes. The bytes are self-contained
/// (they embed the funnel and the kept cohort, so restoring needs no
/// profile replay) and opaque to the store layer that persists them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSnapshot {
    bytes: Vec<u8>,
}

impl SessionSnapshot {
    /// Wraps raw bytes (validation happens at restore).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        SessionSnapshot { bytes }
    }

    /// The serialized payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn decode(&self, interner_len: usize) -> Result<DecodedState, SnapshotError> {
        let mut r = Reader {
            bytes: &self.bytes,
            at: 0,
        };
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let snap_interner = r.u32()? as usize;
        if snap_interner != interner_len {
            return Err(SnapshotError::InternerMismatch {
                snapshot: snap_interner,
                pipeline: interner_len,
            });
        }
        let ingested = r.u64()?;
        let window_cap = r.u64()?;
        let latest_day = match r.u8()? {
            0 => None,
            _ => Some(r.u64()?),
        };
        let funnel = CollectionFunnel {
            users_collected: r.u64()?,
            users_well_defined: r.u64()?,
            users_vague: r.u64()?,
            users_insufficient: r.u64()?,
            users_ambiguous: r.u64()?,
            users_foreign: r.u64()?,
            users_empty: r.u64()?,
            users_profile_coordinates: r.u64()?,
            tweets_total: r.u64()?,
            tweets_with_gps: r.u64()?,
            tweets_gps_unresolvable: r.u64()?,
            strings_built: r.u64()?,
            users_final: r.u64()?,
            yahoo_quota_days: r.u64()?,
        };
        let kept_len = r.u64()? as usize;
        let mut kept = HashMap::with_capacity(r.capacity(kept_len, 12));
        for _ in 0..kept_len {
            let user = r.u64()?;
            let district = DistrictId(r.u32()?);
            kept.insert(user, district);
        }
        let users_len = r.u64()? as usize;
        let mut users = HashMap::with_capacity(r.capacity(users_len, 20));
        for _ in 0..users_len {
            let user = r.u64()?;
            let profile = DistrictId(r.u32()?);
            let tally_len = r.u32()? as usize;
            let mut tally = Vec::with_capacity(r.capacity(tally_len, 20));
            for _ in 0..tally_len {
                tally.push(r.tally()?);
            }
            let ring_len = r.u32()? as usize;
            let mut ring = Vec::with_capacity(r.capacity(ring_len, 28));
            for _ in 0..ring_len {
                let day = r.u64()?;
                ring.push((day, r.tally()?));
            }
            users.insert(
                user,
                SessionUser {
                    profile,
                    tally,
                    ring,
                },
            );
        }
        Ok(DecodedState {
            ingested,
            window_cap,
            latest_day,
            funnel,
            kept,
            users,
        })
    }
}

/// Little-endian field reader over a snapshot payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    /// `len` clamped to the items of `item_bytes` each that the unread
    /// bytes can still hold: a length field is read from the payload, so
    /// it bounds nothing until the items themselves decode.
    fn capacity(&self, len: usize, item_bytes: usize) -> usize {
        len.min((self.bytes.len() - self.at) / item_bytes)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.at.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .bytes
            .get(self.at..end)
            .ok_or(SnapshotError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn tally(&mut self) -> Result<Tally, SnapshotError> {
        Ok((DistrictId(self.u32()?), self.u64()?, self.u64()?))
    }
}

fn put_tally(b: &mut Vec<u8>, &(district, count, ordinal): &Tally) {
    b.extend_from_slice(&district.0.to_le_bytes());
    b.extend_from_slice(&count.to_le_bytes());
    b.extend_from_slice(&ordinal.to_le_bytes());
}

/// The always-on incremental engine: stage 1 (profile selection) runs
/// once at construction, then every [`ingest`](AnalysisSession::ingest)
/// advances the live grouped state by exactly the work one tweet is
/// worth. Queries ([`AnalysisSession::query`]) read that state without
/// recomputation; an unmodified query is byte-identical to the fused
/// batch pipeline over the same tweets.
pub struct AnalysisSession<'g> {
    pipeline: RefinementPipeline<'g>,
    backend: Box<dyn Geocoder + 'g>,
    kept: HashMap<u64, DistrictId>,
    /// `kept` with its districts named, filled by the first answer and
    /// shared by every later one. `kept` never changes after `new` or
    /// `from_state`, so nothing invalidates it; snapshots do not carry it.
    kept_named: OnceLock<Arc<HashMap<u64, (String, String)>>>,
    users: HashMap<u64, SessionUser>,
    funnel: CollectionFunnel,
    /// Tweets ingested — the WAL replay ordinal: a restored session with
    /// this many records already applied resumes at this offset.
    ingested: u64,
    latest_day: Option<u64>,
    window_cap: u64,
    /// Quota days carried over from a restored snapshot (the rebuilt
    /// backend's own counter restarts at zero).
    quota_base: u64,
}

impl<'g> AnalysisSession<'g> {
    /// Builds a session: runs stage 1 over `profiles` (fixing the kept
    /// cohort and the select-side funnel counters) and assembles the
    /// pipeline's configured geocoding backend for per-tweet resolution.
    pub fn new<PI>(pipeline: RefinementPipeline<'g>, profiles: PI) -> Self
    where
        PI: IntoIterator<Item = ProfileRow>,
    {
        let mut funnel = CollectionFunnel::default();
        let kept = pipeline.select_users(profiles, &mut funnel);
        let backend = pipeline.build_backend();
        AnalysisSession {
            pipeline,
            backend,
            kept,
            kept_named: OnceLock::new(),
            users: HashMap::new(),
            funnel,
            ingested: 0,
            latest_day: None,
            window_cap: DEFAULT_WINDOW_DAYS,
            quota_base: 0,
        }
    }

    /// Builds a session whose state already covers every record in
    /// `store` — a [`TweetStore`] or a [`stir_tweetstore::ShardedStore`],
    /// both a slice of shards — by replaying every record through
    /// [`ingest`](AnalysisSession::ingest) in scan order (segment by
    /// segment, shard by shard), so ingest ordinals are the batch scan's
    /// ordinals and the session answers exactly like the batch pipeline
    /// over the same store, with or without sketches.
    pub fn from_store<PI, S>(pipeline: RefinementPipeline<'g>, profiles: PI, store: &S) -> Self
    where
        PI: IntoIterator<Item = ProfileRow>,
        S: AsRef<[TweetStore]> + ?Sized,
    {
        let mut session = Self::new(pipeline, profiles);
        for seg in store.as_ref().iter().flat_map(|s| s.segments()) {
            for slot in 0..seg.len() as u32 {
                if let Ok(h) = seg.header(slot) {
                    session.ingest(h.user, h.timestamp, h.gps);
                }
            }
        }
        session
    }

    /// Sets the windowed-query horizon in days (default 32). Day tallies
    /// older than this fall off the ring; call before ingesting.
    pub fn with_window_capacity(mut self, days: u64) -> Self {
        debug_assert_eq!(self.ingested, 0, "set the window before ingesting");
        self.window_cap = days.max(1);
        self
    }

    /// The underlying pipeline (interner, gazetteer, config).
    pub fn pipeline(&self) -> &RefinementPipeline<'g> {
        &self.pipeline
    }

    /// Tweets ingested so far — also the WAL replay ordinal this
    /// session's state covers.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Users currently holding at least one grouped string.
    pub fn users_live(&self) -> usize {
        self.users.len()
    }

    /// Ingests one tweet, advancing funnel and grouped state exactly as
    /// the batch pipeline would have counted it. The tweet's ingest
    /// ordinal ([`AnalysisSession::ingested`] before the call) is its
    /// first-seen key. The fix resolves as the store keeps it
    /// ([`canonical_point`]), so a live fix and its WAL replay land in the
    /// same district.
    pub fn ingest(&mut self, user: u64, timestamp: u64, gps: Option<Point>) {
        let ordinal = self.ingested;
        self.ingested += 1;
        self.funnel.tweets_total += 1;
        // Every tweet advances the newest day, kept fix or not: a window
        // ends at the newest ingested day, as a batch window over the
        // same tweets would.
        let day = timestamp / SECONDS_PER_DAY;
        let latest = self.latest_day.map_or(day, |l| l.max(day));
        self.latest_day = Some(latest);
        let Some(p) = gps else { return };
        self.funnel.tweets_with_gps += 1;
        let Some(&profile) = self.kept.get(&user) else {
            return;
        };
        let Some(gaz_id) = resolve_one(self.backend.as_ref(), canonical_point(p)) else {
            self.funnel.tweets_gps_unresolvable += 1;
            return;
        };
        self.funnel.strings_built += 1;
        let district = self.pipeline.gaz_to_interned()[gaz_id.0 as usize];

        let state = self.users.entry(user).or_insert_with(|| SessionUser {
            profile,
            tally: Vec::new(),
            ring: Vec::new(),
        });
        bump_tally(&mut state.tally, district, 1, ordinal);
        let horizon = latest.saturating_sub(self.window_cap - 1);
        match state
            .ring
            .iter_mut()
            .find(|(d, t)| *d == day && t.0 == district)
        {
            // Ordinals only grow, so the entry keeps its first one.
            Some((_, t)) => t.1 += 1,
            None => {
                state.ring.retain(|&(d, _)| d >= horizon);
                if day >= horizon {
                    state.ring.push((day, (district, 1, ordinal)));
                }
            }
        }
    }

    /// The live Top-k group of one user (`None` if not yet grouped) —
    /// the rank of the profile district among the user's all-time
    /// tallies, counted without sorting.
    pub fn group_of(&self, user: u64) -> Option<TopKGroup> {
        let u = self.users.get(&user)?;
        let rank = tally_rank(&u.tally, u.profile, self.pipeline.interner());
        Some(TopKGroup::from_rank(rank))
    }

    /// Starts a query over live state.
    pub fn query(&self) -> SessionQuery<'_, 'g> {
        SessionQuery {
            session: self,
            top_k: None,
            window_days: None,
        }
    }

    /// Serializes the full incremental state (see the module docs for the
    /// format). Restoring the result via [`AnalysisSession::restore`]
    /// then re-ingesting the stream from ordinal
    /// [`AnalysisSession::ingested`] reproduces this session exactly.
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut b = Vec::with_capacity(256 + self.users.len() * 64);
        b.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        b.extend_from_slice(&(self.pipeline.interner().len() as u32).to_le_bytes());
        b.extend_from_slice(&self.ingested.to_le_bytes());
        b.extend_from_slice(&self.window_cap.to_le_bytes());
        match self.latest_day {
            None => b.push(0),
            Some(day) => {
                b.push(1);
                b.extend_from_slice(&day.to_le_bytes());
            }
        }
        let f = &self.funnel;
        for field in [
            f.users_collected,
            f.users_well_defined,
            f.users_vague,
            f.users_insufficient,
            f.users_ambiguous,
            f.users_foreign,
            f.users_empty,
            f.users_profile_coordinates,
            f.tweets_total,
            f.tweets_with_gps,
            f.tweets_gps_unresolvable,
            f.strings_built,
            f.users_final,
            self.quota_days(),
        ] {
            b.extend_from_slice(&field.to_le_bytes());
        }
        b.extend_from_slice(&(self.kept.len() as u64).to_le_bytes());
        let mut kept: Vec<(u64, DistrictId)> = self.kept.iter().map(|(&u, &d)| (u, d)).collect();
        kept.sort_unstable_by_key(|&(u, _)| u);
        for (user, district) in kept {
            b.extend_from_slice(&user.to_le_bytes());
            b.extend_from_slice(&district.0.to_le_bytes());
        }
        b.extend_from_slice(&(self.users.len() as u64).to_le_bytes());
        let mut ids: Vec<u64> = self.users.keys().copied().collect();
        ids.sort_unstable();
        for user in ids {
            let s = &self.users[&user];
            b.extend_from_slice(&user.to_le_bytes());
            b.extend_from_slice(&s.profile.0.to_le_bytes());
            b.extend_from_slice(&(s.tally.len() as u32).to_le_bytes());
            for t in &s.tally {
                put_tally(&mut b, t);
            }
            b.extend_from_slice(&(s.ring.len() as u32).to_le_bytes());
            for (day, t) in &s.ring {
                b.extend_from_slice(&day.to_le_bytes());
                put_tally(&mut b, t);
            }
        }
        SessionSnapshot { bytes: b }
    }

    /// Rebuilds a session from a snapshot, without replaying the corpus.
    /// The pipeline must carry the same district vocabulary the snapshot
    /// was taken under ([`SnapshotError::InternerMismatch`] otherwise);
    /// profiles are not needed — the kept cohort and funnel ride in the
    /// snapshot.
    pub fn restore(
        pipeline: RefinementPipeline<'g>,
        snapshot: &SessionSnapshot,
    ) -> Result<Self, SnapshotError> {
        let state = snapshot.decode(pipeline.interner().len())?;
        Ok(Self::from_state(pipeline, state))
    }

    fn from_state(pipeline: RefinementPipeline<'g>, state: DecodedState) -> Self {
        let backend = pipeline.build_backend();
        AnalysisSession {
            pipeline,
            backend,
            kept: state.kept,
            kept_named: OnceLock::new(),
            users: state.users,
            funnel: state.funnel,
            ingested: state.ingested,
            latest_day: state.latest_day,
            window_cap: state.window_cap,
            quota_base: state.funnel.yahoo_quota_days,
        }
    }

    /// Quota-days consumed: snapshot carry-over plus the live backend's
    /// own accounting.
    fn quota_days(&self) -> u64 {
        self.quota_base + self.backend.traffic().quota_days
    }
}

/// A query over an [`AnalysisSession`]'s live state, built fluently:
///
/// ```ignore
/// let full = session.query().execute();                  // ≡ batch run
/// let week = session.query().window(7).execute();        // last 7 days
/// let brief = session.query().top_k(3).execute();        // ≤ 3 entries/user
/// ```
pub struct SessionQuery<'s, 'g> {
    session: &'s AnalysisSession<'g>,
    top_k: Option<usize>,
    window_days: Option<u64>,
}

impl SessionQuery<'_, '_> {
    /// Truncates each user's merged list to its top `k` entries; a
    /// matched rank beyond `k` reports as `None` (the matched district
    /// fell below the cut).
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Restricts the answer to the last `n` days: the UTC days
    /// `[latest + 1 − n, latest + 1)`, where `latest` is the newest
    /// ingested day (any tweet's, kept fix or not) and `n` is clamped to
    /// the session's window capacity. Each user's entries are §III over
    /// the tweets of those days — counts and first-seen ties both taken
    /// within the window — so the users equal those of
    /// [`RefinementPipeline::execute_windowed`] over
    /// `TimeWindow::days(latest + 1 − n, latest + 1)`, scan or sketched.
    /// Users with no in-window fix are omitted.
    ///
    /// The funnel stays all-time (only `users_final` counts the window's
    /// users): the session keeps no per-day funnel counters, and callers
    /// read `funnel.tweets_total` as the tweets the live state covers.
    pub fn window(mut self, last_n_days: u64) -> Self {
        self.window_days = Some(last_n_days);
        self
    }

    /// Materializes the answer. With no modifiers the result's funnel,
    /// users, and kept profiles are byte-identical to the fused batch
    /// pipeline run over the tweets ingested so far. The metrics record
    /// fills the grouping stage — its counters taken before any `top_k`
    /// cut — and the query's wall time.
    pub fn execute(self) -> AnalysisResult {
        let started = Instant::now();
        let s = self.session;
        let interner = s.pipeline.interner();
        // A window's first day. Its end, the day after the newest, needs
        // no check: no tally is newer.
        let first_day = self.window_days.map(|n| {
            let end = s.latest_day.map_or(0, |l| l + 1);
            end.saturating_sub(n.min(s.window_cap))
        });
        let mut ids: Vec<u64> = s.users.keys().copied().collect();
        ids.sort_unstable();
        let mut users = Vec::with_capacity(ids.len());
        let mut grouping = GroupingMetrics {
            interner_size: interner.len() as u64,
            threads: 1,
            blocks_per_thread: vec![1],
            ..GroupingMetrics::default()
        };
        for user in ids {
            let u = &s.users[&user];
            let mut tallies = match first_day {
                None => u.tally.clone(),
                Some(first) => {
                    let mut folded = Vec::new();
                    for &(_, (district, count, ordinal)) in
                        u.ring.iter().filter(|(day, _)| *day >= first)
                    {
                        bump_tally(&mut folded, district, count, ordinal);
                    }
                    folded
                }
            };
            if tallies.is_empty() {
                continue;
            }
            grouping.strings += tallies.iter().map(|t| t.1).sum::<u64>();
            grouping.merged_entries += tallies.len() as u64;
            rank_tallies(&mut tallies, TieBreak::FirstSeen, u.profile, interner);
            let mut gu = materialize_user(user, u.profile, &tallies, interner);
            if let Some(k) = self.top_k {
                gu.entries.truncate(k);
                gu.matched_rank = gu.matched_rank.filter(|&r| r <= k);
            }
            users.push(gu);
        }
        let mut funnel = s.funnel;
        funnel.users_final = users.len() as u64;
        funnel.yahoo_quota_days = s.quota_days();
        let kept_profiles = s
            .kept_named
            .get_or_init(|| s.pipeline.name_kept(&s.kept))
            .clone();
        let wall = started.elapsed();
        grouping.users = users.len() as u64;
        grouping.wall = wall;
        let mut metrics = PipelineMetrics {
            grouping,
            ..PipelineMetrics::default()
        };
        metrics.stages.grouping = wall;
        metrics.stages.total = wall;
        AnalysisResult {
            funnel,
            users,
            kept_profiles,
            metrics,
        }
    }
}

/// An [`AnalysisSession`] coupled to its durability shell: a WAL that
/// records every ingested tweet before it touches state, and a checkpoint
/// log of [`SessionSnapshot`] frames. [`DurableSession::open`] recovers
/// the WAL (torn tail truncated), restores the newest intact checkpoint
/// whose ordinal the recovered log still covers, and replays only the
/// tail into the session. The recovery reads, checks and indexes every
/// frame of the log, so a restart still costs O(corpus) I/O and CPU; only
/// the session replay is O(tail).
pub struct DurableSession<'g> {
    session: AnalysisSession<'g>,
    wal: Wal,
    snap_path: PathBuf,
}

impl<'g> DurableSession<'g> {
    /// Opens (or resumes) the service from `wal_path` + `snap_path`.
    /// `profiles` is consumed only when no usable checkpoint exists (first
    /// boot, vocabulary change, or a checkpoint ahead of the recovered
    /// WAL — possible only if the WAL lost acknowledged-but-unsynced
    /// records the checkpoint had already covered).
    pub fn open<PI>(
        wal_path: &Path,
        snap_path: &Path,
        pipeline: RefinementPipeline<'g>,
        profiles: PI,
    ) -> Result<Self, PersistError>
    where
        PI: IntoIterator<Item = ProfileRow>,
    {
        let (store, recovered) = if wal_path.exists() {
            Wal::recover(wal_path)?
        } else {
            (TweetStore::new(), 0)
        };
        let wal = Wal::open(wal_path)?;
        let checkpoint = latest_snapshot(snap_path)?
            .filter(|frame| frame.ordinal <= recovered)
            .and_then(|frame| {
                SessionSnapshot::from_bytes(frame.payload)
                    .decode(pipeline.interner().len())
                    .ok()
            });
        let mut session = match checkpoint {
            Some(state) => AnalysisSession::from_state(pipeline, state),
            None => AnalysisSession::new(pipeline, profiles),
        };
        Self::replay_tail(&mut session, &store);
        Ok(DurableSession {
            session,
            wal,
            snap_path: snap_path.to_path_buf(),
        })
    }

    /// Replays WAL records the session's state does not cover yet, from
    /// ordinal [`AnalysisSession::ingested`] on — the same ordinals the
    /// records had when first ingested.
    fn replay_tail(session: &mut AnalysisSession<'_>, store: &TweetStore) {
        for rec in store.scan_from(session.ingested()).flatten() {
            session.ingest(rec.user, rec.timestamp, rec.gps);
        }
    }

    /// Ingests one tweet: WAL first, then live state. Call
    /// [`DurableSession::sync`] to make acknowledged appends crash-safe.
    pub fn ingest(&mut self, rec: &TweetRecord) -> Result<(), PersistError> {
        self.wal.append(rec)?;
        self.session.ingest(rec.user, rec.timestamp, rec.gps);
        Ok(())
    }

    /// Fsyncs the WAL — the ingest durability point.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.wal.sync()
    }

    /// Persists the current state as a checkpoint frame. The WAL is
    /// synced first so the checkpoint can never cover records the log
    /// does not hold.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        self.wal.sync()?;
        let snap = self.session.snapshot();
        append_snapshot(&self.snap_path, self.session.ingested(), snap.as_bytes())
    }

    /// The live session.
    pub fn session(&self) -> &AnalysisSession<'g> {
        &self.session
    }

    /// Starts a query over live state.
    pub fn query(&self) -> SessionQuery<'_, 'g> {
        self.session.query()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::TweetRow;
    use crate::pipeline::PipelineBuilder;
    use stir_geokr::Gazetteer;

    fn gaz() -> &'static Gazetteer {
        Box::leak(Box::new(Gazetteer::load()))
    }

    const YANGCHEON: (f64, f64) = (37.517, 126.866);
    const GANGNAM: (f64, f64) = (37.517, 127.047);

    fn profiles() -> Vec<ProfileRow> {
        vec![
            ProfileRow {
                user: 1,
                location_text: "Yangcheon-gu, Seoul".into(),
            },
            ProfileRow {
                user: 2,
                location_text: "Korea".into(),
            },
        ]
    }

    fn tweets() -> Vec<(u64, u64, Option<Point>)> {
        vec![
            (1, 100, Some(Point::new(YANGCHEON.0, YANGCHEON.1))),
            (1, 200, None),
            (
                1,
                SECONDS_PER_DAY + 50,
                Some(Point::new(GANGNAM.0, GANGNAM.1)),
            ),
            (2, 300, Some(Point::new(GANGNAM.0, GANGNAM.1))),
            (
                1,
                SECONDS_PER_DAY + 90,
                Some(Point::new(GANGNAM.0, GANGNAM.1)),
            ),
            (9, 400, Some(Point::new(GANGNAM.0, GANGNAM.1))),
        ]
    }

    fn batch_result(g: &'static Gazetteer) -> AnalysisResult {
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let rows: Vec<TweetRow> = tweets()
            .iter()
            .enumerate()
            .map(|(i, &(user, _, gps))| TweetRow {
                user,
                tweet_id: i as u64,
                gps,
            })
            .collect();
        pipeline.execute(profiles(), rows)
    }

    fn live_session(g: &'static Gazetteer) -> AnalysisSession<'static> {
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let mut session = AnalysisSession::new(pipeline, profiles());
        for (user, ts, gps) in tweets() {
            session.ingest(user, ts, gps);
        }
        session
    }

    fn assert_result_identical(a: &AnalysisResult, b: &AnalysisResult) {
        assert_eq!(a.funnel, b.funnel);
        assert_eq!(a.users, b.users);
        assert_eq!(a.kept_profiles, b.kept_profiles);
    }

    #[test]
    fn unmodified_query_equals_batch() {
        let g = gaz();
        let session = live_session(g);
        let live = session.query().execute();
        assert_result_identical(&live, &batch_result(g));
        // Every answer of one session shares one named cohort.
        let week = session.query().window(7).top_k(5).execute();
        assert!(Arc::ptr_eq(&live.kept_profiles, &week.kept_profiles));
    }

    #[test]
    fn snapshot_restore_roundtrip_continues_identically() {
        let g = gaz();
        let all = tweets();
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let mut session = AnalysisSession::new(pipeline, profiles());
        for &(user, ts, gps) in &all[..3] {
            session.ingest(user, ts, gps);
        }
        let snap = session.snapshot();
        drop(session);

        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let mut restored = AnalysisSession::restore(pipeline, &snap).unwrap();
        assert_eq!(restored.ingested(), 3);
        for &(user, ts, gps) in &all[3..] {
            restored.ingest(user, ts, gps);
        }
        assert_result_identical(&restored.query().execute(), &batch_result(g));
    }

    #[test]
    fn restore_rejects_foreign_vocabulary_and_bad_bytes() {
        let g = gaz();
        let snap = live_session(g).snapshot();
        // Truncated payload.
        let cut = SessionSnapshot::from_bytes(snap.as_bytes()[..10].to_vec());
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        match AnalysisSession::restore(pipeline, &cut) {
            Err(e) => assert_eq!(e, SnapshotError::Truncated),
            Ok(_) => panic!("truncated snapshot restored"),
        }
        // Wrong version.
        let mut bytes = snap.as_bytes().to_vec();
        bytes[0] = 99;
        let wrong = SessionSnapshot::from_bytes(bytes);
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        match AnalysisSession::restore(pipeline, &wrong) {
            Err(e) => assert_eq!(e, SnapshotError::BadVersion(99)),
            Ok(_) => panic!("bad-version snapshot restored"),
        }
        // A length field past the payload: truncated, never an allocation
        // sized by it. With no live users the payload ends in their count.
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let mut bytes = AnalysisSession::new(pipeline, profiles())
            .snapshot()
            .as_bytes()
            .to_vec();
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        match AnalysisSession::restore(pipeline, &SessionSnapshot::from_bytes(bytes)) {
            Err(e) => assert_eq!(e, SnapshotError::Truncated),
            Ok(_) => panic!("snapshot with a huge user count restored"),
        }
    }

    #[test]
    fn version_1_snapshot_is_rejected_and_open_replays_the_whole_wal() {
        let g = gaz();
        let mut bytes = live_session(g).snapshot().as_bytes().to_vec();
        bytes[..4].copy_from_slice(&1u32.to_le_bytes());
        let old = SessionSnapshot::from_bytes(bytes);
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        match AnalysisSession::restore(pipeline, &old) {
            Err(e) => assert_eq!(e, SnapshotError::BadVersion(1)),
            Ok(_) => panic!("version-1 snapshot restored"),
        }

        let dir = std::env::temp_dir().join(format!("stir-svc-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (wal_path, snap_path) = (dir.join("session.wal"), dir.join("session.snap"));
        {
            let pipeline = PipelineBuilder::new(g).build().unwrap();
            let mut svc =
                DurableSession::open(&wal_path, &snap_path, pipeline, profiles()).unwrap();
            for (i, &(user, timestamp, gps)) in tweets().iter().enumerate() {
                svc.ingest(&TweetRecord {
                    id: i as u64,
                    user,
                    timestamp,
                    gps,
                    text: String::new(),
                })
                .unwrap();
            }
            svc.checkpoint().unwrap();
        }
        // The newest checkpoint frame now carries a version-1 payload.
        append_snapshot(&snap_path, tweets().len() as u64, old.as_bytes()).unwrap();
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let svc = DurableSession::open(&wal_path, &snap_path, pipeline, profiles()).unwrap();
        assert_eq!(svc.session().ingested(), tweets().len() as u64);
        assert_result_identical(&svc.query().execute(), &batch_result(g));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn windowed_query_sees_only_recent_days() {
        let g = gaz();
        let session = live_session(g);
        // Day 1 is the latest; user 1 tweeted twice from Gangnam on day 1
        // and once from Yangcheon on day 0; user 2 only on day 0.
        let last_day = session.query().window(1).execute();
        assert_eq!(last_day.users.len(), 1, "only user 1 active on day 1");
        let u1 = &last_day.users[0];
        assert_eq!(u1.user, 1);
        assert_eq!(u1.entries.len(), 1, "only Gangnam within the window");
        assert_eq!(u1.entries[0].count, 2);
        assert_eq!(u1.matched_rank, None, "home district outside the window");
        // A two-day window covers everything → identical to all-time.
        let both = session.query().window(2).execute();
        let all = session.query().execute();
        assert_eq!(both.users, all.users);
    }

    #[test]
    fn window_ends_at_the_newest_ingested_day() {
        let g = gaz();
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let mut session = AnalysisSession::new(pipeline, profiles());
        session.ingest(1, 100, Some(Point::new(YANGCHEON.0, YANGCHEON.1)));
        // A GPS-less tweet on day 5 moves the newest day, so a one-day
        // window covers day 5 alone and the day-0 fix falls outside it.
        session.ingest(2, 5 * SECONDS_PER_DAY + 7, None);
        assert!(session.query().window(1).execute().users.is_empty());
        assert_eq!(session.query().window(6).execute().users.len(), 1);
    }

    #[test]
    fn query_metrics_match_the_fused_batch_run() {
        let g = gaz();
        let live = live_session(g).query().execute();
        let batch = batch_result(g);
        let (l, b) = (&live.metrics.grouping, &batch.metrics.grouping);
        assert_eq!(
            (l.strings, l.users, l.merged_entries, l.interner_size),
            (b.strings, b.users, b.merged_entries, b.interner_size)
        );
        assert_eq!((l.threads, l.blocks_per_thread.as_slice()), (1, &[1][..]));
        assert!(l.strings > 0);
        assert_eq!(live.metrics.stages.grouping, l.wall);
        assert_eq!(live.metrics.stages.total, l.wall);
    }

    #[test]
    fn top_k_truncates_entries_and_rank() {
        let g = gaz();
        let session = live_session(g);
        let full = session.query().execute();
        let u1_full = full.users.iter().find(|u| u.user == 1).unwrap();
        assert_eq!(u1_full.entries.len(), 2);
        assert_eq!(u1_full.matched_rank, Some(2));
        let cut = session.query().top_k(1).execute();
        let u1 = cut.users.iter().find(|u| u.user == 1).unwrap();
        assert_eq!(u1.entries.len(), 1);
        assert_eq!(
            u1.matched_rank, None,
            "rank-2 match falls below a top-1 cut"
        );
    }

    #[test]
    fn group_of_tracks_live_rank() {
        let g = gaz();
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let mut session = AnalysisSession::new(pipeline, profiles());
        assert_eq!(session.group_of(1), None);
        session.ingest(1, 0, Some(Point::new(GANGNAM.0, GANGNAM.1)));
        assert_eq!(session.group_of(1), Some(TopKGroup::None));
        session.ingest(1, 1, Some(Point::new(YANGCHEON.0, YANGCHEON.1)));
        assert_eq!(session.group_of(1), Some(TopKGroup::Top2));
        session.ingest(1, 2, Some(Point::new(YANGCHEON.0, YANGCHEON.1)));
        assert_eq!(session.group_of(1), Some(TopKGroup::Top1));
    }

    /// A store of tagged records: several sealed columnar segments with
    /// sketches, a live tail, multi-day spread, and an unresolvable fix.
    fn sketched_store(records: &[TweetRecord]) -> TweetStore {
        use crate::sketch::GazetteerSketcher;
        use stir_tweetstore::StoreFormat;
        let mut store = TweetStore::with_segment_bytes_and_format(512, StoreFormat::V2);
        store.set_sketcher(std::sync::Arc::new(GazetteerSketcher::new()));
        for r in records {
            store.append(r);
        }
        store
    }

    fn store_corpus() -> Vec<TweetRecord> {
        let pts = [YANGCHEON, GANGNAM, (35.68, 139.69)]; // third unresolvable
        (0..300u64)
            .map(|i| {
                let (lat, lon) = pts[(i % 3) as usize];
                TweetRecord {
                    id: i,
                    user: 1 + i % 3,      // users 1 (kept), 2 (vague), 3 (unknown)
                    timestamp: i * 3_600, // 24 records/day
                    gps: (i % 7 != 6).then_some(Point::new(lat, lon)),
                    text: String::new(),
                }
            })
            .collect()
    }

    #[test]
    fn from_store_matches_cold_replay_with_and_without_sketches() {
        let g = gaz();
        let records = store_corpus();
        let store = sketched_store(&records);
        assert!(store.segments().len() > 2, "want sealed segments");
        let mut cold = AnalysisSession::new(PipelineBuilder::new(g).build().unwrap(), profiles());
        for r in &records {
            cold.ingest(r.user, r.timestamp, r.gps);
        }
        for sketches in [true, false] {
            let pipeline = PipelineBuilder::new(g).sketches(sketches).build().unwrap();
            let warm = AnalysisSession::from_store(pipeline, profiles(), &store);
            assert_eq!(warm.ingested(), cold.ingested());
            assert_result_identical(&warm.query().execute(), &cold.query().execute());
            for days in [1, 2, 3, 40] {
                assert_result_identical(
                    &warm.query().window(days).execute(),
                    &cold.query().window(days).execute(),
                );
            }
            assert_result_identical(
                &warm.query().top_k(1).execute(),
                &cold.query().top_k(1).execute(),
            );
        }
    }

    #[test]
    fn from_store_over_shards_matches_single_store() {
        let g = gaz();
        let records = store_corpus();
        let mut sharded = stir_tweetstore::ShardedStore::with_segment_bytes_and_format(
            4,
            512,
            stir_tweetstore::StoreFormat::V2,
        );
        sharded.set_sketcher(std::sync::Arc::new(crate::sketch::GazetteerSketcher::new()));
        for r in &records {
            sharded.append(r);
        }
        let sketched = PipelineBuilder::new(g).sketches(true).build().unwrap();
        let warm = AnalysisSession::from_store(sketched, profiles(), &sharded);
        let single = AnalysisSession::from_store(
            PipelineBuilder::new(g).sketches(true).build().unwrap(),
            profiles(),
            &sketched_store(&records),
        );
        assert_result_identical(&warm.query().execute(), &single.query().execute());
        assert_result_identical(
            &warm.query().window(2).execute(),
            &single.query().window(2).execute(),
        );
    }

    #[test]
    fn durable_session_resumes_from_checkpoint_plus_tail() {
        let g = gaz();
        let dir = std::env::temp_dir().join(format!("stir-svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("session.wal");
        let snap_path = dir.join("session.snap");
        let all = tweets();
        let rec = |i: usize, t: &(u64, u64, Option<Point>)| TweetRecord {
            id: i as u64,
            user: t.0,
            timestamp: t.1,
            gps: t.2,
            text: String::new(),
        };
        {
            let pipeline = PipelineBuilder::new(g).build().unwrap();
            let mut svc =
                DurableSession::open(&wal_path, &snap_path, pipeline, profiles()).unwrap();
            for (i, t) in all[..4].iter().enumerate() {
                svc.ingest(&rec(i, t)).unwrap();
            }
            svc.checkpoint().unwrap();
            for (i, t) in all[4..].iter().enumerate() {
                svc.ingest(&rec(4 + i, t)).unwrap();
            }
            svc.sync().unwrap();
        }
        // Reopen: checkpoint covers 4 records, the WAL tail carries 2.
        let pipeline = PipelineBuilder::new(g).build().unwrap();
        let svc = DurableSession::open(&wal_path, &snap_path, pipeline, profiles()).unwrap();
        assert_eq!(svc.session().ingested(), all.len() as u64);
        assert_result_identical(&svc.query().execute(), &batch_result(g));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
