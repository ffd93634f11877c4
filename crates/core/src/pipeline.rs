//! The end-to-end refinement pipeline (§III-B).
//!
//! 1. **Select users**: classify every profile's free-text location; keep
//!    only users resolvable to exactly one district (literal coordinates in
//!    the profile are resolved through the reverse geocoder).
//! 2. **Select tweets**: keep GPS-tagged tweets of kept users; reverse-
//!    geocode each fix to `(state, county)` through a pluggable
//!    [`Geocoder`] backend ([`PipelineConfig::backend`]): the local
//!    gazetteer (default), the mock Yahoo XML endpoint (the exact
//!    serialize/parse path the authors used), or the resilient decorator
//!    that rides out injected faults without changing the output.
//! 3. **Build strings** (Table I), **group and order** them (Table II), and
//!    classify each surviving user into a Top-k group.
//!
//! Stages 2–3 run on one of two engines. The staged engine
//! ([`RefinementPipeline::process_tweets`]) is the serial reference that
//! reads like §III: intake into a fix vector, geocode each fix in input
//! order, then group the per-user keys in user-id order, with a barrier
//! between stages and no thread of its own. The fused engine ([`exec`])
//! runs the same stages as one morsel-driven parallel pass and is pinned
//! byte-identical to it. Per-user string order (which drives
//! tie-breaking) is the tweet input order on both. Every run also fills a
//! [`PipelineMetrics`] — per-stage wall time, geocode throughput, the share
//! of fixes the district atlas answered — returned on [`AnalysisResult`].
//!
//! The hot path is **interned** ([`crate::intern`]): at construction the
//! pipeline interns every gazetteer district's grouping key once (with
//! [`Granularity`] applied), so the per-tweet work is an id-to-id table
//! index — no string is hashed, cloned, or even materialized between the
//! geocoder and the report boundary. The geocode stage asks its backend for
//! the district *id* ([`Geocoder::resolve_id`]), the grouping stage merges
//! 16-byte [`LocationKey`]s, and [`GroupedUser`]'s public `String` fields
//! are resolved from the symbol table once per merged entry at the end.

pub mod exec;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use stir_geoindex::Point;
use stir_geokr::service::{BackendChoice, FaultPlan, Geocoder, GeocoderBuilder, ResiliencePolicy};
use stir_geokr::{DistrictId as GazDistrictId, Gazetteer};
use stir_textgeo::{ProfileClass, ProfileClassifier};
use stir_tweetstore::{
    canonical_point, BlockChunk, HeaderBlocks, ScanMetrics, ShardScanMetrics, ShardedStore,
    TweetStore, WalRecovery,
};

use crate::funnel::CollectionFunnel;
use crate::granularity::Granularity;
use crate::grouping::{group_user_keys_with, GroupedUser, TieBreak};
use crate::input::{ProfileRow, TweetRow};
use crate::intern::{DistrictId, DistrictInterner, LocationKey};
use crate::metrics::{
    ExecMetrics, ExecMode, GeocodeMetrics, GeocodeMode, PipelineMetrics, SelectMetrics,
};
use crate::sketch;
use exec::{ColumnBatch, MorselSource, RowSource};

/// Default rows per morsel on the fused path: big enough that per-morsel
/// costs (source cursor, batched geocode dispatch, partition flush) are
/// cold, small enough that workers stay balanced on skewed inputs.
const DEFAULT_MORSEL_ROWS: usize = 2048;

/// One geocoded fix: the gazetteer district id, or `None` outside coverage.
type ResolvedFix = Option<GazDistrictId>;

/// One intake survivor on the staged path: `(user, tweet_id, point,
/// profile district)` — the profile id is captured at the single
/// kept-cohort probe and rides along, so the key build never hashes the
/// user a second time.
type Fix = (u64, u64, Point, DistrictId);

/// The memoized outcome of classifying one distinct profile text: which
/// funnel bucket(s) it increments and, for kept users, the interned
/// district. Replaying one of these is observably identical to
/// re-running the classifier on the same text.
#[derive(Clone, Copy)]
enum CachedClass {
    /// Well-defined text → kept with this interned profile district.
    Kept(DistrictId),
    /// Literal coordinates that resolved in coverage → kept (counted
    /// under both `profile_coordinates` and `well_defined`).
    KeptCoordinates(DistrictId),
    /// Literal coordinates outside coverage → foreign.
    ForeignCoordinates,
    Vague,
    Insufficient,
    Ambiguous,
    Foreign,
    Empty,
}

/// Pipeline options.
///
/// Construct through [`PipelineBuilder`] — the builder validates the
/// geometry once at [`PipelineBuilder::build`] instead of every consumer
/// re-checking field combinations at runtime. Read through the accessor
/// methods ([`PipelineConfig::threads`], [`PipelineConfig::is_fused`], …).
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Which geocoding backend the pipeline plugs in (the pipeline itself
    /// never names a concrete geocoder type).
    backend: BackendChoice,
    /// Fault schedule injected at the Yahoo endpoint (quiet by default;
    /// meaningless for the plain gazetteer backend).
    fault_plan: FaultPlan,
    /// Retry/breaker/budget knobs of the resilient backend.
    resilience: ResiliencePolicy,
    /// The fused engine's worker-thread **ceiling** (≥ 1). The scheduler
    /// never exceeds it, but may use fewer: the count is capped at the
    /// machine's `available_parallelism`, and the pass collapses to
    /// serial-inline when a warmup sample shows workers time-slicing one
    /// core (see [`exec::warmup_collapse`]). The staged reference ignores
    /// it and always runs serially.
    threads: usize,
    /// Obey `threads` exactly — no availability cap, no warmup collapse.
    /// The bench escape hatch (`--threads-exact`): oversubscription
    /// experiments need the configured geometry to actually run.
    threads_exact: bool,
    /// Grouping grain (the §III-B metropolitan-split choice).
    granularity: Granularity,
    /// Run stages 2–3 on the fused morsel-driven engine (default). The
    /// staged path stays available as the reference implementation —
    /// byte-identical output, pinned by tests.
    fused: bool,
    /// Rows per morsel on the fused path; `0` picks the default grain.
    morsel_rows: usize,
    /// Hash partitions for emitted keys on the fused path; `0` sizes from
    /// the thread count.
    fused_partitions: usize,
    /// Answer store-backed queries from per-segment group sketches when
    /// every sealed segment has (or can lazily build) one under the
    /// pipeline's gazetteer; falls back to the configured engine
    /// otherwise. Gazetteer backend only.
    sketches: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            backend: BackendChoice::default(),
            fault_plan: FaultPlan::default(),
            resilience: ResiliencePolicy::default(),
            threads: 4,
            threads_exact: false,
            granularity: Granularity::District,
            fused: true,
            morsel_rows: 0,
            fused_partitions: 0,
            sketches: false,
        }
    }
}

impl PipelineConfig {
    /// The geocoding backend the pipeline assembles.
    pub fn backend(&self) -> BackendChoice {
        self.backend
    }

    /// The fault schedule injected at the simulated endpoint.
    pub fn fault_plan(&self) -> FaultPlan {
        self.fault_plan
    }

    /// Retry/breaker/budget knobs of the resilient backend.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.resilience
    }

    /// The configured worker-thread ceiling of the fused engine, as given
    /// (the staged reference runs serially at any value).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the thread count is a command rather than a ceiling.
    pub fn threads_exact(&self) -> bool {
        self.threads_exact
    }

    /// The grouping grain.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Whether stages 2–3 run on the fused morsel-driven engine.
    pub fn is_fused(&self) -> bool {
        self.fused
    }

    /// Rows per morsel as configured (`0` = auto).
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Fused key partitions as configured (`0` = auto).
    pub fn partitions(&self) -> usize {
        self.fused_partitions
    }

    /// Whether store-backed queries may answer from group sketches.
    pub fn sketches(&self) -> bool {
        self.sketches
    }

    /// Worker threads the fused engine actually plans for: the configured
    /// ceiling capped at the machine's available parallelism — an 8-thread
    /// request on a 1-core container plans 1 worker, which is the whole
    /// oversubscription fix. `threads_exact` restores the old behaviour
    /// (the configured count is a command).
    pub fn effective_threads(&self) -> usize {
        let ceiling = self.threads.max(1);
        if self.threads_exact {
            ceiling
        } else {
            ceiling.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
    }

    /// Rows per morsel the fused engine actually uses.
    pub fn effective_morsel_rows(&self) -> usize {
        if self.morsel_rows == 0 {
            DEFAULT_MORSEL_ROWS
        } else {
            self.morsel_rows
        }
    }

    /// Key partitions the fused engine actually uses: explicit value, or
    /// 4× the thread count rounded to a power of two (min 8) — a pure
    /// function of the config, so a given config always partitions the
    /// same way (the output is partition-count-invariant regardless).
    pub fn effective_partitions(&self) -> usize {
        if self.fused_partitions != 0 {
            self.fused_partitions
        } else {
            (self.threads.max(1) * 4).next_power_of_two().clamp(8, 256)
        }
    }
}

/// A configuration rejected by [`PipelineBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineBuildError {
    /// `threads(0)`: the scheduler needs at least one worker.
    ZeroThreads,
    /// `morsel_rows(0)`: a morsel must carry at least one row (leave the
    /// knob unset for the auto grain).
    ZeroMorselRows,
    /// `partitions(0)`: the fused engine needs at least one key partition
    /// (leave the knob unset to size from the thread count).
    ZeroPartitions,
    /// A non-quiet fault plan with the plain gazetteer backend: faults
    /// inject at the simulated endpoint, which the gazetteer never dials.
    FaultsNeedEndpoint,
}

impl std::fmt::Display for PipelineBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineBuildError::ZeroThreads => write!(f, "thread ceiling must be at least 1"),
            PipelineBuildError::ZeroMorselRows => {
                write!(f, "morsel_rows must be at least 1 (unset = auto)")
            }
            PipelineBuildError::ZeroPartitions => {
                write!(f, "partitions must be at least 1 (unset = auto)")
            }
            PipelineBuildError::FaultsNeedEndpoint => write!(
                f,
                "a fault plan needs an endpoint backend (yahoo or resilient); \
                 the gazetteer never dials out"
            ),
        }
    }
}

impl std::error::Error for PipelineBuildError {}

/// Builds a validated [`PipelineConfig`] / [`RefinementPipeline`] — the
/// pipeline twin of [`GeocoderBuilder`]. Every knob is a typed method and
/// the combination is checked once, at [`PipelineBuilder::build`], instead
/// of each consumer re-validating a field-bag at runtime:
///
/// ```
/// use stir_core::PipelineBuilder;
/// use stir_geokr::Gazetteer;
///
/// let gazetteer = Gazetteer::load();
/// let pipeline = PipelineBuilder::new(&gazetteer)
///     .threads(8)
///     .morsel_rows(1024)
///     .build()
///     .unwrap();
/// assert_eq!(pipeline.config().threads(), 8);
/// assert!(PipelineBuilder::new(&gazetteer).threads(0).build().is_err());
/// ```
#[derive(Clone)]
pub struct PipelineBuilder<'g> {
    gazetteer: &'g Gazetteer,
    config: PipelineConfig,
    // 0 doubles as "auto" inside the config, so the builder records
    // explicit calls separately: an explicit 0 is an error, unset is auto.
    morsel_rows: Option<usize>,
    partitions: Option<usize>,
}

impl<'g> PipelineBuilder<'g> {
    /// Starts from the default configuration.
    pub fn new(gazetteer: &'g Gazetteer) -> Self {
        PipelineBuilder {
            gazetteer,
            config: PipelineConfig::default(),
            morsel_rows: None,
            partitions: None,
        }
    }

    /// The fused engine's worker-thread ceiling (default 4; must be ≥ 1).
    /// The staged reference runs serially at any value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Obey the thread count exactly — no availability cap, no warmup
    /// collapse (the bench escape hatch).
    pub fn threads_exact(mut self, exact: bool) -> Self {
        self.config.threads_exact = exact;
        self
    }

    /// Rows per morsel on the fused path (unset = auto; must be ≥ 1).
    pub fn morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = Some(rows);
        self
    }

    /// Hash partitions for fused key emission (unset = auto; must be ≥ 1).
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = Some(partitions);
        self
    }

    /// The geocoding backend to plug in.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.config.backend = backend;
        self
    }

    /// Fault schedule injected at the simulated Yahoo endpoint. Requires
    /// an endpoint backend (yahoo or resilient) unless the plan is quiet.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = plan;
        self
    }

    /// Retry/breaker/budget knobs of the resilient backend.
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.config.resilience = policy;
        self
    }

    /// Grouping grain (the §III-B metropolitan-split choice).
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.config.granularity = granularity;
        self
    }

    /// Runs stages 2–3 on the staged reference path instead of the fused
    /// engine.
    pub fn staged(mut self) -> Self {
        self.config.fused = false;
        self
    }

    /// Explicitly selects the fused (true, default) or staged (false)
    /// engine.
    pub fn fused(mut self, fused: bool) -> Self {
        self.config.fused = fused;
        self
    }

    /// Answers store-backed queries from per-segment group sketches when
    /// the whole store is sketch-covered (gazetteer backend only; output
    /// stays byte-identical to the scan engines, pinned by tests). Default
    /// off.
    pub fn sketches(mut self, on: bool) -> Self {
        self.config.sketches = on;
        self
    }

    /// Validates the combination and returns the config.
    pub fn build_config(mut self) -> Result<PipelineConfig, PipelineBuildError> {
        if self.config.threads == 0 {
            return Err(PipelineBuildError::ZeroThreads);
        }
        // 0 means "auto" inside the config, but through the builder auto
        // is expressed by not calling the knob — an explicit 0 is a mistake.
        match self.morsel_rows {
            Some(0) => return Err(PipelineBuildError::ZeroMorselRows),
            Some(rows) => self.config.morsel_rows = rows,
            None => {}
        }
        match self.partitions {
            Some(0) => return Err(PipelineBuildError::ZeroPartitions),
            Some(parts) => self.config.fused_partitions = parts,
            None => {}
        }
        if !self.config.fault_plan.is_quiet() && self.config.backend == BackendChoice::Gazetteer {
            return Err(PipelineBuildError::FaultsNeedEndpoint);
        }
        Ok(self.config)
    }

    /// Validates the combination and builds the pipeline.
    pub fn build(self) -> Result<RefinementPipeline<'g>, PipelineBuildError> {
        let gazetteer = self.gazetteer;
        Ok(RefinementPipeline::new(gazetteer, self.build_config()?))
    }
}

/// A half-open `[start, end)` timestamp window in seconds, for
/// [`RefinementPipeline::execute_windowed`]. Windows aligned to whole UTC
/// days (both bounds multiples of 86 400) are *sketch-complete*: with
/// sketches on they answer from per-segment day buckets without touching
/// a sealed record. Non-aligned windows merge the interior days from
/// sketches and scan only the boundary buckets' records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeWindow {
    /// Inclusive start timestamp (seconds).
    pub start: u64,
    /// Exclusive end timestamp (seconds).
    pub end: u64,
}

impl TimeWindow {
    /// Every timestamp: what a full request runs over (the store layer
    /// reads `end = u64::MAX` as no upper bound).
    pub(crate) const ALL: TimeWindow = TimeWindow {
        start: 0,
        end: u64::MAX,
    };

    /// The day-aligned window covering UTC day ordinals `[lo_day, hi_day)`.
    pub fn days(lo_day: u64, hi_day: u64) -> Self {
        const DAY: u64 = 86_400;
        TimeWindow {
            start: lo_day * DAY,
            end: hi_day * DAY,
        }
    }

    /// Whether `ts` falls inside the window.
    pub fn contains(&self, ts: u64) -> bool {
        ts >= self.start && ts < self.end
    }
}

/// Anything the pipeline can consume, unified behind
/// [`RefinementPipeline::execute`]; plain `Into` conversions exist for the
/// common concrete shapes so call sites rarely name the enum.
pub enum PipelineInput<'a> {
    /// A stream of tweet rows (the staged engine can run on this shape).
    Rows(Box<dyn Iterator<Item = TweetRow> + Send + 'a>),
    /// A shared morsel source — always runs on the fused engine.
    Source(&'a dyn MorselSource),
    /// A store scanned in place as a slice of shards (a [`TweetStore`] is
    /// one shard, a [`ShardedStore`] its shards): zero-copy header decode,
    /// scan statistics — one row per shard — filled into
    /// [`PipelineMetrics::scan`].
    Store {
        /// The shards, in placement order.
        shards: &'a [TweetStore],
        /// Each shard's WAL recovery outcome, where it opened from a log
        /// (empty when none did).
        recovery: &'a [Option<WalRecovery>],
    },
}

impl<'a> PipelineInput<'a> {
    /// Wraps any sendable row iterator.
    pub fn rows<I>(rows: I) -> Self
    where
        I: IntoIterator<Item = TweetRow>,
        I::IntoIter: Send + 'a,
    {
        PipelineInput::Rows(Box::new(rows.into_iter()))
    }
}

impl From<Vec<TweetRow>> for PipelineInput<'static> {
    fn from(rows: Vec<TweetRow>) -> Self {
        PipelineInput::rows(rows)
    }
}

impl<'a> From<&'a dyn MorselSource> for PipelineInput<'a> {
    fn from(source: &'a dyn MorselSource) -> Self {
        PipelineInput::Source(source)
    }
}

impl<'a> From<&'a TweetStore> for PipelineInput<'a> {
    fn from(store: &'a TweetStore) -> Self {
        PipelineInput::Store {
            shards: store.as_ref(),
            recovery: &[],
        }
    }
}

impl<'a> From<&'a ShardedStore> for PipelineInput<'a> {
    fn from(store: &'a ShardedStore) -> Self {
        PipelineInput::Store {
            shards: store.shards(),
            recovery: store.recovery(),
        }
    }
}

/// Store blocks as fused-engine morsels: each decoded header's fields (a
/// columnar block's slices, bulk-copied) go straight into the morsel's
/// columns, with no row value of any shape in between, and the blocks'
/// ordinals are exactly the input ordinals the engine's determinism
/// argument needs. A block the time window empties is passed over.
impl MorselSource for HeaderBlocks<'_> {
    fn next_morsel(&self, buf: &mut ColumnBatch) -> Option<u64> {
        buf.clear();
        loop {
            let first = self.next_block_mixed(|chunk| match chunk {
                BlockChunk::Columns(c) => {
                    buf.push_store_columns(c.users, c.timestamps, c.lats_e6, c.lons_e6)
                }
                BlockChunk::Header(h) => buf.push(h.user, h.timestamp as i64, h.gps),
            })?;
            if !buf.is_empty() {
                return Some(first);
            }
        }
    }

    fn morsel_rows(&self) -> usize {
        self.block_records()
    }
}

/// The pipeline's output: the funnel accounting plus every grouped user.
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// Stage-by-stage counts.
    pub funnel: CollectionFunnel,
    /// The final cohort, one entry per surviving user, in user-id order.
    pub users: Vec<GroupedUser>,
    /// Every user with a well-defined profile (cohort or not):
    /// user → (state, county). Downstream consumers (event-location
    /// estimation) use profile districts of users who never produced a GPS
    /// tweet — exactly the users whose reliability is unknown. The map is
    /// shared: every answer of one [`crate::AnalysisSession`] holds the
    /// same one, so cloning it is O(1).
    pub kept_profiles: Arc<HashMap<u64, (String, String)>>,
    /// Observability: per-stage wall time and geocode-stage detail.
    pub metrics: PipelineMetrics,
}

/// The refinement pipeline. Construct once per gazetteer; `execute` is
/// `&self`.
///
/// ```
/// use stir_core::{ProfileRow, TweetRow, RefinementPipeline, GroupTable, TopKGroup};
/// use stir_geokr::Gazetteer;
///
/// let gazetteer = Gazetteer::load();
/// let pipeline = RefinementPipeline::with_defaults(&gazetteer);
/// let profiles = vec![ProfileRow { user: 1, location_text: "Seoul Yangcheon-gu".into() }];
/// let tweets = vec![
///     TweetRow::tagged(1, 10, 37.517, 126.866), // in Yangcheon-gu
///     TweetRow::plain(1, 11),                   // no GPS — filtered out
/// ];
/// let result = pipeline.execute(profiles, tweets);
/// assert_eq!(result.funnel.users_final, 1);
/// let table = GroupTable::compute(&result.users);
/// assert_eq!(table.row(TopKGroup::Top1).users, 1);
/// ```
pub struct RefinementPipeline<'g> {
    gazetteer: &'g Gazetteer,
    classifier: ProfileClassifier<'g>,
    config: PipelineConfig,
    /// The district symbol table, filled once at construction: every
    /// gazetteer district's grouping key (granularity applied) is interned
    /// up front, so the per-tweet path never touches a string.
    interner: DistrictInterner,
    /// Gazetteer district id → interned grouping id. Under
    /// [`Granularity::City`] several gazetteer districts map to one
    /// interned id (the metropolitan collapse).
    gaz_to_interned: Vec<DistrictId>,
}

impl<'g> RefinementPipeline<'g> {
    /// Builds a pipeline with the given options.
    pub fn new(gazetteer: &'g Gazetteer, config: PipelineConfig) -> Self {
        let mut interner = DistrictInterner::new();
        let gaz_to_interned = gazetteer
            .districts()
            .iter()
            .map(|d| {
                let (state, county) = config.granularity().key(d.province.name_en(), d.name_en);
                interner.intern(&state, &county)
            })
            .collect();
        RefinementPipeline {
            gazetteer,
            classifier: ProfileClassifier::new(gazetteer),
            config,
            interner,
            gaz_to_interned,
        }
    }

    /// Builds a pipeline with default options.
    pub fn with_defaults(gazetteer: &'g Gazetteer) -> Self {
        Self::new(gazetteer, PipelineConfig::default())
    }

    /// The underlying gazetteer.
    pub fn gazetteer(&self) -> &'g Gazetteer {
        self.gazetteer
    }

    /// The district symbol table. Interned ids returned by
    /// [`RefinementPipeline::select_users`] resolve to their
    /// `(state, county)` strings here.
    pub fn interner(&self) -> &DistrictInterner {
        &self.interner
    }

    /// Stage 1: classify profiles; returns kept users → interned profile
    /// district (resolve through [`RefinementPipeline::interner`]).
    pub fn select_users<I>(
        &self,
        profiles: I,
        funnel: &mut CollectionFunnel,
    ) -> HashMap<u64, DistrictId>
    where
        I: IntoIterator<Item = ProfileRow>,
    {
        let mut select = SelectMetrics::default();
        self.select_users_metered(profiles, funnel, &mut select)
    }

    /// [`RefinementPipeline::select_users`] with the memoization counters
    /// exposed. Profile `location_text` values repeat heavily across
    /// users, so the classifier (and, for literal coordinates, the
    /// reverse geocoder) runs once per *distinct* text; repeats replay the
    /// cached class with identical funnel accounting. The cache key takes
    /// ownership of the row's text — no clone on either path.
    pub fn select_users_metered<I>(
        &self,
        profiles: I,
        funnel: &mut CollectionFunnel,
        select: &mut SelectMetrics,
    ) -> HashMap<u64, DistrictId>
    where
        I: IntoIterator<Item = ProfileRow>,
    {
        let mut kept = HashMap::new();
        // Hot per-query map: one probe per profile row, short string keys
        // — FNV beats SipHash by a wide margin here and the keys are
        // caller-supplied profile texts, not attacker-chosen map fodder.
        let mut cache: HashMap<String, CachedClass, crate::hash::FnvBuildHasher> =
            HashMap::default();
        for ProfileRow {
            user,
            location_text,
        } in profiles
        {
            funnel.users_collected += 1;
            select.profiles += 1;
            let class = match cache.get(location_text.as_str()) {
                Some(&class) => {
                    select.profile_cache_hits += 1;
                    class
                }
                None => {
                    let class = self.classify_cached(&location_text);
                    cache.insert(location_text, class);
                    class
                }
            };
            match class {
                CachedClass::Kept(id) => {
                    funnel.users_well_defined += 1;
                    kept.insert(user, id);
                }
                CachedClass::KeptCoordinates(id) => {
                    funnel.users_profile_coordinates += 1;
                    funnel.users_well_defined += 1;
                    kept.insert(user, id);
                }
                CachedClass::ForeignCoordinates => {
                    funnel.users_profile_coordinates += 1;
                    funnel.users_foreign += 1;
                }
                CachedClass::Vague => funnel.users_vague += 1,
                CachedClass::Insufficient => funnel.users_insufficient += 1,
                CachedClass::Ambiguous => funnel.users_ambiguous += 1,
                CachedClass::Foreign => funnel.users_foreign += 1,
                CachedClass::Empty => funnel.users_empty += 1,
            }
        }
        select.distinct_texts = cache.len() as u64;
        kept
    }

    /// Classifies one distinct profile text down to its funnel bucket —
    /// the per-text work the select stage memoizes.
    fn classify_cached(&self, text: &str) -> CachedClass {
        match self.classifier.classify(text) {
            ProfileClass::WellDefined(id) => CachedClass::Kept(self.gaz_to_interned[id.0 as usize]),
            ProfileClass::Coordinates(point) => match self.gazetteer.resolve_point(point) {
                Some(id) => CachedClass::KeptCoordinates(self.gaz_to_interned[id.0 as usize]),
                None => CachedClass::ForeignCoordinates,
            },
            ProfileClass::Vague => CachedClass::Vague,
            ProfileClass::Insufficient(_) => CachedClass::Insufficient,
            ProfileClass::Ambiguous(_) => CachedClass::Ambiguous,
            ProfileClass::Foreign => CachedClass::Foreign,
            ProfileClass::Empty => CachedClass::Empty,
        }
    }

    /// Stages 2–3 on the staged reference engine, the serial §III recipe:
    /// keep the GPS tweets of kept users, reverse-geocode each fix in input
    /// order, then merge and rank each user's location keys in user-id
    /// order. Each stage finishes before the next starts, and none spawns a
    /// thread, whatever [`PipelineConfig::threads`] says. Fills the
    /// intake/geocode/grouping slots of `metrics`.
    pub fn process_tweets<I>(
        &self,
        kept: &HashMap<u64, DistrictId>,
        tweets: I,
        funnel: &mut CollectionFunnel,
        metrics: &mut PipelineMetrics,
    ) -> Vec<GroupedUser>
    where
        I: IntoIterator<Item = TweetRow>,
    {
        // Intake: collect GPS fixes of kept users, preserving input order,
        // each as the point the store keeps (a no-op on decoded fixes).
        // One cohort probe per GPS tweet: the profile district is captured
        // here and rides in the fix record, so the key build below never
        // hashes the user again (the old shape probed `contains_key` here
        // and indexed `kept[user]` there — twice per kept tweet).
        let intake_start = Instant::now();
        let mut fixes: Vec<Fix> = Vec::new();
        for t in tweets {
            funnel.tweets_total += 1;
            if let Some(p) = t.gps {
                funnel.tweets_with_gps += 1;
                if let Some(&profile) = kept.get(&t.user) {
                    fixes.push((t.user, t.tweet_id, canonical_point(p), profile));
                }
            }
        }
        metrics.stages.tweet_intake = intake_start.elapsed();

        // Geocode every fix, one at a time in input order.
        let geocode_start = Instant::now();
        let resolved = self.geocode_all(&fixes, funnel, &mut metrics.geocode);
        metrics.stages.geocode = geocode_start.elapsed();
        metrics.geocode.wall = metrics.stages.geocode;

        // Build per-user packed keys in input order. Each tweet costs two
        // table indexes and a 16-byte push — no string is hashed or cloned.
        let grouping_start = Instant::now();
        let mut per_user: HashMap<u64, Vec<LocationKey>> = HashMap::new();
        for (&(user, _tweet_id, _p, profile), rec) in fixes.iter().zip(resolved) {
            let Some(gaz_id) = rec else {
                funnel.tweets_gps_unresolvable += 1;
                continue;
            };
            funnel.strings_built += 1;
            per_user.entry(user).or_default().push(LocationKey {
                user,
                profile,
                tweet: self.gaz_to_interned[gaz_id.0 as usize],
            });
        }

        // Group, in user-id order for determinism. Drain the map into a
        // Vec and sort that once — the old shape sorted a key Vec and then
        // re-hashed every user through `per_user[&u]`.
        let mut cohort: Vec<(u64, Vec<LocationKey>)> = per_user.into_iter().collect();
        cohort.sort_unstable_by_key(|&(user, _)| user);
        let grouped: Vec<GroupedUser> = cohort
            .iter()
            .filter_map(|(_, keys)| group_user_keys_with(keys, TieBreak::FirstSeen, &self.interner))
            .collect();
        funnel.users_final = grouped.len() as u64;
        metrics.stages.grouping = grouping_start.elapsed();
        metrics.grouping.strings = funnel.strings_built;
        metrics.grouping.users = cohort.len() as u64;
        metrics.grouping.merged_entries = grouped.iter().map(|u| u.entries.len() as u64).sum();
        metrics.grouping.interner_size = self.interner.len() as u64;
        metrics.grouping.threads = 1;
        metrics.grouping.blocks_per_thread = vec![1];
        metrics.grouping.wall = metrics.stages.grouping;
        grouped
    }

    /// Stages 2–3 on the fused morsel-driven engine
    /// ([`exec`](crate::pipeline::exec)): filter, geocode (batched per
    /// morsel), intern, partition, and group in one parallel pass — no
    /// fix vector, no resolved vector, no per-user key map. Output is
    /// byte-identical to [`RefinementPipeline::process_tweets`]; metrics
    /// additionally fill the [`PipelineMetrics::exec`] slot.
    pub fn process_tweets_fused(
        &self,
        kept: &HashMap<u64, DistrictId>,
        source: &dyn MorselSource,
        funnel: &mut CollectionFunnel,
        metrics: &mut PipelineMetrics,
    ) -> Vec<GroupedUser> {
        let backend = self.build_backend();
        // The e6 coverage prescreen only applies to the in-process
        // gazetteer: remote backends have test-pinned per-lookup traffic
        // (quota days, retry counts) a skipped lookup would change.
        let cover = match self.config.backend() {
            BackendChoice::Gazetteer => Some(exec::CoverE6::korea()),
            _ => None,
        };
        exec::run_fused(
            source,
            &exec::FusedParams {
                backend: backend.as_ref(),
                choice: self.config.backend(),
                kept,
                gaz_to_interned: &self.gaz_to_interned,
                interner: &self.interner,
                tie_break: TieBreak::FirstSeen,
                threads: self.config.effective_threads(),
                threads_ceiling: self.config.threads().max(1),
                threads_exact: self.config.threads_exact(),
                partitions: self.config.effective_partitions(),
                cover,
            },
            funnel,
            metrics,
        )
    }

    /// The pipeline's configuration, as constructed.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The gazetteer-district-id → interned-grouping-id table built at
    /// construction (indexed by [`stir_geokr::DistrictId`] value). The
    /// incremental session shares it so its per-tweet id translation is
    /// the same table lookup the batch engine does.
    pub(crate) fn gaz_to_interned(&self) -> &[DistrictId] {
        &self.gaz_to_interned
    }

    /// The kept cohort with each profile district resolved to its
    /// `(state, county)` strings — an answer's
    /// [`AnalysisResult::kept_profiles`].
    pub(crate) fn name_kept(
        &self,
        kept: &HashMap<u64, DistrictId>,
    ) -> Arc<HashMap<u64, (String, String)>> {
        let named = kept
            .iter()
            .map(|(&user, &id)| {
                let (state, county) = self.interner.resolve(id);
                (user, (state.to_string(), county.to_string()))
            })
            .collect();
        Arc::new(named)
    }

    /// Assembles the configured backend. The pipeline only ever sees
    /// `dyn Geocoder` — the concrete type is the builder's business.
    pub(crate) fn build_backend(&self) -> Box<dyn Geocoder + 'g> {
        GeocoderBuilder::new(self.gazetteer)
            .backend(self.config.backend())
            .fault_plan(self.config.fault_plan())
            .resilience(self.config.resilience())
            .build()
    }

    /// The staged geocode stage: one [`resolve_one`] per fix, in input
    /// order. Order matters only to backends that model a quota or a
    /// stale cache; the gazetteer's answer is a function of the fix.
    fn geocode_all(
        &self,
        fixes: &[Fix],
        funnel: &mut CollectionFunnel,
        metrics: &mut GeocodeMetrics,
    ) -> Vec<ResolvedFix> {
        metrics.fixes = fixes.len() as u64;
        metrics.mode = match self.config.backend() {
            BackendChoice::Gazetteer => GeocodeMode::DirectSerial,
            BackendChoice::Yahoo => GeocodeMode::YahooXml,
            BackendChoice::Resilient => GeocodeMode::Resilient,
        };
        metrics.threads = 1;
        let backend = self.build_backend();
        let out = fixes
            .iter()
            .map(|&(_, _, p, _)| resolve_one(backend.as_ref(), p))
            .collect();
        // Thread the backend's traffic report into the metrics; an empty
        // cohort never dials out, so its quota-day count is zero by
        // construction (day accounting starts at the first lookup).
        let traffic = backend.traffic();
        metrics.lookups = traffic.lookups;
        metrics.cache_hits = traffic.cache_hits;
        metrics.traffic = traffic;
        funnel.yahoo_quota_days = traffic.quota_days;
        out
    }

    /// Runs the full pipeline on any [`PipelineInput`] — rows, a morsel
    /// source, or a store — selected by plain `Into` conversion:
    ///
    /// ```ignore
    /// pipeline.execute(profiles, rows_vec);        // Vec<TweetRow>
    /// pipeline.execute(profiles, &source);         // &dyn MorselSource
    /// pipeline.execute(profiles, &store);          // &TweetStore or &ShardedStore
    /// ```
    ///
    /// Rows honor the fused/staged engine choice; a morsel source always
    /// runs fused (it has no staged equivalent); a store streams scan
    /// blocks straight into the fused engine (or feeds the staged engine
    /// serially) and fills [`PipelineMetrics::scan`].
    pub fn execute<'a, PI>(
        &self,
        profiles: PI,
        input: impl Into<PipelineInput<'a>>,
    ) -> AnalysisResult
    where
        PI: IntoIterator<Item = ProfileRow>,
    {
        match input.into() {
            PipelineInput::Rows(rows) => self.run_rows(profiles, rows),
            PipelineInput::Source(source) => self.run_with(profiles, |kept, funnel, metrics| {
                self.process_tweets_fused(kept, source, funnel, metrics)
            }),
            PipelineInput::Store { shards, recovery } => {
                self.run_stored(profiles, shards, recovery, TimeWindow::ALL)
            }
        }
    }

    /// Runs the pipeline over the records of `store` whose timestamp falls
    /// in `window` — the same store path a full request takes (see
    /// [`RefinementPipeline::execute`]), so the answer is byte-identical to
    /// a full run over just those records (pinned by proptests). With
    /// sketches applicable the interior whole days merge from per-segment
    /// day buckets and only the open tail plus any boundary buckets are
    /// scanned; otherwise zone maps prune the segments the window misses
    /// and the configured engine runs over the in-window rows.
    pub fn execute_windowed<PI>(
        &self,
        profiles: PI,
        store: &TweetStore,
        window: TimeWindow,
    ) -> AnalysisResult
    where
        PI: IntoIterator<Item = ProfileRow>,
    {
        self.run_stored(profiles, store.as_ref(), &[], window)
    }

    /// [`RefinementPipeline::execute_windowed`] over a sharded store.
    pub fn execute_windowed_sharded<PI>(
        &self,
        profiles: PI,
        store: &ShardedStore,
        window: TimeWindow,
    ) -> AnalysisResult
    where
        PI: IntoIterator<Item = ProfileRow>,
    {
        self.run_stored(profiles, store.shards(), store.recovery(), window)
    }

    /// Every run's frame: stage 1 (timed), then `stages` 2–3 over the kept
    /// cohort, then the boundary resolution of the interned profile
    /// districts to strings — downstream consumers keep their published
    /// String view. The cohort is a request input, so each request names
    /// its own.
    fn run_with<PI>(
        &self,
        profiles: PI,
        stages: impl FnOnce(
            &HashMap<u64, DistrictId>,
            &mut CollectionFunnel,
            &mut PipelineMetrics,
        ) -> Vec<GroupedUser>,
    ) -> AnalysisResult
    where
        PI: IntoIterator<Item = ProfileRow>,
    {
        let total_start = Instant::now();
        let mut funnel = CollectionFunnel::default();
        let mut metrics = PipelineMetrics::default();
        let select_start = Instant::now();
        let kept = self.select_users_metered(profiles, &mut funnel, &mut metrics.select);
        metrics.stages.select_users = select_start.elapsed();
        let users = stages(&kept, &mut funnel, &mut metrics);
        metrics.stages.total = total_start.elapsed();
        AnalysisResult {
            funnel,
            users,
            kept_profiles: self.name_kept(&kept),
            metrics,
        }
    }

    /// Rows run on the fused engine through a [`RowSource`], or on the
    /// staged reference path.
    fn run_rows<PI, TI>(&self, profiles: PI, tweets: TI) -> AnalysisResult
    where
        PI: IntoIterator<Item = ProfileRow>,
        TI: IntoIterator<Item = TweetRow>,
        TI::IntoIter: Send,
    {
        self.run_with(profiles, |kept, funnel, metrics| {
            if self.config.is_fused() {
                let source =
                    RowSource::new(tweets.into_iter(), self.config.effective_morsel_rows());
                self.process_tweets_fused(kept, &source, funnel, metrics)
            } else {
                self.process_tweets(kept, tweets, funnel, metrics)
            }
        })
    }

    /// The one store path: runs over the records of a shard slice (a
    /// single store is one shard) whose timestamp falls in `window` —
    /// [`TimeWindow::ALL`] for a full request. With sketches applicable the
    /// sealed segments merge from their group sketches and only the
    /// residue is scanned. Otherwise [`HeaderBlocks::between`] lays out
    /// only the segments the window's zone maps can reach, and the
    /// configured engine runs over the in-window rows: fused with the
    /// blocks as morsels, or staged over a serial row feed drained from the
    /// same blocks. Only the text of a record is never touched. One scan
    /// record reports either path, with a row per shard; placement is
    /// per-user, and so is every ordering the engines depend on, so the
    /// output is byte-identical at any shard count.
    fn run_stored<PI>(
        &self,
        profiles: PI,
        stores: &[TweetStore],
        recovery: &[Option<WalRecovery>],
        window: TimeWindow,
    ) -> AnalysisResult
    where
        PI: IntoIterator<Item = ProfileRow>,
    {
        self.run_with(profiles, |kept, funnel, metrics| {
            let per_shard: Vec<ShardScanMetrics> = stores
                .iter()
                .enumerate()
                .map(|(i, s)| ShardScanMetrics {
                    shard: i as u32,
                    segments_total: s.stats().segments as u64,
                    records_stored: s.stats().records,
                    wal: recovery.get(i).copied().flatten(),
                    ..Default::default()
                })
                .collect();
            let segments_total: u64 = per_shard.iter().map(|p| p.segments_total).sum();
            let segments_col = stores
                .iter()
                .flat_map(|s| s.segments())
                .filter(|s| s.is_columnar())
                .count() as u64;
            let mut scan = ScanMetrics {
                segments_total,
                segments_row: segments_total - segments_col,
                segments_col,
                records_stored: per_shard.iter().map(|p| p.records_stored).sum(),
                bytes_stored: stores.iter().map(|s| s.stats().payload_bytes).sum(),
                threads: 1,
                per_shard,
                ..Default::default()
            };
            let users = match self
                .sketch_fingerprint()
                .and_then(|fp| sketch::plan(stores, fp))
            {
                Some(plan) => self.merge_sketches(kept, &plan, window, funnel, metrics, &mut scan),
                None => {
                    let rows = self.config.effective_morsel_rows();
                    let blocks = HeaderBlocks::between(stores, rows, window.start, window.end);
                    let users = if self.config.is_fused() {
                        let users = self.process_tweets_fused(kept, &blocks, funnel, metrics);
                        if let Some(e) = &metrics.exec {
                            scan.threads = e.threads;
                            scan.blocks_per_thread = e.morsels_per_thread.clone();
                        }
                        users
                    } else {
                        let mut drawn = 0u64;
                        let feed = std::iter::from_fn(|| {
                            let mut block = Vec::new();
                            blocks.next_block_headers(|h| {
                                block.push(TweetRow {
                                    user: h.user,
                                    tweet_id: h.id,
                                    gps: h.gps,
                                })
                            })?;
                            drawn += 1;
                            Some(block)
                        });
                        let users = self.process_tweets(kept, feed.flatten(), funnel, metrics);
                        scan.blocks_per_thread = vec![drawn];
                        users
                    };
                    blocks.charge(&mut scan);
                    // The scan is interleaved with intake: the intake
                    // stage's wall time is the closest measure of it.
                    scan.wall = metrics.stages.tweet_intake;
                    users
                }
            };
            metrics.scan = Some(scan);
            users
        })
    }

    /// The gazetteer vocabulary fingerprint store sketches must match —
    /// `Some` only when the config opts into sketches and the effective
    /// backend is the in-process gazetteer (remote backends have pinned
    /// per-lookup traffic a skipped scan would change).
    pub(crate) fn sketch_fingerprint(&self) -> Option<u64> {
        (self.config.sketches() && self.config.backend() == BackendChoice::Gazetteer)
            .then(|| sketch::gazetteer_fingerprint(self.gazetteer))
    }

    /// Stages 2–3 of a sketch-complete query: the delta merge over
    /// per-segment sketches plus a record-wise pass over the residue (open
    /// tails; boundary buckets of non-aligned windows). Output is
    /// byte-identical to the scan engines over the same window; the sketch
    /// counters land in both [`PipelineMetrics::exec`] and `scan`.
    fn merge_sketches(
        &self,
        kept: &HashMap<u64, DistrictId>,
        plan: &sketch::SketchPlan<'_>,
        window: TimeWindow,
        funnel: &mut CollectionFunnel,
        metrics: &mut PipelineMetrics,
        scan: &mut ScanMetrics,
    ) -> Vec<GroupedUser> {
        let merge_start = Instant::now();
        let resolver = sketch::GazetteerSketcher::for_gazetteer(self.gazetteer);
        let outcome = sketch::execute_plan(
            plan,
            &sketch::SketchWindow::for_window(window),
            &sketch::MergeParams {
                kept,
                gaz_to_interned: &self.gaz_to_interned,
                interner: &self.interner,
                resolver: &resolver,
                tie_break: TieBreak::FirstSeen,
            },
        );
        let merge_wall = merge_start.elapsed();
        funnel.tweets_total += outcome.tweets_total;
        funnel.tweets_with_gps += outcome.tweets_with_gps;
        funnel.tweets_gps_unresolvable += outcome.unresolvable;
        funnel.strings_built += outcome.strings_built;
        funnel.users_final = outcome.users.len() as u64;
        // The merge is intake, geocode, and grouping fused into one pass;
        // its wall lands on the grouping stage (the closest honest slot).
        metrics.stages.grouping = merge_wall;
        metrics.geocode.mode = GeocodeMode::DirectSerial;
        metrics.geocode.fixes = outcome.residual_fixes;
        metrics.geocode.threads = 1;
        metrics.grouping.strings = outcome.strings_built;
        metrics.grouping.users = funnel.users_final;
        metrics.grouping.merged_entries = outcome.merged_entries;
        metrics.grouping.interner_size = self.interner.len() as u64;
        metrics.grouping.threads = 1;
        metrics.grouping.blocks_per_thread = vec![1];
        metrics.grouping.wall = merge_wall;
        metrics.exec = Some(ExecMetrics {
            threads: 1,
            threads_ceiling: self.config.threads().max(1),
            mode: ExecMode::SerialInline,
            morsel_rows: self.config.effective_morsel_rows(),
            partitions: 1,
            partitions_configured: self.config.effective_partitions(),
            rows_in: outcome.tweets_total,
            gps_rows: outcome.tweets_with_gps,
            fixes: outcome.residual_fixes,
            keys_emitted: outcome.strings_built,
            unresolved: outcome.unresolvable,
            merge_wall,
            sketch_segments: outcome.sketch_segments,
            sketch_entries_merged: outcome.entries_merged,
            records_scanned_residual: outcome.residual_scanned,
            sketch_bytes: outcome.sketch_bytes,
            ..Default::default()
        });
        scan.headers_decoded = outcome.residual_scanned;
        scan.records_yielded = outcome.residual_scanned;
        scan.blocks_per_thread = vec![1];
        scan.wall = merge_wall;
        scan.sketch_segments = outcome.sketch_segments;
        scan.sketch_entries_merged = outcome.entries_merged;
        scan.records_scanned_residual = outcome.residual_scanned;
        scan.sketch_bytes = outcome.sketch_bytes;
        outcome.users
    }
}

/// One fix through any backend, straight to its district id: an error is an
/// unresolvable fix (the resilient backend never errors — its fallback
/// chain absorbs failures; the raw Yahoo backend can, e.g. on an injected
/// rate-limit burst).
pub(crate) fn resolve_one(backend: &dyn Geocoder, p: Point) -> ResolvedFix {
    backend.resolve_id(p).ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::TopKGroup;

    fn gaz() -> &'static Gazetteer {
        Box::leak(Box::new(Gazetteer::load()))
    }

    fn profile(user: u64, text: &str) -> ProfileRow {
        ProfileRow {
            user,
            location_text: text.into(),
        }
    }

    /// Yangcheon-gu centroid (37.517, 126.866); Gangnam (37.517, 127.047).
    const YANGCHEON: (f64, f64) = (37.517, 126.866);
    const GANGNAM: (f64, f64) = (37.517, 127.047);

    #[test]
    fn end_to_end_small_cohort() {
        let g = gaz();
        let pipe = RefinementPipeline::with_defaults(g);
        let profiles = vec![
            profile(1, "Seoul Yangcheon-gu"), // kept, tweets at home → Top-1
            profile(2, "my home"),            // vague → dropped
            profile(3, "Seoul"),              // insufficient → dropped
            profile(4, "Seoul Gangnam-gu"),   // kept but no GPS tweets
        ];
        let tweets = vec![
            TweetRow::tagged(1, 10, YANGCHEON.0, YANGCHEON.1),
            TweetRow::tagged(1, 11, YANGCHEON.0, YANGCHEON.1),
            TweetRow::tagged(1, 12, GANGNAM.0, GANGNAM.1),
            TweetRow::plain(1, 13),
            TweetRow::tagged(2, 20, GANGNAM.0, GANGNAM.1), // dropped user
            TweetRow::plain(4, 40),
        ];
        let result = pipe.execute(profiles, tweets);
        assert_eq!(result.funnel.users_collected, 4);
        assert_eq!(result.funnel.users_well_defined, 2);
        assert_eq!(result.funnel.users_vague, 1);
        assert_eq!(result.funnel.users_insufficient, 1);
        assert_eq!(result.funnel.tweets_total, 6);
        assert_eq!(result.funnel.tweets_with_gps, 4);
        assert_eq!(result.funnel.strings_built, 3);
        assert_eq!(result.funnel.users_final, 1);
        let u = &result.users[0];
        assert_eq!(u.user, 1);
        assert_eq!(u.group(), TopKGroup::Top1);
        assert_eq!(u.distinct_locations(), 2);
        assert_eq!(u.total_tweets(), 3);
    }

    #[test]
    fn xml_roundtrip_path_agrees_with_direct() {
        let g = gaz();
        let profiles = || {
            vec![
                profile(1, "Seoul Yangcheon-gu"),
                profile(2, "Gyeonggi-do Uiwang-si"),
            ]
        };
        let tweets = || {
            vec![
                TweetRow::tagged(1, 1, YANGCHEON.0, YANGCHEON.1),
                TweetRow::tagged(1, 2, GANGNAM.0, GANGNAM.1),
                TweetRow::tagged(2, 3, 37.345, 126.968),
            ]
        };
        let direct = RefinementPipeline::with_defaults(g).execute(profiles(), tweets());
        let via_xml = PipelineBuilder::new(g)
            .backend(BackendChoice::Yahoo)
            .threads(1)
            .build()
            .unwrap()
            .execute(profiles(), tweets());
        assert_eq!(direct.users.len(), via_xml.users.len());
        for (a, b) in direct.users.iter().zip(&via_xml.users) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.matched_rank, b.matched_rank);
            assert_eq!(a.entries, b.entries);
        }
    }

    #[test]
    fn unresolvable_gps_is_counted_not_kept() {
        let g = gaz();
        let pipe = RefinementPipeline::with_defaults(g);
        let result = pipe.execute(
            vec![profile(1, "Seoul Yangcheon-gu")],
            vec![
                TweetRow::tagged(1, 1, 35.68, 139.69), // Tokyo
                TweetRow::tagged(1, 2, YANGCHEON.0, YANGCHEON.1),
            ],
        );
        assert_eq!(result.funnel.tweets_gps_unresolvable, 1);
        assert_eq!(result.funnel.strings_built, 1);
        assert_eq!(result.users.len(), 1);
    }

    #[test]
    fn coordinates_profile_is_resolved_and_kept() {
        let g = gaz();
        let pipe = RefinementPipeline::with_defaults(g);
        let result = pipe.execute(
            vec![profile(1, "37.517, 126.866")], // Yangcheon-gu by coordinates
            vec![TweetRow::tagged(1, 1, YANGCHEON.0, YANGCHEON.1)],
        );
        assert_eq!(result.funnel.users_well_defined, 1);
        assert_eq!(result.funnel.users_profile_coordinates, 1);
        assert_eq!(result.users[0].group(), TopKGroup::Top1);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let g = gaz();
        let profiles = || {
            (0..20)
                .map(|u| {
                    profile(
                        u,
                        if u % 2 == 0 {
                            "Seoul Yangcheon-gu"
                        } else {
                            "Busan Jung-gu"
                        },
                    )
                })
                .collect::<Vec<_>>()
        };
        // 1,200 fixes: enough to trip the fused engine's parallel path
        // (≥ 1,024 buffered rows).
        let tweets = || {
            let mut v = Vec::new();
            let mut id = 0u64;
            for round in 0..60 {
                for u in 0..20u64 {
                    let (lat, lon) = if (u + round) % 3 == 0 {
                        (35.106, 129.032) // Busan Jung-gu
                    } else {
                        YANGCHEON
                    };
                    v.push(TweetRow::tagged(u, id, lat, lon));
                    id += 1;
                }
            }
            v
        };
        let serial = PipelineBuilder::new(g)
            .threads(1)
            .build()
            .unwrap()
            .execute(profiles(), tweets());
        // `threads_exact` pins the configured geometry: this test asserts
        // the 8-way path itself, so the adaptive scheduler must not cap it
        // on a small CI machine. Morsels shrink so 8 workers have ≥ 8
        // morsels of initial work (1200 rows / 128 = 10 morsels).
        let parallel = PipelineBuilder::new(g)
            .threads(8)
            .threads_exact(true)
            .morsel_rows(128)
            .build()
            .unwrap()
            .execute(profiles(), tweets());
        assert_eq!(serial.users.len(), parallel.users.len());
        for (a, b) in serial.users.iter().zip(&parallel.users) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.matched_rank, b.matched_rank);
            assert_eq!(a.entries, b.entries);
        }

        // Metrics record the path taken and the exact traffic.
        use crate::metrics::GeocodeMode;
        assert_eq!(serial.metrics.geocode.mode, GeocodeMode::DirectSerial);
        assert_eq!(parallel.metrics.geocode.mode, GeocodeMode::DirectParallel);
        assert_eq!(parallel.metrics.geocode.threads, 8);
        assert_eq!(parallel.metrics.geocode.fixes, 1200);
        assert_eq!(parallel.metrics.geocode.lookups, 1200);
        let total_blocks: u64 = parallel.metrics.geocode.blocks_per_thread.iter().sum();
        assert!(
            total_blocks >= 1,
            "scheduler handed out no blocks: {:?}",
            parallel.metrics.geocode.blocks_per_thread
        );
        assert_eq!(parallel.metrics.geocode.blocks_per_thread.len(), 8);

        // The staged reference is serial at any thread count, even an
        // exact 8: one geocode loop in input order, one grouping walk.
        let staged = PipelineBuilder::new(g)
            .staged()
            .threads(8)
            .threads_exact(true)
            .build()
            .unwrap()
            .execute(profiles(), tweets());
        assert_eq!(staged.users, serial.users);
        assert_eq!(staged.metrics.geocode.mode, GeocodeMode::DirectSerial);
        assert_eq!(staged.metrics.geocode.threads, 1);
        assert!(staged.metrics.geocode.blocks_per_thread.is_empty());
        assert_eq!(staged.metrics.grouping.threads, 1);
    }

    #[test]
    fn empty_cohort_consumes_no_quota_days() {
        let g = gaz();
        let pipe = PipelineBuilder::new(g)
            .backend(BackendChoice::Yahoo)
            .threads(1)
            .build()
            .unwrap();
        // No profile survives classification → zero fixes reach the
        // geocoder → the simulated Yahoo endpoint is never dialled.
        let result = pipe.execute(
            vec![profile(1, "my home")],
            vec![TweetRow::tagged(1, 1, GANGNAM.0, GANGNAM.1)],
        );
        assert_eq!(result.funnel.yahoo_quota_days, 0);
        assert_eq!(result.metrics.geocode.fixes, 0);
        assert_eq!(result.metrics.geocode.lookups, 0);

        // And a run that does geocode reports at least one simulated day.
        let busy = PipelineBuilder::new(g)
            .backend(BackendChoice::Yahoo)
            .threads(1)
            .build()
            .unwrap()
            .execute(
                vec![profile(1, "Seoul Yangcheon-gu")],
                vec![TweetRow::tagged(1, 1, YANGCHEON.0, YANGCHEON.1)],
            );
        assert_eq!(busy.funnel.yahoo_quota_days, 1);
        assert_eq!(busy.metrics.geocode.fixes, 1);
        assert_eq!(busy.metrics.geocode.lookups, 1);
    }

    #[test]
    fn backend_is_pluggable_and_output_is_backend_invariant() {
        // The same cohort through all three backends — including a noisy
        // resilient one — must group identically: every backend answers
        // from the same gazetteer, and the fallback chain preserves that.
        let g = gaz();
        let profiles = || {
            vec![
                profile(1, "Seoul Yangcheon-gu"),
                profile(2, "Gyeonggi-do Uiwang-si"),
            ]
        };
        let tweets = || {
            vec![
                TweetRow::tagged(1, 1, YANGCHEON.0, YANGCHEON.1),
                TweetRow::tagged(1, 2, GANGNAM.0, GANGNAM.1),
                TweetRow::tagged(2, 3, 37.345, 126.968),
                TweetRow::tagged(2, 4, 35.68, 139.69), // Tokyo, unresolvable
            ]
        };
        let baseline = RefinementPipeline::with_defaults(g).execute(profiles(), tweets());
        // The raw Yahoo backend runs quiet (it has no retry layer above
        // it); the resilient backend is exercised under a noisy schedule —
        // its fallback chain must absorb every fault.
        for (backend, faults) in [
            (BackendChoice::Yahoo, "none"),
            (BackendChoice::Resilient, "drop:0.2,malformed:0.1,seed:7"),
        ] {
            let run = PipelineBuilder::new(g)
                .backend(backend)
                .faults(stir_geokr::FaultPlan::parse(faults).unwrap())
                .threads(1)
                .build()
                .unwrap()
                .execute(profiles(), tweets());
            assert_eq!(baseline.users.len(), run.users.len(), "{backend}");
            for (a, b) in baseline.users.iter().zip(&run.users) {
                assert_eq!(a.user, b.user, "{backend}");
                assert_eq!(a.matched_rank, b.matched_rank, "{backend}");
                assert_eq!(a.entries, b.entries, "{backend}");
            }
            assert_eq!(
                run.funnel.tweets_gps_unresolvable, baseline.funnel.tweets_gps_unresolvable,
                "{backend}"
            );
            // The traffic partition stays exact even under faults.
            let t = &run.metrics.geocode.traffic;
            assert!(t.is_exact(), "{backend}: {t:?}");
            assert_eq!(run.funnel.yahoo_quota_days, 1, "{backend}");
        }
    }

    #[test]
    fn resilient_metrics_count_retries_and_fallbacks_exactly() {
        let g = gaz();
        // A total outage with the breaker disabled: every fix retries the
        // configured budget, then falls back locally. Counts are exact.
        let pipe = PipelineBuilder::new(g)
            .backend(BackendChoice::Resilient)
            .faults(stir_geokr::FaultPlan::parse("drop:1.0").unwrap())
            .resilience(stir_geokr::ResiliencePolicy {
                max_retries: 2,
                breaker_threshold: u32::MAX,
                ..Default::default()
            })
            .threads(1)
            .build()
            .unwrap();
        let result = pipe.execute(
            vec![profile(1, "Seoul Yangcheon-gu")],
            vec![
                TweetRow::tagged(1, 1, YANGCHEON.0, YANGCHEON.1),
                TweetRow::tagged(1, 2, GANGNAM.0, GANGNAM.1),
                TweetRow::tagged(1, 3, 35.68, 139.69), // Tokyo
            ],
        );
        let t = &result.metrics.geocode.traffic;
        assert_eq!(t.lookups, 3);
        assert_eq!(t.resolved, 0, "the primary never answered");
        assert_eq!(t.fallbacks, 2);
        assert_eq!(t.misses, 1);
        assert_eq!(t.retries, 6, "two retries per fix");
        assert_eq!(t.errors, 9, "three attempts per fix all failed");
        assert_eq!(t.local_fallbacks, 3);
        assert!(t.is_exact());
        assert_eq!(result.metrics.geocode.mode, GeocodeMode::Resilient);
        // The degraded run still groups the user correctly.
        assert_eq!(result.funnel.users_final, 1);
        assert_eq!(result.funnel.tweets_gps_unresolvable, 1);
        // The verbose render reports the degradation.
        let rendered = result.metrics.render();
        assert!(rendered.contains("resilience:"), "{rendered}");
    }

    #[test]
    fn metrics_expose_stage_timings_and_throughput() {
        let g = gaz();
        let pipe = RefinementPipeline::with_defaults(g);
        let result = pipe.execute(
            vec![profile(1, "Seoul Yangcheon-gu")],
            vec![
                TweetRow::tagged(1, 1, YANGCHEON.0, YANGCHEON.1),
                TweetRow::tagged(1, 2, YANGCHEON.0, YANGCHEON.1),
            ],
        );
        let m = &result.metrics;
        assert_eq!(m.geocode.fixes, 2);
        assert_eq!(m.geocode.lookups, 2);
        // Both fixes sit at the district centre, in a pure atlas cell.
        assert_eq!(m.geocode.cache_hits, 2);
        assert!((m.geocode.cache_hit_ratio() - 1.0).abs() < 1e-12);
        assert!(m.stages.total >= m.stages.geocode);
        assert_eq!(m.stages.geocode, m.geocode.wall);
        // The render is non-empty and names the hot stage.
        let rendered = m.render();
        assert!(rendered.contains("geocode"));
        assert!(rendered.contains("cache hit ratio"));
        // Grouping-stage detail: two strings merged into one entry for one
        // user, against the full 229-district symbol table.
        assert_eq!(m.grouping.strings, 2);
        assert_eq!(m.grouping.users, 1);
        assert_eq!(m.grouping.merged_entries, 1);
        assert_eq!(m.grouping.interner_size, 229);
        assert!((m.grouping.merge_ratio() - 2.0).abs() < 1e-12);
        assert_eq!(m.stages.grouping, m.grouping.wall);
        assert!(rendered.contains("grouping stage: 2 strings over 1 users"));
    }

    #[test]
    fn interner_is_prebuilt_and_profiles_resolve_through_it() {
        let g = gaz();
        let pipe = RefinementPipeline::with_defaults(g);
        // Every gazetteer district is interned up front, before any tweet.
        assert_eq!(pipe.interner().len(), 229);
        let mut funnel = CollectionFunnel::default();
        let kept = pipe.select_users(vec![profile(1, "Seoul Yangcheon-gu")], &mut funnel);
        let id = kept[&1];
        assert_eq!(pipe.interner().resolve(id), ("Seoul", "Yangcheon-gu"));
        // The boundary resolution execute() performs matches.
        let result = pipe.execute(
            vec![profile(1, "Seoul Yangcheon-gu")],
            vec![TweetRow::tagged(1, 1, YANGCHEON.0, YANGCHEON.1)],
        );
        assert_eq!(
            result.kept_profiles[&1],
            ("Seoul".to_string(), "Yangcheon-gu".to_string())
        );
    }

    /// A small mixed corpus: kept users, a dropped user, GPS-less rows,
    /// and an out-of-coverage fix — every funnel branch exercised.
    fn mixed_corpus() -> (Vec<ProfileRow>, Vec<TweetRow>) {
        let profiles = vec![
            profile(1, "Seoul Yangcheon-gu"),
            profile(2, "my home"),
            profile(3, "Seoul"),
            profile(4, "Seoul Gangnam-gu"),
            profile(5, "Gyeonggi-do Uiwang-si"),
        ];
        let mut tweets = Vec::new();
        for i in 0..40u64 {
            let user = 1 + i % 5;
            tweets.push(match i % 4 {
                0 => TweetRow::tagged(user, i, YANGCHEON.0, YANGCHEON.1),
                1 => TweetRow::tagged(user, i, GANGNAM.0, GANGNAM.1),
                2 => TweetRow::plain(user, i),
                // Tokyo: GPS present, outside coverage → unresolvable.
                _ => TweetRow::tagged(user, i, 35.68, 139.69),
            });
        }
        (profiles, tweets)
    }

    fn assert_identical(a: &AnalysisResult, b: &AnalysisResult) {
        assert_eq!(a.funnel, b.funnel);
        assert_eq!(a.users.len(), b.users.len());
        for (x, y) in a.users.iter().zip(&b.users) {
            assert_eq!(x.user, y.user);
            assert_eq!(x.state_profile, y.state_profile);
            assert_eq!(x.county_profile, y.county_profile);
            assert_eq!(x.entries, y.entries);
            assert_eq!(x.matched_rank, y.matched_rank);
        }
        assert_eq!(a.kept_profiles, b.kept_profiles);
    }

    #[test]
    fn fused_engine_is_byte_identical_to_staged_reference() {
        let g = gaz();
        let (profiles, tweets) = mixed_corpus();
        let staged = PipelineBuilder::new(g).staged().threads(1).build().unwrap();
        let reference = staged.execute(profiles.clone(), tweets.clone());
        assert!(reference.metrics.exec.is_none());
        for threads in [1, 2, 8] {
            for morsel_rows in [1, 7, 4096] {
                for fused_partitions in [1, 3, 16] {
                    let fused = PipelineBuilder::new(g)
                        .threads(threads)
                        .morsel_rows(morsel_rows)
                        .partitions(fused_partitions)
                        .build()
                        .unwrap();
                    let got = fused.execute(profiles.clone(), tweets.clone());
                    assert_identical(&got, &reference);
                    let exec = got.metrics.exec.as_ref().expect("fused fills exec");
                    assert_eq!(exec.morsel_rows, morsel_rows);
                    assert_eq!(exec.partitions_configured, fused_partitions);
                    assert_eq!(exec.threads_ceiling, threads.max(1));
                    // Executed geometry never exceeds the configured one.
                    assert!(exec.threads <= threads.max(1));
                    assert!(exec.partitions <= fused_partitions.max(1));
                    assert_eq!(exec.rows_in, got.funnel.tweets_total);
                    assert_eq!(
                        exec.partition_keys.iter().sum::<u64>(),
                        got.funnel.strings_built
                    );
                }
            }
        }
    }

    #[test]
    fn fused_probes_the_cohort_exactly_once_per_gps_tweet() {
        let g = gaz();
        let pipe = RefinementPipeline::with_defaults(g);
        let (profiles, tweets) = mixed_corpus();
        let result = pipe.execute(profiles, tweets);
        let exec = result.metrics.exec.as_ref().expect("fused fills exec");
        // One probe per GPS row — the profile district rides in the
        // pending record instead of being re-fetched at key build (the
        // old staged shape would have probed gps + fixes times).
        assert_eq!(exec.kept_probes, result.funnel.tweets_with_gps);
        assert!(exec.kept_probes < result.funnel.tweets_total);
        assert_eq!(exec.fixes, exec.keys_emitted + exec.unresolved);
    }

    #[test]
    fn fused_small_input_falls_back_to_one_inline_worker() {
        let g = gaz();
        let pipe = PipelineBuilder::new(g).threads(8).build().unwrap();
        let result = pipe.execute(
            vec![profile(1, "Seoul Yangcheon-gu")],
            vec![TweetRow::tagged(1, 1, YANGCHEON.0, YANGCHEON.1)],
        );
        let exec = result.metrics.exec.as_ref().expect("fused fills exec");
        assert_eq!(exec.threads, 1, "below threshold stays inline");
        // S2: the metrics say what actually ran — serial-inline, one
        // partition — with the configured geometry reported alongside.
        assert_eq!(exec.mode, crate::metrics::ExecMode::SerialInline);
        assert_eq!(exec.threads_ceiling, 8);
        // Hash partitioning stays on serially (P small sorts beat one big
        // one), so the executed count equals the configured one.
        assert_eq!(exec.partitions, exec.partitions_configured);
        assert_eq!(result.metrics.geocode.mode, GeocodeMode::DirectSerial);
        assert!(result.metrics.geocode.blocks_per_thread.is_empty());
        // Memory estimates are filled and favour the fused shape.
        assert!(exec.peak_bytes_estimate > 0);
        assert!(exec.staged_bytes_estimate > 0);
    }

    #[test]
    fn workers_never_spawn_without_morsels() {
        // S1 regression: the worker count used to come straight from
        // `threads`, so 2000 rows in one 4096-row morsel spawned 8
        // workers, 7 of them with nothing to do. The count must clamp to
        // the prefetched morsel count — every spawned worker processes at
        // least one morsel. `threads_exact` makes the geometry (not the
        // outcome) deterministic on any machine.
        let g = gaz();
        let tweets = |n: u64| -> Vec<TweetRow> {
            (0..n)
                .map(|i| TweetRow::tagged(1, i, YANGCHEON.0, YANGCHEON.1))
                .collect()
        };
        let one_morsel = PipelineBuilder::new(g)
            .threads(8)
            .threads_exact(true)
            .morsel_rows(4096)
            .build()
            .unwrap()
            .execute(vec![profile(1, "Seoul Yangcheon-gu")], tweets(2000));
        let exec = one_morsel.metrics.exec.as_ref().expect("fused fills exec");
        assert_eq!(exec.threads, 1, "one morsel can feed only one worker");
        assert_eq!(exec.morsels_per_thread, vec![1]);

        let three_morsels = PipelineBuilder::new(g)
            .threads(3)
            .threads_exact(true)
            .morsel_rows(1024)
            .build()
            .unwrap()
            .execute(vec![profile(1, "Seoul Yangcheon-gu")], tweets(3072));
        let exec = three_morsels
            .metrics
            .exec
            .as_ref()
            .expect("fused fills exec");
        assert_eq!(exec.threads, 3);
        assert_eq!(
            exec.morsels_per_thread,
            vec![1, 1, 1],
            "round-robin deal guarantees every worker a morsel"
        );
        assert!(
            exec.morsels_per_thread.iter().all(|&m| m > 0),
            "no worker may be spawned with zero morsels: {:?}",
            exec.morsels_per_thread
        );
    }

    #[test]
    fn adaptive_worker_count_respects_the_machine() {
        // Adaptive default: `threads` is a ceiling. The executed count
        // never exceeds min(ceiling, available cores) — on the 1-CPU CI
        // container an 8-thread request runs serial-inline.
        let g = gaz();
        let tweets: Vec<TweetRow> = (0..4096)
            .map(|i| TweetRow::tagged(1, i, YANGCHEON.0, YANGCHEON.1))
            .collect();
        let run = PipelineBuilder::new(g)
            .threads(8)
            .morsel_rows(128)
            .build()
            .unwrap()
            .execute(vec![profile(1, "Seoul Yangcheon-gu")], tweets);
        let exec = run.metrics.exec.as_ref().expect("fused fills exec");
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(
            exec.threads <= 8.min(machine).max(1),
            "executed {} workers on a {machine}-core machine",
            exec.threads
        );
        assert_eq!(exec.threads_ceiling, 8);
        match exec.mode {
            crate::metrics::ExecMode::SerialInline => assert_eq!(exec.threads, 1),
            crate::metrics::ExecMode::Parallel => assert!(exec.threads > 1),
        }
        assert!(exec.morsels_per_thread.iter().all(|&m| m > 0));
    }

    #[test]
    fn select_users_memoizes_repeated_profile_texts_with_exact_funnel() {
        let g = gaz();
        let pipe = RefinementPipeline::with_defaults(g);
        // 60 profiles over 6 distinct texts, covering kept / vague /
        // insufficient / coordinate / foreign-coordinate / empty branches.
        let texts = [
            "Seoul Yangcheon-gu",
            "my home",
            "Seoul",
            "37.517, 126.866",
            "35.68, 139.69",
            "",
        ];
        let profiles: Vec<ProfileRow> = (0..60)
            .map(|i| profile(i, texts[(i % 6) as usize]))
            .collect();
        let mut funnel = CollectionFunnel::default();
        let mut select = SelectMetrics::default();
        let kept = pipe.select_users_metered(profiles.clone(), &mut funnel, &mut select);
        assert_eq!(select.profiles, 60);
        assert_eq!(select.distinct_texts, 6);
        assert_eq!(select.profile_cache_hits, 54);
        // Funnel counters stay exact: every branch counted per profile,
        // not per distinct text.
        assert_eq!(funnel.users_collected, 60);
        assert_eq!(funnel.users_well_defined, 20, "kept text + resolved coords");
        assert_eq!(funnel.users_vague, 10);
        assert_eq!(funnel.users_insufficient, 10);
        assert_eq!(funnel.users_profile_coordinates, 20);
        assert_eq!(funnel.users_foreign, 10, "foreign coordinates");
        assert_eq!(funnel.users_empty, 10);
        assert_eq!(kept.len(), 20);
        // The metered entry is what run() uses, so results agree with the
        // plain wrapper.
        let mut funnel2 = CollectionFunnel::default();
        let kept2 = pipe.select_users(profiles, &mut funnel2);
        assert_eq!(funnel, funnel2);
        assert_eq!(kept, kept2);
    }

    #[test]
    fn source_input_equals_row_fed_execute() {
        let g = gaz();
        let pipe = RefinementPipeline::with_defaults(g);
        let (profiles, tweets) = mixed_corpus();
        let by_rows = pipe.execute(profiles.clone(), tweets.clone());
        let source = RowSource::new(tweets.into_iter(), 3);
        let by_source = pipe.execute(profiles, PipelineInput::Source(&source));
        assert_identical(&by_rows, &by_source);
    }

    /// Zero-valued knobs are rejected at `build()` instead of surfacing as
    /// a hung or degenerate run later.
    #[test]
    fn builder_rejects_invalid_geometry() {
        let g = gaz();
        assert_eq!(
            PipelineBuilder::new(g)
                .threads(0)
                .build_config()
                .unwrap_err(),
            PipelineBuildError::ZeroThreads
        );
        assert_eq!(
            PipelineBuilder::new(g)
                .morsel_rows(0)
                .build_config()
                .unwrap_err(),
            PipelineBuildError::ZeroMorselRows
        );
        assert_eq!(
            PipelineBuilder::new(g)
                .partitions(0)
                .build_config()
                .unwrap_err(),
            PipelineBuildError::ZeroPartitions
        );
        // Faults against the quiet in-process gazetteer have nothing to
        // perturb — the builder refuses the combination.
        assert_eq!(
            PipelineBuilder::new(g)
                .faults(stir_geokr::FaultPlan::parse("drop:0.5").unwrap())
                .build_config()
                .unwrap_err(),
            PipelineBuildError::FaultsNeedEndpoint
        );
        // The same plan aimed at a real endpoint builds fine.
        let cfg = PipelineBuilder::new(g)
            .backend(BackendChoice::Resilient)
            .faults(stir_geokr::FaultPlan::parse("drop:0.5").unwrap())
            .build_config()
            .unwrap();
        assert_eq!(cfg.backend(), BackendChoice::Resilient);
    }

    #[test]
    fn sketched_store_query_matches_scan() {
        use std::sync::Arc;
        use stir_tweetstore::{StoreFormat, TweetRecord};

        let g = gaz();
        let profiles = vec![
            profile(1, "Seoul Yangcheon-gu"),
            profile(2, "Seoul Gangnam-gu"),
            profile(3, "my home"), // vague — exercises the non-kept probe path
        ];
        // Small segments force several columnar seals; the sketcher is
        // installed before ingest so every seal materializes a sketch.
        let mut store = TweetStore::with_segment_bytes_and_format(1024, StoreFormat::V2);
        store.set_sketcher(Arc::new(crate::sketch::GazetteerSketcher::new()));
        let pts = [YANGCHEON, GANGNAM, (35.68, 139.69)]; // third is unresolvable
        for i in 0..150u64 {
            let (lat, lon) = pts[(i % 3) as usize];
            store.append(&TweetRecord {
                id: i,
                user: 1 + i % 3,
                timestamp: i * 7_200, // 12 rows/day over ~12 days
                gps: (i % 5 != 4).then_some(Point::new(lat, lon)),
                text: format!("t{i}"),
            });
        }
        assert!(store.segments().len() > 2, "want several sealed segments");

        let off = PipelineBuilder::new(g).build().unwrap();
        let on = PipelineBuilder::new(g).sketches(true).build().unwrap();
        let want = off.execute(profiles.clone(), &store);
        let got = on.execute(profiles.clone(), &store);
        assert_eq!(want.funnel, got.funnel);
        assert_eq!(want.users, got.users);
        assert_eq!(want.kept_profiles, got.kept_profiles);
        let scan = got.metrics.scan.as_ref().expect("store runs fill scan");
        assert!(scan.sketch_segments > 0, "sketch path must engage");
        assert!(scan.sketch_entries_merged > 0);
        // Residual work is only the open tail, not the sealed segments.
        assert!(scan.records_scanned_residual < 150);

        // Windowed: a day-aligned window and one straddling partial days
        // must agree with the sketch-off scan fallback.
        for window in [
            TimeWindow::days(2, 7),
            TimeWindow {
                start: 86_400 + 3_600,
                end: 7 * 86_400 + 43_200,
            },
            TimeWindow::days(0, 400), // superset of all data
        ] {
            let want = off.execute_windowed(profiles.clone(), &store, window);
            let got = on.execute_windowed(profiles.clone(), &store, window);
            assert_eq!(want.funnel, got.funnel, "window {window:?}");
            assert_eq!(want.users, got.users, "window {window:?}");
        }
    }

    #[test]
    fn windowed_store_run_is_fused_and_zone_pruned() {
        use stir_tweetstore::{StoreFormat, TweetRecord};

        let g = gaz();
        let profiles = vec![
            profile(1, "Seoul Yangcheon-gu"),
            profile(2, "Seoul Gangnam-gu"),
            profile(3, "Busan Jung-gu"),
        ];
        // Time-ordered appends, 12 rows a day over 30 days: small segments
        // seal in time order, so a 1-day window misses most of them.
        let pts = [YANGCHEON, GANGNAM, (35.106, 129.032)];
        let records: Vec<TweetRecord> = (0..360u64)
            .map(|i| {
                let (lat, lon) = pts[(i % 3) as usize];
                TweetRecord {
                    id: i,
                    user: 1 + i % 4,
                    timestamp: i * 7_200,
                    gps: (i % 5 != 4).then_some(Point::new(lat, lon)),
                    text: format!("t{i}"),
                }
            })
            .collect();
        let window = TimeWindow::days(10, 11);
        let in_window: Vec<TweetRow> = records
            .iter()
            .filter(|r| window.contains(r.timestamp))
            .map(|r| TweetRow {
                user: r.user,
                tweet_id: r.id,
                gps: r.gps,
            })
            .collect();
        let staged = PipelineBuilder::new(g).staged().build().unwrap();
        let want = staged.execute(profiles.clone(), in_window);
        let mut single = TweetStore::with_segment_bytes_and_format(1024, StoreFormat::V2);
        let mut sharded = ShardedStore::with_segment_bytes_and_format(4, 1024, StoreFormat::V2);
        for r in &records {
            single.append(r);
            sharded.append(r);
        }
        let fused = RefinementPipeline::with_defaults(g);
        for got in [
            fused.execute_windowed(profiles.clone(), &single, window),
            fused.execute_windowed_sharded(profiles.clone(), &sharded, window),
            staged.execute_windowed(profiles.clone(), &single, window),
        ] {
            assert_identical(&got, &want);
            let scan = got.metrics.scan.as_ref().expect("windowed runs fill scan");
            assert!(scan.segments_pruned > 0, "{scan:?}");
            assert_eq!(
                scan.records_pruned + scan.headers_decoded + scan.records_corrupt,
                scan.records_stored
            );
            assert_eq!(scan.records_yielded, got.funnel.tweets_total);
        }
    }

    #[test]
    fn city_granularity_collapses_interned_ids() {
        let g = gaz();
        let pipe = PipelineBuilder::new(g)
            .granularity(Granularity::City)
            .build()
            .unwrap();
        // Metropolitan districts collapse, so the city-grain vocabulary is
        // strictly smaller than the district table.
        assert!(pipe.interner().len() < 229, "{}", pipe.interner().len());
        let mut funnel = CollectionFunnel::default();
        let kept = pipe.select_users(
            vec![
                profile(1, "Seoul Yangcheon-gu"),
                profile(2, "Seoul Jung-gu"),
            ],
            &mut funnel,
        );
        assert_eq!(kept[&1], kept[&2], "city grain merges Seoul gu");
    }
}
