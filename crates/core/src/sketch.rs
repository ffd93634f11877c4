//! The analysis side of seal-time group sketches (§III-B pushdown).
//!
//! The store layer materializes a [`GroupSketch`] per sealed segment but
//! stays vocabulary-agnostic; this module supplies the two halves the
//! pipeline needs to exploit them:
//!
//! * [`GazetteerSketcher`] — the [`SketchResolver`] that maps a GPS fix to
//!   a gazetteer district id with *exactly* the scan path's semantics
//!   (e6 coverage prescreen, then [`Gazetteer::resolve_point`]), plus
//!   [`gazetteer_fingerprint`], the vocabulary hash embedded in every
//!   sketch so a sketch built under one district table is never merged
//!   under another.
//! * The delta-merge query engine ([`SketchPlan`] / [`execute_plan`]) —
//!   k-way merges per-segment sketches for the kept cohort, scans only
//!   the open tail (and, for non-day-aligned windows, the boundary
//!   buckets' records), and reassembles per-user `(district, count,
//!   first ordinal)` tallies whose ranked answer is byte-identical to the
//!   batch engines'. Ordinals are reconstructed as `segment base + first_slot`,
//!   so first-seen tie-breaks agree with the scan order by construction.

use std::collections::HashMap;
use std::sync::Arc;

use stir_geoindex::Point;
use stir_geokr::Gazetteer;
use stir_tweetstore::{GroupSketch, SegmentRef, SketchResolver, TweetStore, ZoneMap};

use crate::grouping::{bump_tally, materialize_user, rank_tallies, GroupedUser, Tally, TieBreak};
use crate::intern::{DistrictId, DistrictInterner};
use crate::pipeline::exec::{fix_e6, CoverE6};
use crate::pipeline::TimeWindow;

/// Seconds per sketch day bucket (mirrors the store layer's constant).
const SECONDS_PER_DAY: u64 = stir_tweetstore::sketch::SECONDS_PER_DAY;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Hashes a gazetteer's district vocabulary — the value a
/// [`GazetteerSketcher`] reports as its [`SketchResolver::fingerprint`]
/// and the pipeline demands of every sketch it merges. Two independently
/// loaded gazetteers over the same district table fingerprint identically,
/// so sketches persisted by one process validate in another.
pub fn gazetteer_fingerprint(gazetteer: &Gazetteer) -> u64 {
    let districts = gazetteer.districts();
    let mut h = fnv64(FNV64_OFFSET, &(districts.len() as u64).to_le_bytes());
    for d in districts {
        h = fnv64(h, d.province.name_en().as_bytes());
        h = fnv64(h, &[0]);
        h = fnv64(h, d.name_en.as_bytes());
        h = fnv64(h, &[0]);
    }
    h
}

enum GazRef<'g> {
    Owned(Box<Gazetteer>),
    Borrowed(&'g Gazetteer),
}

/// The gazetteer as a [`SketchResolver`]: install on a [`TweetStore`] (or
/// every shard) so segments sketch themselves at seal time and rebuild
/// lazily for pre-existing seals.
///
/// Resolution reproduces the scan path bit for bit: the coordinate is
/// quantized onto the e6 grid and prescreened against the widened Korea
/// cover box (a reject counts as unresolvable, exactly as the fused
/// engine counts it), then resolved through [`Gazetteer::resolve_point`].
/// The sketcher sees stored points, and every scan engine resolves the
/// same stored point ([`stir_tweetstore::canonical_point`]) through the
/// same order-free function, so a sketched answer equals a scanned one.
pub struct GazetteerSketcher<'g> {
    gaz: GazRef<'g>,
    cover: CoverE6,
    fingerprint: u64,
}

impl GazetteerSketcher<'static> {
    /// A self-contained sketcher over its own freshly loaded gazetteer —
    /// the shape to wrap in an `Arc` and hand to
    /// [`TweetStore::set_sketcher`].
    pub fn new() -> Self {
        Self::from_ref(GazRef::Owned(Box::new(Gazetteer::load())))
    }
}

impl Default for GazetteerSketcher<'static> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'g> GazetteerSketcher<'g> {
    /// A sketcher borrowing an existing gazetteer (what the pipeline uses
    /// for its residual tail scans, so query-time resolution shares the
    /// pipeline's own district table).
    pub fn for_gazetteer(gazetteer: &'g Gazetteer) -> Self {
        Self::from_ref(GazRef::Borrowed(gazetteer))
    }

    fn from_ref(gaz: GazRef<'g>) -> Self {
        let fingerprint = gazetteer_fingerprint(match &gaz {
            GazRef::Owned(g) => g,
            GazRef::Borrowed(g) => g,
        });
        GazetteerSketcher {
            gaz,
            cover: CoverE6::korea(),
            fingerprint,
        }
    }

    fn gazetteer(&self) -> &Gazetteer {
        match &self.gaz {
            GazRef::Owned(g) => g,
            GazRef::Borrowed(g) => g,
        }
    }
}

impl SketchResolver for GazetteerSketcher<'_> {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn resolve(&self, lat: f64, lon: f64) -> Option<u32> {
        // A struct literal: `Point::new` debug-asserts finite coordinates,
        // and rejecting the non-finite ones is the prescreen's job.
        let p = Point { lat, lon };
        let (lat_e6, lon_e6) = fix_e6(p);
        if self.cover.rejects(lat_e6, lon_e6) {
            return None;
        }
        self.gazetteer().resolve_point(p).map(|d| d.0 as u32)
    }
}

/// Everything a sketch-complete query reads: every sealed segment's sketch
/// with its global ordinal base (and the segment itself, for boundary-day
/// scans), plus the unsketched tail segments scanned record-wise. Bases
/// accumulate in scan order — segments within a store, stores in shard
/// order — matching the block sources' ordinal layout, so first-seen
/// tie-breaks reconstructed from `base + first_slot` agree with a scan.
pub(crate) struct SketchPlan<'s> {
    pub(crate) sketched: Vec<(Arc<GroupSketch>, u64, SegmentRef<'s>)>,
    pub(crate) tails: Vec<(SegmentRef<'s>, u64)>,
}

/// Plans a sketch-complete query over a shard slice (a single store is a
/// one-shard slice): `Some` only when *every* sealed segment yields a
/// sketch under `fingerprint` (persisted sidecar or lazily built); any gap
/// means the whole query falls back to the scan engines. Ordinal bases
/// accumulate segment by segment, shard by shard.
pub(crate) fn plan(stores: &[TweetStore], fingerprint: u64) -> Option<SketchPlan<'_>> {
    let mut plan = SketchPlan {
        sketched: Vec::new(),
        tails: Vec::new(),
    };
    let mut base = 0u64;
    for store in stores {
        let segments = store.segments();
        let last = segments.len() - 1;
        for (i, seg) in segments.into_iter().enumerate() {
            if i == last {
                // The active tail is mutable and never sketched.
                plan.tails.push((seg, base));
            } else {
                plan.sketched
                    .push((store.sketch_for(i, fingerprint)?, base, seg));
            }
            base += seg.len() as u64;
        }
    }
    Some(plan)
}

/// A [`TimeWindow`] decomposed into whole day buckets (answered from
/// sketches) plus the partial boundary second-ranges (scanned record-wise
/// in the segments whose zone map overlaps them).
pub(crate) enum SketchWindow {
    /// No window: every bucket merges, the tail scans in full.
    All,
    /// A bounded window: days in `full` (`[lo, hi)` day ordinals) merge
    /// from sketches; `partials` are the `[start, end)` second-ranges not
    /// covered by a full day (at most two, one per boundary).
    Days {
        full: (u64, u64),
        partials: Vec<(u64, u64)>,
        bounds: (u64, u64),
    },
}

impl SketchWindow {
    pub(crate) fn for_window(w: TimeWindow) -> SketchWindow {
        if w == TimeWindow::ALL {
            return SketchWindow::All;
        }
        if w.start >= w.end {
            return SketchWindow::Days {
                full: (0, 0),
                partials: Vec::new(),
                bounds: (w.start, w.start),
            };
        }
        let lo_aligned = w.start.is_multiple_of(SECONDS_PER_DAY);
        let hi_aligned = w.end.is_multiple_of(SECONDS_PER_DAY);
        let full_lo = w.start / SECONDS_PER_DAY + u64::from(!lo_aligned);
        // Day d is fully covered iff (d+1)·86400 ≤ end, i.e. d < end/86400.
        let full_hi = w.end / SECONDS_PER_DAY;
        let mut partials = Vec::new();
        if full_lo >= full_hi {
            // The window never covers a whole day: one partial range.
            partials.push((w.start, w.end));
            return SketchWindow::Days {
                full: (full_lo, full_lo),
                partials,
                bounds: (w.start, w.end),
            };
        }
        if !lo_aligned {
            partials.push((w.start, full_lo * SECONDS_PER_DAY));
        }
        if !hi_aligned {
            partials.push((full_hi * SECONDS_PER_DAY, w.end));
        }
        SketchWindow::Days {
            full: (full_lo, full_hi),
            partials,
            bounds: (w.start, w.end),
        }
    }

    fn includes_day(&self, day: u64) -> bool {
        match self {
            SketchWindow::All => true,
            SketchWindow::Days { full, .. } => full.0 <= day && day < full.1,
        }
    }

    /// Whether any day in the inclusive range `[lo, hi]` is a full window
    /// day — the segment-level prune: a sketched segment whose day span
    /// misses the window entirely is skipped without touching its users.
    fn overlaps_days(&self, lo: u64, hi: u64) -> bool {
        match self {
            SketchWindow::All => true,
            SketchWindow::Days { full, .. } => full.0 < full.1 && lo < full.1 && hi >= full.0,
        }
    }

    fn in_partials(&self, ts: u64) -> bool {
        match self {
            SketchWindow::All => false,
            SketchWindow::Days { partials, .. } => partials.iter().any(|&(s, e)| ts >= s && ts < e),
        }
    }

    fn in_bounds(&self, ts: u64) -> bool {
        match self {
            SketchWindow::All => true,
            SketchWindow::Days { bounds, .. } => ts >= bounds.0 && ts < bounds.1,
        }
    }

    fn partials_overlap(&self, zm: &ZoneMap) -> bool {
        match self {
            SketchWindow::All => false,
            SketchWindow::Days { partials, .. } => partials
                .iter()
                .any(|&(s, e)| zm.records > 0 && zm.min_ts < e && zm.max_ts >= s),
        }
    }
}

/// What the merge layer hands back: the grouped cohort plus the funnel
/// and observability counters the pipeline folds into its metrics.
#[derive(Default)]
pub(crate) struct SketchOutcome {
    pub(crate) users: Vec<GroupedUser>,
    pub(crate) tweets_total: u64,
    pub(crate) tweets_with_gps: u64,
    pub(crate) unresolvable: u64,
    pub(crate) strings_built: u64,
    /// Sketch entries folded into the per-user accumulators.
    pub(crate) entries_merged: u64,
    /// Distinct per-user districts after the merge.
    pub(crate) merged_entries: u64,
    /// Headers decoded during residual (tail / boundary) scans.
    pub(crate) residual_scanned: u64,
    /// GPS fixes of kept users resolved during residual scans.
    pub(crate) residual_fixes: u64,
    pub(crate) sketch_segments: u64,
    pub(crate) sketch_bytes: u64,
}

/// Shared pipeline state the merge borrows for one query.
pub(crate) struct MergeParams<'a> {
    pub(crate) kept: &'a HashMap<u64, DistrictId>,
    pub(crate) gaz_to_interned: &'a [DistrictId],
    pub(crate) interner: &'a DistrictInterner,
    pub(crate) resolver: &'a dyn SketchResolver,
    pub(crate) tie_break: TieBreak,
}

/// One kept user's in-flight merge state. Districts accumulate through
/// [`bump_tally`] — per-user district counts are bounded by the gazetteer
/// vocabulary and in practice tiny, so a linear probe beats hashing.
struct UserAcc {
    unresolvable: u64,
    /// `(interned district, count, min global ordinal)`.
    districts: Vec<Tally>,
}

/// The kept users laid out for merging: ids sorted (the same order
/// `GroupSketch::users` is stored in, so each segment joins with one
/// two-pointer sweep and zero hashing), profiles and accumulators
/// parallel to them.
struct Cohort {
    ids: Vec<u64>,
    profiles: Vec<DistrictId>,
    accs: Vec<UserAcc>,
}

impl Cohort {
    fn new(kept: &HashMap<u64, DistrictId>) -> Cohort {
        let mut rows: Vec<(u64, DistrictId)> = kept.iter().map(|(&u, &p)| (u, p)).collect();
        rows.sort_unstable_by_key(|r| r.0);
        let mut c = Cohort {
            ids: Vec::with_capacity(rows.len()),
            profiles: Vec::with_capacity(rows.len()),
            accs: Vec::with_capacity(rows.len()),
        };
        for (user, profile) in rows {
            c.ids.push(user);
            c.profiles.push(profile);
            c.accs.push(UserAcc {
                unresolvable: 0,
                districts: Vec::new(),
            });
        }
        c
    }

    fn index_of(&self, user: u64) -> Option<usize> {
        self.ids.binary_search(&user).ok()
    }
}

/// Runs a sketch-complete query: merges every in-window sketch bucket,
/// scans the residue (open tails; boundary ranges of sealed segments
/// whose zone map overlaps them), and materializes the cohort in user-id
/// order — byte-identical to the scan engines over the same window.
pub(crate) fn execute_plan(
    plan: &SketchPlan<'_>,
    window: &SketchWindow,
    p: &MergeParams<'_>,
) -> SketchOutcome {
    let mut cohort = Cohort::new(p.kept);
    let mut out = SketchOutcome::default();
    for (sketch, base, seg) in &plan.sketched {
        out.sketch_segments += 1;
        out.sketch_bytes += sketch.mem_bytes();
        // Segment-level prune: day_totals are sorted, so the first/last
        // day bound the segment's span. A windowed merge only walks the
        // segments the window can reach — cost scales with touched
        // buckets, not corpus size. (Boundary partials are handled by the
        // residual scan below, which has its own zone-map overlap check.)
        let span = match (sketch.day_totals.first(), sketch.day_totals.last()) {
            (Some(first), Some(last)) => window.overlaps_days(first.day, last.day),
            _ => false,
        };
        if !span {
            if window.partials_overlap(seg.zone_map()) {
                scan_residual(seg, *base, window, true, p, &mut cohort, &mut out);
            }
            continue;
        }
        for t in &sketch.day_totals {
            if window.includes_day(t.day) {
                out.tweets_total += t.records;
                out.tweets_with_gps += t.gps_records;
            }
        }
        // Two-pointer join: both sides are sorted by user id, so skipping
        // the (typically vast) non-kept majority costs one comparison per
        // sketched user, not a hash probe.
        let mut ci = 0usize;
        for u in &sketch.users {
            while cohort.ids.get(ci).is_some_and(|&id| id < u.user) {
                ci += 1;
            }
            let Some(&id) = cohort.ids.get(ci) else { break };
            if id != u.user {
                continue;
            }
            let acc = &mut cohort.accs[ci];
            for d in sketch.days_of(u) {
                if !window.includes_day(d.day) {
                    continue;
                }
                acc.unresolvable += d.unresolvable;
                for e in sketch.entries_of(d) {
                    // Defensive: a fingerprint-matched sketch can't hold an
                    // out-of-vocabulary district; skip rather than panic.
                    let Some(&interned) = p.gaz_to_interned.get(e.district as usize) else {
                        continue;
                    };
                    bump_tally(
                        &mut acc.districts,
                        interned,
                        e.count,
                        *base + u64::from(e.first_slot),
                    );
                    out.entries_merged += 1;
                }
            }
        }
        if window.partials_overlap(seg.zone_map()) {
            scan_residual(seg, *base, window, true, p, &mut cohort, &mut out);
        }
    }
    for (seg, base) in &plan.tails {
        scan_residual(seg, *base, window, false, p, &mut cohort, &mut out);
    }
    finalize(cohort, p, out)
}

/// Record-wise pass over one unsketched region, reproducing the scan
/// engines' per-row semantics (corrupt slots skipped, one kept probe per
/// GPS row, resolver misses counted as unresolvable). `boundary_only` keeps
/// only records in the window's partial day ranges (sealed boundary
/// segments); otherwise the window bounds apply (open tails).
fn scan_residual(
    seg: &SegmentRef<'_>,
    base: u64,
    window: &SketchWindow,
    boundary_only: bool,
    p: &MergeParams<'_>,
    cohort: &mut Cohort,
    out: &mut SketchOutcome,
) {
    for slot in 0..seg.len() as u32 {
        let Ok(h) = seg.header(slot) else { continue };
        out.residual_scanned += 1;
        let included = if boundary_only {
            window.in_partials(h.timestamp)
        } else {
            window.in_bounds(h.timestamp)
        };
        if !included {
            continue;
        }
        out.tweets_total += 1;
        let Some(gps) = h.gps else { continue };
        out.tweets_with_gps += 1;
        let Some(ci) = cohort.index_of(h.user) else {
            continue;
        };
        out.residual_fixes += 1;
        let acc = &mut cohort.accs[ci];
        match p.resolver.resolve(gps.lat, gps.lon) {
            None => acc.unresolvable += 1,
            Some(district) => match p.gaz_to_interned.get(district as usize) {
                Some(&interned) => {
                    bump_tally(&mut acc.districts, interned, 1, base + u64::from(slot))
                }
                None => acc.unresolvable += 1,
            },
        }
    }
}

/// Ranks each user's tallies with the shared grouping comparator (global
/// ordinals order ties exactly as the batch kernel's dense first-seen ids)
/// and materializes — user-id order, like every engine (the cohort is
/// already id-sorted; untouched users simply have no districts).
fn finalize(cohort: Cohort, p: &MergeParams<'_>, mut out: SketchOutcome) -> SketchOutcome {
    let Cohort {
        ids,
        profiles,
        accs,
    } = cohort;
    for ((user, profile), acc) in ids.into_iter().zip(profiles).zip(accs) {
        out.unresolvable += acc.unresolvable;
        if acc.districts.is_empty() {
            continue;
        }
        let mut ents = acc.districts;
        out.strings_built += ents.iter().map(|e| e.1).sum::<u64>();
        out.merged_entries += ents.len() as u64;
        rank_tallies(&mut ents, p.tie_break, profile, p.interner);
        out.users
            .push(materialize_user(user, profile, &ents, p.interner));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_across_loads_and_sensitive_to_vocabulary() {
        let a = Gazetteer::load();
        let b = Gazetteer::load();
        assert_eq!(gazetteer_fingerprint(&a), gazetteer_fingerprint(&b));
        let sketcher = GazetteerSketcher::new();
        assert_eq!(sketcher.fingerprint(), gazetteer_fingerprint(&a));
        assert_eq!(
            GazetteerSketcher::for_gazetteer(&a).fingerprint(),
            sketcher.fingerprint()
        );
    }

    #[test]
    fn resolver_matches_gazetteer_semantics() {
        let gaz = Gazetteer::load();
        let s = GazetteerSketcher::for_gazetteer(&gaz);
        // In coverage: same district the gazetteer answers.
        let d = gaz.resolve_point(Point::new(37.517, 127.047)).unwrap();
        assert_eq!(s.resolve(37.517, 127.047), Some(d.0 as u32));
        // Far outside the cover box: prescreen rejects.
        assert_eq!(s.resolve(48.85, 2.35), None);
        assert_eq!(s.resolve(f64::NAN, 127.0), None);
    }

    #[test]
    fn window_decomposition_covers_exactly_once() {
        let day = SECONDS_PER_DAY;
        // Aligned: whole days, no partials.
        let w = SketchWindow::for_window(TimeWindow {
            start: day,
            end: 3 * day,
        });
        match &w {
            SketchWindow::Days { full, partials, .. } => {
                assert_eq!(*full, (1, 3));
                assert!(partials.is_empty());
            }
            SketchWindow::All => panic!("bounded window"),
        }
        // Straddling: one full day, two boundary ranges.
        let w = SketchWindow::for_window(TimeWindow {
            start: day - 10,
            end: 2 * day + 7,
        });
        match &w {
            SketchWindow::Days { full, partials, .. } => {
                assert_eq!(*full, (1, 2));
                assert_eq!(
                    partials.as_slice(),
                    &[(day - 10, day), (2 * day, 2 * day + 7)]
                );
            }
            SketchWindow::All => panic!("bounded window"),
        }
        // Sub-day: a single partial, no full days.
        let w = SketchWindow::for_window(TimeWindow { start: 5, end: 99 });
        match &w {
            SketchWindow::Days { full, partials, .. } => {
                assert_eq!(full.0, full.1);
                assert_eq!(partials.as_slice(), &[(5, 99)]);
            }
            SketchWindow::All => panic!("bounded window"),
        }
        // Every second of a straddling window is in exactly one bucket.
        let w = SketchWindow::for_window(TimeWindow {
            start: day - 3,
            end: 2 * day + 3,
        });
        for ts in (day - 5)..(2 * day + 5) {
            let in_window = ts >= day - 3 && ts < 2 * day + 3;
            let covered = u32::from(w.includes_day(ts / day)) + u32::from(w.in_partials(ts));
            assert!(covered <= 1, "ts {ts} double-covered");
            assert_eq!(covered == 1, in_window, "ts {ts}");
        }
    }
}
