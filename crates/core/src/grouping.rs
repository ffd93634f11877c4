//! The text-based grouping method (§III-B, Table II).
//!
//! Per user: merge identical location strings and count them, order by
//! count descending, find the *matched string* (profile district == tweet
//! district), and record its rank.
//!
//! The paper leaves tie-breaking unspecified; we order equal counts by
//! first appearance in the tweet stream, which is deterministic and favours
//! the user's earlier-established haunts.
//!
//! Two carriers, one method: [`group_user_strings`] merges the published
//! string form directly, while [`group_user_keys`] runs the identical
//! algorithm over interned [`LocationKey`]s — the merge test is a single
//! `u32` compare and the loop allocates nothing per tweet (the per-user
//! merge buffer grows with *distinct districts*, bounded by the tiny
//! vocabulary). A property test pins the two paths to identical output
//! under every [`TieBreak`] policy. [`group_partition`] feeds the same
//! kernel from the fused engine's partition buffers.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::intern::{DistrictId, DistrictInterner, LocationKey};
use crate::string::LocationString;
use crate::topk::TopKGroup;

/// One merged entry of a user's ordered list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedEntry {
    /// Tweet-side state.
    pub state: String,
    /// Tweet-side county.
    pub county: String,
    /// Number of merged strings (tweets) at this location.
    pub count: u64,
    /// Whether this is the matched string.
    pub matched: bool,
}

/// A user after grouping: the ordered, merged list plus the matched rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupedUser {
    /// User id.
    pub user: u64,
    /// Profile-side state.
    pub state_profile: String,
    /// Profile-side county.
    pub county_profile: String,
    /// Merged entries, ordered by (count desc, first-seen asc).
    pub entries: Vec<MergedEntry>,
    /// 1-based rank of the matched string, if any.
    pub matched_rank: Option<usize>,
}

impl GroupedUser {
    /// The Top-k group this user falls into.
    pub fn group(&self) -> TopKGroup {
        TopKGroup::from_rank(self.matched_rank)
    }

    /// Number of distinct tweet districts — the quantity behind the
    /// paper's Fig. 6 ("the average number of tweet locations").
    pub fn distinct_locations(&self) -> usize {
        self.entries.len()
    }

    /// Total GPS tweets for this user.
    pub fn total_tweets(&self) -> u64 {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Tweets posted at the profile location.
    pub fn matched_tweets(&self) -> u64 {
        self.entries
            .iter()
            .find(|e| e.matched)
            .map_or(0, |e| e.count)
    }

    /// Fraction of tweets posted at the profile location, in `[0, 1]`.
    pub fn matched_fraction(&self) -> f64 {
        let total = self.total_tweets();
        if total == 0 {
            0.0
        } else {
            self.matched_tweets() as f64 / total as f64
        }
    }

    /// Renders the user's Table-II block: one merged string per line with
    /// its count, matched line marked. Formats straight into one output
    /// buffer — no intermediate `String` per row.
    pub fn render_table2(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            // Writing into a String is infallible.
            let _ = writeln!(
                out,
                "{}#{}#{}#{}#{} ({}){}",
                self.user,
                self.state_profile,
                self.county_profile,
                e.state,
                e.county,
                e.count,
                if e.matched { "  <- matched" } else { "" }
            );
        }
        out
    }
}

/// How entries with equal counts are ordered — the detail §III-B leaves
/// unspecified. [`TieBreak::FirstSeen`] is this implementation's default;
/// the two `Matched*` policies bound the ambiguity from above and below
/// (best/worst rank the matched string could get under any tie policy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// Earlier first appearance in the tweet stream wins (default).
    #[default]
    FirstSeen,
    /// Alphabetical by (state, county).
    Alphabetical,
    /// The matched string wins every tie (upper bound on its rank).
    MatchedFirst,
    /// The matched string loses every tie (lower bound on its rank).
    MatchedLast,
}

/// Groups one user's location strings (all strings must share the user and
/// profile fields — the pipeline guarantees this; violations panic in debug
/// builds).
pub fn group_user_strings(strings: &[LocationString]) -> Option<GroupedUser> {
    group_user_strings_with(strings, TieBreak::FirstSeen)
}

/// [`group_user_strings`] with an explicit tie-break policy.
pub fn group_user_strings_with(
    strings: &[LocationString],
    tie_break: TieBreak,
) -> Option<GroupedUser> {
    let first = strings.first()?;
    let user = first.user;
    let state_profile = first.state_profile.clone();
    let county_profile = first.county_profile.clone();

    // Merge, remembering first-seen order for tie-breaking.
    let mut order: Vec<(String, String)> = Vec::new();
    let mut counts: HashMap<(String, String), u64> = HashMap::new();
    for s in strings {
        debug_assert_eq!(s.user, user, "mixed users in one grouping call");
        debug_assert_eq!(s.state_profile, state_profile);
        debug_assert_eq!(s.county_profile, county_profile);
        let key = (s.state_tweet.clone(), s.county_tweet.clone());
        match counts.get_mut(&key) {
            Some(c) => *c += 1,
            None => {
                counts.insert(key.clone(), 1);
                order.push(key);
            }
        }
    }

    // Order: count desc, then the tie-break policy.
    let matched_key = (state_profile.clone(), county_profile.clone());
    let mut keys: Vec<(usize, (String, String))> = order.into_iter().enumerate().collect();
    keys.sort_by(|(ia, ka), (ib, kb)| {
        counts[kb].cmp(&counts[ka]).then_with(|| match tie_break {
            TieBreak::FirstSeen => ia.cmp(ib),
            TieBreak::Alphabetical => ka.cmp(kb),
            TieBreak::MatchedFirst => (kb == &matched_key)
                .cmp(&(ka == &matched_key))
                .then_with(|| ia.cmp(ib)),
            TieBreak::MatchedLast => (ka == &matched_key)
                .cmp(&(kb == &matched_key))
                .then_with(|| ia.cmp(ib)),
        })
    });

    let mut entries = Vec::with_capacity(keys.len());
    let mut matched_rank = None;
    for (rank0, (_, key)) in keys.into_iter().enumerate() {
        let count = counts[&key];
        let matched = key.0 == state_profile && key.1 == county_profile;
        if matched {
            matched_rank = Some(rank0 + 1);
        }
        entries.push(MergedEntry {
            state: key.0,
            county: key.1,
            count,
            matched,
        });
    }

    Some(GroupedUser {
        user,
        state_profile,
        county_profile,
        entries,
        matched_rank,
    })
}

/// Groups one user's interned location keys with the default
/// [`TieBreak::FirstSeen`] policy — the allocation-free twin of
/// [`group_user_strings`]. All keys must share the user and profile fields
/// (the pipeline guarantees this; violations panic in debug builds).
pub fn group_user_keys(keys: &[LocationKey], interner: &DistrictInterner) -> Option<GroupedUser> {
    group_user_keys_with(keys, TieBreak::FirstSeen, interner)
}

/// [`group_user_keys`] with an explicit tie-break policy.
///
/// The merge loop touches no heap memory per tweet: identity is a `u32`
/// compare against a small `(district, count, first-seen)` buffer whose
/// length is the user's *distinct* district count (bounded by the
/// vocabulary, ~229). District strings materialize only at the
/// [`GroupedUser`] boundary, once per distinct district.
pub fn group_user_keys_with(
    keys: &[LocationKey],
    tie_break: TieBreak,
    interner: &DistrictInterner,
) -> Option<GroupedUser> {
    group_user_iter(keys.iter(), tie_break, interner)
}

/// The merge kernel behind [`group_user_keys_with`] and
/// [`group_partition`], generic over how the caller stores the keys so a
/// partition run groups straight out of its `(ordinal, key)` pairs with
/// no per-run copy.
fn group_user_iter<'a>(
    mut keys: impl Iterator<Item = &'a LocationKey>,
    tie_break: TieBreak,
    interner: &DistrictInterner,
) -> Option<GroupedUser> {
    let first = keys.next()?;
    let user = first.user;
    let profile = first.profile;

    // Merge: (district, count, first-seen index among distinct districts).
    // Linear scan beats hashing at vocabulary scale, and — unlike a map
    // keyed by owned strings — never allocates on the per-tweet path.
    let mut merged: Vec<(DistrictId, u64, u32)> = Vec::new();
    for k in std::iter::once(first).chain(keys) {
        debug_assert_eq!(k.user, user, "mixed users in one grouping call");
        debug_assert_eq!(k.profile, profile, "mixed profiles in one grouping call");
        match merged.iter_mut().find(|(d, _, _)| *d == k.tweet) {
            Some(entry) => entry.1 += 1,
            None => {
                let first_seen = merged.len() as u32;
                merged.push((k.tweet, 1, first_seen));
            }
        }
    }

    // Order: count desc, then the tie-break policy — the same total order
    // the string path computes, so `sort_unstable` (no allocation) is safe.
    merged.sort_unstable_by(|a, b| merged_cmp(a, b, tie_break, profile, interner));

    Some(materialize_user(user, profile, &merged, interner))
}

/// One kept user's running total for one district: `(district, count,
/// first-seen ordinal)`. The ordinal is the global input position of the
/// district's earliest string — the store's scan ordinal in the sketch
/// merge, the ingest ordinal in the live session — so distinct districts
/// carry distinct ordinals, and ordering by them orders entries exactly as
/// the batch kernel's dense first-seen ids do.
pub(crate) type Tally = (DistrictId, u64, u64);

/// Adds `count` strings first seen at `ordinal` to `district`'s tally: the
/// counts sum, the earlier ordinal stays. A linear probe — a user's
/// distinct districts are bounded by the vocabulary and in practice few.
pub(crate) fn bump_tally(tallies: &mut Vec<Tally>, district: DistrictId, count: u64, ordinal: u64) {
    match tallies.iter_mut().find(|t| t.0 == district) {
        Some(t) => {
            t.1 += count;
            t.2 = t.2.min(ordinal);
        }
        None => tallies.push((district, count, ordinal)),
    }
}

/// Sorts one user's tallies into grouping order ([`merged_cmp`]).
pub(crate) fn rank_tallies(
    tallies: &mut [Tally],
    tie_break: TieBreak,
    profile: DistrictId,
    interner: &DistrictInterner,
) {
    tallies.sort_unstable_by(|a, b| merged_cmp(a, b, tie_break, profile, interner));
}

/// The matched rank [`rank_tallies`] + [`materialize_user`] would report
/// under [`TieBreak::FirstSeen`] — 1 + the tallies ordering before the
/// profile district's, `None` without one — with no sort and no
/// allocation.
pub(crate) fn tally_rank(
    tallies: &[Tally],
    profile: DistrictId,
    interner: &DistrictInterner,
) -> Option<usize> {
    let matched = tallies.iter().find(|t| t.0 == profile)?;
    let ahead = tallies
        .iter()
        .filter(|t| merged_cmp(t, matched, TieBreak::FirstSeen, profile, interner).is_lt())
        .count();
    Some(ahead + 1)
}

/// The grouping total order over merged `(district, count, first-seen)`
/// entries: count desc, then the tie-break policy. One definition shared
/// by the batch kernel (dense `u32` first-seen ids), the sketch merge and
/// the live session ([`Tally`] ordinals), so their orders can never drift.
pub(crate) fn merged_cmp<K: Ord>(
    a: &(DistrictId, u64, K),
    b: &(DistrictId, u64, K),
    tie_break: TieBreak,
    profile: DistrictId,
    interner: &DistrictInterner,
) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then_with(|| match tie_break {
        TieBreak::FirstSeen => a.2.cmp(&b.2),
        TieBreak::Alphabetical => interner.resolve(a.0).cmp(&interner.resolve(b.0)),
        TieBreak::MatchedFirst => (b.0 == profile)
            .cmp(&(a.0 == profile))
            .then_with(|| a.2.cmp(&b.2)),
        TieBreak::MatchedLast => (a.0 == profile)
            .cmp(&(b.0 == profile))
            .then_with(|| a.2.cmp(&b.2)),
    })
}

/// Resolves a sorted merged list back to the published-string
/// [`GroupedUser`] — the boundary where ids become strings, shared by the
/// batch kernel, the sketch merge and the live session.
pub(crate) fn materialize_user<K>(
    user: u64,
    profile: DistrictId,
    merged: &[(DistrictId, u64, K)],
    interner: &DistrictInterner,
) -> GroupedUser {
    let (state_profile, county_profile) = interner.resolve(profile);
    let mut entries = Vec::with_capacity(merged.len());
    let mut matched_rank = None;
    for (rank0, &(district, count, _)) in merged.iter().enumerate() {
        let matched = district == profile;
        if matched {
            matched_rank = Some(rank0 + 1);
        }
        let (state, county) = interner.resolve(district);
        entries.push(MergedEntry {
            state: state.to_string(),
            county: county.to_string(),
            count,
            matched,
        });
    }

    GroupedUser {
        user,
        state_profile: state_profile.to_string(),
        county_profile: county_profile.to_string(),
        entries,
        matched_rank,
    }
}

/// Groups one hash partition of ordinal-tagged keys, as emitted by the
/// fused morsel engine. `pairs` must hold each user's keys as one
/// contiguous run with ordinals ascending inside the run — the ordinal is
/// each key's global input position, so every run is that user's keys *in
/// tweet input order*, exactly the per-user sequence the staged path hands
/// [`group_user_keys_with`]. Run order across users is free (a full
/// `(user, ordinal)` sort is one valid arrangement, a bucket scatter is
/// another); each run feeds the shared merge kernel straight from the pair
/// slice (no per-run copy), so the per-user output is byte-identical to
/// the staged path's. Output follows run order — callers wanting a global
/// order sort the grouped users afterwards.
pub fn group_partition(
    pairs: &[(u64, LocationKey)],
    interner: &DistrictInterner,
    tie_break: TieBreak,
) -> Vec<GroupedUser> {
    debug_assert!(
        pairs
            .windows(2)
            .all(|w| w[0].1.user != w[1].1.user || w[0].0 < w[1].0),
        "ordinals not ascending within a user run"
    );
    #[cfg(debug_assertions)]
    {
        let mut seen = std::collections::HashSet::new();
        for w in pairs.windows(2) {
            if w[0].1.user != w[1].1.user {
                assert!(seen.insert(w[0].1.user), "user split across runs");
            }
        }
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let user = pairs[i].1.user;
        let run_start = i;
        while i < pairs.len() && pairs[i].1.user == user {
            i += 1;
        }
        let run = &pairs[run_start..i];
        if let Some(g) = group_user_iter(run.iter().map(|(_, k)| k), tie_break, interner) {
            out.push(g);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(user: u64, cp: &str, ct: &str) -> LocationString {
        LocationString {
            user,
            state_profile: "Seoul".into(),
            county_profile: cp.into(),
            state_tweet: "Seoul".into(),
            county_tweet: ct.into(),
        }
    }

    #[test]
    fn paper_table2_user_100() {
        // User posts 4 from Yangchun-gu (sic), 3... reproducing Table II's
        // shape: 4 matched, 2 Jung-gu, 1 Seodaemun-gu.
        let strings: Vec<LocationString> =
            std::iter::repeat_with(|| s(100, "Yangchun-gu", "Yangchun-gu"))
                .take(4)
                .chain(std::iter::repeat_with(|| s(100, "Yangchun-gu", "Jung-gu")).take(2))
                .chain(std::iter::once(s(100, "Yangchun-gu", "Seodaemun-gu")))
                .collect();
        let g = group_user_strings(&strings).unwrap();
        assert_eq!(g.entries.len(), 3);
        assert_eq!(g.entries[0].count, 4);
        assert!(g.entries[0].matched);
        assert_eq!(g.matched_rank, Some(1));
        assert_eq!(g.group(), TopKGroup::Top1);
        assert_eq!(g.total_tweets(), 7);
        assert_eq!(g.matched_tweets(), 4);
        assert!((g.matched_fraction() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn paper_table2_user_71_is_top2() {
        // Uiwang-si profile; 2 matched, 2 Uiwang... wait — Table II: user 71
        // has Uiwang-si (2) ranked SECOND behind another Uiwang entry? The
        // table shows 71#…#Uiwang-si (2) then 71#…#Seongnam-si (1), with the
        // matched string second after a 3-count entry elsewhere. We model
        // the described outcome: matched rank 2.
        let strings: Vec<LocationString> = std::iter::repeat_with(|| LocationString {
            user: 71,
            state_profile: "Gyeonggi-do".into(),
            county_profile: "Uiwang-si".into(),
            state_tweet: "Seoul".into(),
            county_tweet: "Gangnam-gu".into(),
        })
        .take(3)
        .chain(
            std::iter::repeat_with(|| LocationString {
                user: 71,
                state_profile: "Gyeonggi-do".into(),
                county_profile: "Uiwang-si".into(),
                state_tweet: "Gyeonggi-do".into(),
                county_tweet: "Uiwang-si".into(),
            })
            .take(2),
        )
        .chain(std::iter::once(LocationString {
            user: 71,
            state_profile: "Gyeonggi-do".into(),
            county_profile: "Uiwang-si".into(),
            state_tweet: "Gyeonggi-do".into(),
            county_tweet: "Seongnam-si".into(),
        }))
        .collect();
        let g = group_user_strings(&strings).unwrap();
        assert_eq!(g.matched_rank, Some(2));
        assert_eq!(g.group(), TopKGroup::Top2);
    }

    #[test]
    fn no_match_is_none_group() {
        let strings = vec![
            s(5, "Yangcheon-gu", "Jung-gu"),
            s(5, "Yangcheon-gu", "Mapo-gu"),
        ];
        let g = group_user_strings(&strings).unwrap();
        assert_eq!(g.matched_rank, None);
        assert_eq!(g.group(), TopKGroup::None);
        assert_eq!(g.matched_tweets(), 0);
        assert_eq!(g.matched_fraction(), 0.0);
    }

    #[test]
    fn county_match_requires_state_match() {
        // Profile Seoul/Jung-gu; tweets from Busan/Jung-gu must NOT match.
        let strings = vec![LocationString {
            user: 9,
            state_profile: "Seoul".into(),
            county_profile: "Jung-gu".into(),
            state_tweet: "Busan".into(),
            county_tweet: "Jung-gu".into(),
        }];
        let g = group_user_strings(&strings).unwrap();
        assert_eq!(g.group(), TopKGroup::None);
    }

    #[test]
    fn ties_break_by_first_seen() {
        let strings = vec![
            s(7, "Yangcheon-gu", "Mapo-gu"),
            s(7, "Yangcheon-gu", "Yangcheon-gu"),
            s(7, "Yangcheon-gu", "Mapo-gu"),
            s(7, "Yangcheon-gu", "Yangcheon-gu"),
        ];
        let g = group_user_strings(&strings).unwrap();
        // 2–2 tie; Mapo-gu appeared first → rank 1, matched rank 2.
        assert_eq!(g.entries[0].county, "Mapo-gu");
        assert_eq!(g.matched_rank, Some(2));
    }

    #[test]
    fn empty_input_is_none() {
        assert!(group_user_strings(&[]).is_none());
    }

    #[test]
    fn tie_break_policies_bound_the_rank() {
        // 2–2 tie between Mapo-gu (seen first) and the matched district.
        let strings = vec![
            s(7, "Yangcheon-gu", "Mapo-gu"),
            s(7, "Yangcheon-gu", "Yangcheon-gu"),
            s(7, "Yangcheon-gu", "Mapo-gu"),
            s(7, "Yangcheon-gu", "Yangcheon-gu"),
        ];
        let first_seen = group_user_strings_with(&strings, TieBreak::FirstSeen).unwrap();
        assert_eq!(first_seen.matched_rank, Some(2));
        let best = group_user_strings_with(&strings, TieBreak::MatchedFirst).unwrap();
        assert_eq!(best.matched_rank, Some(1));
        let worst = group_user_strings_with(&strings, TieBreak::MatchedLast).unwrap();
        assert_eq!(worst.matched_rank, Some(2));
        // Alphabetical: Mapo-gu < Yangcheon-gu → matched second.
        let alpha = group_user_strings_with(&strings, TieBreak::Alphabetical).unwrap();
        assert_eq!(alpha.matched_rank, Some(2));
        // Counts are policy-independent.
        for g in [&first_seen, &best, &worst, &alpha] {
            assert_eq!(g.total_tweets(), 4);
            assert_eq!(g.matched_tweets(), 2);
        }
    }

    #[test]
    fn tie_break_is_noop_without_ties() {
        let strings = vec![
            s(1, "Guro-gu", "Guro-gu"),
            s(1, "Guro-gu", "Guro-gu"),
            s(1, "Guro-gu", "Mapo-gu"),
        ];
        for tb in [
            TieBreak::FirstSeen,
            TieBreak::Alphabetical,
            TieBreak::MatchedFirst,
            TieBreak::MatchedLast,
        ] {
            let g = group_user_strings_with(&strings, tb).unwrap();
            assert_eq!(g.matched_rank, Some(1), "{tb:?}");
        }
    }

    #[test]
    fn single_matched_tweet_is_top1() {
        let g = group_user_strings(&[s(1, "Guro-gu", "Guro-gu")]).unwrap();
        assert_eq!(g.group(), TopKGroup::Top1);
        assert_eq!(g.distinct_locations(), 1);
    }

    /// Interns a string batch and groups it through the packed path.
    fn group_interned(strings: &[LocationString], tb: TieBreak) -> Option<GroupedUser> {
        let mut interner = DistrictInterner::new();
        let keys: Vec<LocationKey> = strings.iter().map(|s| s.to_key(&mut interner)).collect();
        group_user_keys_with(&keys, tb, &interner)
    }

    #[test]
    fn interned_path_matches_string_path() {
        let strings: Vec<LocationString> =
            std::iter::repeat_with(|| s(100, "Yangchun-gu", "Yangchun-gu"))
                .take(4)
                .chain(std::iter::repeat_with(|| s(100, "Yangchun-gu", "Jung-gu")).take(2))
                .chain(std::iter::once(s(100, "Yangchun-gu", "Seodaemun-gu")))
                .collect();
        for tb in [
            TieBreak::FirstSeen,
            TieBreak::Alphabetical,
            TieBreak::MatchedFirst,
            TieBreak::MatchedLast,
        ] {
            let via_strings = group_user_strings_with(&strings, tb).unwrap();
            let via_keys = group_interned(&strings, tb).unwrap();
            assert_eq!(via_keys.user, via_strings.user, "{tb:?}");
            assert_eq!(via_keys.state_profile, via_strings.state_profile, "{tb:?}");
            assert_eq!(
                via_keys.county_profile, via_strings.county_profile,
                "{tb:?}"
            );
            assert_eq!(via_keys.entries, via_strings.entries, "{tb:?}");
            assert_eq!(via_keys.matched_rank, via_strings.matched_rank, "{tb:?}");
        }
    }

    #[test]
    fn interned_path_distinguishes_same_county_across_states() {
        // Busan/Jung-gu must not merge with (or match) Seoul/Jung-gu.
        let strings = vec![
            LocationString {
                user: 9,
                state_profile: "Seoul".into(),
                county_profile: "Jung-gu".into(),
                state_tweet: "Busan".into(),
                county_tweet: "Jung-gu".into(),
            },
            LocationString {
                user: 9,
                state_profile: "Seoul".into(),
                county_profile: "Jung-gu".into(),
                state_tweet: "Seoul".into(),
                county_tweet: "Jung-gu".into(),
            },
        ];
        let g = group_interned(&strings, TieBreak::FirstSeen).unwrap();
        assert_eq!(g.entries.len(), 2);
        assert_eq!(g.matched_rank, Some(2));
        assert_eq!(g.matched_tweets(), 1);
    }

    #[test]
    fn empty_keys_are_none() {
        let interner = DistrictInterner::new();
        assert!(group_user_keys(&[], &interner).is_none());
    }

    #[test]
    fn partition_grouping_matches_the_cohort_engine() {
        let mut interner = DistrictInterner::new();
        let home = interner.intern("Seoul", "Yangchun-gu");
        let away = interner.intern("Seoul", "Jung-gu");
        let far = interner.intern("Busan", "Jung-gu");
        // Three users, keys in a deliberately interleaved global order.
        let emitted: Vec<(u64, LocationKey)> = vec![
            (0, key(7, home, away)),
            (1, key(3, home, home)),
            (2, key(7, home, home)),
            (3, key(9, away, far)),
            (4, key(3, home, away)),
            (5, key(7, home, home)),
        ];
        let mut pairs = emitted.clone();
        pairs.sort_unstable_by_key(|&(ord, k)| (k.user, ord));
        let grouped = group_partition(&pairs, &interner, TieBreak::FirstSeen);
        // Reference: the staged path's per-user vectors in input order.
        let reference: Vec<GroupedUser> = [3u64, 7, 9]
            .iter()
            .filter_map(|&u| {
                let keys: Vec<LocationKey> = emitted
                    .iter()
                    .filter(|(_, k)| k.user == u)
                    .map(|&(_, k)| k)
                    .collect();
                group_user_keys_with(&keys, TieBreak::FirstSeen, &interner)
            })
            .collect();
        assert_eq!(grouped.len(), reference.len());
        for (a, b) in grouped.iter().zip(&reference) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.entries, b.entries);
            assert_eq!(a.matched_rank, b.matched_rank);
        }
    }

    fn key(user: u64, profile: DistrictId, tweet: DistrictId) -> LocationKey {
        LocationKey {
            user,
            profile,
            tweet,
        }
    }

    #[test]
    fn render_table2_marks_match() {
        let g = group_user_strings(&[
            s(100, "Yangchun-gu", "Yangchun-gu"),
            s(100, "Yangchun-gu", "Jung-gu"),
        ])
        .unwrap();
        let rendered = g.render_table2();
        assert!(rendered.contains("100#Seoul#Yangchun-gu#Seoul#Yangchun-gu (1)  <- matched"));
        assert!(rendered.contains("100#Seoul#Yangchun-gu#Seoul#Jung-gu (1)"));
    }
}
