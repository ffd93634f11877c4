//! Resolving a single location segment against the gazetteer.
//!
//! Tries, in order of trust: exact romanized/Korean names (with aliases),
//! stem forms without the si/gun/gu suffix, suffix re-joining
//! ("yangcheon gu" → "yangcheon-gu"), and finally typo-tolerant fuzzy
//! matching. Also recognizes the coarser levels the paper calls
//! *insufficient*: province-only, country-only and planet-only text.

use std::collections::HashMap;

use stir_geokr::{DistrictId, ForwardGeocoder, ForwardResult, Gazetteer, Province};

use crate::edit::within_one_edit;
use crate::hangul::romanize;
use crate::normalize::{join_suffix, tokens};

/// What a segment resolved to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchOutcome {
    /// A unique second-level district — the paper's "well defined" grain.
    District(DistrictId),
    /// A valid district name shared by several districts, with no province
    /// to disambiguate ("Jung-gu"), or several distinct districts in one
    /// segment.
    AmbiguousDistrict(Vec<DistrictId>),
    /// Only a first-level division ("Seoul" — the paper's *insufficient*
    /// example).
    ProvinceOnly(Province),
    /// Only a country reference ("Korea").
    Country,
    /// Only a planet-scale reference ("Earth").
    Planet,
    /// Nothing geographic recognized.
    NoMatch,
}

const COUNTRY_WORDS: &[&str] = &["korea", "대한민국", "한국", "southkorea"];
const PLANET_WORDS: &[&str] = &["earth", "world", "지구", "everywhere", "universe", "우주"];

/// Segment resolver over a gazetteer. Build once, reuse for every profile.
pub struct DistrictMatcher<'g> {
    forward: ForwardGeocoder<'g>,
    /// romanized stem (no suffix) → district ids
    stems: HashMap<String, Vec<DistrictId>>,
    /// Korean stem (no suffix char) → district ids
    ko_stems: HashMap<String, Vec<DistrictId>>,
    /// every romanized full name, for fuzzy matching
    fuzzy_pool: Vec<(String, DistrictId)>,
}

impl<'g> DistrictMatcher<'g> {
    /// Builds the matcher's lookup tables from the gazetteer.
    pub fn new(gazetteer: &'g Gazetteer) -> Self {
        let forward = ForwardGeocoder::new(gazetteer);
        let mut stems: HashMap<String, Vec<DistrictId>> = HashMap::new();
        let mut ko_stems: HashMap<String, Vec<DistrictId>> = HashMap::new();
        let mut fuzzy_pool = Vec::with_capacity(gazetteer.len());
        for d in gazetteer.districts() {
            stems
                .entry(d.stem_en().to_ascii_lowercase())
                .or_default()
                .push(d.id);
            let ko = d.name_ko;
            if let Some(stripped) = ko.strip_suffix(d.kind.suffix_ko()) {
                if !stripped.is_empty() {
                    ko_stems.entry(stripped.to_string()).or_default().push(d.id);
                }
            }
            fuzzy_pool.push((d.name_en.to_ascii_lowercase(), d.id));
        }
        DistrictMatcher {
            forward,
            stems,
            ko_stems,
            fuzzy_pool,
        }
    }

    /// The wrapped forward geocoder.
    pub fn forward(&self) -> &ForwardGeocoder<'g> {
        &self.forward
    }

    /// Finds the province mentioned anywhere in the token list, if any.
    fn find_province(&self, toks: &[&str]) -> Option<Province> {
        for (i, t) in toks.iter().enumerate() {
            if let Some(p) = self.forward.resolve_province(t) {
                return Some(p);
            }
            // "south korea" never names a province, but "gyeonggi do" does.
            if let Some(next) = toks.get(i + 1) {
                if let Some(joined) = join_suffix(t, next) {
                    if let Some(p) = self.forward.resolve_province(&joined) {
                        return Some(p);
                    }
                }
            }
            // Korean province stem with suffix variations: "서울시" → "서울".
            if t.chars().count() >= 2 && !t.is_ascii() {
                let without_last: String = {
                    let mut cs: Vec<char> = t.chars().collect();
                    cs.pop();
                    cs.into_iter().collect()
                };
                if let Some(p) = self.forward.resolve_province(&without_last) {
                    return Some(p);
                }
            }
        }
        None
    }

    fn district_candidates(&self, toks: &[&str], scope: Option<Province>) -> Vec<DistrictId> {
        let mut found: Vec<DistrictId> = Vec::new();
        let push_result = |r: ForwardResult, found: &mut Vec<DistrictId>| match r {
            ForwardResult::Unique(id) => {
                if !found.contains(&id) {
                    found.push(id);
                }
            }
            ForwardResult::Ambiguous(ids) => {
                for id in ids {
                    if !found.contains(&id) {
                        found.push(id);
                    }
                }
            }
            ForwardResult::NotFound => {}
        };

        let mut i = 0;
        while i < toks.len() {
            let t = toks[i];
            // Skip tokens that are province or country/planet words.
            if self.forward.resolve_province(t).is_some()
                || COUNTRY_WORDS.contains(&t)
                || PLANET_WORDS.contains(&t)
                || t == "south"
            {
                i += 1;
                continue;
            }
            // Exact / alias / Korean full names.
            let direct = self.forward.resolve_district(t, scope);
            if direct != ForwardResult::NotFound {
                push_result(direct, &mut found);
                i += 1;
                continue;
            }
            // Suffix re-joining: "yangcheon gu".
            if let Some(next) = toks.get(i + 1) {
                if let Some(joined) = join_suffix(t, next) {
                    let r = self.forward.resolve_district(&joined, scope);
                    if r != ForwardResult::NotFound {
                        push_result(r, &mut found);
                        i += 2;
                        continue;
                    }
                }
            }
            // Stem forms.
            if let Some(ids) = self.stems.get(t) {
                let scoped = self.scope_filter(ids, scope);
                if !scoped.is_empty() {
                    for id in scoped {
                        if !found.contains(&id) {
                            found.push(id);
                        }
                    }
                    i += 1;
                    continue;
                }
            }
            if let Some(ids) = self.ko_stems.get(t) {
                let scoped = self.scope_filter(ids, scope);
                for id in scoped {
                    if !found.contains(&id) {
                        found.push(id);
                    }
                }
                i += 1;
                continue;
            }
            // Unrecognized Korean token: romanize it (Revised Romanization,
            // see `hangul`) and retry the romanized paths — this resolves
            // spellings the ko tables never indexed, e.g. a district name
            // written with an attached particle or unusual suffix.
            if !t.is_ascii() {
                let roman = romanize(t);
                let r = self.forward.resolve_district(&roman, scope);
                if r != ForwardResult::NotFound {
                    push_result(r, &mut found);
                    i += 1;
                    continue;
                }
                if let Some(ids) = self.stems.get(roman.as_str()) {
                    let scoped = self.scope_filter(ids, scope);
                    if !scoped.is_empty() {
                        for id in scoped {
                            if !found.contains(&id) {
                                found.push(id);
                            }
                        }
                        i += 1;
                        continue;
                    }
                }
                // Particle-bearing Korean forms: "양천구에서" → strip
                // trailing syllables and retry full names and stems.
                let mut cs: Vec<char> = t.chars().collect();
                while cs.len() > 1 {
                    cs.pop();
                    let stem: String = cs.iter().collect();
                    let r = self.forward.resolve_district(&stem, scope);
                    if r != ForwardResult::NotFound {
                        push_result(r, &mut found);
                        break;
                    }
                    if let Some(ids) = self.ko_stems.get(stem.as_str()) {
                        let scoped = self.scope_filter(ids, scope);
                        if !scoped.is_empty() {
                            for id in scoped {
                                if !found.contains(&id) {
                                    found.push(id);
                                }
                            }
                            break;
                        }
                    }
                }
            }
            // Fuzzy: only for ASCII tokens of 6 bytes or more, to keep
            // false positives down.
            if t.len() >= 6 && t.is_ascii() {
                let hits = self.fuzzy_hits(t);
                let scoped = self.scope_filter(&hits, scope);
                for id in scoped {
                    if !found.contains(&id) {
                        found.push(id);
                    }
                }
            }
            i += 1;
        }
        found
    }

    /// Every district whose romanized full name is within one edit of
    /// `t`, in pool order. Byte-wise, so it matches the char-wise
    /// Damerau–Levenshtein distance only for ASCII tokens; every pool name
    /// is ASCII.
    fn fuzzy_hits(&self, t: &str) -> Vec<DistrictId> {
        self.fuzzy_pool
            .iter()
            .filter(|(name, _)| within_one_edit(t.as_bytes(), name.as_bytes()))
            .map(|&(_, id)| id)
            .collect()
    }

    fn scope_filter(&self, ids: &[DistrictId], scope: Option<Province>) -> Vec<DistrictId> {
        match scope {
            None => ids.to_vec(),
            Some(p) => ids
                .iter()
                .copied()
                .filter(|&id| self.forward.gazetteer().district(id).province == p)
                .collect(),
        }
    }

    /// Resolves one normalized segment.
    pub fn match_segment(&self, segment_text: &str) -> MatchOutcome {
        let toks = tokens(segment_text);
        if toks.is_empty() {
            return MatchOutcome::NoMatch;
        }
        let province = self.find_province(&toks);
        let districts = self.district_candidates(&toks, province);
        match districts.len() {
            1 => return MatchOutcome::District(districts[0]),
            n if n > 1 => return MatchOutcome::AmbiguousDistrict(districts),
            _ => {}
        }
        if let Some(p) = province {
            return MatchOutcome::ProvinceOnly(p);
        }
        let mut saw_country = false;
        let mut saw_planet = false;
        for (i, t) in toks.iter().enumerate() {
            if COUNTRY_WORDS.contains(t) || (*t == "korea" && i > 0 && toks[i - 1] == "south") {
                saw_country = true;
            }
            if PLANET_WORDS.contains(t) {
                saw_planet = true;
            }
        }
        if saw_country {
            MatchOutcome::Country
        } else if saw_planet {
            MatchOutcome::Planet
        } else {
            MatchOutcome::NoMatch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (&'static Gazetteer, DistrictMatcher<'static>) {
        let g: &'static Gazetteer = Box::leak(Box::new(Gazetteer::load()));
        let m = DistrictMatcher::new(g);
        (g, m)
    }

    fn expect_district(m: &DistrictMatcher<'_>, g: &Gazetteer, text: &str, name: &str) {
        match m.match_segment(text) {
            MatchOutcome::District(id) => assert_eq!(g.district(id).name_en, name, "for {text:?}"),
            other => panic!("{text:?} → {other:?}, expected {name}"),
        }
    }

    #[test]
    fn full_form_resolves() {
        let (g, m) = setup();
        expect_district(&m, g, "seoul yangcheon-gu", "Yangcheon-gu");
        expect_district(&m, g, "gyeonggi-do uiwang-si", "Uiwang-si");
    }

    #[test]
    fn district_only_unique_resolves() {
        let (g, m) = setup();
        expect_district(&m, g, "yangcheon-gu", "Yangcheon-gu");
        expect_district(&m, g, "bucheon", "Bucheon-si");
    }

    #[test]
    fn split_suffix_resolves() {
        let (g, m) = setup();
        expect_district(&m, g, "seoul yangcheon gu", "Yangcheon-gu");
    }

    #[test]
    fn korean_forms_resolve() {
        let (g, m) = setup();
        expect_district(&m, g, "서울 양천구", "Yangcheon-gu");
        expect_district(&m, g, "경기도 의왕시", "Uiwang-si");
        // Korean stem without suffix.
        expect_district(&m, g, "서울 양천", "Yangcheon-gu");
    }

    #[test]
    fn province_scopes_shared_names() {
        let (g, m) = setup();
        match m.match_segment("jung-gu") {
            MatchOutcome::AmbiguousDistrict(ids) => assert_eq!(ids.len(), 6),
            other => panic!("unexpected {other:?}"),
        }
        expect_district(&m, g, "busan jung-gu", "Jung-gu");
        match m.match_segment("busan jung-gu") {
            MatchOutcome::District(id) => assert_eq!(g.district(id).province, Province::Busan),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn province_only_and_coarser() {
        let (_, m) = setup();
        assert_eq!(
            m.match_segment("seoul"),
            MatchOutcome::ProvinceOnly(Province::Seoul)
        );
        assert_eq!(m.match_segment("korea"), MatchOutcome::Country);
        assert_eq!(m.match_segment("south korea"), MatchOutcome::Country);
        assert_eq!(m.match_segment("earth"), MatchOutcome::Planet);
        assert_eq!(m.match_segment("대한민국"), MatchOutcome::Country);
    }

    #[test]
    fn seoul_korea_is_still_province_only() {
        let (_, m) = setup();
        assert_eq!(
            m.match_segment("seoul korea"),
            MatchOutcome::ProvinceOnly(Province::Seoul)
        );
    }

    #[test]
    fn fuzzy_matches_typos() {
        let (g, m) = setup();
        expect_district(&m, g, "seoul gangnm-gu", "Gangnam-gu");
        expect_district(&m, g, "seoul yangchun-gu", "Yangcheon-gu"); // paper's own spelling
    }

    #[test]
    fn fuzzy_pool_is_ascii() {
        // `within_one_edit` compares bytes; it answers like the char-wise
        // distance only while every name it is asked about is ASCII.
        let (g, m) = setup();
        assert_eq!(m.fuzzy_pool.len(), g.len());
        for (name, _) in &m.fuzzy_pool {
            assert!(name.is_ascii(), "{name:?}");
        }
    }

    #[test]
    fn fuzzy_hits_equal_the_edit_distance_scan_on_every_one_edit_variant() {
        use crate::edit::bounded_damerau_levenshtein;
        use std::collections::BTreeSet;
        let (_, m) = setup();
        // The scan the fuzzy pass used to run. To keep this test fast in
        // debug builds it skips names the distance would reject anyway:
        // one edit of a string of 3+ bytes changes its length by at most
        // one and leaves its first or its last byte in place.
        let oracle = |t: &str| -> Vec<DistrictId> {
            let tb = t.as_bytes();
            m.fuzzy_pool
                .iter()
                .filter(|(name, _)| {
                    let nb = name.as_bytes();
                    nb.len().abs_diff(tb.len()) <= 1
                        && (nb.first() == tb.first() || nb.last() == tb.last())
                })
                .filter(|(name, _)| bounded_damerau_levenshtein(t, name, 1).is_some())
                .map(|&(_, id)| id)
                .collect()
        };
        // A common vowel and the hyphen, where romanized names differ.
        const ALPHABET: &[u8] = b"e-";
        let mut variants: BTreeSet<Vec<u8>> = BTreeSet::new();
        for (name, _) in &m.fuzzy_pool {
            let n = name.as_bytes();
            for i in 0..n.len() {
                let mut v = n.to_vec();
                v.remove(i);
                variants.insert(v);
                if i + 1 < n.len() {
                    let mut v = n.to_vec();
                    v.swap(i, i + 1);
                    variants.insert(v);
                }
            }
            for &c in ALPHABET {
                for i in 0..n.len() {
                    let mut v = n.to_vec();
                    v[i] = c;
                    variants.insert(v);
                }
                for i in 0..=n.len() {
                    let mut v = n.to_vec();
                    v.insert(i, c);
                    variants.insert(v);
                }
            }
        }
        let mut multi_hit = 0;
        for v in &variants {
            let t = std::str::from_utf8(v).expect("ASCII edits of ASCII names");
            let hits = m.fuzzy_hits(t);
            assert_eq!(hits, oracle(t), "{t:?}");
            // Every variant is at most one edit from the name it came from.
            assert!(!hits.is_empty(), "{t:?}");
            multi_hit += usize::from(hits.len() > 1);
        }
        // Shared and near-shared names make some variants hit several
        // districts, so the order of the hit list is exercised too.
        assert!(multi_hit > 0);
    }

    #[test]
    fn nonsense_is_no_match() {
        let (_, m) = setup();
        assert_eq!(m.match_segment("darangland"), MatchOutcome::NoMatch);
        assert_eq!(m.match_segment("my home"), MatchOutcome::NoMatch);
        assert_eq!(m.match_segment(""), MatchOutcome::NoMatch);
    }

    #[test]
    fn two_districts_in_one_segment_are_ambiguous() {
        let (_, m) = setup();
        match m.match_segment("gangnam-gu mapo-gu") {
            MatchOutcome::AmbiguousDistrict(ids) => assert_eq!(ids.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hierarchy_with_country_resolves_to_district() {
        let (g, m) = setup();
        expect_district(&m, g, "bucheon gyeonggi-do korea", "Bucheon-si");
    }

    #[test]
    fn bare_province_stem_resolves() {
        let (_, m) = setup();
        assert_eq!(
            m.match_segment("gangwon"),
            MatchOutcome::ProvinceOnly(Province::Gangwon)
        );
        assert_eq!(
            m.match_segment("jeju"),
            MatchOutcome::ProvinceOnly(Province::Jeju)
        );
    }

    #[test]
    fn korean_with_particles_resolves_via_stripping() {
        let (g, m) = setup();
        // "양천구에서" = "in Yangcheon-gu" — the attached particle 에서
        // defeats exact lookup; syllable stripping recovers the name.
        expect_district(&m, g, "서울 양천구에서", "Yangcheon-gu");
    }

    #[test]
    fn romanized_korean_token_resolves() {
        let (g, m) = setup();
        // A Korean spelling the ko tables do not index directly but whose
        // romanization hits the stem index: the full Korean name with the
        // province spelled in a mixed form.
        expect_district(&m, g, "seoul 양천", "Yangcheon-gu");
    }
}
