//! Property tests: the text machinery must be total (no panics on any
//! input), idempotent where claimed, and range-safe.

use proptest::prelude::*;
use stir_geokr::Gazetteer;
use stir_textgeo::coords::parse_coordinates;
use stir_textgeo::edit::{bounded_damerau_levenshtein, within_one_edit};
use stir_textgeo::hangul::romanize;
use stir_textgeo::normalize::normalize;
use stir_textgeo::segment::split_alternatives;
use stir_textgeo::ProfileClassifier;

fn gaz() -> &'static Gazetteer {
    use std::sync::OnceLock;
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

/// The fuzzy matcher's spelling of district `pick`: its lowercased
/// romanized full name.
fn district_name(pick: usize) -> String {
    let districts = gaz().districts();
    districts[pick % districts.len()]
        .name_en
        .to_ascii_lowercase()
}

/// `name` after one edit at byte `at`: `kind` 0 deletes, 1 swaps with the
/// next byte, 2 substitutes `c`, 3 inserts `c`.
fn one_edit(name: &str, kind: usize, at: usize, c: u8) -> String {
    let mut v = name.as_bytes().to_vec();
    match kind {
        0 => {
            v.remove(at % v.len());
        }
        1 => {
            let i = at % (v.len() - 1);
            v.swap(i, i + 1);
        }
        2 => {
            let i = at % v.len();
            v[i] = c;
        }
        _ => v.insert(at % (v.len() + 1), c),
    }
    String::from_utf8(v).expect("ASCII edits of an ASCII name")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn normalize_is_idempotent(s in "\\PC{0,60}") {
        let once = normalize(&s);
        let twice = normalize(&once);
        prop_assert_eq!(&once, &twice, "input {:?}", s);
    }

    #[test]
    fn normalize_output_is_clean(s in "\\PC{0,60}") {
        let n = normalize(&s);
        prop_assert!(!n.starts_with(' ') && !n.ends_with(' '));
        prop_assert!(!n.contains("  "), "double space in {:?}", n);
        // ASCII letters are lowercased.
        prop_assert!(n.chars().all(|c| !c.is_ascii_uppercase()));
    }

    #[test]
    fn classifier_is_total(s in "\\PC{0,60}") {
        // Any unicode soup must classify without panicking.
        let _ = ProfileClassifier::new(gaz()).classify(&s);
    }

    #[test]
    fn classifier_total_on_korean_mixed(s in "[가-힣a-z0-9 ,/.-]{0,40}") {
        let _ = ProfileClassifier::new(gaz()).classify(&s);
    }

    #[test]
    fn coordinates_are_in_range(s in "\\PC{0,60}") {
        if let Some(p) = parse_coordinates(&s) {
            prop_assert!((-90.0..=90.0).contains(&p.lat));
            prop_assert!((-180.0..=180.0).contains(&p.lon));
        }
    }

    #[test]
    fn valid_pairs_always_parse(lat in -89.0f64..89.0, lon in -179.0f64..179.0) {
        let text = format!("{lat:.4}, {lon:.4}");
        let p = parse_coordinates(&text).expect("well-formed pair parses");
        prop_assert!((p.lat - lat).abs() < 1e-3);
        prop_assert!((p.lon - lon).abs() < 1e-3);
    }

    #[test]
    fn segments_partition_content(s in "[a-z가-힣 /,]{0,50}") {
        let normalized = normalize(&s);
        let segs = split_alternatives(&normalized);
        // No segment is empty, none contains a separator.
        for seg in &segs {
            prop_assert!(!seg.text.is_empty());
            prop_assert!(!seg.text.contains('/'));
            prop_assert!(!seg.text.contains(','));
        }
    }

    #[test]
    fn edit_distance_is_symmetric_metric(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        let ab = bounded_damerau_levenshtein(&a, &b, 20);
        let ba = bounded_damerau_levenshtein(&b, &a, 20);
        prop_assert_eq!(ab, ba);
        let d = ab.unwrap();
        prop_assert_eq!(d == 0, a == b);
        prop_assert!(d <= a.len().max(b.len()));
    }

    #[test]
    fn edit_distance_bound_is_consistent(a in "[a-z]{0,12}", b in "[a-z]{0,12}", max in 0usize..6) {
        let bounded = bounded_damerau_levenshtein(&a, &b, max);
        let full = bounded_damerau_levenshtein(&a, &b, 64).unwrap();
        match bounded {
            Some(d) => prop_assert_eq!(d, full),
            None => prop_assert!(full > max, "full {} <= max {}", full, max),
        }
    }

    #[test]
    fn romanize_is_total_and_ascii_for_hangul(s in "[가-힣]{0,12}") {
        let r = romanize(&s);
        prop_assert!(r.is_ascii(), "non-ascii romanization {:?} for {:?}", r, s);
        if !s.is_empty() {
            prop_assert!(!r.is_empty());
        }
    }

    #[test]
    fn romanize_passthrough_for_ascii(s in "[a-z0-9 ]{0,20}") {
        prop_assert_eq!(romanize(&s), s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn one_edit_check_equals_the_distance_on_a_small_alphabet(a in "[ab-]{0,8}", b in "[ab-]{0,8}") {
        prop_assert_eq!(
            within_one_edit(a.as_bytes(), b.as_bytes()),
            bounded_damerau_levenshtein(&a, &b, 1).is_some(),
            "{:?} vs {:?}", a, b
        );
    }

    #[test]
    fn one_edit_check_equals_the_distance_on_edited_district_names(
        pick in any::<usize>(),
        other in any::<usize>(),
        kind in 0usize..4,
        at in any::<usize>(),
        c in "[a-z-]",
    ) {
        let name = district_name(pick);
        let edited = one_edit(&name, kind, at, c.as_bytes()[0]);
        // Against its source, and against a second name for near misses.
        for target in [name, district_name(other)] {
            prop_assert_eq!(
                within_one_edit(edited.as_bytes(), target.as_bytes()),
                bounded_damerau_levenshtein(&edited, &target, 1).is_some(),
                "{:?} vs {:?}", edited, target
            );
        }
    }
}
