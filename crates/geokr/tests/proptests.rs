//! Property tests: the geocoders and the XML layer must be total, mutually
//! consistent, and monotone where claimed.

use proptest::prelude::*;
use stir_geoindex::Point;
use stir_geokr::yahoo::{parse_response, render_response, YahooPlaceFinder};
use stir_geokr::{Gazetteer, LocationRecord, ReverseGeocoder};

fn gaz() -> &'static Gazetteer {
    use std::sync::OnceLock;
    static GAZ: OnceLock<Gazetteer> = OnceLock::new();
    GAZ.get_or_init(Gazetteer::load)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn resolve_point_is_total(lat in -89.0f64..89.0, lon in -179.0f64..179.0) {
        let _ = gaz().resolve_point(Point::new(lat, lon));
    }

    #[test]
    fn korea_points_always_resolve(lat in 34.0f64..38.0, lon in 126.5f64..129.0) {
        // Anywhere on the peninsula interior resolves to *some* district.
        prop_assert!(gaz().resolve_point(Point::new(lat, lon)).is_some());
    }

    #[test]
    fn reverse_geocoder_agrees_with_gazetteer(lat in 33.0f64..39.0, lon in 124.5f64..131.0) {
        let g = gaz();
        let geo = ReverseGeocoder::builder(g).build_reverse();
        let p = Point::new(lat, lon);
        prop_assert_eq!(geo.resolve(p), g.resolve_point_walk(p));
        // Twice: a repeat lookup answers identically.
        prop_assert_eq!(geo.resolve(p), g.resolve_point_walk(p));
    }

    #[test]
    fn yahoo_xml_roundtrip_any_point(lat in -89.0f64..89.0, lon in -179.0f64..179.0) {
        let g = gaz();
        let api = YahooPlaceFinder::with_limits(g, u64::MAX, 0);
        let p = Point::new(lat, lon);
        let direct = ReverseGeocoder::builder(g).build_reverse().lookup(p).map(|r| (r.state, r.county));
        let via_xml = api.lookup(p).unwrap().map(|r| (r.state, r.county));
        prop_assert_eq!(direct, via_xml);
    }

    #[test]
    fn parse_response_never_panics(xml in "\\PC{0,200}") {
        let _ = parse_response(&xml);
    }

    #[test]
    fn render_parse_roundtrip_arbitrary_names(
        country in "\\PC{0,20}",
        state in "\\PC{0,20}",
        county in "\\PC{0,20}",
        town in "\\PC{0,20}",
        lat in -89.0f64..89.0,
        lon in -179.0f64..179.0,
    ) {
        // Whatever the names contain, escape+parse must round-trip the
        // *trimmed* values (the parser trims element text).
        let rec = LocationRecord {
            country: country.trim().to_string(),
            state: state.trim().to_string(),
            county: county.trim().to_string(),
            town: town.trim().to_string(),
            district: None,
        };
        let xml = render_response(Point::new(lat, lon), Some(&rec));
        let back = parse_response(&xml).unwrap().unwrap();
        prop_assert_eq!(back.country, rec.country);
        prop_assert_eq!(back.state, rec.state);
        prop_assert_eq!(back.county, rec.county);
        prop_assert_eq!(back.town, rec.town);
    }

    #[test]
    fn weighted_district_is_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let g = gaz();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(g.weighted_district(lo).0 <= g.weighted_district(hi).0);
    }

    #[test]
    fn sampled_points_stay_in_korea(idx in 0u16..229, s1 in 0.0f64..1.0, s2 in 0.0f64..1.0) {
        let g = gaz();
        let id = stir_geokr::DistrictId(idx);
        let mut seq = [s1, s2, (s1 + s2).fract(), (s1 * 7.3).fract()].into_iter().cycle();
        let p = g.sample_point_in(id, move || seq.next().unwrap());
        // Every footprint sample resolves (it is inside Korea's bbox).
        prop_assert!(g.resolve_point(p).is_some(), "{p} from {}", g.district(id).name_en);
    }
}
