//! Property tests: the R-tree must answer every query identically to the
//! brute-force oracle, and geohash/polygon operations must uphold their
//! geometric invariants on arbitrary inputs.

use proptest::prelude::*;
use stir_geoindex::{geohash, BBox, BruteForceIndex, Point, Polygon, RTree};

fn korea_point() -> impl Strategy<Value = Point> {
    (33.0f64..39.0, 124.0f64..132.0).prop_map(|(lat, lon)| Point::new(lat, lon))
}

fn world_point() -> impl Strategy<Value = Point> {
    (-89.0f64..89.0, -179.0f64..179.0).prop_map(|(lat, lon)| Point::new(lat, lon))
}

fn korea_bbox() -> impl Strategy<Value = BBox> {
    (korea_point(), korea_point()).prop_map(|(a, b)| {
        BBox::new(
            a.lat.min(b.lat),
            a.lon.min(b.lon),
            a.lat.max(b.lat),
            a.lon.max(b.lon),
        )
    })
}

proptest! {
    #[test]
    fn rtree_bbox_query_equals_oracle(pts in prop::collection::vec(korea_point(), 0..200), q in korea_bbox()) {
        let tree = RTree::bulk_load(pts.clone());
        let oracle = BruteForceIndex::from_items(pts);
        let mut got = tree.query_points_in(&q);
        let mut expect = oracle.query_points_in(&q);
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn rtree_insert_equals_bulk_load_results(pts in prop::collection::vec(korea_point(), 1..120), q in korea_bbox()) {
        let bulk = RTree::bulk_load(pts.clone());
        let mut incr = RTree::new();
        for p in &pts {
            incr.insert(*p);
        }
        let mut a = bulk.query_points_in(&q);
        let mut b = incr.query_points_in(&q);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rtree_nearest_distance_equals_oracle(pts in prop::collection::vec(korea_point(), 1..150), q in world_point()) {
        let tree = RTree::bulk_load(pts.clone());
        let oracle = BruteForceIndex::from_items(pts);
        let (_, dt) = tree.nearest(q).unwrap();
        let (_, db) = oracle.nearest(q).unwrap();
        // Indices may differ under exact ties; distances must agree.
        prop_assert!((dt - db).abs() < 1e-12, "tree {} vs oracle {}", dt, db);
    }

    #[test]
    fn rtree_nearest_k_distances_sorted_and_match(pts in prop::collection::vec(korea_point(), 1..150), q in korea_point(), k in 1usize..12) {
        let tree = RTree::bulk_load(pts.clone());
        let oracle = BruteForceIndex::from_items(pts);
        let got = tree.nearest_k(q, k);
        let expect = oracle.nearest_k(q, k);
        prop_assert_eq!(got.len(), expect.len());
        for w in got.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "results not sorted");
        }
        for (g, e) in got.iter().zip(expect.iter()) {
            prop_assert!((g.1 - e.1).abs() < 1e-12);
        }
    }

    #[test]
    fn geohash_roundtrip_contains_point(p in world_point(), precision in 1usize..=12) {
        let h = geohash::encode(p, precision);
        prop_assert_eq!(h.len(), precision);
        let b = geohash::decode_bbox(&h).unwrap();
        prop_assert!(b.contains(p), "{} not in {}", p, b);
    }

    #[test]
    fn geohash_prefix_cell_contains_longer_cell(p in world_point()) {
        let long = geohash::encode(p, 8);
        let short = geohash::decode_bbox(&long[..4]).unwrap();
        let inner = geohash::decode_bbox(&long).unwrap();
        prop_assert!(short.contains_bbox(&inner));
    }

    #[test]
    fn polygon_centroid_inside_regular_polygon(c in korea_point(), radius in 1.0f64..50.0, n in 3usize..40) {
        let poly = Polygon::regular(c, radius, n).unwrap();
        prop_assert!(poly.contains(poly.centroid()));
        prop_assert!(poly.contains(c));
    }

    #[test]
    fn haversine_triangle_inequality(a in world_point(), b in world_point(), c in world_point()) {
        let ab = a.haversine_km(b);
        let bc = b.haversine_km(c);
        let ac = a.haversine_km(c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn bbox_union_contains_both(a in korea_bbox(), b in korea_bbox()) {
        let u = a.union(&b);
        prop_assert!(u.contains_bbox(&a));
        prop_assert!(u.contains_bbox(&b));
        prop_assert!(u.area_deg2() >= a.area_deg2().max(b.area_deg2()) - 1e-12);
    }
}
