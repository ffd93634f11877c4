//! Reverse geocoding: GPS coordinates → [`LocationRecord`].
//!
//! Wraps [`Gazetteer::resolve_point`] with traffic statistics. A fix's
//! district is a pure function of the fix: the gazetteer's district atlas
//! answers most points by array index, and the rest take the polygon walk.
//! Nothing is cached per geocoder, so the answer cannot depend on which
//! fixes arrived first, and every engine agrees whatever order it sees the
//! fixes in.
//!
//! Built for parallel callers: lookups take `&self` and touch no lock. The
//! traffic counters are plain atomics, so they stay exact under any
//! interleaving (each lookup increments `lookups` exactly once and exactly
//! one of `resolved`/`misses`).

use std::sync::atomic::{AtomicU64, Ordering};

use stir_geoindex::Point;

use crate::district::DistrictId;
use crate::gazetteer::Gazetteer;
use crate::location::LocationRecord;

/// Counters describing a geocoder's traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReverseStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups the district atlas answered without the polygon walk.
    pub cache_hits: u64,
    /// Lookups that resolved to a district.
    pub resolved: u64,
    /// Lookups outside the gazetteer's coverage.
    pub misses: u64,
}

impl ReverseStats {
    /// Share of lookups the district atlas answered without the polygon
    /// walk, in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.lookups as f64
        }
    }
}

/// A counting reverse geocoder over a [`Gazetteer`].
///
/// Thread-safe and lock-free: lookups take `&self` and the stats are
/// atomics.
pub struct ReverseGeocoder<'g> {
    gazetteer: &'g Gazetteer,
    lookups: AtomicU64,
    cache_hits: AtomicU64,
    resolved: AtomicU64,
    misses: AtomicU64,
}

impl<'g> ReverseGeocoder<'g> {
    /// Starts a [`GeocoderBuilder`](crate::service::GeocoderBuilder) — the
    /// construction surface for this geocoder and every service-layer
    /// backend (`.backend(..)`, `.fault_plan(..)`, ...).
    pub fn builder(gazetteer: &'g Gazetteer) -> crate::service::GeocoderBuilder<'g> {
        crate::service::GeocoderBuilder::new(gazetteer)
    }

    /// The real constructor behind the builder.
    pub(crate) fn assemble(gazetteer: &'g Gazetteer) -> Self {
        ReverseGeocoder {
            gazetteer,
            lookups: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            resolved: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Resolves a point to a district id, or `None` outside coverage.
    pub fn resolve(&self, p: Point) -> Option<DistrictId> {
        let mut out = None;
        self.resolve_cols(&[p.lat], &[p.lon], |id| out = id);
        out
    }

    /// Columnar batch resolve: one call per *batch* where [`Self::resolve`]
    /// is one call per point. `lats`/`lons` are parallel columns (the fused
    /// engine's morsel layout); each answer is handed to `sink` in input
    /// order. Answers and counters are exactly those of calling `resolve`
    /// point-at-a-time; the counters accumulate in locals and flush with
    /// one `fetch_add` per counter per batch.
    pub fn resolve_cols(
        &self,
        lats: &[f64],
        lons: &[f64],
        mut sink: impl FnMut(Option<DistrictId>),
    ) {
        debug_assert_eq!(lats.len(), lons.len());
        let mut hits = 0u64;
        let mut res = 0u64;
        for (&lat, &lon) in lats.iter().zip(lons) {
            let (resolved, by_atlas) = self.gazetteer.resolve_point_traced(Point::new(lat, lon));
            hits += u64::from(by_atlas);
            res += u64::from(resolved.is_some());
            sink(resolved);
        }
        let lookups = lats.len() as u64;
        if lookups > 0 {
            self.lookups.fetch_add(lookups, Ordering::Relaxed);
            self.cache_hits.fetch_add(hits, Ordering::Relaxed);
            self.resolved.fetch_add(res, Ordering::Relaxed);
            self.misses.fetch_add(lookups - res, Ordering::Relaxed);
        }
    }

    /// Resolves a point to the full record the Yahoo mock would return.
    pub fn lookup(&self, p: Point) -> Option<LocationRecord> {
        let id = self.resolve(p)?;
        let d = self.gazetteer.district(id);
        Some(LocationRecord::for_district(
            d.province,
            d.name_en,
            self.gazetteer.town_label(id, p),
            id,
        ))
    }

    /// Resolves a batch, preserving order; unresolvable points yield `None`.
    pub fn lookup_batch(&self, points: &[Point]) -> Vec<Option<LocationRecord>> {
        points.iter().map(|&p| self.lookup(p)).collect()
    }

    /// Snapshot of the traffic counters.
    ///
    /// After all concurrent lookups have finished (e.g. past a thread
    /// join), the snapshot is exact: `lookups == cache_hits + walks +
    /// out-of-coverage lookups` and `lookups == resolved + misses`.
    pub fn stats(&self) -> ReverseStats {
        ReverseStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            resolved: self.resolved.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The underlying gazetteer.
    pub fn gazetteer(&self) -> &'g Gazetteer {
        self.gazetteer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_caches_repeat_lookups() {
        // A repeat lookup is answered afresh and identically; a district
        // centre sits in a pure atlas cell, so both count as atlas hits.
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).build_reverse();
        let p = Point::new(37.517, 127.047); // Gangnam-gu centroid
        let a = geo.resolve(p);
        let b = geo.resolve(p);
        assert_eq!(a, b);
        assert!(a.is_some());
        let s = geo.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.resolved, 2);
        assert!((s.hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lookup_returns_full_record() {
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).build_reverse();
        let rec = geo.lookup(Point::new(37.517, 127.047)).unwrap();
        assert_eq!(rec.state, "Seoul");
        assert_eq!(rec.county, "Gangnam-gu");
        assert_eq!(rec.country, "South Korea");
        assert!(rec.town.ends_with("-dong"));
        assert!(rec.district.is_some());
    }

    #[test]
    fn out_of_coverage_is_cached_miss() {
        // A point outside the coverage box is a miss that neither the atlas
        // nor the walk answers.
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).build_reverse();
        let tokyo = Point::new(35.68, 139.69);
        assert!(geo.lookup(tokyo).is_none());
        assert!(geo.lookup(tokyo).is_none());
        let s = geo.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn batch_preserves_order_and_gaps() {
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).build_reverse();
        let out = geo.lookup_batch(&[
            Point::new(37.517, 127.047),
            Point::new(35.68, 139.69),
            Point::new(33.50, 126.53),
        ]);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_some());
        assert!(out[1].is_none());
        assert_eq!(out[2].as_ref().unwrap().state, "Jeju-do");
    }

    #[test]
    fn near_zero_cells_are_distinct_cache_entries() {
        // The two sides of the equator/prime meridian resolve on their own
        // and, lying outside coverage, neither counts as an atlas hit.
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).build_reverse();
        let a = Point::new(0.0001, 0.0001);
        let b = Point::new(-0.0001, -0.0001);
        assert_eq!(geo.resolve(a), g.resolve_point(a));
        assert_eq!(geo.resolve(b), g.resolve_point(b));
        let s = geo.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(
            s.cache_hits, 0,
            "points outside coverage are never atlas hits"
        );
    }

    #[test]
    fn resolve_cols_matches_point_at_a_time_with_exact_counters() {
        let g = Gazetteer::load();
        let by_point = ReverseGeocoder::builder(&g).build_reverse();
        let by_cols = ReverseGeocoder::builder(&g).build_reverse();
        let pts = [
            (37.517, 127.047),   // Gangnam-gu centroid: atlas
            (35.68, 139.69),     // Tokyo: miss
            (37.517, 127.047),   // atlas again
            (35.68, 139.69),     // miss again
            (33.50, 126.53),     // Jeju-si: atlas
            (37.5685, 126.9885), // Jongno-gu/Jung-gu midpoint: walk
        ];
        let lats: Vec<f64> = pts.iter().map(|&(lat, _)| lat).collect();
        let lons: Vec<f64> = pts.iter().map(|&(_, lon)| lon).collect();
        let reference: Vec<_> = pts
            .iter()
            .map(|&(lat, lon)| by_point.resolve(Point::new(lat, lon)))
            .collect();
        let mut got = Vec::new();
        by_cols.resolve_cols(&lats, &lons, |id| got.push(id));
        assert_eq!(got, reference);
        assert_eq!(by_cols.stats(), by_point.stats());
        assert_eq!(by_cols.stats().lookups, 6);
        assert_eq!(by_cols.stats().cache_hits, 3);
        assert_eq!(by_cols.stats().misses, 2);
        // An empty batch touches nothing.
        by_cols.resolve_cols(&[], &[], |_| panic!("empty batch must not emit"));
        assert_eq!(by_cols.stats().lookups, 6);
    }
}
