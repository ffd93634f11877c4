//! The geocoding service layer: one [`Geocoder`] trait, many backends.
//!
//! The paper's pipeline (§III-B) called the real Yahoo Open API — a
//! quota-limited, latency-bound, failure-prone 2011 free tier. The analysis
//! layer should not care which of our stand-ins answers a coordinate, so
//! this module abstracts the lookup behind a trait with three
//! implementations:
//!
//! * the local [`ReverseGeocoder`] — infallible,
//!   in-process, the default;
//! * [`YahooBackend`] — the XML round-trip endpoint with daily-quota
//!   rollover, optionally under a seeded [`FaultPlan`];
//! * [`ResilientGeocoder`] — a decorator adding per-call deadlines, bounded
//!   retries with decorrelated-jitter backoff, a three-state
//!   [`CircuitBreaker`], a client-side daily budget, and a degraded-mode
//!   fallback chain (retry → stale cache → local gazetteer) so a flaky
//!   backend never aborts an experiment.
//!
//! Everything is deterministic by construction: faults are decided by a
//! seeded hash of the attempt index, backoff draws from a seeded
//! [`rand::rngs::StdRng`], the breaker cools down in admission counts (not
//! wall clock), and all "waiting" is simulated-milliseconds accounting. Two
//! runs with the same configuration produce the same traffic report, and —
//! because every backend ultimately answers from the same gazetteer — the
//! same analysis output as a fault-free run.

mod breaker;
mod builder;
mod fault;
mod resilient;
mod yahoo_backend;

pub use breaker::{BreakerState, CircuitBreaker};
pub use builder::{BackendChoice, GeocoderBuilder, ResiliencePolicy};
pub use fault::{Fault, FaultPlan};
pub use resilient::ResilientGeocoder;
pub use yahoo_backend::YahooBackend;

use stir_geoindex::Point;

use crate::error::GeocodeError;
use crate::location::LocationRecord;
use crate::reverse::ReverseGeocoder;

/// Traffic counters every backend can report, threaded into
/// `stir_core::metrics::PipelineMetrics` by the analysis pipeline.
///
/// The outcome counters partition the traffic: after all concurrent callers
/// have finished, `lookups == resolved + fallbacks + misses` holds exactly
/// (each lookup lands in exactly one bucket; errored lookups that no
/// fallback rescued count as misses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendTraffic {
    /// Total lookups issued against this backend.
    pub lookups: u64,
    /// Lookups the primary path resolved to a record.
    pub resolved: u64,
    /// Lookups answered (with a record) by a fallback path.
    pub fallbacks: u64,
    /// Lookups that ended without a record.
    pub misses: u64,
    /// Lookups answered without the gazetteer's polygon walk: those the
    /// district atlas answered, plus the resilient layer's stale-cache
    /// answers.
    pub cache_hits: u64,
    /// Errors observed along the way (retried attempts count each failure).
    pub errors: u64,
    /// Retry attempts issued beyond each lookup's first try.
    pub retries: u64,
    /// Closed→open circuit-breaker transitions.
    pub breaker_opens: u64,
    /// Fallback answers served from the stale cache (including cached
    /// negative answers).
    pub stale_fallbacks: u64,
    /// Fallback answers computed by the local gazetteer.
    pub local_fallbacks: u64,
    /// Simulated API days consumed (quota rollovers + the first day).
    pub quota_days: u64,
    /// Simulated wall-clock cost in milliseconds (latency + backoff).
    pub simulated_ms: u64,
}

impl BackendTraffic {
    /// Whether the outcome counters partition the lookups exactly.
    pub fn is_exact(&self) -> bool {
        self.lookups == self.resolved + self.fallbacks + self.misses
    }
}

/// A reverse-geocoding backend: GPS point in, [`LocationRecord`] out.
///
/// Object safe; the pipeline holds `Box<dyn Geocoder + '_>` and never names
/// a concrete backend type. `Ok(None)` means "answered: outside coverage";
/// `Err(_)` means the backend could not answer at all.
pub trait Geocoder: Send + Sync {
    /// Resolves one point, or `Ok(None)` outside coverage.
    fn lookup(&self, p: Point) -> Result<Option<LocationRecord>, GeocodeError>;

    /// Resolves a batch, preserving order; per-point results so one failed
    /// lookup does not poison the rest.
    fn lookup_batch(&self, points: &[Point]) -> Vec<Result<Option<LocationRecord>, GeocodeError>> {
        points.iter().map(|&p| self.lookup(p)).collect()
    }

    /// Resolves one point straight to its gazetteer district id, or
    /// `Ok(None)` outside coverage. Same answer as
    /// [`Geocoder::lookup`]`.map(|r| r.district)` — every backend ultimately
    /// answers from the gazetteer, whose records carry their id — but hot
    /// paths that only need the district can skip materializing the record
    /// (the local geocoder's override allocates nothing at all).
    fn resolve_id(&self, p: Point) -> Result<Option<crate::DistrictId>, GeocodeError> {
        Ok(self.lookup(p)?.and_then(|r| r.district))
    }

    /// Resolves a batch straight to district ids into a caller-owned
    /// buffer, preserving order. `out` is cleared first; a caller that
    /// reuses the same buffer across batches amortizes its allocation to
    /// zero. Per-point results, so one failed lookup does not poison the
    /// rest — semantics and traffic are exactly one [`Geocoder::resolve_id`]
    /// call per point, which is what fused pipelines rely on when they pin
    /// batched output against the point-at-a-time reference path.
    fn resolve_id_batch(
        &self,
        points: &[Point],
        out: &mut Vec<Result<Option<crate::DistrictId>, GeocodeError>>,
    ) {
        out.clear();
        out.reserve(points.len());
        for &p in points {
            out.push(self.resolve_id(p));
        }
    }

    /// Columnar variant of [`Geocoder::resolve_id_batch`]: the points
    /// arrive as parallel `lats`/`lons` columns (the fused engine's morsel
    /// layout), so a column-oriented caller geocodes a whole surviving
    /// batch in one call without assembling a `Point` slice first. `out`
    /// is cleared, then filled in input order; semantics and traffic are
    /// exactly one [`Geocoder::resolve_id`] per point.
    fn resolve_id_cols(
        &self,
        lats: &[f64],
        lons: &[f64],
        out: &mut Vec<Result<Option<crate::DistrictId>, GeocodeError>>,
    ) {
        debug_assert_eq!(lats.len(), lons.len());
        out.clear();
        out.reserve(lats.len());
        for (&lat, &lon) in lats.iter().zip(lons) {
            out.push(self.resolve_id(Point::new(lat, lon)));
        }
    }

    /// Snapshot of this backend's traffic counters (exact once concurrent
    /// callers have joined).
    fn traffic(&self) -> BackendTraffic;

    /// Short stable name for metrics labels (`"gazetteer"`, `"yahoo"`,
    /// `"resilient"`).
    fn name(&self) -> &'static str;
}

/// The local gazetteer geocoder is itself a backend — the infallible
/// default.
impl Geocoder for ReverseGeocoder<'_> {
    fn lookup(&self, p: Point) -> Result<Option<LocationRecord>, GeocodeError> {
        Ok(ReverseGeocoder::lookup(self, p))
    }

    fn lookup_batch(&self, points: &[Point]) -> Vec<Result<Option<LocationRecord>, GeocodeError>> {
        ReverseGeocoder::lookup_batch(self, points)
            .into_iter()
            .map(Ok)
            .collect()
    }

    /// Zero-allocation override: skips the [`LocationRecord`] (and its
    /// synthesized town label) entirely — one atlas probe (or polygon
    /// walk), one id.
    fn resolve_id(&self, p: Point) -> Result<Option<crate::DistrictId>, GeocodeError> {
        Ok(self.resolve(p))
    }

    /// Columnar override: the infallible geocoder batches its counter
    /// flushes (one atomic add per counter per batch instead of several
    /// per point) via [`ReverseGeocoder::resolve_cols`].
    fn resolve_id_cols(
        &self,
        lats: &[f64],
        lons: &[f64],
        out: &mut Vec<Result<Option<crate::DistrictId>, GeocodeError>>,
    ) {
        out.clear();
        out.reserve(lats.len());
        self.resolve_cols(lats, lons, |id| out.push(Ok(id)));
    }

    fn traffic(&self) -> BackendTraffic {
        let s = self.stats();
        BackendTraffic {
            lookups: s.lookups,
            resolved: s.resolved,
            misses: s.misses,
            cache_hits: s.cache_hits,
            ..BackendTraffic::default()
        }
    }

    fn name(&self) -> &'static str {
        "gazetteer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gazetteer::Gazetteer;

    #[test]
    fn reverse_geocoder_is_a_backend() {
        let g = Gazetteer::load();
        let backend: Box<dyn Geocoder + '_> = ReverseGeocoder::builder(&g).build();
        assert_eq!(backend.name(), "gazetteer");
        let rec = backend
            .lookup(Point::new(37.517, 127.047))
            .unwrap()
            .unwrap();
        assert_eq!(rec.county, "Gangnam-gu");
        assert_eq!(backend.lookup(Point::new(35.68, 139.69)).unwrap(), None);
        let t = backend.traffic();
        assert_eq!(t.lookups, 2);
        assert_eq!(t.resolved, 1);
        assert_eq!(t.misses, 1);
        assert!(t.is_exact());
    }

    #[test]
    fn resolve_id_matches_lookup_district() {
        let g = Gazetteer::load();
        let backend: Box<dyn Geocoder + '_> = ReverseGeocoder::builder(&g).build();
        let inside = Point::new(37.517, 127.047);
        let outside = Point::new(35.68, 139.69);
        let id = backend.resolve_id(inside).unwrap().unwrap();
        assert_eq!(g.district(id).name_en, "Gangnam-gu");
        assert_eq!(backend.lookup(inside).unwrap().unwrap().district, Some(id));
        assert_eq!(backend.resolve_id(outside).unwrap(), None);
    }

    #[test]
    fn batch_through_the_trait_preserves_order() {
        let g = Gazetteer::load();
        let backend = ReverseGeocoder::builder(&g).build_reverse();
        let out = Geocoder::lookup_batch(
            &backend,
            &[Point::new(37.517, 127.047), Point::new(35.68, 139.69)],
        );
        assert!(out[0].as_ref().unwrap().is_some());
        assert!(out[1].as_ref().unwrap().is_none());
    }

    #[test]
    fn resolve_id_batch_matches_point_at_a_time_and_reuses_the_buffer() {
        let g = Gazetteer::load();
        let backend: Box<dyn Geocoder + '_> = ReverseGeocoder::builder(&g).build();
        let points = [
            Point::new(37.517, 127.047),
            Point::new(35.68, 139.69),
            Point::new(37.517, 126.866),
        ];
        let mut out = Vec::new();
        backend.resolve_id_batch(&points, &mut out);
        assert_eq!(out.len(), points.len());
        for (&p, got) in points.iter().zip(&out) {
            assert_eq!(got.as_ref().unwrap(), &backend.resolve_id(p).unwrap());
        }
        // A second call clears before filling — no stale carry-over.
        backend.resolve_id_batch(&points[..1], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].as_ref().unwrap().is_some());
    }

    #[test]
    fn resolve_id_cols_matches_the_row_batch_on_every_backend() {
        let g = Gazetteer::load();
        let points = [
            Point::new(37.517, 127.047),
            Point::new(35.68, 139.69),
            Point::new(37.517, 126.866),
            Point::new(33.50, 126.53),
        ];
        let lats: Vec<f64> = points.iter().map(|p| p.lat).collect();
        let lons: Vec<f64> = points.iter().map(|p| p.lon).collect();
        for choice in [
            BackendChoice::Gazetteer,
            BackendChoice::Yahoo,
            BackendChoice::Resilient,
        ] {
            let rows_backend = GeocoderBuilder::new(&g).backend(choice).build();
            let cols_backend = GeocoderBuilder::new(&g).backend(choice).build();
            let mut rows = Vec::new();
            rows_backend.resolve_id_batch(&points, &mut rows);
            let mut cols = Vec::new();
            cols_backend.resolve_id_cols(&lats, &lons, &mut cols);
            assert_eq!(rows.len(), cols.len(), "{choice}");
            for (a, b) in rows.iter().zip(&cols) {
                assert_eq!(a.as_ref().ok(), b.as_ref().ok(), "{choice}");
            }
            // Identical traffic: the column path is the same lookups.
            assert_eq!(rows_backend.traffic(), cols_backend.traffic(), "{choice}");
            // Buffer reuse clears stale answers.
            cols_backend.resolve_id_cols(&lats[..1], &lons[..1], &mut cols);
            assert_eq!(cols.len(), 1);
        }
    }
}
