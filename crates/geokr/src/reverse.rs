//! Reverse geocoding: GPS coordinates → [`LocationRecord`].
//!
//! Wraps [`Gazetteer::resolve_point`] with a quantizing cache and hit
//! statistics. The paper issued one Yahoo API call per GPS tweet; at 2xx,xxx
//! GPS tweets a cache over quantized coordinates is what any practitioner
//! would have put in front of the quota-limited API, and the benchmarks
//! measure exactly that effect.
//!
//! Built for parallel callers: the cache is **sharded** — N independent
//! `Mutex<HashMap>` shards, N a power of two derived from the machine's
//! parallelism, shard picked by key hash — so concurrent lookups touch
//! disjoint locks and the hit path takes exactly one shard lock. The
//! traffic counters are plain atomics, so a lookup never takes a second
//! lock for bookkeeping and the counters stay exact under any interleaving
//! (each lookup increments `lookups` exactly once and exactly one of
//! `resolved`/`misses`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use stir_geoindex::Point;

use crate::district::DistrictId;
use crate::gazetteer::Gazetteer;
use crate::location::LocationRecord;

/// Counters describing a geocoder's traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReverseStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub cache_hits: u64,
    /// Lookups that resolved to a district.
    pub resolved: u64,
    /// Lookups outside the gazetteer's coverage.
    pub misses: u64,
}

impl ReverseStats {
    /// Cache hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.lookups as f64
        }
    }
}

/// Quantization for the cache key: ~0.0005° ≈ 50 m, far below district size.
const QUANT: f64 = 2000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key(i32, i32);

/// Quantizes with `floor`, not truncation: `as i32` rounds toward zero,
/// which made the cells straddling 0° double-width and aliased negative
/// coordinates with positive ones (lat −0.0001 and +0.0001 shared a cell).
fn key_of(p: Point) -> Key {
    Key(
        (p.lat * QUANT).floor() as i32,
        (p.lon * QUANT).floor() as i32,
    )
}

/// The quantized cell of a point, exposed for the service layer's stale
/// cache so every cache in the crate agrees on cell boundaries.
pub(crate) fn quantize(p: Point) -> (i32, i32) {
    let k = key_of(p);
    (k.0, k.1)
}

/// Shard index for a quantized cell, exposed alongside [`quantize`] so the
/// service layer's stale cache reuses the same SplitMix64 placement.
pub(crate) fn cell_shard(cell: (i32, i32), mask: usize) -> usize {
    shard_of(Key(cell.0, cell.1), mask)
}

/// One cache shard: quantized cell → resolved district (or a negative
/// answer, which is cached too).
type Shard = Mutex<HashMap<Key, Option<DistrictId>>>;

/// SplitMix64 finalizer over both key halves; shard index is the low bits.
fn shard_of(key: Key, mask: usize) -> usize {
    let mut z = ((key.0 as u32 as u64) << 32) | key.1 as u32 as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize & mask
}

/// Shard count sized for the machine: next power of two ≥ 4 × threads.
pub(crate) fn default_shard_count() -> usize {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    (threads * 4).next_power_of_two()
}

/// A caching reverse geocoder over a [`Gazetteer`].
///
/// Thread-safe and contention-free by construction: lookups take `&self`;
/// the cache is split into hash-picked shards so concurrent callers almost
/// always lock disjoint mutexes, and the stats are atomics (no stats lock).
pub struct ReverseGeocoder<'g> {
    gazetteer: &'g Gazetteer,
    shards: Box<[Shard]>,
    shard_mask: usize,
    /// Per-shard entry budget; a full shard is cleared wholesale — cheap,
    /// and the working set re-warms immediately.
    shard_capacity: usize,
    lookups: AtomicU64,
    cache_hits: AtomicU64,
    resolved: AtomicU64,
    misses: AtomicU64,
}

impl<'g> ReverseGeocoder<'g> {
    /// Starts a [`GeocoderBuilder`](crate::service::GeocoderBuilder) — the
    /// construction surface for this geocoder and every service-layer
    /// backend (`.capacity(..)`, `.shards(..)`, `.backend(..)`).
    pub fn builder(gazetteer: &'g Gazetteer) -> crate::service::GeocoderBuilder<'g> {
        crate::service::GeocoderBuilder::new(gazetteer)
    }

    /// The real constructor behind the builder.
    pub(crate) fn assemble(gazetteer: &'g Gazetteer, capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ReverseGeocoder {
            gazetteer,
            shards: (0..shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            shard_mask: shards - 1,
            shard_capacity: (capacity / shards).max(1),
            lookups: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            resolved: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of cache shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Resolves a point to a district id, or `None` outside coverage.
    pub fn resolve(&self, p: Point) -> Option<DistrictId> {
        let key = key_of(p);
        let shard = &self.shards[shard_of(key, self.shard_mask)];
        {
            let cache = shard.lock();
            if let Some(&hit) = cache.get(&key) {
                drop(cache);
                self.lookups.fetch_add(1, Ordering::Relaxed);
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.count_outcome(hit);
                return hit;
            }
        }
        // Miss: resolve outside the lock so a slow polygon walk never
        // blocks other lookups that hash to the same shard. Two threads
        // racing on the same fresh cell both resolve and insert the same
        // value — idempotent, and cheaper than holding the lock.
        let resolved = self.gazetteer.resolve_point(p);
        {
            let mut cache = shard.lock();
            if cache.len() >= self.shard_capacity {
                cache.clear();
            }
            cache.insert(key, resolved);
        }
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.count_outcome(resolved);
        resolved
    }

    /// Columnar batch resolve: one call per *batch* where [`Self::resolve`]
    /// is one call per point. `lats`/`lons` are parallel columns (the fused
    /// engine's morsel layout); each answer is handed to `sink` in input
    /// order. Answers are exactly those of calling `resolve`
    /// point-at-a-time. Two batch-only savings: the traffic counters
    /// accumulate in locals and flush with one `fetch_add` per counter per
    /// batch, and a batch-local direct-mapped L1 memo short-circuits
    /// repeated cells — real fix streams revisit the same districts
    /// constantly, and the shared shards charge a lock plus a SipHash probe
    /// per point where the L1 costs an index and a compare. An L1 hit
    /// counts as a cache hit: the entry was installed from the shard path,
    /// so the shard holds the same cell (a concurrent capacity clear can
    /// perturb that accounting, never an answer).
    pub fn resolve_cols(
        &self,
        lats: &[f64],
        lons: &[f64],
        mut sink: impl FnMut(Option<DistrictId>),
    ) {
        debug_assert_eq!(lats.len(), lons.len());
        const L1_SLOTS: usize = 512;
        const L1_MASK: usize = L1_SLOTS - 1;
        let mut l1: [Option<(Key, Option<DistrictId>)>; L1_SLOTS] = [None; L1_SLOTS];
        let mut lookups = 0u64;
        let mut hits = 0u64;
        let mut res = 0u64;
        let mut miss = 0u64;
        for (&lat, &lon) in lats.iter().zip(lons) {
            let p = Point::new(lat, lon);
            let key = key_of(p);
            let slot = shard_of(key, L1_MASK);
            let outcome = if let Some((k, v)) = l1[slot].filter(|&(k, _)| k == key) {
                debug_assert_eq!(k, key);
                hits += 1;
                v
            } else {
                let shard = &self.shards[shard_of(key, self.shard_mask)];
                let cached = { shard.lock().get(&key).copied() };
                let resolved = match cached {
                    Some(hit) => {
                        hits += 1;
                        hit
                    }
                    None => {
                        // Same discipline as `resolve`: the polygon walk
                        // runs outside the shard lock.
                        let resolved = self.gazetteer.resolve_point(p);
                        let mut cache = shard.lock();
                        if cache.len() >= self.shard_capacity {
                            cache.clear();
                        }
                        cache.insert(key, resolved);
                        resolved
                    }
                };
                l1[slot] = Some((key, resolved));
                resolved
            };
            lookups += 1;
            if outcome.is_some() {
                res += 1;
            } else {
                miss += 1;
            }
            sink(outcome);
        }
        if lookups > 0 {
            self.lookups.fetch_add(lookups, Ordering::Relaxed);
            self.cache_hits.fetch_add(hits, Ordering::Relaxed);
            self.resolved.fetch_add(res, Ordering::Relaxed);
            self.misses.fetch_add(miss, Ordering::Relaxed);
        }
    }

    fn count_outcome(&self, outcome: Option<DistrictId>) {
        if outcome.is_some() {
            self.resolved.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
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
    /// join), the snapshot is exact: `lookups == cache_hits + gazetteer
    /// calls` and `lookups == resolved + misses`, guarantees the old
    /// two-mutex design could not make across counters.
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
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).build_reverse();
        let p = Point::new(37.517, 127.047); // Gangnam-gu centroid
        let a = geo.resolve(p);
        let b = geo.resolve(p);
        assert_eq!(a, b);
        assert!(a.is_some());
        let s = geo.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.resolved, 2);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
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
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).build_reverse();
        let tokyo = Point::new(35.68, 139.69);
        assert!(geo.lookup(tokyo).is_none());
        assert!(geo.lookup(tokyo).is_none());
        let s = geo.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn tiny_cache_evicts_but_stays_correct() {
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).capacity(2).build_reverse();
        let pts = [
            Point::new(37.517, 127.047),
            Point::new(35.106, 129.032),
            Point::new(35.869, 128.606),
            Point::new(37.517, 127.047),
        ];
        let ids: Vec<_> = pts.iter().map(|&p| geo.resolve(p)).collect();
        assert_eq!(ids[0], ids[3]);
        assert!(ids.iter().all(|i| i.is_some()));
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
    fn quantization_floors_across_zero() {
        // Regression: `as i32` truncates toward zero, so −0.0001° and
        // +0.0001° used to share cell 0 and the cell straddling 0° was
        // double-width. With floor they land in adjacent, distinct cells.
        let step = 1.0 / QUANT;
        let north_east = Point::new(step / 4.0, step / 4.0);
        let south_west = Point::new(-step / 4.0, -step / 4.0);
        assert_ne!(key_of(north_east), key_of(south_west));
        assert_eq!(key_of(south_west), Key(-1, -1));
        assert_eq!(key_of(north_east), Key(0, 0));
        // Southern/western hemisphere points quantize consistently: one
        // step apart in coordinates → one step apart in key space, with no
        // double-width cell at the origin.
        let sydney = Point::new(-33.8688, 151.2093);
        let step_south = Point::new(-33.8688 - step, 151.2093);
        assert_eq!(key_of(sydney).0 - 1, key_of(step_south).0);
        let valparaiso = Point::new(-33.0458, -71.6197);
        let step_west = Point::new(-33.0458, -71.6197 - step);
        assert_eq!(key_of(valparaiso).1 - 1, key_of(step_west).1);
    }

    #[test]
    fn near_zero_cells_are_distinct_cache_entries() {
        // Behavior-level regression for the same bug: the two sides of the
        // equator/prime-meridian must not share one cached answer.
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
            "distinct quantized cells must both miss the cache"
        );
    }

    #[test]
    fn resolve_cols_matches_point_at_a_time_with_exact_counters() {
        let g = Gazetteer::load();
        let by_point = ReverseGeocoder::builder(&g).build_reverse();
        let by_cols = ReverseGeocoder::builder(&g).build_reverse();
        let pts = [
            (37.517, 127.047), // Gangnam-gu
            (35.68, 139.69),   // Tokyo — miss (negative answer cached)
            (37.517, 127.047), // cache hit
            (35.68, 139.69),   // cached negative — hit
            (33.50, 126.53),   // Jeju
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
        assert_eq!(by_cols.stats().lookups, 5);
        assert_eq!(by_cols.stats().cache_hits, 2);
        // An empty batch touches nothing.
        by_cols.resolve_cols(&[], &[], |_| panic!("empty batch must not emit"));
        assert_eq!(by_cols.stats().lookups, 5);
    }

    #[test]
    fn shard_count_is_power_of_two_and_overridable() {
        let g = Gazetteer::load();
        let geo = ReverseGeocoder::builder(&g).build_reverse();
        assert!(geo.shard_count().is_power_of_two());
        let single = ReverseGeocoder::builder(&g).shards(1).build_reverse();
        assert_eq!(single.shard_count(), 1);
        let many = ReverseGeocoder::builder(&g).shards(9).build_reverse();
        assert_eq!(many.shard_count(), 16);
    }

    #[test]
    fn sharded_and_single_shard_agree() {
        let g = Gazetteer::load();
        let sharded = ReverseGeocoder::builder(&g).shards(16).build_reverse();
        let single = ReverseGeocoder::builder(&g).shards(1).build_reverse();
        for i in 0..500 {
            let p = Point::new(33.0 + (i as f64) * 0.012, 124.5 + (i as f64) * 0.013);
            assert_eq!(sharded.resolve(p), single.resolve(p), "point {p}");
        }
        assert_eq!(sharded.stats(), single.stats());
    }
}
