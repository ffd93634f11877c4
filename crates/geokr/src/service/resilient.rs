//! The resilient decorator: retry → stale cache → local gazetteer.
//!
//! [`ResilientGeocoder`] wraps any primary [`Geocoder`] and guarantees an
//! answer: a transient primary failure is retried (bounded, with
//! decorrelated-jitter backoff); a persistent one trips the circuit
//! breaker; and whenever the primary cannot answer — retries exhausted,
//! breaker open, or the client-side daily budget spent — the lookup falls
//! back to the stale cache of previous primary answers and then to the
//! local gazetteer. An experiment therefore never aborts on a flaky
//! backend, and the traffic report says exactly how degraded the run was.
//!
//! Determinism: backoff draws from a seeded [`StdRng`] behind a mutex (one
//! global jitter stream), the breaker cools down in admission counts, and
//! all waiting is simulated-milliseconds accounting — no real sleeps, no
//! wall clock anywhere.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stir_geoindex::Point;

use crate::error::GeocodeError;
use crate::location::LocationRecord;
use crate::reverse::ReverseGeocoder;

use super::breaker::{BreakerState, CircuitBreaker};
use super::builder::ResiliencePolicy;
use super::{BackendTraffic, Geocoder};

/// One stale-cache shard: quantized cell → last primary answer (negative
/// answers are stale-served too — "known outside coverage" is an answer).
type StaleShard = Mutex<HashMap<(i32, i32), Option<LocationRecord>>>;

/// Per-shard stale-cache budget; a full shard is cleared wholesale.
const STALE_SHARD_CAPACITY: usize = 1 << 16;

/// Stale-cache cells per degree: ~0.0005° ≈ 50 m, far below district size.
const QUANT: f64 = 2000.0;

/// The stale-cache cell of a point. Quantizes with `floor`, not
/// truncation: `as i32` rounds toward zero, which would make the cells
/// straddling 0° double-width and alias negative coordinates with positive
/// ones (lat −0.0001 and +0.0001 would share a cell).
fn quantize(p: Point) -> (i32, i32) {
    (
        (p.lat * QUANT).floor() as i32,
        (p.lon * QUANT).floor() as i32,
    )
}

/// Shard index for a stale-cache cell: SplitMix64 finalizer over both
/// halves, low bits.
fn cell_shard(cell: (i32, i32), mask: usize) -> usize {
    let mut z = ((cell.0 as u32 as u64) << 32) | cell.1 as u32 as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize & mask
}

/// Stale-cache shard count sized for the machine: next power of two ≥
/// 4 × threads.
fn default_shard_count() -> usize {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    (threads * 4).next_power_of_two()
}

/// A [`Geocoder`] decorator that degrades instead of failing.
pub struct ResilientGeocoder<'g> {
    primary: Box<dyn Geocoder + 'g>,
    fallback: ReverseGeocoder<'g>,
    policy: ResiliencePolicy,
    breaker: Mutex<CircuitBreaker>,
    /// Seeded jitter stream + previous sleep (decorrelated jitter needs it).
    backoff: Mutex<(StdRng, u64)>,
    stale: Box<[StaleShard]>,
    stale_mask: usize,
    /// Primary dial attempts charged against the client-side daily budget.
    issued: AtomicU64,
    lookups: AtomicU64,
    resolved: AtomicU64,
    fallbacks: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    retries: AtomicU64,
    stale_served: AtomicU64,
    local_served: AtomicU64,
    budget_denied: AtomicU64,
    breaker_denied: AtomicU64,
    backoff_ms: AtomicU64,
}

impl<'g> ResilientGeocoder<'g> {
    /// Wraps `primary`, falling back to `fallback` (the local gazetteer
    /// geocoder) under the given policy.
    pub fn new(
        primary: Box<dyn Geocoder + 'g>,
        fallback: ReverseGeocoder<'g>,
        policy: ResiliencePolicy,
    ) -> Self {
        let shards = default_shard_count();
        ResilientGeocoder {
            primary,
            fallback,
            breaker: Mutex::new(CircuitBreaker::new(
                policy.breaker_threshold,
                policy.breaker_cooldown,
            )),
            backoff: Mutex::new((
                StdRng::seed_from_u64(policy.backoff_seed),
                policy.backoff_base_ms,
            )),
            policy,
            stale: (0..shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            stale_mask: shards - 1,
            issued: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            resolved: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            local_served: AtomicU64::new(0),
            budget_denied: AtomicU64::new(0),
            breaker_denied: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
        }
    }

    /// The wrapped primary backend.
    pub fn primary(&self) -> &dyn Geocoder {
        self.primary.as_ref()
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().state()
    }

    /// The breaker's transition trace — `(event index, new state)` pairs.
    /// With a seeded fault plan this is a pure function of the schedule;
    /// the proptests assert two identical runs produce identical traces.
    pub fn breaker_trace(&self) -> Vec<(u64, BreakerState)> {
        self.breaker.lock().trace().to_vec()
    }

    /// Lookups refused by the spent client-side budget (degraded straight
    /// to the fallback chain).
    pub fn budget_denials(&self) -> u64 {
        self.budget_denied.load(Ordering::Relaxed)
    }

    /// Lookups refused by the open circuit breaker.
    pub fn breaker_denials(&self) -> u64 {
        self.breaker_denied.load(Ordering::Relaxed)
    }

    /// Total simulated backoff wait, in milliseconds.
    pub fn backoff_ms(&self) -> u64 {
        self.backoff_ms.load(Ordering::Relaxed)
    }

    /// Decorrelated jitter (the AWS recipe): each sleep is uniform in
    /// `[base, min(cap, 3 × previous)]`, so consecutive retries spread out
    /// without synchronizing across callers.
    fn next_backoff_ms(&self) -> u64 {
        let base = self.policy.backoff_base_ms.max(1);
        let cap = self.policy.backoff_cap_ms.max(base);
        let mut guard = self.backoff.lock();
        let (rng, prev) = &mut *guard;
        let hi = prev.saturating_mul(3).clamp(base, cap);
        let ms = rng.gen_range(base..=hi);
        *prev = ms;
        ms
    }

    fn stale_shard(&self, cell: (i32, i32)) -> &StaleShard {
        &self.stale[cell_shard(cell, self.stale_mask)]
    }

    fn store_stale(&self, p: Point, answer: Option<LocationRecord>) {
        let cell = quantize(p);
        let mut shard = self.stale_shard(cell).lock();
        if shard.len() >= STALE_SHARD_CAPACITY {
            shard.clear();
        }
        shard.insert(cell, answer);
    }

    fn load_stale(&self, p: Point) -> Option<Option<LocationRecord>> {
        let cell = quantize(p);
        self.stale_shard(cell).lock().get(&cell).cloned()
    }

    /// The degraded path: stale cache first, local gazetteer second.
    fn degraded(&self, p: Point) -> Option<LocationRecord> {
        let answer = if let Some(stale) = self.load_stale(p) {
            self.stale_served.fetch_add(1, Ordering::Relaxed);
            stale
        } else {
            self.local_served.fetch_add(1, Ordering::Relaxed);
            ReverseGeocoder::lookup(&self.fallback, p)
        };
        if answer.is_some() {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        answer
    }
}

impl Geocoder for ResilientGeocoder<'_> {
    fn lookup(&self, p: Point) -> Result<Option<LocationRecord>, GeocodeError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut tries_left = u64::from(self.policy.max_retries) + 1;
        // `Some(answer)` once the primary responded (a `None` answer is
        // "responded: outside coverage"); `None` means degraded mode.
        let primary_answer: Option<Option<LocationRecord>> = loop {
            // Client-side budget gate: one unit per dial attempt.
            if self
                .issued
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
                    (i < self.policy.daily_budget).then_some(i + 1)
                })
                .is_err()
            {
                self.budget_denied.fetch_add(1, Ordering::Relaxed);
                break None;
            }
            // Breaker gate: refusals also advance the cooldown.
            if self.breaker.lock().admit().is_err() {
                self.breaker_denied.fetch_add(1, Ordering::Relaxed);
                break None;
            }
            match self.primary.lookup(p) {
                Ok(answer) => {
                    self.breaker.lock().on_success();
                    break Some(answer);
                }
                Err(e) => {
                    self.breaker.lock().on_failure();
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    tries_left -= 1;
                    if tries_left == 0 || !e.retryable() {
                        break None;
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let ms = self.next_backoff_ms();
                    self.backoff_ms.fetch_add(ms, Ordering::Relaxed);
                }
            }
        };
        Ok(match primary_answer {
            Some(answer) => {
                // Feed the stale cache for future degraded lookups.
                self.store_stale(p, answer.clone());
                if answer.is_some() {
                    self.resolved.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                answer
            }
            None => self.degraded(p),
        })
    }

    fn traffic(&self) -> BackendTraffic {
        let upstream = self.primary.traffic();
        BackendTraffic {
            lookups: self.lookups.load(Ordering::Relaxed),
            resolved: self.resolved.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            cache_hits: upstream.cache_hits + self.stale_served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            breaker_opens: self.breaker.lock().opens(),
            stale_fallbacks: self.stale_served.load(Ordering::Relaxed),
            local_fallbacks: self.local_served.load(Ordering::Relaxed),
            quota_days: upstream.quota_days,
            simulated_ms: upstream.simulated_ms + self.backoff_ms(),
        }
    }

    fn name(&self) -> &'static str {
        "resilient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gazetteer::Gazetteer;
    use crate::service::{FaultPlan, GeocoderBuilder};
    use crate::yahoo::YahooPlaceFinder;

    #[test]
    fn quantization_floors_across_zero() {
        // Regression: `as i32` truncates toward zero, so −0.0001° and
        // +0.0001° used to share cell 0 and the cell straddling 0° was
        // double-width. With floor they land in adjacent, distinct cells.
        let step = 1.0 / QUANT;
        let north_east = Point::new(step / 4.0, step / 4.0);
        let south_west = Point::new(-step / 4.0, -step / 4.0);
        assert_ne!(quantize(north_east), quantize(south_west));
        assert_eq!(quantize(south_west), (-1, -1));
        assert_eq!(quantize(north_east), (0, 0));
        // Southern/western hemisphere points quantize consistently: one
        // step apart in coordinates → one step apart in key space, with no
        // double-width cell at the origin.
        let sydney = Point::new(-33.8688, 151.2093);
        let step_south = Point::new(-33.8688 - step, 151.2093);
        assert_eq!(quantize(sydney).0 - 1, quantize(step_south).0);
        let valparaiso = Point::new(-33.0458, -71.6197);
        let step_west = Point::new(-33.0458, -71.6197 - step);
        assert_eq!(quantize(valparaiso).1 - 1, quantize(step_west).1);
    }

    fn resilient<'g>(
        g: &'g Gazetteer,
        plan: FaultPlan,
        policy: ResiliencePolicy,
    ) -> ResilientGeocoder<'g> {
        let api = YahooPlaceFinder::with_limits(g, u64::MAX, 0)
            .with_fault_plan(plan)
            .with_deadline(policy.deadline_ms);
        ResilientGeocoder::new(
            Box::new(super::super::YahooBackend::new(api)),
            GeocoderBuilder::new(g).build_reverse(),
            policy,
        )
    }

    #[test]
    fn quiet_primary_is_transparent() {
        let g = Gazetteer::load();
        let geo = resilient(&g, FaultPlan::default(), ResiliencePolicy::default());
        let rec = geo.lookup(Point::new(37.517, 127.047)).unwrap().unwrap();
        assert_eq!(rec.county, "Gangnam-gu");
        assert_eq!(geo.lookup(Point::new(35.68, 139.69)).unwrap(), None);
        let t = geo.traffic();
        assert_eq!((t.lookups, t.resolved, t.misses, t.fallbacks), (2, 1, 1, 0));
        assert_eq!((t.retries, t.errors, t.breaker_opens), (0, 0, 0));
        assert!(t.is_exact());
    }

    #[test]
    fn transient_faults_are_retried_away() {
        let g = Gazetteer::load();
        // 30% drops: with 3 retries the chance all four attempts of any
        // single lookup fault is below 1%, and the seeded schedule below
        // happens to always recover.
        let plan = FaultPlan {
            drop_rate: 0.3,
            seed: 11,
            ..FaultPlan::default()
        };
        let policy = ResiliencePolicy {
            max_retries: 3,
            ..ResiliencePolicy::default()
        };
        let geo = resilient(&g, plan, policy);
        let p = Point::new(37.517, 127.047);
        for _ in 0..50 {
            assert_eq!(geo.lookup(p).unwrap().unwrap().county, "Gangnam-gu");
        }
        let t = geo.traffic();
        assert_eq!(t.lookups, 50);
        assert!(t.retries > 0, "a 30% schedule must retry somewhere");
        assert_eq!(t.errors, t.retries, "every error was retried away");
        assert!(t.is_exact());
        assert!(
            t.simulated_ms > 0,
            "backoff and timeouts cost simulated time"
        );
    }

    #[test]
    fn total_outage_falls_back_to_local_gazetteer() {
        let g = Gazetteer::load();
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let policy = ResiliencePolicy {
            max_retries: 1,
            breaker_threshold: u32::MAX,
            ..ResiliencePolicy::default()
        };
        let geo = resilient(&g, plan, policy);
        let rec = geo.lookup(Point::new(37.517, 127.047)).unwrap().unwrap();
        assert_eq!(rec.county, "Gangnam-gu", "the fallback answers correctly");
        assert_eq!(geo.lookup(Point::new(35.68, 139.69)).unwrap(), None);
        let t = geo.traffic();
        assert_eq!(t.lookups, 2);
        assert_eq!(t.resolved, 0);
        assert_eq!(t.fallbacks, 1);
        assert_eq!(t.misses, 1);
        assert_eq!(t.local_fallbacks, 2);
        assert_eq!(t.retries, 2, "one retry per lookup");
        assert_eq!(t.errors, 4, "both attempts of both lookups failed");
        assert!(t.is_exact());
    }

    #[test]
    fn stale_cache_beats_local_fallback_once_warm() {
        let g = Gazetteer::load();
        // Quiet start warms the stale cache; then the budget runs out and
        // the same cell must be served stale, not recomputed.
        let policy = ResiliencePolicy {
            daily_budget: 1,
            ..ResiliencePolicy::default()
        };
        let geo = resilient(&g, FaultPlan::default(), policy);
        let p = Point::new(37.517, 127.047);
        assert!(geo.lookup(p).unwrap().is_some()); // consumes the whole budget
        assert!(geo.lookup(p).unwrap().is_some()); // degraded, stale-served
        let t = geo.traffic();
        assert_eq!(t.resolved, 1);
        assert_eq!(t.fallbacks, 1);
        assert_eq!(t.stale_fallbacks, 1);
        assert_eq!(t.local_fallbacks, 0);
        assert_eq!(geo.budget_denials(), 1);
        assert!(t.is_exact());
    }

    #[test]
    fn breaker_opens_under_persistent_failure_and_recovers() {
        let g = Gazetteer::load();
        let plan = FaultPlan {
            drop_rate: 1.0,
            ..FaultPlan::default()
        };
        let policy = ResiliencePolicy {
            max_retries: 0,
            breaker_threshold: 3,
            breaker_cooldown: 2,
            ..ResiliencePolicy::default()
        };
        let geo = resilient(&g, plan, policy);
        let p = Point::new(37.517, 127.047);
        for _ in 0..3 {
            assert!(geo.lookup(p).unwrap().is_some()); // failures accumulate
        }
        assert_eq!(geo.breaker_state(), BreakerState::Open);
        // While open, lookups still answer (fallback) without dialing.
        let before = geo.primary().traffic().lookups;
        assert!(geo.lookup(p).unwrap().is_some());
        assert_eq!(geo.primary().traffic().lookups, before);
        assert!(geo.breaker_denials() > 0);
        let t = geo.traffic();
        assert_eq!(t.breaker_opens, 1);
        assert!(t.is_exact());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let g = Gazetteer::load();
        let run = || {
            let plan = FaultPlan {
                drop_rate: 0.5,
                seed: 3,
                ..FaultPlan::default()
            };
            let policy = ResiliencePolicy {
                max_retries: 4,
                breaker_threshold: u32::MAX,
                ..ResiliencePolicy::default()
            };
            let geo = resilient(&g, plan, policy);
            for i in 0..40 {
                let p = Point::new(33.0 + f64::from(i) * 0.05, 126.0 + f64::from(i) * 0.05);
                let _ = geo.lookup(p);
            }
            (geo.backoff_ms(), geo.traffic().retries)
        };
        let (ms_a, retries_a) = run();
        let (ms_b, retries_b) = run();
        assert_eq!(ms_a, ms_b, "seeded jitter stream must reproduce exactly");
        assert_eq!(retries_a, retries_b);
        assert!(retries_a > 0);
        let cap = ResiliencePolicy::default().backoff_cap_ms;
        assert!(ms_a <= retries_a * cap, "every sleep is capped");
    }
}
