//! The one construction surface for every geocoding backend.
//!
//! A resilient Yahoo-backed geocoder needs a backend choice *and* a fault
//! plan *and* a retry policy *and* quota limits, and positional arguments
//! can't say which is which. [`GeocoderBuilder`] names each knob —
//! `.backend(..)`, `.fault_plan(..)`, `.resilience(..)` — and is what the
//! service layer, the analysis pipeline and the benches all construct
//! through.

use std::fmt;
use std::str::FromStr;

use crate::gazetteer::Gazetteer;
use crate::reverse::ReverseGeocoder;
use crate::yahoo::YahooPlaceFinder;

use super::fault::FaultPlan;
use super::resilient::ResilientGeocoder;
use super::yahoo_backend::YahooBackend;
use super::Geocoder;

/// Which backend a [`GeocoderBuilder`] assembles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// The local gazetteer — infallible, the default.
    #[default]
    Gazetteer,
    /// The Yahoo XML round-trip endpoint with daily-quota rollover.
    Yahoo,
    /// The Yahoo endpoint behind the resilient decorator (retry → stale
    /// cache → local gazetteer).
    Resilient,
}

impl FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gazetteer" => Ok(BackendChoice::Gazetteer),
            "yahoo" => Ok(BackendChoice::Yahoo),
            "resilient" => Ok(BackendChoice::Resilient),
            other => Err(format!(
                "unknown backend {other:?} (expected gazetteer, yahoo or resilient)"
            )),
        }
    }
}

/// `Display` mirrors the CLI spelling so `--backend` round-trips.
impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendChoice::Gazetteer => "gazetteer",
            BackendChoice::Yahoo => "yahoo",
            BackendChoice::Resilient => "resilient",
        })
    }
}

/// Knobs of the [`ResilientGeocoder`](super::ResilientGeocoder) decorator.
/// `Copy` so it can ride inside a `PipelineConfig`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Retries beyond each lookup's first attempt.
    pub max_retries: u32,
    /// Decorrelated-jitter backoff floor, in milliseconds.
    pub backoff_base_ms: u64,
    /// Decorrelated-jitter backoff ceiling, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the jitter stream.
    pub backoff_seed: u64,
    /// Consecutive failures before the circuit breaker trips.
    pub breaker_threshold: u32,
    /// Refused admissions before the open breaker half-opens for a probe.
    pub breaker_cooldown: u32,
    /// Client-side daily budget of primary dial attempts.
    pub daily_budget: u64,
    /// Per-call deadline enforced at the endpoint, in milliseconds.
    pub deadline_ms: u64,
}

impl Default for ResiliencePolicy {
    /// Paper-tier defaults: 2 retries, 50–2000 ms jitter, trip after 5
    /// straight failures with a 16-admission cooldown, unbounded client
    /// budget, 500 ms deadline.
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            backoff_seed: 0xB0FF,
            breaker_threshold: 5,
            breaker_cooldown: 16,
            daily_budget: u64::MAX,
            deadline_ms: 500,
        }
    }
}

/// Builder for every geocoder in the crate; start one with
/// [`ReverseGeocoder::builder`] or [`GeocoderBuilder::new`].
///
/// `build_reverse()` yields the concrete local geocoder (what most code
/// wants); `build()` yields whichever `Box<dyn Geocoder>` the configured
/// [`BackendChoice`] names.
pub struct GeocoderBuilder<'g> {
    gazetteer: &'g Gazetteer,
    backend: BackendChoice,
    faults: FaultPlan,
    policy: ResiliencePolicy,
    yahoo_quota: u64,
    yahoo_latency_ms: u64,
}

impl<'g> GeocoderBuilder<'g> {
    /// A builder with the defaults: gazetteer backend, no faults.
    pub fn new(gazetteer: &'g Gazetteer) -> Self {
        GeocoderBuilder {
            gazetteer,
            backend: BackendChoice::default(),
            faults: FaultPlan::default(),
            policy: ResiliencePolicy::default(),
            yahoo_quota: 50_000,
            yahoo_latency_ms: 120,
        }
    }

    /// Which backend [`build`](Self::build) assembles.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Fault schedule injected at the Yahoo endpoint (ignored by the plain
    /// gazetteer backend, which has no endpoint to fault).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Resilience knobs for the [`BackendChoice::Resilient`] decorator.
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Daily quota and per-request latency of the Yahoo endpoint.
    pub fn yahoo_limits(mut self, daily_quota: u64, latency_ms: u64) -> Self {
        self.yahoo_quota = daily_quota;
        self.yahoo_latency_ms = latency_ms;
        self
    }

    /// The concrete local geocoder (ignores the backend choice).
    pub fn build_reverse(&self) -> ReverseGeocoder<'g> {
        ReverseGeocoder::assemble(self.gazetteer)
    }

    fn build_yahoo(&self, with_deadline: bool) -> YahooBackend<'g> {
        let mut api =
            YahooPlaceFinder::with_limits(self.gazetteer, self.yahoo_quota, self.yahoo_latency_ms);
        if !self.faults.is_quiet() {
            api = api.with_fault_plan(self.faults);
        }
        if with_deadline {
            api = api.with_deadline(self.policy.deadline_ms);
        }
        YahooBackend::new(api)
    }

    /// The configured backend as a trait object — what the analysis
    /// pipeline plugs in without naming any concrete geocoder type.
    pub fn build(&self) -> Box<dyn Geocoder + 'g> {
        match self.backend {
            BackendChoice::Gazetteer => Box::new(self.build_reverse()),
            // The raw endpoint has no deadline: nothing above it would
            // retry a timeout, so dropped requests wait the full default.
            BackendChoice::Yahoo => Box::new(self.build_yahoo(false)),
            BackendChoice::Resilient => Box::new(ResilientGeocoder::new(
                Box::new(self.build_yahoo(true)),
                self.build_reverse(),
                self.policy,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_geoindex::Point;

    #[test]
    fn backend_choice_parses_and_displays() {
        for (s, choice) in [
            ("gazetteer", BackendChoice::Gazetteer),
            ("yahoo", BackendChoice::Yahoo),
            ("resilient", BackendChoice::Resilient),
        ] {
            assert_eq!(s.parse::<BackendChoice>().unwrap(), choice);
            assert_eq!(choice.to_string(), s);
        }
        assert!("google".parse::<BackendChoice>().is_err());
        assert_eq!(BackendChoice::default(), BackendChoice::Gazetteer);
    }

    #[test]
    fn builder_assembles_each_backend() {
        let g = Gazetteer::load();
        let p = Point::new(37.517, 127.047);
        let mut answers = Vec::new();
        for choice in [
            BackendChoice::Gazetteer,
            BackendChoice::Yahoo,
            BackendChoice::Resilient,
        ] {
            let backend = GeocoderBuilder::new(&g).backend(choice).build();
            assert_eq!(backend.name(), choice.to_string());
            let rec = backend.lookup(p).unwrap().expect("gangnam resolves");
            answers.push((rec.state, rec.county));
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "every backend answers from the same gazetteer: {answers:?}"
        );
    }

    #[test]
    fn faulted_resilient_backend_still_answers_like_the_quiet_one() {
        let g = Gazetteer::load();
        let plan = FaultPlan::parse("drop:0.2,malformed:0.1,seed:5").unwrap();
        let noisy = GeocoderBuilder::new(&g)
            .backend(BackendChoice::Resilient)
            .fault_plan(plan)
            .build();
        let quiet = GeocoderBuilder::new(&g)
            .backend(BackendChoice::Resilient)
            .build();
        for i in 0..200 {
            let p = Point::new(33.0 + (i as f64) * 0.021, 124.5 + (i as f64) * 0.024);
            let a = noisy.lookup(p).unwrap();
            let b = quiet.lookup(p).unwrap();
            assert_eq!(
                a.as_ref().map(|r| (&r.state, &r.county)),
                b.as_ref().map(|r| (&r.state, &r.county)),
                "answers must not depend on the fault schedule (point {i})"
            );
        }
        assert!(noisy.traffic().is_exact());
    }
}
