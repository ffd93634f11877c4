//! # stir-geokr — Korean administrative gazetteer and geocoders
//!
//! The paper resolves both profile locations and tweet GPS coordinates to
//! Korean administrative districts through the Yahoo Open API (its Fig. 5
//! shows the XML response). That service is long gone; this crate is the
//! closed-world replacement:
//!
//! * [`district`] / [`data`] — the gazetteer model and a 2011-era table of
//!   all 16 first-level divisions and 229 second-level districts (si/gun/gu),
//!   with romanized and Korean names, centroids, populations and areas.
//!   (Sejong City launched in July 2012, after the paper's collection
//!   window, and is deliberately absent.)
//! * [`Gazetteer`] — lookup by id/name/province, synthetic district
//!   footprints, population-weighted sampling support.
//! * [`ReverseGeocoder`] — GPS point → district with traffic counters: a
//!   district atlas answers most points by array index, and an R-tree
//!   over district centroids plus a polygon walk answers the rest.
//! * [`ForwardGeocoder`] — normalized name → district, with ambiguity
//!   reporting (many district names repeat across provinces: every large
//!   city has a "Jung-gu").
//! * [`geojson`] — FeatureCollection export of footprints/centroids for
//!   visual inspection in any map tool.
//! * [`yahoo`] — a mock Yahoo PlaceFinder endpoint that renders and parses
//!   the paper's XML response format, so the analysis pipeline exercises the
//!   same serialize/parse path the authors did — now with a seeded
//!   [`FaultPlan`] injector for the failure modes of a 2011 free tier.
//! * [`service`] — the pluggable backend layer: the [`Geocoder`] trait, a
//!   [`GeocoderBuilder`], and the [`ResilientGeocoder`] decorator (deadline,
//!   bounded retry with decorrelated jitter, circuit breaker, client-side
//!   budget, stale-cache → gazetteer fallback), all deterministic.
//! * [`error`] — the unified [`GeocodeError`] every backend returns.
//!
//! The tweet generator samples GPS points from the same gazetteer the
//! analyzer geocodes with, mirroring how the paper used one geocoder on both
//! sides.

#![warn(missing_docs)]

pub mod data;
pub mod district;
pub mod error;
pub mod forward;
pub mod gazetteer;
pub mod geojson;
pub mod location;
pub mod reverse;
pub mod service;
pub mod yahoo;

pub use district::{District, DistrictId, DistrictKind, Province};
pub use error::GeocodeError;
pub use forward::{ForwardGeocoder, ForwardResult};
pub use gazetteer::Gazetteer;
pub use location::LocationRecord;
pub use reverse::{ReverseGeocoder, ReverseStats};
pub use service::{
    BackendChoice, BackendTraffic, FaultPlan, Geocoder, GeocoderBuilder, ResiliencePolicy,
    ResilientGeocoder,
};
