//! # stir-geoindex — spatial index substrate
//!
//! Geographic primitives and spatial indexes used by the rest of the STIR
//! workspace:
//!
//! * [`Point`] / [`BBox`] — WGS-84 coordinates, haversine distance, bounding
//!   boxes and the geodesic helpers needed by the geocoder and the event
//!   location estimators.
//! * [`geohash`] — base-32 geohash encode/decode plus neighbour expansion,
//!   used by the tweet store's spatial secondary index.
//! * [`Polygon`] — ring polygons with ray-casting containment, centroids and
//!   deterministic interior sampling, used for synthetic district shapes.
//! * [`RTree`] — an STR bulk-loaded R-tree with incremental insert, bounding
//!   box queries and best-first k-nearest-neighbour search.
//! * [`BruteForceIndex`] — the O(n) reference oracle the property tests and
//!   benchmarks compare the R-tree against.
//!
//! Everything here is dependency-free and deterministic.

#![warn(missing_docs)]

pub mod bruteforce;
pub mod geohash;
pub mod point;
pub mod polygon;
pub mod rtree;

pub use bruteforce::BruteForceIndex;
pub use point::{BBox, Point, EARTH_RADIUS_KM};
pub use polygon::Polygon;
pub use rtree::{RTree, Spatial};
