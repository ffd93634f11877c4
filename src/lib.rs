//! # STIR — Spatial aTtribute Information Reliability for Twitter
//!
//! Façade crate re-exporting the whole workspace. See the repository README
//! and `DESIGN.md` for the architecture, and the `examples/` directory for
//! runnable entry points.

#![warn(missing_docs)]

pub mod detection_bench;
#[cfg(test)]
mod store_pipeline;

/// One-stop imports for the common workflow: generate → refine → group →
/// weight → estimate.
pub mod prelude {
    pub use stir_core::{
        AnalysisResult, AnalysisSession, DurableSession, GroupTable, GroupedUser, PipelineBuilder,
        PipelineConfig, PipelineInput, ProfileRow, RefinementPipeline, ReliabilityWeights,
        TopKGroup, TweetRow,
    };
    pub use stir_eventdet::{
        KalmanEstimator, LocationEstimator, MeanEstimator, MedianEstimator, Observation,
        ObservationBuilder, ParticleEstimator, Toretter,
    };
    pub use stir_geoindex::{BBox, Point};
    pub use stir_geokr::{
        BackendChoice, BackendTraffic, DistrictId, FaultPlan, Gazetteer, GeocodeError, Geocoder,
        GeocoderBuilder, Province, ResiliencePolicy, ResilientGeocoder, ReverseGeocoder,
    };
    pub use stir_textgeo::{ProfileClass, ProfileClassifier};
    pub use stir_tweetstore::{Query, TweetRecord, TweetStore};
    pub use stir_twitter_sim::datasets::{Dataset, DatasetSpec};
}

pub use stir_core as core;
pub use stir_eventdet as eventdet;
pub use stir_geoindex as geoindex;
pub use stir_geokr as geokr;
pub use stir_textgeo as textgeo;
pub use stir_tweetstore as tweetstore;
pub use stir_twitter_sim as twitter_sim;
