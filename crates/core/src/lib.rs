//! # stir-core — the paper's contribution
//!
//! Implements the analysis of *"A Study of the Correlation between the
//! Spatial Attributes on Twitter"* (Lee & Hwang, ICDE 2012 Workshops):
//!
//! * [`string`] — the paper's location strings,
//!   `user#state_p#county_p#state_t#county_t` (Table I).
//! * [`grouping`] — the **text-based grouping method**: merge identical
//!   strings with counts, order per user, locate the *matched string*
//!   (profile district == tweet district) and its rank (Table II).
//! * [`topk`] — the Top-k user groups (Top-1 … Top-5, Top-6+, None).
//! * [`service`] — the always-on incremental engine: [`AnalysisSession`]
//!   ingests one tweet at a time (byte-identical to the batch pipeline at
//!   every prefix), answers windowed/top-k queries over live state, and
//!   persists through WAL + checkpoint frames ([`DurableSession`]).
//! * [`pipeline`] — the end-to-end refinement pipeline (§III-B): classify
//!   free-text profile locations, keep GPS tweets, geocode both sides
//!   (optionally round-tripping through the mock Yahoo XML), build and
//!   group strings.
//! * [`funnel`] — the data-refinement funnel the paper reports (52k crawled
//!   → ~30k well defined → 1,1xx final users).
//! * [`stats`] — per-group statistics behind Figs. 6–7 and the slide
//!   charts: user counts, tweet counts, average distinct tweet districts.
//! * [`reliability`] — the paper's proposed application: a per-group weight
//!   factor for event-location estimation.
//! * [`bootstrap`] — resampled confidence intervals for the group
//!   statistics (error bars the paper does not report).
//! * [`report`] — plain-text tables/bar charts matching the figures;
//!   [`export`] — the same artifacts as CSV.
//!
//! Inputs are plain rows ([`ProfileRow`], [`TweetRow`]): the crate does not
//! depend on the simulator, so it drops onto real Twitter exports unchanged.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod compare;
pub mod export;
pub mod funnel;
pub mod granularity;
pub mod grouping;
pub(crate) mod hash;
pub mod input;
pub mod intern;
pub mod metrics;
pub mod pipeline;
pub mod regional;
pub mod reliability;
pub mod report;
pub mod service;
pub mod sketch;
pub mod stats;
pub mod string;
pub mod temporal;
pub mod topk;

pub use bootstrap::{avg_locations_cis, user_share_cis, Ci, GroupCis};
pub use compare::{compare, TableComparison};
pub use funnel::CollectionFunnel;
pub use granularity::Granularity;
pub use grouping::{
    group_user_keys, group_user_keys_with, group_user_strings, group_user_strings_with,
    GroupedUser, TieBreak,
};
pub use input::{ProfileRow, TweetRow};
pub use intern::{DistrictInterner, LocationKey};
pub use metrics::{
    ExecMetrics, ExecMode, GeocodeMetrics, GeocodeMode, GroupingMetrics, PipelineMetrics,
    SelectMetrics, StageTimings,
};
pub use pipeline::exec::{warmup_collapse, ColumnBatch, MorselSource, RowSource, NO_GPS_E6};
pub use pipeline::{
    AnalysisResult, PipelineBuildError, PipelineBuilder, PipelineConfig, PipelineInput,
    RefinementPipeline, TimeWindow,
};
pub use reliability::ReliabilityWeights;
pub use service::{AnalysisSession, DurableSession, SessionQuery, SessionSnapshot, SnapshotError};
pub use sketch::{gazetteer_fingerprint, GazetteerSketcher};
pub use stats::{GroupRow, GroupTable};
pub use stir_geokr::{BackendChoice, BackendTraffic, FaultPlan, ResiliencePolicy};
pub use string::LocationString;
pub use topk::TopKGroup;
