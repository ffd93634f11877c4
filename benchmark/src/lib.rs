//! # stir-benchmark — the system's end-to-end and per-layer benchmark
//!
//! The `benchmark` binary drives the public APIs of `stir_core`,
//! `stir_tweetstore` and `stir_geokr` through four workloads and prints
//! every metric by name with its unit (see `README.md`). This library holds
//! the measurement pieces the binary and its tests share.

#![warn(missing_docs)]

pub mod harness;
pub mod json;
