//! The repo benchmark: six workloads over the real-time router simulator,
//! end-to-end metrics from an untraced run, per-layer metrics and spans
//! from a traced one. See `README.md` in this directory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod child;
pub mod cli;
pub mod compare;
pub mod json;
pub mod manifest;
pub mod probes;
pub mod single;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;
