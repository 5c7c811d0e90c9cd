//! Experiment harness: one module per paper table/figure plus the
//! extension sweeps (see `DESIGN.md` §4 for the experiment index).
//!
//! Each module exposes a `run` function returning structured results; the
//! `rtr` binary prints them in the paper's format (one subcommand each)
//! and the integration tests assert their shapes. Timing the simulator is
//! `benchmark/`'s job, not this crate's.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline_compare;
pub mod chaos;
pub mod churn;
pub mod exp1;
pub mod fig7;
pub mod horizon;
pub mod load_latency;
pub mod mesh_guarantees;
pub mod sched_ablation;
pub mod util;
pub mod vct;
