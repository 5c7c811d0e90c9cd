//! Run-time link scheduling (paper §4.2, Figure 5).
//!
//! All five output ports share a single comparator tree that selects, among
//! up to 256 buffered time-constrained packets, the one with the smallest
//! sorting key for a given port. [`tree::ComparatorTree`] is the hardware
//! model; [`reference::ReferenceScheduler`] is an independent software
//! implementation of the paper's Table 1 three-queue discipline used to
//! cross-check it (they must always agree — see the property tests).

pub mod banded;
pub mod dispatch;
pub mod leaf;
pub mod oracle;
pub mod reference;
pub mod tree;

pub use banded::BandedScheduler;
pub use dispatch::Scheduler;
pub use leaf::{Leaf, LeafStore};
pub use oracle::OracleScheduler;
pub use reference::ReferenceScheduler;
pub use tree::{ComparatorTree, Selection};
