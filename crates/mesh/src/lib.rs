//! Cycle-stepped network simulator substrate.
//!
//! The paper evaluates a single Verilog chip and defers multi-node studies
//! to a multicomputer network simulator (its §7 cites PP-MESS-SIM); this
//! crate *is* that simulator, built from scratch: a 2-D mesh (or custom
//! wiring, e.g. the single-router loop-back of the paper's §5.2
//! Experiment 1) of [`rtr_types::chip::Chip`] instances connected by links
//! that carry one byte-symbol per cycle per direction plus reverse-flowing
//! best-effort credits.
//!
//! * [`topology`] — mesh coordinates and link wiring,
//! * [`adjacency`] — the CSR link/feeder tables the simulator runs on,
//! * [`link`] — the symbol/credit pipes with configurable wire latency,
//! * [`fault`] — the scripted, seeded mid-run fault-injection plane,
//! * [`source`] — the traffic-source trait workloads implement,
//! * [`sim`] — the simulator main loop,
//! * [`stats`] — delivery logs, occupancy samples, and derived metrics.
//!
//! # Example
//!
//! ```
//! use rtr_core::RealTimeRouter;
//! use rtr_mesh::sim::Simulator;
//! use rtr_mesh::topology::Topology;
//! use rtr_types::config::RouterConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = Topology::mesh(4, 4);
//! let mut sim = Simulator::build(topo, |_| RealTimeRouter::new(RouterConfig::default()))?;
//! sim.run(100);
//! assert_eq!(sim.now(), 100);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod fault;
pub mod link;
pub(crate) mod metrics;
pub mod netstats;
pub mod sim;
pub mod source;
pub mod stats;
pub mod topology;

pub use adjacency::{LinkTable, LinkUsage};
pub use fault::{FaultEvent, FaultKind, FaultSchedule, FaultStats};
pub use link::LinkLedger;
pub use netstats::{ConnSlackReport, Histogram, NetworkReport, OccupancySummary};
pub use sim::{ControlStats, Simulator};
pub use source::TrafficSource;
pub use stats::{DeliveryLog, OccupancyHistory, OccupancySample};
pub use topology::Topology;
