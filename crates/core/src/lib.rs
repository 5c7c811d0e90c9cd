//! The real-time router chip model — the primary contribution of
//! *"A Router Architecture for Real-Time Point-to-Point Networks"*
//! (Rexford, Hall, Shin; ISCA 1996).
//!
//! The router mixes two traffic classes with tailored policies (Table 2 of
//! the paper): time-constrained traffic uses store-and-forward switching of
//! fixed 20-byte packets, table-driven multicast routing, a shared output
//! packet memory, and deadline-driven link scheduling; best-effort traffic
//! uses wormhole switching, dimension-ordered routing, per-input flit
//! buffers, and round-robin arbitration, preemptable at byte granularity by
//! on-time time-constrained packets.
//!
//! Module map (mirroring Figure 2 of the paper):
//!
//! * [`conn_table`] — per-connection routing/delay table,
//! * [`control`] — the pin-level control interface (Table 3),
//! * [`memory`] — shared packet memory with the idle-address FIFO,
//! * [`sched`] — the shared comparator tree (Figure 5) and the Table 1
//!   reference discipline it is verified against,
//! * [`ports`] — the router kit: input ports, the wormhole channel, the
//!   link serialiser (shared with the baseline routers),
//! * [`router`] — the orchestrating chip,
//! * [`stats`] — counters the experiments sample.
//!
//! # Example
//!
//! A single router delivering a time-constrained packet to its own
//! processor:
//!
//! ```
//! use rtr_core::control::ControlCommand;
//! use rtr_core::RealTimeRouter;
//! use rtr_types::chip::{Chip, ChipIo};
//! use rtr_types::config::RouterConfig;
//! use rtr_types::ids::{ConnectionId, Port};
//! use rtr_types::packet::{PacketTrace, TcPacket};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut router = RealTimeRouter::new(RouterConfig::default())?;
//! router.apply_control(ControlCommand::SetConnection {
//!     incoming: ConnectionId(1),
//!     outgoing: ConnectionId(1),
//!     delay: 4,
//!     out_mask: Port::Local.mask(),
//! })?;
//!
//! let mut io = ChipIo::new();
//! io.inject_tc.push_back(TcPacket {
//!     conn: ConnectionId(1),
//!     arrival: router.clock().wrap(0),
//!     payload: vec![0; router.config().tc_data_bytes()].into(),
//!     trace: PacketTrace::default(),
//! });
//! for now in 0..200 {
//!     io.begin_cycle();
//!     router.tick(now, &mut io);
//! }
//! assert_eq!(io.delivered_tc.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conn_table;
pub mod control;
pub mod memory;
pub mod ports;
pub mod router;
pub mod sched;
pub mod stats;

pub use conn_table::{ConnEntry, ConnectionTable, TableError};
pub use control::{ControlCommand, ControlError, ControlPort, ControlReg};
pub use memory::{PacketMemory, SlotAddr};
pub use router::{ChipGauges, Datapath, RealTimeRouter, RouterTemplate};
pub use sched::{ComparatorTree, Leaf, ReferenceScheduler, Selection};
pub use stats::{RouterLedger, RouterStats};
