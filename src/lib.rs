//! Facade crate for the real-time router reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can depend on a single package:
//!
//! * [`types`] — shared vocabulary (clock, keys, packets, config),
//! * [`events`] — the wake queue behind time leaping,
//! * [`metrics`] — the counter registry and phase profiler (live with
//!   `--features metrics`, zero-sized without),
//! * [`core`] — the real-time router chip model,
//! * [`mesh`] — the cycle-stepped network simulator,
//! * [`channels`] — real-time channel admission and establishment,
//! * [`workloads`] — traffic generators,
//! * [`baselines`] — comparison router designs,
//! * [`hwcost`] — the hardware complexity model.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture and
//! the paper-experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rtr_baselines as baselines;
pub use rtr_channels as channels;
pub use rtr_core as core;
pub use rtr_events as events;
pub use rtr_hwcost as hwcost;
pub use rtr_mesh as mesh;
pub use rtr_metrics as metrics;
pub use rtr_types as types;
pub use rtr_workloads as workloads;

/// The names most programs need, in one import.
///
/// ```
/// use realtime_router::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = Topology::mesh(2, 2);
/// let mut sim = Simulator::build(topo, |_| RealTimeRouter::new(RouterConfig::default()))?;
/// sim.run(10);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use rtr_channels::{
        ChannelManager, ChannelRequest, ChannelSender, EstablishedChannel, TrafficSpec,
    };
    pub use rtr_core::{ControlCommand, RealTimeRouter};
    pub use rtr_mesh::{Simulator, Topology, TrafficSource};
    pub use rtr_types::chip::{Chip, ChipIo, InjectQueues};
    pub use rtr_types::config::RouterConfig;
    pub use rtr_types::ids::{ConnectionId, Direction, NodeId, Port};
    pub use rtr_types::packet::{BePacket, PacketTrace, TcPacket};
}
