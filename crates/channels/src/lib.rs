//! The real-time channel abstraction (paper §2) and its protocol software
//! (paper §4.1).
//!
//! A *real-time channel* is a unidirectional virtual connection with a
//! traffic contract `(I_min, S_max, B_max)` and an end-to-end delay bound
//! `D` on logical arrival times. The chip schedules packets; everything else
//! — admission control, route selection, delay-bound decomposition,
//! identifier allocation, table programming — is software, implemented here:
//!
//! * [`spec`] — traffic contracts and channel requests,
//! * [`arrival`] — the logical-arrival-time recurrence and an LBAP policer,
//! * [`admission`] — the EDF processor-demand link test and buffer
//!   reservation accounting,
//! * [`establish`] — the [`establish::ChannelManager`] that admits channels
//!   and programs routers through the Table 3 control interface,
//! * [`sender`] — source-side message stamping and packetisation,
//! * [`recovery`] — mid-run fault detection and guaranteed-safe
//!   re-routing against a live simulation,
//! * [`control_plane`] — the live [`control_plane::SignalingEngine`]:
//!   establish/teardown against a *running* mesh, with table writes
//!   applied as timed simulated work instead of an instantaneous pause.
//!
//! # Example
//!
//! ```
//! use rtr_channels::establish::ChannelManager;
//! use rtr_channels::spec::{ChannelRequest, TrafficSpec};
//! use rtr_core::RealTimeRouter;
//! use rtr_mesh::{Simulator, Topology};
//! use rtr_types::config::RouterConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = RouterConfig::default();
//! let topo = Topology::mesh(4, 4);
//! let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone()))?;
//! let mut manager = ChannelManager::new(&config);
//! let channel = manager.establish(
//!     &topo,
//!     ChannelRequest::unicast(
//!         topo.node_at(0, 0),
//!         topo.node_at(3, 2),
//!         TrafficSpec::periodic(16, 18),
//!         60,
//!     ),
//!     &mut sim,
//! )?;
//! assert_eq!(channel.depth, 6); // 5 links + the reception port
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod arrival;
mod books;
pub mod control_plane;
pub mod establish;
pub mod recovery;
pub mod sender;
pub mod spec;

pub use admission::{AdmissionError, AdmissionPolicy, BufferBook, LinkBook, LinkReservation};
pub use arrival::{ArrivalTracker, Policer};
pub use control_plane::{
    DeferredPlane, EstablishTicket, SignalingEngine, SignalingStats, TeardownStyle, TeardownTicket,
};
pub use establish::{
    ChannelManager, ControlPlane, EstablishError, EstablishedChannel, Hop, LinkLoad, WordLevelPlane,
};
pub use recovery::{
    suspect_dead_links, watch_and_recover, RecoveryConfig, RecoveryError, RecoveryReport,
};
pub use sender::{ChannelSender, PolicedSender};
pub use spec::{ChannelRequest, TrafficSpec};
