//! Shared vocabulary types for the real-time router reproduction.
//!
//! This crate defines the small, widely shared data types used by every other
//! crate in the workspace:
//!
//! * [`time`] — raw cycle/slot counters and conversions,
//! * [`clock`] — the wrapping on-chip scheduler clock of the paper's
//!   Figure 6, with windowed modulo comparisons,
//! * [`key`] — the 9-bit packet sorting key of Figure 4,
//! * [`ids`] — node, port, and connection identifiers,
//! * [`packet`] — the time-constrained and best-effort packet formats of
//!   Figure 3, including their wire encodings,
//! * [`flit`] — link-level symbols (flits) and flow-control credits,
//! * [`config`] — the architectural parameters of Table 4(a) and the
//!   per-class policy matrix of Table 2,
//! * [`control`] — the Table 3 control commands every chip answers, and
//!   their errors,
//! * [`trace`] — cycle-accurate packet lifecycle events, trace sinks, and
//!   the JSON Lines telemetry format.
//!
//! # Example
//!
//! ```
//! use rtr_types::clock::SlotClock;
//! use rtr_types::key::{LatePolicy, SortKey};
//!
//! // The paper's Figure 6: an 8-bit clock at t = 240.
//! let clock = SlotClock::new(8);
//! let t = clock.wrap(240);
//! assert!(clock.is_early(clock.wrap(80), t)); // ℓ = 80 is early traffic
//! assert!(!clock.is_early(clock.wrap(210), t)); // ℓ = 210 is on-time
//!
//! // On-time packets sort by time-to-deadline.
//! let key = SortKey::compute(&clock, clock.wrap(210), 8, t, LatePolicy::Saturate);
//! assert!(key.is_on_time(&clock));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chip;
pub mod clock;
pub mod config;
pub mod control;
pub mod error;
pub mod flit;
pub mod ids;
pub mod key;
pub mod packet;
pub mod time;
pub mod trace;

pub use chip::ChipGauges;
pub use chip::{Chip, ChipIo, InjectQueues};
pub use clock::{LogicalTime, SlotClock};
pub use config::{RouterConfig, TimingConfig};
pub use error::{ConfigError, PacketDecodeError};
pub use flit::{BeByte, LinkSymbol};
pub use ids::{ConnectionId, Direction, NodeId, Port, TrafficClass};
pub use key::{LatePolicy, SortKey};
pub use packet::{BeHeader, BePacket, PacketTrace, TcPacket};
pub use time::{Cycle, Slot};
pub use trace::{TraceEvent, TraceRecord, TraceSink};
