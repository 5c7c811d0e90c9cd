//! Baseline router designs for comparison (paper §6 "Related Work").
//!
//! Three points on the design spectrum the paper positions itself against:
//!
//! * [`wormhole::WormholeRouter`] — a classic single-class wormhole router
//!   with dimension-ordered routing and round-robin arbitration: the
//!   "modern parallel machine" design with no real-time support at all.
//!   Deadline traffic rides the same best-effort channel as everything
//!   else.
//! * [`priority_vc::PriorityVcRouter`] — two classes with fixed priority:
//!   the high class is packet-switched and always beats best-effort bytes
//!   (flit-level preemption), but within the class service is FIFO — no
//!   deadlines, no logical-arrival regulation. This isolates the value of
//!   the real-time router's deadline scheduling from mere class priority.
//! * [`fifo_sf::FifoSfRouter`] — store-and-forward FIFO for *all* traffic:
//!   the packet-switching strawman of §3.1 ("packet switching would
//!   introduce additional delay to buffer the packet at each hop").
//!
//! All three implement [`rtr_types::chip::Chip`] and run unmodified in the
//! mesh simulator, so every experiment can swap routers. The two
//! table-routed designs take the same Table 3 writes through
//! [`Chip::apply_control`](rtr_types::chip::Chip::apply_control) (delays
//! ignored, horizon writes refused); the wormhole router has no table and
//! refuses every write.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fifo_sf;
pub mod priority_vc;
pub mod wormhole;

pub use fifo_sf::FifoSfRouter;
pub use priority_vc::PriorityVcRouter;
pub use wormhole::WormholeRouter;

use rtr_core::conn_table::{ConnEntry, ConnectionTable};
use rtr_types::clock::SlotClock;
use rtr_types::control::{ControlCommand, ControlError};

/// The Table 3 writes a table-routed baseline takes: it keeps the real-time
/// router's table-driven routing but has no delay bounds (an entry's `d` is
/// stored as 0) and no horizon registers, so a horizon write is refused.
fn apply_route_control(
    table: &mut ConnectionTable,
    clock: &SlotClock,
    cmd: ControlCommand,
) -> Result<(), ControlError> {
    match cmd {
        ControlCommand::SetConnection { incoming, outgoing, out_mask, .. } => {
            table.install(incoming, ConnEntry { outgoing, delay: 0, out_mask }, clock)?;
        }
        ControlCommand::ClearConnection { incoming } => {
            table.remove(incoming)?;
        }
        ControlCommand::SetHorizon { .. } => return Err(ControlError::Unsupported),
    }
    Ok(())
}

/// A routing-table write for the baselines' unit tests.
#[cfg(test)]
fn route(incoming: u16, outgoing: u16, out_mask: u8) -> ControlCommand {
    use rtr_types::ids::ConnectionId;
    ControlCommand::SetConnection {
        incoming: ConnectionId(incoming),
        outgoing: ConnectionId(outgoing),
        delay: 0,
        out_mask,
    }
}
