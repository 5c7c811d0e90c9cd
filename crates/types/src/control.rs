//! The values of the chip's control interface (paper §4.1, Table 3).
//!
//! Protocol software programs a router only through these writes, so they
//! are plain data: a [`ControlCommand`] can be built, scheduled, printed
//! and compared without a router in sight, and every chip answers one
//! through [`crate::chip::Chip::apply_control`] with `Ok` or a
//! [`ControlError`]. The register file that applies them lives with the
//! router model (`rtr_core::control`).

use crate::ids::ConnectionId;

/// A typed control-interface command (the rows of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlCommand {
    /// Install a connection-table entry (the four-write sequence).
    SetConnection {
        /// Incoming connection identifier (table index).
        incoming: ConnectionId,
        /// Identifier to write into forwarded packet headers.
        outgoing: ConnectionId,
        /// Local delay bound `d`, in slots.
        delay: u32,
        /// Output-port bit mask (multicast sets several bits).
        out_mask: u8,
    },
    /// Remove a connection-table entry (teardown; modelled as installing an
    /// empty mask would leak the identifier, so removal is explicit).
    ClearConnection {
        /// Incoming connection identifier to clear.
        incoming: ConnectionId,
    },
    /// Set the horizon parameter `h` for the ports in the mask (the
    /// two-write sequence).
    SetHorizon {
        /// Output-port bit mask selecting which horizon registers to write.
        port_mask: u8,
        /// Horizon value in slots.
        horizon: u32,
    },
}

/// Control-register addresses for the word-level protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlReg {
    /// Outgoing connection identifier (write 1 of 4).
    OutConn,
    /// Local delay bound `d` (write 2 of 4).
    Delay,
    /// Output-port bit mask (write 3 of 4).
    PortMask,
    /// Incoming connection identifier; commits the connection entry
    /// (write 4 of 4).
    InConnCommit,
    /// Horizon port mask (write 1 of 2).
    HorizonMask,
    /// Horizon value; commits the horizon update (write 2 of 2).
    HorizonCommit,
}

/// Why a connection-table update was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The incoming connection identifier exceeds the table size.
    BadIndex {
        /// The offending identifier.
        conn: ConnectionId,
        /// Table capacity.
        capacity: usize,
    },
    /// The delay bound is not below half the clock range (§4.3's rollover
    /// constraint).
    DelayTooLarge {
        /// The offending delay.
        delay: u32,
        /// The maximum admissible value (half range − 1).
        max: u32,
    },
    /// The port mask has bits beyond the five ports.
    BadMask {
        /// The offending mask.
        mask: u8,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::BadIndex { conn, capacity } => {
                write!(f, "connection {conn} exceeds table capacity {capacity}")
            }
            TableError::DelayTooLarge { delay, max } => {
                write!(f, "delay bound {delay} exceeds the rollover limit {max}")
            }
            TableError::BadMask { mask } => write!(f, "port mask {mask:#07b} has invalid bits"),
        }
    }
}

impl std::error::Error for TableError {}

/// Errors surfaced by the control interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlError {
    /// The committed connection entry was rejected by the table.
    Table(TableError),
    /// A commit register was written before its staging registers.
    IncompleteSequence {
        /// The commit register that was written.
        reg: ControlReg,
    },
    /// The horizon violates the clock-rollover constraint when combined with
    /// the largest admissible delay (§4.3 requires `h + d` below half the
    /// clock range; the chip conservatively bounds `h` itself).
    HorizonTooLarge {
        /// The offending horizon.
        horizon: u32,
        /// Maximum admissible value.
        max: u32,
    },
    /// A value does not fit the register field it travels through: a delay
    /// or horizon past the 16-bit register, or a port mask with bits past
    /// the five ports.
    RegisterOverflow {
        /// The register.
        reg: ControlReg,
        /// The value.
        value: u32,
    },
    /// The chip has no register the command writes (a router without a
    /// connection table, or a horizon write to one without horizons).
    Unsupported,
}

impl From<TableError> for ControlError {
    fn from(e: TableError) -> Self {
        ControlError::Table(e)
    }
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Table(e) => write!(f, "table update rejected: {e}"),
            ControlError::IncompleteSequence { reg } => {
                write!(f, "commit register {reg:?} written before its staging registers")
            }
            ControlError::HorizonTooLarge { horizon, max } => {
                write!(f, "horizon {horizon} exceeds the rollover limit {max}")
            }
            ControlError::RegisterOverflow { reg, value } => {
                write!(f, "{value:#x} does not fit the {reg:?} register")
            }
            ControlError::Unsupported => write!(f, "the chip has no register this command writes"),
        }
    }
}

impl std::error::Error for ControlError {}
