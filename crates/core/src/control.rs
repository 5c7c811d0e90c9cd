//! The control interface between protocol software and the chip
//! (paper §4.1, Table 3).
//!
//! To minimise pins, the controlling processor programs the router through
//! narrow register writes. A connection update is a sequence of four writes —
//! outgoing connection id, local delay bound `d`, output-port bit mask, and
//! finally the incoming connection id, which commits the entry. A horizon
//! update is two writes — output-port bit mask, then the horizon value, which
//! commits.
//!
//! [`ControlPort`] models the word-level pin protocol;
//! [`ControlCommand`] is the typed convenience layer protocol software
//! actually uses (and what `rtr_channels` drives). The command and error
//! values live in [`rtr_types::control`], so every chip model and the
//! simulator's agenda share them; they are re-exported here.

use crate::conn_table::{ConnEntry, ConnectionTable};
use rtr_types::ids::ConnectionId;
use rtr_types::SlotClock;

pub use rtr_types::control::{ControlCommand, ControlError, ControlReg};

/// Staged (not yet committed) control writes.
#[derive(Debug, Clone, Copy, Default)]
struct Staging {
    out_conn: Option<u16>,
    delay: Option<u16>,
    port_mask: Option<u8>,
    horizon_mask: Option<u8>,
}

/// The five-port mask a 16-bit mask register write carries.
fn port_mask(reg: ControlReg, value: u16) -> Result<u8, ControlError> {
    u8::try_from(value)
        .ok()
        .filter(|mask| mask & !0b1_1111 == 0)
        .ok_or(ControlError::RegisterOverflow { reg, value: u32::from(value) })
}

/// The chip's control port: applies typed commands or word-level register
/// writes to the connection table and horizon registers.
#[derive(Debug)]
pub struct ControlPort {
    staging: Staging,
    clock: SlotClock,
}

impl ControlPort {
    /// Creates a control port for a router with the given scheduler clock.
    #[must_use]
    pub fn new(clock: SlotClock) -> Self {
        ControlPort { staging: Staging::default(), clock }
    }

    /// Applies a typed command to the table and horizon registers.
    ///
    /// `horizons` is the per-output-port horizon register file.
    ///
    /// # Errors
    ///
    /// See [`ControlError`].
    pub fn apply(
        &mut self,
        cmd: ControlCommand,
        table: &mut ConnectionTable,
        horizons: &mut [u32],
    ) -> Result<(), ControlError> {
        match cmd {
            ControlCommand::SetConnection { incoming, outgoing, delay, out_mask } => {
                table.install(incoming, ConnEntry { outgoing, delay, out_mask }, &self.clock)?;
                Ok(())
            }
            ControlCommand::ClearConnection { incoming } => {
                table.remove(incoming)?;
                Ok(())
            }
            ControlCommand::SetHorizon { port_mask: mask, horizon } => {
                port_mask(ControlReg::HorizonMask, u16::from(mask))?;
                if horizon >= self.clock.half_range() {
                    return Err(ControlError::HorizonTooLarge {
                        horizon,
                        max: self.clock.half_range() - 1,
                    });
                }
                for (i, h) in horizons.iter_mut().enumerate() {
                    if mask & (1 << i) != 0 {
                        *h = horizon;
                    }
                }
                Ok(())
            }
        }
    }

    /// Performs one word-level register write (the pin protocol of Table 3).
    ///
    /// Writes to staging registers return `Ok(None)`; writes to a commit
    /// register assemble and apply the staged command, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::RegisterOverflow`] for a mask with bits beyond
    /// the five ports, [`ControlError::IncompleteSequence`] if a commit
    /// register is written before all of its staging registers, or the
    /// underlying command's error.
    pub fn write(
        &mut self,
        reg: ControlReg,
        value: u16,
        table: &mut ConnectionTable,
        horizons: &mut [u32],
    ) -> Result<Option<ControlCommand>, ControlError> {
        match reg {
            ControlReg::OutConn => {
                self.staging.out_conn = Some(value);
                Ok(None)
            }
            ControlReg::Delay => {
                self.staging.delay = Some(value);
                Ok(None)
            }
            ControlReg::PortMask => {
                self.staging.port_mask = Some(port_mask(reg, value)?);
                Ok(None)
            }
            ControlReg::InConnCommit => {
                let (Some(out_conn), Some(delay), Some(mask)) =
                    (self.staging.out_conn, self.staging.delay, self.staging.port_mask)
                else {
                    return Err(ControlError::IncompleteSequence { reg });
                };
                self.staging.out_conn = None;
                self.staging.delay = None;
                self.staging.port_mask = None;
                let cmd = ControlCommand::SetConnection {
                    incoming: ConnectionId(value),
                    outgoing: ConnectionId(out_conn),
                    delay: u32::from(delay),
                    out_mask: mask,
                };
                self.apply(cmd, table, horizons)?;
                Ok(Some(cmd))
            }
            ControlReg::HorizonMask => {
                self.staging.horizon_mask = Some(port_mask(reg, value)?);
                Ok(None)
            }
            ControlReg::HorizonCommit => {
                let Some(mask) = self.staging.horizon_mask else {
                    return Err(ControlError::IncompleteSequence { reg });
                };
                self.staging.horizon_mask = None;
                let cmd = ControlCommand::SetHorizon { port_mask: mask, horizon: u32::from(value) };
                self.apply(cmd, table, horizons)?;
                Ok(Some(cmd))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn_table::TableError;
    use rtr_types::ids::PORT_COUNT;

    fn setup() -> (ControlPort, ConnectionTable, [u32; PORT_COUNT]) {
        (ControlPort::new(SlotClock::new(8)), ConnectionTable::new(16), [0; PORT_COUNT])
    }

    #[test]
    fn four_write_sequence_installs_connection() {
        let (mut port, mut table, mut horizons) = setup();
        assert_eq!(port.write(ControlReg::OutConn, 9, &mut table, &mut horizons).unwrap(), None);
        assert_eq!(port.write(ControlReg::Delay, 16, &mut table, &mut horizons).unwrap(), None);
        assert_eq!(
            port.write(ControlReg::PortMask, 0b10, &mut table, &mut horizons).unwrap(),
            None
        );
        let committed = port.write(ControlReg::InConnCommit, 3, &mut table, &mut horizons).unwrap();
        assert!(matches!(committed, Some(ControlCommand::SetConnection { .. })));
        let e = table.lookup(ConnectionId(3)).unwrap();
        assert_eq!(e.outgoing, ConnectionId(9));
        assert_eq!(e.delay, 16);
        assert_eq!(e.out_mask, 0b10);
    }

    #[test]
    fn two_write_sequence_sets_horizon_registers() {
        let (mut port, mut table, mut horizons) = setup();
        port.write(ControlReg::HorizonMask, 0b0_0110, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::HorizonCommit, 4, &mut table, &mut horizons).unwrap();
        assert_eq!(horizons, [0, 4, 4, 0, 0]);
    }

    #[test]
    fn premature_commit_is_rejected() {
        let (mut port, mut table, mut horizons) = setup();
        assert!(matches!(
            port.write(ControlReg::InConnCommit, 0, &mut table, &mut horizons),
            Err(ControlError::IncompleteSequence { reg: ControlReg::InConnCommit })
        ));
        assert!(matches!(
            port.write(ControlReg::HorizonCommit, 0, &mut table, &mut horizons),
            Err(ControlError::IncompleteSequence { reg: ControlReg::HorizonCommit })
        ));
    }

    #[test]
    fn staging_is_consumed_by_commit() {
        let (mut port, mut table, mut horizons) = setup();
        port.write(ControlReg::OutConn, 1, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::Delay, 2, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::PortMask, 1, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::InConnCommit, 0, &mut table, &mut horizons).unwrap();
        // A second commit without restaging must fail.
        assert!(port.write(ControlReg::InConnCommit, 1, &mut table, &mut horizons).is_err());
    }

    #[test]
    fn connection_and_horizon_sequences_interleave_safely() {
        // The two write sequences use disjoint staging registers, so the
        // controlling processor may interleave them (e.g. under interrupt).
        let (mut port, mut table, mut horizons) = setup();
        port.write(ControlReg::OutConn, 4, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::HorizonMask, 0b1, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::Delay, 7, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::HorizonCommit, 9, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::PortMask, 0b100, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::InConnCommit, 2, &mut table, &mut horizons).unwrap();
        assert_eq!(horizons[0], 9);
        let e = table.lookup(ConnectionId(2)).unwrap();
        assert_eq!((e.outgoing, e.delay, e.out_mask), (ConnectionId(4), 7, 0b100));
    }

    #[test]
    fn restaging_overwrites_previous_values() {
        let (mut port, mut table, mut horizons) = setup();
        port.write(ControlReg::OutConn, 1, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::OutConn, 9, &mut table, &mut horizons).unwrap(); // overwrite
        port.write(ControlReg::Delay, 3, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::PortMask, 0b10, &mut table, &mut horizons).unwrap();
        port.write(ControlReg::InConnCommit, 0, &mut table, &mut horizons).unwrap();
        assert_eq!(table.lookup(ConnectionId(0)).unwrap().outgoing, ConnectionId(9));
    }

    #[test]
    fn mask_registers_refuse_bits_beyond_the_five_ports() {
        let (mut port, mut table, mut horizons) = setup();
        // Bits 8–15 would vanish in a byte and bits 5–7 name no port: a
        // mask register refuses both, and nothing is staged to commit.
        for (reg, commit, mask) in [
            (ControlReg::PortMask, ControlReg::InConnCommit, 0x0102),
            (ControlReg::HorizonMask, ControlReg::HorizonCommit, 0x0100),
            (ControlReg::PortMask, ControlReg::InConnCommit, 0b10_0001),
        ] {
            port.write(ControlReg::OutConn, 1, &mut table, &mut horizons).unwrap();
            port.write(ControlReg::Delay, 2, &mut table, &mut horizons).unwrap();
            assert_eq!(
                port.write(reg, mask, &mut table, &mut horizons),
                Err(ControlError::RegisterOverflow { reg, value: u32::from(mask) })
            );
            assert_eq!(
                port.write(commit, 0, &mut table, &mut horizons),
                Err(ControlError::IncompleteSequence { reg: commit })
            );
        }
        // The typed horizon write refuses the same mask the pin path does,
        // rather than writing the five ports and dropping the rest.
        let reg = ControlReg::HorizonMask;
        assert_eq!(
            port.apply(
                ControlCommand::SetHorizon { port_mask: 0b10_0001, horizon: 3 },
                &mut table,
                &mut horizons
            ),
            Err(ControlError::RegisterOverflow { reg, value: 0b10_0001 })
        );
        assert_eq!((table.lookup(ConnectionId(0)), horizons), (None, [0; PORT_COUNT]));
    }

    #[test]
    fn typed_horizon_respects_rollover_limit() {
        let (mut port, mut table, mut horizons) = setup();
        let err = port
            .apply(
                ControlCommand::SetHorizon { port_mask: 1, horizon: 128 },
                &mut table,
                &mut horizons,
            )
            .unwrap_err();
        assert!(matches!(err, ControlError::HorizonTooLarge { horizon: 128, max: 127 }));
    }

    #[test]
    fn clear_connection_removes_entry() {
        let (mut port, mut table, mut horizons) = setup();
        port.apply(
            ControlCommand::SetConnection {
                incoming: ConnectionId(2),
                outgoing: ConnectionId(5),
                delay: 1,
                out_mask: 1,
            },
            &mut table,
            &mut horizons,
        )
        .unwrap();
        port.apply(
            ControlCommand::ClearConnection { incoming: ConnectionId(2) },
            &mut table,
            &mut horizons,
        )
        .unwrap();
        assert!(table.lookup(ConnectionId(2)).is_none());
    }

    #[test]
    fn table_errors_propagate_through_control() {
        let (mut port, mut table, mut horizons) = setup();
        let err = port
            .apply(
                ControlCommand::SetConnection {
                    incoming: ConnectionId(2),
                    outgoing: ConnectionId(5),
                    delay: 500,
                    out_mask: 1,
                },
                &mut table,
                &mut horizons,
            )
            .unwrap_err();
        assert!(matches!(err, ControlError::Table(TableError::DelayTooLarge { .. })));
    }
}
