//! The per-router connection table (paper §3.3, §4.1).
//!
//! Establishing a real-time channel writes, at every node of the route, an
//! entry indexed by the *incoming* connection identifier. The entry holds the
//! channel's local delay bound `d`, the bit mask of output ports the packet
//! fans out to (multicast uses several bits, and the same `d` for all of
//! them), and the connection identifier the packet will carry to the next
//! hop.

use rtr_types::ids::ConnectionId;
use rtr_types::SlotClock;

pub use rtr_types::control::TableError;

/// One connection-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnEntry {
    /// Connection identifier written into the packet header for the next
    /// hop (§4.1: "assigns a new connection identifier for use at the next
    /// node in the packet's route").
    pub outgoing: ConnectionId,
    /// Local delay bound `d` in slots; the packet's local deadline is
    /// `ℓ(m) + d`.
    pub delay: u32,
    /// Bit mask of output ports to forward to (multicast sets several bits).
    pub out_mask: u8,
}

/// One row of a [`ConnectionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    /// Never written, or cleared while it held no entry.
    Empty,
    Live(ConnEntry),
    /// Cleared while live: the teardown tombstone. A packet still arriving
    /// for it is an accounted teardown abort, not a routing error, until an
    /// install recycles the identifier.
    TornDown,
}

/// The table of per-connection routing and scheduling state.
///
/// Rows are sized by use: the table holds rows up to the highest
/// identifier ever written to it, and an identifier past them reads as
/// empty, so an unprogrammed router's table holds no heap at all.
#[derive(Debug, Clone)]
pub struct ConnectionTable {
    rows: Vec<Row>,
    /// Identifiers the table accepts (256 on the paper's chip).
    capacity: usize,
}

impl ConnectionTable {
    /// Creates an empty table with `capacity` entries (256 on the paper's
    /// chip).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ConnectionTable { rows: Vec::new(), capacity }
    }

    /// Looks up the entry for an arriving packet's connection identifier.
    #[must_use]
    pub fn lookup(&self, conn: ConnectionId) -> Option<ConnEntry> {
        match self.rows.get(conn.index()) {
            Some(&Row::Live(entry)) => Some(entry),
            _ => None,
        }
    }

    /// Whether `conn`'s entry was removed while live and not reinstalled
    /// since (its packets still in flight are teardown aborts).
    #[must_use]
    pub fn is_torn_down(&self, conn: ConnectionId) -> bool {
        self.rows.get(conn.index()) == Some(&Row::TornDown)
    }

    /// Installs (or overwrites) the entry for `incoming`, validating the
    /// §4.3 constraints against the router's clock. Installing lifts a
    /// teardown tombstone, so a recycled identifier starts clean.
    ///
    /// # Errors
    ///
    /// See [`TableError`].
    pub fn install(
        &mut self,
        incoming: ConnectionId,
        entry: ConnEntry,
        clock: &SlotClock,
    ) -> Result<(), TableError> {
        if incoming.index() >= self.capacity {
            return Err(TableError::BadIndex { conn: incoming, capacity: self.capacity });
        }
        if entry.delay >= clock.half_range() {
            return Err(TableError::DelayTooLarge {
                delay: entry.delay,
                max: clock.half_range() - 1,
            });
        }
        if entry.out_mask & !0b1_1111 != 0 {
            return Err(TableError::BadMask { mask: entry.out_mask });
        }
        if self.rows.len() <= incoming.index() {
            self.rows.resize(incoming.index() + 1, Row::Empty);
        }
        self.rows[incoming.index()] = Row::Live(entry);
        Ok(())
    }

    /// Removes the entry for `incoming` (connection teardown), leaving a
    /// tombstone in its row. Returns the removed entry, if any; removing
    /// an absent entry changes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::BadIndex`] if the identifier exceeds the table.
    pub fn remove(&mut self, incoming: ConnectionId) -> Result<Option<ConnEntry>, TableError> {
        if incoming.index() >= self.capacity {
            return Err(TableError::BadIndex { conn: incoming, capacity: self.capacity });
        }
        let Some(row) = self.rows.get_mut(incoming.index()) else {
            return Ok(None);
        };
        let Row::Live(entry) = *row else {
            return Ok(None);
        };
        *row = Row::TornDown;
        Ok(Some(entry))
    }

    /// Heap bytes behind the rows (allocated capacity).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Row>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::ids::{Direction, Port};

    fn clock() -> SlotClock {
        SlotClock::new(8)
    }

    fn entry(delay: u32, mask: u8) -> ConnEntry {
        ConnEntry { outgoing: ConnectionId(9), delay, out_mask: mask }
    }

    #[test]
    fn install_lookup_remove_round_trip() {
        let mut t = ConnectionTable::new(256);
        assert_eq!(t.lookup(ConnectionId(3)), None);
        let e = entry(16, Port::Dir(Direction::XPlus).mask());
        t.install(ConnectionId(3), e, &clock()).unwrap();
        assert_eq!(t.lookup(ConnectionId(3)), Some(e));
        assert_eq!(t.lookup(ConnectionId(4)), None);
        assert_eq!(t.remove(ConnectionId(3)).unwrap(), Some(e));
        assert_eq!(t.lookup(ConnectionId(3)), None);
    }

    #[test]
    fn rollover_constraint_enforced() {
        let mut t = ConnectionTable::new(256);
        // d = 127 is the largest admissible under an 8-bit clock.
        assert!(t.install(ConnectionId(0), entry(127, 1), &clock()).is_ok());
        assert_eq!(
            t.install(ConnectionId(0), entry(128, 1), &clock()),
            Err(TableError::DelayTooLarge { delay: 128, max: 127 })
        );
    }

    #[test]
    fn bad_index_and_mask_rejected() {
        let mut t = ConnectionTable::new(4);
        assert!(matches!(
            t.install(ConnectionId(4), entry(1, 1), &clock()),
            Err(TableError::BadIndex { .. })
        ));
        assert!(matches!(
            t.install(ConnectionId(0), entry(1, 0b10_0000), &clock()),
            Err(TableError::BadMask { mask: 0b10_0000 })
        ));
        assert!(matches!(t.remove(ConnectionId(9)), Err(TableError::BadIndex { .. })));
    }

    #[test]
    fn multicast_masks_accepted() {
        let mut t = ConnectionTable::new(8);
        let mask = Port::Dir(Direction::XPlus).mask()
            | Port::Dir(Direction::YMinus).mask()
            | Port::Local.mask();
        t.install(ConnectionId(1), entry(5, mask), &clock()).unwrap();
        assert_eq!(t.lookup(ConnectionId(1)).unwrap().out_mask, mask);
    }

    #[test]
    fn a_template_built_table_holds_no_heap() {
        use crate::control::ControlCommand;
        use crate::router::RouterTemplate;
        use rtr_types::chip::Chip;
        let config = rtr_types::RouterConfig { connections: 65_536, ..Default::default() };
        let template = RouterTemplate::new(config).unwrap();
        let (mut a, b) = (template.build(), template.build());
        assert_eq!(a.connection_table().heap_bytes(), 0);
        // Clears of absent entries anywhere in range write nothing.
        let last = ConnectionId(u16::MAX);
        a.apply_control(ControlCommand::ClearConnection { incoming: last }).unwrap();
        assert_eq!(a.connection_table().heap_bytes(), 0);
        // A write grows the rows to the identifier written, not the table.
        let (incoming, outgoing) = (ConnectionId(2), ConnectionId(2));
        a.apply_control(ControlCommand::SetConnection {
            incoming,
            outgoing,
            delay: 6,
            out_mask: 1,
        })
        .unwrap();
        let rows = a.connection_table().rows.len();
        assert!(rows == 3 && a.connection_table().heap_bytes() < 256, "{rows} rows");
        assert_eq!(b.connection_table().lookup(incoming), None, "a sibling stays empty");
    }

    #[test]
    fn clearing_a_live_row_tombstones_it_until_reinstalled() {
        let mut t = ConnectionTable::new(8);
        let e = entry(5, 1);
        t.install(ConnectionId(1), e, &clock()).unwrap();
        assert_eq!(t.remove(ConnectionId(1)).unwrap(), Some(e));
        assert!(t.is_torn_down(ConnectionId(1)));
        assert_eq!(t.lookup(ConnectionId(1)), None);
        // A second clear finds nothing and keeps the tombstone.
        assert_eq!(t.remove(ConnectionId(1)).unwrap(), None);
        assert!(t.is_torn_down(ConnectionId(1)));
        // Clearing an absent row, written or not, leaves no tombstone.
        assert_eq!(t.remove(ConnectionId(0)).unwrap(), None);
        assert_eq!(t.remove(ConnectionId(6)).unwrap(), None);
        assert!(!t.is_torn_down(ConnectionId(0)) && !t.is_torn_down(ConnectionId(6)));
        // A failed install leaves the tombstone; a good one lifts it.
        assert!(t.install(ConnectionId(1), entry(500, 1), &clock()).is_err());
        assert!(t.is_torn_down(ConnectionId(1)));
        t.install(ConnectionId(1), e, &clock()).unwrap();
        assert!(!t.is_torn_down(ConnectionId(1)));
        assert_eq!(t.lookup(ConnectionId(1)), Some(e));
    }

    #[test]
    fn overwrite_replaces_entry() {
        let mut t = ConnectionTable::new(8);
        t.install(ConnectionId(5), entry(1, 1), &clock()).unwrap();
        t.install(ConnectionId(5), entry(2, 2), &clock()).unwrap();
        assert_eq!(t.lookup(ConnectionId(5)).unwrap().delay, 2);
        assert_eq!(t.rows.len(), 6, "one row per identifier up to the highest written");
    }
}
