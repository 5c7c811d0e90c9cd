//! Link-level symbols and flow-control credits (paper §3.2).
//!
//! Each physical link is divided into two virtual channels: a packet-switched
//! channel for time-constrained traffic and a wormhole channel for
//! best-effort traffic, distinguished by a single bit on the link. The link
//! also carries an acknowledgement bit in the reverse direction for
//! best-effort flow control; the simulator models those acknowledgements
//! as `u16` credit counts on a dedicated reverse queue of each link.
//!
//! One [`LinkSymbol`] occupies the link for exactly one cycle (one byte
//! time). A 20-byte time-constrained packet therefore occupies 20 consecutive
//! symbol slots: a [`LinkSymbol::TcStart`] followed by 19
//! [`LinkSymbol::TcCont`] symbols. The simulator carries the full structured
//! packet on the start symbol (the remaining symbols are pure timing); the
//! byte-exact wire encodings of [`crate::packet`] exist so tests can confirm
//! the structured form is losslessly representable.

use crate::packet::{PacketTrace, TcPacket};

/// A single best-effort byte (flit) on the wormhole virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeByte {
    /// The data byte.
    pub byte: u8,
    /// Set on the first byte of a packet (start of the 4-byte header).
    pub head: bool,
    /// Set on the last byte of a packet.
    pub tail: bool,
    /// Simulation-only provenance, present on head bytes only; routers pass
    /// it through untouched and never consult it.
    pub trace: Option<PacketTrace>,
}

impl BeByte {
    /// A body (non-head, non-tail) byte.
    #[must_use]
    pub fn body(byte: u8) -> Self {
        BeByte { byte, head: false, tail: false, trace: None }
    }
}

/// One cycle's worth of payload on a unidirectional link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkSymbol {
    /// First byte of a time-constrained packet; carries the structured
    /// packet for the simulator's benefit.
    TcStart(Box<TcPacket>),
    /// Byte `index` (1-based) of the in-flight time-constrained packet.
    TcCont {
        /// Position within the packet, `1..wire_len`.
        index: u8,
    },
    /// One best-effort byte on the wormhole virtual channel.
    Be(BeByte),
}

impl LinkSymbol {
    /// Whether the symbol belongs to the time-constrained virtual channel.
    #[must_use]
    pub fn is_time_constrained(&self) -> bool {
        matches!(self, LinkSymbol::TcStart(_) | LinkSymbol::TcCont { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SlotClock;
    use crate::ids::ConnectionId;

    #[test]
    fn symbol_class_detection() {
        let packet = TcPacket {
            conn: ConnectionId(0),
            arrival: SlotClock::new(8).wrap(0),
            payload: vec![0; 18].into(),
            trace: PacketTrace::default(),
        };
        assert!(LinkSymbol::TcStart(Box::new(packet)).is_time_constrained());
        assert!(LinkSymbol::TcCont { index: 5 }.is_time_constrained());
        assert!(!LinkSymbol::Be(BeByte::body(0)).is_time_constrained());
    }

    #[test]
    fn body_bytes_carry_no_trace() {
        let b = BeByte::body(0xEE);
        assert!(!b.head && !b.tail && b.trace.is_none());
        assert_eq!(b.byte, 0xEE);
    }
}
