//! Packet formats (paper §3, Figure 3).
//!
//! * **Time-constrained** packets are small and fixed-size: a one-byte
//!   connection identifier, the one-byte `ℓ(m) + d` timestamp, and 18 data
//!   bytes — 20 bytes total with the default configuration (Figure 3a).
//! * **Best-effort** packets are variable-length wormhole packets whose
//!   header carries the remaining x and y offsets to the destination plus a
//!   length field (Figure 3b).
//!
//! Both carry a [`PacketTrace`] — simulation-only provenance used for
//! statistics; it does not exist on the wire and the routers never base
//! decisions on it.

use std::sync::Arc;

use crate::clock::LogicalTime;
use crate::error::PacketDecodeError;
use crate::ids::{ConnectionId, NodeId, Port};
use crate::time::{Cycle, Slot};

/// A reference-counted, immutable packet payload.
///
/// Payload bytes never change once a packet is built, so every copy a
/// packet goes through — the shared memory slot, the link symbol, multicast
/// fan-out, the delivery log — shares one allocation and `clone` is a
/// refcount bump instead of a byte copy. Traffic sources additionally share
/// one payload template across every packet they inject.
///
/// Dereferences to `[u8]`, so slicing, indexing and iteration work as they
/// do on a `Vec<u8>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// The payload bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(bytes.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload(Arc::from(bytes))
    }
}

impl FromIterator<u8> for Payload {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Payload(iter.into_iter().collect())
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.0 == other[..]
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self[..] == *other.0
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        *self.0 == *other
    }
}

/// Simulation-only provenance attached to every packet.
///
/// Routers must never consult this; it exists so experiments can compute
/// end-to-end latency, deadline misses and per-connection statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PacketTrace {
    /// Node that injected the packet.
    pub source: NodeId,
    /// Intended final destination (for multicast, the trace of each copy is
    /// updated by the fan-out point).
    pub destination: NodeId,
    /// Per-source sequence number.
    pub sequence: u64,
    /// Cycle at which the source handed the packet to the router.
    pub injected_at: Cycle,
    /// Absolute (non-wrapping) logical arrival time at the source, in slots.
    /// Zero for best-effort packets.
    pub logical_arrival: Slot,
    /// Absolute end-to-end deadline in slots (`ℓ0(m) + D`). Zero (no
    /// deadline) for best-effort packets.
    pub deadline: Slot,
}

/// A fixed-size time-constrained packet (Figure 3a).
///
/// The `arrival` field is the wire timestamp: the transmitting router writes
/// its local deadline `ℓ(m) + d` there, which the downstream router reads as
/// the packet's logical arrival time `ℓ(m)` (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcPacket {
    /// Connection identifier valid at the *receiving* router's table.
    pub conn: ConnectionId,
    /// Logical arrival time at the receiving router (wrapped clock value).
    pub arrival: LogicalTime,
    /// Application payload (18 bytes in the default configuration).
    pub payload: Payload,
    /// Simulation-only provenance.
    pub trace: PacketTrace,
}

impl TcPacket {
    /// Total wire size in bytes: two header bytes plus the payload.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        2 + self.payload.len()
    }

    /// The index of the packet's last symbol — the continuation a link
    /// hands on and a reception completes on. One byte, like
    /// [`LinkSymbol::TcCont`](crate::flit::LinkSymbol::TcCont)'s index:
    /// `RouterConfig::validate` caps `slot_bytes` at 256, so it is at most 255.
    ///
    /// # Panics
    ///
    /// Panics for a packet longer than 256 bytes on the wire.
    #[must_use]
    pub fn last_index(&self) -> u8 {
        u8::try_from(self.wire_len() - 1).expect("a packet's last index fits its symbol's byte")
    }

    /// Encodes the packet in the paper's exact wire format: one byte of
    /// connection identifier, one byte of timestamp, then the payload.
    ///
    /// # Errors
    ///
    /// Returns [`PacketDecodeError::FieldOverflow`] if the connection
    /// identifier or timestamp does not fit the one-byte wire fields (only
    /// possible with configurations larger than the paper's chip).
    pub fn to_wire(&self) -> Result<Vec<u8>, PacketDecodeError> {
        let conn = u8::try_from(self.conn.0).map_err(|_| PacketDecodeError::FieldOverflow {
            field: "connection id",
            value: u32::from(self.conn.0),
        })?;
        let ts = u8::try_from(self.arrival.raw()).map_err(|_| {
            PacketDecodeError::FieldOverflow { field: "timestamp", value: self.arrival.raw() }
        })?;
        let mut bytes = Vec::with_capacity(self.wire_len());
        bytes.push(conn);
        bytes.push(ts);
        bytes.extend_from_slice(&self.payload);
        Ok(bytes)
    }

    /// Decodes a packet from the paper's wire format.
    ///
    /// The trace is zeroed: wire bytes carry no provenance.
    ///
    /// # Errors
    ///
    /// Returns [`PacketDecodeError::Truncated`] if fewer than two header
    /// bytes are present.
    pub fn from_wire(
        bytes: &[u8],
        clock: &crate::clock::SlotClock,
    ) -> Result<Self, PacketDecodeError> {
        if bytes.len() < 2 {
            return Err(PacketDecodeError::Truncated { needed: 2, got: bytes.len() });
        }
        Ok(TcPacket {
            conn: ConnectionId(u16::from(bytes[0])),
            arrival: clock.wrap(u64::from(bytes[1])),
            payload: Payload::from(&bytes[2..]),
            trace: PacketTrace::default(),
        })
    }
}

/// The best-effort packet header (Figure 3b): remaining x/y offsets and the
/// payload length.
///
/// Offsets are signed hop counts; dimension-ordered routing exhausts the x
/// offset before the y offset, and both reach zero at the destination (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BeHeader {
    /// Remaining hops in x (positive = towards +x).
    pub x_off: i8,
    /// Remaining hops in y (positive = towards +y).
    pub y_off: i8,
    /// Payload length in bytes (excludes the 4 header bytes).
    pub length: u16,
}

/// Number of wire bytes in a best-effort header.
pub const BE_HEADER_BYTES: usize = 4;

impl BeHeader {
    /// Encodes the header as 4 wire bytes.
    #[must_use]
    pub fn to_wire(self) -> [u8; BE_HEADER_BYTES] {
        let len = self.length.to_le_bytes();
        [self.x_off as u8, self.y_off as u8, len[0], len[1]]
    }

    /// Decodes a header from its 4 wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketDecodeError::Truncated`] if fewer than 4 bytes are
    /// given.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, PacketDecodeError> {
        if bytes.len() < BE_HEADER_BYTES {
            return Err(PacketDecodeError::Truncated { needed: BE_HEADER_BYTES, got: bytes.len() });
        }
        Ok(BeHeader {
            x_off: bytes[0] as i8,
            y_off: bytes[1] as i8,
            length: u16::from_le_bytes([bytes[2], bytes[3]]),
        })
    }

    /// The dimension-ordered routing decision for this header: the output
    /// port to take and the header to forward (with the consumed offset
    /// stepped towards zero).
    ///
    /// Routes completely in x before turning to y; a fully-zero offset pair
    /// means the packet has reached its destination ([`Port::Local`], header
    /// unchanged). This ordering is what makes the scheme deadlock-free in a
    /// square mesh (§3.3).
    #[must_use]
    pub fn dimension_ordered_step(self) -> (Port, BeHeader) {
        use crate::ids::Direction::*;
        if self.x_off > 0 {
            (Port::Dir(XPlus), BeHeader { x_off: self.x_off - 1, ..self })
        } else if self.x_off < 0 {
            (Port::Dir(XMinus), BeHeader { x_off: self.x_off + 1, ..self })
        } else if self.y_off > 0 {
            (Port::Dir(YPlus), BeHeader { y_off: self.y_off - 1, ..self })
        } else if self.y_off < 0 {
            (Port::Dir(YMinus), BeHeader { y_off: self.y_off + 1, ..self })
        } else {
            (Port::Local, self)
        }
    }
}

/// A variable-length best-effort packet (Figure 3b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BePacket {
    /// Routing header.
    pub header: BeHeader,
    /// Application payload.
    pub payload: Payload,
    /// Simulation-only provenance.
    pub trace: PacketTrace,
}

impl BePacket {
    /// Builds a packet, setting the header length from the payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the 16-bit length field.
    #[must_use]
    pub fn new(x_off: i8, y_off: i8, payload: impl Into<Payload>, trace: PacketTrace) -> Self {
        let payload = payload.into();
        let length = u16::try_from(payload.len()).expect("payload exceeds 16-bit length field");
        BePacket { header: BeHeader { x_off, y_off, length }, payload, trace }
    }

    /// Total wire size: header plus payload.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        BE_HEADER_BYTES + self.payload.len()
    }

    /// Encodes header and payload into wire bytes.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.wire_len());
        self.to_wire_into(&mut bytes);
        bytes
    }

    /// Encodes header and payload into a caller-supplied buffer (cleared
    /// first), so per-packet staging can reuse one allocation.
    pub fn to_wire_into(&self, bytes: &mut Vec<u8>) {
        bytes.clear();
        bytes.extend_from_slice(&self.header.to_wire());
        bytes.extend_from_slice(&self.payload);
    }

    /// Decodes a packet from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketDecodeError::Truncated`] if the bytes are shorter than
    /// the header, or [`PacketDecodeError::LengthMismatch`] if the length
    /// field disagrees with the byte count.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, PacketDecodeError> {
        let header = BeHeader::from_wire(bytes)?;
        let body = &bytes[BE_HEADER_BYTES..];
        if body.len() != usize::from(header.length) {
            return Err(PacketDecodeError::LengthMismatch {
                declared: header.length,
                got: body.len(),
            });
        }
        Ok(BePacket { header, payload: Payload::from(body), trace: PacketTrace::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SlotClock;
    use crate::ids::Direction;
    use proptest::prelude::*;

    fn trace() -> PacketTrace {
        PacketTrace {
            source: NodeId(1),
            destination: NodeId(2),
            sequence: 9,
            injected_at: 100,
            logical_arrival: 5,
            deadline: 25,
        }
    }

    #[test]
    fn tc_packet_is_20_bytes_with_default_config() {
        let p = TcPacket {
            conn: ConnectionId(7),
            arrival: SlotClock::new(8).wrap(42),
            payload: vec![0xAB; 18].into(),
            trace: trace(),
        };
        assert_eq!(p.wire_len(), 20);
        let wire = p.to_wire().unwrap();
        assert_eq!(wire.len(), 20);
        assert_eq!(wire[0], 7);
        assert_eq!(wire[1], 42);
    }

    #[test]
    fn tc_wire_round_trip() {
        let clock = SlotClock::new(8);
        let p = TcPacket {
            conn: ConnectionId(255),
            arrival: clock.wrap(255),
            payload: (0..18).collect(),
            trace: PacketTrace::default(),
        };
        let decoded = TcPacket::from_wire(&p.to_wire().unwrap(), &clock).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn tc_oversized_conn_id_fails_to_encode() {
        let p = TcPacket {
            conn: ConnectionId(256),
            arrival: SlotClock::new(8).wrap(0),
            payload: vec![].into(),
            trace: PacketTrace::default(),
        };
        assert!(matches!(
            p.to_wire(),
            Err(PacketDecodeError::FieldOverflow { field: "connection id", .. })
        ));
    }

    #[test]
    fn tc_truncated_decode_fails() {
        let clock = SlotClock::new(8);
        assert!(matches!(
            TcPacket::from_wire(&[1], &clock),
            Err(PacketDecodeError::Truncated { needed: 2, got: 1 })
        ));
    }

    #[test]
    fn be_header_round_trip() {
        let h = BeHeader { x_off: -3, y_off: 2, length: 513 };
        assert_eq!(BeHeader::from_wire(&h.to_wire()).unwrap(), h);
    }

    #[test]
    fn be_packet_round_trip() {
        let p = BePacket::new(1, -2, vec![9, 8, 7], trace());
        let mut q = BePacket::from_wire(&p.to_wire()).unwrap();
        q.trace = trace();
        assert_eq!(q, p);
    }

    #[test]
    fn be_length_mismatch_detected() {
        let mut wire = BePacket::new(0, 0, vec![1, 2, 3], PacketTrace::default()).to_wire();
        wire.pop();
        assert!(matches!(
            BePacket::from_wire(&wire),
            Err(PacketDecodeError::LengthMismatch { declared: 3, got: 2 })
        ));
    }

    #[test]
    fn dor_routes_x_before_y() {
        let h = BeHeader { x_off: 2, y_off: -1, length: 0 };
        let (p1, h1) = h.dimension_ordered_step();
        assert_eq!(p1, Port::Dir(Direction::XPlus));
        assert_eq!(h1.x_off, 1);
        let (p2, h2) = BeHeader { x_off: 0, y_off: -1, length: 0 }.dimension_ordered_step();
        assert_eq!(p2, Port::Dir(Direction::YMinus));
        assert_eq!(h2.y_off, 0);
        let (p3, _) = h2.dimension_ordered_step();
        assert_eq!(p3, Port::Local);
    }

    proptest! {
        /// Repeatedly applying the DOR step consumes exactly
        /// `|x| + |y|` hops and ends at the local port with zero offsets.
        #[test]
        fn dor_terminates_at_destination(x in -8i8..=8, y in -8i8..=8) {
            let mut h = BeHeader { x_off: x, y_off: y, length: 0 };
            let mut hops = 0u32;
            loop {
                let (port, next) = h.dimension_ordered_step();
                if port == Port::Local {
                    prop_assert_eq!(h.x_off, 0);
                    prop_assert_eq!(h.y_off, 0);
                    break;
                }
                // x must be exhausted before any y hop is taken.
                if matches!(port, Port::Dir(Direction::YPlus) | Port::Dir(Direction::YMinus)) {
                    prop_assert_eq!(h.x_off, 0);
                }
                h = next;
                hops += 1;
                prop_assert!(hops <= 32, "routing must terminate");
            }
            prop_assert_eq!(hops, x.unsigned_abs() as u32 + y.unsigned_abs() as u32);
        }

        /// Wire round-trips preserve every field for arbitrary payloads.
        #[test]
        fn be_wire_round_trip_arbitrary(x in any::<i8>(), y in any::<i8>(), payload in proptest::collection::vec(any::<u8>(), 0..256)) {
            let p = BePacket::new(x, y, payload, PacketTrace::default());
            prop_assert_eq!(BePacket::from_wire(&p.to_wire()).unwrap(), p);
        }
    }
}
