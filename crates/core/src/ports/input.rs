//! Input-port state machines (paper §3.1–§3.4).
//!
//! Each input port handles both virtual channels of its link:
//!
//! * **Time-constrained** symbols are reassembled into whole packets
//!   (store-and-forward); a completed packet enters the *arrival pipeline*
//!   and becomes schedulable after the header-lookup and memory-store
//!   latency.
//! * **Best-effort** bytes land in the small flit buffer. The port inspects
//!   the first two header bytes to make the dimension-ordered routing
//!   decision, rewrites the offset bytes, and marks each byte forwardable
//!   after the per-hop pipeline latency (synchronisation, header processing,
//!   five-byte chunk accumulation, bus grant — the `30 + b` overheads of
//!   §5.2). Flow control guarantees the flit buffer never overflows: the
//!   upstream transmitter spends a credit per byte and this port returns the
//!   credit when the byte leaves.

use std::collections::VecDeque;

use rtr_types::config::RouterConfig;
use rtr_types::flit::BeByte;
use rtr_types::ids::Port;
use rtr_types::packet::{BeHeader, PacketTrace, TcPacket};
use rtr_types::time::Cycle;

/// A best-effort byte that has been routed and is waiting in the flit
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct RoutedByte {
    /// Earliest cycle the byte may leave on an output link.
    pub ready_at: Cycle,
    /// The (possibly header-rewritten) byte.
    pub byte: BeByte,
    /// Output port the byte is routed to.
    pub out: Port,
}

/// What [`InputPort::accept_be`] did with a byte — all-zero in fault-free
/// runs. Fault-torn streams (a crashed receiver dropped symbols upstream,
/// a byzantine neighbour forged credits) are shed deliberately: every
/// dropped byte is reported so the caller can count it and refund its
/// upstream flow-control credit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BePush {
    /// Bytes destroyed (the incoming byte and/or a held header byte);
    /// each consumed an upstream credit that must be refunded.
    pub dropped: u8,
    /// A packet mid-stream lost its tail (the sink's reassembly will
    /// count it `be_malformed` when the length check fails).
    pub truncated: bool,
}

/// Partial arrivals cleared by [`InputPort::abort_partial`] (crash
/// recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortedRx {
    /// A time-constrained packet was mid-arrival and is abandoned.
    pub tc_aborted: bool,
    /// Held best-effort header bytes dropped (credits to refund).
    pub be_dropped: u8,
    /// A best-effort packet was streaming and is now truncated.
    pub be_truncated: bool,
}

/// Routing progress of the best-effort stream currently crossing this port.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum BeRoute {
    /// Waiting for a head byte.
    #[default]
    Idle,
    /// Got the x-offset byte; waiting for the y-offset to decide the route.
    GotX { x: u8, trace: Option<Box<PacketTrace>>, arrived: Cycle },
    /// Routing decision made; body bytes stream through.
    Streaming { out: Port },
}

/// The latencies and flit buffer all five input ports of a router share:
/// kept once per router and passed to the port methods that read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortTiming {
    /// Per-hop best-effort pipeline latency in cycles (sync + header + chunk
    /// + bus grant).
    pub pipeline_latency: u32,
    /// Latency from a time-constrained packet's last byte to it becoming
    /// schedulable (sync + header lookup + memory-store chunks).
    pub tc_store_latency: u32,
    /// Flit-buffer capacity in bytes.
    pub flit_capacity: u32,
}

impl PortTiming {
    /// The input ports of `config`'s datapath: the `30 + b` best-effort
    /// pipeline of §5.2, the header-lookup plus memory-store latency of the
    /// time-constrained path, and the flit buffer advertised upstream.
    /// Panics if one exceeds 32 bits (`RouterConfig::validate` bounds none).
    #[must_use]
    pub fn from_config(config: &RouterConfig) -> Self {
        let t = &config.timing;
        let narrow = |v: u64| u32::try_from(v).expect("a port latency or buffer exceeds 32 bits");
        let store_chunks = config.slot_bytes.div_ceil(config.memory_chunk_bytes) as u64;
        PortTiming {
            pipeline_latency: narrow(
                t.sync_cycles + t.header_cycles + config.chunk_bytes as u64 + t.bus_grant_cycles,
            ),
            tc_store_latency: narrow(
                t.sync_cycles + t.header_cycles + store_chunks * t.bus_grant_cycles,
            ),
            flit_capacity: narrow(config.be_path_bytes() as u64),
        }
    }
}

/// One of the router's five input ports; an arriving time-constrained
/// packet stays in the box its start symbol carried.
#[derive(Debug, Default)]
pub struct InputPort {
    /// Time-constrained packet currently arriving: the packet and the index
    /// of its last symbol, the one that completes it (the link hands the
    /// port nothing in between). `None` in the packet slot means the packet
    /// is cutting through (§7 virtual cut-through): its symbols only time
    /// the port, the output port already owns the packet.
    tc_rx: Option<(Option<Box<TcPacket>>, u8)>,
    /// Fully received packets waiting out the arrival pipeline.
    tc_pending: VecDeque<(Cycle, Box<TcPacket>)>,
    /// Routed best-effort bytes in the flit buffer.
    be_fifo: VecDeque<RoutedByte>,
    be_route: BeRoute,
}

impl InputPort {
    /// Bytes currently held on the best-effort channel (routed bytes plus a
    /// held header byte); bounded by the flit capacity via flow control.
    #[must_use]
    pub fn be_occupancy(&self) -> usize {
        self.be_fifo.len() + usize::from(matches!(self.be_route, BeRoute::GotX { .. }))
    }

    /// Accepts the first symbol of a time-constrained packet that will be
    /// buffered (store-and-forward).
    ///
    /// The link protocol never interleaves two time-constrained packets on
    /// one channel, but a crashed receiver can lose a packet's tail
    /// symbols upstream; a start arriving while a packet is still
    /// mid-arrival therefore abandons the torn predecessor. Returns `true`
    /// when that happened (the caller counts it).
    pub fn push_tc_start(&mut self, now: Cycle, packet: Box<TcPacket>, timing: PortTiming) -> bool {
        let truncated = self.tc_rx.take().is_some();
        let last = packet.last_index();
        if last == 0 {
            self.tc_pending.push_back((now + Cycle::from(timing.tc_store_latency), packet));
        } else {
            self.tc_rx = Some((Some(packet), last));
        }
        truncated
    }

    /// Accepts the first symbol of a packet that is *cutting through*, whose
    /// last symbol has index `last` ([`TcPacket::last_index`]): the
    /// remaining symbols only time the port and the packet never enters the
    /// arrival pipeline (the output port streams it directly).
    ///
    /// Returns `true` if a torn mid-arrival packet was abandoned (see
    /// [`Self::push_tc_start`]).
    pub fn push_tc_start_cut(&mut self, last: u8) -> bool {
        let truncated = self.tc_rx.take().is_some();
        if last > 0 {
            self.tc_rx = Some((None, last));
        }
        truncated
    }

    /// Accepts continuation symbol `index` of the in-flight time-constrained
    /// packet: the packet's last completes the reception (a link hands the
    /// port no other, but one in between is accepted and changes nothing).
    /// Returns `false` for an orphan continuation — its packet's head was
    /// destroyed by a fault upstream, or its reception was aborted — which
    /// is shed (the caller counts it).
    pub fn push_tc_cont(&mut self, now: Cycle, index: u8, timing: PortTiming) -> bool {
        let Some((_, last)) = self.tc_rx else {
            return false;
        };
        if index == last {
            if let Some((Some(packet), _)) = self.tc_rx.take() {
                self.tc_pending.push_back((now + Cycle::from(timing.tc_store_latency), packet));
            }
        }
        true
    }

    /// Clears partial arrivals on both virtual channels — the crash-restore
    /// path: a restored node's reassembly registers are undefined, so a
    /// mid-arrival time-constrained packet is abandoned and the best-effort
    /// route machine reset to hunt for the next head byte. Completed
    /// packets (the arrival pipeline, the flit buffer) are intact and keep
    /// flowing.
    pub fn abort_partial(&mut self) -> AbortedRx {
        let tc_aborted = self.tc_rx.take().is_some();
        let (be_dropped, be_truncated) = match self.be_route {
            BeRoute::Idle => (0, false),
            BeRoute::GotX { .. } => (1, false),
            BeRoute::Streaming { .. } => (0, true),
        };
        self.be_route = BeRoute::Idle;
        AbortedRx { tc_aborted, be_dropped, be_truncated }
    }

    /// Pops the next packet whose arrival pipeline has completed, if any.
    pub fn take_ready_tc(&mut self, now: Cycle) -> Option<Box<TcPacket>> {
        match self.tc_pending.front() {
            Some((ready_at, _)) if *ready_at <= now => self.tc_pending.pop_front().map(|(_, p)| p),
            _ => None,
        }
    }

    /// Accepts one best-effort byte from the link feeding this port. Bytes
    /// it had to shed (see [`BePush`]) consumed upstream credits, which are
    /// refunded into `credit_out`; the caller counts them.
    pub fn accept_be(
        &mut self,
        now: Cycle,
        byte: BeByte,
        credit_out: &mut u16,
        timing: PortTiming,
    ) -> BePush {
        let outcome = self.push_be(now, byte, timing);
        *credit_out += u16::from(outcome.dropped);
        outcome
    }

    /// Frames and routes one best-effort byte (from the link via
    /// [`Self::accept_be`], or from the local injector).
    ///
    /// With honest flow control and coherent links the returned [`BePush`]
    /// is all-zero. Faults break both assumptions — a byzantine neighbour
    /// can forge credits (overflow) and a crashed receiver upstream can
    /// tear frames (orphan fragments, missing tails, a head mid-stream) —
    /// so instead of asserting, the port sheds exactly the bytes it cannot
    /// frame and reports them for counting and credit refund.
    pub(super) fn push_be(&mut self, now: Cycle, byte: BeByte, timing: PortTiming) -> BePush {
        let mut outcome = BePush::default();
        if self.be_occupancy() >= timing.flit_capacity as usize {
            // Only reachable via forged credits: honest flow control never
            // sends into a full buffer. Shed the byte; if it was a tail,
            // resync the framer so the next packet starts clean.
            outcome.dropped = 1;
            if byte.tail {
                outcome.truncated = matches!(self.be_route, BeRoute::Streaming { .. });
                self.be_route = BeRoute::Idle;
            }
            return outcome;
        }
        // Taken, not copied: a held header byte owns its packet's trace.
        // Every arm leaves the state the byte moves the framer to.
        match std::mem::take(&mut self.be_route) {
            BeRoute::Idle => {
                if !byte.head || byte.tail {
                    // Orphan fragment of a torn packet (or a runt shorter
                    // than its 4 header bytes): shed it.
                    outcome.dropped = 1;
                    return outcome;
                }
                self.be_route = BeRoute::GotX { x: byte.byte, trace: byte.trace, arrived: now };
            }
            BeRoute::GotX { x, trace, arrived } => {
                if byte.head || byte.tail {
                    // The held x-offset belongs to a torn packet: shed it,
                    // then refeed the byte to the idle framer.
                    outcome.dropped = 1;
                    let refeed = self.push_be(now, byte, timing);
                    outcome.dropped += refeed.dropped;
                    return outcome;
                }
                let header = BeHeader { x_off: x as i8, y_off: byte.byte as i8, length: 0 };
                let (out, rewritten) = header.dimension_ordered_step();
                self.be_fifo.push_back(RoutedByte {
                    ready_at: arrived + Cycle::from(timing.pipeline_latency),
                    byte: BeByte { byte: rewritten.x_off as u8, head: true, tail: false, trace },
                    out,
                });
                self.be_fifo.push_back(RoutedByte {
                    ready_at: now + Cycle::from(timing.pipeline_latency),
                    byte: BeByte::body(rewritten.y_off as u8),
                    out,
                });
                self.be_route = BeRoute::Streaming { out };
            }
            BeRoute::Streaming { out } => {
                if byte.head {
                    // The streaming packet's tail was destroyed upstream:
                    // it is truncated (the sink's length check will flag
                    // it) and this byte starts the next packet.
                    outcome.truncated = true;
                    let refeed = self.push_be(now, byte, timing);
                    outcome.dropped += refeed.dropped;
                    return outcome;
                }
                if !byte.tail {
                    self.be_route = BeRoute::Streaming { out };
                }
                self.be_fifo.push_back(RoutedByte {
                    ready_at: now + Cycle::from(timing.pipeline_latency),
                    byte,
                    out,
                });
            }
        }
        outcome
    }

    /// Whether the byte at the head of the flit buffer is routed to `out`
    /// and ready to leave at `now`.
    #[must_use]
    pub(super) fn be_front_for(&self, out: Port, now: Cycle) -> Option<&RoutedByte> {
        self.be_fifo.front().filter(|b| b.out == out && b.ready_at <= now)
    }

    /// Removes and returns the head byte (after [`Self::be_front_for`]
    /// confirmed it). The caller must return one credit upstream.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub(super) fn pop_be(&mut self) -> RoutedByte {
        self.be_fifo.pop_front().expect("popping an empty flit buffer")
    }

    /// Whether a time-constrained packet is mid-arrival on this port. The
    /// port waits for the packet's last symbol, which its link hands it —
    /// an arrival, so a reception needs no wake of its own.
    #[must_use]
    pub fn tc_rx_active(&self) -> bool {
        self.tc_rx.is_some()
    }

    /// The cycle at which the oldest packet in the arrival pipeline becomes
    /// schedulable, if any.
    #[must_use]
    pub fn next_tc_ready(&self) -> Option<Cycle> {
        self.tc_pending.front().map(|(ready_at, _)| *ready_at)
    }

    /// The head byte of the flit buffer, regardless of readiness. A held
    /// header byte (an x-offset waiting for its y-offset) is frozen until
    /// the next link byte arrives, so it is not an event source.
    #[must_use]
    pub(super) fn be_head(&self) -> Option<&RoutedByte> {
        self.be_fifo.front()
    }

    /// Heap bytes behind the port's queues (allocated capacity) — zero
    /// until traffic first crosses the port. The boxed packets themselves
    /// are not followed: a port holds one for at most its wire length plus
    /// the store latency.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.tc_pending.capacity() * std::mem::size_of::<(Cycle, Box<TcPacket>)>()
            + self.be_fifo.capacity() * std::mem::size_of::<RoutedByte>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::clock::SlotClock;
    use rtr_types::ids::{ConnectionId, Direction};

    /// The timing every test port shares.
    const T: PortTiming =
        PortTiming { pipeline_latency: 10, tc_store_latency: 6, flit_capacity: 10 };

    fn tc_packet(payload_len: usize) -> Box<TcPacket> {
        Box::new(TcPacket {
            conn: ConnectionId(1),
            arrival: SlotClock::new(8).wrap(0),
            payload: vec![0xAA; payload_len].into(),
            trace: PacketTrace::default(),
        })
    }

    fn port() -> InputPort {
        InputPort::default()
    }

    #[test]
    fn tc_packet_ready_after_all_symbols_plus_store_latency() {
        let mut p = port();
        p.push_tc_start(100, tc_packet(18), T); // 20 symbols: cycles 100..=119
        for i in 1..20 {
            assert!(p.take_ready_tc(100 + i).is_none());
            p.push_tc_cont(100 + i, i as u8, T);
        }
        // Last symbol at cycle 119; ready at 119 + 6 = 125.
        assert!(p.take_ready_tc(124).is_none());
        assert!(p.take_ready_tc(125).is_some());
        assert!(p.take_ready_tc(126).is_none(), "only one packet");
    }

    #[test]
    fn a_reception_completes_on_its_last_symbol_alone() {
        // What a link hands the port: the head, then only the last of the
        // nineteen continuations.
        let mut p = port();
        p.push_tc_start(100, tc_packet(18), T);
        assert!(p.tc_rx_active());
        assert!(p.push_tc_cont(119, 19, T));
        assert!(!p.tc_rx_active());
        assert!(p.take_ready_tc(124).is_none());
        assert!(p.take_ready_tc(125).is_some(), "ready at 119 + 6, as if fed every symbol");
    }

    #[test]
    fn be_header_rewrite_and_routing() {
        let mut p = port();
        // Packet with x_off = +2, y_off = -1, length 1: bytes
        // [2, 0xFF, 1, 0, payload].
        p.push_be(0, BeByte { byte: 2, head: true, tail: false, trace: None }, T);
        p.push_be(1, BeByte::body(0xFF), T);
        p.push_be(2, BeByte::body(1), T);
        p.push_be(3, BeByte::body(0), T);
        p.push_be(4, BeByte { byte: 0x55, head: false, tail: true, trace: None }, T);
        assert_eq!(p.be_occupancy(), 5);

        // Routed towards +x with x offset decremented to 1.
        let front = p.be_front_for(Port::Dir(Direction::XPlus), 100).unwrap();
        assert!(front.byte.head);
        assert_eq!(front.byte.byte, 1);
        assert_eq!(front.ready_at, 10);

        let bytes: Vec<u8> = (0..5).map(|_| p.pop_be().byte.byte).collect();
        assert_eq!(bytes, vec![1, 0xFF, 1, 0, 0x55]);
        assert_eq!(p.be_occupancy(), 0);
    }

    #[test]
    fn be_zero_offsets_route_to_local() {
        let mut p = port();
        p.push_be(0, BeByte { byte: 0, head: true, tail: false, trace: None }, T);
        p.push_be(1, BeByte::body(0), T);
        assert!(p.be_front_for(Port::Local, 11).is_some());
    }

    #[test]
    fn be_y_routing_after_x_exhausted() {
        let mut p = port();
        p.push_be(0, BeByte { byte: 0, head: true, tail: false, trace: None }, T);
        p.push_be(1, BeByte::body(0xFE), T); // y_off = -2
        let front = p.be_front_for(Port::Dir(Direction::YMinus), 11).unwrap();
        assert_eq!(front.byte.byte, 0, "x offset unchanged at 0");
        p.pop_be();
        assert_eq!(p.pop_be().byte.byte, 0xFF, "y offset stepped from -2 to -1");
    }

    #[test]
    fn bytes_not_ready_before_pipeline_latency() {
        let mut p = port();
        p.push_be(50, BeByte { byte: 1, head: true, tail: false, trace: None }, T);
        p.push_be(51, BeByte::body(0), T);
        assert!(p.be_front_for(Port::Dir(Direction::XPlus), 59).is_none());
        assert!(p.be_front_for(Port::Dir(Direction::XPlus), 60).is_some());
    }

    #[test]
    fn occupancy_counts_held_header_byte() {
        let mut p = port();
        assert_eq!(p.be_occupancy(), 0);
        p.push_be(0, BeByte { byte: 1, head: true, tail: false, trace: None }, T);
        assert_eq!(p.be_occupancy(), 1, "held x byte counts");
    }

    #[test]
    fn overflow_sheds_bytes_instead_of_panicking() {
        let mut p = port();
        let two = PortTiming { flit_capacity: 2, ..T };
        assert_eq!(
            p.push_be(0, BeByte { byte: 1, head: true, tail: false, trace: None }, two),
            BePush::default()
        );
        assert_eq!(p.push_be(1, BeByte::body(0), two), BePush::default());
        // Forged credits pushed a third byte into a 2-byte buffer: shed.
        assert_eq!(p.push_be(2, BeByte::body(0), two), BePush { dropped: 1, truncated: false });
        assert_eq!(p.be_occupancy(), 2, "buffer never exceeds capacity");
    }

    #[test]
    fn interleaved_tc_start_abandons_the_torn_packet() {
        let mut p = port();
        assert!(!p.push_tc_start(0, tc_packet(18), T));
        // The first packet's remaining symbols were destroyed upstream; a
        // new start abandons it and the new packet arrives whole.
        assert!(p.push_tc_start(1, tc_packet(18), T), "torn predecessor reported");
        for i in 2..21 {
            assert!(p.push_tc_cont(i, (i - 1) as u8, T));
        }
        assert!(p.take_ready_tc(20 + 6).is_some(), "successor unharmed");
        assert!(p.take_ready_tc(10_000).is_none(), "torn packet never surfaces");
    }

    #[test]
    fn orphan_tc_continuation_is_shed() {
        let mut p = port();
        assert!(!p.push_tc_cont(5, 19, T), "continuation without a start reported");
        assert!(!p.tc_rx_active());
    }

    #[test]
    fn orphan_be_fragments_are_shed_until_the_next_head() {
        let mut p = port();
        // Head lost upstream: body/tail fragments shed one by one.
        assert_eq!(p.push_be(0, BeByte::body(9), T), BePush { dropped: 1, truncated: false });
        assert_eq!(
            p.push_be(1, BeByte { byte: 3, head: false, tail: true, trace: None }, T),
            BePush { dropped: 1, truncated: false }
        );
        assert_eq!(p.be_occupancy(), 0);
        // The next complete packet frames normally.
        p.push_be(2, BeByte { byte: 1, head: true, tail: false, trace: None }, T);
        p.push_be(3, BeByte::body(0), T);
        assert_eq!(p.be_occupancy(), 2);
    }

    #[test]
    fn head_mid_stream_truncates_and_starts_the_next_packet() {
        let mut p = port();
        p.push_be(0, BeByte { byte: 1, head: true, tail: false, trace: None }, T);
        p.push_be(1, BeByte::body(0), T);
        p.push_be(2, BeByte::body(2), T);
        // Tail destroyed upstream; the next packet's head arrives while
        // streaming: predecessor truncated, successor accepted.
        let outcome = p.push_be(3, BeByte { byte: 0, head: true, tail: false, trace: None }, T);
        assert_eq!(outcome, BePush { dropped: 0, truncated: true });
        p.push_be(4, BeByte::body(0), T);
        // Both the truncated front and the new packet occupy the buffer.
        assert_eq!(p.be_occupancy(), 5);
    }

    #[test]
    fn abort_partial_clears_both_channels() {
        let mut p = port();
        p.push_tc_start(0, tc_packet(18), T);
        p.push_be(0, BeByte { byte: 1, head: true, tail: false, trace: None }, T);
        let aborted = p.abort_partial();
        assert_eq!(aborted, AbortedRx { tc_aborted: true, be_dropped: 1, be_truncated: false });
        assert!(!p.tc_rx_active(), "port leaps again after the abort");
        assert_eq!(p.be_occupancy(), 0);
        // Streaming abort reports the truncation instead of a held byte.
        p.push_be(2, BeByte { byte: 1, head: true, tail: false, trace: None }, T);
        p.push_be(3, BeByte::body(0), T);
        let aborted = p.abort_partial();
        assert_eq!(aborted, AbortedRx { tc_aborted: false, be_dropped: 0, be_truncated: true });
    }

    #[test]
    fn cut_through_packets_are_consumed_but_not_enqueued() {
        let mut p = port();
        p.push_tc_start_cut(19);
        for i in 1..20 {
            p.push_tc_cont(i, i as u8, T);
        }
        assert!(p.take_ready_tc(10_000).is_none(), "cut packets bypass the pipeline");
        // The channel is free again for a buffered packet.
        p.push_tc_start(100, tc_packet(18), T);
        for i in 1..20 {
            p.push_tc_cont(100 + i, i as u8, T);
        }
        assert!(p.take_ready_tc(100 + 19 + 6).is_some());
    }

    proptest::proptest! {
        /// Arbitrary sequences of best-effort packets (random payload
        /// sizes and offsets) stream through the flit buffer with framing,
        /// routing, and byte order intact.
        #[test]
        fn be_framing_fuzz(
            packets in proptest::collection::vec(
                (proptest::collection::vec(proptest::prelude::any::<u8>(), 0..12), -3i8..=3, -3i8..=3),
                1..4,
            )
        ) {
            use rtr_types::packet::BePacket;
            // Capacity 64 ≥ 3 packets × (4 header + 12 payload) bytes, so
            // the whole sequence fits without draining.
            let mut port = InputPort::default();
            let timing = PortTiming { flit_capacity: 64, ..T };
            let mut now: Cycle = 0;
            let mut expected: Vec<(Port, Vec<u8>)> = Vec::new();
            for (payload, x, y) in &packets {
                let packet = BePacket::new(*x, *y, payload.clone(), PacketTrace::default());
                let (out, stepped) = packet.header.dimension_ordered_step();
                expected.push((
                    out,
                    BePacket {
                        header: BeHeader { length: packet.header.length, ..stepped },
                        ..packet.clone()
                    }
                    .to_wire(),
                ));
                let wire = packet.to_wire();
                for (i, b) in wire.iter().enumerate() {
                    port.push_be(now, BeByte {
                        byte: *b,
                        head: i == 0,
                        tail: i == wire.len() - 1,
                        trace: None,
                    }, timing);
                    now += 1;
                }
            }
            // Drain everything and reassemble per packet.
            let mut streams: Vec<(Port, Vec<u8>)> = Vec::new();
            while port.be_occupancy() > 0 {
                let routed = port.pop_be();
                if routed.byte.head {
                    streams.push((routed.out, vec![routed.byte.byte]));
                } else {
                    let last = streams.last_mut().expect("head byte first");
                    proptest::prop_assert_eq!(last.0, routed.out, "route sticky per packet");
                    last.1.push(routed.byte.byte);
                }
            }
            proptest::prop_assert_eq!(&streams, &expected);
        }
    }

    #[test]
    fn back_to_back_be_packets_queue_in_order() {
        let mut p = port();
        // First packet to +x (1 payload byte), second to local.
        for (i, b) in [
            BeByte { byte: 1, head: true, tail: false, trace: None },
            BeByte::body(0),
            BeByte::body(1),
            BeByte::body(0),
            BeByte { byte: 0xA1, head: false, tail: true, trace: None },
        ]
        .into_iter()
        .enumerate()
        {
            p.push_be(i as Cycle, b, T);
        }
        for (i, b) in [
            BeByte { byte: 0, head: true, tail: false, trace: None },
            BeByte::body(0),
            BeByte::body(0),
            BeByte { byte: 0, head: false, tail: true, trace: None },
        ]
        .into_iter()
        .enumerate()
        {
            p.push_be(5 + i as Cycle, b, T);
        }
        // Head-of-line: the local-bound packet waits behind the +x packet.
        assert!(p.be_front_for(Port::Local, 1000).is_none());
        for _ in 0..5 {
            assert_eq!(p.pop_be().out, Port::Dir(Direction::XPlus));
        }
        assert!(p.be_front_for(Port::Local, 1000).is_some());
    }
}
