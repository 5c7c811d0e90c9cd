//! A store-and-forward FIFO router (baseline; the §3.1 strawman).
//!
//! Every packet — both classes — is fully buffered at each hop, then queued
//! FIFO at its output port and retransmitted. This is the design the paper
//! contrasts wormhole switching against: per-hop latency grows by the full
//! packet length, and intermediate nodes need whole-packet buffers (this
//! model advertises a large input buffer so long packets fit).

use std::collections::VecDeque;

use rtr_core::conn_table::ConnectionTable;
use rtr_core::ports::{BeReassembler, Serialiser};
use rtr_types::chip::{Chip, ChipIo};
use rtr_types::clock::SlotClock;
use rtr_types::config::RouterConfig;
use rtr_types::control::{ControlCommand, ControlError};
use rtr_types::error::ConfigError;
use rtr_types::flit::{BeByte, LinkSymbol};
use rtr_types::ids::{Port, PORT_COUNT};
use rtr_types::packet::{BeHeader, BePacket, TcPacket};
use rtr_types::time::Cycle;

/// A packet queued at an output port.
#[derive(Debug, Clone)]
enum Queued {
    Tc(TcPacket),
    Be(BePacket),
}

/// A transmission in progress.
#[derive(Debug)]
struct InFlight {
    packet: Queued,
    wire: Vec<u8>,
    sent: usize,
}

/// Counters for the store-and-forward baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoSfStats {
    /// Packets transmitted per output port (both classes).
    pub transmitted: [u64; PORT_COUNT],
    /// Packets delivered locally (both classes).
    pub delivered: u64,
    /// Packets dropped (no table entry or malformed).
    pub dropped: u64,
}

/// The store-and-forward FIFO baseline router.
#[derive(Debug)]
pub struct FifoSfRouter {
    config: RouterConfig,
    clock: SlotClock,
    table: ConnectionTable,
    input_buffer_bytes: usize,
    /// Per-hop processing latency applied after full reception.
    hop_latency: Cycle,
    /// Time-constrained reassembly per input: the packet and the index of
    /// its last symbol, the one its link hands on to complete it.
    tc_rx: [Option<(TcPacket, u8)>; PORT_COUNT],
    be_rx: [BeReassembler; PORT_COUNT],
    /// Packets waiting out the hop latency before queueing: (ready, port
    /// mask or DOR target, packet).
    pending: VecDeque<(Cycle, Queued)>,
    queues: [VecDeque<Queued>; PORT_COUNT],
    tx: [Option<InFlight>; PORT_COUNT],
    credits: [u32; PORT_COUNT],
    /// Pacing of the two injection ports (one byte per cycle per class,
    /// like the other routers).
    tc_inject: Serialiser,
    be_inject: Serialiser,
    stats: FifoSfStats,
}

impl FifoSfRouter {
    /// Builds a store-and-forward router. Inputs buffer whole packets, so
    /// the advertised flit buffer is `input_buffer_bytes` (default 4096).
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: RouterConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let t = &config.timing;
        let hop_latency = t.sync_cycles + t.header_cycles + t.bus_grant_cycles;
        Ok(FifoSfRouter {
            clock: SlotClock::new(config.clock_bits),
            table: ConnectionTable::new(config.connections),
            input_buffer_bytes: 4096,
            hop_latency,
            tc_rx: Default::default(),
            be_rx: Default::default(),
            pending: VecDeque::new(),
            queues: std::array::from_fn(|_| VecDeque::new()),
            tx: Default::default(),
            credits: [4096; PORT_COUNT],
            tc_inject: Serialiser::default(),
            be_inject: Serialiser::default(),
            stats: FifoSfStats::default(),
            config,
        })
    }

    /// Statistics counters.
    #[must_use]
    pub fn stats(&self) -> &FifoSfStats {
        &self.stats
    }

    /// The router's architectural parameters.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    fn finish_tc_rx(&mut self, now: Cycle, packet: TcPacket) {
        self.pending.push_back((now + self.hop_latency, Queued::Tc(packet)));
    }

    fn ingest_be_byte(&mut self, now: Cycle, idx: usize, byte: BeByte) {
        match self.be_rx[idx].push(byte) {
            Some(Ok(packet)) => {
                self.pending.push_back((now + self.hop_latency, Queued::Be(packet)));
            }
            Some(Err(_)) => self.stats.dropped += 1,
            None => {}
        }
    }

    fn route_pending(&mut self, now: Cycle) {
        while let Some((ready, _)) = self.pending.front() {
            if *ready > now {
                break;
            }
            let (_, queued) = self.pending.pop_front().unwrap();
            match queued {
                Queued::Tc(packet) => {
                    let Some(entry) = self.table.lookup(packet.conn) else {
                        self.stats.dropped += 1;
                        continue;
                    };
                    let rewritten = TcPacket { conn: entry.outgoing, ..packet };
                    for port in rtr_types::ids::ports_in_mask(entry.out_mask) {
                        self.queues[port.index()].push_back(Queued::Tc(rewritten.clone()));
                    }
                }
                Queued::Be(packet) => {
                    let (port, header) = packet.header.dimension_ordered_step();
                    let stepped = BePacket {
                        header: BeHeader { length: packet.header.length, ..header },
                        ..packet
                    };
                    self.queues[port.index()].push_back(Queued::Be(stepped));
                }
            }
        }
    }

    fn drive_output(&mut self, now: Cycle, out_idx: usize, io: &mut ChipIo) {
        if self.tx[out_idx].is_none() {
            if let Some(next) = self.queues[out_idx].pop_front() {
                // Best-effort transmissions respect downstream buffering.
                if let (Queued::Be(p), true) = (&next, out_idx != 0) {
                    let len = p.wire_len() as u32;
                    if self.credits[out_idx] < len {
                        self.queues[out_idx].push_front(next);
                        return;
                    }
                    self.credits[out_idx] -= len;
                }
                let wire = match &next {
                    Queued::Tc(p) => p.to_wire().unwrap_or_default(),
                    Queued::Be(p) => p.to_wire(),
                };
                self.stats.transmitted[out_idx] += 1;
                self.tx[out_idx] = Some(InFlight { packet: next, wire, sent: 0 });
            } else {
                return;
            }
        }
        let inflight = self.tx[out_idx].as_mut().expect("transmission just ensured");
        let pos = inflight.sent;
        let last = pos == inflight.wire.len() - 1;
        if out_idx != 0 {
            io.tx[out_idx] = match &inflight.packet {
                // The link emits a time-constrained packet's continuations.
                Queued::Tc(p) => (pos == 0).then(|| LinkSymbol::TcStart(Box::new(p.clone()))),
                Queued::Be(p) => Some(LinkSymbol::Be(BeByte {
                    byte: inflight.wire[pos],
                    head: pos == 0,
                    tail: last,
                    trace: (pos == 0).then(|| Box::new(p.trace)),
                })),
            };
        }
        inflight.sent += 1;
        if last {
            let done = self.tx[out_idx].take().unwrap();
            if out_idx == 0 {
                self.stats.delivered += 1;
                match done.packet {
                    Queued::Tc(p) => io.delivered_tc.push((now, p)),
                    Queued::Be(p) => io.delivered_be.push((now, p)),
                }
            }
        }
    }
}

impl Chip for FifoSfRouter {
    fn tick(&mut self, now: Cycle, io: &mut ChipIo) {
        for idx in 0..PORT_COUNT {
            self.credits[idx] += u32::from(io.credit_in[idx]);
        }
        for idx in 1..PORT_COUNT {
            if let Some(symbol) = io.rx[idx].take() {
                match symbol {
                    LinkSymbol::TcStart(packet) => {
                        let last = packet.last_index();
                        if last == 0 {
                            self.finish_tc_rx(now, *packet);
                        } else {
                            self.tc_rx[idx] = Some((*packet, last));
                        }
                    }
                    LinkSymbol::TcCont { index } => {
                        if self.tc_rx[idx].as_ref().is_some_and(|(_, last)| *last == index) {
                            let (packet, _) = self.tc_rx[idx].take().expect("just checked");
                            self.finish_tc_rx(now, packet);
                        }
                    }
                    LinkSymbol::Be(byte) => {
                        let was_tail = byte.tail;
                        let len_hint = self.be_rx[idx].buffered() as u16 + 1;
                        self.ingest_be_byte(now, idx, byte);
                        if was_tail {
                            // Free the whole packet's worth of buffer.
                            io.credit_out[idx] += len_hint;
                        }
                    }
                }
            }
        }
        // Injection: model the serial transfer, then hand the whole packet over
        // (the best-effort port frees up a cycle early; the recorded rows pin it).
        if self.tc_inject.step().is_none() {
            if let Some(packet) = io.inject_tc.pop_front() {
                let remaining = packet.wire_len() - 1;
                self.tc_inject.begin(packet.wire_len());
                self.pending
                    .push_back((now + remaining as Cycle + self.hop_latency, Queued::Tc(packet)));
            }
        }
        if self.be_inject.step().is_none() {
            if let Some(packet) = io.inject_be.pop_front() {
                let remaining = packet.wire_len() - 1;
                self.be_inject.begin(remaining);
                self.pending
                    .push_back((now + remaining as Cycle + self.hop_latency, Queued::Be(packet)));
            }
        }
        self.route_pending(now);
        for out_idx in 0..PORT_COUNT {
            self.drive_output(now, out_idx, io);
        }
    }

    fn flit_buffer_bytes(&self) -> usize {
        self.input_buffer_bytes
    }

    fn set_output_credits(&mut self, port: Port, bytes: u32) {
        if port != Port::Local {
            self.credits[port.index()] = bytes;
        }
    }

    fn apply_control(&mut self, cmd: ControlCommand) -> Result<(), ControlError> {
        crate::apply_route_control(&mut self.table, &self.clock, cmd)
    }

    fn counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("fifo_sf.transmitted", self.stats.transmitted.iter().sum());
        emit("fifo_sf.delivered", self.stats.delivered);
        emit("fifo_sf.dropped", self.stats.dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_mesh::{Simulator, Topology};
    use rtr_types::ids::{ConnectionId, Direction, NodeId};
    use rtr_types::packet::PacketTrace;

    #[test]
    fn be_store_and_forward_latency_grows_per_hop() {
        // Measure a b-byte packet over 1 hop vs 2 hops: store-and-forward
        // adds ≈ b cycles per extra hop (the §3.1 contrast with wormhole's
        // constant per-hop cost).
        let measure = |hops: u16, b: usize| -> Cycle {
            let topo = Topology::mesh(hops + 1, 1);
            let mut sim =
                Simulator::build(topo.clone(), |_| FifoSfRouter::new(RouterConfig::default()))
                    .unwrap();
            let dst = topo.node_at(hops, 0);
            sim.inject_be(
                NodeId(0),
                BePacket::new(hops as i8, 0, vec![0; b], PacketTrace::default()),
            );
            assert!(sim.run_until(20_000, |s| !s.log(dst).be.is_empty()));
            sim.log(dst).be[0].0
        };
        let b = 100;
        let one = measure(1, b);
        let two = measure(2, b);
        let extra = two - one;
        assert!(
            extra as i64 >= b as i64 && extra < (b + 20) as u64,
            "store-and-forward must pay ≈ packet length per hop, paid {extra}"
        );
    }

    #[test]
    fn tc_packets_route_by_table() {
        let topo = Topology::mesh(2, 1);
        let mut sim =
            Simulator::build(topo.clone(), |_| FifoSfRouter::new(RouterConfig::default())).unwrap();
        let src = topo.node_at(0, 0);
        let dst = topo.node_at(1, 0);
        sim.chip_mut(src)
            .apply_control(crate::route(1, 2, Port::Dir(Direction::XPlus).mask()))
            .unwrap();
        sim.chip_mut(dst).apply_control(crate::route(2, 2, Port::Local.mask())).unwrap();
        sim.inject_tc(
            src,
            TcPacket {
                conn: ConnectionId(1),
                arrival: SlotClock::new(8).wrap(0),
                payload: vec![0x42; 18].into(),
                trace: PacketTrace::default(),
            },
        );
        assert!(sim.run_until(3000, |s| !s.log(dst).tc.is_empty()));
        assert_eq!(sim.log(dst).tc[0].1.payload[0], 0x42);
    }

    #[test]
    fn fifo_has_no_deadline_awareness() {
        // Two packets with reversed deadline order still deliver FIFO.
        let mut r = FifoSfRouter::new(RouterConfig::default()).unwrap();
        r.apply_control(crate::route(1, 1, Port::Local.mask())).unwrap();
        let mut io = ChipIo::new();
        let mk = |tag: u8| TcPacket {
            conn: ConnectionId(1),
            arrival: SlotClock::new(8).wrap(0),
            payload: vec![tag; 18].into(),
            trace: PacketTrace::default(),
        };
        io.inject_tc.push_back(mk(1)); // later deadline, injected first
        io.inject_tc.push_back(mk(2)); // earlier deadline, injected second
        for now in 0..500 {
            io.begin_cycle();
            r.tick(now, &mut io);
        }
        assert_eq!(io.delivered_tc.len(), 2);
        assert_eq!(io.delivered_tc[0].1.payload[0], 1);
    }
}
