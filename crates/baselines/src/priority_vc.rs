//! A fixed-priority two-class router (baseline; §6's virtual-channel
//! priority schemes).
//!
//! Like the real-time router, the high-priority class is packet-switched
//! with table-driven routing and preempts best-effort bytes at byte
//! granularity. Unlike the real-time router, service within the class is
//! **FIFO**: no deadlines, no logical-arrival regulation, no horizon. This
//! isolates exactly what deadline-driven scheduling buys — class priority
//! alone cannot differentiate packets with different latency tolerances,
//! and unregulated high-priority traffic can starve its own class.

use std::collections::VecDeque;

use rtr_core::conn_table::ConnectionTable;
use rtr_core::memory::{PacketMemory, SlotAddr};
use rtr_core::ports::{InputPort, PortTiming, Serialiser, WormholeChannel};
use rtr_types::chip::{Chip, ChipIo};
use rtr_types::clock::SlotClock;
use rtr_types::config::RouterConfig;
use rtr_types::control::{ControlCommand, ControlError};
use rtr_types::error::ConfigError;
use rtr_types::flit::LinkSymbol;
use rtr_types::ids::{Port, PORT_COUNT};
use rtr_types::packet::TcPacket;
use rtr_types::time::Cycle;

/// Counters for the priority-VC baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityVcStats {
    /// High-class packets transmitted per output port.
    pub tc_transmitted: [u64; PORT_COUNT],
    /// High-class packets delivered locally.
    pub tc_delivered: u64,
    /// High-class packets dropped (no table entry or no buffer).
    pub tc_dropped: u64,
    /// High-class packets abandoned mid-arrival (a fault tore their tail).
    pub tc_truncated: u64,
    /// Best-effort bytes transmitted per output port.
    pub be_bytes: [u64; PORT_COUNT],
    /// Best-effort packets delivered locally.
    pub be_delivered: u64,
    /// Best-effort bytes a full or fault-torn flit buffer shed (each
    /// refunded upstream).
    pub be_dropped: u64,
}

/// The fixed-priority two-class baseline router: the kit's input ports,
/// wormhole channel and link serialisers around a table, a packet memory
/// and one FIFO per output.
#[derive(Debug)]
pub struct PriorityVcRouter {
    config: RouterConfig,
    clock: SlotClock,
    table: ConnectionTable,
    memory: PacketMemory,
    /// FIFO of buffered high-class packets per output port.
    queues: [VecDeque<SlotAddr>; PORT_COUNT],
    /// Remaining output-port mask per memory slot (multicast refcount).
    remaining: Vec<u8>,
    timing: PortTiming,
    inputs: [InputPort; PORT_COUNT],
    channel: WormholeChannel,
    /// High-class transmission in flight per output port.
    tc_tx: [Serialiser; PORT_COUNT],
    /// Pacing of the high-class injection port.
    tc_inject: Serialiser,
    stats: PriorityVcStats,
}

impl PriorityVcRouter {
    /// Builds a priority-VC router with the same datapath geometry as the
    /// real-time router.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: RouterConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let timing = PortTiming::from_config(&config);
        Ok(PriorityVcRouter {
            clock: SlotClock::new(config.clock_bits),
            table: ConnectionTable::new(config.connections),
            memory: PacketMemory::new(config.packet_slots),
            queues: Default::default(),
            remaining: vec![0; config.packet_slots],
            timing,
            inputs: Default::default(),
            channel: WormholeChannel::new(timing.flit_capacity),
            tc_tx: Default::default(),
            tc_inject: Serialiser::default(),
            stats: PriorityVcStats::default(),
            config,
        })
    }

    /// Statistics counters.
    #[must_use]
    pub fn stats(&self) -> &PriorityVcStats {
        &self.stats
    }

    fn process_arrivals(&mut self, now: Cycle) {
        for idx in 0..PORT_COUNT {
            let Some(packet) = self.inputs[idx].take_ready_tc(now) else {
                continue;
            };
            let Some(entry) = self.table.lookup(packet.conn) else {
                self.stats.tc_dropped += 1;
                continue;
            };
            let rewritten = TcPacket { conn: entry.outgoing, ..*packet };
            let Ok(addr) = self.memory.store(rewritten) else {
                self.stats.tc_dropped += 1;
                continue;
            };
            self.remaining[addr.index()] = entry.out_mask;
            for port in rtr_types::ids::ports_in_mask(entry.out_mask) {
                self.queues[port.index()].push_back(addr);
            }
        }
    }

    /// Fixed class priority: a high-class packet in flight finishes, then
    /// the FIFO head starts (preempting best-effort traffic at a byte
    /// boundary), and only then does the wormhole channel get the cycle.
    fn drive_output(&mut self, now: Cycle, out_idx: usize, io: &mut ChipIo) {
        if self.tc_tx[out_idx].busy() {
            let delivered = self.tc_tx[out_idx].advance(now, io);
            self.stats.tc_delivered += u64::from(delivered);
        } else if let Some(addr) = self.queues[out_idx].pop_front() {
            let packet =
                self.memory.peek(addr).expect("queued address points at an idle slot").clone();
            self.remaining[addr.index()] &= !Port::from_index(out_idx).mask();
            if self.remaining[addr.index()] == 0 {
                self.memory.free(addr);
            }
            self.stats.tc_transmitted[out_idx] += 1;
            let delivered = self.tc_tx[out_idx].start(now, out_idx, packet, io);
            self.stats.tc_delivered += u64::from(delivered);
        } else if let Some(sent) = self.channel.send(now, &mut self.inputs, out_idx, io) {
            self.stats.be_bytes[out_idx] += 1;
            self.stats.be_delivered += u64::from(matches!(sent.delivered, Some(Ok(_))));
        }
    }
}

impl Chip for PriorityVcRouter {
    fn tick(&mut self, now: Cycle, io: &mut ChipIo) {
        self.channel.ingest_credits(&io.credit_in);
        for idx in 1..PORT_COUNT {
            match io.rx[idx].take() {
                Some(LinkSymbol::TcStart(packet)) => {
                    let torn = self.inputs[idx].push_tc_start(now, packet, self.timing);
                    self.stats.tc_truncated += u64::from(torn);
                }
                Some(LinkSymbol::TcCont { index }) => {
                    // An orphan (head destroyed upstream) is shed: no credit.
                    self.inputs[idx].push_tc_cont(now, index, self.timing);
                }
                Some(LinkSymbol::Be(byte)) => {
                    let outcome =
                        self.inputs[idx].accept_be(now, byte, &mut io.credit_out[idx], self.timing);
                    self.stats.be_dropped += u64::from(outcome.dropped);
                }
                None => {}
            }
        }
        // High-class injection: one byte per cycle.
        if let Some(index) = self.tc_inject.step() {
            self.inputs[0].push_tc_cont(now, index, self.timing);
        } else if let Some(packet) = io.inject_tc.pop_front() {
            self.tc_inject.begin(packet.wire_len());
            self.inputs[0].push_tc_start(now, Box::new(packet), self.timing);
        }
        self.channel.inject(now, &mut self.inputs[0], &mut io.inject_be, self.timing);
        self.channel.collect_requests(&self.inputs, now);
        self.process_arrivals(now);
        for out_idx in 0..PORT_COUNT {
            self.drive_output(now, out_idx, io);
        }
    }

    fn flit_buffer_bytes(&self) -> usize {
        self.config.be_path_bytes()
    }

    fn set_output_credits(&mut self, port: Port, bytes: u32) {
        self.channel.set_credits(port, bytes);
    }

    fn apply_control(&mut self, cmd: ControlCommand) -> Result<(), ControlError> {
        crate::apply_route_control(&mut self.table, &self.clock, cmd)
    }

    fn counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("priority_vc.tc_transmitted", self.stats.tc_transmitted.iter().sum());
        emit("priority_vc.tc_delivered", self.stats.tc_delivered);
        emit("priority_vc.tc_dropped", self.stats.tc_dropped);
        emit("priority_vc.tc_truncated", self.stats.tc_truncated);
        emit("priority_vc.be_bytes", self.stats.be_bytes.iter().sum());
        emit("priority_vc.be_delivered", self.stats.be_delivered);
        emit("priority_vc.be_dropped", self.stats.be_dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_mesh::{Simulator, Topology};
    use rtr_types::ids::{ConnectionId, Direction};
    use rtr_types::packet::{BePacket, PacketTrace};

    fn packet(conn: u16, payload: u8) -> TcPacket {
        TcPacket {
            conn: ConnectionId(conn),
            arrival: SlotClock::new(8).wrap(0),
            payload: vec![payload; 18].into(),
            trace: PacketTrace::default(),
        }
    }

    #[test]
    fn fifo_order_within_class() {
        let mut r = PriorityVcRouter::new(RouterConfig::default()).unwrap();
        r.apply_control(crate::route(1, 1, Port::Local.mask())).unwrap();
        let mut io = ChipIo::new();
        io.inject_tc.push_back(packet(1, 0xA));
        io.inject_tc.push_back(packet(1, 0xB));
        for now in 0..400 {
            io.begin_cycle();
            r.tick(now, &mut io);
        }
        assert_eq!(io.delivered_tc.len(), 2);
        assert_eq!(io.delivered_tc[0].1.payload[0], 0xA);
        assert_eq!(io.delivered_tc[1].1.payload[0], 0xB, "FIFO preserves order");
    }

    #[test]
    fn high_class_preempts_best_effort() {
        let topo = Topology::mesh(2, 1);
        let mut sim =
            Simulator::build(topo.clone(), |_| PriorityVcRouter::new(RouterConfig::default()))
                .unwrap();
        let src = topo.node_at(0, 0);
        let dst = topo.node_at(1, 0);
        sim.chip_mut(src)
            .apply_control(crate::route(1, 1, Port::Dir(Direction::XPlus).mask()))
            .unwrap();
        sim.chip_mut(dst).apply_control(crate::route(1, 1, Port::Local.mask())).unwrap();
        // A long best-effort stream plus one high-class packet.
        sim.inject_be(src, BePacket::new(1, 0, vec![0; 400], PacketTrace::default()));
        sim.run(100);
        sim.inject_tc(src, packet(1, 0xEE));
        assert!(sim.run_until(3000, |s| !s.log(dst).tc.is_empty()));
        let tc_cycle = sim.log(dst).tc[0].0;
        assert!(
            sim.log(dst).be.is_empty() || sim.log(dst).be[0].0 > tc_cycle,
            "the high-class packet must not wait for the 400-byte stream"
        );
    }

    #[test]
    fn multicast_shares_the_memory_slot() {
        let mut r = PriorityVcRouter::new(RouterConfig::default()).unwrap();
        let mask = Port::Dir(Direction::XPlus).mask() | Port::Local.mask();
        r.apply_control(crate::route(1, 1, mask)).unwrap();
        let mut io = ChipIo::new();
        io.inject_tc.push_back(packet(1, 0x5C));
        let mut starts = 0;
        for now in 0..400 {
            io.begin_cycle();
            r.tick(now, &mut io);
            if matches!(io.tx[Port::Dir(Direction::XPlus).index()], Some(LinkSymbol::TcStart(_))) {
                starts += 1;
            }
            io.tx = Default::default();
        }
        assert_eq!(starts, 1, "one copy per masked port");
        assert_eq!(io.delivered_tc.len(), 1, "local copy delivered");
        assert_eq!(r.stats().tc_transmitted.iter().sum::<u64>(), 2);
    }

    #[test]
    fn credits_gate_best_effort_like_the_real_router() {
        let mut r = PriorityVcRouter::new(RouterConfig::default()).unwrap();
        r.set_output_credits(Port::Dir(Direction::XPlus), 2);
        let mut io = ChipIo::new();
        io.inject_be.push_back(BePacket::new(1, 0, vec![0; 30], PacketTrace::default()));
        let mut sent = 0;
        for now in 0..500 {
            io.begin_cycle();
            r.tick(now, &mut io);
            if matches!(io.tx[Port::Dir(Direction::XPlus).index()], Some(LinkSymbol::Be(_))) {
                sent += 1;
            }
            io.tx = Default::default();
        }
        assert_eq!(sent, 2, "only the credit pool leaves");
    }

    #[test]
    fn no_table_entry_drops() {
        let mut r = PriorityVcRouter::new(RouterConfig::default()).unwrap();
        let mut io = ChipIo::new();
        io.inject_tc.push_back(packet(9, 0));
        for now in 0..100 {
            io.begin_cycle();
            r.tick(now, &mut io);
        }
        assert_eq!(r.stats().tc_dropped, 1);
    }
}
