//! A classic single-class wormhole router (baseline).
//!
//! Dimension-ordered routing on header offsets, small per-input flit
//! buffers, round-robin arbitration over the input links, credit-based flow
//! control — and nothing else. Everything travels on the one wormhole
//! channel; packets with deadlines get no preferential treatment, which is
//! exactly what the baseline-comparison experiments measure.

use rtr_core::ports::{InputPort, PortTiming, WakePolls, WormholeChannel};
use rtr_types::chip::{Chip, ChipIo, WakeStats};
use rtr_types::config::RouterConfig;
use rtr_types::error::ConfigError;
use rtr_types::flit::LinkSymbol;
use rtr_types::ids::{Port, PORT_COUNT};
use rtr_types::time::Cycle;

/// Counters for the wormhole baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct WormholeStats {
    /// Bytes transmitted per output port.
    pub bytes: [u64; PORT_COUNT],
    /// Packets delivered locally.
    pub delivered: u64,
    /// Bytes a full or fault-torn flit buffer shed (each refunded upstream).
    pub be_dropped: u64,
    /// Time-constrained injections rejected (this router has no
    /// time-constrained channel; the harness must encode such traffic as
    /// best-effort packets).
    pub tc_rejected: u64,
}

/// The single-class wormhole baseline router: input ports plus the kit's
/// wormhole channel, which owns every link cycle.
#[derive(Debug)]
pub struct WormholeRouter {
    config: RouterConfig,
    timing: PortTiming,
    inputs: [InputPort; PORT_COUNT],
    channel: WormholeChannel,
    stats: WormholeStats,
    wake: WakePolls,
}

impl WormholeRouter {
    /// Builds a wormhole router sharing the real-time router's datapath
    /// geometry (flit buffers, pipeline timing).
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: RouterConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let timing = PortTiming::from_config(&config);
        Ok(WormholeRouter {
            timing,
            inputs: Default::default(),
            channel: WormholeChannel::new(timing.flit_capacity),
            stats: WormholeStats::default(),
            wake: WakePolls::default(),
            config,
        })
    }

    /// Statistics counters.
    #[must_use]
    pub fn stats(&self) -> &WormholeStats {
        &self.stats
    }
}

impl Chip for WormholeRouter {
    fn tick(&mut self, now: Cycle, io: &mut ChipIo) {
        self.channel.ingest_credits(&io.credit_in);
        for idx in 1..PORT_COUNT {
            match io.rx[idx].take() {
                Some(LinkSymbol::Be(byte)) => {
                    let outcome =
                        self.inputs[idx].accept_be(now, byte, &mut io.credit_out[idx], self.timing);
                    self.stats.be_dropped += u64::from(outcome.dropped);
                }
                Some(_) => panic!("wormhole baseline received a time-constrained symbol"),
                None => {}
            }
        }
        // This router has no time-constrained channel.
        while io.inject_tc.pop_front().is_some() {
            self.stats.tc_rejected += 1;
        }
        self.channel.inject(now, &mut self.inputs[0], &mut io.inject_be, self.timing);
        self.channel.collect_requests(&self.inputs, now);
        for out_idx in 0..PORT_COUNT {
            if let Some(sent) = self.channel.send(now, &mut self.inputs, out_idx, io) {
                self.stats.bytes[out_idx] += 1;
                self.stats.delivered += u64::from(matches!(sent.delivered, Some(Ok(_))));
            }
        }
    }

    fn flit_buffer_bytes(&self) -> usize {
        self.config.be_path_bytes()
    }

    fn set_output_credits(&mut self, port: Port, bytes: u32) {
        self.channel.set_credits(port, bytes);
    }

    // Counters are event-based: a skipped quiet span needs no `skip_quiet`.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.wake.answer(now, self.channel.next_event(&self.inputs, now))
    }

    fn wake_stats(&self) -> Option<WakeStats> {
        Some(self.wake.snapshot())
    }

    fn counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("wormhole.bytes", self.stats.bytes.iter().sum());
        emit("wormhole.delivered", self.stats.delivered);
        emit("wormhole.be_dropped", self.stats.be_dropped);
        emit("wormhole.tc_rejected", self.stats.tc_rejected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_mesh::{Simulator, Topology};
    use rtr_types::flit::BeByte;
    use rtr_types::ids::{Direction, NodeId};
    use rtr_types::packet::{BePacket, PacketTrace};

    #[test]
    fn forwards_across_a_mesh() {
        let topo = Topology::mesh(3, 3);
        let mut sim =
            Simulator::build(topo.clone(), |_| WormholeRouter::new(RouterConfig::default()))
                .unwrap();
        let src = topo.node_at(0, 0);
        let dst = topo.node_at(2, 2);
        let (x, y) = topo.be_offsets(src, dst);
        sim.inject_be(
            src,
            BePacket::new(
                x,
                y,
                vec![0x77; 40],
                PacketTrace {
                    source: src,
                    destination: dst,
                    injected_at: 0,
                    ..PacketTrace::default()
                },
            ),
        );
        assert!(sim.run_until(5000, |s| !s.log(dst).be.is_empty()));
        assert_eq!(sim.log(dst).be[0].1.payload.len(), 40);
    }

    #[test]
    fn latency_is_linear_in_packet_length() {
        // Same shape as the paper's Experiment 1, on the plain wormhole
        // baseline: latency = overhead + b.
        let measure = |b: usize| -> Cycle {
            let topo = Topology::mesh(2, 1);
            let mut sim =
                Simulator::build(topo.clone(), |_| WormholeRouter::new(RouterConfig::default()))
                    .unwrap();
            let dst = topo.node_at(1, 0);
            sim.inject_be(NodeId(0), BePacket::new(1, 0, vec![0; b], PacketTrace::default()));
            assert!(sim.run_until(10_000, |s| !s.log(dst).be.is_empty()));
            sim.log(dst).be[0].0
        };
        let l16 = measure(16);
        let l64 = measure(64);
        assert_eq!(l64 - l16, 48, "one extra cycle per extra byte");
    }

    #[test]
    fn tc_injections_are_rejected() {
        let mut r = WormholeRouter::new(RouterConfig::default()).unwrap();
        let mut io = ChipIo::new();
        io.inject_tc.push_back(rtr_types::packet::TcPacket {
            conn: rtr_types::ids::ConnectionId(0),
            arrival: rtr_types::clock::SlotClock::new(8).wrap(0),
            payload: vec![0; 18].into(),
            trace: PacketTrace::default(),
        });
        io.begin_cycle();
        r.tick(0, &mut io);
        assert_eq!(r.stats().tc_rejected, 1);
        assert!(io.inject_tc.is_empty());
    }

    #[test]
    fn a_byte_shed_by_a_full_flit_buffer_is_counted_and_refunded() {
        let mut r = WormholeRouter::new(RouterConfig::default()).unwrap();
        // Nothing drains: the packet heads for +x and that output has no
        // credit, so the -x input's flit buffer only fills.
        r.set_output_credits(Port::Dir(Direction::XPlus), 0);
        let mut io = ChipIo::new();
        let mut refunded = 0;
        // One byte more than the buffer holds — what a sender with a forged
        // credit would push: the x = 1 head byte, then zeros.
        for now in 0..=r.flit_buffer_bytes() as u64 {
            io.begin_cycle();
            let byte =
                BeByte { byte: u8::from(now == 0), head: now == 0, tail: false, trace: None };
            io.rx[2] = Some(LinkSymbol::Be(byte));
            r.tick(now, &mut io);
            refunded += u64::from(std::mem::take(&mut io.credit_out[2]));
        }
        assert_eq!(r.stats().be_dropped, 1, "exactly the overflowing byte is shed");
        assert_eq!(refunded, 1, "and its credit goes back upstream");
        assert_eq!(r.stats().bytes.iter().sum::<u64>(), 0, "nothing left the router");
    }
}
