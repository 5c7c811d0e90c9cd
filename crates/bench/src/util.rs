//! Shared helpers for the experiment harnesses and the integration tests:
//! best-effort background, senders on a channel's source clock, and the
//! hand-programmed one-hop channel meshes the drive-mode identity suites
//! run.

use rtr_channels::arrival::ArrivalTracker;
use rtr_channels::establish::{EstablishedChannel, Hop};
use rtr_channels::sender::ChannelSender;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::control::ControlCommand;
use rtr_core::{RealTimeRouter, RouterTemplate};
use rtr_mesh::source::TrafficSource;
use rtr_mesh::topology::Topology;
use rtr_mesh::{FaultSchedule, Simulator};
use rtr_types::chip::{Chip, ChipIo};
use rtr_types::config::RouterConfig;
use rtr_types::ids::{ConnectionId, Direction, NodeId, Port};
use rtr_types::packet::{BePacket, PacketTrace, TcPacket};
use rtr_types::time::{cycle_to_slot, Cycle};
use rtr_workloads::be::{RandomBeSource, SizeDist};
use rtr_workloads::patterns::TrafficPattern;
use rtr_workloads::tc::PeriodicTcSource;

use crate::churn::DriveMode;

/// Local delay bound, in slots, of both hops of [`add_one_hop_channel`].
pub const ONE_HOP_DELAY: u32 = 6;

/// A sender for `channel` on its source router's clock and slot geometry.
#[must_use]
pub fn sender_for(sim: &Simulator<RealTimeRouter>, channel: &EstablishedChannel) -> ChannelSender {
    let chip = sim.chip(channel.request.source);
    let config = chip.config();
    ChannelSender::new(channel, chip.clock(), config.slot_bytes, config.tc_data_bytes())
}

/// Attaches a [`PeriodicTcSource`] at `channel`'s source: one message every
/// `period_slots` from slot `phase_slots` on, every payload byte `fill`.
pub fn add_periodic_sender(
    sim: &mut Simulator<RealTimeRouter>,
    channel: &EstablishedChannel,
    period_slots: u64,
    phase_slots: u64,
    fill: u8,
) {
    let src = channel.request.source;
    let config = sim.chip(src).config();
    let (slot_bytes, payload) = (config.slot_bytes, vec![fill; config.tc_data_bytes()]);
    let source = PeriodicTcSource::new(
        sender_for(sim, channel),
        period_slots,
        phase_slots,
        slot_bytes,
        payload,
    );
    sim.add_source(src, Box::new(source));
}

/// Adds connection `10 + index` from `(0, y)` to `(1, y)`, written straight
/// into both routers' tables (no admission round-trip, so a build is cheap
/// and the same every time) with delay [`ONE_HOP_DELAY`] at each hop, and
/// a periodic sender of fill `0xA0 + index` at `(0, y)`.
///
/// # Panics
///
/// Panics if either router refuses the table write.
pub fn add_one_hop_channel(
    sim: &mut Simulator<RealTimeRouter>,
    y: u16,
    index: usize,
    period_slots: u64,
) {
    let conn = ConnectionId(10 + index as u16);
    let (src, dst) = (sim.topology().node_at(0, y), sim.topology().node_at(1, y));
    let hops: Vec<Hop> = [(src, Port::Dir(Direction::XPlus)), (dst, Port::Local)]
        .into_iter()
        .map(|(node, port)| Hop {
            node,
            conn,
            out_conn: conn,
            delay: ONE_HOP_DELAY,
            out_mask: port.mask(),
            buffers: 2,
        })
        .collect();
    for hop in &hops {
        sim.chip_mut(hop.node)
            .apply_control(ControlCommand::SetConnection {
                incoming: conn,
                outgoing: conn,
                delay: ONE_HOP_DELAY,
                out_mask: hop.out_mask,
            })
            .expect("a one-hop table write fits the router");
    }
    let spec = TrafficSpec::periodic(period_slots as u32, 18);
    let channel = EstablishedChannel {
        id: u64::from(conn.0),
        ingress: conn,
        depth: 2,
        guaranteed: 2 * ONE_HOP_DELAY,
        hops,
        request: ChannelRequest::unicast(src, dst, spec, 2 * ONE_HOP_DELAY),
    };
    add_periodic_sender(sim, &channel, period_slots, 0, 0xA0 + index as u8);
}

/// A `width × height` mesh of default routers carrying four one-hop
/// channels ([`add_one_hop_channel`]) on rows 0, h/4, 5h/8 and h−1 — rows
/// 0, 2, 5 and 7 of an 8-row mesh. The routers come from one
/// [`RouterTemplate`], so a 128×128 build is not dominated by per-router
/// set-up.
///
/// # Panics
///
/// Panics if the mesh is narrower than 2 columns or shorter than 4 rows.
#[must_use]
pub fn periodic_mesh(width: u16, height: u16, period_slots: u64) -> Simulator<RealTimeRouter> {
    assert!(width >= 2 && height >= 4, "a periodic mesh needs at least 2 columns and 4 rows");
    let template =
        RouterTemplate::new(RouterConfig::default()).expect("the default config is valid");
    let mut sim = Simulator::build(Topology::mesh(width, height), |_| {
        Ok::<_, std::convert::Infallible>(template.build())
    })
    .expect("a template build cannot fail");
    for (index, y) in [0, height / 4, height * 5 / 8, height - 1].into_iter().enumerate() {
        add_one_hop_channel(&mut sim, y, index, period_slots);
    }
    sim
}

/// When the one packet of [`one_packet_line`] puts its head on the wire.
pub const ONE_PACKET_HEAD: Cycle = 140;

/// Connection 30 along a row of `hops + 1` default routers under `faults`:
/// each forwards it east and the last delivers it. `mode` drives the mesh
/// to cycle 100, where node 0 is handed one packet with its logical arrival
/// two slots ahead, so its head leaves node 0 on cycle [`ONE_PACKET_HEAD`]
/// and its 19 continuation symbols follow one per cycle.
///
/// # Panics
///
/// Panics if a router refuses the table write.
#[must_use]
pub fn one_packet_line(
    hops: u16,
    faults: FaultSchedule,
    mode: DriveMode,
) -> Simulator<RealTimeRouter> {
    let config = RouterConfig::default();
    let mut sim =
        Simulator::build(Topology::mesh(hops + 1, 1), |_| RealTimeRouter::new(config.clone()))
            .expect("the default config is valid");
    let conn = ConnectionId(30);
    for x in 0..=hops {
        let port = if x == hops { Port::Local } else { Port::Dir(Direction::XPlus) };
        let write = ControlCommand::SetConnection {
            incoming: conn,
            outgoing: conn,
            delay: ONE_HOP_DELAY,
            out_mask: port.mask(),
        };
        sim.chip_mut(NodeId(x))
            .apply_control(write)
            .expect("a one-hop table write fits the router");
    }
    sim.set_fault_schedule(faults);
    mode.advance(&mut sim, 100);
    let slot = cycle_to_slot(sim.now(), config.slot_bytes);
    sim.inject_tc(
        NodeId(0),
        TcPacket {
            conn,
            arrival: sim.chip(NodeId(0)).clock().wrap(slot + 2),
            payload: vec![0x3C; config.tc_data_bytes()].into(),
            trace: PacketTrace::default(),
        },
    );
    sim
}

/// Adds a uniform-random best-effort source injecting at `rate` to every
/// node, node `n` seeded with `seed ^ n`. A zero rate or a one-node mesh
/// (no destination to draw) adds nothing.
pub fn add_uniform_be<C: Chip>(
    sim: &mut Simulator<C>,
    rate: f64,
    sizes: SizeDist,
    seed: u64,
    max_queue: usize,
) {
    let topo = sim.topology().clone();
    if rate <= 0.0 || topo.len() < 2 {
        return;
    }
    for node in topo.nodes() {
        let node_seed = seed ^ u64::from(node.0);
        let source =
            RandomBeSource::new(topo.clone(), TrafficPattern::Uniform, rate, sizes, node_seed);
        sim.add_source(node, Box::new(source.with_max_queue(max_queue)));
    }
}

/// A periodic source that sends deadline-stamped *best-effort* packets —
/// used to offer the real-time workload to baseline routers that have no
/// time-constrained channel (the wormhole baseline).
#[derive(Debug)]
pub struct PeriodicDeadlineBeSource {
    destination: NodeId,
    offsets: (i8, i8),
    period_slots: u64,
    deadline_slots: u64,
    payload_bytes: usize,
    slot_bytes: usize,
    tracker: ArrivalTracker,
    sent: u64,
}

impl PeriodicDeadlineBeSource {
    /// Creates the source; one packet of `payload_bytes` every
    /// `period_slots`, each due `deadline_slots` after its logical arrival.
    #[must_use]
    pub fn new(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        period_slots: u64,
        deadline_slots: u64,
        payload_bytes: usize,
        slot_bytes: usize,
    ) -> Self {
        PeriodicDeadlineBeSource {
            destination: dst,
            offsets: topo.be_offsets(src, dst),
            period_slots,
            deadline_slots,
            payload_bytes,
            slot_bytes,
            tracker: ArrivalTracker::new(period_slots as u32),
            sent: 0,
        }
    }
}

impl TrafficSource for PeriodicDeadlineBeSource {
    fn pre_cycle(&mut self, now: Cycle, node: NodeId, io: &mut ChipIo) {
        let t = cycle_to_slot(now, self.slot_bytes);
        if t >= self.sent * self.period_slots && now.is_multiple_of(self.slot_bytes as u64) {
            let l0 = self.tracker.next(t);
            let trace = PacketTrace {
                source: node,
                destination: self.destination,
                sequence: self.sent,
                injected_at: now,
                logical_arrival: l0,
                deadline: l0 + self.deadline_slots,
            };
            io.inject_be.push_back(BePacket::new(
                self.offsets.0,
                self.offsets.1,
                vec![0xCD; self.payload_bytes],
                trace,
            ));
            self.sent += 1;
        }
    }
}

/// Mean of a sample set (0.0 when empty).
#[must_use]
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_be_source_stamps_traces() {
        let topo = Topology::mesh(2, 1);
        let mut src = PeriodicDeadlineBeSource::new(&topo, NodeId(0), NodeId(1), 8, 20, 16, 20);
        let mut io = ChipIo::new();
        for now in 0..(8 * 20 * 3) {
            src.pre_cycle(now, NodeId(0), &mut io);
        }
        assert_eq!(io.inject_be.len(), 3);
        let p = &io.inject_be[1];
        assert_eq!(p.trace.logical_arrival, 8);
        assert_eq!(p.trace.deadline, 28);
        assert_eq!(p.header.x_off, 1);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
    }
}
