//! Extension experiment X8 (paper §7): exact vs approximate link
//! scheduling.
//!
//! One tight-deadline connection converges on a reception port with six
//! loose-deadline connections of the same period. The exact comparator tree
//! orders by deadline, so the tight packet always goes first. The banded
//! approximation serves FIFO within a laxity band: once the band width
//! swallows the gap between the tight and loose delay bounds, the loose
//! packets (which arrive first each period) are served first and the tight
//! connection starts missing — the precise trade-off the paper flags for
//! its "approximate versions of real-time channels".

use rtr_core::control::ControlCommand;
use rtr_core::RealTimeRouter;
use rtr_mesh::stats::LatencySummary;
use rtr_mesh::{Simulator, Topology};
use rtr_types::chip::Chip;
use rtr_types::config::{RouterConfig, SchedulerKind};
use rtr_types::ids::{ConnectionId, Direction, NodeId, Port};
use rtr_types::time::Cycle;

use rtr_channels::establish::{EstablishedChannel, Hop};
use rtr_channels::sender::ChannelSender;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_workloads::tc::PeriodicTcSource;

/// One row of the ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedRow {
    /// The scheduler variant.
    pub kind: SchedulerKind,
    /// Band width in slots (1 for the exact tree).
    pub band_slots: u32,
    /// Tight-connection packets delivered.
    pub delivered: usize,
    /// Tight-connection deadline misses.
    pub misses: usize,
    /// Tight-connection mean latency, cycles.
    pub mean_latency: f64,
}

const PERIOD: u32 = 8;
const TIGHT_D: u32 = 2;
const LOOSE_D: u32 = 8;

fn run_one(kind: SchedulerKind, total_cycles: Cycle) -> SchedRow {
    let config = RouterConfig { scheduler: kind, ..RouterConfig::default() };
    // A 3×3 mesh with the destination at the centre: every period, loose
    // packets converge on its reception port from four input ports at
    // once, so a real FIFO queue forms there each period.
    let topo = Topology::mesh(3, 3);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let west = topo.node_at(0, 1);
    let east = topo.node_at(2, 1);
    let north = topo.node_at(1, 2);
    let south = topo.node_at(1, 0);
    let dst = topo.node_at(1, 1);

    // Programs a 1- or 2-hop channel ending at dst's reception port.
    let mut mk_channel = |conn: u16, src: NodeId, dir: Option<Direction>, d: u32| {
        let mut hops = Vec::new();
        if let Some(dir) = dir {
            sim.chip_mut(src)
                .apply_control(ControlCommand::SetConnection {
                    incoming: ConnectionId(conn),
                    outgoing: ConnectionId(conn),
                    delay: d,
                    out_mask: Port::Dir(dir).mask(),
                })
                .unwrap();
            hops.push(Hop {
                node: src,
                conn: ConnectionId(conn),
                out_conn: ConnectionId(conn),
                delay: d,
                out_mask: Port::Dir(dir).mask(),
                buffers: 2,
            });
        }
        sim.chip_mut(dst)
            .apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(conn),
                outgoing: ConnectionId(conn),
                delay: d,
                out_mask: Port::Local.mask(),
            })
            .unwrap();
        hops.push(Hop {
            node: dst,
            conn: ConnectionId(conn),
            out_conn: ConnectionId(conn),
            delay: d,
            out_mask: Port::Local.mask(),
            buffers: 2,
        });
        let depth = hops.len() as u32;
        EstablishedChannel {
            id: u64::from(conn),
            ingress: ConnectionId(conn),
            depth,
            guaranteed: depth * d,
            hops,
            request: ChannelRequest::unicast(
                src,
                dst,
                TrafficSpec::periodic(PERIOD, 18),
                depth * d,
            ),
        }
    };

    // Six loose connections: one sharing the tight channel's west link,
    // the rest converging from the other three directions. Total reserved
    // utilisation at the reception port: 7/8.
    let loose = vec![
        mk_channel(2, west, Some(Direction::XPlus), LOOSE_D),
        mk_channel(3, east, Some(Direction::XMinus), LOOSE_D),
        mk_channel(4, east, Some(Direction::XMinus), LOOSE_D),
        mk_channel(5, north, Some(Direction::YMinus), LOOSE_D),
        mk_channel(6, north, Some(Direction::YMinus), LOOSE_D),
        mk_channel(7, south, Some(Direction::YPlus), LOOSE_D),
    ];
    let tight = mk_channel(1, west, Some(Direction::XPlus), TIGHT_D);

    let clock = sim.chip(west).clock();
    // All senders fire at the start of each period; the tight sender is
    // registered after its co-located loose sender, so FIFO order at the
    // shared queue favours the loose packets.
    for ch in &loose {
        let sender = ChannelSender::new(ch, clock, config.slot_bytes, config.tc_data_bytes());
        sim.add_source(
            ch.request.source,
            Box::new(PeriodicTcSource::new(
                sender,
                u64::from(PERIOD),
                0,
                config.slot_bytes,
                vec![0x10; config.tc_data_bytes()],
            )),
        );
    }
    let sender = ChannelSender::new(&tight, clock, config.slot_bytes, config.tc_data_bytes());
    sim.add_source(
        west,
        Box::new(PeriodicTcSource::new(
            sender,
            u64::from(PERIOD),
            0,
            config.slot_bytes,
            vec![0xFF; config.tc_data_bytes()],
        )),
    );

    sim.run(total_cycles);

    let log = sim.log(dst);
    let tight_packets: Vec<_> = log.tc.iter().filter(|(_, p)| p.payload[0] == 0xFF).collect();
    let misses = tight_packets
        .iter()
        .filter(|(c, p)| rtr_types::time::cycle_to_slot(*c, config.slot_bytes) > p.trace.deadline)
        .count();
    let lat = LatencySummary::of(
        &tight_packets
            .iter()
            .map(|(c, p)| c.saturating_sub(p.trace.injected_at))
            .collect::<Vec<_>>(),
    );
    SchedRow {
        kind,
        band_slots: match kind {
            SchedulerKind::ComparatorTree | SchedulerKind::Oracle => 1,
            SchedulerKind::Banded { band_shift } => 1 << band_shift,
        },
        delivered: tight_packets.len(),
        misses,
        mean_latency: lat.mean,
    }
}

/// Runs the ablation: the exact tree, the Table 1 oracle, and banded
/// variants at the given shifts — all three scheduler families through the
/// identical router code path.
#[must_use]
pub fn run(band_shifts: &[u32], total_cycles: Cycle) -> Vec<SchedRow> {
    let mut rows = vec![
        run_one(SchedulerKind::ComparatorTree, total_cycles),
        run_one(SchedulerKind::Oracle, total_cycles),
    ];
    for &shift in band_shifts {
        rows.push(run_one(SchedulerKind::Banded { band_shift: shift }, total_cycles));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_bands_miss_where_the_tree_does_not() {
        let rows = run(&[1, 4], 40_000);
        let tree = rows[0];
        let oracle = rows[1]; // Table 1 evaluated directly
        let fine = rows[2]; // 2-slot bands: tight (4) and loose (8) stay apart
        let coarse = rows[3]; // 16-slot bands: merged → FIFO inversion
        assert_eq!(tree.misses, 0, "exact EDF never misses");
        assert_eq!(oracle.misses, 0, "the specification never misses either");
        assert_eq!(
            (oracle.delivered, oracle.mean_latency),
            (tree.delivered, tree.mean_latency),
            "the tree must behave exactly like the Table 1 oracle"
        );
        assert_eq!(fine.misses, 0, "fine bands preserve the separation");
        assert!(
            coarse.misses > tree.delivered / 4,
            "coarse bands must invert the tight connection: {} misses",
            coarse.misses
        );
        assert!(coarse.mean_latency > tree.mean_latency);
    }
}
