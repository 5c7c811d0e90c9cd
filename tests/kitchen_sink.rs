//! Capstone stress test: everything at once on a 6×6 mesh — unicast and
//! multicast channels, periodic and legally-bursty senders, host policing,
//! saturating best-effort background, horizons enabled — for 200 000
//! cycles. The single invariant that matters: **zero deadline misses**.

use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::{ControlCommand, RealTimeRouter};
use realtime_router::mesh::{NetworkReport, Simulator, Topology};
use realtime_router::prelude::*;
use realtime_router::workloads::be::{RandomBeSource, SizeDist};
use realtime_router::workloads::patterns::TrafficPattern;
use realtime_router::workloads::tc::{BurstyTcSource, PeriodicTcSource};
use rtr_bench::util::{add_periodic_sender, sender_for};

#[test]
fn everything_at_once_zero_misses() {
    let config = RouterConfig::default();
    let topo = Topology::mesh(6, 6);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut manager = ChannelManager::new(&config);
    let horizon = 8;
    manager.set_assumed_horizon(horizon);

    // Horizons on every port of every router.
    for node in topo.nodes() {
        sim.chip_mut(node)
            .apply_control(ControlCommand::SetHorizon { port_mask: 0b1_1111, horizon })
            .unwrap();
    }

    // A dozen unicast channels criss-crossing the mesh.
    let unicast_pairs = [
        ((0u16, 0u16), (5u16, 5u16)),
        ((5, 0), (0, 5)),
        ((0, 2), (5, 2)),
        ((2, 0), (2, 5)),
        ((1, 1), (4, 4)),
        ((4, 1), (1, 4)),
        ((3, 0), (3, 5)),
        ((0, 3), (5, 3)),
        ((5, 4), (0, 1)),
        ((1, 5), (4, 0)),
        ((2, 2), (3, 3)),
        ((4, 5), (1, 0)),
    ];
    let mut channels = Vec::new();
    for (s, d) in unicast_pairs {
        let src = topo.node_at(s.0, s.1);
        let dst = topo.node_at(d.0, d.1);
        let depth = topo.dor_route(src, dst).len() as u32 + 1;
        let spec = TrafficSpec { i_min: 32, s_max_bytes: 18, b_max: 3 };
        let channel = manager
            .establish(&topo, ChannelRequest::unicast(src, dst, spec, depth * 8), &mut sim)
            .expect("criss-cross set must be admissible at 1/32 each");
        channels.push(channel);
    }
    // One multicast tree from the centre to three corners.
    let mcast = manager
        .establish(
            &topo,
            ChannelRequest {
                source: topo.node_at(2, 3),
                destinations: vec![topo.node_at(5, 5), topo.node_at(5, 0), topo.node_at(0, 5)],
                spec: TrafficSpec::periodic(32, 18),
                deadline: 64,
            },
            &mut sim,
        )
        .expect("multicast admissible");

    // Senders: alternate periodic and legally-bursty.
    for (k, channel) in channels.iter().enumerate() {
        let src = channel.request.source;
        let sender = sender_for(&sim, channel);
        let source: Box<dyn rtr_mesh::TrafficSource> = if k % 2 == 0 {
            Box::new(PeriodicTcSource::new(
                sender,
                32,
                k as u64 % 16,
                config.slot_bytes,
                vec![k as u8; config.tc_data_bytes()],
            ))
        } else {
            Box::new(BurstyTcSource::new(
                sender,
                4, // ≤ B_max + 1
                128,
                config.slot_bytes,
                vec![k as u8; config.tc_data_bytes()],
            ))
        };
        sim.add_source(src, source);
    }
    add_periodic_sender(&mut sim, &mcast, 32, 5, 0xAC);

    // Saturating best-effort background everywhere.
    for node in topo.nodes() {
        sim.add_source(
            node,
            Box::new(
                RandomBeSource::new(
                    topo.clone(),
                    TrafficPattern::Uniform,
                    0.25,
                    SizeDist::Uniform(8, 96),
                    0x51AB ^ u64::from(node.0),
                )
                .with_max_queue(10),
            ),
        );
    }

    sim.run(200_000);

    let report = NetworkReport::capture(&sim, config.slot_bytes);
    assert_eq!(report.deadline_misses, 0, "the one invariant that matters");
    assert!(report.tc_delivered > 3_000, "tc delivered {}", report.tc_delivered);
    assert!(report.be_delivered > 20_000, "be delivered {}", report.be_delivered);
    for node in topo.nodes() {
        assert_eq!(sim.chip(node).stats().tc_dropped(), 0);
        assert_eq!(sim.chip(node).stats().aliased_keys, 0);
    }
    // Every multicast destination received every message.
    let mcast_counts: Vec<usize> = mcast
        .request
        .destinations
        .iter()
        .map(|d| {
            sim.log(*d).tc.iter().filter(|(_, p)| p.trace.source == mcast.request.source).count()
        })
        .collect();
    let min = *mcast_counts.iter().min().unwrap();
    let max = *mcast_counts.iter().max().unwrap();
    assert!(min > 150, "multicast deliveries {mcast_counts:?}");
    assert!(max - min <= 2, "branches differ only by in-flight copies: {mcast_counts:?}");
}
