//! Integration: full channel lifecycle across the mesh — establishment,
//! traffic, guarantees, teardown, and capacity reuse.

use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::types::config::RouterConfig;
use rtr_bench::util::add_periodic_sender;

fn build(side: u16) -> (RouterConfig, Topology, Simulator<RealTimeRouter>, ChannelManager) {
    let config = RouterConfig::default();
    let topo = Topology::mesh(side, side);
    let sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let manager = ChannelManager::new(&config);
    (config, topo, sim, manager)
}

#[test]
fn single_channel_end_to_end_guarantee() {
    let (config, topo, mut sim, mut manager) = build(4);
    let src = topo.node_at(0, 3);
    let dst = topo.node_at(3, 0);
    let channel = manager
        .establish(
            &topo,
            ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 56),
            &mut sim,
        )
        .unwrap();
    add_periodic_sender(&mut sim, &channel, 16, 0, 9);
    sim.run(60_000);
    let log = sim.log(dst);
    assert!(log.tc.len() > 150, "delivered {}", log.tc.len());
    assert_eq!(log.tc_deadline_misses(config.slot_bytes), 0);
    // All intermediate routers forwarded without drops.
    for node in topo.nodes() {
        assert_eq!(sim.chip(node).stats().tc_dropped(), 0);
        assert_eq!(sim.chip(node).stats().aliased_keys, 0);
    }
}

#[test]
fn many_channels_coexist_without_misses() {
    let (config, topo, mut sim, mut manager) = build(4);
    // A ring of channels around the mesh edge plus two diagonals.
    let pairs = [
        ((0u16, 0u16), (3u16, 0u16)),
        ((3, 0), (3, 3)),
        ((3, 3), (0, 3)),
        ((0, 3), (0, 0)),
        ((0, 0), (3, 3)),
        ((3, 0), (0, 3)),
        ((1, 1), (2, 2)),
        ((2, 1), (1, 2)),
    ];
    let mut channels = Vec::new();
    for (s, d) in pairs {
        let src = topo.node_at(s.0, s.1);
        let dst = topo.node_at(d.0, d.1);
        let depth = topo.dor_route(src, dst).len() as u32 + 1;
        let channel = manager
            .establish(
                &topo,
                ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), depth * 7),
                &mut sim,
            )
            .unwrap();
        channels.push(channel);
    }
    for channel in &channels {
        add_periodic_sender(&mut sim, channel, 16, channel.id % 16, channel.id as u8);
    }
    sim.run(80_000);
    let mut total = 0;
    for channel in &channels {
        let dst = channel.request.destinations[0];
        let log = sim.log(dst);
        assert_eq!(log.tc_deadline_misses(config.slot_bytes), 0);
        total += log.tc.len();
    }
    assert!(total > 1500, "delivered {total}");
}

#[test]
fn teardown_frees_capacity_and_clears_tables() {
    let (_config, topo, mut sim, mut manager) = build(2);
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(1, 0);
    let spec = TrafficSpec::periodic(4, 18);
    let request = || ChannelRequest::unicast(src, dst, spec, 8);
    let a = manager.establish(&topo, request(), &mut sim).unwrap();
    let _b = manager.establish(&topo, request(), &mut sim).unwrap();
    assert!(manager.establish(&topo, request(), &mut sim).is_err());
    let a_conn = a.ingress;
    manager.teardown(a.id, &mut sim).unwrap();
    assert!(
        sim.chip(src).connection_table().lookup(a_conn).is_none(),
        "teardown clears the table entry"
    );
    // The freed capacity is available again, but the freed *identifier*
    // goes to the back of the generation-ordered reuse queue: a fresh
    // establishment prefers a never-released id, so a recycled id cannot
    // meet its predecessor's in-flight packets (tests/churn.rs pins the
    // forced-exhaustion case where reuse actually happens).
    let c = manager.establish(&topo, request(), &mut sim).unwrap();
    assert_ne!(c.ingress, a_conn, "freed identifier must not be reused while fresh ids remain");
}

#[test]
fn connection_ids_are_reused_across_disjoint_channels() {
    let (_config, topo, mut sim, mut manager) = build(4);
    // Two channels in disjoint regions can share numeric identifiers.
    let a = manager
        .establish(
            &topo,
            ChannelRequest::unicast(
                topo.node_at(0, 0),
                topo.node_at(1, 0),
                TrafficSpec::periodic(16, 18),
                16,
            ),
            &mut sim,
        )
        .unwrap();
    let b = manager
        .establish(
            &topo,
            ChannelRequest::unicast(
                topo.node_at(3, 3),
                topo.node_at(2, 3),
                TrafficSpec::periodic(16, 18),
                16,
            ),
            &mut sim,
        )
        .unwrap();
    assert_eq!(a.ingress, b.ingress, "identifiers are per-node, not global");
}
