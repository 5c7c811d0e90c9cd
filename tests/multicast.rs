//! Integration: table-driven multicast (§3.3) — one injected packet fans
//! out through the tree and reaches every destination by the deadline.

use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::types::config::RouterConfig;
use rtr_bench::util::sender_for;

fn setup() -> (RouterConfig, Topology, Simulator<RealTimeRouter>, ChannelManager) {
    let config = RouterConfig::default();
    let topo = Topology::mesh(4, 4);
    let sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let manager = ChannelManager::new(&config);
    (config, topo, sim, manager)
}

#[test]
fn one_send_reaches_every_destination() {
    let (config, topo, mut sim, mut manager) = setup();
    let src = topo.node_at(0, 0);
    let dsts = vec![topo.node_at(3, 0), topo.node_at(1, 2), topo.node_at(3, 3)];
    let channel = manager
        .establish(
            &topo,
            ChannelRequest::multicast(src, dsts.clone(), TrafficSpec::periodic(32, 18), 70),
            &mut sim,
        )
        .unwrap();

    let mut sender = sender_for(&sim, &channel);
    for packet in sender.make_message(0, b"fan out") {
        sim.inject_tc(src, packet);
    }
    assert!(sim.run_until(20_000, |s| dsts.iter().all(|d| !s.log(*d).tc.is_empty())));
    for dst in &dsts {
        let (_, p) = &sim.log(*dst).tc[0];
        assert!(p.payload.starts_with(b"fan out"));
        assert_eq!(sim.log(*dst).tc_deadline_misses(config.slot_bytes), 0);
    }
    // The source transmitted exactly one copy per outgoing branch, and the
    // network duplicated further downstream: total source transmissions
    // equal the source hop's mask bit count.
    let src_tx: u64 = sim.chip(src).stats().tc_transmitted.iter().sum();
    let src_mask = channel.hop_at(src).unwrap().out_mask;
    assert_eq!(src_tx, u64::from(src_mask.count_ones()));
}

#[test]
fn multicast_shares_memory_slots_per_router() {
    let (_, topo, mut sim, mut manager) = setup();
    // Destinations straight east and straight north of the source: the
    // source router itself is the fork (x-first routing exhausts x before
    // y, so (2,0) forks +x and the (0,2) branch leaves +y at the source).
    let src = topo.node_at(0, 0);
    let dsts = vec![topo.node_at(2, 0), topo.node_at(0, 2)];
    let channel = manager
        .establish(
            &topo,
            ChannelRequest {
                source: src,
                destinations: dsts.clone(),
                spec: TrafficSpec::periodic(16, 18),
                deadline: 48,
            },
            &mut sim,
        )
        .unwrap();
    let fork = channel.hop_at(src).unwrap();
    assert_eq!(fork.out_mask.count_ones(), 2, "source forks to +x and +y");

    let mut sender = sender_for(&sim, &channel);
    for packet in sender.make_message(0, b"shared slot") {
        sim.inject_tc(src, packet);
    }
    assert!(sim.run_until(20_000, |s| dsts.iter().all(|d| !s.log(*d).tc.is_empty())));
    // The fork held ONE memory slot for the packet even though two ports
    // transmitted it, and freed it after the last copy left.
    assert_eq!(sim.chip(src).memory_high_water(), 1);
    assert_eq!(sim.chip(src).memory_occupied(), 0);
}

#[test]
fn periodic_multicast_sustains_guarantees() {
    let (config, topo, mut sim, mut manager) = setup();
    let src = topo.node_at(1, 1);
    let dsts = vec![topo.node_at(3, 1), topo.node_at(1, 3), topo.node_at(0, 0)];
    let channel = manager
        .establish(
            &topo,
            ChannelRequest {
                source: src,
                destinations: dsts.clone(),
                spec: TrafficSpec::periodic(16, 18),
                deadline: 48,
            },
            &mut sim,
        )
        .unwrap();
    let mut sender = sender_for(&sim, &channel);
    for k in 0..60u64 {
        let now = sim.now();
        for packet in sender.make_message(now, &[k as u8]) {
            sim.inject_tc(src, packet);
        }
        sim.run(16 * config.slot_bytes as u64);
    }
    sim.run(10_000);
    for dst in &dsts {
        let log = sim.log(*dst);
        assert_eq!(log.tc.len(), 60, "every copy of every message at {dst}");
        assert_eq!(log.tc_deadline_misses(config.slot_bytes), 0);
    }
}
