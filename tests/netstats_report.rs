//! Integration: the network-report instrumentation captures a coherent
//! whole-network picture.

use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{NetworkReport, Simulator, Topology};
use realtime_router::prelude::*;
use realtime_router::workloads::be::BackloggedBeSource;
use rtr_bench::util::add_periodic_sender;

#[test]
fn report_reflects_the_simulation() {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 1);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(2, 0);
    let mut manager = ChannelManager::new(&config);
    let channel = manager
        .establish(
            &topo,
            ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 42),
            &mut sim,
        )
        .unwrap();
    add_periodic_sender(&mut sim, &channel, 16, 0, 2);
    sim.add_source(src, Box::new(BackloggedBeSource::new(&topo, src, dst, 60, 2)));
    sim.run(40_000);

    let report = NetworkReport::capture(&sim, config.slot_bytes);
    assert_eq!(report.cycles, 40_000);
    assert_eq!(report.deadline_misses, 0);
    assert_eq!(report.tc_delivered, sim.log(dst).tc.len());
    assert_eq!(report.tc_latency.count() as usize, report.tc_delivered);
    assert!(report.be_delivered > 0);
    // Latency statistics are consistent with the raw log.
    let max_raw = *sim.log(dst).tc_latencies().iter().max().unwrap();
    assert_eq!(report.tc_latency.max(), max_raw);
    assert!(report.tc_latency.percentile(100.0) >= report.tc_latency.percentile(50.0));
    // Both row-0 links carried traffic; the hottest link is one of them.
    let (hot_node, hot_dir, usage) = report.hottest_links(1)[0];
    assert!(usage.tc_symbols > 0 && usage.be_symbols > 0);
    assert!(
        (hot_node == src || hot_node == topo.node_at(1, 0)) && hot_dir == Direction::XPlus,
        "hottest link must be on the row-0 path: {hot_node}/{hot_dir}"
    );
    // Link symbol counts match the deliveries (20 bytes per TC packet per
    // link hop; deliveries crossed both links).
    let expected = report.tc_delivered * config.slot_bytes;
    assert!(
        usage.tc_symbols as usize >= expected
            && usage.tc_symbols as usize <= expected + 2 * config.slot_bytes,
        "every delivered packet crossed the hot link once (± in-flight): {} vs {}",
        usage.tc_symbols,
        expected
    );
}
