//! Integration: the §7 extensions compose — virtual cut-through plus the
//! banded approximate scheduler (with safe band width) still deliver every
//! admitted packet on time across a mesh.

use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::prelude::*;
use realtime_router::types::config::SchedulerKind;
use realtime_router::workloads::be::{RandomBeSource, SizeDist};
use realtime_router::workloads::patterns::TrafficPattern;
use rtr_bench::util::add_periodic_sender;

#[test]
fn cut_through_plus_banded_scheduler_keep_guarantees() {
    let config = RouterConfig {
        tc_cut_through: true,
        scheduler: SchedulerKind::Banded { band_shift: 1 }, // 2-slot bands
        ..RouterConfig::default()
    };
    let topo = Topology::mesh(4, 4);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut manager = ChannelManager::new(&config);

    let pairs = [((0u16, 0u16), (3u16, 1u16)), ((3, 3), (0, 2)), ((1, 0), (2, 3))];
    let mut channels = Vec::new();
    for (s, d) in pairs {
        let src = topo.node_at(s.0, s.1);
        let dst = topo.node_at(d.0, d.1);
        let depth = topo.dor_route(src, dst).len() as u32 + 1;
        channels.push(
            manager
                .establish(
                    &topo,
                    ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), depth * 8),
                    &mut sim,
                )
                .unwrap(),
        );
    }
    for channel in &channels {
        add_periodic_sender(&mut sim, channel, 16, 0, 3);
    }
    for node in topo.nodes() {
        sim.add_source(
            node,
            Box::new(
                RandomBeSource::new(
                    topo.clone(),
                    TrafficPattern::Uniform,
                    0.1,
                    SizeDist::Uniform(8, 48),
                    0xC0FFEE ^ u64::from(node.0),
                )
                .with_max_queue(6),
            ),
        );
    }

    sim.run(80_000);

    let mut delivered = 0;
    let mut cut_events = 0;
    for node in topo.nodes() {
        let log = sim.log(node);
        assert_eq!(log.tc_deadline_misses(config.slot_bytes), 0);
        delivered += log.tc.len();
        cut_events += sim.chip(node).stats().tc_cut_through;
        assert_eq!(sim.chip(node).stats().tc_dropped(), 0);
        assert_eq!(sim.chip(node).stats().aliased_keys, 0);
    }
    assert!(delivered > 600, "delivered {delivered}");
    assert!(cut_events > 0, "cut-through fired under light load");
}
