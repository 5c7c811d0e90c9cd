//! Property-based integration tests: randomized admitted channel sets on
//! randomized meshes always meet every deadline — the system-level
//! statement of the paper's central claim.

use proptest::prelude::*;
use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::types::chip::Chip;
use realtime_router::types::config::RouterConfig;
use realtime_router::types::ids::NodeId;
use realtime_router::workloads::be::{RandomBeSource, SizeDist};
use realtime_router::workloads::patterns::TrafficPattern;
use rtr_bench::util::add_periodic_sender;

/// A compact description of one randomized scenario.
#[derive(Debug, Clone)]
struct Scenario {
    width: u16,
    height: u16,
    /// (src, dst, i_min, per-hop delay) seeds; indices reduced mod node
    /// count.
    channels: Vec<(u16, u16, u32, u32)>,
    be_rate: f64,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        2u16..=4,
        1u16..=4,
        proptest::collection::vec((0u16..64, 0u16..64, 0usize..3, 4u32..=8), 1..6),
        0.0f64..0.3,
        any::<u64>(),
    )
        .prop_map(|(width, height, raw, be_rate, seed)| Scenario {
            width,
            height,
            channels: raw
                .into_iter()
                .map(|(s, d, imin_idx, dper)| (s, d, [8u32, 16, 32][imin_idx], dper))
                .collect(),
            be_rate,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs a full network simulation
        .. ProptestConfig::default()
    })]

    /// No horizon value can break guarantees: early transmission is pure
    /// opportunism on top of the reservation (§2's claim that the horizon
    /// trades buffers for latency, never correctness).
    #[test]
    fn any_horizon_preserves_guarantees(s in arb_scenario(), h_raw in 0u32..100) {
        use realtime_router::core::ControlCommand;
        let config = RouterConfig::default();
        let topo = Topology::mesh(s.width, s.height);
        let n = topo.len() as u16;
        let mut sim =
            Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
        let mut manager = ChannelManager::new(&config);
        let horizon = h_raw % 64;
        manager.set_assumed_horizon(horizon);
        for node in topo.nodes() {
            sim.chip_mut(node)
                .apply_control(ControlCommand::SetHorizon { port_mask: 0b1_1111, horizon })
                .unwrap();
        }
        let mut any = false;
        for (rs, rd, i_min, d_per) in &s.channels {
            let src = NodeId(rs % n);
            let dst = NodeId(rd % n);
            if src == dst {
                continue;
            }
            let depth = topo.dor_route(src, dst).len() as u32 + 1;
            let d_per = (*d_per).min(*i_min);
            let request = ChannelRequest::unicast(
                src,
                dst,
                TrafficSpec::periodic(*i_min, 18),
                depth * d_per,
            );
            if let Ok(ch) = manager.establish(&topo, request, &mut sim) {
                any = true;
                add_periodic_sender(&mut sim, &ch, u64::from(ch.request.spec.i_min), ch.id % 4, 8);
            }
        }
        sim.run(25_000);
        for node in topo.nodes() {
            prop_assert_eq!(
                sim.log(node).tc_deadline_misses(config.slot_bytes),
                0,
                "horizon {} broke guarantees in {:?}",
                horizon,
                s
            );
            prop_assert_eq!(sim.chip(node).stats().tc_dropped(), 0);
        }
        let _ = any;
    }

    /// Whatever the admission controller accepts, the network delivers on
    /// time — under arbitrary meshes, channel mixes, and background load.
    #[test]
    fn admitted_traffic_always_meets_deadlines(s in arb_scenario()) {
        let config = RouterConfig::default();
        let topo = Topology::mesh(s.width, s.height);
        let n = topo.len() as u16;
        let mut sim =
            Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
        let mut manager = ChannelManager::new(&config);

        let mut admitted = Vec::new();
        for (rs, rd, i_min, d_per) in &s.channels {
            let src = NodeId(rs % n);
            let dst = NodeId(rd % n);
            if src == dst {
                continue;
            }
            let depth = topo.dor_route(src, dst).len() as u32 + 1;
            let d_per = (*d_per).min(*i_min);
            let request = ChannelRequest::unicast(
                src,
                dst,
                TrafficSpec::periodic(*i_min, 18),
                depth * d_per,
            );
            if let Ok(ch) = manager.establish(&topo, request, &mut sim) {
                admitted.push(ch);
            }
        }
        for ch in &admitted {
            add_periodic_sender(&mut sim, ch, u64::from(ch.request.spec.i_min), ch.id % 4, 7);
        }
        if s.be_rate > 0.0 && topo.len() > 1 {
            for node in topo.nodes() {
                sim.add_source(
                    node,
                    Box::new(
                        RandomBeSource::new(
                            topo.clone(),
                            TrafficPattern::Uniform,
                            s.be_rate,
                            SizeDist::Uniform(8, 40),
                            s.seed ^ u64::from(node.0),
                        )
                        .with_max_queue(6),
                    ),
                );
            }
        }

        sim.run(30_000);

        let mut delivered = 0usize;
        for node in topo.nodes() {
            let log = sim.log(node);
            prop_assert_eq!(
                log.tc_deadline_misses(config.slot_bytes),
                0,
                "admitted traffic missed a deadline in {:?}",
                s
            );
            delivered += log.tc.len();
            prop_assert_eq!(sim.chip(node).stats().aliased_keys, 0);
            prop_assert_eq!(sim.chip(node).stats().tc_dropped(), 0);
        }
        if !admitted.is_empty() {
            prop_assert!(delivered > 0, "admitted channels must make progress");
        }
    }
}
