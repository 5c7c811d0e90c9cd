//! Property: arbitrary establish/teardown interleavings leave the channel
//! manager's books consistent — tearing down everything restores a clean
//! slate, and mid-sequence accounting never goes negative (reservation
//! release would panic).

use proptest::prelude::*;
use realtime_router::channels::{ChannelManager, ChannelRequest, DeferredPlane, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::prelude::*;
use realtime_router::types::config::RouterConfig;
use rtr_bench::util::sender_for;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn establish_teardown_interleavings_conserve_books(
        ops in proptest::collection::vec((any::<bool>(), 0u16..36, 0u16..36, 0usize..3), 1..40)
    ) {
        let config = RouterConfig::default();
        let topo = Topology::mesh(4, 3);
        let n = topo.len() as u16;
        let mut manager = ChannelManager::new(&config);
        let mut live: Vec<u64> = Vec::new();
        for (establish, s, d, spec_idx) in ops {
            if establish {
                let src = NodeId(s % n);
                let dst = NodeId(d % n);
                if src == dst {
                    continue;
                }
                let i_min = [8u32, 16, 32][spec_idx];
                let depth = topo.dor_route(src, dst).len() as u32 + 1;
                let request = ChannelRequest::unicast(
                    src,
                    dst,
                    TrafficSpec::periodic(i_min, 18),
                    depth * 6,
                );
                if let Ok(ch) = manager.establish(&topo, request, &mut DeferredPlane::default()) {
                    live.push(ch.id);
                }
            } else if let Some(id) = live.pop() {
                manager.teardown(id, &mut DeferredPlane::default()).unwrap();
            }
            // Reserved links always show sane utilisation.
            for row in manager.utilization_report() {
                prop_assert!(row.utilization > 0.0 && row.utilization <= 1.0 + 1e-9);
                prop_assert!(row.connections >= 1);
            }
        }
        // Tear everything down: a clean slate again.
        for id in live {
            manager.teardown(id, &mut DeferredPlane::default()).unwrap();
        }
        prop_assert!(manager.utilization_report().is_empty());
        prop_assert!(manager.channels().is_empty());
    }
}

/// Both ends of what `RouterConfig::validate` accepts for `connections`,
/// against real routers: the manager names identifiers the chip's table
/// holds, traffic arrives, and teardown returns them. (At 65 536 the old
/// scan's `u16` bound wrapped to an empty range and refused everything.)
#[test]
fn both_ends_of_the_identifier_space_program_real_routers() {
    for connections in [1usize, 65_536] {
        let config = RouterConfig { connections, ..RouterConfig::default() };
        config.validate().unwrap();
        let topo = Topology::mesh(3, 1);
        let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone()))
            .expect("a valid configuration builds");
        let mut manager = ChannelManager::new(&config);
        let (src, dst) = (topo.node_at(0, 0), topo.node_at(2, 0));
        let request = || ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 24);

        let channel = manager.establish(&topo, request(), &mut sim).unwrap();
        let mut sender = sender_for(&sim, &channel);
        for packet in sender.make_message(sim.now(), &[7; 8]) {
            sim.inject_tc(src, packet);
        }
        sim.run(2_000);
        assert_eq!(sim.log(dst).tc.len(), 1, "{connections} connections");
        assert_eq!(sim.log(dst).tc_deadline_misses(config.slot_bytes), 0);

        let second = manager.establish(&topo, request(), &mut sim);
        assert_eq!(second.is_ok(), connections > 1, "{connections} connections: {second:?}");
        manager.teardown(channel.id, &mut sim).unwrap();
        manager.establish(&topo, request(), &mut sim).expect("the identifier came back");
    }
}
