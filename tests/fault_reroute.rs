//! Integration: steering a real-time channel around a failed link with
//! explicit routes (paper §1: disjoint routes improve "resilience to link
//! and node failures"; §3.3: table-driven routing follows whatever path
//! establishment reserves) — both planned ahead of time and live, against
//! a link killed mid-run.

use realtime_router::channels::recovery::{watch_and_recover, RecoveryConfig};
use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{FaultKind, Simulator, Topology};
use realtime_router::prelude::*;
use rtr_bench::util::add_periodic_sender;

#[test]
fn mid_run_link_kill_is_detected_and_rerouted_live() {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(2, 0);
    let far_src = topo.node_at(0, 2);
    let far_dst = topo.node_at(2, 2);

    let mut manager = ChannelManager::new(&config);
    // The victim channel runs along row 0; a disjoint bystander runs along
    // row 2 and must never notice the fault.
    let victim = manager
        .establish(
            &topo,
            ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 60),
            &mut sim,
        )
        .unwrap();
    let bystander = manager
        .establish(
            &topo,
            ChannelRequest::unicast(far_src, far_dst, TrafficSpec::periodic(16, 18), 60),
            &mut sim,
        )
        .unwrap();
    add_periodic_sender(&mut sim, &victim, 16, 0, 0x44);
    add_periodic_sender(&mut sim, &bystander, 16, 5, 0x55);

    // Kill a row-0 link mid-run, while traffic is flowing.
    let broken = (topo.node_at(1, 0), Direction::XPlus);
    sim.run(4_000);
    assert!(sim.log(dst).tc.len() > 5, "victim flowing before the fault");
    sim.schedule_fault(5_000, FaultKind::LinkDown { node: broken.0, dir: broken.1 });

    // One packet lands every 16 slots (320 cycles); a 768-cycle silence is
    // unambiguous evidence of a fault.
    let recovery = RecoveryConfig {
        check_every: 64,
        timeout: 768,
        max_cycles: 60_000,
        cycles_per_table_write: 8,
    };
    let report =
        watch_and_recover(&mut sim, &mut manager, &topo, victim.id, dst, &recovery).unwrap();

    // The monitor saw the stall after the fault fired, not before.
    assert!(report.detected_at > 5_000);
    assert!(report.suspects.contains(&broken), "localized the downed link");
    assert!(report.rerouted_at >= report.detected_at);
    assert!(report.recovered_at > report.rerouted_at);
    assert!(
        report.ingress_preserved,
        "smallest-free-id allocation must hand the sender its old ingress back"
    );
    // Post-recovery service: steady deliveries over the new route, and the
    // dead link carries nothing more.
    let dead_tc_at_recovery = sim.link_usage(broken.0, broken.1).tc_symbols;
    let delivered_at_recovery = sim.log(dst).tc.len();
    sim.run(20_000);
    assert!(
        sim.log(dst).tc.len() - delivered_at_recovery > 40,
        "victim resumed full-rate delivery ({} new arrivals)",
        sim.log(dst).tc.len() - delivered_at_recovery
    );
    assert_eq!(
        sim.link_usage(broken.0, broken.1).tc_symbols,
        dead_tc_at_recovery,
        "no time-constrained traffic crosses the dead link after the re-route"
    );

    // The bystander never misses a deadline; the victim's misses are
    // confined to the outage (lost packets are lost, not late).
    assert_eq!(sim.log(far_dst).tc_deadline_misses(config.slot_bytes), 0);
    assert!(sim.log(far_dst).tc.len() > 60, "bystander unaffected");

    // The measured windows are finite and ordered: reprogramming three
    // tables is a small slice of the total outage.
    assert!(report.reroute_latency() > 0);
    assert!(report.reroute_latency() < report.violation_window());

    // Conservation still holds link-by-link, counting the blackholed
    // symbols as lost-to-fault.
    sim.check_conservation().unwrap();
    let stats = sim.fault_stats();
    assert_eq!(stats.link_down_events, 1);
    assert!(stats.symbols_lost > 0, "the outage blackholed in-flight symbols");
}

#[test]
fn channel_routed_around_a_dead_link_still_guarantees() {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(2, 0);

    // The direct row-0 links are "failed": pick a detour and reserve it.
    let dead = [(src, Direction::XPlus), (topo.node_at(1, 0), Direction::XPlus)];
    let detour = topo.route_avoiding(src, dst, &dead).unwrap();
    for hop in &dead {
        assert!(!detour_uses(&topo, src, &detour, *hop), "detour avoids dead links");
    }

    let mut manager = ChannelManager::new(&config);
    let channel = manager
        .establish_routed(
            &topo,
            ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 60),
            std::slice::from_ref(&detour),
            &mut sim,
        )
        .unwrap();

    add_periodic_sender(&mut sim, &channel, 16, 0, 0x44);
    sim.run(50_000);

    let log = sim.log(dst);
    assert!(log.tc.len() > 120, "delivered {}", log.tc.len());
    assert_eq!(log.tc_deadline_misses(config.slot_bytes), 0);
    // The dead links carried no time-constrained traffic.
    for (node, dir) in dead {
        assert_eq!(
            sim.link_usage(node, dir).tc_symbols,
            0,
            "dead link {node}/{dir} must stay silent"
        );
    }
    // The detour's first link carried all of it.
    assert!(sim.link_usage(src, detour[0]).tc_symbols > 0);
}

fn detour_uses(
    topo: &Topology,
    src: NodeId,
    route: &[Direction],
    link: (NodeId, Direction),
) -> bool {
    let nodes = topo.walk(src, route);
    nodes.iter().zip(route).any(|(&n, &d)| (n, d) == link)
}

#[test]
fn disconnected_failures_are_reported_not_mis_routed() {
    let topo = Topology::mesh(2, 1);
    let dead = [(topo.node_at(0, 0), Direction::XPlus)];
    assert!(topo.route_avoiding(topo.node_at(0, 0), topo.node_at(1, 0), &dead).is_none());
}
