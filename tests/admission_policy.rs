//! Integration: why the paper's admission control needs the full demand
//! criterion — a naive utilisation-only test admits channel sets whose
//! tight deadlines then miss on the real hardware model, while everything
//! the demand criterion admits is delivered on time.

use realtime_router::channels::{
    AdmissionPolicy, ChannelManager, ChannelRequest, EstablishedChannel, TrafficSpec,
};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::prelude::*;
use rtr_bench::util::add_periodic_sender;

/// Nine phase-aligned connections, all due within 3 slots of their
/// release, converging on the centre of a 3×3 mesh from four directions
/// (two channels each) plus a local channel. Utilisation is tiny
/// (period 100), but nine packets cannot clear one port inside the
/// deadline window.
fn offered(topo: &Topology) -> Vec<ChannelRequest> {
    let dst = topo.node_at(1, 1);
    let spec = TrafficSpec::periodic(100, 18);
    let mut requests = Vec::new();
    for (x, y) in [(0, 1), (2, 1), (1, 0), (1, 2)] {
        for _ in 0..2 {
            requests.push(ChannelRequest::unicast(topo.node_at(x, y), dst, spec, 6));
        }
    }
    requests.push(ChannelRequest::unicast(dst, dst, spec, 3));
    requests
}

fn run(policy: AdmissionPolicy) -> (usize, usize, usize) {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 3);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut manager = ChannelManager::new(&config);
    manager.set_policy(policy);

    let mut admitted: Vec<EstablishedChannel> = Vec::new();
    for request in offered(&topo) {
        if let Ok(ch) = manager.establish(&topo, request, &mut sim) {
            admitted.push(ch);
        }
    }
    for ch in &admitted {
        add_periodic_sender(&mut sim, ch, 100, 0, 0x77);
    }
    sim.run(60_000);

    let dst = topo.node_at(1, 1);
    let log = sim.log(dst);
    (admitted.len(), log.tc.len(), log.tc_deadline_misses(config.slot_bytes))
}

#[test]
fn demand_criterion_is_sound() {
    let (admitted, delivered, misses) = run(AdmissionPolicy::DemandCriterion);
    assert!(admitted >= 1, "something must be admissible");
    assert!(admitted < 9, "the demand test must reject part of the overload");
    assert!(delivered > 0);
    assert_eq!(misses, 0, "whatever the demand criterion admits is on time");
}

#[test]
fn utilization_only_is_unsound() {
    let (admitted, delivered, misses) = run(AdmissionPolicy::UtilizationOnly);
    assert_eq!(admitted, 9, "utilisation-only waves the whole overload through");
    assert!(delivered > 0);
    assert!(misses > 0, "the naive policy must produce deadline misses ({delivered} delivered)");
}
