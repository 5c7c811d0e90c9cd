//! Integration: the §4.3 clock machinery under stress — long runs crossing
//! many 8-bit clock wraps, and bounded per-node clock skew (§4.1).

use realtime_router::channels::{ChannelManager, ChannelRequest, TrafficSpec};
use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::types::config::RouterConfig;
use rtr_bench::util::add_periodic_sender;

fn run_chain(skews: &[u64], cycles: u64) -> (usize, usize, u64) {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 1);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    for (i, node) in topo.nodes().enumerate() {
        sim.chip_mut(node).set_clock_skew(skews.get(i).copied().unwrap_or(0));
    }
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
    add_periodic_sender(&mut sim, &channel, 16, 0, 5);
    sim.run(cycles);
    let aliased: u64 = topo.nodes().map(|n| sim.chip(n).stats().aliased_keys).sum();
    (sim.log(dst).tc.len(), sim.log(dst).tc_deadline_misses(config.slot_bytes), aliased)
}

#[test]
fn guarantees_survive_many_clock_rollovers() {
    // 400 000 cycles = 20 000 slots ≈ 78 wraps of the 8-bit clock.
    let (delivered, misses, aliased) = run_chain(&[0, 0, 0], 400_000);
    assert!(delivered > 1_200, "delivered {delivered}");
    assert_eq!(misses, 0, "rollover must be transparent to guarantees");
    assert_eq!(aliased, 0, "no key aliasing for admitted traffic");
}

#[test]
fn small_bounded_skew_preserves_guarantees() {
    // Skews of a few slots, well below the admissible window.
    let (delivered, misses, _) = run_chain(&[0, 2, 1], 200_000);
    assert!(delivered > 600);
    assert_eq!(misses, 0, "bounded skew is absorbed by the delay bounds");
}

#[test]
fn skew_ahead_at_downstream_nodes_tightens_but_keeps_deadlines() {
    // A downstream clock running ahead makes packets look later than they
    // are (less laxity) — deliveries speed up, deadlines still hold.
    let (_, misses_base, _) = run_chain(&[0, 0, 0], 150_000);
    let (_, misses_skew, _) = run_chain(&[0, 3, 3], 150_000);
    assert_eq!(misses_base, 0);
    assert_eq!(misses_skew, 0);
}

#[test]
fn excessive_skew_is_detectable_via_aliasing_counters() {
    // A skew beyond half the clock range violates the §4.3 window: the
    // chip's aliasing counter exposes the misconfiguration.
    let (_, _, aliased) = run_chain(&[0, 200, 0], 100_000);
    assert!(aliased > 0, "skew past the half-range window must surface as aliased keys");
}
