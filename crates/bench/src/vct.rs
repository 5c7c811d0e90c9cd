//! Extension experiment X7 (paper §7): virtual cut-through for
//! time-constrained traffic.
//!
//! "The router can improve link utilization and average latency by using
//! virtual cut-through switching for time-constrained traffic; this would
//! permit an arriving packet to proceed directly to its output link if no
//! other packets have smaller sorting keys."
//!
//! A lightly loaded periodic connection crosses chains of increasing
//! length with generous horizons; the ablation compares the fabricated
//! chip's store-and-forward behaviour against the cut-through extension.
//! Cut-through skips the packet's full reception, storage, and scheduling
//! waits at every hop, so the per-hop saving is roughly the packet length
//! plus the store/schedule latency — while guarantees are untouched.

use rtr_channels::establish::ChannelManager;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::control::ControlCommand;
use rtr_core::RealTimeRouter;
use rtr_mesh::stats::LatencySummary;
use rtr_mesh::{Simulator, Topology};
use rtr_types::chip::Chip;
use rtr_types::config::RouterConfig;
use rtr_types::time::Cycle;

use crate::util::add_periodic_sender;

/// One row of the ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VctRow {
    /// Network links crossed.
    pub hops: u16,
    /// Mean latency with the paper's store-and-forward, cycles.
    pub buffered_latency: f64,
    /// Mean latency with virtual cut-through, cycles.
    pub cut_latency: f64,
    /// Fraction of hop traversals that cut through.
    pub cut_fraction: f64,
    /// Deadline misses summed over both runs (must stay zero).
    pub misses: usize,
}

impl VctRow {
    /// Average cycles saved per hop by cut-through.
    #[must_use]
    pub fn saving_per_hop(&self) -> f64 {
        (self.buffered_latency - self.cut_latency) / f64::from(self.hops)
    }
}

fn run_chain(hops: u16, cut: bool, total_cycles: Cycle) -> (f64, f64, usize) {
    let config = RouterConfig { tc_cut_through: cut, ..RouterConfig::default() };
    let topo = Topology::mesh(hops + 1, 1);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(hops, 0);
    let mut manager = ChannelManager::new(&config);
    manager.set_assumed_horizon(16);
    let i_min = 32;
    // Tight per-hop bounds (d = 3 slots) keep the packet near its logical
    // schedule at every hop, so downstream earliness stays within the
    // horizon — the regime where cut-through pays at every traversal.
    let channel = manager
        .establish(
            &topo,
            ChannelRequest::unicast(
                src,
                dst,
                TrafficSpec::periodic(i_min, 18),
                (u32::from(hops) + 1) * 3,
            ),
            &mut sim,
        )
        .expect("light load must be admissible");
    // Generous horizons let early packets proceed (the regime where
    // cut-through pays; guarantees rely on the reserved buffers either
    // way).
    for node in topo.nodes() {
        sim.chip_mut(node)
            .apply_control(ControlCommand::SetHorizon { port_mask: 0b1_1111, horizon: 16 })
            .unwrap();
    }
    add_periodic_sender(&mut sim, &channel, u64::from(i_min), 0, 0xCC);
    sim.run(total_cycles);
    let log = sim.log(dst);
    let mean = LatencySummary::of(&log.tc_latencies()).mean;
    let cut_events: u64 = topo.nodes().map(|n| sim.chip(n).stats().tc_cut_through).sum();
    let traversals: u64 =
        topo.nodes().map(|n| sim.chip(n).stats().tc_transmitted.iter().sum::<u64>()).sum();
    let fraction = if traversals == 0 { 0.0 } else { cut_events as f64 / traversals as f64 };
    (mean, fraction, log.tc_deadline_misses(config.slot_bytes))
}

/// Runs the ablation for each chain length.
#[must_use]
pub fn run(hop_counts: &[u16], total_cycles: Cycle) -> Vec<VctRow> {
    hop_counts
        .iter()
        .map(|&hops| {
            let (buffered_latency, _, m1) = run_chain(hops, false, total_cycles);
            let (cut_latency, cut_fraction, m2) = run_chain(hops, true, total_cycles);
            VctRow { hops, buffered_latency, cut_latency, cut_fraction, misses: m1 + m2 }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_through_saves_latency_per_hop_without_misses() {
        let rows = run(&[1, 3], 40_000);
        for r in &rows {
            assert_eq!(r.misses, 0, "cut-through must not break guarantees");
            assert!(
                r.saving_per_hop() > 15.0,
                "expected ≥ 15 cycles saved per hop, got {} at {} hops",
                r.saving_per_hop(),
                r.hops
            );
            assert!(r.cut_fraction > 0.5, "most traversals cut: {}", r.cut_fraction);
        }
        // The saving compounds with route length.
        assert!(
            rows[1].buffered_latency - rows[1].cut_latency
                > rows[0].buffered_latency - rows[0].cut_latency
        );
    }
}
