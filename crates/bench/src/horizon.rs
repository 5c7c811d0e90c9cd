//! Extension experiment X1: the horizon trade-off (paper §2, §4.1).
//!
//! "Larger horizon values permit earlier transmission of time-constrained
//! packets, but require connections to reserve more buffer space at the
//! downstream node." A backlogged connection crosses a three-node chain and
//! each horizon value is evaluated two ways:
//!
//! * **horizon on every port** (including the destination's reception
//!   port): early traffic flows all the way through, so mean end-to-end
//!   latency falls as `h` grows;
//! * **horizon on network ports only**: the reception port still enforces
//!   eligibility, so traffic released early upstream *accumulates at the
//!   destination router* — the measured occupancy and the paper's §2
//!   reservation formula both grow with `h`.

use rtr_channels::admission::buffers_needed;
use rtr_channels::establish::ChannelManager;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::control::ControlCommand;
use rtr_core::RealTimeRouter;
use rtr_mesh::stats::LatencySummary;
use rtr_mesh::{Simulator, Topology};
use rtr_types::chip::Chip;
use rtr_types::config::RouterConfig;
use rtr_types::ids::Port;
use rtr_types::time::Cycle;
use rtr_workloads::tc::BackloggedTcSource;

use crate::util::sender_for;

const I_MIN: u32 = 16;
const DEADLINE: u32 = 48;

/// One row of the horizon sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HorizonRow {
    /// Horizon register value, slots.
    pub horizon: u32,
    /// Mean end-to-end latency (cycles) with the horizon on every port.
    pub mean_latency: f64,
    /// Early transmissions summed over the route (all-ports run).
    pub early_transmissions: u64,
    /// Peak destination-router memory occupancy when the reception port
    /// still enforces eligibility (network-ports-only run).
    pub dst_held_packets: usize,
    /// Buffers the §2 formula requires the connection to reserve at the
    /// destination for this horizon.
    pub required_reservation: usize,
    /// End-to-end deadline misses across both runs (must stay zero).
    pub deadline_misses: usize,
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics if channel establishment fails (the scenario is well inside
/// admissible load).
#[must_use]
pub fn run(horizons: &[u32], total_cycles: Cycle) -> Vec<HorizonRow> {
    horizons.iter().map(|&h| run_one(h, total_cycles)).collect()
}

/// Builds the 3-node chain with one backlogged channel and the given
/// horizon applied to the ports selected by `mask`.
fn build(horizon: u32, mask: u8, total_cycles: Cycle) -> (Simulator<RealTimeRouter>, u32) {
    let config = RouterConfig::default();
    let topo = Topology::mesh(3, 1);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = topo.node_at(0, 0);
    let dst = topo.node_at(2, 0);

    let mut manager = ChannelManager::new(&config);
    manager.set_assumed_horizon(horizon);
    let channel = manager
        .establish(
            &topo,
            ChannelRequest::unicast(src, dst, TrafficSpec::periodic(I_MIN, 18), DEADLINE),
            &mut sim,
        )
        .expect("single low-utilisation channel must be admitted");
    let d_prev = channel.hops[channel.hops.len() - 2].delay;
    let d_dst = channel.hops.last().unwrap().delay;
    let required = buffers_needed(&channel.request.spec, 1, horizon, d_prev, d_dst, false) as u32;

    for node in topo.nodes() {
        sim.chip_mut(node)
            .apply_control(ControlCommand::SetHorizon { port_mask: mask, horizon })
            .unwrap();
    }
    // Lead 3 messages: logical arrival times run up to 48 slots ahead, so
    // there is plenty of "early" traffic for the horizon to release.
    sim.add_source(
        src,
        Box::new(BackloggedTcSource::new(
            sender_for(&sim, &channel),
            I_MIN,
            3,
            config.slot_bytes,
            vec![0x11; config.tc_data_bytes()],
        )),
    );
    sim.run(total_cycles);
    (sim, required)
}

fn run_one(horizon: u32, total_cycles: Cycle) -> HorizonRow {
    let topo = Topology::mesh(3, 1);
    let dst = topo.node_at(2, 0);
    let slot_bytes = RouterConfig::default().slot_bytes;

    // Run 1: horizon on every port — latency improvement.
    let (through, _) = build(horizon, 0b1_1111, total_cycles);
    let latencies = through.log(dst).tc_latencies();
    let early: u64 = topo
        .nodes()
        .map(|n| through.chip(n).stats().tc_early_transmitted.iter().sum::<u64>())
        .sum();
    let misses_a = through.log(dst).tc_deadline_misses(slot_bytes);

    // Run 2: horizon on network ports only — downstream buffering cost.
    let network_mask = 0b1_1111 & !Port::Local.mask();
    let (held, required) = build(horizon, network_mask, total_cycles);
    let misses_b = held.log(dst).tc_deadline_misses(slot_bytes);

    HorizonRow {
        horizon,
        mean_latency: LatencySummary::of(&latencies).mean,
        early_transmissions: early,
        dst_held_packets: held.chip(dst).memory_high_water(),
        required_reservation: required as usize,
        deadline_misses: misses_a + misses_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_horizons_cut_latency_and_grow_buffers() {
        let rows = run(&[0, 64], 60_000);
        assert!(
            rows[1].mean_latency < rows[0].mean_latency * 0.8,
            "h=64 latency {} must beat h=0 latency {}",
            rows[1].mean_latency,
            rows[0].mean_latency
        );
        assert!(rows[1].early_transmissions > 0);
        assert_eq!(rows[0].early_transmissions, 0, "h = 0 never sends early");
        assert!(
            rows[1].dst_held_packets > rows[0].dst_held_packets,
            "early traffic must pile up at the destination: {} vs {}",
            rows[1].dst_held_packets,
            rows[0].dst_held_packets
        );
        assert!(rows[1].required_reservation > rows[0].required_reservation);
        assert!(
            rows[1].dst_held_packets <= rows[1].required_reservation,
            "the §2 formula must cover the observed occupancy"
        );
        for row in &rows {
            assert_eq!(row.deadline_misses, 0, "horizons never break guarantees");
        }
    }
}
