//! Extension experiment X12 (paper §7: "larger network configurations and
//! more diverse traffic patterns"): the classic load–latency curve of the
//! best-effort class, with and without real-time reservations underneath.
//!
//! Uniform random best-effort traffic is offered at increasing rates on a
//! 4×4 mesh while a grid of time-constrained channels consumes a fixed
//! fraction of every row link. The expected shape: best-effort latency
//! rises gently until the knee, then sharply as the network saturates; the
//! knee moves left as the reserved fraction grows — but the reservations
//! themselves never miss.

use rtr_channels::establish::ChannelManager;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::RealTimeRouter;
use rtr_mesh::stats::LatencySummary;
use rtr_mesh::{Simulator, Topology};
use rtr_types::config::RouterConfig;
use rtr_types::time::Cycle;
use rtr_workloads::be::SizeDist;
use rtr_workloads::tc::BackloggedTcSource;

/// One point on the load–latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Reserved time-constrained period (slots); `None` = no reservations.
    pub tc_period: Option<u32>,
    /// Offered best-effort injection rate (packets/cycle/node).
    pub offered: f64,
    /// Best-effort packets delivered.
    pub be_delivered: usize,
    /// Mean best-effort latency, cycles.
    pub be_mean: f64,
    /// 99th-percentile best-effort latency, cycles.
    pub be_p99: Cycle,
    /// Accepted best-effort throughput (delivered packets per cycle per
    /// node).
    pub throughput: f64,
    /// Deadline misses of the reserved channels (must stay zero).
    pub tc_misses: usize,
}

/// Runs one point.
///
/// # Panics
///
/// Panics only on internal simulation errors.
#[must_use]
pub fn run_point(tc_period: Option<u32>, offered: f64, total_cycles: Cycle) -> LoadPoint {
    let config = RouterConfig::default();
    let topo = Topology::mesh(4, 4);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();

    // Reservations: one backlogged channel per row, west to east, so every
    // row link carries a `20/period` reserved fraction.
    if let Some(period) = tc_period {
        let mut manager = ChannelManager::new(&config);
        for y in 0..topo.height() {
            let src = topo.node_at(0, y);
            let dst = topo.node_at(topo.width() - 1, y);
            let channel = manager
                .establish(
                    &topo,
                    ChannelRequest::unicast(
                        src,
                        dst,
                        TrafficSpec::periodic(period, 18),
                        4 * period.min(12),
                    ),
                    &mut sim,
                )
                .expect("row reservations must be admissible");
            sim.add_source(
                src,
                Box::new(BackloggedTcSource::new(
                    crate::util::sender_for(&sim, &channel),
                    period,
                    2,
                    config.slot_bytes,
                    vec![0x55; config.tc_data_bytes()],
                )),
            );
        }
    }

    crate::util::add_uniform_be(&mut sim, offered, SizeDist::Fixed(28), 0x10AD, 16);

    sim.run(total_cycles);

    let mut be_lat = Vec::new();
    let mut be_delivered = 0;
    let mut tc_misses = 0;
    for node in topo.nodes() {
        let log = sim.log(node);
        be_lat.extend(log.be_latencies());
        be_delivered += log.be.len();
        tc_misses += log.tc_deadline_misses(config.slot_bytes);
    }
    let s = LatencySummary::of(&be_lat);
    LoadPoint {
        tc_period,
        offered,
        be_delivered,
        be_mean: s.mean,
        be_p99: s.p99,
        throughput: be_delivered as f64 / total_cycles as f64 / topo.len() as f64,
        tc_misses,
    }
}

/// Runs the full grid.
#[must_use]
pub fn run(
    tc_periods: &[Option<u32>],
    offered_rates: &[f64],
    total_cycles: Cycle,
) -> Vec<LoadPoint> {
    let mut points = Vec::new();
    for &period in tc_periods {
        for &rate in offered_rates {
            points.push(run_point(period, rate, total_cycles));
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_rises_with_load_and_reservations_never_miss() {
        let light = run_point(Some(8), 0.002, 30_000);
        let heavy = run_point(Some(8), 0.02, 30_000);
        assert!(light.be_delivered > 50);
        assert!(heavy.be_delivered > light.be_delivered);
        assert!(
            heavy.be_mean > light.be_mean,
            "load must push latency up: {} vs {}",
            heavy.be_mean,
            light.be_mean
        );
        assert_eq!(light.tc_misses, 0);
        assert_eq!(heavy.tc_misses, 0);
    }

    #[test]
    fn reservations_shift_the_curve_up() {
        let free = run_point(None, 0.01, 30_000);
        let reserved = run_point(Some(8), 0.01, 30_000);
        assert!(
            reserved.be_mean > free.be_mean,
            "reserved bandwidth must cost best-effort latency: {} vs {}",
            reserved.be_mean,
            free.be_mean
        );
    }
}
