//! Event-driven leaping sweep: stepped vs leaping wall-clock across
//! injection rates.
//!
//! Builds an 8×8 mesh carrying four one-hop periodic TC channels whose
//! period sets the offered load (a period of `p` slots puts roughly `1/p`
//! of each source link's cycles under traffic), then runs the identical
//! workload through [`Simulator::run`] and [`Simulator::run_leaping`] and
//! reports the wall-clock ratio, alongside the wake-precision counters of
//! the leaping run (`rtr leaping`). The results back the "Event-driven
//! leaping" and "Event core" sections of `EXPERIMENTS.md`. This is the one
//! module of the crate that reads a clock: the ratio *is* the experiment,
//! and each point asserts both drives delivered alike. Recorded timings
//! of the same sparse meshes are the benchmark's `sparse_leap` and
//! `mega_cold` workloads (`benchmark/README.md`).

use std::time::Instant;

use rtr_channels::establish::{EstablishedChannel, Hop};
use rtr_channels::sender::ChannelSender;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::control::ControlCommand;
use rtr_core::RealTimeRouter;
use rtr_mesh::{Simulator, Topology};
use rtr_types::chip::WakeStats;
use rtr_types::config::RouterConfig;
use rtr_types::ids::{ConnectionId, Direction, Port};
use rtr_workloads::tc::PeriodicTcSource;

/// One row of the sweep: a single period (injection rate) measured both
/// ways over the same simulated span.
#[derive(Debug, Clone, Copy)]
pub struct LeapingPoint {
    /// Channel period in slots; injection fraction ≈ `1 / period`.
    pub period_slots: u64,
    /// Simulated cycles covered by both runs.
    pub cycles: u64,
    /// Wall-clock seconds for the plain stepped run (best of iters).
    pub stepped_s: f64,
    /// Wall-clock seconds for the leaping run (best of iters).
    pub leaping_s: f64,
    /// Chip ticks executed by the stepped run.
    pub stepped_ticks: u64,
    /// Chip ticks executed by the leaping run.
    pub leaping_ticks: u64,
    /// Aggregated `next_event` wake-precision counters from the leaping
    /// run — the measure of how much leapable time the chips' conservative
    /// wake predictions forego (ROADMAP's "shave the conservatism" item).
    /// Sourced from the unified metrics registry (`wake.*` counters), so
    /// the fields are zero unless the `metrics` feature is enabled.
    pub wake: WakeStats,
}

impl LeapingPoint {
    /// Wall-clock speedup of leaping over stepping.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.stepped_s / self.leaping_s
    }

    /// Fraction of wake polls that answered "next cycle" (`now + 1`) —
    /// each one pins the simulator to plain stepping for a cycle.
    #[must_use]
    pub fn short_poll_rate(&self) -> f64 {
        if self.wake.polls == 0 {
            return 0.0;
        }
        self.wake.short_polls as f64 / self.wake.polls as f64
    }
}

/// Builds a `width × height` sweep mesh with four one-hop periodic TC
/// channels on rows spread across the height (rows 0, h/4, 5h/8, and h−1 —
/// for an 8-row mesh exactly the historical rows 0, 2, 5, 7).
///
/// # Panics
///
/// Panics if the mesh is narrower than 2 columns or shorter than 4 rows.
#[must_use]
pub fn periodic_mesh_sized(
    width: u16,
    height: u16,
    period_slots: u64,
) -> Simulator<RealTimeRouter> {
    const DELAY: u32 = 6;
    assert!(width >= 2 && height >= 4, "sweep mesh needs at least 2 columns and 4 rows");
    let config = RouterConfig::default();
    let topo = Topology::mesh(width, height);
    // One template validates the config and builds the routing table once;
    // every router shares them, which is what keeps mega-mesh construction
    // (128×128 = 16 384 routers) from being dominated by per-router setup.
    let template = rtr_core::RouterTemplate::new(config.clone()).unwrap();
    let mut sim =
        Simulator::build(topo.clone(), |_| Ok::<_, std::convert::Infallible>(template.build()))
            .unwrap();
    let rows = [0, height / 4, height * 5 / 8, height - 1];
    for (i, y) in rows.into_iter().enumerate() {
        let conn = ConnectionId(10 + i as u16);
        let src = topo.node_at(0, y);
        let dst = topo.node_at(1, y);
        sim.chip_mut(src)
            .apply_control(ControlCommand::SetConnection {
                incoming: conn,
                outgoing: conn,
                delay: DELAY,
                out_mask: Port::Dir(Direction::XPlus).mask(),
            })
            .unwrap();
        sim.chip_mut(dst)
            .apply_control(ControlCommand::SetConnection {
                incoming: conn,
                outgoing: conn,
                delay: DELAY,
                out_mask: Port::Local.mask(),
            })
            .unwrap();
        let channel = EstablishedChannel {
            id: u64::from(conn.0),
            ingress: conn,
            depth: 2,
            guaranteed: 2 * DELAY,
            hops: vec![
                Hop {
                    node: src,
                    conn,
                    out_conn: conn,
                    delay: DELAY,
                    out_mask: Port::Dir(Direction::XPlus).mask(),
                    buffers: 2,
                },
                Hop {
                    node: dst,
                    conn,
                    out_conn: conn,
                    delay: DELAY,
                    out_mask: Port::Local.mask(),
                    buffers: 2,
                },
            ],
            request: ChannelRequest::unicast(
                src,
                dst,
                TrafficSpec::periodic(period_slots as u32, 18),
                2 * DELAY,
            ),
        };
        let sender = ChannelSender::new(
            &channel,
            sim.chip(src).clock(),
            config.slot_bytes,
            config.tc_data_bytes(),
        );
        sim.add_source(
            src,
            Box::new(PeriodicTcSource::new(
                sender,
                period_slots,
                0,
                config.slot_bytes,
                vec![0xA0 + i as u8; config.tc_data_bytes()],
            )),
        );
    }
    sim
}

/// Measures one period both ways (best wall-clock of `iters` runs each)
/// and asserts the two runs delivered identically along the way.
#[must_use]
pub fn measure(period_slots: u64, cycles: u64, iters: usize) -> LeapingPoint {
    let mut stepped_s = f64::INFINITY;
    let mut leaping_s = f64::INFINITY;
    let mut stepped_ticks = 0;
    let mut leaping_ticks = 0;
    let mut stepped_delivered = 0;
    let mut leaping_delivered = 0;
    let mut wake = WakeStats::default();
    for _ in 0..iters {
        let mut sim = periodic_mesh_sized(8, 8, period_slots);
        let start = Instant::now();
        sim.run(cycles);
        stepped_s = stepped_s.min(start.elapsed().as_secs_f64());
        stepped_ticks = sim.ticks_executed();
        stepped_delivered = sim.topology().nodes().map(|n| sim.log(n).tc.len()).sum();

        let mut sim = periodic_mesh_sized(8, 8, period_slots);
        let start = Instant::now();
        sim.run_leaping(cycles);
        leaping_s = leaping_s.min(start.elapsed().as_secs_f64());
        leaping_ticks = sim.ticks_executed();
        leaping_delivered = sim.topology().nodes().map(|n| sim.log(n).tc.len()).sum();
        // Read the wake counters back through the metrics registry rather
        // than the chips directly: the export surface every other reader
        // of these counters uses.
        let snapshot = sim.metrics_snapshot();
        wake = WakeStats {
            polls: snapshot.counter("wake.polls").unwrap_or(0),
            short_polls: snapshot.counter("wake.short_polls").unwrap_or(0),
            sync_guard_only: snapshot.counter("wake.sync_guard_only").unwrap_or(0),
            sync_guard_foregone: snapshot.counter("wake.sync_guard_foregone").unwrap_or(0),
        };
    }
    assert_eq!(
        stepped_delivered, leaping_delivered,
        "stepped and leaping runs must deliver identically"
    );
    LeapingPoint { period_slots, cycles, stepped_s, leaping_s, stepped_ticks, leaping_ticks, wake }
}

/// Runs the default sweep: ~1%, ~10%, and ~50% injection.
#[must_use]
pub fn run(cycles: u64, iters: usize) -> Vec<LeapingPoint> {
    [64, 10, 2].into_iter().map(|period| measure(period, cycles, iters)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_cover_the_same_span_and_agree() {
        let point = measure(64, 2_000, 1);
        assert_eq!(point.cycles, 2_000);
        assert!(
            point.leaping_ticks < point.stepped_ticks,
            "sparse load must leap: {} vs {}",
            point.leaping_ticks,
            point.stepped_ticks
        );
        assert_eq!(point.stepped_ticks, 64 * 2_000);
    }
}
