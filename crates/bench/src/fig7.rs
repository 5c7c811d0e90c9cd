//! Figure 7 (paper §5.2): time-constrained and best-effort service on a
//! single link.
//!
//! Three continually-backlogged connections with `(d, I_min)` = (4, 8),
//! (8, 16), (16, 32) in 20-byte slots, plus backlogged best-effort traffic,
//! all compete for one network link with horizon `h = 0`. The paper's
//! figure shows cumulative service: each connection receives exactly its
//! reserved share (1/8, 1/16, 1/32 of the link), every packet meets its
//! deadline, and best-effort traffic consumes the remaining bandwidth.

use rtr_channels::establish::{EstablishedChannel, Hop};
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::control::ControlCommand;
use rtr_core::RealTimeRouter;
use rtr_mesh::{Simulator, Topology};
use rtr_types::chip::Chip;
use rtr_types::config::RouterConfig;
use rtr_types::ids::{ConnectionId, Direction, NodeId, Port};
use rtr_types::time::Cycle;
use rtr_workloads::be::BackloggedBeSource;
use rtr_workloads::tc::BackloggedTcSource;

use crate::util::sender_for;

/// One sample of the cumulative-service series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Simulation time, cycles.
    pub cycle: Cycle,
    /// Cumulative bytes served per time-constrained connection.
    pub tc_bytes: [u64; 3],
    /// Cumulative best-effort bytes served.
    pub be_bytes: u64,
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// The `(d, I_min)` parameters, in slots.
    pub params: [(u32, u32); 3],
    /// Sampled cumulative service.
    pub samples: Vec<Sample>,
    /// Long-run bandwidth share per connection (bytes per cycle).
    pub tc_shares: [f64; 3],
    /// Long-run best-effort share.
    pub be_share: f64,
    /// End-to-end deadline misses observed at the destination.
    pub deadline_misses: usize,
    /// Time-constrained packets delivered.
    pub delivered: usize,
}

/// Runs the Figure 7 scenario.
///
/// `horizon` is the link's horizon parameter (the paper uses 0);
/// `be_payload` sizes the competing best-effort packets; the series is
/// sampled every `sample_every` cycles for `total_cycles`.
///
/// # Panics
///
/// Panics only on internal simulation errors.
#[must_use]
pub fn run(
    horizon: u32,
    be_payload: usize,
    total_cycles: Cycle,
    sample_every: Cycle,
) -> Fig7Result {
    let params = [(4u32, 8u32), (8, 16), (16, 32)];
    let config = RouterConfig::default();
    let topo = Topology::mesh(2, 1);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let src = NodeId(0);
    let dst = topo.node_at(1, 0);
    let out = Port::Dir(Direction::XPlus);

    for node in [src, dst] {
        sim.chip_mut(node)
            .apply_control(ControlCommand::SetHorizon { port_mask: 0b1_1111, horizon })
            .unwrap();
    }

    for (i, (d, i_min)) in params.iter().enumerate() {
        let conn = ConnectionId(i as u16 + 1);
        sim.chip_mut(src)
            .apply_control(ControlCommand::SetConnection {
                incoming: conn,
                outgoing: conn,
                delay: *d,
                out_mask: out.mask(),
            })
            .unwrap();
        sim.chip_mut(dst)
            .apply_control(ControlCommand::SetConnection {
                incoming: conn,
                outgoing: conn,
                delay: *d,
                out_mask: Port::Local.mask(),
            })
            .unwrap();
        let channel = EstablishedChannel {
            id: i as u64,
            ingress: conn,
            depth: 2,
            guaranteed: 2 * d,
            hops: vec![
                Hop {
                    node: src,
                    conn,
                    out_conn: conn,
                    delay: *d,
                    out_mask: out.mask(),
                    buffers: 4,
                },
                Hop {
                    node: dst,
                    conn,
                    out_conn: conn,
                    delay: *d,
                    out_mask: Port::Local.mask(),
                    buffers: 4,
                },
            ],
            request: ChannelRequest::unicast(src, dst, TrafficSpec::periodic(*i_min, 18), 2 * d),
        };
        sim.add_source(
            src,
            Box::new(BackloggedTcSource::new(
                sender_for(&sim, &channel),
                *i_min,
                3,
                config.slot_bytes,
                vec![0x7C; config.tc_data_bytes()],
            )),
        );
    }
    sim.add_source(src, Box::new(BackloggedBeSource::new(&topo, src, dst, be_payload, 2)));

    let mut samples = Vec::new();
    while sim.now() < total_cycles {
        sim.run(sample_every.min(total_cycles - sim.now()));
        let stats = sim.chip(src).stats();
        samples.push(Sample {
            cycle: sim.now(),
            tc_bytes: [
                stats.tc_conn_bytes(out.index(), ConnectionId(1)),
                stats.tc_conn_bytes(out.index(), ConnectionId(2)),
                stats.tc_conn_bytes(out.index(), ConnectionId(3)),
            ],
            be_bytes: stats.be_bytes[out.index()],
        });
    }

    let last = *samples.last().expect("at least one sample");
    let t = last.cycle as f64;
    Fig7Result {
        params,
        tc_shares: [
            last.tc_bytes[0] as f64 / t,
            last.tc_bytes[1] as f64 / t,
            last.tc_bytes[2] as f64 / t,
        ],
        be_share: last.be_bytes as f64 / t,
        deadline_misses: sim.log(dst).tc_deadline_misses(config.slot_bytes),
        delivered: sim.log(dst).tc.len(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_match_reserved_fractions() {
        let r = run(0, 92, 40_000, 2_000);
        // Reserved shares: 1/8, 1/16, 1/32 of the link (bytes per cycle).
        for (share, expect) in r.tc_shares.iter().zip([0.125, 0.0625, 0.03125]) {
            assert!((share - expect).abs() < 0.01, "share {share} vs reserved {expect}");
        }
        assert!(r.be_share > 0.5, "best-effort consumes the excess, got {}", r.be_share);
        assert_eq!(r.deadline_misses, 0, "every packet by its deadline");
        assert!(r.delivered > 300);
    }

    #[test]
    fn horizons_keep_shares_but_cut_latency() {
        // With a horizon, early packets use idle/best-effort slack, so
        // latency falls while the long-run shares stay at the reserved
        // fractions (the reservation is about bandwidth, not ordering).
        let strict = run(0, 92, 20_000, 5_000);
        let relaxed = run(24, 92, 20_000, 5_000);
        for k in 0..3 {
            assert!(
                (strict.tc_shares[k] - relaxed.tc_shares[k]).abs() < 0.02,
                "shares unchanged by the horizon"
            );
        }
        assert_eq!(relaxed.deadline_misses, 0);
        assert!(relaxed.delivered >= strict.delivered);
    }

    #[test]
    fn cumulative_series_is_monotone() {
        let r = run(0, 92, 10_000, 1_000);
        for w in r.samples.windows(2) {
            for k in 0..3 {
                assert!(w[1].tc_bytes[k] >= w[0].tc_bytes[k]);
            }
            assert!(w[1].be_bytes >= w[0].be_bytes);
        }
    }
}
