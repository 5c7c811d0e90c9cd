//! Extension experiment X3 (paper §7 future work): end-to-end guarantees
//! across a full mesh.
//!
//! A seeded batch of channel requests is offered to the admission
//! controller on a 4×4 mesh; admitted channels run periodic traffic under
//! uniform best-effort background load. The claim under test: **every
//! packet of every admitted channel arrives by its deadline**, with zero
//! sorting-key aliasing and buffer occupancy within reservations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_channels::establish::{ChannelManager, EstablishedChannel};
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::RealTimeRouter;
use rtr_mesh::{Simulator, Topology};
use rtr_types::config::RouterConfig;
use rtr_types::ids::NodeId;
use rtr_types::time::Cycle;
use rtr_workloads::be::SizeDist;

use crate::util::add_periodic_sender;

/// The experiment's outcome.
#[derive(Debug, Clone)]
pub struct GuaranteeResult {
    /// Channel requests offered.
    pub offered: usize,
    /// Channels admitted.
    pub admitted: usize,
    /// Time-constrained packets delivered across all destinations.
    pub delivered: usize,
    /// End-to-end deadline misses (the guarantee: zero).
    pub misses: usize,
    /// Minimum slack (slots) over all deliveries.
    pub min_slack: i64,
    /// Sorting keys aliased by rollover, summed over routers (should be 0).
    pub aliased_keys: u64,
    /// Peak packet-memory occupancy over all routers.
    pub peak_memory: usize,
    /// Best-effort packets delivered (the background kept flowing).
    pub be_delivered: usize,
}

/// Offers `offered` random unicast requests (seeded by `seed`: period 8,
/// 16 or 32 slots, 4 to 8 slots of deadline per router on the route) to
/// `manager` and starts a periodic sender, payload byte `fill`, on every
/// channel admitted. Returns the admitted channels.
pub fn offer_random_channels(
    sim: &mut Simulator<RealTimeRouter>,
    manager: &mut ChannelManager,
    offered: usize,
    seed: u64,
    fill: u8,
) -> Vec<EstablishedChannel> {
    let topo = sim.topology().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut admitted: Vec<EstablishedChannel> = Vec::new();
    if topo.len() < 2 {
        return admitted; // no distinct destination to draw
    }
    for _ in 0..offered {
        let src = NodeId(rng.gen_range(0..topo.len() as u16));
        let dst = loop {
            let d = NodeId(rng.gen_range(0..topo.len() as u16));
            if d != src {
                break d;
            }
        };
        let i_min = [8u32, 16, 32][rng.gen_range(0..3usize)];
        let depth = topo.dor_route(src, dst).len() as u32 + 1;
        let d_per = rng.gen_range(4..=8.min(i_min));
        let request =
            ChannelRequest::unicast(src, dst, TrafficSpec::periodic(i_min, 18), depth * d_per);
        if let Ok(channel) = manager.establish(&topo, request, sim) {
            admitted.push(channel);
        }
    }
    for channel in &admitted {
        let period = u64::from(channel.request.spec.i_min);
        add_periodic_sender(sim, channel, period, channel.id % 8, fill);
    }
    admitted
}

/// Runs the guarantee experiment.
///
/// `offered` random unicast requests (seeded by `seed`) are offered on a
/// `side × side` mesh; admitted ones send periodically for `total_cycles`
/// with best-effort background at `be_rate`.
///
/// # Panics
///
/// Panics only on internal simulation errors.
#[must_use]
pub fn run(
    side: u16,
    offered: usize,
    be_rate: f64,
    seed: u64,
    total_cycles: Cycle,
) -> GuaranteeResult {
    let config = RouterConfig::default();
    let topo = Topology::mesh(side, side);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    let mut manager = ChannelManager::new(&config);
    let admitted = offer_random_channels(&mut sim, &mut manager, offered, seed, 0x33);
    let be_seed = seed.wrapping_mul(31);
    crate::util::add_uniform_be(&mut sim, be_rate, SizeDist::Uniform(8, 48), be_seed, 8);

    sim.run(total_cycles);

    let mut delivered = 0;
    let mut misses = 0;
    let mut min_slack = i64::MAX;
    let mut be_delivered = 0;
    for node in topo.nodes() {
        let log = sim.log(node);
        delivered += log.tc.len();
        misses += log.tc_deadline_misses(config.slot_bytes);
        for s in log.tc_slack_slots(config.slot_bytes) {
            min_slack = min_slack.min(s);
        }
        be_delivered += log.be.len();
    }
    GuaranteeResult {
        offered,
        admitted: admitted.len(),
        delivered,
        misses,
        min_slack: if min_slack == i64::MAX { 0 } else { min_slack },
        aliased_keys: topo.nodes().map(|n| sim.chip(n).stats().aliased_keys).sum(),
        peak_memory: topo.nodes().map(|n| sim.chip(n).memory_high_water()).max().unwrap_or(0),
        be_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admitted_channels_never_miss() {
        let r = run(4, 12, 0.1, 1234, 80_000);
        assert!(r.admitted >= 6, "admitted {}/{}", r.admitted, r.offered);
        assert!(r.delivered > 500, "delivered {}", r.delivered);
        assert_eq!(r.misses, 0, "admission + EDF must guarantee all deadlines");
        assert!(r.min_slack >= 0);
        assert_eq!(r.aliased_keys, 0, "no rollover aliasing for admitted traffic");
        assert!(r.be_delivered > 0, "background kept flowing");
    }
}
