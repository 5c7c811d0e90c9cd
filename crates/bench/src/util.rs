//! Shared helpers for the experiment harnesses.

use rtr_channels::arrival::ArrivalTracker;
use rtr_mesh::source::TrafficSource;
use rtr_mesh::topology::Topology;
use rtr_mesh::Simulator;
use rtr_types::chip::{Chip, ChipIo};
use rtr_types::ids::NodeId;
use rtr_types::packet::{BePacket, PacketTrace};
use rtr_types::time::{cycle_to_slot, Cycle};
use rtr_workloads::be::{RandomBeSource, SizeDist};
use rtr_workloads::patterns::TrafficPattern;

/// Adds a uniform-random best-effort source injecting at `rate` to every
/// node, node `n` seeded with `seed ^ n`. A zero rate or a one-node mesh
/// (no destination to draw) adds nothing.
pub fn add_uniform_be<C: Chip>(
    sim: &mut Simulator<C>,
    rate: f64,
    sizes: SizeDist,
    seed: u64,
    max_queue: usize,
) {
    let topo = sim.topology().clone();
    if rate <= 0.0 || topo.len() < 2 {
        return;
    }
    for node in topo.nodes() {
        let node_seed = seed ^ u64::from(node.0);
        let source =
            RandomBeSource::new(topo.clone(), TrafficPattern::Uniform, rate, sizes, node_seed);
        sim.add_source(node, Box::new(source.with_max_queue(max_queue)));
    }
}

/// A periodic source that sends deadline-stamped *best-effort* packets —
/// used to offer the real-time workload to baseline routers that have no
/// time-constrained channel (the wormhole baseline).
#[derive(Debug)]
pub struct PeriodicDeadlineBeSource {
    destination: NodeId,
    offsets: (i8, i8),
    period_slots: u64,
    deadline_slots: u64,
    payload_bytes: usize,
    slot_bytes: usize,
    tracker: ArrivalTracker,
    sent: u64,
}

impl PeriodicDeadlineBeSource {
    /// Creates the source; one packet of `payload_bytes` every
    /// `period_slots`, each due `deadline_slots` after its logical arrival.
    #[must_use]
    pub fn new(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        period_slots: u64,
        deadline_slots: u64,
        payload_bytes: usize,
        slot_bytes: usize,
    ) -> Self {
        PeriodicDeadlineBeSource {
            destination: dst,
            offsets: topo.be_offsets(src, dst),
            period_slots,
            deadline_slots,
            payload_bytes,
            slot_bytes,
            tracker: ArrivalTracker::new(period_slots as u32),
            sent: 0,
        }
    }
}

impl TrafficSource for PeriodicDeadlineBeSource {
    fn pre_cycle(&mut self, now: Cycle, node: NodeId, io: &mut ChipIo) {
        let t = cycle_to_slot(now, self.slot_bytes);
        if t >= self.sent * self.period_slots && now.is_multiple_of(self.slot_bytes as u64) {
            let l0 = self.tracker.next(t);
            let trace = PacketTrace {
                source: node,
                destination: self.destination,
                sequence: self.sent,
                injected_at: now,
                logical_arrival: l0,
                deadline: l0 + self.deadline_slots,
            };
            io.inject_be.push_back(BePacket::new(
                self.offsets.0,
                self.offsets.1,
                vec![0xCD; self.payload_bytes],
                trace,
            ));
            self.sent += 1;
        }
    }
}

/// Mean of a sample set (0.0 when empty).
#[must_use]
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_be_source_stamps_traces() {
        let topo = Topology::mesh(2, 1);
        let mut src = PeriodicDeadlineBeSource::new(&topo, NodeId(0), NodeId(1), 8, 20, 16, 20);
        let mut io = ChipIo::new();
        for now in 0..(8 * 20 * 3) {
            src.pre_cycle(now, NodeId(0), &mut io);
        }
        assert_eq!(io.inject_be.len(), 3);
        let p = &io.inject_be[1];
        assert_eq!(p.trace.logical_arrival, 8);
        assert_eq!(p.trace.deadline, 28);
        assert_eq!(p.header.x_off, 1);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
    }
}
