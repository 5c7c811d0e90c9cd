//! Delivery logs, occupancy samples, and derived network metrics.

use rtr_types::chip::{Chip, ChipGauges};
use rtr_types::packet::{BePacket, TcPacket};
use rtr_types::time::{cycle_to_slot, Cycle};

/// Everything a node's reception port delivered, with timestamps.
#[derive(Debug, Default)]
pub struct DeliveryLog {
    /// Delivered time-constrained packets.
    pub tc: Vec<(Cycle, TcPacket)>,
    /// Delivered best-effort packets.
    pub be: Vec<(Cycle, BePacket)>,
}

impl DeliveryLog {
    /// End-to-end latencies (cycles) of delivered time-constrained packets.
    #[must_use]
    pub fn tc_latencies(&self) -> Vec<Cycle> {
        self.tc.iter().map(|(cycle, p)| cycle.saturating_sub(p.trace.injected_at)).collect()
    }

    /// End-to-end latencies (cycles) of delivered best-effort packets.
    #[must_use]
    pub fn be_latencies(&self) -> Vec<Cycle> {
        self.be.iter().map(|(cycle, p)| cycle.saturating_sub(p.trace.injected_at)).collect()
    }

    /// Delivered time-constrained packets that missed their end-to-end
    /// deadline: the delivery slot exceeds `trace.deadline` (absolute
    /// slots). Packets without a deadline (`deadline == 0`) are skipped.
    #[must_use]
    pub fn tc_deadline_misses(&self, slot_bytes: usize) -> usize {
        self.tc
            .iter()
            .filter(|(cycle, p)| {
                p.trace.deadline != 0 && cycle_to_slot(*cycle, slot_bytes) > p.trace.deadline
            })
            .count()
    }

    /// Delivered best-effort packets that missed a deadline carried in
    /// their trace — used when a baseline router carries time-constrained
    /// payloads as best-effort traffic. Packets without a deadline are
    /// skipped.
    #[must_use]
    pub fn be_deadline_misses(&self, slot_bytes: usize) -> usize {
        self.be
            .iter()
            .filter(|(cycle, p)| {
                p.trace.deadline != 0 && cycle_to_slot(*cycle, slot_bytes) > p.trace.deadline
            })
            .count()
    }

    /// Remaining slack (slots) of each delivered deadline-bearing packet;
    /// negative values are misses.
    #[must_use]
    pub fn tc_slack_slots(&self, slot_bytes: usize) -> Vec<i64> {
        self.tc
            .iter()
            .filter(|(_, p)| p.trace.deadline != 0)
            .map(|(cycle, p)| p.trace.deadline as i64 - cycle_to_slot(*cycle, slot_bytes) as i64)
            .collect()
    }
}

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Minimum, or 0 when empty.
    pub min: Cycle,
    /// Mean, or 0.0 when empty.
    pub mean: f64,
    /// Maximum, or 0 when empty.
    pub max: Cycle,
    /// 99th percentile (nearest-rank), or 0 when empty.
    pub p99: Cycle,
}

impl LatencySummary {
    /// Summarises a sample set.
    #[must_use]
    pub fn of(samples: &[Cycle]) -> Self {
        if samples.is_empty() {
            return LatencySummary { count: 0, min: 0, mean: 0.0, max: 0, p99: 0 };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&c| u128::from(c)).sum();
        let p99_idx = ((count as f64 * 0.99).ceil() as usize).clamp(1, count) - 1;
        LatencySummary {
            count,
            min: sorted[0],
            mean: sum as f64 / count as f64,
            max: *sorted.last().unwrap(),
            p99: sorted[p99_idx],
        }
    }
}

/// One occupancy snapshot of every chip in the network, borrowed from the
/// flat storage of an [`OccupancyHistory`].
#[derive(Debug, Clone, Copy)]
pub struct OccupancySample<'a> {
    /// Cycle the sample was taken (after that cycle's tick).
    pub cycle: Cycle,
    /// Per-node gauges, indexed by [`rtr_types::ids::NodeId::index`].
    pub nodes: &'a [ChipGauges],
}

/// The collected occupancy samples, stored flat: one `cycle` entry and one
/// contiguous run of per-node gauges per sample. Recording a sample appends
/// to the same two vectors, so steady-state sampling never allocates once
/// the vectors have grown to capacity.
#[derive(Debug, Clone, Default)]
pub struct OccupancyHistory {
    cycles: Vec<Cycle>,
    gauges: Vec<ChipGauges>,
    nodes_per_sample: usize,
}

impl OccupancyHistory {
    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether any samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The cycle of every sample, in recording order.
    #[must_use]
    pub fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    /// The `index`-th sample, if recorded.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<OccupancySample<'_>> {
        let cycle = *self.cycles.get(index)?;
        let start = index * self.nodes_per_sample;
        Some(OccupancySample { cycle, nodes: &self.gauges[start..start + self.nodes_per_sample] })
    }

    /// Iterates over the samples in recording order.
    pub fn iter(&self) -> OccupancyIter<'_> {
        OccupancyIter { history: self, next: 0 }
    }

    pub(crate) fn record<C: Chip>(&mut self, cycle: Cycle, chips: &[C]) {
        self.nodes_per_sample = chips.len();
        self.cycles.push(cycle);
        self.gauges.extend(chips.iter().map(|c| c.gauges().unwrap_or_default()));
    }
}

impl<'a> IntoIterator for &'a OccupancyHistory {
    type Item = OccupancySample<'a>;
    type IntoIter = OccupancyIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the samples of an [`OccupancyHistory`].
#[derive(Debug)]
pub struct OccupancyIter<'a> {
    history: &'a OccupancyHistory,
    next: usize,
}

impl<'a> Iterator for OccupancyIter<'a> {
    type Item = OccupancySample<'a>;
    fn next(&mut self) -> Option<Self::Item> {
        let sample = self.history.get(self.next)?;
        self.next += 1;
        Some(sample)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.history.len().saturating_sub(self.next);
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_types::clock::SlotClock;
    use rtr_types::ids::ConnectionId;
    use rtr_types::packet::PacketTrace;

    fn tc(delivered: Cycle, injected: Cycle, deadline_slot: u64) -> (Cycle, TcPacket) {
        (
            delivered,
            TcPacket {
                conn: ConnectionId(0),
                arrival: SlotClock::new(8).wrap(0),
                payload: vec![].into(),
                trace: PacketTrace {
                    injected_at: injected,
                    deadline: deadline_slot,
                    ..PacketTrace::default()
                },
            },
        )
    }

    #[test]
    fn latency_and_misses() {
        let log = DeliveryLog { tc: vec![tc(100, 20, 10), tc(250, 50, 10)], be: vec![] };
        assert_eq!(log.tc_latencies(), vec![80, 200]);
        // Slot 20 bytes: deliveries at slots 5 and 12; deadline slot 10.
        assert_eq!(log.tc_deadline_misses(20), 1);
        assert_eq!(log.tc_slack_slots(20), vec![5, -2]);
    }

    #[test]
    fn zero_deadline_packets_are_not_misses() {
        let log = DeliveryLog { tc: vec![tc(10_000, 0, 0)], be: vec![] };
        assert_eq!(log.tc_deadline_misses(20), 0);
        assert!(log.tc_slack_slots(20).is_empty());
    }

    #[test]
    fn summary_handles_empty_and_percentiles() {
        let empty = LatencySummary::of(&[]);
        assert_eq!(empty.count, 0);
        let s = LatencySummary::of(&(1..=100).collect::<Vec<_>>());
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.p99, 99);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }
}
