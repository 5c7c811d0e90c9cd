//! Delivery logs and derived network metrics.

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
