//! Network-level instrumentation: latency histograms and whole-network
//! reports (the measurement surface the paper's §7 multicomputer-simulator
//! plans call for).

use std::collections::BTreeMap;

use rtr_types::chip::Chip;
use rtr_types::ids::{ConnectionId, Direction, NodeId};
use rtr_types::time::{cycle_to_slot, Cycle};

use crate::{LinkUsage, Simulator};

/// A fixed-width latency histogram with overflow bucket.
///
/// # Example
///
/// ```
/// use rtr_mesh::netstats::Histogram;
///
/// let mut h = Histogram::new(20, 64); // one packet slot per bucket
/// h.record_all(&[35, 41, 90]);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.max(), 90);
/// assert_eq!(h.percentile(100.0), 100); // upper bucket edge
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram of `buckets` buckets of `bucket_width` each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0 && buckets > 0, "histogram dimensions must be positive");
        Histogram { bucket_width, buckets: vec![0; buckets], overflow: 0, count: 0, sum: 0, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Records every sample of a slice.
    pub fn record_all(&mut self, values: &[u64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples that exceeded the bucketed range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Nearest-rank percentile (upper bucket edge; exact for the overflow
    /// bucket only via [`Histogram::max`]). `p` in `[0, 100]`; the 0th
    /// percentile is 0 by convention (no sample is below it).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or not a number.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.count == 0 || p == 0.0 {
            return 0;
        }
        let rank = ((self.count as f64) * p / 100.0).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (i as u64 + 1) * self.bucket_width;
            }
        }
        self.max
    }

    /// Iterates `(bucket upper edge, count)` for the non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| ((i as u64 + 1) * self.bucket_width, c))
    }
}

/// End-to-end deadline-slack statistics of one connection's deliveries.
///
/// Slack is `deadline − delivery slot` in slots: positive means the packet
/// arrived with room to spare, negative means a miss. For a correctly
/// admitted channel the minimum slack is never negative.
#[derive(Debug, Clone)]
pub struct ConnSlackReport {
    /// Wire connection identifier at the delivering router.
    pub conn: ConnectionId,
    /// Deadline-bearing packets delivered on this connection.
    pub delivered: usize,
    /// Of those, deliveries past the deadline.
    pub misses: usize,
    /// Smallest slack observed (slots; negative = worst miss).
    pub min_slack: i64,
    /// Mean slack (slots).
    pub mean_slack: f64,
    /// Histogram of the non-negative slacks, one slot per bucket (misses
    /// land in bucket 0 and are counted exactly by `misses`).
    pub slack: Histogram,
}

/// A snapshot of the whole network's delivery behaviour.
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Latency histogram of delivered time-constrained packets.
    pub tc_latency: Histogram,
    /// Latency histogram of delivered best-effort packets.
    pub be_latency: Histogram,
    /// Time-constrained deliveries.
    pub tc_delivered: usize,
    /// Best-effort deliveries.
    pub be_delivered: usize,
    /// End-to-end deadline misses.
    pub deadline_misses: usize,
    /// Per-connection deadline-slack statistics, ordered by connection id
    /// (deadline-bearing deliveries only).
    pub slack: Vec<ConnSlackReport>,
    /// Per-link usage, densest first.
    pub links: Vec<(NodeId, Direction, LinkUsage)>,
}

impl NetworkReport {
    /// Builds a report from a simulator (bucket width 20 cycles — one
    /// packet slot — over 256 buckets).
    #[must_use]
    pub fn capture<C: Chip>(sim: &Simulator<C>, slot_bytes: usize) -> NetworkReport {
        let mut tc_latency = Histogram::new(slot_bytes as u64, 256);
        let mut be_latency = Histogram::new(slot_bytes as u64, 256);
        let mut tc_delivered = 0;
        let mut be_delivered = 0;
        let mut deadline_misses = 0;
        let mut slack_by_conn: BTreeMap<u16, Vec<i64>> = BTreeMap::new();
        for node in sim.topology().nodes() {
            let log = sim.log(node);
            tc_latency.record_all(&log.tc_latencies());
            be_latency.record_all(&log.be_latencies());
            tc_delivered += log.tc.len();
            be_delivered += log.be.len();
            deadline_misses += log.tc_deadline_misses(slot_bytes);
            for (cycle, p) in log.tc.iter().filter(|(_, p)| p.trace.deadline != 0) {
                let s = p.trace.deadline as i64 - cycle_to_slot(*cycle, slot_bytes) as i64;
                slack_by_conn.entry(p.conn.0).or_default().push(s);
            }
        }
        let slack = slack_by_conn
            .into_iter()
            .map(|(conn, slacks)| {
                let mut hist = Histogram::new(1, 128);
                for &s in &slacks {
                    hist.record(s.max(0) as u64);
                }
                ConnSlackReport {
                    conn: ConnectionId(conn),
                    delivered: slacks.len(),
                    misses: slacks.iter().filter(|&&s| s < 0).count(),
                    min_slack: slacks.iter().copied().min().unwrap_or(0),
                    mean_slack: slacks.iter().sum::<i64>() as f64 / slacks.len() as f64,
                    slack: hist,
                }
            })
            .collect();
        let mut links = Vec::new();
        for node in sim.topology().nodes() {
            for dir in Direction::ALL {
                if sim.topology().link_end(node, dir).is_some() {
                    links.push((node, dir, sim.link_usage(node, dir)));
                }
            }
        }
        links.sort_by_key(|(_, _, u)| std::cmp::Reverse(u.tc_symbols + u.be_symbols));
        NetworkReport {
            cycles: sim.now(),
            tc_latency,
            be_latency,
            tc_delivered,
            be_delivered,
            deadline_misses,
            slack,
            links,
        }
    }

    /// The smallest per-connection slack across the whole network (None
    /// when nothing deadline-bearing was delivered).
    #[must_use]
    pub fn min_slack(&self) -> Option<i64> {
        self.slack.iter().map(|r| r.min_slack).min()
    }

    /// The busiest links, for quick printing.
    #[must_use]
    pub fn hottest_links(&self, n: usize) -> &[(NodeId, Direction, LinkUsage)] {
        &self.links[..n.min(self.links.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_basic_statistics() {
        let mut h = Histogram::new(10, 10);
        h.record_all(&[5, 15, 15, 95, 1000]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.overflow(), 1);
        assert!((h.mean() - 226.0).abs() < 1e-9);
        // Buckets: edge 10 → 1 sample, edge 20 → 2, edge 100 → 1.
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(buckets, vec![(10, 1), (20, 2), (100, 1)]);
    }

    #[test]
    fn percentiles_use_bucket_edges() {
        let mut h = Histogram::new(10, 100);
        for v in 0..100 {
            h.record(v * 5); // 0..495
        }
        assert_eq!(h.percentile(50.0), 250);
        assert_eq!(h.percentile(100.0), 500);
        assert_eq!(Histogram::new(1, 1).percentile(99.0), 0, "empty histogram");
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_width_rejected() {
        let _ = Histogram::new(0, 4);
    }

    #[test]
    fn zeroth_percentile_is_zero() {
        let mut h = Histogram::new(10, 4);
        h.record_all(&[5, 15, 25]);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn negative_percentile_rejected() {
        let _ = Histogram::new(10, 4).percentile(-1.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn oversized_percentile_rejected() {
        let _ = Histogram::new(10, 4).percentile(100.5);
    }

    #[test]
    fn overflow_bucket_answers_with_the_true_max() {
        let mut h = Histogram::new(10, 2); // bucketed range [0, 20)
        h.record_all(&[5, 1000, 2000]);
        assert_eq!(h.overflow(), 2);
        // Ranks landing in the overflow bucket fall back to the exact max.
        assert_eq!(h.percentile(100.0), 2000);
        assert_eq!(h.percentile(67.0), 2000);
        // Ranks inside the bucketed range still use bucket edges.
        assert_eq!(h.percentile(33.0), 10);
    }

    #[test]
    fn empty_histogram_queries_are_total() {
        let h = Histogram::new(10, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.overflow(), 0);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON);
        assert_eq!(h.iter().count(), 0);
        for p in [0.0, 1.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 0, "p = {p}");
        }
    }

    proptest! {
        /// The histogram never loses samples and its mean matches the
        /// exact mean.
        #[test]
        fn histogram_conserves_samples(values in proptest::collection::vec(0u64..10_000, 1..200)) {
            let mut h = Histogram::new(7, 64);
            h.record_all(&values);
            prop_assert_eq!(h.count(), values.len() as u64);
            let bucketed: u64 = h.iter().map(|(_, c)| c).sum::<u64>() + h.overflow();
            prop_assert_eq!(bucketed, values.len() as u64);
            let exact = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
            prop_assert!((h.mean() - exact).abs() < 1e-6);
            prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        }

        /// `percentile` is monotone non-decreasing in `p`, for any sample
        /// set and any pair of valid percentiles.
        #[test]
        fn percentile_is_monotone(
            values in proptest::collection::vec(0u64..5_000, 0..100),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let mut h = Histogram::new(13, 16);
            h.record_all(&values);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(
                h.percentile(lo) <= h.percentile(hi),
                "percentile({}) = {} > percentile({}) = {}",
                lo, h.percentile(lo), hi, h.percentile(hi)
            );
        }
    }
}
