//! Router statistics counters.
//!
//! Counters are cheap, monotone, and safe to sample at any cycle; the
//! experiment harnesses difference successive samples to produce the paper's
//! time series (e.g. the per-connection cumulative service of Figure 7).

use std::collections::HashMap;
use std::ops::Deref;

use rtr_types::ids::{ConnectionId, PORT_COUNT};

/// Monotone event counters for one router.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Time-constrained packets injected by the local processor.
    pub tc_injected: u64,
    /// Time-constrained packets that completed arrival (any input port).
    pub tc_arrived: u64,
    /// Packets dropped because the packet memory was full.
    pub tc_dropped_no_buffer: u64,
    /// Packets dropped because no connection-table entry matched.
    pub tc_dropped_no_conn: u64,
    /// Packets aborted because their connection was torn down while they
    /// were still in flight — the graceful-teardown ledger column, kept
    /// separate from `tc_dropped_no_conn` so mid-churn conservation
    /// distinguishes a misrouted packet from an accounted teardown abort.
    pub tc_aborted_teardown: u64,
    /// Malformed injections rejected (wrong payload size).
    pub tc_malformed: u64,
    /// Time-constrained packets transmitted, per output port.
    pub tc_transmitted: [u64; PORT_COUNT],
    /// Of those, transmissions that went out early (within the horizon).
    pub tc_early_transmitted: [u64; PORT_COUNT],
    /// Packets that cut through to their output link without buffering
    /// (only with the §7 virtual cut-through extension enabled).
    pub tc_cut_through: u64,
    /// Packets stored in the shared packet memory *and* registered with the
    /// link scheduler (the store-and-forward path).
    pub tc_buffered: u64,
    /// Buffered packets whose memory slot was freed after their last
    /// scheduled transmission started.
    pub tc_retired: u64,
    /// Time-constrained packets delivered through the reception port.
    pub tc_delivered: u64,
    /// Time-constrained bytes transmitted, per output port.
    pub tc_bytes: [u64; PORT_COUNT],
    /// Time-constrained bytes transmitted per (output port, wire connection
    /// id) — the series Figure 7 plots.
    pub tc_bytes_by_conn: HashMap<(usize, ConnectionId), u64>,
    /// Best-effort bytes transmitted, per output port.
    pub be_bytes: [u64; PORT_COUNT],
    /// Best-effort packets fully delivered through the reception port.
    pub be_delivered: u64,
    /// Malformed best-effort packets dropped at reassembly.
    pub be_malformed: u64,
    /// Transmissions whose sorting key was aliased by clock rollover (late
    /// packets; zero for admitted traffic).
    pub aliased_keys: u64,
    /// Time-constrained packets abandoned mid-arrival because an upstream
    /// fault destroyed their remaining symbols (a new start arrived, or
    /// the node's own crash-restore aborted the reassembly).
    pub tc_truncated: u64,
    /// Orphan time-constrained continuation symbols shed (their packet's
    /// head was destroyed upstream). Counted in symbols, not packets.
    pub tc_orphan_symbols: u64,
    /// Best-effort bytes shed at an input port (torn framing from an
    /// upstream fault, or forged credits overflowing the flit buffer).
    /// Every shed byte's upstream flow-control credit is refunded.
    pub be_dropped_faulty: u64,
    /// Best-effort packets whose tail was destroyed upstream; their
    /// surviving prefix forwards and fails the sink's length check
    /// (`be_malformed` there).
    pub be_truncated: u64,
}

impl RouterStats {
    /// Heap bytes behind the per-connection byte counters: an entry and a
    /// control byte for each entry the map has room for.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<((usize, ConnectionId), u64)>() + 1;
        self.tc_bytes_by_conn.capacity() * entry
    }

    /// Total time-constrained packets dropped for any reason.
    #[must_use]
    pub fn tc_dropped(&self) -> u64 {
        self.tc_dropped_no_buffer
            + self.tc_dropped_no_conn
            + self.tc_malformed
            + self.tc_aborted_teardown
    }

    /// Checks the time-constrained packet-conservation invariants against
    /// the current packet-memory occupancy:
    ///
    /// 1. every arrival is accounted for exactly once —
    ///    `arrived = dropped(no-conn) + aborted(teardown) +
    ///    dropped(no-buffer) + cut-through + buffered`;
    /// 2. every buffered packet is either retired or still in memory —
    ///    `buffered = retired + occupied`.
    ///
    /// Sample between cycles (the counters are transiently inconsistent only
    /// inside a tick).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_conservation(&self, memory_occupied: usize) -> Result<(), String> {
        let accounted = self.tc_dropped_no_conn
            + self.tc_aborted_teardown
            + self.tc_dropped_no_buffer
            + self.tc_cut_through
            + self.tc_buffered;
        if self.tc_arrived != accounted {
            return Err(format!(
                "arrival conservation violated: arrived {} != no-conn {} + torn-down {} \
                 + no-buffer {} + cut-through {} + buffered {}",
                self.tc_arrived,
                self.tc_dropped_no_conn,
                self.tc_aborted_teardown,
                self.tc_dropped_no_buffer,
                self.tc_cut_through,
                self.tc_buffered
            ));
        }
        let resident = self.tc_retired + memory_occupied as u64;
        if self.tc_buffered != resident {
            return Err(format!(
                "buffer conservation violated: buffered {} != retired {} + occupied {}",
                self.tc_buffered, self.tc_retired, memory_occupied
            ));
        }
        Ok(())
    }

    /// Cumulative time-constrained bytes a wire connection id received on an
    /// output port.
    #[must_use]
    pub fn tc_conn_bytes(&self, port_index: usize, conn: ConnectionId) -> u64 {
        self.tc_bytes_by_conn.get(&(port_index, conn)).copied().unwrap_or(0)
    }
}

/// A router's ledger as read from outside: the counters its datapath keeps
/// (all zero for a router that never ticked) and the cycles it was alive,
/// from which its idle cycles derive. Dereferences to the counters.
#[derive(Debug, Clone, Copy)]
pub struct RouterLedger<'a> {
    stats: &'a RouterStats,
    alive: u64,
}

impl<'a> RouterLedger<'a> {
    /// The ledger of a router with counters `stats`, alive for `alive`
    /// cycles.
    #[must_use]
    pub(crate) fn new(stats: &'a RouterStats, alive: u64) -> Self {
        RouterLedger { stats, alive }
    }

    /// Idle cycles per output port (nothing eligible to send): every alive
    /// cycle of an output carries a time-constrained byte, a best-effort
    /// byte, or nothing.
    #[must_use]
    pub(crate) fn idle_cycles(&self) -> [u64; PORT_COUNT] {
        let s = self.stats;
        std::array::from_fn(|i| self.alive - s.tc_bytes[i] - s.be_bytes[i])
    }

    /// Emits every scalar counter under the `router.` namespace, port
    /// arrays summed — the [`rtr_types::chip::Chip::counters`] contribution
    /// of the router. Every value here is drive-mode independent, so a run
    /// ticking every chip and a leaping run emit identical totals.
    pub fn emit_counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("router.tc_injected", self.tc_injected);
        emit("router.tc_arrived", self.tc_arrived);
        emit("router.tc_dropped_no_buffer", self.tc_dropped_no_buffer);
        emit("router.tc_dropped_no_conn", self.tc_dropped_no_conn);
        emit("router.tc_aborted_teardown", self.tc_aborted_teardown);
        emit("router.tc_malformed", self.tc_malformed);
        emit("router.tc_transmitted", self.tc_transmitted.iter().sum());
        emit("router.tc_early_transmitted", self.tc_early_transmitted.iter().sum());
        emit("router.tc_cut_through", self.tc_cut_through);
        emit("router.tc_buffered", self.tc_buffered);
        emit("router.tc_retired", self.tc_retired);
        emit("router.tc_delivered", self.tc_delivered);
        emit("router.tc_bytes", self.tc_bytes.iter().sum());
        emit("router.be_bytes", self.be_bytes.iter().sum());
        emit("router.be_delivered", self.be_delivered);
        emit("router.be_malformed", self.be_malformed);
        emit("router.idle_cycles", self.idle_cycles().iter().sum());
        emit("router.aliased_keys", self.aliased_keys);
        emit("router.tc_truncated", self.tc_truncated);
        emit("router.tc_orphan_symbols", self.tc_orphan_symbols);
        emit("router.be_dropped_faulty", self.be_dropped_faulty);
        emit("router.be_truncated", self.be_truncated);
    }
}

impl Deref for RouterLedger<'_> {
    type Target = RouterStats;

    fn deref(&self) -> &RouterStats {
        self.stats
    }
}

impl std::fmt::Display for RouterStats {
    /// A one-paragraph human-readable summary (diagnostics/console use).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tc: injected {}, arrived {}, delivered {}, dropped {} \
             (no-buffer {}, no-conn {}, malformed {}, torn-down {})",
            self.tc_injected,
            self.tc_arrived,
            self.tc_delivered,
            self.tc_dropped(),
            self.tc_dropped_no_buffer,
            self.tc_dropped_no_conn,
            self.tc_malformed,
            self.tc_aborted_teardown
        )?;
        writeln!(
            f,
            "tc per port (tx/early/bytes): {:?} / {:?} / {:?}; cut-through {}",
            self.tc_transmitted, self.tc_early_transmitted, self.tc_bytes, self.tc_cut_through
        )?;
        write!(
            f,
            "be: delivered {}, malformed {}, bytes per port {:?}; aliased keys {}",
            self.be_delivered, self.be_malformed, self.be_bytes, self.aliased_keys
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_summarises_the_counters() {
        let stats = RouterStats {
            tc_injected: 7,
            tc_delivered: 5,
            tc_cut_through: 2,
            ..RouterStats::default()
        };
        let s = stats.to_string();
        assert!(s.contains("injected 7"));
        assert!(s.contains("delivered 5"));
        assert!(s.contains("cut-through 2"));
        assert!(!s.is_empty(), "Debug/Display must never be empty");
    }

    #[test]
    fn drop_total_sums_causes() {
        let stats = RouterStats {
            tc_dropped_no_buffer: 2,
            tc_dropped_no_conn: 3,
            tc_malformed: 5,
            tc_aborted_teardown: 4,
            ..RouterStats::default()
        };
        assert_eq!(stats.tc_dropped(), 14);
    }

    #[test]
    fn teardown_aborts_balance_the_arrival_ledger() {
        // A packet aborted mid-churn lands in its own column; the arrival
        // invariant holds with the column included and flags it missing.
        let stats = RouterStats {
            tc_arrived: 6,
            tc_aborted_teardown: 2,
            tc_buffered: 4,
            tc_retired: 4,
            ..RouterStats::default()
        };
        stats.check_conservation(0).unwrap();
        let broken = RouterStats { tc_aborted_teardown: 0, ..stats };
        let e = broken.check_conservation(0).unwrap_err();
        assert!(e.contains("torn-down"), "{e}");
    }

    #[test]
    fn conservation_accepts_balanced_counters() {
        let stats = RouterStats {
            tc_arrived: 10,
            tc_dropped_no_conn: 1,
            tc_dropped_no_buffer: 2,
            tc_cut_through: 3,
            tc_buffered: 4,
            tc_retired: 3,
            ..RouterStats::default()
        };
        stats.check_conservation(1).unwrap();
    }

    #[test]
    fn conservation_flags_unaccounted_arrivals() {
        let stats =
            RouterStats { tc_arrived: 5, tc_buffered: 4, tc_retired: 4, ..RouterStats::default() };
        let e = stats.check_conservation(0).unwrap_err();
        assert!(e.contains("arrival conservation"), "{e}");
    }

    #[test]
    fn conservation_flags_leaked_memory_slots() {
        let stats =
            RouterStats { tc_arrived: 4, tc_buffered: 4, tc_retired: 2, ..RouterStats::default() };
        let e = stats.check_conservation(1).unwrap_err();
        assert!(e.contains("buffer conservation"), "{e}");
    }

    #[test]
    fn per_connection_bytes_default_to_zero() {
        let mut stats = RouterStats::default();
        assert_eq!(stats.tc_conn_bytes(1, ConnectionId(4)), 0);
        *stats.tc_bytes_by_conn.entry((1, ConnectionId(4))).or_insert(0) += 20;
        assert_eq!(stats.tc_conn_bytes(1, ConnectionId(4)), 20);
    }

    #[test]
    fn a_ledger_derives_idle_cycles_from_its_alive_cycles() {
        let mut stats = RouterStats::default();
        stats.tc_bytes[1] = 3;
        stats.be_bytes[1] = 2;
        stats.be_bytes[4] = 10;
        let ledger = RouterLedger::new(&stats, 10);
        assert_eq!(ledger.idle_cycles(), [10, 5, 10, 10, 0]);
        let mut idle = None;
        ledger.emit_counters(&mut |name, value| {
            if name == "router.idle_cycles" {
                idle = Some(value);
            }
        });
        assert_eq!(idle, Some(35), "the counter sums the derived ports");
    }
}
