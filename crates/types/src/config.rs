//! Architectural parameters (Table 4a) and the per-class policy matrix
//! (Table 2).
//!
//! [`RouterConfig::default`] reproduces the paper's chip exactly: 256
//! connections, 256 time-constrained packet buffers, an 8-bit clock with
//! 9-bit sorting keys, a two-stage comparator-tree pipeline, and 10-byte flit
//! input buffers. Every parameter can be varied for the scalability and
//! ablation experiments of §5.1/§7.

use crate::error::ConfigError;
use crate::ids::TrafficClass;
use crate::key::LatePolicy;

/// Per-hop pipeline timing of the router datapath, in cycles.
///
/// These reproduce the overheads the paper names for the wormhole loop-back
/// experiment (§5.2): "synchronizing the arriving bytes, processing the
/// packet header, and accumulating five-byte chunks for access to the
/// router's internal bus". With the defaults a router traversal adds
/// `sync + header + chunk_bytes + bus_grant = 10` cycles of head latency, so
/// the paper's three-traversal loop-back sees `30 + b` cycles end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingConfig {
    /// Cycles to synchronise arriving bytes at an input port.
    pub sync_cycles: u64,
    /// Cycles to process a packet header (route decode / table lookup).
    pub header_cycles: u64,
    /// Cycles to win a grant on the shared internal bus.
    pub bus_grant_cycles: u64,
    /// Latency from a scheduler selection request to the grant, in cycles.
    /// Models the two-stage comparator-tree pipeline of §5.1 shared by the
    /// five output ports (one selection per port per packet slot, with
    /// slack).
    pub sched_latency_cycles: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            sync_cycles: 2,
            header_cycles: 2,
            bus_grant_cycles: 1,
            sched_latency_cycles: 4,
        }
    }
}

/// Which link-scheduling logic the router instantiates.
///
/// The fabricated chip uses the full comparator tree of Figure 5; the
/// paper's §7 considers "approximate versions of real-time channels, as
/// well as new schemes with reduced implementation complexity" — the
/// banded variant quantises laxity and serves FIFO within a band, trading
/// bounded priority inversion for hardware that scales with the band count
/// instead of the packet count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The exact comparator tree (Figure 5). Default.
    #[default]
    ComparatorTree,
    /// Quantised-laxity bands of `2^band_shift` slots, FIFO within a band.
    Banded {
        /// Laxity bits dropped before comparison.
        band_shift: u32,
    },
    /// The Table 1 reference discipline evaluated directly (no keys, no
    /// comparators) — the specification run as a live scheduler, for
    /// ablation against the implementations. Requires
    /// [`LatePolicy::Saturate`].
    Oracle,
}

/// Architectural parameters of the real-time router (Table 4a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Connection-table entries per router (paper: 256).
    pub connections: usize,
    /// Time-constrained packet buffers in the shared packet memory
    /// (paper: 256). Also the number of comparator-tree leaves.
    pub packet_slots: usize,
    /// Width of the on-chip slot clock in bits (paper: 8; keys are one bit
    /// wider).
    pub clock_bits: u32,
    /// Size of a time-constrained packet in bytes, including its two header
    /// bytes; also the length of a scheduler slot in cycles (paper: 20).
    pub slot_bytes: usize,
    /// Best-effort flit input buffer per network input port, in bytes
    /// (paper: 10).
    pub flit_buffer_bytes: usize,
    /// Bytes accumulated per internal-bus transfer for wormhole traffic
    /// (paper: five-byte chunks).
    pub chunk_bytes: usize,
    /// Width of the shared packet memory in bytes (paper: 10-byte SRAM).
    pub memory_chunk_bytes: usize,
    /// Comparator-tree pipeline depth (paper: 2 stages).
    pub sched_pipeline_stages: usize,
    /// Leaves multiplexed onto one base comparator (paper: 1; §5.1's cost
    /// reduction serialises `k` packets' keys through one comparator,
    /// which multiplies the selection latency by `k`).
    pub leaf_sharing: usize,
    /// Treatment of late packets in key computation (see
    /// [`LatePolicy`]).
    pub late_policy: LatePolicy,
    /// Link-scheduling logic variant (see [`SchedulerKind`]).
    pub scheduler: SchedulerKind,
    /// Enable virtual cut-through for time-constrained traffic — the
    /// paper's §7 extension: "permit an arriving packet to proceed
    /// directly to its output link if no other packets have smaller
    /// sorting keys". The paper's fabricated chip buffers every packet
    /// (`false`).
    pub tc_cut_through: bool,
    /// Datapath pipeline timing.
    pub timing: TimingConfig,
}

impl Default for RouterConfig {
    /// The paper's chip (Table 4a).
    fn default() -> Self {
        RouterConfig {
            connections: 256,
            packet_slots: 256,
            clock_bits: 8,
            slot_bytes: 20,
            flit_buffer_bytes: 10,
            chunk_bytes: 5,
            memory_chunk_bytes: 10,
            sched_pipeline_stages: 2,
            leaf_sharing: 1,
            late_policy: LatePolicy::Saturate,
            scheduler: SchedulerKind::ComparatorTree,
            tc_cut_through: false,
            timing: TimingConfig::default(),
        }
    }
}

impl RouterConfig {
    /// Payload bytes per time-constrained packet (18 with the defaults:
    /// 20-byte packet minus the two header bytes of Figure 3a).
    #[must_use]
    pub fn tc_data_bytes(&self) -> usize {
        self.slot_bytes - 2
    }

    /// The sorting-key width in bits (clock bits + 1; Table 4a's "8 (9)").
    #[must_use]
    pub fn key_bits(&self) -> u32 {
        self.clock_bits + 1
    }

    /// The effective scheduler selection latency in cycles: the pipeline
    /// latency multiplied by the leaf-sharing serialisation factor (§5.1).
    #[must_use]
    pub fn effective_sched_latency(&self) -> u64 {
        self.timing.sched_latency_cycles * self.leaf_sharing as u64
    }

    /// Total best-effort bytes one input path can hold: the flit input
    /// buffer plus the port's nominal staging buffer (§3.4: "each port
    /// includes nominal buffer space to avoid stalling the flow of data").
    /// This is the credit pool advertised upstream; it must cover the
    /// credit round trip for wormhole streams to flow at one byte per cycle
    /// in the absence of contention.
    #[must_use]
    pub fn be_path_bytes(&self) -> usize {
        self.flit_buffer_bytes + self.memory_chunk_bytes
    }

    /// Checks parameter ranges and mutual consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn range(
            parameter: &'static str,
            value: u64,
            ok: bool,
            constraint: &'static str,
        ) -> Result<(), ConfigError> {
            if ok {
                Ok(())
            } else {
                Err(ConfigError::OutOfRange { parameter, constraint, value })
            }
        }
        range(
            "connections",
            self.connections as u64,
            (1..=65_536).contains(&self.connections),
            "1..=65536",
        )?;
        range(
            "packet_slots",
            self.packet_slots as u64,
            (1..=65_536).contains(&self.packet_slots),
            "1..=65536",
        )?;
        range(
            "clock_bits",
            u64::from(self.clock_bits),
            (2..=30).contains(&self.clock_bits),
            "2..=30",
        )?;
        range(
            "slot_bytes",
            self.slot_bytes as u64,
            (3..=256).contains(&self.slot_bytes),
            "3..=256 (two header bytes + payload; continuation indices are one byte)",
        )?;
        range("chunk_bytes", self.chunk_bytes as u64, self.chunk_bytes >= 1, "at least 1")?;
        range(
            "memory_chunk_bytes",
            self.memory_chunk_bytes as u64,
            self.memory_chunk_bytes >= 1,
            "at least 1",
        )?;
        range(
            "sched_pipeline_stages",
            self.sched_pipeline_stages as u64,
            (1..=8).contains(&self.sched_pipeline_stages),
            "1..=8",
        )?;
        range(
            "leaf_sharing",
            self.leaf_sharing as u64,
            (1..=64).contains(&self.leaf_sharing),
            "1..=64",
        )?;
        if self.flit_buffer_bytes < self.chunk_bytes {
            return Err(ConfigError::Inconsistent {
                reason: format!(
                    "flit buffer ({} bytes) must hold at least one chunk ({} bytes)",
                    self.flit_buffer_bytes, self.chunk_bytes
                ),
            });
        }
        if self.slot_bytes < self.chunk_bytes {
            return Err(ConfigError::Inconsistent {
                reason: format!(
                    "a packet slot ({} bytes) must be at least one chunk ({} bytes)",
                    self.slot_bytes, self.chunk_bytes
                ),
            });
        }
        if let SchedulerKind::Banded { band_shift } = self.scheduler {
            if band_shift >= self.clock_bits - 1 {
                return Err(ConfigError::Inconsistent {
                    reason: format!(
                        "band shift {band_shift} must leave at least one laxity band \
                         (clock is {} bits)",
                        self.clock_bits
                    ),
                });
            }
        }
        if self.scheduler == SchedulerKind::Oracle && self.late_policy != LatePolicy::Saturate {
            return Err(ConfigError::Inconsistent {
                reason: "the oracle scheduler implements Table 1, which saturates late packets"
                    .to_string(),
            });
        }
        Ok(())
    }
}

/// One row of the paper's Table 2: how a traffic class is treated by each
/// architectural mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassPolicy {
    /// Switching scheme.
    pub switching: Switching,
    /// Link arbitration.
    pub arbitration: Arbitration,
    /// Routing scheme.
    pub routing: Routing,
    /// Buffer organisation.
    pub buffering: Buffering,
    /// Flow-control scheme.
    pub flow_control: FlowControl,
    /// Whether packets are fixed-size.
    pub fixed_packet_size: bool,
}

/// Switching policies (Table 2 row "Switching").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Switching {
    /// Store-and-forward packet switching.
    PacketSwitching,
    /// Wormhole switching.
    Wormhole,
    /// Virtual cut-through (the §7 future-work extension).
    VirtualCutThrough,
}

/// Link arbitration policies (Table 2 row "Link arbitration").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arbitration {
    /// Deadline-driven (multiclass earliest-due-date).
    DeadlineDriven,
    /// Round-robin over the input links.
    RoundRobin,
    /// Fixed class priority (the baseline priority-VC design of §6).
    ClassPriority,
}

/// Routing policies (Table 2 row "Routing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routing {
    /// Table-driven, supporting multicast (connection table indexed by
    /// connection identifier).
    TableDrivenMulticast,
    /// Dimension-ordered unicast on header offsets.
    DimensionOrderedUnicast,
}

/// Buffer organisations (Table 2 row "Buffers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// A single packet memory shared by the output ports.
    SharedOutputQueues,
    /// Small flit buffers at the input links.
    InputFlitBuffers,
}

/// Flow-control schemes (Table 2 row "Flow control").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowControl {
    /// Rate-based: buffer space is reserved by admission control, no
    /// per-packet acknowledgements.
    RateBased,
    /// Per-flit acknowledgements on the reverse link.
    FlitAcks,
}

/// The paper's Table 2: the policy the real-time router applies to each
/// traffic class.
#[must_use]
pub fn table2_policy(class: TrafficClass) -> ClassPolicy {
    match class {
        TrafficClass::TimeConstrained => ClassPolicy {
            switching: Switching::PacketSwitching,
            arbitration: Arbitration::DeadlineDriven,
            routing: Routing::TableDrivenMulticast,
            buffering: Buffering::SharedOutputQueues,
            flow_control: FlowControl::RateBased,
            fixed_packet_size: true,
        },
        TrafficClass::BestEffort => ClassPolicy {
            switching: Switching::Wormhole,
            arbitration: Arbitration::RoundRobin,
            routing: Routing::DimensionOrderedUnicast,
            buffering: Buffering::InputFlitBuffers,
            flow_control: FlowControl::FlitAcks,
            fixed_packet_size: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_4a() {
        let c = RouterConfig::default();
        assert_eq!(c.connections, 256);
        assert_eq!(c.packet_slots, 256);
        assert_eq!(c.clock_bits, 8);
        assert_eq!(c.key_bits(), 9);
        assert_eq!(c.slot_bytes, 20);
        assert_eq!(c.tc_data_bytes(), 18);
        assert_eq!(c.flit_buffer_bytes, 10);
        assert_eq!(c.sched_pipeline_stages, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn per_traversal_head_latency_is_ten_cycles() {
        // sync (2) + header (2) + chunk accumulation (5) + bus grant (1)
        // = 10 cycles per traversal; 3 traversals = the paper's 30-cycle
        // overhead of Experiment 1.
        let t = TimingConfig::default();
        let c = RouterConfig::default();
        assert_eq!(t.sync_cycles + t.header_cycles + c.chunk_bytes as u64 + t.bus_grant_cycles, 10);
    }

    #[test]
    fn leaf_sharing_scales_the_selection_latency() {
        let base = RouterConfig::default();
        assert_eq!(base.effective_sched_latency(), 4);
        let shared = RouterConfig { leaf_sharing: 8, ..RouterConfig::default() };
        assert_eq!(shared.effective_sched_latency(), 32);
        assert!(shared.validate().is_ok());
        assert!(RouterConfig { leaf_sharing: 0, ..RouterConfig::default() }.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = RouterConfig { clock_bits: 1, ..RouterConfig::default() };
        assert!(c.validate().is_err());
        c.clock_bits = 8;
        c.slot_bytes = 2;
        assert!(c.validate().is_err());
        c.slot_bytes = 20;
        c.flit_buffer_bytes = 2; // smaller than the 5-byte chunk
        assert!(matches!(c.validate(), Err(ConfigError::Inconsistent { .. })));
        c.flit_buffer_bytes = 10;
        c.connections = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn slot_bytes_is_bounded_by_the_one_byte_continuation_index() {
        // A packet's last continuation symbol carries index `slot_bytes − 1`
        // in a `u8`: 256 is the largest slot that does not wrap it.
        let with = |slot_bytes| RouterConfig { slot_bytes, ..RouterConfig::default() }.validate();
        assert!(with(256).is_ok());
        assert!(matches!(
            with(257),
            Err(ConfigError::OutOfRange { parameter: "slot_bytes", value: 257, .. })
        ));
        assert!(with(5).is_ok() && with(2).is_err());
    }

    #[test]
    fn table2_matches_paper() {
        let tc = table2_policy(TrafficClass::TimeConstrained);
        assert_eq!(tc.switching, Switching::PacketSwitching);
        assert_eq!(tc.arbitration, Arbitration::DeadlineDriven);
        assert_eq!(tc.routing, Routing::TableDrivenMulticast);
        assert_eq!(tc.buffering, Buffering::SharedOutputQueues);
        assert_eq!(tc.flow_control, FlowControl::RateBased);
        assert!(tc.fixed_packet_size);

        let be = table2_policy(TrafficClass::BestEffort);
        assert_eq!(be.switching, Switching::Wormhole);
        assert_eq!(be.arbitration, Arbitration::RoundRobin);
        assert_eq!(be.routing, Routing::DimensionOrderedUnicast);
        assert_eq!(be.buffering, Buffering::InputFlitBuffers);
        assert_eq!(be.flow_control, FlowControl::FlitAcks);
        assert!(!be.fixed_packet_size);
    }
}
