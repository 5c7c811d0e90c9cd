//! Transistor, area, power and pin estimates per chip block.

use rtr_types::config::RouterConfig;
use rtr_types::ids::PORT_COUNT;

use crate::timing::TreeTiming;

/// Per-transistor process constants, calibrated to the paper's
/// three-metal 0.5 µm CMOS chip (905,104 transistors on
/// 8.1 mm × 8.7 mm ≈ 70.5 mm², 2.3 W at 50 MHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessParams {
    /// Average layout area per transistor, µm².
    pub um2_per_transistor: f64,
    /// Average power per transistor at the chip's clock, µW.
    pub uw_per_transistor: f64,
    /// Delay of one comparator level, ns.
    pub comparator_level_ns: f64,
    /// Clock period, ns (50 MHz → 20 ns).
    pub cycle_ns: f64,
}

impl Default for ProcessParams {
    fn default() -> Self {
        ProcessParams {
            um2_per_transistor: 70.47e6 / 905_104.0, // ≈ 77.9 µm²/T
            uw_per_transistor: 2.3e6 / 905_104.0,    // ≈ 2.54 µW/T
            comparator_level_ns: 10.0,
            cycle_ns: 20.0,
        }
    }
}

/// Transistor estimate for one chip block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCost {
    /// Block name.
    pub name: &'static str,
    /// Estimated transistors.
    pub transistors: u64,
}

/// The full cost report.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Per-block transistor estimates.
    pub blocks: Vec<BlockCost>,
    /// Total transistors.
    pub total_transistors: u64,
    /// Estimated die area, mm².
    pub area_mm2: f64,
    /// Estimated power, W.
    pub power_w: f64,
    /// Estimated signal pins.
    pub signal_pins: u32,
    /// Comparator-tree timing analysis.
    pub tree: TreeTiming,
}

impl CostReport {
    /// The transistor count of a named block.
    #[must_use]
    pub fn block(&self, name: &str) -> u64 {
        self.blocks.iter().find(|b| b.name == name).map_or(0, |b| b.transistors)
    }

    /// Whether the scheduling logic is the largest block — the paper's
    /// headline area observation.
    #[must_use]
    pub fn scheduler_dominates(&self) -> bool {
        let sched = self.block("link scheduler");
        self.blocks.iter().all(|b| b.name == "link scheduler" || b.transistors <= sched)
    }
}

/// The analytical hardware model of the router chip.
#[derive(Debug, Clone)]
pub struct HardwareModel {
    config: RouterConfig,
    process: ProcessParams,
    /// Leaves multiplexed onto one comparator at the tree base (1 = the
    /// paper's design; >1 is the §5.1 leaf-sharing cost reduction).
    leaf_sharing: usize,
}

// Structural constants (transistors), order-of-magnitude digital-design
// figures: a 6T SRAM cell, ~10 T per comparator cell and per 2:1 mux bit,
// ~28 T per full-adder bit, ~8 T per register bit.
const SRAM_CELL: u64 = 6;
const COMPARATOR_BIT: u64 = 10;
const MUX_BIT: u64 = 10;
const ADDER_BIT: u64 = 28;
const REG_BIT: u64 = 8;
const GATE: u64 = 4;

impl HardwareModel {
    /// Builds the model for a router configuration with the default
    /// (paper-calibrated) process. The configuration's own `leaf_sharing`
    /// sets how many leaves share one base comparator (the §5.1 cost
    /// reduction).
    #[must_use]
    pub fn new(config: RouterConfig) -> Self {
        let leaf_sharing = config.leaf_sharing.max(1);
        HardwareModel { config, process: ProcessParams::default(), leaf_sharing }
    }

    /// The configuration being modelled.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Produces the full cost report.
    #[must_use]
    pub fn report(&self) -> CostReport {
        let c = &self.config;
        let key_bits = u64::from(c.key_bits());
        let clock_bits = u64::from(c.clock_bits);
        let leaves = c.packet_slots as u64;
        let addr_bits = (c.packet_slots.max(2) as u64 - 1).ilog2() as u64 + 1;

        let scheduler = match c.scheduler {
            rtr_types::config::SchedulerKind::ComparatorTree => {
                self.tree_scheduler_transistors(key_bits, clock_bits, leaves, addr_bits)
            }
            rtr_types::config::SchedulerKind::Banded { band_shift } => {
                banded_scheduler_transistors(c, band_shift, addr_bits)
            }
            // The oracle is a software-only specification model; cost it as
            // the hardware it specifies (the exact tree).
            rtr_types::config::SchedulerKind::Oracle => {
                self.tree_scheduler_transistors(key_bits, clock_bits, leaves, addr_bits)
            }
        };

        // --- Packet memory (§3.4) ------------------------------------
        let mem_bits = leaves * c.slot_bytes as u64 * 8;
        let idle_fifo = leaves * addr_bits * SRAM_CELL + 200 * GATE;
        let memory = mem_bits * SRAM_CELL + idle_fifo + (c.memory_chunk_bytes as u64 * 8) * 400; // sense amps / decode periphery

        // --- Connection table (Table 3) ------------------------------
        let conn_bits = c.connections as u64 * (2 * 16.min(addr_bits + 8) + clock_bits + 5);
        let table = conn_bits * SRAM_CELL + 600 * GATE;

        // --- Datapath: ports, flit buffers, bus, control --------------
        let flit_bits = PORT_COUNT as u64 * c.be_path_bytes() as u64 * 8;
        let datapath = flit_bits * REG_BIT
            + PORT_COUNT as u64 * 2 * (c.memory_chunk_bytes as u64 * 8) * REG_BIT // staging
            + 2 * (c.memory_chunk_bytes as u64 * 8) * MUX_BIT * PORT_COUNT as u64 // bus muxing
            + 8_000 * GATE; // port FSMs, arbitration, control interface

        let blocks = vec![
            BlockCost { name: "link scheduler", transistors: scheduler },
            BlockCost { name: "packet memory", transistors: memory },
            BlockCost { name: "connection table", transistors: table },
            BlockCost { name: "datapath & control", transistors: datapath },
        ];
        let total: u64 = blocks.iter().map(|b| b.transistors).sum();

        // --- Pins ------------------------------------------------------
        // Each network link direction: 8 data + 1 virtual-channel bit +
        // 1 acknowledgement = 10; four links × 2 directions. Local: the
        // two injection ports and the reception port (9 signals each),
        // plus the control interface (~12) and a few global signals.
        let signal_pins = 4 * 2 * 10 + 3 * 9 + 12 + 4;

        CostReport {
            total_transistors: total,
            area_mm2: total as f64 * self.process.um2_per_transistor / 1e6,
            power_w: total as f64 * self.process.uw_per_transistor / 1e6,
            signal_pins,
            tree: TreeTiming::analyze(c, &self.process, self.leaf_sharing),
            blocks,
        }
    }

    /// Transistor estimate of the Figure 5 comparator-tree scheduler.
    fn tree_scheduler_transistors(
        &self,
        key_bits: u64,
        clock_bits: u64,
        leaves: u64,
        addr_bits: u64,
    ) -> u64 {
        // --- Link scheduler (Figure 5) -------------------------------
        // Per-leaf state and key logic: registers for ℓ and ℓ+d, the
        // 5-bit port mask, two subtractors for the normalised key, the
        // early/on-time comparison, and mask/update gating.
        let leaf_t = 2 * clock_bits * REG_BIT      // ℓ, ℓ+d registers
            + 5 * REG_BIT                           // port mask
            + 2 * clock_bits * ADDER_BIT            // ℓ−t, (ℓ+d)−t subtractors
            + key_bits * MUX_BIT                    // key select
            + 20 * GATE; // eligibility / clear logic
                         // Comparator nodes: one (key compare + key/addr mux + pipeline
                         // latch allowance) per internal node; leaf sharing divides the
                         // base-level comparators and their fanout.
        let effective_leaves = leaves.div_ceil(self.leaf_sharing as u64).max(2);
        let nodes = effective_leaves - 1;
        let node_t = key_bits * COMPARATOR_BIT
            + (key_bits + addr_bits) * MUX_BIT
            + (key_bits + addr_bits) * REG_BIT / 2; // amortised stage latches
                                                    // Shared-leaf modules add a small key store + sequencer.
        let share_t = if self.leaf_sharing > 1 {
            effective_leaves
                * (self.leaf_sharing as u64 * (key_bits + addr_bits) * SRAM_CELL + 40 * GATE)
        } else {
            0
        };
        // Fanout buffer tree from the packet-control bus (§5.1) and the
        // per-port horizon comparators.
        let fanout_t = leaves * 30 * GATE / 2;
        let horizon_t = PORT_COUNT as u64 * (clock_bits * COMPARATOR_BIT + clock_bits * REG_BIT);
        leaf_t * leaves + node_t * nodes + share_t + fanout_t + horizon_t
    }
}

/// Transistor estimate of the §7 banded scheduler: per output port, one
/// FIFO of packet addresses per band plus a band-select priority encoder,
/// and an insert-time bucketizer — cost grows with the band count, not
/// with the number of buffered packets.
fn banded_scheduler_transistors(c: &RouterConfig, band_shift: u32, addr_bits: u64) -> u64 {
    let clock_bits = u64::from(c.clock_bits);
    // Usable laxity bands: half the clock range divided by the band width.
    let bands = (1u64 << (clock_bits - 1)) >> band_shift;
    let leaves = c.packet_slots as u64;
    // Address FIFOs: the packet addresses live in one shared SRAM; each
    // (port, band) queue needs head/tail pointers and a head register.
    let fifo_ptrs = PORT_COUNT as u64 * bands * (2 * addr_bits + addr_bits) * REG_BIT;
    let addr_store = PORT_COUNT as u64 * leaves * addr_bits * SRAM_CELL;
    // Priority encoder over the non-empty bands, per port.
    let encoder = PORT_COUNT as u64 * bands * 6 * GATE;
    // Insert-time bucketizer: one subtractor + shifter per input.
    let bucketizer = PORT_COUNT as u64 * clock_bits * (ADDER_BIT + MUX_BIT);
    // Early/on-time split still needs the per-packet ℓ registers for the
    // horizon check at the head of each queue.
    let head_check = PORT_COUNT as u64 * bands * clock_bits * COMPARATOR_BIT / 4;
    fifo_ptrs + addr_store + encoder + bucketizer + head_check
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_report() -> CostReport {
        HardwareModel::new(RouterConfig::default()).report()
    }

    #[test]
    fn scheduler_dominates_like_the_paper() {
        let r = default_report();
        assert!(
            r.scheduler_dominates(),
            "the paper: scheduling logic accounts for the majority of the area; got {:?}",
            r.blocks
        );
        // Packet memory second, as in the paper.
        let mut sorted = r.blocks.clone();
        sorted.sort_by_key(|b| std::cmp::Reverse(b.transistors));
        assert_eq!(sorted[1].name, "packet memory");
    }

    #[test]
    fn totals_are_in_the_papers_ballpark() {
        let r = default_report();
        // Table 4b: 905,104 transistors, 70.5 mm², 2.3 W. The analytical
        // model should land within ±35% without per-block calibration.
        assert!(
            (600_000..=1_250_000).contains(&r.total_transistors),
            "total {} transistors",
            r.total_transistors
        );
        assert!((45.0..=100.0).contains(&r.area_mm2), "area {}", r.area_mm2);
        assert!((1.5..=3.2).contains(&r.power_w), "power {}", r.power_w);
    }

    #[test]
    fn pin_count_matches_table_4b() {
        assert_eq!(default_report().signal_pins, 123);
    }

    #[test]
    fn cost_scales_with_leaves() {
        let small =
            HardwareModel::new(RouterConfig { packet_slots: 64, ..RouterConfig::default() })
                .report();
        let large = default_report();
        assert!(large.block("link scheduler") > 3 * small.block("link scheduler"));
        assert!(large.block("packet memory") > 3 * small.block("packet memory"));
    }

    #[test]
    fn leaf_sharing_cuts_comparator_cost() {
        let base = default_report();
        let shared =
            HardwareModel::new(RouterConfig { leaf_sharing: 4, ..RouterConfig::default() })
                .report();
        assert!(
            shared.block("link scheduler") < base.block("link scheduler"),
            "sharing must reduce scheduler cost: {} vs {}",
            shared.block("link scheduler"),
            base.block("link scheduler")
        );
    }

    #[test]
    fn block_lookup_by_name() {
        let r = default_report();
        assert!(r.block("packet memory") > 0);
        assert_eq!(r.block("no such block"), 0);
    }
}
