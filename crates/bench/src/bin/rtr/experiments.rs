//! The paper's tables and figures and the extension sweeps, printed in
//! the paper's format. Each function is one row of `COMMANDS`; the
//! experiments themselves live in the `rtr_bench` library.

use rtr_hwcost::HardwareModel;
use rtr_types::config::{table2_policy, RouterConfig, SchedulerKind};
use rtr_types::ids::TrafficClass;

use crate::{Args, Keys};

fn no_args(args: &[String]) -> Result<(), String> {
    Args::parse(&[], 0, args).map(drop)
}

/// Experiment E1 (paper §5.2): best-effort wormhole latency on the
/// single-router loop-back configuration. The paper reports `30 + b`
/// cycles for a `b`-byte packet; see `EXPERIMENTS.md` for the one-cycle
/// constant offset of our link model.
pub fn exp1(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let rows = rtr_bench::exp1::run(&[8, 16, 20, 32, 64, 96, 128, 192, 256]);
    println!("Experiment 1 — wormhole loop-back latency (3 router traversals)");
    println!();
    println!(
        "{:>8} {:>16} {:>14} {:>10} {:>20}",
        "bytes b", "measured cycles", "paper 30 + b", "delta", "store&forward cycles"
    );
    for r in &rows {
        println!(
            "{:>8} {:>16} {:>14} {:>10} {:>20}",
            r.bytes,
            r.wormhole_latency,
            r.paper_formula,
            r.wormhole_latency as i64 - r.paper_formula as i64,
            r.store_forward_latency,
        );
    }
    println!();
    let d0 = rows[0].wormhole_latency as i64 - rows[0].bytes as i64;
    let all_linear = rows.iter().all(|r| r.wormhole_latency as i64 - r.bytes as i64 == d0);
    println!(
        "latency = {} + b for every size (paper: 30 + b): linear fit {}",
        d0,
        if all_linear { "EXACT" } else { "FAILED" }
    );
    println!(
        "store-and-forward pays ≈ 3× the packet length (the §3.1 contrast): {} vs {} cycles at b = 256",
        rows.last().unwrap().store_forward_latency,
        rows.last().unwrap().wormhole_latency
    );
    Ok(())
}

/// Figure 7 (paper §5.2): cumulative time-constrained and best-effort
/// service on one link; three backlogged connections with
/// `(d, I_min)` = (4,8), (8,16), (16,32) slots plus backlogged best-effort
/// traffic, horizon `h = 0`.
pub fn fig7(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let result = rtr_bench::fig7::run(0, 92, 40_000, 2_000);
    println!("Figure 7 — time-constrained and best-effort service (cumulative bytes)");
    println!();
    println!("connection parameters (20-byte slots):");
    for (i, (d, i_min)) in result.params.iter().enumerate() {
        println!("  connection {}: d = {d}, I_min = {i_min}", i + 1);
    }
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "cycles", "conn 1", "conn 2", "conn 3", "best-effort"
    );
    for s in &result.samples {
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12}",
            s.cycle, s.tc_bytes[0], s.tc_bytes[1], s.tc_bytes[2], s.be_bytes
        );
    }
    println!();
    println!("long-run bandwidth shares (bytes/cycle; link capacity 1.0):");
    for (i, (share, reserved)) in
        result.tc_shares.iter().zip([1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]).enumerate()
    {
        println!("  connection {}: measured {:.5}  reserved {:.5}", i + 1, share, reserved);
    }
    println!("  best-effort:  measured {:.5}  (absorbs the excess)", result.be_share);
    println!();
    println!(
        "deadline misses: {} / {} delivered (paper: every packet by its deadline)",
        result.deadline_misses, result.delivered
    );
    Ok(())
}

/// Table 4 (paper §5.1): the router specification — architectural
/// parameters (4a) and estimated chip complexity (4b) from the analytical
/// hardware model.
pub fn table4(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let config = RouterConfig::default();
    println!("Table 4(a) — architectural parameters");
    println!("  Connections:               {}", config.connections);
    println!("  Time-constrained packets:  {}", config.packet_slots);
    println!("  Clock (sorting key):       {} ({}) bits", config.clock_bits, config.key_bits());
    println!("  Comparator tree pipeline:  {} stages", config.sched_pipeline_stages);
    println!("  Flit input buffer:         {} bytes", config.flit_buffer_bytes);
    println!("  Packet size:               {} bytes", config.slot_bytes);
    println!();

    let report = HardwareModel::new(config.clone()).report();
    println!(
        "Table 4(b) — estimated chip complexity (paper: 905,104 T; 8.1 × 8.7 mm; 2.3 W; 123 pins)"
    );
    for block in &report.blocks {
        println!(
            "  {:<22} {:>9} transistors ({:>4.1}%)",
            block.name,
            block.transistors,
            100.0 * block.transistors as f64 / report.total_transistors as f64
        );
    }
    println!("  {:<22} {:>9} transistors", "TOTAL", report.total_transistors);
    println!("  Estimated area:            {:.1} mm²", report.area_mm2);
    println!("  Estimated power:           {:.2} W", report.power_w);
    println!("  Signal pins:               {}", report.signal_pins);
    println!(
        "  Scheduling logic dominates (paper's observation): {}",
        report.scheduler_dominates()
    );
    println!();

    let t = report.tree;
    println!("Comparator-tree timing (§5.1):");
    println!("  levels: {}   stages: {}   stage: {:.1} ns", t.levels, t.stages, t.stage_ns);
    println!(
        "  selections per {}-cycle slot: {:.1} → supports {} output ports (chip has 5)",
        config.slot_bytes, t.selections_per_slot, t.ports_supported
    );
    println!();

    println!("Table 2 — per-class policies:");
    for class in [TrafficClass::TimeConstrained, TrafficClass::BestEffort] {
        let p = table2_policy(class);
        println!("  {class}: {p:?}");
    }
    println!();

    println!("Scaling study (§5.1 — larger trees, deeper pipelines):");
    println!(
        "  {:>7} {:>7} {:>12} {:>9} {:>7} {:>9}",
        "packets", "stages", "transistors", "mm²", "ports", "5-port?"
    );
    for row in rtr_hwcost::scaling_table(&[64, 256, 1024, 4096], &[2, 5]) {
        println!(
            "  {:>7} {:>7} {:>12} {:>9.1} {:>7} {:>9}",
            row.packet_slots,
            row.stages,
            row.transistors,
            row.area_mm2,
            row.ports_supported,
            row.feasible_for_five_ports
        );
    }
    Ok(())
}

/// Extension X2: the real-time router against the §6 baselines. One
/// tight-deadline channel shares its destination with two legally-bursty
/// aggressors under rising best-effort background load.
pub fn baselines(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let rows = rtr_bench::baseline_compare::run(&[0.0, 0.1, 0.2, 0.3], 60_000);
    println!("Baseline comparison — tight channel: period 8 slots, deadline 12 slots");
    println!();
    println!(
        "{:>20} {:>8} {:>10} {:>8} {:>8} {:>12} {:>10}",
        "design", "BE rate", "delivered", "misses", "miss %", "mean cycles", "max cycles"
    );
    for r in &rows {
        println!(
            "{:>20} {:>8.2} {:>10} {:>8} {:>8.1} {:>12.1} {:>10}",
            r.design.to_string(),
            r.be_rate,
            r.delivered,
            r.misses,
            r.miss_percent(),
            r.mean_latency,
            r.max_latency
        );
    }
    println!();
    println!("expected shape: the real-time router never misses; priority-FIFO misses under");
    println!("bursty peers (no regulation, no deadlines); wormhole degrades with load.");
    Ok(())
}

/// Extension X8 (paper §7): exact comparator-tree scheduling vs the
/// banded (reduced-complexity) approximation.
pub fn sched(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let rows = rtr_bench::sched_ablation::run(&[0, 1, 2, 3, 4, 5], 60_000);
    println!("Scheduler ablation — tight connection (d = 2) vs six loose (d = 8), period 8");
    println!();
    println!(
        "{:>24} {:>11} {:>10} {:>8} {:>12}",
        "scheduler", "band slots", "delivered", "misses", "mean cycles"
    );
    for r in &rows {
        let name = match r.kind {
            SchedulerKind::ComparatorTree => "comparator tree".to_string(),
            SchedulerKind::Oracle => "table-1 oracle".to_string(),
            SchedulerKind::Banded { band_shift } => format!("banded (shift {band_shift})"),
        };
        println!(
            "{:>24} {:>11} {:>10} {:>8} {:>12.1}",
            name, r.band_slots, r.delivered, r.misses, r.mean_latency
        );
    }
    println!();
    println!("hardware cost of the scheduling logic (analytical model):");
    let tree = HardwareModel::new(RouterConfig::default()).report();
    println!("{:>24} {:>12} transistors", "comparator tree", tree.block("link scheduler"));
    for shift in [1u32, 3, 5] {
        let banded = HardwareModel::new(RouterConfig {
            scheduler: SchedulerKind::Banded { band_shift: shift },
            ..RouterConfig::default()
        })
        .report();
        println!(
            "{:>24} {:>12} transistors",
            format!("banded (shift {shift})"),
            banded.block("link scheduler")
        );
    }
    println!();
    println!("expected shape: the tree never misses; bands are safe while narrower than");
    println!("the laxity gap, then invert the tight connection — the §7 complexity/");
    println!("fidelity trade-off.");
    Ok(())
}

/// Extension X7 (paper §7): virtual cut-through for time-constrained
/// traffic — per-hop latency saving at zero cost to guarantees.
pub fn vct(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let rows = rtr_bench::vct::run(&[1, 2, 3, 4, 6], 60_000);
    println!("Virtual cut-through ablation — light periodic load over a chain");
    println!();
    println!(
        "{:>6} {:>16} {:>16} {:>14} {:>10} {:>8}",
        "hops", "buffered cycles", "cut-through", "saved per hop", "cut frac", "misses"
    );
    for r in &rows {
        println!(
            "{:>6} {:>16.1} {:>16.1} {:>14.1} {:>10.2} {:>8}",
            r.hops,
            r.buffered_latency,
            r.cut_latency,
            r.saving_per_hop(),
            r.cut_fraction,
            r.misses
        );
    }
    println!();
    println!("expected shape: per-hop saving ≈ packet time + store/schedule waits;");
    println!("misses stay 0 — the §7 claim that cut-through improves average latency");
    println!("without touching the guarantees.");
    Ok(())
}

/// Extension X1: the horizon trade-off (paper §2/§4.1) — larger `h` lowers
/// latency for early traffic but requires more downstream buffering.
pub fn horizon(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let rows = rtr_bench::horizon::run(&[0, 2, 4, 8, 16, 32, 64], 60_000);
    println!("Horizon sweep — one backlogged connection over a 3-node chain");
    println!();
    println!(
        "{:>8} {:>14} {:>12} {:>10} {:>14} {:>8}",
        "h slots", "mean latency", "early sends", "dst held", "reserve (§2)", "misses"
    );
    for r in &rows {
        println!(
            "{:>8} {:>14.1} {:>12} {:>10} {:>14} {:>8}",
            r.horizon,
            r.mean_latency,
            r.early_transmissions,
            r.dst_held_packets,
            r.required_reservation,
            r.deadline_misses
        );
    }
    println!();
    println!("expected shape: latency falls with h; destination buffering (measured and");
    println!("reserved) rises with h; misses stay 0 — the §2/§4.1 trade-off.");
    Ok(())
}

/// Extension X12: best-effort load–latency curves under real-time
/// reservations (4×4 mesh, uniform random traffic).
pub fn load_latency(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let periods = [None, Some(16), Some(8)];
    let rates = [0.002, 0.005, 0.01, 0.02, 0.03, 0.045];
    println!("Best-effort load–latency curves (4×4 mesh, uniform random, 28-byte payloads)");
    println!();
    println!(
        "{:>14} {:>9} {:>10} {:>12} {:>10} {:>12} {:>9}",
        "reserved", "offered", "delivered", "mean cycles", "p99", "throughput", "tc miss"
    );
    for &period in &periods {
        for &rate in &rates {
            let p = rtr_bench::load_latency::run_point(period, rate, 60_000);
            let reserved = match period {
                None => "none".to_string(),
                Some(per) => format!("20/{per} slots"),
            };
            println!(
                "{:>14} {:>9.3} {:>10} {:>12.1} {:>10} {:>12.5} {:>9}",
                reserved, rate, p.be_delivered, p.be_mean, p.be_p99, p.throughput, p.tc_misses
            );
        }
        println!();
    }
    println!("expected shape: latency knees upward with offered load; heavier reservations");
    println!("shift the knee left; the reserved channels never miss at any point.");
    Ok(())
}

/// Extension X3 (paper §7): end-to-end guarantees across a 4×4 mesh —
/// seeded random channel set, periodic senders, best-effort background.
pub fn guarantees(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    println!("Mesh guarantees — 4×4 mesh, random admitted channels + background load");
    println!();
    println!(
        "{:>6} {:>8} {:>9} {:>10} {:>7} {:>10} {:>8} {:>9} {:>12}",
        "seed",
        "offered",
        "admitted",
        "delivered",
        "misses",
        "min slack",
        "aliased",
        "peak mem",
        "BE delivered"
    );
    let row = |side, offered, be_rate, seed| {
        let r = rtr_bench::mesh_guarantees::run(side, offered, be_rate, seed, 100_000);
        println!(
            "{:>6} {:>8} {:>9} {:>10} {:>7} {:>10} {:>8} {:>9} {:>12}",
            seed,
            r.offered,
            r.admitted,
            r.delivered,
            r.misses,
            r.min_slack,
            r.aliased_keys,
            r.peak_memory,
            r.be_delivered
        );
    };
    for seed in [1u64, 7, 42, 1234] {
        row(4, 16, 0.15, seed);
    }
    println!();
    println!("scalability (8×8 mesh, 48 offered channels):");
    row(8, 48, 0.1, 2026);
    println!();
    println!("the guarantee under test: zero misses, zero key aliasing for every admitted set");
    Ok(())
}

const LEAPING_KEYS: &Keys = &[
    ("cycles", "simulated cycles per run (default 100000)"),
    ("iters", "runs per point, best wall-clock kept (default 5)"),
];

/// The event-driven leaping sweep: stepped vs leaping wall-clock at ~1%,
/// ~10%, and ~50% injection (see `EXPERIMENTS.md`, "Event-driven
/// leaping"). An experiment about the simulator, not a recorded
/// measurement: each point also asserts both drives delivered alike.
pub fn leaping(args: &[String]) -> Result<(), String> {
    let args = Args::parse(LEAPING_KEYS, 0, args)?;
    let cycles: u64 = args.num("cycles", 100_000)?;
    let iters: usize = args.num_in("iters", 5, 1..=usize::MAX)?;
    println!("event-driven leaping sweep: 8x8 mesh, {cycles} cycles, best of {iters}");
    println!(
        "{:>12} {:>10} {:>12} {:>12} {:>9} {:>14} {:>14} {:>10} {:>11} {:>12}",
        "period",
        "~inject",
        "stepped",
        "leaping",
        "speedup",
        "stepped-ticks",
        "leaping-ticks",
        "short-poll",
        "guard-only",
        "guard-cycles"
    );
    for point in rtr_bench::leaping::run(cycles, iters) {
        println!(
            "{:>10}sl {:>9.1}% {:>11.4}s {:>11.4}s {:>8.1}x {:>14} {:>14} {:>9.1}% {:>11} {:>12}",
            point.period_slots,
            100.0 / point.period_slots as f64,
            point.stepped_s,
            point.leaping_s,
            point.speedup(),
            point.stepped_ticks,
            point.leaping_ticks,
            100.0 * point.short_poll_rate(),
            point.wake.sync_guard_only,
            point.wake.sync_guard_foregone,
        );
    }
    Ok(())
}

/// The three scripted fault scenarios and their recovery columns (see
/// `EXPERIMENTS.md`, "Fault injection"). Deterministic: the rows are
/// pinned by `chaos::tests::chaos_rows_match_the_recorded_run`.
pub fn chaos(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    println!("Chaos scenarios — 3×3 mesh, one victim and one bystander channel");
    println!();
    println!(
        "{:>26} {:>8} {:>9} {:>9} {:>10} {:>7} {:>8} {:>16} {:>16} {:>6} {:>8}",
        "scenario",
        "fault at",
        "detected",
        "rerouted",
        "recovered",
        "window",
        "reroute",
        "victim dlv/miss",
        "bystand dlv/miss",
        "lost",
        "corrupt"
    );
    let outcomes = rtr_bench::chaos::run_all();
    for o in &outcomes {
        println!(
            "{:>26} {:>8} {:>9} {:>9} {:>10} {:>7} {:>8} {:>16} {:>16} {:>6} {:>8}",
            o.scenario,
            o.fault_at,
            o.detected_at,
            o.rerouted_at,
            o.recovered_at,
            o.violation_window,
            o.reroute_latency,
            format!("{}/{}", o.victim_delivered, o.victim_misses),
            format!("{}/{}", o.bystander_delivered, o.bystander_misses),
            o.symbols_lost,
            o.symbols_corrupted
        );
    }
    println!();
    for o in outcomes.iter().filter(|o| o.victim_misses > 0) {
        println!(
            "{}: victim deliveries past their deadline at cycles {:?}",
            o.scenario, o.victim_late_at
        );
    }
    println!("the guarantee under test: the bystander never misses; the victim may miss");
    println!("only inside its violation window (fault → first post-recovery arrival).");
    Ok(())
}

/// The connection-churn scenario and its admission/teardown ledger (see
/// `EXPERIMENTS.md`, "Connection churn"). Deterministic: the row is pinned
/// by `churn::tests::churn_row_matches_the_recorded_run`.
pub fn churn(args: &[String]) -> Result<(), String> {
    no_args(args)?;
    let o = rtr_bench::churn::run_churn(rtr_bench::churn::DriveMode::Dense);
    println!("Connection churn — 8×8 mesh, 2 bystanders, live establish/teardown");
    println!();
    println!(
        "establishments: {} attempted, {} accepted, {} rejected; {} teardowns",
        o.attempted, o.accepted, o.rejected, o.teardowns
    );
    println!(
        "table writes:   {} at {} cycles each ({} applied, {} failed); {} cycles per establishment",
        o.table_writes,
        o.write_cost_cycles,
        o.control_ops_applied,
        o.control_ops_rejected,
        o.setup_cycles_per_establish
    );
    for (cycle, node, message) in &o.control_rejections {
        println!("  failed at cycle {cycle}, node {node}: {message}");
    }
    println!(
        "setup rate:     {} establishments/Mcycle over {} cycles",
        o.accepted_per_mcycle, o.span_cycles
    );
    println!(
        "churned:        {} delivered, {} aborted into the teardown ledger",
        o.churn_delivered, o.aborted_packets
    );
    println!(
        "bystanders:     {} delivered, {} misses (the guarantee under test: 0)",
        o.bystander_delivered, o.bystander_misses
    );
    Ok(())
}
