//! An ops-style console: build a mesh scenario from the command line, run
//! it, and print the manager's reservation report plus the network report
//! (deliveries, latency histograms, deadline slack, occupancy, hottest
//! links). [`KEYS`] lists the arguments; the first seven may be given as
//! bare values in that order.
//!
//! `sample=N` snapshots packet-memory/scheduler/queue gauges every N cycles
//! and prints an occupancy summary. `trace=<path>` streams the cycle-level
//! packet lifecycle as JSONL (requires building with `--features metrics`;
//! replay it with `rtr trace-dump`). `metrics=<path>` writes the unified
//! metrics registry as JSONL — one line per counter/gauge/histogram at the
//! end of the run, or every `metrics_every=N` cycles when given (requires
//! `--features metrics` for non-empty output; `rtr trace-dump` summarises
//! the file). `faults=<path>` loads a scripted fault schedule
//! (`<cycle> link_down|link_up|node_crash|node_restore|link_flaky|\
//! link_stable <x>,<y> [dir] [drop=N corrupt=N]`, plus `seed <n>` lines
//! and `#` comments) and applies it mid-run; the run then reports the
//! `fault.*` loss columns and any links still dark at the end.

use rtr_bench::churn::drive_schedule;
use rtr_bench::mesh_guarantees::offer_random_channels;
use rtr_bench::util::add_uniform_be;
use rtr_channels::control_plane::SignalingEngine;
use rtr_channels::establish::ChannelManager;
use rtr_core::RealTimeRouter;
use rtr_mesh::{FaultSchedule, NetworkReport, Simulator, Topology};
use rtr_types::config::{RouterConfig, SchedulerKind};
use rtr_workloads::be::SizeDist;
use rtr_workloads::churn::{churn_schedule, ChurnConfig};

use crate::{Args, Keys};

/// The first [`POSITIONAL`] keys are the historical positional interface.
const KEYS: &Keys = &[
    ("side", "mesh side, 1..=128: a best-effort header spans 127 hops an axis (default 4)"),
    ("channels", "offered channels (default 12)"),
    ("be_rate", "best-effort injection rate, 0..=1 (default 0.1)"),
    ("cycles", "cycles to simulate (default 100000)"),
    ("scheduler", "tree: comparator-tree EDF (default); banded:<shift>"),
    ("vct", "0|1: TC virtual cut-through (default 0)"),
    ("seed", "RNG seed (default 42)"),
    ("sample", "gauge-sample every N cycles (default 0 = off)"),
    ("trace", "write JSONL packet trace to PATH (needs --features metrics)"),
    ("metrics", "write metrics-registry JSONL to PATH (needs --features metrics)"),
    ("metrics_every", "snapshot metrics every N cycles (default 0 = end only)"),
    ("faults", "scripted fault schedule at PATH, applied mid-run"),
    ("churn", "live establish/teardown arrivals mid-run (default 0 = off)"),
];
const POSITIONAL: usize = 7;

#[derive(Debug, PartialEq)]
struct Options {
    side: u16,
    channels: usize,
    be_rate: f64,
    cycles: u64,
    scheduler: SchedulerKind,
    vct: bool,
    seed: u64,
    sample: u64,
    trace: Option<String>,
    metrics: Option<String>,
    metrics_every: u64,
    faults: Option<String>,
    churn: usize,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let args = Args::parse(KEYS, POSITIONAL, args)?;
        let scheduler = match args.get("scheduler") {
            None | Some("tree") => SchedulerKind::ComparatorTree,
            Some(value) => match value.strip_prefix("banded:").map(str::parse) {
                Some(Ok(band_shift)) => SchedulerKind::Banded { band_shift },
                Some(Err(_)) => {
                    return Err(args.error(format!("bad band shift in scheduler={value}")))
                }
                None => return Err(args.error(format!("unknown scheduler `{value}`"))),
            },
        };
        let path = |key| args.get(key).map(str::to_string);
        Ok(Options {
            // Packet headers carry one signed byte of offset per axis
            // (`Topology::be_offsets`), so random pairs need side ≤ 128.
            side: args.num_in("side", 4, 1..=128)?,
            channels: args.num("channels", 12)?,
            be_rate: args.num_in("be_rate", 0.1, 0.0..=1.0)?,
            cycles: args.num("cycles", 100_000)?,
            scheduler,
            vct: args.flag("vct", false)?,
            seed: args.num("seed", 42)?,
            sample: args.num("sample", 0)?,
            trace: path("trace"),
            metrics: path("metrics"),
            metrics_every: args.num("metrics_every", 0)?,
            faults: path("faults"),
            churn: args.num("churn", 0)?,
        })
    }
}

#[cfg(feature = "metrics")]
fn attach_trace(
    sim: &mut Simulator<RealTimeRouter>,
    topo: &Topology,
    path: &str,
) -> Result<std::sync::Arc<std::sync::Mutex<rtr_types::trace::JsonlSink<std::fs::File>>>, String> {
    use rtr_types::trace::{shared, JsonlSink};
    let sink =
        JsonlSink::create(path).map_err(|e| format!("cannot create trace file {path}: {e}"))?;
    let sink = shared(sink);
    for node in topo.nodes() {
        sim.chip_mut(node).set_trace_sink(node, sink.clone());
    }
    Ok(sink)
}

/// Drives `arrivals` live establish/teardown events through the signaling
/// engine while the run progresses, then runs out the remaining cycles.
/// The schedule is a pure function of the seed and fits inside the run
/// window; churned channels carry periodic traffic for their lifetime.
fn drive_churn(
    sim: &mut Simulator<RealTimeRouter>,
    engine: &mut SignalingEngine,
    topo: &Topology,
    config: &RouterConfig,
    seed: u64,
    arrivals: usize,
    cycles: u64,
) {
    let slots_total = cycles / config.slot_bytes as u64;
    let churn_cfg = ChurnConfig {
        seed: seed ^ 0xC4A2,
        arrivals,
        mean_interarrival_slots: (slots_total as f64 * 0.6 / (arrivals as f64 + 1.0)).max(1.0),
        mean_lifetime_slots: (slots_total as f64 / 4.0).max(32.0),
        min_lifetime_slots: 32,
    };
    let events = churn_schedule(&churn_cfg, topo);
    // The Poisson tail can overshoot the run window; `cycles` cuts it off.
    drive_schedule(sim, engine, config, &events, (8, 6), cycles, |sim, gap| sim.run(gap));
    let tail = cycles.saturating_sub(sim.now());
    sim.run(tail);
}

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Options::parse(args)?;
    #[cfg(not(feature = "metrics"))]
    if let Some(path) = &opts.trace {
        return Err(format!(
            "trace={path} needs the `metrics` feature; rebuild with\n  \
             cargo run --release -p rtr-bench --features metrics --bin rtr -- console"
        ));
    }

    let config = RouterConfig {
        scheduler: opts.scheduler,
        tc_cut_through: opts.vct,
        ..RouterConfig::default()
    };
    let Options { side, channels: offered, be_rate, cycles, vct, seed, .. } = opts;
    println!(
        "scenario: {side}×{side} mesh, {offered} offered channels, BE rate {be_rate}, \
         {cycles} cycles, scheduler {:?}, cut-through {vct}, seed {seed}",
        config.scheduler
    );
    println!();

    let topo = Topology::mesh(side, side);
    let mut sim = Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone())).unwrap();
    if opts.sample > 0 {
        sim.enable_gauge_sampling(opts.sample);
    }
    #[cfg(feature = "metrics")]
    let trace_sink = opts.trace.as_deref().map(|p| attach_trace(&mut sim, &topo, p)).transpose()?;
    if let Some(path) = &opts.faults {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault schedule {path}: {e}"))?;
        let schedule = FaultSchedule::parse(&text, &topo)
            .map_err(|e| format!("bad fault schedule {path}: {e}"))?;
        println!(
            "fault schedule: {} scripted events, seed {}",
            schedule.events().len(),
            schedule.seed()
        );
        sim.set_fault_schedule(schedule);
    }
    let mut manager = ChannelManager::new(&config);
    let admitted = offer_random_channels(&mut sim, &mut manager, offered, seed, 0x42);
    println!("admitted {}/{} channels", admitted.len(), offered);
    add_uniform_be(&mut sim, be_rate, SizeDist::Uniform(8, 64), seed.wrapping_mul(7919), 8);

    let mut engine = SignalingEngine::from_manager(manager, &config);
    let mut metrics_file = match opts.metrics.as_deref() {
        Some(path) => Some(
            std::fs::File::create(path)
                .map_err(|e| format!("cannot create metrics file {path}: {e}"))?,
        ),
        None => None,
    };
    if metrics_file.is_some() && !sim.metrics_registry().enabled() {
        eprintln!("note: metrics registry inactive; rebuild with --features metrics for data");
    }
    // One full registry snapshot, every line stamped with the current cycle.
    let mut snapshot = |sim: &Simulator<RealTimeRouter>| match metrics_file.as_mut() {
        Some(file) => {
            std::io::Write::write_all(file, sim.metrics_snapshot().to_jsonl(sim.now()).as_bytes())
                .map_err(|e| format!("cannot write metrics file: {e}"))
        }
        None => Ok(()),
    };
    if opts.churn > 0 {
        if opts.metrics_every > 0 {
            eprintln!("note: metrics_every is ignored with churn= (one end-of-run snapshot)");
        }
        drive_churn(&mut sim, &mut engine, &topo, &config, seed, opts.churn, cycles);
        snapshot(&sim)?;
    } else {
        // Run in snapshot-sized chunks: one snapshot per boundary.
        let every = if opts.metrics_every > 0 { opts.metrics_every } else { cycles };
        let mut done = 0;
        while done < cycles {
            let span = every.min(cycles - done);
            sim.run(span);
            done += span;
            snapshot(&sim)?;
        }
    }

    if opts.churn > 0 {
        let stats = engine.stats();
        let aborted: u64 = topo.nodes().map(|n| sim.chip(n).stats().tc_aborted_teardown).sum();
        let control = sim.control_stats();
        println!();
        println!(
            "churn: {} attempted, {} accepted, {} rejected ({:.1}% rejection)",
            stats.establish_attempted,
            stats.establish_accepted,
            stats.establish_rejected,
            stats.rejection_rate() * 100.0
        );
        println!(
            "  table writes {} at {} cycles each ({} applied, {} failed); \
             teardown-aborted packets {}",
            stats.table_writes,
            engine.write_cost(),
            control.ops_applied,
            control.ops_rejected,
            aborted
        );
        match sim.check_conservation() {
            Ok(()) => println!("  conservation: every arrival delivered, in flight, or ledgered"),
            Err(violation) => println!("  CONSERVATION VIOLATION: {violation}"),
        }
    }

    println!();
    println!("reserved links (top 8, densest first):");
    for row in engine.manager().utilization_report().iter().take(8) {
        println!(
            "  node {:>4} port {:<5}  {:>2} conn  util {:.4}  headroom {:>3} slots",
            row.node.to_string(),
            row.port.to_string(),
            row.connections,
            row.utilization,
            row.headroom_slots
        );
    }

    let report = NetworkReport::capture(&sim, config.slot_bytes);
    println!();
    println!(
        "deliveries: {} time-constrained ({} misses), {} best-effort",
        report.tc_delivered, report.deadline_misses, report.be_delivered
    );
    for (class, latency) in [("tc", &report.tc_latency), ("be", &report.be_latency)] {
        println!(
            "{class} latency: mean {:.0}  p50 {}  p99 {}  max {} cycles",
            latency.mean(),
            latency.percentile(50.0),
            latency.percentile(99.0),
            latency.max()
        );
    }
    if !report.slack.is_empty() {
        println!();
        println!("per-connection deadline slack (slots, at the delivering router):");
        for row in &report.slack {
            println!(
                "  conn {:>3}  delivered {:>6}  misses {:>4}  min {:>4}  mean {:>6.1}  \
                 p50 {:>3}  p99 {:>3}",
                row.conn.0,
                row.delivered,
                row.misses,
                row.min_slack,
                row.mean_slack,
                row.slack.percentile(50.0),
                row.slack.percentile(99.0),
            );
        }
        if let Some(min) = report.min_slack() {
            println!("  network-wide minimum slack: {min} slots");
        }
    }
    if let Some(occ) = &report.occupancy {
        println!();
        println!("occupancy ({} samples every {} cycles):", occ.samples, opts.sample);
        println!(
            "  packet memory: mean {:.2} slots/node, peak {} (node {})",
            occ.mean_memory_occupied, occ.peak_memory_occupied, occ.peak_memory_node
        );
        println!(
            "  scheduler backlog: mean {:.2} packets/node;  peak link queue depth: {}",
            occ.mean_sched_backlog, occ.peak_queue_depth
        );
    }
    println!();
    println!("hottest links (symbols carried):");
    for (node, dir, usage) in report.hottest_links(6) {
        println!(
            "  node {:>4} {:<2}  tc {:>8}  be {:>8}  util {:.3}",
            node.to_string(),
            dir.to_string(),
            usage.tc_symbols,
            usage.be_symbols,
            usage.utilization(report.cycles)
        );
    }
    if opts.faults.is_some() {
        let stats = sim.fault_stats();
        println!();
        println!(
            "fault plane: {} link-down, {} link-up, {} crash, {} restore, \
             {} flaky, {} stable events",
            stats.link_down_events,
            stats.link_up_events,
            stats.node_crash_events,
            stats.node_restore_events,
            stats.link_flaky_events,
            stats.link_stable_events
        );
        println!(
            "  symbols lost {}  corrupted {}  credits lost {}  late arrivals dropped {}",
            stats.symbols_lost,
            stats.symbols_corrupted,
            stats.credits_lost,
            stats.late_arrivals_dropped
        );
        for (node, dir) in sim.downed_links() {
            println!("  still down at end of run: node {node} {dir}");
        }
        if let Err(violation) = sim.check_conservation() {
            println!("  CONSERVATION VIOLATION: {violation}");
        } else {
            println!("  conservation: every symbol delivered, in flight, or counted lost");
        }
    }
    let cut: u64 = topo.nodes().map(|n| sim.chip(n).stats().tc_cut_through).sum();
    if vct {
        println!();
        println!("virtual cut-through traversals: {cut}");
    }
    #[cfg(feature = "metrics")]
    if let Some(sink) = trace_sink {
        use rtr_types::trace::TraceSink;
        sink.lock().unwrap().flush();
        println!();
        println!(
            "trace: wrote {} records to {}",
            sink.lock().unwrap().written(),
            opts.trace.as_deref().unwrap_or("?")
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        Options::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn bare_values_read_like_the_keyed_form() {
        let keyed = parse(&[
            "seed=43",
            "vct=1",
            "scheduler=banded:3",
            "cycles=5000",
            "be_rate=0.25",
            "channels=9",
            "side=5",
        ]);
        assert_eq!(parse(&["5", "9", "0.25", "5000", "banded:3", "1", "43"]), keyed);
        assert_eq!(
            parse(&["5", "9", "0.25", "seed=43", "cycles=5000", "scheduler=banded:3", "vct=1"]),
            keyed
        );
        assert_eq!(keyed.scheduler, SchedulerKind::Banded { band_shift: 3 });
        assert_eq!(parse(&["4", "12", "0.1", "100000", "tree", "0", "42"]), parse(&[]));
    }
}
