//! `rtr-bench` runner: the recorded wall-clock benchmark suite.
//!
//! Runs the performance-critical scenarios — single-router cycle
//! throughput, scheduler selection cost across occupancies, full-mesh
//! stepping (serial and pool-parallel), the sparse leaping suite (8×8,
//! 32×32, 128×128, and the 256×256 mega-mesh), mesh construction cost
//! (with a per-node memory footprint column), the chaos fault-tolerance scenarios (link-kill
//! recovery, flaky link, node crash — rows carrying measured
//! violation-window, re-route-latency, and loss columns rather than just
//! wall-clock), and the connection-churn scenario (live establish/teardown
//! through the signaling engine, with setup-throughput, rejection-rate,
//! and teardown-ledger columns) — with fixed seeds and hand-rolled
//! timing, then writes the results as JSON so a run can be committed next
//! to the code it measured (`BENCH_8.json`; earlier revisions live in
//! `BENCH_1.json` through `BENCH_7.json`).
//!
//! Built with `--features metrics`, rows additionally embed counter and
//! phase-profile columns from the unified metrics registry (wake polls,
//! stale re-polls, wheel cascades, key computations, barrier share), a
//! metrics-on-vs-off overhead pair for the mixed-load router cycle, and
//! phase-attribution rows for the 8×8 mesh (serial and 4-worker).
//!
//! Usage:
//!
//! ```text
//! bench_runner [--smoke] [--out <path>] [--flight-sample <path>]
//! ```
//!
//! `--smoke` shrinks iteration counts so CI can exercise the whole
//! pipeline in seconds; committed numbers come from a full run.
//! `--flight-sample` additionally forces a conservation violation on a
//! throwaway router and writes the resulting flight-recorder JSONL dump
//! to the given path (needs `--features metrics` to be non-trivial).

use std::fmt::Write as _;
use std::time::Instant;

use rtr_core::control::ControlCommand;
use rtr_core::memory::SlotAddr;
use rtr_core::sched::leaf::Leaf;
use rtr_core::sched::tree::ComparatorTree;
use rtr_core::RealTimeRouter;
use rtr_mesh::{Simulator, Topology};
use rtr_metrics::MetricsRegistry;
use rtr_types::chip::{Chip, ChipIo};
use rtr_types::clock::SlotClock;
use rtr_types::config::RouterConfig;
use rtr_types::ids::{ConnectionId, Direction, Port};
use rtr_types::key::LatePolicy;
use rtr_types::packet::{BePacket, PacketTrace, TcPacket};

/// One recorded benchmark result.
struct BenchResult {
    name: String,
    iters: usize,
    min_s: f64,
    mean_s: f64,
    /// Scenario-specific throughput figure.
    metric: f64,
    unit: &'static str,
    /// Extra JSON members spliced verbatim into the row (already encoded,
    /// no surrounding braces), e.g. registry counters or phase shares.
    extra: Option<String>,
}

/// Times `iters` runs of `work` over fresh untimed `setup` state (after
/// one untimed warm-up), returning (min, mean) seconds per run — the
/// `iter_batched` discipline of the Criterion benches, so numbers compare.
/// State is passed by `&mut` and dropped after the clock stops, so
/// teardown (e.g. joining a simulator's worker pool) is never measured.
fn time_runs<S>(
    iters: usize,
    mut setup: impl FnMut() -> S,
    mut work: impl FnMut(&mut S) -> u64,
) -> (f64, f64) {
    let mut sink = 0u64;
    sink = sink.wrapping_add(work(&mut setup())); // warm-up
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let mut state = setup();
        let start = Instant::now();
        sink = sink.wrapping_add(work(&mut state));
        times.push(start.elapsed().as_secs_f64());
        drop(state);
    }
    // Keep the checksum alive so the work cannot be optimised away.
    std::hint::black_box(sink);
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    (min, mean)
}

/// A single router with three TC connections and a mixed TC/BE backlog of
/// `tc_packets` + 64 BE packets — the Criterion `router_cycle` scenario.
fn loaded_router(tc_packets: u64) -> (RealTimeRouter, ChipIo) {
    let mut router = RealTimeRouter::new(RouterConfig::default()).unwrap();
    let out = Port::Dir(Direction::XPlus);
    for i in 1..=3u16 {
        router
            .apply_control(ControlCommand::SetConnection {
                incoming: ConnectionId(i),
                outgoing: ConnectionId(i),
                delay: 4 * u32::from(i),
                out_mask: out.mask(),
            })
            .unwrap();
    }
    let mut io = ChipIo::new();
    for k in 0..tc_packets {
        io.inject_tc.push_back(TcPacket {
            conn: ConnectionId((k % 3 + 1) as u16),
            arrival: router.clock().wrap(k),
            payload: vec![0; router.config().tc_data_bytes()].into(),
            trace: PacketTrace::default(),
        });
        if k < 64 {
            io.inject_be.push_back(BePacket::new(1, 0, vec![0; 60], PacketTrace::default()));
        }
    }
    (router, io)
}

fn run_router_cycle(name: &str, tc_packets: u64, iters: usize) -> BenchResult {
    const CYCLES: u64 = 1000;
    let (min_s, mean_s) = time_runs(
        iters,
        || loaded_router(tc_packets),
        |(router, io)| {
            for now in 0..CYCLES {
                io.begin_cycle();
                io.credit_in[1] = 1;
                router.tick(now, io);
                io.tx = Default::default();
                io.credit_out = [0; 5];
            }
            router.stats().tc_transmitted[1]
        },
    );
    BenchResult {
        name: name.to_string(),
        iters,
        min_s,
        mean_s,
        metric: CYCLES as f64 / min_s,
        unit: "cycles/s",
        extra: None,
    }
}

/// The mixed-load router cycle with live metrics collection: a registry
/// counter bumped every cycle plus an end-of-run absorb of the router's
/// counters — the same pattern the simulator uses. Paired with the plain
/// `router_1000_cycles_mixed_load` row, the two quantify the registry's
/// runtime overhead (the acceptance bar is within 5%). Without the
/// `metrics` feature the registry is a zero-sized no-op and the pair
/// should be statistically identical.
fn run_router_cycle_metrics(tc_packets: u64, iters: usize) -> BenchResult {
    const CYCLES: u64 = 1000;
    let registry = MetricsRegistry::new();
    let cycles_ctr = registry.counter("bench.cycles");
    let (min_s, mean_s) = time_runs(
        iters,
        || loaded_router(tc_packets),
        |(router, io)| {
            for now in 0..CYCLES {
                io.begin_cycle();
                io.credit_in[1] = 1;
                router.tick(now, io);
                registry.inc(cycles_ctr, 1);
                io.tx = Default::default();
                io.credit_out = [0; 5];
            }
            router.counters(&mut |name, value| registry.absorb_counter(name, value));
            router.stats().tc_transmitted[1]
        },
    );
    let snapshot = registry.snapshot();
    let mut extra = String::from("\"metrics\": \"on\"");
    for name in ["router.tc_transmitted", "router.tc_retired", "sched.key_computations"] {
        if let Some(value) = snapshot.counter(name) {
            let _ = write!(extra, ", \"{name}\": {value}");
        }
    }
    BenchResult {
        name: "router_1000_cycles_mixed_load_metrics".to_string(),
        iters,
        min_s,
        mean_s,
        metric: CYCLES as f64 / min_s,
        unit: "cycles/s",
        extra: Some(extra),
    }
}

/// Counter columns embedded next to a leaping row's timings: wake
/// precision, event-core queue activity, stale re-polls, and scheduler
/// key computations, all read back through the metrics registry. Empty
/// without the `metrics` feature.
fn registry_columns(sim: &Simulator<RealTimeRouter>) -> Option<String> {
    let snapshot = sim.metrics_snapshot();
    if snapshot.is_empty() {
        return None;
    }
    let mut extra = String::from("\"counters\": {");
    let mut first = true;
    for name in [
        "wake.polls",
        "wake.short_polls",
        "wake.sync_guard_only",
        "wake.sync_guard_foregone",
        "queue.filed",
        "queue.fired",
        "queue.cascaded",
        "queue.stale_discarded",
        "sim.stale_repolls",
        "sim.leaps",
        "sim.ticks_executed",
        "sched.key_computations",
    ] {
        if let Some(value) = snapshot.counter(name) {
            let comma = if first { "" } else { ", " };
            let _ = write!(extra, "{comma}\"{name}\": {value}");
            first = false;
        }
    }
    extra.push('}');
    Some(extra)
}

/// One profiled run of the 8×8 best-effort mesh: enables the phase
/// profiler, runs once, and reports each phase's share of the measured
/// wall-clock plus the dominant phase by name — the row that attributes
/// the serial-vs-parallel stepping gap (pool hand-off and wait cost,
/// formerly thread spawn + barrier). The `metric` is the dominant phase's
/// share. Without the `metrics` feature the profiler records nothing and
/// the row reports "none".
fn run_mesh_phases(name: &str, workers: usize, cycles: u64) -> BenchResult {
    let mut sim = loaded_mesh(workers);
    sim.phase_profiler().set_enabled(true);
    let start = Instant::now();
    sim.run_parallel(cycles);
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(sim.now());
    let report = sim.phase_profiler().report();
    let total_ns: u64 = report.iter().map(|l| l.ns).sum();
    let mut extra = String::from("\"phases\": {");
    let mut first = true;
    for line in &report {
        if line.calls == 0 {
            continue;
        }
        let comma = if first { "" } else { ", " };
        let share = line.ns as f64 / total_ns.max(1) as f64;
        let _ = write!(extra, "{comma}\"{}\": {share:.4}", line.phase.name());
        first = false;
    }
    let (dominant, share) = sim
        .phase_profiler()
        .dominant()
        .map_or(("none", 0.0), |(phase, share)| (phase.name(), share));
    let _ = write!(extra, "}}, \"dominant\": \"{dominant}\"");
    BenchResult {
        name: name.to_string(),
        iters: 1,
        min_s: elapsed,
        mean_s: elapsed,
        metric: share,
        unit: "dominant-share",
        extra: Some(extra),
    }
}

/// Forces a conservation violation on a two-node mesh with an armed
/// flight recorder, so a sample JSONL dump (recent trace events plus a
/// full metrics snapshot) lands at `path`. A no-op dump (header only)
/// without the `metrics` feature.
fn write_flight_sample(path: &str) {
    let mut sim =
        Simulator::build(Topology::mesh(2, 1), |_| RealTimeRouter::new(RouterConfig::default()))
            .unwrap();
    sim.arm_flight_recorder(64, path);
    sim.inject_be(
        rtr_types::ids::NodeId(0),
        BePacket::new(1, 0, vec![0x55; 40], PacketTrace::default()),
    );
    sim.run(300);
    // Corrupt one counter so the arrived = routed ledger fails.
    sim.chip_mut(rtr_types::ids::NodeId(0)).stats_mut().tc_arrived += 1;
    match sim.check_conservation() {
        Err(violation) => eprintln!("flight sample: induced violation: {violation}"),
        Ok(()) => eprintln!("flight sample: conservation unexpectedly clean (metrics off?)"),
    }
    if sim.flight_recorder().and_then(|r| r.dumped()).is_some() {
        eprintln!("wrote flight-recorder sample to {path}");
    } else {
        // Still leave a marker file so CI artifact upload has something.
        let _ = std::fs::write(
            path,
            "{\"flight\": \"unavailable\", \"reason\": \"metrics feature disabled\"}\n",
        );
        eprintln!("flight recorder inactive (metrics feature off); wrote placeholder {path}");
    }
}

fn populated_tree(capacity: usize, fill: usize) -> ComparatorTree {
    let clock = SlotClock::new(8);
    let mut tree = ComparatorTree::new(capacity, clock, LatePolicy::Saturate);
    for i in 0..fill {
        tree.insert(Leaf {
            l: clock.wrap(60 + (i as u64 * 7) % 90),
            delay: 4 + (i as u32 * 13) % 100,
            port_mask: 1 << (i % 5),
            addr: SlotAddr(i as u16),
        })
        .unwrap();
    }
    tree
}

/// Warm selects over all five ports at a fixed slot time — the per-cycle
/// cost the router pays once the tournament cache is built.
fn run_scheduler_select(fill: usize, iters: usize) -> BenchResult {
    const READS_PER_ITER: u64 = 10_000;
    let clock = SlotClock::new(8);
    let t = clock.wrap(100);
    let tree = populated_tree(256, fill);
    let _ = tree.select(Port::Dir(Direction::XPlus), t); // build the cache
    let (min_s, mean_s) = time_runs(
        iters,
        || (),
        |&mut ()| {
            let mut acc = 0u64;
            for _ in 0..READS_PER_ITER / 5 {
                for port in Port::ALL {
                    if let Some(sel) = tree.select(port, t) {
                        acc = acc.wrapping_add(sel.leaf as u64);
                    }
                }
            }
            acc
        },
    );
    BenchResult {
        name: format!("scheduler_select_occ{fill}"),
        iters,
        min_s,
        mean_s,
        metric: min_s / READS_PER_ITER as f64 * 1e9,
        unit: "ns/select",
        extra: None,
    }
}

/// An 8×8 mesh under seeded uniform best-effort load.
fn loaded_mesh(workers: usize) -> Simulator<RealTimeRouter> {
    use rtr_workloads::be::{RandomBeSource, SizeDist};
    use rtr_workloads::patterns::TrafficPattern;
    let topo = Topology::mesh(8, 8);
    let template = rtr_core::RouterTemplate::new(RouterConfig::default()).unwrap();
    let mut sim =
        Simulator::build(topo.clone(), |_| Ok::<_, std::convert::Infallible>(template.build()))
            .unwrap();
    sim.set_parallelism(workers);
    for node in topo.nodes() {
        sim.add_source(
            node,
            Box::new(
                RandomBeSource::new(
                    topo.clone(),
                    TrafficPattern::Uniform,
                    0.2,
                    SizeDist::Fixed(32),
                    u64::from(node.0),
                )
                .with_max_queue(8),
            ),
        );
    }
    sim
}

fn run_mesh(name: &str, workers: usize, cycles: u64, iters: usize) -> BenchResult {
    let nodes = 64u64;
    let (min_s, mean_s) = time_runs(
        iters,
        || loaded_mesh(workers),
        |sim| {
            sim.run_parallel(cycles);
            sim.now()
        },
    );
    BenchResult {
        name: name.to_string(),
        iters,
        min_s,
        mean_s,
        metric: (nodes * cycles) as f64 / min_s,
        unit: "node-cycles/s",
        extra: None,
    }
}

/// How a sparse-mesh scenario advances simulated time.
#[derive(Clone, Copy)]
enum Drive {
    /// Plain cycle stepping.
    Stepped,
    /// Leaping over the calendar-queue event core.
    Leaping,
}

/// A sparse mesh (four long-period one-hop TC channels — see
/// [`rtr_bench::leaping::periodic_mesh_sized`]) driven by one of the
/// [`Drive`] modes; the stepped/leaping pairs are the headline speedup
/// comparisons.
fn run_sparse_mesh(
    name: &str,
    width: u16,
    height: u16,
    period_slots: u64,
    drive: Drive,
    cycles: u64,
    iters: usize,
) -> BenchResult {
    let nodes = u64::from(width) * u64::from(height);
    let (min_s, mean_s) = time_runs(
        iters,
        || rtr_bench::leaping::periodic_mesh_sized(width, height, period_slots),
        |sim| {
            match drive {
                Drive::Stepped => sim.run(cycles),
                Drive::Leaping => sim.run_leaping(cycles),
            }
            sim.ticks_executed()
        },
    );
    // One extra untimed run on the leaping drive to read the registry
    // counter columns (the timed runs stay measurement-only).
    let extra = match drive {
        Drive::Leaping => {
            let mut sim = rtr_bench::leaping::periodic_mesh_sized(width, height, period_slots);
            sim.run_leaping(cycles);
            let snapshot = sim.metrics_snapshot();
            if let Some(stale) = snapshot.counter("sim.stale_repolls") {
                // The cold-start prime re-polls every chip and source but
                // only the links actually carrying traffic, and nothing
                // re-primes mid-run — so the whole run's stale-repoll bill
                // is one prime, not a per-leap O(nodes) sweep. The slack
                // covers the handful of primed link handles.
                let sources = 4;
                let budget = nodes + sources + 256;
                assert!(
                    stale <= budget,
                    "{name}: sim.stale_repolls = {stale} exceeds the one-prime \
                     budget {budget} (stale-repoll blowup regressed)",
                );
            }
            registry_columns(&sim)
        }
        Drive::Stepped => None,
    };
    BenchResult {
        name: name.to_string(),
        iters,
        min_s,
        mean_s,
        metric: (nodes * cycles) as f64 / min_s,
        unit: "node-cycles/s",
        extra,
    }
}

/// Construction cost of a sparse sweep mesh — topology wiring, the router
/// chips (built from one shared [`rtr_core::RouterTemplate`]), CSR
/// link/feeder tables, and source hookup. Kept measured so big-mesh setup
/// stays cheap enough to amortise over a sweep; the 256×256 row is the
/// mega-mesh build-time deliverable (must land well under a second). Each
/// row also reports the freshly built simulator's per-node footprint
/// estimate as a `bytes_per_node` column — the struct-of-arrays layout's
/// memory guardrail, asserted under a hard ceiling by `tests/mega_mesh.rs`.
fn run_mesh_build(width: u16, height: u16, period_slots: u64, iters: usize) -> BenchResult {
    let (min_s, mean_s) = time_runs(
        iters,
        || (),
        |&mut ()| {
            let sim = rtr_bench::leaping::periodic_mesh_sized(width, height, period_slots);
            sim.topology().len() as u64
        },
    );
    let bytes_per_node =
        rtr_bench::leaping::periodic_mesh_sized(width, height, period_slots).bytes_per_node();
    BenchResult {
        name: format!("mesh_{width}x{height}_build"),
        iters,
        min_s,
        mean_s,
        metric: min_s * 1e3,
        unit: "ms/build",
        extra: Some(format!("\"bytes_per_node\": {bytes_per_node}")),
    }
}

/// A completely idle mesh leaped end to end — the O(events) floor of the
/// fast path (almost all wall-clock here is simulator bookkeeping).
fn run_idle_leap(cycles: u64, iters: usize) -> BenchResult {
    let nodes = 64u64;
    let (min_s, mean_s) = time_runs(
        iters,
        || {
            Simulator::build(Topology::mesh(8, 8), |_| RealTimeRouter::new(RouterConfig::default()))
                .unwrap()
        },
        |sim: &mut Simulator<RealTimeRouter>| {
            sim.run_leaping(cycles);
            sim.ticks_executed()
        },
    );
    BenchResult {
        name: "mesh_8x8_idle_leaping".to_string(),
        iters,
        min_s,
        mean_s,
        metric: (nodes * cycles) as f64 / min_s,
        unit: "node-cycles/s",
        extra: None,
    }
}

fn render_json(results: &[BenchResult], smoke: bool) -> String {
    // No serialisation crate is available offline, so the JSON is
    // written by hand; the format is flat on purpose.
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": 1,");
    let _ = writeln!(out, "  \"suite\": \"rtr-bench runner\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"benches\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let extra = r.extra.as_ref().map(|e| format!(", {e}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"iters\": {}, \"min_s\": {:.9}, \"mean_s\": {:.9}, \
             \"metric\": {:.1}, \"unit\": \"{}\"{extra}}}{comma}",
            r.name, r.iters, r.min_s, r.mean_s, r.metric, r.unit
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_8.json");
    let mut flight_sample: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            "--flight-sample" => match args.next() {
                Some(p) => flight_sample = Some(p),
                None => {
                    eprintln!("--flight-sample needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_runner [--smoke] [--out <path>] [--flight-sample <path>]");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &flight_sample {
        eprintln!("writing flight-recorder sample...");
        write_flight_sample(path);
    }

    let (router_iters, sched_iters, mesh_iters, mesh_cycles) =
        if smoke { (3, 3, 2, 200) } else { (30, 20, 10, 2000) };

    let mut results = Vec::new();
    eprintln!("router cycle throughput (1000 cycles, mixed TC/BE load)...");
    results.push(run_router_cycle("router_1000_cycles_mixed_load", 64, router_iters));
    eprintln!("router cycle throughput, same load, metrics collection on...");
    results.push(run_router_cycle_metrics(64, router_iters));
    eprintln!("router cycle throughput at full 256-slot occupancy...");
    results.push(run_router_cycle("router_1000_cycles_occ256", 256, router_iters));
    for fill in [16usize, 64, 128, 256] {
        eprintln!("scheduler select at occupancy {fill}...");
        results.push(run_scheduler_select(fill, sched_iters));
    }
    eprintln!("8x8 mesh stepping, serial...");
    results.push(run_mesh("mesh_8x8_serial", 1, mesh_cycles, mesh_iters));
    eprintln!("8x8 mesh stepping, 4 workers...");
    results.push(run_mesh("mesh_8x8_parallel4", 4, mesh_cycles, mesh_iters));
    eprintln!("8x8 mesh phase attribution, serial...");
    results.push(run_mesh_phases("mesh_8x8_serial_phases", 1, mesh_cycles));
    eprintln!("8x8 mesh phase attribution, 4 workers...");
    results.push(run_mesh_phases("mesh_8x8_parallel4_phases", 4, mesh_cycles));
    let (leap_cycles, idle_cycles) = if smoke { (2_000, 20_000) } else { (100_000, 1_000_000) };
    eprintln!("8x8 sparse mesh ({leap_cycles} cycles), stepped...");
    results.push(run_sparse_mesh(
        "mesh_8x8_sparse_stepped",
        8,
        8,
        64,
        Drive::Stepped,
        leap_cycles,
        mesh_iters,
    ));
    eprintln!("8x8 sparse mesh ({leap_cycles} cycles), leaping...");
    results.push(run_sparse_mesh(
        "mesh_8x8_sparse_leaping",
        8,
        8,
        64,
        Drive::Leaping,
        leap_cycles,
        mesh_iters,
    ));
    eprintln!("8x8 idle mesh ({idle_cycles} cycles), leaping...");
    results.push(run_idle_leap(idle_cycles, mesh_iters));
    eprintln!("32x32 sparse mesh construction...");
    results.push(run_mesh_build(32, 32, 1024, mesh_iters));
    // 0.1% injection: period-1024 channels on the 1024-node mesh. The
    // stepped reference covers fewer cycles (1024 nodes make stepping
    // ~16× the 8×8 cost) — rates are per node-cycle, so they compare.
    let (sparse32_cycles, sparse32_stepped_cycles, sparse32_iters) =
        if smoke { (2_000, 500, 2) } else { (100_000, 25_000, 3.min(mesh_iters)) };
    eprintln!("32x32 sparse mesh ({sparse32_stepped_cycles} cycles), stepped...");
    results.push(run_sparse_mesh(
        "mesh_32x32_sparse_stepped",
        32,
        32,
        1024,
        Drive::Stepped,
        sparse32_stepped_cycles,
        sparse32_iters,
    ));
    eprintln!("32x32 sparse mesh ({sparse32_cycles} cycles), leaping...");
    results.push(run_sparse_mesh(
        "mesh_32x32_sparse_leaping",
        32,
        32,
        1024,
        Drive::Leaping,
        sparse32_cycles,
        sparse32_iters,
    ));
    // The mega-mesh: 16 384 routers. Only the leaping drive is viable —
    // sparse ticking touches the handful of active chips and leaps over
    // everything else, so simulated throughput is set by events, not nodes.
    let (sparse128_cycles, sparse128_iters) = if smoke { (2_000, 1) } else { (100_000, 3) };
    eprintln!("128x128 sparse mesh construction...");
    results.push(run_mesh_build(128, 128, 4096, sparse128_iters));
    eprintln!("128x128 sparse mesh ({sparse128_cycles} cycles), leaping...");
    results.push(run_sparse_mesh(
        "mesh_128x128_sparse_leaping",
        128,
        128,
        4096,
        Drive::Leaping,
        sparse128_cycles,
        sparse128_iters,
    ));
    // The 65 536-node mega-mesh — the full u16 node-identifier space. The
    // struct-of-arrays arenas and Arc-shared cold state are what make this
    // buildable in well under a second and leapable at all.
    let (sparse256_cycles, sparse256_iters) = if smoke { (2_000, 1) } else { (100_000, 2) };
    eprintln!("256x256 mega-mesh construction...");
    results.push(run_mesh_build(256, 256, 4096, sparse256_iters));
    eprintln!("256x256 mega-mesh ({sparse256_cycles} cycles), leaping...");
    results.push(run_sparse_mesh(
        "mesh_256x256_sparse_leaping",
        256,
        256,
        4096,
        Drive::Leaping,
        sparse256_cycles,
        sparse256_iters,
    ));

    // The chaos rows are deterministic measurements (recovery windows and
    // loss columns), identical in smoke and full runs; wall-clock is
    // recorded but incidental.
    eprintln!("chaos fault-tolerance scenarios...");
    type ChaosFn = fn() -> rtr_bench::chaos::ChaosOutcome;
    let scenarios: [ChaosFn; 3] = [
        rtr_bench::chaos::link_down_recovery,
        rtr_bench::chaos::flaky_link,
        rtr_bench::chaos::node_crash,
    ];
    for scenario in scenarios {
        let start = Instant::now();
        let outcome = scenario();
        let elapsed = start.elapsed().as_secs_f64();
        let extra = format!(
            "\"fault_at\": {}, \"detected_at\": {}, \"rerouted_at\": {}, \
             \"recovered_at\": {}, \"reroute_latency\": {}, \
             \"victim_delivered\": {}, \"victim_misses\": {}, \
             \"bystander_delivered\": {}, \"bystander_misses\": {}, \
             \"symbols_lost\": {}, \"symbols_corrupted\": {}",
            outcome.fault_at,
            outcome.detected_at,
            outcome.rerouted_at,
            outcome.recovered_at,
            outcome.reroute_latency,
            outcome.victim_delivered,
            outcome.victim_misses,
            outcome.bystander_delivered,
            outcome.bystander_misses,
            outcome.symbols_lost,
            outcome.symbols_corrupted,
        );
        results.push(BenchResult {
            name: outcome.scenario.to_string(),
            iters: 1,
            min_s: elapsed,
            mean_s: elapsed,
            metric: outcome.violation_window as f64,
            unit: "cycles",
            extra: Some(extra),
        });
    }

    // The churn row: live establish/teardown under load through the
    // signaling engine. Deterministic like the chaos rows; the metric is
    // setup throughput, the columns are the admission/teardown ledger.
    eprintln!("connection churn under load...");
    {
        let start = Instant::now();
        let outcome = rtr_bench::churn::run();
        let elapsed = start.elapsed().as_secs_f64();
        let extra = format!(
            "\"attempted\": {}, \"accepted\": {}, \"rejected\": {}, \
             \"teardowns\": {}, \"table_writes\": {}, \"write_cost_cycles\": {}, \
             \"setup_cycles_per_establish\": {}, \"span_cycles\": {}, \
             \"control_ops_applied\": {}, \"control_ops_rejected\": {}, \
             \"aborted_packets\": {}, \"churn_delivered\": {}, \
             \"bystander_delivered\": {}, \"bystander_misses\": {}",
            outcome.attempted,
            outcome.accepted,
            outcome.rejected,
            outcome.teardowns,
            outcome.table_writes,
            outcome.write_cost_cycles,
            outcome.setup_cycles_per_establish,
            outcome.span_cycles,
            outcome.control_ops_applied,
            outcome.control_ops_rejected,
            outcome.aborted_packets,
            outcome.churn_delivered,
            outcome.bystander_delivered,
            outcome.bystander_misses,
        );
        results.push(BenchResult {
            name: outcome.scenario.to_string(),
            iters: 1,
            min_s: elapsed,
            mean_s: elapsed,
            metric: outcome.accepted_per_mcycle as f64,
            unit: "establishments/Mcycle",
            extra: Some(extra),
        });
    }

    let json = render_json(&results, smoke);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
