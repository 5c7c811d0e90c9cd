//! The metric names and units the benchmark emits.
//!
//! `BENCHMARK.json` at the repository root lists the same names with their
//! direction and bound; `tests/smoke.rs` fails if the two ever disagree.

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// What a user of the simulator pays: printed by an untraced run. All four
/// are host-side, lower is better, and apply to every workload; each time is
/// the least disturbed observation of the run (see `single.rs`). The third
/// member is the bound: the share of the reference median by which the
/// metric may worsen before `compare` calls it a regression. The bounds are
/// what the recording host can resolve (README, "Bounds"), not what one
/// would like.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    // Host time of one set-up: topology + routers + establishment
    // + sources (for `admit_storm`: topology + filling the books).
    ("setup_s", "s", 0.25),
    // Host time of one repeat's timed region. The simulated work of
    // a repeat is fixed by the seed, so this is host time per simulated
    // node-cycle (or per request) times a constant.
    ("run_s", "s", 0.25),
    // Host time of the median admission call.
    ("establish_us_p50", "us", 0.25),
    // The process's peak resident set (`VmHWM`) at the end of its first
    // repeat: one set-up, one run, one report, whatever the time budget.
    ("peak_rss_mb", "MB", 0.20),
];

/// What single layers do: printed by a traced run. No bounds; they locate
/// a change an end-to-end metric showed.
pub const PER_LAYER: [MetricDef; 64] = [
    // core — probes and workload counters
    ("core.sched.select_ns.occ16", "ns"),
    ("core.sched.select_ns.occ256", "ns"),
    ("core.sched.insert_remove_ns.occ128", "ns"),
    ("core.sched.key_computations", "count"),
    ("core.router.tick_ns.idle", "ns"),
    ("core.router.tick_ns.mixed", "ns"),
    ("core.router.tick_ns.occ256", "ns"),
    ("core.router.next_event_ns", "ns"),
    ("core.wake.polls", "count"),
    ("core.wake.short_poll_share", "ratio"),
    ("core.router.build_us", "us"),
    ("core.control.set_connection_ns", "ns"),
    // events
    ("events.set_wake_ns", "ns"),
    ("events.pop_due_ns", "ns"),
    ("events.next_wake_ns", "ns"),
    ("events.filed", "count"),
    ("events.fired", "count"),
    ("events.stale_discarded", "count"),
    // mesh — this workload
    ("mesh.host_ns_per_node_cycle", "ns"),
    ("mesh.ticks_executed", "count"),
    ("mesh.ticks_per_sim_cycle", "ratio"),
    ("mesh.ns_per_tick", "ns"),
    ("mesh.leaps", "count"),
    ("mesh.leaped_cycle_share", "ratio"),
    ("mesh.stale_repolls", "count"),
    ("mesh.phase.link_pre_share", "ratio"),
    ("mesh.phase.serial_tick_share", "ratio"),
    ("mesh.phase.link_post_share", "ratio"),
    ("mesh.phase.wheel_pop_share", "ratio"),
    ("mesh.phase.repoll_share", "ratio"),
    ("mesh.phase.leap_plan_share", "ratio"),
    ("mesh.phase.leap_apply_share", "ratio"),
    ("mesh.advance_share", "ratio"),
    ("mesh.control.ops_applied", "count"),
    ("mesh.netstats.capture_ms", "ms"),
    ("mesh.rss_bytes_per_delivery", "B"),
    // mesh — probes
    ("mesh.link.send_recv_ns", "ns"),
    ("mesh.sim.idle_step_ns_per_node_cycle.8x8", "ns"),
    ("mesh.sim.idle_leap_us_per_mcycle.8x8", "us"),
    ("mesh.topology.build_ms.128x128", "ms"),
    ("mesh.sim.build_ms.128x128", "ms"),
    ("mesh.sim.bytes_per_node.128x128", "B"),
    ("mesh.sim.prime_ms.128x128", "ms"),
    ("mesh.dense_over_router_ratio", "ratio"),
    ("mesh.pool.speedup_2w.32x32", "ratio"),
    // channels
    ("channels.admission.admissible_ns.res4", "ns"),
    ("channels.admission.admissible_ns.res24", "ns"),
    ("channels.establish_us_p99", "us"),
    ("channels.reject_us_p50", "us"),
    ("channels.teardown_us_p50", "us"),
    ("channels.table_writes", "count"),
    ("channels.self_time_share", "ratio"),
    ("channels.sender.make_message_ns", "ns"),
    // workloads
    ("workloads.be.pre_cycle_ns", "ns"),
    ("workloads.tc.pre_cycle_ns", "ns"),
    // tracing itself
    ("trace.overhead_ratio", "ratio"),
    // the modelled design: simulated time, exact for a seed
    ("sim.tc_delivered", "count"),
    ("sim.tc_p50_latency_cycles", "cycles"),
    ("sim.tc_p99_latency_cycles", "cycles"),
    ("sim.tc_min_slack_slots", "slots"),
    ("sim.be_p50_latency_cycles", "cycles"),
    ("sim.be_p99_latency_cycles", "cycles"),
    ("sim.accept_ratio", "ratio"),
    ("sim.digest48", "hash"),
];
