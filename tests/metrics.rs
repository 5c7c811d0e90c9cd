//! Integration: the counter registry and phase profiler observed through
//! the simulator (`--features metrics` only).
//!
//! The equivalence test extends the event-core suite's guarantee to the
//! metrics plane: the datapath ledger (`router.*` counters) must render
//! byte-identically whichever drive mode ran a scenario — observability
//! must not see drive-mode artifacts — while work counters (scheduler key
//! computations) shrink when quiet chips are skipped, never grow. The
//! profiler test checks wall-clock attribution lands in the phases a run
//! actually executes.
#![cfg(feature = "metrics")]

use realtime_router::core::RealTimeRouter;
use realtime_router::mesh::{Simulator, Topology};
use realtime_router::metrics::Phase;
use realtime_router::types::config::RouterConfig;
use realtime_router::workloads::be::SizeDist;
use rtr_bench::churn::DriveMode;
use rtr_bench::util::{add_one_hop_channel, add_uniform_be};

/// A 4×4 mesh with two one-hop periodic TC channels and optional BE load.
fn build_mesh(tc_period_slots: u64, be_rate: f64) -> Simulator<RealTimeRouter> {
    let config = RouterConfig::default();
    let mut sim =
        Simulator::build(Topology::mesh(4, 4), |_| RealTimeRouter::new(config.clone())).unwrap();
    for (i, y) in [0u16, 3].into_iter().enumerate() {
        add_one_hop_channel(&mut sim, y, i, tc_period_slots);
    }
    add_uniform_be(&mut sim, be_rate, SizeDist::Fixed(16), 0xC0FF_EE00, 8);
    sim
}

/// The datapath ledger must be drive-mode independent: `router.*` counters
/// snapshot byte-identically whichever drive mode ran the scenario, while
/// the scheduler's key-computation count never exceeds the every-chip
/// run's.
#[test]
fn datapath_counters_are_drive_mode_independent() {
    for (period, be_rate, cycles) in [(64, 0.0, 10_000), (8, 0.05, 3_000)] {
        let [every, leaping] = DriveMode::ALL.map(|mode| {
            let mut sim = build_mesh(period, be_rate);
            mode.advance(&mut sim, cycles);
            sim.metrics_snapshot()
        });
        let reference = every.filter_prefix("router.").to_jsonl(cycles);
        assert!(!reference.is_empty(), "router. namespace must be populated");
        // Work counters are NOT expected to match: skipping quiet chips
        // skips their scheduler polls, so the key work is bounded by the
        // every-chip run's — while delivering the identical ledger.
        let keys = every.counter("sched.key_computations").unwrap_or(0);
        assert!(keys > 0, "the tree scheduler must have computed keys");
        assert_eq!(
            reference,
            leaping.filter_prefix("router.").to_jsonl(cycles),
            "router. counters diverged between every chip and the run \
             (period {period}, be {be_rate})"
        );
        let skipped = leaping.counter("sched.key_computations").unwrap_or(0);
        assert!(keys >= skipped, "the run did more scheduler work: {skipped} vs {keys}");
        // Wake accounting: every answer is written to the one record, next
        // cycle or not. A tick's poll always changes its chip's wake (it was
        // due), so the filed wakes cover every chip poll but the first
        // cycle's, which may answer `None` for a chip without a wake; the
        // links' polls add theirs. Streaming best-effort bytes, a router
        // answers the next cycle while a byte waits on its output;
        // time-constrained traffic alone wakes a router where a packet
        // starts, completes or frees its port, never on the next cycle.
        let [short, polls, filed] = ["wake.short_polls", "wake.polls", "queue.filed"]
            .map(|name| leaping.counter(name).unwrap_or(0));
        let nodes = 4 * 4;
        assert!(filed + nodes >= polls, "{filed} filed, {polls} polls on {nodes} nodes");
        assert_eq!(short > 0, be_rate > 0.0, "{short} short polls");
        // The drive-mode-dependent plane must, by contrast, show the leap.
        assert!(
            leaping.counter("sim.leaps").unwrap_or(0) > 0 || be_rate > 0.0,
            "sparse leaping run must record leaps"
        );
    }
}

/// Interleaving plain steps between runs must not re-prime the wake
/// record: `sim.stale_repolls` counts the first cycle's poll of every chip,
/// and a warm record adds none.
#[test]
fn warm_queue_adds_no_stale_repolls() {
    let mut sim = build_mesh(64, 0.0);
    sim.run(2_000);
    let after_prime = sim.metrics_snapshot().counter("sim.stale_repolls").unwrap_or(0);
    assert_eq!(after_prime, 4 * 4, "the first cycle must prime (and count) every chip");
    for _ in 0..2_000 {
        sim.step();
    }
    sim.run(2_000);
    let after_interleave = sim.metrics_snapshot().counter("sim.stale_repolls").unwrap_or(0);
    assert_eq!(
        after_prime, after_interleave,
        "plain stepping kept the record warm, so no re-prime may happen"
    );
}

/// A source's `due` is its only wake, and the leap planner clamps to the
/// earliest one on a live node: an every-cycle source on a crashed node is
/// overdue for the whole dark span, yet the span is leapt, not stepped.
/// (The scenario of `tests/chaos.rs`'
/// `sources_keep_their_fire_cycles_across_a_crash_and_a_mid_run_registration`.)
#[test]
fn an_overdue_source_on_a_crashed_node_does_not_stop_leaps() {
    use realtime_router::mesh::source::FnSource;
    use realtime_router::mesh::FaultSchedule;
    use realtime_router::types::ids::NodeId;
    const CRASH: u64 = 1_003;
    const RESTORE: u64 = 2_011;
    let config = RouterConfig::default();
    let mut sim =
        Simulator::build(Topology::mesh(2, 2), |_| RealTimeRouter::new(config.clone())).unwrap();
    add_one_hop_channel(&mut sim, 0, 0, 8);
    sim.set_fault_schedule(
        FaultSchedule::new().node_crash(CRASH, NodeId(0)).node_restore(RESTORE, NodeId(0)),
    );
    sim.add_source(NodeId(0), Box::new(FnSource(|_, _, _: &mut _| {})));
    let leaped = |sim: &Simulator<RealTimeRouter>| {
        sim.metrics_snapshot().counter("sim.leaped_cycles").unwrap_or(0)
    };
    sim.run(CRASH);
    let before = leaped(&sim);
    sim.run(RESTORE - CRASH);
    let dark = leaped(&sim) - before;
    assert!(
        dark >= (RESTORE - CRASH) * 9 / 10,
        "only {dark} of the {} dark cycles were leapt",
        RESTORE - CRASH
    );
}

/// The cycles a leaping run has leapt so far.
fn leaped(sim: &Simulator<RealTimeRouter>) -> u64 {
    sim.metrics_snapshot().counter("sim.leaped_cycles").unwrap_or(0)
}

/// A drive call on a warm core past its prime plans before it steps: on a
/// mesh with nothing to do, a second `run` call leaps all of its cycles,
/// where running one cycle first would leap one fewer.
#[test]
fn a_leaping_call_on_a_quiet_mesh_starts_with_a_leap() {
    let config = RouterConfig::default();
    let mut quiet =
        Simulator::build(Topology::mesh(4, 4), |_| RealTimeRouter::new(config.clone())).unwrap();
    quiet.run(1_000);
    let before = leaped(&quiet);
    quiet.run(1_000);
    assert_eq!(leaped(&quiet) - before, 1_000, "the second call ran a cycle before leaping");
    let ticks = quiet.ticks_executed();
    quiet.run(1_000);
    assert_eq!(quiet.ticks_executed(), ticks, "a quiet mesh ticks nothing");
}

/// A link into a crashed node wakes for its live transmitter alone: the
/// symbols parked on its wire wait for the restore, which marks the link,
/// so they keep no handle carried and the dark span is leapt. The receiver
/// of a one-packet hop crashes five cycles into the packet and stays dark
/// for 2 000 cycles: the crash cycle runs (a drive call starts on it), and
/// of the 1 999 after it only the one the sender's output frees on may.
#[test]
fn a_link_into_a_crashed_node_does_not_stop_leaps() {
    use realtime_router::mesh::FaultSchedule;
    use realtime_router::types::ids::NodeId;
    use rtr_bench::churn::DriveMode;
    use rtr_bench::util::{one_packet_line, ONE_PACKET_HEAD};
    const CRASH: u64 = ONE_PACKET_HEAD + 5;
    const RESTORE: u64 = CRASH + 2_000;
    let faults = FaultSchedule::new().node_crash(CRASH, NodeId(1)).node_restore(RESTORE, NodeId(1));
    let mut sim = one_packet_line(1, faults, DriveMode::Run);
    sim.run(CRASH - sim.now());
    let before = leaped(&sim);
    sim.run(RESTORE - CRASH);
    let dark = leaped(&sim) - before;
    assert!(dark >= 1_998, "only {dark} of the 2 000 dark cycles were leapt");
}

/// A packet's transit is leapt, not stepped: its links settle the middle of
/// each packet by the clock, so one packet over four hops runs only the
/// cycles some chip acts in — a few per hop — and leaps every cycle its
/// symbols merely cross a wire.
#[test]
fn a_packet_in_transit_is_leapt_not_stepped() {
    use realtime_router::mesh::FaultSchedule;
    use realtime_router::types::ids::NodeId;
    use rtr_bench::churn::DriveMode;
    use rtr_bench::util::one_packet_line;
    const HOPS: u16 = 4;
    const SPAN: u64 = 2_000;
    let mut sim = one_packet_line(HOPS, FaultSchedule::new(), DriveMode::Run);
    let before = leaped(&sim);
    sim.run(SPAN);
    assert_eq!(sim.log(NodeId(HOPS)).tc.len(), 1, "the packet arrived");
    let stepped = SPAN - (leaped(&sim) - before);
    assert!(
        stepped <= 6 * u64::from(HOPS),
        "{stepped} of {SPAN} cycles stepped for one packet over {HOPS} hops"
    );
}

/// Wall-clock attribution must land in the phases a run actually
/// executes: a busy mesh, whose random sources run every cycle, in the tick
/// loop of every cycle, and a quiet one in planning as well as in the tick
/// loop for the cycles it runs.
#[test]
fn profiler_attributes_time_to_live_phases() {
    let mut busy = build_mesh(8, 0.05);
    busy.phase_profiler().set_enabled(true);
    busy.run(1_000);
    let report = busy.phase_profiler().report();
    let line = |p: Phase| report.iter().find(|l| l.phase == p).copied().unwrap();
    assert_eq!(line(Phase::SerialTick).calls, 1_000);
    assert!(line(Phase::SerialTick).ns > 0);
    let (dominant, share) = busy.phase_profiler().dominant().unwrap();
    assert!(share > 0.0 && share <= 1.0, "dominant {dominant:?} share {share}");

    let mut leaping = build_mesh(64, 0.0);
    leaping.phase_profiler().set_enabled(true);
    leaping.run(1_000);
    let report = leaping.phase_profiler().report();
    let line = |p: Phase| report.iter().find(|l| l.phase == p).copied().unwrap();
    assert!(line(Phase::LeapPlan).calls > 0, "a quiet run must plan leaps");
    assert!(line(Phase::SerialTick).calls > 0, "the cycles run must attribute their chip ticks");

    // The profile also exports through the registry as profile.* counters.
    let snap = leaping.metrics_snapshot();
    assert!(snap.counter("profile.leap_plan.calls").unwrap_or(0) > 0);
}
