//! One measured run of one workload: repeat it until the time budget is
//! spent, check every repeat, and reduce the repeats to metrics.
//!
//! Run-to-run noise on a small shared host is large and one-sided: a
//! neighbour or the hypervisor only ever takes time away, so the repeats of
//! one process spread by a third with a long right tail while their
//! minimum moves by 2–3 % from process to process (the median moves by
//! 5–9 %). Each repeat is therefore about a second of fixed work, and every
//! host-time metric is read from the *least disturbed* repeat of all those
//! that fit in the budget: the fastest one.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rtr_metrics::Phase;

use crate::child::{run_child, Child};
use crate::json::Json;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{ratio, Layer, Recorder, SelfTimes, Span};
use crate::stats::{fastest, median, percentile};
use crate::workloads::{run_repeat, Repeat, Scale, Workload};

/// How often the set-up is performed per repeat (each one a `setup_s`
/// sample; the last is the one the repeat runs). The first repeat sets up
/// once: it is the process a user would run, and the one whose memory is
/// reported.
const SETUPS_PER_REPEAT: usize = 3;

/// What to measure.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// How long to keep repeating, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// The untraced build of this program. A traced run follows each of its
    /// repeats with one repeat of that build, in a process of its own, on the
    /// same workload, seed and scale: the base of `trace.overhead_ratio`.
    /// Without one the ratio reads 0 (not measured). Unused in an untraced
    /// run.
    pub untraced_exe: Option<PathBuf>,
    /// Repeat sizes.
    pub scale: Scale,
}

/// One metric value as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Every output check passed on every repeat.
    pub correct: bool,
    /// Operations attempted over all repeats.
    pub attempted: u64,
    /// Operations failed over all repeats.
    pub failed: u64,
    /// The metrics of this run: end-to-end when untraced, per-layer when
    /// traced.
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: sizes, per-repeat raw values,
    /// simulated statistics, the digest, failure messages.
    pub detail: Json,
    /// The spans of a traced run.
    pub spans: Vec<Span>,
}

impl Measurement {
    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = Json::object(self.metrics.iter().map(|m| {
            (
                m.name,
                Json::object([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]),
            )
        }));
        Json::object([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }
}

/// Whether this binary was built with the simulator's metrics compiled in.
#[must_use]
pub fn traced_build() -> bool {
    rtr_metrics::MetricsRegistry::new().enabled()
}

/// Runs `options.workload` for `options.seconds` and reduces the repeats.
///
/// # Errors
///
/// Refuses a traced run on an untraced build and the reverse: per-layer
/// metrics need the registry and profiler, and end-to-end metrics are only
/// valid with both compiled out. A traced run also fails if the untraced
/// build it was given cannot be run or read.
pub fn measure(options: &Options) -> Result<Measurement, String> {
    if options.trace != traced_build() {
        return Err(if options.trace {
            "a traced run needs the `traced` feature: build with `--features traced` \
             (benchmark/run.sh does this for `--trace 1`)"
                .to_string()
        } else {
            "end-to-end metrics are measured with tracing compiled out: build without \
             `--features traced`"
                .to_string()
        });
    }
    let mut rec = Recorder::new(options.trace);
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut untraced: Vec<UntracedRepeat> = Vec::new();
    let started = Instant::now();
    loop {
        let n = repeats.len();
        rec.set_rep(n as u32);
        repeats.push(run_repeat(
            options.workload,
            options.scale,
            options.seed,
            if n == 0 { 1 } else { SETUPS_PER_REPEAT },
            &mut rec,
        ));
        // Taking turns with the untraced build puts both sides of the
        // overhead ratio through the same minutes of the host.
        if let Some(exe) = options.untraced_exe.as_ref().filter(|_| options.trace) {
            untraced.push(untraced_repeat(exe, options)?);
        }
        if started.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }

    let first = &repeats[0];
    let mut failures: Vec<String> = repeats.iter().flat_map(|r| r.failures.clone()).collect();
    let mut failed: u64 = repeats.iter().map(|r| r.ops_failed).sum();
    // Same seed, same inputs: every repeat must reproduce the first one's
    // simulated outputs bit for bit.
    for (n, repeat) in repeats.iter().enumerate().skip(1) {
        if repeat.digest != first.digest || repeat.sim != first.sim {
            failed += 1;
            failures.push(format!(
                "repeat {n} diverged from repeat 0: digest {:016x} vs {:016x}",
                repeat.digest, first.digest
            ));
        }
    }
    // So must the untraced build: tracing may not change what is simulated.
    if let Some(other) = untraced.iter().find(|u| u.digest != format!("{:016x}", first.digest)) {
        failed += 1;
        failures.push(format!(
            "tracing changed the simulated outputs: digest {:016x}, untraced build {}",
            first.digest, other.digest
        ));
    }
    let attempted: u64 = repeats.iter().map(|r| r.ops_attempted).sum();

    let self_times = SelfTimes::of(rec.spans());
    let metrics = if options.trace {
        // A layer's self time is its spans minus their children, so the
        // layers must add up to the workload spans; if they do not, spans
        // overlap and no share can be trusted.
        let drift = self_times.total_ns().abs_diff(self_times.root_ns);
        if drift * 50 > self_times.root_ns {
            failed += 1;
            failures.push(format!(
                "self times add up to {} ns, the workload spans to {} ns",
                self_times.total_ns(),
                self_times.root_ns
            ));
        }
        // After the repeats: the probes build and free whole meshes, which
        // would hide the first repeat's memory growth.
        layer_metrics(options, &probes::run_all(options.scale), &repeats, &untraced, &self_times)
    } else {
        end_to_end_metrics(&repeats)
    };
    let detail = detail(options, &repeats, &self_times, &failures);
    Ok(Measurement {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        detail,
        spans: rec.into_spans(),
    })
}

/// What one repeat of the untraced build, run in a process of its own,
/// reported.
struct UntracedRepeat {
    segment_ns: Vec<u64>,
    digest: String,
}

/// One repeat of the untraced build: its process measures until the first
/// repeat is done.
fn untraced_repeat(exe: &Path, options: &Options) -> Result<UntracedRepeat, String> {
    let (result, detail) = run_child(&Child {
        exe,
        workload: options.workload,
        seed: options.seed,
        seconds: 0.001,
        scale: options.scale,
        traced: None,
    })?;
    let segment_ns = detail
        .get("segment_ns")
        .and_then(Json::as_array)
        .and_then(|repeats| repeats.first()?.as_array())
        .map(|segments| segments.iter().filter_map(Json::as_f64).map(|ns| ns as u64).collect());
    let digest = detail.get("sim_digest").and_then(Json::as_str).map(str::to_string);
    match (result.get("correct"), segment_ns, digest) {
        (Some(Json::Bool(true)), Some(segment_ns), Some(digest)) => {
            Ok(UntracedRepeat { segment_ns, digest })
        }
        _ => {
            Err(format!("{}: failed its checks or printed no segments: {detail:?}", exe.display()))
        }
    }
}

fn run_seconds(repeats: &[Repeat]) -> Vec<f64> {
    repeats.iter().map(|r| r.run_ns as f64 / 1e9).collect()
}

/// The undisturbed run, in seconds, from the segment times of each repeat:
/// segment `i` of the timed region is the same work in every repeat, so each
/// is taken from the repeat that ran it fastest.
fn composite_run_s(repeats: &[&[u64]]) -> f64 {
    let segments = repeats.first().map_or(0, |r| r.len());
    (0..segments).map(|i| repeats.iter().map(|r| r[i]).min().unwrap_or(0)).sum::<u64>() as f64 / 1e9
}

fn segments(repeats: &[Repeat]) -> Vec<&[u64]> {
    repeats.iter().map(|r| r.segment_ns.as_slice()).collect()
}

fn setup_seconds(repeats: &[Repeat]) -> Vec<f64> {
    repeats.iter().flat_map(|r| r.setup_ns.iter().map(|&ns| ns as f64 / 1e9)).collect()
}

/// The median admission call of each repeat.
fn establish_p50s(repeats: &[Repeat]) -> Vec<f64> {
    repeats.iter().map(|r| median(&r.establish_us)).collect()
}

fn pooled(repeats: &[Repeat], pick: impl Fn(&Repeat) -> &Vec<f64>) -> Vec<f64> {
    repeats.iter().flat_map(|r| pick(r).iter().copied()).collect()
}

fn end_to_end_metrics(repeats: &[Repeat]) -> Vec<Metric> {
    let values = [
        fastest(&setup_seconds(repeats)),
        composite_run_s(&segments(repeats)),
        fastest(&establish_p50s(repeats)),
        // The first repeat's: later ones add the harness's own records of
        // earlier ones and the memory their extra set-ups freed.
        repeats[0].peak_rss_bytes as f64 / 1e6,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, value, unit })
        .collect()
}

fn layer_metrics(
    options: &Options,
    probe_values: &[(&'static str, f64)],
    repeats: &[Repeat],
    untraced: &[UntracedRepeat],
    self_times: &SelfTimes,
) -> Vec<Metric> {
    let first = &repeats[0];
    let counters = &first.counters;
    let node_cycles = first.node_cycles();
    let run_s = composite_run_s(&segments(repeats));
    let ns_per_node_cycle = if node_cycles == 0 { 0.0 } else { run_s * 1e9 / node_cycles as f64 };
    // Phase shares are over all repeats, summed.
    let mut phase_ns = [0u64; Phase::ALL.len()];
    for repeat in repeats {
        for (total, ns) in phase_ns.iter_mut().zip(repeat.counters.phase_ns) {
            *total += ns;
        }
    }
    let phase_total: u64 = phase_ns.iter().sum();
    let phase_share = |phase: Phase| {
        let i = Phase::ALL.iter().position(|&p| p == phase).expect("listed phase");
        ratio(phase_ns[i], phase_total)
    };
    // What tracing costs: this build's `run_s` (registry counters compiled
    // in, phase profiler on, spans kept) over the untraced build's, reduced
    // the same way. 0 = not measured.
    let untraced_run_s =
        composite_run_s(&untraced.iter().map(|u| u.segment_ns.as_slice()).collect::<Vec<_>>());
    let overhead = if untraced_run_s > 0.0 { run_s / untraced_run_s } else { 0.0 };
    let deliveries = first.sim.tc_delivered + first.sim.be_delivered;
    let sim_cycles = first.sim_cycles;

    let mut values: Vec<(&'static str, f64)> = probe_values.to_vec();
    let tick_mixed = values
        .iter()
        .find(|(name, _)| *name == "core.router.tick_ns.mixed")
        .map_or(0.0, |&(_, v)| v);
    values.extend([
        ("core.sched.key_computations", counters.key_computations as f64),
        ("core.wake.polls", counters.wake_polls as f64),
        ("core.wake.short_poll_share", ratio(counters.wake_short_polls, counters.wake_polls)),
        ("events.filed", counters.queue_filed as f64),
        ("events.fired", counters.queue_fired as f64),
        ("events.stale_discarded", counters.queue_stale_discarded as f64),
        ("mesh.host_ns_per_node_cycle", ns_per_node_cycle),
        ("mesh.ticks_executed", counters.ticks_executed as f64),
        ("mesh.ticks_per_sim_cycle", ratio(counters.ticks_executed, sim_cycles)),
        (
            "mesh.ns_per_tick",
            if counters.ticks_executed == 0 {
                0.0
            } else {
                run_s * 1e9 / counters.ticks_executed as f64
            },
        ),
        ("mesh.leaps", counters.leaps as f64),
        ("mesh.leaped_cycle_share", ratio(counters.leaped_cycles, sim_cycles)),
        ("mesh.stale_repolls", counters.stale_repolls as f64),
        ("mesh.phase.link_pre_share", phase_share(Phase::LinkPre)),
        ("mesh.phase.serial_tick_share", phase_share(Phase::SerialTick)),
        ("mesh.phase.link_post_share", phase_share(Phase::LinkPost)),
        ("mesh.phase.wheel_pop_share", phase_share(Phase::WheelPop)),
        ("mesh.phase.repoll_share", phase_share(Phase::Repoll)),
        ("mesh.phase.leap_plan_share", phase_share(Phase::LeapPlan)),
        ("mesh.phase.leap_apply_share", phase_share(Phase::LeapApply)),
        ("mesh.advance_share", ratio(self_times.advance_ns, self_times.total_ns())),
        ("mesh.control.ops_applied", first.sim.control_ops_applied as f64),
        (
            "mesh.netstats.capture_ms",
            fastest(
                &repeats.iter().map(|r| r.counters.capture_ns as f64 / 1e6).collect::<Vec<_>>(),
            ),
        ),
        ("mesh.rss_bytes_per_delivery", ratio(counters.rss_growth_bytes, deliveries)),
        (
            // Defined for the dense mixed node-cycle only: 0 = n/a elsewhere.
            "mesh.dense_over_router_ratio",
            if options.workload == Workload::DenseMixed && tick_mixed > 0.0 {
                ns_per_node_cycle / tick_mixed
            } else {
                0.0
            },
        ),
        ("channels.establish_us_p99", percentile(&pooled(repeats, |r| &r.establish_us), 99.0)),
        ("channels.reject_us_p50", median(&pooled(repeats, |r| &r.reject_us))),
        ("channels.teardown_us_p50", median(&pooled(repeats, |r| &r.teardown_us))),
        ("channels.table_writes", first.sim.table_writes as f64),
        ("channels.self_time_share", self_times.share(Layer::Channels)),
        ("trace.overhead_ratio", overhead),
        ("sim.tc_delivered", first.sim.tc_delivered as f64),
        ("sim.tc_p50_latency_cycles", first.sim.tc_p50_latency_cycles as f64),
        ("sim.tc_p99_latency_cycles", first.sim.tc_p99_latency_cycles as f64),
        ("sim.tc_min_slack_slots", first.sim.tc_min_slack_slots as f64),
        ("sim.be_p50_latency_cycles", first.sim.be_p50_latency_cycles as f64),
        ("sim.be_p99_latency_cycles", first.sim.be_p99_latency_cycles as f64),
        ("sim.accept_ratio", ratio(first.accepted, first.offered)),
        // The low 48 bits: an f64 holds them exactly.
        ("sim.digest48", (first.digest & 0xffff_ffff_ffff) as f64),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"))
                .1;
            Metric { name, value, unit }
        })
        .collect()
}

fn detail(
    options: &Options,
    repeats: &[Repeat],
    self_times: &SelfTimes,
    failures: &[String],
) -> Json {
    let first = &repeats[0];
    let sim = &first.sim;
    Json::object([
        ("workload", Json::Str(options.workload.name().into())),
        ("scale", Json::Str(options.scale.name().into())),
        ("seed", Json::Num(options.seed as f64)),
        ("sizes", Json::Str(options.workload.sizes(options.scale))),
        ("repeats", Json::Num(repeats.len() as f64)),
        ("sim_digest", Json::Str(format!("{:016x}", first.digest))),
        ("offered", Json::Num(first.offered as f64)),
        ("accepted", Json::Num(first.accepted as f64)),
        ("nodes", Json::Num(first.nodes as f64)),
        ("sim_cycles", Json::Num(first.sim_cycles as f64)),
        ("ops_attempted_per_repeat", Json::Num(first.ops_attempted as f64)),
        (
            "sim",
            Json::object([
                ("tc_delivered", Json::Num(sim.tc_delivered as f64)),
                ("be_delivered", Json::Num(sim.be_delivered as f64)),
                ("tc_p50_latency_cycles", Json::Num(sim.tc_p50_latency_cycles as f64)),
                ("tc_p99_latency_cycles", Json::Num(sim.tc_p99_latency_cycles as f64)),
                ("tc_min_slack_slots", Json::Num(sim.tc_min_slack_slots as f64)),
                ("be_p50_latency_cycles", Json::Num(sim.be_p50_latency_cycles as f64)),
                ("be_p99_latency_cycles", Json::Num(sim.be_p99_latency_cycles as f64)),
                ("table_writes", Json::Num(sim.table_writes as f64)),
                ("control_ops_applied", Json::Num(sim.control_ops_applied as f64)),
            ]),
        ),
        ("run_s", Json::numbers(&run_seconds(repeats))),
        (
            "segment_ns",
            Json::Arr(
                repeats
                    .iter()
                    .map(|r| {
                        Json::numbers(&r.segment_ns.iter().map(|&ns| ns as f64).collect::<Vec<_>>())
                    })
                    .collect(),
            ),
        ),
        ("setup_s", Json::numbers(&setup_seconds(repeats))),
        ("establish_us_p50", Json::numbers(&establish_p50s(repeats))),
        // Zero in an untraced run, which keeps no spans.
        ("span_ns", Json::Num(self_times.root_ns as f64)),
        (
            "self_time_share",
            Json::object(Layer::ALL.map(|l| (l.name(), Json::Num(self_times.share(l))))),
        ),
        ("failures", Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect())),
    ])
}
