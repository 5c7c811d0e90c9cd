//! The six workloads: what each one builds from the seed, runs, and checks.
//!
//! One *repeat* of a workload is `setup → run → report`: everything is
//! rebuilt from the seed, a fixed amount of simulated work is executed, and
//! the outputs are checked. The same seed therefore gives the same inputs,
//! the same simulated statistics and the same [`Repeat::digest`] on every
//! repeat; only the host times differ. The caller decides how many repeats
//! fit in its time budget.
//!
//! All loops are closed: there is one caller, and the simulated-time
//! schedules are fixed by the seed, so generator lateness does not apply.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtr_channels::control_plane::{DeferredPlane, SignalingEngine, TeardownStyle};
use rtr_channels::establish::{ChannelManager, EstablishError, EstablishedChannel};
use rtr_channels::sender::ChannelSender;
use rtr_channels::spec::{ChannelRequest, TrafficSpec};
use rtr_core::{RealTimeRouter, RouterTemplate};
use rtr_mesh::{NetworkReport, Simulator, Topology};
use rtr_metrics::Phase;
use rtr_types::config::RouterConfig;
use rtr_types::ids::{Direction, NodeId, Port};
use rtr_types::time::{cycle_to_slot, slot_to_cycle, Cycle};
use rtr_workloads::be::{RandomBeSource, SizeDist};
use rtr_workloads::churn::{churn_schedule, ChurnConfig, WindowedSource};
use rtr_workloads::patterns::TrafficPattern;
use rtr_workloads::tc::PeriodicTcSource;

use crate::spans::{Layer, Recorder};

/// A benchmark workload. The names are the identifiers `BENCHMARK.json`
/// lists and later issues refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8×8, admitted channels plus uniform best-effort load, dense stepping.
    DenseMixed,
    /// 8×8, time-constrained channels only, dense stepping.
    DenseTc,
    /// 32×32, long-period multi-hop channels, event-driven leaping.
    SparseLeap,
    /// 128×128, build plus the first cold cycles of a leaping run.
    MegaCold,
    /// 8×8, live establish/teardown through the signaling engine.
    ChurnLive,
    /// 16×16 admission control alone, no simulator.
    AdmitStorm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 6] = [
        Workload::DenseMixed,
        Workload::DenseTc,
        Workload::SparseLeap,
        Workload::MegaCold,
        Workload::ChurnLive,
        Workload::AdmitStorm,
    ];

    /// The workload's identifier.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseMixed => "dense_mixed",
            Workload::DenseTc => "dense_tc",
            Workload::SparseLeap => "sparse_leap",
            Workload::MegaCold => "mega_cold",
            Workload::ChurnLive => "churn_live",
            Workload::AdmitStorm => "admit_storm",
        }
    }

    /// Looks a workload up by identifier.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes of one repeat at `scale`, as a short human-readable line
    /// (recorded in every result file).
    #[must_use]
    pub fn sizes(self, scale: Scale) -> String {
        match self.plan(scale) {
            Plan::Static(p) => format!(
                "{side}x{side} mesh, {} offered channels, I_min in {:?} slots, BE rate {}, \
                 {} cycles {}",
                p.offered,
                p.i_mins,
                p.be_rate,
                p.cycles,
                if p.leaping { "leaping" } else { "stepped" },
                side = p.side,
            ),
            Plan::Churn(p) => format!(
                "8x8 mesh, 2 bystanders, {} Poisson arrivals (gap 12, life 384+64 slots), \
                 tail {} cycles, leaping",
                p.arrivals, p.tail_cycles
            ),
            Plan::Storm(p) => format!(
                "{side}x{side} mesh, {} prefilled + {} timed requests, teardown above {} live",
                p.live_cap,
                p.requests,
                p.live_cap,
                side = p.side,
            ),
        }
    }

    fn plan(self, scale: Scale) -> Plan {
        let smoke = scale == Scale::Smoke;
        let pick = |full: u64, small: u64| if smoke { small } else { full };
        match self {
            Workload::DenseMixed => Plan::Static(StaticPlan {
                side: 8,
                offered: 64,
                i_mins: [8, 16, 32],
                be_rate: 0.2,
                cycles: pick(40_000, 2_000),
                leaping: false,
            }),
            Workload::DenseTc => Plan::Static(StaticPlan {
                side: 8,
                offered: 192,
                i_mins: [4, 8, 16],
                be_rate: 0.0,
                cycles: pick(50_000, 2_000),
                leaping: false,
            }),
            Workload::SparseLeap => Plan::Static(StaticPlan {
                side: 32,
                offered: 64,
                i_mins: [512, 1024, 2048],
                be_rate: 0.0,
                cycles: pick(30_000, 1_600),
                leaping: true,
            }),
            Workload::MegaCold => Plan::Static(StaticPlan {
                side: if smoke { 48 } else { 128 },
                offered: 32,
                i_mins: [256, 512, 1024],
                be_rate: 0.0,
                cycles: pick(600, 200),
                leaping: true,
            }),
            Workload::ChurnLive => {
                Plan::Churn(ChurnPlan { arrivals: pick(200, 16) as usize, tail_cycles: 2_000 })
            }
            Workload::AdmitStorm => Plan::Storm(StormPlan {
                side: 16,
                requests: pick(8_000, 320) as usize,
                live_cap: pick(400, 60) as usize,
            }),
        }
    }
}

/// How much simulated work one repeat does. `Full` is what every committed
/// number was measured at; `Smoke` only proves the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The frozen benchmark sizes.
    Full,
    /// Seconds-scale sizes for tests; results are tagged and never compared.
    Smoke,
}

impl Scale {
    /// The tag written into result rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// How long each process of `run` and `trace` measures, seconds. At full
    /// scale it is `run_seconds` of `BENCHMARK.json`: every host-time metric
    /// is a minimum over the repeats that fit, so result files are only
    /// comparable when taken under one budget.
    #[must_use]
    pub fn seconds_per_process(self) -> f64 {
        match self {
            Scale::Full => 10.0,
            Scale::Smoke => 0.05,
        }
    }
}

enum Plan {
    Static(StaticPlan),
    Churn(ChurnPlan),
    Storm(StormPlan),
}

/// A mesh whose channels are established before the run and never change.
struct StaticPlan {
    side: u16,
    offered: usize,
    i_mins: [u32; 3],
    be_rate: f64,
    cycles: Cycle,
    leaping: bool,
}

struct ChurnPlan {
    arrivals: usize,
    tail_cycles: Cycle,
}

struct StormPlan {
    side: u16,
    requests: usize,
    live_cap: usize,
}

/// Simulated-time statistics of one repeat. A change that only makes the
/// simulator faster must leave every one of them untouched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Time-constrained packets delivered.
    pub tc_delivered: u64,
    /// Best-effort packets delivered.
    pub be_delivered: u64,
    /// Median time-constrained latency, simulated cycles.
    pub tc_p50_latency_cycles: u64,
    /// 99th-percentile time-constrained latency, simulated cycles.
    pub tc_p99_latency_cycles: u64,
    /// Smallest deadline slack of any delivery, simulated slots (≥ 0 for an
    /// admitted channel).
    pub tc_min_slack_slots: i64,
    /// Median best-effort latency, simulated cycles.
    pub be_p50_latency_cycles: u64,
    /// 99th-percentile best-effort latency, simulated cycles.
    pub be_p99_latency_cycles: u64,
    /// Routing-table writes the control plane scheduled or applied.
    pub table_writes: u64,
    /// Control operations the simulator applied mid-run.
    pub control_ops_applied: u64,
}

/// Simulator-internal counters of one repeat, read from the `metrics`
/// feature's registry and phase profiler. All zero in an untraced build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCounters {
    /// Chip ticks executed.
    pub ticks_executed: u64,
    /// Quiet spans leaped.
    pub leaps: u64,
    /// Cycles covered by leaps.
    pub leaped_cycles: u64,
    /// Components re-polled by full prime passes.
    pub stale_repolls: u64,
    /// `next_event` polls answered by chips.
    pub wake_polls: u64,
    /// Of those, polls answered `now + 1`.
    pub wake_short_polls: u64,
    /// Wakes filed into the event wheel.
    pub queue_filed: u64,
    /// Wakes fired from the event wheel.
    pub queue_fired: u64,
    /// Stale wheel entries discarded.
    pub queue_stale_discarded: u64,
    /// Scheduler sorting-key computations.
    pub key_computations: u64,
    /// Self nanoseconds per drive phase, in [`Phase::ALL`] order.
    pub phase_ns: [u64; Phase::ALL.len()],
    /// Host nanoseconds inside `NetworkReport::capture`.
    pub capture_ns: u64,
    /// Resident-set growth across the run, bytes.
    pub rss_growth_bytes: u64,
}

/// How many equal segments of simulated work the timed region is cut into.
pub const RUN_SEGMENTS: u64 = 8;

/// Everything one repeat measured.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Host ns of each set-up performed (topology + routers + establishment
    /// + sources); the last one is the set-up the run used.
    pub setup_ns: Vec<u64>,
    /// Host ns of the timed region.
    pub run_ns: u64,
    /// Host ns of each of the [`RUN_SEGMENTS`] consecutive segments the
    /// timed region is cut into. Segment `i` is the same work in every
    /// repeat of a seed, so the fastest observation of each segment, summed,
    /// estimates the undisturbed run far better than any whole repeat does.
    pub segment_ns: Vec<u64>,
    /// Nodes in the mesh.
    pub nodes: u64,
    /// Simulated cycles covered by the timed region (0 without a
    /// simulator).
    pub sim_cycles: u64,
    /// Host µs of every admission call (`ChannelManager::establish` or
    /// `SignalingEngine::request_establish`), accepted or not.
    pub establish_us: Vec<f64>,
    /// Host µs of the admission calls that were rejected.
    pub reject_us: Vec<f64>,
    /// Host µs of every teardown call inside the timed region.
    pub teardown_us: Vec<f64>,
    /// Channel requests offered.
    pub offered: u64,
    /// Channel requests admitted.
    pub accepted: u64,
    /// Operations attempted: guaranteed packets injected (mesh workloads)
    /// or requests issued (`admit_storm`).
    pub ops_attempted: u64,
    /// Operations failed: deadline misses, packets due but neither
    /// delivered nor ledgered, control operations rejected, conservation
    /// violations, non-admission errors, reservation books not empty after
    /// the final teardown.
    pub ops_failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// Simulated-time statistics.
    pub sim: SimStats,
    /// Hash over delivery logs, link ledgers, router, control and signaling
    /// statistics.
    pub digest: u64,
    /// Simulator-internal counters (traced build only).
    pub counters: LayerCounters,
    /// The process's peak resident set (`VmHWM`) when the repeat ended,
    /// bytes.
    pub peak_rss_bytes: u64,
}

impl Repeat {
    /// Nodes × simulated cycles: the work the timed region covered.
    #[must_use]
    pub fn node_cycles(&self) -> u64 {
        self.nodes * self.sim_cycles
    }

    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        if count == 0 {
            return;
        }
        self.ops_failed += count;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs one repeat of `workload` built from `seed`.
///
/// `setups` is how many times the set-up is performed (each one timed; the
/// last is kept and run). The simulator's phase profiler is on for the
/// timed region, which only a traced build notices.
#[must_use]
pub fn run_repeat(
    workload: Workload,
    scale: Scale,
    seed: u64,
    setups: usize,
    rec: &mut Recorder,
) -> Repeat {
    let root = rec.begin("workload", Layer::Bench);
    let mut repeat = match workload.plan(scale) {
        Plan::Static(plan) => static_repeat(&plan, seed, setups, rec),
        Plan::Churn(plan) => churn_repeat(&plan, seed, setups, rec),
        Plan::Storm(plan) => storm_repeat(&plan, seed, setups, rec),
    };
    rec.end(root);
    repeat.peak_rss_bytes = peak_resident_bytes();
    repeat
}

/// A channel that lives to the end of the run and whose every due packet
/// must therefore have been delivered.
struct Guaranteed {
    id: u64,
    first_slot: u64,
    period: u64,
    deadline: u64,
}

fn build_sim(
    topo: &Topology,
    config: &RouterConfig,
    shared_template: bool,
    rec: &mut Recorder,
) -> Simulator<RealTimeRouter> {
    let span = rec.begin("sim_build", Layer::Mesh);
    let sim = if shared_template {
        // The mesh-sweep path: one validated template, per-router state only.
        let template = RouterTemplate::new(config.clone()).expect("default config is valid");
        Simulator::build(topo.clone(), |_| Ok::<_, std::convert::Infallible>(template.build()))
            .expect("infallible router factory")
    } else {
        // The console path: every router validates its own config.
        Simulator::build(topo.clone(), |_| RealTimeRouter::new(config.clone()))
            .expect("default config is valid")
    };
    rec.end(span);
    sim
}

/// Host-side injection discipline.
///
/// A router's injection port takes one packet per slot, and admission
/// control does not model it: a node sourcing channels that add up to more
/// than one packet per slot queues at its own port and misses deadlines it
/// was "guaranteed" (the first sizing of `dense_tc` offered 1.31 packets
/// per slot at one node under seed 1 and missed 2 423 deadlines). Every
/// period in the benchmark is a multiple of four slots, so the hosts here
/// do what a careful host does: a node sources at most four channels at a
/// time, each on its own slot residue mod 4, and two of its packets never
/// want the port in the same slot.
struct InjectionSlots {
    /// Per node, one bit per residue in use.
    taken: Vec<u8>,
}

impl InjectionSlots {
    const RESIDUES: u64 = 4;

    fn new(nodes: usize) -> Self {
        InjectionSlots { taken: vec![0; nodes] }
    }

    fn has_free(&self, node: NodeId) -> bool {
        self.taken[node.index()] != (1 << Self::RESIDUES) - 1
    }

    fn is_free(&self, node: NodeId, residue: u64) -> bool {
        self.taken[node.index()] & (1 << residue) == 0
    }

    /// Claims the lowest free residue at `node`.
    fn claim(&mut self, node: NodeId) -> u64 {
        let residue = u64::from(self.taken[node.index()].trailing_ones());
        assert!(residue < Self::RESIDUES, "claimed a residue at a full node");
        self.claim_at(node, residue);
        residue
    }

    fn claim_at(&mut self, node: NodeId, residue: u64) {
        assert!(self.is_free(node, residue), "claimed a residue twice");
        self.taken[node.index()] |= 1 << residue;
    }

    fn release(&mut self, node: NodeId, residue: u64) {
        self.taken[node.index()] &= !(1 << residue);
    }

    /// The first slot at or after `earliest` on `residue`.
    fn first_slot(residue: u64, earliest: u64) -> u64 {
        earliest + (residue + Self::RESIDUES - earliest % Self::RESIDUES) % Self::RESIDUES
    }
}

/// The `k`-th request of a workload. *What* it asks for is fixed by `k` —
/// `I_min` cycles through `i_mins`, the per-hop bound `d` through
/// `4..=min(d_cap, I_min)`, the route length through `1..=side` — so every
/// seed offers the same volume of work; the seed picks *where*: a source
/// and a destination at that distance from it, among the placements `fits`
/// accepts. `D = (hops + 1) · d`, 18-byte messages. `None` when no
/// placement fits in 64 draws.
fn draw_request(
    rng: &mut StdRng,
    topo: &Topology,
    k: usize,
    i_mins: &[u32],
    d_cap: u32,
    fits: impl Fn(NodeId, NodeId, u32) -> bool,
) -> Option<ChannelRequest> {
    let i_min = i_mins[k % i_mins.len()];
    let d_per = 4 + (k / i_mins.len()) as u32 % (d_cap.min(i_min) - 3);
    // 5 is coprime to every mesh side used, so this visits each length.
    let hops = 1 + (k * 5 % usize::from(topo.width())) as i32;
    let (width, height) = (i32::from(topo.width()), i32::from(topo.height()));
    for _ in 0..64 {
        let src = NodeId(rng.gen_range(0..topo.len() as u16));
        let (x, y) = topo.coords(src);
        let mut at_distance = Vec::new();
        for dx in -hops..=hops {
            let rest = hops - dx.abs();
            for dy in [-rest, rest].into_iter().take(if rest == 0 { 1 } else { 2 }) {
                let (tx, ty) = (i32::from(x) + dx, i32::from(y) + dy);
                if (0..width).contains(&tx) && (0..height).contains(&ty) {
                    at_distance.push(topo.node_at(tx as u16, ty as u16));
                }
            }
        }
        if at_distance.is_empty() {
            continue;
        }
        let dst = at_distance[rng.gen_range(0..at_distance.len())];
        if fits(src, dst, i_min) {
            let deadline = (hops as u32 + 1) * d_per;
            let spec = TrafficSpec::periodic(i_min, 18);
            return Some(ChannelRequest::unicast(src, dst, spec, deadline));
        }
    }
    None
}

/// Network-manager policy for the meshes whose channels are set up before
/// the run: no link is reserved beyond 7/8.
///
/// It keeps the set-up cost a function of the traffic volume rather than
/// of luck. A request that would fill a link to exactly 100 % sends the
/// admission test down its `U ≈ 1` branch, which builds 65 536 slots' worth
/// of test points before the first one fails: about 1.5 ms against the
/// usual 5–50 µs, and anywhere from none to 25 such calls per seed in the
/// first sizing of `dense_tc`.
struct ReservedLinks {
    /// Reserved share per `(node, port index)`; the reception port is a
    /// scheduled link like the others.
    share: HashMap<(NodeId, usize), f64>,
}

impl ReservedLinks {
    const CAP: f64 = 0.875;

    fn new() -> Self {
        ReservedLinks { share: HashMap::new() }
    }

    fn ports(topo: &Topology, src: NodeId, dst: NodeId) -> Vec<(NodeId, usize)> {
        let route = topo.dor_route(src, dst);
        let nodes = topo.walk(src, &route);
        let mut ports: Vec<(NodeId, usize)> =
            nodes.iter().zip(&route).map(|(&n, &dir)| (n, Port::Dir(dir).index())).collect();
        ports.push((dst, Port::Local.index()));
        ports
    }

    fn fits(&self, topo: &Topology, src: NodeId, dst: NodeId, i_min: u32) -> bool {
        let add = 1.0 / f64::from(i_min);
        Self::ports(topo, src, dst)
            .iter()
            .all(|port| self.share.get(port).copied().unwrap_or(0.0) + add <= Self::CAP)
    }

    fn reserve(&mut self, topo: &Topology, src: NodeId, dst: NodeId, i_min: u32) {
        for port in Self::ports(topo, src, dst) {
            *self.share.entry(port).or_insert(0.0) += 1.0 / f64::from(i_min);
        }
    }
}

/// One timed admission call; rejections are an outcome, anything else that
/// fails is an operation failure.
fn timed_establish<T>(
    out: &mut Repeat,
    rec: &mut Recorder,
    name: &'static str,
    call: impl FnOnce() -> Result<T, EstablishError>,
) -> Option<T> {
    let span = rec.begin(name, Layer::Channels);
    let result = call();
    let us = rec.end(span) as f64 / 1e3;
    out.offered += 1;
    out.establish_us.push(us);
    match result {
        Ok(value) => {
            out.accepted += 1;
            Some(value)
        }
        Err(EstablishError::Admission(_)) => {
            out.reject_us.push(us);
            None
        }
        Err(e @ EstablishError::Control(_)) => {
            out.reject_us.push(us);
            out.fail(1, || format!("establish failed outside admission: {e}"));
            None
        }
    }
}

/// Performs the set-up `setups` times (at least once), timing each, and
/// keeps the last one built.
fn timed_setups<T>(
    setups: usize,
    out: &mut Repeat,
    rec: &mut Recorder,
    mut build: impl FnMut(&mut Repeat, &mut Recorder) -> T,
) -> T {
    let mut built = None;
    for _ in 0..setups.max(1) {
        // One at a time, or the peak resident set counts two.
        drop(built.take());
        // Only the kept set-up's admission calls count as this repeat's.
        out.offered = 0;
        out.accepted = 0;
        out.establish_us.clear();
        out.reject_us.clear();
        let span = rec.begin("setup", Layer::Bench);
        let value = build(out, rec);
        out.setup_ns.push(rec.end(span));
        built = Some(value);
    }
    built.expect("at least one set-up")
}

fn static_repeat(plan: &StaticPlan, seed: u64, setups: usize, rec: &mut Recorder) -> Repeat {
    let config = RouterConfig::default();
    let mut out = Repeat::default();
    let built = timed_setups(setups, &mut out, rec, |out, rec| {
        let topo_span = rec.begin("topology", Layer::Mesh);
        let topo = Topology::mesh(plan.side, plan.side);
        rec.end(topo_span);
        let mut sim = build_sim(&topo, &config, plan.side > 8, rec);
        let mut manager = ChannelManager::new(&config);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut slots = InjectionSlots::new(topo.len());
        let mut links = ReservedLinks::new();
        let mut admitted = Vec::new();
        for k in 0..plan.offered {
            // The injection phase is request `k`'s too, not the seed's: when
            // packets cross links decides how much of a sparse run can be
            // leaped, and with it the run's cost.
            let residue = k as u64 % InjectionSlots::RESIDUES;
            let Some(request) = draw_request(&mut rng, &topo, k, &plan.i_mins, 8, |src, dst, i| {
                slots.is_free(src, residue) && links.fits(&topo, src, dst, i)
            }) else {
                continue;
            };
            if let Some(channel) = timed_establish(out, rec, "establish", || {
                manager.establish(&topo, request, &mut sim)
            }) {
                let (src, dst) = (channel.request.source, channel.request.destinations[0]);
                links.reserve(&topo, src, dst, channel.request.spec.i_min);
                slots.claim_at(src, residue);
                admitted.push((channel, residue));
            }
        }
        // One table write per hop of every admitted channel.
        let table_writes: u64 = admitted.iter().map(|(c, _)| c.hops.len() as u64).sum();
        let sources = rec.begin("add_sources", Layer::Workloads);
        let guaranteed = add_periodic_sources(&mut sim, &config, &admitted);
        if plan.be_rate > 0.0 {
            for node in topo.nodes() {
                sim.add_source(
                    node,
                    Box::new(
                        RandomBeSource::new(
                            topo.clone(),
                            TrafficPattern::Uniform,
                            plan.be_rate,
                            SizeDist::Uniform(8, 64),
                            seed.wrapping_mul(7919) ^ u64::from(node.0),
                        )
                        .with_max_queue(8),
                    ),
                );
            }
        }
        rec.end(sources);
        (topo, sim, manager, guaranteed, table_writes)
    });
    let (topo, mut sim, mut manager, guaranteed, guaranteed_hops) = built;

    let rss_before = resident_bytes();
    sim.phase_profiler().set_enabled(true);
    let run = rec.begin("run", Layer::Bench);
    for _ in 0..RUN_SEGMENTS {
        let advance = rec.begin("advance", Layer::Mesh);
        if plan.leaping {
            sim.run_leaping(plan.cycles / RUN_SEGMENTS);
        } else {
            sim.run(plan.cycles / RUN_SEGMENTS);
        }
        out.segment_ns.push(rec.end(advance));
    }
    out.run_ns = rec.end(run);
    sim.phase_profiler().set_enabled(false);
    out.counters.rss_growth_bytes = resident_bytes().saturating_sub(rss_before);
    out.nodes = topo.len() as u64;
    out.sim_cycles = sim.now();
    out.sim.table_writes = guaranteed_hops;

    let report = rec.begin("report", Layer::Bench);
    let mut digest = Digest::new();
    mesh_outcome(&sim, &topo, &config, &guaranteed, &mut digest, &mut out, rec);
    teardown_all(&mut manager, &mut digest, &mut out, rec);
    out.digest = digest.0;
    rec.end(report);
    out
}

/// Attaches one periodic source per admitted channel: one 18-byte message
/// per `I_min`, first sent in the slot of the channel's injection residue.
fn add_periodic_sources(
    sim: &mut Simulator<RealTimeRouter>,
    config: &RouterConfig,
    admitted: &[(EstablishedChannel, u64)],
) -> Vec<Guaranteed> {
    let mut guaranteed = Vec::with_capacity(admitted.len());
    for (channel, residue) in admitted {
        let src = channel.request.source;
        let sender = ChannelSender::new(
            channel,
            sim.chip(src).clock(),
            config.slot_bytes,
            config.tc_data_bytes(),
        );
        let period = u64::from(channel.request.spec.i_min);
        sim.add_source(
            src,
            Box::new(PeriodicTcSource::new(
                sender,
                period,
                *residue,
                config.slot_bytes,
                vec![0x42; config.tc_data_bytes()],
            )),
        );
        guaranteed.push(Guaranteed {
            id: channel.id,
            first_slot: *residue,
            period,
            deadline: u64::from(channel.request.deadline),
        });
    }
    guaranteed
}

/// Reads the network's outputs, checks them, and folds them into the
/// digest: deliveries and latency, the deadline guarantee, conservation.
fn mesh_outcome(
    sim: &Simulator<RealTimeRouter>,
    topo: &Topology,
    config: &RouterConfig,
    guaranteed: &[Guaranteed],
    digest: &mut Digest,
    out: &mut Repeat,
    rec: &mut Recorder,
) {
    let span = rec.begin("capture", Layer::Mesh);
    let report = NetworkReport::capture(sim, config.slot_bytes);
    out.counters.capture_ns = rec.end(span);
    let span = rec.begin("check_conservation", Layer::Mesh);
    let conservation = sim.check_conservation();
    rec.end(span);
    if let Err(violation) = conservation {
        out.fail(1, || format!("conservation: {violation}"));
    }
    out.fail(report.deadline_misses as u64, || {
        format!("{} deliveries past their deadline", report.deadline_misses)
    });

    // Every packet whose deadline slot lies wholly before the end of the
    // run must be in a delivery log. Channel identity rides in the high
    // half of the trace sequence number.
    let last_slot = cycle_to_slot(sim.now().saturating_sub(1), config.slot_bytes);
    let mut delivered_due: HashMap<u64, u64> = HashMap::new();
    for node in topo.nodes() {
        let log = sim.log(node);
        for (cycle, packet) in &log.tc {
            if packet.trace.deadline < last_slot {
                *delivered_due.entry(packet.trace.sequence >> 32).or_insert(0) += 1;
            }
            digest.add(*cycle);
            digest.add(u64::from(packet.conn.0));
            digest.add(packet.trace.sequence);
            digest.add(packet.trace.injected_at);
            digest.add(packet.trace.deadline);
        }
        for (cycle, packet) in &log.be {
            digest.add(*cycle);
            digest.add(u64::from(packet.trace.source.0));
            digest.add(packet.trace.sequence);
            digest.add(packet.trace.injected_at);
            digest.add(packet.payload.len() as u64);
        }
        let stats = sim.chip(node).stats();
        out.ops_attempted += stats.tc_injected;
        stats.emit_counters(&mut |_, value| digest.add(value));
        for dir in Direction::ALL {
            let ledger = sim.link_ledger(node, dir);
            digest.add(ledger.symbols_sent);
            digest.add(ledger.symbols_delivered);
            digest.add(ledger.symbols_lost);
        }
    }
    for channel in guaranteed {
        let horizon = last_slot.saturating_sub(channel.deadline);
        let due = if channel.first_slot < horizon {
            (horizon - channel.first_slot).div_ceil(channel.period)
        } else {
            0
        };
        let got = delivered_due.get(&channel.id).copied().unwrap_or(0);
        out.fail(due.saturating_sub(got), || {
            format!("channel {}: {due} packets due, {got} delivered", channel.id)
        });
    }

    let control = sim.control_stats();
    out.fail(control.ops_rejected, || {
        format!("{} control operations rejected by routers", control.ops_rejected)
    });
    digest.add(control.ops_applied);
    digest.add(control.ops_rejected);
    digest.add(sim.now());

    out.sim.tc_delivered = report.tc_delivered as u64;
    out.sim.be_delivered = report.be_delivered as u64;
    out.sim.tc_p50_latency_cycles = report.tc_latency.percentile(50.0);
    out.sim.tc_p99_latency_cycles = report.tc_latency.percentile(99.0);
    out.sim.tc_min_slack_slots = report.min_slack().unwrap_or(0);
    out.sim.be_p50_latency_cycles = report.be_latency.percentile(50.0);
    out.sim.be_p99_latency_cycles = report.be_latency.percentile(99.0);
    out.sim.control_ops_applied = control.ops_applied;
    read_layer_counters(sim, &mut out.counters);
}

/// Reads the traced build's registry and profiler (all zeros otherwise).
fn read_layer_counters(sim: &Simulator<RealTimeRouter>, counters: &mut LayerCounters) {
    counters.ticks_executed = sim.ticks_executed();
    let snapshot = sim.metrics_snapshot();
    let read = |name: &str| snapshot.counter(name).unwrap_or(0);
    counters.leaps = read("sim.leaps");
    counters.leaped_cycles = read("sim.leaped_cycles");
    counters.stale_repolls = read("sim.stale_repolls");
    counters.wake_polls = read("wake.polls");
    counters.wake_short_polls = read("wake.short_polls");
    counters.queue_filed = read("queue.filed");
    counters.queue_fired = read("queue.fired");
    counters.queue_stale_discarded = read("queue.stale_discarded");
    counters.key_computations = read("sched.key_computations");
    for line in sim.phase_profiler().report() {
        let i = Phase::ALL.iter().position(|&p| p == line.phase).expect("listed phase");
        counters.phase_ns[i] = line.ns;
    }
}

/// Tears every remaining channel down (commands recorded, not applied) and
/// checks the reservation books come back empty.
fn teardown_all(
    manager: &mut ChannelManager,
    digest: &mut Digest,
    out: &mut Repeat,
    rec: &mut Recorder,
) {
    let mut ids: Vec<u64> = manager.channels().keys().copied().collect();
    ids.sort_unstable();
    let span = rec.begin("teardown_all", Layer::Channels);
    let mut plane = DeferredPlane::default();
    for id in &ids {
        digest.add(*id);
        if let Err(e) = manager.teardown(*id, &mut plane) {
            out.fail(1, || format!("final teardown of channel {id}: {e}"));
        }
    }
    let leftover = manager.utilization_report().len() + manager.channels().len();
    rec.end(span);
    out.fail(leftover as u64, || {
        format!("{leftover} reservations or channels left after tearing everything down")
    });
}

const CHURN_MEAN_GAP_SLOTS: f64 = 12.0;
const CHURN_MEAN_LIFE_SLOTS: f64 = 384.0;
const CHURN_MIN_LIFE_SLOTS: u64 = 64;
/// No churned channel outlives this, so the run can end at a fixed cycle.
const CHURN_MAX_LIFE_SLOTS: u64 = 1024;

/// The `(rank + ½) / n` quantile of an exponential with the given mean.
fn exponential_quantile(rank: usize, n: usize, mean: f64) -> u64 {
    (-mean * (1.0 - (rank as f64 + 0.5) / n as f64).ln()).round() as u64
}

/// Replaces each value by the exponential quantile of its rank: the seed
/// still decides *which* item gets the long draw, but the multiset of
/// values — and with it their sum — is the same for every seed.
fn pin_to_quantiles(values: &mut [u64], mean: f64) {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (values[i], i));
    for (rank, i) in order.into_iter().enumerate() {
        values[i] = exponential_quantile(rank, n, mean);
    }
}

/// Pins a Poisson schedule's inter-arrival gaps and lifetimes to their
/// expected order statistics, so every seed churns the same number of
/// channel-slots over the same span and only the arrangement differs.
fn pin_schedule(events: &mut [rtr_workloads::churn::ChurnEvent]) {
    let mut gaps: Vec<u64> = events
        .iter()
        .scan(0, |previous, e| {
            let gap = e.start_slot - *previous;
            *previous = e.start_slot;
            Some(gap)
        })
        .collect();
    pin_to_quantiles(&mut gaps, CHURN_MEAN_GAP_SLOTS);
    let mut lifetimes: Vec<u64> =
        events.iter().map(|e| e.lifetime_slots - CHURN_MIN_LIFE_SLOTS).collect();
    pin_to_quantiles(&mut lifetimes, CHURN_MEAN_LIFE_SLOTS);
    let mut at = 0;
    for ((event, gap), life) in events.iter_mut().zip(gaps).zip(lifetimes) {
        at += gap;
        event.start_slot = at;
        event.lifetime_slots = (CHURN_MIN_LIFE_SLOTS + life).min(CHURN_MAX_LIFE_SLOTS);
    }
}

enum ChurnAction {
    Establish(usize),
    /// Channel id, style, and the injection residue to give back.
    Teardown(u64, TeardownStyle, NodeId, u64),
}

fn churn_repeat(plan: &ChurnPlan, seed: u64, setups: usize, rec: &mut Recorder) -> Repeat {
    let config = RouterConfig::default();
    let mut out = Repeat::default();
    let built = timed_setups(setups, &mut out, rec, |out, rec| {
        let topo_span = rec.begin("topology", Layer::Mesh);
        let topo = Topology::mesh(8, 8);
        rec.end(topo_span);
        let mut sim = build_sim(&topo, &config, false, rec);
        let mut engine = SignalingEngine::new(&config);
        // Two long-lived bystanders on the top and bottom rows: their
        // reservations sit in the books every churn admission runs against.
        let mut guaranteed = Vec::new();
        let mut slots = InjectionSlots::new(topo.len());
        let rows =
            [(topo.node_at(0, 0), topo.node_at(7, 0)), (topo.node_at(0, 7), topo.node_at(7, 7))];
        for (i, (src, dst)) in rows.into_iter().enumerate() {
            let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 96);
            let Some(ticket) = timed_establish(out, rec, "request_establish", || {
                engine.request_establish(&topo, request, &mut sim)
            }) else {
                out.fail(1, || "an empty mesh rejected a bystander".to_string());
                continue;
            };
            let first_slot = InjectionSlots::first_slot(
                slots.claim(src),
                cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1,
            );
            let sources = rec.begin("add_sources", Layer::Workloads);
            let sender = ChannelSender::new(
                &ticket.channel,
                sim.chip(src).clock(),
                config.slot_bytes,
                config.tc_data_bytes(),
            );
            sim.add_source(
                src,
                Box::new(PeriodicTcSource::new(
                    sender,
                    16,
                    first_slot,
                    config.slot_bytes,
                    vec![0x55 + i as u8; config.tc_data_bytes()],
                )),
            );
            rec.end(sources);
            guaranteed.push(Guaranteed {
                id: ticket.channel.id,
                first_slot,
                period: 16,
                deadline: 96,
            });
        }
        // The schedule is a pure function of the seed: establishment times
        // and lifetimes are fixed before the run starts.
        let mut events = churn_schedule(
            &ChurnConfig {
                seed,
                arrivals: plan.arrivals,
                mean_interarrival_slots: CHURN_MEAN_GAP_SLOTS,
                mean_lifetime_slots: CHURN_MEAN_LIFE_SLOTS,
                min_lifetime_slots: CHURN_MIN_LIFE_SLOTS,
            },
            &topo,
        );
        pin_schedule(&mut events);
        (topo, sim, engine, guaranteed, events, slots)
    });
    let (topo, mut sim, mut engine, guaranteed, events, mut slots) = built;

    let mut actions: Vec<ChurnAction> = Vec::new();
    let mut due: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::new();
    for (i, event) in events.iter().enumerate() {
        let at = slot_to_cycle(event.start_slot, config.slot_bytes).max(1);
        due.push(Reverse((at, actions.len())));
        actions.push(ChurnAction::Establish(i));
    }

    let rss_before = resident_bytes();
    sim.phase_profiler().set_enabled(true);
    // Every arrival is in by the last start, every channel gone a capped
    // lifetime and one drain (D + I_min ≤ 64 slots) later; the tail lets
    // the last clears land. The same cycle for every seed.
    let last_start = events.last().map_or(0, |e| e.start_slot);
    let end =
        slot_to_cycle(last_start + CHURN_MAX_LIFE_SLOTS + 64, config.slot_bytes) + plan.tail_cycles;
    let run = rec.begin("run", Layer::Bench);
    let mut last_clear = 0;
    // Segment `n` runs up to cycle `end · (n + 1) / RUN_SEGMENTS`.
    let mut segment = rec.begin("segment", Layer::Bench);
    let mut boundary = end / RUN_SEGMENTS;
    while let Some(Reverse((at, seq))) = due.pop() {
        while at > boundary && (out.segment_ns.len() as u64) < RUN_SEGMENTS - 1 {
            advance_to(&mut sim, boundary, rec);
            out.segment_ns.push(rec.end(segment));
            segment = rec.begin("segment", Layer::Bench);
            boundary += end / RUN_SEGMENTS;
        }
        advance_to(&mut sim, at, rec);
        match actions[seq] {
            ChurnAction::Establish(i) => {
                let event = events[i];
                if !slots.has_free(event.src) {
                    // The host has no injection bandwidth left to give a
                    // fifth channel: it does not ask for one.
                    continue;
                }
                let (sx, sy) = topo.coords(event.src);
                let (dx, dy) = topo.coords(event.dst);
                let dist = u32::from(sx.abs_diff(dx) + sy.abs_diff(dy));
                let request = ChannelRequest::unicast(
                    event.src,
                    event.dst,
                    TrafficSpec::periodic(4, 18),
                    4 * (dist + 1),
                );
                let Some(ticket) = timed_establish(&mut out, rec, "request_establish", || {
                    engine.request_establish(&topo, request, &mut sim)
                }) else {
                    continue;
                };
                let stop = slot_to_cycle(event.stop_slot(), config.slot_bytes);
                // Alternate styles so both the drain path and the abort
                // ledger are exercised.
                let style = if i % 2 == 0 { TeardownStyle::Abort } else { TeardownStyle::Drain };
                let residue = slots.claim(event.src);
                due.push(Reverse((stop.max(ticket.ready_at + 1), actions.len())));
                actions.push(ChurnAction::Teardown(ticket.channel.id, style, event.src, residue));
                let sender = ChannelSender::new(
                    &ticket.channel,
                    sim.chip(event.src).clock(),
                    config.slot_bytes,
                    config.tc_data_bytes(),
                );
                let first_slot = InjectionSlots::first_slot(
                    residue,
                    cycle_to_slot(ticket.ready_at, config.slot_bytes) + 1,
                );
                let source = PeriodicTcSource::new(
                    sender,
                    4,
                    first_slot,
                    config.slot_bytes,
                    vec![0x80 ^ i as u8; config.tc_data_bytes()],
                )
                .with_limit((event.lifetime_slots / 4).max(1));
                sim.add_source(
                    event.src,
                    Box::new(WindowedSource::new(source, ticket.ready_at, stop)),
                );
            }
            ChurnAction::Teardown(id, style, src, residue) => {
                slots.release(src, residue);
                let span = rec.begin("request_teardown", Layer::Channels);
                let result = engine.request_teardown(id, style, &mut sim);
                out.teardown_us.push(rec.end(span) as f64 / 1e3);
                match result {
                    Ok(ticket) => last_clear = last_clear.max(ticket.cleared_at),
                    Err(e) => out.fail(1, || format!("teardown of channel {id}: {e}")),
                }
            }
        }
    }
    loop {
        let last = out.segment_ns.len() as u64 + 1 == RUN_SEGMENTS;
        advance_to(&mut sim, if last { end } else { boundary }, rec);
        out.segment_ns.push(rec.end(segment));
        if last {
            break;
        }
        segment = rec.begin("segment", Layer::Bench);
        boundary += end / RUN_SEGMENTS;
    }
    out.run_ns = rec.end(run);
    if last_clear > sim.now() {
        out.fail(1, || format!("a table clear lands at {last_clear}, after the run's end {end}"));
    }
    sim.phase_profiler().set_enabled(false);
    out.counters.rss_growth_bytes = resident_bytes().saturating_sub(rss_before);
    out.nodes = topo.len() as u64;
    out.sim_cycles = sim.now();

    let report = rec.begin("report", Layer::Bench);
    let mut digest = Digest::new();
    mesh_outcome(&sim, &topo, &config, &guaranteed, &mut digest, &mut out, rec);
    let stats = engine.stats();
    // The bystanders' two requests were issued during set-up.
    if stats.establish_attempted != stats.establish_accepted + stats.establish_rejected {
        out.fail(1, || format!("signaling counters disagree: {stats:?}"));
    }
    let applied = sim.control_stats().ops_applied;
    out.fail(stats.table_writes.abs_diff(applied), || {
        format!("{} table writes scheduled, {applied} applied", stats.table_writes)
    });
    out.sim.table_writes = stats.table_writes;
    for value in [
        stats.establish_attempted,
        stats.establish_accepted,
        stats.establish_rejected,
        stats.teardowns,
        stats.table_writes,
    ] {
        digest.add(value);
    }
    teardown_all(engine.manager_mut(), &mut digest, &mut out, rec);
    out.digest = digest.0;
    rec.end(report);
    out
}

/// Advances simulated time to cycle `target` on the event-driven path.
fn advance_to(sim: &mut Simulator<RealTimeRouter>, target: Cycle, rec: &mut Recorder) {
    let cycles = target.saturating_sub(sim.now());
    if cycles == 0 {
        return;
    }
    let span = rec.begin("advance", Layer::Mesh);
    sim.run_leaping(cycles);
    rec.end(span);
}

fn storm_repeat(plan: &StormPlan, seed: u64, setups: usize, rec: &mut Recorder) -> Repeat {
    const I_MINS: [u32; 4] = [16, 32, 64, 128];
    let config = RouterConfig::default();
    let mut out = Repeat::default();
    let built = timed_setups(setups, &mut out, rec, |out, rec| {
        let topo_span = rec.begin("topology", Layer::Mesh);
        let topo = Topology::mesh(plan.side, plan.side);
        rec.end(topo_span);
        let mut manager = ChannelManager::new(&config);
        let mut plane = DeferredPlane::default();
        let mut rng = StdRng::seed_from_u64(seed);
        // Fill the books to their steady-state population first, so the
        // timed requests all meet the same occupancy.
        let mut live: Vec<u64> = Vec::new();
        let mut k = 0;
        while live.len() < plan.live_cap {
            let request = draw_request(&mut rng, &topo, k, &I_MINS, 16, |_, _, _| true)
                .expect("every placement fits");
            k += 1;
            if let Some(channel) = timed_establish(out, rec, "establish", || {
                manager.establish(&topo, request, &mut plane)
            }) {
                live.push(channel.id);
            }
        }
        (topo, manager, plane, rng, live, k)
    });
    let (topo, mut manager, mut plane, mut rng, mut live, first_k) = built;

    let mut digest = Digest::new();
    let run = rec.begin("run", Layer::Bench);
    let per_segment = plan.requests / RUN_SEGMENTS as usize;
    let mut segment = rec.begin("segment", Layer::Bench);
    for k in first_k..first_k + plan.requests {
        if k > first_k && (k - first_k) % per_segment == 0 {
            out.segment_ns.push(rec.end(segment));
            segment = rec.begin("segment", Layer::Bench);
        }
        let request = draw_request(&mut rng, &topo, k, &I_MINS, 16, |_, _, _| true)
            .expect("every placement fits");
        out.ops_attempted += 1;
        match timed_establish(&mut out, rec, "establish", || {
            manager.establish(&topo, request, &mut plane)
        }) {
            Some(channel) => {
                digest.add(channel.id);
                live.push(channel.id);
            }
            None => digest.add(u64::MAX),
        }
        if live.len() > plan.live_cap {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            let span = rec.begin("teardown", Layer::Channels);
            let result = manager.teardown(id, &mut plane);
            out.teardown_us.push(rec.end(span) as f64 / 1e3);
            if let Err(e) = result {
                out.fail(1, || format!("teardown of channel {id}: {e}"));
            }
        }
        // The recorded commands are the table writes a live plane would
        // schedule; count them and keep the buffer from growing.
        out.sim.table_writes += plane.commands.len() as u64;
        plane.commands.clear();
    }
    out.segment_ns.push(rec.end(segment));
    out.run_ns = rec.end(run);
    out.nodes = topo.len() as u64;

    let report = rec.begin("report", Layer::Bench);
    for row in manager.utilization_report() {
        digest.add(u64::from(row.node.0));
        digest.add(row.port.index() as u64);
        digest.add(row.connections as u64);
        digest.add(u64::from(row.headroom_slots));
    }
    digest.add(out.sim.table_writes);
    teardown_all(&mut manager, &mut digest, &mut out, rec);
    out.digest = digest.0;
    rec.end(report);
    out
}

/// The process's resident set in bytes (0 where `/proc` is unavailable).
fn resident_bytes() -> u64 {
    proc_status_kb("VmRSS:") * 1024
}

/// The process's peak resident set (`VmHWM`) in bytes.
fn peak_resident_bytes() -> u64 {
    proc_status_kb("VmHWM:") * 1024
}

fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}
