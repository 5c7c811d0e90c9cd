//! The deterministic fault-injection plane.
//!
//! The paper's §1 sells point-to-point networks partly on "resilience to
//! link and node failures"; this module is the half of that story the chip
//! cannot provide: a seeded, *scripted* schedule of faults the simulator
//! applies mid-run. Every fault fires at an exact cycle, before that
//! cycle's link phase, so both drive modes (dense and event-driven)
//! observe it identically — the leap planner clamps its
//! quiet-span targets to the next agenda op and can therefore never jump
//! across one.
//!
//! Faults come in three families:
//!
//! * **Link down/up** — a downed link blackholes data symbols and reverse
//!   credits (counted in its [`crate::link::LinkLedger`], not leaked).
//! * **Node crash/restore** — a crashed node stops ticking and drains
//!   nothing; symbols arriving at it go stale on the wire and are dropped
//!   (and counted) deliberately.
//! * **Flaky links** — a seeded per-link generator drops or corrupts a
//!   fraction of *packets* (whole packets, never mid-packet tails, so the
//!   downstream reassembly state machines stay coherent).

use rtr_types::ids::{Direction, NodeId};
use rtr_types::time::Cycle;

use crate::topology::Topology;

/// One kind of fault (or repair) the simulator can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The directed link leaving `node` towards `dir` goes down: data
    /// symbols and reverse credits already on the wire are destroyed
    /// (counted as lost) and everything sent while down is blackholed.
    LinkDown {
        /// Owning (transmitting) node.
        node: NodeId,
        /// Output direction of the link.
        dir: Direction,
    },
    /// The directed link comes back up (its ledger keeps the loss counts).
    LinkUp {
        /// Owning (transmitting) node.
        node: NodeId,
        /// Output direction of the link.
        dir: Direction,
    },
    /// The node stops ticking: it drains no arrivals, returns no credits,
    /// generates no traffic, and its counters freeze. Wires feeding it
    /// back up; arrivals that go stale are dropped and counted.
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// The node resumes ticking from its frozen state.
    NodeRestore {
        /// The restored node.
        node: NodeId,
    },
    /// The directed link starts dropping and/or corrupting a fraction of
    /// the *packets* it carries (decided per packet by a seeded per-link
    /// generator; fractions are in 1024ths).
    LinkFlaky {
        /// Owning (transmitting) node.
        node: NodeId,
        /// Output direction of the link.
        dir: Direction,
        /// Packets dropped, per 1024.
        drop_per_1024: u16,
        /// Packets corrupted, per 1024 (header corruption for
        /// time-constrained packets, payload corruption for best-effort).
        corrupt_per_1024: u16,
    },
    /// The directed link stops being flaky.
    LinkStable {
        /// Owning (transmitting) node.
        node: NodeId,
        /// Output direction of the link.
        dir: Direction,
    },
}

/// A fault scheduled at an absolute cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The cycle the fault applies (before that cycle's link phase).
    pub at: Cycle,
    /// What happens.
    pub kind: FaultKind,
}

/// A scripted, seeded fault schedule. Build one with the fluent methods
/// (or [`FaultSchedule::parse`] for the text format the console takes) and
/// hand it to `Simulator::set_fault_schedule`.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    seed: u64,
}

impl FaultSchedule {
    /// An empty schedule with seed 1.
    #[must_use]
    pub fn new() -> Self {
        FaultSchedule { events: Vec::new(), seed: 1 }
    }

    /// Sets the seed the per-link flaky generators derive from.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed.max(1);
        self
    }

    /// Adds an arbitrary event.
    #[must_use]
    pub fn event(mut self, at: Cycle, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedules a link failure.
    #[must_use]
    pub fn link_down(self, at: Cycle, node: NodeId, dir: Direction) -> Self {
        self.event(at, FaultKind::LinkDown { node, dir })
    }

    /// Schedules a link repair.
    #[must_use]
    pub fn link_up(self, at: Cycle, node: NodeId, dir: Direction) -> Self {
        self.event(at, FaultKind::LinkUp { node, dir })
    }

    /// Schedules a node crash.
    #[must_use]
    pub fn node_crash(self, at: Cycle, node: NodeId) -> Self {
        self.event(at, FaultKind::NodeCrash { node })
    }

    /// Schedules a node restore.
    #[must_use]
    pub fn node_restore(self, at: Cycle, node: NodeId) -> Self {
        self.event(at, FaultKind::NodeRestore { node })
    }

    /// Schedules the start of a flaky-link regime.
    #[must_use]
    pub fn link_flaky(
        self,
        at: Cycle,
        node: NodeId,
        dir: Direction,
        drop_per_1024: u16,
        corrupt_per_1024: u16,
    ) -> Self {
        self.event(at, FaultKind::LinkFlaky { node, dir, drop_per_1024, corrupt_per_1024 })
    }

    /// Schedules the end of a flaky-link regime.
    #[must_use]
    pub fn link_stable(self, at: Cycle, node: NodeId, dir: Direction) -> Self {
        self.event(at, FaultKind::LinkStable { node, dir })
    }

    /// The scheduled events, in insertion order (the simulator sorts them
    /// stably by cycle, so same-cycle events apply in insertion order).
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The configured seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the schedule has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the schedule into `(events, seed)`.
    #[must_use]
    pub fn into_parts(self) -> (Vec<FaultEvent>, u64) {
        (self.events, self.seed)
    }

    /// Parses the console text format, validating every node and link
    /// against `topo`. One event per line:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// seed 42
    /// 5000  link_down    1,1 x+
    /// 9000  link_up      1,1 x+
    /// 5000  node_crash   2,0
    /// 9000  node_restore 2,0
    /// 5000  link_flaky   1,1 y- drop=32 corrupt=16
    /// 9000  link_stable  1,1 y-
    /// ```
    ///
    /// Directions are `x+`, `x-`, `y+`, `y-`; flaky fractions are per
    /// 1024.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input,
    /// out-of-mesh coordinates, or an unwired link.
    pub fn parse(text: &str, topo: &Topology) -> Result<Self, String> {
        let mut schedule = FaultSchedule::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let n = idx + 1;
            let mut words = line.split_whitespace();
            let first = words.next().expect("non-empty line has a first word");
            if first == "seed" {
                let seed = words
                    .next()
                    .ok_or_else(|| format!("line {n}: seed needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("line {n}: bad seed: {e}"))?;
                schedule.seed = seed.max(1);
                continue;
            }
            let at = first.parse::<Cycle>().map_err(|e| format!("line {n}: bad cycle: {e}"))?;
            let op = words.next().ok_or_else(|| format!("line {n}: missing fault kind"))?;
            let node = parse_node(words.next(), topo, n)?;
            let kind = match op {
                "node_crash" => FaultKind::NodeCrash { node },
                "node_restore" => FaultKind::NodeRestore { node },
                "link_down" | "link_up" | "link_flaky" | "link_stable" => {
                    let dir = parse_dir(words.next(), n)?;
                    if topo.link_end(node, dir).is_none() {
                        return Err(format!(
                            "line {n}: link {node} {} is not wired",
                            dir_name(dir)
                        ));
                    }
                    match op {
                        "link_down" => FaultKind::LinkDown { node, dir },
                        "link_up" => FaultKind::LinkUp { node, dir },
                        "link_stable" => FaultKind::LinkStable { node, dir },
                        _ => {
                            let mut drop_per_1024 = 0;
                            let mut corrupt_per_1024 = 0;
                            for word in words.by_ref() {
                                let (key, value) = word.split_once('=').ok_or_else(|| {
                                    format!("line {n}: expected key=value, got {word}")
                                })?;
                                let value = value
                                    .parse::<u16>()
                                    .map_err(|e| format!("line {n}: bad {key}: {e}"))?;
                                match key {
                                    "drop" => drop_per_1024 = value.min(1024),
                                    "corrupt" => corrupt_per_1024 = value.min(1024),
                                    _ => return Err(format!("line {n}: unknown key {key}")),
                                }
                            }
                            FaultKind::LinkFlaky { node, dir, drop_per_1024, corrupt_per_1024 }
                        }
                    }
                }
                _ => return Err(format!("line {n}: unknown fault kind {op}")),
            };
            if let Some(extra) = words.next() {
                return Err(format!("line {n}: trailing input {extra}"));
            }
            schedule.events.push(FaultEvent { at, kind });
        }
        Ok(schedule)
    }
}

fn parse_node(word: Option<&str>, topo: &Topology, line: usize) -> Result<NodeId, String> {
    let word = word.ok_or_else(|| format!("line {line}: missing node coordinates"))?;
    let (x, y) = word
        .split_once(',')
        .ok_or_else(|| format!("line {line}: expected x,y coordinates, got {word}"))?;
    let x = x.parse::<u16>().map_err(|e| format!("line {line}: bad x: {e}"))?;
    let y = y.parse::<u16>().map_err(|e| format!("line {line}: bad y: {e}"))?;
    if x >= topo.width() || y >= topo.height() {
        return Err(format!(
            "line {line}: node {x},{y} is outside the {}x{} mesh",
            topo.width(),
            topo.height()
        ));
    }
    Ok(topo.node_at(x, y))
}

fn parse_dir(word: Option<&str>, line: usize) -> Result<Direction, String> {
    match word {
        Some("x+") => Ok(Direction::XPlus),
        Some("x-") => Ok(Direction::XMinus),
        Some("y+") => Ok(Direction::YPlus),
        Some("y-") => Ok(Direction::YMinus),
        Some(other) => Err(format!("line {line}: bad direction {other} (want x+ x- y+ y-)")),
        None => Err(format!("line {line}: missing direction")),
    }
}

fn dir_name(dir: Direction) -> &'static str {
    match dir {
        Direction::XPlus => "x+",
        Direction::XMinus => "x-",
        Direction::YPlus => "y+",
        Direction::YMinus => "y-",
    }
}

/// Aggregated fault accounting: scheduled events applied so far plus the
/// loss columns summed over every link's [`crate::link::LinkLedger`].
/// Everything destroyed by a fault lands in one of these columns — the
/// conservation checks treat lost-to-fault as its own ledger entry, never
/// as a leak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Link-down events applied.
    pub link_down_events: u64,
    /// Link-up events applied.
    pub link_up_events: u64,
    /// Node-crash events applied.
    pub node_crash_events: u64,
    /// Node-restore events applied.
    pub node_restore_events: u64,
    /// Flaky-regime starts applied.
    pub link_flaky_events: u64,
    /// Flaky-regime ends applied.
    pub link_stable_events: u64,
    /// Data symbols destroyed (blackholed, flaky-dropped, drained on a
    /// link-down, or dropped because their arrival cycle passed while the
    /// receiver was crashed).
    pub symbols_lost: u64,
    /// Data symbols delivered with deliberately corrupted content.
    pub symbols_corrupted: u64,
    /// Best-effort credit bytes destroyed.
    pub credits_lost: u64,
    /// The subset of `symbols_lost` dropped because their exact arrival
    /// cycle was missed (crashed receiver).
    pub late_arrivals_dropped: u64,
}

impl FaultStats {
    /// Emits every field as a `fault.*` counter.
    pub fn emit_counters(&self, emit: &mut impl FnMut(&'static str, u64)) {
        emit("fault.link_down_events", self.link_down_events);
        emit("fault.link_up_events", self.link_up_events);
        emit("fault.node_crash_events", self.node_crash_events);
        emit("fault.node_restore_events", self.node_restore_events);
        emit("fault.link_flaky_events", self.link_flaky_events);
        emit("fault.link_stable_events", self.link_stable_events);
        emit("fault.symbols_lost", self.symbols_lost);
        emit("fault.symbols_corrupted", self.symbols_corrupted);
        emit("fault.credits_lost", self.credits_lost);
        emit("fault.late_arrivals_dropped", self.late_arrivals_dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_events_in_order() {
        let s = FaultSchedule::new()
            .with_seed(7)
            .link_down(100, NodeId(3), Direction::XPlus)
            .node_crash(50, NodeId(1))
            .link_up(200, NodeId(3), Direction::XPlus);
        assert_eq!(s.seed(), 7);
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.events()[1].at, 50, "builder preserves insertion order");
    }

    #[test]
    fn parse_round_trips_every_kind() {
        let topo = Topology::mesh(3, 3);
        let text = "\
            # chaos script\n\
            seed 42\n\
            5000 link_down 1,1 x+\n\
            5000 node_crash 2,0\n\
            7000 link_flaky 0,1 y+ drop=32 corrupt=16\n\
            9000 link_up 1,1 x+   # inline comment\n\
            9000 node_restore 2,0\n\
            9500 link_stable 0,1 y+\n";
        let s = FaultSchedule::parse(text, &topo).unwrap();
        assert_eq!(s.seed(), 42);
        assert_eq!(s.events().len(), 6);
        let n11 = topo.node_at(1, 1);
        assert_eq!(
            s.events()[0],
            FaultEvent { at: 5000, kind: FaultKind::LinkDown { node: n11, dir: Direction::XPlus } }
        );
        assert_eq!(
            s.events()[2].kind,
            FaultKind::LinkFlaky {
                node: topo.node_at(0, 1),
                dir: Direction::YPlus,
                drop_per_1024: 32,
                corrupt_per_1024: 16,
            }
        );
    }

    #[test]
    fn parse_rejects_unwired_links_and_bad_coords() {
        let topo = Topology::mesh(2, 2);
        // (1,1) has no +x neighbour in a 2x2 mesh.
        let err = FaultSchedule::parse("10 link_down 1,1 x+", &topo).unwrap_err();
        assert!(err.contains("not wired"), "{err}");
        let err = FaultSchedule::parse("10 node_crash 5,0", &topo).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let err = FaultSchedule::parse("10 link_down 0,0 north", &topo).unwrap_err();
        assert!(err.contains("bad direction"), "{err}");
        let err = FaultSchedule::parse("10 meteor_strike 0,0", &topo).unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
    }
}
