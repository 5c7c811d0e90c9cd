//! Output-port state (paper §3.1, §4.2): the time-constrained link
//! serialiser, and the real-time router's view of the shared comparator
//! tree's pipeline — a selection becomes usable `sched_latency` cycles after
//! packets first become available; during a backlog the pipeline stays full
//! and transmissions are back-to-back (the overlap of scheduling and
//! transmission of §4.2). Which class gets a link cycle is the router's
//! decision, not the port's.

use crate::sched::tree::Selection;
use rtr_types::chip::ChipIo;
use rtr_types::flit::LinkSymbol;
use rtr_types::packet::TcPacket;
use rtr_types::time::Cycle;

/// A virtual cut-through transmission waiting out the header-processing
/// latency before streaming (§7 extension); boxed while it exists.
#[derive(Debug)]
pub struct PendingCut {
    /// The packet (header already rewritten for the next hop).
    pub packet: TcPacket,
    /// First cycle the output may emit the start symbol.
    pub start_at: Cycle,
    /// Whether the packet cut through early (within the horizon).
    pub early: bool,
}

/// One time-constrained packet crossing a port at one symbol per cycle
/// (§3.1): a start symbol, then `wire_len − 1` continuations. An output
/// port drives only the start symbol onto its link with
/// [`Serialiser::start`] — the link emits the continuations itself — and
/// keeps the port busy for them with [`Serialiser::advance`], delivering on
/// the last symbol when the port is the reception port. An injection port
/// paces its packet into the local input with [`Serialiser::begin`] /
/// [`Serialiser::step`]. Cycles a router skips rather than ticks are
/// accounted by [`Serialiser::skip`]; the delivery and the injection's last
/// symbol must fall on a tick, so their router wakes at
/// [`Serialiser::last_at`].
#[derive(Debug, Default)]
pub struct Serialiser {
    /// Continuation symbols still to go.
    remaining: u32,
    /// Symbols of the packet in flight (continuation `total − remaining`).
    total: u32,
    /// The packet itself, kept only on its way to the reception port — a
    /// network link carries it inside the start symbol. Boxed like it.
    held: Option<Box<TcPacket>>,
}

impl Serialiser {
    /// Whether a packet is mid-flight: the port is taken every cycle until
    /// its last symbol.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.remaining > 0
    }

    /// The cycle that carries the packet's last symbol, for a serialiser
    /// whose next unaccounted cycle is `next`; `None` when idle.
    #[must_use]
    pub fn last_at(&self, next: Cycle) -> Option<Cycle> {
        self.busy().then(|| next + Cycle::from(self.remaining) - 1)
    }

    /// Starts pacing `wire_len` symbols, the first crossing this cycle.
    pub fn begin(&mut self, wire_len: usize) {
        self.total = u32::try_from(wire_len).expect("a packet exceeds 2^32 symbols");
        self.remaining = self.total - 1;
    }

    /// Spends this cycle on the next continuation symbol, if one is owed,
    /// and returns its index in the packet. One byte: `RouterConfig::validate`
    /// caps `slot_bytes` at 256, so the last index is 255 (callers that only
    /// pace, like a store-and-forward injector, ignore it).
    pub fn step(&mut self) -> Option<u8> {
        let index = (self.total - self.remaining) as u8;
        self.busy().then(|| {
            self.remaining -= 1;
            index
        })
    }

    /// Accounts `cycles` cycles that passed without a tick: the packet
    /// crossed on as many of them as it still had symbols for. Returns
    /// that count — the cycles the port was busy.
    pub fn skip(&mut self, cycles: Cycle) -> Cycle {
        let busy = cycles.min(Cycle::from(self.remaining));
        // `busy` is at most `remaining`, a `u32`.
        self.remaining -= busy as u32;
        busy
    }

    /// Starts `packet` on output `out_idx`: its start symbol goes on the
    /// link, or, on the reception port, the packet is held for delivery.
    /// Returns whether this cycle delivered the packet (pushed it onto
    /// `io.delivered_tc`).
    pub fn start(&mut self, now: Cycle, out_idx: usize, packet: TcPacket, io: &mut ChipIo) -> bool {
        self.begin(packet.wire_len());
        if out_idx == 0 {
            self.held = Some(Box::new(packet));
        } else {
            io.tx[out_idx] = Some(LinkSymbol::TcStart(Box::new(packet)));
        }
        self.deliver_if_done(now, io)
    }

    /// Spends this cycle on the packet's next symbol; returns as
    /// [`Self::start`].
    pub fn advance(&mut self, now: Cycle, io: &mut ChipIo) -> bool {
        debug_assert!(self.busy(), "no time-constrained transmission in flight");
        self.step();
        self.deliver_if_done(now, io)
    }

    fn deliver_if_done(&mut self, now: Cycle, io: &mut ChipIo) -> bool {
        let done = if self.busy() { None } else { self.held.take() };
        done.map(|packet| io.delivered_tc.push((now, *packet))).is_some()
    }
}

/// Cached comparator-tree selection (valid for one tree version and one
/// scheduler slot).
#[derive(Debug, Clone, Copy)]
struct CachedSelection {
    version: u64,
    slot_raw: u32,
    selection: Option<Selection>,
}

/// State of one output port; `Default` is the idle port. Its horizon
/// register is the router's, which control writes reach without a
/// datapath.
///
/// Whether the port's pipeline last observed a candidate is not kept here
/// but in one bit of a mask the router holds for all five ports (`bit` =
/// the port's [`Port::mask`](rtr_types::ids::Port::mask)), so an idle
/// router compares its whole mask with the scheduler's backlog at once.
/// When a bit disagrees with the live backlog, the empty↔non-empty
/// transition — which charges (or resets) the pipeline-refill latency — has
/// not been recorded yet; the event-driven fast path settles it over a
/// skipped span with [`OutputPort::settle_pipeline`] instead of forcing
/// per-cycle ticks.
#[derive(Debug, Default)]
pub struct OutputPort {
    /// In-flight time-constrained transmission.
    pub tc_tx: Serialiser,
    /// A virtual cut-through transmission awaiting its start cycle.
    pub pending_cut: Option<Box<PendingCut>>,
    cached: Option<CachedSelection>,
    grant_ready_at: Cycle,
}

impl OutputPort {
    /// Looks up (or refreshes) the cached selection for this port, modelling
    /// the pipelined tree: `recompute` is called only when the tree version
    /// or the scheduler slot in `(version, slot_raw)` changed, and only
    /// then is the port's `bit` of `had_candidate` written. Returns the
    /// selection and whether the pipeline grant is usable at `now`.
    ///
    /// Inlined into `drive_output`: out of line the 40-byte tuple returns
    /// through memory, and the caller's narrow reloads of it stall on store
    /// forwarding once per output per tick.
    #[inline]
    pub fn selection_with_grant(
        &mut self,
        now: Cycle,
        (version, slot_raw): (u64, u32),
        sched_latency: Cycle,
        had_candidate: &mut u8,
        bit: u8,
        recompute: impl FnOnce() -> Option<Selection>,
    ) -> (Option<Selection>, bool) {
        let stale = match self.cached {
            Some(c) => c.version != version || c.slot_raw != slot_raw,
            None => true,
        };
        if stale {
            let selection = recompute();
            if selection.is_some() && *had_candidate & bit == 0 {
                // Pipeline refill: the tree was empty for this port and now
                // has a candidate; the first grant appears after the
                // pipeline latency.
                self.grant_ready_at = now + sched_latency;
            }
            *had_candidate =
                if selection.is_some() { *had_candidate | bit } else { *had_candidate & !bit };
            self.cached = Some(CachedSelection { version, slot_raw, selection });
        }
        let selection = self.cached.and_then(|c| c.selection);
        (selection, now >= self.grant_ready_at)
    }

    /// The first cycle the port's pipeline grants a selection, once its
    /// `bit` of `had_candidate` records a candidate.
    pub fn grant_ready_at(&self) -> Cycle {
        self.grant_ready_at
    }

    /// Applies, at cycle `at`, the pipeline transition a dense tick would
    /// have recorded on its first selection recompute, copying the port's
    /// `bit` of the scheduler's `backlog` mask into `had_candidate`: an
    /// empty→non-empty flip charges the refill latency from `at`, a
    /// non-empty→empty flip clears the bit so the next candidate charges it
    /// anew. Called from `skip_quiet` when a skipped span starts with the
    /// bit stale — nothing can transmit inside a provably quiet span, so
    /// recording the transition is all the dense recompute would have done.
    /// The cache is dropped because the cached selection predates the
    /// transition.
    pub fn settle_pipeline(
        &mut self,
        at: Cycle,
        had_candidate: &mut u8,
        backlog: u8,
        bit: u8,
        latency: Cycle,
    ) {
        if backlog & bit != 0 && *had_candidate & bit == 0 {
            self.grant_ready_at = at + latency;
        }
        *had_candidate = (*had_candidate & !bit) | (backlog & bit);
        self.cached = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SlotAddr;
    use rtr_types::clock::SlotClock;
    use rtr_types::key::{LatePolicy, SortKey};

    fn sel(addr: u16) -> Selection {
        let clock = SlotClock::new(8);
        Selection {
            leaf: usize::from(addr),
            addr: SlotAddr(addr),
            key: SortKey::compute(&clock, clock.wrap(0), 5, clock.wrap(0), LatePolicy::Saturate),
        }
    }

    fn packet() -> TcPacket {
        TcPacket {
            conn: rtr_types::ids::ConnectionId(1),
            arrival: SlotClock::new(8).wrap(0),
            payload: vec![0x5A; 18].into(),
            trace: rtr_types::packet::PacketTrace::default(),
        }
    }

    #[test]
    fn serialiser_drives_only_the_start_and_delivers_locally_on_the_last_symbol() {
        let mut io = ChipIo::new();
        let (mut link, mut local) = (Serialiser::default(), Serialiser::default());
        assert!(!link.start(0, 2, packet(), &mut io) && !local.start(0, 0, packet(), &mut io));
        assert!(matches!(io.tx[2].take(), Some(LinkSymbol::TcStart(_))));
        assert_eq!((link.last_at(1), local.last_at(1)), (Some(19), Some(19)));
        for k in 1..20 {
            assert!(link.busy() && local.busy(), "symbol {k} still owed");
            assert!(!link.advance(k, &mut io), "network outputs never deliver");
            assert_eq!(local.advance(k, &mut io), k == 19, "the 20th symbol completes it");
        }
        assert!(!link.busy() && !local.busy() && link.last_at(20).is_none());
        assert_eq!(io.delivered_tc.len(), 1);
        assert_eq!(io.delivered_tc[0].0, 19);
        assert!(io.tx.iter().all(Option::is_none), "the link emits the continuations");
        // An injection port uses the pacing alone, and learns each index.
        link.begin(3);
        assert_eq!([link.step(), link.step(), link.step()], [Some(1), Some(2), None]);
    }

    #[test]
    fn a_skipped_span_spends_the_symbols_it_covers() {
        let mut s = Serialiser::default();
        s.begin(20);
        assert_eq!(s.skip(5), 5, "five of nineteen continuations crossed unticked");
        assert_eq!(s.last_at(100), Some(113));
        assert_eq!(s.step(), Some(6), "the next tick carries continuation 6");
        assert_eq!(s.skip(30), 13, "the span outlasts the packet");
        assert!(!s.busy() && s.skip(4) == 0);
    }

    /// The bit the tests' port holds in its router's candidate mask.
    const BIT: u8 = 0b100;

    /// An output port and the router-level candidate mask beside it.
    #[derive(Default)]
    struct Piped {
        port: OutputPort,
        had: u8,
    }

    impl Piped {
        fn select(
            &mut self,
            now: Cycle,
            version: u64,
            slot_raw: u32,
            latency: Cycle,
            recompute: impl FnOnce() -> Option<Selection>,
        ) -> (Option<Selection>, bool) {
            let Piped { port, had } = self;
            port.selection_with_grant(now, (version, slot_raw), latency, had, BIT, recompute)
        }

        fn settle(&mut self, at: Cycle, has_candidate: bool, latency: Cycle) {
            let backlog = if has_candidate { BIT } else { 0 };
            self.port.settle_pipeline(at, &mut self.had, backlog, BIT, latency);
        }
    }

    #[test]
    fn first_grant_waits_for_pipeline_latency() {
        let mut p = Piped::default();
        // Tree becomes non-empty at cycle 100.
        let (s, usable) = p.select(100, 1, 0, 4, || Some(sel(0)));
        assert!(s.is_some());
        assert!(!usable, "grant not ready before the pipeline latency");
        assert_eq!(p.had, BIT, "the recompute records the candidate in the port's bit");
        let (_, usable) = p.select(103, 1, 0, 4, || unreachable!("cached"));
        assert!(!usable);
        let (_, usable) = p.select(104, 1, 0, 4, || unreachable!("cached"));
        assert!(usable);
    }

    #[test]
    fn backlog_keeps_pipeline_full() {
        let mut p = Piped::default();
        let (_, _) = p.select(100, 1, 0, 4, || Some(sel(0)));
        // Tree mutates (another packet arrives) while a candidate existed:
        // no new latency is charged.
        let (s, usable) = p.select(104, 2, 0, 4, || Some(sel(1)));
        assert!(s.is_some());
        assert!(usable);
    }

    #[test]
    fn cache_invalidates_on_slot_tick() {
        let mut p = Piped::default();
        let (_, _) = p.select(0, 1, 0, 0, || Some(sel(0)));
        let mut called = false;
        let (_, _) = p.select(20, 1, 1, 0, || {
            called = true;
            Some(sel(0))
        });
        assert!(called, "slot tick must force re-selection");
    }

    #[test]
    fn settle_pipeline_matches_dense_recompute() {
        // Dense reference: tree becomes non-empty at cycle 100, first
        // grant usable at 104.
        let mut dense = Piped::default();
        let (_, _) = dense.select(100, 1, 0, 4, || Some(sel(0)));
        // Settled port: the same transition recorded by `settle_pipeline`
        // at the skipped span's first cycle must yield the same grant
        // schedule once ticking resumes.
        let mut settled = Piped::default();
        settled.settle(100, true, 4);
        assert_eq!(settled.had, dense.had);
        for now in [103, 104] {
            let (_, dense_usable) = dense.select(now, 1, 0, 4, || Some(sel(0)));
            let (_, settled_usable) = settled.select(now, 1, 0, 4, || Some(sel(0)));
            assert_eq!(dense_usable, settled_usable, "grant diverged at cycle {now}");
        }
        // Non-empty → empty resets the bit: the next candidate charges
        // the latency again, exactly as `empty_tree_resets_pipeline`.
        settled.settle(200, false, 4);
        assert_eq!(settled.had, 0);
        let (_, usable) = settled.select(300, 2, 0, 4, || Some(sel(1)));
        assert!(!usable, "refill latency must be charged after an empty span");
    }

    #[test]
    fn a_port_writes_only_its_own_bit() {
        let mut p = Piped { had: !BIT, ..Piped::default() };
        let (_, _) = p.select(0, 1, 0, 4, || Some(sel(0)));
        assert_eq!(p.had, u8::MAX);
        p.settle(10, false, 4);
        assert_eq!(p.had, !BIT);
    }

    #[test]
    fn empty_tree_resets_pipeline() {
        let mut p = Piped::default();
        let (_, _) = p.select(0, 1, 0, 4, || Some(sel(0)));
        let (_, _) = p.select(10, 2, 0, 4, || None);
        assert_eq!(p.had, 0);
        // Next candidate charges the latency again.
        let (_, usable) = p.select(50, 3, 0, 4, || Some(sel(1)));
        assert!(!usable);
        let (_, usable) = p.select(54, 3, 0, 4, || unreachable!());
        assert!(usable);
    }
}
