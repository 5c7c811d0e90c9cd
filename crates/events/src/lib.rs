//! The deterministic calendar-queue event core.
//!
//! Simulating a large mesh at a sparse load spends almost all of its time
//! proving that nothing is about to happen: the naive quiescence check
//! re-polls every chip, link, and traffic source after every cycle to find
//! the earliest next event. This crate replaces that O(components) scan
//! with a **hierarchical timing wheel** ([`WakeQueue`]): every component
//! registers the absolute cycle of its next event once, under a stable
//! [`WakeHandle`], and the simulator pops the minimum.
//!
//! Design points:
//!
//! * **Lazy invalidation.** Re-registering a handle does not search the
//!   wheel for the old entry; the authoritative wake per handle lives in a
//!   flat `scheduled` table and stale wheel entries are discarded when
//!   their slot is drained. A handle therefore fires at most once per
//!   registration even if the same wake was filed several times.
//! * **Determinism.** [`WakeQueue::pop_due`] returns due handles sorted by
//!   handle index, and every other observable (the minimum wake, the
//!   stored truth table) is independent of insertion order — so serial and
//!   worker-thread registration produce identical simulations.
//! * **Full `u64` range.** The wheel has 11 levels of 64 slots
//!   (6 bits per level, 66 bits total), so wakes anywhere in cycle space —
//!   including next to [`Cycle::MAX`] — file and fire without overflow;
//!   see the rollover tests.
//!
//! Amortised costs: `set_wake`/`clear_wake` are O(1), `pop_due` is O(due +
//! stale + cascades) with at most [`LEVELS`] cascade hops per entry over
//! its whole lifetime, and `next_wake` is O(stale scrubbed).

use rtr_types::time::Cycle;

/// Bits per wheel level: 64 slots each.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask extracting a level-local slot index.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Wheel levels: 11 × 6 bits = 66 bits ≥ the full 64-bit cycle space.
pub const LEVELS: usize = 11;

/// A stable identity for one registered component (chip, link, or traffic
/// source). Handles are dense indices handed out by
/// [`WakeQueue::register`]; they are never recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WakeHandle(pub u32);

impl WakeHandle {
    /// The handle's dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Operation counters of a [`WakeQueue`], for the pop-vs-scan telemetry
/// (`EXPERIMENTS.md`, "Event core").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Wakes filed (initial registrations and overwrites).
    pub filed: u64,
    /// Wakes that fired (returned from [`WakeQueue::pop_due`]).
    pub fired: u64,
    /// Stale wheel entries discarded during slot drains and scrubs.
    pub stale_discarded: u64,
    /// Entries re-filed to a lower level while the horizon advanced.
    pub cascaded: u64,
}

impl QueueStats {
    /// Emits every counter under the `queue.` namespace — the shape the
    /// simulator's unified metrics registry absorbs.
    pub fn emit_counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("queue.filed", self.filed);
        emit("queue.fired", self.fired);
        emit("queue.stale_discarded", self.stale_discarded);
        emit("queue.cascaded", self.cascaded);
    }
}

/// A deterministic hierarchical-timing-wheel wake list.
///
/// Invariants (checked by the unit and property tests):
///
/// * every *valid* wake is strictly greater than the current horizon;
/// * each level-`l` wheel entry sits in the horizon's current level-`l`
///   round at a slot index strictly greater than the horizon's, so due
///   slots are exactly the occupied slots at or below the horizon's index
///   after an advance;
/// * [`WakeQueue::next_wake`] equals the minimum of the `scheduled` truth
///   table (the oracle the property tests diff against).
#[derive(Debug)]
pub struct WakeQueue {
    /// Authoritative wake per handle (`None` = not scheduled). Wheel
    /// entries disagreeing with this table are stale and are dropped when
    /// encountered.
    scheduled: Vec<Option<Cycle>>,
    /// `LEVELS × SLOTS` buckets of `(handle, wake)` entries, flattened.
    slots: Vec<Vec<(u32, Cycle)>>,
    /// Per-level occupancy bitmap (bit `i` = slot `i` non-empty).
    occupied: [u64; LEVELS],
    /// The wheel's current time: all valid wakes are `> horizon`.
    horizon: Cycle,
    /// Number of handles with a valid wake.
    valid: usize,
    stats: QueueStats,
}

impl Default for WakeQueue {
    fn default() -> Self {
        WakeQueue::new()
    }
}

impl WakeQueue {
    /// An empty queue at horizon 0.
    #[must_use]
    pub fn new() -> Self {
        WakeQueue::with_capacity(0)
    }

    /// An empty queue with space reserved for `handles` registrations —
    /// used by the simulator to build big-mesh tables without per-cell
    /// growth.
    #[must_use]
    pub fn with_capacity(handles: usize) -> Self {
        WakeQueue {
            scheduled: Vec::with_capacity(handles),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            horizon: 0,
            valid: 0,
            stats: QueueStats::default(),
        }
    }

    /// Registers a new component and returns its handle. The component
    /// starts unscheduled.
    pub fn register(&mut self) -> WakeHandle {
        let h = WakeHandle(u32::try_from(self.scheduled.len()).expect("too many components"));
        self.scheduled.push(None);
        h
    }

    /// Handles registered so far.
    #[must_use]
    pub fn handles(&self) -> usize {
        self.scheduled.len()
    }

    /// Handles currently holding a valid wake.
    #[must_use]
    pub fn len(&self) -> usize {
        self.valid
    }

    /// Whether no handle holds a valid wake.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }

    /// The wheel's current time.
    #[must_use]
    pub fn horizon(&self) -> Cycle {
        self.horizon
    }

    /// The registered wake of a handle, if any.
    #[must_use]
    pub fn wake_of(&self, h: WakeHandle) -> Option<Cycle> {
        self.scheduled[h.index()]
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Heap bytes behind the wheel (allocated capacities of the schedule
    /// table and every calendar slot), for footprint accounting.
    #[must_use]
    pub fn bytes_estimate(&self) -> usize {
        self.scheduled.capacity() * std::mem::size_of::<Option<Cycle>>()
            + self.slots.capacity() * std::mem::size_of::<Vec<(u32, Cycle)>>()
            + self
                .slots
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<(u32, Cycle)>())
                .sum::<usize>()
    }

    /// Registers (or re-registers) `h` to wake at cycle `at`. Any previous
    /// registration is superseded; the stale wheel entry is discarded
    /// lazily. Re-registering the same wake is a no-op.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `at` is not in the future of the horizon: a wake
    /// at or before the current horizon could never fire.
    pub fn set_wake(&mut self, h: WakeHandle, at: Cycle) {
        debug_assert!(at > self.horizon, "wake {at} not after horizon {}", self.horizon);
        let slot = &mut self.scheduled[h.index()];
        if *slot == Some(at) {
            return;
        }
        if slot.is_none() {
            self.valid += 1;
        }
        *slot = Some(at);
        self.file(h.0, at);
    }

    /// Cancels `h`'s registration, if any (lazy: the wheel entry stays
    /// until its slot drains).
    pub fn clear_wake(&mut self, h: WakeHandle) {
        if self.scheduled[h.index()].take().is_some() {
            self.valid -= 1;
        }
    }

    /// Advances the wheel to `now` and appends every handle whose wake is
    /// `≤ now` to `due`, **sorted by handle index**. Fired registrations
    /// are consumed: the component must re-register to wake again.
    ///
    /// `now` may jump arbitrarily far forward (a leap); moving backwards
    /// is a contract violation.
    pub fn pop_due(&mut self, now: Cycle, due: &mut Vec<WakeHandle>) {
        debug_assert!(now >= self.horizon, "horizon may not move backwards");
        let old = self.horizon;
        self.horizon = now;
        let first = due.len();
        for level in 0..LEVELS {
            // If the horizon crossed into a new level-(l+1) slot, every
            // entry filed at level l belongs to a finished round and is
            // due (or stale); otherwise only slots at or below the
            // horizon's index can hold the past.
            let drain_all = round_of(old, level) != round_of(now, level);
            loop {
                let pos = (shr(now, SLOT_BITS * level as u32) & SLOT_MASK) as u32;
                let mask = if drain_all { !0u64 } else { mask_through(pos) };
                let hits = self.occupied[level] & mask;
                if hits == 0 {
                    break;
                }
                let idx = hits.trailing_zeros() as usize;
                self.drain_slot(level, idx, now, due);
            }
        }
        due[first..].sort_unstable();
    }

    /// The earliest valid wake, scrubbing stale entries as a side effect.
    /// `None` means no component is scheduled — the world is silent
    /// forever (until something re-registers).
    pub fn next_wake(&mut self) -> Option<Cycle> {
        for level in 0..LEVELS {
            loop {
                let bits = self.occupied[level];
                if bits == 0 {
                    break;
                }
                let idx = bits.trailing_zeros() as usize;
                let bucket = &mut self.slots[level * SLOTS + idx];
                // Scrub: keep only entries agreeing with the truth table.
                let before = bucket.len();
                let scheduled = &self.scheduled;
                bucket.retain(|&(h, w)| scheduled[h as usize] == Some(w));
                self.stats.stale_discarded += (before - bucket.len()) as u64;
                if bucket.is_empty() {
                    self.occupied[level] &= !(1u64 << idx);
                    continue;
                }
                // Wheel slots at one level never overlap and later slots
                // hold strictly later wakes, so the earliest occupied slot
                // of the lowest occupied level decides.
                return bucket.iter().map(|&(_, w)| w).min();
            }
        }
        None
    }

    /// Files `(h, at)` into the wheel relative to the current horizon.
    fn file(&mut self, h: u32, at: Cycle) {
        let level = level_for(self.horizon, at);
        let idx = (shr(at, SLOT_BITS * level as u32) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + idx].push((h, at));
        self.occupied[level] |= 1u64 << idx;
        self.stats.filed += 1;
    }

    /// Drains one slot: fires due entries, drops stale ones, cascades the
    /// rest down (they are in the horizon's slot but still in its future).
    /// The emptied bucket goes back with its capacity, so a slot that is
    /// filled and fired over and over allocates once.
    fn drain_slot(&mut self, level: usize, idx: usize, now: Cycle, due: &mut Vec<WakeHandle>) {
        let mut bucket = std::mem::take(&mut self.slots[level * SLOTS + idx]);
        self.occupied[level] &= !(1u64 << idx);
        for (h, w) in bucket.drain(..) {
            if self.scheduled[h as usize] != Some(w) {
                self.stats.stale_discarded += 1;
            } else if w <= now {
                // Consume the registration so a duplicate wheel entry for
                // the same (handle, wake) cannot fire twice.
                self.scheduled[h as usize] = None;
                self.valid -= 1;
                self.stats.fired += 1;
                due.push(WakeHandle(h));
            } else {
                // Still in the future: re-file against the new horizon.
                // The slot contained `now`, so the entry lands strictly
                // below `level` — the cascade terminates.
                self.stats.cascaded += 1;
                self.stats.filed -= 1; // re-filing is not a new registration
                self.file(h, w);
            }
        }
        let slot = &mut self.slots[level * SLOTS + idx];
        debug_assert!(slot.is_empty(), "a cascade landed in the slot being drained");
        *slot = bucket;
    }
}

/// Right shift that saturates instead of overflowing for shifts ≥ 64 (the
/// top wheel level's "round" is the whole cycle space).
#[inline]
fn shr(v: u64, by: u32) -> u64 {
    if by >= 64 {
        0
    } else {
        v >> by
    }
}

/// The level-`l` round of a cycle: its bits above level `l`'s slot index.
#[inline]
fn round_of(c: Cycle, level: usize) -> u64 {
    shr(c, SLOT_BITS * (level as u32 + 1))
}

/// Bitmask of slots `0..=pos`.
#[inline]
fn mask_through(pos: u32) -> u64 {
    if pos >= 63 {
        !0
    } else {
        (1u64 << (pos + 1)) - 1
    }
}

/// The wheel level whose slot width covers the highest bit in which `when`
/// differs from `horizon` (level 0 when they agree).
#[inline]
fn level_for(horizon: Cycle, when: Cycle) -> usize {
    let masked = (horizon ^ when) | SLOT_MASK;
    let significant = 63 - masked.leading_zeros();
    (significant / SLOT_BITS) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain(q: &mut WakeQueue, now: Cycle) -> Vec<u32> {
        let mut due = Vec::new();
        q.pop_due(now, &mut due);
        due.into_iter().map(|h| h.0).collect()
    }

    #[test]
    fn wakes_fire_in_time_order() {
        let mut q = WakeQueue::new();
        let a = q.register();
        let b = q.register();
        let c = q.register();
        q.set_wake(a, 10);
        q.set_wake(b, 3);
        q.set_wake(c, 700); // level 1
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_wake(), Some(3));
        assert_eq!(drain(&mut q, 2), Vec::<u32>::new());
        assert_eq!(drain(&mut q, 3), vec![b.0]);
        assert_eq!(q.next_wake(), Some(10));
        assert_eq!(drain(&mut q, 600), vec![a.0]);
        assert_eq!(drain(&mut q, 700), vec![c.0]);
        assert!(q.is_empty());
        assert_eq!(q.next_wake(), None);
    }

    #[test]
    fn due_handles_come_out_sorted_not_in_filing_order() {
        let mut q = WakeQueue::new();
        let hs: Vec<_> = (0..8).map(|_| q.register()).collect();
        for h in hs.iter().rev() {
            q.set_wake(*h, 5);
        }
        assert_eq!(drain(&mut q, 5), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn stale_entries_never_fire() {
        let mut q = WakeQueue::new();
        let a = q.register();
        q.set_wake(a, 10);
        q.set_wake(a, 20); // supersedes 10
        assert_eq!(q.next_wake(), Some(20), "the old wake is invalid");
        assert_eq!(drain(&mut q, 15), Vec::<u32>::new(), "superseded wake must not fire");
        assert_eq!(drain(&mut q, 20), vec![a.0]);
        assert!(q.stats().stale_discarded >= 1);

        // Cancel entirely: nothing ever fires.
        let b = q.register();
        q.set_wake(b, 30);
        q.clear_wake(b);
        assert_eq!(q.next_wake(), None);
        assert_eq!(drain(&mut q, 40), Vec::<u32>::new());
    }

    #[test]
    fn rescheduling_earlier_fires_earlier_and_only_once() {
        let mut q = WakeQueue::new();
        let a = q.register();
        q.set_wake(a, 500);
        q.set_wake(a, 7);
        assert_eq!(q.next_wake(), Some(7));
        assert_eq!(drain(&mut q, 7), vec![a.0]);
        // The leftover 500 entry is stale (the registration was consumed).
        assert_eq!(drain(&mut q, 500), Vec::<u32>::new());
    }

    #[test]
    fn same_cycle_re_registration_is_idempotent() {
        let mut q = WakeQueue::new();
        let a = q.register();
        q.set_wake(a, 12);
        let filed = q.stats().filed;
        q.set_wake(a, 12); // no-op: no duplicate wheel entry
        assert_eq!(q.stats().filed, filed);
        assert_eq!(drain(&mut q, 12), vec![a.0]);
        // Re-registering the *same* cycle after a fire files fresh.
        assert_eq!(q.wake_of(a), None);
    }

    #[test]
    fn firing_consumes_the_registration() {
        let mut q = WakeQueue::new();
        let a = q.register();
        q.set_wake(a, 4);
        assert_eq!(drain(&mut q, 4), vec![a.0]);
        assert_eq!(q.wake_of(a), None);
        assert_eq!(drain(&mut q, 100), Vec::<u32>::new(), "fired wakes do not repeat");
    }

    #[test]
    fn leaps_collect_everything_across_level_boundaries() {
        let mut q = WakeQueue::new();
        let hs: Vec<_> = (0..5).map(|_| q.register()).collect();
        // One entry per wheel level neighbourhood.
        q.set_wake(hs[0], 1);
        q.set_wake(hs[1], 63);
        q.set_wake(hs[2], 64);
        q.set_wake(hs[3], 64 * 64);
        q.set_wake(hs[4], 64 * 64 * 64 + 17);
        assert_eq!(drain(&mut q, 64 * 64 * 64 + 17), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn far_future_wakes_survive_a_leap_that_stops_short() {
        let mut q = WakeQueue::new();
        let near = q.register();
        let far = q.register();
        q.set_wake(near, 100);
        q.set_wake(far, 1_000_000);
        assert_eq!(drain(&mut q, 1000), vec![near.0]);
        assert_eq!(q.next_wake(), Some(1_000_000));
        assert_eq!(drain(&mut q, 999_999), Vec::<u32>::new());
        assert_eq!(drain(&mut q, 1_000_000), vec![far.0]);
    }

    #[test]
    fn wheel_rollover_near_cycle_max() {
        // Wakes at the very top of the 64-bit cycle space exercise the
        // 11th level (bits 60..63) and the saturating shifts.
        let mut q = WakeQueue::new();
        let a = q.register();
        let b = q.register();
        let c = q.register();
        q.set_wake(a, Cycle::MAX);
        q.set_wake(b, Cycle::MAX - 1);
        q.set_wake(c, 1 << 63);
        assert_eq!(q.next_wake(), Some(1 << 63));
        assert_eq!(drain(&mut q, (1 << 63) + 5), vec![c.0]);
        assert_eq!(q.next_wake(), Some(Cycle::MAX - 1));
        assert_eq!(drain(&mut q, Cycle::MAX - 2), Vec::<u32>::new());
        assert_eq!(drain(&mut q, Cycle::MAX - 1), vec![b.0]);
        assert_eq!(drain(&mut q, Cycle::MAX), vec![a.0]);
        assert!(q.is_empty());
        // The wheel is still usable at the end of time.
        let d = q.register();
        assert_eq!(q.horizon(), Cycle::MAX);
        assert_eq!(q.wake_of(d), None);
    }

    #[test]
    fn horizon_advances_through_many_rounds_between_registrations() {
        let mut q = WakeQueue::new();
        let a = q.register();
        // Fire, leap several full level-0 and level-1 rounds, re-register.
        for (reg_at, fire_at) in [(5u64, 6u64), (10_000, 70_000), (70_001, 50_000_000)] {
            let _ = reg_at;
            q.set_wake(a, fire_at);
            assert_eq!(q.next_wake(), Some(fire_at));
            assert_eq!(drain(&mut q, fire_at), vec![a.0]);
        }
    }

    #[test]
    fn a_drained_slot_keeps_its_capacity() {
        // Every round files eight wakes into level 0's slot 5 and fires
        // them. The bucket grows while the first round files; after that
        // neither a fire nor a refill may change what the wheel holds.
        let mut q = WakeQueue::new();
        let hs: Vec<_> = (0..8).map(|_| q.register()).collect();
        let mut settled = None;
        for round in 0..1_000u64 {
            assert_eq!(drain(&mut q, round * 64), Vec::<u32>::new());
            for h in &hs {
                q.set_wake(*h, round * 64 + 5);
            }
            let filled = q.bytes_estimate();
            assert_eq!(drain(&mut q, round * 64 + 5), (0..8).collect::<Vec<_>>());
            assert_eq!(q.bytes_estimate(), filled, "round {round}: the fire freed the bucket");
            assert_eq!(*settled.get_or_insert(filled), filled, "round {round}: the wheel grew");
        }
        assert_eq!(q.stats().cascaded, 0, "every wake went through level 0 only");
    }

    proptest! {
        /// Differential test against a sorted-map oracle: arbitrary
        /// interleavings of set/clear/advance agree with the oracle on
        /// every pop's contents and on the minimum wake.
        #[test]
        fn wheel_matches_a_btreemap_oracle(ops in proptest::collection::vec((0u8..4, 0u32..12, 1u64..5_000), 1..120)) {
            let mut q = WakeQueue::new();
            let mut oracle: std::collections::BTreeMap<u32, u64> = Default::default();
            let handles: Vec<_> = (0..12).map(|_| q.register()).collect();
            let mut now = 0u64;
            for (op, h, arg) in ops {
                match op {
                    0 | 1 => {
                        let at = now + arg; // strictly future
                        q.set_wake(handles[h as usize], at);
                        oracle.insert(h, at);
                    }
                    2 => {
                        q.clear_wake(handles[h as usize]);
                        oracle.remove(&h);
                    }
                    _ => {
                        now += arg;
                        let mut due = Vec::new();
                        q.pop_due(now, &mut due);
                        let mut expect: Vec<u32> = oracle
                            .iter()
                            .filter(|&(_, &w)| w <= now)
                            .map(|(&h, _)| h)
                            .collect();
                        expect.sort_unstable();
                        oracle.retain(|_, &mut w| w > now);
                        let got: Vec<u32> = due.into_iter().map(|h| h.0).collect();
                        prop_assert_eq!(&got, &expect, "due set diverged at {}", now);
                    }
                }
                prop_assert_eq!(q.next_wake(), oracle.values().copied().min());
                prop_assert_eq!(q.len(), oracle.len());
            }
        }
    }
}
