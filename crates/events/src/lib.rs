//! The deterministic wake queue of the event core: every chip, link and
//! traffic source registers the absolute cycle of its next event under a
//! stable [`WakeHandle`], and the simulator pops the minimum from one binary
//! min-heap ([`WakeQueue`]) instead of re-polling every component. Only
//! wakes beyond the next cycle are filed, so the heap stays shallow (at
//! most ~120 entries on the benchmark's event workloads). The wake per
//! handle lives in a flat `scheduled` table; a heap entry that disagrees
//! with it is stale and is dropped when it reaches the top, so a handle
//! fires at most once per registration. Due handles come out sorted by
//! index, so nothing observable depends on filing order.

#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rtr_types::time::Cycle;

/// A stable identity for one registered component: a dense index handed
/// out by [`WakeQueue::register`], never recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WakeHandle(pub u32);

impl WakeHandle {
    /// The handle's dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Operation counters of a [`WakeQueue`] (`EXPERIMENTS.md`, "Event core").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Wakes filed (initial registrations and overwrites).
    pub filed: u64,
    /// Wakes that fired (returned from [`WakeQueue::pop_due`]).
    pub fired: u64,
    /// Stale heap entries discarded.
    pub stale_discarded: u64,
}

impl QueueStats {
    /// Emits every counter under the `queue.` namespace.
    pub fn emit_counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("queue.filed", self.filed);
        emit("queue.fired", self.fired);
        emit("queue.stale_discarded", self.stale_discarded);
    }
}

/// A min-heap wake list. Every valid wake is after the horizon and has a
/// heap entry; [`WakeQueue::next_wake`] is the minimum of `scheduled`.
#[derive(Debug, Default)]
pub struct WakeQueue {
    /// Authoritative wake per handle (`None` = not scheduled).
    scheduled: Vec<Option<Cycle>>,
    /// Filed `(wake, handle)` entries, earliest on top.
    heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// The queue's current time: all valid wakes are `> horizon`.
    horizon: Cycle,
    /// Number of handles with a valid wake.
    valid: usize,
    stats: QueueStats,
}

impl WakeQueue {
    /// An empty queue at horizon 0 with room for `handles` registrations.
    #[must_use]
    pub fn with_capacity(handles: usize) -> Self {
        WakeQueue { scheduled: Vec::with_capacity(handles), ..WakeQueue::default() }
    }

    /// Registers a new, unscheduled component and returns its handle.
    pub fn register(&mut self) -> WakeHandle {
        let h = WakeHandle(u32::try_from(self.scheduled.len()).expect("too many components"));
        self.scheduled.push(None);
        h
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

    /// Allocated bytes behind the table and the heap (footprint accounting).
    #[must_use]
    pub fn bytes_estimate(&self) -> usize {
        self.scheduled.capacity() * std::mem::size_of::<Option<Cycle>>()
            + self.heap.capacity() * std::mem::size_of::<Reverse<(Cycle, u32)>>()
    }

    /// Registers `h` to wake at `at` (after the horizon), superseding any
    /// previous registration; re-registering the same wake is a no-op.
    pub fn set_wake(&mut self, h: WakeHandle, at: Cycle) {
        debug_assert!(at > self.horizon, "wake {at} not after horizon {}", self.horizon);
        let slot = &mut self.scheduled[h.index()];
        if *slot == Some(at) {
            return;
        }
        self.valid += usize::from(slot.is_none());
        *slot = Some(at);
        self.heap.push(Reverse((at, h.0)));
        self.stats.filed += 1;
    }

    /// Cancels `h`'s registration, if any (its heap entry goes stale).
    pub fn clear_wake(&mut self, h: WakeHandle) {
        self.valid -= usize::from(self.scheduled[h.index()].take().is_some());
    }

    /// Advances to `now` (never back) and appends every handle due by then
    /// to `due`, **sorted by handle index**, consuming its registration.
    pub fn pop_due(&mut self, now: Cycle, due: &mut Vec<WakeHandle>) {
        debug_assert!(now >= self.horizon, "horizon may not move backwards");
        self.horizon = now;
        let first = due.len();
        while let Some(&Reverse((w, h))) = self.heap.peek().filter(|&&Reverse((w, _))| w <= now) {
            self.heap.pop();
            if self.scheduled[h as usize] == Some(w) {
                // Consumed, so a duplicate entry for this wake is stale.
                self.scheduled[h as usize] = None;
                self.valid -= 1;
                self.stats.fired += 1;
                due.push(WakeHandle(h));
            } else {
                self.stats.stale_discarded += 1;
            }
        }
        due[first..].sort_unstable();
    }

    /// The earliest valid wake (`None`: nothing scheduled); scrubs stale tops.
    pub fn next_wake(&mut self) -> Option<Cycle> {
        while let Some(&Reverse((w, h))) = self.heap.peek() {
            if self.scheduled[h as usize] == Some(w) {
                return Some(w);
            }
            self.heap.pop();
            self.stats.stale_discarded += 1;
        }
        None
    }
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
        let mut q = WakeQueue::default();
        let a = q.register();
        let b = q.register();
        let c = q.register();
        q.set_wake(a, 10);
        q.set_wake(b, 3);
        q.set_wake(c, 700);
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
        let mut q = WakeQueue::default();
        let hs: Vec<_> = (0..8).map(|_| q.register()).collect();
        for h in hs.iter().rev() {
            q.set_wake(*h, 5);
        }
        assert_eq!(drain(&mut q, 5), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn stale_entries_never_fire() {
        let mut q = WakeQueue::default();
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
        let mut q = WakeQueue::default();
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
        let mut q = WakeQueue::default();
        let a = q.register();
        q.set_wake(a, 12);
        let filed = q.stats().filed;
        q.set_wake(a, 12); // no-op: no duplicate heap entry
        assert_eq!(q.stats().filed, filed);
        assert_eq!(drain(&mut q, 12), vec![a.0]);
        // Re-registering the *same* cycle after a fire files fresh.
        assert_eq!(q.wake_of(a), None);
    }

    #[test]
    fn firing_consumes_the_registration() {
        let mut q = WakeQueue::default();
        let a = q.register();
        q.set_wake(a, 4);
        assert_eq!(drain(&mut q, 4), vec![a.0]);
        assert_eq!(q.wake_of(a), None);
        assert_eq!(drain(&mut q, 100), Vec::<u32>::new(), "fired wakes do not repeat");
    }

    #[test]
    fn a_leap_collects_every_wake_it_passes() {
        let mut q = WakeQueue::default();
        let hs: Vec<_> = (0..5).map(|_| q.register()).collect();
        // Wakes spread over several orders of magnitude.
        q.set_wake(hs[0], 1);
        q.set_wake(hs[1], 63);
        q.set_wake(hs[2], 64);
        q.set_wake(hs[3], 64 * 64);
        q.set_wake(hs[4], 64 * 64 * 64 + 17);
        assert_eq!(drain(&mut q, 64 * 64 * 64 + 17), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn far_future_wakes_survive_a_leap_that_stops_short() {
        let mut q = WakeQueue::default();
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
    fn wakes_next_to_cycle_max_fire_in_order() {
        // Wakes at the very top of the 64-bit cycle space file and fire
        // without overflow.
        let mut q = WakeQueue::default();
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
        // The queue is still usable at the end of time.
        let d = q.register();
        assert_eq!(q.wake_of(d), None);
    }

    #[test]
    fn horizon_advances_far_between_registrations() {
        let mut q = WakeQueue::default();
        let a = q.register();
        // Fire, leap far ahead, re-register.
        for (reg_at, fire_at) in [(5u64, 6u64), (10_000, 70_000), (70_001, 50_000_000)] {
            let _ = reg_at;
            q.set_wake(a, fire_at);
            assert_eq!(q.next_wake(), Some(fire_at));
            assert_eq!(drain(&mut q, fire_at), vec![a.0]);
        }
    }

    #[test]
    fn a_drained_queue_keeps_its_capacity() {
        // Every round files eight wakes for the same cycle and fires them.
        // The heap grows while the first round files; after that neither a
        // fire nor a refill may change what the queue holds.
        let mut q = WakeQueue::default();
        let hs: Vec<_> = (0..8).map(|_| q.register()).collect();
        let mut settled = None;
        for round in 0..1_000u64 {
            assert_eq!(drain(&mut q, round * 64), Vec::<u32>::new());
            for h in &hs {
                q.set_wake(*h, round * 64 + 5);
            }
            let filled = q.bytes_estimate();
            assert_eq!(drain(&mut q, round * 64 + 5), (0..8).collect::<Vec<_>>());
            assert_eq!(q.bytes_estimate(), filled, "round {round}: the fire freed the heap");
            assert_eq!(*settled.get_or_insert(filled), filled, "round {round}: the queue grew");
        }
    }

    proptest! {
        /// Differential test against a sorted-map oracle: arbitrary
        /// interleavings of set/clear/advance agree with the oracle on
        /// every pop's contents and on the minimum wake.
        #[test]
        fn queue_matches_a_btreemap_oracle(ops in proptest::collection::vec((0u8..4, 0u32..12, 1u64..5_000), 1..120)) {
            let mut q = WakeQueue::default();
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
