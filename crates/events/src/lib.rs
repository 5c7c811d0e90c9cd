//! The wake record of the event core: every chip and link holds the
//! absolute cycle of its next event under a stable [`WakeHandle`], and the
//! simulator reads what is due from one min-tournament ([`WakeQueue`])
//! instead of re-polling every component. The tournament has the layout of
//! the router's comparator tree (`rtr_core::sched::tree`, paper §4.2): node
//! `i` has children `2i` and `2i + 1`, and its leaves are blocks of eight
//! handles in index order, one cache line of wakes each. A handle has
//! exactly one wake, so nothing in the record is ever stale. A write sets
//! its wake and notes its block; the next read refreshes the noted blocks'
//! paths (or, after more writes than that is worth, every node) before it
//! reads the earliest wake or goes down into the subtrees whose minimum is
//! due. The due handles come out sorted by index, so nothing observable
//! depends on the order wakes were written in.

#![forbid(unsafe_code)]

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
    /// Wakes set ([`WakeQueue::set_wake`], [`WakeQueue::pop_due`]) that
    /// changed a handle's wake; marks are not counted.
    pub filed: u64,
    /// Due handles read ([`WakeQueue::due`], [`WakeQueue::pop_due`]).
    pub fired: u64,
}

impl QueueStats {
    /// Emits every counter under the `queue.` namespace.
    pub fn emit_counters(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("queue.filed", self.filed);
        emit("queue.fired", self.fired);
    }
}

/// No wake: the value of a handle that waits for nothing.
const NONE: Cycle = Cycle::MAX;

/// Handles per tournament leaf: one cache line of wakes.
const BLOCK: usize = 8;

/// Nodes in the tournament's top row. The nodes above it are never kept:
/// a read scans the row instead, four cache lines.
const TOP: usize = 32;

/// A min-tournament of wakes. The handles' wakes are grouped in blocks of
/// [`BLOCK`], one cache line each, and each block is one leaf of the
/// tournament; after a refresh every kept node holds the minimum of its two
/// children, so the top row's minimum is the earliest wake. A wake at
/// `Cycle::MAX` is no wake.
#[derive(Debug, Default)]
pub struct WakeQueue {
    /// Every handle's wake, in handle order, padded with no-wakes to
    /// `width` whole blocks.
    wakes: Vec<Cycle>,
    /// Tournament nodes: node `i` has children `2i`/`2i + 1` and block
    /// `b`'s leaf is `width + b`; only nodes from the top row (`top()`)
    /// down are kept. `width` is half the length, a power of two.
    tree: Vec<Cycle>,
    /// The blocks written since the last refresh, each once, whose paths it
    /// walks. Once it holds `width / 8` of them it takes no more: the
    /// refresh rebuilds every node instead, and a due read scans every
    /// block without one.
    written: Vec<u32>,
    /// One bit per block: whether `written` holds it.
    listed: Vec<u64>,
    /// A due read's nodes of one level and of the next.
    level: [Vec<u32>; 2],
    /// Registered handles.
    handles: usize,
    stats: QueueStats,
}

impl WakeQueue {
    /// An empty queue with room for `handles` registrations.
    #[must_use]
    pub fn with_capacity(handles: usize) -> Self {
        let mut q = WakeQueue::default();
        q.resize(handles.div_ceil(BLOCK).next_power_of_two());
        q
    }

    /// Sizes the record for `width` blocks, keeping every wake.
    fn resize(&mut self, width: usize) {
        self.wakes.resize(width * BLOCK, NONE);
        self.tree = vec![NONE; 2 * width];
        self.listed = vec![0; width.div_ceil(64)];
        self.rebuild();
    }

    /// The number of leaves (blocks).
    fn width(&self) -> usize {
        self.tree.len() / 2
    }

    /// The first node of the top row, which ends at twice that.
    fn top(&self) -> usize {
        self.width().min(TOP)
    }

    /// Registers a new component without a wake and returns its handle.
    pub fn register(&mut self) -> WakeHandle {
        let h = WakeHandle(u32::try_from(self.handles).expect("too many components"));
        if self.handles == self.wakes.len() {
            self.resize((2 * self.width()).max(1));
        }
        self.handles += 1;
        h
    }

    /// Whether no handle is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.handles == 0
    }

    /// The wake of a handle, if any.
    #[must_use]
    pub fn wake_of(&self, h: WakeHandle) -> Option<Cycle> {
        let wake = self.wakes[h.index()];
        (wake != NONE).then_some(wake)
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Allocated bytes behind the tournament (footprint accounting).
    #[must_use]
    pub fn bytes_estimate(&self) -> usize {
        let nodes = self.written.capacity() + self.level.iter().map(Vec::capacity).sum::<usize>();
        (self.wakes.capacity() + self.tree.capacity() + self.listed.capacity())
            * std::mem::size_of::<Cycle>()
            + nodes * std::mem::size_of::<u32>()
    }

    /// Sets `h`'s wake to `at`, earlier or later than before (`Cycle::MAX`
    /// takes it away); setting the wake it holds is a no-op.
    pub fn set_wake(&mut self, h: WakeHandle, at: Cycle) {
        let wake = &mut self.wakes[h.index()];
        if *wake != at {
            *wake = at;
            self.stats.filed += 1;
            self.wrote(h);
        }
    }

    /// Brings `h`'s wake forward to `at` if it lies later (a handle that
    /// must act at `at` whatever it answered last); returns whether it did.
    pub fn mark(&mut self, h: WakeHandle, at: Cycle) -> bool {
        let wake = &mut self.wakes[h.index()];
        let later = *wake > at;
        if later {
            *wake = at;
            self.wrote(h);
        }
        later
    }

    /// Notes that `h`'s block changed, while noting costs less than a
    /// rebuild.
    fn wrote(&mut self, h: WakeHandle) {
        let block = h.index() / BLOCK;
        let (word, bit) = (block / 64, 1 << (block % 64));
        if self.written.len() < self.width() / 8 && self.listed[word] & bit == 0 {
            self.listed[word] |= bit;
            self.written.push(block as u32);
        }
    }

    /// Brings every kept node up to date with the wakes: each block written
    /// since the last refresh takes its minimum and recomputes its whole
    /// path up to the top row (a fixed number of steps: cheaper than the
    /// branch that could end it early), and the last walk through a node
    /// sees both its children final; once the written blocks are too many
    /// to note, every node is rebuilt instead.
    fn refresh(&mut self) {
        let width = self.width();
        if self.written.len() >= width / 8 {
            self.rebuild();
            return;
        }
        let top = self.top();
        for &block in &self.written {
            let block = block as usize;
            // Every listed bit is cleared by the end of the list.
            self.listed[block / 64] = 0;
            let mut i = width + block;
            let mut min = block_min(&self.wakes, block);
            while i >= top {
                self.tree[i] = min;
                min = min.min(self.tree[i ^ 1]);
                i /= 2;
            }
        }
        self.written.clear();
    }

    /// Recomputes every node from the wakes up.
    fn rebuild(&mut self) {
        let width = self.width();
        for block in 0..width {
            self.tree[width + block] = block_min(&self.wakes, block);
        }
        for i in (self.top()..width).rev() {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
        self.listed.fill(0);
        self.written.clear();
    }

    /// The earliest wake (`None`: no handle has one).
    #[must_use]
    pub fn next_wake(&mut self) -> Option<Cycle> {
        self.refresh();
        let top = self.top();
        let min = self.tree[top..2 * top].iter().fold(NONE, |min, &node| min.min(node));
        (min != NONE).then_some(min)
    }

    /// Appends every handle due by `now` to `due`, sorted by index, and
    /// leaves their wakes as they are.
    pub fn due(&mut self, now: Cycle, due: &mut Vec<WakeHandle>) {
        // A handle without a wake is never due, not even at the end of time.
        let now = now.min(NONE - 1);
        if self.written.len() >= self.width() / 8 {
            // Too many blocks written to walk their paths: scanning every
            // block costs what a rebuild would, so scan, and leave the
            // rebuild to the next read that needs the tree.
            for block in 0..self.handles.div_ceil(BLOCK) {
                self.push_due(block, now, due);
            }
            return;
        }
        self.refresh();
        // Level by level from the top row: `level` holds the due nodes of
        // one level in order, and each keeps its due children for the next.
        let (width, top) = (self.width(), self.top());
        let [mut nodes, mut next] = std::mem::take(&mut self.level);
        nodes.clear();
        nodes.resize(top, 0);
        let mut kept = 0;
        for node in top..2 * top {
            nodes[kept] = node as u32;
            kept += usize::from(self.tree[node] <= now);
        }
        nodes.truncate(kept);
        while nodes.first().is_some_and(|&node| (node as usize) < width) {
            next.clear();
            next.resize(2 * nodes.len(), 0);
            let mut kept = 0;
            for &node in &nodes {
                for child in [2 * node, 2 * node + 1] {
                    next[kept] = child;
                    kept += usize::from(self.tree[child as usize] <= now);
                }
            }
            next.truncate(kept);
            std::mem::swap(&mut nodes, &mut next);
        }
        for &node in &nodes {
            self.push_due(node as usize - width, now, due);
        }
        self.level = [nodes, next];
    }

    /// Appends the handles of block `block` due by `now` to `due`, in order.
    fn push_due(&mut self, block: usize, now: Cycle, due: &mut Vec<WakeHandle>) {
        let first = block * BLOCK;
        let mut bits = 0_u32;
        for (j, &wake) in self.wakes[first..first + BLOCK].iter().enumerate() {
            bits |= u32::from(wake <= now) << j;
        }
        while bits != 0 {
            due.push(WakeHandle((first + bits.trailing_zeros() as usize) as u32));
            bits &= bits - 1;
            self.stats.fired += 1;
        }
    }

    /// Appends every handle due by `now` to `due`, sorted by index,
    /// consuming its wake.
    pub fn pop_due(&mut self, now: Cycle, due: &mut Vec<WakeHandle>) {
        let from = due.len();
        self.due(now, due);
        for &h in &due[from..] {
            self.set_wake(h, NONE);
        }
    }
}

/// The earliest wake in block `block`.
fn block_min(wakes: &[Cycle], block: usize) -> Cycle {
    let wakes = &wakes[block * BLOCK..(block + 1) * BLOCK];
    wakes.iter().fold(NONE, |min, &wake| min.min(wake))
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
        assert_eq!(q.next_wake(), Some(3));
        assert_eq!(drain(&mut q, 2), Vec::<u32>::new());
        assert_eq!(drain(&mut q, 3), vec![b.0]);
        assert_eq!(q.next_wake(), Some(10));
        assert_eq!(drain(&mut q, 600), vec![a.0]);
        assert_eq!(drain(&mut q, 700), vec![c.0]);
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
    fn superseded_wakes_never_fire() {
        let mut q = WakeQueue::default();
        let a = q.register();
        q.set_wake(a, 10);
        q.set_wake(a, 20); // supersedes 10
        assert_eq!(q.next_wake(), Some(20), "the old wake is gone");
        assert_eq!(drain(&mut q, 15), Vec::<u32>::new(), "superseded wake must not fire");
        assert_eq!(drain(&mut q, 20), vec![a.0]);

        // Cancel entirely: nothing ever fires.
        let b = q.register();
        q.set_wake(b, 30);
        q.set_wake(b, Cycle::MAX);
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
        // The 500 wake was superseded, and the fire consumed the 7.
        assert_eq!(drain(&mut q, 500), Vec::<u32>::new());
    }

    #[test]
    fn same_cycle_re_registration_is_idempotent() {
        let mut q = WakeQueue::default();
        let a = q.register();
        q.set_wake(a, 12);
        let filed = q.stats().filed;
        q.set_wake(a, 12); // no-op: nothing written
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
        // without overflow; `Cycle::MAX` itself is no wake.
        let mut q = WakeQueue::default();
        let a = q.register();
        let b = q.register();
        let c = q.register();
        q.set_wake(a, Cycle::MAX - 1);
        q.set_wake(b, Cycle::MAX - 2);
        q.set_wake(c, 1 << 63);
        assert_eq!(q.next_wake(), Some(1 << 63));
        assert_eq!(drain(&mut q, (1 << 63) + 5), vec![c.0]);
        assert_eq!(q.next_wake(), Some(Cycle::MAX - 2));
        assert_eq!(drain(&mut q, Cycle::MAX - 3), Vec::<u32>::new());
        assert_eq!(drain(&mut q, Cycle::MAX - 2), vec![b.0]);
        assert_eq!(drain(&mut q, Cycle::MAX), vec![a.0]);
        assert_eq!(q.next_wake(), None);
        // The queue is still usable at the end of time.
        let d = q.register();
        assert_eq!(q.wake_of(d), None);
        q.set_wake(d, Cycle::MAX);
        assert_eq!((q.wake_of(d), q.next_wake()), (None, None));
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
        // The tournament is sized by the handles alone: neither a fire nor
        // a refill may change what the queue holds.
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
            assert_eq!(q.bytes_estimate(), filled, "round {round}: the fire freed the tree");
            assert_eq!(*settled.get_or_insert(filled), filled, "round {round}: the queue grew");
        }
    }

    #[test]
    fn a_poll_raises_and_a_mark_lowers() {
        let mut q = WakeQueue::with_capacity(5);
        let hs: Vec<_> = (0..5).map(|_| q.register()).collect();
        for (h, at) in hs.iter().zip([3, 9, 3, 4, 3]) {
            q.set_wake(*h, at);
        }
        assert!(q.mark(hs[1], 3));
        assert!(!q.mark(hs[3], 8), "later than its wake: no change");
        assert_eq!(q.wake_of(hs[3]), Some(4));
        let mut due = Vec::new();
        q.due(3, &mut due);
        assert_eq!(due, [hs[0], hs[1], hs[2], hs[4]]);
        q.set_wake(hs[0], 11);
        q.set_wake(hs[1], Cycle::MAX);
        assert_eq!((q.wake_of(hs[0]), q.wake_of(hs[1])), (Some(11), None));
        assert_eq!(q.next_wake(), Some(3), "the rest were only read");
        for h in &due[2..] {
            q.set_wake(*h, 4 + Cycle::from(h.0));
        }
        assert_eq!(q.next_wake(), Some(4));
    }

    #[test]
    fn many_writes_between_reads_rebuild_the_tree() {
        // Past an eighth of the blocks the written list stops growing and
        // the next read rebuilds every node: both paths read alike.
        let mut q = WakeQueue::with_capacity(1_000);
        let hs: Vec<_> = (0..1_000).map(|_| q.register()).collect();
        for (k, h) in hs.iter().enumerate() {
            q.set_wake(*h, 10_000 - k as Cycle);
        }
        assert_eq!(q.next_wake(), Some(10_000 - 999));
        let mut due = Vec::new();
        q.due(10_000 - 995, &mut due);
        assert_eq!(due, hs[995..]);
        q.set_wake(hs[999], Cycle::MAX);
        q.set_wake(hs[3], 7);
        assert_eq!(q.next_wake(), Some(7));
    }

    /// One operation of [`queue_matches_a_btreemap_oracle`].
    fn apply(
        q: &mut WakeQueue,
        oracle: &mut std::collections::BTreeMap<u32, u64>,
        now: &mut u64,
        handles: u32,
        (op, h, arg): (u8, u32, u64),
    ) -> Result<(), String> {
        let handle = WakeHandle(h);
        let due_in = |oracle: &std::collections::BTreeMap<u32, u64>, now| {
            let due = oracle.iter().filter(|&(_, &w)| w <= now);
            due.map(|(&h, _)| h).collect::<Vec<u32>>()
        };
        match op {
            // Polls of a run of handles: any wake, earlier or later, at or
            // before `now` too.
            0 | 1 => {
                for k in 0..=arg % 4 {
                    let h = (h + k as u32 * 7) % handles;
                    let at = (*now + arg / (k + 1)).saturating_sub(2_500);
                    q.set_wake(WakeHandle(h), at);
                    oracle.insert(h, at);
                }
            }
            2 => {
                q.set_wake(handle, Cycle::MAX);
                oracle.remove(&h);
            }
            // A mark: brought forward to `now`, never pushed back.
            3 => {
                let brought = q.mark(handle, *now);
                let wake = oracle.entry(h).or_insert(u64::MAX);
                if brought != (*wake > *now) {
                    return Err(format!("mark of {h} at {now}: {brought}, wake {wake}"));
                }
                *wake = (*wake).min(*now);
            }
            // A non-consuming read.
            4 => {
                let mut due = Vec::new();
                q.due(*now, &mut due);
                let got: Vec<u32> = due.into_iter().map(|h| h.0).collect();
                let want = due_in(oracle, *now);
                if got != want {
                    return Err(format!("due at {now}: {got:?}, oracle {want:?}"));
                }
            }
            // The due handles polled in turn, as a cycle does: each answers
            // `now + k` or no wake.
            5 => {
                let mut due = Vec::new();
                q.due(*now, &mut due);
                let got: Vec<u32> = due.iter().map(|h| h.0).collect();
                let want = due_in(oracle, *now);
                if got != want {
                    return Err(format!("poll at {now}: {got:?}, oracle {want:?}"));
                }
                for h in due {
                    if h.0 % 3 == 0 {
                        q.set_wake(h, Cycle::MAX);
                        oracle.remove(&h.0);
                    } else {
                        q.set_wake(h, *now + u64::from(h.0 % 5) + 1);
                        oracle.insert(h.0, *now + u64::from(h.0 % 5) + 1);
                    }
                }
            }
            // Time moves on, and the due handles are consumed.
            _ => {
                *now += arg;
                let mut due = Vec::new();
                q.pop_due(*now, &mut due);
                let got: Vec<u32> = due.into_iter().map(|h| h.0).collect();
                let want = due_in(oracle, *now);
                oracle.retain(|_, &mut w| w > *now);
                if got != want {
                    return Err(format!("pop at {now}: {got:?}, oracle {want:?}"));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Differential test against a sorted-map oracle: arbitrary
        /// interleavings of polls of runs of handles (earlier, later or
        /// already due), clears, marks, due reads, polls of the due handles
        /// and consuming pops, on handle counts that are rarely a power of
        /// two and up to 80 blocks wide, agree with the oracle on every
        /// read, on every handle's wake and on the earliest wake after
        /// every operation — whether the read before walked the written
        /// paths or rebuilt the tree.
        #[test]
        fn queue_matches_a_btreemap_oracle(
            handles in 1u32..640,
            ops in proptest::collection::vec((0u8..7, 0u32..640, 1u64..5_000), 1..160),
        ) {
            let mut q = WakeQueue::with_capacity(handles as usize / 2);
            prop_assert!(q.is_empty());
            for _ in 0..handles {
                q.register();
            }
            let mut oracle: std::collections::BTreeMap<u32, u64> = Default::default();
            let mut now = 0u64;
            for (op, h, arg) in ops {
                let result = apply(&mut q, &mut oracle, &mut now, handles, (op, h % handles, arg));
                prop_assert!(result.is_ok(), "{}", result.unwrap_err());
                prop_assert_eq!(q.next_wake(), oracle.values().copied().min());
                for h in 0..handles {
                    prop_assert_eq!(q.wake_of(WakeHandle(h)), oracle.get(&h).copied());
                }
            }
        }
    }
}
