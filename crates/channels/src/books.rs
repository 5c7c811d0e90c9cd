//! The manager's reservation state: one book per *touched* node, reached
//! by `NodeId::index()` — no hashing anywhere on the admission path.
//!
//! A node gets a book the first time a channel commits a reservation at it
//! (or a partition is set there); a node no channel ever crossed has none,
//! and the admission *check* reads through [`NodeBooks::get`] without
//! creating one, so a refused request cannot leave anything behind. The
//! only per-mesh-node cost is the 4-byte slot index, and it grows on first
//! touch up to the highest node index touched — never at construction,
//! which is why [`crate::establish::ChannelManager::new`] needs no
//! topology.

use rtr_types::ids::{NodeId, PORT_COUNT};

use crate::admission::{BufferBook, LinkBook};

/// Marks "no book" in the slot index.
const NO_BOOK: u32 = u32::MAX;

/// The id book every node without one reads as: every identifier free and
/// never released.
pub(crate) static NO_IDS: IdBook = IdBook { bits: Vec::new(), released: Vec::new() };

/// Connection-identifier bookkeeping of one node.
///
/// Both arrays are sized by use, not by the identifier space: `bits` ends
/// at the word pair of the highest identifier ever taken here and
/// `released` at the highest identifier ever released here, so a node one
/// channel crossed once holds one word pair and one stamp.
#[derive(Debug, Default)]
pub(crate) struct IdBook {
    /// Per 64 identifiers, a word of those taken here, then one of those
    /// ever released here (bit `id % 64` of words `2·(id / 64)` and `+ 1`).
    bits: Vec<u64>,
    /// Teardown-clock stamp of the most recent release of each identifier
    /// (zero = never released).
    released: Vec<u64>,
}

impl IdBook {
    /// The taken and ever-released words holding `id`, growing `bits` to them.
    fn words_mut(&mut self, id: usize) -> &mut [u64] {
        let at = 2 * (id / 64);
        if self.bits.len() <= at {
            self.bits.resize(at + 2, 0);
        }
        &mut self.bits[at..at + 2]
    }

    pub(crate) fn is_used(&self, id: usize) -> bool {
        self.bits.get(2 * (id / 64)).is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    pub(crate) fn mark_used(&mut self, id: usize) {
        self.words_mut(id)[0] |= 1 << (id % 64);
    }

    /// Frees `id` and stamps its release.
    pub(crate) fn release(&mut self, id: usize, stamp: u64) {
        let (pair, bit) = (self.words_mut(id), 1 << (id % 64));
        pair[0] &= !bit;
        pair[1] |= bit;
        if self.released.len() <= id {
            self.released.resize(id + 1, 0);
        }
        self.released[id] = stamp;
    }

    fn released_at(&self, id: usize) -> u64 {
        self.released.get(id).copied().unwrap_or(0)
    }

    /// Generation-ordered pick over `0..capacity`: among the identifiers
    /// free in *every* book, the smallest never-released one wins; when
    /// all free ones have been released before, the least-recently-released
    /// (smallest on ties), an identifier's recency being its *latest*
    /// release in any of the books. Only the second case reads the stamps.
    pub(crate) fn pick_free(books: &[&IdBook], capacity: usize) -> Option<usize> {
        let union = |at: usize| books.iter().fold(0, |acc, b| acc | b.bits.get(at).unwrap_or(&0));
        let in_range = |w: usize| match capacity - w * 64 {
            bits @ 0..=63 => (1u64 << bits) - 1,
            _ => u64::MAX,
        };
        let words = capacity.div_ceil(64);
        for w in 0..words {
            let fresh = !(union(2 * w) | union(2 * w + 1)) & in_range(w);
            if fresh != 0 {
                return Some(w * 64 + fresh.trailing_zeros() as usize);
            }
        }
        let mut best: Option<(u64, usize)> = None;
        for w in 0..words {
            let mut free = !union(2 * w) & in_range(w);
            while free != 0 {
                let id = w * 64 + free.trailing_zeros() as usize;
                free &= free - 1;
                let gen = books.iter().map(|b| b.released_at(id)).max().unwrap_or(0);
                if best.is_none_or(|(oldest, _)| gen < oldest) {
                    best = Some((gen, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    fn heap_bytes(&self) -> usize {
        (self.bits.capacity() + self.released.capacity()) * std::mem::size_of::<u64>()
    }
}

/// Everything the manager records about one node.
#[derive(Debug)]
pub(crate) struct NodeBook {
    pub(crate) node: NodeId,
    /// Per outgoing port (reception = `Port::Local`), `None` until a
    /// channel first reserves that port.
    pub(crate) links: [Option<LinkBook>; PORT_COUNT],
    pub(crate) buffers: BufferBook,
    pub(crate) ids: IdBook,
}

/// The books of every touched node, in first-touch order.
#[derive(Debug)]
pub(crate) struct NodeBooks {
    /// `NodeId::index()` → position in `books`, [`NO_BOOK`] when absent.
    slot: Vec<u32>,
    books: Vec<NodeBook>,
    buffer_capacity: usize,
}

impl NodeBooks {
    pub(crate) fn new(buffer_capacity: usize) -> Self {
        NodeBooks { slot: Vec::new(), books: Vec::new(), buffer_capacity }
    }

    /// Packet slots of a node's memory (what a node without a book has
    /// available).
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.buffer_capacity
    }

    fn position(&self, node: NodeId) -> Option<usize> {
        self.slot.get(node.index()).filter(|&&at| at != NO_BOOK).map(|&at| at as usize)
    }

    pub(crate) fn get(&self, node: NodeId) -> Option<&NodeBook> {
        self.position(node).map(|at| &self.books[at])
    }

    pub(crate) fn get_mut(&mut self, node: NodeId) -> Option<&mut NodeBook> {
        self.position(node).map(|at| &mut self.books[at])
    }

    /// The node's book, created empty on first touch.
    pub(crate) fn materialise(&mut self, node: NodeId) -> &mut NodeBook {
        if self.slot.len() <= node.index() {
            self.slot.resize(node.index() + 1, NO_BOOK);
        }
        let at = &mut self.slot[node.index()];
        if *at == NO_BOOK {
            *at = self.books.len() as u32;
            self.books.push(NodeBook {
                node,
                links: Default::default(),
                buffers: BufferBook::new(self.buffer_capacity),
                ids: IdBook::default(),
            });
        }
        &mut self.books[*at as usize]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &NodeBook> {
        self.books.iter()
    }

    pub(crate) fn len(&self) -> usize {
        self.books.len()
    }

    /// Heap bytes held (allocated capacity): the slot index, the books,
    /// and what each book's reservation and identifier arrays own.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slot.capacity() * std::mem::size_of::<u32>()
            + self.books.capacity() * std::mem::size_of::<NodeBook>()
            + self
                .books
                .iter()
                .map(|b| {
                    b.ids.heap_bytes()
                        + b.links.iter().flatten().map(LinkBook::heap_bytes).sum::<usize>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::IdBook;

    /// 130 identifiers: three bitmap words, the last one partial.
    const CAPACITY: usize = 130;

    /// A book that took and released every identifier once, `id` at
    /// `stamp(id)`.
    fn spent(stamp: impl Fn(usize) -> u64) -> IdBook {
        let mut book = IdBook::default();
        for id in 0..CAPACITY {
            book.mark_used(id);
            book.release(id, stamp(id));
        }
        book
    }

    /// What the pick must return: among the ids free in every book, the
    /// smallest latest-release stamp, then the smallest id.
    fn least_recent(books: &[&IdBook]) -> Option<usize> {
        (0..CAPACITY)
            .filter(|&id| books.iter().all(|b| !b.is_used(id)))
            .min_by_key(|&id| (books.iter().map(|b| b.released_at(id)).max().unwrap_or(0), id))
    }

    #[test]
    fn a_spent_id_space_recycles_least_recently_released_first() {
        // One book: pairs of ids share a stamp, the highest ids the oldest.
        let mut one = spent(|id| 1 + (CAPACITY - 1 - id) as u64 / 2);
        for expected in [128, 129, 126, 127] {
            assert_eq!(IdBook::pick_free(&[&one], CAPACITY), Some(expected), "smaller id on ties");
            assert_eq!(least_recent(&[&one]), Some(expected));
            one.mark_used(expected);
        }
        // A book that never saw an id makes nothing fresh again.
        let empty = IdBook::default();
        assert_eq!(IdBook::pick_free(&[&one, &empty], CAPACITY), Some(124));

        // A two-child fork: an id's recency is its later release of the
        // two, and 95 and 96 tie at stamp 106 below every other id.
        let mut left = spent(|id| 10 + id as u64);
        let right = spent(|id| 201 - id as u64);
        assert_eq!(IdBook::pick_free(&[&left], CAPACITY), Some(0));
        assert_eq!(IdBook::pick_free(&[&right], CAPACITY), Some(129));
        assert_eq!(IdBook::pick_free(&[&left, &right], CAPACITY), Some(95));
        assert_eq!(least_recent(&[&left, &right]), Some(95));
        // Taken at either child means taken.
        left.mark_used(95);
        assert_eq!(IdBook::pick_free(&[&left, &right], CAPACITY), Some(96));
        assert_eq!(IdBook::pick_free(&[&right, &left], CAPACITY), Some(96));
        assert_eq!(least_recent(&[&left, &right]), Some(96));
    }
}
