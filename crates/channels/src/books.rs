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
pub(crate) static NO_IDS: IdBook = IdBook { used: Vec::new(), released: Vec::new() };

/// Connection-identifier bookkeeping of one node.
///
/// Both arrays are sized by use, not by the identifier space: `used` ends
/// at the word of the highest identifier ever taken here and `released` at
/// the highest identifier ever released here, so a node one channel
/// crossed once holds one word of each.
#[derive(Debug, Default)]
pub(crate) struct IdBook {
    /// Bit `id` set ⇔ `id` is taken at this node.
    used: Vec<u64>,
    /// Teardown-clock stamp of the most recent release of each identifier
    /// (zero = never released).
    released: Vec<u64>,
}

impl IdBook {
    pub(crate) fn is_used(&self, id: usize) -> bool {
        self.used.get(id / 64).is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    pub(crate) fn mark_used(&mut self, id: usize) {
        if self.used.len() <= id / 64 {
            self.used.resize(id / 64 + 1, 0);
        }
        self.used[id / 64] |= 1 << (id % 64);
    }

    /// Frees `id` and stamps its release.
    pub(crate) fn release(&mut self, id: usize, stamp: u64) {
        if let Some(w) = self.used.get_mut(id / 64) {
            *w &= !(1 << (id % 64));
        }
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
    /// release in any of the books.
    pub(crate) fn pick_free(books: &[&IdBook], capacity: usize) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for word in 0..capacity.div_ceil(64) {
            let used = books.iter().fold(0, |acc, b| acc | b.used.get(word).copied().unwrap_or(0));
            let in_range = match capacity - word * 64 {
                bits @ 0..=63 => (1u64 << bits) - 1,
                _ => u64::MAX,
            };
            let mut free = !used & in_range;
            while free != 0 {
                let id = word * 64 + free.trailing_zeros() as usize;
                free &= free - 1;
                let gen = books.iter().map(|b| b.released_at(id)).max().unwrap_or(0);
                if gen == 0 {
                    return Some(id);
                }
                if best.is_none_or(|(oldest, _)| gen < oldest) {
                    best = Some((gen, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    fn heap_bytes(&self) -> usize {
        (self.used.capacity() + self.released.capacity()) * std::mem::size_of::<u64>()
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
