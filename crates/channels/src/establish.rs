//! Channel establishment: route selection, delay-bound decomposition,
//! admission, and router programming (paper §2, §4.1).
//!
//! Establishment is deliberately *software*: the chip only exposes the
//! Table 3 control interface, and everything here — admission tests, route
//! selection, identifier allocation — runs in the protocol stack, exactly as
//! the paper argues for (§4.1: "relegates these non-real-time operations to
//! the protocol software").
//!
//! A channel is a tree rooted at the source (a chain for unicast). Every
//! tree node gets one local delay bound `d` (the paper's simplification: a
//! multicast connection uses the same `d` for all output ports at a node),
//! one incoming connection identifier, and one outgoing identifier shared by
//! all children. The reception port at each destination is scheduled like a
//! link and receives its own `d`.

use std::collections::HashMap;

use rtr_core::control::{ControlCommand, ControlError};
use rtr_core::RealTimeRouter;
use rtr_mesh::sim::Simulator;
use rtr_mesh::topology::Topology;
use rtr_types::config::RouterConfig;
use rtr_types::ids::{ConnectionId, Direction, NodeId, Port};

use crate::admission::{
    buffers_needed, AdmissionError, AdmissionPolicy, LinkBook, LinkReservation,
};
use crate::books::{IdBook, NodeBooks, NO_IDS};
use crate::spec::ChannelRequest;

/// A failure to establish a channel.
#[derive(Debug, PartialEq, Eq)]
pub enum EstablishError {
    /// Admission control rejected the request (network state unchanged).
    Admission(AdmissionError),
    /// Programming a router failed (should not happen when the manager is
    /// the only writer of the tables).
    Control(ControlError),
}

impl From<AdmissionError> for EstablishError {
    fn from(e: AdmissionError) -> Self {
        EstablishError::Admission(e)
    }
}

impl From<ControlError> for EstablishError {
    fn from(e: ControlError) -> Self {
        EstablishError::Control(e)
    }
}

impl std::fmt::Display for EstablishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstablishError::Admission(e) => write!(f, "admission rejected: {e}"),
            EstablishError::Control(e) => write!(f, "router programming failed: {e}"),
        }
    }
}

impl std::error::Error for EstablishError {}

/// Applies control commands to routers — implemented for the mesh simulator
/// and mockable in tests.
pub trait ControlPlane {
    /// Applies one Table 3 command at a node.
    ///
    /// # Errors
    ///
    /// Propagates the router's [`ControlError`].
    fn apply(&mut self, node: NodeId, cmd: ControlCommand) -> Result<(), ControlError>;
}

impl ControlPlane for Simulator<RealTimeRouter> {
    fn apply(&mut self, node: NodeId, cmd: ControlCommand) -> Result<(), ControlError> {
        self.chip_mut(node).apply_control(cmd)
    }
}

/// A control plane that drives the routers through the raw Table 3 pin
/// protocol (the 4-write connection sequence and 2-write horizon sequence)
/// instead of the typed convenience API — byte-for-byte what the
/// controlling processor would do, refusing a value its register cannot hold.
#[derive(Debug)]
pub struct WordLevelPlane<'a>(pub &'a mut Simulator<RealTimeRouter>);

impl ControlPlane for WordLevelPlane<'_> {
    fn apply(&mut self, node: NodeId, cmd: ControlCommand) -> Result<(), ControlError> {
        use rtr_core::control::ControlReg;
        let word = |reg, value: u32| {
            u16::try_from(value).map_err(|_| ControlError::RegisterOverflow { reg, value })
        };
        let chip = self.0.chip_mut(node);
        match cmd {
            ControlCommand::SetConnection { incoming, outgoing, delay, out_mask } => {
                let delay = word(ControlReg::Delay, delay)?;
                chip.control_write(ControlReg::OutConn, outgoing.0)?;
                chip.control_write(ControlReg::Delay, delay)?;
                chip.control_write(ControlReg::PortMask, u16::from(out_mask))?;
                chip.control_write(ControlReg::InConnCommit, incoming.0)?;
                Ok(())
            }
            ControlCommand::SetHorizon { port_mask, horizon } => {
                let horizon = word(ControlReg::HorizonCommit, horizon)?;
                chip.control_write(ControlReg::HorizonMask, u16::from(port_mask))?;
                chip.control_write(ControlReg::HorizonCommit, horizon)?;
                Ok(())
            }
            // The chip has no teardown pin sequence; protocol software
            // clears entries through the same typed path.
            ControlCommand::ClearConnection { .. } => chip.apply_control(cmd),
        }
    }
}

/// One node of an established channel's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The router.
    pub node: NodeId,
    /// Incoming connection identifier at this router.
    pub conn: ConnectionId,
    /// Identifier written into forwarded headers (shared by all children).
    pub out_conn: ConnectionId,
    /// Local delay bound `d` at this router, in slots.
    pub delay: u32,
    /// Output-port mask (network children plus `Local` at destinations).
    pub out_mask: u8,
    /// Packet buffers reserved at this node.
    pub buffers: usize,
}

/// A successfully established real-time channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstablishedChannel {
    /// Manager-assigned identifier.
    pub id: u64,
    /// The original request.
    pub request: ChannelRequest,
    /// Tree nodes in breadth-first order from the source.
    pub hops: Vec<Hop>,
    /// The connection identifier the source uses when injecting.
    pub ingress: ConnectionId,
    /// Scheduled hops on the deepest source→destination path (links plus
    /// the reception port).
    pub depth: u32,
    /// The analytic worst-case end-to-end delay: the largest sum of
    /// per-hop delay bounds over any source→destination path. Always at
    /// most the requested deadline.
    pub guaranteed: u32,
}

impl EstablishedChannel {
    /// The hop entry for a node, if the tree passes through it.
    #[must_use]
    pub fn hop_at(&self, node: NodeId) -> Option<&Hop> {
        self.hops.iter().find(|h| h.node == node)
    }

    /// The analytic worst-case end-to-end delay (slots): the largest sum
    /// of per-hop delay bounds over any source→destination path. A message
    /// with logical arrival time `ℓ0` is guaranteed delivered by
    /// `ℓ0 + guaranteed_bound()`, which never exceeds the requested
    /// deadline.
    #[must_use]
    pub fn guaranteed_bound(&self) -> u32 {
        self.guaranteed
    }
}

/// One row of [`ChannelManager::utilization_report`]: the reservation
/// state of a single scheduled link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoad {
    /// The node owning the link.
    pub node: NodeId,
    /// The outgoing port (reception = `Port::Local`).
    pub port: Port,
    /// Connections reserved on this link.
    pub connections: usize,
    /// Long-run reserved utilisation (packet slots per slot).
    pub utilization: f64,
    /// Schedulability headroom: the largest overhead allowance `η` (slots)
    /// the current set still tolerates.
    pub headroom_slots: u32,
}

/// The blocking/overhead allowance `η` (slots) the manager's link test
/// charges (see [`crate::admission`]).
const ETA: u32 = 2;

/// The channel manager: owns the network's reservation state and programs
/// routers through a [`ControlPlane`].
///
/// The manager assumes it is the only writer of connection tables.
#[derive(Debug)]
pub struct ChannelManager {
    data_bytes: usize,
    half_range: u32,
    /// Identifiers per router, at most the 2^16 a [`ConnectionId`] can name.
    conn_capacity: usize,
    /// Horizon the manager assumes links use when sizing downstream buffers
    /// (§4.1: larger horizons require more reservation).
    assumed_horizon: u32,
    /// Link schedulability test variant.
    policy: AdmissionPolicy,
    /// Link, buffer and identifier books of every node a channel has
    /// crossed. Identifiers are handed out generation-ordered (see
    /// [`IdBook::pick_free`]): never-released ones first (smallest), then
    /// the least-recently-released, so a just-torn-down identifier goes to
    /// the back of the reuse queue and its in-flight packets drain into the
    /// teardown ledger before the id can carry new traffic.
    books: NodeBooks,
    /// Monotone teardown clock stamping identifier releases.
    release_clock: u64,
    /// One-shot ingress-id preference consumed by the next establishment's
    /// source pick (set by [`ChannelManager::reroute`] so a replacement
    /// channel keeps its predecessor's ingress id and senders stamped with
    /// it keep working, generation ordering notwithstanding).
    prefer_ingress: Option<u16>,
    channels: HashMap<u64, EstablishedChannel>,
    next_id: u64,
    /// The scan the id books replaced, fed the same marks and releases;
    /// every pick is checked against it.
    #[cfg(test)]
    oracle: tests::ScanOracle,
}

impl ChannelManager {
    /// Creates a manager for routers built with `config`.
    #[must_use]
    pub fn new(config: &RouterConfig) -> Self {
        ChannelManager {
            data_bytes: config.tc_data_bytes(),
            half_range: 1 << (config.clock_bits - 1),
            conn_capacity: config.connections.min(usize::from(u16::MAX) + 1),
            assumed_horizon: 0,
            policy: AdmissionPolicy::default(),
            books: NodeBooks::new(config.packet_slots),
            release_clock: 0,
            prefer_ingress: None,
            channels: HashMap::new(),
            next_id: 0,
            #[cfg(test)]
            oracle: tests::ScanOracle::default(),
        }
    }

    /// Sets the horizon value assumed when sizing downstream buffers. Must
    /// match (or exceed) the horizon registers actually programmed into the
    /// routers.
    pub fn set_assumed_horizon(&mut self, horizon: u32) {
        self.assumed_horizon = horizon;
    }

    /// Selects the link schedulability test (see [`AdmissionPolicy`]; the
    /// unsound utilisation-only variant exists for the ablation study).
    pub fn set_policy(&mut self, policy: AdmissionPolicy) {
        self.policy = policy;
    }

    /// Caps the packet buffers reservable by connections leaving `node` on
    /// `port` — the §3.4 logical memory partitioning. `None` restores full
    /// sharing.
    pub fn set_buffer_partition(&mut self, node: NodeId, port: Port, cap: Option<usize>) {
        self.books.materialise(node).buffers.set_partition(port.index(), cap);
    }

    /// Established channels, by identifier.
    #[must_use]
    pub fn channels(&self) -> &HashMap<u64, EstablishedChannel> {
        &self.channels
    }

    /// The link book of `(node, port)` (reception = `Port::Local`).
    #[must_use]
    pub fn link_book(&self, node: NodeId, port: Port) -> Option<&LinkBook> {
        self.books.get(node)?.links[port.index()].as_ref()
    }

    /// Nodes holding a reservation book: those a committed channel has
    /// crossed or a partition was set at. A refused request adds none.
    #[must_use]
    pub fn booked_nodes(&self) -> usize {
        self.books.len()
    }

    /// Heap bytes behind the reservation books (allocated capacity): a
    /// few dozen words per booked node plus four bytes of index per node
    /// up to the highest-numbered booked one; the channel registry is not
    /// counted.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.books.heap_bytes()
    }

    /// A network-wide reservation summary: per reserved link, its
    /// utilisation and schedulability headroom, densest first. Protocol
    /// software uses this to pick routes, size horizons, and decide
    /// partitions.
    #[must_use]
    pub fn utilization_report(&self) -> Vec<LinkLoad> {
        let mut rows = Vec::new();
        for at in self.books.iter() {
            for (book, port) in at.links.iter().zip(Port::ALL) {
                let Some(book) = book.as_ref().filter(|b| !b.reservations().is_empty()) else {
                    continue;
                };
                rows.push(LinkLoad {
                    node: at.node,
                    port,
                    connections: book.reservations().len(),
                    utilization: book.utilization_with(None),
                    headroom_slots: book.headroom(),
                });
            }
        }
        rows.sort_by(|a, b| {
            b.utilization
                .partial_cmp(&a.utilization)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.node, a.port.index()).cmp(&(b.node, b.port.index())))
        });
        rows
    }

    /// Attempts to establish `request`; on success the routers reached
    /// through `plane` are programmed and reservations committed. On
    /// failure, no state changes.
    ///
    /// # Errors
    ///
    /// See [`EstablishError`].
    pub fn establish(
        &mut self,
        topo: &Topology,
        request: ChannelRequest,
        plane: &mut impl ControlPlane,
    ) -> Result<EstablishedChannel, EstablishError> {
        // Default route selection: dimension-ordered paths (which always
        // merge into a tree from one source).
        let routes: Vec<Vec<Direction>> =
            request.destinations.iter().map(|&dst| topo.dor_route(request.source, dst)).collect();
        self.establish_routed(topo, request, &routes, plane)
    }

    /// Like [`Self::establish`], but over explicitly chosen routes (one per
    /// destination) — e.g. paths produced by
    /// [`Topology::route_avoiding`] to steer around failed or saturated
    /// links. The routes must merge into a tree (§3.3's table-driven
    /// routing forwards one copy per output port, so a node cannot have
    /// two parents).
    ///
    /// # Errors
    ///
    /// See [`EstablishError`]; in particular
    /// [`AdmissionError::InvalidRoute`] if the routes do not form a tree or
    /// do not end at the request's destinations.
    pub fn establish_routed(
        &mut self,
        topo: &Topology,
        request: ChannelRequest,
        routes: &[Vec<Direction>],
        plane: &mut impl ControlPlane,
    ) -> Result<EstablishedChannel, EstablishError> {
        if request.destinations.is_empty() {
            return Err(AdmissionError::NoRoute.into());
        }
        // The ingress preference is one-shot: consumed here so a failed
        // establishment cannot leak it into an unrelated later one.
        let prefer_ingress = self.prefer_ingress.take();
        let packets = request.spec.packets_per_message(self.data_bytes);

        // 1. Build the routing tree (BFS order; each node has a unique
        //    parent). Everything below is indexed by position in that order.
        let tree = RouteTree::build_from_routes(topo, &request, routes)?;
        let order = tree.order();

        // 2. Decompose the deadline: a uniform per-node delay, with the
        //    remainder spread along the deepest path.
        let depth = tree.max_depth();
        let base = request.deadline / depth;
        let remainder = request.deadline % depth;
        if base < packets {
            return Err(AdmissionError::BadDelayBound {
                reason: "deadline too tight for the route length",
            }
            .into());
        }
        let d_cap = request.spec.i_min.min(self.half_range - 1);
        let mut delays = vec![base.min(d_cap); order.len()];
        for at in tree.deepest_path().into_iter().take(remainder as usize) {
            delays[at] = (delays[at] + 1).min(d_cap);
        }

        // 3. Admission: links (including reception ports) and buffers. Reads
        //    the books only — a node without one has empty links and a full
        //    memory — so a refusal leaves nothing behind.
        let mut planned: Vec<Hop> = Vec::with_capacity(order.len());
        for (at, &node) in order.iter().enumerate() {
            let d_here = delays[at];
            let reservation =
                LinkReservation { packets, period: request.spec.i_min, delay: d_here };
            let mut mask = 0u8;
            for (dir, _) in tree.children(at) {
                mask |= Port::Dir(dir).mask();
            }
            if tree.delivers(at) {
                mask |= Port::Local.mask();
            }
            let book = self.books.get(node);
            for port in rtr_types::ids::ports_in_mask(mask) {
                book.and_then(|b| b.links[port.index()].as_ref())
                    .unwrap_or(&NO_LINKS)
                    .admissible_with(reservation, ETA, self.policy)?;
            }
            let (h_prev, d_prev, is_source) = match tree.parent(at) {
                Some(parent) => (self.assumed_horizon, delays[parent], false),
                None => (0, 0, true),
            };
            let buffers = buffers_needed(&request.spec, packets, h_prev, d_prev, d_here, is_source);
            let tightest =
                book.map_or(self.books.buffer_capacity(), |b| b.buffers.available_through(mask));
            if buffers > tightest {
                return Err(AdmissionError::BufferExceeded {
                    node,
                    requested: buffers,
                    available: tightest,
                }
                .into());
            }
            planned.push(Hop {
                node,
                conn: ConnectionId(0),     // assigned below
                out_conn: ConnectionId(0), // assigned below
                delay: d_here,
                out_mask: mask,
                buffers,
            });
        }

        // 4. Connection identifiers: the source picks any free id; each
        //    parent's outgoing id must be free at *all* children. A tree
        //    node receives exactly one id, so no pick depends on another
        //    and nothing is marked until every pick has succeeded.
        planned[0].conn = prefer_ingress
            .filter(|&id| {
                usize::from(id) < self.conn_capacity && !self.id_in_use(request.source, id)
            })
            .map(ConnectionId)
            .or_else(|| self.pick_free_id([request.source]))
            .ok_or(AdmissionError::NoFreeConnectionId { node: request.source })?;
        for at in 0..order.len() {
            // A refusal names the child the routes reached first.
            let Some(first) = tree.children(at).map(|(_, child)| child).min() else {
                planned[at].out_conn = planned[at].conn;
                continue;
            };
            let id = self
                .pick_free_id(tree.children(at).map(|(_, child)| order[child]))
                .ok_or(AdmissionError::NoFreeConnectionId { node: order[first] })?;
            planned[at].out_conn = id;
            for (_, child) in tree.children(at) {
                planned[child].conn = id;
            }
        }

        // 5. Commit reservations and program the routers.
        for hop in &planned {
            let reservation =
                LinkReservation { packets, period: request.spec.i_min, delay: hop.delay };
            let book = self.books.materialise(hop.node);
            for port in rtr_types::ids::ports_in_mask(hop.out_mask) {
                book.links[port.index()].get_or_insert_with(LinkBook::new).reserve(reservation);
            }
            book.buffers
                .reserve(hop.node, hop.buffers, hop.out_mask)
                .expect("buffer availability checked during admission");
            book.ids.mark_used(hop.conn.index());
            #[cfg(test)]
            self.oracle.mark(hop.node, hop.conn.0);
            plane.apply(
                hop.node,
                ControlCommand::SetConnection {
                    incoming: hop.conn,
                    outgoing: hop.out_conn,
                    delay: hop.delay,
                    out_mask: hop.out_mask,
                },
            )?;
        }

        let id = self.next_id;
        self.next_id += 1;
        // Analytic bound: the largest per-path sum of the committed delay
        // bounds (≤ the requested deadline by construction). Parents come
        // before children, so one pass turns `delays` into path sums.
        for at in 1..delays.len() {
            delays[at] += delays[tree.parent(at).expect("only the source has no parent")];
        }
        let guaranteed = tree.destinations().map(|at| delays[at]).max().unwrap_or(0);
        debug_assert!(guaranteed <= request.deadline);

        let channel = EstablishedChannel {
            id,
            ingress: planned[0].conn,
            depth,
            guaranteed,
            hops: planned,
            request,
        };
        self.channels.insert(id, channel.clone());
        Ok(channel)
    }

    /// Re-establishes a channel around failed links: tears the channel
    /// down, computes shortest detours avoiding `dead` links, and
    /// establishes over them (unicast per destination; multicast requests
    /// are rerouted destination-by-destination and must still merge into a
    /// tree).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::NoRoute`] if the channel is unknown or the
    /// failures disconnect a destination — the original channel is then
    /// left untouched. If detour *admission* fails, the original has
    /// already been torn down (its resources were released to make room
    /// for the detour); callers should re-establish it.
    pub fn reroute(
        &mut self,
        channel_id: u64,
        topo: &Topology,
        dead: &[(NodeId, Direction)],
        plane: &mut impl ControlPlane,
    ) -> Result<EstablishedChannel, EstablishError> {
        let Some(channel) = self.channels.get(&channel_id).cloned() else {
            return Err(AdmissionError::NoRoute.into());
        };
        let request = channel.request.clone();
        let mut routes = Vec::with_capacity(request.destinations.len());
        for &dst in &request.destinations {
            let route = topo
                .route_avoiding(request.source, dst, dead)
                .ok_or(EstablishError::Admission(AdmissionError::NoRoute))?;
            routes.push(route);
        }
        self.teardown(channel_id, plane)?;
        // Keep the torn-down channel's ingress id for the replacement:
        // senders stamped with the old ingress keep working unmodified,
        // and the generation-ordered allocator would otherwise send the
        // just-released id to the back of the reuse queue.
        self.prefer_ingress = Some(channel.ingress.0);
        self.establish_routed(topo, request, &routes, plane)
    }

    /// Tears down an established channel: clears table entries, releases
    /// reservations and identifiers.
    ///
    /// # Errors
    ///
    /// Propagates router programming errors; reservation state is released
    /// regardless.
    pub fn teardown(
        &mut self,
        channel_id: u64,
        plane: &mut impl ControlPlane,
    ) -> Result<(), EstablishError> {
        let Some(channel) = self.channels.remove(&channel_id) else {
            return Ok(());
        };
        let packets = channel.request.spec.packets_per_message(self.data_bytes);
        self.release_clock += 1;
        let stamp = self.release_clock;
        let mut first_error: Option<ControlError> = None;
        for hop in &channel.hops {
            let reservation =
                LinkReservation { packets, period: channel.request.spec.i_min, delay: hop.delay };
            let book = self.books.get_mut(hop.node).expect("an established hop has a book");
            for port in rtr_types::ids::ports_in_mask(hop.out_mask) {
                if let Some(link) = &mut book.links[port.index()] {
                    link.release(reservation);
                }
            }
            book.buffers.release(hop.buffers, hop.out_mask);
            book.ids.release(hop.conn.index(), stamp);
            #[cfg(test)]
            self.oracle.release(hop.node, hop.conn.0, stamp);
            if let Err(e) =
                plane.apply(hop.node, ControlCommand::ClearConnection { incoming: hop.conn })
            {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    fn id_in_use(&self, node: NodeId, id: u16) -> bool {
        let used = self.books.get(node).is_some_and(|b| b.ids.is_used(id.into()));
        #[cfg(test)]
        assert_eq!(used, self.oracle.is_used(node, id), "id {id} at {node}");
        used
    }

    /// An identifier free at every listed node (at most one per
    /// direction: the children of a tree node), by the generation order of
    /// [`IdBook::pick_free`]. A node without a book constrains nothing.
    fn pick_free_id(&self, nodes: impl IntoIterator<Item = NodeId>) -> Option<ConnectionId> {
        #[cfg(test)]
        let nodes: Vec<NodeId> = nodes.into_iter().collect();
        #[cfg(test)]
        let expected = self.oracle.pick_free_id(&nodes, self.conn_capacity);
        let mut books = [&NO_IDS; Direction::ALL.len()];
        let mut booked = 0;
        for node in nodes {
            if let Some(at) = self.books.get(node) {
                books[booked] = &at.ids;
                booked += 1;
            }
        }
        // `conn_capacity` ≤ 2^16, so every pick fits the identifier.
        let picked = IdBook::pick_free(&books[..booked], self.conn_capacity)
            .map(|id| ConnectionId(id as u16));
        #[cfg(test)]
        assert_eq!(picked, expected, "the id books and the reference scan disagree");
        picked
    }
}

/// What a link no channel has reserved reads as.
static NO_LINKS: LinkBook = LinkBook::new();

/// Marks "no node" among a [`RouteTree`]'s positions.
const NO_POS: u32 = u32::MAX;

/// The routing tree of one channel: the routes from the source to every
/// destination, merged. A tree of `n` nodes is `n` rows; a node is named
/// by its position in [`RouteTree::order`].
#[derive(Debug)]
struct RouteTree {
    /// Nodes in BFS order from the source (position 0).
    order: Vec<NodeId>,
    /// Position of each node's parent ([`NO_POS`] for the source).
    parent: Vec<u32>,
    /// Position of each node's child per direction ([`NO_POS`] = none).
    child: Vec<[u32; Direction::ALL.len()]>,
    delivers: Vec<bool>,
    /// Position of each destination, in request order.
    destinations: Vec<u32>,
    /// The first destination (in request order) with the longest route.
    deepest: usize,
    /// Scheduled hops on that route (its links plus the reception port).
    max_depth: u32,
}

impl RouteTree {
    fn build_from_routes(
        topo: &Topology,
        request: &ChannelRequest,
        routes: &[Vec<Direction>],
    ) -> Result<RouteTree, AdmissionError> {
        if routes.len() != request.destinations.len() {
            return Err(AdmissionError::InvalidRoute {
                reason: "one route per destination required",
            });
        }
        let mut tree = RouteTree {
            order: vec![request.source],
            parent: vec![NO_POS],
            child: vec![[NO_POS; Direction::ALL.len()]],
            delivers: vec![false],
            destinations: Vec::with_capacity(routes.len()),
            deepest: 0,
            max_depth: 0,
        };
        // One bit per node index, grown to the highest index in the tree:
        // whether the node already has a position.
        let mut in_tree: Vec<u64> = Vec::new();
        let mut enter = |node: NodeId| {
            let (word, bit) = (node.index() / 64, 1u64 << (node.index() % 64));
            if in_tree.len() <= word {
                in_tree.resize(word + 1, 0);
            }
            let fresh = in_tree[word] & bit == 0;
            in_tree[word] |= bit;
            fresh
        };
        enter(request.source);
        for (i, (&dst, route)) in request.destinations.iter().zip(routes).enumerate() {
            let nodes = topo.walk(request.source, route);
            if *nodes.last().expect("walk includes the source") != dst {
                return Err(AdmissionError::InvalidRoute {
                    reason: "route does not end at its destination",
                });
            }
            let mut here = 0usize;
            for (dir, &next) in route.iter().zip(&nodes[1..]) {
                let via = Port::Dir(*dir).index() - 1;
                if tree.child[here][via] == NO_POS {
                    if !enter(next) {
                        // `next` is already in the tree and not as this
                        // edge's end: it is the source, or two routes reach
                        // it from different parents, which the single
                        // outgoing-identifier-per-node scheme of §3.3
                        // cannot express.
                        return Err(AdmissionError::InvalidRoute {
                            reason: if next == request.source {
                                "route loops back through the source"
                            } else {
                                "routes must merge into a tree"
                            },
                        });
                    }
                    tree.child[here][via] = tree.order.len() as u32;
                    tree.order.push(next);
                    tree.parent.push(here as u32);
                    tree.child.push([NO_POS; Direction::ALL.len()]);
                    tree.delivers.push(false);
                }
                here = tree.child[here][via] as usize;
            }
            tree.delivers[here] = true;
            tree.destinations.push(here as u32);
            if route.len() as u32 + 1 > tree.max_depth {
                tree.max_depth = route.len() as u32 + 1;
                tree.deepest = i;
            }
        }
        Ok(tree)
    }

    fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The children of the node at `at`, by direction.
    fn children(&self, at: usize) -> impl Iterator<Item = (Direction, usize)> + '_ {
        Direction::ALL
            .into_iter()
            .zip(self.child[at])
            .filter(|&(_, child)| child != NO_POS)
            .map(|(dir, child)| (dir, child as usize))
    }

    fn parent(&self, at: usize) -> Option<usize> {
        Some(self.parent[at]).filter(|&p| p != NO_POS).map(|p| p as usize)
    }

    fn delivers(&self, at: usize) -> bool {
        self.delivers[at]
    }

    /// Positions of the destinations, in request order.
    fn destinations(&self) -> impl Iterator<Item = usize> + '_ {
        self.destinations.iter().map(|&at| at as usize)
    }

    /// Scheduled hops (nodes on the path, the destination's reception
    /// included) to the deepest destination.
    fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Positions on the path to the deepest destination, source first.
    fn deepest_path(&self) -> Vec<usize> {
        let mut path = vec![self.destinations[self.deepest] as usize];
        while let Some(p) = self.parent(path[path.len() - 1]) {
            path.push(p);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use rand::{rngs::StdRng, Rng, SeedableRng};

    use super::*;
    use crate::spec::TrafficSpec;

    /// A control plane that records commands without real routers.
    #[derive(Default)]
    struct MockPlane {
        commands: Vec<(NodeId, ControlCommand)>,
    }

    impl ControlPlane for MockPlane {
        fn apply(&mut self, node: NodeId, cmd: ControlCommand) -> Result<(), ControlError> {
            self.commands.push((node, cmd));
            Ok(())
        }
    }

    fn manager() -> ChannelManager {
        ChannelManager::new(&RouterConfig::default())
    }

    /// The identifier allocator as it was before the id books: hashed
    /// per-node sets, and a scan of the whole identifier space probing
    /// them per id per node. Kept as the reference every
    /// [`ChannelManager::pick_free_id`] call is compared with.
    #[derive(Debug, Default)]
    pub(super) struct ScanOracle {
        used_ids: HashMap<NodeId, HashSet<u16>>,
        released_gen: HashMap<NodeId, HashMap<u16, u64>>,
    }

    impl ScanOracle {
        pub(super) fn mark(&mut self, node: NodeId, id: u16) {
            self.used_ids.entry(node).or_default().insert(id);
        }

        pub(super) fn release(&mut self, node: NodeId, id: u16, stamp: u64) {
            if let Some(ids) = self.used_ids.get_mut(&node) {
                ids.remove(&id);
            }
            self.released_gen.entry(node).or_default().insert(id, stamp);
        }

        pub(super) fn is_used(&self, node: NodeId, id: u16) -> bool {
            self.used_ids.get(&node).is_some_and(|used| used.contains(&id))
        }

        pub(super) fn pick_free_id(
            &self,
            nodes: &[NodeId],
            conn_capacity: usize,
        ) -> Option<ConnectionId> {
            let mut best: Option<(u64, u16)> = None;
            for id in (0..conn_capacity).map(|id| id as u16) {
                if nodes.iter().any(|&n| self.is_used(n, id)) {
                    continue;
                }
                // The id's reuse recency is its *latest* release anywhere on
                // the candidate node set (zero = never released).
                let gen = nodes
                    .iter()
                    .map(|n| {
                        self.released_gen.get(n).and_then(|m| m.get(&id)).copied().unwrap_or(0)
                    })
                    .max()
                    .unwrap_or(0);
                if gen == 0 {
                    return Some(ConnectionId(id));
                }
                if best.is_none_or(|(bg, _)| gen < bg) {
                    best = Some((gen, id));
                }
            }
            best.map(|(_, id)| ConnectionId(id))
        }
    }

    #[test]
    fn unicast_establishment_programs_every_hop() {
        let topo = Topology::mesh(4, 4);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let request = ChannelRequest::unicast(
            topo.node_at(0, 0),
            topo.node_at(2, 1),
            TrafficSpec::periodic(16, 18),
            40,
        );
        let ch = mgr.establish(&topo, request, &mut plane).unwrap();
        // Route: +x +x +y = 3 links + reception = depth 4.
        assert_eq!(ch.depth, 4);
        assert_eq!(ch.hops.len(), 4);
        assert_eq!(plane.commands.len(), 4);
        // Per-node delays sum to the deadline along the path.
        let total: u32 = ch.hops.iter().map(|h| h.delay).sum();
        assert_eq!(total, 40);
        assert_eq!(ch.guaranteed_bound(), 40, "analytic bound = the path sum");
        // Destination hop delivers locally.
        let dst_hop = ch.hop_at(topo.node_at(2, 1)).unwrap();
        assert_eq!(dst_hop.out_mask, Port::Local.mask());
        // Intermediate hops forward on exactly one port.
        let mid = ch.hop_at(topo.node_at(1, 0)).unwrap();
        assert_eq!(mid.out_mask.count_ones(), 1);
    }

    #[test]
    fn connection_ids_chain_between_hops() {
        let topo = Topology::mesh(3, 1);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let ch = mgr
            .establish(
                &topo,
                ChannelRequest::unicast(
                    topo.node_at(0, 0),
                    topo.node_at(2, 0),
                    TrafficSpec::periodic(8, 18),
                    24,
                ),
                &mut plane,
            )
            .unwrap();
        for w in ch.hops.windows(2) {
            assert_eq!(w[0].out_conn, w[1].conn, "outgoing id must match downstream table");
        }
        assert_eq!(ch.ingress, ch.hops[0].conn);
    }

    #[test]
    fn multicast_tree_shares_prefix_and_fans_out() {
        let topo = Topology::mesh(4, 4);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let request = ChannelRequest {
            source: topo.node_at(0, 0),
            destinations: vec![topo.node_at(2, 0), topo.node_at(1, 2)],
            spec: TrafficSpec::periodic(16, 18),
            deadline: 60,
        };
        let ch = mgr.establish(&topo, request, &mut plane).unwrap();
        // Node (1,0) forwards to both +x (towards (2,0)) and +y (towards
        // (1,2)).
        let fork = ch.hop_at(topo.node_at(1, 0)).unwrap();
        assert_eq!(fork.out_mask.count_ones(), 2);
        // Both children see the same incoming id.
        let c1 = ch.hop_at(topo.node_at(2, 0)).unwrap();
        let c2 = ch.hop_at(topo.node_at(1, 1)).unwrap();
        assert_eq!(c1.conn, c2.conn);
        assert_eq!(fork.out_conn, c1.conn);
        // The analytic bound covers the deepest branch and never exceeds
        // the request.
        assert!(ch.guaranteed_bound() <= ch.request.deadline);
        let deep: u32 =
            [topo.node_at(0, 0), topo.node_at(1, 0), topo.node_at(1, 1), topo.node_at(1, 2)]
                .iter()
                .map(|n| ch.hop_at(*n).unwrap().delay)
                .sum();
        assert_eq!(ch.guaranteed_bound(), deep);
    }

    #[test]
    fn deadline_too_tight_is_rejected() {
        let topo = Topology::mesh(4, 1);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let err = mgr
            .establish(
                &topo,
                ChannelRequest::unicast(
                    topo.node_at(0, 0),
                    topo.node_at(3, 0),
                    TrafficSpec::periodic(8, 18),
                    3, // 4 scheduled hops cannot fit in 3 slots
                ),
                &mut plane,
            )
            .unwrap_err();
        assert!(matches!(err, EstablishError::Admission(AdmissionError::BadDelayBound { .. })));
        assert!(plane.commands.is_empty(), "failed admission must not program routers");
    }

    #[test]
    fn link_saturation_rejects_later_channels() {
        let topo = Topology::mesh(2, 1);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let spec = TrafficSpec::periodic(4, 18); // 1/4 of the link each
        let request = || ChannelRequest::unicast(topo.node_at(0, 0), topo.node_at(1, 0), spec, 8);
        mgr.establish(&topo, request(), &mut plane).unwrap();
        mgr.establish(&topo, request(), &mut plane).unwrap();
        // A third channel overloads the 4-slot deadline window (2 packets +
        // η = 2 fit, 3 do not).
        let err = mgr.establish(&topo, request(), &mut plane).unwrap_err();
        assert!(matches!(err, EstablishError::Admission(_)));
    }

    #[test]
    fn teardown_releases_capacity() {
        let topo = Topology::mesh(2, 1);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let spec = TrafficSpec::periodic(4, 18);
        let request = || ChannelRequest::unicast(topo.node_at(0, 0), topo.node_at(1, 0), spec, 8);
        let a = mgr.establish(&topo, request(), &mut plane).unwrap();
        let _b = mgr.establish(&topo, request(), &mut plane).unwrap();
        assert!(mgr.establish(&topo, request(), &mut plane).is_err());
        mgr.teardown(a.id, &mut plane).unwrap();
        assert!(mgr.establish(&topo, request(), &mut plane).is_ok());
        // Teardown issued ClearConnection commands.
        assert!(plane
            .commands
            .iter()
            .any(|(_, c)| matches!(c, ControlCommand::ClearConnection { .. })));
    }

    #[test]
    fn utilization_report_ranks_reserved_links() {
        let topo = Topology::mesh(3, 1);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        // Two channels share the first link; one continues further.
        mgr.establish(
            &topo,
            ChannelRequest::unicast(
                topo.node_at(0, 0),
                topo.node_at(1, 0),
                TrafficSpec::periodic(8, 18),
                16,
            ),
            &mut plane,
        )
        .unwrap();
        mgr.establish(
            &topo,
            ChannelRequest::unicast(
                topo.node_at(0, 0),
                topo.node_at(2, 0),
                TrafficSpec::periodic(16, 18),
                30,
            ),
            &mut plane,
        )
        .unwrap();
        let report = mgr.utilization_report();
        assert!(!report.is_empty());
        // Densest link first: node 0's +x carries 1/8 + 1/16.
        let hottest = report[0];
        assert_eq!(hottest.node, topo.node_at(0, 0));
        assert_eq!(hottest.connections, 2);
        assert!((hottest.utilization - 0.1875).abs() < 1e-9);
        assert!(hottest.headroom_slots > 0);
        // Utilisations are non-increasing down the report.
        for w in report.windows(2) {
            assert!(w[0].utilization >= w[1].utilization);
        }
    }

    #[test]
    fn source_equals_destination_schedules_reception_only() {
        let topo = Topology::mesh(2, 2);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let n = topo.node_at(1, 1);
        let ch = mgr
            .establish(
                &topo,
                ChannelRequest::unicast(n, n, TrafficSpec::periodic(8, 18), 8),
                &mut plane,
            )
            .unwrap();
        assert_eq!(ch.depth, 1);
        assert_eq!(ch.hops.len(), 1);
        assert_eq!(ch.hops[0].out_mask, Port::Local.mask());
    }

    #[test]
    fn explicit_routes_steer_around_a_dead_link() {
        let topo = Topology::mesh(3, 3);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let src = topo.node_at(0, 0);
        let dst = topo.node_at(2, 0);
        // Pretend the first +x link failed: route through row 1 instead.
        let detour = topo.route_avoiding(src, dst, &[(src, Direction::XPlus)]).unwrap();
        let request = ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 50);
        let ch = mgr
            .establish_routed(&topo, request, std::slice::from_ref(&detour), &mut plane)
            .unwrap();
        assert_eq!(ch.depth, detour.len() as u32 + 1);
        // The source hop leaves on the detour's first direction, not +x.
        let first = ch.hop_at(src).unwrap();
        assert_eq!(first.out_mask, Port::Dir(detour[0]).mask());
        assert_ne!(detour[0], Direction::XPlus);
    }

    #[test]
    fn reroute_replaces_the_path_in_one_call() {
        let topo = Topology::mesh(3, 3);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let src = topo.node_at(0, 0);
        let dst = topo.node_at(2, 0);
        let ch = mgr
            .establish(
                &topo,
                ChannelRequest::unicast(src, dst, TrafficSpec::periodic(16, 18), 60),
                &mut plane,
            )
            .unwrap();
        let old_id = ch.id;
        let rerouted = mgr.reroute(old_id, &topo, &[(src, Direction::XPlus)], &mut plane).unwrap();
        assert_ne!(rerouted.id, old_id);
        assert!(rerouted.depth > ch.depth, "the detour is longer");
        assert_ne!(rerouted.hop_at(src).unwrap().out_mask, Port::Dir(Direction::XPlus).mask());
        assert!(!mgr.channels().contains_key(&old_id));
        // Rerouting an unknown channel is an error.
        assert!(matches!(
            mgr.reroute(999, &topo, &[], &mut plane),
            Err(EstablishError::Admission(AdmissionError::NoRoute))
        ));
        // Disconnection keeps the teardown (documented) and reports.
        let topo2 = Topology::mesh(2, 1);
        let mut mgr2 = manager();
        let ch2 = mgr2
            .establish(
                &topo2,
                ChannelRequest::unicast(
                    topo2.node_at(0, 0),
                    topo2.node_at(1, 0),
                    TrafficSpec::periodic(16, 18),
                    16,
                ),
                &mut plane,
            )
            .unwrap();
        assert!(mgr2
            .reroute(ch2.id, &topo2, &[(topo2.node_at(0, 0), Direction::XPlus)], &mut plane)
            .is_err());
        // Disconnection is detected before teardown: the original stays.
        assert!(mgr2.channels().contains_key(&ch2.id));
    }

    #[test]
    fn non_tree_routes_are_rejected() {
        let topo = Topology::mesh(3, 3);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let src = topo.node_at(0, 0);
        // Two destinations whose explicit routes diverge and re-merge at
        // (1,1): not expressible with one outgoing id per node.
        let request = ChannelRequest {
            source: src,
            destinations: vec![topo.node_at(2, 1), topo.node_at(1, 2)],
            spec: TrafficSpec::periodic(16, 18),
            deadline: 60,
        };
        let routes = vec![
            vec![Direction::XPlus, Direction::YPlus, Direction::XPlus], // via (1,1)
            vec![Direction::YPlus, Direction::XPlus, Direction::YPlus], // via (1,1) again
        ];
        let err = mgr.establish_routed(&topo, request, &routes, &mut plane).unwrap_err();
        assert!(matches!(
            err,
            EstablishError::Admission(AdmissionError::InvalidRoute { reason })
                if reason.contains("tree")
        ));
        assert!(plane.commands.is_empty());
    }

    #[test]
    fn wrong_destination_route_rejected() {
        let topo = Topology::mesh(2, 2);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let request = ChannelRequest::unicast(
            topo.node_at(0, 0),
            topo.node_at(1, 1),
            TrafficSpec::periodic(16, 18),
            30,
        );
        let err = mgr
            .establish_routed(&topo, request, &[vec![Direction::XPlus]], &mut plane)
            .unwrap_err();
        assert!(matches!(
            err,
            EstablishError::Admission(AdmissionError::InvalidRoute { reason })
                if reason.contains("destination")
        ));
    }

    #[test]
    fn utilization_only_policy_admits_what_the_demand_test_rejects() {
        let topo = Topology::mesh(2, 1);
        let spec = TrafficSpec::periodic(100, 18);
        // Deadline 6 over 2 hops → d = 3: with η = 2, only one such
        // connection fits the 3-slot window under the demand criterion.
        let request = || ChannelRequest::unicast(topo.node_at(0, 0), topo.node_at(1, 0), spec, 6);
        let mut strict = manager();
        let mut plane = MockPlane::default();
        strict.establish(&topo, request(), &mut plane).unwrap();
        assert!(strict.establish(&topo, request(), &mut plane).is_err());

        let mut lax = manager();
        lax.set_policy(AdmissionPolicy::UtilizationOnly);
        let mut plane = MockPlane::default();
        lax.establish(&topo, request(), &mut plane).unwrap();
        lax.establish(&topo, request(), &mut plane).unwrap();
        lax.establish(&topo, request(), &mut plane).unwrap();
    }

    #[test]
    fn buffer_partitions_gate_establishment_per_link() {
        let topo = Topology::mesh(3, 1);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let mid = topo.node_at(1, 0);
        // Partition the middle node's +x link down to 1 buffer slot.
        mgr.set_buffer_partition(mid, Port::Dir(Direction::XPlus), Some(1));
        let request = |i_min| {
            ChannelRequest::unicast(
                topo.node_at(0, 0),
                topo.node_at(2, 0),
                TrafficSpec::periodic(i_min, 18),
                24,
            )
        };
        // A fast connection needs 2 buffers at the middle node (window
        // d_prev + d = 16 slots over I_min 8), exceeding the 1-slot
        // partition.
        let err = mgr.establish(&topo, request(8), &mut plane).unwrap_err();
        assert!(matches!(
            err,
            EstablishError::Admission(AdmissionError::BufferExceeded { node, .. }) if node == mid
        ));
        // A slower connection (1 buffer) still fits the partition.
        mgr.establish(&topo, request(32), &mut plane).unwrap();
    }

    #[test]
    fn torn_down_ids_go_to_the_back_of_the_reuse_queue() {
        let topo = Topology::mesh(2, 1);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let spec = TrafficSpec::periodic(64, 18);
        let request = || ChannelRequest::unicast(topo.node_at(0, 0), topo.node_at(1, 0), spec, 8);
        let a = mgr.establish(&topo, request(), &mut plane).unwrap();
        let b = mgr.establish(&topo, request(), &mut plane).unwrap();
        assert_eq!((a.ingress.0, b.ingress.0), (0, 1));
        mgr.teardown(a.id, &mut plane).unwrap();
        // Id 0 is free again, but it was just released: the next channel
        // takes the smallest never-released id instead.
        let c = mgr.establish(&topo, request(), &mut plane).unwrap();
        assert_eq!(c.ingress.0, 2, "a just-torn-down id must not be recycled immediately");
    }

    #[test]
    fn exhausted_id_space_recycles_least_recently_released_first() {
        let topo = Topology::mesh(2, 1);
        let mut mgr =
            ChannelManager::new(&RouterConfig { connections: 3, ..RouterConfig::default() });
        let mut plane = MockPlane::default();
        let spec = TrafficSpec::periodic(64, 18);
        let request = || ChannelRequest::unicast(topo.node_at(0, 0), topo.node_at(1, 0), spec, 16);
        let ids: Vec<_> =
            (0..3).map(|_| mgr.establish(&topo, request(), &mut plane).unwrap()).collect();
        // Release in the order 1, 0, 2: with no never-released id left, the
        // oldest release (id 1) is recycled first, then 0, then 2.
        mgr.teardown(ids[1].id, &mut plane).unwrap();
        mgr.teardown(ids[0].id, &mut plane).unwrap();
        mgr.teardown(ids[2].id, &mut plane).unwrap();
        let order: Vec<u16> = (0..3)
            .map(|_| mgr.establish(&topo, request(), &mut plane).unwrap().ingress.0)
            .collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn reroute_keeps_the_ingress_id_despite_generation_ordering() {
        let topo = Topology::mesh(3, 3);
        let mut mgr = manager();
        let mut plane = MockPlane::default();
        let src = topo.node_at(0, 0);
        let ch = mgr
            .establish(
                &topo,
                ChannelRequest::unicast(src, topo.node_at(2, 0), TrafficSpec::periodic(16, 18), 60),
                &mut plane,
            )
            .unwrap();
        let old_ingress = ch.ingress;
        let rerouted = mgr.reroute(ch.id, &topo, &[(src, Direction::XPlus)], &mut plane).unwrap();
        assert_eq!(
            rerouted.ingress, old_ingress,
            "reroute must prefer the old ingress id so stamped senders keep working"
        );
        // The preference is one-shot: an unrelated establishment afterwards
        // still follows generation order (fresh id, not the rerouted one).
        let other = mgr
            .establish(
                &topo,
                ChannelRequest::unicast(src, topo.node_at(0, 2), TrafficSpec::periodic(16, 18), 60),
                &mut plane,
            )
            .unwrap();
        assert_ne!(other.ingress, old_ingress);
    }

    #[test]
    fn buffer_exhaustion_rejected() {
        let topo = Topology::mesh(2, 1);
        let mut mgr =
            ChannelManager::new(&RouterConfig { packet_slots: 2, ..RouterConfig::default() });
        let mut plane = MockPlane::default();
        // Large burst allowance wants B_max extra buffers at the source.
        let spec = TrafficSpec { i_min: 16, s_max_bytes: 18, b_max: 8 };
        let err = mgr
            .establish(
                &topo,
                ChannelRequest::unicast(topo.node_at(0, 0), topo.node_at(1, 0), spec, 32),
                &mut plane,
            )
            .unwrap_err();
        assert!(matches!(err, EstablishError::Admission(AdmissionError::BufferExceeded { .. })));
    }

    #[test]
    fn the_identifier_space_is_usable_at_both_edges() {
        let topo = Topology::mesh(2, 1);
        let spec = TrafficSpec::periodic(64, 18);
        let request = || ChannelRequest::unicast(topo.node_at(0, 0), topo.node_at(1, 0), spec, 16);
        let mut plane = MockPlane::default();

        // One identifier: a second live channel cannot be named, and
        // teardown hands the one id back.
        let config = RouterConfig { connections: 1, ..RouterConfig::default() };
        config.validate().unwrap();
        let mut mgr = ChannelManager::new(&config);
        let only = mgr.establish(&topo, request(), &mut plane).unwrap();
        assert_eq!(only.hops.iter().map(|h| h.conn.0).collect::<Vec<_>>(), [0, 0]);
        assert_eq!(
            mgr.establish(&topo, request(), &mut plane).unwrap_err(),
            EstablishError::Admission(AdmissionError::NoFreeConnectionId {
                node: topo.node_at(0, 0)
            })
        );
        mgr.teardown(only.id, &mut plane).unwrap();
        assert_eq!(mgr.establish(&topo, request(), &mut plane).unwrap().ingress.0, 0);

        // The full 16-bit space (the largest `validate` accepts): the first
        // and the last identifier can both be taken and released.
        let config = RouterConfig { connections: 65_536, ..RouterConfig::default() };
        config.validate().unwrap();
        let mut mgr = ChannelManager::new(&config);
        let first = mgr.establish(&topo, request(), &mut plane).unwrap();
        assert_eq!(first.ingress.0, 0);
        mgr.prefer_ingress = Some(u16::MAX);
        let last = mgr.establish(&topo, request(), &mut plane).unwrap();
        assert_eq!((last.ingress.0, last.hops[1].conn.0), (u16::MAX, 1));
        // Taken means taken: the preference falls back to the scan.
        mgr.prefer_ingress = Some(u16::MAX);
        assert_eq!(mgr.establish(&topo, request(), &mut plane).unwrap().ingress.0, 1);
        mgr.teardown(first.id, &mut plane).unwrap();
        mgr.teardown(last.id, &mut plane).unwrap();
        assert_eq!(mgr.establish(&topo, request(), &mut plane).unwrap().ingress.0, 2);
    }

    #[test]
    fn a_refused_request_leaves_no_trace_in_the_books() {
        let topo = Topology::mesh(4, 4);
        let mut mgr =
            ChannelManager::new(&RouterConfig { connections: 2, ..RouterConfig::default() });
        let mut plane = MockPlane::default();
        let spec = TrafficSpec::periodic(4, 18);
        let (a, b) = (topo.node_at(0, 0), topo.node_at(1, 0));
        mgr.establish(&topo, ChannelRequest::unicast(a, b, spec, 8), &mut plane).unwrap();
        mgr.establish(&topo, ChannelRequest::unicast(a, b, spec, 8), &mut plane).unwrap();

        let every_link = |mgr: &ChannelManager| -> Vec<bool> {
            topo.nodes().flat_map(|n| Port::ALL.map(|p| mgr.link_book(n, p).is_some())).collect()
        };
        let before =
            (every_link(&mgr), mgr.utilization_report(), mgr.booked_nodes(), mgr.heap_bytes());
        let commands = plane.commands.len();
        assert_eq!(before.2, 2);

        let far = topo.node_at(3, 3);
        let link_full = AdmissionError::DeadlineInfeasible { interval: 4, demand: 5 };
        let refusals = [
            // The link test fails at the first hop; six fresh nodes follow.
            (ChannelRequest::unicast(a, far, spec, 56), link_full.clone()),
            // Five fresh nodes pass the link test; `b`'s reception is full.
            (ChannelRequest::unicast(far, b, spec, 24), link_full),
            // Links and buffers pass everywhere; the ids at `b` are spent.
            (
                ChannelRequest::unicast(far, b, TrafficSpec::periodic(4000, 18), 700),
                AdmissionError::NoFreeConnectionId { node: b },
            ),
            // The source's burst allowance exceeds a fresh node's memory.
            (
                ChannelRequest::unicast(
                    far,
                    topo.node_at(2, 3),
                    TrafficSpec { i_min: 64, s_max_bytes: 18, b_max: 100_000 },
                    128,
                ),
                AdmissionError::BufferExceeded { node: far, requested: 100_001, available: 256 },
            ),
        ];
        for (request, why) in refusals {
            let err = mgr.establish(&topo, request, &mut plane).unwrap_err();
            assert_eq!(err, EstablishError::Admission(why.clone()));
            let after =
                (every_link(&mgr), mgr.utilization_report(), mgr.booked_nodes(), mgr.heap_bytes());
            assert_eq!(before, after, "a request refused for {why:?} changed the books");
            assert_eq!(plane.commands.len(), commands);
        }
    }

    /// Prints the operation log if the test dies, because the vendored
    /// proptest cannot shrink a failing sequence.
    struct LogOnPanic(Vec<String>);

    impl Drop for LogOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("operations up to the failure:\n{}", self.0.join("\n"));
            }
        }
    }

    /// Random establish / multicast / teardown / reroute sequences over
    /// identifier spaces small enough to run dry and be recycled (and one
    /// that crosses a bitmap word): [`ChannelManager::pick_free_id`]
    /// asserts every pick against [`ScanOracle`].
    #[test]
    fn id_books_pick_what_the_reference_scan_picks() {
        let topo = Topology::mesh(4, 3);
        let (mut exhausted, mut recycled, mut forked, mut rerouted) = (0, 0, 0, 0);
        for seed in 0..24u64 {
            let connections = [3, 6, 70][seed as usize % 3];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mgr =
                ChannelManager::new(&RouterConfig { connections, ..RouterConfig::default() });
            let mut plane = MockPlane::default();
            let mut live: Vec<EstablishedChannel> = Vec::new();
            let mut released: HashSet<(NodeId, ConnectionId)> = HashSet::new();
            let mut log = LogOnPanic(vec![format!("seed {seed}, {connections} connections")]);
            for _ in 0..400 {
                let node = |rng: &mut StdRng| NodeId(rng.gen_range(0..topo.len() as u16));
                let outcome = match rng.gen_range(0..10) {
                    0..=5 => {
                        let source = node(&mut rng);
                        let mut destinations = vec![node(&mut rng)];
                        if rng.gen_range(0..3) == 0 {
                            destinations.push(node(&mut rng));
                        }
                        let request = ChannelRequest {
                            source,
                            destinations,
                            spec: TrafficSpec::periodic(2048, 18),
                            deadline: 600,
                        };
                        log.0.push(format!("establish {request:?}"));
                        mgr.establish(&topo, request, &mut plane)
                    }
                    6..=8 if !live.is_empty() => {
                        let gone = live.swap_remove(rng.gen_range(0..live.len()));
                        log.0.push(format!("teardown {} {:?}", gone.id, gone.hops));
                        mgr.teardown(gone.id, &mut plane).unwrap();
                        released.extend(gone.hops.iter().map(|h| (h.node, h.conn)));
                        continue;
                    }
                    _ if !live.is_empty() => {
                        let old = live.swap_remove(rng.gen_range(0..live.len()));
                        let dead: Vec<_> = rtr_types::ids::ports_in_mask(old.hops[0].out_mask)
                            .filter_map(Port::direction)
                            .take(1)
                            .map(|dir| (old.request.source, dir))
                            .collect();
                        log.0.push(format!("reroute {} around {dead:?}", old.id));
                        released.extend(old.hops.iter().map(|h| (h.node, h.conn)));
                        let new = mgr.reroute(old.id, &topo, &dead, &mut plane);
                        if let Ok(new) = &new {
                            assert_eq!(new.ingress, old.ingress, "reroute keeps the ingress id");
                            rerouted += 1;
                        }
                        new
                    }
                    _ => continue,
                };
                match outcome {
                    Ok(channel) => {
                        log.0.push(format!("  -> {} {:?}", channel.id, channel.hops));
                        recycled += channel
                            .hops
                            .iter()
                            .filter(|h| released.contains(&(h.node, h.conn)))
                            .count();
                        forked += channel
                            .hops
                            .iter()
                            .filter(|h| (h.out_mask & !Port::Local.mask()).count_ones() > 1)
                            .count();
                        live.push(channel);
                    }
                    Err(EstablishError::Admission(AdmissionError::NoFreeConnectionId {
                        ..
                    })) => {
                        log.0.push("  -> no free id".into());
                        exhausted += 1;
                    }
                    Err(e) => log.0.push(format!("  -> {e}")),
                }
            }
        }
        assert!(
            exhausted > 50 && recycled > 50 && forked > 50 && rerouted > 50,
            "the sequences must run ids dry ({exhausted}), recycle them ({recycled}), fork \
             ({forked}) and reroute ({rerouted})"
        );
    }
}
