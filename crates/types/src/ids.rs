//! Node, port, connection and traffic-class identifiers.

/// Identifies a processing node (router) in the network.
///
/// The mapping to mesh coordinates is owned by the topology
/// (`rtr_mesh::topology`); `NodeId` itself is a flat index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Flat index of the node.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A per-node connection identifier, indexing the router's connection table.
///
/// The paper's chip supports 256 connections per router (Table 4a), so the
/// identifier fits the one-byte field of the time-constrained packet header
/// (Figure 3a). Connection identifiers are *hop-local*: each router rewrites
/// the identifier to the value the next hop's table expects (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ConnectionId(pub u16);

impl ConnectionId {
    /// Flat index into the connection table.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A mesh link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Towards increasing x.
    XPlus,
    /// Towards decreasing x.
    XMinus,
    /// Towards increasing y.
    YPlus,
    /// Towards decreasing y.
    YMinus,
}

impl Direction {
    /// All four directions, in port-index order.
    pub const ALL: [Direction; 4] =
        [Direction::XPlus, Direction::XMinus, Direction::YPlus, Direction::YMinus];

    /// The direction a packet arrives *from* when sent in this direction.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::XPlus => Direction::XMinus,
            Direction::XMinus => Direction::XPlus,
            Direction::YPlus => Direction::YMinus,
            Direction::YMinus => Direction::YPlus,
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Direction::XPlus => "+x",
            Direction::XMinus => "-x",
            Direction::YPlus => "+y",
            Direction::YMinus => "-y",
        };
        f.write_str(s)
    }
}

/// One of the router's five port positions (Figure 2).
///
/// `Local` is the processor interface: on the input side it carries the
/// time-constrained and best-effort injection queues, on the output side the
/// shared reception port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// The processor interface (injection / reception).
    Local,
    /// A network link in the given direction.
    Dir(Direction),
}

/// Number of ports on each side of the router (1 local + 4 network).
pub const PORT_COUNT: usize = 5;

impl Port {
    /// All five ports in index order (`Local` first).
    pub const ALL: [Port; PORT_COUNT] = [
        Port::Local,
        Port::Dir(Direction::XPlus),
        Port::Dir(Direction::XMinus),
        Port::Dir(Direction::YPlus),
        Port::Dir(Direction::YMinus),
    ];

    /// Dense index in `0..PORT_COUNT`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Port::Local => 0,
            Port::Dir(Direction::XPlus) => 1,
            Port::Dir(Direction::XMinus) => 2,
            Port::Dir(Direction::YPlus) => 3,
            Port::Dir(Direction::YMinus) => 4,
        }
    }

    /// Inverse of [`Port::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= PORT_COUNT`.
    #[must_use]
    pub fn from_index(index: usize) -> Port {
        Port::ALL[index]
    }

    /// The network direction, if this is not the local port.
    #[must_use]
    pub fn direction(self) -> Option<Direction> {
        match self {
            Port::Local => None,
            Port::Dir(d) => Some(d),
        }
    }

    /// Single-bit mask with this port's bit set, for the connection table's
    /// output-port bit masks (Table 3) and the scheduler leaves (Figure 5).
    #[must_use]
    pub fn mask(self) -> u8 {
        1 << self.index()
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Port::Local => f.write_str("local"),
            Port::Dir(d) => write!(f, "{d}"),
        }
    }
}

/// Iterates the ports set in an output-port bit mask, in index order.
pub fn ports_in_mask(mask: u8) -> impl Iterator<Item = Port> {
    Port::ALL.into_iter().filter(move |p| mask & p.mask() != 0)
}

/// The two traffic classes the router mixes (§3, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Time-constrained traffic: fixed-size packets, packet switching,
    /// deadline-driven link scheduling.
    TimeConstrained,
    /// Best-effort traffic: variable-size packets, wormhole switching,
    /// round-robin arbitration.
    BestEffort,
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficClass::TimeConstrained => f.write_str("time-constrained"),
            TrafficClass::BestEffort => f.write_str("best-effort"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_index_round_trips() {
        for (i, p) in Port::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Port::from_index(i), p);
        }
    }

    #[test]
    fn direction_opposites_are_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn masks_are_disjoint_and_cover_five_bits() {
        let mut acc = 0u8;
        for p in Port::ALL {
            assert_eq!(acc & p.mask(), 0, "masks must be disjoint");
            acc |= p.mask();
        }
        assert_eq!(acc, 0b1_1111);
    }

    #[test]
    fn ports_in_mask_enumerates_set_bits() {
        let mask = Port::Local.mask() | Port::Dir(Direction::YMinus).mask();
        let ports: Vec<Port> = ports_in_mask(mask).collect();
        assert_eq!(ports, vec![Port::Local, Port::Dir(Direction::YMinus)]);
        assert_eq!(ports_in_mask(0).count(), 0);
        assert_eq!(ports_in_mask(0b1_1111).count(), 5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(ConnectionId(7).to_string(), "c7");
        assert_eq!(Port::Dir(Direction::XMinus).to_string(), "-x");
        assert_eq!(Port::Local.to_string(), "local");
        assert_eq!(TrafficClass::BestEffort.to_string(), "best-effort");
    }
}
