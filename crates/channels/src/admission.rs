//! Admission control: link schedulability and buffer reservation
//! (paper §2, §4.1; after Kandlur–Shin–Ferrari).
//!
//! The network admits a connection only if, at every link of its route, the
//! deadline-driven scheduler can still meet **all** local delay bounds, and
//! every node can reserve enough packet-memory slots.
//!
//! # Link test
//!
//! Because guarantees are based on *logical* arrival times (spaced `I_min`
//! even inside bursts), link demand is exactly periodic: connection `k`
//! contributes `c_k` packet slots every `P_k = I_min` slots, each due `d_k`
//! slots after its logical arrival. We use the EDF processor-demand
//! criterion with a blocking/overhead allowance `η`:
//!
//! ```text
//! ∀ L ∈ test points:   η + Σ_k c_k · (⌊(L − d_k)/P_k⌋ + 1) · [L ≥ d_k]  ≤  L
//! ```
//!
//! `η` (default 2 slots) covers the one-slot non-preemptive blocking of a
//! just-started packet plus the sub-slot pipeline latencies of the datapath.
//!
//! # Buffer test
//!
//! Node `j` may hold up to `⌈((h_{j−1} + d_{j−1}) + d_j)/I_min⌉` messages of
//! a connection simultaneously (§2); the source node additionally buffers
//! its burst allowance `B_max`.

use rtr_types::ids::{NodeId, PORT_COUNT};

use crate::spec::TrafficSpec;

/// Which schedulability test the admission controller runs on each link.
///
/// The demand criterion is the sound test the real-time channels model
/// requires; the utilisation-only test is the naive alternative — it
/// accepts any set below link capacity, which is *unsafe* for deadlines
/// tighter than the period (the `admission_policy` ablation demonstrates
/// the resulting misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdmissionPolicy {
    /// The EDF processor-demand criterion (sound). Default.
    #[default]
    DemandCriterion,
    /// Long-run utilisation ≤ 1 only (unsound for tight deadlines).
    UtilizationOnly,
}

/// One connection's reservation on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReservation {
    /// Packet slots per message.
    pub packets: u32,
    /// Message period `I_min` in slots.
    pub period: u32,
    /// Local delay bound `d_j` in slots.
    pub delay: u32,
}

/// Why admission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// Long-run utilisation would exceed the link.
    UtilizationExceeded {
        /// Utilisation ×1e6 after adding the connection.
        utilization_ppm: u64,
    },
    /// The demand test found an overloaded interval.
    DeadlineInfeasible {
        /// The interval length (slots) where demand exceeds supply.
        interval: u64,
        /// The demand (slots) in that interval.
        demand: u64,
    },
    /// A node cannot reserve the required packet buffers.
    BufferExceeded {
        /// The node that ran out.
        node: NodeId,
        /// Slots requested.
        requested: usize,
        /// Slots still available.
        available: usize,
    },
    /// The per-hop delay bound violates a structural constraint.
    BadDelayBound {
        /// Human-readable constraint violated.
        reason: &'static str,
    },
    /// No route exists (or the request was empty).
    NoRoute,
    /// An explicitly supplied route set is unusable.
    InvalidRoute {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// All connection identifiers at some node are in use.
    NoFreeConnectionId {
        /// The saturated node.
        node: NodeId,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::UtilizationExceeded { utilization_ppm } => {
                write!(f, "link utilisation would reach {} ppm", utilization_ppm)
            }
            AdmissionError::DeadlineInfeasible { interval, demand } => {
                write!(f, "demand {demand} exceeds interval {interval}")
            }
            AdmissionError::BufferExceeded { node, requested, available } => {
                write!(f, "node {node} cannot reserve {requested} buffers ({available} free)")
            }
            AdmissionError::BadDelayBound { reason } => write!(f, "bad delay bound: {reason}"),
            AdmissionError::NoRoute => write!(f, "no route to destination"),
            AdmissionError::InvalidRoute { reason } => write!(f, "invalid route: {reason}"),
            AdmissionError::NoFreeConnectionId { node } => {
                write!(f, "node {node} has no free connection identifier")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Schedulability bookkeeping for one outgoing link (or the reception
/// port — it is scheduled like a link).
#[derive(Debug, Clone, Default)]
pub struct LinkBook {
    reservations: Vec<LinkReservation>,
}

impl LinkBook {
    /// Creates an empty book.
    #[must_use]
    pub const fn new() -> Self {
        LinkBook { reservations: Vec::new() }
    }

    /// Heap bytes behind the reservation list (allocated capacity).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.reservations.capacity() * std::mem::size_of::<LinkReservation>()
    }

    /// Currently admitted reservations.
    #[must_use]
    pub fn reservations(&self) -> &[LinkReservation] {
        &self.reservations
    }

    /// Long-run utilisation (packet slots per slot) including `extra`.
    #[must_use]
    pub fn utilization_with(&self, extra: Option<LinkReservation>) -> f64 {
        utilization(&self.reservations, extra.as_ref())
    }

    /// Tests `candidate` under the chosen policy.
    ///
    /// # Errors
    ///
    /// See [`AdmissionError`].
    pub fn admissible_with(
        &self,
        candidate: LinkReservation,
        eta: u32,
        policy: AdmissionPolicy,
    ) -> Result<(), AdmissionError> {
        match policy {
            AdmissionPolicy::DemandCriterion => self.admissible(candidate, eta),
            AdmissionPolicy::UtilizationOnly => {
                if candidate.period == 0 || candidate.packets == 0 {
                    return Err(AdmissionError::BadDelayBound {
                        reason: "zero period or message size",
                    });
                }
                let u = self.utilization_with(Some(candidate));
                if u > 1.0 {
                    return Err(AdmissionError::UtilizationExceeded {
                        utilization_ppm: (u * 1e6) as u64,
                    });
                }
                Ok(())
            }
        }
    }

    /// Tests whether adding `candidate` keeps every delay bound feasible.
    ///
    /// `eta` is the blocking/overhead allowance in slots.
    ///
    /// # Errors
    ///
    /// See [`AdmissionError`].
    pub fn admissible(&self, candidate: LinkReservation, eta: u32) -> Result<(), AdmissionError> {
        demand_test(&self.reservations, candidate, eta)
    }

    /// The link's schedulability headroom: the largest overhead allowance
    /// `η` (slots) under which the current reservation set still passes
    /// the demand criterion. Protocol software can use this to decide how
    /// much horizon or how many more connections a link can take.
    #[must_use]
    pub fn headroom(&self) -> u32 {
        let Some((&last, rest)) = self.reservations.split_last() else {
            return u32::MAX;
        };
        // The demand test is monotone in η: binary search the threshold,
        // testing the last reservation against the rest.
        let probe = |eta: u32| demand_test(rest, last, eta).is_ok();
        if !probe(0) {
            return 0;
        }
        let (mut lo, mut hi) = (0u32, 1u32);
        while hi < 1 << 20 && probe(hi) {
            lo = hi;
            hi *= 2;
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if probe(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Commits a reservation (after [`Self::admissible`] succeeded).
    pub fn reserve(&mut self, reservation: LinkReservation) {
        self.reservations.push(reservation);
    }

    /// Releases one reservation equal to `reservation` (teardown).
    ///
    /// Returns whether a matching reservation existed.
    pub fn release(&mut self, reservation: LinkReservation) -> bool {
        if let Some(pos) = self.reservations.iter().position(|r| *r == reservation) {
            self.reservations.swap_remove(pos);
            true
        } else {
            false
        }
    }
}

/// Long-run utilisation of `rest` and then `extra`, summed in that order.
fn utilization(rest: &[LinkReservation], extra: Option<&LinkReservation>) -> f64 {
    rest.iter().chain(extra).map(|r| f64::from(r.packets) / f64::from(r.period.max(1))).sum()
}

/// The demand criterion for `candidate` joining `rest`.
///
/// The test points `d_k + n·P_k ≤ L*` are walked in ascending order, one
/// cursor per reservation: a point adds the `c_k` of every cursor standing
/// on it, so the running sum is the demand there, and the walk stops at the
/// first point whose demand exceeds it.
fn demand_test(
    rest: &[LinkReservation],
    candidate: LinkReservation,
    eta: u32,
) -> Result<(), AdmissionError> {
    if candidate.period == 0 || candidate.packets == 0 {
        return Err(AdmissionError::BadDelayBound { reason: "zero period or message size" });
    }
    if candidate.delay > candidate.period {
        return Err(AdmissionError::BadDelayBound { reason: "d_j must not exceed I_min" });
    }
    if candidate.delay < candidate.packets {
        return Err(AdmissionError::BadDelayBound {
            reason: "d_j below the message transmission time",
        });
    }
    let all = || rest.iter().chain(std::iter::once(&candidate));

    let u = utilization(rest, Some(&candidate));
    if u > 1.0 {
        return Err(AdmissionError::UtilizationExceeded { utilization_ppm: (u * 1e6) as u64 });
    }

    // Busy-period bound for the demand criterion: for U < 1,
    // L* = (η + Σ c_k (1 − d_k/P_k)₊) / (1 − U); clamp for U ≈ 1.
    let slack_sum: f64 = all()
        .map(|r| f64::from(r.packets) * (1.0 - f64::from(r.delay) / f64::from(r.period)).max(0.0))
        .sum();
    // Each reservation's cursor starts at its first deadline `d_k`.
    let mut cursors: Vec<u64> = all().map(|r| u64::from(r.delay)).collect();
    let max_d = cursors.iter().copied().max().unwrap_or(0);
    let l_star = if u < 0.999_999 {
        (((f64::from(eta) + slack_sum) / (1.0 - u)).ceil() as u64).max(max_d)
    } else {
        65_536
    }
    .min(1 << 20);

    let mut demand = u64::from(eta);
    let mut l = cursors.iter().copied().min().unwrap_or(u64::MAX);
    while l <= l_star {
        let mut next = u64::MAX;
        for (at, r) in cursors.iter_mut().zip(all()) {
            if *at == l {
                demand += u64::from(r.packets);
                *at += u64::from(r.period);
            }
            next = next.min(*at);
        }
        if demand > l {
            return Err(AdmissionError::DeadlineInfeasible { interval: l, demand });
        }
        l = next;
    }
    Ok(())
}

/// Packet-buffer bookkeeping for one node's shared memory, with the §3.4
/// optional *logical partitioning* by outgoing link: "the connection
/// establishment procedure can logically partition the memory by limiting
/// the number of packet buffers dedicated to connections on each outgoing
/// link; otherwise, one link could reserve the bulk of the memory slots".
#[derive(Debug, Clone)]
pub struct BufferBook {
    capacity: usize,
    reserved: usize,
    port_caps: [Option<usize>; PORT_COUNT],
    port_reserved: [usize; PORT_COUNT],
}

impl BufferBook {
    /// A book over a memory of `capacity` packet slots, fully shared.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BufferBook {
            capacity,
            reserved: 0,
            port_caps: [None; PORT_COUNT],
            port_reserved: [0; PORT_COUNT],
        }
    }

    /// Caps the slots reservable by connections on one outgoing port
    /// (`None` restores full sharing).
    pub fn set_partition(&mut self, port_index: usize, cap: Option<usize>) {
        self.port_caps[port_index] = cap;
    }

    /// Slots still unreserved overall.
    #[must_use]
    pub fn available(&self) -> usize {
        self.capacity - self.reserved
    }

    /// Slots still reservable through a given outgoing port.
    #[must_use]
    pub fn available_for(&self, port_index: usize) -> usize {
        let by_cap = self.port_caps[port_index]
            .map_or(usize::MAX, |cap| cap.saturating_sub(self.port_reserved[port_index]));
        self.available().min(by_cap)
    }

    /// Slots a connection leaving on the ports in `out_mask` can still
    /// reserve: the tightest of those ports' partitions and the memory.
    #[must_use]
    pub fn available_through(&self, out_mask: u8) -> usize {
        rtr_types::ids::ports_in_mask(out_mask)
            .map(|p| self.available_for(p.index()))
            .min()
            .unwrap_or_else(|| self.available())
    }

    /// Slots reserved so far.
    #[must_use]
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Attempts to reserve `slots` at `node` for a connection leaving on
    /// the ports in `out_mask` (multicast charges every masked port's
    /// partition).
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::BufferExceeded`] if the memory — or any
    /// masked port's partition — is over-committed.
    pub fn reserve(
        &mut self,
        node: NodeId,
        slots: usize,
        out_mask: u8,
    ) -> Result<(), AdmissionError> {
        let tightest = self.available_through(out_mask);
        if slots > tightest {
            return Err(AdmissionError::BufferExceeded {
                node,
                requested: slots,
                available: tightest,
            });
        }
        self.reserved += slots;
        for p in rtr_types::ids::ports_in_mask(out_mask) {
            self.port_reserved[p.index()] += slots;
        }
        Ok(())
    }

    /// Releases `slots` (teardown).
    ///
    /// # Panics
    ///
    /// Panics if more slots are released than were reserved.
    pub fn release(&mut self, slots: usize, out_mask: u8) {
        assert!(slots <= self.reserved, "releasing more buffers than reserved");
        self.reserved -= slots;
        for p in rtr_types::ids::ports_in_mask(out_mask) {
            let r = &mut self.port_reserved[p.index()];
            assert!(slots <= *r, "releasing more than a port partition holds");
            *r -= slots;
        }
    }
}

/// The paper's per-node buffer requirement for one connection (§2):
/// `⌈((h_prev + d_prev) + d_j)/I_min⌉` messages of `packets` slots each,
/// plus the burst allowance at the source.
#[must_use]
pub fn buffers_needed(
    spec: &TrafficSpec,
    packets_per_message: u32,
    h_prev: u32,
    d_prev: u32,
    d_here: u32,
    is_source: bool,
) -> usize {
    let window = h_prev + d_prev + d_here;
    let messages =
        window.div_ceil(spec.i_min.max(1)).max(1) + if is_source { spec.b_max } else { 0 };
    messages as usize * packets_per_message as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn res(packets: u32, period: u32, delay: u32) -> LinkReservation {
        LinkReservation { packets, period, delay }
    }

    #[test]
    fn figure7_connections_are_admissible() {
        let mut book = LinkBook::new();
        for r in [res(1, 8, 4), res(1, 16, 8), res(1, 32, 16)] {
            book.admissible(r, 2).unwrap();
            book.reserve(r);
        }
        assert!((book.utilization_with(None) - 0.21875).abs() < 1e-12);
    }

    #[test]
    fn utilization_overflow_rejected() {
        let mut book = LinkBook::new();
        let r = res(1, 2, 2);
        book.admissible(r, 0).unwrap();
        book.reserve(r);
        book.reserve(r);
        // A third 1/2-utilisation connection exceeds capacity.
        assert!(matches!(book.admissible(r, 0), Err(AdmissionError::UtilizationExceeded { .. })));
    }

    #[test]
    fn tight_deadlines_can_fail_even_at_low_utilization() {
        let mut book = LinkBook::new();
        // Two connections each demanding a packet due within 3 slots of
        // every 100-slot period: utilisation is tiny but the shared
        // 3-slot window cannot hold both packets plus the η = 2 overhead.
        let r = res(1, 100, 3);
        book.admissible(r, 2).unwrap();
        book.reserve(r);
        assert!(matches!(book.admissible(r, 2), Err(AdmissionError::DeadlineInfeasible { .. })));
    }

    #[test]
    fn structural_constraints_enforced() {
        let book = LinkBook::new();
        assert!(matches!(
            book.admissible(res(1, 8, 9), 0),
            Err(AdmissionError::BadDelayBound { reason }) if reason.contains("I_min")
        ));
        assert!(matches!(
            book.admissible(res(3, 8, 2), 0),
            Err(AdmissionError::BadDelayBound { reason }) if reason.contains("transmission")
        ));
        assert!(book.admissible(res(0, 8, 4), 0).is_err());
    }

    #[test]
    fn headroom_shrinks_as_reservations_tighten() {
        let mut book = LinkBook::new();
        assert_eq!(book.headroom(), u32::MAX, "empty link has unlimited headroom");
        book.reserve(res(1, 32, 16));
        let loose = book.headroom();
        assert!(loose >= 10, "single loose connection leaves headroom {loose}");
        book.reserve(res(1, 32, 4));
        let tight = book.headroom();
        assert!(tight < loose, "tighter deadlines must shrink headroom");
        // Headroom is exactly the largest admissible η.
        let mut probe = LinkBook::new();
        probe.reserve(res(1, 32, 16));
        assert!(probe.admissible(res(1, 32, 4), tight).is_ok());
        assert!(probe.admissible(res(1, 32, 4), tight + 1).is_err());
    }

    #[test]
    fn release_undoes_reserve() {
        let mut book = LinkBook::new();
        let r = res(1, 4, 4);
        book.reserve(r);
        assert!(book.release(r));
        assert!(!book.release(r), "double release detected");
        assert_eq!(book.reservations().len(), 0);
    }

    #[test]
    fn buffer_book_reserve_release() {
        let mut b = BufferBook::new(10);
        b.reserve(NodeId(0), 6, 0b00010).unwrap();
        assert_eq!(b.available(), 4);
        let err = b.reserve(NodeId(0), 5, 0b00010).unwrap_err();
        assert!(matches!(err, AdmissionError::BufferExceeded { available: 4, .. }));
        b.release(6, 0b00010);
        assert_eq!(b.available(), 10);
    }

    #[test]
    fn buffer_partitions_limit_one_link_without_hurting_others() {
        let mut b = BufferBook::new(16);
        b.set_partition(1, Some(4)); // +x may hold at most 4 slots
        b.reserve(NodeId(0), 4, 0b00010).unwrap();
        // The +x partition is exhausted even though 12 slots remain.
        let err = b.reserve(NodeId(0), 1, 0b00010).unwrap_err();
        assert!(matches!(err, AdmissionError::BufferExceeded { available: 0, .. }));
        // Another port still sees the shared pool.
        assert_eq!(b.available_for(2), 12);
        b.reserve(NodeId(0), 12, 0b00100).unwrap();
        assert_eq!(b.available(), 0);
        b.release(4, 0b00010);
        assert_eq!(b.available_for(1), 4);
    }

    #[test]
    fn multicast_reservations_charge_every_masked_partition() {
        let mut b = BufferBook::new(16);
        b.set_partition(1, Some(3));
        b.set_partition(2, Some(8));
        b.reserve(NodeId(0), 3, 0b00110).unwrap();
        assert_eq!(b.available_for(1), 0);
        assert_eq!(b.available_for(2), 5);
        assert_eq!(b.reserved(), 3, "the shared pool is charged once");
    }

    #[test]
    fn utilization_only_policy_skips_the_demand_test() {
        let mut book = LinkBook::new();
        // Two packets due within 3 slots: the demand criterion rejects the
        // second, the utilisation-only policy happily admits it.
        let r = res(1, 100, 3);
        book.admissible_with(r, 2, AdmissionPolicy::DemandCriterion).unwrap();
        book.reserve(r);
        assert!(book.admissible_with(r, 2, AdmissionPolicy::DemandCriterion).is_err());
        assert!(book.admissible_with(r, 2, AdmissionPolicy::UtilizationOnly).is_ok());
        // Both policies still reject utilisation overload.
        let heavy = res(1, 1, 1);
        assert!(matches!(
            book.admissible_with(heavy, 0, AdmissionPolicy::UtilizationOnly),
            Err(AdmissionError::UtilizationExceeded { .. })
        ));
    }

    #[test]
    fn buffer_formula_matches_paper() {
        let spec = TrafficSpec { i_min: 8, s_max_bytes: 18, b_max: 2 };
        // (h_prev + d_prev + d_here)/I_min = (4 + 8 + 12)/8 = 3 messages.
        assert_eq!(buffers_needed(&spec, 1, 4, 8, 12, false), 3);
        // Source adds B_max messages.
        assert_eq!(buffers_needed(&spec, 1, 0, 0, 12, true), 2 + 2);
        // Two packets per message doubles the slots.
        assert_eq!(buffers_needed(&spec, 2, 4, 8, 12, false), 6);
    }

    /// Discrete-time EDF simulation used to validate the demand test.
    fn edf_meets_all_deadlines(rs: &[LinkReservation], horizon: u64, eta: u32) -> bool {
        // Jobs: (deadline, remaining). Release c_k packets every P_k with
        // deadline release + d_k. Simulate unit-speed EDF; η models a
        // worst-case initial blocking.
        #[derive(Clone, Copy)]
        struct Job {
            deadline: u64,
            remaining: u32,
        }
        let mut jobs: Vec<Job> = Vec::new();
        let mut blocked = u64::from(eta);
        for t in 0..horizon {
            for r in rs {
                if t % u64::from(r.period) == 0 {
                    jobs.push(Job { deadline: t + u64::from(r.delay), remaining: r.packets });
                }
            }
            if blocked > 0 {
                blocked -= 1;
            } else if let Some(i) = (0..jobs.len()).min_by_key(|&i| jobs[i].deadline) {
                jobs[i].remaining -= 1;
                if jobs[i].remaining == 0 {
                    jobs.swap_remove(i);
                }
            }
            if jobs.iter().any(|j| j.deadline <= t) {
                return false;
            }
        }
        true
    }

    /// The demand test as it was before the cursor walk: every test point
    /// collected, sorted and deduplicated, and the demand recomputed from
    /// scratch at each one. The reference the walk is compared with.
    fn sorted_scan(
        book: &LinkBook,
        candidate: LinkReservation,
        eta: u32,
    ) -> Result<(), AdmissionError> {
        if candidate.period == 0 || candidate.packets == 0 {
            return Err(AdmissionError::BadDelayBound { reason: "zero period or message size" });
        }
        if candidate.delay > candidate.period {
            return Err(AdmissionError::BadDelayBound { reason: "d_j must not exceed I_min" });
        }
        if candidate.delay < candidate.packets {
            return Err(AdmissionError::BadDelayBound {
                reason: "d_j below the message transmission time",
            });
        }
        let all: Vec<LinkReservation> =
            book.reservations.iter().copied().chain(std::iter::once(candidate)).collect();

        let u: f64 = all.iter().map(|r| f64::from(r.packets) / f64::from(r.period.max(1))).sum();
        if u > 1.0 {
            return Err(AdmissionError::UtilizationExceeded { utilization_ppm: (u * 1e6) as u64 });
        }
        let slack_sum: f64 = all
            .iter()
            .map(|r| {
                f64::from(r.packets) * (1.0 - f64::from(r.delay) / f64::from(r.period)).max(0.0)
            })
            .sum();
        let max_d = all.iter().map(|r| u64::from(r.delay)).max().unwrap_or(0);
        let l_star = if u < 0.999_999 {
            (((f64::from(eta) + slack_sum) / (1.0 - u)).ceil() as u64).max(max_d)
        } else {
            65_536
        }
        .min(1 << 20);

        let mut points: Vec<u64> = Vec::new();
        for r in &all {
            let mut l = u64::from(r.delay);
            while l <= l_star {
                points.push(l);
                l += u64::from(r.period);
            }
        }
        points.sort_unstable();
        points.dedup();

        for l in points {
            let mut demand = u64::from(eta);
            for r in &all {
                let d = u64::from(r.delay);
                if l >= d {
                    demand += u64::from(r.packets) * ((l - d) / u64::from(r.period) + 1);
                }
            }
            if demand > l {
                return Err(AdmissionError::DeadlineInfeasible { interval: l, demand });
            }
        }
        Ok(())
    }

    /// [`LinkBook::headroom`] as it was: a binary search probing
    /// [`sorted_scan`] with the last reservation against a clone of the rest.
    fn sorted_scan_headroom(book: &LinkBook) -> u32 {
        if book.reservations.is_empty() {
            return u32::MAX;
        }
        let probe = |eta: u32| {
            let mut rest = LinkBook { reservations: book.reservations.clone() };
            let last = rest.reservations.pop().expect("non-empty");
            sorted_scan(&rest, last, eta).is_ok()
        };
        if !probe(0) {
            return 0;
        }
        let (mut lo, mut hi) = (0u32, 1u32);
        while hi < 1 << 20 && probe(hi) {
            lo = hi;
            hi *= 2;
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if probe(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Splits `total` packets over one reservation per weight, each at
    /// least one packet.
    fn split(total: u32, weights: &[u32]) -> Vec<u32> {
        let (n, sum) = (weights.len() as u32, weights.iter().sum::<u32>());
        let mut packets: Vec<u32> = weights.iter().map(|w| 1 + (total - n) * w / sum).collect();
        let given: u32 = packets.iter().sum();
        *packets.last_mut().expect("at least one reservation") += total - given;
        packets
    }

    /// A reservation set with its candidate last, and the `η` to test it
    /// at, in one of three shapes:
    /// - 0, free-form: periods 1–4 096 spread over every octave, and a
    ///   candidate that may break a structural rule;
    /// - 1, `U = 1` exactly (the `L* = 65 536` branch): one power-of-two
    ///   period shared by every reservation, its packets split among them;
    /// - 2, `U = 4 095/4 096` with `L*` far past the 2^20 clamp: period
    ///   4 096 shared the same way.
    ///
    /// Half the sets of shapes 1 and 2 take the staircase deadlines
    /// `d_k = η + c_1 + … + c_k` at `η ≤ 1`, which pass the whole walk to
    /// the bound (shape 1 at `η = 0` only); the rest draw `d_k` at random.
    fn link_set(shape: u32, raw: &[(u32, u32, u32)], eta: u32) -> (Vec<LinkReservation>, u32) {
        let weights: Vec<u32> = raw.iter().map(|&(_, w, _)| w).collect();
        let within = |c: u32, p: u32, d: u32| c + d % (p - c + 1);
        if shape == 0 {
            let set = raw
                .iter()
                .enumerate()
                .map(|(i, &(p, c, d))| {
                    let p = 1 + (p >> (p % 12));
                    let c = 1 + c % p.min(16);
                    res(c, p, if i + 1 == raw.len() { d % (p + 2) } else { within(c, p, d) })
                })
                .collect();
            return (set, eta);
        }
        let period = if shape == 1 { (raw.len() as u32).next_power_of_two() } else { 4096 };
        let staircase = raw[0].2.is_multiple_of(2);
        let eta = if staircase { eta % 2 } else { eta };
        let mut reached = eta;
        let set = split(period - u32::from(shape == 2), &weights)
            .into_iter()
            .zip(raw)
            .map(|(c, &(_, _, d))| {
                reached += c;
                res(c, period, if staircase { reached.min(period) } else { within(c, period, d) })
            })
            .collect();
        (set, eta)
    }

    /// Reservation sets (0–32 reserved plus a candidate) and an `η` in 0–8.
    fn link_sets() -> impl Strategy<Value = (Vec<LinkReservation>, u32)> {
        let raw = proptest::collection::vec((1u32..=4096, 1u32..=64, 0u32..=4096), 1..=33);
        (0u32..3, raw, 0u32..=8).prop_map(|(shape, raw, eta)| link_set(shape, &raw, eta))
    }

    fn book_of(reservations: &[LinkReservation]) -> LinkBook {
        LinkBook { reservations: reservations.to_vec() }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// The cursor walk decides what the sorted scan decided, with the
        /// same `DeadlineInfeasible { interval, demand }` and
        /// `UtilizationExceeded { utilization_ppm }` payloads, and the
        /// headroom searches built on the two agree.
        #[test]
        fn demand_walk_matches_the_sorted_scan(drawn in link_sets()) {
            let (set, eta) = drawn;
            let (&candidate, rest) = set.split_last().expect("a candidate");
            let book = book_of(rest);
            prop_assert_eq!(
                book.admissible(candidate, eta),
                sorted_scan(&book, candidate, eta),
                "{set:?} at eta {eta}"
            );
            let full = book_of(&set);
            prop_assert_eq!(full.headroom(), sorted_scan_headroom(&full), "{set:?}");
        }
    }

    /// The differential's generator reaches what it claims to: sets with
    /// `U = 1` and sets whose `L*` is clamped to 2^20, both accepted (so
    /// the walk runs to the bound), and refusals of every payload kind.
    #[test]
    fn the_differential_reaches_both_bounds_and_every_refusal() {
        let (mut saturated, mut clamped, mut infeasible, mut overloaded, mut malformed) =
            (0, 0, 0, 0, 0);
        for case in 0..192 {
            let (set, eta) =
                link_sets().generate(&mut proptest::test_runner::TestRng::for_case(case));
            let (&candidate, rest) = set.split_last().unwrap();
            let book = book_of(rest);
            let u = book.utilization_with(Some(candidate));
            let slack: f64 = set
                .iter()
                .map(|r| f64::from(r.packets) * (1.0 - f64::from(r.delay) / f64::from(r.period)))
                .sum();
            match book.admissible(candidate, eta) {
                Ok(()) if u == 1.0 => saturated += 1,
                Ok(()) if u < 0.999_999 && (f64::from(eta) + slack) / (1.0 - u) > 1_048_576.0 => {
                    clamped += 1;
                }
                Ok(()) => {}
                Err(AdmissionError::DeadlineInfeasible { .. }) => infeasible += 1,
                Err(AdmissionError::UtilizationExceeded { .. }) => overloaded += 1,
                Err(_) => malformed += 1,
            }
        }
        let counts = [saturated, clamped, infeasible, overloaded, malformed];
        assert!(
            counts.iter().all(|&n| n >= 8),
            "saturated, clamped, infeasible, overloaded, malformed: {counts:?}"
        );
    }

    proptest! {
        /// Soundness: whatever the demand test admits, a worst-case
        /// synchronous-release EDF simulation meets every deadline.
        #[test]
        fn admitted_sets_are_schedulable(
            candidates in proptest::collection::vec(
                (1u32..3, 4u32..40, 0u32..40).prop_map(|(c, p, extra)| {
                    let d = (c + extra % p).min(p);
                    res(c, p, d.max(c))
                }),
                1..6,
            )
        ) {
            let eta = 2;
            let mut book = LinkBook::new();
            let mut admitted = Vec::new();
            for r in candidates {
                if book.admissible(r, eta).is_ok() {
                    book.reserve(r);
                    admitted.push(r);
                }
            }
            if !admitted.is_empty() {
                let horizon = admitted.iter().map(|r| u64::from(r.period)).product::<u64>().min(4096)
                    + admitted.iter().map(|r| u64::from(r.delay)).max().unwrap();
                prop_assert!(
                    edf_meets_all_deadlines(&admitted, horizon, eta),
                    "admitted set missed a deadline: {admitted:?}"
                );
            }
        }
    }
}
