//! Packet sorting keys (paper §4.2, Figure 4).
//!
//! The base of the comparator tree computes, for every buffered
//! time-constrained packet, a small unsigned key normalised to the current
//! time `t` so the rest of the tree performs plain unsigned comparisons even
//! across clock rollover:
//!
//! ```text
//! on-time:    0 | 0 | (ℓ(m) + d) - t      (laxity: time to local deadline)
//! early:      0 | 1 | ℓ(m) - t            (time until eligibility)
//! ineligible: 1 | ...                     (empty leaf / wrong port)
//! ```
//!
//! With the paper's 8-bit clock the time field is 7 bits (differences are
//! bounded by half the clock range) and the whole key is 9 bits (Table 4a).

use crate::clock::{LogicalTime, SlotClock};

/// How the key computation treats an on-time packet whose deadline has
/// already passed.
///
/// The paper's admission control guarantees this cannot happen for admitted
/// traffic (§2), so the hardware does not special-case it; raw modulo
/// arithmetic would *alias* a late packet to a large key and starve it. The
/// simulator supports both behaviours so baseline/overload experiments remain
/// meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatePolicy {
    /// Late packets saturate to laxity zero (most urgent). Default.
    #[default]
    Saturate,
    /// Faithful raw-hardware behaviour: the aliased (truncated) key is used.
    /// Callers can count occurrences via [`SortKey::is_aliased`].
    Wrap,
}

/// A normalised packet sorting key; smaller is more urgent.
///
/// Keys order: all on-time packets by laxity, then all early packets by
/// time-to-eligibility, then ineligible leaves. Comparison looks only at the
/// normalised value, exactly like the unsigned comparators of Figure 5.
///
/// One 32-bit word, like a comparator input: the value in the low 31 bits
/// (a clock is at most 30 bits wide, so the largest value — the ineligible
/// sentinel, the clock's range — fits) and the alias flag in the top bit.
/// Where the early and ineligible bits sit depends on the clock, which a
/// key does not carry: the class predicates take it. A plain word, with no
/// spare values for an enclosing `Option` to hide its tag in, is also what
/// keeps a cached `Option<Selection>` from being copied piecemeal
/// (DESIGN.md §3.13(b)).
#[derive(Debug, Clone, Copy)]
pub struct SortKey(u32);

/// The alias flag's bit in the key word.
const ALIASED: u32 = 1 << 31;

impl PartialEq for SortKey {
    fn eq(&self, other: &Self) -> bool {
        self.value() == other.value()
    }
}

impl Eq for SortKey {}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.value().cmp(&other.value())
    }
}

impl std::hash::Hash for SortKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.value().hash(state);
    }
}

impl SortKey {
    /// Computes the key for a packet with logical arrival time `l` and local
    /// delay bound `d` (slots) at current time `t` (Figure 4).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not below half the clock range — admission control
    /// must reject such connections (§4.3).
    #[must_use]
    pub fn compute(
        clock: &SlotClock,
        l: LogicalTime,
        d: u32,
        t: LogicalTime,
        late_policy: LatePolicy,
    ) -> SortKey {
        assert!(
            d < clock.half_range(),
            "local delay bound {d} must be below half the clock range {}",
            clock.half_range()
        );
        let half = clock.half_range();
        let field_mask = half - 1;
        if clock.is_early(l, t) {
            // Early: time remaining until the logical arrival instant. The
            // admission bound h + d < half keeps this inside the field; clamp
            // defensively for unvalidated traffic.
            let delta = clock.until(l, t);
            debug_assert!(delta >= 1);
            let field = delta.min(field_mask);
            SortKey(half | field | if delta > field_mask { ALIASED } else { 0 })
        } else {
            let deadline = clock.add(l, d);
            if clock.has_passed(deadline, t) {
                match late_policy {
                    LatePolicy::Saturate => SortKey(ALIASED),
                    LatePolicy::Wrap => SortKey(clock.diff(deadline, t) & field_mask | ALIASED),
                }
            } else {
                SortKey(clock.until(deadline, t))
            }
        }
    }

    /// The key of an ineligible leaf: larger than every packet key.
    #[must_use]
    pub fn ineligible(clock: &SlotClock) -> SortKey {
        SortKey(clock.range())
    }

    /// Raw unsigned key value (what the comparator hardware compares).
    #[must_use]
    pub fn value(self) -> u32 {
        self.0 & !ALIASED
    }

    /// Whether this key encodes an on-time packet on `clock`.
    #[must_use]
    pub fn is_on_time(self, clock: &SlotClock) -> bool {
        self.value() < clock.half_range()
    }

    /// Whether this key encodes an early packet on `clock`.
    #[must_use]
    pub fn is_early(self, clock: &SlotClock) -> bool {
        (clock.half_range()..clock.range()).contains(&self.value())
    }

    /// Whether this is `clock`'s ineligible sentinel.
    #[must_use]
    pub fn is_ineligible(self, clock: &SlotClock) -> bool {
        self.value() >= clock.range()
    }

    /// Whether modulo arithmetic aliased this key (late packet, or
    /// out-of-window earliness clamped into the field).
    #[must_use]
    pub fn is_aliased(self) -> bool {
        self.0 & ALIASED != 0
    }

    /// The time field on `clock`: laxity for an on-time key,
    /// slots-to-eligibility for an early key, meaningless for the
    /// ineligible sentinel.
    #[must_use]
    pub fn time_field(self, clock: &SlotClock) -> u32 {
        self.value() & (clock.half_range() - 1)
    }

    /// Total key width in bits (clock bits + 1, e.g. 9 for the 8-bit clock of
    /// Table 4a: ineligible bit + early bit + 7-bit time field).
    #[must_use]
    pub fn width_bits(clock: &SlotClock) -> u32 {
        clock.bits() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn clock() -> SlotClock {
        SlotClock::new(8)
    }

    #[test]
    fn on_time_key_is_laxity() {
        let c = clock();
        let t = c.wrap(100);
        // ℓ = 95, d = 20 → deadline 115, laxity 15.
        let k = SortKey::compute(&c, c.wrap(95), 20, t, LatePolicy::Saturate);
        assert!(k.is_on_time(&c));
        assert_eq!(k.value(), 15);
        assert_eq!(k.time_field(&c), 15);
        assert!(!k.is_aliased());
    }

    #[test]
    fn early_key_is_time_to_eligibility_with_early_bit() {
        let c = clock();
        let t = c.wrap(100);
        // ℓ = 110 → early by 10 slots; key = 128 | 10.
        let k = SortKey::compute(&c, c.wrap(110), 20, t, LatePolicy::Saturate);
        assert!(k.is_early(&c));
        assert_eq!(k.value(), 128 | 10);
        assert_eq!(k.time_field(&c), 10);
    }

    #[test]
    fn every_on_time_key_beats_every_early_key() {
        let c = clock();
        let t = c.wrap(7); // near rollover
        let worst_on_time = SortKey::compute(&c, t, 127, t, LatePolicy::Saturate);
        let best_early = SortKey::compute(&c, c.add(t, 1), 1, t, LatePolicy::Saturate);
        assert!(worst_on_time < best_early);
    }

    #[test]
    fn ineligible_sorts_last() {
        let c = clock();
        let t = c.wrap(200);
        let worst_early =
            SortKey::compute(&c, c.add(t, c.half_range() - 1), 0, t, LatePolicy::Saturate);
        assert!(worst_early < SortKey::ineligible(&c));
        assert!(SortKey::ineligible(&c).is_ineligible(&c));
        assert!(!worst_early.is_ineligible(&c));
    }

    #[test]
    fn keys_order_correctly_across_rollover() {
        let c = clock();
        let t = c.wrap(250);
        // Deadline at 4 (wrapped, i.e. 260 absolute) vs deadline at 252.
        let later = SortKey::compute(&c, c.wrap(250), 10, t, LatePolicy::Saturate);
        let sooner = SortKey::compute(&c, c.wrap(248), 4, t, LatePolicy::Saturate);
        assert!(sooner < later, "deadline 252 must beat deadline 260");
    }

    #[test]
    fn late_packet_saturates_by_default() {
        let c = clock();
        let t = c.wrap(50);
        // ℓ = 30, d = 10 → deadline 40, already passed at t = 50.
        let k = SortKey::compute(&c, c.wrap(30), 10, t, LatePolicy::Saturate);
        assert_eq!(k.value(), 0);
        assert!(k.is_aliased());
    }

    #[test]
    fn late_packet_wraps_under_wrap_policy() {
        let c = clock();
        let t = c.wrap(50);
        let k = SortKey::compute(&c, c.wrap(30), 10, t, LatePolicy::Wrap);
        // Raw (deadline - t) mod 256 = (40 - 50) mod 256 = 246; truncated to
        // the 7-bit field: 246 & 127 = 118.
        assert_eq!(k.value(), 118);
        assert!(k.is_aliased());
    }

    #[test]
    fn key_width_matches_table_4a() {
        // "Clock (sorting key): 8 (9) bits".
        assert_eq!(SortKey::width_bits(&SlotClock::new(8)), 9);
    }

    #[test]
    fn class_predicates_respect_clock_width() {
        let c = SlotClock::new(4); // half range 8
        let t = c.wrap(0);
        let on_time = SortKey::compute(&c, t, 7, t, LatePolicy::Saturate);
        let early = SortKey::compute(&c, c.add(t, 3), 2, t, LatePolicy::Saturate);
        assert!(on_time.is_on_time(&c) && !on_time.is_early(&c));
        assert!(early.is_early(&c) && !early.is_on_time(&c));
        assert!(SortKey::ineligible(&c).is_ineligible(&c));
    }

    #[test]
    #[should_panic(expected = "half the clock range")]
    fn oversized_delay_bound_rejected() {
        let c = clock();
        let t = c.wrap(0);
        let _ = SortKey::compute(&c, t, 128, t, LatePolicy::Saturate);
    }

    proptest! {
        /// On-time packets always sort ahead of early ones; within a class,
        /// smaller laxity / smaller time-to-arrival wins. This is the total
        /// order Table 1's queues rely on.
        #[test]
        fn key_order_matches_queue_discipline(
            t_abs in 200u64..10_000,
            l1_off in -100i64..100,
            d1 in 0u32..128,
            l2_off in -100i64..100,
            d2 in 0u32..128,
        ) {
            let c = SlotClock::new(8);
            let t = c.wrap(t_abs);
            let mk = |off: i64, d: u32| {
                let l_abs = (t_abs as i64 + off) as u64;
                // Only generate packets whose deadline has not passed, the
                // regime admission control guarantees.
                let deadline_abs = l_abs + u64::from(d);
                if deadline_abs < t_abs {
                    None
                } else {
                    Some((
                        SortKey::compute(&c, c.wrap(l_abs), d, t, LatePolicy::Saturate),
                        l_abs,
                        deadline_abs,
                    ))
                }
            };
            if let (Some((k1, l1, dl1)), Some((k2, l2, dl2))) = (mk(l1_off, d1), mk(l2_off, d2)) {
                let e1 = l1 > t_abs;
                let e2 = l2 > t_abs;
                match (e1, e2) {
                    (false, true) => prop_assert!(k1 < k2),
                    (true, false) => prop_assert!(k2 < k1),
                    (false, false) => prop_assert_eq!(k1 < k2, dl1 < dl2),
                    (true, true) => prop_assert_eq!(k1 < k2, l1 < l2),
                }
            }
        }

        /// Classification predicates partition every computed key.
        #[test]
        fn predicates_partition(bits in 3u32..=12, t_abs in 0u64..100_000, off in -60i64..60, d_raw in 0u32..4096) {
            let c = SlotClock::new(bits);
            let d = d_raw % c.half_range();
            let t = c.wrap(t_abs);
            let l_abs = (t_abs as i64 + off).max(0) as u64;
            let k = SortKey::compute(&c, c.wrap(l_abs), d, t, LatePolicy::Saturate);
            let classes =
                u32::from(k.is_on_time(&c)) + u32::from(k.is_early(&c)) + u32::from(k.is_ineligible(&c));
            prop_assert_eq!(classes, 1);
            prop_assert!(k < SortKey::ineligible(&c));
        }
    }
}
