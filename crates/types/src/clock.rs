//! The wrapping on-chip scheduler clock (paper §4.3, Figure 6).
//!
//! The router limits the size of packet sorting keys by bounding the range of
//! local delay parameters: as long as every connection's `h_{j-1} + d_{j-1}`
//! and `d_j` are **less than half the clock range**, logical arrival times
//! and deadlines can be interpreted correctly with modulo arithmetic even
//! when the clock rolls over.
//!
//! At current time `t`, a valid logical arrival time `ℓ` lies in the window
//! `[t - d_j, t + (h_{j-1} + d_{j-1})]`, both offsets strictly below half the
//! range. A value *behind or at* `t` (within half the range) is **on-time**;
//! a value *ahead* of `t` is **early**.

use crate::time::Slot;

/// A value of the wrapping scheduler clock, i.e. an absolute slot count
/// reduced modulo the clock range.
///
/// `LogicalTime` is only meaningful relative to a [`SlotClock`] that defines
/// the clock width; construct one via [`SlotClock::wrap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct LogicalTime(u32);

impl LogicalTime {
    /// Raw wrapped value (always `< 2^bits` of the owning clock).
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for LogicalTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The on-chip scheduler clock: a `bits`-wide wrapping counter of slots.
///
/// All comparisons are *windowed*: they assume the two values are within half
/// the clock range of each other, which the paper's admission control
/// guarantees (§4.3).
///
/// # Example
///
/// The concrete example of the paper's Figure 6 (8-bit clock, `t = 240`):
///
/// ```
/// use rtr_types::clock::SlotClock;
///
/// let clock = SlotClock::new(8);
/// let t = clock.wrap(240);
/// // ℓ = 80: (t - 80) mod 256 = 160 ≥ 128, so the packet is early.
/// assert!(clock.is_early(clock.wrap(80), t));
/// // ℓ = 210: (t - 210) mod 256 = 30 < 128, so the packet is on-time.
/// assert!(!clock.is_early(clock.wrap(210), t));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotClock {
    bits: u32,
}

impl SlotClock {
    /// Creates a clock with the given width in bits.
    ///
    /// The paper's chip uses 8 bits (Table 4a).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 30`.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((2..=30).contains(&bits), "clock width must be in 2..=30 bits");
        Self { bits }
    }

    /// Clock width in bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Full range of the clock (`2^bits` slot values).
    #[must_use]
    pub fn range(self) -> u32 {
        1 << self.bits
    }

    /// Half the clock range: the largest usable window for delay parameters.
    ///
    /// Admission control must enforce `h_{j-1} + d_{j-1} < half_range()` and
    /// `d_j < half_range()` for every connection (§4.3).
    #[must_use]
    pub fn half_range(self) -> u32 {
        1 << (self.bits - 1)
    }

    /// Reduces an absolute slot count to a wrapped clock value.
    #[must_use]
    pub fn wrap(self, slot: Slot) -> LogicalTime {
        LogicalTime((slot & u64::from(self.range() - 1)) as u32)
    }

    /// `(a - b) mod 2^bits`: how far `a` is ahead of `b` on the clock circle.
    #[must_use]
    pub fn diff(self, a: LogicalTime, b: LogicalTime) -> u32 {
        a.0.wrapping_sub(b.0) & (self.range() - 1)
    }

    /// Adds a (non-negative) slot offset to a wrapped value.
    #[must_use]
    pub fn add(self, a: LogicalTime, offset: u32) -> LogicalTime {
        LogicalTime((a.0 + offset) & (self.range() - 1))
    }

    /// Signed windowed separation `a - b` in slots: positive when `a` is
    /// ahead of `b` on the clock circle (within half the range), negative
    /// when behind.
    ///
    /// This is the reading a slack metric wants: with `a` a hop deadline and
    /// `b` the current scheduler time, the result is slots of slack left
    /// (negative = the deadline already passed).
    #[must_use]
    pub fn signed_diff(self, a: LogicalTime, b: LogicalTime) -> i32 {
        let ahead = self.diff(a, b);
        if ahead < self.half_range() {
            ahead as i32
        } else {
            ahead as i32 - self.range() as i32
        }
    }

    /// Whether a packet with logical arrival time `l` is *early* at time `t`,
    /// i.e. its eligibility instant has not yet been reached.
    ///
    /// Windowed rule (Figure 6): the packet is on-time when
    /// `(t - l) mod 2^bits < half_range()`, early otherwise.
    #[must_use]
    pub fn is_early(self, l: LogicalTime, t: LogicalTime) -> bool {
        self.diff(t, l) >= self.half_range()
    }

    /// Whether a deadline `dl` has already passed at time `t`
    /// (strictly in the past within the half-range window).
    ///
    /// A deadline equal to `t` has *not* passed: the link may still transmit
    /// the packet in the current slot.
    #[must_use]
    pub fn has_passed(self, dl: LogicalTime, t: LogicalTime) -> bool {
        let behind = self.diff(t, dl);
        behind > 0 && behind < self.half_range()
    }

    /// Slots remaining until `future` is reached from `t`, assuming `future`
    /// is not in the past window (otherwise returns the aliased large value).
    #[must_use]
    pub fn until(self, future: LogicalTime, t: LogicalTime) -> u32 {
        self.diff(future, t)
    }
}

impl Default for SlotClock {
    /// The paper's 8-bit clock.
    fn default() -> Self {
        Self::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn figure6_example() {
        // Figure 6: 8-bit clock, t = 240.
        let c = SlotClock::new(8);
        let t = c.wrap(240);
        assert!(c.is_early(c.wrap(80), t), "l = 80 must be early");
        assert!(!c.is_early(c.wrap(210), t), "l = 210 must be on-time");
        // The window spans (t - 128, t + 128]: l = 113 (= 240 - 127) is the
        // oldest representable on-time value.
        assert!(!c.is_early(c.wrap(113), t));
        // One slot further back aliases to "early".
        assert!(c.is_early(c.wrap(112), t));
    }

    #[test]
    fn wrap_reduces_modulo_range() {
        let c = SlotClock::new(8);
        assert_eq!(c.wrap(256).raw(), 0);
        assert_eq!(c.wrap(511).raw(), 255);
        assert_eq!(c.wrap(1 << 20).raw(), 0);
    }

    #[test]
    fn diff_is_modular() {
        let c = SlotClock::new(8);
        assert_eq!(c.diff(c.wrap(10), c.wrap(250)), 16);
        assert_eq!(c.diff(c.wrap(250), c.wrap(10)), 240);
        assert_eq!(c.diff(c.wrap(5), c.wrap(5)), 0);
    }

    #[test]
    fn add_wraps() {
        let c = SlotClock::new(8);
        assert_eq!(c.add(c.wrap(250), 10).raw(), 4);
    }

    #[test]
    fn deadline_passing() {
        let c = SlotClock::new(8);
        let t = c.wrap(100);
        assert!(!c.has_passed(c.wrap(100), t), "deadline == t has not passed");
        assert!(c.has_passed(c.wrap(99), t));
        assert!(!c.has_passed(c.wrap(101), t));
        // Across rollover.
        let t = c.wrap(3);
        assert!(c.has_passed(c.wrap(255), t));
        assert!(!c.has_passed(c.wrap(10), t));
    }

    #[test]
    fn signed_diff_reads_ahead_and_behind() {
        let c = SlotClock::new(8);
        assert_eq!(c.signed_diff(c.wrap(105), c.wrap(100)), 5);
        assert_eq!(c.signed_diff(c.wrap(95), c.wrap(100)), -5);
        assert_eq!(c.signed_diff(c.wrap(100), c.wrap(100)), 0);
        // Across rollover in both directions.
        assert_eq!(c.signed_diff(c.wrap(3), c.wrap(250)), 9);
        assert_eq!(c.signed_diff(c.wrap(250), c.wrap(3)), -9);
        // Exactly half the range away reads as behind (on-time window is
        // (t - half, t]).
        assert_eq!(c.signed_diff(c.wrap(228), c.wrap(100)), -128);
    }

    #[test]
    fn until_counts_forward() {
        let c = SlotClock::new(8);
        assert_eq!(c.until(c.wrap(5), c.wrap(250)), 11);
        assert_eq!(c.until(c.wrap(250), c.wrap(250)), 0);
    }

    #[test]
    #[should_panic(expected = "clock width")]
    fn one_bit_clock_rejected() {
        let _ = SlotClock::new(1);
    }

    proptest! {
        /// Wrapped arithmetic agrees with unbounded arithmetic whenever the
        /// true separation is inside the half-range window — the exact
        /// property the paper's §4.3 relies on.
        #[test]
        fn windowed_classification_matches_unbounded(
            bits in 3u32..=16,
            t_abs in 0u64..1_000_000,
            ahead in proptest::bool::ANY,
            sep in 0u32..u32::MAX,
        ) {
            let c = SlotClock::new(bits);
            let sep = sep % c.half_range();
            let l_abs = if ahead {
                t_abs + u64::from(sep)
            } else {
                t_abs.saturating_sub(u64::from(sep))
            };
            let t = c.wrap(t_abs);
            let l = c.wrap(l_abs);
            let truly_early = l_abs > t_abs;
            prop_assert_eq!(c.is_early(l, t), truly_early);
            if truly_early {
                prop_assert_eq!(c.until(l, t), (l_abs - t_abs) as u32);
            } else {
                prop_assert_eq!(c.diff(t, l), (t_abs - l_abs) as u32);
            }
        }

        /// `diff` and `add` are inverse within the window.
        #[test]
        fn add_then_diff_round_trips(bits in 3u32..=16, base in 0u64..1_000_000, off in 0u32..u32::MAX) {
            let c = SlotClock::new(bits);
            let off = off % c.half_range();
            let base = c.wrap(base);
            prop_assert_eq!(c.diff(c.add(base, off), base), off);
        }
    }
}
