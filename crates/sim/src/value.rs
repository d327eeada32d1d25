//! Three-valued logic (0 / 1 / X) — scalar and bit-parallel.
//!
//! The packed representation follows PROOFS: each signal carries two bit
//! planes, `zero` and `one`. Bit *i* of the planes encodes the value seen by
//! parallel lane *i* (one fault, or one pattern, per lane):
//!
//! | `zero` | `one` | value |
//! |--------|-------|-------|
//! | 1      | 0     | 0     |
//! | 0      | 1     | 1     |
//! | 0      | 0     | X     |
//! | 1      | 1     | *invalid* |
//!
//! With this encoding every gate function is a handful of word operations,
//! e.g. `AND`: `one = a.one & b.one`, `zero = a.zero | b.zero`.
//!
//! [`Pv64`] holds one 64-bit word per plane, the PROOFS original, and its
//! per-lane masks are bare `u64`s. It is the only packed width: a four-word
//! plane was measured and removed (DESIGN.md §14).

use std::fmt;
use std::ops::Not;

/// A scalar three-valued logic value.
///
/// # Example
///
/// ```
/// use gatest_sim::Logic;
///
/// assert_eq!(Logic::Zero & Logic::X, Logic::Zero);
/// assert_eq!(Logic::One & Logic::X, Logic::X);
/// assert_eq!(!Logic::X, Logic::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl Logic {
    /// Converts a `bool` to `Zero`/`One`.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns `Some(bool)` for binary values, `None` for X.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// Returns `true` if the value is 0 or 1 (not X).
    #[inline]
    pub fn is_known(self) -> bool {
        self != Logic::X
    }

    /// Three-valued AND.
    #[inline]
    pub fn and(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Three-valued OR.
    #[inline]
    pub fn or(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Three-valued XOR.
    #[inline]
    pub fn xor(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }
}

impl Not for Logic {
    type Output = Logic;

    #[inline]
    fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }
}

impl std::ops::BitAnd for Logic {
    type Output = Logic;
    #[inline]
    fn bitand(self, rhs: Logic) -> Logic {
        self.and(rhs)
    }
}

impl std::ops::BitOr for Logic {
    type Output = Logic;
    #[inline]
    fn bitor(self, rhs: Logic) -> Logic {
        self.or(rhs)
    }
}

impl std::ops::BitXor for Logic {
    type Output = Logic;
    #[inline]
    fn bitxor(self, rhs: Logic) -> Logic {
        self.xor(rhs)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
        };
        write!(f, "{c}")
    }
}

// ---------------------------------------------------------------------------
// Lane masks

/// The lane mask with the first `n` lanes set.
///
/// # Panics
///
/// Panics if `n > 64`.
#[inline]
pub(crate) fn low_lanes(n: usize) -> u64 {
    assert!(n <= Pv64::LANES);
    if n == Pv64::LANES {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// Calls `f` with every set lane of `mask`, in ascending lane order.
///
/// Ascending order is load-bearing: the fault simulator's merge walks
/// detection masks with it, and lane order is fault order within a group,
/// so detections are emitted in fault order.
#[inline]
pub fn for_each_lane(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

// ---------------------------------------------------------------------------
// Pv64: the packed word

/// A packed word of 64 three-valued values (one per parallel slot).
///
/// # Example
///
/// ```
/// use gatest_sim::{Logic, Pv64};
///
/// let mut w = Pv64::broadcast(Logic::One);
/// w.set(3, Logic::Zero);
/// w.set(7, Logic::X);
/// assert_eq!(w.get(0), Logic::One);
/// assert_eq!(w.get(3), Logic::Zero);
/// assert_eq!(w.get(7), Logic::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pv64 {
    /// Plane of slots holding logic 0.
    pub zero: u64,
    /// Plane of slots holding logic 1.
    pub one: u64,
}

impl Pv64 {
    /// Parallel lanes per word.
    pub const LANES: usize = 64;

    /// All 64 slots X.
    pub const ALL_X: Pv64 = Pv64 { zero: 0, one: 0 };

    /// All 64 slots 0.
    pub const ALL_ZERO: Pv64 = Pv64 { zero: !0, one: 0 };

    /// All 64 slots 1.
    pub const ALL_ONE: Pv64 = Pv64 { zero: 0, one: !0 };

    /// A word with every slot set to `v`.
    #[inline]
    pub fn broadcast(v: Logic) -> Pv64 {
        match v {
            Logic::Zero => Pv64::ALL_ZERO,
            Logic::One => Pv64::ALL_ONE,
            Logic::X => Pv64::ALL_X,
        }
    }

    /// The value in slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn get(self, i: u32) -> Logic {
        assert!(i < 64);
        let z = (self.zero >> i) & 1;
        let o = (self.one >> i) & 1;
        match (z, o) {
            (1, 0) => Logic::Zero,
            (0, 1) => Logic::One,
            (0, 0) => Logic::X,
            _ => unreachable!("invalid Pv64 encoding in slot {i}"),
        }
    }

    /// Sets slot `i` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn set(&mut self, i: u32, v: Logic) {
        assert!(i < 64);
        let bit = 1u64 << i;
        self.zero &= !bit;
        self.one &= !bit;
        match v {
            Logic::Zero => self.zero |= bit,
            Logic::One => self.one |= bit,
            Logic::X => {}
        }
    }

    /// Three-valued AND of two words.
    #[inline]
    pub fn and(self, rhs: Pv64) -> Pv64 {
        Pv64 {
            zero: self.zero | rhs.zero,
            one: self.one & rhs.one,
        }
    }

    /// Three-valued OR of two words.
    #[inline]
    pub fn or(self, rhs: Pv64) -> Pv64 {
        Pv64 {
            zero: self.zero & rhs.zero,
            one: self.one | rhs.one,
        }
    }

    /// Three-valued XOR of two words (X wherever either side is X).
    #[inline]
    pub fn xor(self, rhs: Pv64) -> Pv64 {
        Pv64 {
            zero: (self.zero & rhs.zero) | (self.one & rhs.one),
            one: (self.zero & rhs.one) | (self.one & rhs.zero),
        }
    }

    /// Three-valued NOT.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn not(self) -> Pv64 {
        Pv64 {
            zero: self.one,
            one: self.zero,
        }
    }

    /// Slots where both words hold *binary* values that differ.
    ///
    /// This is PROOFS's detection criterion at primary outputs: the fault is
    /// detected only where the good and faulty values are both known and
    /// opposite.
    #[inline]
    pub fn binary_diff(self, rhs: Pv64) -> u64 {
        (self.zero & rhs.one) | (self.one & rhs.zero)
    }

    /// Slots where the two words differ at all (including binary vs. X).
    #[inline]
    pub fn any_diff(self, rhs: Pv64) -> u64 {
        (self.zero ^ rhs.zero) | (self.one ^ rhs.one)
    }

    /// Slots holding a known (binary) value.
    #[inline]
    pub fn known_mask(self) -> u64 {
        self.zero | self.one
    }

    /// Returns `true` if no slot has both planes set (the invalid encoding).
    #[inline]
    pub fn is_valid(self) -> bool {
        self.zero & self.one == 0
    }

    /// Forces the slots in `mask` to `v`, leaving other slots untouched.
    #[inline]
    pub fn force(self, mask: u64, v: Logic) -> Pv64 {
        let mut out = Pv64 {
            zero: self.zero & !mask,
            one: self.one & !mask,
        };
        match v {
            Logic::Zero => out.zero |= mask,
            Logic::One => out.one |= mask,
            Logic::X => {}
        }
        out
    }
}

impl fmt::Display for Pv64 {
    /// Slot 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..64 {
            write!(f, "{}", self.get(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_netlist::GateKind;

    const VALUES: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    #[test]
    fn scalar_and_truth_table() {
        use Logic::*;
        assert_eq!(Zero & Zero, Zero);
        assert_eq!(Zero & One, Zero);
        assert_eq!(Zero & X, Zero);
        assert_eq!(One & One, One);
        assert_eq!(One & X, X);
        assert_eq!(X & X, X);
    }

    #[test]
    fn scalar_or_truth_table() {
        use Logic::*;
        assert_eq!(One | Zero, One);
        assert_eq!(One | X, One);
        assert_eq!(Zero | Zero, Zero);
        assert_eq!(Zero | X, X);
        assert_eq!(X | X, X);
    }

    #[test]
    fn scalar_xor_truth_table() {
        use Logic::*;
        assert_eq!(Zero ^ One, One);
        assert_eq!(One ^ One, Zero);
        assert_eq!(One ^ X, X);
        assert_eq!(X ^ X, X);
    }

    #[test]
    fn scalar_not() {
        assert_eq!(!Logic::Zero, Logic::One);
        assert_eq!(!Logic::One, Logic::Zero);
        assert_eq!(!Logic::X, Logic::X);
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(Logic::from_bool(true).to_bool(), Some(true));
        assert_eq!(Logic::from_bool(false).to_bool(), Some(false));
        assert_eq!(Logic::X.to_bool(), None);
    }

    #[test]
    fn packed_get_set_round_trip() {
        let mut w = Pv64::ALL_X;
        for (i, &v) in [Logic::Zero, Logic::One, Logic::X, Logic::One]
            .iter()
            .enumerate()
        {
            w.set(i as u32, v);
        }
        assert_eq!(w.get(0), Logic::Zero);
        assert_eq!(w.get(1), Logic::One);
        assert_eq!(w.get(2), Logic::X);
        assert_eq!(w.get(3), Logic::One);
        assert_eq!(w.get(60), Logic::X);
        assert!(w.is_valid());
    }

    #[test]
    fn packed_ops_agree_with_scalar() {
        // Exhaustive per-slot agreement between packed and scalar operators.
        for &a in &VALUES {
            for &b in &VALUES {
                let wa = Pv64::broadcast(a);
                let wb = Pv64::broadcast(b);
                assert_eq!(wa.and(wb).get(17), a & b, "and({a},{b})");
                assert_eq!(wa.or(wb).get(17), a | b, "or({a},{b})");
                assert_eq!(wa.xor(wb).get(17), a ^ b, "xor({a},{b})");
                assert_eq!(wa.not().get(17), !a, "not({a})");
                assert!(wa.and(wb).is_valid());
                assert!(wa.xor(wb).is_valid());
            }
        }
    }

    #[test]
    fn binary_diff_requires_both_known() {
        let zero = Pv64::ALL_ZERO;
        let one = Pv64::ALL_ONE;
        let x = Pv64::ALL_X;
        assert_eq!(zero.binary_diff(one), !0);
        assert_eq!(zero.binary_diff(zero), 0);
        assert_eq!(zero.binary_diff(x), 0);
        assert_eq!(x.binary_diff(one), 0);
    }

    #[test]
    fn any_diff_sees_x_transitions() {
        let zero = Pv64::ALL_ZERO;
        let x = Pv64::ALL_X;
        assert_eq!(zero.any_diff(x), !0);
        assert_eq!(x.any_diff(x), 0);
        assert_eq!(zero.any_diff(zero), 0);
    }

    #[test]
    fn force_overrides_only_masked_slots() {
        let w = Pv64::ALL_ZERO.force(0b101, Logic::One);
        assert_eq!(w.get(0), Logic::One);
        assert_eq!(w.get(1), Logic::Zero);
        assert_eq!(w.get(2), Logic::One);
        assert_eq!(w.get(3), Logic::Zero);
        let x = w.force(0b10, Logic::X);
        assert_eq!(x.get(1), Logic::X);
    }

    #[test]
    fn known_mask_tracks_binary_slots() {
        let mut w = Pv64::ALL_X;
        w.set(5, Logic::One);
        w.set(9, Logic::Zero);
        assert_eq!(w.known_mask(), (1 << 5) | (1 << 9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Logic::X.to_string(), "x");
        let mut w = Pv64::ALL_ZERO;
        w.set(1, Logic::One);
        let s = w.to_string();
        assert!(s.starts_with("010"));
        assert_eq!(s.len(), 64);
    }

    /// A deterministic per-lane value pattern: three-valued, cycling with a
    /// lane- and salt-dependent phase so neighbouring lanes differ.
    fn pattern(lane: usize, salt: usize) -> Logic {
        VALUES[(lane.wrapping_mul(2654435761) >> 3).wrapping_add(salt) % 3]
    }

    fn patterned(salt: usize) -> Pv64 {
        let mut w = Pv64::ALL_X;
        for lane in 0..Pv64::LANES {
            w.set(lane as u32, pattern(lane, salt));
        }
        w
    }

    #[test]
    fn ops_agree_with_scalar_in_every_lane() {
        let a = patterned(0);
        let b = patterned(1);
        assert!(a.is_valid());
        for lane in 0..64 {
            let (x, y) = (a.get(lane), b.get(lane));
            assert_eq!(x, pattern(lane as usize, 0), "lane {lane}");
            assert_eq!(a.and(b).get(lane), x & y, "and lane {lane}");
            assert_eq!(a.or(b).get(lane), x | y, "or lane {lane}");
            assert_eq!(a.xor(b).get(lane), x ^ y, "xor lane {lane}");
            assert_eq!(a.not().get(lane), !x, "not lane {lane}");
        }
        assert!(a.and(b).is_valid() && a.xor(b).is_valid());
    }

    #[test]
    fn eval_gate_agrees_with_scalar_in_every_lane() {
        use crate::eval::{eval_packed, eval_scalar};
        let fanin = [patterned(0), patterned(1), patterned(2)];
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
            GateKind::Const0,
            GateKind::Const1,
        ] {
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                GateKind::Const0 | GateKind::Const1 => 0,
                _ => 3,
            };
            let packed = eval_packed(kind, &fanin[..arity]);
            assert!(packed.is_valid(), "{kind}");
            for lane in 0..64 {
                let scalar: Vec<Logic> = fanin[..arity].iter().map(|w| w.get(lane)).collect();
                assert_eq!(
                    packed.get(lane),
                    eval_scalar(kind, &scalar),
                    "{kind} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn diff_masks_match_per_lane_comparison() {
        let a = patterned(3);
        let b = patterned(4);
        let (binary, any, known) = (a.binary_diff(b), a.any_diff(b), a.known_mask());
        for lane in 0..64 {
            let (x, y) = (a.get(lane), b.get(lane));
            let bit = |m: u64| m >> lane & 1 != 0;
            assert_eq!(bit(binary), x.is_known() && y.is_known() && x != y);
            assert_eq!(bit(any), x != y, "any lane {lane}");
            assert_eq!(bit(known), x.is_known(), "known lane {lane}");
        }
        assert_eq!(a.any_diff(a), 0);
        assert_eq!(a.binary_diff(a), 0);
    }

    #[test]
    fn lane_mask_helpers_round_trip() {
        assert_eq!(low_lanes(0), 0);
        assert_eq!(low_lanes(64), !0);
        for n in [1usize, 2, 33, 64] {
            let mut seen = Vec::new();
            for_each_lane(low_lanes(n), |lane| seen.push(lane));
            assert_eq!(
                seen,
                (0..n).collect::<Vec<_>>(),
                "low({n}) iterates ascending"
            );
        }
        let mut seen = Vec::new();
        for_each_lane(1 << 62 | 1 << 5 | 1, |lane| seen.push(lane));
        assert_eq!(seen, [0, 5, 62]);
        for_each_lane(0, |_| panic!("empty mask has no lanes"));
    }
}
