//! Packed-value property tests: every lane of [`Pv64`] must behave exactly
//! like a scalar [`Logic`] value, and the `u64` lane masks the diff
//! operations produce must agree with per-lane predicates.

use gatest_netlist::GateKind;
use gatest_sim::eval::eval_packed;
use gatest_sim::value::for_each_lane;
use gatest_sim::{Logic, Pv64};
use proptest::collection::vec;
use proptest::prelude::*;

fn logic() -> impl Strategy<Value = Logic> {
    prop_oneof![Just(Logic::Zero), Just(Logic::One), Just(Logic::X)]
}

/// One value per lane.
fn lanes() -> impl Strategy<Value = Vec<Logic>> {
    vec(logic(), Pv64::LANES)
}

/// Packs `values` into a word, lane by lane.
fn pack(values: &[Logic]) -> Pv64 {
    let mut word = Pv64::ALL_X;
    for (lane, &v) in values.iter().enumerate() {
        word.set(lane as u32, v);
    }
    word
}

/// Whether `lane` is set in `mask`.
fn bit(mask: u64, lane: usize) -> bool {
    mask >> lane & 1 != 0
}

/// Scalar reference for [`eval_packed`], folding [`Logic`] ops the same
/// way the packed fold does.
fn eval_gate_scalar(kind: GateKind, fanin: &[Logic]) -> Logic {
    match kind {
        GateKind::And => fanin.iter().fold(Logic::One, |a, &b| a.and(b)),
        GateKind::Nand => !fanin.iter().fold(Logic::One, |a, &b| a.and(b)),
        GateKind::Or => fanin.iter().fold(Logic::Zero, |a, &b| a.or(b)),
        GateKind::Nor => !fanin.iter().fold(Logic::Zero, |a, &b| a.or(b)),
        GateKind::Xor => fanin.iter().fold(Logic::Zero, |a, &b| a.xor(b)),
        GateKind::Xnor => !fanin.iter().fold(Logic::Zero, |a, &b| a.xor(b)),
        GateKind::Not => !fanin[0],
        GateKind::Buf => fanin[0],
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Input | GateKind::Dff => unreachable!("not evaluated"),
    }
}

/// Logic gates with a fanin list (constants ride along with empty fanin).
const EVAL_KINDS: [GateKind; 10] = [
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
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_ops_match_scalar_logic(a in lanes(), b in lanes()) {
        let (pa, pb) = (pack(&a), pack(&b));
        prop_assert!(pa.is_valid() && pb.is_valid());
        let (and, or, xor, not) = (pa.and(pb), pa.or(pb), pa.xor(pb), pa.not());
        let (binary, any, known) = (pa.binary_diff(pb), pa.any_diff(pb), pa.known_mask());
        for lane in 0..Pv64::LANES {
            let (x, y) = (a[lane], b[lane]);
            let i = lane as u32;
            prop_assert_eq!(pa.get(i), x, "set/get lane {}", lane);
            prop_assert_eq!(and.get(i), x.and(y), "and lane {}", lane);
            prop_assert_eq!(or.get(i), x.or(y), "or lane {}", lane);
            prop_assert_eq!(xor.get(i), x.xor(y), "xor lane {}", lane);
            prop_assert_eq!(not.get(i), !x, "not lane {}", lane);
            let binary_ref = matches!(
                (x, y),
                (Logic::Zero, Logic::One) | (Logic::One, Logic::Zero)
            );
            prop_assert_eq!(bit(binary, lane), binary_ref, "binary_diff lane {}", lane);
            prop_assert_eq!(bit(any, lane), x != y, "any_diff lane {}", lane);
            prop_assert_eq!(bit(known, lane), x.is_known(), "known_mask lane {}", lane);
        }
        // Mask invariants the simulator's merge depends on: ascending
        // enumeration, consistent counts, and first = lowest set bit.
        let mut seen = Vec::new();
        for_each_lane(any, |lane| seen.push(lane));
        prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "order");
        prop_assert_eq!(seen.len(), any.count_ones() as usize, "count");
        prop_assert_eq!(
            seen.first().copied(),
            (any != 0).then(|| any.trailing_zeros() as usize),
            "first"
        );
    }

    #[test]
    fn force_masks_round_trip(
        a in lanes(),
        mask_lanes in vec(any::<bool>(), Pv64::LANES),
        v in logic(),
    ) {
        let word = pack(&a);
        let mask = mask_lanes
            .iter()
            .enumerate()
            .filter(|&(_, &on)| on)
            .fold(0u64, |m, (lane, _)| m | 1 << lane);
        let forced = word.force(mask, v);
        prop_assert!(forced.is_valid());
        for (lane, &orig) in a.iter().enumerate() {
            let expect = if bit(mask, lane) { v } else { orig };
            prop_assert_eq!(forced.get(lane as u32), expect, "force lane {}", lane);
        }
        // Forcing is idempotent and self-reporting: forced lanes no longer
        // differ from a broadcast of the forced value.
        prop_assert_eq!(forced.any_diff(Pv64::broadcast(v)) & mask, 0);
    }

    /// The two planes alone carry the word: split into separate plane
    /// arrays (the fault simulator's structure-of-arrays storage) and
    /// rejoined, a word is unchanged, and each plane's bits follow the
    /// documented encoding lane by lane.
    #[test]
    fn soa_planes_round_trip(a in lanes()) {
        let word = pack(&a);
        let (zero, one) = ([word.zero], [word.one]);
        prop_assert_eq!(Pv64 { zero: zero[0], one: one[0] }, word);
        for (lane, &v) in a.iter().enumerate() {
            prop_assert_eq!(bit(zero[0], lane), v == Logic::Zero, "zero plane lane {}", lane);
            prop_assert_eq!(bit(one[0], lane), v == Logic::One, "one plane lane {}", lane);
        }
    }

    /// Gate evaluation matches a per-lane scalar [`Logic`] fold for every
    /// gate kind and fanin width.
    #[test]
    fn eval_gate_matches_scalar_fold(fanin in vec(lanes(), 1..5usize)) {
        for kind in EVAL_KINDS {
            let packed_fanin: Vec<Pv64> = match kind {
                GateKind::Not | GateKind::Buf => vec![pack(&fanin[0])],
                GateKind::Const0 | GateKind::Const1 => Vec::new(),
                _ => fanin.iter().map(|f| pack(f)).collect(),
            };
            let out = eval_packed(kind, &packed_fanin);
            for lane in 0..Pv64::LANES {
                let scalar_fanin: Vec<Logic> = match kind {
                    GateKind::Not | GateKind::Buf => vec![fanin[0][lane]],
                    GateKind::Const0 | GateKind::Const1 => Vec::new(),
                    _ => fanin.iter().map(|f| f[lane]).collect(),
                };
                prop_assert_eq!(
                    out.get(lane as u32),
                    eval_gate_scalar(kind, &scalar_fanin),
                    "{:?} lane {}",
                    kind,
                    lane
                );
            }
        }
    }

    #[test]
    fn broadcast_fills_every_lane(v in logic()) {
        for lane in 0..64 {
            prop_assert_eq!(Pv64::broadcast(v).get(lane), v);
        }
    }
}
