//! Packed good-circuit simulator for phase-1 fitness.
//!
//! Phase 1 of GATEST (flip-flop initialization) scores candidates purely on
//! good-machine behaviour — no fault simulation. That makes it a perfect fit
//! for the packed representation already used for faulty machines: instead
//! of simulating one candidate vector per good-machine pass, pack 64
//! candidate vectors into the bit lanes of each net's [`Pv64`] word and
//! evaluate a whole population chunk in ⌈pop/64⌉ passes.
//!
//! [`PackedGoodSim`] mirrors [`GoodSim::apply`] exactly — same latch order,
//! same level-order sweep, same next-state rule — but on packed words via
//! [`eval_packed`]. Because packed evaluation is lane-wise identical to
//! `eval_scalar` (exhaustively tested in `value.rs`), the per-lane
//! flip-flop statistics it reports are bit-identical to running 64 scalar
//! [`GoodSim`]s. Events are *not* tracked (phase-1
//! fitness never reads them), so [`PackedGoodSim::phase1_stats`] reports
//! `events: 0`.

use std::sync::Arc;

use gatest_netlist::levelize::Levelization;
use gatest_netlist::Circuit;

use crate::eval::eval_packed;
use crate::good_sim::{GoodSim, GoodStepReport};
use crate::value::Pv64;

/// A good-circuit simulator evaluating 64 independent candidate streams at
/// once, one per bit lane.
#[derive(Debug, Clone)]
pub struct PackedGoodSim {
    circuit: Arc<Circuit>,
    lev: Levelization,
    /// Current value of every net, one lane per candidate.
    values: Vec<Pv64>,
    /// Next flip-flop state, indexed like `circuit.dffs()`.
    next_state: Vec<Pv64>,
    /// Scratch fanin buffer reused across gates.
    fanin_buf: Vec<Pv64>,
}

impl PackedGoodSim {
    /// Creates a packed simulator with all nets and flip-flops at X.
    pub fn new(circuit: Arc<Circuit>) -> Self {
        let lev = Levelization::new(&circuit);
        let n = circuit.num_gates();
        let nffs = circuit.num_dffs();
        PackedGoodSim {
            circuit,
            lev,
            values: vec![Pv64::ALL_X; n],
            next_state: vec![Pv64::ALL_X; nffs],
            fanin_buf: Vec::with_capacity(8),
        }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// Broadcasts a scalar [`GoodSim`]'s current state into all lanes,
    /// so every candidate starts from the same machine state.
    ///
    /// # Panics
    ///
    /// Panics if `good` simulates a different circuit (size mismatch).
    pub fn seed_from(&mut self, good: &GoodSim) {
        assert_eq!(
            good.circuit().num_gates(),
            self.circuit.num_gates(),
            "seed source must simulate the same circuit"
        );
        for id in self.circuit.net_ids() {
            self.values[id.index()] = Pv64::broadcast(good.value(id));
        }
        for i in 0..self.circuit.num_dffs() {
            self.next_state[i] = Pv64::broadcast(good.next_state_of(i));
        }
    }

    /// Applies one time frame, driving primary input `i` with `pi_words[i]`
    /// (one candidate per lane). Mirrors [`GoodSim::apply`] word-wise:
    /// flip-flops latch last frame's next state, inputs are driven, the
    /// combinational schedule is swept once, and the next state is latched
    /// from the D inputs.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words.len() != circuit.num_inputs()`.
    pub fn apply(&mut self, pi_words: &[Pv64]) {
        assert_eq!(
            pi_words.len(),
            self.circuit.num_inputs(),
            "one packed word per primary input"
        );
        let circuit = Arc::clone(&self.circuit);

        // Latch: flip-flop outputs take the next-state computed last frame.
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            self.values[ff.index()] = self.next_state[i];
        }

        // Drive primary inputs.
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            self.values[pi.index()] = pi_words[i];
        }

        // Evaluate combinational gates in level order via the
        // schedule-ordered CSR (same traversal order as the scalar sweep).
        for i in 0..self.lev.comb_len() {
            let (gate, kind, fanin) = self.lev.comb_record(i);
            self.fanin_buf.clear();
            self.fanin_buf
                .extend(fanin.iter().map(|&n| self.values[n.index()]));
            self.values[gate.index()] = eval_packed(kind, &self.fanin_buf);
        }

        // Compute next flip-flop state from D inputs.
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            let d = circuit.fanin(ff)[0];
            self.next_state[i] = self.values[d.index()];
        }
    }

    /// Per-lane flip-flop statistics of the *last applied frame*, for the
    /// first `lanes` candidates: how many flip-flops latched a known next
    /// state, and how many next states differ from the current state. These
    /// are exactly the numbers [`GoodSim::apply`] reports, except `events`
    /// is always 0 (untracked — phase-1 fitness ignores it).
    pub fn phase1_stats(&self, lanes: usize) -> Vec<GoodStepReport> {
        assert!(lanes <= Pv64::LANES, "at most 64 lanes per packed word");
        let mut out = vec![GoodStepReport::default(); lanes];
        for (i, &ff) in self.circuit.dffs().iter().enumerate() {
            let dw = self.next_state[i];
            let qw = self.values[ff.index()];
            let known = dw.known_mask();
            let changed = dw.any_diff(qw);
            for (lane, report) in out.iter_mut().enumerate() {
                report.ffs_set += (known >> lane & 1) as usize;
                report.ffs_changed += (changed >> lane & 1) as usize;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Logic;
    use gatest_netlist::benchmarks::iscas89;

    /// Deterministic pseudo-random bit source (xorshift).
    struct Bits(u64);
    impl Bits {
        fn next(&mut self) -> bool {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 & 1 == 1
        }
    }

    /// Packed stats for 64 random candidates must equal as many scalar
    /// GoodSim runs from the same seeded state, frame by frame.
    fn packed_matches_scalar(name: &str, seed: u64) {
        let circuit = Arc::new(iscas89(name).unwrap());
        let pis = circuit.num_inputs();
        let mut bits = Bits(seed);

        // Warm a scalar sim into a non-trivial state.
        let mut good = GoodSim::new(Arc::clone(&circuit));
        for _ in 0..3 {
            let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(bits.next())).collect();
            good.apply(&v);
        }

        // One random candidate vector per lane.
        let candidates: Vec<Vec<Logic>> = (0..Pv64::LANES)
            .map(|_| (0..pis).map(|_| Logic::from_bool(bits.next())).collect())
            .collect();

        // Packed: two-frame hold, like phase 1.
        let mut packed = PackedGoodSim::new(Arc::clone(&circuit));
        packed.seed_from(&good);
        let mut pi_words = vec![Pv64::ALL_X; pis];
        for (lane, cand) in candidates.iter().enumerate() {
            for (i, &v) in cand.iter().enumerate() {
                pi_words[i].set(lane as u32, v);
            }
        }
        packed.apply(&pi_words);
        packed.apply(&pi_words);
        let stats = packed.phase1_stats(Pv64::LANES);

        // Scalar reference: clone the warmed sim per candidate.
        for (lane, cand) in candidates.iter().enumerate() {
            let mut reference = good.clone();
            reference.apply(cand);
            let expect = reference.apply(cand);
            assert_eq!(
                (stats[lane].ffs_set, stats[lane].ffs_changed),
                (expect.ffs_set, expect.ffs_changed),
                "{name} lane {lane} diverged from scalar GoodSim"
            );
        }
    }

    #[test]
    fn s27_packed_matches_scalar() {
        packed_matches_scalar("s27", 0x1234_5678_9abc_def1);
    }

    #[test]
    fn s298_packed_matches_scalar() {
        packed_matches_scalar("s298", 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn seed_from_broadcasts_state() {
        let circuit = Arc::new(iscas89("s27").unwrap());
        let mut good = GoodSim::new(Arc::clone(&circuit));
        good.apply(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
        let mut packed = PackedGoodSim::new(Arc::clone(&circuit));
        packed.seed_from(&good);
        for id in circuit.net_ids() {
            let word = packed.values[id.index()];
            for slot in 0..64 {
                assert_eq!(word.get(slot), good.value(id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "one packed word per primary input")]
    fn rejects_wrong_input_count() {
        let circuit = Arc::new(iscas89("s27").unwrap());
        let mut packed = PackedGoodSim::new(circuit);
        packed.apply(&[Pv64::ALL_X]);
    }
}
