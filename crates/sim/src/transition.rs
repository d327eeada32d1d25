//! Transition (gross-delay) fault model and simulator.
//!
//! The paper's conclusion notes that the GA framework "is not limited to
//! the single stuck-at fault model, and other fault models can easily be
//! accommodated with appropriate fitness functions". This module supplies
//! the standard next model up: **transition faults**. A slow-to-rise fault
//! on net *n* delays every 0→1 transition of *n* by (at least) one clock;
//! under the usual gross-delay approximation the faulty net holds its
//! previous value for the frame in which the transition was supposed to
//! happen:
//!
//! ```text
//! faulty[t] = good[t-1]   if good[t-1] = 0 and good[t] = 1   (slow-to-rise)
//! faulty[t] = good[t]     otherwise
//! ```
//!
//! Detection therefore requires a two-pattern test — initialize the net to
//! the old value, *launch* the transition, and *capture* the difference at
//! a primary output — which in a non-scan sequential circuit means finding
//! the right multi-frame sequence: the same search problem GATEST solves
//! for stuck-at faults, with this simulator as the fitness oracle.
//!
//! The engine is the stuck-at simulator's group kernel
//! ([`crate::group`]): per frame, a transition fault whose launch condition
//! holds is passed to it as a one-frame stem force of the old value; once
//! its effect diverges into the flip-flops it propagates like any other
//! faulty flip-flop state.

use std::sync::Arc;

use gatest_netlist::{Circuit, NetId};

use crate::fault::{FaultId, FaultSite};
use crate::good_sim::{GoodSim, GoodSimState};
use crate::group::{simulate_group, FaultyFfState, GroupCtx, GroupOutcome, Scratch};
use crate::value::{for_each_lane, Logic, Pv64};

/// The slow transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slow {
    /// Slow-to-rise: 0→1 transitions are delayed.
    Rise,
    /// Slow-to-fall: 1→0 transitions are delayed.
    Fall,
}

impl Slow {
    /// The value the net holds *before* the (delayed) transition.
    pub fn old_value(self) -> Logic {
        match self {
            Slow::Rise => Logic::Zero,
            Slow::Fall => Logic::One,
        }
    }

    /// The value the fault-free net takes when the transition fires.
    pub fn new_value(self) -> Logic {
        match self {
            Slow::Rise => Logic::One,
            Slow::Fall => Logic::Zero,
        }
    }
}

/// A transition fault: a slow 0→1 or 1→0 edge on one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// The slow net.
    pub net: NetId,
    /// The slow direction.
    pub slow: Slow,
}

impl TransitionFault {
    /// Renders the fault with circuit net names, e.g. `G11/STR`.
    pub fn display<'a>(&'a self, circuit: &'a Circuit) -> impl std::fmt::Display + 'a {
        struct D<'a>(&'a TransitionFault, &'a Circuit);
        impl std::fmt::Display for D<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let dir = match self.0.slow {
                    Slow::Rise => "STR",
                    Slow::Fall => "STF",
                };
                write!(f, "{}/{dir}", self.1.net_name(self.0.net))
            }
        }
        D(self, circuit)
    }
}

/// Enumerates both transition faults on every net of `circuit`.
pub fn transition_universe(circuit: &Circuit) -> Vec<TransitionFault> {
    let mut out = Vec::with_capacity(circuit.num_gates() * 2);
    for net in circuit.net_ids() {
        for slow in [Slow::Rise, Slow::Fall] {
            out.push(TransitionFault { net, slow });
        }
    }
    out
}

/// Per-vector statistics from [`TransitionFaultSim::step`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionStepReport {
    /// Faults first detected by this vector.
    pub newly_detected: Vec<FaultId>,
    /// Faults whose launch condition fired this frame.
    pub launched: u64,
    /// Fault effects latched into flip-flops, as (fault, FF) pairs.
    pub ff_effect_pairs: u64,
}

impl TransitionStepReport {
    /// Number of faults newly detected by this vector.
    pub fn detected(&self) -> usize {
        self.newly_detected.len()
    }
}

/// Saved state of a [`TransitionFaultSim`].
#[derive(Debug, Clone)]
pub struct TransitionCheckpoint {
    good: GoodSimState,
    prev_values: Vec<Logic>,
    detected: Vec<bool>,
    active: Vec<FaultId>,
    faulty_ff: Vec<FaultyFfState>,
}

/// The transition-fault simulator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gatest_sim::transition::TransitionFaultSim;
/// use gatest_sim::Logic;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
/// let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
/// // A transition test needs at least two frames: initialize, then launch.
/// sim.step(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
/// let r = sim.step(&[Logic::Zero, Logic::One, Logic::Zero, Logic::Zero]);
/// # let _ = r;
/// assert!(sim.detected_count() <= sim.total_faults());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransitionFaultSim {
    circuit: Arc<Circuit>,
    good: GoodSim,
    faults: Vec<TransitionFault>,
    detected: Vec<bool>,
    active: Vec<FaultId>,
    /// Sparse faulty flip-flop state per fault, as in the stuck-at
    /// simulator.
    faulty_ff: Vec<FaultyFfState>,
    /// The shared empty slice, so clearing a fault's state allocates nothing.
    empty_ff: FaultyFfState,
    /// Good values of every net in the previous frame (for launch checks).
    prev_values: Vec<Logic>,
    /// The group kernel's arena and per-group outcome, reused every step.
    scratch: Scratch,
    outcome: GroupOutcome,
}

impl TransitionFaultSim {
    /// Creates a simulator over the full transition-fault universe.
    pub fn new(circuit: Arc<Circuit>) -> Self {
        let faults = transition_universe(&circuit);
        Self::with_faults(circuit, faults)
    }

    /// Creates a simulator over a caller-supplied fault list.
    pub fn with_faults(circuit: Arc<Circuit>, faults: Vec<TransitionFault>) -> Self {
        let good = GoodSim::new(Arc::clone(&circuit));
        let nfaults = faults.len();
        let max_level = good.levelization().max_level() as usize;
        let empty_ff: FaultyFfState = Arc::from(Vec::new());
        TransitionFaultSim {
            scratch: Scratch::new(&circuit, max_level),
            outcome: GroupOutcome::default(),
            prev_values: vec![Logic::X; circuit.num_gates()],
            circuit,
            good,
            detected: vec![false; nfaults],
            active: (0..nfaults as u32).map(FaultId).collect(),
            faulty_ff: vec![Arc::clone(&empty_ff); nfaults],
            empty_ff,
            faults,
        }
    }

    /// Total faults targeted.
    pub fn total_faults(&self) -> usize {
        self.faults.len()
    }

    /// Faults detected so far.
    pub fn detected_count(&self) -> usize {
        self.faults.len() - self.active.len()
    }

    /// Still-undetected faults.
    pub fn active_faults(&self) -> &[FaultId] {
        &self.active
    }

    /// The fault behind an id.
    pub fn fault(&self, id: FaultId) -> TransitionFault {
        self.faults[id.index()]
    }

    /// The embedded good simulator.
    pub fn good(&self) -> &GoodSim {
        &self.good
    }

    /// Saves the simulator state.
    pub fn checkpoint(&self) -> TransitionCheckpoint {
        TransitionCheckpoint {
            good: self.good.snapshot(),
            prev_values: self.prev_values.clone(),
            detected: self.detected.clone(),
            active: self.active.clone(),
            faulty_ff: self.faulty_ff.clone(),
        }
    }

    /// Restores a checkpoint from this simulator.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint shape does not match (different circuit).
    pub fn restore(&mut self, cp: &TransitionCheckpoint) {
        assert_eq!(cp.detected.len(), self.detected.len());
        self.good.restore(&cp.good);
        self.prev_values.copy_from_slice(&cp.prev_values);
        self.detected.copy_from_slice(&cp.detected);
        self.active.clear();
        self.active.extend_from_slice(&cp.active);
        self.faulty_ff.clone_from(&cp.faulty_ff);
    }

    /// Applies one vector over all undetected faults.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != circuit.num_inputs()`.
    pub fn step(&mut self, vector: &[Logic]) -> TransitionStepReport {
        let targets = self.active.clone();
        self.step_with(vector, &targets)
    }

    /// Applies one vector simulating only `sample`.
    pub fn step_sampled(&mut self, vector: &[Logic], sample: &[FaultId]) -> TransitionStepReport {
        self.step_with(vector, sample)
    }

    fn step_with(&mut self, vector: &[Logic], targets: &[FaultId]) -> TransitionStepReport {
        // Record previous-frame good values, then advance the good machine.
        self.prev_values.copy_from_slice(self.good.values());
        self.good.apply(vector);

        let mut report = TransitionStepReport::default();
        let mut detected: Vec<FaultId> = Vec::new();
        for group in targets.chunks(Pv64::LANES) {
            // Conditional injection: a fault forces its net to the old
            // value only in frames where the launch condition holds
            // (previous good value = old, current good value = new).
            let launches = group.iter().enumerate().filter_map(|(lane, &fid)| {
                let TransitionFault { net, slow } = self.faults[fid.index()];
                let launch = self.prev_values[net.index()] == slow.old_value()
                    && self.good.value(net) == slow.new_value();
                launch.then(|| {
                    report.launched += 1;
                    (lane as u32, FaultSite::Stem(net), slow.old_value())
                })
            });
            // Rebuilt per group: the faulty-FF table is read during the
            // simulation and written for this group's lanes just below.
            let ctx = GroupCtx {
                circuit: &self.circuit,
                good: &self.good,
                faulty_ff: &self.faulty_ff,
                empty_ff: &self.empty_ff,
            };
            let out = &mut self.outcome;
            simulate_group(&ctx, group, launches, &mut self.scratch, out);
            report.ff_effect_pairs += out.ff_effect_pairs;
            for_each_lane(out.detected_mask, |lane| detected.push(group[lane]));
            for (slot, &fid) in out.new_ff.iter_mut().zip(group) {
                if let Some(entry) = slot.take() {
                    self.faulty_ff[fid.index()] = entry;
                }
            }
        }

        if !detected.is_empty() {
            detected.sort_unstable();
            detected.dedup();
            for &f in &detected {
                self.detected[f.index()] = true;
                self.faulty_ff[f.index()] = Arc::clone(&self.empty_ff);
            }
            self.active.retain(|f| !self.detected[f.index()]);
        }
        report.newly_detected = detected;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatest_netlist::{CircuitBuilder, GateKind};

    fn wire() -> Arc<Circuit> {
        let mut b = CircuitBuilder::new("wire");
        let a = b.input("a");
        let y = b.gate(GateKind::Buf, "y", &[a]);
        b.output(y);
        Arc::new(b.finish().unwrap())
    }

    #[test]
    fn universe_has_two_faults_per_net() {
        let c = wire();
        assert_eq!(transition_universe(&c).len(), c.num_gates() * 2);
    }

    #[test]
    fn slow_to_rise_needs_a_rising_pair() {
        let circuit = wire();
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        // Static 1: no transition, nothing launches or is detected.
        sim.step(&[Logic::One]);
        let r = sim.step(&[Logic::One]);
        assert_eq!(r.launched, 0);
        assert_eq!(r.detected(), 0);
        // 0 -> 1 launches the slow-to-rise faults and detects them at the
        // output (the faulty value lags at 0 while the good value is 1).
        sim.step(&[Logic::Zero]);
        let r = sim.step(&[Logic::One]);
        assert!(r.launched > 0);
        let detected: Vec<_> = r
            .newly_detected
            .iter()
            .map(|&id| sim.fault(id).slow)
            .collect();
        assert!(detected.contains(&Slow::Rise));
        assert!(!detected.contains(&Slow::Fall));
    }

    #[test]
    fn slow_to_fall_needs_a_falling_pair() {
        let circuit = wire();
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        sim.step(&[Logic::One]);
        let r = sim.step(&[Logic::Zero]);
        let detected: Vec<_> = r
            .newly_detected
            .iter()
            .map(|&id| sim.fault(id).slow)
            .collect();
        assert!(detected.contains(&Slow::Fall));
        assert!(!detected.contains(&Slow::Rise));
    }

    #[test]
    fn both_polarities_need_both_pairs() {
        let circuit = wire();
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        sim.step(&[Logic::Zero]);
        sim.step(&[Logic::One]);
        sim.step(&[Logic::Zero]);
        // a and y each have STR + STF = 4 faults, all caught.
        assert_eq!(sim.detected_count(), 4);
    }

    #[test]
    fn effects_latch_through_flip_flops() {
        // y observes q one frame after the slow net feeds the D input.
        let mut b = CircuitBuilder::new("pipe");
        let a = b.input("a");
        let g = b.gate(GateKind::Buf, "g", &[a]);
        let q = b.gate(GateKind::Dff, "q", &[g]);
        let y = b.gate(GateKind::Buf, "y", &[q]);
        b.output(y);
        let circuit = Arc::new(b.finish().unwrap());
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        sim.step(&[Logic::Zero]);
        let launch = sim.step(&[Logic::One]); // g rises; effect latches into q
        assert!(launch.ff_effect_pairs > 0);
        assert_eq!(launch.detected(), 0, "not at the PO yet");
        let capture = sim.step(&[Logic::One]);
        assert!(capture.detected() > 0, "latched effect reaches the PO");
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let mut sim = TransitionFaultSim::new(circuit);
        sim.step(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
        let cp = sim.checkpoint();
        let probe = [
            vec![Logic::Zero, Logic::One, Logic::One, Logic::Zero],
            vec![Logic::One, Logic::Zero, Logic::Zero, Logic::One],
        ];
        let first: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
        sim.restore(&cp);
        let second: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn s27_transition_coverage_under_random() {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
        let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
        let mut rng = gatest_ga_stub::Rng::new(5);
        for _ in 0..256 {
            let v: Vec<Logic> = (0..4).map(|_| Logic::from_bool(rng.coin())).collect();
            sim.step(&v);
        }
        let cov = sim.detected_count() as f64 / sim.total_faults() as f64;
        assert!(
            cov > 0.5,
            "transition coverage {cov:.2} unexpectedly low on s27"
        );
        assert!(cov < 1.0, "some transition faults need directed tests");
    }

    use super::tests_support as gatest_ga_stub;
}

/// Tiny deterministic PRNG for this crate's tests (keeps `gatest-sim`
/// independent of `gatest-ga`).
#[cfg(test)]
pub(crate) mod tests_support {
    pub struct Rng(u64);
    impl Rng {
        pub fn new(seed: u64) -> Self {
            Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        }
        pub fn coin(&mut self) -> bool {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 & 1 == 1
        }
    }
}
