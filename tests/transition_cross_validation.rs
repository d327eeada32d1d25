//! Cross-validation of the packed transition-fault simulator against an
//! independent scalar implementation of the gross-delay model: fault by
//! fault and vector by vector, on bundled circuits and on seed-built
//! synthetic circuits whose fault lists span many 64-lane groups.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_netlist::benchmarks;
use gatest_netlist::depth::sequential_depth;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_netlist::levelize::Levelization;
use gatest_netlist::Circuit;
use gatest_sim::eval::eval_scalar;
use gatest_sim::transition::{transition_universe, TransitionFault, TransitionFaultSim};
use gatest_sim::Logic;

/// Scalar reference: simulate the good machine and one faulty machine side
/// by side. The faulty machine forces the fault net to its old value in
/// every frame where the *good* machine launches the slow transition
/// (`good[t-1] = old`, `good[t] = new`), and otherwise evaluates normally
/// from its own (possibly diverged) state. Returns the index of the first
/// frame whose primary outputs tell the two machines apart.
fn reference_detects(
    circuit: &Arc<Circuit>,
    fault: TransitionFault,
    sequence: &[Vec<Logic>],
) -> Option<usize> {
    let lev = Levelization::new(circuit);
    let n = circuit.num_gates();
    let mut gvals = vec![Logic::X; n];
    let mut fvals = vec![Logic::X; n];
    let mut gstate = vec![Logic::X; circuit.num_dffs()];
    let mut fstate = vec![Logic::X; circuit.num_dffs()];
    let mut prev_good = vec![Logic::X; n];

    for (frame, vec) in sequence.iter().enumerate() {
        prev_good.copy_from_slice(&gvals);
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            gvals[ff.index()] = gstate[i];
            fvals[ff.index()] = fstate[i];
        }
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            gvals[pi.index()] = vec[i];
            fvals[pi.index()] = vec[i];
        }
        // Evaluate the good machine first, frame-complete, so the launch
        // condition can compare prev/current good values of the fault net.
        for &gate in lev.schedule() {
            let kind = circuit.kind(gate);
            if !kind.is_combinational() {
                continue;
            }
            let fanin: Vec<Logic> = circuit
                .fanin(gate)
                .iter()
                .map(|&s| gvals[s.index()])
                .collect();
            gvals[gate.index()] = eval_scalar(kind, &fanin);
        }
        let launched = prev_good[fault.net.index()] == fault.slow.old_value()
            && gvals[fault.net.index()] == fault.slow.new_value();

        // Faulty machine: sources (PIs/FFs) already set; force the fault
        // net if it is a source and launched, then evaluate.
        if launched && !circuit.kind(fault.net).is_combinational() {
            fvals[fault.net.index()] = fault.slow.old_value();
        }
        for &gate in lev.schedule() {
            let kind = circuit.kind(gate);
            if !kind.is_combinational() {
                continue;
            }
            let fanin: Vec<Logic> = circuit
                .fanin(gate)
                .iter()
                .map(|&s| fvals[s.index()])
                .collect();
            let mut out = eval_scalar(kind, &fanin);
            if launched && gate == fault.net {
                out = fault.slow.old_value();
            }
            fvals[gate.index()] = out;
        }

        for &po in circuit.outputs() {
            let g = gvals[po.index()];
            let f = fvals[po.index()];
            if g.is_known() && f.is_known() && g != f {
                return Some(frame);
            }
        }
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            let d = circuit.fanin(ff)[0];
            gstate[i] = gvals[d.index()];
            fstate[i] = fvals[d.index()];
        }
    }
    None
}

fn random_sequence(pis: usize, len: usize, seed: u64) -> Vec<Vec<Logic>> {
    let mut rng = gatest_ga::Rng::new(seed);
    (0..len)
        .map(|_| (0..pis).map(|_| Logic::from_bool(rng.coin())).collect())
        .collect()
}

fn cross_validate(name: &str, vectors: usize, seed: u64) {
    let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
    let mut sequence = vec![vec![Logic::Zero; circuit.num_inputs()]; 4];
    sequence.extend(random_sequence(circuit.num_inputs(), vectors, seed));
    check_against_reference(&circuit, &sequence);
}

/// Steps `sequence` through a [`TransitionFaultSim`] over the full
/// transition universe and checks, fault by fault, that it first detects
/// exactly the faults the reference detects, at the same vector. Returns
/// the number of faults detected.
fn check_against_reference(circuit: &Arc<Circuit>, sequence: &[Vec<Logic>]) -> usize {
    let name = circuit.name();
    let faults = transition_universe(circuit);
    let mut sim = TransitionFaultSim::with_faults(Arc::clone(circuit), faults.clone());
    let mut fast: Vec<Option<usize>> = vec![None; faults.len()];
    for (n, v) in sequence.iter().enumerate() {
        for f in sim.step(v).newly_detected {
            assert_eq!(fast[f.index()], None, "{name}: fault {f:?} detected twice");
            fast[f.index()] = Some(n);
        }
    }

    for (idx, &fault) in faults.iter().enumerate() {
        let expect = reference_detects(circuit, fault, sequence);
        assert_eq!(
            fast[idx],
            expect,
            "{name}: transition fault {} disagrees with the reference",
            fault.display(circuit)
        );
    }
    fast.iter().filter(|d| d.is_some()).count()
}

#[test]
fn s27_transition_sim_matches_reference() {
    cross_validate("s27", 32, 1);
}

#[test]
fn s298_transition_sim_matches_reference() {
    cross_validate("s298", 16, 2);
}

#[test]
fn s386_transition_sim_matches_reference() {
    cross_validate("s386", 12, 3);
}

proptest! {
    // Each case runs the scalar reference once per fault.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seed-built synthetic circuits with hundreds of transition faults, so
    /// every step spans several 64-lane groups and launches land in many
    /// lanes of one group: the packed simulator still matches the reference
    /// fault by fault and vector by vector.
    #[test]
    fn synthetic_circuits_match_reference(
        seed in any::<u64>(),
        inputs in 3usize..9,
        dffs in 4usize..12,
        gates in 90usize..180,
        vectors in 12usize..24,
    ) {
        let depth = (dffs as u32).min(4);
        let profile = CircuitProfile {
            name: format!("synth_{seed:016x}"),
            inputs,
            outputs: 4,
            dffs,
            gates,
            seq_depth: depth,
        };
        let circuit = Arc::new(SyntheticGenerator::new(seed).generate(&profile));
        let nfaults = transition_universe(&circuit).len();
        prop_assert!(nfaults > 3 * 64, "{} faults span too few groups", nfaults);
        let pis = circuit.num_inputs();
        // Zero-hold initializes a synthetic machine within its depth.
        let mut sequence = vec![vec![Logic::Zero; pis]; depth as usize + 2];
        sequence.extend(random_sequence(pis, vectors, seed ^ 0x5eed));
        let detected = check_against_reference(&circuit, &sequence);
        prop_assert!(detected > 64, "only {} of {} faults detected", detected, nfaults);
    }
}

/// A zero-hold prefix of the circuit's sequential depth plus 2 initializes
/// s298, so the comparison covers hundreds of detections rather than the
/// handful an uninitialized machine allows.
fn initialized_s298(vectors: usize, seed: u64) -> (Arc<Circuit>, Vec<Vec<Logic>>) {
    let circuit = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    let pis = circuit.num_inputs();
    let hold = sequential_depth(&circuit) as usize + 2;
    let mut sequence = vec![vec![Logic::Zero; pis]; hold];
    sequence.extend(random_sequence(pis, vectors, seed));
    (circuit, sequence)
}

#[test]
fn initialized_s298_transition_sim_matches_reference() {
    let (circuit, sequence) = initialized_s298(24, 2);
    let detected = check_against_reference(&circuit, &sequence);
    assert!(detected > 250, "only {detected} transition faults detected");
}

/// Replaying the same vectors from a checkpoint gives identical step
/// reports (detections, launches, and flip-flop effects), however many
/// times the simulator is rewound — the generator's fitness loop relies on
/// this.
#[test]
fn s298_checkpoint_replays_are_identical() {
    let (circuit, prefix) = initialized_s298(2, 7);
    let pis = circuit.num_inputs();
    let mut sim = TransitionFaultSim::new(Arc::clone(&circuit));
    for v in &prefix {
        sim.step(v);
    }
    let cp = sim.checkpoint();
    let probe = random_sequence(pis, 16, 8);
    let first: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
    assert!(
        first.iter().map(|r| r.detected()).sum::<usize>() > 100
            && first.iter().any(|r| r.ff_effect_pairs > 0),
        "the probe must exercise detection and flip-flop effects"
    );
    let after = sim.detected_count();
    for _ in 0..2 {
        sim.restore(&cp);
        let again: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
        assert_eq!(first, again);
        assert_eq!(sim.detected_count(), after);
    }
    // A rewind to the same checkpoint after a different probe still
    // replays the original one exactly.
    sim.restore(&cp);
    for v in random_sequence(pis, 5, 9) {
        sim.step(&v);
    }
    sim.restore(&cp);
    let again: Vec<_> = probe.iter().map(|v| sim.step(v)).collect();
    assert_eq!(first, again);
}
