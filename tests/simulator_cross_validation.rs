//! Cross-validation of the packed, event-driven fault simulator against an
//! independent, brute-force scalar implementation, over several circuits of
//! the bundled suite and over seed-built synthetic circuits whose fault
//! lists span many 64-lane groups.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_netlist::benchmarks;
use gatest_netlist::depth::sequential_depth;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_netlist::levelize::Levelization;
use gatest_netlist::Circuit;
use gatest_sim::eval::eval_scalar;
use gatest_sim::{Fault, FaultList, FaultSim, FaultSite, Logic};

/// Simulates the good and single-fault machines independently, gate by
/// gate, frame by frame — no packing, no events, no sharing. Slow and
/// obviously correct. Returns the index of the first frame whose primary
/// outputs tell the two machines apart.
fn reference_detects(
    circuit: &Arc<Circuit>,
    fault: Fault,
    sequence: &[Vec<Logic>],
) -> Option<usize> {
    let lev = Levelization::new(circuit);
    let mut gvals = vec![Logic::X; circuit.num_gates()];
    let mut fvals = vec![Logic::X; circuit.num_gates()];
    let mut gstate = vec![Logic::X; circuit.num_dffs()];
    let mut fstate = vec![Logic::X; circuit.num_dffs()];
    for (frame, vec) in sequence.iter().enumerate() {
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            gvals[ff.index()] = gstate[i];
            fvals[ff.index()] = fstate[i];
        }
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            gvals[pi.index()] = vec[i];
            fvals[pi.index()] = vec[i];
        }
        if let FaultSite::Stem(net) = fault.site {
            if !circuit.kind(net).is_combinational() {
                fvals[net.index()] = fault.stuck;
            }
        }
        for &gate in lev.schedule() {
            let kind = circuit.kind(gate);
            if !kind.is_combinational() {
                continue;
            }
            let gf: Vec<Logic> = circuit
                .fanin(gate)
                .iter()
                .map(|&n| gvals[n.index()])
                .collect();
            gvals[gate.index()] = eval_scalar(kind, &gf);
            let mut ff_in: Vec<Logic> = circuit
                .fanin(gate)
                .iter()
                .map(|&n| fvals[n.index()])
                .collect();
            if let FaultSite::Branch { gate: fg, pin } = fault.site {
                if fg == gate {
                    ff_in[pin as usize] = fault.stuck;
                }
            }
            let mut out = eval_scalar(kind, &ff_in);
            if fault.site == FaultSite::Stem(gate) {
                out = fault.stuck;
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
            let mut fv = fvals[d.index()];
            if let FaultSite::Branch { gate: fg, pin } = fault.site {
                if fg == ff {
                    debug_assert_eq!(pin, 0);
                    fv = fault.stuck;
                }
            }
            fstate[i] = fv;
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

/// Cross-validates `vectors` random vectors after a zero-hold prefix of at
/// least the circuit's sequential depth plus 2, which initializes the
/// bundled machines. Returns the number of faults detected.
fn cross_validate(name: &str, vectors: usize, seed: u64) -> usize {
    let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
    let hold = (sequential_depth(&circuit) as usize + 2).max(4);
    let mut sequence = vec![vec![Logic::Zero; circuit.num_inputs()]; hold];
    sequence.extend(random_sequence(circuit.num_inputs(), vectors, seed));
    check_against_reference(&circuit, &sequence)
}

/// Steps `sequence` through a [`FaultSim`] over the collapsed fault list
/// and checks, fault by fault, that it detects exactly the faults the
/// reference detects, at the same vector. A second simulator commits the
/// same vectors in multi-frame windows (`step_window`, the generator's
/// commit path) and must agree too. Returns the number of faults detected.
fn check_against_reference(circuit: &Arc<Circuit>, sequence: &[Vec<Logic>]) -> usize {
    let name = circuit.name();
    let faults = FaultList::collapsed(circuit);
    let mut sim = FaultSim::with_faults(Arc::clone(circuit), faults.clone());
    let mut fast: Vec<Option<usize>> = vec![None; faults.len()];
    for (n, v) in sequence.iter().enumerate() {
        for f in sim.step(v).newly_detected {
            assert_eq!(fast[f.index()], None, "{name}: fault {f:?} detected twice");
            fast[f.index()] = Some(n);
        }
    }
    let mut windowed = FaultSim::with_faults(Arc::clone(circuit), faults.clone());
    let mut by_window: Vec<Option<usize>> = vec![None; faults.len()];
    let mut start = 0;
    for len in [1usize, 3, 7].into_iter().cycle() {
        if start == sequence.len() {
            break;
        }
        let end = (start + len).min(sequence.len());
        for (k, report) in windowed
            .step_window(&sequence[start..end])
            .iter()
            .enumerate()
        {
            for &f in &report.newly_detected {
                by_window[f.index()] = Some(start + k);
            }
        }
        start = end;
    }

    for (id, fault) in faults.iter() {
        let expect = reference_detects(circuit, fault, sequence);
        assert_eq!(
            fast[id.index()],
            expect,
            "{name}: fault {} disagrees with the reference",
            fault.display(circuit)
        );
        assert_eq!(
            by_window[id.index()],
            expect,
            "{name}: windowed commit of fault {} disagrees with the reference",
            fault.display(circuit)
        );
    }
    fast.iter().filter(|d| d.is_some()).count()
}

#[test]
fn s27_matches_reference() {
    cross_validate("s27", 32, 1);
}

#[test]
fn s298_matches_reference() {
    // Initialized, s298 compares hundreds of detections (514 of 700), not
    // the 11 an uninitialized machine allows.
    let detected = cross_validate("s298", 24, 2);
    assert!(detected > 400, "only {detected} faults detected");
}

#[test]
fn s344_matches_reference() {
    cross_validate("s344", 16, 3);
}

#[test]
fn s386_matches_reference() {
    cross_validate("s386", 16, 4);
}

proptest! {
    // Each case runs the brute-force reference once per fault.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seed-built synthetic circuits with hundreds of collapsed faults, so
    /// every step spans several 64-lane groups and the group merge decides
    /// detection order: the packed simulator still matches the reference
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
        let nfaults = FaultList::collapsed(&circuit).len();
        prop_assert!(nfaults > 3 * 64, "{} faults span too few groups", nfaults);
        let pis = circuit.num_inputs();
        // Zero-hold initializes a synthetic machine within its depth.
        let mut sequence = vec![vec![Logic::Zero; pis]; depth as usize + 2];
        sequence.extend(random_sequence(pis, vectors, seed ^ 0x5eed));
        let detected = check_against_reference(&circuit, &sequence);
        prop_assert!(detected > 64, "only {} of {} faults detected", detected, nfaults);
    }
}

#[test]
fn sampled_stepping_detects_subset_of_full() {
    let circuit = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    let sequence = random_sequence(circuit.num_inputs(), 32, 9);

    let mut full = FaultSim::new(Arc::clone(&circuit));
    let mut full_detected = std::collections::HashSet::new();
    for v in &sequence {
        for f in full.step(v).newly_detected {
            full_detected.insert(f);
        }
    }

    // Sample = every third fault; everything the sampled sim detects must
    // also be detected by the full sim under identical vectors.
    let mut sampled = FaultSim::new(Arc::clone(&circuit));
    let sample: Vec<_> = sampled.active_faults().iter().copied().step_by(3).collect();
    for v in &sequence {
        for f in sampled.step_sampled(v, &sample).newly_detected {
            assert!(
                full_detected.contains(&f),
                "sampled sim detected {f:?} that full sim missed"
            );
        }
    }
}
