//! Fault-group identity tests: the wide256 backend repacks the simulated
//! fault list into 256-lane groups instead of scalar64's 64-lane ones, so
//! its steps exercise a different grouping and group merge order — and
//! must still be bit-identical to scalar64: same step reports, same
//! detection order, same sparse faulty flip-flop state. Whole GA runs must
//! likewise be byte-identical at every worker count and width. Grouping
//! and pooling may change how results are computed, never what they are.

use std::sync::Arc;

use proptest::prelude::*;

use gatest_core::report::result_to_json;
use gatest_core::{FaultSample, GatestConfig, TestGenerator};
use gatest_ga::Rng;
use gatest_netlist::benchmarks::iscas89;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_sim::{FaultId, FaultSim, Logic, SimBackend, StepReport};

fn random_vector(pis: usize, rng: &mut Rng) -> Vec<Logic> {
    (0..pis).map(|_| Logic::from_bool(rng.coin())).collect()
}

/// Clears the one legitimately width-dependent report field (a wider word
/// covers more faults per gate evaluation) so everything else compares
/// bit for bit.
fn without_gate_evals(mut report: StepReport) -> StepReport {
    report.gate_evals = 0;
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The wide256 packed-parallel step is indistinguishable from scalar64
    /// on random synthetic circuits: every step report (detection order
    /// included) and every fault's sparse faulty flip-flop state match.
    #[test]
    fn parallel_step_is_bit_identical_on_random_circuits(
        seed in any::<u64>(),
        inputs in 2usize..8,
        dffs in 1usize..12,
        gates in 10usize..60,
        steps in 2usize..10,
    ) {
        let profile = CircuitProfile {
            name: format!("rand_{seed:016x}"),
            inputs,
            outputs: 2,
            dffs,
            gates,
            seq_depth: (dffs as u32).min(3),
        };
        let circuit = Arc::new(SyntheticGenerator::new(seed).generate(&profile));
        let pis = circuit.num_inputs();
        let mut vec_rng = Rng::new(seed ^ 0x5eed);
        let vectors: Vec<Vec<Logic>> =
            (0..steps).map(|_| random_vector(pis, &mut vec_rng)).collect();

        let mut scalar = FaultSim::new(Arc::clone(&circuit));
        let mut wide = FaultSim::new(Arc::clone(&circuit));
        wide.set_backend(SimBackend::Wide256);
        for (n, v) in vectors.iter().enumerate() {
            prop_assert_eq!(
                without_gate_evals(wide.step(v)),
                without_gate_evals(scalar.step(v)),
                "step {} differs at wide256",
                n
            );
        }
        prop_assert_eq!(wide.detected_count(), scalar.detected_count());
        for i in 0..scalar.fault_list().len() {
            let id = FaultId(i as u32);
            prop_assert_eq!(
                wide.faulty_ff_state(id),
                scalar.faulty_ff_state(id),
                "faulty FF state of fault {} differs at wide256",
                i
            );
        }
    }
}

/// Step-level identity on the largest tier-1 circuit: s1423 with the full
/// fault list, over a sampled vector stream, scalar64 against wide256.
/// Checks reports (detection order included) and the sparse faulty
/// flip-flop state of every fault.
#[test]
fn s1423_sampled_steps_are_bit_identical() {
    let circuit = Arc::new(iscas89("s1423").unwrap());
    let pis = circuit.num_inputs();
    let mut rng = Rng::new(11);
    let vectors: Vec<Vec<Logic>> = (0..24).map(|_| random_vector(pis, &mut rng)).collect();

    let mut scalar = FaultSim::new(Arc::clone(&circuit));
    let mut wide = FaultSim::new(Arc::clone(&circuit));
    wide.set_backend(SimBackend::Wide256);
    for (n, v) in vectors.iter().enumerate() {
        assert_eq!(
            without_gate_evals(wide.step(v)),
            without_gate_evals(scalar.step(v)),
            "step {n} differs at wide256"
        );
    }
    assert_eq!(wide.detected_count(), scalar.detected_count());
    for i in 0..scalar.fault_list().len() {
        let id = FaultId(i as u32);
        assert_eq!(
            wide.faulty_ff_state(id),
            scalar.faulty_ff_state(id),
            "faulty FF state of fault {i} differs at wide256"
        );
    }
}

/// The evaluation pool is the only thread knob: every worker count,
/// auto-detection included, reproduces the serial run's result JSON byte
/// for byte.
#[test]
fn result_json_is_byte_identical_across_worker_counts() {
    let circuit = Arc::new(iscas89("s27").unwrap());
    let run = |workers: usize| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(4)
            .with_workers(workers);
        config.fault_sample = FaultSample::Count(60);
        result_to_json(&TestGenerator::new(Arc::clone(&circuit), config).run())
    };
    let serial = run(1);
    for workers in [2usize, 8, 0] {
        assert_eq!(
            serial,
            run(workers),
            "result JSON differs at workers={workers}"
        );
    }
}

/// The packed-value backend is an execution detail exactly like the
/// worker count: whole GA runs serialize to byte-identical result JSON
/// (test set, phase trace, and score checksum included) for scalar64,
/// wide256 and auto at every worker count. s298's full fault list spans
/// several 64-fault groups, so the wide backends genuinely repack faults
/// into fewer, wider groups here — the merge order is what's under test,
/// not just the lane arithmetic.
#[test]
fn runs_are_byte_identical_across_sim_widths() {
    let circuit = Arc::new(iscas89("s298").unwrap());
    let run = |backend: SimBackend, workers: usize| {
        let mut config = GatestConfig::for_circuit(&circuit)
            .with_seed(23)
            .with_workers(workers)
            .with_sim_width(backend);
        config.fault_sample = FaultSample::Count(60);
        result_to_json(&TestGenerator::new(Arc::clone(&circuit), config).run())
    };
    let reference = run(SimBackend::Scalar64, 1);
    for workers in [1usize, 2, 8] {
        let wide = run(SimBackend::Wide256, workers);
        assert_eq!(
            reference, wide,
            "wide256 result JSON differs at workers={workers}"
        );
    }
    for workers in [1usize, 8] {
        let auto = run(SimBackend::Auto, workers);
        assert_eq!(
            reference, auto,
            "auto result JSON differs at workers={workers}"
        );
    }
}
