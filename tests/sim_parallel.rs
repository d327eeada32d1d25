//! Worker-count identity: the evaluation pool splits each GA generation's
//! candidates across simulator clones, and whole runs must stay
//! byte-identical at every worker count. Pooling may change how results
//! are computed, never what they are.

use std::sync::Arc;

use gatest_core::report::result_to_json;
use gatest_core::{FaultSample, GatestConfig, TestGenerator};
use gatest_netlist::benchmarks::iscas89;

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
