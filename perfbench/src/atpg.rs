//! The whole-run ATPG workloads: set-up (parse, collapse, generator build),
//! whole GATEST runs through `TestGenerator::run`, and the output checks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gatest_core::report::result_to_json;
use gatest_core::{
    FaultSample, GatestConfig, RunControls, RunSnapshot, TestGenResult, TestGenerator,
};
use gatest_ga::Rng;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_netlist::{parse_bench, write_bench, Circuit};
use gatest_sim::{FaultList, FaultSim};
use gatest_telemetry::{RunEvent, RunObserver};

use crate::host::nproc;

/// Faults simulated per fitness evaluation: the paper's Table 6 value and
/// the CLI default.
pub const FAULT_SAMPLE: usize = 100;

/// Where a workload's circuit comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A bundled suite circuit, written out as `.bench` text.
    Bundled(&'static str),
    /// A `SyntheticGenerator` circuit of this many gates, 128 flip-flops and
    /// depth 4, generated from the workload seed.
    Synthetic { gates: usize },
}

/// How long one run of a workload goes on. Every budget is the
/// deterministic `max_evals`, never a wall-clock limit, so `detected` and
/// `vectors` do not depend on speed.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// The whole flow.
    Whole,
    /// At most this many fitness evaluations.
    Evals(u64),
    /// Phase 4 only: the run resumes from a snapshot taken when the seed
    /// entered phase 4 and makes this many more evaluations, so every seed
    /// does the same phase-4 work.
    Phase4Leg(u64),
}

/// One measured run: its GA seed, its budget, and the snapshot it resumes
/// from (`None` = the start of the flow).
#[derive(Debug)]
pub struct Leg {
    /// GA seed.
    pub seed: u64,
    /// `max_evals` of the run, counted from the start of the flow.
    pub max_evals: Option<u64>,
    /// Where the run starts.
    pub from: Option<RunSnapshot>,
}

/// One ATPG workload.
#[derive(Debug, Clone, Copy)]
pub struct AtpgWorkload {
    /// Its circuit.
    pub source: Source,
    /// GA seeds run back to back in one pass.
    pub seeds_per_pass: usize,
    /// How long each run goes on.
    pub budget: Budget,
}

/// The workload's input, built from the workload seed.
#[derive(Debug, Clone)]
pub struct Input {
    /// Circuit name.
    pub name: String,
    /// The netlist as `.bench` text: what the program is handed.
    pub bench: String,
    /// FNV-1a hash of `bench`, so a changed generator shows as a changed
    /// input.
    pub hash: u64,
    /// GA seeds of one pass.
    pub ga_seeds: Vec<u64>,
}

impl AtpgWorkload {
    /// Builds the input for `seed`: the same seed gives the same input.
    pub fn input(&self, seed: u64) -> Input {
        let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let circuit = match self.source {
            Source::Bundled(name) => {
                gatest_netlist::benchmarks::iscas89(name).expect("bundled circuit exists")
            }
            Source::Synthetic { gates } => {
                let profile = CircuitProfile {
                    name: format!("synth{}k", gates / 1000),
                    inputs: 64,
                    outputs: 32,
                    dffs: 128,
                    gates,
                    seq_depth: 4,
                };
                SyntheticGenerator::new(rng.next_u64()).generate(&profile)
            }
        };
        let bench = write_bench(&circuit);
        let ga_seeds = (0..self.seeds_per_pass)
            .map(|_| 1 + rng.below(1_000_000) as u64)
            .collect();
        Input {
            name: circuit.name().to_string(),
            hash: fnv1a(bench.as_bytes()),
            bench,
            ga_seeds,
        }
    }
}

impl AtpgWorkload {
    /// The measured runs of one pass. A phase-4 leg first runs the seed's
    /// vector phases, unmeasured, to take its snapshot.
    pub fn legs(&self, input: &Input) -> Vec<Leg> {
        input
            .ga_seeds
            .iter()
            .map(|&seed| match self.budget {
                Budget::Whole => Leg {
                    seed,
                    max_evals: None,
                    from: None,
                },
                Budget::Evals(n) => Leg {
                    seed,
                    max_evals: Some(n),
                    from: None,
                },
                Budget::Phase4Leg(n) => {
                    let (evals, from) = run_to_phase4(input, seed);
                    Leg {
                        seed,
                        max_evals: Some(evals + n),
                        from,
                    }
                }
            })
            .collect()
    }
}

/// Stops a run once it enters phase 4.
struct StopAtPhase4(Arc<AtomicBool>);

impl RunObserver for StopAtPhase4 {
    fn on_event(&self, event: &RunEvent) {
        if matches!(event, RunEvent::PhaseEntered { phase: 4, .. }) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// Runs `ga_seed` until its first phase-4 invocation has evaluated its
/// initial population (the run stops at the next tick boundary after
/// entering phase 4). Returns the evaluations made by then and the snapshot
/// to resume from, which is `None` if the run finished before phase 4.
fn run_to_phase4(input: &Input, ga_seed: u64) -> (u64, Option<RunSnapshot>) {
    let stop = Arc::new(AtomicBool::new(false));
    let (generator, _) = setup(input, ga_seed, None);
    let mut generator = generator.with_observer(Arc::new(StopAtPhase4(Arc::clone(&stop))));
    let controls = RunControls {
        stop: Some(stop),
        ..RunControls::default()
    };
    let (result, snapshot) = generator.run_preemptible(&controls);
    (result.ga_evaluations as u64, snapshot)
}

/// The configuration of one run: the paper's settings for the circuit with
/// only the seed, the fault sample, the thread count and the evaluation
/// budget pinned. Every other execution option keeps its default.
pub fn config(circuit: &Circuit, ga_seed: u64, max_evals: Option<u64>) -> GatestConfig {
    let mut config = GatestConfig::for_circuit(circuit)
        .with_seed(ga_seed)
        .with_workers(nproc());
    config.fault_sample = FaultSample::Count(FAULT_SAMPLE);
    config.max_evals = max_evals;
    config
}

/// The execution options the run resolved to, for the record.
pub fn resolved_options(config: &GatestConfig) -> String {
    format!(
        "workers={} sim_threads={} sim_width={} fault_shards={} eval_cache_entries={} dedup={} sample={:?} max_evals={:?}",
        config.resolved_workers(),
        config.resolved_sim_threads(),
        config.sim_width.resolved().name(),
        config.resolved_fault_shards(),
        config.eval_cache_entries,
        config.dedup,
        config.fault_sample,
        config.max_evals
    )
}

/// Set-up as a user pays it: parse the netlist, collapse the fault list,
/// build the generator.
pub fn setup(input: &Input, ga_seed: u64, max_evals: Option<u64>) -> (TestGenerator, Duration) {
    let start = Instant::now();
    let circuit =
        Arc::new(parse_bench(&input.name, &input.bench).expect("generated netlist parses"));
    let faults = FaultList::collapsed(&circuit);
    let config = config(&circuit, ga_seed, max_evals);
    let generator = TestGenerator::with_faults(circuit, faults, config);
    (generator, start.elapsed())
}

/// One finished run.
#[derive(Debug)]
pub struct RunOut {
    /// Set-up time.
    pub setup: Duration,
    /// When the run call began.
    pub started: Instant,
    /// Time in `TestGenerator::run` (or `resume`).
    pub wall: Duration,
    /// The result's canonical bytes.
    pub json: String,
    /// The full result.
    pub result: TestGenResult,
}

/// Sets up and runs one leg, optionally observed.
pub fn run_one(input: &Input, leg: &Leg, observer: Option<Arc<dyn RunObserver>>) -> RunOut {
    let (generator, setup) = setup(input, leg.seed, leg.max_evals);
    let mut generator = match observer {
        Some(o) => generator.with_observer(o),
        None => generator,
    };
    let start = Instant::now();
    let result = match &leg.from {
        Some(snapshot) => generator
            .resume(snapshot, &RunControls::default())
            .expect("a snapshot of the same input and seed resumes"),
        None => generator.run(),
    };
    let wall = start.elapsed();
    RunOut {
        setup,
        started: start,
        wall,
        json: result_to_json(&result),
        result,
    }
}

/// Re-grades a test set with a plain full-list `FaultSim::step` loop — no
/// sampling, memo, pool or window path — and returns the faults detected.
pub fn regrade(input: &Input, test_set: &[Vec<gatest_sim::Logic>]) -> usize {
    let circuit =
        Arc::new(parse_bench(&input.name, &input.bench).expect("generated netlist parses"));
    let mut sim = FaultSim::new(circuit);
    for vector in test_set {
        sim.step(vector);
    }
    sim.detected_count()
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
