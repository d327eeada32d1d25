//! Workload runners: the untraced runs behind the end-to-end metrics, and
//! the separate traced runs behind the per-layer metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gatest_core::{TestGenResult, TestGenerator};
use gatest_netlist::depth::sequential_depth;
use gatest_netlist::parse_bench;
use gatest_serve::{JobSpec, DEFAULT_SLICE_TICKS};
use gatest_sim::{FaultList, ShardedFaultSim};
use gatest_telemetry::CounterSnapshot;

use crate::atpg::{self, AtpgWorkload, Budget, Input, Leg, Source};
use crate::replay::{self, PhaseTimes, Replay};
use crate::report::Report;
use crate::serve::{self, LoopOut, Mix};
use crate::stats::{highest_supported_percentile, median, percentile, samples_beyond};
use crate::trace::{
    committed_sequences, per_phase_generations, spans_from_marks, EventClock, Tracer,
};
use crate::Args;

/// Least number of processes `setup_s` is measured in. On a shared host,
/// set-up time switches between a fast and a ~1.6× slower state, in
/// stretches from a few set-ups to minutes, whatever the process. So the
/// child processes are spread over the run and `setup_s` is the fastest
/// set-up of them all: its cost when the host lets it run at full speed.
const SETUP_PROCESSES: usize = 16;
/// Set-ups timed in each of those processes.
const SETUP_REPS: usize = 9;
/// Set-ups timed layer by layer in the traced run.
const TRACED_SETUP_REPS: usize = 5;

/// The three ATPG workloads.
fn atpg_def(name: &str) -> AtpgWorkload {
    match name {
        // The whole flow on s1423 takes 35–52 s depending on the seed (how
        // many vectors the vector phases commit and how many sequences phase
        // 4 tries), a spread no bound absorbs, so each seed gets the same
        // phase-4 work instead, from its own phase-4 entry.
        "atpg_s1423" => AtpgWorkload {
            source: Source::Bundled("s1423"),
            seeds_per_pass: 12,
            budget: Budget::Phase4Leg(2_000),
        },
        "atpg_s298" => AtpgWorkload {
            source: Source::Bundled("s298"),
            seeds_per_pass: 16,
            budget: Budget::Whole,
        },
        "atpg_synth10k" => AtpgWorkload {
            source: Source::Synthetic { gates: 10_000 },
            seeds_per_pass: 1,
            budget: Budget::Evals(6_000),
        },
        other => unreachable!("not an ATPG workload: {other}"),
    }
}

/// The open loop's traffic: s27 jobs plus s298 and s344 jobs under an
/// evaluation budget, at a fixed rate well below what two runners can
/// serve. The shares put p50 in the middle of the s298 jobs and p90 inside
/// the s344 jobs, away from the boundaries between job kinds, and keep both
/// off the millisecond-scale s27 latencies, which thread wake-ups on the
/// host dominate.
const SERVE_MIX: Mix = Mix {
    rate: 20.0,
    min_jobs: 110,
    s298_share: 0.3,
    s344_share: 0.35,
    heavy_max_evals: 3_000,
    ga_seeds: 8,
};

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn record_input(report: &mut Report, input: &Input, legs: &[Leg]) {
    report.info("circuit", &input.name);
    report.info("netlist_fnv1a", format!("{:016x}", input.hash));
    report.info("netlist_bytes", input.bench.len());
    report.info("ga_seeds", format!("{:?}", input.ga_seeds));
    let circuit = parse_bench(&input.name, &input.bench).expect("generated netlist parses");
    report.info("gates", circuit.num_gates());
    report.info("dffs", circuit.num_dffs());
    report.info("depth", sequential_depth(&circuit));
    report.info("faults", FaultList::collapsed(&circuit).len());
    report.info(
        "options",
        atpg::resolved_options(&atpg::config(&circuit, legs[0].seed, legs[0].max_evals)),
    );
    report.info(
        "legs",
        legs.iter()
            .map(|l| {
                let from = if l.from.is_some() { "phase 4" } else { "start" };
                format!("seed {} from {from} to max_evals {:?}", l.seed, l.max_evals)
            })
            .collect::<Vec<_>>()
            .join("; "),
    );
}

/// Checks one finished run: a plain re-grade must reproduce `detected`,
/// and, given a reference, the result bytes must match it.
fn check_run(
    input: &Input,
    out: &atpg::RunOut,
    reference: Option<&str>,
    what: &str,
) -> Option<String> {
    if let Some(r) = reference {
        if r != out.json {
            return Some(format!(
                "{what}: result bytes differ from the first run of the seed"
            ));
        }
        return None;
    }
    let regraded = atpg::regrade(input, &out.result.test_set);
    (regraded != out.result.detected).then(|| {
        format!(
            "{what}: re-grading the test set detects {regraded}, the run reported {}",
            out.result.detected
        )
    })
}

/// `perfbench setup --workload <name> --seed <n>`: [`SETUP_REPS`] set-ups
/// timed in this process, in seconds.
pub fn setup_samples(workload: &str, seed: u64) -> Vec<f64> {
    if workload == "serve_open" {
        (0..SETUP_REPS).map(|_| secs(serve::setup_once())).collect()
    } else {
        let input = atpg_def(workload).input(seed);
        (0..SETUP_REPS)
            .map(|_| secs(atpg::setup(&input, input.ga_seeds[0], None).1))
            .collect()
    }
}

/// `setup_s`, measured in child processes at `points` moments of a run.
struct SetupSampler<'a> {
    args: &'a Args,
    per_point: usize,
    processes: usize,
    samples: Vec<f64>,
}

impl<'a> SetupSampler<'a> {
    fn new(args: &'a Args, points: usize) -> Self {
        SetupSampler {
            args,
            per_point: SETUP_PROCESSES.div_ceil(points),
            processes: 0,
            samples: Vec::new(),
        }
    }

    /// Runs one point's child processes, each timing [`SETUP_REPS`]
    /// set-ups.
    fn sample(&mut self) {
        let exe = std::env::current_exe().expect("the running executable has a path");
        for _ in 0..self.per_point {
            let out = std::process::Command::new(&exe)
                .args(["setup", "--workload", &self.args.workload, "--seed"])
                .arg(self.args.seed.to_string())
                .output()
                .expect("set-up child process runs");
            assert!(out.status.success(), "set-up child failed: {out:?}");
            self.processes += 1;
            self.samples.extend(
                String::from_utf8_lossy(&out.stdout)
                    .split_whitespace()
                    .map(|x| x.parse::<f64>().expect("set-up child prints seconds")),
            );
        }
    }

    /// Reports `setup_s`: the fastest set-up.
    fn report(&self, report: &mut Report) {
        report.e2e(
            "setup_s",
            "s",
            self.samples.iter().copied().fold(f64::INFINITY, f64::min),
            self.samples.len(),
        );
        if let Some(m) = report.end_to_end.last_mut() {
            m.note = format!(
                "fastest set-up in {} processes; median {:.6} s",
                self.processes,
                median(&self.samples)
            );
        }
    }
}

/// `--workload atpg_*`.
pub fn atpg_workload(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let w = atpg_def(&args.workload);
    let input = w.input(args.seed);
    let legs = w.legs(&input);
    record_input(report, &input, &legs);
    if args.traced {
        let t = traced_atpg(&input, &legs, report, tracer);
        overhead_metric(report, t.wall_untraced, t.wall_traced);
        explained_metrics(report, t.explained_s, t.wall_traced);
        report.info("result_fnv1a", t.result_hashes);
        idle_serve_layers(report);
        return;
    }

    // Set-ups are timed before the loop and after every leg, outside every
    // timed run.
    let mut setups = SetupSampler::new(args, legs.len() + 1);
    setups.sample();
    let start = Instant::now();
    let mut pass_walls = Vec::new();
    let mut latencies = Vec::new();
    let mut first: Vec<atpg::RunOut> = Vec::new();
    while pass_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let mut wall = 0.0;
        for (i, leg) in legs.iter().enumerate() {
            let out = atpg::run_one(&input, leg, None);
            latencies.push(secs(out.setup + out.wall));
            wall += secs(out.wall);
            let what = format!("GA seed {} pass {}", leg.seed, pass_walls.len() + 1);
            let reference = first.get(i).map(|r| r.json.as_str());
            report.check(check_run(&input, &out, reference, &what));
            if first.len() == i {
                first.push(out);
            }
            setups.sample();
        }
        pass_walls.push(wall);
    }
    report.info("result_fnv1a", result_hashes(&legs, &first));
    let detected: usize = first.iter().map(|r| r.result.detected).sum();
    let vectors: usize = first.iter().map(|r| r.result.vectors()).sum();
    report.info(
        "per_seed",
        first
            .iter()
            .map(|r| {
                format!(
                    "{}/{} {}v",
                    r.result.detected,
                    r.result.total_faults,
                    r.result.vectors()
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    report.e2e("wall_s", "s", median(&pass_walls), pass_walls.len());
    setups.report(report);
    report.e2e("peak_rss_mb", "MB", crate::host::peak_rss_mb(), 1);
    report.e2e("detected", "faults", detected as f64, 1);
    report.e2e("vectors", "vectors", vectors as f64, 1);
    latency_metrics(report, &latencies, latencies.iter().sum::<f64>());
}

/// Each GA seed's FNV-1a hash of its result bytes, so `perfbench compare`
/// can check that two records of one workload seed produced the same bytes.
fn result_hashes(legs: &[Leg], outs: &[atpg::RunOut]) -> String {
    legs.iter()
        .zip(outs)
        .map(|(leg, out)| format!("{}:{:016x}", leg.seed, atpg::fnv1a(out.json.as_bytes())))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The FNV-1a hash of every served result, in schedule order.
fn served_hash(out: &LoopOut) -> String {
    let bytes: Vec<u8> = out
        .jobs
        .iter()
        .flat_map(|j| j.result.as_deref().unwrap_or("").bytes())
        .collect();
    format!("{:016x}", atpg::fnv1a(&bytes))
}

/// `jobs_per_min` and the p50/p90 job latency; on the ATPG workloads a job
/// is one GA run in a closed loop, so its latency is its set-up plus run.
fn latency_metrics(report: &mut Report, latencies: &[f64], busy_s: f64) {
    let n = latencies.len();
    report.e2e("jobs_per_min", "1/min", n as f64 / busy_s * 60.0, n);
    report.e2e("job_latency_p50_s", "s", median(latencies), n);
    report.e2e("job_latency_p90_s", "s", percentile(latencies, 90.0), n);
    let supported = highest_supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
    if let Some(m) = report.end_to_end.last_mut() {
        m.note = format!(
            "{} samples beyond p90; highest percentile with ten beyond: {supported}",
            samples_beyond(n, 90.0)
        );
    }
}

/// What the traced ATPG runs hand to the overhead metrics.
struct TracedOut {
    /// [`result_hashes`] of the untraced pass.
    result_hashes: String,
    wall_untraced: f64,
    wall_traced: f64,
    explained_s: f64,
}

#[derive(Default)]
struct Counts {
    steps: u64,
    restores: u64,
    gate_evals: u64,
    fault_events: u64,
    pool_idle_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    dedup_skips: u64,
    prefix_frames: u64,
    window_frames: u64,
}

impl Counts {
    /// Adds (`sign` 1) or takes away (`sign` -1) one snapshot's counts.
    fn add(&mut self, c: &CounterSnapshot, sign: i64) {
        let fields = [
            (&mut self.steps, c.step_calls),
            (&mut self.restores, c.checkpoint_restores),
            (&mut self.gate_evals, c.gate_evals),
            (&mut self.fault_events, c.faulty_events),
            (&mut self.pool_idle_ns, c.pool_idle_ns),
            (&mut self.cache_hits, c.cache_hits),
            (&mut self.cache_misses, c.cache_misses),
            (&mut self.dedup_skips, c.dedup_skips),
            (&mut self.prefix_frames, c.prefix_frames_avoided),
            (&mut self.window_frames, c.commit_batch_frames),
        ];
        for (total, n) in fields {
            *total = total.wrapping_add_signed(sign * n as i64);
        }
    }
}

/// Set-up layer by layer, an untraced pass, a traced pass with phase,
/// generation and commit spans from the generator's events, and a layer
/// replay of the first seed's run. Reports every netlist, sim, core,
/// evalpool and ga metric.
fn traced_atpg(input: &Input, legs: &[Leg], report: &mut Report, tracer: &mut Tracer) -> TracedOut {
    // Set-up, one public call at a time.
    let setup_root = tracer.open("setup", None, 0);
    for _ in 0..TRACED_SETUP_REPS {
        let rep = tracer.open("setup.rep", Some(setup_root), 0);
        let circuit = tracer.time("netlist.load", Some(rep), 0, || {
            Arc::new(parse_bench(&input.name, &input.bench).expect("generated netlist parses"))
        });
        tracer.time("netlist.depth", Some(rep), 0, || {
            std::hint::black_box(sequential_depth(&circuit))
        });
        let faults = tracer.time("sim.collapse", Some(rep), 0, || {
            FaultList::collapsed(&circuit)
        });
        let config = atpg::config(&circuit, legs[0].seed, legs[0].max_evals);
        let spare = faults.clone();
        tracer.time("sim.build", Some(rep), 0, || {
            std::hint::black_box(ShardedFaultSim::with_shards(
                Arc::clone(&circuit),
                spare,
                config.resolved_fault_shards(),
            ))
        });
        tracer.time("core.generator.new", Some(rep), 0, || {
            std::hint::black_box(TestGenerator::with_faults(circuit, faults, config))
        });
        tracer.close(rep);
    }
    tracer.close(setup_root);
    for (name, metric) in [
        ("netlist.load", "netlist.load_s"),
        ("netlist.depth", "netlist.depth_s"),
        ("sim.collapse", "sim.collapse_s"),
        ("sim.build", "sim.build_s"),
        ("core.generator.new", "core.generator.new_s"),
    ] {
        report.layer(
            metric,
            "s",
            median(&tracer.durations_s(name)),
            &format!("median of {TRACED_SETUP_REPS} set-ups"),
        );
    }

    // The untraced pass: the base for the overhead and the reference bytes.
    let untraced: Vec<atpg::RunOut> = legs
        .iter()
        .map(|leg| atpg::run_one(input, leg, None))
        .collect();
    let wall_untraced: f64 = untraced.iter().map(|r| secs(r.wall)).sum();

    // The traced pass.
    let mut wall_traced = 0.0;
    let mut gens = [0u64; 4];
    let mut evals = [0u64; 4];
    let mut counts = Counts::default();
    let mut ga_evals = 0u64;
    let mut first: Option<(TestGenResult, Vec<(usize, usize)>)> = None;
    for (i, leg) in legs.iter().enumerate() {
        let run = i as u32 + 1;
        let clock = Arc::new(EventClock::default());
        let out = atpg::run_one(input, leg, Some(clock.clone()));
        let span = tracer.record("core.run", None, run, out.started, out.started + out.wall);
        wall_traced += secs(out.wall);
        let marks = clock.take();
        spans_from_marks(tracer, span, run, out.started, &marks);
        let sequences = committed_sequences(&marks);
        let (g, e) = per_phase_generations(&marks);
        for p in 0..4 {
            gens[p] += g[p];
            evals[p] += e[p];
        }
        // A resumed leg's counters continue the snapshot's: count the leg.
        counts.add(&out.result.telemetry.counters, 1);
        ga_evals += out.result.ga_evaluations as u64;
        if let Some(from) = &leg.from {
            counts.add(&from.counters, -1);
            ga_evals -= from.ga_evaluations;
        }
        let what = format!("traced GA seed {}", leg.seed);
        report.check(
            check_run(input, &out, Some(&untraced[i].json), &what)
                .or_else(|| check_run(input, &out, None, &what)),
        );
        if first.is_none() {
            first = Some((out.result, sequences));
        }
    }

    // The layer replay of the first seed's run.
    let (result, sequences) = first.expect("at least one GA seed");
    let circuit =
        Arc::new(parse_bench(&input.name, &input.bench).expect("generated netlist parses"));
    let faults = FaultList::collapsed(&circuit);
    let config = atpg::config(&circuit, legs[0].seed, legs[0].max_evals);
    let replay_span = tracer.open("replay", None, 1000);
    let rp = replay::replay(
        tracer,
        replay_span,
        1000,
        &circuit,
        faults,
        &config,
        &result,
        &sequences,
        legs[0].seed ^ 0x7265_706c_6179,
    );
    tracer.close(replay_span);

    let explained_s = layer_metrics(
        report,
        tracer,
        &rp,
        &gens,
        &evals,
        &counts,
        ga_evals,
        config.resolved_workers(),
    );
    TracedOut {
        result_hashes: result_hashes(legs, &untraced),
        wall_untraced,
        wall_traced,
        explained_s,
    }
}

/// Reports the core, evalpool, sim and ga metrics; returns the seconds the
/// blocking layers explain (eval batches, memo, breeding, commits).
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    rp: &Replay,
    gens: &[u64; 4],
    evals: &[u64; 4],
    counts: &Counts,
    ga_evals: u64,
    workers: usize,
) -> f64 {
    for (p, name) in [
        "core.phase1_s",
        "core.phase2_s",
        "core.phase3_s",
        "core.phase4_s",
    ]
    .into_iter()
    .enumerate()
    {
        report.layer(
            name,
            "s",
            tracer.total_s(&format!("core.phase{}", p + 1)),
            &format!("{} generations, {} evaluations", gens[p], evals[p]),
        );
    }
    let commit_s = tracer.total_s("core.commit");
    report.layer(
        "core.generations",
        "count",
        gens.iter().sum::<u64>() as f64,
        "GaGenerationEvaluated events",
    );
    report.layer(
        "core.commits",
        "count",
        tracer.count("core.commit") as f64,
        "VectorCommitted events",
    );
    report.layer(
        "core.commit_s",
        "s",
        commit_s,
        "previous event to VectorCommitted",
    );

    // The real run says how much time each replayed phase spent in its
    // generations (breeding plus evaluation, between the generator's own
    // events); the replay says how a generation splits between the pool,
    // the memo and breeding, and how a candidate's evaluation splits
    // between restore and steps. So the estimates never exceed what the run
    // measured. Phase 1 scores through the generator's private packed path,
    // which the replay does not cover, so its time stays unexplained.
    let ph = &rp.phases;
    let gen_s: Vec<f64> = ["core.phase1", "core.phase2", "core.phase3", "core.phase4"]
        .iter()
        .map(|phase| tracer.total_under_s("core.generation", phase))
        .collect();
    let replayed: Vec<usize> = (1..4)
        .filter(|&p| ph[p].batches > 0 && gen_s[p] > 0.0)
        .collect();
    let split = |f: &dyn Fn(&PhaseTimes) -> f64| -> f64 {
        replayed.iter().map(|&p| f(&ph[p]) * gen_s[p]).sum()
    };
    let batches: u64 = replayed.iter().map(|&p| gens[p]).sum();
    let batch_s = split(&PhaseTimes::batch_share);
    let memo_s = split(&PhaseTimes::memo_share);
    let breed_s = split(&PhaseTimes::breed_share);
    // Workers busy on average through a batch: all of them, less the idle
    // time the run counted.
    let idle_s = counts.pool_idle_ns as f64 / 1e9;
    let share = |x: f64, total: f64| if total > 0.0 { x / total } else { 0.0 };
    let busy_workers = workers as f64 * (1.0 - share(idle_s, workers as f64 * batch_s)).max(0.0);
    let step_s = busy_workers * split(&|t| t.batch_share() * t.step_share());
    let restore_s = busy_workers * split(&|t| t.batch_share() * t.restore_share());
    let window_s = if rp.window_frames > 0 {
        rp.window_ns as f64 / 1e9 / rp.window_frames as f64 * counts.window_frames as f64
    } else {
        0.0
    };
    let lanes_used: u64 = ph.iter().map(|t| t.lanes_used).sum();
    let lane_slots: u64 = ph.iter().map(|t| t.lane_slots).sum();
    let lookups = counts.cache_hits + counts.cache_misses;
    let timed_steps: u64 = ph.iter().map(|t| t.steps).sum();
    let basis = format!(
        "replay split of {:.4} s of generations in phases {:?}",
        replayed.iter().map(|&p| gen_s[p]).sum::<f64>(),
        replayed.iter().map(|p| p + 1).collect::<Vec<_>>()
    );
    let sim_basis = format!(
        "replay split ({timed_steps} timed steps) of {:.4} s pool busy time",
        busy_workers * batch_s
    );

    report.layer("evalpool.batch_s", "s", batch_s, &basis);
    report.layer(
        "evalpool.batches",
        "count",
        batches as f64,
        "generations in the replayed phases",
    );
    report.layer(
        "evalpool.idle_frac",
        "ratio",
        share(idle_s, workers as f64 * batch_s),
        &format!("evalpool.idle_s ÷ ({workers} workers × evalpool.batch_s)"),
    );
    report.layer("evalpool.idle_s", "s", idle_s, "pool_idle_ns counter");
    report.layer("evalpool.memo_s", "s", memo_s, &basis);
    report.layer(
        "evalpool.memo_hit_ratio",
        "ratio",
        share(counts.cache_hits as f64, lookups as f64),
        &format!("{} hits ÷ evalpool.memo_lookups", counts.cache_hits),
    );
    report.layer(
        "evalpool.memo_lookups",
        "count",
        lookups as f64,
        "hits + misses",
    );
    report.layer(
        "evalpool.dedup_skips",
        "count",
        counts.dedup_skips as f64,
        "counter",
    );
    report.layer(
        "evalpool.prefix_frames_saved",
        "count",
        counts.prefix_frames as f64,
        "prefix_frames_avoided counter",
    );
    report.layer("sim.step_s", "s", step_s, &sim_basis);
    report.layer(
        "sim.steps",
        "count",
        counts.steps as f64,
        "step_calls counter",
    );
    report.layer(
        "sim.gate_evals",
        "count",
        counts.gate_evals as f64,
        "counter",
    );
    report.layer(
        "sim.fault_events",
        "count",
        counts.fault_events as f64,
        "faulty_events counter",
    );
    report.layer(
        "sim.events_per_s",
        "1/s",
        share(counts.fault_events as f64, step_s),
        "sim.fault_events ÷ sim.step_s",
    );
    report.layer("sim.restore_s", "s", restore_s, &sim_basis);
    report.layer(
        "sim.restores",
        "count",
        counts.restores as f64,
        "checkpoint_restores counter",
    );
    report.layer(
        "sim.step_window_s",
        "s",
        window_s,
        &format!(
            "replay per-frame mean × {} committed window frames",
            counts.window_frames
        ),
    );
    report.layer(
        "sim.lane_fill",
        "ratio",
        share(lanes_used as f64, lane_slots as f64),
        &format!("{lanes_used} live sampled faults ÷ {lane_slots} packed lane slots"),
    );
    report.layer("ga.breed_s", "s", breed_s, &basis);
    report.layer("ga.evals", "count", ga_evals as f64, "ga_evaluations");
    batch_s + memo_s + breed_s + commit_s
}

/// `telemetry.trace_overhead_frac` and its base.
fn overhead_metric(report: &mut Report, wall_untraced: f64, wall_traced: f64) {
    report.layer(
        "telemetry.trace_overhead_frac",
        "ratio",
        (wall_traced - wall_untraced) / wall_untraced,
        &format!("(traced {wall_traced:.4} s − untraced {wall_untraced:.4} s) ÷ untraced"),
    );
    report.layer(
        "telemetry.wall_untraced_s",
        "s",
        wall_untraced,
        "base of the overhead",
    );
}

/// How much of the traced ATPG wall time the layer estimates explain, and
/// the unexplained remainder.
fn explained_metrics(report: &mut Report, explained_s: f64, wall_traced: f64) {
    report.layer(
        "telemetry.explained_frac",
        "ratio",
        explained_s / wall_traced,
        &format!("{explained_s:.4} s of layer estimates ÷ {wall_traced:.4} s traced"),
    );
    report.layer(
        "telemetry.unexplained_s",
        "s",
        wall_traced - explained_s,
        "traced wall − explained",
    );
}

/// Checks every served result against a standalone run of its spec.
fn check_jobs(
    report: &mut Report,
    plan: &[serve::Planned],
    out: &LoopOut,
    standalone: &mut serve::Standalone,
    reference: Option<&LoopOut>,
) {
    for (i, (p, job)) in plan.iter().zip(&out.jobs).enumerate() {
        let error = match (&job.error, &job.result) {
            (Some(e), _) => Some(format!("job {i} ({}): {e}", p.spec.circuit)),
            (None, None) => Some(format!("job {i}: no result")),
            (None, Some(bytes)) => {
                if *bytes != standalone.bytes(&p.spec) {
                    Some(format!(
                        "job {i} ({} seed {}): served bytes differ from a standalone run",
                        p.spec.circuit, p.spec.seed
                    ))
                } else if reference.is_some_and(|r| r.jobs[i].result.as_ref() != Some(bytes)) {
                    Some(format!("job {i}: traced and untraced results differ"))
                } else {
                    None
                }
            }
        };
        report.check(error);
    }
}

fn sum_field(out: &LoopOut, key: &str) -> f64 {
    out.jobs
        .iter()
        .filter_map(|j| j.result.as_deref())
        .filter_map(|r| gatest_telemetry::json::parse_json(r.trim()).ok())
        .filter_map(|j| j.get(key).and_then(|v| v.as_f64()))
        .sum()
}

/// `--workload serve_open`.
pub fn serve_workload(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let plan = serve::schedule(&SERVE_MIX, args.seed, args.seconds);
    let heavy = plan.iter().filter(|p| p.spec.circuit != "s27").count();
    report.info("jobs", plan.len());
    report.info("heavy_jobs", heavy);
    report.info("rate_per_s", SERVE_MIX.rate);
    report.info("runners", crate::host::nproc());
    report.info("slice_ticks", DEFAULT_SLICE_TICKS);
    report.info("loop", "open, one client connection at a time");
    let mut standalone = serve::Standalone::default();
    if args.traced {
        let untraced = serve::open_loop(&plan, None);
        let root = tracer.open("serve.loop", None, 2000);
        let traced = serve::open_loop(&plan, Some((tracer, root, 2000)));
        tracer.close(root);
        check_jobs(report, &plan, &traced, &mut standalone, Some(&untraced));
        report.info("result_fnv1a", served_hash(&untraced));
        let first_heavy = plan
            .iter()
            .find(|p| p.spec.circuit != "s27")
            .map(|p| p.spec.clone())
            .expect("the mix has heavy jobs");
        serve_layers(report, tracer, &traced, &first_heavy);
        // The core, sim, evalpool and ga layers of one heavy job's spec,
        // run standalone at the benchmark's thread count.
        let w = AtpgWorkload {
            source: Source::Bundled(if first_heavy.circuit == "s298" {
                "s298"
            } else {
                "s344"
            }),
            seeds_per_pass: 1,
            budget: Budget::Evals(SERVE_MIX.heavy_max_evals),
        };
        let mut input = w.input(args.seed);
        input.ga_seeds = vec![first_heavy.seed];
        let legs = w.legs(&input);
        record_input(report, &input, &legs);
        let t = traced_atpg(&input, &legs, report, tracer);
        overhead_metric(report, untraced.wall_s, traced.wall_s);
        explained_metrics(report, t.explained_s, t.wall_traced);
        return;
    }

    let mut setups = SetupSampler::new(args, 2);
    setups.sample();
    let out = serve::open_loop(&plan, None);
    setups.sample();
    check_jobs(report, &plan, &out, &mut standalone, None);
    report.info("result_fnv1a", served_hash(&out));
    let latencies = serve::latencies(&out);
    report.e2e("wall_s", "s", out.wall_s, 1);
    setups.report(report);
    report.e2e("peak_rss_mb", "MB", crate::host::peak_rss_mb(), 1);
    report.e2e(
        "detected",
        "faults",
        sum_field(&out, "detected"),
        latencies.len(),
    );
    report.e2e(
        "vectors",
        "vectors",
        sum_field(&out, "vectors"),
        latencies.len(),
    );
    let n = latencies.len();
    report.e2e("jobs_per_min", "1/min", n as f64 / out.wall_s * 60.0, n);
    report.e2e("job_latency_p50_s", "s", median(&latencies), n);
    report.e2e("job_latency_p90_s", "s", percentile(&latencies, 90.0), n);
    for circuit in ["s27", "s298", "s344"] {
        let l: Vec<f64> = plan
            .iter()
            .zip(&out.jobs)
            .filter(|(p, _)| p.spec.circuit == circuit)
            .filter_map(|(_, j)| j.fetched_s.map(|f| f - j.due_s))
            .collect();
        if !l.is_empty() {
            report.info(&format!("latency_p50_{circuit}_s"), median(&l));
        }
    }
    let lags = serve::lags_ms(&out);
    report.info("gen_lag_p99_ms", percentile(&lags, 99.0));
    report.info("gen_lag_max_ms", lags.iter().copied().fold(0.0, f64::max));
}

/// `serve.*` from one open loop plus a slice replay of `spec`.
fn serve_layers(report: &mut Report, tracer: &mut Tracer, out: &LoopOut, spec: &JobSpec) {
    let submit_ms: Vec<f64> = out.jobs.iter().map(|j| j.submit_s * 1e3).collect();
    let waits: Vec<f64> = out
        .jobs
        .iter()
        .filter_map(|j| j.dequeued_s.map(|d| d - j.sent_s))
        .collect();
    let slices: Vec<f64> = out.jobs.iter().map(|j| j.slices as f64).collect();
    let lags = serve::lags_ms(out);
    report.layer(
        "serve.submit_ms",
        "ms",
        median(&submit_ms),
        &format!("median POST /jobs round trip of {}", submit_ms.len()),
    );
    report.layer(
        "serve.queue_wait_s",
        "s",
        if waits.is_empty() {
            0.0
        } else {
            median(&waits)
        },
        "median submit to first poll seeing the job out of the queue (poll-quantized)",
    );
    report.layer(
        "serve.slices_per_job",
        "count",
        slices.iter().sum::<f64>() / slices.len().max(1) as f64,
        &format!("mean over {} jobs", slices.len()),
    );
    report.layer(
        "serve.preemptions",
        "count",
        out.preemptions,
        "gatest_serve_preemptions_total",
    );
    report.layer(
        "serve.gen_lag_p99_ms",
        "ms",
        percentile(&lags, 99.0),
        &format!("send time − due time over {} jobs", lags.len()),
    );
    report.layer(
        "serve.gen_lag_max_ms",
        "ms",
        lags.iter().copied().fold(0.0, f64::max),
        "",
    );
    let root = tracer.open("serve.slice_replay", None, 3000);
    let (slice_s, whole_s, sliced_s, identical) =
        serve::slice_replay(spec, DEFAULT_SLICE_TICKS, tracer, root, 3000);
    tracer.close(root);
    report.check((!identical).then(|| {
        format!(
            "{} seed {}: sliced result differs from the uninterrupted run",
            spec.circuit, spec.seed
        )
    }));
    let per_job = slice_s.len() as f64 / serve::SLICE_REPLAY_PAIRS as f64;
    report.layer(
        "serve.slice_s",
        "s",
        median(&slice_s),
        &format!(
            "median of {} run_slice calls on {} seed {}",
            slice_s.len(),
            spec.circuit,
            spec.seed
        ),
    );
    report.layer(
        "serve.slice_overhead_s",
        "s",
        (sliced_s - whole_s) / per_job,
        &format!(
            "(median sliced {sliced_s:.4} s − median uninterrupted {whole_s:.4} s) ÷ {per_job} slices"
        ),
    );
}

/// The serve layer does no work on the ATPG workloads, so every `serve.*`
/// metric reads 0 there, as other idle layers do.
fn idle_serve_layers(report: &mut Report) {
    for (name, unit) in [
        ("serve.submit_ms", "ms"),
        ("serve.queue_wait_s", "s"),
        ("serve.slices_per_job", "count"),
        ("serve.preemptions", "count"),
        ("serve.gen_lag_p99_ms", "ms"),
        ("serve.gen_lag_max_ms", "ms"),
        ("serve.slice_s", "s"),
        ("serve.slice_overhead_s", "s"),
    ] {
        report.layer(name, unit, 0.0, "no serve layer in this workload");
    }
}
