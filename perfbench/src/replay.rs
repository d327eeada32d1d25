//! Layer replay: restore a fresh simulator to seed-derived points along a
//! finished run's committed test set (through `step_window`) and, at each
//! point, run one GA invocation of that phase's shape through the public
//! layer entry points — `GaEngine::begin`/`advance`, `EvalMemo::evaluate`,
//! `EvalPool::evaluate`/`evaluate_shared_prefix`, `evaluate_candidate`, and
//! the simulator's `restore`/`step_sampled` — timing every call. The
//! replay says how a generation's time splits between the layers; the real
//! run's own generation spans say how much time there is to split.

use std::sync::Arc;
use std::time::Instant;

use gatest_core::evalpool::decode_frame_into;
use gatest_core::{
    evaluate_candidate, evaluate_sequences_shared, EvalContext, EvalJob, EvalMemo, EvalPool,
    FitnessScale, GatestConfig, Phase, TestGenResult,
};
use gatest_ga::{Chromosome, Coding, GaConfig, GaEngine, Rng};
use gatest_netlist::Circuit;
use gatest_sim::{FaultId, FaultList, FaultStatus, Logic, ShardedFaultSim};
use gatest_telemetry::SimCounters;

use crate::trace::{SpanId, Tracer};

/// Candidates per batch whose simulator calls are timed one by one.
const TIMED_CANDIDATES: usize = 4;
/// Replayed invocations per phase.
const POINTS_PER_PHASE: usize = 3;

/// Timings of one replayed phase (2, 3 or 4).
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimes {
    /// Eval batches (`begin` plus each `advance`).
    pub batches: u64,
    /// Nanoseconds in the pool (or serial) evaluation under the memo.
    pub batch_ns: u64,
    /// Nanoseconds in `EvalMemo::evaluate` outside its raw closure.
    pub memo_ns: u64,
    /// Nanoseconds in `advance` outside its eval closure (breeding).
    pub breed_ns: u64,
    /// Nanoseconds in timed `evaluate_candidate` calls.
    pub candidate_ns: u64,
    /// Timed `restore` calls and their nanoseconds.
    pub restores: u64,
    /// See `restores`.
    pub restore_ns: u64,
    /// Timed `step_sampled` calls and their nanoseconds.
    pub steps: u64,
    /// See `steps`.
    pub step_ns: u64,
    /// Undetected sampled faults summed over timed steps.
    pub lanes_used: u64,
    /// Packed lane slots those faults occupy (whole words × lanes).
    pub lane_slots: u64,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl PhaseTimes {
    /// What a generation costs in the replay: its batch, memo and breeding.
    fn generation_ns(&self) -> u64 {
        self.batch_ns + self.memo_ns + self.breed_ns
    }

    /// Share of a generation spent in the pool (or serial) evaluation.
    pub fn batch_share(&self) -> f64 {
        ratio(self.batch_ns, self.generation_ns())
    }

    /// Share of a generation spent in the memo outside its evaluation.
    pub fn memo_share(&self) -> f64 {
        ratio(self.memo_ns, self.generation_ns())
    }

    /// Share of a generation spent breeding.
    pub fn breed_share(&self) -> f64 {
        ratio(self.breed_ns, self.generation_ns())
    }

    /// Share of a candidate's evaluation spent in `step_sampled`. The calls
    /// are repeated apart from `evaluate_candidate`, so the base is the
    /// larger of the two, keeping step and restore shares within one.
    pub fn step_share(&self) -> f64 {
        ratio(
            self.step_ns,
            self.candidate_ns.max(self.step_ns + self.restore_ns),
        )
    }

    /// Share of a candidate's evaluation spent in `restore`.
    pub fn restore_share(&self) -> f64 {
        ratio(
            self.restore_ns,
            self.candidate_ns.max(self.step_ns + self.restore_ns),
        )
    }
}

/// Everything one replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Index = phase − 1; phase 1 is never replayed (its batches take the
    /// generator's private packed good-machine path).
    pub phases: [PhaseTimes; 4],
    /// Frames applied through `step_window` and their nanoseconds.
    pub window_frames: u64,
    /// See `window_frames`.
    pub window_ns: u64,
}

/// Shared state of the replay's eval closure.
struct Replayer<'t> {
    tracer: &'t mut Tracer,
    run: u32,
    sim: ShardedFaultSim,
    pool: Option<EvalPool>,
    memo: Option<EvalMemo>,
    counters: Arc<SimCounters>,
    scratch: Vec<Logic>,
    lanes: usize,
    times: PhaseTimes,
    closure_ns: u64,
}

impl Replayer<'_> {
    /// One eval batch, as the generator's eval closure runs it: the memo
    /// first, then the pool (or the serial loop) for what it cannot answer.
    /// Afterwards, outside every timed layer, a few of the batch's
    /// candidates are re-scored with their simulator calls timed one by one.
    fn eval(&mut self, ctx: &Arc<EvalContext>, batch: &[Chromosome], parent: SpanId) -> Vec<f64> {
        let start = Instant::now();
        let shared_prefix = self.memo.as_ref().is_some_and(EvalMemo::cache_enabled)
            && matches!(ctx.job, EvalJob::Sequence { .. });
        let memo_span = self.tracer.open("evalpool.memo", Some(parent), self.run);
        let Replayer {
            tracer,
            run,
            sim,
            pool,
            memo,
            counters,
            scratch,
            ..
        } = self;
        let mut raw_ns = 0u64;
        let mut raw = |work: &[Chromosome]| {
            let t = Instant::now();
            let scores = match (pool.as_ref(), shared_prefix) {
                (Some(p), true) => p.evaluate_shared_prefix(ctx, work),
                (Some(p), false) => p.evaluate(ctx, work),
                (None, true) => evaluate_sequences_shared(sim, ctx, work, scratch, Some(counters)),
                (None, false) => work
                    .iter()
                    .map(|c| evaluate_candidate(sim, ctx, c, scratch))
                    .collect(),
            };
            tracer.record("evalpool.batch", Some(memo_span), *run, t, Instant::now());
            raw_ns += t.elapsed().as_nanos() as u64;
            scores
        };
        let scores = match memo.as_mut() {
            Some(m) => m.evaluate(ctx, batch, Some(counters), raw),
            None => raw(batch),
        };
        let memo_total = start.elapsed().as_nanos() as u64;
        self.tracer.close(memo_span);
        self.times.batches += 1;
        self.times.batch_ns += raw_ns;
        self.times.memo_ns += memo_total.saturating_sub(raw_ns);

        for chrom in batch.iter().take(TIMED_CANDIDATES) {
            self.time_candidate(ctx, chrom, parent);
        }
        self.closure_ns += start.elapsed().as_nanos() as u64;
        scores
    }

    /// Times `evaluate_candidate` on one candidate, then repeats its
    /// simulator calls (`restore`, one `step_sampled` per frame) one by one.
    fn time_candidate(&mut self, ctx: &Arc<EvalContext>, chrom: &Chromosome, parent: SpanId) {
        let run = self.run;
        let t = Instant::now();
        std::hint::black_box(evaluate_candidate(
            &mut self.sim,
            ctx,
            chrom,
            &mut self.scratch,
        ));
        self.tracer.record(
            "sim.evaluate_candidate",
            Some(parent),
            run,
            t,
            Instant::now(),
        );
        self.times.candidate_ns += t.elapsed().as_nanos() as u64;

        let (frames, sample, pis) = match &ctx.job {
            EvalJob::Vector { sample, pis, .. } => (1, sample, *pis),
            EvalJob::Sequence {
                frames,
                sample,
                pis,
                ..
            } => (*frames, sample, *pis),
        };
        let t = Instant::now();
        self.sim.restore(&ctx.checkpoint);
        self.tracer
            .record("sim.restore", Some(parent), run, t, Instant::now());
        self.times.restores += 1;
        self.times.restore_ns += t.elapsed().as_nanos() as u64;
        for frame in 0..frames {
            decode_frame_into(chrom, pis, frame, &mut self.scratch);
            let live = sample
                .iter()
                .filter(|&&f| self.sim.status(f) == FaultStatus::Undetected)
                .count() as u64;
            self.times.lanes_used += live;
            self.times.lane_slots += live.div_ceil(self.lanes as u64) * self.lanes as u64;
            let t = Instant::now();
            std::hint::black_box(self.sim.step_sampled(&self.scratch, sample));
            self.tracer
                .record("sim.step_sampled", Some(parent), run, t, Instant::now());
            self.times.steps += 1;
            self.times.step_ns += t.elapsed().as_nanos() as u64;
        }
    }
}

/// The GA parameters the generator uses for a phase's invocations.
fn ga_config(config: &GatestConfig, sequences: bool, pis: usize) -> GaConfig {
    GaConfig {
        population_size: if sequences {
            config.sequence_population
        } else {
            config.vector_population
        },
        generations: config.generations,
        selection: config.selection,
        crossover: config.crossover,
        crossover_probability: config.crossover_probability,
        mutation_rate: if sequences {
            config.sequence_mutation
        } else {
            config.vector_mutation
        },
        coding: match config.coding {
            Coding::Nonbinary { .. } if sequences => Coding::Nonbinary { bits_per_char: pis },
            _ => Coding::Binary,
        },
        generation_gap: config.generation_gap,
        elitism: 0,
    }
}

/// Replays [`POINTS_PER_PHASE`] invocations of each phase 2–4 present in
/// `result`, at seed-derived committed positions of that phase; phase-4
/// points are drawn from `sequences`, the run's committed sequences as
/// (first test-set index, length).
#[allow(clippy::too_many_arguments)]
pub fn replay(
    tracer: &mut Tracer,
    parent: SpanId,
    run: u32,
    circuit: &Arc<Circuit>,
    faults: FaultList,
    config: &GatestConfig,
    result: &TestGenResult,
    sequences: &[(usize, usize)],
    seed: u64,
) -> Replay {
    let mut rng = Rng::new(seed);
    let counters = Arc::new(SimCounters::new());
    let mut sim =
        ShardedFaultSim::with_shards(Arc::clone(circuit), faults, config.resolved_fault_shards());
    sim.set_counters(Some(Arc::clone(&counters)));
    sim.set_sim_threads(config.resolved_sim_threads());
    sim.set_backend(config.sim_width);
    let workers = config.resolved_workers();
    let pool = (workers > 1).then(|| EvalPool::new(&sim, workers));
    let lanes = sim.backend().resolved().lanes();
    let pis = circuit.num_inputs();

    // Seed-derived committed positions of each replayed phase, in order,
    // with the frames a candidate simulates there: phase-4 points are the
    // starts of committed sequences, at those sequences' lengths.
    let mut points: Vec<(usize, u8, usize)> = Vec::new();
    for p in 2u8..=3 {
        let at: Vec<usize> = (0..result.phase_trace.len())
            .filter(|&i| result.phase_trace[i] == p)
            .collect();
        if !at.is_empty() {
            points.extend((0..POINTS_PER_PHASE).map(|_| (at[rng.below(at.len())], p, 1)));
        }
    }
    if !sequences.is_empty() {
        points.extend((0..POINTS_PER_PHASE).map(|_| {
            let (at, len) = sequences[rng.below(sequences.len())];
            (at, 4, len)
        }));
    }
    points.sort_unstable();

    let mut out = Replay::default();
    let mut r = Replayer {
        tracer,
        run,
        sim,
        pool,
        memo: EvalMemo::new(config.eval_cache_entries, config.dedup),
        counters,
        scratch: Vec::new(),
        lanes,
        times: PhaseTimes::default(),
        closure_ns: 0,
    };
    let mut applied = 0usize;
    for (k, &(at, phase_no, frames)) in points.iter().enumerate() {
        if at > applied {
            let t = Instant::now();
            r.sim.step_window(&result.test_set[applied..at]);
            r.tracer
                .record("sim.step_window", Some(parent), run, t, Instant::now());
            out.window_ns += t.elapsed().as_nanos() as u64;
            out.window_frames += (at - applied) as u64;
            applied = at;
        }
        let mut active: Vec<FaultId> = r.sim.active_faults().to_vec();
        if active.is_empty() {
            continue;
        }
        rng.shuffle(&mut active);
        active.truncate(crate::atpg::FAULT_SAMPLE);
        active.sort_unstable();
        let scale = FitnessScale {
            faults: active.len(),
            flip_flops: circuit.num_dffs(),
            nodes: circuit.num_gates(),
        };
        let is_sequence = phase_no == 4;
        let job = if is_sequence {
            EvalJob::Sequence {
                frames,
                sample: active,
                scale,
                pis,
            }
        } else {
            EvalJob::Vector {
                phase: if phase_no == 2 {
                    Phase::VectorGeneration
                } else {
                    Phase::StalledVectorGeneration
                },
                sample: active,
                scale,
                pis,
            }
        };
        let ctx = Arc::new(EvalContext {
            epoch: k as u64 + 1,
            checkpoint: r.sim.checkpoint(),
            job,
        });
        let engine = GaEngine::new(ga_config(config, is_sequence, pis));
        let mut ga_rng = rng.fork();
        let initial: Vec<Chromosome> = (0..engine.config().population_size)
            .map(|_| Chromosome::random(frames * pis, &mut ga_rng))
            .collect();
        r.times = out.phases[usize::from(phase_no) - 1];
        let inv = r.tracer.open("replay.invocation", Some(parent), run);
        let begin = r.tracer.open("ga.begin", Some(inv), run);
        let (mut state, _) = engine.begin(initial, |b| r.eval(&ctx, b, begin));
        r.tracer.close(begin);
        while !engine.is_done(&state) {
            let adv = r.tracer.open("ga.advance", Some(inv), run);
            r.closure_ns = 0;
            let t = Instant::now();
            engine.advance(&mut state, &mut ga_rng, |b| r.eval(&ctx, b, adv));
            let total = t.elapsed().as_nanos() as u64;
            r.tracer.close(adv);
            r.times.breed_ns += total.saturating_sub(r.closure_ns);
        }
        r.tracer.close(inv);
        r.sim.restore(&ctx.checkpoint);
        out.phases[usize::from(phase_no) - 1] = r.times;
    }
    out
}
