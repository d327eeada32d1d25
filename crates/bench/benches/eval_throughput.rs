//! Evaluation-engine bench: candidate fitness evaluations/sec on s1423 at
//! worker counts 1, 4, and 8. The serial path exercises copy-on-write
//! checkpoint restores and the scratch-buffer decode; the pooled paths add
//! persistent-worker dispatch. `bench_eval` (the companion binary) measures
//! the same workload and records it in `BENCH_eval.json`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gatest_core::{evaluate_candidate, EvalContext, EvalJob, EvalPool, FitnessScale, Phase};
use gatest_ga::{Chromosome, Rng};
use gatest_netlist::benchmarks;
use gatest_sim::{FaultSim, Logic};

fn bench_eval_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_throughput_s1423");

    let circuit = Arc::new(benchmarks::iscas89("s1423").expect("bundled circuit"));
    let pis = circuit.num_inputs();
    let mut sim = FaultSim::new(Arc::clone(&circuit));
    let mut rng = Rng::new(1);
    for _ in 0..20 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        sim.step(&v);
    }
    let sample: Vec<_> = sim.active_faults().iter().copied().take(100).collect();
    let scale = FitnessScale {
        faults: sample.len(),
        flip_flops: circuit.num_dffs(),
        nodes: circuit.num_gates(),
    };
    let ctx = Arc::new(EvalContext {
        epoch: 1,
        checkpoint: sim.checkpoint(),
        job: EvalJob::Vector {
            phase: Phase::VectorGeneration,
            sample,
            scale,
            pis,
        },
    });
    let mut chrom_rng = Rng::new(7);
    let batch: Vec<Chromosome> = (0..64)
        .map(|_| Chromosome::random(pis, &mut chrom_rng))
        .collect();

    group.bench_function(BenchmarkId::new("serial", 1), |b| {
        let mut serial = sim.clone();
        let mut scratch = Vec::new();
        b.iter(|| {
            batch
                .iter()
                .map(|c| evaluate_candidate(&mut serial, &ctx, c, &mut scratch))
                .sum::<f64>()
        })
    });
    for workers in [4usize, 8] {
        let pool = EvalPool::new(&sim, workers);
        group.bench_function(BenchmarkId::new("pool", workers), |b| {
            b.iter(|| pool.evaluate(&ctx, &batch).iter().sum::<f64>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval_throughput);
criterion_main!(benches);
