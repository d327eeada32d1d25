//! Simulator-level bench: fault-simulation step throughput on s1423. Each
//! iteration restores a warmed mid-run checkpoint and applies the same
//! 16-vector stream, so every iteration simulates an identical fault
//! population. `bench_sim` (the companion binary) measures the same
//! workload and records it in `BENCH_sim.json`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use gatest_ga::Rng;
use gatest_netlist::benchmarks;
use gatest_sim::{FaultSim, Logic};

const VECTORS_PER_ITER: usize = 16;

fn bench_step_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_throughput_s1423");

    let circuit = Arc::new(benchmarks::iscas89("s1423").expect("bundled circuit"));
    let pis = circuit.num_inputs();

    // Warm into a representative mid-run state: easy faults dropped,
    // faulty flip-flop divergence accumulated.
    let mut sim = FaultSim::new(Arc::clone(&circuit));
    let mut rng = Rng::new(1);
    for _ in 0..20 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        sim.step(&v);
    }
    let mut vec_rng = Rng::new(9);
    let vectors: Vec<Vec<Logic>> = (0..VECTORS_PER_ITER)
        .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
        .collect();

    let cp = sim.checkpoint();
    group.bench_function("serial", |b| {
        b.iter(|| {
            sim.restore(&cp);
            let mut events = 0u64;
            for v in &vectors {
                events += sim.step(v).faulty_events;
            }
            events
        })
    });
    group.finish();
}

criterion_group!(benches, bench_step_throughput);
criterion_main!(benches);
