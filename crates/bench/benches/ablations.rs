//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * packed 64-slot gate evaluation vs scalar evaluation;
//! * event-driven fault propagation vs full good-simulation sweeps;
//! * checkpoint/restore cost (the §IV modification GATEST leans on);
//! * fault-list equivalence collapsing cost.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use gatest_ga::Rng;
use gatest_netlist::benchmarks;
use gatest_netlist::GateKind;
use gatest_sim::eval::{eval_packed, eval_scalar};
use gatest_sim::{FaultList, FaultSim, GoodSim, Logic, Pv64};

fn bench_gate_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gate_eval");
    let scalar_in = [Logic::One, Logic::Zero, Logic::X];
    let packed_in = [Pv64::ALL_ONE, Pv64::ALL_ZERO, Pv64::ALL_X];
    group.throughput(Throughput::Elements(1));
    group.bench_function("scalar_nand3", |b| {
        b.iter(|| eval_scalar(GateKind::Nand, &scalar_in))
    });
    group.throughput(Throughput::Elements(64));
    group.bench_function("packed_nand3_64slots", |b| {
        b.iter(|| eval_packed(GateKind::Nand, &packed_in))
    });
    group.finish();
}

fn bench_simulation_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sim_modes");
    let circuit = Arc::new(benchmarks::iscas89("s1196").expect("bundled circuit"));
    let pis = circuit.num_inputs();
    let mut rng = Rng::new(1);
    let vector: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();

    let mut good = GoodSim::new(Arc::clone(&circuit));
    group.bench_function("good_sim_step", |b| b.iter(|| good.apply(&vector)));

    let mut sim = FaultSim::new(Arc::clone(&circuit));
    let depth = gatest_netlist::depth::sequential_depth(&circuit) as usize;
    for _ in 0..depth + 2 {
        sim.step(&vec![Logic::Zero; pis]);
    }
    let cp = sim.checkpoint();
    group.bench_function("fault_sim_step_full", |b| {
        b.iter(|| {
            sim.restore(&cp);
            sim.step(&vector)
        })
    });
    group.bench_function("checkpoint", |b| b.iter(|| sim.checkpoint()));
    group.bench_function("restore", |b| b.iter(|| sim.restore(&cp)));
    group.finish();
}

fn bench_fault_list_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fault_list");
    group.sample_size(20);
    let circuit = benchmarks::iscas89("s1488").expect("bundled circuit");
    group.bench_function("full_universe", |b| b.iter(|| FaultList::full(&circuit)));
    group.bench_function("collapsed", |b| b.iter(|| FaultList::collapsed(&circuit)));
    group.finish();
}

fn bench_backtrace_guides(c: &mut Criterion) {
    use gatest_baselines::hitec::{BacktraceGuide, HitecAtpg, HitecConfig};
    let mut group = c.benchmark_group("ablation_backtrace_guide");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(20));
    let circuit = Arc::new(benchmarks::iscas89("s386").expect("bundled circuit"));
    for (label, guide) in [
        ("seq_depth", BacktraceGuide::SequentialDepth),
        ("scoap", BacktraceGuide::Scoap),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = HitecConfig {
                    guide,
                    ..HitecConfig::default()
                };
                HitecAtpg::new(Arc::clone(&circuit), config).run()
            })
        });
    }
    group.finish();
}

fn bench_parallel_workers(c: &mut Criterion) {
    use gatest_core::{FaultSample, GatestConfig, TestGenerator};
    let mut group = c.benchmark_group("ablation_parallel_workers");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(15));
    let circuit = Arc::new(benchmarks::iscas89("s298").expect("bundled circuit"));
    for workers in [1usize, 2, 4] {
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                let mut config = GatestConfig::for_circuit(&circuit)
                    .with_seed(1)
                    .with_workers(workers);
                config.fault_sample = FaultSample::Count(100);
                TestGenerator::new(Arc::clone(&circuit), config).run()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gate_eval,
    bench_simulation_modes,
    bench_fault_list_construction,
    bench_backtrace_guides,
    bench_parallel_workers
);
criterion_main!(benches);
