//! Fault-simulation step-throughput microbenchmark.
//!
//! Measures sequential fault-simulation vectors per second on s1423: one
//! `serial` row replaying a random vector stream from a warmed simulator
//! state, with an identity checksum — step index × fault id over every
//! newly detected fault, plus every step's faulty-event and
//! flip-flop-effect counts. Fault groups are always simulated serially;
//! parallelism lives one level up, in the evaluation pool (`bench_eval`).
//!
//! A `width` section compares the packed-value backends (Pv64 and Pv256)
//! on s298 and s1423, asserting the same identity checksum across
//! widths — the backend must change
//! throughput only, never results. Smoke mode additionally replays a short
//! stream through one synthetic 10k-gate circuit at every width, so CI
//! exercises the CSR adjacency and group scheduling at a size where the
//! ISCAS89 suite cannot.
//!
//! Prints a JSON document to stdout; `scripts/bench_eval.sh` redirects it to
//! `BENCH_sim.json` so the performance trajectory is tracked across PRs.
//! Pass `--smoke` for the CI run: the same streams as full mode (step rates
//! and wide/scalar ratios both drift as detected faults drop out, so the
//! regression gate in scripts/check_bench.sh compares like with like) plus
//! the synthetic 10k-gate shakeout.
//! `--validate FILE` parses FILE as a `BENCH_sim` document and checks its
//! shape, so CI can assert the smoke output is well-formed.

use std::sync::Arc;
use std::time::Instant;

use gatest_ga::Rng;
use gatest_netlist::benchmarks;
use gatest_netlist::generate::{CircuitProfile, SyntheticGenerator};
use gatest_sim::{FaultSim, Logic, SimBackend};
use gatest_telemetry::json::parse_json;

const CIRCUIT: &str = "s1423";
/// Circuits the packed-backend width comparison runs on: one mid-size and
/// one tier-1-largest, so lane utilization at both group counts is covered.
const WIDTH_CIRCUITS: [&str; 2] = ["s298", "s1423"];
const WIDTH_BACKENDS: [SimBackend; 2] = [SimBackend::Scalar64, SimBackend::Wide256];
/// Bumped whenever the document shape changes; `--validate` requires it.
/// 2 added provenance (`git_revision`, `timestamp`); 3 added the `width`
/// packed-backend comparison section; 4 added the skipped-row shape for
/// thread counts the host cannot measure meaningfully; 5 replaced the
/// thread-count `results` sweep with the one `serial` row.
const SCHEMA_VERSION: u64 = 5;

/// `--NAME VALUE` from the args, else the `env` variable, else `"unknown"`.
/// Benchmarks never read the clock or the repo themselves — provenance is
/// caller-supplied so the emitted document stays deterministic.
fn provenance(args: &[String], name: &str, env: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var(env).ok())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--validate") {
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_sim.json");
        match validate(path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("bench_sim --validate {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    if smoke {
        smoke_synthetic_10k();
    }
    let git_revision = provenance(&args, "--git-rev", "GATEST_GIT_REV");
    let timestamp = provenance(&args, "--timestamp", "GATEST_BENCH_TIMESTAMP");
    let vectors = 1500;

    let circuit = Arc::new(benchmarks::iscas89(CIRCUIT).expect("bundled circuit"));
    let pis = circuit.num_inputs();

    // Warm the simulator into a representative mid-run state: easy faults
    // dropped, faulty flip-flop divergence accumulated.
    let mut base = FaultSim::new(Arc::clone(&circuit));
    let mut rng = Rng::new(1);
    for _ in 0..20 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        base.step(&v);
    }
    let mut vec_rng = Rng::new(9);
    let stream: Vec<Vec<Logic>> = (0..vectors)
        .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
        .collect();

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let (passes, checksum, events) = timed_passes(&base, &[SimBackend::Scalar64], &stream);
    let secs = median(passes[0].clone());
    let serial = format!(
        "{{\"vectors\": {vectors}, \"secs\": {secs:.4}, \"vectors_per_sec\": {:.0}, \"fault_events_per_sec\": {:.0}}}",
        vectors as f64 / secs,
        events as f64 / secs
    );
    eprintln!(
        "serial: {vectors} vectors in {secs:.2}s = {:.0} vectors/sec ({:.0} fault events/sec)",
        vectors as f64 / secs,
        events as f64 / secs
    );

    println!(
        "{{\n  \"bench\": \"step_throughput\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \"git_revision\": \"{git_revision}\",\n  \"timestamp\": \"{timestamp}\",\n  \"circuit\": \"{CIRCUIT}\",\n  \"mode\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"identity_checksum\": {checksum},\n  \"serial\": {serial},\n  \"width\": [\n{}\n  ]\n}}",
        if smoke { "smoke" } else { "full" },
        width_rows()
    );
}

/// Timed passes per measured row. Rows report medians, so a pass slowed
/// by another process on a shared host does not move the baseline or trip
/// the regression gate.
const PASSES: usize = 5;

/// Replays `stream` [`PASSES`] times on each of `backends`, interleaved
/// pass by pass so a slow spell on a shared host hits every backend alike,
/// each pass through a fresh copy of `base`. Asserts every pass of every
/// backend reproduces the same identity checksum. Returns, per backend,
/// the seconds of each pass in pass order, plus the checksum and
/// faulty-event count (see [`run_stream`]).
fn timed_passes(
    base: &FaultSim,
    backends: &[SimBackend],
    stream: &[Vec<Logic>],
) -> (Vec<Vec<f64>>, u64, u64) {
    let mut secs = vec![Vec::with_capacity(PASSES); backends.len()];
    let mut result = None;
    for _ in 0..PASSES {
        for (b, &backend) in backends.iter().enumerate() {
            let mut sim = base.clone();
            sim.set_backend(backend);
            let (pass_secs, sum, events) = run_stream(&mut sim, stream);
            assert_eq!(
                result.get_or_insert((sum, events)).0,
                sum,
                "{} diverged from the first pass's results",
                backend.name()
            );
            secs[b].push(pass_secs);
        }
    }
    let (sum, events) = result.expect("at least one pass");
    (secs, sum, events)
}

/// The median of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Replays `stream` through `sim`, returning elapsed seconds, the identity
/// checksum (step index × fault id over every newly detected fault plus
/// per-step faulty-event and flip-flop-effect counts — all
/// width-invariant), and the total faulty-event count.
fn run_stream(sim: &mut FaultSim, stream: &[Vec<Logic>]) -> (f64, u64, u64) {
    let mut events = 0u64;
    let mut sum = 0u64;
    let start = Instant::now();
    for (n, v) in stream.iter().enumerate() {
        let report = sim.step(v);
        events += report.faulty_events;
        sum = sum
            .wrapping_add(report.faulty_events.wrapping_mul(n as u64 + 1))
            .wrapping_add(report.ff_effect_pairs);
        for f in &report.newly_detected {
            sum = sum.wrapping_add((n as u64 + 1).wrapping_mul(f.index() as u64 + 1));
        }
    }
    (start.elapsed().as_secs_f64(), sum, events)
}

/// Smoke-only shakeout on a circuit an order of magnitude past tier 1: a
/// short random stream through one synthetic 10k-gate machine, each packed
/// width replaying it bit-identically. Stderr only — the committed JSON
/// tracks the ISCAS89 numbers; this exists so CI exercises the levelized
/// CSR and group scheduling at a size where s1423 cannot.
fn smoke_synthetic_10k() {
    let profile = CircuitProfile {
        name: String::from("smoke_10k"),
        inputs: 64,
        outputs: 32,
        dffs: 128,
        gates: 10_000,
        seq_depth: 4,
    };
    let circuit = Arc::new(SyntheticGenerator::new(94).generate(&profile));
    let pis = circuit.num_inputs();
    let mut base = FaultSim::new(Arc::clone(&circuit));
    let mut rng = Rng::new(1);
    for _ in 0..8 {
        let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
        base.step(&v);
    }
    let mut vec_rng = Rng::new(9);
    let stream: Vec<Vec<Logic>> = (0..24)
        .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
        .collect();
    let mut reference: Option<u64> = None;
    for backend in WIDTH_BACKENDS {
        let mut sim = base.clone();
        sim.set_backend(backend);
        let (secs, sum, _) = run_stream(&mut sim, &stream);
        match reference {
            None => reference = Some(sum),
            Some(c) => assert_eq!(
                c,
                sum,
                "synthetic 10k: {} diverged from the scalar64 results",
                backend.name()
            ),
        }
        eprintln!(
            "smoke synthetic 10k {}: {} vectors in {secs:.2}s = {:.0} vectors/sec",
            backend.name(),
            stream.len(),
            stream.len() as f64 / secs
        );
    }
}

/// The packed-backend comparison: serial step throughput per backend per
/// circuit, asserting the identity checksum is bit-identical across widths.
/// Wide rows carry `speedup_vs_scalar64` so the trajectory of the wide
/// backend's advantage is tracked directly in the committed baseline.
fn width_rows() -> String {
    let mut rows = String::new();
    for &name in &WIDTH_CIRCUITS {
        let circuit = Arc::new(benchmarks::iscas89(name).expect("bundled circuit"));
        let pis = circuit.num_inputs();
        let mut base = FaultSim::new(Arc::clone(&circuit));
        let mut rng = Rng::new(1);
        for _ in 0..20 {
            let v: Vec<Logic> = (0..pis).map(|_| Logic::from_bool(rng.coin())).collect();
            base.step(&v);
        }
        let vectors = if name == "s1423" { 1500 } else { 4000 };
        let mut vec_rng = Rng::new(9);
        let stream: Vec<Vec<Logic>> = (0..vectors)
            .map(|_| (0..pis).map(|_| Logic::from_bool(vec_rng.coin())).collect())
            .collect();
        // The speedup is the median of per-pass ratios: interleaved passes
        // pair up a scalar and a wide run taken under the same host load.
        let (passes, sum, _) = timed_passes(&base, &WIDTH_BACKENDS, &stream);
        let speedup = median((0..PASSES).map(|p| passes[0][p] / passes[1][p]).collect());
        for (b, backend) in WIDTH_BACKENDS.iter().enumerate() {
            let secs = median(passes[b].clone());
            let rate = vectors as f64 / secs;
            let speedup_field = if b == 0 {
                String::new()
            } else {
                format!(", \"speedup_vs_scalar64\": {speedup:.3}")
            };
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"circuit\": \"{name}\", \"backend\": \"{}\", \"lanes\": {}, \"vectors\": {vectors}, \"secs\": {secs:.4}, \"vectors_per_sec\": {rate:.0}, \"identity_checksum\": {sum}{speedup_field}}}",
                backend.name(),
                backend.lanes()
            ));
            eprintln!(
                "width {name} {}: {vectors} vectors in {secs:.2}s = {rate:.0} vectors/sec",
                backend.name()
            );
        }
    }
    rows
}

/// Parses `path` as a `BENCH_sim` document and checks every field the
/// scaling-curve consumers rely on. Returns a one-line summary on success.
fn validate(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = parse_json(&text)?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
    let bench = field("bench")?.as_str().ok_or("`bench` is not a string")?;
    if bench != "step_throughput" {
        return Err(format!("`bench` is `{bench}`, expected `step_throughput`"));
    }
    let version = field("schema_version")?
        .as_u64()
        .ok_or("`schema_version` is not an integer")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "`schema_version` is {version}, expected {SCHEMA_VERSION}"
        ));
    }
    field("git_revision")?
        .as_str()
        .ok_or("`git_revision` is not a string")?;
    field("timestamp")?
        .as_str()
        .ok_or("`timestamp` is not a string")?;
    field("circuit")?
        .as_str()
        .ok_or("`circuit` is not a string")?;
    field("mode")?.as_str().ok_or("`mode` is not a string")?;
    let cpus = field("host_cpus")?
        .as_u64()
        .ok_or("`host_cpus` is not an integer")?;
    field("identity_checksum")?
        .as_u64()
        .ok_or("`identity_checksum` is not an integer")?;
    let serial = field("serial")?;
    for key in ["vectors", "secs", "vectors_per_sec", "fault_events_per_sec"] {
        serial
            .get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("`serial` missing numeric `{key}`"))?;
    }
    let width = field("width")?
        .as_array()
        .ok_or("`width` is not an array")?;
    if width.is_empty() {
        return Err("`width` is empty".into());
    }
    for (i, row) in width.iter().enumerate() {
        for key in ["circuit", "backend"] {
            row.get(key)
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("width[{i}] missing string `{key}`"))?;
        }
        for key in [
            "lanes",
            "vectors",
            "secs",
            "vectors_per_sec",
            "identity_checksum",
        ] {
            row.get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("width[{i}] missing numeric `{key}`"))?;
        }
    }
    // Per circuit, every backend row must report the same identity checksum
    // — the baseline itself is proof the widths agreed when it was recorded.
    for circuit in WIDTH_CIRCUITS {
        let sums: Vec<f64> = width
            .iter()
            .filter(|r| r.get("circuit").and_then(|v| v.as_str()) == Some(circuit))
            .filter_map(|r| r.get("identity_checksum").and_then(|v| v.as_f64()))
            .collect();
        if sums.len() < WIDTH_BACKENDS.len() {
            return Err(format!("`width` is missing backend rows for `{circuit}`"));
        }
        if sums.iter().any(|&s| s != sums[0]) {
            return Err(format!(
                "`width` checksums disagree across backends for `{circuit}`"
            ));
        }
    }
    Ok(format!(
        "{path} ok: serial row, {} width rows, host_cpus {cpus}",
        width.len()
    ))
}
