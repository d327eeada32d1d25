//! Checkpoint/resume determinism: interrupted-and-resumed runs must be
//! bit-identical to uninterrupted ones, and the on-disk format must
//! round-trip and reject corruption.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use gatest_core::report::result_to_json;
use gatest_core::{
    CheckpointError, FaultSample, GaSnapshot, GatestConfig, RunControls, RunSnapshot,
    SnapshotIndividual, SnapshotPos, StopCause, TestGenerator,
};
use gatest_sim::{FaultStatus, Logic, SimState};
use gatest_telemetry::CounterSnapshot;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gatest-ckpt-{tag}-{}-{:?}.bin",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Deterministic splitmix64 for building arbitrary-but-reproducible
/// snapshot contents from a single proptest-drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn logic(&mut self) -> Logic {
        match self.below(3) {
            0 => Logic::Zero,
            1 => Logic::One,
            _ => Logic::X,
        }
    }

    fn logics(&mut self, n: usize) -> Vec<Logic> {
        (0..n).map(|_| self.logic()).collect()
    }
}

/// A structurally valid but otherwise arbitrary snapshot derived from one
/// seed: every enum variant and container shape gets exercised across cases.
fn arbitrary_snapshot(seed: u64) -> RunSnapshot {
    let mut mix = Mix(seed);
    let pis = 1 + mix.below(6) as usize;
    let ga = |mix: &mut Mix, bits: usize| {
        let ind = |mix: &mut Mix| SnapshotIndividual {
            bits: (0..bits).map(|_| mix.next() & 1 == 1).collect(),
            fitness: mix.next() as f64 / u64::MAX as f64 * 10.0,
        };
        let pop = 1 + mix.below(8) as usize;
        GaSnapshot {
            sample: (0..mix.below(10)).map(|_| mix.below(500) as u32).collect(),
            rng: [mix.next(), mix.next(), mix.next(), mix.next()],
            generation: mix.below(9),
            evaluations: mix.below(1000),
            population: (0..pop).map(|_| ind(mix)).collect(),
            best: ind(mix),
            best_history: (0..mix.below(5)).map(|_| mix.next() as f64).collect(),
            mean_history: (0..mix.below(5)).map(|_| mix.next() as f64).collect(),
            diversity_history: (0..mix.below(5)).map(|_| mix.next() as f64).collect(),
        }
    };
    let pos = match mix.below(3) {
        0 => SnapshotPos::Vectors {
            phase: 1 + mix.below(3) as u8,
            noncontributing: mix.below(20),
            best_known_ffs: mix.below(20),
            init_stall: mix.below(20),
            ga: (mix.next() & 1 == 1).then(|| ga(&mut mix, pis)),
        },
        1 => {
            let frames = 1 + mix.below(8) as usize;
            SnapshotPos::Sequences {
                len_idx: mix.below(3),
                failures: mix.below(4),
                ga: (mix.next() & 1 == 1).then(|| ga(&mut mix, frames * pis)),
            }
        }
        _ => SnapshotPos::Done,
    };
    let nfaults = mix.below(60) as usize;
    let nffs = mix.below(10) as usize;
    RunSnapshot {
        circuit: format!("c{}", mix.below(1000)),
        seed: mix.next(),
        fault_sample: match mix.below(3) {
            0 => FaultSample::Full,
            1 => FaultSample::Count(mix.below(200) as usize),
            _ => FaultSample::Fraction(mix.next() as f64 / u64::MAX as f64),
        },
        config_digest: mix.next(),
        total_faults: nfaults as u64,
        master_rng: [mix.next(), mix.next(), mix.next(), mix.next()],
        test_set: {
            let vectors = mix.below(12) as usize;
            (0..vectors).map(|_| mix.logics(pis)).collect()
        },
        phase_vectors: [mix.below(9), mix.below(9), mix.below(9), mix.below(9)],
        phase_trace: (0..mix.below(30)).map(|_| 1 + mix.below(4) as u8).collect(),
        ga_evaluations: mix.next(),
        sequence_attempts: mix.below(40),
        phase_time_ns: [mix.next(), mix.next(), mix.next(), mix.next()],
        ga_generations: mix.below(5000),
        elapsed_ns: mix.next(),
        eval_epoch: mix.below(10_000),
        pos,
        sim: SimState {
            good_values: mix.logics(20),
            good_next_state: mix.logics(nffs),
            status: (0..nfaults)
                .map(|_| {
                    if mix.next() & 1 == 1 {
                        FaultStatus::Detected {
                            vector: mix.below(1000) as u32,
                        }
                    } else {
                        FaultStatus::Undetected
                    }
                })
                .collect(),
            faulty_ff: (0..nfaults)
                .map(|_| {
                    (0..mix.below(3))
                        .map(|_| (mix.below(nffs.max(1) as u64) as u32, mix.logic()))
                        .collect()
                })
                .collect(),
            vectors_applied: mix.below(10_000) as u32,
        },
        counters: CounterSnapshot {
            step_calls: mix.next(),
            gate_evals: mix.next(),
            checkpoint_restores: mix.next(),
            cache_hits: mix.next(),
            cache_misses: mix.next(),
            dedup_skips: mix.next(),
            prefix_frames_avoided: mix.next(),
            events_amortized: mix.next(),
            commit_batch_frames: mix.next(),
            ..CounterSnapshot::default()
        },
    }
}

/// FNV-1a 64, the checkpoint file's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Rewrites the trailing checksum so `bytes` passes the integrity check
/// and decoding reaches the field parsers.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let crc = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// The on-disk encoding of one simulator state.
fn encode_state(state: &SimState) -> Vec<u8> {
    fn len(out: &mut Vec<u8>, n: usize) {
        out.extend_from_slice(&(n as u64).to_le_bytes());
    }
    let logic = |l: &Logic| match l {
        Logic::Zero => 0u8,
        Logic::One => 1,
        Logic::X => 2,
    };
    let mut out = Vec::new();
    len(&mut out, state.good_values.len());
    out.extend(state.good_values.iter().map(logic));
    len(&mut out, state.good_next_state.len());
    out.extend(state.good_next_state.iter().map(logic));
    len(&mut out, state.status.len());
    for status in &state.status {
        match status {
            FaultStatus::Undetected => out.push(0),
            FaultStatus::Detected { vector } => {
                out.push(1);
                out.extend_from_slice(&vector.to_le_bytes());
            }
        }
    }
    len(&mut out, state.faulty_ff.len());
    for entries in &state.faulty_ff {
        len(&mut out, entries.len());
        for (dff, value) in entries {
            out.extend_from_slice(&dff.to_le_bytes());
            out.push(logic(value));
        }
    }
    out.extend_from_slice(&state.vectors_applied.to_le_bytes());
    out
}

/// `snap` encoded with its simulator state stored as several pieces: the
/// layout older builds wrote when they split the fault list across
/// several simulators.
fn encode_pieces(snap: &RunSnapshot, pieces: &[SimState]) -> Vec<u8> {
    let bytes = snap.encode();
    // The state list sits just before the 27 counters and the checksum.
    let tail = bytes.len() - 8 - 27 * 8;
    let start = tail - 8 - encode_state(&snap.sim).len();
    let mut out = bytes[..start].to_vec();
    out.extend_from_slice(&(pieces.len() as u64).to_le_bytes());
    for piece in pieces {
        out.extend(encode_state(piece));
    }
    out.extend_from_slice(&bytes[tail..]);
    reseal(out)
}

/// `state` cut into `k` contiguous pieces of its fault list.
fn split_state(state: &SimState, k: usize) -> Vec<SimState> {
    let n = state.status.len();
    (0..k)
        .map(|i| {
            let (lo, hi) = (n * i / k, n * (i + 1) / k);
            SimState {
                status: state.status[lo..hi].to_vec(),
                faulty_ff: state.faulty_ff[lo..hi].to_vec(),
                ..state.clone()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode → encode is lossless and canonical: the decoded
    /// snapshot equals the original and re-encodes to identical bytes.
    #[test]
    fn snapshot_serialization_round_trips(seed in any::<u64>()) {
        let snap = arbitrary_snapshot(seed);
        let bytes = snap.encode();
        let back = RunSnapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.encode(), bytes, "canonical re-encoding");
    }

    /// Any single corrupted byte in the payload fails the checksum (or a
    /// structural check) — it never silently decodes to a different state.
    #[test]
    fn corrupted_snapshots_never_decode(seed in any::<u64>(), flip in any::<u64>()) {
        let snap = arbitrary_snapshot(seed);
        let mut bytes = snap.encode();
        let idx = 12 + (flip as usize % (bytes.len() - 12));
        bytes[idx] ^= 1 << (flip % 8) as u8;
        match RunSnapshot::decode(&bytes) {
            Err(_) => {}
            Ok(other) => prop_assert_eq!(other, snap, "only a checksum-bit flip may decode"),
        }
    }

    /// A file whose state list holds 1-3 pieces decodes to the snapshot
    /// with the pieces joined in stored order; one piece is this build's
    /// own encoding.
    #[test]
    fn multi_state_files_decode_to_the_joined_state(seed in any::<u64>(), k in 1usize..4) {
        let snap = arbitrary_snapshot(seed);
        prop_assert_eq!(encode_pieces(&snap, std::slice::from_ref(&snap.sim)), snap.encode());
        let bytes = encode_pieces(&snap, &split_state(&snap.sim, k));
        prop_assert_eq!(RunSnapshot::decode(&bytes).expect("pieces decode"), snap);
    }

    /// Cutting a file at any length fails with a typed error, never a
    /// panic — both as stored (the checksum catches it) and with the
    /// checksum rewritten so the field parsers meet the cut.
    #[test]
    fn truncated_snapshots_fail_with_typed_errors(seed in any::<u64>()) {
        let bytes = arbitrary_snapshot(seed).encode();
        for cut in 0..bytes.len() {
            let err = RunSnapshot::decode(&bytes[..cut]).expect_err("a cut file must not decode");
            prop_assert!(!matches!(err, CheckpointError::Io(_)), "{err}");
            if cut >= 20 {
                let mut resealed = bytes[..cut - 8].to_vec();
                resealed.extend_from_slice(&[0; 8]);
                let err = RunSnapshot::decode(&reseal(resealed))
                    .expect_err("a resealed cut file must not decode");
                prop_assert!(
                    matches!(err, CheckpointError::Truncated(_) | CheckpointError::Corrupt(_)),
                    "{err}"
                );
            }
        }
    }

    /// Random bit flips behind a rewritten checksum reach every field
    /// parser; decoding returns a snapshot or a typed error, never panics.
    #[test]
    fn bit_flipped_snapshots_never_panic(seed in any::<u64>(), flips in any::<u64>()) {
        let mut bytes = arbitrary_snapshot(seed).encode();
        let mut mix = Mix(flips);
        for _ in 0..1 + mix.below(8) {
            let idx = 12 + mix.below((bytes.len() - 20) as u64) as usize;
            bytes[idx] ^= 1 << mix.below(8);
        }
        if let Err(err) = RunSnapshot::decode(&reseal(bytes)) {
            prop_assert!(!matches!(err, CheckpointError::Io(_)), "{err}");
        }
    }
}

fn s27_generator(seed: u64) -> TestGenerator {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
    let config = GatestConfig::for_circuit(&circuit).with_seed(seed);
    TestGenerator::new(circuit, config)
}

/// Everything deterministic about a result, as one comparable string.
fn fingerprint(result: &gatest_core::TestGenResult) -> String {
    result_to_json(result)
}

/// The tentpole guarantee, exhaustively: killing an s27 run after *every*
/// possible tick and resuming from the written checkpoint reproduces the
/// uninterrupted run bit-for-bit — test set, phase trace, evaluation
/// counts, and the deterministic simulator counters.
#[test]
fn s27_kill_at_every_tick_resumes_bit_identically() {
    let baseline = s27_generator(3).run();
    assert_eq!(baseline.stop, StopCause::Completed);
    let mut expected = fingerprint(&baseline);
    // The baseline completed, so its stop cause is part of the fingerprint;
    // resumed runs also complete, so the strings must match exactly.
    let ck = temp_path("s27-sweep");
    let mut killed_at = 0u64;
    for k in 1..10_000 {
        let controls = RunControls {
            checkpoint_path: Some(ck.clone()),
            max_ticks: Some(k),
            ..RunControls::default()
        };
        let leg = s27_generator(3).run_controlled(&controls);
        if leg.stop == StopCause::Completed {
            assert_eq!(fingerprint(&leg), expected, "uninterrupted under controls");
            break;
        }
        killed_at = k;
        let snap = RunSnapshot::load(&ck).unwrap_or_else(|e| panic!("load at tick {k}: {e}"));
        let resumed = s27_generator(3)
            .resume(&snap, &RunControls::default())
            .unwrap_or_else(|e| panic!("resume at tick {k}: {e}"));
        assert_eq!(resumed.stop, StopCause::Completed);
        let got = fingerprint(&resumed);
        if got != expected {
            // Pinpoint the first difference for the failure message.
            let at = got
                .bytes()
                .zip(expected.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(expected.len()));
            panic!(
                "resume after tick {k} diverged at byte {at}:\n  got  …{}\n  want …{}",
                &got[at.saturating_sub(40)..(at + 40).min(got.len())],
                &expected[at.saturating_sub(40)..(at + 40).min(expected.len())]
            );
        }
        expected = got;
    }
    assert!(killed_at > 50, "sweep must cover a non-trivial run");
    let _ = std::fs::remove_file(&ck);
}

/// The same guarantee on s298 with fault sampling (which exercises the
/// master-RNG shuffle path), at a sample of interruption points including
/// deep in sequence generation.
#[test]
fn s298_sampled_kills_resume_bit_identically() {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
    let make = || {
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(21);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config)
    };
    let baseline = make().run();
    let expected = fingerprint(&baseline);
    let ck = temp_path("s298-sample");
    for k in [1, 2, 3, 7, 19, 53, 131, 317, 711, 1553] {
        let controls = RunControls {
            checkpoint_path: Some(ck.clone()),
            max_ticks: Some(k),
            ..RunControls::default()
        };
        let leg = make().run_controlled(&controls);
        if leg.stop == StopCause::Completed {
            break;
        }
        let snap = RunSnapshot::load(&ck).unwrap();
        let resumed = make().resume(&snap, &RunControls::default()).unwrap();
        assert_eq!(fingerprint(&resumed), expected, "kill at tick {k}");
    }
    let _ = std::fs::remove_file(&ck);
}

/// Interrupting twice (three legs total) still lands on the identical
/// result: elapsed and counters accumulate across legs without skew.
#[test]
fn double_interruption_still_matches() {
    let baseline = s27_generator(11).run();
    let ck = temp_path("s27-twice");
    let leg1 = s27_generator(11).run_controlled(&RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(9),
        ..RunControls::default()
    });
    assert_eq!(leg1.stop, StopCause::Interrupted);
    let snap1 = RunSnapshot::load(&ck).unwrap();
    let leg2 = s27_generator(11)
        .resume(
            &snap1,
            &RunControls {
                checkpoint_path: Some(ck.clone()),
                max_ticks: Some(31),
                ..RunControls::default()
            },
        )
        .unwrap();
    assert_eq!(leg2.stop, StopCause::Interrupted);
    let snap2 = RunSnapshot::load(&ck).unwrap();
    let final_leg = s27_generator(11)
        .resume(&snap2, &RunControls::default())
        .unwrap();
    assert_eq!(fingerprint(&final_leg), fingerprint(&baseline));
    let _ = std::fs::remove_file(&ck);
}

/// A resumed run can also finish under a budget: the `max_evals` stop point
/// is deterministic, so budgeted-then-resumed equals budgeted-in-one-go.
#[test]
fn budget_stop_is_deterministic_across_legs() {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
    let with_budget = |evals: Option<u64>| {
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(5);
        config.max_evals = evals;
        TestGenerator::new(Arc::clone(&circuit), config)
    };
    let one_go = with_budget(Some(200)).run();
    assert_eq!(one_go.stop, StopCause::BudgetExhausted);

    let ck = temp_path("s27-budget");
    let leg1 = with_budget(None).run_controlled(&RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(7),
        ..RunControls::default()
    });
    assert_eq!(leg1.stop, StopCause::Interrupted);
    let snap = RunSnapshot::load(&ck).unwrap();
    let resumed = with_budget(Some(200))
        .resume(&snap, &RunControls::default())
        .unwrap();
    assert_eq!(resumed.stop, StopCause::BudgetExhausted);
    assert_eq!(fingerprint(&resumed), fingerprint(&one_go));
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn atomic_writes_leave_no_tmp_file() {
    let ck = temp_path("s27-atomic");
    let controls = RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(25),
        ..RunControls::default()
    };
    let leg = s27_generator(2).run_controlled(&controls);
    assert_eq!(leg.stop, StopCause::Interrupted);
    assert!(leg.checkpoint_error.is_none());
    assert!(ck.exists(), "final checkpoint written");
    let tmp = ck.with_extension("bin.tmp");
    assert!(!tmp.exists(), "temporary sibling must be renamed away");
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn resume_rejects_mismatched_seed_and_circuit() {
    let ck = temp_path("s27-reject");
    let controls = RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(12),
        ..RunControls::default()
    };
    let leg = s27_generator(3).run_controlled(&controls);
    assert_eq!(leg.stop, StopCause::Interrupted);
    let snap = RunSnapshot::load(&ck).unwrap();

    let err = s27_generator(4)
        .resume(&snap, &RunControls::default())
        .unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");

    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
    let config = GatestConfig::for_circuit(&circuit).with_seed(3);
    let err = TestGenerator::new(circuit, config)
        .resume(&snap, &RunControls::default())
        .unwrap_err();
    assert!(err.to_string().contains("circuit"), "{err}");

    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27").unwrap());
    let mut config = GatestConfig::for_circuit(&circuit).with_seed(3);
    config.generations += 1;
    let err = TestGenerator::new(circuit, config)
        .resume(&snap, &RunControls::default())
        .unwrap_err();
    assert!(err.to_string().contains("digest"), "{err}");

    // The checksum is easy to recompute, so simulator state that does not
    // fit the circuit must come back as an error, not a panic.
    let undetected = snap
        .sim
        .status
        .iter()
        .position(|s| matches!(s, FaultStatus::Undetected))
        .expect("an early checkpoint leaves faults undetected");
    let rejects = |needle: &str, corrupt: &dyn Fn(&mut SimState)| {
        let mut bad = snap.clone();
        corrupt(&mut bad.sim);
        let err = s27_generator(3)
            .resume(&bad, &RunControls::default())
            .unwrap_err();
        assert!(err.to_string().contains(needle), "{needle}: {err}");
    };
    rejects("fault count", &|sim| {
        sim.status.pop();
        sim.faulty_ff.pop();
    });
    rejects("faulty-FF table", &|sim| sim.faulty_ff.push(Vec::new()));
    rejects("net count", &|sim| sim.good_values.push(Logic::X));
    rejects("flip-flop count", &|sim| {
        sim.good_next_state.pop();
    });
    // s27 has three flip-flops, so index 3 is one past the end.
    rejects("out of range", &|sim| {
        sim.faulty_ff[undetected].push((3, Logic::One));
    });
    let _ = std::fs::remove_file(&ck);
}

/// Checkpoints that store the simulator state in 1-3 pieces, as builds
/// that split the fault list across several simulators wrote them, resume
/// to the uninterrupted result byte for byte. Pieces that disagree on the
/// good machine are refused at decode.
#[test]
fn multi_state_checkpoints_resume_bit_identically() {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
    let make = || {
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(21);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config)
    };
    let expected = fingerprint(&make().run());
    let ck = temp_path("s298-pieces");
    let leg = make().run_controlled(&RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(53),
        ..RunControls::default()
    });
    assert_eq!(leg.stop, StopCause::Interrupted);
    let snap = RunSnapshot::load(&ck).unwrap();
    for k in 1..=3 {
        let stored = RunSnapshot::decode(&encode_pieces(&snap, &split_state(&snap.sim, k)))
            .unwrap_or_else(|e| panic!("{k} pieces: {e}"));
        let resumed = make().resume(&stored, &RunControls::default()).unwrap();
        assert_eq!(fingerprint(&resumed), expected, "{k} pieces");
    }
    let corruptions: [fn(&mut SimState); 3] = [
        |s| s.vectors_applied += 1,
        |s| s.good_values.push(Logic::X),
        |s| s.good_next_state.push(Logic::X),
    ];
    for corrupt in corruptions {
        let mut pieces = split_state(&snap.sim, 2);
        corrupt(&mut pieces[1]);
        match RunSnapshot::decode(&encode_pieces(&snap, &pieces)) {
            Err(CheckpointError::Corrupt(why)) => assert!(why.contains("state 1"), "{why}"),
            other => panic!("expected a corrupt-file error, got {other:?}"),
        }
    }
    assert!(matches!(
        RunSnapshot::decode(&encode_pieces(&snap, &[])),
        Err(CheckpointError::Corrupt(_))
    ));
    let _ = std::fs::remove_file(&ck);
}

/// Writes a real s298 checkpoint, stores `values` in the given retired
/// counter slots (which this build writes as 0), and checks the file still
/// decodes to the same snapshot, re-encodes to the original bytes, and
/// resumes byte-identically.
fn assert_retired_slots_resume(name: &str, values: &[(usize, u64)]) {
    let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s298").unwrap());
    let make = || {
        let mut config = GatestConfig::for_circuit(&circuit).with_seed(21);
        config.fault_sample = FaultSample::Count(60);
        TestGenerator::new(Arc::clone(&circuit), config)
    };
    let expected = fingerprint(&make().run());
    let ck = temp_path(name);
    let leg = make().run_controlled(&RunControls {
        checkpoint_path: Some(ck.clone()),
        max_ticks: Some(53),
        ..RunControls::default()
    });
    assert_eq!(leg.stop, StopCause::Interrupted);
    let bytes = std::fs::read(&ck).unwrap();
    let _ = std::fs::remove_file(&ck);
    let snap = RunSnapshot::decode(&bytes).unwrap();
    // The 27 counters sit just before the checksum.
    let slot = |i: usize| bytes.len() - 8 - (27 - i) * 8;
    let mut old = bytes.clone();
    for &(i, value) in values {
        assert_eq!(
            old[slot(i)..slot(i) + 8],
            [0u8; 8],
            "slot {i} is written as 0"
        );
        old[slot(i)..slot(i) + 8].copy_from_slice(&value.to_le_bytes());
    }
    let old = reseal(old);
    assert_ne!(old, bytes);
    let decoded = RunSnapshot::decode(&old).unwrap();
    assert_eq!(decoded, snap, "the stored retired counters are ignored");
    assert_eq!(decoded.encode(), bytes, "and re-encoded as 0");
    let resumed = make().resume(&decoded, &RunControls::default()).unwrap();
    assert_eq!(fingerprint(&resumed), expected);
}

/// Checkpoints from builds with an in-simulator fault-group thread pool
/// carry its two counters (dispatched groups, worker wake latency) in
/// slots 10 and 11 of the counter block.
#[test]
fn retired_group_pool_counter_slots_resume_bit_identically() {
    assert_retired_slots_resume("s298-group-slots", &[(10, 4_096), (11, 730_000)]);
}

/// Checkpoints from builds with a four-word packed backend carry its two
/// counters (wide groups simulated, lanes per group) in slots 19 and 20.
#[test]
fn retired_wide_backend_counter_slots_resume_bit_identically() {
    assert_retired_slots_resume("s298-wide-slots", &[(19, 83_393), (20, 256)]);
}

#[test]
fn future_format_versions_are_rejected_with_a_clear_error() {
    let snap = arbitrary_snapshot(42);
    let mut bytes = snap.encode();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match RunSnapshot::decode(&bytes) {
        Err(CheckpointError::VersionMismatch { found }) => assert_eq!(found, 99),
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

#[test]
fn cadence_checkpoints_are_resumable_too() {
    // Periodic (generation-cadence) checkpoints, not just final ones, must
    // resume bit-identically.
    use gatest_core::CheckpointCadence;
    let baseline = s27_generator(7).run();
    let ck = temp_path("s27-cadence");
    let leg = s27_generator(7).run_controlled(&RunControls {
        checkpoint_path: Some(ck.clone()),
        checkpoint_every: Some(CheckpointCadence::Generations(5)),
        max_ticks: Some(40),
        ..RunControls::default()
    });
    assert_eq!(leg.stop, StopCause::Interrupted);
    assert!(
        leg.telemetry.counters.checkpoint_writes >= 2,
        "cadence plus final write"
    );
    let snap = RunSnapshot::load(&ck).unwrap();
    let resumed = s27_generator(7)
        .resume(&snap, &RunControls::default())
        .unwrap();
    assert_eq!(fingerprint(&resumed), fingerprint(&baseline));
    let _ = std::fs::remove_file(&ck);
}
