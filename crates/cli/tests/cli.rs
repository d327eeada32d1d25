//! End-to-end tests of the `gatest` binary.

use std::process::Command;

fn gatest(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gatest"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_lists_commands() {
    let out = gatest(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "atpg", "grade", "compact", "diagnose", "stats", "scan", "convert", "hitec",
    ] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = gatest(&["frobnicate", "s27"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn atpg_then_grade_round_trip() {
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tests = dir.join("s27.tests");
    let out = gatest(&[
        "atpg",
        "s27",
        "--seed",
        "3",
        "--out",
        tests.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("faults"));

    let out = gatest(&["grade", "s27", "--tests", tests.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("26/26"), "expected full coverage: {text}");
}

#[test]
fn grade_transition_mode() {
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let tests = dir.join("s27t.tests");
    gatest(&["atpg", "s27", "--out", tests.to_str().unwrap()]);
    let out = gatest(&[
        "grade",
        "s27",
        "--tests",
        tests.to_str().unwrap(),
        "--transition",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("transition faults"));
}

#[test]
fn stats_and_convert() {
    let out = gatest(&["stats", "s298"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sequential depth: 8"));
    assert!(text.contains("SCOAP"));

    let out = gatest(&["convert", "s27", "--to", "dot"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("digraph"));
}

#[test]
fn scan_emits_combinational_bench() {
    let out = gatest(&["scan", "s27"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("DFF"), "scan output must be flip-flop-free");
    assert!(text.contains("INPUT(G5)"), "flip-flop became a pseudo-PI");
}

#[test]
fn file_based_circuit_loads() {
    // Write s27 out, read it back in via file path.
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mine.bench");
    let circuit = gatest_netlist::benchmarks::iscas89("s27").unwrap();
    std::fs::write(&path, gatest_netlist::write_bench(&circuit)).unwrap();
    let out = gatest(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 DFFs"));
}

#[test]
fn missing_flag_is_reported() {
    let out = gatest(&["grade", "s27"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tests"));
}

#[test]
fn usage_errors_exit_with_code_2() {
    // Missing circuit argument, unknown command, unknown or retired flag,
    // a flag another command takes: all usage. The budget keeps a run
    // short should a flag ever be ignored again.
    for args in [
        &["atpg"][..],
        &["frobnicate", "s27"][..],
        &["atpg", "s27", "-z"][..],
        &["atpg", "s27", "--fault-shards", "2", "--max-evals", "50"][..],
        &["atpg", "s27", "--sim-threads", "2", "--max-evals", "50"][..],
        &["atpg", "s27", "--sim-threads", "auto", "--max-evals", "50"][..],
        &["atpg", "s27", "--no-such-flag", "1", "--max-evals", "50"][..],
        &["atpg", "s27", "--sim-width", "wide256", "--max-evals", "50"][..],
        &[
            "atpg",
            "s27",
            "--sim-width",
            "scalar64",
            "--max-evals",
            "50",
        ][..],
        &["atpg", "s27", "--sim-width", "auto", "--max-evals", "50"][..],
        &["stats", "s27", "--seed", "1"][..],
        &["trace", "s27"][..],
    ] {
        let out = gatest(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    }
}

#[test]
fn runtime_errors_exit_with_code_1() {
    // An unreadable circuit file is a runtime failure, not a usage one.
    let out = gatest(&["stats", "/nonexistent/missing.bench"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("reading it failed"));
}

#[test]
fn trace_out_emits_all_event_kinds_and_summarizes() {
    let dir = std::env::temp_dir().join("gatest_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("s27.trace.jsonl");
    let out = gatest(&[
        "atpg",
        "s27",
        "--seed",
        "3",
        "--trace-out",
        trace.to_str().unwrap(),
        "--progress",
        "-q",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // -q suppressed the summary; --progress still reports on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("phases ["), "-q must suppress the summary");
    assert!(
        stderr.contains("[gatest]"),
        "progress lines expected: {stderr}"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    for kind in [
        "run_started",
        "phase_entered",
        "ga_generation",
        "vector_committed",
        "fault_detected",
        "run_finished",
    ] {
        assert!(
            text.contains(&format!("\"event\":\"{kind}\"")),
            "trace missing {kind}"
        );
    }

    let out = gatest(&["trace", "summarize", trace.to_str().unwrap()]);
    assert!(out.status.success());
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("run: s27 seed 3"), "{summary}");
    assert!(summary.contains("finished: "), "{summary}");
}

/// `gatest trace summarize|phases … | head -1`: a reader that closes its
/// end before the report is written ends the command quietly, with no
/// panic on the broken pipe.
#[test]
fn trace_reports_into_a_closed_pipe_exit_quietly() {
    use std::process::Stdio;

    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/s298_seed5_full.trace.jsonl"
    );
    for action in ["summarize", "phases"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gatest"))
            .args(["trace", action, trace])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // Close the read end before the child has read its trace.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{action}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{action}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{action}: {stderr}");
    }
}

#[test]
fn verbose_prints_telemetry_table() {
    let out = gatest(&["atpg", "s27", "--seed", "3", "-v", "--out", "/dev/null"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["2 vector generation", "ga generations", "evals/sec"] {
        assert!(stderr.contains(needle), "missing `{needle}`:\n{stderr}");
    }
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Transition results pinned to recorded values: the GA generator's
/// detections, vector count and test-set hash at seed 1, and `grade
/// --transition` on a committed test set (`gatest atpg s298 --seed 1`).
/// A change to the transition simulator's kernel must leave all of them
/// exactly as they are.
#[test]
fn transition_results_match_recorded_values() {
    use std::sync::Arc;

    use gatest_core::report::test_set_to_string;
    use gatest_core::transition::TransitionTestGenerator;
    use gatest_core::GatestConfig;

    for (name, detected, vectors, hash) in [
        ("s27", 33, 23, 0x9ffd_a865_cea1_6fe1),
        ("s298", 352, 222, 0xa862_5ff0_3a2f_41f2),
    ] {
        let circuit = Arc::new(gatest_netlist::benchmarks::iscas89(name).unwrap());
        let config = GatestConfig::for_circuit(&circuit).with_seed(1);
        let result = TransitionTestGenerator::new(circuit, config).run();
        let text = test_set_to_string(&result.test_set);
        assert_eq!(
            (result.detected, result.vectors(), fnv1a(text.as_bytes())),
            (detected, vectors, hash),
            "{name}: transition generator drifted from its recorded result"
        );
    }

    let tests = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/s298_seed1.tests");
    let out = gatest(&["grade", "s298", "--tests", tests, "--transition"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "transition faults: 359/436 detected (82.3%)\n"
    );
}
