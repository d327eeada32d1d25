//! Whole-run benchmark of the GATEST reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <record-a.json> <record-b.json>
//! ```
//!
//! Workloads:
//!
//! * `atpg_s1423` — one whole GATEST run on the bundled s1423, the paper's
//!   circuit; phase 4 (sequences) dominates and the memo barely hits.
//! * `atpg_s298` — several GA seeds of s298 back to back; the memo answers
//!   a large share of lookups and the working set fits in L1.
//! * `atpg_synth10k` — a capped run on a ~11.5k-gate `SyntheticGenerator`
//!   circuit built from the workload seed; vector phases 2–3 dominate.
//! * `serve_open` — an open loop of small jobs sent to an in-process
//!   `gatest serve` over loopback HTTP, run in preemptible slices.
//!
//! With `--trace 0` the run is untraced and reports the end-to-end metrics;
//! with `--trace 1` it also repeats the workload traced and reports the
//! per-layer metrics. The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); stderr gets a table of
//! every metric by name and unit; `.bench_out/` gets a record file (host
//! shape, revision, resolved options, sample counts) and the span trace.
//! `compare` reports per-metric changes between two record files, or marks
//! the comparison unresolved when they come from different host shapes.

mod atpg;
mod compare;
mod host;
mod layers;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use host::HostShape;
use report::Report;
use trace::Tracer;

/// Where records and span traces go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Every workload, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["atpg_s1423", "atpg_s298", "atpg_synth10k", "serve_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match compare::compare_files(Path::new(a), Path::new(b)) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: perfbench compare <record-a.json> <record-b.json>");
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("setup") {
        // A child of `setup_s`: time set-ups in a fresh process.
        let value = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        };
        return match (
            value("--workload"),
            value("--seed").and_then(|s| s.parse().ok()),
        ) {
            (Some(w), Some(seed)) if WORKLOADS.contains(&w.as_str()) => {
                let samples = layers::setup_samples(w, seed);
                println!(
                    "{}",
                    samples
                        .iter()
                        .map(f64::to_string)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!("usage: perfbench setup --workload <name> --seed <n>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };

    let host = HostShape::detect();
    let revision = host::git_revision();
    let mut report = Report::default();
    report.info("workload", &args.workload);
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    let mut tracer = Tracer::new();
    if args.workload == "serve_open" {
        layers::serve_workload(&args, &mut report, &mut tracer);
    } else {
        layers::atpg_workload(&args, &mut report, &mut tracer);
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.traced)
    );
    let out = Path::new(OUT_DIR);
    let written = report::write_out(
        out,
        &format!("{stem}.json"),
        &report.record(&host, &revision, args.traced),
    )
    .and_then(|()| {
        if args.traced {
            report::write_out(out, &format!("{stem}.spans.jsonl"), &tracer.to_jsonl())
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {OUT_DIR}/{stem}.*: {e}");
    }
    eprintln!(
        "{} seed {} on {} CPUs ({}), revision {revision}",
        args.workload, args.seed, host.nproc, host.cpu_model
    );
    eprint!("{}", report.table());
    println!("{}", report.result_line(args.traced));
    ExitCode::SUCCESS
}
