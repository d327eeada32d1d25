//! The served-job workload: a seeded open-loop arrival schedule sent to an
//! in-process `gatest serve` over loopback HTTP by one client that holds
//! one connection at a time, plus the serve-layer slice replay.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gatest_core::report::result_to_json;
use gatest_core::TestGenerator;
use gatest_ga::Rng;
use gatest_serve::{
    run_slice, CircuitCache, JobSpec, Server, ServerConfig, SliceClaim, SliceOutcome,
};
use gatest_telemetry::json::{parse_json, Json};
use gatest_telemetry::Instruments;

use crate::atpg::FAULT_SAMPLE;
use crate::host::nproc;
use crate::stats::generator_lag;
use crate::trace::{SpanId, Tracer};

/// How often the client polls each open job while it waits.
const POLL: Duration = Duration::from_millis(1);
/// Give up on a schedule that has not drained this long after its last due
/// time (every job left is then counted as failed).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The open loop's traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Arrivals per second.
    pub rate: f64,
    /// At least this many jobs, so p90 has ten samples beyond it.
    pub min_jobs: usize,
    /// Shares of jobs on s298 and on s344; the rest are s27.
    pub s298_share: f64,
    /// See `s298_share`.
    pub s344_share: f64,
    /// Evaluation budget of each s298/s344 job.
    pub heavy_max_evals: u64,
    /// Distinct GA seeds jobs draw from.
    pub ga_seeds: u64,
}

/// One scheduled job.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Seconds after the loop starts that the job is due.
    pub due_s: f64,
    /// What to submit.
    pub spec: JobSpec,
}

/// Builds the arrival schedule for `seed`: a fixed composition (the mix's
/// shares of s298 and s344 jobs, the rest s27) in seed-shuffled order, due
/// at a fixed rate with seeded jitter of up to ±40% of the gap.
pub fn schedule(mix: &Mix, seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x5e57_e0f0_0d15_ea5e);
    let n = ((mix.rate * seconds).ceil() as usize).max(mix.min_jobs);
    let s298 = (n as f64 * mix.s298_share).round() as usize;
    let s344 = (n as f64 * mix.s344_share).round() as usize;
    let mut circuits: Vec<&str> = (0..n)
        .map(|i| match i {
            i if i < s298 => "s298",
            i if i < s298 + s344 => "s344",
            _ => "s27",
        })
        .collect();
    rng.shuffle(&mut circuits);
    let gap = 1.0 / mix.rate;
    circuits
        .iter()
        .enumerate()
        .map(|(i, &circuit)| {
            let jitter = (rng.below(801) as f64 - 400.0) / 1000.0;
            let spec = JobSpec {
                circuit: circuit.into(),
                seed: 1 + rng.below(mix.ga_seeds as usize) as u64,
                sample: FAULT_SAMPLE as u64,
                max_evals: (circuit != "s27").then_some(mix.heavy_max_evals),
                ..JobSpec::default()
            };
            Planned {
                due_s: (i as f64 + 0.5 + jitter) * gap,
                spec,
            }
        })
        .collect()
}

/// The server every serve measurement starts: default options apart from
/// one runner per CPU and room for the whole schedule.
pub fn server_config(jobs: usize) -> ServerConfig {
    ServerConfig {
        runners: nproc(),
        queue_depth: jobs + 8,
        ..ServerConfig::default()
    }
}

/// Set-up as a serving user pays it: from `Server::start` to the first
/// job accepted (202).
pub fn setup_once() -> Duration {
    let start = Instant::now();
    let server = Server::start(server_config(1)).expect("server starts on loopback");
    let spec = JobSpec {
        circuit: "s27".into(),
        ..JobSpec::default()
    };
    let (status, _) = post(server.local_addr(), "/jobs", &spec.to_json());
    let took = start.elapsed();
    assert!(status.contains("202"), "set-up job refused: {status}");
    drop(server);
    took
}

/// What happened to one job.
#[derive(Debug, Clone, Default)]
pub struct JobOut {
    /// Seconds after loop start: due, sent, first seen out of the queue,
    /// result fetched.
    pub due_s: f64,
    /// See `due_s`.
    pub sent_s: f64,
    /// See `due_s`; `None` until a poll sees the job leave `queued`.
    pub dequeued_s: Option<f64>,
    /// See `due_s`; `None` if the job never finished.
    pub fetched_s: Option<f64>,
    /// Round trip of the submit request.
    pub submit_s: f64,
    /// Slices the server ran the job in.
    pub slices: u64,
    /// The fetched result bytes.
    pub result: Option<String>,
    /// Why the job failed, if it did.
    pub error: Option<String>,
}

/// One open-loop pass.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Per job, in schedule order.
    pub jobs: Vec<JobOut>,
    /// From loop start to the last result fetched.
    pub wall_s: f64,
    /// `gatest_serve_preemptions_total` at the end.
    pub preemptions: f64,
}

/// Runs the schedule against a fresh server. With a tracer, every request
/// the client makes is recorded as a span under `parent`.
pub fn open_loop(plan: &[Planned], mut trace: Option<(&mut Tracer, SpanId, u32)>) -> LoopOut {
    let server = Server::start(server_config(plan.len())).expect("server starts on loopback");
    let addr = server.local_addr();
    let start = Instant::now();
    let at = |t: Instant| t.duration_since(start).as_secs_f64();
    let mut jobs: Vec<JobOut> = plan
        .iter()
        .map(|p| JobOut {
            due_s: p.due_s,
            ..JobOut::default()
        })
        .collect();
    let mut ids: Vec<Option<u64>> = vec![None; plan.len()];
    let mut next = 0usize;
    let mut open = 0usize;
    let mut next_poll = start;
    let last_due = plan.last().map_or(0.0, |p| p.due_s);
    loop {
        let now = Instant::now();
        if next < plan.len() && at(now) >= plan[next].due_s {
            let t = Instant::now();
            let (status, reply) = post(addr, "/jobs", &plan[next].spec.to_json());
            let done = Instant::now();
            if let Some((tracer, parent, run)) = trace.as_mut() {
                tracer.record("serve.submit", Some(*parent), *run, t, done);
            }
            let job = &mut jobs[next];
            job.sent_s = at(t);
            job.submit_s = done.duration_since(t).as_secs_f64();
            let id = parse_json(reply.trim())
                .ok()
                .and_then(|j| j.get("id").and_then(Json::as_u64));
            match (status.contains("202"), id) {
                (true, Some(id)) => {
                    ids[next] = Some(id);
                    open += 1;
                }
                _ => job.error = Some(format!("submit refused: {status} {}", reply.trim())),
            }
            next += 1;
            continue;
        }
        if open > 0 && now >= next_poll {
            next_poll = now + POLL;
            for i in 0..plan.len() {
                let Some(id) = ids[i] else { continue };
                if jobs[i].fetched_s.is_some() || jobs[i].error.is_some() {
                    continue;
                }
                let t = Instant::now();
                let (_, body) = get(addr, &format!("/jobs/{id}"));
                let seen = Instant::now();
                if let Some((tracer, parent, run)) = trace.as_mut() {
                    tracer.record("serve.poll", Some(*parent), *run, t, seen);
                }
                let doc = parse_json(body.trim()).unwrap_or(Json::Null);
                let state = doc.get("state").and_then(Json::as_str).unwrap_or("unknown");
                if state != "queued" && jobs[i].dequeued_s.is_none() {
                    jobs[i].dequeued_s = Some(at(seen));
                }
                match state {
                    "done" => {
                        let t = Instant::now();
                        let (status, body) = get(addr, &format!("/jobs/{id}/result"));
                        let done = Instant::now();
                        if let Some((tracer, parent, run)) = trace.as_mut() {
                            tracer.record("serve.fetch", Some(*parent), *run, t, done);
                        }
                        let job = &mut jobs[i];
                        job.slices = doc.get("slices").and_then(Json::as_u64).unwrap_or(0);
                        if status.contains("200") {
                            job.fetched_s = Some(at(done));
                            job.result = Some(body);
                        } else {
                            job.error = Some(format!("result fetch failed: {status}"));
                        }
                        open -= 1;
                    }
                    "failed" | "cancelled" | "unknown" => {
                        jobs[i].error = Some(format!("job ended {state}: {}", body.trim()));
                        open -= 1;
                    }
                    _ => {}
                }
            }
            continue;
        }
        if next >= plan.len() && open == 0 {
            break;
        }
        if next >= plan.len() && at(now) > last_due + DRAIN_TIMEOUT.as_secs_f64() {
            for job in jobs.iter_mut().filter(|j| j.fetched_s.is_none()) {
                job.error
                    .get_or_insert_with(|| "not done before the drain timeout".into());
            }
            break;
        }
        let mut wake = next_poll;
        if next < plan.len() {
            let due = start + Duration::from_secs_f64(plan[next].due_s);
            if open == 0 || due < wake {
                wake = due;
            }
        }
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    let wall_s = jobs.iter().filter_map(|j| j.fetched_s).fold(0.0, f64::max);
    let (_, metrics) = get(addr, "/metrics");
    let preemptions = metrics
        .lines()
        .find(|l| l.starts_with("gatest_serve_preemptions_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    drop(server);
    LoopOut {
        jobs,
        wall_s,
        preemptions,
    }
}

/// Standalone result bytes for `spec`, memoized: what `TestGenerator` gives
/// for the same spec without the server (plus the newline the server adds).
#[derive(Default)]
pub struct Standalone {
    circuits: CircuitCache,
    results: HashMap<String, String>,
}

impl Standalone {
    /// The bytes a correct server returns for `spec`.
    pub fn bytes(&mut self, spec: &JobSpec) -> String {
        let key = spec.to_json();
        if let Some(r) = self.results.get(&key) {
            return r.clone();
        }
        let circuit = self
            .circuits
            .load(&spec.circuit)
            .expect("bundled circuit loads");
        let config = spec.config(&circuit);
        let bytes = result_to_json(&TestGenerator::new(circuit, config).run()) + "\n";
        self.results.insert(key, bytes.clone());
        bytes
    }
}

/// Uninterrupted and sliced runs of one job in [`slice_replay`].
pub const SLICE_REPLAY_PAIRS: usize = 5;

/// The serve layer replayed outside the server: one job run in one go and
/// then slice by slice through `run_slice`, alternately, each call timed.
/// Returns the slice durations, the median uninterrupted and sliced run
/// times in seconds, and whether every sliced result matched the
/// uninterrupted bytes.
pub fn slice_replay(
    spec: &JobSpec,
    slice_ticks: u64,
    tracer: &mut Tracer,
    parent: SpanId,
    run: u32,
) -> (Vec<f64>, f64, f64, bool) {
    let circuits = CircuitCache::default();
    let circuit = circuits.load(&spec.circuit).expect("bundled circuit loads");
    let mut slices = Vec::new();
    let mut wholes = Vec::new();
    let mut sliced_totals = Vec::new();
    let mut identical = true;
    for _ in 0..SLICE_REPLAY_PAIRS {
        let config = spec.config(&circuit);
        let t = Instant::now();
        let whole = result_to_json(&TestGenerator::new(Arc::clone(&circuit), config).run());
        wholes.push(t.elapsed().as_secs_f64());
        tracer.record("serve.whole_run", Some(parent), run, t, Instant::now());

        let mut snapshot = None;
        let mut total = 0.0;
        let sliced = loop {
            let claim = SliceClaim {
                id: 1,
                spec: spec.clone(),
                snapshot: snapshot.take(),
                stop: Arc::new(AtomicBool::new(false)),
                events: Arc::new(Mutex::new(Vec::new())),
                instruments: Instruments::new(),
            };
            let t = Instant::now();
            let (outcome, _) = run_slice(&claim, &circuits, slice_ticks);
            let took = t.elapsed().as_secs_f64();
            slices.push(took);
            total += took;
            tracer.record("serve.slice", Some(parent), run, t, Instant::now());
            match outcome {
                SliceOutcome::Finished(result) => break Some(result_to_json(&result)),
                SliceOutcome::Preempted(snap) => snapshot = Some(*snap),
                SliceOutcome::Error(_) => break None,
            }
        };
        sliced_totals.push(total);
        identical &= sliced.as_deref() == Some(whole.as_str());
    }
    (
        slices,
        crate::stats::median(&wholes),
        crate::stats::median(&sliced_totals),
        identical,
    )
}

/// Seconds from each job's due time to its result (fetched jobs only).
pub fn latencies(out: &LoopOut) -> Vec<f64> {
    out.jobs
        .iter()
        .filter_map(|j| j.fetched_s.map(|f| crate::stats::due_latency(j.due_s, f)))
        .collect()
}

/// How late the generator sent each job, in milliseconds.
pub fn lags_ms(out: &LoopOut) -> Vec<f64> {
    out.jobs
        .iter()
        .map(|j| generator_lag(j.due_s, j.sent_s) * 1e3)
        .collect()
}

// A minimal std::net HTTP/1.1 client: one request per connection.

fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let attempt = || -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(request.as_bytes())?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    };
    match attempt() {
        Ok(response) => match response.split_once("\r\n\r\n") {
            Some((head, body)) => (
                head.lines().next().unwrap_or_default().to_string(),
                body.to_string(),
            ),
            None => (format!("malformed response {response:?}"), String::new()),
        },
        Err(e) => (format!("request failed: {e}"), String::new()),
    }
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}
