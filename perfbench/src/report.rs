//! One benchmark run's outcome: the contract's result line on stdout, a
//! human-readable table on stderr, and a record file with everything needed
//! to compare two runs later (host shape, revision, resolved options, sample
//! counts).

use std::fmt::Write as _;
use std::path::Path;

use gatest_telemetry::json::quote;

use crate::host::HostShape;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// How many samples the value summarizes (1 for counts and totals).
    pub samples: usize,
    /// What the value is made of: its base for ratios, its percentile rule.
    pub note: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Runs or jobs attempted.
    pub attempted: u64,
    /// Runs or jobs that failed: errors, refusals, failed output checks.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Free-form provenance: resolved options, input hashes, check results.
    pub info: Vec<(String, String)>,
    /// Why each failed check failed.
    pub failures: Vec<String>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.end_to_end.push(Metric {
            name,
            unit,
            value,
            samples,
            note: String::new(),
        });
    }

    /// Adds a per-layer metric with a note naming its base.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64, note: &str) {
        self.per_layer.push(Metric {
            name,
            unit,
            value,
            samples: 1,
            note: note.to_string(),
        });
    }

    /// Adds a provenance entry.
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Counts one attempted unit of work, failed when `error` is set.
    pub fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The contract's last stdout line: the traced run reports the per-layer
    /// metrics, the untraced run the end-to-end ones.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }

    /// The stderr table: every metric by name and unit, with its sample
    /// count and note, then `failed_frac` and any failures.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(
                out,
                "{:<34} {:>16} {:<6} n={:<4} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples,
                m.note
            );
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16} {:<6} ({} failed of {} attempted)",
            "failed_frac",
            format!("{:.6}", self.failed_frac()),
            "ratio",
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// The record file: host shape, revision, provenance and every metric
    /// with its sample count, as one JSON object.
    pub fn record(&self, host: &HostShape, git_revision: &str, traced: bool) -> String {
        let metric = |m: &Metric| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{},\"samples\":{},\"note\":{}}}",
                m.name,
                m.unit,
                json_number(m.value),
                m.samples,
                quote(&m.note)
            )
        };
        let list = |ms: &[Metric]| ms.iter().map(metric).collect::<Vec<_>>().join(",");
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        format!(
            "{{\"host\":{{\"nproc\":{},\"cpu_model\":{}}},\"git_revision\":{},\"traced\":{traced},\"correct\":{},\"attempted\":{},\"failed\":{},\"failed_frac\":{},\"end_to_end\":[{}],\"per_layer\":[{}],\"info\":{{{}}},\"failures\":[{}]}}\n",
            host.nproc,
            quote(&host.cpu_model),
            quote(git_revision),
            self.failed == 0,
            self.attempted,
            self.failed,
            json_number(self.failed_frac()),
            list(&self.end_to_end),
            list(&self.per_layer),
            info.join(","),
            failures.join(",")
        )
    }
}

/// Writes `text` to `dir/name`, creating `dir`.
pub fn write_out(dir: &Path, name: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(name), text)
}

/// A finite number as JSON (non-finite values become 0, which JSON lacks).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
