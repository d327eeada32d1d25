//! JSONL trace writer: one JSON object per event.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::RunEvent;
use crate::json::event_to_json;
use crate::RunObserver;

/// Writes each event as one JSON line to an underlying writer.
///
/// Lines are written eagerly but the writer is only flushed on
/// [`RunEvent::RunFinished`] (and on drop, via the inner `BufWriter` when
/// constructed with [`JsonlTraceWriter::create`]), so tracing stays off the
/// hot path. Write errors are counted, not propagated: telemetry must never
/// abort a test-generation run.
pub struct JsonlTraceWriter<W: Write> {
    inner: Mutex<WriterState<W>>,
}

struct WriterState<W: Write> {
    writer: W,
    errors: u64,
}

impl JsonlTraceWriter<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlTraceWriter::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlTraceWriter<W> {
    /// Wraps an arbitrary writer (e.g. `Vec<u8>` in tests).
    pub fn new(writer: W) -> Self {
        JsonlTraceWriter {
            inner: Mutex::new(WriterState { writer, errors: 0 }),
        }
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex was poisoned.
    pub fn into_inner(self) -> W {
        let mut state = self.inner.into_inner().expect("trace writer poisoned");
        let _ = state.writer.flush();
        state.writer
    }

    /// Number of write errors swallowed so far.
    pub fn error_count(&self) -> u64 {
        self.inner.lock().expect("trace writer poisoned").errors
    }
}

impl<W: Write + Send> RunObserver for JsonlTraceWriter<W> {
    fn on_event(&self, event: &RunEvent) {
        let line = event_to_json(event);
        let mut state = self.inner.lock().expect("trace writer poisoned");
        if writeln!(state.writer, "{line}").is_err() {
            state.errors += 1;
            return;
        }
        if matches!(event, RunEvent::RunFinished { .. }) && state.writer.flush().is_err() {
            state.errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};

    #[test]
    fn writes_one_line_per_event() {
        let writer = JsonlTraceWriter::new(Vec::new());
        writer.on_event(&RunEvent::RunStarted {
            circuit: "s27".into(),
            total_faults: 26,
            seed: 7,
        });
        writer.on_event(&RunEvent::PhaseEntered {
            phase: 1,
            vectors: 0,
        });
        writer.on_event(&RunEvent::RunFinished {
            detected: 25,
            total_faults: 26,
            vectors: 9,
            ga_evaluations: 100,
            elapsed_secs: 0.5,
            budget_exhausted: false,
            snapshot: Box::default(),
        });
        assert_eq!(writer.error_count(), 0);
        let text = String::from_utf8(writer.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let kinds: Vec<String> = lines
            .iter()
            .map(|l| {
                parse_json(l)
                    .unwrap()
                    .get("event")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(kinds, ["run_started", "phase_entered", "run_finished"]);
    }

    #[test]
    fn write_errors_are_swallowed_and_counted() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let writer = JsonlTraceWriter::new(Failing);
        writer.on_event(&RunEvent::PhaseEntered {
            phase: 1,
            vectors: 0,
        });
        writer.on_event(&RunEvent::PhaseEntered {
            phase: 2,
            vectors: 0,
        });
        assert_eq!(writer.error_count(), 2);
    }

    #[test]
    fn create_writes_a_readable_file() {
        let path =
            std::env::temp_dir().join(format!("gatest-trace-test-{}.jsonl", std::process::id()));
        let writer = JsonlTraceWriter::create(&path).unwrap();
        writer.on_event(&RunEvent::FaultDetected {
            fault: 3,
            site: "G5 SA0".into(),
            vector: 2,
        });
        drop(writer.into_inner());
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let j = parse_json(text.trim()).unwrap();
        assert_eq!(j.get("site").and_then(Json::as_str), Some("G5 SA0"));
    }
}
