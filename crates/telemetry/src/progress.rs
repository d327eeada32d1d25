//! Throttled live progress lines on stderr.

use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::event::RunEvent;
use crate::RunObserver;

/// The reporter's time source. Injectable so throttling is unit-testable
/// without sleeping; the default is [`Instant::now`].
type Clock = Box<dyn Fn() -> Instant + Send + Sync>;

/// Prints a one-line status as the run advances (to stderr by default).
///
/// Lines are throttled to one per `interval` (default 250 ms) so tracing a
/// fast run does not flood the terminal; phase transitions and the final
/// summary always print. A typical line:
///
/// ```text
/// [gatest] phase 2 | vectors 41 | detected 285/320 (89.1%) | 1523 evals/s
/// ```
pub struct ProgressReporter {
    interval: Duration,
    clock: Clock,
    state: Mutex<ProgressState>,
}

struct ProgressState {
    sink: Box<dyn Write + Send>,
    started: Instant,
    last_print: Option<Instant>,
    phase: u8,
    vectors: usize,
    detected: usize,
    total_faults: usize,
    evaluations: u64,
}

impl Default for ProgressReporter {
    fn default() -> Self {
        ProgressReporter::new()
    }
}

impl ProgressReporter {
    /// A reporter with the default 250 ms throttle, printing to stderr.
    pub fn new() -> Self {
        ProgressReporter::with_interval(Duration::from_millis(250))
    }

    /// A reporter printing at most one line per `interval` (phase changes and
    /// the final line are exempt), to stderr, on wall-clock time.
    pub fn with_interval(interval: Duration) -> Self {
        ProgressReporter::with_parts(interval, Box::new(Instant::now), Box::new(StderrSink))
    }

    /// The fully injectable constructor: `clock` supplies the notion of
    /// "now" (throttling, rates) and `sink` receives the lines. Tests pass
    /// a settable clock and a buffer; production uses
    /// [`ProgressReporter::with_interval`].
    pub fn with_parts(interval: Duration, clock: Clock, sink: Box<dyn Write + Send>) -> Self {
        let started = clock();
        ProgressReporter {
            interval,
            clock,
            state: Mutex::new(ProgressState {
                sink,
                started,
                last_print: None,
                phase: 0,
                vectors: 0,
                detected: 0,
                total_faults: 0,
                evaluations: 0,
            }),
        }
    }

    fn print_line(state: &mut ProgressState, now: Instant) {
        let coverage = if state.total_faults > 0 {
            100.0 * state.detected as f64 / state.total_faults as f64
        } else {
            0.0
        };
        let elapsed = now.duration_since(state.started).as_secs_f64();
        let rate = if elapsed > 0.0 {
            state.evaluations as f64 / elapsed
        } else {
            0.0
        };
        let _ = writeln!(
            state.sink,
            "[gatest] phase {} | vectors {} | detected {}/{} ({:.1}%) | {:.0} evals/s",
            state.phase, state.vectors, state.detected, state.total_faults, coverage, rate
        );
        state.last_print = Some(now);
    }
}

/// Writes through to a freshly locked stderr per line, so concurrent
/// writers interleave at line granularity.
struct StderrSink;

impl Write for StderrSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::stderr().lock().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::io::stderr().lock().flush()
    }
}

impl RunObserver for ProgressReporter {
    fn on_event(&self, event: &RunEvent) {
        let mut state = self.state.lock().expect("progress reporter poisoned");
        let now = (self.clock)();
        let mut force = false;
        match event {
            RunEvent::RunStarted { total_faults, .. } => {
                state.started = now;
                state.total_faults = *total_faults;
                return;
            }
            RunEvent::PhaseEntered { phase, vectors } => {
                state.phase = *phase;
                state.vectors = *vectors;
                force = true;
            }
            RunEvent::GaGenerationEvaluated { evaluations, .. } => {
                state.evaluations += *evaluations as u64;
            }
            RunEvent::VectorCommitted {
                vectors,
                detected_total,
                ..
            } => {
                state.vectors = *vectors;
                state.detected = *detected_total;
            }
            RunEvent::FaultDetected { .. } => return,
            RunEvent::RunFinished {
                detected, vectors, ..
            } => {
                state.detected = *detected;
                state.vectors = *vectors;
                force = true;
            }
        }
        let due = match state.last_print {
            None => true,
            Some(last) => now.duration_since(last) >= self.interval,
        };
        if force || due {
            Self::print_line(&mut state, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A manually advanced clock: `base + offset_ms`.
    fn test_clock(offset_ms: Arc<AtomicU64>) -> Clock {
        let base = Instant::now();
        Box::new(move || base + Duration::from_millis(offset_ms.load(Ordering::Relaxed)))
    }

    /// A `Write` sink sharing its buffer with the test.
    #[derive(Clone, Default)]
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedSink {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(str::to_owned)
                .collect()
        }
    }

    fn committed(vectors: usize, detected_total: usize) -> RunEvent {
        RunEvent::VectorCommitted {
            phase: 2,
            vectors,
            detected_new: 1,
            detected_total,
            coverage: 0.0,
        }
    }

    #[test]
    fn accumulates_state_across_events() {
        // Output goes to stderr; here we only exercise the state machine.
        let reporter = ProgressReporter::with_interval(Duration::from_secs(3600));
        reporter.on_event(&RunEvent::RunStarted {
            circuit: "s27".into(),
            total_faults: 26,
            seed: 1,
        });
        reporter.on_event(&RunEvent::PhaseEntered {
            phase: 2,
            vectors: 0,
        });
        reporter.on_event(&RunEvent::GaGenerationEvaluated {
            phase: 2,
            generation: 0,
            best: 1.0,
            mean: 0.5,
            evaluations: 32,
        });
        reporter.on_event(&committed(4, 10));
        let state = reporter.state.lock().unwrap();
        assert_eq!(state.phase, 2);
        assert_eq!(state.vectors, 4);
        assert_eq!(state.detected, 10);
        assert_eq!(state.total_faults, 26);
        assert_eq!(state.evaluations, 32);
        // The forced phase line printed despite the huge throttle interval.
        assert!(state.last_print.is_some());
    }

    #[test]
    fn throttles_to_one_line_per_interval() {
        let offset = Arc::new(AtomicU64::new(0));
        let sink = SharedSink::default();
        let reporter = ProgressReporter::with_parts(
            Duration::from_millis(250),
            test_clock(Arc::clone(&offset)),
            Box::new(sink.clone()),
        );
        // First commit prints (nothing printed yet); the next two within
        // the interval are swallowed.
        reporter.on_event(&committed(1, 1));
        offset.store(100, Ordering::Relaxed);
        reporter.on_event(&committed(2, 2));
        offset.store(200, Ordering::Relaxed);
        reporter.on_event(&committed(3, 3));
        assert_eq!(sink.lines().len(), 1);
        // Crossing the interval prints again, with the *latest* state.
        offset.store(260, Ordering::Relaxed);
        reporter.on_event(&committed(4, 9));
        let lines = sink.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("vectors 4"), "{}", lines[1]);
        assert!(lines[1].contains("detected 9"), "{}", lines[1]);
    }

    #[test]
    fn phase_changes_bypass_the_throttle() {
        let offset = Arc::new(AtomicU64::new(0));
        let sink = SharedSink::default();
        let reporter = ProgressReporter::with_parts(
            Duration::from_secs(3600),
            test_clock(Arc::clone(&offset)),
            Box::new(sink.clone()),
        );
        reporter.on_event(&committed(1, 1));
        reporter.on_event(&RunEvent::PhaseEntered {
            phase: 3,
            vectors: 1,
        });
        let lines = sink.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("phase 3"));
    }

    #[test]
    fn final_line_always_flushes_with_run_totals_and_rate() {
        let offset = Arc::new(AtomicU64::new(0));
        let sink = SharedSink::default();
        let reporter = ProgressReporter::with_parts(
            Duration::from_secs(3600),
            test_clock(Arc::clone(&offset)),
            Box::new(sink.clone()),
        );
        reporter.on_event(&RunEvent::RunStarted {
            circuit: "s27".into(),
            total_faults: 26,
            seed: 1,
        });
        reporter.on_event(&RunEvent::GaGenerationEvaluated {
            phase: 2,
            generation: 0,
            best: 1.0,
            mean: 0.5,
            evaluations: 500,
        });
        reporter.on_event(&committed(1, 1)); // prints: first line
                                             // Two seconds later the run finishes: the final line must print
                                             // despite the one-hour throttle, with a rate of 500/2s.
        offset.store(2_000, Ordering::Relaxed);
        reporter.on_event(&RunEvent::RunFinished {
            detected: 25,
            total_faults: 26,
            vectors: 9,
            ga_evaluations: 500,
            elapsed_secs: 2.0,
            budget_exhausted: false,
            snapshot: Box::default(),
        });
        let lines = sink.lines();
        assert_eq!(lines.len(), 2);
        let last = lines.last().unwrap();
        assert!(last.contains("detected 25/26"), "{last}");
        assert!(last.contains("vectors 9"), "{last}");
        assert!(last.contains("250 evals/s"), "{last}");
    }

    #[test]
    fn run_started_resets_the_rate_base_without_printing() {
        let offset = Arc::new(AtomicU64::new(5_000));
        let sink = SharedSink::default();
        let reporter = ProgressReporter::with_parts(
            Duration::from_millis(250),
            test_clock(Arc::clone(&offset)),
            Box::new(sink.clone()),
        );
        reporter.on_event(&RunEvent::RunStarted {
            circuit: "s27".into(),
            total_faults: 26,
            seed: 1,
        });
        assert!(sink.lines().is_empty(), "run_started must not print");
    }
}
