#![warn(missing_docs)]

//! Run telemetry for the GATEST pipeline.
//!
//! GATEST's behavior is defined by dynamics that a final coverage number
//! cannot show: the Figure 2 phase machine's transitions, per-generation GA
//! fitness trajectories, and the fault-simulator event activity that the
//! phase-3 fitness explicitly rewards. This crate makes those visible:
//!
//! * [`RunObserver`] — a trait receiving typed [`RunEvent`]s from the test
//!   generator as a run unfolds;
//! * [`SimCounters`] — lock-free (relaxed-atomic) counters sampled from the
//!   fault simulator's hot paths;
//! * [`TelemetrySnapshot`] — the per-run aggregate embedded in results;
//! * three built-in observers: [`NullObserver`] (default, zero-cost),
//!   [`JsonlTraceWriter`] (one JSON object per event), and
//!   [`ProgressReporter`] (throttled live stderr lines).
//!
//! The crate has no dependencies — JSON is hand-rolled in [`json`] — so it
//! can sit below every other crate in the workspace.
//!
//! # Example
//!
//! ```
//! use gatest_telemetry::{JsonlTraceWriter, RunEvent, RunObserver};
//!
//! let writer = JsonlTraceWriter::new(Vec::new());
//! writer.on_event(&RunEvent::RunStarted {
//!     circuit: "s27".into(),
//!     total_faults: 26,
//!     seed: 1,
//! });
//! let bytes = writer.into_inner();
//! let line = String::from_utf8(bytes).unwrap();
//! assert!(line.starts_with("{\"event\":\"run_started\""));
//! ```

pub mod counters;
pub mod event;
pub mod expose;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod progress;
pub mod snapshot;
pub mod span;

use std::sync::Arc;

pub use counters::{CounterSnapshot, SimCounters};
pub use event::RunEvent;
pub use expose::MetricsServer;
pub use jsonl::JsonlTraceWriter;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsObserver, MetricsRegistry, RunMetrics,
};
pub use progress::ProgressReporter;
pub use snapshot::TelemetrySnapshot;
pub use span::{
    SpanCollector, SpanGuard, SpanHandle, SpanKind, SpanNode, SpanParent, SpanRecord, SpanSnapshot,
};

/// The per-run instrumentation bundle: a hierarchical [`SpanCollector`]
/// plus the pre-registered [`RunMetrics`].
///
/// One `Arc<Instruments>` is shared by the generator, its evaluation pool
/// workers, and every simulator clone, mirroring how [`SimCounters`] is
/// shared — attach it where the run is built, and every layer records into
/// the same place. Instrumentation is observational only: attaching (or
/// not attaching) a bundle never changes run results.
#[derive(Debug, Default)]
pub struct Instruments {
    /// Hierarchical timing spans.
    pub spans: SpanCollector,
    /// Counters, gauges, and latency histograms.
    pub metrics: RunMetrics,
}

impl Instruments {
    /// A fresh shared bundle.
    pub fn new() -> Arc<Instruments> {
        Arc::new(Instruments::default())
    }
}

/// Receives [`RunEvent`]s as a test-generation run unfolds.
///
/// Observers are shared behind `Arc<dyn RunObserver>` and may be called from
/// the generator's main thread only; `Send + Sync` keeps them shareable
/// across the worker threads that own simulator clones.
pub trait RunObserver: Send + Sync {
    /// Called for every event, in emission order.
    fn on_event(&self, event: &RunEvent);
}

/// The default observer: ignores every event.
///
/// Using this observer keeps the pipeline's telemetry cost to a handful of
/// relaxed atomic adds per simulated vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn on_event(&self, _event: &RunEvent) {}
}

/// Fans every event out to a list of observers, in order.
#[derive(Default)]
pub struct MultiObserver {
    observers: Vec<Arc<dyn RunObserver>>,
}

impl MultiObserver {
    /// An observer forwarding to `observers` in order.
    pub fn new(observers: Vec<Arc<dyn RunObserver>>) -> Self {
        MultiObserver { observers }
    }

    /// Adds one more downstream observer.
    pub fn push(&mut self, observer: Arc<dyn RunObserver>) {
        self.observers.push(observer);
    }

    /// Number of downstream observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// True when no observers are attached.
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl RunObserver for MultiObserver {
    fn on_event(&self, event: &RunEvent) {
        for observer in &self.observers {
            observer.on_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct Counting(AtomicUsize);

    impl RunObserver for Counting {
        fn on_event(&self, _event: &RunEvent) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = Arc::new(Counting::default());
        let b = Arc::new(Counting::default());
        let mut multi = MultiObserver::default();
        assert!(multi.is_empty());
        multi.push(a.clone());
        multi.push(b.clone());
        assert_eq!(multi.len(), 2);
        multi.on_event(&RunEvent::PhaseEntered {
            phase: 1,
            vectors: 0,
        });
        multi.on_event(&RunEvent::PhaseEntered {
            phase: 2,
            vectors: 3,
        });
        assert_eq!(a.0.load(Ordering::Relaxed), 2);
        assert_eq!(b.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn null_observer_is_inert() {
        NullObserver.on_event(&RunEvent::RunFinished {
            detected: 0,
            total_faults: 0,
            vectors: 0,
            ga_evaluations: 0,
            elapsed_secs: 0.0,
            budget_exhausted: false,
            snapshot: Box::default(),
        });
    }
}
