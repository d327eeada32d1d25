//! Spans recorded by the benchmark itself, around its calls into the
//! library, plus a [`RunObserver`] that timestamps the generator's own
//! events so phase, generation and commit spans can be rebuilt after a run.
//!
//! Spans are kept in memory and written out once, when the run ends. Each
//! records a name, start, end, parent span and run id.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use gatest_telemetry::{RunEvent, RunObserver};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.step_sampled`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one whole run (or one replayed invocation) share this id.
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an already-measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            run,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends, so spans recorded in
    /// between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, run, now, now)
    }

    /// Ends a span [`Tracer::open`] started.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, run, start, Instant::now());
        out
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.len_ns()).sum::<u64>() as f64 / 1e9
    }

    /// Total duration, in seconds, of every span named `name` whose parent
    /// is named `parent`.
    pub fn total_under_s(&self, name: &str, parent: &str) -> f64 {
        self.named(name)
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(|s| s.len_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.len_ns() as f64 / 1e9).collect()
    }

    /// Total self time of every span named `name`, in seconds.
    #[cfg(test)]
    fn self_total_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i))
            .sum::<u64>() as f64
            / 1e9
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.run,
                self_time_ns(&self.spans, id)
            );
        }
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover. Overlapping children (work on other threads) count once,
/// and a child sticking out of its parent counts only inside it.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.len_ns() - covered
}

/// What the generator reported, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mark {
    /// `PhaseEntered`.
    Phase(u8),
    /// `GaGenerationEvaluated`, with its phase and evaluation count.
    Generation {
        /// Phase 1–4.
        phase: u8,
        /// Fitness evaluations of this generation.
        evals: usize,
    },
    /// `VectorCommitted`, with the test-set length after the commit.
    Commit {
        /// Test-set length after the commit.
        vectors: usize,
    },
    /// `RunFinished`.
    Finished,
}

/// A [`RunObserver`] that timestamps phase, generation and commit events.
/// It does nothing else on the run's thread, so it cannot change results.
#[derive(Debug, Default)]
pub struct EventClock {
    marks: Mutex<Vec<(Instant, Mark)>>,
}

impl EventClock {
    /// The timestamped marks, in emission order.
    pub fn take(&self) -> Vec<(Instant, Mark)> {
        std::mem::take(&mut *self.marks.lock().expect("event clock lock poisoned"))
    }
}

impl RunObserver for EventClock {
    fn on_event(&self, event: &RunEvent) {
        let mark = match event {
            RunEvent::PhaseEntered { phase, .. } => Mark::Phase(*phase),
            RunEvent::GaGenerationEvaluated {
                phase, evaluations, ..
            } => Mark::Generation {
                phase: *phase,
                evals: *evaluations,
            },
            RunEvent::VectorCommitted { vectors, .. } => Mark::Commit { vectors: *vectors },
            RunEvent::RunFinished { .. } => Mark::Finished,
            _ => return,
        };
        self.marks
            .lock()
            .expect("event clock lock poisoned")
            .push((Instant::now(), mark));
    }
}

/// Rebuilds `core.phaseN`, `core.generation` and `core.commit` spans under
/// `parent` from one run's marks. A generation or commit span runs from the
/// previous mark to its own, so it covers the work the generator did to
/// produce that event: breeding and evaluating a generation (generation 0
/// also draws the fault sample and takes the invocation checkpoint), or
/// restoring and fully simulating a winner.
pub fn spans_from_marks(
    tracer: &mut Tracer,
    parent: SpanId,
    run: u32,
    run_start: Instant,
    marks: &[(Instant, Mark)],
) {
    const PHASES: [&str; 4] = ["core.phase1", "core.phase2", "core.phase3", "core.phase4"];
    let mut phase: Option<(u8, SpanId)> = None;
    let mut prev = run_start;
    for &(at, mark) in marks {
        let enter =
            |tracer: &mut Tracer, p: u8, from: Instant, phase: &mut Option<(u8, SpanId)>| {
                if let Some((_, id)) = phase.take() {
                    tracer.spans[id].end_ns = tracer.ns(from);
                }
                let name = PHASES[usize::from(p).clamp(1, 4) - 1];
                *phase = Some((p, tracer.record(name, Some(parent), run, from, from)));
            };
        match mark {
            Mark::Phase(p) => enter(tracer, p, at, &mut phase),
            Mark::Generation { .. } | Mark::Commit { .. } => {
                // A run resumed mid-phase reports no phase entry: its first
                // generation names the phase, which began with the run.
                if let (Mark::Generation { phase: p, .. }, None) = (mark, phase) {
                    enter(tracer, p, run_start, &mut phase);
                }
                let name = if matches!(mark, Mark::Commit { .. }) {
                    "core.commit"
                } else {
                    "core.generation"
                };
                let under = phase.map_or(parent, |(_, id)| id);
                tracer.record(name, Some(under), run, prev, at);
            }
            Mark::Finished => {
                if let Some((_, id)) = phase.take() {
                    tracer.spans[id].end_ns = tracer.ns(at);
                }
            }
        }
        prev = at;
    }
}

/// The committed phase-4 sequences as (first test-set index, length): a
/// winning sequence's frames are committed in one burst of commit events.
pub fn committed_sequences(marks: &[(Instant, Mark)]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut phase = 0u8;
    let mut in_burst = false;
    for (_, mark) in marks {
        match *mark {
            Mark::Phase(p) | Mark::Generation { phase: p, .. } => phase = p,
            Mark::Commit { vectors } if phase == 4 => {
                match out.last_mut() {
                    Some((_, len)) if in_burst => *len += 1,
                    _ => out.push((vectors - 1, 1)),
                }
                in_burst = true;
                continue;
            }
            _ => {}
        }
        in_burst = false;
    }
    out
}

/// Generations and fitness evaluations per phase (index 0 = phase 1).
pub fn per_phase_generations(marks: &[(Instant, Mark)]) -> ([u64; 4], [u64; 4]) {
    let mut gens = [0u64; 4];
    let mut evals = [0u64; 4];
    for (_, mark) in marks {
        if let Mark::Generation { phase, evals: e } = mark {
            let i = usize::from(*phase).clamp(1, 4) - 1;
            gens[i] += 1;
            evals[i] += *e as u64;
        }
    }
    (gens, evals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(0, 100, None),
            // Two overlapping children (parallel work) cover 10..50.
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            // A disjoint child covers 60..70.
            span(60, 70, Some(0)),
            // A grandchild never counts against the root.
            span(61, 69, Some(3)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10 - 8);
        assert_eq!(self_time_ns(&spans, 1), 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(10, 20, None),
            span(0, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 3);
    }

    #[test]
    fn marks_become_phase_generation_and_commit_spans() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let root = t.record("core.run", None, 7, at(0), at(100));
        let marks = [
            (at(1), Mark::Phase(1)),
            (at(10), Mark::Generation { phase: 1, evals: 8 }),
            (at(20), Mark::Commit { vectors: 1 }),
            (at(21), Mark::Phase(2)),
            (
                at(40),
                Mark::Generation {
                    phase: 2,
                    evals: 16,
                },
            ),
            (at(45), Mark::Commit { vectors: 2 }),
            (at(99), Mark::Finished),
        ];
        spans_from_marks(&mut t, root, 7, at(0), &marks);
        assert_eq!(t.count("core.generation"), 2);
        assert_eq!(t.count("core.commit"), 2);
        assert!((t.total_s("core.phase1") - 0.020).abs() < 1e-9);
        assert!((t.total_s("core.phase2") - 0.078).abs() < 1e-9);
        assert!((t.total_s("core.commit") - 0.015).abs() < 1e-9);
        // Generation time per phase, the total the layer split divides.
        assert!((t.total_under_s("core.generation", "core.phase1") - 0.009).abs() < 1e-9);
        assert!((t.total_under_s("core.generation", "core.phase2") - 0.019).abs() < 1e-9);
        assert_eq!(t.total_under_s("core.generation", "core.phase3"), 0.0);
        // A generation span starts at the previous mark (here the phase
        // entry), so phase 1's children cover all of it but the last
        // millisecond, between the commit and the next phase's entry.
        assert!((t.self_total_s("core.phase1") - 0.001).abs() < 1e-9);
        assert!((t.self_total_s("core.phase2") - 0.054).abs() < 1e-9);
        assert_eq!(per_phase_generations(&marks), ([1, 1, 0, 0], [8, 16, 0, 0]));
        assert!(t.spans.iter().all(|s| s.run == 7));
    }

    #[test]
    fn a_resumed_leg_opens_its_phase_at_the_start() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let root = t.record("core.run", None, 1, at(0), at(50));
        let marks = [
            (
                at(10),
                Mark::Generation {
                    phase: 4,
                    evals: 32,
                },
            ),
            (at(20), Mark::Commit { vectors: 11 }),
            (at(50), Mark::Finished),
        ];
        spans_from_marks(&mut t, root, 1, at(0), &marks);
        assert!((t.total_s("core.phase4") - 0.050).abs() < 1e-9);
        assert_eq!(t.count("core.generation"), 1);
        assert_eq!(committed_sequences(&marks), vec![(10, 1)]);
    }

    #[test]
    fn commit_bursts_in_phase_4_are_sequences() {
        let t0 = Instant::now();
        let g = Mark::Generation {
            phase: 4,
            evals: 32,
        };
        let c = |vectors| Mark::Commit { vectors };
        let marks: Vec<(Instant, Mark)> = [
            Mark::Phase(3),
            c(5),
            Mark::Phase(4),
            g,
            c(6),
            c(7),
            c(8),
            g,
            g,
            c(9),
            c(10),
            Mark::Finished,
        ]
        .into_iter()
        .map(|m| (t0, m))
        .collect();
        assert_eq!(committed_sequences(&marks), vec![(5, 3), (8, 2)]);
    }
}
