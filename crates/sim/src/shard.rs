//! Fault-list sharding: partitioned fault simulation behind one stepper.
//!
//! A [`ShardPlan`] deterministically splits the collapsed fault list into
//! `K` contiguous ranges, and a [`ShardedFaultSim`] owns one independent
//! [`FaultSim`] per range — each holding only its shard's fault groups and
//! sparse faulty-FF tables, while the immutable netlist and levelization
//! CSR stay `Arc`-shared across shards. Shards step **sequentially** per
//! logical vector; the per-shard [`StepReport`]s are merged **in shard
//! order**, generalizing the fault-group pool's deterministic group-order
//! merge. Because shard ranges ascend and each shard's detection lists are
//! sorted, concatenating them (with the shard's base offset added back)
//! yields globally sorted results — so every report field except the
//! honest real-work tally `gate_evals` is bit-identical for every shard
//! count, exactly as it already is for every `sim_threads` and
//! `--sim-width` setting.
//!
//! The point of sharding is the working set: a shard touches only `1/K` of
//! the faulty-state tables per step, so large fault lists stay
//! cache-resident and the per-fault cost decay measured by `bench_scale`
//! flattens. It is also the substrate for multi-process shard placement
//! (each shard is independent given the shared good machine).

use std::sync::Arc;
use std::time::Instant;

use gatest_netlist::Circuit;
use gatest_telemetry::{Instruments, SimCounters};

use crate::fault::{FaultId, FaultList, FaultStatus};
use crate::fsim::{check_states, Checkpoint, FaultSim, SimState, SimStateError, StepReport};
use crate::good_sim::{GoodSim, GoodStepReport};
use crate::value::{Logic, SimBackend};

/// A deterministic partition of `fault_count` faults into contiguous
/// shard ranges.
///
/// The plan is balanced: with `n` faults and `k` shards, every shard gets
/// `n / k` faults and the first `n % k` shards get one extra. The
/// requested shard count is clamped to `1..=max(1, n)` so no shard is
/// ever empty (except the degenerate `n = 0` single shard). For a fixed
/// `(fault_count, k)` the plan is a pure function — same ranges on every
/// construction, every host, every resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    fault_count: usize,
    /// `start` index of each shard; `starts[k]` == `fault_count` sentinel.
    starts: Vec<usize>,
}

impl ShardPlan {
    /// Plans `shards` contiguous ranges over `fault_count` faults
    /// (clamped as described above).
    pub fn new(fault_count: usize, shards: usize) -> Self {
        let k = shards.clamp(1, fault_count.max(1));
        let base = fault_count / k;
        let rem = fault_count % k;
        let mut starts = Vec::with_capacity(k + 1);
        let mut at = 0usize;
        for i in 0..k {
            starts.push(at);
            at += base + usize::from(i < rem);
        }
        starts.push(at);
        debug_assert_eq!(at, fault_count);
        ShardPlan {
            fault_count,
            starts,
        }
    }

    /// Number of shards in the plan (after clamping).
    pub fn shard_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total faults the plan partitions.
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    /// The global fault-index range of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= shard_count()`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i]..self.starts[i + 1]
    }

    /// Iterates over all shard ranges in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        (0..self.shard_count()).map(|i| self.range(i))
    }

    /// The shard holding global fault index `fault`.
    ///
    /// # Panics
    ///
    /// Panics if `fault >= fault_count()`.
    pub fn shard_of(&self, fault: usize) -> usize {
        assert!(fault < self.fault_count, "fault index out of range");
        // `partition_point` over the sentinel-terminated starts: the shard
        // is the last range whose start is <= fault.
        self.starts.partition_point(|&s| s <= fault) - 1
    }
}

/// A copy-on-write saved state of a [`ShardedFaultSim`]: one per-shard
/// [`Checkpoint`] plus the `Arc`-shared global active-fault list.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    shards: Vec<Checkpoint>,
    active: Arc<Vec<FaultId>>,
}

impl ShardCheckpoint {
    /// Exports the saved state as per-shard owned plain data, in shard
    /// order (see [`SimState`]); the checkpoint-file writer serializes
    /// these.
    pub fn export_states(&self) -> Vec<SimState> {
        self.shards.iter().map(|cp| cp.export_state()).collect()
    }
}

/// `K` independent fault simulators behind the one-stepper API the GA
/// consumes.
///
/// All mutating entry points advance every shard (the good machine and
/// `vectors_applied` stay in lockstep across shards), merge the per-shard
/// reports in shard order, and refresh the global active-fault list. With
/// `K = 1` every call forwards to the single shard with no offsetting or
/// merging, so the unsharded path is byte-for-byte the old `FaultSim`
/// behavior.
#[derive(Debug, Clone)]
pub struct ShardedFaultSim {
    plan: ShardPlan,
    shards: Vec<FaultSim>,
    /// The global collapsed fault list (shards hold subranges).
    faults: FaultList,
    /// Global undetected faults in fault-id order; rebuilt after every
    /// mutating call, `Arc`-shared with checkpoints.
    active: Arc<Vec<FaultId>>,
    counters: Option<Arc<SimCounters>>,
}

impl ShardedFaultSim {
    /// Creates an unsharded (`K = 1`) simulator over the collapsed fault
    /// list of `circuit`.
    pub fn new(circuit: Arc<Circuit>) -> Self {
        let faults = FaultList::collapsed(&circuit);
        Self::with_shards(circuit, faults, 1)
    }

    /// Creates an unsharded (`K = 1`) simulator over a caller-supplied
    /// fault list.
    pub fn with_faults(circuit: Arc<Circuit>, faults: FaultList) -> Self {
        Self::with_shards(circuit, faults, 1)
    }

    /// Creates a simulator over `faults` partitioned into `shards` ranges
    /// (clamped; see [`ShardPlan::new`]). The levelization/CSR is built
    /// once and `Arc`-shared by every shard's good machine.
    pub fn with_shards(circuit: Arc<Circuit>, faults: FaultList, shards: usize) -> Self {
        let plan = ShardPlan::new(faults.len(), shards);
        let donor = GoodSim::new(Arc::clone(&circuit));
        let sims: Vec<FaultSim> = plan
            .ranges()
            .enumerate()
            .map(|(i, range)| {
                let mut sim = FaultSim::with_good(donor.clone(), faults.subrange(range));
                sim.set_lead(i == 0);
                sim
            })
            .collect();
        let active = Arc::new((0..faults.len() as u32).map(FaultId).collect());
        ShardedFaultSim {
            plan,
            shards: sims,
            faults,
            active,
            counters: None,
        }
    }

    /// The shard plan in effect.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The circuit under simulation.
    pub fn circuit(&self) -> &Arc<Circuit> {
        self.shards[0].circuit()
    }

    /// The global fault list being targeted.
    pub fn fault_list(&self) -> &FaultList {
        &self.faults
    }

    /// The lead shard's good machine (all shards' good machines hold
    /// identical state).
    pub fn good(&self) -> &GoodSim {
        self.shards[0].good()
    }

    /// Detection status of a (global) fault.
    pub fn status(&self, id: FaultId) -> FaultStatus {
        let shard = self.plan.shard_of(id.index());
        let base = self.plan.range(shard).start as u32;
        self.shards[shard].status(FaultId(id.0 - base))
    }

    /// Number of faults detected so far.
    pub fn detected_count(&self) -> usize {
        self.shards.iter().map(|s| s.detected_count()).sum()
    }

    /// Number of faults still undetected.
    pub fn remaining(&self) -> usize {
        self.shards.iter().map(|s| s.remaining()).sum()
    }

    /// Undetected faults in (global) fault-id order.
    pub fn active_faults(&self) -> &[FaultId] {
        &self.active
    }

    /// Vectors committed so far (identical across shards).
    pub fn vectors_applied(&self) -> u32 {
        self.shards[0].vectors_applied()
    }

    /// The sparse faulty flip-flop state of a (global) fault.
    pub fn faulty_ff_state(&self, id: FaultId) -> &[(u32, Logic)] {
        let shard = self.plan.shard_of(id.index());
        let base = self.plan.range(shard).start as u32;
        self.shards[shard].faulty_ff_state(FaultId(id.0 - base))
    }

    /// Attaches (or detaches) shared telemetry counters on every shard.
    /// Follower shards record real work only (see
    /// [`SimCounters::record_follower_step`]); the sharded stepper itself
    /// records `shard_tasks`/`shard_merge_ns` when `K > 1`.
    pub fn set_counters(&mut self, counters: Option<Arc<SimCounters>>) {
        for shard in &mut self.shards {
            shard.set_counters(counters.clone());
        }
        self.counters = counters;
    }

    /// The attached telemetry counters, if any.
    pub fn counters(&self) -> Option<&Arc<SimCounters>> {
        self.counters.as_ref()
    }

    /// Attaches the instrumentation bundle to the **lead shard only**, so
    /// span counts stay logical (one `SimStep` span per vector, not `K`).
    pub fn set_instruments(&mut self, instruments: Option<Arc<Instruments>>) {
        self.shards[0].set_instruments(instruments);
    }

    /// The attached instrumentation bundle, if any.
    pub fn instruments(&self) -> Option<&Arc<Instruments>> {
        self.shards[0].instruments()
    }

    /// Sets fault-group parallelism on every shard (groups within a shard
    /// still fan out across the group pool).
    pub fn set_sim_threads(&mut self, threads: usize) {
        for shard in &mut self.shards {
            shard.set_sim_threads(threads);
        }
    }

    /// The requested fault-group parallelism.
    pub fn sim_threads(&self) -> usize {
        self.shards[0].sim_threads()
    }

    /// Switches the packed-value backend on every shard.
    pub fn set_backend(&mut self, backend: SimBackend) {
        for shard in &mut self.shards {
            shard.set_backend(backend);
        }
    }

    /// The backend in effect.
    pub fn backend(&self) -> SimBackend {
        self.shards[0].backend()
    }

    /// Applies one vector to every shard's active faults and merges the
    /// reports in shard order. See [`FaultSim::step`].
    pub fn step(&mut self, vector: &[Logic]) -> StepReport {
        if self.shards.len() == 1 {
            let report = self.shards[0].step(vector);
            self.refresh_active();
            return report;
        }
        let reports: Vec<StepReport> = self.shards.iter_mut().map(|s| s.step(vector)).collect();
        let report = self.merge(reports);
        self.refresh_active();
        report
    }

    /// Applies one vector simulating only `sample` (global fault ids),
    /// partitioned to the owning shards. Every shard steps even when its
    /// partition is empty, so good machines and `vectors_applied` stay in
    /// lockstep. See [`FaultSim::step_sampled`].
    pub fn step_sampled(&mut self, vector: &[Logic], sample: &[FaultId]) -> StepReport {
        if self.shards.len() == 1 {
            let report = self.shards[0].step_sampled(vector, sample);
            self.refresh_active();
            return report;
        }
        let mut buckets: Vec<Vec<FaultId>> = vec![Vec::new(); self.shards.len()];
        for &f in sample {
            let shard = self.plan.shard_of(f.index());
            let base = self.plan.range(shard).start as u32;
            buckets[shard].push(FaultId(f.0 - base));
        }
        let reports: Vec<StepReport> = self
            .shards
            .iter_mut()
            .zip(&buckets)
            .map(|(s, bucket)| s.step_sampled(vector, bucket))
            .collect();
        let report = self.merge(reports);
        self.refresh_active();
        report
    }

    /// Applies one vector to the good machine of every shard (keeping them
    /// in lockstep) with no fault propagation. See
    /// [`FaultSim::step_good_only`].
    pub fn step_good_only(&mut self, vector: &[Logic]) -> GoodStepReport {
        let mut first = None;
        for shard in &mut self.shards {
            let report = shard.step_good_only(vector);
            first.get_or_insert(report);
        }
        first.expect("at least one shard")
    }

    /// Applies a window of vectors in one batched commit per shard,
    /// merging frame-wise in shard order. See [`FaultSim::step_window`].
    pub fn step_window(&mut self, vectors: &[Vec<Logic>]) -> Vec<StepReport> {
        if self.shards.len() == 1 {
            let reports = self.shards[0].step_window(vectors);
            self.refresh_active();
            return reports;
        }
        let per_shard: Vec<Vec<StepReport>> = self
            .shards
            .iter_mut()
            .map(|s| s.step_window(vectors))
            .collect();
        let start = Instant::now();
        let frames = vectors.len();
        let mut merged = Vec::with_capacity(frames);
        let mut per_shard: Vec<std::vec::IntoIter<StepReport>> =
            per_shard.into_iter().map(Vec::into_iter).collect();
        for _ in 0..frames {
            let frame: Vec<StepReport> = per_shard
                .iter_mut()
                .map(|it| it.next().expect("one report per frame per shard"))
                .collect();
            merged.push(merge_reports(&self.plan, frame));
        }
        if let Some(counters) = &self.counters {
            counters
                .record_shard_dispatch(self.shards.len() as u64, start.elapsed().as_nanos() as u64);
        }
        self.refresh_active();
        merged
    }

    /// Saves the complete state copy-on-write: one [`Checkpoint`] per shard
    /// plus the shared global active list. See [`FaultSim::checkpoint`].
    pub fn checkpoint(&self) -> ShardCheckpoint {
        ShardCheckpoint {
            shards: self.shards.iter().map(|s| s.checkpoint()).collect(),
            active: Arc::clone(&self.active),
        }
    }

    /// Restores a checkpoint taken from any simulator with the same plan.
    /// See [`FaultSim::restore`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shard count or per-shard dimensions
    /// differ from this simulator's.
    pub fn restore(&mut self, cp: &ShardCheckpoint) {
        assert_eq!(
            cp.shards.len(),
            self.shards.len(),
            "checkpoint is from a different shard plan"
        );
        for (shard, scp) in self.shards.iter_mut().zip(&cp.shards) {
            shard.restore(scp);
        }
        self.active = Arc::clone(&cp.active);
    }

    /// Exports the complete mutable state as one [`SimState`] per shard,
    /// in shard order (the checkpoint-file format stores exactly this).
    pub fn export_states(&self) -> Vec<SimState> {
        self.shards.iter().map(|s| s.export_state()).collect()
    }

    /// Adopts states exported by [`ShardedFaultSim::export_states`] —
    /// possibly under a **different shard plan**. The states are
    /// concatenated in their shard order into one global state, then
    /// re-split under this simulator's plan, so resuming with any
    /// `--fault-shards` value reproduces the run bit-identically (the plan
    /// never changes what is simulated, only how it is partitioned).
    ///
    /// # Errors
    ///
    /// Returns [`SimStateError`], leaving the simulator unchanged, if
    /// `states` is empty, covers a different number of faults, disagrees
    /// on vectors applied, or does not fit the circuit's dimensions.
    pub fn import_states(&mut self, states: &[SimState]) -> Result<(), SimStateError> {
        check_states(self.circuit(), self.faults.len(), states)?;
        let total = self.faults.len();
        let mut status = Vec::with_capacity(total);
        let mut faulty_ff = Vec::with_capacity(total);
        for state in states {
            status.extend_from_slice(&state.status);
            faulty_ff.extend(state.faulty_ff.iter().cloned());
        }
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let range = self.plan.range(i);
            shard
                .import_state(&SimState {
                    good_values: states[0].good_values.clone(),
                    good_next_state: states[0].good_next_state.clone(),
                    status: status[range.clone()].to_vec(),
                    faulty_ff: faulty_ff[range].to_vec(),
                    vectors_applied: states[0].vectors_applied,
                })
                .expect("a slice of checked states fits its shard");
        }
        self.refresh_active();
        Ok(())
    }

    /// Resets everything: all faults undetected, all state X, on every
    /// shard.
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
        self.active = Arc::new((0..self.faults.len() as u32).map(FaultId).collect());
    }

    /// Merges per-shard reports in shard order, recording the dispatch
    /// counters. Only called when `K > 1`.
    fn merge(&self, reports: Vec<StepReport>) -> StepReport {
        let start = Instant::now();
        let report = merge_reports(&self.plan, reports);
        if let Some(counters) = &self.counters {
            counters
                .record_shard_dispatch(self.shards.len() as u64, start.elapsed().as_nanos() as u64);
        }
        report
    }

    /// Rebuilds the global active list from the shards' (already sorted)
    /// local lists. With one shard this is a pointer share, not a copy.
    fn refresh_active(&mut self) {
        if self.shards.len() == 1 {
            self.active = self.shards[0].active_arc();
            return;
        }
        let plan = &self.plan;
        let shards = &self.shards;
        let active = Arc::make_mut(&mut self.active);
        active.clear();
        for (i, shard) in shards.iter().enumerate() {
            let base = plan.range(i).start as u32;
            active.extend(shard.active_faults().iter().map(|f| FaultId(f.0 + base)));
        }
    }
}

/// Merges per-shard [`StepReport`]s for one frame **in shard order**.
///
/// Detection lists concatenate with each shard's base offset added back —
/// globally sorted because shard ranges ascend and per-shard lists are
/// sorted. Integer effect/event tallies sum. `good_events` and the good
/// frame statistics come from the lead shard alone (every shard's good
/// machine computed the identical frame; counting it once keeps phase-3
/// fitness and the `good_events` counter partition-independent).
/// `gate_evals` sums — it is the honest real-work tally and, like width
/// and grouping, legitimately depends on the shard plan.
fn merge_reports(plan: &ShardPlan, reports: Vec<StepReport>) -> StepReport {
    let mut iter = reports.into_iter();
    let mut out = iter.next().expect("at least one shard report");
    for (i, r) in iter.enumerate() {
        let base = plan.range(i + 1).start as u32;
        out.newly_detected
            .extend(r.newly_detected.iter().map(|f| FaultId(f.0 + base)));
        out.po_detections.extend(
            r.po_detections
                .iter()
                .map(|&(f, po)| (FaultId(f.0 + base), po)),
        );
        out.ff_effect_pairs += r.ff_effect_pairs;
        out.ff_effect_faults += r.ff_effect_faults;
        out.faulty_events += r.faulty_events;
        out.gate_evals += r.gate_evals;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Logic::{One, Zero};

    fn s27() -> Arc<Circuit> {
        Arc::new(crate::tests_circuit())
    }

    fn random_vectors(n: usize, pis: usize, seed: u64) -> Vec<Vec<Logic>> {
        // Tiny xorshift so the test needs no external RNG.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                (0..pis)
                    .map(|_| if next() & 1 == 0 { Zero } else { One })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn plan_is_a_partition() {
        for n in [0usize, 1, 2, 7, 64, 65, 1000] {
            for k in [1usize, 2, 3, 8, 64, 1000, 5000] {
                let plan = ShardPlan::new(n, k);
                assert!(plan.shard_count() >= 1);
                assert!(plan.shard_count() <= k.max(1));
                // Exhaustive + disjoint: ranges tile 0..n exactly.
                let mut at = 0;
                for r in plan.ranges() {
                    assert_eq!(r.start, at);
                    at = r.end;
                }
                assert_eq!(at, n);
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = plan.ranges().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced plan for n={n} k={k}");
                // No empty shard unless n == 0.
                if n > 0 {
                    assert!(*min >= 1);
                }
                // shard_of agrees with the ranges.
                for f in 0..n {
                    let s = plan.shard_of(f);
                    assert!(plan.range(s).contains(&f), "f={f} s={s} n={n} k={k}");
                }
                // Deterministic: same inputs, same plan.
                assert_eq!(plan, ShardPlan::new(n, k));
            }
        }
    }

    #[test]
    fn sharded_step_matches_unsharded() {
        let circuit = s27();
        let vectors = random_vectors(24, circuit.num_inputs(), 0x5eed);
        let mut mono = FaultSim::new(Arc::clone(&circuit));
        let mono_reports: Vec<StepReport> = vectors.iter().map(|v| mono.step(v)).collect();
        for k in [1usize, 2, 3, 8, 1000] {
            let mut sharded = ShardedFaultSim::with_shards(
                Arc::clone(&circuit),
                FaultList::collapsed(&circuit),
                k,
            );
            for (v, expect) in vectors.iter().zip(&mono_reports) {
                let got = sharded.step(v);
                // Everything except the honestly-plan-dependent gate_evals.
                assert_eq!(got.newly_detected, expect.newly_detected, "k={k}");
                assert_eq!(got.po_detections, expect.po_detections, "k={k}");
                assert_eq!(got.ff_effect_pairs, expect.ff_effect_pairs, "k={k}");
                assert_eq!(got.ff_effect_faults, expect.ff_effect_faults, "k={k}");
                assert_eq!(got.good_events, expect.good_events, "k={k}");
                assert_eq!(got.faulty_events, expect.faulty_events, "k={k}");
                assert_eq!(got.good, expect.good, "k={k}");
            }
            assert_eq!(sharded.detected_count(), mono.detected_count(), "k={k}");
            assert_eq!(sharded.active_faults(), mono.active_faults(), "k={k}");
        }
    }

    #[test]
    fn sharded_window_matches_serial_steps() {
        let circuit = s27();
        let vectors = random_vectors(6, circuit.num_inputs(), 0x7177);
        let mut serial =
            ShardedFaultSim::with_shards(Arc::clone(&circuit), FaultList::collapsed(&circuit), 3);
        let serial_reports: Vec<StepReport> = vectors.iter().map(|v| serial.step(v)).collect();
        let mut windowed =
            ShardedFaultSim::with_shards(Arc::clone(&circuit), FaultList::collapsed(&circuit), 3);
        let window_reports = windowed.step_window(&vectors);
        for (got, expect) in window_reports.iter().zip(&serial_reports) {
            assert_eq!(got.newly_detected, expect.newly_detected);
            assert_eq!(got.po_detections, expect.po_detections);
            assert_eq!(got.ff_effect_pairs, expect.ff_effect_pairs);
            assert_eq!(got.faulty_events, expect.faulty_events);
        }
        assert_eq!(windowed.active_faults(), serial.active_faults());
    }

    #[test]
    fn sampled_step_partitions_by_shard() {
        let circuit = s27();
        let vectors = random_vectors(8, circuit.num_inputs(), 0xabc);
        let mut mono = ShardedFaultSim::new(Arc::clone(&circuit));
        let mut sharded =
            ShardedFaultSim::with_shards(Arc::clone(&circuit), FaultList::collapsed(&circuit), 3);
        // Sample every other active fault.
        for v in &vectors {
            let sample: Vec<FaultId> = mono.active_faults().iter().copied().step_by(2).collect();
            let a = mono.step_sampled(v, &sample);
            let b = sharded.step_sampled(v, &sample);
            assert_eq!(a.newly_detected, b.newly_detected);
            assert_eq!(a.ff_effect_pairs, b.ff_effect_pairs);
            assert_eq!(a.faulty_events, b.faulty_events);
            assert_eq!(mono.active_faults(), sharded.active_faults());
        }
    }

    #[test]
    fn checkpoint_restore_round_trips_across_shards() {
        let circuit = s27();
        let vectors = random_vectors(10, circuit.num_inputs(), 0xfeed);
        let mut sim =
            ShardedFaultSim::with_shards(Arc::clone(&circuit), FaultList::collapsed(&circuit), 4);
        for v in &vectors[..4] {
            sim.step(v);
        }
        let cp = sim.checkpoint();
        let detected_at_cp = sim.detected_count();
        let active_at_cp = sim.active_faults().to_vec();
        for v in &vectors[4..] {
            sim.step(v);
        }
        sim.restore(&cp);
        assert_eq!(sim.detected_count(), detected_at_cp);
        assert_eq!(sim.active_faults(), active_at_cp.as_slice());
        // Replays after restore match a straight-line run.
        let mut fresh =
            ShardedFaultSim::with_shards(Arc::clone(&circuit), FaultList::collapsed(&circuit), 4);
        for v in &vectors {
            fresh.step(v);
        }
        for v in &vectors[4..] {
            sim.step(v);
        }
        assert_eq!(sim.detected_count(), fresh.detected_count());
        assert_eq!(sim.active_faults(), fresh.active_faults());
    }

    #[test]
    fn export_import_rebalances_across_plans() {
        let circuit = s27();
        let vectors = random_vectors(12, circuit.num_inputs(), 0xd1ce);
        let mut donor =
            ShardedFaultSim::with_shards(Arc::clone(&circuit), FaultList::collapsed(&circuit), 3);
        for v in &vectors[..6] {
            donor.step(v);
        }
        let states = donor.export_states();
        assert_eq!(states.len(), donor.shard_count());
        // Resume under different shard counts; all runs finish identically.
        for k in [1usize, 2, 5, 8] {
            let mut resumed = ShardedFaultSim::with_shards(
                Arc::clone(&circuit),
                FaultList::collapsed(&circuit),
                k,
            );
            resumed.import_states(&states).unwrap();
            assert_eq!(resumed.detected_count(), donor.detected_count(), "k={k}");
            assert_eq!(resumed.active_faults(), donor.active_faults(), "k={k}");
            assert_eq!(resumed.vectors_applied(), donor.vectors_applied(), "k={k}");
            let mut reference = donor.clone();
            for v in &vectors[6..] {
                let a = reference.step(v);
                let b = resumed.step(v);
                assert_eq!(a.newly_detected, b.newly_detected, "k={k}");
            }
            assert_eq!(
                resumed.export_states().len(),
                k.min(resumed.fault_list().len())
            );
        }
    }

    #[test]
    fn good_only_keeps_shards_in_lockstep() {
        let circuit = s27();
        let mut sim =
            ShardedFaultSim::with_shards(Arc::clone(&circuit), FaultList::collapsed(&circuit), 3);
        let vectors = random_vectors(5, circuit.num_inputs(), 0x900d);
        for v in &vectors {
            sim.step_good_only(v);
        }
        assert_eq!(sim.vectors_applied(), vectors.len() as u32);
        // A fault step after good-only warmup matches a monolithic run of
        // the same schedule.
        let mut mono = ShardedFaultSim::new(Arc::clone(&circuit));
        for v in &vectors {
            mono.step_good_only(v);
        }
        let probe = random_vectors(1, circuit.num_inputs(), 0xbeef);
        let a = sim.step(&probe[0]);
        let b = mono.step(&probe[0]);
        assert_eq!(a.newly_detected, b.newly_detected);
        assert_eq!(a.good_events, b.good_events);
    }
}
