//! Per-group fault propagation over a reusable scratch arena.
//!
//! [`FaultSim::step`](crate::FaultSim::step) partitions the simulated fault
//! list into groups of at most 64 faults, one per packed lane. Given the
//! already-advanced good machine, every group is independent: it reads the
//! shared circuit, good values, and per-fault sparse flip-flop state, and
//! writes only its own lanes. This module factors the per-group propagation
//! out of `FaultSim` into a free function over borrowed shared state
//! ([`GroupCtx`]) plus a private arena ([`Scratch`]), so the per-vector
//! step and the batched commit window run the exact same code.
//!
//! Results land in a [`GroupOutcome`] instead of being applied in place;
//! the caller merges outcomes back **in group order**: lane order within a
//! group is fault order, and group order is ascending fault order, so the
//! concatenated per-lane results come out in fault order.
//!
//! The arena also removes the per-group/per-gate allocations the original
//! inline implementation paid: `HashMap` forcing tables are replaced with
//! slices sorted by net plus stamped `(start, end)` range tables, the
//! per-gate fanin `Vec` with one reusable buffer, and the per-group
//! faulty-FF state builders with per-lane persistent vectors. Faulty net
//! values live in structure-of-arrays form: one flat `zero` plane array
//! and one flat `one` plane array, one word per net.
//!
//! Scheduling runs entirely on the levelized CSR
//! ([`Levelization::comb_fanout`]): fanout edges carry their consumer's
//! level, so pushing an event needs neither a gate-kind check nor a level
//! lookup, and the sweep walks only the `[sched_lo, sched_hi]` level band a
//! group actually touched. The queue is shared by all lanes of the group —
//! a gate whose fan-in changed in *any* lane is evaluated once for the
//! whole group — and the lane evaluations that sharing saves are tallied as
//! `events_amortized`.

use std::sync::Arc;

use gatest_netlist::levelize::{FanoutEdge, Levelization};
use gatest_netlist::{Circuit, NetId};

use crate::eval::eval_packed;
use crate::fault::{FaultId, FaultList, FaultSite};
use crate::good_sim::GoodSim;
use crate::value::{for_each_lane, low_lanes, Logic, Pv64};

/// Sparse faulty flip-flop state for one fault: `(dff index, faulty value)`
/// wherever the faulty machine differs from the good machine. `Arc`-shared
/// copy-on-write between the simulator and its checkpoints.
pub(crate) type FaultyFfState = Arc<[(u32, Logic)]>;

/// The shared state one group simulation reads (and never writes).
///
/// Borrowing these as one struct keeps [`simulate_group`]'s signature
/// short, and proves by construction that a group simulation cannot
/// mutate simulator state: everything a group writes goes through its own
/// [`Scratch`] and [`GroupOutcome`].
pub(crate) struct GroupCtx<'a> {
    /// The circuit under simulation.
    pub circuit: &'a Circuit,
    /// The good machine, already advanced past the vector being simulated.
    pub good: &'a GoodSim,
    /// The fault universe (sites and stuck values).
    pub faults: &'a FaultList,
    /// Sparse faulty flip-flop state per fault, from the *previous* frame.
    pub faulty_ff: &'a [FaultyFfState],
    /// The shared empty slice, so clearing a fault's state allocates nothing.
    pub empty_ff: &'a FaultyFfState,
}

/// One committed good-machine frame the windowed path replays against: net
/// values after the combinational settle plus the latched next state, as
/// slices so both a live [`GoodSim`] and stored snapshots can back it.
#[derive(Clone, Copy)]
pub(crate) struct GoodFrame<'a> {
    /// Net values after the frame, one per net.
    pub values: &'a [Logic],
    /// Latched next-state values, indexed like `circuit.dffs()`.
    pub next_state: &'a [Logic],
}

/// What one group simulation produced, in lane-relative terms.
///
/// Lanes are indices into the group (`0..group.len()`); the merge loop in
/// `FaultSim::step_with` translates them back to [`FaultId`]s. Outcomes are
/// reused across steps: [`GroupOutcome::reset`] clears the vectors without
/// releasing their capacity.
#[derive(Debug, Default, Clone)]
pub(crate) struct GroupOutcome {
    /// Lanes detected at any primary output this frame.
    pub detected_mask: u64,
    /// `(lane, po index)` detection syndrome, in primary-output order.
    pub po_detections: Vec<(u32, u16)>,
    /// Fault effects latched into flip-flops, as (fault, flip-flop) pairs.
    pub ff_effect_pairs: u64,
    /// Distinct lanes with at least one effect at a flip-flop.
    pub ff_effect_faults: u64,
    /// Faulty-circuit events over the group's packed machines.
    pub faulty_events: u64,
    /// Lane events served by an evaluation shared with another lane: at
    /// every changed gate, all diverged lanes beyond the first ride the one
    /// packed evaluation the shared per-group queue issued.
    pub events_amortized: u64,
    /// Packed faulty gate re-evaluations.
    pub gate_evals: u64,
    /// Estimated bytes served from reused scratch this group (telemetry).
    pub scratch_bytes: u64,
    /// Replacement sparse faulty-FF state per lane. `None` means "keep the
    /// old state" — emitted only when old and new are both empty, so the
    /// merge can skip the copy-on-write table entirely. (The windowed path
    /// also emits `None` for lanes detected mid-window: the caller's drop
    /// logic clears their state exactly as the serial path does.)
    pub new_ff: Vec<Option<FaultyFfState>>,
}

impl GroupOutcome {
    /// Clears the outcome for reuse, keeping vector capacity.
    fn reset(&mut self) {
        self.detected_mask = 0;
        self.po_detections.clear();
        self.ff_effect_pairs = 0;
        self.ff_effect_faults = 0;
        self.faulty_events = 0;
        self.events_amortized = 0;
        self.gate_evals = 0;
        self.scratch_bytes = 0;
        self.new_ff.clear();
    }
}

/// The per-owner simulation arena: every buffer one group propagation
/// needs, allocated once and reused for the life of the owning
/// `FaultSim`.
///
/// Stamp discipline: `stamp` is bumped per group, and any stamped array
/// entry is valid only while its stamp matches — so "clearing" the faulty
/// values, the forcing-range tables, and the scheduling guard between
/// groups costs one integer increment instead of a sweep.
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    /// Zero plane of the faulty value per net (structure-of-arrays), valid
    /// where `fstamp` matches.
    fzero: Vec<u64>,
    /// One plane of the faulty value per net (same layout as `fzero`).
    fone: Vec<u64>,
    /// Validity stamp for the faulty planes.
    fstamp: Vec<u32>,
    /// Current group stamp (bumped by 2 per group).
    stamp: u32,
    /// Scheduling guard per gate (queued when it matches `stamp`).
    queued: Vec<u32>,
    /// Level-bucketed event queue; buckets keep their capacity.
    buckets: Vec<Vec<NetId>>,
    /// Lowest level with a queued gate this group (`u32::MAX` when none).
    sched_lo: u32,
    /// Highest level with a queued gate this group.
    sched_hi: u32,
    /// Stem forcing entries `(lane, stuck)`, grouped by net.
    stem_entries: Vec<(u32, Logic)>,
    /// Per-net `(start, end)` range into `stem_entries`, stamped.
    stem_range: Vec<(u32, u32)>,
    /// Validity stamp for `stem_range`.
    stem_stamp: Vec<u32>,
    /// Branch forcing entries `(pin, lane, stuck)`, grouped by gate.
    branch_entries: Vec<(u16, u32, Logic)>,
    /// Per-gate `(start, end)` range into `branch_entries`, stamped.
    branch_range: Vec<(u32, u32)>,
    /// Validity stamp for `branch_range`.
    branch_stamp: Vec<u32>,
    /// Sort buffer for stem faults: `(net, lane, stuck)`.
    stem_tmp: Vec<(NetId, u32, Logic)>,
    /// Sort buffer for branch faults: `(gate, pin, lane, stuck)`.
    branch_tmp: Vec<(NetId, u16, u32, Logic)>,
    /// Reusable gate fanin buffer (fanin is small and bounded).
    fanin: Vec<Pv64>,
    /// Per-lane faulty-FF state builders, reused across groups.
    new_state: Vec<Vec<(u32, Logic)>>,
    /// Per-lane carry of the previous frame's faulty-FF state, used by the
    /// windowed path to seed frame `f+1` from frame `f` without touching
    /// the shared copy-on-write table.
    carry_state: Vec<Vec<(u32, Logic)>>,
}

impl Scratch {
    /// An arena sized for `circuit` (combinational depth `max_level`).
    pub(crate) fn new(circuit: &Circuit, max_level: usize) -> Self {
        let n = circuit.num_gates();
        Scratch {
            fzero: vec![0; n],
            fone: vec![0; n],
            fstamp: vec![0; n],
            stamp: 0,
            queued: vec![0; n],
            buckets: vec![Vec::new(); max_level + 1],
            sched_lo: u32::MAX,
            sched_hi: 0,
            stem_entries: Vec::new(),
            stem_range: vec![(0, 0); n],
            stem_stamp: vec![0; n],
            branch_entries: Vec::new(),
            branch_range: vec![(0, 0); n],
            branch_stamp: vec![0; n],
            stem_tmp: Vec::new(),
            branch_tmp: Vec::new(),
            fanin: Vec::new(),
            new_state: vec![Vec::new(); Pv64::LANES],
            carry_state: vec![Vec::new(); Pv64::LANES],
        }
    }

    /// Starts a new group (or window frame): bumps the stamp and resets the
    /// scheduled level band.
    fn begin_frame(&mut self) {
        self.stamp = self.stamp.wrapping_add(2);
        self.sched_lo = u32::MAX;
        self.sched_hi = 0;
    }

    /// The faulty word of `net` for the current group, defaulting to the
    /// broadcast good value (`values[net]`) if the net has not diverged.
    #[inline]
    fn effective(&self, values: &[Logic], net: NetId) -> Pv64 {
        let i = net.index();
        if self.fstamp[i] == self.stamp {
            Pv64 {
                zero: self.fzero[i],
                one: self.fone[i],
            }
        } else {
            Pv64::broadcast(values[i])
        }
    }

    /// Records `w` as the faulty word of `net` for the current group.
    #[inline]
    fn record(&mut self, net: NetId, w: Pv64) {
        let i = net.index();
        self.fzero[i] = w.zero;
        self.fone[i] = w.one;
        self.fstamp[i] = self.stamp;
    }

    /// Stem forces on `net` this group (empty when the range is stale).
    #[inline]
    fn stem_forces(&self, net: NetId) -> &[(u32, Logic)] {
        let i = net.index();
        if self.stem_stamp[i] == self.stamp {
            let (start, end) = self.stem_range[i];
            &self.stem_entries[start as usize..end as usize]
        } else {
            &[]
        }
    }

    /// Branch forces on `gate` this group (empty when the range is stale).
    #[inline]
    fn branch_forces(&self, gate: NetId) -> &[(u16, u32, Logic)] {
        let i = gate.index();
        if self.branch_stamp[i] == self.stamp {
            let (start, end) = self.branch_range[i];
            &self.branch_entries[start as usize..end as usize]
        } else {
            &[]
        }
    }

    /// Schedules every combinational consumer of `net` via the CSR fanout
    /// edges: each edge carries its precomputed level, so this is one
    /// contiguous read and a guarded bucket push per consumer.
    fn schedule_fanout(&mut self, lev: &Levelization, net: NetId) {
        for &FanoutEdge { gate, level } in lev.comb_fanout(net) {
            self.schedule(gate, level);
        }
    }

    #[inline]
    fn schedule(&mut self, gate: NetId, level: u32) {
        if self.queued[gate.index()] != self.stamp {
            self.queued[gate.index()] = self.stamp;
            debug_assert!(level >= 1, "combinational gates are level >= 1");
            self.buckets[level as usize].push(gate);
            self.sched_lo = self.sched_lo.min(level);
            self.sched_hi = self.sched_hi.max(level);
        }
    }
}

/// Builds the per-group stem/branch forcing tables for the current stamp:
/// sorts the group's fault sites by net and publishes stamped
/// `(start, end)` ranges over the sorted entry slices. Entry order within a
/// net is ascending lane order (forced by the sort key), which matches the
/// insertion order the old HashMap tables had. Returns the estimated
/// scratch bytes served.
fn publish_forcing(faults: &FaultList, group: &[FaultId], scratch: &mut Scratch) -> u64 {
    let stamp = scratch.stamp;
    scratch.stem_tmp.clear();
    scratch.branch_tmp.clear();
    for (lane, &fid) in group.iter().enumerate() {
        let lane = lane as u32;
        let fault = faults.get(fid);
        match fault.site {
            FaultSite::Stem(net) => scratch.stem_tmp.push((net, lane, fault.stuck)),
            FaultSite::Branch { gate, pin } => {
                scratch.branch_tmp.push((gate, pin, lane, fault.stuck))
            }
        }
    }
    scratch
        .stem_tmp
        .sort_unstable_by_key(|&(net, lane, _)| (net.index(), lane));
    scratch
        .branch_tmp
        .sort_unstable_by_key(|&(gate, _, lane, _)| (gate.index(), lane));
    scratch.stem_entries.clear();
    for i in 0..scratch.stem_tmp.len() {
        let (net, lane, stuck) = scratch.stem_tmp[i];
        let n = net.index();
        let end = scratch.stem_entries.len() as u32;
        if scratch.stem_stamp[n] != stamp {
            scratch.stem_stamp[n] = stamp;
            scratch.stem_range[n].0 = end;
        }
        scratch.stem_entries.push((lane, stuck));
        scratch.stem_range[n].1 = end + 1;
    }
    scratch.branch_entries.clear();
    for i in 0..scratch.branch_tmp.len() {
        let (gate, pin, lane, stuck) = scratch.branch_tmp[i];
        let g = gate.index();
        let end = scratch.branch_entries.len() as u32;
        if scratch.branch_stamp[g] != stamp {
            scratch.branch_stamp[g] = stamp;
            scratch.branch_range[g].0 = end;
        }
        scratch.branch_entries.push((pin, lane, stuck));
        scratch.branch_range[g].1 = end + 1;
    }
    (scratch.stem_tmp.len() * std::mem::size_of::<(NetId, u32, Logic)>()
        + scratch.branch_tmp.len() * std::mem::size_of::<(NetId, u16, u32, Logic)>()) as u64
}

/// Propagates one group through one good-machine frame: seeds faulty-FF
/// divergence from `seeds`, injects the (already published) stem and branch
/// forces, sweeps the touched level band event-driven, detects at primary
/// outputs, and collects per-lane faulty-FF effects into
/// `scratch.new_state`.
///
/// `live` masks the lanes still being simulated: events, detections, and
/// flip-flop effects of dead lanes are suppressed, mirroring the serial
/// semantics where a dropped fault leaves the group. (Lane values are
/// independent, so letting a dead lane keep propagating cannot perturb any
/// live lane.) The single-frame path passes all group lanes live, which
/// reproduces the ungated behaviour bit for bit.
#[allow(clippy::too_many_arguments)]
fn run_frame<'a>(
    circuit: &Circuit,
    lev: &Levelization,
    frame: GoodFrame<'_>,
    seeds: impl Fn(usize) -> &'a [(u32, Logic)],
    group_len: usize,
    live: u64,
    scratch: &mut Scratch,
    out: &mut GroupOutcome,
) {
    let values = frame.values;
    let mut reused = 0u64;

    // Seed faulty flip-flop state differences carried over from the
    // previous frame.
    for lane in 0..group_len {
        for &(dff_idx, v) in seeds(lane) {
            let ff = circuit.dffs()[dff_idx as usize];
            let word = scratch.effective(values, ff);
            let mut w = word;
            w.set(lane as u32, v);
            if w != word {
                scratch.record(ff, w);
                scratch.schedule_fanout(lev, ff);
            }
        }
    }

    // Seed stem-fault injections (including faults on PIs and FF outputs,
    // which are never re-evaluated by the combinational sweep). `stem_tmp`
    // is sorted by net, so each run of equal nets is one injection site.
    let mut i = 0;
    while i < scratch.stem_tmp.len() {
        let net = scratch.stem_tmp[i].0;
        let word = scratch.effective(values, net);
        let mut w = word;
        while i < scratch.stem_tmp.len() && scratch.stem_tmp[i].0 == net {
            let (_, lane, stuck) = scratch.stem_tmp[i];
            w.set(lane, stuck);
            i += 1;
        }
        // Record the forced word even when it equals the good value this
        // frame, so later reads see the forcing; schedule only on change.
        scratch.record(net, w);
        if w != word {
            scratch.schedule_fanout(lev, net);
        }
    }

    // Seed gates with branch faults: their effective input differs even
    // though no net changed.
    let mut i = 0;
    while i < scratch.branch_tmp.len() {
        let gate = scratch.branch_tmp[i].0;
        while i < scratch.branch_tmp.len() && scratch.branch_tmp[i].0 == gate {
            i += 1;
        }
        if circuit.kind(gate).is_combinational() {
            scratch.schedule(gate, lev.level(gate));
        }
    }

    // Event-driven propagation over the touched level band only. The fanin
    // buffer is taken out of the arena for the duration of the sweep so the
    // borrow checker can see it is disjoint from the stamped tables; gate
    // kinds and fan-in slices come from the schedule-ordered CSR.
    let mut fanin = std::mem::take(&mut scratch.fanin);
    let mut level = scratch.sched_lo as usize;
    while level <= scratch.sched_hi as usize {
        let mut gates = std::mem::take(&mut scratch.buckets[level]);
        for &gate in &gates {
            scratch.queued[gate.index()] = 0;
            out.gate_evals += 1;
            let kind = lev.comb_kind(gate);
            debug_assert!(kind.is_combinational());
            fanin.clear();
            for &src in lev.comb_fanin(gate) {
                fanin.push(scratch.effective(values, src));
            }
            reused += (fanin.len() * std::mem::size_of::<Pv64>()) as u64;
            for &(pin, lane, stuck) in scratch.branch_forces(gate) {
                fanin[pin as usize].set(lane, stuck);
            }
            let mut word = eval_packed(kind, &fanin);
            for &(lane, stuck) in scratch.stem_forces(gate) {
                word.set(lane, stuck);
            }
            let old = scratch.effective(values, gate);
            if word != old {
                let diff_lanes = u64::from((word.any_diff(old) & live).count_ones());
                out.faulty_events += diff_lanes;
                // Every diverged lane beyond the first rode this one packed
                // evaluation: that is the scheduling work the shared
                // per-group queue amortized away.
                out.events_amortized += diff_lanes.saturating_sub(1);
                scratch.record(gate, word);
                scratch.schedule_fanout(lev, gate);
            }
        }
        // Fanout is strictly higher-level, so nothing was appended to this
        // bucket while we iterated; put it back empty with its capacity.
        gates.clear();
        scratch.buckets[level] = gates;
        level += 1;
    }
    scratch.fanin = fanin;

    // Detection at primary outputs: strict binary difference. The
    // per-output masks double as the diagnosis syndrome.
    for (po_idx, &po) in circuit.outputs().iter().enumerate() {
        let goodw = Pv64::broadcast(values[po.index()]);
        let faultyw = scratch.effective(values, po);
        let mask = faultyw.binary_diff(goodw) & live;
        out.detected_mask |= mask;
        for_each_lane(mask, |lane| {
            out.po_detections.push((lane as u32, po_idx as u16))
        });
    }

    // Fault effects at flip-flops: compare faulty D values against the
    // good next state, and record the new sparse faulty state.
    for state in scratch.new_state[..group_len].iter_mut() {
        state.clear();
    }
    reused += (group_len * std::mem::size_of::<Vec<(u32, Logic)>>()) as u64;
    for (dff_idx, &ff) in circuit.dffs().iter().enumerate() {
        let d = circuit.fanin(ff)[0];
        let mut faultyw = scratch.effective(values, d);
        for &(pin, lane, stuck) in scratch.branch_forces(ff) {
            debug_assert_eq!(pin, 0);
            faultyw.set(lane, stuck);
        }
        let goodw = Pv64::broadcast(frame.next_state[dff_idx]);
        let diff = faultyw.any_diff(goodw) & live;
        for_each_lane(diff, |lane| {
            scratch.new_state[lane].push((dff_idx as u32, faultyw.get(lane as u32)));
        });
    }
    for state in scratch.new_state[..group_len].iter() {
        let effects = state.len() as u64;
        if effects > 0 {
            out.ff_effect_pairs += effects;
            out.ff_effect_faults += 1;
        }
    }
    out.scratch_bytes += reused;
}

/// Materializes `scratch.new_state` into per-lane replacement faulty-FF
/// state, comparing against the pre-step shared table to skip no-op writes.
fn materialize_new_ff(
    ctx: &GroupCtx<'_>,
    group: &[FaultId],
    keep: u64,
    scratch: &Scratch,
    out: &mut GroupOutcome,
) {
    let mut reused = 0u64;
    for (lane, &fid) in group.iter().enumerate() {
        if keep >> lane & 1 == 0 {
            // Dropped mid-window: the caller's drop logic clears the state.
            out.new_ff.push(None);
            continue;
        }
        let state = &scratch.new_state[lane];
        if state.is_empty() && ctx.faulty_ff[fid.index()].is_empty() {
            // Keep sharing the empty slice: no write, no unshare.
            out.new_ff.push(None);
        } else if state.is_empty() {
            out.new_ff.push(Some(Arc::clone(ctx.empty_ff)));
        } else {
            reused += (state.len() * std::mem::size_of::<(u32, Logic)>()) as u64;
            out.new_ff.push(Some(Arc::from(state.as_slice())));
        }
    }
    out.scratch_bytes += reused;
}

/// Simulates one group of at most 64 faults against the
/// already-advanced good machine, writing everything it learns into `out`.
///
/// Groups are order-independent: a group reads only the previous frame's
/// faulty-FF state for its own faults and the (frozen) good machine, so
/// calling this from concurrent workers with private `scratch`/`out` gives
/// the same outcomes as a serial loop.
pub(crate) fn simulate_group(
    ctx: &GroupCtx<'_>,
    group: &[FaultId],
    scratch: &mut Scratch,
    out: &mut GroupOutcome,
) {
    debug_assert!(group.len() <= Pv64::LANES);
    out.reset();
    scratch.begin_frame();
    out.scratch_bytes += publish_forcing(ctx.faults, group, scratch);
    let live = low_lanes(group.len());
    run_frame(
        ctx.circuit,
        ctx.good.levelization(),
        GoodFrame {
            values: ctx.good.values(),
            next_state: ctx.good.next_states(),
        },
        |lane| &ctx.faulty_ff[group[lane].index()][..],
        group.len(),
        live,
        scratch,
        out,
    );
    materialize_new_ff(ctx, group, live, scratch, out);
}

/// Simulates one group across a *window* of already-committed good-machine
/// frames in a single pass, producing one [`GroupOutcome`] per frame.
///
/// Frame `0` seeds from the shared faulty-FF table exactly like
/// [`simulate_group`]; each later frame seeds from the previous frame's
/// per-lane state carried inside the arena, so the window never touches the
/// copy-on-write table in between. Lanes detected at frame `f` are masked
/// out of frames `f+1..` (events, detections, and FF effects), mirroring
/// the serial drop-after-step semantics; because lane values are
/// independent, their continued propagation cannot perturb live lanes.
/// Only the *last* frame's outcome carries `new_ff` entries.
///
/// Every per-frame outcome is bit-identical to what `simulate_group` would
/// have produced step by step — except `gate_evals`/`scratch_bytes`, which
/// depend on how the work was batched.
pub(crate) fn simulate_group_window(
    ctx: &GroupCtx<'_>,
    frames: &[GoodFrame<'_>],
    group: &[FaultId],
    scratch: &mut Scratch,
    outs: &mut [GroupOutcome],
) {
    debug_assert!(group.len() <= Pv64::LANES);
    debug_assert_eq!(frames.len(), outs.len());
    let lev = ctx.good.levelization();
    let mut live = low_lanes(group.len());
    let mut carry = std::mem::take(&mut scratch.carry_state);
    for (f, (frame, out)) in frames.iter().zip(outs.iter_mut()).enumerate() {
        out.reset();
        scratch.begin_frame();
        out.scratch_bytes += publish_forcing(ctx.faults, group, scratch);
        if f == 0 {
            run_frame(
                ctx.circuit,
                lev,
                *frame,
                |lane| &ctx.faulty_ff[group[lane].index()][..],
                group.len(),
                live,
                scratch,
                out,
            );
        } else {
            // Previous frame's per-lane states move to the carry side so
            // this frame can read them while writing `new_state`.
            std::mem::swap(&mut scratch.new_state, &mut carry);
            let carry_ref = &carry;
            run_frame(
                ctx.circuit,
                lev,
                *frame,
                |lane| {
                    if live >> lane & 1 != 0 {
                        carry_ref[lane].as_slice()
                    } else {
                        &[]
                    }
                },
                group.len(),
                live,
                scratch,
                out,
            );
        }
        live &= !out.detected_mask;
    }
    if let Some(last) = outs.last_mut() {
        materialize_new_ff(ctx, group, live, scratch, last);
    }
    scratch.carry_state = carry;
}
