#![warn(missing_docs)]

//! Three-valued logic simulation and PROOFS-style sequential fault
//! simulation for the GATEST reproduction.
//!
//! The crate is layered:
//!
//! * [`value`] — scalar [`Logic`] (0/1/X) and the packed [`Pv64`] used for
//!   bit-parallel fault propagation: 64 faults (or patterns) per word, two
//!   bit planes, bare `u64` lane masks. It is the only packed width: a
//!   four-word plane won only on small circuits and only when asked for,
//!   so it was removed (DESIGN.md §14).
//! * [`eval`] — gate evaluation over both representations.
//! * [`fault`] — the single stuck-at fault universe and equivalence
//!   collapsing ([`FaultList`]).
//! * [`good_sim`] — the fault-free machine ([`GoodSim`]), with the event and
//!   flip-flop statistics the GATEST fitness functions consume.
//! * [`fsim`] — the fault simulator proper ([`FaultSim`]): 64-fault packed
//!   single-fault propagation, event-driven levelized evaluation, fault
//!   dropping, sparse faulty state, and the checkpoint/restore mechanism the
//!   paper adds in §IV.
//! * [`transition`] — the transition (gross-delay) fault model and its
//!   simulator, demonstrating the paper's claim that other fault models
//!   slot into the same framework.
//! * [`fault_report`] — textual per-fault status reports (round-tripping).
//! * [`equiv`] — random-simulation equivalence smoke-checking.
//! * [`dictionary`] — first-detection fault dictionaries and
//!   dictionary-based diagnosis.
//! * [`state_space`] — exhaustive reachability and synchronizing-sequence
//!   analysis for small machines.
//! * [`vcd`] — VCD waveform export of simulation traces.
//! * [`ppsfp`] — parallel-pattern single-fault propagation for
//!   combinational (scan) circuits, the classic dual of PROOFS.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use gatest_sim::{FaultSim, Logic};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = Arc::new(gatest_netlist::benchmarks::iscas89("s27")?);
//! let mut sim = FaultSim::new(circuit);
//!
//! // Evaluate a candidate vector without committing it:
//! let cp = sim.checkpoint();
//! let report = sim.step(&[Logic::One, Logic::One, Logic::Zero, Logic::Zero]);
//! let fitness = report.detected();
//! sim.restore(&cp);
//! assert_eq!(sim.detected_count(), 0);
//! # let _ = fitness;
//! # Ok(())
//! # }
//! ```

pub mod dictionary;
pub mod equiv;
pub mod eval;
pub mod fault;
pub mod fault_report;
pub mod fsim;
pub mod good_sim;
pub(crate) mod group;
pub mod packed_good;
pub mod ppsfp;
pub mod state_space;
pub mod transition;
pub mod value;
pub mod vcd;

pub use dictionary::{FaultDictionary, Syndrome};
pub use fault::{Fault, FaultId, FaultList, FaultSite, FaultStatus};
pub use fault_report::{FaultReportWriter, StreamRecord, StreamSummary};
pub use fsim::{Checkpoint, FaultSim, SimState, SimStateError, StepReport};
pub use good_sim::{GoodSim, GoodSimState, GoodStepReport};
pub use packed_good::PackedGoodSim;
pub use transition::{Slow, TransitionFault, TransitionFaultSim};
pub use value::{Logic, Pv64};

// The frozen benchmark harness in `perfbench/` still names these; they
// forward to the one fault simulator and carry no behavior of their own.
#[doc(hidden)]
pub type ShardedFaultSim = FaultSim;

impl FaultSim {
    #[doc(hidden)]
    pub fn with_shards(
        circuit: std::sync::Arc<gatest_netlist::Circuit>,
        faults: FaultList,
        _: usize,
    ) -> Self {
        Self::with_faults(circuit, faults)
    }

    #[doc(hidden)]
    pub fn set_sim_threads(&mut self, _: usize) {}

    #[doc(hidden)]
    pub fn set_backend(&mut self, _: SimBackend) {}

    #[doc(hidden)]
    pub fn backend(&self) -> SimBackend {
        SimBackend::Scalar64
    }
}

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    #[default]
    Scalar64,
}

impl SimBackend {
    #[doc(hidden)]
    pub fn resolved(self) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn name(self) -> &'static str {
        "scalar64"
    }

    #[doc(hidden)]
    pub fn lanes(self) -> usize {
        Pv64::LANES
    }
}

/// The s27 circuit for intra-crate tests.
#[cfg(test)]
pub(crate) fn tests_circuit() -> gatest_netlist::Circuit {
    gatest_netlist::benchmarks::iscas89("s27").expect("bundled s27")
}
