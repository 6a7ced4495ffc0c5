//! Fundamental data types shared by every crate in the NoCAlert reproduction.
//!
//! This crate deliberately contains *no behaviour* beyond small helpers: it is
//! the vocabulary that the cycle-accurate simulator (`noc-sim`), the
//! NoCAlert invariance checkers (`nocalert`), the fault-injection framework
//! (`nocalert-fault`), the ForEVeR baseline (`nocalert-forever`) and the
//! golden-reference oracle (`nocalert-golden`) use to talk to each other.
//!
//! The major type families are:
//!
//! * [`geometry`] — mesh coordinates, node identifiers and the five router
//!   port directions (N/E/S/W/Local) of the canonical 2D-mesh router.
//! * [`flit`] — flits, packets and their provenance (normal traffic vs.
//!   garbage fabricated by a faulty read of an empty buffer slot).
//! * [`config`] — the router/network configuration knobs from Section 3.1 of
//!   the paper (number of VCs, buffer depth, atomic vs. non-atomic buffers,
//!   routing algorithm, message classes, …).
//! * [`site`] — fault-site addressing: every control-logic module exposes its
//!   input and output wires as named bit-fields, and a [`site::SiteRef`]
//!   names one bit of one such field in one router. This is the injection
//!   surface of the paper's fault model (Figure 5).
//! * [`record`] — per-cycle observation records: the wire values every module
//!   produced this cycle. This is the observation surface of the NoCAlert
//!   checkers *and* of the ForEVeR Allocation Comparator.
//!
//! # Example
//!
//! ```
//! use noc_types::geometry::{Coord, Direction, Mesh};
//!
//! let mesh = Mesh::new(8, 8);
//! let node = mesh.node(Coord::new(3, 4));
//! assert_eq!(mesh.coord(node), Coord::new(3, 4));
//! assert_eq!(Direction::North.opposite(), Direction::South);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod config;
pub mod error;
pub mod flit;
pub mod geometry;
pub mod job;
pub mod record;
pub mod region;
pub mod site;

pub use attack::{AttackKind, AttackSpec};
pub use config::{BufferPolicy, NocConfig, RoutingAlgorithm, TrafficPattern};
pub use error::SimError;
pub use flit::{Flit, FlitKind, FlitOrigin, PacketId};
pub use geometry::{Coord, Direction, Mesh, NodeId};
pub use job::{
    ContainmentStep, Incident, JobEvent, JobKind, JobResult, JobSpec, JobState, JobStatus,
};
pub use record::{CycleRecord, EjectEvent};
pub use region::FaultRect;
pub use site::{FaultKind, ModuleClass, SignalDir, SignalKind, SiteRef};

/// A simulation cycle number.
///
/// Cycles start at 0 and advance by one per `Network::step` of the
/// network.
/// The alias exists to make signatures self-describing.
pub type Cycle = u64;
