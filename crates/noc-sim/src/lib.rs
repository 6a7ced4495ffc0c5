//! Cycle-accurate Network-on-Chip simulator — the substrate of the
//! NoCAlert (MICRO 2012) reproduction.
//!
//! This crate plays the role GARNET plays in the paper: it models
//! input-buffered, five-stage pipelined virtual-channel routers
//! (RC → VA → SA → XBAR → LT) down to the micro-architectural level, on a
//! 2D mesh with wormhole switching and credit-based flow control, driven by
//! synthetic traffic. Two extensions make it the evaluation vehicle for
//! NoCAlert:
//!
//! * **Signal observation** — every router control module materializes its
//!   input/output wires each cycle into a [`noc_types::CycleRecord`] that
//!   is handed to an [`Observer`]. The NoCAlert checkers attach here.
//! * **In-line fault injection** — every one of those wires is routed
//!   through a [`fault_plane::FaultPlane`], so a single-bit fault armed on
//!   any [`noc_types::SiteRef`] corrupts the *functional* value and
//!   propagates physically (stale-slot replays, crossbar collisions,
//!   multicast duplication, overrun writes…).
//!
//! # Example
//!
//! ```
//! use noc_sim::Network;
//! use noc_types::NocConfig;
//!
//! let mut net = Network::new(NocConfig::small_test());
//! net.run(1_000);
//! assert!(net.stats().injected_flits > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod arbiter;
pub mod arq;
pub mod buffer;
pub mod fault_plane;
pub mod fault_region;
pub mod network;
pub mod nic;
pub mod recovery;
pub mod router;
pub mod routing;
pub mod signals;
pub mod trace;
pub mod traffic;
pub mod transport;
pub mod vc;

pub use adversary::{Adversary, AttackIntent, AttackStats};
pub use fault_plane::{ArmedFault, FaultPlane};
pub use fault_region::{FaultRegionMap, RegionGrowth};
pub use network::{NetStats, Network, NullObserver, Observer};
pub use recovery::{
    ContainmentEvent, ContainmentLevel, RecoveryController, RecoveryPolicy, RecoveryStats,
};
pub use router::{CreditMsg, LinkFlit, Router};
pub use signals::{enumerate_all_sites, enumerate_router_sites, live_bits, signal_width};
pub use trace::TraceObserver;
pub use transport::{
    ArqConfig, ControlCapture, DeliveryRecord, FailureRecord, SuspicionEvent, Transport,
    TransportStats,
};
