//! **NoCAlert** — the core contribution of the MICRO 2012 paper, in Rust.
//!
//! NoCAlert is an on-line, real-time fault-detection mechanism for the
//! control logic of Network-on-Chip routers. It attaches a lightweight
//! *invariance checker* (a combinational hardware assertion) to every
//! control module; a checker flags **illegal outputs** — operational
//! decisions that cannot be produced by any input under the module's
//! functional rules. Table 1 of the paper enumerates 32 such invariances
//! for the canonical five-stage VC router; this crate implements all of
//! them over the wire-level [`noc_types::CycleRecord`]s the simulator
//! emits, plus the network-level end-to-end checker at the NIs.
//!
//! Key properties reproduced here:
//!
//! * checkers observe the same (possibly fault-corrupted) wires the router
//!   logic consumes, and assert **in the same cycle** the illegal value
//!   appears;
//! * checkers are purely observational — they never perturb the network;
//! * invariances 1 and 3 are *low-risk* (Observation 2): the
//!   [`AlertBank::first_detection_cautious`] view defers lone assertions
//!   of those checkers, reproducing the "NoCAlert Cautious" bars of
//!   Figure 6;
//! * invariance 26 (atomic buffers) and 27 (non-atomic) are mutually
//!   exclusive per configuration, as discussed in Section 4.4.
//!
//! # Quickstart
//!
//! ```
//! use noc_sim::Network;
//! use noc_types::{FaultKind, NocConfig, SiteRef};
//! use noc_types::site::SignalKind;
//! use nocalert::AlertBank;
//!
//! let cfg = NocConfig::small_test();
//! let mut net = Network::new(cfg.clone());
//! let mut bank = AlertBank::new(&cfg);
//! net.run(500);
//! // Stick a permanent stuck-bit fault on a routing-computation output
//! // wire; from cycle 500 on, every route computed by router 5's local
//! // input port has bit 1 of its direction flipped.
//! net.arm_fault(
//!     SiteRef { router: 5, port: 4, vc: 0, signal: SignalKind::RcOutDir, bit: 1 },
//!     FaultKind::Permanent,
//!     500,
//! );
//! for _ in 0..2_000 {
//!     net.step_observed(&mut bank);
//! }
//! // NoCAlert notices as soon as traffic exercises the corrupted wire.
//! assert!(net.fault_hits() == 0 || bank.any_asserted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod diagnosis;
pub mod predicates;
pub mod table;

pub use bank::{AlertBank, AssertionEvent};
pub use diagnosis::{localize, Diagnosis};
pub use predicates::{check_arbiter_wires, vc_order_violated, ArbiterCheck};
pub use table::{info, Applicability, Category, CheckerId, CheckerInfo, Risk, TABLE1};
