//! Fault-site addressing — the injection surface of the paper's fault model.
//!
//! Figure 5 of the paper: *"Our model has the capability of injecting
//! single-bit faults at the inputs and the outputs of each individual
//! module"*. Here every control-logic module of the router is given a
//! [`ModuleClass`], every input/output wire bundle of a module a
//! [`SignalKind`] with a configuration-dependent bit width, and a
//! [`SiteRef`] names **one bit of one signal of one module instance in one
//! router** — the atomic unit at which the campaign flips bits.
//!
//! The same catalogue drives three things, which keeps them consistent by
//! construction:
//!
//! 1. the simulator's in-line fault hooks (`noc-sim`'s `FaultPlane` is
//!    consulted with a `SiteRef`-compatible key at every module boundary),
//! 2. the exhaustive site enumeration used by the campaign driver, and
//! 3. coverage tests that arm every enumerated site and assert the hook
//!    actually fires.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a signal is an input or an output of its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignalDir {
    /// Module input wire (scenario (a) in Figure 5).
    Input,
    /// Module output wire (scenario (b) in Figure 5).
    Output,
}

/// The control-logic modules of the baseline router (Section 3.1).
///
/// Instances are addressed by `(class, port, vc)`; modules that exist once
/// per port use `vc = 0`, and `port` is an *input* port for `Rc`, `Va1`,
/// `Sa1`, `VcState`, `BufState` and an *output* port for `Va2`, `Sa2`,
/// `XbarCtl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum ModuleClass {
    /// Routing Computation unit — one per input port.
    Rc = 0,
    /// Local (intra-port) VC-allocation arbiter — one per input port.
    Va1 = 1,
    /// Global (inter-port) VC-allocation arbiter — one per output port.
    Va2 = 2,
    /// Local (intra-port) switch arbiter — one per input port.
    Sa1 = 3,
    /// Global (inter-port) switch arbiter — one per output port.
    Sa2 = 4,
    /// Crossbar control (column select) — one per output port.
    XbarCtl = 5,
    /// VC state table — one per (input port, VC).
    VcState = 6,
    /// VC buffer status logic (pointers/flags) — one per (input port, VC).
    BufState = 7,
}

impl ModuleClass {
    /// All module classes.
    pub const ALL: [ModuleClass; 8] = [
        ModuleClass::Rc,
        ModuleClass::Va1,
        ModuleClass::Va2,
        ModuleClass::Sa1,
        ModuleClass::Sa2,
        ModuleClass::XbarCtl,
        ModuleClass::VcState,
        ModuleClass::BufState,
    ];

    /// True if instances exist per (port, VC) rather than per port.
    #[inline]
    pub fn per_vc(self) -> bool {
        matches!(self, ModuleClass::VcState | ModuleClass::BufState)
    }

    /// True if `port` in the instance address denotes an *output* port.
    #[inline]
    pub fn port_is_output(self) -> bool {
        matches!(
            self,
            ModuleClass::Va2 | ModuleClass::Sa2 | ModuleClass::XbarCtl
        )
    }
}

impl fmt::Display for ModuleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModuleClass::Rc => "RC",
            ModuleClass::Va1 => "VA1",
            ModuleClass::Va2 => "VA2",
            ModuleClass::Sa1 => "SA1",
            ModuleClass::Sa2 => "SA2",
            ModuleClass::XbarCtl => "XBAR",
            ModuleClass::VcState => "VCST",
            ModuleClass::BufState => "BUFST",
        };
        f.write_str(s)
    }
}

/// Named wire bundles at module boundaries.
///
/// Each kind belongs to exactly one [`ModuleClass`] and is either an input
/// or an output of it ([`SignalKind::dir`]); its width in bits depends on
/// the configuration (VC count, coordinate width) and is computed by
/// `noc-sim`'s signal catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum SignalKind {
    // --- RC unit ---
    /// Destination X coordinate presented to the RC unit.
    RcDestX = 0,
    /// Destination Y coordinate presented to the RC unit.
    RcDestY = 1,
    /// "Flit at buffer head is a header" valid bit.
    RcHeadValid = 2,
    /// Computed output direction (3-bit encoding of [`crate::Direction`]).
    RcOutDir = 3,
    // --- VA1 local arbiter (per input port, V-bit vectors) ---
    /// Request vector: VCs awaiting VC allocation.
    Va1Req = 4,
    /// Grant vector (one-hot under correct operation).
    Va1Grant = 5,
    // --- VA2 global arbiter (per output port, P-bit vectors) ---
    /// Request vector over input ports.
    Va2Req = 6,
    /// Grant vector over input ports.
    Va2Grant = 7,
    /// The downstream VC index assigned to the winner.
    Va2OutVc = 8,
    // --- SA1 local arbiter (per input port, V-bit vectors) ---
    /// Request vector: active VCs with a flit and a credit.
    Sa1Req = 9,
    /// Grant vector.
    Sa1Grant = 10,
    // --- SA2 global arbiter (per output port, P-bit vectors) ---
    /// Request vector over input ports.
    Sa2Req = 11,
    /// Grant vector over input ports.
    Sa2Grant = 12,
    // --- Crossbar control (per output port) ---
    /// Column control vector over input ports: bit `p` connects input row
    /// `p` to this output column. Single-bit faults here create exactly the
    /// non-one-hot columns/rows of invariances 14/15.
    XbarCol = 13,
    /// Grant vector from SA2 as latched by the crossbar control (its input).
    XbarGrantIn = 14,
    // --- VC state table (per input port, VC) ---
    /// "RC completed this cycle" event wire.
    VcEvRcDone = 15,
    /// "VA completed this cycle" event wire.
    VcEvVaDone = 16,
    /// "Won switch arbitration this cycle" event wire.
    VcEvSaWon = 17,
    /// Stored pipeline-state code (2 bits: Idle/Routing/VaPending/Active).
    VcStateCode = 18,
    /// Stored output port for the current packet (3 bits).
    VcOutPort = 19,
    /// Stored downstream VC for the current packet.
    VcOutVc = 20,
    // --- Buffer status (per input port, VC) ---
    /// Write-enable wire.
    BufWrite = 21,
    /// Read-enable wire.
    BufRead = 22,
    /// Empty flag.
    BufEmpty = 23,
    /// Full flag.
    BufFull = 24,
    /// Kind bits (2) of the flit at the buffer head.
    BufHeadKind = 25,
}

impl SignalKind {
    /// All signal kinds.
    pub const ALL: [SignalKind; 26] = [
        SignalKind::RcDestX,
        SignalKind::RcDestY,
        SignalKind::RcHeadValid,
        SignalKind::RcOutDir,
        SignalKind::Va1Req,
        SignalKind::Va1Grant,
        SignalKind::Va2Req,
        SignalKind::Va2Grant,
        SignalKind::Va2OutVc,
        SignalKind::Sa1Req,
        SignalKind::Sa1Grant,
        SignalKind::Sa2Req,
        SignalKind::Sa2Grant,
        SignalKind::XbarCol,
        SignalKind::XbarGrantIn,
        SignalKind::VcEvRcDone,
        SignalKind::VcEvVaDone,
        SignalKind::VcEvSaWon,
        SignalKind::VcStateCode,
        SignalKind::VcOutPort,
        SignalKind::VcOutVc,
        SignalKind::BufWrite,
        SignalKind::BufRead,
        SignalKind::BufEmpty,
        SignalKind::BufFull,
        SignalKind::BufHeadKind,
    ];

    /// The module class this signal belongs to.
    pub fn module(self) -> ModuleClass {
        use SignalKind::*;
        match self {
            RcDestX | RcDestY | RcHeadValid | RcOutDir => ModuleClass::Rc,
            Va1Req | Va1Grant => ModuleClass::Va1,
            Va2Req | Va2Grant | Va2OutVc => ModuleClass::Va2,
            Sa1Req | Sa1Grant => ModuleClass::Sa1,
            Sa2Req | Sa2Grant => ModuleClass::Sa2,
            XbarCol | XbarGrantIn => ModuleClass::XbarCtl,
            VcEvRcDone | VcEvVaDone | VcEvSaWon | VcStateCode | VcOutPort | VcOutVc => {
                ModuleClass::VcState
            }
            BufWrite | BufRead | BufEmpty | BufFull | BufHeadKind => ModuleClass::BufState,
        }
    }

    /// True for signals backed by a state register (the VC status table).
    ///
    /// A *transient* fault on a register is a single-event upset: the
    /// stored bit flips once and the wrong value **persists** until the
    /// register is functionally rewritten. A transient on a combinational
    /// wire, by contrast, corrupts exactly one cycle's evaluation. The
    /// fault plane and the network treat the two accordingly.
    pub fn is_register(self) -> bool {
        matches!(
            self,
            SignalKind::VcStateCode | SignalKind::VcOutPort | SignalKind::VcOutVc
        )
    }

    /// Whether this signal is an input or an output of its module.
    pub fn dir(self) -> SignalDir {
        use SignalKind::*;
        match self {
            RcDestX | RcDestY | RcHeadValid | Va1Req | Va2Req | Sa1Req | Sa2Req | XbarGrantIn
            | VcEvRcDone | VcEvVaDone | VcEvSaWon | BufWrite | BufRead => SignalDir::Input,
            RcOutDir | Va1Grant | Va2Grant | Va2OutVc | Sa1Grant | Sa2Grant | XbarCol
            | VcStateCode | VcOutPort | VcOutVc | BufEmpty | BufFull | BufHeadKind => {
                SignalDir::Output
            }
        }
    }
}

/// One injectable bit: `(router, module instance, signal, bit)`.
///
/// # Example
///
/// ```
/// use noc_types::site::{ModuleClass, SignalKind, SiteRef};
///
/// let site = SiteRef {
///     router: 12,
///     port: 1,
///     vc: 0,
///     signal: SignalKind::RcOutDir,
///     bit: 2,
/// };
/// assert_eq!(site.signal.module(), ModuleClass::Rc);
/// assert_eq!(site.to_string(), "n12/RC[p1]/RcOutDir.2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteRef {
    /// Router (node) index.
    pub router: u16,
    /// Port of the module instance (input or output port depending on the
    /// module class — see [`ModuleClass::port_is_output`]).
    pub port: u8,
    /// VC of the module instance (0 for per-port modules).
    pub vc: u8,
    /// The wire bundle.
    pub signal: SignalKind,
    /// Bit within the bundle.
    pub bit: u8,
}

impl fmt::Display for SiteRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.signal.module();
        if m.per_vc() {
            write!(
                f,
                "n{}/{}[p{}v{}]/{:?}.{}",
                self.router, m, self.port, self.vc, self.signal, self.bit
            )
        } else {
            write!(
                f,
                "n{}/{}[p{}]/{:?}.{}",
                self.router, m, self.port, self.signal, self.bit
            )
        }
    }
}

/// Temporal behaviour of an injected fault (Section 5.2).
///
/// The paper's campaign uses single-bit **transient** faults; it argues the
/// mechanism behaves identically for permanent and intermittent faults
/// (the checker simply stays asserted), which Observation 3 probes — so all
/// three temporal classes are supported. The recovery work (DESIGN.md §11)
/// additionally distinguishes the *value* behaviour of hard faults: the
/// original `Permanent` keeps the paper's stuck-*flipped* (XOR) semantics,
/// while `StuckAt0`/`StuckAt1` model the classical stuck-at defects that a
/// containment mechanism must survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Bit flipped during exactly one cycle (single-event upset).
    Transient,
    /// Bit stuck-flipped from the injection cycle onward.
    Permanent,
    /// Bit forced to logic 0 from the injection cycle onward.
    StuckAt0,
    /// Bit forced to logic 1 from the injection cycle onward.
    StuckAt1,
    /// Bit flipped every cycle where `(cycle - start) % period < duty`.
    Intermittent {
        /// Repetition period in cycles.
        period: u32,
        /// Number of faulty cycles at the start of each period.
        duty: u32,
    },
}

impl FaultKind {
    /// Whether the fault is active `delta` cycles after injection start.
    #[inline]
    pub fn active_at(self, delta: u64) -> bool {
        match self {
            FaultKind::Transient => delta == 0,
            FaultKind::Permanent | FaultKind::StuckAt0 | FaultKind::StuckAt1 => true,
            FaultKind::Intermittent { period, duty } => (delta % period as u64) < duty as u64,
        }
    }

    /// True for the hard-fault kinds that persist forever once started —
    /// the classes `noc-sim`'s recovery controller may infer as permanent.
    #[inline]
    pub fn is_persistent(self) -> bool {
        matches!(
            self,
            FaultKind::Permanent | FaultKind::StuckAt0 | FaultKind::StuckAt1
        )
    }

    /// The value semantics of the fault on an **active** cycle: how the
    /// fault-free wire `value` is corrupted at bit position `bit`.
    ///
    /// Stuck-at defects force the addressed bit to a level; every other
    /// kind flips it. This is *the* definition used by both the dynamic
    /// fault plane (`noc-sim`'s `FaultPlane::xf`) and the static
    /// detectability prover (`nocalert-analysis`' detect pass), so the
    /// two planes can never drift apart.
    #[inline]
    pub fn apply(self, value: u64, bit: u8) -> u64 {
        let mask = 1u64 << bit;
        match self {
            FaultKind::StuckAt0 => value & !mask,
            FaultKind::StuckAt1 => value | mask,
            _ => value ^ mask,
        }
    }
}

/// The signal set the recovery plane promises to survive faults on
/// (DESIGN.md §11): an alert attributable to one of these wires drives the
/// containment ladder all the way to exactly-once delivery. The set was
/// derived empirically by the recovery campaign and is consumed by the
/// golden harness (alert filtering) and by the static detectability prover
/// (which must show detect-or-masked for *every* single fault on it).
pub fn containment_covered(signal: SignalKind) -> bool {
    matches!(
        signal,
        SignalKind::BufEmpty
            | SignalKind::BufFull
            | SignalKind::RcHeadValid
            | SignalKind::RcOutDir
            | SignalKind::VcEvSaWon
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_module_membership_is_total() {
        for s in SignalKind::ALL {
            // dir() and module() must be defined for every kind.
            let _ = s.dir();
            let _ = s.module();
        }
    }

    /// `ALL` lists every variant once, in discriminant order: a variant
    /// dropped from the middle shifts every later entry, and one dropped
    /// from the end shortens the array.
    #[test]
    fn signal_catalogue_is_in_discriminant_order() {
        for (i, s) in SignalKind::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "SignalKind::ALL[{i}] is {s:?}");
        }
        assert_eq!(SignalKind::ALL.len(), SignalKind::BufHeadKind as usize + 1);
    }

    #[test]
    fn module_addressing_properties() {
        assert!(ModuleClass::VcState.per_vc());
        assert!(ModuleClass::BufState.per_vc());
        assert!(!ModuleClass::Rc.per_vc());
        assert!(ModuleClass::Va2.port_is_output());
        assert!(ModuleClass::Sa2.port_is_output());
        assert!(!ModuleClass::Sa1.port_is_output());
    }

    #[test]
    fn grants_are_outputs_requests_are_inputs() {
        assert_eq!(SignalKind::Va1Grant.dir(), SignalDir::Output);
        assert_eq!(SignalKind::Va1Req.dir(), SignalDir::Input);
        assert_eq!(SignalKind::Sa2Grant.dir(), SignalDir::Output);
        assert_eq!(SignalKind::Sa2Req.dir(), SignalDir::Input);
        assert_eq!(SignalKind::RcOutDir.dir(), SignalDir::Output);
        assert_eq!(SignalKind::RcDestX.dir(), SignalDir::Input);
    }

    #[test]
    fn fault_kind_activity() {
        assert!(FaultKind::Transient.active_at(0));
        assert!(!FaultKind::Transient.active_at(1));
        assert!(FaultKind::Permanent.active_at(0));
        assert!(FaultKind::Permanent.active_at(10_000));
        let inter = FaultKind::Intermittent {
            period: 10,
            duty: 3,
        };
        assert!(inter.active_at(0));
        assert!(inter.active_at(2));
        assert!(!inter.active_at(3));
        assert!(inter.active_at(10));
    }

    #[test]
    fn stuck_at_kinds_are_persistent() {
        for k in [
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::Permanent,
        ] {
            assert!(k.is_persistent());
            assert!(k.active_at(0));
            assert!(k.active_at(1_000_000));
        }
        assert!(!FaultKind::Transient.is_persistent());
        assert!(!FaultKind::Intermittent { period: 4, duty: 1 }.is_persistent());
    }

    #[test]
    fn site_display() {
        let s = SiteRef {
            router: 3,
            port: 2,
            vc: 1,
            signal: SignalKind::VcStateCode,
            bit: 0,
        };
        assert_eq!(s.to_string(), "n3/VCST[p2v1]/VcStateCode.0");
    }
}
