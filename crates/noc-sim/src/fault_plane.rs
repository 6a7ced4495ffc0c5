//! The fault plane: in-line single-bit fault injection at module boundaries.
//!
//! Every signal a router module consumes or produces is routed through
//! [`FaultPlane::xf`]. When a fault is armed on that exact wire
//! ([`SiteRef`]) and temporally active ([`FaultKind`]), the value comes
//! back with the addressed bit flipped; otherwise it passes through
//! untouched. Both the router's functional logic *and* the observation
//! record consume the transformed value — faults therefore propagate
//! through real state, and checkers see exactly what the hardware wires
//! would carry (Figure 5 of the paper).

use noc_types::site::{FaultKind, SignalKind, SiteRef};
use noc_types::Cycle;
use serde::{Deserialize, Serialize};

/// A fault armed on one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmedFault {
    /// The wire bit to corrupt.
    pub site: SiteRef,
    /// Temporal behaviour.
    pub kind: FaultKind,
    /// First cycle at which the fault is (potentially) active.
    pub start: Cycle,
}

/// The injection surface threaded through every router.
///
/// The detection campaigns arm at most one fault at a time, matching the
/// paper's single-fault model; the aging campaign accumulates a growing
/// population of permanents via [`FaultPlane::arm_additional`]. `hits`
/// counts how many times any armed bit actually flipped a live wire (used
/// by coverage tests and the campaign driver to discard vacuous
/// injections). The hot path (no fault, or no fault on this router) stays
/// a couple of compares.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlane {
    faults: Vec<ArmedFault>,
    /// Sorted, deduplicated router ids carrying at least one fault — the
    /// quiescent-router fast path in the network consults this.
    routers: Vec<u16>,
    /// Bit `r` set iff router id `r < 64` appears in `routers`. Router
    /// ids ≥ 64 (meshes larger than 8×8) fall back to the sorted vec.
    /// This keeps the per-wire [`FaultPlane::xf`] hot path — *every*
    /// signal of *every* stepped router goes through it — to a shift and
    /// a mask even while faults are armed elsewhere in the mesh.
    router_mask: u64,
    hits: u64,
}

impl FaultPlane {
    /// A plane with no fault armed.
    pub fn new() -> FaultPlane {
        FaultPlane::default()
    }

    /// Arms `fault`, replacing any previous ones and resetting the hit
    /// count (the single-fault campaign entry point).
    pub fn arm(&mut self, fault: ArmedFault) {
        self.disarm();
        self.hits = 0;
        self.arm_additional(fault);
    }

    /// Arms `fault` on top of whatever is already armed, preserving the
    /// hit count — the accumulating-permanent-fault entry point of the
    /// aging campaign.
    pub fn arm_additional(&mut self, fault: ArmedFault) {
        self.faults.push(fault);
        self.index_router(fault.site.router);
    }

    /// Disarms every fault.
    pub fn disarm(&mut self) {
        self.faults.clear();
        self.routers.clear();
        self.router_mask = 0;
    }

    fn index_router(&mut self, router: u16) {
        if let Err(i) = self.routers.binary_search(&router) {
            self.routers.insert(i, router);
        }
        if router < 64 {
            self.router_mask |= 1u64 << router;
        }
    }

    /// The first armed fault, if any (the single-fault campaigns arm
    /// exactly one, so this is *the* fault for them).
    pub fn armed(&self) -> Option<&ArmedFault> {
        self.faults.first()
    }

    /// Number of armed faults.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Whether any armed fault targets `router` — the network's
    /// quiescent-router fast path.
    #[inline]
    pub fn router_armed(&self, router: u16) -> bool {
        if router < 64 {
            self.router_mask & (1u64 << router) != 0
        } else {
            self.routers.binary_search(&router).is_ok()
        }
    }

    /// How many times an armed bit has been flipped on a live wire.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// True when no armed fault can influence any wire at any cycle
    /// ≥ `cycle` — every one is a transient whose
    /// single active instant already passed. Sustained kinds (permanent,
    /// stuck-at, intermittent) are never inert. An inert plane's
    /// [`FaultPlane::xf`] is the identity and counts no hits, so skipping
    /// its evaluation is sound.
    pub fn inert_from(&self, cycle: Cycle) -> bool {
        self.faults
            .iter()
            .all(|f| f.kind == FaultKind::Transient && f.start < cycle)
    }

    /// If the armed fault at `index` is a **transient on a state
    /// register**, and `cycle` is its injection instant, returns the site
    /// so the owner can flip the stored bit in place (a single-event
    /// upset persists until the register is rewritten). Such faults are
    /// *not* applied by [`FaultPlane::xf`]. Index past the fault list
    /// returns `None`, so callers may iterate `0..fault_count()`.
    pub fn register_upset_due_at(&self, index: usize, cycle: Cycle) -> Option<SiteRef> {
        match self.faults.get(index) {
            Some(f)
                if f.kind == FaultKind::Transient
                    && f.site.signal.is_register()
                    && cycle == f.start =>
            {
                Some(f.site)
            }
            _ => None,
        }
    }

    /// Records an out-of-band hit (used when a register upset is applied
    /// directly to stored state).
    pub fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// Transforms the wire `value` of `signal` at instance
    /// `(router, port, vc)` during `cycle`.
    ///
    /// The hot path (no fault armed on this router) is a shift
    /// and a mask against `router_mask`, so arming a fault on one router
    /// costs the other 63 nothing.
    #[inline]
    pub fn xf(
        &mut self,
        cycle: Cycle,
        router: u16,
        port: u8,
        vc: u8,
        signal: SignalKind,
        value: u64,
    ) -> u64 {
        if router < 64 && self.router_mask & (1u64 << router) == 0 {
            return value;
        }
        if self.faults.is_empty() {
            return value;
        }
        self.xf_slow(cycle, router, port, vc, signal, value)
    }

    fn xf_slow(
        &mut self,
        cycle: Cycle,
        router: u16,
        port: u8,
        vc: u8,
        signal: SignalKind,
        value: u64,
    ) -> u64 {
        let mut value = value;
        let mut hits = 0u64;
        for f in &self.faults {
            if f.kind == FaultKind::Transient && f.site.signal.is_register() {
                // Register SEUs are applied to the stored value once,
                // not to every read of it.
                continue;
            }
            let s = &f.site;
            if s.router == router
                && s.signal == signal
                && s.port == port
                && s.vc == vc
                && cycle >= f.start
                && f.kind.active_at(cycle - f.start)
            {
                // A hit is only counted when the corrupted level actually
                // differs from the fault-free value (a stuck-at matching
                // the wire is invisible this cycle).
                let faulted = f.kind.apply(value, s.bit);
                if faulted != value {
                    hits += 1;
                }
                value = faulted;
            }
        }
        self.hits += hits;
        value
    }

    /// Boolean-wire convenience wrapper around [`FaultPlane::xf`].
    #[inline]
    pub fn xf_bool(
        &mut self,
        cycle: Cycle,
        router: u16,
        port: u8,
        vc: u8,
        signal: SignalKind,
        value: bool,
    ) -> bool {
        self.xf(cycle, router, port, vc, signal, value as u64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> SiteRef {
        SiteRef {
            router: 3,
            port: 1,
            vc: 2,
            signal: SignalKind::RcOutDir,
            bit: 1,
        }
    }

    #[test]
    fn pass_through_when_disarmed() {
        let mut p = FaultPlane::new();
        assert_eq!(p.xf(0, 3, 1, 2, SignalKind::RcOutDir, 0b101), 0b101);
        assert_eq!(p.hits(), 0);
    }

    #[test]
    fn transient_flips_exactly_once_in_time() {
        let mut p = FaultPlane::new();
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::Transient,
            start: 10,
        });
        // Before start: untouched.
        assert_eq!(p.xf(9, 3, 1, 2, SignalKind::RcOutDir, 0), 0);
        // At start: bit 1 flipped.
        assert_eq!(p.xf(10, 3, 1, 2, SignalKind::RcOutDir, 0), 0b10);
        // After: untouched.
        assert_eq!(p.xf(11, 3, 1, 2, SignalKind::RcOutDir, 0), 0);
        assert_eq!(p.hits(), 1);
    }

    #[test]
    fn permanent_keeps_flipping() {
        let mut p = FaultPlane::new();
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::Permanent,
            start: 5,
        });
        for c in 5..20 {
            assert_eq!(p.xf(c, 3, 1, 2, SignalKind::RcOutDir, 0b100), 0b110);
        }
        assert_eq!(p.hits(), 15);
    }

    #[test]
    fn only_matching_instance_is_hit() {
        let mut p = FaultPlane::new();
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::Permanent,
            start: 0,
        });
        // Wrong router / port / vc / signal — untouched.
        assert_eq!(p.xf(1, 4, 1, 2, SignalKind::RcOutDir, 0), 0);
        assert_eq!(p.xf(1, 3, 0, 2, SignalKind::RcOutDir, 0), 0);
        assert_eq!(p.xf(1, 3, 1, 0, SignalKind::RcOutDir, 0), 0);
        assert_eq!(p.xf(1, 3, 1, 2, SignalKind::RcDestX, 0), 0);
        assert_eq!(p.hits(), 0);
    }

    #[test]
    fn bool_wrapper_flips_bit_zero() {
        let mut p = FaultPlane::new();
        let mut s = site();
        s.bit = 0;
        s.signal = SignalKind::BufRead;
        p.arm(ArmedFault {
            site: s,
            kind: FaultKind::Transient,
            start: 0,
        });
        assert!(p.xf_bool(0, 3, 1, 2, SignalKind::BufRead, false));
        assert!(!p.xf_bool(1, 3, 1, 2, SignalKind::BufRead, false));
    }

    #[test]
    fn stuck_at_one_forces_level_and_counts_visible_hits_only() {
        let mut p = FaultPlane::new();
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::StuckAt1,
            start: 0,
        });
        // Bit 1 already high: no observable corruption, no hit.
        assert_eq!(p.xf(0, 3, 1, 2, SignalKind::RcOutDir, 0b010), 0b010);
        assert_eq!(p.hits(), 0);
        // Bit 1 low: forced high, hit recorded.
        assert_eq!(p.xf(1, 3, 1, 2, SignalKind::RcOutDir, 0b100), 0b110);
        assert_eq!(p.hits(), 1);
    }

    #[test]
    fn stuck_at_zero_forces_level_and_counts_visible_hits_only() {
        let mut p = FaultPlane::new();
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::StuckAt0,
            start: 0,
        });
        assert_eq!(p.xf(0, 3, 1, 2, SignalKind::RcOutDir, 0b101), 0b101);
        assert_eq!(p.hits(), 0);
        assert_eq!(p.xf(1, 3, 1, 2, SignalKind::RcOutDir, 0b111), 0b101);
        assert_eq!(p.hits(), 1);
    }

    #[test]
    fn additional_faults_accumulate_independently() {
        let mut p = FaultPlane::new();
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::StuckAt1,
            start: 0,
        });
        let mut s2 = site();
        s2.router = 7;
        s2.bit = 2;
        p.arm_additional(ArmedFault {
            site: s2,
            kind: FaultKind::StuckAt1,
            start: 0,
        });
        assert_eq!(p.fault_count(), 2);
        assert!(p.router_armed(3));
        assert!(p.router_armed(7));
        assert!(!p.router_armed(5));
        assert_eq!(p.xf(1, 3, 1, 2, SignalKind::RcOutDir, 0), 0b010);
        assert_eq!(p.xf(1, 7, 1, 2, SignalKind::RcOutDir, 0), 0b100);
        assert_eq!(p.hits(), 2);
        // arm() replaces the whole population again.
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::Transient,
            start: 0,
        });
        assert_eq!(p.fault_count(), 1);
        assert!(!p.router_armed(7));
    }

    #[test]
    fn router_mask_tracks_disarm() {
        let mut p = FaultPlane::new();
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::Permanent,
            start: 0,
        });
        assert!(p.router_armed(3));
        p.disarm();
        assert!(!p.router_armed(3));
        // Disarmed plane is pass-through again even for that router.
        assert_eq!(p.xf(1, 3, 1, 2, SignalKind::RcOutDir, 0), 0);
    }

    #[test]
    fn rearm_resets_hits() {
        let mut p = FaultPlane::new();
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::Transient,
            start: 0,
        });
        p.xf(0, 3, 1, 2, SignalKind::RcOutDir, 0);
        assert_eq!(p.hits(), 1);
        p.arm(ArmedFault {
            site: site(),
            kind: FaultKind::Transient,
            start: 5,
        });
        assert_eq!(p.hits(), 0);
    }
}
