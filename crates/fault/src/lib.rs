//! Fault model and injection framework (Section 5.2 / Figure 5).
//!
//! The paper injects **single-bit, single-event transient faults** at the
//! inputs and outputs of every control module of every router — 205
//! locations per interior 5-port router, 11,808 in the 8×8 mesh at their
//! module granularity (our signal catalogue is finer-grained; see
//! EXPERIMENTS.md for the measured counts). This crate provides:
//!
//! * [`FaultSpec`] — one injection: a site, a temporal kind (transient /
//!   permanent / intermittent) and a start cycle;
//! * [`enumerate_sites`] — the exhaustive campaign universe;
//! * [`sample`] — deterministic sub-sampling (stride / seeded random) so
//!   laptop-scale runs sweep a representative subset and `--full` runs the
//!   whole universe;
//! * [`rollout`] — execute one injection from a warmed-up network
//!   snapshot and report whether the network drained and whether the
//!   armed bit ever flipped a live wire.
//!
//! # Example
//!
//! ```
//! use nocalert_fault::{enumerate_sites, rollout, FaultSpec};
//! use noc_sim::{Network, NullObserver};
//! use noc_types::{FaultKind, NocConfig};
//!
//! let cfg = NocConfig::small_test();
//! let sites = enumerate_sites(&cfg);
//! let mut net = Network::new(cfg);
//! net.run(200); // warm up
//! let spec = FaultSpec::transient(sites[0], net.cycle());
//! let outcome = rollout(&mut net, Some(&spec), 300, 5_000, &mut NullObserver);
//! assert!(outcome.drained || !outcome.drained); // campaign classifies this
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use noc_sim::{Network, Observer};
use noc_types::geometry::{Direction, NodeId};
use noc_types::site::{FaultKind, SiteRef};
use noc_types::{Cycle, NocConfig};
use serde::{Deserialize, Serialize};

/// One fault injection: where, how, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The wire bit to corrupt.
    pub site: SiteRef,
    /// Temporal behaviour.
    pub kind: FaultKind,
    /// Injection cycle.
    pub start: Cycle,
}

impl FaultSpec {
    /// Checks the spec for temporal malformations a campaign should
    /// reject up front rather than crash on mid-run.
    ///
    /// # Errors
    ///
    /// Returns [`noc_types::SimError::FaultSpecInvalid`] for an
    /// intermittent fault with a zero period (its activity pattern is
    /// undefined — evaluating it divides by zero), with a zero duty
    /// (never active: a vacuous injection a campaign should reject rather
    /// than silently classify as benign), or with a duty exceeding the
    /// period (equivalent to a permanent fault and almost certainly a
    /// misconfiguration).
    pub fn validate(&self) -> Result<(), noc_types::SimError> {
        if let FaultKind::Intermittent { period, duty } = self.kind {
            let reason = if period == 0 {
                Some("intermittent fault period must be non-zero")
            } else if duty == 0 {
                Some("intermittent fault duty must be non-zero (never active)")
            } else if duty > period {
                Some("intermittent fault duty must not exceed its period")
            } else {
                None
            };
            if let Some(reason) = reason {
                return Err(noc_types::SimError::FaultSpecInvalid {
                    site: self.site,
                    reason,
                });
            }
        }
        Ok(())
    }

    /// Checks the spec against a live network: temporal validity
    /// ([`FaultSpec::validate`]) plus *physical existence* of the site —
    /// the router must be in the mesh, the port must be a live wire of
    /// that router (edge routers have no north-of-north link), the VC and
    /// bit indices must address an instance that exists under the
    /// configuration — and the router must not already be quarantined by
    /// the containment plane. Each rejection is a structured error: a
    /// campaign cell whose fault could never flip a live wire (or whose
    /// alerts containment would discard as stale fallout from an
    /// already-dead router) must fail loudly, not be silently classified
    /// as benign.
    ///
    /// # Errors
    ///
    /// Returns [`noc_types::SimError::SiteOutOfMesh`] or
    /// [`noc_types::SimError::FaultSpecInvalid`] naming the offending
    /// coordinate.
    pub fn validate_in(&self, net: &Network) -> Result<(), noc_types::SimError> {
        self.validate()?;
        let cfg = net.config();
        let routers = cfg.mesh.len() as u16;
        if self.site.router >= routers {
            return Err(noc_types::SimError::SiteOutOfMesh {
                site: self.site,
                routers,
            });
        }
        let node = NodeId(self.site.router);
        let fail = |reason: &'static str| {
            Err(noc_types::SimError::FaultSpecInvalid {
                site: self.site,
                reason,
            })
        };
        let Some(&dir) = Direction::ALL.get(self.site.port as usize) else {
            return fail("site port index exceeds the router's port count");
        };
        if !cfg.mesh.port_live(node, dir) {
            return fail("site targets a dead edge port (no such wire at this router)");
        }
        if self.site.signal.module().per_vc() {
            if self.site.vc >= cfg.vcs_per_port {
                return fail("site VC index exceeds the configured VCs per port");
            }
        } else if self.site.vc != 0 {
            return fail("site addresses a VC of a module that has one instance per port");
        }
        if !noc_sim::live_bits(cfg, node, self.site.port, self.site.signal).contains(&self.site.bit)
        {
            return fail("site bit is not a live wire of the signal at this router");
        }
        if net.router_quarantined(self.site.router) {
            return fail("site router is quarantined (its alerts are stale fallout)");
        }
        Ok(())
    }

    /// A single-event transient at `site`, active during `start` only —
    /// the paper's campaign fault.
    pub fn transient(site: SiteRef, start: Cycle) -> FaultSpec {
        FaultSpec {
            site,
            kind: FaultKind::Transient,
            start,
        }
    }

    /// A stuck-bit permanent fault from `start` onward (Observation 3).
    pub fn permanent(site: SiteRef, start: Cycle) -> FaultSpec {
        FaultSpec {
            site,
            kind: FaultKind::Permanent,
            start,
        }
    }

    /// A classical stuck-at defect: the wire is forced to `level` (0 or 1)
    /// from `start` onward. These are the hard faults the recovery
    /// subsystem (DESIGN.md §11) is built to survive.
    pub fn stuck_at(site: SiteRef, level: bool, start: Cycle) -> FaultSpec {
        FaultSpec {
            site,
            kind: if level {
                FaultKind::StuckAt1
            } else {
                FaultKind::StuckAt0
            },
            start,
        }
    }

    /// An intermittent fault: flipped for the first `duty` cycles of every
    /// `period`-cycle window from `start` onward. Callers should
    /// [`FaultSpec::validate`] the result before running a campaign on it.
    pub fn intermittent(site: SiteRef, period: u32, duty: u32, start: Cycle) -> FaultSpec {
        FaultSpec {
            site,
            kind: FaultKind::Intermittent { period, duty },
            start,
        }
    }
}

/// The exhaustive fault-site universe for a configuration: every bit of
/// every module-boundary wire of every router (dead ports excluded).
pub fn enumerate_sites(cfg: &NocConfig) -> Vec<SiteRef> {
    noc_sim::enumerate_all_sites(cfg)
}

/// Deterministic site sub-sampling for laptop-scale campaigns.
pub mod sample {
    use super::*;

    /// Every `k`-th site, `k = ceil(len / n)` — uniform structural
    /// coverage with at most `n` sites.
    pub fn stride(sites: &[SiteRef], n: usize) -> Vec<SiteRef> {
        if n == 0 || sites.is_empty() {
            return Vec::new();
        }
        if n >= sites.len() {
            return sites.to_vec();
        }
        let k = sites.len().div_ceil(n);
        sites.iter().copied().step_by(k).collect()
    }
}

/// Result of one [`rollout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutOutcome {
    /// The network emptied completely within the drain deadline.
    pub drained: bool,
    /// Times the armed bit flipped a live wire (0 ⇒ the injection was
    /// vacuous: the wire was never evaluated while the fault was active).
    pub fault_hits: u64,
    /// Cycle at which the rollout stopped.
    pub end_cycle: Cycle,
}

/// Executes one injection experiment on `net` (typically a clone of a
/// warmed-up golden snapshot):
///
/// 1. arms `spec` (if any) and runs `active_window` cycles of live traffic,
/// 2. stops packet generation and drains for at most `drain_deadline`
///    cycles,
/// 3. reports drain status and fault-hit count.
///
/// The observer sees every cycle record, injection and ejection — attach
/// the NoCAlert bank / ForEVeR / run logs here.
pub fn rollout<O: Observer>(
    net: &mut Network,
    spec: Option<&FaultSpec>,
    active_window: Cycle,
    drain_deadline: Cycle,
    obs: &mut O,
) -> RolloutOutcome {
    let dog = Watchdog::OFF;
    rollout_watched(net, spec, active_window, drain_deadline, dog, obs).outcome
}

/// Hang-detection policy for [`rollout_watched`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Watchdog {
    /// Hard ceiling on total cycles the rollout may consume (active window
    /// plus drain), regardless of progress. `u64::MAX` disables it.
    pub cycle_budget: Cycle,
    /// During the drain phase, declare a hang once the network's progress
    /// signature (injected/forwarded/ejected counters) has been unchanged
    /// for this many consecutive cycles. Catches true deadlocks long
    /// before the drain deadline; a livelock keeps the counters moving
    /// and falls through to the drain deadline instead.
    pub stall_window: Cycle,
}

impl Watchdog {
    /// No hang detection: rollouts run to their drain deadline.
    pub const OFF: Watchdog = Watchdog {
        cycle_budget: u64::MAX,
        stall_window: u64::MAX,
    };

    /// A generous default: stall detection after 2,000 idle cycles, no
    /// practical cycle ceiling.
    pub fn default_policy() -> Watchdog {
        Watchdog {
            cycle_budget: u64::MAX,
            stall_window: 2_000,
        }
    }

    /// Checks the policy for values a campaign CLI should reject up front.
    ///
    /// A zero cycle budget terminates every rollout before its first
    /// cycle; a zero stall window declares every drain phase hung on its
    /// first check. Both are legal to *construct* (tests use them to
    /// exercise the trip paths deterministically) but are always operator
    /// errors when they arrive via `--cycle-budget` / `--stall-window`.
    ///
    /// # Errors
    ///
    /// Returns [`noc_types::SimError::WatchdogInvalid`] naming the
    /// offending threshold.
    pub fn validate(&self) -> Result<(), noc_types::SimError> {
        if self.cycle_budget == 0 {
            return Err(noc_types::SimError::WatchdogInvalid {
                reason: "cycle budget must be non-zero",
            });
        }
        if self.stall_window == 0 {
            return Err(noc_types::SimError::WatchdogInvalid {
                reason: "drain stall window must be non-zero",
            });
        }
        Ok(())
    }
}

/// Why the watchdog terminated a rollout early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HangKind {
    /// The total cycle budget was exhausted.
    CycleBudget,
    /// No flit moved anywhere for the watchdog's stall window during
    /// drain — a wedged network (deadlock or total loss of liveness).
    NoProgress,
}

/// A watchdog trip: what fired and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hang {
    /// Which criterion fired.
    pub kind: HangKind,
    /// Cycle at which the rollout was terminated.
    pub at_cycle: Cycle,
    /// Consecutive progress-free cycles observed at termination (only
    /// meaningful for [`HangKind::NoProgress`]).
    pub stalled_for: Cycle,
}

/// Result of one [`rollout_watched`]: the ordinary outcome plus an
/// optional watchdog trip. When `hang` is `Some`, `outcome.drained` is
/// `false` and the observer saw every cycle up to the termination point,
/// so oracle comparison still works on the truncated log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchedOutcome {
    /// Drain status, fault hits and end cycle, as from [`rollout`].
    pub outcome: RolloutOutcome,
    /// The watchdog trip, if one terminated the rollout early.
    pub hang: Option<Hang>,
}

/// [`rollout`] under a [`Watchdog`]: identical semantics on healthy runs
/// (bit-identical outcome and observer stream), deterministic early
/// termination on hung ones.
///
/// The active window always runs to completion (traffic is still being
/// generated, so "no progress" is not meaningful there beyond the cycle
/// budget); stall detection applies to the drain phase, where a healthy
/// network must keep moving flits until empty.
pub fn rollout_watched<O: Observer>(
    net: &mut Network,
    spec: Option<&FaultSpec>,
    active_window: Cycle,
    drain_deadline: Cycle,
    dog: Watchdog,
    obs: &mut O,
) -> WatchedOutcome {
    if let Some(s) = spec {
        net.arm_fault(s.site, s.kind, s.start);
    } else {
        net.disarm_fault();
    }
    let start = net.cycle();
    let budget_end = start.saturating_add(dog.cycle_budget);
    let mut hang = None;

    for _ in 0..active_window {
        if net.cycle() >= budget_end {
            hang = Some(Hang {
                kind: HangKind::CycleBudget,
                at_cycle: net.cycle(),
                stalled_for: 0,
            });
            break;
        }
        net.step_observed(obs);
    }

    let mut drained = false;
    if hang.is_none() {
        (drained, hang) = drain_watched(net, drain_deadline, budget_end, dog.stall_window, obs);
    }

    WatchedOutcome {
        outcome: RolloutOutcome {
            drained,
            fault_hits: net.fault_hits(),
            end_cycle: net.cycle(),
        },
        hang,
    }
}

/// Counts consecutive progress-free cycles: cycles after which the
/// network's progress signature (injected/forwarded/ejected counters) is
/// unchanged. The one hang criterion every watched drain shares.
#[derive(Debug, Clone, Copy)]
pub struct StallMeter {
    sig: (u64, u64, u64),
    stalled: Cycle,
}

impl StallMeter {
    /// A meter starting from `net`'s current signature, with no stall.
    pub fn new(net: &Network) -> StallMeter {
        StallMeter {
            sig: net.progress_signature(),
            stalled: 0,
        }
    }

    /// Records one stepped cycle and returns the updated stall count.
    pub fn observe(&mut self, net: &Network) -> Cycle {
        let now = net.progress_signature();
        if now == self.sig {
            self.stalled += 1;
        } else {
            self.sig = now;
            self.stalled = 0;
        }
        self.stalled
    }

    /// Consecutive progress-free cycles so far.
    pub fn stalled(&self) -> Cycle {
        self.stalled
    }
}

/// The drain phase of [`rollout_watched`]: stops traffic generation and
/// steps until the network drains, `drain_deadline` cycles pass (a plain
/// deadline expiry, not a hang), the absolute cycle `budget_end` is
/// reached, or nothing moves for `stall_window` cycles. Returns whether
/// the network drained and the watchdog trip, if any.
pub fn drain_watched<O: Observer>(
    net: &mut Network,
    drain_deadline: Cycle,
    budget_end: Cycle,
    stall_window: Cycle,
    obs: &mut O,
) -> (bool, Option<Hang>) {
    net.set_injection_enabled(false);
    let drain_end = net.cycle() + drain_deadline;
    let mut meter = StallMeter::new(net);
    loop {
        if net.is_drained() {
            return (true, None);
        }
        if net.cycle() >= drain_end {
            return (false, None);
        }
        let trip = if net.cycle() >= budget_end {
            Some(HangKind::CycleBudget)
        } else if meter.stalled() >= stall_window {
            Some(HangKind::NoProgress)
        } else {
            None
        };
        if let Some(kind) = trip {
            let hang = Hang {
                kind,
                at_cycle: net.cycle(),
                stalled_for: meter.stalled(),
            };
            return (false, Some(hang));
        }
        net.step_observed(obs);
        meter.observe(net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::NullObserver;

    #[test]
    fn universe_is_nonempty_and_unique() {
        let cfg = NocConfig::small_test();
        let sites = enumerate_sites(&cfg);
        assert!(sites.len() > 1_000, "got {}", sites.len());
        let mut dedup = sites.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sites.len());
    }

    #[test]
    fn stride_sampling_bounds_and_coverage() {
        let cfg = NocConfig::small_test();
        let sites = enumerate_sites(&cfg);
        let s = sample::stride(&sites, 100);
        assert!(s.len() <= 100 && s.len() > 80);
        // First and (near-)last structural regions are represented.
        assert_eq!(s[0], sites[0]);
        assert!(s.last().unwrap().router >= sites.last().unwrap().router / 2);
        assert!(sample::stride(&sites, 0).is_empty());
        assert_eq!(sample::stride(&sites, usize::MAX).len(), sites.len());
    }

    #[test]
    fn validate_in_accepts_every_enumerated_site() {
        let cfg = NocConfig::small_test();
        let net = Network::new(cfg.clone());
        // The enumeration universe is, by construction, exactly the set of
        // live wires — every member must pass the existence check.
        for site in enumerate_sites(&cfg) {
            FaultSpec::transient(site, 10)
                .validate_in(&net)
                .expect("enumerated site must validate");
        }
    }

    #[test]
    fn validate_in_rejects_phantom_sites() {
        use noc_types::SimError;
        let cfg = NocConfig::small_test();
        let net = Network::new(cfg.clone());
        let sites = enumerate_sites(&cfg);
        let good = sites[0];

        let mut off_mesh = good;
        off_mesh.router = cfg.mesh.len() as u16;
        assert!(matches!(
            FaultSpec::transient(off_mesh, 10).validate_in(&net),
            Err(SimError::SiteOutOfMesh { routers: 16, .. })
        ));

        let mut no_such_port = good;
        no_such_port.port = Direction::ALL.len() as u8;
        assert!(matches!(
            FaultSpec::transient(no_such_port, 10).validate_in(&net),
            Err(SimError::FaultSpecInvalid { reason, .. })
                if reason.contains("port index")
        ));

        // Router 0 is a corner: at least one cardinal port is off-mesh.
        let dead = Direction::ALL
            .iter()
            .position(|&d| !cfg.mesh.port_live(NodeId(0), d))
            .expect("corner router has a dead port") as u8;
        let mut edge = good;
        edge.router = 0;
        edge.port = dead;
        assert!(matches!(
            FaultSpec::transient(edge, 10).validate_in(&net),
            Err(SimError::FaultSpecInvalid { reason, .. })
                if reason.contains("dead edge port")
        ));

        let per_vc = *sites
            .iter()
            .find(|s| s.signal.module().per_vc())
            .expect("some per-VC site exists");
        let mut high_vc = per_vc;
        high_vc.vc = cfg.vcs_per_port;
        assert!(matches!(
            FaultSpec::transient(high_vc, 10).validate_in(&net),
            Err(SimError::FaultSpecInvalid { reason, .. })
                if reason.contains("VC index")
        ));

        let shared = *sites
            .iter()
            .find(|s| !s.signal.module().per_vc())
            .expect("some per-port site exists");
        let mut ghost_vc = shared;
        ghost_vc.vc = 1;
        assert!(matches!(
            FaultSpec::transient(ghost_vc, 10).validate_in(&net),
            Err(SimError::FaultSpecInvalid { reason, .. })
                if reason.contains("one instance per port")
        ));

        let mut wide_bit = good;
        wide_bit.bit = 200;
        assert!(matches!(
            FaultSpec::transient(wide_bit, 10).validate_in(&net),
            Err(SimError::FaultSpecInvalid { reason, .. })
                if reason.contains("live wire")
        ));
    }

    #[test]
    fn validate_in_rejects_quarantined_routers() {
        use noc_types::SimError;
        let cfg = NocConfig::small_test();
        let sites = enumerate_sites(&cfg);
        let site = sites[0];

        let mut net = Network::new(cfg);
        net.enable_recovery(noc_sim::RecoveryPolicy::default_policy());
        FaultSpec::transient(site, 10)
            .validate_in(&net)
            .expect("site is valid before quarantine");
        while !net.router_quarantined(site.router) {
            net.note_suspicion(site.router);
        }
        assert!(matches!(
            FaultSpec::transient(site, 10).validate_in(&net),
            Err(SimError::FaultSpecInvalid { reason, .. })
                if reason.contains("quarantined")
        ));
    }

    #[test]
    fn faultless_rollout_drains() {
        let mut net = Network::new(NocConfig::small_test());
        net.run(500);
        let out = rollout(&mut net, None, 200, 10_000, &mut NullObserver);
        assert!(out.drained);
        assert_eq!(out.fault_hits, 0);
    }

    #[test]
    fn armed_rollout_counts_hits_on_hot_wire() {
        let cfg = NocConfig::small_test();
        let mut net = Network::new(cfg.clone());
        net.run(500);
        // Sa1Req of a live port is evaluated every cycle: a permanent
        // fault must hit immediately.
        let site = SiteRef {
            router: 5,
            port: 4,
            vc: 0,
            signal: noc_types::site::SignalKind::Sa1Req,
            bit: 0,
        };
        let spec = FaultSpec::permanent(site, net.cycle());
        let out = rollout(&mut net, Some(&spec), 100, 20_000, &mut NullObserver);
        assert!(out.fault_hits >= 100, "hits {}", out.fault_hits);
    }

    #[test]
    fn transient_rollout_hits_at_most_per_cycle_evaluations() {
        let cfg = NocConfig::small_test();
        let mut net = Network::new(cfg.clone());
        net.run(300);
        let site = SiteRef {
            router: 0,
            port: 4,
            vc: 0,
            signal: noc_types::site::SignalKind::Sa1Req,
            bit: 0,
        };
        let spec = FaultSpec::transient(site, net.cycle());
        let out = rollout(&mut net, Some(&spec), 50, 20_000, &mut NullObserver);
        assert_eq!(out.fault_hits, 1, "Sa1Req evaluated once per cycle");
    }

    #[test]
    fn validate_rejects_zero_period_intermittent() {
        let site = SiteRef {
            router: 0,
            port: 0,
            vc: 0,
            signal: noc_types::site::SignalKind::Sa1Req,
            bit: 0,
        };
        let good = FaultSpec {
            site,
            kind: noc_types::site::FaultKind::Intermittent {
                period: 10,
                duty: 3,
            },
            start: 0,
        };
        assert!(good.validate().is_ok());
        let bad = FaultSpec {
            kind: noc_types::site::FaultKind::Intermittent { period: 0, duty: 1 },
            ..good
        };
        assert!(matches!(
            bad.validate(),
            Err(noc_types::SimError::FaultSpecInvalid { .. })
        ));
    }

    #[test]
    fn validate_rejects_degenerate_intermittent_duties() {
        let site = SiteRef {
            router: 0,
            port: 0,
            vc: 0,
            signal: noc_types::site::SignalKind::Sa1Req,
            bit: 0,
        };
        let never = FaultSpec::intermittent(site, 10, 0, 0);
        assert!(matches!(
            never.validate(),
            Err(noc_types::SimError::FaultSpecInvalid { .. })
        ));
        let over = FaultSpec::intermittent(site, 4, 5, 0);
        assert!(matches!(
            over.validate(),
            Err(noc_types::SimError::FaultSpecInvalid { .. })
        ));
        assert!(FaultSpec::intermittent(site, 4, 4, 0).validate().is_ok());
    }

    #[test]
    fn stuck_at_constructor_maps_level_to_kind() {
        let site = SiteRef {
            router: 1,
            port: 0,
            vc: 0,
            signal: noc_types::site::SignalKind::RcOutDir,
            bit: 1,
        };
        assert_eq!(
            FaultSpec::stuck_at(site, false, 7).kind,
            FaultKind::StuckAt0
        );
        assert_eq!(FaultSpec::stuck_at(site, true, 7).kind, FaultKind::StuckAt1);
        assert!(FaultSpec::stuck_at(site, true, 7).validate().is_ok());
    }

    #[test]
    fn watchdog_validate_rejects_zero_thresholds() {
        assert!(Watchdog::default_policy().validate().is_ok());
        let no_budget = Watchdog {
            cycle_budget: 0,
            stall_window: 100,
        };
        assert!(matches!(
            no_budget.validate(),
            Err(noc_types::SimError::WatchdogInvalid { .. })
        ));
        let no_window = Watchdog {
            cycle_budget: 100,
            stall_window: 0,
        };
        assert!(matches!(
            no_window.validate(),
            Err(noc_types::SimError::WatchdogInvalid { .. })
        ));
    }

    #[test]
    fn watched_healthy_run_matches_plain_rollout() {
        let cfg = NocConfig::small_test();
        let mut net = Network::new(cfg);
        net.run(500);
        let mut plain_net = net.clone();
        let plain = rollout(&mut plain_net, None, 200, 10_000, &mut NullObserver);
        let watched = rollout_watched(
            &mut net,
            None,
            200,
            10_000,
            Watchdog::default_policy(),
            &mut NullObserver,
        );
        assert!(watched.hang.is_none());
        assert_eq!(watched.outcome, plain);
        assert_eq!(net.cycle(), plain_net.cycle());
    }

    #[test]
    fn cycle_budget_trips_during_active_window() {
        let mut net = Network::new(NocConfig::small_test());
        net.run(100);
        let start = net.cycle();
        let dog = Watchdog {
            cycle_budget: 10,
            stall_window: u64::MAX,
        };
        let watched = rollout_watched(&mut net, None, 200, 10_000, dog, &mut NullObserver);
        let hang = watched.hang.expect("budget below active window must trip");
        assert_eq!(hang.kind, HangKind::CycleBudget);
        assert_eq!(hang.at_cycle, start + 10);
        assert!(!watched.outcome.drained);
    }

    #[test]
    fn zero_stall_window_trips_no_progress_at_drain_start() {
        // A zero stall window trips on the first drain-phase check while
        // flits are still in flight — deterministic coverage of the
        // NoProgress path without needing a genuinely wedged network.
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.20;
        let mut net = Network::new(cfg);
        net.run(300);
        let dog = Watchdog {
            cycle_budget: u64::MAX,
            stall_window: 0,
        };
        let watched = rollout_watched(&mut net, None, 200, 10_000, dog, &mut NullObserver);
        let hang = watched
            .hang
            .expect("in-flight traffic plus zero window must trip");
        assert_eq!(hang.kind, HangKind::NoProgress);
        assert_eq!(hang.stalled_for, 0);
        assert!(!watched.outcome.drained);
    }
}
