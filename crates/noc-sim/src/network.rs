//! The network: a mesh of routers, the links between them, and the NIs.
//!
//! [`Network::step_observed`] advances one global cycle in two phases:
//!
//! 1. **Router phase** — every router evaluates its pipeline (reverse stage
//!    order, see `router`), consuming the link registers filled last cycle
//!    and staging this cycle's link outputs and credit returns. After each
//!    router, its [`CycleRecord`] is handed to the observer — this is where
//!    NoCAlert checkers, the ForEVeR Allocation Comparator and tracing hook
//!    in.
//! 2. **Transport phase** — NIs drain their ejection buffers (observer sees
//!    [`EjectEvent`]s), staged flits and credits move across the links into
//!    the neighbours' registers, and NIs generate/inject new traffic
//!    (observer sees injections).
//!
//! The whole network is `Clone`: the fault campaign snapshots a warmed-up
//! network once and rolls each injection out from the copy, which is what
//! makes the paper-scale sweep tractable.

use crate::adversary::{Adversary, AttackIntent, AttackStats};
use crate::fault_plane::{ArmedFault, FaultPlane};
use crate::fault_region::FaultRegionMap;
use crate::nic::Nic;
use crate::recovery::{
    ContainmentEvent, ContainmentLevel, RecoveryController, RecoveryPolicy, RecoveryStats,
};
use crate::router::{CreditMsg, Router, RouterScratch, P};
use noc_types::config::{NocConfig, RoutingAlgorithm};
use noc_types::flit::make_packet;
use noc_types::geometry::{Direction, NodeId};
use noc_types::record::{CycleRecord, EjectEvent};
use noc_types::site::{FaultKind, SiteRef};
use noc_types::{AttackSpec, Cycle, Flit, PacketId, SimError};
use std::collections::BTreeSet;

/// Receives everything observable that happens during simulation.
///
/// All methods default to no-ops so observers implement only what they
/// need. Compose observers with tuples: `(&mut checkers, &mut log)`.
pub trait Observer {
    /// One router finished its cycle; `rec` is reused storage — copy what
    /// you need.
    fn on_cycle_record(&mut self, cycle: Cycle, rec: &CycleRecord) {
        let _ = (cycle, rec);
    }
    /// A flit was handed by an NI to its router's local input port.
    fn on_inject(&mut self, cycle: Cycle, flit: &Flit) {
        let _ = (cycle, flit);
    }
    /// A flit was delivered to an NI.
    fn on_eject(&mut self, ev: &EjectEvent) {
        let _ = ev;
    }
    /// The network proposes to skip `n` fully quiescent cycles starting at
    /// `cycle` (no router activity, no injections, no ejections — every
    /// per-cycle record would be empty). This is a **pure query**: return
    /// `true` iff observing those `n` empty cycles would leave this
    /// observer bit-identical to its current state, so the network may
    /// fast-forward past them. Implementations must not mutate state —
    /// the skip only happens when *every* composed observer accepts, and
    /// a refusal elsewhere falls back to cycle-by-cycle stepping. The
    /// default refuses, which is correct for any observer.
    fn on_quiescent_cycles(&self, cycle: Cycle, n: u64) -> bool {
        let _ = (cycle, n);
        false
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_quiescent_cycles(&self, _cycle: Cycle, _n: u64) -> bool {
        true
    }
}

impl<T: Observer + ?Sized> Observer for &mut T {
    fn on_cycle_record(&mut self, cycle: Cycle, rec: &CycleRecord) {
        (**self).on_cycle_record(cycle, rec);
    }
    fn on_inject(&mut self, cycle: Cycle, flit: &Flit) {
        (**self).on_inject(cycle, flit);
    }
    fn on_eject(&mut self, ev: &EjectEvent) {
        (**self).on_eject(ev);
    }
    fn on_quiescent_cycles(&self, cycle: Cycle, n: u64) -> bool {
        (**self).on_quiescent_cycles(cycle, n)
    }
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    fn on_cycle_record(&mut self, cycle: Cycle, rec: &CycleRecord) {
        self.0.on_cycle_record(cycle, rec);
        self.1.on_cycle_record(cycle, rec);
    }
    fn on_inject(&mut self, cycle: Cycle, flit: &Flit) {
        self.0.on_inject(cycle, flit);
        self.1.on_inject(cycle, flit);
    }
    fn on_eject(&mut self, ev: &EjectEvent) {
        self.0.on_eject(ev);
        self.1.on_eject(ev);
    }
    fn on_quiescent_cycles(&self, cycle: Cycle, n: u64) -> bool {
        self.0.on_quiescent_cycles(cycle, n) && self.1.on_quiescent_cycles(cycle, n)
    }
}

impl<A: Observer, B: Observer, C: Observer> Observer for (A, B, C) {
    fn on_cycle_record(&mut self, cycle: Cycle, rec: &CycleRecord) {
        self.0.on_cycle_record(cycle, rec);
        self.1.on_cycle_record(cycle, rec);
        self.2.on_cycle_record(cycle, rec);
    }
    fn on_inject(&mut self, cycle: Cycle, flit: &Flit) {
        self.0.on_inject(cycle, flit);
        self.1.on_inject(cycle, flit);
        self.2.on_inject(cycle, flit);
    }
    fn on_eject(&mut self, ev: &EjectEvent) {
        self.0.on_eject(ev);
        self.1.on_eject(ev);
        self.2.on_eject(ev);
    }
    fn on_quiescent_cycles(&self, cycle: Cycle, n: u64) -> bool {
        self.0.on_quiescent_cycles(cycle, n)
            && self.1.on_quiescent_cycles(cycle, n)
            && self.2.on_quiescent_cycles(cycle, n)
    }
}

/// Aggregate counters maintained by the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Flits handed to routers by NIs.
    pub injected_flits: u64,
    /// Flits delivered to NIs.
    pub ejected_flits: u64,
    /// Flits moved across a link or into an ejection buffer — unlike
    /// `in_flight`, this counter changes on every hop, so it distinguishes
    /// a genuinely wedged network from one whose population is merely
    /// constant (the watchdog's progress signal).
    pub forwarded_flits: u64,
    /// Sum of per-flit latencies (eject cycle − inject-generation cycle).
    pub latency_sum: u64,
}

impl NetStats {
    /// Mean flit latency in cycles, or 0 when nothing ejected.
    pub fn mean_latency(&self) -> f64 {
        if self.ejected_flits == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.ejected_flits as f64
        }
    }
}

/// Per-VC progress sample of the worm-age monitor: the head-flit uid last
/// seen in the VC's buffer and how many consecutive cycles it has sat
/// there unmoved. The default (`uid: 0`) never matches a live flit — uid 0
/// is reserved for the fabricated null flit — so the first observation of
/// any worm starts a fresh count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WormWatch {
    uid: u64,
    age: Cycle,
}

/// Containment machinery attached to a network when recovery is enabled:
/// one controller per router, the queued alert targets, and the action
/// trace/stats the campaign reports.
#[derive(Debug, Clone)]
struct RecoveryState {
    policy: RecoveryPolicy,
    controllers: Vec<RecoveryController>,
    /// Input-side targets `(router, port, vc)` queued for the next cycle.
    pending: Vec<(u16, u8, u8)>,
    /// Worm-age monitor state, one slot per input VC, indexed
    /// `(router * P + port) * vcs + vc`.
    ages: Vec<WormWatch>,
    trace: Vec<ContainmentEvent>,
    stats: RecoveryStats,
}

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    cfg: NocConfig,
    cycle: Cycle,
    routers: Vec<Router>,
    nics: Vec<Nic>,
    plane: FaultPlane,
    scratch: RouterScratch,
    record: CycleRecord,
    next_packet: u64,
    next_uid: u64,
    injection_enabled: bool,
    stats: NetStats,
    recovery: Option<RecoveryState>,
    /// The fault-region map, present iff `RoutingAlgorithm::FaultRegion`
    /// is configured. Containment escalation feeds dead links into it;
    /// `sync_region` pushes its routing tables down into the routers and
    /// its reachability gates into the NIs.
    region: Option<FaultRegionMap>,
    /// Set when containment damaged the region map this cycle; cleared by
    /// the resync at the end of `apply_recovery`.
    region_dirty: bool,
    /// Reused per-cycle transport scratch (ejection events/credits and
    /// credit forwarding) so the steady-state step loop never allocates.
    eject_events: Vec<EjectEvent>,
    eject_credits: Vec<CreditMsg>,
    credit_scratch: Vec<CreditMsg>,
    /// The adversarial plane: at most one compromised router whose output
    /// links are manipulated during phase 2b, *after* the checkers
    /// observed the cycle. `None` in every fault-only campaign.
    attacker: Option<Adversary>,
}

// Manual impl so `clone_from` (the arena reset path) rewinds a used
// network to the warm snapshot while reusing every router/NIC allocation.
// Every field is restored, so the result is indistinguishable from a fresh
// `clone()` no matter what state the previous run left behind.
impl Clone for Network {
    fn clone(&self) -> Network {
        Network {
            cfg: self.cfg.clone(),
            cycle: self.cycle,
            routers: self.routers.clone(),
            nics: self.nics.clone(),
            plane: self.plane.clone(),
            scratch: self.scratch.clone(),
            record: self.record.clone(),
            next_packet: self.next_packet,
            next_uid: self.next_uid,
            injection_enabled: self.injection_enabled,
            stats: self.stats,
            recovery: self.recovery.clone(),
            region: self.region.clone(),
            region_dirty: self.region_dirty,
            eject_events: self.eject_events.clone(),
            eject_credits: self.eject_credits.clone(),
            credit_scratch: self.credit_scratch.clone(),
            attacker: self.attacker.clone(),
        }
    }

    fn clone_from(&mut self, src: &Network) {
        self.cfg.clone_from(&src.cfg);
        self.cycle = src.cycle;
        self.routers.clone_from(&src.routers);
        self.nics.clone_from(&src.nics);
        self.plane = src.plane.clone();
        self.scratch.clone_from(&src.scratch);
        self.record.clone_from(&src.record);
        self.next_packet = src.next_packet;
        self.next_uid = src.next_uid;
        self.injection_enabled = src.injection_enabled;
        self.stats = src.stats;
        self.recovery.clone_from(&src.recovery);
        self.region.clone_from(&src.region);
        self.region_dirty = src.region_dirty;
        self.eject_events.clone_from(&src.eject_events);
        self.eject_credits.clone_from(&src.eject_credits);
        self.credit_scratch.clone_from(&src.credit_scratch);
        self.attacker.clone_from(&src.attacker);
    }
}

impl Network {
    /// Builds a network from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails — constructing a simulator from an
    /// inconsistent configuration is a programming error.
    #[expect(
        clippy::panic,
        reason = "constructor contract, documented under `# Panics`"
    )]
    pub fn new(cfg: NocConfig) -> Network {
        match Network::try_new(cfg) {
            Ok(net) => net,
            Err(e) => panic!("invalid NocConfig: {e}"),
        }
    }

    /// Builds a network, returning a structured [`SimError`] instead of
    /// panicking when the configuration is inconsistent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when `cfg.validate()` fails.
    pub fn try_new(cfg: NocConfig) -> Result<Network, noc_types::SimError> {
        cfg.validate()?;
        let n = cfg.mesh.len() as u16;
        Ok(Network {
            routers: (0..n).map(|i| Router::new(&cfg, i)).collect(),
            nics: (0..n).map(|i| Nic::new(&cfg, NodeId(i))).collect(),
            plane: FaultPlane::new(),
            scratch: RouterScratch::default(),
            record: CycleRecord::default(),
            next_packet: 0,
            // uid 0 is reserved for the fabricated null flit.
            next_uid: 1,
            cycle: 0,
            injection_enabled: true,
            stats: NetStats::default(),
            recovery: None,
            region: (cfg.routing == RoutingAlgorithm::FaultRegion)
                .then(|| FaultRegionMap::new(cfg.mesh)),
            region_dirty: false,
            eject_events: Vec::new(),
            eject_credits: Vec::new(),
            credit_scratch: Vec::new(),
            attacker: None,
            cfg,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Current cycle (number of completed steps).
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// A signature that changes whenever any flit moves anywhere —
    /// injection, a link hop, or an ejection. Two equal signatures some
    /// cycles apart mean the network made no forward progress in between
    /// (the deadlock watchdog's criterion); note a livelocked network
    /// keeps forwarding and therefore keeps changing its signature.
    pub fn progress_signature(&self) -> (u64, u64, u64) {
        (
            self.stats.injected_flits,
            self.stats.forwarded_flits,
            self.stats.ejected_flits,
        )
    }

    /// Enables/disables *generation* of new packets. Packets already queued
    /// keep draining, which is how campaigns stop traffic and drain.
    pub fn set_injection_enabled(&mut self, enabled: bool) {
        self.injection_enabled = enabled;
    }

    /// Arms a single-bit fault (replacing any armed one).
    pub fn arm_fault(&mut self, site: SiteRef, kind: FaultKind, start: Cycle) {
        self.plane.arm(ArmedFault { site, kind, start });
    }

    /// Arms a single-bit fault *on top of* the existing population —
    /// the aging campaign's accumulating-permanent entry point.
    pub fn arm_extra_fault(&mut self, site: SiteRef, kind: FaultKind, start: Cycle) {
        self.plane.arm_additional(ArmedFault { site, kind, start });
    }

    /// The fault-region map, when `RoutingAlgorithm::FaultRegion` is
    /// configured (read-only; the network owns all mutation).
    pub fn fault_region_map(&self) -> Option<&FaultRegionMap> {
        self.region.as_ref()
    }

    /// Reports `router` faulty to the fault-region map (all traffic is
    /// steered around it, its NI stops generating) and resynchronizes
    /// routing state. No-op unless `RoutingAlgorithm::FaultRegion` is
    /// configured.
    pub fn quarantine_router(&mut self, router: u16) {
        let newly = self
            .region
            .as_mut()
            .is_some_and(|m| m.mark_router_faulty(NodeId(router)));
        if newly {
            self.sync_region();
        }
    }

    /// Arms the adversarial plane: `router` becomes compromised and
    /// manipulates its output links per `spec` (replacing any armed
    /// attacker). The spec is validated against the configuration, and a
    /// router the containment plane has already taken out of service —
    /// absorbed into a fault region or escalated to malicious — is
    /// rejected: a dead router forwards nothing and cannot attack, so a
    /// campaign cell targeting one would silently measure nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AttackSpecInvalid`] for nonexistent or
    /// quarantined routers and degenerate behavioural parameters.
    pub fn arm_attack(&mut self, spec: &AttackSpec) -> Result<(), SimError> {
        spec.validate(&self.cfg)?;
        if self.router_quarantined(spec.router) {
            return Err(SimError::AttackSpecInvalid {
                router: spec.router,
                reason: "compromised router is already quarantined",
            });
        }
        self.attacker = Some(Adversary::new(*spec, self.cfg.vcs_per_port));
        Ok(())
    }

    /// Interference counters of the armed attacker (zeros when none).
    pub fn attack_stats(&self) -> AttackStats {
        self.attacker
            .as_ref()
            .map(Adversary::stats)
            .unwrap_or_default()
    }

    /// Drains the attacker's queued out-of-band actions (forged controls,
    /// replays, fabricated alerts). The attack harness executes them
    /// through public APIs so fabricated traffic physically originates at
    /// the attacker's node. Empty when no attacker is armed.
    pub fn drain_attack_intents(&mut self) -> Vec<AttackIntent> {
        self.attacker
            .as_mut()
            .map(Adversary::take_intents)
            .unwrap_or_default()
    }

    /// Tells the armed attacker that `pid` was just fabricated on its
    /// behalf (a forged control or replay injected at its node), so its
    /// egress filter lets the worm leave untouched instead of re-applying
    /// the drop/corrupt/capture rules to its own forgery. No-op when no
    /// attacker is armed.
    pub fn mark_attack_injection(&mut self, pid: PacketId) {
        if let Some(adv) = self.attacker.as_mut() {
            adv.mark_own(pid);
        }
    }

    /// True when `router` is administratively out of service: absorbed
    /// into a fault region, or escalated to malicious by suspicion
    /// scoring.
    pub fn router_quarantined(&self, router: u16) -> bool {
        self.region
            .as_ref()
            .is_some_and(|m| m.absorbed(NodeId(router)))
            || self.router_malicious(router)
    }

    /// True once `router` has been escalated from faulty to malicious.
    pub fn router_malicious(&self, router: u16) -> bool {
        self.recovery.as_ref().is_some_and(|rs| {
            rs.controllers
                .get(router as usize)
                .is_some_and(RecoveryController::is_malicious)
        })
    }

    /// Scores one piece of protocol-level forgery evidence (a spoofed
    /// control packet the transport attributed to `router` by its
    /// physical wire source) against that router's suspicion counter.
    /// Crossing the policy's malice threshold escalates the router to
    /// malicious and quarantines it whole — returns `true` exactly at
    /// that crossing. No-op (false) when recovery is disabled.
    pub fn note_suspicion(&mut self, router: u16) -> bool {
        let crossed = {
            let Some(rs) = self.recovery.as_mut() else {
                return false;
            };
            if router as usize >= rs.controllers.len() {
                return false;
            }
            let policy = rs.policy;
            rs.stats.suspicions_noted += 1;
            let crossed = rs.controllers[router as usize].note_suspicion(&policy);
            if crossed {
                rs.stats.routers_marked_malicious += 1;
            }
            crossed
        };
        if crossed {
            self.quarantine_router(router);
        }
        crossed
    }

    /// Administratively severs the mesh link at `router` toward `dir`:
    /// fences the facing output ports on both sides and records the dead
    /// link in the fault-region map (when active), resynchronizing the
    /// routing tables. Returns `false` when there is no such link. Used by
    /// survivability tests and the aging campaign's targeted-cut epochs.
    pub fn sever_link(&mut self, router: u16, dir: Direction) -> bool {
        if router as usize >= self.routers.len() {
            return false;
        }
        let Some(nb) = self.cfg.mesh.neighbor(NodeId(router), dir) else {
            return false;
        };
        self.routers[router as usize].set_avoid(dir.index() as u8, true);
        self.routers[nb.index()].set_avoid(dir.opposite().index() as u8, true);
        let newly = self
            .region
            .as_mut()
            .is_some_and(|m| m.kill_link(NodeId(router), dir));
        if newly {
            self.sync_region();
        }
        true
    }

    /// Disarms the fault plane.
    pub fn disarm_fault(&mut self) {
        self.plane.disarm();
    }

    /// How many times the armed fault actually flipped a live wire.
    pub fn fault_hits(&self) -> u64 {
        self.plane.hits()
    }

    /// A router (by node index), for inspection.
    pub fn router(&self, id: u16) -> &Router {
        &self.routers[id as usize]
    }

    /// An NI (by node index), for inspection.
    pub fn nic(&self, id: u16) -> &Nic {
        &self.nics[id as usize]
    }

    /// Flits currently inside routers, on links, or in ejection buffers.
    pub fn in_flight(&self) -> usize {
        self.routers
            .iter()
            .map(|r| r.buffered_flits())
            .sum::<usize>()
            + self.nics.iter().map(|n| n.eject_backlog()).sum::<usize>()
    }

    /// Flits not yet handed to the network (NI source queues).
    pub fn source_backlog(&self) -> usize {
        self.nics.iter().map(|n| n.source_backlog()).sum()
    }

    /// True when no flit exists anywhere: all traffic delivered (or lost…).
    pub fn is_drained(&self) -> bool {
        self.source_backlog() == 0
            && self.routers.iter().all(Router::is_empty)
            && self.nics.iter().all(|n| n.eject_backlog() == 0)
    }

    /// Resync equality: two networks for which this holds produce the
    /// same events and the same future (up to what this leaves out) when
    /// stepped identically, provided both fault planes are inert, which
    /// it checks.
    ///
    /// The rule: a field is compared unless an inert-plane step of a
    /// golden-reachable network provably never reads it and no observer
    /// reads its visible copy on a cycle record. The induction:
    ///
    /// 1. Fault-free (golden) states satisfy the consistency invariants:
    ///    a `ROUTING` VC has a head flit at its FIFO head, and a latched
    ///    SA read points at a non-empty VC. Both are predicates on
    ///    compared state, so a lane equal to a golden state satisfies
    ///    them too. And under an inert plane every wire carries its
    ///    fault-free value: an RC or VA event comes with its result, an
    ///    SA1 grant goes to a requesting VC, a VA2 grant has its
    ///    candidate, and a write-enable has its arrival.
    /// 2. Under an inert plane, stepping a consistent state reads none of
    ///    the dropped fields: a VC buffer's ring offset and stale slots
    ///    (only `read_stale` of an empty FIFO reads them), the latched
    ///    `out_port` below `VA_PENDING` and `out_vc` below `ACTIVE` (see
    ///    `VirtualChannel::state_eq` for speculative bids), the result buses
    ///    and link-data registers of each router, and the output ports'
    ///    `owner` (containment only). So both networks step to equal
    ///    compared state and emit the same injections and ejections.
    /// 3. The cycle records may still differ in the visible copies of
    ///    dropped fields: a [`VcEvent`](noc_types::record::VcEvent)'s
    ///    `head_kind` of an empty VC, and its `out_port`/`out_vc` below
    ///    their reading states. No observer reads them: the alert bank
    ///    reads `out_port` only at `state_after >= 2`, `out_vc` only at
    ///    `state_after == 3` and `head_kind` only for a non-empty VC;
    ///    ForEVeR and the campaign run log read none of them.
    ///
    /// Also left out: the odometers — [`NetStats`], each NIC's
    /// `injected`/`ejected` (see [`Nic::state_eq`]) and each router's
    /// `region_reroutes` — which stepping only ever adds to, so two
    /// networks that differ only there keep the same difference forever
    /// and [`Network::progress_signature`] changes on exactly the same
    /// cycles; the fault plane itself; and reused scratch buffers.
    /// Networks with recovery or an attacker are never equal (that state
    /// is not comparable, and callers that rely on this equality fall
    /// back to plain stepping there). The derived `PartialEq`s of
    /// [`Router`] and its parts stay exact.
    pub fn state_eq(&self, other: &Network) -> bool {
        self.cycle == other.cycle
            && self.recovery.is_none()
            && other.recovery.is_none()
            && self.attacker.is_none()
            && other.attacker.is_none()
            && self.plane.inert_from(self.cycle)
            && other.plane.inert_from(other.cycle)
            && self.next_packet == other.next_packet
            && self.next_uid == other.next_uid
            && self.injection_enabled == other.injection_enabled
            && self.region_dirty == other.region_dirty
            && self.region == other.region
            && self.nics.len() == other.nics.len()
            && self
                .nics
                .iter()
                .zip(other.nics.iter())
                .all(|(a, b)| a.state_eq(b))
            && self.routers.len() == other.routers.len()
            && self
                .routers
                .iter()
                .zip(other.routers.iter())
                .all(|(a, b)| a.state_eq(b))
    }

    /// Attempts to skip `n` cycles in O(1) because nothing can happen in
    /// them: every router and NI is quiescent, injection is disabled, the
    /// fault plane is inert from here on, recovery is off, and every
    /// observer confirms (via [`Observer::on_quiescent_cycles`]) that `n`
    /// empty cycles leave it unchanged. On success the cycle counter jumps
    /// by `n` and `true` is returned; otherwise nothing changes.
    ///
    /// The NIC RNG streams are *not* advanced across the skip, so this is
    /// only sound when generation never resumes afterwards — the
    /// end-of-run quiescent codas it exists for.
    pub fn try_fast_forward_quiescent<O: Observer>(&mut self, n: u64, obs: &mut O) -> bool {
        if self.recovery.is_some()
            || self.attacker.is_some()
            || self.region_dirty
            || self.injection_enabled
            || !self.plane.inert_from(self.cycle)
        {
            return false;
        }
        let settled = self
            .routers
            .iter()
            .all(|r| r.is_quiescent() && r.out_credits.is_empty())
            && self.nics.iter().all(|nic| nic.is_quiescent(&self.cfg));
        if !settled || !obs.on_quiescent_cycles(self.cycle, n) {
            return false;
        }
        self.cycle += n;
        true
    }

    /// Enables alert-driven containment with the given escalation policy
    /// (one [`RecoveryController`] per router). Idempotent: re-enabling
    /// resets all escalation state.
    pub fn enable_recovery(&mut self, policy: RecoveryPolicy) {
        let n = self.routers.len();
        let vcs = self.cfg.vcs_per_port as usize;
        self.recovery = Some(RecoveryState {
            policy,
            controllers: (0..n).map(|_| RecoveryController::new()).collect(),
            pending: Vec::new(),
            ages: vec![WormWatch::default(); n * P * vcs],
            trace: Vec::new(),
            stats: RecoveryStats::default(),
        });
    }

    /// Queues one alert for containment at the start of the next cycle
    /// (one cycle of reaction latency, matching a hardware alert network).
    ///
    /// `port_is_output` tells whether `port` addresses an *output* port of
    /// `router` (see `ModuleClass::port_is_output`); output-side alerts are
    /// translated to the downstream router's input VC, since that is where
    /// the suspect worm's state lives. Local-output alerts (the ejection
    /// path) are not contained here — the end-to-end transport covers them.
    /// No-op when recovery is disabled.
    pub fn notify_alert(&mut self, router: u16, port: u8, vc: u8, port_is_output: bool) {
        if self.recovery.is_none() || router as usize >= self.routers.len() {
            return;
        }
        let vc = if vc < self.cfg.vcs_per_port { vc } else { 0 };
        let target = if port_is_output {
            let Some(&d) = Direction::ALL.get(port as usize) else {
                return;
            };
            if d == Direction::Local {
                return;
            }
            match self.cfg.mesh.neighbor(NodeId(router), d) {
                Some(nb) => (nb.0, d.opposite().index() as u8, vc),
                None => return,
            }
        } else {
            if port as usize >= P {
                return;
            }
            (router, port, vc)
        };
        if let Some(rs) = self.recovery.as_mut() {
            rs.pending.push(target);
        }
    }

    /// Containment actions applied so far, in application order.
    pub fn recovery_trace(&self) -> &[ContainmentEvent] {
        self.recovery
            .as_ref()
            .map(|r| r.trace.as_slice())
            .unwrap_or(&[])
    }

    /// Aggregate containment counters (zeros when recovery is disabled),
    /// merged with the fault-region growth counters and the reroute count
    /// when the region map is active.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut s = self.recovery.as_ref().map(|r| r.stats).unwrap_or_default();
        if let Some(map) = &self.region {
            let g = map.growth();
            s.regions_formed = g.regions_formed;
            s.routers_absorbed = g.routers_absorbed;
            s.reroutes_taken = self.routers.iter().map(Router::region_reroutes).sum();
        }
        s
    }

    /// Fabricates a packet at `node`'s NI source queue, destined for
    /// `dest`, drawing fresh packet/flit identities from the network-wide
    /// counters. Used by the end-to-end transport for acknowledgements and
    /// retransmissions — a retransmit is a *new* packet on the wire (fresh
    /// `PacketId`), so per-packet invariances never see the same identity
    /// twice. Returns the assigned id; out-of-range nodes return `None`.
    pub fn enqueue_packet(
        &mut self,
        node: u16,
        dest: u16,
        class: u8,
        len: u16,
    ) -> Option<PacketId> {
        if node as usize >= self.nics.len() || dest as usize >= self.nics.len() || len == 0 {
            return None;
        }
        let class = class % self.cfg.message_classes;
        let pkt = PacketId(self.next_packet);
        self.next_packet += 1;
        let flits = make_packet(
            pkt,
            self.next_uid,
            NodeId(node),
            NodeId(dest),
            class,
            len,
            self.cycle,
        );
        self.next_uid += len as u64;
        self.nics[node as usize].enqueue(flits);
        Some(pkt)
    }

    /// Tears down the worm occupying input VC `(router, port, vc)` end to
    /// end: input buffer and link registers here, output-port bookkeeping
    /// and staged flits upstream, recursively following allocation owners
    /// back to the source NI. Returns flits destroyed.
    fn chain_reset(&mut self, router: u16, port: u8, vc: u8) -> usize {
        let depth = self.cfg.buffer_depth;
        let mut dropped = 0usize;
        let mut stack = vec![(router, port, vc)];
        let mut visited: BTreeSet<(u16, u8, u8)> = BTreeSet::new();
        while let Some((r, p, v)) = stack.pop() {
            if r as usize >= self.routers.len() || p as usize >= P || !visited.insert((r, p, v)) {
                continue;
            }
            // Downstream half: if the VC holds a downstream allocation,
            // release it and queue the worm's continuation for teardown.
            // Without this the already-forwarded fragment is orphaned with
            // its allocations held forever — and once its buffered flits
            // drain, an ACTIVE-but-empty VC blocks the output VC it owns
            // while generating no alerts at all.
            let vcref = self.routers[r as usize].input_vc(p, v);
            if vcref.state == crate::vc::state::ACTIVE {
                let o = (vcref.out_port & 0b111) as u8;
                let w = vcref.out_vc as u8;
                if self.routers[r as usize].output_owner(o, w) == Some((p, v)) {
                    dropped += self.routers[r as usize].clear_out_flit_to(o, w);
                    self.routers[r as usize].reset_output_vc(o, w, depth);
                    let dd = Direction::ALL[o as usize];
                    if dd != Direction::Local {
                        if let Some(down) = self.cfg.mesh.neighbor(NodeId(r), dd) {
                            stack.push((down.0, dd.opposite().index() as u8, w));
                        }
                    }
                }
            }
            dropped += self.routers[r as usize].hard_reset_input_vc(p, v);
            let d = Direction::ALL[p as usize];
            if d == Direction::Local {
                dropped += self.nics[r as usize].abort_worm(&self.cfg, v);
            } else if let Some(up) = self.cfg.mesh.neighbor(NodeId(r), d) {
                let u = up.index();
                let up_out = d.opposite().index() as u8;
                dropped += self.routers[u].clear_out_flit_to(up_out, v);
                let owner = self.routers[u].output_owner(up_out, v);
                self.routers[u].reset_output_vc(up_out, v, depth);
                if let Some((q, w)) = owner {
                    stack.push((up.0, q, w));
                }
            }
        }
        dropped
    }

    /// Quarantines input VC `(router, port, vc)` on both ends of its link
    /// and fences the upstream output port once all of its VCs are gone.
    /// Returns whether a port was newly fenced.
    fn quarantine(&mut self, router: u16, port: u8, vc: u8) -> bool {
        // Input side first: the local read path must stop sampling the VC's
        // wires, or a still-armed fault there (e.g. an intermittent
        // `BufEmpty` flip on the drained buffer) keeps replaying stale
        // flits as zombie worms faster than containment can clear them.
        self.routers[router as usize].disable_input_vc(port, vc);
        let d = Direction::ALL[port as usize];
        if d == Direction::Local {
            self.nics[router as usize].disable_vc(vc);
            false
        } else if let Some(up) = self.cfg.mesh.neighbor(NodeId(router), d) {
            let u = up.index();
            let up_out = d.opposite().index() as u8;
            self.routers[u].disable_output_vc(up_out, vc);
            // Fence the direction as soon as *any* message class has lost
            // every VC it may use through it — with per-class VC pools, a
            // starved class is as undeliverable as a dead port.
            let (lo, hi) = self.cfg.vc_range_of_class(self.cfg.class_of_vc(vc));
            let already = self.routers[u].avoid_mask() & (1 << up_out) != 0;
            if !already && self.routers[u].output_class_starved(up_out, lo, hi) {
                self.routers[u].set_avoid(up_out, true);
                // Under fault-region routing the fenced port is also a dead
                // link of the region map; the resync at the end of this
                // containment pass recomputes regions and tables.
                if let Some(map) = self.region.as_mut() {
                    if map.kill_link(up, Direction::ALL[up_out as usize]) {
                        self.region_dirty = true;
                    }
                }
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// Applies the containment actions queued by [`Network::notify_alert`].
    /// Runs at the start of each cycle, before the router phase. Multiple
    /// alerts against the same VC within one cycle collapse into a single
    /// escalation step, so thresholds count alert-*cycles*, not checker
    /// fan-out.
    fn apply_recovery(&mut self, cy: Cycle) {
        let Some(mut rs) = self.recovery.take() else {
            return;
        };
        if !rs.pending.is_empty() {
            // Sorted + deduplicated in place: same visit order and same
            // collapse-per-cycle semantics as the former `BTreeSet`, with
            // the queue's capacity kept for the next cycle.
            rs.pending.sort_unstable();
            rs.pending.dedup();
            for i in 0..rs.pending.len() {
                let (r, p, v) = rs.pending[i];
                rs.stats.alerts_consumed += 1;
                let Some(level) = rs.controllers[r as usize].note_alert(&rs.policy, p, v) else {
                    continue;
                };
                let dropped = match level {
                    ContainmentLevel::Squash => {
                        rs.stats.squashes += 1;
                        self.routers[r as usize].squash_input_vc(p, v)
                    }
                    ContainmentLevel::Reset => {
                        rs.stats.resets += 1;
                        self.chain_reset(r, p, v)
                    }
                    ContainmentLevel::Disable => {
                        rs.stats.disables += 1;
                        let dropped = self.chain_reset(r, p, v);
                        if self.quarantine(r, p, v) {
                            rs.stats.ports_fenced += 1;
                        }
                        dropped
                    }
                };
                rs.stats.flits_dropped += dropped as u64;
                rs.trace.push(ContainmentEvent {
                    cycle: cy,
                    router: r,
                    port: p,
                    vc: v,
                    level,
                    flits_dropped: dropped as u32,
                });
            }
            rs.pending.clear();
        }
        self.recovery = Some(rs);
        if self.region_dirty {
            self.region_dirty = false;
            self.sync_region();
        }
    }

    /// Rebuilds the fault-region map and pushes the result everywhere it
    /// is consumed: next-hop rows and arrival-phase masks into every
    /// router, generation/destination gates into every NI. Disengaged maps
    /// clear all of it, restoring baseline behaviour bit-identically.
    fn sync_region(&mut self) {
        if let Some(map) = self.region.as_mut() {
            map.rebuild();
        }
        let Some(map) = self.region.as_ref() else {
            return;
        };
        let n = self.cfg.mesh.len();
        if map.engaged() {
            for i in 0..n {
                let node = NodeId(i as u16);
                let (up, down) = map.router_rows(node);
                self.routers[i].install_region_rows(up, down, map.down_in(node));
                self.nics[i].set_region_gate(
                    !map.absorbed(node),
                    (0..n).map(|d| !map.reachable(node, NodeId(d as u16))),
                );
            }
        } else {
            for i in 0..n {
                self.routers[i].install_region_rows(&[], &[], [false; P]);
                self.nics[i].set_region_gate(true, std::iter::empty());
            }
        }
    }

    /// The per-VC worm-age progress monitor (DESIGN.md §11): samples every
    /// input VC's head-flit uid once per cycle; a worm whose head has not
    /// moved for `stall_age` consecutive cycles is queued for containment
    /// exactly like a checker alert, re-arming after each escalation so a
    /// still-stalled worm climbs squash → reset → quarantine. This closes
    /// the alert-silent stall escape: a duty-cycled intermittent on
    /// `BufEmpty` can wedge a worm in a state that raises no further
    /// invariance violations, which no alert-driven path can see. No-op
    /// (and zero cost) when recovery is disabled.
    fn scan_worm_progress(&mut self) {
        let Some(rs) = self.recovery.as_mut() else {
            return;
        };
        let vcs = self.cfg.vcs_per_port as usize;
        let stall_age = rs.policy.stall_age;
        for (ri, router) in self.routers.iter().enumerate() {
            for p in 0..P {
                for v in 0..vcs {
                    let w = &mut rs.ages[(ri * P + p) * vcs + v];
                    let token = match router.input_head_uid(p as u8, v as u8) {
                        // A headless in-flight VC (non-idle, buffer fully
                        // drained) makes no observable head progress either:
                        // age it under a sentinel uid no real flit carries,
                        // so an orphaned worm fragment that forwarded all
                        // its buffered flits still escalates instead of
                        // holding its downstream allocation forever.
                        None if router.input_vc(p as u8, v as u8).state
                            != crate::vc::state::IDLE
                            && !router.input_vc_disabled(p as u8, v as u8) =>
                        {
                            Some(u64::MAX)
                        }
                        other => other,
                    };
                    match token {
                        Some(uid) if uid == w.uid => {
                            w.age += 1;
                            if w.age >= stall_age {
                                rs.pending.push((ri as u16, p as u8, v as u8));
                                w.age = 0;
                            }
                        }
                        Some(uid) => {
                            w.uid = uid;
                            w.age = 0;
                        }
                        None => *w = WormWatch::default(),
                    }
                }
            }
        }
    }

    /// Advances one cycle without observation.
    pub fn step(&mut self) {
        self.step_observed(&mut NullObserver);
    }

    /// Advances `n` cycles without observation.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Advances one cycle, reporting records, injections and ejections.
    pub fn step_observed<O: Observer>(&mut self, obs: &mut O) {
        let cy = self.cycle;

        // ---- Phase -1: containment actions queued last cycle, then the
        // worm-age monitor queues stall escalations for the next one ----
        self.apply_recovery(cy);
        self.scan_worm_progress();
        let cfg = &self.cfg;

        // ---- Phase 0: single-event upsets on state registers ----
        for i in 0..self.plane.fault_count() {
            let Some(site) = self.plane.register_upset_due_at(i, cy) else {
                continue;
            };
            if self
                .routers
                .get_mut(site.router as usize)
                .is_some_and(|r| r.apply_register_upset(&site))
            {
                self.plane.note_hit();
            }
        }

        // ---- Phase 1: routers ----
        // Quiescent fast path: a router with every VC idle and empty, no
        // latched switch reads/grants and nothing on its links provably
        // performs no state change and emits an empty record (arbiters do
        // not rotate on zero requests, result buses only latch on grants,
        // the state table only writes on events). Skipping its step is
        // bit-identical — unless an armed fault targets this router, in
        // which case `FaultPlane::xf` could flip its wires (and must count
        // hits), so the full step always runs there.
        for r in &mut self.routers {
            self.record.reset(r.id());
            if !self.plane.router_armed(r.id()) && r.is_quiescent() {
                obs.on_cycle_record(cy, &self.record);
                continue;
            }
            r.step(
                cfg,
                cy,
                &mut self.plane,
                &mut self.scratch,
                &mut self.record,
            );
            obs.on_cycle_record(cy, &self.record);
        }

        // ---- Phase 2: transport ----
        // 2a. NIs drain ejection buffers (flits that arrived ≤ last cycle)
        // into the network's reused scratch buffers.
        for i in 0..self.nics.len() {
            self.eject_events.clear();
            self.eject_credits.clear();
            self.nics[i].eject_step(cfg, cy, &mut self.eject_events, &mut self.eject_credits);
            for ev in &self.eject_events {
                self.stats.ejected_flits += 1;
                self.stats.latency_sum += cy.saturating_sub(ev.flit.injected_at);
                obs.on_eject(ev);
            }
            self.routers[i]
                .incoming_credits
                .extend_from_slice(&self.eject_credits);
        }

        // 2b. Move staged flits across links / into ejection buffers.
        // This is the adversarial interposition point (DESIGN.md §14): a
        // compromised router manipulates its staged outputs *here*, after
        // every checker already observed the cycle's wire values.
        if let Some(adv) = self.attacker.as_mut() {
            adv.on_cycle(cy);
        }
        for i in 0..self.routers.len() {
            for d in Direction::ALL {
                let o = d.index();
                let Some(lf) = self.routers[i].out_flits[o].take() else {
                    continue;
                };
                let lf = match self.attacker.as_mut() {
                    Some(adv) if adv.armed_at(i as u16, cy) => {
                        let next = if d == Direction::Local {
                            None
                        } else {
                            cfg.mesh.neighbor(NodeId(i as u16), d)
                        };
                        match adv.on_link_flit(d, next, lf) {
                            Some(lf) => lf,
                            // Swallowed: no wire event and no forwarded
                            // count — to the rest of the mesh this link
                            // simply carried nothing this cycle.
                            None => continue,
                        }
                    }
                    _ => lf,
                };
                if d == Direction::Local {
                    self.nics[i].eject_push(lf.vc, lf.flit);
                    self.stats.forwarded_flits += 1;
                } else if let Some(nb) = cfg.mesh.neighbor(NodeId(i as u16), d) {
                    let in_port = d.opposite().index();
                    self.routers[nb.index()].incoming[in_port] = Some(lf);
                    self.stats.forwarded_flits += 1;
                }
                // A dead output port with a staged flit (fault-induced)
                // drops it on the floor: there is no wire.
            }
        }

        // 2c. Move staged credits upstream. The staged queue is swapped
        // with a reused scratch vector so both keep their capacity.
        for i in 0..self.routers.len() {
            std::mem::swap(&mut self.credit_scratch, &mut self.routers[i].out_credits);
            for c in self.credit_scratch.drain(..) {
                let d = Direction::ALL[c.port as usize];
                if d == Direction::Local {
                    self.nics[i].credit_return(cfg, c.vc, c.tail);
                } else if let Some(nb) = cfg.mesh.neighbor(NodeId(i as u16), d) {
                    // The upstream output port facing us.
                    let up_port = d.opposite().index() as u8;
                    self.routers[nb.index()].incoming_credits.push(CreditMsg {
                        port: up_port,
                        vc: c.vc,
                        tail: c.tail,
                    });
                }
            }
        }

        // 2d. NIs generate and inject.
        let enabled = self.injection_enabled;
        for (i, nic) in self.nics.iter_mut().enumerate() {
            nic.generate(cfg, cy, &mut self.next_packet, &mut self.next_uid, enabled);
            if self.routers[i].incoming[Direction::Local.index()].is_none() {
                if let Some(lf) = nic.inject(cfg) {
                    self.stats.injected_flits += 1;
                    obs.on_inject(cy, &lf.flit);
                    self.routers[i].incoming[Direction::Local.index()] = Some(lf);
                }
            }
        }

        self.cycle += 1;
    }

    /// Runs until drained or `deadline` cycles elapse; returns whether the
    /// network drained.
    pub fn drain<O: Observer>(&mut self, obs: &mut O, deadline: Cycle) -> bool {
        self.set_injection_enabled(false);
        let limit = self.cycle + deadline;
        while self.cycle < limit {
            if self.is_drained() {
                return true;
            }
            self.step_observed(obs);
        }
        self.is_drained()
    }
}

/// Convenience re-export so `LinkFlit` is reachable for tests.
pub use crate::router::LinkFlit as NetworkLinkFlit;

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::config::BufferPolicy;
    use noc_types::record::EjectEvent;
    use std::collections::HashMap;

    /// Collects ejections and injections for black-box checks.
    #[derive(Default)]
    struct Log {
        injected: Vec<Flit>,
        ejected: Vec<EjectEvent>,
    }

    impl Observer for Log {
        fn on_inject(&mut self, _cycle: Cycle, flit: &Flit) {
            self.injected.push(*flit);
        }
        fn on_eject(&mut self, ev: &EjectEvent) {
            self.ejected.push(ev.clone());
        }
    }

    fn run_and_drain(cfg: NocConfig, warm: u64) -> Log {
        let mut net = Network::new(cfg);
        let mut log = Log::default();
        for _ in 0..warm {
            net.step_observed(&mut log);
        }
        let drained = net.drain(&mut log, 20_000);
        assert!(drained, "fault-free network must drain");
        log
    }

    #[test]
    fn every_injected_flit_is_delivered_exactly_once_to_its_destination() {
        let log = run_and_drain(NocConfig::small_test(), 2_000);
        assert!(!log.injected.is_empty(), "traffic must flow");
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for ev in &log.ejected {
            assert_eq!(ev.flit.dest, ev.node, "flit at wrong destination");
            assert!(!ev.flit.corrupted);
            *seen.entry(ev.flit.uid).or_default() += 1;
        }
        for f in &log.injected {
            assert_eq!(
                seen.get(&f.uid).copied().unwrap_or(0),
                1,
                "flit {f} delivered exactly once"
            );
        }
        assert_eq!(log.injected.len(), log.ejected.len());
    }

    #[test]
    fn intra_packet_flit_order_is_preserved() {
        let log = run_and_drain(NocConfig::small_test(), 2_000);
        let mut next_seq: HashMap<u64, u16> = HashMap::new();
        for ev in &log.ejected {
            let expect = next_seq.entry(ev.flit.packet.0).or_insert(0);
            assert_eq!(
                ev.flit.seq, *expect,
                "packet {} out of order",
                ev.flit.packet
            );
            *expect += 1;
        }
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let a = run_and_drain(NocConfig::small_test(), 1_000);
        let b = run_and_drain(NocConfig::small_test(), 1_000);
        let ea: Vec<_> = a.ejected.iter().map(|e| (e.cycle, e.flit.uid)).collect();
        let eb: Vec<_> = b.ejected.iter().map(|e| (e.cycle, e.flit.uid)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn paper_baseline_8x8_delivers() {
        let mut cfg = NocConfig::paper_baseline();
        cfg.injection_rate = 0.05;
        let log = run_and_drain(cfg, 1_500);
        assert!(log.injected.len() > 100);
        assert_eq!(log.injected.len(), log.ejected.len());
    }

    #[test]
    fn snapshot_rollout_equivalence() {
        let mut net = Network::new(NocConfig::small_test());
        net.run(800);
        let snap = net.clone();
        let mut log_a = Log::default();
        let mut log_b = Log::default();
        let mut a = snap.clone();
        let mut b = snap;
        for _ in 0..500 {
            a.step_observed(&mut log_a);
            b.step_observed(&mut log_b);
        }
        let ea: Vec<_> = log_a
            .ejected
            .iter()
            .map(|e| (e.cycle, e.flit.uid))
            .collect();
        let eb: Vec<_> = log_b
            .ejected
            .iter()
            .map(|e| (e.cycle, e.flit.uid))
            .collect();
        assert_eq!(ea, eb);
        assert_eq!(net.cycle(), 800);
        let _ = net;
    }

    /// Every observable event of one stepped cycle, in callback order.
    #[derive(Default, PartialEq, Debug)]
    struct CycleEvents {
        records: Vec<(Cycle, CycleRecord)>,
        injected: Vec<(Cycle, Flit)>,
        ejected: Vec<EjectEvent>,
    }

    impl Observer for CycleEvents {
        fn on_cycle_record(&mut self, cycle: Cycle, rec: &CycleRecord) {
            self.records.push((cycle, rec.clone()));
        }
        fn on_inject(&mut self, cycle: Cycle, flit: &Flit) {
            self.injected.push((cycle, *flit));
        }
        fn on_eject(&mut self, ev: &EjectEvent) {
            self.ejected.push(ev.clone());
        }
    }

    /// The stall rule of `fault::StallMeter` (which `noc-sim` cannot
    /// depend on): a cycle is stalled iff the progress signature is
    /// unchanged since the previous one.
    struct Stalls {
        sig: (u64, u64, u64),
        stalled: Cycle,
    }

    impl Stalls {
        fn observe(&mut self, net: &Network) -> Cycle {
            let now = net.progress_signature();
            if now == self.sig {
                self.stalled += 1;
            } else {
                self.sig = now;
                self.stalled = 0;
            }
            self.stalled
        }
    }

    /// `NetStats` and the NIC counters are odometers: a network whose
    /// odometers are offset arbitrarily emits the same events, stays
    /// `state_eq`, keeps a constant signature offset and stalls on the
    /// same cycles, through traffic and a drain.
    #[test]
    fn odometer_offsets_change_no_future() {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.12;
        let mut a = Network::new(cfg);
        a.run(600);
        let mut b = a.clone();
        b.stats.injected_flits += 1_000_003;
        b.stats.ejected_flits += 7;
        b.stats.forwarded_flits += u64::from(u32::MAX);
        b.stats.latency_sum += 12_345;
        for (i, nic) in b.nics.iter_mut().enumerate() {
            nic.injected += 3 * i as u64 + 1;
            nic.ejected += 5 * i as u64 + 2;
        }
        assert_ne!(a.stats(), b.stats());
        assert!(a.state_eq(&b));
        let sig = |n: &Network| n.progress_signature();
        let offset = |a: &Network, b: &Network| {
            let (x, y) = (sig(a), sig(b));
            (y.0 - x.0, y.1 - x.1, y.2 - x.2)
        };
        let offset0 = offset(&a, &b);
        let mut stalls_a = Stalls {
            sig: sig(&a),
            stalled: 0,
        };
        let mut stalls_b = Stalls {
            sig: sig(&b),
            stalled: 0,
        };
        let (mut ev_a, mut ev_b) = (CycleEvents::default(), CycleEvents::default());
        let (mut moved, mut max_stall) = (0, 0);
        for k in 0..2_000 {
            if k == 1_000 {
                a.set_injection_enabled(false);
                b.set_injection_enabled(false);
            }
            a.step_observed(&mut ev_a);
            b.step_observed(&mut ev_b);
            assert!(!ev_a.records.is_empty());
            assert_eq!(ev_a, ev_b, "cycle {}", a.cycle());
            moved += ev_a.injected.len() + ev_a.ejected.len();
            ev_a = CycleEvents::default();
            ev_b = CycleEvents::default();
            assert!(a.state_eq(&b), "cycle {}", a.cycle());
            assert_eq!(offset(&a, &b), offset0, "cycle {}", a.cycle());
            let stalled = stalls_a.observe(&a);
            assert_eq!(stalled, stalls_b.observe(&b), "cycle {}", a.cycle());
            max_stall = max_stall.max(stalled);
        }
        assert!(a.is_drained() && b.is_drained(), "the drain must finish");
        assert!(moved > 1_000, "traffic must flow: {moved} events");
        assert!(max_stall > 100, "the drained tail must count stalls");
    }

    /// A cycle record with the visible copies of the fields `state_eq`
    /// leaves out zeroed, where no observer reads them: `head_kind` of
    /// an empty VC, `out_port` below `VA_PENDING`, `out_vc` below
    /// `ACTIVE`.
    fn mask_unread(rec: &CycleRecord) -> CycleRecord {
        let mut rec = rec.clone();
        for e in &mut rec.vc {
            if e.empty {
                e.head_kind = 0;
            }
            if e.state_after < crate::vc::state::VA_PENDING {
                e.out_port = 0;
            }
            if e.state_after != crate::vc::state::ACTIVE {
                e.out_vc = 0;
            }
        }
        rec
    }

    /// The bisimulation behind `state_eq`: a network whose unread state
    /// (ring offsets, stale slots, latches below their reading state,
    /// result buses, link-data registers, output owners, the reroute
    /// odometer) is scribbled afresh every cycle stays `state_eq` to the
    /// untouched one and emits the same injections, ejections and, once
    /// the unread record wires are masked, cycle records — through
    /// traffic and a drain, for each configuration bit the argument
    /// branches on.
    #[test]
    fn unobserved_state_changes_no_future() {
        for (speculative, policy) in [
            (false, BufferPolicy::Atomic),
            (true, BufferPolicy::Atomic),
            (false, BufferPolicy::NonAtomic),
        ] {
            let mut cfg = NocConfig::small_test();
            cfg.injection_rate = 0.12;
            cfg.speculative = speculative;
            cfg.buffer_policy = policy;
            let mut a = Network::new(cfg);
            a.run(600);
            let mut b = a.clone();
            let (mut ev_a, mut ev_b) = (CycleEvents::default(), CycleEvents::default());
            let (mut moved, mut masked) = (0, 0);
            for k in 0..2_000u64 {
                if k == 1_000 {
                    a.set_injection_enabled(false);
                    b.set_injection_enabled(false);
                }
                for r in &mut b.routers {
                    r.scribble_unobserved(k * 64 + u64::from(r.id()));
                }
                assert!(a.routers != b.routers, "cycle {}", a.cycle());
                assert!(a.state_eq(&b), "cycle {}", a.cycle());
                a.step_observed(&mut ev_a);
                b.step_observed(&mut ev_b);
                assert_eq!(ev_a.injected, ev_b.injected, "cycle {}", a.cycle());
                assert_eq!(ev_a.ejected, ev_b.ejected, "cycle {}", a.cycle());
                assert_eq!(ev_a.records.len(), ev_b.records.len());
                for ((ca, ra), (cb, rb)) in ev_a.records.iter().zip(&ev_b.records) {
                    assert_eq!(ca, cb);
                    assert_eq!(mask_unread(ra), mask_unread(rb), "cycle {ca}");
                    masked += usize::from(ra != rb);
                }
                assert!(a.state_eq(&b), "cycle {}", a.cycle());
                moved += ev_a.injected.len() + ev_a.ejected.len();
                ev_a = CycleEvents::default();
                ev_b = CycleEvents::default();
            }
            assert!(a.is_drained() && b.is_drained(), "the drain must finish");
            assert!(moved > 1_000, "traffic must flow: {moved} events");
            assert!(masked > 0, "some record must differ in an unread wire");
        }
    }

    #[test]
    fn latency_is_sane_at_low_load() {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.02;
        let mut net = Network::new(cfg);
        net.run(5_000);
        let drained = net.drain(&mut NullObserver, 10_000);
        assert!(drained);
        let stats = net.stats();
        assert!(stats.ejected_flits > 0);
        // 5-stage pipeline, ≤ 6 hops in 4×4: mean latency must be tens of
        // cycles, not hundreds (no livelock/pathology at low load).
        let mean = stats.mean_latency();
        assert!((5.0..100.0).contains(&mean), "mean latency {mean}");
    }

    #[test]
    fn non_atomic_buffers_also_deliver() {
        let mut cfg = NocConfig::small_test();
        cfg.buffer_policy = noc_types::BufferPolicy::NonAtomic;
        let log = run_and_drain(cfg, 2_000);
        assert_eq!(log.injected.len(), log.ejected.len());
    }

    #[test]
    fn west_first_routing_also_delivers() {
        let mut cfg = NocConfig::small_test();
        cfg.routing = noc_types::RoutingAlgorithm::WestFirst;
        let log = run_and_drain(cfg, 2_000);
        assert_eq!(log.injected.len(), log.ejected.len());
        for ev in &log.ejected {
            assert_eq!(ev.flit.dest, ev.node);
        }
    }

    #[test]
    fn fault_region_routing_matches_xy_on_a_healthy_mesh() {
        // A disengaged region map installs no tables, so the FaultRegion
        // algorithm must be bit-identical to the XY baseline.
        let mut cfg = NocConfig::small_test();
        cfg.routing = noc_types::RoutingAlgorithm::FaultRegion;
        let a = run_and_drain(cfg, 2_000);
        let b = run_and_drain(NocConfig::small_test(), 2_000);
        let ea: Vec<_> = a.ejected.iter().map(|e| (e.cycle, e.flit.uid)).collect();
        let eb: Vec<_> = b.ejected.iter().map(|e| (e.cycle, e.flit.uid)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn quarantined_router_is_routed_around() {
        let mut cfg = NocConfig::small_test();
        cfg.routing = noc_types::RoutingAlgorithm::FaultRegion;
        let mut net = Network::new(cfg);
        net.quarantine_router(5);
        let mut log = Log::default();
        for _ in 0..2_000 {
            net.step_observed(&mut log);
        }
        assert!(net.drain(&mut log, 20_000), "region-routed network drains");
        assert!(!log.injected.is_empty(), "traffic must flow");
        assert_eq!(log.injected.len(), log.ejected.len());
        for ev in &log.ejected {
            assert_eq!(ev.flit.dest, ev.node);
            assert_ne!(ev.node.0, 5, "nothing delivered to the absorbed router");
        }
        let stats = net.recovery_stats();
        assert_eq!(stats.regions_formed, 1);
        assert_eq!(stats.routers_absorbed, 1);
        assert!(stats.reroutes_taken > 0, "detours must be counted");
    }

    #[test]
    fn higher_load_still_conserves_flits() {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.25;
        let log = run_and_drain(cfg, 3_000);
        assert_eq!(log.injected.len(), log.ejected.len());
    }
}
