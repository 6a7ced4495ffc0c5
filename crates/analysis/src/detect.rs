//! Pass 3 — static fault detectability ("static ATPG") over the
//! containment-covered sites.
//!
//! The recovery layer's containment guarantee (DESIGN.md §11) only holds
//! for faults the checker array actually *detects*. This pass closes that
//! loop statically: for every fault site in the containment-covered set
//! ([`noc_types::site::containment_covered`]) it enumerates the reachable
//! micro-architectural states of the enclosing logic cone, injects each
//! fault model (stuck-at-0, stuck-at-1, single-cycle transient), and
//! proves that every *effective* fault either
//!
//! * fires at least one checker within a bounded number of evaluation
//!   steps — recording the worst-case detection latency and the set of
//!   firing checkers — or
//! * is provably masked: the corrupted wire is observation-plane only in
//!   that state (it drives no functional logic), the corruption is a pure
//!   one-cycle delay, or the flit is delivered minimally along a legal
//!   alternative path (a *benign reroute*).
//!
//! Anything else is a **blind spot** (`NL401`, hard error).
//!
//! # Soundness: the prover evaluates the real checkers
//!
//! Synthesized [`CycleRecord`]s are fed to the **real** [`AlertBank`] — the
//! identical code the simulator drives — so the pass cannot drift from the
//! shipped checker predicates. For the one multi-cycle cone (a silently
//! diverted flit after an `RcOutDir` upset) the walk continues to the next
//! router *exactly when the bank is silent*: silence at a hop implies the
//! output direction was valid, live, turn-legal and productive, so the
//! walk strictly decreases Manhattan distance and terminates within
//! `width + height` hops. Detection latency is counted in evaluation
//! steps (router cycles *excluding* arbitration queueing, which the
//! static model abstracts away — see DESIGN.md §10).
//!
//! Two cross-checks keep the cone models honest:
//!
//! * every synthesized *fault-free* state must leave the bank silent
//!   (`NL403` otherwise — the cone model and the router disagree), and
//! * every checker expected to participate must actually detect at least
//!   one fault *and* be the sole detector of at least one fault; a
//!   checker that never is is semantically dead (`NL402`, hard error) —
//!   this is what catches a weakened predicate (see the feature-gated
//!   mutation hook `detect_all_mutated`).
//!
//! One admitted detector is not a Table-1 checker: a persistent
//! `BufEmpty` stuck-at-1 on an active VC suppresses switch-allocation
//! bids without violating any invariant. That alert-silent stall is
//! caught by the recovery plane's worm-age progress monitor
//! ([`noc_sim::RecoveryPolicy::stall_age`]); the pass admits it as the
//! [`Detector::StallMonitor`] pseudo-detector with a latency bound of
//! `stall_age` *cycles* (not steps). If the monitor is disabled
//! (`stall_age == Cycle::MAX`) those states are reported blind.

use crate::coverage::CheckerModel;
use crate::diag::{Diagnostic, Pass, Severity};
use crate::exec::run_tasks;
use noc_sim::routing::route;
use noc_sim::signals::enumerate_router_sites;
use noc_sim::{Observer, RecoveryPolicy};
use noc_types::config::{NocConfig, RoutingAlgorithm};
use noc_types::geometry::{Coord, Direction, NodeId};
use noc_types::record::{CycleRecord, RcEvent, ReadEvent, VcEvent, WriteEvent};
use noc_types::site::{containment_covered, FaultKind, SignalKind, SiteRef};
use nocalert::{AlertBank, CheckerId};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The fault models the pass injects at every site.
const KINDS: [FaultKind; 3] = [
    FaultKind::StuckAt0,
    FaultKind::StuckAt1,
    FaultKind::Transient,
];

fn kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::StuckAt0 => "stuck-at-0",
        FaultKind::StuckAt1 => "stuck-at-1",
        _ => "transient",
    }
}

/// Something that catches a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detector {
    /// A Table-1 invariance checker (by paper number).
    Checker(u8),
    /// The recovery plane's worm-age progress monitor — admitted for the
    /// alert-silent stall cone only (see module docs).
    StallMonitor,
}

impl fmt::Display for Detector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detector::Checker(c) => write!(f, "inv{c}"),
            Detector::StallMonitor => f.write_str("stall-monitor"),
        }
    }
}

/// How one enumerated cone state fares under one injected fault.
enum Outcome {
    /// The fault does not change the sampled value in this state.
    NotEffective,
    /// Effective but provably non-functional (observation-plane wire or a
    /// pure one-cycle delay) and silent — masked.
    Masked,
    /// Effective, silent, but the flit is delivered minimally along a
    /// legal alternative path — a benign reroute (counted under masked).
    Benign,
    /// Caught.
    Detected {
        /// Evaluation steps from the corrupting cycle to the first alert
        /// (0 = same cycle). For the stall monitor this is its cycle
        /// bound instead — see [`DetectStats::stall_monitor_bound`].
        latency: u64,
        /// Every detector that fires in the catching step.
        detectors: Vec<Detector>,
    },
    /// Functionally corrupting, and nothing fires.
    Blind {
        /// Human description of the escaping state.
        state: String,
    },
}

/// Per-(site, fault-kind) accumulator over all enumerated states.
#[derive(Default, Clone)]
struct CaseAcc {
    effective: u64,
    detected: u64,
    masked: u64,
    blind: u64,
    benign: u64,
    worst_latency: Option<u64>,
    via_monitor: bool,
    detectors: BTreeSet<Detector>,
    blind_example: Option<String>,
}

/// Aggregate counters for the whole pass.
#[derive(Default, Clone)]
struct Tally {
    states: u64,
    fault_cases: u64,
    detected: u64,
    masked: u64,
    blind: u64,
    benign_states: u64,
    worst_latency: u64,
}

/// A checker's share of the detection duty, over every modeled fault.
#[derive(Debug, Clone, Serialize)]
pub struct CheckerRole {
    /// `inv<N>` or `stall-monitor`.
    pub detector: String,
    /// States in which this detector fires.
    pub fired_states: u64,
    /// States in which it is the *only* thing that fires.
    pub sole_states: u64,
}

/// The proof result for one (site, fault-kind) case.
#[derive(Debug, Clone, Serialize)]
pub struct SiteDetect {
    /// Site address (`n12/RC[p1]/RcOutDir.2`).
    pub site: String,
    /// Injected fault model.
    pub fault: &'static str,
    /// `detected`, `masked`, `vacuous` (no reachable state samples the
    /// wire) or `blind`.
    pub verdict: &'static str,
    /// States in which the fault changes the sampled value.
    pub effective_states: u64,
    /// Effective states caught by a detector.
    pub detected_states: u64,
    /// Effective states provably masked (including benign reroutes).
    pub masked_states: u64,
    /// Effective states that escape — always 0 on a passing run.
    pub blind_states: u64,
    /// Worst-case detection latency in evaluation steps, over the states
    /// caught by *checkers* (the stall monitor's bound is global).
    pub worst_latency_steps: Option<u64>,
    /// True when at least one state is only caught by the stall monitor.
    pub via_stall_monitor: bool,
    /// Every detector that fires for this case, sorted.
    pub detectors: Vec<String>,
}

/// Aggregate statistics of the detectability pass.
#[derive(Debug, Clone, Serialize)]
pub struct DetectStats {
    /// Containment-covered sites examined.
    pub sites: u64,
    /// (site, fault-kind) cases proved (= 3 × sites).
    pub fault_cases: u64,
    /// Cases with at least one detected state and no blind state.
    pub detected_cases: u64,
    /// Cases whose every effective state is masked (or that are vacuous).
    pub masked_cases: u64,
    /// Cases with at least one escaping state — 0 on a passing run.
    pub blind_cases: u64,
    /// Reachable cone states enumerated (fault-free, before injection).
    pub states_evaluated: u64,
    /// Silent-but-delivered misroute walks (benign reroutes).
    pub benign_reroutes: u64,
    /// Worst checker detection latency over all detected states, in
    /// evaluation steps.
    pub worst_latency_steps: u64,
    /// The stall monitor's detection bound in cycles (0 when no case
    /// relies on it).
    pub stall_monitor_bound: u64,
    /// Detection duty per participating detector.
    pub checkers: Vec<CheckerRole>,
    /// Every (site, fault-kind) verdict, in site order.
    pub per_site: Vec<SiteDetect>,
}

/// One router's share of the pass — produced by a worker, merged in
/// router order so the output is independent of `--jobs`.
struct RouterOut {
    diags: Vec<Diagnostic>,
    per_site: Vec<SiteDetect>,
    roles: BTreeMap<Detector, (u64, u64)>,
    tally: Tally,
    weak_metadata: BTreeSet<String>,
}

/// Synthesized records are evaluated by the real [`AlertBank`]; `fire`
/// returns the distinct checkers raised by the staged record and clears
/// the bank for the next probe.
struct Prober {
    bank: AlertBank,
    rec: CycleRecord,
}

impl Prober {
    fn new(cfg: &NocConfig, disabled: &[u8]) -> Prober {
        let mut bank = AlertBank::new(cfg);
        for &c in disabled {
            bank.disable(CheckerId(c));
        }
        Prober {
            bank,
            rec: CycleRecord::default(),
        }
    }

    fn begin(&mut self, router: u16) -> &mut CycleRecord {
        self.rec.reset(router);
        &mut self.rec
    }

    fn fire(&mut self) -> Vec<Detector> {
        self.bank.on_cycle_record(1, &self.rec);
        let out = self
            .bank
            .asserted_set()
            .into_iter()
            .map(|c| Detector::Checker(c.0))
            .collect();
        self.bank.reset();
        out
    }
}

/// Stages an RC execution (and the accompanying `Routing → VaPending`
/// status-table transition the router records in the same cycle).
fn push_rc(
    rec: &mut CycleRecord,
    port: u8,
    vc: u8,
    dest: Coord,
    head_valid: bool,
    buf_empty: bool,
    out_bits: u64,
) {
    rec.rc.push(RcEvent {
        port,
        vc,
        dest_x: dest.x as u64,
        dest_y: dest.y as u64,
        head_valid,
        buf_empty,
        out_dir: out_bits,
        // The cones model a healthy router on the baseline routing
        // function: no fences, no region tables.
        avoid_mask: 0,
        region_next: noc_types::record::REGION_NONE,
    });
    rec.vc.push(VcEvent {
        port,
        vc,
        state_before: 1,
        state_after: 2,
        ev_rc_done: true,
        ev_va_done: false,
        ev_sa_won: false,
        head_kind: 0,
        empty: buf_empty,
        out_port: out_bits & 0b111,
        out_vc: vc as u64,
    });
}

/// The per-router evaluation engine.
struct RouterEval<'a> {
    cfg: &'a NocConfig,
    reach: &'a BTreeMap<(u16, u8), BTreeSet<Coord>>,
    constrainers: &'a [(SignalKind, Vec<u8>)],
    stall_age: u64,
    prober: Prober,
    out: RouterOut,
}

impl RouterEval<'_> {
    fn diag(&mut self, code: &'static str, severity: Severity, site: &SiteRef, msg: String) {
        self.out
            .diags
            .push(Diagnostic::new(Pass::Detect, code, severity, msg).with_site(site));
    }

    /// Fires the staged fault-free record; a non-silent bank means the
    /// cone model disagrees with the router (`NL403`). Returns whether
    /// the state is usable.
    fn self_check(&mut self, site: &SiteRef, state: &str) -> bool {
        let dets = self.prober.fire();
        if dets.is_empty() {
            return true;
        }
        let fired = dets
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.diag(
            "NL403",
            Severity::Error,
            site,
            format!("cone self-check failed: fault-free state ({state}) fires {fired}"),
        );
        false
    }

    fn record_outcome(&mut self, signal: SignalKind, case: &mut CaseAcc, outcome: Outcome) {
        match outcome {
            Outcome::NotEffective => {}
            Outcome::Masked => {
                case.effective += 1;
                case.masked += 1;
            }
            Outcome::Benign => {
                case.effective += 1;
                case.masked += 1;
                case.benign += 1;
            }
            Outcome::Blind { state } => {
                case.effective += 1;
                case.blind += 1;
                if case.blind_example.is_none() {
                    case.blind_example = Some(state);
                }
            }
            Outcome::Detected { latency, detectors } => {
                case.effective += 1;
                case.detected += 1;
                let monitor = detectors.contains(&Detector::StallMonitor);
                if monitor {
                    case.via_monitor = true;
                } else {
                    case.worst_latency = Some(case.worst_latency.unwrap_or(0).max(latency));
                }
                for &d in &detectors {
                    self.out.roles.entry(d).or_insert((0, 0)).0 += 1;
                }
                if let [only] = detectors[..] {
                    self.out.roles.entry(only).or_insert((0, 0)).1 += 1;
                }
                // Metadata cross-check (NL404): some *bank* detector of
                // the state should be a declared constrainer of the
                // faulted signal.
                let bank_ids: Vec<u8> = detectors
                    .iter()
                    .filter_map(|d| match d {
                        Detector::Checker(c) => Some(*c),
                        Detector::StallMonitor => None,
                    })
                    .collect();
                let declared = self
                    .constrainers
                    .iter()
                    .find(|(s, _)| *s == signal)
                    .map(|(_, v)| v.as_slice())
                    .unwrap_or(&[]);
                if !bank_ids.is_empty() && !bank_ids.iter().any(|c| declared.contains(c)) {
                    self.out.weak_metadata.insert(format!("{signal:?}"));
                }
                case.detectors.extend(detectors);
            }
        }
    }

    /// `RcOutDir` — fully functional: the latched direction steers the
    /// crossbar. Silent divergence is walked downstream (see module docs).
    fn eval_rc_out_dir(&mut self, site: &SiteRef, cases: &mut [CaseAcc]) {
        let mesh = self.cfg.mesh;
        let cur = mesh.coord(NodeId(site.router));
        let dests: Vec<Coord> = self
            .reach
            .get(&(site.router, site.port))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for dest in dests {
            self.out.tally.states += 1;
            let correct = route(self.cfg.routing, cur, dest).bits();
            self.prober.begin(site.router);
            push_rc(
                &mut self.prober.rec,
                site.port,
                site.vc,
                dest,
                true,
                false,
                correct,
            );
            if !self.self_check(site, &format!("RC toward {dest}")) {
                continue;
            }
            for (ki, &kind) in KINDS.iter().enumerate() {
                let faulty = kind.apply(correct, site.bit) & 0b111;
                if faulty == correct {
                    self.record_outcome(site.signal, &mut cases[ki], Outcome::NotEffective);
                    continue;
                }
                self.prober.begin(site.router);
                push_rc(
                    &mut self.prober.rec,
                    site.port,
                    site.vc,
                    dest,
                    true,
                    false,
                    faulty,
                );
                let dets = self.prober.fire();
                let outcome = if dets.is_empty() {
                    self.walk(site, cur, dest, faulty)
                } else {
                    Outcome::Detected {
                        latency: 0,
                        detectors: dets,
                    }
                };
                self.record_outcome(site.signal, &mut cases[ki], outcome);
            }
        }
    }

    /// Follows a silently diverted flit with fault-free routing until a
    /// downstream checker fires, it is delivered (benign), or the hop
    /// bound trips (blind — cannot happen with the full bank, which
    /// guarantees silent hops are productive).
    fn walk(&mut self, site: &SiteRef, cur: Coord, dest: Coord, faulty_bits: u64) -> Outcome {
        let mesh = self.cfg.mesh;
        let (w, h) = (mesh.width(), mesh.height());
        let Some(fd) = Direction::from_bits(faulty_bits) else {
            return Outcome::Blind {
                state: format!("silent invalid RC encoding {faulty_bits:#05b} toward {dest}"),
            };
        };
        if fd == Direction::Local {
            return Outcome::Blind {
                state: format!("silent spurious ejection toward {dest}"),
            };
        }
        let Some(mut pos) = cur.step(fd, w, h) else {
            return Outcome::Blind {
                state: format!("silent off-mesh hop via {fd:?} toward {dest}"),
            };
        };
        let mut in_dir = fd.opposite();
        let mut latency = 0u64;
        let bound = w as u64 + h as u64 + 2;
        while latency < bound {
            latency += 1;
            if pos == dest {
                return Outcome::Benign;
            }
            let out = route(self.cfg.routing, pos, dest);
            self.prober.begin(mesh.node(pos).0);
            push_rc(
                &mut self.prober.rec,
                in_dir.index() as u8,
                site.vc,
                dest,
                true,
                false,
                out.bits(),
            );
            let dets = self.prober.fire();
            if !dets.is_empty() {
                return Outcome::Detected {
                    latency,
                    detectors: dets,
                };
            }
            if out == Direction::Local {
                return Outcome::Blind {
                    state: format!("silent misdelivery at {pos} (dest {dest})"),
                };
            }
            match pos.step(out, w, h) {
                Some(n) => pos = n,
                None => {
                    return Outcome::Blind {
                        state: format!("walk stepped off-mesh at {pos} via {out:?}"),
                    }
                }
            }
            in_dir = out.opposite();
        }
        Outcome::Blind {
            state: format!(
                "misroute walk from {cur} toward {dest} exceeded {bound} hops undetected"
            ),
        }
    }

    /// `RcHeadValid` — observation-plane in the RC cone (the wire is
    /// recorded, not gating); its guarantee is carried by inv20.
    fn eval_rc_head_valid(&mut self, site: &SiteRef, cases: &mut [CaseAcc]) {
        let mesh = self.cfg.mesh;
        let cur = mesh.coord(NodeId(site.router));
        let dests: Vec<Coord> = self
            .reach
            .get(&(site.router, site.port))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for dest in dests {
            self.out.tally.states += 1;
            let correct = route(self.cfg.routing, cur, dest).bits();
            self.prober.begin(site.router);
            push_rc(
                &mut self.prober.rec,
                site.port,
                site.vc,
                dest,
                true,
                false,
                correct,
            );
            if !self.self_check(site, &format!("RC toward {dest}")) {
                continue;
            }
            for (ki, &kind) in KINDS.iter().enumerate() {
                // Fault-free value at an RC execution is always 1.
                if kind.apply(1, site.bit) & 1 == 1 {
                    self.record_outcome(site.signal, &mut cases[ki], Outcome::NotEffective);
                    continue;
                }
                self.prober.begin(site.router);
                push_rc(
                    &mut self.prober.rec,
                    site.port,
                    site.vc,
                    dest,
                    false,
                    false,
                    correct,
                );
                let dets = self.prober.fire();
                let outcome = if dets.is_empty() {
                    Outcome::Masked
                } else {
                    Outcome::Detected {
                        latency: 0,
                        detectors: dets,
                    }
                };
                self.record_outcome(site.signal, &mut cases[ki], outcome);
            }
        }
    }

    /// `BufEmpty` — sampled in four distinct contexts; functional only at
    /// the switch-allocation gate (suppressed or spurious bids).
    fn eval_buf_empty(&mut self, site: &SiteRef, cases: &mut [CaseAcc]) {
        let mesh = self.cfg.mesh;
        let cur = mesh.coord(NodeId(site.router));

        // S1: RC execution (header buffered, wire fault-free 0). A raised
        // wire is recorded alongside the RC event — inv21's cone.
        let dests: Vec<Coord> = self
            .reach
            .get(&(site.router, site.port))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for dest in dests {
            self.out.tally.states += 1;
            let correct = route(self.cfg.routing, cur, dest).bits();
            self.prober.begin(site.router);
            push_rc(
                &mut self.prober.rec,
                site.port,
                site.vc,
                dest,
                true,
                false,
                correct,
            );
            if !self.self_check(site, &format!("RC toward {dest}")) {
                continue;
            }
            for (ki, &kind) in KINDS.iter().enumerate() {
                if kind.apply(0, site.bit) & 1 == 0 {
                    self.record_outcome(site.signal, &mut cases[ki], Outcome::NotEffective);
                    continue;
                }
                self.prober.begin(site.router);
                push_rc(
                    &mut self.prober.rec,
                    site.port,
                    site.vc,
                    dest,
                    true,
                    true,
                    correct,
                );
                let dets = self.prober.fire();
                let outcome = if dets.is_empty() {
                    Outcome::Masked
                } else {
                    Outcome::Detected {
                        latency: 0,
                        detectors: dets,
                    }
                };
                self.record_outcome(site.signal, &mut cases[ki], outcome);
            }
        }

        // S3: Active VC with buffered flits bidding for the switch (wire
        // fault-free 0). A raised wire suppresses the bid — no invariant
        // is violated; a *persistent* suppression is the alert-silent
        // stall caught by the worm-age monitor, a transient one is a
        // single-cycle delay.
        self.out.tally.states += 1;
        for (ki, &kind) in KINDS.iter().enumerate() {
            let outcome = if kind.apply(0, site.bit) & 1 == 0 {
                Outcome::NotEffective
            } else if matches!(kind, FaultKind::Transient) {
                Outcome::Masked // one lost bid: pure delay
            } else if self.stall_age != u64::MAX {
                Outcome::Detected {
                    latency: self.stall_age,
                    detectors: vec![Detector::StallMonitor],
                }
            } else {
                Outcome::Blind {
                    state: "alert-silent SA-bid suppression with the stall monitor disabled".into(),
                }
            };
            self.record_outcome(site.signal, &mut cases[ki], outcome);
        }

        // S4: Active VC during a worm bubble (buffer truly empty, wire
        // fault-free 1). A lowered wire raises a spurious bid; if it wins,
        // the read datapath pops an empty buffer — inv24's cone (the
        // read stage samples the real occupancy, so the record is
        // faithful). If it loses arbitration, nothing is consumed.
        self.out.tally.states += 2;
        for (ki, &kind) in KINDS.iter().enumerate() {
            if kind.apply(1, site.bit) & 1 == 1 {
                self.record_outcome(site.signal, &mut cases[ki], Outcome::NotEffective);
                self.record_outcome(site.signal, &mut cases[ki], Outcome::NotEffective);
                continue;
            }
            self.prober.begin(site.router);
            self.prober.rec.reads.push(ReadEvent {
                port: site.port,
                vc: site.vc,
                was_empty: true,
            });
            let dets = self.prober.fire();
            let win = if dets.is_empty() {
                Outcome::Blind {
                    state: "spurious SA bid on an empty buffer: stale-slot read crossed undetected"
                        .into(),
                }
            } else {
                Outcome::Detected {
                    latency: 1,
                    detectors: dets,
                }
            };
            self.record_outcome(site.signal, &mut cases[ki], win);
            // Lost arbitration: the spurious bid consumes nothing.
            self.record_outcome(site.signal, &mut cases[ki], Outcome::Masked);
        }

        // S5: VA completion (header buffered, wire fault-free 0) — inv23's
        // cone; the wire is recorded, not gating, at this sample point.
        self.out.tally.states += 1;
        let local = Direction::Local.bits();
        self.prober.begin(site.router);
        self.push_vc_event(site, 2, 3, false, true, false, false, local);
        if self.self_check(site, "VA completion with buffered header") {
            for (ki, &kind) in KINDS.iter().enumerate() {
                if kind.apply(0, site.bit) & 1 == 0 {
                    self.record_outcome(site.signal, &mut cases[ki], Outcome::NotEffective);
                    continue;
                }
                self.prober.begin(site.router);
                self.push_vc_event(site, 2, 3, false, true, false, true, local);
                let dets = self.prober.fire();
                let outcome = if dets.is_empty() {
                    Outcome::Masked
                } else {
                    Outcome::Detected {
                        latency: 0,
                        detectors: dets,
                    }
                };
                self.record_outcome(site.signal, &mut cases[ki], outcome);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_vc_event(
        &mut self,
        site: &SiteRef,
        before: u64,
        after: u64,
        ev_rc: bool,
        ev_va: bool,
        ev_sa: bool,
        empty: bool,
        out_port: u64,
    ) {
        self.prober.rec.vc.push(VcEvent {
            port: site.port,
            vc: site.vc,
            state_before: before,
            state_after: after,
            ev_rc_done: ev_rc,
            ev_va_done: ev_va,
            ev_sa_won: ev_sa,
            head_kind: 0,
            empty,
            out_port,
            out_vc: site.vc as u64,
        });
    }

    /// `BufFull` — sampled at buffer writes; fault-free always 0 (credit
    /// flow control never admits a write into a full buffer), and the
    /// wire is recorded, not gating. inv25's cone.
    fn eval_buf_full(&mut self, site: &SiteRef, cases: &mut [CaseAcc]) {
        let class = self.cfg.class_of_vc(site.vc) as usize;
        let expected = self.cfg.packet_lengths.get(class).copied().unwrap_or(1);
        let mut contexts: Vec<(&'static str, WriteEvent)> = Vec::new();
        let base = WriteEvent {
            port: site.port,
            vc: site.vc,
            kind: 0,
            is_head: false,
            is_tail: false,
            vc_was_free: false,
            buf_was_full: false,
            prev_written_was_tail: false,
            arrived_count: 0,
            expected_len: expected,
        };
        contexts.push((
            "header write",
            WriteEvent {
                kind: if expected == 1 { 3 } else { 0 },
                is_head: true,
                is_tail: expected == 1,
                vc_was_free: true,
                prev_written_was_tail: true,
                arrived_count: 1,
                ..base
            },
        ));
        if expected >= 3 {
            contexts.push((
                "body write",
                WriteEvent {
                    kind: 1,
                    arrived_count: 2,
                    ..base
                },
            ));
        }
        if expected >= 2 {
            contexts.push((
                "tail write",
                WriteEvent {
                    kind: 2,
                    is_tail: true,
                    arrived_count: expected,
                    ..base
                },
            ));
        }
        for (label, ev) in contexts {
            self.out.tally.states += 1;
            self.prober.begin(site.router);
            self.prober.rec.writes.push(ev);
            if !self.self_check(site, label) {
                continue;
            }
            for (ki, &kind) in KINDS.iter().enumerate() {
                if kind.apply(0, site.bit) & 1 == 0 {
                    self.record_outcome(site.signal, &mut cases[ki], Outcome::NotEffective);
                    continue;
                }
                self.prober.begin(site.router);
                self.prober.rec.writes.push(WriteEvent {
                    buf_was_full: true,
                    ..ev
                });
                let dets = self.prober.fire();
                let outcome = if dets.is_empty() {
                    Outcome::Masked
                } else {
                    Outcome::Detected {
                        latency: 0,
                        detectors: dets,
                    }
                };
                self.record_outcome(site.signal, &mut cases[ki], outcome);
            }
        }
    }

    /// `VcEvSaWon` — a pure observation wire (the status table never
    /// consumes it); its guarantee is carried by inv17 on the spurious
    /// side, and suppression is observing-equivalent in every legal
    /// state.
    fn eval_vc_ev_sa_won(&mut self, site: &SiteRef, cases: &mut [CaseAcc]) {
        let local = Direction::Local.bits();
        // Spurious-event contexts: (label, state, empty, out_port). The
        // wire is fault-free 0 in all of them.
        let spurious: [(&'static str, u64, bool, u64); 4] = [
            ("Idle VC", 0, true, 0),
            ("Routing VC", 1, false, 0),
            ("VaPending VC", 2, false, local),
            ("Active VC not granted", 3, false, local),
        ];
        for (_label, state, empty, out_port) in spurious {
            self.out.tally.states += 1;
            for (ki, &kind) in KINDS.iter().enumerate() {
                if kind.apply(0, site.bit) & 1 == 0 {
                    self.record_outcome(site.signal, &mut cases[ki], Outcome::NotEffective);
                    continue;
                }
                self.prober.begin(site.router);
                self.push_vc_event(site, state, state, false, false, true, empty, out_port);
                let dets = self.prober.fire();
                let outcome = if dets.is_empty() {
                    // Legal even when fabricated (e.g. Active, or
                    // VaPending under the speculative pipeline): the
                    // fabricated event drives nothing downstream.
                    Outcome::Masked
                } else {
                    Outcome::Detected {
                        latency: 0,
                        detectors: dets,
                    }
                };
                self.record_outcome(site.signal, &mut cases[ki], outcome);
            }
        }
        // Suppression context: an Active VC that really won the switch
        // (wire fault-free 1). The event wire is observational, so hiding
        // it from the bank cannot corrupt function — masked by
        // construction for stuck-at-0 and transients.
        self.out.tally.states += 1;
        for (ki, &kind) in KINDS.iter().enumerate() {
            let outcome = if kind.apply(1, site.bit) & 1 == 1 {
                Outcome::NotEffective
            } else {
                Outcome::Masked
            };
            self.record_outcome(site.signal, &mut cases[ki], outcome);
        }
    }

    fn eval_site(&mut self, site: &SiteRef) {
        let mut cases: Vec<CaseAcc> = vec![CaseAcc::default(); KINDS.len()];
        match site.signal {
            SignalKind::RcOutDir => self.eval_rc_out_dir(site, &mut cases),
            SignalKind::RcHeadValid => self.eval_rc_head_valid(site, &mut cases),
            SignalKind::BufEmpty => self.eval_buf_empty(site, &mut cases),
            SignalKind::BufFull => self.eval_buf_full(site, &mut cases),
            SignalKind::VcEvSaWon => self.eval_vc_ev_sa_won(site, &mut cases),
            _ => return,
        }
        for (ki, case) in cases.iter().enumerate() {
            let kind = kind_name(KINDS[ki]);
            self.out.tally.fault_cases += 1;
            self.out.tally.benign_states += case.benign;
            let verdict = if case.blind > 0 {
                self.out.tally.blind += 1;
                let example = case.blind_example.as_deref().unwrap_or("<unrecorded>");
                self.diag(
                    "NL401",
                    Severity::Error,
                    site,
                    format!(
                        "blind spot: {kind} fault functionally corrupts {n} reachable state(s) \
                         without any detection; e.g. {example}",
                        n = case.blind
                    ),
                );
                "blind"
            } else if case.detected > 0 {
                self.out.tally.detected += 1;
                "detected"
            } else if case.effective > 0 {
                self.out.tally.masked += 1;
                "masked"
            } else {
                self.out.tally.masked += 1;
                "vacuous"
            };
            if let Some(l) = case.worst_latency {
                self.out.tally.worst_latency = self.out.tally.worst_latency.max(l);
            }
            self.out.per_site.push(SiteDetect {
                site: site.to_string(),
                fault: kind,
                verdict,
                effective_states: case.effective,
                detected_states: case.detected,
                masked_states: case.masked,
                blind_states: case.blind,
                worst_latency_steps: case.worst_latency,
                via_stall_monitor: case.via_monitor,
                detectors: case.detectors.iter().map(|d| d.to_string()).collect(),
            });
        }
    }
}

/// Reachable RC entry states: which destinations a header arriving on a
/// given input port of a given router can carry, computed by replaying
/// every (source, destination) walk under the configured routing — the
/// same [`route`] function the routers execute.
fn rc_reach(cfg: &NocConfig) -> BTreeMap<(u16, u8), BTreeSet<Coord>> {
    let mesh = cfg.mesh;
    let (w, h) = (mesh.width(), mesh.height());
    let bound = w as usize + h as usize + 2;
    let mut map: BTreeMap<(u16, u8), BTreeSet<Coord>> = BTreeMap::new();
    for src in mesh.nodes() {
        for dnode in mesh.nodes() {
            if src == dnode {
                continue;
            }
            let dest = mesh.coord(dnode);
            let mut cur = mesh.coord(src);
            let mut in_dir = Direction::Local;
            for _ in 0..bound {
                map.entry((mesh.node(cur).0, in_dir.index() as u8))
                    .or_default()
                    .insert(dest);
                if cur == dest {
                    break;
                }
                let out = route(cfg.routing, cur, dest);
                if out == Direction::Local {
                    break;
                }
                let Some(next) = cur.step(out, w, h) else {
                    break;
                };
                in_dir = out.opposite();
                cur = next;
            }
        }
    }
    map
}

fn detect_with(cfg: &NocConfig, disabled: &[u8], jobs: usize) -> (DetectStats, Vec<Diagnostic>) {
    let reach = rc_reach(cfg);
    let model = CheckerModel::from_table1();
    let constrainers: Vec<(SignalKind, Vec<u8>)> = SignalKind::ALL
        .iter()
        .filter(|s| containment_covered(**s))
        .map(|&s| (s, model.constrainers(cfg, s).iter().map(|c| c.0).collect()))
        .collect();
    let stall_age = RecoveryPolicy::default_policy().stall_age;

    let routers: Vec<NodeId> = cfg.mesh.nodes().collect();
    let reach_ref = &reach;
    let constrainers_ref = &constrainers;
    let tasks: Vec<_> = routers
        .iter()
        .map(|&router| {
            move || {
                let mut eval = RouterEval {
                    cfg,
                    reach: reach_ref,
                    constrainers: constrainers_ref,
                    stall_age,
                    prober: Prober::new(cfg, disabled),
                    out: RouterOut {
                        diags: Vec::new(),
                        per_site: Vec::new(),
                        roles: BTreeMap::new(),
                        tally: Tally::default(),
                        weak_metadata: BTreeSet::new(),
                    },
                };
                let mut sites = 0u64;
                for site in enumerate_router_sites(cfg, router) {
                    if containment_covered(site.signal) {
                        sites += 1;
                        eval.eval_site(&site);
                    }
                }
                (sites, eval.out)
            }
        })
        .collect();

    let mut diags = Vec::new();
    let mut per_site = Vec::new();
    let mut roles: BTreeMap<Detector, (u64, u64)> = BTreeMap::new();
    let mut tally = Tally::default();
    let mut weak: BTreeSet<String> = BTreeSet::new();
    let mut sites = 0u64;
    for (i, slot) in run_tasks(jobs, tasks).into_iter().enumerate() {
        let Some((n, out)) = slot else {
            diags.push(Diagnostic::new(
                Pass::Detect,
                "NL403",
                Severity::Error,
                format!("internal: detect worker for router n{i} produced no result"),
            ));
            continue;
        };
        sites += n;
        diags.extend(out.diags);
        per_site.extend(out.per_site);
        for (d, (fired, sole)) in out.roles {
            let e = roles.entry(d).or_insert((0, 0));
            e.0 += fired;
            e.1 += sole;
        }
        tally.states += out.tally.states;
        tally.fault_cases += out.tally.fault_cases;
        tally.detected += out.tally.detected;
        tally.masked += out.tally.masked;
        tally.blind += out.tally.blind;
        tally.benign_states += out.tally.benign_states;
        tally.worst_latency = tally.worst_latency.max(out.tally.worst_latency);
        weak.extend(out.weak_metadata);
    }

    // Dead-checker analysis (NL402): the cohort expected to carry the
    // detection duty of the covered set. Under the fault-region turn
    // model (only u-turns are statically illegal) inv1 legitimately has
    // no sole-detection duty and is exempted.
    let mut cohort: Vec<Detector> = Vec::new();
    if cfg.routing != RoutingAlgorithm::FaultRegion {
        cohort.push(Detector::Checker(1));
    }
    for c in [2u8, 3, 17, 20, 21, 23, 24, 25] {
        cohort.push(Detector::Checker(c));
    }
    let monitor_used = roles.contains_key(&Detector::StallMonitor);
    if stall_age != u64::MAX {
        cohort.push(Detector::StallMonitor);
    }
    for d in cohort {
        let (fired, sole) = roles.get(&d).copied().unwrap_or((0, 0));
        let mut dead = |msg: String| {
            let mut diag = Diagnostic::new(Pass::Detect, "NL402", Severity::Error, msg);
            if let Detector::Checker(c) = d {
                diag = diag.with_checker(c);
            }
            diags.push(diag);
        };
        if fired == 0 {
            dead(format!(
                "{d} never detects any modeled fault on the covered sites — semantically dead \
                 (or disabled)"
            ));
        } else if sole == 0 {
            dead(format!(
                "{d} is never the sole detector of any modeled fault — its detection duty is \
                 fully shadowed by other checkers"
            ));
        }
    }
    for signal in weak {
        diags.push(Diagnostic::new(
            Pass::Detect,
            "NL404",
            Severity::Info,
            format!(
                "some {signal} faults are detected only by checkers not declared as {signal} \
                 constrainers — coverage metadata understates the dynamic reach"
            ),
        ));
    }

    let stats = DetectStats {
        sites,
        fault_cases: tally.fault_cases,
        detected_cases: tally.detected,
        masked_cases: tally.masked,
        blind_cases: tally.blind,
        states_evaluated: tally.states,
        benign_reroutes: tally.benign_states,
        worst_latency_steps: tally.worst_latency,
        stall_monitor_bound: if monitor_used { stall_age } else { 0 },
        checkers: roles
            .into_iter()
            .map(|(d, (fired, sole))| CheckerRole {
                detector: d.to_string(),
                fired_states: fired,
                sole_states: sole,
            })
            .collect(),
        per_site,
    };
    (stats, diags)
}

/// Runs the detectability pass on up to `jobs` threads. The output is
/// independent of `jobs` (results are merged in router order).
pub fn detect_all(cfg: &NocConfig, jobs: usize) -> (DetectStats, Vec<Diagnostic>) {
    detect_with(cfg, &[], jobs)
}

/// The mutation hook: runs the pass with the given Table-1 checkers
/// force-disabled, emulating a weakened predicate. Gated so release
/// builds cannot ship a silently weakened bank; the in-tree acceptance
/// test proves every participating checker's removal is caught.
#[cfg(any(test, feature = "mutation"))]
pub fn detect_all_mutated(
    cfg: &NocConfig,
    disabled: &[u8],
    jobs: usize,
) -> (DetectStats, Vec<Diagnostic>) {
    detect_with(cfg, disabled, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical_config;

    #[test]
    fn canonical_covered_sites_all_detect_or_mask() {
        let cfg = canonical_config();
        let (stats, diags) = detect_all(&cfg, 1);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:#?}");
        assert_eq!(stats.blind_cases, 0);
        assert!(stats.detected_cases > 0);
        assert_eq!(stats.fault_cases, 3 * stats.sites);
        assert_eq!(stats.fault_cases, stats.detected_cases + stats.masked_cases);
        // Dimension-order routing catches every effective misroute within
        // one downstream hop.
        assert!(
            stats.worst_latency_steps <= 1,
            "{}",
            stats.worst_latency_steps
        );
        // The stall monitor carries the BufEmpty suppression states.
        assert_eq!(stats.stall_monitor_bound, 1_000);
        // Exactly the documented cohort holds sole detection duty.
        let sole: Vec<&str> = stats
            .checkers
            .iter()
            .filter(|c| c.sole_states > 0)
            .map(|c| c.detector.as_str())
            .collect();
        assert_eq!(
            sole,
            [
                "inv1",
                "inv2",
                "inv3",
                "inv17",
                "inv20",
                "inv21",
                "inv23",
                "inv24",
                "inv25",
                "stall-monitor"
            ]
        );
    }

    /// Acceptance: weakening any one participating checker (emulated by
    /// disabling it — the feature-gated mutation hook) must surface as a
    /// hard error, via a blind spot (NL401) or dead-checker (NL402).
    #[test]
    fn weakening_any_participating_checker_is_caught() {
        let cfg = NocConfig::small_test();
        let (_, healthy) = detect_all(&cfg, 1);
        assert!(
            healthy.iter().all(|d| d.severity != Severity::Error),
            "{healthy:#?}"
        );
        for c in [1u8, 2, 3, 17, 20, 21, 23, 24, 25] {
            let (_, diags) = detect_all_mutated(&cfg, &[c], 1);
            assert!(
                diags.iter().any(|d| d.severity == Severity::Error),
                "disabling inv{c} must be caught by NL401/NL402"
            );
        }
    }

    #[test]
    fn jobs_do_not_change_results() {
        let cfg = NocConfig::small_test();
        let (s1, d1) = detect_all(&cfg, 1);
        let (s4, d4) = detect_all(&cfg, 4);
        assert_eq!(d1, d4);
        assert_eq!(
            serde_json::to_string(&s1).unwrap(),
            serde_json::to_string(&s4).unwrap()
        );
    }

    #[test]
    fn reach_covers_every_live_input_port() {
        let cfg = NocConfig::small_test();
        let reach = rc_reach(&cfg);
        let mesh = cfg.mesh;
        for n in mesh.nodes() {
            for dir in Direction::ALL {
                if mesh.port_live(n, dir) {
                    let key = (n.0, dir.index() as u8);
                    assert!(
                        reach.get(&key).is_some_and(|s| !s.is_empty()),
                        "no reachable RC state for router {} port {dir:?}",
                        n.0
                    );
                }
            }
        }
    }
}
