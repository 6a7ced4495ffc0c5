//! Adversarial rollouts: compromised-router attack models judged by a
//! detection/mitigation oracle (DESIGN.md §14).
//!
//! The fault campaigns ask whether NoCAlert sees *broken hardware*. This
//! module asks the harder question the checkers alone cannot answer:
//! what happens when a router is **malicious** — its pipeline behaves,
//! its wires check clean, and the damage happens on the output links
//! *after* the observation point ([`noc_sim::Adversary`] interposes in
//! the link phase of `step_observed`)? The closed loop here is the same
//! as [`crate::recovery`] (bank alerts → containment, ARQ transport
//! restoring delivery) plus the attacker's out-of-band actions: forged
//! and replayed control packets are physically injected at the
//! attacker's node and registered with the transport's wire registry,
//! and fabricated alerts are fed straight into containment.
//!
//! Every rollout is classified into exactly one [`AttackClass`] cell of
//! the detection/mitigation matrix. The classifier is deliberately
//! conservative: a cell where the attacker interfered but the run ends
//! apparently healthy with **no** detection evidence and **no**
//! mitigation trace is reported as [`AttackClass::UndetectedLoss`] even
//! if nothing measurable was lost — survival must be *explained*, not
//! assumed. The `attack` bench bin (and CI's `--smoke` gate) accept a
//! matrix only when no cell is an undetected loss.
//!
//! Evidence is kept honest under the alert-channel attacks: fabricated
//! alerts ([`noc_types::AttackKind::AlertFlood`]) bypass the
//! [`nocalert::AlertBank`] entirely (they are injected directly into
//! containment via `Network::notify_alert`), so bank assertions always
//! reflect genuine checker observations; and alert *suppression*
//! ([`noc_types::AttackKind::AlertSuppress`]) blocks the
//! alert-to-containment wire of the compromised router without touching
//! the bank's record — detection stands, reaction is what the attacker
//! starves.
//!
//! The rollout is the shared `closed_loop` driver with an
//! attacker hook: alert suppression, intent execution and suspicion
//! feedback run inside its per-cycle step. [`AttackCampaign`] sweeps
//! matrix cells through the shared checkpointed sweep driver
//! ([`crate::campaign::sweep`]).

use crate::campaign::resilience::catch_payload;
use crate::campaign::sweep::{sweep, ResilienceOptions, SweepReport};
use crate::campaign::CampaignError;
use crate::closed_loop::{ClosedLoop, Hook};
use crate::recovery::{verify_delivery, DeliveryVerdict, RecoveryOptions, RecoveryOutcome};
use fault::FaultSpec;
use noc_sim::{
    AttackIntent, AttackStats, ControlCapture, Network, RecoveryStats, Transport, TransportStats,
};
use noc_types::{AttackKind, AttackSpec, Cycle, NocConfig, SimError};
use nocalert::AssertionEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which mechanism accounts for an attack cell's outcome — exactly one
/// bucket per (attacker model × site × intensity) cell of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackClass {
    /// The attacker never effectively acted (armed too late, no victims
    /// traversed, every intent unperformable). The oracle must not claim
    /// a mitigation that was never exercised.
    Vacuous,
    /// Genuine detection evidence exists: checker-bank assertions,
    /// forgery suspicions scored by the transport, or a router escalated
    /// to malicious.
    DetectedByBank,
    /// Delivery was violated, but *loudly*: the sender gave up after
    /// `max_retries`, a watchdog tripped, the topology partitioned, or
    /// the rollout crashed — the system knows it failed.
    CaughtByOracle,
    /// Delivery held with no detection evidence, and the survival is
    /// explained by transport/containment activity (retransmissions,
    /// dedup, discarded misroutes, stale/forged controls absorbed,
    /// containment actions).
    MitigatedByArq,
    /// The failure mode the matrix exists to rule out: either messages
    /// were silently lost / duplicated towards the application, or the
    /// attacker interfered and the run ended apparently healthy with no
    /// trace explaining why. Zero cells may land here.
    UndetectedLoss,
}

/// Interference the attacker actually *performed*, as opposed to merely
/// intended: link-layer manipulations plus executed out-of-band intents
/// plus suppressed alert deliveries. [`AttackStats::interference`] counts
/// emitted intents too, but a `CtlReplay` intent that resolved to a data
/// packet is skipped by the harness and must not count — vacuity is
/// judged on actions, not intentions.
pub fn effective_interference(attack: &AttackStats, performed: u64, suppressed: u64) -> u64 {
    attack.packets_dropped
        + attack.flits_dropped
        + attack.flits_corrupted
        + attack.packets_misrouted
        + performed
        + suppressed
}

/// The pure cell classifier. `evidence` is genuine detection evidence
/// (bank assertions + transport suspicions + malicious escalations);
/// `mitigation` is transport/containment activity that explains survival.
///
/// Severity order: application-level duplicates or silent loss in an
/// apparently-quiescent run always classify as
/// [`AttackClass::UndetectedLoss`], regardless of what else fired — a
/// detection event does not excuse a broken delivery guarantee.
pub fn classify(
    interference: u64,
    outcome: &RecoveryOutcome,
    verdict: DeliveryVerdict,
    evidence: u64,
    mitigation: u64,
) -> AttackClass {
    if interference == 0 {
        return AttackClass::Vacuous;
    }
    if let DeliveryVerdict::Violated {
        undelivered,
        gave_up,
        duplicates,
    } = verdict
    {
        let silent = duplicates > 0
            || (undelivered > gave_up && matches!(outcome, RecoveryOutcome::Quiescent));
        if silent {
            return AttackClass::UndetectedLoss;
        }
        return if evidence > 0 {
            AttackClass::DetectedByBank
        } else {
            AttackClass::CaughtByOracle
        };
    }
    if evidence > 0 {
        AttackClass::DetectedByBank
    } else if mitigation > 0 {
        AttackClass::MitigatedByArq
    } else {
        AttackClass::UndetectedLoss
    }
}

/// Full result of one adversarial rollout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackRun {
    /// The attacker model that was armed.
    pub spec: AttackSpec,
    /// Co-located hardware fault, if the cell pairs one with the attack
    /// (the alert-suppression cells need genuine alerts to suppress).
    pub fault: Option<FaultSpec>,
    /// The cell's bucket in the detection/mitigation matrix.
    pub class: AttackClass,
    /// How the rollout ended.
    pub outcome: RecoveryOutcome,
    /// The delivery oracle's judgement.
    pub verdict: DeliveryVerdict,
    /// The attacker's own interference counters.
    pub attack: AttackStats,
    /// Transport counters (retransmits, forged controls ignored…).
    pub transport: TransportStats,
    /// Containment counters (squashes, suspicions noted, malicious…).
    pub recovery: RecoveryStats,
    /// Genuine checker-bank assertions (fabricated alerts bypass the
    /// bank, so this never counts attacker noise).
    pub bank_alerts: u64,
    /// Alert deliveries the compromised router suppressed before they
    /// reached containment (recorded by the bank regardless).
    pub suppressed_alerts: u64,
    /// Forgery suspicions the transport raised (failed tag or source
    /// validation on a control packet).
    pub suspicions: u64,
    /// Out-of-band intents the harness executed.
    pub intents_performed: u64,
    /// Intents that could not be executed (victim slot retired, replay
    /// target was a data packet) — interference that never happened.
    pub intents_skipped: u64,
    /// Cycle of the first genuine detection evidence (bank assertion or
    /// transport suspicion), if any.
    pub first_evidence_at: Option<Cycle>,
    /// Final simulation cycle.
    pub end_cycle: Cycle,
}

impl AttackRun {
    /// The placeholder for a cell whose rollout panicked with `panic`. A
    /// crash is loud by construction, so it classifies as
    /// [`AttackClass::CaughtByOracle`]; the bench still refuses to accept
    /// crashed cells.
    pub fn crashed(spec: AttackSpec, fault: Option<FaultSpec>, panic: String) -> AttackRun {
        AttackRun {
            spec,
            fault,
            class: AttackClass::CaughtByOracle,
            outcome: RecoveryOutcome::Crashed(panic),
            verdict: DeliveryVerdict::Violated {
                undelivered: 0,
                gave_up: 0,
                duplicates: 0,
            },
            attack: AttackStats::default(),
            transport: TransportStats::default(),
            recovery: RecoveryStats::default(),
            bank_alerts: 0,
            suppressed_alerts: 0,
            suspicions: 0,
            intents_performed: 0,
            intents_skipped: 0,
            first_evidence_at: None,
            end_cycle: 0,
        }
    }

    /// Cycles from the attacker going live to the first genuine
    /// detection evidence (`None` when nothing ever fired).
    pub fn detection_latency(&self) -> Option<Cycle> {
        self.first_evidence_at
            .map(|c| c.saturating_sub(self.spec.start))
    }

    /// Wire overhead beyond one transmission per message, mirroring
    /// [`crate::recovery::RecoveryRun::overhead_per_message`].
    pub fn overhead_per_message(&self) -> f64 {
        crate::recovery::overhead_per_message(&self.transport)
    }
}

/// The attacker's per-cycle hook on the closed loop, plus the
/// per-rollout accounting it keeps.
struct AttackHook<'a> {
    cfg: &'a NocConfig,
    spec: &'a AttackSpec,
    bank_alerts: u64,
    suppressed: u64,
    suspicions: u64,
    performed: u64,
    skipped: u64,
    first_evidence: Option<Cycle>,
}

/// One cycle of the adversarial closed loop, beyond the plain loop's
/// alert translation: (a) the compromised router's own alerts are
/// withheld from containment when the model is
/// [`AttackKind::AlertSuppress`], (b) the attacker's out-of-band intents
/// execute through public APIs (forged traffic is physically injected at
/// the attacker's node, so its wire source is honest — in-model, sources
/// cannot be forged), and (c) transport forgery suspicions feed back into
/// the containment plane's malice scoring.
impl Hook for AttackHook<'_> {
    fn alert(&mut self, ev: &AssertionEvent) -> bool {
        self.bank_alerts += 1;
        if self.first_evidence.is_none() {
            self.first_evidence = Some(ev.cycle);
        }
        let spec = self.spec;
        if spec.kind == AttackKind::AlertSuppress
            && ev.router == spec.router
            && ev.cycle >= spec.start
        {
            // The compromised router eats its own alert wire: the bank
            // has recorded the assertion (detection stands) but
            // containment never hears about it.
            self.suppressed += 1;
            return false;
        }
        true
    }

    fn before_transport(&mut self, net: &mut Network, transport: &mut Transport) {
        let spec = self.spec;
        for intent in net.drain_attack_intents() {
            match intent {
                AttackIntent::ForgeAck {
                    victim,
                    sender,
                    claimed_src,
                    class,
                    tag,
                } => {
                    // The forged control claims the swallowed packet's
                    // app id; if the victim's wire slot already retired,
                    // there is nothing left to forge against.
                    let Some(app) = transport.data_app(victim) else {
                        self.skipped += 1;
                        continue;
                    };
                    let lengths = &self.cfg.packet_lengths;
                    let len = lengths[class as usize % lengths.len()];
                    let Some(pid) = net.enqueue_packet(spec.router, sender, class, len) else {
                        self.skipped += 1;
                        continue;
                    };
                    // Injected downstream of the attacker's egress filter:
                    // a full-rate attacker must not swallow the forgery it
                    // just asked for on its way out.
                    net.mark_attack_injection(pid);
                    transport.register_forged_control(
                        pid,
                        net.cycle(),
                        ControlCapture {
                            app,
                            nack: false,
                            claimed_src,
                            dest: sender,
                            class,
                            len,
                            tag,
                        },
                    );
                    self.performed += 1;
                }
                AttackIntent::Replay { captured } => {
                    // Only captured *control* packets replay bit-faithfully
                    // (genuine tag included); captured data packets carry
                    // nothing a replay could close.
                    let Some(cap) = transport.control_meta(captured) else {
                        self.skipped += 1;
                        continue;
                    };
                    let Some(pid) = net.enqueue_packet(spec.router, cap.dest, cap.class, cap.len)
                    else {
                        self.skipped += 1;
                        continue;
                    };
                    net.mark_attack_injection(pid);
                    transport.register_forged_control(pid, net.cycle(), cap);
                    self.performed += 1;
                }
                AttackIntent::RaiseAlert { port, vc } => {
                    // Fabricated alerts go straight to containment and
                    // deliberately bypass the bank: bank assertions must
                    // remain genuine detection evidence.
                    net.notify_alert(spec.router, port, vc, false);
                    self.performed += 1;
                }
            }
        }
    }

    fn after_transport(&mut self, net: &mut Network, transport: &mut Transport) {
        for s in transport.take_suspicions() {
            self.suspicions += 1;
            if self.first_evidence.is_none() {
                self.first_evidence = Some(s.cycle);
            }
            if let Some(r) = s.router {
                net.note_suspicion(r);
            }
        }
    }
}

/// Finds a containment-covered fault site on `router` and wraps it in a
/// permanent fault starting at `start` — the co-fault the
/// alert-suppression cells need (an attacker with nothing to suppress is
/// vacuous).
pub fn covered_fault_for(cfg: &NocConfig, router: u16, start: Cycle) -> Option<FaultSpec> {
    fault::enumerate_sites(cfg)
        .into_iter()
        .find(|s| s.router == router && crate::recovery::containment_covered(s.signal))
        .map(|s| FaultSpec::permanent(s, start))
}

/// One cell of the attack matrix: an attacker model, optionally paired
/// with a co-located hardware fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttackCell {
    /// The compromised-router model.
    pub spec: AttackSpec,
    /// Co-located fault (only the alert-suppression cells use one).
    pub fault: Option<FaultSpec>,
}

/// The standard matrix row for one compromised router at one intensity:
/// every attacker model, deterministic per-cell seeds derived from
/// `seed`, the attacker going live at `start`. Alert-suppression cells
/// are paired with a covered co-fault via [`covered_fault_for`]; routers
/// without a covered site simply omit that cell.
pub fn standard_cells(
    cfg: &NocConfig,
    routers: &[u16],
    every: u32,
    start: Cycle,
    seed: u64,
) -> Vec<AttackCell> {
    let kinds = [
        AttackKind::PacketDrop { every },
        AttackKind::FlitDrop { every },
        AttackKind::PayloadCorrupt { every },
        AttackKind::Misroute { every },
        AttackKind::AckSpoof { every },
        AttackKind::CtlReplay { every },
        AttackKind::AlertSuppress,
        AttackKind::AlertFlood { per_cycle: 2 },
    ];
    let mut cells = Vec::new();
    for (r_ix, &router) in routers.iter().enumerate() {
        for (k_ix, &kind) in kinds.iter().enumerate() {
            let fault = match kind {
                AttackKind::AlertSuppress => match covered_fault_for(cfg, router, start) {
                    Some(f) => Some(f),
                    None => continue,
                },
                _ => None,
            };
            cells.push(AttackCell {
                spec: AttackSpec {
                    router,
                    kind,
                    start,
                    // A pure function of the cell's position: bit-identical
                    // campaigns at any worker count, distinct attacker RNG
                    // streams per cell.
                    seed: seed
                        .wrapping_mul(1_000_003)
                        .wrapping_add((r_ix * kinds.len() + k_ix) as u64),
                },
                fault,
            });
        }
    }
    cells
}

/// Everything that identifies an attack campaign: mixing cells computed
/// under different configurations would corrupt the matrix, so the
/// journal refuses a directory whose config differs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackCampaignConfig {
    /// Network configuration.
    pub noc: NocConfig,
    /// Closed-loop rollout options.
    pub opts: RecoveryOptions,
}

/// One journal line: a cell and its completed rollout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackCellReport {
    /// The matrix cell.
    pub cell: AttackCell,
    /// Its rollout result.
    pub run: AttackRun,
}

impl SweepReport<AttackCellReport> {
    /// Cells per class, in [`AttackClass`] severity order.
    pub fn matrix(&self) -> BTreeMap<AttackClass, u64> {
        let mut m = BTreeMap::new();
        for r in &self.reports {
            *m.entry(r.run.class).or_insert(0) += 1;
        }
        m
    }

    /// True when no cell is an undetected loss and no rollout crashed —
    /// the acceptance bar the bench bin enforces.
    pub fn accepted(&self) -> bool {
        self.reports.iter().all(|r| {
            r.run.class != AttackClass::UndetectedLoss
                && !matches!(r.run.outcome, RecoveryOutcome::Crashed(_))
        })
    }
}

/// The attack campaign: one adversarial rollout per matrix cell, and the
/// sweep of a work-list of cells behind the panic-isolation boundary
/// through the shared checkpointed sweep driver (journal, resume,
/// cancellation, round-robin workers), so the aggregate is bit-identical
/// for any worker count.
#[derive(Debug, Clone)]
pub struct AttackCampaign {
    cc: AttackCampaignConfig,
}

impl AttackCampaign {
    /// Builds the campaign after validating the rollout options.
    ///
    /// # Errors
    ///
    /// Propagates [`RecoveryOptions::validate`] failures.
    pub fn try_new(cc: AttackCampaignConfig) -> Result<AttackCampaign, CampaignError> {
        cc.opts.validate().map_err(CampaignError::Substrate)?;
        Ok(AttackCampaign { cc })
    }

    /// The cycle at which the measurement window ends and draining begins.
    pub fn active_end(&self) -> Cycle {
        self.cc
            .opts
            .warmup
            .saturating_add(self.cc.opts.active_window)
    }

    /// One adversarial rollout: arm the attacker (and the optional
    /// co-located fault), close the detection→containment→ARQ loop,
    /// execute the attacker's out-of-band intents, and classify the cell.
    ///
    /// # Errors
    ///
    /// [`SimError`] when the attack spec or co-fault is rejected by
    /// validation (nonexistent router, quarantined site, degenerate
    /// parameters) — a rejected cell is an error, not a matrix entry.
    pub fn run(&self, spec: &AttackSpec, fault: Option<&FaultSpec>) -> Result<AttackRun, SimError> {
        let AttackCampaignConfig { noc, opts } = &self.cc;
        let mut lp = ClosedLoop::new(noc, opts.policy, opts.arq);
        if let Some(f) = fault {
            f.validate_in(&lp.net)?;
            lp.net.arm_fault(f.site, f.kind, f.start);
        }
        lp.net.arm_attack(spec)?;
        let mut hook = AttackHook {
            cfg: noc,
            spec,
            bank_alerts: 0,
            suppressed: 0,
            suspicions: 0,
            performed: 0,
            skipped: 0,
            first_evidence: None,
        };
        let outcome = lp.rollout(self.active_end(), opts.watchdog, &mut hook);

        let verdict = verify_delivery(&lp.transport);
        let attack = lp.net.attack_stats();
        let tstats = lp.transport.stats();
        let recovery = lp.net.recovery_stats();
        let interference = effective_interference(&attack, hook.performed, hook.suppressed);
        let evidence = hook.bank_alerts + hook.suspicions + recovery.routers_marked_malicious;
        let mitigation = tstats.retransmits
            + tstats.duplicates_suppressed
            + tstats.misrouted_flits
            + tstats.stray_flits
            + tstats.corrupted_arrivals
            + tstats.stale_controls
            + tstats.forged_controls_ignored
            + recovery.alerts_consumed
            + recovery.squashes
            + recovery.resets
            + recovery.disables;
        let class = classify(interference, &outcome, verdict, evidence, mitigation);
        Ok(AttackRun {
            spec: *spec,
            fault: fault.copied(),
            class,
            outcome,
            verdict,
            attack,
            transport: tstats,
            recovery,
            bank_alerts: hook.bank_alerts,
            suppressed_alerts: hook.suppressed,
            suspicions: hook.suspicions,
            intents_performed: hook.performed,
            intents_skipped: hook.skipped,
            first_evidence_at: hook.first_evidence,
            end_cycle: lp.net.cycle(),
        })
    }

    /// [`AttackCampaign::run`] behind the campaign panic-isolation
    /// boundary: a panicking rollout becomes an [`AttackRun::crashed`]
    /// report.
    ///
    /// # Errors
    ///
    /// Validation failures propagate exactly as from
    /// [`AttackCampaign::run`]; only panics are converted to reports.
    pub fn run_isolated(
        &self,
        spec: &AttackSpec,
        fault: Option<&FaultSpec>,
    ) -> Result<AttackRun, SimError> {
        catch_payload(|| self.run(spec, fault))
            .unwrap_or_else(|panic| Ok(AttackRun::crashed(*spec, fault.copied(), panic)))
    }

    /// Runs every cell, `threads`-wide. One report per input cell, in
    /// input order; cells already present in a resumed journal are not
    /// re-run.
    ///
    /// # Errors
    ///
    /// Journal I/O and configuration-mismatch failures, and cell
    /// validation rejections ([`CampaignError::Substrate`]); per-cell
    /// crashes are *outcomes*, not errors.
    pub fn run_cells(
        &self,
        cells: &[AttackCell],
        threads: usize,
        opts: &ResilienceOptions,
    ) -> Result<SweepReport<AttackCellReport>, CampaignError> {
        sweep(
            &self.cc,
            cells,
            threads,
            opts,
            |r: &AttackCellReport| r.cell,
            || (),
            |_, cell| {
                let run = self
                    .run_isolated(&cell.spec, cell.fault.as_ref())
                    .map_err(CampaignError::Substrate)?;
                Ok(AttackCellReport { cell, run })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::{Hang, HangKind, Watchdog};
    use std::fs;

    fn noc() -> NocConfig {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.05;
        cfg
    }

    fn small_opts() -> RecoveryOptions {
        RecoveryOptions {
            warmup: 200,
            active_window: 1_500,
            watchdog: Watchdog {
                cycle_budget: 60_000,
                stall_window: 1_500,
            },
            ..RecoveryOptions::paper_defaults()
        }
    }

    fn harness() -> AttackCampaign {
        AttackCampaign::try_new(AttackCampaignConfig {
            noc: noc(),
            opts: small_opts(),
        })
        .expect("valid options")
    }

    fn spec(kind: AttackKind) -> AttackSpec {
        AttackSpec {
            router: 5,
            kind,
            start: 300,
            seed: 7,
        }
    }

    #[test]
    fn classify_is_conservative() {
        let q = RecoveryOutcome::Quiescent;
        assert_eq!(
            classify(0, &q, DeliveryVerdict::ExactlyOnce, 5, 5),
            AttackClass::Vacuous
        );
        assert_eq!(
            classify(3, &q, DeliveryVerdict::ExactlyOnce, 1, 0),
            AttackClass::DetectedByBank
        );
        assert_eq!(
            classify(3, &q, DeliveryVerdict::ExactlyOnce, 0, 2),
            AttackClass::MitigatedByArq
        );
        assert_eq!(
            classify(3, &q, DeliveryVerdict::ExactlyOnce, 0, 0),
            AttackClass::UndetectedLoss,
            "unexplained survival is not accepted"
        );
        // Loud loss: every lost message was given up on.
        let loud = DeliveryVerdict::Violated {
            undelivered: 2,
            gave_up: 2,
            duplicates: 0,
        };
        assert_eq!(classify(3, &q, loud, 0, 9), AttackClass::CaughtByOracle);
        assert_eq!(classify(3, &q, loud, 1, 9), AttackClass::DetectedByBank);
        // Silent loss in an apparently-healthy run is never excused.
        let silent = DeliveryVerdict::Violated {
            undelivered: 2,
            gave_up: 0,
            duplicates: 0,
        };
        assert_eq!(classify(3, &q, silent, 9, 9), AttackClass::UndetectedLoss);
        let dup = DeliveryVerdict::Violated {
            undelivered: 0,
            gave_up: 0,
            duplicates: 1,
        };
        assert_eq!(classify(3, &q, dup, 9, 9), AttackClass::UndetectedLoss);
        // A watchdog trip makes in-flight loss loud.
        let hung = RecoveryOutcome::Hung(Hang {
            kind: HangKind::CycleBudget,
            at_cycle: 1,
            stalled_for: 0,
        });
        assert_eq!(
            classify(3, &hung, silent, 0, 0),
            AttackClass::CaughtByOracle
        );
    }

    #[test]
    fn attacker_armed_after_the_window_is_vacuous() {
        let run = harness()
            .run(
                &AttackSpec {
                    start: 1_000_000,
                    ..spec(AttackKind::PacketDrop { every: 1 })
                },
                None,
            )
            .expect("valid cell");
        assert_eq!(run.class, AttackClass::Vacuous);
        assert_eq!(run.verdict, DeliveryVerdict::ExactlyOnce);
        assert_eq!(run.attack.interference(), 0);
    }

    #[test]
    fn ack_spoof_never_fakes_exactly_once() {
        // Full rate: the attacker swallows *every* passing data worm and
        // forges an ACK for each. Its forgeries are injected downstream of
        // its own egress filter, so every one genuinely reaches a NIC and
        // must be rejected by the keyed-tag check — the loudest possible
        // exercise of the spoof-hardened ARQ path.
        let run = harness()
            .run(&spec(AttackKind::AckSpoof { every: 1 }), None)
            .expect("valid cell");
        assert!(run.attack.packets_dropped > 0, "{run:?}");
        assert!(run.intents_performed > 0, "forged ACKs must be injected");
        assert!(
            run.transport.forged_controls_ignored > 0,
            "the hardened control path must reject the guessed tags: {run:?}"
        );
        assert!(run.suspicions > 0, "forgeries must be attributed");
        // The pinned property: a forged ACK never closes a window without
        // delivery, so any ExactlyOnce verdict is genuine and any loss is
        // loud. The full-rate cell's classification is pinned exactly —
        // the black-holed worms raise genuine bank evidence.
        assert_eq!(run.class, AttackClass::DetectedByBank, "{run:?}");
        if run.verdict == DeliveryVerdict::ExactlyOnce {
            assert_eq!(run.transport.delivered, run.transport.offered);
        }
    }

    #[test]
    fn misroute_is_discarded_at_the_wrong_nic_and_recovered_by_arq() {
        let run = harness()
            .run(&spec(AttackKind::Misroute { every: 1 }), None)
            .expect("valid cell");
        assert!(run.attack.packets_misrouted > 0, "{run:?}");
        assert!(
            run.transport.misrouted_flits > 0,
            "wrong-destination ejects must be discarded, not delivered: {run:?}"
        );
        assert_ne!(run.class, AttackClass::UndetectedLoss, "{run:?}");
        if let DeliveryVerdict::Violated { duplicates, .. } = run.verdict {
            assert_eq!(duplicates, 0, "misroute must never duplicate deliveries");
        }
    }

    #[test]
    fn suppression_cells_keep_detection_while_starving_containment() {
        let cfg = noc();
        let fault = covered_fault_for(&cfg, 5, 300).expect("router 5 has a covered site");
        let run = harness()
            .run(&spec(AttackKind::AlertSuppress), Some(&fault))
            .expect("valid cell");
        assert!(run.suppressed_alerts > 0, "{run:?}");
        assert!(run.bank_alerts >= run.suppressed_alerts);
        assert_ne!(run.class, AttackClass::UndetectedLoss, "{run:?}");
    }

    #[test]
    fn rejected_cells_are_errors_not_matrix_entries() {
        let h = harness();
        let bad = AttackSpec {
            router: 999,
            ..spec(AttackKind::PacketDrop { every: 1 })
        };
        assert!(h.run(&bad, None).is_err());
        let degenerate = spec(AttackKind::PacketDrop { every: 0 });
        assert!(h.run(&degenerate, None).is_err());
    }

    #[test]
    fn standard_cells_are_deterministic_and_cover_every_kind() {
        let cfg = noc();
        let a = standard_cells(&cfg, &[5, 6], 2, 300, 1);
        let b = standard_cells(&cfg, &[5, 6], 2, 300, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16, "8 kinds × 2 routers");
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|c| c.spec.seed).collect();
        assert_eq!(seeds.len(), a.len(), "per-cell seeds are distinct");
        assert!(a
            .iter()
            .all(|c| (c.spec.kind == AttackKind::AlertSuppress) == c.fault.is_some()));
    }

    #[test]
    fn journal_refuses_mismatched_config_and_populated_dir_without_resume() {
        let dir = std::env::temp_dir().join(format!("nocalert-attack-jr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cc = AttackCampaignConfig {
            noc: noc(),
            opts: small_opts(),
        };
        let campaign = AttackCampaign::try_new(cc.clone()).expect("valid");
        let cells = standard_cells(&cc.noc, &[5], 2, 300, 1);
        let one = &cells[..1];
        let opts = ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceOptions::default()
        };
        let first = campaign.run_cells(one, 1, &opts).expect("first run");
        assert_eq!(first.reports.len(), 1);
        assert_eq!(first.resumed, 0);

        // Populated dir without resume is refused.
        let err = campaign.run_cells(one, 1, &opts).unwrap_err();
        assert!(matches!(err, CampaignError::Checkpoint { .. }), "{err:?}");

        // Resume restores the completed cell bit-identically.
        let resumed = campaign
            .run_cells(
                one,
                1,
                &ResilienceOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    ..ResilienceOptions::default()
                },
            )
            .expect("resume");
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.reports, first.reports);

        // A different configuration is refused outright.
        let mut other = cc;
        other.opts.warmup = 999;
        let mismatch = AttackCampaign::try_new(other).expect("valid");
        let err = mismatch
            .run_cells(
                one,
                1,
                &ResilienceOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    ..ResilienceOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, CampaignError::CheckpointMismatch { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }
}
