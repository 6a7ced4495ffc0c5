//! Closed-loop recovery evaluation: detection driving containment, with
//! ARQ transport restoring end-to-end delivery (DESIGN.md §11).
//!
//! The detection campaigns ([`crate::campaign`]) keep NoCAlert purely
//! observational, exactly as the paper evaluates it. This module closes
//! the loop the paper defers to "an accompanying recovery mechanism":
//! every [`nocalert::AssertionEvent`] raised by the checker bank is
//! translated to a containment notification for the simulator's per-router
//! recovery controllers, and the NIC-level ARQ transport retransmits
//! whatever containment destroys. The harness then holds the system to a
//! *delivery* oracle — every offered application message arrives exactly
//! once, uncorrupted — rather than the flit-level golden diff, which by
//! design would flag the (expected, benign) retransmissions.
//!
//! Alert translation: a checker's [`nocalert::CheckerInfo::module`] says
//! whether its port context addresses an input or an output port
//! ([`noc_types::site::ModuleClass::port_is_output`]); output-side alerts
//! are mapped across the link to the downstream input VC inside
//! `Network::notify_alert`. The network-level end-to-end invariance 32
//! (`module == None`) is detection without localization and is not fed to
//! containment. The turn/progress checkers (invariances 1 and 3) stay
//! armed throughout: they are region-aware — once a port is fenced (or
//! fault-region tables install detours), each RC execution is excused
//! only when its output matches the active routing function's answer,
//! re-derived from the recorded fence/region registers — so a misroute
//! inside a degraded route is still caught.
//!
//! The loop itself — per-cycle alert delivery, the active window, the
//! watched drain and the partition-outranks-hang classification — is the
//! shared `closed_loop` driver, run here with the plain hook.
//! [`RecoveryCampaign`] sweeps it over fault specs through the shared
//! checkpointed sweep driver ([`crate::campaign::sweep`]).

use crate::campaign::resilience::catch_payload;
use crate::campaign::sweep::{sweep, ResilienceOptions, SweepReport};
use crate::campaign::CampaignError;
use crate::closed_loop::ClosedLoop;
use fault::{FaultSpec, Hang, Watchdog};
use noc_sim::{
    ArqConfig, ContainmentEvent, DeliveryRecord, Network, RecoveryPolicy, RecoveryStats, Transport,
    TransportStats,
};
use noc_types::{Cycle, NocConfig, SimError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Everything configurable about one recovery rollout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOptions {
    /// Containment escalation thresholds.
    pub policy: RecoveryPolicy,
    /// Retransmission policy of the end-to-end transport.
    pub arq: ArqConfig,
    /// Fault-free warm-up cycles before the measurement window.
    pub warmup: Cycle,
    /// Measured cycles with injection enabled (faults are active here).
    pub active_window: Cycle,
    /// Hang detection: total cycle budget and drain stall window.
    pub watchdog: Watchdog,
}

impl RecoveryOptions {
    /// Defaults matching the detection campaigns' scale: short warm-up, a
    /// measurement window long enough for several ARQ round trips, and the
    /// stock watchdog.
    pub fn paper_defaults() -> RecoveryOptions {
        RecoveryOptions {
            policy: RecoveryPolicy::default_policy(),
            arq: ArqConfig::default_policy(),
            warmup: 500,
            active_window: 6_000,
            watchdog: Watchdog {
                cycle_budget: 200_000,
                stall_window: 2_000,
            },
        }
    }

    /// Validates every nested policy.
    ///
    /// # Errors
    ///
    /// Propagates the first invalid nested policy
    /// ([`noc_types::SimError::ArqInvalid`] /
    /// [`noc_types::SimError::WatchdogInvalid`]).
    pub fn validate(&self) -> Result<(), SimError> {
        self.policy.validate()?;
        self.arq.validate()?;
        self.watchdog.validate()
    }
}

/// How a recovery rollout ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryOutcome {
    /// The network drained and the transport reached quiescence (every
    /// message acknowledged or given up on) inside the watchdog budget.
    Quiescent,
    /// A watchdog tripped first.
    Hung(Hang),
    /// The fault-region map reports a true network partition: the live
    /// graph split into this many components. Cross-partition traffic is
    /// unreachable by construction, so this is a terminal topology state
    /// — reported explicitly, never as a hang.
    Partitioned {
        /// Live components remaining.
        components: u32,
    },
    /// The rollout panicked (only produced by [`RecoveryCampaign::run_isolated`]).
    Crashed(String),
}

/// The delivery oracle's judgement of one rollout.
///
/// Retransmissions are expected; what is *not* tolerated is silent loss,
/// duplication towards the application, or a corrupted copy being
/// delivered (corrupted completes are NACKed and never enter the record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryVerdict {
    /// Every offered message was delivered exactly once, uncorrupted.
    ExactlyOnce,
    /// End-to-end delivery was violated.
    Violated {
        /// Offered messages never delivered (in flight at the end or
        /// abandoned).
        undelivered: u64,
        /// Messages the sender abandoned after `max_retries`.
        gave_up: u64,
        /// Application-level duplicate deliveries (dedup failure).
        duplicates: u64,
    },
}

/// Full result of one closed-loop rollout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRun {
    /// The injected fault, if any.
    pub spec: Option<FaultSpec>,
    /// How the rollout ended.
    pub outcome: RecoveryOutcome,
    /// The delivery oracle's judgement.
    pub verdict: DeliveryVerdict,
    /// Transport counters (offered/delivered/retransmits/ACK overhead…).
    pub transport: TransportStats,
    /// Containment counters (squashes/resets/disables/fenced ports…).
    pub recovery: RecoveryStats,
    /// Every containment action, in order.
    pub trace: Vec<ContainmentEvent>,
    /// Every exactly-once delivery, in arrival order (latency data).
    pub deliveries: Vec<DeliveryRecord>,
    /// Assertions the checker bank raised.
    pub alerts: u64,
    /// Distinct checker ids that asserted, ascending (Table-1 numbering).
    pub checkers: Vec<u8>,
    /// Cycle of the first bank assertion, if any fired.
    pub first_alert_at: Option<Cycle>,
    /// Observable fault activations.
    pub fault_hits: u64,
    /// Final simulation cycle.
    pub end_cycle: Cycle,
}

impl RecoveryRun {
    /// The placeholder for a rollout that panicked with `panic`: a loud
    /// (violated) verdict and empty counters.
    pub fn crashed(spec: Option<FaultSpec>, panic: String) -> RecoveryRun {
        RecoveryRun {
            spec,
            outcome: RecoveryOutcome::Crashed(panic),
            verdict: DeliveryVerdict::Violated {
                undelivered: 0,
                gave_up: 0,
                duplicates: 0,
            },
            transport: TransportStats::default(),
            recovery: RecoveryStats::default(),
            trace: Vec::new(),
            deliveries: Vec::new(),
            alerts: 0,
            checkers: Vec::new(),
            first_alert_at: None,
            fault_hits: 0,
            end_cycle: 0,
        }
    }

    /// Delivered-to-offered ratio in `[0, 1]` (1.0 when nothing was
    /// offered).
    pub fn delivery_ratio(&self) -> f64 {
        if self.transport.offered == 0 {
            1.0
        } else {
            self.transport.delivered as f64 / self.transport.offered as f64
        }
    }

    /// Wire overhead beyond one transmission per message: retransmissions
    /// plus control packets, per offered message.
    pub fn overhead_per_message(&self) -> f64 {
        overhead_per_message(&self.transport)
    }
}

/// Retransmissions plus control packets per offered message (0 when
/// nothing was offered).
pub(crate) fn overhead_per_message(t: &TransportStats) -> f64 {
    if t.offered == 0 {
        return 0.0;
    }
    (t.retransmits + t.acks_sent + t.nacks_sent) as f64 / t.offered as f64
}

/// Judges the transport's end state against exactly-once semantics.
///
/// This is a *delivery* oracle: it asks whether the application saw every
/// offered message exactly once. Whether the network itself drained (it
/// may hold quarantined garbage flits forever under a permanent fault) is
/// the rollout outcome's business, not the verdict's.
pub fn verify_delivery(transport: &Transport) -> DeliveryVerdict {
    let s = transport.stats();
    let mut apps = BTreeSet::new();
    let mut duplicates = 0u64;
    for rec in transport.records() {
        if !apps.insert(rec.app) {
            duplicates += 1;
        }
    }
    let undelivered = s.offered.saturating_sub(s.delivered);
    if undelivered == 0 && duplicates == 0 {
        DeliveryVerdict::ExactlyOnce
    } else {
        DeliveryVerdict::Violated {
            undelivered,
            gave_up: s.gave_up,
            duplicates,
        }
    }
}

/// True when faults on `signal` are *containment-covered*: localizable to
/// one input VC by the checkers that observe them, and fully masked by the
/// VC-granular escalation machine (empirically verified across all four
/// fault classes at every such site).
///
/// What is excluded, and why:
///
/// * `RcDestX`/`RcDestY` — the destination wires feed the minimal-routing
///   checker's *own input cone*, so a corrupted destination routes
///   "correctly" toward the wrong node; only the unlocalized end-to-end
///   invariance fires, and containment has no target.
/// * `VcStateCode` — some stuck-at values wedge the VC state machine in a
///   legal-looking state that raises no alert at all.
/// * `VcOutPort`/`VcOutVc` — bit-flipped but *valid* encodings misroute
///   through legal turns; alerts accumulate too slowly downstream to
///   localize the source VC reliably.
/// * Arbitration and crossbar wires (`Va*`, `Sa*`, `Xbar*`) — the faulty
///   hardware is port-granular; disabling suspect input VCs cannot mask a
///   broken arbiter that corrupts every VC behind its port.
///
/// Faults at non-covered sites remain *detected* (the detection campaigns
/// are unchanged); they are just not guaranteed survivable, and the
/// recovery campaign reports their delivered ratio separately.
pub fn containment_covered(signal: noc_types::site::SignalKind) -> bool {
    // The canonical set lives in `noc-types` so the static detectability
    // prover (`noc-lint --pass detect`) and this harness agree by
    // construction.
    noc_types::site::containment_covered(signal)
}

/// The standard recovery work-list: every containment-covered fault
/// site crossed with all five fault classes (transient, intermittent,
/// permanent, stuck-at-0, stuck-at-1), site-major. The five specs of a
/// site carry distinct [`noc_types::FaultKind`]s, so each spec is a
/// unique journal key. `start` is the injection instant; `period`/`duty`
/// shape the intermittent class.
pub fn standard_recovery_specs(
    cfg: &NocConfig,
    start: Cycle,
    period: u32,
    duty: u32,
) -> Vec<FaultSpec> {
    fault::enumerate_sites(cfg)
        .into_iter()
        .filter(|s| containment_covered(s.signal))
        .flat_map(|site| {
            [
                FaultSpec::transient(site, start),
                FaultSpec::intermittent(site, period, duty, start),
                FaultSpec::permanent(site, start),
                FaultSpec::stuck_at(site, false, start),
                FaultSpec::stuck_at(site, true, start),
            ]
        })
        .collect()
}

/// Everything that identifies a recovery campaign: rollouts computed
/// under different configurations cannot be mixed, so the journal
/// refuses a directory whose config differs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCampaignConfig {
    /// Network configuration.
    pub noc: NocConfig,
    /// Closed-loop rollout options.
    pub opts: RecoveryOptions,
}

/// One journal line: a fault spec and its completed rollout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySiteReport {
    /// The injected fault.
    pub spec: FaultSpec,
    /// Its rollout result.
    pub run: RecoveryRun,
}

impl SweepReport<RecoverySiteReport> {
    /// Rollouts whose delivery verdict was exactly-once.
    pub fn exactly_once(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.run.verdict == DeliveryVerdict::ExactlyOnce)
            .count()
    }
}

/// The recovery campaign: one closed-loop rollout per fault spec, and
/// the sweep of a work-list of them behind the panic-isolation boundary
/// through the shared checkpointed sweep driver (journal, resume,
/// cancellation, round-robin workers), so the aggregate is bit-identical
/// for any worker count.
#[derive(Debug, Clone)]
pub struct RecoveryCampaign {
    cc: RecoveryCampaignConfig,
}

impl RecoveryCampaign {
    /// Builds the campaign after validating the rollout options.
    ///
    /// # Errors
    ///
    /// Propagates [`RecoveryOptions::validate`] failures.
    pub fn try_new(cc: RecoveryCampaignConfig) -> Result<RecoveryCampaign, CampaignError> {
        cc.opts.validate().map_err(CampaignError::Substrate)?;
        Ok(RecoveryCampaign { cc })
    }

    /// The cycle at which the measurement window ends and draining begins.
    pub fn active_end(&self) -> Cycle {
        self.cc
            .opts
            .warmup
            .saturating_add(self.cc.opts.active_window)
    }

    /// One closed-loop rollout: inject `spec` (or nothing, for the
    /// baseline), feed every alert to containment, retransmit end to end,
    /// and drain until the transport is quiescent or a watchdog trips.
    pub fn run(&self, spec: Option<&FaultSpec>) -> RecoveryRun {
        self.run_prepared(spec, |_| {})
    }

    /// [`RecoveryCampaign::run`] with a pre-damaged topology: `prepare`
    /// runs before the first cycle and may sever links or quarantine
    /// routers outright — how the partition-classification tests build a
    /// mesh that is already split when traffic starts.
    pub fn run_prepared(
        &self,
        spec: Option<&FaultSpec>,
        prepare: impl FnOnce(&mut Network),
    ) -> RecoveryRun {
        let RecoveryCampaignConfig { noc, opts } = &self.cc;
        let mut lp = ClosedLoop::new(noc, opts.policy, opts.arq);
        prepare(&mut lp.net);
        if let Some(s) = spec {
            lp.net.arm_fault(s.site, s.kind, s.start);
        }
        let outcome = lp.rollout(self.active_end(), opts.watchdog, &mut ());
        let ClosedLoop {
            net,
            bank,
            transport,
            ..
        } = &lp;
        RecoveryRun {
            spec: spec.copied(),
            outcome,
            verdict: verify_delivery(transport),
            transport: transport.stats(),
            recovery: net.recovery_stats(),
            trace: net.recovery_trace().to_vec(),
            deliveries: transport.records().to_vec(),
            alerts: bank.assertions().len() as u64,
            checkers: bank.asserted_set().iter().map(|c| c.0).collect(),
            first_alert_at: bank.assertions().first().map(|e| e.cycle),
            fault_hits: net.fault_hits(),
            end_cycle: net.cycle(),
        }
    }

    /// [`RecoveryCampaign::run`] behind the campaign panic-isolation
    /// boundary: a panicking rollout becomes a [`RecoveryRun::crashed`]
    /// report instead of taking the sweep down.
    pub fn run_isolated(&self, spec: Option<&FaultSpec>) -> RecoveryRun {
        catch_payload(|| self.run(spec))
            .unwrap_or_else(|panic| RecoveryRun::crashed(spec.copied(), panic))
    }

    /// Runs every spec, `threads`-wide. One report per input spec, in
    /// input order; specs already present in a resumed journal are not
    /// re-run.
    ///
    /// # Errors
    ///
    /// Journal I/O and configuration-mismatch failures; per-rollout
    /// crashes are *outcomes*, not errors.
    pub fn run_specs(
        &self,
        specs: &[FaultSpec],
        threads: usize,
        opts: &ResilienceOptions,
    ) -> Result<SweepReport<RecoverySiteReport>, CampaignError> {
        sweep(
            &self.cc,
            specs,
            threads,
            opts,
            |r: &RecoverySiteReport| r.spec,
            || (),
            |_, spec| {
                Ok(RecoverySiteReport {
                    spec,
                    run: self.run_isolated(Some(&spec)),
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn options_validation_propagates() {
        let mut opts = RecoveryOptions::paper_defaults();
        assert!(opts.validate().is_ok());
        opts.watchdog.cycle_budget = 0;
        assert!(opts.validate().is_err());
        opts = RecoveryOptions::paper_defaults();
        opts.arq.ack_timeout = 0;
        assert!(opts.validate().is_err());
        opts = RecoveryOptions::paper_defaults();
        opts.policy.reset_threshold = 0;
        assert!(opts.validate().is_err());
    }

    #[test]
    fn fault_free_baseline_is_exactly_once_with_no_containment() {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.05;
        let h = RecoveryCampaign::try_new(RecoveryCampaignConfig {
            noc: cfg,
            opts: small_opts(),
        })
        .expect("valid options");
        let run = h.run(None);
        assert_eq!(run.outcome, RecoveryOutcome::Quiescent);
        assert_eq!(run.verdict, DeliveryVerdict::ExactlyOnce);
        assert_eq!(run.alerts, 0, "fault-free runs never assert");
        assert_eq!(run.recovery.alerts_consumed, 0);
        assert!(run.trace.is_empty());
        assert!(run.transport.offered > 0);
        assert_eq!(run.transport.retransmits, 0);
        assert_eq!(run.delivery_ratio(), 1.0);
    }

    #[test]
    fn campaign_resume_is_bit_identical_at_any_worker_count() {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.05;
        let cc = RecoveryCampaignConfig {
            noc: cfg.clone(),
            opts: small_opts(),
        };
        let campaign = RecoveryCampaign::try_new(cc).expect("valid");
        let specs: Vec<FaultSpec> = standard_recovery_specs(&cfg, 1_200, 50, 10)
            .into_iter()
            .take(4)
            .collect();
        assert_eq!(specs.len(), 4);
        let dir = std::env::temp_dir().join(format!("nocalert-rcamp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceOptions::default()
        };
        let first = campaign.run_specs(&specs, 2, &opts).expect("first run");
        assert_eq!(first.reports.len(), 4);
        assert!(!first.interrupted);

        // Populated dir without resume is refused.
        let err = campaign.run_specs(&specs, 1, &opts).unwrap_err();
        assert!(matches!(err, CampaignError::Checkpoint { .. }), "{err:?}");

        // Resume at a different worker count restores everything
        // bit-identically without re-running.
        let resumed = campaign
            .run_specs(
                &specs,
                3,
                &ResilienceOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    ..ResilienceOptions::default()
                },
            )
            .expect("resume");
        assert_eq!(resumed.resumed, 4);
        assert_eq!(resumed.reports, first.reports);

        // A memory-only run at yet another worker count agrees too.
        let direct = campaign
            .run_specs(&specs, 1, &ResilienceOptions::default())
            .expect("direct");
        assert_eq!(direct.reports, first.reports);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_runs_are_contained() {
        // The harness itself should not panic on a degenerate zero-node
        // exercise of run_isolated's happy path; the Crashed arm is
        // exercised indirectly by the campaign resilience tests.
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.02;
        let h = RecoveryCampaign::try_new(RecoveryCampaignConfig {
            noc: cfg,
            opts: small_opts(),
        })
        .expect("valid options");
        let run = h.run_isolated(None);
        assert_eq!(run.outcome, RecoveryOutcome::Quiescent);
    }
}
