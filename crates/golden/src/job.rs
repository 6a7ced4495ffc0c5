//! Job driver: executes a serialized [`JobSpec`] against the campaign
//! engines on behalf of the `nocalertd` service (DESIGN.md §15).
//!
//! The driver translates a wire-level spec into the engine calls a
//! direct run would make — [`Campaign`] for transient sweeps,
//! [`RecoveryCampaign`] for containment sweeps, [`AttackCampaign`] for
//! the compromised-router matrix, and [`AgingHarness`] for
//! accumulating-fault epochs — so a job's aggregates are bit-identical
//! to an in-process [`JobDriver::run`] of the same spec at any worker
//! count, including across kill/resume cycles.
//!
//! Three service concerns layer on top of the raw engines:
//!
//! * **One sweep per job.** Each transient, recovery and attack job is
//!   one sweep over its whole work-list, so a durable job reads its
//!   journal once. The sweep runs on a scoped thread and reports each
//!   unit once its row is durable; the calling thread relays every
//!   report as a [`JobEvent::Progress`]. Cancellation is the sweep's own
//!   check between units; aging stops between epochs.
//! * **Golden-reference caching.** [`GoldenCache`] memoises warmed
//!   [`Campaign`]s by configuration so concurrent/sequential transient
//!   jobs with the same configuration share one golden trajectory
//!   instead of re-simulating the warm-up per job.
//! * **Incident clustering.** Raw per-site reports are folded into
//!   [`Incident`] timelines (fault site → checker firings → containment
//!   actions → delivery outcome) in canonical input order, plus an
//!   FNV-1a digest over the canonical report serialization — the
//!   bit-identity comparator the service's tests pin.

use crate::aging::{AgingError, AgingHarness, AgingOptions, EpochReport};
use crate::attack::{
    standard_cells, AttackCampaign, AttackCampaignConfig, AttackCellReport, AttackClass,
};
use crate::campaign::resilience::panic_detail;
use crate::campaign::{
    Campaign, CampaignConfig, CampaignError, ResilienceOptions, RunOutcome, SiteReport, SweepReport,
};
use crate::recovery::{
    standard_recovery_specs, DeliveryVerdict, RecoveryCampaign, RecoveryCampaignConfig,
    RecoveryOptions, RecoverySiteReport,
};
use fault::{FaultSpec, Watchdog};
use noc_types::config::ConfigError;
use noc_types::{
    ContainmentStep, Cycle, Incident, JobEvent, JobKind, JobResult, JobSpec, SimError,
};
use serde::Serialize;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Serializes any compat-serde value to its canonical JSON string.
///
/// The compat serializer is infallible (every `to_value` is total), so
/// this helper is too — it exists to give the cache key and the digest
/// one canonical rendering.
fn json_of<T: Serialize>(v: &T) -> String {
    let mut out = String::new();
    v.to_value().write_json(&mut out);
    out
}

/// FNV-1a (64-bit) digest over the canonical serialization of `rows`,
/// one JSON line per row, in order. Hex-encoded.
///
/// This is the service's bit-identity comparator: two runs of the same
/// spec — at different worker counts or across a kill/resume cycle —
/// must produce the same digest.
pub fn digest_rows<T: Serialize>(rows: &[T]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        let mut line = json_of(row);
        line.push('\n');
        for byte in line.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Memoised warmed transient campaigns, keyed by configuration.
///
/// [`Campaign::try_new`] is the expensive step of a transient job (it
/// runs the fault-free warm-up and the golden rollout); the service
/// shares one instance across every job with the same
/// [`CampaignConfig`]. Entries are kept for the cache's lifetime — the
/// working set is one entry per distinct configuration the service has
/// seen, and a `Campaign` is a few snapshots, not a full trajectory
/// store, until the batched engine lazily builds its cache inside.
#[derive(Debug, Default)]
pub struct GoldenCache {
    campaigns: Mutex<HashMap<String, Arc<Campaign>>>,
}

impl GoldenCache {
    /// An empty cache.
    pub fn new() -> GoldenCache {
        GoldenCache::default()
    }

    /// Number of distinct configurations cached.
    pub fn len(&self) -> usize {
        self.campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The warmed campaign for `cc`, building it on first use.
    ///
    /// The build runs outside the lock (it can take seconds), so two
    /// racing jobs may both build; the first to finish wins and the
    /// loser's copy is dropped — results are identical either way.
    ///
    /// # Errors
    ///
    /// Propagates [`Campaign::try_new`] failures (warm-up violation,
    /// golden reference not drained, invalid configuration).
    pub fn get(&self, cc: &CampaignConfig) -> Result<Arc<Campaign>, CampaignError> {
        let key = json_of(cc);
        if let Some(hit) = self
            .campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Ok(Arc::clone(hit));
        }
        let built = Arc::new(Campaign::try_new(cc.clone())?);
        let mut map = self
            .campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&built));
        Ok(Arc::clone(entry))
    }
}

/// Executes [`JobSpec`]s through the campaign engines, streaming
/// [`JobEvent`]s to a caller-supplied sink.
#[derive(Debug, Clone, Default)]
pub struct JobDriver {
    /// Durable checkpoint/journal directory for this job. `None` runs
    /// memory-only (no kill-safety, no resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Treat a populated checkpoint directory as prior progress instead
    /// of refusing it. The service sets this when re-enqueueing
    /// incomplete jobs after a restart.
    pub resume: bool,
    /// Cooperative cancellation flag, checked between units (between
    /// epochs for aging).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Shared golden-reference cache for transient jobs.
    pub cache: Arc<GoldenCache>,
}

impl JobDriver {
    /// Runs `spec` to completion (or cancellation), emitting progress
    /// and incident events to `on_event`, and returns the aggregate.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Substrate`] for an invalid spec, plus every
    /// engine error (checkpoint refusal/corruption, warm-up violation,
    /// lost worker). A cancelled job is *not* an error: it returns a
    /// result with `interrupted = true` covering the units that did run.
    pub fn run(
        &self,
        spec: &JobSpec,
        on_event: &mut dyn FnMut(JobEvent),
    ) -> Result<JobResult, CampaignError> {
        spec.validate().map_err(CampaignError::Substrate)?;
        match spec.kind {
            JobKind::Transient => self.run_transient(spec, on_event),
            JobKind::Recovery => self.run_recovery(spec, on_event),
            JobKind::Attack => self.run_attack(spec, on_event),
            JobKind::Aging => self.run_aging(spec, on_event),
        }
    }

    /// The injection instant shared by the recovery and attack sweeps:
    /// a quarter into the active window, so containment has the rest of
    /// the window plus the drain to act.
    fn sweep_start(spec: &JobSpec) -> Cycle {
        spec.warmup + (spec.window / 4).max(1)
    }

    /// Closed-loop rollout options shared by the recovery and attack
    /// sweeps: paper-shaped policies under the job's window geometry.
    fn sweep_opts(spec: &JobSpec) -> RecoveryOptions {
        RecoveryOptions {
            warmup: spec.warmup,
            active_window: spec.window,
            ..RecoveryOptions::paper_defaults()
        }
    }

    /// Runs `sweep` — one campaign call over a whole work-list of
    /// `total` units — on a scoped thread whose options carry a progress
    /// sender, and relays each report as a [`JobEvent::Progress`] on the
    /// calling thread. A panic that escapes the engines' own isolation
    /// comes back as [`CampaignError::WorkerLost`].
    fn relay<R: Send>(
        &self,
        total: usize,
        sweep: impl FnOnce(&ResilienceOptions) -> Result<SweepReport<R>, CampaignError> + Send,
        on_event: &mut dyn FnMut(JobEvent),
    ) -> Result<SweepReport<R>, CampaignError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let opts = ResilienceOptions {
            checkpoint_dir: self.checkpoint_dir.clone(),
            resume: self.resume,
            cancel: self.cancel.clone(),
            progress: Some(tx),
        };
        std::thread::scope(|scope| {
            // The thread owns the only sender, so the relay ends with it.
            let run = scope.spawn(move || sweep(&opts));
            let mut done = 0;
            for units in rx {
                done += units;
                on_event(JobEvent::Progress {
                    done: done as u32,
                    total: total as u32,
                });
            }
            run.join().map_err(|p| CampaignError::WorkerLost {
                detail: panic_detail(p),
            })?
        })
    }

    fn run_transient(
        &self,
        spec: &JobSpec,
        on_event: &mut dyn FnMut(JobEvent),
    ) -> Result<JobResult, CampaignError> {
        let mut cc = CampaignConfig::paper_defaults(spec.noc.clone(), spec.warmup);
        cc.active_window = spec.window;
        let campaign = self.cache.get(&cc)?;
        let sites = fault::enumerate_sites(&spec.noc);
        let sites = match spec.limit {
            Some(limit) => fault::sample::stride(&sites, limit as usize),
            None => sites,
        };
        let specs: Vec<FaultSpec> = sites
            .iter()
            .map(|&s| FaultSpec::transient(s, campaign.injection_cycle()))
            .collect();
        let threads = spec.threads as usize;
        let done = self.relay(
            specs.len(),
            |opts| campaign.run_many_resilient(&specs, threads, Watchdog::default_policy(), opts),
            on_event,
        )?;
        let detected = done
            .reports
            .iter()
            .filter(|r| {
                r.outcome
                    .run_result()
                    .is_some_and(|res| res.nocalert.detected)
            })
            .count();
        let summary = format!(
            "transient: {}/{} sites ran, nocalert detected {}, resumed {}",
            done.reports.len(),
            specs.len(),
            detected,
            done.resumed
        );
        Ok(job_result(&done, transient_incident, summary, on_event))
    }

    fn run_recovery(
        &self,
        spec: &JobSpec,
        on_event: &mut dyn FnMut(JobEvent),
    ) -> Result<JobResult, CampaignError> {
        let cc = RecoveryCampaignConfig {
            noc: spec.noc.clone(),
            opts: Self::sweep_opts(spec),
        };
        let campaign = RecoveryCampaign::try_new(cc)?;
        let mut specs = standard_recovery_specs(&spec.noc, Self::sweep_start(spec), 50, 10);
        if let Some(limit) = spec.limit {
            specs.truncate(limit as usize);
        }
        let done = self.relay(
            specs.len(),
            |opts| campaign.run_specs(&specs, spec.threads as usize, opts),
            on_event,
        )?;
        let summary = format!(
            "recovery: {}/{} rollouts ran, {} exactly-once, resumed {}",
            done.reports.len(),
            specs.len(),
            done.exactly_once(),
            done.resumed
        );
        Ok(job_result(&done, recovery_incident, summary, on_event))
    }

    fn run_attack(
        &self,
        spec: &JobSpec,
        on_event: &mut dyn FnMut(JobEvent),
    ) -> Result<JobResult, CampaignError> {
        let cc = AttackCampaignConfig {
            noc: spec.noc.clone(),
            opts: Self::sweep_opts(spec),
        };
        let campaign = AttackCampaign::try_new(cc)?;
        let routers: Vec<u16> = (0..spec.noc.mesh.len() as u16).collect();
        // Full-rate attackers ({every: 1}): the strongest adversary and
        // the AckSpoof regression pin.
        let mut cells = standard_cells(
            &spec.noc,
            &routers,
            1,
            Self::sweep_start(spec),
            spec.noc.seed,
        );
        if let Some(limit) = spec.limit {
            cells.truncate(limit as usize);
        }
        let done = self.relay(
            cells.len(),
            |opts| campaign.run_cells(&cells, spec.threads as usize, opts),
            on_event,
        )?;
        let summary = attack_summary(&done, cells.len());
        Ok(job_result(&done, attack_incident, summary, on_event))
    }

    /// The aging options a job spec maps to: smoke-scale for meshes up
    /// to 4×4, paper-scale otherwise, with the job's traffic seed,
    /// warm-up and epoch window substituted in. Public so clients can
    /// predict the exact campaign a spec runs.
    pub fn aging_options(spec: &JobSpec) -> AgingOptions {
        let mut opts = if spec.noc.mesh.width() <= 4 {
            AgingOptions::smoke_defaults()
        } else {
            AgingOptions::paper_defaults()
        };
        opts.noc.seed = spec.noc.seed;
        opts.warmup = spec.warmup;
        opts.epoch_window = spec.window;
        if let Some(limit) = spec.limit {
            opts.organic_epochs = opts.organic_epochs.min(limit);
        }
        opts
    }

    fn run_aging(
        &self,
        spec: &JobSpec,
        on_event: &mut dyn FnMut(JobEvent),
    ) -> Result<JobResult, CampaignError> {
        let harness = AgingHarness::try_new(Self::aging_options(spec)).map_err(aging_err)?;
        let total = harness.plan().len() as u32;

        let (prior, mut log) = match &self.checkpoint_dir {
            Some(dir) => {
                let (rows, writer) = harness.open_journal(dir, self.resume)?;
                (rows, Some(writer))
            }
            None => (Vec::new(), None),
        };
        let resumed = prior.len();

        // The harness runs one continuous simulation, so progress and
        // checkpoint rows are emitted from inside its epoch callback,
        // which also stops the run between epochs on cancellation or on
        // an append failure (re-raised after the run).
        let mut log_err: Option<CampaignError> = None;
        let report = harness
            .run(&prior, |row| {
                if let Some(log) = log.as_mut() {
                    if let Err(e) = log.append(row) {
                        log_err = Some(e);
                        return ControlFlow::Break(());
                    }
                }
                on_event(JobEvent::Progress {
                    done: row.epoch + 1,
                    total: total.max(row.epoch + 1),
                });
                let cancelled = self
                    .cancel
                    .as_ref()
                    .is_some_and(|c| c.load(Ordering::SeqCst));
                if cancelled {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .map_err(aging_err)?;
        if let Some(e) = log_err {
            return Err(e);
        }

        let survived = report.epochs.iter().filter(|e| e.exactly_once).count();
        let summary = format!(
            "aging: {} epochs, {} exactly-once, partition at end: {}, resumed {}",
            report.epochs.len(),
            survived,
            report.partition().is_some(),
            resumed
        );
        let interrupted = report.interrupted(total as usize);
        let done = SweepReport {
            reports: report.epochs,
            resumed,
            corrupt_lines: 0,
            interrupted,
        };
        Ok(job_result(&done, aging_incident, summary, on_event))
    }
}

/// Folds a job's finished rows into its result: one [`Incident`] per row
/// in row order (each also emitted as a [`JobEvent::Incident`]), and the
/// digest over the rows.
fn job_result<R: Serialize>(
    done: &SweepReport<R>,
    incident: fn(u32, &R) -> Incident,
    summary: String,
    on_event: &mut dyn FnMut(JobEvent),
) -> JobResult {
    let incidents: Vec<Incident> = done
        .reports
        .iter()
        .enumerate()
        .map(|(id, r)| incident(id as u32, r))
        .collect();
    for inc in &incidents {
        on_event(JobEvent::Incident(inc.clone()));
    }
    JobResult {
        digest: digest_rows(&done.reports),
        summary,
        incidents,
        resumed: done.resumed as u32,
        interrupted: done.interrupted,
    }
}

/// The attack job's one-line summary. A cell counts as an undetected
/// loss exactly when the classifier put it in
/// [`AttackClass::UndetectedLoss`] — the bucket the `attack` bench gates
/// on; loud failures (crashes, give-ups, watchdog trips) are not.
fn attack_summary(done: &SweepReport<AttackCellReport>, total: usize) -> String {
    let undetected_loss = done
        .reports
        .iter()
        .filter(|r| r.run.class == AttackClass::UndetectedLoss)
        .count();
    format!(
        "attack: {}/{} cells ran, {} undetected-loss, resumed {}",
        done.reports.len(),
        total,
        undetected_loss,
        done.resumed
    )
}

/// Maps an aging-harness error into the campaign error vocabulary the
/// driver speaks.
fn aging_err(e: AgingError) -> CampaignError {
    match e {
        AgingError::Invalid(sim) => CampaignError::Substrate(sim),
        AgingError::Options(msg) => {
            CampaignError::Substrate(SimError::Config(ConfigError::new(msg)))
        }
        AgingError::ResumeDivergence { epoch } => CampaignError::Checkpoint {
            path: PathBuf::new(),
            detail: format!("aging resume diverged at epoch {epoch}"),
        },
    }
}

/// Renders a delivery verdict for an incident's `delivery` field.
fn delivery_label(v: &DeliveryVerdict) -> String {
    match v {
        DeliveryVerdict::ExactlyOnce => "exactly-once".to_string(),
        DeliveryVerdict::Violated {
            undelivered,
            gave_up,
            duplicates,
        } => {
            format!("violated: undelivered={undelivered} gave_up={gave_up} duplicates={duplicates}")
        }
    }
}

fn transient_incident(id: u32, r: &SiteReport) -> Incident {
    let subject = format!("{:?} @ {}", r.spec.kind, r.spec.site);
    match &r.outcome {
        RunOutcome::Completed(res) | RunOutcome::Deadlock { result: res, .. } => {
            let first_cycle = res
                .nocalert
                .latency
                .map(|l| res.injected_at.saturating_add(l));
            let last_cycle = match &r.outcome {
                RunOutcome::Deadlock { hang, .. } => hang.at_cycle,
                _ => first_cycle.unwrap_or(res.injected_at),
            };
            let delivery = if res.verdict.malicious() {
                format!(
                    "malicious {:?}; nocalert {}",
                    res.verdict.violations,
                    if res.nocalert.detected {
                        "detected"
                    } else {
                        "undetected"
                    }
                )
            } else if res.nocalert.detected {
                "benign; nocalert detected (false positive)".to_string()
            } else {
                "benign".to_string()
            };
            Incident {
                id,
                subject,
                first_cycle,
                last_cycle,
                checkers: res.checkers.iter().map(|c| c.0).collect(),
                alerts: res.checkers.len() as u64,
                containment: Vec::new(),
                delivery,
            }
        }
        RunOutcome::Crashed {
            injected_at,
            payload,
            ..
        } => Incident {
            id,
            subject,
            first_cycle: None,
            last_cycle: *injected_at,
            checkers: Vec::new(),
            alerts: 0,
            containment: Vec::new(),
            delivery: format!("crashed: {payload}"),
        },
    }
}

fn recovery_incident(id: u32, r: &RecoverySiteReport) -> Incident {
    let run = &r.run;
    Incident {
        id,
        subject: format!("{:?} @ {}", r.spec.kind, r.spec.site),
        first_cycle: run.first_alert_at,
        last_cycle: run.end_cycle,
        checkers: run.checkers.clone(),
        alerts: run.alerts,
        containment: run
            .trace
            .iter()
            .map(|e| ContainmentStep {
                cycle: e.cycle,
                router: e.router,
                port: e.port,
                vc: e.vc,
                action: format!("{:?}", e.level),
                flits_dropped: e.flits_dropped,
            })
            .collect(),
        delivery: format!("{:?}; {}", run.outcome, delivery_label(&run.verdict)),
    }
}

fn attack_incident(id: u32, r: &AttackCellReport) -> Incident {
    let run = &r.run;
    Incident {
        id,
        subject: format!("{:?} attack @ r{}", r.cell.spec.kind, r.cell.spec.router),
        first_cycle: run.first_evidence_at,
        last_cycle: run.end_cycle,
        checkers: Vec::new(),
        alerts: run.bank_alerts,
        containment: Vec::new(),
        delivery: format!("{:?}; {}", run.class, delivery_label(&run.verdict)),
    }
}

fn aging_incident(id: u32, e: &EpochReport) -> Incident {
    Incident {
        id,
        subject: format!("epoch {} {:?}", e.epoch, e.fault),
        first_cycle: Some(e.start_cycle),
        last_cycle: e.end_cycle,
        checkers: Vec::new(),
        alerts: e.alerts,
        containment: Vec::new(),
        delivery: format!(
            "{:?}; {}/{} delivered{}",
            e.outcome,
            e.delivered,
            e.offered,
            if e.exactly_once { "" } else { ", violated" }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Journal;
    use noc_types::NocConfig;

    fn small_noc() -> NocConfig {
        let mut noc = NocConfig::paper_baseline();
        noc.mesh = noc_types::Mesh::new(3, 3);
        noc.vcs_per_port = 2;
        noc.message_classes = 1;
        noc.packet_lengths = vec![5];
        noc.injection_rate = 0.05;
        noc
    }

    fn spec(kind: JobKind, limit: u32, threads: u32) -> JobSpec {
        JobSpec {
            kind,
            noc: small_noc(),
            warmup: 200,
            window: 1_200,
            limit: Some(limit),
            threads,
        }
    }

    /// A fresh scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nocalert-job-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The `done` counts of every progress event, in order.
    fn progress_of(events: &[JobEvent]) -> Vec<u32> {
        events
            .iter()
            .filter_map(|e| match e {
                JobEvent::Progress { done, .. } => Some(*done),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let rows = vec![1u32, 2, 3];
        let again = vec![1u32, 2, 3];
        let shuffled = vec![3u32, 2, 1];
        assert_eq!(digest_rows(&rows), digest_rows(&again));
        assert_ne!(digest_rows(&rows), digest_rows(&shuffled));
        assert_eq!(digest_rows(&rows).len(), 16);
    }

    #[test]
    fn golden_cache_shares_campaigns_by_config() {
        let cache = GoldenCache::new();
        let cc = CampaignConfig::paper_defaults(small_noc(), 100);
        let a = cache.get(&cc).unwrap();
        let b = cache.get(&cc).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        let mut cc2 = cc.clone();
        cc2.warmup = 150;
        let c = cache.get(&cc2).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn transient_job_digest_is_worker_count_invariant() {
        let driver = JobDriver::default();
        let mut events = Vec::new();
        let one = driver
            .run(&spec(JobKind::Transient, 6, 1), &mut |e| events.push(e))
            .unwrap();
        let four = driver
            .run(&spec(JobKind::Transient, 6, 4), &mut |_| {})
            .unwrap();
        assert_eq!(one.digest, four.digest);
        assert_eq!(one.incidents, four.incidents);
        assert_eq!(one.incidents.len(), 6);
        assert!(!one.interrupted);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, JobEvent::Progress { .. })),
            "progress events must be emitted"
        );
        assert!(
            events.iter().any(|e| matches!(e, JobEvent::Incident(_))),
            "incident events must be emitted"
        );
    }

    #[test]
    fn crashed_attack_cells_are_not_undetected_losses() {
        let cells = standard_cells(&small_noc(), &[4], 1, 300, 1);
        let cell = cells[0];
        let done = SweepReport {
            reports: vec![AttackCellReport {
                cell,
                run: crate::AttackRun::crashed(cell.spec, cell.fault, "boom".into()),
            }],
            resumed: 0,
            corrupt_lines: 0,
            interrupted: false,
        };
        assert_eq!(
            attack_summary(&done, 1),
            "attack: 1/1 cells ran, 0 undetected-loss, resumed 0"
        );
    }

    #[test]
    fn recovery_job_resumes_from_checkpoint_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "nocalert-job-recovery-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let fresh = JobDriver {
            checkpoint_dir: Some(dir.clone()),
            ..JobDriver::default()
        };
        let first = fresh
            .run(&spec(JobKind::Recovery, 4, 2), &mut |_| {})
            .unwrap();
        assert_eq!(first.resumed, 0);

        // A second driver over the same populated directory must refuse
        // without resume, and reproduce the digest from shards with it.
        let refused = JobDriver {
            checkpoint_dir: Some(dir.clone()),
            ..JobDriver::default()
        }
        .run(&spec(JobKind::Recovery, 4, 2), &mut |_| {});
        assert!(matches!(refused, Err(CampaignError::Checkpoint { .. })));

        let resumed = JobDriver {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..JobDriver::default()
        }
        .run(&spec(JobKind::Recovery, 4, 3), &mut |_| {})
        .unwrap();
        assert_eq!(resumed.digest, first.digest);
        assert_eq!(resumed.incidents, first.incidents);
        assert_eq!(resumed.resumed, 4);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One sweep per job: every unit is reported once, after its row is
    /// in the journal, and the count ends at the total.
    #[test]
    fn durable_transient_job_reports_each_unit_after_its_row_is_journalled() {
        let dir = scratch("progress");
        let job = spec(JobKind::Transient, 6, 2);
        let mut cc = CampaignConfig::paper_defaults(job.noc.clone(), job.warmup);
        cc.active_window = job.window;
        let mut done = Vec::new();
        let result = JobDriver {
            checkpoint_dir: Some(dir.clone()),
            ..JobDriver::default()
        }
        .run(&job, &mut |e| {
            if let JobEvent::Progress { done: d, total } = e {
                assert_eq!(total, 6);
                let journal = Journal::<CampaignConfig, SiteReport>::open(&dir, &cc).unwrap();
                let (rows, _) = journal.load(true).unwrap();
                assert!(
                    rows.len() >= d as usize,
                    "{} rows at done = {d}",
                    rows.len()
                );
                done.push(d);
            }
        })
        .unwrap();
        assert_eq!(done, (1..=6).collect::<Vec<u32>>());
        assert!(!result.interrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cancel raised from the event sink stops the sweep between units;
    /// the resumed job first reports what it restored and ends with the
    /// uninterrupted digest.
    #[test]
    fn cancelled_transient_job_resumes_to_the_uninterrupted_digest() {
        let dir = scratch("transient-cancel");
        // Enough units that the sink's cancel lands long before the last one.
        let job = spec(JobKind::Transient, 48, 1);
        let cache = Arc::new(GoldenCache::new());
        let full = JobDriver {
            cache: Arc::clone(&cache),
            ..JobDriver::default()
        }
        .run(&job, &mut |_| {})
        .unwrap();

        let cancel = Arc::new(AtomicBool::new(false));
        let stopped = JobDriver {
            checkpoint_dir: Some(dir.clone()),
            cancel: Some(Arc::clone(&cancel)),
            cache: Arc::clone(&cache),
            ..JobDriver::default()
        }
        .run(&job, &mut |e| {
            if let JobEvent::Progress { .. } = e {
                cancel.store(true, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert!(stopped.interrupted);
        let ran = stopped.incidents.len() as u32;
        assert!((1..48).contains(&ran), "{ran} units ran");

        let mut events = Vec::new();
        let resumed = JobDriver {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            cache,
            ..JobDriver::default()
        }
        .run(&job, &mut |e| events.push(e))
        .unwrap();
        assert_eq!(resumed.resumed, ran);
        let done = progress_of(&events);
        assert_eq!(done.first(), Some(&ran), "restored units come first");
        assert_eq!(done.len(), 1 + (48 - ran) as usize);
        assert_eq!(done.last(), Some(&48));
        assert!(!resumed.interrupted);
        assert_eq!(resumed.digest, full.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Aging honours cancel between epochs: the cancelled job keeps its
    /// journalled epoch, and a resume re-verifies it and finishes with the
    /// uninterrupted digest.
    #[test]
    fn cancelled_aging_job_resumes_to_the_uninterrupted_digest() {
        let dir = scratch("aging-cancel");
        let job = spec(JobKind::Aging, 2, 1);
        let full = JobDriver::default().run(&job, &mut |_| {}).unwrap();
        assert!(!full.interrupted);
        assert!(full.incidents.len() > 1);

        let cancel = Arc::new(AtomicBool::new(false));
        let stopped = JobDriver {
            checkpoint_dir: Some(dir.clone()),
            cancel: Some(Arc::clone(&cancel)),
            ..JobDriver::default()
        }
        .run(&job, &mut |e| {
            if let JobEvent::Progress { .. } = e {
                cancel.store(true, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert!(stopped.interrupted);
        assert_eq!(stopped.incidents.len(), 1);

        let resumed = JobDriver {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..JobDriver::default()
        }
        .run(&job, &mut |_| {})
        .unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.digest, full.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
