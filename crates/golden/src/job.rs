//! Job driver: executes a serialized [`JobSpec`] against the campaign
//! engines on behalf of the `nocalertd` service (DESIGN.md §15).
//!
//! The driver is the single shared runner behind both the service and
//! the `bench` binaries: it translates a wire-level spec into the same
//! engine calls a direct binary would make — [`Campaign`] for transient
//! sweeps, [`RecoveryCampaign`] for containment sweeps,
//! [`AttackCampaign`] for the compromised-router matrix, and
//! [`AgingHarness`] for accumulating-fault epochs — so a job's
//! aggregates are bit-identical to a direct run of the same spec at any
//! worker count, including across kill/resume cycles.
//!
//! Three service concerns layer on top of the raw engines:
//!
//! * **Chunked driving.** Sweep kinds run their work-list in chunks of
//!   a few units per worker, emitting a [`JobEvent::Progress`] after
//!   each chunk and honouring cooperative cancellation between chunks.
//!   Chunking never changes results: the engines key completed work by
//!   spec, so re-aggregation in input order is chunk-oblivious.
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
use crate::campaign::{
    Campaign, CampaignConfig, CampaignError, Journal, ResilienceOptions, RunOutcome, SiteReport,
    SweepReport,
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
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
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
/// spec — at different worker counts, through different chunk schedules,
/// or across a kill/resume cycle — must produce the same digest.
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
    /// Cooperative cancellation flag, checked between chunks (and
    /// between units inside the engines).
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

    /// Units per progress chunk: a few work items per worker, so the
    /// feed updates at a human cadence without reloading the journal
    /// per unit.
    fn chunk_size(spec: &JobSpec) -> usize {
        (spec.threads as usize).saturating_mul(4).max(1)
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

    /// Drives `units` through `run` in chunks of [`Self::chunk_size`],
    /// emitting a [`JobEvent::Progress`] after each chunk and honouring
    /// cancellation between chunks. The sweep engines key completed work
    /// by unit, so the concatenated rows are chunk-oblivious.
    fn run_chunked<K, R>(
        &self,
        spec: &JobSpec,
        units: &[K],
        run: impl Fn(&[K], &ResilienceOptions) -> Result<SweepReport<R>, CampaignError>,
        on_event: &mut dyn FnMut(JobEvent),
    ) -> Result<SweepReport<R>, CampaignError> {
        let mut all = SweepReport {
            reports: Vec::with_capacity(units.len()),
            resumed: 0,
            corrupt_lines: 0,
            interrupted: false,
        };
        for (ix, chunk) in units.chunks(Self::chunk_size(spec)).enumerate() {
            let opts = ResilienceOptions {
                checkpoint_dir: self.checkpoint_dir.clone(),
                // Chunks after the first land in a directory the first
                // chunk populated; that is resumption by construction.
                resume: self.resume || ix > 0,
                cancel: self.cancel.clone(),
            };
            if opts.cancelled() {
                all.interrupted = true;
                break;
            }
            let part = run(chunk, &opts)?;
            all.resumed += part.resumed;
            all.corrupt_lines += part.corrupt_lines;
            all.interrupted |= part.interrupted;
            all.reports.extend(part.reports);
            on_event(JobEvent::Progress {
                done: all.reports.len() as u32,
                total: units.len() as u32,
            });
            if all.interrupted {
                break;
            }
        }
        Ok(all)
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
        let done = self.run_chunked(
            spec,
            &specs,
            |chunk, opts| {
                let threads = spec.threads as usize;
                campaign.run_many_resilient(chunk, threads, Watchdog::default_policy(), opts)
            },
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
        let done = self.run_chunked(
            spec,
            &specs,
            |chunk, opts| campaign.run_specs(chunk, spec.threads as usize, opts),
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
        let done = self.run_chunked(
            spec,
            &cells,
            |chunk, opts| campaign.run_cells(chunk, spec.threads as usize, opts),
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
        let opts = Self::aging_options(spec);
        let harness = AgingHarness::try_new(opts.clone()).map_err(aging_err)?;
        let total = harness.plan().len() as u32;

        let (prior, mut log) = match &self.checkpoint_dir {
            Some(dir) => {
                let journal = Journal::<AgingOptions, EpochReport>::open(dir, &opts)?;
                let (rows, _torn) = journal.load(self.resume)?;
                (rows, Some(journal.writer(0)?))
            }
            None => (Vec::new(), None),
        };
        let resumed = prior.len();

        // The harness runs one continuous simulation, so progress and
        // checkpoint rows are emitted from inside its epoch callback;
        // an append failure is captured and re-raised after the run
        // (the harness itself cannot fail mid-epoch on our account).
        let mut log_err: Option<CampaignError> = None;
        let report = harness
            .run(&prior, |row| {
                if let (Some(log), None) = (log.as_mut(), log_err.as_ref()) {
                    if let Err(e) = log.append(row) {
                        log_err = Some(e);
                    }
                }
                on_event(JobEvent::Progress {
                    done: row.epoch + 1,
                    total: total.max(row.epoch + 1),
                });
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
        let done = SweepReport {
            reports: report.epochs,
            resumed,
            corrupt_lines: 0,
            interrupted: false,
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
}
