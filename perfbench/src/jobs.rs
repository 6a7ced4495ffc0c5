//! The workloads' job specs and the in-process job runner.

use crate::report::Ops;
use crate::trace;
use golden::{CampaignConfig, JobDriver};
use noc_types::{Cycle, Incident, JobEvent, JobKind, JobResult, JobSpec, Mesh, NocConfig};
use std::time::Instant;

/// The recovery campaigns' mesh shape: 2 VCs, one message class,
/// 5-flit packets, uniform random traffic at 0.05.
pub fn recovery_noc(k: u8, seed: u64) -> NocConfig {
    let mut noc = NocConfig::paper_baseline();
    noc.mesh = Mesh::new(k, k);
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    noc.seed = seed;
    noc
}

pub fn spec(
    kind: JobKind,
    noc: NocConfig,
    warmup: Cycle,
    window: Cycle,
    limit: u32,
    threads: u32,
) -> JobSpec {
    JobSpec {
        kind,
        noc,
        warmup,
        window,
        limit: Some(limit),
        threads,
    }
}

/// `paper-sweep`: the Figure 6–9 transient campaign on the paper's 8×8
/// baseline, injected at the steady-state instant. One worker thread: on
/// the benchmark's two-core host a second one measured the scheduler
/// (a job's time then moved with whatever else the host ran).
pub fn paper_spec(seed: u64, tiny: bool) -> JobSpec {
    let mut noc = NocConfig::paper_baseline();
    noc.seed = seed;
    if tiny {
        noc.mesh = Mesh::new(4, 4);
        return spec(JobKind::Transient, noc, 1_000, 500, 8, 1);
    }
    spec(JobKind::Transient, noc, 32_000, 2_000, 128, 1)
}

/// `closed-loop`: recovery, attack and aging back to back.
pub fn closed_specs(seed: u64, tiny: bool) -> Vec<JobSpec> {
    if tiny {
        let noc = recovery_noc(4, seed);
        return vec![
            spec(JobKind::Recovery, noc.clone(), 200, 1_200, 2, 2),
            spec(JobKind::Attack, noc.clone(), 200, 1_200, 1, 2),
            spec(JobKind::Aging, noc, 200, 1_200, 1, 2),
        ];
    }
    let noc = recovery_noc(8, seed);
    vec![
        spec(JobKind::Recovery, noc.clone(), 500, 6_000, 24, 2),
        spec(JobKind::Attack, noc.clone(), 500, 6_000, 8, 2),
        spec(JobKind::Aging, noc, 500, 4_000, 4, 2),
    ]
}

/// The campaign configuration a transient job's golden reference is
/// cached under (what `JobDriver` builds from the spec).
pub fn campaign_config(spec: &JobSpec) -> CampaignConfig {
    let mut cc = CampaignConfig::paper_defaults(spec.noc.clone(), spec.warmup);
    cc.active_window = spec.window;
    cc
}

/// The injection instant of recovery and attack jobs: a quarter into the
/// active window (the rule `JobDriver` applies).
pub fn sweep_start(spec: &JobSpec) -> Cycle {
    spec.warmup + (spec.window / 4).max(1)
}

/// A stable name for a spec's result: everything that determines the
/// digest, and nothing that does not (`threads`).
pub fn label(spec: &JobSpec) -> String {
    format!(
        "{:?} {}x{} vcs={} rate={} seed={} warmup={} window={} limit={}",
        spec.kind,
        spec.noc.mesh.width(),
        spec.noc.mesh.height(),
        spec.noc.vcs_per_port,
        spec.noc.injection_rate,
        spec.noc.seed,
        spec.warmup,
        spec.window,
        spec.limit.map_or(0, |l| l)
    )
}

/// True when an incident records a unit that crashed rather than ran.
fn crashed(inc: &Incident) -> bool {
    inc.delivery.starts_with("crashed") || inc.delivery.starts_with("Crashed")
}

/// Checks one finished job: it completed, every unit ran, none crashed.
pub fn check_result(result: &JobResult, what: &str, ops: &mut Ops) {
    ops.check(!result.interrupted && result.resumed == 0, || {
        format!("{what}: interrupted or resumed job")
    });
    for inc in &result.incidents {
        ops.check(!crashed(inc), || {
            format!("{what}: unit {} crashed: {}", inc.subject, inc.delivery)
        });
    }
}

/// One in-process job: its result, host time and the instants of its
/// progress events.
pub struct JobRun {
    pub result: Option<JobResult>,
    pub secs: f64,
    pub start: Instant,
    pub progress: Vec<Instant>,
}

impl JobRun {
    pub fn units(&self) -> usize {
        self.result.as_ref().map_or(0, |r| r.incidents.len())
    }

    /// Intervals between consecutive progress events (the first measured
    /// from the job's start), in ms.
    pub fn chunk_ms(&self) -> Vec<f64> {
        let mut prev = self.start;
        self.progress
            .iter()
            .map(|&t| {
                let ms = t.duration_since(prev).as_secs_f64() * 1e3;
                prev = t;
                ms
            })
            .collect()
    }
}

/// Runs `spec` through `driver`, counting the job and its units in `ops`.
pub fn run_job(driver: &JobDriver, spec: &JobSpec, unit: u64, ops: &mut Ops) -> JobRun {
    let _span = trace::span("golden.JobDriver::run", unit);
    let mut progress = Vec::new();
    let start = Instant::now();
    let out = driver.run(spec, &mut |e| {
        if matches!(e, JobEvent::Progress { .. }) {
            progress.push(Instant::now());
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let what = label(spec);
    let result = match out {
        Ok(r) => {
            ops.check(true, String::new);
            check_result(&r, &what, ops);
            Some(r)
        }
        Err(e) => {
            ops.check(false, || format!("{what}: JobDriver error: {e}"));
            None
        }
    };
    JobRun {
        result,
        secs,
        start,
        progress,
    }
}
