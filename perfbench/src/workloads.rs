//! The three workloads. Each measures its end-to-end metrics untraced;
//! the traced run repeats the measured loop with spans and adds the
//! per-layer probes on the workload's own configuration. Layers a
//! workload leaves idle (the daemon on the in-process workloads, the
//! closed-loop kinds on `paper-sweep`) are measured on the canonical 4×4
//! service jobs instead, so every traced run reports every metric.

use crate::jobs::{self, JobRun};
use crate::layers;
use crate::report::{median, metric, percentile, Metric, Outcome};
use crate::service::{self, Daemon, Sample};
use crate::trace;
use golden::{
    standard_cells, standard_recovery_specs, AgingHarness, AttackCampaign, AttackCampaignConfig,
    GoldenCache, JobDriver, RecoveryCampaign, RecoveryCampaignConfig, RecoveryOptions,
};
use noc_types::{JobKind, JobSpec, NocConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What every workload run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tiny: bool,
    pub work: PathBuf,
    pub nocalertd: PathBuf,
}

impl Ctx {
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn with_limit(spec: &JobSpec, limit: u32, threads: u32) -> JobSpec {
    JobSpec {
        limit: Some(limit.min(spec.limit.unwrap_or(u32::MAX))),
        threads,
        ..spec.clone()
    }
}

fn units(runs: &[(JobSpec, JobRun)]) -> usize {
    runs.iter().map(|(_, r)| r.units()).sum()
}

fn rate(runs: &[(JobSpec, JobRun)]) -> f64 {
    units(runs) as f64 / runs.iter().map(|(_, r)| r.secs).sum::<f64>()
}

/// Runs `spec` in-process and records its digest.
fn run_recorded(
    driver: &JobDriver,
    spec: &JobSpec,
    unit: u64,
    out: &mut Outcome,
) -> (JobSpec, JobRun) {
    let run = jobs::run_job(driver, spec, unit, &mut out.ops);
    if let Some(r) = &run.result {
        out.digests.push((jobs::label(spec), r.digest.clone()));
    }
    (spec.clone(), run)
}

/// The end-to-end rows shared by every workload. `job_ms` holds one
/// sample per job. `job_ms_p90` is printed but not gated: on the
/// baseline host its spread over ten seeds exceeded the largest bound
/// the benchmark format allows (see README.md, "Steadiness").
fn e2e(out: &mut Outcome, units: usize, secs: f64, setup: &[f64], rss_mb: f64, job_ms: &[f64]) {
    out.e2e = vec![
        metric("units_per_s", units as f64 / secs, "1/s"),
        metric("setup_s", median(setup), "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("job_ms_p50", percentile(job_ms, 50.0), "ms"),
    ];
    out.ungated = vec![metric("job_ms_p90", percentile(job_ms, 90.0), "ms")];
    out.notes.push(format!(
        "{units} units in {secs:.3} s; job_ms over {} jobs; setup_s median of {:.6?}",
        job_ms.len(),
        setup
    ));
}

/// Runs `specs` back to back through `driver` in whole passes, as many as
/// bring the measured time closest to `window` (at least one); returns
/// the runs and the elapsed seconds.
fn measured_passes(
    driver: &JobDriver,
    specs: &[JobSpec],
    window: Duration,
    out: &mut Outcome,
) -> (Vec<(JobSpec, JobRun)>, f64) {
    let _span = trace::span("bench.measured", 0);
    let t0 = Instant::now();
    let mut runs = Vec::new();
    'passes: loop {
        let pass = Instant::now();
        for spec in specs {
            let run = run_recorded(driver, spec, runs.len() as u64, out);
            let failed = run.1.result.is_none();
            runs.push(run);
            if failed {
                break 'passes;
            }
        }
        if t0.elapsed() + pass.elapsed() / 2 >= window {
            break;
        }
    }
    (runs, t0.elapsed().as_secs_f64())
}

/// End-to-end rows of an in-process workload; its job latency samples
/// are the host times of its `JobDriver::run` calls.
fn measured_e2e(out: &mut Outcome, runs: &[(JobSpec, JobRun)], secs: f64, setup: &[f64]) {
    let rss = crate::report::vm_hwm_mb("self").unwrap_or(f64::NAN);
    let job_ms: Vec<f64> = runs.iter().map(|(_, r)| r.secs * 1e3).collect();
    e2e(out, units(runs), secs, setup, rss, &job_ms);
}

/// In-process runs of `specs` in order through one driver sharing
/// `cache`. Transient jobs fetch their golden reference explicitly first,
/// so its build (a miss) or reuse (a hit) is timed on its own.
struct Replay {
    runs: Vec<(JobSpec, JobRun)>,
    transient: usize,
    hits: usize,
    builds: Vec<f64>,
}

fn replay(specs: &[JobSpec], cache: &Arc<GoldenCache>, out: &mut Outcome) -> Replay {
    let _span = trace::span("bench.replay", 0);
    let driver = JobDriver {
        cache: Arc::clone(cache),
        ..JobDriver::default()
    };
    let mut r = Replay {
        runs: Vec::new(),
        transient: 0,
        hits: 0,
        builds: Vec::new(),
    };
    for (i, spec) in specs.iter().enumerate() {
        if spec.kind == JobKind::Transient {
            r.transient += 1;
            let before = cache.len();
            let t0 = Instant::now();
            let got = {
                let _span = trace::span("golden.GoldenCache::get", i as u64);
                cache.get(&jobs::campaign_config(spec))
            };
            out.ops.check(got.is_ok(), || {
                format!("{}: golden build failed", jobs::label(spec))
            });
            if cache.len() == before {
                r.hits += 1;
            } else {
                r.builds.push(t0.elapsed().as_secs_f64());
            }
        }
        r.runs.push(run_recorded(&driver, spec, i as u64, out));
    }
    r
}

/// Median in-process time per spec label, in ms.
fn inproc_ms(runs: &[(JobSpec, JobRun)]) -> BTreeMap<String, f64> {
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (spec, run) in runs {
        by.entry(jobs::label(spec))
            .or_default()
            .push(run.secs * 1e3);
    }
    by.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

fn cache_metrics(r: &Replay, out: &mut Outcome) -> Vec<Metric> {
    out.notes.push(format!(
        "golden cache: {} hits of {} transient jobs, {} builds",
        r.hits,
        r.transient,
        r.builds.len()
    ));
    vec![
        metric(
            "golden.cache_hit_ratio",
            r.hits as f64 / r.transient.max(1) as f64,
            "ratio",
        ),
        metric("golden.golden_build_s", median(&r.builds), "s"),
    ]
}

fn chunk_metrics(runs: &[(JobSpec, JobRun)], out: &mut Outcome) -> Vec<Metric> {
    let refs: Vec<&JobRun> = runs.iter().map(|(_, r)| r).collect();
    let (m, n) = layers::chunk_metrics(&refs);
    out.notes.push(format!("chunk intervals: {n}"));
    m
}

/// The service probe of the in-process workloads: a fresh daemon runs
/// `specs` once with one client, and an in-process replay of the same
/// sequence gives each spec's `JobDriver` time.
fn service_probe(ctx: &Ctx, specs: &[JobSpec], out: &mut Outcome) -> Vec<Metric> {
    let _span = trace::span("bench.service_probe", 0);
    let (daemon, _) = match Daemon::spawn(&ctx.nocalertd, &ctx.work, "probe") {
        Ok(d) => d,
        Err(e) => {
            out.ops.check(false, || e);
            return Vec::new();
        }
    };
    let healthz = service::healthz_ms(&daemon.addr, 20, &mut out.ops);
    let samples = service::run_client(&daemon.addr, specs, &mut out.ops);
    let disk = daemon.disk_bytes();
    drop(daemon);
    for s in &samples {
        out.digests.push((s.label.clone(), s.digest.clone()));
    }
    let r = replay(specs, &Arc::new(GoldenCache::new()), out);
    service::service_metrics(&samples, healthz, disk, &inproc_ms(&r.runs))
}

/// Per-layer probes every workload shares: stepping cost per observer,
/// site enumeration, batched against scalar rollouts of `transient`, and
/// the checkpoint cost of `ckpt`.
fn common_layers(
    ctx: &Ctx,
    noc: &NocConfig,
    transient: &JobSpec,
    cache: &Arc<GoldenCache>,
    ckpt: &JobSpec,
    out: &mut Outcome,
) -> Vec<Metric> {
    let _span = trace::span("bench.layer_probes", 0);
    let (cycles, slices, scalar_n, reps) = if ctx.tiny {
        (300, 1, 2, 1)
    } else {
        (6_000, 6, 8, 3)
    };
    let mut m = layers::step_probes(noc, cycles, slices);
    m.push(layers::enumerate_ms(noc));
    let campaign = {
        let _span = trace::span("golden.GoldenCache::get", 0);
        cache.get(&jobs::campaign_config(transient))
    };
    match campaign {
        Ok(c) => m.extend(layers::rollout_probe(&c, transient, scalar_n, &mut out.ops)),
        Err(e) => out.ops.check(false, || format!("golden build: {e}")),
    }
    let dir = ctx.work.join(format!("ckpt-{}", std::process::id()));
    m.push(layers::checkpoint_probe(
        cache,
        ckpt,
        &dir,
        reps,
        &mut out.ops,
    ));
    m
}

fn finish_layers(out: &mut Outcome, mut m: Vec<Metric>) {
    m.extend(layers::self_time_metrics(&trace::spans()));
    m.sort_by(|a, b| a.name.cmp(&b.name));
    out.layers = m;
}

pub fn paper_sweep(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spec = jobs::paper_spec(ctx.seed, ctx.tiny);
    let cc = jobs::campaign_config(&spec);

    // Set-up: the golden build (a GoldenCache miss) plus the batched
    // engine's lazily built golden trajectory, which the first rollout
    // pays; repeated on fresh caches, the last one kept.
    let mut setup = Vec::new();
    let mut builds = Vec::new();
    let mut cache = Arc::new(GoldenCache::new());
    let first_site = fault::sample::stride(&fault::enumerate_sites(&spec.noc), 1);
    for _ in 0..if ctx.tiny { 2 } else { 3 } {
        cache = Arc::new(GoldenCache::new());
        let _span = trace::span("bench.setup", 0);
        let t0 = Instant::now();
        let campaign = {
            let _span = trace::span("golden.GoldenCache::get", 0);
            cache.get(&cc)
        };
        builds.push(t0.elapsed().as_secs_f64());
        match campaign {
            Ok(c) => {
                let _span = trace::span("golden.Campaign::run_many", 0);
                std::hint::black_box(c.run_many(&first_site, 1));
            }
            Err(e) => out.ops.check(false, || format!("golden build: {e}")),
        }
        setup.push(t0.elapsed().as_secs_f64());
    }

    let driver = JobDriver {
        cache: Arc::clone(&cache),
        ..JobDriver::default()
    };
    let (runs, secs) =
        measured_passes(&driver, std::slice::from_ref(&spec), ctx.window(), &mut out);
    measured_e2e(&mut out, &runs, secs, &setup);
    if !ctx.traced {
        return out;
    }

    let misses = cache.len().saturating_sub(1).min(runs.len());
    let mut m = vec![
        metric("golden.golden_build_s", median(&builds), "s"),
        metric(
            "golden.cache_hit_ratio",
            (runs.len() - misses) as f64 / runs.len() as f64,
            "ratio",
        ),
        layers::sim_cycles(&runs),
    ];
    m.extend(chunk_metrics(&runs, &mut out));
    // The layer probes and parallel efficiency on a quarter of the work
    // list, which keeps the traced run well inside its time limit.
    let quarter = if ctx.tiny { 4 } else { 32 };
    let one = [run_recorded(
        &driver,
        &with_limit(&spec, quarter, 1),
        0,
        &mut out,
    )];
    let two = [run_recorded(
        &driver,
        &with_limit(&spec, quarter, 2),
        0,
        &mut out,
    )];
    let small = with_limit(&spec, if ctx.tiny { 4 } else { 8 }, 2);
    m.extend(common_layers(
        ctx, &spec.noc, &one[0].0, &cache, &small, &mut out,
    ));
    m.push(metric(
        "golden.parallel_eff",
        rate(&two) / (2.0 * rate(&one)),
        "ratio",
    ));
    let canon = canonical(ctx.seed, ctx.tiny);
    let idle = replay(&canon[1..], &Arc::new(GoldenCache::new()), &mut out);
    m.extend(layers::closed_kind_metrics(&idle.runs));
    m.push(layers::prefix_share(&idle.runs));
    m.extend(service_probe(ctx, &vec![canon[0].clone(); 4], &mut out));
    finish_layers(&mut out, m);
    out
}

pub fn closed_loop(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let specs = jobs::closed_specs(ctx.seed, ctx.tiny);

    // Set-up: what `JobDriver::run` builds before its first unit — the
    // three campaigns and their work lists — through the same public
    // constructors. Cheap, so repeated many times.
    let mut setup = Vec::new();
    for _ in 0..25 {
        let _span = trace::span("bench.setup", 0);
        let t0 = Instant::now();
        for spec in &specs {
            let _span = trace::span("golden.campaign_construction", 0);
            let start = jobs::sweep_start(spec);
            let opts = RecoveryOptions {
                warmup: spec.warmup,
                active_window: spec.window,
                ..RecoveryOptions::paper_defaults()
            };
            let limit = spec.limit.map_or(usize::MAX, |l| l as usize);
            let built = match spec.kind {
                JobKind::Recovery => RecoveryCampaign::try_new(RecoveryCampaignConfig {
                    noc: spec.noc.clone(),
                    opts,
                })
                .map(|_| {
                    standard_recovery_specs(&spec.noc, start, 50, 10)
                        .into_iter()
                        .take(limit)
                        .count()
                })
                .map_err(|e| e.to_string()),
                JobKind::Attack => AttackCampaign::try_new(AttackCampaignConfig {
                    noc: spec.noc.clone(),
                    opts,
                })
                .map(|_| {
                    let routers: Vec<u16> = (0..spec.noc.mesh.len() as u16).collect();
                    standard_cells(&spec.noc, &routers, 1, start, spec.noc.seed)
                        .into_iter()
                        .take(limit)
                        .count()
                })
                .map_err(|e| e.to_string()),
                _ => AgingHarness::try_new(JobDriver::aging_options(spec))
                    .map(|h| h.plan().len())
                    .map_err(|e| format!("{e:?}")),
            };
            if let Err(e) = std::hint::black_box(built) {
                out.ops
                    .check(false, || format!("campaign construction: {e}"));
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
    }

    let driver = JobDriver::default();
    let (runs, secs) = measured_passes(&driver, &specs, ctx.window(), &mut out);
    measured_e2e(&mut out, &runs, secs, &setup);
    attack_note(&runs, &mut out);
    if !ctx.traced {
        return out;
    }

    let mut m = chunk_metrics(&runs, &mut out);
    m.push(layers::sim_cycles(&runs));
    m.push(layers::prefix_share(&runs));
    // Parallel efficiency and per-unit times on a shorter list of the
    // sweep kinds, at one and two threads. Aging is one continuous
    // simulation, so its per-epoch time comes from the measured pass.
    let (rec_n, att_n) = if ctx.tiny { (2, 1) } else { (8, 2) };
    let sub = [
        with_limit(&specs[0], rec_n, 1),
        with_limit(&specs[1], att_n, 1),
    ];
    let mut one: Vec<(JobSpec, JobRun)> = sub
        .iter()
        .map(|s| run_recorded(&driver, s, 0, &mut out))
        .collect();
    let two: Vec<(JobSpec, JobRun)> = sub
        .iter()
        .map(|s| {
            run_recorded(
                &driver,
                &JobSpec {
                    threads: 2,
                    ..s.clone()
                },
                0,
                &mut out,
            )
        })
        .collect();
    m.push(metric(
        "golden.parallel_eff",
        rate(&two) / (2.0 * rate(&one)),
        "ratio",
    ));
    one.extend(
        runs.into_iter()
            .filter(|(s, _)| s.kind == JobKind::Aging)
            .take(1),
    );
    m.extend(layers::closed_kind_metrics(&one));

    // The transient layers on this workload's mesh: one golden build
    // (a miss), then a transient job that hits it.
    let noc = &specs[0].noc;
    let transient = jobs::spec(
        JobKind::Transient,
        noc.clone(),
        500,
        2_000,
        if ctx.tiny { 8 } else { 32 },
        2,
    );
    let cache = Arc::new(GoldenCache::new());
    let r = replay(&[transient.clone(), transient.clone()], &cache, &mut out);
    m.extend(cache_metrics(&r, &mut out));
    let ckpt = with_limit(&specs[0], if ctx.tiny { 2 } else { 4 }, 2);
    m.extend(common_layers(ctx, noc, &transient, &cache, &ckpt, &mut out));
    let canon = canonical(ctx.seed, ctx.tiny);
    m.extend(service_probe(ctx, &vec![canon[0].clone(); 4], &mut out));
    finish_layers(&mut out, m);
    out
}

/// Notes, for the first attack job, the summary's undetected-loss count
/// beside the classifier's: the summary counts every cell whose delivery
/// was violated without recorded evidence, which includes cells the
/// classifier files as `CaughtByOracle`. A simulated verdict, not a
/// failed operation.
fn attack_note(runs: &[(JobSpec, JobRun)], out: &mut Outcome) {
    let Some(r) = runs
        .iter()
        .find(|(s, _)| s.kind == JobKind::Attack)
        .and_then(|(_, r)| r.result.as_ref())
    else {
        return;
    };
    let classified = r
        .incidents
        .iter()
        .filter(|i| i.delivery.starts_with("UndetectedLoss"))
        .count();
    out.notes.push(format!(
        "attack summary \"{}\"; classifier: {classified} UndetectedLoss cells",
        r.summary
    ));
}

/// Deterministic 64-bit mix (splitmix64), for deriving seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Traffic seed number `p` of the `service-mix` pool derived from `seed`.
fn pool_seed(seed: u64, p: u64) -> u64 {
    mix(mix(seed ^ 0x5EED).wrapping_add(p)) >> 32
}

/// Traffic seeds in the `service-mix` pool: one per two seconds of the
/// window, so that on the baseline host one pass takes about the window.
/// Attack and aging job costs differ several-fold between traffic seeds;
/// a pool this size keeps the pool's make-up from moving the job-time
/// quantiles much from one workload seed to the next.
fn pool_size(seconds: f64) -> u64 {
    ((seconds * 0.5).round() as u64).max(2)
}

/// Kind `k` (0..4: Transient, Recovery, Attack, Aging) of the service
/// mix on the canonical 4×4 job mesh.
fn service_spec(k: usize, traffic_seed: u64, tiny: bool) -> JobSpec {
    let noc = jobs::recovery_noc(4, traffic_seed);
    let (kind, limit) = match (k, tiny) {
        (0, false) => (JobKind::Transient, 16),
        (0, true) => (JobKind::Transient, 4),
        (1, false) => (JobKind::Recovery, 4),
        (1, true) => (JobKind::Recovery, 1),
        (2, _) => (JobKind::Attack, 1),
        (_, false) => (JobKind::Aging, 2),
        (_, true) => (JobKind::Aging, 1),
    };
    jobs::spec(kind, noc, 200, 1_200, limit, 1)
}

/// The `service-mix` pass: on every seed of the pool, the four kinds, then
/// the transient, recovery and aging jobs again. The repeated transient
/// job finds its golden reference in the daemon's cache, so every seed
/// gives one golden-cache miss and one hit. The repeats also put the
/// median inside the cheap recovery and aging jobs, whose cost varies
/// least between traffic seeds, and the 90th percentile inside the
/// attack jobs, rather than either on the gap between two kinds.
fn service_pass(seed: u64, pool: u64, tiny: bool) -> Vec<JobSpec> {
    (0..pool)
        .flat_map(|p| {
            let s = pool_seed(seed, p);
            [0, 1, 2, 3, 0, 1, 3].map(|k| service_spec(k, s, tiny))
        })
        .collect()
}

/// The four kinds at the pool's first seed.
fn canonical(seed: u64, tiny: bool) -> Vec<JobSpec> {
    service_pass(seed, 1, tiny)[..4].to_vec()
}

pub fn service_mix(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: daemon spawn until `/healthz` answers, on a fresh data
    // directory each time; the last daemon serves the run.
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..if ctx.tiny { 3 } else { 15 } {
        drop(daemon.take());
        let _span = trace::span("bench.setup", 0);
        match Daemon::spawn(&ctx.nocalertd, &ctx.work, &i.to_string()) {
            Ok((d, s)) => {
                setup.push(s);
                daemon = Some(d);
            }
            Err(e) => out.ops.check(false, || e),
        }
    }
    let Some(daemon) = daemon else {
        return out;
    };
    let healthz = if ctx.traced {
        service::healthz_ms(&daemon.addr, 20, &mut out.ops)
    } else {
        f64::NAN
    };
    // One pass, one job in flight at a time.
    let submitted = service_pass(ctx.seed, pool_size(ctx.seconds), ctx.tiny);
    let t0 = Instant::now();
    let samples: Vec<Sample> = {
        let _span = trace::span("bench.measured", 0);
        service::run_client(&daemon.addr, &submitted, &mut out.ops)
    };
    let secs = t0.elapsed().as_secs_f64();
    let rss = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let disk = daemon.disk_bytes();
    drop(daemon);
    let job_ms: Vec<f64> = samples.iter().map(|s| s.job_ms).collect();
    e2e(&mut out, samples.len(), secs, &setup, rss, &job_ms);
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &samples {
        let kind = s.label.split(' ').next().unwrap_or_default();
        by_kind.entry(kind).or_default().push(s.job_ms);
    }
    for (kind, ms) in &by_kind {
        out.notes.push(format!(
            "{kind} jobs: {} of them, job_ms min {:.1} p50 {:.1} max {:.1}",
            ms.len(),
            percentile(ms, 0.0),
            median(ms),
            percentile(ms, 100.0)
        ));
    }
    for s in &samples {
        out.digests.push((s.label.clone(), s.digest.clone()));
    }

    // Reference: every distinct spec of the pass, in-process, outside the
    // timed window, on two threads; `check::verify` requires each
    // service digest to match.
    let distinct: Vec<JobSpec> = submitted
        .iter()
        .map(|s| (jobs::label(s), s))
        .collect::<BTreeMap<_, _>>()
        .into_values()
        .cloned()
        .collect();
    let t_ref = Instant::now();
    let parts: Vec<(Outcome, Vec<(JobSpec, JobRun)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(distinct.len().div_ceil(2).max(1))
            .map(|part| {
                s.spawn(move || {
                    let mut o = Outcome::default();
                    let runs = part
                        .iter()
                        .map(|spec| run_recorded(&JobDriver::default(), spec, 0, &mut o))
                        .collect();
                    (o, runs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut o = Outcome::default();
                    o.ops
                        .check(false, || "reference thread panicked".to_string());
                    (o, Vec::new())
                })
            })
            .collect()
    });
    let ref_secs = t_ref.elapsed().as_secs_f64();
    let mut reference = Vec::new();
    for (part, runs) in parts {
        out.ops.merge(part.ops);
        out.digests.extend(part.digests);
        reference.extend(runs);
    }
    if !ctx.traced {
        return out;
    }

    // In-process replay of the submitted sequence with one shared cache.
    let cache = Arc::new(GoldenCache::new());
    let r = replay(&submitted, &cache, &mut out);
    out.notes.push(format!(
        "replay: the {} jobs in-process took {:.3} s, through the daemon {secs:.3} s",
        r.runs.len(),
        r.runs.iter().map(|(_, x)| x.secs).sum::<f64>()
    ));
    let mut m = service::service_metrics(&samples, healthz, disk, &inproc_ms(&r.runs));
    m.extend(cache_metrics(&r, &mut out));
    m.extend(chunk_metrics(&r.runs, &mut out));
    m.extend(layers::closed_kind_metrics(&r.runs));
    m.push(layers::prefix_share(&r.runs));
    m.push(layers::sim_cycles(&reference));
    // Jobs per second of the reference (the distinct specs on two
    // threads, each with a cold golden cache) against the replay's first
    // run of each of them, which also found the cache cold.
    let mut seen = std::collections::BTreeSet::new();
    let replay_secs: f64 = r
        .runs
        .iter()
        .filter(|(spec, _)| seen.insert(jobs::label(spec)))
        .map(|(_, x)| x.secs)
        .sum();
    m.push(metric(
        "golden.parallel_eff",
        (distinct.len() as f64 / ref_secs) / (2.0 * seen.len() as f64 / replay_secs),
        "ratio",
    ));
    let canon = canonical(ctx.seed, ctx.tiny);
    m.extend(common_layers(
        ctx,
        &canon[0].noc,
        &canon[0],
        &cache,
        &canon[0],
        &mut out,
    ));
    finish_layers(&mut out, m);
    out
}
