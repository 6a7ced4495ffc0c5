//! Per-layer probes of the traced run. Each times calls into one layer's
//! public entry points on the workload's own configuration.

use crate::jobs::{self, JobRun};
use crate::report::{median, metric, percentile, Metric, Ops};
use crate::trace;
use fault::FaultSpec;
use forever::Forever;
use golden::{Campaign, JobDriver, RunLog};
use noc_sim::{ArqConfig, Network, NullObserver, Observer, RecoveryPolicy, Transport};
use noc_types::{JobKind, JobSpec, NocConfig};
use nocalert::AlertBank;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One network stepping under one observer, timed slice by slice.
trait Stepper {
    /// Steps `n` cycles and returns the host seconds they took.
    fn slice(&mut self, n: u64) -> f64;
}

struct Stepped<O, F> {
    name: &'static str,
    net: Network,
    obs: O,
    post: F,
}

impl<O: Observer, F: FnMut(&mut Network, &mut O)> Stepped<O, F> {
    /// A network on `noc` with `obs` attached from cycle 0, warmed for
    /// `warm` cycles; `post` runs after every step.
    fn new(
        noc: &NocConfig,
        name: &'static str,
        recovery: bool,
        obs: O,
        post: F,
        warm: u64,
    ) -> Self {
        let mut net = Network::new(noc.clone());
        if recovery {
            net.enable_recovery(RecoveryPolicy::default_policy());
        }
        let mut s = Stepped {
            name,
            net,
            obs,
            post,
        };
        s.slice(warm);
        s
    }
}

impl<O: Observer, F: FnMut(&mut Network, &mut O)> Stepper for Stepped<O, F> {
    fn slice(&mut self, n: u64) -> f64 {
        let _span = trace::span(format!("noc-sim.Network::step_observed[{}]", self.name), 0);
        let t0 = Instant::now();
        for _ in 0..n {
            self.net.step_observed(&mut self.obs);
            (self.post)(&mut self.net, &mut self.obs);
        }
        std::hint::black_box(&self.net);
        t0.elapsed().as_secs_f64()
    }
}

fn none<O>(_: &mut Network, _: &mut O) {}

/// `Network::step_observed` cost with each observer: the bare step, and
/// what recovery plus the transport, the checker bank, ForEVeR and the
/// oracle's run log each add, in µs per cycle. The five networks step
/// the same traffic in interleaved slices, so a change in host speed
/// during the probe affects all of them alike.
pub fn step_probes(noc: &NocConfig, cycles: u64, slices: u64) -> Vec<Metric> {
    let warm = 2_000;
    let mut probes: Vec<Box<dyn Stepper>> = vec![
        Box::new(Stepped::new(noc, "Null", false, NullObserver, none, warm)),
        Box::new(Stepped::new(
            noc,
            "Transport+recovery",
            true,
            Transport::new(noc, ArqConfig::default_policy()),
            |net: &mut Network, t: &mut Transport| t.post_step(net),
            warm,
        )),
        Box::new(Stepped::new(
            noc,
            "AlertBank",
            false,
            AlertBank::new(noc),
            none,
            warm,
        )),
        Box::new(Stepped::new(
            noc,
            "Forever",
            false,
            Forever::new(noc, 1_500),
            none,
            warm,
        )),
        Box::new(Stepped::new(
            noc,
            "RunLog",
            false,
            RunLog::new(),
            none,
            warm,
        )),
    ];
    let mut secs = vec![0.0; probes.len()];
    for _ in 0..slices {
        for (p, s) in probes.iter_mut().zip(secs.iter_mut()) {
            *s += p.slice(cycles / slices);
        }
    }
    let us: Vec<f64> = secs
        .iter()
        .map(|s| s * 1e6 / (cycles / slices * slices) as f64)
        .collect();
    vec![
        metric("noc-sim.step_us", us[0], "us"),
        metric("noc-sim.closed_loop_us", us[1] - us[0], "us"),
        metric("core.bank_us", us[2] - us[0], "us"),
        metric("forever.observe_us", us[3] - us[0], "us"),
        metric("golden.oracle_us", us[4] - us[0], "us"),
    ]
}

/// `fault::enumerate_sites` on `noc`, median of five calls.
pub fn enumerate_ms(noc: &NocConfig) -> Metric {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let _span = trace::span("fault.enumerate_sites", 0);
            let t0 = Instant::now();
            std::hint::black_box(fault::enumerate_sites(noc));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metric("fault.enumerate_ms", median(&times), "ms")
}

/// Transient rollouts of `spec`'s stride-sampled site list through the
/// batched engine (`run_many`, one thread, whole list) and, for the first
/// `scalar_n` sites, one at a time through `run_spec_in`. The scalar
/// results must equal the batched ones.
pub fn rollout_probe(
    campaign: &Campaign,
    spec: &JobSpec,
    scalar_n: usize,
    ops: &mut Ops,
) -> Vec<Metric> {
    let universe = fault::enumerate_sites(&spec.noc);
    let sites = fault::sample::stride(&universe, spec.limit.map_or(usize::MAX, |l| l as usize));
    let t0 = Instant::now();
    let batched = {
        let _span = trace::span("golden.Campaign::run_many", 0);
        campaign.run_many(&sites, 1)
    };
    let batched_ms = t0.elapsed().as_secs_f64() * 1e3 / sites.len() as f64;

    let n = scalar_n.min(sites.len());
    let mut arena = campaign.arena();
    let t0 = Instant::now();
    let scalar: Vec<_> = sites[..n]
        .iter()
        .map(|&site| {
            let _span = trace::span("golden.Campaign::run_spec_in", 0);
            campaign.run_spec_in(
                &mut arena,
                FaultSpec::transient(site, campaign.injection_cycle()),
            )
        })
        .collect();
    let scalar_ms = t0.elapsed().as_secs_f64() * 1e3 / n as f64;
    for (i, s) in scalar.iter().enumerate() {
        ops.check(*s == batched[i], || {
            format!(
                "scalar rollout {i} of {} differs from the batched one",
                jobs::label(spec)
            )
        });
    }
    vec![
        metric("golden.rollout_ms_batched", batched_ms, "ms"),
        metric("golden.rollout_ms_scalar", scalar_ms, "ms"),
        metric("golden.batched_speedup", scalar_ms / batched_ms, "ratio"),
    ]
}

/// Extra host time per unit when `spec` runs with a checkpoint directory,
/// against the same spec memory-only: the median difference of `reps`
/// alternating pairs. Every digest must agree.
pub fn checkpoint_probe(
    cache: &Arc<golden::GoldenCache>,
    spec: &JobSpec,
    dir: &Path,
    reps: usize,
    ops: &mut Ops,
) -> Metric {
    let memory = JobDriver {
        cache: Arc::clone(cache),
        ..JobDriver::default()
    };
    let durable = JobDriver {
        checkpoint_dir: Some(dir.to_path_buf()),
        ..memory.clone()
    };
    let digest = |r: &JobRun| r.result.as_ref().map(|r| r.digest.clone());
    let mut extra = Vec::new();
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(dir);
        let mem = jobs::run_job(&memory, spec, 0, ops);
        let disk = jobs::run_job(&durable, spec, 0, ops);
        let _ = std::fs::remove_dir_all(dir);
        ops.check(
            digest(&mem).is_some() && digest(&mem) == digest(&disk),
            || {
                format!(
                    "{}: checkpointed digest differs from memory-only",
                    jobs::label(spec)
                )
            },
        );
        extra.push((disk.secs - mem.secs) * 1e3 / mem.units().max(1) as f64);
    }
    metric("golden.checkpoint_ms_per_unit", median(&extra), "ms")
}

/// Per-unit host time of each closed-loop kind, from single-threaded
/// jobs `(spec, run)`.
pub fn closed_kind_metrics(runs: &[(JobSpec, JobRun)]) -> Vec<Metric> {
    let per_unit = |kind: JobKind| {
        let (secs, units) = runs
            .iter()
            .filter(|(s, _)| s.kind == kind)
            .fold((0.0, 0usize), |(t, u), (_, r)| (t + r.secs, u + r.units()));
        secs * 1e3 / units.max(1) as f64
    };
    vec![
        metric(
            "golden.recovery_rollout_ms",
            per_unit(JobKind::Recovery),
            "ms",
        ),
        metric("golden.attack_cell_ms", per_unit(JobKind::Attack), "ms"),
        metric("golden.aging_epoch_ms", per_unit(JobKind::Aging), "ms"),
    ]
}

/// Σ fault-start cycle / Σ end cycle over recovery and attack rollouts:
/// the share of simulated cycles that replay the fault-free prefix.
pub fn prefix_share(runs: &[(JobSpec, JobRun)]) -> Metric {
    let (mut start, mut end) = (0u64, 0u64);
    for (spec, run) in runs {
        if !matches!(spec.kind, JobKind::Recovery | JobKind::Attack) {
            continue;
        }
        for inc in run.result.iter().flat_map(|r| &r.incidents) {
            start += jobs::sweep_start(spec);
            end += inc.last_cycle;
        }
    }
    metric(
        "golden.prefix_share",
        start as f64 / end.max(1) as f64,
        "ratio",
    )
}

/// Σ of the last cycle every unit reports, over one pass of distinct
/// specs: fixed by the simulated work, so a speed-only change leaves it.
pub fn sim_cycles(runs: &[(JobSpec, JobRun)]) -> Metric {
    let mut seen = std::collections::BTreeSet::new();
    let mut total = 0u64;
    for (spec, run) in runs {
        if !seen.insert(jobs::label(spec)) {
            continue;
        }
        total += run
            .result
            .iter()
            .flat_map(|r| &r.incidents)
            .map(|i| i.last_cycle)
            .sum::<u64>();
    }
    metric("golden.sim_cycles", total as f64, "count")
}

/// p50/p90 of the intervals between `JobDriver` progress events.
pub fn chunk_metrics(runs: &[&JobRun]) -> (Vec<Metric>, usize) {
    let chunks: Vec<f64> = runs.iter().flat_map(|r| r.chunk_ms()).collect();
    (
        vec![
            metric("golden.chunk_ms_p50", percentile(&chunks, 50.0), "ms"),
            metric("golden.chunk_ms_p90", percentile(&chunks, 90.0), "ms"),
        ],
        chunks.len(),
    )
}

/// Self time per layer from the recorded spans, in seconds.
pub fn self_time_metrics(spans: &[trace::Span]) -> Vec<Metric> {
    let by_layer = trace::self_time_by_layer(spans);
    ["noc-sim", "fault", "golden", "service"]
        .iter()
        .map(|layer| {
            metric(
                &format!("{layer}.self_s"),
                by_layer.get(*layer).copied().unwrap_or(0.0),
                "s",
            )
        })
        .collect()
}
