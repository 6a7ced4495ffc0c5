//! **Perf baseline harness** — the repo's performance trajectory
//! (`BENCH_nocsim.json`).
//!
//! Measures throughput on the canonical configurations:
//!
//! * **cycles/sec** — raw simulation stepping under the full NoCAlert
//!   checker bank, on the 4×4 (`small_test`) and 8×8 (`paper_baseline`)
//!   meshes. This is the per-cycle hot path the allocation-free refactor
//!   targets.
//! * **campaign runs/sec** — complete detection-campaign rollouts
//!   (clone/reset from the warm snapshot, watched rollout, ForEVeR coda,
//!   oracle classification) on the canonical 8×8 / 2-VC sweep
//!   configuration, single-threaded (per-core throughput, so the number
//!   is comparable across hosts with different core counts). Measured
//!   through **both** engines: the production
//!   [`golden::Campaign::run_many`] path (batched bit-plane lanes with
//!   golden-prefix sharing) and the per-rollout scalar engine it is
//!   proven equivalent to.
//!
//! ```text
//! cargo run --release -p nocalert-bench --bin perf -- \
//!     [--smoke] [--json PATH] [--ref PATH] [--baseline PATH] \
//!     [--cycles N] [--runs N] [--runs-scalar N] [--reps N] [--tolerance PCT]
//! ```
//!
//! Modes:
//!
//! * default — full measurement; with `--baseline PATH` (a flat metrics
//!   JSON from a previous `--measure-only` run) the output file carries
//!   the recorded baseline, the current numbers, per-metric
//!   current-vs-baseline deltas, and the headline speedups
//!   (`nocsim-perf-v2` schema).
//! * `--measure-only` — write just the flat metrics (used to record a
//!   baseline for a later comparison run).
//! * `--smoke` — the CI regression gate: a shortened measurement compared
//!   against the committed reference (`--ref`, default
//!   `BENCH_nocsim.json`); exits 1 when current 8×8 cycles/sec **or**
//!   campaign runs/sec fall more than `--tolerance` (default 15) percent
//!   below the reference's `current` section. The campaign floor is
//!   normalized by the co-measured 8×8 cycle rate so common-mode runner
//!   slowdown cancels out of the comparison. Emits a machine-readable
//!   report (measured metrics, per-metric deltas vs the reference, gate
//!   verdicts) to `--json` (default `BENCH_nocsim.smoke.json`).

use golden::{Campaign, CampaignConfig};
use noc_sim::Network;
use noc_types::NocConfig;
use nocalert::AlertBank;
use nocalert_bench::Args;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema tag of the committed reference document.
const SCHEMA: &str = "nocsim-perf-v2";

/// One set of measured throughput figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Metrics {
    /// Simulation cycles per wall-clock second, 4×4 mesh, checker bank
    /// attached.
    cycles_per_sec_4x4: f64,
    /// Simulation cycles per wall-clock second, 8×8 paper baseline,
    /// checker bank attached.
    cycles_per_sec_8x8: f64,
    /// Complete campaign rollouts per wall-clock second on the canonical
    /// 8×8 / 2-VC sweep, single worker thread, through the production
    /// [`golden::Campaign::run_many`] path (the batched bit-plane engine
    /// where its equivalence proof applies). This is the gated headline
    /// figure; before the batched engine existed `run_many` was the
    /// scalar engine, so the trajectory is continuous.
    campaign_runs_per_sec_8x8_2vc: f64,
    /// The same rollouts forced through the per-run scalar engine
    /// ([`golden::Campaign::run_spec_in`]); the batched-vs-scalar ratio is
    /// the engine's standalone speedup.
    campaign_runs_per_sec_8x8_2vc_scalar: f64,
    /// Cycles stepped per mesh for the cycles/sec figures.
    measured_cycles: u64,
    /// Campaign rollouts timed for the batched runs/sec figure.
    measured_runs: usize,
    /// Campaign rollouts timed for the scalar runs/sec figure.
    measured_runs_scalar: usize,
    /// Timed repetitions of each campaign batch; the reported figure is
    /// the fastest repetition (peak throughput — robust against noisy
    /// neighbours on shared runners).
    measured_reps: usize,
}

/// One current-vs-reference comparison for a single throughput metric.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Delta {
    /// Metric name (a `Metrics` field).
    metric: String,
    /// The reference (baseline or committed-current) figure.
    reference: f64,
    /// The freshly measured figure.
    current: f64,
    /// `current / reference` (> 1 is faster).
    ratio: f64,
}

/// The committed `BENCH_nocsim.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Reference {
    /// Format tag ([`SCHEMA`]).
    schema: String,
    /// Pre-refactor numbers, measured with this same harness before the
    /// perf overhauls (allocation-free arena, batched bit-plane lanes)
    /// landed. `run_many` was the scalar engine then, so its batched and
    /// scalar figures coincide.
    baseline: Metrics,
    /// Post-refactor numbers.
    current: Metrics,
    /// Per-metric current-vs-baseline deltas (machine-readable form of
    /// the speedup table).
    deltas: Vec<Delta>,
    /// `current.campaign_runs_per_sec_8x8_2vc / baseline.…` — the
    /// acceptance figure.
    campaign_speedup: f64,
    /// `current` batched over `current` scalar campaign throughput — the
    /// batched engine's speedup against the equivalent scalar rollouts.
    batched_over_scalar: f64,
    /// `current.cycles_per_sec_8x8 / baseline.cycles_per_sec_8x8`.
    cycle_speedup_8x8: f64,
}

/// One smoke-gate verdict.
#[derive(Debug, Clone, Serialize)]
struct Gate {
    /// Gated metric name.
    metric: String,
    /// Minimum acceptable figure — `reference * (1 - tolerance/100)`,
    /// additionally scaled by the co-measured host speed for the
    /// campaign metric.
    floor: f64,
    /// The freshly measured figure.
    current: f64,
    /// Whether `current >= floor`.
    passed: bool,
}

/// The machine-readable `--smoke` report (`BENCH_nocsim.smoke.json`).
#[derive(Debug, Clone, Serialize)]
struct SmokeReport {
    /// Format tag.
    schema: String,
    /// Regression tolerance in percent.
    tolerance_pct: f64,
    /// The smoke measurement.
    metrics: Metrics,
    /// Current-vs-committed-reference deltas (empty when no reference
    /// file exists yet).
    deltas: Vec<Delta>,
    /// Per-metric gate verdicts.
    gates: Vec<Gate>,
    /// Overall verdict (`gates` all passed).
    passed: bool,
}

/// The throughput figures of a [`Metrics`], by name, for delta tables.
fn rates(m: &Metrics) -> [(&'static str, f64); 4] {
    [
        ("cycles_per_sec_4x4", m.cycles_per_sec_4x4),
        ("cycles_per_sec_8x8", m.cycles_per_sec_8x8),
        (
            "campaign_runs_per_sec_8x8_2vc",
            m.campaign_runs_per_sec_8x8_2vc,
        ),
        (
            "campaign_runs_per_sec_8x8_2vc_scalar",
            m.campaign_runs_per_sec_8x8_2vc_scalar,
        ),
    ]
}

/// Per-metric current-vs-reference deltas.
fn deltas(reference: &Metrics, current: &Metrics) -> Vec<Delta> {
    rates(reference)
        .iter()
        .zip(rates(current))
        .map(|(&(metric, r), (_, c))| Delta {
            metric: metric.to_string(),
            reference: r,
            current: c,
            ratio: if r > 0.0 { c / r } else { f64::INFINITY },
        })
        .collect()
}

/// The canonical 8×8 / 2-VC campaign sweep configuration (the recovery
/// campaign's mesh shape driven through the detection campaign driver).
fn sweep_noc() -> NocConfig {
    let mut noc = NocConfig::paper_baseline();
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    noc
}

/// Steps `cycles` simulated cycles under the full checker bank and
/// returns cycles/sec — the fastest of `reps` identical windows (fresh
/// network each, so every repetition times the same workload and the
/// peak filters out scheduling noise only).
fn measure_cycles(cfg: NocConfig, cycles: u64, reps: usize) -> f64 {
    let mut best = f64::MIN;
    for _ in 0..reps {
        let mut net = Network::new(cfg.clone());
        let mut bank = AlertBank::new(&cfg);
        // Warm the allocator pools, caches, and branch predictors out of
        // the measurement window — long enough that a short smoke window
        // reads the same steady-state rate as the full measurement.
        for _ in 0..3_000 {
            net.step_observed(&mut bank);
        }
        let t0 = Instant::now();
        for _ in 0..cycles {
            net.step_observed(&mut bank);
        }
        best = best.max(cycles as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

/// Times complete campaign rollouts (single worker) through both engines
/// against one shared warm campaign and returns `(batched, scalar)`
/// runs/sec. Each batch is timed `reps` times and the fastest repetition
/// is reported — a short batch on a shared runner is dominated by
/// scheduling noise otherwise.
fn measure_campaign(runs: usize, runs_scalar: usize, reps: usize) -> (f64, f64) {
    let cc = CampaignConfig::paper_defaults(sweep_noc(), 500);
    let campaign = Campaign::new(cc);
    let universe = fault::enumerate_sites(&campaign.config().noc);

    // Batched: the production `run_many` path. One untimed call warms
    // per-thread state and builds the shared golden trajectory outside
    // the measurement window.
    let sites = fault::sample::stride(&universe, runs);
    let _ = campaign.run_many(&sites[..1], 1);
    let mut batched = f64::MIN;
    for _ in 0..reps {
        let t0 = Instant::now();
        let results = campaign.run_many(&sites, 1);
        assert_eq!(results.len(), sites.len());
        batched = batched.max(sites.len() as f64 / t0.elapsed().as_secs_f64());
    }

    // Scalar: the same kind of rollouts forced through the per-run
    // engine, reusing one arena the way the worker loop does.
    let sites = fault::sample::stride(&universe, runs_scalar);
    let mut arena = campaign.arena();
    let spec = |site| fault::FaultSpec::transient(site, campaign.injection_cycle());
    let _ = campaign.run_spec_in(&mut arena, spec(sites[0]));
    let mut scalar = f64::MIN;
    for _ in 0..reps {
        let t0 = Instant::now();
        for &site in &sites {
            let _ = campaign.run_spec_in(&mut arena, spec(site));
        }
        scalar = scalar.max(sites.len() as f64 / t0.elapsed().as_secs_f64());
    }
    (batched, scalar)
}

fn measure(cycles: u64, runs: usize, runs_scalar: usize, reps: usize) -> Metrics {
    eprintln!("[perf] stepping 4x4 for {cycles} cycles (best of {reps})…");
    let c4 = measure_cycles(NocConfig::small_test(), cycles, reps);
    eprintln!("[perf] stepping 8x8 for {cycles} cycles (best of {reps})…");
    let c8 = measure_cycles(NocConfig::paper_baseline(), cycles, reps);
    eprintln!(
        "[perf] timing {runs} batched + {runs_scalar} scalar campaign rollouts \
         (8x8/2-VC, best of {reps})…"
    );
    let (batched, scalar) = measure_campaign(runs, runs_scalar, reps);
    Metrics {
        cycles_per_sec_4x4: c4,
        cycles_per_sec_8x8: c8,
        campaign_runs_per_sec_8x8_2vc: batched,
        campaign_runs_per_sec_8x8_2vc_scalar: scalar,
        measured_cycles: cycles,
        measured_runs: runs,
        measured_runs_scalar: runs_scalar,
        measured_reps: reps,
    }
}

fn print_metrics(label: &str, m: &Metrics) {
    println!("-- {label} --");
    nocalert_bench::row("cycles/sec 4x4", format!("{:.0}", m.cycles_per_sec_4x4));
    nocalert_bench::row("cycles/sec 8x8", format!("{:.0}", m.cycles_per_sec_8x8));
    nocalert_bench::row(
        "campaign runs/sec 8x8/2-VC (batched, 1 thread)",
        format!("{:.3}", m.campaign_runs_per_sec_8x8_2vc),
    );
    nocalert_bench::row(
        "campaign runs/sec 8x8/2-VC (scalar, 1 thread)",
        format!("{:.3}", m.campaign_runs_per_sec_8x8_2vc_scalar),
    );
}

fn write_json<T: Serialize>(path: &str, value: &T) {
    let s = serde_json::to_string_pretty(value).unwrap_or_else(|e| {
        eprintln!("[perf] cannot serialize metrics: {e}");
        std::process::exit(2);
    });
    std::fs::write(path, s + "\n").unwrap_or_else(|e| {
        eprintln!("[perf] cannot write {path}: {e}");
        std::process::exit(2);
    });
    eprintln!("[perf] wrote {path}");
}

fn load_metrics(path: &str) -> Metrics {
    let s = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("[perf] cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&s).unwrap_or_else(|e| {
        eprintln!("[perf] cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn smoke(args: &Args) -> i32 {
    let tolerance: f64 = args.get("tolerance", 15.0);
    let cycles: u64 = args.get("cycles", 6_000);
    let runs: usize = args.get("runs", 24usize).max(1);
    let runs_scalar: usize = args.get("runs-scalar", 4usize).max(1);
    // Short smoke windows on a shared runner see heavy scheduling noise;
    // more repetitions buy more chances at an undisturbed window.
    let reps: usize = args.get("reps", 5usize).max(1);
    let m = measure(cycles, runs, runs_scalar, reps);
    print_metrics("smoke", &m);
    let json_path = args.str("json").unwrap_or("BENCH_nocsim.smoke.json");
    let ref_path = args.str("ref").unwrap_or("BENCH_nocsim.json");
    let reference = match std::fs::read_to_string(ref_path) {
        Ok(s) => {
            let r: Reference = serde_json::from_str(&s).unwrap_or_else(|e| {
                eprintln!(
                    "[perf] cannot parse {ref_path}: {e}\n\
                     [perf] regenerate it with: cargo run --release -p nocalert-bench \
                     --bin perf -- --baseline <metrics.json> --json {ref_path}"
                );
                std::process::exit(2);
            });
            if r.schema != SCHEMA {
                eprintln!(
                    "[perf] {ref_path} has schema {:?}, expected {SCHEMA:?}; regenerate it",
                    r.schema
                );
                std::process::exit(2);
            }
            Some(r)
        }
        Err(e) => {
            eprintln!("[perf] no committed reference at {ref_path} ({e}); gate skipped");
            None
        }
    };
    let (ds, gates) = match &reference {
        None => (Vec::new(), Vec::new()),
        Some(r) => {
            let ds = deltas(&r.current, &m);
            // The cycles gate is absolute. The campaign gate is
            // host-speed-normalized: its floor scales by the co-measured
            // 8×8 cycle rate of this very process, so common-mode runner
            // slowdown (noisy neighbours, frequency throttling after the
            // earlier CI phases) cancels out, while a genuine
            // campaign-engine regression — which does not move the
            // per-cycle stepping rate — still trips it.
            let cycles_floor = r.current.cycles_per_sec_8x8 * (1.0 - tolerance / 100.0);
            let host_scale = m.cycles_per_sec_8x8 / r.current.cycles_per_sec_8x8;
            let campaign_floor =
                r.current.campaign_runs_per_sec_8x8_2vc * host_scale * (1.0 - tolerance / 100.0);
            let gates = vec![
                Gate {
                    metric: "cycles_per_sec_8x8".to_string(),
                    floor: cycles_floor,
                    current: m.cycles_per_sec_8x8,
                    passed: m.cycles_per_sec_8x8 >= cycles_floor,
                },
                Gate {
                    metric: "campaign_runs_per_sec_8x8_2vc".to_string(),
                    floor: campaign_floor,
                    current: m.campaign_runs_per_sec_8x8_2vc,
                    passed: m.campaign_runs_per_sec_8x8_2vc >= campaign_floor,
                },
            ];
            (ds, gates)
        }
    };
    let passed = gates.iter().all(|g| g.passed);
    for g in &gates {
        nocalert_bench::row(
            &format!("gate {} (floor)", g.metric),
            format!(
                "{:.3} >= {:.3}  [{}]",
                g.current,
                g.floor,
                if g.passed { "ok" } else { "FAIL" }
            ),
        );
    }
    let report = SmokeReport {
        schema: "nocsim-perf-smoke-v2".to_string(),
        tolerance_pct: tolerance,
        metrics: m,
        deltas: ds,
        gates,
        passed,
    };
    write_json(json_path, &report);
    if passed {
        println!("\nPERF GATE PASSED: within {tolerance}% of the committed reference.");
        0
    } else {
        println!(
            "\nPERF GATE FAILED: a gated metric is more than {tolerance}% below the \
             committed reference (see above)."
        );
        1
    }
}

fn main() {
    let args = Args::from_env();
    if args.flag("smoke") {
        std::process::exit(smoke(&args));
    }
    let cycles: u64 = args.get("cycles", 30_000);
    let runs: usize = args.get("runs", 24usize).max(1);
    let runs_scalar: usize = args.get("runs-scalar", 24usize).max(1);
    let reps: usize = args.get("reps", 3usize).max(1);
    let m = measure(cycles, runs, runs_scalar, reps);
    print_metrics("current", &m);
    if args.flag("measure-only") {
        write_json(args.str("json").unwrap_or("BENCH_nocsim.metrics.json"), &m);
        return;
    }
    let Some(baseline_path) = args.str("baseline") else {
        eprintln!("[perf] no --baseline given; writing flat metrics only");
        write_json(args.str("json").unwrap_or("BENCH_nocsim.metrics.json"), &m);
        return;
    };
    let baseline = load_metrics(baseline_path);
    print_metrics("baseline (pre-refactor)", &baseline);
    let reference = Reference {
        schema: SCHEMA.to_string(),
        campaign_speedup: m.campaign_runs_per_sec_8x8_2vc / baseline.campaign_runs_per_sec_8x8_2vc,
        batched_over_scalar: m.campaign_runs_per_sec_8x8_2vc
            / m.campaign_runs_per_sec_8x8_2vc_scalar,
        cycle_speedup_8x8: m.cycles_per_sec_8x8 / baseline.cycles_per_sec_8x8,
        deltas: deltas(&baseline, &m),
        baseline,
        current: m,
    };
    nocalert_bench::row(
        "campaign speedup",
        format!("{:.2}x", reference.campaign_speedup),
    );
    nocalert_bench::row(
        "batched over scalar",
        format!("{:.2}x", reference.batched_over_scalar),
    );
    nocalert_bench::row(
        "8x8 cycle speedup",
        format!("{:.2}x", reference.cycle_speedup_8x8),
    );
    write_json(args.str("json").unwrap_or("BENCH_nocsim.json"), &reference);
}
