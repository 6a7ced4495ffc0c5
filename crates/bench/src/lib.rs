//! Shared harness utilities for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates artifacts of the paper's
//! evaluation section (see DESIGN.md's experiment index); `figures`
//! prints Figures 6–9 and Observations 1 and 5 from one campaign. They
//! share the campaign setup, a tiny `--key value` argument parser, and
//! JSON result dumping so EXPERIMENTS.md can be regenerated mechanically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fault::{FaultSpec, Watchdog};
use golden::{Campaign, CampaignConfig, RecoveryOptions, ResilienceOptions, RunResult};
use noc_types::{Cycle, NocConfig};
use serde::Serialize;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Minimal `--key value` / `--flag` argument parser.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn from_env() -> Args {
        let mut map = HashMap::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let val = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().unwrap_or_default(),
                    _ => String::from("true"),
                };
                map.insert(key.to_string(), val);
            }
        }
        Args { map }
    }

    /// Typed lookup with default: `default` when `key` is absent, an
    /// error naming the key and value when it is present but does not
    /// parse.
    fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Typed lookup with default, exiting with status 2 when the value
    /// is present but does not parse, rather than silently running with
    /// the default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default).unwrap_or_else(|e| {
            eprintln!("[args] {e}");
            std::process::exit(2);
        })
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.map.get(key).map(|v| v == "true").unwrap_or(false)
    }

    /// Raw string value, if given.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }
}

/// The standard experiment setup shared by the campaign figures.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Network configuration.
    pub noc: NocConfig,
    /// Number of sampled fault sites (0 = full universe).
    pub sites: usize,
    /// Worker threads.
    pub threads: usize,
    /// Hang-detection policy: [`Watchdog::default_policy`] with any
    /// `--cycle-budget` / `--stall-window` override applied.
    pub watchdog: Watchdog,
    /// [`resilience_from`] the CLI args: the checkpoint root, whose
    /// per-phase subdirectories the campaigns shard under, `--resume`,
    /// and the cancellation flag every phase shares.
    resilience: ResilienceOptions,
}

impl Experiment {
    /// Builds the experiment from CLI args: `--sites N` (default 400,
    /// `--full` for the whole universe), `--rate F`, `--mesh K`,
    /// `--threads N`, `--seed S`, `--checkpoint-dir PATH`, `--resume`,
    /// `--cycle-budget C`, `--stall-window C`.
    ///
    /// An invalid watchdog override (zero budget or stall window) is a
    /// configuration error, not a per-run failure: it exits immediately
    /// with the [`noc_types::SimError::WatchdogInvalid`] diagnostic
    /// instead of silently terminating every rollout at cycle zero.
    pub fn from_args(args: &Args) -> Experiment {
        let mut noc = NocConfig::paper_baseline();
        let k: u8 = args.get("mesh", 8);
        noc.mesh = noc_types::Mesh::new(k, k);
        noc.injection_rate = args.get("rate", 0.10);
        noc.seed = args.get("seed", noc.seed);
        let sites = if args.flag("full") {
            0
        } else {
            args.get("sites", 400)
        };
        let threads = args.get(
            "threads",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        );
        let defaults = Watchdog::default_policy();
        let watchdog = Watchdog {
            cycle_budget: args.get("cycle-budget", defaults.cycle_budget),
            stall_window: args.get("stall-window", defaults.stall_window),
        };
        if let Err(e) = watchdog.validate() {
            eprintln!("[args] {e}");
            std::process::exit(2);
        }
        Experiment {
            noc,
            sites,
            threads,
            watchdog,
            resilience: resilience_from(args),
        }
    }

    /// The site list this experiment sweeps.
    pub fn site_list(&self) -> Vec<noc_types::SiteRef> {
        let universe = fault::enumerate_sites(&self.noc);
        if self.sites == 0 || self.sites >= universe.len() {
            universe
        } else {
            fault::sample::stride(&universe, self.sites)
        }
    }

    /// Resilience options for one campaign phase: results shard under
    /// `<checkpoint-dir>/<phase>` so binaries that run several campaigns
    /// (`figures`' two warm-ups, ablate's per-checker sweeps) keep them
    /// separate. Creating `<checkpoint-dir>/STOP` requests a graceful
    /// flush-and-exit of every phase through one shared flag.
    pub fn resilience(&self, phase: &str) -> ResilienceOptions {
        ResilienceOptions {
            checkpoint_dir: self
                .resilience
                .checkpoint_dir
                .as_ref()
                .map(|d| d.join(phase)),
            ..self.resilience.clone()
        }
    }

    /// Runs a batch of specs through the resilient driver under this
    /// experiment's checkpoint/resume policy and summarizes the sweep's
    /// health on stderr. Crashed runs are quarantined and excluded from
    /// the returned (classified) results; a fatal harness error
    /// (checkpoint I/O, config mismatch) exits 2 with a diagnostic, and a
    /// sweep that `<checkpoint-dir>/STOP` interrupted prints
    /// `INTERRUPTED` and exits 1, so no partial result is ever reported.
    pub fn run_resilient(
        &self,
        campaign: &Campaign,
        specs: &[FaultSpec],
        phase: &str,
    ) -> Vec<RunResult> {
        let opts = self.resilience(phase);
        let report = match campaign.run_many_resilient(specs, self.threads, self.watchdog, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[campaign] fatal: {e}");
                std::process::exit(2);
            }
        };
        if report.resumed > 0 {
            eprintln!("[campaign] resumed: {} sites already done", report.resumed);
        }
        if report.corrupt_lines > 0 {
            eprintln!(
                "[campaign] checkpoint: {} torn/corrupt lines skipped",
                report.corrupt_lines
            );
        }
        for r in &report.reports {
            match &r.outcome {
                golden::RunOutcome::Crashed { site, payload, .. } => {
                    eprintln!("[campaign] CRASHED  {site:?}: {payload}")
                }
                golden::RunOutcome::Deadlock { hang, result } => eprintln!(
                    "[campaign] DEADLOCK {:?}: {:?} at cycle {}",
                    result.site, hang.kind, hang.at_cycle
                ),
                golden::RunOutcome::Completed(_) => {}
            }
            if r.determinism_violated() {
                eprintln!(
                    "[campaign] DETERMINISM VIOLATION at {:?} — retry diverged",
                    r.outcome.site()
                );
            }
        }
        let (crashed, deadlocked) = (report.crashed(), report.deadlocked());
        if crashed + deadlocked > 0 {
            eprintln!(
                "[campaign] quarantined {crashed} crashed / {deadlocked} deadlocked of {} runs",
                report.reports.len()
            );
        }
        if report.interrupted {
            println!("\nINTERRUPTED: the sweep was cancelled; rerun with --resume.");
            std::process::exit(1);
        }
        report.results()
    }

    /// Runs the transient-fault campaign at one injection instant through
    /// the resilient driver (checkpointing under phase `w<warmup>` when
    /// `--checkpoint-dir` is given).
    pub fn run_campaign(&self, warmup: Cycle) -> Vec<RunResult> {
        let cc = CampaignConfig::paper_defaults(self.noc.clone(), warmup);
        let campaign = Campaign::new(cc);
        let sites = self.site_list();
        eprintln!(
            "[campaign] warmup={warmup} sites={} threads={}",
            sites.len(),
            self.threads
        );
        let t0 = std::time::Instant::now();
        let specs: Vec<FaultSpec> = sites
            .iter()
            .map(|&s| FaultSpec::transient(s, campaign.injection_cycle()))
            .collect();
        let results = self.run_resilient(&campaign, &specs, &format!("w{warmup}"));
        eprintln!(
            "[campaign] {} injections in {:.1}s",
            results.len(),
            t0.elapsed().as_secs_f64()
        );
        results
    }
}

/// Resilience options of a binary that runs one sweep: `--checkpoint-dir`,
/// `--resume`, and, with a checkpoint directory, the flag of the one
/// `<checkpoint-dir>/STOP` watcher.
pub fn resilience_from(args: &Args) -> ResilienceOptions {
    let checkpoint_dir = args.str("checkpoint-dir").map(PathBuf::from);
    ResilienceOptions {
        cancel: checkpoint_dir.as_deref().map(stop_watcher),
        checkpoint_dir,
        resume: args.flag("resume"),
        ..ResilienceOptions::default()
    }
}

/// Prints `[tag] fatal: msg` and exits with status 2.
pub fn fail(tag: &str, msg: &str) -> ! {
    eprintln!("[{tag}] fatal: {msg}");
    std::process::exit(2);
}

/// The mesh the closed-loop campaigns (`recovery`, `attack`) run on:
/// the paper baseline with every VC pooled into one message class, so
/// quarantine always leaves a sibling VC for the traffic the faulty one
/// carried. `--mesh K` (default `mesh`), `--rate F` (default 0.05) and
/// `--seed S` override it.
pub fn closed_loop_noc(args: &Args, mesh: u8) -> NocConfig {
    let mut noc = NocConfig::paper_baseline();
    let k: u8 = args.get("mesh", mesh);
    noc.mesh = noc_types::Mesh::new(k, k);
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = args.get("rate", 0.05);
    noc.seed = args.get("seed", noc.seed);
    noc
}

/// [`RecoveryOptions::paper_defaults`] with any `--cycle-budget` /
/// `--stall-window` override applied; invalid options are fatal for
/// binary `tag`.
pub fn closed_loop_options(args: &Args, tag: &str) -> RecoveryOptions {
    let mut opts = RecoveryOptions::paper_defaults();
    opts.watchdog = Watchdog {
        cycle_budget: args.get("cycle-budget", opts.watchdog.cycle_budget),
        stall_window: args.get("stall-window", opts.watchdog.stall_window),
    };
    if let Err(e) = opts.validate() {
        fail(tag, &format!("invalid options: {e}"));
    }
    opts
}

/// `p` in `[0, 100]` over an unsorted sample (sorted in place); 0 for an
/// empty one.
pub fn percentile(sample: &mut [u64], p: usize) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    sample[(sample.len() - 1) * p / 100]
}

/// Starts the one thread that polls for `<dir>/STOP` and returns the flag
/// it raises when the file appears. No OS signal handlers here: the
/// workspace forbids `unsafe`, so a polled file flag is the portable
/// cancellation channel; kill-safety for hard kills comes from the
/// per-line shard flushes instead.
fn stop_watcher(dir: &Path) -> Arc<AtomicBool> {
    let stop = dir.join("STOP");
    // A STOP already present cancels before the first unit, not after
    // the watcher thread happens to be scheduled.
    let flag = Arc::new(AtomicBool::new(stop.exists()));
    let watcher = Arc::clone(&flag);
    std::thread::spawn(move || loop {
        if stop.exists() {
            watcher.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    });
    flag
}

/// Writes `value` as pretty JSON to `--json PATH` if given.
pub fn maybe_write_json<T: Serialize>(args: &Args, value: &T) {
    if let Some(path) = args.map.get("json") {
        let s = match serde_json::to_string_pretty(value) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[json] serialization failed for {path}: {e}");
                std::process::exit(2);
            }
        };
        if let Err(e) = std::fs::write(path, s) {
            eprintln!("[json] could not write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("[json] wrote {path}");
    }
}

/// Renders a simple aligned two-column table row.
pub fn row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<46} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_pairs_and_flags() {
        let mut a = Args::default();
        a.map.insert("sites".into(), "123".into());
        a.map.insert("full".into(), "true".into());
        a.map.insert("threads".into(), "two".into());
        assert_eq!(a.get("sites", 0usize), 123);
        assert_eq!(a.get("missing", 7u32), 7);
        assert_eq!(
            a.try_get("threads", 4usize),
            Err(String::from("--threads: cannot parse \"two\""))
        );
        assert!(a.flag("full"));
        assert!(!a.flag("absent"));
    }

    #[test]
    fn watchdog_flags_build_a_validated_policy() {
        let mut a = Args::default();
        a.map.insert("cycle-budget".into(), "50000".into());
        let e = Experiment::from_args(&a);
        assert_eq!(e.watchdog.cycle_budget, 50_000);
        assert_eq!(
            e.watchdog.stall_window,
            Watchdog::default_policy().stall_window
        );

        let mut b = Args::default();
        b.map.insert("stall-window".into(), "750".into());
        let e = Experiment::from_args(&b);
        assert_eq!(e.watchdog.stall_window, 750);

        let none = Experiment::from_args(&Args::default());
        assert_eq!(
            none.watchdog,
            Watchdog::default_policy(),
            "no flags → library default policy"
        );
    }

    /// Every phase shares the one STOP watcher's flag, rather than
    /// starting a polling thread per call.
    #[test]
    fn phases_share_one_cancel_flag() {
        let mut a = Args::default();
        let dir = std::env::temp_dir().join(format!("nocalert-stop-{}", std::process::id()));
        a.map
            .insert("checkpoint-dir".into(), dir.display().to_string());
        let e = Experiment::from_args(&a);
        let (w0, w1) = (e.resilience("w0"), e.resilience("w32000"));
        let (Some(f0), Some(f1)) = (&w0.cancel, &w1.cancel) else {
            panic!("a checkpoint root must come with a cancel flag");
        };
        assert!(Arc::ptr_eq(f0, f1));
        assert_eq!(w1.checkpoint_dir, Some(dir.join("w32000")));
        let plain = Experiment::from_args(&Args::default());
        assert!(plain.resilience("w0").cancel.is_none());
    }

    #[test]
    fn experiment_site_sampling() {
        let e = Experiment {
            noc: NocConfig::small_test(),
            sites: 50,
            threads: 1,
            watchdog: Watchdog::default_policy(),
            resilience: ResilienceOptions::default(),
        };
        assert_eq!(e.site_list().len(), 50);
        let full = Experiment {
            sites: 0,
            ..e.clone()
        };
        assert!(full.site_list().len() > 1_000);
    }
}
