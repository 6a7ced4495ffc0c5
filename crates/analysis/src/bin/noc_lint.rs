//! `noc-lint` — the static-verification driver.
//!
//! ```text
//! noc-lint [--json] [--mesh WxH] [--vcs N] [--nonatomic] [--speculative]
//!          [--pass coverage|prove|detect|model[,...]] [--jobs N] [--timings]
//! ```
//!
//! Runs the four static passes (checker-coverage, exhaustive proving,
//! static fault detectability, recovery-plane model checking) on the
//! canonical configuration (8×8 mesh, 2 VCs) or the one described by the
//! flags, and prints a human report or a stable JSON document. It reads
//! no source files, so it runs from any directory. `--jobs` fans the
//! heavier passes out across worker threads; stdout is byte-identical for
//! every value. `--timings` prints per-pass wall-clock durations on stderr
//! (kept off stdout for the same reason).
//! Exits 1 if any error-level diagnostic was produced, 2 on usage errors.

use noc_types::config::{BufferPolicy, NocConfig};
use nocalert_analysis::{canonical_config, run, PassSelection};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    json: bool,
    cfg: NocConfig,
    passes: PassSelection,
    jobs: usize,
    timings: bool,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("noc-lint: {err}");
    eprintln!(
        "usage: noc-lint [--json] [--mesh WxH] [--vcs N] [--nonatomic] [--speculative]\n\
         \x20               [--pass coverage|prove|detect|model[,...]] [--jobs N] [--timings]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        cfg: canonical_config(),
        passes: PassSelection::default(),
        jobs: 1,
        timings: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--timings" => opts.timings = true,
            "--nonatomic" => opts.cfg.buffer_policy = BufferPolicy::NonAtomic,
            "--speculative" => opts.cfg.speculative = true,
            "--mesh" => {
                let v = value("--mesh")?;
                let (w, h) = v
                    .split_once('x')
                    .ok_or_else(|| format!("--mesh wants WxH, got `{v}`"))?;
                let (w, h) = (
                    w.parse::<u8>().map_err(|e| format!("--mesh width: {e}"))?,
                    h.parse::<u8>().map_err(|e| format!("--mesh height: {e}"))?,
                );
                if w == 0 || h == 0 {
                    return Err("--mesh dimensions must be non-zero".into());
                }
                opts.cfg.mesh = noc_types::geometry::Mesh::new(w, h);
            }
            "--vcs" => {
                let v = value("--vcs")?;
                opts.cfg.vcs_per_port = v.parse().map_err(|e| format!("--vcs: {e}"))?;
            }
            "--jobs" => {
                let v = value("--jobs")?;
                let n: usize = v.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = n;
            }
            "--pass" => {
                let v = value("--pass")?;
                let mut sel = PassSelection {
                    coverage: false,
                    prove: false,
                    detect: false,
                    model: false,
                };
                for p in v.split(',') {
                    match p {
                        "coverage" => sel.coverage = true,
                        "prove" => sel.prove = true,
                        "detect" => sel.detect = true,
                        "model" => sel.model = true,
                        other => return Err(format!("unknown pass `{other}`")),
                    }
                }
                opts.passes = sel;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    opts.cfg
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let mut timings: Vec<(&'static str, Duration)> = Vec::new();
    let report = run(
        &opts.cfg,
        opts.passes,
        opts.jobs,
        opts.timings.then_some(&mut timings),
    );
    if opts.timings {
        for (pass, d) in &timings {
            eprintln!("noc-lint: pass {pass:<8} {:>8.1} ms", d.as_secs_f64() * 1e3);
        }
    }

    // Build the whole report in memory and write it once, tolerating a
    // closed pipe (`noc-lint --json | head` must not abort).
    use std::fmt::Write as _;
    let mut out = String::new();
    if opts.json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => {
                let _ = writeln!(out, "{s}");
            }
            Err(e) => {
                eprintln!("noc-lint: JSON serialization failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        for d in &report.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        if let Some(c) = &report.coverage {
            let _ = writeln!(
                out,
                "coverage: {}/{} sites covered, {} live signal kinds, \
                 min {} checker(s) per site",
                c.covered_sites, c.total_sites, c.live_signal_kinds, c.min_constrainers_per_site
            );
        }
        for p in &report.proofs {
            let _ = writeln!(
                out,
                "prove: {} — {} cases, {} violations{}",
                p.cone,
                p.cases,
                p.violations,
                if p.violations == 0 { " (proved)" } else { "" }
            );
        }
        if let Some(d) = &report.detect {
            let _ = writeln!(
                out,
                "detect: {} sites × 3 fault models = {} cases — {} detected, {} masked, \
                 {} blind ({} states, {} benign reroutes)",
                d.sites,
                d.fault_cases,
                d.detected_cases,
                d.masked_cases,
                d.blind_cases,
                d.states_evaluated,
                d.benign_reroutes
            );
            let _ = writeln!(
                out,
                "detect: worst checker latency {} step(s); stall-monitor bound {} cycle(s)",
                d.worst_latency_steps, d.stall_monitor_bound
            );
            // The slowest sites, for a quick read on where the latency
            // bound comes from (full table in --json).
            let mut slow: Vec<_> = d
                .per_site
                .iter()
                .filter_map(|s| s.worst_latency_steps.map(|l| (l, s)))
                .collect();
            slow.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.site.cmp(&b.1.site)));
            for (lat, s) in slow.iter().take(3) {
                let _ = writeln!(
                    out,
                    "detect:   {} ({}): latency {} step(s) via {}",
                    s.site,
                    s.fault,
                    lat,
                    s.detectors.join(",")
                );
            }
        }
        if let Some(m) = &report.model {
            let _ = writeln!(
                out,
                "model: {} states, {} transitions ({} ladder), {} terminal — {} violation(s); \
                 horizon {}t vs worst schedule {}t ({})",
                m.states_explored,
                m.transitions,
                m.ladder_transitions,
                m.terminal_states,
                m.violations,
                m.horizon_ticks,
                m.worst_schedule_ticks,
                if m.mark_permanent {
                    "mark permanent"
                } else {
                    "MARK CAN EXPIRE"
                }
            );
            for trace in &m.counterexamples {
                let _ = writeln!(out, "{trace}");
            }
        }
        let _ = writeln!(
            out,
            "noc-lint: {} error(s), {} warning(s), {} note(s)",
            report.counts.error, report.counts.warning, report.counts.info
        );
    }
    {
        use std::io::Write as _;
        let _ = std::io::stdout().write_all(out.as_bytes());
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
