//! `nocalert-perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench/run.sh --workload <paper-sweep|closed-loop|service-mix|all>
//!                  [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! One workload per process, so peak memory never carries over. The
//! untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when any operation failed or any digest disagreed.
//! `--workload all` runs each workload in its own child process and
//! prints one row per metric and workload.

mod check;
mod jobs;
mod layers;
mod report;
mod service;
mod trace;
mod workloads;

use report::{metric, Outcome};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["paper-sweep", "closed-loop", "service-mix"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--size full|tiny] --work-dir DIR --digests FILE --nocalertd BIN [--record-digests]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args: HashMap<String, String> = HashMap::new();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return usage(&format!("unexpected argument {a}"));
        };
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => "true".to_string(),
        };
        args.insert(key.to_string(), value);
    }
    let get = |k: &str| args.get(k).map(String::as_str);
    let workload = get("workload").unwrap_or("");
    let (Some(work), Some(digests), Some(nocalertd)) =
        (get("work-dir"), get("digests"), get("nocalertd"))
    else {
        return usage("--work-dir, --digests and --nocalertd are required (run.sh passes them)");
    };
    let Ok(seed) = get("seed").map_or(Ok(check::DEFAULT_SEED), str::parse::<u64>) else {
        return usage("--seed must be an unsigned integer");
    };
    let seconds = match get("seconds").map_or(Ok(10.0), str::parse::<f64>) {
        Ok(s) if s > 0.0 => s,
        _ => return usage("--seconds must be a positive number"),
    };
    let traced = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let size = get("size").unwrap_or("full");
    if size != "full" && size != "tiny" {
        return usage("--size must be full or tiny");
    }
    if workload == "all" {
        return run_all(&argv);
    }
    let work = PathBuf::from(work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = workloads::Ctx {
        seed,
        seconds,
        traced,
        tiny: size == "tiny",
        work: work.clone(),
        nocalertd: PathBuf::from(nocalertd),
    };
    if traced {
        trace::enable();
    }
    let mut out: Outcome = match workload {
        "paper-sweep" => workloads::paper_sweep(&ctx),
        "closed-loop" => workloads::closed_loop(&ctx),
        "service-mix" => workloads::service_mix(&ctx),
        _ => return usage(&format!("unknown workload {workload:?}")),
    };

    let prefix = format!("{size}/{workload}");
    let ledger = work.join(format!("ledger-{size}-{workload}-{seed}.json"));
    let committed = PathBuf::from(digests);
    if get("record-digests").is_some() {
        if let Err(e) = check::record(&out.digests, &prefix, &committed) {
            out.ops
                .check(false, || format!("cannot record digests: {e}"));
        }
    }
    check::verify(
        &out.digests,
        &prefix,
        seed,
        &committed,
        &ledger,
        &mut out.ops,
    );

    let mut distinct: Vec<&(String, String)> = out.digests.iter().collect();
    distinct.sort();
    distinct.dedup();
    for (label, digest) in distinct {
        println!("digest {workload} {digest} {label}");
    }
    for note in &out.notes {
        println!("note   {workload} {note}");
    }
    let failed_frac = out.ops.failed as f64 / out.ops.attempted.max(1) as f64;
    let shown = if traced { &out.layers } else { &out.e2e };
    let mut rows = shown.clone();
    if !traced {
        rows.extend(out.ungated.iter().cloned());
    }
    rows.push(metric("failed_frac", failed_frac, "ratio"));
    for m in &rows {
        println!(
            "metric {workload:<12} {:<32} {:>16.6} {}",
            m.name, m.value, m.unit
        );
    }
    // The traced run's own end-to-end figures, against which the
    // untraced run's give the tracing overhead.
    for m in out.e2e.iter().filter(|_| traced) {
        println!(
            "traced {workload:<12} {:<32} {:>16.6} {}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "ops    {workload} failed {} of {} attempted",
        out.ops.failed, out.ops.attempted
    );
    for e in &out.ops.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    if traced {
        let spans = trace::spans();
        let path = work.join(format!("trace-{workload}-{seed}.jsonl"));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => println!(
                "trace  {workload} {} spans in {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let correct = out.ops.failed == 0 && out.ops.attempted > 0;
    println!("{}", report::result_line(correct, &out.ops, shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and prints their
/// rows together.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: current_exe: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                args.push(a.clone());
            }
        }
        let output = Command::new(&exe)
            .args(&args)
            .args(["--workload", w])
            .output();
        match output {
            Ok(o) => {
                ok &= o.status.success();
                let text = String::from_utf8_lossy(&o.stdout);
                rows.extend(
                    text.lines()
                        .filter(|l| ["metric", "note", "ops"].iter().any(|p| l.starts_with(p)))
                        .map(str::to_string),
                );
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
            }
            Err(e) => {
                ok = false;
                eprintln!("perfbench: cannot run {w}: {e}");
            }
        }
    }
    for r in rows {
        println!("{r}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
