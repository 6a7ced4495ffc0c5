//! **Aging campaign (DESIGN.md §13)** — survival under an accumulating
//! population of permanent faults. One continuous simulation absorbs one
//! more permanent fault per epoch (sampled containment-covered sites
//! first, then a deterministic column cut), with the fault-region
//! routing subsystem re-routing around the growing damage, until the
//! mesh truly partitions. The acceptance bar (exit code 1 on violation):
//! every epoch — including the partitioning one — delivers all
//! non-orphan traffic exactly once, no epoch stalls, and the terminal
//! state is reported [`golden::AgingOutcome::Partitioned`], never a
//! hang.
//!
//! ```text
//! cargo run --release -p nocalert-bench --bin aging -- \
//!     [--smoke] [--mesh K] [--rate F] [--organic N] [--cut-col X] \
//!     [--window C] [--seed S] [--checkpoint-dir PATH] [--resume] \
//!     [--json PATH]
//! ```
//!
//! `--smoke` runs the CI gate: the 4×4 campaign (two organic epochs plus
//! a four-row cut) with the same acceptance bar.
//!
//! With `--checkpoint-dir`, every settled epoch row is appended to
//! `shard-w0.jsonl` and flushed immediately through
//! [`golden::AgingHarness::open_journal`] (the same journal `nocalertd`
//! aging jobs open); `--resume` re-simulates the stored prefix
//! deterministically and *verifies each recomputed row is bit-identical*
//! (including the fault-region state digest) before continuing — a
//! diverging checkpoint is a fatal error, not a silent fork. A
//! populated directory without `--resume` is refused rather than
//! overwritten.

use golden::{AgingError, AgingHarness, AgingOptions, AgingOutcome, AgingReport, EpochReport};
use nocalert_bench::{maybe_write_json, row, Args};

fn fail(msg: &str) -> ! {
    eprintln!("[aging] fatal: {msg}");
    std::process::exit(2);
}

fn options_from(args: &Args) -> AgingOptions {
    let mut opts = if args.flag("smoke") {
        AgingOptions::smoke_defaults()
    } else {
        AgingOptions::paper_defaults()
    };
    let k: u8 = args.get("mesh", opts.noc.mesh.width());
    opts.noc.mesh = noc_types::Mesh::new(k, k);
    opts.noc.injection_rate = args.get("rate", opts.noc.injection_rate);
    opts.noc.seed = args.get("seed", opts.noc.seed);
    opts.organic_epochs = args.get("organic", opts.organic_epochs);
    opts.cut_column = args.get("cut-col", opts.cut_column.min(k.saturating_sub(2)));
    opts.epoch_window = args.get("window", opts.epoch_window);
    opts
}

fn outcome_tag(o: &AgingOutcome) -> String {
    match o {
        AgingOutcome::Progressed => "progressed".into(),
        AgingOutcome::Stalled => "STALLED".into(),
        AgingOutcome::Partitioned { components } => format!("PARTITIONED({components})"),
    }
}

fn print_epoch(e: &EpochReport) {
    row(
        &format!("epoch {:>2} (faults {:>2})", e.epoch, e.epoch + 1),
        format!(
            "{} | {}/{} delivered, {} orphans, {}{} | lat {} | regions {} dead {} absorbed {}",
            outcome_tag(&e.outcome),
            e.delivered,
            e.offered,
            e.orphans,
            if e.exactly_once {
                "exactly-once"
            } else {
                "LOST"
            },
            if e.gave_up > e.orphans {
                format!(" ({} unexcused give-ups)", e.gave_up - e.orphans)
            } else {
                String::new()
            },
            e.mean_latency(),
            e.regions,
            e.dead_links,
            e.absorbed,
        ),
    );
}

fn summarize(report: &AgingReport, opts: &AgingOptions) -> i32 {
    let Some(last) = report.epochs.last() else {
        fail("campaign produced no epochs");
    };
    println!("\n== Aging summary ==");
    row("epochs survived", report.epochs.len());
    row(
        "total cycles simulated",
        last.end_cycle.saturating_sub(opts.warmup),
    );
    row(
        "exactly-once epochs",
        format!("{}/{}", report.exactly_once_epochs(), report.epochs.len()),
    );
    row("stalled epochs", report.stalled_epochs());
    row(
        "terminal state",
        match report.partition() {
            Some(c) => format!("partitioned into {c} components"),
            None => "plan exhausted without partition".into(),
        },
    );
    // Satellite counters: cumulative fault-region growth at the end.
    row(
        "fault regions (formed / absorbed / reroutes)",
        format!(
            "{} / {} / {}",
            last.recovery.regions_formed,
            last.recovery.routers_absorbed,
            last.recovery.reroutes_taken
        ),
    );
    row(
        "final damage (regions / dead links / absorbed)",
        format!("{} / {} / {}", last.regions, last.dead_links, last.absorbed),
    );
    row("containment quarantines", last.recovery.disables);
    row(
        "final region digest",
        format!("{:#018x}", last.region_digest),
    );

    if report.accepted() {
        println!(
            "\nACCEPTED: exactly-once delivery sustained through {} accumulating faults, \
             then an honest partition.",
            report.epochs.len()
        );
        0
    } else {
        println!("\nVIOLATED: the mesh did not age gracefully (see rows above).");
        1
    }
}

fn main() {
    let args = Args::from_env();
    let opts = options_from(&args);
    let harness = match AgingHarness::try_new(opts.clone()) {
        Ok(h) => h,
        Err(e) => fail(&format!("harness rejected options: {e}")),
    };
    let plan_len = harness.plan().len();
    println!(
        "== Aging campaign: {}x{} mesh, {} organic epochs + {}-row cut at column {} ==",
        opts.noc.mesh.width(),
        opts.noc.mesh.height(),
        opts.organic_epochs,
        opts.noc.mesh.height(),
        opts.cut_column,
    );

    let (prior, mut log) = match args.str("checkpoint-dir") {
        Some(d) => match harness.open_journal(d, args.flag("resume")) {
            Ok((prior, writer)) => (prior, Some(writer)),
            Err(e) => fail(&format!("checkpoint: {e}")),
        },
        None => (Vec::new(), None),
    };
    if !prior.is_empty() {
        eprintln!(
            "[aging] resuming: verifying {} checkpointed epoch(s) against re-simulation",
            prior.len()
        );
        for e in &prior {
            print_epoch(e);
        }
    }

    let t0 = std::time::Instant::now();
    let result = harness.run(&prior, |e| {
        print_epoch(e);
        if let Some(log) = log.as_mut() {
            if let Err(err) = log.append(e) {
                fail(&format!("checkpoint append: {err}"));
            }
        }
    });
    let report = match result {
        Ok(r) => r,
        Err(e @ AgingError::ResumeDivergence { .. }) => fail(&format!(
            "{e}; the checkpoint was produced by a different build or configuration — \
             delete it or drop --resume"
        )),
        Err(e) => fail(&format!("campaign failed: {e}")),
    };
    eprintln!(
        "[aging] {}/{} epochs in {:.1}s",
        report.epochs.len(),
        plan_len,
        t0.elapsed().as_secs_f64()
    );

    let code = summarize(&report, &opts);
    maybe_write_json(&args, &report);
    std::process::exit(code);
}
