//! **Recovery campaign (DESIGN.md §11)** — closes the loop the paper
//! defers to "an accompanying recovery mechanism": NoCAlert assertions
//! drive per-router containment (squash → VC reset → quarantine + fenced
//! degraded routing) while the NIC-level ARQ transport retransmits
//! whatever containment destroys. The campaign sweeps sampled
//! *containment-covered* fault sites (see
//! [`golden::containment_covered`]) across the fault classes and reports,
//! per class: delivered-packet ratio, exactly-once verdicts, containment
//! latency distribution, end-to-end delivery latency of retransmitted
//! messages, and wire overhead.
//!
//! The acceptance bar asserted here (exit code 1 on violation): every
//! sustained fault — permanent, stuck-at, *or intermittent* — at a
//! covered site must end in 100% exactly-once delivery. Intermittent
//! faults used to be carved out as a documented liveness limitation (an
//! alert-silent `BufEmpty` stall); input-side quarantine, end-to-end worm
//! teardown and the per-VC worm-age monitor closed that escape, so the
//! bar now enforces them. Transient (single-flip) faults remain
//! report-only.
//!
//! ```text
//! cargo run --release -p nocalert-bench --bin recovery -- \
//!     [--smoke] [--sites N] [--mesh K] [--rate F] [--threads T] \
//!     [--seed S] [--period P --duty D] \
//!     [--cycle-budget C] [--stall-window C] [--json PATH] \
//!     [--checkpoint-dir PATH] [--resume]
//! ```
//!
//! The sweep is a thin client of [`golden::RecoveryCampaign`] — the same
//! sharded engine `nocalertd` jobs run through — so `--checkpoint-dir`
//! gives it kill-safe incremental progress and `--resume` picks a
//! previous sweep back up, with aggregates bit-identical to an
//! uninterrupted run at any `--threads` value. Creating
//! `<checkpoint-dir>/STOP` stops the sweep between rollouts (exit 1,
//! `INTERRUPTED`).
//!
//! `--smoke` runs the CI gate instead of the sweep: a 4×4 mesh, one fault
//! of each class at fixed covered sites, asserting 100% delivery.
//!
//! The mesh pools every VC into one message class (`message_classes = 1`)
//! unlike the detection campaigns' two-class baseline: quarantine must
//! always leave a sibling VC for the traffic the faulty one carried, and
//! with per-class singleton pools a single disable starves the class.

use fault::FaultSpec;
use golden::{
    containment_covered, DeliveryVerdict, RecoveryCampaign, RecoveryCampaignConfig, RecoveryRun,
};
use noc_types::SiteRef;
use nocalert_bench::{
    closed_loop_noc, closed_loop_options, fail, maybe_write_json, percentile, resilience_from, row,
    Args,
};
use serde::Serialize;

/// The binary's tag in fatal diagnostics.
const TAG: &str = "recovery";

/// The fault classes the campaign sweeps, in report order.
const CLASSES: [&str; 5] = [
    "transient",
    "intermittent",
    "permanent",
    "stuck-at-0",
    "stuck-at-1",
];

fn spec_for(class: &str, site: SiteRef, start: u64, period: u32, duty: u32) -> FaultSpec {
    match class {
        "transient" => FaultSpec::transient(site, start),
        "intermittent" => FaultSpec::intermittent(site, period, duty, start),
        "permanent" => FaultSpec::permanent(site, start),
        "stuck-at-0" => FaultSpec::stuck_at(site, false, start),
        _ => FaultSpec::stuck_at(site, true, start),
    }
}

/// Per-class aggregate of the sweep.
#[derive(Debug, Default, Serialize)]
struct ClassSummary {
    runs: u64,
    exactly_once: u64,
    hung: u64,
    crashed: u64,
    partitioned: u64,
    offered: u64,
    delivered: u64,
    retransmits: u64,
    control_packets: u64,
    /// Fault-start → last containment action, per run that contained.
    containment_latency: Vec<u64>,
    /// Offer → delivery latency of messages that needed a retransmit.
    retransmit_delivery_latency: Vec<u64>,
    /// Fault-region growth across the class's rollouts (FaultRegion
    /// routing only; zero under plain XY/WestFirst).
    regions_formed: u64,
    routers_absorbed: u64,
    reroutes_taken: u64,
}

impl ClassSummary {
    fn absorb(&mut self, run: &RecoveryRun) {
        self.runs += 1;
        if run.verdict == DeliveryVerdict::ExactlyOnce {
            self.exactly_once += 1;
        }
        match run.outcome {
            golden::RecoveryOutcome::Hung(_) => self.hung += 1,
            golden::RecoveryOutcome::Crashed(_) => self.crashed += 1,
            golden::RecoveryOutcome::Partitioned { .. } => self.partitioned += 1,
            golden::RecoveryOutcome::Quiescent => {}
        }
        self.offered += run.transport.offered;
        self.delivered += run.transport.delivered;
        self.retransmits += run.transport.retransmits;
        self.control_packets += run.transport.acks_sent + run.transport.nacks_sent;
        if let (Some(spec), Some(last)) = (run.spec, run.trace.last()) {
            self.containment_latency
                .push(last.cycle.saturating_sub(spec.start));
        }
        for rec in &run.deliveries {
            if rec.attempts > 0 {
                self.retransmit_delivery_latency
                    .push(rec.delivered_at.saturating_sub(rec.offered_at));
            }
        }
        self.regions_formed += run.recovery.regions_formed;
        self.routers_absorbed += run.recovery.routers_absorbed;
        self.reroutes_taken += run.recovery.reroutes_taken;
    }

    fn ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

#[derive(Debug, Serialize)]
struct Report {
    mesh: u8,
    sites_swept: usize,
    classes: Vec<(String, ClassSummary)>,
    enforced_violations: u64,
    resumed: usize,
    interrupted: bool,
}

fn sweep(args: &Args) -> i32 {
    let noc = closed_loop_noc(args, 8);
    let opts = closed_loop_options(args, TAG);
    let threads: usize = args.get(
        "threads",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    );
    let covered: Vec<SiteRef> = fault::enumerate_sites(&noc)
        .into_iter()
        .filter(|s| containment_covered(s.signal))
        .collect();
    let want: usize = args.get("sites", 48);
    let sites = if want == 0 || want >= covered.len() {
        covered
    } else {
        fault::sample::stride(&covered, want)
    };
    let period: u32 = args.get("period", 50);
    let duty: u32 = args.get("duty", 10);
    let start = opts.warmup + 1_000;

    let campaign = match RecoveryCampaign::try_new(RecoveryCampaignConfig {
        noc: noc.clone(),
        opts,
    }) {
        Ok(c) => c,
        Err(e) => fail(TAG, &format!("campaign rejected config: {e}")),
    };

    println!(
        "== Recovery campaign: {}x{} mesh, {} covered sites x {} fault classes ==",
        noc.mesh.width(),
        noc.mesh.height(),
        sites.len(),
        CLASSES.len()
    );
    // Site-major, class-minor: class index of spec i is i % CLASSES.len(),
    // the same layout `golden::standard_recovery_specs` pins.
    let specs: Vec<FaultSpec> = sites
        .iter()
        .flat_map(|&site| {
            CLASSES
                .iter()
                .map(move |class| spec_for(class, site, start, period, duty))
        })
        .collect();
    let t0 = std::time::Instant::now();
    let report = match campaign.run_specs(&specs, threads, &resilience_from(args)) {
        Ok(r) => r,
        Err(e) => fail(TAG, &format!("campaign failed: {e}")),
    };
    eprintln!(
        "[recovery] {} rollouts in {:.1}s on {threads} threads ({} resumed)",
        report.reports.len(),
        t0.elapsed().as_secs_f64(),
        report.resumed
    );

    let mut classes: Vec<(String, ClassSummary)> = CLASSES
        .iter()
        .map(|c| (c.to_string(), ClassSummary::default()))
        .collect();
    let mut enforced_violations = 0u64;
    for (i, site_report) in report.reports.iter().enumerate() {
        let ci = i % CLASSES.len();
        let run = &site_report.run;
        classes[ci].1.absorb(run);
        let class = CLASSES[ci];
        // Every sustained fault class is enforced; only single-flip
        // transients stay report-only.
        let enforced = !matches!(class, "transient");
        if enforced && run.verdict != DeliveryVerdict::ExactlyOnce {
            enforced_violations += 1;
            eprintln!(
                "[recovery] VIOLATION {class} at {:?}: {:?} ({:?})",
                run.spec.map(|s| s.site),
                run.verdict,
                run.outcome
            );
        }
    }

    for (name, s) in &mut classes {
        println!("\n-- {name} --");
        row("rollouts (exactly-once / hung / partitioned / crashed)", {
            format!(
                "{} ({} / {} / {} / {})",
                s.runs, s.exactly_once, s.hung, s.partitioned, s.crashed
            )
        });
        if s.regions_formed + s.routers_absorbed + s.reroutes_taken > 0 {
            row(
                "fault regions (formed / absorbed / reroutes)",
                format!(
                    "{} / {} / {}",
                    s.regions_formed, s.routers_absorbed, s.reroutes_taken
                ),
            );
        }
        row(
            "delivered-packet ratio",
            format!("{:.6} ({}/{})", s.ratio(), s.delivered, s.offered),
        );
        row(
            "wire overhead per offered message",
            format!(
                "{:.4} retransmits + {:.4} control",
                s.retransmits as f64 / s.offered.max(1) as f64,
                s.control_packets as f64 / s.offered.max(1) as f64
            ),
        );
        let (p50, p90, max) = {
            let lat = &mut s.containment_latency;
            (
                percentile(lat, 50),
                percentile(lat, 90),
                lat.last().copied().unwrap_or(0),
            )
        };
        row(
            "containment latency cycles (p50/p90/max)",
            format!("{p50} / {p90} / {max}"),
        );
        let (dp50, dp90, dmax) = {
            let lat = &mut s.retransmit_delivery_latency;
            (
                percentile(lat, 50),
                percentile(lat, 90),
                lat.last().copied().unwrap_or(0),
            )
        };
        row(
            "retransmitted-delivery latency (p50/p90/max)",
            format!("{dp50} / {dp90} / {dmax}"),
        );
    }

    let out = Report {
        mesh: noc.mesh.width(),
        sites_swept: sites.len(),
        classes,
        enforced_violations,
        resumed: report.resumed,
        interrupted: report.interrupted,
    };
    maybe_write_json(args, &out);

    if report.interrupted {
        println!("\nINTERRUPTED: the sweep was cancelled before every rollout ran.");
        return 1;
    }
    if enforced_violations == 0 {
        println!("\nACCEPTED: 100% exactly-once delivery under every sustained fault swept.");
        0
    } else {
        println!("\nVIOLATED: {enforced_violations} sustained-fault rollouts lost delivery.");
        1
    }
}

/// The CI gate: a 4×4 mesh, one fault of each class at a fixed covered
/// site, 100% delivery or a non-zero exit.
fn smoke(args: &Args) -> i32 {
    use noc_types::site::SignalKind;
    let noc = closed_loop_noc(args, 4);
    let opts = closed_loop_options(args, TAG);
    let start = opts.warmup + 1_000;
    let cc = RecoveryCampaignConfig {
        noc: noc.clone(),
        opts,
    };
    let campaign = match RecoveryCampaign::try_new(cc) {
        Ok(c) => c,
        Err(e) => fail(TAG, &format!("campaign rejected config: {e}")),
    };
    // One covered site per fault class, spread over distinct checker
    // families. Intermittent deliberately lands on BufEmpty: duty-cycled
    // faults there used to stall worms alert-silently (the fixed DESIGN.md
    // §11 escape), so this pairing is the regression canary.
    let wanted: [(&str, SignalKind); 5] = [
        ("transient", SignalKind::VcEvSaWon),
        ("intermittent", SignalKind::BufEmpty),
        ("permanent", SignalKind::BufFull),
        ("stuck-at-0", SignalKind::RcHeadValid),
        ("stuck-at-1", SignalKind::RcOutDir),
    ];
    let universe = fault::enumerate_sites(&noc);
    let period: u32 = args.get("period", 50);
    let duty: u32 = args.get("duty", 10);
    println!("== Recovery smoke: 4x4 mesh, one fault per class ==");
    let mut failures = 0;
    for (class, signal) in wanted {
        // A middle-of-mesh router sees the densest traffic mix.
        let matching: Vec<&SiteRef> = universe.iter().filter(|s| s.signal == signal).collect();
        let Some(&&site) = matching.get(matching.len() / 2) else {
            fail(
                TAG,
                &format!("no site with signal {signal:?} in the universe"),
            );
        };
        let spec = spec_for(class, site, start, period, duty);
        let run = campaign.run_isolated(Some(&spec));
        let ok = run.verdict == DeliveryVerdict::ExactlyOnce;
        row(
            &format!("{class} @ {:?}", site),
            format!(
                "{} (ratio {:.3}, {} retransmits, {} containments, {:?})",
                if ok { "exactly-once" } else { "VIOLATED" },
                run.delivery_ratio(),
                run.transport.retransmits,
                run.trace.len(),
                run.outcome
            ),
        );
        if !ok {
            failures += 1;
            eprintln!(
                "[recovery] smoke FAILED for {class}: {:?} / {:?}",
                run.verdict, run.outcome
            );
        }
    }
    if failures == 0 {
        println!("\nSMOKE PASSED: 100% exactly-once delivery for every fault class.");
        0
    } else {
        println!("\nSMOKE FAILED: {failures} class(es) lost delivery.");
        1
    }
}

fn main() {
    let args = Args::from_env();
    let code = if args.flag("smoke") {
        smoke(&args)
    } else {
        sweep(&args)
    };
    std::process::exit(code);
}
