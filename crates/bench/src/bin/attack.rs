//! **Attack campaign (DESIGN.md §14)** — the adversarial fault plane:
//! compromised-router attack models acting *past* the checkers, judged
//! by a detection/mitigation matrix. Every (attacker model × router ×
//! intensity) cell is classified as detected-by-bank,
//! caught-by-delivery-oracle, mitigated-by-ARQ, vacuous, or — the bucket
//! this campaign exists to rule out — undetected loss. The acceptance
//! bar asserted here (exit code 1 on violation): **zero cells land in
//! the undetected-loss bucket and zero rollouts crash**.
//!
//! Alongside the matrix, the campaign reports the detection-latency
//! distribution (attacker going live → first genuine evidence) and the
//! wire overhead per offered message against a no-attack baseline run —
//! the adversarial counterpart of the Figure-7 transient-fault numbers.
//!
//! ```text
//! cargo run --release -p nocalert-bench --bin attack -- \
//!     [--smoke] [--mesh K] [--rate F] [--routers N] [--every E] \
//!     [--threads T] [--seed S] [--checkpoint-dir DIR] [--resume] \
//!     [--cycle-budget C] [--stall-window C] [--json PATH]
//! ```
//!
//! With `--checkpoint-dir`, every finished cell is journalled, `--resume`
//! picks a previous sweep back up, and creating `<checkpoint-dir>/STOP`
//! stops the sweep between cells (exit 1, `INTERRUPTED`).
//!
//! `--smoke` runs the CI gate instead of the sweep: a 4×4 mesh, one cell
//! per attacker model at a central router, asserting an accepted matrix.
//!
//! Mesh shape mirrors the recovery campaign (one message class, sibling
//! VCs) so containment always leaves a lane for retransmissions.

use golden::{
    standard_cells, AttackCampaign, AttackCampaignConfig, AttackCell, AttackCellReport,
    AttackClass, RecoveryCampaign, RecoveryCampaignConfig, RecoveryOptions, RecoveryOutcome,
    SweepReport,
};
use noc_types::{AttackKind, NocConfig};
use nocalert_bench::{
    closed_loop_noc, closed_loop_options, fail, maybe_write_json, percentile, resilience_from, row,
    Args,
};
use serde::Serialize;

/// The binary's tag in fatal diagnostics.
const TAG: &str = "attack";

fn kind_label(kind: AttackKind) -> &'static str {
    match kind {
        AttackKind::PacketDrop { .. } => "packet-drop",
        AttackKind::FlitDrop { .. } => "flit-drop",
        AttackKind::PayloadCorrupt { .. } => "payload-corrupt",
        AttackKind::Misroute { .. } => "misroute",
        AttackKind::AckSpoof { .. } => "ack-spoof",
        AttackKind::CtlReplay { .. } => "ctl-replay",
        AttackKind::AlertSuppress => "alert-suppress",
        AttackKind::AlertFlood { .. } => "alert-flood",
    }
}

fn kind_intensity(kind: AttackKind) -> u32 {
    match kind {
        AttackKind::PacketDrop { every }
        | AttackKind::FlitDrop { every }
        | AttackKind::PayloadCorrupt { every }
        | AttackKind::Misroute { every }
        | AttackKind::AckSpoof { every }
        | AttackKind::CtlReplay { every } => every,
        AttackKind::AlertSuppress => 0,
        AttackKind::AlertFlood { per_cycle } => per_cycle.into(),
    }
}

/// One row of the printed matrix: an attacker model at one intensity,
/// aggregated over the swept routers.
#[derive(Debug, Default, Serialize)]
struct MatrixRow {
    cells: u64,
    vacuous: u64,
    detected_by_bank: u64,
    caught_by_oracle: u64,
    mitigated_by_arq: u64,
    undetected_loss: u64,
    crashed: u64,
    detection_latency: Vec<u64>,
    overhead_sum: f64,
}

impl MatrixRow {
    fn absorb(&mut self, run: &golden::AttackRun) {
        self.cells += 1;
        match run.class {
            AttackClass::Vacuous => self.vacuous += 1,
            AttackClass::DetectedByBank => self.detected_by_bank += 1,
            AttackClass::CaughtByOracle => self.caught_by_oracle += 1,
            AttackClass::MitigatedByArq => self.mitigated_by_arq += 1,
            AttackClass::UndetectedLoss => self.undetected_loss += 1,
        }
        if matches!(run.outcome, RecoveryOutcome::Crashed(_)) {
            self.crashed += 1;
        }
        if let Some(lat) = run.detection_latency() {
            self.detection_latency.push(lat);
        }
        self.overhead_sum += run.overhead_per_message();
    }
}

#[derive(Debug, Serialize)]
struct Report {
    mesh: u8,
    routers_swept: Vec<u16>,
    intensities: Vec<u32>,
    cells: usize,
    resumed: usize,
    interrupted: bool,
    baseline_overhead: f64,
    rows: Vec<(String, u32, MatrixRow)>,
    undetected_loss: u64,
    crashed: u64,
}

/// No-attack, no-fault rollout under identical options — the overhead
/// baseline the matrix rows are compared against.
fn baseline_overhead(noc: &NocConfig, opts: RecoveryOptions) -> f64 {
    let noc = noc.clone();
    match RecoveryCampaign::try_new(RecoveryCampaignConfig { noc, opts }) {
        Ok(c) => c.run(None).overhead_per_message(),
        Err(e) => fail(TAG, &format!("baseline campaign rejected config: {e}")),
    }
}

fn print_report(
    report: &SweepReport<AttackCellReport>,
    rows: &[(String, u32, MatrixRow)],
    baseline: f64,
) {
    println!(
        "\n{:<18} {:>5} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>16} {:>9}",
        "model",
        "every",
        "bank",
        "oracle",
        "arq",
        "vacuous",
        "SILENT",
        "det.lat p50/p90",
        "overhead"
    );
    for (label, every, r) in rows {
        let mut lat = r.detection_latency.clone();
        let (p50, p90) = (percentile(&mut lat, 50), percentile(&mut lat, 90));
        println!(
            "{:<18} {:>5} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>8}/{:<7} {:>8.3}",
            label,
            every,
            r.detected_by_bank,
            r.caught_by_oracle,
            r.mitigated_by_arq,
            r.vacuous,
            r.undetected_loss,
            p50,
            p90,
            r.overhead_sum / r.cells.max(1) as f64,
        );
    }
    println!(
        "\nbaseline overhead (no attack): {baseline:.3} extra packets per offered message; \
         {} cells resumed from journal",
        report.resumed
    );
}

fn aggregate(report: &SweepReport<AttackCellReport>) -> Vec<(String, u32, MatrixRow)> {
    let mut rows: Vec<(String, u32, MatrixRow)> = Vec::new();
    for cr in &report.reports {
        let label = kind_label(cr.cell.spec.kind).to_string();
        let every = kind_intensity(cr.cell.spec.kind);
        let at = match rows.iter().position(|(l, e, _)| *l == label && *e == every) {
            Some(i) => i,
            None => {
                rows.push((label, every, MatrixRow::default()));
                rows.len() - 1
            }
        };
        rows[at].2.absorb(&cr.run);
    }
    rows
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
    let seed: u64 = args.get("attack-seed", 1u64);
    let start = opts.warmup + 500;

    // Attacker placement: a deterministic spread over the mesh interior
    // and edge (corner routers see the thinnest traffic, centre the
    // densest — both matter for vacuity and detectability).
    let n = noc.mesh.len() as u16;
    let want: usize = args.get("routers", 4);
    let stride = (n as usize / want.max(1)).max(1);
    let routers: Vec<u16> = (0..n).step_by(stride).take(want.max(1)).collect();

    // Intensity ladder: every=1 is the loudest attacker, larger periods
    // approach the stealthy limit. `--every E` restricts to one rung.
    let pick: u32 = args.get("every", 0u32);
    let intensities: Vec<u32> = if pick == 0 { vec![1, 2, 4] } else { vec![pick] };

    let mut cells: Vec<AttackCell> = Vec::new();
    for (i, &every) in intensities.iter().enumerate() {
        cells.extend(standard_cells(
            &noc,
            &routers,
            every,
            start,
            seed.wrapping_add(i as u64),
        ));
    }
    // The alert-channel models (suppress/flood) have no `every` knob, so
    // the intensity rungs repeat them with distinct attacker seeds —
    // extra samples of the same model, which the matrix aggregates.
    println!(
        "== Attack campaign: {}x{} mesh, {} attacker routers x {} intensities -> {} cells ==",
        noc.mesh.width(),
        noc.mesh.height(),
        routers.len(),
        intensities.len(),
        cells.len()
    );

    let cc = AttackCampaignConfig {
        noc: noc.clone(),
        opts,
    };
    let campaign = match AttackCampaign::try_new(cc) {
        Ok(c) => c,
        Err(e) => fail(TAG, &format!("campaign rejected config: {e}")),
    };
    let t0 = std::time::Instant::now();
    let report = match campaign.run_cells(&cells, threads, &resilience_from(args)) {
        Ok(r) => r,
        Err(e) => fail(TAG, &format!("campaign failed: {e}")),
    };
    eprintln!(
        "[attack] {} rollouts in {:.1}s on {threads} threads",
        report.reports.len() - report.resumed,
        t0.elapsed().as_secs_f64()
    );

    let baseline = baseline_overhead(&noc, opts);
    let rows = aggregate(&report);
    print_report(&report, &rows, baseline);

    let undetected: u64 = rows.iter().map(|(_, _, r)| r.undetected_loss).sum();
    let crashed: u64 = rows.iter().map(|(_, _, r)| r.crashed).sum();
    let json = Report {
        mesh: noc.mesh.width(),
        routers_swept: routers,
        intensities,
        cells: cells.len(),
        resumed: report.resumed,
        interrupted: report.interrupted,
        baseline_overhead: baseline,
        rows,
        undetected_loss: undetected,
        crashed,
    };
    maybe_write_json(args, &json);

    if report.interrupted {
        println!("\nINTERRUPTED: the sweep was cancelled before every cell ran.");
        return 1;
    }
    if report.accepted() {
        println!(
            "\nACCEPTED: zero undetected-loss cells across {} attack cells.",
            json.cells
        );
        0
    } else {
        println!("\nVIOLATED: {undetected} undetected-loss cell(s), {crashed} crashed rollout(s).");
        1
    }
}

/// The CI gate: a 4×4 mesh, one cell per attacker model at a central
/// router, an accepted matrix or a non-zero exit.
fn smoke(args: &Args) -> i32 {
    let noc = closed_loop_noc(args, 4);
    let opts = closed_loop_options(args, TAG);
    let start = opts.warmup + 500;
    let cc = AttackCampaignConfig {
        noc: noc.clone(),
        opts,
    };
    let campaign = match AttackCampaign::try_new(cc) {
        Ok(c) => c,
        Err(e) => fail(TAG, &format!("campaign rejected config: {e}")),
    };
    // Centre-of-mesh attacker sees the densest traffic mix, at full rate
    // (every=1): forged controls are injected downstream of the attacker's
    // egress filter, so even the loudest spoofing model genuinely
    // exercises the hardened ARQ path.
    let router = (noc.mesh.len() / 2) as u16 + noc.mesh.width() as u16 / 2;
    let cells = standard_cells(&noc, &[router], 1, start, 1);
    println!(
        "== Attack smoke: 4x4 mesh, {} attacker models at router {router} ==",
        cells.len()
    );
    let mut failures = 0;
    for cell in &cells {
        let run = match campaign.run_isolated(&cell.spec, cell.fault.as_ref()) {
            Ok(r) => r,
            Err(e) => fail(TAG, &format!("cell rejected: {e}")),
        };
        let ok = run.class != AttackClass::UndetectedLoss
            && !matches!(run.outcome, RecoveryOutcome::Crashed(_));
        row(
            kind_label(cell.spec.kind),
            format!(
                "{:?} ({:?}, {} interference, {} suspicions, {} alerts)",
                run.class,
                run.verdict,
                golden::effective_interference(
                    &run.attack,
                    run.intents_performed,
                    run.suppressed_alerts
                ),
                run.suspicions,
                run.bank_alerts
            ),
        );
        if !ok {
            failures += 1;
            eprintln!(
                "[attack] smoke FAILED for {}: {:?} / {:?}",
                kind_label(cell.spec.kind),
                run.class,
                run.outcome
            );
        }
    }
    if failures == 0 {
        println!("\nSMOKE PASSED: no undetected-loss cell across every attacker model.");
        0
    } else {
        println!("\nSMOKE FAILED: {failures} attacker model(s) escaped unexplained.");
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
