//! Before/after equivalence sweep (ISSUE 5): golden seeds through the
//! campaign pipelines behind every experiment binary, with aggregates
//! pinned to committed snapshots generated on the **pre-refactor** code.
//!
//! The allocation-free hot path, the dense e2e/ARQ slabs and the
//! campaign arena must change *nothing observable*: every per-run
//! result and every derived statistic has to come out bit-identical.
//! Each test here drives the library pipeline behind one of the
//! `nocalert-bench` binaries (`figures`, `obs3`, `ablate`, `recovery`),
//! or a variant of it, at laptop scale with the stock golden seed,
//! serializes the aggregates, and diffs them against
//! `tests/snapshots/<name>.json`. Snapshot names keep the per-figure
//! binary names they were generated under.
//!
//! Regenerating a snapshot is an explicit, reviewed act:
//!
//! ```text
//! NOCSIM_UPDATE_SNAPSHOTS=all cargo test --test equivalence_sweep
//! NOCSIM_UPDATE_SNAPSHOTS=recovery_classes cargo test --test equivalence_sweep
//! ```
//!
//! The detection snapshots were generated before the hot-path overhaul
//! and are intentionally left untouched by it. The `recovery_classes`
//! snapshot postdates the BufEmpty stall fix (the fix legitimately
//! changes intermittent-fault outcomes — that is its point) and the
//! `RecoveryRun` schema extension that added the `checkers` /
//! `first_alert_at` fields for service incident clustering (purely
//! additive; every simulation figure stayed bit-identical).

#![allow(clippy::expect_used, clippy::panic)]

use fault::FaultSpec;
use golden::stats::{breakdown, checker_shares, latency_cdf, simultaneity_cdf};
use golden::{
    Campaign, CampaignConfig, Detector, RecoveryCampaign, RecoveryCampaignConfig, RecoveryOptions,
};
use noc_types::NocConfig;
use serde::Serialize;
use std::path::PathBuf;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.json"))
}

/// Serializes `value` and diffs it against the committed snapshot, or
/// rewrites the snapshot when `NOCSIM_UPDATE_SNAPSHOTS` names it (or is
/// `all`).
fn check<T: Serialize>(name: &str, value: &T) {
    let got = serde_json::to_string_pretty(value).expect("aggregate serializes");
    let path = snapshot_path(name);
    let update = std::env::var("NOCSIM_UPDATE_SNAPSHOTS").unwrap_or_default();
    if update == "all" || update.split(',').any(|u| u == name) {
        std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("mkdir snapshots");
        std::fs::write(&path, got + "\n").expect("write snapshot");
        eprintln!("[equivalence] updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); generate it with NOCSIM_UPDATE_SNAPSHOTS={name}",
            path.display()
        )
    });
    assert_eq!(
        got,
        want.trim_end(),
        "{name}: aggregates diverged from the pre-refactor snapshot"
    );
}

fn sweep_noc() -> NocConfig {
    let mut noc = NocConfig::small_test();
    noc.injection_rate = 0.08;
    noc
}

fn sweep_cc(noc: NocConfig, warmup: u64) -> CampaignConfig {
    CampaignConfig {
        noc,
        warmup,
        active_window: 400,
        drain_deadline: 8_000,
        forever_epoch: 300,
    }
}

fn transient_results(campaign: &Campaign, n: usize) -> Vec<golden::RunResult> {
    let sites = fault::sample::stride(&fault::enumerate_sites(&campaign.config().noc), n);
    campaign.run_many(&sites, 2)
}

/// `figures`' steady-state sweep and the Figure 6–9 statistics it
/// derives from it.
#[test]
fn transient_campaign_and_figure_stats_match_snapshots() {
    let campaign = Campaign::new(sweep_cc(sweep_noc(), 300));
    let results = transient_results(&campaign, 6);
    check("fig6_w300_results", &results);
    let breakdowns: Vec<_> = [
        Detector::NoCAlert,
        Detector::NoCAlertCautious,
        Detector::ForEVeR,
    ]
    .iter()
    .map(|&d| breakdown(&results, d))
    .collect();
    check("fig6_w300_breakdowns", &breakdowns);
    check(
        "fig7_latency_cdf",
        &latency_cdf(&results, Detector::NoCAlert),
    );
    check("fig8_checker_shares", &checker_shares(&results).to_vec());
    check("fig9_simultaneity_cdf", &simultaneity_cdf(&results));
}

/// `figures`' empty-network sweep: injection at cycle 0.
#[test]
fn empty_network_campaign_matches_snapshot() {
    let campaign = Campaign::new(sweep_cc(sweep_noc(), 0));
    let results = transient_results(&campaign, 4);
    check("fig6_w0_results", &results);
}

/// Detection breakdown as a function of offered load (no binary runs
/// this sweep; `fig10` reports hardware overheads).
#[test]
fn load_sweep_matches_snapshot() {
    let mut out = Vec::new();
    for rate in [0.04, 0.12] {
        let mut noc = sweep_noc();
        noc.injection_rate = rate;
        let campaign = Campaign::new(sweep_cc(noc, 300));
        let results = transient_results(&campaign, 4);
        out.push((
            format!("{rate}"),
            breakdown(&results, Detector::NoCAlert),
            results,
        ));
    }
    check("fig10_load_sweep", &out);
}

/// `obs3`: permanent and intermittent fault classes through the same
/// campaign driver.
#[test]
fn persistent_fault_campaign_matches_snapshot() {
    let campaign = Campaign::new(sweep_cc(sweep_noc(), 300));
    let sites = fault::sample::stride(&fault::enumerate_sites(&campaign.config().noc), 4);
    let start = campaign.injection_cycle();
    let mut out = Vec::new();
    for site in sites {
        out.push(campaign.run_spec_in(&mut campaign.arena(), FaultSpec::permanent(site, start)));
        out.push(campaign.run_spec_in(
            &mut campaign.arena(),
            FaultSpec::intermittent(site, 50, 10, start),
        ));
    }
    check("obs3_persistent_results", &out);
}

/// The transient campaign on the speculative-pipeline microarchitecture
/// variant (no binary runs it; Observation 5 reads the baseline sweep).
#[test]
fn speculative_campaign_matches_snapshot() {
    let mut noc = sweep_noc();
    noc.speculative = true;
    let campaign = Campaign::new(sweep_cc(noc, 300));
    let results = transient_results(&campaign, 4);
    check("obs5_speculative_results", &results);
}

/// `ablate`: checker-ablation sweep (one disabled checker).
#[test]
fn ablation_campaign_matches_snapshot() {
    let mut campaign = Campaign::new(sweep_cc(sweep_noc(), 300));
    campaign.disable_checker(nocalert::CheckerId(5));
    let results = transient_results(&campaign, 4);
    check("ablate_results", &results);
    check("ablate_breakdown", &breakdown(&results, Detector::NoCAlert));
}

/// `recovery`: the closed-loop class sweep. This snapshot was generated
/// **after** the BufEmpty worm-stall fix (the fix changes
/// intermittent-fault outcomes by design) and pins the perf refactor
/// thereafter.
#[test]
fn recovery_class_sweep_matches_snapshot() {
    let mut noc = NocConfig::small_test();
    noc.vcs_per_port = 2;
    noc.message_classes = 1;
    noc.packet_lengths = vec![5];
    noc.injection_rate = 0.05;
    let opts = RecoveryOptions {
        warmup: 200,
        active_window: 1_500,
        watchdog: fault::Watchdog {
            cycle_budget: 80_000,
            stall_window: 1_500,
        },
        ..RecoveryOptions::paper_defaults()
    };
    let harness = RecoveryCampaign::try_new(RecoveryCampaignConfig {
        noc: noc.clone(),
        opts,
    })
    .expect("valid options");
    let universe = fault::enumerate_sites(&noc);
    let site = *universe
        .iter()
        .find(|s| s.router == 5 && golden::containment_covered(s.signal) && s.bit == 0)
        .expect("covered site on router 5");
    let specs = [
        FaultSpec::transient(site, 900),
        FaultSpec::intermittent(site, 50, 10, 900),
        FaultSpec::permanent(site, 900),
        FaultSpec::stuck_at(site, false, 900),
        FaultSpec::stuck_at(site, true, 900),
    ];
    let runs: Vec<_> = specs.iter().map(|s| harness.run(Some(s))).collect();
    check("recovery_classes", &runs);
}
