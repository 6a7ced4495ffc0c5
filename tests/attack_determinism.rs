//! End-to-end determinism tests of the attack campaign: aggregates must
//! be byte-identical across worker counts, and an interrupted + resumed
//! sweep must reproduce an uninterrupted run exactly. This is the
//! adversarial counterpart of `campaign_resilience.rs`: the attacker's
//! victim selection runs from a private per-cell RNG, so neither thread
//! scheduling nor journal shard layout may leak into the matrix.

use fault::Watchdog;
use golden::{
    standard_cells, AttackCampaign, AttackCampaignConfig, AttackCell, RecoveryOptions,
    ResilienceOptions,
};
use noc_types::NocConfig;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn small_config() -> AttackCampaignConfig {
    let mut noc = NocConfig::small_test();
    noc.injection_rate = 0.05;
    AttackCampaignConfig {
        noc,
        opts: RecoveryOptions {
            warmup: 200,
            active_window: 1_000,
            watchdog: Watchdog {
                cycle_budget: 15_000,
                stall_window: 1_000,
            },
            ..RecoveryOptions::paper_defaults()
        },
    }
}

/// Every attacker model at two routers — small enough to run four times
/// in one test binary, wide enough to cover every intent path.
fn cells(cc: &AttackCampaignConfig) -> Vec<AttackCell> {
    standard_cells(&cc.noc, &[5, 10], 2, 300, 1)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nocalert-attack-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn attack_matrix_is_bit_identical_across_worker_counts() {
    let cc = small_config();
    let campaign = AttackCampaign::try_new(cc.clone()).unwrap();
    let cells = cells(&cc);
    let d1 = tmpdir("w1");
    let d4 = tmpdir("w4");
    let run = |threads: usize, dir: &PathBuf| {
        campaign
            .run_cells(
                &cells,
                threads,
                &ResilienceOptions {
                    checkpoint_dir: Some(dir.clone()),
                    ..ResilienceOptions::default()
                },
            )
            .unwrap()
    };
    let one = run(1, &d1);
    let four = run(4, &d4);
    assert_eq!(one, four, "worker count leaked into the matrix");
    assert_eq!(one.reports.len(), cells.len());
    assert!(!one.interrupted);

    // A full re-read of each journal reproduces the aggregates: the
    // JSONL round-trip is lossless regardless of shard layout.
    for dir in [&d1, &d4] {
        let reread = campaign
            .run_cells(
                &cells,
                2,
                &ResilienceOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    ..ResilienceOptions::default()
                },
            )
            .unwrap();
        assert_eq!(reread.resumed, cells.len(), "nothing left to run");
        assert_eq!(reread.reports, one.reports);
    }
    std::fs::remove_dir_all(&d1).unwrap();
    std::fs::remove_dir_all(&d4).unwrap();
}

#[test]
fn interrupted_attack_sweep_resumes_to_the_uninterrupted_aggregates() {
    let cc = small_config();
    let campaign = AttackCampaign::try_new(cc.clone()).unwrap();
    let cells = cells(&cc);
    let dir = tmpdir("resume");

    // Reference: uninterrupted, no journalling.
    let reference = campaign
        .run_cells(&cells, 1, &ResilienceOptions::default())
        .unwrap();
    assert!(!reference.interrupted);

    // Interrupted first attempt: the cancel flag trips after the first
    // journal append (simulating a mid-sweep kill; the per-line flush
    // makes everything already appended durable).
    let flag = Arc::new(AtomicBool::new(false));
    let watcher = Arc::clone(&flag);
    let probe = dir.join("shard-w0.jsonl");
    let poller = std::thread::spawn(move || loop {
        if probe.exists() {
            watcher.store(true, std::sync::atomic::Ordering::SeqCst);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    });
    let first = campaign
        .run_cells(
            &cells,
            1,
            &ResilienceOptions {
                checkpoint_dir: Some(dir.clone()),
                cancel: Some(flag),
                ..ResilienceOptions::default()
            },
        )
        .unwrap();
    poller.join().unwrap();
    assert!(first.interrupted, "cancellation must interrupt the sweep");
    assert!(
        first.reports.len() < cells.len(),
        "some cells must remain for the resumed run"
    );

    // Resume with a different worker count: exact same aggregates.
    let resumed = campaign
        .run_cells(
            &cells,
            3,
            &ResilienceOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..ResilienceOptions::default()
            },
        )
        .unwrap();
    assert!(!resumed.interrupted);
    assert!(resumed.resumed >= 1);
    assert_eq!(resumed.reports, reference.reports);
    assert_eq!(resumed.matrix(), reference.matrix());

    std::fs::remove_dir_all(&dir).unwrap();
}
