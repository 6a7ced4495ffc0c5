//! End-to-end tests of the resilient campaign runtime: panic isolation,
//! watchdog termination, checkpoint/resume, thread-count invariance and
//! cancellation. These drive the public API exactly the way the bench
//! binaries do and check the ISSUE's acceptance criteria: a campaign
//! containing a panicking run and a deadlocking run completes end-to-end
//! with structured outcomes, and `--resume` after an interruption
//! reproduces the exact aggregates of an uninterrupted run for any
//! worker count.

#![allow(clippy::unreachable)]

use fault::{FaultSpec, HangKind, Watchdog};
use golden::stats::breakdown;
use golden::{Campaign, CampaignConfig, Detector, ResilienceOptions, RunOutcome};
use noc_types::site::{FaultKind, SignalKind, SiteRef};
use noc_types::NocConfig;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn small_campaign() -> Campaign {
    let mut noc = NocConfig::small_test();
    noc.injection_rate = 0.08;
    Campaign::new(CampaignConfig {
        noc,
        warmup: 300,
        active_window: 400,
        drain_deadline: 10_000,
        forever_epoch: 300,
    })
}

fn transient_specs(c: &Campaign, n: usize) -> Vec<FaultSpec> {
    fault::sample::stride(&fault::enumerate_sites(&c.config().noc), n)
        .into_iter()
        .map(|s| FaultSpec::transient(s, c.injection_cycle()))
        .collect()
}

/// A spec whose fault model divides by zero on first evaluation: the
/// deliberate panic vector (`FaultSpec::validate` rejects it, the
/// rollout path does not, so it exercises the isolation boundary).
fn poisoned_spec(c: &Campaign) -> FaultSpec {
    FaultSpec {
        site: SiteRef {
            router: 1,
            port: 0,
            vc: 0,
            signal: SignalKind::Sa1Req,
            bit: 0,
        },
        kind: FaultKind::Intermittent { period: 0, duty: 1 },
        start: c.injection_cycle(),
    }
}

/// A permanent grant-path fault that provably wedges the small network
/// (found by sweeping the site universe; request suppression leaves the
/// victim port's flits stuck forever, so the drain phase stalls).
fn deadlocking_spec(c: &Campaign) -> FaultSpec {
    FaultSpec::permanent(
        SiteRef {
            router: 5,
            port: 4,
            vc: 0,
            signal: SignalKind::Sa1Req,
            bit: 0,
        },
        c.injection_cycle(),
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nocalert-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn campaign_with_crash_and_deadlock_completes_with_structured_outcomes() {
    let c = small_campaign();
    let mut specs = transient_specs(&c, 12);
    specs.insert(3, poisoned_spec(&c));
    specs.insert(7, deadlocking_spec(&c));
    let dog = Watchdog {
        cycle_budget: u64::MAX,
        stall_window: 200,
    };
    let report = c
        .run_many_resilient(&specs, 2, dog, &ResilienceOptions::default())
        .unwrap();

    assert_eq!(report.reports.len(), specs.len(), "every site reported");
    assert!(!report.interrupted);

    let crashed: Vec<_> = report
        .reports
        .iter()
        .filter(|r| r.outcome.is_crashed())
        .collect();
    assert_eq!(crashed.len(), 1);
    match &crashed[0].outcome {
        RunOutcome::Crashed {
            site,
            injected_at,
            payload,
            ..
        } => {
            assert_eq!(*site, poisoned_spec(&c).site);
            assert_eq!(*injected_at, c.injection_cycle());
            assert!(payload.contains("divisor of zero"), "{payload}");
        }
        _ => unreachable!(),
    }

    let deadlocked: Vec<_> = report
        .reports
        .iter()
        .filter(|r| r.outcome.is_deadlock())
        .collect();
    assert_eq!(deadlocked.len(), 1);
    match &deadlocked[0].outcome {
        RunOutcome::Deadlock { result, hang } => {
            assert_eq!(result.site, deadlocking_spec(&c).site);
            assert_eq!(hang.kind, HangKind::NoProgress);
            assert!(hang.at_cycle > c.injection_cycle());
            assert!(hang.stalled_for >= 200);
            // The truncated run still classified against the oracle, and
            // an undrained network is a bounded-delivery violation.
            assert!(result.malicious());
        }
        _ => unreachable!(),
    }

    // Both terminations re-ran deterministically.
    assert_eq!(report.determinism_violations(), 0);
    // Healthy runs classified normally and feed the stats unchanged.
    let results = report.results();
    assert_eq!(results.len(), specs.len() - 1, "only the crash is excluded");
    let b = breakdown(&results, Detector::NoCAlert);
    assert_eq!(b.runs, results.len());
}

#[test]
fn resume_after_interruption_reproduces_aggregates_for_any_worker_count() {
    let c = small_campaign();
    let specs = transient_specs(&c, 30);
    let dir = tmpdir("resume");

    // Reference: uninterrupted, no checkpointing, single-threaded.
    let reference = c
        .run_many_resilient(
            &specs,
            1,
            Watchdog::default_policy(),
            &ResilienceOptions::default(),
        )
        .unwrap();
    let ref_stats = breakdown(&reference.results(), Detector::NoCAlert);

    // Interrupted first attempt: the cancel flag trips after the first
    // shard append (simulating a mid-campaign kill; the per-line flush
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
    let first = c
        .run_many_resilient(
            &specs,
            1,
            Watchdog::default_policy(),
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
        first.reports.len() < specs.len(),
        "some sites must remain for the resumed run"
    );

    // Resume with a different worker count: exact same aggregates.
    let resumed = c
        .run_many_resilient(
            &specs,
            4,
            Watchdog::default_policy(),
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
    let resumed_stats = breakdown(&resumed.results(), Detector::NoCAlert);
    assert_eq!(resumed_stats, ref_stats);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpointed_workers_are_bit_identical_across_thread_counts() {
    let c = small_campaign();
    let specs = transient_specs(&c, 24);
    let d1 = tmpdir("w1");
    let d4 = tmpdir("w4");
    let run = |threads: usize, dir: &PathBuf| {
        c.run_many_resilient(
            &specs,
            threads,
            Watchdog::default_policy(),
            &ResilienceOptions {
                checkpoint_dir: Some(dir.clone()),
                ..ResilienceOptions::default()
            },
        )
        .unwrap()
    };
    let one = run(1, &d1);
    let four = run(4, &d4);
    assert_eq!(one, four);

    // A full re-read of each checkpoint also reproduces the aggregates:
    // the JSONL round-trip is lossless.
    for dir in [&d1, &d4] {
        let reread = c
            .run_many_resilient(
                &specs,
                2,
                Watchdog::default_policy(),
                &ResilienceOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    ..ResilienceOptions::default()
                },
            )
            .unwrap();
        assert_eq!(reread.resumed, specs.len(), "nothing left to run");
        assert_eq!(reread.reports, one.reports);
    }
    std::fs::remove_dir_all(&d1).unwrap();
    std::fs::remove_dir_all(&d4).unwrap();
}
