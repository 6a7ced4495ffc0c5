//! End-to-end survival pinning: any single persistent fault (permanent or
//! stuck-at) at a containment-covered site must end in exactly-once
//! delivery — detection drives containment, the fenced mesh keeps
//! routing, and the ARQ transport resends what containment destroyed.
//!
//! The full acceptance sweep lives in the `recovery` campaign binary
//! (`--smoke` gates CI); this test pins a deterministic sample so a
//! regression in any layer of the loop fails `cargo test` directly.

#![allow(clippy::expect_used)]

use fault::{FaultSpec, Watchdog};
use golden::{
    containment_covered, DeliveryVerdict, RecoveryCampaign, RecoveryCampaignConfig,
    RecoveryOptions, RecoveryOutcome,
};
use noc_sim::{ContainmentLevel, RecoveryPolicy};
use noc_types::site::SignalKind;
use noc_types::{Cycle, NocConfig, SiteRef};

fn recovery_cfg() -> NocConfig {
    let mut cfg = NocConfig::small_test();
    cfg.vcs_per_port = 2;
    cfg.message_classes = 1;
    cfg.packet_lengths = vec![5];
    cfg.injection_rate = 0.05;
    cfg
}

/// The recovery campaign over `noc` under `opts`.
fn campaign(noc: NocConfig, opts: RecoveryOptions) -> RecoveryCampaign {
    RecoveryCampaign::try_new(RecoveryCampaignConfig { noc, opts }).expect("valid options")
}

fn quick_opts() -> RecoveryOptions {
    RecoveryOptions {
        warmup: 200,
        active_window: 2_000,
        watchdog: Watchdog {
            cycle_budget: 120_000,
            stall_window: 1_500,
        },
        ..RecoveryOptions::paper_defaults()
    }
}

fn covered_sample(cfg: &NocConfig, n: usize) -> Vec<SiteRef> {
    let covered: Vec<SiteRef> = fault::enumerate_sites(cfg)
        .into_iter()
        .filter(|s| containment_covered(s.signal))
        .collect();
    assert!(
        covered.len() >= n,
        "covered universe unexpectedly small: {}",
        covered.len()
    );
    fault::sample::stride(&covered, n)
}

#[test]
fn persistent_faults_at_covered_sites_deliver_exactly_once() {
    let cfg = recovery_cfg();
    let h = campaign(cfg.clone(), quick_opts());
    for site in covered_sample(&cfg, 6) {
        for spec in [
            FaultSpec::permanent(site, 900),
            FaultSpec::stuck_at(site, false, 900),
            FaultSpec::stuck_at(site, true, 900),
        ] {
            let run = h.run_isolated(Some(&spec));
            assert!(
                !matches!(run.outcome, RecoveryOutcome::Crashed(_)),
                "rollout crashed at {site:?} ({:?})",
                spec.kind
            );
            assert_eq!(
                run.verdict,
                DeliveryVerdict::ExactlyOnce,
                "delivery violated at {site:?} ({:?}): {:?} / {:?}",
                spec.kind,
                run.outcome,
                run.transport
            );
        }
    }
}

#[test]
fn containment_actually_fires_under_a_persistent_fault() {
    // Exactly-once alone could hide a do-nothing containment layer (the
    // fault might happen to be maskable). Pin that a persistent fault on a
    // covered site consumes alerts and escalates to quarantine, and that
    // the transport resent something across the disruption.
    let cfg = recovery_cfg();
    let h = campaign(cfg.clone(), quick_opts());
    let site = covered_sample(&cfg, 6)[0];
    let run = h.run(Some(&FaultSpec::permanent(site, 900)));
    assert!(run.fault_hits > 0, "fault never touched a live wire");
    assert!(run.alerts > 0, "no invariance violations observed");
    assert!(
        run.recovery.alerts_consumed > 0,
        "no alerts reached containment"
    );
    assert!(
        run.recovery.disables > 0,
        "escalation never reached quarantine: {:?}",
        run.recovery
    );
    assert_eq!(run.verdict, DeliveryVerdict::ExactlyOnce);
}

fn buf_empty_site(cfg: &NocConfig, router: u16, port: u8, vc: u8) -> SiteRef {
    fault::enumerate_sites(cfg)
        .into_iter()
        .find(|s| {
            s.router == router && s.port == port && s.vc == vc && s.signal == SignalKind::BufEmpty
        })
        .expect("BufEmpty site exists at the pinned coordinates")
}

#[test]
fn duty_cycled_intermittent_buf_empty_delivers_and_quarantines() {
    // DESIGN.md §11's former known limit: a duty-cycled intermittent on
    // `BufEmpty` used to wedge the mesh — containment quarantined only the
    // upstream output side, so the faulty input VC kept replaying stale
    // flits as zombie worms, and each mid-worm reset orphaned the worm's
    // downstream fragment with its allocations held forever. Pin the exact
    // site and duty cycle that reproduced the hang: the run must now end
    // quiescent with the faulty VC quarantined and every message delivered
    // exactly once.
    let cfg = recovery_cfg();
    let site = buf_empty_site(&cfg, 2, 0, 1);
    let h = campaign(cfg, quick_opts());
    let run = h.run_isolated(Some(&FaultSpec::intermittent(site, 50, 10, 900)));
    assert!(run.fault_hits > 0, "fault never touched a live wire");
    assert!(
        matches!(run.outcome, RecoveryOutcome::Quiescent),
        "network never recovered: {:?} / {:?}",
        run.outcome,
        run.recovery
    );
    assert_eq!(
        run.verdict,
        DeliveryVerdict::ExactlyOnce,
        "delivery violated: {:?} / {:?}",
        run.recovery,
        run.transport
    );
    assert!(
        run.trace.iter().any(|ev| ev.router == site.router
            && ev.port == site.port
            && ev.vc == site.vc
            && ev.level == ContainmentLevel::Disable),
        "faulty VC never quarantined: {:?}",
        run.trace
    );
}

#[test]
fn alert_silent_buf_empty_freeze_needs_the_worm_age_monitor() {
    // A single long `BufEmpty` burst that begins while a worm is ACTIVE
    // freezes it with flits still buffered: reads are skipped, no pipeline
    // events fire, and no invariance is violated — the stall is genuinely
    // alert-silent, so only the per-VC worm-age monitor can see it.
    let cfg = recovery_cfg();
    let site = buf_empty_site(&cfg, 7, 3, 0);
    let spec = FaultSpec::intermittent(site, 119_000, 118_999, 1_100);

    // Monitor disabled: the frozen worm wedges the drain phase forever.
    // This arm pins that the scenario still exercises the silent stall
    // (otherwise the recovering arm below proves nothing).
    let blind = RecoveryOptions {
        policy: RecoveryPolicy {
            stall_age: Cycle::MAX,
            ..RecoveryPolicy::default_policy()
        },
        ..quick_opts()
    };
    let h = campaign(cfg.clone(), blind);
    let run = h.run_isolated(Some(&spec));
    assert!(
        matches!(run.outcome, RecoveryOutcome::Hung(_)),
        "scenario no longer reproduces the alert-silent freeze: {:?}",
        run.outcome
    );

    // Monitor at defaults: the stalled worm ages out, containment drains
    // it, and the run ends quiescent with exactly-once delivery.
    let h = campaign(cfg, quick_opts());
    let run = h.run_isolated(Some(&spec));
    assert!(
        matches!(run.outcome, RecoveryOutcome::Quiescent),
        "monitor failed to clear the frozen worm: {:?} / {:?}",
        run.outcome,
        run.recovery
    );
    assert_eq!(
        run.verdict,
        DeliveryVerdict::ExactlyOnce,
        "delivery violated: {:?} / {:?}",
        run.recovery,
        run.transport
    );
    assert!(
        run.trace
            .iter()
            .any(|ev| ev.router == site.router && ev.port == site.port && ev.vc == site.vc),
        "monitor never escalated the frozen VC: {:?}",
        run.trace
    );
}
