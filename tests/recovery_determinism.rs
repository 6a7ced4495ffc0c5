//! Determinism of the closed-loop recovery harness: the same seed and
//! fault spec must reproduce a byte-identical recovery trace and
//! aggregates for every fault class. Containment decisions, ARQ timer
//! fires and degraded-routing choices are all part of the simulated
//! machine, so nothing about a rerun may depend on host state.

#![allow(clippy::expect_used)]

use fault::{FaultSpec, Watchdog};
use golden::{RecoveryCampaign, RecoveryCampaignConfig, RecoveryOptions};
use noc_types::NocConfig;

fn quick_cfg() -> NocConfig {
    let mut cfg = NocConfig::small_test();
    // The recovery campaign's pooled-class shape: quarantine must always
    // leave a sibling VC for the class the faulty one carried.
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
        active_window: 1_500,
        watchdog: Watchdog {
            cycle_budget: 80_000,
            stall_window: 1_500,
        },
        ..RecoveryOptions::paper_defaults()
    }
}

fn roundtrip(spec: &FaultSpec) -> (String, String) {
    let h = campaign(quick_cfg(), quick_opts());
    let a = h.run(Some(spec));
    let b = h.run(Some(spec));
    (
        serde_json::to_string(&a).expect("serializable run"),
        serde_json::to_string(&b).expect("serializable run"),
    )
}

#[test]
fn recovery_runs_are_byte_identical_per_class() {
    let cfg = quick_cfg();
    let sites = fault::enumerate_sites(&cfg);
    let site = sites[sites.len() / 3];
    let specs = [
        FaultSpec::transient(site, 900),
        FaultSpec::intermittent(site, 50, 10, 900),
        FaultSpec::permanent(site, 900),
        FaultSpec::stuck_at(site, false, 900),
        FaultSpec::stuck_at(site, true, 900),
    ];
    for spec in &specs {
        let (a, b) = roundtrip(spec);
        assert_eq!(a, b, "rerun diverged for {:?}", spec.kind);
    }
}

#[test]
fn fault_free_baseline_is_deterministic_too() {
    let h = campaign(quick_cfg(), quick_opts());
    let a = serde_json::to_string(&h.run(None)).expect("serializable run");
    let b = serde_json::to_string(&h.run(None)).expect("serializable run");
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_the_trace_inputs() {
    // Sanity check that the byte-equality above is not vacuous: a
    // different seed must change the workload (offered traffic), or the
    // determinism assertion would pass on a constant function.
    let opts = quick_opts();
    let mut cfg_a = quick_cfg();
    cfg_a.seed = 11;
    let mut cfg_b = quick_cfg();
    cfg_b.seed = 12;
    let ha = campaign(cfg_a, opts);
    let hb = campaign(cfg_b, opts);
    let ra = ha.run(None);
    let rb = hb.run(None);
    assert_ne!(
        serde_json::to_string(&ra.deliveries).expect("serializable"),
        serde_json::to_string(&rb.deliveries).expect("serializable"),
        "distinct seeds should offer distinct traffic"
    );
}
