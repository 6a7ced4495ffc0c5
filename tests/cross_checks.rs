//! Miscellaneous cross-crate consistency checks: Table-1 registry vs.
//! hardware model vs. checker bank, ablation behaviour, and the
//! micro-architecture variations of Section 4.4.

use hw_model::{checker_costs, HwParams};
use nocalert::{CheckerId, TABLE1};
use nocalert_repro::prelude::*;

#[test]
fn registry_model_and_bank_agree_on_checker_count() {
    assert_eq!(TABLE1.len(), 32);
    assert_eq!(CheckerId::COUNT, 32);
    let costs = checker_costs(&HwParams::baseline_with_vcs(4));
    assert_eq!(costs.len(), 32);
}

#[test]
fn ablation_disabling_a_checker_creates_detection_gaps() {
    // Disable the crossbar checkers and hit the crossbar: the remaining
    // checkers may still catch downstream effects, but the crossbar ones
    // must stay silent — the ablation knob works end-to-end.
    let mut cfg = NocConfig::small_test();
    cfg.injection_rate = 0.2;
    let mut net = Network::new(cfg.clone());
    let mut bank = AlertBank::new(&cfg);
    for id in [14, 15, 16] {
        bank.disable(CheckerId(id));
    }
    net.run(500);
    net.arm_fault(
        SiteRef {
            router: 5,
            port: 1,
            vc: 0,
            signal: noc_types::site::SignalKind::XbarCol,
            bit: 3,
        },
        FaultKind::Permanent,
        net.cycle(),
    );
    for _ in 0..2_000 {
        net.step_observed(&mut bank);
    }
    assert!(net.fault_hits() > 0);
    for id in [14u8, 15, 16] {
        assert_eq!(bank.counts()[CheckerId(id).index()], 0);
    }
}

#[test]
fn section_4_4_non_atomic_swaps_invariance_26_for_27() {
    let mut cfg = NocConfig::small_test();
    cfg.buffer_policy = noc_types::BufferPolicy::NonAtomic;
    cfg.injection_rate = 0.2;
    let mut net = Network::new(cfg.clone());
    let mut bank = AlertBank::new(&cfg);
    for _ in 0..3_000 {
        net.step_observed(&mut bank);
    }
    // Fault-free: neither fires; and 26 can never fire in this mode.
    assert!(bank.assertions().is_empty());
    // Now hammer buffer writes: only 27-family checkers may respond.
    net.arm_fault(
        SiteRef {
            router: 5,
            port: 0,
            vc: 0,
            signal: noc_types::site::SignalKind::BufWrite,
            bit: 0,
        },
        FaultKind::Permanent,
        net.cycle(),
    );
    for _ in 0..2_000 {
        net.step_observed(&mut bank);
    }
    assert_eq!(
        bank.counts()[CheckerId(26).index()],
        0,
        "invariance 26 must stay disabled with non-atomic buffers"
    );
}

#[test]
fn section_4_4_west_first_relaxes_turn_set_but_still_detects() {
    let mut cfg = NocConfig::small_test();
    cfg.routing = noc_types::RoutingAlgorithm::WestFirst;
    cfg.injection_rate = 0.15;
    let mut net = Network::new(cfg.clone());
    let mut bank = AlertBank::new(&cfg);
    for _ in 0..3_000 {
        net.step_observed(&mut bank);
    }
    assert!(
        bank.assertions().is_empty(),
        "west-first fault-free silence"
    );
    net.arm_fault(
        SiteRef {
            router: 5,
            port: 4,
            vc: 0,
            signal: noc_types::site::SignalKind::RcOutDir,
            bit: 1,
        },
        FaultKind::Permanent,
        net.cycle(),
    );
    for _ in 0..2_000 {
        net.step_observed(&mut bank);
    }
    assert!(net.fault_hits() > 0);
    assert!(
        bank.any_asserted(),
        "RC faults detected under west-first too"
    );
}

#[test]
fn forever_epoch_length_trades_latency_for_false_positives() {
    // Shorter epochs detect sooner; the paper chose 1,500 as the shortest
    // with acceptable false positives. Check latency monotonicity on a
    // deadlock-inducing fault.
    let mut cfg = NocConfig::small_test();
    cfg.injection_rate = 0.12;
    let mut latencies = Vec::new();
    for epoch in [200u64, 800] {
        let cc = CampaignConfig {
            noc: cfg.clone(),
            warmup: 500,
            active_window: 500,
            drain_deadline: 9_000,
            forever_epoch: epoch,
        };
        let campaign = Campaign::new(cc);
        // A suppressed buffer write on a busy port wedges a wormhole.
        let r = campaign.run_spec_in(
            &mut campaign.arena(),
            fault::FaultSpec::permanent(
                SiteRef {
                    router: 5,
                    port: 4,
                    vc: 0,
                    signal: noc_types::site::SignalKind::BufWrite,
                    bit: 0,
                },
                campaign.injection_cycle(),
            ),
        );
        if r.malicious() && r.forever.detected {
            latencies.push((epoch, r.forever.latency.unwrap()));
        }
    }
    if latencies.len() == 2 {
        assert!(
            latencies[0].1 <= latencies[1].1,
            "shorter epochs should not detect later: {latencies:?}"
        );
    }
}

#[test]
fn run_result_serializes_to_json() {
    let mut cfg = NocConfig::small_test();
    cfg.injection_rate = 0.1;
    let cc = CampaignConfig {
        noc: cfg.clone(),
        warmup: 200,
        active_window: 200,
        drain_deadline: 5_000,
        forever_epoch: 200,
    };
    let campaign = Campaign::new(cc);
    let site = enumerate_sites(&cfg)[0];
    let r = campaign.run_spec_in(
        &mut campaign.arena(),
        fault::FaultSpec::transient(site, campaign.injection_cycle()),
    );
    let json = serde_json::to_string(&r).expect("serialize");
    assert!(json.contains("\"site\""));
    assert!(json.contains("\"verdict\""));
}

#[test]
fn intermittent_faults_sit_between_transient_and_permanent() {
    // An intermittent fault (duty-cycled) on an arbiter grant wire must
    // hit more often than a transient and no more often than a permanent.
    let mut cfg = NocConfig::small_test();
    cfg.injection_rate = 0.15;
    let site = SiteRef {
        router: 5,
        port: 0,
        vc: 0,
        signal: noc_types::site::SignalKind::Sa1Req,
        bit: 0,
    };
    let mut hits = Vec::new();
    for kind in [
        FaultKind::Transient,
        FaultKind::Intermittent {
            period: 10,
            duty: 3,
        },
        FaultKind::Permanent,
    ] {
        let mut net = Network::new(cfg.clone());
        net.run(300);
        net.arm_fault(site, kind, net.cycle());
        net.run(400);
        hits.push(net.fault_hits());
    }
    assert_eq!(hits[0], 1, "transient hits exactly once on a hot wire");
    assert!(hits[0] < hits[1], "intermittent > transient: {hits:?}");
    assert!(hits[1] < hits[2], "permanent > intermittent: {hits:?}");
    // Duty cycle 3/10 on an every-cycle wire ≈ 30% of the permanent count.
    let ratio = hits[1] as f64 / hits[2] as f64;
    assert!((0.25..0.35).contains(&ratio), "duty ratio {ratio}");
}

#[test]
fn degenerate_1xn_meshes_work() {
    let mut cfg = NocConfig::paper_baseline();
    cfg.mesh = Mesh::new(8, 1);
    cfg.injection_rate = 0.05;
    let mut net = Network::new(cfg.clone());
    let mut bank = AlertBank::new(&cfg);
    for _ in 0..2_000 {
        net.step_observed(&mut bank);
    }
    let drained = net.drain(&mut bank, 15_000);
    assert!(drained);
    assert!(net.stats().ejected_flits > 0);
    assert!(bank.assertions().is_empty());
}

#[test]
fn higher_ejection_rate_reduces_latency() {
    let mut lat = Vec::new();
    for rate in [1u8, 2] {
        let mut cfg = NocConfig::small_test();
        cfg.injection_rate = 0.30;
        cfg.ejection_rate = rate;
        let mut net = Network::new(cfg);
        net.run(4_000);
        lat.push(net.stats().mean_latency());
    }
    assert!(
        lat[1] <= lat[0],
        "wider ejection should not hurt latency: {lat:?}"
    );
}
