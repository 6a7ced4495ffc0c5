//! Property-based integration tests over the whole stack: across random
//! configurations (mesh shape, VC count, buffer policy, routing algorithm,
//! traffic pattern, load), a fault-free network conserves flits, delivers
//! in order, drains, and never trips a NoCAlert checker or a ForEVeR
//! alarm.
//!
//! The environment is offline, so instead of proptest strategies the
//! configuration space is sampled with the in-tree deterministic RNG: each
//! case is reproducible from the fixed seed below, and a failure message
//! carries the full offending `NocConfig`.

use nocalert_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

#[derive(Debug, Clone, Default)]
struct Log {
    injected: Vec<Flit>,
    ejected: Vec<(NodeId, Flit)>,
}

impl Observer for Log {
    fn on_inject(&mut self, _c: u64, f: &Flit) {
        self.injected.push(*f);
    }
    fn on_eject(&mut self, ev: &noc_types::record::EjectEvent) {
        self.ejected.push((ev.node, ev.flit));
    }
}

/// Draws one configuration from the same space the proptest strategy this
/// replaces covered.
fn arb_config(rng: &mut SmallRng) -> NocConfig {
    let mut cfg = NocConfig::paper_baseline();
    cfg.mesh = Mesh::new(rng.gen_range(2u8..5), rng.gen_range(2u8..5));
    cfg.vcs_per_port = if rng.gen_bool(0.5) { 2 } else { 4 };
    cfg.message_classes = 2;
    let len = rng.gen_range(1u16..7);
    cfg.packet_lengths = vec![len, len];
    cfg.buffer_depth = rng.gen_range(2u8..6);
    cfg.buffer_policy = if rng.gen_bool(0.5) {
        noc_types::BufferPolicy::Atomic
    } else {
        noc_types::BufferPolicy::NonAtomic
    };
    cfg.routing = if rng.gen_bool(0.5) {
        noc_types::RoutingAlgorithm::XY
    } else {
        noc_types::RoutingAlgorithm::WestFirst
    };
    cfg.traffic = match rng.gen_range(0u32..4) {
        0 => TrafficPattern::UniformRandom,
        1 => TrafficPattern::Transpose,
        2 => TrafficPattern::Tornado,
        _ => TrafficPattern::Neighbor,
    };
    cfg.injection_rate = 0.02 + rng.gen::<f64>() * 0.23;
    cfg.seed = rng.gen_range(0u64..1_000_000);
    cfg
}

const CASES: usize = 12;

#[test]
fn fault_free_network_is_correct_and_silent() {
    let mut rng = SmallRng::seed_from_u64(0x51_AE_57);
    for case in 0..CASES {
        let cfg = arb_config(&mut rng);
        let mut net = Network::new(cfg.clone());
        let mut bank = AlertBank::new(&cfg);
        // Paper epoch length: shorter epochs are documented to false-alarm
        // under congestion (the counter never touches zero inside one
        // epoch), which is a property of ForEVeR, not a simulator bug.
        let mut fv = Forever::new(&cfg, 1_500);
        let mut log = Log::default();
        for _ in 0..1_200 {
            net.step_observed(&mut (&mut bank, &mut fv, &mut log));
        }
        let drained = net.drain(&mut (&mut bank, &mut fv, &mut log), 15_000);
        assert!(drained, "case {case}: failed to drain, cfg {cfg:?}");

        // Conservation: every injected flit delivered exactly once at its
        // destination, in intra-packet order, uncorrupted.
        let mut delivered: HashMap<u64, u32> = HashMap::new();
        let mut next_seq: HashMap<u64, u16> = HashMap::new();
        for (node, f) in &log.ejected {
            assert_eq!(f.dest, *node, "case {case}: misdelivery, cfg {cfg:?}");
            assert!(!f.corrupted, "case {case}: corruption, cfg {cfg:?}");
            *delivered.entry(f.uid).or_default() += 1;
            let e = next_seq.entry(f.packet.0).or_default();
            assert_eq!(f.seq, *e, "case {case}: reordering, cfg {cfg:?}");
            *e += 1;
        }
        for f in &log.injected {
            assert_eq!(
                delivered.get(&f.uid).copied().unwrap_or(0),
                1,
                "case {case}: flit lost or duplicated, cfg {cfg:?}"
            );
        }
        assert_eq!(log.injected.len(), log.ejected.len(), "case {case}");

        // Silence: neither detector may raise anything without a fault.
        assert!(
            bank.assertions().is_empty(),
            "case {case}: NoCAlert spurious: {:?}, cfg {cfg:?}",
            bank.assertions().first()
        );
        assert!(
            fv.detections().is_empty(),
            "case {case}: ForEVeR spurious: {:?}, cfg {cfg:?}",
            fv.detections().first()
        );
    }
}

#[test]
fn single_bit_faults_never_produce_undetected_violations() {
    // The headline property (Observation 1), fuzzed across the whole
    // configuration space rather than just the paper baseline.
    let mut rng = SmallRng::seed_from_u64(0xFA_017);
    for case in 0..CASES {
        let mut cfg = arb_config(&mut rng);
        cfg.injection_rate = cfg.injection_rate.max(0.05);
        let cc = CampaignConfig {
            noc: cfg.clone(),
            warmup: rng.gen_range(200u64..900),
            active_window: 400,
            drain_deadline: 8_000,
            forever_epoch: 350,
        };
        let campaign = Campaign::new(cc);
        let sites = enumerate_sites(&cfg);
        let site = sites[rng.gen_range(0usize..5_000) % sites.len()];
        let r = campaign.run_spec_in(
            &mut campaign.arena(),
            fault::FaultSpec::transient(site, campaign.injection_cycle()),
        );
        if r.malicious() {
            assert!(
                r.nocalert.detected,
                "case {case}: false negative at {} (verdict {:?}), cfg {cfg:?}",
                site, r.verdict.violations
            );
        }
        if !r.nocalert.detected {
            assert!(
                !r.malicious(),
                "case {case}: Observation 5 violated at {site}, cfg {cfg:?}"
            );
        }
    }
}
