//! Degraded-topology liveness: the sim-level half of the fault-region
//! guarantees (the static half is `noc-lint`'s exhaustive prover).
//!
//! * With any single link severed on the canonical small mesh, every
//!   (src, dest) pair still delivers exactly once through the live
//!   network — not just on the routing tables, but through the full
//!   pipeline, flow control and ARQ transport.
//! * A deliberately partitioning cut is classified as
//!   [`RecoveryOutcome::Partitioned`], never as a hang: splitting the
//!   mesh is a topology fact, not a routing failure.

use noc_sim::{ArqConfig, Network, Transport};
use noc_types::site::SignalKind;
use noc_types::{Coord, Direction, FaultKind, NocConfig, RoutingAlgorithm, SiteRef};
use nocalert::AlertBank;
use nocalert_golden::{
    verify_delivery, DeliveryVerdict, RecoveryCampaign, RecoveryCampaignConfig, RecoveryOptions,
    RecoveryOutcome,
};

/// 4×4 fault-region mesh with manual-injection-only traffic.
fn region_cfg() -> NocConfig {
    let mut cfg = NocConfig::small_test();
    cfg.routing = RoutingAlgorithm::FaultRegion;
    cfg.vcs_per_port = 1;
    cfg.message_classes = 1;
    cfg.packet_lengths = vec![5];
    cfg.injection_rate = 0.0;
    cfg
}

/// Steps the closed net+transport loop until both are quiet or `budget`
/// cycles pass; returns true when quiescent.
fn settle(net: &mut Network, t: &mut Transport, budget: u64) -> bool {
    for _ in 0..budget {
        if t.quiescent() && net.is_drained() {
            return true;
        }
        net.step_observed(t);
        t.post_step(net);
    }
    t.quiescent() && net.is_drained()
}

#[test]
fn all_pairs_deliver_exactly_once_under_each_single_severed_link() {
    let cfg = region_cfg();
    let mesh = cfg.mesh;
    // Every interior link once (East and North cover both directions of
    // every edge, since severing is bidirectional).
    let mut links = Vec::new();
    for n in mesh.nodes() {
        for dir in [Direction::East, Direction::North] {
            if mesh.neighbor(n, dir).is_some() {
                links.push((n.0, dir));
            }
        }
    }
    assert_eq!(links.len(), 24, "4x4 has 24 mesh links");

    for (router, dir) in links {
        let mut net = Network::new(cfg.clone());
        let mut t = Transport::new(&cfg, ArqConfig::default_policy());
        assert!(net.sever_link(router, dir), "link ({router}, {dir:?})");
        let map = net.fault_region_map().expect("FaultRegion map engaged");
        assert!(!map.partitioned(), "one link never partitions a mesh");

        let nodes = mesh.len() as u16;
        for src in 0..nodes {
            for dest in 0..nodes {
                if src != dest {
                    net.enqueue_packet(src, dest, 0, 5).expect("valid pair");
                }
            }
        }
        assert!(
            settle(&mut net, &mut t, 120_000),
            "severed ({router}, {dir:?}): network failed to drain"
        );
        assert_eq!(
            verify_delivery(&t),
            DeliveryVerdict::ExactlyOnce,
            "severed ({router}, {dir:?}): {:?}",
            t.stats()
        );
        assert_eq!(t.stats().offered, u64::from(nodes) * (u64::from(nodes) - 1));
    }
}

/// Steps net + bank + transport until quiet (the bank is observational,
/// so quiescence is still the transport's business).
fn settle_with_bank(net: &mut Network, bank: &mut AlertBank, t: &mut Transport, budget: u64) {
    for _ in 0..budget {
        if t.quiescent() && net.is_drained() {
            return;
        }
        net.step_observed(&mut (&mut *bank, &mut *t));
        t.post_step(net);
    }
}

#[test]
fn armed_checkers_raise_nothing_on_fault_free_detours() {
    // The region-aware turn/progress checkers must stay silent across
    // *every* single-severed-link detour topology: all-pairs traffic, a
    // fully armed bank, zero assertions. This is the no-false-positive
    // half of keeping inv1/inv3 armed under degraded routing.
    let cfg = region_cfg();
    let mesh = cfg.mesh;
    for (router, dir) in [(5u16, Direction::East), (9u16, Direction::North)] {
        let mut net = Network::new(cfg.clone());
        let mut bank = AlertBank::new(&cfg);
        let mut t = Transport::new(&cfg, ArqConfig::default_policy());
        assert!(net.sever_link(router, dir));
        let nodes = mesh.len() as u16;
        for src in 0..nodes {
            for dest in 0..nodes {
                if src != dest {
                    net.enqueue_packet(src, dest, 0, 5).expect("valid pair");
                }
            }
        }
        settle_with_bank(&mut net, &mut bank, &mut t, 120_000);
        assert_eq!(verify_delivery(&t), DeliveryVerdict::ExactlyOnce);
        assert!(
            bank.assertions().is_empty(),
            "fault-free detours must not assert ({router}, {dir:?}): {:?}",
            bank.asserted_set()
        );
    }
}

#[test]
fn rc_misroute_inside_detour_topology_is_detected() {
    // The coverage half: with region detours installed, a stuck RC
    // output-direction wire — a genuine misroute on the degraded path —
    // must still fire the (armed, region-aware) turn/progress checkers.
    // Before the fix both were disabled wholesale under FaultRegion and
    // this exact scenario was a silent coverage hole.
    let cfg = region_cfg();
    let mesh = cfg.mesh;
    let mut net = Network::new(cfg.clone());
    let mut bank = AlertBank::new(&cfg);
    let mut t = Transport::new(&cfg, ArqConfig::default_policy());
    assert!(net.sever_link(5, Direction::East));
    // Router 5's East link is dead, so its RC consults the detour tables;
    // stick a direction bit on its Local ingress — freshly injected
    // packets are misrouted at the first hop.
    net.arm_fault(
        SiteRef {
            router: 5,
            port: Direction::Local.index() as u8,
            vc: 0,
            signal: SignalKind::RcOutDir,
            bit: 1,
        },
        FaultKind::StuckAt1,
        0,
    );
    let nodes = mesh.len() as u16;
    for src in 0..nodes {
        for dest in 0..nodes {
            if src != dest {
                net.enqueue_packet(src, dest, 0, 5).expect("valid pair");
            }
        }
    }
    settle_with_bank(&mut net, &mut bank, &mut t, 120_000);
    let fired = bank.asserted_set();
    assert!(
        fired.iter().any(|c| c.0 == 1 || c.0 == 3),
        "a misroute inside the detour topology must fire inv1/inv3: {fired:?}"
    );
}

#[test]
fn partitioning_cut_is_reported_partitioned_never_hung() {
    let mut cfg = region_cfg();
    cfg.injection_rate = 0.02;
    let mesh = cfg.mesh;
    let opts = RecoveryOptions {
        warmup: 200,
        active_window: 1_500,
        ..RecoveryOptions::paper_defaults()
    };
    let harness = RecoveryCampaign::try_new(RecoveryCampaignConfig { noc: cfg, opts })
        .expect("valid options");
    let run = harness.run_prepared(None, |net| {
        // Sever the full column-1 East boundary: a clean 2-way split.
        for y in 0..mesh.height() {
            let up = mesh.node(Coord::new(1, y));
            assert!(net.sever_link(up.0, Direction::East));
        }
        let map = net.fault_region_map().expect("map engaged");
        assert!(map.partitioned(), "full column cut must partition");
    });
    assert_eq!(
        run.outcome,
        RecoveryOutcome::Partitioned { components: 2 },
        "partition must outrank any hang classification"
    );
    // NIC gating keeps cross-partition traffic off the wire from cycle
    // zero, so the surviving components still deliver exactly once.
    assert_eq!(
        run.verdict,
        DeliveryVerdict::ExactlyOnce,
        "{:?}",
        run.transport
    );
    assert!(run.transport.offered > 0, "intra-component traffic flowed");
}
