//! ISSUE 5 satellite: the campaign arena's reset-reuse path must be
//! indistinguishable from fresh construction.
//!
//! `Campaign::run_spec_in` rewinds a worker's [`golden::CampaignArena`]
//! to the warm snapshot via `clone_from` before every rollout. If any
//! field were missed — stale recovery state, a leftover ARQ window, a
//! dirty detector — a reused arena would diverge from a fresh clone.
//! These tests run every fault class through both paths, deliberately
//! dirtying the shared arena between runs (including with a
//! watchdog-truncated rollout that abandons the arena mid-flight), and
//! require the serialized results to match byte for byte.

#![allow(clippy::expect_used)]

use fault::{enumerate_sites, FaultSpec, Watchdog};
use golden::{Campaign, CampaignConfig, RunResult};
use noc_types::NocConfig;

fn campaign() -> Campaign {
    let mut noc = NocConfig::small_test();
    noc.injection_rate = 0.08;
    Campaign::new(CampaignConfig::paper_defaults(noc, 500))
}

fn json(r: &RunResult) -> String {
    serde_json::to_string(r).expect("run result serializes")
}

#[test]
fn reused_arena_matches_fresh_runs_for_every_fault_class() {
    let c = campaign();
    let sites = enumerate_sites(&c.config().noc);
    let at = c.injection_cycle();
    let specs = [
        FaultSpec::transient(sites[3], at),
        FaultSpec::intermittent(sites[97], 50, 10, at),
        FaultSpec::permanent(sites[41], at),
        FaultSpec::stuck_at(sites[59], false, at),
        FaultSpec::stuck_at(sites[23], true, at),
    ];
    let fresh: Vec<String> = specs
        .iter()
        .map(|&s| json(&c.run_spec_in(&mut c.arena(), s)))
        .collect();

    let mut arena = c.arena();
    let reused: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            // Dirty the shared arena with an unrelated permanent-fault
            // rollout so the reset actually has something to undo.
            let _ = c.run_spec_in(&mut arena, FaultSpec::permanent(sites[10 + i], at));
            json(&c.run_spec_in(&mut arena, s))
        })
        .collect();
    assert_eq!(fresh, reused);
}

#[test]
fn arena_reuse_after_watchdog_truncation_is_clean() {
    let c = campaign();
    let sites = enumerate_sites(&c.config().noc);
    let at = c.injection_cycle();
    let spec = FaultSpec::transient(sites[5], at);
    let want = json(&c.run_spec_in(&mut c.arena(), spec));

    // A tight cycle budget terminates the dirtying run mid-flight, leaving
    // worms in buffers and a half-written log in the arena.
    let mut arena = c.arena();
    let tight = Watchdog {
        cycle_budget: 40,
        stall_window: u64::MAX,
    };
    let _ = c.run_spec_watched_in(&mut arena, FaultSpec::permanent(sites[33], at), tight);
    let got = json(&c.run_spec_in(&mut arena, spec));
    assert_eq!(want, got);
}
