//! A miniature fault-injection campaign: sweep a structured sample of
//! single-bit transient fault sites on the paper-baseline 8×8 mesh, and
//! print the Figure-6-style coverage breakdown plus the Figure-7-style
//! detection-latency summary for NoCAlert, NoCAlert-Cautious and ForEVeR.
//!
//! Run with: `cargo run --release --example fault_campaign -- [n_sites] [warmup]`
//! (defaults: 200 sites, warm-up 0 — the paper's "cycle 0" instant).

#![allow(clippy::unwrap_used)]

use golden::stats;
use nocalert_repro::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_sites: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let warmup: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);

    let mut noc = NocConfig::paper_baseline();
    noc.injection_rate = 0.10;
    let cc = CampaignConfig::paper_defaults(noc, warmup);

    println!("== mini fault campaign: {n_sites} sites, injection at cycle {warmup} ==");
    let campaign = Campaign::new(cc);
    let universe = enumerate_sites(&campaign.config().noc);
    println!("site universe: {} single-bit locations", universe.len());
    let sites = fault::sample::stride(&universe, n_sites);

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let t0 = std::time::Instant::now();
    let results = campaign.run_many(&sites, threads);
    println!(
        "{} injections in {:.1}s on {threads} threads",
        results.len(),
        t0.elapsed().as_secs_f64()
    );

    let hit = results.iter().filter(|r| r.fault_hits > 0).count();
    let malicious = results.iter().filter(|r| r.malicious()).count();
    println!("faults that touched a live wire: {hit}; malicious at network level: {malicious}");

    for d in [
        Detector::NoCAlert,
        Detector::NoCAlertCautious,
        Detector::ForEVeR,
    ] {
        let b = stats::breakdown(&results, d);
        println!(
            "{d:?}: TP {:5.2}%  FP {:5.2}%  TN {:5.2}%  FN {:5.2}%",
            b.tp, b.fp, b.tn, b.fn_
        );
    }

    let cdf = stats::latency_cdf(&results, Detector::NoCAlert);
    if !cdf.is_empty() {
        println!(
            "NoCAlert TP latency: {:.1}% instantaneous, {:.1}% <= 9 cycles, max {} cycles",
            stats::cdf_at(&cdf, 0),
            stats::cdf_at(&cdf, 9),
            cdf.last().unwrap().0
        );
    }
    let fcdf = stats::latency_cdf(&results, Detector::ForEVeR);
    if !fcdf.is_empty() {
        println!(
            "ForEVeR  TP latency: {:.1}% instantaneous, median ~{} cycles, max {} cycles",
            stats::cdf_at(&fcdf, 0),
            fcdf.iter()
                .find(|(_, p)| *p >= 50.0)
                .map(|(l, _)| *l)
                .unwrap_or(0),
            fcdf.last().unwrap().0
        );
    }
}
