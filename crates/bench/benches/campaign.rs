//! Criterion benchmarks of the campaign machinery: site enumeration,
//! snapshot cloning and a full single-injection rollout (the unit of work
//! the Figure 6–9 sweeps repeat thousands of times).

use criterion::{criterion_group, criterion_main, Criterion};
use golden::{Campaign, CampaignConfig};
use noc_types::NocConfig;
use std::hint::black_box;

fn small_cfg() -> NocConfig {
    let mut cfg = NocConfig::small_test();
    cfg.injection_rate = 0.08;
    cfg
}

fn bench_enumeration(c: &mut Criterion) {
    c.bench_function("enumerate_sites_8x8", |b| {
        let cfg = NocConfig::paper_baseline();
        b.iter(|| black_box(fault::enumerate_sites(&cfg).len()));
    });
}

fn bench_snapshot_clone(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot");
    g.sample_size(10);
    let mut net = noc_sim::Network::new(NocConfig::paper_baseline());
    net.run(2_000);
    g.bench_function("clone_8x8", |b| b.iter(|| black_box(net.clone().cycle())));
    g.finish();
}

fn bench_single_rollout(c: &mut Criterion) {
    let mut g = c.benchmark_group("rollout");
    g.sample_size(10);
    let cc = CampaignConfig {
        noc: small_cfg(),
        warmup: 500,
        active_window: 300,
        drain_deadline: 5_000,
        forever_epoch: 300,
    };
    let campaign = Campaign::new(cc);
    let sites = fault::enumerate_sites(&small_cfg());
    let mut i = 0usize;
    g.bench_function("single_injection_4x4", |b| {
        b.iter(|| {
            i = (i + 37) % sites.len();
            let spec = fault::FaultSpec::transient(sites[i], campaign.injection_cycle());
            black_box(campaign.run_spec_in(&mut campaign.arena(), spec).fault_hits)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_snapshot_clone,
    bench_single_rollout
);
criterion_main!(benches);
