//! The fault-injection campaign driver (Section 5.3 of the paper) and
//! its resilient execution runtime.
//!
//! A [`Campaign`] warms a network up to the chosen injection instant
//! (cycle 0 for an empty network, 32K for steady state), snapshots it,
//! runs the fault-free **golden reference** rollout once, and then rolls
//! out one clone per fault site with NoCAlert, ForEVeR and the run log
//! attached. Each rollout yields a [`RunResult`]: ground-truth verdict
//! (malicious/benign), detection flags and latencies for all three
//! detector views, and the per-checker statistics behind Figures 8 and 9.
//!
//! # Resilient execution
//!
//! Fault injection drives the simulator into corners; the resilient
//! runtime ([`Campaign::run_many_resilient`]) keeps multi-hour sweeps
//! alive through them:
//!
//! * **panic isolation** (`resilience`) — each run executes behind
//!   `catch_unwind`; a panicking run becomes a structured
//!   [`RunOutcome::Crashed`] carrying the site and payload;
//! * **watchdogs** ([`fault::Watchdog`]) — a per-run cycle budget plus
//!   progress-based hang detection during drain turn wedged runs into
//!   deterministic [`RunOutcome::Deadlock`] outcomes whose oracle
//!   comparison still completes;
//! * **deterministic retry** — crashed/hung runs re-execute once with
//!   identical state; a divergent second outcome is flagged as a
//!   [`Determinism::Violated`] harness bug;
//! * **checkpoint/resume and cancellation** ([`sweep`]) — the sweep
//!   driver every campaign kind shares: workers flush each completed
//!   site to the JSONL [`Journal`]; a resumed campaign skips completed
//!   sites and reproduces the aggregates of an uninterrupted run for any
//!   worker count, and a cancelled one says so via
//!   [`SweepReport::interrupted`].

pub(crate) mod batch;
pub mod error;
pub mod jsonl;
pub mod outcome;
pub(crate) mod resilience;
pub mod sweep;

pub use error::CampaignError;
pub use jsonl::Journal;
pub use outcome::{
    outcome, Detector, DetectorOutcome, Determinism, Outcome, RunOutcome, RunResult, SiteReport,
};
pub use sweep::{ResilienceOptions, SweepReport};

use crate::oracle::{Classifier, GoldenReference, RunLog, Verdict};
use fault::{rollout, rollout_watched, FaultSpec, Hang, Watchdog};
use forever::Forever;
use noc_sim::Network;
use noc_types::site::SiteRef;
use noc_types::{Cycle, NocConfig};
use nocalert::{AlertBank, CheckerId};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Network configuration (the paper: 8×8 baseline, uniform random).
    pub noc: NocConfig,
    /// Cycles of fault-free warm-up before injection (0 or 32,000 in the
    /// paper's Figure 6).
    pub warmup: Cycle,
    /// Cycles of live traffic after the injection instant.
    pub active_window: Cycle,
    /// Drain budget after traffic generation stops; a network that cannot
    /// drain within this window is declared deadlocked.
    pub drain_deadline: Cycle,
    /// ForEVeR epoch length (paper: 1,500).
    pub forever_epoch: u64,
}

impl CampaignConfig {
    /// Paper-shaped defaults on top of `noc`: 2,000 active cycles after
    /// injection, 20,000-cycle drain budget, 1,500-cycle ForEVeR epochs.
    pub fn paper_defaults(noc: NocConfig, warmup: Cycle) -> CampaignConfig {
        CampaignConfig {
            noc,
            warmup,
            active_window: 2_000,
            drain_deadline: 20_000,
            forever_epoch: 1_500,
        }
    }
}

impl SweepReport<SiteReport> {
    /// The classified results (completed + deadlocked runs), in order —
    /// the input to the `stats` module.
    pub fn results(&self) -> Vec<RunResult> {
        self.reports
            .iter()
            .filter_map(|r| r.outcome.run_result().cloned())
            .collect()
    }

    /// Runs that completed normally.
    pub fn completed(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, RunOutcome::Completed(_)))
            .count()
    }

    /// Runs the watchdog terminated.
    pub fn deadlocked(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome.is_deadlock())
            .count()
    }

    /// Runs quarantined after a panic.
    pub fn crashed(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome.is_crashed())
            .count()
    }

    /// Crashed/hung runs whose deterministic retry diverged.
    pub fn determinism_violations(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.determinism_violated())
            .count()
    }
}

/// A prepared injection campaign: warmed snapshot + golden reference.
///
/// The detectors and the oracle are threaded through the warm-up once and
/// their warmed states are cloned into every rollout — checkers observe
/// the network from cycle 0, exactly like the hardware they model, so a
/// packet that is mid-flight at the injection instant never looks like a
/// violation. The warm-up's run log is not kept: its ejections are folded
/// into `oracle0` once, and every rollout logs only what happens after
/// the snapshot.
#[derive(Debug, Clone)]
pub struct Campaign {
    cc: CampaignConfig,
    snapshot: Network,
    bank0: AlertBank,
    forever0: Forever,
    golden: GoldenReference,
    /// The oracle's state after the warm-up's ejections: each rollout's
    /// classification resumes from here.
    oracle0: Classifier,
    /// Lazily built golden trajectory cache backing the batched rollout
    /// engine ([`batch`]): checkpoint ladder, post-snapshot golden event
    /// streams, and eligibility flags. Built on first batched use, shared
    /// read-only across worker threads.
    traj: OnceLock<batch::GoldenTrajectory>,
}

/// Reusable per-worker simulation state: one network, detector pair,
/// post-snapshot run log and oracle scratch that campaign rollouts rewind
/// (via `clone_from`) and reuse instead of reconstructing per site.
/// Rewinding restores every field to the warm snapshot — the log to
/// empty, the oracle to the folded warm-up — so results are bit-identical
/// to fresh-cloned runs; the steady-state cost per site is a
/// memcpy-shaped reset, not thousands of allocations. The arena's work
/// counts are the one thing rewinding leaves alone.
#[derive(Debug, Clone)]
pub struct CampaignArena {
    net: Network,
    bank: AlertBank,
    forever: Forever,
    log: RunLog,
    oracle: Classifier,
    work: WorkCounts,
}

/// Deterministic counts of the work the campaign engine did in one
/// [`CampaignArena`], accumulated over every rollout run in it. They are
/// a pure function of the specs run, so a test can pin them exactly:
/// a lane that stops re-converging, or a lost fast path, changes them on
/// any host. Cycle counts are `Network::cycle()` differences taken where
/// the engine decides, not per-cycle increments; a quiescent coda that
/// fast-forwards counts as neither stepped nor replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkCounts {
    /// Cycles advanced by stepping a network: lanes up to their resync
    /// rung, scalar tails and plain scalar rollouts.
    pub(crate) stepped_cycles: u64,
    /// Cycles completed by replaying golden events into a lane's
    /// observers instead of stepping: skipped prefixes and converged
    /// suffixes.
    pub(crate) replayed_cycles: u64,
    /// Transient lanes that re-converged with golden and finished by
    /// replay.
    pub(crate) converged: u64,
    /// Transient lanes that never re-converged and finished by the
    /// scalar tail.
    pub(crate) tail: u64,
    /// Plain scalar rollouts ([`Campaign::run_spec_in`] and its watched
    /// form): every spec the batched engine declines.
    pub(crate) scalar: u64,
}

impl Campaign {
    /// Warms the network up, snapshots it, and runs the golden rollout.
    ///
    /// # Panics
    ///
    /// Panics where [`Campaign::try_new`] would return an error.
    #[expect(
        clippy::panic,
        reason = "constructor contract, documented under `# Panics`"
    )]
    pub fn new(cc: CampaignConfig) -> Campaign {
        match Campaign::try_new(cc) {
            Ok(c) => c,
            Err(e) => panic!("campaign construction failed: {e}"),
        }
    }

    /// Warms the network up, snapshots it, and runs the golden rollout,
    /// reporting failures as structured errors.
    ///
    /// # Errors
    ///
    /// * [`CampaignError::Substrate`] — the configuration failed
    ///   validation;
    /// * [`CampaignError::WarmupViolation`] — a detector raised during
    ///   the fault-free warm-up;
    /// * [`CampaignError::GoldenNotDrained`] — the fault-free golden
    ///   rollout deadlocked, so no classification would be meaningful.
    pub fn try_new(cc: CampaignConfig) -> Result<Campaign, CampaignError> {
        let mut net = Network::try_new(cc.noc.clone())?;
        let mut bank0 = AlertBank::new(&cc.noc);
        let mut forever0 = Forever::new(&cc.noc, cc.forever_epoch);
        let mut log0 = RunLog::new();
        for _ in 0..cc.warmup {
            net.step_observed(&mut (&mut bank0, &mut forever0, &mut log0));
        }
        if bank0.any_asserted() {
            return Err(CampaignError::WarmupViolation {
                detector: "NoCAlert",
                cycle: cc.warmup,
                detail: format!("{:?}", bank0.assertions().first()),
            });
        }
        if forever0.any_detected() {
            return Err(CampaignError::WarmupViolation {
                detector: "ForEVeR",
                cycle: cc.warmup,
                detail: format!("{:?}", forever0.detections().first()),
            });
        }
        let snapshot = net;
        let mut gnet = snapshot.clone();
        let mut glog = RunLog::new();
        let out = rollout(
            &mut gnet,
            None,
            cc.active_window,
            cc.drain_deadline,
            &mut glog,
        );
        let golden = GoldenReference::try_from_logs(&[&log0, &glog], out.drained)?;
        let mut oracle0 = Classifier::new(&golden);
        oracle0.feed(&golden, &log0.ejected);
        Ok(Campaign {
            cc,
            snapshot,
            bank0,
            forever0,
            golden,
            oracle0,
            traj: OnceLock::new(),
        })
    }

    /// The configuration this campaign runs under.
    pub fn config(&self) -> &CampaignConfig {
        &self.cc
    }

    /// The cycle at which faults are injected (`warmup`).
    pub fn injection_cycle(&self) -> Cycle {
        self.snapshot.cycle()
    }

    /// The golden reference (for external analyses).
    pub fn golden(&self) -> &GoldenReference {
        &self.golden
    }

    /// Disables one NoCAlert checker for every subsequent rollout —
    /// ablation support for redundancy studies ("no single checker is
    /// redundant", Section 5.4).
    pub fn disable_checker(&mut self, id: CheckerId) {
        self.bank0.disable(id);
    }

    /// Allocates a reusable [`CampaignArena`] pre-warmed with this
    /// campaign's snapshot state. One arena per worker thread turns the
    /// per-site cost from "construct a network" into "rewind a network".
    pub fn arena(&self) -> CampaignArena {
        CampaignArena {
            net: self.snapshot.clone(),
            bank: self.bank0.clone(),
            forever: self.forever0.clone(),
            log: RunLog::new(),
            oracle: self.oracle0.clone(),
            work: WorkCounts::default(),
        }
    }

    /// Runs one fault spec into a caller-provided arena: a single-bit
    /// transient at the injection cycle is the paper's campaign fault
    /// model; permanent/intermittent specs serve the Observation-3
    /// experiments. The spec's `start` should not precede the snapshot
    /// cycle.
    pub fn run_spec_in(&self, arena: &mut CampaignArena, spec: FaultSpec) -> RunResult {
        self.run_spec_watched_in(arena, spec, Watchdog::OFF).0
    }

    /// [`Campaign::run_spec_in`] under a [`Watchdog`]: identical results
    /// on healthy runs; wedged runs terminate deterministically with a
    /// [`Hang`] and are still classified against the golden reference on
    /// the truncated log (the verdict then includes `NotDrained`). The
    /// arena is rewound to the warm snapshot before the rollout, so the
    /// result is bit-identical to a fresh-cloned run regardless of what
    /// the arena ran before — including a run that panicked out of it.
    pub fn run_spec_watched_in(
        &self,
        arena: &mut CampaignArena,
        spec: FaultSpec,
        dog: Watchdog,
    ) -> (RunResult, Option<Hang>) {
        self.rewind(arena);
        let CampaignArena {
            net,
            bank,
            forever: fv,
            log,
            oracle,
            work,
        } = arena;
        let watched = rollout_watched(
            net,
            Some(&spec),
            self.cc.active_window,
            self.cc.drain_deadline,
            dog,
            &mut (&mut *bank, &mut *fv, &mut *log),
        );
        work.stepped_cycles += net.cycle() - self.injection_cycle();
        // A watchdog-terminated run skips the coda: its budget is spent,
        // and its ForEVeR view is reported as-of termination.
        if watched.hang.is_none() {
            work.stepped_cycles += self.coda(net, &mut (&mut *bank, &mut *fv, &mut *log));
        }
        work.scalar += 1;
        let out = watched.outcome;
        let verdict = self.classify_rollout(oracle, log, out.drained);
        let result = self.assemble(spec, out.fault_hits, verdict, bank, fv);
        (result, watched.hang)
    }

    /// One rollout through the batched engine where its equivalence
    /// proof applies and through the scalar path where it does not;
    /// either way bit-identical to [`Campaign::run_spec_watched_in`].
    /// This is the one engine choice every fan-out shares.
    fn rollout_in(
        &self,
        arena: &mut CampaignArena,
        spec: FaultSpec,
        dog: Watchdog,
    ) -> (RunResult, Option<Hang>) {
        match self.run_transient_batched_in(arena, spec, dog) {
            Some(out) => out,
            None => self.run_spec_watched_in(arena, spec, dog),
        }
    }

    /// Resets an arena to the warm snapshot state; its [`WorkCounts`]
    /// keep accumulating.
    fn rewind(&self, arena: &mut CampaignArena) {
        arena.net.clone_from(&self.snapshot);
        arena.bank.clone_from(&self.bank0);
        arena.forever.clone_from(&self.forever0);
        arena.log.reset();
        arena.oracle.clone_from(&self.oracle0);
    }

    /// The golden-reference verdict of a rollout from its post-snapshot
    /// `log`, continuing a rewound `oracle` (the folded warm-up): equal
    /// to [`crate::classify`] over the warm-up log followed by `log`.
    fn classify_rollout(&self, oracle: &mut Classifier, log: &RunLog, drained: bool) -> Verdict {
        oracle.feed(&self.golden, &log.ejected);
        oracle.verdict(&self.golden, drained)
    }

    /// Coda: keep the clock running past the next two ForEVeR epoch
    /// boundaries so its end-of-epoch counter checks can evaluate the
    /// settled state (the paper's simulations run long enough for the
    /// epoch mechanism to conclude). A fully quiescent network with an
    /// inert fault plane and observers that certify the skip is
    /// fast-forwarded in O(1); anything else (sustained faults, stuck
    /// flits, imbalanced ForEVeR counters) steps cycle by cycle. Returns
    /// the cycles stepped: 0 when fast-forwarded.
    fn coda<O: noc_sim::Observer>(&self, net: &mut Network, obs: &mut O) -> Cycle {
        let n = 2 * self.cc.forever_epoch + 1;
        if net.try_fast_forward_quiescent(n, obs) {
            return 0;
        }
        for _ in 0..n {
            net.step_observed(obs);
        }
        n
    }

    /// Builds the [`RunResult`] from a finished rollout's detector state.
    fn assemble(
        &self,
        spec: FaultSpec,
        fault_hits: u64,
        verdict: Verdict,
        bank: &AlertBank,
        fv: &Forever,
    ) -> RunResult {
        let lat = |c: Option<Cycle>| c.map(|c| c.saturating_sub(spec.start));
        RunResult {
            site: spec.site,
            kind: spec.kind,
            injected_at: spec.start,
            fault_hits,
            verdict,
            nocalert: DetectorOutcome {
                detected: bank.any_asserted(),
                latency: lat(bank.first_detection()),
            },
            cautious: DetectorOutcome {
                detected: bank.first_detection_cautious().is_some(),
                latency: lat(bank.first_detection_cautious()),
            },
            forever: DetectorOutcome {
                detected: fv.any_detected(),
                latency: lat(fv.first_detection()),
            },
            checkers: bank.asserted_set(),
            simultaneous: bank.first_cycle_checkers().len() as u8,
        }
    }

    /// Runs one spec behind the full isolation stack: panic boundary,
    /// watchdog, and (for crashed/hung runs) one deterministic retry.
    /// Never panics, whatever the fault does to the simulator. A
    /// panicking run may leave the arena torn mid-rollout; that is fine —
    /// the next use (including the retry) rewinds every field from the
    /// warm snapshot first.
    pub fn run_spec_resilient_in(
        &self,
        arena: &mut CampaignArena,
        spec: FaultSpec,
        dog: Watchdog,
    ) -> SiteReport {
        let mut attempt = || -> RunOutcome {
            // The batched engine declines (returns `None`) outside its
            // equivalence proof; its results are bit-identical where it
            // applies, so retry determinism is unaffected by which path a
            // given attempt takes.
            match resilience::catch_payload(|| self.rollout_in(arena, spec, dog)) {
                Ok((result, None)) => RunOutcome::Completed(result),
                Ok((result, Some(hang))) => RunOutcome::Deadlock { result, hang },
                Err(payload) => RunOutcome::Crashed {
                    site: spec.site,
                    kind: spec.kind,
                    injected_at: spec.start,
                    payload,
                },
            }
        };
        let first = attempt();
        let determinism = if first.is_crashed() || first.is_deadlock() {
            let second = attempt();
            Some(if second == first {
                Determinism::Confirmed
            } else {
                Determinism::Violated {
                    second: second.summary(),
                }
            })
        } else {
            None
        };
        SiteReport {
            spec,
            outcome: first,
            determinism,
        }
    }

    /// Runs a batch of transient injections, one per site, across
    /// `threads` worker threads (`0`/`1` ⇒ sequential), through the same
    /// sweep driver and engine choice as [`Campaign::run_many_resilient`]
    /// but without a watchdog or journal. Results are in site order and
    /// bit-identical to [`Campaign::run_spec_in`]'s for any thread count.
    ///
    /// # Panics
    ///
    /// This is the fail-fast path: a panicking rollout panics the call,
    /// on a worker thread too. Use [`Campaign::run_many_resilient`] for
    /// sweeps that must survive poisoned sites.
    pub fn run_many(&self, sites: &[SiteRef], threads: usize) -> Vec<RunResult> {
        let specs: Vec<FaultSpec> = sites
            .iter()
            .map(|&s| FaultSpec::transient(s, self.injection_cycle()))
            .collect();
        // Build the shared golden trajectory before any worker allocates
        // its arena: building it inside the first rollout instead raises
        // the 8×8 sweep's peak RSS by about 1 MB (allocation order).
        let _ = self.trajectory();
        let swept = sweep::sweep(
            &self.cc,
            &specs,
            threads,
            &ResilienceOptions::default(),
            |r: &RunResult| FaultSpec::transient(r.site, r.injected_at),
            || self.arena(),
            |arena, spec| Ok(self.rollout_in(arena, spec, Watchdog::OFF).0),
        );
        match swept {
            Ok(report) => report.reports,
            // Without a journal, only a worker's panic fails the sweep:
            // re-raise it here, as a sequential sweep's panic would be
            // (the worker's panic hook has printed it already).
            Err(e) => std::panic::resume_unwind(Box::new(e.to_string())),
        }
    }

    /// The resilient batch driver: panic isolation, the `dog` watchdog,
    /// deterministic retry, optional JSONL checkpointing with resume, and
    /// cooperative cancellation ([`sweep`]). One [`SiteReport`] per input
    /// spec, in input order, bit-identical for any `threads` value —
    /// shard layout depends on the worker count, aggregates never do.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O and configuration-mismatch failures; per-run
    /// crashes and hangs are *outcomes*, not errors.
    pub fn run_many_resilient(
        &self,
        specs: &[FaultSpec],
        threads: usize,
        dog: Watchdog,
        opts: &ResilienceOptions,
    ) -> Result<SweepReport<SiteReport>, CampaignError> {
        sweep::sweep(
            &self.cc,
            specs,
            threads,
            opts,
            |r: &SiteReport| r.spec,
            || self.arena(),
            |arena, spec| Ok(self.run_spec_resilient_in(arena, spec, dog)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{classify, ViolationKind};
    use noc_types::site::{FaultKind, SignalKind};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn small_campaign() -> Campaign {
        let mut noc = NocConfig::small_test();
        noc.injection_rate = 0.08;
        let cc = CampaignConfig {
            noc,
            warmup: 300,
            active_window: 400,
            drain_deadline: 10_000,
            forever_epoch: 300,
        };
        Campaign::new(cc)
    }

    /// Re-runs `c`'s warm-up to recover the log the campaign folds and
    /// drops: the simulator is deterministic, so this is the same log.
    fn warm_log(c: &Campaign) -> RunLog {
        let mut net = Network::new(c.cc.noc.clone());
        let mut bank = AlertBank::new(&c.cc.noc);
        let mut fv = Forever::new(&c.cc.noc, c.cc.forever_epoch);
        let mut log = RunLog::new();
        for _ in 0..c.cc.warmup {
            net.step_observed(&mut (&mut bank, &mut fv, &mut log));
        }
        assert!(net.state_eq(&c.snapshot));
        assert_eq!(net.stats(), c.snapshot.stats());
        log
    }

    /// `warm` followed by `post`: the full log of a rollout.
    fn concat(warm: &RunLog, post: &RunLog) -> RunLog {
        let mut full = warm.clone();
        full.injected.extend_from_slice(&post.injected);
        full.ejected.extend_from_slice(&post.ejected);
        full
    }

    /// The warm-folded verdict of a post-snapshot log.
    fn folded(c: &Campaign, post: &RunLog, drained: bool) -> Verdict {
        c.classify_rollout(&mut c.oracle0.clone(), post, drained)
    }

    /// The fault-free rollout from the snapshot, as the campaign's golden
    /// run logged it.
    fn golden_post(c: &Campaign) -> RunLog {
        let mut net = c.snapshot.clone();
        let mut log = RunLog::new();
        let out = rollout(&mut net, None, 400, 10_000, &mut log);
        assert!(out.drained);
        log
    }

    #[test]
    fn golden_reference_is_clean_against_itself() {
        let c = small_campaign();
        // A fault-free "injection" (no site armed) must be a clean run.
        let post = golden_post(&c);
        let verdict = folded(&c, &post, true);
        assert!(!verdict.malicious(), "{verdict:?}");
        assert_eq!(
            verdict,
            classify(&c.golden, &concat(&warm_log(&c), &post), true)
        );
    }

    #[test]
    fn warm_up_flit_ejected_again_after_the_snapshot_is_a_duplicate() {
        let c = small_campaign();
        let warm = warm_log(&c);
        let mut post = golden_post(&c);
        let mut again = warm.ejected[0].clone();
        again.cycle = c.injection_cycle() + 1;
        post.ejected.insert(0, again);
        let full = concat(&warm, &post);
        for drained in [true, false] {
            let verdict = folded(&c, &post, drained);
            // A re-delivered flit is behind its packet's sequence, too.
            assert_eq!(
                verdict.violations,
                vec![ViolationKind::Duplicate, ViolationKind::OutOfOrder]
            );
            assert_eq!(verdict, classify(&c.golden, &full, drained));
        }
    }

    #[test]
    fn missing_post_snapshot_golden_delivery_is_dropped_or_stuck() {
        let c = small_campaign();
        let warm = warm_log(&c);
        let mut post = golden_post(&c);
        // A tail flit, so no later flit of its packet looks out of order.
        let tail = post.ejected.iter().rposition(|e| e.flit.is_tail());
        post.ejected
            .remove(tail.expect("the golden rollout delivers packets"));
        let full = concat(&warm, &post);
        for (drained, kind) in [
            (true, ViolationKind::FlitDropped),
            (false, ViolationKind::NotDrained),
        ] {
            let verdict = folded(&c, &post, drained);
            assert_eq!(verdict.violations, vec![kind]);
            assert_eq!(verdict, classify(&c.golden, &full, drained));
        }
    }

    /// The differential pinning the warm fold: over a stride sample of
    /// sites, on the scalar path, the batched path and watchdog-truncated
    /// scalar runs, classifying the arena's post-snapshot log from the
    /// folded warm-up gives `classify` over the full concatenated log, and
    /// the reported verdict is that verdict for one drain status.
    #[test]
    fn warm_folded_classification_equals_full_log_classify() {
        let c = small_campaign();
        let warm = warm_log(&c);
        let inj = c.injection_cycle();
        let truncating = Watchdog {
            cycle_budget: 50,
            stall_window: u64::MAX,
        };
        let check = |arena: &CampaignArena, got: &Verdict, what: &str| {
            let full = concat(&warm, &arena.log);
            let whole = [true, false].map(|d| classify(&c.golden, &full, d));
            assert_eq!(
                whole,
                [true, false].map(|d| folded(&c, &arena.log, d)),
                "{what}"
            );
            assert!(whole.contains(got), "{what}: {got:?} not in {whole:?}");
        };
        let mut arena = c.arena();
        let sites = fault::sample::stride(&fault::enumerate_sites(&c.cc.noc), 12);
        let mut malicious = 0;
        for (i, &site) in sites.iter().enumerate() {
            let spec = FaultSpec::transient(site, inj + (i as Cycle * 31) % c.cc.active_window);
            let (r, _) = c.run_spec_watched_in(&mut arena, spec, Watchdog::OFF);
            check(&arena, &r.verdict, &format!("scalar {spec:?}"));
            malicious += usize::from(r.malicious());
            let (r, _) = c
                .run_transient_batched_in(&mut arena, spec, Watchdog::OFF)
                .expect("in-window transient under an infinite watchdog");
            check(&arena, &r.verdict, &format!("batched {spec:?}"));
            let permanent = FaultSpec::permanent(site, inj);
            let (r, hang) = c.run_spec_watched_in(&mut arena, permanent, truncating);
            assert!(hang.is_some(), "{permanent:?}");
            check(&arena, &r.verdict, &format!("truncated {permanent:?}"));
            assert!(r.verdict.violations.contains(&ViolationKind::NotDrained));
        }
        assert!(malicious > 0, "the sample should exercise a violation");
    }

    #[test]
    fn rewound_arena_carries_no_warm_up_log() {
        let c = small_campaign();
        let mut arena = c.arena();
        assert!(arena.log.injected.is_empty() && arena.log.ejected.is_empty());
        let site = fault::enumerate_sites(&c.cc.noc)[0];
        c.run_spec_in(&mut arena, FaultSpec::permanent(site, c.injection_cycle()));
        assert!(!arena.log.ejected.is_empty());
        c.rewind(&mut arena);
        assert!(arena.log.injected.is_empty() && arena.log.ejected.is_empty());
        assert_eq!(
            arena.oracle.verdict(&c.golden, true),
            c.oracle0.verdict(&c.golden, true)
        );
    }

    #[test]
    fn vacuous_injection_is_true_negative() {
        let c = small_campaign();
        // A dead-quiet wire: RC destination input on a corner router port
        // that sees no traffic within the window is likely vacuous; instead
        // use a site whose router is guaranteed idle by picking a transient
        // 1 cycle before any evaluation — simplest: bit on a VcOutVc of an
        // idle VC is only evaluated when the VC is active. Use hits == 0 as
        // the vacuousness witness.
        let site = SiteRef {
            router: 15,
            port: 0,
            vc: 3,
            signal: SignalKind::VcOutVc,
            bit: 0,
        };
        let r = c.run_spec_in(
            &mut c.arena(),
            FaultSpec::transient(site, c.injection_cycle()),
        );
        if r.fault_hits == 0 {
            assert_eq!(r.outcome(Detector::NoCAlert), Outcome::TrueNegative);
            assert!(!r.malicious());
        }
    }

    #[test]
    fn rc_outdir_fault_is_detected_when_hit() {
        let c = small_campaign();
        // Permanent stuck bit on a local-port RC output: every routed
        // header from node 5's NI is misdirected.
        let site = SiteRef {
            router: 5,
            port: 4,
            vc: 0,
            signal: SignalKind::RcOutDir,
            bit: 1,
        };
        let spec = FaultSpec::permanent(site, c.injection_cycle());
        let r = c.run_spec_in(&mut c.arena(), spec);
        assert!(r.fault_hits > 0, "node 5 injects within the window");
        assert!(r.nocalert.detected);
        assert_eq!(r.nocalert.latency, Some(r.nocalert.latency.unwrap()));
        // Detection is instantaneous: the checker sees the same wire.
        assert!(r.checkers.iter().any(|c| [1, 2, 3].contains(&c.0)));
    }

    #[test]
    fn run_many_is_deterministic_and_thread_invariant() {
        let c = small_campaign();
        let sites = fault::sample::stride(&fault::enumerate_sites(&c.cc.noc), 6);
        let seq = c.run_many(&sites, 1);
        let par = c.run_many(&sites, 3);
        assert_eq!(seq, par);
        assert_eq!(seq.len(), sites.len());
    }

    #[test]
    fn watched_run_matches_plain_run_when_healthy() {
        // The watchdog must be a pure observer: the default policy on a
        // healthy run yields a bit-identical RunResult to run_spec.
        let c = small_campaign();
        let site = SiteRef {
            router: 5,
            port: 4,
            vc: 0,
            signal: SignalKind::RcOutDir,
            bit: 1,
        };
        let spec = FaultSpec::permanent(site, c.injection_cycle());
        let plain = c.run_spec_in(&mut c.arena(), spec);
        let (watched, hang) =
            c.run_spec_watched_in(&mut c.arena(), spec, Watchdog::default_policy());
        assert!(hang.is_none());
        assert_eq!(plain, watched);
    }

    #[test]
    fn cycle_budget_trips_deterministically() {
        let c = small_campaign();
        let site = SiteRef {
            router: 0,
            port: 0,
            vc: 0,
            signal: SignalKind::Sa1Req,
            bit: 0,
        };
        let spec = FaultSpec::transient(site, c.injection_cycle());
        let dog = Watchdog {
            cycle_budget: 50, // far below active_window = 400
            stall_window: u64::MAX,
        };
        let rep = c.run_spec_resilient_in(&mut c.arena(), spec, dog);
        match &rep.outcome {
            RunOutcome::Deadlock { hang, .. } => {
                assert_eq!(hang.kind, fault::HangKind::CycleBudget);
                assert_eq!(hang.at_cycle, c.injection_cycle() + 50);
            }
            other => panic!("expected Deadlock, got {}", other.summary()),
        }
        assert_eq!(rep.determinism, Some(Determinism::Confirmed));
    }

    #[test]
    fn panicking_run_is_quarantined_as_crashed() {
        let c = small_campaign();
        let site = SiteRef {
            router: 1,
            port: 0,
            vc: 0,
            signal: SignalKind::Sa1Req,
            bit: 0,
        };
        // period = 0 divides by zero inside the fault model the first
        // time the armed signal is evaluated.
        let spec = FaultSpec {
            site,
            kind: FaultKind::Intermittent { period: 0, duty: 1 },
            start: c.injection_cycle(),
        };
        let rep = c.run_spec_resilient_in(&mut c.arena(), spec, Watchdog::default_policy());
        match &rep.outcome {
            RunOutcome::Crashed {
                payload, site: s, ..
            } => {
                assert_eq!(*s, site);
                // `delta % period` with period = 0 panics with the
                // remainder flavour of the division-by-zero message.
                assert!(payload.contains("divisor of zero"), "{payload}");
            }
            other => panic!("expected Crashed, got {}", other.summary()),
        }
        assert_eq!(rep.determinism, Some(Determinism::Confirmed));
    }

    #[test]
    fn resilient_batch_mixes_outcomes_and_stays_thread_invariant() {
        let c = small_campaign();
        let healthy = fault::sample::stride(&fault::enumerate_sites(&c.cc.noc), 40);
        let mut specs: Vec<FaultSpec> = healthy
            .iter()
            .map(|&s| FaultSpec::transient(s, c.injection_cycle()))
            .collect();
        // Poison one site in the middle of the batch.
        specs.insert(
            specs.len() / 2,
            FaultSpec {
                site: healthy[0],
                kind: FaultKind::Intermittent { period: 0, duty: 1 },
                start: c.injection_cycle(),
            },
        );
        let opts = ResilienceOptions::default();
        let seq = c
            .run_many_resilient(&specs, 1, Watchdog::default_policy(), &opts)
            .unwrap();
        let par = c
            .run_many_resilient(&specs, 4, Watchdog::default_policy(), &opts)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.reports.len(), specs.len());
        assert_eq!(seq.crashed(), 1);
        assert!(!seq.interrupted);
        assert_eq!(seq.determinism_violations(), 0);
        // The poisoned site is excluded from stats; the rest classify.
        assert_eq!(seq.results().len(), specs.len() - 1);
    }

    #[test]
    fn fresh_checkpoint_dir_with_leftover_shards_is_refused() {
        let c = small_campaign();
        let dir = std::env::temp_dir().join(format!("nocalert-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = FaultSpec::transient(fault::enumerate_sites(&c.cc.noc)[0], c.injection_cycle());
        let opts = ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            ..ResilienceOptions::default()
        };
        c.run_many_resilient(&[spec], 1, Watchdog::default_policy(), &opts)
            .unwrap();
        // Same dir, resume not requested: refuse rather than duplicate.
        let err = c
            .run_many_resilient(&[spec], 1, Watchdog::default_policy(), &opts)
            .unwrap_err();
        assert!(matches!(err, CampaignError::Checkpoint { .. }), "{err}");
        // With resume it is a no-op: everything already done.
        let resumed = ResilienceOptions {
            resume: true,
            ..opts
        };
        let rep = c
            .run_many_resilient(&[spec], 1, Watchdog::default_policy(), &resumed)
            .unwrap();
        assert_eq!(rep.resumed, 1);
        assert_eq!(rep.reports.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancel_interrupts_and_resume_completes() {
        let c = small_campaign();
        let sites = fault::sample::stride(&fault::enumerate_sites(&c.cc.noc), 60);
        let specs: Vec<FaultSpec> = sites
            .iter()
            .map(|&s| FaultSpec::transient(s, c.injection_cycle()))
            .collect();
        let dir = std::env::temp_dir().join(format!("nocalert-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Pre-tripped cancel flag: workers stop before running anything.
        let flag = Arc::new(AtomicBool::new(true));
        let opts = ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            cancel: Some(flag),
            ..ResilienceOptions::default()
        };
        let rep = c
            .run_many_resilient(&specs, 2, Watchdog::default_policy(), &opts)
            .unwrap();
        assert!(rep.interrupted);
        assert!(rep.reports.is_empty());
        // Resume without the flag finishes the sweep; aggregates match an
        // uninterrupted run exactly.
        let opts = ResilienceOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..ResilienceOptions::default()
        };
        let rep = c
            .run_many_resilient(&specs, 2, Watchdog::default_policy(), &opts)
            .unwrap();
        assert!(!rep.interrupted);
        let uninterrupted = c
            .run_many_resilient(
                &specs,
                1,
                Watchdog::default_policy(),
                &ResilienceOptions::default(),
            )
            .unwrap();
        assert_eq!(rep.reports, uninterrupted.reports);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
