//! The batched rollout engine (DESIGN.md §12).
//!
//! The scalar campaign steps one cloned network per fault site through
//! `active_window + drain + coda` cycles — even though a single-event
//! transient perturbs the machine for exactly one cycle and the vast
//! majority of rollouts re-converge to the fault-free (golden) trajectory
//! within a handful of cycles. This module exploits that structure while
//! producing **bit-identical** [`RunResult`]s:
//!
//! * **Golden trajectory cache** ([`GoldenTrajectory`]) — one extra
//!   golden rollout per campaign records its injection/ejection event
//!   streams from the snapshot on, the drain end, and a geometric ladder
//!   of network checkpoints at `injection + {1, 2, 4, …}` cycles (plus
//!   the active end). Built lazily, shared read-only across worker
//!   threads.
//!
//! * **Prefix sharing** — a transient armed for a *later* cycle leaves
//!   the network bit-identical to golden until it fires, so the lane
//!   starts from the last golden checkpoint at or before its injection
//!   instant; the skipped prefix is replayed into the lane's observers
//!   from the cached golden event streams.
//!
//! * **Resync ladder + observer replay** — after the fault fires, the
//!   lane steps (observers attached, so every divergent cycle is really
//!   observed) and compares against golden checkpoints with
//!   [`Network::state_eq`]. Once the network state matches in what an
//!   inert-plane future reads — detector state, the odometers, and the
//!   state no such future reads (VC ring offsets and stale slots,
//!   latches below their reading state, result buses, link-data
//!   registers, output owners) may differ; detections and odometer
//!   readings are history, not dynamics — the rest of the run is a pure
//!   function of the golden trajectory: the remaining
//!   cycles are completed without stepping by replaying the cached golden
//!   eject/inject streams (plus one empty cycle record per cycle, which
//!   drives the ForEVeR epoch clock) through the lane's own observers.
//!   This is exact, not approximate: with inert fault planes and the
//!   NIC RNG a pure function of the cycle count, `state_eq` networks
//!   emit the same injections and ejections and cycle records that
//!   differ only in wires no observer reads (the induction is on
//!   `state_eq`), and golden's records provably raise nothing (the
//!   trajectory build verifies this and disables the engine otherwise).
//!
//! Rollouts the engine cannot prove equivalent fall back to the scalar
//! path unchanged: sustained faults (permanent, stuck-at, intermittent),
//! which never go inert; recovery-enabled networks (containment mutates
//! state the equality certificate does not cover); specs starting before
//! the snapshot; and lanes that never re-converge within the active
//! window.

use super::{Campaign, CampaignArena, RunResult};
use crate::oracle::RunLog;
use fault::{drain_watched, FaultSpec, Hang, StallMeter, Watchdog};
use noc_sim::{Network, Observer};
use noc_types::record::CycleRecord;
use noc_types::site::FaultKind;
use noc_types::Cycle;

/// Cached golden artifacts backing the batched engine. One per
/// [`Campaign`], built lazily on first batched use.
#[derive(Debug, Clone)]
pub(crate) struct GoldenTrajectory {
    /// Network checkpoints at `injection + {1, 2, 4, …}` and the active
    /// end, in cycle order. Geometric spacing bounds the overshoot past
    /// the true re-convergence instant by 2×.
    ladder: Vec<Network>,
    /// The golden rollout's event streams from the snapshot on
    /// (cycle-ordered); the warm-up's are folded into the campaign's
    /// oracle already.
    log: RunLog,
    /// The golden rollout drained (it must; `Campaign::try_new` verified
    /// a golden rollout already).
    drained: bool,
    /// `Network::cycle()` when the golden drain completed.
    end_cycle: Cycle,
    /// Longest progress-free stretch observed during the golden drain —
    /// a watchdog whose stall window exceeds this can never trip on a
    /// golden-equal trajectory.
    max_stall: Cycle,
    /// The engine may be used at all: recovery disabled, golden drained,
    /// and both detectors provably silent along the entire golden
    /// trajectory including the coda (replay feeds converged lanes empty
    /// records in place of golden's, which is only exact under this
    /// invariant).
    usable: bool,
}

impl Campaign {
    /// The lazily built golden trajectory cache.
    pub(crate) fn trajectory(&self) -> &GoldenTrajectory {
        self.traj.get_or_init(|| self.build_trajectory())
    }

    fn build_trajectory(&self) -> GoldenTrajectory {
        let mut net = self.snapshot.clone();
        let mut bank = self.bank0.clone();
        let mut fv = self.forever0.clone();
        let mut log = RunLog::new();
        let mut ladder = Vec::new();
        let mut next = 1u64;
        for k in 1..=self.cc.active_window {
            net.step_observed(&mut (&mut bank, &mut fv, &mut log));
            if k == next || k == self.cc.active_window {
                ladder.push(net.clone());
                next = next.saturating_mul(2);
            }
        }
        // Drain exactly like `Network::drain` / the watched drain loop,
        // additionally tracking the longest progress-free stretch.
        net.set_injection_enabled(false);
        let limit = net.cycle() + self.cc.drain_deadline;
        let mut meter = StallMeter::new(&net);
        let mut max_stall: Cycle = 0;
        let mut drained = false;
        while net.cycle() < limit {
            if net.is_drained() {
                drained = true;
                break;
            }
            net.step_observed(&mut (&mut bank, &mut fv, &mut log));
            max_stall = max_stall.max(meter.observe(&net));
        }
        drained = drained || net.is_drained();
        let end_cycle = net.cycle();
        // Coda, for the detector-silence certificate only (the ladder and
        // event streams are complete by now — a drained network emits no
        // further events).
        for _ in 0..(2 * self.cc.forever_epoch + 1) {
            net.step_observed(&mut (&mut bank, &mut fv, &mut log));
        }
        let clean_verdict = self.classify_rollout(&mut self.oracle0.clone(), &log, drained);
        // `state_eq(self)` is false exactly when recovery is enabled (the
        // snapshot arms no fault) — the same condition under which lane
        // convergence could never be certified.
        let usable = drained
            && !bank.any_asserted()
            && !fv.any_detected()
            && !clean_verdict.malicious()
            && self.snapshot.state_eq(&self.snapshot);
        GoldenTrajectory {
            ladder,
            log,
            drained,
            end_cycle,
            max_stall,
            usable,
        }
    }

    /// Feeds the cached golden cycles `[from, to)` through `obs` exactly
    /// as stepping would: one (empty) cycle record — quiescent and
    /// fault-free busy routers alike raise nothing, and the record drives
    /// the ForEVeR epoch clock — then that cycle's ejections, then its
    /// injections.
    fn replay_golden<O: Observer>(
        &self,
        traj: &GoldenTrajectory,
        from: Cycle,
        to: Cycle,
        obs: &mut O,
    ) {
        let empty = CycleRecord::default();
        let mut i = traj.log.injected.partition_point(|&(c, _)| c < from);
        let mut e = traj.log.ejected.partition_point(|ev| ev.cycle < from);
        for cy in from..to {
            obs.on_cycle_record(cy, &empty);
            while e < traj.log.ejected.len() && traj.log.ejected[e].cycle == cy {
                obs.on_eject(&traj.log.ejected[e]);
                e += 1;
            }
            while i < traj.log.injected.len() && traj.log.injected[i].0 == cy {
                obs.on_inject(cy, &traj.log.injected[i].1);
                i += 1;
            }
        }
    }

    /// The batched fast path for one transient rollout, equivalent to
    /// [`Campaign::run_spec_watched_in`] bit for bit. Returns `None` when
    /// the spec or watchdog is outside the engine's proof obligations —
    /// the caller falls back to the scalar path.
    pub(crate) fn run_transient_batched_in(
        &self,
        arena: &mut CampaignArena,
        spec: FaultSpec,
        dog: Watchdog,
    ) -> Option<(RunResult, Option<Hang>)> {
        if spec.kind != FaultKind::Transient {
            return None;
        }
        let inj = self.injection_cycle();
        let active_end = inj + self.cc.active_window;
        if spec.start < inj || spec.start >= active_end {
            return None;
        }
        let traj = self.trajectory();
        // Watchdog compatibility on a golden-equal trajectory: the budget
        // must outlast the golden schedule and the stall window must
        // exceed the longest stretch the golden drain itself sat still.
        // (Lanes that never re-converge run the watched loop below and
        // honor any policy.)
        if !traj.usable
            || dog.cycle_budget < traj.end_cycle - inj
            || dog.stall_window <= traj.max_stall
        {
            return None;
        }
        self.rewind(arena);
        let CampaignArena {
            net,
            bank,
            forever: fv,
            log,
            oracle,
            work,
        } = arena;
        // Prefix sharing: until the transient fires, the lane is
        // bit-identical to golden — jump to the last checkpoint at or
        // before the injection instant and replay the skipped prefix into
        // the lane's observers.
        if let Some(ck) = traj
            .ladder
            .iter()
            .take_while(|ck| ck.cycle() <= spec.start)
            .last()
        {
            self.replay_golden(
                traj,
                inj,
                ck.cycle(),
                &mut (&mut *bank, &mut *fv, &mut *log),
            );
            work.replayed_cycles += ck.cycle() - inj;
            net.clone_from(ck);
        }
        net.arm_fault(spec.site, spec.kind, spec.start);
        let stepped_from = net.cycle();
        // Resync ladder: step (observed) to each remaining checkpoint and
        // compare network state.
        let mut converged: Option<Cycle> = None;
        for ck in &traj.ladder {
            if ck.cycle() <= net.cycle() {
                continue;
            }
            while net.cycle() < ck.cycle() {
                net.step_observed(&mut (&mut *bank, &mut *fv, &mut *log));
            }
            if net.state_eq(ck) {
                converged = Some(ck.cycle());
                break;
            }
        }
        if let Some(from) = converged {
            // Observer-only completion: replay the golden suffix through
            // the active window and drain, then the tick-only coda.
            let fault_hits = net.fault_hits();
            let coda_end = traj.end_cycle + 2 * self.cc.forever_epoch + 1;
            self.replay_golden(traj, from, coda_end, &mut (&mut *bank, &mut *fv, &mut *log));
            work.stepped_cycles += from - stepped_from;
            work.replayed_cycles += coda_end - from;
            work.converged += 1;
            let verdict = self.classify_rollout(oracle, log, traj.drained);
            return Some((self.assemble(spec, fault_hits, verdict, bank, fv), None));
        }
        // Never re-converged within the active window: finish the rollout
        // scalar, in place, through the watched drain and coda.
        let (drained, hang) = drain_watched(
            net,
            self.cc.drain_deadline,
            inj.saturating_add(dog.cycle_budget),
            dog.stall_window,
            &mut (&mut *bank, &mut *fv, &mut *log),
        );
        work.stepped_cycles += net.cycle() - stepped_from;
        if hang.is_none() {
            work.stepped_cycles += self.coda(net, &mut (&mut *bank, &mut *fv, &mut *log));
        }
        work.tail += 1;
        let verdict = self.classify_rollout(oracle, log, drained);
        Some((
            self.assemble(spec, net.fault_hits(), verdict, bank, fv),
            hang,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, ResilienceOptions, RunOutcome, WorkCounts};
    use noc_sim::NullObserver;
    use noc_types::site::{SignalKind, SiteRef};
    use noc_types::NocConfig;

    fn small_campaign() -> Campaign {
        small_campaign_with(|_| {})
    }

    /// [`small_campaign`] with `tweak` applied to its network
    /// configuration.
    fn small_campaign_with(tweak: impl FnOnce(&mut NocConfig)) -> Campaign {
        let mut noc = NocConfig::small_test();
        noc.injection_rate = 0.08;
        tweak(&mut noc);
        Campaign::new(CampaignConfig {
            noc,
            warmup: 300,
            active_window: 400,
            drain_deadline: 10_000,
            forever_epoch: 300,
        })
    }

    /// Steps `spec`'s lane from the snapshot along the resync ladder, as
    /// the engine does, and returns it at the first rung where it is
    /// `state_eq` to golden, together with that rung.
    fn resync(c: &Campaign, spec: FaultSpec) -> Option<(Network, &Network)> {
        let mut net = c.snapshot.clone();
        net.arm_fault(spec.site, spec.kind, spec.start);
        for ck in &c.trajectory().ladder {
            while net.cycle() < ck.cycle() {
                net.step_observed(&mut NullObserver);
            }
            if net.state_eq(ck) {
                return Some((net, ck));
            }
        }
        None
    }

    /// A fault site as `(router, port, vc, signal, bit)`.
    type Site = (u16, u8, u8, SignalKind, u8);

    /// Transients of [`small_campaign`], injected at the snapshot cycle,
    /// whose lanes re-converge to golden in everything but the
    /// `NetStats` odometers: a later delivery (`latency_sum`), extra or
    /// fewer hops (`forwarded_flits`), a lost or repeated delivery
    /// (`ejected_flits`); at rungs from 4 to the active end.
    const ODOMETER_ONLY: [Site; 6] = [
        (0, 1, 0, SignalKind::Va1Req, 2),
        (0, 4, 0, SignalKind::VcEvRcDone, 0),
        (6, 4, 0, SignalKind::Sa2Req, 3),
        (9, 0, 0, SignalKind::BufRead, 0),
        (10, 2, 2, SignalKind::BufRead, 0),
        (13, 4, 0, SignalKind::XbarCol, 2),
    ];

    /// Transients of [`small_campaign`], injected at the snapshot cycle,
    /// whose lanes re-converge (at the given rung, counted from the
    /// injection) to a golden state that differs from theirs only in
    /// what `state_eq` leaves out: a rotated VC ring (`BufWrite`,
    /// `Sa1Req`), the latched `out_port` of an idle VC (`VcOutPort`), or
    /// a stale slot (`VcEvRcDone`, `VcStateCode`).
    const PROJECTION_ONLY: [(Site, Cycle); 6] = [
        ((0, 0, 0, SignalKind::BufWrite, 0), 128),
        ((1, 3, 0, SignalKind::Sa1Req, 2), 256),
        ((0, 0, 0, SignalKind::VcOutPort, 1), 1),
        ((0, 0, 1, SignalKind::VcOutPort, 0), 1),
        ((0, 4, 0, SignalKind::VcEvRcDone, 0), 256),
        ((0, 1, 2, SignalKind::VcStateCode, 0), 256),
    ];

    /// A site tuple as a transient at the snapshot cycle.
    fn transient_at_snapshot(c: &Campaign, (router, port, vc, signal, bit): Site) -> FaultSpec {
        let site = SiteRef {
            router,
            port,
            vc,
            signal,
            bit,
        };
        FaultSpec::transient(site, c.injection_cycle())
    }

    /// [`ODOMETER_ONLY`] as transients at the snapshot cycle.
    fn odometer_only_specs(c: &Campaign) -> impl Iterator<Item = FaultSpec> + '_ {
        ODOMETER_ONLY.iter().map(|&t| transient_at_snapshot(c, t))
    }

    /// The differential sweep pinning the engine: every fault class at
    /// rotating injection offsets over stride-sampled sites, through the
    /// sweep driver (batched where the engine applies) vs scalar,
    /// byte-identical `RunResult`s.
    fn assert_differential_sweep(c: &Campaign) {
        assert!(c.trajectory().usable, "the engine must be exercised");
        let inj = c.injection_cycle();
        let sites = fault::sample::stride(&fault::enumerate_sites(&c.cc.noc), 8);
        let kinds = [
            FaultKind::Transient,
            FaultKind::Permanent,
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::Intermittent { period: 7, duty: 3 },
        ];
        let starts = [inj, inj + 199, inj + c.cc.active_window - 1];
        let mut specs = Vec::new();
        for (i, &site) in sites.iter().enumerate() {
            // Rotate starts against kinds so every class appears at every
            // offset across the sweep without a full cross product.
            for (j, &kind) in kinds.iter().enumerate() {
                specs.push(FaultSpec {
                    site,
                    kind,
                    start: starts[(i + j) % starts.len()],
                });
            }
        }
        let swept = c
            .run_many_resilient(&specs, 1, Watchdog::OFF, &ResilienceOptions::default())
            .expect("a memory-only sweep cannot fail");
        assert_eq!(swept.reports.len(), specs.len());
        let mut arena = c.arena();
        for (spec, got) in specs.iter().zip(&swept.reports) {
            assert_eq!(got.spec, *spec);
            assert_eq!(
                got.outcome,
                RunOutcome::Completed(c.run_spec_in(&mut arena, *spec)),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn differential_sweep_matches_scalar_across_fault_classes() {
        assert_differential_sweep(&small_campaign());
    }

    /// The same differential with speculative switch allocation, where
    /// SA bids of `VA_PENDING` VCs load the `out_vc` latch that
    /// `state_eq` compares only in `ACTIVE`.
    #[test]
    fn differential_sweep_matches_scalar_speculative() {
        assert_differential_sweep(&small_campaign_with(|noc| noc.speculative = true));
    }

    /// The same differential with non-atomic VC buffers, where a VC
    /// holds the next packet's header behind a draining tail.
    #[test]
    fn differential_sweep_matches_scalar_non_atomic() {
        assert_differential_sweep(&small_campaign_with(|noc| {
            noc.buffer_policy = noc_types::config::BufferPolicy::NonAtomic;
        }));
    }

    /// Beyond the `RunResult`: a batched transient leaves the *entire*
    /// detector state — assertion-event streams, counts, ForEVeR
    /// bookkeeping, run log — identical to the scalar rollout's.
    #[test]
    fn batched_transient_replay_leaves_identical_detector_state() {
        let c = small_campaign();
        let inj = c.injection_cycle();
        let sites = fault::sample::stride(&fault::enumerate_sites(&c.cc.noc), 5);
        let mut specs: Vec<FaultSpec> = sites
            .iter()
            .enumerate()
            .map(|(i, &site)| {
                FaultSpec::transient(site, inj + (i as Cycle * 37) % c.cc.active_window)
            })
            .collect();
        for spec in odometer_only_specs(&c) {
            let Some((lane, ck)) = resync(&c, spec) else {
                panic!("{spec:?} must re-converge");
            };
            assert_ne!(
                lane.stats(),
                ck.stats(),
                "{spec:?} must differ in the odometers"
            );
            specs.push(spec);
        }
        for (site, rung) in PROJECTION_ONLY {
            let spec = transient_at_snapshot(&c, site);
            let Some((lane, ck)) = resync(&c, spec) else {
                panic!("{spec:?} must re-converge");
            };
            assert_eq!(ck.cycle() - inj, rung, "{spec:?}");
            let routers = c.cc.noc.mesh.len() as u16;
            assert!(
                (0..routers).any(|r| lane.router(r) != ck.router(r)),
                "{spec:?} must differ from golden in a dropped field"
            );
            specs.push(spec);
        }
        assert_batched_matches_scalar(&c, &specs);
    }

    /// Runs each transient of `specs` scalar and through the batched
    /// engine, and requires identical `RunResult`s and identical
    /// detector state: assertion-event streams, counts, ForEVeR
    /// bookkeeping and run log.
    fn assert_batched_matches_scalar(c: &Campaign, specs: &[FaultSpec]) {
        let mut scalar = c.arena();
        let mut batched = c.arena();
        for &spec in specs {
            let (want, want_hang) = c.run_spec_watched_in(&mut scalar, spec, Watchdog::OFF);
            let Some((got, got_hang)) =
                c.run_transient_batched_in(&mut batched, spec, Watchdog::OFF)
            else {
                panic!("engine must accept an in-window transient under an infinite watchdog");
            };
            assert_eq!(got, want, "{spec:?}");
            assert_eq!(got_hang, want_hang);
            assert!(batched.bank.state_eq(&scalar.bank), "{spec:?}");
            assert_eq!(batched.bank.assertions(), scalar.bank.assertions());
            assert!(batched.forever.state_eq(&scalar.forever), "{spec:?}");
            assert_eq!(batched.log, scalar.log, "{spec:?}");
        }
    }

    /// The batched-vs-scalar differential at paper scale: the 8×8
    /// baseline (4 VCs, 2 classes) with paper campaign defaults after a
    /// short warm-up, 16 stride-sampled transients at spread offsets.
    /// Too slow for the unoptimized tier-1 build; `ci.sh` runs it in
    /// release mode:
    /// `cargo test --release -p nocalert-golden --lib -- --ignored paper_scale`.
    #[test]
    #[ignore = "paper scale: run in release mode (see ci.sh)"]
    fn paper_scale_batched_matches_scalar() {
        let c = Campaign::new(CampaignConfig::paper_defaults(
            NocConfig::paper_baseline(),
            3_000,
        ));
        assert!(c.trajectory().usable);
        let inj = c.injection_cycle();
        let all = fault::enumerate_sites(&c.cc.noc);
        let sites = fault::sample::stride(&all, 16);
        assert_eq!(sites.len(), 16);
        let specs: Vec<FaultSpec> = sites
            .iter()
            .enumerate()
            .map(|(i, &site)| {
                FaultSpec::transient(site, inj + (i as Cycle * 131) % c.cc.active_window)
            })
            .collect();
        assert_batched_matches_scalar(&c, &specs);
    }

    /// An odometer-only lane's signature differs from golden's by a
    /// constant, so through the drain and past it the real `StallMeter`
    /// counts the same stalls on both.
    #[test]
    fn odometer_only_lanes_stall_like_golden() {
        let c = small_campaign();
        for spec in odometer_only_specs(&c) {
            let Some((mut lane, ck)) = resync(&c, spec) else {
                panic!("{spec:?} must re-converge");
            };
            let mut gold = ck.clone();
            lane.set_injection_enabled(false);
            gold.set_injection_enabled(false);
            let (mut m_lane, mut m_gold) = (StallMeter::new(&lane), StallMeter::new(&gold));
            let mut stalled = 0;
            while stalled < 100 {
                lane.step_observed(&mut NullObserver);
                gold.step_observed(&mut NullObserver);
                stalled = m_gold.observe(&gold);
                assert_eq!(
                    m_lane.observe(&lane),
                    stalled,
                    "{spec:?} at {}",
                    gold.cycle()
                );
                assert_eq!(lane.is_drained(), gold.is_drained());
            }
            assert!(gold.is_drained());
        }
    }

    /// The work-count gate. The 127 stride-sampled transients of
    /// [`small_campaign`] run one after another through the `JobDriver`
    /// path (`run_spec_resilient_in` under the default watchdog, with its
    /// deterministic retries) and must do exactly this much work: 103
    /// lanes converge and finish by replay, 24 run the scalar tail, and
    /// the 6 of those that deadlock run it twice. A lane that stops
    /// re-converging, or a fast path that is lost, moves these counts on
    /// any host. Each lane, run alone in a fresh arena, takes one path,
    /// and a converged lane's stepped plus replayed cycles cover golden's
    /// horizon exactly.
    #[test]
    fn work_counts_are_pinned() {
        let c = small_campaign();
        let inj = c.injection_cycle();
        let horizon = c.trajectory().end_cycle + 2 * c.cc.forever_epoch + 1 - inj;
        let sites = fault::sample::stride(&fault::enumerate_sites(&c.cc.noc), 128);
        assert_eq!(sites.len(), 127);
        let dog = Watchdog::default_policy();
        let mut shared = c.arena();
        let mut deadlocks = 0;
        for site in sites {
            let spec = FaultSpec::transient(site, inj);
            let rep = c.run_spec_resilient_in(&mut shared, spec, dog);
            deadlocks += usize::from(rep.outcome.is_deadlock());
            let mut fresh = c.arena();
            c.run_spec_resilient_in(&mut fresh, spec, dog);
            let w = fresh.work;
            assert_eq!(w.scalar, 0, "{spec:?}");
            if w.converged > 0 {
                assert_eq!((w.converged, w.tail), (1, 0), "{spec:?}");
                assert_eq!(w.stepped_cycles + w.replayed_cycles, horizon, "{spec:?}");
            }
        }
        assert_eq!(deadlocks, 6);
        assert_eq!(
            shared.work,
            WorkCounts {
                stepped_cycles: 50_953,
                replayed_cycles: 101_362,
                converged: 103,
                tail: 30,
                scalar: 0,
            }
        );
    }

    /// The engine declines — rather than approximates — everything its
    /// equivalence proof does not cover.
    #[test]
    fn engine_declines_outside_its_proof() {
        let c = small_campaign();
        let inj = c.injection_cycle();
        let mut arena = c.arena();
        let site = fault::enumerate_sites(&c.cc.noc)[0];
        // Injection at/past the golden horizon: the fault could first
        // fire after the cached trajectory ends.
        let late = FaultSpec::transient(site, inj + c.cc.active_window);
        assert!(c
            .run_transient_batched_in(&mut arena, late, Watchdog::OFF)
            .is_none());
        // Injection before the snapshot.
        let early = FaultSpec::transient(site, inj - 1);
        assert!(c
            .run_transient_batched_in(&mut arena, early, Watchdog::OFF)
            .is_none());
        // Sustained kinds never go inert, so they never resync.
        let perm = FaultSpec::permanent(site, inj);
        assert!(c
            .run_transient_batched_in(&mut arena, perm, Watchdog::OFF)
            .is_none());
        // A cycle budget shorter than the golden schedule could trip
        // mid-run, which replay cannot reproduce.
        let tight = Watchdog {
            cycle_budget: 50,
            stall_window: u64::MAX,
        };
        let spec = FaultSpec::transient(site, inj);
        assert!(c
            .run_transient_batched_in(&mut arena, spec, tight)
            .is_none());
        // A stall window at or below the golden drain's own longest lull
        // could trip on a converged lane.
        let twitchy = Watchdog {
            cycle_budget: u64::MAX,
            stall_window: c.trajectory().max_stall,
        };
        assert!(c
            .run_transient_batched_in(&mut arena, spec, twitchy)
            .is_none());
    }

    /// The trajectory cache itself: ladder cycles are the documented
    /// geometric schedule and the certificate holds on a clean campaign.
    #[test]
    fn trajectory_ladder_follows_the_geometric_schedule() {
        let c = small_campaign();
        let traj = c.trajectory();
        assert!(traj.usable);
        assert!(traj.drained);
        let inj = c.injection_cycle();
        let mut expect = Vec::new();
        let mut k = 1u64;
        while k < c.cc.active_window {
            expect.push(inj + k);
            k *= 2;
        }
        expect.push(inj + c.cc.active_window);
        let got: Vec<Cycle> = traj.ladder.iter().map(|n| n.cycle()).collect();
        assert_eq!(got, expect);
        assert!(traj.end_cycle >= inj + c.cc.active_window);
    }
}
