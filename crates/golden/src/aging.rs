//! Aging campaign: survival under an *accumulating* population of
//! permanent faults (DESIGN.md §13).
//!
//! The recovery harness ([`crate::recovery`]) answers "does the system
//! survive one fault?" — every rollout starts from a healthy mesh. This
//! module asks the harder question the fault-region routing subsystem
//! exists for: how much permanent damage can one network absorb while
//! still delivering every application message exactly once, and does it
//! report the end of its life (a true topology partition) honestly
//! instead of hanging?
//!
//! One [`AgingHarness::run`] is a *single* continuous simulation. Each
//! **epoch** introduces one more permanent fault into the already-damaged
//! network, runs a measurement window of live traffic through the closed
//! detection → containment → region-routing → ARQ loop, then settles
//! until the transport is quiescent and emits one all-integer
//! [`EpochReport`] row. The epoch plan is deterministic (a function of
//! the options alone), in two phases:
//!
//! 1. **Organic phase** — stride-sampled containment-covered fault sites
//!    on cardinal input ports, rotating through the hard fault kinds.
//!    With one VC per port, quarantine fences the port, the region map
//!    kills the link, and the fault-region tables re-route around the
//!    growing damage.
//! 2. **Cut phase** — the column-`cut_column` East links are severed one
//!    row per epoch. The final severing splits the mesh: the campaign
//!    must end in [`AgingOutcome::Partitioned`], never a stall.
//!
//! Checker 1 (turn legality) and checker 3 (minimal progress) stay
//! armed: both are region-aware, excusing an RC execution only when its
//! output matches the fault-region table entry (or fence-avoiding route)
//! recorded alongside it — up\*/down\* detours raise nothing while a
//! misroute inside a detour still fires. The per-VC worm-age monitor
//! and the settle watchdog back the deadlock risk.
//!
//! **Exactly-once with orphan accounting.** Once a destination is
//! absorbed into a region or severed into another component, traffic to
//! it is undeliverable *by topology*, not by routing failure. A sender
//! give-up whose endpoints are absorbed or mutually unreachable at
//! settle time is an **orphan** — recorded, but excused from the
//! exactly-once bar. Any other loss, duplicate or unexcused give-up
//! fails the epoch.
//!
//! The simulation is the shared `closed_loop` driver with the
//! plain hook; the epoch schedule lives here. Its settle step is the
//! shared watched drain, classified aging's way: a quiescent transport
//! over a stalled network is *settled* (permanents may pin flits in
//! fenced buffers forever — contained residue, not a liveness failure),
//! and only an exhausted budget with the transport still pending is a
//! stall.
//!
//! **Resume.** [`AgingHarness::run`] takes the previously checkpointed
//! rows and re-simulates the prefix deterministically, asserting each
//! recomputed row — including the [`EpochReport::region_digest`] pinning
//! the fault-region routing state — is bit-identical to the stored one.
//! Divergence (a changed binary, a foreign checkpoint) is an error, not
//! a silent fork. Rows are checkpointed in a [`crate::Journal`] pinned to
//! the [`AgingOptions`], one worker shard (`shard-w0.jsonl`).

use crate::campaign::jsonl::Appender;
use crate::campaign::{CampaignError, Journal};
use crate::closed_loop::ClosedLoop;
use crate::recovery::{containment_covered, DeliveryVerdict};
use fault::Watchdog;
use noc_sim::{ArqConfig, Network, RecoveryPolicy, RecoveryStats, Transport};
use noc_types::{
    Coord, Cycle, Direction, FaultKind, NocConfig, NodeId, RoutingAlgorithm, SimError, SiteRef,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::ControlFlow;
use std::path::PathBuf;

/// Everything configurable about one aging campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgingOptions {
    /// Network configuration; must use [`RoutingAlgorithm::FaultRegion`].
    pub noc: NocConfig,
    /// Containment escalation thresholds.
    pub policy: RecoveryPolicy,
    /// Retransmission policy of the end-to-end transport.
    pub arq: ArqConfig,
    /// Fault-free warm-up cycles before the first epoch.
    pub warmup: Cycle,
    /// Measured cycles per epoch with injection enabled.
    pub epoch_window: Cycle,
    /// Settle watchdog: `cycle_budget` bounds the post-window drain *per
    /// epoch* (measured from the window's end), `stall_window` is the
    /// no-progress horizon that declares the residual state steady.
    pub watchdog: Watchdog,
    /// Number of organic (sampled-site) fault epochs before the cut phase.
    pub organic_epochs: u32,
    /// Routers quarantined whole (one per epoch, between the organic and
    /// cut phases) — drives rectangular region formation, absorption and
    /// the orphan accounting for traffic addressed to dead nodes.
    pub quarantine_routers: Vec<u16>,
    /// Column whose East links the cut phase severs, one row per epoch.
    /// The final severing partitions the mesh and ends the campaign.
    pub cut_column: u8,
    /// Cycles into an organic epoch at which its fault activates.
    pub fault_offset: Cycle,
}

impl AgingOptions {
    /// The noc configuration shared by both default campaigns: single-VC
    /// ports (so quarantine fences the port and grows the region — the
    /// aging premise), one message class, light uniform load.
    fn base_noc(k: u8) -> NocConfig {
        let mut noc = NocConfig::paper_baseline();
        noc.mesh = noc_types::Mesh::new(k, k);
        noc.vcs_per_port = 1;
        noc.message_classes = 1;
        noc.packet_lengths = vec![5];
        noc.injection_rate = 0.02;
        noc.routing = RoutingAlgorithm::FaultRegion;
        noc
    }

    /// ARQ policy sized for aging: partitioned traffic must exhaust its
    /// retries *within one epoch's settle budget*, so the schedule is
    /// tighter than the recovery campaigns' default.
    fn base_arq(ack_timeout: Cycle, max_retries: u32) -> ArqConfig {
        ArqConfig {
            ack_timeout,
            backoff_factor: 2,
            backoff_cap: 2,
            max_retries,
            retire_horizon: 200_000,
        }
    }

    /// The full campaign: 8×8 mesh, a dozen organic permanents, then a
    /// column cut — several hundred thousand simulated cycles.
    pub fn paper_defaults() -> AgingOptions {
        AgingOptions {
            noc: AgingOptions::base_noc(8),
            policy: RecoveryPolicy {
                // Non-minimal detours plus the cut-phase funnel raise
                // worst-case *legitimate* head-of-line residency far above
                // the healthy-mesh default; a tight monitor quarantines
                // healthy congested VCs and cascades fenced links.
                stall_age: 20_000,
                ..RecoveryPolicy::default_policy()
            },
            // Retries must outlast a worm lost to containment *plus* the
            // backed-off resend schedule on a congested half-mesh.
            arq: AgingOptions::base_arq(2_000, 6),
            warmup: 500,
            epoch_window: 4_000,
            watchdog: Watchdog {
                cycle_budget: 60_000,
                stall_window: 2_000,
            },
            organic_epochs: 12,
            // Node (5, 5): an interior router whose absorption forms a
            // proper region rectangle away from the cut column.
            quarantine_routers: vec![45],
            cut_column: 3,
            fault_offset: 200,
        }
    }

    /// The CI smoke gate: 4×4 mesh, two organic epochs, one quarantined
    /// router, a four-row cut.
    pub fn smoke_defaults() -> AgingOptions {
        AgingOptions {
            noc: AgingOptions::base_noc(4),
            policy: RecoveryPolicy {
                stall_age: 10_000,
                ..RecoveryPolicy::default_policy()
            },
            arq: AgingOptions::base_arq(1_000, 4),
            warmup: 300,
            epoch_window: 1_500,
            watchdog: Watchdog {
                cycle_budget: 30_000,
                stall_window: 1_500,
            },
            organic_epochs: 2,
            // Node (2, 2): interior on the live side of the column-1 cut.
            quarantine_routers: vec![10],
            cut_column: 1,
            fault_offset: 100,
        }
    }

    /// Validates the nested policies and the aging-specific constraints.
    ///
    /// # Errors
    ///
    /// [`AgingError::Invalid`] for nested policy failures,
    /// [`AgingError::Options`] when the configuration cannot drive an
    /// aging campaign (wrong routing algorithm, cut column on the mesh
    /// edge, empty windows).
    pub fn validate(&self) -> Result<(), AgingError> {
        self.noc.validate().map_err(SimError::Config)?;
        self.policy.validate()?;
        self.arq.validate()?;
        self.watchdog.validate()?;
        if self.noc.routing != RoutingAlgorithm::FaultRegion {
            return Err(AgingError::Options(
                "aging requires RoutingAlgorithm::FaultRegion",
            ));
        }
        if self.epoch_window == 0 {
            return Err(AgingError::Options("epoch_window must be non-zero"));
        }
        if self.cut_column + 1 >= self.noc.mesh.width() {
            return Err(AgingError::Options(
                "cut_column must leave at least one column on each side",
            ));
        }
        if self
            .quarantine_routers
            .iter()
            .any(|&r| r as usize >= self.noc.mesh.len())
        {
            return Err(AgingError::Options(
                "quarantine_routers must lie inside the mesh",
            ));
        }
        Ok(())
    }
}

/// What an aging campaign can fail with.
#[derive(Debug)]
pub enum AgingError {
    /// A nested policy or the noc configuration failed validation.
    Invalid(SimError),
    /// The options are structurally unusable for an aging campaign.
    Options(&'static str),
    /// A resumed run's recomputed prefix row differs from the stored one
    /// — the checkpoint belongs to a different binary or configuration.
    ResumeDivergence {
        /// First diverging epoch index.
        epoch: u32,
    },
}

impl fmt::Display for AgingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgingError::Invalid(e) => write!(f, "invalid aging options: {e}"),
            AgingError::Options(reason) => write!(f, "unusable aging options: {reason}"),
            AgingError::ResumeDivergence { epoch } => {
                write!(
                    f,
                    "resume divergence at epoch {epoch}: recomputed row differs from checkpoint"
                )
            }
        }
    }
}

impl std::error::Error for AgingError {}

impl From<SimError> for AgingError {
    fn from(e: SimError) -> AgingError {
        AgingError::Invalid(e)
    }
}

/// The fault one epoch introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochFault {
    /// A sampled containment-covered permanent fault, contained and
    /// escalated through the live detection → quarantine loop.
    Organic {
        /// The fault site.
        site: SiteRef,
        /// The (hard) fault kind.
        kind: FaultKind,
    },
    /// A bidirectionally severed link — the deterministic wear front of
    /// the cut phase.
    Cut {
        /// Upstream router of the severed link.
        router: u16,
        /// Link direction out of `router`.
        dir: Direction,
    },
    /// A whole router declared faulty and absorbed into a region; its
    /// traffic becomes orphaned by topology.
    Quarantine {
        /// The absorbed router.
        router: u16,
    },
}

/// How one epoch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgingOutcome {
    /// The network absorbed the fault and the transport settled.
    Progressed,
    /// The settle watchdog tripped with the transport still pending —
    /// the survival failure the campaign exists to catch.
    Stalled,
    /// The live graph split; terminal by topology, reported honestly.
    Partitioned {
        /// Live components remaining.
        components: u32,
    },
}

/// One epoch's all-integer result row. Rows are what the campaign
/// checkpoints; resume recomputes and compares them bit-for-bit, so
/// every field must be deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// The fault this epoch introduced.
    pub fault: EpochFault,
    /// Cycle the epoch started at.
    pub start_cycle: Cycle,
    /// Cycle the epoch settled (or gave up) at.
    pub end_cycle: Cycle,
    /// Application messages offered during this epoch.
    pub offered: u64,
    /// Messages delivered exactly once during this epoch.
    pub delivered: u64,
    /// Sender give-ups during this epoch.
    pub gave_up: u64,
    /// Give-ups excused by topology: an endpoint absorbed into a region
    /// or the endpoints mutually unreachable at settle time.
    pub orphans: u64,
    /// Data retransmissions sent during this epoch.
    pub retransmits: u64,
    /// Checker assertions raised during this epoch.
    pub alerts: u64,
    /// Sum of offered→delivered latencies over this epoch's deliveries.
    pub latency_sum: u64,
    /// Number of deliveries behind `latency_sum`.
    pub latency_count: u64,
    /// Every non-orphan message delivered exactly once, no duplicates,
    /// and the epoch settled inside its budget.
    pub exactly_once: bool,
    /// Fault-region rectangles at settle.
    pub regions: u32,
    /// Dead (severed or fenced-both-ways) links at settle.
    pub dead_links: u32,
    /// Routers absorbed into regions at settle.
    pub absorbed: u32,
    /// Live components at settle (1 until the partition epoch).
    pub components: u32,
    /// Cumulative containment counters at settle.
    pub recovery: RecoveryStats,
    /// Digest of the full fault-region routing state (ranks, tables,
    /// link liveness) at settle — the resume bit-identity pin.
    pub region_digest: u64,
    /// How the epoch ended.
    pub outcome: AgingOutcome,
}

impl EpochReport {
    /// Mean delivery latency this epoch, in cycles (0 when nothing
    /// delivered).
    pub fn mean_latency(&self) -> u64 {
        self.latency_sum
            .checked_div(self.latency_count)
            .unwrap_or(0)
    }
}

/// The whole campaign's result: every epoch row, in order. The last row
/// is the terminal one (partition reached, plan exhausted, or the first
/// stall).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgingReport {
    /// Epoch rows in execution order.
    pub epochs: Vec<EpochReport>,
}

impl AgingReport {
    /// Live components of the terminal partition, when the campaign
    /// reached one.
    pub fn partition(&self) -> Option<u32> {
        match self.epochs.last()?.outcome {
            AgingOutcome::Partitioned { components } => Some(components),
            _ => None,
        }
    }

    /// True when the run stopped before its end: a finished run ends in
    /// a partition or with all `plan_len` epochs run, so only a callback
    /// that broke the run early leaves neither.
    pub fn interrupted(&self, plan_len: usize) -> bool {
        self.partition().is_none() && self.epochs.len() < plan_len
    }

    /// Number of epochs that stalled.
    pub fn stalled_epochs(&self) -> u32 {
        self.epochs
            .iter()
            .filter(|e| e.outcome == AgingOutcome::Stalled)
            .count() as u32
    }

    /// Number of epochs that held the exactly-once bar.
    pub fn exactly_once_epochs(&self) -> u32 {
        self.epochs.iter().filter(|e| e.exactly_once).count() as u32
    }

    /// The campaign acceptance bar: the mesh aged all the way to a true
    /// partition (reported as such, never a stall), and every epoch —
    /// including the partitioning one — delivered all non-orphan traffic
    /// exactly once.
    pub fn accepted(&self) -> bool {
        self.partition().is_some()
            && self.stalled_epochs() == 0
            && self.exactly_once_epochs() == self.epochs.len() as u32
    }
}

/// The continuous-simulation aging harness.
#[derive(Debug, Clone)]
pub struct AgingHarness {
    opts: AgingOptions,
}

impl AgingHarness {
    /// Builds a harness after validating `opts`.
    ///
    /// # Errors
    ///
    /// Propagates [`AgingOptions::validate`] failures.
    pub fn try_new(opts: AgingOptions) -> Result<AgingHarness, AgingError> {
        opts.validate()?;
        Ok(AgingHarness { opts })
    }

    /// The options the harness runs with.
    pub fn options(&self) -> &AgingOptions {
        &self.opts
    }

    /// Opens the harness's checkpoint journal in `dir`, pinned to its
    /// options, with the single shard `shard-w0.jsonl`: the rows
    /// checkpointed so far (none unless `resume`), for [`Self::run`] to
    /// verify, and the appender for the rows still to come.
    ///
    /// # Errors
    ///
    /// [`CampaignError`] from [`Journal::open`], [`Journal::load`] and
    /// [`Journal::writer`]: I/O failures, a directory belonging to other
    /// options, or a populated directory without `resume`.
    pub fn open_journal(
        &self,
        dir: impl Into<PathBuf>,
        resume: bool,
    ) -> Result<(Vec<EpochReport>, Appender), CampaignError> {
        let journal = Journal::<AgingOptions, EpochReport>::open(dir, &self.opts)?;
        let (rows, _torn) = journal.load(resume)?;
        Ok((rows, journal.writer(0)?))
    }

    /// The deterministic epoch plan: organic faults first, then the cut
    /// front. A pure function of the options — resume depends on that.
    pub fn plan(&self) -> Vec<EpochFault> {
        let noc = &self.opts.noc;
        let mesh = noc.mesh;
        // Organic universe: containment-covered signals on cardinal input
        // ports that actually have an upstream link to fence (so each
        // contained fault can grow the region map).
        let universe: Vec<SiteRef> = fault::enumerate_sites(noc)
            .into_iter()
            .filter(|s| {
                containment_covered(s.signal)
                    && (s.port as usize) < Direction::ALL.len() - 1
                    && mesh
                        .neighbor(NodeId(s.router), Direction::ALL[s.port as usize])
                        .is_some()
            })
            .collect();
        const KINDS: [FaultKind; 3] = [
            FaultKind::Permanent,
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
        ];
        let mut plan: Vec<EpochFault> =
            fault::sample::stride(&universe, self.opts.organic_epochs as usize)
                .into_iter()
                .enumerate()
                .map(|(i, site)| EpochFault::Organic {
                    site,
                    kind: KINDS[i % KINDS.len()],
                })
                .collect();
        for &router in &self.opts.quarantine_routers {
            plan.push(EpochFault::Quarantine { router });
        }
        for y in 0..mesh.height() {
            plan.push(EpochFault::Cut {
                router: mesh.node(Coord::new(self.opts.cut_column, y)).0,
                dir: Direction::East,
            });
        }
        plan
    }

    /// Runs the campaign (or resumes one).
    ///
    /// `prior` is the checkpointed prefix, in epoch order; the harness
    /// re-simulates it and asserts each recomputed row equals the stored
    /// one, then continues. `on_epoch` fires for every *fresh* row as
    /// soon as it settles (the checkpoint append hook); returning
    /// [`ControlFlow::Break`] stops the run after that epoch, so the
    /// report holds the rows settled so far.
    ///
    /// # Errors
    ///
    /// [`AgingError::ResumeDivergence`] when a recomputed prefix row
    /// differs from `prior`.
    pub fn run(
        &self,
        prior: &[EpochReport],
        mut on_epoch: impl FnMut(&EpochReport) -> ControlFlow<()>,
    ) -> Result<AgingReport, AgingError> {
        let opts = &self.opts;
        let plan = self.plan();
        let mut lp = ClosedLoop::new(&opts.noc, opts.policy, opts.arq);
        lp.run_until(opts.warmup, Cycle::MAX, &mut ());

        let mut cursor = Cursor::default();
        let mut epochs: Vec<EpochReport> = Vec::with_capacity(plan.len());
        for (i, fault) in plan.into_iter().enumerate() {
            let report = self.run_epoch(i as u32, fault, &mut lp, &mut cursor);
            let stop = match prior.get(i) {
                Some(stored) if *stored != report => {
                    return Err(AgingError::ResumeDivergence { epoch: i as u32 });
                }
                Some(_) => false,
                None => on_epoch(&report).is_break(),
            };
            let last = stop || matches!(report.outcome, AgingOutcome::Partitioned { .. });
            epochs.push(report);
            if last {
                break;
            }
        }
        Ok(AgingReport { epochs })
    }

    /// One epoch: introduce the fault, run the measurement window, settle,
    /// and aggregate the deltas into a row.
    fn run_epoch(
        &self,
        epoch: u32,
        fault: EpochFault,
        lp: &mut ClosedLoop,
        cursor: &mut Cursor,
    ) -> EpochReport {
        let opts = &self.opts;
        let start_cycle = lp.net.cycle();
        match fault {
            EpochFault::Organic { site, kind } => {
                lp.net
                    .arm_extra_fault(site, kind, start_cycle + opts.fault_offset);
            }
            EpochFault::Cut { router, dir } => {
                lp.net.sever_link(router, dir);
            }
            EpochFault::Quarantine { router } => {
                lp.net.quarantine_router(router);
            }
        }

        lp.net.set_injection_enabled(true);
        let active_end = start_cycle + opts.epoch_window;
        lp.run_until(active_end, Cycle::MAX, &mut ());
        // Settled: the transport has nothing pending and the network
        // either drained or froze into its quarantined steady state
        // (permanents may pin garbage flits in fenced buffers forever —
        // that residue is contained, not a liveness failure). Both stops
        // imply a quiescent transport, so the epoch stalled out exactly
        // when the per-epoch budget ran out with messages still pending.
        let stop = lp.drain(
            active_end + opts.watchdog.cycle_budget,
            opts.watchdog.stall_window,
            &mut (),
        );
        let stalled_out = !stop.quiescent;

        let ClosedLoop {
            net,
            bank,
            transport,
            ..
        } = lp;
        let (delta, orphans) = cursor.advance(transport, net);
        let exactly_once = !stalled_out
            && delta.duplicates == 0
            && delta.gave_up == orphans
            && delta.offered == delta.delivered + delta.gave_up;

        let map = net.fault_region_map();
        let components = map.map_or(1, |m| m.live_components().max(1));
        let partitioned = map.is_some_and(|m| m.partitioned());
        let outcome = if partitioned {
            AgingOutcome::Partitioned { components }
        } else if stalled_out {
            AgingOutcome::Stalled
        } else {
            AgingOutcome::Progressed
        };
        let alerts = bank.assertions().len() as u64 - cursor.alerts_seen;
        cursor.alerts_seen = bank.assertions().len() as u64;

        EpochReport {
            epoch,
            fault,
            start_cycle,
            end_cycle: net.cycle(),
            offered: delta.offered,
            delivered: delta.delivered,
            gave_up: delta.gave_up,
            orphans,
            retransmits: delta.retransmits,
            alerts,
            latency_sum: delta.latency_sum,
            latency_count: delta.latency_count,
            exactly_once,
            regions: map.map_or(0, |m| m.regions().len() as u32),
            dead_links: map.map_or(0, |m| m.dead_links()),
            absorbed: map.map_or(0, |m| m.absorbed_count()),
            components,
            recovery: net.recovery_stats(),
            region_digest: map.map_or(0, |m| m.state_digest()),
            outcome,
        }
    }
}

/// Per-epoch transport deltas.
#[derive(Debug, Default, Clone, Copy)]
struct Delta {
    offered: u64,
    delivered: u64,
    gave_up: u64,
    retransmits: u64,
    duplicates: u64,
    latency_sum: u64,
    latency_count: u64,
}

/// Tracks how far into the transport's append-only histories previous
/// epochs have consumed, so each epoch aggregates only its own slice.
#[derive(Debug, Default)]
struct Cursor {
    stats: noc_sim::TransportStats,
    records_seen: usize,
    failed_seen: usize,
    alerts_seen: u64,
    apps_delivered: BTreeSet<u64>,
}

impl Cursor {
    /// Consumes everything new since the previous epoch; returns the
    /// delta and the number of orphaned give-ups among it.
    fn advance(&mut self, transport: &Transport, net: &Network) -> (Delta, u64) {
        let now = transport.stats();
        let mut delta = Delta {
            offered: now.offered - self.stats.offered,
            delivered: now.delivered - self.stats.delivered,
            gave_up: now.gave_up - self.stats.gave_up,
            retransmits: now.retransmits - self.stats.retransmits,
            ..Delta::default()
        };
        self.stats = now;
        for rec in &transport.records()[self.records_seen..] {
            if !self.apps_delivered.insert(rec.app) {
                delta.duplicates += 1;
            }
            delta.latency_sum += rec.delivered_at.saturating_sub(rec.offered_at);
            delta.latency_count += 1;
        }
        self.records_seen = transport.records().len();
        let map = net.fault_region_map();
        let mut orphans = 0u64;
        for failure in &transport.failed()[self.failed_seen..] {
            let excused = map.is_some_and(|m| {
                let (s, d) = (NodeId(failure.src), NodeId(failure.dest));
                m.absorbed(s) || m.absorbed(d) || !m.reachable(s, d)
            });
            if excused {
                orphans += 1;
            }
        }
        self.failed_seen = transport.failed().len();
        (delta, orphans)
    }
}

/// Judges a whole aging report the way [`crate::verify_delivery`] judges
/// one rollout: exactly-once over the campaign, with orphaned give-ups
/// excused.
pub fn verdict_of(report: &AgingReport) -> DeliveryVerdict {
    let mut undelivered = 0u64;
    let mut gave_up = 0u64;
    for e in &report.epochs {
        undelivered += (e.offered - e.delivered).saturating_sub(e.orphans);
        gave_up += e.gave_up.saturating_sub(e.orphans);
    }
    if undelivered == 0 && gave_up == 0 {
        DeliveryVerdict::ExactlyOnce
    } else {
        DeliveryVerdict::Violated {
            undelivered,
            gave_up,
            duplicates: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_harness() -> AgingHarness {
        AgingHarness::try_new(AgingOptions::smoke_defaults()).expect("valid options")
    }

    #[test]
    fn options_validation_rejects_wrong_routing_and_bad_cut() {
        let mut opts = AgingOptions::smoke_defaults();
        opts.noc.routing = RoutingAlgorithm::XY;
        assert!(matches!(
            AgingHarness::try_new(opts).unwrap_err(),
            AgingError::Options(_)
        ));
        let mut opts = AgingOptions::smoke_defaults();
        opts.cut_column = opts.noc.mesh.width() - 1;
        assert!(AgingHarness::try_new(opts).is_err());
    }

    #[test]
    fn plan_is_organic_then_quarantine_then_a_full_column_cut() {
        let h = smoke_harness();
        let plan = h.plan();
        let organic = h.options().organic_epochs as usize;
        let quarantines = h.options().quarantine_routers.len();
        let height = h.options().noc.mesh.height() as usize;
        assert_eq!(plan.len(), organic + quarantines + height);
        assert!(plan[..organic]
            .iter()
            .all(|f| matches!(f, EpochFault::Organic { .. })));
        assert!(plan[organic..organic + quarantines]
            .iter()
            .all(|f| matches!(f, EpochFault::Quarantine { .. })));
        assert!(plan[organic + quarantines..].iter().all(|f| matches!(
            f,
            EpochFault::Cut {
                dir: Direction::East,
                ..
            }
        )));
        // Deterministic: two harnesses over equal options agree.
        assert_eq!(plan, smoke_harness().plan());
    }

    #[test]
    fn smoke_campaign_ages_to_partition_with_exactly_once_survival() {
        let h = smoke_harness();
        let mut streamed = Vec::new();
        let report = h
            .run(&[], |e| {
                streamed.push(e.clone());
                ControlFlow::Continue(())
            })
            .expect("campaign runs");
        assert_eq!(streamed.len(), report.epochs.len());
        // The cut phase must end the campaign in an honest partition.
        let components = report.partition().expect("campaign reaches partition");
        assert_eq!(components, 2, "a column cut splits the mesh in two");
        assert_eq!(
            report.stalled_epochs(),
            0,
            "no epoch may stall: {report:#?}"
        );
        assert!(
            report.accepted(),
            "every epoch must hold exactly-once: {report:#?}"
        );
        assert_eq!(verdict_of(&report), DeliveryVerdict::ExactlyOnce);
        // The damage population actually grew before the partition.
        let last = report.epochs.last().expect("non-empty");
        assert!(last.dead_links >= h.options().noc.mesh.height() as u32);
        assert!(last.recovery.reroutes_taken > 0, "region routing engaged");
        // The quarantine epoch formed a real rectangular region.
        assert!(last.regions >= 1, "no region formed: {last:#?}");
        assert!(last.absorbed >= 1);
        assert!(last.recovery.regions_formed >= 1);
        assert!(last.recovery.routers_absorbed >= 1);
    }

    #[test]
    fn resume_reproduces_the_prefix_bit_identically() {
        let h = smoke_harness();
        let full = h.run(&[], |_| ControlFlow::Continue(())).expect("full run");
        assert!(full.epochs.len() >= 3);
        let split = full.epochs.len() / 2;
        let mut fresh = Vec::new();
        let resumed = h
            .run(&full.epochs[..split], |e| {
                fresh.push(e.clone());
                ControlFlow::Continue(())
            })
            .expect("resume runs");
        assert_eq!(resumed, full, "resume must reproduce the full campaign");
        assert_eq!(fresh.len(), full.epochs.len() - split);
        assert_eq!(fresh[0], full.epochs[split]);
        // Region routing state round-trips: digests pin every epoch.
        for (a, b) in resumed.epochs.iter().zip(&full.epochs) {
            assert_eq!(a.region_digest, b.region_digest);
        }
    }

    #[test]
    fn resume_divergence_is_an_error_not_a_fork() {
        let h = smoke_harness();
        let full = h.run(&[], |_| ControlFlow::Continue(())).expect("full run");
        let mut forged = full.epochs.clone();
        forged[0].delivered += 1;
        let err = h.run(&forged, |_| ControlFlow::Continue(())).unwrap_err();
        assert!(matches!(err, AgingError::ResumeDivergence { epoch: 0 }));
    }
}
