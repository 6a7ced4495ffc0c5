//! The closed detection → containment → ARQ loop shared by the recovery,
//! attack and aging harnesses (DESIGN.md §11).
//!
//! A [`ClosedLoop`] owns one recovery-enabled network, the checker bank
//! observing it, the end-to-end transport and the cursor into the bank's
//! assertion stream. Each cycle ([`ClosedLoop::step`]) steps the network
//! under the bank and the transport, hands the fresh assertions to
//! containment (applied by the network at the start of the next cycle —
//! the one-cycle reaction latency of a real alert wire), and lets the
//! transport fabricate control packets and fire timers.
//!
//! What differs between harnesses is a [`Hook`]: recovery and aging use
//! the plain loop `()`, the attack harness withholds and injects traffic
//! around the transport step. The hook is a generic parameter, so the
//! per-cycle calls inline away.
//!
//! The full bank stays armed throughout: the turn/progress checkers
//! (invariances 1 and 3) are region-aware — degraded routes around
//! fenced ports and fault-region detours are excused per RC execution
//! against the recorded routing registers, not by disarming checkers.

use crate::recovery::RecoveryOutcome;
use fault::{Hang, HangKind, StallMeter, Watchdog};
use noc_sim::{ArqConfig, Network, RecoveryPolicy, Transport};
use noc_types::{Cycle, NocConfig};
use nocalert::{info, AlertBank, AssertionEvent};

/// Per-cycle extension points of the closed loop.
pub(crate) trait Hook {
    /// Sees one fresh bank assertion; `false` withholds it from
    /// containment (the bank keeps its record either way).
    fn alert(&mut self, _ev: &AssertionEvent) -> bool {
        true
    }

    /// Runs after the cycle's alerts reached containment, before the
    /// transport's post-step.
    fn before_transport(&mut self, _net: &mut Network, _transport: &mut Transport) {}

    /// Runs after the transport's post-step.
    fn after_transport(&mut self, _net: &mut Network, _transport: &mut Transport) {}
}

/// The plain loop: every alert reaches containment.
impl Hook for () {}

/// Where [`ClosedLoop::drain`] stopped. Several conditions can hold at
/// once; each caller classifies them in its own tie order. A stop that
/// is neither drained nor over budget is a quiescent transport that saw
/// no progress for the stall window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrainStop {
    /// The network drained and the transport is quiescent.
    pub(crate) drained: bool,
    /// The transport has nothing pending.
    pub(crate) quiescent: bool,
    /// The cycle budget was reached.
    pub(crate) over_budget: bool,
    /// Consecutive progress-free cycles at the stop.
    pub(crate) stalled_for: Cycle,
}

/// One closed-loop simulation: network, checker bank, transport.
#[derive(Debug)]
pub(crate) struct ClosedLoop {
    pub(crate) net: Network,
    pub(crate) bank: AlertBank,
    pub(crate) transport: Transport,
    /// Bank assertions already handed to containment.
    consumed: usize,
}

impl ClosedLoop {
    /// A fresh loop on `cfg` with containment under `policy` and the
    /// transport under `arq`.
    pub(crate) fn new(cfg: &NocConfig, policy: RecoveryPolicy, arq: ArqConfig) -> ClosedLoop {
        let mut net = Network::new(cfg.clone());
        net.enable_recovery(policy);
        ClosedLoop {
            net,
            bank: AlertBank::new(cfg),
            transport: Transport::new(cfg, arq),
            consumed: 0,
        }
    }

    /// One simulated cycle: observe, alerts to containment, post-step.
    pub(crate) fn step<H: Hook>(&mut self, hook: &mut H) {
        let ClosedLoop {
            net,
            bank,
            transport,
            consumed,
        } = self;
        net.step_observed(&mut (&mut *bank, &mut *transport));
        for ev in bank.events_since(*consumed) {
            if !hook.alert(ev) {
                continue;
            }
            if let Some(module) = info(ev.checker).module {
                net.notify_alert(ev.router, ev.port, ev.vc, module.port_is_output());
            }
        }
        *consumed = bank.assertions().len();
        hook.before_transport(net, transport);
        transport.post_step(net);
        hook.after_transport(net, transport);
    }

    /// Steps until cycle `end`. Reaching the absolute cycle `budget`
    /// first is a [`HangKind::CycleBudget`] hang.
    pub(crate) fn run_until<H: Hook>(
        &mut self,
        end: Cycle,
        budget: Cycle,
        hook: &mut H,
    ) -> Option<Hang> {
        while self.net.cycle() < end {
            if self.net.cycle() >= budget {
                return Some(Hang {
                    kind: HangKind::CycleBudget,
                    at_cycle: self.net.cycle(),
                    stalled_for: 0,
                });
            }
            self.step(hook);
        }
        None
    }

    /// Stops traffic generation and steps until the network drains with
    /// the transport quiescent, the absolute cycle `budget` is reached,
    /// or a quiescent transport sees no progress for `stall_window`
    /// cycles. A pending transport is waiting on an armed retransmission
    /// timer — progress resumes by construction — so the stall only
    /// counts once it has nothing left.
    pub(crate) fn drain<H: Hook>(
        &mut self,
        budget: Cycle,
        stall_window: Cycle,
        hook: &mut H,
    ) -> DrainStop {
        self.net.set_injection_enabled(false);
        let mut meter = StallMeter::new(&self.net);
        loop {
            let quiescent = self.transport.quiescent();
            let stop = DrainStop {
                drained: quiescent && self.net.is_drained(),
                quiescent,
                over_budget: self.net.cycle() >= budget,
                stalled_for: meter.stalled(),
            };
            let stalled = quiescent && stop.stalled_for >= stall_window;
            if stop.drained || stop.over_budget || stalled {
                return stop;
            }
            self.step(hook);
            meter.observe(&self.net);
        }
    }

    /// Live components, when the fault-region map reports a true
    /// partition.
    pub(crate) fn partition(&self) -> Option<u32> {
        self.net
            .fault_region_map()
            .filter(|m| m.partitioned())
            .map(|m| m.live_components())
    }

    /// One watched rollout: the active window up to `active_end`, then
    /// the drain, both under `dog`'s absolute cycle budget. A drained run
    /// is quiescent; otherwise the budget outranks the stall. Partition
    /// outranks both: a mesh split in two genuinely cannot deliver
    /// cross-partition traffic, and reporting that as `Hung` would blame
    /// the routing for a topology fact.
    pub(crate) fn rollout<H: Hook>(
        &mut self,
        active_end: Cycle,
        dog: Watchdog,
        hook: &mut H,
    ) -> RecoveryOutcome {
        let mut hang = self.run_until(active_end, dog.cycle_budget, hook);
        if hang.is_none() {
            let stop = self.drain(dog.cycle_budget, dog.stall_window, hook);
            if !stop.drained {
                hang = Some(Hang {
                    kind: if stop.over_budget {
                        HangKind::CycleBudget
                    } else {
                        HangKind::NoProgress
                    },
                    at_cycle: self.net.cycle(),
                    stalled_for: stop.stalled_for,
                });
            }
        }
        match (self.partition(), hang) {
            (Some(components), _) => RecoveryOutcome::Partitioned { components },
            (None, Some(h)) => RecoveryOutcome::Hung(h),
            (None, None) => RecoveryOutcome::Quiescent,
        }
    }
}
