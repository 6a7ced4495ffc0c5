//! Pass 4 — explicit-state model checking of the recovery plane.
//!
//! The survival story of DESIGN.md §11 rests on two small state machines:
//! the per-VC **escalation ladder** (squash → reset → quarantine,
//! [`RecoveryController`]) and the NIC-level **ARQ** (timeout, exponential
//! backoff, dedup/re-ACK, give-up, [`noc_sim::arq`]). This pass explores
//! their product space exhaustively under an adversarial environment and
//! proves:
//!
//! * **Escalation monotonicity** (`NL501`) — the containment level never
//!   regresses as alerts accumulate, every pre-quarantine alert produces
//!   an action, and a quarantined VC stays permanently quiet.
//! * **Quiescence** (`NL502`) — from *every* reachable product state, the
//!   benign schedule (copies arrive clean, no further alerts) drives the
//!   system to a terminal state (message done or given up, nothing in
//!   flight) within a bounded number of ticks.
//! * **Exactly-once delivery** (`NL503`) — the application never sees a
//!   message twice, under any interleaving of losses, corruptions,
//!   duplicate races, timeouts, forged control flits and replayed
//!   authentic controls.
//! * **Failure honesty** (`NL504`) — a completed message was really
//!   delivered, and a recorded failure is never raised for a message the
//!   receiver delivered.
//! * **Model soundness guards** (`NL505`) — the arithmetic that the above
//!   depends on: the receiver's retire horizon must outlast the
//!   worst-case backed-off retry schedule (otherwise the dedup mark can
//!   expire *while copies are still in flight* — the model then switches
//!   to a finite mark lifetime and produces the concrete duplicate-
//!   delivery or false-failure trace), and the bounded search must not
//!   exhaust its state budget.
//!
//! # The model executes the simulator's code
//!
//! Every sender/receiver decision in the transition function is a call
//! into [`noc_sim::arq`] — the *same* pure functions
//! [`noc_sim::Transport`] executes (pinned by the `arq_equivalence`
//! integration test against recorded decision logs) — and every ladder
//! transition replays a real [`RecoveryController`]. There is no parallel
//! reimplementation of the protocol to drift.
//!
//! # Abstraction (documented in DESIGN.md §10)
//!
//! Time is abstracted to **ticks of one `ack_timeout`**: backoff timers
//! are exact multiples of the tick by construction, and every in-flight
//! copy resolves (arrives or is lost, adversary's choice) within one
//! tick. Corruption is decided at arrival. Containment's deliberate flit
//! destruction is subsumed by the adversary's loss fates, which is why
//! the ladder needs no data coupling into the ARQ beyond the product
//! itself. One message and one suspect VC suffice: messages are
//! independent under the transport's per-message state, and ladders are
//! per-VC.
//!
//! # The control-plane adversary (DESIGN.md §14)
//!
//! A compromised router can do more than drop and corrupt: it can
//! *manufacture* control flits. The model grants the adversary two extra
//! moves, each with a small budget (budgets only bound the search — the
//! moves are idempotent against a hardened sender, so a larger budget
//! reaches no new protocol states):
//!
//! * **Forge** — deliver an ACK or NACK the receiver never sent. The
//!   attacker does not hold the NIC's tag secret, so the forged copy
//!   carries `tag_valid = false` (the model conservatively grants it a
//!   *valid-looking wire source*); the hardened
//!   [`sender_control_action`] must ignore it. The soundness caveat: this
//!   encodes the assumption that a 64-bit keyed tag is unguessable —
//!   `NL504` under forging is a proof *relative to* that assumption.
//! * **Replay** — capture any genuine control copy off the wire and
//!   re-deliver it later, tag and source intact. Authentication cannot
//!   reject it; safety instead rests on the sender's pending-window
//!   staleness (a replay after completion finds no pending entry) and on
//!   the fact that a genuine ACK implies a real delivery (so a replayed
//!   ACK can never complete an undelivered message).
//!
//! The pre-hardening *trusting* rule (any well-formed ACK completes) is
//! kept behind the `mutation` feature: running the same adversary against
//! it extracts the concrete spoofed-ACK → false-completion `NL504` trace
//! that motivated the hardening, pinned as a negative test.

use crate::diag::{Diagnostic, Pass, Severity};
use noc_sim::arq::{
    receiver_data_action, sender_control_action, sender_timeout_action, ControlSignature,
    ReceiverAction, SenderControlAction, SenderTimeoutAction,
};
use noc_sim::{ArqConfig, ContainmentLevel, RecoveryController, RecoveryPolicy};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// Ceiling on explored states — far above any healthy configuration
/// (which needs a few tens of thousands); hitting it is an `NL505` guard
/// failure, not a silent truncation.
const STATE_BUDGET: usize = 500_000;

/// Marker value: the dedup mark never expires (retire horizon proven to
/// outlast every copy).
const MARK_PERMANENT: u16 = u16::MAX;

/// When the `NL505` horizon guard has already condemned a configuration,
/// the exploration that extracts the concrete duplicate-delivery /
/// false-failure witness models the mark with a lifetime truncated to
/// this many ticks. The truncation only *hastens* an expiry the guard
/// proved possible — the witness shape (mark expires while copies are
/// still scheduled) is identical at the true horizon, just deeper — and
/// it keeps the witness search small.
const WITNESS_MARK_CAP: u64 = 12;

/// Sender phase of the modeled message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Pending entry live, timer running.
    Waiting,
    /// Completed by an ACK.
    Done,
    /// Retry budget exhausted.
    GaveUp,
}

/// An in-flight control copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ctl {
    Ack,
    Nack,
}

/// One state of the ladder × ARQ product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct McState {
    /// Wire attempts beyond the first transmission (sender counter).
    attempts: u8,
    /// Ticks until the retransmission timer fires (0 = due this tick).
    timer: u16,
    phase: Phase,
    /// Times the application received the message (saturates at 2 — the
    /// exactly-once violation is the 1 → 2 crossing).
    delivered: u8,
    /// A `FailureRecord` was emitted.
    failure: bool,
    /// A data copy is on the wire.
    data_in_flight: bool,
    /// A control copy is on the wire.
    ctl_in_flight: Option<Ctl>,
    /// Ticks of dedup-mark lifetime left (0 = no mark,
    /// [`MARK_PERMANENT`] = proven permanent).
    mark_ttl: u16,
    /// Ladder alert count (saturating; mirrors the real controller).
    ladder_count: u8,
    /// The suspect VC is quarantined.
    quarantined: bool,
    /// Adversary's remaining alert budget.
    alerts_left: u8,
    /// Adversary's remaining forged-control budget.
    forges_left: u8,
    /// Adversary's remaining replay budget.
    replays_left: u8,
    /// Genuine control copy the adversary has captured off the wire
    /// (sticky: once snooped, replayable until the budget runs out).
    captured: Option<Ctl>,
}

impl McState {
    fn arq_terminal(self) -> bool {
        self.phase != Phase::Waiting && !self.data_in_flight && self.ctl_in_flight.is_none()
    }
}

impl fmt::Display for McState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase={:?} attempts={} timer={}t delivered={} failure={} wire=[{}{}] mark={} \
             ladder={}{} alerts_left={} forges_left={} replays_left={} captured={}",
            self.phase,
            self.attempts,
            self.timer,
            self.delivered,
            self.failure,
            if self.data_in_flight { "data " } else { "" },
            match self.ctl_in_flight {
                Some(Ctl::Ack) => "ack",
                Some(Ctl::Nack) => "nack",
                None => "-",
            },
            if self.mark_ttl == MARK_PERMANENT {
                "permanent".to_string()
            } else {
                format!("{}t", self.mark_ttl)
            },
            self.ladder_count,
            if self.quarantined {
                "(quarantined)"
            } else {
                ""
            },
            self.alerts_left,
            self.forges_left,
            self.replays_left,
            match self.captured {
                Some(Ctl::Ack) => "ack",
                Some(Ctl::Nack) => "nack",
                None => "-",
            },
        )
    }
}

/// Adversary choice for the in-flight data copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DataFate {
    ArriveClean,
    ArriveCorrupted,
    Lost,
}

/// Adversary choice for the in-flight control copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtlFate {
    Arrive,
    Lost,
}

/// An adversarial control-plane move (DESIGN.md §14): manufacture a
/// control flit and deliver it to the sender this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdvCtl {
    /// Deliver a forged control. The tag is a guess (`tag_valid = false`);
    /// the claimed wire source is granted as valid — the worst case the
    /// hardened rule must still reject.
    Forge(Ctl),
    /// Re-deliver the captured genuine control, tag and source intact.
    Replay,
}

/// One tick's worth of environment + adversary choices: the fates of the
/// in-flight copies plus the adversary's optional control-plane and
/// alert moves. The search enumerates every combination per state.
#[derive(Debug, Clone, Copy)]
struct McMove {
    data: Option<DataFate>,
    ctl: Option<CtlFate>,
    adv: Option<AdvCtl>,
    alert: bool,
}

/// How the modeled sender judges an arriving control flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlRule {
    /// The shipped hardened rule: authenticate tag and wire source.
    Hardened,
    /// The pre-hardening trusting rule — believes any well-formed
    /// control. Mutation builds only; exists to pin the failure the
    /// hardening removed.
    #[cfg(any(test, feature = "mutation"))]
    Trusting,
}

impl ControlRule {
    fn judge(self, sig: ControlSignature) -> SenderControlAction {
        match self {
            ControlRule::Hardened => sender_control_action(sig),
            #[cfg(any(test, feature = "mutation"))]
            ControlRule::Trusting => noc_sim::arq::sender_control_action_trusting(sig.nack),
        }
    }
}

/// Aggregate statistics of the model-checking pass.
#[derive(Debug, Clone, Serialize)]
pub struct McStats {
    /// Distinct product states reached.
    pub states_explored: u64,
    /// Transitions evaluated.
    pub transitions: u64,
    /// Transitions that exercised the escalation ladder.
    pub ladder_transitions: u64,
    /// Transitions on which the adversary delivered a forged control.
    pub forge_transitions: u64,
    /// Transitions on which the adversary replayed a captured control.
    pub replay_transitions: u64,
    /// Reachable states that are ARQ-terminal.
    pub terminal_states: u64,
    /// Longest shortest-path depth, in ticks.
    pub max_depth_ticks: u64,
    /// Receiver retention horizon, in ticks.
    pub horizon_ticks: u64,
    /// Worst-case copy lifetime (full backed-off retry schedule), ticks.
    pub worst_schedule_ticks: u64,
    /// The dedup mark is proven to outlast every copy (`NL505` guard).
    pub mark_permanent: bool,
    /// Property violations found (0 on a passing run).
    pub violations: u64,
    /// Pretty-printed counterexample traces, one per violated property
    /// code, in discovery order. Empty on a passing run.
    pub counterexamples: Vec<String>,
}

/// Result of [`model_check`].
pub struct McResult {
    /// Aggregate statistics (serialized into the report).
    pub stats: McStats,
    /// Diagnostics (`NL501`–`NL505`).
    pub diagnostics: Vec<Diagnostic>,
}

fn level_rank(level: ContainmentLevel) -> u8 {
    match level {
        ContainmentLevel::Squash => 1,
        ContainmentLevel::Reset => 2,
        ContainmentLevel::Disable => 3,
    }
}

/// Executes one real-controller ladder step from an abstract
/// `(count, quarantined)` ladder state by replaying the alert history —
/// the model checker runs the controller the simulator runs.
fn ladder_step(
    policy: &RecoveryPolicy,
    count: u8,
    quarantined: bool,
) -> (u8, bool, Option<ContainmentLevel>) {
    let mut c = RecoveryController::new();
    for _ in 0..count {
        let _ = c.note_alert(policy, 0, 0);
    }
    debug_assert_eq!(c.is_quarantined(0, 0), quarantined);
    let level = c.note_alert(policy, 0, 0);
    let next = u8::try_from(c.count(0, 0)).unwrap_or(u8::MAX);
    (next, c.is_quarantined(0, 0), level)
}

/// The deterministic tick function: resolves the adversary's fates, then
/// runs the sender timer, then the optional alert — every decision through
/// the real `arq` functions / `RecoveryController`.
struct Model<'a> {
    arq: &'a ArqConfig,
    policy: &'a RecoveryPolicy,
    mark_on_delivery: u16,
    ticks_of: fn(&ArqConfig, u32) -> u16,
    rule: ControlRule,
}

/// Backoff distance for `attempts`, in ticks (exact multiples of the
/// tick by construction: `timeout_after` is `ack_timeout` scaled by the
/// capped exponential).
fn backoff_ticks(arq: &ArqConfig, attempts: u32) -> u16 {
    if arq.ack_timeout == 0 {
        return 1;
    }
    u16::try_from(arq.timeout_after(attempts) / arq.ack_timeout).unwrap_or(u16::MAX)
}

/// A property violation observed on a transition.
struct Violation {
    code: &'static str,
    message: String,
}

impl Model<'_> {
    /// Applies an arriving control to the sender through the configured
    /// rule, recording the violations the properties watch for.
    fn sender_control(
        &self,
        n: &mut McState,
        sig: ControlSignature,
        what: &str,
        notes: &mut Vec<String>,
        violations: &mut Vec<Violation>,
    ) {
        if n.phase != Phase::Waiting {
            notes.push(format!("late {what} ignored (no pending entry)"));
            return;
        }
        match self.rule.judge(sig) {
            SenderControlAction::Complete => {
                n.phase = Phase::Done;
                notes.push(format!("{what} accepted → message complete"));
                if n.delivered == 0 {
                    violations.push(Violation {
                        code: "NL504",
                        message: format!(
                            "completion without delivery: a {what} closed a message the \
                             application never received"
                        ),
                    });
                }
            }
            SenderControlAction::RetransmitNow => {
                n.timer = 0;
                notes.push(format!("{what} accepted → timer expired now"));
            }
            SenderControlAction::Ignore => {
                notes.push(format!("{what} failed authentication → ignored"));
                if sig.tag_valid && sig.src_valid {
                    violations.push(Violation {
                        code: "NL505",
                        message: "the hardened rule rejected an authentic control copy — the \
                                  model and the protocol disagree"
                            .into(),
                    });
                }
            }
        }
    }

    fn tick(
        &self,
        s: McState,
        mv: McMove,
        violations: &mut Vec<Violation>,
        ladder_transitions: &mut u64,
    ) -> (McState, String) {
        let McMove {
            data: data_fate,
            ctl: ctl_fate,
            adv: adv_ctl,
            alert: raise_alert,
        } = mv;
        let mut n = s;
        let mut notes: Vec<String> = Vec::new();

        // Dedup-mark aging (receiver-side retire sweep).
        if n.mark_ttl != 0 && n.mark_ttl != MARK_PERMANENT {
            n.mark_ttl -= 1;
            if n.mark_ttl == 0 {
                notes.push("dedup mark retired".into());
            }
        }

        // Resolve the data copy.
        n.data_in_flight = false;
        let mut new_ctl: Option<Ctl> = None;
        match data_fate {
            None => debug_assert!(!s.data_in_flight),
            Some(DataFate::Lost) => notes.push("data copy lost".into()),
            Some(fate) => {
                let corrupted = fate == DataFate::ArriveCorrupted;
                let already = n.mark_ttl > 0;
                match receiver_data_action(already, corrupted) {
                    ReceiverAction::DeliverAndAck => {
                        n.delivered = n.delivered.saturating_add(1).min(2);
                        n.mark_ttl = self.mark_on_delivery;
                        new_ctl = Some(Ctl::Ack);
                        notes.push(format!("data delivered (#{}) → ACK", n.delivered));
                        if n.delivered >= 2 && s.delivered < 2 {
                            violations.push(Violation {
                                code: "NL503",
                                message: "duplicate delivery: the application received the \
                                          message twice"
                                    .into(),
                            });
                        }
                    }
                    ReceiverAction::SuppressAndReAck => {
                        new_ctl = Some(Ctl::Ack);
                        notes.push("duplicate suppressed → re-ACK".into());
                    }
                    ReceiverAction::Nack => {
                        new_ctl = Some(Ctl::Nack);
                        notes.push("corrupted arrival → NACK".into());
                    }
                }
            }
        }

        // Resolve the control copy. Whatever its fate, the wire was
        // visible to the compromised router: the copy is captured for
        // potential replay.
        n.ctl_in_flight = None;
        if let Some(k) = s.ctl_in_flight {
            n.captured = Some(k);
        }
        match ctl_fate {
            None => debug_assert!(s.ctl_in_flight.is_none()),
            Some(CtlFate::Lost) => notes.push("control copy lost".into()),
            Some(CtlFate::Arrive) if s.ctl_in_flight.is_none() => {}
            Some(CtlFate::Arrive) => {
                let kind = s.ctl_in_flight.unwrap_or(Ctl::Ack);
                let what = match kind {
                    Ctl::Ack => "genuine ACK",
                    Ctl::Nack => "genuine NACK",
                };
                let sig = ControlSignature::authentic(kind == Ctl::Nack);
                self.sender_control(&mut n, sig, what, &mut notes, violations);
            }
        }

        // Adversarial control delivery: a forged copy (guessed tag) or a
        // replay of the captured genuine copy (tag and source intact).
        match adv_ctl {
            None => {}
            Some(AdvCtl::Forge(kind)) => {
                debug_assert!(s.forges_left > 0);
                n.forges_left = n.forges_left.saturating_sub(1);
                let what = match kind {
                    Ctl::Ack => "forged ACK",
                    Ctl::Nack => "forged NACK",
                };
                let sig = ControlSignature {
                    nack: kind == Ctl::Nack,
                    tag_valid: false,
                    src_valid: true,
                };
                self.sender_control(&mut n, sig, what, &mut notes, violations);
            }
            Some(AdvCtl::Replay) => {
                debug_assert!(s.replays_left > 0);
                n.replays_left = n.replays_left.saturating_sub(1);
                let kind = s.captured.unwrap_or(Ctl::Ack);
                debug_assert!(s.captured.is_some());
                let what = match kind {
                    Ctl::Ack => "replayed ACK",
                    Ctl::Nack => "replayed NACK",
                };
                let sig = ControlSignature::authentic(kind == Ctl::Nack);
                self.sender_control(&mut n, sig, what, &mut notes, violations);
            }
        }
        n.ctl_in_flight = new_ctl;

        // Sender timer.
        if n.phase == Phase::Waiting {
            if n.timer > 0 {
                n.timer -= 1;
            }
            if n.timer == 0 {
                let delivered_mark = n.mark_ttl > 0;
                match sender_timeout_action(self.arq, n.attempts as u32, delivered_mark) {
                    SenderTimeoutAction::Retransmit { next_attempts, .. } => {
                        n.attempts = u8::try_from(next_attempts).unwrap_or(u8::MAX);
                        n.timer = (self.ticks_of)(self.arq, next_attempts);
                        n.data_in_flight = true;
                        notes.push(format!(
                            "timeout → retransmit #{next_attempts} (next timer {}t)",
                            n.timer
                        ));
                    }
                    SenderTimeoutAction::GiveUp { record_failure } => {
                        n.phase = Phase::GaveUp;
                        n.timer = 0;
                        if record_failure {
                            n.failure = true;
                            notes.push("retry budget exhausted → failure recorded".into());
                        } else {
                            notes.push("retry budget exhausted (delivered) → closed".into());
                        }
                        if n.failure && n.delivered > 0 {
                            violations.push(Violation {
                                code: "NL504",
                                message: "false failure: a FailureRecord was emitted for a \
                                          message the application received (the dedup mark \
                                          expired before the sender gave up)"
                                    .into(),
                            });
                        }
                    }
                }
            }
        }

        // Adversary alert against the suspect VC — the real controller.
        if raise_alert && n.alerts_left > 0 {
            n.alerts_left -= 1;
            *ladder_transitions += 1;
            let (count, quarantined, level) =
                ladder_step(self.policy, n.ladder_count, n.quarantined);
            match level {
                Some(l) => {
                    if s.quarantined {
                        violations.push(Violation {
                            code: "NL501",
                            message: format!(
                                "containment action ({l:?}) applied to an already-quarantined VC"
                            ),
                        });
                    }
                    let prev = ladder_level_of(self.policy, n.ladder_count);
                    if level_rank(l) < prev {
                        violations.push(Violation {
                            code: "NL501",
                            message: format!("escalation regressed: level {l:?} after rank {prev}"),
                        });
                    }
                    notes.push(format!("alert → {l:?}"));
                }
                None => {
                    if !s.quarantined {
                        violations.push(Violation {
                            code: "NL501",
                            message: "alert on an unquarantined VC produced no containment \
                                      action"
                                .into(),
                        });
                    }
                    notes.push("alert → ignored (quarantined)".into());
                }
            }
            n.ladder_count = count;
            n.quarantined = quarantined;
        }

        if notes.is_empty() {
            notes.push("idle tick".into());
        }
        (n, notes.join("; "))
    }
}

/// The containment level the *next* alert after `count` prior alerts
/// would select (0 before any action) — a pure function of the real
/// controller, used for the monotonicity reference point.
fn ladder_level_of(policy: &RecoveryPolicy, count: u8) -> u8 {
    if count == 0 {
        return 0;
    }
    let (_, _, level) = ladder_step(policy, count - 1, false);
    level.map_or(0, level_rank)
}

/// Exhaustive sweep of the escalation ladder alone (`NL501`): every alert
/// count from cold to past quarantine, through the real controller.
fn sweep_ladder(policy: &RecoveryPolicy, diags: &mut Vec<Diagnostic>) {
    let mut c = RecoveryController::new();
    let mut prev_rank = 0u8;
    for step in 0..policy.disable_threshold.saturating_add(3) {
        let was_quarantined = c.is_quarantined(0, 0);
        let level = c.note_alert(policy, 0, 0);
        match level {
            Some(l) => {
                if was_quarantined {
                    diags.push(Diagnostic::new(
                        Pass::Model,
                        "NL501",
                        Severity::Error,
                        format!("ladder sweep: action {l:?} after quarantine (alert #{step})"),
                    ));
                }
                if level_rank(l) < prev_rank {
                    diags.push(Diagnostic::new(
                        Pass::Model,
                        "NL501",
                        Severity::Error,
                        format!(
                            "ladder sweep: escalation regressed to {l:?} at alert #{step} \
                             (previous rank {prev_rank})"
                        ),
                    ));
                }
                prev_rank = level_rank(l);
            }
            None => {
                if !was_quarantined {
                    diags.push(Diagnostic::new(
                        Pass::Model,
                        "NL501",
                        Severity::Error,
                        format!("ladder sweep: alert #{step} swallowed before quarantine"),
                    ));
                }
            }
        }
    }
}

/// Model-checks the recovery plane under `arq` and `policy`, with the
/// shipped (hardened) control-authentication rule.
pub fn model_check(arq: &ArqConfig, policy: &RecoveryPolicy) -> McResult {
    model_check_with(arq, policy, ControlRule::Hardened)
}

/// Model-checks the recovery plane with the *pre-hardening* trusting
/// control rule — the negative control: the same spoof/replay adversary
/// must extract the spoofed-ACK false-completion counterexample the
/// hardening removed. Mutation builds only.
#[cfg(any(test, feature = "mutation"))]
pub fn model_check_trusting(arq: &ArqConfig, policy: &RecoveryPolicy) -> McResult {
    model_check_with(arq, policy, ControlRule::Trusting)
}

fn model_check_with(arq: &ArqConfig, policy: &RecoveryPolicy, rule: ControlRule) -> McResult {
    let mut diags = Vec::new();

    sweep_ladder(policy, &mut diags);

    // ---- NL505: arithmetic guards ------------------------------------
    if arq.ack_timeout == 0 || arq.backoff_factor == 0 || arq.max_retries == 0 {
        diags.push(Diagnostic::new(
            Pass::Model,
            "NL505",
            Severity::Error,
            "degenerate ArqConfig (zero ack_timeout, backoff_factor or max_retries) — the \
             recovery plane cannot be modeled"
                .into(),
        ));
        return McResult {
            stats: empty_stats(),
            diagnostics: diags,
        };
    }
    // Worst-case copy lifetime: the full backed-off retry schedule plus
    // one tick of wire flight for the final data copy and its control
    // return.
    let mut worst_schedule: u64 = 0;
    for a in 0..=arq.max_retries {
        worst_schedule = worst_schedule.saturating_add(backoff_ticks(arq, a) as u64);
    }
    worst_schedule = worst_schedule.saturating_add(2);
    let horizon_ticks = arq.retire_horizon / arq.ack_timeout;
    let mark_permanent = horizon_ticks >= worst_schedule;
    if !mark_permanent {
        let truncated = horizon_ticks > WITNESS_MARK_CAP;
        diags.push(Diagnostic::new(
            Pass::Model,
            "NL505",
            Severity::Error,
            format!(
                "retire_horizon ({horizon_ticks} ticks) can be outrun by the worst-case retry \
                 schedule ({worst_schedule} ticks): the dedup mark may expire while copies are \
                 in flight — exploring with a finite mark to extract the concrete trace{}",
                if truncated {
                    format!(" (witness search truncates the mark to {WITNESS_MARK_CAP} ticks)")
                } else {
                    String::new()
                }
            ),
        ));
    }

    // ---- Product-space BFS -------------------------------------------
    let alert_budget = u8::try_from(policy.disable_threshold.saturating_add(2)).unwrap_or(u8::MAX);
    let model = Model {
        arq,
        policy,
        mark_on_delivery: if mark_permanent {
            MARK_PERMANENT
        } else {
            u16::try_from(horizon_ticks.min(WITNESS_MARK_CAP)).unwrap_or(MARK_PERMANENT - 1)
        },
        ticks_of: backoff_ticks,
        rule,
    };
    let initial = McState {
        attempts: 0,
        timer: backoff_ticks(arq, 0),
        phase: Phase::Waiting,
        delivered: 0,
        failure: false,
        data_in_flight: true,
        ctl_in_flight: None,
        mark_ttl: 0,
        ladder_count: 0,
        quarantined: false,
        alerts_left: alert_budget,
        forges_left: 2,
        replays_left: 2,
        captured: None,
    };

    let mut arena: Vec<McState> = vec![initial];
    let mut parent: Vec<Option<(usize, String)>> = vec![None];
    let mut depth: Vec<u32> = vec![0];
    let mut index: HashMap<McState, usize> = HashMap::new();
    index.insert(initial, 0);

    let mut transitions = 0u64;
    let mut ladder_transitions = 0u64;
    let mut forge_transitions = 0u64;
    let mut replay_transitions = 0u64;
    let mut max_depth = 0u32;
    let mut budget_exhausted = false;
    let mut seen_codes: Vec<&'static str> = Vec::new();
    let mut counterexamples: Vec<String> = Vec::new();
    let mut violation_count = 0u64;

    let mut head = 0usize;
    while head < arena.len() {
        let s = arena[head];
        let d = depth[head];
        max_depth = max_depth.max(d);

        let data_fates: &[Option<DataFate>] = if s.data_in_flight {
            &[
                Some(DataFate::ArriveClean),
                Some(DataFate::ArriveCorrupted),
                Some(DataFate::Lost),
            ]
        } else {
            &[None]
        };
        let ctl_fates: &[Option<CtlFate>] = if s.ctl_in_flight.is_some() {
            &[Some(CtlFate::Arrive), Some(CtlFate::Lost)]
        } else {
            &[None]
        };
        let alert_choices: &[bool] = if s.alerts_left > 0 {
            &[false, true]
        } else {
            &[false]
        };
        let mut adv_choices: Vec<Option<AdvCtl>> = vec![None];
        if s.forges_left > 0 {
            adv_choices.push(Some(AdvCtl::Forge(Ctl::Ack)));
            adv_choices.push(Some(AdvCtl::Forge(Ctl::Nack)));
        }
        if s.replays_left > 0 && s.captured.is_some() {
            adv_choices.push(Some(AdvCtl::Replay));
        }

        for &df in data_fates {
            for &cf in ctl_fates {
                for &alert in alert_choices {
                    for &adv in &adv_choices {
                        // A fully idle tick changes nothing and cannot fire a
                        // timer that is not running — skip the no-op self-loop
                        // on terminal states.
                        if s.arq_terminal() && !alert && adv.is_none() {
                            continue;
                        }
                        transitions += 1;
                        match adv {
                            Some(AdvCtl::Forge(_)) => forge_transitions += 1,
                            Some(AdvCtl::Replay) => replay_transitions += 1,
                            None => {}
                        }
                        let mut violations = Vec::new();
                        let (n, label) = model.tick(
                            s,
                            McMove {
                                data: df,
                                ctl: cf,
                                adv,
                                alert,
                            },
                            &mut violations,
                            &mut ladder_transitions,
                        );
                        for v in violations {
                            violation_count += 1;
                            if !seen_codes.contains(&v.code) {
                                seen_codes.push(v.code);
                                let trace = render_trace(
                                    &arena, &parent, head, &label, n, v.code, &v.message,
                                );
                                diags.push(Diagnostic::new(
                                    Pass::Model,
                                    v.code,
                                    Severity::Error,
                                    format!(
                                        "{} (counterexample #{})",
                                        v.message,
                                        counterexamples.len() + 1
                                    ),
                                ));
                                counterexamples.push(trace);
                            }
                        }
                        if let std::collections::hash_map::Entry::Vacant(slot) = index.entry(n) {
                            if arena.len() >= STATE_BUDGET {
                                budget_exhausted = true;
                                continue;
                            }
                            slot.insert(arena.len());
                            arena.push(n);
                            parent.push(Some((head, label.clone())));
                            depth.push(d + 1);
                        }
                    }
                }
            }
        }
        head += 1;
    }

    if budget_exhausted {
        diags.push(Diagnostic::new(
            Pass::Model,
            "NL505",
            Severity::Error,
            format!(
                "state budget ({STATE_BUDGET}) exhausted — the product space is unbounded \
                     under this configuration and the proof is incomplete"
            ),
        ));
    }

    // ---- NL502: quiescence from every reachable state ----------------
    // The benign schedule (arrive clean, no alerts) is deterministic and
    // its successor is itself a reachable state, so memoize over the
    // arena.
    let mut quiescent: Vec<Option<bool>> = vec![None; arena.len()];
    let benign_bound = worst_schedule
        .saturating_add(horizon_ticks.min(worst_schedule))
        .saturating_add(8);
    for start in 0..arena.len() {
        if quiescent[start].is_some() {
            continue;
        }
        let mut path: Vec<usize> = Vec::new();
        let mut cur = start;
        let verdict = loop {
            if let Some(v) = quiescent[cur] {
                break v;
            }
            if arena[cur].arq_terminal() {
                break true;
            }
            if path.len() as u64 > benign_bound || path.contains(&cur) {
                break false;
            }
            path.push(cur);
            let s = arena[cur];
            let df = if s.data_in_flight {
                Some(DataFate::ArriveClean)
            } else {
                None
            };
            let cf = if s.ctl_in_flight.is_some() {
                Some(CtlFate::Arrive)
            } else {
                None
            };
            let mut sink = Vec::new();
            let mut lt = 0u64;
            let mv = McMove {
                data: df,
                ctl: cf,
                adv: None,
                alert: false,
            };
            let (n, _) = model.tick(s, mv, &mut sink, &mut lt);
            match index.get(&n) {
                Some(&i) => cur = i,
                None => break false, // off the reachable set: budget was exhausted
            }
        };
        for i in path {
            quiescent[i] = Some(verdict);
        }
        quiescent[start] = Some(verdict);
        if !verdict && !seen_codes.contains(&"NL502") {
            seen_codes.push("NL502");
            let trace = render_trace(
                &arena,
                &parent,
                start,
                "benign schedule cannot quiesce from here",
                arena[start],
                "NL502",
                "quiescence unreachable",
            );
            diags.push(Diagnostic::new(
                Pass::Model,
                "NL502",
                Severity::Error,
                format!(
                    "quiescence unreachable: the benign schedule does not terminate from a \
                     reachable state (counterexample #{})",
                    counterexamples.len() + 1
                ),
            ));
            counterexamples.push(trace);
            violation_count += 1;
        }
    }

    let terminal_states = arena.iter().filter(|s| s.arq_terminal()).count() as u64;
    let stats = McStats {
        states_explored: arena.len() as u64,
        transitions,
        ladder_transitions,
        forge_transitions,
        replay_transitions,
        terminal_states,
        max_depth_ticks: max_depth as u64,
        horizon_ticks,
        worst_schedule_ticks: worst_schedule,
        mark_permanent,
        violations: violation_count,
        counterexamples,
    };
    McResult {
        stats,
        diagnostics: diags,
    }
}

fn empty_stats() -> McStats {
    McStats {
        states_explored: 0,
        transitions: 0,
        ladder_transitions: 0,
        forge_transitions: 0,
        replay_transitions: 0,
        terminal_states: 0,
        max_depth_ticks: 0,
        horizon_ticks: 0,
        worst_schedule_ticks: 0,
        mark_permanent: false,
        violations: 0,
        counterexamples: Vec::new(),
    }
}

/// Pretty-prints the tick-by-tick path from the initial state to the
/// violating transition.
fn render_trace(
    arena: &[McState],
    parent: &[Option<(usize, String)>],
    at: usize,
    last_label: &str,
    final_state: McState,
    code: &str,
    message: &str,
) -> String {
    let mut steps: Vec<String> = Vec::new();
    let mut cur = at;
    while let Some((prev, label)) = parent.get(cur).and_then(|p| p.as_ref()) {
        steps.push(label.clone());
        cur = *prev;
    }
    steps.reverse();
    let mut out = format!("counterexample [{code}]: {message}\n");
    out.push_str(&format!("  tick 0  initial: {}\n", arena[cur]));
    for (i, label) in steps.iter().enumerate() {
        out.push_str(&format!("  tick {:<2} {label}\n", i + 1));
    }
    out.push_str(&format!("  tick {:<2} {last_label}\n", steps.len() + 1));
    out.push_str(&format!("  final:  {final_state}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shipped_arq() -> ArqConfig {
        ArqConfig::default_policy()
    }

    fn shipped_policy() -> RecoveryPolicy {
        RecoveryPolicy::default_policy()
    }

    #[test]
    fn shipped_configuration_proves_clean() {
        let r = model_check(&shipped_arq(), &shipped_policy());
        let errors: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:#?}");
        assert!(r.stats.mark_permanent);
        assert_eq!(r.stats.violations, 0);
        assert!(r.stats.counterexamples.is_empty());
        assert!(r.stats.states_explored > 100, "{}", r.stats.states_explored);
        assert!(r.stats.terminal_states > 0);
        assert!(r.stats.ladder_transitions > 0);
        // The clean proof covers the control-plane adversary: forged and
        // replayed controls were actually exercised, not vacuously absent.
        assert!(r.stats.forge_transitions > 0);
        assert!(r.stats.replay_transitions > 0);
    }

    /// Pinned negative: the *pre-hardening* trusting control rule, under
    /// the identical adversary, loses `NL504` — a forged ACK completes a
    /// message the application never received. This is the concrete trace
    /// that motivated the keyed-tag hardening; it must stay extractable so
    /// the hardened proof above is known to be non-vacuous.
    #[test]
    fn trusting_rule_yields_spoofed_ack_counterexample() {
        let r = model_check_trusting(&shipped_arq(), &shipped_policy());
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == "NL504" && d.severity == Severity::Error),
            "{:#?}",
            r.diagnostics
        );
        let trace = r
            .stats
            .counterexamples
            .iter()
            .find(|t| t.contains("NL504"))
            .expect("a false-completion trace");
        assert!(trace.contains("forged ACK"), "{trace}");
    }

    /// Acceptance: zeroing the dedup window yields a concrete duplicate-
    /// delivery (or false-failure) counterexample trace, plus the NL505
    /// arithmetic guard.
    #[test]
    fn zero_dedup_window_yields_counterexample_trace() {
        let arq = ArqConfig {
            retire_horizon: 0,
            ..shipped_arq()
        };
        let r = model_check(&arq, &shipped_policy());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == "NL505" && d.severity == Severity::Error));
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == "NL503" && d.severity == Severity::Error),
            "{:#?}",
            r.diagnostics
        );
        let trace = r
            .stats
            .counterexamples
            .iter()
            .find(|t| t.contains("NL503"))
            .expect("a duplicate-delivery trace");
        assert!(trace.contains("tick 0"), "{trace}");
        assert!(trace.contains("data delivered (#2)"), "{trace}");
    }

    /// Acceptance: removing the backoff cap makes the retry schedule
    /// outrun the retire horizon — the NL505 guard trips.
    #[test]
    fn uncapped_backoff_trips_horizon_guard() {
        let base = shipped_arq();
        let healthy_ticks: u64 = base.retire_horizon / base.ack_timeout;
        let arq = ArqConfig {
            // "Remove" the cap: let the exponent run to the full retry
            // budget. 2^0..2^8 sums past 500 ticks, far beyond the
            // shipped 200-tick horizon.
            backoff_cap: base.max_retries,
            ..base
        };
        let r = model_check(&arq, &shipped_policy());
        assert!(healthy_ticks < 512);
        assert!(!r.stats.mark_permanent);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == "NL505" && d.severity == Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn ladder_sweep_is_monotone_for_shipped_policy() {
        let mut diags = Vec::new();
        sweep_ladder(&shipped_policy(), &mut diags);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn model_runs_the_real_controller() {
        // The ladder abstraction must agree with a live controller run.
        let policy = shipped_policy();
        let mut live = RecoveryController::new();
        let mut count = 0u8;
        let mut quarantined = false;
        for _ in 0..policy.disable_threshold + 2 {
            let expect = live.note_alert(&policy, 0, 0);
            let (c, q, got) = ladder_step(&policy, count, quarantined);
            assert_eq!(got, expect);
            count = c;
            quarantined = q;
            assert_eq!(count as u32, live.count(0, 0));
            assert_eq!(quarantined, live.is_quarantined(0, 0));
        }
    }
}
