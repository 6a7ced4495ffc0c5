//! Pure ARQ decision functions — the transport's control plane as data.
//!
//! Every control decision the NIC-level ARQ makes (DESIGN.md §11) is
//! factored here as a **pure function** over explicit inputs. The
//! simulator's [`crate::transport::Transport`] calls these functions to
//! decide; the model checker (`nocalert-analysis`' `mc` pass) calls the
//! *same* functions to explore the recovery-plane state space. There is no
//! parallel reimplementation to drift: a behaviour change here changes
//! both the simulation and the proof obligation at once, and the
//! `arq_equivalence` test pins the transport to this module against
//! recorded traces.
//!
//! The three decision points:
//!
//! * **Receiver, assembled data packet** — deliver/ack, suppress/re-ack a
//!   duplicate, or NACK a corrupted copy ([`receiver_data_action`]).
//! * **Sender, returned control packet** — the control copy is first
//!   authenticated (keyed per-packet tag + claimed-source check,
//!   [`ControlSignature`]); an authentic ACK completes the message, an
//!   authentic NACK schedules an immediate retransmit, and anything that
//!   fails authentication is ignored ([`sender_control_action`]).
//! * **Sender, expired retransmission timer** — retransmit with
//!   exponential backoff, or give up after the retry budget, recording a
//!   failure only if the message is not known delivered
//!   ([`sender_timeout_action`]).

use crate::transport::ArqConfig;
use noc_types::Cycle;

/// What the receiver does with a fully assembled **data** packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverAction {
    /// First clean arrival: hand to the application, mark the dedup
    /// window, and send an ACK.
    DeliverAndAck,
    /// Late duplicate (a retransmit raced the ACK): suppress the payload
    /// but re-acknowledge so the sender stops.
    SuppressAndReAck,
    /// The copy arrived damaged: NACK to trigger an immediate resend.
    Nack,
}

/// Receiver-side decision for an assembled data packet.
///
/// `already_delivered` is the dedup-window mark for the application
/// message; `corrupted` is the EDC verdict on this wire copy. Note the
/// precedence: a *corrupted duplicate* is still re-ACKed — the payload
/// already reached the application, so identity is all that matters.
#[inline]
pub fn receiver_data_action(already_delivered: bool, corrupted: bool) -> ReceiverAction {
    if already_delivered {
        ReceiverAction::SuppressAndReAck
    } else if corrupted {
        ReceiverAction::Nack
    } else {
        ReceiverAction::DeliverAndAck
    }
}

/// What the data sender does with a returned control packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderControlAction {
    /// Authentic ACK: the message is done; drop the pending entry and
    /// stop the timer. A *corrupted* authentic ACK still completes — its
    /// identity carries the information; real hardware would
    /// checksum-drop it and the next retransmission round would absorb
    /// the loss identically. A *forged* ACK never reaches this arm.
    Complete,
    /// Authentic NACK: the path demonstrably delivers, the copy was just
    /// damaged — expire the timer now and retransmit immediately.
    RetransmitNow,
    /// The control copy failed authentication (bad keyed tag, or the
    /// claimed source is not the pending message's destination): treat it
    /// as if it never arrived. The retransmission timer keeps running, so
    /// a black-holed-then-spoofed message degrades to the plain-loss case
    /// the timeout path already covers.
    Ignore,
}

/// The authenticated identity of an arrived control packet, as computed
/// by the transport before asking for a decision.
///
/// `tag_valid` is the keyed per-packet tag check ([`auth_tag`]); the tag
/// is a function of a NIC-pair secret the on-path routers never hold, so
/// a compromised router can only guess it. `src_valid` is the
/// source-validation check: the control's claimed origin must be the
/// pending data message's destination — an ACK for `A→B` arriving "from"
/// anyone but `B` is spoofed by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlSignature {
    /// True for NACK, false for ACK.
    pub nack: bool,
    /// Keyed tag matched the expected per-packet value.
    pub tag_valid: bool,
    /// Claimed source is the pending message's destination.
    pub src_valid: bool,
}

impl ControlSignature {
    /// An authentic control copy (both checks passed).
    pub fn authentic(nack: bool) -> ControlSignature {
        ControlSignature {
            nack,
            tag_valid: true,
            src_valid: true,
        }
    }
}

/// Sender-side decision for an arrived control packet: authenticate
/// first, then let the control kind pick between completion and
/// immediate retransmission. Spoof-hardened — compare the trusting
/// pre-hardening rule `sender_control_action_trusting` (built for tests
/// and the `mutation` feature only).
#[inline]
pub fn sender_control_action(sig: ControlSignature) -> SenderControlAction {
    if !sig.tag_valid || !sig.src_valid {
        SenderControlAction::Ignore
    } else if sig.nack {
        SenderControlAction::RetransmitNow
    } else {
        SenderControlAction::Complete
    }
}

/// The **pre-hardening** control rule: trust any control copy that names
/// a pending packet. Kept (test/mutation-gated) as the pinned negative —
/// under an ACK-spoofing adversary this rule completes a message that was
/// never delivered, which the hardened rule and the NL504 model-checking
/// obligation both reject.
#[cfg(any(test, feature = "mutation"))]
#[inline]
pub fn sender_control_action_trusting(nack: bool) -> SenderControlAction {
    if nack {
        SenderControlAction::RetransmitNow
    } else {
        SenderControlAction::Complete
    }
}

/// Keyed per-packet authentication tag for control packets.
///
/// A cheap two-round xorshift-multiply mixer — this models a MAC's
/// *protocol* role (unforgeable without the key), not its cryptographic
/// strength. The secret is shared by the NIC endpoints (derived from the
/// run seed at transport construction) and never held by routers, so an
/// on-path attacker can only guess: its forged tags come from its private
/// RNG and miss with overwhelming probability, while *replayed* genuine
/// controls carry valid tags and are instead absorbed by the pending
/// window (stale-sequence idempotence).
#[inline]
pub fn auth_tag(secret: u64, packet: noc_types::PacketId, nack: bool) -> u64 {
    let mut x = secret ^ packet.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (nack as u64) << 63;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What the data sender does when a retransmission timer expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderTimeoutAction {
    /// Retry budget left: send another wire copy.
    Retransmit {
        /// The attempt counter after this retransmission.
        next_attempts: u32,
        /// Timer distance for the new attempt (exponential backoff,
        /// capped — `ArqConfig::timeout_after(next_attempts)`).
        backoff: Cycle,
    },
    /// Budget exhausted: stop retrying. `record_failure` is set when the
    /// message is not known delivered — a delivered message whose ACKs
    /// all died is simply closed without a failure record (the
    /// exactly-once oracle counts deliveries, not ACK luck).
    GiveUp {
        /// Whether a [`crate::transport::FailureRecord`] must be emitted.
        record_failure: bool,
    },
}

/// Sender-side decision at timer expiry: `attempts` wire copies beyond the
/// first have been sent, `delivered` is the receiver-side dedup mark as
/// visible to the (co-located, in-simulation) transport model.
#[inline]
pub fn sender_timeout_action(
    arq: &ArqConfig,
    attempts: u32,
    delivered: bool,
) -> SenderTimeoutAction {
    if attempts >= arq.max_retries {
        SenderTimeoutAction::GiveUp {
            record_failure: !delivered,
        }
    } else {
        let next_attempts = attempts + 1;
        SenderTimeoutAction::Retransmit {
            next_attempts,
            backoff: arq.timeout_after(next_attempts),
        }
    }
}

/// One logged ARQ decision with the exact inputs it was made from —
/// recorded by the transport when the decision log is enabled, and
/// replayed by the `arq_equivalence` test to pin the simulator to the
/// pure functions above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArqDecision {
    /// A receiver decision on an assembled data packet.
    Data {
        /// Dedup-window mark at decision time.
        already_delivered: bool,
        /// EDC verdict on the wire copy.
        corrupted: bool,
        /// The action taken.
        action: ReceiverAction,
    },
    /// A sender decision on a returned control packet.
    Control {
        /// The authenticated identity the decision was made from.
        sig: ControlSignature,
        /// The action taken.
        action: SenderControlAction,
    },
    /// A sender decision at timer expiry.
    Timeout {
        /// Attempt counter at decision time.
        attempts: u32,
        /// Receiver-side dedup mark at decision time.
        delivered: bool,
        /// The action taken.
        action: SenderTimeoutAction,
        /// Whether a `Retransmit` was actually carried out (injection can
        /// be refused under backpressure; the timer then re-fires with
        /// unchanged state on a later cycle).
        applied: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_precedence_duplicate_beats_corruption() {
        assert_eq!(
            receiver_data_action(true, true),
            ReceiverAction::SuppressAndReAck
        );
        assert_eq!(receiver_data_action(false, true), ReceiverAction::Nack);
        assert_eq!(
            receiver_data_action(false, false),
            ReceiverAction::DeliverAndAck
        );
    }

    #[test]
    fn timeout_gives_up_exactly_at_budget() {
        let arq = ArqConfig::default_policy();
        match sender_timeout_action(&arq, arq.max_retries - 1, false) {
            SenderTimeoutAction::Retransmit {
                next_attempts,
                backoff,
            } => {
                assert_eq!(next_attempts, arq.max_retries);
                assert_eq!(backoff, arq.timeout_after(arq.max_retries));
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
        assert_eq!(
            sender_timeout_action(&arq, arq.max_retries, false),
            SenderTimeoutAction::GiveUp {
                record_failure: true
            }
        );
        assert_eq!(
            sender_timeout_action(&arq, arq.max_retries, true),
            SenderTimeoutAction::GiveUp {
                record_failure: false
            }
        );
    }

    #[test]
    fn authentic_controls_decide_by_kind() {
        assert_eq!(
            sender_control_action(ControlSignature::authentic(false)),
            SenderControlAction::Complete
        );
        assert_eq!(
            sender_control_action(ControlSignature::authentic(true)),
            SenderControlAction::RetransmitNow
        );
    }

    #[test]
    fn spoofed_controls_are_ignored() {
        // A forged tag is ignored regardless of kind or claimed source.
        for nack in [false, true] {
            for src_valid in [false, true] {
                assert_eq!(
                    sender_control_action(ControlSignature {
                        nack,
                        tag_valid: false,
                        src_valid,
                    }),
                    SenderControlAction::Ignore
                );
            }
        }
        // A valid tag from the wrong claimed source is still ignored: a
        // replayed tag re-addressed by an on-path router must not count.
        for nack in [false, true] {
            assert_eq!(
                sender_control_action(ControlSignature {
                    nack,
                    tag_valid: true,
                    src_valid: false,
                }),
                SenderControlAction::Ignore
            );
        }
    }

    #[test]
    fn replayed_authentic_controls_stay_idempotent() {
        // A bit-faithful replay authenticates (same tag, same source) and
        // must therefore produce the same decision as the original — the
        // safety burden for replays sits on the *pending window* (a
        // completed packet has no pending entry, so a stale-sequence
        // replay is dropped before any decision is asked for). The pure
        // layer's contract is only that the repeated decision is
        // idempotent, never a new side effect.
        let first = sender_control_action(ControlSignature::authentic(false));
        let replay = sender_control_action(ControlSignature::authentic(false));
        assert_eq!(first, replay);
        assert_eq!(replay, SenderControlAction::Complete);
    }

    #[test]
    fn forged_tags_from_guessing_do_not_collide() {
        // The attacker holds the packet id but not the secret: guessing
        // with a different key never reproduces the genuine tag.
        let secret = 0x5eed_0f00d;
        for pid in 0..64u64 {
            let genuine = auth_tag(secret, noc_types::PacketId(pid), false);
            for guess_key in 1..=16u64 {
                let forged = auth_tag(secret ^ guess_key, noc_types::PacketId(pid), false);
                assert_ne!(genuine, forged, "pid {pid} guess {guess_key}");
            }
            // The tag also binds the control kind: an ACK tag is not a
            // valid NACK tag for the same packet.
            assert_ne!(genuine, auth_tag(secret, noc_types::PacketId(pid), true));
        }
    }

    /// Pinned negative: the pre-hardening rule trusts an unauthenticated
    /// ACK and completes the message. This is exactly the spoofing hole
    /// the hardened rule closes — the test documents the hole so it can
    /// never silently return (the mutation build of the model checker
    /// turns this same rule into an NL504 counterexample).
    #[test]
    fn trusting_rule_accepts_spoofed_ack_pinned_negative() {
        assert_eq!(
            sender_control_action_trusting(false),
            SenderControlAction::Complete
        );
        // The hardened rule maps the identical (forged) input to Ignore.
        assert_eq!(
            sender_control_action(ControlSignature {
                nack: false,
                tag_valid: false,
                src_valid: true,
            }),
            SenderControlAction::Ignore
        );
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let arq = ArqConfig::default_policy();
        let mut prev = 0;
        for a in 1..=arq.max_retries {
            if let SenderTimeoutAction::Retransmit { backoff, .. } =
                sender_timeout_action(&arq, a - 1, false)
            {
                assert!(backoff >= prev, "backoff must be monotone");
                assert!(backoff <= arq.timeout_after(arq.backoff_cap + 1));
                prev = backoff;
            }
        }
    }
}
