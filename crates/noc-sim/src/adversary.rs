//! The runtime attacker: a compromised router acting *past* the checkers.
//!
//! NoCAlert's bank observes every router's wire values during the router
//! phase of [`crate::network::Network::step_observed`]; the link phase
//! (2b) that moves staged flits to the neighbours runs *after* that
//! observation. An [`Adversary`] interposes exactly there, on the output
//! links of one compromised router: everything it drops, corrupts,
//! redirects or fabricates is invisible to the invariance checkers at the
//! point of action (the router's pipeline behaved; the wires checked
//! clean), which is what makes these attack models interesting — only
//! *side effects elsewhere* (leaked credits, wrong-destination ejects,
//! unacknowledged messages, forged control packets failing
//! authentication) can betray it.
//!
//! Determinism: all victim selection is a deterministic function of the
//! spec (`every`-periodic counters) and the attacker's private
//! [`SmallRng`] seeded from [`AttackSpec::seed`]. No host state, no
//! wall-clock, no thread identity — an attack campaign's cells replay
//! bit-identically at any worker count.
//!
//! Actions that need cooperation outside the link layer (fabricating
//! control packets, raising fake alerts) are emitted as [`AttackIntent`]s
//! and drained by the attack harness, which performs them through the
//! public `Network`/`Transport` APIs — the adversary itself never holds
//! the NIC-pair authentication secret.

use noc_types::{AttackKind, AttackSpec, Cycle, Direction, NodeId, PacketId};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

use crate::router::LinkFlit;

/// How many traversing packet identities the attacker remembers for
/// replay. Small and bounded: a hardware attacker has a capture buffer,
/// not a trace archive.
const CAPTURE_RING: usize = 8;

/// Aggregate interference counters of one attacker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackStats {
    /// Whole packets silently swallowed (all flits).
    pub packets_dropped: u64,
    /// Individual flits dropped by the flit-tearing model.
    pub flits_dropped: u64,
    /// Flits whose corrupted bit was set after checking.
    pub flits_corrupted: u64,
    /// Packets redirected to a wrong-but-legal destination.
    pub packets_misrouted: u64,
    /// Forged-acknowledgement intents emitted.
    pub controls_forged: u64,
    /// Replay intents emitted.
    pub controls_replayed: u64,
    /// Fabricated alert intents emitted.
    pub alerts_flooded: u64,
}

impl AttackStats {
    /// Total interference events: when 0, the attacker never acted and
    /// the campaign cell is vacuous (the oracle must not claim a
    /// mitigation that was never exercised).
    pub fn interference(&self) -> u64 {
        self.packets_dropped
            + self.flits_dropped
            + self.flits_corrupted
            + self.packets_misrouted
            + self.controls_forged
            + self.controls_replayed
            + self.alerts_flooded
    }
}

/// An action the attacker wants performed outside the link layer. Drained
/// by the attack harness via `Network::drain_attack_intents` and executed
/// through public APIs, so fabricated traffic is physically injected at
/// the attacker's node (its flit sources honestly say where it came from
/// — in-model, wire sources cannot be forged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackIntent {
    /// Forge an ACK for a swallowed data packet towards its sender,
    /// claiming to be the receiver. `tag` is the attacker's guess at the
    /// keyed authentication tag (drawn from its private RNG — it does not
    /// hold the NIC-pair secret).
    ForgeAck {
        /// The swallowed data packet (on-wire id).
        victim: PacketId,
        /// The data sender being deceived.
        sender: u16,
        /// The claimed control origin (the data packet's destination).
        claimed_src: u16,
        /// Message class of the victim (controls reuse it).
        class: u8,
        /// Guessed authentication tag.
        tag: u64,
    },
    /// Re-emit a bit-faithful copy of a previously captured packet — for
    /// captured control packets this is a replay carrying the *genuine*
    /// tag.
    Replay {
        /// The captured packet's on-wire id.
        captured: PacketId,
    },
    /// Fabricate one alert against the attacker's own input VC
    /// `(port, vc)` — the containment-plane flooding attack.
    RaiseAlert {
        /// Targeted input port.
        port: u8,
        /// Targeted VC.
        vc: u8,
    },
}

/// Per-packet verdict the attacker reached at the head flit, applied to
/// the rest of the worm so a selected packet is manipulated as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WormPlan {
    Swallow,
    Redirect(NodeId),
}

/// The compromised-router state machine. Owned by the [`Network`] it is
/// armed on and consulted once per flit leaving the compromised router.
///
/// [`Network`]: crate::network::Network
#[derive(Debug, Clone)]
pub struct Adversary {
    spec: AttackSpec,
    rng: SmallRng,
    /// Periodic-selection counter (candidates seen).
    counter: u64,
    /// Verdicts for worms currently traversing (head seen, tail not yet).
    plans: BTreeMap<u64, WormPlan>,
    /// Ring of recently captured packet ids (replay candidates).
    captured: Vec<PacketId>,
    /// Next ring slot to overwrite.
    capture_at: usize,
    /// Packets fabricated *on the attacker's behalf* (forged controls,
    /// replays) currently leaving through its own egress links. Exempt
    /// from every manipulation rule: an attacker does not eat, corrupt or
    /// re-capture its own forgeries — without this, `every: 1` spoofing
    /// models swallow their forged controls before any NIC can reject
    /// them, and full-rate replay self-amplifies on its own copies.
    own: BTreeSet<u64>,
    intents: Vec<AttackIntent>,
    stats: AttackStats,
    vcs_per_port: u8,
}

impl Adversary {
    /// Builds the attacker for `spec`. `vcs_per_port` bounds the VC index
    /// of fabricated alerts.
    pub fn new(spec: AttackSpec, vcs_per_port: u8) -> Adversary {
        Adversary {
            spec,
            rng: SmallRng::seed_from_u64(spec.seed),
            counter: 0,
            plans: BTreeMap::new(),
            captured: Vec::new(),
            capture_at: 0,
            own: BTreeSet::new(),
            intents: Vec::new(),
            stats: AttackStats::default(),
            vcs_per_port: vcs_per_port.max(1),
        }
    }

    /// Interference counters so far.
    pub fn stats(&self) -> AttackStats {
        self.stats
    }

    /// True when the attacker manipulates router `router`'s links at
    /// `cycle`.
    #[inline]
    pub fn armed_at(&self, router: u16, cycle: Cycle) -> bool {
        self.spec.router == router && cycle >= self.spec.start
    }

    /// Queued out-of-band actions (drained by the harness).
    pub fn take_intents(&mut self) -> Vec<AttackIntent> {
        std::mem::take(&mut self.intents)
    }

    /// Marks `pid` as fabricated on this attacker's behalf (a forged
    /// control or replay the harness just injected at its node), so the
    /// egress filter lets it leave untouched. Entries clear when the
    /// worm's tail passes the link.
    pub fn mark_own(&mut self, pid: PacketId) {
        self.own.insert(pid.0);
    }

    /// Periodic victim selection: returns true on every `every`-th
    /// candidate.
    #[inline]
    fn select(&mut self, every: u32) -> bool {
        self.counter += 1;
        self.counter.is_multiple_of(every.max(1) as u64)
    }

    fn capture(&mut self, pid: PacketId) {
        if self.captured.len() < CAPTURE_RING {
            self.captured.push(pid);
        } else {
            self.captured[self.capture_at] = pid;
            self.capture_at = (self.capture_at + 1) % CAPTURE_RING;
        }
    }

    /// Per-cycle hook (called once per cycle while armed): the
    /// alert-flooding model fabricates its alerts here, traffic or not.
    pub fn on_cycle(&mut self, cycle: Cycle) {
        if cycle < self.spec.start {
            return;
        }
        if let AttackKind::AlertFlood { per_cycle } = self.spec.kind {
            for _ in 0..per_cycle {
                // Non-local input ports only: Local-input alerts would
                // accuse the attacker's own NI, which containment maps to
                // nothing useful.
                let port = (self.rng.next_u32() % 4) as u8;
                let vc = (self.rng.next_u32() % self.vcs_per_port as u32) as u8;
                self.intents.push(AttackIntent::RaiseAlert { port, vc });
                self.stats.alerts_flooded += 1;
            }
        }
    }

    /// Link-phase interposition: a flit is leaving the compromised router
    /// towards `next` (`None` for the local ejection path). Returns the
    /// flit to actually put on the wire, or `None` to swallow it.
    pub fn on_link_flit(
        &mut self,
        _dir: Direction,
        next: Option<NodeId>,
        mut lf: LinkFlit,
    ) -> Option<LinkFlit> {
        let pid = lf.flit.packet.0;
        let is_head = lf.flit.is_head();
        let is_tail = lf.flit.kind.is_tail();
        // The attacker's own fabrications pass the egress filter untouched:
        // no capture, no periodic-counter advance, no plan. This is what
        // lets the `every: 1` spoofing models actually deliver their
        // forgeries instead of eating them on the way out.
        if self.own.contains(&pid) {
            if is_tail {
                self.own.remove(&pid);
            }
            return Some(lf);
        }
        if is_head {
            self.capture(lf.flit.packet);
        }
        // Resolve (or decide) this worm's plan.
        let plan = match self.plans.get(&pid).copied() {
            Some(p) => Some(p),
            None if is_head => {
                let p = self.decide(next, &lf);
                if let Some(p) = p {
                    if !is_tail {
                        self.plans.insert(pid, p);
                    }
                    match p {
                        WormPlan::Swallow => match self.spec.kind {
                            AttackKind::AckSpoof { .. } => {}
                            _ => self.stats.packets_dropped += 1,
                        },
                        WormPlan::Redirect(_) => self.stats.packets_misrouted += 1,
                    }
                }
                p
            }
            None => None,
        };
        if is_tail {
            self.plans.remove(&pid);
        }
        if let Some(plan) = plan {
            return match plan {
                WormPlan::Swallow => None,
                WormPlan::Redirect(fake) => {
                    lf.flit.dest = fake;
                    Some(lf)
                }
            };
        }
        // Per-flit models (no worm-level plan).
        let kind = self.spec.kind;
        match kind {
            AttackKind::FlitDrop { every } if self.select(every) => {
                self.stats.flits_dropped += 1;
                return None;
            }
            AttackKind::PayloadCorrupt { every } if self.select(every) => {
                lf.flit.corrupted = true;
                self.stats.flits_corrupted += 1;
            }
            AttackKind::CtlReplay { every }
                if is_head && self.select(every) && !self.captured.is_empty() =>
            {
                let i = self.rng.next_u32() as usize % self.captured.len();
                self.intents.push(AttackIntent::Replay {
                    captured: self.captured[i],
                });
                self.stats.controls_replayed += 1;
            }
            _ => {}
        }
        Some(lf)
    }

    /// Head-flit decision for the worm-level models. `None` means this
    /// worm passes untouched.
    fn decide(&mut self, next: Option<NodeId>, lf: &LinkFlit) -> Option<WormPlan> {
        match self.spec.kind {
            AttackKind::PacketDrop { every } => self.select(every).then_some(WormPlan::Swallow),
            AttackKind::Misroute { every } => {
                // Redirect to the very node the flit is being handed to:
                // the downstream router sees a packet legitimately
                // addressed to itself and ejects it — every hop is
                // locally legal, no turn checker can object, and the worm
                // quietly lands at the wrong NI. Locally-ejecting flits
                // (next == None) are already at their last hop and are
                // left alone.
                match next {
                    Some(nb) if nb != lf.flit.dest && self.select(every) => {
                        Some(WormPlan::Redirect(nb))
                    }
                    _ => None,
                }
            }
            AttackKind::AckSpoof { every } => {
                if self.select(every) {
                    // Swallow the worm and try to close the sender's ARQ
                    // window with a forged ACK. The tag is a guess: the
                    // attacker never holds the NIC-pair secret.
                    let tag = self.rng.next_u64();
                    self.intents.push(AttackIntent::ForgeAck {
                        victim: lf.flit.packet,
                        sender: lf.flit.src.0,
                        claimed_src: lf.flit.dest.0,
                        class: lf.flit.class,
                        tag,
                    });
                    self.stats.controls_forged += 1;
                    self.stats.packets_dropped += 1;
                    Some(WormPlan::Swallow)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::flit::{make_packet, FlitKind};

    fn spec(kind: AttackKind) -> AttackSpec {
        AttackSpec {
            router: 5,
            kind,
            start: 0,
            seed: 42,
        }
    }

    fn worm(pid: u64, len: u16) -> Vec<LinkFlit> {
        make_packet(
            PacketId(pid),
            pid * 100 + 1,
            NodeId(0),
            NodeId(9),
            0,
            len,
            0,
        )
        .into_iter()
        .map(|flit| LinkFlit { flit, vc: 0 })
        .collect()
    }

    #[test]
    fn packet_drop_swallows_whole_worms_periodically() {
        let mut adv = Adversary::new(spec(AttackKind::PacketDrop { every: 2 }), 2);
        let mut dropped = 0;
        for pid in 0..10u64 {
            for lf in worm(pid, 5) {
                if adv
                    .on_link_flit(Direction::East, Some(NodeId(6)), lf)
                    .is_none()
                {
                    dropped += 1;
                }
            }
        }
        // Every 2nd worm vanishes entirely: 5 worms x 5 flits.
        assert_eq!(dropped, 25);
        assert_eq!(adv.stats().packets_dropped, 5);
        assert!(adv.plans.is_empty(), "plans must clear at tails");
    }

    #[test]
    fn misroute_redirects_every_flit_of_the_worm_to_the_next_hop() {
        let mut adv = Adversary::new(spec(AttackKind::Misroute { every: 1 }), 2);
        for lf in worm(3, 4) {
            let out = adv
                .on_link_flit(Direction::East, Some(NodeId(6)), lf)
                .expect("misroute never drops");
            assert_eq!(out.flit.dest, NodeId(6));
        }
        assert_eq!(adv.stats().packets_misrouted, 1);
        // Locally-ejecting flits are left alone (already at the last hop).
        let mut adv = Adversary::new(spec(AttackKind::Misroute { every: 1 }), 2);
        for lf in worm(4, 2) {
            let out = adv.on_link_flit(Direction::Local, None, lf).expect("kept");
            assert_eq!(out.flit.dest, NodeId(9));
        }
        assert_eq!(adv.stats().packets_misrouted, 0);
    }

    #[test]
    fn ack_spoof_swallows_and_emits_forge_intent() {
        let mut adv = Adversary::new(spec(AttackKind::AckSpoof { every: 1 }), 2);
        for lf in worm(7, 3) {
            assert!(adv
                .on_link_flit(Direction::East, Some(NodeId(6)), lf)
                .is_none());
        }
        let intents = adv.take_intents();
        assert_eq!(intents.len(), 1);
        match intents[0] {
            AttackIntent::ForgeAck {
                victim,
                sender,
                claimed_src,
                ..
            } => {
                assert_eq!(victim, PacketId(7));
                assert_eq!(sender, 0);
                assert_eq!(claimed_src, 9);
            }
            other => panic!("expected ForgeAck, got {other:?}"),
        }
        assert!(adv.take_intents().is_empty(), "drain is destructive");
    }

    #[test]
    fn own_forgeries_pass_the_egress_filter_untouched() {
        // The full-rate spoofing attacker must not swallow the forged
        // controls injected on its own behalf — nor advance its periodic
        // counter or capture ring on them.
        let mut adv = Adversary::new(spec(AttackKind::AckSpoof { every: 1 }), 2);
        adv.mark_own(PacketId(100));
        for lf in worm(100, 3) {
            let out = adv
                .on_link_flit(Direction::East, Some(NodeId(6)), lf)
                .expect("own forgery must leave the router");
            assert!(!out.flit.corrupted);
        }
        assert_eq!(adv.stats().packets_dropped, 0);
        assert_eq!(adv.stats().controls_forged, 0);
        assert!(adv.captured.is_empty(), "own packets are never captured");
        assert!(adv.own.is_empty(), "own marks clear at the tail");
        // The very next victim is still the counter's first candidate.
        for lf in worm(101, 3) {
            assert!(adv
                .on_link_flit(Direction::East, Some(NodeId(6)), lf)
                .is_none());
        }
        assert_eq!(adv.stats().controls_forged, 1);
    }

    #[test]
    fn replay_never_amplifies_on_its_own_copies() {
        // A full-rate replay attacker sees its own replayed copies leave
        // through the same links; without the egress exemption each copy
        // would be re-captured and re-replayed, amplifying forever.
        let mut adv = Adversary::new(spec(AttackKind::CtlReplay { every: 1 }), 2);
        for lf in worm(1, 1) {
            adv.on_link_flit(Direction::East, Some(NodeId(6)), lf);
        }
        for lf in worm(2, 1) {
            adv.on_link_flit(Direction::East, Some(NodeId(6)), lf);
        }
        let before = adv.stats().controls_replayed;
        adv.mark_own(PacketId(50));
        for lf in worm(50, 1) {
            adv.on_link_flit(Direction::East, Some(NodeId(6)), lf);
        }
        assert_eq!(adv.stats().controls_replayed, before);
        assert!(!adv.captured.contains(&PacketId(50)));
    }

    #[test]
    fn payload_corrupt_sets_the_bit_after_checking() {
        let mut adv = Adversary::new(spec(AttackKind::PayloadCorrupt { every: 3 }), 2);
        let mut corrupted = 0;
        for pid in 0..4u64 {
            for lf in worm(pid, 3) {
                let out = adv
                    .on_link_flit(Direction::North, Some(NodeId(1)), lf)
                    .expect("corruption never drops");
                if out.flit.corrupted {
                    corrupted += 1;
                }
            }
        }
        assert_eq!(corrupted, 4, "every 3rd of 12 flits");
        assert_eq!(adv.stats().flits_corrupted, 4);
    }

    #[test]
    fn replay_targets_come_from_the_bounded_capture_ring() {
        let mut adv = Adversary::new(spec(AttackKind::CtlReplay { every: 1 }), 2);
        for pid in 0..40u64 {
            for lf in worm(pid, 1) {
                assert_eq!(lf.flit.kind, FlitKind::HeadTail);
                adv.on_link_flit(Direction::East, Some(NodeId(6)), lf);
            }
        }
        assert!(adv.captured.len() <= CAPTURE_RING);
        let intents = adv.take_intents();
        // First head has nothing captured yet to replay; all later do.
        assert_eq!(intents.len() as u64, adv.stats().controls_replayed);
        assert!(intents.len() >= 38);
    }

    #[test]
    fn flood_generates_alert_intents_every_cycle() {
        let mut adv = Adversary::new(spec(AttackKind::AlertFlood { per_cycle: 3 }), 2);
        adv.on_cycle(0);
        adv.on_cycle(1);
        let intents = adv.take_intents();
        assert_eq!(intents.len(), 6);
        for i in intents {
            match i {
                AttackIntent::RaiseAlert { port, vc } => {
                    assert!(port < 4);
                    assert!(vc < 2);
                }
                other => panic!("expected RaiseAlert, got {other:?}"),
            }
        }
    }

    #[test]
    fn attacker_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut adv = Adversary::new(
                AttackSpec {
                    seed,
                    ..spec(AttackKind::AckSpoof { every: 2 })
                },
                2,
            );
            for pid in 0..12u64 {
                for lf in worm(pid, 3) {
                    adv.on_link_flit(Direction::East, Some(NodeId(6)), lf);
                }
            }
            (adv.take_intents(), adv.stats())
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).0, run(2).0, "different seeds forge different tags");
    }
}
