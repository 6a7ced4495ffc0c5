//! Network interfaces: packet sources (injection) and sinks (ejection).
//!
//! The NI plays the upstream-router role for its router's **local input
//! port** (it allocates local input VCs and respects their credits) and the
//! downstream-router role for the **local output port** (it buffers ejected
//! flits per VC, drains them at `ejection_rate`, and returns credits).
//!
//! Traffic generation draws from a per-node deterministic RNG **every
//! cycle, regardless of backpressure**, so the generated stream is
//! identical between a golden and a faulty run (see `traffic`).

use crate::router::{CreditMsg, LinkFlit};
use noc_types::config::{BufferPolicy, NocConfig};
use noc_types::flit::{make_packet, Flit, PacketId};
use noc_types::geometry::NodeId;
use noc_types::record::EjectEvent;
use noc_types::Cycle;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use std::collections::VecDeque;

/// One node's network interface.
#[derive(Debug)]
pub struct Nic {
    node: NodeId,
    rng: SmallRng,
    class_rr: u8,
    /// Flits generated but not yet injected, in packet order.
    source: VecDeque<Flit>,
    /// Local-input VC of the worm currently being injected.
    alloc: Option<u8>,
    /// NI-side bookkeeping of the router's local input VCs.
    ni_free: Vec<bool>,
    ni_credits: Vec<u8>,
    /// Local input VCs quarantined by the recovery controller; never
    /// allocated for injection again.
    ni_disabled: Vec<bool>,
    /// Per-VC ejection buffers (filled by the router's local output port).
    eject: Vec<VecDeque<Flit>>,
    eject_next: u8,
    /// Generation gate set by the fault-region map: a node absorbed into
    /// a region stops offering traffic (its router is out of service).
    /// The RNG keeps advancing, so the stream suffix stays aligned.
    gen_enabled: bool,
    /// Destinations currently unreachable from this node per the
    /// fault-region map (absorbed or partitioned off); a drawn packet to
    /// one is skipped instead of offered, again without touching the RNG
    /// stream. Empty while the map is disengaged.
    blocked_dests: Vec<bool>,
    /// Flits handed to the router so far.
    pub injected: u64,
    /// Flits delivered to this NI so far.
    pub ejected: u64,
}

// Manual impl so `clone_from` (the arena reset path) reuses the source and
// ejection queues plus the per-VC bookkeeping vectors.
impl Clone for Nic {
    fn clone(&self) -> Nic {
        Nic {
            node: self.node,
            rng: self.rng.clone(),
            class_rr: self.class_rr,
            source: self.source.clone(),
            alloc: self.alloc,
            ni_free: self.ni_free.clone(),
            ni_credits: self.ni_credits.clone(),
            ni_disabled: self.ni_disabled.clone(),
            eject: self.eject.clone(),
            eject_next: self.eject_next,
            gen_enabled: self.gen_enabled,
            blocked_dests: self.blocked_dests.clone(),
            injected: self.injected,
            ejected: self.ejected,
        }
    }

    fn clone_from(&mut self, src: &Nic) {
        self.node = src.node;
        self.rng = src.rng.clone();
        self.class_rr = src.class_rr;
        self.source.clone_from(&src.source);
        self.alloc = src.alloc;
        self.ni_free.clone_from(&src.ni_free);
        self.ni_credits.clone_from(&src.ni_credits);
        self.ni_disabled.clone_from(&src.ni_disabled);
        self.eject.clone_from(&src.eject);
        self.eject_next = src.eject_next;
        self.gen_enabled = src.gen_enabled;
        self.blocked_dests.clone_from(&src.blocked_dests);
        self.injected = src.injected;
        self.ejected = src.ejected;
    }
}

impl Nic {
    /// Creates the NI for `node`, deriving its RNG stream from the global
    /// seed.
    pub fn new(cfg: &NocConfig, node: NodeId) -> Nic {
        let v = cfg.vcs_per_port as usize;
        Nic {
            node,
            rng: SmallRng::seed_from_u64(
                cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node.0 as u64 + 1)),
            ),
            class_rr: 0,
            source: VecDeque::new(),
            alloc: None,
            ni_free: vec![true; v],
            ni_credits: vec![cfg.buffer_depth; v],
            ni_disabled: vec![false; v],
            eject: vec![VecDeque::new(); v],
            eject_next: 0,
            gen_enabled: true,
            blocked_dests: Vec::new(),
            injected: 0,
            ejected: 0,
        }
    }

    /// Fault-region gating: disables/enables generation wholesale and
    /// replaces the blocked-destination filter (see the field docs). The
    /// network resyncs this after every region-map rebuild.
    pub(crate) fn set_region_gate(&mut self, enabled: bool, blocked: impl Iterator<Item = bool>) {
        self.gen_enabled = enabled;
        self.blocked_dests.clear();
        self.blocked_dests.extend(blocked);
    }

    /// The node this NI serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Structural equality, ignoring the RNG and the `injected`/`ejected`
    /// odometers.
    ///
    /// The RNG stream advances unconditionally every cycle (the Bernoulli
    /// draw in [`Nic::generate`] fires regardless of gating, and the
    /// destination draw depends only on the stream itself), so two NICs
    /// that have stepped the same number of cycles from the same seed hold
    /// identical RNG states by construction. The odometers are only ever
    /// added to and nothing steps on them. Comparing the remaining fields
    /// decides whether their observable futures coincide.
    pub fn state_eq(&self, other: &Nic) -> bool {
        self.node == other.node
            && self.class_rr == other.class_rr
            && self.source == other.source
            && self.alloc == other.alloc
            && self.ni_free == other.ni_free
            && self.ni_credits == other.ni_credits
            && self.ni_disabled == other.ni_disabled
            && self.eject == other.eject
            && self.eject_next == other.eject_next
            && self.gen_enabled == other.gen_enabled
            && self.blocked_dests == other.blocked_dests
    }

    /// True when this NI holds no pending work at all: nothing queued for
    /// injection, no worm mid-injection, no flits awaiting ejection, and
    /// all local-input VCs returned to their idle credit level. A
    /// quiescent NI performs no externally visible action when stepped
    /// with injection disabled (only its RNG advances).
    pub fn is_quiescent(&self, cfg: &NocConfig) -> bool {
        self.source.is_empty()
            && self.alloc.is_none()
            && self.eject.iter().all(VecDeque::is_empty)
            && self
                .ni_free
                .iter()
                .zip(self.ni_disabled.iter())
                .all(|(&f, &d)| f || d)
            && self
                .ni_credits
                .iter()
                .zip(self.ni_disabled.iter())
                .all(|(&c, &d)| d || c == cfg.buffer_depth)
    }

    /// Flits waiting in the source queue.
    pub fn source_backlog(&self) -> usize {
        self.source.len()
    }

    /// Flits waiting in ejection buffers.
    pub fn eject_backlog(&self) -> usize {
        self.eject.iter().map(VecDeque::len).sum()
    }

    /// Draws this cycle's traffic. When the Bernoulli draw fires and
    /// generation is enabled, a new packet is appended to the source queue.
    ///
    /// The RNG is advanced even when `enabled` is false so that enabling or
    /// disabling generation never desynchronizes the stream suffix.
    pub fn generate(
        &mut self,
        cfg: &NocConfig,
        cycle: Cycle,
        next_packet: &mut u64,
        next_uid: &mut u64,
        enabled: bool,
    ) {
        let mean_len = cfg.packet_lengths.iter().map(|&l| l as f64).sum::<f64>()
            / cfg.packet_lengths.len() as f64;
        let p = (cfg.injection_rate / mean_len).min(1.0);
        let fire = self.rng.gen::<f64>() < p;
        if !fire {
            return;
        }
        let class = self.class_rr % cfg.message_classes;
        self.class_rr = self.class_rr.wrapping_add(1);
        let dest = crate::traffic::pick_destination(
            cfg.traffic,
            cfg.mesh,
            self.node,
            cfg.hotspot_fraction,
            &mut self.rng,
        );
        if !enabled || !self.gen_enabled {
            return;
        }
        let Some(dest) = dest else { return };
        if self
            .blocked_dests
            .get(dest.index())
            .copied()
            .unwrap_or(false)
        {
            return;
        }
        let len = cfg.packet_len(class);
        let pkt = PacketId(*next_packet);
        *next_packet += 1;
        let flits = make_packet(pkt, *next_uid, self.node, dest, class, len, cycle);
        *next_uid += len as u64;
        self.source.extend(flits);
    }

    /// Tries to hand one flit to the router's local input port this cycle.
    pub fn inject(&mut self, cfg: &NocConfig) -> Option<LinkFlit> {
        let vc = match self.alloc {
            Some(vc) => vc,
            None => {
                let head = self.source.front()?;
                // Under correct operation the queue front between worms is a
                // header; pick the lowest free VC of its class.
                let (lo, hi) = cfg.vc_range_of_class(head.class.min(cfg.message_classes - 1));
                let vc = (lo..hi)
                    .find(|&v| self.ni_free[v as usize] && !self.ni_disabled[v as usize])?;
                self.ni_free[vc as usize] = false;
                self.alloc = Some(vc);
                vc
            }
        };
        if self.ni_credits[vc as usize] == 0 {
            return None;
        }
        let flit = self.source.pop_front()?;
        self.ni_credits[vc as usize] -= 1;
        if flit.is_tail() {
            self.alloc = None;
            if cfg.buffer_policy == BufferPolicy::NonAtomic {
                self.ni_free[vc as usize] = true;
            }
        }
        self.injected += 1;
        Some(LinkFlit { flit, vc })
    }

    /// Applies a credit returned by the router's local input port.
    pub fn credit_return(&mut self, cfg: &NocConfig, vc: u8, tail: bool) {
        if let Some(c) = self.ni_credits.get_mut(vc as usize) {
            *c = (*c + 1).min(cfg.buffer_depth);
        }
        if tail && cfg.buffer_policy == BufferPolicy::Atomic {
            if let Some(f) = self.ni_free.get_mut(vc as usize) {
                *f = !self.ni_disabled[vc as usize];
            }
        }
    }

    /// Appends a ready-made packet (every flit, head to tail) to the source
    /// queue. The end-to-end transport uses this for acknowledgements and
    /// retransmissions; ordinary traffic keeps flowing through
    /// [`Nic::generate`] so the seeded stream is untouched.
    pub fn enqueue(&mut self, flits: Vec<Flit>) {
        self.source.extend(flits);
    }

    /// Recovery-controller teardown of this NI's sender side for local
    /// input VC `vc`: aborts the worm currently being injected on it (the
    /// rest of that packet is dropped from the source front) and restores
    /// the NI-side credit/allocation bookkeeping to reset values. Returns
    /// how many queued flits were dropped.
    pub fn abort_worm(&mut self, cfg: &NocConfig, vc: u8) -> usize {
        let v = vc as usize;
        if v >= self.ni_free.len() {
            return 0;
        }
        let mut dropped = 0;
        if self.alloc == Some(vc) {
            // The in-flight packet's head is already gone; its remaining
            // flits sit at the queue front up to (not including) the next
            // packet's header.
            while self.source.front().is_some_and(|f| f.seq != 0) {
                self.source.pop_front();
                dropped += 1;
            }
            self.alloc = None;
        }
        self.ni_credits[v] = cfg.buffer_depth;
        self.ni_free[v] = !self.ni_disabled[v];
        dropped
    }

    /// Quarantines local input VC `vc`: no future worm is injected on it.
    pub fn disable_vc(&mut self, vc: u8) {
        if let Some(d) = self.ni_disabled.get_mut(vc as usize) {
            *d = true;
            self.ni_free[vc as usize] = false;
        }
    }

    /// Accepts a flit from the router's local output port. Raw VC values
    /// beyond the physical range select no buffer: the flit vanishes, as it
    /// would at a demux with an illegal select.
    pub fn eject_push(&mut self, vc: u8, flit: Flit) {
        if let Some(q) = self.eject.get_mut(vc as usize) {
            q.push_back(flit);
        }
    }

    /// Drains up to `ejection_rate` flits round-robin across the ejection
    /// VCs, appending the ejected flits and the credits to hand back to
    /// the router's local *output* port onto the caller's (reused)
    /// buffers.
    pub fn eject_step(
        &mut self,
        cfg: &NocConfig,
        cycle: Cycle,
        events: &mut Vec<EjectEvent>,
        credits: &mut Vec<CreditMsg>,
    ) {
        let v = cfg.vcs_per_port;
        for _ in 0..cfg.ejection_rate {
            // Round-robin scan for a non-empty ejection VC.
            let mut found = None;
            for off in 0..v {
                let idx = (self.eject_next + off) % v;
                if !self.eject[idx as usize].is_empty() {
                    found = Some(idx);
                    break;
                }
            }
            let Some(idx) = found else { break };
            self.eject_next = (idx + 1) % v;
            let flit = self.eject[idx as usize]
                .pop_front()
                .expect("round-robin scan selected a non-empty eject VC");
            self.ejected += 1;
            credits.push(CreditMsg {
                port: noc_types::geometry::Direction::Local.index() as u8,
                vc: idx,
                tail: flit.is_tail(),
            });
            events.push(EjectEvent {
                node: self.node,
                cycle,
                flit,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::small_test()
    }

    #[test]
    fn generation_is_deterministic_and_respects_enable() {
        let cfg = cfg();
        let mut a = Nic::new(&cfg, NodeId(3));
        let mut b = Nic::new(&cfg, NodeId(3));
        let (mut pa, mut ua, mut pb, mut ub) = (0, 0, 0, 0);
        for cy in 0..500 {
            a.generate(&cfg, cy, &mut pa, &mut ua, true);
            b.generate(&cfg, cy, &mut pb, &mut ub, true);
        }
        assert_eq!(a.source_backlog(), b.source_backlog());
        assert!(a.source_backlog() > 0, "some packets generated");
        let qa: Vec<_> = a.source.iter().map(|f| (f.uid, f.dest)).collect();
        let qb: Vec<_> = b.source.iter().map(|f| (f.uid, f.dest)).collect();
        assert_eq!(qa, qb);
    }

    #[test]
    fn disabled_generation_keeps_rng_in_sync() {
        let cfg = cfg();
        let mut a = Nic::new(&cfg, NodeId(3));
        let mut b = Nic::new(&cfg, NodeId(3));
        let (mut pa, mut ua, mut pb, mut ub) = (0, 0, 0, 0);
        for cy in 0..100 {
            a.generate(&cfg, cy, &mut pa, &mut ua, true);
            b.generate(&cfg, cy, &mut pb, &mut ub, cy >= 50);
        }
        // After cycle 50 both draw identically; b simply missed earlier
        // packets. Compare future draws by running both enabled.
        let before_a = a.source_backlog();
        let before_b = b.source_backlog();
        for cy in 100..300 {
            a.generate(&cfg, cy, &mut pa, &mut ua, true);
            b.generate(&cfg, cy, &mut pb, &mut ub, true);
        }
        assert_eq!(
            a.source_backlog() - before_a,
            b.source_backlog() - before_b,
            "suffix streams identical"
        );
    }

    #[test]
    fn injection_respects_credits_and_wormhole() {
        let cfg = cfg();
        let mut nic = Nic::new(&cfg, NodeId(0));
        let (mut p, mut u) = (0, 0);
        // Force one packet.
        let mut tries = 0;
        while nic.source_backlog() == 0 {
            nic.generate(&cfg, tries, &mut p, &mut u, true);
            tries += 1;
            assert!(tries < 100_000, "generation never fired");
        }
        let len = nic.source_backlog().min(cfg.buffer_depth as usize);
        let mut sent = Vec::new();
        for _ in 0..len {
            let lf = nic.inject(&cfg).expect("credit available");
            sent.push(lf);
        }
        // All flits of one packet go to the same VC, depth-limited.
        assert!(sent.len() <= cfg.buffer_depth as usize);
        assert!(sent.windows(2).all(|w| w[0].vc == w[1].vc));
        assert_eq!(sent[0].flit.seq, 0);
        // Credits exhausted after depth sends (packet len == depth == 5).
        assert!(nic.inject(&cfg).is_none());
        // Returning credits allows more.
        nic.credit_return(&cfg, sent[0].vc, false);
        assert_eq!(nic.ni_credits[sent[0].vc as usize], 1);
    }

    #[test]
    fn atomic_vc_frees_only_on_tail_credit() {
        let cfg = cfg();
        let mut nic = Nic::new(&cfg, NodeId(0));
        let (mut p, mut u) = (0, 0);
        let mut cy = 0;
        while nic.source_backlog() == 0 {
            nic.generate(&cfg, cy, &mut p, &mut u, true);
            cy += 1;
        }
        let first = nic.inject(&cfg).unwrap();
        let vc = first.vc;
        assert!(!nic.ni_free[vc as usize]);
        // Non-tail credit: still allocated.
        nic.credit_return(&cfg, vc, false);
        assert!(!nic.ni_free[vc as usize]);
        nic.credit_return(&cfg, vc, true);
        assert!(nic.ni_free[vc as usize]);
    }

    #[test]
    fn ejection_round_robin_and_credits() {
        let cfg = cfg();
        let mut nic = Nic::new(&cfg, NodeId(1));
        let flits = make_packet(PacketId(9), 0, NodeId(0), NodeId(1), 0, 3, 0);
        nic.eject_push(0, flits[0]);
        nic.eject_push(1, flits[1]);
        nic.eject_push(0, flits[2]);
        // rate = 1: one flit per step, alternating VCs.
        let step = |nic: &mut Nic, cy: Cycle| {
            let mut events = Vec::new();
            let mut credits = Vec::new();
            nic.eject_step(&cfg, cy, &mut events, &mut credits);
            (events, credits)
        };
        let (e1, c1) = step(&mut nic, 10);
        assert_eq!(e1.len(), 1);
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].vc, 0);
        let (e2, c2) = step(&mut nic, 11);
        assert_eq!(c2[0].vc, 1);
        let (e3, _c3) = step(&mut nic, 12);
        assert_eq!(e3[0].flit.uid, flits[2].uid);
        assert_eq!(nic.ejected, 3);
        let (e4, c4) = step(&mut nic, 13);
        assert!(e4.is_empty() && c4.is_empty());
        let _ = (e1, e2);
    }

    #[test]
    fn enqueue_injects_like_generated_traffic() {
        let cfg = cfg();
        let mut nic = Nic::new(&cfg, NodeId(0));
        let flits = make_packet(PacketId(77), 500, NodeId(0), NodeId(3), 0, 5, 0);
        nic.enqueue(flits.clone());
        assert_eq!(nic.source_backlog(), 5);
        let lf = nic.inject(&cfg).expect("free VC with credits");
        assert_eq!(lf.flit.uid, flits[0].uid);
    }

    #[test]
    fn abort_worm_drops_packet_remainder_and_resets_bookkeeping() {
        let cfg = cfg();
        let mut nic = Nic::new(&cfg, NodeId(0));
        nic.enqueue(make_packet(PacketId(1), 0, NodeId(0), NodeId(3), 0, 5, 0));
        nic.enqueue(make_packet(PacketId(2), 100, NodeId(0), NodeId(3), 0, 5, 0));
        let first = nic.inject(&cfg).unwrap();
        let vc = first.vc;
        nic.inject(&cfg).unwrap();
        // Two flits of packet 1 are out; abort the worm.
        let dropped = nic.abort_worm(&cfg, vc);
        assert_eq!(dropped, 3, "rest of packet 1 destroyed");
        assert!(nic.ni_free[vc as usize]);
        assert_eq!(nic.ni_credits[vc as usize], cfg.buffer_depth);
        // Next injection starts cleanly at packet 2's header.
        let next = nic.inject(&cfg).unwrap();
        assert_eq!(next.flit.packet, PacketId(2));
        assert_eq!(next.flit.seq, 0);
    }

    #[test]
    fn disabled_local_vc_is_never_allocated() {
        let cfg = cfg();
        let mut nic = Nic::new(&cfg, NodeId(0));
        let (lo, hi) = cfg.vc_range_of_class(0);
        for v in lo..hi {
            nic.disable_vc(v);
        }
        nic.enqueue(make_packet(PacketId(1), 0, NodeId(0), NodeId(3), 0, 5, 0));
        assert!(nic.inject(&cfg).is_none(), "class fully quarantined");
        // Another class is unaffected.
        let (lo2, _) = cfg.vc_range_of_class(1);
        nic.enqueue(make_packet(PacketId(2), 100, NodeId(0), NodeId(3), 1, 5, 0));
        // Packet 1 blocks the queue front; abort nothing — queue order means
        // class-1 packet waits behind it. Drop packet 1 by hand.
        for _ in 0..5 {
            nic.source.pop_front();
        }
        let lf = nic.inject(&cfg).expect("other class still injectable");
        assert!(lf.vc >= lo2);
    }

    #[test]
    fn out_of_range_eject_vc_drops_flit() {
        let cfg = cfg();
        let mut nic = Nic::new(&cfg, NodeId(1));
        let flits = make_packet(PacketId(9), 0, NodeId(0), NodeId(1), 0, 1, 0);
        nic.eject_push(200, flits[0]);
        assert_eq!(nic.eject_backlog(), 0);
    }
}
