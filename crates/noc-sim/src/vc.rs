//! Per-VC pipeline state and per-output-port allocation bookkeeping.
//!
//! Each input VC owns a status table (Figure 2(b) of the paper): a 2-bit
//! pipeline state plus the latched RC result (output port) and VA result
//! (downstream VC). The state is stored **as raw bits** and every use goes
//! through the fault plane, so a flipped state register misbehaves in every
//! stage that reads it — the consistency checks of invariance 17 exist
//! precisely because of this failure mode.

use crate::buffer::VcBuffer;
use serde::{Deserialize, Serialize};

/// Raw state encodings of the 2-bit VC pipeline state register.
pub mod state {
    /// VC is free: no packet owns it.
    pub const IDLE: u64 = 0;
    /// A header is buffered and awaits Routing Computation.
    pub const ROUTING: u64 = 1;
    /// RC done ("VA done = 0" in Figure 2(b)); awaiting VC allocation.
    pub const VA_PENDING: u64 = 2;
    /// VA done; flits contend for the switch.
    pub const ACTIVE: u64 = 3;
}

/// One virtual channel of an input port.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct VirtualChannel {
    /// The flit FIFO.
    pub buffer: VcBuffer,
    /// Raw 2-bit pipeline state (see [`state`]).
    pub state: u64,
    /// Raw 3-bit latched RC output direction.
    pub out_port: u64,
    /// Raw latched downstream VC index.
    pub out_vc: u64,
    /// Flits of the current packet that have arrived (for invariance 28).
    pub arrived: u16,
    /// Whether the previously written flit was a tail (for invariance 27);
    /// starts `true` so the first flit into a fresh VC must be a header.
    pub prev_written_was_tail: bool,
}

// Manual impl so `clone_from` (the arena reset path) reuses the buffer's
// ring allocation.
impl Clone for VirtualChannel {
    fn clone(&self) -> VirtualChannel {
        VirtualChannel {
            buffer: self.buffer.clone(),
            state: self.state,
            out_port: self.out_port,
            out_vc: self.out_vc,
            arrived: self.arrived,
            prev_written_was_tail: self.prev_written_was_tail,
        }
    }

    fn clone_from(&mut self, src: &VirtualChannel) {
        self.buffer.clone_from(&src.buffer);
        self.state = src.state;
        self.out_port = src.out_port;
        self.out_vc = src.out_vc;
        self.arrived = src.arrived;
        self.prev_written_was_tail = src.prev_written_was_tail;
    }
}

impl VirtualChannel {
    /// A fresh, idle VC with a buffer of `depth` slots.
    pub fn new(depth: u8) -> VirtualChannel {
        VirtualChannel {
            buffer: VcBuffer::new(depth),
            state: state::IDLE,
            out_port: 0,
            out_vc: 0,
            arrived: 0,
            prev_written_was_tail: true,
        }
    }

    /// Resync equality (see `Network::state_eq`): the buffer's live
    /// flits, the state, the write-side bookkeeping, and each latch only
    /// in the states that read it: `out_port` from `VA_PENDING` on (VA1
    /// candidates, SA targets), `out_vc` only in `ACTIVE` (SA credit
    /// check, crossbar, speculative squash). Below those states RC and VA
    /// rewrite the latch before anything reads it. A speculative SA bid
    /// of a `VA_PENDING` VC loads `out_vc` too, but every use of it there
    /// gives way to the speculation: the bid's credit check and SA2
    /// credit wire are taken as satisfied, and the switch traversal is
    /// squashed unless the VC is `ACTIVE` by then, with `out_vc`
    /// rewritten by VA. RC does not rewrite `out_vc`, so comparing it in
    /// speculative `VA_PENDING` would also keep apart states that
    /// differed in a dead latch before RC.
    pub(crate) fn state_eq(&self, other: &VirtualChannel) -> bool {
        let VirtualChannel {
            buffer,
            state: st,
            out_port,
            out_vc,
            arrived,
            prev_written_was_tail,
        } = self;
        *st == other.state
            && *arrived == other.arrived
            && *prev_written_was_tail == other.prev_written_was_tail
            && buffer.state_eq(&other.buffer)
            && (*st < state::VA_PENDING || *out_port == other.out_port)
            && (*st != state::ACTIVE || *out_vc == other.out_vc)
    }

    /// Resets the table after the current packet's tail has left.
    ///
    /// Write-side bookkeeping (`arrived`, `prev_written_was_tail`) is *not*
    /// touched: with non-atomic buffers the next packet may already be
    /// arriving while this one drains.
    pub fn release(&mut self) {
        self.state = state::IDLE;
        self.out_port = 0;
        self.out_vc = 0;
    }

    /// Recovery-controller VC reset: destroys every buffered flit and
    /// returns the VC to its power-on condition (including the write-side
    /// bookkeeping, since the partial worm it tracked is being squashed).
    /// Returns how many flits were dropped.
    pub fn hard_reset(&mut self) -> usize {
        let dropped = self.buffer.clear();
        self.state = state::IDLE;
        self.out_port = 0;
        self.out_vc = 0;
        self.arrived = 0;
        self.prev_written_was_tail = true;
        dropped
    }
}

/// Downstream bookkeeping of one output port: which downstream VCs are
/// allocatable and how many buffer slots (credits) each has left.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct OutputPort {
    /// False for off-mesh (edge/corner) ports: no neighbour exists.
    pub live: bool,
    /// Per downstream VC: free for a new wormhole?
    pub free: Vec<bool>,
    /// Per downstream VC: remaining credits.
    pub credits: Vec<u8>,
    /// Per downstream VC: the local input `(port, vc)` currently holding
    /// the allocation (diagnostics; not a wire).
    pub owner: Vec<Option<(u8, u8)>>,
    /// Per downstream VC: quarantined by the recovery controller after a
    /// permanent-fault inference. A disabled VC is never free again.
    pub disabled: Vec<bool>,
}

// Manual impl so `clone_from` (the arena reset path) reuses the four
// per-VC bookkeeping vectors.
impl Clone for OutputPort {
    fn clone(&self) -> OutputPort {
        OutputPort {
            live: self.live,
            free: self.free.clone(),
            credits: self.credits.clone(),
            owner: self.owner.clone(),
            disabled: self.disabled.clone(),
        }
    }

    fn clone_from(&mut self, src: &OutputPort) {
        self.live = src.live;
        self.free.clone_from(&src.free);
        self.credits.clone_from(&src.credits);
        self.owner.clone_from(&src.owner);
        self.disabled.clone_from(&src.disabled);
    }
}

impl OutputPort {
    /// A live/dead output port toward a neighbour with `vcs` VCs of
    /// `depth`-flit buffers.
    pub fn new(live: bool, vcs: u8, depth: u8) -> OutputPort {
        OutputPort {
            live,
            free: vec![live; vcs as usize],
            credits: vec![if live { depth } else { 0 }; vcs as usize],
            owner: vec![None; vcs as usize],
            disabled: vec![false; vcs as usize],
        }
    }

    /// Resync equality (see `Network::state_eq`): everything but
    /// `owner`, which only containment reads.
    pub(crate) fn state_eq(&self, other: &OutputPort) -> bool {
        let OutputPort {
            live,
            free,
            credits,
            owner: _,
            disabled,
        } = self;
        *live == other.live
            && *free == other.free
            && *credits == other.credits
            && *disabled == other.disabled
    }

    /// Bitmask over downstream VCs that are free (allocatable).
    pub fn free_mask(&self) -> u64 {
        self.free
            .iter()
            .enumerate()
            .filter(|(_, f)| **f)
            .fold(0u64, |m, (i, _)| m | 1 << i)
    }

    /// Lowest free VC within `[lo, hi)` (a message-class partition).
    pub fn lowest_free_in(&self, lo: u8, hi: u8) -> Option<u8> {
        (lo..hi.min(self.free.len() as u8)).find(|&v| self.free[v as usize])
    }

    /// Marks `vc` allocated to `owner`. Out-of-range indices (which only a
    /// fault can produce) are ignored — the demux simply selects nothing.
    pub fn allocate(&mut self, vc: u64, owner: (u8, u8)) {
        if let Some(slot) = self.free.get_mut(vc as usize) {
            *slot = false;
            self.owner[vc as usize] = Some(owner);
        }
    }

    /// Releases `vc` for a new wormhole. A quarantined (disabled) VC stays
    /// unallocatable forever.
    pub fn release(&mut self, vc: u64) {
        if let Some(slot) = self.free.get_mut(vc as usize) {
            *slot = !self.disabled[vc as usize];
            self.owner[vc as usize] = None;
        }
    }

    /// Quarantines `vc`: drops any allocation and pins it un-free so no
    /// future wormhole can be assigned to it.
    pub fn disable(&mut self, vc: u8) {
        if let Some(slot) = self.disabled.get_mut(vc as usize) {
            *slot = true;
            self.free[vc as usize] = false;
            self.owner[vc as usize] = None;
        }
    }

    /// Restores `vc` to its reset condition (full credits, free unless
    /// disabled, no owner) — the downstream half of a VC chain reset.
    pub fn reset_vc(&mut self, vc: u8, depth: u8) {
        let v = vc as usize;
        if v >= self.free.len() {
            return;
        }
        self.owner[v] = None;
        self.credits[v] = if self.live { depth } else { 0 };
        self.free[v] = self.live && !self.disabled[v];
    }

    /// Consumes one credit of `vc` (saturating: a faulty double-send cannot
    /// underflow the counter).
    pub fn consume_credit(&mut self, vc: u64) {
        if let Some(c) = self.credits.get_mut(vc as usize) {
            *c = c.saturating_sub(1);
        }
    }

    /// Returns one credit of `vc`, capped at the buffer depth.
    pub fn return_credit(&mut self, vc: u64, depth: u8) {
        if let Some(c) = self.credits.get_mut(vc as usize) {
            *c = (*c + 1).min(depth);
        }
    }

    /// Whether `vc` has at least one credit. Out-of-range → `false`.
    pub fn has_credit(&self, vc: u64) -> bool {
        self.credits.get(vc as usize).is_some_and(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vc_is_idle_and_expects_header() {
        let vc = VirtualChannel::new(5);
        assert_eq!(vc.state, state::IDLE);
        assert!(vc.prev_written_was_tail);
        assert!(vc.buffer.is_empty());
    }

    #[test]
    fn release_resets_table() {
        let mut vc = VirtualChannel::new(5);
        vc.state = state::ACTIVE;
        vc.out_port = 3;
        vc.out_vc = 2;
        vc.arrived = 5;
        vc.release();
        assert_eq!(vc.state, state::IDLE);
        assert_eq!(vc.out_port, 0);
        assert_eq!(vc.arrived, 5, "write-side counter untouched by release");
    }

    #[test]
    fn output_port_alloc_release_cycle() {
        let mut op = OutputPort::new(true, 4, 5);
        assert_eq!(op.free_mask(), 0b1111);
        assert_eq!(op.lowest_free_in(2, 4), Some(2));
        op.allocate(2, (1, 0));
        assert_eq!(op.free_mask(), 0b1011);
        assert_eq!(op.lowest_free_in(2, 4), Some(3));
        assert_eq!(op.owner[2], Some((1, 0)));
        op.release(2);
        assert_eq!(op.free_mask(), 0b1111);
        assert_eq!(op.owner[2], None);
    }

    #[test]
    fn out_of_range_allocation_is_ignored() {
        let mut op = OutputPort::new(true, 4, 5);
        op.allocate(9, (0, 0));
        assert_eq!(op.free_mask(), 0b1111);
        op.release(9);
        op.consume_credit(9);
        assert!(!op.has_credit(9));
    }

    #[test]
    fn credits_saturate_both_ways() {
        let mut op = OutputPort::new(true, 2, 3);
        assert!(op.has_credit(0));
        for _ in 0..5 {
            op.consume_credit(0);
        }
        assert!(!op.has_credit(0));
        for _ in 0..10 {
            op.return_credit(0, 3);
        }
        assert_eq!(op.credits[0], 3);
    }

    #[test]
    fn disabled_vc_is_quarantined_forever() {
        let mut op = OutputPort::new(true, 4, 5);
        op.allocate(1, (2, 0));
        op.disable(1);
        assert_eq!(op.owner[1], None);
        assert!(!op.free[1]);
        // Neither release nor reset may resurrect it.
        op.release(1);
        assert!(!op.free[1]);
        op.reset_vc(1, 5);
        assert!(!op.free[1]);
        assert_eq!(op.lowest_free_in(0, 4), Some(0));
        assert_eq!(op.free_mask() & 0b0010, 0);
    }

    #[test]
    fn reset_vc_restores_credits_and_freedom() {
        let mut op = OutputPort::new(true, 2, 3);
        op.allocate(0, (1, 1));
        op.consume_credit(0);
        op.consume_credit(0);
        op.reset_vc(0, 3);
        assert!(op.free[0]);
        assert_eq!(op.credits[0], 3);
        assert_eq!(op.owner[0], None);
        op.reset_vc(9, 3); // out of range: ignored
    }

    #[test]
    fn hard_reset_drops_flits_and_rearms_write_side() {
        use noc_types::flit::make_packet;
        use noc_types::{geometry::NodeId, PacketId};
        let mut vc = VirtualChannel::new(5);
        for f in make_packet(PacketId(7), 50, NodeId(0), NodeId(3), 0, 3, 0) {
            vc.buffer.push(f);
        }
        vc.state = state::ACTIVE;
        vc.arrived = 3;
        vc.prev_written_was_tail = false;
        assert_eq!(vc.hard_reset(), 3);
        assert!(vc.buffer.is_empty());
        assert_eq!(vc.state, state::IDLE);
        assert_eq!(vc.arrived, 0);
        assert!(vc.prev_written_was_tail);
    }

    #[test]
    fn dead_port_has_nothing() {
        let op = OutputPort::new(false, 4, 5);
        assert_eq!(op.free_mask(), 0);
        assert!(!op.has_credit(0));
        assert_eq!(op.lowest_free_in(0, 4), None);
    }
}
