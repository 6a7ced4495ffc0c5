//! VC buffers with physically honest "stale slot" semantics.
//!
//! Section 4.1 of the paper: *"since buffers employ pointers to maintain
//! FIFO order, an 'empty' buffer slot is not blank"* — a faulty read of an
//! empty FIFO forwards whatever stale bits the slot holds, which is how
//! spontaneous flit generation happens in real hardware. [`VcBuffer`]
//! therefore models the ring storage explicitly: popped flits stay in their
//! slots, and [`VcBuffer::read_stale`] replays them.

use noc_types::flit::{Flit, FlitKind, FlitOrigin};
use noc_types::geometry::NodeId;
use noc_types::PacketId;
use serde::{Deserialize, Serialize};

/// A fixed-capacity FIFO of flits backed by a ring of persistent slots.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct VcBuffer {
    slots: Vec<Option<Flit>>,
    head: usize,
    len: usize,
}

// Manual impl so `clone_from` (the arena reset path) reuses the slot
// allocation instead of reallocating one ring per VC per run.
impl Clone for VcBuffer {
    fn clone(&self) -> VcBuffer {
        VcBuffer {
            slots: self.slots.clone(),
            head: self.head,
            len: self.len,
        }
    }

    fn clone_from(&mut self, src: &VcBuffer) {
        self.slots.clone_from(&src.slots);
        self.head = src.head;
        self.len = src.len;
    }
}

impl VcBuffer {
    /// Creates a buffer of `depth` slots.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: u8) -> VcBuffer {
        assert!(depth > 0, "buffer depth must be non-zero");
        VcBuffer {
            slots: vec![None; depth as usize],
            head: 0,
            len: 0,
        }
    }

    /// Number of buffered flits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live flit is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when every slot holds a live flit.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Capacity in flits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The flit at the FIFO head, if any.
    #[inline]
    pub fn peek(&self) -> Option<&Flit> {
        if self.len > 0 {
            self.slots[self.head].as_ref()
        } else {
            None
        }
    }

    /// Iterates over the live flits in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &Flit> + '_ {
        (0..self.len).filter_map(move |i| self.slots[(self.head + i) % self.slots.len()].as_ref())
    }

    /// Resync equality (see `Network::state_eq`): capacity, occupancy and
    /// the live flits in FIFO order. The ring offset and the stale slots
    /// drop out. Push, pop, `peek`, `len` and the full/empty wires see
    /// only the live sequence; the stale slots are read only by
    /// [`read_stale`](VcBuffer::read_stale) and by
    /// [`head_kind_wire`](VcBuffer::head_kind_wire) of an empty buffer,
    /// and an inert-plane step of a golden-reachable network does the
    /// first never and exposes the second only on record wires no
    /// observer reads.
    pub(crate) fn state_eq(&self, other: &VcBuffer) -> bool {
        self.capacity() == other.capacity() && self.len == other.len && self.iter().eq(other.iter())
    }

    /// Appends a flit.
    ///
    /// When the buffer is already full — which only happens under a fault,
    /// since credit-based flow control normally prevents it — the write
    /// physically lands on the head slot and **destroys the oldest flit**,
    /// exactly what an overrun write does to a ring buffer. The destroyed
    /// flit is returned so callers can account for the loss.
    pub fn push(&mut self, flit: Flit) -> Option<Flit> {
        if self.is_full() {
            let lost = self.slots[self.head].replace(flit);
            // Oldest flit overwritten; occupancy unchanged.
            return lost;
        }
        let idx = (self.head + self.len) % self.slots.len();
        self.slots[idx] = Some(flit);
        self.len += 1;
        None
    }

    /// Removes and returns the head flit.
    ///
    /// The slot *keeps a stale copy* of the flit — only the pointers move —
    /// so a later faulty [`read_stale`](VcBuffer::read_stale) can replay it.
    pub fn pop(&mut self) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let flit = self.slots[self.head];
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        flit
    }

    /// Reads the head slot of an **empty** buffer: the stale-garbage replay
    /// of invariance 24 / the "new flit generation" discussion in the paper.
    ///
    /// Returns the stale content of the slot the head pointer rests on,
    /// re-marked as [`FlitOrigin::StaleReplay`]; a never-written slot yields
    /// a fabricated null flit (all-zero wires).
    pub fn read_stale(&self) -> Flit {
        let mut flit = self.slots[self.head].unwrap_or(Flit {
            uid: 0,
            packet: PacketId(0),
            seq: 0,
            kind: FlitKind::Head,
            src: NodeId(0),
            dest: NodeId(0),
            class: 0,
            injected_at: 0,
            origin: FlitOrigin::StaleReplay,
            corrupted: false,
        });
        flit.origin = FlitOrigin::StaleReplay;
        flit
    }

    /// Drops every live flit (a recovery-controller VC reset), returning
    /// how many were destroyed. The slots keep their stale copies and the
    /// head pointer is left in place — physically this is a pointer reset,
    /// not a storage wipe.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len;
        self.len = 0;
        dropped
    }

    /// The wire value a head-kind observer sees: the live head's kind, or
    /// the stale slot's kind when the buffer is empty.
    pub fn head_kind_wire(&self) -> FlitKind {
        self.peek()
            .map(|f| f.kind)
            .unwrap_or_else(|| self.read_stale().kind)
    }
}

#[cfg(test)]
impl VcBuffer {
    /// Rotates the ring `k` slots forward (live flits keep their FIFO
    /// order) and overwrites every slot outside the live run with
    /// `stale`: a buffer `state_eq` to the original.
    pub(crate) fn scribble_dead(&mut self, k: usize, stale: Option<Flit>) {
        let cap = self.slots.len();
        self.slots.rotate_right(k % cap);
        self.head = (self.head + k) % cap;
        for i in self.len..cap {
            self.slots[(self.head + i) % cap] = stale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::flit::make_packet;

    fn flits(n: u16) -> Vec<Flit> {
        make_packet(PacketId(1), 100, NodeId(0), NodeId(5), 0, n, 0)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut b = VcBuffer::new(5);
        for f in flits(5) {
            assert!(b.push(f).is_none());
        }
        assert!(b.is_full());
        for i in 0..5 {
            let f = b.pop().unwrap();
            assert_eq!(f.seq, i);
        }
        assert!(b.is_empty());
    }

    #[test]
    fn wraparound_keeps_order() {
        let mut b = VcBuffer::new(3);
        let fs = flits(6);
        b.push(fs[0]);
        b.push(fs[1]);
        assert_eq!(b.pop().unwrap().seq, 0);
        b.push(fs[2]);
        b.push(fs[3]);
        assert_eq!(b.pop().unwrap().seq, 1);
        b.push(fs[4]);
        assert_eq!(b.pop().unwrap().seq, 2);
        assert_eq!(b.pop().unwrap().seq, 3);
        assert_eq!(b.pop().unwrap().seq, 4);
        assert!(b.pop().is_none());
    }

    #[test]
    fn overrun_write_destroys_oldest() {
        let mut b = VcBuffer::new(2);
        let fs = flits(3);
        b.push(fs[0]);
        b.push(fs[1]);
        let lost = b.push(fs[2]);
        assert_eq!(lost.unwrap().seq, 0);
        assert_eq!(b.len(), 2);
        // The overwritten head slot now yields the new flit.
        assert_eq!(b.pop().unwrap().seq, 2);
        assert_eq!(b.pop().unwrap().seq, 1);
    }

    #[test]
    fn stale_read_replays_last_popped() {
        let mut b = VcBuffer::new(2);
        let fs = flits(3);
        // Fill and drain the two slots twice so the head pointer wraps onto
        // slots that retain stale flit copies.
        b.push(fs[0]);
        b.push(fs[1]);
        b.pop();
        b.pop();
        assert!(b.is_empty());
        // Head is back at slot 0, which still holds fs[0]'s stale bits.
        let stale = b.read_stale();
        assert_eq!(stale.origin, FlitOrigin::StaleReplay);
        assert_eq!(stale.uid, fs[0].uid, "replays the stale slot content");
        // After one more push/pop, the head rests on the fs[1] slot.
        b.push(fs[2]);
        b.pop();
        let stale2 = b.read_stale();
        assert_eq!(stale2.origin, FlitOrigin::StaleReplay);
        assert_eq!(stale2.uid, fs[1].uid);
    }

    #[test]
    fn stale_read_of_virgin_buffer_is_null_flit() {
        let b = VcBuffer::new(3);
        let stale = b.read_stale();
        assert_eq!(stale.uid, 0);
        assert_eq!(stale.origin, FlitOrigin::StaleReplay);
    }

    #[test]
    fn head_kind_wire_reads_live_or_stale() {
        let mut b = VcBuffer::new(2);
        let fs = flits(2); // Head, Tail
        b.push(fs[0]);
        b.push(fs[1]);
        assert_eq!(b.head_kind_wire(), FlitKind::Head);
        b.pop();
        assert_eq!(b.head_kind_wire(), FlitKind::Tail);
        b.pop();
        // Empty: the head pointer wrapped back onto the stale header slot.
        assert_eq!(b.head_kind_wire(), FlitKind::Head);
    }

    #[test]
    fn scribbled_dead_slots_keep_the_live_run() {
        let mut b = VcBuffer::new(4);
        let fs = flits(5);
        for f in &fs[..3] {
            b.push(*f);
        }
        b.pop();
        let before: Vec<Flit> = b.iter().copied().collect();
        let mut c = b.clone();
        c.scribble_dead(3, Some(fs[4]));
        assert_ne!(b, c, "the ring itself moved");
        assert!(b.state_eq(&c));
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), before);
        assert_eq!(c.slots[(c.head + 2) % 4].map(|f| f.uid), Some(fs[4].uid));
        c.push(fs[3]);
        assert!(!b.state_eq(&c), "a live flit more");
    }

    #[test]
    #[should_panic(expected = "depth must be non-zero")]
    fn zero_depth_panics() {
        VcBuffer::new(0);
    }
}
