//! **ForEVeR** (Parikh & Bertacco, MICRO 2011) — the state-of-the-art
//! baseline NoCAlert is compared against in Section 5.
//!
//! ForEVeR complements design-time formal verification with runtime
//! checking. Its fault-detection machinery, re-implemented here exactly as
//! the NoCAlert paper describes it, has three parts:
//!
//! 1. **Checker network + notification counters** — a lightweight,
//!    assumed-100%-reliable secondary network delivers a notification to a
//!    packet's destination *ahead of* the packet. The destination
//!    increments a counter per notification and decrements it when the
//!    packet is fully received. Time is divided into **epochs** (1,500
//!    cycles in the paper's comparison — the shortest epoch that avoided
//!    excessive false positives); if a node's counter never touches zero
//!    during an epoch, a fault is flagged at the epoch boundary. This is
//!    the mechanism responsible for ForEVeR's ~3,000–12,000-cycle
//!    detection latencies in Figure 7.
//! 2. **Allocation Comparator** (from Shamshiri et al. \[19\]) — real-time
//!    comparisons on the allocation logic: grants without requests and
//!    non-one-hot grant vectors are flagged instantly.
//! 3. **End-to-end checker** — recomputed end-to-end checks on delivered
//!    packet contents: corrupted payloads are flagged on arrival.
//!    Misrouted traffic, by contrast, surfaces only through the counter
//!    imbalance it creates (a never-notified node going negative, the
//!    intended destination never returning to zero) and is therefore
//!    detected at epoch boundaries — which is exactly why ForEVeR's
//!    detection latency in Figure 7 is in the thousands of cycles.
//!
//! The checker network itself is modelled as contention-free with a
//! 1-cycle-per-hop latency (plus serialization), faithful to ForEVeR's
//! assumption that it is dimensioned never to back-pressure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use noc_sim::Observer;
use noc_types::geometry::NodeId;
use noc_types::record::{CycleRecord, EjectEvent};
use noc_types::{Cycle, Flit, NocConfig};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Which ForEVeR sub-mechanism raised a detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mechanism {
    /// Epoch-end counter check fed by the checker network.
    CheckerNetwork,
    /// Real-time Allocation Comparator.
    AllocationComparator,
    /// Destination-side end-to-end check.
    EndToEnd,
}

/// One ForEVeR detection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Detection {
    /// Cycle the alarm was raised (epoch boundary for the counter check).
    pub cycle: Cycle,
    /// Node that raised it.
    pub node: NodeId,
    /// Sub-mechanism.
    pub mechanism: Mechanism,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Notification {
    arrival: Cycle,
    dest: NodeId,
    flits: u16,
}

impl Ord for Notification {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse ordering: BinaryHeap becomes a min-heap on arrival.
        other
            .arrival
            .cmp(&self.arrival)
            .then_with(|| other.dest.0.cmp(&self.dest.0))
    }
}

impl PartialOrd for Notification {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The ForEVeR runtime detector for one network. Attach as an observer.
///
/// # Example
///
/// ```
/// use nocalert_forever::Forever;
/// use noc_sim::Network;
/// use noc_types::NocConfig;
///
/// let cfg = NocConfig::small_test();
/// let mut net = Network::new(cfg.clone());
/// let mut fv = Forever::new(&cfg, 1_500);
/// for _ in 0..5_000 {
///     net.step_observed(&mut fv);
/// }
/// assert!(fv.detections().is_empty(), "fault-free run, no alarms");
/// ```
#[derive(Debug)]
pub struct Forever {
    cfg: NocConfig,
    epoch_len: u64,
    counters: Vec<i64>,
    reached_zero: Vec<bool>,
    notifications: BinaryHeap<Notification>,
    detections: Vec<Detection>,
    first: Option<Cycle>,
    last_cycle: Option<Cycle>,
    max_detections: usize,
}

// Manual impl so `clone_from` (the campaign arena's per-run reset) reuses
// the per-node counter vectors and the in-flight notification heap.
impl Clone for Forever {
    fn clone(&self) -> Forever {
        Forever {
            cfg: self.cfg.clone(),
            epoch_len: self.epoch_len,
            counters: self.counters.clone(),
            reached_zero: self.reached_zero.clone(),
            notifications: self.notifications.clone(),
            detections: self.detections.clone(),
            first: self.first,
            last_cycle: self.last_cycle,
            max_detections: self.max_detections,
        }
    }

    fn clone_from(&mut self, src: &Forever) {
        self.cfg.clone_from(&src.cfg);
        self.epoch_len = src.epoch_len;
        self.counters.clone_from(&src.counters);
        self.reached_zero.clone_from(&src.reached_zero);
        self.notifications.clone_from(&src.notifications);
        self.detections.clone_from(&src.detections);
        self.first = src.first;
        self.last_cycle = src.last_cycle;
        self.max_detections = src.max_detections;
    }
}

impl Forever {
    /// Creates a detector with the given epoch length (paper: 1,500).
    pub fn new(cfg: &NocConfig, epoch_len: u64) -> Forever {
        assert!(epoch_len > 0, "epoch length must be non-zero");
        let n = cfg.mesh.len();
        Forever {
            cfg: cfg.clone(),
            epoch_len,
            counters: vec![0; n],
            reached_zero: vec![true; n],
            notifications: BinaryHeap::new(),
            detections: Vec::new(),
            first: None,
            last_cycle: None,
            max_detections: 10_000,
        }
    }

    /// All raised detections (capped internally).
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Cycle of the first detection, if any.
    pub fn first_detection(&self) -> Option<Cycle> {
        self.first
    }

    /// True if any mechanism has fired.
    pub fn any_detected(&self) -> bool {
        self.first.is_some()
    }

    /// Current per-node counter values (diagnostics).
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// Structural equality of the runtime state: counters, epoch
    /// bookkeeping, in-flight notifications and raised detections. The
    /// notification heaps are compared as sorted multisets (heap layout is
    /// an implementation detail of the push/pop history). Equal states
    /// react identically to identical future traffic.
    pub fn state_eq(&self, other: &Forever) -> bool {
        if self.epoch_len != other.epoch_len
            || self.counters != other.counters
            || self.reached_zero != other.reached_zero
            || self.detections != other.detections
            || self.first != other.first
            || self.last_cycle != other.last_cycle
            || self.notifications.len() != other.notifications.len()
        {
            return false;
        }
        let mut a: Vec<&Notification> = self.notifications.iter().collect();
        let mut b: Vec<&Notification> = other.notifications.iter().collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }

    /// Clears all runtime state (counters, pending notifications, alarms).
    pub fn reset(&mut self) {
        let n = self.cfg.mesh.len();
        self.counters = vec![0; n];
        self.reached_zero = vec![true; n];
        self.notifications.clear();
        self.detections.clear();
        self.first = None;
        self.last_cycle = None;
    }

    fn detect(&mut self, cycle: Cycle, node: NodeId, mechanism: Mechanism) {
        if self.first.is_none() {
            self.first = Some(cycle);
        }
        if self.detections.len() < self.max_detections {
            self.detections.push(Detection {
                cycle,
                node,
                mechanism,
            });
        }
    }

    /// Per-cycle housekeeping: deliver due notifications, sample counters,
    /// evaluate epoch boundaries. Called on the first record of each cycle.
    fn tick(&mut self, cycle: Cycle) {
        // Deliver notifications that have arrived by now.
        while let Some(top) = self.notifications.peek() {
            if top.arrival > cycle {
                break;
            }
            let n = self.notifications.pop().expect("peeked");
            self.counters[n.dest.index()] += n.flits as i64;
        }
        // Sample: did the counter touch zero this cycle?
        for (i, &c) in self.counters.iter().enumerate() {
            if c == 0 {
                self.reached_zero[i] = true;
            }
        }
        // Epoch boundary?
        if cycle > 0 && cycle.is_multiple_of(self.epoch_len) {
            for i in 0..self.counters.len() {
                if !self.reached_zero[i] {
                    self.detect(cycle, NodeId(i as u16), Mechanism::CheckerNetwork);
                }
                self.reached_zero[i] = self.counters[i] == 0;
            }
        }
    }
}

impl Observer for Forever {
    fn on_cycle_record(&mut self, cycle: Cycle, rec: &CycleRecord) {
        if self.last_cycle != Some(cycle) {
            self.last_cycle = Some(cycle);
            self.tick(cycle);
        }
        // --- Allocation Comparator: instantaneous arbiter checks ---
        let router = rec.router;
        let mut bad = false;
        for e in rec.va1.iter().chain(rec.sa1.iter()) {
            bad |= e.grant & !e.req != 0 || e.grant.count_ones() > 1;
        }
        for e in &rec.va2 {
            bad |= e.grant & !e.req != 0 || e.grant.count_ones() > 1;
        }
        for e in &rec.sa2 {
            bad |= e.grant & !e.req != 0 || e.grant.count_ones() > 1;
        }
        if bad {
            self.detect(cycle, NodeId(router), Mechanism::AllocationComparator);
        }
    }

    fn on_quiescent_cycles(&self, _cycle: Cycle, _n: u64) -> bool {
        // Quiescent cycles only run `tick`: with no notification in
        // flight, every counter at zero and every epoch flag satisfied,
        // each tick — including any epoch boundary inside the window — is
        // provably a no-op, so the cycles may be skipped. Any imbalance
        // refuses the skip: epoch boundaries inside the window are exactly
        // where ForEVeR detects lost or misdelivered traffic.
        self.notifications.is_empty()
            && self.counters.iter().all(|&c| c == 0)
            && self.reached_zero.iter().all(|&z| z)
    }

    fn on_inject(&mut self, cycle: Cycle, flit: &Flit) {
        if !flit.is_head() {
            return;
        }
        // The checker network races ahead of the data packet: one cycle per
        // hop plus two cycles of interface latency, contention-free. The
        // notification pre-credits the destination's flit counter with the
        // packet length.
        let hops = self.cfg.mesh.distance(flit.src, flit.dest) as u64;
        self.notifications.push(Notification {
            arrival: cycle + hops + 2,
            dest: flit.dest,
            flits: self
                .cfg
                .packet_len(flit.class.min(self.cfg.message_classes - 1)),
        });
    }

    fn on_eject(&mut self, ev: &EjectEvent) {
        // End-to-end content check: corruption is caught on arrival.
        if ev.flit.corrupted {
            self.detect(ev.cycle, ev.node, Mechanism::EndToEnd);
        }
        // Every received flit decrements the receiving node's counter —
        // misdelivered flits drive the wrong node negative and leave the
        // intended destination positive; both surface at epoch ends.
        self.counters[ev.node.index()] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::Network;
    use noc_types::flit::make_packet;
    use noc_types::PacketId;

    #[test]
    fn fault_free_run_never_alarms() {
        let cfg = NocConfig::small_test();
        let mut net = Network::new(cfg.clone());
        let mut fv = Forever::new(&cfg, 1_500);
        for _ in 0..6_000 {
            net.step_observed(&mut fv);
        }
        assert!(
            fv.detections().is_empty(),
            "false alarms: {:?}",
            &fv.detections()[..fv.detections().len().min(3)]
        );
    }

    #[test]
    fn lost_packet_detected_at_epoch_boundary() {
        let cfg = NocConfig::small_test();
        let mut fv = Forever::new(&cfg, 100);
        // Notify destination 5 of an incoming packet that never arrives.
        let flits = make_packet(PacketId(1), 1, NodeId(0), NodeId(5), 0, 5, 10);
        fv.on_inject(10, &flits[0]);
        // Drive the clock via empty records.
        let mut rec = noc_types::record::CycleRecord::default();
        for cy in 10..350 {
            rec.reset(0);
            fv.on_cycle_record(cy, &rec);
        }
        assert!(fv.any_detected());
        // Counter went nonzero after notification arrival (~cycle 16);
        // epoch boundaries at 100 (may still have been zero early in the
        // epoch) — the alarm fires at the first boundary whose whole epoch
        // saw a nonzero counter, i.e. cycle 200.
        assert_eq!(fv.first_detection(), Some(200));
        assert!(fv
            .detections()
            .iter()
            .all(|d| d.mechanism == Mechanism::CheckerNetwork));
    }

    #[test]
    fn delivered_packet_causes_no_alarm() {
        let cfg = NocConfig::small_test();
        let mut fv = Forever::new(&cfg, 100);
        let flits = make_packet(PacketId(1), 1, NodeId(0), NodeId(5), 0, 2, 10);
        fv.on_inject(10, &flits[0]);
        let mut rec = noc_types::record::CycleRecord::default();
        for cy in 10..60 {
            rec.reset(0);
            fv.on_cycle_record(cy, &rec);
            if cy == 40 {
                // Both flits arrive: counter back to zero. (The
                // notification pre-credited packet_len = 5 for class 0 in
                // the small_test config, so deliver what was credited.)
                for f in &flits {
                    fv.on_eject(&EjectEvent {
                        node: NodeId(5),
                        cycle: cy,
                        flit: *f,
                    });
                }
                // Drain the remaining credit with synthetic receptions so
                // the counter returns to zero, mimicking full delivery of
                // the notified flit count.
                let credited = cfg.packet_len(0);
                for _ in flits.len() as u16..credited {
                    fv.on_eject(&EjectEvent {
                        node: NodeId(5),
                        cycle: cy,
                        flit: flits[1],
                    });
                }
            }
        }
        for cy in 60..400 {
            rec.reset(0);
            fv.on_cycle_record(cy, &rec);
        }
        assert!(!fv.any_detected());
    }

    #[test]
    fn misdelivery_detected_at_epoch_boundary_not_instantly() {
        let cfg = NocConfig::small_test();
        let mut fv = Forever::new(&cfg, 100);
        let flits = make_packet(PacketId(1), 1, NodeId(0), NodeId(5), 0, 1, 0);
        // A never-notified node receives a stray flit: counter −1.
        fv.on_eject(&EjectEvent {
            node: NodeId(3),
            cycle: 42,
            flit: flits[0],
        });
        assert!(!fv.any_detected(), "no instantaneous detection");
        let mut rec = noc_types::record::CycleRecord::default();
        for cy in 43..250 {
            rec.reset(0);
            fv.on_cycle_record(cy, &rec);
        }
        // Counter is stuck at −1: the epoch after the stray arrival fails.
        assert_eq!(fv.first_detection(), Some(200));
        assert_eq!(fv.detections()[0].mechanism, Mechanism::CheckerNetwork);
    }

    #[test]
    fn corrupted_flit_detected_end_to_end() {
        let cfg = NocConfig::small_test();
        let mut fv = Forever::new(&cfg, 1_500);
        let mut f = make_packet(PacketId(1), 1, NodeId(0), NodeId(5), 0, 1, 0)[0];
        f.corrupted = true;
        fv.on_eject(&EjectEvent {
            node: NodeId(5),
            cycle: 42,
            flit: f,
        });
        assert_eq!(fv.first_detection(), Some(42));
        assert_eq!(fv.detections()[0].mechanism, Mechanism::EndToEnd);
    }

    #[test]
    fn allocation_comparator_fires_on_bad_grant() {
        let cfg = NocConfig::small_test();
        let mut fv = Forever::new(&cfg, 1_500);
        let mut rec = noc_types::record::CycleRecord::default();
        rec.reset(7);
        rec.sa1.push(noc_types::record::LocalArbEvent {
            port: 0,
            req: 0b0001,
            grant: 0b0010, // grant w/o request
            credit_ok: 0b0001,
        });
        fv.on_cycle_record(5, &rec);
        assert_eq!(fv.first_detection(), Some(5));
        assert_eq!(
            fv.detections()[0].mechanism,
            Mechanism::AllocationComparator
        );
    }

    #[test]
    fn reset_clears_everything() {
        let cfg = NocConfig::small_test();
        let mut fv = Forever::new(&cfg, 100);
        let mut f = make_packet(PacketId(1), 1, NodeId(0), NodeId(5), 0, 1, 0)[0];
        f.corrupted = true;
        fv.on_inject(0, &f);
        fv.on_eject(&EjectEvent {
            node: NodeId(2),
            cycle: 3,
            flit: f,
        });
        assert!(fv.any_detected());
        fv.reset();
        assert!(!fv.any_detected());
        assert!(fv.detections().is_empty());
    }
}
