//! The Golden Reference oracle (Section 5.2/5.3 of the paper).
//!
//! *"The exact same experiments were also run in a fault-free environment
//! and detailed flit ejection logs were collected and compiled in a so
//! called Golden Reference (GR) report. The GR is then used to ensure that
//! no violations of the four network correctness rules occur."*
//!
//! [`RunLog`] records a run's injections and ejections; a fault-free run's
//! log becomes the [`GoldenReference`]; [`classify`] diffs an under-fault
//! log against it and lists the network-correctness violations — the
//! ground truth that decides whether an injected fault was *malicious* or
//! *benign*, independent of what any detector said.
//!
//! # Dense tables
//!
//! Flit uids and packet ids are the simulator's dense counters
//! (`Network` hands out uids from 1 and packet ids from 0), so the
//! reference is a uid-indexed flag table, and the comparison keeps a
//! uid-indexed `seen` table and a packet-indexed next-sequence table —
//! no hashing. Every lookup is bounds-checked: a uid outside the
//! reference's table is a flit the reference never saw (`NewFlit`), and
//! a packet id outside its range goes to a small ordered map instead of
//! growing the dense table.
//!
//! # Folding a shared prefix
//!
//! The comparison is one left-to-right pass over the ejection log, so its
//! state after a prefix of the log is all the rest of the pass needs.
//! A campaign's rollouts all share the warm-up prefix: the campaign folds
//! those ejections once into a `Classifier`, and each rollout resumes
//! from a copy of it with its own post-injection events only. The result
//! is the verdict [`classify`] gives over the full concatenated log.

use noc_sim::Observer;
use noc_types::flit::FlitOrigin;
use noc_types::record::EjectEvent;
use noc_types::{Cycle, Flit};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Black-box record of one run: what went in and what came out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    /// Flits handed to the network by NIs, in order.
    pub injected: Vec<(Cycle, Flit)>,
    /// Flits delivered to NIs, in order.
    pub ejected: Vec<EjectEvent>,
}

impl RunLog {
    /// An empty log.
    pub fn new() -> RunLog {
        RunLog::default()
    }

    /// Clears the log for reuse.
    pub fn reset(&mut self) {
        self.injected.clear();
        self.ejected.clear();
    }
}

impl Observer for RunLog {
    fn on_inject(&mut self, cycle: Cycle, flit: &Flit) {
        self.injected.push((cycle, *flit));
    }
    fn on_eject(&mut self, ev: &EjectEvent) {
        self.ejected.push(ev.clone());
    }
    fn on_quiescent_cycles(&self, _cycle: Cycle, _n: u64) -> bool {
        // The log only records injections and ejections; quiescent cycles
        // have neither.
        true
    }
}

/// [`GoldenReference::uids`] flag: the reference run injected the uid.
const INJECTED: u8 = 1;
/// [`GoldenReference::uids`] flag: the reference run delivered the uid.
const DELIVERED: u8 = 2;

/// The fault-free reference a faulty run is compared against.
#[derive(Debug, Clone)]
pub struct GoldenReference {
    /// uid → [`INJECTED`] | [`DELIVERED`] flags, zero for a uid the
    /// reference never saw. As long as the reference's highest uid + 1.
    uids: Vec<u8>,
    /// Number of distinct uids the reference delivered.
    delivered: usize,
    /// One past the highest packet id among the reference's flits: the
    /// length of a [`Classifier`]'s dense next-sequence table.
    packets: usize,
    /// The reference drained (sanity: it always must).
    pub drained: bool,
}

impl GoldenReference {
    /// Builds the reference from a fault-free run's log.
    ///
    /// # Panics
    ///
    /// Panics if `drained` is false — a fault-free run that deadlocks means
    /// the simulator substrate itself is broken, and no classification
    /// made against it would be meaningful.
    pub fn from_log(log: &RunLog, drained: bool) -> GoldenReference {
        match GoldenReference::try_from_log(log, drained) {
            Ok(gr) => gr,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the reference from a fault-free run's log, returning a
    /// structured error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`crate::campaign::CampaignError::GoldenNotDrained`] when
    /// `drained` is false — a fault-free run that deadlocks means the
    /// simulator substrate itself is broken, and no classification made
    /// against it would be meaningful.
    pub fn try_from_log(
        log: &RunLog,
        drained: bool,
    ) -> Result<GoldenReference, crate::campaign::CampaignError> {
        GoldenReference::try_from_logs(&[log], drained)
    }

    /// [`GoldenReference::try_from_log`] over a run recorded as
    /// consecutive pieces (a warm-up, then the rollout after it).
    pub(crate) fn try_from_logs(
        logs: &[&RunLog],
        drained: bool,
    ) -> Result<GoldenReference, crate::campaign::CampaignError> {
        if !drained {
            return Err(crate::campaign::CampaignError::GoldenNotDrained {
                injected: logs.iter().map(|l| l.injected.len()).sum(),
                ejected: logs.iter().map(|l| l.ejected.len()).sum(),
            });
        }
        let flits = || {
            logs.iter().flat_map(|l| {
                let injected = l.injected.iter().map(|(_, f)| (f, INJECTED));
                injected.chain(l.ejected.iter().map(|e| (&e.flit, DELIVERED)))
            })
        };
        let (mut max_uid, mut max_packet) = (None, None);
        for (f, _) in flits() {
            max_uid = max_uid.max(Some(f.uid));
            max_packet = max_packet.max(Some(f.packet.0));
        }
        // Ids are dense counters, so a table as long as the highest id
        // is as long as the run; an id past the address space fails the
        // allocation rather than wrapping.
        let len = |max: Option<u64>| {
            max.map_or(0, |m| {
                usize::try_from(m).map_or(usize::MAX, |m| m.saturating_add(1))
            })
        };
        let mut uids = vec![0u8; len(max_uid)];
        let mut delivered = 0;
        for (f, flag) in flits() {
            let slot = &mut uids[f.uid as usize];
            if flag == DELIVERED && *slot & DELIVERED == 0 {
                delivered += 1;
            }
            *slot |= flag;
        }
        Ok(GoldenReference {
            uids,
            delivered,
            packets: len(max_packet),
            drained,
        })
    }

    /// Number of flits the reference delivered.
    pub fn delivered_count(&self) -> usize {
        self.delivered
    }

    /// The reference's flags for `uid`; zero for a uid it never saw.
    fn flags(&self, uid: u64) -> u8 {
        usize::try_from(uid)
            .ok()
            .and_then(|i| self.uids.get(i))
            .map_or(0, |&f| f)
    }
}

/// One way a faulty run violated network-level correctness. The variants
/// map onto the four fundamental conditions of Figure 3 (plus intra-packet
/// ordering, which the paper adds when restating them at flit level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A flit the reference delivered never came out (no-flit-drop rule).
    FlitDropped,
    /// The network failed to drain: flits stuck forever (bounded delivery —
    /// deadlock/livelock).
    NotDrained,
    /// A flit was delivered to a node other than its destination.
    Misdelivered,
    /// The same flit was delivered more than once (no-new-flit rule:
    /// duplication).
    Duplicate,
    /// A flit came out that was never injected (stale-replay garbage —
    /// no-new-flit rule).
    NewFlit,
    /// A flit was delivered with damaged contents (datapath collision —
    /// no-data-corruption rule).
    Corrupted,
    /// Intra-packet flit order was violated at the destination.
    OutOfOrder,
}

impl ViolationKind {
    /// Every kind, in declaration (= sort) order.
    const ALL: [ViolationKind; 7] = [
        ViolationKind::FlitDropped,
        ViolationKind::NotDrained,
        ViolationKind::Misdelivered,
        ViolationKind::Duplicate,
        ViolationKind::NewFlit,
        ViolationKind::Corrupted,
        ViolationKind::OutOfOrder,
    ];

    /// The kind's bit in a [`Classifier`]'s violation set.
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// The full ground-truth verdict for one run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Distinct violations, sorted.
    pub violations: Vec<ViolationKind>,
}

impl Verdict {
    /// A fault is *malicious* iff it caused at least one network-level
    /// correctness violation; otherwise it is benign.
    pub fn malicious(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// The comparison's state part-way through an ejection log: what
/// [`classify`] has seen so far. Built for one [`GoldenReference`] and
/// only ever fed against that one.
#[derive(Debug)]
pub(crate) struct Classifier {
    /// uid → delivered at least once; indexed like the reference's table.
    seen: Vec<bool>,
    /// Distinct reference-delivered uids seen so far.
    seen_delivered: usize,
    /// packet id → next expected flit sequence number, over the
    /// reference's packet range.
    next_seq: Vec<u16>,
    /// Next expected sequence number for packet ids outside that range
    /// (a known flit whose packet field a fault rewrote).
    next_seq_far: BTreeMap<u64, u16>,
    /// Violations so far, one [`ViolationKind::bit`] each.
    violations: u8,
}

// Manual impl so `clone_from` (the campaign's per-rollout reset from the
// folded warm-up) copies into the existing tables.
impl Clone for Classifier {
    fn clone(&self) -> Classifier {
        Classifier {
            seen: self.seen.clone(),
            seen_delivered: self.seen_delivered,
            next_seq: self.next_seq.clone(),
            next_seq_far: self.next_seq_far.clone(),
            violations: self.violations,
        }
    }

    fn clone_from(&mut self, src: &Classifier) {
        self.seen.clone_from(&src.seen);
        self.seen_delivered = src.seen_delivered;
        self.next_seq.clone_from(&src.next_seq);
        self.next_seq_far.clone_from(&src.next_seq_far);
        self.violations = src.violations;
    }
}

impl Classifier {
    /// The state before any ejection.
    pub(crate) fn new(gr: &GoldenReference) -> Classifier {
        Classifier {
            seen: vec![false; gr.uids.len()],
            seen_delivered: 0,
            next_seq: vec![0; gr.packets],
            next_seq_far: BTreeMap::new(),
            violations: 0,
        }
    }

    /// Folds the next ejections, in log order.
    pub(crate) fn feed(&mut self, gr: &GoldenReference, ejected: &[EjectEvent]) {
        for ev in ejected {
            let f = &ev.flit;
            let flags = gr.flags(f.uid);
            if f.origin == FlitOrigin::StaleReplay || flags == 0 {
                self.violations |= ViolationKind::NewFlit.bit();
                continue;
            }
            // `flags != 0` puts the uid inside the reference's table.
            if std::mem::replace(&mut self.seen[f.uid as usize], true) {
                self.violations |= ViolationKind::Duplicate.bit();
            } else if flags & DELIVERED != 0 {
                self.seen_delivered += 1;
            }
            if f.dest != ev.node {
                self.violations |= ViolationKind::Misdelivered.bit();
            }
            if f.corrupted {
                self.violations |= ViolationKind::Corrupted.bit();
            }
            let dense = usize::try_from(f.packet.0)
                .ok()
                .and_then(|p| self.next_seq.get_mut(p));
            let expect = match dense {
                Some(e) => e,
                None => self.next_seq_far.entry(f.packet.0).or_insert(0),
            };
            if f.seq != *expect {
                self.violations |= ViolationKind::OutOfOrder.bit();
            }
            *expect = (*expect).max(f.seq.saturating_add(1));
        }
    }

    /// The verdict for a run whose whole ejection log has been fed.
    ///
    /// Missing real flits: everything the reference delivered must come
    /// out of the faulty run too. If the run failed to drain, the missing
    /// flits are stuck (bounded-delivery violation: deadlock/livelock); if
    /// it drained, they vanished (flit drop). Note the converse: an
    /// undrained network whose *real* traffic was all delivered — e.g. a
    /// fabricated garbage flit parked in a buffer forever — shows **no
    /// violation at the network outputs** and is therefore benign,
    /// matching the paper's ejection-log-based Golden Reference semantics.
    pub(crate) fn verdict(&self, gr: &GoldenReference, drained: bool) -> Verdict {
        let mut bits = self.violations;
        if self.seen_delivered < gr.delivered {
            bits |= if drained {
                ViolationKind::FlitDropped.bit()
            } else {
                ViolationKind::NotDrained.bit()
            };
        }
        Verdict {
            violations: ViolationKind::ALL
                .into_iter()
                .filter(|k| bits & k.bit() != 0)
                .collect(),
        }
    }
}

/// Compares a faulty run against the golden reference.
///
/// `drained` is the faulty run's drain status from the rollout. The
/// comparison is timing-insensitive on purpose: a fault that only delays
/// traffic (but still delivers everything correctly before the deadline)
/// is benign — exactly the paper's notion of "degraded performance (at
/// best)" faults.
pub fn classify(gr: &GoldenReference, log: &RunLog, drained: bool) -> Verdict {
    let mut c = Classifier::new(gr);
    c.feed(gr, &log.ejected);
    c.verdict(gr, drained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::flit::make_packet;
    use noc_types::geometry::NodeId;
    use noc_types::PacketId;

    fn golden_one_packet() -> (GoldenReference, Vec<Flit>) {
        let flits = make_packet(PacketId(1), 1, NodeId(0), NodeId(5), 0, 3, 0);
        let mut log = RunLog::new();
        for (i, f) in flits.iter().enumerate() {
            log.on_inject(i as u64, f);
            log.on_eject(&EjectEvent {
                node: NodeId(5),
                cycle: 20 + i as u64,
                flit: *f,
            });
        }
        (GoldenReference::from_log(&log, true), flits)
    }

    fn eject_all(flits: &[Flit], node: u16) -> RunLog {
        let mut log = RunLog::new();
        for (i, f) in flits.iter().enumerate() {
            log.on_inject(i as u64, f);
            log.on_eject(&EjectEvent {
                node: NodeId(node),
                cycle: 100 + i as u64,
                flit: *f,
            });
        }
        log
    }

    #[test]
    fn identical_run_is_clean() {
        let (gr, flits) = golden_one_packet();
        let log = eject_all(&flits, 5);
        let verdict = classify(&gr, &log, true);
        assert!(!verdict.malicious(), "{verdict:?}");
    }

    #[test]
    fn late_delivery_is_benign() {
        let (gr, flits) = golden_one_packet();
        let mut log = RunLog::new();
        for (i, f) in flits.iter().enumerate() {
            log.on_inject(i as u64, f);
            log.on_eject(&EjectEvent {
                node: NodeId(5),
                cycle: 9_000 + i as u64, // much later than golden
                flit: *f,
            });
        }
        assert!(!classify(&gr, &log, true).malicious());
    }

    #[test]
    fn missing_flit_is_dropped() {
        let (gr, flits) = golden_one_packet();
        let log = eject_all(&flits[..2], 5);
        let verdict = classify(&gr, &log, true);
        assert_eq!(verdict.violations, vec![ViolationKind::FlitDropped]);
    }

    #[test]
    fn undrained_run_is_bounded_delivery_violation() {
        let (gr, flits) = golden_one_packet();
        let log = eject_all(&flits[..2], 5);
        let verdict = classify(&gr, &log, false);
        assert!(verdict.violations.contains(&ViolationKind::NotDrained));
        assert!(!verdict.violations.contains(&ViolationKind::FlitDropped));
    }

    #[test]
    fn undrained_garbage_with_all_real_traffic_delivered_is_benign() {
        // A stale-replay flit stuck in a buffer forever does not manifest
        // at the network outputs: the paper's GR semantics call it benign.
        let (gr, flits) = golden_one_packet();
        let log = eject_all(&flits, 5);
        let verdict = classify(&gr, &log, false);
        assert!(!verdict.malicious(), "{verdict:?}");
    }

    #[test]
    fn wrong_destination_is_misdelivery() {
        let (gr, flits) = golden_one_packet();
        let log = eject_all(&flits, 3);
        assert!(classify(&gr, &log, true)
            .violations
            .contains(&ViolationKind::Misdelivered));
    }

    #[test]
    fn duplicate_and_garbage_flits() {
        let (gr, flits) = golden_one_packet();
        let mut log = eject_all(&flits, 5);
        // Duplicate of flit 0.
        log.on_eject(&EjectEvent {
            node: NodeId(5),
            cycle: 200,
            flit: flits[0],
        });
        // Stale-replay garbage.
        let mut garbage = flits[1];
        garbage.origin = FlitOrigin::StaleReplay;
        log.on_eject(&EjectEvent {
            node: NodeId(5),
            cycle: 201,
            flit: garbage,
        });
        let verdict = classify(&gr, &log, true);
        assert!(verdict.violations.contains(&ViolationKind::Duplicate));
        assert!(verdict.violations.contains(&ViolationKind::NewFlit));
    }

    #[test]
    fn corruption_and_reordering() {
        let (gr, flits) = golden_one_packet();
        let mut log = RunLog::new();
        for (i, f) in flits.iter().enumerate() {
            log.on_inject(i as u64, f);
        }
        let order = [1usize, 0, 2];
        for (i, &idx) in order.iter().enumerate() {
            let mut f = flits[idx];
            if i == 2 {
                f.corrupted = true;
            }
            log.on_eject(&EjectEvent {
                node: NodeId(5),
                cycle: 50 + i as u64,
                flit: f,
            });
        }
        let verdict = classify(&gr, &log, true);
        assert!(verdict.violations.contains(&ViolationKind::OutOfOrder));
        assert!(verdict.violations.contains(&ViolationKind::Corrupted));
    }

    fn eject(flit: Flit, node: u16) -> EjectEvent {
        EjectEvent {
            node: NodeId(node),
            cycle: 300,
            flit,
        }
    }

    #[test]
    fn uid_zero_is_a_new_flit_whatever_its_origin() {
        // Uids start at 1, so slot 0 of the dense table is never known:
        // a stale replay of a never-written buffer slot carries uid 0.
        let (gr, flits) = golden_one_packet();
        for origin in [FlitOrigin::StaleReplay, FlitOrigin::Injected] {
            let mut log = eject_all(&flits, 5);
            let mut ghost = flits[0];
            ghost.uid = 0;
            ghost.origin = origin;
            log.on_eject(&eject(ghost, 5));
            assert_eq!(
                classify(&gr, &log, true).violations,
                vec![ViolationKind::NewFlit],
                "{origin:?}"
            );
        }
    }

    #[test]
    fn uid_beyond_the_golden_maximum_is_a_new_flit() {
        let (gr, flits) = golden_one_packet();
        for uid in [4, 1 << 40, u64::MAX] {
            let mut log = eject_all(&flits, 5);
            let mut stranger = flits[2];
            stranger.uid = uid;
            log.on_eject(&eject(stranger, 5));
            assert_eq!(
                classify(&gr, &log, true).violations,
                vec![ViolationKind::NewFlit],
                "uid {uid}"
            );
        }
    }

    #[test]
    fn packet_id_outside_the_golden_range_uses_the_fallback_map() {
        let (gr, flits) = golden_one_packet();
        let mut c = Classifier::new(&gr);
        let table = c.next_seq.len();
        // A known flit whose packet field a fault rewrote to the largest
        // id: its sequence check lands in the fallback map, and the dense
        // table keeps its size.
        for (seq, flit) in flits.iter().enumerate() {
            let mut f = *flit;
            f.packet = PacketId(u64::MAX);
            f.seq = seq as u16;
            c.feed(&gr, &[eject(f, 5)]);
        }
        assert_eq!(c.next_seq.len(), table);
        assert_eq!(c.next_seq.capacity(), table);
        assert_eq!(c.next_seq_far.get(&u64::MAX), Some(&3));
        assert!(!c.verdict(&gr, true).malicious());
        // Out of order there is still out of order.
        let mut late = flits[0];
        late.packet = PacketId(u64::MAX);
        c.feed(&gr, &[eject(late, 5)]);
        assert_eq!(
            c.verdict(&gr, true).violations,
            vec![ViolationKind::Duplicate, ViolationKind::OutOfOrder]
        );
    }

    #[test]
    fn violations_come_out_in_kind_order() {
        let (gr, flits) = golden_one_packet();
        let mut log = RunLog::new();
        // Reverse order (OutOfOrder), flit 2 corrupted and misdelivered,
        // flit 0 twice (Duplicate), a garbage flit (NewFlit), and flit 1
        // never delivered (FlitDropped / NotDrained).
        let mut bad = flits[2];
        bad.corrupted = true;
        log.on_eject(&eject(bad, 3));
        log.on_eject(&eject(flits[0], 5));
        log.on_eject(&eject(flits[0], 5));
        let mut garbage = flits[1];
        garbage.origin = FlitOrigin::StaleReplay;
        log.on_eject(&eject(garbage, 5));
        use ViolationKind::*;
        assert_eq!(
            classify(&gr, &log, true).violations,
            vec![
                FlitDropped,
                Misdelivered,
                Duplicate,
                NewFlit,
                Corrupted,
                OutOfOrder
            ]
        );
        assert_eq!(classify(&gr, &log, false).violations[0], NotDrained);
    }

    #[test]
    fn folding_any_prefix_then_the_rest_equals_the_whole_log() {
        let (gr, flits) = golden_one_packet();
        let mut log = eject_all(&flits, 5);
        let mut garbage = flits[1];
        garbage.origin = FlitOrigin::StaleReplay;
        log.on_eject(&eject(garbage, 5));
        log.on_eject(&eject(flits[0], 2));
        for drained in [true, false] {
            for cut in 0..=log.ejected.len() {
                let (head, tail) = log.ejected.split_at(cut);
                let mut folded = Classifier::new(&gr);
                folded.feed(&gr, head);
                let mut resumed = Classifier::new(&gr);
                resumed.clone_from(&folded);
                resumed.feed(&gr, tail);
                assert_eq!(
                    resumed.verdict(&gr, drained),
                    classify(&gr, &log, drained),
                    "cut {cut}"
                );
            }
        }
    }

    #[test]
    fn reference_counts_distinct_deliveries() {
        let (gr, _) = golden_one_packet();
        assert_eq!(gr.delivered_count(), 3);
        // uids 1..=3 plus the never-used slot 0.
        assert_eq!(gr.uids.len(), 4);
        assert_eq!(gr.packets, 2);
    }

    #[test]
    #[should_panic(expected = "golden (fault-free) run failed to drain")]
    fn undrained_golden_panics() {
        let log = RunLog::new();
        GoldenReference::from_log(&log, false);
    }
}
