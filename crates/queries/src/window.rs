//! A sliding window over the last *W* committed batches.
//!
//! Windowed standing queries ("edge/triangle count over the last W
//! batches") need per-batch expiry: when batch `seq` commits, the
//! contribution of batch `seq - W` leaves the window. The window keeps one
//! slot per observed batch — insert batches contribute their edges, delete
//! batches contribute nothing but still occupy a slot and age the window —
//! so expiry is exact and deterministic.
//!
//! Beside the slots it keeps the *candidate map*: every distinct edge an
//! in-window insert batch carried, how many times (expiry is a decrement),
//! and whether it is in the graph. A cleanly committed batch settles that
//! flag itself — inserts present, deletes absent — so [`push`](BatchWindow::push)
//! is O(|batch|) and reads no graph; a lossy commit needs
//! [`reprobe`](BatchWindow::reprobe).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use lsgraph_api::{Edge, Graph};
use lsgraph_core::BatchKind;

#[derive(Clone, Copy, Debug, Default)]
struct Candidate {
    /// Occurrences across the in-window insert batches.
    refs: u32,
    /// Whether the edge is in the graph, as far as the batches told.
    present: bool,
}

/// Sliding window retaining the last `cap` batches.
#[derive(Clone, Debug)]
pub struct BatchWindow {
    cap: usize,
    /// Per observed batch: its `seq` and, for an insert batch, its edges as
    /// passed (the decrements its expiry owes).
    slots: VecDeque<(u64, Vec<Edge>)>,
    candidates: HashMap<(u32, u32), Candidate>,
    /// Candidates flagged present.
    present: u64,
}

impl BatchWindow {
    /// An empty window retaining up to `cap` batches (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        BatchWindow {
            cap: cap.max(1),
            slots: VecDeque::new(),
            candidates: HashMap::new(),
            present: 0,
        }
    }

    /// The configured window size in batches.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Batches currently inside the window.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True before any batch has been observed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Observes one committed batch, expiring the slot that falls out of
    /// the window.
    pub fn push(&mut self, seq: u64, kind: BatchKind, batch: &[Edge]) {
        match kind {
            BatchKind::Insert => {
                for e in batch {
                    let c = self.candidates.entry((e.src, e.dst)).or_default();
                    c.refs += 1;
                    self.present += u64::from(!std::mem::replace(&mut c.present, true));
                }
                self.slots.push_back((seq, batch.to_vec()));
            }
            BatchKind::Delete => {
                for e in batch {
                    if let Some(c) = self.candidates.get_mut(&(e.src, e.dst)) {
                        self.present -= u64::from(std::mem::replace(&mut c.present, false));
                    }
                }
                self.slots.push_back((seq, Vec::new()));
            }
        }
        while self.slots.len() > self.cap {
            let (_, expired) = self.slots.pop_front().expect("len > cap >= 1");
            for e in expired {
                let Entry::Occupied(mut c) = self.candidates.entry((e.src, e.dst)) else {
                    unreachable!("an in-window edge has a candidate entry");
                };
                c.get_mut().refs -= 1;
                if c.get().refs == 0 {
                    self.present -= u64::from(c.remove().present);
                }
            }
        }
    }

    /// Re-reads every candidate's presence from `g`, for when a batch
    /// committed incompletely and its contents stopped mirroring the graph.
    pub fn reprobe<G: Graph + ?Sized>(&mut self, g: &G) {
        let n = g.num_vertices();
        self.present = 0;
        for (&(s, d), c) in &mut self.candidates {
            c.present = (s as usize) < n && (d as usize) < n && g.has_edge(s, d);
            self.present += u64::from(c.present);
        }
    }

    /// How many candidates are in the graph.
    pub fn present_count(&self) -> u64 {
        self.present
    }

    /// The candidates that are in the graph, in no particular order.
    pub fn present_edges(&self) -> Vec<Edge> {
        self.candidates
            .iter()
            .filter(|(_, c)| c.present)
            .map(|(&(s, d), _)| Edge::new(s, d))
            .collect()
    }

    /// Distinct directed edges inserted by batches still inside the window,
    /// sorted by `(src, dst)`.
    ///
    /// These are *candidates*: whether an edge still exists must be checked
    /// against the current snapshot (a later delete batch may have removed
    /// it while its insert slot is still in the window).
    pub fn candidate_edges(&self) -> Vec<Edge> {
        let mut all: Vec<Edge> = self
            .candidates
            .keys()
            .map(|&(s, d)| Edge::new(s, d))
            .collect();
        all.sort_unstable_by_key(|e| (e.src, e.dst));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(s: u32, d: u32) -> Edge {
        Edge::new(s, d)
    }

    #[test]
    fn expiry_drops_oldest_batch() {
        let mut w = BatchWindow::new(2);
        w.push(1, BatchKind::Insert, &[e(0, 1)]);
        w.push(2, BatchKind::Insert, &[e(1, 2)]);
        assert_eq!(w.candidate_edges(), vec![e(0, 1), e(1, 2)]);
        w.push(3, BatchKind::Insert, &[e(2, 3)]);
        // Batch 1's edge expired.
        assert_eq!(w.candidate_edges(), vec![e(1, 2), e(2, 3)]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn delete_batches_occupy_slots_but_add_no_edges() {
        let mut w = BatchWindow::new(2);
        w.push(1, BatchKind::Insert, &[e(0, 1)]);
        w.push(2, BatchKind::Delete, &[e(0, 1)]);
        assert_eq!(w.candidate_edges(), vec![e(0, 1)]);
        w.push(3, BatchKind::Delete, &[e(9, 9)]);
        // The insert slot aged out; only delete slots remain.
        assert!(w.candidate_edges().is_empty());
    }

    #[test]
    fn candidates_dedup_within_and_across_slots() {
        let mut w = BatchWindow::new(3);
        w.push(1, BatchKind::Insert, &[e(0, 1), e(0, 1), e(2, 0)]);
        w.push(2, BatchKind::Insert, &[e(0, 1)]);
        assert_eq!(w.candidate_edges(), vec![e(0, 1), e(2, 0)]);
    }

    #[test]
    fn cap_is_at_least_one() {
        let mut w = BatchWindow::new(0);
        assert_eq!(w.cap(), 1);
        w.push(1, BatchKind::Insert, &[e(0, 1)]);
        w.push(2, BatchKind::Insert, &[e(1, 2)]);
        assert_eq!(w.candidate_edges(), vec![e(1, 2)]);
    }
}
