//! PMA-backed whole-graph baseline (PCSR-style).
//!
//! Every directed edge `(u, v)` is stored as the packed key `u << 32 | v` in
//! a single PMA, reproducing the representation whose update behaviour the
//! paper's motivation section analyzes: one big ordered gapped array where a
//! burst of inserts into one vertex's range shifts edges belonging to other
//! vertices (Fig. 2).

use lsgraph_api::batch::SortedBatch;
use lsgraph_api::{
    buffered_slices, CounterSnapshot, DynamicGraph, Edge, Footprint, Graph, MemoryFootprint,
    VertexId,
};

use crate::pma::{Pma, PmaParams};

/// A streaming graph stored as one PMA of packed edge keys.
pub struct PmaGraph {
    edges: Pma<u64>,
    degree: Vec<u32>,
}

impl PmaGraph {
    /// Bulk-loads from an edge list (self-loops kept, duplicates
    /// collapsed), over at least `n` vertices and every id the list names.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let batch = SortedBatch::new(edges);
        let mut degree = vec![0u32; n.max(batch.id_bound())];
        let mut keys = Vec::with_capacity(batch.len());
        for run in batch.runs() {
            degree[run.src as usize] = run.dsts.len() as u32;
            keys.extend(run.dsts.iter().map(|&u| Edge::new(run.src, u).key()));
        }
        PmaGraph {
            edges: Pma::from_sorted(&keys, PmaParams::default()),
            degree,
        }
    }

    /// Snapshot of the underlying PMA's search/movement counters (Fig. 4).
    pub fn counters(&self) -> CounterSnapshot {
        self.edges.counters.snapshot()
    }
}

impl Graph for PmaGraph {
    fn num_vertices(&self) -> usize {
        self.degree.len()
    }

    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.degree[v as usize] as usize
    }

    fn for_each_neighbor_slice_while(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        if self.degree[v as usize] == 0 {
            return true;
        }
        let from = (v as u64) << 32;
        let to = (v as u64 + 1) << 32;
        buffered_slices(f, |g| {
            self.edges.for_each_range_while(from, to, |k| g(k as u32))
        })
    }

    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.edges.contains(Edge::new(v, u).key())
    }
}

impl DynamicGraph for PmaGraph {
    fn insert_batch(&mut self, batch: &[Edge]) -> usize {
        let batch = SortedBatch::new(batch);
        let n = self.degree.len().max(batch.id_bound());
        self.degree.resize(n, 0);
        let mut added = 0;
        for run in batch.runs() {
            let edges = &mut self.edges;
            let n = run
                .dsts
                .iter()
                .filter(|&&u| edges.insert(Edge::new(run.src, u).key()))
                .count();
            self.degree[run.src as usize] += n as u32;
            added += n;
        }
        added
    }

    fn delete_batch(&mut self, batch: &[Edge]) -> usize {
        let mut batch = SortedBatch::new(batch);
        let n = self.degree.len();
        batch.retain_sources(|src| (src as usize) < n);
        let mut removed = 0;
        for run in batch.runs() {
            let edges = &mut self.edges;
            let n = run
                .dsts
                .iter()
                .filter(|&&u| edges.delete(Edge::new(run.src, u).key()))
                .count();
            self.degree[run.src as usize] -= n as u32;
            removed += n;
        }
        removed
    }

    fn op_counters(&self) -> Option<CounterSnapshot> {
        Some(self.counters())
    }

    fn reset_instrumentation(&mut self) {
        self.edges.counters.reset();
    }

    /// PMA invariants and degree accounting.
    fn check_invariants(&self) {
        self.edges.check_invariants();
        let mut deg = vec![0u32; self.degree.len()];
        for k in self.edges.to_vec() {
            deg[(k >> 32) as usize] += 1;
        }
        assert_eq!(deg, self.degree, "degree accounting mismatch");
    }
}

impl MemoryFootprint for PmaGraph {
    fn footprint(&self) -> Footprint {
        self.edges.footprint() + Footprint::new(0, self.degree.len() * core::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(a, b)| Edge::new(a, b)).collect()
    }

    #[test]
    fn build_and_read() {
        let g = PmaGraph::from_edges(4, &edges(&[(0, 1), (0, 2), (1, 3), (3, 0), (0, 1)]));
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), vec![1, 2]);
        assert_eq!(g.neighbors(2), Vec::<u32>::new());
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 3));
        g.check_invariants();
    }

    #[test]
    fn batch_updates() {
        let mut g = PmaGraph::from_edges(10, &[]);
        assert_eq!(g.insert_batch(&edges(&[(1, 2), (1, 3), (2, 4), (1, 2)])), 3);
        assert_eq!(g.insert_batch(&edges(&[(1, 2)])), 0);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.delete_batch(&edges(&[(1, 2), (9, 9)])), 1);
        assert_eq!(g.neighbors(1), vec![3]);
        g.check_invariants();
    }

    /// An id past the table grows it, as on every other engine, and the
    /// degree index stays in step with the PMA.
    #[test]
    fn ids_past_the_table_grow_it() {
        let g = PmaGraph::from_edges(4, &edges(&[(9, 1), (0, 12)]));
        assert_eq!(g.num_vertices(), 13);
        assert_eq!((g.degree(9), g.degree(0)), (1, 1));
        assert_eq!(g.neighbors(9), vec![1]);
        g.check_invariants();
        let mut g = PmaGraph::from_edges(4, &[]);
        assert_eq!(g.insert_batch(&edges(&[(9, 1), (2, 3), (9, 0)])), 3);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.neighbors(9), vec![0, 1]);
        assert_eq!(g.delete_batch(&edges(&[(9, 1), (30, 1)])), 1);
        assert_eq!(g.num_vertices(), 10);
        g.check_invariants();
    }

    #[test]
    fn neighbors_sorted_after_many_inserts() {
        let mut g = PmaGraph::from_edges(3, &[]);
        let mut batch = Vec::new();
        for i in (0..500u32).rev() {
            batch.push(Edge::new(1, i * 2));
        }
        g.insert_batch(&batch);
        let ns = g.neighbors(1);
        assert_eq!(ns.len(), 500);
        assert!(ns.windows(2).all(|w| w[0] < w[1]));
        g.check_invariants();
    }

    #[test]
    fn undirected_helper() {
        let mut g = PmaGraph::from_edges(5, &[]);
        g.insert_batch_undirected(&edges(&[(0, 1), (2, 3)]));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert_eq!(g.num_edges(), 4);
    }

    /// The harness's self-check runs the invariant check without moving a
    /// counter, and reports a corrupted degree table as `Err`.
    #[test]
    fn validation_records_nothing_and_catches_a_miscount() {
        let mut g = PmaGraph::from_edges(4, &edges(&[(0, 1), (0, 3), (2, 1)]));
        g.delete_batch(&edges(&[(0, 3)]));
        let counted = g.op_counters();
        assert_eq!(g.validate_structure(), Ok(()));
        assert_eq!(g.op_counters(), counted);
        g.degree[2] += 1;
        assert!(g.validate_structure().is_err());
    }
}
