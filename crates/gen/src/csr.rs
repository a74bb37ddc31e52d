//! Static CSR snapshot (paper Fig. 1a).
//!
//! Used as an immutable ground-truth graph: analytics results computed on a
//! CSR snapshot validate the streaming engines' results on the same edge
//! set, and CSR traversal provides the static-baseline timings.

use lsgraph_api::{Edge, Footprint, Graph, MemoryFootprint, VertexId};
use rayon::prelude::*;

/// Compressed sparse row graph.
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Csr {
    /// Builds a CSR from an edge list (sorted + deduped internally).
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut keys: Vec<u64> = edges.iter().map(|e| e.key()).collect();
        keys.par_sort_unstable();
        keys.dedup();
        let n = n.max(keys.last().map_or(0, |&k| (k >> 32) as usize + 1));
        let mut offsets = vec![0usize; n + 1];
        for &k in &keys {
            offsets[(k >> 32) as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
        Csr { offsets, targets }
    }

    /// The sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors_slice(&self, v: VertexId) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

impl Graph for Csr {
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn num_edges(&self) -> usize {
        self.targets.len()
    }

    fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    fn for_each_neighbor_slice_while(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        let row = self.neighbors_slice(v);
        row.is_empty() || f(row)
    }

    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors_slice(v).binary_search(&u).is_ok()
    }
}

impl MemoryFootprint for Csr {
    fn footprint(&self) -> Footprint {
        Footprint::new(
            self.targets.len() * core::mem::size_of::<u32>(),
            self.offsets.len() * core::mem::size_of::<usize>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let edges = [
            Edge::new(0, 2),
            Edge::new(0, 1),
            Edge::new(2, 0),
            Edge::new(0, 1),
        ];
        let g = Csr::from_edges(3, &edges);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors_slice(0), &[1, 2]);
        assert_eq!(g.degree(1), 0);
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn grows_to_max_id() {
        let g = Csr::from_edges(0, &[Edge::new(5, 9)]);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.neighbors_slice(5), &[9]);
    }

    #[test]
    fn empty() {
        let g = Csr::from_edges(4, &[]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
    }
}
