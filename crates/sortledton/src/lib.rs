//! Sortledton baseline (Fuchs, Margan & Giceva, VLDB'22).
//!
//! Sortledton is a universal transactional graph structure whose per-vertex
//! neighborhoods are **unrolled skip lists**: sorted blocks of edges linked
//! at level 0, with probabilistic tower links above for logarithmic search.
//! Small neighborhoods use a plain sorted vector.
//!
//! The paper (§6.1) reports choosing PaC-tree over Sortledton as a baseline
//! after measuring PaC-tree ahead by 40.56×–142.53×; the `sortledton`
//! experiment in the harness reproduces that comparison's direction. The
//! transactional machinery (versioning, locks) of the original is out of
//! scope — this reimplementation keeps only the data-structure design, which
//! is what the update/analytics costs come from.

mod skiplist;

pub use skiplist::UnrolledSkipList;

use lsgraph_api::batch::{max_vertex_id, runs_by_src, sorted_dedup_keys};
use lsgraph_api::{DynamicGraph, Edge, Footprint, Graph, MemoryFootprint, VertexId};
use rayon::prelude::*;

/// Neighborhood size above which a vector becomes an unrolled skip list
/// (Sortledton's "small vs large neighborhood" split).
pub const VECTOR_THRESHOLD: usize = 128;

/// One vertex's adjacency.
#[derive(Clone, Debug)]
enum Neighborhood {
    Small(Vec<u32>),
    Large(Box<UnrolledSkipList>),
}

impl Neighborhood {
    fn len(&self) -> usize {
        match self {
            Neighborhood::Small(v) => v.len(),
            Neighborhood::Large(l) => l.len(),
        }
    }

    fn insert(&mut self, u: u32) -> bool {
        match self {
            Neighborhood::Small(v) => match v.binary_search(&u) {
                Ok(_) => false,
                Err(i) => {
                    v.insert(i, u);
                    if v.len() > VECTOR_THRESHOLD {
                        *self = Neighborhood::Large(Box::new(UnrolledSkipList::from_sorted(v)));
                    }
                    true
                }
            },
            Neighborhood::Large(l) => l.insert(u),
        }
    }

    fn delete(&mut self, u: u32) -> bool {
        let removed = match self {
            Neighborhood::Small(v) => match v.binary_search(&u) {
                Ok(i) => {
                    v.remove(i);
                    true
                }
                Err(_) => false,
            },
            Neighborhood::Large(l) => l.delete(u),
        };
        if removed {
            if let Neighborhood::Large(l) = self {
                if l.len() * 2 < VECTOR_THRESHOLD {
                    *self = Neighborhood::Small(l.to_vec());
                }
            }
        }
        removed
    }

    fn contains(&self, u: u32) -> bool {
        match self {
            Neighborhood::Small(v) => v.binary_search(&u).is_ok(),
            Neighborhood::Large(l) => l.contains(u),
        }
    }

    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        match self {
            Neighborhood::Small(v) => v.is_empty() || f(v),
            Neighborhood::Large(l) => l.for_each_slice_while(f),
        }
    }

    fn footprint(&self) -> Footprint {
        match self {
            Neighborhood::Small(v) => Footprint::new(v.capacity() * core::mem::size_of::<u32>(), 0),
            Neighborhood::Large(l) => l.footprint(),
        }
    }
}

/// The Sortledton streaming-graph baseline.
pub struct SortledtonGraph {
    vertices: Vec<Neighborhood>,
    num_edges: usize,
}

impl SortledtonGraph {
    /// Creates an empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        SortledtonGraph {
            vertices: vec![Neighborhood::Small(Vec::new()); n],
            num_edges: 0,
        }
    }

    /// Bulk-loads from an edge list in parallel.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let keys = sorted_dedup_keys(edges);
        let n = n.max(max_vertex_id(edges).map_or(0, |m| m as usize + 1));
        let mut vertices = vec![Neighborhood::Small(Vec::new()); n];
        let built: Vec<(u32, Neighborhood)> = runs_by_src(&keys)
            .par_iter()
            .map(|run| {
                let ns: Vec<u32> = keys[run.start..run.end].iter().map(|&k| k as u32).collect();
                let nb = if ns.len() > VECTOR_THRESHOLD {
                    Neighborhood::Large(Box::new(UnrolledSkipList::from_sorted(&ns)))
                } else {
                    Neighborhood::Small(ns)
                };
                (run.src, nb)
            })
            .collect();
        for (src, nb) in built {
            vertices[src as usize] = nb;
        }
        SortledtonGraph {
            vertices,
            num_edges: keys.len(),
        }
    }

    fn grow_to(&mut self, max_id: u32) {
        if max_id as usize >= self.vertices.len() {
            self.vertices
                .resize(max_id as usize + 1, Neighborhood::Small(Vec::new()));
        }
    }

    /// Verifies per-vertex invariants and edge accounting.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        let mut total = 0;
        for (v, nb) in self.vertices.iter().enumerate() {
            let ns = self.neighbors(v as VertexId);
            assert!(
                ns.windows(2).all(|w| w[0] < w[1]),
                "vertex {v}: order violation"
            );
            if let Neighborhood::Large(l) = nb {
                l.check_invariants();
            }
            total += nb.len();
        }
        assert_eq!(total, self.num_edges);
    }
}

impl Graph for SortledtonGraph {
    fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn degree(&self, v: VertexId) -> usize {
        self.vertices[v as usize].len()
    }

    fn for_each_neighbor_slice_while(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        self.vertices[v as usize].for_each_slice_while(f)
    }

    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.vertices[v as usize].contains(u)
    }
}

impl DynamicGraph for SortledtonGraph {
    fn insert_batch(&mut self, batch: &[Edge]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let keys = sorted_dedup_keys(batch);
        if let Some(max_id) = max_vertex_id(batch) {
            self.grow_to(max_id);
        }
        let runs = runs_by_src(&keys);
        let ptr = NbPtr(self.vertices.as_mut_ptr());
        let added: usize = runs
            .par_iter()
            .map(|run| {
                // SAFETY: runs have pairwise-distinct sources; each task owns
                // its vertex exclusively.
                let nb = unsafe { ptr.at(run.src as usize) };
                let mut n = 0;
                for &k in &keys[run.start..run.end] {
                    if nb.insert(k as u32) {
                        n += 1;
                    }
                }
                n
            })
            .sum();
        self.num_edges += added;
        added
    }

    fn delete_batch(&mut self, batch: &[Edge]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let keys = sorted_dedup_keys(batch);
        let n = self.vertices.len() as u64;
        let keys: Vec<u64> = keys.into_iter().filter(|&k| (k >> 32) < n).collect();
        let runs = runs_by_src(&keys);
        let ptr = NbPtr(self.vertices.as_mut_ptr());
        let removed: usize = runs
            .par_iter()
            .map(|run| {
                // SAFETY: as in insert_batch.
                let nb = unsafe { ptr.at(run.src as usize) };
                let mut r = 0;
                for &k in &keys[run.start..run.end] {
                    if nb.delete(k as u32) {
                        r += 1;
                    }
                }
                r
            })
            .sum();
        self.num_edges -= removed;
        removed
    }
}

/// Raw pointer to the neighborhood table for disjoint per-source access.
struct NbPtr(*mut Neighborhood);
// SAFETY: disjoint-index access only; see use sites.
unsafe impl Send for NbPtr {}
// SAFETY: disjoint-index access only; see use sites.
unsafe impl Sync for NbPtr {}

impl NbPtr {
    /// # Safety
    ///
    /// `i` must be in bounds and exclusively owned by the calling task.
    #[allow(clippy::mut_from_ref)]
    unsafe fn at(&self, i: usize) -> &mut Neighborhood {
        // SAFETY: bounds and exclusivity are the caller's contract.
        unsafe { &mut *self.0.add(i) }
    }
}

impl MemoryFootprint for SortledtonGraph {
    fn footprint(&self) -> Footprint {
        self.vertices
            .par_iter()
            .map(Neighborhood::footprint)
            .reduce(Footprint::default, Footprint::add)
            + Footprint::new(
                0,
                self.vertices.len() * core::mem::size_of::<Neighborhood>(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn small_to_large_transition() {
        let mut g = SortledtonGraph::new(2);
        let batch: Vec<Edge> = (0..500u32).map(|i| Edge::new(0, i)).collect();
        assert_eq!(g.insert_batch(&batch), 500);
        assert!(matches!(g.vertices[0], Neighborhood::Large(_)));
        assert_eq!(g.neighbors(0), (0..500).collect::<Vec<_>>());
        g.check_invariants();
        // Shrink back down.
        let del: Vec<Edge> = (40..500u32).map(|i| Edge::new(0, i)).collect();
        g.delete_batch(&del);
        assert!(matches!(g.vertices[0], Neighborhood::Small(_)));
        assert_eq!(g.neighbors(0), (0..40).collect::<Vec<_>>());
        g.check_invariants();
    }

    #[test]
    fn random_differential() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut g = SortledtonGraph::new(50);
        let mut oracle: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); 50];
        for _ in 0..200 {
            let batch: Vec<Edge> = (0..100)
                .map(|_| Edge::new(rng.gen_range(0..50), rng.gen_range(0..600)))
                .collect();
            if rng.gen_bool(0.7) {
                let mut expect = 0;
                let mut uniq = batch.clone();
                uniq.sort_unstable();
                uniq.dedup();
                for e in &uniq {
                    if oracle[e.src as usize].insert(e.dst) {
                        expect += 1;
                    }
                }
                assert_eq!(g.insert_batch(&batch), expect);
            } else {
                let mut expect = 0;
                let mut uniq = batch.clone();
                uniq.sort_unstable();
                uniq.dedup();
                for e in &uniq {
                    if oracle[e.src as usize].remove(&e.dst) {
                        expect += 1;
                    }
                }
                assert_eq!(g.delete_batch(&batch), expect);
            }
        }
        g.check_invariants();
        for v in 0..50u32 {
            assert_eq!(
                g.neighbors(v),
                oracle[v as usize].iter().copied().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let mut rng = SmallRng::seed_from_u64(31);
        let es: Vec<Edge> = (0..30_000)
            .map(|_| Edge::new(rng.gen_range(0..20), rng.gen_range(0..10_000)))
            .collect();
        let bulk = SortledtonGraph::from_edges(10_000, &es);
        let mut inc = SortledtonGraph::new(10_000);
        inc.insert_batch(&es);
        assert_eq!(bulk.num_edges(), inc.num_edges());
        for v in 0..20u32 {
            assert_eq!(bulk.neighbors(v), inc.neighbors(v), "vertex {v}");
        }
        bulk.check_invariants();
    }
}
