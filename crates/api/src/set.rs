//! One sorted neighbour set per vertex: the contract the per-vertex-set
//! baselines (Aspen, PaC-tree, Sortledton) share, and the one table that
//! turns any such set into a streaming graph.
//!
//! The paper compares these engines as data-structure designs: each keeps
//! one sorted set of destinations per vertex and applies a batch sorted and
//! grouped by source. [`NeighborSet`] is that set; [`SetTable`] owns the
//! rest — the vertex table, its growth, the batch apply through
//! [`par_apply`], the edge accounting, snapshots, the invariant check and
//! the footprint — once for every set type.

use rayon::prelude::*;

use crate::batch::{par_apply, SortedBatch};
use crate::{
    CounterSnapshot, DynamicGraph, Edge, Footprint, Graph, MemoryFootprint, OpCounters, VertexId,
};

/// An ordered, duplicate-free set of `u32` destination ids: one vertex's
/// adjacency in a [`SetTable`].
pub trait NeighborSet: Default + MemoryFootprint + Send + Sync {
    /// What the run methods record into: [`OpCounters`] for a set that
    /// counts its work, `()` for one that does not.
    type Ctx: Default + Sync;

    /// Builds a set holding a strictly ascending slice.
    fn from_sorted(sorted: &[u32]) -> Self;

    /// Number of ids held.
    fn len(&self) -> usize;

    /// Whether the set holds no id.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `x` is held.
    fn contains(&self, x: u32) -> bool;

    /// Hands the ids to `f` in non-empty, strictly ascending slices until
    /// `f` returns `false`; returns whether the walk completed.
    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool;

    /// Inserts a strictly ascending run of ids (present ids are no-ops) and
    /// returns how many were new.
    fn insert_run(&mut self, run: &[u32], ctx: &Self::Ctx) -> usize;

    /// Deletes a strictly ascending run of ids (absent ids are no-ops) and
    /// returns how many were held.
    fn delete_run(&mut self, run: &[u32], ctx: &Self::Ctx) -> usize;

    /// Verifies the set's structural invariants, recording into no counter.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    fn check_invariants(&self);

    /// What `ctx` has recorded, if it records anything.
    fn counters(_ctx: &Self::Ctx) -> Option<CounterSnapshot> {
        None
    }
}

/// The functional sets' run update (Aspen's and the PaC-tree's rule, for
/// insert and delete alike): when the run is a sizeable fraction of the set
/// (run × 4 ≥ max(len, 8)), one rebuild from the set's ids `merge`d with the
/// run ([`sorted_union`] or [`sorted_difference`]); per-id path copying with `point`
/// otherwise. Returns how many ids changed.
pub fn bulk_or_path_copy<S: NeighborSet>(
    set: &mut S,
    run: &[u32],
    c: &OpCounters,
    merge: fn(&[u32], &[u32]) -> Vec<u32>,
    point: fn(&S, u32, &OpCounters) -> Option<S>,
) -> usize {
    if run.len() * 4 >= set.len().max(8) {
        let mut ids = Vec::with_capacity(set.len());
        set.for_each_slice_while(&mut |s| {
            ids.extend_from_slice(s);
            true
        });
        let next = S::from_sorted(&merge(&ids, run));
        c.rebuilds.record(1);
        c.search_steps.record(run.len() as u64);
        c.elements_moved.record(next.len() as u64);
        let changed = next.len().abs_diff(ids.len());
        *set = next;
        changed
    } else {
        let mut changed = 0;
        for &u in run {
            if let Some(next) = point(set, u, c) {
                *set = next;
                changed += 1;
            }
        }
        changed
    }
}

/// `ids` ∪ `run`, both strictly ascending.
pub fn sorted_union(ids: &[u32], run: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(ids.len() + run.len());
    let (mut i, mut j) = (0, 0);
    while i < ids.len() && j < run.len() {
        let (x, y) = (ids[i], run[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&ids[i..]);
    out.extend_from_slice(&run[j..]);
    out
}

/// `ids` ∖ `run`, both strictly ascending.
pub fn sorted_difference(ids: &[u32], run: &[u32]) -> Vec<u32> {
    let mut kept = Vec::with_capacity(ids.len());
    let mut j = 0;
    for &x in ids {
        while j < run.len() && run[j] < x {
            j += 1;
        }
        if j == run.len() || run[j] != x {
            kept.push(x);
        }
    }
    kept
}

/// A streaming graph over one [`NeighborSet`] per vertex.
pub struct SetTable<S: NeighborSet> {
    sets: Vec<S>,
    num_edges: usize,
    ctx: S::Ctx,
}

impl<S: NeighborSet + Clone> SetTable<S> {
    /// Creates an empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self::from_edges(n, &[])
    }

    /// Bulk-loads from an edge list in parallel.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let batch = SortedBatch::new(edges);
        let mut sets = vec![S::default(); n.max(batch.id_bound())];
        let num_edges = par_apply(&mut sets, &batch, |run, set| {
            *set = S::from_sorted(run.dsts);
            run.dsts.len()
        });
        SetTable {
            sets,
            num_edges,
            ctx: S::Ctx::default(),
        }
    }

    /// A copy of the graph that later updates to either side do not reach:
    /// O(V) for a functional set, whose clone shares all edge structure.
    /// Its counters start at zero.
    pub fn snapshot(&self) -> Self {
        SetTable {
            sets: self.sets.clone(),
            num_edges: self.num_edges,
            ctx: S::Ctx::default(),
        }
    }
}

impl<S: NeighborSet> Graph for SetTable<S> {
    fn num_vertices(&self) -> usize {
        self.sets.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn degree(&self, v: VertexId) -> usize {
        self.sets[v as usize].len()
    }

    fn for_each_neighbor_slice_while(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        self.sets[v as usize].for_each_slice_while(f)
    }

    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.sets[v as usize].contains(u)
    }
}

impl<S: NeighborSet + Clone> DynamicGraph for SetTable<S> {
    fn insert_batch(&mut self, batch: &[Edge]) -> usize {
        let batch = SortedBatch::new(batch);
        let n = self.sets.len().max(batch.id_bound());
        self.sets.resize(n, S::default());
        let ctx = &self.ctx;
        let added = par_apply(&mut self.sets, &batch, |run, set| {
            set.insert_run(run.dsts, ctx)
        });
        self.num_edges += added;
        added
    }

    fn delete_batch(&mut self, batch: &[Edge]) -> usize {
        let mut batch = SortedBatch::new(batch);
        let n = self.sets.len();
        batch.retain_sources(|src| (src as usize) < n);
        let ctx = &self.ctx;
        let removed = par_apply(&mut self.sets, &batch, |run, set| {
            set.delete_run(run.dsts, ctx)
        });
        self.num_edges -= removed;
        removed
    }

    fn op_counters(&self) -> Option<CounterSnapshot> {
        S::counters(&self.ctx)
    }

    fn reset_instrumentation(&mut self) {
        self.ctx = S::Ctx::default();
    }

    /// Every vertex's set, then the edge accounting.
    fn check_invariants(&self) {
        let mut total = 0;
        for set in &self.sets {
            set.check_invariants();
            total += set.len();
        }
        assert_eq!(total, self.num_edges, "edge accounting");
    }
}

impl<S: NeighborSet> MemoryFootprint for SetTable<S> {
    fn footprint(&self) -> Footprint {
        self.sets
            .par_iter()
            .map(S::footprint)
            .reduce(Footprint::default, Footprint::add)
            + Footprint::new(0, self.sets.len() * core::mem::size_of::<S>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sorted `Vec` as a set, enough to drive the table.
    #[derive(Clone, Default)]
    struct VecSet(Vec<u32>);

    impl MemoryFootprint for VecSet {
        fn footprint(&self) -> Footprint {
            Footprint::new(self.0.len() * 4, 0)
        }
    }

    impl NeighborSet for VecSet {
        type Ctx = OpCounters;

        fn from_sorted(sorted: &[u32]) -> Self {
            VecSet(sorted.to_vec())
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn contains(&self, x: u32) -> bool {
            self.0.binary_search(&x).is_ok()
        }
        fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
            self.0.is_empty() || f(&self.0)
        }
        fn insert_run(&mut self, run: &[u32], c: &OpCounters) -> usize {
            bulk_or_path_copy(self, run, c, sorted_union, VecSet::with)
        }
        fn delete_run(&mut self, run: &[u32], _: &OpCounters) -> usize {
            let before = self.0.len();
            self.0 = sorted_difference(&self.0, run);
            before - self.0.len()
        }
        fn check_invariants(&self) {
            assert!(self.0.windows(2).all(|w| w[0] < w[1]), "not ascending");
        }
        fn counters(c: &OpCounters) -> Option<CounterSnapshot> {
            Some(c.snapshot())
        }
    }

    impl VecSet {
        fn with(&self, u: u32, c: &OpCounters) -> Option<VecSet> {
            c.search_steps.record(1);
            let i = self.0.binary_search(&u).err()?;
            let mut next = self.clone();
            next.0.insert(i, u);
            Some(next)
        }
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(a, b)| Edge::new(a, b)).collect()
    }

    #[test]
    fn table_grows_counts_and_resets() {
        let mut g = SetTable::<VecSet>::from_edges(2, &edges(&[(0, 1), (0, 3)]));
        let snap = g.snapshot();
        // One id into a set of two: the per-id path; nine into none: a
        // rebuild.
        assert_eq!(g.insert_batch(&edges(&[(0, 2)])), 1);
        assert_eq!(g.op_counters().unwrap().rebuilds, 0);
        let hub: Vec<Edge> = (0..9).map(|u| Edge::new(5, u)).collect();
        assert_eq!(g.insert_batch(&hub), 9);
        assert_eq!(g.op_counters().unwrap().rebuilds, 1);
        assert_eq!((g.num_vertices(), g.num_edges()), (9, 12));
        assert_eq!(g.delete_batch(&edges(&[(0, 1), (0, 7), (40, 1)])), 1);
        assert_eq!(g.neighbors(0), [2, 3]);
        assert!(g.has_edge(5, 8) && !g.has_edge(0, 1));
        assert_eq!(snap.neighbors(0), [1, 3]);
        assert_eq!(g.footprint(), Footprint::new(44, 9 * 24));
        g.reset_instrumentation();
        assert_eq!(g.op_counters(), Some(CounterSnapshot::default()));
        assert_eq!(g.validate_structure(), Ok(()));
    }

    #[test]
    fn a_miscounted_table_fails_validation() {
        let mut g = SetTable::<VecSet>::from_edges(3, &edges(&[(0, 1), (2, 0)]));
        assert_eq!(g.validate_structure(), Ok(()));
        g.num_edges += 1;
        let counted = g.op_counters();
        let err = g.validate_structure().unwrap_err();
        assert!(err.contains("edge accounting"), "{err}");
        assert_eq!(g.op_counters(), counted);
        g.num_edges -= 1;
        g.sets[2].0.push(0);
        assert!(g
            .validate_structure()
            .unwrap_err()
            .contains("not ascending"));
    }
}
