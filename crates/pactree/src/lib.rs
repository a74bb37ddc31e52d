//! PaC-tree baseline (Dhulipala et al., PLDI'22): purely-functional
//! *parallel compressed* trees where arrays live **only at the leaves**.
//!
//! Unlike Aspen's C-trees (arrays attached to every tree node, hash-selected
//! chunk boundaries), a PaC-tree is a binary search tree whose leaves hold
//! sorted blocks of `B..2B` keys and whose internal nodes hold only a
//! separator and child pointers. Updates path-copy; oversized leaves split;
//! a weight-balance violation rebuilds the offending subtree (scapegoat
//! style), which keeps the tree balanced deterministically without
//! rotations — a natural fit for persistent nodes.
//!
//! **Substitution note (DESIGN.md):** the original compresses leaf blocks
//! (difference encoding); we store them raw, which only improves this
//! baseline's traversal locality, making LSGraph's measured analytics edge
//! conservative.

use std::sync::Arc;

use lsgraph_api::batch::{max_vertex_id, runs_by_src, sorted_dedup_keys};
use lsgraph_api::{
    CounterSnapshot, DynamicGraph, Edge, Footprint, Graph, MemoryFootprint, OpCounters, VertexId,
};
use rayon::prelude::*;

/// Target minimum leaf size; leaves hold at most `2 * LEAF_B` keys.
pub const LEAF_B: usize = 32;

/// Weight-balance factor: a subtree rebuilds when one side holds more than
/// `WB_NUM/WB_DEN` of its keys.
const WB_NUM: usize = 3;
const WB_DEN: usize = 4;

#[derive(Debug)]
enum PNode {
    Leaf(Arc<Vec<u32>>),
    Internal {
        /// Smallest key in the right subtree.
        sep: u32,
        size: usize,
        left: Arc<PNode>,
        right: Arc<PNode>,
    },
}

impl PNode {
    fn size(&self) -> usize {
        match self {
            PNode::Leaf(v) => v.len(),
            PNode::Internal { size, .. } => *size,
        }
    }
}

fn internal(left: Arc<PNode>, right: Arc<PNode>, sep: u32) -> Arc<PNode> {
    let size = left.size() + right.size();
    Arc::new(PNode::Internal {
        sep,
        size,
        left,
        right,
    })
}

/// Builds a balanced subtree over a sorted slice.
fn build(sorted: &[u32]) -> Arc<PNode> {
    if sorted.len() <= 2 * LEAF_B {
        return Arc::new(PNode::Leaf(Arc::new(sorted.to_vec())));
    }
    // Split on a leaf-aligned midpoint so leaves stay in `B..2B`.
    let leaves = sorted.len().div_ceil(2 * LEAF_B).max(2);
    let mid = (leaves / 2) * sorted.len() / leaves;
    let mid = mid.clamp(LEAF_B, sorted.len() - LEAF_B);
    let l = build(&sorted[..mid]);
    let r = build(&sorted[mid..]);
    internal(l, r, sorted[mid])
}

fn collect(t: &PNode, out: &mut Vec<u32>) {
    for_each_leaf(t, &mut |s| {
        out.extend_from_slice(s);
        true
    });
}

fn contains(t: &PNode, x: u32) -> bool {
    match t {
        PNode::Leaf(v) => v.binary_search(&x).is_ok(),
        PNode::Internal {
            sep, left, right, ..
        } => {
            if x < *sep {
                contains(left, x)
            } else {
                contains(right, x)
            }
        }
    }
}

/// Persistent insert; returns `None` when `x` is already present.
/// Records descent steps, leaf path-copy moves, and scapegoat rebuilds
/// into `c`.
fn insert(t: &Arc<PNode>, x: u32, c: &OpCounters) -> Option<Arc<PNode>> {
    c.search_steps.record(1);
    match t.as_ref() {
        PNode::Leaf(v) => {
            let i = match v.binary_search(&x) {
                Ok(_) => return None,
                Err(i) => i,
            };
            let mut nv = Vec::with_capacity(v.len() + 1);
            nv.extend_from_slice(&v[..i]);
            nv.push(x);
            nv.extend_from_slice(&v[i..]);
            // Path copying rewrites the whole leaf.
            c.elements_moved.record(nv.len() as u64);
            if nv.len() > 2 * LEAF_B {
                let right: Vec<u32> = nv.split_off(nv.len() / 2);
                let sep = right[0];
                Some(internal(
                    Arc::new(PNode::Leaf(Arc::new(nv))),
                    Arc::new(PNode::Leaf(Arc::new(right))),
                    sep,
                ))
            } else {
                Some(Arc::new(PNode::Leaf(Arc::new(nv))))
            }
        }
        PNode::Internal {
            sep, left, right, ..
        } => {
            let (nl, nr) = if x < *sep {
                (insert(left, x, c)?, right.clone())
            } else {
                (left.clone(), insert(right, x, c)?)
            };
            Some(rebalance(nl, nr, *sep, c))
        }
    }
}

/// Persistent delete; returns `None` when `x` is absent.
fn delete(t: &Arc<PNode>, x: u32, c: &OpCounters) -> Option<Arc<PNode>> {
    c.search_steps.record(1);
    match t.as_ref() {
        PNode::Leaf(v) => {
            let i = v.binary_search(&x).ok()?;
            let mut nv = (**v).clone();
            nv.remove(i);
            c.elements_moved.record(nv.len() as u64);
            Some(Arc::new(PNode::Leaf(Arc::new(nv))))
        }
        PNode::Internal {
            sep, left, right, ..
        } => {
            let (nl, nr) = if x < *sep {
                (delete(left, x, c)?, right.clone())
            } else {
                (left.clone(), delete(right, x, c)?)
            };
            // Merge away underfull sides so the tree never keeps hollow
            // spines.
            if nl.size() + nr.size() <= 2 * LEAF_B {
                let mut all = Vec::with_capacity(nl.size() + nr.size());
                collect(&nl, &mut all);
                collect(&nr, &mut all);
                c.elements_moved.record(all.len() as u64);
                return Some(Arc::new(PNode::Leaf(Arc::new(all))));
            }
            Some(rebalance(nl, nr, *sep, c))
        }
    }
}

/// Scapegoat rebalance: rebuild this subtree when one side dominates.
fn rebalance(left: Arc<PNode>, right: Arc<PNode>, sep: u32, c: &OpCounters) -> Arc<PNode> {
    let (ls, rs) = (left.size(), right.size());
    let total = ls + rs;
    if total > 2 * LEAF_B && (ls * WB_DEN > total * WB_NUM || rs * WB_DEN > total * WB_NUM) {
        let mut all = Vec::with_capacity(total);
        collect(&left, &mut all);
        collect(&right, &mut all);
        c.rebuilds.record(1);
        c.elements_moved.record(total as u64);
        build(&all)
    } else {
        internal(left, right, sep)
    }
}

fn for_each_leaf(t: &PNode, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
    match t {
        PNode::Leaf(v) => v.is_empty() || f(v),
        PNode::Internal { left, right, .. } => for_each_leaf(left, f) && for_each_leaf(right, f),
    }
}

fn footprint_node(t: &PNode) -> Footprint {
    match t {
        PNode::Leaf(v) => Footprint::new(v.len() * core::mem::size_of::<u32>(), 0),
        PNode::Internal { left, right, .. } => {
            Footprint::new(0, core::mem::size_of::<PNode>())
                + footprint_node(left)
                + footprint_node(right)
        }
    }
}

/// A purely-functional ordered `u32` set with arrays only at leaves.
#[derive(Clone, Debug)]
pub struct PacSet {
    root: Arc<PNode>,
}

impl PacSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PacSet {
            root: Arc::new(PNode::Leaf(Arc::new(Vec::new()))),
        }
    }

    /// Builds from a sorted duplicate-free slice.
    pub fn from_sorted(sorted: &[u32]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        PacSet {
            root: build(sorted),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.root.size()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns whether `x` is present.
    pub fn contains(&self, x: u32) -> bool {
        contains(&self.root, x)
    }

    /// Returns a new set with `x` inserted, or `None` if already present.
    pub fn inserted(&self, x: u32) -> Option<PacSet> {
        self.inserted_with(x, &OpCounters::new())
    }

    /// Like [`PacSet::inserted`], recording operation costs into `c`.
    pub fn inserted_with(&self, x: u32, c: &OpCounters) -> Option<PacSet> {
        insert(&self.root, x, c).map(|root| PacSet { root })
    }

    /// Returns a new set with `x` removed, or `None` if absent.
    pub fn deleted(&self, x: u32) -> Option<PacSet> {
        self.deleted_with(x, &OpCounters::new())
    }

    /// Like [`PacSet::deleted`], recording operation costs into `c`.
    pub fn deleted_with(&self, x: u32, c: &OpCounters) -> Option<PacSet> {
        delete(&self.root, x, c).map(|root| PacSet { root })
    }

    /// Returns a new set containing the union with a sorted duplicate-free
    /// slice, plus the count of genuinely new elements — the join-based bulk
    /// update PaC-trees are designed around.
    pub fn merged_with_sorted(&self, items: &[u32]) -> (PacSet, usize) {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        let cur = self.to_vec();
        let mut merged = Vec::with_capacity(cur.len() + items.len());
        let mut added = 0;
        let (mut i, mut j) = (0, 0);
        while i < cur.len() || j < items.len() {
            if j >= items.len() || (i < cur.len() && cur[i] < items[j]) {
                merged.push(cur[i]);
                i += 1;
            } else if i >= cur.len() || items[j] < cur[i] {
                merged.push(items[j]);
                j += 1;
                added += 1;
            } else {
                merged.push(cur[i]);
                i += 1;
                j += 1;
            }
        }
        (PacSet::from_sorted(&merged), added)
    }

    /// Returns a new set without the elements of a sorted duplicate-free
    /// slice, plus the number actually removed (bulk difference).
    pub fn minus_sorted(&self, items: &[u32]) -> (PacSet, usize) {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        let cur = self.to_vec();
        let mut kept = Vec::with_capacity(cur.len());
        let mut j = 0;
        for &x in &cur {
            while j < items.len() && items[j] < x {
                j += 1;
            }
            if j < items.len() && items[j] == x {
                j += 1;
            } else {
                kept.push(x);
            }
        }
        let removed = cur.len() - kept.len();
        (PacSet::from_sorted(&kept), removed)
    }

    /// Hands the elements to `f` in ascending order, one leaf at a time,
    /// until `f` returns `false`; returns whether the walk completed.
    pub fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        for_each_leaf(&self.root, f)
    }

    /// Collects all elements into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len());
        collect(&self.root, &mut v);
        v
    }

    /// Verifies ordering, separator ranges, size accounting, and leaf caps.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        fn walk(t: &PNode, lo: Option<u32>, hi: Option<u32>) -> usize {
            match t {
                PNode::Leaf(v) => {
                    assert!(v.windows(2).all(|w| w[0] < w[1]), "leaf unsorted");
                    assert!(v.len() <= 2 * LEAF_B, "leaf too large: {}", v.len());
                    for &x in v.iter() {
                        assert!(lo.is_none_or(|l| x >= l));
                        assert!(hi.is_none_or(|h| x < h));
                    }
                    v.len()
                }
                PNode::Internal {
                    sep,
                    size,
                    left,
                    right,
                } => {
                    assert!(left.size() > 0 && right.size() > 0, "hollow internal node");
                    let ls = walk(left, lo, Some(*sep));
                    let rs = walk(right, Some(*sep), hi);
                    assert_eq!(ls + rs, *size, "size accounting");
                    ls + rs
                }
            }
        }
        let n = walk(&self.root, None, None);
        assert_eq!(n, self.len());
    }
}

impl Default for PacSet {
    fn default() -> Self {
        PacSet::new()
    }
}

impl MemoryFootprint for PacSet {
    fn footprint(&self) -> Footprint {
        footprint_node(&self.root)
    }
}

/// The PaC-tree streaming-graph baseline: one functional set per vertex.
pub struct PacGraph {
    vertices: Vec<PacSet>,
    num_edges: usize,
    counters: OpCounters,
}

impl PacGraph {
    /// Creates an empty graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        PacGraph {
            vertices: vec![PacSet::new(); n],
            num_edges: 0,
            counters: OpCounters::new(),
        }
    }

    /// Snapshot of the update-path operation counters.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Resets the operation counters to zero.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Bulk-loads from an edge list in parallel.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let keys = sorted_dedup_keys(edges);
        let n = n.max(max_vertex_id(edges).map_or(0, |m| m as usize + 1));
        let mut vertices = vec![PacSet::new(); n];
        let built: Vec<(u32, PacSet)> = runs_by_src(&keys)
            .par_iter()
            .map(|run| {
                let ns: Vec<u32> = keys[run.start..run.end].iter().map(|&k| k as u32).collect();
                (run.src, PacSet::from_sorted(&ns))
            })
            .collect();
        for (src, set) in built {
            vertices[src as usize] = set;
        }
        PacGraph {
            vertices,
            num_edges: keys.len(),
            counters: OpCounters::new(),
        }
    }

    /// O(V) snapshot sharing all edge structure.
    pub fn snapshot(&self) -> PacGraph {
        PacGraph {
            vertices: self.vertices.clone(),
            num_edges: self.num_edges,
            counters: OpCounters::new(),
        }
    }

    /// Verifies every vertex set and edge accounting.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        let mut total = 0;
        for set in &self.vertices {
            set.check_invariants();
            total += set.len();
        }
        assert_eq!(total, self.num_edges);
    }

    fn grow_to(&mut self, max_id: u32) {
        if max_id as usize >= self.vertices.len() {
            self.vertices.resize(max_id as usize + 1, PacSet::new());
        }
    }
}

impl Graph for PacGraph {
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

impl DynamicGraph for PacGraph {
    fn insert_batch(&mut self, batch: &[Edge]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let keys = sorted_dedup_keys(batch);
        if let Some(max_id) = max_vertex_id(batch) {
            self.grow_to(max_id);
        }
        let runs = runs_by_src(&keys);
        let vertices = &self.vertices;
        let counters = &self.counters;
        let built: Vec<(u32, PacSet, usize)> = runs
            .par_iter()
            .map(|run| {
                let set = &vertices[run.src as usize];
                let items: Vec<u32> = keys[run.start..run.end].iter().map(|&k| k as u32).collect();
                if items.len() * 4 >= set.len().max(8) {
                    let (next, added) = set.merged_with_sorted(&items);
                    counters.rebuilds.record(1);
                    counters.search_steps.record(items.len() as u64);
                    counters.elements_moved.record(next.len() as u64);
                    (run.src, next, added)
                } else {
                    let mut set = set.clone();
                    let mut added = 0;
                    for u in items {
                        if let Some(next) = set.inserted_with(u, counters) {
                            set = next;
                            added += 1;
                        }
                    }
                    (run.src, set, added)
                }
            })
            .collect();
        let mut total = 0;
        for (src, set, added) in built {
            self.vertices[src as usize] = set;
            total += added;
        }
        self.num_edges += total;
        total
    }

    fn delete_batch(&mut self, batch: &[Edge]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let keys = sorted_dedup_keys(batch);
        let n = self.vertices.len() as u64;
        let keys: Vec<u64> = keys.into_iter().filter(|&k| (k >> 32) < n).collect();
        let runs = runs_by_src(&keys);
        let vertices = &self.vertices;
        let counters = &self.counters;
        let built: Vec<(u32, PacSet, usize)> = runs
            .par_iter()
            .map(|run| {
                let set = &vertices[run.src as usize];
                let items: Vec<u32> = keys[run.start..run.end].iter().map(|&k| k as u32).collect();
                if items.len() * 4 >= set.len().max(8) {
                    let (next, removed) = set.minus_sorted(&items);
                    counters.rebuilds.record(1);
                    counters.search_steps.record(items.len() as u64);
                    counters.elements_moved.record(next.len() as u64);
                    (run.src, next, removed)
                } else {
                    let mut set = set.clone();
                    let mut removed = 0;
                    for u in items {
                        if let Some(next) = set.deleted_with(u, counters) {
                            set = next;
                            removed += 1;
                        }
                    }
                    (run.src, set, removed)
                }
            })
            .collect();
        let mut total = 0;
        for (src, set, removed) in built {
            self.vertices[src as usize] = set;
            total += removed;
        }
        self.num_edges -= total;
        total
    }

    fn op_counters(&self) -> Option<CounterSnapshot> {
        Some(self.counters.snapshot())
    }

    fn reset_instrumentation(&mut self) {
        self.counters.reset();
    }
}

impl MemoryFootprint for PacGraph {
    fn footprint(&self) -> Footprint {
        self.vertices
            .par_iter()
            .map(|s| s.footprint())
            .reduce(Footprint::default, Footprint::add)
            + Footprint::new(0, self.vertices.len() * core::mem::size_of::<PacSet>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn build_roundtrip_various_sizes() {
        for n in [0usize, 1, LEAF_B, 2 * LEAF_B, 2 * LEAF_B + 1, 1_000, 50_000] {
            let v: Vec<u32> = (0..n as u32).map(|i| i * 2).collect();
            let s = PacSet::from_sorted(&v);
            s.check_invariants();
            assert_eq!(s.to_vec(), v, "n = {n}");
        }
    }

    #[test]
    fn differential_vs_btreeset() {
        let mut rng = SmallRng::seed_from_u64(23);
        let mut s = PacSet::new();
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let x = rng.gen_range(0..4_000u32);
            if rng.gen_bool(0.6) {
                let next = s.inserted(x);
                assert_eq!(next.is_some(), oracle.insert(x));
                if let Some(n) = next {
                    s = n;
                }
            } else {
                let next = s.deleted(x);
                assert_eq!(next.is_some(), oracle.remove(&x));
                if let Some(n) = next {
                    s = n;
                }
            }
        }
        s.check_invariants();
        assert_eq!(s.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn bulk_merge_and_minus() {
        let s = PacSet::from_sorted(&(0..5_000).map(|i| i * 2).collect::<Vec<_>>());
        let odds: Vec<u32> = (0..5_000).map(|i| i * 2 + 1).collect();
        let (merged, added) = s.merged_with_sorted(&odds);
        assert_eq!(added, 5_000);
        assert_eq!(merged.to_vec(), (0..10_000).collect::<Vec<_>>());
        merged.check_invariants();
        let (back, removed) = merged.minus_sorted(&odds);
        assert_eq!(removed, 5_000);
        assert_eq!(back.to_vec(), s.to_vec());
        back.check_invariants();
        // Re-merging existing elements adds nothing.
        let (same, zero) = back.merged_with_sorted(&[0, 2, 4]);
        assert_eq!(zero, 0);
        assert_eq!(same.len(), back.len());
    }

    #[test]
    fn persistence() {
        let s0 = PacSet::from_sorted(&(0..10_000).collect::<Vec<_>>());
        let s1 = s0.inserted(50_000).expect("new");
        let s2 = s1.deleted(1234).expect("present");
        assert_eq!(s0.len(), 10_000);
        assert!(s0.contains(1234));
        assert!(!s2.contains(1234));
        assert!(s2.contains(50_000));
        s2.check_invariants();
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let mut s = PacSet::new();
        for x in 0..50_000u32 {
            s = s.inserted(x).expect("unique");
        }
        s.check_invariants();
        // Depth must be logarithmic, not linear: walk the left spine.
        fn depth(t: &PNode) -> usize {
            match t {
                PNode::Leaf(_) => 1,
                PNode::Internal { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        let d = depth(&s.root);
        assert!(d < 24, "depth {d} too large for 50k elements");
    }

    #[test]
    fn graph_update_and_restore() {
        let mut rng = SmallRng::seed_from_u64(51);
        let base: Vec<Edge> = (0..10_000)
            .map(|_| Edge::new(rng.gen_range(0..60), rng.gen_range(0..2_000)))
            .collect();
        let mut g = PacGraph::from_edges(2_000, &base);
        let before: Vec<Vec<u32>> = (0..60).map(|v| g.neighbors(v)).collect();
        let batch: Vec<Edge> = (0..3_000)
            .map(|_| Edge::new(rng.gen_range(0..60), rng.gen_range(2_000..8_000)))
            .collect();
        let a = g.insert_batch(&batch);
        let r = g.delete_batch(&batch);
        assert_eq!(a, r);
        for v in 0..60u32 {
            assert_eq!(g.neighbors(v), before[v as usize]);
        }
        g.check_invariants();
    }

    #[test]
    fn snapshot_isolation() {
        let mut g = PacGraph::from_edges(2, &[Edge::new(0, 1)]);
        let snap = g.snapshot();
        g.insert_batch(&[Edge::new(0, 5)]);
        assert_eq!(snap.neighbors(0), vec![1]);
        assert_eq!(g.neighbors(0), vec![1, 5]);
    }
}
