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

use lsgraph_api::{bulk_or_path_copy, NeighborSet, SetTable};
use lsgraph_api::{Footprint, MemoryFootprint, OpCounters};

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
    /// Returns a new set with `x` inserted, or `None` if already present,
    /// recording operation costs into `c`.
    fn inserted_with(&self, x: u32, c: &OpCounters) -> Option<PacSet> {
        insert(&self.root, x, c).map(|root| PacSet { root })
    }

    /// Returns a new set with `x` removed, or `None` if absent, recording
    /// operation costs into `c`.
    fn deleted_with(&self, x: u32, c: &OpCounters) -> Option<PacSet> {
        delete(&self.root, x, c).map(|root| PacSet { root })
    }
}

impl Default for PacSet {
    fn default() -> Self {
        PacSet {
            root: Arc::new(PNode::Leaf(Arc::new(Vec::new()))),
        }
    }
}

impl MemoryFootprint for PacSet {
    fn footprint(&self) -> Footprint {
        Footprint::new(0, core::mem::size_of::<Self>()) + footprint_node(&self.root)
    }
}

impl NeighborSet for PacSet {
    type Ctx = OpCounters;

    fn from_sorted(sorted: &[u32], _: &OpCounters) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        PacSet {
            root: build(sorted),
        }
    }

    fn len(&self) -> usize {
        self.root.size()
    }

    fn contains(&self, x: u32, _: &OpCounters) -> bool {
        contains(&self.root, x)
    }

    /// Hands the elements over one leaf at a time.
    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        for_each_leaf(&self.root, f)
    }

    fn insert_run(&mut self, run: &[u32], c: &OpCounters) -> usize {
        bulk_or_path_copy(self, run, c, true, Self::inserted_with)
    }

    fn delete_run(&mut self, run: &[u32], c: &OpCounters) -> usize {
        bulk_or_path_copy(self, run, c, false, Self::deleted_with)
    }

    /// Verifies ordering, separator ranges, size accounting, and leaf caps.
    fn check_invariants(&self, _: &OpCounters) {
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

/// The PaC-tree streaming-graph baseline: one functional set per vertex.
pub type PacGraph = SetTable<PacSet>;

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::{DynamicGraph, Edge, Graph};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    impl PacSet {
        /// All elements, ascending.
        fn to_vec(&self) -> Vec<u32> {
            let mut v = Vec::with_capacity(self.len());
            collect(&self.root, &mut v);
            v
        }
    }

    /// Sink for the point updates' counts.
    static C: OpCounters = OpCounters::new();

    #[test]
    fn build_roundtrip_various_sizes() {
        for n in [0usize, 1, LEAF_B, 2 * LEAF_B, 2 * LEAF_B + 1, 1_000, 50_000] {
            let v: Vec<u32> = (0..n as u32).map(|i| i * 2).collect();
            let s = PacSet::from_sorted(&v, &C);
            s.check_invariants(&C);
            assert_eq!(s.to_vec(), v, "n = {n}");
        }
    }

    #[test]
    fn differential_vs_btreeset() {
        let mut rng = SmallRng::seed_from_u64(23);
        let mut s = PacSet::default();
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let x = rng.gen_range(0..4_000u32);
            if rng.gen_bool(0.6) {
                let next = s.inserted_with(x, &C);
                assert_eq!(next.is_some(), oracle.insert(x));
                if let Some(n) = next {
                    s = n;
                }
            } else {
                let next = s.deleted_with(x, &C);
                assert_eq!(next.is_some(), oracle.remove(&x));
                if let Some(n) = next {
                    s = n;
                }
            }
        }
        s.check_invariants(&C);
        assert_eq!(s.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn bulk_merge_and_minus() {
        let s = PacSet::from_sorted(&(0..5_000).map(|i| i * 2).collect::<Vec<_>>(), &C);
        let odds: Vec<u32> = (0..5_000).map(|i| i * 2 + 1).collect();
        let mut merged = s.clone();
        assert_eq!(merged.insert_run(&odds, &C), 5_000);
        assert_eq!(merged.to_vec(), (0..10_000).collect::<Vec<_>>());
        merged.check_invariants(&C);
        let mut back = merged.clone();
        assert_eq!(back.delete_run(&odds, &C), 5_000);
        assert_eq!(back.to_vec(), s.to_vec());
        back.check_invariants(&C);
        // Re-merging existing elements adds nothing.
        assert_eq!(back.clone().insert_run(&[0, 2, 4], &C), 0);
    }

    #[test]
    fn persistence() {
        let s0 = PacSet::from_sorted(&(0..10_000).collect::<Vec<_>>(), &C);
        let s1 = s0.inserted_with(50_000, &C).expect("new");
        let s2 = s1.deleted_with(1234, &C).expect("present");
        assert_eq!(s0.len(), 10_000);
        assert!(s0.contains(1234, &C));
        assert!(!s2.contains(1234, &C));
        assert!(s2.contains(50_000, &C));
        s2.check_invariants(&C);
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let mut s = PacSet::default();
        for x in 0..50_000u32 {
            s = s.inserted_with(x, &C).expect("unique");
        }
        s.check_invariants(&C);
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
