//! Aspen baseline (Dhulipala et al., PLDI'19): low-latency graph streaming
//! with purely-functional *C-trees*.
//!
//! A C-tree stores an ordered set by hash-selecting a subset of *head*
//! elements (expected one in [`CHUNK_FACTOR`]); heads live in a functional
//! balanced search tree (here a treap with hash-derived priorities, so the
//! shape is deterministic), and each head carries a sorted *chunk* array of
//! the following non-head elements. Elements smaller than every head sit in
//! a shared prefix chunk.
//!
//! Updates are path-copying, so snapshots are O(1) per vertex and updates
//! never block readers. The cost — and the reason the paper's analytics
//! comparison favours LSGraph — is pointer-chasing during traversal.
//!
//! Chunks are difference-encoded ([`DeltaChunk`]), as in the original: that
//! is where Aspen's memory advantage comes from, paid for with sequential
//! decode on every traversal.
//!
//! **Substitution note (DESIGN.md):** real Aspen also keeps the *vertex*
//! level in a functional tree; we keep it as a flat `Vec` of cheaply
//! clonable edge sets (snapshots are O(V) pointer copies), which only
//! *helps* this baseline, so LSGraph's measured edge over it is
//! conservative.

mod varint;

pub use varint::DeltaChunk;

use std::sync::Arc;

use lsgraph_api::set::{bulk_or_path_copy, difference, union, NeighborSet, SetTable};
use lsgraph_api::{buffered_slices, CounterSnapshot, Footprint, MemoryFootprint, OpCounters};

/// Expected chunk size: one in this many elements is a head.
pub const CHUNK_FACTOR: u64 = 32;

/// Deterministic element hash (splitmix64 finalizer).
#[inline]
fn hash(x: u32) -> u64 {
    let mut z = x as u64 ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether `x` is a head element.
#[inline]
fn is_head(x: u32) -> bool {
    hash(x).is_multiple_of(CHUNK_FACTOR)
}

/// Treap priority for head `x` (distinct from the head-selection hash).
#[inline]
fn priority(x: u32) -> u64 {
    hash(x ^ 0xA5A5_5A5A)
}

/// One C-tree node: a head element, its trailing chunk, and treap links.
#[derive(Debug)]
struct CNode {
    head: u32,
    chunk: Arc<DeltaChunk>,
    prio: u64,
    left: Option<Arc<CNode>>,
    right: Option<Arc<CNode>>,
}

type Link = Option<Arc<CNode>>;

fn node(head: u32, chunk: Arc<DeltaChunk>, prio: u64, left: Link, right: Link) -> Arc<CNode> {
    Arc::new(CNode {
        head,
        chunk,
        prio,
        left,
        right,
    })
}

/// Splits by head key: `(heads < key, heads > key)`; `key` must be absent.
fn split(t: &Link, key: u32) -> (Link, Link) {
    match t {
        None => (None, None),
        Some(n) => {
            debug_assert_ne!(n.head, key);
            if key < n.head {
                let (l, r) = split(&n.left, key);
                (
                    l,
                    Some(node(n.head, n.chunk.clone(), n.prio, r, n.right.clone())),
                )
            } else {
                let (l, r) = split(&n.right, key);
                (
                    Some(node(n.head, n.chunk.clone(), n.prio, n.left.clone(), l)),
                    r,
                )
            }
        }
    }
}

/// Joins two treaps where every head in `l` precedes every head in `r`.
fn join(l: &Link, r: &Link) -> Link {
    match (l, r) {
        (None, _) => r.clone(),
        (_, None) => l.clone(),
        (Some(a), Some(b)) => {
            if a.prio >= b.prio {
                Some(node(
                    a.head,
                    a.chunk.clone(),
                    a.prio,
                    a.left.clone(),
                    join(&a.right, r),
                ))
            } else {
                Some(node(
                    b.head,
                    b.chunk.clone(),
                    b.prio,
                    join(l, &b.left),
                    b.right.clone(),
                ))
            }
        }
    }
}

/// Inserts a fresh head node (key must be absent).
fn insert_head(t: &Link, head: u32, chunk: Arc<DeltaChunk>) -> Link {
    let prio = priority(head);
    match t {
        None => Some(node(head, chunk, prio, None, None)),
        Some(n) => {
            if prio > n.prio {
                let (l, r) = split(t, head);
                Some(node(head, chunk, prio, l, r))
            } else if head < n.head {
                Some(node(
                    n.head,
                    n.chunk.clone(),
                    n.prio,
                    insert_head(&n.left, head, chunk),
                    n.right.clone(),
                ))
            } else {
                Some(node(
                    n.head,
                    n.chunk.clone(),
                    n.prio,
                    n.left.clone(),
                    insert_head(&n.right, head, chunk),
                ))
            }
        }
    }
}

/// Removes head `key`, returning the new tree (key must be present).
fn delete_head(t: &Link, key: u32) -> Link {
    let n = t.as_ref().expect("delete_head: key must be present");
    if key < n.head {
        Some(node(
            n.head,
            n.chunk.clone(),
            n.prio,
            delete_head(&n.left, key),
            n.right.clone(),
        ))
    } else if key > n.head {
        Some(node(
            n.head,
            n.chunk.clone(),
            n.prio,
            n.left.clone(),
            delete_head(&n.right, key),
        ))
    } else {
        join(&n.left, &n.right)
    }
}

/// Node with the greatest head `<= x`.
fn find_pred(t: &Link, x: u32) -> Option<&CNode> {
    find_pred_steps(t, x).0
}

/// Like [`find_pred`], also returning the number of treap nodes visited
/// (the pointer-chasing cost the paper charges Aspen for).
fn find_pred_steps(t: &Link, x: u32) -> (Option<&CNode>, u64) {
    let mut cur = t;
    let mut best: Option<&CNode> = None;
    let mut steps = 0;
    while let Some(n) = cur {
        steps += 1;
        if n.head <= x {
            best = Some(n);
            cur = &n.right;
        } else {
            cur = &n.left;
        }
    }
    (best, steps)
}

/// Path-copies to head `key` and replaces its chunk (key must be present).
fn with_chunk(t: &Link, key: u32, chunk: Arc<DeltaChunk>) -> Link {
    let n = t.as_ref().expect("with_chunk: key must be present");
    if key < n.head {
        Some(node(
            n.head,
            n.chunk.clone(),
            n.prio,
            with_chunk(&n.left, key, chunk),
            n.right.clone(),
        ))
    } else if key > n.head {
        Some(node(
            n.head,
            n.chunk.clone(),
            n.prio,
            n.left.clone(),
            with_chunk(&n.right, key, chunk),
        ))
    } else {
        Some(node(n.head, chunk, n.prio, n.left.clone(), n.right.clone()))
    }
}

fn for_each_node(t: &Link, f: &mut dyn FnMut(u32) -> bool) -> bool {
    if let Some(n) = t {
        if !for_each_node(&n.left, f) {
            return false;
        }
        if !f(n.head) {
            return false;
        }
        if !n.chunk.for_each_while(f) {
            return false;
        }
        for_each_node(&n.right, f)
    } else {
        true
    }
}

fn footprint_node(t: &Link) -> Footprint {
    match t {
        None => Footprint::default(),
        Some(n) => {
            Footprint::new(
                core::mem::size_of::<u32>() + n.chunk.byte_len(),
                core::mem::size_of::<CNode>() - core::mem::size_of::<u32>(),
            ) + footprint_node(&n.left)
                + footprint_node(&n.right)
        }
    }
}

/// A purely-functional ordered `u32` set (one vertex's edges).
#[derive(Clone, Debug, Default)]
pub struct CTreeSet {
    prefix: Arc<DeltaChunk>,
    root: Link,
    len: usize,
}

impl CTreeSet {
    /// Returns a new set with `x` inserted, or `None` if already present,
    /// recording treap descent steps and chunk re-encode element counts
    /// into `c`.
    fn inserted_with(&self, x: u32, c: &OpCounters) -> Option<CTreeSet> {
        if self.contains(x) {
            return None;
        }
        let mut out = self.clone();
        out.len += 1;
        if is_head(x) {
            // Elements after x in the covering chunk move into x's chunk.
            let (pred, steps) = find_pred_steps(&self.root, x);
            c.search_steps.record(steps);
            match pred {
                None => {
                    let pre = self.prefix.decode();
                    let cut = pre.partition_point(|&y| y < x);
                    c.elements_moved.record(pre.len() as u64);
                    out.prefix = Arc::new(DeltaChunk::encode(&pre[..cut]));
                    out.root =
                        insert_head(&self.root, x, Arc::new(DeltaChunk::encode(&pre[cut..])));
                }
                Some(p) => {
                    let chunk = p.chunk.decode();
                    let cut = chunk.partition_point(|&y| y < x);
                    c.elements_moved.record(chunk.len() as u64);
                    let kept = Arc::new(DeltaChunk::encode(&chunk[..cut]));
                    let pruned = with_chunk(&self.root, p.head, kept);
                    out.root = insert_head(&pruned, x, Arc::new(DeltaChunk::encode(&chunk[cut..])));
                }
            }
        } else {
            let (pred, steps) = find_pred_steps(&self.root, x);
            c.search_steps.record(steps);
            match pred {
                None => {
                    let mut pre = self.prefix.decode();
                    let i = pre.partition_point(|&y| y < x);
                    pre.insert(i, x);
                    c.elements_moved.record(pre.len() as u64);
                    out.prefix = Arc::new(DeltaChunk::encode(&pre));
                }
                Some(p) => {
                    let mut chunk = p.chunk.decode();
                    let i = chunk.partition_point(|&y| y < x);
                    chunk.insert(i, x);
                    c.elements_moved.record(chunk.len() as u64);
                    out.root = with_chunk(&self.root, p.head, Arc::new(DeltaChunk::encode(&chunk)));
                }
            }
        }
        Some(out)
    }

    /// Returns a new set with `x` removed, or `None` if absent, recording
    /// treap descent steps and chunk re-encode element counts into `c`.
    fn deleted_with(&self, x: u32, c: &OpCounters) -> Option<CTreeSet> {
        let mut out = self.clone();
        let (pred, steps) = find_pred_steps(&self.root, x);
        c.search_steps.record(steps);
        match pred {
            None => {
                let mut pre = self.prefix.decode();
                let i = pre.binary_search(&x).ok()?;
                pre.remove(i);
                c.elements_moved.record(pre.len() as u64);
                out.prefix = Arc::new(DeltaChunk::encode(&pre));
            }
            Some(p) if p.head == x => {
                // The head's chunk merges into the predecessor's chunk (or
                // the prefix when x was the first head).
                let orphan = p.chunk.decode();
                let removed = delete_head(&self.root, x);
                let (pred2, steps2) = find_pred_steps(&removed, x);
                c.search_steps.record(steps2);
                match pred2 {
                    None => {
                        let mut pre = self.prefix.decode();
                        pre.extend_from_slice(&orphan);
                        c.elements_moved.record(pre.len() as u64);
                        out.prefix = Arc::new(DeltaChunk::encode(&pre));
                        out.root = removed;
                    }
                    Some(q) => {
                        let mut chunk = q.chunk.decode();
                        chunk.extend_from_slice(&orphan);
                        c.elements_moved.record(chunk.len() as u64);
                        out.root =
                            with_chunk(&removed, q.head, Arc::new(DeltaChunk::encode(&chunk)));
                    }
                }
            }
            Some(p) => {
                let mut chunk = p.chunk.decode();
                let i = chunk.binary_search(&x).ok()?;
                chunk.remove(i);
                c.elements_moved.record(chunk.len() as u64);
                out.root = with_chunk(&self.root, p.head, Arc::new(DeltaChunk::encode(&chunk)));
            }
        }
        out.len -= 1;
        Some(out)
    }

    /// Applies `f` until it returns `false`; returns whether the scan
    /// completed.
    pub fn for_each_while(&self, f: &mut dyn FnMut(u32) -> bool) -> bool {
        if !self.prefix.for_each_while(f) {
            return false;
        }
        for_each_node(&self.root, f)
    }

    /// Collects all elements into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each_while(&mut |x| {
            v.push(x);
            true
        });
        v
    }
}

impl MemoryFootprint for CTreeSet {
    fn footprint(&self) -> Footprint {
        Footprint::new(self.prefix.byte_len(), 0) + footprint_node(&self.root)
    }
}

impl NeighborSet for CTreeSet {
    type Ctx = OpCounters;

    fn from_sorted(sorted: &[u32]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let first_head = sorted.iter().position(|&x| is_head(x));
        let Some(fh) = first_head else {
            return CTreeSet {
                prefix: Arc::new(DeltaChunk::encode(sorted)),
                root: None,
                len: sorted.len(),
            };
        };
        let prefix = Arc::new(DeltaChunk::encode(&sorted[..fh]));
        let mut root: Link = None;
        let mut i = fh;
        while i < sorted.len() {
            let head = sorted[i];
            let mut j = i + 1;
            while j < sorted.len() && !is_head(sorted[j]) {
                j += 1;
            }
            root = insert_head(&root, head, Arc::new(DeltaChunk::encode(&sorted[i + 1..j])));
            i = j;
        }
        CTreeSet {
            prefix,
            root,
            len: sorted.len(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, x: u32) -> bool {
        match find_pred(&self.root, x) {
            None => self.prefix.contains(x),
            Some(n) => n.head == x || n.chunk.contains(x),
        }
    }

    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        buffered_slices(f, |g| self.for_each_while(g))
    }

    fn insert_run(&mut self, run: &[u32], c: &OpCounters) -> usize {
        bulk_or_path_copy(self, run, c, union, Self::inserted_with)
    }

    fn delete_run(&mut self, run: &[u32], c: &OpCounters) -> usize {
        bulk_or_path_copy(self, run, c, difference, Self::deleted_with)
    }

    /// Verifies ordering, head selection, and length accounting.
    fn check_invariants(&self) {
        let v = self.to_vec();
        assert_eq!(v.len(), self.len, "len mismatch");
        assert!(v.windows(2).all(|w| w[0] < w[1]), "not sorted/dedup");
        self.prefix.for_each_while(&mut |x| {
            assert!(!is_head(x), "head element in prefix");
            true
        });
        fn walk(t: &Link, lo: Option<u32>, hi: Option<u32>, max_prio: u64) {
            if let Some(n) = t {
                assert!(is_head(n.head), "non-head as node head");
                assert!(n.prio <= max_prio, "heap order violated");
                assert!(lo.is_none_or(|l| n.head > l));
                assert!(hi.is_none_or(|h| n.head < h));
                n.chunk.for_each_while(&mut |x| {
                    assert!(!is_head(x), "head stored in chunk");
                    assert!(x > n.head);
                    assert!(hi.is_none_or(|h| x < h), "chunk leaks past next head");
                    true
                });
                walk(&n.left, lo, Some(n.head), n.prio);
                walk(&n.right, Some(n.head), hi, n.prio);
            }
        }
        walk(&self.root, None, None, u64::MAX);
    }

    fn counters(c: &OpCounters) -> Option<CounterSnapshot> {
        Some(c.snapshot())
    }
}

/// The Aspen streaming-graph baseline: one functional C-tree per vertex.
pub type AspenGraph = SetTable<CTreeSet>;

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::{DynamicGraph, Edge, Graph};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Sink for the point updates' counts.
    static C: OpCounters = OpCounters::new();

    #[test]
    fn ctree_roundtrip() {
        for n in [0usize, 1, 5, 100, 5_000] {
            let v: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            let s = CTreeSet::from_sorted(&v);
            s.check_invariants();
            assert_eq!(s.to_vec(), v, "n = {n}");
        }
    }

    #[test]
    fn ctree_insert_delete_differential() {
        let mut rng = SmallRng::seed_from_u64(31);
        let mut s = CTreeSet::default();
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..15_000 {
            let x = rng.gen_range(0..3_000u32);
            if rng.gen_bool(0.6) {
                let ours = s.inserted_with(x, &C);
                assert_eq!(ours.is_some(), oracle.insert(x), "insert {x}");
                if let Some(next) = ours {
                    s = next;
                }
            } else {
                let ours = s.deleted_with(x, &C);
                assert_eq!(ours.is_some(), oracle.remove(&x), "delete {x}");
                if let Some(next) = ours {
                    s = next;
                }
            }
        }
        s.check_invariants();
        assert_eq!(s.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn bulk_merge_matches_elementwise() {
        let base: Vec<u32> = (0..2_000).map(|i| i * 3).collect();
        let s = CTreeSet::from_sorted(&base);
        let items: Vec<u32> = (0..1_500).map(|i| i * 4).collect();
        let mut bulk = s.clone();
        let added = bulk.insert_run(&items, &C);
        let mut slow = s.clone();
        let mut slow_added = 0;
        for &x in &items {
            if let Some(next) = slow.inserted_with(x, &C) {
                slow = next;
                slow_added += 1;
            }
        }
        assert_eq!(added, slow_added);
        assert_eq!(bulk.to_vec(), slow.to_vec());
        bulk.check_invariants();
    }

    #[test]
    fn bulk_minus_matches_elementwise() {
        let base: Vec<u32> = (0..2_000).collect();
        let s = CTreeSet::from_sorted(&base);
        let items: Vec<u32> = (0..3_000).step_by(2).collect();
        let mut bulk = s.clone();
        assert_eq!(bulk.delete_run(&items, &C), 1_000);
        assert_eq!(bulk.to_vec(), (1..2_000).step_by(2).collect::<Vec<_>>());
        bulk.check_invariants();
    }

    #[test]
    fn persistence_old_versions_unchanged() {
        let s0 = CTreeSet::from_sorted(&(0..1_000).collect::<Vec<_>>());
        let v0 = s0.to_vec();
        let s1 = s0.inserted_with(5_000, &C).expect("new element");
        let s2 = s1.deleted_with(500, &C).expect("present");
        assert_eq!(s0.to_vec(), v0, "original mutated");
        assert!(s1.contains(5_000) && s1.contains(500));
        assert!(!s2.contains(500));
        s1.check_invariants();
        s2.check_invariants();
    }

    #[test]
    fn graph_batches() {
        let mut g = AspenGraph::new(4);
        let batch: Vec<Edge> = vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(3, 0)];
        assert_eq!(g.insert_batch(&batch), 3);
        assert_eq!(g.neighbors(0), vec![1, 2]);
        assert_eq!(g.delete_batch(&[Edge::new(0, 2), Edge::new(0, 9)]), 1);
        assert_eq!(g.neighbors(0), vec![1]);
        g.check_invariants();
    }

    #[test]
    fn snapshot_isolated_from_updates() {
        let mut g = AspenGraph::from_edges(3, &[Edge::new(0, 1), Edge::new(1, 2)]);
        let snap = g.snapshot();
        g.insert_batch(&[Edge::new(0, 2)]);
        assert_eq!(snap.neighbors(0), vec![1]);
        assert_eq!(g.neighbors(0), vec![1, 2]);
    }

    #[test]
    fn bulk_equals_incremental() {
        let mut rng = SmallRng::seed_from_u64(14);
        let es: Vec<Edge> = (0..20_000)
            .map(|_| Edge::new(rng.gen_range(0..30), rng.gen_range(0..3_000)))
            .collect();
        let bulk = AspenGraph::from_edges(3_000, &es);
        let mut inc = AspenGraph::new(3_000);
        for chunk in es.chunks(777) {
            inc.insert_batch(chunk);
        }
        assert_eq!(bulk.num_edges(), inc.num_edges());
        for v in 0..30u32 {
            assert_eq!(bulk.neighbors(v), inc.neighbors(v), "vertex {v}");
        }
        bulk.check_invariants();
        inc.check_invariants();
    }

    #[test]
    fn insert_then_delete_restores() {
        let mut rng = SmallRng::seed_from_u64(6);
        let base: Vec<Edge> = (0..5_000)
            .map(|_| Edge::new(rng.gen_range(0..50), rng.gen_range(0..1_000)))
            .collect();
        let mut g = AspenGraph::from_edges(1_000, &base);
        let before: Vec<Vec<u32>> = (0..50).map(|v| g.neighbors(v)).collect();
        let batch: Vec<Edge> = (0..2_000)
            .map(|_| Edge::new(rng.gen_range(0..50), rng.gen_range(1_000..4_000)))
            .collect();
        let a = g.insert_batch(&batch);
        let r = g.delete_batch(&batch);
        assert_eq!(a, r);
        for v in 0..50u32 {
            assert_eq!(g.neighbors(v), before[v as usize]);
        }
        g.check_invariants();
    }
}
