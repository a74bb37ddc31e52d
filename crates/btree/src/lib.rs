//! B+-tree ordered set over `u32` keys.
//!
//! Terrace stores the edges of high-degree vertices in a B-tree (paper §2.3):
//! updates touch only one leaf (small, *vertical* data movement), but
//! traversal chases child pointers, which is exactly the cache behaviour the
//! paper contrasts against LSGraph's HITree. This is a from-scratch
//! implementation — leaves hold sorted arrays, internal nodes hold separator
//! keys — sized so a leaf spans a handful of cache lines.

use lsgraph_api::{Footprint, MemoryFootprint};

/// Maximum keys per leaf (4 cache lines of `u32`).
const LEAF_CAP: usize = 64;
/// Maximum children per internal node.
const FANOUT: usize = 32;

#[derive(Clone, Debug)]
// Children stay boxed deliberately: separator shifts on split/merge then
// move 8-byte pointers instead of whole nodes, and the per-child pointer
// chase is precisely the B-tree traversal behaviour this baseline models.
#[allow(clippy::vec_box)]
enum BNode {
    Leaf(Vec<u32>),
    Internal {
        /// `keys[i]` is the smallest key in `children[i + 1]`'s subtree.
        keys: Vec<u32>,
        children: Vec<Box<BNode>>,
    },
}

/// Result of a recursive insert: a split produces a new right sibling and its
/// separator key.
enum InsertUp {
    Done(bool),
    Split(u32, Box<BNode>, bool),
}

impl BNode {
    fn contains(&self, key: u32) -> bool {
        match self {
            BNode::Leaf(v) => v.binary_search(&key).is_ok(),
            BNode::Internal { keys, children } => {
                let i = keys.partition_point(|&k| k <= key);
                children[i].contains(key)
            }
        }
    }

    fn insert(&mut self, key: u32) -> InsertUp {
        match self {
            BNode::Leaf(v) => match v.binary_search(&key) {
                Ok(_) => InsertUp::Done(false),
                Err(i) => {
                    v.insert(i, key);
                    if v.len() > LEAF_CAP {
                        let right = v.split_off(v.len() / 2);
                        let sep = right[0];
                        InsertUp::Split(sep, Box::new(BNode::Leaf(right)), true)
                    } else {
                        InsertUp::Done(true)
                    }
                }
            },
            BNode::Internal { keys, children } => {
                let i = keys.partition_point(|&k| k <= key);
                match children[i].insert(key) {
                    InsertUp::Done(added) => InsertUp::Done(added),
                    InsertUp::Split(sep, node, added) => {
                        keys.insert(i, sep);
                        children.insert(i + 1, node);
                        if children.len() > FANOUT {
                            let mid = children.len() / 2;
                            // The separator between halves moves up.
                            let right_keys = keys.split_off(mid);
                            let up = keys.pop().expect("split point inside keys");
                            let right_children = children.split_off(mid);
                            let right = Box::new(BNode::Internal {
                                keys: right_keys,
                                children: right_children,
                            });
                            InsertUp::Split(up, right, added)
                        } else {
                            InsertUp::Done(added)
                        }
                    }
                }
            }
        }
    }

    /// Deletes `key`; returns `(removed, underflow)`.
    fn delete(&mut self, key: u32) -> (bool, bool) {
        match self {
            BNode::Leaf(v) => match v.binary_search(&key) {
                Ok(i) => {
                    v.remove(i);
                    (true, v.len() < LEAF_CAP / 4)
                }
                Err(_) => (false, false),
            },
            BNode::Internal { keys, children } => {
                let i = keys.partition_point(|&k| k <= key);
                let (removed, under) = children[i].delete(key);
                if removed && under {
                    Self::fix_underflow(keys, children, i);
                }
                (removed, children.len() < 2)
            }
        }
    }

    /// Rebalances child `i` after underflow by borrowing from or merging with
    /// an adjacent sibling.
    #[allow(clippy::vec_box)]
    fn fix_underflow(keys: &mut Vec<u32>, children: &mut Vec<Box<BNode>>, i: usize) {
        let sib = if i > 0 { i - 1 } else { i + 1 };
        if sib >= children.len() {
            return; // single child: nothing to rebalance with
        }
        let (l, r) = if sib < i { (sib, i) } else { (i, sib) };
        let (a, b) = children.split_at_mut(r);
        match (a[l].as_mut(), b[0].as_mut()) {
            (BNode::Leaf(lv), BNode::Leaf(rv)) => {
                if lv.len() + rv.len() <= LEAF_CAP {
                    lv.extend_from_slice(rv);
                    children.remove(r);
                    keys.remove(l);
                } else if rv.len() > lv.len() {
                    let moved = rv.remove(0);
                    lv.push(moved);
                    keys[l] = rv[0];
                } else {
                    let moved = lv.pop().expect("left leaf cannot be empty");
                    rv.insert(0, moved);
                    keys[l] = moved;
                }
            }
            (
                BNode::Internal {
                    keys: lk,
                    children: lc,
                },
                BNode::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                if lc.len() + rc.len() <= FANOUT {
                    lk.push(keys[l]);
                    lk.append(rk);
                    lc.append(rc);
                    children.remove(r);
                    keys.remove(l);
                } else if rc.len() > lc.len() {
                    let moved_child = rc.remove(0);
                    let moved_key = rk.remove(0);
                    lk.push(keys[l]);
                    keys[l] = moved_key;
                    lc.push(moved_child);
                } else {
                    let moved_child = lc.pop().expect("left internal cannot be empty");
                    let moved_key = lk.pop().expect("left internal cannot be empty");
                    rk.insert(0, keys[l]);
                    keys[l] = moved_key;
                    rc.insert(0, moved_child);
                }
            }
            _ => unreachable!("siblings at the same depth share a kind"),
        }
    }

    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        match self {
            BNode::Leaf(v) => v.is_empty() || f(v),
            BNode::Internal { children, .. } => children.iter().all(|c| c.for_each_slice_while(f)),
        }
    }

    fn footprint(&self) -> Footprint {
        match self {
            BNode::Leaf(v) => Footprint::new(v.capacity() * 4, 0),
            BNode::Internal { keys, children } => {
                let mut fp = Footprint::new(
                    0,
                    keys.capacity() * 4 + children.capacity() * core::mem::size_of::<Box<BNode>>(),
                );
                for c in children {
                    fp += c.footprint();
                }
                fp
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            BNode::Leaf(_) => 0,
            BNode::Internal { children, .. } => 1 + children[0].depth(),
        }
    }

    fn check(&self, lo: Option<u32>, hi: Option<u32>, depth: usize, is_root: bool) -> usize {
        match self {
            BNode::Leaf(v) => {
                assert!(v.windows(2).all(|w| w[0] < w[1]), "leaf unsorted");
                assert!(v.len() <= LEAF_CAP);
                for &k in v {
                    assert!(lo.is_none_or(|l| k >= l), "key below range");
                    assert!(hi.is_none_or(|h| k < h), "key above range");
                }
                assert_eq!(depth, 0, "leaves at different depths");
                v.len()
            }
            BNode::Internal { keys, children } => {
                assert!(depth > 0);
                assert_eq!(keys.len() + 1, children.len());
                assert!(children.len() <= FANOUT);
                if !is_root {
                    assert!(children.len() >= 2);
                }
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "separators unsorted");
                let mut total = 0;
                for (i, c) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(keys[i]) };
                    total += c.check(clo, chi, depth - 1, false);
                }
                total
            }
        }
    }
}

/// An ordered `u32` set stored as a B+-tree.
#[derive(Clone, Debug)]
pub struct BTreeSet32 {
    root: BNode,
    len: usize,
}

impl BTreeSet32 {
    /// Creates an empty set.
    pub fn new() -> Self {
        BTreeSet32 {
            root: BNode::Leaf(Vec::new()),
            len: 0,
        }
    }

    /// Bulk-loads from a sorted duplicate-free slice.
    pub fn from_sorted(sorted: &[u32]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        // Build leaves at ~3/4 occupancy, then stack internal levels.
        let target = LEAF_CAP * 3 / 4;
        let mut level: Vec<(u32, Box<BNode>)> = sorted
            .chunks(target.max(1))
            .map(|c| (c[0], Box::new(BNode::Leaf(c.to_vec()))))
            .collect();
        if level.is_empty() {
            return BTreeSet32::new();
        }
        while level.len() > 1 {
            let group = FANOUT * 3 / 4;
            level = level
                .chunks_mut(group)
                .map(|chunk| {
                    let first = chunk[0].0;
                    let mut keys = Vec::with_capacity(chunk.len() - 1);
                    let mut children = Vec::with_capacity(chunk.len());
                    for (i, (k, node)) in chunk.iter_mut().enumerate() {
                        if i > 0 {
                            keys.push(*k);
                        }
                        children.push(core::mem::replace(node, Box::new(BNode::Leaf(Vec::new()))));
                    }
                    (first, Box::new(BNode::Internal { keys, children }))
                })
                .collect();
        }
        BTreeSet32 {
            root: *level.pop().expect("level cannot be empty").1,
            len: sorted.len(),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: u32) -> bool {
        self.root.contains(key)
    }

    /// Inserts `key`; returns whether it was added.
    pub fn insert(&mut self, key: u32) -> bool {
        match self.root.insert(key) {
            InsertUp::Done(added) => {
                self.len += usize::from(added);
                added
            }
            InsertUp::Split(sep, right, added) => {
                let old = core::mem::replace(&mut self.root, BNode::Leaf(Vec::new()));
                self.root = BNode::Internal {
                    keys: vec![sep],
                    children: vec![Box::new(old), right],
                };
                self.len += usize::from(added);
                added
            }
        }
    }

    /// Deletes `key`; returns whether it was present.
    pub fn delete(&mut self, key: u32) -> bool {
        let (removed, _) = self.root.delete(key);
        if removed {
            self.len -= 1;
            // Collapse roots left with a single child.
            while let BNode::Internal { children, .. } = &mut self.root {
                if children.len() == 1 {
                    self.root = *children.pop().expect("checked non-empty");
                } else {
                    break;
                }
            }
        }
        removed
    }

    /// Hands the keys to `f` in ascending order, one leaf at a time, until
    /// `f` returns `false`; returns whether the walk completed.
    pub fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        self.root.for_each_slice_while(f)
    }

    /// Removes and returns the smallest key.
    pub fn pop_min(&mut self) -> Option<u32> {
        let mut min = None;
        self.for_each_slice_while(&mut |s| {
            min = Some(s[0]);
            false
        });
        let m = min?;
        self.delete(m);
        Some(m)
    }

    /// Verifies tree invariants.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        let depth = self.root.depth();
        let total = self.root.check(None, None, depth, true);
        assert_eq!(total, self.len, "length accounting");
    }
}

impl Default for BTreeSet32 {
    fn default() -> Self {
        BTreeSet32::new()
    }
}

impl MemoryFootprint for BTreeSet32 {
    fn footprint(&self) -> Footprint {
        self.root.footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    impl BTreeSet32 {
        /// All keys, ascending.
        fn to_vec(&self) -> Vec<u32> {
            let mut v = Vec::with_capacity(self.len);
            self.for_each_slice_while(&mut |s| {
                v.extend_from_slice(s);
                true
            });
            v
        }
    }

    #[test]
    fn insert_contains_delete_small() {
        let mut t = BTreeSet32::new();
        assert!(t.insert(5));
        assert!(t.insert(1));
        assert!(!t.insert(5));
        assert!(t.contains(1) && t.contains(5) && !t.contains(2));
        assert!(t.delete(5));
        assert!(!t.delete(5));
        assert_eq!(t.to_vec(), vec![1]);
        t.check_invariants();
    }

    #[test]
    fn ascending_inserts_split_correctly() {
        let mut t = BTreeSet32::new();
        for k in 0..100_000u32 {
            assert!(t.insert(k));
        }
        t.check_invariants();
        assert_eq!(t.len(), 100_000);
        assert_eq!(t.to_vec(), (0..100_000).collect::<Vec<_>>());
    }

    #[test]
    fn descending_inserts() {
        let mut t = BTreeSet32::new();
        for k in (0..50_000u32).rev() {
            t.insert(k);
        }
        t.check_invariants();
        assert_eq!(t.to_vec(), (0..50_000).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_round_trip() {
        for n in [0usize, 1, 63, 64, 65, 1_000, 100_000] {
            let v: Vec<u32> = (0..n as u32).map(|i| i * 2).collect();
            let t = BTreeSet32::from_sorted(&v);
            t.check_invariants();
            assert_eq!(t.to_vec(), v, "n = {n}");
        }
    }

    #[test]
    fn random_differential() {
        let mut rng = SmallRng::seed_from_u64(19);
        let mut t = BTreeSet32::new();
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..60_000 {
            let k = rng.gen_range(0..10_000u32);
            if rng.gen_bool(0.55) {
                assert_eq!(t.insert(k), oracle.insert(k));
            } else {
                assert_eq!(t.delete(k), oracle.remove(&k));
            }
        }
        t.check_invariants();
        assert_eq!(t.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn delete_everything() {
        let mut t = BTreeSet32::from_sorted(&(0..10_000).collect::<Vec<_>>());
        for k in 0..10_000 {
            assert!(t.delete(k), "delete {k}");
        }
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn pop_min_drains_in_order() {
        let mut t = BTreeSet32::from_sorted(&[3, 7, 9]);
        assert_eq!(t.pop_min(), Some(3));
        assert_eq!(t.pop_min(), Some(7));
        assert_eq!(t.pop_min(), Some(9));
        assert_eq!(t.pop_min(), None);
    }

    #[test]
    fn slice_walk_goes_leaf_by_leaf_and_stops_early() {
        let t = BTreeSet32::from_sorted(&(0..1_000).collect::<Vec<_>>());
        let mut leaves = Vec::new();
        assert!(t.for_each_slice_while(&mut |s| {
            leaves.push(s.len());
            true
        }));
        assert!(leaves.len() > 1 && leaves.iter().all(|&l| l > 0));
        let mut seen = 0;
        assert!(!t.for_each_slice_while(&mut |_| {
            seen += 1;
            seen < 2
        }));
        assert_eq!(seen, 2);
    }

    #[test]
    fn footprint_nonzero() {
        let t = BTreeSet32::from_sorted(&(0..10_000).collect::<Vec<_>>());
        let fp = t.footprint();
        assert!(fp.payload_bytes >= 10_000 * 4);
    }

    #[test]
    fn interleaved_bulk_then_updates() {
        let mut t = BTreeSet32::from_sorted(&(0..5_000).map(|i| i * 4).collect::<Vec<_>>());
        for k in 0..5_000u32 {
            t.insert(k * 4 + 2);
        }
        for k in 0..5_000u32 {
            assert!(t.delete(k * 4), "delete {}", k * 4);
        }
        t.check_invariants();
        assert_eq!(t.len(), 5_000);
        assert_eq!(
            t.to_vec(),
            (0..5_000).map(|i| i * 4 + 2).collect::<Vec<_>>()
        );
    }
}
