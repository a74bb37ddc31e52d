//! External iterators over HITree nodes.
//!
//! The tree is iterated with an explicit cursor stack — one [`LiaCursor`]
//! per LIA level plus slice/RIA cursors at the leaves — so callers can drive
//! iteration lazily (streaming set intersection, merge joins) instead of
//! materializing neighbor arrays.

use super::lia::{Lia, LiaCursor, LiaStep};
use super::node::Node;
use crate::ria::RiaIter;

/// Per-node iteration state on the stack.
enum Cursor<'a> {
    Arr(core::slice::Iter<'a, u32>),
    Ria(RiaIter<'a>),
    Lia(&'a Lia, LiaCursor),
}

impl<'a> Cursor<'a> {
    fn for_node(node: &'a Node) -> Cursor<'a> {
        match node {
            Node::Arr(v) => Cursor::Arr(v.iter()),
            Node::Ria(r) => Cursor::Ria(r.iter()),
            Node::Lia(l) => Cursor::Lia(l, LiaCursor::default()),
        }
    }
}

/// Ascending iterator over a [`HiTree`](super::HiTree).
pub struct HiTreeIter<'a> {
    stack: Vec<Cursor<'a>>,
}

impl<'a> HiTreeIter<'a> {
    pub(super) fn new(root: &'a Node) -> Self {
        HiTreeIter {
            stack: vec![Cursor::for_node(root)],
        }
    }
}

impl Iterator for HiTreeIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            match self.stack.last_mut()? {
                Cursor::Arr(it) => match it.next() {
                    Some(&v) => return Some(v),
                    None => {
                        self.stack.pop();
                    }
                },
                Cursor::Ria(it) => match it.next() {
                    Some(v) => return Some(v),
                    None => {
                        self.stack.pop();
                    }
                },
                Cursor::Lia(lia, cur) => match lia.step(cur) {
                    LiaStep::Yield(v) => return Some(v),
                    LiaStep::Child(node) => self.stack.push(Cursor::for_node(node)),
                    LiaStep::Done => {
                        self.stack.pop();
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::HiTree;
    use crate::config::Config;
    use lsgraph_api::StructStats;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();

    fn cfg() -> Config {
        Config {
            m: 128,
            ..Config::default()
        }
    }

    #[test]
    fn iter_matches_to_vec_across_kinds() {
        let cfg = cfg();
        for n in [0usize, 1, 30, 100, 1_000, 20_000] {
            let v: Vec<u32> = (0..n as u32).map(|i| i * 5 + 2).collect();
            let t = HiTree::from_sorted(&v, &cfg);
            let it: Vec<u32> = t.iter().collect();
            assert_eq!(it, v, "n = {n}");
        }
    }

    #[test]
    fn iter_after_heavy_mutation() {
        let cfg = cfg();
        let mut rng = SmallRng::seed_from_u64(55);
        let mut t = HiTree::new(&cfg);
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let k = rng.gen_range(0..4_000u32);
            if rng.gen_bool(0.65) {
                t.insert(k, &cfg, &STATS);
                oracle.insert(k);
            } else {
                t.delete(k, &cfg, &STATS);
                oracle.remove(&k);
            }
        }
        let it: Vec<u32> = t.iter().collect();
        assert_eq!(it, oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn iter_is_lazy_and_resumable() {
        let cfg = cfg();
        let t = HiTree::from_sorted(&(0..1_000).collect::<Vec<_>>(), &cfg);
        let mut it = t.iter();
        assert_eq!(it.next(), Some(0));
        assert_eq!(it.next(), Some(1));
        let rest: Vec<u32> = it.collect();
        assert_eq!(rest.len(), 998);
        assert_eq!(rest[0], 2);
    }

    #[test]
    fn clustered_tree_with_children_iterates_in_order() {
        let cfg = cfg();
        let mut base: Vec<u32> = (0..300u32).map(|i| i * 1_000).collect();
        let mut t = HiTree::from_sorted(&base, &cfg);
        for k in 150_001..150_400u32 {
            t.insert(k, &cfg, &STATS);
            base.push(k);
        }
        base.sort_unstable();
        let it: Vec<u32> = t.iter().collect();
        assert_eq!(it, base);
    }
}
