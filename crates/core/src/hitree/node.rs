//! HITree nodes: small sorted arrays, RIA leaves, and LIA internal nodes.

use lsgraph_api::fail_point;
use lsgraph_api::trace::{span, SpanKind};
use lsgraph_api::{Footprint, MemoryFootprint, StructStats};

use super::lia::{Lia, MAX_DEPTH};
use super::SlotOccupancy;
use crate::adjacency::clone_with_capacity;
use crate::config::Config;
use crate::ria::Ria;
use crate::search;

/// One HITree node (paper Fig. 8: a child pointer may reference a LIA, a
/// RIA, or an array).
#[derive(Debug)]
pub enum Node {
    /// Small sorted array leaf.
    Arr(Vec<u32>),
    /// Gapped-block leaf with a redundant index.
    Ria(Ria),
    /// Learned internal node.
    Lia(Box<Lia>),
}

impl Node {
    /// Builds the appropriate node kind for a sorted duplicate-free slice
    /// (Algorithm 1's dispatch between RIA and LIA, plus the array case for
    /// small children).
    pub fn from_sorted(ns: &[u32], cfg: &Config, depth: usize) -> Node {
        if ns.len() <= cfg.a {
            Node::Arr(ns.to_vec())
        } else if ns.len() <= cfg.m || depth >= MAX_DEPTH {
            Node::Ria(Ria::from_sorted(ns, cfg.alpha))
        } else {
            Node::Lia(Box::new(Lia::build(ns, cfg, depth)))
        }
    }

    /// Builds a *child* node with a progress guard: when a degenerate model
    /// funnels most of a parent into one child, recursing into another LIA
    /// would not shrink the problem, so fall back to a RIA leaf.
    pub(crate) fn from_sorted_child(
        ns: &[u32],
        cfg: &Config,
        depth: usize,
        parent_len: usize,
    ) -> Node {
        let no_progress = parent_len != usize::MAX && ns.len() * 2 > parent_len;
        if ns.len() > cfg.m && (no_progress || depth >= MAX_DEPTH) {
            return Node::Ria(Ria::from_sorted(ns, cfg.alpha));
        }
        Node::from_sorted(ns, cfg, depth)
    }

    /// Number of elements in this subtree.
    pub fn len(&self) -> usize {
        match self {
            Node::Arr(v) => v.len(),
            Node::Ria(r) => r.len(),
            Node::Lia(l) => l.len(),
        }
    }

    /// Whether this subtree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns whether `key` is present.
    pub fn contains(&self, key: u32, cfg: &Config) -> bool {
        match self {
            Node::Arr(v) => search::find(v, key).is_ok(),
            Node::Ria(r) => r.contains(key),
            Node::Lia(l) => l.contains(key, cfg),
        }
    }

    /// Inserts `key`, upgrading the node representation when it outgrows its
    /// kind (Arr → RIA at the array threshold, RIA → LIA past `M`, LIA
    /// retrain once it doubles). Returns whether the key was added.
    pub fn insert(&mut self, key: u32, cfg: &Config, depth: usize, stats: &StructStats) -> bool {
        self.maybe_upgrade(cfg, depth, stats);
        match self {
            Node::Arr(v) => match search::find(v, key) {
                Ok(_) => false,
                Err(i) => {
                    stats.record_arr_shift((v.len() - i) as u64);
                    v.insert(i, key);
                    true
                }
            },
            Node::Ria(r) => r.insert(key, stats).inserted(),
            Node::Lia(l) => l.insert(key, cfg, depth, stats),
        }
    }

    /// Deletes `key`; returns whether it was present.
    pub fn delete(&mut self, key: u32, cfg: &Config, depth: usize, stats: &StructStats) -> bool {
        match self {
            Node::Arr(v) => match search::find(v, key) {
                Ok(i) => {
                    v.remove(i);
                    stats.record_arr_shift((v.len() - i) as u64);
                    true
                }
                Err(_) => false,
            },
            Node::Ria(r) => r.delete(key, stats),
            Node::Lia(l) => l.delete(key, cfg, depth, stats),
        }
    }

    /// Upgrades the representation ahead of an insert when thresholds are
    /// crossed.
    fn maybe_upgrade(&mut self, cfg: &Config, depth: usize, stats: &StructStats) {
        let retrain = matches!(self, Node::Lia(_));
        let rebuild = match self {
            Node::Arr(v) => v.len() >= cfg.a + cfg.a / 2,
            Node::Ria(r) => r.len() > cfg.m && depth < MAX_DEPTH,
            Node::Lia(l) => l.len() >= l.built_len().saturating_mul(2),
        };
        if rebuild {
            let _span = span(if retrain {
                SpanKind::LiaRetrain
            } else {
                SpanKind::TierUpgrade
            });
            fail_point!(if retrain {
                "lia_retrain"
            } else {
                "tier_upgrade"
            });
            let all = self.to_vec();
            // Route through `from_sorted` so the right kind is chosen for the
            // new size; `depth >= MAX_DEPTH` RIAs intentionally stay RIAs.
            *self = Node::from_sorted(&all, cfg, depth);
            if retrain {
                stats.record_lia_retrain();
            } else {
                stats.record_node_upgrade();
            }
        }
    }

    /// Adds this subtree's LIA slot-type counts into `occ`.
    pub(super) fn add_slot_occupancy(&self, occ: &mut SlotOccupancy) {
        if let Node::Lia(l) = self {
            l.add_slot_occupancy(occ);
        }
    }

    /// Applies `f` to every element in ascending order.
    pub fn for_each(&self, f: &mut dyn FnMut(u32)) {
        match self {
            Node::Arr(v) => {
                for &x in v {
                    f(x);
                }
            }
            Node::Ria(r) => r.for_each(f),
            Node::Lia(l) => l.for_each(f),
        }
    }

    /// Applies `f` until it returns `false`; returns whether the scan
    /// completed.
    pub fn for_each_while(&self, f: &mut dyn FnMut(u32) -> bool) -> bool {
        match self {
            Node::Arr(v) => {
                for &x in v {
                    if !f(x) {
                        return false;
                    }
                }
                true
            }
            Node::Ria(r) => r.for_each_while(f),
            Node::Lia(l) => l.for_each_while(f),
        }
    }

    /// Smallest element, or `None` when empty.
    pub fn min_key(&self) -> Option<u32> {
        match self {
            Node::Arr(v) => v.first().copied(),
            Node::Ria(r) => {
                let mut m = None;
                r.for_each_while(|x| {
                    m = Some(x);
                    false
                });
                m
            }
            Node::Lia(l) => l.min_key(),
        }
    }

    /// Collects all elements into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each(&mut |x| v.push(x));
        v
    }

    /// Verifies structural invariants recursively.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self, cfg: &Config) {
        match self {
            Node::Arr(v) => {
                assert!(v.windows(2).all(|w| w[0] < w[1]), "array leaf unsorted");
            }
            Node::Ria(r) => r.check_invariants(),
            Node::Lia(l) => l.check_invariants(cfg),
        }
    }
}

impl Clone for Node {
    fn clone(&self) -> Self {
        match self {
            Node::Arr(v) => Node::Arr(clone_with_capacity(v)),
            Node::Ria(r) => Node::Ria(r.clone()),
            Node::Lia(l) => Node::Lia(l.clone()),
        }
    }
}

impl MemoryFootprint for Node {
    fn footprint(&self) -> Footprint {
        match self {
            Node::Arr(v) => Footprint::new(v.capacity() * core::mem::size_of::<u32>(), 0),
            Node::Ria(r) => r.footprint(),
            Node::Lia(l) => l.footprint(),
        }
    }
}
