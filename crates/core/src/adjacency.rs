//! Per-vertex spill containers and the degree-tiered transitions between
//! them (paper §4.1, Fig. 9).
//!
//! Neighbors beyond a vertex's inline cache line spill into one of:
//!
//! * a plain sorted **array** while the spill is at most `A` elements,
//! * a **RIA** up to `M` elements (or a per-vertex **PMA** under the
//!   ablation configuration),
//! * a **HITree** beyond `M` (unless the RIA-only ablation is active).
//!
//! Containers upgrade eagerly when they outgrow their tier and downgrade
//! with 2× hysteresis on deletion so oscillating workloads do not thrash.

use lsgraph_api::fail_point;
use lsgraph_api::trace::{span, SpanKind};
use lsgraph_api::{Footprint, MemoryFootprint, StructStats};
use lsgraph_pma::{Pma, PmaParams};

use crate::codec::CompressedNeighbors;
use crate::config::{Config, HighDegreeStore, MediumStore};
use crate::hitree::HiTree;
use crate::ria::Ria;
use crate::search;

/// Spill storage for one vertex's non-inline neighbors.
#[derive(Debug)]
pub enum Spill {
    /// Sorted array tier (`<= A`).
    Array(Vec<u32>),
    /// RIA tier (`<= M`).
    Ria(Ria),
    /// Per-vertex PMA tier (ablation replacement for RIA).
    Pma(Pma<u32>),
    /// HITree tier (`> M`).
    Tree(HiTree),
    /// Gap-encoded cold tier (`> M`, [`Config::compress_cold`] only): frozen
    /// delta-gap LEB128 chunks with skip pointers. Read-optimized for
    /// footprint; any write thaws it back to the writable tier first.
    Compressed(CompressedNeighbors),
}

impl Spill {
    /// Builds the right tier for a sorted duplicate-free neighbor slice.
    ///
    /// Under [`Config::compress_cold`], spills past the HITree threshold
    /// `M` freeze straight into the compressed cold tier — this is the path
    /// checkpoint restore takes, so a restored graph re-derives compressed
    /// tiers deterministically from degree + config.
    pub fn from_sorted(ns: &[u32], cfg: &Config) -> Spill {
        if cfg.compress_cold && ns.len() > cfg.m {
            return Spill::Compressed(CompressedNeighbors::from_sorted(ns));
        }
        Spill::from_sorted_writable(ns, cfg)
    }

    /// Builds the writable tier for the slice's length, never the frozen
    /// compressed tier — the thaw target for writes against a compressed
    /// spill.
    pub fn from_sorted_writable(ns: &[u32], cfg: &Config) -> Spill {
        if ns.len() <= cfg.a {
            Spill::Array(ns.to_vec())
        } else if ns.len() <= cfg.m || cfg.high == HighDegreeStore::RiaOnly {
            match cfg.medium {
                MediumStore::Ria => Spill::Ria(Ria::from_sorted(ns, cfg.alpha)),
                MediumStore::Pma => Spill::Pma(Pma::from_sorted(ns, PmaParams::dense())),
            }
        } else {
            Spill::Tree(HiTree::from_sorted(ns, cfg))
        }
    }

    /// Number of stored neighbors.
    pub fn len(&self) -> usize {
        match self {
            Spill::Array(v) => v.len(),
            Spill::Ria(r) => r.len(),
            Spill::Pma(p) => p.len(),
            Spill::Tree(t) => t.len(),
            Spill::Compressed(c) => c.len(),
        }
    }

    /// Whether the spill is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns whether `u` is present. Only the compressed tier records
    /// into `stats` (one chunk decode at most).
    pub fn contains(&self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        match self {
            Spill::Array(v) => search::find(v, u).is_ok(),
            Spill::Ria(r) => r.contains(u),
            Spill::Pma(p) => p.contains(u),
            Spill::Tree(t) => t.contains(u, cfg),
            Spill::Compressed(c) => c.contains(u, stats),
        }
    }

    /// Inserts `u`, upgrading the tier if needed; returns whether it was
    /// added. Structural movement is recorded into `stats`.
    pub fn insert(&mut self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        self.maybe_upgrade(cfg, stats);
        match self {
            Spill::Array(v) => match search::find(v, u) {
                Ok(_) => false,
                Err(i) => {
                    stats.record_arr_shift((v.len() - i) as u64);
                    v.insert(i, u);
                    true
                }
            },
            Spill::Ria(r) => r.insert(u, stats).inserted(),
            Spill::Pma(p) => p.insert(u),
            Spill::Tree(t) => t.insert(u, cfg, stats),
            Spill::Compressed(_) => unreachable!("maybe_upgrade thaws compressed spills"),
        }
    }

    /// Deletes `u`, downgrading the tier with hysteresis; returns whether it
    /// was present. Structural movement is recorded into `stats`.
    pub fn delete(&mut self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        // A frozen spill cannot absorb writes; thaw it to the writable tier
        // first (misses pay the thaw too, matching insert's upgrade path).
        self.thaw(cfg, stats);
        let removed = match self {
            Spill::Array(v) => match search::find(v, u) {
                Ok(i) => {
                    v.remove(i);
                    stats.record_arr_shift((v.len() - i) as u64);
                    true
                }
                Err(_) => false,
            },
            Spill::Ria(r) => r.delete(u, stats),
            Spill::Pma(p) => p.delete(u),
            Spill::Tree(t) => t.delete(u, cfg, stats),
            Spill::Compressed(_) => unreachable!("thawed above"),
        };
        if removed {
            self.maybe_downgrade(cfg, stats);
        }
        removed
    }

    /// Removes and returns the smallest neighbor (used to refill a vertex
    /// block's inline line after an inline delete), recording structural
    /// movement into `stats`.
    pub fn pop_min(&mut self, cfg: &Config, stats: &StructStats) -> Option<u32> {
        let min = match self {
            Spill::Array(v) => v.first().copied(),
            Spill::Ria(r) => {
                let mut m = None;
                r.for_each_while(|x| {
                    m = Some(x);
                    false
                });
                m
            }
            Spill::Pma(p) => {
                let mut m = None;
                p.for_each_range_while(0, u32::MAX, |x| {
                    m = Some(x);
                    false
                });
                m
            }
            Spill::Tree(t) => {
                let mut m = None;
                t.for_each_while(&mut |x| {
                    m = Some(x);
                    false
                });
                m
            }
            Spill::Compressed(c) => c.iter().next(),
        }?;
        let removed = self.delete(min, cfg, stats);
        debug_assert!(removed);
        Some(min)
    }

    /// Applies `f` to every neighbor in ascending order.
    pub fn for_each(&self, f: &mut dyn FnMut(u32)) {
        match self {
            Spill::Array(v) => {
                for &x in v {
                    f(x);
                }
            }
            Spill::Ria(r) => r.for_each(f),
            Spill::Pma(p) => p.for_each(&mut *f),
            Spill::Tree(t) => t.for_each(f),
            Spill::Compressed(c) => c.for_each(f),
        }
    }

    /// Applies `f` until it returns `false`; returns whether the scan
    /// completed.
    pub fn for_each_while(&self, f: &mut dyn FnMut(u32) -> bool) -> bool {
        match self {
            Spill::Array(v) => {
                for &x in v {
                    if !f(x) {
                        return false;
                    }
                }
                true
            }
            Spill::Ria(r) => r.for_each_while(f),
            Spill::Pma(p) => p.for_each_range_while(0, u32::MAX, &mut *f),
            Spill::Tree(t) => t.for_each_while(f),
            Spill::Compressed(c) => c.for_each_while(f),
        }
    }

    /// Collects all neighbors into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each(&mut |x| v.push(x));
        v
    }

    /// Appends every neighbor to `out` in ascending order, walking each
    /// tier's container natively — the checkpoint serialization visitor:
    ///
    /// * **Array**: one contiguous slice copy;
    /// * **RIA**: block-by-block via the redundant index array
    ///   ([`Ria::for_each_block`]), asserting the index/first-element
    ///   redundancy so a corrupt index cannot serialize silently;
    /// * **PMA** (ablation): occupied slots in order;
    /// * **HITree**: the tree's ascending iterator.
    pub fn checkpoint_extend(&self, out: &mut Vec<u32>) {
        match self {
            Spill::Array(v) => out.extend_from_slice(v),
            Spill::Ria(r) => r.for_each_block(|first, block| {
                debug_assert_eq!(
                    block.first().copied(),
                    (!block.is_empty()).then_some(first),
                    "RIA index entry disagrees with its block"
                );
                out.extend_from_slice(block);
            }),
            Spill::Pma(p) => out.extend(p.iter()),
            Spill::Tree(t) => out.extend(t.iter()),
            Spill::Compressed(c) => out.extend(c.iter()),
        }
    }

    /// Iterates neighbors in ascending order.
    pub fn iter(&self) -> SpillIter<'_> {
        match self {
            Spill::Array(v) => SpillIter::Arr(v.iter()),
            Spill::Ria(r) => SpillIter::Ria(r.iter()),
            Spill::Pma(p) => SpillIter::Pma(p.iter()),
            Spill::Tree(t) => SpillIter::Tree(t.iter()),
            Spill::Compressed(c) => SpillIter::Compressed(c.iter()),
        }
    }

    /// Thaws a compressed spill back to its writable tier ahead of a write;
    /// a no-op on every other tier. The `spill_compress` failpoint covers
    /// the decode window: a kill here unwinds before `self` is replaced, so
    /// the vertex keeps its frozen tier intact.
    fn thaw(&mut self, cfg: &Config, stats: &StructStats) {
        if let Spill::Compressed(c) = self {
            fail_point!("spill_compress");
            let ns = c.to_vec();
            *self = Spill::from_sorted_writable(&ns, cfg);
            stats.record_spill_thaw();
        }
    }

    /// Upgrades to the next tier ahead of an insert when this one is full.
    /// Compressed spills thaw here: the caller is about to write.
    fn maybe_upgrade(&mut self, cfg: &Config, stats: &StructStats) {
        self.thaw(cfg, stats);
        let next = match self {
            Spill::Array(v) if v.len() >= cfg.a => true,
            Spill::Ria(r) if r.len() >= cfg.m && cfg.high == HighDegreeStore::HiTree => true,
            Spill::Pma(p) if p.len() >= cfg.m && cfg.high == HighDegreeStore::HiTree => true,
            _ => false,
        };
        if next {
            let _span = span(SpanKind::TierUpgrade);
            fail_point!("tier_upgrade");
            let ns = self.to_vec();
            *self = match self {
                Spill::Array(_) => match cfg.medium {
                    MediumStore::Ria => Spill::Ria(Ria::from_sorted(&ns, cfg.alpha)),
                    MediumStore::Pma => Spill::Pma(Pma::from_sorted(&ns, PmaParams::dense())),
                },
                Spill::Ria(_) | Spill::Pma(_) => Spill::Tree(HiTree::from_sorted(&ns, cfg)),
                Spill::Tree(_) | Spill::Compressed(_) => unreachable!(),
            };
            stats.record_tier_upgrade();
        }
    }

    /// Downgrades with 2× hysteresis after deletions.
    fn maybe_downgrade(&mut self, cfg: &Config, stats: &StructStats) {
        let rebuild = match self {
            Spill::Array(_) => false,
            Spill::Ria(r) => r.len() * 2 < cfg.a,
            Spill::Pma(p) => p.len() * 2 < cfg.a,
            Spill::Tree(t) => t.len() * 2 < cfg.m,
            // Frozen spills never shrink in place: a delete thaws first.
            Spill::Compressed(_) => false,
        };
        if rebuild {
            fail_point!("spill_downgrade");
            let ns = self.to_vec();
            *self = Spill::from_sorted(&ns, cfg);
            stats.record_tier_downgrade();
        }
    }
}

/// Ascending iterator over a [`Spill`] container.
pub enum SpillIter<'a> {
    /// Array tier.
    Arr(core::slice::Iter<'a, u32>),
    /// RIA tier.
    Ria(crate::ria::RiaIter<'a>),
    /// PMA tier (ablation).
    Pma(lsgraph_pma::PmaIter<'a, u32>),
    /// HITree tier.
    Tree(crate::hitree::HiTreeIter<'a>),
    /// Compressed cold tier (streaming gap decode).
    Compressed(crate::codec::CompressedIter<'a>),
}

impl Iterator for SpillIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            SpillIter::Arr(it) => it.next().copied(),
            SpillIter::Ria(it) => it.next(),
            SpillIter::Pma(it) => it.next(),
            SpillIter::Tree(it) => it.next(),
            SpillIter::Compressed(it) => it.next(),
        }
    }
}

/// Copies a sorted array together with its capacity. The footprint of an
/// array is its `capacity()`, and `Vec::clone` allocates `len()`: a block
/// copied on write must come out the shape an in-place write would have left,
/// or the graph's layout records who was reading while it was written.
pub(crate) fn clone_with_capacity(v: &Vec<u32>) -> Vec<u32> {
    let mut copy = Vec::with_capacity(v.capacity());
    copy.extend_from_slice(v);
    copy
}

impl Clone for Spill {
    fn clone(&self) -> Self {
        match self {
            Spill::Array(v) => Spill::Array(clone_with_capacity(v)),
            Spill::Ria(r) => Spill::Ria(r.clone()),
            Spill::Pma(p) => Spill::Pma(p.clone()),
            Spill::Tree(t) => Spill::Tree(t.clone()),
            Spill::Compressed(c) => Spill::Compressed(c.clone()),
        }
    }
}

impl MemoryFootprint for Spill {
    fn footprint(&self) -> Footprint {
        match self {
            Spill::Array(v) => Footprint::new(v.capacity() * core::mem::size_of::<u32>(), 0),
            Spill::Ria(r) => r.footprint(),
            Spill::Pma(p) => p.footprint(),
            Spill::Tree(t) => t.footprint(),
            Spill::Compressed(c) => c.footprint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();
    use crate::config::LiaSearch;

    fn cfg() -> Config {
        Config {
            m: 256, // keep tier transitions reachable in small tests
            ..Config::default()
        }
    }

    #[test]
    fn grows_through_every_tier() {
        let cfg = cfg();
        let mut s = Spill::Array(Vec::new());
        for u in 0..1_000u32 {
            assert!(s.insert(u, &cfg, &STATS), "insert {u}");
        }
        assert!(matches!(s, Spill::Tree(_)), "expected HITree tier");
        assert_eq!(s.len(), 1_000);
        assert_eq!(s.to_vec(), (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn stops_at_ria_under_riaonly_ablation() {
        let mut c = cfg();
        c.high = HighDegreeStore::RiaOnly;
        let mut s = Spill::Array(Vec::new());
        for u in 0..1_000u32 {
            s.insert(u, &c, &STATS);
        }
        assert!(matches!(s, Spill::Ria(_)), "ablation should cap at RIA");
        assert_eq!(s.len(), 1_000);
    }

    #[test]
    fn pma_ablation_replaces_ria() {
        let mut c = cfg();
        c.medium = MediumStore::Pma;
        let mut s = Spill::Array(Vec::new());
        for u in 0..100u32 {
            s.insert(u, &c, &STATS);
        }
        assert!(matches!(s, Spill::Pma(_)));
        for u in 0..100u32 {
            assert!(s.contains(u, &c, &STATS));
        }
    }

    #[test]
    fn downgrades_with_hysteresis() {
        let cfg = cfg();
        let mut s = Spill::from_sorted(&(0..1_000).collect::<Vec<_>>(), &cfg);
        assert!(matches!(s, Spill::Tree(_)));
        for u in 0..960u32 {
            assert!(s.delete(u, &cfg, &STATS), "delete {u}");
        }
        assert!(!matches!(s, Spill::Tree(_)), "should have downgraded");
        assert_eq!(s.to_vec(), (960..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn pop_min_across_tiers() {
        let cfg = cfg();
        for n in [10usize, 100, 600] {
            let mut s =
                Spill::from_sorted(&(0..n as u32).map(|i| i * 2 + 4).collect::<Vec<_>>(), &cfg);
            assert_eq!(s.pop_min(&cfg, &STATS), Some(4));
            assert_eq!(s.pop_min(&cfg, &STATS), Some(6));
            assert_eq!(s.len(), n - 2);
        }
        let mut empty = Spill::Array(Vec::new());
        assert_eq!(empty.pop_min(&cfg, &STATS), None);
    }

    #[test]
    fn binary_search_ablation_same_results() {
        let mut c = cfg();
        c.lia_search = LiaSearch::Binary;
        let mut s = Spill::Array(Vec::new());
        for u in (0..2_000u32).rev() {
            s.insert(u, &c, &STATS);
        }
        assert_eq!(s.len(), 2_000);
        for u in (0..2_000).step_by(13) {
            assert!(s.contains(u, &c, &STATS));
        }
        assert!(!s.contains(5_000, &c, &STATS));
    }

    #[test]
    fn compressed_tier_freezes_and_thaws() {
        let c = cfg().with_compress_cold(true);
        let ns: Vec<u32> = (0..600u32).map(|i| i * 2).collect();
        let mut s = Spill::from_sorted(&ns, &c);
        assert!(matches!(s, Spill::Compressed(_)), "len > m should freeze");
        assert_eq!(s.len(), 600);
        assert_eq!(s.to_vec(), ns);
        assert_eq!(s.iter().collect::<Vec<_>>(), ns);
        for u in (0..1_200u32).step_by(17) {
            assert_eq!(s.contains(u, &c, &STATS), u % 2 == 0 && u < 1_200);
        }
        // Any insert thaws back to the writable tier for that degree.
        assert!(s.insert(1, &c, &STATS));
        assert!(matches!(s, Spill::Tree(_)), "thaw target is the HITree");
        assert!(s.contains(1, &c, &STATS));
        assert_eq!(s.len(), 601);
        // Deletes thaw too; a miss still pays the thaw (it is a write path).
        let mut s = Spill::from_sorted(&ns, &c);
        assert!(s.delete(0, &c, &STATS));
        assert!(!matches!(s, Spill::Compressed(_)));
        assert_eq!(s.len(), 599);
        // With the knob off the same slice stays on the writable ladder.
        let s = Spill::from_sorted(&ns, &cfg());
        assert!(matches!(s, Spill::Tree(_)));
    }

    #[test]
    fn duplicate_and_missing_handling_each_tier() {
        let cfg = cfg();
        for n in [8usize, 64, 600] {
            let ns: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
            let mut s = Spill::from_sorted(&ns, &cfg);
            assert!(!s.insert(0, &cfg, &STATS), "dup at n={n}");
            assert!(!s.delete(1, &cfg, &STATS), "missing at n={n}");
            assert_eq!(s.len(), n);
        }
    }
}
