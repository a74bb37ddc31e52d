//! The one adjacency container and its tier ladder (paper §3.2 Fig. 8,
//! §4.1 Fig. 9).
//!
//! A pointer — the vertex block's spill pointer, or a LIA block's child
//! pointer — leads to a [`Spill`]: a plain sorted **array**, a **RIA**, or a
//! **LIA** whose overflowing blocks point at further `Spill`s (the HITree).
//! Which of the three is chosen by how many ids sit behind the pointer, and
//! that choice is one function, [`kind_for`]: bulk load, the upgrade ahead
//! of an insert run, the downgrade after a delete run and the LIA's child
//! builder all ask it (`Spill::rung` lists the two rungs a growing container
//! reaches later than a built one), and a run that changes rung rebuilds
//! once. One more arm sits outside the paper's ladder: a
//! per-vertex **PMA** standing in for the RIA under the §6.2 ablation. Every
//! arm stores plain `u32` ids, as the paper does; nothing is compressed.
//!
//! `depth` is 0 behind a vertex block and grows by one per LIA level; only
//! this crate passes anything but 0.

use lsgraph_api::fail_point;
use lsgraph_api::{merged_ids, span, Footprint, MemoryFootprint, SpanKind, StructStats};
use lsgraph_pma::{Pma, PmaParams};

use crate::config::{Config, HighDegreeStore, MediumStore};
use crate::hitree::lia::Lia;
use crate::hitree::SlotOccupancy;
use crate::ria::Ria;
use crate::run::{count_fresh, merge_into, remove_from};
use crate::stats::Tier;

/// Ordered `u32` set behind one pointer: a vertex's non-inline neighbors
/// (depth 0) or the contents of a LIA's overflowing blocks (depth > 0).
#[derive(Debug)]
pub enum Spill {
    /// Sorted array.
    Array(Vec<u32>),
    /// Gapped blocks behind a redundant index.
    Ria(Ria),
    /// Learned indexed array whose overflowing blocks hold child `Spill`s —
    /// a HITree.
    Lia(Box<Lia>),
    /// Per-vertex PMA (ablation replacement for the RIA, depth 0 only).
    Pma(Box<Pma<u32>>),
}

/// A rung of the ladder, lowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Array,
    /// RIA, or the PMA that replaces it under [`MediumStore::Pma`].
    Medium,
    Lia,
}

/// Maximum LIA nesting before a child stays a RIA whatever its size
/// (defends against degenerate models causing unbounded vertical movement).
const MAX_DEPTH: usize = 16;

/// The tier ladder: the kind of container that holds `len` ids. The only
/// code in the crate that compares a length with `A` or `M`; `depth` only
/// caps the nesting.
fn kind_for(len: usize, depth: usize, cfg: &Config) -> Kind {
    if len <= cfg.a {
        Kind::Array
    } else if len <= cfg.m || depth >= MAX_DEPTH || cfg.high == HighDegreeStore::RiaOnly {
        Kind::Medium
    } else {
        Kind::Lia
    }
}

impl Spill {
    /// Builds the container for a sorted duplicate-free neighbor slice.
    pub fn from_sorted(ns: &[u32], cfg: &Config) -> Spill {
        Spill::build(kind_for(ns.len(), 0, cfg), ns, 0, cfg)
    }

    /// Builds a LIA's child from the `ns` its blocks overflowed with. When a
    /// degenerate model funnels most of the parent into one child, another
    /// LIA would not shrink the problem: such a child stays a RIA.
    pub(crate) fn from_sorted_child(
        ns: &[u32],
        cfg: &Config,
        depth: usize,
        parent_len: usize,
    ) -> Spill {
        let mut kind = kind_for(ns.len(), depth, cfg);
        if kind == Kind::Lia && ns.len() * 2 > parent_len {
            kind = Kind::Medium;
        }
        Spill::build(kind, ns, depth, cfg)
    }

    fn build(kind: Kind, ns: &[u32], depth: usize, cfg: &Config) -> Spill {
        match kind {
            Kind::Array => Spill::Array(ns.to_vec()),
            Kind::Medium if depth == 0 && cfg.medium == MediumStore::Pma => {
                Spill::Pma(Box::new(Pma::from_sorted(ns, PmaParams::dense())))
            }
            Kind::Medium => Spill::Ria(Ria::from_sorted(ns, cfg.alpha)),
            Kind::Lia => Spill::Lia(Box::new(Lia::build(ns, cfg, depth))),
        }
    }

    /// The rung this container sits on.
    fn kind(&self) -> Kind {
        match self {
            Spill::Array(_) => Kind::Array,
            Spill::Ria(_) | Spill::Pma(_) => Kind::Medium,
            Spill::Lia(_) => Kind::Lia,
        }
    }

    /// The tier a vertex holding this spill reports.
    pub fn tier(&self) -> Tier {
        match self {
            Spill::Array(_) => Tier::Array,
            Spill::Ria(_) => Tier::Ria,
            Spill::Lia(_) => Tier::HiTree,
            Spill::Pma(_) => Tier::Pma,
        }
    }

    /// Number of stored ids.
    pub fn len(&self) -> usize {
        match self {
            Spill::Array(v) => v.len(),
            Spill::Ria(r) => r.len(),
            Spill::Lia(l) => l.len(),
            Spill::Pma(p) => p.len(),
        }
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns whether `u` is present.
    pub fn contains(&self, u: u32, cfg: &Config) -> bool {
        match self {
            Spill::Array(v) => v.binary_search(&u).is_ok(),
            Spill::Ria(r) => r.contains(u),
            Spill::Lia(l) => l.contains(u, cfg),
            Spill::Pma(p) => p.contains(u),
        }
    }

    /// Inserts `u`; returns whether it was added. One id is a run of one
    /// ([`Spill::insert_run`]).
    pub fn insert(&mut self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        self.insert_run(&[u], cfg, stats) == 1
    }

    /// Deletes `u`; returns whether it was present. One id is a run of one
    /// ([`Spill::delete_run`]).
    pub fn delete(&mut self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        self.delete_run(&[u], cfg, stats) == 1
    }

    /// Inserts the ids of a strictly ascending run, first moving up the
    /// ladder — once, at the length the run leaves — if it outgrows this
    /// kind; returns how many were added. Structural movement is recorded
    /// into `stats`.
    pub fn insert_run(&mut self, run: &[u32], cfg: &Config, stats: &StructStats) -> usize {
        self.insert_run_at(run, cfg, 0, stats)
    }

    pub(crate) fn insert_run_at(
        &mut self,
        run: &[u32],
        cfg: &Config,
        depth: usize,
        stats: &StructStats,
    ) -> usize {
        if run.is_empty() {
            return 0;
        }
        if let Some(added) = self.grow(run, cfg, depth, stats) {
            return added;
        }
        match self {
            // A run of one takes the per-id body, one search and one move:
            // at one id it beats the merge below (EXPERIMENTS.md, "Runs").
            Spill::Array(v) if run.len() == 1 => match v.binary_search(&run[0]) {
                Ok(_) => 0,
                Err(i) => {
                    stats.arr_shifts.record((v.len() - i) as u64);
                    v.insert(i, run[0]);
                    1
                }
            },
            Spill::Array(v) => {
                let (old, fresh) = (v.len(), count_fresh(v, run));
                if fresh > 0 {
                    // Capacity doubles as it would for the ids one at a time,
                    // so the footprint does not depend on how they were run.
                    if old + fresh > v.capacity() {
                        let mut cap = v.capacity();
                        while cap < old + fresh {
                            cap = (cap * 2).max(4);
                        }
                        v.reserve_exact(cap - old);
                    }
                    // Placeholders, overwritten by the merge.
                    v.extend_from_slice(&run[..fresh]);
                    stats
                        .arr_shifts
                        .record(merge_into(v, old, run, fresh) as u64);
                }
                fresh
            }
            Spill::Ria(r) => r.insert_run(run, stats),
            Spill::Lia(l) => l.insert_run(run, cfg, depth, stats),
            Spill::Pma(p) => run.iter().filter(|&&u| p.insert(u)).count(),
        }
    }

    /// Deletes the ids of a strictly ascending run, then moves a vertex's
    /// spill down the ladder with 2× hysteresis ([`Spill::shrink`]); returns
    /// how many were present. Structural movement is recorded into `stats`.
    pub fn delete_run(&mut self, run: &[u32], cfg: &Config, stats: &StructStats) -> usize {
        let removed = self.delete_run_at(run, cfg, 0, stats);
        if removed > 0 {
            self.shrink(cfg, stats);
        }
        removed
    }

    /// Deletes the ids of a strictly ascending run without moving down the
    /// ladder: a child never does (its parent drops it when it empties),
    /// and a vertex's spill does once its block is done with it.
    pub(crate) fn delete_run_at(
        &mut self,
        run: &[u32],
        cfg: &Config,
        depth: usize,
        stats: &StructStats,
    ) -> usize {
        if run.is_empty() {
            return 0;
        }
        match self {
            Spill::Array(v) if run.len() == 1 => match v.binary_search(&run[0]) {
                Ok(i) => {
                    v.remove(i);
                    stats.arr_shifts.record((v.len() - i) as u64);
                    1
                }
                Err(_) => 0,
            },
            Spill::Array(v) => {
                let (kept, moved) = remove_from(v, run);
                let removed = v.len() - kept;
                v.truncate(kept);
                stats.arr_shifts.record(moved as u64);
                removed
            }
            Spill::Ria(r) => r.delete_run(run, stats),
            Spill::Lia(l) => l.delete_run(run, cfg, depth, stats),
            Spill::Pma(p) => run.iter().filter(|&&u| p.delete(u)).count(),
        }
    }

    /// Smallest id, or `None` when empty.
    pub fn min_key(&self) -> Option<u32> {
        let mut min = None;
        self.for_each_slice_while(&mut |s| {
            min = Some(s[0]);
            false
        });
        min
    }

    /// Moves the `out.len()` smallest ids (all of them, if it holds fewer)
    /// into `out` and returns how many: one walk from the front and one
    /// delete run, which refill a vertex block's inline line. The caller
    /// settles the rung ([`Spill::shrink`]).
    pub(crate) fn take_front(
        &mut self,
        out: &mut [u32],
        cfg: &Config,
        stats: &StructStats,
    ) -> usize {
        let mut n = 0;
        self.for_each_slice_while(&mut |s| {
            let take = s.len().min(out.len() - n);
            out[n..n + take].copy_from_slice(&s[..take]);
            n += take;
            n < out.len()
        });
        let taken = self.delete_run_at(&out[..n], cfg, 0, stats);
        debug_assert_eq!(taken, n);
        n
    }

    /// Hands the ids to `f` in ascending order, as non-empty slices in the
    /// arm's own unit (the array whole, a RIA block, a LIA stretch, a PMA
    /// segment), until `f` returns `false`; returns whether the walk
    /// completed.
    pub fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        match self {
            Spill::Array(v) => v.is_empty() || f(v),
            Spill::Ria(r) => r.for_each_slice_while(f),
            Spill::Lia(l) => l.for_each_slice_while(f),
            Spill::Pma(p) => p.for_each_segment_while(f),
        }
    }

    /// Collects all ids into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each_slice_while(&mut |s| {
            v.extend_from_slice(s);
            true
        });
        v
    }

    /// Adds the slot-type counts of every LIA in this container into `occ`.
    pub fn add_slot_occupancy(&self, occ: &mut SlotOccupancy) {
        if let Spill::Lia(l) = self {
            l.add_slot_occupancy(occ);
        }
    }

    /// Verifies the container's structural invariants, recursively.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self, cfg: &Config) {
        match self {
            Spill::Array(v) => assert!(v.windows(2).all(|w| w[0] < w[1]), "array unsorted"),
            Spill::Ria(r) => r.check_invariants(),
            Spill::Lia(l) => l.check_invariants(cfg),
            Spill::Pma(p) => p.check_invariants(),
        }
    }

    /// Makes this container a copy of `from` in its own buffer when the two
    /// have the same shape — arrays of the same capacity, RIAs of the same
    /// buffer length — so the copy's footprint is the one a clone would
    /// have; returns whether it did. Any other pair is left as it was.
    pub(crate) fn copy_from(&mut self, from: &Spill) -> bool {
        match (self, from) {
            (Spill::Array(mine), Spill::Array(theirs)) if mine.capacity() == theirs.capacity() => {
                mine.clear();
                mine.extend_from_slice(theirs);
                true
            }
            (Spill::Ria(mine), Spill::Ria(theirs)) => mine.copy_from(theirs),
            _ => false,
        }
    }

    /// Ahead of inserting a run: rebuilds once, around the run, on the rung
    /// the ladder names for the length the run leaves, and retrains a LIA
    /// that has doubled since its model was fitted. A kind change counts as
    /// a tier upgrade behind a vertex block and as a node upgrade inside a
    /// HITree. Returns how many ids the rebuild added, or `None` — having
    /// changed nothing — when no rebuild is due and the arm takes the run.
    /// A run of ids already present is found before anything changes: an
    /// insert that adds nothing must not rebuild or count. Only the (rare)
    /// rebuild path looks for them.
    fn grow(
        &mut self,
        run: &[u32],
        cfg: &Config,
        depth: usize,
        stats: &StructStats,
    ) -> Option<usize> {
        self.rung(self.len() + run.len() - 1, cfg, depth)?;
        let fresh = run.iter().filter(|&&u| !self.contains(u, cfg)).count();
        if fresh == 0 {
            return Some(0);
        }
        let (kind, retrain) = self.rung(self.len() + fresh - 1, cfg, depth)?;
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
        let ns = merged_ids(self.len(), run, true, |f| self.for_each_slice_while(f));
        *self = Spill::build(kind, &ns, depth, cfg);
        if retrain {
            stats.lia_model_retrains.record(1);
        } else if depth == 0 {
            stats.tier_upgrades.record(1);
        } else {
            stats.hitree_node_upgrades.record(1);
        }
        Some(fresh)
    }

    /// The rebuild due, if any, when the last id of a run goes in with
    /// `held` ids already here: the rung the ladder names, and whether it
    /// is a LIA's retrain. A run of one asks what an insert of one id always
    /// asked, so growth id by id climbs as it did.
    ///
    /// Two rungs are reached later than a bulk load reaches them, where the
    /// code this replaced put them; moving either moves measured counters,
    /// so they wait for the sweep (ROADMAP item 7). A RIA is rebuilt as a
    /// LIA one insert late, holding `M + 1`. And a child's array runs to
    /// half again the length the ladder gives an array (a child starts at
    /// `BKS + 1` ids and most never get there): the ladder is asked about
    /// two thirds of its length.
    fn rung(&self, held: usize, cfg: &Config, depth: usize) -> Option<(Kind, bool)> {
        let (asked, retrain) = match self {
            Spill::Array(_) if depth == 0 => (held + 1, false),
            Spill::Array(_) => (held * 2 / 3 + 1, false),
            Spill::Lia(l) => (held, held >= l.built_len().saturating_mul(2)),
            _ => (held, false),
        };
        let kind = kind_for(asked, depth, cfg).max(self.kind());
        (retrain || kind != self.kind()).then_some((kind, retrain))
    }

    /// After deletes at depth 0: rebuilds on a lower rung once even more
    /// than twice the ids would sit there (`2·len < A`, `2·len < M`), so
    /// oscillating workloads do not thrash.
    pub(crate) fn shrink(&mut self, cfg: &Config, stats: &StructStats) {
        if kind_for(2 * self.len() + 1, 0, cfg) < self.kind() {
            fail_point!("spill_downgrade");
            *self = Spill::from_sorted(&self.to_vec(), cfg);
            stats.tier_downgrades.record(1);
        }
    }
}

impl Clone for Spill {
    /// Derived but for the array: its footprint is its `capacity()`, and
    /// `Vec::clone` allocates `len()`. A container copied on write must come
    /// out the shape an in-place write would have left, or the graph's
    /// layout records who was reading while it was written.
    fn clone(&self) -> Self {
        match self {
            Spill::Array(v) => {
                let mut copy = Vec::with_capacity(v.capacity());
                copy.extend_from_slice(v);
                Spill::Array(copy)
            }
            Spill::Ria(r) => Spill::Ria(r.clone()),
            Spill::Lia(l) => Spill::Lia(l.clone()),
            Spill::Pma(p) => Spill::Pma(p.clone()),
        }
    }
}

impl MemoryFootprint for Spill {
    fn footprint(&self) -> Footprint {
        match self {
            Spill::Array(v) => Footprint::new(v.capacity() * core::mem::size_of::<u32>(), 0),
            Spill::Ria(r) => r.footprint(),
            Spill::Lia(l) => l.footprint(),
            Spill::Pma(p) => p.footprint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();
    use crate::config::LiaSearch;
    use crate::hitree::SlotOccupancy;

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
        assert!(matches!(s, Spill::Lia(_)), "expected HITree tier");
        assert_eq!(s.len(), 1_000);
        assert_eq!(s.to_vec(), (0..1_000).collect::<Vec<_>>());
    }

    /// One vertex grown id by id to `M + 8` and emptied again changes kind
    /// once per rung in each direction — no RIA→RIA copy at `M`, and nothing
    /// counted as a HITree node upgrade while no child exists — and what
    /// `tier()` reports is the arm at every step.
    #[test]
    fn ladder_changes_kind_once_per_rung() {
        let small = Config {
            a: 8,
            m: 64,
            ..Config::default()
        };
        for cfg in [Config::default(), small] {
            let (a, m) = (cfg.a, cfg.m);
            let stats = StructStats::new();
            let mut s = Spill::from_sorted(&[], &cfg);
            let check = |s: &Spill, want: Tier| {
                assert_eq!(s.tier(), want, "len {}", s.len());
                let arm = match s {
                    Spill::Array(_) => Tier::Array,
                    Spill::Ria(_) => Tier::Ria,
                    Spill::Lia(_) => Tier::HiTree,
                    Spill::Pma(_) => unreachable!(),
                };
                assert_eq!(arm, want, "len {}", s.len());
            };
            for u in 0..(m + 8) as u32 {
                assert!(s.insert(u, &cfg, &stats));
                // The LIA is built once the RIA holds `M + 1`.
                let want = match s.len() {
                    n if n <= a => Tier::Array,
                    n if n <= m + 1 => Tier::Ria,
                    _ => Tier::HiTree,
                };
                check(&s, want);
            }
            let snap = stats.snapshot();
            assert_eq!(snap.tier_upgrades, 2, "Array→RIA and RIA→LIA");
            assert_eq!(snap.hitree_node_upgrades, 0);
            assert_eq!(snap.lia_model_retrains, 0);
            assert_eq!(snap.tier_downgrades, 0);

            for u in 0..(m + 8) as u32 {
                assert!(s.delete(u, &cfg, &stats));
                let want = match s.len() {
                    n if 2 * n >= m => Tier::HiTree,
                    n if 2 * n >= a => Tier::Ria,
                    _ => Tier::Array,
                };
                check(&s, want);
            }
            let snap = stats.snapshot();
            assert_eq!(snap.tier_downgrades, 2, "2·len < M and 2·len < A");
            assert_eq!(snap.tier_upgrades, 2);
            assert_eq!(snap.hitree_node_upgrades, 0);
        }
    }

    /// Bulk load and id-by-id growth to the same ids choose the same arm at
    /// every length, behind a vertex block and inside a HITree — but for the
    /// two rungs growth reaches late (see `grow`), which this pins so that
    /// moving either is a visible change: a RIA holds `M + 1` before it is
    /// rebuilt, and a child's array runs to `A + A/2`.
    #[test]
    fn built_and_grown_containers_are_the_same_kind() {
        let small = Config {
            a: 8,
            m: 64,
            ..Config::default()
        };
        for (cfg, depth) in [(Config::default(), 0), (small, 0), (small, 1)] {
            let (a, m) = (cfg.a, cfg.m);
            let ns: Vec<u32> = (0..m as u32 + 2).map(|i| i * 5).collect();
            let mut grown = Spill::from_sorted_child(&[], &cfg, depth, usize::MAX);
            for len in 0..=ns.len() {
                let built = Spill::from_sorted_child(&ns[..len], &cfg, depth, usize::MAX);
                let late = if len == m + 1 {
                    Some((Tier::HiTree, Tier::Ria))
                } else if depth > 0 && a < len && len <= a + a / 2 {
                    Some((Tier::Ria, Tier::Array))
                } else {
                    None
                };
                match late {
                    Some(pair) => assert_eq!((built.tier(), grown.tier()), pair, "len {len}"),
                    None => assert_eq!(built.tier(), grown.tier(), "len {len} at {depth}"),
                }
                assert_eq!(built.to_vec(), grown.to_vec());
                if let Some(&u) = ns.get(len) {
                    assert_eq!(grown.insert_run_at(&[u], &cfg, depth, &STATS), 1);
                }
            }
            assert!(matches!(grown, Spill::Lia(_)));
        }
        // Depth 0 through the public constructor is the same build.
        let cfg = small;
        for len in [cfg.a, cfg.a + 1, cfg.m, cfg.m + 1] {
            let ns: Vec<u32> = (0..len as u32).collect();
            let child = Spill::from_sorted_child(&ns, &cfg, 0, usize::MAX);
            assert_eq!(Spill::from_sorted(&ns, &cfg).tier(), child.tier());
        }
    }

    /// A kind change inside a HITree is a node upgrade, not a tier upgrade,
    /// and a child's array is half again as long as a vertex's.
    #[test]
    fn child_kind_changes_count_as_node_upgrades() {
        let cfg = cfg();
        let stats = StructStats::new();
        let mut child = Spill::from_sorted_child(&[], &cfg, 1, usize::MAX);
        for u in 0..(cfg.a + cfg.a / 2) as u32 {
            child.insert_run_at(&[u], &cfg, 1, &stats);
        }
        assert!(matches!(child, Spill::Array(_)));
        child.insert_run_at(&[1_000], &cfg, 1, &stats);
        assert!(matches!(child, Spill::Ria(_)));
        for u in 0..(cfg.a + cfg.a / 2) as u32 {
            child.delete_run_at(&[u], &cfg, 1, &stats);
        }
        assert!(matches!(child, Spill::Ria(_)), "a child never moves down");
        let snap = stats.snapshot();
        assert_eq!((snap.hitree_node_upgrades, snap.tier_upgrades), (1, 0));
        assert_eq!(snap.tier_downgrades, 0);
    }

    /// A child that would take more than half its parent stays a RIA.
    #[test]
    fn child_without_progress_stays_a_ria() {
        let cfg = cfg();
        let ns: Vec<u32> = (0..1_000).collect();
        let child = Spill::from_sorted_child(&ns, &cfg, 1, 1_500);
        assert!(matches!(child, Spill::Ria(_)));
        let child = Spill::from_sorted_child(&ns, &cfg, 1, 5_000);
        assert!(matches!(child, Spill::Lia(_)));
    }

    /// The one walk hands over every arm's ids — array, RIA, PMA, HITree,
    /// HITree with children — as non-empty slices, ascending across slice
    /// boundaries, and a walk told to stop after any id stops right there.
    #[test]
    fn slice_walk_visits_every_arm_in_order() {
        let cfg = cfg();
        let spread: Vec<u32> = (0..600u32).map(|i| i * 1_000).collect();
        let mut clustered = Spill::from_sorted(&spread, &cfg);
        let mut with_cluster = spread.clone();
        for u in 150_001..150_400 {
            clustered.insert(u, &cfg, &STATS);
            with_cluster.push(u);
        }
        with_cluster.sort_unstable();
        let mut occ = SlotOccupancy::default();
        clustered.add_slot_occupancy(&mut occ);
        assert!(occ.child > 0);
        let pma = Config {
            medium: MediumStore::Pma,
            ..cfg
        };
        let arms = [
            (Spill::from_sorted(&spread[..20], &cfg), &spread[..20]),
            (Spill::from_sorted(&spread[..200], &cfg), &spread[..200]),
            (Spill::from_sorted(&spread[..200], &pma), &spread[..200]),
            (Spill::from_sorted(&spread, &cfg), &spread[..]),
            (clustered, &with_cluster[..]),
        ];
        let tiers: Vec<Tier> = arms.iter().map(|(s, _)| s.tier()).collect();
        assert_eq!(
            tiers,
            [
                Tier::Array,
                Tier::Ria,
                Tier::Pma,
                Tier::HiTree,
                Tier::HiTree
            ]
        );
        for (s, ids) in &arms {
            let tier = s.tier();
            let mut slices = Vec::new();
            assert!(s.for_each_slice_while(&mut |x| {
                slices.push(x.to_vec());
                true
            }));
            assert!(slices.iter().all(|x| !x.is_empty()), "{tier:?}");
            assert_eq!(slices.concat(), *ids, "{tier:?}");
            if tier != Tier::Array {
                assert!(slices.len() > 1, "{tier:?} walks in its own unit");
            }
            for k in 1..=ids.len() {
                let mut seen = Vec::new();
                let complete = s.for_each_slice_while(&mut |x| {
                    x.iter().all(|&u| {
                        seen.push(u);
                        seen.len() < k
                    })
                });
                assert!(!complete, "{tier:?} stop after {k}");
                assert_eq!(seen, ids[..k], "{tier:?} stop after {k}");
            }
        }
        assert!(Spill::Array(Vec::new()).for_each_slice_while(&mut |_| unreachable!()));
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
            assert!(s.contains(u, &c));
        }
    }

    #[test]
    fn downgrades_with_hysteresis() {
        let cfg = cfg();
        let mut s = Spill::from_sorted(&(0..1_000).collect::<Vec<_>>(), &cfg);
        assert!(matches!(s, Spill::Lia(_)));
        for u in 0..960u32 {
            assert!(s.delete(u, &cfg, &STATS), "delete {u}");
        }
        assert!(!matches!(s, Spill::Lia(_)), "should have downgraded");
        assert_eq!(s.to_vec(), (960..1_000).collect::<Vec<_>>());
    }

    /// The front take hands over the smallest ids of every arm, fewer when
    /// the container holds fewer, and leaves the rest.
    #[test]
    fn take_front_across_tiers() {
        let cfg = cfg();
        for n in [10usize, 100, 600] {
            let ids: Vec<u32> = (0..n as u32).map(|i| i * 2 + 4).collect();
            let mut s = Spill::from_sorted(&ids, &cfg);
            let mut out = [0; 3];
            assert_eq!(s.take_front(&mut out, &cfg, &STATS), 3);
            assert_eq!(out, [4, 6, 8]);
            assert_eq!(s.to_vec(), ids[3..]);
            s.check_invariants(&cfg);
            let mut all = vec![0; n];
            assert_eq!(s.take_front(&mut all, &cfg, &STATS), n - 3);
            assert_eq!(all[..n - 3], ids[3..]);
            assert!(s.is_empty());
        }
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
            assert!(s.contains(u, &c));
        }
        assert!(!s.contains(5_000, &c));
    }

    /// A duplicate insert at each of the four rungs where the next insert
    /// rebuilds — an array about to become a RIA, a RIA holding `M + 1`, a
    /// child array at `A + A/2`, a LIA that has doubled — returns `false`
    /// and leaves the arm, the ids and every counter as they were, behind a
    /// vertex block and inside a HITree alike.
    #[test]
    fn duplicate_insert_at_a_rung_rebuilds_nothing() {
        let small = Config {
            a: 8,
            m: 64,
            ..Config::default()
        };
        for cfg in [Config::default(), small] {
            let (a, m) = (cfg.a, cfg.m);
            let ids = |n: usize| (0..n as u32).map(|i| i * 3).collect::<Vec<u32>>();
            for depth in [0, 1] {
                let full_array = if depth == 0 { a } else { a + a / 2 };
                let mut doubled = Spill::build(Kind::Lia, &ids(m + 2), depth, &cfg);
                for u in (0..m as u32 + 2).map(|i| i * 3 + 1) {
                    assert_eq!(doubled.insert_run_at(&[u], &cfg, depth, &STATS), 1);
                }
                let rungs = [
                    Spill::Array(ids(full_array)),
                    Spill::build(Kind::Medium, &ids(m + 1), depth, &cfg),
                    doubled,
                ];
                for mut s in rungs {
                    let (tier, before) = (s.tier(), s.to_vec());
                    let stats = StructStats::new();
                    let dup = [before[before.len() / 2]];
                    assert_eq!(s.insert_run_at(&dup, &cfg, depth, &stats), 0);
                    assert_eq!(s.tier(), tier, "{tier:?} at depth {depth}");
                    assert_eq!(s.to_vec(), before);
                    assert_eq!(stats.snapshot(), Default::default(), "{tier:?} at {depth}");
                    // The next insert that adds an id does rebuild.
                    assert_eq!(s.insert_run_at(&[u32::MAX], &cfg, depth, &stats), 1);
                    let snap = stats.snapshot();
                    let rebuilt = snap.tier_upgrades + snap.hitree_node_upgrades;
                    assert_eq!(rebuilt + snap.lia_model_retrains, 1, "{tier:?} at {depth}");
                }
            }
        }
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
