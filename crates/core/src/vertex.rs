//! Cache-line vertex blocks (paper §4.1 ①, following Terrace).
//!
//! Each vertex owns exactly one 64-byte block: its degree, its
//! [`INLINE_CAP`] smallest neighbors inline, and a pointer to the spill
//! container holding the rest. Low-degree vertices — the overwhelming
//! majority under power-law distributions — are therefore served by a single
//! cache-line read.
//! A block is LSGraph's [`NeighborSet`], over a [`BlockCtx`].

use std::sync::Arc;

use lsgraph_api::{Footprint, MemoryFootprint, NeighborSet, SetCtx, StructStats};

use crate::adjacency::Spill;
use crate::config::{Config, INLINE_CAP};
use crate::run::{count_fresh, merge_into, remove_from};

/// One vertex's cache-line block.
///
/// Invariant: `inline[..degree.min(INLINE_CAP)]` holds the vertex's smallest
/// neighbors in ascending order, and every spilled neighbor is greater than
/// the last inline one.
///
/// The spill is held through an [`Arc`] (same 64-byte layout — the pointer
/// is niche-optimized) so that cloning a block — a directory page at a time,
/// for snapshot copy-on-write — is a shallow reference bump; the spill
/// payload itself is only copied ([`Arc::make_mut`]) when a write lands on a
/// spill still shared with an outstanding snapshot.
#[repr(C, align(64))]
#[derive(Clone, Debug, Default)]
pub struct VertexBlock {
    degree: u32,
    inline: [u32; INLINE_CAP],
    spill: Option<Arc<Spill>>,
}

impl VertexBlock {
    /// Vertex degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree as usize
    }

    #[inline]
    fn inline_len(&self) -> usize {
        (self.degree as usize).min(INLINE_CAP)
    }

    /// The inline (smallest) neighbors.
    #[inline]
    pub fn inline_neighbors(&self) -> &[u32] {
        &self.inline[..self.inline_len()]
    }

    /// The spill container, if any (introspection for tier statistics).
    #[inline]
    pub(crate) fn spill(&self) -> Option<&Spill> {
        self.spill.as_deref()
    }

    /// [`VertexBlock::insert_run`] for a run of one id.
    fn insert_one(&mut self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        let n = self.inline_len();
        if n < INLINE_CAP {
            match self.inline[..n].binary_search(&u) {
                Ok(_) => false,
                Err(i) => {
                    self.inline.copy_within(i..n, i + 1);
                    self.inline[i] = u;
                    self.degree += 1;
                    stats.record_vb_inline_insert(1, (n - i) as u64);
                    true
                }
            }
        } else {
            match self.inline.binary_search(&u) {
                Ok(_) => false,
                Err(i) if i < INLINE_CAP => {
                    let evicted = self.inline[INLINE_CAP - 1];
                    self.inline.copy_within(i..INLINE_CAP - 1, i + 1);
                    self.inline[i] = u;
                    stats.record_vb_inline_insert(1, (INLINE_CAP - 1 - i) as u64);
                    stats.vb_spill_evictions.record(1);
                    self.spill_insert(&[evicted], cfg, stats);
                    self.degree += 1;
                    true
                }
                Err(_) => {
                    let added = self.spill_insert(&[u], cfg, stats) == 1;
                    if added {
                        stats.vb_spill_inserts.record(1);
                        self.degree += 1;
                    }
                    added
                }
            }
        }
    }

    /// [`VertexBlock::delete_run`] for a run of one id.
    fn delete_one(&mut self, u: u32, cfg: &Config, stats: &StructStats) -> bool {
        let n = self.inline_len();
        let inline = self.inline[..n].binary_search(&u);
        if let Ok(i) = inline {
            self.inline.copy_within(i + 1..n, i);
            stats.vb_inline_shifts.record((n - i - 1) as u64);
        }
        let Some(spill) = self.spill.as_mut() else {
            self.degree -= u32::from(inline.is_ok());
            return inline.is_ok();
        };
        let spill = Arc::make_mut(spill);
        if inline.is_ok() {
            let refilled = spill.take_front(&mut self.inline[n - 1..n], cfg, stats);
            stats.vb_spill_refills.record(refilled as u64);
        } else if spill.delete_run_at(&[u], cfg, 0, stats) == 0 {
            return false;
        }
        if spill.is_empty() {
            self.spill = None;
        } else {
            spill.shrink(cfg, stats);
        }
        self.degree -= 1;
        true
    }

    /// Inserts `ids`, all above the line, into the spill, creating it if
    /// need be; returns how many were added.
    fn spill_insert(&mut self, ids: &[u32], cfg: &Config, stats: &StructStats) -> usize {
        if ids.is_empty() {
            return 0;
        }
        let spill = self
            .spill
            .get_or_insert_with(|| Arc::new(Spill::Array(Vec::new())));
        Arc::make_mut(spill).insert_run(ids, cfg, stats)
    }

    /// Whether `other` is this block's version: the same degree and line,
    /// and the same spill or none. A spill another version holds is copied
    /// before a write, so a block whose ids changed never passes.
    pub(crate) fn same_version(&self, other: &Self) -> bool {
        self.degree == other.degree
            && self.inline_neighbors() == other.inline_neighbors()
            && self.spill.as_ref().map(Arc::as_ptr) == other.spill.as_ref().map(Arc::as_ptr)
    }

    /// Collects all neighbors into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.degree());
        self.for_each_slice_while(&mut |s| {
            v.extend_from_slice(s);
            true
        });
        v
    }
}

/// What a vertex block reads and records into: the engine's [`Config`] and a
/// [`StructStats`] family, which a clone shares (a snapshot freezes the
/// graph, not its instrumentation).
#[derive(Clone, Debug, Default)]
pub struct BlockCtx {
    /// The engine configuration.
    pub cfg: Config,
    /// The structural counters.
    pub stats: Arc<StructStats>,
}

impl BlockCtx {
    /// `cfg` with a family of its own, at zero.
    pub fn new(cfg: Config) -> Self {
        BlockCtx {
            cfg,
            stats: Arc::default(),
        }
    }
}

impl SetCtx for BlockCtx {
    fn fresh(&self) -> Self {
        BlockCtx::new(self.cfg)
    }

    fn absorb(&self, task: &Self) {
        self.stats.absorb(&task.stats);
    }

    fn page_copied(&self, sets: usize) {
        self.stats.cow_block_copies.record(sets as u64);
    }

    fn page_recycled(&self, reused: usize) {
        self.stats.cow_pages_recycled.record(1);
        if reused > 0 {
            self.stats.cow_spills_recycled.record(reused as u64);
        }
    }

    fn spares_held(&self, pages: usize, bytes: usize) {
        self.stats.cow_spare_pages.record(pages as u64);
        self.stats.cow_spare_bytes.record(bytes as u64);
    }
}

impl NeighborSet for VertexBlock {
    type Ctx = BlockCtx;

    /// Builds a block from a sorted duplicate-free neighbor slice.
    fn from_sorted(ns: &[u32], ctx: &BlockCtx) -> Self {
        debug_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        let mut vb = VertexBlock::default();
        let inline_n = ns.len().min(INLINE_CAP);
        vb.inline[..inline_n].copy_from_slice(&ns[..inline_n]);
        vb.degree = ns.len() as u32;
        if ns.len() > INLINE_CAP {
            vb.spill = Some(Arc::new(Spill::from_sorted(&ns[INLINE_CAP..], &ctx.cfg)));
        }
        vb
    }

    #[inline]
    fn len(&self) -> usize {
        self.degree()
    }

    /// Returns whether `u` is a neighbor.
    fn contains(&self, u: u32, ctx: &BlockCtx) -> bool {
        let inl = self.inline_neighbors();
        if let Some(&last) = inl.last() {
            if u <= last {
                return inl.binary_search(&u).is_ok();
            }
        }
        self.spill.as_ref().is_some_and(|s| s.contains(u, &ctx.cfg))
    }

    /// Hands the neighbors to `f` in ascending order — the inline line as
    /// one slice, then the spill's ([`Spill::for_each_slice_while`]) —
    /// until `f` returns `false`; returns whether the walk completed.
    #[inline]
    fn for_each_slice_while(&self, f: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let inline = self.inline_neighbors();
        (inline.is_empty() || f(inline))
            && self
                .spill
                .as_ref()
                .is_none_or(|s| s.for_each_slice_while(f))
    }

    /// Inserts the ids of a strictly ascending run; returns how many were
    /// added. Structural movement is recorded into the context's counters,
    /// once per run.
    ///
    /// The ids at or below the line's last one — all of them while the line
    /// has room — merge into the line. What the line cannot hold, its
    /// largest ids old or new, goes to the spill ahead of the ids above the
    /// line, in one [`Spill::insert_run`] after one [`Arc::make_mut`].
    fn insert_run(&mut self, run: &[u32], ctx: &BlockCtx) -> usize {
        let (cfg, stats) = (&ctx.cfg, &*ctx.stats);
        // A run of one takes the per-id body (EXPERIMENTS.md, "Runs").
        if let [u] = *run {
            return usize::from(self.insert_one(u, cfg, stats));
        }
        let n = self.inline_len();
        let split = match self.inline[..n].last() {
            Some(&last) if n == INLINE_CAP => run.partition_point(|&u| u <= last),
            _ => run.len(),
        };
        let (lo, hi) = run.split_at(split);
        let fresh = count_fresh(&self.inline[..n], lo);
        let (hits, shifts, evicted, spilled) = if n + fresh <= INLINE_CAP {
            let shifts = merge_into(&mut self.inline, n, lo, fresh);
            (fresh, shifts, 0, self.spill_insert(hi, cfg, stats))
        } else {
            // The line overflows: its `over` largest ids, old or new, go to
            // the spill ahead of `hi`, staged on the stack when they are
            // few, and the rest merge into the line.
            let over = n + fresh - INLINE_CAP;
            let (mut stack, mut heap) = ([0; INLINE_CAP], Vec::new());
            let spill_run = match over + hi.len() {
                len if len <= stack.len() => &mut stack[..len],
                len => {
                    heap.resize(len, 0);
                    &mut heap[..]
                }
            };
            spill_run[over..].copy_from_slice(hi);
            let (mut i, mut j, mut evicted) = (n, lo.len(), 0);
            for slot in spill_run[..over].iter_mut().rev() {
                if i > 0 && (j == 0 || self.inline[i - 1] >= lo[j - 1]) {
                    j -= usize::from(j > 0 && lo[j - 1] == self.inline[i - 1]);
                    i -= 1;
                    evicted += 1;
                    *slot = self.inline[i];
                } else {
                    j -= 1;
                    *slot = lo[j];
                }
            }
            let hits = fresh - (over - evicted);
            let shifts = merge_into(&mut self.inline, i, &lo[..j], hits);
            let spilled = self.spill_insert(spill_run, cfg, stats);
            (hits, shifts, evicted, spilled)
        };
        // Most runs leave most rows at zero; those are not recorded.
        if hits > 0 {
            stats.record_vb_inline_insert(hits as u64, shifts as u64);
        }
        if evicted > 0 {
            stats.vb_spill_evictions.record(evicted as u64);
        }
        if spilled > evicted {
            stats.vb_spill_inserts.record((spilled - evicted) as u64);
        }
        let added = hits + spilled - evicted;
        self.degree += added as u32;
        added
    }

    /// Deletes the ids of a strictly ascending run; returns how many were
    /// present. Structural movement is recorded into the context's
    /// counters, once per run.
    ///
    /// The line's hits come out of the line and the run's spill part out
    /// of the spill; only then is the line refilled, by one front take of
    /// as many ids from the spill ([`Spill::take_front`]), so it keeps
    /// holding the smallest neighbors without pulling in an id the run
    /// deletes. The spill is settled on its rung once.
    fn delete_run(&mut self, run: &[u32], ctx: &BlockCtx) -> usize {
        let (cfg, stats) = (&ctx.cfg, &*ctx.stats);
        // A run of one takes the per-id body (EXPERIMENTS.md, "Runs").
        if let [u] = *run {
            return usize::from(self.delete_one(u, cfg, stats));
        }
        let n = self.inline_len();
        let Some(&last) = self.inline[..n].last() else {
            return 0;
        };
        let (lo, hi) = run.split_at(run.partition_point(|&u| u <= last));
        let (kept, shifts) = remove_from(&mut self.inline[..n], lo);
        if shifts > 0 {
            stats.vb_inline_shifts.record(shifts as u64);
        }
        let mut spill_removed = 0;
        if let Some(spill) = self.spill.as_mut().filter(|_| kept < n || !hi.is_empty()) {
            let spill = Arc::make_mut(spill);
            spill_removed = spill.delete_run_at(hi, cfg, 0, stats);
            if kept < n {
                let refilled = spill.take_front(&mut self.inline[kept..n], cfg, stats);
                stats.vb_spill_refills.record(refilled as u64);
            }
            if spill.is_empty() {
                self.spill = None;
            } else if spill_removed + n - kept > 0 {
                spill.shrink(cfg, stats);
            }
        }
        let removed = spill_removed + n - kept;
        self.degree -= removed as u32;
        removed
    }

    /// Verifies the block: the spill container's own structure (RIA index
    /// redundancy, LIA placement, recursively), then the inline/spill split,
    /// the degree and the strictly ascending order of the whole adjacency.
    /// The container goes first so that its own check, not the walk's debug
    /// assertion on a RIA index, names what broke.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    fn check_invariants(&self, ctx: &BlockCtx) {
        if let Some(spill) = &self.spill {
            spill.check_invariants(&ctx.cfg);
            assert!(!spill.is_empty(), "empty spill retained");
            assert_eq!(self.inline_len(), INLINE_CAP, "spill behind a partial line");
        }
        let all = self.to_vec();
        assert_eq!(all.len(), self.degree(), "degree disagrees with the walk");
        assert!(
            all.windows(2).all(|w| w[0] < w[1]),
            "adjacency not strictly ascending"
        );
    }

    /// A written block is copied into its old spill's buffer when the
    /// shapes match, saving the spill's allocations.
    const RECYCLES: bool = true;

    /// Drops a spill another block version still owns: what a live block
    /// shares with this spare's must not gain an owner that would make the
    /// next write copy it.
    fn release_shared(&mut self) {
        if self
            .spill
            .as_ref()
            .is_some_and(|s| Arc::strong_count(s) > 1)
        {
            self.spill = None;
        }
    }

    /// Copies `live`'s spill into this block's own when that one is held
    /// alone and has the same shape ([`Spill::copy_from`]), so the write
    /// that follows finds it unshared and allocates nothing; otherwise
    /// shares `live`'s spill, as a clone does.
    fn recycle_from(&mut self, live: &Self) -> bool {
        let reused = match (self.spill.as_mut().and_then(Arc::get_mut), &live.spill) {
            (Some(mine), Some(theirs)) => mine.copy_from(theirs),
            _ => false,
        };
        if reused {
            self.degree = live.degree;
            self.inline = live.inline;
        } else {
            self.clone_from(live);
        }
        reused
    }
}

impl MemoryFootprint for VertexBlock {
    fn footprint(&self) -> Footprint {
        let spill = self.spill.as_ref().map(|s| s.footprint());
        Footprint::new(core::mem::size_of::<VertexBlock>(), 0) + spill.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VertexBlock {
        /// How many blocks — this one and its copy-on-write copies — own
        /// the spill. For the directory's sharing tests.
        pub(crate) fn spill_owners(&self) -> usize {
            self.spill.as_ref().map_or(0, Arc::strong_count)
        }

        /// Where the spill's ids start, if there is one: a buffer's identity.
        pub(crate) fn spill_ptr(&self) -> Option<*const u32> {
            let mut at = None;
            self.spill.as_ref()?.for_each_slice_while(&mut |s| {
                at = Some(s.as_ptr());
                false
            });
            at
        }

        /// The spill, made exclusive. For the engine's corruption test.
        pub(crate) fn spill_mut(&mut self) -> &mut Spill {
            Arc::make_mut(self.spill.as_mut().expect("no spill"))
        }
    }

    #[test]
    fn block_is_one_cache_line() {
        assert_eq!(core::mem::size_of::<VertexBlock>(), 64);
        assert_eq!(core::mem::align_of::<VertexBlock>(), 64);
    }

    /// The container behind the pointer is no wider than its widest paper
    /// arm: the ablation's PMA is boxed, not carried by every spill. A RIA
    /// is one buffer plus two words, so the `Arc` inner (two counts and the
    /// spill) fits one 64-byte line.
    #[test]
    fn spill_is_no_larger_than_a_ria() {
        use core::mem::size_of;
        assert!(size_of::<Spill>() <= size_of::<crate::ria::Ria>());
        assert!(size_of::<Spill>() <= 48);
    }

    #[test]
    fn inline_only_lifecycle() {
        let ctx = BlockCtx::default();
        let mut vb = VertexBlock::default();
        for u in [9u32, 1, 5] {
            assert_eq!(vb.insert_run(&[u], &ctx), 1);
        }
        assert_eq!(vb.insert_run(&[5], &ctx), 0);
        assert_eq!(vb.degree(), 3);
        assert_eq!(vb.to_vec(), vec![1, 5, 9]);
        assert!(vb.contains(5, &ctx) && !vb.contains(2, &ctx));
        assert_eq!(vb.delete_run(&[5], &ctx), 1);
        assert_eq!(vb.delete_run(&[5], &ctx), 0);
        assert_eq!(vb.to_vec(), vec![1, 9]);
        vb.check_invariants(&ctx);
    }

    #[test]
    fn spill_on_overflow_keeps_smallest_inline() {
        let ctx = BlockCtx::default();
        let mut vb = VertexBlock::default();
        for u in (0..40u32).rev() {
            assert_eq!(vb.insert_run(&[u], &ctx), 1);
        }
        vb.check_invariants(&ctx);
        assert_eq!(vb.degree(), 40);
        assert_eq!(
            vb.inline_neighbors(),
            &(0..INLINE_CAP as u32).collect::<Vec<_>>()[..]
        );
        assert_eq!(vb.to_vec(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn insert_small_key_evicts_inline_max() {
        let ctx = BlockCtx::default();
        // Fill inline with large keys, then insert a smaller one.
        let mut vb =
            VertexBlock::from_sorted(&(100..100 + INLINE_CAP as u32).collect::<Vec<_>>(), &ctx);
        assert_eq!(vb.insert_run(&[1], &ctx), 1);
        vb.check_invariants(&ctx);
        assert_eq!(vb.inline_neighbors()[0], 1);
        assert_eq!(vb.degree(), INLINE_CAP + 1);
        assert!(
            vb.contains(100 + INLINE_CAP as u32 - 1, &ctx),
            "evicted key lost"
        );
    }

    #[test]
    fn delete_inline_pulls_from_spill() {
        let ctx = BlockCtx::default();
        let mut vb = VertexBlock::from_sorted(&(0..30).collect::<Vec<_>>(), &ctx);
        assert_eq!(vb.delete_run(&[0], &ctx), 1);
        vb.check_invariants(&ctx);
        assert_eq!(vb.to_vec(), (1..30).collect::<Vec<_>>());
        // Inline must still be full (smallest 13 of the remaining 29).
        assert_eq!(vb.inline_neighbors().len(), INLINE_CAP);
    }

    #[test]
    fn delete_down_to_inline_drops_spill() {
        let ctx = BlockCtx::default();
        let mut vb = VertexBlock::from_sorted(&(0..20).collect::<Vec<_>>(), &ctx);
        for u in 13..20u32 {
            assert_eq!(vb.delete_run(&[u], &ctx), 1);
        }
        assert!(vb.spill.is_none(), "spill should be dropped when empty");
        assert_eq!(vb.to_vec(), (0..13).collect::<Vec<_>>());
        vb.check_invariants(&ctx);
    }

    #[test]
    fn from_sorted_matches_incremental() {
        let ctx = BlockCtx::default();
        let ns: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let bulk = VertexBlock::from_sorted(&ns, &ctx);
        let mut inc = VertexBlock::default();
        for &u in ns.iter().rev() {
            inc.insert_run(&[u], &ctx);
        }
        assert_eq!(bulk.to_vec(), inc.to_vec());
        bulk.check_invariants(&ctx);
        inc.check_invariants(&ctx);
    }

    #[test]
    fn high_degree_reaches_tree_tier() {
        let ctx = BlockCtx::new(Config {
            m: 256,
            ..Config::default()
        });
        let vb = VertexBlock::from_sorted(&(0..5_000).collect::<Vec<_>>(), &ctx);
        assert!(matches!(vb.spill.as_deref(), Some(Spill::Lia(_))));
        assert_eq!(vb.degree(), 5_000);
        vb.check_invariants(&ctx);
    }

    #[test]
    fn random_differential() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let ctx = BlockCtx::new(Config {
            m: 128,
            ..Config::default()
        });
        let mut rng = SmallRng::seed_from_u64(11);
        let mut vb = VertexBlock::default();
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let u = rng.gen_range(0..1_500u32);
            if rng.gen_bool(0.6) {
                assert_eq!(vb.insert_run(&[u], &ctx) == 1, oracle.insert(u));
            } else {
                assert_eq!(vb.delete_run(&[u], &ctx) == 1, oracle.remove(&u));
            }
        }
        vb.check_invariants(&ctx);
        assert_eq!(vb.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }
}
