//! The vertex directory (paper §4.1 ①, §5): one slot per vertex, each holding
//! that vertex's cache-line [`VertexBlock`].
//!
//! [`GraphView`] owns the directory's representation and is the only code
//! that indexes it. The live [`LsGraph`](crate::LsGraph) holds one view plus
//! its writer-only state; a [`GraphSnapshot`](crate::GraphSnapshot) holds a
//! clone of that view; the checkpoint codec in `lsgraph-persist` takes
//! `&GraphView`. Every read — `degree`, neighbor walks, `tier`,
//! `checkpoint_vertex`, `validate_invariants`, `footprint` — therefore has
//! one body, and live graph, snapshot and image cannot drift apart.
//!
//! Each slot is reference-counted, so cloning the view copies reference
//! counts only and a writer copy-on-writes exactly the blocks it touches
//! while a clone is outstanding (`SlotMut::cow`). That format is private
//! to this file: changing it (paging the directory, say) edits nothing else.

use std::collections::BTreeSet;
use std::sync::Arc;

use lsgraph_api::batch::SrcRun;
use lsgraph_api::{
    Footprint, Graph, IterableGraph, LatencyStats, MemoryFootprint, StructStats, VertexId,
};
use rayon::prelude::*;

use crate::config::Config;
use crate::error::InvariantError;
use crate::stats::Tier;
use crate::vertex::{NeighborIter, VertexBlock};

/// One directory slot: a shared, immutable-while-shared block version.
type Slot = Arc<VertexBlock>;

/// The graph as a reader sees it: the vertex directory, the edge total, the
/// quarantine set, the configuration, and handles to the instrumentation.
///
/// Obtained from [`LsGraph::view`](crate::LsGraph::view) or
/// [`GraphSnapshot::view`](crate::GraphSnapshot::view); both types forward
/// their whole read surface here. Cloning is the snapshot flip: O(V)
/// reference bumps, no adjacency payload.
#[derive(Clone)]
pub struct GraphView {
    /// Private so that every function able to resize or re-point the table
    /// lives beside the `unsafe` in [`GraphView::par_apply_disjoint`].
    blocks: Vec<Slot>,
    pub(crate) cfg: Config,
    pub(crate) num_edges: usize,
    /// Vertices whose apply task panicked: their adjacency was dropped
    /// (degree 0) so the rest of the graph stays exact.
    pub(crate) quarantined: BTreeSet<VertexId>,
    /// Structural counters, shared with every clone (a snapshot freezes the
    /// graph, not its instrumentation).
    pub(crate) stats: Arc<StructStats>,
    /// Latency distributions, shared the same way.
    pub(crate) latency: Arc<LatencyStats>,
}

/// What one [`GraphView::par_apply_disjoint`] task is handed: exclusive
/// access to its source's slot.
pub(crate) struct SlotMut<'a>(&'a mut Slot);

impl SlotMut<'_> {
    /// Degree of the block currently in the slot.
    pub(crate) fn degree(&self) -> usize {
        self.0.degree()
    }

    /// Replaces the block outright. For the bulk build only.
    pub(crate) fn set(&mut self, vb: VertexBlock) {
        *self.0 = Arc::new(vb);
    }

    /// Copy-on-write entry: exclusive access to the block, cloning it first
    /// (shallow — the spill rides along by reference) when an outstanding
    /// snapshot still shares this version.
    ///
    /// Sound without synchronization because the writer holds `&mut` on the
    /// view for the whole batch: no clone can be *created* concurrently, so
    /// the strong count can only decrease under us. A count of 1 is
    /// therefore definitively exclusive; a racing snapshot-drop after we
    /// observe > 1 costs at most one harmless extra copy. The displaced
    /// version lives on in the clones that share it and is freed with the
    /// last of them.
    pub(crate) fn cow(&mut self, stats: &StructStats) -> &mut VertexBlock {
        if Arc::strong_count(self.0) > 1 {
            *self.0 = Arc::new((**self.0).clone());
            stats.record_cow_block_copy();
        }
        Arc::get_mut(self.0).expect("block exclusive after copy-on-write")
    }
}

impl GraphView {
    /// An empty graph over `n` vertices. `cfg` must already be validated.
    pub(crate) fn new(n: usize, cfg: Config) -> Self {
        GraphView {
            blocks: (0..n).map(|_| Arc::new(VertexBlock::new())).collect(),
            cfg,
            num_edges: 0,
            quarantined: BTreeSet::new(),
            stats: Arc::new(StructStats::new()),
            latency: Arc::new(LatencyStats::new()),
        }
    }

    /// The block of `v` — the one place the directory is indexed for reads.
    #[inline]
    pub(crate) fn block(&self, v: VertexId) -> &VertexBlock {
        &self.blocks[v as usize]
    }

    /// Ensures the directory covers ids below `n`.
    pub(crate) fn grow_to(&mut self, n: usize) {
        if n > self.blocks.len() {
            self.blocks.resize_with(n, || Arc::new(VertexBlock::new()));
        }
    }

    /// Replaces `v`'s block wholesale; an outstanding snapshot keeps reading
    /// the displaced version. Edge accounting is the caller's (a block reset
    /// after a panic has no trustworthy degree).
    pub(crate) fn install(&mut self, v: VertexId, vb: VertexBlock) {
        self.blocks[v as usize] = Arc::new(vb);
    }

    /// Runs `f` once per run, in parallel, handing each task the slot of its
    /// run's source, and returns the sum of the results.
    ///
    /// # Panics
    ///
    /// Panics unless the runs' sources are strictly ascending and inside the
    /// directory — the condition that makes the tasks' slots disjoint.
    pub(crate) fn par_apply_disjoint(
        &mut self,
        runs: &[SrcRun],
        f: impl Fn(&SrcRun, SlotMut<'_>) -> usize + Sync,
    ) -> usize {
        assert!(
            runs.windows(2).all(|w| w[0].src < w[1].src),
            "apply runs must have strictly ascending sources"
        );
        assert!(
            runs.last()
                .is_none_or(|r| (r.src as usize) < self.blocks.len()),
            "apply run source outside the vertex directory"
        );
        /// The table's base pointer, shared by the tasks.
        struct Table(*mut Slot);
        // SAFETY: a `Table` is only dereferenced at the offsets of this
        // call's run sources, which the asserts above prove distinct and in
        // bounds, so no two threads touch the same `Slot`; `Slot` itself is
        // `Send + Sync` (`VertexBlock` holds plain data and `Arc`s of it).
        unsafe impl Sync for Table {}
        let table = Table(self.blocks.as_mut_ptr());
        runs.par_iter()
            .map(|run| {
                // Name the whole wrapper so the closure captures `&Table`
                // (which is `Sync`), not a reference to its pointer field.
                let table: &Table = &table;
                // SAFETY: `run.src < blocks.len()` and every run has a
                // different source (asserted above), so the offset is in
                // bounds and this task is the only one forming a reference
                // to that slot. `&mut self` keeps every other access to the
                // table out until all tasks have returned.
                let slot = unsafe { &mut *table.0.add(run.src as usize) };
                f(run, SlotMut(slot))
            })
            .sum()
    }

    /// The engine configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The structural counters (live handle — they keep moving with the
    /// writer even when this view is a snapshot's).
    pub fn stats(&self) -> &StructStats {
        &self.stats
    }

    /// Whether `v` is quarantined after an apply panic.
    pub fn is_quarantined(&self, v: VertexId) -> bool {
        self.quarantined.contains(&v)
    }

    /// The quarantined vertices, ascending.
    pub fn quarantined_vertices(&self) -> Vec<VertexId> {
        self.quarantined.iter().copied().collect()
    }

    /// Tier tag of `v` plus its adjacency appended to `out` in ascending
    /// order, walked tier-natively (see
    /// [`VertexBlock::checkpoint_neighbors`]) — the per-vertex checkpoint
    /// serialization visitor.
    pub fn checkpoint_vertex(&self, v: VertexId, out: &mut Vec<u32>) -> Tier {
        let tier = self.tier(v);
        self.block(v).checkpoint_neighbors(out);
        tier
    }

    /// Verifies per-vertex structural consistency (inline ordering, degree
    /// accounting, spill ordering), quarantine state, and global edge
    /// accounting, reporting the first violation as a value.
    pub fn validate_invariants(&self) -> Result<(), InvariantError> {
        let mut total = 0;
        for (v, vb) in self.blocks.iter().enumerate() {
            vb.validate().map_err(|detail| InvariantError {
                vertex: Some(v as VertexId),
                detail,
            })?;
            total += vb.degree();
        }
        for &q in &self.quarantined {
            let Some(vb) = self.blocks.get(q as usize) else {
                return Err(InvariantError {
                    vertex: Some(q),
                    detail: format!(
                        "quarantined vertex out of range (table has {})",
                        self.blocks.len()
                    ),
                });
            };
            if vb.degree() != 0 {
                return Err(InvariantError {
                    vertex: Some(q),
                    detail: format!("quarantined vertex has degree {}, expected 0", vb.degree()),
                });
            }
        }
        if total != self.num_edges {
            return Err(InvariantError {
                vertex: None,
                detail: format!(
                    "edge accounting: degrees sum to {total} but num_edges is {}",
                    self.num_edges
                ),
            });
        }
        Ok(())
    }

    /// [`GraphView::validate_invariants`] must hold, then every spill
    /// container's own deep structural checks.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        if let Err(e) = self.validate_invariants() {
            panic!("{e}");
        }
        for vb in &self.blocks {
            vb.check_containers(&self.cfg);
        }
    }
}

impl Graph for GraphView {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.blocks.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.block(v).degree()
    }

    #[inline]
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.block(v).for_each(f);
    }

    #[inline]
    fn for_each_neighbor_while(&self, v: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        self.block(v).for_each_while(f)
    }

    #[inline]
    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.block(v).contains(u, &self.cfg, &self.stats)
    }
}

impl IterableGraph for GraphView {
    type NeighborIter<'a> = NeighborIter<'a>;

    #[inline]
    fn neighbor_iter(&self, v: VertexId) -> NeighborIter<'_> {
        self.block(v).iter()
    }
}

impl MemoryFootprint for GraphView {
    fn footprint(&self) -> Footprint {
        let blocks = Footprint::new(self.blocks.len() * core::mem::size_of::<VertexBlock>(), 0);
        let spills: Footprint = self
            .blocks
            .par_iter()
            .map(|vb| vb.spill_footprint())
            .reduce(Footprint::default, Footprint::add);
        blocks + spills
    }
}

/// Gives `$ty` — which must have an inherent `fn view(&self) -> &GraphView`
/// — the view's whole read surface under its own name: the [`Graph`],
/// [`IterableGraph`] and [`MemoryFootprint`] impls and the inherent
/// accessors. A macro rather than `Deref` because generic code bounds on the
/// traits (`G: Graph` is not satisfied through a deref), and because
/// `LsGraph` must not hand out `&mut GraphView`.
macro_rules! forward_to_view {
    ($ty:ty) => {
        impl lsgraph_api::Graph for $ty {
            #[inline]
            fn num_vertices(&self) -> usize {
                self.view().num_vertices()
            }

            #[inline]
            fn num_edges(&self) -> usize {
                self.view().num_edges()
            }

            #[inline]
            fn degree(&self, v: lsgraph_api::VertexId) -> usize {
                self.view().degree(v)
            }

            #[inline]
            fn for_each_neighbor(
                &self,
                v: lsgraph_api::VertexId,
                f: &mut dyn FnMut(lsgraph_api::VertexId),
            ) {
                self.view().for_each_neighbor(v, f);
            }

            #[inline]
            fn for_each_neighbor_while(
                &self,
                v: lsgraph_api::VertexId,
                f: &mut dyn FnMut(lsgraph_api::VertexId) -> bool,
            ) -> bool {
                self.view().for_each_neighbor_while(v, f)
            }

            #[inline]
            fn has_edge(&self, v: lsgraph_api::VertexId, u: lsgraph_api::VertexId) -> bool {
                self.view().has_edge(v, u)
            }
        }

        impl lsgraph_api::IterableGraph for $ty {
            type NeighborIter<'a> = $crate::vertex::NeighborIter<'a>;

            #[inline]
            fn neighbor_iter(&self, v: lsgraph_api::VertexId) -> Self::NeighborIter<'_> {
                self.view().neighbor_iter(v)
            }
        }

        impl lsgraph_api::MemoryFootprint for $ty {
            fn footprint(&self) -> lsgraph_api::Footprint {
                self.view().footprint()
            }
        }

        impl $ty {
            /// The engine configuration.
            pub fn config(&self) -> &$crate::config::Config {
                self.view().config()
            }

            /// The structural counters (live handle; snapshot them with
            /// [`StructStats::snapshot`](lsgraph_api::StructStats::snapshot)).
            pub fn stats(&self) -> &lsgraph_api::StructStats {
                self.view().stats()
            }

            /// The tier of vertex `v`.
            pub fn tier(&self, v: lsgraph_api::VertexId) -> $crate::stats::Tier {
                self.view().tier(v)
            }

            /// Tier population statistics across the whole graph.
            pub fn tier_stats(&self) -> $crate::stats::TierStats {
                self.view().tier_stats()
            }

            /// LIA slot occupancy aggregated over every HITree spill.
            pub fn lia_slot_occupancy(&self) -> $crate::hitree::SlotOccupancy {
                self.view().lia_slot_occupancy()
            }

            /// Tier tag of `v` plus its adjacency appended to `out`; see
            /// [`GraphView::checkpoint_vertex`]($crate::GraphView::checkpoint_vertex).
            pub fn checkpoint_vertex(
                &self,
                v: lsgraph_api::VertexId,
                out: &mut Vec<u32>,
            ) -> $crate::stats::Tier {
                self.view().checkpoint_vertex(v, out)
            }

            /// Whether `v` is quarantined after an apply panic.
            pub fn is_quarantined(&self, v: lsgraph_api::VertexId) -> bool {
                self.view().is_quarantined(v)
            }

            /// The quarantined vertices, ascending.
            pub fn quarantined_vertices(&self) -> Vec<lsgraph_api::VertexId> {
                self.view().quarantined_vertices()
            }

            /// Structural self-check reporting the first violation as a
            /// value; see
            /// [`GraphView::validate_invariants`]($crate::GraphView::validate_invariants).
            pub fn validate_invariants(&self) -> Result<(), $crate::error::InvariantError> {
                self.view().validate_invariants()
            }

            /// Verifies every structural invariant, container internals
            /// included.
            ///
            /// # Panics
            ///
            /// Panics on the first violated invariant.
            pub fn check_invariants(&self) {
                self.view().check_invariants()
            }
        }
    };
}
pub(crate) use forward_to_view;

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::batch::{runs_by_src, sorted_dedup_keys};
    use lsgraph_api::Edge;

    fn run(src: u32) -> SrcRun {
        SrcRun {
            src,
            start: 0,
            end: 0,
        }
    }

    fn view(n: usize) -> GraphView {
        GraphView::new(n, Config::default())
    }

    #[test]
    fn disjoint_tasks_each_write_their_own_slot() {
        let batch: Vec<Edge> = (0..40u32).map(|i| Edge::new(i % 5 * 2, i + 1)).collect();
        let keys = sorted_dedup_keys(&batch);
        let runs = runs_by_src(&keys);
        let mut g = view(9);
        let frozen = g.clone();
        let (cfg, stats) = (g.cfg, Arc::clone(&g.stats));
        let applied = g.par_apply_disjoint(&runs, |run, mut slot| {
            assert_eq!(slot.degree(), 0);
            let vb = slot.cow(&stats);
            keys[run.start..run.end]
                .iter()
                .filter(|&&k| vb.insert(k as u32, &cfg, &stats))
                .count()
        });
        g.num_edges = applied;
        assert_eq!(applied, 40);
        assert_eq!(g.degree(4), 8);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.validate_invariants(), Ok(()));
        // Every touched slot was shared with the clone, so each was copied
        // first and the clone still reads the pre-call state.
        assert_eq!(g.stats.snapshot().cow_block_copies, 5);
        assert_eq!(frozen.degree(4), 0);
        assert_eq!(frozen.validate_invariants(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "strictly ascending sources")]
    fn repeated_source_is_refused() {
        view(4).par_apply_disjoint(&[run(1), run(1)], |_, _| 0);
    }

    #[test]
    #[should_panic(expected = "outside the vertex directory")]
    fn out_of_range_source_is_refused() {
        view(4).par_apply_disjoint(&[run(1), run(4)], |_, _| 0);
    }

    /// A displaced version is freed by the reference counts alone: it lives
    /// exactly as long as the last view clone that can read it.
    #[test]
    fn displaced_version_dies_with_its_last_reader() {
        let mut g = view(2);
        let stats = Arc::clone(&g.stats);
        let (first, second) = (g.clone(), g.clone());
        let cowed = Arc::downgrade(&g.blocks[0]);
        let installed = Arc::downgrade(&g.blocks[1]);
        let cfg = g.cfg;
        g.par_apply_disjoint(&[run(0)], |_, mut slot| {
            usize::from(slot.cow(&stats).insert(1, &cfg, &stats))
        });
        g.install(1, VertexBlock::from_sorted_neighbors(&[0], &cfg));
        assert_eq!(stats.snapshot().cow_block_copies, 1);
        assert_eq!((g.degree(0), first.degree(0)), (1, 0));
        assert_eq!((g.degree(1), second.degree(1)), (1, 0));
        drop(first);
        assert!(cowed.upgrade().is_some() && installed.upgrade().is_some());
        drop(second);
        assert!(cowed.upgrade().is_none() && installed.upgrade().is_none());
        // Unshared again: the next write is in place.
        let live = Arc::as_ptr(&g.blocks[0]);
        g.par_apply_disjoint(&[run(0)], |_, mut slot| {
            usize::from(slot.cow(&stats).insert(2, &cfg, &stats))
        });
        assert_eq!(stats.snapshot().cow_block_copies, 1);
        assert_eq!(Arc::as_ptr(&g.blocks[0]), live);
    }
}
