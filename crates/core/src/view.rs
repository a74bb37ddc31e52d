//! The graph as a reader sees it. The vertex directory (paper §4.1 ①, §5)
//! is the workspace's one paged table, a [`SetTable`] of cache-line
//! [`VertexBlock`]s; [`GraphView`] adds the quarantine set and the latency
//! handle. The live [`LsGraph`](crate::LsGraph) holds one view plus its
//! writer-only state, a [`GraphSnapshot`](crate::GraphSnapshot) a clone of
//! it, and the checkpoint codec in `lsgraph-persist` takes `&GraphView`: every
//! read has one body, and live graph, snapshot and image cannot drift apart.

use std::collections::BTreeSet;
use std::sync::Arc;

use lsgraph_api::{DynamicGraph, Graph, LatencyStats, SetTable, StructStats, VertexId};

use crate::config::Config;
use crate::vertex::{BlockCtx, VertexBlock};

/// The graph as a reader sees it: the vertex directory with the edge total,
/// the configuration and the structural counters (its context), the
/// quarantine set, and the latency handle. [`LsGraph`](crate::LsGraph) and
/// [`GraphSnapshot`](crate::GraphSnapshot) deref to it. Cloning is the
/// snapshot flip, one reference bump per page; a clone shares the counters
/// and latencies (a snapshot freezes the graph, not its instrumentation).
#[derive(Clone)]
pub struct GraphView {
    pub(crate) table: SetTable<VertexBlock>,
    /// Vertices whose apply task panicked: their adjacency was dropped
    /// (degree 0) so the rest of the graph stays exact.
    pub(crate) quarantined: BTreeSet<VertexId>,
    pub(crate) latency: Arc<LatencyStats>,
}

impl GraphView {
    /// An empty graph over `n` vertices. `cfg` must already be validated.
    pub(crate) fn new(n: usize, cfg: Config) -> Self {
        GraphView {
            table: SetTable::with_ctx(n, BlockCtx::new(cfg)),
            quarantined: BTreeSet::new(),
            latency: Arc::new(LatencyStats::new()),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &Config {
        &self.table.ctx().cfg
    }

    /// The structural counters (live handle — they keep moving with the
    /// writer even when this view is a snapshot's).
    pub fn stats(&self) -> &StructStats {
        &self.table.ctx().stats
    }

    /// Whether `v` is quarantined after an apply panic.
    pub fn is_quarantined(&self, v: VertexId) -> bool {
        self.quarantined.contains(&v)
    }

    /// The quarantined vertices, ascending.
    pub fn quarantined_vertices(&self) -> Vec<VertexId> {
        self.quarantined.iter().copied().collect()
    }

    /// The vertices whose block differs from `base`'s, ascending, where
    /// `base` is an earlier clone of this view: every vertex whose
    /// neighbours differ, and only blocks written since `base`. What a
    /// delta checkpoint writes, with `base` the view of the last image.
    pub fn changed_since(&self, base: &GraphView) -> Vec<VertexId> {
        self.table
            .changed_since(&base.table, VertexBlock::same_version)
    }

    /// Verifies every structural invariant: each vertex's block, container
    /// internals included, and the edge total (the table's own check),
    /// then that each quarantined vertex is in the table with degree 0.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant, naming the vertex when the
    /// invariant is one block's.
    pub fn check_invariants(&self) {
        DynamicGraph::check_invariants(&self.table);
        for &q in &self.quarantined {
            assert!(
                (q as usize) < self.num_vertices(),
                "quarantined vertex {q} outside the table"
            );
            assert_eq!(self.degree(q), 0, "quarantined vertex {q} has edges");
        }
    }
}

/// Implements [`Graph`] and `MemoryFootprint` for `$ty` by handing every
/// call to `self.$to` (generic code bounds on the traits, which a deref does
/// not reach).
macro_rules! forward_graph {
    ($ty:ty, $($to:tt)+) => {
        impl lsgraph_api::Graph for $ty {
            #[inline]
            fn num_vertices(&self) -> usize {
                self.$($to)+.num_vertices()
            }

            #[inline]
            fn num_edges(&self) -> usize {
                self.$($to)+.num_edges()
            }

            #[inline]
            fn degree(&self, v: lsgraph_api::VertexId) -> usize {
                self.$($to)+.degree(v)
            }

            #[inline]
            fn for_each_neighbor_slice_while(
                &self,
                v: lsgraph_api::VertexId,
                f: &mut dyn FnMut(&[lsgraph_api::VertexId]) -> bool,
            ) -> bool {
                self.$($to)+.for_each_neighbor_slice_while(v, f)
            }

            #[inline]
            fn has_edge(&self, v: lsgraph_api::VertexId, u: lsgraph_api::VertexId) -> bool {
                self.$($to)+.has_edge(v, u)
            }
        }

        impl lsgraph_api::MemoryFootprint for $ty {
            fn footprint(&self) -> lsgraph_api::Footprint {
                self.$($to)+.footprint()
            }
        }
    };
}

forward_graph!(GraphView, table);

/// Gives `$ty` — which must have an inherent `fn view(&self) -> &GraphView`
/// — the view's whole read surface: its inherent methods through
/// `Deref<Target = GraphView>`, and the [`Graph`] and `MemoryFootprint`
/// impls. There is no `DerefMut`: `LsGraph` must not hand out
/// `&mut GraphView`.
macro_rules! forward_to_view {
    ($ty:ty) => {
        $crate::view::forward_graph!($ty, view());

        impl std::ops::Deref for $ty {
            type Target = $crate::GraphView;

            #[inline]
            fn deref(&self) -> &$crate::GraphView {
                self.view()
            }
        }
    };
}
pub(crate) use {forward_graph, forward_to_view};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tier;
    use lsgraph_api::{batch::SortedBatch, Edge, NeighborSet, SetCtx, StructSnapshot};

    const PAGE: usize = SetTable::<VertexBlock>::PAGE;
    const P: u32 = PAGE as u32;

    fn view(n: usize) -> GraphView {
        GraphView::new(n, Config::default())
    }

    /// Inserts `u` into `v`'s adjacency through the batch entry point.
    fn insert(g: &mut GraphView, v: u32, u: u32) {
        insert_all(g, &[(v, u)]);
    }

    /// Inserts every `(v, u)` pair in one batch.
    fn insert_all(g: &mut GraphView, pairs: &[(u32, u32)]) {
        let edges: Vec<Edge> = pairs.iter().map(|&(v, u)| Edge::new(v, u)).collect();
        let batch = SortedBatch::new(&edges);
        let n = g
            .table
            .par_apply(&batch, |run, vb, task| vb.insert_run(run.dsts, task));
        g.table.account(n, 0);
    }

    /// The workers record into their tasks' counters, never the view's:
    /// while the pass runs, a clone of the view's handle keeps reading what
    /// it read before the call; after it, the view's counters have moved by
    /// exactly what the same runs record one after another into one family,
    /// page copies included.
    #[test]
    fn tasks_record_locally_and_the_view_absorbs_them_after_the_pass() {
        // Hubs past the array tier on pages 0, 1 and 3; page 2 untouched.
        let srcs = [1, 2, P + 5, 3 * P];
        let batch: Vec<Edge> = (0..4 * 200u32)
            .map(|i| Edge::new(srcs[i as usize % 4], (i * 7919) % 5_000))
            .collect();
        let batch = SortedBatch::new(&batch);
        let mut g = view(4 * PAGE);
        insert(&mut g, 3, 9);
        let frozen = g.clone();
        let shared = Arc::clone(&g.table.ctx().stats);
        let before = shared.snapshot();
        assert_ne!(before, StructSnapshot::default());
        let inline_hits = |ctx: &BlockCtx| ctx.stats.snapshot().vb_inline_hits;
        let applied = g.table.par_apply(&batch, |run, vb, task| {
            let n = vb.insert_run(run.dsts, task);
            assert!(inline_hits(task) > 0);
            assert_eq!(shared.snapshot(), before, "source {}", run.src);
            n
        });
        g.table.account(applied, 0);
        assert_eq!(applied, batch.len());

        // The same runs, one after another, into one family.
        let expect = BlockCtx::default();
        expect.page_copied(3 * PAGE);
        for run in batch.runs() {
            let mut vb = VertexBlock::default();
            vb.insert_run(run.dsts, &expect);
            assert_eq!(g.table.set(run.src).to_vec(), vb.to_vec());
        }
        let moved = shared.snapshot().since(before);
        assert!(moved.tier_upgrades > 0 && moved.vb_spill_inserts > 0);
        assert_eq!(moved.cow_block_copies, 3 * PAGE as u64);
        assert_eq!(moved, expect.stats.snapshot());
        assert_eq!(frozen.degree(P + 5), 0);
        g.check_invariants();
    }

    /// Cloning the view touches page counts only; a hub's spill gains a
    /// second owner when its page is copied and not before.
    #[test]
    fn clone_bumps_page_counts_only() {
        let mut g = view(2 * PAGE);
        let hub: Vec<u32> = (0..500).collect();
        let block = VertexBlock::from_sorted(&hub, g.table.ctx());
        g.table.install(1, block);
        g.table.account(hub.len(), 0);
        let spill_owners = |g: &GraphView| g.table.set(1).spill_owners();
        assert_eq!(spill_owners(&g), 1);
        let frozen = g.clone();
        assert_eq!(spill_owners(&g), 1);
        // A write on the other page leaves the hub's page shared as it is.
        insert(&mut g, P, 3);
        assert_eq!(spill_owners(&g), 1);
        // A write to the hub's page-mate copies the page: both versions of
        // the block now own the one spill.
        insert(&mut g, 2, 3);
        assert_eq!(spill_owners(&g), 2);
        assert_eq!(frozen.degree(1), 500);
        drop(frozen);
        assert_eq!(spill_owners(&g), 1);
        g.check_invariants();
    }

    /// A page a dropped snapshot held alone comes back as the writer's
    /// spare, and the next copy of that page goes into it. A written block
    /// whose old spill has the live one's shape — the hub's RIA buffer of
    /// the same length, an array of the same capacity — is copied into that
    /// spill's own buffer, which then belongs to the live block alone; an
    /// array that has grown since takes the clone's path, and so does the
    /// unwritten page-mate, which keeps sharing its spill with the reader.
    #[test]
    fn a_recycled_copy_reuses_the_spill_buffer_and_shares_nothing() {
        let mut g = view(PAGE);
        let ctx = g.table.ctx().clone();
        let ids = |n: u32| (0..n).map(|i| 4 * i).collect::<Vec<u32>>();
        // A RIA hub, an array of capacity 20, and an array never written.
        for (v, n) in [(1, 300), (2, 33), (3, 23)] {
            g.table.install(v, VertexBlock::from_sorted(&ids(n), &ctx));
            g.table.account(n as usize, 0);
        }
        assert_eq!(g.table.set(1).spill().map(|s| s.tier()), Some(Tier::Ria));
        let spill = |g: &GraphView, v| g.table.set(v).spill_ptr().unwrap();
        let recycled = |g: &GraphView| {
            let s = g.stats().snapshot();
            (s.cow_pages_recycled, s.cow_spills_recycled)
        };

        // Under `a`, the first copy allocates; the array doubles to 40.
        let a = g.clone();
        insert_all(&mut g, &[(1, 1), (2, 1)]);
        let (hub_a, arr_a) = (spill(&a, 1), spill(&a, 2));
        drop(a);
        assert_eq!(recycled(&g), (0, 0));

        // Under `b`, the copy goes into `a`'s page: the hub into `a`'s
        // buffer, the grown array and the page-mate shallowly.
        let b = g.clone();
        let (hub_live, arr_live, mate) = (spill(&g, 1), spill(&g, 2), spill(&g, 3));
        insert_all(&mut g, &[(1, 5), (2, 5)]);
        assert_eq!(recycled(&g), (1, 1));
        assert_eq!(spill(&g, 1), hub_a);
        assert!(spill(&g, 2) != arr_a && spill(&g, 2) != arr_live);
        assert_eq!((spill(&b, 1), spill(&b, 2)), (hub_live, arr_live));
        assert_eq!(spill(&g, 3), mate);
        let owners = |g: &GraphView| [1, 2, 3].map(|v| g.table.set(v).spill_owners());
        assert_eq!(owners(&g), [1, 1, 2]);
        assert!(!b.has_edge(1, 5) && g.has_edge(1, 5) && g.has_edge(2, 5));

        // Under `c`, into `b`'s page: now the array has kept its capacity,
        // so both written spills reuse `b`'s buffers.
        drop(b);
        let c = g.clone();
        insert_all(&mut g, &[(1, 9), (2, 9)]);
        assert_eq!(recycled(&g), (2, 3));
        assert_eq!((spill(&g, 1), spill(&g, 2)), (hub_live, arr_live));
        assert_eq!(owners(&g), [1, 1, 2]);
        assert_eq!(g.degree(1), c.degree(1) + 1);
        let mut hub = [ids(300), vec![1, 5, 9]].concat();
        hub.sort_unstable();
        assert_eq!(g.table.set(1).to_vec(), hub);
        g.check_invariants();
        c.check_invariants();
    }
}
