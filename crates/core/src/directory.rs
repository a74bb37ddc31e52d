//! The vertex directory (paper §4.1 ①, §5): every vertex's cache-line
//! [`VertexBlock`], contiguous in fixed-size pages.
//!
//! [`GraphView`] owns the directory's representation and is the only code
//! that indexes it. The live [`LsGraph`](crate::LsGraph) holds one view plus
//! its writer-only state; a [`GraphSnapshot`](crate::GraphSnapshot) holds a
//! clone of that view; the checkpoint codec in `lsgraph-persist` takes
//! `&GraphView`. Every read — `degree`, neighbor walks, `tier`,
//! `check_invariants`, `footprint` — therefore has one body, and live graph,
//! snapshot and image cannot drift apart.
//!
//! A page is [`PAGE`] blocks in one allocation behind one reference count:
//! a sorted batch walks blocks in address order, a read is one indexed load
//! with no per-vertex pointer, cloning the view bumps one count per page, and
//! a writer copies a page it finds shared with a clone once (shallow — spills
//! ride along by reference). That format is private to this file.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use lsgraph_api::batch::{Run, SortedBatch};
use lsgraph_api::{
    catch_invariants, Footprint, Graph, LatencyStats, MemoryFootprint, StructStats, VertexId,
};
use rayon::prelude::*;

use crate::config::Config;
use crate::vertex::VertexBlock;

/// Vertex blocks per page, the unit a view shares with its clones. Larger
/// makes the flip cheaper and each page a lagging reader pins dearer; DESIGN.md
/// "Vertex directory" has the sweep that chose the value.
const PAGE: usize = 32;

/// One directory page: a shared, immutable-while-shared run of blocks.
type Page = Arc<[VertexBlock; PAGE]>;

fn empty_page() -> Page {
    Arc::new(std::array::from_fn(|_| VertexBlock::new()))
}

/// Exclusive access to a page's blocks, copying the page first when a view
/// clone still shares this version.
///
/// Sound without synchronization because the writer holds `&mut` on the view
/// for the whole batch: no clone can be *created* concurrently, so the strong
/// count can only decrease under us. A count of 1 is therefore definitively
/// exclusive; a racing snapshot-drop after we observe > 1 costs at most one
/// harmless extra copy. The displaced version lives on in the clones that
/// share it and is freed with the last of them.
fn page_mut<'a>(page: &'a mut Page, stats: &StructStats) -> &'a mut [VertexBlock; PAGE] {
    if Arc::strong_count(page) > 1 {
        stats.cow_block_copies.record(PAGE as u64);
    }
    Arc::make_mut(page)
}

/// One parallel task of [`GraphView::par_apply_disjoint`]: what its runs
/// applied, the structural events they recorded, and its clock. Lives on the
/// stack of the thread running the task, so no other worker writes near it.
struct Task {
    applied: usize,
    stats: StructStats,
    clock: Instant,
}

impl Task {
    fn start() -> Self {
        Task {
            applied: 0,
            stats: StructStats::new(),
            clock: Instant::now(),
        }
    }
}

/// The graph as a reader sees it: the vertex directory, the edge total, the
/// quarantine set, the configuration, and handles to the instrumentation.
///
/// Obtained from [`LsGraph::view`](crate::LsGraph::view) or
/// [`GraphSnapshot::view`](crate::GraphSnapshot::view); both types deref to
/// it and forward their `Graph` and `MemoryFootprint` impls to it. Cloning
/// is the snapshot flip: one reference bump per page, no block and no
/// adjacency payload.
#[derive(Clone)]
pub struct GraphView {
    /// Private, with `n`: what resizes or re-points the table is in this file.
    pages: Vec<Page>,
    /// Vertices in the directory. The blocks of the last page at or past
    /// `n` are padding: never read, never written, always empty.
    n: usize,
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

impl GraphView {
    /// An empty graph over `n` vertices. `cfg` must already be validated.
    pub(crate) fn new(n: usize, cfg: Config) -> Self {
        GraphView {
            pages: (0..n.div_ceil(PAGE)).map(|_| empty_page()).collect(),
            n,
            cfg,
            num_edges: 0,
            quarantined: BTreeSet::new(),
            stats: Arc::new(StructStats::new()),
            latency: Arc::new(LatencyStats::new()),
        }
    }

    /// The block of `v` — the one place the directory is indexed for reads.
    /// Panics unless `v < n`: the last page's padding is not a vertex.
    #[inline]
    pub(crate) fn block(&self, v: VertexId) -> &VertexBlock {
        let v = v as usize;
        assert!(v < self.n, "vertex {v} outside the directory ({})", self.n);
        &self.pages[v / PAGE][v % PAGE]
    }

    /// Every vertex's block, in id order.
    fn blocks(&self) -> impl Iterator<Item = &VertexBlock> {
        self.pages.iter().flat_map(|p| p.iter()).take(self.n)
    }

    /// Ensures the directory covers ids below `n`.
    pub(crate) fn grow_to(&mut self, n: usize) {
        if n > self.n {
            self.pages.resize_with(n.div_ceil(PAGE), empty_page);
            self.n = n;
        }
    }

    /// Replaces `v`'s block wholesale; an outstanding snapshot keeps reading
    /// the displaced version of its page. Edge accounting is the caller's (a
    /// block reset after a panic has no trustworthy degree).
    pub(crate) fn install(&mut self, v: VertexId, vb: VertexBlock) {
        let v = v as usize;
        assert!(v < self.n, "vertex {v} outside the directory ({})", self.n);
        page_mut(&mut self.pages[v / PAGE], &self.stats)[v % PAGE] = vb;
    }

    /// Runs `f` once per run on its source's block and returns the sum of the
    /// results. Each touched page is made exclusive once ([`page_mut`]) and
    /// takes its runs in source order ([`SortedBatch::slots_mut`]); the pages
    /// are folded into one [`Task`] per parallel chunk.
    ///
    /// `f` also gets its task's counters, to record into, and its task's
    /// clock, which starts when the task does and which `f` may advance. The
    /// workers thus share no counter: once the pass is over, the view's
    /// counters absorb each task's, so no structural event of the pass shows
    /// in them before it ends, and every total is what one shared family
    /// would hold.
    ///
    /// # Panics
    ///
    /// Panics if a run's source is outside the directory.
    pub(crate) fn par_apply_disjoint(
        &mut self,
        batch: &SortedBatch,
        f: impl Fn(Run<'_>, &mut VertexBlock, &StructStats, &mut Instant) -> usize + Sync,
    ) -> usize {
        assert!(
            batch
                .runs()
                .next_back()
                .is_none_or(|r| (r.src as usize) < self.n),
            "apply run source outside the vertex directory"
        );
        let tasks: Vec<Task> = batch
            .slots_mut::<_, PAGE>(&mut self.pages)
            .into_par_iter()
            .fold(Task::start, |mut task, (page, runs)| {
                let blocks = page_mut(page, &task.stats);
                for run in runs.iter().map(|r| batch.run(r)) {
                    let vb = &mut blocks[run.src as usize % PAGE];
                    task.applied += f(run, vb, &task.stats, &mut task.clock);
                }
                task
            })
            .collect();
        let mut applied = 0;
        for task in &tasks {
            self.stats.absorb(&task.stats);
            applied += task.applied;
        }
        applied
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

    /// Verifies every structural invariant: each vertex's block, container
    /// internals included ([`VertexBlock::check_invariants`]), that each
    /// quarantined vertex is in the table with degree 0, and that the
    /// degrees sum to the edge total.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant, naming the vertex when the
    /// invariant is one block's (a block does not know its own id).
    pub fn check_invariants(&self) {
        let mut total = 0;
        for (v, vb) in self.blocks().enumerate() {
            if let Err(e) = catch_invariants(|| vb.check_invariants(&self.cfg)) {
                panic!("vertex {v}: {e}");
            }
            total += vb.degree();
        }
        for &q in &self.quarantined {
            assert!(
                (q as usize) < self.n,
                "quarantined vertex {q} outside the table"
            );
            assert_eq!(self.degree(q), 0, "quarantined vertex {q} has edges");
        }
        assert_eq!(
            total, self.num_edges,
            "degrees disagree with the edge total"
        );
    }
}

impl Graph for GraphView {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
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
    fn for_each_neighbor_slice_while(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        self.block(v).for_each_slice_while(f)
    }

    #[inline]
    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.block(v).contains(u, &self.cfg)
    }
}

impl MemoryFootprint for GraphView {
    fn footprint(&self) -> Footprint {
        // Charged per vertex: the last page's padding is not the graph's.
        let blocks = Footprint::new(self.n * core::mem::size_of::<VertexBlock>(), 0);
        let spills: Footprint = self
            .pages
            .par_iter()
            .map(|page| page.iter().map(VertexBlock::spill_footprint).sum())
            .reduce(Footprint::default, Footprint::add);
        blocks + spills
    }
}

/// Gives `$ty` — which must have an inherent `fn view(&self) -> &GraphView`
/// — the view's whole read surface: its inherent methods through
/// `Deref<Target = GraphView>`, and the [`Graph`] and [`MemoryFootprint`]
/// impls, which generic code bounds on (`G: Graph` is not satisfied through
/// a deref). There is no `DerefMut`: `LsGraph` must not hand out
/// `&mut GraphView`.
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
            fn for_each_neighbor_slice_while(
                &self,
                v: lsgraph_api::VertexId,
                f: &mut dyn FnMut(&[lsgraph_api::VertexId]) -> bool,
            ) -> bool {
                self.view().for_each_neighbor_slice_while(v, f)
            }

            #[inline]
            fn has_edge(&self, v: lsgraph_api::VertexId, u: lsgraph_api::VertexId) -> bool {
                self.view().has_edge(v, u)
            }
        }

        impl lsgraph_api::MemoryFootprint for $ty {
            fn footprint(&self) -> lsgraph_api::Footprint {
                self.view().footprint()
            }
        }

        impl std::ops::Deref for $ty {
            type Target = $crate::GraphView;

            #[inline]
            fn deref(&self) -> &$crate::GraphView {
                self.view()
            }
        }
    };
}
pub(crate) use forward_to_view;

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::{Edge, StructSnapshot};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const P: u32 = PAGE as u32;

    fn view(n: usize) -> GraphView {
        GraphView::new(n, Config::default())
    }

    /// Inserts `u` into `v`'s adjacency through the batch entry point.
    fn insert(g: &mut GraphView, v: u32, u: u32) {
        let cfg = g.cfg;
        let batch = SortedBatch::new(&[Edge::new(v, u)]);
        g.num_edges += g.par_apply_disjoint(&batch, |_, vb, task_stats, _| {
            usize::from(vb.insert(u, &cfg, task_stats))
        });
    }

    fn cow_copies(g: &GraphView) -> u64 {
        g.stats.snapshot().cow_block_copies
    }

    fn page_ptrs(g: &GraphView) -> Vec<*const [VertexBlock; PAGE]> {
        g.pages.iter().map(Arc::as_ptr).collect()
    }

    #[test]
    fn disjoint_tasks_each_write_their_own_slot() {
        // Five sources: three on page 0, one on page 1, one on page 3.
        let srcs = [0, 2, P - 1, P, 3 * P + 1];
        let batch: Vec<Edge> = (0..40u32)
            .map(|i| Edge::new(srcs[i as usize % 5], 1_000 + i))
            .collect();
        let batch = SortedBatch::new(&batch);
        let mut g = view(4 * PAGE);
        let frozen = g.clone();
        let before = page_ptrs(&g);
        let cfg = g.cfg;
        let applied = g.par_apply_disjoint(&batch, |run, vb, task_stats, _| {
            assert_eq!(vb.degree(), 0);
            run.dsts
                .iter()
                .filter(|&&u| vb.insert(u, &cfg, task_stats))
                .count()
        });
        g.num_edges = applied;
        assert_eq!(applied, 40);
        for src in srcs {
            assert_eq!((g.degree(src), frozen.degree(src)), (8, 0), "source {src}");
        }
        assert_eq!(g.degree(1), 0);
        g.check_invariants();
        frozen.check_invariants();
        // Every touched page was shared with the clone, so each was copied
        // once — not once per source on it — and the untouched page was not.
        assert_eq!(cow_copies(&g), 3 * PAGE as u64);
        let after = page_ptrs(&g);
        let moved: Vec<bool> = (0..4).map(|p| before[p] != after[p]).collect();
        assert_eq!(moved, [true, true, false, true]);
        assert_eq!(page_ptrs(&frozen), before);
    }

    #[test]
    #[should_panic(expected = "outside the vertex directory")]
    fn out_of_range_source_is_refused() {
        // 4 is inside the first page's allocation but not a vertex.
        let batch = SortedBatch::new(&[Edge::new(1, 0), Edge::new(4, 0)]);
        view(4).par_apply_disjoint(&batch, |_, _, _, _| 0);
    }

    /// The workers record into their tasks' counters, never the view's:
    /// while the pass runs, a clone of the view's handle keeps reading what
    /// it read before the call; after it, the view's counters have moved by
    /// exactly what the runs recorded, page copies included.
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
        let shared = Arc::clone(&g.stats);
        let before = shared.snapshot();
        assert_ne!(before, StructSnapshot::default());
        let cfg = g.cfg;
        let applied = g.par_apply_disjoint(&batch, |run, vb, task_stats, _| {
            let n = run
                .dsts
                .iter()
                .filter(|&&u| vb.insert(u, &cfg, task_stats))
                .count();
            assert!(task_stats.snapshot().vb_inline_hits > 0);
            assert_eq!(shared.snapshot(), before, "source {}", run.src);
            n
        });
        assert_eq!(applied, batch.len());

        // The same runs, one after another, into one family.
        let expect = StructStats::new();
        expect.cow_block_copies.record(3 * PAGE as u64);
        for run in batch.runs() {
            let mut vb = VertexBlock::new();
            for &u in run.dsts {
                vb.insert(u, &cfg, &expect);
            }
            assert_eq!(g.block(run.src).to_vec(), vb.to_vec());
        }
        let moved = shared.snapshot().since(before);
        assert!(moved.tier_upgrades > 0 && moved.vb_spill_inserts > 0);
        assert_eq!(moved.cow_block_copies, 3 * PAGE as u64);
        assert_eq!(moved, expect.snapshot());
        assert_eq!(frozen.degree(P + 5), 0);
    }

    /// A displaced page is freed by the reference counts alone: it lives
    /// exactly as long as the last view clone that can read it.
    #[test]
    fn displaced_version_dies_with_its_last_reader() {
        let mut g = view(PAGE + 2);
        let (first, second) = (g.clone(), g.clone());
        let cowed = Arc::downgrade(&g.pages[0]);
        let installed = Arc::downgrade(&g.pages[1]);
        let cfg = g.cfg;
        insert(&mut g, 0, 1);
        g.install(P + 1, VertexBlock::from_sorted_neighbors(&[0], &cfg));
        assert_eq!(cow_copies(&g), 2 * PAGE as u64);
        assert_eq!((g.degree(0), first.degree(0)), (1, 0));
        assert_eq!((g.degree(P + 1), second.degree(P + 1)), (1, 0));
        drop(first);
        assert!(cowed.upgrade().is_some() && installed.upgrade().is_some());
        drop(second);
        assert!(cowed.upgrade().is_none() && installed.upgrade().is_none());
        // Unshared again: the next writes are in place.
        let live = page_ptrs(&g);
        insert(&mut g, 0, 2);
        g.install(P + 1, VertexBlock::new());
        assert_eq!(cow_copies(&g), 2 * PAGE as u64);
        assert_eq!(page_ptrs(&g), live);
    }

    /// `install` under a clone copies the page once, however many of its
    /// blocks are then replaced; without a clone it copies nothing.
    #[test]
    fn install_copies_a_shared_page_once() {
        let mut g = view(2 * PAGE);
        let cfg = g.cfg;
        let one = || VertexBlock::from_sorted_neighbors(&[7], &cfg);
        g.install(3, one());
        assert_eq!(cow_copies(&g), 0);
        let frozen = g.clone();
        let before = page_ptrs(&g);
        g.install(4, one());
        g.install(5, one());
        assert_eq!(cow_copies(&g), PAGE as u64);
        assert_eq!((g.degree(4), g.degree(5)), (1, 1));
        assert_eq!(
            (frozen.degree(3), frozen.degree(4), frozen.degree(5)),
            (1, 0, 0)
        );
        let after = page_ptrs(&g);
        assert!(before[0] != after[0] && before[1] == after[1]);
        assert_eq!(page_ptrs(&frozen), before);
    }

    /// Whether reading `v` panics, through the three read entry points.
    fn read_panics(g: &GraphView, v: u32) -> bool {
        let reads: [&dyn Fn() -> usize; 3] =
            [&|| g.degree(v), &|| usize::from(g.has_edge(v, 0)), &|| {
                usize::from(g.for_each_neighbor_slice_while(v, &mut |_| true))
            }];
        let panicked = reads.map(|read| catch_unwind(AssertUnwindSafe(read)).is_err());
        assert!(panicked.iter().all(|&p| p == panicked[0]), "vertex {v}");
        panicked[0]
    }

    /// The directory has exactly `n` vertices whatever the page size: the
    /// padding of the last page is not readable and not counted.
    #[test]
    fn padding_is_not_a_vertex() {
        for n in [1, 63, 64, 65, 130] {
            let g = view(n);
            let frozen = g.clone();
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.pages.len(), n.div_ceil(PAGE));
            assert_eq!(g.blocks().count(), n);
            assert_eq!(
                g.footprint().total(),
                n * core::mem::size_of::<VertexBlock>()
            );
            assert!(!read_panics(&g, n as u32 - 1));
            for v in n..g.pages.len() * PAGE + 1 {
                assert!(read_panics(&g, v as u32), "n {n}, live, vertex {v}");
                assert!(read_panics(&frozen, v as u32), "n {n}, clone, vertex {v}");
            }
            g.check_invariants();
        }
    }

    #[test]
    fn growth_across_a_page_boundary_leaves_a_clone_alone() {
        let n = PAGE + 3;
        let mut g = view(n);
        insert(&mut g, P + 2, 9);
        let frozen = g.clone();
        let before = page_ptrs(&frozen);
        // Within the last page first, then across two boundaries.
        for grown in [n + 2, 3 * PAGE + 1] {
            g.grow_to(grown);
            assert_eq!(g.num_vertices(), grown);
            insert(&mut g, grown as u32 - 1, 5);
            assert_eq!(g.degree(grown as u32 - 1), 1);
            g.check_invariants();
        }
        g.grow_to(n);
        assert_eq!(g.num_vertices(), 3 * PAGE + 1, "the table never shrinks");
        // The first write landed on the page the clone shares (its padding,
        // to the clone); the second on a page the clone never had.
        assert_eq!(cow_copies(&g), PAGE as u64);
        assert_eq!(frozen.num_vertices(), n);
        assert_eq!(frozen.num_edges(), 1);
        assert_eq!(page_ptrs(&frozen), before);
        assert_eq!(frozen.degree(P + 2), 1);
        assert!(read_panics(&frozen, n as u32));
        assert!(read_panics(&frozen, n as u32 + 1));
        frozen.check_invariants();
    }

    /// Cloning the view touches page counts only; a hub's spill gains a
    /// second owner when its page is copied and not before.
    #[test]
    fn clone_bumps_page_counts_only() {
        let mut g = view(2 * PAGE);
        let cfg = g.cfg;
        let hub: Vec<u32> = (0..500).collect();
        g.install(1, VertexBlock::from_sorted_neighbors(&hub, &cfg));
        let spill_owners = |g: &GraphView| g.block(1).spill_owners();
        assert_eq!(spill_owners(&g), 1);
        let frozen = g.clone();
        assert_eq!(spill_owners(&g), 1);
        assert!(g.pages.iter().all(|p| Arc::strong_count(p) == 2));
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
    }
}
