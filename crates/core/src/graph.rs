//! The LSGraph engine: the live [`GraphView`] + the writer-only state around
//! it + the parallel batch-update pipeline (paper §5, Fig. 11).

use lsgraph_api::batch::{sorted_dedup_keys, SortedBatch};
use lsgraph_api::fail_point;
use lsgraph_api::{
    DynamicGraph, Edge, Graph, LatencySnapshot, LatencyStats, MemoryFootprint, NeighborSet, Phase,
    StructSnapshot, StructStats, VertexId,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::config::{Config, ConfigError};
use crate::error::{BatchOutcome, GraphError};
use crate::snapshot::GraphSnapshot;
use crate::vertex::{BlockCtx, VertexBlock};
use crate::view::{forward_to_view, GraphView};

/// A shared-memory streaming graph engine with locality-centric storage.
///
/// # Examples
///
/// ```
/// use lsgraph_core::LsGraph;
/// use lsgraph_api::{DynamicGraph, Graph, Edge};
///
/// let mut g = LsGraph::new(4);
/// g.insert_batch(&[Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)]);
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(0), vec![1, 2]);
/// ```
pub struct LsGraph {
    /// The graph itself: vertex directory, edge total, quarantine set,
    /// configuration and instrumentation handles. Everything a reader can
    /// ask is answered from here, and a snapshot ([`LsGraph::snapshot`]) is
    /// a clone of it.
    view: GraphView,
    /// Batches committed so far; stamps [`BatchEvent::seq`].
    batch_seq: u64,
    /// Post-batch observers, notified in registration order after every
    /// committed batch (see [`PostBatchHook`]).
    hooks: Vec<Box<dyn PostBatchHook>>,
}

/// Which pipeline a committed batch went through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// The batch inserted edges ([`LsGraph::try_insert_batch`]).
    Insert,
    /// The batch deleted edges ([`LsGraph::try_delete_batch`]).
    Delete,
}

/// What a post-batch hook observes: the batch that just committed, its
/// outcome, and a monotone sequence number ordering all batches applied to
/// this graph.
pub struct BatchEvent<'a> {
    /// 1-based position of this batch in the graph's update stream.
    pub seq: u64,
    /// Insert or delete pipeline.
    pub kind: BatchKind,
    /// The raw batch as passed by the caller (duplicates and no-ops
    /// included).
    pub batch: &'a [Edge],
    /// Per-vertex fault accounting for the batch.
    pub outcome: &'a BatchOutcome,
}

/// Observer invoked after every committed batch, while the writer still
/// holds the graph.
///
/// The hook runs on the writer thread, so implementations that do real work
/// should grab what they need — typically an [`LsGraph::snapshot`] — and
/// hand off to another thread rather than computing inline. That snapshot is
/// one reference-count increment per directory page (tens of microseconds at
/// 2^17 vertices), and while it lives a batch copies each page it writes. The
/// standing-query layer (`lsgraph-queries`) is the canonical consumer.
///
/// Only the batch pipeline calls hooks: [`LsGraph::clear_vertex`],
/// [`LsGraph::repair_vertex`] and [`LsGraph::restore_vertex_from_sorted`]
/// change adjacency without an event.
///
/// `Send + Sync` because [`LsGraph`] itself is shared across the parallel
/// apply tasks; hooks are only ever *called* from the writer thread.
pub trait PostBatchHook: Send + Sync {
    /// Called once per committed batch, in `seq` order.
    fn on_batch(&mut self, graph: &LsGraph, event: &BatchEvent<'_>);
}

/// One source run in this many feeds the `group_apply` histogram (see
/// `LsGraph::apply_runs`): a clock read costs more than most runs.
const GROUP_APPLY_SAMPLE: usize = 64;

/// Result of one panic-isolated parallel apply pass.
struct RunApplyResult {
    /// Summed per-run counts from the runs that committed.
    applied: usize,
    /// Sources whose task panicked, with their pre-batch degrees. Sorted.
    panicked: Vec<(VertexId, usize)>,
    /// Runs skipped because their source was already quarantined.
    skipped_quarantined: usize,
}

impl LsGraph {
    /// Creates an empty graph over `n` vertices with the default (paper)
    /// configuration.
    pub fn new(n: usize) -> Self {
        LsGraph::with_config(n, Config::default())
    }

    /// Creates an empty graph with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`α <= 1`, misordered
    /// thresholds); use [`LsGraph::try_with_config`] for a fallible variant.
    pub fn with_config(n: usize, cfg: Config) -> Self {
        LsGraph::try_with_config(n, cfg).expect("invalid LSGraph configuration")
    }

    /// Creates an empty graph with an explicit configuration, rejecting an
    /// invalid one as a value instead of panicking.
    pub fn try_with_config(n: usize, cfg: Config) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(LsGraph {
            view: GraphView::new(n, cfg),
            batch_seq: 0,
            hooks: Vec::new(),
        })
    }

    /// Bulk-loads a graph from an edge list in parallel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`LsGraph::try_from_edges`] for a fallible variant (which also
    /// surfaces any contained per-vertex build faults).
    pub fn from_edges(n: usize, edges: &[Edge], cfg: Config) -> Self {
        let (g, _outcome) =
            LsGraph::try_from_edges(n, edges, cfg).expect("invalid LSGraph configuration");
        g
    }

    /// Bulk-loads a graph from an edge list in parallel, surfacing failures
    /// as values.
    ///
    /// Returns the graph plus a [`BatchOutcome`]: if a per-vertex build task
    /// panicked, that vertex is quarantined (degree 0) and listed in the
    /// outcome while every other vertex loads normally and `num_edges`
    /// stays exact.
    pub fn try_from_edges(
        n: usize,
        edges: &[Edge],
        cfg: Config,
    ) -> Result<(Self, BatchOutcome), GraphError> {
        let batch = SortedBatch::new(edges);
        let mut g = LsGraph::try_with_config(n.max(batch.id_bound()), cfg)?;
        let failures: Mutex<Vec<VertexId>> = Mutex::new(Vec::new());
        let applied = g.view.table.par_apply(&batch, |run, vb, ctx| {
            let task = || {
                fail_point!("apply_run");
                *vb = VertexBlock::from_sorted(run.dsts, ctx);
                run.dsts.len()
            };
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(cnt) => cnt,
                Err(_) => {
                    failures.lock().unwrap().push(run.src);
                    0
                }
            }
        });
        let mut quarantined = failures.into_inner().unwrap();
        quarantined.sort_unstable();
        for &src in &quarantined {
            // A panicked build may have left the block partially assigned;
            // force it back to a pristine empty block.
            g.view.table.install(src, VertexBlock::default());
            g.view.quarantined.insert(src);
            g.view.stats().apply_run_panics.record(1);
            g.view.stats().vertices_quarantined.record(1);
        }
        g.view.table.account(applied, 0);
        let outcome = BatchOutcome {
            applied,
            quarantined,
            edges_lost: batch.len() - applied,
            skipped_quarantined: 0,
        };
        Ok((g, outcome))
    }

    /// The graph as a reader sees it. Every read accessor of this type
    /// forwards here; a checkpoint writer takes it directly.
    #[inline]
    pub fn view(&self) -> &GraphView {
        &self.view
    }

    /// Snapshot of the structural counters.
    pub fn struct_snapshot(&self) -> StructSnapshot {
        self.view.stats().snapshot()
    }

    /// Ensures the vertex table covers ids below `n`; it never shrinks. A
    /// checkpoint restore grows it to the count an image records.
    pub fn grow_to(&mut self, n: usize) {
        self.view.table.grow_to(n);
    }

    /// Applies `op` once per run — the run's vertex block and its whole
    /// ascending destination slice — in parallel with per-run panic
    /// isolation; a run's count is what `op` returns, the ids it changed.
    /// The run is the unit of apply all the way down: the block merges it
    /// against its inline line and hands the rest to its container in one
    /// call ([`NeighborSet::insert_run`], [`NeighborSet::delete_run`]). `op`
    /// records into its task's context (see `SetTable::par_apply`), a
    /// killed run's partial movement included.
    ///
    /// One run in [`GROUP_APPLY_SAMPLE`] is timed: the runs whose index in
    /// `batch` (after the quarantined sources are dropped) is a multiple of
    /// it, by two clock reads around `op`. Each such run that commits adds
    /// one `group_apply` sample, so a batch of `r` runs adds `ceil(r / 64)`
    /// less its sampled runs that panicked, whatever the pool's width. The
    /// sample is positional: a batch under 64 runs is sampled at its lowest
    /// source only, and making a page exclusive (`page_mut`'s copy-on-write)
    /// happens before `op` and is in no sample.
    ///
    /// A run whose task panics does not poison the batch: sibling runs
    /// commit normally (each run is handed its source's block alone, so an
    /// unwound run cannot have touched anyone else's data), and the
    /// panicked source is quarantined — its block reset to empty, its id
    /// recorded — so `num_edges` can be kept exact by the caller using the
    /// returned pre-batch degrees. Runs whose source is already quarantined
    /// are skipped entirely.
    fn apply_runs(
        &mut self,
        mut batch: SortedBatch,
        op: impl Fn(&mut VertexBlock, &[u32], &BlockCtx) -> usize + Sync,
    ) -> RunApplyResult {
        let offered = batch.runs().len();
        if !self.view.quarantined.is_empty() {
            let quarantined = &self.view.quarantined;
            batch.retain_sources(|src| !quarantined.contains(&src));
        }
        let skipped_quarantined = offered - batch.runs().len();
        let failures: Mutex<Vec<(VertexId, usize)>> = Mutex::new(Vec::new());
        let applied = {
            // The directory is lent out mutably for the pass, so the phase
            // timer holds its own handle on the counters.
            let counters = Arc::clone(&self.view.table.ctx().stats);
            let _apply = counters.time(Phase::Apply);
            let latency = &self.view.latency;
            let batch_start = Instant::now();
            let n = self.view.table.par_apply(&batch, |run, vb, task_ctx| {
                let d_pre = vb.degree();
                let start = (run.index % GROUP_APPLY_SAMPLE == 0).then(Instant::now);
                let task = || {
                    fail_point!("apply_run");
                    op(vb, run.dsts, task_ctx)
                };
                match catch_unwind(AssertUnwindSafe(task)) {
                    Ok(n) => {
                        if let Some(start) = start {
                            latency.group_apply.record_duration(start.elapsed());
                        }
                        n
                    }
                    Err(_) => {
                        failures.lock().unwrap().push((run.src, d_pre));
                        0
                    }
                }
            });
            latency.batch_apply.record_duration(batch_start.elapsed());
            n
        };
        let mut panicked = failures.into_inner().unwrap();
        panicked.sort_unstable();
        for &(src, _) in &panicked {
            // The panicked task may have left this block arbitrarily
            // corrupt; drop its adjacency and quarantine the vertex. A
            // snapshot never shared the page the panic landed on (the CoW
            // copy happens before any of the page's runs), so it still sees
            // the pre-batch state and resetting the block here is safe.
            self.view.table.install(src, VertexBlock::default());
            self.view.quarantined.insert(src);
            self.view.stats().apply_run_panics.record(1);
            self.view.stats().vertices_quarantined.record(1);
        }
        RunApplyResult {
            applied,
            panicked,
            skipped_quarantined,
        }
    }

    /// Removes every out-edge of `v`, returning how many were removed
    /// (vertex deletion for directed use: in-edges stay).
    pub fn clear_vertex(&mut self, v: VertexId) -> usize {
        let removed = self.degree(v);
        self.view.table.install(v, VertexBlock::default());
        self.view.table.account(0, removed);
        removed
    }

    /// Inserts a batch, surfacing contained per-vertex faults as a
    /// [`BatchOutcome`] instead of unwinding.
    ///
    /// Semantics match [`DynamicGraph::insert_batch`] for the runs that
    /// commit; a run whose apply task panics quarantines its source (see
    /// [`LsGraph::repair_vertex`]) and `num_edges` stays exact.
    pub fn try_insert_batch(&mut self, batch: &[Edge]) -> Result<BatchOutcome, GraphError> {
        self.apply_batch(BatchKind::Insert, batch)
    }

    /// Deletes a batch, surfacing contained per-vertex faults as a
    /// [`BatchOutcome`] instead of unwinding. See
    /// [`LsGraph::try_insert_batch`].
    pub fn try_delete_batch(&mut self, batch: &[Edge]) -> Result<BatchOutcome, GraphError> {
        self.apply_batch(BatchKind::Delete, batch)
    }

    /// The batch pipeline: sort and deduplicate, group by source, size the
    /// runs to the table, apply, account, notify.
    fn apply_batch(&mut self, kind: BatchKind, batch: &[Edge]) -> Result<BatchOutcome, GraphError> {
        if batch.is_empty() {
            return Ok(BatchOutcome::default());
        }
        let keys = {
            let _t = self.view.stats().time(Phase::Sort);
            sorted_dedup_keys(batch)
        };
        let mut sorted = {
            let _t = self.view.stats().time(Phase::Group);
            SortedBatch::from_keys(&keys)
        };
        drop(keys);
        let r = match kind {
            BatchKind::Insert => {
                self.grow_to(sorted.id_bound());
                self.apply_runs(sorted, VertexBlock::insert_run)
            }
            // Ignore runs for vertices beyond the table; those edges cannot
            // exist.
            BatchKind::Delete => {
                let n = self.num_vertices();
                sorted.retain_sources(|src| (src as usize) < n);
                self.apply_runs(sorted, VertexBlock::delete_run)
            }
        };
        let edges_lost: usize = r.panicked.iter().map(|&(_, d_pre)| d_pre).sum();
        // Quarantining dropped each failed source's full pre-batch adjacency
        // (its partial in-run mutations were never counted), so subtracting
        // exactly that keeps the accounting exact.
        match kind {
            BatchKind::Insert => self.view.table.account(r.applied, edges_lost),
            BatchKind::Delete => self.view.table.account(0, r.applied + edges_lost),
        }
        let outcome = BatchOutcome {
            applied: r.applied,
            quarantined: r.panicked.iter().map(|&(v, _)| v).collect(),
            edges_lost,
            skipped_quarantined: r.skipped_quarantined,
        };
        self.notify_hooks(kind, batch, &outcome);
        Ok(outcome)
    }

    /// Registers a post-batch observer; hooks fire in registration order
    /// after every committed batch.
    pub fn add_post_batch_hook(&mut self, hook: Box<dyn PostBatchHook>) {
        self.hooks.push(hook);
    }

    /// Batches committed so far (the `seq` the next [`BatchEvent`] will
    /// carry is `batch_seq() + 1`).
    pub fn batch_seq(&self) -> u64 {
        self.batch_seq
    }

    /// Stamps the event and fans it out. Hooks are moved out for the call so
    /// they can read `self` (take a snapshot, probe degrees) re-entrantly.
    fn notify_hooks(&mut self, kind: BatchKind, batch: &[Edge], outcome: &BatchOutcome) {
        self.batch_seq += 1;
        if self.hooks.is_empty() {
            return;
        }
        let mut hooks = std::mem::take(&mut self.hooks);
        let event = BatchEvent {
            seq: self.batch_seq,
            kind,
            batch,
            outcome,
        };
        for h in &mut hooks {
            h.on_batch(self, &event);
        }
        // A hook that registered another hook during the call would be lost;
        // keep any additions made re-entrantly.
        hooks.append(&mut self.hooks);
        self.hooks = hooks;
    }

    /// Installs `v`'s adjacency from a strictly-ascending duplicate-free
    /// slice during checkpoint restore, growing the vertex table as needed
    /// and keeping `num_edges` exact. The block's tier is rebuilt
    /// deterministically from the degree ([`NeighborSet::from_sorted`]);
    /// a live graph's hysteresis-held tier may legitimately differ, which
    /// only changes layout, never content.
    pub fn restore_vertex_from_sorted(&mut self, v: VertexId, ns: &[u32]) {
        debug_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        self.grow_to(v as usize + 1);
        let old = self.degree(v);
        let vb = VertexBlock::from_sorted(ns, self.view.table.ctx());
        self.view.table.install(v, vb);
        self.view.table.account(ns.len(), old);
    }

    /// Replaces the quarantine set wholesale during checkpoint restore, so
    /// WAL-tail replay skips the same runs the pre-crash process skipped:
    /// each checkpoint image records the *complete* quarantine list at its
    /// freeze, so applying a delta supersedes the parent's marks (a vertex
    /// repaired between two freezes leaves quarantine here). Every marked
    /// vertex must currently read as degree 0 (quarantined blocks always
    /// do).
    pub fn restore_quarantine_set(&mut self, vs: &[VertexId]) -> Result<(), GraphError> {
        for &v in vs {
            if v as usize >= self.num_vertices() {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: self.num_vertices(),
                });
            }
            debug_assert_eq!(self.degree(v), 0);
        }
        self.view.quarantined = vs.iter().copied().collect();
        Ok(())
    }

    /// Restores a quarantined vertex with a caller-supplied adjacency
    /// (deduplicated and sorted here), returning how many edges were
    /// installed. The vertex leaves quarantine and resumes accepting
    /// batched updates.
    pub fn repair_vertex(
        &mut self,
        v: VertexId,
        neighbors: &[VertexId],
    ) -> Result<usize, GraphError> {
        if v as usize >= self.num_vertices() {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.num_vertices(),
            });
        }
        if !self.view.quarantined.remove(&v) {
            return Err(GraphError::NotQuarantined(v));
        }
        let mut ns = neighbors.to_vec();
        ns.sort_unstable();
        ns.dedup();
        let vb = VertexBlock::from_sorted(&ns, self.view.table.ctx());
        self.view.table.install(v, vb);
        // A quarantined block has degree 0, so the whole adjacency is new.
        self.view.table.account(ns.len(), 0);
        self.view.stats().vertices_repaired.record(1);
        Ok(ns.len())
    }

    /// Index bytes (RIA index arrays, LIA models, slot metadata) versus
    /// total bytes — the paper's Table 3 `I/L` ratio.
    pub fn index_overhead(&self) -> f64 {
        self.footprint().index_ratio()
    }

    /// Freezes the current state into an immutable [`GraphSnapshot`].
    ///
    /// The flip clones the view — one reference bump per directory page, no
    /// adjacency payload; later batches copy-on-write the pages they touch,
    /// so the snapshot keeps reading exactly the state at the flip, and a
    /// displaced page goes back to the graph, for its next copy of that
    /// page to reuse, when the last snapshot sharing it drops (and is
    /// freed by the graph's next batch if no snapshot is left by then).
    /// Taking a snapshot requires `&self`, so it interleaves with batches at
    /// batch boundaries; the returned handle is `Clone + Send + Sync` and
    /// outlives the graph's borrow, so readers on other threads proceed
    /// wait-free while the writer streams.
    ///
    /// # Examples
    ///
    /// ```
    /// use lsgraph_core::LsGraph;
    /// use lsgraph_api::{DynamicGraph, Graph, Edge};
    ///
    /// let mut g = LsGraph::new(3);
    /// g.insert_batch(&[Edge::new(0, 1)]);
    /// let snap = g.snapshot();
    /// g.insert_batch(&[Edge::new(0, 2)]);
    /// assert_eq!(snap.neighbors(0), vec![1]); // frozen at the flip
    /// assert_eq!(g.neighbors(0), vec![1, 2]); // live view moved on
    /// ```
    pub fn snapshot(&self) -> GraphSnapshot {
        // If the flip faults here (`snapshot_flip`), unwinding drops the
        // clone and every reference count returns to its pre-flip value —
        // the live graph and all outstanding snapshots are untouched, and
        // `snapshots_taken` never saw the attempt.
        let view = self.view.clone();
        fail_point!("snapshot_flip");
        self.view.stats().snapshots_taken.record(1);
        GraphSnapshot::new(view)
    }

    /// Does nothing: a displaced page goes back to the graph as a spare
    /// when the last snapshot that reads it drops, so there is nothing left
    /// to reclaim here. Exists only because `benchmark/src/{engine,layers}.rs`
    /// (frozen by `BENCHMARK.json` `paths`) still call it; the next PR that
    /// may edit `benchmark/` removes the calls and this with them.
    pub fn reclaim_epochs(&self) {}

    /// Shared handle to this engine's structural counters, for registration
    /// with a [`lsgraph_api::MetricsRegistry`] — a sampler can then
    /// snapshot them live while batches apply.
    pub fn stats_handle(&self) -> Arc<StructStats> {
        Arc::clone(&self.view.table.ctx().stats)
    }

    /// Shared handle to this engine's latency histograms (see
    /// [`LsGraph::stats_handle`]).
    pub fn latency_handle(&self) -> Arc<LatencyStats> {
        Arc::clone(&self.view.latency)
    }
}

forward_to_view!(LsGraph);

impl DynamicGraph for LsGraph {
    fn insert_batch(&mut self, batch: &[Edge]) -> usize {
        self.try_insert_batch(batch)
            .expect("try_insert_batch has no error modes")
            .applied
    }

    fn delete_batch(&mut self, batch: &[Edge]) -> usize {
        self.try_delete_batch(batch)
            .expect("try_delete_batch has no error modes")
            .applied
    }

    fn struct_stats(&self) -> Option<StructSnapshot> {
        Some(self.view.stats().snapshot())
    }

    fn latency_stats(&self) -> Option<LatencySnapshot> {
        Some(self.view.latency.snapshot())
    }

    fn configured_alpha(&self) -> Option<f64> {
        Some(self.view.config().alpha)
    }

    fn reset_instrumentation(&mut self) {
        self.view.stats().reset();
        self.view.latency.reset();
    }

    fn check_invariants(&self) {
        self.view.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Spill;
    use crate::config::INLINE_CAP;
    use crate::stats::Tier;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(a, b)| Edge::new(a, b)).collect()
    }

    #[test]
    fn empty_graph() {
        let g = LsGraph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(0), Vec::<u32>::new());
        g.check_invariants();
    }

    #[test]
    fn insert_batch_counts_new_edges_only() {
        let mut g = LsGraph::new(4);
        assert_eq!(g.insert_batch(&edges(&[(0, 1), (0, 2), (0, 1)])), 2);
        assert_eq!(g.insert_batch(&edges(&[(0, 1), (1, 0)])), 1);
        assert_eq!(g.num_edges(), 3);
        g.check_invariants();
    }

    #[test]
    fn delete_batch() {
        let mut g = LsGraph::from_edges(3, &edges(&[(0, 1), (0, 2), (1, 2)]), Config::default());
        assert_eq!(g.delete_batch(&edges(&[(0, 1), (2, 0), (9, 9)])), 1);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), vec![2]);
        g.check_invariants();
    }

    #[test]
    fn grows_vertex_table_on_demand() {
        let mut g = LsGraph::new(2);
        g.insert_batch(&edges(&[(10, 20)]));
        assert_eq!(g.num_vertices(), 21);
        assert!(g.has_edge(10, 20));
        g.check_invariants();
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut es = Vec::new();
        for _ in 0..20_000 {
            es.push(Edge::new(rng.gen_range(0..50), rng.gen_range(0..2_000)));
        }
        let bulk = LsGraph::from_edges(2_000, &es, Config::default());
        let mut inc = LsGraph::new(2_000);
        for chunk in es.chunks(997) {
            inc.insert_batch(chunk);
        }
        assert_eq!(bulk.num_edges(), inc.num_edges());
        for v in 0..50u32 {
            assert_eq!(bulk.neighbors(v), inc.neighbors(v), "vertex {v}");
        }
        bulk.check_invariants();
        inc.check_invariants();
    }

    #[test]
    fn insert_then_delete_restores_original() {
        // The paper's throughput loop inserts a batch and then deletes it,
        // asserting the graph is unchanged.
        let mut rng = SmallRng::seed_from_u64(8);
        let base: Vec<Edge> = (0..5_000)
            .map(|_| Edge::new(rng.gen_range(0..100), rng.gen_range(0..1_000)))
            .collect();
        let mut g = LsGraph::from_edges(1_000, &base, Config::default());
        let before: Vec<Vec<u32>> = (0..100).map(|v| g.neighbors(v)).collect();
        let m = g.num_edges();
        let batch: Vec<Edge> = (0..3_000)
            .map(|_| Edge::new(rng.gen_range(0..100), rng.gen_range(1_000..5_000)))
            .collect();
        let added = g.insert_batch(&batch);
        assert!(added > 0);
        let removed = g.delete_batch(&batch);
        assert_eq!(added, removed);
        assert_eq!(g.num_edges(), m);
        for v in 0..100u32 {
            assert_eq!(g.neighbors(v), before[v as usize], "vertex {v}");
        }
        g.check_invariants();
    }

    #[test]
    fn high_degree_vertex_lifecycle() {
        let cfg = Config {
            m: 512,
            ..Config::default()
        };
        let mut g = LsGraph::with_config(10, cfg);
        let batch: Vec<Edge> = (0..8_000u32).map(|i| Edge::new(0, i + 1)).collect();
        assert_eq!(g.insert_batch(&batch), 8_000);
        assert_eq!(g.degree(0), 8_000);
        let ns = g.neighbors(0);
        assert!(ns.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ns.len(), 8_000);
        g.check_invariants();
        assert_eq!(g.delete_batch(&batch), 8_000);
        assert_eq!(g.degree(0), 0);
        g.check_invariants();
    }

    #[test]
    fn undirected_insert() {
        let mut g = LsGraph::new(4);
        g.insert_batch_undirected(&edges(&[(0, 1), (2, 3)]));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(2, 3) && g.has_edge(3, 2));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn differential_against_adjacency_map_random_stream() {
        let mut rng = SmallRng::seed_from_u64(77);
        let cfg = Config {
            m: 128,
            ..Config::default()
        };
        let mut g = LsGraph::with_config(300, cfg);
        let mut oracle: Vec<std::collections::BTreeSet<u32>> = vec![Default::default(); 300];
        for round in 0..30 {
            let batch: Vec<Edge> = (0..500)
                .map(|_| Edge::new(rng.gen_range(0..300), rng.gen_range(0..300)))
                .collect();
            if round % 3 == 2 {
                let removed = g.delete_batch(&batch);
                let mut expect = 0;
                for e in dedup(&batch) {
                    if oracle[e.src as usize].remove(&e.dst) {
                        expect += 1;
                    }
                }
                assert_eq!(removed, expect, "round {round}");
            } else {
                let added = g.insert_batch(&batch);
                let mut expect = 0;
                for e in dedup(&batch) {
                    if oracle[e.src as usize].insert(e.dst) {
                        expect += 1;
                    }
                }
                assert_eq!(added, expect, "round {round}");
            }
        }
        g.check_invariants();
        for v in 0..300u32 {
            assert_eq!(
                g.neighbors(v),
                oracle[v as usize].iter().copied().collect::<Vec<_>>(),
                "vertex {v}"
            );
        }
    }

    fn dedup(batch: &[Edge]) -> Vec<Edge> {
        let mut v = batch.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn latency_histograms_count_batches_and_runs() {
        let mut g = LsGraph::new(10);
        // Each batch has a known number of distinct sources (= per-source
        // runs), and one run in 64 is sampled, so the histogram *counts*
        // are deterministic even though the recorded latencies are not.
        let wide: Vec<(u32, u32)> = (0..200).map(|s| (s, s + 1)).collect();
        let batches: Vec<Vec<Edge>> = vec![
            edges(&[(0, 1), (0, 2), (1, 2)]), // 2 runs
            edges(&[(2, 3)]),                 // 1 run
            edges(&[(3, 4), (4, 5), (5, 6)]), // 3 runs
            edges(&wide),                     // 200 runs
        ];
        for b in &batches {
            g.insert_batch(b);
        }
        let lat = g.latency_stats().expect("lsgraph records latency");
        assert_eq!(lat.batch_apply.count(), 4);
        // ceil(runs / 64) per batch.
        assert_eq!(GROUP_APPLY_SAMPLE, 64);
        assert_eq!(lat.group_apply.count(), 1 + 1 + 1 + 4);
        assert!(lat.batch_apply.sum >= lat.batch_apply.max);
        g.reset_instrumentation();
        let lat = g.latency_stats().unwrap();
        assert_eq!(lat.batch_apply.count(), 0);
        assert_eq!(lat.group_apply.count(), 0);
        assert_eq!(g.configured_alpha(), Some(g.config().alpha));
    }

    #[test]
    fn footprint_and_index_overhead() {
        let mut rng = SmallRng::seed_from_u64(4);
        let es: Vec<Edge> = (0..50_000)
            .map(|_| Edge::new(rng.gen_range(0..1_000), rng.gen_range(0..10_000)))
            .collect();
        let g = LsGraph::from_edges(10_000, &es, Config::default());
        let fp = g.footprint();
        assert!(fp.total() > 0);
        // Paper Table 3 reports 2.9%–5.4% index overhead; ours is relative
        // to a smaller vertex-block share so allow a loose upper bound.
        assert!(g.index_overhead() < 0.30, "overhead {}", g.index_overhead());
    }

    #[test]
    #[should_panic(expected = "invalid LSGraph configuration")]
    fn invalid_config_rejected() {
        let _ = LsGraph::with_config(1, Config::default().with_alpha(0.9));
    }

    #[test]
    fn clear_vertex_directed() {
        let mut g = LsGraph::from_edges(
            4,
            &edges(&[(0, 1), (0, 2), (1, 0), (2, 3)]),
            Config::default(),
        );
        assert_eq!(g.clear_vertex(0), 2);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0), "in-edges untouched by directed clear");
        g.check_invariants();
        assert_eq!(g.clear_vertex(3), 0);
    }

    /// `changed_since` against a model: `base` is a clone of the graph taken
    /// with `model`, every vertex's neighbours then, and `touched` gathers
    /// each vertex an operation wrote since. After every operation, each
    /// vertex whose neighbours differ from the model's is listed, and only
    /// touched ones are. Readers' clones come and go, so that copies land
    /// in recycled pages too.
    #[test]
    fn changes_since_a_base_match_a_btreeset_oracle() {
        fn all(g: &LsGraph) -> Vec<Vec<u32>> {
            (0..g.num_vertices() as u32)
                .map(|v| g.neighbors(v))
                .collect()
        }
        fn check(g: &LsGraph, base: &GraphView, model: &[Vec<u32>], touched: &BTreeSet<u32>) {
            let listed = g.changed_since(base);
            assert!(listed.windows(2).all(|w| w[0] < w[1]), "ascending");
            for v in 0..g.num_vertices() as u32 {
                let old = model.get(v as usize).map_or(&[][..], Vec::as_slice);
                if g.neighbors(v) != old {
                    assert!(listed.binary_search(&v).is_ok(), "vertex {v} changed");
                }
            }
            assert!(listed.iter().all(|v| touched.contains(v)), "{listed:?}");
        }
        let mut rng = SmallRng::seed_from_u64(16);
        let mut g = LsGraph::from_edges(70, &edges(&[(3, 4), (69, 0)]), Config::default());
        let (mut base, mut model) = (g.view().clone(), all(&g));
        let mut touched = BTreeSet::new();
        let mut readers: Vec<GraphView> = Vec::new();
        for round in 0..90u32 {
            // The id range outgrows the table as the rounds go; half the
            // sources are four hubs, whose blocks spill.
            let ids = 70 + round * 37;
            let batch: Vec<Edge> = (0..rng.gen_range(1..200))
                .map(|_| {
                    let hub = rng.gen_bool(0.5);
                    let src = rng.gen_range(0..if hub { 4 } else { ids });
                    Edge::new(src, rng.gen_range(0..ids))
                })
                .collect();
            match round % 6 {
                0 | 1 => {
                    g.insert_batch(&batch);
                    touched.extend(batch.iter().map(|e| e.src));
                }
                2 => {
                    let n = g.num_vertices();
                    g.delete_batch(&batch);
                    touched.extend(batch.iter().map(|e| e.src).filter(|&s| (s as usize) < n));
                    assert_eq!(g.num_vertices(), n, "a delete never grows the table");
                }
                3 => {
                    let v = rng.gen_range(0..g.num_vertices() as u32);
                    g.clear_vertex(v);
                    touched.insert(v);
                }
                4 => {
                    // A spilled hub swaps its largest id for the next one up:
                    // the same degree and line, and another spill.
                    let hub = rng.gen_range(0..4);
                    if let Some(&last) = g.neighbors(hub).get(INLINE_CAP..).and_then(<[u32]>::last)
                    {
                        g.delete_batch(&[Edge::new(hub, last)]);
                        g.insert_batch(&[Edge::new(hub, last + 1)]);
                        touched.insert(hub);
                    }
                }
                _ if round % 4 == 1 => {
                    // A restore past the end of the table grows it first.
                    let v = g.num_vertices() as u32 + rng.gen_range(0..100);
                    g.restore_vertex_from_sorted(v, &[1, 5, 9]);
                    touched.insert(v);
                }
                _ => {
                    let v = rng.gen_range(0..g.num_vertices() as u32);
                    g.clear_vertex(v);
                    g.restore_quarantine_set(&[v]).unwrap();
                    g.repair_vertex(v, &[2, 7]).unwrap();
                    touched.insert(v);
                }
            }
            check(&g, &base, &model, &touched);
            if rng.gen_bool(0.5) {
                readers.push(g.view().clone());
            }
            if rng.gen_bool(0.5) && !readers.is_empty() {
                drop(readers.swap_remove(rng.gen_range(0..readers.len())));
            }
            // Re-based before each swap, so that nothing else moved its hub.
            if round % 6 == 3 {
                (base, model) = (g.view().clone(), all(&g));
                touched.clear();
                assert_eq!(g.changed_since(&base), [], "a new base lists nothing");
            }
        }
        assert!(g.view().stats().cow_pages_recycled.get() > 0);
        g.check_invariants();
    }

    /// A corrupt container whose ids still ascend: a RIA index word off its
    /// block's first id, then a LIA id one slot right of where the model
    /// predicts it. The live graph's `validate_structure` names the broken
    /// invariant, and so does a snapshot held over the corrupt state.
    #[test]
    fn validation_reaches_inside_the_containers() {
        let cases = [
            (200, Tier::Ria, "index mismatch"),
            (6_000, Tier::HiTree, "not at predicted position"),
        ];
        for (degree, tier, broken) in cases {
            let hub: Vec<Edge> = (0..degree).map(|u| Edge::new(1, 3 * u)).collect();
            let mut g = LsGraph::from_edges(3, &hub, Config::default());
            assert_eq!(g.tier(1), tier);
            assert_eq!(g.validate_structure(), Ok(()));
            let mut vb = g.view.table.set(1).clone();
            match vb.spill_mut() {
                Spill::Ria(r) => r.corrupt_index(),
                Spill::Lia(l) => l.misplace_edge(),
                _ => unreachable!(),
            }
            g.view.table.install(1, vb);
            let snap = g.snapshot();
            for err in [
                g.validate_structure(),
                lsgraph_api::catch_invariants(|| snap.check_invariants()),
            ] {
                let err = err.unwrap_err();
                assert!(
                    err.starts_with("vertex 1: ") && err.contains(broken),
                    "{err}"
                );
            }
        }
    }
}
