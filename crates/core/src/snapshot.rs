//! Epoch-based snapshots: wait-free immutable reads under a live writer.
//!
//! [`LsGraph::snapshot`](crate::LsGraph::snapshot) flips the vertex-block
//! directory into a [`GraphSnapshot`]: a `Clone + Send + Sync` handle over a
//! clone of the `Vec<Arc<VertexBlock>>` directory. The flip copies only
//! reference counts — no adjacency payload moves — so taking a snapshot is
//! O(n) pointer bumps and the writer is never paused. Subsequent batches
//! copy-on-write exactly the blocks they touch (see `apply_runs`), so
//! readers traversing the snapshot observe the graph precisely as it was at
//! the flip: snapshot isolation by construction.
//!
//! Reclamation is epoch-based. Every snapshot registers an epoch in the
//! writer's [`EpochRegistry`]; block versions displaced by copy-on-write
//! are *retired* into a pool tagged with the current epoch rather than
//! freed inline. [`EpochRegistry::reclaim`] — run at every batch boundary
//! and when a snapshot drops — frees every retired version older than the
//! oldest live epoch, batching deallocation off the apply hot path. The
//! pool size is exported as the `epoch_reclaim_backlog` gauge, which must
//! return to zero once the last snapshot drops.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lsgraph_api::fail_point;
use lsgraph_api::{Graph, IterableGraph, LatencyStats, StructStats, VertexId};

use crate::config::Config;
use crate::error::InvariantError;
use crate::stats::Tier;
use crate::vertex::{NeighborIter, VertexBlock};

/// Tracks live snapshot epochs and the retired block versions awaiting
/// reclamation.
///
/// Memory safety never depends on this registry — every block version is
/// reference-counted — but routing displaced versions through an epoch pool
/// moves deallocation off the apply hot path and gives the engine (and
/// `repro check`) an observable reclamation backlog.
pub(crate) struct EpochRegistry {
    /// Latest issued epoch (0 = no snapshot ever taken).
    current: AtomicU64,
    /// Live snapshot count per epoch; empty means no outstanding snapshots.
    live: Mutex<BTreeMap<u64, usize>>,
    /// Retired block versions, each tagged with the epoch current at
    /// retirement time.
    retired: Mutex<Vec<(u64, Arc<VertexBlock>)>>,
}

impl EpochRegistry {
    pub(crate) fn new() -> Self {
        EpochRegistry {
            current: AtomicU64::new(0),
            live: Mutex::new(BTreeMap::new()),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Issues a fresh epoch and marks it live. Called once per snapshot.
    pub(crate) fn register(&self) -> u64 {
        let e = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        let mut live = self.live.lock().unwrap_or_else(|p| p.into_inner());
        *live.entry(e).or_insert(0) += 1;
        e
    }

    /// Drops one live reference to `epoch`. Called once per snapshot drop.
    pub(crate) fn deregister(&self, epoch: u64) {
        let mut live = self.live.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(n) = live.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                live.remove(&epoch);
            }
        }
    }

    /// Parks a displaced block version in the reclamation pool, tagged with
    /// the current epoch.
    pub(crate) fn retire(&self, block: Arc<VertexBlock>) {
        let tag = self.current.load(Ordering::SeqCst);
        self.retired
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((tag, block));
    }

    /// Frees every retired version no live snapshot can still reference
    /// (retired before the oldest live epoch was registered — a snapshot's
    /// directory clone only ever holds versions current at its flip), then
    /// publishes the remaining pool size as the backlog gauge.
    pub(crate) fn reclaim(&self, stats: &StructStats) {
        fail_point!("epoch_reclaim");
        let min_live = {
            let live = self.live.lock().unwrap_or_else(|p| p.into_inner());
            live.keys().next().copied()
        };
        let mut pool = self.retired.lock().unwrap_or_else(|p| p.into_inner());
        match min_live {
            Some(min) => pool.retain(|&(tag, _)| tag >= min),
            None => pool.clear(),
        }
        stats.record_epoch_backlog(pool.len() as u64);
    }

    /// Retired versions currently awaiting reclamation.
    pub(crate) fn backlog(&self) -> usize {
        self.retired.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

/// The frozen state one snapshot shares among its clones.
pub(crate) struct SnapInner {
    pub(crate) blocks: Vec<Arc<VertexBlock>>,
    pub(crate) num_edges: usize,
    pub(crate) cfg: Config,
    pub(crate) quarantined: BTreeSet<VertexId>,
    pub(crate) epoch: u64,
    pub(crate) registry: Arc<EpochRegistry>,
    pub(crate) stats: Arc<StructStats>,
    pub(crate) latency: Arc<LatencyStats>,
}

impl Drop for SnapInner {
    fn drop(&mut self) {
        self.registry.deregister(self.epoch);
        self.stats.record_snapshot_retired();
        // Dropping the last snapshot unblocks its epoch's retired versions;
        // reclaim eagerly so quiescence drives the backlog gauge to zero.
        // Shielded from the `epoch_reclaim` failpoint (and any other panic):
        // unwinding out of `drop` would abort the process.
        let registry = Arc::clone(&self.registry);
        let stats = Arc::clone(&self.stats);
        let _ = catch_unwind(AssertUnwindSafe(move || registry.reclaim(&stats)));
    }
}

/// An immutable point-in-time view of an [`LsGraph`](crate::LsGraph).
///
/// Obtained from [`LsGraph::snapshot`](crate::LsGraph::snapshot); implements
/// [`Graph`]/[`IterableGraph`], so every analytics kernel runs against it
/// unchanged while the writer keeps applying batches. Cloning the handle is
/// O(1) (one reference bump on the shared state), so a single snapshot fans
/// out to any number of reader threads.
///
/// Dropping the last clone deregisters the snapshot's epoch and reclaims
/// whatever retired block versions it was the final holder of.
#[derive(Clone)]
pub struct GraphSnapshot {
    inner: Arc<SnapInner>,
}

impl GraphSnapshot {
    pub(crate) fn new(inner: SnapInner) -> Self {
        GraphSnapshot {
            inner: Arc::new(inner),
        }
    }

    /// The epoch this snapshot registered at its flip (1-based, monotone
    /// across a graph's lifetime).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The configuration of the graph this snapshot was taken from.
    pub fn config(&self) -> &Config {
        &self.inner.cfg
    }

    /// Whether `v` was quarantined at snapshot time.
    pub fn is_quarantined(&self, v: VertexId) -> bool {
        self.inner.quarantined.contains(&v)
    }

    /// The vertices quarantined at snapshot time, ascending.
    pub fn quarantined_vertices(&self) -> Vec<VertexId> {
        self.inner.quarantined.iter().copied().collect()
    }

    /// The structural-counter sink of the originating graph (live handle —
    /// counters keep moving with the writer; the snapshot freezes the graph,
    /// not its instrumentation).
    pub fn stats(&self) -> &StructStats {
        &self.inner.stats
    }

    /// The tier of vertex `v` at snapshot time.
    pub fn tier(&self, v: VertexId) -> Tier {
        use crate::adjacency::Spill;
        match self.inner.blocks[v as usize].spill() {
            None => Tier::Inline,
            Some(Spill::Array(_)) => Tier::Array,
            Some(Spill::Ria(_)) => Tier::Ria,
            Some(Spill::Pma(_)) => Tier::Pma,
            Some(Spill::Tree(_)) => Tier::HiTree,
            Some(Spill::Compressed(_)) => Tier::Compressed,
        }
    }

    /// Tier tag of `v` plus its adjacency appended to `out` in ascending
    /// order — the checkpoint serialization visitor, letting a checkpoint be
    /// written from a frozen view while the writer keeps going.
    pub fn checkpoint_vertex(&self, v: VertexId, out: &mut Vec<u32>) -> Tier {
        let tier = self.tier(v);
        self.inner.blocks[v as usize].checkpoint_neighbors(out);
        tier
    }

    /// Records one reader-operation latency sample into the originating
    /// graph's `reader` histogram (the `repro mixed` experiment's per-op
    /// probe).
    pub fn record_reader_duration(&self, d: Duration) {
        self.inner.latency.reader.record_duration(d);
    }

    /// Non-panicking structural validation of the frozen view, mirroring
    /// `LsGraph::validate_invariants`: per-block consistency, quarantine
    /// degree-0, and exact edge accounting against the frozen `num_edges`.
    pub fn validate_invariants(&self) -> Result<(), InvariantError> {
        let mut total = 0;
        for (v, vb) in self.inner.blocks.iter().enumerate() {
            vb.validate(&self.inner.cfg)
                .map_err(|detail| InvariantError {
                    vertex: Some(v as VertexId),
                    detail,
                })?;
            total += vb.degree();
        }
        for &q in &self.inner.quarantined {
            if q as usize >= self.inner.blocks.len() {
                return Err(InvariantError {
                    vertex: Some(q),
                    detail: format!(
                        "quarantined vertex out of range (table has {})",
                        self.inner.blocks.len()
                    ),
                });
            }
            let d = self.inner.blocks[q as usize].degree();
            if d != 0 {
                return Err(InvariantError {
                    vertex: Some(q),
                    detail: format!("quarantined vertex has degree {d}, expected 0"),
                });
            }
        }
        if total != self.inner.num_edges {
            return Err(InvariantError {
                vertex: None,
                detail: format!(
                    "edge accounting: degrees sum to {total} but num_edges is {}",
                    self.inner.num_edges
                ),
            });
        }
        Ok(())
    }
}

impl Graph for GraphSnapshot {
    fn num_vertices(&self) -> usize {
        self.inner.blocks.len()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges
    }

    fn degree(&self, v: VertexId) -> usize {
        self.inner.blocks[v as usize].degree()
    }

    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.inner.blocks[v as usize].for_each(f);
    }

    fn for_each_neighbor_while(&self, v: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        self.inner.blocks[v as usize].for_each_while(f)
    }

    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        let inner = &*self.inner;
        inner.blocks[v as usize].contains(u, &inner.cfg, &inner.stats)
    }
}

impl IterableGraph for GraphSnapshot {
    type NeighborIter<'a> = NeighborIter<'a>;

    fn neighbor_iter(&self, v: VertexId) -> Self::NeighborIter<'_> {
        self.inner.blocks[v as usize].iter()
    }
}
