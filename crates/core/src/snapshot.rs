//! Epoch-based snapshots: wait-free immutable reads under a live writer.
//!
//! [`LsGraph::snapshot`](crate::LsGraph::snapshot) flips the live
//! [`GraphView`] into a [`GraphSnapshot`]: a `Clone + Send + Sync` handle over
//! a clone of the view. The flip copies only reference counts — no adjacency
//! payload moves — so taking a snapshot is O(n) pointer bumps and the writer
//! is never paused. Subsequent batches copy-on-write exactly the blocks they
//! touch (see `apply_runs`), so readers traversing the snapshot observe the
//! graph precisely as it was at the flip: snapshot isolation by construction.
//!
//! Reclamation is epoch-based. Every snapshot registers an epoch in the
//! writer's [`EpochRegistry`]; block versions displaced by copy-on-write
//! are *retired* into a pool tagged with the current epoch rather than
//! freed inline. [`EpochRegistry::reclaim`] — run at every batch boundary
//! and when a snapshot drops — frees every retired version older than the
//! oldest live epoch, batching deallocation off the apply hot path. The
//! pool size is exported as the `epoch_reclaim_backlog` gauge, which must
//! return to zero once the last snapshot drops.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lsgraph_api::fail_point;
use lsgraph_api::StructStats;

use crate::directory::{forward_to_view, GraphView, Slot};

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
    retired: Mutex<Vec<(u64, Slot)>>,
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
    pub(crate) fn retire(&self, block: Slot) {
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

/// The frozen state one snapshot shares among its clones: the view as it
/// stood at the flip, and the epoch registration that keeps the block
/// versions it displaced in the reclamation pool.
struct SnapInner {
    view: GraphView,
    epoch: u64,
    registry: Arc<EpochRegistry>,
}

impl Drop for SnapInner {
    fn drop(&mut self) {
        self.registry.deregister(self.epoch);
        self.view.stats.record_snapshot_retired();
        // Dropping the last snapshot unblocks its epoch's retired versions;
        // reclaim eagerly so quiescence drives the backlog gauge to zero.
        // Shielded from the `epoch_reclaim` failpoint (and any other panic):
        // unwinding out of `drop` would abort the process.
        let _ = catch_unwind(AssertUnwindSafe(|| self.registry.reclaim(&self.view.stats)));
    }
}

/// An immutable point-in-time view of an [`LsGraph`](crate::LsGraph).
///
/// Obtained from [`LsGraph::snapshot`](crate::LsGraph::snapshot); implements
/// [`Graph`](lsgraph_api::Graph)/[`IterableGraph`](lsgraph_api::IterableGraph),
/// so every analytics kernel runs against it unchanged while the writer keeps
/// applying batches. Cloning the handle is O(1) (one reference bump on the
/// shared state), so a single snapshot fans out to any number of reader
/// threads.
///
/// Dropping the last clone deregisters the snapshot's epoch and reclaims
/// whatever retired block versions it was the final holder of.
#[derive(Clone)]
pub struct GraphSnapshot {
    inner: Arc<SnapInner>,
}

impl GraphSnapshot {
    /// Wraps a view cloned at the flip together with the epoch registered
    /// for it.
    pub(crate) fn new(view: GraphView, epoch: u64, registry: Arc<EpochRegistry>) -> Self {
        GraphSnapshot {
            inner: Arc::new(SnapInner {
                view,
                epoch,
                registry,
            }),
        }
    }

    /// The frozen graph: everything this snapshot answers, it answers from
    /// here.
    #[inline]
    pub fn view(&self) -> &GraphView {
        &self.inner.view
    }

    /// The epoch this snapshot registered at its flip (1-based, monotone
    /// across a graph's lifetime).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Records one reader-operation latency sample into the originating
    /// graph's `reader` histogram (the `repro mixed` experiment's per-op
    /// probe).
    pub fn record_reader_duration(&self, d: Duration) {
        self.inner.view.latency.reader.record_duration(d);
    }
}

forward_to_view!(GraphSnapshot);
