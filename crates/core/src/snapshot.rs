//! Snapshots: wait-free immutable reads under a live writer.
//!
//! [`LsGraph::snapshot`](crate::LsGraph::snapshot) flips the live
//! [`GraphView`] into a [`GraphSnapshot`]: a `Clone + Send + Sync` handle over
//! a clone of the view. The flip copies only reference counts — one per
//! directory page, no adjacency payload — so taking a snapshot is O(V / page)
//! and the writer is never paused. Subsequent batches copy-on-write the pages
//! they touch (`GraphView::par_apply_disjoint`), so readers traversing the
//! snapshot observe the graph as it was at the flip: snapshot isolation.
//!
//! Reclamation is the reference counts and nothing else: a page version
//! displaced by copy-on-write is freed when the last snapshot that can read
//! it drops, by whichever thread drops it.

use std::sync::Arc;
use std::time::Duration;

use crate::directory::{forward_to_view, GraphView};

/// The frozen state one snapshot shares among its clones: the view as it
/// stood at the flip.
struct SnapInner {
    view: GraphView,
}

impl Drop for SnapInner {
    fn drop(&mut self) {
        self.view.stats.snapshots_retired.record(1);
    }
}

/// An immutable point-in-time view of an [`LsGraph`](crate::LsGraph).
///
/// Obtained from [`LsGraph::snapshot`](crate::LsGraph::snapshot); implements
/// [`Graph`](lsgraph_api::Graph), so every analytics kernel runs against it unchanged while the writer keeps
/// applying batches. Cloning the handle is O(1) (one reference bump on the
/// shared state), so a single snapshot fans out to any number of reader
/// threads.
///
/// Dropping the last clone frees every block version the snapshot was the
/// final holder of.
#[derive(Clone)]
pub struct GraphSnapshot {
    inner: Arc<SnapInner>,
}

impl GraphSnapshot {
    /// Wraps a view cloned at the flip.
    pub(crate) fn new(view: GraphView) -> Self {
        GraphSnapshot {
            inner: Arc::new(SnapInner { view }),
        }
    }

    /// The frozen graph: everything this snapshot answers, it answers from
    /// here.
    #[inline]
    pub fn view(&self) -> &GraphView {
        &self.inner.view
    }

    /// Records one reader-operation latency sample into the originating
    /// graph's `reader` histogram (the `repro mixed` experiment's per-op
    /// probe).
    pub fn record_reader_duration(&self, d: Duration) {
        self.inner.view.latency.reader.record_duration(d);
    }
}

forward_to_view!(GraphSnapshot);
