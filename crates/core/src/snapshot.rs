//! Snapshots: wait-free immutable reads under a live writer.
//!
//! [`LsGraph::snapshot`](crate::LsGraph::snapshot) flips the live
//! [`GraphView`] into a [`GraphSnapshot`]: a `Clone + Send + Sync` handle over
//! a clone of the view. The flip copies only reference counts — one per
//! directory page, no adjacency payload — so taking a snapshot is O(V / page)
//! and the writer is never paused. Subsequent batches copy-on-write the pages
//! they touch (`SetTable::par_apply`), so readers traversing the
//! snapshot observe the graph as it was at the flip: snapshot isolation.
//!
//! Ownership is the reference counts and nothing else: a page version
//! displaced by copy-on-write lives as long as the snapshots that can read
//! it. When the last of them drops, on whichever thread, each page it held
//! alone goes back to the writer as a spare (`SetTable`'s spares), after
//! its blocks have let go of the spills the live graph still shares; the
//! writer's next copy of that page goes into the spare, and a block it
//! writes into its old spill's buffer when the shapes match. So a writer
//! that copies under a snapshot every batch frees and allocates nothing
//! again per batch. The writer keeps at most one spare per page, frees a
//! page's spare when it writes that page with no snapshot sharing it, and
//! frees them all when a batch starts with no snapshot left. Once the live
//! graph is gone, a dropped snapshot frees its pages.

use std::sync::Arc;
use std::time::Duration;

use crate::view::{forward_to_view, GraphView};

/// The frozen state one snapshot shares among its clones: the view as it
/// stood at the flip.
struct SnapInner {
    view: GraphView,
}

impl Drop for SnapInner {
    fn drop(&mut self) {
        self.view.stats().snapshots_retired.record(1);
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
/// Dropping the last clone hands every page version the snapshot was the
/// final holder of back to the live graph, to be written into by its next
/// copy of that page (freed instead if the live graph is gone).
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
