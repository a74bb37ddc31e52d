//! Standing-query subscription layer: registered incremental queries with
//! per-batch result deltas.
//!
//! Streaming-graph consumers rarely want to re-run a kernel after every
//! batch; they want to *subscribe* to a query and be told what changed. The
//! paper's incremental-computation motivation (§3.1) is exactly this access
//! pattern: after a batch commits, an incremental maintainer re-touches only
//! the affected region of the graph and emits the difference.
//!
//! This crate provides that layer on top of the LSGraph engine:
//!
//! * [`StandingQuery`] — the query algebra: k-hop neighborhoods from a
//!   source, windowed edge/triangle counts over the last *W* batches, and
//!   reachability/component membership.
//! * [`SubscriptionRegistry`] — owns one incremental maintainer per
//!   subscription ([`IncrementalBfs`](lsgraph_analytics::IncrementalBfs)
//!   for k-hop and membership, a sliding [`BatchWindow`] with per-batch
//!   expiry for the windowed counts). Delivery is delta-native: the
//!   maintainer absorbs a committed batch and returns the [`ResultDelta`],
//!   which the registry applies to the kept result in place — O(|batch| +
//!   affected) adjacency reads for an insert or delete batch (a delete
//!   re-checks only the heads of the tree edges it cut), one traversal per
//!   traversal subscription for a lossy batch, never a rebuild of the
//!   result.
//! * [`SubscriptionHub`] — the engine binding: a
//!   [`PostBatchHook`](lsgraph_core::PostBatchHook) that snapshots the
//!   freshly published graph (one count per directory page) and enqueues
//!   the batch for a dedicated delivery thread, so the writer's batch path
//!   **never blocks on delivery**; [`SubscriptionHandle`]s poll deltas and
//!   materialized results.
//!
//! Two contracts bound what a subscription sees. The graph must be
//! **symmetric** (every edge with its mirror), as for every kernel in
//! `lsgraph-analytics`: membership is maintained as reachability from the
//! anchor, which is the connected component only then. And maintainers
//! learn of change from committed batches alone: `clear_vertex` and
//! `restore_vertex_from_sorted` bypass the batch pipeline and stay
//! invisible to every maintainer, the windowed counts included, until
//! [`restart`](SubscriptionHandle::restart); a `repair_vertex` is picked up
//! with the next batch, which the hub then treats as lossy.
//!
//! Delivery is panic-isolated: a subscription whose maintainer panics
//! (including via the `subscription_deliver` failpoint) is quarantined —
//! its torn maintainer is dropped, other subscriptions keep receiving
//! deltas — and can be [restarted](SubscriptionHandle::restart) from a
//! fresh snapshot, which re-materializes the result and emits one catch-up
//! delta.
//!
//! ```
//! use lsgraph_api::{DynamicGraph, Edge};
//! use lsgraph_core::{Config, LsGraph};
//! use lsgraph_queries::{StandingQuery, SubscriptionHub};
//!
//! let mut g = LsGraph::with_config(5, Config::default());
//! let hub = SubscriptionHub::attach(&mut g);
//! let sub = hub.subscribe(&g, StandingQuery::KHop { src: 0, k: 2 });
//! g.insert_batch_undirected(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
//! hub.quiesce();
//! // 0, 1, 2 are within two hops of 0; 3 is three hops away.
//! assert_eq!(sub.result().into_keys().collect::<Vec<_>>(), vec![0, 1, 2]);
//! let deltas = sub.poll();
//! assert_eq!(deltas.len(), 2); // registration bootstrap + one per batch

//! hub.shutdown();
//! ```

mod delta;
mod hub;
mod maintain;
mod query;
mod registry;
mod window;

pub use delta::{diff, ResultDelta, SubscriptionId};
pub use hub::{SubscriptionHandle, SubscriptionHub};
pub use maintain::Maintainer;
pub use query::StandingQuery;
pub use registry::{SubscriptionRegistry, SubscriptionState};
pub use window::BatchWindow;
