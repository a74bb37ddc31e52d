//! The engine binding: a post-batch hook plus a delivery worker thread.
//!
//! [`SubscriptionHub::attach`] installs a [`PostBatchHook`] on an
//! [`LsGraph`]. After each committed batch the hook, on the writer thread,
//! takes a [`GraphSnapshot`] of the freshly published state, copies the
//! batch once, and enqueues both; a dedicated worker thread evaluates every
//! subscription against that snapshot in batch-sequence order. The writer's
//! batch path therefore **never blocks on delivery**, no matter how slow a
//! standing query is; backpressure shows up as queued snapshots (visible as
//! [`pending()`](SubscriptionHub::pending)) rather than writer stalls.
//!
//! The hook is not O(1): the batch copy is O(|batch|) and `snapshot()` is
//! one reference-count increment per directory page (tens of microseconds
//! at 2^17 vertices). While a queued snapshot lives, each page a later batch
//! writes is copied first, so a lagging worker costs the writer page copies
//! and memory, not stalls. When no subscriptions are registered the hook is
//! a single atomic load.
//!
//! The hook sees batches only; the crate documentation says what that
//! hides from every maintainer and how a `repair_vertex` is still noticed.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use lsgraph_api::{Edge, StructStats};
use lsgraph_core::{BatchEvent, BatchKind, GraphSnapshot, LsGraph, PostBatchHook};

use crate::delta::{ResultDelta, SubscriptionId};
use crate::query::StandingQuery;
use crate::registry::{SubscriptionRegistry, SubscriptionState};

struct Task {
    snapshot: GraphSnapshot,
    seq: u64,
    kind: BatchKind,
    batch: Vec<Edge>,
    lossy: bool,
}

struct QueueState {
    queue: VecDeque<Task>,
    /// The worker popped a task and is delivering it.
    busy: bool,
    /// Delivery suspended (tasks keep queueing).
    paused: bool,
    shutdown: bool,
}

struct HubInner {
    registry: Mutex<SubscriptionRegistry>,
    state: Mutex<QueueState>,
    /// Signals the worker: new task, unpause, or shutdown.
    work: Condvar,
    /// Signals quiescers: queue drained and worker idle.
    idle: Condvar,
    /// Registered-subscription count, read by the hook's fast path.
    active: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Registry panics are contained by catch_unwind inside deliver; a
    // poisoned mutex here can only mean a panic in bookkeeping code, whose
    // state is still coherent (Vec ops don't tear).
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl HubInner {
    fn worker_loop(self: Arc<Self>) {
        loop {
            let task = {
                let mut st = lock(&self.state);
                loop {
                    if st.shutdown {
                        return;
                    }
                    if !st.paused {
                        if let Some(t) = st.queue.pop_front() {
                            st.busy = true;
                            break t;
                        }
                    }
                    st = self.work.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            lock(&self.registry).deliver(
                &task.snapshot,
                task.seq,
                task.kind,
                &task.batch,
                task.lossy,
            );
            // Drop the snapshot before reporting idle: once `pending()` is
            // zero the hub shares no block with the writer.
            drop(task);
            let mut st = lock(&self.state);
            st.busy = false;
            if st.queue.is_empty() {
                self.idle.notify_all();
            }
        }
    }
}

/// The post-batch hook installed on the engine by
/// [`SubscriptionHub::attach`].
struct HubHook {
    inner: Arc<HubInner>,
    stats: Arc<StructStats>,
    /// `stats.vertices_repaired` as the last enqueued batch saw it.
    repairs: u64,
}

impl PostBatchHook for HubHook {
    fn on_batch(&mut self, g: &LsGraph, event: &BatchEvent<'_>) {
        // Nobody to deliver to: skip the snapshot and the batch copy.
        if self.inner.active.load(Ordering::Acquire) == 0 || lock(&self.inner.state).shutdown {
            return;
        }
        // A `repair_vertex` rewrote an adjacency behind the batches' back (a
        // count gone stale while nobody subscribed costs one lossy batch).
        let repairs = self.stats.vertices_repaired.get();
        let repaired = std::mem::replace(&mut self.repairs, repairs) != repairs;
        let task = Task {
            snapshot: g.snapshot(),
            seq: event.seq,
            kind: event.kind,
            batch: event.batch.to_vec(),
            lossy: !event.outcome.is_clean() || repaired,
        };
        let mut st = lock(&self.inner.state);
        // Again under the push's lock: a `shutdown()` from another thread
        // since the test above must not leave a task nobody will pop.
        if st.shutdown {
            return;
        }
        st.queue.push_back(task);
        self.inner.work.notify_one();
    }
}

/// Standing-query delivery attached to one [`LsGraph`].
///
/// Dropping the hub shuts the worker down (after draining the queue);
/// already-issued [`SubscriptionHandle`]s can still poll their final
/// deltas and results afterwards.
pub struct SubscriptionHub {
    inner: Arc<HubInner>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl SubscriptionHub {
    /// Spawns the delivery worker and installs the post-batch hook on `g`.
    ///
    /// Subscription counters (`subscriptions_active`, `deltas_delivered`,
    /// `delta_entries_emitted`, `subscription_panics`) are recorded into
    /// the graph's own [`StructStats`](lsgraph_api::StructStats), so they
    /// surface through `struct_stats()` and the metrics registry like any
    /// engine counter.
    pub fn attach(g: &mut LsGraph) -> SubscriptionHub {
        let inner = Arc::new(HubInner {
            registry: Mutex::new(SubscriptionRegistry::new(Some(g.stats_handle()))),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                busy: false,
                paused: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            active: AtomicUsize::new(0),
        });
        let worker_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("lsgraph-subscriptions".into())
            .spawn(move || worker_inner.worker_loop())
            .expect("spawn subscription delivery worker");
        let stats = g.stats_handle();
        g.add_post_batch_hook(Box::new(HubHook {
            inner: Arc::clone(&inner),
            repairs: stats.vertices_repaired.get(),
            stats,
        }));
        SubscriptionHub {
            inner,
            worker: Mutex::new(Some(handle)),
        }
    }

    /// Registers a standing query against the graph's current state and
    /// returns its handle.
    ///
    /// Call from the writer thread (between batches): the registration
    /// snapshot and the engine's [`batch_seq`](LsGraph::batch_seq) are read
    /// together, so queued-but-undelivered batches already reflected in the
    /// registration state are skipped rather than double-applied.
    pub fn subscribe(&self, g: &LsGraph, query: StandingQuery) -> SubscriptionHandle {
        let mut reg = lock(&self.inner.registry);
        let id = reg.register(g, query, g.batch_seq());
        self.inner.active.store(reg.len(), Ordering::Release);
        SubscriptionHandle {
            inner: Arc::clone(&self.inner),
            id,
            cancel_on_drop: true,
        }
    }

    /// Registered subscriptions (live + quarantined).
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::Acquire)
    }

    /// Tasks not yet fully delivered (queued + in flight).
    pub fn pending(&self) -> usize {
        let st = lock(&self.inner.state);
        st.queue.len() + usize::from(st.busy)
    }

    /// Suspends delivery; batches keep queueing. Used by tests to observe
    /// that the writer path never blocks, and as an operational valve.
    pub fn pause(&self) {
        lock(&self.inner.state).paused = true;
    }

    /// Resumes delivery after [`pause`](Self::pause).
    pub fn resume(&self) {
        lock(&self.inner.state).paused = false;
        self.inner.work.notify_all();
    }

    /// Blocks until every queued batch has been delivered (resuming a
    /// paused worker first). Afterwards counters and results are stable
    /// and the worker holds no snapshot.
    pub fn quiesce(&self) {
        let mut st = lock(&self.inner.state);
        if st.paused {
            st.paused = false;
            self.inner.work.notify_all();
        }
        while st.busy || (!st.queue.is_empty() && !st.shutdown) {
            st = self.inner.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Drains the queue, then stops and joins the worker. Idempotent;
    /// called automatically on drop.
    pub fn shutdown(&self) {
        self.quiesce();
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            self.inner.work.notify_all();
        }
        if let Some(h) = lock(&self.worker).take() {
            let _ = h.join();
        }
        self.inner.idle.notify_all();
    }
}

impl Drop for SubscriptionHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Client handle to one registered standing query.
///
/// Dropping the handle cancels the subscription; call
/// [`detach`](Self::detach) to keep it running unobserved.
#[must_use = "dropping the handle cancels the subscription; call detach() to keep it registered"]
pub struct SubscriptionHandle {
    inner: Arc<HubInner>,
    id: SubscriptionId,
    cancel_on_drop: bool,
}

impl SubscriptionHandle {
    /// The subscription's id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Drains the deltas delivered since the last poll, oldest first.
    /// The first delta ever polled is the registration bootstrap (the
    /// initial result diffed against empty).
    pub fn poll(&self) -> Vec<ResultDelta> {
        lock(&self.inner.registry).poll(self.id)
    }

    /// The current materialized result.
    pub fn result(&self) -> BTreeMap<u32, u64> {
        lock(&self.inner.registry)
            .result(self.id)
            .unwrap_or_default()
    }

    /// True if delivery panicked and the subscription is quarantined.
    pub fn is_quarantined(&self) -> bool {
        matches!(
            lock(&self.inner.registry).state(self.id),
            Some(SubscriptionState::Quarantined { .. })
        )
    }

    /// Restarts a quarantined subscription from the graph's current state
    /// (call from the writer thread, ideally after
    /// [`quiesce`](SubscriptionHub::quiesce)). Queues one catch-up delta.
    /// Windowed queries restart with an empty window.
    pub fn restart(&self, g: &LsGraph) -> bool {
        lock(&self.inner.registry).restart(g, self.id, g.batch_seq())
    }

    /// Cancels the subscription, dropping undelivered deltas.
    pub fn cancel(self) {
        drop(self);
    }

    /// Keeps the subscription registered (still delivering, still counted
    /// in `subscriptions_active`) after the handle is gone.
    pub fn detach(mut self) -> SubscriptionId {
        self.cancel_on_drop = false;
        self.id
    }
}

impl Drop for SubscriptionHandle {
    fn drop(&mut self) {
        if self.cancel_on_drop {
            let mut reg = lock(&self.inner.registry);
            reg.cancel(self.id);
            self.inner.active.store(reg.len(), Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::DynamicGraph;
    use lsgraph_core::{Config, LsGraph};

    fn sym(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect()
    }

    #[test]
    fn writer_never_blocks_while_delivery_is_paused() {
        let mut g = LsGraph::with_config(8, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        let sub = hub.subscribe(&g, StandingQuery::KHop { src: 0, k: 3 });
        hub.pause();
        // With the worker suspended, the writer applies batches freely:
        // the hook only snapshots and enqueues.
        g.insert_batch_undirected(&sym(&[(0, 1)]));
        g.insert_batch_undirected(&sym(&[(1, 2)]));
        g.insert_batch_undirected(&sym(&[(2, 3)]));
        assert_eq!(hub.pending(), 3, "all three batches queued, none delivered");
        hub.resume();
        hub.quiesce();
        assert_eq!(hub.pending(), 0);
        let deltas = sub.poll();
        // Bootstrap + one delta per batch, in batch-sequence order.
        assert_eq!(deltas.len(), 4);
        let seqs: Vec<u64> = deltas.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(
            sub.result(),
            [(0, 0), (1, 1), (2, 2), (3, 3)].into_iter().collect()
        );
        hub.shutdown();
    }

    #[test]
    fn idle_hub_pins_nothing() {
        let mut g = LsGraph::with_config(8, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        let _sub = hub.subscribe(&g, StandingQuery::KHop { src: 0, k: 3 });
        for pair in [(0, 1), (1, 2), (2, 3)] {
            // Delivered, not quiesced: the worker already let its snapshot
            // go, so this batch writes every block in place.
            while hub.pending() != 0 {
                std::thread::yield_now();
            }
            let before = g.struct_stats().unwrap();
            g.insert_batch_undirected(&sym(&[pair]));
            let s = g.struct_stats().unwrap().since(before);
            assert_eq!(s.cow_block_copies, 0, "batch {pair:?}");
            assert_eq!(s.snapshots_taken, 1, "batch {pair:?}");
        }
        hub.shutdown();
    }

    #[test]
    fn hook_is_inert_after_shutdown_with_handles_alive() {
        let mut g = LsGraph::with_config(8, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        let sub = hub.subscribe(&g, StandingQuery::KHop { src: 0, k: 3 });
        g.insert_batch_undirected(&sym(&[(0, 1)]));
        hub.shutdown();
        let before = g.struct_stats().unwrap();
        g.insert_batch_undirected(&sym(&[(1, 2)]));
        g.delete_batch_undirected(&sym(&[(0, 1)]));
        let s = g.struct_stats().unwrap().since(before);
        assert_eq!(s.snapshots_taken, 0, "no snapshot for a stopped worker");
        assert_eq!(hub.pending(), 0);
        // The handle still serves what was delivered before the shutdown.
        assert_eq!(sub.result(), [(0, 0), (1, 1)].into_iter().collect());
    }

    #[test]
    fn counters_flow_into_engine_struct_stats() {
        let mut g = LsGraph::with_config(6, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        let a = hub.subscribe(&g, StandingQuery::KHop { src: 0, k: 2 });
        let b = hub.subscribe(&g, StandingQuery::WindowedEdgeCount { window: 2 });
        assert_eq!(hub.active(), 2);
        g.insert_batch_undirected(&sym(&[(0, 1), (1, 2)]));
        g.insert_batch_undirected(&sym(&[(2, 3)]));
        hub.quiesce();
        let ss = g.struct_stats().expect("lsgraph is instrumented");
        assert_eq!(ss.subscriptions_active, 2);
        assert_eq!(ss.deltas_delivered, 4, "2 subscriptions x 2 batches");
        assert!(ss.delta_entries_emitted > 0);
        assert_eq!(ss.subscription_panics, 0);
        drop(a);
        drop(b);
        assert_eq!(hub.active(), 0);
        assert_eq!(g.struct_stats().unwrap().subscriptions_active, 0);
        hub.shutdown();
    }

    #[test]
    fn hook_is_inert_with_no_subscriptions() {
        let mut g = LsGraph::with_config(4, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        g.insert_batch_undirected(&sym(&[(0, 1)]));
        assert_eq!(hub.pending(), 0, "nothing queued without subscribers");
        assert_eq!(g.struct_stats().unwrap().deltas_delivered, 0);
        hub.shutdown();
    }

    #[test]
    fn delete_batches_deliver_deltas_too() {
        let mut g = LsGraph::with_config(5, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        g.insert_batch_undirected(&sym(&[(0, 1), (1, 2)]));
        let sub = hub.subscribe(&g, StandingQuery::ComponentMembership { src: 0 });
        assert_eq!(sub.result(), [(0, 1), (1, 1), (2, 1)].into_iter().collect());
        g.delete_batch_undirected(&sym(&[(1, 2)]));
        hub.quiesce();
        assert_eq!(sub.result(), [(0, 1), (1, 1)].into_iter().collect());
        let last = sub.poll().pop().unwrap();
        assert_eq!(last.removed, vec![(2, 1)]);
        hub.shutdown();
    }

    #[test]
    fn detach_keeps_delivering_without_a_handle() {
        let mut g = LsGraph::with_config(4, Config::default());
        let hub = SubscriptionHub::attach(&mut g);
        let id = hub
            .subscribe(&g, StandingQuery::WindowedEdgeCount { window: 4 })
            .detach();
        let _ = id;
        g.insert_batch_undirected(&sym(&[(0, 1)]));
        hub.quiesce();
        assert_eq!(hub.active(), 1);
        assert_eq!(g.struct_stats().unwrap().deltas_delivered, 1);
        hub.shutdown();
    }
}
