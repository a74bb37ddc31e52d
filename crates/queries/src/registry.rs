//! The subscription registry: maintainers, materialized results, pending
//! deltas, and panic quarantine.
//!
//! The registry is engine-agnostic — it evaluates against anything
//! implementing [`Graph`], so the differential oracle tests can drive it
//! with a plain CSR as easily as the hub drives it with
//! [`GraphSnapshot`](lsgraph_core::GraphSnapshot)s.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lsgraph_api::{fail_point, Edge, Graph, StructStats};
use lsgraph_core::BatchKind;

use crate::delta::{diff, ResultDelta, SubscriptionId};
use crate::maintain::Maintainer;
use crate::query::StandingQuery;

/// Lifecycle state of a subscription, as observed by clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubscriptionState {
    /// Receiving per-batch deltas.
    Live,
    /// The maintainer panicked while absorbing the batch with this sequence
    /// number; the subscription receives no further deltas until
    /// [restarted](SubscriptionRegistry::restart).
    Quarantined {
        /// Sequence number of the batch whose delivery panicked.
        at_seq: u64,
    },
}

enum SubState {
    Live(Maintainer),
    Quarantined { at_seq: u64 },
}

struct SubEntry {
    id: SubscriptionId,
    query: StandingQuery,
    /// Batches with `seq <= since_seq` were already reflected in the
    /// snapshot this subscription (re)materialized from; delivery skips
    /// them to avoid double-applying.
    since_seq: u64,
    state: SubState,
    result: BTreeMap<u32, u64>,
    pending: Vec<ResultDelta>,
}

/// Owns every registered subscription and turns committed batches into
/// [`ResultDelta`]s.
pub struct SubscriptionRegistry {
    stats: Option<Arc<StructStats>>,
    subs: Vec<SubEntry>,
    next_id: u64,
}

impl SubscriptionRegistry {
    /// An empty registry; `stats` (usually the engine's
    /// [`stats_handle`](lsgraph_core::LsGraph::stats_handle)) receives the
    /// subscription counters.
    pub fn new(stats: Option<Arc<StructStats>>) -> Self {
        SubscriptionRegistry {
            stats,
            subs: Vec::new(),
            next_id: 0,
        }
    }

    /// Registered subscriptions (live + quarantined).
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Registers `query`, materializing its initial result from `g`.
    ///
    /// `since_seq` is the engine batch sequence already reflected in `g`;
    /// later [`deliver`](Self::deliver) calls skip batches at or below it.
    /// The initial materialization is queued as a bootstrap delta (diffed
    /// against the empty map, at `since_seq`), so replaying every polled
    /// delta from an empty map always reconstructs the current result.
    pub fn register<G: Graph + ?Sized>(
        &mut self,
        g: &G,
        query: StandingQuery,
        since_seq: u64,
    ) -> SubscriptionId {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        let maintainer = Maintainer::new(&query, g);
        let result = maintainer.materialize(g);
        let bootstrap = diff(id, since_seq, &BTreeMap::new(), &result);
        self.subs.push(SubEntry {
            id,
            query,
            since_seq,
            state: SubState::Live(maintainer),
            result,
            pending: vec![bootstrap],
        });
        self.update_active_gauge();
        id
    }

    /// Cancels a subscription; returns false if the id is unknown.
    pub fn cancel(&mut self, id: SubscriptionId) -> bool {
        let before = self.subs.len();
        self.subs.retain(|s| s.id != id);
        let removed = self.subs.len() != before;
        if removed {
            self.update_active_gauge();
        }
        removed
    }

    /// Delivers one committed batch to every live subscription.
    ///
    /// `g` must be the post-batch snapshot. `lossy` marks batches whose
    /// commit dropped edges (quarantined runs); traversal maintainers then
    /// rebuild from the snapshot instead of applying the batch
    /// incrementally, while window maintainers still record the slot and
    /// re-read their candidates' presence (see [`Maintainer::apply`]). Each
    /// live subscription emits exactly one delta (possibly empty): the one
    /// its maintainer returned, applied to the kept result in place — no
    /// materialization, no diff. A maintainer that panics — organically or via the
    /// `subscription_deliver` failpoint evaluated once per live
    /// subscription — is dropped in place (no torn state survives) and the
    /// subscription is quarantined; the others keep receiving deltas.
    pub fn deliver<G: Graph + ?Sized>(
        &mut self,
        g: &G,
        seq: u64,
        kind: BatchKind,
        batch: &[Edge],
        lossy: bool,
    ) {
        for sub in &mut self.subs {
            if seq <= sub.since_seq {
                continue;
            }
            let prev = std::mem::replace(&mut sub.state, SubState::Quarantined { at_seq: seq });
            let maintainer = match prev {
                SubState::Live(m) => m,
                SubState::Quarantined { at_seq } => {
                    sub.state = SubState::Quarantined { at_seq };
                    continue;
                }
            };
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let mut m = maintainer;
                fail_point!("subscription_deliver");
                let changes = m.apply(g, seq, kind, batch, lossy);
                (m, changes)
            }));
            match outcome {
                Ok((m, (added, removed, changed))) => {
                    let d = ResultDelta {
                        sub: sub.id,
                        seq,
                        added,
                        removed,
                        changed,
                    };
                    if let Some(stats) = &self.stats {
                        stats.record_delta_delivered(d.entries());
                    }
                    d.apply_to(&mut sub.result);
                    sub.pending.push(d);
                    sub.state = SubState::Live(m);
                }
                Err(_) => {
                    // The maintainer was moved into the closure and died
                    // with it; `state` already records the quarantine.
                    if let Some(stats) = &self.stats {
                        stats.subscription_panics.record(1);
                    }
                }
            }
        }
    }

    /// Restarts a quarantined subscription from `g` (at batch `seq`),
    /// rebuilding its maintainer and queueing one catch-up delta from the
    /// last delivered result to the fresh materialization.
    ///
    /// Windowed subscriptions restart with an **empty window**: the batches
    /// missed while quarantined are gone, so their counts re-grow as new
    /// batches arrive. Returns false if the id is unknown or still live.
    pub fn restart<G: Graph + ?Sized>(&mut self, g: &G, id: SubscriptionId, seq: u64) -> bool {
        let Some(sub) = self.subs.iter_mut().find(|s| s.id == id) else {
            return false;
        };
        if !matches!(sub.state, SubState::Quarantined { .. }) {
            return false;
        }
        let maintainer = Maintainer::new(&sub.query, g);
        let new = maintainer.materialize(g);
        let d = diff(sub.id, seq, &sub.result, &new);
        if let Some(stats) = &self.stats {
            stats.record_delta_delivered(d.entries());
        }
        sub.result = new;
        sub.pending.push(d);
        sub.state = SubState::Live(maintainer);
        sub.since_seq = seq;
        true
    }

    /// Drains the pending deltas of `id`, oldest first.
    pub fn poll(&mut self, id: SubscriptionId) -> Vec<ResultDelta> {
        self.subs
            .iter_mut()
            .find(|s| s.id == id)
            .map(|s| std::mem::take(&mut s.pending))
            .unwrap_or_default()
    }

    /// The current materialized result of `id`.
    pub fn result(&self, id: SubscriptionId) -> Option<BTreeMap<u32, u64>> {
        self.subs
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.result.clone())
    }

    /// The lifecycle state of `id`.
    pub fn state(&self, id: SubscriptionId) -> Option<SubscriptionState> {
        self.subs
            .iter()
            .find(|s| s.id == id)
            .map(|s| match s.state {
                SubState::Live(_) => SubscriptionState::Live,
                SubState::Quarantined { at_seq } => SubscriptionState::Quarantined { at_seq },
            })
    }

    /// The registered query of `id`.
    pub fn query(&self, id: SubscriptionId) -> Option<StandingQuery> {
        self.subs.iter().find(|s| s.id == id).map(|s| s.query)
    }

    /// Ids of every quarantined subscription.
    pub fn quarantined(&self) -> Vec<SubscriptionId> {
        self.subs
            .iter()
            .filter(|s| matches!(s.state, SubState::Quarantined { .. }))
            .map(|s| s.id)
            .collect()
    }

    fn update_active_gauge(&self) {
        if let Some(stats) = &self.stats {
            stats.subscriptions_active.record(self.subs.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_gen::Csr;

    fn sym(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect()
    }

    #[test]
    fn bootstrap_delta_plus_deliveries_reconstruct_result() {
        let mut edges = sym(&[(0, 1)]);
        let mut reg = SubscriptionRegistry::new(None);
        let g0 = Csr::from_edges(5, &edges);
        let id = reg.register(&g0, StandingQuery::KHop { src: 0, k: 2 }, 0);
        let mut replay = BTreeMap::new();
        for (seq, batch) in [sym(&[(1, 2)]), sym(&[(2, 3)]), sym(&[(0, 4)])]
            .into_iter()
            .enumerate()
        {
            edges.extend_from_slice(&batch);
            let g = Csr::from_edges(5, &edges);
            reg.deliver(&g, seq as u64 + 1, BatchKind::Insert, &batch, false);
        }
        for d in reg.poll(id) {
            d.apply_to(&mut replay);
        }
        assert_eq!(replay, reg.result(id).unwrap());
        assert_eq!(
            replay,
            [(0, 0), (1, 1), (2, 2), (4, 1)].into_iter().collect()
        );
        // Pending drained: a second poll is empty.
        assert!(reg.poll(id).is_empty());
    }

    #[test]
    fn since_seq_skips_already_reflected_batches() {
        let edges = sym(&[(0, 1), (1, 2)]);
        let g = Csr::from_edges(3, &edges);
        let mut reg = SubscriptionRegistry::new(None);
        // Registered at seq 5: the snapshot already contains batches 1..=5.
        let id = reg.register(&g, StandingQuery::ComponentMembership { src: 0 }, 5);
        let before = reg.result(id).unwrap();
        // Re-delivering batch 5 must be a no-op (no double-apply, no delta).
        reg.deliver(&g, 5, BatchKind::Insert, &sym(&[(0, 1)]), false);
        assert_eq!(reg.result(id).unwrap(), before);
        let polled = reg.poll(id);
        assert_eq!(polled.len(), 1, "only the bootstrap delta");
        reg.deliver(&g, 6, BatchKind::Insert, &[], false);
        assert_eq!(reg.poll(id).len(), 1, "seq 6 delivers (an empty delta)");
    }

    #[test]
    fn lossy_delivery_refreshes_from_snapshot() {
        // The "batch" claims an edge the graph doesn't have; a lossy
        // delivery must trust the snapshot, not the batch.
        let edges = sym(&[(0, 1)]);
        let g = Csr::from_edges(4, &edges);
        let mut reg = SubscriptionRegistry::new(None);
        let id = reg.register(
            &Csr::from_edges(4, &[]),
            StandingQuery::ComponentMembership { src: 0 },
            0,
        );
        reg.deliver(&g, 1, BatchKind::Insert, &sym(&[(0, 1), (2, 3)]), true);
        let r = reg.result(id).unwrap();
        assert_eq!(r, [(0, 1), (1, 1)].into_iter().collect());
    }

    #[test]
    fn cancel_and_unknown_ids() {
        let g = Csr::from_edges(2, &sym(&[(0, 1)]));
        let mut reg = SubscriptionRegistry::new(None);
        let id = reg.register(&g, StandingQuery::WindowedEdgeCount { window: 2 }, 0);
        assert_eq!(reg.len(), 1);
        assert!(reg.cancel(id));
        assert!(!reg.cancel(id));
        assert!(reg.result(id).is_none());
        assert!(reg.state(id).is_none());
        assert!(reg.poll(id).is_empty());
        assert!(reg.is_empty());
    }
}
