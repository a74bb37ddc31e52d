//! Per-subscription incremental maintainers.
//!
//! Each registered [`StandingQuery`] is backed by a maintainer that absorbs
//! one committed batch at a time and *returns* what the batch changed in the
//! query's result, entry for entry what diffing a materialization taken
//! before against one taken after would give — without building either:
//!
//! * k-hop and component membership → [`IncrementalBfs`]: a monotone
//!   relaxation on inserts; on deletes, KickStarter-style trimming in
//!   Ramalingam–Reps form, which re-checks only the heads of cut tree edges
//!   and relaxes only the vertices that lost their last support, so both
//!   read O(|batch| + affected) adjacencies; one traversal plus one pass over
//!   the old and new distances on lossy commits. Membership is k-hop with no
//!   cutoff and value 1 — the component exactly when the graph is symmetric,
//!   which the delete repair needs as well (it reads a vertex's adjacency as
//!   its in-edges).
//! * windowed counts → a [`BatchWindow`], whose candidate map settles each
//!   edge's presence from the batches themselves.

use std::collections::BTreeMap;

use lsgraph_analytics::{IncrementalBfs, UNREACHED};
use lsgraph_api::{Edge, Graph};
use lsgraph_core::BatchKind;

use crate::query::{window_triangles, StandingQuery};
use crate::window::BatchWindow;

/// What one batch changed in a result — `(added, removed, changed)`, as the
/// fields of a [`ResultDelta`](crate::ResultDelta), ascending by key.
pub type Changes = (Vec<(u32, u64)>, Vec<(u32, u64)>, Vec<(u32, u64, u64)>);

/// The incremental state behind one subscription.
#[derive(Debug)]
pub enum Maintainer {
    /// Maintains hop distances for [`StandingQuery::KHop`] and
    /// [`StandingQuery::ComponentMembership`].
    Reach {
        /// Hop cutoff (inclusive; below [`UNREACHED`]).
        k: u32,
        /// Whether a member's value is its hop distance (k-hop) or 1.
        hops: bool,
        /// The distance maintainer.
        bfs: IncrementalBfs,
    },
    /// Maintains the batch window for [`StandingQuery::WindowedEdgeCount`]
    /// and [`StandingQuery::WindowedTriangleCount`].
    Window {
        /// Sliding window over recent batches.
        window: BatchWindow,
        /// Whether the count is of the window's present edges or of the
        /// triangles among them (re-counted per batch: window-bounded).
        triangles: bool,
        /// The current count.
        count: u64,
    },
}

/// A member's result value at distance `d`.
fn reach_value(hops: bool, d: u32) -> u64 {
    u64::from(if hops { d } else { 1 })
}

impl Maintainer {
    /// Builds the maintainer for `query` against the current graph.
    ///
    /// # Panics
    ///
    /// Panics if a k-hop source is `>= g.num_vertices()` (the engine only
    /// grows, so a source valid at registration stays valid).
    pub fn new<G: Graph + ?Sized>(query: &StandingQuery, g: &G) -> Self {
        match *query {
            StandingQuery::KHop { src, k } => {
                assert!(
                    (src as usize) < g.num_vertices(),
                    "k-hop source {src} out of range (graph has {} vertices)",
                    g.num_vertices()
                );
                Maintainer::Reach {
                    k: k.min(UNREACHED - 1),
                    hops: true,
                    bfs: IncrementalBfs::new(g, src),
                }
            }
            StandingQuery::ComponentMembership { src } => Maintainer::Reach {
                k: UNREACHED - 1,
                hops: false,
                bfs: IncrementalBfs::new(g, src),
            },
            StandingQuery::WindowedEdgeCount { window }
            | StandingQuery::WindowedTriangleCount { window } => Maintainer::Window {
                window: BatchWindow::new(window),
                triangles: matches!(query, StandingQuery::WindowedTriangleCount { .. }),
                count: 0,
            },
        }
    }

    /// Absorbs one committed batch (`g` is the post-batch snapshot) and
    /// returns what it changed in the result; the registry wraps that in the
    /// subscription's [`ResultDelta`](crate::ResultDelta).
    ///
    /// `lossy` marks a batch that committed incompletely (quarantined runs
    /// dropped edges, or edges were skipped on quarantined vertices): the
    /// batch contents can no longer be trusted to mirror the graph, so the
    /// traversal maintainers rebuild from the snapshot instead of applying
    /// incrementally, and the window maintainers — which record the slot
    /// either way, the batch still happened and the window must age —
    /// re-read every candidate's presence from the snapshot.
    pub fn apply<G: Graph + ?Sized>(
        &mut self,
        g: &G,
        seq: u64,
        kind: BatchKind,
        batch: &[Edge],
        lossy: bool,
    ) -> Changes {
        let (mut added, mut removed, mut changed) = Changes::default();
        match self {
            Maintainer::Reach { k, hops, bfs } => {
                let changes = match kind {
                    _ if lossy => bfs.recompute(g),
                    BatchKind::Insert => bfs.on_insert(g, batch),
                    BatchKind::Delete => bfs.on_delete(g, batch),
                };
                let dist = bfs.distances();
                for (v, old) in changes {
                    let new = dist[v as usize];
                    match (old <= *k, new <= *k) {
                        (false, true) => added.push((v, reach_value(*hops, new))),
                        (true, false) => removed.push((v, reach_value(*hops, old))),
                        (true, true) if *hops => changed.push((v, old as u64, new as u64)),
                        _ => {}
                    }
                }
            }
            Maintainer::Window {
                window,
                triangles,
                count,
            } => {
                window.push(seq, kind, batch);
                if lossy {
                    window.reprobe(g);
                }
                let new = if *triangles {
                    window_triangles(&window.present_edges())
                } else {
                    window.present_count()
                };
                if new != *count {
                    changed.push((0, std::mem::replace(count, new), new));
                }
            }
        }
        (added, removed, changed)
    }

    /// Materializes the query result (registration bootstrap, restart, and
    /// the tests' oracle; delivery applies the deltas instead).
    pub fn materialize<G: Graph + ?Sized>(&self, g: &G) -> BTreeMap<u32, u64> {
        match self {
            Maintainer::Reach { k, hops, bfs } => bfs
                .distances()
                .iter()
                .take(g.num_vertices())
                .enumerate()
                .filter(|&(_, &d)| d <= *k)
                .map(|(v, &d)| (v as u32, reach_value(*hops, d)))
                .collect(),
            Maintainer::Window { count, .. } => [(0u32, *count)].into(),
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

    /// Drives a maintainer and the oracle through the same batch stream and
    /// checks they agree at every step.
    fn assert_tracks_oracle(query: StandingQuery, n: usize, stream: &[(BatchKind, Vec<Edge>)]) {
        let mut edges: Vec<Edge> = Vec::new();
        let g0 = Csr::from_edges(n, &edges);
        let mut m = Maintainer::new(&query, &g0);
        let mut oracle_window = BatchWindow::new(query.window().unwrap_or(1));
        assert_eq!(m.materialize(&g0), query.oracle(&g0, &oracle_window));
        for (seq, (kind, batch)) in stream.iter().enumerate() {
            let seq = seq as u64 + 1;
            match kind {
                BatchKind::Insert => edges.extend_from_slice(batch),
                BatchKind::Delete => {
                    edges.retain(|e| !batch.iter().any(|d| d.src == e.src && d.dst == e.dst))
                }
            }
            let g = Csr::from_edges(n, &edges);
            m.apply(&g, seq, *kind, batch, false);
            oracle_window.push(seq, *kind, batch);
            assert_eq!(
                m.materialize(&g),
                query.oracle(&g, &oracle_window),
                "divergence at seq {seq} for {query:?}"
            );
        }
    }

    #[test]
    fn khop_tracks_oracle_through_inserts_and_deletes() {
        assert_tracks_oracle(
            StandingQuery::KHop { src: 0, k: 2 },
            6,
            &[
                (BatchKind::Insert, sym(&[(0, 1), (1, 2), (2, 3)])),
                (BatchKind::Insert, sym(&[(0, 3), (3, 4)])),
                (BatchKind::Delete, sym(&[(0, 3)])),
                (BatchKind::Insert, sym(&[(4, 5)])),
            ],
        );
    }

    #[test]
    fn membership_tracks_oracle_through_inserts_and_deletes() {
        assert_tracks_oracle(
            StandingQuery::ComponentMembership { src: 2 },
            6,
            &[
                (BatchKind::Insert, sym(&[(0, 1), (2, 3)])),
                (BatchKind::Insert, sym(&[(1, 2)])),
                (BatchKind::Delete, sym(&[(1, 2)])),
                (BatchKind::Insert, sym(&[(3, 4), (4, 5)])),
            ],
        );
    }

    #[test]
    fn windowed_counts_track_oracle_with_expiry() {
        let stream = vec![
            (BatchKind::Insert, sym(&[(0, 1), (1, 2), (0, 2)])),
            (BatchKind::Insert, sym(&[(2, 3)])),
            (BatchKind::Delete, sym(&[(0, 2)])),
            (BatchKind::Insert, sym(&[(3, 4)])),
            (BatchKind::Insert, sym(&[(4, 5)])),
        ];
        assert_tracks_oracle(StandingQuery::WindowedEdgeCount { window: 2 }, 6, &stream);
        assert_tracks_oracle(
            StandingQuery::WindowedTriangleCount { window: 3 },
            6,
            &stream,
        );
    }

    #[test]
    fn lossy_apply_rebuilds_from_snapshot() {
        let edges = sym(&[(0, 1), (1, 2)]);
        let g = Csr::from_edges(4, &edges);
        let mut m = Maintainer::new(
            &StandingQuery::KHop { src: 0, k: 3 },
            &Csr::from_edges(4, &[]),
        );
        // The batch says nothing: a lossy apply must converge to the snapshot.
        let (added, removed, changed) = m.apply(&g, 1, BatchKind::Insert, &[], true);
        assert_eq!(added, vec![(1, 1), (2, 2)]);
        assert!(removed.is_empty() && changed.is_empty());
        assert_eq!(
            m.materialize(&g),
            StandingQuery::KHop { src: 0, k: 3 }.oracle(&g, &BatchWindow::new(1))
        );
    }
}
