//! The standing-query algebra and its from-scratch oracle evaluation.

use std::collections::{BTreeMap, BTreeSet};

use lsgraph_analytics::{bfs, connected_components, distances_from_parents, UNREACHED};
use lsgraph_api::{Edge, Graph};

use crate::window::BatchWindow;

/// A query a client can register as a subscription.
///
/// Each variant's materialized result is a `BTreeMap<u32, u64>`:
///
/// * [`KHop`](StandingQuery::KHop) — every vertex within `k` hops of `src`,
///   keyed by vertex id, valued by hop distance (the source maps to `0`).
/// * [`WindowedEdgeCount`](StandingQuery::WindowedEdgeCount) — the number of
///   distinct directed edges inserted by the last `window` batches that are
///   still present in the graph; a scalar delivered at key `0`.
/// * [`WindowedTriangleCount`](StandingQuery::WindowedTriangleCount) — the
///   number of triangles whose three (undirected) edges all lie in that same
///   present-window edge set; a scalar delivered at key `0`.
/// * [`ComponentMembership`](StandingQuery::ComponentMembership) — every
///   vertex reachable from `src`, keyed by vertex id, valued `1`. On a
///   **symmetric** graph (every edge stored with its mirror — the contract
///   of all of `lsgraph-analytics`, `connected_components` included) that
///   is `src`'s connected component; on any other graph the maintainer
///   follows out-edges and the oracle's label propagation does not, so the
///   query is defined for symmetric graphs only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandingQuery {
    /// Vertices within `k` hops of `src`, with their hop distance.
    KHop {
        /// BFS source vertex.
        src: u32,
        /// Maximum hop distance (inclusive).
        k: u32,
    },
    /// Distinct still-present edges inserted by the last `window` batches.
    WindowedEdgeCount {
        /// Window size in batches.
        window: usize,
    },
    /// Triangles entirely inside the present-window edge set.
    WindowedTriangleCount {
        /// Window size in batches.
        window: usize,
    },
    /// Vertices in the same connected component as `src` (symmetric graphs
    /// only: maintained as reachability from `src`).
    ComponentMembership {
        /// Membership anchor vertex.
        src: u32,
    },
}

impl StandingQuery {
    /// Window size in batches, for the windowed variants.
    pub fn window(&self) -> Option<usize> {
        match *self {
            StandingQuery::WindowedEdgeCount { window }
            | StandingQuery::WindowedTriangleCount { window } => Some(window),
            _ => None,
        }
    }

    /// Evaluates the query from scratch with the full (non-incremental)
    /// kernels: a fresh BFS for k-hop, a label-propagation pass for
    /// membership, and a rescan of `window` for the windowed counts.
    ///
    /// This is the *oracle* the incremental maintainers are held to: after
    /// every delivered batch, a subscription's materialized result must
    /// equal `oracle` evaluated on the same snapshot (and, for windowed
    /// queries, the same window history).
    pub fn oracle<G: Graph + ?Sized>(&self, g: &G, window: &BatchWindow) -> BTreeMap<u32, u64> {
        match *self {
            StandingQuery::KHop { src, k } => {
                let n = g.num_vertices();
                if (src as usize) >= n {
                    return BTreeMap::new();
                }
                let parents = bfs(g, src);
                let dist = distances_from_parents(g, src, &parents);
                dist.iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != UNREACHED && d <= k)
                    .map(|(v, &d)| (v as u32, d as u64))
                    .collect()
            }
            StandingQuery::WindowedEdgeCount { .. } => {
                let count = present_window_edges(g, window).len() as u64;
                [(0u32, count)].into_iter().collect()
            }
            StandingQuery::WindowedTriangleCount { .. } => {
                let count = window_triangles(&present_window_edges(g, window));
                [(0u32, count)].into_iter().collect()
            }
            StandingQuery::ComponentMembership { src } => {
                let n = g.num_vertices();
                if (src as usize) >= n {
                    return BTreeMap::new();
                }
                let labels = connected_components(g);
                let root = labels[src as usize];
                labels
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| l == root)
                    .map(|(v, _)| (v as u32, 1u64))
                    .collect()
            }
        }
    }
}

/// The window's candidate edges filtered to those still present in `g`.
fn present_window_edges<G: Graph + ?Sized>(g: &G, window: &BatchWindow) -> Vec<Edge> {
    let n = g.num_vertices();
    window
        .candidate_edges()
        .into_iter()
        .filter(|e| (e.src as usize) < n && (e.dst as usize) < n && g.has_edge(e.src, e.dst))
        .collect()
}

/// Triangles whose three edges all lie in `edges`, treated as undirected.
///
/// Each directed edge contributes the unordered pair `{src, dst}`; a
/// triangle is an unordered vertex triple with all three pairs present.
pub fn window_triangles(edges: &[Edge]) -> u64 {
    let mut adj: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for e in edges {
        if e.src == e.dst {
            continue;
        }
        adj.entry(e.src).or_default().insert(e.dst);
        adj.entry(e.dst).or_default().insert(e.src);
    }
    let mut count = 0u64;
    for (&a, na) in &adj {
        for &b in na.range((a + 1)..) {
            let nb = &adj[&b];
            // Common neighbors above b close a triangle exactly once.
            count += na.range((b + 1)..).filter(|c| nb.contains(c)).count() as u64;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_core::BatchKind;
    use lsgraph_gen::Csr;

    fn sym(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect()
    }

    #[test]
    fn khop_oracle_truncates_at_k() {
        // Path 0-1-2-3-4.
        let g = Csr::from_edges(5, &sym(&[(0, 1), (1, 2), (2, 3), (3, 4)]));
        let q = StandingQuery::KHop { src: 0, k: 2 };
        let r = q.oracle(&g, &BatchWindow::new(1));
        assert_eq!(
            r,
            [(0, 0), (1, 1), (2, 2)]
                .into_iter()
                .collect::<BTreeMap<_, _>>()
        );
    }

    #[test]
    fn membership_oracle_selects_component() {
        let g = Csr::from_edges(6, &sym(&[(0, 1), (1, 2), (4, 5)]));
        let q = StandingQuery::ComponentMembership { src: 4 };
        let r = q.oracle(&g, &BatchWindow::new(1));
        assert_eq!(r, [(4, 1), (5, 1)].into_iter().collect::<BTreeMap<_, _>>());
    }

    #[test]
    fn windowed_edge_count_respects_presence() {
        let mut w = BatchWindow::new(4);
        w.push(1, BatchKind::Insert, &sym(&[(0, 1), (1, 2)]));
        // Graph only still contains 0-1: the 1-2 candidates are filtered.
        let g = Csr::from_edges(3, &sym(&[(0, 1)]));
        let q = StandingQuery::WindowedEdgeCount { window: 4 };
        let r = q.oracle(&g, &w);
        assert_eq!(r, [(0, 2)].into_iter().collect::<BTreeMap<_, _>>());
    }

    #[test]
    fn window_triangle_counting_is_undirected_and_exact() {
        // Triangle 0-1-2 plus a pendant edge 2-3.
        let edges = sym(&[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(window_triangles(&edges), 1);
        // One direction per pair suffices.
        let one_dir: Vec<Edge> = [(0, 1), (1, 2), (0, 2)]
            .iter()
            .map(|&(a, b)| Edge::new(a, b))
            .collect();
        assert_eq!(window_triangles(&one_dir), 1);
        // Self-loops never close triangles.
        let with_loop: Vec<Edge> = [(0, 0), (0, 1), (1, 2), (0, 2)]
            .iter()
            .map(|&(a, b)| Edge::new(a, b))
            .collect();
        assert_eq!(window_triangles(&with_loop), 1);
    }

    #[test]
    fn out_of_range_sources_yield_empty_results() {
        let g = Csr::from_edges(2, &sym(&[(0, 1)]));
        let w = BatchWindow::new(1);
        assert!(StandingQuery::KHop { src: 9, k: 3 }
            .oracle(&g, &w)
            .is_empty());
        assert!(StandingQuery::ComponentMembership { src: 9 }
            .oracle(&g, &w)
            .is_empty());
    }
}
