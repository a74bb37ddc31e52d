//! The `EdgeMap` primitive with sparse/dense direction switching (Ligra,
//! Shun & Blelloch PPoPP'13; paper §5 "Interface").

use lsgraph_api::Graph;
use rayon::prelude::*;

use crate::subset::VertexSubset;

/// Sparse→dense switch threshold: go dense when the frontier's out-degree
/// sum exceeds `m / DENSE_DIVISOR` (Ligra's heuristic).
const DENSE_DIVISOR: usize = 20;

/// Applies `update(src, dst)` over every edge out of `frontier`, returning
/// the subset of destinations for which `update` returned `true`.
///
/// `cond(dst)` gates destinations (e.g. "not yet visited"); in dense mode a
/// destination stops scanning its in-neighbors as soon as `cond` turns
/// false, giving Ligra's pull-side early exit.
///
/// `update` may be called concurrently for the same destination from
/// different sources; callers make it idempotent/atomic (e.g. CAS) so that
/// exactly one call per destination returns `true` in sparse mode. Dense
/// mode calls it from one thread per destination.
pub fn edge_map<G, U, C>(g: &G, frontier: &VertexSubset, update: U, cond: C) -> VertexSubset
where
    G: Graph + ?Sized,
    U: Fn(u32, u32) -> bool + Sync,
    C: Fn(u32) -> bool + Sync,
{
    let n = g.num_vertices();
    let ids = frontier.to_sparse();
    let out_sum: usize = ids.par_iter().map(|&v| g.degree(v)).sum();
    if out_sum + ids.len() > (g.num_edges() + 1) / DENSE_DIVISOR {
        edge_map_dense(g, frontier, update, cond, n)
    } else {
        edge_map_sparse(g, &ids, update, cond)
    }
}

fn edge_map_sparse<G, U, C>(g: &G, frontier: &[u32], update: U, cond: C) -> VertexSubset
where
    G: Graph + ?Sized,
    U: Fn(u32, u32) -> bool + Sync,
    C: Fn(u32) -> bool + Sync,
{
    let next: Vec<u32> = frontier
        .par_iter()
        .fold(Vec::new, |mut acc, &v| {
            g.for_each_neighbor_slice_while(v, &mut |s| {
                for &u in s {
                    if cond(u) && update(v, u) {
                        acc.push(u);
                    }
                }
                true
            });
            acc
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    VertexSubset::Sparse(next)
}

fn edge_map_dense<G, U, C>(
    g: &G,
    frontier: &VertexSubset,
    update: U,
    cond: C,
    n: usize,
) -> VertexSubset
where
    G: Graph + ?Sized,
    U: Fn(u32, u32) -> bool + Sync,
    C: Fn(u32) -> bool + Sync,
{
    let in_frontier = frontier.to_dense(n);
    let next: Vec<bool> = (0..n as u32)
        .into_par_iter()
        .map(|d| {
            if !cond(d) {
                return false;
            }
            let mut added = false;
            // Pull across in-neighbors (== out-neighbors on symmetric
            // graphs); stop once cond flips, as Ligra does.
            g.for_each_neighbor_slice_while(d, &mut |srcs| {
                srcs.iter().all(|&s| {
                    if in_frontier[s as usize] && update(s, d) {
                        added = true;
                    }
                    cond(d)
                })
            });
            added
        })
        .collect();
    let count = next.par_iter().filter(|&&b| b).count();
    VertexSubset::Dense(next, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::Edge;
    use lsgraph_gen::Csr;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn ring(n: u32) -> Csr {
        let mut es = Vec::new();
        for v in 0..n {
            es.push(Edge::new(v, (v + 1) % n));
            es.push(Edge::new((v + 1) % n, v));
        }
        Csr::from_edges(n as usize, &es)
    }

    #[test]
    fn one_bfs_step_on_ring() {
        let g = ring(10);
        let visited: Vec<AtomicU32> = (0..10).map(|_| AtomicU32::new(u32::MAX)).collect();
        visited[0].store(0, Ordering::Relaxed);
        let next = edge_map(
            &g,
            &VertexSubset::single(0),
            |s, d| {
                visited[d as usize]
                    .compare_exchange(u32::MAX, s, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            },
            |d| visited[d as usize].load(Ordering::Relaxed) == u32::MAX,
        );
        let mut ids = next.to_sparse();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 9]);
    }

    #[test]
    fn dense_mode_kicks_in_for_full_frontier() {
        let g = ring(50);
        // Full frontier forces the dense path (degree sum = 2n > m/20).
        let hits = AtomicU32::new(0);
        let next = edge_map(
            &g,
            &VertexSubset::full(50),
            |_s, _d| {
                hits.fetch_add(1, Ordering::Relaxed);
                true
            },
            |_| true,
        );
        assert_eq!(next.len(), 50);
        assert!(matches!(next, VertexSubset::Dense(..)));
    }

    #[test]
    fn empty_frontier_yields_empty() {
        let g = ring(5);
        let next = edge_map(&g, &VertexSubset::empty(), |_, _| true, |_| true);
        assert!(next.is_empty());
    }
}
