//! Parallel breadth-first search (paper §6.3, Fig. 3/13).

use std::sync::atomic::{AtomicU32, Ordering};

use lsgraph_api::Graph;

use crate::edge_map::edge_map;
use crate::subset::VertexSubset;

/// Sentinel for "unvisited": an unreachable vertex's parent or distance.
pub const UNREACHED: u32 = u32::MAX;

/// Frontier-based BFS from `src`; returns the parent of each vertex
/// ([`UNREACHED`] for unreachable ones, `src` is its own parent).
pub fn bfs<G: Graph + ?Sized>(g: &G, src: u32) -> Vec<u32> {
    let _k = lsgraph_api::kernel_scope("bfs");
    let n = g.num_vertices();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    parent[src as usize].store(src, Ordering::Relaxed);
    let mut frontier = VertexSubset::single(src);
    while !frontier.is_empty() {
        frontier = edge_map(
            g,
            &frontier,
            |s, d| {
                parent[d as usize]
                    .compare_exchange(UNREACHED, s, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            },
            |d| parent[d as usize].load(Ordering::Relaxed) == UNREACHED,
        );
    }
    parent.into_iter().map(AtomicU32::into_inner).collect()
}

/// BFS distances derived from a parent array (used for validation: parents
/// differ across engines/thread schedules, distances must not).
pub fn distances_from_parents<G: Graph + ?Sized>(g: &G, src: u32, parents: &[u32]) -> Vec<u32> {
    // Recompute distances by level-synchronous traversal restricted to
    // parent edges.
    let n = g.num_vertices();
    let mut dist = vec![UNREACHED; n];
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (v, &p) in parents.iter().enumerate() {
        if p != UNREACHED && v as u32 != src {
            children[p as usize].push(v as u32);
        }
    }
    let mut level = vec![src];
    let mut d = 0;
    dist[src as usize] = 0;
    while !level.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for &v in &level {
            for &c in &children[v as usize] {
                dist[c as usize] = d;
                next.push(c);
            }
        }
        level = next;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::Edge;
    use lsgraph_gen::Csr;

    fn path(n: u32) -> Csr {
        let mut es = Vec::new();
        for v in 0..n - 1 {
            es.push(Edge::new(v, v + 1));
            es.push(Edge::new(v + 1, v));
        }
        Csr::from_edges(n as usize, &es)
    }

    #[test]
    fn bfs_on_path() {
        let g = path(6);
        let parents = bfs(&g, 0);
        assert_eq!(parents, vec![0, 0, 1, 2, 3, 4]);
        let dist = distances_from_parents(&g, 0, &parents);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn disconnected_vertices_unreached() {
        let g = Csr::from_edges(4, &[Edge::new(0, 1), Edge::new(1, 0)]);
        let parents = bfs(&g, 0);
        assert_eq!(parents[2], UNREACHED);
        assert_eq!(parents[3], UNREACHED);
        assert_eq!(parents[1], 0);
    }

    #[test]
    fn bfs_distances_on_grid() {
        // 4x4 grid: distance = Manhattan distance from corner.
        let side = 4u32;
        let mut es = Vec::new();
        let id = |r: u32, c: u32| r * side + c;
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    es.push(Edge::new(id(r, c), id(r, c + 1)));
                    es.push(Edge::new(id(r, c + 1), id(r, c)));
                }
                if r + 1 < side {
                    es.push(Edge::new(id(r, c), id(r + 1, c)));
                    es.push(Edge::new(id(r + 1, c), id(r, c)));
                }
            }
        }
        let g = Csr::from_edges((side * side) as usize, &es);
        let parents = bfs(&g, 0);
        let dist = distances_from_parents(&g, 0, &parents);
        for r in 0..side {
            for c in 0..side {
                assert_eq!(dist[id(r, c) as usize], r + c, "({r},{c})");
            }
        }
    }
}
