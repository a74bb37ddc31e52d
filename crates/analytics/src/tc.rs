//! Triangle counting by sorted-adjacency intersection (paper §6.3,
//! Table 2).
//!
//! The paper's TC first copies each vertex's edges into flat arrays (the
//! *Traversal* phase, whose share of total time Table 2 reports), then
//! counts triangles by intersecting the degree-ordered directed adjacency
//! lists — the set-computation pattern that motivates keeping neighbors
//! sorted.

use std::time::{Duration, Instant};

use lsgraph_api::Graph;
use rayon::prelude::*;

/// Result of [`triangle_count`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TcResult {
    /// Number of distinct triangles.
    pub triangles: u64,
    /// Time spent flattening adjacency into arrays (Table 2 "Traversal").
    pub traversal: Duration,
    /// Total time including counting.
    pub total: Duration,
}

/// Size of the two sorted u32 slices' intersection.
#[inline]
fn intersect_count(a: &[u32], b: &[u32]) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            core::cmp::Ordering::Less => i += 1,
            core::cmp::Ordering::Greater => j += 1,
            core::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Counts distinct triangles of a symmetric graph.
pub fn triangle_count<G: Graph + ?Sized>(g: &G) -> TcResult {
    let _k = lsgraph_api::kernel_scope("tc");
    let start = Instant::now();
    let n = g.num_vertices();
    // Traversal phase: flatten each vertex's neighbors into an array,
    // keeping only the degree-ordered "higher" endpoints so each triangle is
    // counted exactly once at its smallest vertex.
    let rank = |v: u32| (g.degree(v), v);
    let higher: Vec<Vec<u32>> = (0..n as u32)
        .into_par_iter()
        .map(|v| {
            let rv = rank(v);
            let mut out = Vec::new();
            g.for_each_neighbor_slice_while(v, &mut |s| {
                out.extend(s.iter().copied().filter(|&u| u != v && rank(u) > rv));
                true
            });
            out
        })
        .collect();
    let traversal = start.elapsed();
    let triangles: u64 = (0..n)
        .into_par_iter()
        .map(|v| {
            let hv = &higher[v];
            let mut count = 0;
            for &u in hv {
                count += intersect_count(hv, &higher[u as usize]);
            }
            count
        })
        .sum();
    TcResult {
        triangles,
        traversal,
        total: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::Edge;
    use lsgraph_gen::Csr;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn sym(pairs: &[(u32, u32)], n: usize) -> Csr {
        let mut es = Vec::new();
        for &(a, b) in pairs {
            es.push(Edge::new(a, b));
            es.push(Edge::new(b, a));
        }
        Csr::from_edges(n, &es)
    }

    #[test]
    fn single_triangle() {
        let g = sym(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(triangle_count(&g).triangles, 1);
    }

    #[test]
    fn square_has_no_triangle() {
        let g = sym(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        assert_eq!(triangle_count(&g).triangles, 0);
    }

    #[test]
    fn complete_graph_k6() {
        let mut pairs = Vec::new();
        for a in 0..6u32 {
            for b in a + 1..6 {
                pairs.push((a, b));
            }
        }
        let g = sym(&pairs, 6);
        // C(6,3) = 20 triangles.
        assert_eq!(triangle_count(&g).triangles, 20);
    }

    #[test]
    fn self_loops_ignored() {
        let g = sym(&[(0, 1), (1, 2), (0, 2), (0, 0), (1, 1)], 3);
        assert_eq!(triangle_count(&g).triangles, 1);
    }

    #[test]
    fn random_matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 60u32;
        let pairs: Vec<(u32, u32)> = (0..300)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|&(a, b)| a != b)
            .collect();
        let g = sym(&pairs, n as usize);
        // Brute force over vertex triples on the adjacency matrix.
        let mut adj = vec![false; (n * n) as usize];
        for &(a, b) in &pairs {
            adj[(a * n + b) as usize] = true;
            adj[(b * n + a) as usize] = true;
        }
        let mut expect = 0u64;
        for a in 0..n {
            for b in a + 1..n {
                if !adj[(a * n + b) as usize] {
                    continue;
                }
                for c in b + 1..n {
                    if adj[(a * n + c) as usize] && adj[(b * n + c) as usize] {
                        expect += 1;
                    }
                }
            }
        }
        assert_eq!(triangle_count(&g).triangles, expect);
    }

    #[test]
    fn timings_populated() {
        let g = sym(&[(0, 1), (1, 2), (0, 2)], 3);
        let r = triangle_count(&g);
        assert!(r.total >= r.traversal);
    }
}
