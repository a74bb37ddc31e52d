//! Pull-based PageRank (paper Table 2).

use lsgraph_api::Graph;
use rayon::prelude::*;

/// Runs `iters` synchronous PageRank iterations with damping `d` on a
/// symmetric graph, returning the score vector (sums to ~1 when every vertex
/// has at least one edge).
///
/// Dangling vertices redistribute uniformly, the standard correction.
pub fn pagerank<G: Graph + ?Sized>(g: &G, iters: usize, d: f64) -> Vec<f64> {
    let _k = lsgraph_api::kernel_scope("pagerank");
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - d) / n as f64;
    let mut score = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0f64; n];
    // Degrees do not change across iterations: read each once.
    let degree: Vec<usize> = (0..n as u32).into_par_iter().map(|v| g.degree(v)).collect();
    for _ in 0..iters {
        // Dangling mass is shared evenly.
        let dangling: f64 = (0..n as u32)
            .into_par_iter()
            .map(|v| {
                if degree[v as usize] == 0 {
                    score[v as usize]
                } else {
                    0.0
                }
            })
            .sum();
        contrib.par_iter_mut().enumerate().for_each(|(v, c)| {
            let deg = degree[v];
            *c = if deg > 0 { score[v] / deg as f64 } else { 0.0 };
        });
        let contrib_ref = &contrib;
        let next: Vec<f64> = (0..n as u32)
            .into_par_iter()
            .map(|v| {
                let mut sum = 0.0;
                g.for_each_neighbor_slice_while(v, &mut |s| {
                    for &u in s {
                        sum += contrib_ref[u as usize];
                    }
                    true
                });
                base + d * (sum + dangling / n as f64)
            })
            .collect();
        score = next;
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_api::Edge;
    use lsgraph_gen::Csr;

    #[test]
    fn uniform_on_symmetric_ring() {
        let n = 8u32;
        let mut es = Vec::new();
        for v in 0..n {
            es.push(Edge::new(v, (v + 1) % n));
            es.push(Edge::new((v + 1) % n, v));
        }
        let g = Csr::from_edges(n as usize, &es);
        let pr = pagerank(&g, 30, 0.85);
        for &s in &pr {
            assert!((s - 1.0 / n as f64).abs() < 1e-9, "score {s}");
        }
    }

    #[test]
    fn hub_scores_highest() {
        // Star: center 0 connected to 1..=5 (symmetrized).
        let mut es = Vec::new();
        for v in 1..=5u32 {
            es.push(Edge::new(0, v));
            es.push(Edge::new(v, 0));
        }
        let g = Csr::from_edges(6, &es);
        let pr = pagerank(&g, 50, 0.85);
        for v in 1..=5 {
            assert!(pr[0] > pr[v], "center must dominate leaf {v}");
            assert!((pr[v] - pr[1]).abs() < 1e-12, "leaves symmetric");
        }
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass conserved, got {total}");
    }

    #[test]
    fn dangling_mass_conserved() {
        // Vertex 2 is isolated: its mass must be redistributed, not lost.
        let g = Csr::from_edges(3, &[Edge::new(0, 1), Edge::new(1, 0)]);
        let pr = pagerank(&g, 40, 0.85);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
        assert!(pr[2] > 0.0 && pr[2] < pr[0]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert!(pagerank(&g, 5, 0.85).is_empty());
    }
}
