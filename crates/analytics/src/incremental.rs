//! Incremental BFS maintenance over a streaming graph.
//!
//! The paper's motivation for abandoning CSR's sequential edge-array scans
//! (§3.1) is that "most recent streaming graph systems employ incremental
//! computation", whose accesses into the adjacency structure arrive in
//! random order. This module is such a consumer: it maintains single-source
//! BFS distances across insertion batches, re-relaxing only the affected
//! region instead of recomputing from scratch — and issuing exactly the
//! random per-vertex neighbor probes the RIA/HITree layout is designed to
//! serve.
//!
//! Edge *insertions* only ever shorten distances, so the repair is a
//! monotone relaxation seeded by the endpoints of the new edges. Deletions
//! can lengthen distances and require (partial) recomputation; this
//! maintainer recomputes on deletion, which matches how trimming-based
//! systems (e.g. KickStarter) fall back on unsafe deletions.

use std::sync::atomic::{AtomicU32, Ordering};

use lsgraph_api::{Edge, Graph};

use crate::edge_map::edge_map;
use crate::subset::VertexSubset;

/// Sentinel distance for unreachable vertices.
pub const INF: u32 = u32::MAX;

/// Maintains BFS hop distances from a fixed source across updates.
///
/// Every mutating call returns what it changed as `(vertex, old distance)`
/// pairs in ascending vertex order (the new distance is in
/// [`distances`](Self::distances)), so a consumer that mirrors the result
/// pays for the change, not for the graph. A source beyond the vertex table
/// reaches nothing until the table grows to hold it.
#[derive(Clone, Debug)]
pub struct IncrementalBfs {
    src: u32,
    dist: Vec<u32>,
    /// `dist` as the previous call left it: the old side of the next report.
    prev: Vec<u32>,
}

/// Views the distances as atomics for the parallel relaxation.
fn as_atomic(dist: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: `AtomicU32` has the size, alignment and bit validity of `u32`,
    // and the exclusive borrow rules out non-atomic access while the view
    // lives (what the unstable `AtomicU32::from_mut_slice` does).
    unsafe { &*(dist as *mut [u32] as *const [AtomicU32]) }
}

impl IncrementalBfs {
    /// Runs the initial BFS from `src`.
    pub fn new<G: Graph + ?Sized>(g: &G, src: u32) -> Self {
        let mut me = IncrementalBfs {
            src,
            dist: Vec::new(),
            prev: Vec::new(),
        };
        me.recompute(g);
        me
    }

    /// The maintained source.
    pub fn source(&self) -> u32 {
        self.src
    }

    /// Current distances (hops; [`INF`] = unreachable).
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// Full recomputation (used at construction and after deletions): one
    /// traversal, then one pass over the old and new distances for the
    /// report.
    pub fn recompute<G: Graph + ?Sized>(&mut self, g: &G) -> Vec<(u32, u32)> {
        let n = g.num_vertices();
        self.dist.clear();
        self.dist.resize(n, INF);
        self.prev.resize(n, INF);
        let dist = as_atomic(&mut self.dist);
        let mut frontier = VertexSubset::empty();
        if (self.src as usize) < n {
            dist[self.src as usize].store(0, Ordering::Relaxed);
            frontier = VertexSubset::single(self.src);
        }
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            frontier = edge_map(
                g,
                &frontier,
                |_s, d| {
                    dist[d as usize]
                        .compare_exchange(INF, level, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                },
                |d| dist[d as usize].load(Ordering::Relaxed) == INF,
            );
        }
        let mut changes = Vec::new();
        for (v, (p, &d)) in self.prev.iter_mut().zip(&self.dist).enumerate() {
            if *p != d {
                changes.push((v as u32, std::mem::replace(p, d)));
            }
        }
        changes
    }

    /// Repairs distances after `batch` was inserted into `g` (call after the
    /// graph update; `g` must already contain the batch).
    ///
    /// Only vertices whose distance actually improves are re-expanded, so a
    /// batch that touches a settled region costs O(|batch|) and reads no
    /// adjacency.
    pub fn on_insert<G: Graph + ?Sized>(&mut self, g: &G, batch: &[Edge]) -> Vec<(u32, u32)> {
        let n = g.num_vertices();
        if n > self.dist.len() {
            self.dist.resize(n, INF);
            self.prev.resize(n, INF);
        }
        let dist = as_atomic(&mut self.dist);
        let mut seeds: Vec<u32> = Vec::new();
        // The table grew to hold a source that was beyond it.
        if (self.src as usize) < n && dist[self.src as usize].load(Ordering::Relaxed) == INF {
            dist[self.src as usize].store(0, Ordering::Relaxed);
            seeds.push(self.src);
        }
        // Seed: endpoints improved directly by a new edge.
        for e in batch {
            let (s, d) = (e.src as usize, e.dst as usize);
            if s >= n || d >= n {
                continue;
            }
            let ds = dist[s].load(Ordering::Relaxed);
            if ds != INF && ds + 1 < dist[d].load(Ordering::Relaxed) {
                dist[d].store(ds + 1, Ordering::Relaxed);
                seeds.push(e.dst);
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        let mut improved: Vec<u32> = Vec::new();
        let mut frontier = VertexSubset::Sparse(seeds);
        // Monotone relaxation: propagate improvements until quiescent.
        while !frontier.is_empty() {
            improved.extend(frontier.to_sparse());
            frontier = edge_map(
                g,
                &frontier,
                |s, d| {
                    let nd = dist[s as usize].load(Ordering::Relaxed).saturating_add(1);
                    dist[d as usize].fetch_min(nd, Ordering::Relaxed) > nd
                },
                |_| true,
            );
        }
        improved.sort_unstable();
        improved.dedup();
        improved
            .into_iter()
            .map(|v| {
                let old = std::mem::replace(&mut self.prev[v as usize], self.dist[v as usize]);
                (v, old)
            })
            .collect()
    }

    /// Handles a deletion batch: falls back to full recomputation (the safe
    /// strategy for non-monotone updates).
    pub fn on_delete<G: Graph + ?Sized>(&mut self, g: &G) -> Vec<(u32, u32)> {
        self.recompute(g)
    }
}

/// Maintains connected components across insertion batches with a union-find
/// forest — O(α) per inserted edge instead of a full label-propagation pass.
///
/// Insertions only merge components (monotone), so union-find is exact;
/// deletions can split components and trigger a rebuild, mirroring
/// [`IncrementalBfs`]'s strategy.
#[derive(Clone, Debug)]
pub struct IncrementalCc {
    parent: Vec<u32>,
}

impl IncrementalCc {
    /// Builds the forest for the current graph.
    pub fn new<G: Graph + ?Sized>(g: &G) -> Self {
        let mut cc = IncrementalCc {
            parent: (0..g.num_vertices() as u32).collect(),
        };
        for v in 0..g.num_vertices() as u32 {
            g.for_each_neighbor(v, &mut |u| cc.union(v, u));
        }
        cc
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving.
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Union by smaller root id keeps labels deterministic.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi as usize] = lo;
        }
    }

    /// Applies an insertion batch (edges may reference ids beyond the
    /// current forest; it grows as needed).
    pub fn on_insert(&mut self, batch: &[Edge]) {
        if let Some(max) = batch.iter().map(|e| e.src.max(e.dst)).max() {
            if max as usize >= self.parent.len() {
                let start = self.parent.len() as u32;
                self.parent.extend(start..=max);
            }
        }
        for e in batch {
            self.union(e.src, e.dst);
        }
    }

    /// Deletions may split components: rebuild from the post-delete graph.
    pub fn on_delete<G: Graph + ?Sized>(&mut self, g: &G) {
        *self = IncrementalCc::new(g);
    }

    /// Component labels in the same canonical form as
    /// [`connected_components`](crate::connected_components): every vertex
    /// labelled with its component's minimum vertex id.
    pub fn labels(&mut self) -> Vec<u32> {
        let n = self.parent.len();
        let mut out = vec![0u32; n];
        for v in 0..n as u32 {
            out[v as usize] = self.find(v);
        }
        // Roots are already component minima because unions keep the
        // smaller id as root and path compression preserves roots.
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_gen::Csr;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn incremental_cc_matches_label_propagation() {
        let mut rng = SmallRng::seed_from_u64(19);
        let n = 400u32;
        let mut edges: Vec<Edge> = Vec::new();
        let mut cc = IncrementalCc::new(&Csr::from_edges(n as usize, &edges));
        for _ in 0..12 {
            let batch: Vec<Edge> = (0..40)
                .flat_map(|_| {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    [Edge::new(a, b), Edge::new(b, a)]
                })
                .collect();
            edges.extend_from_slice(&batch);
            cc.on_insert(&batch);
            let g = Csr::from_edges(n as usize, &edges);
            assert_eq!(cc.labels(), crate::connected_components(&g));
        }
    }

    #[test]
    fn incremental_cc_rebuild_after_delete() {
        // Two components joined by a bridge, then the bridge is removed.
        let full = [
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(1, 2),
            Edge::new(2, 1),
        ];
        let g_full = Csr::from_edges(3, &full);
        let mut cc = IncrementalCc::new(&g_full);
        assert_eq!(cc.labels(), vec![0, 0, 0]);
        let g_cut = Csr::from_edges(3, &full[..2]);
        cc.on_delete(&g_cut);
        assert_eq!(cc.labels(), vec![0, 0, 2]);
    }

    #[test]
    fn incremental_cc_grows_for_new_ids() {
        let mut cc = IncrementalCc::new(&Csr::from_edges(2, &[]));
        cc.on_insert(&[Edge::new(5, 1)]);
        let labels = cc.labels();
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[5], 1);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[4], 4);
    }

    fn sym(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs
            .iter()
            .flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)])
            .collect()
    }

    #[test]
    fn shortcut_edge_improves_distances() {
        // Path 0-1-2-3-4; then add shortcut 0-4.
        let mut edges = sym(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let g = Csr::from_edges(5, &edges);
        let mut inc = IncrementalBfs::new(&g, 0);
        assert_eq!(inc.distances(), &[0, 1, 2, 3, 4]);
        let batch = sym(&[(0, 4)]);
        edges.extend_from_slice(&batch);
        let g2 = Csr::from_edges(5, &edges);
        inc.on_insert(&g2, &batch);
        assert_eq!(inc.distances(), &[0, 1, 2, 2, 1]);
    }

    #[test]
    fn connecting_a_new_component() {
        let mut edges = sym(&[(0, 1), (3, 4)]);
        let g = Csr::from_edges(5, &edges);
        let mut inc = IncrementalBfs::new(&g, 0);
        assert_eq!(inc.distances(), &[0, 1, INF, INF, INF]);
        let batch = sym(&[(1, 3)]);
        edges.extend_from_slice(&batch);
        let g2 = Csr::from_edges(5, &edges);
        inc.on_insert(&g2, &batch);
        assert_eq!(inc.distances(), &[0, 1, INF, 2, 3]);
    }

    #[test]
    fn random_stream_matches_recompute() {
        let mut rng = SmallRng::seed_from_u64(17);
        let n = 300u32;
        let mut edges = sym(&(0..80)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect::<Vec<_>>());
        let g = Csr::from_edges(n as usize, &edges);
        let mut inc = IncrementalBfs::new(&g, 0);
        for _ in 0..10 {
            let batch = sym(&(0..30)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect::<Vec<_>>());
            edges.extend_from_slice(&batch);
            let g = Csr::from_edges(n as usize, &edges);
            inc.on_insert(&g, &batch);
            let fresh = IncrementalBfs::new(&g, 0);
            assert_eq!(inc.distances(), fresh.distances());
        }
    }

    #[test]
    fn deletion_falls_back_to_recompute() {
        let edges = sym(&[(0, 1), (1, 2), (0, 2)]);
        let g = Csr::from_edges(3, &edges);
        let mut inc = IncrementalBfs::new(&g, 0);
        assert_eq!(inc.distances(), &[0, 1, 1]);
        // Remove 0-2: distance of 2 grows to 2.
        let g2 = Csr::from_edges(3, &sym(&[(0, 1), (1, 2)]));
        inc.on_delete(&g2);
        assert_eq!(inc.distances(), &[0, 1, 2]);
    }
}
