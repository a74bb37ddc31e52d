//! Incremental BFS maintenance over a streaming graph.
//!
//! The paper's motivation for abandoning CSR's sequential edge-array scans
//! (§3.1) is that "most recent streaming graph systems employ incremental
//! computation", whose accesses into the adjacency structure arrive in
//! random order. This module is such a consumer: it maintains single-source
//! BFS distances across insertion and deletion batches, re-touching only the
//! affected region instead of recomputing from scratch — and issuing exactly
//! the random per-vertex neighbor probes the RIA/HITree layout is designed
//! to serve.
//!
//! Edge *insertions* only ever shorten distances, so their repair is a
//! monotone relaxation seeded by the endpoints of the new edges. *Deletions*
//! only lengthen them, and only where a cut edge was some vertex's last
//! support: the repair is KickStarter's trimming in Ramalingam–Reps form. The
//! heads of cut tree edges are checked level by level, ascending; one that
//! still has a valid neighbour a level up keeps its distance, one that has
//! none is invalidated and passes the check on to its own tree children.
//! Only the invalidated region is then relaxed again, from its valid
//! boundary. The worst case is one sequential traversal of that region.
//!
//! The delete repair reads a vertex's adjacency as its in-edges, so it holds
//! only on symmetric graphs (every edge with its mirror) — the contract of
//! every kernel in this crate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering};

use lsgraph_api::{Edge, Graph};

use crate::bfs::UNREACHED;
use crate::edge_map::edge_map;
use crate::subset::VertexSubset;

/// Maintains BFS hop distances from a fixed source across updates.
///
/// Every mutating call returns what it changed as `(vertex, old distance)`
/// pairs in ascending vertex order (the new distance is in
/// [`distances`](Self::distances)), so a consumer that mirrors the result
/// pays for the change, not for the graph. A source beyond the vertex table
/// reaches nothing until the table grows to hold it.
#[derive(Debug)]
pub struct IncrementalBfs {
    src: u32,
    /// The distances the relaxations write (atomically in the parallel
    /// ones); equal to `settled` between calls.
    dist: Vec<AtomicU32>,
    /// `dist` as the previous call left it: what
    /// [`distances`](Self::distances) returns and the old side of the next
    /// report.
    settled: Vec<u32>,
}

impl IncrementalBfs {
    /// Runs the initial BFS from `src`.
    pub fn new<G: Graph + ?Sized>(g: &G, src: u32) -> Self {
        let mut me = IncrementalBfs {
            src,
            dist: Vec::new(),
            settled: Vec::new(),
        };
        me.recompute(g);
        me
    }

    /// The maintained source.
    pub fn source(&self) -> u32 {
        self.src
    }

    /// Current distances (hops; [`UNREACHED`] = unreachable).
    pub fn distances(&self) -> &[u32] {
        &self.settled
    }

    /// Grows the table to `n` vertices. Returns the source if the table
    /// just grew to hold it, now at distance 0 with its neighbours still to
    /// relax (a source in the table is at 0 otherwise).
    fn grow(&mut self, n: usize) -> Option<u32> {
        if n > self.dist.len() {
            self.dist.resize_with(n, || AtomicU32::new(UNREACHED));
            self.settled.resize(n, UNREACHED);
        }
        let d = self.dist.get_mut(self.src as usize)?.get_mut();
        (*d == UNREACHED).then(|| {
            *d = 0;
            self.src
        })
    }

    /// Reports each of `touched` (ascending, distinct) whose distance moved
    /// as `(v, old)`, and settles it: the sparse twin of `recompute`'s pass.
    fn settle(&mut self, touched: impl IntoIterator<Item = u32>) -> Vec<(u32, u32)> {
        touched
            .into_iter()
            .filter_map(|v| {
                let new = *self.dist[v as usize].get_mut();
                let old = std::mem::replace(&mut self.settled[v as usize], new);
                (old != new).then_some((v, old))
            })
            .collect()
    }

    /// Full recomputation (used at construction and after lossy batches):
    /// one traversal, then one pass over the old and new distances for the
    /// report.
    pub fn recompute<G: Graph + ?Sized>(&mut self, g: &G) -> Vec<(u32, u32)> {
        let n = g.num_vertices();
        self.dist.clear();
        self.dist.resize_with(n, || AtomicU32::new(UNREACHED));
        self.settled.resize(n, UNREACHED);
        let dist = self.dist.as_slice();
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
                        .compare_exchange(UNREACHED, level, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                },
                |d| dist[d as usize].load(Ordering::Relaxed) == UNREACHED,
            );
        }
        let mut changes = Vec::new();
        for (v, (old, d)) in self.settled.iter_mut().zip(&mut self.dist).enumerate() {
            let new = *d.get_mut();
            if *old != new {
                changes.push((v as u32, std::mem::replace(old, new)));
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
        let mut seeds: Vec<u32> = self.grow(n).into_iter().collect();
        // Seed: endpoints improved directly by a new edge.
        for e in batch {
            let (s, d) = (e.src as usize, e.dst as usize);
            if s >= n || d >= n {
                continue;
            }
            let ds = *self.dist[s].get_mut();
            let dd = self.dist[d].get_mut();
            if ds != UNREACHED && ds + 1 < *dd {
                *dd = ds + 1;
                seeds.push(e.dst);
            }
        }
        seeds.sort_unstable();
        seeds.dedup();
        let dist = self.dist.as_slice();
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
        self.settle(improved)
    }

    /// Repairs distances after `batch` was deleted from `g` (call after the
    /// graph update; `g` must no longer contain the batch), touching only
    /// what the batch cut:
    ///
    /// 1. *Candidates:* the head `v` of every batch edge `(u, v)`, in both
    ///    orientations, with `dist[v] == dist[u] + 1` — a tree edge.
    /// 2. *Invalidate*, level by level, ascending: a candidate at `d` keeps
    ///    its distance if a neighbour that is not invalidated sits at
    ///    `d − 1` (the walk stops at the first); otherwise it is
    ///    invalidated and its neighbours at `d + 1` become candidates.
    /// 3. *Repair:* each invalidated vertex is seeded with one more than the
    ///    least distance among its valid neighbours, and a unit-weight heap
    ///    relaxation from those seeds reaches invalidated vertices only.
    ///
    /// That is one adjacency walk per candidate and at most three per
    /// invalidated vertex: a batch that changes no distance reads at most
    /// 2·|batch| adjacencies, and the worst case is one sequential traversal
    /// of the region the batch disconnected from its old parents.
    ///
    /// The support check in step 2 reads a vertex's adjacency as its
    /// in-edges, so `g` must be symmetric (every edge with its mirror, the
    /// batch included), as for every kernel in this crate; edges the graph
    /// did not hold, duplicates, self-loops and ids beyond the table are
    /// harmless.
    pub fn on_delete<G: Graph + ?Sized>(&mut self, g: &G, batch: &[Edge]) -> Vec<(u32, u32)> {
        let n = g.num_vertices();
        let grown = self.grow(n);
        let dist = self.dist.as_mut_slice();
        let mut levels = BinaryHeap::new();
        for e in batch {
            for (u, v) in [(e.src as usize, e.dst), (e.dst as usize, e.src)] {
                if u >= n || v as usize >= n {
                    continue;
                }
                let du = *dist[u].get_mut();
                if du != UNREACHED && *dist[v as usize].get_mut() == du + 1 {
                    levels.push(Reverse((du + 1, v)));
                }
            }
        }
        let (mut cut, mut last, mut children) = (Vec::new(), None, Vec::new());
        while let Some(Reverse((d, v))) = levels.pop() {
            // Every push of `(d, v)` precedes its first pop, so duplicates
            // pop back to back.
            if last.replace((d, v)) == Some((d, v)) {
                continue;
            }
            // An invalidated vertex is at `UNREACHED`, so it supports nothing.
            let unsupported = g.for_each_neighbor_slice_while(v, &mut |s| {
                s.iter().all(|&u| {
                    let du = *dist[u as usize].get_mut();
                    if du == d + 1 {
                        children.push(u);
                    }
                    du != d - 1
                })
            });
            if unsupported {
                *dist[v as usize].get_mut() = UNREACHED;
                cut.push(v);
                levels.extend(children.iter().map(|&w| Reverse((d + 1, w))));
            }
            children.clear();
        }
        let seeds: Vec<(u32, u32)> = cut
            .iter()
            .map(|&v| {
                let mut best = UNREACHED;
                g.for_each_neighbor_slice_while(v, &mut |s| {
                    for &u in s {
                        best = best.min(*dist[u as usize].get_mut());
                    }
                    true
                });
                (best.saturating_add(1), v)
            })
            .collect();
        let mut relax = BinaryHeap::new();
        for (d, v) in seeds.into_iter().chain(grown.map(|s| (0, s))) {
            if d != UNREACHED {
                *dist[v as usize].get_mut() = d;
                relax.push(Reverse((d, v)));
            }
        }
        let mut touched = cut;
        touched.extend(grown);
        while let Some(Reverse((d, v))) = relax.pop() {
            if d > *dist[v as usize].get_mut() {
                continue;
            }
            g.for_each_neighbor_slice_while(v, &mut |s| {
                for &w in s {
                    let dw = dist[w as usize].get_mut();
                    if d + 1 < *dw {
                        *dw = d + 1;
                        relax.push(Reverse((d + 1, w)));
                        touched.push(w);
                    }
                }
                true
            });
        }
        touched.sort_unstable();
        touched.dedup();
        self.settle(touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgraph_gen::Csr;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

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
        assert_eq!(inc.distances(), &[0, 1, UNREACHED, UNREACHED, UNREACHED]);
        let batch = sym(&[(1, 3)]);
        edges.extend_from_slice(&batch);
        let g2 = Csr::from_edges(5, &edges);
        inc.on_insert(&g2, &batch);
        assert_eq!(inc.distances(), &[0, 1, UNREACHED, 2, 3]);
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

    /// Deletes `cut` from `edges`, repairs, and holds the repair to a fresh
    /// BFS on the result: equal distances, and a report equal to the diff of
    /// before and after, ascending. Returns the report.
    fn cut_and_check(
        inc: &mut IncrementalBfs,
        n: usize,
        edges: &mut Vec<Edge>,
        cut: &[Edge],
    ) -> Vec<(u32, u32)> {
        edges.retain(|e| !cut.contains(e));
        let g = Csr::from_edges(n, edges);
        let before = inc.distances().to_vec();
        let report = inc.on_delete(&g, cut);
        let fresh = IncrementalBfs::new(&g, inc.source());
        assert_eq!(inc.distances(), fresh.distances(), "distances");
        let diff: Vec<(u32, u32)> = (0..n as u32)
            .zip(before.iter().zip(fresh.distances()))
            .filter(|&(_, (old, new))| old != new)
            .map(|(v, (&old, _))| (v, old))
            .collect();
        assert_eq!(report, diff, "report");
        report
    }

    #[test]
    fn deletion_repairs_the_lost_shortcut() {
        let mut edges = sym(&[(0, 1), (1, 2), (0, 2)]);
        let mut inc = IncrementalBfs::new(&Csr::from_edges(3, &edges), 0);
        assert_eq!(inc.distances(), &[0, 1, 1]);
        // Remove 0-2: distance of 2 grows to 2.
        let report = cut_and_check(&mut inc, 3, &mut edges, &sym(&[(0, 2)]));
        assert_eq!(report, vec![(2, 1)]);
        assert_eq!(inc.distances(), &[0, 1, 2]);
    }

    #[test]
    fn random_symmetric_deletes_match_recompute() {
        const N: u32 = 200;
        let pairs = |rng: &mut SmallRng, len| -> Vec<(u32, u32)> {
            (0..len)
                .map(|_| (rng.gen_range(0..N), rng.gen_range(0..N)))
                .collect()
        };
        for seed in [5u64, 41, 97, 211] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut edges = sym(&pairs(&mut rng, 500));
            let mut inc = IncrementalBfs::new(&Csr::from_edges(N as usize, &edges), 0);
            let mut moved = 0;
            for _ in 0..30 {
                // Present edges (a quarter of them twice), then one the
                // graph may not hold, a self-loop and ids at or past the
                // table.
                let len = rng.gen_range(1..40);
                let mut cut: Vec<(u32, u32)> = (0..len)
                    .map(|_| edges[rng.gen_range(0..edges.len())])
                    .map(|e| (e.src, e.dst))
                    .collect();
                cut.extend_from_within(..len / 4);
                cut.extend(pairs(&mut rng, 1));
                cut.extend([(3, 3), (0, N), (N + 7, 1)]);
                moved += cut_and_check(&mut inc, N as usize, &mut edges, &sym(&cut)).len();
                // Regrow so later cuts still find tree edges.
                let grow = sym(&pairs(&mut rng, 20));
                edges.extend_from_slice(&grow);
                inc.on_insert(&Csr::from_edges(N as usize, &edges), &grow);
            }
            assert!(moved > 0, "seed {seed}: some cut moved a distance");
        }
    }

    #[test]
    fn cutting_every_edge_of_the_source_strands_the_rest() {
        let mut edges = sym(&[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let mut inc = IncrementalBfs::new(&Csr::from_edges(5, &edges), 0);
        let report = cut_and_check(&mut inc, 5, &mut edges, &sym(&[(0, 1), (0, 2)]));
        assert_eq!(report, vec![(1, 1), (2, 1), (3, 2), (4, 3)]);
        assert_eq!(
            inc.distances(),
            &[0, UNREACHED, UNREACHED, UNREACHED, UNREACHED]
        );
    }

    #[test]
    fn a_cut_bridge_sends_its_subtree_to_inf() {
        // A triangle on the source, a bridge 2-3, and a subtree under 3.
        let mut edges = sym(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5), (5, 6)]);
        let mut inc = IncrementalBfs::new(&Csr::from_edges(7, &edges), 0);
        let report = cut_and_check(&mut inc, 7, &mut edges, &sym(&[(2, 3)]));
        assert_eq!(report, vec![(3, 2), (4, 3), (5, 3), (6, 4)]);
        assert_eq!(
            inc.distances(),
            &[0, 1, 1, UNREACHED, UNREACHED, UNREACHED, UNREACHED]
        );
    }

    #[test]
    fn a_cut_lengthens_a_chain_by_several_levels() {
        // A ten-cycle: cutting 0-9 turns it into a path, and 9 goes from one
        // hop to nine.
        let ring: Vec<(u32, u32)> = (0..10).map(|v| (v, (v + 1) % 10)).collect();
        let mut edges = sym(&ring);
        let mut inc = IncrementalBfs::new(&Csr::from_edges(10, &edges), 0);
        assert_eq!(inc.distances(), &[0, 1, 2, 3, 4, 5, 4, 3, 2, 1]);
        let report = cut_and_check(&mut inc, 10, &mut edges, &sym(&[(9, 0)]));
        assert_eq!(report, vec![(6, 4), (7, 3), (8, 2), (9, 1)]);
        assert_eq!(inc.distances(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn a_vertex_that_keeps_a_second_parent_keeps_its_distance() {
        // 3 hangs under both 1 and 2; losing 1-3 leaves 2-3 in support.
        let mut edges = sym(&[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let mut inc = IncrementalBfs::new(&Csr::from_edges(5, &edges), 0);
        let report = cut_and_check(&mut inc, 5, &mut edges, &sym(&[(1, 3)]));
        assert!(report.is_empty(), "{report:?}");
        assert_eq!(inc.distances(), &[0, 1, 1, 2, 3]);
    }
}
