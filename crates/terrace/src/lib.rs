//! Terrace baseline (Pandey et al., SIGMOD'21) re-implemented from its
//! published design, as evaluated against LSGraph in the paper.
//!
//! Terrace is a *hierarchical* container: each vertex keeps its smallest
//! neighbors inline in a cache-line vertex block; medium-degree spill edges
//! live in **one shared PMA** keyed by packed `(src, dst)`; high-degree
//! vertices (spill beyond [`HIGH_THRESHOLD`]) move their spill to a
//! per-vertex **B-tree**.
//!
//! The shared PMA is the behaviour the paper's motivation targets: batch
//! inserts into it shift edges of *other* vertices (Fig. 2), its binary
//! search is cache-unfriendly (Fig. 4), and concurrent writers contend
//! (Fig. 17 — Terrace stops scaling). This implementation applies PMA-tier
//! runs sequentially and B-tree-tier runs in parallel, mirroring that
//! contention profile, and exposes the PMA's instrumentation counters plus a
//! PMA wall-clock share so Fig. 4 can be regenerated.

use std::time::Instant;

use lsgraph_api::batch::{par_apply, SortedBatch};
use lsgraph_api::{
    buffered_slices, CounterSnapshot, DynamicGraph, Edge, Footprint, Graph, MemoryFootprint,
    VertexId,
};
use lsgraph_btree::BTreeSet32;
use lsgraph_pma::{Pma, PmaParams};

/// Inline neighbors per vertex block (one cache line, as in LSGraph).
pub const INLINE_CAP: usize = 13;

/// Spill size beyond which a vertex's edges move from the shared PMA to a
/// per-vertex B-tree (Terrace's published threshold, 2^10).
pub const HIGH_THRESHOLD: usize = 1 << 10;

/// One vertex's cache-line block plus its optional high-degree B-tree.
#[derive(Clone, Debug, Default)]
struct TVertex {
    degree: u32,
    inline: [u32; INLINE_CAP],
    tree: Option<Box<BTreeSet32>>,
}

impl TVertex {
    #[inline]
    fn inline_len(&self) -> usize {
        (self.degree as usize).min(INLINE_CAP)
    }

    #[inline]
    fn inline_neighbors(&self) -> &[u32] {
        &self.inline[..self.inline_len()]
    }

    /// Spill size (edges not held inline).
    #[inline]
    fn spill_len(&self) -> usize {
        (self.degree as usize).saturating_sub(INLINE_CAP)
    }
}

/// The Terrace streaming-graph baseline.
pub struct TerraceGraph {
    vertices: Vec<TVertex>,
    /// Shared medium-degree spill storage: packed `(src, dst)` keys.
    pma: Pma<u64>,
    /// Per-vertex PMA segment offsets (PCSR keeps exactly this vertex →
    /// offset array); rebuilt lazily after updates, read during analytics.
    hints: std::sync::RwLock<Option<Vec<u32>>>,
    num_edges: usize,
    /// Nanoseconds spent inside PMA operations during updates (Fig. 4a).
    pma_nanos: u64,
    /// Nanoseconds spent inside whole update calls.
    update_nanos: u64,
}

impl TerraceGraph {
    /// Drops the offset cache (called by every update path).
    fn invalidate_hints(&mut self) {
        *self.hints.get_mut().expect("hints lock poisoned") = None;
    }

    /// The PMA segment at or before the one containing vertex `v`'s range,
    /// from the cached offset array (built on first use).
    fn hint_for(&self, v: u32) -> usize {
        if let Some(h) = self.hints.read().expect("hints lock poisoned").as_ref() {
            return h[v as usize] as usize;
        }
        let built = self.build_hints();
        let hint = built[v as usize] as usize;
        *self.hints.write().expect("hints lock poisoned") = Some(built);
        hint
    }

    /// Computes the vertex → segment offset array in one sweep.
    fn build_hints(&self) -> Vec<u32> {
        let firsts: Vec<(usize, u64)> = (0..self.pma.num_segments())
            .filter_map(|s| self.pma.segment_first(s).map(|k| (s, k)))
            .collect();
        let mut hints = vec![0u32; self.vertices.len()];
        if firsts.is_empty() {
            return hints;
        }
        let mut j = 0;
        for (v, h) in hints.iter_mut().enumerate() {
            let key = (v as u64) << 32;
            while j + 1 < firsts.len() && firsts[j + 1].1 <= key {
                j += 1;
            }
            // Starting a scan before the containing segment is always safe.
            *h = firsts[j].0 as u32;
        }
        hints
    }

    /// Bulk-loads from an edge list.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let batch = SortedBatch::new(edges);
        let mut vertices = vec![TVertex::default(); n.max(batch.id_bound())];
        let mut pma_keys: Vec<u64> = Vec::new();
        for run in batch.runs() {
            let tv = &mut vertices[run.src as usize];
            let (inline, spill) = run.dsts.split_at(run.dsts.len().min(INLINE_CAP));
            tv.degree = run.dsts.len() as u32;
            tv.inline[..inline.len()].copy_from_slice(inline);
            if spill.len() > HIGH_THRESHOLD {
                tv.tree = Some(Box::new(BTreeSet32::from_sorted(spill)));
            } else {
                pma_keys.extend(spill.iter().map(|&u| Edge::new(run.src, u).key()));
            }
        }
        TerraceGraph {
            vertices,
            pma: Pma::from_sorted(&pma_keys, PmaParams::default()),
            hints: std::sync::RwLock::new(None),
            num_edges: batch.len(),
            pma_nanos: 0,
            update_nanos: 0,
        }
    }

    /// PMA instrumentation counters (Fig. 4b: search vs movement).
    pub fn pma_counters(&self) -> CounterSnapshot {
        self.pma.counters.snapshot()
    }

    /// Fraction of update wall-clock spent inside the PMA (Fig. 4a).
    pub fn pma_time_share(&self) -> f64 {
        if self.update_nanos == 0 {
            0.0
        } else {
            self.pma_nanos as f64 / self.update_nanos as f64
        }
    }

    /// Resets the Fig. 4 instrumentation.
    pub fn reset_instrumentation(&mut self) {
        self.pma_nanos = 0;
        self.update_nanos = 0;
        self.pma.counters.reset();
    }

    /// Inserts one spill edge for `v`, migrating PMA → B-tree when the spill
    /// crosses the high-degree threshold. Returns whether it was added.
    fn spill_insert(&mut self, v: u32, w: u32) -> bool {
        let tv = &mut self.vertices[v as usize];
        if let Some(tree) = tv.tree.as_mut() {
            return tree.insert(w);
        }
        if tv.spill_len() + 1 > HIGH_THRESHOLD {
            // Migrate this vertex's spill out of the shared PMA.
            let t0 = Instant::now();
            let from = (v as u64) << 32;
            let to = (v as u64 + 1) << 32;
            let mut spill: Vec<u32> = Vec::with_capacity(tv.spill_len());
            self.pma.for_each_range_while(from, to, |k| {
                spill.push(k as u32);
                true
            });
            for &s in &spill {
                self.pma.delete(((v as u64) << 32) | s as u64);
            }
            self.pma_nanos += t0.elapsed().as_nanos() as u64;
            let mut tree = BTreeSet32::from_sorted(&spill);
            let added = tree.insert(w);
            self.vertices[v as usize].tree = Some(Box::new(tree));
            added
        } else {
            let t0 = Instant::now();
            let added = self.pma.insert(Edge::new(v, w).key());
            self.pma_nanos += t0.elapsed().as_nanos() as u64;
            added
        }
    }

    /// Inserts edge `(v, u)` sequentially; returns whether it was added.
    fn insert_edge(&mut self, v: u32, u: u32) -> bool {
        let tv = &mut self.vertices[v as usize];
        let n = tv.inline_len();
        if n < INLINE_CAP {
            match tv.inline[..n].binary_search(&u) {
                Ok(_) => return false,
                Err(i) => {
                    tv.inline.copy_within(i..n, i + 1);
                    tv.inline[i] = u;
                    tv.degree += 1;
                    return true;
                }
            }
        }
        match tv.inline.binary_search(&u) {
            Ok(_) => false,
            Err(i) if i < INLINE_CAP => {
                let evicted = tv.inline[INLINE_CAP - 1];
                tv.inline.copy_within(i..INLINE_CAP - 1, i + 1);
                tv.inline[i] = u;
                let added = self.spill_insert(v, evicted);
                debug_assert!(added);
                self.vertices[v as usize].degree += 1;
                true
            }
            Err(_) => {
                if self.spill_insert(v, u) {
                    self.vertices[v as usize].degree += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes and returns the smallest spill neighbor of `v`.
    fn spill_pop_min(&mut self, v: u32) -> Option<u32> {
        let tv = &mut self.vertices[v as usize];
        if let Some(tree) = tv.tree.as_mut() {
            let m = tree.pop_min();
            if tree.is_empty() {
                tv.tree = None;
            }
            return m;
        }
        let t0 = Instant::now();
        let from = (v as u64) << 32;
        let to = (v as u64 + 1) << 32;
        let mut min = None;
        self.pma.for_each_range_while(from, to, |k| {
            min = Some(k as u32);
            false
        });
        if let Some(m) = min {
            self.pma.delete(((v as u64) << 32) | m as u64);
        }
        self.pma_nanos += t0.elapsed().as_nanos() as u64;
        min
    }

    /// Deletes edge `(v, u)` sequentially; returns whether it was present.
    fn delete_edge(&mut self, v: u32, u: u32) -> bool {
        let tv = &mut self.vertices[v as usize];
        let n = tv.inline_len();
        match tv.inline[..n].binary_search(&u) {
            Ok(i) => {
                tv.inline.copy_within(i + 1..n, i);
                if tv.degree as usize > INLINE_CAP {
                    let min = self.spill_pop_min(v).expect("spill tracked by degree");
                    self.vertices[v as usize].inline[INLINE_CAP - 1] = min;
                }
                self.vertices[v as usize].degree -= 1;
                true
            }
            Err(_) => {
                let removed = if let Some(tree) = tv.tree.as_mut() {
                    let r = tree.delete(u);
                    if tree.is_empty() {
                        tv.tree = None;
                    }
                    r
                } else {
                    let t0 = Instant::now();
                    let r = self.pma.delete(Edge::new(v, u).key());
                    self.pma_nanos += t0.elapsed().as_nanos() as u64;
                    r
                };
                if removed {
                    self.vertices[v as usize].degree -= 1;
                    self.maybe_demote(v);
                }
                removed
            }
        }
    }

    /// Moves a shrunken high-degree vertex's spill back into the PMA
    /// (hysteresis at half the threshold).
    fn maybe_demote(&mut self, v: u32) {
        let tv = &self.vertices[v as usize];
        if tv.tree.is_some() && tv.spill_len() * 2 < HIGH_THRESHOLD {
            let tree = self.vertices[v as usize]
                .tree
                .take()
                .expect("checked above");
            let t0 = Instant::now();
            tree.for_each_slice_while(&mut |ws| {
                for &w in ws {
                    self.pma.insert(((v as u64) << 32) | w as u64);
                }
                true
            });
            self.pma_nanos += t0.elapsed().as_nanos() as u64;
        }
    }
}

impl Graph for TerraceGraph {
    fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn degree(&self, v: VertexId) -> usize {
        self.vertices[v as usize].degree as usize
    }

    fn for_each_neighbor_slice_while(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        let tv = &self.vertices[v as usize];
        let inline = tv.inline_neighbors();
        if !inline.is_empty() && !f(inline) {
            return false;
        }
        if let Some(tree) = &tv.tree {
            tree.for_each_slice_while(f)
        } else if tv.spill_len() > 0 {
            let (from, to) = ((v as u64) << 32, (v as u64 + 1) << 32);
            buffered_slices(f, |g| {
                self.pma
                    .for_each_range_hinted_while(self.hint_for(v), from, to, |k| g(k as u32))
            })
        } else {
            true
        }
    }
}

impl DynamicGraph for TerraceGraph {
    fn insert_batch(&mut self, batch: &[Edge]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let t0 = Instant::now();
        let batch = SortedBatch::new(batch);
        let n = self.vertices.len().max(batch.id_bound());
        self.vertices.resize(n, TVertex::default());
        // B-tree-tier vertices update in parallel; everything that might
        // touch the shared PMA is applied sequentially (Terrace's
        // contention profile). Inserts never shrink a spill, so a vertex is
        // in the same tier in both passes.
        let high = |tv: &TVertex| tv.spill_len() > HIGH_THRESHOLD;
        let mut high_runs = batch.clone();
        high_runs.retain_sources(|src| high(&self.vertices[src as usize]));
        let tasks = par_apply::<_, _, 1>(
            &mut self.vertices,
            &high_runs,
            || 0,
            |n, tv, runs| {
                let tree = tv.tree.as_mut().expect("high tier has a tree");
                for &u in high_runs.run(runs.start).dsts {
                    let added = match tv.inline.binary_search(&u) {
                        Ok(_) => false,
                        Err(i) if i < INLINE_CAP => {
                            let evicted = tv.inline[INLINE_CAP - 1];
                            tv.inline.copy_within(i..INLINE_CAP - 1, i + 1);
                            tv.inline[i] = u;
                            tree.insert(evicted)
                        }
                        Err(_) => tree.insert(u),
                    };
                    if added {
                        tv.degree += 1;
                        *n += 1;
                    }
                }
            },
        );
        let mut added: usize = tasks.into_iter().sum();
        for run in batch.runs() {
            if high(&self.vertices[run.src as usize]) {
                continue;
            }
            added += run
                .dsts
                .iter()
                .filter(|&&u| self.insert_edge(run.src, u))
                .count();
        }
        self.num_edges += added;
        self.invalidate_hints();
        self.update_nanos += t0.elapsed().as_nanos() as u64;
        added
    }

    fn delete_batch(&mut self, batch: &[Edge]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let t0 = Instant::now();
        let mut batch = SortedBatch::new(batch);
        let n = self.vertices.len();
        batch.retain_sources(|src| (src as usize) < n);
        let mut removed = 0;
        for run in batch.runs() {
            removed += run
                .dsts
                .iter()
                .filter(|&&u| self.delete_edge(run.src, u))
                .count();
        }
        self.num_edges -= removed;
        self.invalidate_hints();
        self.update_nanos += t0.elapsed().as_nanos() as u64;
        removed
    }

    fn op_counters(&self) -> Option<CounterSnapshot> {
        Some(self.pma_counters())
    }

    fn reset_instrumentation(&mut self) {
        TerraceGraph::reset_instrumentation(self);
    }

    /// Per-vertex and PMA invariants.
    fn check_invariants(&self) {
        self.pma.check_invariants();
        // Tallied by one walk, not per-vertex range counts: a range count
        // searches, and a search records into the PMA's counters.
        let mut in_pma = vec![0; self.vertices.len()];
        self.pma.for_each_segment_while(|seg| {
            seg.iter().for_each(|&k| in_pma[(k >> 32) as usize] += 1);
            true
        });
        let mut total = 0;
        for (v, tv) in self.vertices.iter().enumerate() {
            let inl = tv.inline_neighbors();
            assert!(
                inl.windows(2).all(|w| w[0] < w[1]),
                "inline unsorted at {v}"
            );
            let tree_len = tv.tree.as_ref().map_or(0, |t| t.len());
            let pma_len = if tv.tree.is_none() && tv.degree as usize > INLINE_CAP {
                in_pma[v]
            } else {
                0
            };
            assert_eq!(
                tv.degree as usize,
                inl.len() + tree_len + pma_len,
                "degree accounting at {v}"
            );
            if let Some(t) = &tv.tree {
                t.check_invariants();
                assert!(!t.is_empty());
            }
            total += tv.degree as usize;
        }
        assert_eq!(total, self.num_edges);
    }
}

impl MemoryFootprint for TerraceGraph {
    fn footprint(&self) -> Footprint {
        let mut fp = Footprint::new(self.vertices.len() * core::mem::size_of::<TVertex>(), 0);
        fp += self.pma.footprint();
        for tv in &self.vertices {
            if let Some(t) = &tv.tree {
                fp += t.footprint();
            }
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(a, b)| Edge::new(a, b)).collect()
    }

    #[test]
    fn basic_insert_read() {
        let mut g = TerraceGraph::from_edges(4, &[]);
        assert_eq!(g.insert_batch(&edges(&[(0, 2), (0, 1), (1, 3)])), 3);
        assert_eq!(g.neighbors(0), vec![1, 2]);
        assert_eq!(g.degree(1), 1);
        g.check_invariants();
    }

    #[test]
    fn medium_tier_uses_pma() {
        let mut g = TerraceGraph::from_edges(2, &[]);
        let batch: Vec<Edge> = (0..100u32).map(|i| Edge::new(0, i)).collect();
        g.insert_batch(&batch);
        assert_eq!(g.degree(0), 100);
        assert_eq!(g.neighbors(0), (0..100).collect::<Vec<_>>());
        assert!(!g.pma.is_empty(), "spill should be in the PMA");
        g.check_invariants();
    }

    #[test]
    fn high_tier_migrates_to_btree() {
        let mut g = TerraceGraph::from_edges(2, &[]);
        let batch: Vec<Edge> = (0..3_000u32).map(|i| Edge::new(0, i)).collect();
        g.insert_batch(&batch);
        assert!(g.vertices[0].tree.is_some(), "should have migrated");
        assert_eq!(g.degree(0), 3_000);
        assert_eq!(g.neighbors(0).len(), 3_000);
        g.check_invariants();
        // Spill for this vertex must be gone from the PMA.
        assert_eq!(g.pma.count_range(0, 1 << 32), 0);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let mut rng = SmallRng::seed_from_u64(21);
        let es: Vec<Edge> = (0..30_000)
            .map(|_| Edge::new(rng.gen_range(0..40), rng.gen_range(0..5_000)))
            .collect();
        let bulk = TerraceGraph::from_edges(5_000, &es);
        let mut inc = TerraceGraph::from_edges(5_000, &[]);
        for chunk in es.chunks(1_111) {
            inc.insert_batch(chunk);
        }
        assert_eq!(bulk.num_edges(), inc.num_edges());
        for v in 0..40u32 {
            assert_eq!(bulk.neighbors(v), inc.neighbors(v), "vertex {v}");
        }
        bulk.check_invariants();
        inc.check_invariants();
    }

    #[test]
    fn insert_then_delete_restores() {
        let mut rng = SmallRng::seed_from_u64(2);
        let base: Vec<Edge> = (0..8_000)
            .map(|_| Edge::new(rng.gen_range(0..20), rng.gen_range(0..2_000)))
            .collect();
        let mut g = TerraceGraph::from_edges(2_000, &base);
        let before: Vec<Vec<u32>> = (0..20).map(|v| g.neighbors(v)).collect();
        let batch: Vec<Edge> = (0..4_000)
            .map(|_| Edge::new(rng.gen_range(0..20), rng.gen_range(2_000..9_000)))
            .collect();
        let a = g.insert_batch(&batch);
        let r = g.delete_batch(&batch);
        assert_eq!(a, r);
        for v in 0..20u32 {
            assert_eq!(g.neighbors(v), before[v as usize], "vertex {v}");
        }
        g.check_invariants();
    }

    #[test]
    fn delete_from_every_tier() {
        let mut g = TerraceGraph::from_edges(1, &[]);
        let batch: Vec<Edge> = (0..2_500u32).map(|i| Edge::new(0, i)).collect();
        g.insert_batch(&batch);
        // Delete inline, PMA-era, and btree-era neighbors.
        assert_eq!(
            g.delete_batch(&edges(&[(0, 0), (0, 500), (0, 2_400), (0, 9_999)])),
            3
        );
        assert_eq!(g.degree(0), 2_497);
        assert!(!g.has_edge(0, 500));
        assert!(g.has_edge(0, 501));
        g.check_invariants();
    }

    #[test]
    fn demotion_after_heavy_deletes() {
        let mut g = TerraceGraph::from_edges(1, &[]);
        let batch: Vec<Edge> = (0..3_000u32).map(|i| Edge::new(0, i)).collect();
        g.insert_batch(&batch);
        assert!(g.vertices[0].tree.is_some());
        // Demotion hysteresis: spill must fall below HIGH_THRESHOLD / 2
        // (spill = degree - inline, so degree < 512 + 13 + 1).
        let del: Vec<Edge> = (520..3_000u32).map(|i| Edge::new(0, i)).collect();
        g.delete_batch(&del);
        assert!(g.vertices[0].tree.is_none(), "should demote to PMA tier");
        assert_eq!(g.degree(0), 520);
        g.check_invariants();
    }

    #[test]
    fn instrumentation_reports_pma_share() {
        let mut g = TerraceGraph::from_edges(10, &[]);
        let batch: Vec<Edge> = (0..500u32).map(|i| Edge::new(i % 10, i)).collect();
        g.insert_batch(&batch);
        let share = g.pma_time_share();
        assert!((0.0..=1.0).contains(&share));
        assert!(g.pma_counters().search_steps > 0);
    }

    /// The harness's self-check runs the invariant check without moving a
    /// counter, and reports a corrupted table as `Err`.
    #[test]
    fn validation_records_nothing_and_catches_a_miscount() {
        // Vertex 0 in the B-tree tier, vertex 1 in the PMA tier.
        let mut batch: Vec<Edge> = (0..2_000u32).map(|i| Edge::new(0, i)).collect();
        batch.extend((0..100u32).map(|i| Edge::new(1, i)));
        let mut g = TerraceGraph::from_edges(2, &[]);
        g.insert_batch(&batch);
        let counted = g.op_counters();
        assert_eq!(g.validate_structure(), Ok(()));
        assert_eq!(g.op_counters(), counted);
        g.num_edges -= 1;
        assert!(g.validate_structure().is_err());
    }
}
