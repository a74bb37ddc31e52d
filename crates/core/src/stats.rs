//! Engine introspection: how the degree-tiered hierarchy is populated.
//!
//! The paper's design rests on power-law degree distributions putting almost
//! every vertex in the cheap tiers (Fig. 9); these statistics make that
//! distribution observable, back the EXPERIMENTS.md narrative, and let tests
//! assert that tier transitions actually happen on skewed inputs.

use crate::adjacency::Spill;
use crate::hitree::SlotOccupancy;
use crate::vertex::VertexBlock;
use crate::view::GraphView;

/// Which container currently stores a vertex's spill.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// All neighbors fit in the inline cache line.
    Inline,
    /// Sorted-array spill.
    Array,
    /// RIA spill.
    Ria,
    /// Per-vertex PMA spill (ablation configuration).
    Pma,
    /// HITree spill.
    HiTree,
    /// A gap-encoded frozen spill, which earlier builds could write. Never
    /// reported by a live graph; accepted from old images (tag 5) and
    /// restored onto the writable ladder.
    Compressed,
}

impl Tier {
    /// The one-byte tag this tier is recorded as in checkpoint images.
    pub fn tag(self) -> u8 {
        match self {
            Tier::Inline => 0,
            Tier::Array => 1,
            Tier::Ria => 2,
            Tier::Pma => 3,
            Tier::HiTree => 4,
            Tier::Compressed => 5,
        }
    }

    /// Inverse of [`Tier::tag`]; `None` for an unknown byte.
    pub fn from_tag(tag: u8) -> Option<Tier> {
        Some(match tag {
            0 => Tier::Inline,
            1 => Tier::Array,
            2 => Tier::Ria,
            3 => Tier::Pma,
            4 => Tier::HiTree,
            5 => Tier::Compressed,
            _ => return None,
        })
    }
}

/// Per-tier vertex and edge counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Vertices whose neighbors are entirely inline.
    pub inline_vertices: usize,
    /// Vertices spilling into an array.
    pub array_vertices: usize,
    /// Vertices spilling into a RIA.
    pub ria_vertices: usize,
    /// Vertices spilling into a per-vertex PMA.
    pub pma_vertices: usize,
    /// Vertices spilling into a HITree.
    pub hitree_vertices: usize,
    /// Edges stored inline (including the inline prefix of spilled
    /// vertices).
    pub inline_edges: usize,
    /// Edges stored in spill containers.
    pub spill_edges: usize,
}

impl TierStats {
    /// Total vertices counted.
    pub fn total_vertices(&self) -> usize {
        self.inline_vertices
            + self.array_vertices
            + self.ria_vertices
            + self.pma_vertices
            + self.hitree_vertices
    }
}

impl GraphView {
    /// The tier of vertex `v`, read off the container its block points at.
    pub fn tier(&self, v: u32) -> Tier {
        self.table.set(v).spill().map_or(Tier::Inline, Spill::tier)
    }

    /// LIA slot occupancy aggregated over every HITree spill in the graph
    /// (the paper's §3.2 U/E/B/C slot types).
    pub fn lia_slot_occupancy(&self) -> SlotOccupancy {
        let mut occ = SlotOccupancy::default();
        for spill in self.table.sets().filter_map(VertexBlock::spill) {
            spill.add_slot_occupancy(&mut occ);
        }
        occ
    }

    /// Tier population statistics across the whole graph.
    pub fn tier_stats(&self) -> TierStats {
        let mut s = TierStats::default();
        for vb in self.table.sets() {
            let spill = vb.spill().map_or(0, Spill::len);
            s.inline_edges += vb.degree() - spill;
            s.spill_edges += spill;
            match vb.spill().map_or(Tier::Inline, Spill::tier) {
                Tier::Inline => s.inline_vertices += 1,
                Tier::Array => s.array_vertices += 1,
                Tier::Ria => s.ria_vertices += 1,
                Tier::Pma => s.pma_vertices += 1,
                Tier::HiTree => s.hitree_vertices += 1,
                Tier::Compressed => unreachable!("a live graph never reports the frozen tier"),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, INLINE_CAP};
    use crate::graph::LsGraph;
    use lsgraph_api::{DynamicGraph, Edge, Graph};

    #[test]
    fn tiers_reflect_degrees() {
        let cfg = Config {
            m: 256,
            ..Config::default()
        };
        let mut g = LsGraph::with_config(4, cfg);
        let mk = |v: u32, d: u32| (0..d).map(move |i| Edge::new(v, i + 1)).collect::<Vec<_>>();
        g.insert_batch(&mk(0, 5)); // inline
        g.insert_batch(&mk(1, 30)); // array
        g.insert_batch(&mk(2, 200)); // ria
        g.insert_batch(&mk(3, 2_000)); // hitree
        assert_eq!(g.tier(0), Tier::Inline);
        assert_eq!(g.tier(1), Tier::Array);
        assert_eq!(g.tier(2), Tier::Ria);
        assert_eq!(g.tier(3), Tier::HiTree);
        let s = g.tier_stats();
        // The table grew to cover the largest destination id (2000).
        assert_eq!(s.total_vertices(), 2_001);
        assert_eq!(s.inline_edges + s.spill_edges, g.num_edges());
        assert_eq!(s.hitree_vertices, 1);
        assert_eq!(s.ria_vertices, 1);
    }

    #[test]
    fn power_law_keeps_most_vertices_inline() {
        use lsgraph_api::Edge;
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // R-MAT-style skew: repeatedly halve the id range with bias, giving
        // a heavy head and a long tail of low-degree vertices.
        let mut rng = SmallRng::seed_from_u64(12);
        let scale = 12u32;
        let n = 1u32 << scale;
        let mut batch = Vec::new();
        for _ in 0..40_000 {
            let mut pick = || {
                let mut x = 0u32;
                for _ in 0..scale {
                    x = (x << 1) | u32::from(rng.gen_bool(0.25));
                }
                x
            };
            batch.push(Edge::new(pick(), pick()));
        }
        let cfg = Config {
            m: 256,
            ..Config::default()
        }; // reachable HITree tier
        let g = LsGraph::from_edges(n as usize, &batch, cfg);
        let s = g.tier_stats();
        assert!(
            s.inline_vertices * 2 > s.total_vertices(),
            "power law should keep most vertices inline: {s:?}"
        );
        assert!(
            s.hitree_vertices >= 1,
            "head vertices should reach HITree: {s:?}"
        );
        assert_eq!(s.inline_edges + s.spill_edges, g.num_edges());
        // Inline capacity bound: inline edges per vertex <= INLINE_CAP.
        assert!(s.inline_edges <= s.total_vertices() * INLINE_CAP);
    }
}
