//! Edge and vertex-id types shared across the workspace.

/// Vertex identifier.
///
/// 32 bits cover every dataset in the paper's Table 1 except Friendster's
/// 124M vertices, which also fit; we keep ids compact so that a cache line
/// holds 16 of them, matching the paper's block sizing.
pub type VertexId = u32;

/// A directed edge `(src, dst)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
}

impl Edge {
    /// Creates a new directed edge.
    #[inline]
    pub const fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// Returns the mirrored edge `(dst, src)`.
    #[inline]
    pub const fn reversed(self) -> Self {
        Edge {
            src: self.dst,
            dst: self.src,
        }
    }

    /// Packs the edge into a single `u64` key ordered by `(src, dst)`.
    ///
    /// Used by engines (PMA/Terrace) that keep the whole edge set in one
    /// ordered structure.
    #[inline]
    pub const fn key(self) -> u64 {
        ((self.src as u64) << 32) | self.dst as u64
    }
}

impl From<(VertexId, VertexId)> for Edge {
    #[inline]
    fn from((src, dst): (VertexId, VertexId)) -> Self {
        Edge::new(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_packs_src_above_dst() {
        let e = Edge::new(0xDEAD_BEEF, 0x1234_5678);
        assert_eq!(e.key(), 0xDEAD_BEEF_1234_5678);
    }

    #[test]
    fn key_order_matches_lexicographic_order() {
        let a = Edge::new(1, 500);
        let b = Edge::new(2, 0);
        let c = Edge::new(2, 1);
        assert!(a.key() < b.key());
        assert!(b.key() < c.key());
        assert!(a < b && b < c);
    }

    #[test]
    fn reversed_swaps_the_endpoints() {
        assert_eq!(Edge::new(3, 7).reversed(), Edge::new(7, 3));
    }
}
