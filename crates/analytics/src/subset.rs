//! Vertex subsets with sparse/dense dual representation (Ligra).

/// A subset of vertices, stored sparsely (id list) or densely (bitmap).
#[derive(Clone, Debug)]
pub enum VertexSubset {
    /// Explicit vertex ids (unsorted, duplicate-free).
    Sparse(Vec<u32>),
    /// Membership bitmap with a cached population count.
    Dense(Vec<bool>, usize),
}

impl VertexSubset {
    /// A singleton subset.
    pub fn single(v: u32) -> Self {
        VertexSubset::Sparse(vec![v])
    }

    /// An empty subset.
    pub fn empty() -> Self {
        VertexSubset::Sparse(Vec::new())
    }

    /// The full vertex set over `n` vertices.
    pub fn full(n: usize) -> Self {
        VertexSubset::Dense(vec![true; n], n)
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        match self {
            VertexSubset::Sparse(v) => v.len(),
            VertexSubset::Dense(_, c) => *c,
        }
    }

    /// Whether the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Converts to a dense bitmap over `n` vertices.
    pub fn to_dense(&self, n: usize) -> Vec<bool> {
        match self {
            VertexSubset::Sparse(ids) => {
                let mut bits = vec![false; n];
                for &v in ids {
                    bits[v as usize] = true;
                }
                bits
            }
            VertexSubset::Dense(bits, _) => bits.clone(),
        }
    }

    /// Converts to an id list.
    pub fn to_sparse(&self) -> Vec<u32> {
        match self {
            VertexSubset::Sparse(ids) => ids.clone(),
            VertexSubset::Dense(bits, _) => bits
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| b.then_some(i as u32))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(VertexSubset::single(3).len(), 1);
        assert!(VertexSubset::empty().is_empty());
        assert_eq!(VertexSubset::full(5).len(), 5);
    }

    #[test]
    fn conversions_roundtrip() {
        let s = VertexSubset::Sparse(vec![1, 4, 2]);
        let bits = s.to_dense(6);
        assert_eq!(bits, vec![false, true, true, false, true, false]);
        let d = VertexSubset::Dense(bits, 3);
        assert_eq!(d.to_sparse(), vec![1, 2, 4]);
    }
}
