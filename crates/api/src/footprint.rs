//! Memory-footprint accounting (paper Table 3).
//!
//! Rather than sampling RSS — noisy and allocator-dependent — every data
//! structure in the workspace reports the bytes it has allocated, split into
//! payload and index/metadata so the paper's index-overhead ratio (`I/L` in
//! Table 3) can be reproduced exactly.

/// Byte accounting for one data structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes holding edge payload (including reserved gaps in gapped arrays).
    pub payload_bytes: usize,
    /// Bytes holding indexes: RIA index arrays, learned-model parameters,
    /// tree internal nodes, offset arrays.
    pub index_bytes: usize,
}

impl Footprint {
    /// Creates a footprint from payload and index byte counts.
    pub const fn new(payload_bytes: usize, index_bytes: usize) -> Self {
        Footprint {
            payload_bytes,
            index_bytes,
        }
    }

    /// Total bytes.
    pub const fn total(self) -> usize {
        self.payload_bytes + self.index_bytes
    }

    /// Fraction of the total taken by indexes (0.0 when empty).
    pub fn index_ratio(self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.index_bytes as f64 / self.total() as f64
        }
    }

    /// Component-wise sum.
    pub const fn add(self, other: Footprint) -> Footprint {
        Footprint {
            payload_bytes: self.payload_bytes + other.payload_bytes,
            index_bytes: self.index_bytes + other.index_bytes,
        }
    }
}

impl core::ops::Add for Footprint {
    type Output = Footprint;
    fn add(self, rhs: Footprint) -> Footprint {
        Footprint::add(self, rhs)
    }
}

impl core::ops::AddAssign for Footprint {
    fn add_assign(&mut self, rhs: Footprint) {
        *self = self.add(rhs);
    }
}

impl core::iter::Sum for Footprint {
    fn sum<I: Iterator<Item = Footprint>>(iter: I) -> Footprint {
        iter.fold(Footprint::default(), Footprint::add)
    }
}

/// Structures that can report their allocated bytes.
pub trait MemoryFootprint {
    /// Reports allocated bytes, split into payload and index/metadata.
    fn footprint(&self) -> Footprint;
}

/// Human-readable `live/peak MB` summary of the process heap gauges
/// ([`crate::metrics::heap_gauges`]), or
/// `"N/A (build with --features count-alloc)"` when the counting allocator
/// is compiled out. Table 3 prints this alongside the payload/index splits.
pub fn heap_summary() -> String {
    match crate::metrics::heap_gauges() {
        Some((live, peak)) => format!(
            "{:.1} MB live / {:.1} MB peak",
            live as f64 / (1024.0 * 1024.0),
            peak as f64 / (1024.0 * 1024.0)
        ),
        None => "N/A (build with --features count-alloc)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_empty_is_zero() {
        assert_eq!(Footprint::default().index_ratio(), 0.0);
    }

    #[test]
    fn add_and_sum() {
        let a = Footprint::new(100, 10);
        let b = Footprint::new(50, 40);
        assert_eq!((a + b).total(), 200);
        let s: Footprint = [a, b].into_iter().sum();
        assert_eq!(s, Footprint::new(150, 50));
    }

    #[test]
    fn index_ratio() {
        let f = Footprint::new(90, 10);
        assert!((f.index_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn heap_summary_matches_feature_state() {
        let s = heap_summary();
        match crate::metrics::heap_gauges() {
            Some(_) => assert!(s.contains("MB live"), "got: {s}"),
            None => assert!(s.starts_with("N/A"), "got: {s}"),
        }
    }
}
