//! Degree-profile-matched stand-ins for the paper's datasets (Table 1).
//!
//! Each profile records a paper dataset's vertex count and average degree.
//! `generate` produces an R-MAT graph at `scale_shift` fewer doublings than
//! the real dataset with the same average degree, preserving the power-law
//! shape that drives container-tier distribution and cache behaviour.

use lsgraph_api::Edge;

use crate::rmat::{rmat, RmatParams};

/// A paper dataset's shape (Table 1).
#[derive(Clone, Copy, Debug)]
pub struct DatasetProfile {
    /// Short name used in the paper's tables ("LJ", "OR", ...).
    pub name: &'static str,
    /// log2 of the vertex count of the real dataset (rounded up).
    pub log_vertices: u32,
    /// Average degree of the real dataset.
    pub avg_degree: f64,
}

/// The five evaluation graphs of Table 1.
pub const PROFILES: [DatasetProfile; 5] = [
    DatasetProfile {
        name: "LJ",
        log_vertices: 23,
        avg_degree: 17.7,
    },
    DatasetProfile {
        name: "OR",
        log_vertices: 22,
        avg_degree: 76.2,
    },
    DatasetProfile {
        name: "RM",
        log_vertices: 23,
        avg_degree: 130.9,
    },
    DatasetProfile {
        name: "TW",
        log_vertices: 26,
        avg_degree: 39.1,
    },
    DatasetProfile {
        name: "FR",
        log_vertices: 27,
        avg_degree: 28.9,
    },
];

impl DatasetProfile {
    /// Looks a profile up by name (case-insensitive).
    pub fn by_name(name: &str) -> Option<DatasetProfile> {
        PROFILES
            .iter()
            .copied()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Number of vertices at `scale_shift` doublings below the real size.
    pub fn scaled_vertices(&self, scale_shift: u32) -> usize {
        1usize << self.log_vertices.saturating_sub(scale_shift)
    }

    /// Generates the scaled stand-in graph with the paper's R-MAT
    /// parameters and the real average degree.
    pub fn generate(&self, scale_shift: u32, seed: u64) -> Vec<Edge> {
        let scale = self.log_vertices.saturating_sub(scale_shift);
        let m = (self.scaled_vertices(scale_shift) as f64 * self.avg_degree) as usize;
        rmat(scale, m, RmatParams::paper(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup() {
        assert_eq!(DatasetProfile::by_name("lj").unwrap().name, "LJ");
        assert!(DatasetProfile::by_name("nope").is_none());
    }

    #[test]
    fn scaling_preserves_average_degree() {
        let p = DatasetProfile::by_name("OR").unwrap();
        let n = p.scaled_vertices(12);
        let m = p.generate(12, 1).len();
        let avg = m as f64 / n as f64;
        assert!((avg - p.avg_degree).abs() < 1.0);
    }

    #[test]
    fn generate_respects_id_range() {
        let p = DatasetProfile::by_name("LJ").unwrap();
        let edges = p.generate(12, 9);
        let n = p.scaled_vertices(12) as u32;
        assert!(!edges.is_empty());
        for e in &edges {
            assert!(e.src < n && e.dst < n);
        }
    }
}
