//! Synthetic temporal streams (stand-in for the paper's Table 4 datasets).
//!
//! The Table 4 graphs (mathoverflow, askubuntu, superuser, wiki-talk) are
//! interaction streams: edges arrive in time order and attach preferentially
//! to already-active vertices. This generator reproduces that arrival
//! pattern: each new edge picks endpoints either preferentially (an endpoint
//! of a random earlier edge) or uniformly, which yields the heavy-tailed,
//! hot-vertex-concentrated update locality the §6.5 experiment exercises.

use lsgraph_api::Edge;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A Table 4 stand-in stream shape.
#[derive(Clone, Copy, Debug)]
pub struct TemporalProfile {
    /// Paper name ("MO", "AU", "SU", "WT").
    pub name: &'static str,
    /// Vertex count of the real stream.
    pub vertices: usize,
    /// Edge count of the real stream.
    pub edges: usize,
}

/// The four temporal datasets of Table 4.
pub const TEMPORAL_PROFILES: [TemporalProfile; 4] = [
    TemporalProfile {
        name: "MO",
        vertices: 24_818,
        edges: 506_550,
    },
    TemporalProfile {
        name: "AU",
        vertices: 159_316,
        edges: 964_437,
    },
    TemporalProfile {
        name: "SU",
        vertices: 194_085,
        edges: 1_443_339,
    },
    TemporalProfile {
        name: "WT",
        vertices: 1_140_149,
        edges: 7_833_140,
    },
];

/// Generates a preferential-attachment arrival stream of `m` edges over `n`
/// vertices.
///
/// With probability `pref` each endpoint is copied from a uniformly chosen
/// earlier edge (preferential attachment by edge-copying), otherwise drawn
/// uniformly. Edges are returned in arrival order; duplicates occur, as in
/// real interaction streams.
pub fn temporal_stream(n: usize, m: usize, pref: f64, seed: u64) -> Vec<Edge> {
    assert!(n >= 2, "need at least two vertices");
    assert!((0.0..=1.0).contains(&pref));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<Edge> = Vec::with_capacity(m);
    for _ in 0..m {
        let src = if !edges.is_empty() && rng.gen_bool(pref) {
            let e = edges[rng.gen_range(0..edges.len())];
            if rng.gen_bool(0.5) {
                e.src
            } else {
                e.dst
            }
        } else {
            rng.gen_range(0..n as u32)
        };
        let dst = if !edges.is_empty() && rng.gen_bool(pref) {
            let e = edges[rng.gen_range(0..edges.len())];
            if rng.gen_bool(0.5) {
                e.src
            } else {
                e.dst
            }
        } else {
            rng.gen_range(0..n as u32)
        };
        edges.push(Edge::new(src, dst));
    }
    edges
}

impl TemporalProfile {
    /// Generates the stand-in stream at `1/div` of the real size.
    pub fn generate(&self, div: usize, seed: u64) -> Vec<Edge> {
        temporal_stream((self.vertices / div).max(2), self.edges / div, 0.7, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_sized() {
        let a = temporal_stream(100, 5_000, 0.7, 3);
        let b = temporal_stream(100, 5_000, 0.7, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn preferential_attachment_concentrates_activity() {
        let n = 10_000;
        let m = 100_000;
        let hot = temporal_stream(n, m, 0.8, 5);
        let cold = temporal_stream(n, m, 0.0, 5);
        let top_share = |edges: &[Edge]| {
            let mut deg = vec![0u32; n];
            for e in edges {
                deg[e.src as usize] += 1;
            }
            deg.sort_unstable_by(|a, b| b.cmp(a));
            deg[..n / 100].iter().map(|&d| d as u64).sum::<u64>() as f64 / m as f64
        };
        let hot_share = top_share(&hot);
        let cold_share = top_share(&cold);
        assert!(
            hot_share > cold_share * 3.0,
            "top-1% share: pref {hot_share:.3} vs uniform {cold_share:.3}"
        );
    }

    #[test]
    fn profiles_generate_at_a_fraction_of_the_real_size() {
        let [mo, .., wt] = TEMPORAL_PROFILES;
        assert_eq!((mo.name, wt.name, wt.vertices), ("MO", "WT", 1_140_149));
        assert_eq!(mo.generate(10, 1).len(), 50_655);
    }
}
