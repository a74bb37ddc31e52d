//! Shared traits and types for the LSGraph reproduction workspace.
//!
//! Every engine in this workspace — LSGraph itself and the three baselines
//! (Terrace, Aspen, PaC-tree) — implements [`Graph`] for reads and
//! [`DynamicGraph`] for batched streaming updates, so the analytics layer
//! and the benchmark harness are engine-agnostic.

pub mod batch;
pub mod counters;
pub mod edge;
pub mod failpoints;
pub mod footprint;
pub mod histogram;
pub mod metric;
pub mod metrics;
pub mod trace;

pub use counters::{CounterSnapshot, OpCounters, Phase, PhaseTimer, StructSnapshot, StructStats};
pub use edge::{Edge, VertexId};
pub use footprint::{Footprint, MemoryFootprint};
pub use histogram::{
    kernel_scope, HistogramSnapshot, KernelScope, LatencyHistogram, LatencySnapshot, LatencyStats,
};
pub use metric::{Gate, MetricDesc, MetricKind};
pub use metrics::{MetricsRegistry, RegistrySample, Sampler};
pub use trace::{Span, SpanKind};

/// Read-only view of a graph.
///
/// Neighbor iteration must be **sorted by destination id** and free of
/// duplicates — several analytics kernels (notably triangle counting) and the
/// paper's set-computation argument rely on that ordering.
pub trait Graph: Sync {
    /// Number of vertices (ids are `0..num_vertices()`).
    fn num_vertices(&self) -> usize;

    /// Number of directed edges currently stored.
    fn num_edges(&self) -> usize;

    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Applies `f` to every out-neighbor of `v` in ascending id order.
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId));

    /// Applies `f` to every out-neighbor of `v` in ascending id order until
    /// `f` returns `false`.
    ///
    /// Returns `true` if the iteration ran to completion.
    fn for_each_neighbor_while(&self, v: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        let mut complete = true;
        self.for_each_neighbor(v, &mut |u| {
            if complete {
                complete = f(u);
            }
        });
        complete
    }

    /// Appends the sorted out-neighbors of `v` to `out`.
    ///
    /// Used by kernels such as triangle counting that repeatedly intersect
    /// adjacency sets and therefore want flat arrays.
    fn copy_neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        self.for_each_neighbor(v, &mut |u| out.push(u));
    }

    /// Returns whether edge `(v, u)` is present.
    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        !self.for_each_neighbor_while(v, &mut |w| w != u)
    }

    /// Collects the sorted out-neighbors of `v` into a fresh vector.
    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.copy_neighbors_into(v, &mut out);
        out
    }
}

/// Graphs exposing *lazy* neighbor iterators (a non-object-safe extension
/// of [`Graph`]).
///
/// Kernels built on ordered set computations — triangle counting, pattern
/// mining joins — can stream two adjacency lists through a merge without
/// materializing either; this is the access pattern the paper's GPM
/// motivation describes.
pub trait IterableGraph: Graph {
    /// Iterator over a vertex's neighbors in ascending id order.
    type NeighborIter<'a>: Iterator<Item = VertexId> + 'a
    where
        Self: 'a;

    /// Lazily iterates `v`'s sorted neighbors.
    fn neighbor_iter(&self, v: VertexId) -> Self::NeighborIter<'_>;
}

/// A graph that ingests batched streaming updates.
///
/// Batches may contain duplicates and edges already present (for inserts) or
/// absent (for deletes); engines must treat those as no-ops so that update
/// streams generated independently of the current graph state are legal, as
/// in the paper's throughput experiments.
pub trait DynamicGraph: Graph {
    /// Inserts a batch of directed edges.
    ///
    /// Returns the number of edges actually added (i.e. not already present).
    fn insert_batch(&mut self, batch: &[Edge]) -> usize;

    /// Deletes a batch of directed edges.
    ///
    /// Returns the number of edges actually removed.
    fn delete_batch(&mut self, batch: &[Edge]) -> usize;

    /// Inserts each `(u, v)` and its mirror `(v, u)`.
    ///
    /// The paper evaluates symmetrized graphs; engines may override this with
    /// a fused implementation.
    fn insert_batch_undirected(&mut self, batch: &[Edge]) -> usize {
        let mut both = Vec::with_capacity(batch.len() * 2);
        for e in batch {
            both.push(*e);
            both.push(e.reversed());
        }
        self.insert_batch(&both)
    }

    /// Deletes each `(u, v)` and its mirror `(v, u)`.
    fn delete_batch_undirected(&mut self, batch: &[Edge]) -> usize {
        let mut both = Vec::with_capacity(batch.len() * 2);
        for e in batch {
            both.push(*e);
            both.push(e.reversed());
        }
        self.delete_batch(&both)
    }

    /// Snapshot of this engine's coarse search/movement counters, if it is
    /// instrumented with [`OpCounters`]. Baselines (Terrace, Aspen,
    /// PaC-tree, PCSR) override this.
    fn op_counters(&self) -> Option<CounterSnapshot> {
        None
    }

    /// Snapshot of this engine's per-container-class structural counters, if
    /// it is instrumented with [`StructStats`]. LSGraph overrides this.
    fn struct_stats(&self) -> Option<StructSnapshot> {
        None
    }

    /// Snapshot of this engine's latency histograms (per-batch and
    /// per-source-group apply latency), if it records them. LSGraph
    /// overrides this.
    fn latency_stats(&self) -> Option<LatencySnapshot> {
        None
    }

    /// The configured space-amplification bound α, for engines whose layout
    /// reserves gaps up to a factor α (LSGraph's RIA). Benchmarks compare
    /// this against the measured payload amplification.
    fn configured_alpha(&self) -> Option<f64> {
        None
    }

    /// Zeroes whatever instrumentation this engine carries. Benchmarks call
    /// this after the build phase so reported counters cover only the
    /// measured updates.
    fn reset_instrumentation(&mut self) {}

    /// Cheap non-panicking structural self-check, run by the benchmark
    /// harness after every measured cell so a silently-corrupt engine cannot
    /// produce a plausible-looking report. The default is a no-op `Ok`;
    /// LSGraph overrides this with its invariant validator.
    fn validate_structure(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal adjacency-map graph used to exercise the default methods.
    struct Toy {
        adj: Vec<Vec<VertexId>>,
        m: usize,
    }

    impl Toy {
        fn new(n: usize, edges: &[(u32, u32)]) -> Self {
            let mut adj = vec![Vec::new(); n];
            for &(u, v) in edges {
                adj[u as usize].push(v);
            }
            for a in &mut adj {
                a.sort_unstable();
                a.dedup();
            }
            let m = adj.iter().map(Vec::len).sum();
            Toy { adj, m }
        }
    }

    impl Graph for Toy {
        fn num_vertices(&self) -> usize {
            self.adj.len()
        }
        fn num_edges(&self) -> usize {
            self.m
        }
        fn degree(&self, v: VertexId) -> usize {
            self.adj[v as usize].len()
        }
        fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
            for &u in &self.adj[v as usize] {
                f(u);
            }
        }
    }

    #[test]
    fn default_neighbors_returns_sorted() {
        let g = Toy::new(4, &[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(g.neighbors(0), vec![1, 2, 3]);
    }

    #[test]
    fn default_has_edge() {
        let g = Toy::new(4, &[(0, 3), (1, 2)]);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn for_each_neighbor_while_early_exit() {
        let g = Toy::new(4, &[(0, 1), (0, 2), (0, 3)]);
        let mut seen = Vec::new();
        let complete = g.for_each_neighbor_while(0, &mut |u| {
            seen.push(u);
            u < 2
        });
        assert!(!complete);
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn copy_neighbors_appends() {
        let g = Toy::new(3, &[(0, 1), (0, 2)]);
        let mut out = vec![99];
        g.copy_neighbors_into(0, &mut out);
        assert_eq!(out, vec![99, 1, 2]);
    }
}
