//! Shared traits and types for the LSGraph reproduction workspace.
//!
//! Every engine in this workspace — LSGraph itself and the five baselines
//! (Terrace, Aspen, PaC-tree, Sortledton, PCSR) — implements [`Graph`] for
//! reads and [`DynamicGraph`] for batched streaming updates, so the
//! analytics layer and the benchmark harness are engine-agnostic.

pub mod batch;
mod counters;
mod edge;
mod failpoints;
mod footprint;
mod histogram;
mod metric;
mod metrics;
mod set;
mod sink;
mod trace;

pub use counters::{CounterSnapshot, OpCounters, Phase, PhaseTimer, StructSnapshot, StructStats};
pub use edge::{Edge, VertexId};
#[doc(hidden)]
pub use failpoints::failpoint_should_fire;
pub use failpoints::{
    configure_failpoint, failpoint_fired, reset_failpoints, FailMode, FAILPOINT_SITES,
};
pub use footprint::{heap_summary, Footprint, MemoryFootprint};
pub use histogram::{
    kernel_scope, HistogramSnapshot, KernelScope, LatencyHistogram, LatencySnapshot, LatencyStats,
};
pub use metric::{Gate, MetricDesc, MetricKind};
pub use metrics::{
    finish_metrics_stream, heap_allocations, is_metrics_streaming, stream_metrics_to_file,
    write_metrics_header, MetricsRegistry, RegistrySample, Sampler, METRICS_SCHEMA,
};
pub use set::{bulk_or_path_copy, merged_ids, NeighborSet, SetCtx, SetTable};
pub use trace::{
    finish_trace_stream, span, span_named, stream_trace_to_file, Span, SpanKind, StreamGuard,
};

/// Read-only view of a graph.
///
/// Neighbor iteration must be **sorted by destination id** and free of
/// duplicates — several analytics kernels (notably triangle counting) and the
/// paper's set-computation argument rely on that ordering.
///
/// An engine implements one walk, [`Graph::for_each_neighbor_slice_while`];
/// every other neighbor read is an adapter over it.
pub trait Graph: Sync {
    /// Number of vertices (ids are `0..num_vertices()`).
    fn num_vertices(&self) -> usize;

    /// Number of directed edges currently stored.
    fn num_edges(&self) -> usize;

    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Hands the out-neighbors of `v` to `f` as non-empty slices, in the
    /// engine's own storage unit, until `f` returns `false`. Ids ascend
    /// strictly within and across slices.
    ///
    /// Returns `true` if the walk ran to completion.
    fn for_each_neighbor_slice_while(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool;

    /// Applies `f` to every out-neighbor of `v` in ascending id order.
    fn for_each_neighbor(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.for_each_neighbor_slice_while(v, &mut |s| {
            s.iter().for_each(|&u| f(u));
            true
        });
    }

    /// Applies `f` to every out-neighbor of `v` in ascending id order until
    /// `f` returns `false`.
    ///
    /// Returns `true` if the iteration ran to completion.
    fn for_each_neighbor_while(&self, v: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        self.for_each_neighbor_slice_while(v, &mut |s| s.iter().all(|&u| f(u)))
    }

    /// Appends the sorted out-neighbors of `v` to `out`.
    fn copy_neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        self.for_each_neighbor_slice_while(v, &mut |s| {
            out.extend_from_slice(s);
            true
        });
    }

    /// Returns whether edge `(v, u)` is present.
    fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        let mut found = false;
        self.for_each_neighbor_slice_while(v, &mut |s| {
            found = s.binary_search(&u).is_ok();
            !found && s[s.len() - 1] < u
        });
        found
    }

    /// Collects the sorted out-neighbors of `v` into a fresh vector.
    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.copy_neighbors_into(v, &mut out);
        out
    }
}

/// Ids per slice in [`buffered_slices`].
const SLICE_BUF: usize = 64;

/// The slice walk of an engine whose storage unit is not a `&[VertexId]`
/// (packed `u64` edge keys, varint chunks): `walk` feeds ids one at a time,
/// ascending, until its callback returns `false`, and `f` receives them in
/// slices of up to `SLICE_BUF` ids. Returns `true` if the walk ran to
/// completion.
pub fn buffered_slices(
    f: &mut dyn FnMut(&[VertexId]) -> bool,
    walk: impl FnOnce(&mut dyn FnMut(VertexId) -> bool) -> bool,
) -> bool {
    let mut buf = [0; SLICE_BUF];
    let mut len = 0;
    let complete = walk(&mut |u| {
        buf[len] = u;
        len += 1;
        len < SLICE_BUF || {
            len = 0;
            f(&buf)
        }
    });
    complete && (len == 0 || f(&buf[..len]))
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

    /// Verifies every structural invariant of the engine, container
    /// internals included, and records into no counter. It walks the whole
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    fn check_invariants(&self);

    /// [`DynamicGraph::check_invariants`] with a panic reported as `Err`
    /// carrying its message (through [`catch_invariants`]). The benchmark
    /// harness runs it after an engine's measured cells, so a
    /// silently-corrupt engine cannot produce a plausible-looking report,
    /// and the simulator after every step.
    fn validate_structure(&self) -> Result<(), String> {
        catch_invariants(|| self.check_invariants())
    }
}

/// Runs a panicking invariant check and reports a panic as `Err` with its
/// message: the body of [`DynamicGraph::validate_structure`].
pub fn catch_invariants(check: impl FnOnce()) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "invariant check panicked".to_string())
    })
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
        fn for_each_neighbor_slice_while(
            &self,
            v: VertexId,
            f: &mut dyn FnMut(&[VertexId]) -> bool,
        ) -> bool {
            // One slice per id: every id is a slice boundary.
            self.adj[v as usize].chunks(1).all(f)
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

    /// The buffered adapter hands over full slices, then the remainder, and
    /// stops both itself and the walk feeding it once `f` says so.
    #[test]
    fn buffered_slices_fill_flush_and_stop() {
        let feed =
            |n: u32, f: &mut dyn FnMut(&[VertexId]) -> bool| buffered_slices(f, |g| (0..n).all(g));
        for n in [0, 1, 63, 64, 65, 150] {
            let mut lens = Vec::new();
            let mut ids = Vec::new();
            assert!(feed(n, &mut |s| {
                lens.push(s.len());
                ids.extend_from_slice(s);
                true
            }));
            assert!(
                lens.iter().all(|&l| 0 < l && l <= SLICE_BUF),
                "{n}: {lens:?}"
            );
            assert_eq!(ids, (0..n).collect::<Vec<_>>());
        }
        let mut calls = 0;
        assert!(!feed(150, &mut |_| {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1);
    }

    #[test]
    fn copy_neighbors_appends() {
        let g = Toy::new(3, &[(0, 1), (0, 2)]);
        let mut out = vec![99];
        g.copy_neighbors_into(0, &mut out);
        assert_eq!(out, vec![99, 1, 2]);
    }
}
