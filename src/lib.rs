//! LSGraph — a locality-centric high-performance streaming graph engine.
//!
//! Rust reproduction of *LSGraph: A Locality-centric High-performance
//! Streaming Graph Engine* (Qi et al., EuroSys 2024). This facade crate
//! re-exports the whole workspace:
//!
//! * [`LsGraph`] — the paper's engine (vertex blocks + RIA + HITree),
//! * [`analytics`] — Ligra-style BFS / BC / PageRank / CC / TC over any
//!   [`Graph`],
//! * [`gen`] — R-MAT / Kronecker / temporal generators and loaders,
//! * [`queries`] — standing-query subscriptions delivering per-batch
//!   [`ResultDelta`](queries::ResultDelta)s from incremental maintainers,
//! * [`baselines`] — Terrace, Aspen, PaC-tree and Sortledton
//!   re-implementations, with the per-vertex sets of the last three,
//! * [`substrates`] — the containers the baselines build on (PMA, B-tree,
//!   unrolled skip list, Aspen's `DeltaChunk`) and PCSR, the graph of one
//!   PMA.
//!
//! # Quick start
//!
//! ```
//! use lsgraph::{LsGraph, Config, Edge, DynamicGraph, Graph, analytics};
//!
//! // Build a graph, stream a batch, run analytics on the new snapshot.
//! let mut g = LsGraph::with_config(5, Config::default());
//! g.insert_batch_undirected(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
//! let parents = analytics::bfs(&g, 0);
//! assert_eq!(parents[3], 2);
//! g.delete_batch_undirected(&[Edge::new(2, 3)]);
//! assert_eq!(g.degree(3), 0);
//! ```
//!
//! # Standing queries
//!
//! Instead of re-running a kernel after every batch, register the query
//! once and receive an incremental delta per committed batch, delivered
//! off the writer thread:
//!
//! ```
//! use lsgraph::queries::{StandingQuery, SubscriptionHub};
//! use lsgraph::{Config, DynamicGraph, Edge, LsGraph};
//!
//! let mut g = LsGraph::with_config(5, Config::default());
//! let hub = SubscriptionHub::attach(&mut g);
//! let sub = hub.subscribe(&g, StandingQuery::KHop { src: 0, k: 2 });
//! g.insert_batch_undirected(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
//! hub.quiesce();
//! assert_eq!(sub.result().into_keys().collect::<Vec<_>>(), vec![0, 1, 2]);
//! hub.shutdown();
//! ```

pub use lsgraph_api::{
    CounterSnapshot, DynamicGraph, Edge, Footprint, Gate, Graph, MemoryFootprint, MetricDesc,
    MetricKind, NeighborSet, OpCounters, Phase, PhaseTimer, SetTable, StructSnapshot, StructStats,
    VertexId,
};
pub use lsgraph_core::{
    BatchEvent, BatchKind, BatchOutcome, Config, ConfigError, GraphSnapshot, GraphView,
    HighDegreeStore, LiaSearch, LsGraph, MediumStore, PostBatchHook, Ria, SlotOccupancy, Spill,
    Tier, TierStats,
};

/// Analytics kernels (BFS, BC, PR, CC, TC) and the `EdgeMap` framework.
pub mod analytics {
    pub use lsgraph_analytics::*;
}

/// Graph generators and dataset loaders.
pub mod gen {
    pub use lsgraph_gen::*;
}

/// Standing-query subscriptions: registered incremental queries (k-hop,
/// windowed edge/triangle counts, component membership) maintained by
/// [`IncrementalBfs`](analytics::IncrementalBfs) and a sliding batch
/// window, and delivered as per-batch result deltas off the writer thread.
pub mod queries {
    pub use lsgraph_queries::{
        BatchWindow, Maintainer, ResultDelta, StandingQuery, SubscriptionHandle, SubscriptionHub,
        SubscriptionId, SubscriptionRegistry, SubscriptionState,
    };
}

/// Live metrics: unified registry over engine counters/histograms, JSONL
/// time-series sampling, allocator gauges, and Prometheus exposition.
pub mod metrics {
    pub use lsgraph_api::metrics::*;
}

/// The baseline engines the paper compares against (plus Sortledton, which
/// §6.1 measured against PaC-tree when selecting baselines).
pub mod baselines {
    pub use lsgraph_aspen::{AspenGraph, CTreeSet};
    pub use lsgraph_pactree::{PacGraph, PacSet};
    pub use lsgraph_sortledton::{SortledtonGraph, SortledtonSet, VECTOR_THRESHOLD};
    pub use lsgraph_terrace::TerraceGraph;
}

/// Ordered-set substrates used by the engines.
pub mod substrates {
    pub use lsgraph_aspen::DeltaChunk;
    pub use lsgraph_btree::BTreeSet32;
    pub use lsgraph_pma::{Pma, PmaGraph, PmaKey, PmaParams};
    pub use lsgraph_sortledton::UnrolledSkipList;
}
