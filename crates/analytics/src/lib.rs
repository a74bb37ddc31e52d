//! Ligra-style graph analytics over any [`lsgraph_api::Graph`].
//!
//! LSGraph exposes analytics through an `EdgeMap` primitive (paper §5,
//! "Interface", following Ligra); the kernels here are the five the paper
//! evaluates: BFS, single-source betweenness centrality (BC), PageRank (PR),
//! connected components (CC), and triangle counting (TC).
//!
//! All kernels treat the graph as **symmetric** (the paper evaluates
//! symmetrized datasets): pull-style phases read a vertex's out-neighbors as
//! its in-neighbor list, which coincides with out-neighbors exactly when every
//! edge has its mirror.

mod bc;
mod bfs;
mod cc;
mod edge_map;
mod incremental;
mod pagerank;
mod subset;
mod tc;

pub use bc::betweenness;
pub use bfs::{bfs, distances_from_parents, UNREACHED};
pub use cc::connected_components;
pub use edge_map::edge_map;
pub use incremental::IncrementalBfs;
pub use pagerank::pagerank;
pub use subset::VertexSubset;
pub use tc::{triangle_count, TcResult};
