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

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod edge_map;
pub mod gpm;
pub mod incremental;
pub mod kcore;
pub mod pagerank;
pub mod subset;
pub mod tc;

pub use bc::betweenness;
pub use bfs::bfs;
pub use cc::connected_components;
pub use edge_map::edge_map;
pub use gpm::{
    average_clustering, clustering_coefficients, count_4cliques, count_4cycles, local_triangles,
};
pub use incremental::{IncrementalBfs, IncrementalCc};
pub use kcore::{degeneracy, kcore};
pub use pagerank::pagerank;
pub use subset::VertexSubset;
pub use tc::{triangle_count, TcResult};
