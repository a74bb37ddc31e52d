//! LSGraph — a locality-centric high-performance streaming graph engine.
//!
//! Rust reproduction of *LSGraph* (Qi et al., EuroSys 2024). The engine
//! stores each vertex's adjacency in a degree-tiered, hierarchically indexed
//! representation:
//!
//! * one cache-line [`vertex block`](VertexBlock) per vertex with inline
//!   neighbors,
//! * one container, [`Spill`], behind the block's pointer for the rest: a
//!   sorted array, a [`Ria`] (Redundant Indexed Array), or a HITree — a
//!   LIA whose overflowing blocks point at `Spill`s again — chosen by how
//!   many ids sit behind the pointer (the tier ladder); every container
//!   stores plain `u32` ids, uncompressed,
//!
//! and regulates data movement distance on updates: horizontal movement
//! within/near cache-line blocks first, array expansion by the space
//! amplification factor `α` or vertical movement (child creation) when the
//! locality bound would be exceeded.
//!
//! Batched updates are sorted, grouped by source vertex, and applied one
//! vertex per task without locks; analytics iterate neighbors in sorted
//! order through the [`lsgraph_api::Graph`] trait.
//!
//! # Quick start
//!
//! ```
//! use lsgraph_core::{Config, LsGraph};
//! use lsgraph_api::{DynamicGraph, Graph, Edge};
//!
//! let mut g = LsGraph::with_config(3, Config::default());
//! g.insert_batch_undirected(&[Edge::new(0, 1), Edge::new(1, 2)]);
//! assert_eq!(g.neighbors(1), vec![0, 2]);
//! g.delete_batch_undirected(&[Edge::new(0, 1)]);
//! assert_eq!(g.degree(0), 0);
//! ```

mod adjacency;
mod config;
mod directory;
mod error;
mod graph;
mod hitree;
mod model;
mod ria;
mod snapshot;
mod stats;
mod vertex;

pub use adjacency::Spill;
pub use config::{Config, ConfigError, HighDegreeStore, LiaSearch, MediumStore, BKS, INLINE_CAP};
pub use directory::GraphView;
pub use error::{BatchOutcome, GraphError};
pub use graph::{BatchEvent, BatchKind, LsGraph, PostBatchHook};
pub use hitree::SlotOccupancy;
pub use model::{LinearModel, PlrModel, PositionModel};
pub use ria::{InsertOutcome, Ria};
pub use snapshot::GraphSnapshot;
pub use stats::{Tier, TierStats};
pub use vertex::VertexBlock;
