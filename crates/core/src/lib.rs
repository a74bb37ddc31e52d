//! LSGraph — a locality-centric high-performance streaming graph engine.
//!
//! Rust reproduction of *LSGraph* (Qi et al., EuroSys 2024). The engine
//! stores each vertex's adjacency in a degree-tiered, hierarchically indexed
//! representation:
//!
//! * one cache-line [`vertex block`](vertex::VertexBlock) per vertex with
//!   inline neighbors,
//! * one container, [`Spill`], behind the block's pointer for the rest: a
//!   sorted array, a [`Ria`] (Redundant Indexed Array), or a HITree — a
//!   [`Lia`](hitree::Lia) whose overflowing blocks point at `Spill`s again —
//!   chosen by how many ids sit behind the pointer ([`adjacency`]'s tier
//!   ladder); every container stores plain `u32` ids, uncompressed,
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

pub mod adjacency;
pub mod config;
pub mod directory;
pub mod error;
pub mod graph;
pub mod hitree;
pub mod model;
pub mod ria;
pub mod snapshot;
pub mod stats;
pub mod vertex;

pub use adjacency::Spill;
pub use config::{Config, ConfigError, HighDegreeStore, LiaSearch, MediumStore, BKS, INLINE_CAP};
pub use directory::GraphView;
pub use error::{BatchOutcome, GraphError, InvariantError};
pub use graph::{BatchEvent, BatchKind, LsGraph, PostBatchHook};
pub use hitree::SlotOccupancy;
pub use ria::{Ria, RiaIter};
pub use snapshot::GraphSnapshot;
pub use stats::{Tier, TierStats};
pub use vertex::NeighborIter;
