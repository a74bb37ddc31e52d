//! Packed Memory Array (PMA) substrate.
//!
//! The PMA \[Bender & Hu 2007\] is the ordered gapped array used by
//! PCSR-style streaming graph representations and by Terrace's middle tier.
//! LSGraph's motivation experiments (paper §2.2–2.3, Fig. 2/4) analyze its
//! two weaknesses — data-dependent binary search and large rebalance
//! movements — so this implementation is instrumented with
//! [`lsgraph_api::OpCounters`] to reproduce those measurements.
//!
//! Two consumers:
//! * [`PmaGraph`]: a whole-graph baseline storing every edge as a packed
//!   `u64` key in one PMA (the representation Terrace builds on).
//! * Per-vertex [`Pma<u32>`] adjacency, used by LSGraph's "PMA instead of
//!   RIA" ablation (paper §6.2).

mod graph;
mod pma;

pub use graph::PmaGraph;
pub use pma::{Pma, PmaKey, PmaParams};
