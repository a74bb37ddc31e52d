//! Durability tier for LSGraph: segmented write-ahead logging, tier-aware
//! full/delta checkpoints, retention GC, and crash recovery with
//! torn-write handling.
//!
//! The engine itself ([`lsgraph_core::LsGraph`]) is a purely in-memory
//! structure; this crate wraps it in a [`Store`] that makes streamed
//! updates survive a crash — and keeps the on-disk footprint bounded
//! while doing so:
//!
//! - `wal` — every batch is appended as a length-prefixed, CRC32-checked
//!   frame *before* it is applied (write-ahead rule), with group-commit
//!   buffering and explicit [`Store::sync`] durability points.
//! - `segment` — the WAL split into fixed-budget rotating files
//!   (`wal.000000`, `wal.000001`, …) with crash-safe rotation, positions
//!   as `(segment, offset)` pairs, and whole-segment deletion for GC.
//! - `checkpoint` — full images (the hierarchical representation walked
//!   tier-natively into a versioned, self-validating binary) plus
//!   **delta** images of the vertices whose block differs from the
//!   parent image's, which name their parent and only apply on exactly
//!   that state, forming validated recovery chains.
//! - `retention` — the GC rule (delete only what is strictly older than
//!   the newest chain *proved* recoverable by loading it) and chain
//!   compaction (fold deltas into a full image at the tip id).
//! - `store` — recovery: newest recoverable chain + WAL-tail replay
//!   through the normal batch pipeline, truncating the log at the first
//!   torn or corrupt frame, degrading gracefully past corrupt deltas, and
//!   reporting it all in a [`RecoveryReport`]. Checkpoints are also
//!   takeable *without pausing the writer*: [`Store::begin_checkpoint`]
//!   freezes a [`lsgraph_core::GraphSnapshot`] and returns a
//!   [`PendingCheckpoint`] whose image write can run on another thread
//!   while batches keep landing.
//!
//! Durability work is observable through the
//! [`StructStats`](lsgraph_api::StructStats) counters
//! (`wal_frames_appended`, `wal_segments_rotated`, `wal_segments_deleted`,
//! `checkpoint_bytes`, `delta_checkpoints_written`,
//! `recovery_frames_replayed`, `recovery_frames_discarded`,
//! `recovery_images_discarded`) and gauges (`wal_live_bytes`,
//! `checkpoint_dirty_vertices`), and injectable at seven failpoint sites
//! (`wal_append`, `wal_sync`, `wal_rotate`, `checkpoint_write`,
//! `delta_checkpoint`, `segment_gc`, `recovery_replay`).

mod checkpoint;
mod retention;
mod segment;
mod store;
mod wal;

pub use checkpoint::{delta_file, load_newest_chain, ChainInfo, CheckpointMeta};
pub use retention::GcReport;
pub use segment::{list_segments, segment_file, WalPosition};
pub use store::{PendingCheckpoint, RecoveryReport, Store, StoreError, StoreOptions};
