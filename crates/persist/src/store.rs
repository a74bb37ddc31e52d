//! The durable store: an [`LsGraph`] fronted by a segmented WAL, with
//! tier-aware full/delta checkpoints, retention GC, and crash recovery.
//!
//! Write path: every batch is appended to the WAL **before**
//! [`LsGraph::try_insert_batch`] / [`try_delete_batch`] applies it
//! (write-ahead rule), so the log is always a superset of the in-memory
//! state up to group-commit buffering. [`Store::sync`] is the durability
//! point; [`Store::checkpoint`] syncs the log and freezes either the full
//! hierarchical representation or — when a delta chain is open and the
//! dirty working set is small — just the vertices dirtied since the last
//! image ([`StoreOptions::delta_ratio`], [`StoreOptions::max_delta_chain`]).
//!
//! Recovery ([`Store::open`]): load the newest recoverable checkpoint
//! chain (full image + linked deltas, degrading past corruption), prune
//! the unusable image suffix, replay the WAL tail from the chain tip's
//! recorded `(segment, offset)` position, and physically truncate the log
//! at the first torn or corrupt frame. The caller gets a
//! [`RecoveryReport`]; the stats counters `recovery_frames_replayed` /
//! `recovery_frames_discarded` / `recovery_images_discarded` are updated.
//!
//! Storage stays bounded via [`Store::run_retention`] (delete images and
//! WAL segments strictly older than the newest *verified* chain) and
//! [`Store::compact`] (fold a delta chain into a full image).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lsgraph_api::{fail_point, Edge, Graph};
use lsgraph_core::{BatchOutcome, Config, GraphError, GraphSnapshot, LsGraph};

use crate::checkpoint::{self, CheckpointMeta, ImageKind};
use crate::retention::{self, GcReport};
use crate::segment::{self, SegmentedScan, SegmentedWal, WalPosition};
use crate::wal::WalOp;

/// Name of the legacy single-file write-ahead log. A store directory laid
/// out by an older build is migrated on open: `wal.log` becomes segment
/// `wal.000000` and rotation proceeds from there.
const WAL_FILE: &str = "wal.log";

/// Tuning knobs for a [`Store`], all with conservative defaults.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Byte budget of one WAL segment; an append that would overflow the
    /// active segment rotates to the next one first. Frames never split:
    /// a frame larger than the budget gets a segment to itself.
    pub segment_bytes: u64,
    /// A checkpoint is written as a delta only while
    /// `dirty_vertices <= delta_ratio * num_vertices`; above that, a full
    /// image is cheaper to recover than a fat delta is to write.
    pub delta_ratio: f64,
    /// Maximum deltas chained on one full image before the next
    /// checkpoint is forced full (bounds recovery's chain walk).
    pub max_delta_chain: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: 8 * 1024 * 1024,
            delta_ratio: 0.25,
            max_delta_chain: 8,
        }
    }
}

/// Errors from store operations: I/O from the durability layer, or a
/// structural error surfaced by the engine's fallible batch API.
#[derive(Debug)]
pub enum StoreError {
    /// The WAL or checkpoint I/O failed.
    Io(io::Error),
    /// The engine rejected the operation.
    Graph(GraphError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Graph(e) => write!(f, "store graph error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Graph(e) => Some(e),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::Graph(e)
    }
}

/// What [`Store::open`] reconstructed and what it had to throw away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Id of the checkpoint chain tip loaded, if any.
    pub checkpoint_loaded: Option<u64>,
    /// WAL frames replayed through the batch pipeline.
    pub frames_replayed: u64,
    /// Truncation events in the WAL tail (1 if a torn/corrupt tail was cut).
    pub frames_discarded: u64,
    /// Bytes discarded from the torn tail (including unreachable later
    /// segments).
    pub bytes_discarded: u64,
    /// Checkpoint images discarded: corrupt fulls skipped on the way to a
    /// valid base plus deltas past the first broken chain link.
    pub images_discarded: u64,
    /// Delta images applied on top of the base full image.
    pub chain_len: u64,
    /// Edges in the graph after recovery completed.
    pub edges_restored: u64,
    /// Sequence number the next logged batch will carry — equivalently, the
    /// number of batches (checkpointed + replayed) the recovered state holds.
    pub next_seq: u64,
}

/// The open delta chain: id of the image the next delta would link to and
/// how many deltas already hang off the base full image.
#[derive(Clone, Copy, Debug)]
struct ChainState {
    parent_id: u64,
    len: u64,
}

/// A durable [`LsGraph`]: segmented WAL + checkpoint chains + recovery in
/// one directory.
pub struct Store {
    dir: PathBuf,
    graph: LsGraph,
    wal: SegmentedWal,
    next_checkpoint_id: u64,
    opts: StoreOptions,
    /// `Some` while the next checkpoint may legally be a delta; `None`
    /// forces it full (cold start, after a write error, or after
    /// [`Store::begin_checkpoint`] claimed an id out of band).
    chain: Option<ChainState>,
}

impl Store {
    /// Opens the store at `dir` with default [`StoreOptions`]; see
    /// [`Store::open_with`].
    ///
    /// # Errors
    ///
    /// As for [`Store::open_with`].
    pub fn open(dir: &Path, n: usize, cfg: Config) -> Result<(Store, RecoveryReport), StoreError> {
        Store::open_with(dir, n, cfg, StoreOptions::default())
    }

    /// Opens the store at `dir` (created if missing), running recovery:
    /// newest recoverable checkpoint chain, then WAL-tail replay from the
    /// chain tip's `(segment, offset)`, then torn-tail truncation. Images
    /// past the usable chain (corrupt fulls, orphaned deltas) are pruned
    /// so they cannot shadow or poison later checkpoints. `n` sizes a
    /// cold-start graph; an existing image's own vertex count wins (the
    /// graph grows lazily past either bound).
    ///
    /// A legacy single-file `wal.log` is migrated to segment `wal.000000`.
    ///
    /// # Errors
    ///
    /// I/O errors from the directory, WAL, or checkpoint files; a config
    /// rejected by the engine; or a replay failure from the batch pipeline.
    /// Individually corrupt checkpoint images are skipped, not errors.
    pub fn open_with(
        dir: &Path,
        n: usize,
        cfg: Config,
        opts: StoreOptions,
    ) -> Result<(Store, RecoveryReport), StoreError> {
        fs::create_dir_all(dir)?;
        let legacy = dir.join(WAL_FILE);
        let seg0 = segment::segment_file(dir, 0);
        if legacy.exists() && !seg0.exists() {
            fs::rename(&legacy, &seg0)?;
        }
        let (restored, info) = checkpoint::load_newest_chain(dir, cfg)?;
        let (mut graph, ckpt) = match restored {
            Some((g, meta)) => (g, Some(meta)),
            None => (
                LsGraph::try_with_config(n, cfg).map_err(GraphError::InvalidConfig)?,
                None,
            ),
        };
        if ckpt.is_some() {
            prune_unusable_images(dir, info.base_id, info.tip_id)?;
        }
        let (start, mut next_seq) = ckpt.map_or((WalPosition::default(), 0), |m| {
            (
                WalPosition {
                    segment: m.wal_segment,
                    offset: m.wal_offset,
                },
                m.next_seq,
            )
        });
        // From here on the dirty set tracks exactly what the loaded chain
        // tip does **not** cover: replayed frames and future batches.
        graph.clear_dirty();
        let scan: SegmentedScan = segment::scan_from(dir, start, next_seq)?;
        let mut frames_replayed = 0u64;
        for frame in &scan.frames {
            fail_point!("recovery_replay");
            match frame.op {
                WalOp::Insert => graph.try_insert_batch(&frame.edges)?,
                WalOp::Delete => graph.try_delete_batch(&frame.edges)?,
            };
            graph.stats().recovery_frames_replayed.record(1);
            frames_replayed += 1;
        }
        graph
            .stats()
            .recovery_frames_discarded
            .record(scan.frames_discarded);
        graph
            .stats()
            .recovery_images_discarded
            .record(info.images_discarded);
        next_seq += frames_replayed;
        let wal = SegmentedWal::open(dir, scan.end, next_seq, opts.segment_bytes)?;
        graph.stats().wal_live_bytes.record(wal.live_bytes());
        let report = RecoveryReport {
            checkpoint_loaded: ckpt.map(|m| m.id),
            frames_replayed,
            frames_discarded: scan.frames_discarded,
            bytes_discarded: scan.bytes_discarded,
            images_discarded: info.images_discarded,
            chain_len: info.chain_len,
            edges_restored: graph.num_edges() as u64,
            next_seq,
        };
        let store = Store {
            dir: dir.to_path_buf(),
            graph,
            wal,
            next_checkpoint_id: ckpt.map_or(1, |m| m.id + 1),
            opts,
            // A surviving chain keeps accepting deltas across restarts.
            chain: ckpt.map(|m| ChainState {
                parent_id: m.id,
                len: info.chain_len,
            }),
        };
        Ok((store, report))
    }

    /// Logs `batch` to the WAL, then inserts it. The frame is crash-durable
    /// only after the next [`Store::sync`] (group commit).
    ///
    /// # Errors
    ///
    /// WAL I/O errors (the batch is then *not* applied), or an engine error
    /// from the fallible batch pipeline.
    pub fn insert_batch(&mut self, batch: &[Edge]) -> Result<BatchOutcome, StoreError> {
        self.wal.append(WalOp::Insert, batch, self.graph.stats())?;
        Ok(self.graph.try_insert_batch(batch)?)
    }

    /// Logs `batch` to the WAL, then deletes it. Mirrors
    /// [`Store::insert_batch`].
    ///
    /// # Errors
    ///
    /// WAL I/O errors (the batch is then *not* applied), or an engine error
    /// from the fallible batch pipeline.
    pub fn delete_batch(&mut self, batch: &[Edge]) -> Result<BatchOutcome, StoreError> {
        self.wal.append(WalOp::Delete, batch, self.graph.stats())?;
        Ok(self.graph.try_delete_batch(batch)?)
    }

    /// Flushes and fsyncs the WAL — everything logged so far becomes
    /// crash-durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the flush or fsync.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        Ok(self.wal.sync()?)
    }

    /// Syncs the WAL, then writes a checkpoint image covering the entire
    /// log so far. While a delta chain is open and the dirty working set
    /// is within [`StoreOptions::delta_ratio`], the image is a
    /// dirty-vertex **delta**; otherwise (cold chain, chain at
    /// [`StoreOptions::max_delta_chain`], or a large working set) it is a
    /// full image that roots a fresh chain. Recovery from the written
    /// image replays nothing unless more batches land afterwards.
    ///
    /// Records `delta_checkpoints_written` and the
    /// `checkpoint_dirty_vertices` gauge.
    ///
    /// # Errors
    ///
    /// Propagates WAL sync and image-write I/O errors; a failed image
    /// write never clobbers an older checkpoint, and it closes the chain
    /// so the next attempt is a self-contained full image.
    pub fn checkpoint(&mut self) -> Result<CheckpointMeta, StoreError> {
        self.wal.sync()?;
        let pos = self.wal.position();
        let next_seq = self.wal.next_seq();
        let id = self.next_checkpoint_id;
        let dirty = self.graph.dirty_count() as u64;
        let use_delta = self.chain.is_some_and(|c| {
            c.len < self.opts.max_delta_chain
                && dirty as f64 <= self.opts.delta_ratio * self.graph.num_vertices() as f64
        });
        let write = if use_delta {
            let chain = self.chain.expect("use_delta implies an open chain");
            let dirty_vs = self.graph.dirty_vertices();
            checkpoint::write_delta_checkpoint(
                &self.dir,
                id,
                chain.parent_id,
                self.graph.view(),
                &dirty_vs,
                pos.segment,
                pos.offset,
                next_seq,
            )
            .map(|m| (m, Some(chain)))
        } else {
            checkpoint::write_checkpoint(
                &self.dir,
                id,
                self.graph.view(),
                pos.segment,
                pos.offset,
                next_seq,
            )
            .map(|m| (m, None))
        };
        let (meta, continued) = match write {
            Ok(ok) => ok,
            Err(e) => {
                // A half-attempted image closes the chain: the next
                // checkpoint must be full and self-contained.
                self.chain = None;
                return Err(e.into());
            }
        };
        self.graph.clear_dirty();
        self.graph.stats().checkpoint_dirty_vertices.record(dirty);
        self.chain = Some(match continued {
            Some(c) => {
                self.graph.stats().delta_checkpoints_written.record(1);
                ChainState {
                    parent_id: id,
                    len: c.len + 1,
                }
            }
            None => ChainState {
                parent_id: id,
                len: 0,
            },
        });
        self.next_checkpoint_id = id + 1;
        Ok(meta)
    }

    /// Syncs the WAL and freezes a checkpoint *without writing it*: the
    /// returned [`PendingCheckpoint`] captures a [`GraphSnapshot`] plus the
    /// WAL position it covers, and can be moved to another thread and
    /// written there while this store keeps logging and applying batches.
    /// Batches that land after this call are simply not covered by the
    /// image — recovery replays them from the WAL tail, exactly as with a
    /// synchronous [`Store::checkpoint`].
    ///
    /// A background checkpoint is always a **full** image, and claiming it
    /// closes any open delta chain (the pending image may land later or
    /// never, so chaining deltas across it cannot be proven safe). The
    /// dirty set is drained here: the frozen snapshot covers everything up
    /// to the flip point.
    ///
    /// The checkpoint id is claimed eagerly, so interleaved synchronous
    /// checkpoints never collide with a pending one. A pending checkpoint
    /// that is dropped unwritten leaves a gap in the id sequence, which
    /// recovery tolerates (it scans for the newest valid image).
    ///
    /// # Errors
    ///
    /// Propagates WAL sync I/O errors; the snapshot itself cannot fail.
    pub fn begin_checkpoint(&mut self) -> Result<PendingCheckpoint, StoreError> {
        self.wal.sync()?;
        let pos = self.wal.position();
        let pending = PendingCheckpoint {
            dir: self.dir.clone(),
            id: self.next_checkpoint_id,
            snapshot: self.graph.snapshot(),
            wal_segment: pos.segment,
            wal_offset: pos.offset,
            next_seq: self.wal.next_seq(),
        };
        self.next_checkpoint_id += 1;
        self.chain = None;
        self.graph.clear_dirty();
        Ok(pending)
    }

    /// One retention pass: verify the newest recoverable chain by loading
    /// it from disk, then delete every image strictly older than its base
    /// and every WAL segment below the chain tip's replay segment (the
    /// active segment is never deleted). Deletes **nothing** unless a
    /// chain verifies. Records `wal_segments_deleted` and refreshes the
    /// `wal_live_bytes` gauge.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the verification load or the unlinks.
    pub fn run_retention(&mut self) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();
        let tip = retention::collect_image_garbage(&self.dir, *self.graph.config(), &mut report)?;
        if let Some(tip) = tip {
            let (n, bytes) = self
                .wal
                .delete_segments_below(tip.wal_segment, self.graph.stats())?;
            report.segments_deleted = n;
            report.segment_bytes_deleted = bytes;
        }
        Ok(report)
    }

    /// Folds the current delta chain into a full image at the chain tip's
    /// id (see `retention::compact_chain`); `Ok(None)` when there is no
    /// chain to fold. After compaction the next checkpoint chains deltas
    /// off the freshly compacted full image.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the chain load or image write.
    pub fn compact(&mut self) -> Result<Option<CheckpointMeta>, StoreError> {
        match retention::compact_chain(&self.dir, *self.graph.config())? {
            Some(meta) => {
                if self.chain.is_some() {
                    self.chain = Some(ChainState {
                        parent_id: meta.id,
                        len: 0,
                    });
                }
                Ok(Some(meta))
            }
            None => Ok(None),
        }
    }

    /// The recovered / live graph.
    pub fn graph(&self) -> &LsGraph {
        &self.graph
    }

    /// Mutable access for out-of-band surgery (e.g.
    /// [`LsGraph::repair_vertex`]). Such mutations bypass the WAL: they are
    /// durable only once a subsequent [`Store::checkpoint`] freezes them.
    pub fn graph_mut(&mut self) -> &mut LsGraph {
        &mut self.graph
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total live WAL bytes across all segments, including
    /// group-commit-buffered frames in the active one.
    pub fn wal_len(&self) -> u64 {
        self.wal.live_bytes()
    }

    /// The append position: active segment index and offset.
    pub fn wal_position(&self) -> WalPosition {
        self.wal.position()
    }

    /// The sequence number the next logged batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }
}

/// Deletes image files recovery proved unusable: full images newer than
/// the chosen base (they failed to load) and delta images newer than the
/// applied tip (corrupt or orphaned past a broken link). Without this, a
/// later checkpoint could reuse an orphan's id or a stale delta could
/// masquerade as a link in a future chain.
fn prune_unusable_images(dir: &Path, base_id: u64, tip_id: u64) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let doomed = match checkpoint::image_name(&path) {
            Some((ImageKind::Full, id)) => id > base_id,
            Some((ImageKind::Delta, id)) => id > tip_id,
            None => false,
        };
        if doomed {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// A checkpoint frozen by [`Store::begin_checkpoint`] but not yet written.
///
/// Holds a [`GraphSnapshot`] of the flip point, so it is `Send` and the
/// image write ([`PendingCheckpoint::write`]) can run on a background
/// thread concurrently with the store's writer. The snapshot's block
/// versions stay alive until the pending checkpoint is written or dropped.
pub struct PendingCheckpoint {
    dir: PathBuf,
    id: u64,
    snapshot: GraphSnapshot,
    wal_segment: u64,
    wal_offset: u64,
    next_seq: u64,
}

impl PendingCheckpoint {
    /// Serializes the frozen snapshot into its (full) image, consuming the
    /// pending checkpoint (and releasing the snapshot's hold on retired
    /// block versions).
    ///
    /// # Errors
    ///
    /// Propagates image-write I/O errors; a failed write never clobbers an
    /// older checkpoint.
    pub fn write(self) -> io::Result<CheckpointMeta> {
        checkpoint::write_checkpoint(
            &self.dir,
            self.id,
            self.snapshot.view(),
            self.wal_segment,
            self.wal_offset,
            self.next_seq,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{checkpoint_file, delta_file};
    use crate::segment::segment_file;
    use std::collections::BTreeSet;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsgraph-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn cfg() -> Config {
        Config {
            m: 256,
            ..Config::default()
        }
    }

    /// Deterministic mixed workload: `rounds` insert batches with a delete
    /// batch every third round.
    fn workload(rounds: u64) -> Vec<(WalOp, Vec<Edge>)> {
        let mut out = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for r in 0..rounds {
            let mut ins = Vec::new();
            for _ in 0..40 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let src = ((x >> 33) % 64) as u32;
                let dst = ((x >> 17) % 500) as u32;
                ins.push(Edge::new(src, dst));
            }
            out.push((WalOp::Insert, ins.clone()));
            if r % 3 == 2 {
                let del = ins.iter().step_by(4).copied().collect();
                out.push((WalOp::Delete, del));
            }
        }
        out
    }

    fn shadow(batches: &[(WalOp, Vec<Edge>)]) -> BTreeSet<(u32, u32)> {
        let mut s = BTreeSet::new();
        for (op, b) in batches {
            for e in b {
                match op {
                    WalOp::Insert => {
                        s.insert((e.src, e.dst));
                    }
                    WalOp::Delete => {
                        s.remove(&(e.src, e.dst));
                    }
                }
            }
        }
        s
    }

    fn assert_matches_shadow(g: &LsGraph, s: &BTreeSet<(u32, u32)>) {
        assert_eq!(g.num_edges(), s.len());
        for v in 0..g.num_vertices() as u32 {
            let want: Vec<u32> = s.range((v, 0)..=(v, u32::MAX)).map(|&(_, d)| d).collect();
            assert_eq!(g.neighbors(v), want, "vertex {v}");
        }
        g.check_invariants();
    }

    fn run(store: &mut Store, batches: &[(WalOp, Vec<Edge>)]) {
        for (op, b) in batches {
            match op {
                WalOp::Insert => store.insert_batch(b).unwrap(),
                WalOp::Delete => store.delete_batch(b).unwrap(),
            };
        }
    }

    #[test]
    fn cold_start_log_replay() {
        let dir = tmpdir("cold");
        let batches = workload(12);
        {
            let (mut store, report) = Store::open(&dir, 64, cfg()).unwrap();
            assert_eq!(report, RecoveryReport::default());
            run(&mut store, &batches);
            store.sync().unwrap();
        }
        let (store, report) = Store::open(&dir, 64, cfg()).unwrap();
        assert_eq!(report.checkpoint_loaded, None);
        assert_eq!(report.frames_replayed, batches.len() as u64);
        assert_eq!(report.frames_discarded, 0);
        assert_eq!(report.next_seq, batches.len() as u64);
        assert_matches_shadow(store.graph(), &shadow(&batches));
        assert_eq!(
            store.graph().stats().snapshot().recovery_frames_replayed,
            batches.len() as u64
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_covers_prefix_replay_covers_tail() {
        let dir = tmpdir("ckpt-tail");
        let batches = workload(12);
        let half = batches.len() / 2;
        {
            let (mut store, _) = Store::open(&dir, 64, cfg()).unwrap();
            run(&mut store, &batches[..half]);
            let meta = store.checkpoint().unwrap();
            assert_eq!(meta.next_seq, half as u64);
            run(&mut store, &batches[half..]);
            store.sync().unwrap();
        }
        let (store, report) = Store::open(&dir, 64, cfg()).unwrap();
        assert_eq!(report.checkpoint_loaded, Some(1));
        assert_eq!(report.frames_replayed, (batches.len() - half) as u64);
        assert_eq!(report.next_seq, batches.len() as u64);
        assert_matches_shadow(store.graph(), &shadow(&batches));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_checkpoint_is_a_delta_and_recovery_walks_the_chain() {
        let dir = tmpdir("delta-chain");
        let opts = StoreOptions {
            delta_ratio: 1.0, // always small enough
            ..StoreOptions::default()
        };
        let batches = workload(12);
        let third = batches.len() / 3;
        {
            let (mut store, _) = Store::open_with(&dir, 64, cfg(), opts).unwrap();
            run(&mut store, &batches[..third]);
            store.checkpoint().unwrap();
            assert!(checkpoint_file(&dir, 1).exists(), "first image is full");
            run(&mut store, &batches[third..2 * third]);
            let meta = store.checkpoint().unwrap();
            assert_eq!(meta.id, 2);
            assert!(delta_file(&dir, 2).exists(), "second image is a delta");
            assert!(!checkpoint_file(&dir, 2).exists());
            let snap = store.graph().stats().snapshot();
            assert_eq!(snap.delta_checkpoints_written, 1);
            assert!(snap.checkpoint_dirty_vertices > 0);
            run(&mut store, &batches[2 * third..]);
            store.sync().unwrap();
        }
        let (store, report) = Store::open_with(&dir, 64, cfg(), opts).unwrap();
        assert_eq!(report.checkpoint_loaded, Some(2));
        assert_eq!(report.chain_len, 1);
        assert_eq!(report.images_discarded, 0);
        assert_matches_shadow(store.graph(), &shadow(&batches));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_delta_chain_forces_a_full_image() {
        let dir = tmpdir("chain-cap");
        let opts = StoreOptions {
            delta_ratio: 1.0,
            max_delta_chain: 1,
            ..StoreOptions::default()
        };
        let batches = workload(9);
        let (mut store, _) = Store::open_with(&dir, 64, cfg(), opts).unwrap();
        run(&mut store, &batches[..3]);
        store.checkpoint().unwrap(); // full (cold chain)
        run(&mut store, &batches[3..6]);
        store.checkpoint().unwrap(); // delta (chain len 0 -> 1)
        run(&mut store, &batches[6..]);
        store.checkpoint().unwrap(); // forced full (chain at cap)
        assert!(checkpoint_file(&dir, 1).exists());
        assert!(delta_file(&dir, 2).exists());
        assert!(checkpoint_file(&dir, 3).exists(), "cap must force a full");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn large_dirty_ratio_forces_a_full_image() {
        let dir = tmpdir("ratio");
        let opts = StoreOptions {
            delta_ratio: 0.0, // nothing is ever "small"
            ..StoreOptions::default()
        };
        let batches = workload(6);
        let (mut store, _) = Store::open_with(&dir, 64, cfg(), opts).unwrap();
        run(&mut store, &batches[..3]);
        store.checkpoint().unwrap();
        run(&mut store, &batches[3..]);
        store.checkpoint().unwrap();
        assert!(checkpoint_file(&dir, 2).exists(), "ratio 0 forbids deltas");
        assert!(!delta_file(&dir, 2).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_retention_bound_the_wal() {
        let dir = tmpdir("retention");
        let opts = StoreOptions {
            segment_bytes: 512,
            delta_ratio: 1.0,
            ..StoreOptions::default()
        };
        let batches = workload(30);
        let (mut store, _) = Store::open_with(&dir, 64, cfg(), opts).unwrap();
        let mut shadowed = Vec::new();
        for chunk in batches.chunks(8) {
            run(&mut store, chunk);
            shadowed.extend(chunk.iter().cloned());
            store.checkpoint().unwrap();
            store.run_retention().unwrap();
        }
        let snap = store.graph().stats().snapshot();
        assert!(snap.wal_segments_rotated > 0, "512-byte budget must rotate");
        assert!(snap.wal_segments_deleted > 0, "retention must reclaim");
        // Bounded: live bytes never include segments below the newest
        // chain tip, so only the tail since the last checkpoint remains.
        let first_live = segment::list_segments(&dir).unwrap()[0];
        assert!(
            first_live >= store.wal_position().segment,
            "all sealed segments below the tip are gone"
        );
        assert_eq!(snap.wal_live_bytes, store.wal_len());
        drop(store);
        let (store, report) = Store::open_with(&dir, 64, cfg(), opts).unwrap();
        assert_eq!(report.frames_replayed, 0, "checkpoint covered everything");
        assert_eq!(report.images_discarded, 0);
        assert_matches_shadow(store.graph(), &shadow(&shadowed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_the_chain_in_place() {
        let dir = tmpdir("compact");
        let opts = StoreOptions {
            delta_ratio: 1.0,
            ..StoreOptions::default()
        };
        let batches = workload(12);
        let third = batches.len() / 3;
        let (mut store, _) = Store::open_with(&dir, 64, cfg(), opts).unwrap();
        run(&mut store, &batches[..third]);
        store.checkpoint().unwrap();
        run(&mut store, &batches[third..2 * third]);
        store.checkpoint().unwrap();
        assert!(delta_file(&dir, 2).exists());
        let meta = store.compact().unwrap().unwrap();
        assert_eq!(meta.id, 2);
        assert!(checkpoint_file(&dir, 2).exists());
        assert!(!delta_file(&dir, 2).exists());
        // The next checkpoint chains a delta off the compacted full.
        run(&mut store, &batches[2 * third..]);
        let meta = store.checkpoint().unwrap();
        assert_eq!(meta.id, 3);
        assert!(delta_file(&dir, 3).exists());
        store.sync().unwrap();
        drop(store);
        let (store, report) = Store::open_with(&dir, 64, cfg(), opts).unwrap();
        assert_eq!(report.checkpoint_loaded, Some(3));
        assert_eq!(report.chain_len, 1);
        assert_matches_shadow(store.graph(), &shadow(&batches));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_wal_log_is_migrated_to_segment_zero() {
        let dir = tmpdir("legacy");
        let batches = workload(6);
        {
            let (mut store, _) = Store::open(&dir, 64, cfg()).unwrap();
            run(&mut store, &batches);
            store.sync().unwrap();
        }
        // Rewind the layout to what an older build left behind.
        std::fs::rename(segment_file(&dir, 0), dir.join(WAL_FILE)).unwrap();
        let (store, report) = Store::open(&dir, 64, cfg()).unwrap();
        assert!(segment_file(&dir, 0).exists());
        assert!(!dir.join(WAL_FILE).exists());
        assert_eq!(report.frames_replayed, batches.len() as u64);
        assert_matches_shadow(store.graph(), &shadow(&batches));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_checkpoint_write_overlaps_the_writer() {
        let dir = tmpdir("bg-ckpt");
        let batches = workload(12);
        let half = batches.len() / 2;
        {
            let (mut store, _) = Store::open(&dir, 64, cfg()).unwrap();
            run(&mut store, &batches[..half]);
            // Freeze the checkpoint, then hand the image write to another
            // thread while this one keeps logging and applying batches.
            let pending = store.begin_checkpoint().unwrap();
            let writer = std::thread::spawn(move || pending.write().unwrap());
            run(&mut store, &batches[half..]);
            store.sync().unwrap();
            let meta = writer.join().expect("image writer panicked");
            assert_eq!(meta.id, 1);
            assert_eq!(meta.next_seq, half as u64);
        }
        // Recovery: the image covers the first half; the WAL tail replays
        // the batches that landed while the image was being written.
        let (store, report) = Store::open(&dir, 64, cfg()).unwrap();
        assert_eq!(report.checkpoint_loaded, Some(1));
        assert_eq!(report.frames_replayed, (batches.len() - half) as u64);
        assert_eq!(report.next_seq, batches.len() as u64);
        assert_matches_shadow(store.graph(), &shadow(&batches));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_pending_checkpoint_leaves_an_id_gap_recovery_tolerates() {
        let dir = tmpdir("dropped-pending");
        let batches = workload(6);
        {
            let (mut store, _) = Store::open(&dir, 64, cfg()).unwrap();
            run(&mut store, &batches[..3]);
            drop(store.begin_checkpoint().unwrap()); // id 1 claimed, never written
            run(&mut store, &batches[3..]);
            let meta = store.checkpoint().unwrap();
            assert_eq!(meta.id, 2, "synchronous checkpoint skips the claimed id");
            assert!(
                checkpoint_file(&dir, 2).exists(),
                "a claimed pending id closes the chain: next image is full"
            );
        }
        let (store, report) = Store::open(&dir, 64, cfg()).unwrap();
        assert_eq!(report.checkpoint_loaded, Some(2));
        assert_eq!(report.frames_replayed, 0);
        assert_matches_shadow(store.graph(), &shadow(&batches));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_reported() {
        let dir = tmpdir("torn");
        let batches = workload(8);
        {
            let (mut store, _) = Store::open(&dir, 64, cfg()).unwrap();
            run(&mut store, &batches);
            store.sync().unwrap();
        }
        // Physically tear the last frame mid-payload.
        let wal_path = segment_file(&dir, 0);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();
        let (store, report) = Store::open(&dir, 64, cfg()).unwrap();
        assert_eq!(report.frames_replayed, batches.len() as u64 - 1);
        assert_eq!(report.frames_discarded, 1);
        assert!(report.bytes_discarded > 0);
        assert_eq!(
            store.graph().stats().snapshot().recovery_frames_discarded,
            1
        );
        // The torn bytes are physically gone and the store's state equals
        // a clean run of the surviving prefix.
        assert!(std::fs::metadata(&wal_path).unwrap().len() < bytes.len() as u64);
        assert_matches_shadow(store.graph(), &shadow(&batches[..batches.len() - 1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_after_torn_truncation_appends_cleanly() {
        let dir = tmpdir("torn-resume");
        let batches = workload(6);
        {
            let (mut store, _) = Store::open(&dir, 64, cfg()).unwrap();
            run(&mut store, &batches);
            store.sync().unwrap();
        }
        let wal_path = segment_file(&dir, 0);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 2]).unwrap();
        let tail = workload(3);
        let survivors = {
            let (mut store, report) = Store::open(&dir, 64, cfg()).unwrap();
            let survivors = report.frames_replayed as usize;
            run(&mut store, &tail);
            store.sync().unwrap();
            survivors
        };
        let (store, report) = Store::open(&dir, 64, cfg()).unwrap();
        assert_eq!(report.frames_discarded, 0, "second recovery is clean");
        let mut expect: Vec<(WalOp, Vec<Edge>)> = batches[..survivors].to_vec();
        expect.extend(tail.iter().cloned());
        assert_eq!(report.frames_replayed, expect.len() as u64);
        assert_matches_shadow(store.graph(), &shadow(&expect));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsynced_buffered_frames_are_lost_not_torn() {
        let dir = tmpdir("unsynced");
        let batches = workload(4);
        {
            let (mut store, _) = Store::open(&dir, 64, cfg()).unwrap();
            run(&mut store, &batches[..2]);
            store.sync().unwrap();
            // These stay in the group-commit buffer: never written.
            run(&mut store, &batches[2..]);
            assert!(store.wal_len() > 0);
        }
        let (store, report) = Store::open(&dir, 64, cfg()).unwrap();
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(report.frames_discarded, 0, "a lost buffer is not a tear");
        assert_matches_shadow(store.graph(), &shadow(&batches[..2]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
