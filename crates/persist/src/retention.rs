//! Retention GC and chain compaction: bounding durability storage without
//! ever touching a byte the newest recoverable chain still needs.
//!
//! **The retention rule**: an image or WAL segment may be deleted only if
//! it is strictly older than the newest *recoverable* chain — where
//! "recoverable" is not inferred from file names but **proved** by
//! actually loading the chain ([`checkpoint::load_newest_chain`]) right
//! before deleting anything. Concretely, once a chain rooted at full image
//! `B` with tip `T` verifies:
//!
//! - image files (full or delta) with `id < B` are superseded — delete;
//! - WAL segments with index below `T`'s recorded replay segment can
//!   never be read again — delete (the active segment is always kept).
//!
//! Everything at or above the base stays, including orphaned deltas past a
//! broken link (they are unreachable but deleting them buys nothing and
//! keeping the rule strict keeps it provable).
//!
//! **Compaction** folds a verified delta chain into a single full image at
//! the tip's id, so recovery stops re-walking the chain and retention can
//! subsequently reclaim the folded deltas' predecessors. A crash mid-
//! compaction leaves both `checkpoint-T.img` and `checkpoint-T.dlt`; the
//! chain loader resolves that window by always preferring the full image
//! at a given id.

use std::fs;
use std::io;
use std::path::Path;

use lsgraph_api::fail_point;
use lsgraph_core::Config;

use crate::checkpoint::{self, CheckpointMeta};

/// What one retention pass deleted and where the cutoffs were.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Image files (full + delta) deleted.
    pub images_deleted: u64,
    /// Bytes of image files deleted.
    pub image_bytes_deleted: u64,
    /// WAL segments deleted.
    pub segments_deleted: u64,
    /// Bytes of WAL segments deleted.
    pub segment_bytes_deleted: u64,
    /// Base full image of the verified chain everything was measured
    /// against (0 when no chain verified and nothing was deleted).
    pub chain_base_id: u64,
    /// WAL segment index below which segments were reclaimable.
    pub segment_cutoff: u64,
}

/// Verifies the newest recoverable chain by fully loading it, then deletes
/// every image file strictly older than its base. The `segment_gc`
/// failpoint is evaluated before each unlink, so crash tests can kill
/// mid-GC and assert the survivors still recover. Returns the verified
/// chain's tip, whose WAL position is where replay resumes, so the caller
/// reclaims the WAL segments below `tip.wal_segment` (the segmented WAL
/// owns its own bookkeeping), or `None` when no chain verifies — in which
/// case nothing at all is deleted: with no recoverable image the WAL is the
/// only copy of history.
///
/// # Errors
///
/// Propagates I/O errors from the chain load, directory scan, or unlinks.
pub fn collect_image_garbage(
    dir: &Path,
    cfg: Config,
    report: &mut GcReport,
) -> io::Result<Option<CheckpointMeta>> {
    let (restored, info) = checkpoint::load_newest_chain(dir, cfg)?;
    let Some((_, tip)) = restored else {
        return Ok(None);
    };
    report.chain_base_id = info.base_id;
    report.segment_cutoff = tip.wal_segment;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if checkpoint::image_name(&path).is_none_or(|(_, id)| id >= info.base_id) {
            continue;
        }
        fail_point!("segment_gc");
        let len = fs::metadata(&path)?.len();
        fs::remove_file(&path)?;
        report.images_deleted += 1;
        report.image_bytes_deleted += len;
    }
    Ok(Some(tip))
}

/// Folds the newest recoverable delta chain into a full image at the
/// tip's id, then deletes that tip's delta file. A no-op (`Ok(None)`)
/// when there is no chain or the chain is already a bare full image.
///
/// Crash-safe by construction: the full image lands via temp-file +
/// rename *before* the delta is unlinked, and the loader prefers a full
/// over a delta at the same id, so every intermediate state recovers to
/// the same graph.
///
/// # Errors
///
/// Propagates I/O errors from the chain load or the image write.
pub fn compact_chain(dir: &Path, cfg: Config) -> io::Result<Option<CheckpointMeta>> {
    let (restored, info) = checkpoint::load_newest_chain(dir, cfg)?;
    let Some((g, tip)) = restored else {
        return Ok(None);
    };
    if info.chain_len == 0 {
        return Ok(None);
    }
    let meta = checkpoint::write_checkpoint(
        dir,
        tip.id,
        g.view(),
        tip.wal_segment,
        tip.wal_offset,
        tip.next_seq,
    )?;
    fs::remove_file(checkpoint::delta_file(dir, tip.id))?;
    Ok(Some(meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        checkpoint_file, delta_file, load_newest_chain, write_checkpoint, write_delta_checkpoint,
    };
    use lsgraph_api::{DynamicGraph, Edge, Graph};
    use lsgraph_core::LsGraph;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsgraph-ret-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cfg() -> Config {
        Config {
            m: 256,
            ..Config::default()
        }
    }

    /// dir layout: fulls 1 and 3, deltas 2 (on 1) and 4 (on 3).
    fn two_chains(dir: &Path) -> LsGraph {
        let mut g = LsGraph::with_config(64, cfg());
        g.insert_batch(
            &(0..40u32)
                .map(|i| Edge::new(i % 8, i + 1))
                .collect::<Vec<_>>(),
        );
        write_checkpoint(dir, 1, g.view(), 0, 100, 1).unwrap();
        let base = g.view().clone();
        g.insert_batch(&[Edge::new(9, 1), Edge::new(9, 4)]);
        let d = g.changed_since(&base);
        write_delta_checkpoint(dir, 2, 1, g.view(), &d, 0, 200, 2).unwrap();
        write_checkpoint(dir, 3, g.view(), 1, 50, 3).unwrap();
        let base = g.view().clone();
        g.insert_batch(&[Edge::new(10, 2), Edge::new(10, 6)]);
        let d = g.changed_since(&base);
        write_delta_checkpoint(dir, 4, 3, g.view(), &d, 2, 75, 4).unwrap();
        g
    }

    #[test]
    fn gc_deletes_exactly_the_superseded_images() {
        let dir = tmpdir("gc-images");
        let g = two_chains(&dir);
        let mut report = GcReport::default();
        let tip = collect_image_garbage(&dir, cfg(), &mut report)
            .unwrap()
            .unwrap();
        assert_eq!(report.chain_base_id, 3);
        assert_eq!(tip.id, 4);
        assert_eq!(tip.wal_segment, 2);
        assert_eq!(report.images_deleted, 2, "full 1 and delta 2");
        assert!(report.image_bytes_deleted > 0);
        assert!(!checkpoint_file(&dir, 1).exists());
        assert!(!delta_file(&dir, 2).exists());
        assert!(checkpoint_file(&dir, 3).exists());
        assert!(delta_file(&dir, 4).exists());
        // The surviving chain still recovers to the same graph.
        let (restored, info) = load_newest_chain(&dir, cfg()).unwrap();
        let (r, _) = restored.unwrap();
        assert_eq!(info.base_id, 3);
        assert_eq!(r.num_edges(), g.num_edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_with_no_recoverable_chain_deletes_nothing() {
        let dir = tmpdir("gc-nochain");
        let mut g = LsGraph::with_config(16, cfg());
        let base = g.view().clone();
        g.insert_batch(&[Edge::new(1, 2)]);
        let d = g.changed_since(&base);
        // An orphan delta with no base at all.
        write_delta_checkpoint(&dir, 7, 6, g.view(), &d, 0, 10, 1).unwrap();
        let mut report = GcReport::default();
        assert!(collect_image_garbage(&dir, cfg(), &mut report)
            .unwrap()
            .is_none());
        assert_eq!(report.images_deleted, 0);
        assert!(
            delta_file(&dir, 7).exists(),
            "nothing verified, nothing deleted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_the_chain_and_survives_its_crash_window() {
        let dir = tmpdir("compact");
        let g = two_chains(&dir);
        let meta = compact_chain(&dir, cfg()).unwrap().unwrap();
        assert_eq!(meta.id, 4, "full lands at the tip id");
        assert_eq!(meta.wal_segment, 2);
        assert_eq!(meta.wal_offset, 75);
        assert!(checkpoint_file(&dir, 4).exists());
        assert!(!delta_file(&dir, 4).exists(), "folded delta removed");
        let (restored, info) = load_newest_chain(&dir, cfg()).unwrap();
        let (r, _) = restored.unwrap();
        assert_eq!(info.base_id, 4);
        assert_eq!(info.chain_len, 0);
        assert_eq!(r.num_edges(), g.num_edges());
        // Idempotent: a bare full image has nothing to fold.
        assert!(compact_chain(&dir, cfg()).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
