//! Segmented write-ahead logging: the WAL split into fixed-size rotating
//! files so retention GC can reclaim space in whole-segment units.
//!
//! A [`SegmentedWal`] is a sequence of files `wal.000000`, `wal.000001`, …
//! each an ordinary frame log in the [`crate::wal`] format. Exactly one
//! segment — the highest-numbered — is *active* and accepts appends; the
//! rest are sealed. When an append would push the active segment past its
//! byte budget, the WAL *rotates*: the active segment is flushed and
//! fsynced, then the next index is opened fresh. Frames are never split
//! across segments — a frame larger than the budget simply gets a segment
//! to itself.
//!
//! Positions in a segmented log are a ([`WalPosition`]) pair
//! `(segment, offset)` rather than a single byte offset; checkpoint images
//! record the pair so recovery knows exactly which segment to resume
//! replay in, even after older segments have been deleted by GC.
//!
//! Crash safety of rotation: the old segment is fsynced *before* the new
//! file is created, so a crash between the two leaves a fully valid sealed
//! segment and no successor — recovery reopens the sealed segment as
//! active and the next append re-triggers the rotation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lsgraph_api::{fail_point, Edge, StructStats};

use crate::wal::{self, Wal, WalFrame, WalOp};

/// A replay position in a segmented WAL: byte `offset` inside segment
/// `segment`. Ordered lexicographically, which matches append order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct WalPosition {
    /// Index of the segment file (`wal.{segment:06}`).
    pub segment: u64,
    /// Byte offset inside that segment.
    pub offset: u64,
}

/// File name of WAL segment `index` under `dir` (zero-padded so lexical
/// order equals numeric order).
pub fn segment_file(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal.{index:06}"))
}

/// Extracts the index from a `wal.NNNNNN` file name; `None` for anything
/// else (including the legacy single-file `wal.log`).
fn segment_index_from_path(path: &Path) -> Option<u64> {
    let digits = path.file_name()?.to_str()?.strip_prefix("wal.")?;
    if digits.len() != 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Indices of the segment files currently present under `dir`, ascending.
pub fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out: Vec<u64> = fs::read_dir(dir)?
        .filter_map(|e| segment_index_from_path(&e.ok()?.path()))
        .collect();
    out.sort_unstable();
    Ok(out)
}

/// Result of a cross-segment recovery scan.
#[derive(Debug, Default)]
pub struct SegmentedScan {
    /// Frames that decoded cleanly with contiguous sequence numbers,
    /// across every scanned segment in order.
    pub frames: Vec<WalFrame>,
    /// Position just past the last valid frame — where appending resumes.
    pub end: WalPosition,
    /// Truncation events (1 if a torn/corrupt tail was found anywhere).
    pub frames_discarded: u64,
    /// Bytes past the truncation point, including any later segments that
    /// become unreachable once the scan stops.
    pub bytes_discarded: u64,
}

/// Scans the segmented log under `dir` from `start`, expecting the first
/// frame to carry `expect_seq` and frames to stay contiguous across
/// segment boundaries. Stops at the first torn, corrupt, or
/// out-of-sequence frame; everything after it (in that segment *and* in
/// any later segment) is reported as discarded.
///
/// # Errors
///
/// Propagates I/O errors from reading segment files.
pub fn scan_from(dir: &Path, start: WalPosition, expect_seq: u64) -> io::Result<SegmentedScan> {
    let mut out = SegmentedScan {
        end: start,
        ..SegmentedScan::default()
    };
    let mut seq = expect_seq;
    let mut index = start.segment;
    let mut offset = start.offset;
    loop {
        let path = segment_file(dir, index);
        let s = wal::scan(&path, offset, seq)?;
        seq += s.frames.len() as u64;
        out.frames.extend(s.frames);
        out.end = WalPosition {
            segment: index,
            offset: s.valid_len,
        };
        if s.bytes_discarded > 0 {
            // Torn tail: later segments are unreachable (their sequence
            // numbers can no longer be trusted to be contiguous).
            out.frames_discarded = 1;
            out.bytes_discarded = s.bytes_discarded;
            let mut later = index + 1;
            while let Ok(meta) = fs::metadata(segment_file(dir, later)) {
                out.bytes_discarded += meta.len();
                later += 1;
            }
            return Ok(out);
        }
        if !segment_file(dir, index + 1).exists() {
            return Ok(out);
        }
        index += 1;
        offset = 0;
    }
}

/// A rotating, fixed-budget segmented WAL. Wraps a single-file [`Wal`] as
/// the active segment and seals it when it fills.
pub struct SegmentedWal {
    dir: PathBuf,
    active_index: u64,
    active: Wal,
    segment_bytes: u64,
    /// Durable bytes held by sealed segments still on disk.
    closed_bytes: u64,
}

impl SegmentedWal {
    /// Opens the segmented log under `dir` for appending at `end` (the
    /// valid position computed by [`scan_from`]). The end segment is
    /// truncated to `end.offset` (torn-write discard) and any
    /// higher-numbered segments — unreachable after a torn scan — are
    /// deleted. `next_seq` seeds sequence numbering; `segment_bytes` is
    /// the rotation budget.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening, truncating, or deleting files.
    pub fn open(
        dir: &Path,
        end: WalPosition,
        next_seq: u64,
        segment_bytes: u64,
    ) -> io::Result<SegmentedWal> {
        let mut closed_bytes = 0u64;
        for idx in list_segments(dir)? {
            if idx > end.segment {
                fs::remove_file(segment_file(dir, idx))?;
            } else if idx < end.segment {
                closed_bytes += fs::metadata(segment_file(dir, idx))?.len();
            }
        }
        let active = Wal::open(&segment_file(dir, end.segment), end.offset, next_seq)?;
        Ok(SegmentedWal {
            dir: dir.to_path_buf(),
            active_index: end.segment,
            active,
            segment_bytes,
            closed_bytes,
        })
    }

    /// Appends one batch frame, rotating first if the frame would push the
    /// active segment past its budget (a frame never spans segments; an
    /// oversized frame gets an empty segment to itself). Returns the
    /// frame's sequence number and refreshes the `wal_live_bytes` gauge.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the rotation fsync or the append; on a
    /// rotation error nothing was appended.
    pub fn append(&mut self, op: WalOp, edges: &[Edge], stats: &StructStats) -> io::Result<u64> {
        // Frame size: 8-byte binio header + 13-byte payload header + edges.
        let frame_bytes = 21 + edges.len() as u64 * 8;
        if self.active.logical_len() > 0
            && self.active.logical_len() + frame_bytes > self.segment_bytes
        {
            self.rotate(stats)?;
        }
        let seq = self.active.append(op, edges, stats)?;
        stats.wal_live_bytes.record(self.live_bytes());
        Ok(seq)
    }

    /// Seals the active segment (flush + fsync) and opens the next index.
    fn rotate(&mut self, stats: &StructStats) -> io::Result<()> {
        self.active.sync()?;
        fail_point!("wal_rotate");
        let sealed = self.active.logical_len();
        let next_index = self.active_index + 1;
        let next = Wal::open(
            &segment_file(&self.dir, next_index),
            0,
            self.active.next_seq(),
        )?;
        self.active = next;
        self.active_index = next_index;
        self.closed_bytes += sealed;
        stats.wal_segments_rotated.record(1);
        stats.wal_live_bytes.record(self.live_bytes());
        Ok(())
    }

    /// Flushes and fsyncs the active segment — the explicit durability
    /// point. Sealed segments were fsynced when they rotated out.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the flush or fsync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync()
    }

    /// The append position: active segment index and its logical length
    /// (including group-commit-buffered frames).
    pub fn position(&self) -> WalPosition {
        WalPosition {
            segment: self.active_index,
            offset: self.active.logical_len(),
        }
    }

    /// Total live WAL bytes: sealed segments still on disk plus the active
    /// segment's logical length.
    pub fn live_bytes(&self) -> u64 {
        self.closed_bytes + self.active.logical_len()
    }

    /// The sequence number the next appended frame will get.
    pub fn next_seq(&self) -> u64 {
        self.active.next_seq()
    }

    /// Deletes sealed segments with index strictly below `cutoff` (clamped
    /// so the active segment is never deleted), evaluating the
    /// `segment_gc` failpoint before each unlink so crash tests can kill
    /// mid-GC. Records `wal_segments_deleted` and refreshes
    /// `wal_live_bytes`; returns `(segments_deleted, bytes_deleted)`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from listing or deleting files.
    pub fn delete_segments_below(
        &mut self,
        cutoff: u64,
        stats: &StructStats,
    ) -> io::Result<(u64, u64)> {
        let cutoff = cutoff.min(self.active_index);
        let mut deleted = 0u64;
        let mut bytes = 0u64;
        for idx in list_segments(&self.dir)? {
            if idx >= cutoff {
                break;
            }
            fail_point!("segment_gc");
            let path = segment_file(&self.dir, idx);
            let len = fs::metadata(&path)?.len();
            fs::remove_file(&path)?;
            self.closed_bytes = self.closed_bytes.saturating_sub(len);
            deleted += 1;
            bytes += len;
        }
        if deleted > 0 {
            stats.wal_segments_deleted.record(deleted);
            stats.wal_live_bytes.record(self.live_bytes());
        }
        Ok((deleted, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsgraph-seg-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn batch(n: u32) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i + 1)).collect()
    }

    /// Small budget so a handful of frames forces several rotations.
    const SMALL: u64 = 256;

    #[test]
    fn appends_rotate_and_scan_spans_segments() {
        let dir = tmpdir("rotate");
        let stats = StructStats::new();
        let mut w = SegmentedWal::open(&dir, WalPosition::default(), 0, SMALL).unwrap();
        for _ in 0..10 {
            w.append(WalOp::Insert, &batch(10), &stats).unwrap();
        }
        w.sync().unwrap();
        assert!(w.active_index > 0, "small budget must rotate");
        assert_eq!(
            stats.snapshot().wal_segments_rotated,
            w.active_index,
            "one rotation per sealed segment"
        );
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len() as u64, w.active_index + 1);
        let s = scan_from(&dir, WalPosition::default(), 0).unwrap();
        assert_eq!(s.frames.len(), 10);
        assert_eq!(s.frames_discarded, 0);
        assert_eq!(s.end, w.position());
        // Live bytes equals the sum of all segment files.
        let on_disk: u64 = segs
            .iter()
            .map(|&i| fs::metadata(segment_file(&dir, i)).unwrap().len())
            .sum();
        assert_eq!(w.live_bytes(), on_disk);
        assert_eq!(stats.snapshot().wal_live_bytes, on_disk);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_frame_gets_its_own_segment() {
        let dir = tmpdir("oversized");
        let stats = StructStats::new();
        let mut w = SegmentedWal::open(&dir, WalPosition::default(), 0, SMALL).unwrap();
        w.append(WalOp::Insert, &batch(2), &stats).unwrap();
        // Far larger than the budget: must still be appended whole.
        w.append(WalOp::Insert, &batch(500), &stats).unwrap();
        w.append(WalOp::Insert, &batch(2), &stats).unwrap();
        w.sync().unwrap();
        let s = scan_from(&dir, WalPosition::default(), 0).unwrap();
        assert_eq!(s.frames.len(), 3);
        assert_eq!(s.frames[1].edges.len(), 500);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_mid_chain_discards_later_segments() {
        let dir = tmpdir("torn");
        let stats = StructStats::new();
        let mut w = SegmentedWal::open(&dir, WalPosition::default(), 0, SMALL).unwrap();
        for _ in 0..9 {
            w.append(WalOp::Insert, &batch(10), &stats).unwrap();
        }
        w.sync().unwrap();
        assert!(w.active_index >= 2, "need at least three segments");
        // Tear a frame in segment 1: everything from there on is lost.
        let p1 = segment_file(&dir, 1);
        let bytes = fs::read(&p1).unwrap();
        fs::write(&p1, &bytes[..bytes.len() - 3]).unwrap();
        let s = scan_from(&dir, WalPosition::default(), 0).unwrap();
        assert_eq!(s.frames_discarded, 1);
        assert_eq!(s.end.segment, 1);
        assert!(s.bytes_discarded > 0);
        let seg0_frames = wal::scan(&segment_file(&dir, 0), 0, 0)
            .unwrap()
            .frames
            .len();
        assert!(
            s.frames.len() > seg0_frames,
            "segment 1's intact prefix replays"
        );
        assert!(s.frames.len() < 9);
        // Reopening at the scan end truncates segment 1 and deletes 2+.
        let w = SegmentedWal::open(&dir, s.end, s.frames.len() as u64, SMALL).unwrap();
        assert_eq!(w.active_index, 1);
        assert_eq!(list_segments(&dir).unwrap(), vec![0, 1]);
        let again = scan_from(&dir, WalPosition::default(), 0).unwrap();
        assert_eq!(again.frames.len(), s.frames.len());
        assert_eq!(again.frames_discarded, 0, "second scan is clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_resumes_mid_segment_from_a_position() {
        let dir = tmpdir("resume");
        let stats = StructStats::new();
        let mut w = SegmentedWal::open(&dir, WalPosition::default(), 0, SMALL).unwrap();
        let mut positions = Vec::new();
        for _ in 0..8 {
            positions.push(w.position());
            w.append(WalOp::Insert, &batch(10), &stats).unwrap();
        }
        w.sync().unwrap();
        // Replaying from the position before frame k yields frames k..8.
        for (k, &pos) in positions.iter().enumerate() {
            let s = scan_from(&dir, pos, k as u64).unwrap();
            assert_eq!(s.frames.len(), 8 - k, "from position {pos:?}");
            if let Some(f) = s.frames.first() {
                assert_eq!(f.seq, k as u64);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_deletes_only_below_cutoff_and_never_the_active_segment() {
        let dir = tmpdir("gc");
        let stats = StructStats::new();
        let mut w = SegmentedWal::open(&dir, WalPosition::default(), 0, SMALL).unwrap();
        for _ in 0..10 {
            w.append(WalOp::Insert, &batch(10), &stats).unwrap();
        }
        w.sync().unwrap();
        let active = w.active_index;
        assert!(active >= 2);
        let (n, bytes) = w.delete_segments_below(2, &stats).unwrap();
        assert_eq!(n, 2);
        assert!(bytes > 0);
        assert_eq!(stats.snapshot().wal_segments_deleted, 2);
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs[0], 2);
        // A cutoff past the active segment is clamped: the active file and
        // its sealed predecessors up to it survive only below the clamp.
        let (n, _) = w.delete_segments_below(u64::MAX, &stats).unwrap();
        assert_eq!(n, active - 2, "everything sealed below the active index");
        assert_eq!(list_segments(&dir).unwrap(), vec![active]);
        // Replay from the oldest surviving position still works.
        let s = scan_from(
            &dir,
            WalPosition {
                segment: active,
                offset: 0,
            },
            // Frames 0.. landed in deleted segments; count what survived.
            10 - wal_frames_in(&dir, active),
        )
        .unwrap();
        assert_eq!(s.frames_discarded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn wal_frames_in(dir: &Path, index: u64) -> u64 {
        // Sequence-agnostic frame count of one segment: scan with the
        // first frame's own seq.
        let raw = fs::read(segment_file(dir, index)).unwrap();
        if raw.len() < 16 {
            return 0;
        }
        let seq = u64::from_le_bytes(raw[8..16].try_into().unwrap());
        wal::scan(&segment_file(dir, index), 0, seq)
            .unwrap()
            .frames
            .len() as u64
    }

    #[test]
    fn crash_between_seal_and_create_reopens_cleanly() {
        // Simulate the rotation crash window: a sealed, full segment with
        // no successor file. Reopen must land at its end and the next
        // append must rotate.
        let dir = tmpdir("crashwin");
        let stats = StructStats::new();
        let mut w = SegmentedWal::open(&dir, WalPosition::default(), 0, 64).unwrap();
        w.append(WalOp::Insert, &batch(10), &stats).unwrap();
        w.sync().unwrap();
        assert_eq!(w.active_index, 0, "single oversized frame stays put");
        drop(w);
        let s = scan_from(&dir, WalPosition::default(), 0).unwrap();
        let mut w = SegmentedWal::open(&dir, s.end, 1, 64).unwrap();
        assert_eq!(w.active_index, 0);
        w.append(WalOp::Insert, &batch(1), &stats).unwrap();
        assert_eq!(w.active_index, 1, "append past a full segment rotates");
        std::fs::remove_dir_all(&dir).ok();
    }
}
