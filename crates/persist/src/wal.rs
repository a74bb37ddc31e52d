//! The write-ahead log: batches as length-prefixed, checksummed frames.
//!
//! Every update batch is appended to the log *before* the in-memory engine
//! applies it, so a crash can lose at most the batches that were never
//! acknowledged by a [`Wal::sync`]. Frames use the shared
//! [`lsgraph_gen::write_frame`] layout (`u32 LE len | u32 LE CRC32 | payload`);
//! the payload is
//!
//! ```text
//! u64 LE sequence number | u8 op (1 = insert, 2 = delete)
//! | u32 LE edge count | count × (u32 LE src, u32 LE dst)
//! ```
//!
//! Sequence numbers are assigned contiguously from 0 and recorded in
//! checkpoints, so recovery can pair a checkpoint with exactly the WAL tail
//! it does not cover and detect a mismatched or re-initialized log.
//!
//! **Group commit**: appends go to an in-memory buffer and are written out
//! when the buffer passes [`Wal::GROUP_COMMIT_BYTES`] or on an explicit
//! [`Wal::sync`] (which also fsyncs). Between syncs, buffered frames are
//! volatile by design — that is the throughput/durability trade every WAL
//! makes.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use lsgraph_api::{fail_point, Edge, StructStats};
use lsgraph_gen::{parse_frame, write_frame};

/// Operation carried by one WAL frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// The frame's edges were inserted.
    Insert,
    /// The frame's edges were deleted.
    Delete,
}

impl WalOp {
    fn to_byte(self) -> u8 {
        match self {
            WalOp::Insert => 1,
            WalOp::Delete => 2,
        }
    }

    fn from_byte(b: u8) -> Option<WalOp> {
        match b {
            1 => Some(WalOp::Insert),
            2 => Some(WalOp::Delete),
            _ => None,
        }
    }
}

/// One decoded WAL frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalFrame {
    /// Contiguous sequence number assigned at append time.
    pub seq: u64,
    /// Insert or delete.
    pub op: WalOp,
    /// The batch exactly as it was logged.
    pub edges: Vec<Edge>,
}

/// Result of scanning a WAL file from a checkpoint-covered offset.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Frames that decoded cleanly with contiguous sequence numbers.
    pub frames: Vec<WalFrame>,
    /// File offset just past the last valid frame — the truncation point.
    pub valid_len: u64,
    /// Bytes past `valid_len` (torn or corrupt; to be discarded).
    pub bytes_discarded: u64,
    /// Frames lost to the torn tail. Truncation stops at the first bad
    /// frame, and whatever follows is indistinguishable from garbage, so
    /// this counts the truncation event: 1 if any bytes were discarded.
    pub frames_discarded: u64,
}

/// An append-only write-ahead log with group-commit buffering.
pub struct Wal {
    file: File,
    /// Bytes the file durably holds (everything flushed out of `buf`).
    file_len: u64,
    /// Group-commit buffer of encoded frames not yet written to the file.
    buf: Vec<u8>,
    /// Next sequence number to assign.
    next_seq: u64,
}

impl Wal {
    /// Buffered bytes that trigger an automatic (non-fsync) flush.
    pub const GROUP_COMMIT_BYTES: usize = 64 * 1024;

    /// Opens (or creates) the log at `path`, appending after `len` bytes.
    ///
    /// `len` must be a frame boundary — recovery computes it via
    /// [`scan`] — and the file is truncated to it, which is exactly the
    /// torn-write-discard step. `next_seq` seeds sequence numbering.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening or truncating the file.
    pub fn open(path: &Path, len: u64, next_seq: u64) -> io::Result<Wal> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(len)?;
        Ok(Wal {
            file,
            file_len: len,
            buf: Vec::new(),
            next_seq,
        })
    }

    /// Appends one batch frame to the group-commit buffer, returning its
    /// sequence number. Records `wal_frames_appended` into `stats`. The
    /// frame becomes crash-durable only at the next [`Wal::sync`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from an automatic group-commit flush.
    pub fn append(&mut self, op: WalOp, edges: &[Edge], stats: &StructStats) -> io::Result<u64> {
        fail_point!("wal_append");
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(13 + edges.len() * 8);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.push(op.to_byte());
        payload.extend_from_slice(&(edges.len() as u32).to_le_bytes());
        for e in edges {
            payload.extend_from_slice(&e.src.to_le_bytes());
            payload.extend_from_slice(&e.dst.to_le_bytes());
        }
        write_frame(&mut self.buf, &payload).expect("Vec write is infallible");
        self.next_seq += 1;
        stats.wal_frames_appended.record(1);
        if self.buf.len() >= Self::GROUP_COMMIT_BYTES {
            self.flush()?;
        }
        Ok(seq)
    }

    /// Writes buffered frames to the file without fsyncing.
    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.seek(SeekFrom::Start(self.file_len))?;
        self.file.write_all(&self.buf)?;
        self.file_len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes buffered frames and fsyncs — the explicit durability point.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the unflushed frames stay buffered.
    pub fn sync(&mut self) -> io::Result<()> {
        fail_point!("wal_sync");
        self.flush()?;
        self.file.sync_data()
    }

    /// Log length in bytes including still-buffered frames.
    pub fn logical_len(&self) -> u64 {
        self.file_len + self.buf.len() as u64
    }

    /// The sequence number the next appended frame will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Decodes one frame payload; `None` on any structural mismatch.
fn decode_payload(payload: &[u8]) -> Option<WalFrame> {
    if payload.len() < 13 {
        return None;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let op = WalOp::from_byte(payload[8])?;
    let count = u32::from_le_bytes(payload[9..13].try_into().ok()?) as usize;
    let body = &payload[13..];
    if body.len() != count * 8 {
        return None;
    }
    let edges = body
        .chunks_exact(8)
        .map(|c| {
            Edge::new(
                u32::from_le_bytes(c[0..4].try_into().expect("4-byte slice")),
                u32::from_le_bytes(c[4..8].try_into().expect("4-byte slice")),
            )
        })
        .collect();
    Some(WalFrame { seq, op, edges })
}

/// Scans the log at `path` from byte offset `from`, expecting the first
/// frame to carry sequence number `expect_seq` and subsequent frames to be
/// contiguous. Stops at the first torn, corrupt, or out-of-sequence frame;
/// everything after it is reported as discarded.
///
/// A missing file scans as empty (nothing was ever logged).
///
/// # Errors
///
/// Propagates I/O errors from reading the file.
pub fn scan(path: &Path, from: u64, mut expect_seq: u64) -> io::Result<WalScan> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalScan {
                valid_len: from,
                ..WalScan::default()
            })
        }
        Err(e) => return Err(e),
    };
    file.seek(SeekFrom::Start(from))?;
    let mut tail = Vec::new();
    file.read_to_end(&mut tail)?;
    let mut scan = WalScan {
        valid_len: from,
        ..WalScan::default()
    };
    let mut pos = 0usize;
    while pos < tail.len() {
        let Some((payload, consumed)) = parse_frame(&tail[pos..]) else {
            break;
        };
        let Some(frame) = decode_payload(payload) else {
            break;
        };
        if frame.seq != expect_seq {
            break;
        }
        expect_seq += 1;
        scan.frames.push(frame);
        pos += consumed;
    }
    scan.valid_len = from + pos as u64;
    scan.bytes_discarded = (tail.len() - pos) as u64;
    scan.frames_discarded = u64::from(scan.bytes_discarded > 0);
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("lsgraph-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn batch(n: u32) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i + 1)).collect()
    }

    #[test]
    fn append_sync_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let stats = StructStats::new();
        let mut wal = Wal::open(&path, 0, 0).unwrap();
        assert_eq!(wal.append(WalOp::Insert, &batch(5), &stats).unwrap(), 0);
        assert_eq!(wal.append(WalOp::Delete, &batch(2), &stats).unwrap(), 1);
        assert_eq!(stats.snapshot().wal_frames_appended, 2);
        // Buffered, not yet in the file.
        assert_eq!(wal.file_len, 0);
        assert!(wal.logical_len() > 0);
        wal.sync().unwrap();
        assert_eq!(wal.file_len, wal.logical_len());
        let scan = scan(&path, 0, 0).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].op, WalOp::Insert);
        assert_eq!(scan.frames[0].edges, batch(5));
        assert_eq!(scan.frames[1].op, WalOp::Delete);
        assert_eq!(scan.frames[1].seq, 1);
        assert_eq!(scan.bytes_discarded, 0);
        assert_eq!(scan.frames_discarded, 0);
        assert_eq!(scan.valid_len, wal.file_len);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_bounded() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let stats = StructStats::new();
        let mut wal = Wal::open(&path, 0, 0).unwrap();
        for i in 0..3 {
            wal.append(WalOp::Insert, &batch(4 + i), &stats).unwrap();
        }
        wal.sync().unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        // Tear the last frame: chop 3 bytes off.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let s = scan(&path, 0, 0).unwrap();
        assert_eq!(s.frames.len(), 2, "only the intact prefix replays");
        assert_eq!(s.frames_discarded, 1);
        assert!(s.bytes_discarded > 0);
        assert!(s.valid_len < full);
        // Re-opening at the truncation point discards the torn bytes and
        // appending resumes cleanly.
        let mut wal = Wal::open(&path, s.valid_len, 2).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), s.valid_len);
        wal.append(WalOp::Insert, &batch(9), &stats).unwrap();
        wal.sync().unwrap();
        let s = scan(&path, 0, 0).unwrap();
        assert_eq!(s.frames.len(), 3);
        assert_eq!(s.frames[2].edges, batch(9));
        assert_eq!(s.frames_discarded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_sequence_frames_stop_the_scan() {
        let dir = tmpdir("seq");
        let path = dir.join("wal.log");
        let stats = StructStats::new();
        let mut wal = Wal::open(&path, 0, 7).unwrap();
        wal.append(WalOp::Insert, &batch(1), &stats).unwrap();
        wal.sync().unwrap();
        // Expecting seq 0 but the log starts at 7: nothing replays.
        let s = scan(&path, 0, 0).unwrap();
        assert!(s.frames.is_empty());
        assert_eq!(s.frames_discarded, 1);
        // Expecting seq 7 replays it.
        let s = scan(&path, 0, 7).unwrap();
        assert_eq!(s.frames.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_flushes_past_threshold() {
        let dir = tmpdir("group");
        let path = dir.join("wal.log");
        let stats = StructStats::new();
        let mut wal = Wal::open(&path, 0, 0).unwrap();
        // One big batch exceeds the group-commit buffer and auto-flushes
        // (without fsync — sync() is still the durability point).
        let big: Vec<Edge> = (0..20_000u32).map(|i| Edge::new(i, i)).collect();
        wal.append(WalOp::Insert, &big, &stats).unwrap();
        assert!(wal.file_len > 0, "threshold crossing must flush");
        assert_eq!(wal.file_len, wal.logical_len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = tmpdir("missing");
        let s = scan(&dir.join("nope.log"), 0, 0).unwrap();
        assert!(s.frames.is_empty());
        assert_eq!(s.bytes_discarded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
