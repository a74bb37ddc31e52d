//! Delta-gap LEB128 neighbor compression — the cold spill tier's codec.
//!
//! A sorted duplicate-free adjacency is split into chunks of
//! [`CHUNK`] values. Each chunk stores its first value raw in a skip-pointer
//! array and the remaining values as LEB128 varints of `gap - 1` (gaps are
//! always `>= 1`, so the bias buys one extra bit per byte). A per-chunk byte
//! offset array completes the skip index, so membership probes decode **at
//! most one chunk**: the skip pointers are binary-searched branch-free
//! ([`crate::search`]), then one chunk's gap stream is walked.
//!
//! Encoding is pure; the engine that installs a frozen spill records
//! `spill_compressions` and `compressed_bytes_saved`
//! ([`CompressedNeighbors::bytes_saved`]) into its own
//! [`StructStats`]. A membership probe records
//! `compressed_chunks_decoded` into the stats its caller hands it.

use lsgraph_api::{Footprint, StructStats};

use crate::search;

/// Values per compressed chunk (four cache lines of raw `u32` ids).
pub const CHUNK: usize = 64;

/// A decode failure: the chunk's byte stream does not round-trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The gap stream ended before the recorded value count was produced.
    Truncated,
    /// A varint ran past 5 bytes (no valid `u32` encoding does).
    Overlong,
    /// Decoding produced a value that wrapped past `u32::MAX`.
    Overflow,
    /// The gap stream had bytes left after the recorded value count.
    TrailingBytes,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "gap stream truncated mid-chunk"),
            CodecError::Overlong => write!(f, "varint longer than 5 bytes"),
            CodecError::Overflow => write!(f, "decoded value overflows u32"),
            CodecError::TrailingBytes => write!(f, "gap stream has trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends the LEB128 encoding of `v` to `out`.
#[inline]
fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 `u32` from `bytes[*pos..]`, advancing `*pos`.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 35 || (shift == 28 && (b & 0x7f) > 0x0f) {
            return Err(if shift >= 35 {
                CodecError::Overlong
            } else {
                CodecError::Overflow
            });
        }
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encodes one chunk's gap stream: `values[0]` is *not* written (it lives in
/// the skip-pointer array); each later value contributes `gap - 1`.
pub fn encode_chunk(values: &[u32], out: &mut Vec<u8>) {
    debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
    for w in values.windows(2) {
        push_varint(out, w[1] - w[0] - 1);
    }
}

/// Decodes one chunk: `first` is the raw first value, `count` the total
/// values in the chunk, `bytes` exactly its gap stream. Rejects truncated,
/// overlong, overflowing, and over-long streams as values.
pub fn decode_chunk(first: u32, count: usize, bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return if bytes.is_empty() {
            Ok(out)
        } else {
            Err(CodecError::TrailingBytes)
        };
    }
    out.push(first);
    let mut cur = first;
    let mut pos = 0usize;
    for _ in 1..count {
        let gap = read_varint(bytes, &mut pos)?;
        cur = cur
            .checked_add(gap)
            .and_then(|c| c.checked_add(1))
            .ok_or(CodecError::Overflow)?;
        out.push(cur);
    }
    if pos != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(out)
}

/// A sorted duplicate-free neighbor set in delta-gap LEB128 chunks with
/// skip pointers.
#[derive(Clone, Debug)]
pub struct CompressedNeighbors {
    /// First value of each chunk (the skip-pointer keys, strictly
    /// ascending).
    first_keys: Vec<u32>,
    /// Byte offset of each chunk's gap stream in `bytes` (chunk `c` spans
    /// `offsets[c]..offsets[c + 1]`, the last chunk ends at `bytes.len()`).
    offsets: Vec<u32>,
    /// Concatenated gap streams.
    bytes: Vec<u8>,
    /// Total stored values.
    len: usize,
}

impl CompressedNeighbors {
    /// Compresses a sorted duplicate-free slice.
    pub fn from_sorted(ns: &[u32]) -> Self {
        debug_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        let mut c = CompressedNeighbors {
            first_keys: Vec::with_capacity(ns.len().div_ceil(CHUNK)),
            offsets: Vec::with_capacity(ns.len().div_ceil(CHUNK)),
            bytes: Vec::new(),
            len: ns.len(),
        };
        for chunk in ns.chunks(CHUNK) {
            c.first_keys.push(chunk[0]);
            c.offsets.push(c.bytes.len() as u32);
            encode_chunk(chunk, &mut c.bytes);
        }
        c
    }

    /// Total stored values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.first_keys.len()
    }

    /// Values in chunk `c` (all chunks are full except possibly the last).
    #[inline]
    fn chunk_count(&self, c: usize) -> usize {
        if c + 1 == self.num_chunks() {
            self.len - c * CHUNK
        } else {
            CHUNK
        }
    }

    /// Byte range of chunk `c`'s gap stream.
    #[inline]
    fn chunk_bytes(&self, c: usize) -> &[u8] {
        let start = self.offsets[c] as usize;
        let end = self
            .offsets
            .get(c + 1)
            .map_or(self.bytes.len(), |&o| o as usize);
        &self.bytes[start..end]
    }

    /// Bytes actually stored (gap streams plus the skip index).
    pub fn stored_bytes(&self) -> usize {
        self.bytes.len()
            + self.first_keys.len() * core::mem::size_of::<u32>()
            + self.offsets.len() * core::mem::size_of::<u32>()
    }

    /// Bytes saved versus storing the same values as raw `u32`s.
    pub fn bytes_saved(&self) -> usize {
        (self.len * core::mem::size_of::<u32>()).saturating_sub(self.stored_bytes())
    }

    /// Membership probe: branch-free skip-pointer search, then at most one
    /// chunk decode (recorded into `stats` as `compressed_chunks_decoded`).
    pub fn contains(&self, key: u32, stats: &StructStats) -> bool {
        let (found, decoded) = self.probe(key);
        if decoded {
            stats.record_compressed_chunk_decoded();
        }
        found
    }

    /// The probe behind [`contains`](Self::contains): whether `key` is
    /// stored, and whether answering decoded a chunk (one at most).
    fn probe(&self, key: u32) -> (bool, bool) {
        let Some(c) = search::rightmost_le(&self.first_keys, key) else {
            return (false, false); // key precedes every chunk (or the set is empty)
        };
        if self.first_keys[c] == key {
            return (true, false); // skip-pointer hit, no decode needed
        }
        let bytes = self.chunk_bytes(c);
        let mut cur = self.first_keys[c];
        let mut pos = 0usize;
        for _ in 1..self.chunk_count(c) {
            let gap =
                read_varint(bytes, &mut pos).expect("self-encoded chunk streams always decode");
            cur += gap + 1;
            if cur >= key {
                return (cur == key, true);
            }
        }
        (false, true)
    }

    /// Applies `f` to every value in ascending order.
    pub fn for_each(&self, f: &mut dyn FnMut(u32)) {
        for v in self.iter() {
            f(v);
        }
    }

    /// Applies `f` until it returns `false`; returns whether the scan
    /// completed.
    pub fn for_each_while(&self, f: &mut dyn FnMut(u32) -> bool) -> bool {
        for v in self.iter() {
            if !f(v) {
                return false;
            }
        }
        true
    }

    /// Collects every value into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Streaming ascending iterator (decodes gap streams on the fly).
    pub fn iter(&self) -> CompressedIter<'_> {
        CompressedIter {
            c: self,
            chunk: 0,
            emitted_in_chunk: 0,
            cur: 0,
            pos: 0,
        }
    }

    /// Payload/index byte split for footprint accounting.
    pub fn footprint(&self) -> Footprint {
        Footprint::new(
            self.bytes.len(),
            self.first_keys.len() * core::mem::size_of::<u32>()
                + self.offsets.len() * core::mem::size_of::<u32>(),
        )
    }

    /// Verifies every structural invariant, including that each chunk's gap
    /// stream decodes cleanly with no trailing bytes.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        assert_eq!(self.first_keys.len(), self.offsets.len());
        assert_eq!(self.num_chunks(), self.len.div_ceil(CHUNK));
        assert!(
            self.first_keys.windows(2).all(|w| w[0] < w[1]),
            "skip keys unsorted"
        );
        let mut prev: Option<u32> = None;
        for c in 0..self.num_chunks() {
            let vals = decode_chunk(self.first_keys[c], self.chunk_count(c), self.chunk_bytes(c))
                .unwrap_or_else(|e| panic!("chunk {c} does not decode: {e}"));
            for &v in &vals {
                if let Some(p) = prev {
                    assert!(p < v, "order violation across chunks: {p} !< {v}");
                }
                prev = Some(v);
            }
        }
    }
}

/// Streaming ascending iterator over a [`CompressedNeighbors`].
#[derive(Clone, Debug)]
pub struct CompressedIter<'a> {
    c: &'a CompressedNeighbors,
    chunk: usize,
    emitted_in_chunk: usize,
    cur: u32,
    /// Byte position within the current chunk's gap stream.
    pos: usize,
}

impl Iterator for CompressedIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.chunk >= self.c.num_chunks() {
            return None;
        }
        if self.emitted_in_chunk == 0 {
            self.cur = self.c.first_keys[self.chunk];
            self.pos = 0;
        } else {
            let bytes = self.c.chunk_bytes(self.chunk);
            let gap = read_varint(bytes, &mut self.pos)
                .expect("self-encoded chunk streams always decode");
            self.cur += gap + 1;
        }
        self.emitted_in_chunk += 1;
        let v = self.cur;
        if self.emitted_in_chunk == self.c.chunk_count(self.chunk) {
            self.chunk += 1;
            self.emitted_in_chunk = 0;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sink for the structural events these tests do not look at.
    static STATS: StructStats = StructStats::new();
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn round_trips_simple_sets() {
        for ns in [
            vec![],
            vec![7u32],
            vec![0, 1, 2, 3],
            (0..CHUNK as u32).collect::<Vec<_>>(),
            (0..CHUNK as u32 + 1).collect::<Vec<_>>(),
            (0..1_000u32).map(|i| i * 17 + 3).collect::<Vec<_>>(),
        ] {
            let c = CompressedNeighbors::from_sorted(&ns);
            c.check_invariants();
            assert_eq!(c.len(), ns.len());
            assert_eq!(c.to_vec(), ns);
        }
    }

    #[test]
    fn contains_decodes_at_most_one_chunk() {
        let ns: Vec<u32> = (0..10 * CHUNK as u32).map(|i| i * 3).collect();
        let c = CompressedNeighbors::from_sorted(&ns);
        // Counted from what each probe reports: `STATS` is shared with the
        // sibling tests.
        let mut decoded = 0u64;
        for probe in 0..(ns.len() as u32 * 3 + 5) {
            let (found, chunk_decoded) = c.probe(probe);
            assert_eq!(found, probe % 3 == 0 && ns.contains(&probe));
            assert_eq!(c.contains(probe, &STATS), found);
            decoded += u64::from(chunk_decoded);
        }
        // Every probe decodes its one chunk, except a chunk's first key.
        assert_eq!(decoded, ns.len() as u64 * 3 + 5 - c.num_chunks() as u64);
    }

    #[test]
    fn random_sets_round_trip_and_probe_exactly() {
        let mut rng = SmallRng::seed_from_u64(0xC0DEC);
        for case in 0..40 {
            let n = rng.gen_range(0..2_000usize);
            let mut ns: Vec<u32> = (0..n).map(|_| rng.gen_range(0..100_000u32)).collect();
            ns.sort_unstable();
            ns.dedup();
            let c = CompressedNeighbors::from_sorted(&ns);
            c.check_invariants();
            assert_eq!(c.to_vec(), ns, "case {case}");
            let set: std::collections::BTreeSet<u32> = ns.iter().copied().collect();
            for _ in 0..200 {
                let probe = rng.gen_range(0..100_100u32);
                assert_eq!(
                    c.contains(probe, &STATS),
                    set.contains(&probe),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn adversarial_gap_patterns_round_trip() {
        // Minimal gaps, maximal gaps, and alternating extremes — the
        // varint edge cases (1-byte vs 5-byte encodings).
        let dense: Vec<u32> = (0..500).collect();
        let sparse: Vec<u32> = (0..32u32).map(|i| i.wrapping_mul(0x0800_0000)).collect();
        let mut alternating = vec![0u32];
        for i in 1..200u32 {
            let prev = *alternating.last().unwrap();
            let gap = if i % 2 == 0 { 1 } else { 1 << 20 };
            alternating.push(prev + gap);
        }
        let extremes = vec![0u32, 1, u32::MAX - 1, u32::MAX];
        for ns in [dense, sparse, alternating, extremes] {
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
            let c = CompressedNeighbors::from_sorted(&ns);
            c.check_invariants();
            assert_eq!(c.to_vec(), ns);
            for &v in &ns {
                assert!(c.contains(v, &STATS));
            }
        }
    }

    #[test]
    fn truncated_chunks_are_rejected() {
        let ns: Vec<u32> = (0..CHUNK as u32).map(|i| i * 1_000).collect();
        let mut bytes = Vec::new();
        encode_chunk(&ns, &mut bytes);
        assert_eq!(decode_chunk(ns[0], ns.len(), &bytes).unwrap(), ns);
        // Every proper prefix must be rejected, not silently short-decoded.
        for cut in 0..bytes.len() {
            assert!(
                decode_chunk(ns[0], ns.len(), &bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage is rejected too.
        bytes.push(0);
        assert_eq!(
            decode_chunk(ns[0], ns.len(), &bytes),
            Err(CodecError::TrailingBytes)
        );
    }

    #[test]
    fn malformed_varints_are_rejected() {
        // 6 continuation bytes: no u32 needs more than 5.
        let overlong = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert_eq!(decode_chunk(0, 2, &overlong), Err(CodecError::Overlong));
        // 5-byte varint whose top bits overflow 32 bits.
        let overflow = [0xffu8, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(decode_chunk(0, 2, &overflow), Err(CodecError::Overflow));
        // A decoded gap that wraps past u32::MAX.
        let mut wrap = Vec::new();
        push_varint(&mut wrap, u32::MAX - 1);
        assert_eq!(
            decode_chunk(u32::MAX - 1, 2, &wrap),
            Err(CodecError::Overflow)
        );
    }

    #[test]
    fn dense_adjacency_actually_compresses() {
        let ns: Vec<u32> = (0..10_000u32).map(|i| i * 2).collect();
        let c = CompressedNeighbors::from_sorted(&ns);
        let raw = ns.len() * core::mem::size_of::<u32>();
        assert!(
            c.stored_bytes() * 2 < raw,
            "gap-1 coding of small gaps should at least halve {raw} bytes, got {}",
            c.stored_bytes()
        );
        let fp = c.footprint();
        assert_eq!(fp.payload_bytes + fp.index_bytes, c.stored_bytes());
    }

    #[test]
    fn iterator_streams_across_chunk_boundaries() {
        let ns: Vec<u32> = (0..3 * CHUNK as u32 + 7).map(|i| i * 5 + 1).collect();
        let c = CompressedNeighbors::from_sorted(&ns);
        let mut it = c.iter();
        for &v in &ns {
            assert_eq!(it.next(), Some(v));
        }
        assert_eq!(it.next(), None);
        // for_each_while stops exactly where asked.
        let mut seen = 0;
        assert!(!c.for_each_while(&mut |v| {
            seen += 1;
            v < ns[CHUNK]
        }));
        assert_eq!(seen, CHUNK + 1);
    }
}
